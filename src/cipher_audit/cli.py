"""Command-line interface: cipher operations and the full experiment suite.

Experiment commands emit CSV reports (LF line endings, 4-decimal fixed
formatting, rows ordered by ascending size then rounds).  Every command is
byte-deterministic for a fixed --seed, regardless of --jobs.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

from . import cipher, experiments, image_io
from .experiments import ExperimentConfig, Stats

SEED_ENV_VAR = "CIPHER_AUDIT_SEED"


# Integers and decimals are ASCII: int() and float() alone also take '+', spaces,
# underscores and other digits.  '-' reaches the check that explains it.
_INT = re.compile(r"-?[0-9]+")
_DECIMAL = re.compile(r"-?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][-+]?[0-9]+)?")
# A decimal, or nan, inf and -inf, which reach the range check that explains them.
_REAL = re.compile(rf"{_DECIMAL.pattern}|-?(nan|inf)")


def _int(text: str) -> int:
    if not _INT.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


_int.__name__ = "int"  # argparse's message reads "invalid int value: ..."


def _int_list(span):
    """argparse type: comma-separated integers, where 'a..b' stands for span(a, b)."""

    def int_list(text: str) -> tuple[int, ...]:
        out: list[int] = []
        for entry in text.split(","):
            lo, dots, hi = entry.partition("..")
            out.extend(span(_int(lo), _int(hi)) if dots else [_int(lo)])
        if not out:
            raise ValueError("empty list")
        return tuple(sorted(set(out)))

    return int_list


def _round_range(lo: int, hi: int) -> range:
    """Round counts lo..hi, inclusive; both ends pass cipher.check_rounds before the range is expanded."""
    try:
        return range(cipher.check_rounds(lo), cipher.check_rounds(hi) + 1)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _real(text: str) -> float:
    if not _REAL.fullmatch(text):
        raise ValueError(f"not a decimal: {text!r}")
    return float(text)


_real.__name__ = "float"  # argparse's message reads "invalid float value: ..."


def _float_list(text: str) -> tuple[float, ...]:
    """argparse type: comma-separated decimals; '' is no percentages."""
    entries = text.split(",") if text else []
    if not all(_DECIMAL.fullmatch(entry) for entry in entries):
        raise ValueError(f"not a list of decimals: {text!r}")
    return tuple(float(entry) for entry in entries)


_float_list.__name__ = "float_list"  # argparse's message reads "invalid float_list value: ..."


def _fmt(value: float) -> str:
    return f"{value:.4f}"


def _stats_fields(stats: Stats) -> list[str]:
    return [_fmt(stats.minimum), _fmt(stats.mean), _fmt(stats.maximum), _fmt(stats.std)]


def _stats_header(name: str) -> list[str]:
    """The CSV columns of _stats_fields for the statistic name."""
    return [f"{name}_{field}" for field in ("min", "mean", "max", "std")]


def _write_report(args: argparse.Namespace, header: list[str], rows: list[list[str]],
                  noun: str) -> int:
    """Write a sweep's CSV to --out and announce it on stdout."""
    text = "\n".join([",".join(header)] + [",".join(row) for row in rows]) + "\n"
    with open(args.outfile, "w", encoding="ascii", newline="") as fh:
        fh.write(text)
    print(f"wrote {args.outfile} ({len(rows)} {noun}, {args.trials} trials each)")
    return 0


def _config(args: argparse.Namespace, **fields) -> ExperimentConfig:
    """The sweep's configuration; without --seed, the master seed comes from the environment.

    Also checks that --out names a file in a directory that exists, so that
    a sweep is not run only to find it cannot write its report.
    """
    if not args.outfile:
        raise ValueError("--out is empty")
    if os.path.isdir(args.outfile):
        raise ValueError(f"--out is a directory: {args.outfile}")
    directory = os.path.dirname(args.outfile) or os.curdir
    if not os.path.isdir(directory):
        raise ValueError(f"the directory of --out does not exist: {directory}")
    text = os.environ.get(SEED_ENV_VAR, "0")
    try:
        seed = _int(text) if args.seed is None else args.seed
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {text!r}") from None
    if args.jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {args.jobs}")
    return ExperimentConfig(trials=args.trials, master_seed=seed, **fields)


def _print_keyspace(report: experiments.KeySpaceReport) -> None:
    # from 1e9 s on, the digits of a fixed-point figure past the 17th are float noise
    seconds = report.brute_force_seconds
    search = f"{seconds:.3f}" if seconds < 1e9 else f"{seconds:.3e}"
    print(
        f"key space for M={report.size}: q={report.param_bits}, "
        f"{report.key_bits}-bit key, 2^{report.key_bits} = {report.key_space} keys"
    )
    print(
        f"distinct permutations (parameters mod M): "
        f"M^4 = {report.effective_key_space} = 2^{math.log2(report.effective_key_space):.2f}"
    )
    print(
        f"exhaustive search of the M^4 permutations at {report.guesses_per_second:.0e} guesses/s: "
        f"{search} s"
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_encrypt(args: argparse.Namespace) -> int:
    image = image_io.read_pgm(args.infile)
    m = cipher.validate_image(image)
    key = cipher.key_from_hex(args.key_hex, m, args.rounds)
    image_io.write_raw(cipher.encrypt(image, key), args.outfile)
    print(f"encrypted {args.infile} ({m}x{m}, {args.rounds} rounds) -> {args.outfile}")
    _print_keyspace(experiments.keyspace_report(m))
    return 0


def _cmd_decrypt(args: argparse.Namespace) -> int:
    blob = image_io.read_raw(args.infile, args.dim)
    key = cipher.key_from_hex(args.key_hex, args.dim, args.rounds)
    image_io.write_pgm(cipher.decrypt(blob, key), args.outfile)
    print(f"decrypted {args.infile} ({args.dim}x{args.dim}, {args.rounds} rounds) -> {args.outfile}")
    return 0


def _cmd_avalanche(args: argparse.Namespace) -> int:
    cfg = _config(args, sizes=args.sizes, rounds=args.rounds)
    report = experiments.avalanche_sweep(cfg, jobs=args.jobs)
    header = ["size", "rounds", "trials"] + _stats_header("ps") + _stats_header("diff")
    rows = [
        [str(cell.size), str(cell.rounds), str(cell.ps.count)]
        + _stats_fields(cell.ps) + _stats_fields(cell.diff)
        for cell in report
    ]
    return _write_report(args, header, rows, "cells")


def _cmd_uniformity(args: argparse.Namespace) -> int:
    cfg = _config(args, sizes=args.sizes, rounds=args.rounds)
    report = experiments.uniformity_sweep(cfg, jobs=args.jobs, plaintext=args.plaintext)
    header = ["size", "rounds", "trials"] + _stats_header("chi2") + ["threshold"]
    rows = [
        [str(cell.size), str(cell.rounds), str(cell.chi2.count)]
        + _stats_fields(cell.chi2) + [_fmt(cell.threshold)]
        for cell in report
    ]
    return _write_report(args, header, rows, "cells")


def _cmd_errorprop(args: argparse.Namespace) -> int:
    image = image_io.read_pgm(args.image)
    report = experiments.error_propagation(_config(args), image, jobs=args.jobs, rounds=args.rounds,
                                           percents=args.percents)
    header = (["mode", "percent", "flipped_bits", "trials"]
              + _stats_header("dif") + _stats_header("psnr") + _stats_header("ssim"))
    rows = [
        [row.mode, _fmt(row.percent), str(row.flipped_bits), str(row.dif.count)]
        + _stats_fields(row.dif) + _stats_fields(row.psnr) + _stats_fields(row.ssim)
        for row in report
    ]
    return _write_report(args, header, rows, "rows")


def _cmd_keyspace(args: argparse.Namespace) -> int:
    _print_keyspace(experiments.keyspace_report(args.dim, args.rate))
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    for row in cipher.build_diffusion_matrix():
        print("".join("1" if bit else "0" for bit in row))
    return 0


def _cmd_make_image(args: argparse.Namespace) -> int:
    # Without --seed each generator uses its own default seed.
    seed = {} if args.seed is None else {"seed": args.seed}
    if args.kind == "portrait":
        image = image_io.make_portrait_image(args.dim, **seed)
    else:
        image = image_io.make_test_image(args.kind, args.dim, x=args.x, y=args.y, **seed)
    image_io.write_pgm(image, args.outfile)
    print(f"wrote {args.outfile} ({args.dim}x{args.dim} {args.kind})")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Rejects a command line with one stderr line and exit code 2, like every other bad input."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    # Subparsers are built with the class of their parent.
    parser = _Parser(
        prog="cipher-audit",
        description="Bit-permutation image cipher and its statistical audit harness.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("encrypt", help="encrypt a PGM into a raw ciphertext blob")
    sub.add_argument("--in", dest="infile", required=True, help="input PGM (P5) path")
    sub.add_argument("--out", dest="outfile", required=True, help="output blob path")
    sub.add_argument("--key-hex", required=True, help="4q-bit key as q hex digits")
    sub.add_argument("--rounds", type=_int, required=True, help="round count, 1 <= r < 2^32")
    sub.set_defaults(func=_cmd_encrypt)

    sub = commands.add_parser("decrypt", help="decrypt a raw ciphertext blob into a PGM")
    sub.add_argument("--in", dest="infile", required=True, help="input blob path")
    sub.add_argument("--out", dest="outfile", required=True, help="output PGM path")
    sub.add_argument("--key-hex", required=True, help="4q-bit key as q hex digits")
    sub.add_argument("--rounds", type=_int, required=True, help="round count, 1 <= r < 2^32")
    sub.add_argument("--dim", type=_int, required=True, help="side length M of the blob")
    sub.set_defaults(func=_cmd_decrypt)

    # Flags of the three sweep commands.
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--trials", type=_int, default=experiments.DEFAULT_TRIALS,
                     help="trials per grid cell (default %(default)s)")
    run.add_argument("--seed", type=_int, default=None,
                     help=f"master seed (default: ${SEED_ENV_VAR} or 0)")
    run.add_argument("--jobs", type=_int, default=experiments.usable_cpus(),
                     help="processes that run batches, this one included, so N starts N-1 "
                          "helpers (default: every CPU this process may run on); "
                          "results do not depend on it")
    run.add_argument("--out", dest="outfile", required=True, help="output CSV path")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--sizes", type=_int_list(
                          lambda lo, hi: [m for m in experiments.DEFAULT_SIZES if lo <= m <= hi]),
                      default=experiments.DEFAULT_SIZES,
                      help="comma-separated sizes, or a..b for the standard grid within bounds")
    grid.add_argument("--rounds", type=_int_list(_round_range),
                      default=experiments.DEFAULT_ROUNDS,
                      help="comma-separated round counts, or an inclusive a..b range")

    sub = commands.add_parser("avalanche", parents=[grid, run],
                              help="plaintext-sensitivity sweep (PS and Diff)")
    sub.set_defaults(func=_cmd_avalanche)

    sub = commands.add_parser("uniformity", parents=[grid, run],
                              help="ciphertext chi-square sweep")
    sub.add_argument("--plaintext", choices=[experiments.PLAINTEXT_SINGLE_LSB,
                                             experiments.PLAINTEXT_ALL_ZERO],
                     default=experiments.PLAINTEXT_SINGLE_LSB,
                     help="plaintext fed to the cipher (default %(default)s)")
    sub.set_defaults(func=_cmd_uniformity)

    sub = commands.add_parser("errorprop", parents=[run], help="channel-error propagation report")
    sub.add_argument("--image", required=True, help="input PGM (P5) path")
    sub.add_argument("--percents", type=_float_list, default=experiments.DEFAULT_ERROR_PERCENTS,
                     help="comma-separated bit-error percentages (default %(default)s)")
    sub.add_argument("--rounds", type=_int, default=experiments.SECURE_ROUNDS,
                     help="round count (default %(default)s, the secure configuration)")
    sub.set_defaults(func=_cmd_errorprop)

    sub = commands.add_parser("keyspace", help="report permutation-key space size")
    sub.add_argument("--dim", type=_int, required=True, help="side length M")
    sub.add_argument("--rate", type=_real, default=1e9,
                     help="brute-force guesses per second (default %(default)s)")
    sub.set_defaults(func=_cmd_keyspace)

    sub = commands.add_parser("matrix", help="print the static diffusion matrix")
    sub.set_defaults(func=_cmd_matrix)

    sub = commands.add_parser("make-image", help="write a synthetic test PGM")
    sub.add_argument("--kind", choices=["all-zero", "single-lsb", "uniform-random", "portrait"],
                     required=True)
    sub.add_argument("--dim", type=_int, required=True, help="side length M")
    sub.add_argument("--x", type=_int, default=0, help="pixel row for single-lsb")
    sub.add_argument("--y", type=_int, default=0, help="pixel column for single-lsb")
    sub.add_argument("--seed", type=_int, default=None,
                     help="seed of the random kinds (default: 0 for uniform-random, "
                          f"{image_io.PORTRAIT_SEED:#x} for portrait)")
    sub.add_argument("--out", dest="outfile", required=True, help="output PGM path")
    sub.set_defaults(func=_cmd_make_image)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
