import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from cipher_audit import cipher, cli, experiments, image_io

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def run(args) -> int:
    return cli.main([str(a) for a in args])


class TestEncryptDecrypt:
    def test_file_roundtrip(self, tmp_path):
        plain = tmp_path / "in.pgm"
        blob = tmp_path / "c.bin"
        back = tmp_path / "out.pgm"
        image_io.write_pgm(image_io.make_test_image("uniform-random", 16, seed=1), plain)
        assert run(["encrypt", "--in", plain, "--out", blob, "--key-hex", "9a2f", "--rounds", 6]) == 0
        assert run(["decrypt", "--in", blob, "--out", back, "--key-hex", "9a2f",
                    "--rounds", 6, "--dim", 16]) == 0
        assert plain.read_bytes() == back.read_bytes()

    def test_ciphertext_blob_is_headerless(self, tmp_path):
        plain = tmp_path / "in.pgm"
        blob = tmp_path / "c.bin"
        image_io.write_pgm(np.zeros((16, 16), dtype=np.uint8), plain)
        run(["encrypt", "--in", plain, "--out", blob, "--key-hex", "9a2f", "--rounds", 1])
        assert blob.stat().st_size == 256

    def test_wrong_key_length_fails(self, tmp_path, capsys):
        plain = tmp_path / "in.pgm"
        image_io.write_pgm(np.zeros((256, 256), dtype=np.uint8), plain)
        # M=256 needs 4q = 32 bits = 8 hex chars
        code = run(["encrypt", "--in", plain, "--out", tmp_path / "c.bin",
                    "--key-hex", "abcd", "--rounds", 6])
        assert code != 0
        assert "8 hex digits" in capsys.readouterr().err

    @pytest.mark.parametrize("key_hex", ["0x3fa9c2", "3f_a9c2d", "-3fa9c2d", " 3fa9c2d"])
    def test_malformed_key_is_usage_error(self, tmp_path, capsys, key_hex):
        # 8 characters, the key length for M=256, that int(text, 16) would accept
        plain = tmp_path / "in.pgm"
        blob = tmp_path / "c.bin"
        image_io.write_pgm(np.zeros((256, 256), dtype=np.uint8), plain)
        # the = form lets argparse take "-3fa9c2d" as a value, not an option
        code = run(["encrypt", "--in", plain, "--out", blob, f"--key-hex={key_hex}", "--rounds", 1])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not blob.exists()

    def test_zero_rounds_is_usage_error(self, tmp_path):
        plain = tmp_path / "in.pgm"
        image_io.write_pgm(np.zeros((16, 16), dtype=np.uint8), plain)
        assert run(["encrypt", "--in", plain, "--out", tmp_path / "c.bin",
                    "--key-hex", "9a2f", "--rounds", 0]) != 0

    def test_out_of_memory_is_one_line(self, tmp_path):
        # At M = 4096 a round's gather index alone is 128 MiB; under a
        # 500 MiB address-space cap the child runs out of memory in its rounds.
        resource = pytest.importorskip("resource")
        cap = 500 * 2**20

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        plain, blob = tmp_path / "in.pgm", tmp_path / "c.bin"
        image_io.write_pgm(image_io.make_test_image("uniform-random", 4096, seed=0), plain)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "cipher_audit.cli", "encrypt", "--in", str(plain), "--out", str(blob),
             "--key-hex", "000000000000", "--rounds", "6"],
            env=env, preexec_fn=limit, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert not blob.exists()

    def test_missing_input_fails(self, tmp_path):
        assert run(["encrypt", "--in", tmp_path / "nope.pgm", "--out", tmp_path / "c.bin",
                    "--key-hex", "9a2f", "--rounds", 1]) != 0

    def test_long_blob_is_one_line(self, tmp_path, capsys):
        blob, out = tmp_path / "c.bin", tmp_path / "out.pgm"
        blob.write_bytes(bytes(10 * 16 * 16))
        assert run(["decrypt", "--in", blob, "--out", out, "--key-hex", "9a2f",
                    "--rounds", 1, "--dim", 16]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {blob}: blob has more than 256 bytes, expected 256 for M=16\n"
        assert not out.exists()

    def test_keyspace_note_printed(self, tmp_path, capsys):
        plain = tmp_path / "in.pgm"
        image_io.write_pgm(np.zeros((256, 256), dtype=np.uint8), plain)
        run(["encrypt", "--in", plain, "--out", tmp_path / "c.bin",
             "--key-hex", "12345678", "--rounds", 1])
        out = capsys.readouterr().out
        assert "32-bit key" in out and "2^32" in out


class TestSweepCommands:
    def test_avalanche_csv_shape(self, tmp_path):
        out = tmp_path / "a.csv"
        assert run(["avalanche", "--sizes", "16", "--rounds", "1..2", "--trials", 4,
                    "--seed", 9, "--jobs", 1, "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("size,rounds,trials,ps_min,ps_mean")
        assert len(lines) == 3
        assert lines[1].split(",")[0:3] == ["16", "1", "4"]

    def test_avalanche_deterministic_across_jobs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["avalanche", "--sizes", "16,32", "--rounds", "1..3", "--trials", 5, "--seed", 3]
        assert run(args + ["--jobs", 1, "--out", a]) == 0
        assert run(args + ["--jobs", 4, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sizes_range_selects_standard_grid(self, tmp_path):
        out = tmp_path / "u.csv"
        assert run(["uniformity", "--sizes", "16..64", "--rounds", "1", "--trials", 2,
                    "--seed", 0, "--jobs", 1, "--out", out]) == 0
        sizes = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert sizes == ["16", "32", "64"]

    def test_errorprop_csv(self, tmp_path, portrait_64):
        image = tmp_path / "img.pgm"
        image_io.write_pgm(portrait_64, image)
        out = tmp_path / "e.csv"
        assert run(["errorprop", "--image", image, "--percents", "0,1", "--trials", 4,
                    "--seed", 2, "--jobs", 1, "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("mode,percent,flipped_bits,trials,dif_min")
        assert len(lines) == 4  # single-bit + two percents
        single = lines[1].split(",")
        assert single[0] == "single-bit" and single[2] == "1"
        zero = lines[2].split(",")
        assert zero[0] == "percent" and float(zero[5]) == 0.0  # dif_mean

    def test_errorprop_image_below_one_window_fails_before_the_sweep(
            self, tmp_path, capsys, monkeypatch):
        image = tmp_path / "img.pgm"
        image_io.write_pgm(np.zeros((4, 4), dtype=np.uint8), image)
        out = tmp_path / "e.csv"
        monkeypatch.setattr(experiments, "_sweep", lambda *args: pytest.fail("the sweep started"))
        code = run(["errorprop", "--image", image, "--trials", 1, "--jobs", 1, "--out", out])
        assert code == 2
        assert capsys.readouterr().err == "error: images must be 2-D with sides >= 8\n"
        assert not out.exists()

    def test_csv_uses_lf_only(self, tmp_path):
        out = tmp_path / "a.csv"
        run(["avalanche", "--sizes", "16", "--rounds", "1", "--trials", 2,
             "--seed", 0, "--jobs", 1, "--out", out])
        raw = out.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")


class TestOtherCommands:
    def test_matrix_dump(self, capsys):
        assert run(["matrix"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 16
        assert all(len(line) == 16 and set(line) <= {"0", "1"} for line in lines)

    def test_keyspace(self, capsys):
        assert run(["keyspace", "--dim", 512]) == 0
        out = capsys.readouterr().out
        assert "q=9" in out and "36-bit key" in out

    def test_keyspace_reports_distinct_permutations(self, capsys):
        assert run(["keyspace", "--dim", 12, "--rate", 1]) == 0
        out = capsys.readouterr().out
        assert "2^16 = 65536 keys" in out
        assert "M^4 = 20736" in out
        assert "20736.000 s" in out

    @pytest.mark.parametrize("dim, rate, seconds", [
        (12, "1", "20736.000"),  # below 1e9 s: fixed point, three decimals
        (4, "1e-300", "2.560e+302"),  # from 1e9 s: no digits of float noise
    ])
    def test_keyspace_search_time_format(self, capsys, dim, rate, seconds):
        assert run(["keyspace", "--dim", dim, "--rate", rate]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == \
            f"exhaustive search of the M^4 permutations at {float(rate):.0e} guesses/s: {seconds} s"

    @pytest.mark.parametrize("rate", ["0", "-5", "nan", "inf"])
    def test_bad_keyspace_rate_is_usage_error(self, capsys, rate):
        # the = form lets argparse take "-5" as a value, not an option
        assert run(["keyspace", "--dim", 16, f"--rate={rate}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the guess rate") and captured.err.count("\n") == 1

    def test_keyspace_rate_with_overflowing_search_time_is_usage_error(self, capsys):
        # 4^4 / 1e-308 overflows a float: an error, not "inf s"
        assert run(["keyspace", "--dim", 4, "--rate", "1e-308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the guess rate 1e-308 is too small: the search time over M^4 keys overflows\n"

    def test_make_image_kinds(self, tmp_path):
        for kind in ("all-zero", "single-lsb", "uniform-random", "portrait"):
            out = tmp_path / f"{kind}.pgm"
            assert run(["make-image", "--kind", kind, "--dim", 16, "--out", out]) == 0
            assert image_io.read_pgm(out).shape == (16, 16)

    def test_make_image_portrait_seed_zero_is_used(self, tmp_path):
        chosen, default = tmp_path / "zero.pgm", tmp_path / "default.pgm"
        assert run(["make-image", "--kind", "portrait", "--dim", 16, "--seed", 0, "--out", chosen]) == 0
        assert run(["make-image", "--kind", "portrait", "--dim", 16, "--out", default]) == 0
        assert chosen.read_bytes() != default.read_bytes()
        assert np.array_equal(image_io.read_pgm(chosen), image_io.make_portrait_image(16, seed=0))

    @pytest.mark.parametrize("kind", ["uniform-random", "portrait"])
    def test_negative_image_seed_is_usage_error(self, tmp_path, capsys, kind):
        out = tmp_path / "img.pgm"
        # the = form lets argparse take "-1" as a value, not an option
        assert run(["make-image", "--kind", kind, "--dim", 16, "--seed=-1", "--out", out]) == 2
        assert capsys.readouterr().err == "error: the image seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_bad_seed_env_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "abc")
        out = tmp_path / "a.csv"
        code = run(["avalanche", "--sizes", "16", "--rounds", "1", "--trials", 1,
                    "--jobs", 1, "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {cli.SEED_ENV_VAR} must be an integer, got 'abc'\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["avalanche", "uniformity", "errorprop"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, command):
        image = tmp_path / "img.pgm"
        image_io.write_pgm(np.zeros((16, 16), dtype=np.uint8), image)
        out = tmp_path / "a.csv"
        args = ["--image", image] if command == "errorprop" else ["--sizes", "16", "--rounds", "1"]
        code = run([command, *args, "--trials", 1, "--seed", -1, "--jobs", 1, "--out", out])
        assert code == 2
        assert capsys.readouterr().err == "error: the master seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("jobs", [0, -4])
    @pytest.mark.parametrize("command", ["avalanche", "uniformity", "errorprop"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, command, jobs):
        image = tmp_path / "img.pgm"
        image_io.write_pgm(np.zeros((16, 16), dtype=np.uint8), image)
        out = tmp_path / "a.csv"
        args = ["--image", image] if command == "errorprop" else ["--sizes", "16", "--rounds", "1"]
        code = run([command, *args, "--trials", 2, "--jobs", jobs, "--out", out])
        assert code == 2
        assert capsys.readouterr().err == f"error: jobs must be >= 1, got {jobs}\n"
        assert not out.exists()

    @pytest.mark.parametrize("parent", ["missing", "img.pgm"])
    @pytest.mark.parametrize("command", ["avalanche", "uniformity", "errorprop"])
    def test_missing_out_directory_fails_before_the_sweep(self, tmp_path, monkeypatch, capsys,
                                                          command, parent):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(experiments, "_sweep", no_sweep)
        image = tmp_path / "img.pgm"
        image_io.write_pgm(np.zeros((16, 16), dtype=np.uint8), image)
        out = tmp_path / parent / "a.csv"
        args = ["--image", image] if command == "errorprop" else ["--sizes", "16", "--rounds", "1"]
        code = run([command, *args, "--trials", 200, "--jobs", 1, "--out", out])
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: the directory of --out does not exist: {tmp_path / parent}\n"
        assert list(tmp_path.iterdir()) == [image]

    @pytest.mark.parametrize("kind", ["empty", "directory"])
    @pytest.mark.parametrize("command", ["avalanche", "uniformity", "errorprop"])
    def test_out_that_names_no_file_fails_before_the_sweep(self, tmp_path, monkeypatch, capsys,
                                                           command, kind):
        monkeypatch.setattr(experiments, "_sweep", lambda *args: pytest.fail("the sweep started"))
        image = tmp_path / "img.pgm"
        image_io.write_pgm(np.zeros((16, 16), dtype=np.uint8), image)
        out, message = ("", "--out is empty") if kind == "empty" else \
            (tmp_path, f"--out is a directory: {tmp_path}")
        args = ["--image", image] if command == "errorprop" else ["--sizes", "16", "--rounds", "1"]
        code = run([command, *args, "--trials", 200, "--jobs", 1, "--out", out])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == [image]

    def test_negative_seed_env_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "-3")
        out = tmp_path / "a.csv"
        code = run(["avalanche", "--sizes", "16", "--rounds", "1", "--trials", 1,
                    "--jobs", 1, "--out", out])
        assert code == 2
        assert capsys.readouterr().err == "error: the master seed must be >= 0, got -3\n"
        assert not out.exists()

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "77")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(["avalanche", "--sizes", "16", "--rounds", "1", "--trials", 3, "--jobs", 1, "--out", a])
        run(["avalanche", "--sizes", "16", "--rounds", "1", "--trials", 3,
             "--seed", 77, "--jobs", 1, "--out", b])
        assert a.read_bytes() == b.read_bytes()


SIDE_ENTRY_POINTS = {
    # a read-only view of one byte: an M x M image that allocates nothing
    "validate_image": lambda m: cipher.validate_image(np.broadcast_to(np.uint8(0), (m, m))),
    "ExperimentConfig": lambda m: experiments.ExperimentConfig(sizes=(16, m)),
    "keyspace_report": experiments.keyspace_report,
    "make_test_image": lambda m: image_io.make_test_image("all-zero", m),
    "make_portrait_image": image_io.make_portrait_image,
    "param_bits": cipher.param_bits,
    # the side is checked before the (missing) file is read
    "read_raw": lambda m: image_io.read_raw("missing.bin", m),
}


class TestSideRule:
    """One side-length rule, one message per bound, at every entry point."""

    @pytest.mark.parametrize("m", [0, 6, 10])
    @pytest.mark.parametrize("entry", sorted(SIDE_ENTRY_POINTS))
    def test_library_rejects(self, entry, m):
        message = f"^side lengths must be multiples of 4 and >= 4, got {m}$"
        with pytest.raises(cipher.DimensionError, match=message):
            SIDE_ENTRY_POINTS[entry](m)

    @pytest.mark.parametrize("entry", sorted(SIDE_ENTRY_POINTS))
    def test_library_rejects_above_max(self, entry):
        # 2 * 32768**2 = 2**31 no longer fits the int32 gather index
        message = "^side lengths must be at most 32764, got 32768$"
        with pytest.raises(cipher.DimensionError, match=message):
            SIDE_ENTRY_POINTS[entry](32768)

    def test_max_side_accepted(self, capsys):
        assert cipher.MAX_SIDE == 32764
        assert cipher.check_side(32764) == 32764
        assert cipher.param_bits(32764) == 15
        assert run(["keyspace", "--dim", 32764]) == 0
        assert "for M=32764: q=15, 60-bit key" in capsys.readouterr().out

    def test_keyspace_above_max_rejected(self, capsys):
        assert run(["keyspace", "--dim", 32768]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: side lengths must be at most 32764, got 32768\n"

    @pytest.mark.parametrize("m", [6, 10])
    @pytest.mark.parametrize("command", [
        ["keyspace"],
        ["make-image", "--kind", "all-zero"],
        ["make-image", "--kind", "portrait"],
    ], ids=["keyspace", "make-image-all-zero", "make-image-portrait"])
    def test_cli_rejects(self, tmp_path, capsys, command, m):
        out = tmp_path / "img.pgm"
        extra = [] if command == ["keyspace"] else ["--out", out]
        assert run([*command, "--dim", m, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: side lengths must be multiples of 4 and >= 4, got {m}\n"
        assert not out.exists()

    @pytest.mark.parametrize("m", [0, -4, 6])
    def test_decrypt_dim_rejected(self, tmp_path, capsys, m):
        blob, out = tmp_path / "c.bin", tmp_path / "out.pgm"
        blob.write_bytes(bytes(16))
        # the = form lets argparse take "-4" as a value, not an option
        assert run(["decrypt", "--in", blob, "--out", out, "--key-hex", "9a2f",
                    "--rounds", 1, f"--dim={m}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: side lengths must be multiples of 4 and >= 4, got {m}\n"
        assert not out.exists()



class TestRoundRule:
    """One round-count rule, 1 <= r < 2**32, with one message at every command."""

    @pytest.mark.parametrize("command", ["encrypt", "decrypt", "avalanche", "uniformity", "errorprop"])
    def test_cli_rejects_2_to_the_32(self, tmp_path, capsys, command):
        image, blob, out = tmp_path / "in.pgm", tmp_path / "c.bin", tmp_path / "out"
        image_io.write_pgm(image_io.make_portrait_image(16), image)
        blob.write_bytes(bytes(16 * 16))
        argv = {
            "encrypt": ["--in", image, "--key-hex", "9a2f"],
            "decrypt": ["--in", blob, "--key-hex", "9a2f", "--dim", 16],
            "avalanche": ["--sizes", 16, "--trials", 1],
            "uniformity": ["--sizes", 16, "--trials", 1],
            "errorprop": ["--image", image, "--trials", 1],
        }[command]
        assert run([command, *argv, "--rounds", 2**32, "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: round counts must be within 1..4294967295, got 4294967296\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["avalanche", "uniformity"])
    @pytest.mark.parametrize("span, bad", [("0..4611686018427387904", 0), ("5..4294967296", 2**32)])
    def test_cli_checks_range_ends_before_expanding(self, tmp_path, capsys, monkeypatch, command, span, bad):
        # Expanding either range would build billions of integers; a range
        # that long fails here instead.
        def short_range(*args):
            assert len(range(*args)) <= 2**16, "a --rounds range was expanded before its ends were checked"
            return range(*args)

        monkeypatch.setattr(cli, "range", short_range, raising=False)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            run([command, "--sizes", 16, "--trials", 1, "--rounds", span, "--out", out])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: argument --rounds: round counts must be within 1..4294967295, got {bad}\n"
        assert not out.exists()


class TestParserErrors:
    """A command line that argparse rejects gives one stderr line and exit code 2."""

    @pytest.mark.parametrize("argv, message", [
        (["avalanche", "--sizes", "1..2"], "argument --sizes: invalid int_list value: '1..2'"),
        (["avalanche", "--trials", "abc"], "argument --trials: invalid int value: 'abc'"),
        (["uniformity", "--plaintext", "ones"], "argument --plaintext: invalid choice"),
        (["avalanche", "--bogus"], "unrecognized arguments: --bogus"),
        # retired: tests/test_metrics.py pins the chi-square of uniform bytes
        (["uniformity", "--control-random"], "unrecognized arguments: --control-random"),
        (["keyspace"], "the following arguments are required: --dim"),
        (["errorprop", "--image", "img.pgm"], "the following arguments are required: --out"),
        (["cipher"], "argument command: invalid choice: 'cipher'"),
        ([], "the following arguments are required: command"),
        # one ASCII grammar for integers, -?[0-9]+, and for decimals
        (["keyspace", "--dim", "١٦"], "argument --dim: invalid int value: '١٦'"),
        (["avalanche", "--sizes", "1_6"], "argument --sizes: invalid int_list value: '1_6'"),
        (["avalanche", "--rounds", "+1"], "argument --rounds: invalid int_list value: '+1'"),
        (["avalanche", "--trials", " 2"], "argument --trials: invalid int value: ' 2'"),
        (["avalanche", "--seed", "0x10"], "argument --seed: invalid int value: '0x10'"),
        (["avalanche", "--sizes", "16,,32"], "argument --sizes: invalid int_list value: '16,,32'"),
        (["errorprop", "--image", "img.pgm", "--percents", "1,,5"],
         "argument --percents: invalid float_list value: '1,,5'"),
        (["errorprop", "--image", "img.pgm", "--percents", "1_0"],
         "argument --percents: invalid float_list value: '1_0'"),
        (["keyspace", "--dim", "16", "--rate", "١e3"], "argument --rate: invalid float value: '١e3'"),
        (["keyspace", "--dim", "16", "--rate", "1_000"],
         "argument --rate: invalid float value: '1_000'"),
    ], ids=["sizes", "trials", "choice", "unknown-flag", "retired-flag", "missing-dim", "missing-out",
            "command", "no-command", "non-ascii-digits", "underscore", "plus-sign", "space", "hex-seed",
            "blank-size", "blank-percent", "underscore-percent", "non-ascii-rate", "underscore-rate"])
    def test_one_line(self, tmp_path, capsys, argv, message):
        out = tmp_path / "a.csv"
        sweep = argv[:1] in (["avalanche"], ["uniformity"]) or "--percents" in argv
        extra = ["--out", out] if sweep else []
        with pytest.raises(SystemExit) as exit_info:
            run([*argv, *extra])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
        assert not out.exists()

    def test_hex_seed_env(self, tmp_path, monkeypatch, capsys):
        # read by the same grammar as --seed, which rejects 0x10
        monkeypatch.setenv(cli.SEED_ENV_VAR, "0x10")
        out = tmp_path / "a.csv"
        assert run(["avalanche", "--sizes", "16", "--rounds", "1", "--trials", 1, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {cli.SEED_ENV_VAR} must be an integer, got '0x10'\n"
        assert not out.exists()

    def test_empty_percents_is_no_percentage_rows(self, tmp_path):
        image, out = tmp_path / "img.pgm", tmp_path / "e.csv"
        image_io.write_pgm(image_io.make_portrait_image(16), image)
        assert run(["errorprop", "--image", image, "--percents", "", "--trials", 1,
                    "--jobs", 1, "--out", out]) == 0
        assert [line.split(",")[0] for line in out.read_text().splitlines()] == ["mode", "single-bit"]

    def test_help_still_prints(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run(["avalanche", "--help"])
        assert exit_info.value.code == 0
        assert "--sizes" in capsys.readouterr().out
