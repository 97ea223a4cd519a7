"""Benchmark of cipher-audit's sweep commands, run in-process through cipher_audit.cli.main.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the package is imported from ./src, built
from nothing else.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the line before it carries the
details (quartiles, sample counts, CSV digest, machine info).  --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics of a separate
traced run.  See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def use_checkout_source() -> None:
    """Put the checkout's src/ first on sys.path, or exit if it is missing."""
    if not (SOURCE / "cipher_audit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SOURCE / 'cipher_audit'}")
    sys.path.insert(0, str(SOURCE))


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (one setup_s sample)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    use_checkout_source()
    import harness

    if args.workload not in harness.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}, "
                         f"choose from {', '.join(harness.WORKLOADS)}")
    workload = harness.WORKLOADS[args.workload]
    if args.setup_only:
        return harness.setup_only(workload, args.seed)
    if args.trace:
        result = harness.traced_run(workload, args.seed, args.seconds)
    else:
        result = harness.timed_run(workload, args.seed, args.seconds)
    detail = result.pop("detail")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
