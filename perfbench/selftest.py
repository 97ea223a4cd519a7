"""Fast self-test of the benchmark: metric names and units, and the correctness gate.

    python3 perfbench/selftest.py

Runs every workload once, shortened, untraced and traced, and checks that each
run reports exactly the metrics BENCHMARK.json names, with their units, and no
failures.  Then makes cli.main write a corrupted CSV, a CSV with one
statistic out of its band and an errorprop CSV with two rows swapped, and
checks that each counts as failed trials.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import run


def _rewrite_after_cli(cli, edit):
    """Make cli.main rewrite the CSV it just wrote with edit(text) -> text."""
    real_main = cli.main

    def main(argv):
        code = real_main(argv)
        path = argv[argv.index("--out") + 1]
        with open(path, encoding="ascii") as fh:
            text = fh.read()
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(edit(text))
        return code

    return real_main, main


def _counts_as_failed(harness, cli, seed: int, edit,
                      workload_name: str = "avalanche-small") -> list[str]:
    workload = harness.WORKLOADS[workload_name]
    bench = harness.Bench(workload, seed)
    real_main, cli.main = _rewrite_after_cli(cli, edit)
    try:
        bench.write_input()
        bench.run()
    finally:
        cli.main = real_main
        bench.close()
    if bench.attempted != workload.trials_per_run or bench.failed != bench.attempted:
        return [f"{workload_name} seed {seed}: {bench.failed} of {bench.attempted} trials "
                f"failed, expected all {workload.trials_per_run}"]
    return []


def _set_column(text: str, column: str, value: str, rounds: int) -> str:
    """Set one column of the first row with the given round count."""
    lines = text.splitlines()
    header = lines[0].split(",")
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if fields[header.index("rounds")] == str(rounds):
            fields[header.index(column)] = value
            lines[i] = ",".join(fields)
            break
    return "\n".join(lines) + "\n"


def _swap_last_rows(text: str) -> str:
    lines = text.splitlines()
    lines[-2], lines[-1] = lines[-1], lines[-2]
    return "\n".join(lines) + "\n"


def main() -> int:
    run.use_checkout_source()
    import harness
    from cipher_audit import cli

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []

    for workload in harness.WORKLOADS.values():
        untraced = harness.timed_run(workload, harness.DEFAULT_SEED, seconds=0.0,
                                     setup_samples=1)
        traced = harness.traced_run(workload, harness.DEFAULT_SEED, seconds=0.0,
                                    probe_seconds=0.0, pool_pairs=1)
        for result, key in ((untraced, "end_to_end"), (traced, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                failures.append(f"{workload.name} {key}: missing {sorted(want.keys() - got.keys())}, "
                                f"extra {sorted(got.keys() - want.keys())}, units "
                                f"{sorted(n for n in want.keys() & got.keys() if want[n] != got[n])}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{workload.name} {key}: {result['detail']['problems']}")
            json.dumps(result, allow_nan=False)

    # A corrupted CSV: one digit changed in a column no band covers, so only
    # the recorded digest can catch it; and a report cut short.
    failures += _counts_as_failed(harness, cli, harness.DEFAULT_SEED,
                                  lambda t: _set_column(t, "ps_std", "0.1234", rounds=2))
    failures += _counts_as_failed(harness, cli, 1, lambda t: t[: len(t) // 2])
    # An out-of-band statistic at a seed with no recorded digest.
    failures += _counts_as_failed(harness, cli, 1,
                                  lambda t: _set_column(t, "ps_mean", "40.0000", rounds=6))
    # errorprop rows in the wrong order, at a seed with no recorded digest.
    failures += _counts_as_failed(harness, cli, 1, _swap_last_rows, "errorprop-256")

    for line in failures:
        print(f"FAIL {line}")
    print("selftest:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
