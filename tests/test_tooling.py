"""The suite's own tooling: the opt-in benchmark scripts and the pytest configuration.

tests/bench_layers.py calls private names of the package, and its name
keeps it out of the suite; this runs it once, with timing disabled, and
tests/bench_ab.py once, one pair of this checkout against itself;
tests/bench_faults.py is only asked for an unknown workload.
perfbench/selftest.py runs every benchmark workload through the harness's
correctness gate, so a changed output digest or metric name fails here.  The
configuration turns warnings into errors; a failing property test must
still be reported as one plain failure.
"""

import os
import pathlib
import re
import subprocess
import sys
import textwrap

import pytest

import bench_ab

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_bench_layers_runs():
    pytest.importorskip("pytest_benchmark")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/bench_layers.py", "-q",
         "--benchmark-disable", "-p", "no:cacheprovider"],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_bench_ab_runs():
    # this checkout against itself: one pair, at a seed other than
    # perfbench's, the same CSV bytes on both sides
    proc = subprocess.run(
        [sys.executable, "tests/bench_ab.py", "--base", str(ROOT), "--pairs", "1", "--seed", "3"],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "seed 3" in proc.stdout
    assert "change faster in" in proc.stdout and "of 1 pairs" in proc.stdout
    assert re.search(r"^  verdict: (resolved faster|resolved slower|unresolved)$", proc.stdout, re.M)


@pytest.mark.parametrize("argv", [["no-such-workload"], ["--help"], ["avalanche-small", "no-such-workload"]])
def test_bench_faults_rejects_an_unknown_workload(argv):
    # a valid name before the typo is not run either
    proc = subprocess.run(
        [sys.executable, "tests/bench_faults.py", *argv],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout == ""
    assert proc.stderr == (f"bench_faults: unknown workload {argv[-1]!r}, "
                           "choose from avalanche-small, errorprop-256, uniformity-large\n")


@pytest.mark.parametrize("change, base, expected", [
    # faster in 10 of 10 pairs, median 6 below the base's (IQR 5.5)
    ([10.0 + k for k in range(10)], [16.0 + k for k in range(10)], "resolved faster"),
    ([16.0 + k for k in range(10)], [10.0 + k for k in range(10)], "resolved slower"),
    # faster in 10 of 10, but by less than the base's IQR
    ([10.0 + k for k in range(10)], [12.0 + k for k in range(10)], "unresolved"),
    # faster in 8 of 10: far apart, but not 9 of 10
    ([1.0] * 8 + [99.0] * 2, [50.0] * 10, "unresolved"),
    ([99.0] * 9 + [1.0], [50.0] * 10, "resolved slower"),
])
def test_bench_ab_verdict(change, base, expected):
    assert bench_ab.verdict(change, base) == expected


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest: ok" in proc.stdout


def test_failing_property_test_is_one_plain_failure(tmp_path):
    # Hypothesis reports a failure through modules whose imports warn; under
    # the configuration's "error" filter that must not become an INTERNALERROR
    test = tmp_path / "test_property.py"
    test.write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_negative(x):
            assert x < 0
    """), encoding="ascii")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), str(test), "-q",
         "-p", "no:cacheprovider"],
        cwd=tmp_path, env=_env(), capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out[-2000:]
    assert "1 failed" in out and "INTERNALERROR" not in out, out[-2000:]
