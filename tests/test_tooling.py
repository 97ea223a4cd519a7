"""The suite's own tooling: the opt-in benchmark module and the pytest configuration.

tests/bench_layers.py calls private names of the package, and its name
keeps it out of the suite; this runs it once, with timing disabled.  The
configuration turns warnings into errors; a failing property test must
still be reported as one plain failure.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

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
