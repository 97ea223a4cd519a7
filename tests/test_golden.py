"""CSV bytes of every sweep command against files recorded before the
experiments took their linearity shortcuts (the split-cell cases: before
the sweeps batched their trials).

Regenerate only for an intended change of output:
the arguments below, with --out tests/golden/<name>-seed<seed>.csv.
"""

from pathlib import Path

import pytest

from cipher_audit import cli

GOLDEN = Path(__file__).parent / "golden"
SEEDS = (0, 7)
SWEEP = ["--sizes", "16,20", "--rounds", "1,2,6", "--trials", "6", "--jobs", "1"]
CASES = {
    "avalanche": ["avalanche", *SWEEP],
    "uniformity-single-lsb": ["uniformity", *SWEEP, "--plaintext", "single-lsb"],
    "uniformity-all-zero": ["uniformity", *SWEEP, "--plaintext", "all-zero"],
    # one cell spans several batches: 4 + 2 trials at M=256, 16 + 4 at M=128
    "uniformity-split": ["uniformity", "--sizes", "256", "--rounds", "1,2", "--trials", "6",
                         "--jobs", "1"],
    "avalanche-split": ["avalanche", "--sizes", "128", "--rounds", "1,6", "--trials", "20",
                        "--jobs", "1"],
    "errorprop": ["errorprop", "--image", "{portrait}", "--percents", "0,0.01,5,100",
                  "--trials", "4", "--jobs", "1"],
}


@pytest.fixture(scope="module")
def portrait(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "portrait32.pgm"
    assert cli.main(["make-image", "--kind", "portrait", "--dim", "32", "--out", str(path)]) == 0
    return path


def test_portrait_bytes(portrait):
    assert portrait.read_bytes() == (GOLDEN / "portrait32.pgm").read_bytes()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_bytes(name, seed, portrait, tmp_path):
    out = tmp_path / "out.csv"
    argv = [arg.format(portrait=portrait) for arg in CASES[name]]
    assert cli.main(argv + ["--seed", str(seed), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}-seed{seed}.csv").read_bytes()
