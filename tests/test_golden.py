"""Golden documents: the CLI and script output for fixed inputs, byte for byte.

The `analyze` inputs keep rounding noise out of the printed residuals:
every 2x2 minor is either an exact product or has a zero factor, so the
documents do not depend on whether complex products use fused
multiply-add.  The `sample` and script documents were written by the
per-state loops that the batched kernels replaced; `sample 3 2500` spans
three sampling blocks.
"""

import runpy
import sys
from pathlib import Path

import pytest

from hopfq.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
SCRIPT = Path(__file__).parent.parent / "scripts" / "bloch_ball_stats.py"

GOLDEN = {
    "analyze_ghz.txt": ["analyze", "ghz"],
    "analyze_w.txt": ["analyze", "w"],
    "analyze_product.txt": ["analyze", "0.5,0 0,0.5 0,0 0,0 0.5,0 0,0.5 0,0 0,0"],
    "analyze_biseparable.txt": [
        "analyze", "0.707106781187,0 0,0 0,0 0.707106781187,0 0,0 0,0 0,0 0,0",
    ],
    # |o2|^2 = 1e-14: a finite ratio value of size 1e7 on every cut.
    "analyze_near_pole.txt": ["analyze", "1,0 0,0 0,0 0,0 0,0 0,0 0,0 1e-7,0"],
    # |o2|^2 = 1e-16, below INFINITY_NORM_SQ: the ratio value is infinity.
    "analyze_at_pole.txt": ["analyze", "1,0 0,0 0,0 0,0 0,0 0,0 0,0 1e-8,0"],
    # |1> (x) i(0.6|01> + 0.8|11>): the chain's factor leads with a zero
    # amplitude and carries a phase of i, which the gauge fix removes.
    "analyze_imaginary_factor.txt": ["analyze", "0,0 0,0 0,0 0,0 0,0 0,0.6 0,0 0,0.8"],
    "analyze_two_qubit.txt": ["analyze", "0.6,0 0,0 0,0 0,0.8"],
    "analyze_one_qubit.txt": ["analyze", "0.6,0 0,0.8"],
    # coords reads its cut's row of the same cut stack: the base lines of
    # the analyze documents above.
    "coords_imaginary_factor_cut2.txt": [
        "coords", "0,0 0,0 0,0 0,0 0,0 0,0.6 0,0 0,0.8", "--cut", "2",
    ],
    "coords_imaginary_factor_cut3.csv": [
        "coords", "0,0 0,0 0,0 0,0 0,0 0,0.6 0,0 0,0.8", "--cut", "3", "--csv",
    ],
    "coords_biseparable_cut2.txt": [
        "coords", "0.707106781187,0 0,0 0,0 0.707106781187,0 0,0 0,0 0,0 0,0", "--cut", "2",
    ],
    "coords_two_qubit.txt": ["coords", "0.6,0 0,0 0,0 0,0.8"],
    "sample_3_50_seed7.txt": ["sample", "3", "50", "--seed", "7"],
    "sample_3_2500_seed11_histogram20.txt": [
        "sample", "3", "2500", "--seed", "11", "--histogram", "20",
    ],
    "sample_2_40_seed3.txt": ["sample", "2", "40", "--seed", "3"],
    "sample_1_20_seed1.txt": ["sample", "1", "20", "--seed", "1"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_document(capsys, name):
    code = main(GOLDEN[name])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / name).read_text()


def test_golden_bloch_ball_script(capsys, monkeypatch):
    argv = ["--samples", "3000", "--bins", "10", "--seed", "2"]
    monkeypatch.setattr(sys, "argv", [str(SCRIPT)] + argv)
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    assert stop.value.code == 0
    expected = (GOLDEN_DIR / "bloch_ball_stats_3000_bins10_seed2.txt").read_text()
    assert capsys.readouterr().out == expected
