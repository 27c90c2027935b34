"""Golden documents: the CLI output for fixed inputs, byte for byte.

The `analyze` inputs keep rounding noise out of the printed residuals:
every 2x2 minor is either an exact product or has a zero factor, so the
documents do not depend on whether complex products use fused
multiply-add.
"""

from pathlib import Path

import pytest

from hopfq.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

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
    "analyze_two_qubit.txt": ["analyze", "0.6,0 0,0 0,0 0,0.8"],
    "analyze_one_qubit.txt": ["analyze", "0.6,0 0,0.8"],
    "sample_3_50_seed7.txt": ["sample", "3", "50", "--seed", "7"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_document(capsys, name):
    code = main(GOLDEN[name])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / name).read_text()
