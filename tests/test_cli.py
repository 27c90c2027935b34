"""CLI conformance: documents, determinism, exit codes."""

import math
import re
import subprocess
import sys

import numpy as np
import pytest

import hopfq.cli
import hopfq.entanglement
import hopfq.hopf_maps
from hopfq.cli import main
from hopfq.entanglement import e_avg
from hopfq.qubit_states import PureState, format_number, haar_amplitudes, pack_coeffs

SQ2 = 1.0 / math.sqrt(2.0)
ZERO_STATE = "1,0 0,0 0,0 0,0 0,0 0,0 0,0 0,0"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_ghz_document(capsys):
    code, out, _ = run(capsys, ["analyze", "ghz"])
    assert code == 0
    assert "  e avg: 1\n" in out
    assert "  minor measure: 1\n" in out
    assert "  classification: entangled\n" in out
    assert "  cut 1: X1=0 X2=0 X3=0 X4=0 X5=0 X6=0 X7=-1 X8=0 X9=0\n" in out
    assert "  stage 1: level=3 e=1 separable=no\n" in out


def test_analyze_w_document(capsys):
    code, out, _ = run(capsys, ["analyze", "w"])
    assert code == 0
    assert "  e avg: 0.888888888889\n" in out
    assert "  classification: entangled\n" in out


def test_analyze_packs_the_cut_stack_once(capsys, monkeypatch):
    """The base, h1 and density sections, the classification and the chain's
    first stage read one packing of the three cuts; later chain stages pack
    only the factor states."""
    shapes = []

    def recording(amplitudes):
        shapes.append(np.shape(amplitudes))
        return pack_coeffs(amplitudes)

    for module in (hopfq.cli, hopfq.hopf_maps):
        monkeypatch.setattr(module, "pack_coeffs", recording)
    for spec, packed in (("w", [(3, 8)]), (ZERO_STATE, [(3, 8), (4,), (2,)])):
        shapes.clear()
        code, _, _ = run(capsys, ["analyze", spec])
        assert code == 0
        assert shapes == packed


def test_analyze_byte_stability(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, ["analyze", "ghz"])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_byte_stability_across_processes(capsys):
    runs = [
        subprocess.run(
            [sys.executable, "-m", "hopfq", "analyze", "w"],
            capture_output=True, text=True, check=True,
        )
        for _ in range(2)
    ]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout == run(capsys, ["analyze", "w"])[1]


def test_analyze_basis_literal(capsys):
    code, out, _ = run(capsys, ["analyze", ZERO_STATE])
    assert code == 0
    assert "  classification: fully-separable\n" in out
    assert out.count("bloch point") == 3
    for line in out.splitlines():
        if "bloch point" in line:
            assert line.endswith(": 0 0 1")


def test_analyze_two_qubit(capsys):
    code, out, _ = run(capsys, ["analyze", "bell00"])
    assert code == 0
    assert "  e: 1\n" in out
    assert "  residual: 0.5\n" in out
    assert "  separable: no\n" in out


def test_analyze_single_qubit(capsys):
    code, out, _ = run(capsys, ["analyze", "1,0 0,0"])
    assert code == 0
    assert "  value: X1=0 X2=0 X3=1\n" in out
    assert "  value: infinity\n" in out


def test_analyze_one_qubit_density_diagonal_is_real(capsys):
    for amps in haar_amplitudes(np.random.default_rng(8), 1, 40):
        spec = " ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in amps)
        code, out, _ = run(capsys, ["analyze", spec])
        assert code == 0
        entries = re.search(r"^  qubit: (.+)$", out, re.MULTILINE).group(1).split()
        assert [entries[0].split(",")[1], entries[3].split(",")[1]] == ["0", "0"]


def test_analyze_numbers_reproducible(capsys):
    _, out, _ = run(capsys, ["analyze", "w"])
    match = re.search(r"^  e avg: (.+)$", out, re.MULTILINE)
    assert match is not None
    assert match.group(1) == format_number(e_avg(PureState.w()))


def test_document_reparse_bit_stable(capsys):
    _, out, _ = run(capsys, ["analyze", "w"])
    tokens = re.findall(r"-?\d+\.?\d*(?:[eE][+-]?\d+)?", out)
    assert tokens, "document should contain numbers"
    for token in tokens:
        assert format_number(float(token)) == format_number(float(format_number(float(token))))


# ---------------------------------------------------------------------------
# coords
# ---------------------------------------------------------------------------

def test_coords_w(capsys):
    code, out, _ = run(capsys, ["coords", "w", "--cut", "1"])
    assert code == 0
    assert "  X3: 0.666666666667\n" in out
    assert "  X5: 0.666666666667\n" in out
    assert "  X9: 0.333333333333\n" in out
    assert "  sum sq: 1\n" in out


def test_coords_ghz(capsys):
    code, out, _ = run(capsys, ["coords", "ghz", "--cut", "1"])
    assert code == 0
    assert "  X9: 0\n" in out
    assert "  sum sq: 1\n" in out


def test_coords_single_qubit(capsys):
    code, out, _ = run(capsys, ["coords", "1,0 0,0"])
    assert code == 0
    assert "  X1: 0\n" in out and "  X3: 1\n" in out


def test_coords_csv(capsys):
    code, out, _ = run(capsys, ["coords", "w", "--cut", "1", "--csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "coordinate,value"
    assert "X3,0.666666666667" in lines
    assert lines[-1] == "sum_sq,1"


def test_coords_byte_stability(capsys):
    first = run(capsys, ["coords", "w", "--cut", "1"])[1]
    second = run(capsys, ["coords", "w", "--cut", "1"])[1]
    assert first == second


def test_coords_cut_requires_three_qubits(capsys):
    code, _, err = run(capsys, ["coords", "bell00", "--cut", "2"])
    assert code == 3
    assert "error" in err


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------

def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, ["analyze", "not-a-state"])
    assert code == 2
    assert "error" in err


def test_unnormalized_rejected_without_flag(capsys):
    code, _, err = run(capsys, ["analyze", "2,0 0,0"])
    assert code == 3
    assert "renormalize" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "nan,0 0,0"],
        ["analyze", "1,0 0,0 0,0 0,nan"],
        ["analyze", "inf,0 0,0", "--renormalize"],
        ["coords", "nan,0 0,0 0,0 0,0 0,0 0,0 0,0 0,0"],
    ],
)
def test_non_finite_input_rejected(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert "not finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "|000>", "--tol", "nan"],
        ["analyze", "|000>", "--tol", "-1"],
        ["analyze", "ghz", "--tol", "inf"],
    ],
)
def test_bad_tol_rejected(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "--tol" in err


def test_renormalize_flag(capsys):
    code, out, _ = run(capsys, ["analyze", "2,0 0,0", "--renormalize"])
    assert code == 0
    assert "  amplitudes: 1,0 0,0\n" in out


def test_small_norm_deviation_accepted(capsys):
    # 6-digit entries of the Bell state: norm off by ~1e-7 < the threshold.
    code, out, _ = run(capsys, ["analyze", "0.707107,0 0,0 0,0 0.707107,0"])
    assert code == 0
    assert "  residual: 0.5\n" in out


def test_file_input(capsys, tmp_path):
    path = tmp_path / "ghz.txt"
    path.write_text(f"{SQ2:.17g},0 0,0 0,0 0,0 0,0 0,0 0,0 {SQ2:.17g},0\n")
    code, out, _ = run(capsys, ["analyze", f"@{path}"])
    assert code == 0
    assert "  e avg: 1\n" in out


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def test_sample_deterministic(capsys):
    first = run(capsys, ["sample", "3", "50", "--seed", "7"])
    second = run(capsys, ["sample", "3", "50", "--seed", "7"])
    assert first[0] == 0
    assert first[1] == second[1]


def test_sample_values_in_range(capsys):
    code, out, _ = run(capsys, ["sample", "3", "200", "--seed", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,e_avg"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(values) == 200
    assert all(0.0 <= v <= 1.0 for v in values)
    # Haar samples are never numerically separable.
    assert all(v > 1e-6 for v in values)


def test_sample_histogram(capsys):
    code, out, _ = run(capsys, ["sample", "3", "300", "--seed", "5", "--histogram", "10"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    counts = [int(line.split(",")[2]) for line in lines[1:]]
    assert sum(counts) == 300 and len(counts) == 10


def test_sample_negative_histogram_rejected(capsys):
    code, out, err = run(capsys, ["sample", "3", "10", "--histogram", "-1"])
    assert code == 2
    assert out == ""
    assert "--histogram" in err


def test_sample_two_qubit(capsys):
    code, out, _ = run(capsys, ["sample", "2", "50", "--seed", "1"])
    assert code == 0
    values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    assert all(0.0 <= v <= 1.0 for v in values)


def test_sample_bad_count(capsys):
    code, _, err = run(capsys, ["sample", "3", "0"])
    assert code == 2
    assert "count" in err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_passes(capsys):
    code, out, _ = run(capsys, ["check", "--trials", "300"])
    assert code == 0
    assert "check: pass (14 suites)" in out
    assert out.count(": pass") >= 14


def test_check_deterministic(capsys):
    first = run(capsys, ["check", "--trials", "200", "--seed", "9"])[1]
    second = run(capsys, ["check", "--trials", "200", "--seed", "9"])[1]
    assert first == second


def test_check_negative_control_wrong_normalization(capsys, monkeypatch):
    monkeypatch.setattr(hopfq.entanglement, "MINOR_SUM_NORMALIZATION", 0.5)
    code, out, _ = run(capsys, ["check", "--trials", "200"])
    assert code == 1
    assert re.search(r"suite minor_measure_equals_e_avg: .*FAIL", out)
    assert "counterexample:" in out


def test_check_counterexample_is_parseable(capsys, monkeypatch):
    from hopfq.qubit_states import parse_amplitudes

    monkeypatch.setattr(hopfq.entanglement, "MINOR_SUM_NORMALIZATION", 0.5)
    _, out, _ = run(capsys, ["check", "--trials", "100"])
    match = re.search(r"counterexample: (.+)$", out, re.MULTILINE)
    assert match is not None
    amps = parse_amplitudes(match.group(1))
    assert abs(np.sum(np.abs(amps) ** 2) - 1.0) < 1e-9


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_check_rejects_vacuous_trials(capsys, trials):
    code, out, err = run(capsys, ["check", "--trials", trials])
    assert code == 2
    assert out == ""
    assert "trials must be at least 1" in err
