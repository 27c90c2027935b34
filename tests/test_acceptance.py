"""Acceptance suite: one test per shipping criterion, at stated tolerances.

Each test prints a PASS line when its assertions hold (run with -s to see
them).  Batched loops go through the same coefficient kernels the public
API wraps (pack_coeffs / base_coords under hopf_base, and under e_hopf
through cut_entanglement), with scalar-API subsamples asserting the
wrappers agree.
"""

import math
import re

import numpy as np
import pytest

from hopfq import entanglement
from hopfq.checks import (
    suite_alternativity,
    suite_conj_anti_automorphism,
    suite_inverse_cancellation,
    suite_norm_multiplicativity,
)
from hopfq.cli import main
from hopfq.division_algebra import CYCLES, HyperComplex
from hopfq.entanglement import classify, e_avg, e_hopf, minor_measure, partial_trace_keep
from hopfq.hopf_maps import (
    BasePoint,
    base_coords,
    h1_value,
    hopf_base,
    hopf_inverse,
    is_infinite,
    stereographic,
)
from hopfq.qubit_states import PureState, pack_coeffs, tensor

SQ2 = 1.0 / math.sqrt(2.0)


def _report(criterion: int, text: str) -> None:
    print(f"criterion {criterion}: PASS - {text}")


def _normalized_rows(z: np.ndarray) -> np.ndarray:
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def _haar_batch(rng, n, count):
    z = rng.standard_normal((count, 2 ** n)) + 1j * rng.standard_normal((count, 2 ** n))
    return _normalized_rows(z)


def _product_batch(rng, count):
    one = _haar_batch(rng, 1, count)
    two = _haar_batch(rng, 2, count)
    return np.einsum("bi,bj->bij", one, two).reshape(count, 8)


def _cut_views(amps: np.ndarray):
    cube = amps.reshape(-1, 2, 2, 2)
    return (
        cube.reshape(-1, 2, 4),
        cube.transpose(0, 2, 1, 3).reshape(-1, 2, 4),
        cube.transpose(0, 3, 1, 2).reshape(-1, 2, 4),
    )


def test_criterion_01_ghz_maximality():
    ghz = PureState.ghz()
    for cut in (1, 2, 3):
        assert abs(e_hopf(ghz, cut) - 1.0) < 1e-12
    _report(1, "e_hopf(GHZ, cut) = 1 for every cut within 1e-12")


def test_criterion_02_w_value_and_coordinates():
    w = PureState.w()
    for cut in (1, 2, 3):
        assert abs(e_hopf(w, cut) - 8.0 / 9.0) < 1e-12
    coords = hopf_base(w).coords
    assert abs(coords[2] - 2.0 / 3.0) < 1e-12  # X3
    assert abs(coords[4] - 2.0 / 3.0) < 1e-12  # X5
    assert abs(coords[8] - 1.0 / 3.0) < 1e-12  # X9
    _report(2, "e_hopf(W) = 8/9 on every cut; X3 = X5 = 2/3, X9 = 1/3")


def test_criterion_03_separability_sensitivity():
    rng = np.random.default_rng(1003)
    worst_coord = 0.0
    worst_e = 0.0
    for k in range(10_000):
        one = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        two = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        state = tensor(
            PureState(one / np.linalg.norm(one)), PureState(two / np.linalg.norm(two))
        )
        coords = hopf_base(state).coords
        worst_coord = max(worst_coord, float(np.abs(coords[2:8]).max()))
        worst_e = max(worst_e, e_hopf(state, 1))
    assert worst_coord < 1e-10
    assert worst_e < 1e-10
    _report(3, f"10^4 products: max |X3..X8| = {worst_coord:.2e}, max E = {worst_e:.2e}")


def test_criterion_04_e_equals_4_det_rho():
    rng = np.random.default_rng(1004)
    amps = _haar_batch(rng, 3, 10_000)
    worst = 0.0
    for view in _cut_views(amps):
        flat = view.reshape(-1, 8)
        coords = base_coords(*pack_coeffs(flat))
        e_values = np.sum(coords[:, 2:8] ** 2, axis=-1)
        rho = np.einsum("bij,bkj->bik", view, view.conj())
        det = (rho[:, 0, 0] * rho[:, 1, 1] - rho[:, 0, 1] * rho[:, 1, 0]).real
        worst = max(worst, float(np.abs(e_values - 4.0 * det).max()))
    assert worst < 1e-10
    # scalar API agrees with the batched kernel route
    for k in range(1000):
        state = PureState(amps[k])
        for cut in (1, 2, 3):
            det = partial_trace_keep(state, cut).det()
            assert abs(e_hopf(state, cut) - 4.0 * det) < 1e-10
    _report(4, f"10^4 states x 3 cuts: max |E - 4 det rho| = {worst:.2e}")


def test_criterion_05_minor_measure_equals_e_avg():
    rng = np.random.default_rng(1005)
    amps = _haar_batch(rng, 3, 10_000)
    e_sum = np.zeros(amps.shape[0])
    minor_sum = np.zeros(amps.shape[0])
    pairs = ((0, 3), (0, 2), (0, 1), (1, 3), (1, 2), (2, 3))
    for view in _cut_views(amps):
        coords = base_coords(*pack_coeffs(view.reshape(-1, 8)))
        e_sum += np.sum(coords[:, 2:8] ** 2, axis=-1)
        for j, k in pairs:
            minors = view[:, 0, j] * view[:, 1, k] - view[:, 0, k] * view[:, 1, j]
            minor_sum += 2.0 * np.abs(minors) ** 2
    worst = float(
        np.abs(entanglement.MINOR_SUM_NORMALIZATION * minor_sum - e_sum / 3.0).max()
    )
    assert worst < 1e-10
    assert entanglement.MINOR_SUM_NORMALIZATION == pytest.approx(2.0 / 3.0, abs=0.0)
    for k in range(1000):
        state = PureState(amps[k])
        assert abs(minor_measure(state) - e_avg(state)) < 1e-10
    _report(5, f"10^4 states: max |minor_measure - e_avg| = {worst:.2e} with A = 2/3")


def test_criterion_06_algebra_suite():
    rng = np.random.default_rng(1006)
    for suite, tol in (
        (suite_norm_multiplicativity, 1e-10),
        (suite_alternativity, 1e-10),
        (suite_conj_anti_automorphism, 1e-10),
        (suite_inverse_cancellation, 1e-10),
    ):
        result = suite(10_000, rng)
        assert result.max_error < tol, result.name
    # exact table assertions: 42 signed products plus the seven squares
    for a, b, c in CYCLES:
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            prod = HyperComplex.unit(3, i) * HyperComplex.unit(3, j)
            assert np.array_equal(prod.coeffs, HyperComplex.unit(3, k).coeffs)
            anti = HyperComplex.unit(3, j) * HyperComplex.unit(3, i)
            assert np.array_equal(anti.coeffs, -HyperComplex.unit(3, k).coeffs)
    for m in range(1, 8):
        sq = HyperComplex.unit(3, m) * HyperComplex.unit(3, m)
        assert np.array_equal(sq.coeffs, -HyperComplex.one(3).coeffs)
    _report(6, "norm, alternativity, conjugation, cancellation at 10^4 + exact table")


def test_criterion_07_fibration_round_trips():
    rng = np.random.default_rng(1007)
    worst_base = 0.0
    for _ in range(1000):
        raw = rng.standard_normal(9)
        base = BasePoint(raw / np.linalg.norm(raw))
        fraw = rng.standard_normal(8)
        fiber = HyperComplex(3, fraw / np.linalg.norm(fraw))
        state = hopf_inverse(base, fiber)
        worst_base = max(
            worst_base, float(np.abs(hopf_base(state).coords - base.coords).max())
        )
    assert worst_base < 1e-9
    worst_value = 0.0
    for k in range(1000):
        z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        state = PureState(z / np.linalg.norm(z))
        projected = stereographic(hopf_base(state))
        ratio = h1_value(state)
        assert not is_infinite(projected) and not is_infinite(ratio)
        worst_value = max(
            worst_value, float(np.abs(projected.coeffs - ratio.coeffs).max())
        )
    assert worst_value < 1e-9
    _report(
        7,
        f"10^3 round trips: base error {worst_base:.2e}, "
        f"stereographic-vs-ratio error {worst_value:.2e}",
    )


def test_criterion_08_two_qubit_chapter():
    bell = PureState.bell00()
    m = bell.amplitudes.reshape(2, 2)
    det = np.linalg.det(m @ m.conj().T).real
    assert abs(det - 0.25) < 1e-12
    residual = abs(
        bell.amplitudes[0] * bell.amplitudes[3] - bell.amplitudes[1] * bell.amplitudes[2]
    )
    assert abs(residual - 0.5) < 1e-12
    rng = np.random.default_rng(1008)
    worst = 0.0
    for _ in range(2000):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        product = tensor(
            PureState(a / np.linalg.norm(a)), PureState(b / np.linalg.norm(b))
        )
        coords = hopf_base(product).coords
        worst = max(worst, abs(coords[2]), abs(coords[3]))
    assert worst < 1e-10
    _report(8, f"Bell: det rho = 1/4, residual = 1/2; products keep |X3|,|X4| < {worst:.2e}")


def test_criterion_09_classification():
    state = tensor(PureState.basis("0"), PureState.bell00())
    report = classify(state)
    assert report.classification == "biseparable(cut 1)"
    assert abs(report.e_per_cut[0] - 0.0) < 1e-12
    assert abs(report.e_per_cut[1] - 1.0) < 1e-12
    assert abs(report.e_per_cut[2] - 1.0) < 1e-12
    assert classify(PureState.ghz()).classification == "entangled"
    assert classify(PureState.w()).classification == "entangled"
    rng = np.random.default_rng(1009)
    for _ in range(1000):
        parts = []
        for _ in range(3):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            parts.append(PureState(z / np.linalg.norm(z)))
        product = tensor(tensor(parts[0], parts[1]), parts[2])
        assert classify(product).classification == "fully-separable"
    _report(9, "|0> x Bell biseparable(cut 1) with E = (0, 1, 1); 10^3 products fully-separable")


def test_criterion_10_cli_conformance(capsys):
    def run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        return code, out

    ghz_runs = [run(["analyze", "ghz"]) for _ in range(2)]
    w_runs = [run(["analyze", "w"]) for _ in range(2)]
    coord_runs = [run(["coords", "w", "--cut", "1"]) for _ in range(2)]
    for runs in (ghz_runs, w_runs, coord_runs):
        assert runs[0][0] == 0
        assert runs[0][1] == runs[1][1], "output must be byte-stable"
    assert "  e avg: 1\n" in ghz_runs[0][1]
    for cut in (1, 2, 3):
        assert f"  e cut {cut}: 1\n" in ghz_runs[0][1]
        assert f"  e cut {cut}: 0.888888888889\n" in w_runs[0][1]
    assert "  X3: 0.666666666667\n" in coord_runs[0][1]
    assert "  X5: 0.666666666667\n" in coord_runs[0][1]
    assert "  X9: 0.333333333333\n" in coord_runs[0][1]
    code, out = run(["check", "--trials", "10000"])
    assert code == 0
    assert re.search(r"check: pass \(\d+ suites\)", out)
    _report(10, "analyze/coords byte-stable with criteria 1-2 values; check exits 0")
