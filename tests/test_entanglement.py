"""Tests for measures, partial traces and classification.

Expected values are produced by independent oracles: an index-level
partial trace, numpy determinants/SVD on the reshaped matrix, and the
Cauchy-Binet minor sum.
"""

import math

import numpy as np
import pytest

from hopfq.entanglement import (
    DensityMatrix2,
    bloch_density,
    classify,
    e_avg,
    e_hopf,
    minor_measure,
    partial_trace_keep,
    separability_2qubit,
    separability_conditions,
)
from hopfq.errors import ContractViolationError
from hopfq.hopf_maps import hopf_base
from hopfq.qubit_states import PureState, cut_state, reshape_matrix, tensor

SQ2 = 1.0 / math.sqrt(2.0)


def random_amps(rng, n):
    z = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return z / np.linalg.norm(z)


def haar_state(rng, n):
    return PureState(random_amps(rng, n))


def brute_force_rho(amps: np.ndarray, keep: int) -> np.ndarray:
    """Index-level partial trace oracle, independent of reshape_matrix."""
    rho = np.zeros((2, 2), dtype=complex)
    for i in range(8):
        bits_i = ((i >> 2) & 1, (i >> 1) & 1, i & 1)
        for j in range(8):
            bits_j = ((j >> 2) & 1, (j >> 1) & 1, j & 1)
            others_i = tuple(b for k, b in enumerate(bits_i) if k != keep - 1)
            others_j = tuple(b for k, b in enumerate(bits_j) if k != keep - 1)
            if others_i == others_j:
                rho[bits_i[keep - 1], bits_j[keep - 1]] += amps[i] * amps[j].conjugate()
    return rho


# ---------------------------------------------------------------------------
# DensityMatrix2 and partial traces
# ---------------------------------------------------------------------------

def test_density_matrix_validation():
    with pytest.raises(ContractViolationError):
        DensityMatrix2([[1.0, 0.5], [0.2, 0.0]])  # not Hermitian
    with pytest.raises(ContractViolationError):
        DensityMatrix2([[0.9, 0.0], [0.0, 0.0]])  # trace != 1
    with pytest.raises(ContractViolationError):
        DensityMatrix2([[1.5, 0.0], [0.0, -0.5]])  # negative determinant


@pytest.mark.parametrize(
    "matrix",
    [[[math.nan, 0.0], [0.0, 1.0]], [[0.5, math.nan], [math.nan, 0.5]],
     [[0.5, 0.0], [0.0, complex(math.nan, 0.0)]]],
)
def test_density_matrix_rejects_nan(matrix):
    with pytest.raises(ContractViolationError):
        DensityMatrix2(matrix)


def test_partial_trace_basis():
    rho = partial_trace_keep(PureState.basis("000"), 1)
    assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))


def test_partial_trace_ghz():
    for keep in (1, 2, 3):
        rho = partial_trace_keep(PureState.ghz(), keep)
        assert np.allclose(rho.matrix, 0.5 * np.eye(2), atol=1e-14)


def test_partial_trace_w():
    for keep in (1, 2, 3):
        rho = partial_trace_keep(PureState.w(), keep)
        assert np.allclose(rho.matrix, np.diag([2.0 / 3.0, 1.0 / 3.0]), atol=1e-14)


@pytest.mark.parametrize("keep", [1, 2, 3])
def test_partial_trace_against_brute_force(keep):
    rng = np.random.default_rng(191 + keep)
    for _ in range(200):
        state = haar_state(rng, 3)
        rho = partial_trace_keep(state, keep).matrix
        oracle = brute_force_rho(state.amplitudes, keep)
        assert np.abs(rho - oracle).max() <= 1e-13


def test_partial_trace_bad_index():
    with pytest.raises(ContractViolationError):
        partial_trace_keep(PureState.ghz(), 0)


# ---------------------------------------------------------------------------
# bloch_density
# ---------------------------------------------------------------------------

def test_bloch_density_pole():
    from hopfq.hopf_maps import BasePoint

    rho = bloch_density(BasePoint([0.0, 0.0, 1.0]))
    assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))


def test_bloch_density_ghz_and_w():
    rho = bloch_density(hopf_base(PureState.ghz()))
    assert np.allclose(rho.matrix, 0.5 * np.eye(2), atol=1e-14)
    rho = bloch_density(hopf_base(PureState.w()))
    assert np.allclose(rho.matrix, np.diag([2.0 / 3.0, 1.0 / 3.0]), atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bloch_density_equals_partial_trace(n):
    rng = np.random.default_rng(197 + n)
    for _ in range(200):
        state = haar_state(rng, n)
        rho = bloch_density(hopf_base(state)).matrix
        if n == 3:
            expected = partial_trace_keep(state, 1).matrix
        else:
            m = state.amplitudes.reshape(2, -1)
            expected = m @ m.conj().T
        assert np.abs(rho - expected).max() <= 1e-10


def test_bloch_density_cuts_2_and_3():
    rng = np.random.default_rng(199)
    for _ in range(100):
        state = haar_state(rng, 3)
        for cut in (2, 3):
            rho = bloch_density(hopf_base(cut_state(state, cut))).matrix
            assert np.abs(rho - partial_trace_keep(state, cut).matrix).max() <= 1e-10


# ---------------------------------------------------------------------------
# e_hopf / e_avg
# ---------------------------------------------------------------------------

def test_e_hopf_reference_states():
    for cut in (1, 2, 3):
        assert e_hopf(PureState.ghz(), cut) == pytest.approx(1.0, abs=1e-12)
        assert e_hopf(PureState.w(), cut) == pytest.approx(8.0 / 9.0, abs=1e-12)
        assert e_hopf(PureState.basis("000"), cut) == pytest.approx(0.0, abs=1e-12)


def test_e_hopf_equals_4_det_rho():
    rng = np.random.default_rng(211)
    for _ in range(500):
        state = haar_state(rng, 3)
        for cut in (1, 2, 3):
            det = np.linalg.det(partial_trace_keep(state, cut).matrix).real
            assert abs(e_hopf(state, cut) - 4.0 * det) <= 1e-10


def test_e_hopf_range():
    rng = np.random.default_rng(223)
    for _ in range(500):
        value = e_hopf(haar_state(rng, 3), 1)
        assert 0.0 <= value <= 1.0


def test_e_hopf_invariant_under_phase_rotations():
    rng = np.random.default_rng(227)
    for _ in range(200):
        state = haar_state(rng, 3)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        qubit = rng.integers(1, 4)
        cube = state.amplitudes.reshape(2, 2, 2).copy()
        index = [slice(None)] * 3
        index[qubit - 1] = 1
        cube[tuple(index)] *= np.exp(1j * phi)
        rotated = PureState(cube.reshape(8))
        for cut in (1, 2, 3):
            assert abs(e_hopf(rotated, cut) - e_hopf(state, cut)) <= 1e-10


def test_e_avg_reference_values():
    assert e_avg(PureState.ghz()) == pytest.approx(1.0, abs=1e-12)
    assert e_avg(PureState.w()) == pytest.approx(8.0 / 9.0, abs=1e-12)
    state = tensor(PureState.basis("0"), PureState.bell00())
    assert e_avg(state) == pytest.approx(2.0 / 3.0, abs=1e-12)
    per_cut = [e_hopf(state, cut) for cut in (1, 2, 3)]
    assert np.allclose(per_cut, [0.0, 1.0, 1.0], atol=1e-12)


def test_bloch_ball_containment():
    rng = np.random.default_rng(229)
    for _ in range(500):
        coords = hopf_base(haar_state(rng, 3)).coords
        radius_sq = coords[0] ** 2 + coords[1] ** 2 + coords[8] ** 2
        assert radius_sq <= 1.0 + 1e-12
    for _ in range(500):
        product = tensor(haar_state(rng, 1), haar_state(rng, 2))
        coords = hopf_base(product).coords
        radius_sq = coords[0] ** 2 + coords[1] ** 2 + coords[8] ** 2
        assert abs(radius_sq - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# minor_measure
# ---------------------------------------------------------------------------

def test_minor_measure_reference_states():
    assert minor_measure(PureState.ghz()) == pytest.approx(1.0, abs=1e-12)
    assert minor_measure(PureState.w()) == pytest.approx(8.0 / 9.0, abs=1e-12)


def test_minor_measure_vanishes_on_products():
    rng = np.random.default_rng(233)
    for _ in range(200):
        parts = [haar_state(rng, 1) for _ in range(3)]
        state = tensor(tensor(parts[0], parts[1]), parts[2])
        assert minor_measure(state) <= 1e-12


def test_minor_measure_equals_e_avg():
    rng = np.random.default_rng(239)
    for _ in range(500):
        state = haar_state(rng, 3)
        assert abs(minor_measure(state) - e_avg(state)) <= 1e-10


def test_e_avg_matches_purity_based_global_entanglement():
    # independent oracle: 2 (1 - mean_k Tr rho_k^2) over the three qubits
    def purity_measure(amps):
        total = 0.0
        for k in range(3):
            m = np.moveaxis(amps.reshape(2, 2, 2), k, 0).reshape(2, 4)
            rho = m @ m.conj().T
            total += np.real(np.trace(rho @ rho))
        return 2.0 * (1.0 - total / 3.0)

    rng = np.random.default_rng(240)
    for _ in range(500):
        state = haar_state(rng, 3)
        assert abs(e_avg(state) - purity_measure(state.amplitudes)) <= 1e-10


def test_cauchy_binet_fixes_normalization():
    # det(M M+) equals the sum of squared minors of M, so each cut's E is
    # 4 * sum over unordered pairs = 2 * (doubled sum); averaging the three
    # cuts forces the 2/3 prefactor.
    rng = np.random.default_rng(241)
    for _ in range(200):
        state = haar_state(rng, 3)
        for cut in (1, 2, 3):
            m = reshape_matrix(state, cut)
            det = np.linalg.det(m @ m.conj().T).real
            minors = [
                m[0, j] * m[1, k] - m[0, k] * m[1, j]
                for j in range(4)
                for k in range(j + 1, 4)
            ]
            assert abs(det - np.sum(np.abs(minors) ** 2)) <= 1e-12


# ---------------------------------------------------------------------------
# Separability residuals
# ---------------------------------------------------------------------------

def test_conditions_vanish_on_products():
    rng = np.random.default_rng(251)
    for _ in range(300):
        state = tensor(haar_state(rng, 1), haar_state(rng, 2))
        assert separability_conditions(state, 1).max() <= 1e-12


def test_conditions_ghz():
    residuals = separability_conditions(PureState.ghz(), 1)
    assert residuals.max() == pytest.approx(0.5, abs=1e-14)
    # the only nonzero bilinear is |alpha0 gamma1|
    assert residuals[0] == pytest.approx(0.5, abs=1e-14)
    assert np.abs(residuals[1:]).max() <= 1e-14


def test_conditions_agree_with_second_singular_value():
    rng = np.random.default_rng(257)
    tol, tol_sigma = 1e-9, 1e-8
    for _ in range(400):
        entangled = haar_state(rng, 3)
        product = tensor(haar_state(rng, 1), haar_state(rng, 2))
        for state in (entangled, product):
            for cut in (1, 2, 3):
                residuals = separability_conditions(state, cut)
                sigma2 = np.linalg.svd(reshape_matrix(state, cut), compute_uv=False)[1]
                assert (residuals.max() <= tol) == (sigma2 <= tol_sigma)
                # Cauchy-Binet ties the two scales together.
                assert abs(np.sum(residuals**2) - np.prod(
                    np.linalg.svd(reshape_matrix(state, cut), compute_uv=False) ** 2
                )) <= 1e-12


def test_separability_2qubit():
    assert separability_2qubit(PureState.basis("00")) == 0.0
    assert separability_2qubit(PureState.bell00()) == pytest.approx(0.5, abs=1e-14)
    rng = np.random.default_rng(263)
    for _ in range(300):
        product = tensor(haar_state(rng, 1), haar_state(rng, 1))
        assert separability_2qubit(product) <= 1e-12
        generic = haar_state(rng, 2)
        m = generic.amplitudes.reshape(2, 2)
        det_rho = np.linalg.det(m @ m.conj().T).real
        assert abs(separability_2qubit(generic) - math.sqrt(max(det_rho, 0.0))) <= 1e-10


def test_two_qubit_bell_chapter():
    bell = PureState.bell00()
    m = bell.amplitudes.reshape(2, 2)
    rho = m @ m.conj().T
    assert np.linalg.det(rho).real == pytest.approx(0.25, abs=1e-14)
    coords = hopf_base(bell).coords
    assert 1.0 - coords[0] ** 2 - coords[1] ** 2 - coords[4] ** 2 == pytest.approx(
        4.0 * 0.25, abs=1e-12
    )
    assert coords[2] ** 2 + coords[3] ** 2 == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_basis_state():
    report = classify(PureState.basis("000"))
    assert report.classification == "fully-separable"
    assert report.e_avg == pytest.approx(0.0, abs=1e-12)


def test_classify_zero_bell():
    report = classify(tensor(PureState.basis("0"), PureState.bell00()))
    assert report.classification == "biseparable(cut 1)"
    assert np.allclose(report.e_per_cut, [0.0, 1.0, 1.0], atol=1e-12)


def test_classify_bell_with_trailing_qubit():
    report = classify(tensor(PureState.bell00(), PureState.basis("0")))
    assert report.classification == "biseparable(cut 3)"
    assert np.allclose(report.e_per_cut, [1.0, 1.0, 0.0], atol=1e-12)


def test_classify_ghz_w():
    for state, value in ((PureState.ghz(), 1.0), (PureState.w(), 8.0 / 9.0)):
        report = classify(state)
        assert report.classification == "entangled"
        assert report.e_avg == pytest.approx(value, abs=1e-12)
        assert report.minor_measure == pytest.approx(value, abs=1e-12)


def test_classify_random_products():
    rng = np.random.default_rng(269)
    for _ in range(200):
        parts = [haar_state(rng, 1) for _ in range(3)]
        state = tensor(tensor(parts[0], parts[1]), parts[2])
        assert classify(state).classification == "fully-separable"


def test_report_consistency():
    rng = np.random.default_rng(271)
    for _ in range(100):
        report = classify(haar_state(rng, 3))
        assert report.e_avg == pytest.approx(np.mean(report.e_per_cut), abs=1e-12)
        assert len(report.residuals_per_cut) == 3
        assert all(len(r) == 6 for r in report.residuals_per_cut)
        assert all(0.0 <= e <= 1.0 for e in report.e_per_cut)
