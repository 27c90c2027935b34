"""Tests for the fibration maps: base coordinates, ratio values, inverses."""

import math

import numpy as np
import pytest

from hopfq.division_algebra import HyperComplex
from hopfq.errors import ContractViolationError, SeparabilityError
from hopfq.hopf_maps import (
    INFINITY,
    BasePoint,
    coords_entanglement,
    fiber_chart,
    fiber_decompose,
    h1_value,
    hopf_base,
    hopf_inverse,
    is_infinite,
    iterated_analysis,
    state_from_chart,
    stereographic,
    stereographic_inverse,
)
from hopfq.qubit_states import (
    AlgebraPair,
    PureState,
    pack,
    state_from_bloch,
    tensor,
    unpack,
)

SQ2 = 1.0 / math.sqrt(2.0)


def random_amps(rng, n):
    z = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return z / np.linalg.norm(z)


def haar_state(rng, n):
    return PureState(random_amps(rng, n))


def random_product_state(rng):
    return tensor(haar_state(rng, 1), haar_state(rng, 2))


def overlap(a: PureState, b: PureState) -> float:
    return abs(np.vdot(a.amplitudes, b.amplitudes))


# ---------------------------------------------------------------------------
# BasePoint type
# ---------------------------------------------------------------------------

def test_base_point_validation():
    with pytest.raises(ContractViolationError):
        BasePoint([1.0, 1.0, 1.0])
    with pytest.raises(ContractViolationError):
        BasePoint([1.0, 0.0, 0.0, 0.0])
    point = BasePoint([0.0, 0.0, 1.0])
    assert point.dim == 3 and point.level == 1


# ---------------------------------------------------------------------------
# hopf_base
# ---------------------------------------------------------------------------

def test_base_of_basis_state_is_pole():
    coords = hopf_base(PureState.basis("000")).coords
    assert coords[8] == pytest.approx(1.0)
    assert np.abs(coords[:8]).max() <= 1e-15


def test_base_of_w_state():
    coords = hopf_base(PureState.w()).coords
    assert coords[2] == pytest.approx(2.0 / 3.0, abs=1e-14)  # X3
    assert coords[4] == pytest.approx(2.0 / 3.0, abs=1e-14)  # X5
    assert coords[8] == pytest.approx(1.0 / 3.0, abs=1e-14)  # X9
    others = [coords[i] for i in (0, 1, 3, 5, 6, 7)]
    assert np.abs(others).max() <= 1e-14


def test_base_of_ghz_state():
    # The frozen multiplication table sends GHZ's ratio value to the i6
    # direction, so the unit coordinate is X7 (with sign -1); X9 = 0.
    coords = hopf_base(PureState.ghz()).coords
    assert coords[6] == pytest.approx(-1.0, abs=1e-14)
    assert coords[8] == pytest.approx(0.0, abs=1e-14)
    assert np.abs(np.delete(coords, 6)).max() <= 1e-14
    assert np.abs(coords[2:8]).max() == pytest.approx(1.0, abs=1e-14)


def test_base_of_single_qubit_is_standard_bloch():
    rng = np.random.default_rng(101)
    for _ in range(300):
        amps = random_amps(rng, 1)
        coords = hopf_base(PureState(amps)).coords
        inner = amps[0].conjugate() * amps[1]
        expected = [2 * inner.real, 2 * inner.imag, abs(amps[0]) ** 2 - abs(amps[1]) ** 2]
        assert np.abs(coords - expected).max() <= 1e-14


def test_base_normalized_all_levels():
    rng = np.random.default_rng(103)
    for n in (1, 2, 3):
        for _ in range(500):
            coords = hopf_base(haar_state(rng, n)).coords
            assert abs(coords @ coords - 1.0) <= 1e-12


def test_two_qubit_base_matches_quaternion_sandwich():
    """Brute-force convention check at level 2, where the generalized-Pauli
    sandwich (q1*, q2*) sigma (q1, q2) is unambiguous: the sandwich fixes
    X1, X3, X4, X5, and the i1-slot coordinate is its negative (the X2 sign
    is pinned instead by the reduced-density-matrix identity)."""
    rng = np.random.default_rng(107)
    for _ in range(200):
        state = haar_state(rng, 2)
        pair = pack(state)
        q1, q2 = pair.first, pair.second
        coords = hopf_base(state).coords

        def sandwich(m):
            im = HyperComplex.unit(2, m)
            return (q1.conj() * (im * q2) - q2.conj() * (im * q1)).scalar_part

        s1 = (q1.conj() * q2 + q2.conj() * q1).scalar_part
        assert coords[0] == pytest.approx(s1, abs=1e-12)
        assert coords[1] == pytest.approx(-sandwich(1), abs=1e-12)
        assert coords[2] == pytest.approx(sandwich(2), abs=1e-12)
        assert coords[3] == pytest.approx(sandwich(3), abs=1e-12)
        assert coords[4] == pytest.approx(q1.norm_sq() - q2.norm_sq(), abs=1e-12)


def test_bloch_slots_match_reduced_density_matrix():
    rng = np.random.default_rng(109)
    for _ in range(300):
        state = haar_state(rng, 3)
        coords = hopf_base(state).coords
        m = state.amplitudes.reshape(2, 4)
        rho = m @ m.conj().T
        assert coords[0] == pytest.approx(2.0 * rho[0, 1].real, abs=1e-12)
        assert coords[1] == pytest.approx(-2.0 * rho[0, 1].imag, abs=1e-12)
        assert coords[8] == pytest.approx((rho[0, 0] - rho[1, 1]).real, abs=1e-12)


# ---------------------------------------------------------------------------
# h1_value
# ---------------------------------------------------------------------------

def test_h1_infinity_for_pole_states():
    assert is_infinite(h1_value(PureState.basis("000")))
    assert is_infinite(h1_value(PureState.basis("011")))


def test_h1_of_products_is_complex():
    rng = np.random.default_rng(113)
    for _ in range(500):
        value = h1_value(random_product_state(rng))
        if is_infinite(value):
            continue
        assert np.abs(value.coeffs[2:]).max() <= 1e-10


def test_h1_of_ghz():
    value = h1_value(PureState.ghz())
    assert abs(value.norm() - 1.0) <= 1e-14
    assert abs(value.scalar_part) <= 1e-14
    # closed form: C1 = C2 = C3 = 0 and C4 = -(gamma1 alpha0)* = -1/2.
    assert value.coeffs[6] == pytest.approx(-1.0, abs=1e-14)
    a = PureState.ghz().amplitudes
    c4 = a[5] * a[2] - a[1] * a[6] + (a[3] * a[4] - a[7] * a[0]).conjugate()
    assert abs(c4) == pytest.approx(0.5, abs=1e-14)


def _closed_form_value(amps: np.ndarray) -> np.ndarray:
    """Independent oracle: the complex closed form of the ratio value."""
    a0, a1, b0, b1, d0, d1, g0, g1 = amps
    c1 = a0 * d0.conjugate() + d1.conjugate() * a1 + g0.conjugate() * b0 + b1 * g1.conjugate()
    c2 = a1 * d0 - d1 * a0 + (b1 * g0 - g1 * b0).conjugate()
    c3 = b0 * d0 - g0 * a0 + (a1 * g1 - d1 * b1).conjugate()
    c4 = d1 * b0 - a1 * g0 + (b1 * d0 - g1 * a0).conjugate()
    denom = abs(d0) ** 2 + abs(d1) ** 2 + abs(g0) ** 2 + abs(g1) ** 2
    coeffs = np.array(
        [c1.real, c1.imag, c2.real, c2.imag, c3.real, -c4.imag, c4.real, c3.imag]
    )
    return coeffs / denom


def test_h1_matches_closed_form():
    rng = np.random.default_rng(127)
    for _ in range(500):
        state = haar_state(rng, 3)
        value = h1_value(state)
        assert not is_infinite(value)
        assert np.abs(value.coeffs - _closed_form_value(state.amplitudes)).max() <= 1e-10


def test_h1_fiber_invariance():
    rng = np.random.default_rng(131)
    for _ in range(300):
        state = haar_state(rng, 3)
        y = h1_value(state)
        if is_infinite(y):
            continue
        d_raw = rng.standard_normal(8)
        d = HyperComplex(3, d_raw / np.linalg.norm(d_raw))
        first = y * d
        scale = math.sqrt(first.norm_sq() + d.norm_sq())
        moved = unpack(AlgebraPair(first / scale, d / scale))
        assert np.abs(h1_value(moved).coeffs - y.coeffs).max() <= 1e-10


# ---------------------------------------------------------------------------
# Stereographic pair
# ---------------------------------------------------------------------------

def test_stereographic_pole_and_center():
    pole = BasePoint([0.0] * 8 + [1.0])
    assert is_infinite(stereographic(pole))
    center = stereographic_inverse(HyperComplex.zero(3))
    assert center.coords[-1] == pytest.approx(-1.0)
    back = stereographic_inverse(INFINITY, level=3)
    assert back.coords[-1] == pytest.approx(1.0)


def test_stereographic_inverse_requires_level_for_infinity():
    with pytest.raises(ContractViolationError):
        stereographic_inverse(INFINITY)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_stereographic_inverse_rejects_a_contradicting_level(level):
    value = HyperComplex.one(level)
    assert stereographic_inverse(value, level=level) == stereographic_inverse(value)
    for other in {1, 2, 3} - {level}:
        with pytest.raises(ContractViolationError, match="contradicts"):
            stereographic_inverse(value, level=other)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stereographic_matches_h1(n):
    rng = np.random.default_rng(137 + n)
    for _ in range(400):
        state = haar_state(rng, n)
        projected = stereographic(hopf_base(state))
        ratio = h1_value(state)
        assert not is_infinite(projected) and not is_infinite(ratio)
        assert np.abs(projected.coeffs - ratio.coeffs).max() <= 1e-9


@pytest.mark.parametrize("dim", [3, 5, 9])
def test_stereographic_round_trip(dim):
    rng = np.random.default_rng(139 + dim)
    for _ in range(300):
        raw = rng.standard_normal(dim)
        base = BasePoint(raw / np.linalg.norm(raw))
        value = stereographic(base)
        back = stereographic_inverse(value, level=base.level)
        assert np.abs(back.coords - base.coords).max() <= 1e-9


# ---------------------------------------------------------------------------
# hopf_inverse
# ---------------------------------------------------------------------------

def test_hopf_inverse_at_pole_returns_fiber():
    pole = BasePoint([0.0] * 8 + [1.0])
    fiber = HyperComplex(3, np.ones(8) / math.sqrt(8.0))
    state = hopf_inverse(pole, fiber)
    pair = pack(state)
    assert np.abs(pair.first.coeffs - fiber.coeffs).max() <= 1e-12
    assert pair.second.norm_sq() <= 1e-24


def test_hopf_inverse_rebuilds_ghz():
    base = hopf_base(PureState.ghz())
    fiber = (HyperComplex.one(3) + HyperComplex.unit(3, 6)) / math.sqrt(2.0)
    state = hopf_inverse(base, fiber)
    assert overlap(state, PureState.ghz()) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(state.amplitudes - PureState.ghz().amplitudes).max() <= 1e-12


def test_hopf_inverse_round_trip():
    rng = np.random.default_rng(149)
    for _ in range(300):
        raw = rng.standard_normal(9)
        base = BasePoint(raw / np.linalg.norm(raw))
        fraw = rng.standard_normal(8)
        fiber = HyperComplex(3, fraw / np.linalg.norm(fraw))
        state = hopf_inverse(base, fiber)
        assert np.abs(hopf_base(state).coords - base.coords).max() <= 1e-9
        value = h1_value(state)
        target = stereographic(base)
        assert np.abs(value.coeffs - target.coeffs).max() <= 1e-9


def test_hopf_inverse_contracts():
    good_fiber = HyperComplex.one(3)
    with pytest.raises(ContractViolationError):
        hopf_inverse(BasePoint([0, 0, 1]), good_fiber)
    pole = BasePoint([0.0] * 8 + [1.0])
    with pytest.raises(ContractViolationError):
        hopf_inverse(pole, 2.0 * good_fiber)
    with pytest.raises(ContractViolationError):
        hopf_inverse(pole, HyperComplex.one(2))


# ---------------------------------------------------------------------------
# Fiber charts
# ---------------------------------------------------------------------------

def test_fiber_chart_of_ghz():
    chart = fiber_chart(PureState.ghz())
    assert chart.omega == pytest.approx(math.pi / 4.0)
    assert chart.theta == pytest.approx(math.pi / 2.0)
    assert np.abs(chart.axis.coeffs - (-HyperComplex.unit(3, 6)).coeffs).max() <= 1e-12


def test_fiber_chart_round_trip():
    rng = np.random.default_rng(151)
    for _ in range(300):
        state = haar_state(rng, 3)
        chart = fiber_chart(state)
        assert 0.0 <= chart.omega <= math.pi / 2.0 + 1e-12
        assert 0.0 <= chart.theta <= math.pi + 1e-12
        assert abs(chart.fiber.norm_sq() - 1.0) <= 1e-12
        rebuilt = state_from_chart(chart)
        assert abs(np.sum(np.abs(rebuilt.amplitudes) ** 2) - 1.0) <= 1e-12
        assert np.abs(rebuilt.amplitudes - state.amplitudes).max() <= 1e-10


def test_fiber_chart_pole_states():
    state = PureState.basis("000")
    chart = fiber_chart(state)
    rebuilt = state_from_chart(chart)
    assert overlap(rebuilt, state) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Separability sensitivity
# ---------------------------------------------------------------------------

def test_products_map_to_complex_subspace():
    rng = np.random.default_rng(157)
    for _ in range(1000):
        coords = hopf_base(random_product_state(rng)).coords
        assert np.abs(coords[2:8]).max() <= 1e-10
        assert coords_entanglement(coords) <= 1e-10


def test_two_qubit_products_keep_x3_x4_zero():
    rng = np.random.default_rng(163)
    for _ in range(1000):
        state = tensor(haar_state(rng, 1), haar_state(rng, 1))
        coords = hopf_base(state).coords
        assert abs(coords[2]) <= 1e-10 and abs(coords[3]) <= 1e-10


def test_entangled_states_leave_complex_subspace():
    for state in (PureState.ghz(), PureState.w()):
        coords = hopf_base(state).coords
        assert np.abs(coords[2:8]).max() > 0.6


def test_gauge_behavior():
    rng = np.random.default_rng(167)
    for _ in range(200):
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        one = random_amps(rng, 1)
        before = hopf_base(PureState(one)).coords
        after = hopf_base(PureState(one * phase)).coords
        assert np.abs(after - before).max() <= 1e-12
        three = random_amps(rng, 3)
        b3 = hopf_base(PureState(three)).coords
        a3 = hopf_base(PureState(three * phase)).coords
        assert np.abs(a3[[0, 1, 8]] - b3[[0, 1, 8]]).max() <= 1e-12
        assert abs(np.sum(a3[2:8] ** 2) - np.sum(b3[2:8] ** 2)) <= 1e-12


# ---------------------------------------------------------------------------
# fiber_decompose
# ---------------------------------------------------------------------------

def test_fiber_decompose_zero_bell():
    state = tensor(PureState.basis("0"), PureState.bell00())
    bloch, factor = fiber_decompose(state)
    assert np.allclose(bloch.coords, [0, 0, 1], atol=1e-12)
    assert np.abs(factor.amplitudes - PureState.bell00().amplitudes).max() <= 1e-12


def test_fiber_decompose_plus_01():
    plus = PureState(np.array([SQ2, SQ2]))
    state = tensor(plus, PureState.basis("01"))
    bloch, factor = fiber_decompose(state)
    assert np.allclose(bloch.coords, [1, 0, 0], atol=1e-12)
    assert np.abs(factor.amplitudes - PureState.basis("01").amplitudes).max() <= 1e-12
    rebuilt = tensor(state_from_bloch(*bloch.coords), factor)
    assert overlap(rebuilt, state) == pytest.approx(1.0, abs=1e-9)


def test_fiber_decompose_rejects_entangled():
    with pytest.raises(SeparabilityError):
        fiber_decompose(PureState.ghz())


def test_fiber_decompose_reconstruction():
    rng = np.random.default_rng(173)
    for _ in range(300):
        state = random_product_state(rng)
        bloch, factor = fiber_decompose(state)
        rebuilt = tensor(state_from_bloch(*bloch.coords), factor)
        assert overlap(rebuilt, state) == pytest.approx(1.0, abs=1e-9)
        # gauge convention: first nonzero amplitude of the factor is real +
        lead = factor.amplitudes[np.flatnonzero(np.abs(factor.amplitudes) > 1e-12)[0]]
        assert lead.imag == pytest.approx(0.0, abs=1e-12)
        assert lead.real > 0.0


# ---------------------------------------------------------------------------
# iterated_analysis
# ---------------------------------------------------------------------------

def test_iterated_fully_separable_basis():
    report = iterated_analysis(PureState.basis("000"))
    assert report.fully_separable
    assert len(report.stages) == 3
    assert [s.level for s in report.stages] == [3, 2, 1]
    assert len(report.bloch_points) == 3
    for point in report.bloch_points:
        assert np.allclose(point.coords, [0, 0, 1], atol=1e-12)


def test_iterated_zero_bell_stops_at_stage_two():
    report = iterated_analysis(tensor(PureState.basis("0"), PureState.bell00()))
    assert not report.fully_separable
    assert len(report.stages) == 2
    assert report.stages[0].separable and report.stages[0].descended
    assert report.stages[1].level == 2
    assert report.stages[1].e_value == pytest.approx(1.0, abs=1e-12)
    assert not report.stages[1].separable
    assert len(report.bloch_points) == 1


def test_iterated_ghz_stops_immediately():
    report = iterated_analysis(PureState.ghz())
    assert len(report.stages) == 1
    assert report.stages[0].e_value == pytest.approx(1.0, abs=1e-12)
    assert not report.stages[0].separable
    assert report.bloch_points == ()


def test_iterated_w_stops_immediately():
    report = iterated_analysis(PureState.w())
    assert len(report.stages) == 1
    assert report.stages[0].e_value == pytest.approx(8.0 / 9.0, abs=1e-12)
    assert not report.fully_separable


def test_iterated_reconstructs_full_products():
    rng = np.random.default_rng(179)
    for _ in range(100):
        parts = [haar_state(rng, 1) for _ in range(3)]
        state = tensor(tensor(parts[0], parts[1]), parts[2])
        report = iterated_analysis(state)
        assert report.fully_separable
        rebuilt = tensor(
            tensor(
                state_from_bloch(*report.bloch_points[0].coords),
                state_from_bloch(*report.bloch_points[1].coords),
            ),
            state_from_bloch(*report.bloch_points[2].coords),
        )
        assert overlap(rebuilt, state) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Near the pole and non-finite input
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("o2_norm_sq", [1e-8, 1e-12, 1e-14])
def test_stereographic_matches_h1_near_pole(n, o2_norm_sq):
    rng = np.random.default_rng(97 + n)
    half = 2 ** (n - 1)
    for _ in range(20):
        amps = random_amps(rng, n)
        amps[:half] *= math.sqrt(1.0 - o2_norm_sq) / np.linalg.norm(amps[:half])
        amps[half:] *= math.sqrt(o2_norm_sq) / np.linalg.norm(amps[half:])
        state = PureState(amps)
        projected = stereographic(hopf_base(state))
        ratio = h1_value(state)
        assert not is_infinite(projected) and not is_infinite(ratio)
        scale = np.abs(ratio.coeffs).max()
        assert np.abs(projected.coeffs - ratio.coeffs).max() <= 1e-12 * scale


def test_base_point_rejects_nan():
    with pytest.raises(ContractViolationError):
        BasePoint([math.nan, 0.0, 0.0])
    with pytest.raises(ContractViolationError):
        BasePoint([0.0, math.nan, 0.0, 0.0, 1.0])


def test_iterated_analysis_two_qubit_stage_matches_separability():
    rng = np.random.default_rng(101)
    for _ in range(10):
        # One separable qubit times a generic (entangled) 2-qubit state.
        report = iterated_analysis(tensor(haar_state(rng, 1), haar_state(rng, 2)))
        assert [s.level for s in report.stages] == [3, 2]
        assert not report.fully_separable and len(report.bloch_points) == 1


def test_reports_holding_base_points_compare_and_hash_by_value():
    product, ghz = PureState.basis("000"), PureState.ghz()
    report = iterated_analysis(product)
    assert report == iterated_analysis(product)
    assert hash(report) == hash(iterated_analysis(product))  # a frozen report hashes
    assert report != iterated_analysis(PureState.basis("001"))
    assert fiber_chart(ghz) == fiber_chart(ghz)
    assert pack(ghz) == pack(ghz) and hash(pack(ghz)) == hash(pack(ghz))
    # 0.0 and -0.0 compare equal, so they hash alike
    plus, minus = BasePoint([0.0, 0.0, 1.0]), BasePoint([-0.0, 0.0, 1.0])
    assert plus == minus and hash(plus) == hash(minus)
    # the same pole at two levels is two points
    assert stereographic_inverse(INFINITY, 1) != stereographic_inverse(INFINITY, 2)
    assert plus != (0.0, 0.0, 1.0)
