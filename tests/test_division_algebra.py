"""Tests for the Cayley-Dickson arithmetic layer."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hopfq.division_algebra import (
    CYCLES,
    HyperComplex,
    conj,
    dim_of,
    exp_imaginary,
    inverse,
    mul,
    polar,
    polar_coeffs,
    scalar_part,
    vector_part,
)
from hopfq.errors import ContractViolationError


def unit(m, level=3):
    return HyperComplex.unit(level, m)


def coeffs_close(a: HyperComplex, b: HyperComplex, tol=1e-12) -> bool:
    return bool(np.abs(a.coeffs - b.coeffs).max() <= tol)


def element(level):
    """Hypothesis strategy for a bounded, not-too-small element."""
    dim = dim_of(level)
    finite = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    return st.lists(finite, min_size=dim, max_size=dim).map(
        lambda c: HyperComplex(level, c)
    )


# ---------------------------------------------------------------------------
# Multiplication table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cycle", CYCLES)
def test_cycle_products(cycle):
    a, b, c = cycle
    for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
        assert coeffs_close(unit(i) * unit(j), unit(k), tol=0.0)
        assert coeffs_close(unit(j) * unit(i), -unit(k), tol=0.0)


def test_cycle_table_has_42_products():
    products = {
        (i, j)
        for a, b, c in CYCLES
        for i, j in [(a, b), (b, c), (c, a), (b, a), (c, b), (a, c)]
    }
    assert len(products) == 42


@pytest.mark.parametrize("m", range(1, 8))
def test_imaginary_units_square_to_minus_one(m):
    assert coeffs_close(unit(m) * unit(m), -HyperComplex.one(3), tol=0.0)


def test_quaternion_i1_i2_is_i3():
    assert coeffs_close(unit(1, level=2) * unit(2, level=2), unit(3, level=2), tol=0.0)


def test_octonion_i7_i1_is_i4():
    assert coeffs_close(unit(7) * unit(1), unit(4), tol=0.0)


def test_one_is_identity():
    rng = np.random.default_rng(7)
    for level in (1, 2, 3):
        o = HyperComplex(level, rng.standard_normal(dim_of(level)))
        assert coeffs_close(HyperComplex.one(level) * o, o, tol=0.0)
        assert coeffs_close(o * HyperComplex.one(level), o, tol=0.0)


def test_level_one_is_complex_multiplication():
    rng = np.random.default_rng(3)
    for _ in range(50):
        za, zb = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        prod = HyperComplex.from_complex(za) * HyperComplex.from_complex(zb)
        assert abs(prod.as_complex() - za * zb) < 1e-14


def test_level_mismatch_rejected():
    with pytest.raises(ContractViolationError):
        mul(HyperComplex.one(2), HyperComplex.one(3))


# ---------------------------------------------------------------------------
# Norm, conjugation, inverse
# ---------------------------------------------------------------------------

def test_norm_multiplicativity_random():
    rng = np.random.default_rng(11)
    for level in (1, 2, 3):
        dim = dim_of(level)
        for _ in range(2000):
            a = HyperComplex(level, rng.standard_normal(dim))
            b = HyperComplex(level, rng.standard_normal(dim))
            lhs = (a * b).norm_sq()
            rhs = a.norm_sq() * b.norm_sq()
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)


@given(element(3), element(3))
@settings(max_examples=80)
def test_conj_anti_automorphism(a, b):
    assert coeffs_close(conj(a * b), conj(b) * conj(a), tol=1e-10)


def test_conj_examples():
    assert coeffs_close(conj(unit(1)), -unit(1), tol=0.0)
    three = HyperComplex.from_real(3, 3.0)
    assert coeffs_close(conj(three), three, tol=0.0)
    a = HyperComplex(3, [1, 0, 1, 0, 0, 0, 1, 0])
    assert coeffs_close(conj(conj(a)), a, tol=0.0)


def test_inverse_examples():
    two = HyperComplex.from_real(3, 2.0)
    assert coeffs_close(inverse(two), HyperComplex.from_real(3, 0.5), tol=0.0)
    assert coeffs_close(inverse(unit(4)), -unit(4), tol=0.0)


def test_inverse_cancels_random_units():
    rng = np.random.default_rng(13)
    one = HyperComplex.one(3)
    for _ in range(2000):
        c = rng.standard_normal(8)
        o = HyperComplex(3, c / np.linalg.norm(c))
        assert coeffs_close(o * inverse(o), one)
        assert coeffs_close(inverse(o) * o, one)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        inverse(HyperComplex.zero(3))


def test_no_zero_divisors():
    rng = np.random.default_rng(17)
    for _ in range(2000):
        a = HyperComplex(3, rng.standard_normal(8))
        b = HyperComplex(3, rng.standard_normal(8))
        assert (a * b).norm_sq() > 0.0


# ---------------------------------------------------------------------------
# Associativity structure
# ---------------------------------------------------------------------------

@given(element(3), element(3))
@settings(max_examples=80)
def test_alternativity(a, b):
    scale = max(1.0, a.norm_sq() * a.norm() * b.norm())
    tol = 1e-12 * scale
    assert coeffs_close((a * a) * b, a * (a * b), tol=tol)
    assert coeffs_close((a * b) * a, a * (b * a), tol=tol)
    assert coeffs_close((b * a) * a, b * (a * a), tol=tol)


@pytest.mark.parametrize("level", [1, 2])
def test_full_associativity_below_octonions(level):
    rng = np.random.default_rng(19)
    dim = dim_of(level)
    for _ in range(500):
        a, b, c = (HyperComplex(level, rng.standard_normal(dim)) for _ in range(3))
        assert coeffs_close((a * b) * c, a * (b * c), tol=1e-12 * 64)


def test_octonions_are_not_associative():
    lhs = (unit(1) * unit(2)) * unit(4)
    rhs = unit(1) * (unit(2) * unit(4))
    assert coeffs_close(lhs, -unit(5), tol=0.0)
    assert coeffs_close(rhs, unit(5), tol=0.0)
    assert not coeffs_close(lhs, rhs, tol=1.0)


def test_fiber_cancellation():
    # (x y) y^-1 = x, the identity the inverse Hopf map leans on.
    rng = np.random.default_rng(23)
    for _ in range(2000):
        x = HyperComplex(3, rng.standard_normal(8))
        c = rng.standard_normal(8)
        y = HyperComplex(3, c / np.linalg.norm(c))
        assert coeffs_close((x * y) * inverse(y), x, tol=1e-12 * max(1.0, x.norm()))


# ---------------------------------------------------------------------------
# Scalar/vector split and polar form
# ---------------------------------------------------------------------------

def test_scalar_vector_split():
    assert scalar_part(unit(1)) == 0.0
    five = HyperComplex.from_real(3, 5.0)
    assert coeffs_close(vector_part(five), HyperComplex.zero(3), tol=0.0)
    a = HyperComplex(3, [1, 0, 1, 0, 0, 0, 1, 0])
    assert scalar_part(a) == 1.0
    assert coeffs_close(vector_part(a), unit(2) + unit(6), tol=0.0)
    rebuilt = scalar_part(a) * HyperComplex.one(3) + vector_part(a)
    assert coeffs_close(rebuilt, a, tol=0.0)


def test_polar_real_input_uses_degenerate_convention():
    form = polar(HyperComplex.one(3))
    assert form.magnitude == pytest.approx(1.0)
    assert form.angle == pytest.approx(0.0)
    assert coeffs_close(form.axis, unit(1), tol=0.0)
    form = polar(HyperComplex.from_real(3, -2.0))
    assert form.angle == pytest.approx(math.pi)


def test_polar_of_i3():
    form = polar(unit(3))
    assert form.magnitude == pytest.approx(1.0)
    assert form.angle == pytest.approx(math.pi / 2.0)
    assert coeffs_close(form.axis, unit(3))


@given(element(3))
@settings(max_examples=80)
def test_polar_round_trip(a):
    assume(a.norm() > 1e-3)
    form = polar(a)
    assert abs(form.axis.scalar_part) <= 1e-12
    assert abs(form.axis.norm() - 1.0) <= 1e-12
    assert coeffs_close(form.reconstruct(), a, tol=1e-12 * max(1.0, a.norm()))


@pytest.mark.parametrize("scalar", [1.0, -1.0])
@pytest.mark.parametrize("tiny", [1e-9, 1e-6, 1e-4])
def test_polar_round_trip_near_real_axis(scalar, tiny):
    a = HyperComplex(3, [scalar, tiny, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    form = polar(a)
    assert coeffs_close(form.reconstruct(), a, tol=1e-15)


@pytest.mark.parametrize("eps", [1e-320, 1e-310, 1e-300, 1e-250, 1e-200, 1e-162, 1e-160, 1e-155])
def test_polar_of_a_tiny_imaginary_element(eps):
    """Squaring coefficients this small underflows; the polar form must not."""
    for u in np.random.default_rng(7).standard_normal((20, 8)):
        u[0] = 0.0
        coeffs = eps * (u / np.linalg.norm(u))
        magnitude, angle, axis = polar_coeffs(coeffs)
        assert magnitude == pytest.approx(math.hypot(*coeffs), rel=1e-15)
        assert angle == math.pi / 2.0
        assert abs(math.sqrt(axis @ axis) - 1.0) <= 1e-15


def test_polar_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        polar(HyperComplex.zero(2))


def test_exp_imaginary_examples():
    assert coeffs_close(exp_imaginary(unit(1), 0.0), HyperComplex.one(3), tol=0.0)
    assert coeffs_close(exp_imaginary(unit(6), math.pi), -HyperComplex.one(3))
    assert coeffs_close(exp_imaginary(unit(2), math.pi / 2.0), unit(2))


def test_exp_imaginary_rejects_bad_axis():
    with pytest.raises(ContractViolationError):
        exp_imaginary(2.0 * unit(1), 1.0)
    with pytest.raises(ContractViolationError):
        exp_imaginary(HyperComplex.one(3), 1.0)


def test_exp_imaginary_unit_norm():
    rng = np.random.default_rng(29)
    for _ in range(200):
        v = rng.standard_normal(8)
        v[0] = 0.0
        axis = HyperComplex(3, v / np.linalg.norm(v))
        value = exp_imaginary(axis, rng.uniform(-10, 10))
        assert abs(value.norm_sq() - 1.0) <= 1e-12


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_hypercomplex_rejects_non_finite(level, bad):
    coeffs = np.zeros(dim_of(level))
    coeffs[-1] = bad
    with pytest.raises(ContractViolationError):
        HyperComplex(level, coeffs)


def test_hypercomplex_compares_and_hashes_by_value():
    a = HyperComplex(3, np.arange(8.0) / 10.0)
    same = HyperComplex(3, np.arange(8.0) / 10.0)
    assert a == same and hash(a) == hash(same)
    assert a != HyperComplex(3, np.arange(8.0) / 10.0 + 1e-16)
    assert polar(a) == polar(a)
    # 0.0 and -0.0 compare equal, so they hash alike
    plus, minus = HyperComplex(1, [0.0, 1.0]), HyperComplex(1, [-0.0, 1.0])
    assert plus == minus and hash(plus) == hash(minus)
    # the same coefficients at another level are another element
    assert HyperComplex.one(1) != HyperComplex.one(2)
    assert HyperComplex.one(1) != (1.0, 0.0)
