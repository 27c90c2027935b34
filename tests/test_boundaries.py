"""Seeded property tests at the boundaries of the README's contracts: near
the pole (|o2|^2 -> 0), near product states, and on the real axis of the
ratio value, where ``polar`` falls back to the axis i1 and its angle nears
0 or pi.  ``derandomize=True`` draws the same examples on every run.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfq.division_algebra import HyperComplex, mul_coeffs
from hopfq.entanglement import FULLY_SEPARABLE, classify
from hopfq.hopf_maps import (
    fiber_chart, h1_value, hopf_base, hopf_inverse, is_infinite, state_from_chart, stereographic,
    stereographic_inverse,
)
from hopfq.qubit_states import PureState, haar_amplitudes, unpack_coeffs
from hopfq.tolerances import MAP_CONSISTENCY_TOL, SEPARABILITY_TOL

seeded = settings(max_examples=100, derandomize=True, deadline=None)
seeds = st.integers(0, 2 ** 32 - 1)


def unit_rows(rng: np.random.Generator, count: int, dim: int = 8) -> np.ndarray:
    z = rng.standard_normal((count, dim))
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


@pytest.mark.parametrize("n", [1, 2, 3])
@seeded
@given(log_o2_norm_sq=st.floats(-16.0, -6.0), seed=seeds)
def test_stereographic_matches_h1_value_near_the_pole(n, log_o2_norm_sq, seed):
    o2_norm_sq = 10.0 ** log_o2_norm_sq
    amps = haar_amplitudes(np.random.default_rng(seed), n)
    half = 2 ** (n - 1)  # o2 packs the second half of the amplitudes
    amps[:half] *= math.sqrt(1.0 - o2_norm_sq) / np.linalg.norm(amps[:half])
    amps[half:] *= math.sqrt(o2_norm_sq) / np.linalg.norm(amps[half:])
    state = PureState(amps)
    projected, ratio = stereographic(hopf_base(state)), h1_value(state)
    assert is_infinite(projected) == is_infinite(ratio)
    if not is_infinite(ratio):
        # The values grow as 1/|o2|, so only a relative error is comparable.
        error = np.linalg.norm(projected.coeffs - ratio.coeffs) / ratio.norm()
        assert error <= MAP_CONSISTENCY_TOL


@seeded
@given(log_eps=st.floats(-12.0, -3.0), seed=seeds)
def test_fully_separable_exactly_when_every_residual_passes(log_eps, seed):
    eps = 10.0 ** log_eps
    rng = np.random.default_rng(seed)
    product = np.einsum("a,b,c->abc", *haar_amplitudes(rng, 1, 3)).reshape(8)
    amps = product + eps * haar_amplitudes(rng, 3)
    report = classify(PureState(amps / np.linalg.norm(amps)))
    worst = max(max(residuals) for residuals in report.residuals_per_cut)
    # Each minor vanishes on the product and moves by at most 2 eps + eps^2;
    # the normalization scales it by at most 1 / (1 - eps)^2.
    assert worst <= 3.0 * eps
    assert (report.classification == FULLY_SEPARABLE) == (worst <= SEPARABILITY_TOL)


@seeded
@given(
    scalar=st.floats(1e-3, 1e3),
    negative=st.booleans(),
    vector=st.one_of(st.just(0.0), st.floats(1e-300, 1e-9)),
    along_i1=st.booleans(),
    seed=seeds,
)
def test_hopf_inverse_round_trips_on_the_real_axis(scalar, negative, vector, along_i1, seed):
    second, direction, fiber = unit_rows(np.random.default_rng(seed), 3)
    value = np.zeros(8)
    value[0] = -scalar if negative else scalar
    if along_i1:
        value[1] = vector
    else:
        value[1:] = vector * direction[1:] / np.linalg.norm(direction[1:])
    first = mul_coeffs(value, second, 3)  # the ratio value of (first, second) is value
    scale = math.sqrt(first @ first + 1.0)
    state = PureState(unpack_coeffs(first / scale, second / scale))
    base = hopf_base(state)
    rebuilt = hopf_inverse(base, HyperComplex(3, fiber))
    assert np.abs(hopf_base(rebuilt).coords - base.coords).max() <= MAP_CONSISTENCY_TOL
    charted = state_from_chart(fiber_chart(state))
    assert np.abs(charted.amplitudes - state.amplitudes).max() <= MAP_CONSISTENCY_TOL


@pytest.mark.parametrize("log_eps", np.arange(-162.0, -153.5))
def test_hopf_inverse_round_trips_next_to_the_south_pole(log_eps):
    """Ratio values of norm eps: |eps|^2 underflows, the inverse map must not."""
    rng = np.random.default_rng(int(-log_eps))
    for direction, fiber in zip(unit_rows(rng, 10), unit_rows(rng, 10)):
        direction[0] = 0.0
        value = 10.0 ** log_eps * direction / np.linalg.norm(direction)
        base = stereographic_inverse(HyperComplex(3, value))
        rebuilt = hopf_inverse(base, HyperComplex(3, fiber))
        assert np.abs(hopf_base(rebuilt).coords - base.coords).max() <= MAP_CONSISTENCY_TOL
