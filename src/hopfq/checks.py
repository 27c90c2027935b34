"""Self-test suites behind the ``check`` command.

Each suite draws its own deterministic sample, exercises one family of
identities, and reports trial/failure counts plus the first (worst)
counterexample.  Every suite runs batched through the coefficient kernels
that the scalar public API wraps, and ``check --trials N`` runs N trials in
each but ``algebra_cycle_table``, which always checks its 49 products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import entanglement
from .division_algebra import CYCLES, HyperComplex, conj_coeffs, mul_coeffs, row_dot
from .hopf_maps import (
    base_coords, bloch_slots, coords_entanglement, inverse_coeffs, ratio_coeffs, state_coords,
    stereographic_coeffs,
)
from .qubit_states import (
    CUTS,
    PureState,
    cut_matrix,
    det2,
    format_amplitudes,
    haar_amplitudes,
    matrix_minors,
    pack_coeffs,
    tensor_amplitudes,
)
from .tolerances import ABS_TOL, IDENTITY_TOL, MAP_CONSISTENCY_TOL, STATE_NORM_TOL


@dataclass(frozen=True)
class SuiteResult:
    name: str
    trials: int
    failures: int
    max_error: float
    counterexample: str | None

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _random_units(rng: np.random.Generator, count: int, dim: int = 8) -> np.ndarray:
    """``count`` uniform random unit vectors of R^dim (unit octonions by default)."""
    z = rng.standard_normal((count, dim))
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def _coeff_text(*rows: np.ndarray) -> str:
    return " ; ".join(np.array2string(row, separator=", ", precision=17) for row in rows)


def _unit_pair_errors(errors: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Errors that also count the deviation of |o1|^2 + |o2|^2 from 1, and
    are infinite where it exceeds STATE_NORM_TOL (no state has that pair)."""
    deviation = np.abs(row_dot(first, first) + row_dot(second, second) - 1.0)
    return np.where(deviation <= STATE_NORM_TOL, np.maximum(errors, deviation), np.inf)


def _result(name, errors, tol, describe_row) -> SuiteResult:
    """Suite result whose counterexample is ``describe_row(k)`` of the worst row k."""
    errors = np.asarray(errors, dtype=float)
    failures = int(np.count_nonzero(errors > tol))
    return SuiteResult(
        name=name,
        trials=int(errors.shape[0]),
        failures=failures,
        max_error=float(errors.max()) if errors.size else 0.0,
        counterexample=describe_row(int(np.argmax(errors))) if failures else None,
    )


def _per_level(name, trials, tol, draw, errors_of, describe) -> SuiteResult:
    """A suite whose trials are split evenly over the levels 1, 2, 3.

    ``draw(level, count)`` returns a tuple of input arrays with ``count`` rows,
    ``errors_of(level, *inputs)`` their errors, and the counterexample is
    ``describe(*row)`` of the worst row's own inputs.
    """
    inputs, errors = [], []
    for level in (1, 2, 3):
        count = (trials + 3 - level) // 3  # the first trials % 3 levels take one more
        inputs.append(draw(level, count))
        errors.append(errors_of(level, *inputs[-1]))

    def counterexample(worst: int) -> str:
        for level_inputs, level_errors in zip(inputs, errors):
            if worst < level_errors.size:
                return describe(*(a[worst] for a in level_inputs))
            worst -= level_errors.size

    return _result(name, np.concatenate(errors), tol, counterexample)


# ---------------------------------------------------------------------------
# Algebra suites
# ---------------------------------------------------------------------------

def suite_algebra_cycle_table(trials: int, rng: np.random.Generator) -> SuiteResult:
    """All 42 signed unit products implied by the seven cycles, plus squares."""
    eye = np.eye(8)
    table = mul_coeffs(eye[:, None], eye[None], 3)  # table[l, r] = i_l i_r
    expected = {}  # (l, r) -> (k, sign) for i_l i_r = sign i_k, in reporting order
    for a, b, c in CYCLES:
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            expected[i, j], expected[j, i] = (k, 1.0), (k, -1.0)
    for m in range(1, 8):
        expected[m, m] = (0, -1.0)
    failures = []
    for (left, right), (k, sign) in expected.items():
        if not np.array_equal(table[left, right], sign * eye[k]):
            name = f"i{left}^2" if left == right else f"i{left}*i{right}"
            failures.append(f"{name} gave {HyperComplex(3, table[left, right])}")
    return SuiteResult(
        name="algebra_cycle_table",
        trials=len(expected),
        failures=len(failures),
        max_error=0.0 if not failures else 1.0,
        counterexample=failures[0] if failures else None,
    )


def suite_norm_multiplicativity(trials: int, rng: np.random.Generator) -> SuiteResult:
    def draw(level, count):
        return _random_units(rng, count, 2 ** level), _random_units(rng, count, 2 ** level)

    def errors(level, a, b):
        prod = mul_coeffs(a, b, level)
        return np.abs(np.sum(prod * prod, axis=-1) - 1.0)

    return _per_level(
        "algebra_norm_multiplicativity", trials, IDENTITY_TOL, draw, errors, _coeff_text
    )


def suite_alternativity(trials: int, rng: np.random.Generator) -> SuiteResult:
    a = _random_units(rng, trials)
    b = _random_units(rng, trials)
    aa = mul_coeffs(a, a, 3)
    ab = mul_coeffs(a, b, 3)
    ba = mul_coeffs(b, a, 3)
    left = np.abs(mul_coeffs(aa, b, 3) - mul_coeffs(a, ab, 3)).max(axis=-1)
    mid = np.abs(mul_coeffs(ab, a, 3) - mul_coeffs(a, ba, 3)).max(axis=-1)
    right = np.abs(mul_coeffs(ba, a, 3) - mul_coeffs(b, aa, 3)).max(axis=-1)
    errors = np.maximum(np.maximum(left, mid), right)
    return _result(
        "algebra_alternativity", errors, ABS_TOL,
        lambda k: _coeff_text(a[k], b[k]),
    )


def suite_conj_anti_automorphism(trials: int, rng: np.random.Generator) -> SuiteResult:
    a = _random_units(rng, trials)
    b = _random_units(rng, trials)
    lhs = conj_coeffs(mul_coeffs(a, b, 3))
    rhs = mul_coeffs(conj_coeffs(b), conj_coeffs(a), 3)
    errors = np.abs(lhs - rhs).max(axis=-1)
    return _result(
        "algebra_conj_anti_automorphism", errors, ABS_TOL,
        lambda k: _coeff_text(a[k], b[k]),
    )


def suite_inverse_cancellation(trials: int, rng: np.random.Generator) -> SuiteResult:
    x = _random_units(rng, trials)
    y = _random_units(rng, trials)
    # y is unit, so y^-1 = y*.
    errors = np.abs(mul_coeffs(mul_coeffs(x, y, 3), conj_coeffs(y), 3) - x).max(axis=-1)
    return _result(
        "algebra_inverse_cancellation", errors, ABS_TOL,
        lambda k: _coeff_text(x[k], y[k]),
    )


# ---------------------------------------------------------------------------
# Map suites
# ---------------------------------------------------------------------------

def suite_base_normalization(trials: int, rng: np.random.Generator) -> SuiteResult:
    def errors(n, amps):
        coords = state_coords(amps)
        return np.abs(np.sum(coords * coords, axis=-1) - 1.0)

    return _per_level(
        "base_normalization", trials, ABS_TOL,
        lambda n, count: (haar_amplitudes(rng, n, count),), errors, format_amplitudes,
    )


def suite_stereographic_h1_consistency(trials: int, rng: np.random.Generator) -> SuiteResult:
    def errors(n, amps):
        first, second = pack_coeffs(amps)
        projected, projected_at_infinity = stereographic_coeffs(base_coords(first, second, n))
        ratio, ratio_at_infinity = ratio_coeffs(first, second, n)
        return np.where(
            projected_at_infinity | ratio_at_infinity,
            projected_at_infinity != ratio_at_infinity,
            np.abs(projected - ratio).max(axis=-1),
        )

    return _per_level(
        "stereographic_h1_consistency", trials, MAP_CONSISTENCY_TOL,
        lambda n, count: (haar_amplitudes(rng, n, count),), errors, format_amplitudes,
    )


def suite_fibration_round_trip(trials: int, rng: np.random.Generator) -> SuiteResult:
    bases = _random_units(rng, trials, 9)
    fibers = _random_units(rng, trials)
    first, second = inverse_coeffs(bases, fibers)
    errors = np.abs(base_coords(first, second, 3) - bases).max(axis=-1)
    return _result(
        "fibration_round_trip", _unit_pair_errors(errors, first, second), MAP_CONSISTENCY_TOL,
        lambda k: _coeff_text(bases[k], fibers[k]),
    )


def suite_fiber_invariance(trials: int, rng: np.random.Generator) -> SuiteResult:
    amps = haar_amplitudes(rng, 3, trials)
    gauges = _random_units(rng, trials)
    y, at_infinity = ratio_coeffs(*pack_coeffs(amps), 3)
    first = mul_coeffs(y, gauges, 3)
    scale = np.sqrt(row_dot(first, first) + row_dot(gauges, gauges))[:, None]
    first, second = first / scale, gauges / scale
    y_moved, moved_at_infinity = ratio_coeffs(first, second, 3)
    errors = np.where(moved_at_infinity, 1.0, np.abs(y_moved - y).max(axis=-1))
    errors = np.where(at_infinity, 0.0, _unit_pair_errors(errors, first, second))
    return _result(
        "fiber_invariance", errors, IDENTITY_TOL,
        lambda k: format_amplitudes(amps[k]),
    )


def suite_gauge_invariance(trials: int, rng: np.random.Generator) -> SuiteResult:
    """Phase-invariant base content: the (X_1, X_2, X_last) Bloch slots (the
    whole base point at n = 1) and the entanglement norm E.

    The remaining coordinates rotate pairwise under a global phase (the
    phase acts by left multiplication, the fiber by right), so only their
    squared norm is invariant.
    """
    def draw(n, count):
        return haar_amplitudes(rng, n, count), np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count))

    def errors(n, amps, phases):
        coords = state_coords(amps)
        rotated = state_coords(amps * phases[:, None])
        bloch = np.abs(bloch_slots(rotated) - bloch_slots(coords)).max(axis=-1)
        return np.maximum(bloch, np.abs(coords_entanglement(rotated) - coords_entanglement(coords)))

    return _per_level(
        "gauge_invariance", trials, ABS_TOL, draw, errors,
        lambda amps, _: format_amplitudes(amps),
    )


def _random_products(rng: np.random.Generator, trials: int) -> np.ndarray:
    """Haar-random single qubits tensored with Haar-random 2-qubit states."""
    one = haar_amplitudes(rng, 1, trials)
    return tensor_amplitudes(one, haar_amplitudes(rng, 2, trials))


def suite_separability_sensitivity(trials: int, rng: np.random.Generator) -> SuiteResult:
    amps = _random_products(rng, trials)
    coords = state_coords(amps)
    middle = np.abs(coords[:, 2:8]).max(axis=-1)
    e_values = coords_entanglement(coords)
    errors = np.maximum(middle, e_values)
    # 2-qubit analogue: products of single qubits keep X3, X4 at zero.
    one = haar_amplitudes(rng, 1, trials)
    qcoords = state_coords(tensor_amplitudes(one, haar_amplitudes(rng, 1, trials)))
    errors = np.maximum(errors, np.abs(qcoords[:, 2:4]).max(axis=-1))
    return _result(
        "separability_sensitivity", errors, IDENTITY_TOL,
        lambda k: format_amplitudes(amps[k]),
    )


def suite_e_equals_4_det_rho(trials: int, rng: np.random.Generator) -> SuiteResult:
    amps = haar_amplitudes(rng, 3, trials)
    errors = np.zeros(trials)
    # One cut at a time, which keeps this suite's memory at a third of a
    # batch over all three cuts.
    for cut in CUTS:
        view = cut_matrix(amps, cut)
        e_values = coords_entanglement(state_coords(view.reshape(-1, 8)))
        rho = np.einsum("bij,bkj->bik", view, view.conj())
        errors = np.maximum(errors, np.abs(e_values - 4.0 * det2(rho).real))
    return _result(
        "e_equals_4_det_rho", errors, IDENTITY_TOL,
        lambda k: format_amplitudes(amps[k]),
    )


def suite_minor_measure_equals_e_avg(trials: int, rng: np.random.Generator) -> SuiteResult:
    amps = haar_amplitudes(rng, 3, trials)
    e_sum = np.zeros(trials)
    measure = np.zeros(trials)
    # One cut at a time, which keeps the memory as low as in e_equals_4_det_rho.
    # minor_sum reads the normalization constant at call time: the suite is
    # the canary for a miscalibrated constant.
    for cut in CUTS:
        view = cut_matrix(amps, cut)
        e_sum += coords_entanglement(state_coords(view.reshape(-1, 8)))
        measure += entanglement.minor_sum(matrix_minors(view)[:, None])
    errors = np.abs(measure - e_sum / 3.0)
    for k in range(min(trials, 100)):
        state = PureState(amps[k])
        errors[k] = max(
            errors[k],
            abs(entanglement.minor_measure(state) - entanglement.e_avg(state)),
        )
    return _result(
        "minor_measure_equals_e_avg", errors, IDENTITY_TOL,
        lambda k: format_amplitudes(amps[k]),
    )


def suite_bloch_ball_containment(trials: int, rng: np.random.Generator) -> SuiteResult:
    amps = haar_amplitudes(rng, 3, trials)
    radius_sq = np.sum(bloch_slots(state_coords(amps)) ** 2, -1)
    errors = np.maximum(radius_sq - 1.0, 0.0)
    # Separable states must sit on the boundary sphere.
    product_sq = np.sum(bloch_slots(state_coords(_random_products(rng, trials))) ** 2, -1)
    boundary = np.abs(product_sq - 1.0)
    errors = np.maximum(errors, np.where(boundary > IDENTITY_TOL, boundary, 0.0))
    return _result(
        "bloch_ball_containment", errors, ABS_TOL,
        lambda k: format_amplitudes(amps[k]),
    )


SUITES: tuple[tuple[str, Callable[[int, np.random.Generator], SuiteResult]], ...] = (
    ("algebra_cycle_table", suite_algebra_cycle_table),
    ("algebra_norm_multiplicativity", suite_norm_multiplicativity),
    ("algebra_alternativity", suite_alternativity),
    ("algebra_conj_anti_automorphism", suite_conj_anti_automorphism),
    ("algebra_inverse_cancellation", suite_inverse_cancellation),
    ("base_normalization", suite_base_normalization),
    ("stereographic_h1_consistency", suite_stereographic_h1_consistency),
    ("fibration_round_trip", suite_fibration_round_trip),
    ("fiber_invariance", suite_fiber_invariance),
    ("gauge_invariance", suite_gauge_invariance),
    ("separability_sensitivity", suite_separability_sensitivity),
    ("e_equals_4_det_rho", suite_e_equals_4_det_rho),
    ("minor_measure_equals_e_avg", suite_minor_measure_equals_e_avg),
    ("bloch_ball_containment", suite_bloch_ball_containment),
)


def run_all(trials: int, seed: int) -> list[SuiteResult]:
    """Run every suite with independent deterministic substreams."""
    results = []
    for offset, (_, fn) in enumerate(SUITES):
        results.append(fn(trials, np.random.default_rng([seed, offset])))
    return results
