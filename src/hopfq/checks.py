"""Self-test suites behind the ``check`` command.

Each suite draws its own deterministic sample, exercises one family of
identities, and reports trial/failure counts plus the first (worst)
counterexample.  Every suite runs batched through the coefficient kernels
that the scalar public API wraps, and ``check --trials N`` runs N trials in
each but ``algebra_cycle_table``, which always checks its 49 products.  The
two per-cut suites take their rows in blocks of MUL_BLOCK through the
library's own cut path: each block's ``cut_stack``, built once, feeds
``stack_entanglement``, ``reduced_density`` and ``minor_sum``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import entanglement
from .division_algebra import CYCLES, MUL_BLOCK, conj_coeffs, mul_coeffs, row_dot
from .hopf_maps import (
    base_coords, bloch_slots, coords_entanglement, inverse_coeffs, ratio_coeffs, state_coords,
    stereographic_coeffs,
)
from .qubit_states import (
    PureState,
    cut_stack,
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
    wide = {"max_line_width": sys.maxsize, "separator": ", ", "precision": 17}  # one line
    return " ; ".join(np.array2string(row, **wide) for row in rows)


def _unit_pair_errors(errors: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Errors that also count the deviation of |o1|^2 + |o2|^2 from 1, and
    are infinite where it exceeds STATE_NORM_TOL (no state has that pair)."""
    deviation = np.abs(row_dot(first, first) + row_dot(second, second) - 1.0)
    return np.where(deviation <= STATE_NORM_TOL, np.maximum(errors, deviation), np.inf)


def _result(name, errors, tol, describe_row) -> SuiteResult:
    """Suite result whose counterexample is ``describe_row(k)`` of the worst row k."""
    errors = np.asarray(errors, dtype=float)
    failures = int(np.count_nonzero(~(errors <= tol)))  # a NaN error fails
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
    ``errors_of(*inputs)`` their errors, and the counterexample is
    ``describe(*row)`` of the worst row's own inputs.
    """
    inputs, errors = [], []
    for level in (1, 2, 3):
        count = (trials + 3 - level) // 3  # the first trials % 3 levels take one more
        inputs.append(draw(level, count))
        errors.append(errors_of(*inputs[-1]))

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
    expected = []  # (l, r, i_l i_r), reported cycle by cycle, squares last
    for a, b, c in CYCLES:
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            expected += [(i, j, eye[k]), (j, i, -eye[k])]
    expected += [(m, m, -eye[0]) for m in range(1, 8)]
    left, right, want = (np.array(column) for column in zip(*expected))
    products = mul_coeffs(eye[:, None], eye[None])[left, right]  # row k: i_left[k] i_right[k]

    def counterexample(row):
        name = f"i{left[row]}^2" if left[row] == right[row] else f"i{left[row]}*i{right[row]}"
        return f"{name} gave {_coeff_text(products[row])}"

    errors = np.abs(products - want).max(axis=-1)
    return _result("algebra_cycle_table", errors, 0.0, counterexample)


def suite_norm_multiplicativity(trials: int, rng: np.random.Generator) -> SuiteResult:
    def draw(level, count):
        return _random_units(rng, count, 2 ** level), _random_units(rng, count, 2 ** level)

    def errors(a, b):
        prod = mul_coeffs(a, b)
        return np.abs(np.sum(prod * prod, axis=-1) - 1.0)

    return _per_level(
        "algebra_norm_multiplicativity", trials, IDENTITY_TOL, draw, errors, _coeff_text
    )


def suite_alternativity(trials: int, rng: np.random.Generator) -> SuiteResult:
    a = _random_units(rng, trials)
    b = _random_units(rng, trials)
    aa = mul_coeffs(a, a)
    ab = mul_coeffs(a, b)
    ba = mul_coeffs(b, a)
    left = np.abs(mul_coeffs(aa, b) - mul_coeffs(a, ab)).max(axis=-1)
    mid = np.abs(mul_coeffs(ab, a) - mul_coeffs(a, ba)).max(axis=-1)
    right = np.abs(mul_coeffs(ba, a) - mul_coeffs(b, aa)).max(axis=-1)
    errors = np.maximum(np.maximum(left, mid), right)
    return _result(
        "algebra_alternativity", errors, ABS_TOL,
        lambda k: _coeff_text(a[k], b[k]),
    )


def suite_conj_anti_automorphism(trials: int, rng: np.random.Generator) -> SuiteResult:
    a = _random_units(rng, trials)
    b = _random_units(rng, trials)
    lhs = conj_coeffs(mul_coeffs(a, b))
    rhs = mul_coeffs(conj_coeffs(b), conj_coeffs(a))
    errors = np.abs(lhs - rhs).max(axis=-1)
    return _result(
        "algebra_conj_anti_automorphism", errors, ABS_TOL,
        lambda k: _coeff_text(a[k], b[k]),
    )


def suite_inverse_cancellation(trials: int, rng: np.random.Generator) -> SuiteResult:
    x = _random_units(rng, trials)
    y = _random_units(rng, trials)
    # y is unit, so y^-1 = y*.
    errors = np.abs(mul_coeffs(mul_coeffs(x, y), conj_coeffs(y)) - x).max(axis=-1)
    return _result(
        "algebra_inverse_cancellation", errors, ABS_TOL,
        lambda k: _coeff_text(x[k], y[k]),
    )


# ---------------------------------------------------------------------------
# Map suites
# ---------------------------------------------------------------------------

def suite_base_normalization(trials: int, rng: np.random.Generator) -> SuiteResult:
    def errors(amps):
        coords = state_coords(amps)
        return np.abs(np.sum(coords * coords, axis=-1) - 1.0)

    return _per_level(
        "base_normalization", trials, ABS_TOL,
        lambda n, count: (haar_amplitudes(rng, n, count),), errors, format_amplitudes,
    )


def suite_stereographic_h1_consistency(trials: int, rng: np.random.Generator) -> SuiteResult:
    def errors(amps):
        first, second = pack_coeffs(amps)
        projected, projected_at_infinity = stereographic_coeffs(base_coords(first, second))
        ratio, ratio_at_infinity = ratio_coeffs(first, second)
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
    errors = np.abs(base_coords(first, second) - bases).max(axis=-1)
    return _result(
        "fibration_round_trip", _unit_pair_errors(errors, first, second), MAP_CONSISTENCY_TOL,
        lambda k: _coeff_text(bases[k], fibers[k]),
    )


def suite_fiber_invariance(trials: int, rng: np.random.Generator) -> SuiteResult:
    amps = haar_amplitudes(rng, 3, trials)
    gauges = _random_units(rng, trials)
    y, at_infinity = ratio_coeffs(*pack_coeffs(amps))
    first = mul_coeffs(y, gauges)
    scale = np.sqrt(row_dot(first, first) + row_dot(gauges, gauges))[:, None]
    first, second = first / scale, gauges / scale
    y_moved, moved_at_infinity = ratio_coeffs(first, second)
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

    def errors(amps, phases):
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


def _per_cut_errors(amps: np.ndarray, errors_of) -> np.ndarray:
    """``errors_of(cut_stack(block))`` over the rows of 3-qubit amplitudes in
    blocks of MUL_BLOCK, so that no stack of all the rows' cuts is ever
    held; each row's error is the one a whole batch gives."""
    blocks = np.split(amps, range(MUL_BLOCK, amps.shape[0], MUL_BLOCK))
    return np.concatenate([errors_of(cut_stack(block)) for block in blocks])


def suite_e_equals_4_det_rho(trials: int, rng: np.random.Generator) -> SuiteResult:
    amps = haar_amplitudes(rng, 3, trials)

    def errors_of(stack):
        det_rho = det2(entanglement.reduced_density(stack)).real
        return np.abs(entanglement.stack_entanglement(stack) - 4.0 * det_rho).max(axis=-1)

    errors = _per_cut_errors(amps, errors_of)
    return _result(
        "e_equals_4_det_rho", errors, IDENTITY_TOL,
        lambda k: format_amplitudes(amps[k]),
    )


def suite_minor_measure_equals_e_avg(trials: int, rng: np.random.Generator) -> SuiteResult:
    amps = haar_amplitudes(rng, 3, trials)

    # minor_sum reads the normalization constant at call time: the suite is
    # the canary for a miscalibrated constant.
    def errors_of(stack):
        e_avg = np.mean(entanglement.stack_entanglement(stack), axis=-1)
        return np.abs(entanglement.minor_sum(matrix_minors(stack)) - e_avg)

    errors = _per_cut_errors(amps, errors_of)
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
