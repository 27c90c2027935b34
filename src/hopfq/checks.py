"""Self-test suites behind the ``check`` command.

Each suite draws its own deterministic sample, exercises one family of
identities, and reports trial/failure counts plus the first (worst)
counterexample.  Heavy suites run batched through the same coefficient
kernels the public API uses; map round trips go through the scalar API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import entanglement
from .division_algebra import CYCLES, HyperComplex, conj_coeffs, mul_coeffs
from .hopf_maps import (
    BasePoint,
    base_coords,
    h1_value,
    hopf_base,
    hopf_inverse,
    is_infinite,
    stereographic,
)
from .qubit_states import (
    AlgebraPair,
    PureState,
    cut_matrix,
    det2,
    format_amplitudes,
    matrix_minors,
    pack_coeffs,
    unpack,
)
from .tolerances import ABS_TOL, IDENTITY_TOL, MAP_CONSISTENCY_TOL


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


def _normalized_rows(z: np.ndarray) -> np.ndarray:
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def _random_octonions(rng: np.random.Generator, count: int) -> np.ndarray:
    return _normalized_rows(rng.standard_normal((count, 8)))


def _random_amplitudes(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    z = rng.standard_normal((count, 2 ** n)) + 1j * rng.standard_normal((count, 2 ** n))
    return _normalized_rows(z)


def _coeff_counterexample(errors: np.ndarray, *arrays: np.ndarray) -> str:
    worst = int(np.argmax(errors))
    parts = [np.array2string(a[worst], separator=", ", precision=17) for a in arrays]
    return " ; ".join(parts)


def _state_counterexample(errors: np.ndarray, amplitudes: np.ndarray) -> str:
    worst = int(np.argmax(errors))
    return format_amplitudes(amplitudes[worst])


def _result(name, errors, tol, counterexample_fn) -> SuiteResult:
    errors = np.asarray(errors, dtype=float)
    failures = int(np.count_nonzero(errors > tol))
    return SuiteResult(
        name=name,
        trials=int(errors.shape[0]),
        failures=failures,
        max_error=float(errors.max()) if errors.size else 0.0,
        counterexample=counterexample_fn(errors) if failures else None,
    )


# ---------------------------------------------------------------------------
# Algebra suites
# ---------------------------------------------------------------------------

def suite_algebra_cycle_table(trials: int, rng: np.random.Generator) -> SuiteResult:
    """All 42 signed unit products implied by the seven cycles, plus squares."""
    failures = []
    count = 0
    for a, b, c in CYCLES:
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            for left, right, sign in ((i, j, 1.0), (j, i, -1.0)):
                count += 1
                got = HyperComplex.unit(3, left) * HyperComplex.unit(3, right)
                want = sign * HyperComplex.unit(3, k)
                if np.abs(got.coeffs - want.coeffs).max() != 0.0:
                    failures.append(f"i{left}*i{right} gave {got}")
    for m in range(1, 8):
        count += 1
        sq = HyperComplex.unit(3, m) * HyperComplex.unit(3, m)
        if np.abs(sq.coeffs - (-HyperComplex.one(3)).coeffs).max() != 0.0:
            failures.append(f"i{m}^2 gave {sq}")
    return SuiteResult(
        name="algebra_cycle_table",
        trials=count,
        failures=len(failures),
        max_error=0.0 if not failures else 1.0,
        counterexample=failures[0] if failures else None,
    )


def suite_norm_multiplicativity(trials: int, rng: np.random.Generator) -> SuiteResult:
    errors = np.zeros(trials)
    inputs = np.zeros((trials, 16))
    per_level = np.array_split(np.arange(trials), 3)
    for level, idx in zip((1, 2, 3), per_level):
        if idx.size == 0:
            continue
        dim = 2 ** level
        a = _normalized_rows(rng.standard_normal((idx.size, dim)))
        b = _normalized_rows(rng.standard_normal((idx.size, dim)))
        prod = mul_coeffs(a, b, level)
        errors[idx] = np.abs(np.sum(prod * prod, axis=-1) - 1.0)
        inputs[idx, :dim] = a
        inputs[idx, 8 : 8 + dim] = b
    return _result(
        "algebra_norm_multiplicativity", errors, IDENTITY_TOL,
        lambda e: _coeff_counterexample(e, inputs),
    )


def suite_alternativity(trials: int, rng: np.random.Generator) -> SuiteResult:
    a = _random_octonions(rng, trials)
    b = _random_octonions(rng, trials)
    aa = mul_coeffs(a, a, 3)
    ab = mul_coeffs(a, b, 3)
    ba = mul_coeffs(b, a, 3)
    left = np.abs(mul_coeffs(aa, b, 3) - mul_coeffs(a, ab, 3)).max(axis=-1)
    mid = np.abs(mul_coeffs(ab, a, 3) - mul_coeffs(a, ba, 3)).max(axis=-1)
    right = np.abs(mul_coeffs(ba, a, 3) - mul_coeffs(b, aa, 3)).max(axis=-1)
    errors = np.maximum(np.maximum(left, mid), right)
    return _result(
        "algebra_alternativity", errors, ABS_TOL,
        lambda e: _coeff_counterexample(e, a, b),
    )


def suite_conj_anti_automorphism(trials: int, rng: np.random.Generator) -> SuiteResult:
    a = _random_octonions(rng, trials)
    b = _random_octonions(rng, trials)
    lhs = conj_coeffs(mul_coeffs(a, b, 3))
    rhs = mul_coeffs(conj_coeffs(b), conj_coeffs(a), 3)
    errors = np.abs(lhs - rhs).max(axis=-1)
    return _result(
        "algebra_conj_anti_automorphism", errors, ABS_TOL,
        lambda e: _coeff_counterexample(e, a, b),
    )


def suite_inverse_cancellation(trials: int, rng: np.random.Generator) -> SuiteResult:
    x = _random_octonions(rng, trials)
    y = _random_octonions(rng, trials)
    # y is unit, so y^-1 = y*.
    errors = np.abs(mul_coeffs(mul_coeffs(x, y, 3), conj_coeffs(y), 3) - x).max(axis=-1)
    return _result(
        "algebra_inverse_cancellation", errors, ABS_TOL,
        lambda e: _coeff_counterexample(e, x, y),
    )


# ---------------------------------------------------------------------------
# Map suites
# ---------------------------------------------------------------------------

def suite_base_normalization(trials: int, rng: np.random.Generator) -> SuiteResult:
    errors = np.zeros(trials)
    amps_record = np.zeros((trials, 8), dtype=complex)
    per_level = np.array_split(np.arange(trials), 3)
    for n, idx in zip((1, 2, 3), per_level):
        if idx.size == 0:
            continue
        amps = _random_amplitudes(rng, n, idx.size)
        first, second = pack_coeffs(amps)
        coords = base_coords(first, second, n)
        errors[idx] = np.abs(np.sum(coords * coords, axis=-1) - 1.0)
        amps_record[idx, : 2 ** n] = amps
    return _result(
        "base_normalization", errors, ABS_TOL,
        lambda e: _state_counterexample(e, amps_record),
    )


def suite_stereographic_h1_consistency(trials: int, rng: np.random.Generator) -> SuiteResult:
    errors = []
    amplitudes = []
    for n in (1, 2, 3):
        for amp in _random_amplitudes(rng, n, max(trials // 3, 1)):
            state = PureState(amp)
            projected = stereographic(hopf_base(state))
            ratio = h1_value(state)
            if is_infinite(projected) or is_infinite(ratio):
                err = 0.0 if projected is ratio else 1.0
            else:
                err = float(np.abs(projected.coeffs - ratio.coeffs).max())
            errors.append(err)
            amplitudes.append(amp)
    errors = np.array(errors)
    return _result(
        "stereographic_h1_consistency", errors, MAP_CONSISTENCY_TOL,
        lambda e: format_amplitudes(amplitudes[int(np.argmax(e))]),
    )


def suite_fibration_round_trip(trials: int, rng: np.random.Generator) -> SuiteResult:
    bases = _normalized_rows(rng.standard_normal((trials, 9)))
    fibers = _random_octonions(rng, trials)
    errors = np.zeros(trials)
    for k in range(trials):
        base = BasePoint(bases[k])
        state = hopf_inverse(base, HyperComplex(3, fibers[k]))
        errors[k] = np.abs(hopf_base(state).coords - bases[k]).max()
    return _result(
        "fibration_round_trip", errors, MAP_CONSISTENCY_TOL,
        lambda e: _coeff_counterexample(e, bases, fibers),
    )


def suite_fiber_invariance(trials: int, rng: np.random.Generator) -> SuiteResult:
    amps = _random_amplitudes(rng, 3, trials)
    gauges = _random_octonions(rng, trials)
    errors = np.zeros(trials)
    for k in range(trials):
        y = h1_value(PureState(amps[k]))
        if is_infinite(y):
            continue
        d = HyperComplex(3, gauges[k])
        first = y * d
        scale = np.sqrt(first.norm_sq() + d.norm_sq())
        moved = unpack(AlgebraPair(first / scale, d / scale))
        y_moved = h1_value(moved)
        errors[k] = (
            np.abs(y_moved.coeffs - y.coeffs).max() if not is_infinite(y_moved) else 1.0
        )
    return _result(
        "fiber_invariance", errors, IDENTITY_TOL,
        lambda e: _state_counterexample(e, amps),
    )


def suite_gauge_invariance(trials: int, rng: np.random.Generator) -> SuiteResult:
    """Phase-invariant base content: the full Bloch vector at n = 1, and the
    (X_1, X_2, X_last) Bloch slots plus the entanglement norm at n = 2, 3.

    The remaining coordinates rotate pairwise under a global phase (the
    phase acts by left multiplication, the fiber by right), so only their
    squared norm is invariant.
    """
    errors = np.zeros(trials)
    amps_record = np.zeros((trials, 8), dtype=complex)
    per_level = np.array_split(np.arange(trials), 3)
    for n, idx in zip((1, 2, 3), per_level):
        if idx.size == 0:
            continue
        amps = _random_amplitudes(rng, n, idx.size)
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, idx.size))
        coords = base_coords(*pack_coeffs(amps), n)
        rotated = base_coords(*pack_coeffs(amps * phases[:, None]), n)
        if n == 1:
            err = np.abs(rotated - coords).max(axis=-1)
        else:
            bloch = np.abs(rotated[:, [0, 1, -1]] - coords[:, [0, 1, -1]]).max(axis=-1)
            e_delta = np.abs(
                np.sum(rotated[:, 2:-1] ** 2, axis=-1)
                - np.sum(coords[:, 2:-1] ** 2, axis=-1)
            )
            err = np.maximum(bloch, e_delta)
        errors[idx] = err
        amps_record[idx, : 2 ** n] = amps
    return _result(
        "gauge_invariance", errors, ABS_TOL,
        lambda e: _state_counterexample(e, amps_record),
    )


def _random_products(rng: np.random.Generator, trials: int) -> np.ndarray:
    """Haar-random single qubits tensored with Haar-random 2-qubit states."""
    one = _random_amplitudes(rng, 1, trials)
    two = _random_amplitudes(rng, 2, trials)
    return np.einsum("bi,bj->bij", one, two).reshape(trials, 8)


def suite_separability_sensitivity(trials: int, rng: np.random.Generator) -> SuiteResult:
    amps = _random_products(rng, trials)
    first, second = pack_coeffs(amps)
    coords = base_coords(first, second, 3)
    middle = np.abs(coords[:, 2:8]).max(axis=-1)
    e_values = np.sum(coords[:, 2:8] ** 2, axis=-1)
    errors = np.maximum(middle, e_values)
    # 2-qubit analogue: products of single qubits keep X3, X4 at zero.
    pair_amps = np.einsum(
        "bi,bj->bij", _random_amplitudes(rng, 1, trials), _random_amplitudes(rng, 1, trials)
    ).reshape(trials, 4)
    qfirst, qsecond = pack_coeffs(pair_amps)
    qcoords = base_coords(qfirst, qsecond, 2)
    errors = np.maximum(errors, np.abs(qcoords[:, 2:4]).max(axis=-1))
    return _result(
        "separability_sensitivity", errors, IDENTITY_TOL,
        lambda e: _state_counterexample(e, amps),
    )


def suite_e_equals_4_det_rho(trials: int, rng: np.random.Generator) -> SuiteResult:
    amps = _random_amplitudes(rng, 3, trials)
    errors = np.zeros(trials)
    for cut in entanglement.CUTS:
        view = cut_matrix(amps, cut)
        flat = view.reshape(-1, 8)
        first, second = pack_coeffs(flat)
        coords = base_coords(first, second, 3)
        e_values = np.sum(coords[:, 2:8] ** 2, axis=-1)
        rho = np.einsum("bij,bkj->bik", view, view.conj())
        errors = np.maximum(errors, np.abs(e_values - 4.0 * det2(rho).real))
    return _result(
        "e_equals_4_det_rho", errors, IDENTITY_TOL,
        lambda e: _state_counterexample(e, amps),
    )


def suite_minor_measure_equals_e_avg(trials: int, rng: np.random.Generator) -> SuiteResult:
    amps = _random_amplitudes(rng, 3, trials)
    e_sum = np.zeros(trials)
    minor_sum = np.zeros(trials)
    for cut in entanglement.CUTS:
        view = cut_matrix(amps, cut)
        flat = view.reshape(-1, 8)
        first, second = pack_coeffs(flat)
        coords = base_coords(first, second, 3)
        e_sum += np.sum(coords[:, 2:8] ** 2, axis=-1)
        for minor in matrix_minors(view).T:
            minor_sum += 2.0 * np.abs(minor) ** 2
    # The normalization constant is looked up at call time on purpose: the
    # suite is the canary for a miscalibrated constant.
    errors = np.abs(entanglement.MINOR_SUM_NORMALIZATION * minor_sum - e_sum / 3.0)
    for k in range(min(trials, 100)):
        state = PureState(amps[k])
        errors[k] = max(
            errors[k],
            abs(entanglement.minor_measure(state) - entanglement.e_avg(state)),
        )
    return _result(
        "minor_measure_equals_e_avg", errors, IDENTITY_TOL,
        lambda e: _state_counterexample(e, amps),
    )


def suite_bloch_ball_containment(trials: int, rng: np.random.Generator) -> SuiteResult:
    amps = _random_amplitudes(rng, 3, trials)
    first, second = pack_coeffs(amps)
    coords = base_coords(first, second, 3)
    radius_sq = coords[:, 0] ** 2 + coords[:, 1] ** 2 + coords[:, 8] ** 2
    errors = np.maximum(radius_sq - 1.0, 0.0)
    # Separable states must sit on the boundary sphere.
    product_amps = _random_products(rng, trials)
    pfirst, psecond = pack_coeffs(product_amps)
    pcoords = base_coords(pfirst, psecond, 3)
    boundary = np.abs(
        pcoords[:, 0] ** 2 + pcoords[:, 1] ** 2 + pcoords[:, 8] ** 2 - 1.0
    )
    errors = np.maximum(errors, np.where(boundary > IDENTITY_TOL, boundary, 0.0))
    return _result(
        "bloch_ball_containment", errors, ABS_TOL,
        lambda e: _state_counterexample(e, amps),
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

# Scalar-loop suites are capped so `check --trials 100000` stays fast; the
# batched suites honor the full count.
_SCALAR_SUITES = {"stereographic_h1_consistency", "fibration_round_trip", "fiber_invariance"}
_SCALAR_CAP = 20000


def run_all(trials: int, seed: int) -> list[SuiteResult]:
    """Run every suite with independent deterministic substreams."""
    results = []
    for offset, (name, fn) in enumerate(SUITES):
        rng = np.random.default_rng([seed, offset])
        count = min(trials, _SCALAR_CAP) if name in _SCALAR_SUITES else trials
        results.append(fn(count, rng))
    return results
