"""The three Hopf fibrations as computable maps.

A packed pair (o1, o2) with |o1|^2 + |o2|^2 = 1 is sent to a base point on
S^2, S^4 or S^8 through the coordinates

    X_1     = 2 S(o1 o2*)                     (scalar part)
    X_2     = -2 [o1 o2*]_1                   (i1 coefficient, negated)
    X_{m+1} = 2 [o1 o2*]_m    for m = 2..7    (i_m coefficients)
    X_last  = |o1|^2 - |o2|^2

so that (X_1, X_2, X_last) is always the Bloch vector of the reduced
first-qubit density matrix and the middle coordinates vanish exactly on
states whose first qubit separates.  The ratio value o1 o2^{-1} (infinity
when o2 = 0) is the same data in stereographic form; ``stereographic`` and
``stereographic_inverse`` convert between the two with the matching sign
convention, so stereographic(hopf_base(s)) == h1_value(s) at every level.

The inverse map rebuilds a state from a base point and a unit fiber o:

    (cos(W) exp(+T theta/2) o,  sin(W) exp(-T theta/2) o)

with cos(theta) the scalar part of the normalized ratio value, T its
normalized vector part (i1 when the vector part vanishes), and
cos(W) = sqrt((1 + X_last)/2).

Each map is written once, as a kernel on coefficient arrays that
broadcasts over leading axes (``base_coords``, ``ratio_coeffs``,
``stereographic_coeffs``, ``inverse_coeffs``); the functions on
``PureState`` and ``BasePoint`` wrap it.  The fiber chart, the inverse map
and the descent also compute on arrays (``pack_coeffs`` and the
``division_algebra`` kernels) and build ``PureState``, ``BasePoint`` and
``HyperComplex`` values only for what they return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .division_algebra import (
    LEVELS, HyperComplex, conj_coeffs, dim_of, exp_imaginary_coeffs, mul_coeffs, polar_coeffs,
    row_dot,
)
from .errors import ContractViolationError, SeparabilityError
from .qubit_states import PureState, first_qubit_matrix, pack_coeffs, split_residual, unpack_coeffs
from .tolerances import ABS_TOL, AXIS_TOL, INFINITY_NORM_SQ, SEPARABILITY_TOL, UNIT_INPUT_TOL

_DIM_TO_LEVEL = {dim_of(level) + 1: level for level in LEVELS}


class BasePoint:
    """Unit vector of 3, 5 or 9 real coordinates on the fibration base."""

    __slots__ = ("_coords",)

    def __init__(self, coords) -> None:
        arr = np.array(coords, dtype=float)
        if arr.ndim != 1 or arr.shape[0] not in _DIM_TO_LEVEL:
            raise ContractViolationError(
                f"base point needs 3, 5 or 9 coordinates, got shape {arr.shape}"
            )
        total = float(arr @ arr)
        if not abs(total - 1.0) <= ABS_TOL:  # also rejects NaN
            raise ContractViolationError(f"coordinates must have unit norm, sum sq = {total!r}")
        arr.setflags(write=False)
        self._coords = arr

    @property
    def coords(self) -> np.ndarray:
        return self._coords

    @property
    def dim(self) -> int:
        return self._coords.shape[0]

    @property
    def level(self) -> int:
        return _DIM_TO_LEVEL[self._coords.shape[0]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, BasePoint):
            return NotImplemented
        return bool(np.array_equal(self._coords, other._coords))

    def __hash__(self) -> int:
        return hash(tuple(self._coords.tolist()))  # 0.0 and -0.0 hash alike

    def __repr__(self) -> str:
        return f"BasePoint({np.array2string(self._coords, separator=', ')})"


class _Infinity:
    """Distinguished point at infinity (image of pairs with o2 = 0)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "infinity"


INFINITY = _Infinity()

ExtendedValue = Union[HyperComplex, _Infinity]


def is_infinite(value: ExtendedValue) -> bool:
    return value is INFINITY


# ---------------------------------------------------------------------------
# Forward maps
# ---------------------------------------------------------------------------

def base_coords(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Base coordinates from packed coefficient arrays; broadcasts batches."""
    p = mul_coeffs(first, conj_coeffs(second))
    dim = p.shape[-1]
    out = np.empty(p.shape[:-1] + (dim + 1,))
    out[..., :dim] = 2.0 * p
    out[..., 1] *= -1.0
    out[..., dim] = np.sum(first * first, axis=-1) - np.sum(second * second, axis=-1)
    return out


def state_coords(amplitudes: np.ndarray) -> np.ndarray:
    """Base coordinates of (..., 2**n) amplitude arrays, for any n; broadcasts."""
    return base_coords(*pack_coeffs(amplitudes))


def bloch_slots(coords: np.ndarray) -> np.ndarray:
    """(X_1, X_2, X_last), the first qubit's Bloch vector, of base coordinates; broadcasts."""
    return np.asarray(coords)[..., [0, 1, -1]]


def hopf_base(state: PureState) -> BasePoint:
    """Base point of the fibration matching the state's qubit count."""
    return BasePoint(state_coords(state.amplitudes))


def coords_entanglement(coords: np.ndarray) -> np.ndarray:
    """X_3^2 + ... + X_{last-1}^2 of base coordinates, clipped to [0, 1] (0 on
    S^2); broadcasts.  It equals 4 det(rho) of the reduced first qubit."""
    middle = np.asarray(coords)[..., 2:-1]
    return np.clip(row_dot(middle, middle), 0.0, 1.0)


def _divide_finite(numerator: np.ndarray, denom, at_infinity) -> np.ndarray:
    """numerator / denom per row, and zeros on the rows at infinity."""
    finite = ~at_infinity[..., None]
    return np.divide(numerator, denom[..., None], out=np.zeros(np.shape(numerator)), where=finite)


def ratio_coeffs(first: np.ndarray, second: np.ndarray):
    """(o1 o2^{-1}, at_infinity) of packed coefficient arrays; broadcasts.  The
    mask is set where |o2|^2 < INFINITY_NORM_SQ, and the value is 0 there."""
    norm_sq = row_dot(second, second)
    at_infinity = norm_sq < INFINITY_NORM_SQ
    inverse = _divide_finite(conj_coeffs(second), norm_sq, at_infinity)
    return mul_coeffs(first, inverse), at_infinity


def h1_value(state: PureState) -> ExtendedValue:
    """Ratio value o1 * o2^{-1} of the packed pair, or INFINITY."""
    value, at_infinity = ratio_coeffs(*pack_coeffs(state.amplitudes))
    return INFINITY if at_infinity else HyperComplex(state.n, value)


def stereographic_coeffs(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(value, at_infinity) as in ``ratio_coeffs``, for the algebra values whose
    inverse stereographic images are the base coordinates; broadcasts."""
    coords = np.asarray(coords, dtype=float)
    head, last = coords[..., :-1], coords[..., -1]
    # Near the pole 1 - X_last keeps only the absolute accuracy of X_last; on
    # the unit sphere it equals (X_1^2 + ... + X_{last-1}^2) / (1 + X_last),
    # which keeps the relative accuracy.  Up to X_last = 1/2 the direct form
    # is as accurate, and it is kept there.  (The maximum keeps the unused
    # branch from dividing by zero at X_last = -1.)
    denom = np.where(last > 0.5, row_dot(head, head) / (1.0 + np.maximum(last, 0.5)), 1.0 - last)
    at_infinity = denom < 2.0 * INFINITY_NORM_SQ
    flipped = head.copy()
    flipped[..., 1] *= -1.0
    return _divide_finite(flipped, denom, at_infinity), at_infinity


def stereographic(base: BasePoint) -> ExtendedValue:
    """Algebra value whose inverse stereographic image is the base point."""
    value, at_infinity = stereographic_coeffs(base.coords)
    return INFINITY if at_infinity else HyperComplex(base.level, value)


def stereographic_inverse(value: ExtendedValue, level: int | None = None) -> BasePoint:
    """Base point of an algebra value (or of INFINITY, given the level).

    This is the normalized base point of the pair (value, 1), and of (1, 0)
    at infinity, so it shares the sign convention of ``base_coords``.
    """
    if is_infinite(value):
        if level is None:
            raise ContractViolationError("level is required to place infinity")
        one = np.eye(dim_of(level))[0]
        first, second = one, np.zeros_like(one)
    elif level not in (None, value.level):
        raise ContractViolationError(f"level {level} contradicts a value of level {value.level}")
    else:
        first, second = value.coeffs, np.eye(value.coeffs.shape[0])[0]
    coords = base_coords(first, second)
    return BasePoint(coords / np.linalg.norm(coords))


# ---------------------------------------------------------------------------
# Inverse map and fiber charts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiberChart:
    """Angles and fiber element that rebuild a 3-qubit state.

    The state is (cos(omega) exp(+axis*theta/2) fiber,
    sin(omega) exp(-axis*theta/2) fiber).
    """

    omega: float
    theta: float
    axis: HyperComplex
    fiber: HyperComplex

    def __post_init__(self) -> None:
        if not -ABS_TOL <= self.omega <= math.pi / 2.0 + ABS_TOL:
            raise ContractViolationError(f"omega {self.omega!r} outside [0, pi/2]")
        if not -ABS_TOL <= self.theta <= math.pi + ABS_TOL:
            raise ContractViolationError(f"theta {self.theta!r} outside [0, pi]")
        axis = self.axis
        if not (abs(axis.scalar_part) <= AXIS_TOL and abs(axis.norm_sq() - 1.0) <= AXIS_TOL):
            raise ContractViolationError("axis must be unit and purely imaginary")
        if not abs(self.fiber.norm_sq() - 1.0) <= UNIT_INPUT_TOL:
            raise ContractViolationError("fiber must be a unit octonion")


def _fiber_pair(cos_w, sin_w, theta, axis: np.ndarray, fiber: np.ndarray):
    """(cos_w exp(+axis theta/2) fiber, sin_w exp(-axis theta/2) fiber) on
    coefficient arrays; cos_w and sin_w broadcast against the results."""
    half = np.asarray(theta) / 2.0
    first = mul_coeffs(exp_imaginary_coeffs(axis, half), fiber)
    second = mul_coeffs(exp_imaginary_coeffs(axis, -half), fiber)
    return cos_w * first, sin_w * second


def inverse_coeffs(coords: np.ndarray, fiber: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Packed pairs (o1, o2) over S^8 base coordinates, gauged by unit fiber
    octonions, and (fiber, 0) at the pole; broadcasts."""
    o = fiber / np.sqrt(row_dot(fiber, fiber))[..., None]
    value, at_infinity = stereographic_coeffs(coords)
    _, theta, axis = polar_coeffs(value)
    last = np.asarray(coords)[..., -1:]
    cos_w = np.sqrt(np.maximum(0.0, (1.0 + last) / 2.0))
    sin_w = np.sqrt(np.maximum(0.0, (1.0 - last) / 2.0))
    first, second = _fiber_pair(cos_w, sin_w, theta, axis, o)
    pole = at_infinity[..., None]
    return np.where(pole, o, first), np.where(pole, 0.0, second)


def hopf_inverse(base: BasePoint, fiber: HyperComplex) -> PureState:
    """State whose base point is ``base``, gauged by the unit fiber octonion."""
    if base.dim != 9:
        raise ContractViolationError("hopf_inverse expects a dim-9 base point")
    if fiber.level != 3:
        raise ContractViolationError("fiber must be an octonion")
    if not abs(fiber.norm_sq() - 1.0) <= UNIT_INPUT_TOL:
        raise ContractViolationError("fiber must be a unit octonion")
    return PureState(unpack_coeffs(*inverse_coeffs(base.coords, fiber.coeffs)))


def fiber_chart(state: PureState) -> FiberChart:
    """Extract (omega, theta, axis, fiber) of a 3-qubit state."""
    if state.n != 3:
        raise ContractViolationError("fiber_chart expects a 3-qubit state")
    o1, o2 = pack_coeffs(state.amplitudes)
    norm1, norm2 = np.sqrt(row_dot(o1, o1)), np.sqrt(row_dot(o2, o2))
    value, at_infinity = ratio_coeffs(o1, o2)
    _, theta, axis = polar_coeffs(value)  # (0, i1) at infinity, where the value is 0
    if at_infinity:
        fiber = o1 / norm1
    else:
        fiber = mul_coeffs(exp_imaginary_coeffs(axis, theta / 2.0), o2 / norm2)
    return FiberChart(
        omega=math.acos(max(-1.0, min(1.0, norm1))), theta=float(theta),
        axis=HyperComplex(3, axis), fiber=HyperComplex(3, fiber),
    )


def state_from_chart(chart: FiberChart) -> PureState:
    """Rebuild the state encoded by a fiber chart."""
    return PureState(unpack_coeffs(*_fiber_pair(
        math.cos(chart.omega), math.sin(chart.omega), chart.theta,
        chart.axis.coeffs, chart.fiber.coeffs,
    )))


# ---------------------------------------------------------------------------
# Fiber decomposition and the iterated chain
# ---------------------------------------------------------------------------

def _split_step(matrix: np.ndarray, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Bloch coordinates, factor amplitudes) of a first-qubit matrix whose
    rows are parallel (within tol), from the state's base coordinates.  The
    factor is the normalized dominant row, phased so its first nonzero
    amplitude is real positive."""
    row = matrix[int(np.argmax(np.linalg.norm(matrix, axis=1)))]
    row = row / np.linalg.norm(row)
    lead = row[np.argmax(np.abs(row) > ABS_TOL)]
    row = row * (abs(lead) / lead)
    bloch = bloch_slots(coords)
    return bloch / np.linalg.norm(bloch), row / np.linalg.norm(row)


def fiber_decompose(
    state: PureState, tol: float = SEPARABILITY_TOL
) -> tuple[BasePoint, PureState]:
    """Split a cut-1 separable 3-qubit state into Bloch point and 2-qubit factor.

    Raises SeparabilityError when any first-cut bilinear residual exceeds
    ``tol``.  The 2-qubit factor is gauge fixed (first nonzero amplitude
    real positive); its tensor product with the Bloch-point qubit matches
    the input up to a global phase.
    """
    if state.n != 3:
        raise ContractViolationError("fiber_decompose expects a 3-qubit state")
    matrix = first_qubit_matrix(state.amplitudes)
    residual = split_residual(matrix)
    if residual > tol:
        raise SeparabilityError(f"state is entangled across cut 1: max residual {residual:.3e}")
    bloch, factor = _split_step(matrix, state_coords(state.amplitudes))
    return BasePoint(bloch), PureState(factor)


@dataclass(frozen=True)
class ChainStage:
    """One stage of the iterated fibration descent."""

    level: int
    base: BasePoint
    e_value: float
    separable: bool
    descended: bool


@dataclass(frozen=True)
class IteratedReport:
    """Stages of the descent plus the Bloch points it produced."""

    stages: tuple[ChainStage, ...]
    bloch_points: tuple[BasePoint, ...]
    fully_separable: bool


def iterated_analysis(state: PureState, tol: float = SEPARABILITY_TOL) -> IteratedReport:
    """Run the fibration chain 3-qubit -> 1 (x) 2 -> 1 (x) 1 (x) 1.

    Each stage records the base point and entanglement value at its level;
    an entangled stage terminates the descent.  A fully separable state
    yields three Bloch points.
    """
    if state.n != 3:
        raise ContractViolationError("iterated_analysis expects a 3-qubit state")
    return descend(first_qubit_matrix(state.amplitudes), state_coords(state.amplitudes), tol)


def descend(
    matrix: np.ndarray, coords: np.ndarray, tol: float = SEPARABILITY_TOL
) -> IteratedReport:
    """``iterated_analysis`` from the state's first-qubit matrix and base
    coordinates; each stage reads its split residual off its own matrix."""
    stages: list[ChainStage] = []
    bloch_points: list[BasePoint] = []
    base = BasePoint(coords)
    while base.level > 1:
        separable = split_residual(matrix) <= tol
        e_value = float(coords_entanglement(base.coords))
        stages.append(ChainStage(base.level, base, e_value, separable, separable))
        if not separable:
            return IteratedReport(tuple(stages), tuple(bloch_points), False)
        bloch, factor = _split_step(matrix, base.coords)
        bloch_points.append(BasePoint(bloch))
        matrix = first_qubit_matrix(factor)
        base = BasePoint(state_coords(factor))
    stages.append(ChainStage(1, base, 0.0, True, False))
    bloch_points.append(base)
    return IteratedReport(tuple(stages), tuple(bloch_points), True)
