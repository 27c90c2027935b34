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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .division_algebra import HyperComplex, conj_coeffs, exp_imaginary, mul_coeffs, polar
from .errors import ContractViolationError, SeparabilityError
from .qubit_states import (
    AlgebraPair,
    PureState,
    first_qubit_matrix,
    pack,
    pack_coeffs,
    split_residual,
    unpack,
)
from .tolerances import ABS_TOL, AXIS_TOL, INFINITY_NORM_SQ, SEPARABILITY_TOL, UNIT_INPUT_TOL

_DIM_TO_LEVEL = {3: 1, 5: 2, 9: 3}
_LEVEL_TO_DIM = {1: 3, 2: 5, 3: 9}


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

def base_coords(first: np.ndarray, second: np.ndarray, level: int) -> np.ndarray:
    """Base coordinates from packed coefficient arrays; broadcasts batches."""
    p = mul_coeffs(first, conj_coeffs(second), level)
    dim = 2 ** level
    out = np.empty(p.shape[:-1] + (dim + 1,))
    out[..., 0] = 2.0 * p[..., 0]
    out[..., 1] = -2.0 * p[..., 1]
    if dim > 2:
        out[..., 2:dim] = 2.0 * p[..., 2:]
    out[..., dim] = np.sum(first * first, axis=-1) - np.sum(second * second, axis=-1)
    return out


def hopf_base(state: PureState) -> BasePoint:
    """Base point of the fibration matching the state's qubit count."""
    first, second = pack_coeffs(state.amplitudes)
    return BasePoint(base_coords(first, second, state.n))


def base_entanglement(base: BasePoint) -> float:
    """Squared norm of the entanglement-sensitive coordinates, in [0, 1].

    This is X_3^2 + ... + X_8^2 on S^8 (X_3^2 + X_4^2 on S^4) and equals
    4 det(rho) of the reduced first-qubit density matrix.
    """
    middle = base.coords[2:-1]
    return float(min(max(middle @ middle, 0.0), 1.0))


def h1_value(state: PureState) -> ExtendedValue:
    """Ratio value o1 * o2^{-1} of the packed pair, or INFINITY."""
    pair = pack(state)
    if pair.second.norm_sq() < INFINITY_NORM_SQ:
        return INFINITY
    return pair.first * pair.second.inverse()


def stereographic(base: BasePoint) -> ExtendedValue:
    """Algebra value whose inverse stereographic image is the base point."""
    x = base.coords
    # Near the pole 1 - X_last keeps only the absolute accuracy of X_last; on
    # the unit sphere it equals (X_1^2 + ... + X_{last-1}^2) / (1 + X_last),
    # which keeps the relative accuracy.  Up to X_last = 1/2 the direct form
    # is as accurate, and it is kept there.
    head = x[:-1]
    denom = float(head @ head) / (1.0 + x[-1]) if x[-1] > 0.5 else 1.0 - x[-1]
    if denom < 2.0 * INFINITY_NORM_SQ:
        return INFINITY
    c = head.copy()
    c[1] = -c[1]
    return HyperComplex(base.level, c / denom)


def stereographic_inverse(value: ExtendedValue, level: int | None = None) -> BasePoint:
    """Base point of an algebra value (or of INFINITY, given the level)."""
    if is_infinite(value):
        if level is None:
            raise ContractViolationError("level is required to place infinity")
        pole = np.zeros(_LEVEL_TO_DIM[level])
        pole[-1] = 1.0
        return BasePoint(pole)
    assert isinstance(value, HyperComplex)
    y = value.coeffs
    n2 = float(y @ y)
    scale = 2.0 / (1.0 + n2)
    dim = y.shape[0]
    out = np.empty(dim + 1)
    out[0] = scale * y[0]
    out[1] = -scale * y[1]
    if dim > 2:
        out[2:dim] = scale * y[2:]
    out[dim] = (n2 - 1.0) / (n2 + 1.0)
    return BasePoint(out / np.linalg.norm(out))


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
        if abs(self.axis.scalar_part) > AXIS_TOL or abs(self.axis.norm_sq() - 1.0) > AXIS_TOL:
            raise ContractViolationError("axis must be unit and purely imaginary")
        if abs(self.fiber.norm_sq() - 1.0) > UNIT_INPUT_TOL:
            raise ContractViolationError("fiber must be a unit octonion")


def _polar_direction(value: HyperComplex) -> tuple[float, HyperComplex]:
    """(angle, axis) of ``polar(value)``, and (0, i1) for zero."""
    if value.norm() == 0.0:
        return 0.0, HyperComplex.unit(3, 1)
    form = polar(value)
    return form.angle, form.axis


def hopf_inverse(base: BasePoint, fiber: HyperComplex) -> PureState:
    """State whose base point is ``base``, gauged by the unit fiber octonion."""
    if base.dim != 9:
        raise ContractViolationError("hopf_inverse expects a dim-9 base point")
    if fiber.level != 3:
        raise ContractViolationError("fiber must be an octonion")
    if abs(fiber.norm_sq() - 1.0) > UNIT_INPUT_TOL:
        raise ContractViolationError("fiber must be a unit octonion")
    o = fiber / fiber.norm()
    value = stereographic(base)
    if is_infinite(value):
        return unpack(AlgebraPair(o, HyperComplex.zero(3)))
    theta, axis = _polar_direction(value)
    cos_w = math.sqrt(max(0.0, (1.0 + base.coords[-1]) / 2.0))
    sin_w = math.sqrt(max(0.0, (1.0 - base.coords[-1]) / 2.0))
    o1 = cos_w * (exp_imaginary(axis, theta / 2.0) * o)
    o2 = sin_w * (exp_imaginary(axis, -theta / 2.0) * o)
    return unpack(AlgebraPair(o1, o2))


def fiber_chart(state: PureState) -> FiberChart:
    """Extract (omega, theta, axis, fiber) of a 3-qubit state."""
    if state.n != 3:
        raise ContractViolationError("fiber_chart expects a 3-qubit state")
    pair = pack(state)
    o1, o2 = pair.first, pair.second
    omega = math.acos(max(-1.0, min(1.0, o1.norm())))
    if o2.norm_sq() < INFINITY_NORM_SQ:
        return FiberChart(omega=omega, theta=0.0, axis=HyperComplex.unit(3, 1),
                          fiber=o1 / o1.norm())
    theta, axis = _polar_direction(h1_value(state))
    fiber = exp_imaginary(axis, theta / 2.0) * (o2 / o2.norm())
    return FiberChart(omega=omega, theta=theta, axis=axis, fiber=fiber)


def state_from_chart(chart: FiberChart) -> PureState:
    """Rebuild the state encoded by a fiber chart."""
    o1 = math.cos(chart.omega) * (exp_imaginary(chart.axis, chart.theta / 2.0) * chart.fiber)
    o2 = math.sin(chart.omega) * (exp_imaginary(chart.axis, -chart.theta / 2.0) * chart.fiber)
    return unpack(AlgebraPair(o1, o2))


# ---------------------------------------------------------------------------
# Fiber decomposition and the iterated chain
# ---------------------------------------------------------------------------

def _gauge_fix(amplitudes: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the first nonzero amplitude is real positive."""
    out = np.asarray(amplitudes, dtype=complex)
    for z in out:
        if abs(z) > ABS_TOL:
            return out * (abs(z) / z)
    return out


def _extract_factor(matrix: np.ndarray) -> PureState:
    """Normalized, gauge-fixed dominant row of a rank-1 (within tol) matrix."""
    norms = np.linalg.norm(matrix, axis=1)
    row = matrix[int(np.argmax(norms))]
    row = _gauge_fix(row / np.linalg.norm(row))
    return PureState(row / np.linalg.norm(row))


def _split_first_qubit(state: PureState, base: BasePoint) -> tuple[BasePoint, PureState]:
    """Bloch point and factor of a 2- or 3-qubit state whose first qubit separates."""
    bloch = base.coords[[0, 1, -1]]
    factor = _extract_factor(first_qubit_matrix(state.amplitudes))
    return BasePoint(bloch / np.linalg.norm(bloch)), factor


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
    residual = split_residual(state.amplitudes)
    if residual > tol:
        raise SeparabilityError(
            f"state is entangled across cut 1: max residual {residual:.3e}"
        )
    return _split_first_qubit(state, hopf_base(state))


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
    stages: list[ChainStage] = []
    bloch_points: list[BasePoint] = []
    while state.n > 1:
        base = hopf_base(state)
        separable = split_residual(state.amplitudes) <= tol
        stages.append(ChainStage(state.n, base, base_entanglement(base), separable, separable))
        if not separable:
            return IteratedReport(tuple(stages), tuple(bloch_points), False)
        bloch, state = _split_first_qubit(state, base)
        bloch_points.append(bloch)
    base = hopf_base(state)
    stages.append(ChainStage(1, base, 0.0, True, False))
    bloch_points.append(base)
    return IteratedReport(tuple(stages), tuple(bloch_points), True)
