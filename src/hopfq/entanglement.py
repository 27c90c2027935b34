"""Entanglement measures, partial traces and separability classification.

The per-cut measure E is the squared norm of the entanglement-sensitive
base coordinates of the fibration with the cut qubit in the base role; it
equals 4 det(rho) of the reduced single-qubit density matrix and vanishes
exactly on states separable across that cut.  GHZ gives E = 1 on every
cut, W gives E = 8/9.

The minor-sum measure sums |2x2 minor|^2 of the reshaped amplitude matrix
over all ordered column pairs and all three cuts; with normalization 2/3
it coincides with the average of E over the cuts (Cauchy-Binet: det of a
2x4 Gram matrix is the sum of its squared minors).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .hopf_maps import BasePoint, bloch_slots, coords_entanglement, state_coords
from .qubit_states import (
    CUTS, PureState, cut_minors, cut_stack, det2, first_qubit_matrix, matrix_minors,
    reshape_matrix, split_residual,
)
from .tolerances import ABS_TOL, SEPARABILITY_TOL

#: Normalization of the minor-sum measure, fixed so that it equals the
#: average of the per-cut E values for every state.
MINOR_SUM_NORMALIZATION = 2.0 / 3.0


class DensityMatrix2:
    """Hermitian, trace-1, positive-semidefinite 2x2 matrix."""

    __slots__ = ("_matrix",)

    def __init__(self, matrix) -> None:
        m = np.array(matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ContractViolationError(f"expected a 2x2 matrix, got shape {m.shape}")
        if not np.abs(m - m.conj().T).max() <= ABS_TOL:  # also rejects NaN
            raise ContractViolationError("matrix is not Hermitian")
        if not abs(m[0, 0] + m[1, 1] - 1.0) <= ABS_TOL:
            raise ContractViolationError("matrix trace must be 1")
        det = det2(m).real
        if not det >= -ABS_TOL:
            raise ContractViolationError(f"matrix determinant {det!r} is negative")
        m.setflags(write=False)
        self._matrix = m

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    def det(self) -> float:
        return float(det2(self._matrix).real)

    def bloch(self) -> tuple[float, float, float]:
        """Bloch vector (x, y, z) with rho = (1 + x sx + y sy + z sz)/2."""
        m = self._matrix
        return (
            float(2.0 * m[0, 1].real),
            float(-2.0 * m[0, 1].imag),
            float((m[0, 0] - m[1, 1]).real),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, DensityMatrix2):
            return NotImplemented
        return bool(np.array_equal(self._matrix, other._matrix))

    def __hash__(self) -> int:
        return hash(tuple(self._matrix.ravel().tolist()))  # 0.0 and -0.0 hash alike

    def __repr__(self) -> str:
        return f"DensityMatrix2({np.array2string(self._matrix, separator=', ')})"


def reduced_density(matrices: np.ndarray) -> np.ndarray:
    """rho = M M^dagger of (..., 2, k) first-qubit matrices; broadcasts."""
    return matrices @ np.conj(matrices).swapaxes(-1, -2)


def partial_trace_keep(state: PureState, keep: int) -> DensityMatrix2:
    """Reduced density matrix of one qubit of a 3-qubit state."""
    return DensityMatrix2(reduced_density(reshape_matrix(state, keep)))


def bloch_density(base: BasePoint) -> DensityMatrix2:
    """Density matrix read off a base point's Bloch coordinates.

    Uses (X_1, X_2, X_last); for a base point computed from a state this
    equals the partial trace keeping the packed-first qubit.
    """
    x, y, z = bloch_slots(base.coords)
    return DensityMatrix2(
        0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])
    )


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------

def stack_entanglement(stack: np.ndarray) -> np.ndarray:
    """Per-cut E of a (..., c, 2, k) cut stack, shape (..., c); broadcasts."""
    return coords_entanglement(state_coords(stack.reshape(stack.shape[:-2] + (-1,))))


def cut_entanglement(amplitudes: np.ndarray) -> np.ndarray:
    """Per-cut E of (..., 2**n) amplitude arrays; broadcasts.  Three qubits
    give (..., 3) for cuts 1, 2, 3; one and two qubits give (..., 1) for the
    first qubit (0 for a single qubit, which has no partner)."""
    return stack_entanglement(cut_stack(np.asarray(amplitudes, dtype=complex)))


def e_hopf(state: PureState, cut: int) -> float:
    """Per-cut entanglement E in [0, 1] of a 3-qubit state."""
    if state.n != 3 or cut not in CUTS:
        raise ContractViolationError(f"e_hopf needs a 3-qubit state and a cut in {CUTS}")
    return float(cut_entanglement(state.amplitudes)[CUTS.index(cut)])


def e_avg(state: PureState) -> float:
    """Mean of e_hopf over the three cuts."""
    if state.n != 3:
        raise ContractViolationError("e_avg expects a 3-qubit state")
    return float(np.mean(cut_entanglement(state.amplitudes)))


def minor_measure(state: PureState) -> float:
    """Minor-sum entanglement measure, equal to e_avg by construction.

    Sums the squared moduli of the 2x2 minors of the cut-reshaped
    amplitude matrix over all ordered column pairs (each unordered minor
    counted twice) and over the three cuts, scaled by
    MINOR_SUM_NORMALIZATION.
    """
    if state.n != 3:
        raise ContractViolationError("minor_measure expects a 3-qubit state")
    return float(minor_sum(matrix_minors(cut_stack(state.amplitudes))))


def minor_sum(minors: np.ndarray) -> np.ndarray:
    """The measure from (..., c, 6) minors of c cuts, summed per cut first;
    broadcasts over the leading axes."""
    return MINOR_SUM_NORMALIZATION * np.sum(2.0 * np.sum(np.abs(minors) ** 2, axis=-1), axis=-1)


def separability_conditions(state: PureState, cut: int) -> np.ndarray:
    """The six bilinear residuals |minor| for the given cut (all < tol
    exactly when the cut qubit separates)."""
    return np.abs(cut_minors(state, cut))


def separability_2qubit(state: PureState) -> float:
    """|alpha0*beta1 - alpha1*beta0| of a 2-qubit state; 0 iff separable."""
    if state.n != 2:
        raise ContractViolationError("separability_2qubit expects a 2-qubit state")
    return split_residual(first_qubit_matrix(state.amplitudes))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

FULLY_SEPARABLE = "fully-separable"
ENTANGLED = "entangled"


def biseparable(cut: int) -> str:
    return f"biseparable(cut {cut})"


@dataclass(frozen=True)
class EntanglementReport:
    """Per-cut E values, averaged measures and separability class."""

    e_per_cut: tuple[float, float, float]
    e_avg: float
    minor_measure: float
    classification: str
    residuals_per_cut: tuple[tuple[float, ...], ...]


def classify(state: PureState, tol: float = SEPARABILITY_TOL) -> EntanglementReport:
    """Full entanglement report for a 3-qubit state.

    fully-separable when every cut's residuals pass, biseparable(cut k)
    when exactly the k-th cut passes, entangled otherwise.
    """
    if state.n != 3:
        raise ContractViolationError("classify expects a 3-qubit state")
    stack = cut_stack(state.amplitudes)
    return classify_cuts(matrix_minors(stack), stack_entanglement(stack), tol)


def classify_cuts(minors, e_per_cut, tol: float = SEPARABILITY_TOL) -> EntanglementReport:
    """``classify`` from the (3, 6) minors and the three E values of the cut
    stack, for callers that already hold them."""
    residuals = tuple(tuple(float(r) for r in row) for row in np.abs(minors))
    passes = [max(res) <= tol for res in residuals]
    if all(passes):
        label = FULLY_SEPARABLE
    elif sum(passes) == 1:
        label = biseparable(CUTS[passes.index(True)])
    else:
        label = ENTANGLED
    per_cut = tuple(float(e) for e in e_per_cut)
    return EntanglementReport(
        e_per_cut=per_cut,
        e_avg=float(np.mean(per_cut)),
        minor_measure=float(minor_sum(minors)),
        classification=label,
        residuals_per_cut=residuals,
    )
