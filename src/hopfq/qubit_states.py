"""Pure states of 1-3 qubits and their packing into algebra pairs.

Amplitudes are stored in binary-ascending basis order (|000> first).  For
three qubits the eight amplitudes are named, in order,

    alpha0 alpha1 beta0 beta1 delta0 delta1 gamma0 gamma1
    (|000>  |001>  |010> |011> |100>  |101>  |110>  |111>)

and are packed into an octonion pair via four quaternions

    q1 = alpha0 + alpha1 i2        q3 = delta0 + delta1 i2
    q2 = beta0  + beta1* i2        q4 = gamma0 + gamma1* i2
    o1 = q1 + q2 i4                o2 = q3 + q4 i4

The conjugations on beta1 and gamma1 are required for the pair ratio to be
sensitive to entanglement across the first-qubit cut.  Two qubits pack the
same way without conjugations (q1 = alpha0 + alpha1 i2, q2 = beta0 +
beta1 i2); one qubit packs as the plain complex pair (alpha0, alpha1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .division_algebra import HyperComplex, row_dot
from .errors import ContractViolationError, UnsupportedSizeError
from .tolerances import ABS_TOL, STATE_NORM_TOL, UNIT_INPUT_TOL

QUBIT_COUNTS = (1, 2, 3)

#: The three one-qubit cuts of a 3-qubit state, named by the qubit split off.
CUTS = (1, 2, 3)


class PureState:
    """Normalized vector of 2**n complex amplitudes, n in {1, 2, 3}."""

    __slots__ = ("_n", "_amplitudes")

    def __init__(self, amplitudes) -> None:
        arr = np.array(amplitudes, dtype=complex)
        sizes = {2: 1, 4: 2, 8: 3}
        if arr.ndim != 1 or arr.shape[0] not in sizes:
            raise ContractViolationError(
                f"amplitude vector must have length 2, 4 or 8, got shape {arr.shape}"
            )
        norm_sq = float(np.sum(np.abs(arr) ** 2))
        if not abs(norm_sq - 1.0) <= STATE_NORM_TOL:  # also rejects NaN
            raise ContractViolationError(
                f"state is not normalized: sum |amplitude|^2 = {norm_sq!r}"
            )
        arr.setflags(write=False)
        self._n = sizes[arr.shape[0]]
        self._amplitudes = arr

    @property
    def n(self) -> int:
        return self._n

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amplitudes

    def amplitude(self, *bits: int) -> complex:
        """Coefficient of the basis ket labelled by the given bits."""
        if len(bits) != self._n or any(b not in (0, 1) for b in bits):
            raise ContractViolationError(f"expected {self._n} bits, got {bits}")
        index = 0
        for b in bits:
            index = 2 * index + b
        return complex(self._amplitudes[index])

    def __repr__(self) -> str:
        return f"PureState({np.array2string(self._amplitudes, separator=', ')})"

    # -- named states --------------------------------------------------------

    @classmethod
    def basis(cls, label: str) -> "PureState":
        """Computational basis state from a bit string such as '010'."""
        if not label or any(ch not in "01" for ch in label) or len(label) > 3:
            raise ContractViolationError(f"bad basis label {label!r}")
        amps = np.zeros(2 ** len(label), dtype=complex)
        amps[int(label, 2)] = 1.0
        return cls(amps)

    @classmethod
    def ghz(cls) -> "PureState":
        amps = np.zeros(8, dtype=complex)
        amps[0] = amps[7] = 1.0 / math.sqrt(2.0)
        return cls(amps)

    @classmethod
    def w(cls) -> "PureState":
        amps = np.zeros(8, dtype=complex)
        amps[1] = amps[2] = amps[4] = 1.0 / math.sqrt(3.0)
        return cls(amps)

    @classmethod
    def bell00(cls) -> "PureState":
        amps = np.zeros(4, dtype=complex)
        amps[0] = amps[3] = 1.0 / math.sqrt(2.0)
        return cls(amps)


NAMED_STATES = {
    "ghz": PureState.ghz,
    "w": PureState.w,
    "bell00": PureState.bell00,
}


@dataclass(frozen=True)
class AlgebraPair:
    """Pair of same-level Cayley-Dickson numbers with unit combined norm."""

    first: HyperComplex
    second: HyperComplex

    def __post_init__(self) -> None:
        if self.first.level != self.second.level:
            raise ContractViolationError("pair members must share a level")
        total = self.first.norm_sq() + self.second.norm_sq()
        if not abs(total - 1.0) <= ABS_TOL:  # also rejects NaN
            raise ContractViolationError(
                f"pair norms must sum to 1, got {total!r}"
            )

    @property
    def level(self) -> int:
        return self.first.level


# ---------------------------------------------------------------------------
# Packing
# ---------------------------------------------------------------------------

# Coefficient slots of the packed pair, first then second, as indices into
# the amplitudes laid out as (re, im) pairs.  For 8 amplitudes the swapped
# slots 5 <-> 7 and 13 <-> 15 place beta1 and gamma1 conjugated.
_PACK_ORDER = {
    2: np.arange(4),
    4: np.arange(8),
    8: np.array([0, 1, 2, 3, 4, 7, 6, 5, 8, 9, 10, 11, 12, 15, 14, 13]),
}


def pack_coeffs(amplitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient arrays (first, second) of the packed pair.

    Works on a single amplitude vector or a batch with the basis index as
    the trailing axis.  Length 8 applies the beta1/gamma1 conjugations;
    length 4 and 2 are the plain quaternion and complex packings.
    """
    a = np.asarray(amplitudes, dtype=complex)
    size = a.shape[-1]
    if size not in _PACK_ORDER:
        raise ContractViolationError(f"cannot pack amplitude vector of length {size}")
    parts = np.stack([a.real, a.imag], axis=-1).reshape(a.shape[:-1] + (2 * size,))
    order = _PACK_ORDER[size]
    return np.take(parts, order[:size], axis=-1), np.take(parts, order[size:], axis=-1)


def unpack_coeffs(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Inverse of pack_coeffs; returns the complex amplitude array."""
    f = np.asarray(first, dtype=float)
    size = f.shape[-1]
    if size not in _PACK_ORDER:
        raise ContractViolationError(f"cannot unpack coefficient vectors of length {size}")
    parts = np.empty(f.shape[:-1] + (2 * size,))
    parts[..., _PACK_ORDER[size]] = np.concatenate([f, np.asarray(second, dtype=float)], axis=-1)
    return parts[..., 0::2] + 1j * parts[..., 1::2]


def pack(state: PureState) -> AlgebraPair:
    """Pack a state into its complex/quaternion/octonion pair."""
    first, second = pack_coeffs(state.amplitudes)
    level = state.n
    return AlgebraPair(HyperComplex(level, first), HyperComplex(level, second))


def unpack(pair: AlgebraPair) -> PureState:
    """Recover the state whose packing is the given pair."""
    return PureState(unpack_coeffs(pair.first.coeffs, pair.second.coeffs))


# ---------------------------------------------------------------------------
# Construction and sampling
# ---------------------------------------------------------------------------

def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product in basis-label concatenation order."""
    if a.n + b.n > 3:
        raise UnsupportedSizeError(f"tensor product would have {a.n + b.n} qubits")
    return PureState(tensor_amplitudes(a.amplitudes, b.amplitudes))


def tensor_amplitudes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor products of amplitude arrays, in basis-label concatenation order;
    broadcasts over leading axes, and each row rounds as ``np.outer``."""
    product = np.asarray(a)[..., :, None] * np.asarray(b)[..., None, :]
    return product.reshape(product.shape[:-2] + (-1,))


def haar_amplitudes(rng: np.random.Generator, n: int, count: int | None = None) -> np.ndarray:
    """One Haar-uniform amplitude vector, or ``count`` rows: normalized i.i.d.
    complex Gaussians.  Row k of a batch equals the k-th one-vector draw."""
    shape = (2, 2 ** n) if count is None else (count, 2, 2 ** n)
    normals = rng.standard_normal(shape)
    z = normals[..., 0, :] + 1j * normals[..., 1, :]
    # The same sums, in the same order, as the 1-D np.linalg.norm(z).
    return z / np.sqrt(row_dot(z.real, z.real) + row_dot(z.imag, z.imag))[..., None]


def random_state(n: int, seed: int) -> PureState:
    """Haar-uniform random state drawn from a generator seeded with ``seed``."""
    if n not in QUBIT_COUNTS:
        raise ContractViolationError(f"qubit count must be in {QUBIT_COUNTS}, got {n}")
    return PureState(haar_amplitudes(np.random.default_rng(seed), n))


def state_from_bloch(x: float, y: float, z: float) -> PureState:
    """Single-qubit state with the given Bloch vector (unit length)."""
    r = math.sqrt(x * x + y * y + z * z)
    if not abs(r - 1.0) <= UNIT_INPUT_TOL:  # also rejects NaN
        raise ContractViolationError(f"Bloch vector must be unit length, |v| = {r!r}")
    theta = math.acos(max(-1.0, min(1.0, z / r)))
    phi = math.atan2(y, x)
    amps = np.array(
        [math.cos(theta / 2.0), math.sin(theta / 2.0) * complex(math.cos(phi), math.sin(phi))],
        dtype=complex,
    )
    return PureState(amps / np.linalg.norm(amps))


# Amplitude order that moves the cut qubit to the front, keeping the other
# two in their original order: cube.transpose(0, 1, 2), (1, 0, 2), (2, 0, 1).
# Row k - 1 is cut k.
_CUT_ORDER = np.array([
    [0, 1, 2, 3, 4, 5, 6, 7],
    [0, 1, 4, 5, 2, 3, 6, 7],
    [0, 2, 4, 6, 1, 3, 5, 7],
])

# Column pairs of the six 2x2 minors of the reshaped matrix, ordered to match
# the bilinear separability conditions for cut 1:
# a0*g1 - d0*b1, a0*g0 - d0*b0, a0*d1 - d0*a1, a1*g1 - d1*b1, a1*g0 - d1*b0,
# b0*g1 - g0*b1.
_MINOR_PAIRS = np.array([(0, 3), (0, 2), (0, 1), (1, 3), (1, 2), (2, 3)])


def det2(m: np.ndarray):
    """Determinant over the last two axes; a single 2x2 matrix gives a scalar."""
    (a, b), (c, d) = np.asarray(m).transpose(-2, -1, *range(np.ndim(m) - 2))
    return a * d - b * c


def first_qubit_matrix(amplitudes: np.ndarray) -> np.ndarray:
    """(..., 2, 2**(n-1)) matrices with the first qubit as the row index."""
    return amplitudes.reshape(amplitudes.shape[:-1] + (2, -1))


def cut_matrix(amplitudes: np.ndarray, cut: int) -> np.ndarray:
    """(..., 2, 4) matrices of 3-qubit amplitudes with the cut qubit first."""
    if cut not in CUTS:
        raise ContractViolationError(f"cut must be one of {CUTS}, got {cut}")
    return first_qubit_matrix(np.take(amplitudes, _CUT_ORDER[cut - 1], axis=-1))


def cut_stack(amplitudes: np.ndarray) -> np.ndarray:
    """(..., c, 2, 2**(n-1)) first-qubit matrices of (..., 2**n) amplitudes:
    the three cuts of 3 qubits (c = 3), the state itself for 1 or 2 (c = 1)."""
    if amplitudes.shape[-1] == 8:
        return first_qubit_matrix(np.take(amplitudes, _CUT_ORDER, axis=-1))
    return first_qubit_matrix(amplitudes)[..., None, :, :]


def matrix_minors(matrix: np.ndarray) -> np.ndarray:
    """The six 2x2 minors of (..., 2, 4) matrices, in _MINOR_PAIRS order."""
    return det2(np.swapaxes(matrix[..., _MINOR_PAIRS], -3, -2))


def split_residual(amplitudes: np.ndarray) -> float:
    """Largest |2x2 minor| of a 2- or 3-qubit first_qubit_matrix; 0 iff it splits."""
    m = first_qubit_matrix(amplitudes)
    if m.shape[-1] == 2:
        return float(abs(det2(m)))
    return float(np.abs(matrix_minors(m)).max())


def reshape_matrix(state: PureState, cut: int) -> np.ndarray:
    """2x4 matrix of a 3-qubit state with the cut qubit as the row index.

    Columns run over the remaining two qubits in their original order.
    """
    if state.n != 3:
        raise ContractViolationError("reshape_matrix requires a 3-qubit state")
    return cut_matrix(state.amplitudes, cut)


def cut_state(state: PureState, cut: int) -> PureState:
    """3-qubit state with the cut qubit moved to the front."""
    return PureState(reshape_matrix(state, cut).reshape(-1))


def cut_minors(state: PureState, cut: int) -> np.ndarray:
    """The six 2x2 minors of reshape_matrix(state, cut), as complex values.

    All six vanish exactly when the cut qubit separates from the other two.
    """
    return matrix_minors(reshape_matrix(state, cut))


# ---------------------------------------------------------------------------
# Text format (shared with the CLI)
# ---------------------------------------------------------------------------

def parse_amplitudes(spec: str) -> np.ndarray:
    """Parse a state spec into a raw (possibly unnormalized) amplitude array.

    Accepted forms: named constants (ghz, w, bell00), basis labels such as
    |010> or |010⟩, '@path' reading the same grammar from a file, and
    whitespace-separated re,im pairs in basis order.
    """
    text = spec.strip()
    if not text:
        raise ValueError("empty state spec")
    if text.startswith("@"):
        path = Path(text[1:])
        try:
            text = path.read_text().strip()
        except OSError as exc:
            raise ValueError(f"cannot read state file {path}: {exc}") from exc
    lowered = text.lower()
    if lowered in NAMED_STATES:
        return NAMED_STATES[lowered]().amplitudes.copy()
    if text.startswith("|") and text[-1] in (">", "⟩"):
        label = text[1:-1]
        if not label or any(ch not in "01" for ch in label) or len(label) > 3:
            raise ValueError(f"bad basis label {text!r}")
        return PureState.basis(label).amplitudes.copy()
    tokens = text.split()
    values = []
    for token in tokens:
        parts = token.split(",")
        if len(parts) != 2:
            raise ValueError(f"bad amplitude token {token!r}, expected re,im")
        try:
            values.append(complex(float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ValueError(f"bad amplitude token {token!r}: {exc}") from exc
    if len(values) not in (2, 4, 8):
        raise ValueError(
            f"expected 2, 4 or 8 amplitudes, got {len(values)}"
        )
    return np.array(values, dtype=complex)


def format_number(x: float) -> str:
    """Render a float at 12 significant digits (canonical document format)."""
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.12g}"


def format_amplitudes(amplitudes: np.ndarray) -> str:
    return " ".join(
        f"{format_number(z.real)},{format_number(z.imag)}" for z in amplitudes
    )
