"""Cayley-Dickson arithmetic for complex numbers, quaternions and octonions.

Elements are stored as real coefficient vectors in the basis order

    1, i1, i2, ..., i_{2^level - 1}        (level 1, 2, 3)

which is part of the public contract.  Multiplication follows the doubling
rule

    (a, b) (c, d) = (a c - d* b,  b c* + d a)

applied recursively, with conjugation (a, b)* = (a*, -b).  At level 1 this
is ordinary complex multiplication; level 2 gives the quaternions with
i1 i2 = i3; level 3 gives the octonions.

The octonion basis labels i4..i7 are attached to the doubled quaternion
pair (q_a, q_b) = q_a + q_b i4 through the embedding

    q_b = w0 + w1 i1 + w2 i2 + w3 i3   ->   w0 i4 + w1 i7 + w2 i6 - w3 i5

so coefficient index 5 carries a sign flip and indices 5/7 swap relative
to the raw pair layout.  With that embedding the seven oriented triples

    (123) (246) (435) (367) (651) (572) (714)

all satisfy i_a i_b = i_c (42 signed products in total); this is enforced
by the regression tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .tolerances import ABS_TOL, AXIS_TOL, DISPLAY_ZERO_TOL

LEVELS = (1, 2, 3)

#: Oriented multiplication triples of the imaginary units: (a, b, c) means
#: i_a i_b = i_c, cyclically.
CYCLES = ((1, 2, 3), (2, 4, 6), (4, 3, 5), (3, 6, 7), (6, 5, 1), (5, 7, 2), (7, 1, 4))


def dim_of(level: int) -> int:
    """Coefficient count of an element at the given level."""
    if level not in LEVELS:
        raise ContractViolationError(f"level must be one of {LEVELS}, got {level}")
    return 2 ** level


# ---------------------------------------------------------------------------
# Structure tensors, stored as signed gathers
# ---------------------------------------------------------------------------
#
# The structure tensor M[i, j, k] = (e_i e_j)_k of a level has dim^2 nonzero
# entries out of dim^3, exactly one j for each (i, k), each +1 or -1.  Each
# level keeps only that j, J[i, k], and its sign, S[i, k]; mul_coeffs reads
# these two dim x dim tables instead of contracting the dense tensor.

def _pair_conj(a: np.ndarray) -> np.ndarray:
    out = a.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def _pair_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Recursive doubling product over the last axis, in raw pair order; broadcasts."""
    n = a.shape[-1]
    if n == 1:
        return a * b
    h = n // 2
    a1, a2 = a[..., :h], a[..., h:]
    b1, b2 = b[..., :h], b[..., h:]
    first = _pair_mul(a1, b1) - _pair_mul(_pair_conj(b2), a2)
    second = _pair_mul(a2, _pair_conj(b1)) + _pair_mul(b2, a1)
    return np.concatenate([first, second], axis=-1)


# Signed permutation between raw pair order p and basis order x at dim 8:
# x[..., k] = _BASIS_SIGN[k] * p[..., _BASIS_PERM[k]].
_BASIS_PERM = np.array([0, 1, 2, 3, 4, 7, 6, 5])
_BASIS_SIGN = np.array([1.0, 1.0, 1.0, 1.0, 1.0, -1.0, 1.0, 1.0])


def _basis_to_pair(x: np.ndarray) -> np.ndarray:
    if x.shape[-1] < 8:
        return x
    p = np.empty_like(x)
    p[..., _BASIS_PERM] = _BASIS_SIGN * x
    return p


def _pair_to_basis(p: np.ndarray) -> np.ndarray:
    if p.shape[-1] < 8:
        return p
    return _BASIS_SIGN * p[..., _BASIS_PERM]


def _build_table(level: int) -> tuple[np.ndarray, np.ndarray]:
    """(J, S) with (x y)_k = sum_i x_i S[i, k] y_J[i, k], read off the
    structure tensor that one batched doubling call over all unit pairs gives."""
    eye = np.eye(2 ** level)
    m = _pair_to_basis(_pair_mul(_basis_to_pair(eye[:, None]), _basis_to_pair(eye[None])))
    j = np.argmax(m != 0.0, axis=1)
    return j, np.take_along_axis(m, j[:, None], axis=1)[:, 0]

_MUL_TABLE = {2 ** level: _build_table(level) for level in LEVELS}

#: Rows per gather in ``mul_coeffs``: its (rows, dim, dim) buffer stays
#: within 512 KiB however many rows a call has.
MUL_BLOCK = 1024


def mul_coeffs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of coefficient arrays; broadcasts over leading axes.

    The shared trailing size, 2, 4 or 8, picks the algebra.  Each output
    slot k is the signed gather sum_i a_i S[i, k] b_J[i, k]: dim^2
    products per row (64 for octonions), summed in order of i.  The
    broadcast rows run in blocks of MUL_BLOCK, so memory stays flat, and
    each row of a batch rounds as that row alone does.  This is the
    batch-friendly kernel behind HyperComplex.__mul__.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim == 0 or a.shape[-1:] != b.shape[-1:] or a.shape[-1] not in _MUL_TABLE:
        raise ContractViolationError(
            f"factors need one trailing size, 2, 4 or 8; got shapes {a.shape} and {b.shape}"
        )
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    dim = a.shape[-1]
    table, sign = _MUL_TABLE[dim]
    rows_a, rows_b = a.reshape(-1, dim), b.reshape(-1, dim)
    out = np.empty(rows_a.shape)
    for start in range(0, out.shape[0], MUL_BLOCK):
        stop = start + MUL_BLOCK
        gathered = rows_b[start:stop, table]
        gathered *= sign
        np.einsum("ni,nik->nk", rows_a[start:stop], gathered, out=out[start:stop])
    return out.reshape(a.shape)


def conj_coeffs(a: np.ndarray) -> np.ndarray:
    """Conjugate of coefficient arrays: negate every imaginary slot."""
    out = np.array(a, dtype=float)
    out[..., 1:] *= -1.0
    return out


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis; broadcasts.  A stacked matmul, so each
    row rounds as the 1-D ``a @ b`` does (``np.sum(a * b, -1)`` does not)."""
    return np.matmul(np.asarray(a)[..., None, :], np.asarray(b)[..., :, None])[..., 0, 0]


# ---------------------------------------------------------------------------
# Element type
# ---------------------------------------------------------------------------

class HyperComplex:
    """Immutable Cayley-Dickson number at level 1 (complex), 2 (quaternion)
    or 3 (octonion).

    Coefficients are ordered (1, i1, ..., i_{2^level-1}).  All operations
    return new instances; instances are safe to share between threads.
    """

    __slots__ = ("_level", "_coeffs")

    def __init__(self, level: int, coeffs) -> None:
        dim = dim_of(level)
        arr = np.array(coeffs, dtype=float)
        if arr.shape != (dim,):
            raise ContractViolationError(
                f"level {level} element needs {dim} coefficients, got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ContractViolationError(f"coefficients must be finite, got {arr!r}")
        arr.setflags(write=False)
        self._level = level
        self._coeffs = arr

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, level: int) -> "HyperComplex":
        return cls(level, np.zeros(dim_of(level)))

    @classmethod
    def one(cls, level: int) -> "HyperComplex":
        c = np.zeros(dim_of(level))
        c[0] = 1.0
        return cls(level, c)

    @classmethod
    def unit(cls, level: int, m: int) -> "HyperComplex":
        """Basis element i_m (m = 0 gives the real unit)."""
        dim = dim_of(level)
        if not 0 <= m < dim:
            raise ContractViolationError(f"unit index {m} out of range for level {level}")
        c = np.zeros(dim)
        c[m] = 1.0
        return cls(level, c)

    @classmethod
    def from_real(cls, level: int, value: float) -> "HyperComplex":
        c = np.zeros(dim_of(level))
        c[0] = float(value)
        return cls(level, c)

    @classmethod
    def from_complex(cls, z: complex) -> "HyperComplex":
        return cls(1, [z.real, z.imag])

    # -- accessors ----------------------------------------------------------

    @property
    def level(self) -> int:
        return self._level

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @property
    def scalar_part(self) -> float:
        return float(self._coeffs[0])

    def vector_part(self) -> "HyperComplex":
        c = self._coeffs.copy()
        c[0] = 0.0
        return HyperComplex(self._level, c)

    def norm_sq(self) -> float:
        return float(self._coeffs @ self._coeffs)

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def as_complex(self) -> complex:
        if self._level != 1:
            raise ContractViolationError("as_complex requires a level-1 element")
        return complex(self._coeffs[0], self._coeffs[1])

    def is_unit(self, tol: float = ABS_TOL) -> bool:
        return abs(self.norm_sq() - 1.0) <= tol

    def is_imaginary(self, tol: float = ABS_TOL) -> bool:
        return abs(self._coeffs[0]) <= tol

    # -- arithmetic ----------------------------------------------------------

    def _check_level(self, other: "HyperComplex") -> None:
        if self._level != other._level:
            raise ContractViolationError(
                f"level mismatch: {self._level} vs {other._level}"
            )

    def __add__(self, other: "HyperComplex") -> "HyperComplex":
        self._check_level(other)
        return HyperComplex(self._level, self._coeffs + other._coeffs)

    def __sub__(self, other: "HyperComplex") -> "HyperComplex":
        self._check_level(other)
        return HyperComplex(self._level, self._coeffs - other._coeffs)

    def __neg__(self) -> "HyperComplex":
        return HyperComplex(self._level, -self._coeffs)

    def __mul__(self, other):
        if isinstance(other, HyperComplex):
            self._check_level(other)
            return HyperComplex(self._level, mul_coeffs(self._coeffs, other._coeffs))
        return HyperComplex(self._level, self._coeffs * float(other))

    def __rmul__(self, other) -> "HyperComplex":
        return HyperComplex(self._level, self._coeffs * float(other))

    def __truediv__(self, other) -> "HyperComplex":
        if isinstance(other, HyperComplex):
            # left and right quotients differ; force an explicit choice
            raise TypeError("divide via a * b.inverse() or b.inverse() * a")
        divisor = float(other)
        if divisor == 0.0:
            raise ZeroDivisionError("division of an element by zero")
        return HyperComplex(self._level, self._coeffs / divisor)

    def conj(self) -> "HyperComplex":
        return HyperComplex(self._level, conj_coeffs(self._coeffs))

    def inverse(self) -> "HyperComplex":
        n2 = self.norm_sq()
        if n2 <= 0.0:
            raise ZeroDivisionError("zero element has no inverse")
        return HyperComplex(self._level, conj_coeffs(self._coeffs) / n2)

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, HyperComplex):
            return NotImplemented
        return bool(np.array_equal(self._coeffs, other._coeffs))

    def __hash__(self) -> int:
        return hash(tuple(self._coeffs.tolist()))  # 0.0 and -0.0 hash alike

    def __repr__(self) -> str:
        return f"HyperComplex({self._level}, {np.array2string(self._coeffs, separator=', ')})"

    def __str__(self) -> str:
        names = ["1"] + [f"i{m}" for m in range(1, self._coeffs.shape[0])]
        parts = []
        for c, name in zip(self._coeffs, names):
            if abs(c) > DISPLAY_ZERO_TOL:
                term = f"{c:g}" if name == "1" else f"{c:g}*{name}"
                parts.append(term)
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def mul(a: HyperComplex, b: HyperComplex) -> HyperComplex:
    """Cayley-Dickson product; function form of ``a * b``."""
    return a * b


def conj(a: HyperComplex) -> HyperComplex:
    return a.conj()


def inverse(a: HyperComplex) -> HyperComplex:
    return a.inverse()


def scalar_part(a: HyperComplex) -> float:
    return a.scalar_part


def vector_part(a: HyperComplex) -> HyperComplex:
    return a.vector_part()


# ---------------------------------------------------------------------------
# Polar decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolarForm:
    """Exponential form magnitude * (cos(angle) + axis * sin(angle)).

    ``axis`` is a unit pure-imaginary element.  For values on the real axis
    any axis works; the convention is axis = i1 with angle 0 or pi.
    """

    magnitude: float
    angle: float
    axis: HyperComplex

    def __post_init__(self) -> None:
        if not self.magnitude >= 0.0:
            raise ContractViolationError("magnitude must be nonnegative")
        if not (abs(self.axis.scalar_part) <= ABS_TOL and abs(self.axis.norm() - 1.0) <= ABS_TOL):
            raise ContractViolationError("axis must be unit and purely imaginary")

    def reconstruct(self) -> HyperComplex:
        coeffs = self.magnitude * exp_imaginary_coeffs(self.axis.coeffs, self.angle)
        return HyperComplex(self.axis.level, coeffs)


def polar_coeffs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(magnitude, angle, axis) of coefficient arrays; broadcasts.

    angle = atan2(|vector|, scalar) in [0, pi] (arccos(scalar/|a|) gives 0
    for 1 + 1e-9 i1); axis is the normalized vector part, or i1 where that
    is at most ABS_TOL * magnitude, so zero gives (0, 0, i1).
    Rows are scaled exactly, by the power of two of their largest
    |coefficient|, before squaring, so tiny rows do not underflow.
    """
    a = np.asarray(a, dtype=float)
    _, exponent = np.frexp(np.max(np.abs(a), axis=-1))
    scaled = np.ldexp(a, -exponent[..., None])
    vector = scaled.copy()
    vector[..., 0] = 0.0
    magnitude = np.sqrt(row_dot(scaled, scaled))
    vnorm = np.sqrt(row_dot(vector, vector))
    angle = np.arctan2(vnorm, scaled[..., 0])
    real = (vnorm <= ABS_TOL * magnitude)[..., None]
    axis = np.where(real, np.eye(a.shape[-1])[1], vector / np.where(real, 1.0, vnorm[..., None]))
    return np.ldexp(magnitude, exponent), angle, axis


def polar(a: HyperComplex) -> PolarForm:
    """Polar decomposition of a nonzero element (see ``polar_coeffs``)."""
    magnitude, angle, axis = polar_coeffs(a.coeffs)
    if magnitude == 0.0:
        raise ZeroDivisionError("polar form of zero is undefined")
    return PolarForm(float(magnitude), float(angle), HyperComplex(a.level, axis))


def exp_imaginary_coeffs(axis: np.ndarray, angle) -> np.ndarray:
    """cos(angle) + axis*sin(angle) of unit pure-imaginary coefficient arrays; broadcasts."""
    axis = np.asarray(axis, dtype=float)
    angle = np.asarray(angle, dtype=float)[..., None]
    return np.cos(angle) * np.eye(axis.shape[-1])[0] + np.sin(angle) * axis


def exp_imaginary(axis: HyperComplex, angle: float) -> HyperComplex:
    """cos(angle) + axis*sin(angle) for a unit pure-imaginary axis."""
    if not (abs(axis.norm_sq() - 1.0) <= AXIS_TOL and abs(axis.scalar_part) <= AXIS_TOL):
        raise ContractViolationError("axis must be unit and purely imaginary")
    return HyperComplex(axis.level, exp_imaginary_coeffs(axis.coeffs, angle))
