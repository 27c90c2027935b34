"""Reference checks of hopfq command output, computed with plain numpy.

Nothing here imports hopfq.  Every expected value is rebuilt from the
generated input (amplitudes, or for ``sample`` the documented Haar draw)
with textbook formulas:

- reduced one-qubit density matrices rho_k of the cut matrices,
- E_k = 4 det rho_k, and the Meyer-Wallach global entanglement
  Q = 2 (1 - mean_k tr rho_k^2) = 4 mean_k det rho_k (quant-ph/0108104),
- 2x2 minors of the cut matrices, whose squared moduli sum to det rho_k
  (Cauchy-Binet), and whose largest modulus decides separability,
- Bloch vectors (2 Re rho_01, -2 Im rho_01, rho_00 - rho_11),
- for the ratio value y = o1 o2^{-1} of a packed pair (o1 the first row of
  the cut matrix, o2 the second): |y|^2 = rho_00 / rho_11, and the inverse
  stereographic image of y is the base point.

Each check raises OracleError with a one-line reason on the first
disagreement and otherwise returns the number of work items the output
covers (states, trials or documents).
"""

from __future__ import annotations

import re

import numpy as np

#: Printed measures agree with the reference to this absolute tolerance
#: (the CLI prints 12 significant digits, so rounding costs < 1e-12).
VALUE_TOL = 1e-10

#: The documented default of ``analyze --tol``: a cut separates when every
#: |minor| is at most this.
SEPARABILITY_TOL = 1e-9

#: The ratio map prints ``infinity`` exactly when |o2|^2 = rho_11 falls below
#: this (the documented threshold of ``h1_value``).  Within a relative
#: INFINITY_BAND of it either answer is accepted, since the library and the
#: reference round |o2|^2 differently.
INFINITY_NORM_SQ = 1e-15
INFINITY_BAND = 1e-9

#: Suites that ``hopfq check`` runs.  All must be reported and pass with a
#: positive trial count; suites added later must pass too.
KNOWN_SUITES = (
    "algebra_cycle_table",
    "algebra_norm_multiplicativity",
    "algebra_alternativity",
    "algebra_conj_anti_automorphism",
    "algebra_inverse_cancellation",
    "base_normalization",
    "stereographic_h1_consistency",
    "fibration_round_trip",
    "fiber_invariance",
    "gauge_invariance",
    "separability_sensitivity",
    "e_equals_4_det_rho",
    "minor_measure_equals_e_avg",
    "bloch_ball_containment",
)

#: Column pairs of the six minors of a cut matrix, in the order ``analyze``
#: prints them as ``residuals cut k`` (the documented order of the bilinear
#: separability conditions).
MINOR_COLUMNS = ((0, 3), (0, 2), (0, 1), (1, 3), (1, 2), (2, 3))
_SUITE_LINE = re.compile(
    r"^suite (\S+): (\d+) trials, (\d+) failures, max error (\S+): (pass|FAIL)$"
)


class OracleError(Exception):
    """The command's output disagrees with the reference."""


# ---------------------------------------------------------------------------
# Reference quantities
# ---------------------------------------------------------------------------

def haar_states(seed: int, count: int, dim: int) -> np.ndarray:
    """The documented ``sample`` draw: per state, ``dim`` real then ``dim``
    imaginary standard normals from ``default_rng(seed)``, normalized."""
    z = np.random.default_rng(seed).standard_normal((count, 2, dim))
    psi = z[:, 0, :] + 1j * z[:, 1, :]
    return psi / np.linalg.norm(psi, axis=-1, keepdims=True)


def cut_matrix(psi: np.ndarray, cut: int) -> np.ndarray:
    """2x4 matrix of a 3-qubit state with qubit ``cut`` as the row index."""
    cube = psi.reshape(psi.shape[:-1] + (2, 2, 2))
    axis = cube.ndim - 3 + cut - 1
    return np.moveaxis(cube, axis, -3).reshape(psi.shape[:-1] + (2, 4))


def reduced(matrix: np.ndarray) -> np.ndarray:
    """rho = M M^dagger of a (batch of) row-qubit matrices."""
    return matrix @ np.conj(np.swapaxes(matrix, -1, -2))


def det2(rho: np.ndarray) -> np.ndarray:
    return (rho[..., 0, 0] * rho[..., 1, 1] - rho[..., 0, 1] * rho[..., 1, 0]).real


def bloch(rho: np.ndarray) -> np.ndarray:
    return np.array(
        [2.0 * rho[0, 1].real, -2.0 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real]
    )


def minors(matrix: np.ndarray) -> np.ndarray:
    """The six 2x2 minors of a 2x4 matrix, in MINOR_COLUMNS order."""
    return np.array(
        [matrix[0, j] * matrix[1, k] - matrix[0, k] * matrix[1, j] for j, k in MINOR_COLUMNS]
    )


def inverse_stereographic(y: np.ndarray) -> np.ndarray:
    """Base point of a ratio value y, with the sign convention on X2:
    (2 y0, -2 y1, 2 y2, ..., 2 y_last) / (1 + |y|^2), then (|y|^2 - 1) / (|y|^2 + 1)."""
    n2 = float(y @ y)
    point = np.empty(y.shape[0] + 1)
    point[:-1] = 2.0 * y / (1.0 + n2)
    point[1] = -point[1]
    point[-1] = (n2 - 1.0) / (n2 + 1.0)
    return point


def global_entanglement(psi: np.ndarray) -> np.ndarray:
    """Meyer-Wallach Q of a batch of 3-qubit states (last axis: amplitudes)."""
    purity = np.zeros(psi.shape[:-1])
    for cut in (1, 2, 3):
        rho = reduced(cut_matrix(psi, cut))
        purity += np.sum(np.abs(rho) ** 2, axis=(-1, -2))
    return 2.0 * (1.0 - purity / 3.0)


def normalized(amplitudes: np.ndarray) -> np.ndarray:
    return amplitudes / np.sqrt(np.sum(np.abs(amplitudes) ** 2))


# ---------------------------------------------------------------------------
# Output parsing
# ---------------------------------------------------------------------------

def parse_document(text: str) -> dict[str, dict[str, str]]:
    """Split a key-value document into {section: {key: value}}."""
    doc: dict[str, dict[str, str]] = {}
    section: dict[str, str] | None = None
    for line in text.splitlines():
        if not line.startswith(" "):
            section = doc.setdefault(line.rstrip(":"), {})
        elif section is not None:
            key, _, value = line.strip().partition(": ")
            section[key] = value
    return doc


def _field(doc: dict[str, dict[str, str]], section: str, key: str) -> str:
    try:
        return doc[section][key]
    except KeyError:
        raise OracleError(f"missing field {section}/{key}") from None


def _number(doc, section: str, key: str) -> float:
    text = _field(doc, section, key)
    try:
        return float(text)
    except ValueError:
        raise OracleError(f"{section}/{key} is not a number: {text!r}") from None


def _labeled(text: str) -> np.ndarray:
    """Values of 'X1=a X2=b ...'."""
    try:
        return np.array([float(token.split("=", 1)[1]) for token in text.split()])
    except (IndexError, ValueError):
        raise OracleError(f"bad coordinate list {text!r}") from None


def _floats(name: str, text: str) -> np.ndarray:
    try:
        return np.array([float(token) for token in text.split()])
    except ValueError:
        raise OracleError(f"{name}: bad number list {text!r}") from None


def _complexes(name: str, text: str) -> np.ndarray:
    """Values of 're,im re,im ...'."""
    try:
        return np.array([complex(*map(float, token.split(","))) for token in text.split()])
    except (TypeError, ValueError):
        raise OracleError(f"{name}: bad complex list {text!r}") from None


def _near(name: str, got: float, want: float, tol: float = VALUE_TOL) -> None:
    if not abs(got - want) <= tol:
        raise OracleError(f"{name}: printed {got!r}, reference {want!r}")


def _near_vec(name: str, got: np.ndarray, want: np.ndarray, tol: float = VALUE_TOL) -> None:
    if got.shape != want.shape or not np.all(np.abs(got - want) <= tol):
        raise OracleError(f"{name}: printed {got.tolist()}, reference {want.tolist()}")


# ---------------------------------------------------------------------------
# Command checks
# ---------------------------------------------------------------------------

def check_sample(stdout: str, seed: int, count: int) -> int:
    """``sample 3 <count> --seed <seed>`` rows against Q of the Haar draw."""
    lines = stdout.splitlines()
    if not lines or lines[0] != "index,e_avg":
        raise OracleError("sample output lacks the 'index,e_avg' header")
    if len(lines) != count + 1:
        raise OracleError(f"sample printed {len(lines) - 1} rows, expected {count}")
    want = global_entanglement(haar_states(seed, count, 8))
    for k, line in enumerate(lines[1:]):
        index, _, value = line.partition(",")
        if index != str(k):
            raise OracleError(f"row {k} has index {index!r}")
        try:
            got = float(value)
        except ValueError:
            raise OracleError(f"row {k} value is not a number: {value!r}") from None
        _near(f"row {k} e_avg", got, float(want[k]))
    return count


def check_suites(stdout: str) -> int:
    """``check`` output: every known suite reported once, all passing, no
    vacuous suite, and a passing summary.  Returns the total trial count."""
    lines = stdout.splitlines()
    seen: dict[str, int] = {}
    for line in lines[:-1]:
        match = _SUITE_LINE.match(line)
        if match is None:
            raise OracleError(f"unexpected check line {line!r}")
        name, trials, failures, _, status = match.groups()
        if name in seen:
            raise OracleError(f"suite {name} reported twice")
        if status != "pass" or int(failures) != 0:
            raise OracleError(f"suite {name} failed: {line!r}")
        if int(trials) <= 0:
            raise OracleError(f"suite {name} passed vacuously with {trials} trials")
        seen[name] = int(trials)
    missing = [name for name in KNOWN_SUITES if name not in seen]
    if missing:
        raise OracleError(f"suites not reported: {', '.join(missing)}")
    summary = f"check: pass ({len(seen)} suites)"
    if not lines or lines[-1] != summary:
        raise OracleError(f"summary line is not {summary!r}")
    return sum(seen.values())


def _check_cut_sections(doc, key: str, density_key: str, rho: np.ndarray, dim: int) -> None:
    """``base``, ``h1`` and ``density`` of one cut (of the whole state, for 1
    and 2 qubits) against the row qubit's reduced matrix rho = M M^dagger."""
    coords = _labeled(_field(doc, "base", key))
    _check_base_coords(f"base {key}", coords, rho, dim)
    density = _complexes(f"density {density_key}", _field(doc, "density", density_key))
    if density.shape != (4,):
        raise OracleError(f"density {density_key}: {density.shape[0]} entries")
    _near_vec(f"density {density_key}", density.view(float), rho.reshape(-1).view(float))
    _check_h1(f"h1 {key}", _field(doc, "h1", key), rho, coords)


def _check_h1(name: str, text: str, rho: np.ndarray, coords: np.ndarray) -> None:
    """The ratio value o1 o2^{-1}: ``infinity`` exactly when |o2|^2 is below
    INFINITY_NORM_SQ, otherwise a value with |y|^2 = |o1|^2 / |o2|^2 whose
    inverse stereographic image is the printed (and checked) base point."""
    first_sq, second_sq = float(rho[0, 0].real), float(rho[1, 1].real)
    if abs(second_sq - INFINITY_NORM_SQ) > INFINITY_BAND * INFINITY_NORM_SQ:
        want_infinite = second_sq < INFINITY_NORM_SQ
        if (text == "infinity") != want_infinite:
            raise OracleError(f"{name}: printed {text!r} with |o2|^2 = {second_sq!r}")
    if text == "infinity":
        return
    y = _floats(name, text)
    if y.shape[0] != coords.shape[0] - 1:
        raise OracleError(f"{name}: {y.shape[0]} coefficients for a {coords.shape[0]}-d base")
    n2 = float(y @ y)
    if not abs(n2 - first_sq / second_sq) <= 1e-9 * (first_sq / second_sq):
        raise OracleError(f"{name}: |y|^2 = {n2!r}, reference {first_sq / second_sq!r}")
    _near_vec(f"{name} image", inverse_stereographic(y), coords, 1e-9)


def _check_analyze_three(doc, psi: np.ndarray) -> None:
    mats = [cut_matrix(psi, cut) for cut in (1, 2, 3)]
    rhos = [reduced(m) for m in mats]
    for cut, rho in zip((1, 2, 3), rhos):
        _check_cut_sections(doc, f"cut {cut}", f"cut {cut}", rho, 9)
    e_ref = [4.0 * float(det2(rho)) for rho in rhos]
    for cut, want in zip((1, 2, 3), e_ref):
        _near(f"e cut {cut}", _number(doc, "entanglement", f"e cut {cut}"), want)
    _near("e avg", _number(doc, "entanglement", "e avg"), float(np.mean(e_ref)))
    minor_abs = [np.abs(minors(m)) for m in mats]
    measure = _number(doc, "entanglement", "minor measure")
    _near("minor measure (minors)", measure, 4.0 * float(np.mean([a @ a for a in minor_abs])))
    _near("minor measure (Meyer-Wallach Q)", measure, float(global_entanglement(psi)))
    for cut, want in zip((1, 2, 3), minor_abs):
        got = _floats(f"residuals cut {cut}", _field(doc, "entanglement", f"residuals cut {cut}"))
        _near_vec(f"residuals cut {cut}", got, want)

    passes = [float(a.max()) <= SEPARABILITY_TOL for a in minor_abs]
    if all(passes):
        label = "fully-separable"
    elif sum(passes) == 1:
        label = f"biseparable(cut {passes.index(True) + 1})"
    else:
        label = "entangled"
    got = _field(doc, "entanglement", "classification")
    if got != label:
        raise OracleError(f"classification: printed {got!r}, reference {label!r}")

    # Descent depth: 1 stage if cut 1 is entangled, 2 if the remaining pair
    # (the dominant row of the cut-1 matrix) is entangled, else 3.
    stages = 1
    if passes[0]:
        row = mats[0][int(np.argmax(np.linalg.norm(mats[0], axis=1)))]
        pair = normalized(row)
        stages = 2 if abs(pair[0] * pair[3] - pair[1] * pair[2]) > SEPARABILITY_TOL else 3
    chain = doc.get("chain", {})
    got_stages = sum(1 for key in chain if key.startswith("stage "))
    if got_stages != stages:
        raise OracleError(f"chain has {got_stages} stages, reference {stages}")
    if stages == 3:
        for k, rho in enumerate(rhos, start=1):
            point = _floats(f"bloch point {k}", _field(doc, "chain", f"bloch point {k}"))
            _near_vec(f"bloch point {k}", point, bloch(rho), 1e-9)


def _check_analyze_two(doc, psi: np.ndarray) -> None:
    rho = reduced(psi.reshape(2, 2))
    _check_cut_sections(doc, "value", "first qubit", rho, 5)
    residual = abs(psi[0] * psi[3] - psi[1] * psi[2])
    _near("e", _number(doc, "entanglement", "e"), 4.0 * float(det2(rho)))
    _near("residual", _number(doc, "entanglement", "residual"), residual)
    want = "yes" if residual <= SEPARABILITY_TOL else "no"
    got = _field(doc, "entanglement", "separable")
    if got != want:
        raise OracleError(f"separable: printed {got!r}, reference {want!r}")


def _check_analyze_one(doc, psi: np.ndarray) -> None:
    _check_cut_sections(doc, "value", "qubit", np.outer(psi, psi.conj()), 3)


def _check_base_coords(name: str, coords: np.ndarray, rho: np.ndarray, dim: int) -> None:
    """(X1, X2, X_last) is the Bloch vector of rho and the middle
    coordinates carry E = 4 det rho."""
    if coords.shape != (dim,):
        raise OracleError(f"{name}: {coords.shape[0]} coordinates, expected {dim}")
    _near_vec(f"{name} bloch slots", coords[[0, 1, -1]], bloch(rho))
    _near(f"{name} middle sum sq", float(coords[2:-1] @ coords[2:-1]), 4.0 * float(det2(rho)))


def check_analyze(stdout: str, amplitudes: np.ndarray) -> int:
    """``analyze <spec>`` document against the reference measures."""
    doc = parse_document(stdout)
    psi = normalized(amplitudes)
    n = {2: 1, 4: 2, 8: 3}[psi.shape[0]]
    if _field(doc, "input", "n") != str(n):
        raise OracleError(f"input n is {_field(doc, 'input', 'n')}, expected {n}")
    if n == 3:
        _check_analyze_three(doc, psi)
    elif n == 2:
        _check_analyze_two(doc, psi)
    else:
        _check_analyze_one(doc, psi)
    return 1


def check_coords(stdout: str, amplitudes: np.ndarray, cut: int) -> int:
    """``coords <spec> --cut <cut>`` against the cut qubit's reduced state."""
    doc = parse_document(stdout)
    psi = normalized(amplitudes)
    if psi.shape[0] == 8:
        rho = reduced(cut_matrix(psi, cut))
    elif psi.shape[0] == 4:
        rho = reduced(psi.reshape(2, 2))
    else:
        rho = np.outer(psi, psi.conj())
    dim = {2: 3, 4: 5, 8: 9}[psi.shape[0]]
    coords = np.array([_number(doc, "coordinates", f"X{i}") for i in range(1, dim + 1)])
    if f"X{dim + 1}" in doc.get("coordinates", {}):
        raise OracleError(f"more than {dim} coordinates printed")
    _check_base_coords("coordinates", coords, rho, dim)
    _near("sum sq", _number(doc, "coordinates", "sum sq"), 1.0)
    return 1
