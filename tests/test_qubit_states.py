"""Tests for state representation, packing and the shared text format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfq.division_algebra import HyperComplex
from hopfq.errors import ContractViolationError, UnsupportedSizeError
from hopfq.qubit_states import (
    CUTS,
    AlgebraPair,
    PureState,
    cut_minors,
    cut_stack,
    cut_state,
    det2,
    first_qubit_matrix,
    format_amplitudes,
    format_number,
    haar_amplitudes,
    matrix_minors,
    pack,
    pack_coeffs,
    parse_amplitudes,
    random_state,
    reshape_matrix,
    split_residual,
    state_from_bloch,
    tensor,
    unpack,
    unpack_coeffs,
)

SQ2 = 1.0 / math.sqrt(2.0)
SQ3 = 1.0 / math.sqrt(3.0)


def random_amps(rng, n):
    z = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return z / np.linalg.norm(z)


def haar_state(rng, n):
    return PureState(random_amps(rng, n))


def states(n):
    """Hypothesis strategy for normalized n-qubit states."""
    dim = 2 ** n
    finite = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    def build(raw):
        vec = np.array(raw[:dim]) + 1j * np.array(raw[dim:])
        norm = np.linalg.norm(vec)
        if norm < 1e-3:
            vec = np.zeros(dim, dtype=complex)
            vec[0] = 1.0
            return PureState(vec)
        return PureState(vec / norm)
    return st.lists(finite, min_size=2 * dim, max_size=2 * dim).map(build)


# ---------------------------------------------------------------------------
# PureState basics
# ---------------------------------------------------------------------------

def test_unnormalized_state_rejected():
    with pytest.raises(ContractViolationError):
        PureState([1.0, 1.0])


def test_bad_length_rejected():
    with pytest.raises(ContractViolationError):
        PureState([1.0, 0.0, 0.0])


def test_amplitude_accessor():
    state = PureState.w()
    assert state.amplitude(0, 0, 1) == pytest.approx(SQ3)
    assert state.amplitude(0, 1, 0) == pytest.approx(SQ3)
    assert state.amplitude(1, 0, 0) == pytest.approx(SQ3)
    assert state.amplitude(1, 1, 1) == 0.0


def test_named_states():
    ghz = PureState.ghz()
    assert ghz.amplitude(0, 0, 0) == pytest.approx(SQ2)
    assert ghz.amplitude(1, 1, 1) == pytest.approx(SQ2)
    bell = PureState.bell00()
    assert bell.n == 2
    assert bell.amplitude(0, 0) == pytest.approx(SQ2)
    assert PureState.basis("010").amplitude(0, 1, 0) == 1.0


# ---------------------------------------------------------------------------
# Packing
# ---------------------------------------------------------------------------

def test_pack_basis_000():
    pair = pack(PureState.basis("000"))
    assert np.allclose(pair.first.coeffs, HyperComplex.one(3).coeffs)
    assert np.allclose(pair.second.coeffs, 0.0)


def test_pack_ghz():
    pair = pack(PureState.ghz())
    assert np.allclose(pair.first.coeffs, SQ2 * HyperComplex.one(3).coeffs)
    # o2 = gamma1 * (i2 i4); the table gives i2 i4 = i6.
    i2i4 = HyperComplex.unit(3, 2) * HyperComplex.unit(3, 4)
    assert np.allclose(i2i4.coeffs, HyperComplex.unit(3, 6).coeffs)
    assert np.allclose(pair.second.coeffs, SQ2 * i2i4.coeffs)


def test_pack_w():
    pair = pack(PureState.w())
    expected_first = SQ3 * (HyperComplex.unit(3, 2) + HyperComplex.unit(3, 4))
    assert np.allclose(pair.first.coeffs, expected_first.coeffs)
    assert np.allclose(pair.second.coeffs, SQ3 * HyperComplex.one(3).coeffs)


def test_pack_conjugation_slots():
    # beta1 fills the (i6, i5) slots of o1 and gamma1 the same slots of o2.
    amps = np.zeros(8, dtype=complex)
    amps[3] = 0.6 + 0.8j  # beta1
    state = PureState(amps)
    pair = pack(state)
    assert pair.first.coeffs[6] == pytest.approx(0.6)  # Re beta1
    assert pair.first.coeffs[5] == pytest.approx(0.8)  # Im beta1
    amps = np.zeros(8, dtype=complex)
    amps[7] = 0.6 - 0.8j  # gamma1
    pair = pack(PureState(amps))
    assert pair.second.coeffs[6] == pytest.approx(0.6)
    assert pair.second.coeffs[5] == pytest.approx(-0.8)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pack_unpack_round_trip(n):
    rng = np.random.default_rng(41 + n)
    for _ in range(300):
        state = haar_state(rng, n)
        back = unpack(pack(state))
        assert np.abs(back.amplitudes - state.amplitudes).max() <= 1e-15


def test_pure_state_compares_and_hashes_by_value():
    s = PureState.ghz()
    assert s == PureState.ghz() and hash(s) == hash(PureState.ghz())
    assert unpack(pack(s)) == s
    assert s != PureState.w()
    # 0.0 and -0.0 compare equal, so they hash alike
    plus, minus = PureState([0.0, 1.0]), PureState([-0.0, complex(1.0, -0.0)])
    assert plus == minus and hash(plus) == hash(minus)
    # the same amplitudes padded to another size are another state
    assert PureState.basis("0") != PureState.basis("00")
    assert PureState.basis("0") != (1.0, 0.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_packed_pair_norm(n):
    rng = np.random.default_rng(47 + n)
    for _ in range(300):
        pair = pack(haar_state(rng, n))
        assert abs(pair.first.norm_sq() + pair.second.norm_sq() - 1.0) <= 1e-12


def test_algebra_pair_validates():
    with pytest.raises(ContractViolationError):
        AlgebraPair(HyperComplex.one(3), HyperComplex.one(3))
    with pytest.raises(ContractViolationError):
        AlgebraPair(HyperComplex.one(2), HyperComplex.zero(3))


# ---------------------------------------------------------------------------
# Tensor products
# ---------------------------------------------------------------------------

def test_tensor_basis():
    zero = PureState.basis("0")
    assert np.allclose(tensor(zero, zero).amplitudes, PureState.basis("00").amplitudes)


def test_tensor_one_with_bell():
    result = tensor(PureState.basis("1"), PureState.bell00())
    expected = np.zeros(8, dtype=complex)
    expected[4] = expected[7] = SQ2  # (|100> + |111>)/sqrt(2)
    assert np.allclose(result.amplitudes, expected)


def test_tensor_norm_and_size_guard():
    rng = np.random.default_rng(53)
    for _ in range(100):
        a, b = haar_state(rng, 1), haar_state(rng, 2)
        prod = tensor(a, b)
        assert abs(np.sum(np.abs(prod.amplitudes) ** 2) - 1.0) <= 1e-12
    with pytest.raises(UnsupportedSizeError):
        tensor(haar_state(rng, 2), haar_state(rng, 2))


def test_tensor_associative_on_basis_states():
    a, b, c = PureState.basis("1"), PureState.basis("0"), PureState.basis("1")
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert np.array_equal(left.amplitudes, right.amplitudes)


def test_tensor_associative_on_random_states():
    rng = np.random.default_rng(59)
    for _ in range(100):
        a, b, c = (haar_state(rng, 1) for _ in range(3))
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert np.abs(left.amplitudes - right.amplitudes).max() <= 1e-15


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_random_state_deterministic():
    a = random_state(3, seed=123)
    b = random_state(3, seed=123)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    c = random_state(3, seed=124)
    assert not np.allclose(a.amplitudes, c.amplitudes)


def test_random_state_normalized():
    for seed in range(50):
        state = random_state(2, seed=seed)
        assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) <= 1e-12


def test_random_state_haar_symmetry():
    # Bloch z-component of Haar-random single qubits averages to zero.
    from hopfq.hopf_maps import hopf_base

    rng = np.random.default_rng(61)
    values = []
    for _ in range(10_000):
        values.append(hopf_base(PureState(random_amps(rng, 1))).coords[2])
    assert abs(np.mean(values)) < 0.05


def test_random_state_rejects_bad_n():
    with pytest.raises(ContractViolationError):
        random_state(4, seed=0)


# ---------------------------------------------------------------------------
# Reshaping and minors
# ---------------------------------------------------------------------------

def test_reshape_basis_000():
    m = reshape_matrix(PureState.basis("000"), 1)
    expected = np.zeros((2, 4), dtype=complex)
    expected[0, 0] = 1.0
    assert np.array_equal(m, expected)


def test_reshape_ghz_cut1():
    m = reshape_matrix(PureState.ghz(), 1)
    assert np.allclose(m[0], [SQ2, 0, 0, 0])
    assert np.allclose(m[1], [0, 0, 0, SQ2])


@pytest.mark.parametrize("cut", [1, 2, 3])
def test_reshape_preserves_norm(cut):
    rng = np.random.default_rng(67)
    for _ in range(200):
        m = reshape_matrix(haar_state(rng, 3), cut)
        assert abs(np.sum(np.abs(m) ** 2) - 1.0) <= 1e-12


def test_reshape_cut_ordering():
    state = PureState.basis("011")  # qubits (1,2,3) = (0,1,1)
    assert reshape_matrix(state, 1)[0, 3] == 1.0  # row 0, others (1,1)
    assert reshape_matrix(state, 2)[1, 1] == 1.0  # row 1, others (0,1)
    assert reshape_matrix(state, 3)[1, 1] == 1.0  # row 1, others (0,1)


def test_reshape_bad_cut():
    for cut in (0, 4, CUTS):  # one cut at a time: the tuple of all three is no cut
        with pytest.raises(ContractViolationError):
            reshape_matrix(PureState.ghz(), cut)
    with pytest.raises(ContractViolationError):
        reshape_matrix(PureState.bell00(), 1)


def test_cut_matrix_rejects_bad_cut():
    # Every scalar entry point that picks one cut matrix checks the cut.
    state = PureState.basis("000")
    for pick in (reshape_matrix, cut_state, cut_minors):
        with pytest.raises(ContractViolationError):
            pick(state, 0)


def test_cut_state_moves_qubit_to_front():
    state = PureState.basis("011")
    assert cut_state(state, 2).amplitude(1, 0, 1) == 1.0
    assert cut_state(state, 3).amplitude(1, 0, 1) == 1.0


def test_cut_minors_match_named_bilinears():
    rng = np.random.default_rng(71)
    state = haar_state(rng, 3)
    a0, a1, b0, b1, d0, d1, g0, g1 = state.amplitudes
    expected = np.array(
        [
            a0 * g1 - d0 * b1,
            a0 * g0 - d0 * b0,
            a0 * d1 - d0 * a1,
            a1 * g1 - d1 * b1,
            a1 * g0 - d1 * b0,
            b0 * g1 - g0 * b1,
        ]
    )
    assert np.abs(cut_minors(state, 1) - expected).max() <= 1e-15


# ---------------------------------------------------------------------------
# Bloch reconstruction
# ---------------------------------------------------------------------------

def test_state_from_bloch_poles():
    assert np.allclose(state_from_bloch(0, 0, 1).amplitudes, [1, 0])
    assert np.allclose(state_from_bloch(0, 0, -1).amplitudes, [0, 1])
    plus = state_from_bloch(1, 0, 0)
    assert np.allclose(plus.amplitudes, [SQ2, SQ2])


@pytest.mark.parametrize("vector", [(0.0, 0.0, math.nan), (math.nan, 0.0, 0.0), (0.0, math.nan, 1.0)])
def test_state_from_bloch_rejects_nan(vector):
    with pytest.raises(ContractViolationError):
        state_from_bloch(*vector)


def test_state_from_bloch_round_trip():
    rng = np.random.default_rng(73)
    for _ in range(200):
        amps = random_amps(rng, 1)
        x = 2.0 * (amps[0].conjugate() * amps[1]).real
        y = 2.0 * (amps[0].conjugate() * amps[1]).imag
        z = abs(amps[0]) ** 2 - abs(amps[1]) ** 2
        rebuilt = state_from_bloch(x, y, z)
        overlap = abs(np.vdot(rebuilt.amplitudes, amps))
        assert overlap == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def test_parse_named_and_labels():
    assert np.allclose(parse_amplitudes("ghz"), PureState.ghz().amplitudes)
    assert np.allclose(parse_amplitudes("W"), PureState.w().amplitudes)
    assert np.allclose(parse_amplitudes("|010>"), PureState.basis("010").amplitudes)
    assert np.allclose(parse_amplitudes("|01⟩"), PureState.basis("01").amplitudes)


def test_parse_literal_pairs():
    amps = parse_amplitudes("0.5,0 0,0.5 -0.5,0 0,-0.5")
    assert np.allclose(amps, [0.5, 0.5j, -0.5, -0.5j])


def test_parse_file(tmp_path):
    path = tmp_path / "state.txt"
    path.write_text("1,0 0,0\n")
    assert np.allclose(parse_amplitudes(f"@{path}"), [1.0, 0.0])


@pytest.mark.parametrize(
    "bad", ["", "1,0 2", "x,y", "1,0 0,0 0,0", "|012>", "@/nonexistent/file"]
)
def test_parse_errors(bad):
    with pytest.raises(ValueError):
        parse_amplitudes(bad)


def test_format_round_trip():
    rng = np.random.default_rng(79)
    for _ in range(200):
        value = float(rng.standard_normal() * 10.0 ** int(rng.integers(-6, 6)))
        text = format_number(value)
        assert format_number(float(text)) == text


def test_format_amplitudes_parses_back():
    rng = np.random.default_rng(83)
    state = haar_state(rng, 3)
    text = format_amplitudes(state.amplitudes)
    reparsed = parse_amplitudes(text)
    assert np.abs(reparsed - state.amplitudes).max() < 1e-11


@given(states(3))
@settings(max_examples=50)
def test_pack_round_trip_property(state):
    back = unpack(pack(state))
    assert np.abs(back.amplitudes - state.amplitudes).max() <= 1e-14


# ---------------------------------------------------------------------------
# Per-cut formulas against direct references
# ---------------------------------------------------------------------------

_CUT_TRANSPOSE = {1: (0, 1, 2), 2: (1, 0, 2), 3: (2, 0, 1)}


def random_batch(rng, shape):
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


@pytest.mark.parametrize("cut", [1, 2, 3])
def test_cut_stack_matches_transpose_form(cut):
    rng = np.random.default_rng(80 + cut)
    amps = random_batch(rng, (40, 8))
    axes = (0,) + tuple(a + 1 for a in _CUT_TRANSPOSE[cut])
    want = amps.reshape(-1, 2, 2, 2).transpose(axes).reshape(-1, 2, 4)
    assert np.array_equal(cut_stack(amps)[:, cut - 1], want)
    stacks = cut_stack(amps.reshape(5, 8, 8))
    assert np.array_equal(stacks[:, :, cut - 1], want.reshape(5, 8, 2, 4))
    for row, matrix in zip(amps, want):
        assert np.array_equal(cut_stack(row)[cut - 1], matrix)
        assert np.array_equal(reshape_matrix(PureState(row), cut), matrix)


def test_det2_single_matrix_is_the_scalar_formula():
    rng = np.random.default_rng(83)
    for m in random_batch(rng, (50, 4)).reshape(-1, 2, 2):
        got = det2(m)
        assert not isinstance(got, np.ndarray)
        assert got == m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def test_det2_batch_matches_reference():
    rng = np.random.default_rng(84)
    batch = random_batch(rng, (30, 4)).reshape(3, 10, 2, 2)
    want = np.array(
        [[m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] for m in row] for row in batch]
    )
    np.testing.assert_allclose(det2(batch), want, rtol=0.0, atol=1e-15)
    assert np.allclose(det2(batch), np.linalg.det(batch), atol=1e-15)


def test_matrix_minors_match_list_reference():
    rng = np.random.default_rng(85)
    amps = random_batch(rng, (30, 8))
    matrices = amps.reshape(-1, 2, 4)
    pairs = ((0, 3), (0, 2), (0, 1), (1, 3), (1, 2), (2, 3))
    batched = matrix_minors(matrices)
    assert batched.shape == (30, 6)
    for m, got in zip(matrices, batched):
        want = [m[0, j] * m[1, k] - m[0, k] * m[1, j] for j, k in pairs]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
        # A batch of one gives the same bits as the batch.
        assert np.array_equal(matrix_minors(m), got)


def test_matrix_minors_of_two_columns_is_the_determinant():
    rng = np.random.default_rng(88)
    batch = random_batch(rng, (30, 4)).reshape(-1, 2, 2)
    for matrices in (batch[:1], batch):
        minors = matrix_minors(matrices)
        assert minors.shape == (matrices.shape[0], 1)
        assert np.array_equal(minors, det2(matrices)[..., None])


def test_split_residual_two_and_three_qubits():
    rng = np.random.default_rng(86)
    for _ in range(20):
        a = random_amps(rng, 2)
        # One-element arrays: the residual rounds as numpy's array complex
        # product, as every minor of 2 and 3 qubits does.
        want = np.abs(a[[0]] * a[[3]] - a[[1]] * a[[2]])[0]
        assert split_residual(first_qubit_matrix(a)) == want
        state = haar_state(rng, 3)
        matrix = first_qubit_matrix(state.amplitudes)
        assert split_residual(matrix) == np.abs(cut_minors(state, 1)).max()
    product = tensor(haar_state(rng, 1), haar_state(rng, 2))
    assert split_residual(first_qubit_matrix(product.amplitudes)) <= 1e-15


def test_haar_amplitudes_draw_order():
    for n in (1, 2, 3):
        rng = np.random.default_rng(87)
        z = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
        assert np.array_equal(haar_amplitudes(np.random.default_rng(87), n), z / np.linalg.norm(z))
        assert np.array_equal(
            random_state(n, 87).amplitudes, haar_amplitudes(np.random.default_rng(87), n)
        )


def test_pack_coeffs_named_slots():
    rng = np.random.default_rng(88)
    amps = random_batch(rng, (20, 8))
    a0, a1, b0, b1, d0, d1, g0, g1 = amps.T
    first, second = pack_coeffs(amps)
    assert np.array_equal(first, np.stack(
        [a0.real, a0.imag, a1.real, a1.imag, b0.real, b1.imag, b1.real, b0.imag], axis=-1))
    assert np.array_equal(second, np.stack(
        [d0.real, d0.imag, d1.real, d1.imag, g0.real, g1.imag, g1.real, g0.imag], axis=-1))
    # Contiguous rows keep the einsum in base_coords summing in one order.
    assert first.flags.c_contiguous and second.flags.c_contiguous
    for n in (1, 2, 3):
        batch = random_batch(rng, (7, 2 ** n))
        assert np.array_equal(unpack_coeffs(*pack_coeffs(batch)), batch)


def test_pure_state_rejects_nan():
    with pytest.raises(ContractViolationError):
        PureState([math.nan, 0.0])
    with pytest.raises(ContractViolationError):
        PureState([math.inf, 0.0, 0.0, 0.0])
