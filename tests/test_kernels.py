"""Each scalar wrapper agrees exactly with the batched kernel it wraps.

The rows are Haar-random, plus rows near the pole (|o2|^2 = 1e-8, 1e-12,
1e-14), at the pole (|o2|^2 below INFINITY_NORM_SQ, where the kernel sets
its mask and the wrapper returns INFINITY) and with a real ratio value
(vector part 0 or 1e-9).  Every formula is checked on a batch of 500 rows
and on single-row batches, row by row with ==, not a tolerance.  The same
holds for the cut stack and the classification and descent cores that
``analyze`` feeds from it, and for the state kernels of base coordinates, tensor products
and the minor-sum measure.
"""

import math
import tracemalloc

import numpy as np
import pytest

from hopfq.division_algebra import (
    MUL_BLOCK,
    HyperComplex,
    exp_imaginary,
    exp_imaginary_coeffs,
    mul_coeffs,
    polar,
    polar_coeffs,
)
from hopfq.entanglement import (
    classify, classify_cuts, cut_entanglement, e_avg, e_hopf, minor_measure, minor_sum,
)
from hopfq.hopf_maps import (
    BasePoint,
    _fiber_pair,
    base_coords,
    coords_entanglement,
    descend,
    fiber_chart,
    h1_value,
    hopf_base,
    hopf_inverse,
    inverse_coeffs,
    is_infinite,
    iterated_analysis,
    ratio_coeffs,
    state_coords,
    state_from_chart,
    stereographic,
    stereographic_coeffs,
)
from hopfq.qubit_states import (
    CUTS,
    PureState,
    cut_stack,
    first_qubit_matrix,
    haar_amplitudes,
    matrix_minors,
    pack_coeffs,
    tensor,
    tensor_amplitudes,
    unpack_coeffs,
)

ROWS = 500
NEAR_POLE = (1e-8, 1e-12, 1e-14)
AT_POLE = (1e-16, 0.0)
REAL_RATIOS = ((0.5, 0.0), (-2.0, 0.0), (0.5, 1e-9), (-2.0, 1e-9))
SPECIAL = len(NEAR_POLE) + len(AT_POLE) + len(REAL_RATIOS)


def amplitude_rows(n: int, seed: int) -> np.ndarray:
    """ROWS amplitude rows of n qubits: the special rows first, then Haar rows."""
    rng = np.random.default_rng(seed)
    rows = haar_amplitudes(rng, n, ROWS)
    half = 2 ** (n - 1)  # o2 packs the second half of the amplitudes
    for k, o2_norm_sq in enumerate(NEAR_POLE + AT_POLE):
        rows[k, :half] *= math.sqrt(1.0 - o2_norm_sq) / np.linalg.norm(rows[k, :half])
        rows[k, half:] *= math.sqrt(o2_norm_sq) / np.linalg.norm(rows[k, half:])
    for k, (scalar, tiny) in enumerate(REAL_RATIOS, start=len(NEAR_POLE) + len(AT_POLE)):
        _, second = pack_coeffs(rows[k])
        value = np.zeros(2 ** n)
        value[0], value[1] = scalar, tiny
        first = mul_coeffs(value, second)
        scale = math.sqrt(first @ first + second @ second)
        rows[k] = unpack_coeffs(first / scale, second / scale)
    return rows


def batches(rows: np.ndarray, size: int):
    """(offset, batch) pairs: the whole set, or each special row and a few
    Haar rows as batches of one."""
    if size == len(rows):
        return [(0, rows)]
    return [(k, rows[k : k + 1]) for k in range(SPECIAL + 5)]


def same_extended(wrapped, value: np.ndarray, at_infinity) -> bool:
    if is_infinite(wrapped):
        return bool(at_infinity)
    return not at_infinity and np.array_equal(wrapped.coeffs, value)


def test_rows_cover_the_pole_cases():
    first, second = pack_coeffs(amplitude_rows(3, 1))
    norm_sq = np.sum(second * second, axis=-1)
    assert np.allclose(norm_sq[: len(NEAR_POLE)], NEAR_POLE, rtol=1e-6, atol=0.0)
    _, at_infinity = ratio_coeffs(first, second)
    assert at_infinity.sum() == len(AT_POLE)
    assert at_infinity[len(NEAR_POLE) : len(NEAR_POLE) + len(AT_POLE)].all()


@pytest.mark.parametrize("size", [1, ROWS])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_h1_value_wraps_ratio_coeffs(size, n):
    rows = amplitude_rows(n, 10 + n)
    for offset, batch in batches(rows, size):
        values, at_infinity = ratio_coeffs(*pack_coeffs(batch))
        for k, (value, mask) in enumerate(zip(values, at_infinity)):
            assert same_extended(h1_value(PureState(rows[offset + k])), value, mask)


@pytest.mark.parametrize("size", [1, ROWS])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_stereographic_wraps_stereographic_coeffs(size, n):
    rows = base_coords(*pack_coeffs(amplitude_rows(n, 20 + n)))
    rows /= np.linalg.norm(rows, axis=-1, keepdims=True)
    for offset, batch in batches(rows, size):
        values, at_infinity = stereographic_coeffs(batch)
        for k, (value, mask) in enumerate(zip(values, at_infinity)):
            assert same_extended(stereographic(BasePoint(rows[offset + k])), value, mask)


@pytest.mark.parametrize("size", [1, ROWS])
def test_hopf_inverse_wraps_inverse_coeffs(size):
    coords = base_coords(*pack_coeffs(amplitude_rows(3, 30)))
    coords /= np.linalg.norm(coords, axis=-1, keepdims=True)
    fibers = np.random.default_rng(31).standard_normal((ROWS, 8))
    fibers /= np.linalg.norm(fibers, axis=-1, keepdims=True)
    rows = np.concatenate([coords, fibers], axis=-1)
    for offset, batch in batches(rows, size):
        first, second = inverse_coeffs(batch[:, :9], batch[:, 9:])
        for k, amps in enumerate(unpack_coeffs(first, second)):
            base, fiber = BasePoint(coords[offset + k]), HyperComplex(3, fibers[offset + k])
            assert np.array_equal(hopf_inverse(base, fiber).amplitudes, amps)


@pytest.mark.parametrize("size", [1, ROWS])
def test_state_from_chart_wraps_fiber_pair(size):
    charts = [fiber_chart(PureState(a)) for a in amplitude_rows(3, 40)]
    rows = np.array([
        np.concatenate([[math.cos(c.omega), math.sin(c.omega), c.theta],
                        c.axis.coeffs, c.fiber.coeffs])
        for c in charts
    ])
    for offset, batch in batches(rows, size):
        first, second = _fiber_pair(batch[:, :1], batch[:, 1:2], batch[:, 2],
                                    batch[:, 3:11], batch[:, 11:])
        for k, amps in enumerate(unpack_coeffs(first, second)):
            assert np.array_equal(state_from_chart(charts[offset + k]).amplitudes, amps)


def polar_rows() -> np.ndarray:
    """Ratio values of 3-qubit rows (0 at the pole), plus real-axis elements."""
    values, _ = ratio_coeffs(*pack_coeffs(amplitude_rows(3, 50)))
    for k, (scalar, tiny) in enumerate(REAL_RATIOS):
        values[-1 - k] = 0.0
        values[-1 - k, 0], values[-1 - k, 1] = scalar, tiny
    return values


@pytest.mark.parametrize("size", [1, ROWS])
def test_polar_wraps_polar_coeffs(size):
    rows = polar_rows()
    for offset, batch in batches(rows, size):
        for k, (magnitude, angle, axis) in enumerate(zip(*polar_coeffs(batch))):
            value = HyperComplex(3, rows[offset + k])
            if magnitude == 0.0:
                assert angle == 0.0 and np.array_equal(axis, HyperComplex.unit(3, 1).coeffs)
                with pytest.raises(ZeroDivisionError):
                    polar(value)
                continue
            form = polar(value)
            assert (form.magnitude, form.angle) == (magnitude, angle)
            assert np.array_equal(form.axis.coeffs, axis)


@pytest.mark.parametrize("size", [1, ROWS])
def test_exp_imaginary_wraps_exp_imaginary_coeffs(size):
    _, _, axes = polar_coeffs(polar_rows())
    angles = np.random.default_rng(60).uniform(-10.0, 10.0, ROWS)
    rows = np.concatenate([angles[:, None], axes], axis=-1)
    for offset, batch in batches(rows, size):
        for k, value in enumerate(exp_imaginary_coeffs(batch[:, 1:], batch[:, 0])):
            axis = HyperComplex(3, axes[offset + k])
            assert np.array_equal(exp_imaginary(axis, angles[offset + k]).coeffs, value)


@pytest.mark.parametrize("size", [1, ROWS])
def test_e_measures_wrap_cut_entanglement(size):
    rows = amplitude_rows(3, 70)
    for offset, batch in batches(rows, size):
        for k, per_cut in enumerate(cut_entanglement(batch)):
            state = PureState(rows[offset + k])
            assert [e_hopf(state, cut) for cut in (1, 2, 3)] == list(per_cut)
            assert classify(state).e_per_cut == tuple(per_cut)
            assert e_avg(state) == np.mean(per_cut)


@pytest.mark.parametrize("size", [1, ROWS])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_base_entanglement_wraps_coords_entanglement(size, n):
    """The E of one base point, as each descent stage reads it, is its row of
    the batched kernel."""
    rows = base_coords(*pack_coeffs(amplitude_rows(n, 80 + n)))
    rows /= np.linalg.norm(rows, axis=-1, keepdims=True)
    for offset, batch in batches(rows, size):
        for k, e in enumerate(coords_entanglement(batch)):
            assert float(coords_entanglement(BasePoint(rows[offset + k]).coords)) == e


@pytest.mark.parametrize("size", [1, ROWS])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_haar_rows_continue_the_per_state_stream(size, n):
    single = np.random.default_rng(90 + n)
    rows = haar_amplitudes(np.random.default_rng(90 + n), n, size)
    for row in rows:
        assert np.array_equal(haar_amplitudes(single, n), row)
    assert rows.shape == (size, 2 ** n)


@pytest.mark.parametrize("rows", [1, ROWS, MUL_BLOCK - 1, MUL_BLOCK, MUL_BLOCK + 1, 2 * MUL_BLOCK + 1])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_mul_coeffs_rows_equal_the_single_products(level, rows):
    """One gather serves single elements and batches, and rounds each row of
    a batch as it rounds that row alone (zero and real factors included),
    on either side of a block boundary."""
    a, b = np.random.default_rng(100 + level).standard_normal((2, rows, 2 ** level))
    a[0:1] = b[1:2] = 0.0
    a[2:3, 1:] = b[3:4, 1:] = a[4:5, 1:] = b[4:5, 1:] = 0.0
    products = mul_coeffs(a, b)
    for k in range(rows):
        assert np.array_equal(mul_coeffs(a[k], b[k]), products[k])


@pytest.mark.parametrize("shape_a, shape_b", [((8, 1, 8), (1, 8, 8)), ((3, 8), (8,)), ((2, 3, 4), (4,))])
def test_mul_coeffs_broadcasts_the_bilinear_extension(shape_a, shape_b):
    """A broadcast product is the bilinear extension of the unit products
    mul_coeffs(e_i, e_j), which the cycle-table tests pin, summed over i in order."""
    rng = np.random.default_rng(105)
    a, b = rng.standard_normal(shape_a), rng.standard_normal(shape_b)
    eye = np.eye(shape_a[-1])
    units = np.array([[mul_coeffs(e_i, e_j) for e_j in eye] for e_i in eye])
    expected = np.zeros(np.broadcast_shapes(shape_a, shape_b))
    for i in range(eye.shape[0]):
        expected = expected + a[..., i, None] * (b @ units[i])  # b @ units[i] is exact: +-b_j
    assert np.array_equal(mul_coeffs(a, b), expected)


def test_mul_coeffs_memory_stays_flat():
    """The gather runs in blocks, so a long batch allocates little beyond its output."""
    a, b = np.random.default_rng(104).standard_normal((2, 20000, 8))
    tracemalloc.start()
    try:
        products = mul_coeffs(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= products.nbytes + 2 * 2 ** 20


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cut_stack_is_the_cut_matrices_or_the_state(n):
    rows = amplitude_rows(n, 110 + n)
    stack = cut_stack(rows)
    assert stack.shape == (ROWS, 3 if n == 3 else 1, 2, 2 ** (n - 1))
    for amps, matrices in zip(rows, stack):
        if n == 3:  # the cut qubit's axis moved to the front of the 2x2x2 cube
            cube = amps.reshape(2, 2, 2)
            want = np.stack([np.moveaxis(cube, cut - 1, 0).reshape(2, 4) for cut in CUTS])
        else:
            want = first_qubit_matrix(amps)[None]
        assert np.array_equal(cut_stack(amps), want)
        assert np.array_equal(matrices, want)


def classify_rows() -> np.ndarray:
    """3-qubit rows for every label: Haar and pole rows, products, and states
    biseparable across each cut."""
    rng = np.random.default_rng(120)
    singles = haar_amplitudes(rng, 1, 90).reshape(3, 30, 2)
    products = np.einsum("ka,kb,kc->kabc", *singles).reshape(-1, 8)
    pairs = haar_amplitudes(rng, 2, 30).reshape(-1, 2, 2)
    biseparable = [
        np.moveaxis(np.einsum("ka,kbc->kabc", singles[0], pairs), 1, cut).reshape(-1, 8)
        for cut in CUTS
    ]
    return np.concatenate([amplitude_rows(3, 121), products, *biseparable])


def test_classify_core_from_the_cut_stack_equals_classify():
    labels = set()
    for amps in classify_rows():
        stack = cut_stack(amps)
        coords = base_coords(*pack_coeffs(stack.reshape(3, -1)))
        report = classify_cuts(matrix_minors(stack), coords_entanglement(coords))
        assert report == classify(PureState(amps))
        labels.add(report.classification)
    assert labels == {
        "entangled", "fully-separable", "biseparable(cut 1)", "biseparable(cut 2)",
        "biseparable(cut 3)",
    }


def test_descent_core_from_the_cut_stack_equals_iterated_analysis():
    lengths = set()
    for amps in classify_rows():
        stack = cut_stack(amps)
        coords = base_coords(*pack_coeffs(stack.reshape(3, -1)))
        report = descend(stack[0], coords[0])
        assert report == iterated_analysis(PureState(amps))
        lengths.add(len(report.stages))
    assert lengths == {1, 2, 3}


@pytest.mark.parametrize("size", [1, ROWS])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_state_coords_rows_equal_hopf_base(size, n):
    rows = amplitude_rows(n, 130 + n)
    for offset, batch in batches(rows, size):
        for k, coords in enumerate(state_coords(batch)):
            assert np.array_equal(hopf_base(PureState(rows[offset + k])).coords, coords)


@pytest.mark.parametrize("sizes", [(1, 1), (1, 2), (2, 1)])
def test_tensor_amplitudes_rows_equal_tensor(sizes):
    rng = np.random.default_rng(140 + sum(sizes))
    a, b = (haar_amplitudes(rng, n, ROWS) for n in sizes)
    products = tensor_amplitudes(a, b)
    assert products.shape == (ROWS, 2 ** sum(sizes))
    for k in range(ROWS):
        assert np.array_equal(tensor(PureState(a[k]), PureState(b[k])).amplitudes, products[k])
        assert np.array_equal(tensor_amplitudes(a[k], b[k]), products[k])


def test_minor_sum_rows_equal_minor_measure():
    rows = classify_rows()
    for amps, measure in zip(rows, minor_sum(matrix_minors(cut_stack(rows)))):
        assert minor_measure(PureState(amps)) == measure
