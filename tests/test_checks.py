"""The self-test suites themselves pass and report sensibly."""

import tracemalloc

import numpy as np
import pytest

import hopfq.checks
import hopfq.entanglement
from hopfq.checks import (
    SUITES,
    run_all,
    suite_algebra_cycle_table,
    suite_base_normalization,
    suite_e_equals_4_det_rho,
    suite_fibration_round_trip,
    suite_minor_measure_equals_e_avg,
)
from hopfq.entanglement import cut_entanglement, minor_sum, reduced_density
from hopfq.qubit_states import (
    PureState, cut_stack, det2, format_amplitudes, haar_amplitudes, matrix_minors,
)


def test_all_suites_pass():
    results = run_all(trials=300, seed=0)
    assert len(results) == len(SUITES)
    for result in results:
        assert result.passed, f"{result.name}: {result.counterexample}"
        assert result.counterexample is None
        assert result.max_error < 1e-9


def test_suites_deterministic():
    a = run_all(trials=200, seed=4)
    b = run_all(trials=200, seed=4)
    for ra, rb in zip(a, b):
        assert ra == rb


def test_minor_suite_catches_wrong_constant(monkeypatch):
    monkeypatch.setattr(hopfq.entanglement, "MINOR_SUM_NORMALIZATION", 1.0)
    result = suite_minor_measure_equals_e_avg(200, np.random.default_rng(1))
    assert not result.passed
    assert result.counterexample is not None


def test_stereographic_suite_near_pole_seed():
    # One of this seed's one-qubit draws lies within 1e-5 of the pole, where
    # 1 - X_last used to lose the digits the suite compares.  The suite draws
    # the first 67 of its 200 trials as one-qubit states, from substream
    # [seed, suite index].
    seed = 12
    offset = [name for name, _ in SUITES].index("stereographic_h1_consistency")
    one_qubit = haar_amplitudes(np.random.default_rng([seed, offset]), 1, 67)
    assert np.min(np.abs(one_qubit[:, 1]) ** 2) < 1e-5  # |o2|^2, the distance to the pole
    results = {r.name: r for r in run_all(trials=200, seed=seed)}
    result = results["stereographic_h1_consistency"]
    assert result.passed, result.counterexample
    assert result.max_error < 1e-12


def test_every_suite_runs_the_requested_trials():
    for trials in (20001, 2000):
        results = run_all(trials=trials, seed=0)
        assert all(r.passed for r in results)
        assert {r.name: r.trials for r in results if r.name != "algebra_cycle_table"} == {
            name: trials for name, _ in SUITES if name != "algebra_cycle_table"
        }


def test_round_trip_suite_fails_a_pair_off_the_unit_sphere(monkeypatch):
    # A 1e-11 scale error keeps the base point within the 1e-9 threshold,
    # but no unit state packs into the rebuilt pair.
    inverse = hopfq.checks.inverse_coeffs
    monkeypatch.setattr(
        hopfq.checks, "inverse_coeffs",
        lambda coords, fiber: tuple((1.0 + 1e-11) * c for c in inverse(coords, fiber)),
    )
    result = suite_fibration_round_trip(50, np.random.default_rng(2))
    assert result.failures == 50
    assert result.counterexample is not None


def test_per_level_counterexample_is_the_worst_rows_own_state(monkeypatch):
    # Only the one-qubit base points are off the sphere, so the counterexample
    # is a one-qubit state: two amplitudes, not a padded row of eight.
    state_coords = hopfq.checks.state_coords

    def off_sphere_at_level_1(amplitudes):
        return (1.0 + 1e-6 * (amplitudes.shape[-1] == 2)) * state_coords(amplitudes)

    monkeypatch.setattr(hopfq.checks, "state_coords", off_sphere_at_level_1)
    result = suite_base_normalization(30, np.random.default_rng(3))
    assert result.failures == 10
    assert len(result.counterexample.split()) == 2


def flip(*products):
    def edit(table):
        for left, right in products:
            table[left, right] *= -1.0
    return edit


def nudge_i2_i4(table):
    table[2, 4, [0, 6]] += 1e-15  # still prints as 1*i6 at %g


@pytest.mark.parametrize("edit, failures, max_error, text", [
    # i2 i4 = i6 from the cycle (246)
    (flip((2, 4)), 1, 2.0, "i2*i4 gave [-0., -0., -0., -0., -0., -0., -1., -0.]"),
    (flip((5, 5)), 1, 2.0, "i5^2 gave [ 1., -0., -0., -0., -0., -0., -0., -0.]"),
    # Failures are reported cycle by cycle, squares last, not in table order.
    (flip((1, 1), (7, 4)), 2, 2.0, "i7*i4 gave [-0.,  1., -0., -0., -0., -0., -0., -0.]"),
    (nudge_i2_i4, 1, (1.0 + 1e-15) - 1.0, (
        "i2*i4 gave [1.000000000000000e-15, 0.000000000000000e+00, 0.000000000000000e+00,"
        " 0.000000000000000e+00, 0.000000000000000e+00, 0.000000000000000e+00,"
        " 1.000000000000001e+00, 0.000000000000000e+00]"
    )),
], ids=["flip-i2*i4", "flip-i5^2", "flip-i1^2-i7*i4", "nudge-i2*i4"])
def test_cycle_table_suite_reports_a_flipped_unit_product(
    monkeypatch, edit, failures, max_error, text
):
    mul_coeffs = hopfq.checks.mul_coeffs

    def edited(a, b):
        table = mul_coeffs(a, b)
        edit(table)
        return table

    monkeypatch.setattr(hopfq.checks, "mul_coeffs", edited)
    result = suite_algebra_cycle_table(0, np.random.default_rng(0))
    assert (result.trials, result.failures, result.max_error) == (49, failures, max_error)
    assert result.counterexample == text


def test_a_nan_error_is_a_failure(monkeypatch):
    # NaN > tol is False, so a suite used to pass with max error nan.
    state_coords = hopfq.checks.state_coords
    nan_rows = []

    def nan_on_one_row(amplitudes):
        coords = state_coords(amplitudes)
        if amplitudes.shape[-1] == 4:
            coords[3] = np.nan
            nan_rows.append(amplitudes[3])
        return coords

    monkeypatch.setattr(hopfq.checks, "state_coords", nan_on_one_row)
    result = suite_base_normalization(30, np.random.default_rng(3))
    assert result.failures == 1
    assert np.isnan(result.max_error)
    assert result.counterexample == format_amplitudes(nan_rows[0])


PER_CUT_SUITES = [suite_e_equals_4_det_rho, suite_minor_measure_equals_e_avg]


def suite_row_errors(monkeypatch, suite, trials, seed):
    """The per-row errors that ``suite`` hands to its result."""
    seen = []
    result = hopfq.checks._result

    def capture(name, errors, tol, describe_row):
        seen.append(np.array(errors))
        return result(name, errors, tol, describe_row)

    monkeypatch.setattr(hopfq.checks, "_result", capture)
    assert suite(trials, np.random.default_rng(seed)).passed
    return seen[0]


@pytest.mark.parametrize("trials", [1, 1023, 1024, 1025, 2049])
def test_per_cut_suites_in_blocks_equal_a_whole_batch(monkeypatch, trials):
    # The suites run MUL_BLOCK = 1024 rows at a time; the reference holds
    # every row's three cuts at once.
    amps = haar_amplitudes(np.random.default_rng(9), 3, trials)
    stack = cut_stack(amps)
    e_values = cut_entanglement(amps)
    det_errors = np.abs(e_values - 4.0 * det2(reduced_density(stack)).real).max(axis=-1)
    minor_errors = np.abs(minor_sum(matrix_minors(stack)) - np.mean(e_values, axis=-1))
    got = suite_row_errors(monkeypatch, suite_e_equals_4_det_rho, trials, 9)
    assert np.array_equal(got, det_errors)
    got = suite_row_errors(monkeypatch, suite_minor_measure_equals_e_avg, trials, 9)
    assert np.array_equal(got, minor_errors)


def count_stack_builds(monkeypatch) -> list:
    """Patch ``cut_stack`` where the per-cut paths bind it; one entry per call."""
    calls = []

    def counted(amplitudes):
        calls.append(np.shape(amplitudes))
        return cut_stack(amplitudes)

    for module in (hopfq.entanglement, hopfq.checks):
        monkeypatch.setattr(module, "cut_stack", counted)
    return calls


def test_classify_and_the_per_cut_suite_build_each_stack_once(monkeypatch):
    calls = count_stack_builds(monkeypatch)
    hopfq.entanglement.classify(PureState.w())
    assert len(calls) == 1
    calls.clear()
    # 2049 rows run as blocks of 1024, 1024 and 1: one stack per block.
    assert suite_e_equals_4_det_rho(2049, np.random.default_rng(0)).passed
    assert calls == [(1024, 8), (1024, 8), (1, 8)]


@pytest.mark.parametrize("suite", PER_CUT_SUITES, ids=lambda suite: suite.__name__)
def test_per_cut_suites_hold_no_stack_of_every_row(suite):
    # The draw itself peaks at three amplitude batches (the normals, a
    # complex temporary and the state rows); a stack of all three cuts of
    # every row would add another three.
    trials = 20000
    amps_nbytes = trials * 8 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        result = suite(trials, np.random.default_rng(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak <= 3 * amps_nbytes + 2 * 2 ** 20
