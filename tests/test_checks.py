"""The self-test suites themselves pass and report sensibly."""

import numpy as np
import pytest

import hopfq.checks
import hopfq.entanglement
from hopfq.checks import (
    SUITES,
    run_all,
    suite_algebra_cycle_table,
    suite_base_normalization,
    suite_fibration_round_trip,
    suite_minor_measure_equals_e_avg,
)
from hopfq.qubit_states import haar_amplitudes


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


@pytest.mark.parametrize("flips, text", [
    ([(2, 4)], "i2*i4 gave -1*i6"),  # i2 i4 = i6 from the cycle (246)
    ([(5, 5)], "i5^2 gave 1"),
    # Failures are reported cycle by cycle, squares last, not in table order.
    ([(1, 1), (7, 4)], "i7*i4 gave 1*i1"),
])
def test_cycle_table_suite_reports_a_flipped_unit_product(monkeypatch, flips, text):
    mul_coeffs = hopfq.checks.mul_coeffs

    def flipped(a, b, level):
        table = mul_coeffs(a, b, level)
        for left, right in flips:
            table[left, right] *= -1.0
        return table

    monkeypatch.setattr(hopfq.checks, "mul_coeffs", flipped)
    result = suite_algebra_cycle_table(0, np.random.default_rng(0))
    assert (result.trials, result.failures, result.max_error) == (49, len(flips), 1.0)
    assert result.counterexample == text
