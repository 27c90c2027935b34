"""The self-test suites themselves pass and report sensibly."""

import numpy as np

import hopfq.entanglement
from hopfq.checks import SUITES, run_all, suite_minor_measure_equals_e_avg


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
    # One of this seed's one-qubit draws lies within about 1e-5 of the pole,
    # where 1 - X_last used to lose the digits the suite compares.
    results = {r.name: r for r in run_all(trials=200, seed=498750681)}
    result = results["stereographic_h1_consistency"]
    assert result.passed, result.counterexample
    assert result.max_error < 1e-12
