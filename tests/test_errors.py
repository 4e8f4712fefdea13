"""The argument rules of ``retinasim.errors`` as the package's entry points
apply them: a perception threshold and every count is a whole number, a
real argument is a number inside its interval, and each refusal is a
:class:`DomainError` (a :class:`ConfigError` where a plan's spot count
says so)."""

import math

import numpy as np
import pytest
from conftest import make_rng

from retinasim import (
    AliceSubject,
    AlphaMap,
    ConfigError,
    DomainError,
    FixedP,
    NaiveTestPlan,
    PatternPlan,
    PointPair,
    RecognitionRule,
    SequentialPlan,
    SerialPlan,
    UniformBands,
    acceptance_counts,
    alice_failure_bound,
    alice_response,
    build_challenge,
    false_positive_rate,
    generate_synthetic,
    gk,
    gk_inverse,
    glyph_library,
    optimize_intensity,
    prob_see,
    run_naive,
    run_pattern_test,
    run_sequential,
    simulate_perception,
    solve_q_intensity,
    solve_w_N,
    trial_rng,
)
from retinasim.errors import _real
from retinasim.subjects import class_seeing_means

PLAN = SequentialPlan.design(PointPair(0.05, 0.15), 1e-10, 1e-4)
NAIVE_PLAN = NaiveTestPlan(nu=50, mu=5, p_c=0.5, n_l=9, n_r=42)


def _perceived(k, alpha_map):
    challenge = build_challenge(alpha_map, glyph_library(), "2", 75, make_rng(5))
    return simulate_perception(challenge, alpha_map, k, make_rng(6)).tolist()


#: Each entry point that takes a perception threshold, called with one.
THRESHOLD_CALLS = {
    "gk": lambda k, _map: gk(k, 3.0),
    "gk_inverse": lambda k, _map: gk_inverse(k, 0.3),
    "prob_see": lambda k, _map: prob_see(0.1, 30.0, k),
    "alice_response": lambda k, _map: alice_response(0.1, 30.0, k, make_rng(1)),
    "run_sequential": lambda k, _map: run_sequential(
        AliceSubject(k=k), PLAN, make_rng(2)),
    "run_pattern_test": lambda k, alpha_map: run_pattern_test(
        AliceSubject(k=k), PatternPlan(alpha_map, 2, 10, RecognitionRule(5, 5)),
        make_rng(3)),
    "simulate_perception": _perceived,
    "class_seeing_means": lambda k, _map: class_seeing_means(
        UniformBands((0.02, 0.05), (0.15, 0.18)), 62.0, k),
    "solve_q_intensity": lambda k, _map: solve_q_intensity(0.05, 0.15, k),
    "SequentialPlan.design": lambda k, _map: SequentialPlan.design(
        PointPair(0.05, 0.15), 1e-10, 1e-4, k=k),
    "run_naive": lambda k, alpha_map: run_naive(
        AliceSubject(), alpha_map, NAIVE_PLAN, make_rng(4), k=k),
    "optimize_intensity": lambda k, _map: optimize_intensity(
        25, 75, 5, 5, 0.04, 0.16, k, 6),
}


@pytest.mark.parametrize("bad", [2.5, True, 0], ids=repr)
@pytest.mark.parametrize("entry", THRESHOLD_CALLS)
def test_a_threshold_counts_whole_photons(entry, bad, default_map):
    with pytest.raises(DomainError, match="threshold K"):
        THRESHOLD_CALLS[entry](bad, default_map)


@pytest.mark.parametrize("entry", THRESHOLD_CALLS)
def test_a_numpy_threshold_is_its_integer(entry, default_map):
    call = THRESHOLD_CALLS[entry]
    assert call(np.int64(6), default_map) == call(6, default_map)


#: Calls that pass a count which is not a whole number of at least its least
#: value.
BAD_COUNTS = {
    "SerialPlan n_rounds": lambda: SerialPlan(q=0.096, w=0.2, n_rounds=2.5),
    "NaiveTestPlan nu": lambda: NaiveTestPlan(nu=2.5, mu=1, p_c=0.5, n_l=0, n_r=2),
    "NaiveTestPlan n_r": lambda: NaiveTestPlan(nu=3, mu=1, p_c=0.5, n_l=0, n_r=2.5),
    "RecognitionRule k": lambda: RecognitionRule(1.5, 2),
    "acceptance_counts nu": lambda: acceptance_counts(0.5, True, 0.5, 1),
    "trial_rng bool seed": lambda: trial_rng(True, 0),
    "trial_rng float seed": lambda: trial_rng(1.5, 0),
    "run_sequential max_rounds": lambda: run_sequential(
        AliceSubject(), PLAN, make_rng(7), max_rounds=2.5),
    "false_positive_rate": lambda: false_positive_rate(40, 1.5),
    "alice_failure_bound m": lambda: alice_failure_bound(25, 75, 5, 5, 0.1, 0.01, 1.5),
    "generate_synthetic width": lambda: generate_synthetic(10.5, 10, 0.02, 0.18, 1),
}


@pytest.mark.parametrize("entry", BAD_COUNTS)
def test_a_count_is_a_whole_number(entry):
    with pytest.raises(DomainError, match="must be an integer"):
        BAD_COUNTS[entry]()


def test_a_plan_spot_count_is_refused_as_a_config_error():
    for mu in (0, 2.5, True):
        with pytest.raises(ConfigError, match="spot count"):
            NaiveTestPlan(nu=50, mu=mu, p_c=0.5, n_l=9, n_r=42)


def test_value_types_keep_their_checked_counts_as_ints():
    assert type(SerialPlan(q=0.096, w=0.2, n_rounds=np.int64(40)).n_rounds) is int
    assert type(AliceSubject(k=np.int64(6)).k) is int
    assert AliceSubject(k=np.int64(6)) == AliceSubject(k=6)
    assert RecognitionRule(np.int32(5), 5) == RecognitionRule(5, 5)


#: Calls that pass a real argument the rule refuses: a bool, NaN, or a value
#: outside its interval.
BAD_REALS = {
    "prob_see bool alpha": lambda: prob_see(True, 30.0),
    "gk NaN mean": lambda: gk(6, math.nan),
    "FixedP bool": lambda: FixedP(True),
    "FixedP NaN": lambda: FixedP(math.nan),
    "FixedP above 1": lambda: FixedP(1.5),
    "solve_w_N q of 1/2": lambda: solve_w_N(0.5, 1e-10, 1e-4),
    "solve_w_N NaN target": lambda: solve_w_N(0.1, math.nan, 1e-4),
    "acceptance_counts p_fp above 1": lambda: acceptance_counts(0.5, 50, 1.5, 50),
}


@pytest.mark.parametrize("entry", BAD_REALS)
def test_a_real_argument_lies_in_its_interval(entry):
    with pytest.raises(DomainError, match="^invalid "):
        BAD_REALS[entry]()


def test_a_fixed_bias_is_checked_when_made():
    assert FixedP(np.float64(0.25)).p == 0.25
    assert type(FixedP(1).p) is float
    assert FixedP(0.25).session(make_rng(8)).p == 0.25


#: Entry points that take a real argument, called with one.
REAL_CALLS = {
    "_real": lambda x: _real("x", x, "(0, 1)"),
    "gk": lambda x: gk(6, x),
    "prob_see": lambda x: prob_see(x, 30.0),
    "UniformBands": lambda x: UniformBands((x, 0.05), (0.15, 0.18)),
    "solve_q_intensity": lambda x: solve_q_intensity(x, 0.15),
}


@pytest.mark.parametrize("bad", ["0.05", None, 1 + 2j, 10**400],
                         ids=["str", "None", "complex", "10**400"])
@pytest.mark.parametrize("entry", REAL_CALLS)
def test_a_real_argument_is_a_real_number(entry, bad):
    with pytest.raises(DomainError, match="^invalid "):
        REAL_CALLS[entry](bad)


#: Entry points with a real argument that only a relation to another bounds,
#: called with one there.
RELATION_CALLS = {
    "AlphaMap alpha_min": lambda x, _map: AlphaMap(1, 1, [0.1], x, 0.18),
    "AlphaMap alpha_max": lambda x, _map: AlphaMap(1, 1, [0.1], 0.02, x),
    "generate_synthetic": lambda x, _map: generate_synthetic(10, 10, x, 0.18, 1),
    "build_challenge low_max": lambda x, alpha_map: build_challenge(
        alpha_map, glyph_library(), "2", 75, make_rng(5), low_max=x),
    "build_challenge high_min": lambda x, alpha_map: build_challenge(
        alpha_map, glyph_library(), "2", 75, make_rng(5), high_min=x),
    "optimize_intensity": lambda x, _map: optimize_intensity(25, 75, 5, 5, x, 0.16, 6, 6),
    "PatternPlan low_max": lambda x, alpha_map: PatternPlan(
        alpha_map, 6, 40, RecognitionRule(5, 5), low_max=x),
    "PatternPlan high_min": lambda x, alpha_map: PatternPlan(
        alpha_map, 6, 40, RecognitionRule(5, 5), high_min=x),
}


# Lists, sets and dicts too: the pattern class edges key a cache, where an
# unhashable value would fail before its check.
@pytest.mark.parametrize("bad", ["0.04", None, 1 + 2j, [0.04], {0.04}, {"low": 0.04}],
                         ids=["str", "None", "complex", "list", "set", "dict"])
@pytest.mark.parametrize("entry", RELATION_CALLS)
def test_a_real_bounded_by_a_relation_is_a_real_number(entry, bad, default_map):
    with pytest.raises(DomainError, match="^invalid "):
        RELATION_CALLS[entry](bad, default_map)
