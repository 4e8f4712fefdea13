"""Tests for the sequential odds-ratio test: increments, bounds, martingales,
and the exact exit law of a point pair's walk.

Seeded Monte Carlo checks that draw point-pair bayes records, and the
probability that each fails although the code implements its law (a re-draw
of the records fails it by chance this often).  The exact law is the walk's
exit law (``SequentialPlan.exit_law``): P(reject) 5.2272e-5, T 61.934 ±
13.752 for the honest user, P(accept) 7.4515e-11, T 18.841 ± 9.114 for an
impostor.  Means and drifts are compared by a normal approximation; band
walks, which have no exact law here, by 20,000 per-round sessions (T 45.27
± 7.85).  The other checks here are exact, or draw band and
asymmetric-pair sessions in blocks (second table), or walk round by round
(rules, and the martingale diagnostics).

===========================================================  ================
check                                                        false-failure
                                                             probability
===========================================================  ================
``test_honest_user_accepts_quickly``                         2.2e-5 (4 or
                                                             more of 3000
                                                             rejected) +
                                                             4e-13 (mean)
``test_coin_flip_impostor_rejected_quickly``                 2.2e-7 (one of
                                                             3000 accepted);
                                                             mean below
                                                             1e-300
``test_band_interrogation_is_faster_for_honest_user``        below 1e-300
                                                             (57.7 standard
                                                             errors apart)
``test_symmetric_design_attains_both_with_equality``         0.0016 a
                                                             subject (beyond
                                                             3.5 sigma, or
                                                             3 on the bound's
                                                             side)
``TestExitLawSessions`` (35 tests at 1e-3 each)              at most 0.035
===========================================================  ================

Seeded checks that draw band or asymmetric-pair bayes sessions (walks off
the lattice, which have no exit law), and the same probability.

===========================================================  ================
check                                                        false-failure
                                                             probability
===========================================================  ================
``test_published_increments`` (pair at i_tilde 62.4,         2.7e-6 (some
five fair-coin sessions)                                     spot and answer
                                                             in none of them,
                                                             by a walk DP per
                                                             spot and answer)
``test_impossible_observation_is_terminal`` (pair at         9.5e-7 (2**-20:
i_tilde 600, twenty one-round sessions)                      none of them on
                                                             the high spot)
``test_walk_reconstruction`` (bands)                         0 (the final log
                                                             odds is the
                                                             round-order sum)
``test_band_interrogation_is_faster_for_honest_user``        in the table
                                                             above
``test_block_sessions_interrogate_nothing``                  0 (structure
                                                             only)
``TestBlockSessionLaw`` (28 checks at 1e-3 each)             at most 0.028
===========================================================  ================

``TestExitLaw``, ``TestExitLawPath`` and ``TestBlockSessions`` are exact.
The martingale diagnostics walk their own round-by-round loop
(``martingale.py``).
"""

from __future__ import annotations

import dataclasses
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from scipy import special, stats

from retinasim import (
    Adaptive,
    AliceSubject,
    ConfigError,
    DomainError,
    Echo,
    FixedP,
    Outcome,
    PointPair,
    Round,
    SequentialPlan,
    SequentialResult,
    SpotClass,
    UniformBands,
    design_wrong_probability,
    drift_bounds,
    gk,
    gk_inverse,
    optimality_lower_bound,
    prior_p,
    prob_see,
    run_sequential,
    solve_q_intensity,
    stopping_time_bounds,
    UniformP,
)

import retinasim.strategy_bayes
from retinasim.photon_stats import _gk_array
from retinasim.strategy_bayes import _log_increment
from retinasim.subjects import class_seeing_means, interrogate, open_scope

from conftest import g_test_pvalue, make_rng, two_sample_g_pvalue
from martingale import martingale_diagnostics
from per_round import per_round

Q_STAR, I_STAR = solve_q_intensity(0.05, 0.15, 6)
POINT_PAIR = PointPair(0.05, 0.15)
BANDS = UniformBands((0.02, 0.05), (0.15, 0.18))


def make_plan(distribution=POINT_PAIR, p_fp=1e-10, p_fn=1e-4, **kwargs):
    return SequentialPlan.design(distribution, p_fp, p_fn, **kwargs)


class TestPriorP:
    def test_two_point_average_at_published_intensity(self):
        # (0.096 + 0.904) / 2 up to the quoted rounding.
        assert prior_p(POINT_PAIR, 62.4) == pytest.approx(0.5, abs=1e-3)

    def test_exactly_half_at_symmetric_design(self):
        assert prior_p(POINT_PAIR, I_STAR) == pytest.approx(0.5, abs=1e-9)

    def test_half_whenever_high_mirrors_low(self):
        # Construct the mirror pair directly: the high transmission is chosen
        # so its seeing probability is one minus the low one.
        i_tilde = 60.0
        q = gk(6, 0.05 * i_tilde)
        alpha_high = gk_inverse(6, 1.0 - q) / i_tilde
        assert prior_p(PointPair(0.05, alpha_high), i_tilde) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_bands_quadrature_value(self):
        assert prior_p(BANDS, I_STAR) == pytest.approx(
            0.4864812386530557, abs=1e-12
        )

    def test_bands_quadrature_against_monte_carlo(self):
        # Independent oracle: vectorized incomplete-gamma average over a
        # million sampled transmissions.
        rng = make_rng(4301)
        alphas = np.concatenate(
            [rng.uniform(0.02, 0.05, 500_000), rng.uniform(0.15, 0.18, 500_000)]
        )
        sees = special.gammainc(6, alphas * I_STAR)
        mc = sees.mean()
        se = sees.std(ddof=1) / math.sqrt(sees.size)
        assert prior_p(BANDS, I_STAR) == pytest.approx(mc, abs=3 * se)

    def test_degenerate_bands_reduce_to_two_points(self):
        degenerate = UniformBands((0.05, 0.05), (0.15, 0.15))
        assert prior_p(degenerate, I_STAR) == pytest.approx(
            prior_p(POINT_PAIR, I_STAR), abs=1e-15
        )

    def test_lies_in_admissible_interval(self):
        for dist, i_tilde in [(POINT_PAIR, I_STAR), (BANDS, I_STAR), (BANDS, 55.0)]:
            p = prior_p(dist, i_tilde)
            q = design_wrong_probability(dist, i_tilde)
            assert (1 - q) / 2 < p < (1 + q) / 2

    def test_rejects_bad_intensity_and_distribution(self):
        with pytest.raises(DomainError):
            prior_p(POINT_PAIR, -1.0)
        with pytest.raises(DomainError):
            prior_p(POINT_PAIR, math.nan)
        with pytest.raises(DomainError):
            prior_p(object(), 62.4)


class TestDesignWrongProbability:
    def test_symmetric_point(self):
        assert design_wrong_probability(POINT_PAIR, I_STAR) == pytest.approx(
            Q_STAR, abs=1e-9
        )

    def test_bands_use_inner_edges(self):
        assert design_wrong_probability(BANDS, I_STAR) == pytest.approx(
            design_wrong_probability(POINT_PAIR, I_STAR), abs=1e-15
        )

    def test_worst_side_wins_off_design(self):
        for i_tilde in (50.0, 70.0):
            expected = max(
                gk(6, 0.05 * i_tilde), 1.0 - gk(6, 0.15 * i_tilde)
            )
            assert design_wrong_probability(POINT_PAIR, i_tilde) == expected


class TestUpdateOdds:
    """The per-round odds update as ``run_sequential`` applies it: one
    ``_log_increment`` per answered round, summed into the log odds."""

    def test_uninformative_round_has_zero_increment(self):
        plan = make_plan(i_tilde=62.4)
        alpha = gk_inverse(6, plan.p) / 62.4
        increment = _log_increment(gk(plan.k, alpha * plan.i_tilde), True, plan.p)
        assert increment == pytest.approx(0.0, abs=1e-12)

    def test_published_increments(self):
        plan = SequentialPlan(
            p=0.5, x=1e-4, y=1e10, i_tilde=62.4, k=6, distribution=POINT_PAIR
        )
        rng = make_rng(4301)
        steps = set()
        for _ in range(5):
            result = run_sequential(FixedP(0.5), plan, rng)
            steps.update((r.alpha, r.saw, r.increment) for r in result.transcript)
        increments = {(alpha, saw): inc for alpha, saw, inc in steps}
        assert len(increments) == len(steps) == 4
        seen, missed = increments[(0.15, True)], increments[(0.15, False)]
        assert seen == pytest.approx(0.592, abs=1e-3)
        assert missed == pytest.approx(-1.650, abs=6e-3)
        # And against the closed form at full precision.
        p_see = prob_see(0.15, 62.4)
        assert seen == pytest.approx(math.log(p_see / 0.5), rel=1e-12)
        assert missed == pytest.approx(math.log((1 - p_see) / 0.5), rel=1e-12)

    def test_impossible_observation_is_terminal(self):
        plan = make_plan()
        increment = _log_increment(gk(plan.k, 0.0), True, plan.p)
        assert increment == -math.inf
        assert _log_increment(1.0, False, plan.p) == -math.inf
        # At this intensity the high spot is seen with probability exactly 1,
        # so "not seen" there is impossible and the session rejects at -inf.
        bright = SequentialPlan(
            p=0.5, x=1e-4, y=1e10, i_tilde=600.0, k=6, distribution=POINT_PAIR
        )
        assert gk(bright.k, 0.15 * bright.i_tilde) == 1.0
        rng = make_rng(4303)
        endings = set()
        for _ in range(20):
            result = run_sequential(FixedP(0.0), bright, rng)
            assert result.outcome is Outcome.REJECT
            if result.transcript[-1].alpha == 0.15:
                assert result.log_odds == -math.inf
                endings.add(result.transcript[-1].increment)
        assert endings == {-math.inf}

    def test_walk_reconstruction(self):
        plan = make_plan(BANDS)
        rng = make_rng(4302)
        for subject in (AliceSubject(), FixedP(0.5)):
            for _ in range(20):
                result = run_sequential(subject, plan, rng)
                assert len(result.transcript) == result.rounds
                assert result.log_odds == pytest.approx(
                    sum(r.increment for r in result.transcript), abs=1e-12
                )


class TestSequentialPlan:
    def test_design_published_targets(self):
        plan = make_plan()
        assert plan.x == 1e-4
        assert plan.y == 1e10
        assert plan.i_tilde == pytest.approx(I_STAR, abs=1e-9)
        assert plan.p == pytest.approx(0.5, abs=1e-9)
        assert plan.k == 6

    def test_design_solves_bands_from_inner_edges(self):
        plan = make_plan(BANDS)
        assert plan.i_tilde == pytest.approx(I_STAR, abs=1e-9)
        assert plan.p == pytest.approx(0.4864812386530557, abs=1e-12)

    def test_design_honours_explicit_intensity(self):
        plan = make_plan(i_tilde=62.4)
        assert plan.i_tilde == 62.4

    def test_rejects_bad_thresholds(self):
        with pytest.raises(DomainError, match="0 < x < 1 < y"):
            SequentialPlan(
                p=0.5, x=1.5, y=1e10, i_tilde=I_STAR, k=6, distribution=POINT_PAIR
            )
        with pytest.raises(DomainError, match="0 < x < 1 < y"):
            SequentialPlan(
                p=0.5, x=1e-4, y=0.9, i_tilde=I_STAR, k=6, distribution=POINT_PAIR
            )

    def test_rejects_impostor_model_outside_admissible_interval(self):
        # q ~ 0.096 here, so p must stay within about (0.452, 0.548).
        with pytest.raises(ConfigError, match="inconsistent"):
            SequentialPlan(
                p=0.3, x=1e-4, y=1e10, i_tilde=I_STAR, k=6, distribution=POINT_PAIR
            )

    def test_design_rejects_bad_targets(self):
        with pytest.raises(DomainError):
            make_plan(p_fp=0.0)
        with pytest.raises(DomainError):
            make_plan(p_fn=1.0)


class TestRunSequential:
    def test_honest_user_accepts_quickly(self):
        plan = make_plan()
        rng = make_rng(4303)
        results = [
            run_sequential(AliceSubject(), plan, rng, record_transcript=False)
            for _ in range(3000)
        ]
        rejects = sum(r.outcome is Outcome.REJECT for r in results)
        assert rejects <= 3
        assert not any(r.outcome is Outcome.TIMEOUT for r in results)
        mean_t = np.mean([r.rounds for r in results])
        se_t = np.std([r.rounds for r in results], ddof=1) / math.sqrt(3000)
        bound_alice, _ = stopping_time_bounds(Q_STAR, Q_STAR, 1e-10, 1e-4)
        assert mean_t <= bound_alice + 2 * se_t

    def test_coin_flip_impostor_rejected_quickly(self, default_map):
        plan = make_plan()
        rng = make_rng(4304)
        results = [
            run_sequential(FixedP(0.5), plan, rng, record_transcript=False)
            for _ in range(3000)
        ]
        assert all(r.outcome is Outcome.REJECT for r in results)
        q_min = gk(6, 0.02 * plan.i_tilde)
        _, bound_eve = stopping_time_bounds(Q_STAR, q_min, 1e-10, 1e-4)
        mean_t = np.mean([r.rounds for r in results])
        se_t = np.std([r.rounds for r in results], ddof=1) / math.sqrt(3000)
        assert mean_t <= bound_eve + 2 * se_t

    def test_band_interrogation_is_faster_for_honest_user(self):
        # Spreading the interrogation values over full bands gives many
        # rounds more evidence than the inner-edge pair, so sessions close
        # sooner on average.
        rng = make_rng(4305)

        def mean_rounds(distribution):
            plan = make_plan(distribution)
            rounds = [
                run_sequential(
                    AliceSubject(), plan, rng, record_transcript=False
                ).rounds
                for _ in range(3000)
            ]
            return np.mean(rounds), np.std(rounds, ddof=1) / math.sqrt(len(rounds))

        # Same generator on purpose: the comparison needs independent, not
        # paired, samples, and one stream keeps the bookkeeping simple.
        pair_mean, pair_se = mean_rounds(POINT_PAIR)
        band_mean, band_se = mean_rounds(BANDS)
        assert band_mean < pair_mean - 2 * math.hypot(pair_se, band_se)

    def test_exit_thresholds_respected(self):
        plan = make_plan()
        rng = make_rng(4306)
        ln_x, ln_y = math.log(plan.x), math.log(plan.y)
        for _ in range(40):
            result = run_sequential(AliceSubject(), plan, rng)
            if result.outcome is Outcome.ACCEPT:
                assert result.log_odds >= ln_y
            elif result.outcome is Outcome.REJECT:
                assert result.log_odds <= ln_x
            # Every partial sum before the exit stays inside the interval.
            running = 0.0
            for entry in result.transcript[:-1]:
                running += entry.increment
                assert ln_x < running < ln_y

    def test_transcript_toggle_does_not_disturb_the_walk(self):
        plan = make_plan()
        with_transcript = run_sequential(
            AliceSubject(), plan, make_rng(4307)
        )
        without = run_sequential(
            AliceSubject(), plan, make_rng(4307), record_transcript=False
        )
        assert with_transcript.outcome == without.outcome
        assert with_transcript.rounds == without.rounds
        assert with_transcript.log_odds == without.log_odds
        assert without.transcript == ()
        assert len(with_transcript.transcript) == with_transcript.rounds

    def test_round_cap_reports_timeout(self):
        plan = make_plan()
        result = run_sequential(
            AliceSubject(), plan, make_rng(4308), max_rounds=1
        )
        assert result.outcome is Outcome.TIMEOUT
        assert result.rounds == 1

    def test_rejects_bad_cap_and_subject(self):
        plan = make_plan()
        with pytest.raises(DomainError):
            run_sequential(AliceSubject(), plan, make_rng(4309), max_rounds=0)
        with pytest.raises(DomainError, match="unknown subject"):
            run_sequential(object(), plan, make_rng(4310))


def _enumerated_exits(plan, p_wrong, max_rounds):
    """Every answer path of the walk, one right or wrong answer a round, up
    to its exit or ``max_rounds``, in exact arithmetic: the mass of each
    exit ``(outcome, rounds, wrong answers)``, the lattice value compared
    with the thresholds as rationals.  No path is merged with another."""
    low, high = plan.distribution.low_band[0], plan.distribution.high_band[0]
    right = Fraction(plan._edge_rounds[low][False].increment)
    wrong = Fraction(plan._edge_rounds[low][True].increment)
    ln_x, ln_y = Fraction(math.log(plan.x)), Fraction(math.log(plan.y))
    p_wrong = Fraction(p_wrong)
    exits: dict = {}

    def walk(n, w, mass):
        value = (n - w) * right + w * wrong
        outcome = (Outcome.ACCEPT if value >= ln_y else Outcome.REJECT if value <= ln_x
                   else Outcome.TIMEOUT if n == max_rounds else None)
        if outcome is not None:
            exits[outcome, n, w] = exits.get((outcome, n, w), 0) + mass
            return
        walk(n + 1, w, mass * (1 - p_wrong))
        walk(n + 1, w + 1, mass * p_wrong)

    walk(0, 0, Fraction(1))
    return exits


class TestExitLaw:
    """The exact exit law of a symmetric point pair's walk
    (``SequentialPlan.exit_law``): the figures of its level-by-level
    recursion, and that recursion against every answer path enumerated in
    exact arithmetic."""

    def test_published_figures(self):
        plan = make_plan()
        alice = plan.exit_law(AliceSubject().p_wrong(POINT_PAIR, plan.i_tilde))
        assert alice.probability(Outcome.REJECT) == pytest.approx(5.2272e-5, rel=1e-4)
        assert alice.probability(Outcome.TIMEOUT) == 0.0
        assert alice.mean_rounds == pytest.approx(61.9335, abs=1e-4)
        impostor = plan.exit_law(0.5)
        assert impostor.probability(Outcome.ACCEPT) == pytest.approx(7.4515e-11, rel=1e-4)
        assert impostor.mean_rounds == pytest.approx(18.8405, abs=1e-4)
        # both means below their closed-form bounds
        bound_alice, bound_eve = stopping_time_bounds(
            Q_STAR, gk(6, 0.02 * plan.i_tilde), 1e-10, 1e-4)
        assert alice.mean_rounds < bound_alice and impostor.mean_rounds < bound_eve
        assert alice.margin == impostor.margin == pytest.approx(1.3535e-5, rel=1e-4)
        relaxed = make_plan(p_fp=1e-3, p_fn=1e-2)
        assert relaxed.exit_law(0.5).probability(Outcome.ACCEPT) == pytest.approx(
            7.3102e-4, rel=1e-4)
        assert relaxed.exit_law(Q_STAR).probability(Outcome.REJECT) == pytest.approx(
            5.5258e-3, rel=1e-4)
        assert relaxed.exit_law(0.5).margin == pytest.approx(6.7676e-6, rel=1e-4)

    @pytest.mark.parametrize("p_wrong", [Q_STAR, 0.5, 0.3])
    def test_masses_sum_to_one_within_the_floor(self, p_wrong):
        law = make_plan().exit_law(p_wrong)
        # The floor drops less than 2**-53; each level's products round by
        # a few units of 2**-53 more.
        slack = 4 * len(law.levels) * 2.0**-53
        assert math.fsum(law.mass) == pytest.approx(1.0, abs=slack)
        assert law.cdf[-1] == pytest.approx(1.0, abs=slack)
        assert min(law.mass) > 0.0
        # the atoms' walks are lattice walks: each exit state's value is the
        # result's final log odds, on the right side of its threshold
        ln_x, ln_y = math.log(1e-4), math.log(1e10)
        for result, w in zip(law.results, law.wrong):
            assert result.log_odds == (result.rounds - w) * law.right + w * law.wrong_step
            assert (result.log_odds >= ln_y) == (result.outcome is Outcome.ACCEPT)
            assert (result.log_odds <= ln_x) == (result.outcome is Outcome.REJECT)

    @pytest.mark.parametrize("p_wrong", [Q_STAR, 0.5])
    @pytest.mark.parametrize("max_rounds", [1, 9, 16])
    def test_matches_enumerated_answer_paths(self, p_wrong, max_rounds):
        plan = make_plan(p_fp=0.01, p_fn=0.01)
        exits = _enumerated_exits(plan, p_wrong, max_rounds)
        law = plan.exit_law(p_wrong, max_rounds)
        drawn = {(r.outcome, r.rounds, w): m
                 for r, w, m in zip(law.results, law.wrong, law.mass)}
        assert drawn.keys() == exits.keys()
        for key, mass in exits.items():
            assert drawn[key] == pytest.approx(float(mass), rel=1e-12, abs=0.0), key
        assert {outcome for outcome, _n, _w in exits} == (
            {Outcome.TIMEOUT} if max_rounds == 1 else set(Outcome))

    def test_cap_is_a_timeout_atom(self):
        law = make_plan().exit_law(0.5, max_rounds=1)
        assert [(r.outcome, r.rounds) for r in law.results] == [(Outcome.TIMEOUT, 1)] * 2
        assert law.mass == (0.5, 0.5)
        assert [r.log_odds for r in law.results] == [law.right, law.wrong_step]

    def test_only_a_symmetric_point_pair_is_a_lattice_walk(self):
        assert make_plan(BANDS).exit_law(0.5) is None
        # at i_tilde = 70 the four increments are about -2.198, -1.344,
        # +0.553 and +0.636
        assert make_plan(i_tilde=70.0).exit_law(0.5) is None
        assert make_plan(i_tilde=62.4).exit_law(0.5) is None

    def test_built_once_per_plan_rate_and_cap(self):
        law = make_plan().exit_law(0.5)
        assert make_plan().exit_law(0.5) is law
        assert make_plan().exit_law(0.5, 10_000) is law
        assert make_plan().exit_law(0.5, 500) is not law

    @pytest.mark.parametrize("p_wrong, cap", [(0.0, 10), (1.0, 10), (math.nan, 10),
                                              (0.5, 0)])
    def test_rejects_bad_arguments(self, p_wrong, cap):
        with pytest.raises(DomainError):
            make_plan().exit_law(p_wrong, cap)
        with pytest.raises(DomainError):
            make_plan(BANDS).exit_law(p_wrong, cap)

    def test_true_cap_is_refused_after_a_cap_of_one(self):
        """The law is cached by type as well as value: a ``True`` round cap
        does not read the entry a cap of 1 made, and is refused as it is on
        a cold cache."""
        plan = make_plan()
        assert plan.exit_law(0.25, 1) is not None
        with pytest.raises(DomainError, match="round cap must be an integer, got True"):
            plan.exit_law(0.25, True)


def _per_round_session(subject, plan, rng, max_rounds=10_000):
    """``(outcome, rounds, first round)`` of a session walked round by
    round: :func:`interrogate` driven by the subject's per-round twin
    (:func:`per_round.per_round`), each increment the scalar
    :func:`_log_increment` of the scalar ``gk``, the kernel every law-level
    session ran before it was drawn from its exit law or in blocks; the
    first round as ``(high class, saw)``."""
    ln_x, ln_y = math.log(plan.x), math.log(plan.y)
    log_odds, first = 0.0, None
    interrogation = interrogate(open_scope(per_round(subject), rng),
                                plan.distribution, plan.i_tilde, rng)
    for rounds, (spot_class, alpha, saw) in enumerate(interrogation, 1):
        first = first or (spot_class is SpotClass.HIGH, saw)
        log_odds += _log_increment(gk(plan.k, alpha * plan.i_tilde), saw, plan.p)
        if log_odds >= ln_y:
            return Outcome.ACCEPT, rounds, first
        if log_odds <= ln_x or rounds == max_rounds:
            return (Outcome.REJECT if log_odds <= ln_x else Outcome.TIMEOUT), rounds, first


#: Each subject whose point-pair sessions are drawn from the exit law, and
#: the chance it sees the low and the high spot.
_LAW_SUBJECTS = {
    "alice": (AliceSubject(), (gk(6, 0.05 * I_STAR), gk(6, 0.15 * I_STAR))),
    "faircoin": (FixedP(0.5), (0.5, 0.5)),
    "fixedp:0.3": (FixedP(0.3), (0.3, 0.3)),
    "uniformp": (UniformP(), (0.5, 0.5)),
    "echo": (Echo(6), (gk(6, I_STAR), gk(6, I_STAR))),
}


class TestExitLawSessions:
    """Point-pair sessions drawn from the exit law against the per-round
    kernel, which stays the oracle, and against the exact law.

    Each G-test and two-sided binomial test refuses at 1e-3, so each fails
    with probability about 1e-3 under the law it tests (the G-tests by the
    chi-square approximation, with sparse bins merged); a subject's five
    G-tests and two binomial tests fail together with probability at most
    7e-3, and the five subjects' at most 0.035.  The first round's (spot,
    answer) law tests the backward path and the class coins: marginally a
    traced session's first round is any round of the per-round kernel."""

    SESSIONS, TWIN_SESSIONS = 4000, 1500

    @pytest.fixture(scope="class", params=list(_LAW_SUBJECTS))
    def drawn(self, request):
        subject, seeing = _LAW_SUBJECTS[request.param]
        plan = make_plan()
        rng = make_rng(4331)
        law = [run_sequential(subject, plan, rng) for _ in range(self.SESSIONS)]
        rng = make_rng(4332)
        loop = [_per_round_session(subject, plan, rng)
                for _ in range(self.TWIN_SESSIONS)]
        p_wrong = 0.5 * (seeing[0] + 1.0 - seeing[1])
        return plan, law, loop, plan.exit_law(p_wrong), seeing

    def test_round_counts(self, drawn):
        _plan, law, loop, exits, _seeing = drawn
        pmf = np.zeros(max(r.rounds for r in exits.results) + 1)
        for result, mass in zip(exits.results, exits.mass):
            pmf[result.rounds] += mass
        assert g_test_pvalue([r.rounds for r in law], pmf) > 1e-3
        assert g_test_pvalue([t for _o, t, _f in loop], pmf) > 1e-3
        assert two_sample_g_pvalue([r.rounds for r in law], [t for _o, t, _f in loop],
                                   len(pmf)) > 1e-3

    def test_exits(self, drawn):
        _plan, law, loop, exits, _seeing = drawn
        rare = min((Outcome.ACCEPT, Outcome.REJECT), key=exits.probability)
        rate = exits.probability(rare)
        for outcomes in ([r.outcome for r in law], [o for o, _t, _f in loop]):
            assert Outcome.TIMEOUT not in outcomes
            observed = outcomes.count(rare)
            assert stats.binomtest(observed, len(outcomes), rate).pvalue > 1e-3

    def test_first_round(self, drawn):
        plan, law, loop, _exits, (s_low, s_high) = drawn
        pmf = [0.5 * (1 - s_low), 0.5 * s_low, 0.5 * (1 - s_high), 0.5 * s_high]
        firsts = [2 * (r.transcript[0].alpha == 0.15) + r.transcript[0].saw for r in law]
        assert g_test_pvalue(firsts, pmf) > 1e-3
        assert g_test_pvalue([2 * high + saw for _o, _t, (high, saw) in loop], pmf) > 1e-3

    def test_walks_fold_to_their_final_log_odds(self, drawn):
        plan, law, _loop, exits, _seeing = drawn
        ln_x, ln_y = math.log(plan.x), math.log(plan.y)
        for result in law:
            assert len(result.transcript) == result.rounds
            running = 0.0
            for step in result.transcript[:-1]:
                running += step.increment
                assert ln_x < running < ln_y
            running += result.transcript[-1].increment
            assert abs(running - result.log_odds) <= result.rounds * exits.fold_error
            assert result.rounds * exits.fold_error < exits.margin
            assert (running >= ln_y) == result.accepted
            assert (running <= ln_x) == (result.outcome is Outcome.REJECT)


def _two_pass_transcript(plan, law, exits, index, rng):
    """The transcript of a traced exit-law session sampled in two passes,
    as it once was: the path backward through the live bands' masses, each
    step's two terms computed afresh, then each round's class in a second
    pass."""
    bands = [(lo, masses[:-1]) for lo, masses, _totals in exits.levels]
    result = exits.results[index]
    n = rounds = result.rounds
    w = exits.wrong[index]
    uniforms = rng.random(2 * rounds).tolist()
    wrong = [False] * n
    if result.outcome is not Outcome.TIMEOUT:
        n -= 1
        if result.outcome is Outcome.REJECT:
            wrong[n] = True
            w -= 1
    keep, cross = 1.0 - exits.p_wrong, exits.p_wrong
    while n > 0:
        lo, masses = bands[n - 1]
        j = w - lo
        stay = masses[j] * keep if j < len(masses) else 0.0
        step = masses[j - 1] * cross if j > 0 else 0.0
        n -= 1
        if uniforms[n] * (stay + step) >= stay:
            wrong[n] = True
            w -= 1
    (low, _), (high, _) = plan.distribution.low_band, plan.distribution.high_band
    s_low = law.p_seen(low * plan.i_tilde, low)
    s_high = law.p_seen(high * plan.i_tilde, high)
    high_given = (s_high / (s_high + 1.0 - s_low), (1.0 - s_high) / (1.0 - s_high + s_low))
    low_rounds, high_rounds = plan._edge_rounds[low], plan._edge_rounds[high]
    return tuple(high_rounds[not erred] if u < high_given[erred] else low_rounds[erred]
                 for erred, u in zip(wrong, uniforms[rounds:]))


class TestExitLawPath:
    @pytest.mark.parametrize("subject", ["alice", "faircoin", "uniformp", "echo"])
    def test_tracing_never_changes_the_result(self, subject):
        subject = _LAW_SUBJECTS[subject][0]
        plan = make_plan()
        for seed in range(4340, 4440):
            traced = run_sequential(subject, plan, make_rng(seed))
            untraced = run_sequential(subject, plan, make_rng(seed),
                                      record_transcript=False)
            assert (traced.outcome, traced.rounds, traced.log_odds) == (
                untraced.outcome, untraced.rounds, untraced.log_odds)
            assert len(traced.transcript) == traced.rounds and untraced.transcript == ()

    @pytest.mark.parametrize("subject, draws", [("alice", 1), ("faircoin", 1),
                                                ("uniformp", 2), ("echo", 1)])
    def test_untraced_session_reads_one_uniform(self, subject, draws):
        """One uniform picks the exit; the uniform bias draws hers first."""
        rng, twin = make_rng(4441), make_rng(4441)
        run_sequential(_LAW_SUBJECTS[subject][0], make_plan(), rng,
                       record_transcript=False)
        twin.random(draws)
        assert rng.random(4).tolist() == twin.random(4).tolist()
        assert repr(rng.bit_generator.state) == repr(twin.bit_generator.state)

    @pytest.mark.parametrize("subject", list(_LAW_SUBJECTS))
    def test_traced_session_reads_two_uniforms_a_round(self, subject):
        """After its untraced draws, one uniform a round for the path and
        one for the class."""
        subject = _LAW_SUBJECTS[subject][0]
        rng, twin = make_rng(4441), make_rng(4441)
        result = run_sequential(subject, make_plan(), rng)
        run_sequential(subject, make_plan(), twin, record_transcript=False)
        twin.random(2 * result.rounds)
        assert rng.random(4).tolist() == twin.random(4).tolist()
        assert repr(rng.bit_generator.state) == repr(twin.bit_generator.state)

    @pytest.mark.parametrize("max_rounds", [10_000, 12], ids=["uncapped", "timeouts"])
    @pytest.mark.parametrize("subject", ["alice", "faircoin", "echo"])
    def test_one_pass_matches_the_two_pass_sampler(self, subject, max_rounds):
        """For every atom of the law, the same transcript, entry for entry,
        as :func:`_two_pass_transcript` from a twin generator, and the same
        draws."""
        plan = make_plan(p_fp=1e-3, p_fn=1e-2)
        law = open_scope(_LAW_SUBJECTS[subject][0], make_rng(4444))
        exits = plan.exit_law(law.p_wrong(plan.distribution, plan.i_tilde), max_rounds)
        outcomes = {result.outcome for result in exits.results}
        assert (Outcome.TIMEOUT in outcomes) == (max_rounds == 12)
        for index, result in enumerate(exits.results):
            rng, twin = make_rng(4445 + index), make_rng(4445 + index)
            traced = retinasim.strategy_bayes._traced_exit(plan, law, exits, index, rng)
            reference = _two_pass_transcript(plan, law, exits, index, twin)
            assert traced.transcript == reference
            assert all(map(operator.is_, traced.transcript, reference))
            assert (traced.outcome, traced.rounds, traced.log_odds) == (
                result.outcome, result.rounds, result.log_odds)
            assert repr(rng.bit_generator.state) == repr(twin.bit_generator.state)

    @pytest.mark.parametrize("subject", [Adaptive(lambda _ctx: 0.5)], ids=["rule"])
    def test_other_sessions_walk_round_by_round(self, subject, monkeypatch):
        """Only a rule, whose law gives no probability, is interrogated."""
        interrogations = []
        monkeypatch.setattr(retinasim.strategy_bayes, "interrogate",
                            lambda *args: interrogations.append(args) or interrogate(*args))
        result = run_sequential(subject, make_plan(), make_rng(4442))
        assert len(interrogations) == 1
        assert len(result.transcript) == result.rounds
        running = 0.0
        for step in result.transcript:
            running += step.increment
        assert result.log_odds == running

    @pytest.mark.parametrize("plan, subject", [
        (make_plan(i_tilde=70.0), AliceSubject()),
        (make_plan(i_tilde=70.0), FixedP(0.5)),
        (make_plan(BANDS), AliceSubject()),
        (make_plan(BANDS), FixedP(0.3)),
        (make_plan(BANDS), Echo(6)),
    ], ids=["asymmetric-alice", "asymmetric-faircoin", "bands-alice", "bands-fixedp",
            "bands-echo"])
    def test_block_sessions_interrogate_nothing(self, plan, subject, monkeypatch):
        monkeypatch.setattr(retinasim.strategy_bayes, "interrogate", None)
        result = run_sequential(subject, plan, make_rng(4442))
        assert len(result.transcript) == result.rounds
        running = 0.0
        for step in result.transcript:
            running += step.increment
        assert result.log_odds == running

    def test_law_sessions_interrogate_nothing(self, monkeypatch):
        monkeypatch.setattr(retinasim.strategy_bayes, "interrogate", None)
        plan = make_plan()
        for subject in _LAW_SUBJECTS:
            run_sequential(_LAW_SUBJECTS[subject][0], plan, make_rng(4443))


def _reference_session(subject, plan, rng, max_rounds=10_000):
    """A block session transcribed round by round: each round reads its
    three uniforms one ``rng.random()`` at a time (the class coin, high
    below 1/2; the transmission in that class's band; the answer, "seen"
    below the law's seeing probability) and adds its increment to the log
    odds with ``+=``, stopping at the first value at or beyond a threshold.
    The seeing probabilities and the logarithm are the kernel's elementwise
    NumPy functions, on one-element arrays, so the records compare exactly."""
    ln_x, ln_y = math.log(plan.x), math.log(plan.y)
    law = open_scope(subject, rng)
    (a, b), (c, d) = plan.distribution.low_band, plan.distribution.high_band
    log_odds, transcript = 0.0, []
    for rounds in range(1, max_rounds + 1):
        lo, hi = (c, d) if rng.random() < 0.5 else (a, b)
        alpha = lo + (hi - lo) * rng.random()
        x = np.array([alpha * plan.i_tilde])
        see = float(_gk_array(plan.k, x)[0])
        saw = bool(rng.random() < np.broadcast_to(law.p_seen(x, np.array([alpha])), 1)[0])
        ratio = (see if saw else 1.0 - see) / (plan.p if saw else 1.0 - plan.p)
        increment = float(np.log(np.array([ratio]))[0]) if ratio > 0.0 else -math.inf
        transcript.append(Round(alpha, saw, increment))
        log_odds += increment
        if log_odds >= ln_y or log_odds <= ln_x:
            outcome = Outcome.ACCEPT if log_odds >= ln_y else Outcome.REJECT
            return SequentialResult(outcome, rounds, log_odds, tuple(transcript))
    return SequentialResult(Outcome.TIMEOUT, max_rounds, log_odds, tuple(transcript))


#: Plans and subjects whose sessions are drawn in blocks: band
#: distributions and an asymmetric point pair, the honest user (also at a
#: threshold other than the plan's), the biases, and answers no honest
#: user could give (the high spot missed at a pulse it always sees).
_BLOCK_CASES = {
    "bands-alice": (make_plan(BANDS), AliceSubject()),
    "bands-alice-k7": (make_plan(BANDS), AliceSubject(k=7)),
    "bands-faircoin": (make_plan(BANDS), FixedP(0.5)),
    "bands-fixedp": (make_plan(BANDS), FixedP(0.3)),
    "bands-uniformp": (make_plan(BANDS), UniformP()),
    "bands-echo": (make_plan(BANDS), Echo(6)),
    "asymmetric-alice": (make_plan(i_tilde=70.0), AliceSubject()),
    "asymmetric-faircoin": (make_plan(i_tilde=70.0), FixedP(0.5)),
    "impossible": (SequentialPlan(p=0.5, x=1e-4, y=1e10, i_tilde=600.0, k=6,
                                  distribution=BANDS), FixedP(0.0)),
}


class TestBlockSessions:
    """Sessions drawn in blocks against a scalar transcription of the same
    draws, and against themselves under other block sizes and without a
    transcript.  All exact."""

    @pytest.mark.parametrize("max_rounds", [10_000, 70, 3])
    @pytest.mark.parametrize("case", list(_BLOCK_CASES))
    def test_matches_the_scalar_reference(self, case, max_rounds):
        plan, subject = _BLOCK_CASES[case]
        for seed in range(4460, 4500):
            assert run_sequential(subject, plan, make_rng(seed), max_rounds) == (
                _reference_session(subject, plan, make_rng(seed), max_rounds))

    @pytest.mark.parametrize("case", ["bands-alice", "bands-uniformp", "asymmetric-faircoin"])
    def test_records_do_not_depend_on_the_block_size(self, case, monkeypatch):
        plan, subject = _BLOCK_CASES[case]

        def records(block):
            monkeypatch.setattr(retinasim.strategy_bayes, "_BLOCK_ROUNDS", block)
            return [run_sequential(subject, plan, make_rng(seed), max_rounds)
                    for seed in range(4500, 4530) for max_rounds in (10_000, 50)]

        assert records(1) == records(7) == records(64) == records(500)

    @pytest.mark.parametrize("case", list(_BLOCK_CASES))
    def test_tracing_changes_no_draw(self, case):
        plan, subject = _BLOCK_CASES[case]
        for seed in range(4530, 4560):
            rng, twin = make_rng(seed), make_rng(seed)
            traced = run_sequential(subject, plan, rng)
            untraced = run_sequential(subject, plan, twin, record_transcript=False)
            assert untraced == dataclasses.replace(traced, transcript=())
            assert len(traced.transcript) == traced.rounds
            assert repr(rng.bit_generator.state) == repr(twin.bit_generator.state)


#: Each block-drawn subject, tested against its per-round twin
#: (:func:`per_round.per_round`), with its distribution and intensity and
#: its chance of "seen" on each class at the plan's intensity: the class
#: means of ``gk`` for the honest user, the bias for a biased impostor (the
#: uniform bias's, marginally, 1/2), and for ``echo``, whose count reads no
#: transmission, gk(6, i_tilde).
_BLOCK_LAW_SUBJECTS = {
    "bands-alice": (BANDS, None, AliceSubject(), class_seeing_means(BANDS, I_STAR, 6)),
    "bands-faircoin": (BANDS, None, FixedP(0.5), (0.5, 0.5)),
    "bands-fixedp:0.3": (BANDS, None, FixedP(0.3), (0.3, 0.3)),
    "bands-uniformp": (BANDS, None, UniformP(), (0.5, 0.5)),
    "bands-echo": (BANDS, None, Echo(6), (gk(6, I_STAR), gk(6, I_STAR))),
    "asymmetric-alice": (POINT_PAIR, 70.0, AliceSubject(),
                         (gk(6, 0.05 * 70.0), gk(6, 0.15 * 70.0))),
    "asymmetric-faircoin": (POINT_PAIR, 70.0, FixedP(0.5), (0.5, 0.5)),
}


class TestBlockSessionLaw:
    """Block sessions against the per-round kernel, which stays the oracle.

    No exit law is known off the lattice, so the two samples are compared
    with each other: the round counts at the design targets by a
    two-sample G-test, and the exits at relaxed targets (p_fp = p_fn =
    0.02, where both exits are common) by the binomial law of the block
    sample's share of the accepting sessions, given how many there were.
    The first round's (class, answer) is tested against its exact law in
    both samples.  Each of these four checks refuses at 1e-3, so fails
    with probability about 1e-3 under the law it tests (the G-tests by the
    chi-square approximation, with sparse bins merged); a subject's fail
    together with probability at most 4e-3, and the seven subjects' at most
    0.028."""

    SESSIONS, TWIN_SESSIONS = 4000, 1500

    @pytest.fixture(scope="class", params=list(_BLOCK_LAW_SUBJECTS))
    def drawn(self, request):
        distribution, i_tilde, subject, seeing = _BLOCK_LAW_SUBJECTS[request.param]
        samples = []
        for seed, targets in ((4561, (1e-10, 1e-4)), (4563, (0.02, 0.02))):
            plan = make_plan(distribution, *targets, i_tilde=i_tilde)
            rng = make_rng(seed)
            blocks = [run_sequential(subject, plan, rng) for _ in range(self.SESSIONS)]
            rng = make_rng(seed + 1)
            walks = [_per_round_session(subject, plan, rng)
                     for _ in range(self.TWIN_SESSIONS)]
            samples.append((blocks, walks))
        return samples, seeing

    def test_round_counts(self, drawn):
        ((blocks, walks), _relaxed), _seeing = drawn
        rounds = [r.rounds for r in blocks]
        size = max(rounds + [t for _o, t, _f in walks]) + 1
        assert two_sample_g_pvalue(rounds, [t for _o, t, _f in walks], size) > 1e-3

    def test_exits(self, drawn):
        (_design, (blocks, walks)), _seeing = drawn
        outcomes = [r.outcome for r in blocks], [o for o, _t, _f in walks]
        assert all(Outcome.TIMEOUT not in sample for sample in outcomes)
        accepted = [sample.count(Outcome.ACCEPT) for sample in outcomes]
        share = len(blocks) / (len(blocks) + len(walks))
        assert stats.binomtest(accepted[0], sum(accepted), share).pvalue > 1e-3

    def test_first_round(self, drawn):
        ((blocks, walks), _relaxed), (s_low, s_high) = drawn
        pmf = [0.5 * (1 - s_low), 0.5 * s_low, 0.5 * (1 - s_high), 0.5 * s_high]
        low_top = BANDS.low_band[1]
        firsts = [2 * (r.transcript[0].alpha > low_top) + r.transcript[0].saw
                  for r in blocks]
        assert g_test_pvalue(firsts, pmf) > 1e-3
        assert g_test_pvalue([2 * high + saw for _o, _t, (high, saw) in walks], pmf) > 1e-3


class TestStoppingTimeBounds:
    def test_published_arithmetic(self):
        q_min = gk(6, 0.02 * 62.4)
        assert q_min == pytest.approx(0.0018235567238850962, abs=1e-15)
        bound_alice, bound_eve = stopping_time_bounds(0.1, q_min, 1e-10, 1e-4)
        assert bound_alice == pytest.approx(64.7288, abs=1e-3)
        assert bound_eve == pytest.approx(29.2066, abs=1e-3)

    def test_alice_bound_reported_form(self):
        # ln(2 / (0.9 * 1e-10)) / H(0.1 | 1/2) = 23.824 / 0.3681.
        bound_alice, _ = stopping_time_bounds(0.1, 0.0018, 1e-10, 1e-4)
        assert bound_alice == pytest.approx(23.824 / 0.3681, abs=0.05)

    def test_alice_bound_diverges_as_q_approaches_half(self):
        values = [
            stopping_time_bounds(q, 1e-3, 1e-10, 1e-4)[0]
            for q in (0.1, 0.4, 0.49, 0.4999)
        ]
        assert values == sorted(values)
        assert values[-1] > 1e5

    def test_eve_bound_positive_and_shrinks_with_relaxed_target(self):
        tight = stopping_time_bounds(0.1, 1e-3, 1e-10, 1e-6)[1]
        loose = stopping_time_bounds(0.1, 1e-3, 1e-10, 1e-2)[1]
        assert 0 < loose < tight

    @pytest.mark.parametrize(
        "call",
        [
            lambda: stopping_time_bounds(0.0, 1e-3, 1e-10, 1e-4),
            lambda: stopping_time_bounds(0.5, 1e-3, 1e-10, 1e-4),
            lambda: stopping_time_bounds(0.1, 0.0, 1e-10, 1e-4),
            lambda: stopping_time_bounds(0.1, 0.2, 1e-10, 1e-4),
            lambda: stopping_time_bounds(0.1, 1e-3, 0.0, 1e-4),
            lambda: stopping_time_bounds(0.1, 1e-3, 1e-10, 1.0),
        ],
    )
    def test_rejects_out_of_domain_arguments(self, call):
        with pytest.raises(DomainError):
            call()


class TestDriftBounds:
    def test_published_values(self):
        mu_alice, mu_eve = drift_bounds(0.1)
        assert mu_alice == pytest.approx(0.3681, abs=1e-4)
        assert mu_eve == pytest.approx(-0.5108, abs=1e-4)

    def test_limits(self):
        mu_alice, mu_eve = drift_bounds(1e-9)
        assert mu_alice == pytest.approx(math.log(2), abs=1e-6)
        assert mu_eve < -9.0
        mu_alice, mu_eve = drift_bounds(0.4)
        assert mu_alice == pytest.approx(0.020136, abs=1e-5)
        assert mu_eve == pytest.approx(-0.020411, abs=1e-5)
        assert mu_alice > 0 > mu_eve

    @pytest.mark.parametrize("q", [0.0, 0.5, -0.2])
    def test_rejects_out_of_domain(self, q):
        with pytest.raises(DomainError):
            drift_bounds(q)

    def test_symmetric_design_attains_both_with_equality(self):
        # For the two-point symmetric design the drift guarantees are exact;
        # estimate per-round drift as total movement over total rounds
        # (consistent for stopped walks).
        plan = make_plan()
        mu_alice_min, mu_eve_max = drift_bounds(Q_STAR)

        def measured_drift(subject, seed):
            rng = make_rng(seed)
            finals, lengths = [], []
            for _ in range(2000):
                r = run_sequential(subject, plan, rng, record_transcript=False)
                finals.append(r.log_odds)
                lengths.append(r.rounds)
            finals = np.array(finals)
            lengths = np.array(lengths, dtype=float)
            drift = finals.sum() / lengths.sum()
            spread = math.sqrt(np.sum((finals - drift * lengths) ** 2))
            return drift, spread / lengths.sum()

        drift, se = measured_drift(AliceSubject(), 4311)
        assert drift == pytest.approx(mu_alice_min, abs=3.5 * se)
        assert drift >= mu_alice_min - 3 * se
        drift, se = measured_drift(FixedP(0.5), 4312)
        assert drift == pytest.approx(mu_eve_max, abs=3.5 * se)
        assert drift <= mu_eve_max + 3 * se


class TestOptimalityLowerBound:
    def test_published_floor(self):
        assert optimality_lower_bound(0.1, 1e-10) == 57

    def test_trivial_target(self):
        assert optimality_lower_bound(0.1, 0.999999) == 1

    def test_monotone_in_target(self):
        floors = [optimality_lower_bound(0.1, p) for p in (1e-6, 1e-10, 1e-14)]
        assert floors == sorted(floors)

    def test_against_exact_binomial_oracle(self):
        # Smallest N whose coin-flip impostor can be rejected at the target
        # by thresholding wrong answers at the honest rate q.
        q, p_fp = 0.2, 1e-10
        exact = next(
            n
            for n in range(1, 400)
            if stats.binom.cdf(math.floor(q * n), n, 0.5) < p_fp
        )
        assert exact == 104
        floor = optimality_lower_bound(q, p_fp)
        assert floor == 106
        assert abs(floor - exact) <= 5

    @pytest.mark.parametrize(
        "call",
        [
            lambda: optimality_lower_bound(0.0, 1e-10),
            lambda: optimality_lower_bound(0.5, 1e-10),
            lambda: optimality_lower_bound(0.1, 0.0),
            lambda: optimality_lower_bound(0.1, 1.0),
        ],
    )
    def test_rejects_out_of_domain_arguments(self, call):
        with pytest.raises(DomainError):
            call()


class TestMartingaleDiagnostics:
    def test_coin_flip_impostor_odds_are_a_martingale(self, default_map):
        plan = make_plan()
        report = martingale_diagnostics(
            plan, FixedP(0.5), 10_000, 10, make_rng(4313)
        )
        assert report.statistic == "R_n"
        assert report.checkpoints == (1, 5, 10)
        assert report.max_sigma_deviation() <= 3.0

    def test_adaptive_impostor_cannot_beat_it(self, default_map):
        # Echo rule: claim to see whenever the detector count is at least the
        # pulse mean — adaptivity does not move the martingale mean.
        plan = make_plan(BANDS)
        echo = Adaptive(
            lambda ctx: 1.0 if ctx.photon_count >= plan.i_tilde else 0.0
        )
        report = martingale_diagnostics(
            plan, echo, 10_000, 10, make_rng(4314)
        )
        assert report.max_sigma_deviation() <= 3.0

    def test_honest_user_reciprocal_odds_are_a_martingale(self):
        plan = make_plan()
        report = martingale_diagnostics(
            plan, AliceSubject(), 10_000, 10, make_rng(4315)
        )
        assert report.statistic == "1/R_n"
        assert report.max_sigma_deviation() <= 3.0

    def test_rejects_bad_arguments(self):
        plan = make_plan()
        with pytest.raises(DomainError):
            martingale_diagnostics(
                plan, AliceSubject(), 10_000, 0, make_rng(4316)
            )
        with pytest.raises(DomainError):
            martingale_diagnostics(
                plan, AliceSubject(), 1, 10, make_rng(4317)
            )
        with pytest.raises(DomainError, match="unknown subject"):
            martingale_diagnostics(plan, object(), 100, 10, make_rng(4318))
