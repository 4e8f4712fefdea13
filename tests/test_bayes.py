"""Tests for the sequential odds-ratio test: increments, bounds, martingales."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import special, stats

from retinasim import (
    Adaptive,
    AliceSubject,
    ConfigError,
    DomainError,
    FixedP,
    Outcome,
    PointPair,
    SequentialPlan,
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
)

from retinasim.strategy_bayes import _log_increment

from conftest import make_rng
from martingale import martingale_diagnostics

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
