"""Tests for the fixed-length wrong-answer-counting test and its sizing.

Seeded statistical checks and the probability that each fails although the
code implements its law (a re-draw of the records passes or fails them by
chance with this probability; every other check here is exact).  Each
wrong-answer count the serial runner draws is binomial, with per-round
probability q* = ``Q_STAR`` for the honest user at the operating point and
1/2 for a fair coin, so a binomial-tail or 3σ check's probability is its
law's mass on the counts the check refuses, summed in 50-digit arithmetic.
A G-test's has no closed form: its figure is the share of 50,000 simulated
re-draws of the exact count law that the test refuses.

=========================================================  ==================
check                                                      false-failure
                                                           probability
=========================================================  ==================
``test_honest_user_wrong_rate_and_reject_envelope``        0.0027 (3σ,
                                                           Bin(568000, q*))
                                                           + 3.0e-9 (4 or
                                                           more of 4000
                                                           sessions rejected,
                                                           each with 4.1e-6)
``test_fair_coin_exact_pass_law``                          0.0027 (3σ passes,
                                                           Bin(5000,
                                                           0.00321)) + 0.0027
                                                           (3σ wrong answers,
                                                           Bin(200000, 1/2))
                                                           + 1e-128 (passes
                                                           above the
                                                           envelope)
``test_honest_per_round_wrong_rate_within_design_bound``   0.0027 (3σ,
                                                           Bin(100000, q*);
                                                           rate <= q lies
                                                           inside it)
``test_off_design_perception_threshold_errs_more``         0.0042 (2050 or
                                                           fewer of 20000
                                                           rounds wrong,
                                                           Bin(20000,
                                                           0.10827))
``test_honest_count_is_binomial[point-pair]``,             0.0011, 0.0010,
``[point-pair-k7]``, ``[bands]``                           0.0012 (G-test at
                                                           1e-3; simulated,
                                                           ±0.00016)
``test_biased_impostor_count_is_fair_binomial[faircoin]``  0.0033 each (three
and ``[uniformp]``                                         G-tests; simulated,
                                                           ±0.00026)
``test_generator_draws_do_not_grow_with_session_length``   0.013, 0.0032 (one
``[alice]``, ``[eve-faircoin]``                            of 8 sessions moves
                                                           the counter past
                                                           two blocks;
                                                           simulated over
                                                           10^5 seeds per
                                                           length, ±0.0007,
                                                           ±0.0004)
=========================================================  ==================
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import integrate, stats

from retinasim import (
    Adaptive,
    AliceSubject,
    DomainError,
    EveStrategy,
    FixedP,
    InfeasibleError,
    PointPair,
    SerialPlan,
    SerialResult,
    UniformBands,
    UniformP,
    build_subject,
    relative_entropy,
    run_serial,
    solve_q_intensity,
    solve_w_N,
)

from conftest import g_test_pvalue, make_rng, two_sample_g_pvalue

# Jointly solved symmetric operating point for the (0.05, 0.15) pair at the
# default perception threshold; pinned in the photon-statistics tests.
Q_STAR = 0.09609142535110174
I_STAR = 62.325443741826


class TestRelativeEntropy:
    def test_published_values(self):
        assert relative_entropy(0.22, 0.5) == pytest.approx(0.1663, abs=1e-4)
        assert relative_entropy(0.1, 0.5) == pytest.approx(0.3681, abs=1e-4)

    @pytest.mark.parametrize("x", [0.03, 0.5, 0.97])
    def test_zero_at_reference(self, x):
        assert relative_entropy(x, x) == 0.0

    def test_degenerate_reference(self):
        assert relative_entropy(0.0, 0.0) == 0.0
        assert relative_entropy(1.0, 1.0) == 0.0
        assert relative_entropy(0.3, 0.0) == math.inf
        assert relative_entropy(0.3, 1.0) == math.inf

    def test_extreme_arguments_close_form(self):
        assert relative_entropy(0.0, 0.25) == pytest.approx(-math.log(0.75), rel=1e-12)
        assert relative_entropy(1.0, 0.25) == pytest.approx(-math.log(0.25), rel=1e-12)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: relative_entropy(-0.1, 0.5),
            lambda: relative_entropy(1.1, 0.5),
            lambda: relative_entropy(math.nan, 0.5),
            lambda: relative_entropy(0.5, -0.1),
            lambda: relative_entropy(0.5, 1.1),
        ],
    )
    def test_rejects_out_of_range(self, call):
        with pytest.raises(DomainError):
            call()

    @given(
        x=st.floats(min_value=0.0, max_value=1.0),
        y=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_nonnegative(self, x, y):
        assert relative_entropy(x, y) >= 0.0

    @given(
        y=st.floats(min_value=0.05, max_value=0.95),
        step=st.floats(min_value=1e-3, max_value=0.4),
        extra=st.floats(min_value=1e-3, max_value=0.4),
    )
    def test_grows_away_from_reference(self, y, step, extra):
        near, far = y + step, y + step + extra
        assume(far <= 1.0)
        assert relative_entropy(far, y) >= relative_entropy(near, y)


class TestSolveWN:
    def test_published_sizing(self):
        w, n = solve_w_N(0.1, 1e-10, 1e-4)
        assert 0.21 <= w <= 0.23
        assert w == pytest.approx(0.22322404898749623, abs=1e-12)
        assert n == 142

    def test_sizing_at_solved_operating_point(self):
        # Feeding the solver the exact symmetric-design wrong-answer rate
        # (rather than its one-digit rounding) lands on the round count the
        # protocol was announced with.
        w, n = solve_w_N(Q_STAR, 1e-10, 1e-4)
        assert w == pytest.approx(0.21950201192459104, abs=1e-12)
        assert n == 138

    @pytest.mark.parametrize(
        ("q", "p_fp", "p_fn"),
        [(0.1, 1e-10, 1e-4), (0.05, 1e-10, 1e-4), (0.3, 1e-6, 1e-2), (0.2, 1e-3, 1e-3)],
    )
    def test_balance_equation_holds_at_root(self, q, p_fp, p_fn):
        w, n = solve_w_N(q, p_fp, p_fn)
        assert q < w < 0.5
        need_fn = math.log(1.0 / p_fn) / relative_entropy(w, q)
        need_fp = math.log(1.0 / p_fp) / relative_entropy(w, 0.5)
        assert need_fn == pytest.approx(need_fp, rel=1e-9)
        assert n == math.ceil(max(need_fn, need_fp))

    def test_symmetric_targets(self):
        w, n = solve_w_N(0.1, 1e-6, 1e-6)
        assert relative_entropy(w, 0.5) == pytest.approx(
            relative_entropy(w, 0.1), rel=1e-9
        )
        assert n == math.ceil(math.log(1e6) / relative_entropy(w, 0.5))

    def test_smaller_q_needs_fewer_rounds(self):
        _, n_tight = solve_w_N(0.05, 1e-10, 1e-4)
        _, n_loose = solve_w_N(0.1, 1e-10, 1e-4)
        assert n_tight < n_loose

    def test_grid_search_oracle(self):
        # Independent minimization of the larger exponential-bound
        # requirement over a dense decision-fraction grid.
        q, p_fp, p_fn = 0.05, 1e-10, 1e-4
        w_grid = np.linspace(q + 1e-9, 0.5 - 1e-9, 2_000_001)
        h_q = w_grid * np.log(w_grid / q) + (1 - w_grid) * np.log(
            (1 - w_grid) / (1 - q)
        )
        h_half = w_grid * np.log(2 * w_grid) + (1 - w_grid) * np.log(
            2 * (1 - w_grid)
        )
        need = np.maximum(math.log(1 / p_fn) / h_q, math.log(1 / p_fp) / h_half)
        _, n = solve_w_N(q, p_fp, p_fn)
        assert n == math.ceil(need.min())

    def test_no_room_between_q_and_one_half_refused(self):
        # q within the solver's 1e-12 margin of 1/2 leaves an empty bracket.
        with pytest.raises(InfeasibleError, match=r"no decision fraction exists in \("):
            solve_w_N(0.5 - 1e-13, 1e-10, 1e-4)

    def test_rounds_monotone_in_impostor_target(self):
        sizes = [solve_w_N(0.1, p_fp, 1e-4)[1] for p_fp in (1e-6, 1e-10, 1e-14)]
        assert sizes == sorted(sizes)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: solve_w_N(0.0, 1e-10, 1e-4),
            lambda: solve_w_N(0.5, 1e-10, 1e-4),
            lambda: solve_w_N(-0.1, 1e-10, 1e-4),
            lambda: solve_w_N(0.1, 0.0, 1e-4),
            lambda: solve_w_N(0.1, 1.0, 1e-4),
            lambda: solve_w_N(0.1, 1e-10, 0.0),
            lambda: solve_w_N(0.1, 1e-10, 1.0),
        ],
    )
    def test_rejects_out_of_domain_arguments(self, call):
        with pytest.raises(DomainError):
            call()


class TestSerialPlan:
    def test_valid_plan(self):
        plan = SerialPlan(q=0.1, w=0.22, n_rounds=138)
        assert plan.q == 0.1
        assert plan.w == 0.22
        assert plan.n_rounds == 138

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(q=0.1, w=0.08, n_rounds=10),  # w below q
            dict(q=0.1, w=0.1, n_rounds=10),  # w equal to q
            dict(q=0.1, w=0.5, n_rounds=10),  # w at the coin-flip rate
            dict(q=0.1, w=0.6, n_rounds=1),  # w beyond it
            dict(q=0.0, w=0.2, n_rounds=10),
            dict(q=0.1, w=0.22, n_rounds=0),
        ],
    )
    def test_rejects_inconsistent_plans(self, kwargs):
        with pytest.raises(DomainError):
            SerialPlan(**kwargs)


PUBLISHED_PLAN = SerialPlan(q=0.1, w=0.22322404898749623, n_rounds=142)
POINT_PAIR = PointPair(0.05, 0.15)


class TestRunSerial:
    def test_honest_user_wrong_rate_and_reject_envelope(self, default_map):
        # At the symmetric operating point each round is wrong with
        # probability exactly Q_STAR, whichever class was drawn.
        rng = make_rng(4201)
        results = [
            run_serial(
                AliceSubject(),
                default_map,
                PUBLISHED_PLAN,
                I_STAR,
                6,
                rng,
                distribution=POINT_PAIR,
            )
            for _ in range(4000)
        ]
        total_rounds = 4000 * PUBLISHED_PLAN.n_rounds
        wrong_rate = sum(r.wrong_answers for r in results) / total_rounds
        se = math.sqrt(Q_STAR * (1 - Q_STAR) / total_rounds)
        assert wrong_rate == pytest.approx(Q_STAR, abs=3 * se)

        rejects = sum(not r.accepted for r in results)
        envelope = math.exp(
            -PUBLISHED_PLAN.n_rounds * relative_entropy(PUBLISHED_PLAN.w, 0.1)
        )
        assert (
            stats.binomtest(rejects, 4000, envelope, alternative="greater").pvalue
            > 1e-3
        )

    def test_fair_coin_exact_pass_law(self, default_map):
        # A coin-flipping impostor is wrong with probability exactly 1/2
        # per round, so her pass probability is a binomial tail we can
        # write down; check the simulation sits on it and under the
        # exponential envelope.
        plan = SerialPlan(q=0.1, w=0.3, n_rounds=40)
        rng = make_rng(4202)
        results = [
            run_serial(
                FixedP(0.5),
                default_map,
                plan,
                I_STAR,
                6,
                rng,
                distribution=POINT_PAIR,
            )
            for _ in range(5000)
        ]
        threshold = math.ceil(plan.n_rounds * plan.w)
        exact = stats.binom.cdf(threshold - 1, plan.n_rounds, 0.5)
        pass_rate = sum(r.accepted for r in results) / 5000
        se = math.sqrt(exact * (1 - exact) / 5000)
        assert pass_rate == pytest.approx(exact, abs=3 * se)
        assert pass_rate <= math.exp(-plan.n_rounds * relative_entropy(plan.w, 0.5))

        total_rounds = 5000 * plan.n_rounds
        wrong_rate = sum(r.wrong_answers for r in results) / total_rounds
        se_round = math.sqrt(0.25 / total_rounds)
        assert wrong_rate == pytest.approx(0.5, abs=3 * se_round)

    def test_honest_per_round_wrong_rate_within_design_bound(self, default_map):
        plan = SerialPlan(q=0.1, w=0.22, n_rounds=100_000)
        result = run_serial(
            AliceSubject(),
            default_map,
            plan,
            I_STAR,
            6,
            make_rng(4203),
            distribution=POINT_PAIR,
        )
        rate = result.wrong_answers / plan.n_rounds
        se = math.sqrt(Q_STAR * (1 - Q_STAR) / plan.n_rounds)
        assert rate <= plan.q
        assert rate == pytest.approx(Q_STAR, abs=3 * se)

    def test_off_design_perception_threshold_errs_more(self, default_map):
        # The intensity is tuned for a threshold of 6; a subject whose
        # perception needs 7 photons sits off the symmetric point and must
        # answer wrongly more often.
        plan = SerialPlan(q=0.1, w=0.22, n_rounds=20_000)
        result = run_serial(
            AliceSubject(k=7),
            default_map,
            plan,
            I_STAR,
            6,
            make_rng(4204),
            distribution=POINT_PAIR,
        )
        rate = result.wrong_answers / plan.n_rounds
        se = math.sqrt(rate * (1 - rate) / plan.n_rounds)
        assert rate > Q_STAR + 3 * se

    def test_result_shape_and_determinism(self, default_map):
        plan = SerialPlan(q=0.1, w=0.3, n_rounds=25)
        first = run_serial(
            FixedP(0.5),
            default_map,
            plan,
            I_STAR,
            6,
            make_rng(4205),
            distribution=POINT_PAIR,
        )
        again = run_serial(
            FixedP(0.5),
            default_map,
            plan,
            I_STAR,
            6,
            make_rng(4205),
            distribution=POINT_PAIR,
        )
        assert first == again
        assert isinstance(first, SerialResult)
        assert first.rounds == plan.n_rounds
        assert 0 <= first.wrong_answers <= plan.n_rounds
        assert first.accepted == (first.wrong_answers < plan.n_rounds * plan.w)

    def test_unknown_subject_rejected(self, default_map):
        plan = SerialPlan(q=0.1, w=0.3, n_rounds=25)
        with pytest.raises(DomainError, match="unknown subject"):
            run_serial(
                object(),
                default_map,
                plan,
                I_STAR,
                6,
                make_rng(4206),
                distribution=POINT_PAIR,
            )


class _PerRoundUniformP(EveStrategy):
    """The uniform-bias law answered round by round: the bias is drawn once
    per session, as in UniformP, but handed over as an Adaptive rule, so the
    session's law gives no per-round probability."""

    def session(self, rng):
        p = float(rng.random())
        return Adaptive(lambda _ctx: p)


def _philox_counter(rng) -> int:
    words = rng.bit_generator.state["state"]["counter"]
    return sum(int(word) << (64 * i) for i, word in enumerate(words))


def _band_mean_seeing(band, i_tilde, k):
    # Independent of the package: the Poisson survival function averaged
    # over the band by scipy's quadrature.
    a, b = band
    if a == b:
        return stats.poisson.sf(k - 1, a * i_tilde)
    total, _err = integrate.quad(
        lambda alpha: stats.poisson.sf(k - 1, alpha * i_tilde), a, b
    )
    return total / (b - a)


class TestLawLevelDraws:
    """The honest user and every biased impostor session draw their
    wrong-answer count in one binomial step; an adaptive impostor keeps the
    per-round path.  The counts must follow the exact law, and match the
    per-round path's counts where both can run."""

    PLAN = SerialPlan(q=0.1, w=0.3, n_rounds=60)

    def _wrong_counts(self, subject, alpha_map, seed, sessions, distribution=POINT_PAIR):
        rng = make_rng(seed)
        return [
            run_serial(subject, alpha_map, self.PLAN, I_STAR, 6, rng,
                       distribution=distribution).wrong_answers
            for _ in range(sessions)
        ]

    @pytest.mark.parametrize(
        "distribution,k",
        [(POINT_PAIR, 6), (POINT_PAIR, 7),
         (UniformBands((0.02, 0.05), (0.15, 0.18)), 6)],
        ids=["point-pair", "point-pair-k7", "bands"],
    )
    def test_honest_count_is_binomial(self, distribution, k, default_map):
        low = _band_mean_seeing(distribution.low_band, I_STAR, k)
        high = _band_mean_seeing(distribution.high_band, I_STAR, k)
        q_bar = 0.5 * (low + 1.0 - high)
        if (distribution, k) == (POINT_PAIR, 6):
            assert q_bar == pytest.approx(Q_STAR, rel=1e-9)
        counts = self._wrong_counts(AliceSubject(k=k), default_map, 4260, 4000,
                                    distribution)
        n = self.PLAN.n_rounds
        assert g_test_pvalue(counts, stats.binom.pmf(range(n + 1), n, q_bar)) > 1e-3

    @pytest.mark.parametrize(
        "strategy,twin",
        [(FixedP(0.5), Adaptive(lambda _ctx: 0.5)), (UniformP(), _PerRoundUniformP())],
        ids=["faircoin", "uniformp"],
    )
    def test_biased_impostor_count_is_fair_binomial(self, strategy, twin, default_map):
        n = self.PLAN.n_rounds
        counts = self._wrong_counts(strategy, default_map, 4261, 4000)
        assert g_test_pvalue(counts, stats.binom.pmf(range(n + 1), n, 0.5)) > 1e-3
        per_round = self._wrong_counts(twin, default_map, 4262, 1500)
        assert g_test_pvalue(per_round, stats.binom.pmf(range(n + 1), n, 0.5)) > 1e-3
        assert two_sample_g_pvalue(counts, per_round, n + 1) > 1e-3

    @pytest.mark.parametrize(
        "subject", [AliceSubject(), FixedP(0.5)],
        ids=["alice", "eve-faircoin"],
    )
    def test_generator_draws_do_not_grow_with_session_length(self, subject, default_map):
        # One binomial draw per session, so the counter moves by a few blocks
        # of four outputs whether the session has a thousand rounds or a
        # hundred thousand.  The bound of 2 holds at these four seeds, not at
        # every seed: the sampler's rejection step can repeat, and over
        # 20,000 fresh seeds per case 0.05% to 0.33% of sessions moved it
        # by 3 or more.
        for seed in range(4270, 4274):
            for n_rounds in (1_000, 100_000):
                rng = make_rng(seed)
                start = _philox_counter(rng)
                run_serial(subject, default_map,
                           SerialPlan(q=0.1, w=0.3, n_rounds=n_rounds), I_STAR, 6, rng,
                           distribution=POINT_PAIR)
                assert _philox_counter(rng) - start <= 2, (seed, n_rounds)

    def test_adaptive_rule_runs_once_per_round(self, default_map):
        echo = build_subject("eve:echo", 6)
        rounds = []

        def counted(context):
            rounds.append(context.round_index)
            return echo.rule(context)

        plan = SerialPlan(q=0.1, w=0.3, n_rounds=500)
        result = run_serial(Adaptive(counted), default_map, plan, I_STAR, 6,
                            make_rng(4263), distribution=POINT_PAIR)
        assert rounds == list(range(plan.n_rounds))
        assert result.rounds == plan.n_rounds
