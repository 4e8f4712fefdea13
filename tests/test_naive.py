"""Tests for the per-spot interrogation protocol (planning and runner).

Seeded statistical checks and the probability that each fails although the
code implements its law (a re-draw of the records passes or fails them by
chance with this probability; every other check here is exact).  Each count
the naive runner draws is binomial, so a binomial-tail check's probability is
its law's mass on the counts the check refuses, summed in 50-digit
arithmetic.  A G-test's has no closed form: its figure is the share of 50,000
simulated re-draws of the exact law it tests (the pooled counts, or
echo's first-spot count or first failing position) that the test refuses.

=====================================================  ======================
check                                                  false-failure
                                                       probability
=====================================================  ======================
``test_honest_user_reject_rate_within_target``         4.2e-4 (4 or more of
                                                       2000 sessions
                                                       rejected, each with
                                                       probability 1.69e-4)
``test_uniform_bias_impostor_pass_rate``               6.4e-6 (9 or more of
                                                       2000 accepted, each
                                                       with 6.22e-4) + 4.7e-4
                                                       (pooled per-spot 3.5σ
                                                       check, over the
                                                       sessions' stopping
                                                       law)
``test_uniform_count_law_single_spot``                 0.0027 (3σ, Bin(3000,
                                                       32/51))
``test_uniform_count_law_vectorized``                  0.0027 (3σ,
                                                       Bin(100000, 32/51))
``test_bias_redrawn_for_every_spot``                   0.0027 (3σ, Bin(3000,
                                                       1/27)); the check
                                                       against the shared
                                                       bias 8e-124
``test_result_records_all_spot_counts_on_accept``      1.7e-4 (one honest
                                                       session rejected)
``test_honest_counts_are_binomial[6]``, ``[7]``        0.0013, 0.0010 (G-test
                                                       at 1e-3; simulated,
                                                       ±0.00016)
``test_fair_coin_exact_acceptance_and_counts``         1.9e-4 (two-sided
                                                       binomtest: 2995 or
                                                       fewer of 3000
                                                       accepted) + 0.0026
                                                       (three G-tests;
                                                       simulated, ±0.00023)
``test_uniform_bias_counts_are_uniform``               0.0027 (three G-tests;
                                                       simulated, ±0.00023)
``TestEchoLaw::test_first_spot_counts``                0.0031 (three G-tests;
                                                       simulated, ±0.00025)
``TestEchoLaw::test_first_failing_position``           0.0035 (three G-tests;
                                                       simulated, ±0.00026)
``TestExitLawSessions::test_first_failing_position``   alice-narrow 0.0031,
                                                       fixedp-default 0.0024,
                                                       uniformp-relaxed
                                                       0.0020 (two G-tests,
                                                       summed; simulated,
                                                       ±0.0004)
``TestExitLawSessions::test_passing_counts``           0.0013, 0.0014, 0.0010
                                                       (G-test; simulated,
                                                       ±0.00026)
``TestExitLawSessions::test_failing_counts``           0.0012, 0.0010, 0.0011
                                                       (G-test; simulated,
                                                       ±0.00025)
``TestExitLawSessions::test_accepts``                  8.9e-4, 9.3e-4, 2.7e-4
                                                       (two-sided binomtest
                                                       on 4000 sessions)
=====================================================  ======================

The :class:`TestExitLawSessions` figures are given in the cell order
alice-narrow, fixedp-default, uniformp-relaxed.  Those of its G-tests are
the shares of 20,000 simulated re-draws of the exact law (4,000 sessions
against 2,000 of the oracle) that each refuses; those of ``test_accepts``
are the binomial law's mass on the accept counts it refuses.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from retinasim import (
    Adaptive,
    AlphaMap,
    AliceSubject,
    ConfigError,
    DomainError,
    FixedP,
    InfeasibleError,
    NaiveResult,
    NaiveTestPlan,
    RunConfig,
    UniformP,
    acceptance_counts,
    build_subject,
    generate_synthetic,
    gk,
    prepare,
    relative_entropy,
    required_nu,
    run_naive,
    run_session,
    run_trial,
    trial_rng,
)

from retinasim import strategy_naive
from retinasim.cli import main
from retinasim.subjects import (
    _binomial_pmf,
    _echo,
    _uniform_pmf,
    open_scope,
    spot_count_law,
)

from conftest import g_test_pvalue, make_rng, two_sample_g_pvalue
from per_round import per_round

# Published working point: 50 spots at 50 pulses each, tuned to a coin-flip
# seeing probability, with a 1e-10 impostor budget.
PUBLISHED = dict(p_c=0.5, nu=50, p_fp=1e-10, mu=50)


class TestAcceptanceCounts:
    def test_published_window(self):
        assert acceptance_counts(**PUBLISHED) == (9, 42)

    def test_impostor_budget_respected_exactly(self):
        n_l, n_r = acceptance_counts(**PUBLISHED)
        per_spot = (n_r - n_l - 1) / (PUBLISHED["nu"] + 1)
        assert per_spot <= PUBLISHED["p_fp"] ** (1.0 / PUBLISHED["mu"])

    def test_half_width_in_probability_units(self):
        # Wide-regime arithmetic: half the per-spot budget, ~0.316 here.
        n_l, n_r = acceptance_counts(**PUBLISHED)
        half_width = (n_r - n_l) / 2.0 / PUBLISHED["nu"]
        expected = 0.5 * PUBLISHED["p_fp"] ** (1.0 / PUBLISHED["mu"])
        assert half_width == pytest.approx(expected, abs=0.02)

    def test_window_roughly_symmetric_about_center(self):
        n_l, n_r = acceptance_counts(**PUBLISHED)
        center = PUBLISHED["nu"] * PUBLISHED["p_c"]
        assert abs((n_r - center) - (center - n_l)) <= 1.0

    def test_vacuous_budget_rejected(self):
        # p_fp = 1 accepts every count; there is no test left to run.
        with pytest.raises(InfeasibleError, match="vacuous"):
            acceptance_counts(0.5, 50, 1.0, 50)

    def test_budget_too_tight_for_any_window(self):
        with pytest.raises(InfeasibleError, match="increase nu or relax p_fp"):
            acceptance_counts(0.5, 50, 1e-10, 1)

    def test_window_clipped_without_warning_near_edge(self):
        # Clipped at the top: the edges show it, and nothing warns (the
        # suite runs with every warning an error).
        n_l, n_r = acceptance_counts(0.95, 50, 1e-3, 5)
        assert n_r == 50
        assert n_l < 50 * 0.95 < n_r

    @pytest.mark.parametrize(
        "call",
        [
            lambda: acceptance_counts(0.0, 50, 1e-3, 5),
            lambda: acceptance_counts(1.0, 50, 1e-3, 5),
            lambda: acceptance_counts(math.nan, 50, 1e-3, 5),
            lambda: acceptance_counts(0.5, 0, 1e-3, 5),
            lambda: acceptance_counts(0.5, 50, 1e-3, 0),
            lambda: acceptance_counts(0.5, 50, 0.0, 5),
            lambda: acceptance_counts(0.5, 50, 1.5, 5),
        ],
    )
    def test_rejects_out_of_domain_arguments(self, call):
        with pytest.raises(DomainError):
            call()

    def test_every_window_straddles_the_centre(self):
        """Every width the budget checks let through (2..nu+1) gives a
        window inside [0, nu] that straddles nu * p_c, so the rule needs no
        refusal of its own.  The p_c grid holds centres near both ends,
        centres off the half-integers (j/997) and on them (i/8)."""
        p_cs = [1e-9, 1 - 1e-9, *(j / 997 for j in range(1, 997, 20)),
                *(i / 8 for i in range(1, 8))]
        for p_c in p_cs:
            for nu in range(1, 201):
                for width in range(2, nu + 2):
                    n_l, n_r = strategy_naive._window(p_c, nu, width)
                    assert 0 <= n_l < nu * p_c < n_r <= nu, (p_c, nu, width)
                    assert n_r - n_l == min(width, nu), (p_c, nu, width)

    @given(
        p_c=st.floats(min_value=0.05, max_value=0.95),
        nu=st.integers(min_value=1, max_value=300),
        mu=st.integers(min_value=1, max_value=60),
        p_fp=st.floats(min_value=1e-15, max_value=0.99),
    )
    @settings(max_examples=150)
    def test_window_postconditions(self, p_c, nu, mu, p_fp):
        try:
            n_l, n_r = acceptance_counts(p_c, nu, p_fp, mu)
        except InfeasibleError:
            assume(False)
        assert 0 <= n_l < n_r <= nu
        assert n_l < nu * p_c < n_r
        assert (n_r - n_l - 1) / (nu + 1) <= p_fp ** (1.0 / mu) * (1 + 1e-12)
        # The resulting window always yields a constructible plan.
        NaiveTestPlan(nu=nu, mu=mu, p_c=p_c, n_l=n_l, n_r=n_r)


class TestChernoffEnvelope:
    """The exponential tail bounds must dominate the exact binomial tails."""

    @pytest.mark.parametrize("nu", [8, 20, 40, 50])
    @pytest.mark.parametrize("p_c", [0.35, 0.5, 0.65])
    @pytest.mark.parametrize("p_fp", [0.3, 0.05])
    def test_bound_dominates_exact_tail(self, nu, p_c, p_fp):
        try:
            n_l, n_r = acceptance_counts(p_c, nu, p_fp, 1)
        except InfeasibleError:
            pytest.skip("no window at this budget")
        exact = stats.binom.cdf(n_l, nu, p_c) + stats.binom.sf(n_r - 1, nu, p_c)
        bound = math.exp(-nu * relative_entropy(n_r / nu, p_c)) + math.exp(
            -nu * relative_entropy(n_l / nu, p_c)
        )
        assert exact <= bound * (1 + 1e-12)


class TestRequiredNu:
    def test_published_sizing(self):
        nu = required_nu(1e-10, 1e-4, 50, 0.5)
        assert nu == 50
        assert 2300 <= nu * 50 <= 2800

    def test_minimality_at_published_point(self):
        # One fewer pulse per spot must violate the honest-failure estimate.
        def session_failure(nu: int) -> float:
            n_l, n_r = acceptance_counts(0.5, nu, 1e-10, 50)
            w = (
                math.exp(-nu * relative_entropy(n_r / nu, 0.5))
                + math.exp(-nu * relative_entropy(n_l / nu, 0.5))
            ) / math.sqrt(2.0 * nu)
            return 1.0 - (1.0 - w) ** 50

        assert session_failure(50) <= 1e-4
        assert session_failure(49) > 1e-4

    def test_relaxing_false_negative_target_never_increases_nu(self):
        sizes = [required_nu(1e-10, p_fn, 50, 0.5) for p_fn in (1e-6, 1e-4, 1e-2)]
        assert sizes == sorted(sizes, reverse=True)

    @pytest.mark.parametrize("mu", [25, 50, 100])
    def test_total_pulses_monotone_in_impostor_target(self, mu):
        totals = [
            required_nu(p_fp, 1e-4, mu, 0.5) * mu for p_fp in (1e-6, 1e-10, 1e-14)
        ]
        assert totals == sorted(totals)

    @staticmethod
    def _plain_scan(p_fp, p_fn, mu, p_c, limit):
        """The first nu in 1..limit that meets both targets, every nu tried."""
        for nu in range(1, limit + 1):
            try:
                n_l, n_r = acceptance_counts(p_c, nu, p_fp, mu)
            except InfeasibleError:
                continue
            w = (
                math.exp(-nu * relative_entropy(n_r / nu, p_c))
                + math.exp(-nu * relative_entropy(n_l / nu, p_c))
            ) / math.sqrt(2.0 * nu)
            if w < 1.0 and 1.0 - (1.0 - w) ** mu <= p_fn:
                return nu
        return None

    @pytest.mark.parametrize("p_c", [0.3, 0.5])
    @pytest.mark.parametrize("mu", [1, 3, 20, 50])
    @pytest.mark.parametrize("p_fn", [1e-4, 1e-2])
    @pytest.mark.parametrize("p_fp", [1e-10, 1e-3, 0.1])
    def test_matches_the_plain_scan(self, p_fp, p_fn, mu, p_c, monkeypatch):
        """Starting at the first nu with a two-count window skips only
        counts the plain scan skips; a lowered limit keeps the infeasible
        cases small."""
        limit = 3000
        monkeypatch.setattr(strategy_naive, "_NU_SEARCH_LIMIT", limit)
        expected = self._plain_scan(p_fp, p_fn, mu, p_c, limit)
        if expected is None:
            with pytest.raises(InfeasibleError, match=f"no nu <= {limit}"):
                required_nu(p_fp, p_fn, mu, p_c)
        else:
            assert required_nu(p_fp, p_fn, mu, p_c) == expected

    @staticmethod
    def _count_windows(monkeypatch):
        """Record the arguments of every window the scan sizes."""
        calls = []
        window = strategy_naive._window
        monkeypatch.setattr(strategy_naive, "_window",
                            lambda *args: calls.append(args) or window(*args))
        return calls

    def test_no_window_within_the_limit_is_refused_without_a_scan(self, monkeypatch):
        calls = self._count_windows(monkeypatch)
        with pytest.raises(InfeasibleError, match="no nu <= 1000000"):
            required_nu(1e-10, 1e-4, 1, 0.5)
        assert calls == []
        # The first window of two counts: 0.1 * (nu + 1) >= 1 at nu = 9.
        assert required_nu(0.1, 1e-2, 1, 0.5) == 379
        assert [args[1] for args in calls] == list(range(9, 380))

    @pytest.mark.parametrize("mu", [2, 3])
    def test_hopeless_plan_is_refused_without_a_scan(self, mu, monkeypatch):
        """At the default targets a window exists from nu ~ 10^5 (mu = 2) or
        ~ 2 * 10^3 (mu = 3) on, but none ever holds the honest count's
        spread: the lower bound on w refuses before any window is sized."""
        calls = self._count_windows(monkeypatch)
        with pytest.raises(InfeasibleError, match="no nu <= 1000000"):
            required_nu(1e-10, 1e-4, mu, 0.5)
        assert calls == []

    def test_vacuous_budget_is_refused_without_a_scan(self, monkeypatch):
        """Below 1, p_fp**(1/mu) can round to 1: then every window accepts
        every count, at every nu, and no scan can find a test."""
        calls = self._count_windows(monkeypatch)
        with pytest.raises(InfeasibleError, match="the plan is vacuous"):
            required_nu(1 - 2**-53, 1e-4, 50, 0.5)
        assert calls == []

    @pytest.mark.parametrize(
        "call",
        [
            lambda: required_nu(0.0, 1e-4, 50, 0.5),
            lambda: required_nu(1e-10, 1.0, 50, 0.5),
            lambda: required_nu(1e-10, 1e-4, 0, 0.5),
            lambda: required_nu(1e-10, 1e-4, 50, 1.0),
        ],
    )
    def test_rejects_out_of_domain_arguments(self, call):
        with pytest.raises(DomainError):
            call()


class TestPlanValidation:
    @pytest.mark.parametrize(
        ("kwargs", "exc"),
        [
            (dict(nu=0, mu=50, p_c=0.5, n_l=0, n_r=1), DomainError),
            (dict(nu=50, mu=0, p_c=0.5, n_l=9, n_r=42), ConfigError),
            (dict(nu=50, mu=50, p_c=1.0, n_l=9, n_r=42), DomainError),
            (dict(nu=50, mu=50, p_c=0.5, n_l=42, n_r=9), DomainError),
            (dict(nu=50, mu=50, p_c=0.5, n_l=-1, n_r=42), DomainError),
            (dict(nu=50, mu=50, p_c=0.5, n_l=9, n_r=51), DomainError),
            # Window entirely above the tuned center.
            (dict(nu=50, mu=50, p_c=0.5, n_l=30, n_r=40), DomainError),
        ],
    )
    def test_rejects_inconsistent_plans(self, kwargs, exc):
        with pytest.raises(exc):
            NaiveTestPlan(**kwargs)


def _published_plan() -> NaiveTestPlan:
    n_l, n_r = acceptance_counts(**PUBLISHED)
    return NaiveTestPlan(
        nu=PUBLISHED["nu"], mu=PUBLISHED["mu"], p_c=PUBLISHED["p_c"], n_l=n_l, n_r=n_r
    )


class TestRunNaive:
    def test_honest_user_reject_rate_within_target(self, default_map):
        plan = _published_plan()
        rng = make_rng(4101)
        results = [
            run_naive(AliceSubject(), default_map, plan, rng)
            for _ in range(2000)
        ]
        rejects = sum(not r.accepted for r in results)
        # Consistency with the 1e-4 design target (one-sided binomial test).
        assert stats.binomtest(rejects, 2000, 1e-4, alternative="greater").pvalue > 1e-3
        assert all(r.spots_tested == plan.mu for r in results if r.accepted)

    def test_honest_failure_exact_arithmetic_near_target(self):
        # The sizing uses a sharpened (prefactor-corrected) tail estimate, so
        # the exact binomial failure probability can sit slightly above the
        # nominal target; pin it to the same order of magnitude.
        plan = _published_plan()
        per_spot = stats.binom.cdf(plan.n_l, plan.nu, plan.p_c) + stats.binom.sf(
            plan.n_r - 1, plan.nu, plan.p_c
        )
        session = 1.0 - (1.0 - per_spot) ** plan.mu
        assert session <= 5e-4

    def test_uniform_bias_impostor_pass_rate(self, default_map):
        # Relaxed budget so passes are observable in a modest run.
        n_l, n_r = acceptance_counts(0.5, 50, 1e-3, 50)
        plan = NaiveTestPlan(nu=50, mu=50, p_c=0.5, n_l=n_l, n_r=n_r)
        per_spot = (n_r - n_l - 1) / (plan.nu + 1)

        rng = make_rng(4102)
        results = [
            run_naive(UniformP(), default_map, plan, rng)
            for _ in range(2000)
        ]
        passes = sum(r.accepted for r in results)
        assert stats.binomtest(passes, 2000, 1e-3, alternative="greater").pvalue > 1e-3

        # Sharper check on the exact per-spot law, pooled over all spot tests:
        # every tested spot is an independent uniform-count trial.
        total_spots = sum(r.spots_tested for r in results)
        spot_passes = sum(
            r.spots_tested - (0 if r.accepted else 1) for r in results
        )
        se = math.sqrt(per_spot * (1 - per_spot) / total_spots)
        assert spot_passes / total_spots == pytest.approx(per_spot, abs=3.5 * se)

    def test_fair_coin_beats_uniform_bias_at_default_plan(self):
        """The window is sized against the uniform bias, but a fair coin
        answers with the honest law Bin(nu, p_C = 1/2) and passes almost
        always: exact acceptance probabilities at the default plan."""
        plan = prepare(RunConfig(strategy="naive")).naive_plan
        assert (plan.nu, plan.mu, plan.p_c, plan.n_l, plan.n_r) == (50, 50, 0.5, 9, 42)
        inside = range(plan.n_l + 1, plan.n_r)
        coin_spot = Fraction(sum(math.comb(plan.nu, j) for j in inside), 2**plan.nu)
        uniform_spot = Fraction(len(inside), plan.nu + 1)
        assert float(coin_spot**plan.mu) == pytest.approx(0.99983057, rel=1e-8)
        assert float(uniform_spot**plan.mu) == pytest.approx(7.5681566e-11, rel=1e-7)

    def test_uniform_count_law_single_spot(self, default_map):
        # With one spot the session is exactly one windowed count test; the
        # uniform-bias impostor's count is uniform on {0..nu}, so her pass
        # probability is the window width over nu + 1.
        plan = NaiveTestPlan(nu=50, mu=1, p_c=0.5, n_l=9, n_r=42)
        rng = make_rng(4103)
        passes = sum(
            run_naive(UniformP(), default_map, plan, rng).accepted
            for _ in range(3000)
        )
        expected = (plan.n_r - plan.n_l - 1) / (plan.nu + 1)
        se = math.sqrt(expected * (1 - expected) / 3000)
        assert passes / 3000 == pytest.approx(expected, abs=3 * se)

    def test_uniform_count_law_vectorized(self):
        # Same law, large-sample form: a bias drawn uniformly per test makes
        # the count exactly uniform over {0..nu}.
        rng = make_rng(4104)
        p = rng.random(100_000)
        counts = rng.binomial(50, p)
        inside = np.mean((9 < counts) & (counts < 42))
        expected = 32 / 51
        se = math.sqrt(expected * (1 - expected) / 100_000)
        assert inside == pytest.approx(expected, abs=3 * se)

    def test_bias_redrawn_for_every_spot(self, default_map):
        # A per-spot redraw makes the spot tests independent, so the session
        # pass rate is the cube of the per-spot rate.  A single shared bias
        # would correlate the spots and pass far more often; check we sit on
        # the independent law and well below the correlated one.
        n_l, n_r = acceptance_counts(0.5, 20, 0.05, 3)
        assert (n_l, n_r) == (6, 14)
        plan = NaiveTestPlan(nu=20, mu=3, p_c=0.5, n_l=n_l, n_r=n_r)
        per_spot = (n_r - n_l - 1) / (plan.nu + 1)
        independent = per_spot**3

        def window_prob(p: float) -> float:
            return stats.binom.cdf(n_r - 1, 20, p) - stats.binom.cdf(n_l, 20, p)

        shared, _ = integrate.quad(lambda p: window_prob(p) ** 3, 0.0, 1.0)
        assert shared > 2 * independent

        rng = make_rng(4105)
        passes = sum(
            run_naive(UniformP(), default_map, plan, rng).accepted
            for _ in range(3000)
        )
        rate = passes / 3000
        se = math.sqrt(independent * (1 - independent) / 3000)
        assert rate == pytest.approx(independent, abs=3 * se)
        assert rate < shared - 6 * se

    def test_stops_at_first_failing_spot(self, default_map):
        plan = _published_plan()
        rng = make_rng(4106)
        result = run_naive(FixedP(0.0), default_map, plan, rng)
        assert not result.accepted
        assert result.spots_tested == 1
        assert result.see_counts == (0,)

    def test_result_records_all_spot_counts_on_accept(self, default_map):
        plan = _published_plan()
        rng = make_rng(4107)
        result = run_naive(AliceSubject(), default_map, plan, rng)
        assert isinstance(result, NaiveResult)
        assert result.accepted
        assert result.spots_tested == plan.mu
        assert len(result.see_counts) == plan.mu
        assert all(plan.n_l < c < plan.n_r for c in result.see_counts)

    def test_map_smaller_than_spot_budget_rejected(self):
        tiny = AlphaMap(2, 2, np.full(4, 0.1), 0.02, 0.18)
        plan = _published_plan()
        with pytest.raises(ConfigError, match="4 spots"):
            run_naive(AliceSubject(), tiny, plan, make_rng(4108))


class TestLawLevelDraws:
    """The honest user's per-spot counts, and those of every biased impostor
    session, are drawn from the session's exit law (:class:`TestExitLaw`),
    and ``echo``'s are one binomial draw per spot tested
    (:class:`TestEchoLaw`); an adaptive impostor whose rule declares no law
    keeps the per-round path.  The counts must follow the exact law, and match the counts of
    the subject's per-round twin (:func:`per_round.per_round`).

    Pooling every recorded count of a session is fair: whether spot j is
    reached depends only on the spots before it, so each recorded count has
    the per-spot law."""

    def _counts(self, subject, alpha_map, seed, sessions):
        plan = _published_plan()
        rng = make_rng(seed)
        return [run_naive(subject, alpha_map, plan, rng) for _ in range(sessions)]

    @staticmethod
    def _pooled(results):
        return [c for r in results for c in r.see_counts]

    @pytest.mark.parametrize("k", [6, 7])
    def test_honest_counts_are_binomial(self, k, default_map):
        # The intensity is tuned for p_C at the design threshold 6; a user
        # who needs k photons sees each pulse with P(Poisson(x*) >= k).
        x_star = special.gammaincinv(6, 0.5)
        p_see = stats.poisson.sf(k - 1, x_star)
        results = self._counts(AliceSubject(k=k), default_map, 4120, 300)
        nu = _published_plan().nu
        assert g_test_pvalue(self._pooled(results),
                             stats.binom.pmf(range(nu + 1), nu, p_see)) > 1e-3

    def test_honest_draw_stays_below_numpy_reflection_point(self):
        """NumPy's binomial sampler draws ``n - Bin(n, 1 - p)`` for ``p``
        above 1/2.  The honest counts no longer come from it (they are
        drawn by inversion on their exact law), but the tuned mean still
        must not overshoot: the inverse never leaves the small tail, so no
        threshold's tuned mean is seen with probability above 1/2 (several
        land on it exactly)."""
        assert gk(6, strategy_naive._tuned_mean(6, 0.5)) < 0.5
        for k in range(1, 101):
            assert gk(k, strategy_naive._tuned_mean(k, 0.5)) <= 0.5, k

    def test_honest_seeing_probability_is_computed_once(self, default_map,
                                                        monkeypatch):
        """It depends only on the plan and the two thresholds, so two honest
        sessions at one plan evaluate it once."""
        from retinasim import photon_stats

        # The inverse evaluates the seeing probability too: solve it first.
        x_star = strategy_naive._tuned_mean(6, 0.4375)
        calls = []
        seen_and_missed = photon_stats._seen_and_missed  # what ``gk`` sums
        monkeypatch.setattr(photon_stats, "_seen_and_missed",
                            lambda k, x: calls.append((k, x)) or seen_and_missed(k, x))
        # A plan no other test uses, so no cache holds its seeing probability.
        plan = NaiveTestPlan(nu=40, mu=30, p_c=0.4375, n_l=5, n_r=30)
        rng = make_rng(4126)
        for _ in range(2):
            run_naive(AliceSubject(k=5), default_map, plan, rng)
        assert calls == [(5, x_star)]

    def test_fair_coin_exact_acceptance_and_counts(self, default_map):
        plan = _published_plan()
        inside = range(plan.n_l + 1, plan.n_r)
        accept = float(
            Fraction(sum(math.comb(plan.nu, j) for j in inside), 2**plan.nu) ** plan.mu
        )
        assert accept == pytest.approx(0.99983057, rel=1e-8)
        results = self._counts(FixedP(0.5), default_map, 4121, 3000)
        passes = sum(r.accepted for r in results)
        assert stats.binomtest(passes, 3000, accept).pvalue > 1e-3
        counts = self._pooled(results)
        pmf = stats.binom.pmf(range(plan.nu + 1), plan.nu, 0.5)
        assert g_test_pvalue(counts, pmf) > 1e-3

        twin = self._counts(per_round(FixedP(0.5)), default_map, 4122, 60)
        assert g_test_pvalue(self._pooled(twin), pmf) > 1e-3
        assert two_sample_g_pvalue(counts, self._pooled(twin), plan.nu + 1) > 1e-3

    def test_uniform_bias_counts_are_uniform(self, default_map):
        nu = _published_plan().nu
        uniform = np.full(nu + 1, 1.0 / (nu + 1))
        counts = self._pooled(self._counts(UniformP(), default_map,
                                           4123, 3000))
        assert g_test_pvalue(counts, uniform) > 1e-3
        twin = self._pooled(self._counts(per_round(UniformP()), default_map,
                                         4124, 1500))
        assert g_test_pvalue(twin, uniform) > 1e-3
        assert two_sample_g_pvalue(counts, twin, nu + 1) > 1e-3

    def test_adaptive_rule_runs_once_per_round(self, default_map):
        echo = build_subject("eve:echo", 6)
        calls = []

        def counted(context):
            calls.append((context.spot_ordinal, context.round_index))
            return echo.rule(context)

        plan = NaiveTestPlan(nu=20, mu=5, p_c=0.5, n_l=0, n_r=20)
        result = run_naive(Adaptive(counted), default_map, plan,
                           make_rng(4125))
        assert calls == [
            (s, r) for s in range(result.spots_tested) for r in range(plan.nu)
        ]

    @pytest.mark.parametrize("name, read", [
        ("alice", 0), ("eve:faircoin", 0), ("eve:fixedp:0.3", 0), ("eve:uniformp", 0),
        ("eve:echo", 1),
    ])
    def test_law_subjects_open_no_scope(
        self, name, read, default_map, monkeypatch
    ):
        """No subject that declares its law draws for a scope.  One with one
        count law on every spot is drawn from its exit law and opens none;
        ``echo`` opens a scope for each spot tested (one on the default
        map, where she fails her first spot), gets herself back without a
        draw, and reads her seeing probability on the spot from one
        map-wide array."""
        opened, calls = [], []
        open_law, map_seeing = strategy_naive.open_scope, strategy_naive._map_seeing

        def recorded_open(subject, rng):
            state = repr(rng.bit_generator.state)
            law = open_law(subject, rng)
            opened.append((law, repr(rng.bit_generator.state) == state))
            return law

        monkeypatch.setattr(strategy_naive, "open_scope", recorded_open)
        monkeypatch.setattr(strategy_naive, "_map_seeing",
                            lambda *args: calls.append(args) or map_seeing(*args))
        subject = build_subject(name, 6)
        run_naive(subject, default_map, _published_plan(), make_rng(4127))
        assert [(law is subject, undrawn)
                for law, undrawn in opened] == [(True, True)] * read
        assert len(calls) == read
        assert all(law is subject for law, _map, _x in calls)

    def test_rule_opens_each_spot_test_through_its_session(self, default_map):
        """A rule that opens a rule of its own per scope (``session``, the
        hook the bayes and serial runners call once per session) is asked
        through it once per spot tested, and answers with what it opened,
        never with its base rule."""
        opened = []

        def spot_rule(seen):
            return Adaptive(lambda ctx: 1.0 if ctx.round_index < seen else 0.0)

        class PerSpot(Adaptive):
            def session(self, rng):
                opened.append(len(opened))
                return spot_rule(10 if len(opened) < 4 else 0)

        plan = NaiveTestPlan(nu=20, mu=5, p_c=0.5, n_l=0, n_r=20)
        result = run_naive(PerSpot(lambda _ctx: 1.0), default_map, plan, make_rng(4128))
        assert result.see_counts == (10, 10, 10, 0)
        assert not result.accepted and result.spots_tested == len(opened) == 4


def _per_spot_session(subject, alpha_map, plan, rng):
    """A session as the runner drew it before its exit law, kept as the
    oracle of that law: ``choice`` of the mu spots, the mu scopes opened at
    once (the uniform bias draws its mu biases in one ``random(mu)``), one
    ``binomial`` vector of the mu counts, cut at the first failing spot."""
    x_star = strategy_naive._tuned_mean(6, plan.p_c)
    spots = rng.choice(alpha_map.n_spots, size=plan.mu, replace=False)
    if isinstance(subject, UniformP):
        seeing = rng.random(plan.mu)
    else:
        seeing = subject.p_seen(x_star, alpha_map.alpha[spots])
    counts = rng.binomial(plan.nu, seeing, size=plan.mu)
    failed = np.flatnonzero((counts <= plan.n_l) | (counts >= plan.n_r))
    see_counts = tuple(counts[: failed[0] + 1 if failed.size else plan.mu].tolist())
    return NaiveResult(accepted=not failed.size, spots_tested=len(see_counts),
                       see_counts=see_counts, rounds=len(see_counts) * plan.nu)


def _per_scope_uniform_session(alpha_map, plan, rng):
    """A uniform-bias session as the runner drew it with one scope opened
    per spot: mu ``open_scope`` calls, each drawing its bias with one
    scalar ``random()``, then the binomial vector of the mu counts."""
    x_star = strategy_naive._tuned_mean(6, plan.p_c)
    spots = rng.choice(alpha_map.n_spots, size=plan.mu, replace=False)
    alphas = alpha_map.alpha[spots]
    laws = [open_scope(UniformP(), rng) for _ in range(plan.mu)]
    counts = rng.binomial(plan.nu, [law.p_seen(x_star, a) for law, a in
                                    zip(laws, alphas.tolist())], size=plan.mu)
    failed = np.flatnonzero((counts <= plan.n_l) | (counts >= plan.n_r))
    return tuple(counts[: failed[0] + 1 if failed.size else plan.mu].tolist())


class TestScopesOpenedAtOnce:
    """The per-spot oracle (:func:`_per_spot_session`) opens the uniform
    bias's mu scopes at once, their biases from one ``random(mu)``: the
    doubles mu scalar draws give, so its uniform-bias sessions are the
    per-scope form's, draw for draw."""

    @pytest.mark.parametrize("offset", [0, 1, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 50, 257])
    def test_random_array_is_the_scalar_draws(self, offset, n):
        """Philox makes four 64-bit words a block; an array may start and
        end anywhere in one."""
        rng, twin = make_rng(4150), make_rng(4150)
        rng.random(offset)
        twin.random(offset)
        assert rng.random(n).tolist() == [twin.random() for _ in range(n)]
        assert repr(rng.bit_generator.state) == repr(twin.bit_generator.state)

    @pytest.mark.parametrize("seed", [4151, 4152])
    def test_sessions_and_end_states_are_the_per_scope_forms(self, seed, default_map):
        plan = _published_plan()
        rng, twin = make_rng(seed), make_rng(seed)
        for _ in range(300):
            result = _per_spot_session(UniformP(), default_map, plan, rng)
            assert result.see_counts == _per_scope_uniform_session(default_map, plan, twin)
            assert repr(rng.bit_generator.state) == repr(twin.bit_generator.state)


def _exact_window_mass(pmf, plan) -> Fraction:
    """The window's mass under the law ``pmf`` (``Fraction``s)."""
    return sum(pmf[plan.n_l + 1:plan.n_r], Fraction(0))


def _exact_binomial(nu: int, p: float) -> list[Fraction]:
    """Binomial(nu, p) on 0..nu in exact arithmetic, ``p`` the double."""
    p = Fraction(p)
    return [math.comb(nu, j) * p**j * (1 - p) ** (nu - j) for j in range(nu + 1)]


def _scipy_window_mass(subject, plan) -> float:
    """A spot's pass probability for ``subject`` (by name) at ``plan``, from
    SciPy: the window's mass under her count law."""
    if subject == "eve:uniformp":
        return (plan.n_r - plan.n_l - 1) / (plan.nu + 1)
    law = build_subject(subject, 6)
    p = law.p if isinstance(law, FixedP) else gk(6, strategy_naive._tuned_mean(6, plan.p_c))
    return stats.binom.cdf(plan.n_r - 1, plan.nu, p) - stats.binom.cdf(plan.n_l, plan.nu, p)


def _exits(subject, plan):
    """The runner's exit law of ``subject`` (by name) at ``plan``."""
    x_star = strategy_naive._tuned_mean(6, plan.p_c)
    counts = spot_count_law(build_subject(subject, 6), x_star, plan.nu)
    return strategy_naive._exit_law(counts, plan.n_l, plan.n_r, plan.mu)


class TestExitLaw:
    """The honest user and every biased impostor pass each spot with one
    probability w, so their sessions are drawn from the exit law: the first
    failing spot is truncated-geometric, P(J = j) = w**(j-1) (1 - w), and
    the session is accepted with probability w**mu.  Its tables are checked
    here against SciPy and against ``Fraction`` arithmetic; the sessions
    drawn from them, against the per-spot binomial path
    (:func:`_per_spot_session`), in :class:`TestExitLawSessions`."""

    @pytest.mark.parametrize("nu", [1, 7, 50, 60, 400])
    @pytest.mark.parametrize("p", [0.0, 1e-9, 0.3, 0.5, 0.5 - 2**-53, 0.97, 1.0])
    def test_count_laws_match_scipy_and_fractions(self, nu, p):
        pmf = np.array(_binomial_pmf(nu, p))
        np.testing.assert_allclose(pmf, stats.binom.pmf(range(nu + 1), nu, p),
                                   rtol=1e-11, atol=1e-300)
        if nu <= 60:
            exact = [float(m) for m in _exact_binomial(nu, p)]
            np.testing.assert_allclose(pmf, exact, rtol=1e-12, atol=1e-300)
        assert _uniform_pmf(nu) == (1 / (nu + 1),) * (nu + 1)

    def test_subjects_and_their_count_laws(self):
        x_star = strategy_naive._tuned_mean(6, 0.5)
        assert spot_count_law(AliceSubject(), x_star, 50) == _binomial_pmf(50, gk(6, x_star))
        assert spot_count_law(AliceSubject(k=7), x_star, 50) == _binomial_pmf(
            50, gk(7, x_star))
        assert spot_count_law(FixedP(0.3), x_star, 50) == _binomial_pmf(50, 0.3)
        assert spot_count_law(UniformP(), x_star, 50) == _uniform_pmf(50)
        for rule in (build_subject("eve:echo", 6), Adaptive(lambda _ctx: 0.5)):
            assert spot_count_law(rule, x_star, 50) is None
        with pytest.raises(DomainError, match="unknown subject"):
            spot_count_law(object(), x_star, 50)

    @pytest.mark.parametrize("subject, accept, spots", [
        ("alice", 1 - 1.694273e-4, 49.9958),
        ("eve:faircoin", 0.999831, 49.9958),
        ("eve:uniformp", 7.5682e-11, 2.68421),
        ("eve:fixedp:0.3", 0.12833, 21.6663),
    ])
    def test_default_plan_rates(self, subject, accept, spots):
        """P(accept) = w**mu and E[spots tested] = (1 - w**mu) / (1 - w) as
        the table draws them (accept iff the uniform is at or above its last
        entry), against SciPy and against ``Fraction``s."""
        plan = _published_plan()
        table, _passing, _failing = _exits(subject, plan)
        drawn_accept = 1.0 - table[-1]
        drawn_spots = 1.0 + sum(1.0 - c for c in table[:-1])
        assert drawn_accept == pytest.approx(accept, rel=1e-4)
        assert drawn_spots == pytest.approx(spots, rel=1e-5)

        law = build_subject(subject, 6)
        x_star = strategy_naive._tuned_mean(6, plan.p_c)
        if subject == "eve:uniformp":
            w = Fraction(plan.n_r - plan.n_l - 1, plan.nu + 1)
            exact = [Fraction(1, plan.nu + 1)] * (plan.nu + 1)
        else:
            p = law.p if isinstance(law, FixedP) else gk(6, x_star)
            exact = _exact_binomial(plan.nu, p)
            w = _exact_window_mass(exact, plan)
            scipy_w = (stats.binom.cdf(plan.n_r - 1, plan.nu, p)
                       - stats.binom.cdf(plan.n_l, plan.nu, p))
            assert float(w) == pytest.approx(scipy_w, rel=1e-12)
        assert drawn_accept == pytest.approx(float(w**plan.mu), rel=1e-12, abs=1e-15)
        assert table[-1] == pytest.approx(float(1 - w**plan.mu), rel=1e-12)
        assert drawn_spots == pytest.approx(float((1 - w**plan.mu) / (1 - w)), rel=1e-12)
        for j in (1, 2, 10, plan.mu - 1):
            assert table[j - 1] == pytest.approx(float(1 - w**j), rel=1e-12)

    @pytest.mark.parametrize("nu, failure", [
        (49, 2.8e-4), (50, 1.69e-4), (51, 1.69e-4), (52, 1.02e-4), (53, 6.1e-5),
        (54, 1.03e-4),
    ])
    def test_honest_failure_by_nu(self, nu, failure):
        """The exact honest session failure at the default targets, with the
        window ``acceptance_counts`` gives at each nu: above p_fn = 1e-4 at
        the sized nu = 50, and not monotone in nu, since the window moves."""
        n_l, n_r = acceptance_counts(0.5, nu, 1e-10, 50)
        plan = NaiveTestPlan(nu=nu, mu=50, p_c=0.5, n_l=n_l, n_r=n_r)
        table = _exits("alice", plan)[0]
        assert table[-1] == pytest.approx(failure, rel=0.02)
        p = gk(6, strategy_naive._tuned_mean(6, 0.5))
        w = _exact_window_mass(_exact_binomial(nu, p), plan)
        assert table[-1] == pytest.approx(float(1 - w**plan.mu), rel=1e-11)
        scipy_w = stats.binom.cdf(n_r - 1, nu, p) - stats.binom.cdf(n_l, nu, p)
        assert table[-1] == pytest.approx(-math.expm1(plan.mu * math.log(scipy_w)),
                                          rel=1e-9)

    @pytest.mark.parametrize("subject", ["alice", "eve:fixedp:0.3", "eve:uniformp"])
    def test_count_tables_are_the_law_given_each_side(self, subject):
        plan = _published_plan()
        _table, (inside, inside_cdf), (outside, outside_cdf) = _exits(subject, plan)
        assert inside.tolist() == list(range(plan.n_l + 1, plan.n_r))
        assert outside.tolist() == [*range(plan.n_l + 1), *range(plan.n_r, plan.nu + 1)]
        if subject == "eve:uniformp":
            pmf = np.full(plan.nu + 1, 1 / (plan.nu + 1))
        else:
            p = 0.3 if subject != "alice" else gk(6, strategy_naive._tuned_mean(6, 0.5))
            pmf = stats.binom.pmf(range(plan.nu + 1), plan.nu, p)
        for values, cdf in ((inside, inside_cdf), (outside, outside_cdf)):
            expected = np.cumsum(pmf[values]) / pmf[values].sum()
            np.testing.assert_allclose(cdf, expected, rtol=1e-12)
            assert cdf[-1] == 1.0

    @pytest.mark.parametrize("subject", ["alice", "eve:faircoin", "eve:fixedp:0.3",
                                         "eve:uniformp"])
    def test_record_depends_only_on_the_first_uniform(self, subject, default_map):
        """Whatever the later uniforms, the first fixes the decision and the
        pulses spent; they give the counts, each on its side of the window.
        Such a session draws only uniforms: no ``choice``, no ``binomial``."""

        class Uniforms:
            def __init__(self, first, rest):
                self.first, self.rest, self.calls = first, rest, []

            def random(self, size=None):
                self.calls.append(size)
                return self.first if size is None else np.full(size, self.rest)

        plan = _published_plan()
        for first in (0.0, 1e-6, 0.05, 0.5, 0.87, 0.99, 1 - 2**-53):
            records = set()
            for rest in (0.0, 0.3, 1 - 2**-53):
                rng = Uniforms(first, rest)
                result = run_naive(build_subject(subject, 6), default_map, plan, rng)
                assert rng.calls == [None, result.spots_tested]
                records.add((result.accepted, result.spots_tested, result.rounds))
                counts = result.see_counts
                assert all(plan.n_l < c < plan.n_r for c in counts[:-1])
                assert (plan.n_l < counts[-1] < plan.n_r) == result.accepted
            assert len(records) == 1, (first, records)

    @pytest.mark.parametrize("subject", ["alice", "eve:fixedp:0.3", "eve:uniformp"])
    def test_first_uniform_picks_the_exit(self, subject):
        """Trial i's record is the exit its first uniform picks on the
        truncated-geometric law, computed here from SciPy's window mass."""
        config = RunConfig(strategy="naive", subject=subject, master_seed=4160)
        context = prepare(config)
        plan = context.naive_plan
        w = _scipy_window_mass(subject, plan)
        passes = [-math.expm1(j * math.log(w)) for j in range(1, plan.mu + 1)]
        for i in range(300):
            u = trial_rng(4160, i).random()
            passed = sum(c <= u for c in passes)
            record = run_trial(context, i)
            assert record.accepted == (passed == plan.mu)
            assert record.rounds == min(passed + 1, plan.mu) * plan.nu

    @pytest.mark.parametrize("seed", [1, 9, 4161])
    @pytest.mark.parametrize("subject", ["alice", "eve:faircoin", "eve:fixedp:0.3",
                                         "eve:uniformp"])
    def test_identify_prints_trial_zero(self, subject, seed, capsys):
        config = RunConfig(strategy="naive", subject=subject, master_seed=seed)
        context = prepare(config)
        record = run_trial(context, 0)
        counts = run_session(context, trial_rng(seed, 0)).see_counts
        code = main(["identify", "--seed", str(seed), "--strategy", "naive",
                     "--subject", subject])
        printed = [int(line.split()[2]) for line in capsys.readouterr().out.splitlines()
                   if line.startswith("spot ")]
        assert code == (0 if record.accepted else 1)
        assert printed == list(counts)
        assert len(printed) * context.naive_plan.nu == record.rounds

    def test_laws_without_a_pass_or_a_fail(self, default_map):
        """A spot that never passes fails the session at once; one that
        always passes is never failed.  A side without mass is never read."""
        plan = _published_plan()
        for p, count in ((0.0, 0), (1.0, plan.nu)):
            result = run_naive(FixedP(p), default_map, plan, make_rng(4162))
            assert result == NaiveResult(False, 1, (count,), plan.nu)
        empty = NaiveTestPlan(nu=3, mu=4, p_c=0.5, n_l=1, n_r=2)  # no count passes
        result = run_naive(AliceSubject(), default_map, empty, make_rng(4163))
        assert not result.accepted and result.spots_tested == 1
        wide = NaiveTestPlan(nu=50, mu=3, p_c=0.5, n_l=0, n_r=50)
        table = _exits("eve:fixedp:0.5", wide)[0]
        assert table == pytest.approx([1 - (1 - 2.0**-49) ** j for j in (1, 2, 3)])


#: The cells of :class:`TestExitLawSessions`: a subject and a plan at which
#: sessions pass and fail alike.
_SESSION_CELLS = {
    "alice-narrow": ("alice", dict(nu=50, mu=50, p_c=0.5, n_l=18, n_r=32)),
    "fixedp-default": ("eve:fixedp:0.3", dict(nu=50, mu=50, p_c=0.5, n_l=9, n_r=42)),
    "uniformp-relaxed": ("eve:uniformp", dict(nu=50, mu=50, p_c=0.5, n_l=3, n_r=48)),
}


@functools.lru_cache(maxsize=None)
def _drawn_sessions(cell):
    """4,000 sessions drawn from the exit law and 2,000 from the per-spot
    binomial path (:func:`_per_spot_session`), on the default map."""
    name, fields = _SESSION_CELLS[cell]
    plan = NaiveTestPlan(**fields)
    alpha_map = generate_synthetic(100, 100, 0.02, 0.18, seed=7)
    subject = build_subject(name, 6)
    rng, oracle_rng = make_rng(4164), make_rng(4165)
    law = [run_naive(subject, alpha_map, plan, rng) for _ in range(4000)]
    oracle = [_per_spot_session(subject, alpha_map, plan, oracle_rng)
              for _ in range(2000)]
    return plan, law, oracle


class TestExitLawSessions:
    """Sessions drawn from the exit law against sessions of the per-spot
    binomial path, the runner's draws before it, kept as the oracle: the
    position of the first failing spot (``mu`` for an accepted session),
    the counts of the spots that pass and of the spot that fails, by
    two-sample G-test, and the accepts by a binomial tail on the exact
    w**mu.  The honest user runs at a narrow window, the biased impostors
    at the default plan and at the relaxed one (p_fp = 1e-3), so that
    sessions pass and fail alike."""

    @staticmethod
    def _positions(results, mu):
        return [mu if r.accepted else r.spots_tested - 1 for r in results]

    @staticmethod
    def _passing(results):
        return [c for r in results for c in r.see_counts[: r.spots_tested - (not r.accepted)]]

    @staticmethod
    def _failing(results):
        return [r.see_counts[-1] for r in results if not r.accepted]

    @pytest.mark.parametrize("cell", list(_SESSION_CELLS))
    def test_first_failing_position(self, cell):
        plan, law, oracle = _drawn_sessions(cell)
        w = _scipy_window_mass(_SESSION_CELLS[cell][0], plan)
        exact = np.append(w ** np.arange(plan.mu) * (1 - w), w**plan.mu)
        positions = self._positions(law, plan.mu)
        assert g_test_pvalue(positions, exact) > 1e-3
        assert two_sample_g_pvalue(positions, self._positions(oracle, plan.mu),
                                   plan.mu + 1) > 1e-3

    @pytest.mark.parametrize("cell", list(_SESSION_CELLS))
    def test_passing_counts(self, cell):
        plan, law, oracle = _drawn_sessions(cell)
        assert two_sample_g_pvalue(self._passing(law), self._passing(oracle),
                                   plan.nu + 1) > 1e-3

    @pytest.mark.parametrize("cell", list(_SESSION_CELLS))
    def test_failing_counts(self, cell):
        plan, law, oracle = _drawn_sessions(cell)
        assert two_sample_g_pvalue(self._failing(law), self._failing(oracle),
                                   plan.nu + 1) > 1e-3

    @pytest.mark.parametrize("cell", list(_SESSION_CELLS))
    def test_accepts(self, cell):
        plan, law, _oracle = _drawn_sessions(cell)
        accept = _scipy_window_mass(_SESSION_CELLS[cell][0], plan) ** plan.mu
        assert stats.binomtest(sum(r.accepted for r in law), len(law), accept).pvalue > 1e-3


class TestEchoLaw:
    """``eve:echo`` answers "seen" exactly when her detector count reaches
    k, so on spot s, pulsed at x*/alpha_s, her count is
    Bin(nu, P(Poisson(x*/alpha_s) >= k)), and the runner draws it from that
    law.  The oracle is the same rule without a law, answered round by
    round, and the exact law computed here with SciPy's Poisson tail.  The
    map's band keeps the seeing probability away from 0 and 1 (about 0.5
    to 0.96), so spots pass and fail alike; on the default map echo sees
    almost every pulse and fails at her first spot."""

    @pytest.fixture(scope="class")
    def sessions(self):
        """4,000 sessions of her declared law and 1,000 of the plain rule."""
        alpha_map = generate_synthetic(100, 100, 0.5, 1.0, seed=4128)
        plan = _published_plan()
        runs = []
        for subject, seed, count in (
            (build_subject("eve:echo", 6), 4129, 4000),
            (Adaptive(functools.partial(_echo, 6)), 4130, 1000),
        ):
            rng = make_rng(seed)
            runs.append([run_naive(subject, alpha_map, plan, rng) for _ in range(count)])
        return alpha_map, plan, *runs

    @staticmethod
    def _exact(alpha_map, plan):
        """The first spot's count law and the law of the first failing
        position (``mu`` standing for an accepted session).  The spots are
        a uniform draw without replacement, so the first j all pass with
        the mean of their pass probabilities' products over the j-subsets
        of the map, e_j / C(S, j) with e_j the elementary symmetric sum."""
        x = strategy_naive._tuned_mean(6, plan.p_c) / alpha_map.alpha
        seen = stats.poisson.sf(5, x)
        counts = np.arange(plan.nu + 1)
        per_spot = stats.binom.pmf(counts[:, None], plan.nu, seen[None, :])
        first = per_spot.mean(axis=1)
        passes = per_spot[plan.n_l + 1:plan.n_r].sum(axis=0)
        e = np.zeros(plan.mu + 1)
        e[0] = 1.0
        for p in passes:
            e[1:] += p * e[:-1]
        all_pass = e / np.array([float(math.comb(alpha_map.n_spots, j))
                                 for j in range(plan.mu + 1)])
        position = np.append(all_pass[:-1] - all_pass[1:], all_pass[-1])
        return first, position

    @staticmethod
    def _positions(results, mu):
        return [mu if r.accepted else r.spots_tested - 1 for r in results]

    def test_laws_are_not_degenerate(self, sessions):
        alpha_map, plan, _law, _twin = sessions
        first, position = self._exact(alpha_map, plan)
        assert first.sum() == pytest.approx(1.0, abs=1e-12)
        assert position.sum() == pytest.approx(1.0, abs=1e-12)
        assert 0.2 < position[0] < 0.5 and position[1] > 0.1

    def test_first_spot_counts(self, sessions):
        alpha_map, plan, law, twin = sessions
        first, _position = self._exact(alpha_map, plan)
        law_counts = [r.see_counts[0] for r in law]
        twin_counts = [r.see_counts[0] for r in twin]
        assert g_test_pvalue(law_counts, first) > 1e-3
        assert g_test_pvalue(twin_counts, first) > 1e-3
        assert two_sample_g_pvalue(law_counts, twin_counts, plan.nu + 1) > 1e-3

    def test_first_failing_position(self, sessions):
        alpha_map, plan, law, twin = sessions
        _first, position = self._exact(alpha_map, plan)
        law_positions = self._positions(law, plan.mu)
        twin_positions = self._positions(twin, plan.mu)
        assert g_test_pvalue(law_positions, position) > 1e-3
        assert g_test_pvalue(twin_positions, position) > 1e-3
        assert two_sample_g_pvalue(law_positions, twin_positions, plan.mu + 1) > 1e-3

    def test_counts_take_one_binomial_per_spot_tested(self):
        """Her law path: the spots' ``choice``, then one scalar ``binomial``
        per spot tested, up to the first failing one, whose probability is
        her seeing probability on that spot read from the map-wide array;
        the session records those draws as its counts."""
        alpha_map = generate_synthetic(40, 40, 0.5, 1.0, seed=4131)
        plan = _published_plan()
        calls = []

        class Recording:
            def __init__(self, rng):
                self._rng = rng

            def __getattr__(self, name):
                method = getattr(self._rng, name)

                def recorded(*args, **kwargs):
                    calls.append((name, args, method(*args, **kwargs)))
                    return calls[-1][2]

                return recorded

        echo = build_subject("eve:echo", 6)
        x_star = strategy_naive._tuned_mean(6, plan.p_c)
        tested = []
        for seed in range(4132, 4142):
            calls.clear()
            result = run_naive(echo, alpha_map, plan, Recording(make_rng(seed)))
            (choice, _, spots), *binomials = calls
            assert choice == "choice"
            names = [name for name, _, _ in binomials]
            assert names == ["binomial"] * result.spots_tested
            spots = spots[:result.spots_tested]
            seeing = strategy_naive._map_seeing(echo, alpha_map, x_star)
            p = [p for _, (_nu, p), _ in binomials]
            assert all(nu == plan.nu for _, (nu, _p), _ in binomials)
            assert all(np.ndim(one) == 0 for one in p)
            assert p == seeing[spots].tolist()
            np.testing.assert_allclose(
                p, stats.poisson.sf(5, x_star / alpha_map.alpha[spots]), rtol=1e-13)
            assert result.see_counts == tuple(int(count) for _, _, count in binomials)
            tested.append(result.spots_tested)
        assert max(tested) > 1
