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
=====================================================  ======================
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
    EveStrategy,
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
)

from retinasim import strategy_naive
from retinasim.subjects import _echo, open_scope, open_scopes

from conftest import g_test_pvalue, make_rng, two_sample_g_pvalue

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


class _PerRoundUniformP(EveStrategy):
    """The uniform-bias law answered round by round: the bias is drawn once
    per spot test, as in UniformP, but handed over as an Adaptive rule, so
    the session's law gives no per-round probability."""

    def session(self, rng):
        p = float(rng.random())
        return Adaptive(lambda _ctx: p)

    def scopes(self, rng, n):
        biases = rng.random(n).tolist()
        return Adaptive(lambda ctx: biases[ctx.spot_ordinal])


class TestLawLevelDraws:
    """The honest user's per-spot counts, and those of every biased impostor
    session and of ``echo`` (:class:`TestEchoLaw`), are one vector of
    binomial draws; an adaptive impostor whose rule declares no law keeps
    the per-round path.  The counts must follow the exact law, and match the
    per-round path's counts where both can run.

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
        above 1/2, so the honest seeing probability at the published
        ``p_c = 1/2`` (a few ulp below it) crossing 1/2 would change every
        honest count while keeping the law.  ``TrialRecord`` holds no
        per-spot counts, so no pinned digest would see that change.  The
        inverse never overshoots into the small tail, so no threshold's
        tuned mean is seen with probability above 1/2 (several land on it
        exactly, where NumPy does not reflect)."""
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

        twin = self._counts(Adaptive(lambda _ctx: 0.5), default_map,
                            4122, 60)
        assert g_test_pvalue(self._pooled(twin), pmf) > 1e-3
        assert two_sample_g_pvalue(counts, self._pooled(twin), plan.nu + 1) > 1e-3

    def test_uniform_bias_counts_are_uniform(self, default_map):
        nu = _published_plan().nu
        uniform = np.full(nu + 1, 1.0 / (nu + 1))
        counts = self._pooled(self._counts(UniformP(), default_map,
                                           4123, 3000))
        assert g_test_pvalue(counts, uniform) > 1e-3
        twin = self._pooled(self._counts(_PerRoundUniformP(), default_map,
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

    @pytest.mark.parametrize("name, scopes", [
        ("alice", 1), ("eve:faircoin", 1), ("eve:fixedp:0.3", 1), ("eve:echo", 1),
        ("eve:uniformp", PUBLISHED["mu"]),
    ])
    def test_only_a_once_per_scope_bias_opens_a_scope_per_spot(
        self, name, scopes, default_map, monkeypatch
    ):
        """A subject that keeps no per-scope state is one law for every
        spot test; the uniform bias is redrawn for each of the mu spots,
        all of them in one call."""
        opened = []
        open_scopes = strategy_naive.open_scopes
        monkeypatch.setattr(strategy_naive, "open_scopes",
                            lambda subject, rng, n: opened.append(
                                (subject, open_scopes(subject, rng, n))) or opened[-1][1])
        run_naive(build_subject(name, 6), default_map, _published_plan(),
                  make_rng(4127))
        [(subject, law)] = opened
        assert (1 if law is subject else len(law.p_seen(0.0, None))) == scopes


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
    """The uniform bias's mu scopes take their biases from one
    ``random(mu)``: the doubles mu scalar draws give, so its sessions are
    the per-scope form's, draw for draw."""

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
            result = run_naive(UniformP(), default_map, plan, rng)
            assert result.see_counts == _per_scope_uniform_session(default_map, plan, twin)
            assert repr(rng.bit_generator.state) == repr(twin.bit_generator.state)

    def test_biases_are_the_law_of_their_scopes(self):
        law = open_scopes(UniformP(), make_rng(4153), 5)
        biases = law.p_seen(60.0, np.full(5, 0.1))
        assert biases.tolist() == make_rng(4153).random(5).tolist()
        assert law.p_wrong(None, 60.0) == 0.5
        for subject in (AliceSubject(), FixedP(0.3), Adaptive(lambda _ctx: 0.5)):
            assert open_scopes(subject, make_rng(4154), 5) is subject
        with pytest.raises(DomainError, match="unknown subject"):
            open_scopes(object(), make_rng(4155), 5)


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

    def test_counts_take_one_binomial_vector(self):
        """Her law path: the spots' ``choice``, then one ``binomial`` of
        size mu, whose probabilities are her seeing probability on each
        chosen spot; the session records its counts up to the first
        failing one."""
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

        for seed in range(4132, 4142):
            calls.clear()
            result = run_naive(build_subject("eve:echo", 6), alpha_map, plan,
                               Recording(make_rng(seed)))
            (choice, _, spots), (binomial, (_nu, p), counts) = calls
            assert (choice, binomial) == ("choice", "binomial")
            x_star = strategy_naive._tuned_mean(6, plan.p_c)
            np.testing.assert_allclose(p, stats.poisson.sf(5, x_star / alpha_map.alpha[spots]),
                                       rtol=1e-13)
            assert result.see_counts == tuple(counts[:result.spots_tested].tolist())
