"""Subject models: the honest responder, impostor strategies, and the
structural information barrier impostors answer through.

Seeded statistical checks, and the probability that each fails although the
code implements its law (a re-draw fails it by chance this often): exact
binomial tails, unless stated.  The other checks here are exact.

=================================================  ======================
check                                              false-failure
                                                   probability
=================================================  ======================
``test_fair_coin_rate`` (3 sigma, 10,000 rounds)   2.8e-3
``test_fixed_p_rate_and_schedule`` (3 sigma,       2.8e-3
10,000 rounds at p = 0.8)
``test_uniform_p_redraws_per_session`` (3 sigma,   2.7e-3
10,000 pairs agreeing with probability 2/3)
``test_uniform_p_count_is_uniform`` (chi-square    9.9e-4 (chi-square
at 27.9 on 10 cells)                               approximation, 9 dof)
``test_alice_marginal_matches_prob_see`` (4        8.9e-3 for the 20;
sigma, 20 configurations of 2,500 answers)         5.2e-3 of it is the
                                                   one at p = 0.99986,
                                                   which fails on 3 or
                                                   more misses
``test_photon_view_is_poissonian`` (4 sigma on     2.5e-4 (normal
each class's count mean and variance)              approximation,
                                                   6.3e-5 a check)
``test_a_plain_strategy_is_asked_through_its_      2.0e-3 (G-test at
session`` (first-spot counts of 2,000 naive        p > 1e-3, chi-square
sessions against Bin(nu, 0.3), in two cells)       approximation)
=================================================  ======================
"""

import dataclasses
import functools
import json
import math
import pickle
import sys
from itertools import islice

import numpy as np
import pytest

from retinasim import (
    Adaptive,
    AliceSubject,
    DomainError,
    Echo,
    EveContext,
    EveStrategy,
    FixedP,
    RunConfig,
    SpotClass,
    UniformBands,
    UniformP,
    alice_response,
    build_subject,
    gk,
    montecarlo,
    parse_eve_strategy,
    prepare,
    prob_see,
    run_session,
    run_trial,
    trial_rng,
)
from retinasim.cli import main
from retinasim.harness import STRATEGIES

from retinasim.photon_stats import _gk_array
from retinasim.subjects import _echo, class_seeing_means, interrogate, open_scope

from conftest import g_test_pvalue, make_rng


def test_eve_context_is_the_whole_information_set():
    """The impostor interface is exactly these four fields.  A new field
    here means the impostor can see more than the protocol's security
    argument assumes — this test is the tripwire."""
    names = [f.name for f in dataclasses.fields(EveContext)]
    assert names == ["round_index", "photon_count", "history", "spot_ordinal"]
    ctx = EveContext(round_index=3, photon_count=58, history=(True, False))
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.photon_count = 99


def test_fair_coin_rate():
    rng = make_rng(1)
    session = FixedP(0.5).session(rng)
    n = 10_000
    seen = sum(
        session.respond(EveContext(round_index=i), rng) for i in range(n)
    )
    assert abs(seen / n - 0.5) < 3 * math.sqrt(0.25 / n)


def test_fixed_p_rate_and_schedule():
    rng = make_rng(2)
    session = FixedP(0.8).session(rng)
    n = 10_000
    seen = sum(session.respond(EveContext(round_index=i), rng) for i in range(n))
    assert abs(seen / n - 0.8) < 3 * math.sqrt(0.8 * 0.2 / n)

    # A per-round schedule is an adaptive rule on the round index:
    # always-yes on even rounds, always-no on odd.
    schedule = Adaptive(lambda ctx: 1.0 if ctx.round_index % 2 == 0 else 0.0).session(rng)
    answers = [schedule.respond(EveContext(round_index=i), rng) for i in range(10)]
    assert answers == [True, False] * 5


def test_fixed_p_validation():
    rng = make_rng(3)
    with pytest.raises(DomainError):
        FixedP(1.4).session(rng)
    bad_schedule = Adaptive(lambda ctx: 2.0).session(rng)
    with pytest.raises(DomainError):
        bad_schedule.respond(EveContext(round_index=0), rng)


def test_uniform_p_redraws_per_session():
    """With a bias drawn once per session, two answers from the same session
    agree with probability E[p^2 + (1-p)^2] = 2/3; a fresh fair coin would
    give 1/2.  This is the observable difference between session-level and
    round-level randomization."""
    rng = make_rng(4)
    strategy = UniformP()
    n = 10_000
    agree = 0
    for _ in range(n):
        session = strategy.session(rng)
        a = session.respond(EveContext(round_index=0), rng)
        b = session.respond(EveContext(round_index=1), rng)
        agree += a == b
    expected = 2.0 / 3.0
    assert abs(agree / n - expected) < 3 * math.sqrt(expected * (1 - expected) / n)


def test_uniform_p_count_is_uniform():
    """Total "seen" count over nu rounds should be uniform on {0..nu}."""
    rng = make_rng(5)
    strategy = UniformP()
    nu = 9
    n = 20_000
    counts = np.zeros(nu + 1, dtype=int)
    for _ in range(n):
        session = strategy.session(rng)
        c = sum(session.respond(EveContext(round_index=i), rng) for i in range(nu))
        counts[c] += 1
    expected = n / (nu + 1)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # 10 cells -> 9 dof; P[chi2 > 27.9] ~ 1e-3.
    assert chi2 < 27.9


def test_adaptive_strategy_sees_only_the_context():
    rng = make_rng(6)
    echo = Adaptive(lambda ctx: 1.0 if (ctx.photon_count or 0) >= 6 else 0.0)
    session = echo.session(rng)
    assert session.respond(EveContext(round_index=0, photon_count=10), rng) is True
    assert session.respond(EveContext(round_index=1, photon_count=3), rng) is False
    assert session.respond(EveContext(round_index=2, photon_count=None), rng) is False

    repeat_last = Adaptive(
        lambda ctx: 1.0 if (ctx.history and ctx.history[-1]) else 0.0
    )
    session = repeat_last.session(rng)
    assert session.respond(EveContext(0, history=()), rng) is False
    assert session.respond(EveContext(1, history=(True,)), rng) is True


def test_alice_marginal_matches_prob_see():
    """The two-stage honest answer (Poisson count, then threshold) must have
    the analytic Bernoulli marginal, across a spread of configurations."""
    rng = make_rng(8)
    param_rng = make_rng(9)
    n = 2500
    for _ in range(20):
        alpha = float(param_rng.uniform(0.02, 0.2))
        i_tilde = float(param_rng.uniform(20.0, 120.0))
        k = int(param_rng.integers(2, 10))
        p = prob_see(alpha, i_tilde, k)
        seen = sum(alice_response(alpha, i_tilde, k, rng) for _ in range(n))
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(seen / n - p) < 4 * sigma, (alpha, i_tilde, k)


def test_alice_response_validation():
    rng = make_rng(10)
    with pytest.raises(DomainError):
        alice_response(1.5, 60.0, 6, rng)
    with pytest.raises(DomainError):
        alice_response(0.1, -3.0, 6, rng)
    with pytest.raises(DomainError):
        alice_response(0.1, 60.0, 0, rng)


def test_photon_view_is_poissonian():
    """The counts Eve's own detector hands her through the running
    interrogation kernel are Poisson(i_tilde) on low and high rounds alike:
    the pulse she measures carries no trace of the hidden class."""
    rng = make_rng(11)
    i_tilde = 62.4
    counts = []

    def record(ctx):
        counts.append(ctx.photon_count)
        return 0.5

    eve = Adaptive(record)
    distribution = UniformBands((0.02, 0.05), (0.15, 0.18))
    high = []
    for _ in range(20):
        session = interrogate(open_scope(eve, rng), distribution, i_tilde, rng)
        high += [cls is SpotClass.HIGH for cls, _alpha, _saw in islice(session, 1000)]
    counts = np.array(counts)
    high = np.array(high)
    assert counts.shape == high.shape == (20_000,)
    for sample in (counts[high], counts[~high]):
        assert sample.size > 9_000
        se_mean = math.sqrt(i_tilde / sample.size)
        assert abs(sample.mean() - i_tilde) < 4 * se_mean
        # Poisson: variance equals the mean; SE of the sample variance is
        # roughly sqrt((mu + 2 mu^2) / n).
        se_var = math.sqrt((i_tilde + 2 * i_tilde**2) / sample.size)
        assert abs(sample.var() - i_tilde) < 4 * se_var


def test_subject_dataclasses():
    alice = AliceSubject(k=6)
    assert alice.k == 6
    assert build_subject("eve:faircoin", 6) == FixedP(0.5)


def test_interrogate_draws_class_then_alpha_then_answer():
    rng = make_rng(12)
    bands = UniformBands((0.02, 0.05), (0.15, 0.15))
    contexts = []

    def rule(ctx):
        contexts.append(ctx)
        return 0.0 if ctx.history and ctx.history[-1] else 1.0

    law = open_scope(Adaptive(rule), rng)
    rounds = list(zip(range(40), interrogate(law, bands, 62.4, rng)))
    for _i, (spot_class, alpha, _saw) in rounds:
        if spot_class is SpotClass.HIGH:
            assert alpha == 0.15
        else:
            assert 0.02 <= alpha <= 0.05
    answers = [saw for _i, (_c, _a, saw) in rounds]
    assert answers == [True, False] * 20
    assert [c.round_index for c in contexts] == list(range(40))
    assert all(c.history == tuple(answers[: c.round_index]) for c in contexts)
    assert all(c.photon_count is not None and c.spot_ordinal == 0 for c in contexts)


def test_open_scope_scopes_and_rejects_unknown_subjects():
    rng = make_rng(13)
    seen = []
    eve = Adaptive(lambda ctx: seen.append(ctx) or 1.0)
    answer = open_scope(eve, rng).answers(rng, spot_ordinal=3)
    assert answer(0.05, 60.0) is True and answer(0.15, 60.0) is True
    assert [(c.round_index, c.spot_ordinal) for c in seen] == [(0, 3), (1, 3)]
    # a new scope starts a new history
    open_scope(eve, rng).answers(rng)(0.05, 60.0)
    assert seen[-1].round_index == 0 and seen[-1].history == ()
    alice = AliceSubject(k=6)
    assert open_scope(alice, rng) is alice
    with pytest.raises(DomainError, match="unknown subject"):
        open_scope(object(), rng)


def test_history_is_a_frozen_view_of_the_answers_so_far():
    """A round's history reads the scope's answer list without copying it,
    yet stays what it was when the round began."""
    rng = make_rng(16)
    seen = []
    eve = Adaptive(lambda ctx: seen.append(ctx) or ctx.round_index % 2)
    answer = open_scope(eve, rng).answers(rng)
    answers = [answer(0.05, 60.0) for _ in range(6)]
    history = seen[4].history
    assert answers == [False, True] * 3
    assert history == (False, True, False, True) == tuple(history)
    assert history != (False, True, False) and history != [False, True, False, True]
    assert len(history) == 4 and history[-1] is True and history[1:3] == (True, False)
    assert hash(history) == hash((False, True, False, True))
    assert seen[0].history == () and not seen[0].history
    with pytest.raises(IndexError):
        history[4]  # answered in a later round
    with pytest.raises(TypeError):
        history[0] = True


def test_session_bias_marks_constant_answering():
    rng = make_rng(14)
    alphas = np.array([0.05, 0.15])
    assert FixedP(0.5).session(rng).p_seen(60.0, alphas) == 0.5
    assert FixedP(0.3).session(rng).p_seen(60.0, alphas) == 0.3
    biases = [UniformP().session(rng).p for _ in range(3)]
    assert all(b is not None and 0.0 <= b < 1.0 for b in biases)
    assert len(set(biases)) == 3
    assert Adaptive(lambda _ctx: 0.5).session(rng).p_seen(60.0, alphas) is None


def test_honest_seeing_probability_of_one_mean_or_many():
    """One mean gives ``gk``; an array of means, one per spot, gives the
    array form at each, whatever the transmissions."""
    alice = AliceSubject(k=7)
    alphas = np.array([0.03, 0.05, 0.16])
    assert alice.p_seen(4.5, alphas) == gk(7, 4.5)
    means = alphas * 62.3
    assert alice.p_seen(means, alphas).tolist() == _gk_array(7, means).tolist()


def test_biased_session_answers_like_its_per_round_twin():
    # ``respond`` draws one uniform per round whether the probability is a
    # number or a callable, so the two answer identically on equal streams.
    contexts = [EveContext(round_index=i) for i in range(200)]
    answers = []
    for session in (FixedP(0.3), Adaptive(lambda _ctx: 0.3)):
        rng = make_rng(15)
        answers.append([session.respond(c, rng) for c in contexts])
    assert answers[0] == answers[1]
    for bad in (1.5, -0.1, math.nan):
        with pytest.raises(DomainError, match="invalid answer probability"):
            FixedP(bad)


def test_strategies_without_scope_state_are_their_own_laws():
    rng = make_rng(17)
    for eve in (FixedP(0.3), Adaptive(lambda _ctx: 0.3)):
        assert open_scope(eve, rng) is eve
    law = open_scope(UniformP(), make_rng(19))
    assert law == FixedP(make_rng(19).random())
    bands = UniformBands((0.02, 0.05), (0.15, 0.18))
    assert law.p_wrong(bands, 60.0) == 0.5
    assert Adaptive(lambda _ctx: 0.3).p_wrong(bands, 60.0) is None


@pytest.mark.parametrize("name", ["faircoin", "uniformp", "echo"])
def test_each_named_strategy_responds_per_round(name):
    """The per-round call a caller outside the runners makes: a fresh
    scope's law answers one context with a bool."""
    rng = make_rng(18)
    law = parse_eve_strategy(name, 6).session(rng)
    assert type(law.respond(EveContext(0, 6), rng)) is bool


@pytest.mark.parametrize("rule", [0.3, None, "echo"])
def test_an_adaptive_rule_is_a_callable(rule):
    with pytest.raises(DomainError, match="adaptive rule"):
        Adaptive(rule)


def test_class_seeing_means():
    bands = UniformBands((0.02, 0.05), (0.15, 0.15))
    low, high = class_seeing_means(bands, 62.4, 6)
    assert high == prob_see(0.15, 62.4, 6)
    # Midpoint rule over the low band as the oracle for quad's band mean.
    edges = np.linspace(0.02, 0.05, 20_001)
    grid = 0.5 * (edges[1:] + edges[:-1])
    assert low == pytest.approx(np.mean([prob_see(a, 62.4, 6) for a in grid]), rel=1e-8)
    assert class_seeing_means(bands, 62.4, 6) is class_seeing_means(bands, 62.4, 6)
    with pytest.raises(DomainError, match="pulse intensity"):
        class_seeing_means(bands, -1.0, 6)


def test_class_seeing_means_refuses_a_bool_threshold_after_a_cached_one():
    """``True`` hashes and compares equal to ``1``; the cache must not hand
    it the entry of ``k=1``."""
    bands = UniformBands((0.02, 0.05), (0.15, 0.18))
    class_seeing_means(bands, 62.0, 1)
    with pytest.raises(DomainError, match="threshold"):
        class_seeing_means(bands, 62.0, True)


@pytest.mark.parametrize("strategy, runner", [
    pytest.param(strategy, runner, id=strategy if runner == "bayes" else f"{runner}-{strategy}")
    for runner in ("bayes", "serial", "naive")
    for strategy in ("faircoin", "fixedp:0.3", "uniformp", "echo")
])
def test_only_an_adaptive_session_builds_contexts(strategy, runner, monkeypatch):
    """A biased impostor's answers read no context, so her session builds
    none.  Nor does ``echo``'s, under any runner, though she is an
    adaptive rule: her law gives the probabilities each runner draws from
    (1/2 a round for bayes and serial, the seeing probability of each spot
    for naive), so no round is answered."""
    import retinasim.subjects

    built = []

    def counting_context(*args, **kwargs):
        built.append(EveContext(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(retinasim.subjects, "EveContext", counting_context)
    context = prepare(RunConfig(strategy=runner, subject=f"eve:{strategy}",
                                map_width=40, map_height=40))
    result = run_session(context, trial_rng(4524, 0))
    assert result.rounds > 1
    assert built == []


class TestEcho:
    """``eve:echo`` is an :class:`Adaptive` rule that also declares its law:
    round by round it answers exactly as the plain rule does, and its law
    gives the two probabilities the serial and naive runners draw from."""

    def test_is_the_named_rule(self):
        echo = build_subject("eve:echo", 9)
        assert type(echo) is Echo and isinstance(echo, Adaptive)
        assert echo.k == 9
        assert (echo.rule.func, echo.rule.args) == (_echo, (9,))
        assert open_scope(echo, make_rng(1)) is echo
        for count, saw in ((None, 0.0), (8, 0.0), (9, 1.0), (40, 1.0)):
            assert echo.rule(EveContext(0, count)) == saw

    @pytest.mark.parametrize("bad", [0, -1, 2.0, True])
    def test_threshold_is_a_count(self, bad):
        with pytest.raises(DomainError, match="threshold"):
            Echo(bad)

    @pytest.mark.parametrize("distribution", [
        UniformBands((0.05, 0.05), (0.15, 0.15)),
        UniformBands((0.02, 0.05), (0.15, 0.18)),
    ], ids=["point-pair", "bands"])
    def test_answers_as_the_plain_rule_round_by_round(self, distribution):
        """The bayes rounds, on twin streams: same answers, same draws."""
        twins = []
        for law in (Echo(6), Adaptive(functools.partial(_echo, 6))):
            rng = make_rng(4530)
            rounds = list(islice(interrogate(law, distribution, 62.3, rng), 2000))
            twins.append((rounds, repr(rng.bit_generator.state)))
        assert twins[0] == twins[1]
        rng = make_rng(4531)
        contexts = [EveContext(i, c) for i, c in enumerate(range(2, 12))]
        answers = [Echo(6).respond(c, rng) for c in contexts]
        assert answers == [c.photon_count >= 6 for c in contexts]

    def test_law_probabilities(self):
        from scipy import stats

        echo = Echo(6)
        bands = UniformBands((0.02, 0.05), (0.15, 0.18))
        assert echo.p_wrong(bands, 62.3) == 0.5
        alphas = np.linspace(0.02, 1.0, 50)
        seen = echo.p_seen(5.67, alphas)
        assert seen.shape == alphas.shape
        np.testing.assert_allclose(seen, stats.poisson.sf(5, 5.67 / alphas), rtol=1e-13)

    def test_pickles_to_the_same_law(self):
        echo = pickle.loads(pickle.dumps(Echo(7)))
        assert type(echo) is Echo and echo.k == 7
        assert echo.rule(EveContext(0, 7)) == 1.0 and echo.rule(EveContext(0, 6)) == 0.0


class _AskedRoundByRound(AssertionError):
    """A subject was asked for one round's answer."""


def _ask_round_by_round(*_args, **_kwargs):
    raise _AskedRoundByRound


_LAW_SUBJECT_NAMES = ("alice", "eve:faircoin", "eve:fixedp:0.3", "eve:uniformp",
                      "eve:echo")
_TRAFFIC_PLANS = {
    "point-pair": {},
    "bands": {"distribution": "uniform_bands"},
    "asymmetric": {"i_tilde": 70.0},
}
_TRAFFIC_CELLS = [
    (strategy, subject, plan)
    for strategy in STRATEGIES
    for plan in _TRAFFIC_PLANS
    if plan != "asymmetric" or strategy in ("bayes", "serial")
    for subject in _LAW_SUBJECT_NAMES
]


@pytest.mark.parametrize("strategy, subject, plan", _TRAFFIC_CELLS,
                         ids=["-".join(cell) for cell in _TRAFFIC_CELLS])
def test_only_a_rule_is_asked_round_by_round(strategy, subject, plan, tmp_path,
                                             monkeypatch):
    """Every subject that declares its law runs ``montecarlo`` trials,
    traced and untraced, and an ``identify`` session, with every per-round
    entry point raising: ``Adaptive.answers``, the only one a subject has,
    and ``interrogate`` wherever it is bound.  A rule, the positive
    control, reaches them in every strategy that asks its subject."""
    monkeypatch.setattr(Adaptive, "answers", _ask_round_by_round)
    for name, module in list(sys.modules.items()):
        bound = name.startswith("retinasim") and getattr(module, "interrogate", None)
        if bound is interrogate:
            monkeypatch.setattr(module, "interrogate", _ask_round_by_round)
    fields = dict(strategy=strategy, subject=subject, map_width=40, map_height=40,
                  trials=6, walk_trace_limit=3, master_seed=4620, **_TRAFFIC_PLANS[plan])
    stats, _records = montecarlo(RunConfig(**fields))
    assert stats.n_trials == 6
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields))
    assert main(["identify", "--config", str(path)]) in (0, 1)
    if not STRATEGIES[strategy].asks_subject:
        return
    context = prepare(RunConfig(**fields))
    rule = dataclasses.replace(context, subject=Adaptive(lambda _ctx: 0.5))
    with pytest.raises(_AskedRoundByRound):
        run_trial(rule, 0)
    with pytest.raises(_AskedRoundByRound):
        main(["identify", "--config", str(path), "--subject", "interactive"])


class _OpensRule(EveStrategy):
    """A plain strategy whose every scope opens a fresh fair rule; it keeps,
    per scope opened, the spot ordinal of each round its rule was asked."""

    def __init__(self):
        self.scopes = []

    def session(self, rng):
        rounds = []
        self.scopes.append(rounds)
        return Adaptive(lambda ctx: rounds.append(ctx.spot_ordinal) or 0.5)


class _OpensBias(EveStrategy):
    """A plain strategy whose every scope opens the bias 0.3."""

    def session(self, rng):
        return FixedP(0.3)


@pytest.mark.parametrize("distribution", ["point_pair", "uniform_bands"])
@pytest.mark.parametrize("strategy", ["naive", "serial", "bayes"])
def test_a_plain_strategy_is_asked_through_its_session(strategy, distribution):
    """An :class:`EveStrategy` that declares no law of its own runs under
    every runner that asks its subject, each asking the law its
    ``session`` opens.  Naive opens one scope per spot tested and asks an
    opened rule the spot's ``nu`` rounds; bayes and serial open one scope
    a session and ask it every round.  An opened bias gives naive's spot
    counts the law Bin(nu, 0.3): the first spot's count of each session is
    one draw of it."""
    context = prepare(RunConfig(strategy=strategy, distribution=distribution,
                                map_width=40, map_height=40))
    opens_rule = _OpensRule()
    rule_context = dataclasses.replace(context, subject=opens_rule)
    for seed in range(4640, 4643):
        opens_rule.scopes.clear()
        result = run_session(rule_context, make_rng(seed))
        if strategy == "naive":
            nu = context.naive_plan.nu
            assert opens_rule.scopes == [[spot] * nu
                                         for spot in range(result.spots_tested)]
        else:
            assert opens_rule.scopes == [[0] * result.rounds]
    bias_context = dataclasses.replace(context, subject=_OpensBias())
    rng = make_rng(4643 if distribution == "point_pair" else 4644)
    sessions = 2000 if strategy == "naive" else 20
    results = [run_session(bias_context, rng) for _ in range(sessions)]
    assert all(result.rounds > 0 for result in results)
    if strategy == "naive":
        from scipy import stats

        nu = context.naive_plan.nu
        first = [result.see_counts[0] for result in results]
        assert g_test_pvalue(first, stats.binom.pmf(range(nu + 1), nu, 0.3)) > 1e-3
