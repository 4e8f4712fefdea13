"""Response models for the tested subject.

Two kinds of subject can sit in front of the device:

* **Alice**, the enrolled user.  Her eye detects a Poisson number of photons
  with mean ``alpha * i_tilde`` and she reports "seen" exactly when the count
  reaches her perception threshold.  Her answers therefore depend on the
  illuminated spot's transmission — the biometric signal.

* **Eve**, an impostor.  The interface she answers through is deliberately
  narrow: a strategy receives only the round index, the photon count her own
  detector registered, her own past answers, and the ordinal of the spot test
  in progress.  There is no field through which the hidden spot class or the
  map could reach her — the information barrier is structural, and the test
  suite asserts it by introspecting :class:`EveContext`.  She is her
  strategy: an :class:`EveStrategy` is the impostor subject itself.

A subject model is an :class:`AliceSubject` or an :class:`EveStrategy`, and
:func:`build_subject` makes one from its name (``alice``, or
``eve:<strategy>`` for :func:`parse_eve_strategy`).

Only this module tells the two apart.  :func:`open_scope` gives each
answering scope (a session, or a spot test of the per-spot protocol) its
answer law — the :class:`AliceSubject` herself, a :class:`FixedP` bias (a
:class:`UniformP` impostor opens a fresh one per scope) or an
:class:`Adaptive` rule — and :func:`open_scopes` the law of several scopes
asked alike (the uniform bias draws all their biases at once); each law
answers the runners' questions:
``p_seen(x, alpha)``, the chance of "seen" on spots of transmissions
``alpha`` each pulsed to deposit a mean of ``x`` photons on the honest
retina, ``p_wrong`` per round of class interrogation, and
``answers(rng, spot_ordinal)``, one call a round.  A rule gives ``None``
for both probabilities and decides round by round, unless it declares its
law: :class:`Echo`, the perfect-detector impostor, is a rule whose rounds
are i.i.d., and gives both.
:func:`honest_threshold` serves the pattern protocol, which opens no scope.
:func:`interrogate` runs the round primitive every class-based protocol
shares: a fair coin picks the hidden class, the transmission value is drawn
from that class's part of the distribution, and the law answers.

Arguments are checked by the rules of :mod:`retinasim.errors`, each once:
the threshold and the bias when :class:`AliceSubject` and :class:`FixedP`
are made, a rule's answer probability every round, the pulse intensity
once per :func:`interrogate`, every input of :func:`alice_response` every
call, and those of :func:`class_seeing_means` once per cached entry.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Iterator, Union

import numpy as np

from .alpha_map import SpotClass, UniformBands, class_draws
from .errors import ConfigError, DomainError, _count, _real
from .photon_stats import DEFAULT_THRESHOLD, _gk_array, _gk_mean, gk

__all__ = [
    "EveContext",
    "EveStrategy",
    "FixedP",
    "UniformP",
    "Adaptive",
    "Echo",
    "AliceSubject",
    "SubjectModel",
    "AnswerLaw",
    "alice_response",
    "honest_threshold",
    "open_scope",
    "open_scopes",
    "interrogate",
    "class_seeing_means",
    "parse_eve_strategy",
    "build_subject",
]


@dataclass(frozen=True)
class EveContext:
    """Everything an impostor strategy is allowed to observe in one round.

    Adding a field to this class widens the impostor's information set;
    do not do that casually.  Deliberately absent: the spot's transmission
    value, its hidden class, and anything derived from the enrolled map.
    ``history`` holds her answers so far in the scope, oldest first.
    """

    round_index: int
    photon_count: int | None = None
    history: Sequence[bool] = ()
    spot_ordinal: int = 0


class _History(Sequence):
    """The first ``n`` answers of the list a scope appends to: as cheap to
    build at round 20,000 as at round 0, and, the list only growing, as
    fixed as the tuple of those answers, which it equals and hashes as."""

    __slots__ = ("_answers", "_n")

    def __init__(self, answers: list[bool], n: int):
        self._answers = answers
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._answers[: self._n][index])
        return self._answers[range(self._n)[index]]

    def __eq__(self, other: object) -> bool:
        return tuple(self) == (tuple(other) if isinstance(other, _History) else other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


def _answer_probability(p: float) -> float:
    """``p`` checked as a probability of answering "seen".  A float in [0, 1],
    what a rule returns round after round, is passed at once."""
    if type(p) is float and 0.0 <= p <= 1.0:
        return p
    return _real("answer probability", p, "[0, 1]")


class EveStrategy:
    """An impostor, given by her strategy, an immutable specification.

    Runners call :meth:`session` once per scope (one identification session,
    or one spot test for the per-spot protocol) for its answer law: the
    strategy itself, unless it keeps per-scope state, like the once-drawn
    bias of :class:`UniformP`, which opens a fresh law.  A plain base class,
    not an ``abc.ABC``: :func:`open_scope` tests it once per scope, and an
    abstract class's instance check costs about five times the
    interpreter's own.
    """

    #: Whether a bayes session asks this law every round even where the law
    #: gives its wrong-answer probability: only a rule does.
    walks_round_by_round = False

    def session(self, rng: np.random.Generator) -> AnswerLaw:
        """The answer law of one fresh scope: the strategy itself."""
        return self

    def scopes(self, rng: np.random.Generator, n: int) -> AnswerLaw:
        """The answer law of ``n`` fresh scopes asked alike, each about its
        own spot: the strategy itself.  A strategy that keeps per-scope
        state gives both this and :meth:`session`, as :class:`UniformP`
        does."""
        return self


@dataclass(frozen=True, init=False)
class FixedP(EveStrategy):
    """Answer "seen" with a fixed probability ``p``, independently every
    round; ``FixedP(0.5)`` is the fair coin.  A per-round schedule is an
    :class:`Adaptive` rule on ``ctx.round_index``.
    """

    p: float

    def __init__(self, p: float) -> None:
        # Written out: UniformP makes one per scope, and a generated
        # ``__init__`` with a ``__post_init__`` costs a third more.
        object.__setattr__(self, "p", _answer_probability(p))

    def respond(self, context: EveContext, rng: np.random.Generator) -> bool:
        """Answer one round: ``True`` for "seen", ``False`` for "not seen"."""
        return bool(rng.random() < self.p)

    def p_seen(self, x: float, alpha: np.ndarray) -> float:
        """The bias: neither the pulse's mean photon number nor the spots'
        transmissions reach it."""
        return self.p

    def p_wrong(self, distribution: UniformBands, i_tilde: float) -> float:
        """Exactly 1/2, whatever the bias."""
        return 0.5

    def answers(
        self, rng: np.random.Generator, spot_ordinal: int = 0
    ) -> Callable[[float, float], bool]:
        """The scope's ``answer(alpha, i_tilde) -> saw``: Bernoulli(``p``),
        reading neither ``alpha`` nor her detector's Poisson(``i_tilde``)
        count, which is still drawn, in its place in the stream."""
        poisson, random, p = rng.poisson, rng.random, self.p

        def answer_biased(_alpha: float, i_tilde: float) -> bool:
            poisson(i_tilde)  # her detector count, which no bias reads
            return random() < p

        return answer_biased


@dataclass(frozen=True)
class UniformP(EveStrategy):
    """Draw a bias p ~ Uniform(0, 1) once per session, then answer i.i.d.
    Bernoulli(p): each scope's law is a :class:`FixedP`.

    Over ``n`` rounds the total number of "seen" answers is uniform on
    ``{0, ..., n}`` — the classical exchangeable-coin construction, against
    which the per-spot protocol's count window is sized.  It is not the
    impostor's best play there: a fixed bias equal to the honest user's
    seeing probability is (see :mod:`retinasim.strategy_naive`).
    """

    def session(self, rng: np.random.Generator) -> FixedP:
        return FixedP(float(rng.random()))

    def scopes(self, rng: np.random.Generator, n: int) -> _ScopeBiases:
        """The ``n`` scopes' biases in one ``rng.random(n)``, the doubles
        ``n`` sessions would draw one by one."""
        return _ScopeBiases(rng.random(n))


class _ScopeBiases(EveStrategy):
    """The law of ``n`` :class:`UniformP` scopes asked alike, for a runner
    that draws them at law level: ``p_seen`` is the array of their biases,
    one per scope in order, and each scope errs with probability 1/2 a
    round.  It answers no round: every runner asks a law that gives
    ``p_seen`` nothing else."""

    __slots__ = ("p",)

    def __init__(self, p: np.ndarray) -> None:
        self.p = p

    def p_seen(self, x: float, alpha: np.ndarray) -> np.ndarray:
        return self.p

    def p_wrong(self, distribution: UniformBands, i_tilde: float) -> float:
        return 0.5


@dataclass(frozen=True)
class Adaptive(EveStrategy):
    """Answer via an arbitrary callable on the (narrow) round context.

    ``rule`` maps an :class:`EveContext` to the probability of answering
    "seen"; returning 0.0 or 1.0 makes the strategy deterministic.  The rule
    can consult past answers and photon counts — nothing else exists in the
    context to consult.  Deciding round by round, its law gives no
    probability: ``p_seen`` and ``p_wrong`` are ``None``.  A rule whose
    rounds are i.i.d. can say so in a subclass that gives them, as
    :class:`Echo` does; a bayes session still asks every rule round by
    round, so that one impostor the benchmark times walks that path.
    """

    rule: Callable[[EveContext], float]
    walks_round_by_round = True

    def __post_init__(self) -> None:
        if not callable(self.rule):
            raise DomainError(f"an adaptive rule is a callable, got {self.rule!r}")

    def respond(self, context: EveContext, rng: np.random.Generator) -> bool:
        """Answer one round: ``True`` for "seen", ``False`` for "not seen"."""
        return bool(rng.random() < _answer_probability(self.rule(context)))

    def p_seen(self, x: float, alpha: np.ndarray) -> None:
        return None

    def p_wrong(self, distribution: UniformBands, i_tilde: float) -> None:
        return None

    def answers(
        self, rng: np.random.Generator, spot_ordinal: int = 0
    ) -> Callable[[float, float], bool]:
        """The scope's ``answer(alpha, i_tilde) -> saw``, which never reads
        ``alpha``.  Each round her detector registers a Poisson(``i_tilde``)
        count, and the rule reads an :class:`EveContext`: the round index
        within the scope, the count, her past answers in the scope and
        ``spot_ordinal``."""
        poisson, random, rule = rng.poisson, rng.random, self.rule
        history: list[bool] = []

        def answer_rule(_alpha: float, i_tilde: float) -> bool:
            n = len(history)
            # round_index, photon_count, history, spot_ordinal: positional,
            # as keywords cost more than the fields' own work.
            context = EveContext(n, int(poisson(i_tilde)), _History(history, n),
                                 spot_ordinal)
            saw = random() < _answer_probability(rule(context))
            history.append(saw)
            return saw

        return answer_rule


@dataclass(frozen=True, init=False)
class Echo(Adaptive):
    """The impostor with a perfect photodetector: she answers "seen" exactly
    when her own detector count reaches the perception threshold ``k`` (the
    rule :func:`_echo`), the most informed guess the information barrier
    allows.

    Round by round she is the :class:`Adaptive` rule, and answers as one.
    Her rounds are i.i.d. all the same, so her law gives both
    probabilities: her count never reads the class coin, so she errs with
    probability exactly 1/2 a round, and on a spot of transmission
    ``alpha`` pulsed at ``x / alpha`` she sees with probability
    ``gk(k, x / alpha)``.
    """

    k: int

    def __init__(self, k: int) -> None:
        k = _count("threshold K", k, 1)
        object.__setattr__(self, "rule", functools.partial(_echo, k))
        object.__setattr__(self, "k", k)

    def p_seen(self, x: float, alpha: np.ndarray) -> np.ndarray:
        """``gk(k, x / alpha)`` for each spot transmission of ``alpha``."""
        return _gk_array(self.k, x / alpha)

    def p_wrong(self, distribution: UniformBands, i_tilde: float) -> float:
        """Exactly 1/2: the class coin never reaches her count."""
        return 0.5


@functools.lru_cache(maxsize=64)
def _seeing(k: int, x: float) -> float:
    """``gk(k, x)``, once per ``(k, x)``: a per-spot run asks for the same
    tuned mean every session."""
    return gk(k, x)


@dataclass(frozen=True)
class AliceSubject:
    """The enrolled user, given by her perception threshold.  Her map reaches
    a session through the runner's own arguments: the map itself, or the
    interrogation distribution drawn from it."""

    k: int = DEFAULT_THRESHOLD
    walks_round_by_round = False  # see EveStrategy

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _count("threshold K", self.k, 1))

    def p_seen(self, x: float, alpha: np.ndarray) -> float:
        """``gk(k, x)`` on every spot, the pulse tuned to deposit ``x``
        photons through each transmission of ``alpha``; computed once per
        ``(k, x)``."""
        return _seeing(self.k, x)

    def p_wrong(self, distribution: UniformBands, i_tilde: float) -> float:
        """q̄ = ½ (mean P(seen | low) + 1 − mean P(seen | high)), the class
        means taken over ``distribution`` at her own threshold."""
        low, high = class_seeing_means(distribution, i_tilde, self.k)
        return 0.5 * (low + 1.0 - high)

    def answers(
        self, rng: np.random.Generator, spot_ordinal: int = 0
    ) -> Callable[[float, float], bool]:
        """:func:`alice_response` on ``rng``, her threshold checked when she
        was made and ``alpha`` and ``i_tilde`` not at all: for a caller that
        has checked them, as :func:`interrogate` does."""
        k, poisson = self.k, rng.poisson

        def answer(alpha: float, i_tilde: float) -> bool:
            return int(poisson(alpha * i_tilde)) >= k

        return answer


SubjectModel = Union[AliceSubject, EveStrategy]

#: The answer law of one scope, as :func:`open_scope` gives it.
AnswerLaw = Union[AliceSubject, FixedP, Adaptive]


def honest_threshold(subject: SubjectModel) -> int | None:
    """The honest user's perception threshold, or ``None`` for an impostor,
    whose answers cannot depend on what a spot transmits.  With
    :func:`open_scope`, the only place a subject's kind is tested; an
    unknown subject raises :class:`DomainError` here."""
    if isinstance(subject, AliceSubject):
        return subject.k
    if isinstance(subject, EveStrategy):
        return None
    raise DomainError(f"unknown subject model {subject!r}")


def open_scope(subject: SubjectModel, rng: np.random.Generator) -> AnswerLaw:
    """The answer law of one fresh scope: the honest user as is, or the law
    an impostor's strategy opens on ``rng``.  A subject that keeps no
    per-scope state (the honest user, a fixed bias, a rule) is its own law
    and draws nothing here, so a runner that gets the subject back may use
    that one law for all its scopes."""
    if isinstance(subject, EveStrategy):
        return subject.session(rng)
    honest_threshold(subject)  # raises for a subject of neither kind
    return subject


def open_scopes(subject: SubjectModel, rng: np.random.Generator, n: int) -> AnswerLaw:
    """The answer law of ``n`` fresh scopes that a runner asks alike, each
    about its own spot: the subject itself when it keeps no per-scope
    state, and for the uniform bias the law of ``n`` biases drawn at once
    (:meth:`UniformP.scopes`).  :func:`open_scope` opens one scope."""
    if isinstance(subject, EveStrategy):
        return subject.scopes(rng, n)
    honest_threshold(subject)  # raises for a subject of neither kind
    return subject


def alice_response(
    alpha: float, i_tilde: float, k: int, rng: np.random.Generator
) -> bool:
    """One honest answer: draw the retinal photon count and compare with the
    perception threshold.

    The count is Poisson with mean ``alpha * i_tilde``; the flash is seen
    when the count reaches ``k``.  Marginally this is a Bernoulli draw with
    success probability ``prob_see(alpha, i_tilde, k)``.
    """
    alpha = _real("transmission coefficient", alpha, "[0, 1]")
    i_tilde = _real("pulse intensity", i_tilde, "[0, inf)")
    k = _count("threshold K", k, 1)
    return int(rng.poisson(alpha * i_tilde)) >= k


def interrogate(
    law: AnswerLaw,
    distribution: UniformBands,
    i_tilde: float,
    rng: np.random.Generator,
) -> Iterator[tuple[SpotClass, float, bool]]:
    """Endless class interrogation of one scope, yielding
    ``(spot_class, alpha, saw)`` per round.

    Each round a fair coin picks the hidden class, ``alpha`` is drawn from
    that class's band of ``distribution`` (:func:`class_draws`), and ``law``
    (from :func:`open_scope`) answers a pulse at the common intensity
    ``i_tilde``.  The caller decides when to stop.  ``i_tilde`` is checked
    once, on the first round; every ``alpha`` the bands draw already lies
    in (0, 1].
    """
    i_tilde = _real("pulse intensity", i_tilde, "[0, inf)")
    answer = law.answers(rng)
    for alpha, spot_class in class_draws(distribution, rng):
        yield spot_class, alpha, answer(alpha, i_tilde)


@functools.lru_cache(maxsize=64, typed=True)
def class_seeing_means(
    distribution: UniformBands, i_tilde: float, k: int
) -> tuple[float, float]:
    """The honest user's mean seeing probability on each class, ``(low,
    high)``: the mean of ``gk(k, alpha * i_tilde)`` over that class's band
    of ``distribution``.

    The seeing probability itself on a zero-width band, and the closed-form
    band mean of :func:`~retinasim.photon_stats.gk` on a band of positive
    width (its Taylor series on a band too narrow for the closed form).
    Cached per ``(distribution, i_tilde, k)``: a run asks for the same
    means every session.  ``typed`` keeps a ``True`` threshold from reading
    the entry of ``1`` instead of being refused.
    """
    i_tilde = _real("pulse intensity", i_tilde, "[0, inf)")
    k = _count("threshold K", k, 1)
    if not isinstance(distribution, UniformBands):
        raise DomainError(f"unknown interrogation distribution {distribution!r}")
    low, high = (_gk_mean(k, a * i_tilde, b * i_tilde)
                 for a, b in (distribution.low_band, distribution.high_band))
    return low, high


# ---------------------------------------------------------------------------
# Subjects from command-line/config strings
# ---------------------------------------------------------------------------


def _echo(threshold: int, context: EveContext) -> float:
    count = context.photon_count
    return 1.0 if count is not None and count >= threshold else 0.0


def parse_eve_strategy(spec: str, k: int) -> EveStrategy:
    """Build an impostor strategy from its textual name.

    Accepted: ``faircoin`` (``FixedP(0.5)``), ``uniformp``, ``fixedp:<p>``,
    ``echo`` (answers "seen" exactly when her own detector count reaches the
    perception threshold — the most informed guess the information barrier
    allows).
    """
    if spec == "faircoin":
        return FixedP(0.5)
    if spec == "uniformp":
        return UniformP()
    if spec == "echo":
        return Echo(k)
    if spec.startswith("fixedp:"):
        try:
            return FixedP(float(spec.split(":", 1)[1]))
        except ValueError as exc:  # not a number, or one FixedP refuses
            raise ConfigError(f"bad probability in subject {spec!r}: {exc}") from exc
    raise ConfigError(
        f"unknown impostor strategy {spec!r} "
        f"(expected faircoin, uniformp, fixedp:<p> or echo)"
    )


def build_subject(kind: str, k: int) -> SubjectModel:
    """Build the subject model named by ``kind`` (``alice`` or ``eve:<strategy>``).

    The interactive subject is a front-end concern and deliberately not
    constructible here: bulk runs must be non-interactive.
    """
    if kind == "alice":
        return AliceSubject(k=k)
    if kind.startswith("eve:"):
        return parse_eve_strategy(kind[4:], k)
    raise ConfigError(
        f"unknown subject kind {kind!r} (expected alice or eve:<strategy>)"
    )
