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
  suite asserts it by introspecting :class:`EveContext`.

This module also holds the interrogation kernel every class-based protocol
shares: :func:`responder` builds each scope's "seen / not seen" answers,
and :func:`interrogate` runs the round primitive — a fair coin picks the
hidden class, the transmission value is drawn from that class's part of
the distribution, and the subject answers.  The honest user's answer is
:func:`alice_response`, which checks its inputs every call;
:func:`interrogate` checks them once per session and then draws without
checks.
:func:`class_seeing_means` gives the honest user's mean seeing probability
per class, from which a runner that needs only a count of answers draws
that count at once.
"""

from __future__ import annotations

import abc
import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Union

import numpy as np

from .alpha_map import SpotClass, UniformBands, class_draws
from .errors import DomainError
from .photon_stats import DEFAULT_THRESHOLD, _gk_mean

__all__ = [
    "EveContext",
    "EveStrategy",
    "EveSession",
    "FairCoin",
    "FixedP",
    "UniformP",
    "Adaptive",
    "AliceSubject",
    "EveSubject",
    "SubjectModel",
    "alice_response",
    "responder",
    "interrogate",
    "class_seeing_means",
]


@dataclass(frozen=True)
class EveContext:
    """Everything an impostor strategy is allowed to observe in one round.

    Adding a field to this class widens the impostor's information set;
    do not do that casually.  Deliberately absent: the spot's transmission
    value, its hidden class, and anything derived from the enrolled map.
    """

    round_index: int
    photon_count: int | None = None
    history: tuple[bool, ...] = ()
    spot_ordinal: int = 0


def _answer_probability(p: float) -> float:
    p = float(p)
    if not (0.0 <= p <= 1.0) or not math.isfinite(p):
        raise DomainError(f"strategy produced invalid answer probability {p!r}")
    return p


class EveSession:
    """Per-scope answering state produced by :meth:`EveStrategy.session`:
    each round answers "seen" with the probability ``p_of_round`` gives.

    ``p_of_round`` is either a number, the same for every round of the
    scope, or a callable on the round's context.  ``bias`` holds the number
    (``None`` for a callable): the rounds of a biased scope are i.i.d.
    Bernoulli(``bias``) answers, so a runner that reads only how many rounds
    were answered "seen" may draw that count from its binomial law without
    building the rounds' contexts.
    """

    def __init__(self, p_of_round: Callable[[EveContext], float] | float):
        if callable(p_of_round):
            self.bias = None
            self._p_of_round = p_of_round
        else:
            self.bias = _answer_probability(p_of_round)

    def respond(self, context: EveContext, rng: np.random.Generator) -> bool:
        """Answer one round: ``True`` for "seen", ``False`` for "not seen"."""
        p = self.bias
        if p is None:
            p = _answer_probability(self._p_of_round(context))
        return bool(rng.random() < p)


class EveStrategy(abc.ABC):
    """Factory for per-session answering behaviour.

    Strategies themselves are immutable specifications.  Runners call
    :meth:`session` once per scope (one identification session, or one
    spot test for the per-spot protocol) so that strategies which hold
    state — like a once-drawn answering bias — start fresh each scope.
    """

    @abc.abstractmethod
    def session(self, rng: np.random.Generator) -> EveSession:
        """Create fresh answering state for one session."""


@dataclass(frozen=True)
class FairCoin(EveStrategy):
    """Answer "seen" with probability 1/2, independently every round."""

    def session(self, rng: np.random.Generator) -> EveSession:
        return EveSession(0.5)


@dataclass(frozen=True)
class FixedP(EveStrategy):
    """Answer "seen" with a fixed probability ``p``, independently every
    round.  A per-round schedule is an :class:`Adaptive` rule on
    ``ctx.round_index``."""

    p: float

    def session(self, rng: np.random.Generator) -> EveSession:
        p = float(self.p)
        if not (0.0 <= p <= 1.0):
            raise DomainError(f"fixed answer probability must lie in [0, 1], got {self.p!r}")
        return EveSession(p)


@dataclass(frozen=True)
class UniformP(EveStrategy):
    """Draw a bias p ~ Uniform(0, 1) once per session, then answer i.i.d.
    Bernoulli(p).

    Over ``n`` rounds the total number of "seen" answers is uniform on
    ``{0, ..., n}`` — the classical exchangeable-coin construction, against
    which the per-spot protocol's count window is sized.  It is not the
    impostor's best play there: a fixed bias equal to the honest user's
    seeing probability is (see :mod:`retinasim.strategy_naive`).
    """

    def session(self, rng: np.random.Generator) -> EveSession:
        return EveSession(float(rng.random()))


@dataclass(frozen=True)
class Adaptive(EveStrategy):
    """Answer via an arbitrary callable on the (narrow) round context.

    ``rule`` maps an :class:`EveContext` to the probability of answering
    "seen"; returning 0.0 or 1.0 makes the strategy deterministic.  The rule
    can consult past answers and photon counts — nothing else exists in the
    context to consult.
    """

    rule: Callable[[EveContext], float]

    def session(self, rng: np.random.Generator) -> EveSession:
        return EveSession(self.rule)


@dataclass(frozen=True)
class AliceSubject:
    """The enrolled user, given by her perception threshold.  Her map reaches
    a session through the runner's own arguments: the map itself, or the
    interrogation distribution drawn from it."""

    k: int = DEFAULT_THRESHOLD


@dataclass(frozen=True)
class EveSubject:
    """An impostor answering through the given strategy."""

    strategy: EveStrategy


SubjectModel = Union[AliceSubject, EveSubject]


def _check_pulse(i_tilde: float, k: int) -> float:
    i_tilde = float(i_tilde)
    if not math.isfinite(i_tilde) or i_tilde < 0.0:
        raise DomainError(f"pulse intensity must be finite and >= 0, got {i_tilde!r}")
    if k < 1:
        raise DomainError(f"perception threshold must be >= 1, got {k}")
    return i_tilde


def alice_response(
    alpha: float, i_tilde: float, k: int, rng: np.random.Generator
) -> bool:
    """One honest answer: draw the retinal photon count and compare with the
    perception threshold.

    The count is Poisson with mean ``alpha * i_tilde``; the flash is seen
    when the count reaches ``k``.  Marginally this is a Bernoulli draw with
    success probability ``prob_see(alpha, i_tilde, k)``.
    """
    alpha = float(alpha)
    if not (0.0 <= alpha <= 1.0):
        raise DomainError(f"transmission coefficient must lie in [0, 1], got {alpha!r}")
    return int(rng.poisson(alpha * _check_pulse(i_tilde, k))) >= k


def _alice_answer(k: int, rng: np.random.Generator) -> Callable[[float, float], bool]:
    """:func:`alice_response` on ``rng`` without its checks, for a caller
    that has made them once."""
    poisson = rng.poisson

    def answer(alpha: float, i_tilde: float) -> bool:
        return int(poisson(alpha * i_tilde)) >= k

    return answer


def responder(
    subject: SubjectModel,
    rng: np.random.Generator,
    spot_ordinal: int = 0,
    *,
    session: EveSession | None = None,
) -> Callable[[float, float], bool]:
    """Answering function ``answer(alpha, i_tilde) -> saw`` for one scope
    (one identification session, or one spot test of the per-spot protocol).

    Alice answers through :func:`alice_response`.  Eve answers through one
    strategy session per scope — ``session`` when the caller has opened it
    already, else a fresh one — and never receives ``alpha``.  Each round
    her detector registers a Poisson(``i_tilde``) count.  A biased session
    (``session.bias`` set) answers Bernoulli(``bias``) without reading it,
    so no context is built; the count is still drawn, in its place in the
    stream.  Any other session reads an :class:`EveContext`: the round index
    within the scope, the count, her past answers in the scope and
    ``spot_ordinal``.
    """
    if isinstance(subject, AliceSubject):
        k = subject.k

        def answer_alice(alpha: float, i_tilde: float) -> bool:
            return alice_response(alpha, i_tilde, k, rng)

        return answer_alice
    if isinstance(subject, EveSubject):
        if session is None:
            session = subject.strategy.session(rng)
        poisson, random, bias = rng.poisson, rng.random, session.bias
        if bias is not None:

            def answer_biased(_alpha: float, i_tilde: float) -> bool:
                poisson(i_tilde)  # her detector count, which no bias reads
                return random() < bias

            return answer_biased
        respond = session.respond
        history: list[bool] = []

        def answer_eve(_alpha: float, i_tilde: float) -> bool:
            # round_index, photon_count, history, spot_ordinal: positional,
            # as keywords cost more than the fields' own work.
            context = EveContext(
                len(history), int(poisson(i_tilde)), tuple(history), spot_ordinal
            )
            saw = respond(context, rng)
            history.append(saw)
            return saw

        return answer_eve
    raise DomainError(f"unknown subject model {subject!r}")


def interrogate(
    subject: SubjectModel,
    distribution: UniformBands,
    i_tilde: float,
    rng: np.random.Generator,
    *,
    session: EveSession | None = None,
) -> Iterator[tuple[SpotClass, float, bool]]:
    """Endless class interrogation of one session, yielding
    ``(spot_class, alpha, saw)`` per round.

    Each round a fair coin picks the hidden class, ``alpha`` is drawn from
    that class's band of ``distribution`` (:func:`class_draws`), and the
    subject answers a pulse at the common intensity ``i_tilde``.  The caller
    decides when to stop.  The subject's answering scope opens on the first
    round; for Eve it runs on ``session`` when given (see
    :func:`responder`).  Alice's answers are those of
    :func:`alice_response`, with ``i_tilde`` and her threshold checked once
    per session: every ``alpha`` the bands draw already lies in (0, 1].
    """
    if isinstance(subject, AliceSubject):
        i_tilde = _check_pulse(i_tilde, subject.k)
        answer = _alice_answer(subject.k, rng)
    else:
        answer = responder(subject, rng, session=session)
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
    i_tilde = float(i_tilde)
    if not math.isfinite(i_tilde) or i_tilde < 0.0:
        raise DomainError(f"pulse intensity must be finite and >= 0, got {i_tilde!r}")
    if not isinstance(distribution, UniformBands):
        raise DomainError(f"unknown interrogation distribution {distribution!r}")
    low, high = (_gk_mean(k, a * i_tilde, b * i_tilde)
                 for a, b in (distribution.low_band, distribution.high_band))
    return low, high
