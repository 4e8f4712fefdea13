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
shares: :func:`responder` is the only place a subject's "seen / not seen"
answer is produced, and :func:`interrogate` runs the round primitive — a
fair coin picks the hidden class, the transmission value is drawn from that
class's part of the distribution, and the subject answers.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Union

import numpy as np

from .alpha_map import SpotClass, UniformBands, draw_class_alpha
from .errors import DomainError
from .photon_stats import DEFAULT_THRESHOLD

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


class EveSession:
    """Per-scope answering state produced by :meth:`EveStrategy.session`:
    each round answers "seen" with the probability ``p_of_round`` gives for
    the round's context."""

    def __init__(self, p_of_round: Callable[[EveContext], float]):
        self._p_of_round = p_of_round

    def respond(self, context: EveContext, rng: np.random.Generator) -> bool:
        """Answer one round: ``True`` for "seen", ``False`` for "not seen"."""
        p = float(self._p_of_round(context))
        if not (0.0 <= p <= 1.0) or not math.isfinite(p):
            raise DomainError(f"strategy produced invalid answer probability {p!r}")
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
        return EveSession(lambda _ctx: 0.5)


@dataclass(frozen=True)
class FixedP(EveStrategy):
    """Answer "seen" with a fixed probability ``p``, independently every
    round.  A per-round schedule is an :class:`Adaptive` rule on
    ``ctx.round_index``."""

    p: float = 0.5

    def session(self, rng: np.random.Generator) -> EveSession:
        p = float(self.p)
        if not (0.0 <= p <= 1.0):
            raise DomainError(f"fixed answer probability must lie in [0, 1], got {self.p!r}")
        return EveSession(lambda _ctx: p)


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
        p = float(rng.random())
        return EveSession(lambda _ctx: p)


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
    i_tilde = float(i_tilde)
    if not math.isfinite(i_tilde) or i_tilde < 0.0:
        raise DomainError(f"pulse intensity must be finite and >= 0, got {i_tilde!r}")
    if k < 1:
        raise DomainError(f"perception threshold must be >= 1, got {k}")
    return int(rng.poisson(alpha * i_tilde)) >= k


def responder(
    subject: SubjectModel, rng: np.random.Generator, spot_ordinal: int = 0
) -> Callable[[float, float], bool]:
    """Answering function ``answer(alpha, i_tilde) -> saw`` for one scope
    (one identification session, or one spot test of the per-spot protocol).

    Alice answers through :func:`alice_response`.  Eve gets one fresh
    strategy session per scope and never receives ``alpha``: her context
    holds the round index within the scope, her own detector's
    Poisson(``i_tilde``) count, her past answers in the scope and
    ``spot_ordinal``.
    """
    if isinstance(subject, AliceSubject):
        k = subject.k

        def answer_alice(alpha: float, i_tilde: float) -> bool:
            return alice_response(alpha, i_tilde, k, rng)

        return answer_alice
    if isinstance(subject, EveSubject):
        session = subject.strategy.session(rng)
        history: list[bool] = []

        def answer_eve(_alpha: float, i_tilde: float) -> bool:
            context = EveContext(
                round_index=len(history),
                photon_count=int(rng.poisson(i_tilde)),
                history=tuple(history),
                spot_ordinal=spot_ordinal,
            )
            saw = session.respond(context, rng)
            history.append(saw)
            return saw

        return answer_eve
    raise DomainError(f"unknown subject model {subject!r}")


def interrogate(
    subject: SubjectModel,
    distribution: UniformBands,
    i_tilde: float,
    rng: np.random.Generator,
) -> Iterator[tuple[SpotClass, float, bool]]:
    """Endless class interrogation of one session, yielding
    ``(spot_class, alpha, saw)`` per round.

    Each round a fair coin picks the hidden class, ``alpha`` is drawn from
    that class's band of ``distribution``, and the subject answers a pulse
    at the common intensity ``i_tilde``.  The caller decides when to stop.
    The subject's answering scope (for Eve, her strategy session) opens on
    the first round.
    """
    answer = responder(subject, rng)
    while True:
        alpha, spot_class = draw_class_alpha(distribution, rng)
        yield spot_class, alpha, answer(alpha, i_tilde)

