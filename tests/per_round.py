"""Per-round twins of the subjects that declare their law.

The runners ask a subject round by round only when it is a rule (an
:class:`~retinasim.Adaptive` that gives no probability): the honest user,
the biased impostors and ``echo`` give their probabilities, and every
session of theirs is drawn from that law.  The tests still need their
rounds, as the oracle of the laws the runners draw from.  A twin here
answers as its subject would, round by round, and declares no law, so every
runner takes it down its rule path and :func:`~retinasim.subjects.interrogate`
takes it as any rule.

Each twin draws what the subject's per-round answer drew when the library
still gave one: a Poisson count from the detector, then, for an impostor,
one uniform against her answer probability.  So a fixed bias and its twin
give the same rounds and leave the generator in the same state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from retinasim import Adaptive, AliceSubject, DomainError, Echo, FixedP, UniformP


def _unread(_context):
    raise AssertionError("a twin's own rule is never asked")


@dataclass(frozen=True, init=False)
class HonestRounds(Adaptive):
    """The honest user answered round by round: "seen" exactly when a
    Poisson(``alpha * i_tilde``) count reaches her threshold ``k``.

    A rule only so that the runners' rule paths take it: it reads
    ``alpha``, which no admissible rule can, and never asks its own rule."""

    k: int

    def __init__(self, k: int) -> None:
        object.__setattr__(self, "rule", _unread)
        object.__setattr__(self, "k", k)

    def answers(self, rng: np.random.Generator, spot_ordinal: int = 0):
        k, poisson = self.k, rng.poisson

        def answer(alpha: float, i_tilde: float) -> bool:
            return int(poisson(alpha * i_tilde)) >= k

        return answer


@dataclass(frozen=True, init=False)
class UniformRounds(Adaptive):
    """The uniform bias answered round by round: each scope draws its bias
    with one ``random()``, as :meth:`~retinasim.UniformP.session` does, and
    answers with it as a rule.  A rule whose ``session`` opens the scope's
    rule, so its own is never asked."""

    def __init__(self) -> None:
        object.__setattr__(self, "rule", _unread)

    def session(self, rng: np.random.Generator) -> Adaptive:
        return bias_rounds(float(rng.random()))


def bias_rounds(p: float) -> Adaptive:
    """A fixed bias ``p`` as a rule: Bernoulli(``p``) every round."""
    return Adaptive(lambda _ctx: p)


def per_round(subject):
    """The per-round twin of ``subject``: :class:`HonestRounds` for the
    honest user, a rule for a bias or for ``echo`` (her own rule, without
    her declared law), :class:`UniformRounds` for the uniform bias, and a
    rule that declares no law as it is."""
    if isinstance(subject, AliceSubject):
        return HonestRounds(subject.k)
    if isinstance(subject, FixedP):
        return bias_rounds(subject.p)
    if isinstance(subject, UniformP):
        return UniformRounds()
    if isinstance(subject, Echo):
        return Adaptive(subject.rule)
    if isinstance(subject, Adaptive):
        return subject
    raise DomainError(f"unknown subject model {subject!r}")
