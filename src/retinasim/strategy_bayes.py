"""Sequential odds-ratio identification test.

Instead of fixing the number of interrogations in advance, the device keeps
the posterior odds that the subject is the enrolled user and stops as soon
as the odds leave a target interval.  After each round with transmission
value ``alpha_i`` and answer ``S_i`` the odds ratio updates multiplicatively,

    R_i = R_{i-1} * Z_A(alpha_i, S_i) / Z_E(p, S_i),

where ``Z_A`` is the honest-user likelihood of the answer (the seeing
probability or its complement) and ``Z_E`` is the designer's model of an
impostor: answer "seen" with a fixed probability ``p``, best chosen as the
average seeing probability over the interrogation distribution.  Viewed on a
log scale the test is a random walk with positive drift for the honest user
and negative drift for any impostor.

Stopping at the first exit from ``(x, y)`` with ``x = p_fn`` and
``y = 1/p_fp`` delivers the two error-rate guarantees by optional stopping:
``1/R_n`` is a martingale under the honest user and ``R_n`` is a
supermartingale under *every* admissible impostor strategy — adaptive ones
included — so neither side can improve their exit probabilities by cleverness.

This module provides the designer's ``p``, the session runner, closed-form
bounds on expected stopping times and per-round drift, and a universal lower
bound on the mean length of *any* test achieving a given false-positive
target.  The test suite checks the martingale property empirically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import NamedTuple

import numpy as np

from .alpha_map import UniformBands, inner_edges
from .errors import ConfigError, DomainError, _count, _real
from .photon_stats import (
    DEFAULT_THRESHOLD,
    _bisect,
    gk,
    relative_entropy,
    solve_q_intensity,
)
from .subjects import SubjectModel, class_seeing_means, interrogate, open_scope

__all__ = [
    "Outcome",
    "Round",
    "SequentialPlan",
    "SequentialResult",
    "prior_p",
    "design_wrong_probability",
    "run_sequential",
    "stopping_time_bounds",
    "drift_bounds",
    "optimality_lower_bound",
]

DEFAULT_MAX_ROUNDS = 10_000


class Outcome(Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    TIMEOUT = "timeout"


class Round(NamedTuple):
    """One transcript entry: what was flashed, what was answered, and the
    log-odds increment it produced."""

    alpha: float
    saw: bool
    increment: float


def prior_p(
    distribution: UniformBands, i_tilde: float, k: int = DEFAULT_THRESHOLD
) -> float:
    """The designer's impostor answer probability: the exact expectation of
    the seeing probability over the interrogation distribution, the average
    of the two :func:`~retinasim.subjects.class_seeing_means`.
    """
    low, high = class_seeing_means(distribution, i_tilde, k)
    return 0.5 * (low + high)


def design_wrong_probability(
    distribution: UniformBands, i_tilde: float, k: int = DEFAULT_THRESHOLD
) -> float:
    """Worst-case per-round wrong-answer probability of the honest user.

    A wrong answer is "seen" on a low spot or "not seen" on a high spot; the
    worst case over the distribution's support is attained at the top of the
    low range and the bottom of the high range.  For a symmetric operating
    design the two coincide.
    """
    low_edge, high_edge = inner_edges(distribution)
    return max(gk(k, low_edge * i_tilde), 1.0 - gk(k, high_edge * i_tilde))


@dataclass(frozen=True)
class SequentialPlan:
    """Operating parameters of one sequential test.

    ``p`` is the designer's impostor answer probability, ``x`` and ``y`` the
    lower and upper odds thresholds (``x = p_fn``, ``y = 1/p_fp``),
    ``i_tilde`` the common pulse intensity, ``k`` the design perception
    threshold and ``distribution`` the interrogation distribution.
    """

    p: float
    x: float
    y: float
    i_tilde: float
    k: int
    distribution: UniformBands

    def __post_init__(self) -> None:
        if not (0.0 < self.x < 1.0 < self.y):
            raise DomainError(
                f"thresholds must satisfy 0 < x < 1 < y, got x={self.x!r}, y={self.y!r}"
            )
        object.__setattr__(self, "p", _real("impostor model p", self.p, "(0, 1)"))
        object.__setattr__(self, "k", _count("threshold K", self.k, 1))
        q = design_wrong_probability(self.distribution, self.i_tilde, self.k)
        if not ((1.0 - q) / 2.0 < self.p < (1.0 + q) / 2.0):
            raise ConfigError(
                f"impostor model p={self.p!r} is inconsistent with the interrogation "
                f"design: it must lie in ({(1.0 - q) / 2.0!r}, {(1.0 + q) / 2.0!r}) "
                f"for worst-case wrong-answer probability q={q!r}"
            )

    @classmethod
    def design(
        cls,
        distribution: UniformBands,
        p_fp: float,
        p_fn: float,
        i_tilde: float | None = None,
        k: int = DEFAULT_THRESHOLD,
    ) -> "SequentialPlan":
        """Build a plan from error-rate targets.

        When ``i_tilde`` is omitted it is solved from the distribution's
        inner edges so the design is symmetric: the top of the low range is
        seen as often as the bottom of the high range is missed.
        """
        p_fp = _real("p_fp", p_fp, "(0, 1)")
        p_fn = _real("p_fn", p_fn, "(0, 1)")
        if i_tilde is None:
            _q, i_tilde = solve_q_intensity(*inner_edges(distribution), k)
        p = prior_p(distribution, i_tilde, k)
        return cls(
            p=p,
            x=p_fn,
            y=1.0 / p_fp,
            i_tilde=float(i_tilde),
            k=k,
            distribution=distribution,
        )

    @functools.cached_property
    def _edge_rounds(self) -> dict[float, tuple[Round, Round]]:
        """For each inner edge ``alpha``, its transcript entry on a miss and
        on a hit, indexed by the answer: ``_edge_rounds[alpha][saw]``.  The
        increment is a pure function of the plan, ``alpha`` and the answer,
        so a point-pair session needs only these four entries and shares
        them across its rounds and transcripts."""
        rounds = {}
        for a in inner_edges(self.distribution):
            see = gk(self.k, a * self.i_tilde)
            rounds[a] = (Round(a, False, _log_increment(see, False, self.p)),
                         Round(a, True, _log_increment(see, True, self.p)))
        return rounds


def _likelihood_ratio(p_see: float, saw: bool, p: float) -> float:
    """Z_A / Z_E for one answer: honest-user likelihood over the designer's
    impostor likelihood."""
    z_a = p_see if saw else 1.0 - p_see
    z_e = p if saw else 1.0 - p
    return z_a / z_e


def _log_increment(p_see: float, saw: bool, p: float) -> float:
    """ln(Z_A / Z_E) for one answer; -inf when the answer is impossible
    under the honest-user model."""
    ratio = _likelihood_ratio(p_see, saw, p)
    return math.log(ratio) if ratio > 0.0 else -math.inf


@dataclass(frozen=True)
class SequentialResult:
    """How one session ended: the outcome, the rounds it took, the final log
    odds ratio ln(R_n/R_0), and the per-round transcript (empty when not
    recorded)."""

    outcome: Outcome
    rounds: int
    log_odds: float
    transcript: tuple[Round, ...] = ()

    @property
    def accepted(self) -> bool:
        return self.outcome is Outcome.ACCEPT


def run_sequential(
    subject: SubjectModel,
    plan: SequentialPlan,
    rng: np.random.Generator,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    *,
    record_transcript: bool = True,
) -> SequentialResult:
    """Interrogate until the log odds leave (ln x, ln y) or the round cap.

    Accept on an upper exit, reject on a lower exit (including the terminal
    -inf of an impossible answer), and report a distinct timeout outcome if
    the cap is reached — the walk terminates almost surely, so the cap is a
    plumbing guard, not part of the statistical design.

    ``record_transcript=False`` skips transcript assembly for bulk Monte
    Carlo runs; the result is identical apart from the empty transcript.
    """
    max_rounds = _count("round cap", max_rounds, 1)
    ln_x = math.log(plan.x)
    ln_y = math.log(plan.y)
    edge_rounds = plan._edge_rounds
    k, i_tilde, p = plan.k, plan.i_tilde, plan.p
    log_odds = 0.0
    rounds = 0
    outcome = Outcome.TIMEOUT
    transcript: list[Round] = []
    interrogation = interrogate(open_scope(subject, rng), plan.distribution,
                                plan.i_tilde, rng)
    for rounds, (_cls, alpha, saw) in enumerate(islice(interrogation, max_rounds), 1):
        pair = edge_rounds.get(alpha)
        if pair is None:  # a band value off the inner edges
            step = Round(alpha, saw, _log_increment(gk(k, alpha * i_tilde), saw, p))
        else:
            step = pair[saw]
        log_odds += step.increment
        if record_transcript:
            transcript.append(step)
        if log_odds >= ln_y:
            outcome = Outcome.ACCEPT
            break
        if log_odds <= ln_x:
            outcome = Outcome.REJECT
            break
    return SequentialResult(
        outcome=outcome, rounds=rounds, log_odds=log_odds, transcript=tuple(transcript)
    )


def stopping_time_bounds(
    q: float, q_min: float, p_fp: float, p_fn: float
) -> tuple[float, float]:
    """Closed-form upper bounds on the expected stopping time.

    For the honest user (wrong-answer probability at most ``q`` per round):

        E[T] <= ln(2 / ((1 - q) * p_fp)) / H(q | 1/2).

    For an impostor, with ``q_min`` the smallest seeing/missing probability
    over the support (it controls the largest possible single-round drop):

        E[T] <= 2 * ln(2 * q_min * p_fn / (1 + q)) / ln(4 q (1 - q)).

    Both follow from optional stopping applied to the drift-corrected walk;
    numerator and denominator of the impostor bound are both negative.
    """
    q = _real("q", q, "(0, 1/2)")
    q_min = _real("q_min", q_min, "(0, 1/2)")
    if q_min > q:
        raise DomainError(f"q_min must not exceed q, got q_min={q_min!r}, q={q!r}")
    p_fp = _real("p_fp", p_fp, "(0, 1)")
    p_fn = _real("p_fn", p_fn, "(0, 1)")
    bound_alice = math.log(2.0 / ((1.0 - q) * p_fp)) / relative_entropy(q, 0.5)
    bound_eve = (
        2.0
        * math.log(2.0 * q_min * p_fn / (1.0 + q))
        / math.log(4.0 * q * (1.0 - q))
    )
    return bound_alice, bound_eve


def drift_bounds(q: float) -> tuple[float, float]:
    """Per-round log-odds drift guarantees.

    Returns ``(mu_alice_min, mu_eve_max)``: the honest user's drift is at
    least ``H(q | 1/2) > 0`` and any impostor's drift is at most
    ``ln(4 q (1-q)) / 2 < 0``.  A symmetric two-point design attains both
    with equality.
    """
    q = _real("q", q, "(0, 1/2)")
    return relative_entropy(q, 0.5), 0.5 * math.log(4.0 * q * (1.0 - q))


def optimality_lower_bound(q: float, p_fp: float) -> int:
    """Universal round-count floor for the given false-positive target.

    No identification test whose honest user errs with probability ``q`` per
    round can reach false-positive probability ``p_fp`` in fewer than about

        N * H(q|1/2) + ln(8 N q (1-q)) / 2  >=  ln(1/p_fp)

    rounds; the left side is strictly increasing in N, so the crossing point
    is unique.  Returns the integer part of the crossing point (at least 1)
    — a conservative floor for comparison against achievable mean stopping
    times.
    """
    q = _real("q", q, "(0, 1/2)")
    p_fp = _real("p_fp", p_fp, "(0, 1)")
    target = math.log(1.0 / p_fp)
    h = relative_entropy(q, 0.5)

    def excess(n: float) -> float:
        return n * h + 0.5 * math.log(8.0 * n * q * (1.0 - q)) - target

    hi = max(target / h + 10.0, 10.0)
    root = _bisect(excess, 1e-12, hi)
    return max(1, int(math.floor(root)))
