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

For a symmetric point pair the two answers that are right, and the two that
are wrong, move the log odds alike, so the walk lives on the lattice
(#right, #wrong) and its exit law is computed exactly (Wald, 1945); the
session runner draws such a session's exit from that law, and walks every
other session round by round.

This module provides the designer's ``p``, the session runner, the exit
law, closed-form bounds on expected stopping times and per-round drift, and
a universal lower bound on the mean length of *any* test achieving a given
false-positive target.  The test suite checks the martingale property
empirically, and the exit law against the per-round walk.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from collections.abc import Sequence
from itertools import accumulate, islice
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
from .subjects import (
    AnswerLaw,
    SubjectModel,
    class_seeing_means,
    interrogate,
    open_scope,
)

__all__ = [
    "Outcome",
    "Round",
    "ExitLaw",
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

#: The unit roundoff of a double, 2**-53: the largest relative error of one
#: correctly rounded sum or product, and the step between the values
#: ``Generator.random()`` returns.
_UNIT_ROUNDOFF = 2.0**-53

#: Most units in the last place by which a point pair's two "right"
#: increments, or its two "wrong" ones, may differ for its walk to count as
#: a lattice walk.  The solved symmetric intensity leaves them 1 and 4 apart
#: at the default pair, and at most 55 apart over the pairs in [0.02, 0.18]
#: and thresholds 4 to 9 tried; an asymmetric pair's differ by a tenth or
#: more.  Whatever the gap, it is charged to the fold's error bound.
_LATTICE_ULPS = 256


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

    @functools.cached_property
    def _lattice(self) -> tuple[float, float, float] | None:
        """``(right, wrong, error)`` for a symmetric point pair, ``None`` for
        any other plan.  ``right`` and ``wrong`` are the low spot's
        increments on a right and on a wrong answer; the high spot's agree
        with them within :data:`_LATTICE_ULPS`, so after ``w`` wrong answers
        in ``n`` rounds the walk stands near the lattice point
        ``(n - w) * right + w * wrong`` whatever the classes were.
        ``error`` bounds, per round, how far the round-order fold of the
        actual increments and that lattice value computed in floats may
        stray from each other: the gap between the two spots' increments,
        plus one rounding of each fold step (whose sum is at most the
        larger threshold's magnitude plus the largest increment, ``R``) and
        three of the lattice value's ``n`` increments (``3 * M``)."""
        (low, low_top), (high, high_top) = (self.distribution.low_band,
                                            self.distribution.high_band)
        if low != low_top or high != high_top:
            return None
        rights = (self._edge_rounds[low][False].increment,
                  self._edge_rounds[high][True].increment)
        wrongs = (self._edge_rounds[low][True].increment,
                  self._edge_rounds[high][False].increment)
        steps = rights + wrongs
        if not (all(map(math.isfinite, steps)) and rights[0] > 0.0 > wrongs[0]):
            return None
        gap = max(abs(rights[0] - rights[1]), abs(wrongs[0] - wrongs[1]))
        largest = max(map(abs, steps))
        if gap > _LATTICE_ULPS * math.ulp(largest):
            return None
        reach = max(abs(math.log(self.x)), abs(math.log(self.y))) + largest
        return rights[0], wrongs[0], gap + _UNIT_ROUNDOFF * (reach + 3.0 * largest)

    def exit_law(
        self, p_wrong: float, max_rounds: int = DEFAULT_MAX_ROUNDS
    ) -> ExitLaw | None:
        """The exact law of the session's exit when each round is answered
        wrong with probability ``p_wrong``, independently, and the session
        stops at ``max_rounds``; ``None`` unless the walk is a lattice walk
        on which every decision the round-order fold makes is the lattice
        value's (see :class:`ExitLaw`).  Built on first use and cached per
        ``(plan, p_wrong, max_rounds)``."""
        return _exit_law(self, p_wrong, max_rounds)


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


@dataclass(frozen=True, eq=False)
class ExitLaw:
    """Where and how a symmetric point pair's walk leaves (ln x, ln y).

    Such a walk is a random walk on the lattice (#right, #wrong) that
    takes a wrong step with probability ``p_wrong`` a round (Wald, 1945).
    Its exit atoms come from a level-by-level recursion over the live band,
    the states (n, w) still inside after ``n`` rounds with ``w`` wrong: one
    contiguous run of ``w``, since the log odds fall as ``w`` grows, and
    each level's at most one accepting and one rejecting state leave it.

    * ``results[i]`` is atom ``i`` as a session's result without a
      transcript: its outcome, round count and final log odds, the lattice
      value ``(rounds - w) * right + w * wrong`` in floats, with
      ``w = wrong[i]``; it has probability ``mass[i]``, and ``cdf`` holds
      the running sums, for sampling by one uniform.  A walk still inside
      at ``max_rounds`` is a timeout atom, one per live state.
    * ``levels[n]`` is ``(lo, masses)``: the live band after ``n`` rounds,
      ``masses[j]`` the probability of standing at ``w = lo + j``.  A path
      to a given atom is sampled backward through these.
    * The recursion stops once the live mass is below 2**-53, the step of
      one uniform: the law sampled differs from the exact one by less than
      that in total variation, apart from the rounding of the masses.
    * Every decision agrees with the per-round walk's: at each level, the
      reachable lattice points nearest each threshold lie farther from it
      than ``n * fold_error``, which bounds how far the round-order fold of
      the actual increments may be from the lattice value.  ``margin`` is
      the least of those distances.
    """

    p_wrong: float
    right: float
    wrong_step: float
    results: tuple[SequentialResult, ...]
    wrong: tuple[int, ...]
    mass: tuple[float, ...]
    cdf: tuple[float, ...]
    levels: tuple[tuple[int, tuple[float, ...]], ...]
    margin: float
    fold_error: float

    def probability(self, outcome: Outcome) -> float:
        """The probability that the session ends in ``outcome``."""
        return math.fsum(m for r, m in zip(self.results, self.mass) if r.outcome is outcome)

    @property
    def mean_rounds(self) -> float:
        """E[T], a timed-out session counted at its cap."""
        return math.fsum(r.rounds * m for r, m in zip(self.results, self.mass))

    def draw(self, u: float) -> int:
        """The atom a uniform ``u`` in [0, 1) picks; the mass below the
        stopping floor falls to the last atom."""
        return min(bisect_right(self.cdf, u), len(self.cdf) - 1)

    def path(self, index: int, uniforms: Sequence[float]) -> list[bool]:
        """Whether each round of a walk that ends at atom ``index`` was
        answered wrong, sampled backward through the live bands: the state
        before a live state ``(n, w)`` is ``(n - 1, w)`` after a right
        answer or ``(n - 1, w - 1)`` after a wrong one, in proportion to
        their masses times the step's probability.  ``uniforms[n - 1]``
        decides round ``n``, where it is not forced: an accepting walk's
        last answer is right and a rejecting one's wrong."""
        result = self.results[index]
        n, w = result.rounds, self.wrong[index]
        wrong = [False] * n
        if result.outcome is not Outcome.TIMEOUT:
            n -= 1
            if result.outcome is Outcome.REJECT:
                wrong[n] = True
                w -= 1
        keep, cross = 1.0 - self.p_wrong, self.p_wrong
        levels = self.levels
        while n > 0:
            lo, masses = levels[n - 1]
            j = w - lo
            stay = masses[j] * keep if j < len(masses) else 0.0
            step = masses[j - 1] * cross if j > 0 else 0.0
            n -= 1
            if uniforms[n] * (stay + step) >= stay:
                wrong[n] = True
                w -= 1
        return wrong


@functools.lru_cache(maxsize=64)
def _exit_law(plan: SequentialPlan, p_wrong: float, max_rounds: int) -> ExitLaw | None:
    """:meth:`SequentialPlan.exit_law`, cached per argument triple as
    :func:`~retinasim.subjects.class_seeing_means` is: a run asks for the
    same law every session."""
    p_wrong = _real("wrong-answer probability", p_wrong, "(0, 1)")
    max_rounds = _count("round cap", max_rounds, 1)
    lattice = plan._lattice
    if lattice is None:
        return None
    right, wrong, error = lattice
    ln_x, ln_y = math.log(plan.x), math.log(plan.y)
    keep, cross = 1.0 - p_wrong, p_wrong
    live: tuple[float, ...] = (1.0,)
    lo = 0
    levels = [(lo, live)]
    atoms = []  # (mass, outcome, rounds, wrong)
    margin = math.inf
    for n in range(1, max_rounds + 1):
        band = [x * keep + y * cross for x, y in zip(live + (0.0,), (0.0,) + live)]
        hi = lo + len(band) - 1
        # The reachable lattice points nearest each threshold: the band's
        # ends, and the state beside an end that leaves.
        top, bottom = (n - lo) * right + lo * wrong, (n - hi) * right + hi * wrong
        nearest = min(abs(top - ln_y), abs(bottom - ln_x))
        if top >= ln_y:
            atoms.append((band.pop(0), Outcome.ACCEPT, n, lo))
            lo += 1
            nearest = min(nearest, ln_y - ((n - lo) * right + lo * wrong))
        if bottom <= ln_x:
            atoms.append((band.pop(), Outcome.REJECT, n, hi))
            nearest = min(nearest, (n - hi + 1) * right + (hi - 1) * wrong - ln_x)
        if not nearest > n * error:
            return None
        margin = min(margin, nearest)
        live = tuple(band)
        levels.append((lo, live))
        if sum(live) < _UNIT_ROUNDOFF:
            break
    else:
        atoms += [(m, Outcome.TIMEOUT, max_rounds, lo + j) for j, m in enumerate(live)]
    mass = tuple(m for m, _outcome, _n, _w in atoms)
    return ExitLaw(
        p_wrong=p_wrong, right=right, wrong_step=wrong,
        results=tuple(SequentialResult(outcome, n, (n - w) * right + w * wrong)
                      for _m, outcome, n, w in atoms),
        wrong=tuple(w for _m, _outcome, _n, w in atoms),
        mass=mass, cdf=tuple(accumulate(mass)), levels=tuple(levels),
        margin=margin, fold_error=error,
    )


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

    A session whose walk is a lattice walk is drawn from its exact exit law
    (:meth:`SequentialPlan.exit_law`): a symmetric point pair, answered by a
    law that gives its wrong-answer probability and does not ask to be
    walked round by round (the honest user and every biased impostor).
    One uniform picks the exit, whose final log odds is the lattice value
    of its right and wrong answers.  A traced session then samples its path
    backward from that exit, and each round's class after it, so the
    transcript changes the draws after the exit and never the result.
    Every other session (band distributions, adaptive rules, a plan whose
    lattice check fails) is interrogated round by round, and its final log
    odds is the round-order sum of its increments.

    ``record_transcript=False`` skips transcript assembly for bulk Monte
    Carlo runs; the result is identical apart from the empty transcript.
    """
    max_rounds = _count("round cap", max_rounds, 1)
    law = open_scope(subject, rng)
    p_wrong = (None if law.walks_round_by_round
               else law.p_wrong(plan.distribution, plan.i_tilde))
    exits = None if p_wrong is None else plan.exit_law(p_wrong, max_rounds)
    if exits is not None:
        index = exits.draw(rng.random())
        if not record_transcript:
            return exits.results[index]
        return _traced_exit(plan, law, exits, index, rng)
    ln_x = math.log(plan.x)
    ln_y = math.log(plan.y)
    edge_rounds = plan._edge_rounds
    k, i_tilde, p = plan.k, plan.i_tilde, plan.p
    log_odds = 0.0
    rounds = 0
    outcome = Outcome.TIMEOUT
    transcript: list[Round] = []
    interrogation = interrogate(law, plan.distribution, plan.i_tilde, rng)
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


def _traced_exit(
    plan: SequentialPlan, law: AnswerLaw, exits: ExitLaw, index: int,
    rng: np.random.Generator,
) -> SequentialResult:
    """The result of exit atom ``index`` with a transcript: ``2 * rounds``
    uniforms, the first ``rounds`` for the path (:meth:`ExitLaw.path`) and
    the rest for each round's class, given whether the round was answered
    right.  The law sees with probability ``s_low`` on the low spot and
    ``s_high`` on the high one, so a right answer was on the high spot with
    probability ``s_high / (s_high + 1 - s_low)``, a wrong one with
    ``(1 - s_high) / (1 - s_high + s_low)``; a high spot's answer is "seen"
    exactly when it is right."""
    result = exits.results[index]
    rounds = result.rounds
    uniforms = rng.random(2 * rounds).tolist()
    (low, _), (high, _) = plan.distribution.low_band, plan.distribution.high_band
    s_low = law.p_seen(low * plan.i_tilde, low)
    s_high = law.p_seen(high * plan.i_tilde, high)
    high_given = (s_high / (s_high + 1.0 - s_low), (1.0 - s_high) / (1.0 - s_high + s_low))
    low_rounds, high_rounds = plan._edge_rounds[low], plan._edge_rounds[high]
    transcript = tuple(
        high_rounds[not wrong] if u < high_given[wrong] else low_rounds[wrong]
        for wrong, u in zip(exits.path(index, uniforms), uniforms[rounds:])
    )
    return SequentialResult(result.outcome, rounds, result.log_odds, transcript)


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
