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
session runner draws such a session's exit from that law.  Any other
session whose answer law is known (band distributions, an asymmetric pair)
it draws in blocks of rounds, and a rule's session round by round.

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
from itertools import accumulate, islice
from typing import NamedTuple

import numpy as np

from .alpha_map import UniformBands, inner_edges
from .errors import ConfigError, DomainError, _count, _real
from .photon_stats import (
    DEFAULT_THRESHOLD,
    _bisect,
    _gk_array,
    gk,
    relative_entropy,
    solve_q_intensity,
)
from .subjects import (
    AnswerLaw,
    SubjectModel,
    class_seeing_means,
    honest_threshold,
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

#: Rounds a block session (:func:`_block_session`) draws at once, from one
#: ``rng.random(3 * _BLOCK_ROUNDS)``; the last block stops at the round
#: cap.  Each round reads its own three uniforms, so no record depends on
#: it.  An honest band session takes about 45 rounds.
_BLOCK_ROUNDS = 64

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
    def _log_thresholds(self) -> tuple[float, float]:
        """``(ln x, ln y)``, the log odds at which a session rejects and accepts."""
        return math.log(self.x), math.log(self.y)

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
        reach = max(map(abs, self._log_thresholds)) + largest
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


def _log_increment(p_see: float, saw: bool, p: float) -> float:
    """ln(Z_A / Z_E) for one answer, the honest-user likelihood over the
    designer's impostor likelihood; -inf when the answer is impossible
    under the honest-user model."""
    ratio = (p_see if saw else 1.0 - p_see) / (p if saw else 1.0 - p)
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
    * ``levels[n]`` is ``(lo, masses, totals)``, the step out of the live
      band after ``n`` rounds: ``masses[j]`` is the probability of standing
      at ``w = lo + j`` (0.0 past the band), and ``totals[j]`` that of
      standing there a round later, before the exits leave.  A traced
      session samples its path backward through these (:func:`_traced_exit`).
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
    levels: tuple[tuple[int, tuple[float, ...], tuple[float, ...]], ...]
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
    ln_x, ln_y = plan._log_thresholds
    keep, cross = 1.0 - p_wrong, p_wrong
    live: tuple[float, ...] = (1.0,)
    lo = 0
    levels = []
    atoms = []  # (mass, outcome, rounds, wrong)
    margin = math.inf
    for n in range(1, max_rounds + 1):
        padded = live + (0.0,)
        band = [x * keep + y * cross for x, y in zip(padded, (0.0,) + live)]
        levels.append((lo, padded, tuple(band)))
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

    A session whose law gives its wrong-answer probability (the honest
    user, every biased impostor, and ``echo``) is drawn at law level:

    * on a lattice walk, from its exact exit law
      (:meth:`SequentialPlan.exit_law`): a symmetric point pair.  One
      uniform picks the exit, whose final log odds is the lattice value of
      its right and wrong answers.  A traced session then samples its path
      backward from that exit, each round's answer and class in one pass,
      so the transcript changes the draws after the exit and never the
      result;
    * on any other plan (band distributions, an asymmetric point pair, a
      plan whose lattice check fails), in blocks of rounds
      (:func:`_block_session`), three uniforms a round.

    A rule, whose law gives no probability, is interrogated round by round.
    In blocks or round by round, the final log odds of a walk is the
    round-order sum of its increments.

    ``record_transcript=False`` skips transcript assembly for bulk Monte
    Carlo runs; the result is identical apart from the empty transcript.
    """
    max_rounds = _count("round cap", max_rounds, 1)
    law = open_scope(subject, rng)
    p_wrong = law.p_wrong(plan.distribution, plan.i_tilde)
    if p_wrong is None:
        return _rule_session(plan, law, rng, max_rounds, record_transcript)
    exits = plan.exit_law(p_wrong, max_rounds)
    if exits is None:
        return _block_session(plan, law, rng, max_rounds, record_transcript)
    index = exits.draw(rng.random())
    if not record_transcript:
        return exits.results[index]
    return _traced_exit(plan, law, exits, index, rng)


def _rule_session(
    plan: SequentialPlan, law: AnswerLaw, rng: np.random.Generator, max_rounds: int,
    record_transcript: bool,
) -> SequentialResult:
    """A session interrogated round by round (:func:`interrogate`), one
    answer of the law a round."""
    ln_x, ln_y = plan._log_thresholds
    k, i_tilde, p = plan.k, plan.i_tilde, plan.p
    log_odds, rounds, outcome = 0.0, 0, Outcome.TIMEOUT
    transcript: list[Round] = []
    interrogation = interrogate(law, plan.distribution, i_tilde, rng)
    for rounds, (_cls, alpha, saw) in enumerate(islice(interrogation, max_rounds), 1):
        step = Round(alpha, saw, _log_increment(gk(k, alpha * i_tilde), saw, p))
        log_odds += step.increment
        if record_transcript:
            transcript.append(step)
        if log_odds >= ln_y or log_odds <= ln_x:
            outcome = Outcome.ACCEPT if log_odds >= ln_y else Outcome.REJECT
            break
    return SequentialResult(outcome, rounds, log_odds, tuple(transcript))


def _block_session(
    plan: SequentialPlan, law: AnswerLaw, rng: np.random.Generator, max_rounds: int,
    record_transcript: bool,
) -> SequentialResult:
    """A session drawn in blocks of :data:`_BLOCK_ROUNDS` rounds.

    Round ``j`` reads uniforms ``3j``, ``3j + 1`` and ``3j + 2`` of the
    stream: the class coin (high below 1/2, as in
    :func:`~retinasim.alpha_map.class_draws`), the transmission
    ``a + (b - a) * u`` in that class's band, and the answer, "seen" below
    the law's seeing probability.  The seeing probabilities come from
    :func:`~retinasim.photon_stats._gk_array` and the increments from
    :func:`_log_increment`'s expression, elementwise; NumPy's ``log`` may
    round an increment one ulp from :func:`math.log`'s.  The walk is one
    running sum carried from block to block, so it folds in round order as
    the per-round ``+=`` does, and the session ends at its first value at or
    beyond ln y or ln x, or at ``max_rounds``.  The uniforms drawn past the
    exit are the trial's own and go unused, so the record does not depend on
    the block size, and a transcript changes no draw.  The honest user at
    the plan's threshold sees with the plan's own probabilities, which are
    computed once."""
    ln_x, ln_y = plan._log_thresholds
    (a, b), (c, d) = plan.distribution.low_band, plan.distribution.high_band
    k, i_tilde, p = plan.k, plan.i_tilde, plan.p
    own = honest_threshold(law) == k
    log_odds, rounds, outcome = 0.0, 0, Outcome.TIMEOUT
    transcript: list[Round] = []
    while rounds < max_rounds:
        n = min(_BLOCK_ROUNDS, max_rounds - rounds)
        coin, spread, answer = rng.random(3 * n).reshape(n, 3).T
        alpha = np.where(coin < 0.5, c + (d - c) * spread, a + (b - a) * spread)
        x = alpha * i_tilde
        see = _gk_array(k, x)
        saw = answer < (see if own else law.p_seen(x, alpha))
        with np.errstate(divide="ignore"):
            steps = np.log(np.where(saw, see, 1.0 - see) / np.where(saw, p, 1.0 - p))
        walk = steps.copy()
        walk[0] += log_odds
        np.add.accumulate(walk, out=walk)
        crossed = np.flatnonzero((walk >= ln_y) | (walk <= ln_x))
        end = int(crossed[0]) + 1 if crossed.size else n
        if record_transcript:
            transcript += map(Round, alpha[:end].tolist(), saw[:end].tolist(),
                              steps[:end].tolist())
        rounds += end
        log_odds = float(walk[end - 1])
        if crossed.size:
            outcome = Outcome.ACCEPT if log_odds >= ln_y else Outcome.REJECT
            break
    return SequentialResult(outcome, rounds, log_odds, tuple(transcript))


def _traced_exit(
    plan: SequentialPlan, law: AnswerLaw, exits: ExitLaw, index: int,
    rng: np.random.Generator,
) -> SequentialResult:
    """The result of exit atom ``index`` with a transcript, sampled
    backward in one pass from ``2 * rounds`` uniforms: ``uniforms[n]``
    decides whether round ``n + 1`` was answered wrong, and
    ``uniforms[rounds + n]`` its class.  The state before ``(n, w)`` is
    ``(n - 1, w)`` after a right answer, with probability
    ``masses[j] * (1 - p_wrong) / totals[j]`` (:class:`ExitLaw`), else
    ``(n - 1, w - 1)``; an accepting walk's last answer is right and a
    rejecting one's wrong.  The law sees with probability ``s_low`` on the
    low spot and ``s_high`` on the high one, so a right answer was on the
    high spot with probability ``s_high / (s_high + 1 - s_low)``, a wrong
    one with ``(1 - s_high) / (1 - s_high + s_low)``."""
    result = exits.results[index]
    rounds, outcome = result.rounds, result.outcome
    uniforms = rng.random(2 * rounds).tolist()
    (low, _), (high, _) = plan.distribution.low_band, plan.distribution.high_band
    s_low = law.p_seen(low * plan.i_tilde, low)
    s_high = law.p_seen(high * plan.i_tilde, high)
    high_right = s_high / (s_high + 1.0 - s_low)
    high_wrong = (1.0 - s_high) / (1.0 - s_high + s_low)
    # A miss is right on the low spot and wrong on the high one.
    right_low, wrong_low = plan._edge_rounds[low]
    wrong_high, right_high = plan._edge_rounds[high]
    transcript = [None] * rounds
    levels, n, w = exits.levels, rounds, exits.wrong[index]
    keep = 1.0 - exits.p_wrong
    if outcome is not Outcome.TIMEOUT:
        n -= 1
        if outcome is Outcome.REJECT:
            w -= 1
            transcript[n] = wrong_high if uniforms[rounds + n] < high_wrong else wrong_low
        else:
            transcript[n] = right_high if uniforms[rounds + n] < high_right else right_low
    while n:
        n -= 1
        lo, masses, totals = levels[n]
        j = w - lo
        if uniforms[n] * totals[j] >= masses[j] * keep:
            w -= 1
            transcript[n] = wrong_high if uniforms[rounds + n] < high_wrong else wrong_low
        else:
            transcript[n] = right_high if uniforms[rounds + n] < high_right else right_low
    return SequentialResult(outcome, rounds, result.log_odds, tuple(transcript))


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
