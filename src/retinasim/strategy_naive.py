"""Per-spot estimation protocol: repeated interrogation of individual spots.

The oldest and most literal identification scheme: pick ``mu`` distinct
retinal spots, interrogate each one ``nu`` times at an intensity tuned so the
honest user sees each pulse with a common probability ``p_C``, and accept the
subject only if the per-spot "seen" count lands strictly inside an acceptance
window ``(n_L, n_R)`` for every spot.

The window is sized against an impostor who draws an answering bias p
uniformly at random for each spot test: her count is then uniform on
{0..nu}, so her per-spot pass probability is exactly
``(n_R - n_L - 1) / (nu + 1)``.  That is not her best play.  The honest
user's count is Binomial(nu, p_C), so an impostor answering with a fixed
bias p_C has exactly the honest law and passes as often as the honest user.
At the default plan (nu = mu = 50, p_C = 1/2, window (9, 42)) a fair coin is
accepted with probability P(9 < Bin(50, 1/2) < 42)^50 = 0.99983, the uniform
bias with (32/51)^50 = 7.57e-11.  The honest user's failure probability is
controlled through Chernoff bounds on the binomial tails outside the window.

Because the tuned intensity differs from spot to spot, a photodetector-armed
impostor could in principle estimate it and reconstruct the spot's
transmission — this protocol predates the information-barrier designs and is
kept as the baseline they improve on.

A session's record is its per-spot "seen" counts, which the runner draws
from their exact law where a spot's rounds are i.i.d.: after the spots are
sampled (``rng.choice``), the honest user's counts are one vector of
Binomial(nu, P(Poisson(x*) >= k)) draws, with x* the intensity that gives
p_C at the design threshold and k her own (so p_C when the two agree), a
constant-bias impostor one vector of Binomial(nu, bias) draws (a uniform
bias drawn first for each spot), and ``echo``, who sees when her own
detector counts k of the pulse's x*/alpha_s photons, one vector of
Binomial(nu, P(Poisson(x*/alpha_s) >= k)) draws, one probability per spot.
The first failing spot is found in that vector with one array comparison.
An adaptive impostor whose rule declares no law is interrogated round by
round, one spot at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .alpha_map import AlphaMap
from .errors import ConfigError, DomainError, InfeasibleError, _count, _real
from .photon_stats import DEFAULT_THRESHOLD, _relative_entropy, gk_inverse
from .subjects import AnswerLaw, SubjectModel, open_scopes

__all__ = [
    "NaiveTestPlan",
    "NaiveResult",
    "acceptance_counts",
    "required_nu",
    "run_naive",
]

_NU_SEARCH_LIMIT = 10**6


@dataclass(frozen=True)
class NaiveTestPlan:
    """Full sizing of the per-spot protocol.

    ``nu``: interrogations per spot; ``mu``: number of spots; ``p_c``: tuned
    per-pulse seeing probability for the honest user; ``(n_l, n_r)``: open
    acceptance window on the per-spot count.
    """

    nu: int
    mu: int
    p_c: float
    n_l: int
    n_r: int

    def __post_init__(self) -> None:
        for name, value in (
            ("nu", _count("interrogations per spot", self.nu, 1)),
            ("mu", _count("spot count", self.mu, 1, ConfigError)),
            ("p_c", _real("p_c", self.p_c, "(0, 1)")),
            ("n_l", _count("n_l", self.n_l, 0)),
            ("n_r", _count("n_r", self.n_r, 0)),
        ):
            object.__setattr__(self, name, value)
        if not (0 <= self.n_l < self.n_r <= self.nu):
            raise DomainError(
                f"acceptance counts must satisfy 0 <= n_l < n_r <= nu, got "
                f"({self.n_l}, {self.n_r}) with nu={self.nu}"
            )
        center = self.nu * self.p_c
        if not (self.n_l < center < self.n_r):
            raise DomainError(
                f"acceptance window ({self.n_l}, {self.n_r}) does not straddle "
                f"nu * p_c = {center!r}"
            )


@functools.lru_cache(maxsize=64, typed=True)
def _tuned_mean(k: int, p_c: float) -> float:
    """x*: the mean photon number at which an eye of threshold ``k`` sees a
    pulse with probability ``p_c``.  Solved once per ``(k, p_c)``, not once
    per session; ``typed`` keeps a ``True`` threshold from reading the
    entry of ``1`` instead of being refused."""
    return gk_inverse(k, p_c)


def acceptance_counts(
    p_c: float, nu: int, p_fp: float, mu: int
) -> tuple[int, int]:
    """Widest acceptance window compatible with the impostor budget.

    The impostor's per-spot pass probability is exactly
    ``(n_r - n_l - 1) / (nu + 1)``; across ``mu`` independent spot tests the
    overall false-positive target ``p_fp`` therefore requires the per-spot
    probability to stay at or below ``p_fp ** (1/mu)``.  The window is the
    widest integer window meeting that budget, centred on ``nu * p_c``
    (rounding half up) and clipped into ``[0, nu]``: an edge past the count
    range moves the window inward, and a window clipped at both edges is
    narrower, which still meets the budget.  Nothing warns of a clip; the
    returned edges show it.
    """
    p_c = _real("p_c", p_c, "(0, 1)")
    nu = _count("interrogations per spot", nu, 1)
    mu = _count("spot count", mu, 1)
    p_fp = _real("p_fp", p_fp, "(0, 1]")

    per_spot_budget = p_fp ** (1.0 / mu)
    width = int(math.floor(per_spot_budget * (nu + 1))) + 1
    if width > nu + 1:
        raise InfeasibleError(
            f"per-spot budget {per_spot_budget!r} accepts every count 0..{nu}; "
            "the plan is vacuous"
        )
    if width < 2:
        raise InfeasibleError(
            f"per-spot budget {per_spot_budget!r} leaves no acceptable count "
            f"(p_fp**(1/mu) * (nu+1) = {per_spot_budget * (nu + 1)!r} < 1); "
            "increase nu or relax p_fp"
        )
    return _window(p_c, nu, width)


def _window(p_c: float, nu: int, width: int) -> tuple[int, int]:
    """:func:`acceptance_counts`' window ``(n_l, n_r)`` of ``width`` counts,
    unchecked, clipped into ``[0, nu]``.  For ``2 <= width <= nu + 1`` it
    straddles ``nu * p_c``: each unclipped edge is ``width / 2 - 1/2`` or
    more away."""
    n_l = max(0, int(math.floor(nu * p_c - width / 2.0 + 0.5)))
    n_r = n_l + width
    if n_r > nu:
        n_r = nu
        n_l = max(0, n_r - width)
    return n_l, n_r


def required_nu(p_fp: float, p_fn: float, mu: int, p_c: float) -> int:
    """Smallest per-spot interrogation count meeting ``p_fp`` exactly and
    ``p_fn`` by an estimate that is not a bound.

    For each candidate ``nu`` the acceptance window is sized from the
    uniform-bias impostor's exact pass probability, and the honest user's
    failure probability across all ``mu`` spot tests is estimated through
    the Chernoff-style expression

        w(nu)  = (exp(-nu*H(p_r|p_c)) + exp(-nu*H(p_l|p_c))) / sqrt(2*nu),
        p_fail = 1 - (1 - w(nu))**mu,

    returning the first ``nu`` with ``p_fail <= p_fn``.  The scan starts at
    the first ``nu`` whose window holds two counts, where
    ``p_fp**(1/mu) * (nu + 1)`` reaches 1, and is not made at all when a
    lower bound on ``w`` over the whole scan already fails ``p_fn``.  At the
    default plan (nu = mu = 50, window (9, 42)) the exact honest session
    failure is 1.694e-4 against ``p_fn`` = 1e-4.
    """
    p_fp = _real("p_fp", p_fp, "(0, 1)")
    p_fn = _real("p_fn", p_fn, "(0, 1)")
    mu = _count("spot count", mu, 1)
    p_c = _real("p_c", p_c, "(0, 1)")

    limit = _NU_SEARCH_LIMIT
    budget = p_fp ** (1.0 / mu)  # as acceptance_counts computes it
    if budget == 1.0:
        raise InfeasibleError(
            f"per-spot budget {budget!r} accepts every count at every nu; "
            "the plan is vacuous"
        )
    first = limit + 1  # no window within the limit: scan nothing
    if budget * first >= 1.0:
        # The least nu with budget * (nu + 1) >= 1 as acceptance_counts
        # rounds it; one below 1 / budget - 1 lies at or under it, however
        # 1 / budget rounds.
        first = max(1, math.ceil(1.0 / budget) - 2)
        while budget * (first + 1) < 1.0:
            first += 1

        # A window holds at most budget * (nu + 1) + 1 counts and straddles
        # nu * p_c, so its nearer edge lies within half that of nu * p_c;
        # with H(p|p_c) <= (p - p_c)**2 / (p_c * (1 - p_c)), every nu has
        # w(nu) >= exp(-reach(nu)) / sqrt(2 * nu).  reach is convex in nu,
        # so over the scan it is largest at an end.
        def reach(nu: int) -> float:
            return (budget * (nu + 1) + 1.0) ** 2 / (4.0 * nu * p_c * (1.0 - p_c))

        least_w = math.exp(-max(reach(first), reach(limit))) / math.sqrt(2.0 * limit)
        # The margin covers rounding in the scan's own w.
        if 1.0 - (1.0 - least_w * (1.0 - 1e-6)) ** mu > p_fn:
            first = limit + 1

    # From first on, 2 <= width <= nu + 1: acceptance_counts refuses none.
    for nu in range(first, limit + 1):
        width = int(math.floor(budget * (nu + 1))) + 1
        n_l, n_r = _window(p_c, nu, width)
        w = (
            math.exp(-nu * _relative_entropy(n_r / nu, p_c))
            + math.exp(-nu * _relative_entropy(n_l / nu, p_c))
        ) / math.sqrt(2.0 * nu)
        if w < 1.0 and 1.0 - (1.0 - w) ** mu <= p_fn:
            return nu
    raise InfeasibleError(
        f"no nu <= {limit} meets p_fp={p_fp!r}, p_fn={p_fn!r} "
        f"with mu={mu}, p_c={p_c!r}"
    )


@dataclass(frozen=True)
class NaiveResult:
    accepted: bool
    spots_tested: int
    see_counts: tuple[int, ...]
    #: Pulses spent: ``nu`` on each tested spot, the failing one included.
    rounds: int


def run_naive(
    subject: SubjectModel,
    alpha_map: AlphaMap,
    plan: NaiveTestPlan,
    rng: np.random.Generator,
    *,
    k: int = DEFAULT_THRESHOLD,
) -> NaiveResult:
    """Run one full per-spot identification session.

    The device samples ``mu`` distinct spots from the map, tunes the pulse
    intensity per spot so the enrolled user's seeing probability equals the
    plan's ``p_c`` (using the stored transmission value and the design
    threshold ``k``), and requires every spot's count to fall inside the
    acceptance window.  The session stops at the first failing spot.

    Each spot test is its own answering scope, and the ``mu`` scopes are
    opened at once (:func:`~retinasim.subjects.open_scopes`), so a
    once-per-scope bias (the uniform-bias strategy) is redrawn for every
    spot — answering all spots with a single shared bias would correlate
    the per-spot counts and is a strictly different game from the one the
    window sizing assumes.  The honest user, a fixed bias and a rule keep no
    per-scope state, so one law serves every spot (a rule's history still
    starts afresh at each).
    """
    if alpha_map.n_spots < plan.mu:
        raise ConfigError(
            f"map has {alpha_map.n_spots} spots but the plan needs {plan.mu}"
        )
    x_star = _tuned_mean(k, plan.p_c)
    spot_indices = rng.choice(alpha_map.n_spots, size=plan.mu, replace=False)
    alphas = alpha_map.alpha[spot_indices]
    law = open_scopes(subject, rng, plan.mu)
    p_seen = law.p_seen(x_star, alphas)
    if p_seen is None:
        see_counts = []
        for count in _answer_rounds(law, alphas, plan.nu, x_star, rng):
            see_counts.append(count)
            if not (plan.n_l < count < plan.n_r):
                break
    else:
        counts = rng.binomial(plan.nu, p_seen, size=plan.mu)
        failed = np.flatnonzero((counts <= plan.n_l) | (counts >= plan.n_r))
        see_counts = counts[: failed[0] + 1 if failed.size else plan.mu].tolist()
    return NaiveResult(
        accepted=plan.n_l < see_counts[-1] < plan.n_r,
        spots_tested=len(see_counts),
        see_counts=tuple(see_counts),
        rounds=len(see_counts) * plan.nu,
    )


def _answer_rounds(
    law: AnswerLaw,
    alphas: np.ndarray,
    nu: int,
    x_star: float,
    rng: np.random.Generator,
) -> Iterator[int]:
    """Per-spot "seen" counts answered round by round, one spot's ``nu``
    rounds at a time, each spot's answers opened afresh, so a caller that
    stops at a failing spot answers no later round."""
    for spot_ordinal, alpha in enumerate(alphas.tolist()):
        i_tilde_spot = x_star / alpha
        answer = law.answers(rng, spot_ordinal)
        yield sum(answer(alpha, i_tilde_spot) for _ in range(nu))
