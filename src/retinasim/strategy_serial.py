"""Fixed-length collective identification test.

The device runs a predetermined number ``N`` of class interrogations and
counts wrong answers (a "seen" on a low spot, or a "not seen" on a high
spot).  The honest user errs with probability at most ``q`` per round, an
impostor errs with probability exactly 1/2, so thresholding the wrong-answer
fraction at some ``w`` strictly between ``q`` and 1/2 separates the two.

Chernoff bounds give the two error exponents

    P[honest user fails]  <= exp(-N * H(w | q)),
    P[impostor passes]    <= exp(-N * H(w | 1/2)),

with ``H`` the Bernoulli relative entropy (natural log).  The sizing solver
balances the two requirements — choose ``w`` so both targets are met by the
same ``N`` — and rounds the resulting round count up.

A session's record is its wrong-answer count, and the runner draws that
count from its exact law where the rounds are i.i.d.  The honest user is
wrong with probability q̄ = ½ (mean P(seen | low) + 1 − mean P(seen | high))
in every round, the class means taken over the interrogation distribution
at her own threshold, so her count is one Binomial(N, q̄) draw.  An
impostor whose session answers with a constant bias never sees the fresh
fair coin that picks the hidden class, so her count is one Binomial(N, ½)
draw whatever the bias; so is the count of ``echo``, whose answer reads
only her own detector count, which the coin never reaches.  An adaptive
impostor whose rule declares no law is interrogated round by round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .alpha_map import AlphaMap, SpotClass, UniformBands, require_support
from .errors import DomainError, InfeasibleError, _count, _real
from .photon_stats import _bisect, relative_entropy
from .subjects import SubjectModel, interrogate, open_scope

__all__ = [
    "SerialPlan",
    "SerialResult",
    "solve_w_N",
    "run_serial",
]


@dataclass(frozen=True)
class SerialPlan:
    """Sizing of one fixed-length test: wrong-answer bound ``q``, decision
    fraction ``w`` and round count ``n_rounds``.  Accept iff the observed
    number of wrong answers is < ``n_rounds * w``."""

    q: float
    w: float
    n_rounds: int

    def __post_init__(self) -> None:
        if not (0.0 < self.q < self.w < 0.5):
            raise DomainError(
                f"need 0 < q < w < 1/2, got q={self.q!r}, w={self.w!r}"
            )
        object.__setattr__(self, "n_rounds", _count("round count", self.n_rounds, 1))


@dataclass(frozen=True)
class SerialResult:
    accepted: bool
    wrong_answers: int
    rounds: int


def solve_w_N(q: float, p_fp: float, p_fn: float) -> tuple[float, int]:
    """Size the fixed-length test for the given error-rate targets.

    Balances log(1/p_fn) * H(w|1/2) = log(1/p_fp) * H(w|q) for w in (q, 1/2)
    — at the balance point both Chernoff requirements ask for the same round
    count — then returns (w, N) with N the ceiling of the larger requirement
    evaluated at the solved w.
    """
    q = _real("wrong-answer bound q", q, "(0, 1/2)")
    p_fp = _real("p_fp", p_fp, "(0, 1)")
    p_fn = _real("p_fn", p_fn, "(0, 1)")
    log_fn = math.log(1.0 / p_fn)
    log_fp = math.log(1.0 / p_fp)

    def balance(w: float) -> float:
        return log_fn * relative_entropy(w, 0.5) - log_fp * relative_entropy(w, q)

    eps = 1e-12
    lo, hi = q + eps, 0.5 - eps
    if lo >= hi or balance(lo) <= 0.0 or balance(hi) >= 0.0:
        raise InfeasibleError(
            f"no decision fraction exists in ({q!r}, 0.5) for targets "
            f"p_fp={p_fp!r}, p_fn={p_fn!r}"
        )
    w = _bisect(balance, lo, hi)
    need_fn = log_fn / relative_entropy(w, q)
    need_fp = log_fp / relative_entropy(w, 0.5)
    n_rounds = math.ceil(max(need_fn, need_fp))
    return w, int(n_rounds)


def run_serial(
    subject: SubjectModel,
    alpha_map: AlphaMap,
    plan: SerialPlan,
    i_tilde: float,
    k: int,
    rng: np.random.Generator,
    *,
    distribution: UniformBands,
) -> SerialResult:
    """Run one fixed-length session and apply the wrong-answer threshold.

    Each round draws a hidden spot class (fair coin) and a transmission value
    from ``distribution``, pulses at the common intensity ``i_tilde``, and
    records whether the subject's answer contradicts the hidden class.  The
    map's transmission band must cover the distribution's support; that is
    checked once, before the first round.

    The record is the wrong-answer count.  When the session's answer law
    gives a per-round wrong-answer probability (the honest user, a biased
    impostor, ``echo``), the rounds are i.i.d. and the count is one binomial
    draw (see the module docstring); a rule that gives none answers round by
    round through :func:`~retinasim.subjects.interrogate`.

    ``k`` is unused: it is kept only for the positional signature external
    callers (``perfbench`` among them) pass it in.  The honest subject
    perceives with her own threshold (``subject.k``), so a session can run
    off the design point ``i_tilde`` was solved for.
    """
    require_support(alpha_map, distribution)
    n_rounds = plan.n_rounds
    law = open_scope(subject, rng)
    p_wrong = law.p_wrong(distribution, i_tilde)
    if p_wrong is None:
        interrogation = interrogate(law, distribution, i_tilde, rng)
        wrong = sum(
            saw != (spot_class is SpotClass.HIGH)
            for spot_class, _alpha, saw in islice(interrogation, n_rounds)
        )
    else:
        wrong = int(rng.binomial(n_rounds, p_wrong))
    accepted = wrong < n_rounds * plan.w
    return SerialResult(accepted=accepted, wrong_answers=wrong, rounds=n_rounds)
