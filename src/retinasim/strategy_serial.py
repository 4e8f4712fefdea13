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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .alpha_map import AlphaMap, SpotClass, UniformBands, require_support
from .errors import DomainError, InfeasibleError
from .photon_stats import _brentq
from .subjects import SubjectModel, interrogate

__all__ = [
    "SerialPlan",
    "SerialResult",
    "relative_entropy",
    "solve_w_N",
    "run_serial",
]


def relative_entropy(x: float, y: float) -> float:
    """Relative entropy H(x|y) between Bernoulli(x) and Bernoulli(y), in nats.

    H(x|y) = x log(x/y) + (1-x) log((1-x)/(1-y)), with the usual convention
    0 log 0 = 0.  Nonnegative, zero iff x == y.  For a degenerate reference
    (y in {0, 1}) the divergence is 0 when x matches the point mass and
    +inf otherwise.
    """
    x = float(x)
    y = float(y)
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"x must lie in [0, 1], got {x!r}")
    if not (0.0 <= y <= 1.0):
        raise DomainError(f"y must lie in [0, 1], got {y!r}")
    if y == 0.0 or y == 1.0:
        return 0.0 if x == y else math.inf
    total = 0.0
    if x > 0.0:
        total += x * math.log(x / y)
    if x < 1.0:
        total += (1.0 - x) * math.log((1.0 - x) / (1.0 - y))
    # Guard against a tiny negative from rounding when x ~ y.
    return max(total, 0.0)


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
        if self.n_rounds < 1:
            raise DomainError(f"round count must be >= 1, got {self.n_rounds}")


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
    q = float(q)
    if not (0.0 < q < 0.5):
        raise DomainError(f"wrong-answer bound q must lie in (0, 1/2), got {q!r}")
    for name, value in (("p_fp", p_fp), ("p_fn", p_fn)):
        if not (0.0 < value < 1.0):
            raise DomainError(f"{name} must lie in (0, 1), got {value!r}")
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
    w = _brentq(balance, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200)
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

    ``k`` is unused: it is kept only for the positional signature external
    callers (``perfbench`` among them) pass it in.  The honest subject
    perceives with her own threshold (``subject.k``), so a session can run
    off the design point ``i_tilde`` was solved for.
    """
    require_support(alpha_map, distribution)
    wrong = 0
    interrogation = interrogate(subject, distribution, i_tilde, rng)
    for spot_class, _alpha, saw in islice(interrogation, plan.n_rounds):
        if saw != (spot_class is SpotClass.HIGH):
            wrong += 1
    accepted = wrong < plan.n_rounds * plan.w
    return SerialResult(accepted=accepted, wrong_answers=wrong, rounds=plan.n_rounds)
