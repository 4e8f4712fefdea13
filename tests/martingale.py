"""Empirical martingale checks of the sequential odds-ratio test.

``1/R_n`` is a martingale under the honest user and ``R_n`` one under any
impostor, adaptive ones included; :func:`martingale_diagnostics` estimates
either statistic's mean at three checkpoints of unstopped walks, for the
tests that check it stays 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from retinasim import DomainError, SequentialPlan, gk
from retinasim.subjects import SubjectModel, honest_threshold, interrogate, open_scope

from per_round import per_round


def _likelihood_ratio(p_see: float, saw: bool, p: float) -> float:
    """Z_A / Z_E for one answer: the honest-user likelihood of the answer
    over the designer's impostor likelihood, as the session runner forms
    it before taking its logarithm."""
    return (p_see if saw else 1.0 - p_see) / (p if saw else 1.0 - p)


@dataclass(frozen=True)
class MartingaleReport:
    """Empirical checkpoint means of the martingale statistic.

    ``statistic`` names what was averaged: the odds ratio ``R_n`` for
    impostor subjects (a martingale under any admissible impostor strategy)
    or its reciprocal for the honest user.  Under the respective subject the
    expectation equals 1 at every checkpoint.
    """

    statistic: str
    n_trials: int
    checkpoints: tuple[int, ...]
    means: tuple[float, ...]
    stderrs: tuple[float, ...]

    def max_sigma_deviation(self) -> float:
        """Largest |mean - 1| / stderr across checkpoints."""
        worst = 0.0
        for mean, se in zip(self.means, self.stderrs):
            if se == 0.0:
                if mean != 1.0:
                    return math.inf
                continue
            worst = max(worst, abs(mean - 1.0) / se)
        return worst


def martingale_diagnostics(
    plan: SequentialPlan,
    subject: SubjectModel,
    n_trials: int,
    horizon: int,
    rng: np.random.Generator,
) -> MartingaleReport:
    """Estimate the martingale statistic at n = 1, horizon/2 and horizon.

    Walks are run *without* stopping (the martingale property concerns the
    unstopped chain).  For impostor subjects the statistic is R_n itself;
    for the honest user it is 1/R_n.  The rounds are those of the subject's
    per-round twin (:func:`per_round.per_round`).
    """
    if horizon < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")
    if n_trials < 2:
        raise DomainError(f"need at least 2 trials, got {n_trials}")
    checkpoints = sorted({1, max(1, horizon // 2), horizon})
    is_eve = honest_threshold(subject) is None
    twin = per_round(subject)
    sums = {n: 0.0 for n in checkpoints}
    sumsq = {n: 0.0 for n in checkpoints}
    for _trial in range(n_trials):
        ratio = 1.0
        interrogation = interrogate(open_scope(twin, rng), plan.distribution,
                                    plan.i_tilde, rng)
        for n, (_cls, alpha, saw) in enumerate(islice(interrogation, horizon), 1):
            ratio *= _likelihood_ratio(gk(plan.k, alpha * plan.i_tilde), saw, plan.p)
            if n in sums:
                stat = ratio if is_eve else 1.0 / ratio
                sums[n] += stat
                sumsq[n] += stat * stat
    means = []
    stderrs = []
    for n in checkpoints:
        mean = sums[n] / n_trials
        var = max(sumsq[n] / n_trials - mean * mean, 0.0) * n_trials / (n_trials - 1)
        means.append(mean)
        stderrs.append(math.sqrt(var / n_trials))
    return MartingaleReport(
        statistic="R_n" if is_eve else "1/R_n",
        n_trials=n_trials,
        checkpoints=tuple(checkpoints),
        means=tuple(means),
        stderrs=tuple(stderrs),
    )
