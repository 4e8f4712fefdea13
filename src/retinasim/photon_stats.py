"""Perception statistics for threshold photon counting.

A dim coherent flash that deposits a mean of ``x`` photons on the retina is
consciously perceived only when the number of detected photons reaches a
threshold ``K``.  Detection is Poissonian, so the probability of seeing the
flash is the upper Poisson tail

    P[Poisson(x) >= K],

which equals the regularized lower incomplete gamma function ``P(K, x)``
evaluated at integer order.  Everything downstream — interrogation designs,
sequential tests, pattern challenges — is built on this one function and its
inverse.

The symmetric two-point operating design picks a pulse intensity such that a
low-transmission spot is seen with some small probability ``q`` while a
high-transmission spot is *missed* with the same probability ``q``.  Routine
:func:`solve_q_intensity` computes that design from the pair of transmission
coefficients.
"""

from __future__ import annotations

import math
import numbers

from scipy.special import gammainc, gammaincinv

from .errors import DomainError, InfeasibleError

__all__ = [
    "DEFAULT_THRESHOLD",
    "gk",
    "gk_inverse",
    "prob_see",
    "solve_q_intensity",
]

#: Default perception threshold (photons) used across the package.
DEFAULT_THRESHOLD = 6


def _validate_threshold(k: int) -> int:
    if type(k) is int and k >= 1:  # the common case, checked first
        return k
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise DomainError(f"threshold K must be an integer, got {k!r}")
    k = int(k)
    if k < 1:
        raise DomainError(f"threshold K must be >= 1, got {k}")
    return k


def gk(k: int, x: float) -> float:
    """Probability that a Poisson count with mean ``x`` reaches ``k``.

    Evaluated as the regularized lower incomplete gamma function ``P(k, x)``,
    which is numerically stable for the large means this package routinely
    feeds it.  The equivalent complement of a truncated Poisson sum is kept
    in the test suite as an independent oracle rather than used here.
    """
    k = _validate_threshold(k)
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"mean photon number must be finite and >= 0, got {x!r}")
    return float(gammainc(k, x))


def gk_inverse(k: int, p: float) -> float:
    """Mean photon number at which the seeing probability equals ``p``.

    Inverse of :func:`gk` in its second argument; ``p`` must lie strictly
    inside (0, 1).
    """
    k = _validate_threshold(k)
    p = float(p)
    if not (0.0 < p < 1.0):
        raise DomainError(f"probability must lie strictly in (0, 1), got {p!r}")
    return float(gammaincinv(k, p))


def prob_see(alpha: float, i_tilde: float, k: int = DEFAULT_THRESHOLD) -> float:
    """Probability of perceiving a pulse of mean photon number ``i_tilde``
    sent through a path with transmission coefficient ``alpha``.

    The retina receives a Poisson number of photons with mean
    ``alpha * i_tilde``; the pulse is seen when that count reaches ``k``.
    """
    alpha = float(alpha)
    if not (0.0 <= alpha <= 1.0):
        raise DomainError(f"transmission coefficient must lie in [0, 1], got {alpha!r}")
    i_tilde = float(i_tilde)
    if not math.isfinite(i_tilde) or i_tilde < 0.0:
        raise DomainError(f"pulse intensity must be finite and >= 0, got {i_tilde!r}")
    return gk(k, alpha * i_tilde)


def _brentq(
    f, a: float, b: float, *, xtol: float, maxiter: int, rtol: float = 4 * math.ulp(1.0)
) -> float:
    """Root of ``f`` in the sign-changing bracket ``[a, b]`` by Brent's zeroin.

    A line-for-line port of SciPy's C ``brentq`` (Brent 1973, ch. 4): the
    same float operations in the same order, so it returns the same root to
    the last bit without importing ``scipy.optimize``.  Converged when the
    bracket half-width is below ``(xtol + rtol * |x|) / 2``; ``rtol``
    defaults to SciPy's ``4 * DBL_EPSILON``.  Raises
    :class:`InfeasibleError` for a same-sign bracket, a NaN value or no
    convergence within ``maxiter`` iterations.
    """

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise InfeasibleError(f"root search met NaN at x={x!r}")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise InfeasibleError(f"root search bracket [{a!r}, {b!r}] has no sign change")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (
                    dblk * dpre * (fblk - fpre)
                )
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise InfeasibleError(f"root search did not converge in {maxiter} iterations")


def solve_q_intensity(
    alpha_low: float, alpha_high: float, k: int = DEFAULT_THRESHOLD
) -> tuple[float, float]:
    """Solve the symmetric operating point for a pair of transmission values.

    Returns ``(q, i_tilde)`` such that a pulse of mean photon number
    ``i_tilde`` is seen through the low path with probability ``q`` and
    through the high path with probability ``1 - q``:

        gk(k, alpha_low * i_tilde) = q,
        gk(k, alpha_high * i_tilde) = 1 - q.

    Dividing the two conditions shows that only the ratio
    ``alpha_high / alpha_low`` determines ``q``; the intensity then follows
    from the low branch alone.  The ratio equation is solved by a bracketed
    root search over q in (0, 1/2) — the bracket is guaranteed because the
    quantile ratio decreases monotonically from +inf to 1 on that interval
    (asserted numerically in the test suite, not assumed here).
    """
    k = _validate_threshold(k)
    alpha_low = float(alpha_low)
    alpha_high = float(alpha_high)
    if not (0.0 < alpha_low < alpha_high <= 1.0):
        raise DomainError(
            "need 0 < alpha_low < alpha_high <= 1, got "
            f"alpha_low={alpha_low!r}, alpha_high={alpha_high!r}"
        )
    ratio = alpha_high / alpha_low

    def mismatch(q: float) -> float:
        return float(gammaincinv(k, 1.0 - q) / gammaincinv(k, q)) - ratio

    lo, hi = 1e-12, 0.5 - 1e-12
    if mismatch(lo) < 0.0 or mismatch(hi) > 0.0:  # pragma: no cover - defensive
        raise InfeasibleError(
            f"no symmetric operating point for transmission ratio {ratio!r}"
        )
    q = _brentq(mismatch, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    i_tilde = gk_inverse(k, q) / alpha_low

    # Defensive residual check on both branches of the design equations.
    if (
        abs(prob_see(alpha_low, i_tilde, k) - q) > 1e-8
        or abs(prob_see(alpha_high, i_tilde, k) - (1.0 - q)) > 1e-8
    ):  # pragma: no cover - numerical safety net
        raise InfeasibleError(
            f"operating-point solver failed to converge for ratio {ratio!r}"
        )
    return q, i_tilde
