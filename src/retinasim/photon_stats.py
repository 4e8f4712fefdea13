"""Perception statistics for threshold photon counting.

A dim coherent flash that deposits a mean of ``x`` photons on the retina is
consciously perceived only when the number of detected photons reaches a
threshold ``K``.  Detection is Poissonian, so the probability of seeing the
flash is the upper Poisson tail

    P[Poisson(x) >= K],

which equals the regularized lower incomplete gamma function ``P(K, x)``
evaluated at integer order.  For an integer ``K`` that is a short Poisson
sum, which this module evaluates directly, along with its inverse (a Newton
iteration on the same sum) and its mean over a band of means (in closed
form).  Everything downstream — interrogation designs, sequential tests,
pattern challenges — is built on this one function and its inverse.

The symmetric two-point operating design picks a pulse intensity such that a
low-transmission spot is seen with some small probability ``q`` while a
high-transmission spot is *missed* with the same probability ``q``.  Routine
:func:`solve_q_intensity` computes that design from the pair of transmission
coefficients.
"""

from __future__ import annotations

import math
import numbers

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


#: ``j!`` as a double, correctly rounded, up to the largest ``j`` for which
#: ``x**j`` stays finite for every ``x <= _PRODUCT_X_MAX``.
_FACTORIALS = tuple(float(math.factorial(j)) for j in range(109))

#: Largest mean whose ``exp(-x)`` is a normal double, with room to spare.
_PRODUCT_X_MAX = 700.0

#: Smallest positive normal double.
_MIN_NORMAL = 2.2250738585072014e-308

#: Widest band, in units of the scale on which ``gk`` changes, whose mean
#: :func:`_gk_mean` takes from its Taylor series.
_NARROW_BAND = 0.05

#: Newton steps :func:`_inverse_tail` takes before it gives up.
_NEWTON_STEPS = 100


def _log_pmf(j: int, x: float) -> float:
    """``log P[Poisson(x) = j]`` for ``x > 0``, through ``lgamma``: for the
    ``j`` and ``x`` the product of :func:`_poisson_pmf` does not serve, or a
    probability too small for it.  Its absolute error grows with the size
    of the terms, about ``(j log x + x) * 2**-53``."""
    return j * math.log(x) - x - math.lgamma(j + 1.0)


def _poisson_pmf(j: int, x: float) -> float:
    """``P[Poisson(x) = j]`` for ``j >= 0`` and ``x > 0``: the product
    ``exp(-x) * x**j / j!``, a few roundings, while ``j!`` is tabled and
    ``exp(-x)`` normal; else from :func:`_log_pmf`."""
    if j < len(_FACTORIALS) and x <= _PRODUCT_X_MAX:
        return math.exp(-x) * x**j / _FACTORIALS[j]
    return math.exp(_log_pmf(j, x))


def _tail(k: int, x: float) -> tuple[int, float, bool]:
    """The tail of Poisson(``x``) about ``k`` on the far side of the mean,
    as ``(j, s, upper)``: the tail is ``_poisson_pmf(j, x) * s``, and it is
    ``P[N >= k]`` (``j = k``, ``upper``) when ``x < k``, else ``P[N < k]``
    (``j = k - 1``).  ``s`` sums the terms over the first one, each term
    smaller than the last, and stops at the first that no longer changes
    it.  The tail summed is never much above 1/2, so its complement loses
    nothing."""
    term, total = 1.0, 0.0
    if x < k:
        n = k
        while total + term != total:
            total += term
            n += 1
            term *= x / n
        return k, total, True
    n = k - 1
    while total + term != total:
        total += term
        term *= n / x
        n -= 1
    return k - 1, total, False


def gk(k: int, x: float) -> float:
    """Probability that a Poisson count with mean ``x`` reaches ``k``.

    A Poisson sum over the tail on the far side of the mean:
    ``P[N >= k]`` itself when ``x < k``, else ``1 - P[N < k]``.  A small
    seeing probability therefore keeps its relative precision, which the
    complement of the head sum would lose.  For integer ``k`` this is the
    regularized lower incomplete gamma function ``P(k, x)``; the test suite
    checks it against a 60-digit :mod:`decimal` sum.
    """
    k = _validate_threshold(k)
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"mean photon number must be finite and >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    j, total, upper = _tail(k, x)
    tail = _poisson_pmf(j, x) * total
    return tail if upper else 1.0 - tail


def _inverse_tail(k: int, p: float) -> float:
    """The mean ``x`` at which ``gk(k, x) == p``, for ``0 < p < 1``.

    Newton's method on the logarithm of the tail the root leaves small:
    ``log P[N >= k]`` against ``log p``, in ``log x``, when ``p <= 1/2``;
    ``log P[N < k]`` against ``log(1 - p)`` (``1 - p`` is exact there), in
    ``x``, otherwise.  The derivative of ``P[N >= k]`` in ``x`` is the
    Poisson probability of ``k - 1``.  Both logarithms are concave (the
    gamma law is log-concave), so Newton never steps past the root from the
    side it approaches: every iterate for ``p <= 1/2`` lies below the root
    and rises, and every iterate after the first for ``p > 1/2`` lies above
    it and falls.  A tail too small for a double is
    carried as its logarithm.  Stops when a step moves ``x`` by at most
    4 ulp, or, where rounding noise in the tail outgrows that (large
    ``k``), when a step turns back.
    """
    lower = p <= 0.5
    if lower:
        target = math.log(p)
        # P[N >= k] <= x**k / k!, so this start lies at or below the root.
        x = math.exp((target + math.lgamma(k + 1.0)) / k)
    else:
        target = math.log(1.0 - p)
        x = float(k)
    for step in range(_NEWTON_STEPS):
        j, total, upper = _tail(k, x)
        pmf = _poisson_pmf(j, x)
        to_k_minus_1 = k / x if upper else 1.0  # pmf(k - 1) / pmf(j)
        if upper == lower:  # the tail summed is the one solved for
            log_pmf = (math.log(pmf) if pmf >= _MIN_NORMAL
                       else _log_pmf(j, x))
            log_tail = log_pmf + math.log(total)
            rate = to_k_minus_1 / total
        else:
            tail = 1.0 - pmf * total
            log_tail = math.log(tail)
            rate = pmf * to_k_minus_1 / tail
        # ``rate`` is |d log(tail) / dx|.
        if lower:
            new_x = x * math.exp((target - log_tail) / (x * rate))
        else:
            new_x = x + (log_tail - target) / rate
        if abs(new_x - x) <= 4 * math.ulp(x):
            return new_x
        if (new_x <= x) == lower and step > 0:  # rounding noise: Newton turned back
            return x
        x = new_x
    raise InfeasibleError(
        f"inverse seeing probability did not converge for k={k}, p={p!r}"
    )


def _gk_mean(k: int, lo: float, hi: float) -> float:
    """Mean of ``gk(k, x)`` over ``x`` in ``[lo, hi]``, ``0 <= lo <= hi``.

    In closed form ``(F(hi) - F(lo)) / (hi - lo)``, where
    ``F(x) = x * gk(k, x) - k * gk(k + 1, x)`` is an antiderivative:
    ``F' = gk(k, x) + x pmf(k - 1, x) - k pmf(k, x)`` and the last two
    cancel.  On a band narrow against the scale on which ``gk`` changes
    (``x / k`` below ``k``, 1 above) the difference cancels too, so there
    the mean is its Taylor series about the midpoint ``m``,
    ``gk(m) + sum over even n of h**n / (n + 1)! * gk^(n)(m)`` with ``h``
    the half-width, through ``n = 6``: the first term left out is of order
    ``0.05**8 / 9!``, about 1e-16, of the mean.  ``gk^(n)`` is the ``(n - 1)``-th difference of the Poisson
    probabilities below ``k``, since ``d/dx pmf(j, x) = pmf(j - 1, x) -
    pmf(j, x)``.
    """
    k = _validate_threshold(k)
    h = 0.5 * (hi - lo)
    m = lo + h
    if h == 0.0:
        return gk(k, m)
    if h * max(1.0, k / m) > _NARROW_BAND:
        big = hi * gk(k, hi) - k * gk(k + 1, hi)
        small = lo * gk(k, lo) - k * gk(k + 1, lo)
        return (big - small) / (hi - lo)
    pmf = [_poisson_pmf(k - 1 - i, m) if i < k else 0.0 for i in range(6)]
    mean = gk(k, m)
    for n in (2, 4, 6):
        derivative = sum(math.comb(n - 1, i) * (-1) ** (n - 1 - i) * pmf[i]
                         for i in range(n))
        mean += h**n / math.factorial(n + 1) * derivative
    return mean


def gk_inverse(k: int, p: float) -> float:
    """Mean photon number at which the seeing probability equals ``p``.

    Inverse of :func:`gk` in its second argument; ``p`` must lie strictly
    inside (0, 1).  Solved by a safeguarded Newton iteration on the same
    Poisson sum (see :func:`_inverse_tail`).
    """
    k = _validate_threshold(k)
    p = float(p)
    if not (0.0 < p < 1.0):
        raise DomainError(f"probability must lie strictly in (0, 1), got {p!r}")
    return _inverse_tail(k, p)


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
        return _inverse_tail(k, 1.0 - q) / _inverse_tail(k, q) - ratio

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
