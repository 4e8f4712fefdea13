"""Perception statistics for threshold photon counting.

A dim coherent flash that deposits a mean of ``x`` photons on the retina is
consciously perceived only when the number of detected photons reaches a
threshold ``K``.  Detection is Poissonian, so the probability of seeing the
flash is the upper Poisson tail

    P[Poisson(x) >= K],

which equals the regularized lower incomplete gamma function ``P(K, x)``
evaluated at integer order.  For an integer ``K`` that is a short Poisson
sum, which this module evaluates directly, along with its inverse (a
bisection on the same sum) and its mean over a band of means (in closed
form).  Everything downstream — interrogation designs, sequential tests,
pattern challenges — is built on this one function and its inverse.

The symmetric two-point operating design picks a pulse intensity such that a
low-transmission spot is seen with some small probability ``q`` while a
high-transmission spot is *missed* with the same probability ``q``.  Routine
:func:`solve_q_intensity` computes that design from the pair of transmission
coefficients.

The Bernoulli relative entropy, :func:`relative_entropy`, lives here too:
it is the Chernoff exponent by which every test is sized.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InfeasibleError, _count, _real

__all__ = [
    "DEFAULT_THRESHOLD",
    "gk",
    "gk_inverse",
    "prob_see",
    "relative_entropy",
    "solve_q_intensity",
]

#: Default perception threshold (photons) used across the package.
DEFAULT_THRESHOLD = 6


#: ``j!`` as a double, correctly rounded, up to the largest ``j`` for which
#: ``x**j`` stays finite for every ``x <= _PRODUCT_X_MAX``.
_FACTORIALS = tuple(float(math.factorial(j)) for j in range(109))

#: Largest mean whose ``exp(-x)`` is a normal double, with room to spare.
_PRODUCT_X_MAX = 700.0

#: Widest band, in units of the scale on which ``gk`` changes, whose mean
#: :func:`_gk_mean` takes from its Taylor series.
_NARROW_BAND = 0.05

#: Smallest wrong-answer probability ``q`` :func:`solve_q_intensity`
#: accepts, and its distance below 1/2 at the other end.
_Q_MIN = 1e-12


def _poisson_pmf(j: int, x: float) -> float:
    """``P[Poisson(x) = j]`` for ``j >= 0`` and ``x > 0``: the product
    ``exp(-x) * x**j / j!``, a few roundings, while ``j!`` is tabled and
    ``exp(-x)`` normal; else through ``lgamma``, whose absolute error in the
    logarithm grows with the size of the terms, about
    ``(j log x + x) * 2**-53``."""
    if j < len(_FACTORIALS) and x <= _PRODUCT_X_MAX:
        return math.exp(-x) * x**j / _FACTORIALS[j]
    return math.exp(j * math.log(x) - x - math.lgamma(j + 1.0))


def _seen_and_missed(k: int, x: float) -> tuple[float, float]:
    """``(P[N >= k], P[N < k])`` for ``N ~ Poisson(x)``, ``x >= 0``.

    Sums the tail on the far side of the mean, ``P[N >= k]`` up from
    ``j = k`` when ``x < k``, else ``P[N < k]`` down from ``j = k - 1``, as
    the Poisson probability of ``j`` times the sum of each term over it;
    each term is smaller than the last, and the sum stops at the first that
    no longer changes it.  The other tail is the complement: the tail
    summed is never much above 1/2, so whichever of the two is small keeps
    its relative precision."""
    if x == 0.0:
        return 0.0, 1.0
    term, total = 1.0, 0.0
    if x < k:
        n = k
        while total + term != total:
            total += term
            n += 1
            term *= x / n
        tail = _poisson_pmf(k, x) * total
        return tail, 1.0 - tail
    n = k - 1
    while total + term != total:
        total += term
        term *= n / x
        n -= 1
    tail = _poisson_pmf(k - 1, x) * total
    return 1.0 - tail, tail


def _poisson_pmfs(j: int, x: np.ndarray) -> np.ndarray:
    """:func:`_poisson_pmf` of one ``j`` at each mean of the array ``x``:
    its product in NumPy at each mean that allows it, else the scalar
    itself, so each value is the one its mean gets alone, whatever else
    the array holds."""
    if j >= len(_FACTORIALS):
        return np.array([_poisson_pmf(j, mean) for mean in x.tolist()])
    product = x <= _PRODUCT_X_MAX
    if product.all():
        return np.exp(-x) * x**j / _FACTORIALS[j]
    pmfs = np.array([_poisson_pmf(j, mean) for mean in x.tolist()])
    near = x[product]
    pmfs[product] = np.exp(-near) * near**j / _FACTORIALS[j]
    return pmfs


def _gk_array(k: int, x: np.ndarray) -> np.ndarray:
    """``gk(k, x)`` at each mean of the float array ``x``, ``k`` checked and
    every mean positive.  The far-side tail of :func:`_seen_and_missed`,
    its terms formed and added in the same order, so each sum is the
    scalar's to the bit: a sum that went on past the scalar's last change
    gains only smaller terms, which leave it as it is.  The Poisson
    probability it scales is the scalar's own at a mean past the product
    form, and otherwise that product in NumPy, whose ``exp`` and ``**``
    need not round as :mod:`math` does, so a value may lie a few ulp from
    the scalar's.  Each value is the one its mean gets in an array of its
    own, so a slice of the values on a whole map is the values on that
    slice, bit for bit."""
    below = x < k
    if not below.any():
        return 1.0 - _poisson_pmfs(k - 1, x) * _head_sum(k, x)
    seen = np.empty(x.shape)
    up = x[below]
    seen[below] = _poisson_pmfs(k, up) * _tail_sum(k, up)
    down = x[~below]
    seen[~below] = 1.0 - _poisson_pmfs(k - 1, down) * _head_sum(k, down)
    return seen


def _tail_depth(k: int, x: float) -> int:
    """Rows enough for :func:`_tail_sum` at every mean up to ``x < k``: the
    terms of ``P[N >= k]`` that :func:`_seen_and_missed` forms at ``x``,
    counted up to the first one that four times over would still leave the
    sum as it is.  A smaller mean's terms fall faster against its sum, so
    its loop stops within these rows: its sum may sit in a binade below,
    where a term half as large already changes it, and the factor four
    covers that twice over."""
    term, total, depth = 1.0, 0.0, 0
    while total + 4.0 * term != total:
        total += term
        depth += 1
        term *= x / (k + depth)
    return depth


def _tail_sum(k: int, x: np.ndarray) -> np.ndarray:
    """``P[N >= k] / P[N = k]`` for ``N ~ Poisson(x)``, each ``x < k``: the
    terms ``1, x/(k+1), x/(k+1) * x/(k+2), ...`` as :func:`_seen_and_missed`
    forms them, one row each (:func:`_tail_depth` rows, sized at the largest
    mean), added row by row.  Rows past the scalar's last change leave each
    sum as it is."""
    depth = _tail_depth(k, float(x.max()))
    terms = np.empty((depth, x.size))
    terms[0] = 1.0
    np.divide(x, np.arange(k + 1.0, k + depth)[:, None], out=terms[1:])
    np.multiply.accumulate(terms, axis=0, out=terms)
    return np.add.accumulate(terms, axis=0, out=terms)[-1]


def _head_sum(k: int, x: np.ndarray) -> np.ndarray:
    """``P[N < k] / P[N = k - 1]`` for ``N ~ Poisson(x)``, each ``x >= k``:
    the ``k`` terms ``1, (k-1)/x, (k-1)/x * (k-2)/x, ...`` as
    :func:`_seen_and_missed` forms them, one row each, added row by row
    (a running sum, which, unlike ``sum``, never pairs them up)."""
    terms = np.empty((k, x.size))
    terms[0] = 1.0
    np.divide.outer(np.arange(k - 1.0, 0.0, -1.0), x, out=terms[1:])
    np.multiply.accumulate(terms, axis=0, out=terms)
    return np.add.accumulate(terms, axis=0, out=terms)[-1]


def gk(k: int, x: float) -> float:
    """Probability that a Poisson count with mean ``x`` reaches ``k``.

    A Poisson sum over the tail on the far side of the mean:
    ``P[N >= k]`` itself when ``x < k``, else ``1 - P[N < k]``.  A small
    seeing probability therefore keeps its relative precision, which the
    complement of the head sum would lose.  For integer ``k`` this is the
    regularized lower incomplete gamma function ``P(k, x)``; the test suite
    checks it against a 60-digit :mod:`decimal` sum.
    """
    return _seen_and_missed(_count("threshold K", k, 1),
                            _real("mean photon number", x, "[0, inf)"))[0]


def _inverse_tail(k: int, p: float) -> float:
    """The mean ``x`` at which ``gk(k, x) == p``, for ``0 < p < 1``.

    Bisection (:func:`_bisect`) on the tail the root leaves small, so a
    root deep in either tail keeps its relative precision.  For
    ``p <= 1/2``, ``P[N >= k] - p`` over ``[0, k]``: at mean ``k`` the
    count reaches ``k`` with probability above 1/2.  For ``p > 1/2``,
    ``(1 - p) - P[N < k]`` (``1 - p`` is exact there) over ``[0, hi]``,
    ``hi`` doubled from ``k`` until it brackets the root.  ``_bisect``
    returns the upper end of its final bracket; the first search runs on
    ``-x``, so that end is the lower one in ``x``.  Either way the small
    tail at the ``x`` returned does not exceed its target:
    ``P[N >= k] <= p``, or ``P[N < k] <= 1 - p``.
    """
    if p <= 0.5:
        return -_bisect(lambda t: _seen_and_missed(k, -t)[0] - p, -float(k), 0.0)
    missed = 1.0 - p
    hi = float(k)
    while _seen_and_missed(k, hi)[1] > missed:
        hi *= 2.0
    return _bisect(lambda x: missed - _seen_and_missed(k, x)[1], 0.0, hi)


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
    inside (0, 1).  Solved by bisection on the same Poisson sum (see
    :func:`_inverse_tail`).
    """
    return _inverse_tail(_count("threshold K", k, 1), _real("probability", p, "(0, 1)"))


def prob_see(alpha: float, i_tilde: float, k: int = DEFAULT_THRESHOLD) -> float:
    """Probability of perceiving a pulse of mean photon number ``i_tilde``
    sent through a path with transmission coefficient ``alpha``.

    The retina receives a Poisson number of photons with mean
    ``alpha * i_tilde``; the pulse is seen when that count reaches ``k``.
    """
    alpha = _real("transmission coefficient", alpha, "[0, 1]")
    return gk(k, alpha * _real("pulse intensity", i_tilde, "[0, inf)"))


def _bisect(f, lo: float, hi: float) -> float:
    """Root of ``f`` in the sign-changing bracket ``[lo, hi]``, ``lo < hi``.

    Halves the bracket until no double lies strictly between its ends and
    returns the upper end; a point at which ``f`` is zero is returned as
    is.  Raises :class:`InfeasibleError` for a same-sign bracket or a NaN
    value.
    """

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise InfeasibleError(f"root search met NaN at x={x!r}")
        return fx

    f_lo, f_hi = value(lo), value(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise InfeasibleError(f"root search bracket [{lo!r}, {hi!r}] has no sign change")
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        f_mid = value(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid


def relative_entropy(x: float, y: float) -> float:
    """Relative entropy H(x|y) between Bernoulli(x) and Bernoulli(y), in nats.

    H(x|y) = x log(x/y) + (1-x) log((1-x)/(1-y)), with the usual convention
    0 log 0 = 0.  Nonnegative, zero iff x == y.  For a degenerate reference
    (y in {0, 1}) the divergence is 0 when x matches the point mass and
    +inf otherwise.
    """
    return _relative_entropy(_real("x", x, "[0, 1]"), _real("y", y, "[0, 1]"))


def _relative_entropy(x: float, y: float) -> float:
    """:func:`relative_entropy` of two floats already checked to lie in
    [0, 1]."""
    if y == 0.0 or y == 1.0:
        return 0.0 if x == y else math.inf
    total = 0.0
    if x > 0.0:
        total += x * math.log(x / y)
    if x < 1.0:
        total += (1.0 - x) * math.log((1.0 - x) / (1.0 - y))
    # Guard against a tiny negative from rounding when x ~ y.
    return max(total, 0.0)


def solve_q_intensity(
    alpha_low: float, alpha_high: float, k: int = DEFAULT_THRESHOLD
) -> tuple[float, float]:
    """Solve the symmetric operating point for a pair of transmission values.

    Returns ``(q, i_tilde)`` such that a pulse of mean photon number
    ``i_tilde`` is seen through the low path with probability ``q`` and
    through the high path with probability ``1 - q``:

        gk(k, alpha_low * i_tilde) = q,
        gk(k, alpha_high * i_tilde) = 1 - q.

    One bisection in ``i`` on the two small tails compared directly, the
    low path's chance of being seen against the high path's chance of being
    missed.  Their difference rises from -1 at ``i = 0`` to a positive value
    at ``i = k / alpha_low``, where the low path has mean ``k`` and is seen
    with probability at least 1/2, so that bracket holds the one root.
    Raises :class:`InfeasibleError` when ``q`` falls outside
    ``[1e-12, 1/2 - 1e-12]`` or ``i_tilde`` is not a finite double.
    """
    k = _count("threshold K", k, 1)
    alpha_low = _real("alpha_low", alpha_low, "(-inf, inf)")
    alpha_high = _real("alpha_high", alpha_high, "(-inf, inf)")
    if not (0.0 < alpha_low < alpha_high <= 1.0):
        raise DomainError(
            "need 0 < alpha_low < alpha_high <= 1, got "
            f"alpha_low={alpha_low!r}, alpha_high={alpha_high!r}"
        )
    pair = f"alpha_low={alpha_low!r}, alpha_high={alpha_high!r}, k={k}"
    hi = k / alpha_low
    if not math.isfinite(hi):
        raise InfeasibleError(
            f"no symmetric operating point at a finite pulse intensity for {pair}"
        )

    def excess(i: float) -> float:
        return (_seen_and_missed(k, alpha_low * i)[0]
                - _seen_and_missed(k, alpha_high * i)[1])

    i_tilde = _bisect(excess, 0.0, hi)
    q = gk(k, alpha_low * i_tilde)
    if not (_Q_MIN <= q <= 0.5 - _Q_MIN):
        raise InfeasibleError(
            f"no symmetric operating point with q in [{_Q_MIN!r}, 0.5 - {_Q_MIN!r}] "
            f"for {pair}: q = {q!r} at i_tilde = {i_tilde!r}"
        )
    # Defensive residual check on the high branch of the design equations.
    if abs(prob_see(alpha_high, i_tilde, k) - (1.0 - q)) > 1e-8:  # pragma: no cover
        raise InfeasibleError(f"operating-point solver failed to converge for {pair}")
    return q, i_tilde
