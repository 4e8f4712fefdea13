"""Seeing-probability function against independent oracles.

The production code sums the Poisson tail on the far side of the mean; the
oracles here are a 60-digit :mod:`decimal` sum, the complemented float
Poisson sum, the Erlang-density quadrature and SciPy's regularized
incomplete gamma function, so every route must meet.  The array form
(``_gk_array``) is held to the scalar ``gk`` itself: its tail sums equal
the scalar's bit for bit, and the values lie within 8 ulp of the scalar's
where it takes the Poisson probability as a NumPy product (the largest
distance found was 5 ulp, at k = 35, 51 and 71, over k = 1..108 with some
6,000 means each in (0, 700]); elsewhere it takes the scalar's own, and
equals ``gk``.  Its fixed-depth tail sum is held, bit for bit, to the NumPy
loop it replaced, which stays here as the oracle.  No check here is
statistical, so none can fail by chance.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammainc, gammaincinv

from retinasim import (
    DEFAULT_THRESHOLD,
    DomainError,
    InfeasibleError,
    gk,
    gk_inverse,
    prob_see,
    solve_q_intensity,
)
from retinasim import UniformBands
from retinasim.subjects import class_seeing_means
from retinasim import photon_stats, strategy_bayes, strategy_serial
from retinasim.photon_stats import _bisect, _gk_array, _head_sum, _seen_and_missed

K_GRID = [1, 2, 3, 6, 10, 20]
X_GRID = [0.0, 1e-9, 1e-3, 0.31, 1.0, 3.12, 6.0, 9.36, 12.96, 30.0, 100.0, 400.0]


def poisson_tail_oracle(k: int, x: float) -> float:
    """P[Poisson(x) >= k] as one minus the head sum, in exact-ish fsum
    arithmetic.  Valid while exp(-x) does not underflow."""
    if x == 0.0:
        return 0.0
    terms = []
    log_term = -x  # ln of e^-x * x^j / j! at j = 0
    for j in range(k):
        terms.append(math.exp(log_term))
        log_term += math.log(x) - math.log(j + 1)
    return 1.0 - math.fsum(terms)


def erlang_cdf_oracle(k: int, x: float) -> float:
    """Same quantity through the waiting-time identity: the k-th photon of a
    unit-rate stream arrives before x iff at least k photons land in [0, x].
    """
    value, err = quad(
        lambda t: t ** (k - 1) * math.exp(-t) / math.factorial(k - 1),
        0.0,
        x,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    assert err < 1e-10
    return value


@pytest.mark.parametrize("k", K_GRID)
@pytest.mark.parametrize("x", X_GRID)
def test_gk_matches_poisson_sum(k, x):
    assert gk(k, x) == pytest.approx(poisson_tail_oracle(k, x), abs=1e-12)


@pytest.mark.parametrize("k", K_GRID)
@pytest.mark.parametrize("x", [x for x in X_GRID if x <= 100.0])
def test_gk_matches_quadrature(k, x):
    assert gk(k, x) == pytest.approx(erlang_cdf_oracle(k, x), abs=1e-10)


def decimal_tail(k: int, x: float, digits: int = 60) -> Decimal:
    """P[Poisson(x) >= k] to ``digits`` significant digits: the upper sum
    itself when ``x < k`` (the complement of the head would cancel), one
    minus the head otherwise."""
    with localcontext() as ctx:
        ctx.prec = digits
        x = Decimal(x)
        term = (-x).exp()
        if x >= k:
            head = Decimal(0)
            for j in range(k):
                head += term
                term = term * x / (j + 1)
            return +(1 - head)
        for j in range(k):
            term = term * x / (j + 1)
        total = Decimal(0)
        j = k
        while total + term != total:
            total += term
            j += 1
            term = term * x / j
        return +total


def ulps_off(value: float, reference: Decimal) -> float:
    return float(abs(Decimal(value) - reference) / Decimal(math.ulp(float(reference))))


_X_LOG_GRID = [1e-3 * (400.0 / 1e-3) ** (i / 59) for i in range(60)]


@pytest.mark.parametrize("k", range(1, 21))
def test_gk_within_16_ulp_of_decimal_sum(k):
    """Both tails: means below ``k`` (the upper sum) and at or above it (one
    minus the head sum), over x in [1e-3, 400]."""
    errors = {True: [], False: []}
    for x in _X_LOG_GRID + [float(k), k - 0.5, k + 0.5]:
        reference = decimal_tail(k, x)
        if reference < 1:
            errors[x < k].append(ulps_off(gk(k, x), reference))
    assert errors[True] and errors[False]
    assert max(errors[True] + errors[False]) <= 16


def test_gk_is_closer_to_decimal_sum_than_scipy():
    """Over the grid at the default threshold the Poisson sum is never more
    than 5 ulp off; SciPy's ``gammainc`` is, somewhere."""
    ours = [ulps_off(gk(6, x), decimal_tail(6, x)) for x in _X_LOG_GRID]
    theirs = [ulps_off(float(gammainc(6, x)), decimal_tail(6, x))
              for x in _X_LOG_GRID]
    assert max(ours) <= 5 < max(theirs)


@pytest.mark.parametrize("k", K_GRID + [30, 100, 1000])
@pytest.mark.parametrize(
    "p", [1e-300, 1e-15, 1e-9, 1e-3, 0.096, 0.5, 0.9, 1.0 - 1e-6, 1.0 - 2.0**-52]
)
def test_inverse_round_trips(k, p):
    """p -> x -> p, and x within 1e-12 of SciPy's ``gammaincinv``."""
    x = gk_inverse(k, p)
    assert x == pytest.approx(float(gammaincinv(k, p)), rel=1e-12)
    if k <= 20 and p >= 1e-15:
        assert gk(k, x) == pytest.approx(p, rel=1e-12)


@pytest.mark.parametrize("k", K_GRID)
def test_inverse_of_gk_returns_the_mean(k):
    for x in _X_LOG_GRID:
        p = gk(k, x)
        if 1e-300 < p < 0.99:
            assert gk_inverse(k, p) == pytest.approx(x, rel=1e-12)


#: Seeing probabilities log-spaced from 1/2 down to 1e-300, and from 1/2 up
#: to ``1 - 1e-16`` log-spaced in their distance from 1.
_P_LOW = [0.5 * 2e-300 ** (i / 49) for i in range(50)]
_P_HIGH = [1.0 - 0.5 * 2e-16 ** (i / 49) for i in range(1, 50)]


@pytest.mark.parametrize("k", [1, 2, 3, 6, 10, 20, 30, 100, 1000])
def test_inverse_leaves_the_small_tail_at_or_below_its_target(k):
    """At the mean returned, ``P[N >= k] <= p`` for ``p <= 1/2`` and
    ``P[N < k] <= 1 - p`` above it: the root is never overshot into the
    tail it leaves small."""
    for p in _P_LOW:
        assert gk(k, gk_inverse(k, p)) <= p
    for p in _P_HIGH:
        assert 1.0 - p >= _seen_and_missed(k, gk_inverse(k, p))[1]


def decimal_root(k: int, p: float, digits: int = 60) -> Decimal:
    """The mean at which P[Poisson(x) >= k] equals ``p``, to ``digits``
    significant digits: Newton's method on :func:`decimal_tail`, whose
    slope in ``x`` is the Poisson probability of ``k - 1``, from SciPy's
    ``gammaincinv`` (within 1e-12 of the root, so five steps converge)."""
    with localcontext() as ctx:
        ctx.prec = digits
        x, target = Decimal(float(gammaincinv(k, p))), Decimal(p)
        for _ in range(5):
            slope = (-x).exp() * x ** (k - 1) / math.factorial(k - 1)
            x -= (decimal_tail(k, x, digits) - target) / slope
        return +x


@pytest.mark.parametrize("k", K_GRID)
def test_inverse_within_16_ulp_of_decimal_root(k):
    for p in _P_LOW + _P_HIGH:
        assert ulps_off(gk_inverse(k, p), decimal_root(k, p)) <= 16, p


def _decimal_operating_point(alpha_low, alpha_high, k):
    """(q, i_tilde) by bisection in 60 digits on gk(low) + gk(high) = 1,
    the two design equations added."""
    lo, hi = Decimal(0), Decimal(1000)
    with localcontext() as ctx:
        ctx.prec = 60
        a, b = Decimal(alpha_low), Decimal(alpha_high)
        for _ in range(200):
            mid = (lo + hi) / 2
            if decimal_tail(k, a * mid) + decimal_tail(k, b * mid) < 1:
                lo = mid
            else:
                hi = mid
        return decimal_tail(k, a * lo), lo


def test_operating_point_within_1e_13_of_decimal_solution():
    q, i_tilde = solve_q_intensity(0.05, 0.15, 6)
    q_ref, i_ref = _decimal_operating_point(0.05, 0.15, 6)
    assert abs(Decimal(q) - q_ref) <= Decimal("1e-13") * q_ref
    assert abs(Decimal(i_tilde) - i_ref) <= Decimal("1e-13") * i_ref
    assert (round(q, 7), round(i_tilde, 4)) == (0.0960914, 62.3254)


def _quad_means(bands, i_tilde, k):
    means = []
    for a, b in bands:
        integral, _err = quad(lambda alpha: gk(k, alpha * i_tilde), a, b,
                              epsabs=0.0, epsrel=1e-13, limit=200)
        means.append(integral / (b - a))
    return tuple(means)


@pytest.mark.parametrize("width", [None, 1e-6, 1e-9, 1e-12])
def test_band_means_match_quadrature(width):
    """The closed form on the default bands, and its narrow-band series on
    bands of width 1e-6, 1e-9 and 1e-12 at the inner edges, where the
    closed form's difference cancels."""
    _q, i_tilde = solve_q_intensity(0.05, 0.15, 6)
    if width is None:
        bands = ((0.02, 0.05), (0.15, 0.18))
    else:
        bands = ((0.05 - width, 0.05), (0.15, 0.15 + width))
    means = class_seeing_means(UniformBands(*bands), i_tilde, 6)
    for mean, expected in zip(means, _quad_means(bands, i_tilde, 6)):
        assert mean == pytest.approx(expected, rel=1e-13)


def test_band_mean_of_a_point_is_the_seeing_probability():
    means = class_seeing_means(UniformBands((0.05, 0.05), (0.15, 0.15)), 62.4, 6)
    assert means == (gk(6, 0.05 * 62.4), gk(6, 0.15 * 62.4))


def test_gk_edge_values():
    assert gk(6, 0.0) == 0.0
    assert gk(1, 0.0) == 0.0
    # Huge mean: seeing is certain to double precision.
    assert gk(6, 5000.0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "bad_call",
    [
        lambda: gk(0, 1.0),
        lambda: gk(-3, 1.0),
        lambda: gk(2.5, 1.0),
        lambda: gk(True, 1.0),
        lambda: gk(6, -0.1),
        lambda: gk(6, float("nan")),
        lambda: gk(6, float("inf")),
        lambda: gk_inverse(6, 0.0),
        lambda: gk_inverse(6, 1.0),
        lambda: gk_inverse(6, -0.2),
        lambda: prob_see(1.2, 50.0),
        lambda: prob_see(-0.1, 50.0),
        lambda: prob_see(0.5, -1.0),
    ],
)
def test_domain_errors(bad_call):
    with pytest.raises(DomainError):
        bad_call()


@given(
    k=st.integers(min_value=1, max_value=30),
    p=st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
)
@settings(max_examples=200, deadline=None)
def test_inverse_roundtrip(k, p):
    x = gk_inverse(k, p)
    assert x > 0.0
    assert gk(k, x) == pytest.approx(p, abs=1e-9)


@given(
    k=st.integers(min_value=1, max_value=30),
    x1=st.floats(min_value=0.0, max_value=300.0),
    x2=st.floats(min_value=0.0, max_value=300.0),
)
@settings(max_examples=200, deadline=None)
def test_monotone_in_mean(k, x1, x2):
    lo, hi = sorted((x1, x2))
    assert gk(k, lo) <= gk(k, hi) + 1e-15


@given(k=st.integers(min_value=2, max_value=30), x=st.floats(min_value=1e-6, max_value=300.0))
@settings(max_examples=200, deadline=None)
def test_monotone_in_threshold(k, x):
    # Needing more photons can only make seeing less likely.
    assert gk(k, x) <= gk(k - 1, x)


def test_inverse_bisection_oracle():
    """Cross-check the closed-form inverse against plain bisection on gk."""
    for k, p in [(1, 0.3), (6, 0.096), (6, 0.9), (10, 0.5), (20, 0.01)]:
        lo, hi = 0.0, 1e4
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if gk(k, mid) < p:
                lo = mid
            else:
                hi = mid
        assert gk_inverse(k, p) == pytest.approx(0.5 * (lo + hi), rel=1e-9)


def test_prob_see_composes_gk():
    assert prob_see(0.05, 62.4, 6) == pytest.approx(gk(6, 3.12), abs=0.0)
    assert prob_see(0.0, 1000.0, 6) == 0.0
    assert prob_see(0.05, 0.0) == 0.0
    # Default threshold is applied when k is omitted.
    assert prob_see(0.15, 62.4) == gk(DEFAULT_THRESHOLD, 0.15 * 62.4)


class TestOperatingPoint:
    def test_published_configuration(self):
        q, i_tilde = solve_q_intensity(0.05, 0.15, 6)
        assert q == pytest.approx(0.096, abs=1e-3)
        assert i_tilde == pytest.approx(62.4, abs=0.3)

    def test_defining_equations(self):
        """The returned pair must satisfy both design equations, not merely
        sit near the published values."""
        for alpha_low, alpha_high, k in [
            (0.05, 0.15, 6),
            (0.02, 0.18, 6),
            (0.04, 0.16, 6),
            (0.1, 0.5, 3),
            (0.3, 0.9, 12),
        ]:
            q, i_tilde = solve_q_intensity(alpha_low, alpha_high, k)
            assert 0.0 < q < 0.5
            assert prob_see(alpha_low, i_tilde, k) == pytest.approx(q, abs=1e-9)
            assert prob_see(alpha_high, i_tilde, k) == pytest.approx(1.0 - q, abs=1e-9)

    def test_quantile_ratio_monotone(self):
        """The quantile ratio decreases in q over (0, 1/2), so each ratio of
        transmissions has one symmetric point."""
        ratios = [
            gk_inverse(6, 1.0 - q) / gk_inverse(6, q)
            for q in [1e-6, 1e-4, 0.01, 0.1, 0.2, 0.3, 0.4, 0.49, 0.4999]
        ]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(1.0, abs=1e-2)

    def test_wider_gap_means_smaller_q(self):
        q_narrow, _ = solve_q_intensity(0.05, 0.15, 6)
        q_wide, _ = solve_q_intensity(0.02, 0.18, 6)
        assert q_wide < q_narrow

    def test_rejects_bad_pairs(self):
        with pytest.raises(DomainError):
            solve_q_intensity(0.15, 0.05, 6)
        with pytest.raises(DomainError):
            solve_q_intensity(0.1, 0.1, 6)
        with pytest.raises(DomainError):
            solve_q_intensity(0.0, 0.5, 6)
        with pytest.raises(DomainError):
            solve_q_intensity(0.2, 1.2, 6)

    @pytest.mark.parametrize(
        "alpha_low, alpha_high, k",
        [
            (0.05, 0.15, 200),  # q = 6.835e-15 at i_tilde = 2193.596, below 1e-12
            (0.1499999999999, 0.15, 6),  # q within 1e-12 of 1/2
            (5e-324, 0.15, 6),  # the upper bracket end k / alpha_low is infinite
        ],
    )
    def test_refuses_points_outside_the_q_range(self, alpha_low, alpha_high, k):
        with pytest.raises(InfeasibleError, match="no symmetric operating point"):
            solve_q_intensity(alpha_low, alpha_high, k)


class TestBisect:
    """``photon_stats._bisect``, the one root search of the three solvers,
    on the operating point against a 60-digit solution and on the two
    sizing solvers against ``scipy.optimize.brentq``."""

    def test_operating_point_brackets(self):
        """Every 20th of 2,000 random pairs within 1e-13 of the 60-digit
        solution, in both q and i_tilde."""
        rng = np.random.default_rng(20261018)
        for n in range(2000):
            k = int(rng.integers(1, 13))
            alpha_low = float(rng.uniform(0.01, 0.3))
            ratio = float(np.exp(rng.uniform(math.log(1.2), math.log(20.0))))
            alpha_high = min(1.0, alpha_low * ratio)
            q, i_tilde = solve_q_intensity(alpha_low, alpha_high, k)
            if n % 20:
                continue
            q_ref, i_ref = _decimal_operating_point(alpha_low, alpha_high, k)
            pair = (alpha_low, alpha_high, k)
            assert abs(Decimal(q) - q_ref) <= Decimal("1e-13") * q_ref, pair
            assert abs(Decimal(i_tilde) - i_ref) <= Decimal("1e-13") * i_ref, pair

    @staticmethod
    def with_brentq(monkeypatch, module, call, **tolerances):
        """``call()`` with ``module``'s root search swapped for SciPy's."""
        with monkeypatch.context() as patch:
            patch.setattr(module, "_bisect",
                          lambda f, lo, hi: brentq(f, lo, hi, maxiter=200, **tolerances))
            return call()

    def test_serial_balance_brackets(self, monkeypatch):
        rng = np.random.default_rng(20261019)
        for _ in range(1500):
            q = float(rng.uniform(0.005, 0.45))
            p_fp = float(10.0 ** rng.uniform(-14.0, -1.0))
            p_fn = float(10.0 ** rng.uniform(-8.0, -1.0))
            w, n_rounds = strategy_serial.solve_w_N(q, p_fp, p_fn)
            w_ref, n_ref = self.with_brentq(
                monkeypatch, strategy_serial,
                lambda: strategy_serial.solve_w_N(q, p_fp, p_fn),
                xtol=1e-14, rtol=8.9e-16,
            )
            assert w == pytest.approx(w_ref, rel=1e-12), (q, p_fp, p_fn)
            assert n_rounds == n_ref, (q, p_fp, p_fn)

    def test_optimality_excess_brackets(self, monkeypatch):
        rng = np.random.default_rng(20261020)
        for _ in range(1500):
            q = float(rng.uniform(0.005, 0.45))
            p_fp = float(10.0 ** rng.uniform(-14.0, -1.0))
            floor = strategy_bayes.optimality_lower_bound(q, p_fp)
            assert floor == self.with_brentq(
                monkeypatch, strategy_bayes,
                lambda: strategy_bayes.optimality_lower_bound(q, p_fp), xtol=1e-12,
            ), (q, p_fp)

    def test_generic_brackets(self):
        """The root returned is a zero of ``f`` or the upper of two adjacent
        doubles across which ``f`` changes sign."""
        rng = np.random.default_rng(20261021)
        for i in range(1000):
            c = float(rng.uniform(-5.0, 5.0))
            a = c - float(rng.uniform(1e-3, 10.0))
            b = c + float(rng.uniform(1e-3, 10.0))
            if i % 2:
                power = int(rng.choice([1, 3, 5, 7]))
                scale = float(rng.uniform(-3.0, 3.0)) or 1.0

                def f(x, c=c, power=power, scale=scale):
                    return scale * (x - c) ** power
            else:
                steep = float(rng.uniform(0.1, 50.0))

                def f(x, c=c, steep=steep):
                    return math.tanh(steep * (x - c))

            root = _bisect(f, a, b)
            assert a < root <= b
            below = math.nextafter(root, -math.inf)
            assert f(root) == 0.0 or (f(below) < 0.0) != (f(root) < 0.0), (a, b, c)
            assert abs(root - c) <= 1e-12

    @pytest.mark.parametrize("a, b", [(1.0, 3.0), (-2.0, 1.0)])
    def test_root_at_an_endpoint_is_returned_as_is(self, a, b):
        assert _bisect(lambda x: x - 1.0, a, b) == 1.0

    def test_same_sign_bracket_raises(self):
        with pytest.raises(InfeasibleError):
            _bisect(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_nan_value_raises(self):
        def f(x):
            return -1.0 if x < 0.5 else math.nan

        with pytest.raises(InfeasibleError):
            _bisect(f, 0.0, 1.0)


def _array_ulps(values: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Distance in ulp between two arrays of nonnegative doubles."""
    return np.abs(values.view(np.int64) - reference.view(np.int64))


def _scalar_check(k: int, x: np.ndarray) -> None:
    """Mean by mean, and over the whole array at once: where every mean
    allows the product form (``j = k`` or ``k - 1`` tabled, ``x <= 700``)
    within 8 ulp, elsewhere to the bit; and the whole array's values are
    the means' own, bit for bit, whatever else the array holds."""
    reference = np.array([gk(k, float(v)) for v in x])
    one_by_one = np.concatenate([_gk_array(k, x[i:i + 1]) for i in range(x.size)])
    product = np.where(x < k, k, k - 1) < 109
    product &= x <= 700.0
    assert _array_ulps(one_by_one[product], reference[product]).max(initial=0) <= 8
    assert one_by_one[~product].tolist() == reference[~product].tolist()
    assert _gk_array(k, x).tolist() == one_by_one.tolist()


@pytest.mark.parametrize("k", list(range(1, 111)) + [150, 300])
def test_array_seeing_probability_matches_scalar_on_a_grid(k):
    x = np.concatenate([np.geomspace(1e-9, 3000.0, 300),
                        k + np.linspace(-0.3 * k, 0.3 * k, 61)])
    _scalar_check(k, x[x > 0.0])


@given(
    k=st.integers(min_value=1, max_value=300),
    x=st.lists(st.floats(min_value=1e-12, max_value=3000.0), min_size=1, max_size=60),
)
@settings(max_examples=300, deadline=None)
def test_array_seeing_probability_matches_scalar(k, x):
    _scalar_check(k, np.array(x))


def _scalar_tail_sums(k: int, x: float) -> float:
    """The relative tail sum of ``_seen_and_missed``, transcribed: the sum
    over ``j < k`` when ``x >= k``, else over ``j >= k``."""
    term, total = 1.0, 0.0
    if x < k:
        n = k
        while total + term != total:
            total += term
            n += 1
            term *= x / n
        return total
    n = k - 1
    while total + term != total:
        total += term
        term *= n / x
        n -= 1
    return total


@pytest.mark.parametrize("k", [1, 2, 6, 20, 108, 300])
def test_array_head_sum_is_the_scalar_sum_to_the_bit(k):
    """Over many means and one at a time: a reduction over one contiguous
    column may pair its terms up, so the order is checked on both shapes."""
    x = np.concatenate([np.geomspace(k, 1e6, 400), k * (1.0 + np.geomspace(1e-9, 1.0, 200))])
    expected = [_scalar_tail_sums(k, v) for v in x.tolist()]
    assert _head_sum(k, x).tolist() == expected
    assert [_head_sum(k, x[i:i + 1])[0] for i in range(x.size)] == expected


def test_array_seeing_probability_shares_the_scalar_sums_below_the_threshold(monkeypatch):
    """With the Poisson probability replaced by 1 in both forms, what is
    left is the tail sum, which must agree to the bit."""
    monkeypatch.setattr(photon_stats, "_poisson_pmfs", lambda j, x: np.ones(x.shape))
    for k in (1, 2, 6, 20, 108):
        x = np.concatenate([np.geomspace(1e-9, k, 300, endpoint=False),
                            k * (1.0 - np.geomspace(1e-12, 0.5, 100))])
        assert _gk_array(k, x).tolist() == [_scalar_tail_sums(k, v) for v in x.tolist()]


def _loop_gk_array(k: int, x: np.ndarray) -> np.ndarray:
    """``_gk_array`` as it summed the tail below the threshold before that
    sum became one fixed-depth matrix: a NumPy loop, row by row, until the
    longest tail stops changing.  The oracle the matrix must equal."""
    below = x < k
    if not below.any():
        return 1.0 - photon_stats._poisson_pmfs(k - 1, x) * _head_sum(k, x)
    seen = np.empty(x.shape)
    up = x[below]
    term, total, n = np.ones(up.shape), np.zeros(up.shape), k
    while (total + term != total).any():
        total = total + term
        n += 1
        term = term * (up / n)
    seen[below] = photon_stats._poisson_pmfs(k, up) * total
    down = x[~below]
    seen[~below] = 1.0 - photon_stats._poisson_pmfs(k - 1, down) * _head_sum(k, down)
    return seen


@st.composite
def _means(draw):
    """A threshold and up to 199 means in (0, 3k), drawn all over that
    range, or crowded just below the threshold, where the tail is longest
    and a mean a little below the largest can need more terms than it."""
    k = draw(st.integers(min_value=1, max_value=120))
    low = draw(st.sampled_from([0.0, 0.9 * k, 0.99 * k]))
    high = draw(st.sampled_from([float(k), 3.0 * k]))
    x = draw(st.lists(st.floats(min_value=low, max_value=high, exclude_min=True),
                      min_size=1, max_size=199))
    return k, np.array(x)


@given(_means())
@settings(max_examples=400, deadline=None)
def test_array_seeing_probability_is_the_loop_to_the_bit(case):
    k, x = case
    assert _gk_array(k, x).tolist() == _loop_gk_array(k, x).tolist()


def test_tail_rows_cover_a_smaller_mean_in_a_lower_binade(monkeypatch):
    """At k = 39 the scalar sums 63 terms at 38.6299 and only 62 at
    38.8597: rows sized by the scalar's own count at the largest mean would
    drop the smaller mean's last term."""
    x = np.array([38.62990284629566, 38.85967788818698])
    assert _gk_array(39, x).tolist() == _loop_gk_array(39, x).tolist()
    monkeypatch.setattr(photon_stats, "_poisson_pmfs", lambda j, x: np.ones(x.shape))
    assert _gk_array(39, x).tolist() == [_scalar_tail_sums(39, v) for v in x.tolist()]
