import numpy as np
import pytest

from retinasim import generate_synthetic, harness, strategy_pattern


def make_rng(seed: int = 0) -> np.random.Generator:
    """Counter-based generator, independent per seed — the same family the
    package uses internally, so test draws never alias package draws."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


@pytest.fixture
def rng():
    return make_rng(20260816)


@pytest.fixture(scope="session")
def default_map():
    """Canonical 100x100 synthetic map shared by read-only tests."""
    return generate_synthetic(100, 100, 0.02, 0.18, seed=7)


@pytest.fixture
def cold_setup():
    """Empty the per-process set-up caches (synthetic maps, plans, pattern
    class indices), so that a test counting set-up work starts from a first
    run, whatever ran before it."""
    for cache in (harness._synthetic_map, harness._cached_plan,
                  strategy_pattern._cached_class_index):
        cache.cache_clear()


def _merged_bins(expected: np.ndarray, least: float = 5.0) -> list[slice]:
    """Consecutive runs of bins, each with at least ``least`` expected
    counts (a short last run joins the one before)."""
    bins, start, total = [], 0, 0.0
    for i, e in enumerate(expected):
        total += e
        if total >= least:
            bins.append(slice(start, i + 1))
            start, total = i + 1, 0.0
    if start < len(expected):
        if bins:
            bins[-1] = slice(bins[-1].start, len(expected))
        else:
            bins.append(slice(0, len(expected)))
    return bins


def g_test_pvalue(values, pmf) -> float:
    """G-test p-value of integer ``values`` against the law ``pmf`` on
    ``0..len(pmf)-1``, sparse bins merged."""
    from scipy import stats

    pmf = np.asarray(pmf, dtype=float)
    observed = np.bincount(np.asarray(values, dtype=int), minlength=len(pmf))
    expected = pmf / pmf.sum() * observed.sum()
    bins = _merged_bins(expected)
    return stats.power_divergence(
        [observed[b].sum() for b in bins],
        [expected[b].sum() for b in bins],
        lambda_="log-likelihood",
    ).pvalue


def two_sample_g_pvalue(first, second, size: int) -> float:
    """G-test p-value that two samples of integers in ``0..size-1`` share
    one law, sparse bins merged."""
    from scipy import stats

    table = np.vstack([np.bincount(np.asarray(v, dtype=int), minlength=size)
                       for v in (first, second)])
    bins = _merged_bins(table.sum(axis=0), least=10.0)
    merged = np.array([[row[b].sum() for b in bins] for row in table])
    if merged.shape[1] < 2:
        return 1.0
    return stats.chi2_contingency(merged, lambda_="log-likelihood").pvalue
