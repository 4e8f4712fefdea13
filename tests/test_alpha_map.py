"""Map model, synthesis, spot classes, and the persistence format.

Seeded statistical checks, and the probability that each fails although the
code implements its law (a re-draw fails it by chance this often), from
exact binomial tails.  The other checks here are exact.

=================================================  ======================
check                                              false-failure
                                                   probability
=================================================  ======================
``test_uniform_class_fractions`` (3 sigma on       at most 5.3e-3
each outer class of the 10,000-spot map, mass      (2.6e-3 a class)
1/8 each)
``test_draw_interrogation_point_pair`` (3 sigma,   2.8e-3
4,000 fair class coins)
=================================================  ======================
"""

import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retinasim import (
    AlphaMap,
    ConfigError,
    DomainError,
    MapFormatError,
    PointPair,
    RunConfig,
    SpotClass,
    UniformBands,
    distribution_support,
    draw_interrogation_spot,
    generate_synthetic,
    load,
    montecarlo,
    save,
)

from retinasim.alpha_map import class_draws
from retinasim.strategy_pattern import _DEAL_BLOCK, BlockGrid, _ClassBlockIndex

from conftest import make_rng

# Digest of the canonical synthetic map (100x100, band [0.02, 0.18], seed 7)
# in the persistence format.  Any change to the generator stream, the float
# formatting, or the file layout will show up here.
CANONICAL_SHA256 = "372bb772a6dc8ddcfb6a993fb2634f21dc29c58ce75396a3eed6014645a7de35"


def test_synthetic_map_basics(default_map):
    assert default_map.n_spots == 100 * 100
    assert default_map.alpha.shape == (10_000,)
    assert float(default_map.alpha.min()) >= 0.02
    assert float(default_map.alpha.max()) <= 0.18
    assert not default_map.alpha.flags.writeable


def test_synthetic_determinism():
    a = generate_synthetic(40, 30, 0.02, 0.18, seed=123)
    b = generate_synthetic(40, 30, 0.02, 0.18, seed=123)
    c = generate_synthetic(40, 30, 0.02, 0.18, seed=124)
    assert np.array_equal(a.alpha, b.alpha)
    assert not np.array_equal(a.alpha, c.alpha)


def test_map_validation_errors():
    good = np.full(6, 0.1)
    with pytest.raises(DomainError):
        AlphaMap(3, 2, np.full(5, 0.1), 0.02, 0.18)  # wrong size
    with pytest.raises(DomainError):
        AlphaMap(0, 2, good, 0.02, 0.18)
    with pytest.raises(DomainError):
        AlphaMap(3, 2, good, 0.18, 0.02)  # inverted band
    with pytest.raises(DomainError):
        AlphaMap(3, 2, good, 0.0, 0.18)  # zero transmission floor
    with pytest.raises(DomainError) as err:
        bad = good.copy()
        bad[4] = 0.5
        AlphaMap(3, 2, bad, 0.02, 0.18)
    assert "4" in str(err.value)  # names the offending spot


def test_synthetic_map_refuses_an_inverted_band():
    with pytest.raises(DomainError, match=r"need 0 < alpha_min < alpha_max <= 1"):
        generate_synthetic(10, 10, 0.18, 0.02, 1)


def test_nan_value_is_outside_the_band():
    with pytest.raises(DomainError, match=r"alpha\[0\] = nan outside"):
        AlphaMap(2, 1, [math.nan, 0.1], 0.02, 0.18)


def test_uniform_class_fractions(default_map):
    """For a uniform band [0.02, 0.18] and thresholds (0.04, 0.16), both
    outer classes hold 1/8 of the probability mass; check the realized
    fractions at 3 sigma (n = 10^4)."""
    alpha = default_map.alpha
    f_low = np.mean(alpha <= 0.04)
    f_high = np.mean(alpha >= 0.16)
    sigma = math.sqrt(0.125 * 0.875 / default_map.n_spots)
    assert abs(f_low - 0.125) < 3 * sigma
    assert abs(f_high - 0.125) < 3 * sigma


def _class_index(alpha_map, low_max=0.04, high_min=0.16):
    return _ClassBlockIndex(alpha_map, BlockGrid.for_map(alpha_map), low_max, high_min)


def test_classify_boundaries_are_inclusive():
    """The pattern protocol's spot classes, on a 5x7 map (one spot per
    glyph cell): both class boundaries are inclusive on the class side."""
    values = np.full(35, 0.1)
    values[:6] = [0.04, 0.16, 0.02, 0.18, np.nextafter(0.04, 1), np.nextafter(0.16, 0)]
    index = _class_index(AlphaMap(5, 7, values, 0.02, 0.18))
    assert sorted(index.low.tolist()) == [0, 2]
    assert sorted(index.high.items.tolist()) == [1, 3]


def test_index_holds_each_classed_spot_with_its_cell():
    """On a map whose sides leave spots outside the block grid, the index
    holds every high spot, and every low spot inside the grid, under the
    glyph cell a per-spot reading of the geometry gives it."""
    alpha_map = generate_synthetic(103, 97, 0.02, 0.18, seed=5)
    index = _class_index(alpha_map)
    cell_w, cell_h = 103 // 5, 97 // 7

    def cell(spot):
        cx, cy = spot % 103 // cell_w, spot // 103 // cell_h
        return cx * 7 + cy if cx < 5 and cy < 7 else None

    def classed(inside):
        return {s: cell(s) for s in range(alpha_map.n_spots)
                if inside(alpha_map.alpha[s]) and cell(s) is not None}

    high = classed(lambda a: a >= 0.16)
    for c in range(35):
        group = index.high.items[index.high.starts[c]:][:index.high.counts[c]]
        assert group.tolist() == [s for s in sorted(high) if high[s] == c]
    assert dict(zip(index.low.tolist(), index.low_keys.tolist())) == classed(
        lambda a: a <= 0.04)
    assert index.low.size == len(set(index.low.tolist()))
    assert (np.diff(_DEAL_BLOCK[index.low_keys]) >= 0).all()


def test_classify_threshold_validation(default_map):
    with pytest.raises(DomainError, match="low_max < high_min"):
        _class_index(default_map, 0.16, 0.04)
    with pytest.raises(DomainError, match="low_max < high_min"):
        _class_index(default_map, 0.1, 0.1)


class TestDistributions:
    def test_point_pair_validation(self):
        PointPair(0.05, 0.15)
        with pytest.raises(DomainError):
            PointPair(0.15, 0.05)
        with pytest.raises(DomainError):
            PointPair(0.1, 0.1)
        with pytest.raises(DomainError):
            PointPair(0.0, 0.5)

    def test_uniform_bands_validation(self):
        UniformBands((0.02, 0.05), (0.15, 0.18))
        UniformBands((0.05, 0.05), (0.15, 0.15))  # degenerate widths allowed
        with pytest.raises(DomainError):
            UniformBands((0.05, 0.02), (0.15, 0.18))
        with pytest.raises(DomainError):
            UniformBands((0.02, 0.16), (0.15, 0.18))  # bands overlap
        with pytest.raises(DomainError):
            UniformBands((0.02, 0.05), (0.15, 1.2))

    def test_support(self):
        assert distribution_support(PointPair(0.05, 0.15)) == (0.05, 0.15)
        assert distribution_support(UniformBands((0.02, 0.05), (0.15, 0.18))) == (
            0.02,
            0.18,
        )

    def test_point_pair_is_zero_width_bands(self):
        assert PointPair(0.05, 0.15) == UniformBands((0.05, 0.05), (0.15, 0.15))

    @pytest.mark.parametrize("strategy", ["bayes", "serial"])
    def test_point_pair_runs_match_zero_width_band_runs(self, strategy):
        common = dict(strategy=strategy, trials=40, master_seed=4520)
        _stats, pair_records = montecarlo(RunConfig(distribution="point_pair", **common))
        _stats, band_records = montecarlo(
            RunConfig(
                distribution="uniform_bands",
                low_band=(0.05, 0.05),
                high_band=(0.15, 0.15),
                **common,
            )
        )
        assert pair_records == band_records


def test_draw_interrogation_point_pair(default_map):
    rng = make_rng(42)
    dist = PointPair(0.05, 0.15)
    highs = 0
    n = 4000
    for _ in range(n):
        alpha, spot_class = draw_interrogation_spot(default_map, dist, rng)
        if spot_class is SpotClass.HIGH:
            highs += 1
            assert alpha == 0.15
        else:
            assert alpha == 0.05
    # Fair class coin at 3 sigma.
    assert abs(highs / n - 0.5) < 3 * math.sqrt(0.25 / n)


def test_draw_interrogation_uniform_bands(default_map):
    rng = make_rng(43)
    dist = UniformBands((0.02, 0.05), (0.15, 0.18))
    for _ in range(500):
        alpha, spot_class = draw_interrogation_spot(default_map, dist, rng)
        if spot_class is SpotClass.HIGH:
            assert 0.15 <= alpha <= 0.18
        else:
            assert 0.02 <= alpha <= 0.05


def _twin_class_draws(distribution, rng):
    """The draws ``class_draws`` must give: the class coin, then
    ``Generator.uniform`` on the class's band."""
    classes = ((*distribution.low_band, SpotClass.LOW),
               (*distribution.high_band, SpotClass.HIGH))
    while True:
        a, b, spot_class = classes[rng.random() < 0.5]
        yield (a if a == b else float(rng.uniform(a, b))), spot_class


@pytest.mark.parametrize("bands", [
    ((0.02, 0.05), (0.15, 0.18)),
    ((0.05, 0.05), (0.15, 0.18)),
    ((1e-3, 0.5), (0.5000000000000001, 1.0)),
    ((0.1, 0.1000000000000003), (0.3, 0.7)),
])
def test_class_draws_equal_generator_uniform_on_twin_streams(bands):
    distribution = UniformBands(*bands)
    ours, twin = make_rng(45), make_rng(45)
    n = 20_000
    assert (list(itertools.islice(class_draws(distribution, ours), n))
            == list(itertools.islice(_twin_class_draws(distribution, twin), n)))
    assert repr(ours.bit_generator.state) == repr(twin.bit_generator.state)


@given(edges=st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=4, max_size=4,
                      unique=True),
       seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=100, deadline=None)
def test_class_draws_equal_generator_uniform_for_any_bands(edges, seed):
    a, b, c, d = sorted(edges)
    distribution = UniformBands((a, b), (c, d))
    draws = list(itertools.islice(class_draws(distribution, make_rng(seed)), 200))
    twin = list(itertools.islice(_twin_class_draws(distribution, make_rng(seed)), 200))
    assert draws == twin


def test_draw_requires_support_inside_band(default_map):
    rng = make_rng(44)
    too_wide = UniformBands((0.01, 0.05), (0.15, 0.18))
    with pytest.raises(ConfigError):
        draw_interrogation_spot(default_map, too_wide, rng)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def test_roundtrip_is_bit_exact(tmp_path, default_map):
    path = tmp_path / "map.json"
    save(default_map, path)
    loaded = load(path)
    assert loaded.width == default_map.width
    assert loaded.height == default_map.height
    assert loaded.alpha_min == default_map.alpha_min
    assert loaded.alpha_max == default_map.alpha_max
    assert np.array_equal(loaded.alpha, default_map.alpha)  # exact, not approx


def test_canonical_file_digest(tmp_path, default_map):
    path = tmp_path / "map.json"
    save(default_map, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == CANONICAL_SHA256


def test_save_writes_17_significant_digits(tmp_path, default_map):
    path = tmp_path / "map.json"
    save(default_map, path)
    doc = json.loads(path.read_text())
    # Scientific notation with a 17-digit fraction: 18 significant digits.
    text = path.read_text()
    assert "e-" in text.lower()
    first = text.split('"alpha": [', 1)[1].strip().splitlines()[0].rstrip(",").strip()
    mantissa = first.split("e")[0]
    digits = len(mantissa.replace("-", "").replace(".", ""))
    assert digits >= 17
    assert doc["version"] == 1


@given(
    width=st.integers(min_value=1, max_value=8),
    height=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_roundtrip_random_maps(tmp_path_factory, width, height, seed):
    amap = generate_synthetic(width, height, 0.02, 0.18, seed=seed)
    path = tmp_path_factory.mktemp("maps") / "m.json"
    save(amap, path)
    assert np.array_equal(load(path).alpha, amap.alpha)


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(MapFormatError, match="cannot read"):
            load(tmp_path / "nope.json")

    def test_invalid_json_reports_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "version": 1,\n  "width": }\n')
        with pytest.raises(MapFormatError, match=r"line 3, column"):
            load(path)

    def test_missing_field_named(self, tmp_path, default_map):
        path = tmp_path / "map.json"
        save(default_map, path)
        doc = json.loads(path.read_text())
        del doc["alpha_min"]
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError, match="alpha_min"):
            load(path)

    def test_wrong_version(self, tmp_path, default_map):
        path = tmp_path / "map.json"
        save(default_map, path)
        doc = json.loads(path.read_text())
        doc["version"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError, match="version 2"):
            load(path)

    def test_out_of_band_value_reports_index(self, tmp_path, default_map):
        path = tmp_path / "map.json"
        save(default_map, path)
        doc = json.loads(path.read_text())
        doc["alpha"][17] = 0.5
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError, match=r"alpha\[17\]"):
            load(path)

    def test_size_mismatch(self, tmp_path, default_map):
        path = tmp_path / "map.json"
        save(default_map, path)
        doc = json.loads(path.read_text())
        doc["alpha"] = doc["alpha"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError, match="entries"):
            load(path)

    def test_non_numeric_entry(self, tmp_path, default_map):
        path = tmp_path / "map.json"
        save(default_map, path)
        doc = json.loads(path.read_text())
        doc["alpha"][3] = "high"
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError, match=r"alpha\[3\]"):
            load(path)

    def test_nan_entry_reports_index(self, tmp_path, default_map):
        path = tmp_path / "map.json"
        save(default_map, path)
        doc = json.loads(path.read_text())
        doc["alpha"][5] = math.nan
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError, match=r"map\.json: alpha\[5\] = nan"):
            load(path)

    def test_entry_too_large_for_a_float_reports_index(self, tmp_path, default_map):
        path = tmp_path / "map.json"
        save(default_map, path)
        doc = json.loads(path.read_text())
        doc["alpha"][2] = 10**400
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError, match=r"map\.json: alpha\[2\] is too large"):
            load(path)

    @pytest.mark.parametrize("field", ["alpha_min", "alpha_max"])
    def test_band_edge_too_large_for_a_float_named(self, field, tmp_path, default_map):
        path = tmp_path / "map.json"
        save(default_map, path)
        doc = json.loads(path.read_text())
        doc[field] = 10**400
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError, match=f"field '{field}' is too large"):
            load(path)

    def test_integer_past_the_digit_limit(self, tmp_path, default_map):
        path = tmp_path / "map.json"
        save(default_map, path)
        doc = json.loads(path.read_text())
        doc["alpha"][2] = 0.125
        path.write_text(json.dumps(doc).replace("0.125", "1" * 5000, 1))
        with pytest.raises(MapFormatError, match=r"map\.json: invalid JSON"):
            load(path)

    @pytest.mark.parametrize(("field", "value", "message"), [
        ("width", "10", "field 'width' must be an integer, got '10'"),
        ("alpha_min", "x", "field 'alpha_min' must be a number, got 'x'"),
        ("alpha", {}, "field 'alpha' must be an array"),
    ])
    def test_field_of_the_wrong_type_named(self, field, value, message, tmp_path):
        path = tmp_path / "map.json"
        save(generate_synthetic(3, 2, 0.02, 0.18, seed=1), path)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError, match=f"map\\.json: {message}"):
            load(path)

    def test_top_level_array_refused(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text("[1, 2]")
        with pytest.raises(MapFormatError, match="top-level JSON value must be an object"):
            load(path)
