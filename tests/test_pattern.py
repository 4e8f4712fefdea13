"""Tests for the pattern-challenge identification strategy.

Covers glyph library integrity, challenge placement, menu soundness, the
laws of the challenge and menu draws, the generator calls a question makes,
the honest-user perception model, the exact impostor law, the refusals a
run's plan makes, the honest-failure Chernoff bound with its intensity
optimizer, and full session runs.

Seeded statistical checks and the probability that each fails although the
code implements its law (a re-draw of the records passes or fails them by
chance with this probability; every other check here is exact):

=================================================  ==========================
check                                              false-failure probability
=================================================  ==========================
``test_per_spot_rates_match_seeing_probability``   0.016 (six two-sided 3σ
                                                   checks; exact binomial
                                                   tails at the drawn spots)
``test_impostor_never_passes_published_session``   0.0028 (3σ first-answer
                                                   check) + 2.7e-7 (a pass)
``test_detector_counts_carry_no_class_signal``     at most 0.01 (KS p > 0.01)
``test_honest_user_failure_within_bound``          below 1e-60 (failure rate
                                                   ~0.009 against a limit of
                                                   0.32)
``test_recognition_failure_bounded_per_question``  at most 1e-3 (ten one-sided
                                                   binomial tests at 1e-4
                                                   against a true bound)
``TestDrawLaws`` (two G-tests)                     at most 1e-6 each
``TestImpostorLaw`` (two G-tests)                  at most 1e-6 each (right
                                                   answers against the law
                                                   and the question loop)
``test_accept_count_binomial_tail``                at most 1e-6 (exact
                                                   two-sided binomial tail)
=================================================  ==========================
"""

import dataclasses
import hashlib
import io
import json
import math
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import g_test_pvalue, make_rng, two_sample_g_pvalue
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from retinasim import (
    AliceSubject,
    AlphaMap,
    BoundInapplicableError,
    ConfigError,
    DomainError,
    Error,
    FixedP,
    GlyphLibrary,
    InfeasibleError,
    Menu,
    MenuError,
    PatternChallenge,
    PatternPlan,
    PatternResult,
    PlacementError,
    RecognitionRule,
    RunConfig,
    UniformP,
    alice_failure_bound,
    build_challenge,
    candidate_menu,
    false_positive_rate,
    generate_synthetic,
    glyph_library,
    gk,
    montecarlo,
    optimize_intensity,
    prob_see,
    recognize,
    run_pattern_test,
    simulate_perception,
)
from retinasim import strategy_pattern
from retinasim.strategy_pattern import GLYPH_GRID, BlockGrid

#: The published menu of 18 symbols used in the worked examples.
MENU_18 = ["2", "4", "6", "S", "v", "7", "x", "b", "f", "3", "h", "t", "q", "d", "Z", "L", "%", "U"]


def cell_of(grid, spot):
    """Glyph cell ``(cx, cy)`` of a flat spot index, or None outside the
    used region: the per-spot reference ``BlockGrid.cell_keys`` must match."""
    cols, rows = GLYPH_GRID
    cx = spot % grid.map_width // grid.cell_w
    cy = spot // grid.map_width // grid.cell_h
    return (cx, cy) if cx < cols and cy < rows else None


def blocks_of(spots, grid):
    return {cell_of(grid, s) for s in spots}


def pattern_set(challenge):
    return set(challenge.spots[:challenge.n_pattern].tolist())


def noise_set(challenge):
    return set(challenge.spots[challenge.n_pattern:].tolist())


def challenge_of(spots, n_pattern, grid, i_tilde=72.0, hidden="2"):
    """A challenge made by hand, its cell keys read off the grid."""
    spots = np.asarray(spots, dtype=np.intp)
    return PatternChallenge(spots, grid.cell_keys(spots), n_pattern, i_tilde, hidden)


def keeping(challenge, keep):
    """``challenge`` with only the spots flagged in ``keep``."""
    return PatternChallenge(
        challenge.spots[keep], challenge.cell_keys[keep], challenge.n_pattern,
        challenge.i_tilde, challenge.hidden_glyph,
    )


def shown(challenge, menu):
    """The menu as ``(glyph id, spot set)`` pairs, in the order it shows them."""
    return [
        (menu.glyph_ids[e], frozenset(challenge.spots[menu.at[menu.entry == e]].tolist()))
        for e in menu.order.tolist()
    ]


def generator_state(rng):
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


def menu_lists(menu):
    return list(menu.glyph_ids), menu.order.tolist(), menu.entry.tolist(), menu.at.tolist()


def entropy(x, y):
    """Independent Bernoulli relative entropy for bound cross-checks."""
    total = 0.0
    if x > 0:
        total += x * math.log(x / y)
    if x < 1:
        total += (1 - x) * math.log((1 - x) / (1 - y))
    return total


# ---------------------------------------------------------------------------
# glyph library
# ---------------------------------------------------------------------------


# 25 cells of the 5x7 grid: rows 0-4, every column.
_BLOCK = [[x, y] for y in range(5) for x in range(5)]


class TestGlyphLibrary:
    def test_library_size_and_shapes(self):
        lib = glyph_library()
        assert len(lib) == 45
        for gid, glyph in lib.items():
            assert glyph.glyph_id == gid
            assert 20 <= glyph.size <= 30
            assert all(
                0 <= x < GLYPH_GRID[0] and 0 <= y < GLYPH_GRID[1]
                for x, y in glyph.pixels
            )

    def test_all_pixel_sets_distinct(self):
        lib = glyph_library()
        assert len({glyph.pixels for glyph in lib.values()}) == len(lib)

    def test_published_menu_symbols_present(self):
        lib = glyph_library()
        assert len(MENU_18) == 18
        assert all(gid in lib for gid in MENU_18)

    def test_reference_glyph_occupies_25_cells(self):
        assert glyph_library()["2"].size == 25

    def test_library_is_cached(self):
        assert glyph_library() is glyph_library()

    @pytest.mark.parametrize(("grid", "glyphs", "message"), [
        ([7, 5], {"a": _BLOCK}, r"glyph library grid \(7, 5\) != expected \(5, 7\)"),
        ([5, 7], {"a": _BLOCK[:-1] + [[5, 0]]}, "glyph 'a' has pixels outside the grid"),
        ([5, 7], {"a": _BLOCK[:3]}, r"glyph 'a' has 3 pixels, outside \[20, 30\]"),
        ([5, 7], {"a": _BLOCK, "b": _BLOCK[::-1]}, "glyphs 'b' and 'a' are identical"),
    ], ids=["grid", "outside", "size", "duplicate"])
    def test_loader_refuses_a_malformed_library(self, grid, glyphs, message,
                                                 monkeypatch):
        """The loader's own body, past its cache, so the cached library is
        never replaced."""
        doc = json.dumps({"grid": grid, "size_range": [20, 30], "glyphs": glyphs})
        data = SimpleNamespace(open=lambda: io.StringIO(doc))
        package = SimpleNamespace(joinpath=lambda _name: data)
        monkeypatch.setattr(strategy_pattern, "resources",
                            SimpleNamespace(files=lambda _name: package))
        with pytest.raises(ConfigError, match=message):
            glyph_library.__wrapped__()

    def test_library_is_read_only(self):
        lib = glyph_library()
        with pytest.raises(TypeError):
            lib["x"] = lib["2"]
        with pytest.raises(TypeError):
            del lib["x"]
        assert len(lib) == 45 and "x" in lib
        with pytest.raises(ValueError, match="read-only"):
            lib.incidence[0, 0] = not lib.incidence[0, 0]
        with pytest.raises(ValueError, match="read-only"):
            lib.cells[0][0] = 0
        with pytest.raises(TypeError):
            lib.rows["x"] = 0

    def test_index_matches_one_built_from_the_pixels(self):
        lib = glyph_library()
        cols, rows = GLYPH_GRID
        assert lib.ids == tuple(sorted(lib)) and len(lib.ids) == 45
        assert list(lib) == list(lib.ids)
        assert lib.incidence.shape == (45, cols * rows)
        for row, gid in enumerate(lib.ids):
            assert lib.rows[gid] == row
            cells = {cx * rows + cy for cx, cy in lib[gid].pixels}
            assert set(np.flatnonzero(lib.incidence[row]).tolist()) == cells
            assert lib.cells[row].tolist() == sorted(cells)
        # a library built from the same glyphs in another order indexes alike
        rebuilt = GlyphLibrary(reversed(list(lib.values())))
        assert rebuilt == lib and rebuilt.ids == lib.ids
        assert np.array_equal(rebuilt.incidence, lib.incidence)
        assert all(np.array_equal(a, b) for a, b in zip(rebuilt.cells, lib.cells))

    def test_a_plain_dict_is_refused(self, default_map):
        lib = glyph_library()
        plain = dict(lib)
        with pytest.raises(DomainError, match="must be a GlyphLibrary, got dict"):
            build_challenge(default_map, plain, "2", 75, make_rng(4457))
        ch = build_challenge(default_map, lib, "2", 75, make_rng(4457))
        with pytest.raises(DomainError, match="must be a GlyphLibrary, got dict"):
            candidate_menu(ch, plain, 18, make_rng(4458))


# ---------------------------------------------------------------------------
# block grid geometry
# ---------------------------------------------------------------------------


class TestBlockGrid:
    def test_for_default_map(self, default_map):
        grid = BlockGrid.for_map(default_map)
        assert (grid.cell_w, grid.cell_h) == (20, 14)
        assert cell_of(grid, 0) == (0, 0)
        assert cell_of(grid, 99) == (4, 0)
        # rows 98 and 99 fall outside the 7 * 14 = 98 used rows
        assert cell_of(grid, 98 * 100) is None
        assert cell_of(grid, default_map.n_spots - 1) is None

    @pytest.mark.parametrize("size", [(100, 100), (103, 97)], ids=["100x100", "103x97"])
    def test_cell_keys_match_cell_of(self, size, default_map):
        alpha_map = default_map if size == (100, 100) else generate_synthetic(
            *size, 0.02, 0.18, seed=11)
        grid = BlockGrid.for_map(alpha_map)
        rows = GLYPH_GRID[1]
        spots = np.arange(alpha_map.n_spots)
        expected = [
            -1 if cell is None else cell[0] * rows + cell[1]
            for cell in (cell_of(grid, int(s)) for s in spots)
        ]
        keys = grid.cell_keys(spots)
        assert keys.tolist() == expected
        # rows (and, on 103x97, columns) outside the blocks are covered
        outside = alpha_map.n_spots - 35 * grid.cell_w * grid.cell_h
        assert outside > 0 and (keys == -1).sum() == outside

    def test_map_smaller_than_glyph_grid_rejected(self):
        tiny = AlphaMap(4, 7, np.full(28, 0.1), 0.02, 0.18)
        with pytest.raises(PlacementError, match="smaller than the"):
            BlockGrid.for_map(tiny)


# ---------------------------------------------------------------------------
# challenge construction
# ---------------------------------------------------------------------------


class TestBuildChallenge:
    def test_spot_counts_and_classes(self, default_map):
        lib = glyph_library()
        ch = build_challenge(default_map, lib, "2", 75, make_rng(4406))
        assert len(pattern_set(ch)) == 25
        assert len(noise_set(ch)) == 75
        assert not (pattern_set(ch) & noise_set(ch))
        assert ch.hidden_glyph == "2"
        assert ch.i_tilde == 72.0
        alpha = default_map.alpha
        assert all(alpha[s] >= 0.16 for s in pattern_set(ch))
        assert all(alpha[s] <= 0.04 for s in noise_set(ch))
        assert len(set(ch.spots.tolist())) == 100

    def test_spots_are_one_read_only_keyed_array(self, default_map):
        ch = build_challenge(default_map, glyph_library(), "2", 75, make_rng(4406))
        assert ch.spots.shape == ch.cell_keys.shape == (100,)
        assert not ch.spots.flags.writeable and not ch.cell_keys.flags.writeable
        assert ch.n_pattern == 25
        # the pattern spots come first, one in each of the glyph's cells
        lib = glyph_library()
        assert ch.cell_keys[:25].tolist() == lib.cells[lib.rows["2"]].tolist()
        grid = BlockGrid.for_map(default_map)
        assert ch.cell_keys.tolist() == grid.cell_keys(ch.spots).tolist()

    def test_pattern_traces_the_glyph_blocks(self, default_map):
        lib = glyph_library()
        ch = build_challenge(default_map, lib, "S", 40, make_rng(4407))
        grid = BlockGrid.for_map(default_map)
        assert blocks_of(pattern_set(ch), grid) == set(lib["S"].pixels)
        # one spot per glyph cell
        assert len(pattern_set(ch)) == lib["S"].size

    def test_noise_is_spread_round_robin(self, default_map):
        # 75 noise spots over 35 blocks: every block gets 2 or 3
        ch = build_challenge(default_map, glyph_library(), "2", 75, make_rng(4408))
        per_block: dict = {}
        grid = BlockGrid.for_map(default_map)
        for s in noise_set(ch):
            cell = cell_of(grid, s)
            per_block[cell] = per_block.get(cell, 0) + 1
        assert len(per_block) == 35
        assert set(per_block.values()) <= {2, 3}
        assert sum(per_block.values()) == 75

    def test_same_seed_same_challenge(self, default_map):
        lib = glyph_library()
        a = build_challenge(default_map, lib, "7", 60, make_rng(4409))
        b = build_challenge(default_map, lib, "7", 60, make_rng(4409))
        assert a == b

    def test_different_seed_different_placement(self, default_map):
        lib = glyph_library()
        a = build_challenge(default_map, lib, "7", 60, make_rng(4410))
        b = build_challenge(default_map, lib, "7", 60, make_rng(4411))
        assert pattern_set(a) != pattern_set(b)

    def test_first_empty_cell_in_sorted_order_named(self):
        # 2x2 blocks; blocks (3, 3) and (0, 6) of glyph "2" hold no high
        # spot.  Row-major order would meet (3, 3) first, sorted order (0, 6).
        alpha = np.full(140, 0.17)
        spots = np.arange(140)
        for cx, cy in [(3, 3), (0, 6)]:
            alpha[(spots % 10 // 2 == cx) & (spots // 10 // 2 == cy)] = 0.03
        holed = AlphaMap(10, 14, alpha, 0.02, 0.18)
        with pytest.raises(PlacementError, match=r"glyph cell \(0, 6\) for '2'"):
            build_challenge(holed, glyph_library(), "2", 4, make_rng(4439))

    def test_map_without_high_spots_rejected(self):
        flat = AlphaMap(10, 14, np.full(140, 0.03), 0.02, 0.18)
        with pytest.raises(PlacementError, match="no high-transmission spots"):
            build_challenge(flat, glyph_library(), "2", 10, make_rng(4412))

    def test_too_few_low_spots_rejected(self):
        # exactly one low spot per 2x2 block -> 35 total, fewer than requested
        alpha = np.full(140, 0.17)
        spots = np.arange(140)
        low = (spots % 2 == 0) & ((spots // 10) % 2 == 0)
        alpha[low] = 0.03
        patchy = AlphaMap(10, 14, alpha, 0.02, 0.18)
        with pytest.raises(PlacementError, match="only 35 low-transmission"):
            build_challenge(patchy, glyph_library(), "2", 75, make_rng(4413))

    def test_unknown_glyph_rejected(self, default_map):
        with pytest.raises(DomainError, match="unknown glyph"):
            build_challenge(default_map, glyph_library(), "no-such", 75, make_rng(4414))

    def test_negative_noise_count_rejected(self, default_map):
        with pytest.raises(DomainError, match=">= 0"):
            build_challenge(default_map, glyph_library(), "2", -1, make_rng(4415))

    def test_inverted_class_thresholds_rejected(self, default_map):
        with pytest.raises(DomainError, match="low_max < high_min"):
            build_challenge(
                default_map, glyph_library(), "2", 75, make_rng(4416),
                low_max=0.16, high_min=0.04,
            )

    def test_challenge_validation(self, default_map):
        grid = BlockGrid.for_map(default_map)
        with pytest.raises(DomainError, match="disjoint"):
            challenge_of([1, 2, 2, 3], 2, grid)
        with pytest.raises(DomainError, match="at least one pattern spot"):
            challenge_of([3], 0, grid)
        with pytest.raises(DomainError, match="at least one pattern spot"):
            challenge_of([1, 3], 3, grid)
        with pytest.raises(DomainError, match="a cell key for each spot"):
            PatternChallenge(np.array([1, 3]), np.array([0]), 1, 72.0, "2")
        with pytest.raises(DomainError, match=">= 0"):
            challenge_of([1, 3], 1, grid, i_tilde=-1.0)
        with pytest.raises(DomainError, match=">= 0"):
            challenge_of([1, 3], 1, grid, i_tilde=math.inf)


class TestClassIndexBuiltOncePerMap:
    """The class index depends only on the map and the class edges, so it
    is built once per map object, however many questions draw from it."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The maps of every ``_ClassBlockIndex`` built during the test."""
        maps = []
        original = strategy_pattern._ClassBlockIndex

        class Counting(original):
            def __init__(self, alpha_map, *args):
                maps.append(alpha_map)
                super().__init__(alpha_map, *args)

        monkeypatch.setattr(strategy_pattern, "_ClassBlockIndex", Counting)
        return maps

    def test_montecarlo_run_builds_one(self, built):
        stats, _records = montecarlo(RunConfig(strategy="pattern", trials=20))
        assert stats.n_trials == 20
        assert len(built) == 1

    def test_repeated_challenges_on_one_map_build_one(self, built):
        lib = glyph_library()
        first = generate_synthetic(100, 100, 0.02, 0.18, seed=7)
        for seed in range(50):
            build_challenge(first, lib, sorted(lib)[seed % 45], 75, make_rng(seed))
        assert built == [first]
        second = generate_synthetic(100, 100, 0.02, 0.18, seed=7)
        build_challenge(second, lib, "2", 75, make_rng(50))
        build_challenge(first, lib, "2", 75, make_rng(51))
        assert built == [first, second]


# ---------------------------------------------------------------------------
# candidate menus
# ---------------------------------------------------------------------------


class TestCandidateMenu:
    @pytest.mark.parametrize("n_entries", [2, 5, 18, 45])
    def test_menu_soundness(self, default_map, n_entries):
        lib = glyph_library()
        rng = make_rng(4417 + n_entries)
        ch = build_challenge(default_map, lib, "2", 75, rng)
        menu = shown(ch, candidate_menu(ch, lib, n_entries, rng))
        assert len(menu) == n_entries
        ids = [gid for gid, _spots in menu]
        assert len(set(ids)) == n_entries
        # exactly one entry is the hidden pattern, as id and as spot set
        assert sum(gid == ch.hidden_glyph for gid in ids) == 1
        assert sum(spots == pattern_set(ch) for _gid, spots in menu) == 1
        grid = BlockGrid.for_map(default_map)
        for gid, spots in menu:
            glyph = lib[gid]
            assert spots <= set(ch.spots.tolist())
            assert len(spots) == glyph.size
            # each entry is a genuine embedding: one spot in each glyph cell
            assert blocks_of(spots, grid) == set(glyph.pixels)

    def test_published_menu_size_includes_hidden(self, default_map):
        lib = glyph_library()
        rng = make_rng(4418)
        ch = build_challenge(default_map, lib, "2", 75, rng)
        menu = candidate_menu(ch, lib, 18, rng)
        assert menu.glyph_ids[0] == "2" and menu.glyph_ids.count("2") == 1
        assert sorted(menu.order.tolist()) == list(range(18))
        hidden = [spots for gid, spots in shown(ch, menu) if gid == "2"]
        assert hidden == [pattern_set(ch)]

    def test_every_glyph_embeddable_with_dense_noise(self, default_map):
        # 75 round-robin noise spots put >= 2 spots in every block, so all
        # 45 glyphs embed and the menu can use the whole library
        lib = glyph_library()
        rng = make_rng(4419)
        ch = build_challenge(default_map, lib, "2", 75, rng)
        menu = candidate_menu(ch, lib, 45, rng)
        assert sorted(menu.glyph_ids) == sorted(lib)

    def test_oversized_menu_reports_achievable_count(self, default_map):
        lib = glyph_library()
        rng = make_rng(4420)
        ch = build_challenge(default_map, lib, "2", 75, rng)
        with pytest.raises(MenuError, match=r"only 45 glyphs embeddable.*46 requested"):
            candidate_menu(ch, lib, 46, rng)

    def test_glyph_with_one_empty_cell_not_offered(self, default_map):
        lib = glyph_library()
        rng = make_rng(4440)
        ch = build_challenge(default_map, lib, "2", 75, rng)
        cell = (0, 3)  # not a cell of "2"
        grid = BlockGrid.for_map(default_map)
        holed = keeping(ch, np.array([cell_of(grid, s) != cell for s in ch.spots.tolist()]))
        offered = sorted(gid for gid in lib if cell not in lib[gid].pixels)
        assert "2" in offered and len(offered) < len(lib)
        menu = candidate_menu(holed, lib, len(offered), rng)
        assert sorted(menu.glyph_ids) == offered
        with pytest.raises(MenuError, match=rf"only {len(offered)} glyphs embeddable"):
            candidate_menu(holed, lib, len(offered) + 1, rng)

    def test_block_with_one_illuminated_spot(self, default_map):
        lib = glyph_library()
        rng = make_rng(4441)
        ch = build_challenge(default_map, lib, "2", 75, rng)
        cell = (0, 3)
        grid = BlockGrid.for_map(default_map)
        in_cell = [s for s in ch.spots.tolist() if cell_of(grid, s) == cell]
        assert len(in_cell) >= 2
        single = keeping(ch, ~np.isin(ch.spots, in_cell[1:]))
        menu = candidate_menu(single, lib, 45, rng)
        for gid, spots in shown(single, menu):
            if cell in lib[gid].pixels:
                assert in_cell[0] in spots
        twin = make_rng(4441)
        build_challenge(default_map, lib, "2", 75, twin)
        assert menu_lists(menu) == _loop_menu(single, grid, lib, 45, twin)

    @pytest.mark.parametrize("n_noise", [0, 12, 35, 50, 75])
    @pytest.mark.parametrize("wide", [False, True], ids=["100x100", "103x97"])
    def test_matches_per_spot_loop(self, default_map, n_noise, wide):
        # sparse noise leaves blocks empty or with a single spot
        lib = glyph_library()
        alpha_map = default_map
        if wide:
            alpha_map = generate_synthetic(103, 97, 0.02, 0.18, seed=11)
        grid = BlockGrid.for_map(alpha_map)
        for seed in range(4442, 4452):
            rng = make_rng(seed)
            gid = sorted(lib)[seed % 45]
            ch = build_challenge(alpha_map, lib, gid, n_noise, rng)
            loop_rng = make_rng(seed)
            assert ch == _loop_challenge(alpha_map, lib, gid, n_noise, loop_rng)
            for n_entries in (2, 18, 40):
                try:
                    expected = _loop_menu(ch, grid, lib, n_entries, loop_rng)
                except MenuError as exc:
                    with pytest.raises(MenuError, match=re.escape(str(exc))):
                        candidate_menu(ch, lib, n_entries, rng)
                    continue
                assert menu_lists(candidate_menu(ch, lib, n_entries, rng)) == expected
            assert generator_state(rng) == generator_state(loop_rng)

    def test_single_entry_menu_rejected(self, default_map):
        lib = glyph_library()
        rng = make_rng(4421)
        ch = build_challenge(default_map, lib, "2", 75, rng)
        with pytest.raises(DomainError, match="menu size must be >= 2"):
            candidate_menu(ch, lib, 1, rng)

    def test_hidden_glyph_missing_from_library(self, default_map):
        lib = glyph_library()
        rng = make_rng(4422)
        ch = build_challenge(default_map, lib, "2", 75, rng)
        orphan = dataclasses.replace(ch, hidden_glyph="zz")
        with pytest.raises(DomainError, match="not in the library"):
            candidate_menu(orphan, lib, 5, rng)


def _loop_challenge(alpha_map, library, glyph_id, n_noise, rng):
    """``build_challenge`` at the default class edges and intensity as loops
    over spots and blocks, one scalar draw per glyph cell and the deal
    written out: the reference the array version must match draw for draw.
    The low spots are listed block by block in row-major block order,
    ascending within a block; one permutation of that list, read in order,
    gives each block the order its spots are dealt in."""
    grid = BlockGrid.for_map(alpha_map)
    cols, rows = GLYPH_GRID
    high, low = {}, {}
    for spot in range(alpha_map.n_spots):
        cell = cell_of(grid, spot)
        if cell is None:
            continue
        if alpha_map.alpha[spot] >= 0.16:
            high.setdefault(cell, []).append(spot)
        elif alpha_map.alpha[spot] <= 0.04:
            low.setdefault(cell, []).append(spot)
    pattern = [
        high[cell][rng.integers(len(high[cell]))]
        for cell in sorted(library[glyph_id].pixels)
    ]
    blocks = [(cx, cy) for cy in range(rows) for cx in range(cols)]
    lows = [spot for block in blocks for spot in low.get(block, [])]
    dealt_from = {block: [] for block in blocks}
    for position in rng.permutation(len(lows)).tolist():
        dealt_from[cell_of(grid, lows[position])].append(lows[position])
    noise = [
        dealt_from[block][depth]
        for depth in range(max(map(len, dealt_from.values())))
        for block in blocks
        if depth < len(dealt_from[block])
    ]
    return challenge_of(pattern + noise[:n_noise], len(pattern), grid, hidden=glyph_id)


def _loop_menu(challenge, grid, library, n_entries, rng):
    """``candidate_menu`` as a loop over spots, one generator call per glyph
    cell, the spots placed on ``grid``: the reference the array version must
    match draw for draw.  Gives the menu as lists: glyph ids, order, and
    each drawn spot's entry and position in the challenge."""
    by_block: dict = {}
    for position, spot in enumerate(challenge.spots.tolist()):
        cell = cell_of(grid, spot)
        if cell is not None:
            by_block.setdefault(cell, []).append(position)
    candidates = [
        gid
        for gid in sorted(library)
        if gid != challenge.hidden_glyph
        and all(cell in by_block for cell in library[gid].pixels)
    ]
    if len(candidates) + 1 < n_entries:
        raise MenuError(
            f"only {len(candidates) + 1} glyphs embeddable in the illuminated "
            f"set; {n_entries} requested"
        )
    picked = rng.choice(len(candidates), size=n_entries - 1, replace=False)
    glyph_ids = [challenge.hidden_glyph]
    entry = [0] * challenge.n_pattern
    at = list(range(challenge.n_pattern))
    for number, idx in enumerate(picked.tolist(), start=1):
        glyph = library[candidates[idx]]
        glyph_ids.append(glyph.glyph_id)
        for cell in sorted(glyph.pixels):
            entry.append(number)
            at.append(by_block[cell][rng.integers(len(by_block[cell]))])
    order = rng.permutation(n_entries)
    return glyph_ids, order.tolist(), entry, at


class TestDrawLaws:
    """The laws of the challenge and menu draws, each checked by a G-test
    whose false-failure probability is at most 1e-6."""

    def test_each_low_spot_is_dealt_at_its_block_rate(self, default_map):
        # Block b holds c_b low spots and receives r_b noise spots a
        # challenge, so each of its low spots is dealt with frequency
        # r_b / c_b.  An r-of-c draw without replacement has per-spot count
        # variance (c - r) / (c - 1) times the multinomial one; each block's
        # G statistic is divided by that factor, so the sum is chi-square
        # with sum(c_b - 1) degrees of freedom.
        lib = glyph_library()
        rng = make_rng(4454)
        builds = 3000
        grid = BlockGrid.for_map(default_map)
        low = {}
        for spot in range(default_map.n_spots):
            cell = cell_of(grid, spot)
            if cell is not None and default_map.alpha[spot] <= 0.04:
                low.setdefault(cell, []).append(spot)
        dealt = np.zeros(default_map.n_spots)
        per_block = None
        for _ in range(builds):
            ch = build_challenge(default_map, lib, "2", 75, rng)
            noise = ch.spots[ch.n_pattern:]
            dealt[noise] += 1
            counts = {cell: 0 for cell in low}
            for spot in noise.tolist():
                counts[cell_of(grid, spot)] += 1
            assert per_block in (None, counts)
            per_block = counts
        statistic, dof = 0.0, 0
        for cell, spots in low.items():
            c, r = len(spots), per_block[cell]
            if r in (0, c):
                assert set(dealt[spots]) == {builds * r / c}
                continue
            observed = dealt[spots]
            g = stats.power_divergence(observed, np.full(c, builds * r / c),
                                       lambda_="log-likelihood").statistic
            statistic += g * (c - 1) / (c - r)
            dof += c - 1
        assert dof > 1000
        assert stats.chi2.sf(statistic, dof) > 1e-6

    def test_hidden_entry_menu_position_is_uniform(self, default_map):
        lib = glyph_library()
        rng = make_rng(4455)
        n_entries, menus = 40, 4000
        ch = build_challenge(default_map, lib, "2", 75, rng)
        positions = np.zeros(n_entries)
        for _ in range(menus):
            menu = candidate_menu(ch, lib, n_entries, rng)
            positions[np.flatnonzero(menu.order == 0)[0]] += 1
        result = stats.power_divergence(positions, lambda_="log-likelihood")
        assert result.pvalue > 1e-6


class _LoggedGenerator:
    """A generator that logs the name of each method called on it."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def logged(*args, **kwargs):
            self.calls.append(name)
            return method(*args, **kwargs)

        return logged


#: One honest question's draws before its answer, as README's ``pattern``
#: bullet lists them: the glyph, a high spot per glyph cell, the noise
#: shuffle, the distractors, a spot per distractor cell, the menu order.
_QUESTION_CALLS = ["integers", "integers", "permutation", "choice", "integers",
                   "permutation"]


@pytest.mark.parametrize(
    "subject,i_tilde,rule,calls",
    [
        # at these limits every percept is recognized
        (AliceSubject(k=6), 72.0, RecognitionRule(26, 76), _QUESTION_CALLS + ["poisson"]),
        # at zero intensity nothing fires and the pattern is not recognized
        (AliceSubject(k=6), 0.0, RecognitionRule(5, 5),
         _QUESTION_CALLS + ["poisson", "integers"]),
        # an impostor's question draws its glyph and her menu position only
        (FixedP(0.5), 72.0, RecognitionRule(5, 5), ["integers", "integers"]),
    ],
    ids=["honest-recognized", "honest-not-recognized", "impostor"],
)
def test_question_makes_the_documented_generator_calls(
    default_map, subject, i_tilde, rule, calls
):
    rng = _LoggedGenerator(make_rng(4456))
    run_pattern_test(subject, PatternPlan(default_map, 1, 40, rule, i_tilde=i_tilde), rng)
    assert rng.calls == calls


# ---------------------------------------------------------------------------
# perception model
# ---------------------------------------------------------------------------


class TestSimulatePerception:
    def test_per_spot_rates_match_seeing_probability(self, default_map):
        lib = glyph_library()
        rng = make_rng(4423)
        ch = build_challenge(default_map, lib, "2", 75, rng)
        reps = 10_000
        alpha = default_map.alpha
        pattern = sorted(pattern_set(ch), key=lambda s: alpha[s])
        noise = sorted(noise_set(ch), key=lambda s: alpha[s])
        probes = [pattern[0], pattern[-1], pattern[12], noise[0], noise[-1], noise[37]]
        hits = {s: 0 for s in probes}
        position = {s: i for i, s in enumerate(ch.spots.tolist())}
        for _ in range(reps):
            perceived = simulate_perception(ch, default_map, 6, rng)
            for s in probes:
                hits[s] += bool(perceived[position[s]])
        for s in probes:
            p = prob_see(float(alpha[s]), ch.i_tilde, 6)
            sigma = math.sqrt(p * (1.0 - p) / reps)
            assert abs(hits[s] / reps - p) <= 3.0 * sigma + 1e-12

    def test_zero_intensity_perceives_nothing(self, default_map):
        lib = glyph_library()
        rng = make_rng(4424)
        ch = build_challenge(default_map, lib, "2", 75, rng, i_tilde=0.0)
        perceived = simulate_perception(ch, default_map, 6, rng)
        assert perceived.shape == ch.spots.shape and not perceived.any()

    def test_high_transmission_spot_nearly_always_seen(self):
        # at the default operating point a 0.18-transmission spot sees a
        # mean of 12.96 photons, far above the 6-photon threshold
        p = prob_see(0.18, 72.0, 6)
        assert p == pytest.approx(gk(6, 12.96), rel=1e-12)
        assert p > 0.97

    def test_challenge_spots_must_lie_on_map(self, default_map):
        grid = BlockGrid.for_map(default_map)
        for spots in ([0, default_map.n_spots], [-1, 0]):
            stray = challenge_of(spots, 2, grid)
            with pytest.raises(DomainError, match="outside the map"):
                simulate_perception(stray, default_map, 6, make_rng(4425))

    def test_detector_counts_carry_no_class_signal(self, default_map):
        # an interceptor sees each illuminated spot at the same pulse
        # intensity; the induced photon counts are identically distributed
        # across pattern and noise spots
        lib = glyph_library()
        rng = make_rng(4426)
        ch = build_challenge(default_map, lib, "2", 75, rng)
        reps = 40
        counts_pattern = rng.poisson(ch.i_tilde, size=reps * len(pattern_set(ch)))
        counts_noise = rng.poisson(ch.i_tilde, size=reps * len(noise_set(ch)))
        result = stats.ks_2samp(counts_pattern, counts_noise)
        assert result.pvalue > 0.01


# ---------------------------------------------------------------------------
# recognition rule
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def challenge(default_map):
    return build_challenge(default_map, glyph_library(), "2", 75, make_rng(4427))


def percept(challenge, fired):
    """A percept flagging the challenge's spots listed in ``fired``."""
    flags = np.zeros(challenge.spots.size, dtype=bool)
    flags[np.isin(challenge.spots, list(fired))] = True
    return flags


class TestRecognize:
    def test_exact_percept_recognized_at_tightest_rule(self, challenge):
        assert recognize(percept(challenge, pattern_set(challenge)), challenge,
                         RecognitionRule(1, 1))

    def test_five_missed_of_25_fails_at_k5(self, challenge):
        pattern = sorted(pattern_set(challenge))
        perceived = percept(challenge, pattern[5:])
        assert not recognize(perceived, challenge, RecognitionRule(5, 5))
        assert recognize(perceived, challenge, RecognitionRule(6, 5))

    def test_four_missed_four_noise_passes_at_k5_l5(self, challenge):
        pattern = sorted(pattern_set(challenge))
        noise = sorted(noise_set(challenge))
        perceived = percept(challenge, pattern[4:] + noise[:4])
        assert recognize(perceived, challenge, RecognitionRule(5, 5))
        assert not recognize(perceived, challenge, RecognitionRule(5, 4))
        assert not recognize(perceived, challenge, RecognitionRule(4, 5))

    def test_noise_outside_challenge_is_ignored(self, challenge, default_map):
        # a percept flags only the challenge's own spots: spots that were
        # never illuminated have no place in it, however bright, and a
        # percept that does not line up with the challenge is refused
        assert simulate_perception(challenge, default_map, 6, make_rng(4453)).shape == (
            challenge.spots.shape)
        perceived = percept(challenge, pattern_set(challenge) | {10_001, 10_002})
        assert recognize(perceived, challenge, RecognitionRule(1, 1))
        with pytest.raises(DomainError, match="each of the challenge's spots"):
            recognize(np.append(perceived, True), challenge, RecognitionRule(1, 1))

    def test_rule_validation(self):
        with pytest.raises(DomainError, match=">= 1"):
            RecognitionRule(0, 5)
        with pytest.raises(DomainError, match=">= 1"):
            RecognitionRule(5, 0)


# ---------------------------------------------------------------------------
# impostor law
# ---------------------------------------------------------------------------


class TestFalsePositiveRate:
    def test_published_operating_points(self):
        p40 = false_positive_rate(40, 6)
        assert p40 == Fraction(1, 40**6)
        assert 2.4e-10 <= float(p40) <= 2.5e-10
        p18 = false_positive_rate(18, 8)
        assert p18 == Fraction(1, 18**8)
        assert 9.0e-11 <= float(p18) <= 9.2e-11

    @pytest.mark.parametrize("n_entries", [2, 18, 40])
    def test_zero_questions_pass_certainly(self, n_entries):
        assert false_positive_rate(n_entries, 0) == 1

    def test_exact_rational_arithmetic(self):
        assert false_positive_rate(3, 2) == Fraction(1, 9)
        assert isinstance(false_positive_rate(3, 2), Fraction)

    @given(
        n_entries=st.integers(min_value=2, max_value=60),
        n_questions=st.integers(min_value=0, max_value=12),
    )
    def test_matches_direct_power(self, n_entries, n_questions):
        assert false_positive_rate(n_entries, n_questions) == Fraction(
            1, n_entries**n_questions
        )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            false_positive_rate(1, 6)
        with pytest.raises(DomainError):
            false_positive_rate(18, -1)


# ---------------------------------------------------------------------------
# honest-failure bound
# ---------------------------------------------------------------------------


class TestAliceFailureBound:
    def test_matches_independent_formula(self):
        p_h, p_l, m = 0.02, 0.015, 6
        per_q = math.exp(-25 * entropy(5 / 25, p_h)) + math.exp(
            -75 * entropy(5 / 75, p_l)
        )
        expected = 1.0 - (1.0 - per_q) ** m
        got = alice_failure_bound(25, 75, 5, 5, p_h, p_l, m)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_zero_questions_cannot_fail(self):
        assert alice_failure_bound(25, 75, 5, 5, 0.02, 0.015, 0) == 0.0

    def test_single_question_equals_per_question_bound(self):
        per_q = alice_failure_bound(25, 75, 5, 5, 0.02, 0.015, 1)
        six = alice_failure_bound(25, 75, 5, 5, 0.02, 0.015, 6)
        assert six == pytest.approx(1.0 - (1.0 - per_q) ** 6, rel=1e-12)
        assert six > per_q

    def test_monotone_in_question_count(self):
        bounds = [alice_failure_bound(25, 75, 5, 5, 0.03, 0.02, m) for m in (1, 3, 6, 12)]
        assert bounds == sorted(bounds)
        assert all(0.0 < b <= 1.0 for b in bounds[1:])

    def test_boundary_equality_is_vacuous(self):
        # A vacuous bound is 1.0, and nothing warns (the suite runs with
        # every warning an error).
        assert alice_failure_bound(25, 75, 5, 5, 0.2, 0.015, 6) == 1.0

    def test_terms_summing_to_one_are_vacuous(self):
        # Away from equality: each term is exp(-ln 2) = 1/2.
        assert alice_failure_bound(1, 1, 1, 1, 0.5, 0.5, 1) == 1.0

    def test_rates_above_tolerance_rejected(self):
        with pytest.raises(BoundInapplicableError, match="must not fall below"):
            alice_failure_bound(25, 75, 5, 5, 0.3, 0.015, 6)
        with pytest.raises(BoundInapplicableError):
            alice_failure_bound(25, 75, 5, 5, 0.02, 0.5, 6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_h=0, n_l=75, k=5, l=5, p_h=0.02, p_l=0.02, m=6),
            dict(n_h=25, n_l=0, k=5, l=5, p_h=0.02, p_l=0.02, m=6),
            dict(n_h=25, n_l=75, k=0, l=5, p_h=0.02, p_l=0.02, m=6),
            dict(n_h=25, n_l=75, k=5, l=0, p_h=0.02, p_l=0.02, m=6),
            dict(n_h=25, n_l=75, k=5, l=5, p_h=1.0, p_l=0.02, m=6),
            dict(n_h=25, n_l=75, k=5, l=5, p_h=-0.1, p_l=0.02, m=6),
            dict(n_h=25, n_l=75, k=5, l=5, p_h=0.02, p_l=math.nan, m=6),
            dict(n_h=25, n_l=75, k=5, l=5, p_h=0.02, p_l=0.02, m=-1),
        ],
    )
    def test_domain_errors(self, kwargs):
        with pytest.raises(DomainError):
            alice_failure_bound(**kwargs)

    @given(
        p_h=st.floats(min_value=0.001, max_value=0.1),
        p_l=st.floats(min_value=0.001, max_value=0.05),
        m=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=60)
    def test_stays_in_unit_interval(self, p_h, p_l, m):
        bound = alice_failure_bound(25, 75, 5, 5, p_h, p_l, m)
        assert 0.0 < bound <= 1.0


# ---------------------------------------------------------------------------
# intensity optimization
# ---------------------------------------------------------------------------


class TestOptimizeIntensity:
    def test_published_operating_point(self):
        i_star, p_star = optimize_intensity(25, 75, 5, 5, 0.02, 0.18, 6, 6)
        assert i_star == pytest.approx(72.3, abs=1e-9)
        assert abs(i_star - 72.0) <= 5.0
        assert p_star == pytest.approx(0.0004997873437286859, rel=1e-12)
        # within one decade of the design target 5e-4
        assert 5e-5 <= p_star <= 5e-3

    def test_matches_dense_grid_oracle(self):
        i_star, p_star = optimize_intensity(25, 75, 5, 5, 0.02, 0.18, 6, 6)
        best = (None, math.inf)
        for j in range(801):
            i_tilde = 40.0 + 0.1 * j
            p_h = 1.0 - prob_see(0.18, i_tilde, 6)
            p_l = prob_see(0.02, i_tilde, 6)
            if 5 / 25 <= p_h or 5 / 75 <= p_l:
                continue
            per_q = math.exp(-25 * entropy(5 / 25, p_h)) + math.exp(
                -75 * entropy(5 / 75, p_l)
            )
            if per_q >= 1.0:
                continue
            bound = 1.0 - (1.0 - per_q) ** 6
            if bound < best[1]:
                best = (i_tilde, bound)
        assert i_star == pytest.approx(best[0], abs=1e-9)
        assert p_star == pytest.approx(best[1], rel=1e-12)

    def test_bound_is_unimodal_over_the_scan(self):
        """Vacuous points (a per-question bound of 1) are skipped; at
        i_tilde = 44.0..44.2 the six-question bound rounds to 1.0 but its
        per-question bound is below 1, so those points stay."""
        values = []
        for j in range(801):
            i_tilde = 40.0 + 0.1 * j
            p_h = 1.0 - prob_see(0.18, i_tilde, 6)
            p_l = prob_see(0.02, i_tilde, 6)
            try:
                per_question = alice_failure_bound(25, 75, 5, 5, p_h, p_l, 1)
            except BoundInapplicableError:
                continue
            if per_question >= 1.0:
                continue
            values.append(alice_failure_bound(25, 75, 5, 5, p_h, p_l, 6))
        assert len(values) > 100
        diffs = np.diff(values)
        signs = np.sign(diffs[np.abs(diffs) > 0])
        flips = int(np.count_nonzero(np.diff(signs)))
        assert flips <= 1

    def test_narrower_transmission_gap_hurts(self):
        wide = optimize_intensity(25, 75, 5, 5, 0.02, 0.18, 6, 6)[1]
        lower_high = optimize_intensity(25, 75, 5, 5, 0.02, 0.16, 6, 6)[1]
        higher_low = optimize_intensity(25, 75, 5, 5, 0.04, 0.18, 6, 6)[1]
        narrow = optimize_intensity(25, 75, 5, 5, 0.04, 0.16, 6, 6)[1]
        assert wide < lower_high < narrow
        assert wide < higher_low < narrow

    def test_infeasible_range_rejected(self):
        # classes 0.10 / 0.11 are too close: no scanned intensity keeps both
        # per-spot rates below the tolerated fractions
        with pytest.raises(InfeasibleError, match="invalid or vacuous"):
            optimize_intensity(25, 75, 5, 5, 0.10, 0.11, 6, 6)

    def test_no_noise_spots_rejected(self):
        with pytest.raises(DomainError, match="n_l must be >= 1"):
            optimize_intensity(25, 0, 5, 5, 0.04, 0.16, 6, 6)


# ---------------------------------------------------------------------------
# full sessions
# ---------------------------------------------------------------------------


class TestRunPatternTest:
    def test_impostor_never_passes_published_session(self, default_map):
        # M=18, m=8: pass probability (1/18)^8 ~ 9e-11, so zero passes
        # expected in any feasible trial count; the per-question law is
        # checked through the first answer, which is correct iff the
        # uniform pick hits the single hidden entry
        rng = make_rng(4428)
        eve = FixedP(0.5)
        plan = PatternPlan(default_map, 8, 18, RecognitionRule(5, 5))
        trials = 3000
        passes = 0
        first_correct = 0
        for _ in range(trials):
            result = run_pattern_test(eve, plan, rng)
            assert result.questions == 8
            passes += result.accepted
            first_correct += result.correct >= 1
        assert passes == 0
        p = 1.0 / 18.0
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(first_correct / trials - p) <= 3.0 * sigma

    def test_impostor_detector_strategy_is_irrelevant(self, default_map):
        # pattern questions feed the impostor no usable photon signal: any
        # detector strategy collapses to the same uniform menu pick
        plan = PatternPlan(default_map, 4, 12, RecognitionRule(5, 5))
        runs = {}
        for label, strategy in [("coin", FixedP(0.5)), ("uniform", UniformP())]:
            rng = make_rng(4429)
            runs[label] = [
                run_pattern_test(strategy, plan, rng)
                for _ in range(60)
            ]
        assert runs["coin"] == runs["uniform"]

    def test_honest_user_failure_within_bound(self, default_map):
        # classes tightened to 0.03 / 0.17 so the Chernoff bound is sharp
        # at the published intensity
        rng = make_rng(4430)
        alice = AliceSubject(k=6)
        m, trials = 6, 400
        plan = PatternPlan(default_map, m, 18, RecognitionRule(5, 5), low_max=0.03,
                           high_min=0.17)
        p_h = 1.0 - prob_see(0.17, 72.0, 6)
        p_l = prob_see(0.03, 72.0, 6)
        bound = alice_failure_bound(25, 75, 5, 5, p_h, p_l, m)
        fails = 0
        for _ in range(trials):
            result = run_pattern_test(alice, plan, rng, glyph_ids=["2"])
            fails += not result.accepted
            assert result.accepted == (result.correct == m)
        test = stats.binomtest(fails, trials, float(bound), alternative="greater")
        assert test.pvalue > 1e-4
        assert fails / trials <= 0.5 * float(bound) + 0.05

    def test_recognition_failure_bounded_per_question(self, default_map):
        # ten random valid class configurations: the Monte Carlo
        # recognition-failure rate never significantly exceeds the
        # one-question Chernoff bound
        lib = glyph_library()
        rng = make_rng(4431)
        reps = 1200
        accepted = 0
        attempts = 0
        while accepted < 10 and attempts < 200:
            attempts += 1
            low_max = float(rng.uniform(0.025, 0.045))
            high_min = float(rng.uniform(0.155, 0.175))
            i_tilde = float(rng.uniform(60.0, 90.0))
            k_rule = int(rng.integers(4, 9))
            l_rule = int(rng.integers(4, 9))
            p_h = 1.0 - prob_see(high_min, i_tilde, 6)
            p_l = prob_see(low_max, i_tilde, 6)
            try:
                bound = alice_failure_bound(25, 75, k_rule, l_rule, p_h, p_l, 1)
            except BoundInapplicableError:
                continue
            if bound >= 1.0:
                continue
            accepted += 1
            challenge = build_challenge(
                default_map, lib, "2", 75, rng,
                i_tilde=i_tilde, low_max=low_max, high_min=high_min,
            )
            rule = RecognitionRule(k_rule, l_rule)
            fails = sum(
                not recognize(
                    simulate_perception(challenge, default_map, 6, rng),
                    challenge,
                    rule,
                )
                for _ in range(reps)
            )
            test = stats.binomtest(fails, reps, float(bound), alternative="greater")
            assert test.pvalue > 1e-4, (
                f"failure rate {fails / reps} above bound {bound} for "
                f"low_max={low_max} high_min={high_min} i_tilde={i_tilde} "
                f"rule=({k_rule},{l_rule})"
            )
        assert accepted == 10

    @pytest.mark.parametrize("hidden_first", [True, False])
    def test_honest_pick_takes_first_of_tied_entries(
        self, default_map, monkeypatch, hidden_first
    ):
        # the hidden entry and a decoy overlap the percept equally; the pick
        # is the earlier of the two in menu order, as max() gives it
        import retinasim.strategy_pattern as sp

        fired = np.zeros(100, dtype=bool)
        fired[[1, 2, 3]] = True
        menu = Menu(
            glyph_ids=("2", "7"),
            order=np.array([0, 1] if hidden_first else [1, 0]),
            entry=np.array([0, 0, 0, 1, 1, 1]),
            at=np.array([1, 2, 10, 2, 3, 11]),
        )
        monkeypatch.setattr(sp, "candidate_menu", lambda *args: menu)
        monkeypatch.setattr(sp, "simulate_perception", lambda *args: fired)
        monkeypatch.setattr(sp, "recognize", lambda *args: True)
        result = run_pattern_test(
            AliceSubject(k=6), PatternPlan(default_map, 1, 2, RecognitionRule(5, 5)),
            make_rng(4452), glyph_ids=["2"],
        )
        assert result.accepted is hidden_first
        overlap = {0: 2, 1: 2}
        assert max(menu.order.tolist(), key=overlap.get) == menu.order[0]

    def test_session_determinism(self, default_map):
        alice = AliceSubject(k=6)
        plan = PatternPlan(default_map, 5, 18, RecognitionRule(5, 5))
        a = run_pattern_test(alice, plan, make_rng(4432))
        b = run_pattern_test(alice, plan, make_rng(4432))
        assert a == b

    def test_zero_questions_rejected(self, default_map):
        with pytest.raises(ConfigError, match="question count must be >= 1"):
            PatternPlan(default_map, 0, 18, RecognitionRule(5, 5))

    def test_empty_glyph_pool_rejected(self, default_map):
        with pytest.raises(ConfigError, match="empty glyph pool"):
            run_pattern_test(
                FixedP(0.5), PatternPlan(default_map, 4, 18, RecognitionRule(5, 5)),
                make_rng(4434), glyph_ids=[],
            )

    def test_unknown_pool_ids_rejected(self, default_map):
        with pytest.raises(ConfigError, match="not in the library"):
            run_pattern_test(
                FixedP(0.5), PatternPlan(default_map, 4, 18, RecognitionRule(5, 5)),
                make_rng(4435), glyph_ids=["2", "no-such"],
            )

    def test_unknown_subject_rejected(self, default_map):
        with pytest.raises(DomainError, match="unknown subject"):
            run_pattern_test(
                object(), PatternPlan(default_map, 4, 18, RecognitionRule(5, 5)),
                make_rng(4436),
            )

    def test_menu_size_error_propagates(self, default_map):
        with pytest.raises(DomainError, match="menu size must be >= 2"):
            PatternPlan(default_map, 4, 1, RecognitionRule(5, 5))


# ---------------------------------------------------------------------------
# impostor sessions from their law
# ---------------------------------------------------------------------------


def _loop_impostor_session(alpha_map, m, n_entries, rng, *, n_noise=75, i_tilde=72.0,
                           low_max=0.04, high_min=0.16, glyph_ids=None):
    """An impostor's session as a loop over questions, each building its
    challenge and menu and picking ``menu.order[integers(n_entries)]``: the
    reference ``run_pattern_test``'s impostor law must match."""
    lib = glyph_library()
    pool = sorted(lib) if glyph_ids is None else glyph_ids
    for correct in range(m):
        gid = pool[int(rng.integers(len(pool)))]
        challenge = build_challenge(alpha_map, lib, gid, n_noise, rng, i_tilde=i_tilde,
                                    low_max=low_max, high_min=high_min)
        menu = candidate_menu(challenge, lib, n_entries, rng)
        if menu.order[int(rng.integers(n_entries))] != 0:
            return PatternResult(accepted=False, questions=m, correct=correct)
    return PatternResult(accepted=True, questions=m, correct=m)


def _law_impostor_session(alpha_map, m, n_entries, rng, **kwargs):
    """The plan, then an impostor's session on it."""
    plan = PatternPlan(alpha_map, m, n_entries, RecognitionRule(5, 5), **kwargs)
    return run_pattern_test(FixedP(0.5), plan, rng)


class _Steered:
    """A generator under which an impostor answers every question right and
    her glyphs come from a stream of their own, so a session by the law and
    one by the loop ask the same glyphs, question for question.  Either
    session's scalar ``integers`` calls alternate glyph and answer; a right
    answer is 0 for the law, and for the loop the place of entry 0 in the
    menu order, the last permutation drawn.  Given ``answers``, it answers
    those menu positions in turn instead.  ``glyphs`` counts the glyph
    draws."""

    def __init__(self, seed, answers=None):
        self._rng = make_rng(seed)
        self._glyph_rng = make_rng(seed + 10_000)
        self._answers = answers
        self._order = None
        self._answering = False
        self.glyphs = 0

    def integers(self, high, *args, **kwargs):
        if np.ndim(high):  # a spot in each of several cells
            return self._rng.integers(high, *args, **kwargs)
        self._answering = not self._answering
        if self._answering:
            self.glyphs += 1
            return self._glyph_rng.integers(high)
        if self._answers is not None:
            answer = self._answers.pop(0)
            assert 0 <= answer < high
            return answer
        return 0 if self._order is None else int(np.flatnonzero(self._order == 0)[0])

    def permutation(self, n):
        self._order = self._rng.permutation(n)
        return self._order

    def choice(self, *args, **kwargs):
        return self._rng.choice(*args, **kwargs)


def _outcome(session, *args, **kwargs):
    """A session's result or its refusal's type and message."""
    try:
        return session(*args, **kwargs)
    except Error as exc:
        return type(exc), str(exc)


def _holed_map():
    """The default map with no high-transmission spot in the block of glyph
    cell (2, 1): the 14 glyphs using it cannot be placed, the other 31 can."""
    alpha = generate_synthetic(100, 100, 0.02, 0.18, seed=7).alpha.reshape(100, 100).copy()
    block = alpha[14:28, 40:60]
    block[block >= 0.16] = 0.1
    return AlphaMap(100, 100, alpha, 0.02, 0.18)


_PARITY_MAPS = {
    "100x100": lambda: generate_synthetic(100, 100, 0.02, 0.18, seed=7),
    "103x97": lambda: generate_synthetic(103, 97, 0.02, 0.18, seed=11),
    "holed": _holed_map,
    "below-grid": lambda: generate_synthetic(4, 4, 0.02, 0.18, seed=1),
}


def _question_refusal(alpha_map, glyph, n_noise, n_entries):
    """The error class with which a question hiding ``glyph`` refuses, as
    the loop asks it (its challenge, then its menu), or None.  The deal
    fixes which blocks the noise lights, so no draw decides it."""
    rng = make_rng(4470)
    try:
        challenge = build_challenge(alpha_map, glyph_library(), glyph, n_noise, rng)
        candidate_menu(challenge, glyph_library(), n_entries, rng)
    except Error as exc:
        return type(exc)
    return None


class TestImpostorLaw:
    """``run_pattern_test`` draws an impostor's session from its law: two
    ``integers`` calls a question, right iff the menu position is 0.  The
    checks below compare it with that law exactly, by enumeration, and with
    the question loop it replaced, by G-test."""

    @staticmethod
    def _law_pmf(n_entries, m):
        """P(C = c) for c = 0..m: truncated geometric, exact."""
        right = Fraction(1, n_entries)
        return [right**c * (1 - right) for c in range(m)] + [right**m]

    @pytest.mark.parametrize("n_entries,m", [(2, 6), (3, 4), (4, 3)])
    def test_enumerated_law_is_the_truncated_geometric(self, default_map, n_entries, m):
        # every sequence of menu positions, each of probability (1/M)**m;
        # the session reads only up to its first wrong answer
        counts = [0] * (m + 1)
        for positions in np.ndindex(*(n_entries,) * m):
            rng = _Steered(4460, answers=list(positions))
            result = _law_impostor_session(default_map, m, n_entries, rng)
            assert result.rounds == rng.glyphs
            assert result.accepted == (result.correct == m)
            counts[result.correct] += 1
        pmf = [Fraction(count, n_entries**m) for count in counts]
        assert pmf == self._law_pmf(n_entries, m)
        assert pmf[m] == false_positive_rate(n_entries, m)
        assert sum(self._law_pmf(n_entries, m)) == 1

    def test_correct_count_g_test_against_the_law(self, default_map):
        rng = make_rng(4461)
        n_entries, m, sessions = 4, 6, 6000
        plan = PatternPlan(default_map, m, n_entries, RecognitionRule(5, 5))
        correct = [run_pattern_test(FixedP(0.5), plan, rng).correct
                   for _ in range(sessions)]
        assert g_test_pvalue(correct, self._law_pmf(n_entries, m)) > 1e-6

    def test_correct_count_g_test_against_the_loop(self, default_map):
        n_entries, m, sessions = 4, 6, 2000
        law_rng, loop_rng = make_rng(4462), make_rng(4463)
        plan = PatternPlan(default_map, m, n_entries, RecognitionRule(5, 5))
        law = [run_pattern_test(FixedP(0.5), plan, law_rng).correct
               for _ in range(sessions)]
        loop = [_loop_impostor_session(default_map, m, n_entries, loop_rng).correct
                for _ in range(sessions)]
        assert two_sample_g_pvalue(law, loop, m + 1) > 1e-6

    def test_accept_count_binomial_tail(self, default_map):
        # M = 2, m = 6: P(accept) = 1/64
        rng = make_rng(4464)
        sessions = 20_000
        plan = PatternPlan(default_map, 6, 2, RecognitionRule(5, 5))
        accepted = sum(run_pattern_test(FixedP(0.5), plan, rng).accepted
                       for _ in range(sessions))
        p_accept = false_positive_rate(2, 6)
        assert p_accept == Fraction(1, 64)
        assert stats.binomtest(accepted, sessions, float(p_accept)).pvalue > 1e-6

    @pytest.mark.parametrize("glyph", sorted(glyph_library()))
    def test_menu_capacity_is_what_candidate_menu_finds(self, glyph):
        # the glyph's challenge fills a menu of its capacity, and refuses
        # one entry more, naming the capacity
        alpha_map = _PARITY_MAPS["100x100"]()
        lib = glyph_library()
        index = strategy_pattern._class_index(alpha_map, 0.04, 0.16)
        for n_noise in (0, 12, 35, 75):
            capacity = int(strategy_pattern._menu_capacity(index, n_noise)[lib.rows[glyph]])
            rng = make_rng(4465)
            challenge = build_challenge(alpha_map, lib, glyph, n_noise, rng)
            if capacity >= 2:
                assert len(candidate_menu(challenge, lib, capacity, rng).glyph_ids) == capacity
            with pytest.raises(MenuError, match=f"^only {capacity} glyphs embeddable"):
                candidate_menu(challenge, lib, capacity + 1, rng)

    @pytest.mark.parametrize("kwargs,n_entries", [
        (dict(n_noise=1197), 18),                      # more noise than low spots
        (dict(n_noise=-1), 18),
        (dict(i_tilde=-1.0), 18),
        (dict(i_tilde=math.nan), 18),
        (dict(low_max=0.2), 18),                       # edges out of order
        (dict(low_max=math.inf), 18),
        ({}, 1),
        (dict(n_noise=1197, i_tilde=-1.0), 1),         # the first check wins
        (dict(i_tilde=-1.0), 1),
        (dict(n_noise=0, i_tilde=-1.0), 46),
    ], ids=["noise-supply", "noise-count", "intensity", "intensity-nan", "edges",
            "edge-inf", "menu-size", "noise-before-intensity", "intensity-before-menu",
            "intensity-before-capacity"])
    @pytest.mark.parametrize("name", ["100x100", "103x97"])
    def test_first_question_refusals_match_the_loop(self, kwargs, n_entries, name):
        # every glyph places on these maps, so the loop's first question
        # meets these refusals whatever glyph it draws: the plan makes each
        # one, with its type and message, before any draw
        alpha_map = _PARITY_MAPS[name]()
        for seed in range(4480, 4484):
            law_rng = _Steered(seed)
            law = _outcome(_law_impostor_session, alpha_map, 6, n_entries, law_rng,
                           **kwargs)
            loop = _outcome(_loop_impostor_session, alpha_map, 6, n_entries,
                            _Steered(seed), **kwargs)
            assert law == loop
            assert isinstance(law, tuple)
            assert law_rng.glyphs == 0


class TestPlanRefusals:
    """A :class:`PatternPlan` makes, once, every refusal a question on its
    map could meet; a session on an accepted plan refuses nothing."""

    @pytest.mark.parametrize("name", list(_PARITY_MAPS))
    @pytest.mark.parametrize("n_noise", [0, 12, 35, 75])
    @pytest.mark.parametrize("n_entries", [2, 18, 40, 46])
    def test_plan_refuses_where_a_question_would(self, name, n_noise, n_entries):
        # the oracle asks one question per library glyph; a question places
        # its glyph and noise before it fills its menu, and so does the plan
        alpha_map = _PARITY_MAPS[name]()
        refusals = {_question_refusal(alpha_map, glyph, n_noise, n_entries)
                    for glyph in glyph_library()} - {None}
        assert refusals <= {PlacementError, MenuError}
        plan = _outcome(PatternPlan, alpha_map, 6, n_entries, RecognitionRule(5, 5),
                        n_noise=n_noise)
        if not refusals:
            assert isinstance(plan, PatternPlan)
        else:
            expected = PlacementError if PlacementError in refusals else MenuError
            assert isinstance(plan, tuple) and plan[0] is expected

    def test_sessions_on_an_accepted_plan_never_raise(self):
        accepted = 0
        for name, make_map in _PARITY_MAPS.items():
            alpha_map = make_map()
            for n_noise in (0, 12, 35, 75):
                for n_entries in (2, 18, 40, 46):
                    try:
                        plan = PatternPlan(alpha_map, 6, n_entries, RecognitionRule(5, 5),
                                           n_noise=n_noise)
                    except Error:
                        continue
                    accepted += 1
                    for seed in range(4490, 4510):
                        run_pattern_test(AliceSubject(k=6), plan, make_rng(seed))
                    for seed in range(4490, 4690):
                        run_pattern_test(FixedP(0.5), plan, make_rng(seed))
        # noise 35 or 75 and a menu of at most 40, on the 100x100 and 103x97 maps
        assert accepted == 12

    def test_map_below_the_glyph_grid_refused(self):
        tiny = _PARITY_MAPS["below-grid"]()
        with pytest.raises(PlacementError, match="smaller than the 5x7 glyph grid"):
            PatternPlan(tiny, 6, 18, RecognitionRule(5, 5))


# ---------------------------------------------------------------------------
# pinned question records
# ---------------------------------------------------------------------------


def _question_log_digest(alpha_map, n_entries, seed, questions=300):
    """SHA-256 over ``questions`` honest pattern questions, each recorded as
    hidden glyph, the challenge's spots (pattern first), the menu (ids and
    sorted spots, in menu order), the sorted perceived spots and the chosen
    answer.  The question is asked the way ``run_pattern_test`` asks it, with
    the honest pick written as ``max`` over the shown entries, but every
    question is logged: a session would stop at the first wrong answer."""
    lib = glyph_library()
    pool = sorted(lib)
    rule = RecognitionRule(5, 5)
    rng = make_rng(seed)
    digest = hashlib.sha256()
    for _ in range(questions):
        gid = pool[int(rng.integers(len(pool)))]
        ch = build_challenge(alpha_map, lib, gid, 75, rng)
        menu = shown(ch, candidate_menu(ch, lib, n_entries, rng))
        perceived = simulate_perception(ch, alpha_map, 6, rng)
        seen = frozenset(ch.spots[perceived].tolist())
        if recognize(perceived, ch, rule):
            answer = max(menu, key=lambda entry: len(entry[1] & seen))
        else:
            answer = menu[int(rng.integers(len(menu)))]
        record = [
            ch.hidden_glyph,
            ch.spots.tolist(),
            [[gid, sorted(spots)] for gid, spots in menu],
            sorted(seen),
            answer[0],
        ]
        digest.update(json.dumps(record).encode())
    return digest.hexdigest()


# Digests of the question records above.  A mismatch means the generator
# consumption of challenge construction, menu assembly or perception changed,
# and with it every pattern record.
_PINNED_QUESTION_LOGS = {
    "default-menu40": (
        "cbc840a88495c0f29013527d66efbe33d83e8c86a782a28e21f65b42ceca41a2"
    ),
    "default-menu18": (
        "bd554882202de6aae4d351120a6da1b5787eff1cc52df128d98e4832c4c3e1d9"
    ),
    "103x97-menu40": (
        "9b4574073b3b0ff52d7f2d95c5f4d3d4c2eb8b84198ad25445b0c071b9651bc1"
    ),
}


class TestPinnedQuestionRecords:
    @pytest.mark.parametrize(
        "case,n_entries",
        [("default-menu40", 40), ("default-menu18", 18), ("103x97-menu40", 40)],
    )
    def test_question_records_match_pinned_digest(self, default_map, case, n_entries):
        # the 103x97 map leaves 3 columns and 6 rows outside the 20x13 blocks
        alpha_map = (
            generate_synthetic(103, 97, 0.02, 0.18, seed=11)
            if case.startswith("103x97")
            else default_map
        )
        assert _question_log_digest(alpha_map, n_entries, 4438) == (
            _PINNED_QUESTION_LOGS[case]
        )
