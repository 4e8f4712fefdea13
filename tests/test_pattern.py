"""Tests for the pattern-challenge identification strategy.

Covers glyph library integrity, challenge placement, menu soundness, the
honest-user perception model, the exact impostor law, the honest-failure
Chernoff bound with its intensity optimizer, and full session runs.
"""

import dataclasses
import hashlib
import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from conftest import make_rng
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from retinasim import (
    AliceSubject,
    AlphaMap,
    BoundInapplicableError,
    ConfigError,
    DomainError,
    EveSubject,
    FairCoin,
    InfeasibleError,
    MenuEntry,
    MenuError,
    PatternChallenge,
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
        assert len(ch.pattern_spots) == 25
        assert len(ch.noise_spots) == 75
        assert not (ch.pattern_spots & ch.noise_spots)
        assert ch.hidden_glyph == "2"
        assert ch.i_tilde == 72.0
        alpha = default_map.alpha
        assert all(alpha[s] >= 0.16 for s in ch.pattern_spots)
        assert all(alpha[s] <= 0.04 for s in ch.noise_spots)
        assert len(ch.illuminated_spots) == 100

    def test_pattern_traces_the_glyph_blocks(self, default_map):
        lib = glyph_library()
        ch = build_challenge(default_map, lib, "S", 40, make_rng(4407))
        grid = ch.block_grid
        assert blocks_of(ch.pattern_spots, grid) == set(lib["S"].pixels)
        # one spot per glyph cell
        assert len(ch.pattern_spots) == lib["S"].size

    def test_noise_is_spread_round_robin(self, default_map):
        # 75 noise spots over 35 blocks: every block gets 2 or 3
        ch = build_challenge(default_map, glyph_library(), "2", 75, make_rng(4408))
        per_block: dict = {}
        for s in ch.noise_spots:
            cell = cell_of(ch.block_grid, s)
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
        assert a.pattern_spots != b.pattern_spots

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
            PatternChallenge(frozenset({1, 2}), frozenset({2, 3}), 72.0, "2", grid)
        with pytest.raises(DomainError, match="at least one pattern spot"):
            PatternChallenge(frozenset(), frozenset({3}), 72.0, "2", grid)
        with pytest.raises(DomainError, match=">= 0"):
            PatternChallenge(frozenset({1}), frozenset({3}), -1.0, "2", grid)
        with pytest.raises(DomainError, match=">= 0"):
            PatternChallenge(frozenset({1}), frozenset({3}), math.inf, "2", grid)


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
        menu = candidate_menu(ch, lib, n_entries, rng)
        assert len(menu) == n_entries
        ids = [e.glyph_id for e in menu]
        assert len(set(ids)) == n_entries
        # exactly one entry is the hidden pattern, as id and as spot set
        assert sum(e.glyph_id == ch.hidden_glyph for e in menu) == 1
        assert sum(e.spots == ch.pattern_spots for e in menu) == 1
        grid = ch.block_grid
        for entry in menu:
            glyph = lib[entry.glyph_id]
            assert entry.spots <= ch.illuminated_spots
            assert len(entry.spots) == glyph.size
            # each entry is a genuine embedding: one spot in each glyph cell
            assert blocks_of(entry.spots, grid) == set(glyph.pixels)

    def test_published_menu_size_includes_hidden(self, default_map):
        lib = glyph_library()
        rng = make_rng(4418)
        ch = build_challenge(default_map, lib, "2", 75, rng)
        menu = candidate_menu(ch, lib, 18, rng)
        hidden = [e for e in menu if e.glyph_id == "2"]
        assert len(hidden) == 1
        assert hidden[0].spots == ch.pattern_spots

    def test_every_glyph_embeddable_with_dense_noise(self, default_map):
        # 75 round-robin noise spots put >= 2 spots in every block, so all
        # 45 glyphs embed and the menu can use the whole library
        lib = glyph_library()
        rng = make_rng(4419)
        ch = build_challenge(default_map, lib, "2", 75, rng)
        menu = candidate_menu(ch, lib, 45, rng)
        assert sorted(e.glyph_id for e in menu) == sorted(lib)

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
        grid = ch.block_grid
        holed = dataclasses.replace(ch, noise_spots=frozenset(
            s for s in ch.noise_spots if cell_of(grid, s) != cell
        ))
        offered = sorted(gid for gid in lib if cell not in lib[gid].pixels)
        assert "2" in offered and len(offered) < len(lib)
        menu = candidate_menu(holed, lib, len(offered), rng)
        assert sorted(entry.glyph_id for entry in menu) == offered
        with pytest.raises(MenuError, match=rf"only {len(offered)} glyphs embeddable"):
            candidate_menu(holed, lib, len(offered) + 1, rng)

    def test_block_with_one_illuminated_spot(self, default_map):
        lib = glyph_library()
        rng = make_rng(4441)
        ch = build_challenge(default_map, lib, "2", 75, rng)
        cell = (0, 3)
        grid = ch.block_grid
        in_cell = sorted(s for s in ch.noise_spots if cell_of(grid, s) == cell)
        assert len(in_cell) >= 2
        single = dataclasses.replace(ch, noise_spots=ch.noise_spots - set(in_cell[1:]))
        menu = candidate_menu(single, lib, 45, rng)
        for entry in menu:
            if cell in lib[entry.glyph_id].pixels:
                assert in_cell[0] in entry.spots
        twin = make_rng(4441)
        build_challenge(default_map, lib, "2", 75, twin)
        assert menu == _loop_menu(single, lib, 45, twin)

    @pytest.mark.parametrize("n_noise", [0, 12, 35, 50, 75])
    @pytest.mark.parametrize("wide", [False, True], ids=["100x100", "103x97"])
    def test_matches_per_spot_loop(self, default_map, n_noise, wide):
        # sparse noise leaves blocks empty or with a single spot
        lib = glyph_library()
        alpha_map = default_map
        if wide:
            alpha_map = generate_synthetic(103, 97, 0.02, 0.18, seed=11)
        for seed in range(4442, 4452):
            rng = make_rng(seed)
            ch = build_challenge(alpha_map, lib, sorted(lib)[seed % 45], n_noise, rng)
            loop_rng = make_rng(seed)
            build_challenge(alpha_map, lib, ch.hidden_glyph, n_noise, loop_rng)
            for n_entries in (2, 18, 40):
                try:
                    expected = _loop_menu(ch, lib, n_entries, loop_rng)
                except MenuError as exc:
                    with pytest.raises(MenuError, match=re.escape(str(exc))):
                        candidate_menu(ch, lib, n_entries, rng)
                    continue
                assert candidate_menu(ch, lib, n_entries, rng) == expected
            assert rng.integers(2**62) == loop_rng.integers(2**62)

    def test_single_entry_menu_rejected(self, default_map):
        lib = glyph_library()
        rng = make_rng(4421)
        ch = build_challenge(default_map, lib, "2", 75, rng)
        with pytest.raises(DomainError, match="at least 2"):
            candidate_menu(ch, lib, 1, rng)

    def test_hidden_glyph_missing_from_library(self, default_map):
        lib = glyph_library()
        rng = make_rng(4422)
        ch = build_challenge(default_map, lib, "2", 75, rng)
        orphan = dataclasses.replace(ch, hidden_glyph="zz")
        with pytest.raises(DomainError, match="not in the library"):
            candidate_menu(orphan, lib, 5, rng)


def _loop_menu(challenge, library, n_entries, rng):
    """``candidate_menu`` as a loop over spots, one generator call per glyph
    cell: the reference the array version must match draw for draw."""
    by_block: dict = {}
    for spot in sorted(challenge.illuminated_spots):
        cell = cell_of(challenge.block_grid, spot)
        if cell is not None:
            by_block.setdefault(cell, []).append(spot)
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
    entries = [MenuEntry(challenge.hidden_glyph, challenge.pattern_spots)]
    for idx in picked:
        glyph = library[candidates[int(idx)]]
        spots = frozenset(
            by_block[cell][rng.integers(len(by_block[cell]))]
            for cell in sorted(glyph.pixels)
        )
        entries.append(MenuEntry(glyph.glyph_id, spots))
    order = rng.permutation(len(entries))
    return [entries[int(i)] for i in order]


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
        pattern = sorted(ch.pattern_spots, key=lambda s: alpha[s])
        noise = sorted(ch.noise_spots, key=lambda s: alpha[s])
        probes = [pattern[0], pattern[-1], pattern[12], noise[0], noise[-1], noise[37]]
        hits = {s: 0 for s in probes}
        for _ in range(reps):
            perceived = simulate_perception(ch, default_map, 6, rng)
            for s in probes:
                hits[s] += s in perceived
        for s in probes:
            p = prob_see(float(alpha[s]), ch.i_tilde, 6)
            sigma = math.sqrt(p * (1.0 - p) / reps)
            assert abs(hits[s] / reps - p) <= 3.0 * sigma + 1e-12

    def test_zero_intensity_perceives_nothing(self, default_map):
        lib = glyph_library()
        rng = make_rng(4424)
        ch = build_challenge(default_map, lib, "2", 75, rng, i_tilde=0.0)
        assert simulate_perception(ch, default_map, 6, rng) == frozenset()

    def test_high_transmission_spot_nearly_always_seen(self):
        # at the default operating point a 0.18-transmission spot sees a
        # mean of 12.96 photons, far above the 6-photon threshold
        p = prob_see(0.18, 72.0, 6)
        assert p == pytest.approx(gk(6, 12.96), rel=1e-12)
        assert p > 0.97

    def test_challenge_spots_must_lie_on_map(self, default_map):
        grid = BlockGrid.for_map(default_map)
        stray = PatternChallenge(
            frozenset({0, default_map.n_spots}), frozenset(), 72.0, "2", grid
        )
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
        counts_pattern = rng.poisson(ch.i_tilde, size=reps * len(ch.pattern_spots))
        counts_noise = rng.poisson(ch.i_tilde, size=reps * len(ch.noise_spots))
        result = stats.ks_2samp(counts_pattern, counts_noise)
        assert result.pvalue > 0.01


# ---------------------------------------------------------------------------
# recognition rule
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def challenge(default_map):
    return build_challenge(default_map, glyph_library(), "2", 75, make_rng(4427))


class TestRecognize:
    def test_exact_percept_recognized_at_tightest_rule(self, challenge):
        assert recognize(challenge.pattern_spots, challenge, RecognitionRule(1, 1))

    def test_five_missed_of_25_fails_at_k5(self, challenge):
        pattern = sorted(challenge.pattern_spots)
        perceived = frozenset(pattern[5:])
        assert not recognize(perceived, challenge, RecognitionRule(5, 5))
        assert recognize(perceived, challenge, RecognitionRule(6, 5))

    def test_four_missed_four_noise_passes_at_k5_l5(self, challenge):
        pattern = sorted(challenge.pattern_spots)
        noise = sorted(challenge.noise_spots)
        perceived = frozenset(pattern[4:]) | frozenset(noise[:4])
        assert recognize(perceived, challenge, RecognitionRule(5, 5))
        assert not recognize(perceived, challenge, RecognitionRule(5, 4))
        assert not recognize(perceived, challenge, RecognitionRule(4, 5))

    def test_noise_outside_challenge_is_ignored(self, challenge):
        # spots that were never illuminated cannot count as perceived noise
        perceived = challenge.pattern_spots | frozenset({10_001, 10_002})
        assert recognize(perceived, challenge, RecognitionRule(1, 1))

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
        with pytest.warns(RuntimeWarning, match="vacuous"):
            bound = alice_failure_bound(25, 75, 5, 5, 0.2, 0.015, 6)
        assert bound == 1.0

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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
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
        values = []
        for j in range(801):
            i_tilde = 40.0 + 0.1 * j
            p_h = 1.0 - prob_see(0.18, i_tilde, 6)
            p_l = prob_see(0.02, i_tilde, 6)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    values.append(alice_failure_bound(25, 75, 5, 5, p_h, p_l, 6))
            except (BoundInapplicableError, RuntimeWarning):
                continue
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

    def test_step_controls_the_grid(self):
        i_star, _ = optimize_intensity(25, 75, 5, 5, 0.02, 0.18, 6, 6, step=0.05)
        offset = (i_star - 40.0) / 0.05
        assert offset == pytest.approx(round(offset), abs=1e-9)
        assert abs(i_star - 72.3) <= 0.1

    def test_infeasible_range_rejected(self):
        with pytest.raises(InfeasibleError, match="invalid or vacuous"):
            optimize_intensity(25, 75, 5, 5, 0.02, 0.18, 6, 6, i_range=(0.5, 1.5))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(i_range=(120.0, 40.0)),
            dict(i_range=(-1.0, 40.0)),
            dict(step=0.0),
            dict(step=-0.1),
        ],
    )
    def test_domain_errors(self, kwargs):
        with pytest.raises(DomainError):
            optimize_intensity(25, 75, 5, 5, 0.02, 0.18, 6, 6, **kwargs)


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
        eve = EveSubject(FairCoin())
        rule = RecognitionRule(5, 5)
        trials = 3000
        passes = 0
        first_correct = 0
        for _ in range(trials):
            result = run_pattern_test(eve, default_map, 8, 18, rule, rng)
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
        rule = RecognitionRule(5, 5)
        runs = {}
        for label, strategy in [("coin", FairCoin()), ("uniform", UniformP())]:
            rng = make_rng(4429)
            runs[label] = [
                run_pattern_test(EveSubject(strategy), default_map, 4, 12, rule, rng)
                for _ in range(60)
            ]
        assert runs["coin"] == runs["uniform"]

    def test_honest_user_failure_within_bound(self, default_map):
        # classes tightened to 0.03 / 0.17 so the Chernoff bound is sharp
        # at the published intensity
        rng = make_rng(4430)
        alice = AliceSubject(k=6)
        rule = RecognitionRule(5, 5)
        m, trials = 6, 400
        p_h = 1.0 - prob_see(0.17, 72.0, 6)
        p_l = prob_see(0.03, 72.0, 6)
        bound = alice_failure_bound(25, 75, 5, 5, p_h, p_l, m)
        fails = 0
        for _ in range(trials):
            result = run_pattern_test(
                alice, default_map, m, 18, rule, rng,
                low_max=0.03, high_min=0.17, glyph_ids=["2"],
            )
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
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    bound = alice_failure_bound(25, 75, k_rule, l_rule, p_h, p_l, 1)
            except (BoundInapplicableError, RuntimeWarning):
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

        percept = frozenset({1, 2, 3})
        hidden = MenuEntry("2", frozenset({1, 2, 10}))
        decoy = MenuEntry("7", frozenset({2, 3, 11}))
        menu = [hidden, decoy] if hidden_first else [decoy, hidden]
        monkeypatch.setattr(sp, "candidate_menu", lambda *args: menu)
        monkeypatch.setattr(sp, "simulate_perception", lambda *args: percept)
        monkeypatch.setattr(sp, "recognize", lambda *args: True)
        result = run_pattern_test(
            AliceSubject(k=6), default_map, 1, 2, RecognitionRule(5, 5),
            make_rng(4452), glyph_ids=["2"],
        )
        assert result.accepted is hidden_first
        assert max(menu, key=lambda entry: len(entry.spots & percept)) is menu[0]

    def test_session_determinism(self, default_map):
        alice = AliceSubject(k=6)
        rule = RecognitionRule(5, 5)
        a = run_pattern_test(alice, default_map, 5, 18, rule, make_rng(4432))
        b = run_pattern_test(alice, default_map, 5, 18, rule, make_rng(4432))
        assert a == b

    def test_zero_questions_rejected(self, default_map):
        with pytest.raises(ConfigError, match="at least one question"):
            run_pattern_test(
                EveSubject(FairCoin()), default_map, 0, 18,
                RecognitionRule(5, 5), make_rng(4433),
            )

    def test_empty_glyph_pool_rejected(self, default_map):
        with pytest.raises(ConfigError, match="empty glyph pool"):
            run_pattern_test(
                EveSubject(FairCoin()), default_map, 4, 18,
                RecognitionRule(5, 5), make_rng(4434), glyph_ids=[],
            )

    def test_unknown_pool_ids_rejected(self, default_map):
        with pytest.raises(ConfigError, match="not in the library"):
            run_pattern_test(
                EveSubject(FairCoin()), default_map, 4, 18,
                RecognitionRule(5, 5), make_rng(4435), glyph_ids=["2", "no-such"],
            )

    def test_unknown_subject_rejected(self, default_map):
        with pytest.raises(DomainError, match="unknown subject"):
            run_pattern_test(
                object(), default_map, 4, 18, RecognitionRule(5, 5), make_rng(4436)
            )

    def test_menu_size_error_propagates(self, default_map):
        with pytest.raises(DomainError, match="at least 2"):
            run_pattern_test(
                EveSubject(FairCoin()), default_map, 4, 1,
                RecognitionRule(5, 5), make_rng(4437),
            )


# ---------------------------------------------------------------------------
# pinned question records
# ---------------------------------------------------------------------------


def _question_log_digest(alpha_map, n_entries, seed, questions=300):
    """SHA-256 over ``questions`` honest pattern questions, each recorded as
    hidden glyph, sorted pattern and noise spots, the menu (ids and sorted
    spots, in menu order), the percept and the chosen answer.  The question
    is asked the way ``run_pattern_test`` asks it, but every question is
    logged: a session would stop at the first wrong answer."""
    lib = glyph_library()
    pool = sorted(lib)
    rule = RecognitionRule(5, 5)
    rng = make_rng(seed)
    digest = hashlib.sha256()
    for _ in range(questions):
        gid = pool[int(rng.integers(len(pool)))]
        ch = build_challenge(alpha_map, lib, gid, 75, rng)
        menu = candidate_menu(ch, lib, n_entries, rng)
        perceived = simulate_perception(ch, alpha_map, 6, rng)
        if recognize(perceived, ch, rule):
            answer = max(menu, key=lambda entry: len(entry.spots & perceived))
        else:
            answer = menu[int(rng.integers(len(menu)))]
        record = [
            ch.hidden_glyph,
            sorted(ch.pattern_spots),
            sorted(ch.noise_spots),
            [[entry.glyph_id, sorted(entry.spots)] for entry in menu],
            sorted(perceived),
            answer.glyph_id,
        ]
        digest.update(json.dumps(record).encode())
    return digest.hexdigest()


# Digests of the question records above.  A mismatch means the generator
# consumption of challenge construction, menu assembly or perception changed,
# and with it every pattern record.
_PINNED_QUESTION_LOGS = {
    "default-menu40": (
        "95265dc10f0308d17fbaae8622effa3002407ee9672b1f0536d86bd972d4fbd4"
    ),
    "default-menu18": (
        "279261b6dee2d0a50385cf29424dbe0d1187af3bcf13fe6daa737b355fe4cdee"
    ),
    "103x97-menu40": (
        "c5edc8e8b2fc29a93c4c0261293712f7d71148d9e74f9ec1c4f0f664b64063c1"
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
