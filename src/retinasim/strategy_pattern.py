"""Pattern-challenge identification: glyphs hidden in transmission classes.

One challenge illuminates ~100 retinal spots at a common pulse intensity.  A
small subset with high transmission traces out a glyph (a symbol from the
packaged 5x7 bitmap library); the rest are low-transmission "noise" spots.
The enrolled user perceives mostly the glyph — high-transmission spots fire,
noise spots stay dark — and picks it from a menu of candidate symbols.  An
impostor's detector registers every illuminated spot identically, so all she
faces is a menu of equally plausible symbols: her per-question success is
exactly 1/M, giving an exact false-positive rate of (1/M)**m over m
questions.

A run settles on its map once: a :class:`PatternPlan` makes every refusal a
question could meet (its arguments, the glyphs' placement, the noise supply
and the menu each glyph's challenge can fill) when it is made, and
``run_pattern_test`` only draws.  An impostor's session is drawn from her
law: one uniform picks her count of right answers from its exact
truncated-geometric table, and no glyph, challenge or menu is drawn.

Every draw reads ``rng.random()`` alone: bounded integers by Lemire's
multiply-shift (:func:`_below`), orders as the argsort of uniforms
(:func:`_shuffled`), and a percept as uniforms below each spot's seeing
probability, so no record depends on NumPy's other samplers.

Geometry: the map is partitioned into a 5x7 grid of rectangular cell blocks,
one block per glyph cell.  A glyph is *embedded* by lighting one spot inside
the block of each of its cells; noise spots are spread round-robin over all
blocks, which is what lets many different glyphs be embedded in the combined
illuminated set (and therefore what makes the menu honest: every offered
symbol really is present in what the impostor's detector saw).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from types import MappingProxyType

import numpy as np

from .alpha_map import AlphaMap
from .errors import (
    BoundInapplicableError,
    ConfigError,
    DomainError,
    InfeasibleError,
    MenuError,
    PlacementError,
    _count,
    _real,
)
from .photon_stats import _gk_array, _relative_entropy, gk
from .subjects import SubjectModel, honest_threshold

__all__ = [
    "Glyph",
    "GlyphLibrary",
    "BlockGrid",
    "PatternChallenge",
    "RecognitionRule",
    "Menu",
    "PatternResult",
    "glyph_library",
    "build_challenge",
    "candidate_menu",
    "simulate_perception",
    "recognize",
    "false_positive_rate",
    "alice_failure_bound",
    "optimize_intensity",
    "PatternPlan",
    "run_pattern_test",
    "DEFAULT_CHALLENGE_INTENSITY",
    "DEFAULT_LOW_MAX",
    "DEFAULT_HIGH_MIN",
]

GLYPH_GRID = (5, 7)
_N_CELLS = GLYPH_GRID[0] * GLYPH_GRID[1]
#: Each glyph-cell key's (see ``GlyphLibrary``) place in row-major block
#: order, the order noise is dealt in within a round.
_DEAL_BLOCK = np.arange(_N_CELLS) % GLYPH_GRID[1] * GLYPH_GRID[0] + np.arange(
    _N_CELLS) // GLYPH_GRID[1]

#: Default operating point for challenge construction.
DEFAULT_CHALLENGE_INTENSITY = 72.0
DEFAULT_LOW_MAX = 0.04
DEFAULT_HIGH_MIN = 0.16
DEFAULT_NOISE_SPOTS = 75
#: Pulse intensities ``optimize_intensity`` scans, and its grid step.
INTENSITY_SCAN = (40.0, 120.0)
INTENSITY_STEP = 0.1
#: A bounded draw reads the top 32 bits of a uniform's 53 (see ``_below``).
_WORD = 2**32


def _below(bounds, rng: np.random.Generator):
    """Uniform integers below ``bounds``, each bound at least 1: an int for
    an int bound, or an ``int64`` array for a ``uint64`` array of them, one
    ``rng.random()`` uniform a draw.  Lemire's multiply-shift ("Fast random
    integer generation in an interval", ACM TOMACS 29(1), 2019): the top 32
    bits ``x`` of a uniform's 53 give ``(x * s) >> 32`` below bound ``s``,
    and a draw whose low word ``x * s mod 2**32`` falls in the slice below
    ``2**32 mod s`` is made again, which leaves each value below ``s``
    exactly ``2**32 // s`` of the ``x`` that are kept.  ``x * s`` stays
    below 2**64 for every bound up to 2**32, more spots than a map of
    32 GiB of transmissions holds, so no product overflows; a slice holds
    under ``s / 2**32`` of the ``x``.  An array's rejected draws are made
    again together, in their order, from one further ``random`` call."""
    if isinstance(bounds, int):
        while True:
            product = int(rng.random() * _WORD) * bounds
            if product % _WORD >= _WORD % bounds:
                return product >> 32
    product = (rng.random(bounds.size) * _WORD).astype(np.uint64) * bounds
    low = product & (_WORD - 1)
    draws = (product >> 32).view(np.int64)
    again = low < bounds  # the rejected slice lies below each bound
    if np.count_nonzero(again):
        again[again] = low[again] < _WORD % bounds[again]
        if np.count_nonzero(again):
            draws[again] = _below(bounds[again], rng)
    return draws


def _shuffled(n: int, rng: np.random.Generator) -> np.ndarray:
    """A uniform permutation of ``range(n)``: the order that sorts ``n``
    uniforms from one ``rng.random(n)`` call, all drawn again while two of
    them are equal, so every order is equally likely."""
    while True:
        uniforms = rng.random(n)
        order = uniforms.argsort()
        ranked = uniforms[order]
        if not np.count_nonzero(ranked[1:] == ranked[:-1]):
            return order


@dataclass(frozen=True)
class Glyph:
    """A symbol: its id and the set of (x, y) cells it occupies on the
    5x7 glyph grid."""

    glyph_id: str
    pixels: frozenset[tuple[int, int]]

    @property
    def size(self) -> int:
        return len(self.pixels)


class GlyphLibrary(Mapping[str, Glyph]):
    """A read-only library of glyphs by id, and the index a question reads
    off it: ``ids``, the glyph ids in sorted order (the order the library
    iterates in); ``rows``, the row of each id; ``incidence``, the read-only
    glyph x cell matrix, true where a glyph occupies a cell; and ``cells``,
    each row's flat cell keys ``cx * rows + cy`` as a read-only array,
    ascending, which is the glyph's cells in sorted ``(cx, cy)`` order.  The
    index is built once, with the library."""

    def __init__(self, glyphs: Iterable[Glyph]):
        self._glyphs = {glyph.glyph_id: glyph for glyph in glyphs}
        self.ids = tuple(sorted(self._glyphs))
        self.rows = MappingProxyType({gid: row for row, gid in enumerate(self.ids)})
        self.incidence = np.zeros((len(self.ids), _N_CELLS), dtype=bool)
        for gid, row in self.rows.items():
            for cx, cy in self._glyphs[gid].pixels:
                self.incidence[row, cx * GLYPH_GRID[1] + cy] = True
        self.incidence.setflags(write=False)
        self._incidence_bytes = self.incidence.tobytes()
        self.cells = tuple(map(np.flatnonzero, self.incidence))
        for keys in self.cells:
            keys.setflags(write=False)

    def __getitem__(self, glyph_id: str) -> Glyph:
        return self._glyphs[glyph_id]

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


def _require_library(library: object) -> None:
    if not isinstance(library, GlyphLibrary):
        raise DomainError(
            f"library must be a GlyphLibrary, got {type(library).__name__}")


@lru_cache(maxsize=1, typed=True)
def glyph_library() -> GlyphLibrary:
    """Load and validate the packaged glyph library (built once)."""
    with resources.files("retinasim.data").joinpath("glyphs_5x7.json").open() as fh:
        doc = json.load(fh)
    grid = tuple(doc["grid"])
    if grid != GLYPH_GRID:
        raise ConfigError(f"glyph library grid {grid} != expected {GLYPH_GRID}")
    lo, hi = doc["size_range"]
    glyphs: list[Glyph] = []
    seen: dict[frozenset, str] = {}
    for gid, pts in doc["glyphs"].items():
        pixels = frozenset((int(x), int(y)) for x, y in pts)
        if not all(0 <= x < grid[0] and 0 <= y < grid[1] for x, y in pixels):
            raise ConfigError(f"glyph {gid!r} has pixels outside the grid")
        if not (lo <= len(pixels) <= hi):
            raise ConfigError(
                f"glyph {gid!r} has {len(pixels)} pixels, outside [{lo}, {hi}]"
            )
        if pixels in seen:
            raise ConfigError(f"glyphs {gid!r} and {seen[pixels]!r} are identical")
        seen[pixels] = gid
        glyphs.append(Glyph(glyph_id=gid, pixels=pixels))
    return GlyphLibrary(glyphs)


@dataclass(frozen=True)
class BlockGrid:
    """Partition of a map into one rectangular block per glyph cell."""

    map_width: int
    cell_w: int
    cell_h: int

    @classmethod
    def for_map(cls, alpha_map: AlphaMap) -> "BlockGrid":
        cols, rows = GLYPH_GRID
        cell_w = alpha_map.width // cols
        cell_h = alpha_map.height // rows
        if cell_w < 1 or cell_h < 1:
            raise PlacementError(
                f"map {alpha_map.width}x{alpha_map.height} is smaller than the "
                f"{cols}x{rows} glyph grid", "grid"
            )
        return cls(alpha_map.width, cell_w, cell_h)

    def cell_keys(self, spots: np.ndarray) -> np.ndarray:
        """Flat glyph-cell key of each spot (see ``GlyphLibrary``), or -1
        for spots outside the used region."""
        cols, rows = GLYPH_GRID
        cx = spots % self.map_width // self.cell_w
        cy = spots // self.map_width // self.cell_h
        return np.where((spots >= 0) & (cx < cols) & (cy < rows), cx * rows + cy, -1)


class _CellGroups:
    """Items grouped by glyph cell: cell ``c`` holds
    ``items[starts[c]:starts[c] + counts[c]]``, in the order given.
    ``counts`` is ``uint64``, the bounds :func:`_below` takes."""

    def __init__(self, items: np.ndarray, keys: np.ndarray):
        inside = keys >= 0
        keys = keys[inside]
        self.items = items[inside][np.argsort(keys, kind="stable")]
        counts = np.bincount(keys, minlength=_N_CELLS)
        self.starts = np.cumsum(counts) - counts
        self.counts = counts.astype(np.uint64)

    def draw(self, cells: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One item uniformly from each of the (non-empty) ``cells``, in
        order: one :func:`_below` call over the cells' counts, so one
        ``rng.random(cells.size)`` (and a further call for any draw it
        rejects)."""
        return self.items[self.starts[cells] + _below(self.counts[cells], rng)]


class _ClassBlockIndex:
    """The map's high-transmission spots grouped by glyph cell, and its
    low-transmission spots inside the block grid in one array, ``low``,
    grouped by block in deal order, with each one's glyph-cell key
    (``low_keys``).  Noise is dealt round by round (a block's first spot,
    then its second, ...), blocks in deal order within a round; the deal
    is a partial Fisher-Yates shuffle of each block.  Deal step ``i`` puts
    the block's spot at position ``deal[i]`` of ``low`` in play: it swaps
    that position with one of the block's ``choices[i]`` (``uint64``)
    positions from it on, those not yet dealt, and deals what lands there.
    ``rounds`` lists the steps at which each round ends."""

    def __init__(
        self, alpha_map: AlphaMap, grid: BlockGrid, low_max: float, high_min: float
    ):
        if low_max >= high_min:
            raise DomainError(
                f"class thresholds must satisfy low_max < high_min, got "
                f"({low_max!r}, {high_min!r})"
            )
        high = np.flatnonzero(alpha_map.alpha >= high_min)
        self.high = _CellGroups(high, grid.cell_keys(high))
        low = np.flatnonzero(alpha_map.alpha <= low_max)
        keys = grid.cell_keys(low)
        low, keys = low[keys >= 0], keys[keys >= 0]
        by_block = np.argsort(_DEAL_BLOCK[keys], kind="stable")
        self.low = low[by_block]
        self.low_keys = keys[by_block]
        block = _DEAL_BLOCK[self.low_keys]
        counts = np.bincount(block, minlength=_N_CELLS)
        rank = np.arange(self.low.size) - (np.cumsum(counts) - counts)[block]
        self.deal = np.lexsort((block, rank))
        self.choices = (counts[block] - rank)[self.deal].astype(np.uint64)
        self.rounds = np.cumsum(np.bincount(rank)).tolist()


def _class_index(alpha_map: AlphaMap, low_max, high_min) -> _ClassBlockIndex:
    """The map's class index, its edges checked before they key the cache."""
    return _cached_class_index(alpha_map, _real("low_max", low_max, "(-inf, inf)"),
                               _real("high_min", high_min, "(-inf, inf)"))


@lru_cache(maxsize=4, typed=True)
def _cached_class_index(
    alpha_map: AlphaMap, low_max: float, high_min: float
) -> _ClassBlockIndex:
    """The map's class index, built once per map object: ``AlphaMap`` is
    immutable and hashes by identity, so an entry cannot go stale."""
    return _ClassBlockIndex(alpha_map, BlockGrid.for_map(alpha_map), low_max, high_min)


@dataclass(frozen=True, eq=False)
class PatternChallenge:
    """One pattern question: the illuminated spots, pattern spots first,
    their glyph-cell keys (``BlockGrid.for_map(alpha_map).cell_keys(spots)``),
    the number of pattern spots, the common pulse intensity and the hidden
    glyph.  Both arrays are kept as read-only copies."""

    spots: np.ndarray
    cell_keys: np.ndarray
    n_pattern: int
    i_tilde: float
    hidden_glyph: str

    def __post_init__(self) -> None:
        spots = np.array(self.spots, dtype=np.intp)
        keys = np.array(self.cell_keys, dtype=np.intp)
        n_pattern = _count("pattern spot count", self.n_pattern, 0)
        if not 0 < n_pattern <= spots.size or spots.ndim != 1 or keys.shape != spots.shape:
            raise DomainError("challenge must have at least one pattern spot among its "
                              "spots, and a cell key for each spot")
        ordered = np.sort(spots)
        if (ordered[1:] == ordered[:-1]).any():
            raise DomainError("pattern and noise spots must be disjoint and distinct")
        spots.setflags(write=False)
        keys.setflags(write=False)
        object.__setattr__(self, "spots", spots)
        object.__setattr__(self, "cell_keys", keys)
        object.__setattr__(self, "n_pattern", n_pattern)
        i_tilde = _real("pulse intensity", self.i_tilde, "[0, inf)")
        object.__setattr__(self, "i_tilde", i_tilde)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PatternChallenge):
            return NotImplemented
        return (
            (self.n_pattern, self.i_tilde, self.hidden_glyph)
            == (other.n_pattern, other.i_tilde, other.hidden_glyph)
            and np.array_equal(self.spots, other.spots)
            and np.array_equal(self.cell_keys, other.cell_keys)
        )

    __hash__ = None


@dataclass(frozen=True)
class RecognitionRule:
    """Tolerances for declaring the pattern recognized: fewer than ``k``
    pattern spots missed and fewer than ``l`` noise spots perceived."""

    k: int
    l: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _count("miss tolerance k", self.k, 1))
        object.__setattr__(self, "l", _count("noise tolerance l", self.l, 1))


@dataclass(frozen=True, eq=False)
class Menu:
    """A question's menu as arrays.  Entry ``e`` offers ``glyph_ids[e]``;
    entry 0 is the hidden glyph.  Drawn spot ``j`` belongs to entry
    ``entry[j]`` and is the challenge spot ``challenge.spots[at[j]]``; an
    entry's spots embed its glyph, one per glyph cell.  ``order`` lists the
    entries in the order the menu shows them."""

    glyph_ids: tuple[str, ...]
    order: np.ndarray
    entry: np.ndarray
    at: np.ndarray


@dataclass(frozen=True)
class PatternResult:
    accepted: bool
    questions: int
    correct: int

    @property
    def rounds(self) -> int:
        """Questions asked: all of them, or up to the first wrong answer."""
        return self.questions if self.accepted else self.correct + 1


def _require_noise(index: _ClassBlockIndex, n_noise: int) -> None:
    available = index.low.size
    if available < n_noise:
        raise PlacementError(
            f"map provides only {available} low-transmission spots inside "
            f"the block grid; {n_noise} noise spots requested", "noise"
        )


def _require_menu(achievable: int, n_entries: int, where: str = "") -> None:
    if achievable < n_entries:
        raise MenuError(
            f"{where}only {achievable} glyphs embeddable in the illuminated set; "
            f"{n_entries} requested"
        )


def _embeddable(incidence: np.ndarray, dark: np.ndarray) -> np.ndarray:
    """Which glyphs of ``incidence`` embed in an illuminated set whose empty
    glyph cells are ``dark`` (a flag per cell, or a row of flags per set):
    those with none of their cells in the dark (a boolean matrix product
    is an any-of-ands)."""
    return ~(dark @ incidence.T)


def _menu_capacity(index: _ClassBlockIndex, n_noise: int) -> np.ndarray:
    """The menu size ``candidate_menu`` can fill for each library glyph
    hidden among ``n_noise`` noise spots: the number of library glyphs that
    embed in the hidden glyph's cells and the noise-lit ones.  The deal
    fixes the block of each noise spot, so the noise-lit cells, and with
    them this count, depend on ``n_noise`` alone, never on the draws."""
    incidence = glyph_library().incidence
    lit = np.zeros(_N_CELLS, dtype=bool)
    lit[index.low_keys[index.deal[:n_noise]]] = True
    return np.count_nonzero(_embeddable(incidence, ~(incidence | lit)), axis=1)


@dataclass(frozen=True)
class PatternPlan:
    """A pattern run's plan on one map: ``n_questions`` questions, each
    with a menu of ``n_entries`` and recognized under ``rule``, and each
    challenge ``n_noise`` noise spots at pulse intensity ``i_tilde``, its
    classes cut at ``low_max`` and ``high_min``.

    Making the plan makes every refusal a question on the map could meet,
    in the order a question meets them: the question and noise counts, the
    class edges, a map smaller than the glyph grid, a library glyph with no
    high-transmission spot in the block of one of its cells, too few
    low-transmission spots in the block grid, the intensity, the menu size,
    and a menu larger than some glyph's challenge can fill.  The plan holds
    the map because these refusals depend on it.  Making it builds the
    map's class index and draws nothing; a session on it refuses nothing
    but its own arguments."""

    alpha_map: AlphaMap
    n_questions: int
    n_entries: int
    rule: RecognitionRule
    n_noise: int = DEFAULT_NOISE_SPOTS
    i_tilde: float = DEFAULT_CHALLENGE_INTENSITY
    low_max: float = DEFAULT_LOW_MAX
    high_min: float = DEFAULT_HIGH_MIN

    def __post_init__(self) -> None:
        n_questions = _count("question count", self.n_questions, 1, ConfigError)
        n_noise = _count("noise spot count", self.n_noise, 0)
        low_max = _real("low_max", self.low_max, "(-inf, inf)")
        high_min = _real("high_min", self.high_min, "(-inf, inf)")
        index = _cached_class_index(self.alpha_map, low_max, high_min)
        library = glyph_library()
        blocked = library.incidence & (index.high.counts == 0)
        if blocked.any(axis=1).all():
            raise PlacementError(
                f"no library glyph has a high-transmission spot (alpha >= "
                f"{high_min!r}) in the block of each of its cells", "high"
            )
        if blocked.any():
            row, cell = np.argwhere(blocked)[0]
            raise PlacementError(
                f"library glyph {library.ids[row]!r} has no high-transmission spot "
                f"(alpha >= {high_min!r}) in the block of its cell "
                f"{divmod(int(cell), GLYPH_GRID[1])}", "high"
            )
        _require_noise(index, n_noise)
        i_tilde = _real("pulse intensity", self.i_tilde, "[0, inf)")
        n_entries = _count("menu size", self.n_entries, 2)
        capacity = _menu_capacity(index, n_noise)
        shortest = int(capacity.argmin())
        _require_menu(int(capacity[shortest]), n_entries,
                      f"hidden among {n_noise} noise spots, library glyph "
                      f"{library.ids[shortest]!r} leaves the smallest menu: ")
        for name, value in [("n_questions", n_questions), ("n_entries", n_entries),
                            ("n_noise", n_noise), ("i_tilde", i_tilde),
                            ("low_max", low_max), ("high_min", high_min)]:
            object.__setattr__(self, name, value)


def build_challenge(
    alpha_map: AlphaMap,
    library: GlyphLibrary,
    glyph_id: str,
    n_noise: int,
    rng: np.random.Generator,
    *,
    i_tilde: float = DEFAULT_CHALLENGE_INTENSITY,
    low_max: float = DEFAULT_LOW_MAX,
    high_min: float = DEFAULT_HIGH_MIN,
) -> PatternChallenge:
    """Place one glyph on the map and surround it with noise spots.

    Each glyph cell receives exactly one high-transmission spot chosen
    uniformly inside that cell's block; ``n_noise`` low-transmission spots
    are then dealt round-robin across all blocks, each block's in a uniform
    random order.  Construction is deterministic given the generator state;
    the map's class index is built on the first call for a map and reused,
    and building it draws nothing.  Every refusal is made before the first
    draw; the placement itself is :func:`_place`.
    """
    _require_library(library)
    row = library.rows.get(glyph_id)
    if row is None:
        raise DomainError(f"unknown glyph {glyph_id!r}")
    n_noise = _count("noise spot count", n_noise, 0)
    index = _class_index(alpha_map, low_max, high_min)
    cells = library.cells[row]
    empty = cells[index.high.counts[cells] == 0]
    if empty.size:
        raise PlacementError(
            f"no high-transmission spots available in glyph cell "
            f"{divmod(int(empty[0]), GLYPH_GRID[1])} for {library.ids[row]!r}", "high"
        )
    _require_noise(index, n_noise)
    i_tilde = _real("pulse intensity", i_tilde, "[0, inf)")
    return _place(index, library, row, n_noise, i_tilde, rng)


def _place(
    index: _ClassBlockIndex,
    library: GlyphLibrary,
    row: int,
    n_noise: int,
    i_tilde: float,
    rng: np.random.Generator,
) -> PatternChallenge:
    """The challenge of :func:`build_challenge` for the glyph in ``row``,
    on arguments it or a :class:`PatternPlan` has checked: every glyph cell
    holds a high spot and the block grid ``n_noise`` low ones, so this only
    draws.  One :func:`_below` call draws a high spot in each glyph cell,
    then one the noise: the first ``n_noise`` steps of the class index's
    deal, each a Fisher-Yates step within its block, so a block's dealt
    spots are the first ones of a uniform order of its low spots,
    independently across blocks."""
    cells = library.cells[row]
    pattern = index.high.draw(cells, rng)
    # Spread noise round-robin over every block so the combined illuminated
    # set can embed many glyphs, not just the hidden one.  A round swaps at
    # most once in each block, so its swaps are one array assignment.
    dealt = index.deal[:n_noise]
    swaps = dealt + _below(index.choices[:n_noise], rng)
    low = index.low.copy()
    start = 0
    for end in index.rounds:
        if start >= n_noise:
            break
        here, there = dealt[start:end], swaps[start:end]
        low[here], low[there] = low[there], low[here]
        start = end
    return PatternChallenge(
        spots=np.concatenate((pattern, low[dealt])),
        cell_keys=np.concatenate((cells, index.low_keys[dealt])),
        n_pattern=cells.size,
        i_tilde=i_tilde,
        hidden_glyph=library.ids[row],
    )


@lru_cache(maxsize=64, typed=True)
def _menu_cells(keys: bytes, incidence: bytes) -> tuple[_CellGroups, np.ndarray]:
    """The positions of a challenge's spots grouped by glyph cell, for a
    challenge whose ``cell_keys`` have the bytes ``keys``, and the rows of
    the library whose ``incidence`` has the bytes ``incidence`` that embed
    in its illuminated set.  Both depend on the keys alone, and every
    challenge of one glyph on a plan has the same keys, so a run asks for
    one entry per glyph; both are read-only."""
    cell_keys = np.frombuffer(keys, dtype=np.intp)
    groups = _CellGroups(np.arange(cell_keys.size), cell_keys)
    incidence = np.frombuffer(incidence, dtype=bool).reshape(-1, _N_CELLS)
    rows = np.flatnonzero(_embeddable(incidence, groups.counts == 0))
    for array in (groups.items, groups.starts, groups.counts, rows):
        array.setflags(write=False)
    return groups, rows


def candidate_menu(
    challenge: PatternChallenge,
    library: GlyphLibrary,
    n_entries: int,
    rng: np.random.Generator,
) -> Menu:
    """Assemble the question menu: the hidden pattern plus distractors.

    Every entry is a genuine embedding — a subset of the illuminated set
    forming that glyph, one spot per glyph cell — and exactly one entry, the
    first, is the hidden pattern.  The distractors are the first
    ``n_entries - 1`` of a uniform order of the embeddable glyphs
    (:func:`_shuffled`), then one :func:`_below` call draws an illuminated
    spot in each of their cells, and ``order``, a second uniform order,
    shuffles the entries.  The challenge's spots by cell and the embeddable
    glyphs are read from a cache keyed by the bytes of its cell keys and of
    the library's incidence.
    """
    n_entries = _count("menu size", n_entries, 2)
    _require_library(library)
    hidden = challenge.hidden_glyph
    hidden_row = library.rows.get(hidden)
    if hidden_row is None:
        raise DomainError(f"hidden glyph {hidden!r} is not in the library")
    n_pattern = challenge.n_pattern
    illuminated, embeddable = _menu_cells(challenge.cell_keys.tobytes(),
                                          library._incidence_bytes)
    candidates = embeddable[embeddable != hidden_row]
    _require_menu(candidates.size + 1, n_entries)
    rows = candidates[_shuffled(candidates.size, rng)[:n_entries - 1]]
    entry, cells = library.incidence[rows].nonzero()
    drawn = illuminated.draw(cells, rng)
    order = _shuffled(n_entries, rng)
    return Menu(
        glyph_ids=(hidden, *map(library.ids.__getitem__, rows.tolist())),
        order=order,
        entry=np.concatenate((np.zeros(n_pattern, dtype=np.intp), entry + 1)),
        at=np.concatenate((np.arange(n_pattern), drawn)),
    )


@lru_cache(maxsize=4, typed=True)
def _seeing(alpha_map: AlphaMap, i_tilde: float, k: int) -> np.ndarray:
    """P(Poisson(alpha * i_tilde) >= k) at every spot of the map, read-only:
    ``_gk_array``, which gives each spot the value it gets alone.  Built on
    the first percept at this intensity and threshold on the map, whose
    object (immutable, hashed by identity) keys the entry with them."""
    seeing = _gk_array(k, alpha_map.alpha * i_tilde)
    seeing.setflags(write=False)
    return seeing


def simulate_perception(
    challenge: PatternChallenge,
    alpha_map: AlphaMap,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """The honest user's percept, aligned with ``challenge.spots``: each
    illuminated spot fires independently when its Poisson photon count
    (mean ``alpha * i_tilde``) reaches ``k``, which is drawn as one
    ``rng.random(n)`` uniform a spot, firing below that spot's probability
    of it (:func:`_seeing`, the map's probabilities at this intensity and
    threshold, computed once and cached)."""
    k = _count("threshold K", k, 1)
    spots = challenge.spots
    if spots.min() < 0 or spots.max() >= alpha_map.n_spots:
        raise DomainError("challenge references spots outside the map")
    return rng.random(spots.size) < _seeing(alpha_map, challenge.i_tilde, k)[spots]


def recognize(
    perceived: np.ndarray,
    challenge: PatternChallenge,
    rule: RecognitionRule,
) -> bool:
    """Recognition succeeds iff missed pattern spots < k and perceived noise
    spots < l (both strict).  ``perceived`` flags each of the challenge's
    spots, as :func:`simulate_perception` returns it."""
    if perceived.shape != challenge.spots.shape:
        raise DomainError("percept must flag each of the challenge's spots")
    n_pattern = challenge.n_pattern
    missed = n_pattern - int(np.count_nonzero(perceived[:n_pattern]))
    noise_seen = int(np.count_nonzero(perceived[n_pattern:]))
    return missed < rule.k and noise_seen < rule.l


def false_positive_rate(n_entries: int, n_questions: int) -> Fraction:
    """Exact impostor success probability: (1/M)**m as a rational number."""
    n_entries = _count("menu size", n_entries, 2)
    return Fraction(1, n_entries) ** _count("question count", n_questions, 0)


def alice_failure_bound(
    n_h: int,
    n_l: int,
    k: int,
    l: int,
    p_h: float,
    p_l: float,
    m: int,
) -> float:
    """Chernoff bound on the honest user's failure rate over m questions.

    Per question, failure requires missing at least ``k`` of ``n_h`` pattern
    spots (each missed with probability at most ``p_h``) or perceiving at
    least ``l`` of ``n_l`` noise spots (each perceived with probability at
    most ``p_l``):

        P <= exp(-n_h * H(k/n_h | p_h)) + exp(-n_l * H(l/n_l | p_l)),

    and over m independent questions p_fn <= 1 - (1 - P)**m.  The bound
    needs the tolerated fractions to sit at or above the per-spot rates;
    below them it is not a bound at all and the call is rejected.  Where the
    per-question bound reaches 1 (always at exact equality, where an
    exponent vanishes) the returned bound is a vacuous 1.0.
    """
    n_h, n_l, k, l, m = _checked_bound_counts(n_h, n_l, k, l, m)
    p_h = _real("p_h", p_h, "[0, 1)")
    p_l = _real("p_l", p_l, "[0, 1)")
    frac_h = k / n_h
    frac_l = l / n_l
    if frac_h < p_h or frac_l < p_l:
        raise BoundInapplicableError(
            f"tolerated fractions (k/n_h={frac_h!r}, l/n_l={frac_l!r}) must not "
            f"fall below the per-spot rates (p_h={p_h!r}, p_l={p_l!r})"
        )
    return _failure_bound(n_h, n_l, k, l, p_h, p_l, m)


def _checked_bound_counts(n_h, n_l, k, l, m) -> tuple[int, int, int, int, int]:
    return (_count("n_h", n_h, 1), _count("n_l", n_l, 1), _count("k", k, 1),
            _count("l", l, 1), _count("question count", m, 0))


def _failure_bound(n_h: int, n_l: int, k: int, l: int, p_h: float, p_l: float,
                   m: int) -> float:
    """:func:`alice_failure_bound` of checked arguments inside its validity
    condition: 1.0 where the bound is vacuous."""
    if m == 0:
        return 0.0
    per_question = math.exp(-n_h * _relative_entropy(min(k / n_h, 1.0), p_h)) + math.exp(
        -n_l * _relative_entropy(min(l / n_l, 1.0), p_l)
    )
    if per_question >= 1.0:
        return 1.0
    return 1.0 - (1.0 - per_question) ** m


def optimize_intensity(
    n_h: int,
    n_l: int,
    k: int,
    l: int,
    alpha_low: float,
    alpha_high: float,
    threshold: int,
    m: int,
) -> tuple[float, float]:
    """Scan pulse intensities and minimize the honest-failure bound.

    At intensity I the per-spot rates are p_h = 1 - G(alpha_high * I)
    (missing a pattern spot) and p_l = G(alpha_low * I) (perceiving a noise
    spot); raising I trades missed pattern spots against perceived noise, so
    the bound has an interior minimum.  The scan covers :data:`INTENSITY_SCAN`
    in steps of :data:`INTENSITY_STEP`.
    """
    n_h, n_l, k, l, m = _checked_bound_counts(n_h, n_l, k, l, m)
    alpha_low = _real("alpha_low", alpha_low, "(-inf, inf)")
    alpha_high = _real("alpha_high", alpha_high, "(-inf, inf)")
    threshold = _count("threshold K", threshold, 1)
    lo, hi = INTENSITY_SCAN
    step = INTENSITY_STEP
    best: tuple[float, float] | None = None
    n_points = int(round((hi - lo) / step)) + 1
    for j in range(n_points):
        i_tilde = lo + j * step
        p_h = 1.0 - gk(threshold, alpha_high * i_tilde)
        p_l = gk(threshold, alpha_low * i_tilde)
        if k / n_h <= p_h or l / n_l <= p_l:
            continue
        bound = _failure_bound(n_h, n_l, k, l, p_h, p_l, m)
        if bound >= 1.0:
            continue
        if best is None or bound < best[1]:
            best = (i_tilde, bound)
    if best is None:
        raise InfeasibleError(
            f"failure bound is invalid or vacuous over the whole range {(lo, hi)!r}"
        )
    return best


def run_pattern_test(
    subject: SubjectModel,
    plan: PatternPlan,
    rng: np.random.Generator,
    *,
    glyph_ids: list[str] | None = None,
) -> PatternResult:
    """Run one identification session of ``plan.n_questions`` pattern
    questions.

    A fresh glyph, from ``glyph_ids`` or the whole library, and a fresh spot
    placement are drawn per question.  The honest user answers the menu
    entry overlapping her percept the most (the first such in menu order)
    when recognition succeeds, otherwise uniformly at random.  An impostor
    can do no better than a uniform pick, so her session is drawn from that
    law (see :func:`_impostor_session`).  Accept iff every answer names the
    hidden glyph.  The plan has made every refusal a question could meet,
    so only the glyph pool and the subject are checked here, and each
    challenge is placed from the plan's class index by :func:`_place`, the
    helper :func:`build_challenge` calls after its own checks.  The glyph
    and the uniform pick are :func:`_below` draws.
    """
    library = glyph_library()
    pool = library.ids
    if glyph_ids is not None:
        pool = list(glyph_ids)
        if not pool:
            raise ConfigError("empty glyph pool")
        unknown = [gid for gid in pool if gid not in library]
        if unknown:
            raise ConfigError(f"glyph ids not in the library: {unknown!r}")
    m = plan.n_questions
    k = honest_threshold(subject)
    if k is None:
        return _impostor_session(m, plan.n_entries, rng)

    alpha_map = plan.alpha_map
    index = _cached_class_index(alpha_map, plan.low_max, plan.high_min)
    rows = library.rows
    for correct in range(m):
        row = rows[pool[_below(len(pool), rng)]]
        challenge = _place(index, library, row, plan.n_noise, plan.i_tilde, rng)
        menu = candidate_menu(challenge, library, plan.n_entries, rng)
        perceived = simulate_perception(challenge, alpha_map, k, rng)
        if recognize(perceived, challenge, plan.rule):
            # the first entry, in menu order, of largest overlap with the percept
            overlap = np.bincount(menu.entry, weights=perceived[menu.at])
            pick = menu.order[np.argmax(overlap[menu.order])]
        else:
            pick = menu.order[_below(plan.n_entries, rng)]
        if pick != 0:
            return PatternResult(accepted=False, questions=m, correct=correct)
    return PatternResult(accepted=True, questions=m, correct=m)


@lru_cache(maxsize=16, typed=True)
def _impostor_tails(n_entries: int, m: int) -> tuple[float, ...]:
    """The tail of an impostor's count C of right answers in a session of
    ``m`` questions, menus of ``n_entries``, ascending: P(C >= c) =
    (1/n_entries)**c for c = m, m - 1, ..., 1, each the exact rational
    rounded once.  So P(C = c) is (1/M)**c * (1 - 1/M) for c < m and
    (1/M)**m for c = m, the truncated geometric."""
    return tuple(float(Fraction(1, n_entries) ** c) for c in range(m, 0, -1))


def _impostor_session(m: int, n_entries: int, rng: np.random.Generator) -> PatternResult:
    """An impostor's session of ``m`` questions, drawn from its exact law.
    Her pick is uniform over the menu and the hidden glyph's menu position
    is a uniform permutation entry, so whatever the glyph and challenge she
    answers each question right with probability exactly 1/n_entries, and
    her session ends at her first wrong answer.  One uniform ``u`` gives
    her count of right answers by inversion: the number of the tails of
    :func:`_impostor_tails` above ``u``.  No glyph, challenge or menu is
    drawn."""
    correct = m - bisect_right(_impostor_tails(n_entries, m), rng.random())
    return PatternResult(accepted=correct == m, questions=m, correct=correct)
