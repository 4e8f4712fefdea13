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
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from itertools import islice

import numpy as np

from .alpha_map import AlphaMap
from .errors import (
    BoundInapplicableError,
    ConfigError,
    DomainError,
    InfeasibleError,
    MenuError,
    PlacementError,
)
from .photon_stats import DEFAULT_THRESHOLD, gk
from .strategy_serial import relative_entropy
from .subjects import AliceSubject, EveSubject, SubjectModel

__all__ = [
    "Glyph",
    "BlockGrid",
    "PatternChallenge",
    "RecognitionRule",
    "MenuEntry",
    "PatternResult",
    "glyph_library",
    "build_challenge",
    "candidate_menu",
    "simulate_perception",
    "recognize",
    "false_positive_rate",
    "alice_failure_bound",
    "optimize_intensity",
    "run_pattern_test",
    "DEFAULT_CHALLENGE_INTENSITY",
    "DEFAULT_LOW_MAX",
    "DEFAULT_HIGH_MIN",
]

GLYPH_GRID = (5, 7)
_N_CELLS = GLYPH_GRID[0] * GLYPH_GRID[1]
#: Cell keys (see ``_cell_keys``) in row-major block order, the order noise
#: is dealt in.
_DEAL_ORDER = np.arange(_N_CELLS).reshape(GLYPH_GRID).T.ravel()

#: Default operating point for challenge construction.
DEFAULT_CHALLENGE_INTENSITY = 72.0
DEFAULT_LOW_MAX = 0.04
DEFAULT_HIGH_MIN = 0.16
DEFAULT_NOISE_SPOTS = 75


@dataclass(frozen=True)
class Glyph:
    """A symbol: its id and the set of (x, y) cells it occupies on the
    5x7 glyph grid."""

    glyph_id: str
    pixels: frozenset[tuple[int, int]]

    @property
    def size(self) -> int:
        return len(self.pixels)


def _cell_keys(glyph: Glyph) -> np.ndarray:
    """Flat keys ``cx * rows + cy`` of a glyph's cells, ascending.  Ascending
    keys are the cells in sorted ``(cx, cy)`` order."""
    rows = GLYPH_GRID[1]
    return np.array(sorted(cx * rows + cy for cx, cy in glyph.pixels), dtype=np.intp)


@lru_cache(maxsize=1)
def glyph_library() -> dict[str, Glyph]:
    """Load and validate the packaged glyph library."""
    with resources.files("retinasim.data").joinpath("glyphs_5x7.json").open() as fh:
        doc = json.load(fh)
    grid = tuple(doc["grid"])
    if grid != GLYPH_GRID:
        raise ConfigError(f"glyph library grid {grid} != expected {GLYPH_GRID}")
    lo, hi = doc["size_range"]
    library: dict[str, Glyph] = {}
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
        library[gid] = Glyph(glyph_id=gid, pixels=pixels)
    return library


@dataclass(frozen=True)
class BlockGrid:
    """Partition of a map into one rectangular block per glyph cell."""

    map_width: int
    map_height: int
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
                f"{cols}x{rows} glyph grid"
            )
        return cls(alpha_map.width, alpha_map.height, cell_w, cell_h)

    def cell_keys(self, spots: np.ndarray) -> np.ndarray:
        """Flat glyph-cell key of each spot (see ``_cell_keys``), or -1 for
        spots outside the used region."""
        cols, rows = GLYPH_GRID
        cx = spots % self.map_width // self.cell_w
        cy = spots // self.map_width // self.cell_h
        return np.where((spots >= 0) & (cx < cols) & (cy < rows), cx * rows + cy, -1)


class _CellGroups:
    """Spots grouped by glyph cell: cell ``c`` holds
    ``spots[starts[c]:starts[c] + counts[c]]``, in the order given."""

    def __init__(self, spots: np.ndarray, keys: np.ndarray):
        inside = keys >= 0
        keys = keys[inside]
        self.spots = spots[inside][np.argsort(keys, kind="stable")]
        self.counts = np.bincount(keys, minlength=_N_CELLS)
        self.starts = np.cumsum(self.counts) - self.counts

    def draw(self, cells: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One spot uniformly from each of the (non-empty) ``cells``.  The
        single array call draws exactly what one scalar ``rng.integers``
        per cell, in order, would."""
        return self.spots[self.starts[cells] + rng.integers(self.counts[cells])]


@lru_cache(maxsize=4)
def _incidence(items: tuple) -> tuple[tuple[str, ...], np.ndarray]:
    """Sorted glyph ids and their glyph x cell incidence matrix, for a
    library given as ``tuple(library.items())``."""
    glyphs = dict(items)
    ids = tuple(sorted(glyphs))
    matrix = np.zeros((len(ids), _N_CELLS), dtype=bool)
    for row, gid in enumerate(ids):
        matrix[row, _cell_keys(glyphs[gid])] = True
    matrix.setflags(write=False)
    return ids, matrix


class _ClassBlockIndex:
    """Low- and high-transmission spot indices grouped by glyph cell."""

    def __init__(
        self, alpha_map: AlphaMap, grid: BlockGrid, low_max: float, high_min: float
    ):
        if low_max >= high_min:
            raise DomainError(
                f"class thresholds must satisfy low_max < high_min, got "
                f"({low_max!r}, {high_min!r})"
            )
        self.grid = grid
        spots = np.arange(alpha_map.n_spots)
        keys = grid.cell_keys(spots)
        low = alpha_map.alpha <= low_max
        high = alpha_map.alpha >= high_min
        self.high = _CellGroups(spots[high], keys[high])
        lows = _CellGroups(spots[low], keys[low])
        by_cell = np.split(lows.spots, lows.starts[1:])
        self.low_blocks = [by_cell[cell] for cell in _DEAL_ORDER]
        self.low_counts = lows.counts[_DEAL_ORDER]


@lru_cache(maxsize=4)
def _class_index(
    alpha_map: AlphaMap, low_max: float, high_min: float
) -> _ClassBlockIndex:
    """The map's class index, built once per map object: ``AlphaMap`` is
    immutable and hashes by identity, so an entry cannot go stale."""
    return _ClassBlockIndex(alpha_map, BlockGrid.for_map(alpha_map), low_max, high_min)


@dataclass(frozen=True)
class PatternChallenge:
    """One pattern question: the hidden glyph's spots, the noise spots, the
    common pulse intensity, and the placement geometry."""

    pattern_spots: frozenset[int]
    noise_spots: frozenset[int]
    i_tilde: float
    hidden_glyph: str
    block_grid: BlockGrid

    def __post_init__(self) -> None:
        if self.pattern_spots & self.noise_spots:
            raise DomainError("pattern and noise spots must be disjoint")
        if not self.pattern_spots:
            raise DomainError("challenge must have at least one pattern spot")
        if not (math.isfinite(self.i_tilde) and self.i_tilde >= 0.0):
            raise DomainError(f"pulse intensity must be >= 0, got {self.i_tilde!r}")

    @property
    def illuminated_spots(self) -> frozenset[int]:
        """What an ideal photodetector perceives: every illuminated spot,
        with nothing to distinguish pattern from noise."""
        return self.pattern_spots | self.noise_spots


@dataclass(frozen=True)
class RecognitionRule:
    """Tolerances for declaring the pattern recognized: fewer than ``k``
    pattern spots missed and fewer than ``l`` noise spots perceived."""

    k: int
    l: int

    def __post_init__(self) -> None:
        if self.k < 1 or self.l < 1:
            raise DomainError(f"tolerances must be >= 1, got k={self.k}, l={self.l}")


@dataclass(frozen=True)
class MenuEntry:
    glyph_id: str
    spots: frozenset[int]


@dataclass(frozen=True)
class PatternResult:
    accepted: bool
    questions: int
    correct: int


def build_challenge(
    alpha_map: AlphaMap,
    library: dict[str, Glyph],
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
    are then dealt round-robin across all blocks.  Construction is
    deterministic given the generator state; the map's class index is built
    on the first call for a map and reused, and building it draws nothing.
    """
    if glyph_id not in library:
        raise DomainError(f"unknown glyph {glyph_id!r}")
    if n_noise < 0:
        raise DomainError(f"noise spot count must be >= 0, got {n_noise}")
    glyph = library[glyph_id]
    index = _class_index(alpha_map, low_max, high_min)
    cells = _cell_keys(glyph)
    empty = cells[index.high.counts[cells] == 0]
    if empty.size:
        raise PlacementError(
            f"no high-transmission spots available in glyph cell "
            f"{divmod(int(empty[0]), GLYPH_GRID[1])} for {glyph.glyph_id!r}"
        )
    pattern = index.high.draw(cells, rng)

    # Spread noise round-robin over every block so the combined illuminated
    # set can embed many glyphs, not just the hidden one.  Every block's low
    # spots are permuted, and the first ``depth`` of each suffice.
    low_counts = index.low_counts
    if low_counts.sum() < n_noise:
        raise PlacementError(
            f"map provides only {low_counts.sum()} low-transmission spots inside "
            f"the block grid; {n_noise} noise spots requested"
        )
    depth = n_dealt = 0
    while n_dealt < n_noise:
        n_dealt += int(np.count_nonzero(low_counts > depth))
        depth += 1
    heads = np.full((_N_CELLS, depth), -1)
    for row, lows in enumerate(index.low_blocks):
        head = rng.permutation(lows)[:depth]
        heads[row, : head.size] = head
    dealt = heads.T.ravel()  # round by round, blocks in order within a round
    noise = dealt[dealt >= 0][:n_noise]
    return PatternChallenge(
        pattern_spots=frozenset(pattern.tolist()),
        noise_spots=frozenset(noise.tolist()),
        i_tilde=float(i_tilde),
        hidden_glyph=glyph.glyph_id,
        block_grid=index.grid,
    )


def candidate_menu(
    challenge: PatternChallenge,
    library: dict[str, Glyph],
    n_entries: int,
    rng: np.random.Generator,
) -> list[MenuEntry]:
    """Assemble the question menu: the hidden pattern plus distractors.

    Every entry is a genuine embedding — a subset of the illuminated set
    forming that glyph, one spot per glyph cell — and exactly one entry
    equals the hidden pattern.  Entries are returned in shuffled order.
    """
    if n_entries < 2:
        raise DomainError(f"a menu needs at least 2 entries, got {n_entries}")
    hidden = challenge.hidden_glyph
    if hidden not in library:
        raise DomainError(f"hidden glyph {hidden!r} is not in the library")
    ids, incidence = _incidence(tuple(library.items()))
    spots = np.sort(np.fromiter(challenge.illuminated_spots, dtype=np.int64))
    illuminated = _CellGroups(spots, challenge.block_grid.cell_keys(spots))
    # a glyph embeds iff none of its cells is empty
    embeddable = ~incidence[:, illuminated.counts == 0].any(axis=1)
    embeddable[ids.index(hidden)] = False
    candidates = np.flatnonzero(embeddable)
    achievable = candidates.size + 1
    if achievable < n_entries:
        raise MenuError(
            f"only {achievable} glyphs embeddable in the illuminated set; "
            f"{n_entries} requested"
        )
    rows = candidates[rng.choice(candidates.size, size=n_entries - 1, replace=False)]
    picked = incidence[rows]
    chosen = iter(illuminated.draw(np.nonzero(picked)[1], rng).tolist())
    entries = [MenuEntry(hidden, challenge.pattern_spots)]
    entries += [
        MenuEntry(ids[row], frozenset(islice(chosen, size)))
        for row, size in zip(rows.tolist(), picked.sum(axis=1).tolist())
    ]
    order = rng.permutation(len(entries))
    return [entries[int(i)] for i in order]


def simulate_perception(
    challenge: PatternChallenge,
    alpha_map: AlphaMap,
    k: int,
    rng: np.random.Generator,
) -> frozenset[int]:
    """The honest user's percept: each illuminated spot fires independently
    when its Poisson photon count (mean ``alpha * i_tilde``) reaches ``k``."""
    spots = np.fromiter(sorted(challenge.illuminated_spots), dtype=np.int64)
    if spots.size and (spots[0] < 0 or spots[-1] >= alpha_map.n_spots):
        raise DomainError("challenge references spots outside the map")
    counts = rng.poisson(alpha_map.alpha[spots] * challenge.i_tilde)
    return frozenset(spots[counts >= k].tolist())


def recognize(
    perceived: frozenset[int],
    challenge: PatternChallenge,
    rule: RecognitionRule,
) -> bool:
    """Recognition succeeds iff missed pattern spots < k and perceived noise
    spots < l (both strict)."""
    missed = len(challenge.pattern_spots - perceived)
    noise_seen = len(challenge.noise_spots & perceived)
    return missed < rule.k and noise_seen < rule.l


def false_positive_rate(n_entries: int, n_questions: int) -> Fraction:
    """Exact impostor success probability: (1/M)**m as a rational number."""
    if n_entries < 2:
        raise DomainError(f"menu size must be >= 2, got {n_entries}")
    if n_questions < 0:
        raise DomainError(f"question count must be >= 0, got {n_questions}")
    return Fraction(1, n_entries) ** n_questions


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
    below them it is not a bound at all and the call is rejected.  At
    exact equality the exponent vanishes and the returned bound is a
    vacuous 1.0 (flagged with a warning).
    """
    for name, value in (("n_h", n_h), ("n_l", n_l), ("k", k), ("l", l)):
        if value < 1:
            raise DomainError(f"{name} must be >= 1, got {value}")
    if m < 0:
        raise DomainError(f"question count must be >= 0, got {m}")
    for name, value in (("p_h", p_h), ("p_l", p_l)):
        if not (0.0 <= float(value) < 1.0):
            raise DomainError(f"{name} must lie in [0, 1), got {value!r}")
    frac_h = k / n_h
    frac_l = l / n_l
    if frac_h < p_h or frac_l < p_l:
        raise BoundInapplicableError(
            f"tolerated fractions (k/n_h={frac_h!r}, l/n_l={frac_l!r}) must not "
            f"fall below the per-spot rates (p_h={p_h!r}, p_l={p_l!r})"
        )
    if m == 0:
        return 0.0
    per_question = math.exp(-n_h * relative_entropy(min(frac_h, 1.0), p_h)) + math.exp(
        -n_l * relative_entropy(min(frac_l, 1.0), p_l)
    )
    if per_question >= 1.0:
        warnings.warn(
            "failure bound is vacuous (per-question bound >= 1); the tolerated "
            "fractions sit on the validity boundary",
            RuntimeWarning,
            stacklevel=2,
        )
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
    i_range: tuple[float, float] = (40.0, 120.0),
    step: float = 0.1,
) -> tuple[float, float]:
    """Scan pulse intensities and minimize the honest-failure bound.

    At intensity I the per-spot rates are p_h = 1 - G(alpha_high * I)
    (missing a pattern spot) and p_l = G(alpha_low * I) (perceiving a noise
    spot); raising I trades missed pattern spots against perceived noise, so
    the bound has an interior minimum.  Grid resolution is ``step``.
    """
    lo, hi = float(i_range[0]), float(i_range[1])
    if not (0.0 <= lo < hi) or step <= 0.0:
        raise DomainError(f"invalid search range {i_range!r} with step {step!r}")
    best: tuple[float, float] | None = None
    n_points = int(round((hi - lo) / step)) + 1
    for j in range(n_points):
        i_tilde = lo + j * step
        p_h = 1.0 - gk(threshold, alpha_high * i_tilde)
        p_l = gk(threshold, alpha_low * i_tilde)
        if k / n_h <= p_h or l / n_l <= p_l:
            continue
        # Vacuous grid points are skipped silently — near the edges of the
        # scan they are expected, not noteworthy.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            bound = alice_failure_bound(n_h, n_l, k, l, p_h, p_l, m)
        if bound >= 1.0:
            continue
        if best is None or bound < best[1]:
            best = (i_tilde, bound)
    if best is None:
        raise InfeasibleError(
            f"failure bound is invalid or vacuous over the whole range {i_range!r}"
        )
    return best


def run_pattern_test(
    subject: SubjectModel,
    alpha_map: AlphaMap,
    m: int,
    n_entries: int,
    rule: RecognitionRule,
    rng: np.random.Generator,
    *,
    n_noise: int = DEFAULT_NOISE_SPOTS,
    i_tilde: float = DEFAULT_CHALLENGE_INTENSITY,
    low_max: float = DEFAULT_LOW_MAX,
    high_min: float = DEFAULT_HIGH_MIN,
    library: dict[str, Glyph] | None = None,
    glyph_ids: list[str] | None = None,
) -> PatternResult:
    """Run one identification session of m pattern questions.

    A fresh glyph and fresh spot placement are drawn per question.  The
    honest user answers the menu entry overlapping her percept the most when
    recognition succeeds, otherwise uniformly at random; an impostor can do
    no better than a uniform pick.  Accept iff all m answers name the hidden
    glyph.
    """
    if m < 1:
        raise ConfigError(f"a session needs at least one question, got m={m}")
    if library is None:
        library = glyph_library()
    pool = sorted(library) if glyph_ids is None else list(glyph_ids)
    if not pool:
        raise ConfigError("empty glyph pool")
    unknown = [gid for gid in pool if gid not in library]
    if unknown:
        raise ConfigError(f"glyph ids not in the library: {unknown!r}")
    is_eve = isinstance(subject, EveSubject)
    if not is_eve and not isinstance(subject, AliceSubject):
        raise DomainError(f"unknown subject model {subject!r}")

    correct = 0
    for _question in range(m):
        gid = pool[int(rng.integers(len(pool)))]
        challenge = build_challenge(alpha_map, library, gid, n_noise, rng,
                                    i_tilde=i_tilde, low_max=low_max, high_min=high_min)
        menu = candidate_menu(challenge, library, n_entries, rng)
        if is_eve:
            answer = menu[int(rng.integers(len(menu)))]
        else:
            perceived = simulate_perception(challenge, alpha_map, subject.k, rng)
            if recognize(perceived, challenge, rule):
                answer = max(menu, key=lambda entry: len(entry.spots & perceived))
            else:
                answer = menu[int(rng.integers(len(menu)))]
        if answer.glyph_id == challenge.hidden_glyph:
            correct += 1
        else:
            return PatternResult(accepted=False, questions=m, correct=correct)
    return PatternResult(accepted=True, questions=m, correct=correct)
