"""Synthetic retinal transmission maps.

Each eye is modelled as a rectangular grid of interrogable spots, every spot
carrying an effective transmission coefficient ``alpha`` in a global band
``[alpha_min, alpha_max]``.  The map is the stored biometric template: it is
generated once (here, synthetically, with independent uniform draws per
spot) and persisted as a small JSON document.

Spatial correlations are deliberately ignored — spots are i.i.d. — and maps
are immutable after creation so they can be shared freely across concurrent
trials.

The module also defines the interrogation distribution, the law of the
transmission value flashed in one round.  There is one type,
:class:`UniformBands`: a fair coin picks the low or the high band and the
value is uniform on it.  A two-point distribution is the special case of
zero-width bands, which :func:`PointPair` builds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ConfigError, DomainError, MapFormatError, _count, _real

__all__ = [
    "AlphaMap",
    "SpotClass",
    "PointPair",
    "UniformBands",
    "distribution_support",
    "inner_edges",
    "require_support",
    "class_draws",
    "generate_synthetic",
    "draw_interrogation_spot",
    "save",
    "load",
]


class SpotClass(Enum):
    """Transmission band of a retinal spot."""

    LOW = "low"
    HIGH = "high"


@dataclass(frozen=True, eq=False)
class AlphaMap:
    """Immutable per-spot transmission template.

    ``alpha`` is stored row-major (index ``y * width + x``) as a read-only
    float array; every value must lie inside ``[alpha_min, alpha_max]``.
    """

    width: int
    height: int
    alpha: np.ndarray
    alpha_min: float
    alpha_max: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "width", _count("map width", self.width, 1))
        object.__setattr__(self, "height", _count("map height", self.height, 1))
        for name in ("alpha_min", "alpha_max"):
            object.__setattr__(self, name, _real(name, getattr(self, name), "(-inf, inf)"))
        if not (0.0 < self.alpha_min < self.alpha_max <= 1.0):
            raise DomainError(
                "need 0 < alpha_min < alpha_max <= 1, got "
                f"alpha_min={self.alpha_min!r}, alpha_max={self.alpha_max!r}"
            )
        arr = np.asarray(self.alpha, dtype=np.float64).reshape(-1).copy()
        if arr.size != self.width * self.height:
            raise DomainError(
                f"field 'alpha' has {arr.size} entries, "
                f"expected width*height = {self.width * self.height}"
            )
        # Written as "not inside" so that NaN counts as outside.
        outside = ~((arr >= self.alpha_min) & (arr <= self.alpha_max))
        if outside.any():
            bad = int(np.argmax(outside))
            raise DomainError(
                f"alpha[{bad}] = {float(arr[bad])!r} outside "
                f"[{self.alpha_min!r}, {self.alpha_max!r}]"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "alpha", arr)

    @property
    def n_spots(self) -> int:
        return self.width * self.height


@dataclass(frozen=True)
class UniformBands:
    """Interrogation distribution uniform over a low and a high band.

    This is the only distribution type.  Degenerate (zero-width) bands are
    allowed and behave like point masses; :func:`PointPair` builds the
    two-point distribution that way.
    """

    low_band: tuple[float, float]
    high_band: tuple[float, float]

    def __post_init__(self) -> None:
        for name in ("low_band", "high_band"):
            edges = tuple(_real("band edge", edge, "(-inf, inf)")
                          for edge in getattr(self, name))
            object.__setattr__(self, name, edges)
        a, b = self.low_band
        c, d = self.high_band
        if not (0.0 < a <= b < c <= d <= 1.0):
            raise DomainError(
                "bands must satisfy 0 < low[0] <= low[1] < high[0] <= high[1] <= 1, "
                f"got low={self.low_band!r}, high={self.high_band!r}"
            )


def PointPair(alpha_low: float, alpha_high: float) -> UniformBands:
    """Interrogation distribution concentrated on two transmission values:
    a pair of zero-width bands."""
    return UniformBands((alpha_low, alpha_low), (alpha_high, alpha_high))


def distribution_support(distribution: UniformBands) -> tuple[float, float]:
    """Smallest and largest transmission value the distribution can produce."""
    return distribution.low_band[0], distribution.high_band[1]


def inner_edges(distribution: UniformBands) -> tuple[float, float]:
    """Top of the low band and bottom of the high band: the two values the
    honest user confuses most often, from which the symmetric pulse
    intensity is solved."""
    return distribution.low_band[1], distribution.high_band[0]


def require_support(alpha_map: AlphaMap, distribution: UniformBands) -> None:
    """Raise :class:`ConfigError` unless the map's global transmission band
    covers the distribution's support."""
    lo, hi = distribution_support(distribution)
    if lo < alpha_map.alpha_min or hi > alpha_map.alpha_max:
        raise ConfigError(
            f"interrogation distribution spans [{lo!r}, {hi!r}] but the map only "
            f"provides [{alpha_map.alpha_min!r}, {alpha_map.alpha_max!r}]"
        )


def class_draws(
    distribution: UniformBands, rng: np.random.Generator
) -> Iterator[tuple[float, SpotClass]]:
    """Endless ``(alpha, spot_class)`` draws: each time a fair coin picks the
    hidden class, then the transmission value is drawn uniformly from that
    class's band (a zero-width band draws nothing).  The value is
    ``a + (b - a) * random()``, the expression NumPy's ``uniform(a, b)``
    evaluates, so it draws the same double from the same stream without the
    call's overhead.  The generator's method and the band edges are looked
    up once, not once per draw."""
    random = rng.random
    classes = (
        (*distribution.low_band, SpotClass.LOW),
        (*distribution.high_band, SpotClass.HIGH),
    )
    while True:
        a, b, spot_class = classes[random() < 0.5]
        yield (a if a == b else a + (b - a) * random()), spot_class


def generate_synthetic(
    width: int, height: int, alpha_min: float, alpha_max: float, seed: int
) -> AlphaMap:
    """Draw a fresh map with independent uniform transmission per spot.

    The same seed always yields the same map (a dedicated counter-based
    generator is constructed locally, so global RNG state is never touched).
    """
    width, height = _count("map width", width, 1), _count("map height", height, 1)
    alpha_min = _real("alpha_min", alpha_min, "(-inf, inf)")
    alpha_max = _real("alpha_max", alpha_max, "(-inf, inf)")
    if not (0.0 < alpha_min < alpha_max <= 1.0):
        raise DomainError(
            f"need 0 < alpha_min < alpha_max <= 1, got ({alpha_min!r}, {alpha_max!r})"
        )
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    alpha = rng.uniform(alpha_min, alpha_max, size=width * height)
    return AlphaMap(width, height, alpha, alpha_min, alpha_max)


def draw_interrogation_spot(
    alpha_map: AlphaMap,
    distribution: UniformBands,
    rng: np.random.Generator,
) -> tuple[float, SpotClass]:
    """Pick the next interrogation target: a fair coin chooses the hidden
    class, then the transmission value is drawn from that class's part of
    ``distribution``.

    The class label is protocol-internal state — callers hand the subject
    only the resulting pulse, never the label.  The map enters as a
    consistency check: the distribution must be realizable within the map's
    global transmission band.
    """
    require_support(alpha_map, distribution)
    return next(class_draws(distribution, rng))


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------
#
# Maps are stored as a single flat JSON document.  Floats are written in
# scientific notation with 17 fractional digits (18 significant digits),
# which is more than enough for a lossless binary64 round trip.

_FORMAT_VERSION = 1


def _fmt(value: float) -> str:
    return format(float(value), ".17e")


def save(alpha_map: AlphaMap, path: str | Path) -> None:
    """Write ``alpha_map`` to ``path`` in the versioned JSON map format."""
    parts = [
        "{\n",
        f'  "version": {_FORMAT_VERSION},\n',
        f'  "width": {alpha_map.width},\n',
        f'  "height": {alpha_map.height},\n',
        f'  "alpha_min": {_fmt(alpha_map.alpha_min)},\n',
        f'  "alpha_max": {_fmt(alpha_map.alpha_max)},\n',
        '  "alpha": [\n',
    ]
    body = ",\n".join("    " + _fmt(a) for a in alpha_map.alpha)
    parts.append(body)
    parts.append("\n  ]\n}\n")
    Path(path).write_text("".join(parts), encoding="ascii")


def _require_field(doc: dict, name: str, path: str) -> object:
    if name not in doc:
        raise MapFormatError(f"{path}: missing required field '{name}'")
    return doc[name]


def _require_int(doc: dict, name: str, path: str) -> int:
    value = _require_field(doc, name, path)
    if isinstance(value, bool) or not isinstance(value, int):
        raise MapFormatError(f"{path}: field '{name}' must be an integer, got {value!r}")
    return value


def _require_number(doc: dict, name: str, path: str) -> float:
    value = _require_field(doc, name, path)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MapFormatError(f"{path}: field '{name}' must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise MapFormatError(
            f"{path}: field '{name}' is too large for a float"
        ) from None


def load(path: str | Path) -> AlphaMap:
    """Read a map written by :func:`save`, validating structure and values.

    Parse and validation failures raise :class:`MapFormatError` carrying the
    offending location (JSON line/column, or field name / spot index).
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise MapFormatError(f"{path}: cannot read map file: {exc}") from exc
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise MapFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # bytes in no UTF encoding, or an integer past the digit limit
        raise MapFormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MapFormatError(f"{path}: top-level JSON value must be an object")

    version = _require_int(doc, "version", str(path))
    if version != _FORMAT_VERSION:
        raise MapFormatError(
            f"{path}: unsupported map format version {version} (expected {_FORMAT_VERSION})"
        )
    width = _require_int(doc, "width", str(path))
    height = _require_int(doc, "height", str(path))
    alpha_min = _require_number(doc, "alpha_min", str(path))
    alpha_max = _require_number(doc, "alpha_max", str(path))
    raw_alpha = _require_field(doc, "alpha", str(path))
    if not isinstance(raw_alpha, list):
        raise MapFormatError(f"{path}: field 'alpha' must be an array")

    values = []
    for i, v in enumerate(raw_alpha):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise MapFormatError(f"{path}: alpha[{i}] is not a number: {v!r}")
        try:
            values.append(float(v))
        except OverflowError:
            raise MapFormatError(
                f"{path}: alpha[{i}] is too large for a float"
            ) from None
    try:
        return AlphaMap(width, height, values, alpha_min, alpha_max)
    except DomainError as exc:
        raise MapFormatError(f"{path}: {exc}") from exc
