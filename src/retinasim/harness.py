"""Run configuration, RNG stream management, and Monte Carlo orchestration.

A run is fully determined by a :class:`RunConfig` (which embeds the master
seed): every trial owns a counter-based generator derived from
``(master_seed, trial_index)``, so trials can execute in any order — or on
any number of workers — and still produce bit-identical per-trial results.
Aggregation folds the records in trial order: the counts and stopping-time
moments are integer sums that any order reproduces, while the drift sums
are floats that another order matches only to rounding.

Artifacts are plain text, written with stable key ordering and no
timestamps, so that re-running a configuration is byte-for-byte
reproducible and regression baselines can be diffed.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Sequence

import numpy as np

from .alpha_map import (
    AlphaMap,
    PointPair,
    UniformBands,
    generate_synthetic,
    inner_edges,
    load,
    require_support,
)
from .errors import (ConfigError, DomainError, InfeasibleError, MapFormatError,
                     MenuError, PlacementError, _count, _real)
from .photon_stats import DEFAULT_THRESHOLD, solve_q_intensity
from .strategy_bayes import (
    DEFAULT_MAX_ROUNDS,
    Outcome,
    Round,
    SequentialPlan,
    SequentialResult,
    design_wrong_probability,
    run_sequential,
)
from .strategy_naive import (
    NaiveResult,
    NaiveTestPlan,
    acceptance_counts,
    required_nu,
    run_naive,
)
from .strategy_pattern import (
    DEFAULT_CHALLENGE_INTENSITY,
    DEFAULT_HIGH_MIN,
    DEFAULT_LOW_MAX,
    DEFAULT_NOISE_SPOTS,
    PatternPlan,
    PatternResult,
    RecognitionRule,
    run_pattern_test,
)
from .strategy_serial import SerialPlan, SerialResult, run_serial, solve_w_N
from .subjects import SubjectModel, build_subject

__all__ = [
    "STRATEGIES",
    "RunConfig",
    "TrialRecord",
    "TrialStats",
    "RunContext",
    "trial_rng",
    "load_config",
    "prepare",
    "run_session",
    "run_trial",
    "merge_records",
    "write_artifacts",
    "montecarlo",
]

#: Most spots a synthetic map may hold (``map_width * map_height``): 80 MB
#: of transmission values, well inside what NumPy can allocate.
_MAX_MAP_SPOTS = 10**7

#: Each distribution name and the config fields that set its classes.
_DISTRIBUTION_FIELDS = {
    "point_pair": ("alpha_low", "alpha_high"),
    "uniform_bands": ("low_band", "high_band"),
}


#: Trial indices whose keys :func:`_key_block` computes in one call.  It
#: divides 2**32, so the indices of a block all have the same number of
#: 32-bit words, and hence one entropy layout.
_KEY_BLOCK = 256

#: ``np.random.SeedSequence``'s hash constants (O'Neill's ``seed_seq``
#: design) and its pool size, 4 words of 32 bits.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _words(n: int) -> list[int]:
    """The little-endian 32-bit words of ``n >= 0``; 0 is one word."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


@functools.lru_cache(maxsize=8, typed=True)
def _key_block(master_seed: int, block: int) -> np.ndarray:
    """Read-only ``(_KEY_BLOCK, 2)`` uint64 Philox keys of the trial indices
    ``block * _KEY_BLOCK`` onwards: row *r* is
    ``SeedSequence([master_seed, index]).generate_state(2, np.uint64)``.

    A port of ``SeedSequence``'s ``mix_entropy`` and ``generate_state`` to
    uint32 arrays, one lane per index.  The hash constants stay Python ints
    masked to 32 bits, so that no NumPy scalar product (which warns when it
    wraps) is ever formed; array products wrap silently."""
    # Every _Key is made right after a call here, and the first call in a
    # process computes a block; registering at import instead would import
    # numpy.random (~12 ms) into commands that draw nothing.
    np.random.bit_generator.ISpawnableSeedSequence.register(_Key)
    seed_words = _words(master_seed)
    entropy = [np.full(_KEY_BLOCK, w, np.uint32)
               for w in seed_words + _words(block * _KEY_BLOCK)]
    # The index's low word is the only one that varies within the block.
    entropy[len(seed_words)] += np.arange(_KEY_BLOCK, dtype=np.uint32)
    entropy += [np.zeros(_KEY_BLOCK, np.uint32)] * (_POOL_SIZE - len(entropy))
    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = []
    const = _INIT_B
    for word in pool:
        word = word ^ const
        const = const * _MULT_B & _MASK32
        word = word * const
        state.append((word ^ (word >> 16)).astype(np.uint64))
    keys = np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)
    keys.flags.writeable = False
    return keys


class _Key:
    """A trial's seed sequence as Philox reads it: one precomputed key.
    The real ``SeedSequence`` is built only when ``spawn`` or pickling asks
    for it, so both behave as they do on it; a pickled stream loads with
    that ``SeedSequence`` as its ``seed_seq``.
    :func:`_key_block` registers this class as a virtual subclass of NumPy's
    ``ISpawnableSeedSequence``, which Philox and ``spawn`` check for."""

    def __init__(self, master_seed: int, trial_index: int, key: np.ndarray) -> None:
        self._entropy = [master_seed, trial_index]
        self._key = key
        self._built = None

    def _sequence(self) -> np.random.SeedSequence:
        if self._built is None:
            self._built = np.random.SeedSequence(self._entropy)
        return self._built

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or dtype is not np.uint64:
            raise DomainError(f"a trial key holds 2 uint64 words, not {n_words} {dtype}")
        return self._key

    def spawn(self, n_children):
        return self._sequence().spawn(n_children)

    def __reduce__(self):
        return self._sequence().__reduce__()


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent counter-based stream for one trial.

    The stream is a fresh ``Generator`` on a fresh ``Philox`` with counter
    0, whose key is the first two uint64 words of
    ``np.random.SeedSequence([master_seed, trial_index])``: every draw is
    the one that sequence would give.  Streams for different
    ``(master_seed, trial_index)`` pairs never collide, and constructing
    stream *i* does not require constructing streams ``0..i-1`` first — the
    property that makes trial-level fan-out safe.

    Keys are computed :data:`_KEY_BLOCK` indices at a time and the 8 most
    recently used blocks are cached, so a sweep over ``0..N-1`` costs ~5 µs
    a stream plus ~0.15 ms a block.  A call that makes 5 streams or so
    about breaks even with building each ``SeedSequence``, and random
    access over many blocks is slower than that.  ``bit_generator.seed_seq``
    holds the key, not a ``SeedSequence``; ``spawn`` and pickling still
    behave as they do on the ``SeedSequence``.
    """
    master_seed = _count("seed", master_seed, 0)
    trial_index = _count("trial index", trial_index, 0)
    block, row = divmod(trial_index, _KEY_BLOCK)
    key = _Key(master_seed, trial_index, _key_block(master_seed, block)[row])
    return np.random.Generator(np.random.Philox(key))


#: The least value of each count field of :class:`RunConfig`, and the
#: interval of each real field that a range bounds.  A real field not named
#: here is bounded only by a relation to another, and must be finite.
_FIELD_RULES = {
    "trials": 1, "k": 1, "max_rounds": 1, "naive_mu": 1, "pattern_questions": 1,
    "pattern_menu": 2, "pattern_noise": 0, "pattern_miss_limit": 1,
    "pattern_noise_limit": 1, "map_width": 1, "map_height": 1, "master_seed": 0,
    "map_seed": 0, "walk_trace_limit": 0,
    "p_fp": "(0, 1)", "p_fn": "(0, 1)", "naive_p_c": "(0, 1)",
    "i_tilde": "[0, inf)", "pattern_i_tilde": "[0, inf)",
}


def _checked_kind(name: str, kind: str, value):
    """A config field's value, checked against its declared kind and its
    rule in :data:`_FIELD_RULES` and normalised; a pair may arrive as a JSON
    list.  A refusal is a :class:`DomainError`, which :class:`RunConfig`
    raises as a :class:`ConfigError`."""
    if value is None and kind.endswith(" | None"):
        return None
    kind = kind.removesuffix(" | None")
    label = f"field {name!r}"
    if kind == "int":
        return _count(label, value, _FIELD_RULES[name])
    if kind == "float":
        return _real(label, value, _FIELD_RULES.get(name, "(-inf, inf)"))
    if kind == "str":
        if isinstance(value, str):
            return value
        raise DomainError(f"{label} must be a string, got {value!r}")
    if not (isinstance(value, (tuple, list)) and len(value) == 2):
        raise DomainError(f"{label} must be a pair of numbers, got {value!r}")
    return tuple(_real(label, v, "(-inf, inf)") for v in value)


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce a run.

    The map source is either ``map_file`` or the synthetic spec
    (``map_width`` .. ``map_seed``); the interrogation distribution is either
    a two-point distribution at (``alpha_low``, ``alpha_high``) or uniform
    bands.  ``i_tilde=None`` means "solve the symmetric pulse intensity from
    the distribution's inner edges".  Strategy-specific knobs carry a
    strategy prefix and are ignored by the other strategies.  Every field is
    checked against its declared kind and range by the rules of
    :mod:`~retinasim.errors`; a violation raises :class:`ConfigError`
    naming the field.
    """

    strategy: str = "bayes"
    subject: str = "alice"
    p_fp: float = 1e-10
    p_fn: float = 1e-4
    map_file: str | None = None
    map_width: int = 100
    map_height: int = 100
    map_alpha_min: float = 0.02
    map_alpha_max: float = 0.18
    map_seed: int = 7
    distribution: str = "point_pair"
    alpha_low: float = 0.05
    alpha_high: float = 0.15
    low_band: tuple[float, float] = (0.02, 0.05)
    high_band: tuple[float, float] = (0.15, 0.18)
    k: int = DEFAULT_THRESHOLD
    trials: int = 5000
    master_seed: int = 20260816
    out_dir: str | None = None
    i_tilde: float | None = None
    max_rounds: int = DEFAULT_MAX_ROUNDS
    naive_mu: int = 50
    naive_p_c: float = 0.5
    pattern_questions: int = 6
    pattern_menu: int = 40
    pattern_noise: int = DEFAULT_NOISE_SPOTS
    pattern_miss_limit: int = 5
    pattern_noise_limit: int = 5
    pattern_i_tilde: float = DEFAULT_CHALLENGE_INTENSITY
    pattern_low_max: float = DEFAULT_LOW_MAX
    pattern_high_min: float = DEFAULT_HIGH_MIN
    walk_trace_limit: int = 100

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            try:
                value = _checked_kind(field.name, field.type, getattr(self, field.name))
            except DomainError as exc:
                raise ConfigError(f"bad config value: {exc}") from exc
            object.__setattr__(self, field.name, value)
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"field 'strategy' must be one of {tuple(STRATEGIES)}, "
                f"got {self.strategy!r}"
            )
        if self.distribution not in _DISTRIBUTION_FIELDS:
            raise ConfigError(
                f"field 'distribution' must be one of {tuple(_DISTRIBUTION_FIELDS)}, "
                f"got {self.distribution!r}"
            )
        try:
            distribution = self.distribution_object()
        except DomainError as exc:
            names = " and ".join(map(repr, _DISTRIBUTION_FIELDS[self.distribution]))
            raise ConfigError(f"fields {names}: {exc}") from exc
        if self.map_width * self.map_height > _MAX_MAP_SPOTS:
            raise ConfigError(
                f"fields 'map_width' and 'map_height' give "
                f"{self.map_width * self.map_height} spots, more than the "
                f"{_MAX_MAP_SPOTS} a synthetic map may hold"
            )
        if self.i_tilde is not None:
            q = design_wrong_probability(distribution, self.i_tilde, self.k)
            if not q < 0.5:
                raise ConfigError(
                    f"field 'i_tilde' = {self.i_tilde!r} gives the honest user "
                    f"wrong-answer probability {q:.6g}, not below 1/2"
                )
        low, high = self.pattern_low_max, self.pattern_high_min
        if not low < high:
            raise ConfigError(f"field 'pattern_low_max' must be below "
                              f"'pattern_high_min', got ({low!r}, {high!r})")
        low, high = self.map_alpha_min, self.map_alpha_max
        if not 0.0 < low < high <= 1.0:
            raise ConfigError(f"fields 'map_alpha_min' and 'map_alpha_max' must "
                              f"satisfy 0 < min < max <= 1, got ({low!r}, {high!r})")

    def distribution_object(self) -> UniformBands:
        if self.distribution == "point_pair":
            return PointPair(self.alpha_low, self.alpha_high)
        return UniformBands(self.low_band, self.high_band)

    def to_dict(self) -> dict:
        """The fields as a shallow dict, in field order, each band a list:
        every value but the bands is already immutable, so nothing is
        deep-copied."""
        doc = {name: getattr(self, name) for name in _CONFIG_FIELDS}
        doc["low_band"] = list(self.low_band)
        doc["high_band"] = list(self.high_band)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        unknown = sorted(set(doc).difference(_CONFIG_FIELDS))
        if unknown:
            raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
        return cls(**doc)


#: The field names of :class:`RunConfig`, in declaration order.
_CONFIG_FIELDS = tuple(field.name for field in dataclasses.fields(RunConfig))


def load_config(path: str | Path) -> RunConfig:
    """Read a JSON config file mirroring :class:`RunConfig` field for field."""
    data = Path(path).read_bytes()
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}: invalid JSON at line "
                          f"{exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # bytes in no UTF encoding, or an integer past the digit limit
        raise ConfigError(f"config file {path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path}: top level must be an object")
    return RunConfig.from_dict(doc)


# ---------------------------------------------------------------------------
# Trial execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one trial, sufficient for any aggregation."""

    trial: int
    accepted: bool
    timed_out: bool
    rounds: int
    final_log_odds: float | None = None
    boundary_violation: bool = False
    walk: tuple[Round, ...] | None = None


@dataclass(frozen=True)
class RunContext:
    """Immutable shared inputs for all trials of one run: the map, the
    solved plan, and the subject template.  Safe to share across workers;
    :func:`prepare` shares the map and plan with other runs of the process.
    ``i_tilde`` is the common pulse intensity of a bayes or serial run, and
    ``None`` for the others: a naive plan sets its own pulses, and a
    pattern run carries its intensity, with everything else its questions
    read, in ``pattern_plan``."""

    config: RunConfig
    alpha_map: AlphaMap
    distribution: UniformBands
    subject: SubjectModel
    i_tilde: float | None = None
    sequential_plan: SequentialPlan | None = None
    serial_plan: SerialPlan | None = None
    naive_plan: NaiveTestPlan | None = None
    pattern_plan: PatternPlan | None = None


#: Most synthetic maps :func:`_synthetic_map` keeps, and most plans
#: :func:`_cached_plan` keeps.  A map holds 8 bytes a spot (80 kB at the
#: default 100 x 100); a plan is a few hundred bytes, apart from the map a
#: pattern plan holds.
_MAPS_KEPT = 4
_PLANS_KEPT = 32


def _resolve_map(config: RunConfig) -> AlphaMap:
    """The run's map: ``map_file`` read anew on every call, so that an edit
    to the file is seen, or the synthetic map of ``map_width`` ..
    ``map_seed``, shared from :func:`_synthetic_map`."""
    if config.map_file is not None:
        try:
            return load(config.map_file)
        except MapFormatError as exc:
            raise MapFormatError(f"{exc}; change field 'map_file'") from exc
    return _synthetic_map(config.map_width, config.map_height, config.map_alpha_min,
                          config.map_alpha_max, config.map_seed)


@functools.lru_cache(maxsize=_MAPS_KEPT, typed=True)
def _synthetic_map(width: int, height: int, alpha_min: float, alpha_max: float,
                   seed: int) -> AlphaMap:
    """:func:`~retinasim.alpha_map.generate_synthetic`, once per set of its
    five inputs: every run on those inputs shares one immutable map, and
    with it the pattern class index cached per map object.  Making a map
    empties :func:`_cached_plan`, so that every cached plan is on a map this
    cache still holds and no evicted map is kept alive by a plan."""
    _cached_plan.cache_clear()
    return generate_synthetic(width, height, alpha_min, alpha_max, seed)


#: The :class:`RunConfig` fields that no entry's ``plan`` reads: a session's
#: seed and subject, the run's size and round cap, and where it writes.
_UNPLANNED_FIELDS = frozenset(
    {"master_seed", "trials", "out_dir", "walk_trace_limit", "subject", "max_rounds"})
_PLANNED_FIELDS = tuple(name for name in _CONFIG_FIELDS
                        if name not in _UNPLANNED_FIELDS)


class _PlanKey:
    """A config as a key of :func:`_cached_plan`: equal to another, and
    hashed, by the values of :data:`_PLANNED_FIELDS` and the sign of each
    float field among them, since ``-0.0 == 0.0`` but a plan may print the
    two apart (the band edges a plan reads are positive).  It carries its
    config, for the plan to read on a miss."""

    __slots__ = ("config", "_values", "_hash")

    def __init__(self, config: RunConfig) -> None:
        values = tuple([getattr(config, name) for name in _PLANNED_FIELDS])
        signs = tuple([math.copysign(1.0, v) for v in values if type(v) is float])
        self.config = config
        self._values = values, signs
        self._hash = hash(self._values)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _PlanKey) and self._values == other._values

    def __hash__(self) -> int:
        return self._hash


@functools.lru_cache(maxsize=_PLANS_KEPT, typed=True)
def _cached_plan(alpha_map: AlphaMap, key: _PlanKey) -> MappingProxyType:
    """The strategy entry's plan for ``key.config`` on a synthetic map,
    made once per map and :class:`_PlanKey`.  Plans are immutable, so runs
    that differ only in unplanned fields share one; a refusal is raised
    anew on every call, never cached."""
    config = key.config
    return MappingProxyType(STRATEGIES[config.strategy].plan(config, alpha_map))


def _operating_point(config: RunConfig, alpha_map: AlphaMap) -> tuple[float, float]:
    """``(q, i_tilde)`` the configured distribution runs at: the pulse
    intensity (``i_tilde`` when set, else solved symmetrically from the
    distribution's inner edges) and the honest user's worst-case
    wrong-answer probability at that intensity.  A map that does not cover
    the distribution is refused first, naming the config fields that would
    fix it."""
    distribution = config.distribution_object()
    try:
        require_support(alpha_map, distribution)
    except ConfigError as exc:
        source = ("'map_file'" if config.map_file is not None
                  else "'map_alpha_min' and 'map_alpha_max'")
        names = " and ".join(map(repr, _DISTRIBUTION_FIELDS[config.distribution]))
        raise ConfigError(
            f"{exc}; change fields {names}, "
            f"or {source}"
        ) from exc
    i_tilde = config.i_tilde
    if i_tilde is None:
        try:
            _q, i_tilde = solve_q_intensity(*inner_edges(distribution), config.k)
        except InfeasibleError as exc:
            names = ", ".join(map(repr, _DISTRIBUTION_FIELDS[config.distribution]))
            raise InfeasibleError(
                f"{exc}; change fields {names} or 'k', or set field 'i_tilde', "
                f"which skips this search"
            ) from exc
    return design_wrong_probability(distribution, i_tilde, config.k), i_tilde


#: Transcript rows ``identify`` prints for a bayes session; the rest are counted.
_TRANSCRIPT_CAP = 2000


class _Entry:
    """A strategy's entry in :data:`STRATEGIES`.  It owns ``plan(config,
    alpha_map)``: the checks, operating point and plan, as :class:`RunContext`
    fields; ``run(context, rng, record_transcript)``: one session;
    ``record(context, result, trial, want_walk)``: the trial record; and
    ``plan_line(context)`` and ``session_lines(context, result)``: the text
    ``identify`` prints.  Entries call the runners as this module's globals,
    so a wrapper set on ``harness.run_*`` sees every session."""

    asks_subject = True  # a session puts its rounds to the subject's answer law

    def record(self, context, result, trial, want_walk) -> TrialRecord:
        # Every result has ``accepted`` and ``rounds``; only bayes adds more.
        return TrialRecord(trial, result.accepted, timed_out=False,
                           rounds=result.rounds)


def _decision(result) -> str:
    return "accept" if result.accepted else "reject"


class _Naive(_Entry):
    def plan(self, config, alpha_map):
        if alpha_map.n_spots < config.naive_mu:
            raise ConfigError(f"field 'naive_mu' is {config.naive_mu} but the map "
                              f"has only {alpha_map.n_spots} spots")
        try:
            nu = required_nu(config.p_fp, config.p_fn, config.naive_mu, config.naive_p_c)
        except InfeasibleError as exc:
            raise InfeasibleError(f"{exc}; change fields 'naive_mu', 'naive_p_c', "
                                  f"'p_fp' or 'p_fn'") from exc
        n_l, n_r = acceptance_counts(config.naive_p_c, nu, config.p_fp, config.naive_mu)
        return {"naive_plan": NaiveTestPlan(nu=nu, mu=config.naive_mu,
                                            p_c=config.naive_p_c, n_l=n_l, n_r=n_r)}

    def run(self, context, rng, record_transcript):
        return run_naive(context.subject, context.alpha_map, context.naive_plan, rng,
                         k=context.config.k)

    def plan_line(self, context):
        plan = context.naive_plan
        return (f"plan: mu={plan.mu} spots, nu={plan.nu} pulses each, "
                f"window ({plan.n_l}, {plan.n_r}) around p_c={plan.p_c}")

    def session_lines(self, context, result):
        plan = context.naive_plan
        lines = [f"spot {n:>3}: {count:>5} seen  "
                 f"{'pass' if plan.n_l < count < plan.n_r else 'FAIL'}"
                 for n, count in enumerate(result.see_counts, start=1)]
        return lines + [f"outcome: {_decision(result)} "
                        f"({result.spots_tested} of {plan.mu} spots tested)"]


class _Serial(_Entry):
    def plan(self, config, alpha_map):
        q, i_tilde = _operating_point(config, alpha_map)
        w, n_rounds = solve_w_N(q, config.p_fp, config.p_fn)
        return {"i_tilde": i_tilde,
                "serial_plan": SerialPlan(q=q, w=w, n_rounds=n_rounds)}

    def run(self, context, rng, record_transcript):
        return run_serial(context.subject, context.alpha_map, context.serial_plan,
                          context.i_tilde, context.config.k, rng,
                          distribution=context.distribution)

    def plan_line(self, context):
        plan = context.serial_plan
        return (f"plan: i_tilde={context.i_tilde:.6g}  K={context.config.k}  "
                f"q={plan.q:.6g}  w={plan.w:.6g}  N={plan.n_rounds}")

    def session_lines(self, context, result):
        plan = context.serial_plan
        return [f"wrong answers: {result.wrong_answers} of {result.rounds} "
                f"(acceptance needs < {plan.w * plan.n_rounds:.2f})",
                f"outcome: {_decision(result)}"]


class _Bayes(_Entry):
    def plan(self, config, alpha_map):
        _q, i_tilde = _operating_point(config, alpha_map)
        return {"i_tilde": i_tilde, "sequential_plan": SequentialPlan.design(
            config.distribution_object(), config.p_fp, config.p_fn, i_tilde=i_tilde,
            k=config.k)}

    def run(self, context, rng, record_transcript):
        return run_sequential(context.subject, context.sequential_plan, rng,
                              max_rounds=context.config.max_rounds,
                              record_transcript=record_transcript)

    def record(self, context, result, trial, want_walk):
        """Adds the timeout flag, the final log odds, the walk, and whether
        the decision disagrees with the final log odds (a self-check)."""
        plan = context.sequential_plan
        log_odds = result.log_odds
        ln_x, ln_y = plan._log_thresholds
        if result.outcome is Outcome.ACCEPT:
            violation = not log_odds >= ln_y
        elif result.outcome is Outcome.REJECT:
            violation = not log_odds <= ln_x
        else:
            violation = not (ln_x < log_odds < ln_y)
        return TrialRecord(trial, result.accepted,
                           timed_out=result.outcome is Outcome.TIMEOUT,
                           rounds=result.rounds, final_log_odds=log_odds,
                           boundary_violation=violation,
                           walk=result.transcript if want_walk else None)

    def plan_line(self, context):
        plan = context.sequential_plan
        return (f"plan: i_tilde={plan.i_tilde:.6g}  K={plan.k}  p={plan.p:.6g}  "
                f"thresholds=({plan.x:.3g}, {plan.y:.3g})")

    def session_lines(self, context, result):
        lines = [f"{'n':>5} {'alpha':>10} {'S':>2} {'increment':>10} {'log_odds':>10}"]
        log_odds = 0.0
        for n, step in enumerate(result.transcript[:_TRANSCRIPT_CAP], start=1):
            log_odds += step.increment
            lines.append(f"{n:>5} {step.alpha:>10.6f} {int(step.saw):>2} "
                         f"{step.increment:>+10.4f} {log_odds:>+10.4f}")
        if result.rounds > _TRANSCRIPT_CAP:
            lines.append(f"... ({result.rounds - _TRANSCRIPT_CAP} more rounds)")
        return lines + [f"outcome: {result.outcome.value} after {result.rounds} "
                        f"rounds (final log odds {result.log_odds:+.4f})"]


#: The fields that would place a refused pattern challenge, by what the map
#: lacks (:class:`PlacementError`), for a synthetic map and for a map file.
_PLACEMENT_FIELDS = {
    "grid": ("raise fields 'map_width' and 'map_height'", "change field 'map_file'"),
    "high": ("lower field 'pattern_high_min' or raise field 'map_alpha_max'",
             "lower field 'pattern_high_min' or change field 'map_file'"),
    "noise": ("lower field 'pattern_noise' or raise field 'pattern_low_max'",) * 2,
}


class _Pattern(_Entry):
    asks_subject = False  # an impostor's pick is uniform over each menu

    def plan(self, config, alpha_map):
        rule = RecognitionRule(config.pattern_miss_limit, config.pattern_noise_limit)
        try:
            return {"pattern_plan": PatternPlan(
                alpha_map, config.pattern_questions, config.pattern_menu, rule,
                n_noise=config.pattern_noise, i_tilde=config.pattern_i_tilde,
                low_max=config.pattern_low_max, high_min=config.pattern_high_min)}
        except MenuError as exc:
            raise MenuError(f"{exc}; raise field 'pattern_noise' or lower field "
                            f"'pattern_menu'") from exc
        except PlacementError as exc:
            fields = _PLACEMENT_FIELDS[exc.shortfall][config.map_file is not None]
            raise PlacementError(f"{exc}; {fields}", exc.shortfall) from exc

    def run(self, context, rng, record_transcript):
        return run_pattern_test(context.subject, context.pattern_plan, rng)

    def plan_line(self, context):
        plan = context.pattern_plan
        return (f"plan: {plan.n_questions} questions, menu of {plan.n_entries}, "
                f"i_tilde={plan.i_tilde}")

    def session_lines(self, context, result):
        return [f"correct answers: {result.correct} of {result.questions}",
                f"outcome: {_decision(result)}"]


#: Each strategy name and its entry, in the order the CLI lists them.
STRATEGIES: dict[str, _Entry] = {
    "naive": _Naive(), "serial": _Serial(), "bayes": _Bayes(), "pattern": _Pattern(),
}


def prepare(config: RunConfig) -> RunContext:
    """Resolve the map, run the strategy's checks, solve its plan once, and
    freeze the shared inputs.  All per-trial randomness comes later, from
    :func:`trial_rng`.

    Set-up is cached per process.  A synthetic map is made once per set of
    its five fields (``map_width`` .. ``map_seed``), and the 4 most recently
    used maps are kept.  The plan on such a map is made once per map and
    set of the config fields that some entry's ``plan`` reads: every field
    but ``master_seed``, ``trials``, ``out_dir``, ``walk_trace_limit``,
    ``subject`` and ``max_rounds``.  The 32 most recently used plans are
    kept, and a new map drops them all.  A ``map_file`` is read, and its
    plan made, on every call, and a refusal is raised anew on every call.
    Maps and plans are immutable, so a cached one gives the same draws and
    records as a new one."""
    alpha_map = _resolve_map(config)
    if config.map_file is None:
        plan = _cached_plan(alpha_map, _PlanKey(config))
    else:
        plan = STRATEGIES[config.strategy].plan(config, alpha_map)
    try:
        subject = build_subject(config.subject, config.k)
    except ConfigError as exc:
        raise ConfigError(f"{exc}; change field 'subject'") from exc
    return RunContext(config, alpha_map, config.distribution_object(), subject, **plan)


def run_session(
    context: RunContext, rng: np.random.Generator, *, record_transcript: bool = True
) -> SequentialResult | SerialResult | NaiveResult | PatternResult:
    """Run one identification session of ``context.config.strategy`` on
    ``rng`` and return that strategy's own result; ``run_trial`` and the
    ``identify`` command both come through here.  ``record_transcript``
    matters to bayes only: it may change the draws after the session's
    exit, never the record."""
    return STRATEGIES[context.config.strategy].run(context, rng, record_transcript)


def run_trial(context: RunContext, trial_index: int) -> TrialRecord:
    """Execute one trial on its own RNG stream.  Pure in the shared context:
    calling it for any subset of indices, in any order, yields the same
    records as a full serial sweep."""
    config = context.config
    want_walk = trial_index < config.walk_trace_limit
    rng = trial_rng(config.master_seed, trial_index)
    result = run_session(context, rng, record_transcript=want_walk)
    return STRATEGIES[config.strategy].record(context, result, trial_index, want_walk)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialStats:
    """Aggregate of one Monte Carlo run.

    ``t_histogram`` covers terminated (non-timeout) trials only; ``drift_*``
    summarize the per-round log-odds increment over finite walks and are
    ``None`` for strategies without a log-odds walk.
    ``boundary_violations`` counts trials whose reported decision is
    inconsistent with the final log odds — a self-check that must be zero.
    """

    n_trials: int
    accepted: int
    rejected: int
    timed_out: int
    t_histogram: tuple[tuple[int, int], ...]
    t_mean: float | None
    t_stderr: float | None
    drift_mean: float | None
    drift_stderr: float | None
    boundary_violations: int

    def __post_init__(self) -> None:
        if self.accepted + self.rejected + self.timed_out != self.n_trials:
            raise DomainError("outcome counts must sum to the trial count")
        mass = sum(count for _t, count in self.t_histogram)
        if mass != self.accepted + self.rejected:
            raise DomainError("histogram mass must equal the terminated-trial count")


def merge_records(records: Iterable[TrialRecord]) -> TrialStats:
    """Fold trial records into summary statistics.  The counts and the
    histogram are integers, and ``t_mean`` and ``t_stderr`` come from the
    histogram's exact integer sums, so any order or partition of the
    records gives them bit for bit.  Each is one correctly rounded division
    of integers (``t_stderr`` the square root of one), so no difference of
    floats cancels, however large the stopping times are against their
    spread.  The drift sums are floats folded in the order given:
    :func:`montecarlo` passes trial order, which keeps its artifacts
    byte-identical, and another order agrees with it only to rounding."""
    n_trials = accepted = timed_out = violations = 0
    histogram: dict[int, int] = {}
    walk_trials: list[tuple[float, int]] = []
    for record in records:
        n_trials += 1
        accepted += record.accepted
        timed_out += record.timed_out
        violations += record.boundary_violation
        if not record.timed_out:
            histogram[record.rounds] = histogram.get(record.rounds, 0) + 1
        if record.final_log_odds is not None and math.isfinite(record.final_log_odds):
            walk_trials.append((record.final_log_odds, record.rounds))
    terminated = n_trials - timed_out
    if terminated > 0:
        t_sum = sum(t * count for t, count in histogram.items())
        t_sumsq = sum(t * t * count for t, count in histogram.items())
        t_mean = t_sum / terminated
        if terminated > 1:
            # The squared standard error, n Σt² - (Σt)² over n² (n - 1), is
            # a ratio of exact integers: one correctly rounded division.
            t_stderr = math.sqrt((terminated * t_sumsq - t_sum * t_sum)
                                 / (terminated * terminated * (terminated - 1)))
        else:
            t_stderr = 0.0
    else:
        t_mean = None
        t_stderr = None
    drift_mean = None
    drift_stderr = None
    total_rounds = sum(n for _f, n in walk_trials)
    if walk_trials and total_rounds > 0:
        drift_mean = sum(f for f, _n in walk_trials) / total_rounds
        # Cluster (per-trial) standard error of the ratio estimator.
        resid_sq = sum((f - drift_mean * n) ** 2 for f, n in walk_trials)
        drift_stderr = math.sqrt(resid_sq) / total_rounds
    return TrialStats(
        n_trials=n_trials,
        accepted=accepted,
        rejected=n_trials - accepted - timed_out,
        timed_out=timed_out,
        t_histogram=tuple(sorted(histogram.items())),
        t_mean=t_mean,
        t_stderr=t_stderr,
        drift_mean=drift_mean,
        drift_stderr=drift_stderr,
        boundary_violations=violations,
    )


# ---------------------------------------------------------------------------
# Artifact emission
# ---------------------------------------------------------------------------


#: Most log odds :func:`write_artifacts` keeps formatted: room for the sums
#: that point-pair walks revisit, while band walks, whose sums seldom
#: repeat, cost bounded memory.
_MEMO_ENTRIES = 4096


def write_artifacts(
    out_dir: str | Path,
    config: RunConfig,
    stats: TrialStats,
    records: Sequence[TrialRecord],
) -> list[Path]:
    """Emit summary.json, t_histogram.csv and (when some record has a walk)
    walks.csv into ``out_dir``, removing a walks.csv left there by an
    earlier run otherwise.  Output is deterministic: stable key order, no
    timestamps, shortest-roundtrip float formatting."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    # A shallow dict: json writes the histogram's tuples as the lists that
    # ``dataclasses.asdict`` would copy them into.
    fields = {field.name: getattr(stats, field.name)
              for field in dataclasses.fields(stats)}
    summary = {"config": config.to_dict(), "stats": fields}
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    written.append(summary_path)

    hist_path = out / "t_histogram.csv"
    lines = ["T,count"]
    lines += [f"{t},{count}" for t, count in stats.t_histogram]
    hist_path.write_text("\n".join(lines) + "\n")
    written.append(hist_path)

    walks_path = out / "walks.csv"
    texts = _walk_texts(records)
    first = next(texts, None)
    if first is None:
        walks_path.unlink(missing_ok=True)
    else:
        with walks_path.open("w") as walks:
            walks.write("trial,n,alpha,S,increment,log_odds\n")
            walks.write(first)
            walks.writelines(texts)
        written.append(walks_path)
    return written


def _walk_texts(records: Sequence[TrialRecord]) -> Iterator[str]:
    """The walks.csv rows of each traced walk, in trial order, one walk's
    text at a time, so that :func:`write_artifacts` holds at most one walk's
    rows."""
    # Each distinct log odds, formatted once.  Keyed by value: point-pair
    # walks revisit the same sums, and a sum folded from +0.0 is never -0.0.
    odds_text: dict[float, str] = {}
    for record in sorted(records, key=lambda r: r.trial):
        if record.walk is None:
            continue
        trial = record.trial
        # Each distinct round of the walk, its "alpha,S,increment" cell
        # formatted once.  Keyed by identity, not value: 0.0 == -0.0 and the
        # two hash alike.
        cells: dict[int, str] = {}
        rows = []
        append = rows.append
        log_odds = 0.0
        for n, step in enumerate(record.walk, start=1):
            cell = cells.get(id(step))
            if cell is None:
                cell = cells[id(step)] = (
                    f"{step.alpha!r},{int(step.saw)},{step.increment!r}"
                )
            log_odds += step.increment
            text = odds_text.get(log_odds)
            if text is None:
                text = repr(log_odds)
                if len(odds_text) < _MEMO_ENTRIES:
                    odds_text[log_odds] = text
            append(f"{trial},{n},{cell},{text}\n")
        yield "".join(rows)


def montecarlo(config: RunConfig) -> tuple[TrialStats, list[TrialRecord]]:
    """Run ``config.trials`` independent sessions and aggregate.

    Trials run serially here.  A parallel executor mapping :func:`run_trial`
    over the index range gives the same records, each depending only on
    ``(config, trial_index)``, but its drift statistics agree only to
    rounding unless merged in trial order (see :func:`merge_records`).
    Writes artifacts when ``config.out_dir`` is set.  Set-up goes through
    :func:`prepare`, so calls in one process that share a synthetic map and
    the planned fields (any ``master_seed``, ``trials``, ``subject``, ...)
    share one map and one plan, within its bounds of 4 maps and 32 plans.
    """
    context = prepare(config)
    records = [run_trial(context, i) for i in range(config.trials)]
    stats = merge_records(records)
    if config.out_dir is not None:
        write_artifacts(config.out_dir, config, stats, records)
    return stats, records
