"""Run configuration, RNG stream management, and Monte Carlo orchestration.

A run is fully determined by a :class:`RunConfig` (which embeds the master
seed): every trial owns a counter-based generator derived from
``(master_seed, trial_index)``, so trials can execute in any order — or on
any number of workers — and still produce bit-identical per-trial results.
Aggregation is a sum of per-trial records and therefore order-independent.

Artifacts are plain text, written with stable key ordering and no
timestamps, so that re-running a configuration is byte-for-byte
reproducible and regression baselines can be diffed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .alpha_map import (
    AlphaMap,
    PointPair,
    UniformBands,
    generate_synthetic,
    inner_edges,
    load,
)
from .errors import ConfigError, DomainError
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
    PatternResult,
    RecognitionRule,
    run_pattern_test,
)
from .strategy_serial import SerialPlan, SerialResult, run_serial, solve_w_N
from .subjects import (
    Adaptive,
    AliceSubject,
    EveContext,
    EveStrategy,
    EveSubject,
    FairCoin,
    FixedP,
    SubjectModel,
    UniformP,
)

__all__ = [
    "STRATEGIES",
    "RunConfig",
    "TrialRecord",
    "TrialStats",
    "RunContext",
    "trial_rng",
    "load_config",
    "parse_eve_strategy",
    "build_subject",
    "prepare",
    "run_session",
    "run_trial",
    "merge_records",
    "write_artifacts",
    "montecarlo",
]

STRATEGIES = ("naive", "serial", "bayes", "pattern")
_DISTRIBUTIONS = ("point_pair", "uniform_bands")


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent counter-based stream for one trial.

    Streams for different ``(master_seed, trial_index)`` pairs never collide,
    and constructing stream *i* does not require constructing streams
    ``0..i-1`` first — the property that makes trial-level fan-out safe.
    """
    if master_seed < 0 or trial_index < 0:
        raise DomainError(
            f"seed and trial index must be >= 0, got ({master_seed}, {trial_index})"
        )
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([master_seed, trial_index]))
    )


# Declared kind of a config field -> (accepted type, normaliser, noun).
_KINDS = {
    "str": (str, str, "a string"),
    "int": (numbers.Integral, int, "an integer"),
    "float": (numbers.Real, float, "a number"),
}


def _checked_kind(name: str, kind: str, value):
    """A config field's value checked against its declared kind and
    normalised.  Bools are refused where a number is declared; a float pair
    may arrive as a JSON list and becomes a tuple; ``| None`` admits None."""
    optional = kind.endswith(" | None")
    kind = kind.removesuffix(" | None")
    if value is None and optional:
        return None
    if kind == "tuple[float, float]":
        if isinstance(value, (tuple, list)) and len(value) == 2 and all(
            not isinstance(v, bool) and isinstance(v, numbers.Real) for v in value
        ):
            return float(value[0]), float(value[1])
        raise ConfigError(f"field {name!r} must be a pair of numbers, got {value!r}")
    expected, normalise, noun = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, expected):
        raise ConfigError(
            f"bad config value: field {name!r} must be {noun}, got {value!r}"
        )
    return normalise(value)


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce a run.

    The map source is either ``map_file`` or the synthetic spec
    (``map_width`` .. ``map_seed``); the interrogation distribution is either
    a two-point distribution at (``alpha_low``, ``alpha_high``) or uniform
    bands.  ``i_tilde=None`` means "solve the symmetric pulse intensity from
    the distribution's inner edges".  Strategy-specific knobs carry a
    strategy prefix and are ignored by the other strategies.  Every field is
    checked against its declared kind, then its range; a violation raises
    :class:`ConfigError` naming the field.
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
            value = _checked_kind(field.name, field.type, getattr(self, field.name))
            object.__setattr__(self, field.name, value)
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"field 'strategy' must be one of {STRATEGIES}, got {self.strategy!r}"
            )
        if self.distribution not in _DISTRIBUTIONS:
            raise ConfigError(
                f"field 'distribution' must be one of {_DISTRIBUTIONS}, "
                f"got {self.distribution!r}"
            )
        for name in ("p_fp", "p_fn", "naive_p_c"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise ConfigError(f"field {name!r} must lie in (0, 1), got {value!r}")
        for name, least in (
            ("trials", 1), ("k", 1), ("max_rounds", 1), ("naive_mu", 1),
            ("pattern_questions", 1), ("pattern_menu", 2), ("pattern_noise", 0),
            ("pattern_miss_limit", 1), ("pattern_noise_limit", 1),
            ("map_width", 1), ("map_height", 1),
            ("master_seed", 0), ("map_seed", 0), ("walk_trace_limit", 0),
        ):
            value = getattr(self, name)
            if value < least:
                raise ConfigError(f"field {name!r} must be >= {least}, got {value!r}")
        if not 0.0 <= self.pattern_i_tilde < math.inf:
            raise ConfigError(f"field 'pattern_i_tilde' must be finite and >= 0, "
                              f"got {self.pattern_i_tilde!r}")
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

    def operating_point(self) -> tuple[float, float]:
        """``(q, i_tilde)`` the configured distribution runs at: the pulse
        intensity (``i_tilde`` when set, else solved symmetrically from the
        distribution's inner edges) and the honest user's worst-case
        wrong-answer probability at that intensity."""
        distribution = self.distribution_object()
        if self.i_tilde is not None:
            i_tilde = self.i_tilde
        else:
            _q, i_tilde = solve_q_intensity(*inner_edges(distribution), self.k)
        return design_wrong_probability(distribution, i_tilde, self.k), i_tilde

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["low_band"] = list(self.low_band)
        doc["high_band"] = list(self.high_band)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
        return cls(**doc)


def load_config(path: str | Path) -> RunConfig:
    """Read a JSON config file mirroring :class:`RunConfig` field for field."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}: invalid JSON at line "
                          f"{exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path}: top level must be an object")
    return RunConfig.from_dict(doc)


# ---------------------------------------------------------------------------
# Subjects from command-line/config strings
# ---------------------------------------------------------------------------


def _echo_rule(threshold: int) -> Callable[[EveContext], float]:
    def rule(context: EveContext) -> float:
        count = context.photon_count
        return 1.0 if count is not None and count >= threshold else 0.0

    return rule


def parse_eve_strategy(spec: str, k: int) -> EveStrategy:
    """Build an impostor strategy from its textual name.

    Accepted: ``faircoin``, ``uniformp``, ``fixedp:<p>``, ``echo`` (answers
    "seen" exactly when her own detector count reaches the perception
    threshold — the most informed guess the information barrier allows).
    """
    if spec == "faircoin":
        return FairCoin()
    if spec == "uniformp":
        return UniformP()
    if spec == "echo":
        return Adaptive(_echo_rule(k))
    if spec.startswith("fixedp:"):
        try:
            p = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad probability in subject {spec!r}") from exc
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"probability in {spec!r} must lie in [0, 1]")
        return FixedP(p)
    raise ConfigError(
        f"unknown impostor strategy {spec!r} "
        f"(expected faircoin, uniformp, fixedp:<p> or echo)"
    )


def build_subject(kind: str, k: int) -> SubjectModel:
    """Build the subject model named by ``kind`` (``alice`` or ``eve:<strategy>``).

    The interactive subject is a front-end concern and deliberately not
    constructible here: bulk runs must be non-interactive.
    """
    if kind == "alice":
        return AliceSubject(k=k)
    if kind.startswith("eve:"):
        return EveSubject(strategy=parse_eve_strategy(kind[4:], k))
    raise ConfigError(
        f"unknown subject kind {kind!r} (expected alice or eve:<strategy>)"
    )


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
    solved plan, and the subject template.  Safe to share across workers."""

    config: RunConfig
    alpha_map: AlphaMap
    distribution: UniformBands
    subject: SubjectModel
    i_tilde: float
    sequential_plan: SequentialPlan | None = None
    serial_plan: SerialPlan | None = None
    naive_plan: NaiveTestPlan | None = None


def _resolve_map(config: RunConfig) -> AlphaMap:
    if config.map_file is not None:
        return load(config.map_file)
    return generate_synthetic(
        config.map_width,
        config.map_height,
        config.map_alpha_min,
        config.map_alpha_max,
        config.map_seed,
    )


def prepare(config: RunConfig) -> RunContext:
    """Resolve the map, solve the strategy's plan once, and freeze the
    shared inputs.  All per-trial randomness comes later, from
    :func:`trial_rng`."""
    alpha_map = _resolve_map(config)
    distribution = config.distribution_object()
    subject = build_subject(config.subject, config.k)
    q, i_tilde = config.operating_point()

    plans = {}
    if config.strategy == "bayes":
        plans["sequential_plan"] = SequentialPlan.design(
            distribution, config.p_fp, config.p_fn, i_tilde=i_tilde, k=config.k
        )
    elif config.strategy == "serial":
        w, n_rounds = solve_w_N(q, config.p_fp, config.p_fn)
        plans["serial_plan"] = SerialPlan(q=q, w=w, n_rounds=n_rounds)
    elif config.strategy == "naive":
        nu = required_nu(config.p_fp, config.p_fn, config.naive_mu, config.naive_p_c)
        n_l, n_r = acceptance_counts(config.naive_p_c, nu, config.p_fp, config.naive_mu)
        plans["naive_plan"] = NaiveTestPlan(
            nu=nu, mu=config.naive_mu, p_c=config.naive_p_c, n_l=n_l, n_r=n_r
        )
    return RunContext(
        config=config,
        alpha_map=alpha_map,
        distribution=distribution,
        subject=subject,
        i_tilde=i_tilde,
        **plans,
    )


def run_session(
    context: RunContext, rng: np.random.Generator, *, record_transcript: bool = True
) -> SequentialResult | SerialResult | NaiveResult | PatternResult:
    """Run one identification session of ``context.config.strategy`` on
    ``rng`` and return that strategy's own result.

    This is the one place a strategy name picks its runner; ``run_trial``
    and the ``identify`` command both come through here.
    ``record_transcript`` matters to bayes only and never changes the draws.
    """
    config = context.config
    if config.strategy == "bayes":
        return run_sequential(
            context.subject,
            context.sequential_plan,
            rng,
            max_rounds=config.max_rounds,
            record_transcript=record_transcript,
        )
    if config.strategy == "serial":
        return run_serial(
            context.subject,
            context.alpha_map,
            context.serial_plan,
            context.i_tilde,
            config.k,
            rng,
            distribution=context.distribution,
        )
    if config.strategy == "naive":
        return run_naive(
            context.subject, context.alpha_map, context.naive_plan, rng, k=config.k
        )
    return run_pattern_test(
        context.subject,
        context.alpha_map,
        config.pattern_questions,
        config.pattern_menu,
        RecognitionRule(k=config.pattern_miss_limit, l=config.pattern_noise_limit),
        rng,
        n_noise=config.pattern_noise,
        i_tilde=config.pattern_i_tilde,
        low_max=config.pattern_low_max,
        high_min=config.pattern_high_min,
    )


def run_trial(context: RunContext, trial_index: int) -> TrialRecord:
    """Execute one trial on its own RNG stream.  Pure in the shared context:
    calling it for any subset of indices, in any order, yields the same
    records as a full serial sweep."""
    config = context.config
    want_walk = trial_index < config.walk_trace_limit
    result = run_session(
        context,
        trial_rng(config.master_seed, trial_index),
        record_transcript=want_walk,
    )
    if config.strategy == "bayes":
        plan = context.sequential_plan
        log_odds = result.log_odds
        ln_x, ln_y = math.log(plan.x), math.log(plan.y)
        if result.outcome is Outcome.ACCEPT:
            violation = not log_odds >= ln_y
        elif result.outcome is Outcome.REJECT:
            violation = not log_odds <= ln_x
        else:
            violation = not (ln_x < log_odds < ln_y)
        return TrialRecord(
            trial=trial_index,
            accepted=result.outcome is Outcome.ACCEPT,
            timed_out=result.outcome is Outcome.TIMEOUT,
            rounds=result.rounds,
            final_log_odds=log_odds,
            boundary_violation=violation,
            walk=result.transcript if want_walk else None,
        )
    if config.strategy == "serial":
        rounds = result.rounds
    elif config.strategy == "naive":
        # The unit of work is one pulse; a session that stops at the first
        # failing spot has still spent nu pulses on each tested spot.
        rounds = result.spots_tested * context.naive_plan.nu
    else:
        rounds = result.questions if result.accepted else result.correct + 1
    return TrialRecord(
        trial=trial_index, accepted=result.accepted, timed_out=False, rounds=rounds
    )


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
    """Fold trial records into summary statistics.  Associative and
    order-independent: any partition of the records gives the same result."""
    n_trials = accepted = timed_out = violations = 0
    histogram: dict[int, int] = {}
    t_sum = 0.0
    t_sumsq = 0.0
    walk_trials: list[tuple[float, int]] = []
    for record in records:
        n_trials += 1
        accepted += record.accepted
        timed_out += record.timed_out
        violations += record.boundary_violation
        if not record.timed_out:
            histogram[record.rounds] = histogram.get(record.rounds, 0) + 1
            t_sum += record.rounds
            t_sumsq += record.rounds * record.rounds
        if record.final_log_odds is not None and math.isfinite(record.final_log_odds):
            walk_trials.append((record.final_log_odds, record.rounds))
    terminated = n_trials - timed_out
    if terminated > 0:
        t_mean = t_sum / terminated
        if terminated > 1:
            var = max(t_sumsq / terminated - t_mean * t_mean, 0.0)
            var *= terminated / (terminated - 1)
            t_stderr = math.sqrt(var / terminated)
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


def _stats_dict(stats: TrialStats) -> dict:
    doc = dataclasses.asdict(stats)
    doc["t_histogram"] = [[t, count] for t, count in stats.t_histogram]
    return doc


def write_artifacts(
    out_dir: str | Path,
    config: RunConfig,
    stats: TrialStats,
    records: Sequence[TrialRecord],
) -> list[Path]:
    """Emit summary.json, t_histogram.csv and (for walk strategies)
    walks.csv into ``out_dir``.  Output is deterministic: stable key order,
    no timestamps, shortest-roundtrip float formatting."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    summary = {"config": config.to_dict(), "stats": _stats_dict(stats)}
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    written.append(summary_path)

    hist_path = out / "t_histogram.csv"
    lines = ["T,count"]
    lines += [f"{t},{count}" for t, count in stats.t_histogram]
    hist_path.write_text("\n".join(lines) + "\n")
    written.append(hist_path)

    walk_rows = ["trial,n,alpha,S,increment,log_odds"]
    any_walk = False
    for record in sorted(records, key=lambda r: r.trial):
        if record.walk is None:
            continue
        any_walk = True
        log_odds = 0.0
        for n, step in enumerate(record.walk, start=1):
            log_odds += step.increment
            walk_rows.append(
                f"{record.trial},{n},{step.alpha!r},{int(step.saw)},"
                f"{step.increment!r},{log_odds!r}"
            )
    if any_walk:
        walks_path = out / "walks.csv"
        walks_path.write_text("\n".join(walk_rows) + "\n")
        written.append(walks_path)
    return written


def montecarlo(config: RunConfig) -> tuple[TrialStats, list[TrialRecord]]:
    """Run ``config.trials`` independent sessions and aggregate.

    Trials are executed serially here, but every record depends only on
    ``(config, trial_index)``, so a parallel executor mapping
    :func:`run_trial` over the index range is equivalent by construction.
    Writes artifacts when ``config.out_dir`` is set.
    """
    context = prepare(config)
    records = [run_trial(context, i) for i in range(config.trials)]
    stats = merge_records(records)
    if config.out_dir is not None:
        write_artifacts(config.out_dir, config, stats, records)
    return stats, records
