"""The four workloads, as cycles of operations, and their correctness checks.

An operation is one ``montecarlo(RunConfig)`` call or one ``retinasim`` CLI
subprocess.  A workload is a fixed cycle of operations run as a closed loop
(each starts when the previous one returned); a run repeats the cycle with
fresh seeds until its time is up.  Every input comes from the run's seed.

The checks are statistical, not digests, so a change that draws random
numbers in another order still passes them.  Each returns a list of failure
messages; an empty list means the operation is correct.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.stats import binom

from retinasim import (
    RunConfig,
    design_wrong_probability,
    distribution_support,
    gk,
    prepare,
    stopping_time_bounds,
)

# Two-sided tail probability below which an observed count is called wrong.
TAIL_ALPHA = 1e-6

# mc-walk cells: (strategy, subject, distribution, trials).  Trial counts make
# each cell take roughly 50 ms on a 2-CPU x86-64 VM (Python 3.11,
# NumPy 2.4) at the commit that added the benchmark: short operations, so a
# run sees each one many times (see fast_state_s in run.py).
MC_WALK_CELLS = (
    ("bayes", "alice", "point_pair", 200),
    ("bayes", "eve:faircoin", "point_pair", 360),
    ("bayes", "eve:uniformp", "point_pair", 300),
    ("bayes", "eve:echo", "point_pair", 340),
    ("serial", "alice", "point_pair", 120),
    ("serial", "eve:faircoin", "point_pair", 52),
    ("serial", "eve:uniformp", "point_pair", 60),
    ("serial", "eve:echo", "point_pair", 60),
    ("naive", "alice", "point_pair", 90),
    ("naive", "eve:faircoin", "point_pair", 5),
    ("naive", "eve:uniformp", "point_pair", 80),
    ("naive", "eve:echo", "point_pair", 180),
    ("bayes", "alice", "uniform_bands", 104),
    ("serial", "alice", "uniform_bands", 58),
)

# Pattern cells: every Eve strategy costs the same here, because Eve only
# picks uniformly from the menu.
MC_PATTERN_CELLS = (
    ("pattern", "alice", "point_pair", 5),
    ("pattern", "eve:faircoin", "point_pair", 24),
)

# Traced bayes cells: every trial keeps its transcript and walks.csv holds
# all of them.  Each runs twice per cycle to check byte-identical artifacts.
MC_TRACED_CELLS = (
    ("bayes", "alice", "point_pair", 300),
    ("bayes", "eve:echo", "point_pair", 600),
)

CLI_MC_TRIALS = 200


def derive_seed(*words: int) -> int:
    """A 63-bit seed determined by ``words`` (run seed, cycle, position)."""
    state = np.random.SeedSequence(list(words)).generate_state(2, dtype=np.uint32)
    return (int(state[0]) << 31) ^ int(state[1])


@dataclass
class Op:
    """One operation of a cycle.

    ``kind`` is ``"mc"`` (``config`` set) or ``"cli"`` (``argv`` set); ``name``
    labels it in reports and spans; ``repeat_of`` is the position of the
    operation, with the same configuration, whose artifacts this one must
    reproduce byte for byte.
    """

    kind: str
    name: str
    config: RunConfig | None = None
    argv: tuple[str, ...] = ()
    out_dir: Path | None = None
    repeat_of: int | None = None


def _cell_name(strategy: str, subject: str, distribution: str) -> str:
    dist = "bands" if distribution == "uniform_bands" else "pp"
    return f"{strategy}.{dist}.{subject.replace(':', '-')}"


def _scaled(trials: int, scale: float) -> int:
    return max(1, int(round(trials * scale)))


def cells_for(workload: str):
    return {
        "mc-walk": MC_WALK_CELLS,
        "mc-pattern": MC_PATTERN_CELLS,
        "mc-traced": MC_TRACED_CELLS,
    }[workload]


def setup_configs(workload: str, seed: int, scale: float) -> list[RunConfig]:
    """The configurations whose ``prepare()`` set-up time counts."""
    ops = build_cycle(workload, seed, 0, scale, None)
    return list(dict.fromkeys(op.config for op in ops))  # mc-traced repeats each


def build_cycle(
    workload: str, seed: int, cycle: int, scale: float, work_dir: Path | None
) -> list[Op]:
    """Operations of cycle ``cycle`` of ``workload`` for run seed ``seed``."""
    map_seed = derive_seed(seed, 0xA11CE) % (2**31)
    if workload == "cli":
        return _cli_cycle(seed, cycle, work_dir)
    ops: list[Op] = []
    for position, (strategy, subject, distribution, trials) in enumerate(
        cells_for(workload)
    ):
        name = _cell_name(strategy, subject, distribution)
        n = _scaled(trials, scale)
        out = work_dir / f"c{cycle}-{position}" if work_dir is not None else None
        config = RunConfig(
            strategy=strategy,
            subject=subject,
            distribution=distribution,
            trials=n,
            master_seed=derive_seed(seed, cycle, position),
            map_seed=map_seed,
            out_dir=str(out) if out is not None else None,
            walk_trace_limit=n if workload == "mc-traced" else 100,
        )
        ops.append(Op("mc", name, config=config))
        if workload == "mc-traced":
            ops.append(Op("mc", name, config=config, repeat_of=len(ops) - 1))
    return ops


def _cli_cycle(seed: int, cycle: int, work_dir: Path | None) -> list[Op]:
    base = work_dir if work_dir is not None else Path(".")

    def s(position: int) -> str:
        return str(derive_seed(seed, cycle, position) % (2**63))

    ops = [
        Op("cli", "help", argv=("--help",)),
        Op("cli", "solve", argv=("solve",)),
        Op("cli", "pattern", argv=("pattern",)),
        Op("cli", "bounds", argv=("bounds",)),
        Op("cli", "enroll", argv=("enroll", "--out", str(base / f"c{cycle}-enroll")),
           out_dir=base / f"c{cycle}-enroll"),
    ]
    for position, strategy in enumerate(("bayes", "serial", "naive", "pattern")):
        ops.append(Op("cli", f"identify.{strategy}.alice",
                      argv=("identify", "--strategy", strategy, "--subject", "alice",
                            "--seed", s(5 + position))))
    ops.append(Op("cli", "identify.bayes.eve-faircoin",
                  argv=("identify", "--subject", "eve:faircoin", "--seed", s(9))))
    out = base / f"c{cycle}-montecarlo"
    ops.append(Op("cli", "montecarlo",
                  argv=("montecarlo", "--trials", str(CLI_MC_TRIALS), "--seed", s(10),
                        "--out", str(out)),
                  out_dir=out))
    return ops


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def count_is_plausible(observed: int, n: int, p: float, *, exact: bool = False) -> bool:
    """Whether ``observed`` successes in ``n`` Bernoulli(``p``) draws are not
    too many, at tail level :data:`TAIL_ALPHA`.  ``p`` is an upper bound on
    the rate unless ``exact``, which also rejects too few."""
    if binom.sf(observed - 1, n, p) < TAIL_ALPHA:  # P[X >= observed]
        return False
    return not exact or binom.cdf(observed, n, p) >= TAIL_ALPHA


def naive_coin_accept_probability(context) -> float:
    """Exact acceptance probability of a fair-coin impostor in the per-spot
    test: every spot's count is Binomial(nu, 1/2) and must fall strictly
    inside the window."""
    plan = context.naive_plan
    per_spot = binom.cdf(plan.n_r - 1, plan.nu, 0.5) - binom.cdf(plan.n_l, plan.nu, 0.5)
    return float(per_spot) ** plan.mu


def check_mc(config: RunConfig, stats, rounds: int) -> list[str]:
    """Checks on one montecarlo() result."""
    problems: list[str] = []
    n = config.trials
    if stats.n_trials != n:
        problems.append(f"{stats.n_trials} trials reported, {n} asked")
    if stats.boundary_violations != 0:
        problems.append(f"{stats.boundary_violations} boundary violations")
    if stats.timed_out != 0:
        problems.append(f"{stats.timed_out} trials timed out")
    if rounds < n:
        problems.append(f"only {rounds} rounds over {n} trials")
    is_eve = config.subject.startswith("eve:")
    if config.strategy == "pattern":
        # Honest pattern sessions fail far more often than p_fn, at a rate
        # that depends on the map; the honest check is per run
        # (check_pattern_questions).
        if is_eve and stats.accepted != 0:
            problems.append(f"impostor accepted {stats.accepted} times")
        return problems
    if is_eve:
        if config.strategy == "naive" and config.subject == "eve:faircoin":
            # The per-spot window is centred on p_c = 1/2, which is exactly a
            # fair coin's answer rate: this impostor passes almost always.
            # Check the simulation against that exact law instead.
            p = naive_coin_accept_probability(prepare(config))
            if not count_is_plausible(stats.accepted, n, p, exact=True):
                problems.append(
                    f"fair-coin impostor accepted {stats.accepted}/{n}, exact law {p:.6g}"
                )
        elif stats.accepted != 0:
            problems.append(f"impostor accepted {stats.accepted} times")
    else:
        failed = stats.rejected + stats.timed_out
        if not count_is_plausible(failed, n, config.p_fn):
            problems.append(f"alice rejected {failed}/{n} times with p_fn={config.p_fn}")
    if config.strategy == "bayes" and stats.t_mean is not None:
        bound = bayes_stopping_bound(config)
        limit = bound + 4.0 * (stats.t_stderr or 0.0)
        if stats.t_mean > limit:
            problems.append(f"mean stopping time {stats.t_mean:.3f} > bound {bound:.3f} + 4 SE")
    return problems


def bayes_stopping_bound(config: RunConfig) -> float:
    """Closed-form E[T] bound for the configuration's subject."""
    context = prepare(config)
    distribution = context.distribution
    i_tilde = context.i_tilde
    q = design_wrong_probability(distribution, i_tilde, config.k)
    lo, hi = distribution_support(distribution)
    q_min = min(gk(config.k, lo * i_tilde), 1.0 - gk(config.k, hi * i_tilde))
    bound_alice, bound_eve = stopping_time_bounds(q, q_min, config.p_fp, config.p_fn)
    return bound_eve if config.subject.startswith("eve:") else bound_alice


def artifacts_identical(a: Path, b: Path) -> list[str]:
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return [f"artifact sets differ: {names_a} vs {names_b}"]
    return [f"{name} differs between the two runs" for name in names_a
            if (a / name).read_bytes() != (b / name).read_bytes()]


def walk_rows(out_dir: Path) -> int:
    """Data rows in walks.csv (0 when absent)."""
    path = out_dir / "walks.csv"
    if not path.exists():
        return 0
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


_OUTCOME = re.compile(r"^outcome: (accept|reject)", re.MULTILINE)

_CLI_MARKERS = {
    "help": "usage:",
    "solve": "operating point",
    "pattern": "pattern strategy",
    "bounds": "sequential-test bounds",
    "enroll": "enrolled map",
}


def check_cli(op: Op, returncode: int, stdout: str) -> tuple[list[str], dict]:
    """Checks on one CLI call; also returns facts for the run-level checks
    and metrics (the outcome of an identify call, a montecarlo summary)."""
    problems: list[str] = []
    facts: dict = {}
    if op.name in _CLI_MARKERS:
        if returncode != 0:
            problems.append(f"exit code {returncode}, expected 0")
        if _CLI_MARKERS[op.name] not in stdout:
            problems.append(f"output lacks {_CLI_MARKERS[op.name]!r}")
        if op.name == "enroll" and not (op.out_dir / "map.json").is_file():
            problems.append("map.json not written")
    elif op.name.startswith("identify."):
        match = _OUTCOME.search(stdout)
        outcome = match.group(1) if match else None
        expected = {"accept": 0, "reject": 1}.get(outcome)
        if expected is None or returncode != expected:
            problems.append(f"exit code {returncode} with outcome {outcome!r}")
        if op.name.endswith("eve-faircoin") and returncode != 1:
            problems.append(f"impostor exit code {returncode}, expected 1")
        facts["rejected"] = returncode == 1
    elif op.name == "montecarlo":
        if returncode != 0:
            problems.append(f"exit code {returncode}, expected 0")
        summary_path = op.out_dir / "summary.json"
        if not summary_path.is_file():
            problems.append("summary.json not written")
            return problems, facts
        doc = json.loads(summary_path.read_text())
        stats = doc["stats"]
        if stats["n_trials"] != CLI_MC_TRIALS:
            problems.append(f"{stats['n_trials']} trials reported")
        if stats["boundary_violations"] != 0:
            problems.append(f"{stats['boundary_violations']} boundary violations")
        failed = stats["rejected"] + stats["timed_out"]
        if not count_is_plausible(failed, CLI_MC_TRIALS, doc["config"]["p_fn"]):
            problems.append(f"alice rejected {failed}/{CLI_MC_TRIALS} times")
        facts["trials"] = stats["n_trials"]
        facts["rounds"] = sum(t * c for t, c in stats["t_histogram"])
    return problems, facts


def check_pattern_questions(correct: int, asked: int, menu: int) -> list[str]:
    """Run-level check: the honest user names the hidden glyph far more
    often than a uniform pick from the menu would."""
    if asked and binom.sf(correct - 1, asked, 1.0 / menu) >= TAIL_ALPHA:
        return [f"alice answered {correct} of {asked} pattern questions, "
                f"no better than chance (1/{menu})"]
    return []


def check_identify_rejections(rejections: int, calls: int, p_fn: float) -> list[str]:
    """Run-level check: honest identify rejections (bayes, serial, naive)
    stay within a binomial tolerance of p_fn."""
    if calls and not count_is_plausible(rejections, calls, p_fn):
        return [f"alice identify rejected {rejections}/{calls} times"]
    return []


def percentile_tail(values: list[float]) -> tuple[float, float]:
    """The highest nearest-rank percentile with at least ten samples beyond
    it, as ``(value, percentile)``; with fewer than 11 samples, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    rank = n - 10  # 1-based rank; ranks rank+1..n are the ten beyond it
    return ordered[rank - 1], 100.0 * rank / n


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
