#!/usr/bin/env python3
"""retinasim benchmark: Monte Carlo throughput and CLI latency.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mc-walk --seed 1 --seconds 18 --trace 0

The package is used from outside only: ``montecarlo(RunConfig)`` calls in
this process and ``retinasim`` CLI subprocesses (through ``child.py``), with
``src/`` of the checkout on the path.  Load comes from this single process,
one operation at a time, with BLAS/OpenMP pinned to one thread.

``--trace 0`` times the workload and prints the end-to-end metrics.
``--trace 1`` alternates untraced and traced cycles of the same operations,
then runs the per-layer probes, and prints the per-layer metrics.  The last
line of standard output is the result object; the line before it is a report
with the environment, sample counts, failures and the traced self-time
roll-up.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

THREAD_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(THREAD_PINS)  # before NumPy is imported anywhere

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer, patched  # noqa: E402
from yardstick import REF_NOMINAL_S, Yardstick, machine_speed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("mc-walk", "mc-pattern", "mc-traced", "cli")

# End-to-end metrics: name -> unit.  ops_failed_frac is the result's
# failed / attempted, printed in the report (a metric here must never be 0);
# so are the observed call median and tail, see README.md.
END_TO_END = {
    "trials_per_s": "1/s",
    "rounds_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SETUP_REPEATS = 5
CALL_TIMEOUT_S = 150


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(SRC)
    return env


def child_call(args: list[str], cwd: Path) -> tuple[float, float, subprocess.CompletedProcess]:
    """Run ``child.py`` with ``args``.  Return the wall seconds without the
    child's yardstick, the child's mean yardstick seconds, and the result."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), *args],
        cwd=cwd,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CALL_TIMEOUT_S,
    )
    wall = time.perf_counter() - start
    lines = proc.stderr.strip().splitlines()
    refs = json.loads(lines[-1]) if lines and lines[-1].startswith("[") else []
    if not refs:
        raise RuntimeError(f"child process gave no yardstick: {proc.stderr.strip()[-400:]}")
    return wall - sum(refs), sum(refs) / len(refs), proc


def measure_setup(workload: str, seed: int, scale: float,
                  work: Path) -> tuple[list[float], list[float]]:
    """Seconds of fresh processes that import retinasim and prepare() every
    configuration of the workload (``retinasim --help`` for cli), and their
    yardstick times.  One untimed call first, so compiled bytecode exists."""
    from workloads import setup_configs

    if workload == "cli":
        args = ["cli", "--help"]
    else:
        docs = [c.to_dict() for c in setup_configs(workload, seed, scale)]
        args = ["prepare", json.dumps(docs)]
    samples, refs = [], []
    for i in range(SETUP_REPEATS + 1):
        wall, ref, proc = child_call(args, work)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-400:]}")
        if i:
            samples.append(wall)
            refs.append(ref)
    return samples, refs


def run_mc(op, tracer, first_out_dir: str | None = None) -> dict:
    from retinasim import montecarlo
    from workloads import artifacts_identical, check_mc, walk_rows

    result = {"name": op.name, "kind": "mc", "trials": op.config.trials}
    start = time.perf_counter()
    try:
        if tracer is None:
            stats, records = montecarlo(op.config)
        else:
            with patched(tracer), tracer.span("harness.montecarlo"):
                stats, records = montecarlo(op.config)
        result["wall_s"] = time.perf_counter() - start
        rounds = sum(r.rounds for r in records)
        del records
        result["rounds"] = rounds
        result["rejected"] = stats.rejected
        problems = check_mc(op.config, stats, rounds)
        out = Path(op.config.out_dir)
        if op.config.walk_trace_limit >= op.config.trials and op.config.strategy == "bayes":
            rows = walk_rows(out)
            if rows != rounds:
                problems.append(f"walks.csv has {rows} rows for {rounds} rounds")
        if first_out_dir is not None:
            first = Path(first_out_dir)
            problems += artifacts_identical(first, out)
            shutil.rmtree(first, ignore_errors=True)
            shutil.rmtree(out, ignore_errors=True)
    except Exception as exc:  # an operation that raises counts as failed
        result.setdefault("wall_s", time.perf_counter() - start)
        problems = [f"{type(exc).__name__}: {exc}"]
    result["problems"] = problems
    return result


def run_cli(op, tracer, work: Path) -> dict:
    from workloads import check_cli

    result = {"name": op.name, "kind": "cli"}
    try:
        with tracer.span(f"cli.{op.name}") if tracer else contextlib.nullcontext():
            wall, ref, proc = child_call(["cli", *op.argv], work)
        result["wall_s"] = wall
        result["ref_s"] = ref
        problems, facts = check_cli(op, proc.returncode, proc.stdout)
        result.update(facts)
    except (OSError, RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        result.setdefault("wall_s", float(CALL_TIMEOUT_S))
        problems = [f"{type(exc).__name__}: {exc}"]
    result["problems"] = problems
    return result


def run_cycle(workload: str, seed: int, cycle: int, scale: float, work: Path,
              tracer, yardstick: Yardstick) -> list[dict]:
    from workloads import build_cycle

    cycle_dir = work / f"cycle{cycle}{'-traced' if tracer else ''}"
    ops = build_cycle(workload, seed, cycle, scale, cycle_dir)
    results = []
    for op in ops:
        if tracer is not None:
            tracer.op += 1
        ref = yardstick() if op.kind == "mc" else None
        if op.kind == "mc":
            first = None
            if op.repeat_of is not None:
                # Same configuration, out_dir included: move the first
                # run's artifacts aside so both land in the same directory.
                first = op.config.out_dir + "-first"
                if Path(op.config.out_dir).exists():
                    Path(op.config.out_dir).rename(first)
            results.append(run_mc(op, tracer, first))
        else:
            results.append(run_cli(op, tracer, work))
        if "ref_s" not in results[-1]:  # a CLI call that failed before timing it
            results[-1]["ref_s"] = ref if ref is not None else yardstick()
    shutil.rmtree(cycle_dir, ignore_errors=True)
    return results


def environment(args) -> dict:
    import numpy
    import scipy

    import retinasim

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or "unknown"
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "retinasim": retinasim.__version__,
        "git_commit": commit,
        "thread_pins": THREAD_PINS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
    }


def normalized_s(results: list[dict]) -> float:
    """Summed wall time of ``results`` at nominal machine speed.

    On a host whose neighbours load shared cores, every operation slows by
    up to 2x for stretches of a few seconds.  The yardstick, timed right
    before each operation, slows with it, so the ratio of the two sums
    repeats from run to run where the raw sum does not (see README.md).
    """
    return sum(r["wall_s"] for r in results) * machine_speed([r["ref_s"] for r in results])


def end_to_end(workload: str, cycles: list[list[dict]], setup: list[float],
               setup_refs: list[float]) -> tuple:
    from workloads import median, percentile_tail

    results = [r for cycle in cycles for r in cycle]
    calls = [r["wall_s"] for r in results]
    tail, tail_pct = percentile_tail(calls)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(who).ru_maxrss
    busy = normalized_s(results)
    # On cli only the montecarlo call completes trials, but every call counts
    # towards the time: trials per second of the whole CLI session.
    trials = sum(r.get("trials", 0) for r in results)
    rounds = sum(r.get("rounds", 0) for r in results)
    values = {
        "trials_per_s": trials / busy,
        "rounds_per_s": rounds / busy,
        "wall_s": busy / len(cycles),
        "setup_s": median([w * REF_NOMINAL_S / r for w, r in zip(setup, setup_refs)]),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    observed = {
        "machine_speed": machine_speed([r["ref_s"] for r in results]),
        "machine_speed_setup": machine_speed(setup_refs),
        "trials_per_s": trials / sum(calls),
        "wall_s": median([sum(r["wall_s"] for r in cycle) for cycle in cycles]),
        "setup_s": median(setup),
        "call_p50_s": median(calls),
        "call_tail_s": tail,
        "call_tail_percentile": tail_pct,
    }
    samples = {
        "cycles": len(cycles),
        "calls": len(calls),
        "calls_per_type": len(calls) // len({r["name"] for r in results}),
        "setup_samples": len(setup),
    }
    return values, observed, samples


def run_level_problems(workload: str, cycles: list[list[dict]]) -> list[str]:
    """Checks that need the whole run: honest identify rejections (cli) and
    honest pattern answers (mc-pattern)."""
    from retinasim import RunConfig
    from workloads import check_identify_rejections, check_pattern_questions

    results = [r for cycle in cycles for r in cycle]
    if workload == "mc-pattern":
        honest = [r for r in results if r["name"] == "pattern.pp.alice" and "rounds" in r]
        asked = sum(r["rounds"] for r in honest)
        correct = asked - sum(r["rejected"] for r in honest)
        return check_pattern_questions(correct, asked, RunConfig().pattern_menu)
    if workload == "cli":
        honest = [r for r in results
                  if r["name"] in ("identify.bayes.alice", "identify.serial.alice",
                                   "identify.naive.alice") and "rejected" in r]
        rejections = sum(r["rejected"] for r in honest)
        return check_identify_rejections(rejections, len(honest), RunConfig().p_fn)
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply trial counts (the smoke tests use a small value)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.scale <= 0:
        parser.error("--seed must be >= 0, --seconds and --scale > 0")

    if not (SRC / "retinasim" / "__init__.py").is_file():
        print(f"error: no retinasim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import retinasim

    if Path(retinasim.__file__).resolve().parent != (SRC / "retinasim").resolve():
        print(f"error: imported retinasim from {retinasim.__file__}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path) -> int:
    from workloads import median

    report = {"environment": environment(args)}
    yardstick = Yardstick()
    setup, setup_refs = [], []
    if not args.trace:
        setup, setup_refs = measure_setup(args.workload, args.seed, args.scale, work)

    tracer = Tracer() if args.trace else None
    untraced: list[list[dict]] = []
    traced: list[list[dict]] = []
    start = time.perf_counter()
    cycle = 0
    while True:
        untraced.append(run_cycle(args.workload, args.seed, cycle, args.scale, work,
                                  None, yardstick))
        if tracer is not None:
            # The same operations again, traced, for the overhead figure.
            traced.append(run_cycle(args.workload, args.seed, cycle, args.scale, work,
                                    tracer, yardstick))
        cycle += 1
        if time.perf_counter() - start >= args.seconds:
            break
    timed_s = time.perf_counter() - start

    results = [r for c in untraced + traced for r in c]
    failures = [f"{r['name']}: {p}" for r in results for p in r["problems"]]
    failed = sum(1 for r in results if r["problems"])
    for problem in run_level_problems(args.workload, untraced + traced):
        failures.append(problem)
        failed = min(failed + 1, len(results))
    report.update({
        "attempted": len(results),
        "failed": failed,
        "ops_failed_frac": failed / len(results),
        "failures": failures[:50],
        "timed_section_s": timed_s,
    })

    if tracer is None:
        values, observed, samples = end_to_end(args.workload, untraced, setup, setup_refs)
        units = END_TO_END
        report["samples"] = samples
        report["observed"] = observed
        report["setup_samples_s"] = setup
        by_name: dict[str, list[float]] = {}
        for r in results:
            by_name.setdefault(r["name"], []).append(r["wall_s"])
        report["call_median_s"] = {name: median(v) for name, v in by_name.items()}
    else:
        import probes

        def cycle_wall(cycles):
            return normalized_s([r for c in cycles for r in c]) / len(cycles)

        rollup = tracer.rollup()
        tracer.dump(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
        layer_values, layer_samples = probes.run_all(args.seed, args.scale, work, child_env())
        values = dict(layer_values)
        values["trace.overhead_s"] = cycle_wall(traced) - cycle_wall(untraced)
        units = probes.PER_LAYER
        report["samples"] = {"cycle_pairs": len(traced), "spans": len(tracer.spans),
                             **layer_samples}
        report["self_time_rollup"] = {
            name: {"count": e["count"], "total_s": e["total_s"], "self_s": e["self_s"]}
            for name, e in sorted(rollup.items(), key=lambda kv: -kv[1]["self_s"])
        }
        report["untraced_wall_s"] = cycle_wall(untraced)
        report["traced_wall_s"] = cycle_wall(traced)

    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
