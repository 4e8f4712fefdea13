"""Per-layer probes: fixed-size timed calls into each module's public functions.

Every traced run ends with these probes, so each workload's traced result
carries the same per-layer metrics.  Sizes are fixed (times ``--scale``) and
all inputs come from the run seed, so the counts repeat exactly for a seed.
Times are the median of a few repeats of a batch, divided by the batch size;
per-round kernel times are the self time of one span per session, with the
session's generator built outside the span.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from retinasim import (
    EveContext,
    PointPair,
    RecognitionRule,
    RunConfig,
    SequentialPlan,
    UniformBands,
    alice_response,
    build_challenge,
    candidate_menu,
    draw_interrogation_spot,
    generate_synthetic,
    glyph_library,
    gk,
    merge_records,
    montecarlo,
    optimize_intensity,
    parse_eve_strategy,
    prepare,
    recognize,
    required_nu,
    run_naive,
    run_sequential,
    run_serial,
    run_trial,
    simulate_perception,
    solve_q_intensity,
    solve_w_N,
    trial_rng,
    write_artifacts,
)
from retinasim.cli import main as cli_main

from tracing import Tracer, patched
from workloads import derive_seed

EVE_STRATEGIES = ("faircoin", "uniformp", "echo")
STRATEGIES = ("bayes", "serial", "naive", "pattern")
CLI_SUBCOMMANDS = ("help", "solve", "pattern", "bounds", "enroll", "identify", "montecarlo")

# Kernel probe cells: (strategy, cell, subject, distribution, transcript, trials).
KERNEL_CELLS = (
    ("bayes", "alice", "alice", "point_pair", False, 300),
    ("bayes", "eve-faircoin", "eve:faircoin", "point_pair", False, 500),
    ("bayes", "eve-uniformp", "eve:uniformp", "point_pair", False, 500),
    ("bayes", "eve-echo", "eve:echo", "point_pair", False, 500),
    ("bayes", "bands-alice", "alice", "uniform_bands", False, 150),
    ("bayes", "alice-transcript", "alice", "point_pair", True, 300),
    ("serial", "alice", "alice", "point_pair", False, 150),
    ("serial", "eve-faircoin", "eve:faircoin", "point_pair", False, 60),
    ("serial", "eve-uniformp", "eve:uniformp", "point_pair", False, 60),
    ("serial", "eve-echo", "eve:echo", "point_pair", False, 60),
    ("serial", "bands-alice", "alice", "uniform_bands", False, 60),
    ("naive", "alice", "alice", "point_pair", False, 100),
    ("naive", "eve-faircoin", "eve:faircoin", "point_pair", False, 5),
    ("naive", "eve-uniformp", "eve:uniformp", "point_pair", False, 100),
    ("naive", "eve-echo", "eve:echo", "point_pair", False, 200),
)

PATTERN_QUESTIONS = 60
MERGE_RECORDS = 100_000
ARTIFACT_TRIALS = 300
MEMORY_TRIALS = 200
PATTERN_TRIALS = {"alice": 30, "eve:faircoin": 120}


def _per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    rows = [(f"harness.prepare_ms.{s}", "ms", "lower") for s in STRATEGIES]
    rows += [
        ("harness.trial_rng_us", "us", "lower"),
        ("harness.trial_rng_calls_per_trial", "count", "lower"),
        ("harness.merge_records_ms", "ms", "lower"),
        ("harness.write_artifacts_ms", "ms", "lower"),
        ("harness.walk_rows_written", "count", "lower"),
        ("harness.bytes_per_record", "B", "lower"),
    ]
    for strategy, cell, *_ in KERNEL_CELLS:
        rows.append((f"strategy_{strategy}.round_us.{cell}", "us", "lower"))
    for strategy, cell, _subject, _dist, transcript, _n in KERNEL_CELLS:
        if not transcript:
            rows.append((f"strategy_{strategy}.rounds.{cell}", "count", "lower"))
    rows += [
        ("strategy_bayes.design_point_pair_ms", "ms", "lower"),
        ("strategy_bayes.design_bands_ms", "ms", "lower"),
        ("strategy_serial.solve_w_N_ms", "ms", "lower"),
        ("strategy_naive.required_nu_ms", "ms", "lower"),
        ("strategy_pattern.build_challenge_ms", "ms", "lower"),
        ("strategy_pattern.candidate_menu_ms", "ms", "lower"),
        ("strategy_pattern.simulate_perception_us", "us", "lower"),
        ("strategy_pattern.recognize_us", "us", "lower"),
        ("strategy_pattern.optimize_intensity_ms", "ms", "lower"),
        ("strategy_pattern.question_correct_ratio.alice", "ratio", "higher"),
        ("strategy_pattern.question_correct_ratio.eve-faircoin", "ratio", "higher"),
        ("subjects.alice_response_us", "us", "lower"),
    ]
    rows += [(f"subjects.eve_respond_us.{s}", "us", "lower") for s in EVE_STRATEGIES]
    rows += [
        ("alpha_map.generate_synthetic_ms", "ms", "lower"),
        ("alpha_map.draw_interrogation_spot_us", "us", "lower"),
        ("photon_stats.solve_q_intensity_us", "us", "lower"),
        ("photon_stats.gk_us", "us", "lower"),
        ("cli.import_s", "s", "lower"),
    ]
    rows += [(f"cli.main_s.{c}", "s", "lower") for c in CLI_SUBCOMMANDS]
    rows.append(("trace.overhead_s", "s", "lower"))
    return rows


PER_LAYER_ROWS = _per_layer()
PER_LAYER = {name: unit for name, unit, _better in PER_LAYER_ROWS}


def _scaled(n: int, scale: float) -> int:
    return max(1, int(round(n * scale)))


def _batch(fn, calls: int, repeats: int = 3) -> float:
    """Median over ``repeats`` of the mean seconds per call of ``fn(i)``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for i in range(calls):
            fn(i)
        times.append((time.perf_counter() - start) / calls)
    return statistics.median(times)


def _kernel(seed: int, scale: float, values: dict, tracer: Tracer) -> None:
    for position, (strategy, cell, subject, distribution, transcript, trials) in enumerate(
        KERNEL_CELLS
    ):
        config = RunConfig(strategy=strategy, subject=subject, distribution=distribution,
                           master_seed=derive_seed(seed, 7, position))
        context = prepare(config)
        span_name = f"strategy_{strategy}.{cell}"
        busy = 0.0
        rounds = 0
        for t in range(_scaled(trials, scale)):
            rng = trial_rng(config.master_seed, t)
            with tracer.span(span_name) as span:
                if strategy == "bayes":
                    result = run_sequential(context.subject, context.sequential_plan, rng,
                                            max_rounds=config.max_rounds,
                                            record_transcript=transcript)
                elif strategy == "serial":
                    result = run_serial(context.subject, context.alpha_map,
                                        context.serial_plan, context.i_tilde, config.k,
                                        rng, distribution=context.distribution)
                else:
                    result = run_naive(context.subject, context.alpha_map,
                                       context.naive_plan, rng, k=config.k)
            busy += span[5] - span[4]
            rounds += (result.spots_tested * context.naive_plan.nu
                       if strategy == "naive" else result.rounds)
        values[f"strategy_{strategy}.round_us.{cell}"] = 1e6 * busy / rounds
        if not transcript:
            values[f"strategy_{strategy}.rounds.{cell}"] = rounds


def _pattern(seed: int, scale: float, values: dict, tracer: Tracer) -> None:
    config = RunConfig(strategy="pattern", map_seed=derive_seed(seed, 0xA11CE) % (2**31))
    context = prepare(config)
    library = glyph_library()
    pool = sorted(library)
    rule = RecognitionRule(k=config.pattern_miss_limit, l=config.pattern_noise_limit)
    sums = {"build": 0.0, "menu": 0.0, "perceive": 0.0, "recognize": 0.0}
    questions = _scaled(PATTERN_QUESTIONS, scale)
    for q in range(questions):
        rng = trial_rng(derive_seed(seed, 11), q)
        glyph_id = pool[int(rng.integers(len(pool)))]
        with tracer.span("strategy_pattern.build_challenge") as span:
            challenge = build_challenge(
                context.alpha_map, library, glyph_id, config.pattern_noise, rng,
                i_tilde=config.pattern_i_tilde, low_max=config.pattern_low_max,
                high_min=config.pattern_high_min)
        sums["build"] += span[5] - span[4]
        with tracer.span("strategy_pattern.candidate_menu") as span:
            candidate_menu(challenge, library, config.pattern_menu, rng)
        sums["menu"] += span[5] - span[4]
        with tracer.span("strategy_pattern.simulate_perception") as span:
            perceived = simulate_perception(challenge, context.alpha_map, config.k, rng)
        sums["perceive"] += span[5] - span[4]
        with tracer.span("strategy_pattern.recognize") as span:
            recognize(perceived, challenge, rule)
        sums["recognize"] += span[5] - span[4]
    values["strategy_pattern.build_challenge_ms"] = 1e3 * sums["build"] / questions
    values["strategy_pattern.candidate_menu_ms"] = 1e3 * sums["menu"] / questions
    values["strategy_pattern.simulate_perception_us"] = 1e6 * sums["perceive"] / questions
    values["strategy_pattern.recognize_us"] = 1e6 * sums["recognize"] / questions

    for subject, trials in PATTERN_TRIALS.items():
        stats, records = montecarlo(dataclasses.replace(
            config, subject=subject, trials=_scaled(trials, scale),
            master_seed=derive_seed(seed, 12)))
        asked = sum(r.rounds for r in records)
        key = subject.replace(":", "-")
        values[f"strategy_pattern.question_correct_ratio.{key}"] = (
            (asked - stats.rejected) / asked)

    values["strategy_pattern.optimize_intensity_ms"] = 1e3 * _batch(
        lambda _i: optimize_intensity(25, 75, 5, 5, config.pattern_low_max,
                                      config.pattern_high_min, config.k, 6), 2)


def _harness(seed: int, scale: float, values: dict, work: Path) -> None:
    for strategy in STRATEGIES:
        config = RunConfig(strategy=strategy, master_seed=seed)
        values[f"harness.prepare_ms.{strategy}"] = 1e3 * _batch(
            lambda _i: prepare(config), 3)
    values["harness.trial_rng_us"] = 1e6 * _batch(lambda i: trial_rng(seed, i), 500)

    counter = Tracer()
    config = RunConfig(trials=_scaled(50, scale), master_seed=derive_seed(seed, 13))
    with patched(counter):
        montecarlo(config)
    values["harness.trial_rng_calls_per_trial"] = (
        counter.count("harness.trial_rng") / config.trials)

    # merge_records over MERGE_RECORDS records tiled from a real sample.
    _stats, sample = montecarlo(dataclasses.replace(config, trials=_scaled(200, scale)))
    n = _scaled(MERGE_RECORDS, scale)
    records = [dataclasses.replace(sample[i % len(sample)], trial=i) for i in range(n)]
    values["harness.merge_records_ms"] = 1e3 * _batch(lambda _i: merge_records(records), 1)
    del records

    trials = _scaled(ARTIFACT_TRIALS, scale)
    traced = RunConfig(trials=trials, walk_trace_limit=trials,
                       master_seed=derive_seed(seed, 14))
    stats, records = montecarlo(traced)
    out = work / "probe-artifacts"
    values["harness.write_artifacts_ms"] = 1e3 * _batch(
        lambda _i: write_artifacts(out, traced, stats, records), 1)
    with open(out / "walks.csv", "rb") as fh:
        values["harness.walk_rows_written"] = sum(1 for _ in fh) - 1
    del records

    memory = RunConfig(trials=_scaled(MEMORY_TRIALS, scale), walk_trace_limit=0,
                       master_seed=derive_seed(seed, 15))
    context = prepare(memory)
    run_trial(context, 0)  # first-call allocations are not per record
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [run_trial(context, i) for i in range(memory.trials)]
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    values["harness.bytes_per_record"] = (after - before) / len(kept)


def _solvers_and_subjects(seed: int, values: dict) -> None:
    config = RunConfig()
    k = config.k
    point_pair = PointPair(config.alpha_low, config.alpha_high)
    bands = UniformBands(config.low_band, config.high_band)
    q, i_tilde = solve_q_intensity(config.alpha_low, config.alpha_high, k)
    values["photon_stats.solve_q_intensity_us"] = 1e6 * _batch(
        lambda _i: solve_q_intensity(config.alpha_low, config.alpha_high, k), 10)
    values["photon_stats.gk_us"] = 1e6 * _batch(lambda i: gk(k, 3.0 + 1e-3 * i), 1000)
    values["strategy_bayes.design_point_pair_ms"] = 1e3 * _batch(
        lambda _i: SequentialPlan.design(point_pair, config.p_fp, config.p_fn, k=k), 5)
    values["strategy_bayes.design_bands_ms"] = 1e3 * _batch(
        lambda _i: SequentialPlan.design(bands, config.p_fp, config.p_fn, k=k), 5)
    values["strategy_serial.solve_w_N_ms"] = 1e3 * _batch(
        lambda _i: solve_w_N(q, config.p_fp, config.p_fn), 5)
    values["strategy_naive.required_nu_ms"] = 1e3 * _batch(
        lambda _i: required_nu(config.p_fp, config.p_fn, config.naive_mu,
                               config.naive_p_c), 5)
    values["alpha_map.generate_synthetic_ms"] = 1e3 * _batch(
        lambda i: generate_synthetic(config.map_width, config.map_height,
                                     config.map_alpha_min, config.map_alpha_max,
                                     derive_seed(seed, 16, i)), 3)
    alpha_map = generate_synthetic(config.map_width, config.map_height,
                                   config.map_alpha_min, config.map_alpha_max, seed)
    rng = trial_rng(derive_seed(seed, 17), 0)
    values["alpha_map.draw_interrogation_spot_us"] = 1e6 * _batch(
        lambda _i: draw_interrogation_spot(alpha_map, point_pair, rng), 2000)
    values["subjects.alice_response_us"] = 1e6 * _batch(
        lambda _i: alice_response(config.alpha_high, i_tilde, k, rng), 2000)
    contexts = [EveContext(round_index=i, photon_count=int(i_tilde)) for i in range(2000)]
    for name in EVE_STRATEGIES:
        session = parse_eve_strategy(name, k).session(rng)
        values[f"subjects.eve_respond_us.{name}"] = 1e6 * _batch(
            lambda i: session.respond(contexts[i], rng), len(contexts))


IMPORT_SCRIPT = """
import time
start = time.perf_counter()
import retinasim.cli
print(time.perf_counter() - start)
"""


def _cli(seed: int, values: dict, work: Path, env: dict) -> None:
    imports = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-c", IMPORT_SCRIPT], env=env, cwd=work,
                              capture_output=True, text=True, check=True, timeout=120)
        imports.append(float(proc.stdout.strip()))
    values["cli.import_s"] = statistics.median(imports)
    argvs = {
        "help": ["--help"],
        "solve": ["solve"],
        "pattern": ["pattern"],
        "bounds": ["bounds"],
        "enroll": ["enroll", "--seed", str(seed), "--out", str(work / "probe-enroll")],
        "identify": ["identify", "--seed", str(seed)],
        "montecarlo": ["montecarlo", "--trials", "200", "--seed", str(seed),
                       "--out", str(work / "probe-montecarlo")],
    }
    for name in CLI_SUBCOMMANDS:
        sink = io.StringIO()

        def call(_i, argv=argvs[name]):
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                cli_main(list(argv))

        values[f"cli.main_s.{name}"] = _batch(call, 1)


def run_all(seed: int, scale: float, work: Path, env: dict) -> tuple[dict, dict]:
    """Run every probe; return (metric values, sample counts)."""
    values: dict = {}
    tracer = Tracer()
    _kernel(seed, scale, values, tracer)
    _pattern(seed, scale, values, tracer)
    _harness(seed, scale, values, work)
    _solvers_and_subjects(seed, values)
    _cli(seed, values, work, env)
    samples = {
        "probe_spans": len(tracer.spans),
        "probe_pattern_questions": _scaled(PATTERN_QUESTIONS, scale),
        "probe_merge_records": _scaled(MERGE_RECORDS, scale),
        "probe_batch_repeats": 3,
    }
    missing = [name for name in PER_LAYER if name not in values and name != "trace.overhead_s"]
    if missing:
        raise RuntimeError(f"probes did not measure {missing}")
    return values, samples

