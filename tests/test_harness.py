"""Tests for run configuration, RNG stream management, and the Monte Carlo
driver: per-trial stream independence, config parsing and validation,
order-independent aggregation, and byte-reproducible artifacts."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from conftest import make_rng

from retinasim import (
    Adaptive,
    AliceSubject,
    ConfigError,
    DomainError,
    EveContext,
    EveSubject,
    FairCoin,
    FixedP,
    PlacementError,
    PointPair,
    RunConfig,
    TrialRecord,
    TrialStats,
    UniformP,
    build_subject,
    load_config,
    merge_records,
    montecarlo,
    parse_eve_strategy,
    prepare,
    run_trial,
    save,
    solve_q_intensity,
    stopping_time_bounds,
    trial_rng,
    write_artifacts,
)


class TestTrialRng:
    def test_same_stream_is_reproducible(self):
        a = trial_rng(123, 7).integers(2**62, size=8)
        b = trial_rng(123, 7).integers(2**62, size=8)
        assert np.array_equal(a, b)

    def test_trials_get_distinct_streams(self):
        draws = {
            idx: tuple(trial_rng(99, idx).integers(2**62, size=4)) for idx in range(50)
        }
        assert len(set(draws.values())) == 50

    def test_seed_and_index_are_not_interchangeable(self):
        a = trial_rng(1, 2).integers(2**62, size=4)
        b = trial_rng(2, 1).integers(2**62, size=4)
        assert not np.array_equal(a, b)

    def test_streams_need_no_predecessors(self):
        # stream 1000 is the same whether or not other streams were made
        direct = trial_rng(5, 1000).integers(2**62, size=4)
        for idx in range(10):
            trial_rng(5, idx)
        assert np.array_equal(trial_rng(5, 1000).integers(2**62, size=4), direct)

    @pytest.mark.parametrize("seed, index", [(-1, 0), (0, -1), (-5, -5)])
    def test_negative_arguments_rejected(self, seed, index):
        with pytest.raises(DomainError, match=">= 0"):
            trial_rng(seed, index)


class TestRunConfig:
    def test_defaults_are_valid(self):
        config = RunConfig()
        assert config.strategy == "bayes"
        assert config.subject == "alice"
        assert config.distribution == "point_pair"

    def test_dict_roundtrip(self):
        config = RunConfig(strategy="serial", trials=123, alpha_low=0.04)
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_json_roundtrip(self):
        config = RunConfig(
            strategy="pattern", subject="eve:uniformp", distribution="uniform_bands"
        )
        doc = json.loads(json.dumps(config.to_dict()))
        assert RunConfig.from_dict(doc) == config

    def test_bands_normalized_to_float_tuples(self):
        config = RunConfig.from_dict({"low_band": [0.02, 0.05]})
        assert config.low_band == (0.02, 0.05)
        assert isinstance(config.low_band, tuple)

    def test_unknown_fields_named_in_error(self):
        with pytest.raises(ConfigError, match=r"unknown config field\(s\): bogus, zz"):
            RunConfig.from_dict({"trials": 10, "zz": 1, "bogus": 2})

    def test_bad_value_type_reported(self):
        with pytest.raises(ConfigError, match="bad config value"):
            RunConfig.from_dict({"trials": "many"})

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            (dict(strategy="quantum"), "strategy"),
            (dict(distribution="gaussian"), "distribution"),
            (dict(p_fp=0.0), "p_fp"),
            (dict(p_fp=1.0), "p_fp"),
            (dict(p_fn=-0.1), "p_fn"),
            (dict(trials=0), "trials"),
            (dict(k=0), "k"),
            (dict(max_rounds=0), "max_rounds"),
            (dict(master_seed=-1), "master_seed"),
            (dict(walk_trace_limit=-1), "walk_trace_limit"),
            (dict(low_band=(0.02,)), "low_band"),
            (dict(high_band="wide"), "high_band"),
            (dict(pattern_noise=-5), "pattern_noise"),
            (dict(pattern_menu=1), "pattern_menu"),
            (dict(low_band=("0.02", 0.05)), "low_band"),
            (dict(k=6.0), "k"),
            (dict(i_tilde="62"), "i_tilde"),
            (dict(subject=None), "subject"),
            (dict(pattern_miss_limit=0), "pattern_miss_limit"),
            (dict(pattern_noise_limit=0), "pattern_noise_limit"),
            (dict(map_width=0), "map_width"),
            (dict(map_height=0), "map_height"),
            (dict(naive_p_c=0.0), "naive_p_c"),
            (dict(naive_p_c=1.5), "naive_p_c"),
            (dict(pattern_i_tilde=-1.0), "pattern_i_tilde"),
            (dict(pattern_i_tilde=math.inf), "pattern_i_tilde"),
            (dict(pattern_i_tilde=math.nan), "pattern_i_tilde"),
            (dict(pattern_low_max=0.2), "pattern_low_max"),
            (dict(pattern_low_max=0.16), "pattern_low_max"),
            (dict(pattern_high_min=0.01), "pattern_high_min"),
            (dict(map_alpha_min=0.0), "map_alpha_min"),
            (dict(map_alpha_min=0.5), "map_alpha_min"),
            (dict(map_alpha_max=1.5), "map_alpha_max"),
        ],
    )
    def test_field_validation(self, kwargs, fragment):
        with pytest.raises(ConfigError, match=fragment):
            RunConfig(**kwargs)


class TestLoadConfig:
    def test_reads_json_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"strategy": "serial", "trials": 77}))
        config = load_config(path)
        assert config.strategy == "serial"
        assert config.trials == 77

    def test_json_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "trials": ,\n}\n')
        with pytest.raises(ConfigError, match="line 2, column 13"):
            load_config(path)

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]\n")
        with pytest.raises(ConfigError, match="top level must be an object"):
            load_config(path)

    def test_unknown_field_in_file(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text('{"strategy": "bayes", "speed": 11}\n')
        with pytest.raises(ConfigError, match="speed"):
            load_config(path)


class TestParseEveStrategy:
    def test_named_strategies(self):
        assert isinstance(parse_eve_strategy("faircoin", 6), FairCoin)
        assert isinstance(parse_eve_strategy("uniformp", 6), UniformP)
        fixed = parse_eve_strategy("fixedp:0.3", 6)
        assert isinstance(fixed, FixedP)
        assert fixed.p == 0.3

    def test_echo_answers_from_detector_count(self):
        strategy = parse_eve_strategy("echo", 6)
        assert isinstance(strategy, Adaptive)
        session = strategy.session(make_rng(4501))
        rng = make_rng(4502)
        assert session.respond(EveContext(round_index=0, photon_count=6), rng)
        assert session.respond(EveContext(round_index=1, photon_count=99), rng)
        assert not session.respond(EveContext(round_index=2, photon_count=5), rng)
        assert not session.respond(EveContext(round_index=3, photon_count=None), rng)

    def test_echo_threshold_follows_k(self):
        session = parse_eve_strategy("echo", 9).session(make_rng(4503))
        rng = make_rng(4504)
        assert not session.respond(EveContext(round_index=0, photon_count=8), rng)
        assert session.respond(EveContext(round_index=0, photon_count=9), rng)

    @pytest.mark.parametrize("spec", ["fixedp:abc", "fixedp:", "fixedp:1.5", "fixedp:-0.1", "psychic"])
    def test_bad_strategies_rejected(self, spec):
        with pytest.raises(ConfigError):
            parse_eve_strategy(spec, 6)


class TestBuildSubject:
    def test_alice(self):
        subject = build_subject("alice", 6)
        assert isinstance(subject, AliceSubject)
        assert subject.k == 6

    def test_eve(self):
        subject = build_subject("eve:faircoin", 6)
        assert isinstance(subject, EveSubject)
        assert isinstance(subject.strategy, FairCoin)

    @pytest.mark.parametrize("kind", ["interactive", "bob", "eve", "eve:"])
    def test_other_kinds_rejected(self, kind):
        with pytest.raises(ConfigError):
            build_subject(kind, 6)


class TestPrepare:
    def test_bayes_context(self):
        context = prepare(RunConfig(strategy="bayes"))
        plan = context.sequential_plan
        assert plan is not None
        assert context.serial_plan is None
        assert context.naive_plan is None
        assert plan.x == pytest.approx(1e-4)
        assert plan.y == pytest.approx(1e10)
        _q, i_star = solve_q_intensity(0.05, 0.15, 6)
        assert context.i_tilde == pytest.approx(i_star, rel=1e-12)
        assert isinstance(context.subject, AliceSubject)

    def test_explicit_intensity_honored(self):
        context = prepare(RunConfig(strategy="bayes", i_tilde=62.4))
        assert context.i_tilde == 62.4
        assert context.sequential_plan.i_tilde == 62.4

    def test_serial_plan_at_defaults(self):
        # the solved intensity makes both error sides equal, and the round
        # count lands on the published 138
        context = prepare(RunConfig(strategy="serial"))
        plan = context.serial_plan
        assert plan is not None
        q_star, _ = solve_q_intensity(0.05, 0.15, 6)
        assert plan.q == pytest.approx(q_star, rel=1e-9)
        assert plan.n_rounds == 138

    def test_naive_plan_at_published_point(self):
        context = prepare(RunConfig(strategy="naive"))
        plan = context.naive_plan
        assert plan is not None
        assert plan.nu == 50
        assert plan.mu == 50
        assert (plan.n_l, plan.n_r) == (9, 42)

    def test_pattern_context(self):
        # a pattern run needs no plan: its questions come from the map and
        # the config alone
        context = prepare(RunConfig(strategy="pattern"))
        assert context.sequential_plan is None
        assert context.serial_plan is None
        assert context.naive_plan is None
        assert context.alpha_map.width == 100
        assert [f.name for f in dataclasses.fields(context)] == [
            "config", "alpha_map", "distribution", "subject", "i_tilde",
            "sequential_plan", "serial_plan", "naive_plan",
        ]

    def test_pattern_run_on_map_below_glyph_grid(self):
        config = RunConfig(strategy="pattern", map_width=4, map_height=4, trials=3)
        with pytest.raises(PlacementError, match="smaller than the 5x7 glyph grid"):
            montecarlo(config)

    def test_uniform_bands_solves_from_inner_edges(self):
        context = prepare(RunConfig(distribution="uniform_bands"))
        _q, i_star = solve_q_intensity(0.05, 0.15, 6)
        assert context.i_tilde == pytest.approx(i_star, rel=1e-12)
        assert context.distribution.low_band == (0.02, 0.05)

    def test_map_file_roundtrip(self, tmp_path, default_map):
        path = tmp_path / "map.json"
        save(default_map, path)
        context = prepare(RunConfig(map_file=str(path)))
        assert context.alpha_map.width == default_map.width
        assert np.allclose(context.alpha_map.alpha, default_map.alpha)

    def test_eve_subject_from_config(self):
        context = prepare(RunConfig(subject="eve:fixedp:0.25"))
        assert isinstance(context.subject, EveSubject)
        assert context.subject.strategy == FixedP(0.25)


class TestRunTrial:
    def test_bayes_trial_is_reproducible(self):
        context = prepare(RunConfig(strategy="bayes", master_seed=4505))
        a = run_trial(context, 3)
        b = run_trial(context, 3)
        assert a == b
        assert a.trial == 3
        assert a.rounds >= 1
        assert not a.boundary_violation

    def test_walk_recorded_only_below_trace_limit(self):
        context = prepare(RunConfig(strategy="bayes", walk_trace_limit=5, master_seed=4506))
        with_walk = run_trial(context, 4)
        without = run_trial(context, 5)
        assert with_walk.walk is not None
        assert len(with_walk.walk) == with_walk.rounds
        assert without.walk is None

    def test_bayes_walk_sums_to_final_log_odds(self):
        context = prepare(RunConfig(strategy="bayes", master_seed=4507))
        record = run_trial(context, 0)
        assert record.walk is not None
        total = sum(step.increment for step in record.walk)
        assert total == pytest.approx(record.final_log_odds, abs=1e-9)

    def test_naive_rounds_count_pulses(self):
        context = prepare(RunConfig(strategy="naive", master_seed=4508))
        record = run_trial(context, 0)
        plan = context.naive_plan
        assert record.rounds % plan.nu == 0
        assert 1 <= record.rounds // plan.nu <= plan.mu
        assert record.final_log_odds is None
        assert record.walk is None

    def test_serial_trial_fields(self):
        context = prepare(RunConfig(strategy="serial", master_seed=4509))
        record = run_trial(context, 0)
        assert record.rounds == context.serial_plan.n_rounds
        assert not record.timed_out

    def test_pattern_trial_counts_questions_asked(self):
        config = RunConfig(strategy="pattern", subject="eve:faircoin", master_seed=4510)
        context = prepare(config)
        records = [run_trial(context, i) for i in range(40)]
        assert all(1 <= r.rounds <= config.pattern_questions for r in records)
        # an impostor almost always exits on the first wrong answer
        assert sum(r.rounds == 1 for r in records) > 30


class TestMergeRecords:
    def test_exact_aggregation(self):
        records = [
            TrialRecord(trial=0, accepted=True, timed_out=False, rounds=3),
            TrialRecord(trial=1, accepted=False, timed_out=False, rounds=5),
            TrialRecord(trial=2, accepted=False, timed_out=True, rounds=9),
        ]
        stats = merge_records(records)
        assert stats.n_trials == 3
        assert (stats.accepted, stats.rejected, stats.timed_out) == (1, 1, 1)
        assert stats.t_histogram == ((3, 1), (5, 1))
        assert stats.t_mean == pytest.approx(4.0)
        # sample variance of {3, 5} is 2 -> stderr sqrt(2 / 2) = 1
        assert stats.t_stderr == pytest.approx(1.0)
        assert stats.boundary_violations == 0

    def test_drift_is_a_ratio_estimator(self):
        records = [
            TrialRecord(0, True, False, rounds=4, final_log_odds=2.0),
            TrialRecord(1, True, False, rounds=6, final_log_odds=4.0),
        ]
        stats = merge_records(records)
        assert stats.drift_mean == pytest.approx(6.0 / 10.0)
        resid = (2.0 - 0.6 * 4) ** 2 + (4.0 - 0.6 * 6) ** 2
        assert stats.drift_stderr == pytest.approx(math.sqrt(resid) / 10.0)

    def test_infinite_final_odds_excluded_from_drift(self):
        records = [
            TrialRecord(0, False, False, rounds=2, final_log_odds=-math.inf),
        ]
        stats = merge_records(records)
        assert stats.drift_mean is None
        assert stats.t_histogram == ((2, 1),)

    def test_order_independence(self):
        config = RunConfig(strategy="bayes", trials=60, master_seed=4511)
        context = prepare(config)
        records = [run_trial(context, i) for i in range(config.trials)]
        serial = merge_records(records)
        shuffled = merge_records([records[i] for i in np.random.Philox(0).random_raw(60).argsort()])
        assert shuffled.n_trials == serial.n_trials
        assert shuffled.accepted == serial.accepted
        assert shuffled.t_histogram == serial.t_histogram
        assert shuffled.t_mean == pytest.approx(serial.t_mean, rel=1e-12)
        assert shuffled.drift_mean == pytest.approx(serial.drift_mean, rel=1e-12)

    def test_empty_input(self):
        stats = merge_records([])
        assert stats.n_trials == 0
        assert stats.t_mean is None
        assert stats.drift_mean is None

    def test_timeout_only_input(self):
        stats = merge_records([TrialRecord(0, False, True, rounds=7)])
        assert stats.t_mean is None
        assert stats.t_histogram == ()

    def test_stats_invariants_enforced(self):
        with pytest.raises(DomainError, match="sum to the trial count"):
            TrialStats(
                n_trials=2, accepted=1, rejected=0, timed_out=0,
                t_histogram=((3, 1),), t_mean=3.0, t_stderr=0.0,
                drift_mean=None, drift_stderr=None, boundary_violations=0,
            )
        with pytest.raises(DomainError, match="histogram mass"):
            TrialStats(
                n_trials=2, accepted=1, rejected=1, timed_out=0,
                t_histogram=((3, 1),), t_mean=3.0, t_stderr=0.0,
                drift_mean=None, drift_stderr=None, boundary_violations=0,
            )


@pytest.fixture(scope="module")
def bayes_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bayes_run")
    config = RunConfig(
        strategy="bayes", trials=120, walk_trace_limit=15,
        master_seed=4512, out_dir=str(out),
    )
    stats, records = montecarlo(config)
    return config, stats, records, out


class TestArtifacts:

    def test_expected_files(self, bayes_run):
        _config, _stats, _records, out = bayes_run
        assert (out / "summary.json").exists()
        assert (out / "t_histogram.csv").exists()
        assert (out / "walks.csv").exists()

    def test_summary_roundtrips_config_and_stats(self, bayes_run):
        config, stats, _records, out = bayes_run
        doc = json.loads((out / "summary.json").read_text())
        assert doc["config"] == json.loads(json.dumps(config.to_dict()))
        assert doc["stats"]["accepted"] == stats.accepted
        assert doc["stats"]["boundary_violations"] == 0
        assert doc["stats"]["n_trials"] == 120

    def test_histogram_mass(self, bayes_run):
        _config, stats, _records, out = bayes_run
        lines = (out / "t_histogram.csv").read_text().splitlines()
        assert lines[0] == "T,count"
        mass = sum(int(line.split(",")[1]) for line in lines[1:])
        assert mass == stats.accepted + stats.rejected

    def test_walk_trace_covers_early_trials_only(self, bayes_run):
        config, _stats, records, out = bayes_run
        lines = (out / "walks.csv").read_text().splitlines()
        assert lines[0] == "trial,n,alpha,S,increment,log_odds"
        rows = [line.split(",") for line in lines[1:]]
        trials = sorted({int(r[0]) for r in rows})
        assert trials == list(range(config.walk_trace_limit))
        # per-trial row count equals the recorded round count, and the
        # running log odds ends at the trial's final value
        for trial in (0, 7, 14):
            trial_rows = [r for r in rows if int(r[0]) == trial]
            assert [int(r[1]) for r in trial_rows] == list(
                range(1, records[trial].rounds + 1)
            )
            assert float(trial_rows[-1][5]) == pytest.approx(
                records[trial].final_log_odds, abs=1e-9
            )
            assert all(r[3] in ("0", "1") for r in trial_rows)

    def test_rerun_is_byte_identical(self, bayes_run):
        config, _stats, _records, out = bayes_run
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        montecarlo(config)
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert before == after

    def test_no_walk_file_for_strategies_without_walks(self, tmp_path):
        config = RunConfig(
            strategy="serial", trials=25, master_seed=4513, out_dir=str(tmp_path)
        )
        montecarlo(config)
        assert (tmp_path / "summary.json").exists()
        assert not (tmp_path / "walks.csv").exists()

    def test_write_artifacts_returns_written_paths(self, tmp_path):
        config = RunConfig(strategy="bayes", trials=10, master_seed=4514)
        context = prepare(config)
        records = [run_trial(context, i) for i in range(10)]
        stats = merge_records(records)
        written = write_artifacts(tmp_path, config, stats, records)
        assert [p.name for p in written] == ["summary.json", "t_histogram.csv", "walks.csv"]


class TestMontecarlo:
    def test_honest_bayes_run(self):
        config = RunConfig(strategy="bayes", trials=150, master_seed=4515)
        stats, records = montecarlo(config)
        assert len(records) == 150
        assert [r.trial for r in records] == list(range(150))
        assert stats.accepted >= 148
        assert stats.timed_out == 0
        assert stats.boundary_violations == 0
        bound_alice, _ = stopping_time_bounds(
            0.09609142535110174, 0.09609142535110174, 1e-10, 1e-4
        )
        assert stats.t_mean < bound_alice + 3 * stats.t_stderr

    def test_impostor_bayes_run(self):
        config = RunConfig(
            strategy="bayes", subject="eve:faircoin", trials=150, master_seed=4516
        )
        stats, _records = montecarlo(config)
        assert stats.accepted == 0
        assert stats.timed_out == 0
        assert stats.boundary_violations == 0

    def test_impostor_pattern_run(self):
        config = RunConfig(
            strategy="pattern", subject="eve:uniformp", trials=100, master_seed=4517
        )
        stats, _records = montecarlo(config)
        assert stats.accepted == 0
        assert set(dict(stats.t_histogram)) <= set(range(1, 7))

    def test_honest_naive_run(self):
        config = RunConfig(strategy="naive", trials=60, master_seed=4518)
        stats, _records = montecarlo(config)
        assert stats.accepted >= 58
        assert stats.t_mean == pytest.approx(50 * 50, abs=2 * 50)


# Digests of the artifacts of small runs.  A mismatch means the per-trial RNG
# consumption (and with it every record) changed; if that is deliberate, the
# reproducibility contract in README.md must be restated along with the pins.
_PINNED_CELLS = [
    (strategy, subject, distribution)
    for strategy in ("bayes", "serial", "naive", "pattern")
    for subject in ("alice", "eve:uniformp", "eve:echo")
    for distribution in ("point_pair", "uniform_bands")
]
_PINNED_TRIALS = {"bayes": 30, "serial": 20, "naive": 10, "pattern": 2}
_PINNED_DIGESTS = {
    ("bayes", "alice", "point_pair"): (
        "a879198a4dfcc2cb16acf75fc3136bc102e33146b22a757587402b596568a329"
    ),
    ("bayes", "alice", "uniform_bands"): (
        "2065c7cac420a889807ced1fa5f5e55bb994485143d2797f458bcd30e5e0e774"
    ),
    ("bayes", "eve:uniformp", "point_pair"): (
        "eece9a7f553a07490718d8d18a18a31ae3e559cf79b6685c1b783494d4b7eb59"
    ),
    ("bayes", "eve:uniformp", "uniform_bands"): (
        "986e79b374b9cf27332b17f8938dec3c2094fbd90344489b66a15343073d91d4"
    ),
    ("bayes", "eve:echo", "point_pair"): (
        "f884b4681d01c488f91cbd70e2db3c10d48e38bc00a8b4c542fd412cc37ba0c2"
    ),
    ("bayes", "eve:echo", "uniform_bands"): (
        "82c3f47b5ce361d1c87fd56b274abd68e00091509dd41619f25f1669eb2c0918"
    ),
    ("serial", "alice", "point_pair"): (
        "3d45f361316da1346ef934f3c79c96500cc43028171fa9552e6643e0121bdeea"
    ),
    ("serial", "alice", "uniform_bands"): (
        "3d45f361316da1346ef934f3c79c96500cc43028171fa9552e6643e0121bdeea"
    ),
    ("serial", "eve:uniformp", "point_pair"): (
        "c46de7b09456df1d375cb2663906183c00593d5750a13fb1bf477af4eab5eedf"
    ),
    ("serial", "eve:uniformp", "uniform_bands"): (
        "c46de7b09456df1d375cb2663906183c00593d5750a13fb1bf477af4eab5eedf"
    ),
    ("serial", "eve:echo", "point_pair"): (
        "c46de7b09456df1d375cb2663906183c00593d5750a13fb1bf477af4eab5eedf"
    ),
    ("serial", "eve:echo", "uniform_bands"): (
        "c46de7b09456df1d375cb2663906183c00593d5750a13fb1bf477af4eab5eedf"
    ),
    ("naive", "alice", "point_pair"): (
        "6635d2c6d0df5361069dda05ef91695650827f4f02afeec2083ea9687dbe1111"
    ),
    ("naive", "alice", "uniform_bands"): (
        "6635d2c6d0df5361069dda05ef91695650827f4f02afeec2083ea9687dbe1111"
    ),
    ("naive", "eve:uniformp", "point_pair"): (
        "b83e3a3584e9f4018f586bb64401c5e09dabb5465654569e98f422f926e7cb80"
    ),
    ("naive", "eve:uniformp", "uniform_bands"): (
        "b83e3a3584e9f4018f586bb64401c5e09dabb5465654569e98f422f926e7cb80"
    ),
    ("naive", "eve:echo", "point_pair"): (
        "ff4c3f68e3c7dd49fd2b1e32e3beea301ac281f83161716bc1294b0102eaec9a"
    ),
    ("naive", "eve:echo", "uniform_bands"): (
        "ff4c3f68e3c7dd49fd2b1e32e3beea301ac281f83161716bc1294b0102eaec9a"
    ),
    ("pattern", "alice", "point_pair"): (
        "37e69b2d93a8b7e2347e25249ae59b1ff6adcf6214a147aaa22eb004951c41cb"
    ),
    ("pattern", "alice", "uniform_bands"): (
        "37e69b2d93a8b7e2347e25249ae59b1ff6adcf6214a147aaa22eb004951c41cb"
    ),
    ("pattern", "eve:uniformp", "point_pair"): (
        "37e69b2d93a8b7e2347e25249ae59b1ff6adcf6214a147aaa22eb004951c41cb"
    ),
    ("pattern", "eve:uniformp", "uniform_bands"): (
        "37e69b2d93a8b7e2347e25249ae59b1ff6adcf6214a147aaa22eb004951c41cb"
    ),
    ("pattern", "eve:echo", "point_pair"): (
        "37e69b2d93a8b7e2347e25249ae59b1ff6adcf6214a147aaa22eb004951c41cb"
    ),
    ("pattern", "eve:echo", "uniform_bands"): (
        "37e69b2d93a8b7e2347e25249ae59b1ff6adcf6214a147aaa22eb004951c41cb"
    ),
}


def _artifact_digest(out) -> str:
    """SHA-256 over the stats block of summary.json, t_histogram.csv and
    walks.csv (when written).  The config block is left out: it records the
    temporary output directory."""
    summary = json.loads((out / "summary.json").read_text())
    digest = hashlib.sha256()
    digest.update(json.dumps(summary["stats"], sort_keys=True).encode())
    for name in ("t_histogram.csv", "walks.csv"):
        path = out / name
        digest.update(name.encode())
        digest.update(path.read_bytes() if path.exists() else b"-")
    return digest.hexdigest()


@pytest.mark.parametrize(
    "strategy,subject,distribution",
    _PINNED_CELLS,
    ids=["-".join(cell) for cell in _PINNED_CELLS],
)
def test_artifacts_match_pinned_digests(strategy, subject, distribution, tmp_path):
    config = RunConfig(
        strategy=strategy,
        subject=subject,
        distribution=distribution,
        trials=_PINNED_TRIALS[strategy],
        master_seed=4519,
        map_width=40,
        map_height=40,
        out_dir=str(tmp_path),
    )
    montecarlo(config)
    assert _artifact_digest(tmp_path) == _PINNED_DIGESTS[
        (strategy, subject, distribution)
    ]


# Pattern runs on the default 100x100 map.  The pinned cells above run two
# trials each, and an impostor session usually ends at its first question;
# these run enough sessions that most honest ones reach their last question
# and some impostor ones a second.
_PINNED_PATTERN_RUNS = {
    ("alice", 40): (
        "0e4ecf28ebd760faab41aea97d4d47545a8f44caa5a698c1f1f39d5e7d6c1382"
    ),
    ("eve:faircoin", 200): (
        "445884d808f00870f88522ba7d046d980d096ab1e2ac2c618c004d49a54faebf"
    ),
}


@pytest.mark.parametrize(
    "subject,trials",
    list(_PINNED_PATTERN_RUNS),
    ids=[f"{subject}-{trials}" for subject, trials in _PINNED_PATTERN_RUNS],
)
def test_pattern_run_matches_pinned_digest(subject, trials, tmp_path):
    config = RunConfig(
        strategy="pattern",
        subject=subject,
        trials=trials,
        master_seed=4520,
        out_dir=str(tmp_path),
    )
    montecarlo(config)
    assert _artifact_digest(tmp_path) == _PINNED_PATTERN_RUNS[(subject, trials)]
