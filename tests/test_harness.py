"""Tests for run configuration, RNG stream management, and the Monte Carlo
driver: per-trial stream independence, config parsing and validation,
order-independent aggregation, and byte-reproducible artifacts.

Seeded checks that draw point-pair bayes records, and the probability that
each fails although the code implements its law, from the walk's exact exit
law (``SequentialPlan.exit_law``; means by a normal approximation).  The
other checks of bayes runs are exact, and the pinned digests change only
with the records.

=====================================================  ====================
check                                                  false-failure
                                                       probability
=====================================================  ====================
``TestWalksWriter::test_matches_per_row_reference``    3.2e-9 (none or all
(``point_pair``)                                       of 30 honest walks
                                                       capped at 60 rounds
                                                       time out, each with
                                                       probability 0.4807)
``TestMontecarlo::test_honest_bayes_run``              7.8e-8 (3 or more of
                                                       150 rejected) +
                                                       1.6e-5 (mean above
                                                       its bound plus 3
                                                       standard errors)
``TestMontecarlo::test_impostor_bayes_run``            1.1e-8 (one of 150
                                                       accepted)
=====================================================  ====================

Seeded checks that draw band bayes sessions (a walk off the lattice, which
has no exit law), and the same probability, from 20,000 block sessions on
the test's 40x40 map (master seed 777).

=====================================================  ====================
check                                                  false-failure
                                                       probability
=====================================================  ====================
``TestWalksWriter::test_matches_per_row_reference``    9.6e-9 (none or all
(``uniform_bands``; both memo cases share one draw)    of 30 honest walks
                                                       capped at 44 rounds
                                                       time out, each with
                                                       probability 0.4597
                                                       ± 0.0035; 6.5e-9 to
                                                       1.4e-8 over two
                                                       standard errors)
=====================================================  ====================
"""

import dataclasses
import gc
import hashlib
import json
import math
import pickle
import statistics
import weakref
from pathlib import Path

import numpy as np
import pytest
from conftest import make_rng
from hypothesis import given, settings
from hypothesis import strategies as st
from martingale import martingale_diagnostics

from retinasim import (
    Adaptive,
    AliceSubject,
    ConfigError,
    DomainError,
    EveContext,
    FixedP,
    PatternPlan,
    PlacementError,
    PointPair,
    RecognitionRule,
    Round,
    RunConfig,
    TrialRecord,
    TrialStats,
    UniformP,
    build_subject,
    generate_synthetic,
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
from retinasim import harness
from retinasim.harness import _KEY_BLOCK, _key_block

#: Seeds and trial indices where ``SeedSequence``'s entropy words change in
#: number, the edges of a key block, and a seed longer than its pool.
_EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**199 + 12345]
_EDGE_INDICES = [0, 1, _KEY_BLOCK - 1, _KEY_BLOCK, 2**32 - 1, 2**32, 2**40]


def _seed_sequence_rng(master_seed, trial_index):
    """The stream ``trial_rng`` must equal, built the plain NumPy way."""
    sequence = np.random.SeedSequence([master_seed, trial_index])
    return np.random.Generator(np.random.Philox(sequence))


def _draws(rng):
    return (rng.random(3).tolist(), rng.poisson(4.5, 3).tolist(),
            rng.binomial(50, 0.3, 3).tolist(), rng.integers(2**62, size=3).tolist(),
            rng.permutation(10).tolist())


def _assert_same_stream(ours, theirs):
    assert _plain(ours.bit_generator.state) == _plain(theirs.bit_generator.state)
    assert _draws(ours) == _draws(theirs)
    assert _plain(ours.bit_generator.state) == _plain(theirs.bit_generator.state)


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
        # streams 1000 and either side of a key block's edge are the same
        # whether or not other streams were made, and after more seeds than
        # the key cache holds have evicted this one
        indices = [1000, _KEY_BLOCK - 1, _KEY_BLOCK]
        direct = {i: trial_rng(5, i).integers(2**62, size=4) for i in indices}
        for idx in reversed(indices):
            for seed in range(6, 7 + _key_block.cache_info().maxsize):
                trial_rng(seed, idx)
            assert np.array_equal(trial_rng(5, idx).integers(2**62, size=4), direct[idx])
        for idx in range(10):
            trial_rng(5, idx)
        assert np.array_equal(trial_rng(5, 1000).integers(2**62, size=4), direct[1000])

    @pytest.mark.parametrize("master_seed", _EDGE_SEEDS)
    @pytest.mark.parametrize("trial_index", _EDGE_INDICES)
    def test_stream_is_the_seed_sequence_stream(self, master_seed, trial_index):
        _assert_same_stream(trial_rng(master_seed, trial_index),
                            _seed_sequence_rng(master_seed, trial_index))

    @given(master_seed=st.integers(0, 2**200), trial_index=st.integers(0, 2**40))
    @settings(max_examples=200, deadline=None)
    def test_stream_is_the_seed_sequence_stream_anywhere(self, master_seed, trial_index):
        _assert_same_stream(trial_rng(master_seed, trial_index),
                            _seed_sequence_rng(master_seed, trial_index))

    def test_spawn_and_pickle_act_as_on_the_seed_sequence(self):
        ours = trial_rng(2**40 + 3, 300)
        theirs = _seed_sequence_rng(2**40 + 3, 300)
        for _ in range(2):  # a second spawn gives the next children
            for a, b in zip(ours.spawn(2), theirs.spawn(2), strict=True):
                _assert_same_stream(a, b)
        _assert_same_stream(ours, theirs)
        loaded = pickle.loads(pickle.dumps(ours))
        assert type(loaded.bit_generator.seed_seq) is np.random.SeedSequence
        _assert_same_stream(loaded, theirs)
        _assert_same_stream(loaded.spawn(1)[0], theirs.spawn(1)[0])

    def test_key_holder_refuses_other_requests(self):
        with pytest.raises(DomainError, match="2 uint64 words"):
            trial_rng(1, 2).bit_generator.seed_seq.generate_state(4, np.uint32)

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
            (dict(i_tilde=-1.0), "i_tilde"),
            (dict(i_tilde=math.inf), "i_tilde"),
            (dict(i_tilde=math.nan), "i_tilde"),
            (dict(alpha_low=0.5), "'alpha_low' and 'alpha_high'"),
            (dict(alpha_high=1.5), "'alpha_low' and 'alpha_high'"),
            (dict(distribution="uniform_bands", low_band=(0.05, 0.02)),
             "'low_band' and 'high_band'"),
            (dict(distribution="uniform_bands", high_band=(0.15, 0.04)),
             "'low_band' and 'high_band'"),
            (dict(i_tilde=0.0), "'i_tilde'"),
            (dict(i_tilde=1000.0), "'i_tilde'"),
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
        assert parse_eve_strategy("faircoin", 6) == FixedP(0.5)
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
        assert subject == FixedP(0.5)

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
        # a pattern run's plan holds its map and every value its questions
        # read, taken from the config once
        config = RunConfig(strategy="pattern", pattern_menu=18, pattern_noise=60)
        context = prepare(config)
        assert context.sequential_plan is None
        assert context.serial_plan is None
        assert context.naive_plan is None
        assert context.i_tilde is None
        assert context.pattern_plan == PatternPlan(
            context.alpha_map, 6, 18, RecognitionRule(5, 5), n_noise=60, i_tilde=72.0,
            low_max=0.04, high_min=0.16)
        assert context.pattern_plan.alpha_map is context.alpha_map
        assert context.alpha_map.width == 100
        assert [f.name for f in dataclasses.fields(context)] == [
            "config", "alpha_map", "distribution", "subject", "i_tilde",
            "sequential_plan", "serial_plan", "naive_plan", "pattern_plan",
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
        assert context.subject == FixedP(0.25)


#: Per strategy, config changes that each set one field its plan reads; the
#: changes that each set one map field; and one that sets every unplanned
#: field but ``out_dir``.
_PLANNED_VARIANTS = {
    "bayes": [{"p_fp": 1e-8}, {"p_fn": 1e-3}, {"k": 5}, {"i_tilde": 62.4},
              {"alpha_low": 0.06}, {"low_band": (0.02, 0.06)}],
    "serial": [{"p_fp": 1e-8}, {"p_fn": 1e-3}, {"k": 5}, {"i_tilde": 62.4},
               {"alpha_high": 0.14}, {"high_band": (0.14, 0.18)}],
    "naive": [{"p_fp": 1e-8}, {"p_fn": 1e-3}, {"k": 5}, {"naive_mu": 40},
              {"naive_p_c": 0.4}],
    "pattern": [{"k": 5}, {"pattern_questions": 4}, {"pattern_menu": 20},
                {"pattern_noise": 60}, {"pattern_miss_limit": 3},
                {"pattern_noise_limit": 3}, {"pattern_i_tilde": 60.0},
                {"pattern_low_max": 0.03}, {"pattern_high_min": 0.17}],
}
_MAP_VARIANTS = [{"map_width": 101}, {"map_height": 99}, {"map_alpha_min": 0.019},
                 {"map_alpha_max": 0.181}, {"map_seed": 8}]
_UNPLANNED_VARIANT = {"master_seed": 5, "trials": 7, "walk_trace_limit": 3,
                      "subject": "eve:echo", "max_rounds": 300}


def _artifacts(config) -> dict[str, bytes]:
    """Each file of the run's ``out_dir`` by name, as bytes."""
    return {path.name: path.read_bytes() for path in sorted(Path(config.out_dir).iterdir())}


class TestSetupCaches:
    """``prepare`` shares one synthetic map per set of map fields and one
    plan per map and set of planned fields, within a process.  Each test
    that counts or compares set-up work starts from cleared caches
    (``cold_setup``), so that its result does not depend on test order."""

    @pytest.mark.parametrize("distribution", ["point_pair", "uniform_bands"])
    @pytest.mark.parametrize("strategy", list(_PLANNED_VARIANTS))
    def test_warm_runs_match_cold_runs(self, strategy, distribution, cold_setup,
                                       tmp_path):
        """A run after runs that differ from it in one keyed field gives the
        records and artifacts it gives on cleared caches: no run reads
        another's map or plan."""
        base = RunConfig(strategy=strategy, distribution=distribution, trials=12,
                         master_seed=4603)
        changes = [{}, _UNPLANNED_VARIANT, *_PLANNED_VARIANTS[strategy], *_MAP_VARIANTS]
        configs = [dataclasses.replace(base, out_dir=str(tmp_path / str(n)), **change)
                   for n, change in enumerate(changes)]
        cold = []
        for config in configs:
            harness._synthetic_map.cache_clear()
            harness._cached_plan.cache_clear()
            cold.append((montecarlo(config)[1], _artifacts(config)))
        for n, (config, (records, artifacts)) in enumerate(zip(configs, cold)):
            assert montecarlo(config)[1] == records, config
            assert _artifacts(config) == artifacts, config
            if n == 1:  # the unplanned change reads the default's plan
                assert harness._cached_plan.cache_info().hits == 1

    def test_runs_share_a_map_per_map_fields(self, cold_setup):
        config = RunConfig(strategy="pattern")
        context = prepare(config)
        again = prepare(dataclasses.replace(config, strategy="bayes", **_UNPLANNED_VARIANT))
        assert again.alpha_map is context.alpha_map
        for change in _MAP_VARIANTS:
            varied = dataclasses.replace(config, **change)
            alpha_map = prepare(varied).alpha_map
            assert alpha_map is not context.alpha_map
            expected = generate_synthetic(varied.map_width, varied.map_height,
                                          varied.map_alpha_min, varied.map_alpha_max,
                                          varied.map_seed)
            assert (alpha_map.width, alpha_map.height) == (expected.width, expected.height)
            assert np.array_equal(alpha_map.alpha, expected.alpha)

    @pytest.mark.parametrize("strategy", list(_PLANNED_VARIANTS))
    def test_runs_share_a_plan_across_unplanned_fields(self, strategy, cold_setup,
                                                       tmp_path):
        config = RunConfig(strategy=strategy)
        unplanned = dataclasses.replace(config, out_dir=str(tmp_path), **_UNPLANNED_VARIANT)
        field = {"bayes": "sequential_plan", "serial": "serial_plan",
                 "naive": "naive_plan", "pattern": "pattern_plan"}[strategy]
        plan = getattr(prepare(config), field)
        assert getattr(prepare(unplanned), field) is plan
        assert harness._cached_plan.cache_info().misses == 1

    def test_signed_zero_keys_apart(self, cold_setup):
        """-0.0 == 0.0, but the pattern plan line prints the two apart."""
        config = RunConfig(strategy="pattern", pattern_i_tilde=0.0)
        assert math.copysign(1.0, prepare(config).pattern_plan.i_tilde) == 1.0
        negative = prepare(dataclasses.replace(config, pattern_i_tilde=-0.0))
        assert math.copysign(1.0, negative.pattern_plan.i_tilde) == -1.0

    @pytest.mark.parametrize("strategy", list(_PLANNED_VARIANTS))
    def test_map_file_is_read_on_every_call(self, strategy, cold_setup, tmp_path):
        """An edit to the map file between two calls is seen by the map and
        by the plan made on it."""
        path = tmp_path / "map.json"
        first, second = (generate_synthetic(100, 100, 0.02, 0.18, seed)
                         for seed in (31, 32))
        config = RunConfig(strategy=strategy, map_file=str(path))
        for alpha_map in (first, second, first):
            save(alpha_map, path)
            context = prepare(config)
            assert np.array_equal(context.alpha_map.alpha, alpha_map.alpha)
            if strategy == "pattern":
                assert context.pattern_plan.alpha_map is context.alpha_map

    @pytest.mark.parametrize("change, error, match", [
        ({"strategy": "naive", "map_width": 5, "map_height": 5}, ConfigError,
         "field 'naive_mu' is 50 but the map has only 25 spots"),
        ({"strategy": "pattern", "map_width": 4, "map_height": 4}, PlacementError,
         "smaller than the 5x7 glyph grid"),
        ({"strategy": "bayes", "map_alpha_min": 0.06}, ConfigError,
         "change fields 'alpha_low' and 'alpha_high'"),
        ({"strategy": "serial", "subject": "eve:nonesuch"}, ConfigError,
         "change field 'subject'"),
    ])
    def test_refusal_is_raised_on_every_call(self, change, error, match, cold_setup):
        config = RunConfig(**change)
        for _ in range(3):
            with pytest.raises(error, match=match):
                prepare(config)

    @pytest.mark.parametrize("distribution", ["point_pair", "uniform_bands"])
    @pytest.mark.parametrize("strategy", list(_PLANNED_VARIANTS))
    def test_no_plan_reads_an_unplanned_field(self, strategy, distribution):
        """The plan cache is keyed by every field but the unplanned ones, so
        no entry's ``plan`` may read those: here it reads a proxy that
        raises on them."""
        assert harness._UNPLANNED_FIELDS == set(_UNPLANNED_VARIANT) | {"out_dir"}
        config = RunConfig(strategy=strategy, distribution=distribution)

        class Planned:
            def __getattr__(self, name):
                if name in harness._UNPLANNED_FIELDS:
                    raise AssertionError(f"plan read field {name!r}")
                return getattr(config, name)

        alpha_map = harness._resolve_map(config)
        entry = harness.STRATEGIES[strategy]
        assert entry.plan(Planned(), alpha_map) == entry.plan(config, alpha_map)

    def test_caches_stay_bounded(self, cold_setup):
        """However many maps and plans a process asks for, each cache holds
        at most its bound, and a map the map cache drops is freed: no plan
        keeps it alive."""
        maps, plans = harness._synthetic_map, harness._cached_plan
        assert maps.cache_parameters() == {"maxsize": harness._MAPS_KEPT, "typed": True}
        assert plans.cache_parameters() == {"maxsize": harness._PLANS_KEPT, "typed": True}
        small = RunConfig(map_width=10, map_height=10)
        first = weakref.ref(prepare(small).alpha_map)
        for p_fn in np.linspace(1e-4, 1e-2, harness._PLANS_KEPT + 3):
            prepare(dataclasses.replace(small, p_fn=float(p_fn)))
        assert plans.cache_info().currsize == harness._PLANS_KEPT
        for seed in range(harness._MAPS_KEPT + 3):
            prepare(dataclasses.replace(small, map_seed=100 + seed))
            assert maps.cache_info().currsize <= harness._MAPS_KEPT
            assert plans.cache_info().currsize <= harness._PLANS_KEPT
        gc.collect()
        assert first() is None


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

    def test_any_order_gives_the_sweep_records(self):
        # four key blocks, run in shuffled order at a two-word seed
        config = RunConfig(strategy="bayes", trials=3 * _KEY_BLOCK + 5,
                           walk_trace_limit=40, master_seed=2**32 + 4513)
        _stats, swept = montecarlo(config)
        context = prepare(config)
        order = np.random.Philox(1).random_raw(config.trials).argsort()
        shuffled = {int(i): run_trial(context, int(i)) for i in order}
        assert [shuffled[i] for i in range(config.trials)] == swept

    @pytest.mark.parametrize("subject", ["alice", "eve:faircoin", "eve:uniformp",
                                         "eve:fixedp:0.3", "eve:echo"])
    def test_tracing_changes_no_record(self, subject):
        """A traced bayes trial draws its path after its exit: it records
        what the untraced trial records, and its walk."""
        configs = [RunConfig(subject=subject, trials=120, walk_trace_limit=limit,
                             master_seed=4525) for limit in (120, 0)]
        (_s, traced), (_t, untraced) = map(montecarlo, configs)
        assert all(record.walk is not None for record in traced)
        assert [dataclasses.replace(record, walk=None) for record in traced] == untraced

    @pytest.mark.parametrize("subject", ["alice", "eve:faircoin", "eve:uniformp",
                                         "eve:fixedp:0.3", "eve:echo"])
    @pytest.mark.parametrize("plan", [dict(distribution="uniform_bands"),
                                      dict(i_tilde=70.0)], ids=["bands", "asymmetric"])
    def test_tracing_changes_no_block_record(self, plan, subject):
        """A band or asymmetric-pair bayes trial is drawn in blocks, three
        uniforms a round whether traced or not: it records what the
        untraced trial records, and its walk."""
        configs = [RunConfig(subject=subject, trials=120, walk_trace_limit=limit,
                             master_seed=4526, **plan) for limit in (120, 0)]
        (_s, traced), (_t, untraced) = map(montecarlo, configs)
        assert all(record.walk is not None for record in traced)
        assert [dataclasses.replace(record, walk=None) for record in traced] == untraced

    def test_untraced_echo_records_are_faircoin_records(self):
        """On the point pair ``echo`` and the fair coin each err with
        probability 1/2 a round, so both take the one exit law and one
        uniform a trial: their untraced records are equal, trial by trial."""
        configs = [RunConfig(subject=subject, trials=300, walk_trace_limit=0,
                             master_seed=4527) for subject in ("eve:echo", "eve:faircoin")]
        (echo_stats, echo), (coin_stats, coin) = map(montecarlo, configs)
        assert echo == coin and echo_stats == coin_stats

    @pytest.mark.parametrize("subject", ["alice", "eve:faircoin", "eve:uniformp",
                                         "eve:echo"])
    @pytest.mark.parametrize("strategy", ["bayes", "serial", "naive", "pattern"])
    def test_context_crosses_a_process_boundary(self, strategy, subject):
        """A pickled context, as a worker process receives it, runs the
        trials the original runs."""
        context = prepare(RunConfig(strategy=strategy, subject=subject,
                                    walk_trace_limit=2, master_seed=4514))
        copy = pickle.loads(pickle.dumps(context))
        for index in (0, 1, 7):
            assert run_trial(copy, index) == run_trial(context, index)


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

    def test_stopping_time_stderr_of_large_times(self):
        rounds = [3 * 10**8 + d for d in range(4)]
        records = [TrialRecord(i, True, False, rounds=t) for i, t in enumerate(rounds)]
        expected = statistics.stdev(rounds) / math.sqrt(len(rounds))  # 0.6455
        assert merge_records(records).t_stderr == pytest.approx(expected, rel=1e-12)

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

    @pytest.mark.parametrize(
        "second",
        [dict(strategy="serial"), dict(strategy="bayes", walk_trace_limit=0)],
        ids=["serial", "bayes-untraced"],
    )
    def test_run_without_walks_leaves_no_older_walk_file(self, tmp_path, second):
        # a traced bayes run, then one that traces no walk, into one out dir:
        # the directory then holds exactly the second run's artifacts
        montecarlo(RunConfig(strategy="bayes", trials=5, master_seed=4515,
                             out_dir=str(tmp_path)))
        assert (tmp_path / "walks.csv").exists()
        montecarlo(RunConfig(trials=5, master_seed=4516, out_dir=str(tmp_path), **second))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "summary.json", "t_histogram.csv"]

    def test_write_artifacts_returns_written_paths(self, tmp_path):
        config = RunConfig(strategy="bayes", trials=10, master_seed=4514)
        context = prepare(config)
        records = [run_trial(context, i) for i in range(10)]
        stats = merge_records(records)
        written = write_artifacts(tmp_path, config, stats, records)
        assert [p.name for p in written] == ["summary.json", "t_histogram.csv", "walks.csv"]


def _loop_walks(records) -> str:
    """walks.csv as the writer built it row by row, before each distinct
    round's cell was formatted once: the reference for the writer."""
    walk_rows = ["trial,n,alpha,S,increment,log_odds"]
    for record in sorted(records, key=lambda r: r.trial):
        if record.walk is None:
            continue
        log_odds = 0.0
        for n, step in enumerate(record.walk, start=1):
            log_odds += step.increment
            walk_rows.append(
                f"{record.trial},{n},{step.alpha!r},{int(step.saw)},"
                f"{step.increment!r},{log_odds!r}"
            )
    return "\n".join(walk_rows) + "\n"


#: The round cap of each distribution's walks in the writer test: about half
#: of the honest walks time out at it (see the module docstring).
_WALK_CAPS = {"point_pair": 60, "uniform_bands": 44}


class TestWalksWriter:
    @pytest.mark.parametrize("distribution", list(_WALK_CAPS))
    @pytest.mark.parametrize("memo_entries", [None, 8], ids=["memo", "memo-full"])
    def test_matches_per_row_reference(self, distribution, memo_entries, tmp_path,
                                       monkeypatch):
        import retinasim.harness

        if memo_entries is not None:
            monkeypatch.setattr(retinasim.harness, "_MEMO_ENTRIES", memo_entries)
        config = RunConfig(distribution=distribution, trials=40, walk_trace_limit=30,
                           max_rounds=_WALK_CAPS[distribution], master_seed=4523,
                           map_width=40, map_height=40)
        stats, records = montecarlo(config)
        walked = records[:30]
        assert any(r.timed_out for r in walked) and not all(r.timed_out for r in walked)
        # An answer the honest-user model calls impossible ends its walk at -inf.
        impossible = TrialRecord(40, False, timed_out=False, rounds=2,
                                 final_log_odds=-math.inf,
                                 walk=(records[0].walk[0], Round(0.15, False, -math.inf)))
        records = [impossible, *reversed(records)]
        write_artifacts(tmp_path, config, stats, records)
        assert (tmp_path / "walks.csv").read_text() == _loop_walks(records)

    def test_keeps_signed_zero_increments(self, tmp_path):
        """0.0 == -0.0 and the two hash alike: a cell memo keyed by value
        would print one as the other."""
        zero, negative_zero = Round(0.05, True, 0.0), Round(0.05, True, -0.0)
        assert zero == negative_zero and hash(zero) == hash(negative_zero)
        record = TrialRecord(0, False, timed_out=True, rounds=4, final_log_odds=0.0,
                             walk=(zero, negative_zero, negative_zero, zero))
        write_artifacts(tmp_path, RunConfig(), merge_records([record]), [record])
        text = (tmp_path / "walks.csv").read_text()
        assert text == _loop_walks([record])
        increments = [row.split(",")[4] for row in text.splitlines()[1:]]
        assert increments == ["0.0", "-0.0", "-0.0", "0.0"]


    def test_peak_memory_does_not_grow_with_walk_count(self, tmp_path):
        """The writer holds one walk's rows at a time: tracing ten times as
        many walks leaves its tracemalloc peak where it was (the whole text
        at once would add ~236 B a row, ~3.4 MB here)."""
        import tracemalloc

        rounds = [Round(0.05, False, 0.1), Round(0.05, True, -1.6),
                  Round(0.15, True, 0.1), Round(0.15, False, -1.6)]
        # One walk for every trial, so the log-odds memo holds the same sums
        # whatever the walk count.
        walk = tuple(rounds[i] for i in make_rng(4524).integers(4, size=80))

        def peak(n_walks):
            records = [TrialRecord(t, False, timed_out=True, rounds=80,
                                   final_log_odds=0.0, walk=walk)
                       for t in range(n_walks)]
            stats = merge_records(records)
            tracemalloc.start()
            try:
                write_artifacts(tmp_path, RunConfig(), stats, records)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(20), peak(200)
        assert large < small + 64 * 1024, (small, large)


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
        "eb93b0a65004ebdc211ddf3af2cafb61e64047951a6f494b42f3a71d027b6b69"
    ),
    ("bayes", "alice", "uniform_bands"): (
        "7330ce45096e2845b73c00f957dc65d66e5ccd3566700a1ebb0f4105f2fa81aa"
    ),
    ("bayes", "eve:uniformp", "point_pair"): (
        "4e92e9868e52f56dc9285694640444fcdb680349ee03674471b780a918ff8767"
    ),
    ("bayes", "eve:uniformp", "uniform_bands"): (
        "269b68523b50103f2466dbab801094557b182af3f22308be5625e77bff73dd3d"
    ),
    ("bayes", "eve:echo", "point_pair"): (
        "afc0df3761e4ceaa593b9b3c5cbdfa462cd7b52c436c886df8701ea3a2bb953e"
    ),
    ("bayes", "eve:echo", "uniform_bands"): (
        "aa93036731c00d17946e0dc576423bdf4d3888d536d96bb44c2087646c4e3648"
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
        "7d9d5b5a8efcbe8c614164a016b272c1566ccfa79aaaa053950ee4fdea2b195b"
    ),
    ("naive", "eve:uniformp", "uniform_bands"): (
        "7d9d5b5a8efcbe8c614164a016b272c1566ccfa79aaaa053950ee4fdea2b195b"
    ),
    ("naive", "eve:echo", "point_pair"): (
        "ff4c3f68e3c7dd49fd2b1e32e3beea301ac281f83161716bc1294b0102eaec9a"
    ),
    ("naive", "eve:echo", "uniform_bands"): (
        "ff4c3f68e3c7dd49fd2b1e32e3beea301ac281f83161716bc1294b0102eaec9a"
    ),
    ("pattern", "alice", "point_pair"): (
        "d78adfece0c3124115161536977ac88aaa611f4fd888c82a48d6506a8825dd67"
    ),
    ("pattern", "alice", "uniform_bands"): (
        "d78adfece0c3124115161536977ac88aaa611f4fd888c82a48d6506a8825dd67"
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
        "dbcaaaa9efbdf5d5610f5ced80298bc8cf841bbaea4004f4c9e3b6210456f61f"
    ),
    ("eve:faircoin", 200): (
        "3a7ba088572ddda1eb3243339b9915ad1384d984eba6e38984044d1966eef8ee"
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


# Record-level pins of the per-round kernels.  Each cell runs ``run_trial``
# for _KERNEL_TRIALS trials and digests every record together with the end
# state of the trial's generator, so a change in a record, or in how many
# draws a session takes, fails here even where the artifacts above cannot
# tell (a rejected fixed-length session writes no walk, and all of them
# give the same stats).
_KERNEL_TRIALS = 50
_KERNEL_CELLS = [
    ("bayes", subject, distribution, transcript)
    for subject in ("alice", "eve:faircoin", "eve:uniformp", "eve:fixedp:0.3",
                    "eve:echo")
    for distribution in ("point_pair", "uniform_bands")
    for transcript in (False, True)
] + [
    ("serial", "eve:echo", "point_pair", False),
    ("naive", "eve:echo", "point_pair", False),
]
_KERNEL_DIGESTS = {
    ("bayes", "alice", "point_pair", False): (
        "788014064cb1c41f1494a7bf19be5c81c0479f599c246170594f5d8ac1b5806e"
    ),
    ("bayes", "alice", "point_pair", True): (
        "8e83d918a43ca2aabdafe8911069a934c43fa63eda715bcc935351b3747061c6"
    ),
    ("bayes", "alice", "uniform_bands", False): (
        "a5f33324171fb83ace9346e010ed2fc31d7b0d40eed9a63131d94ea5eb560855"
    ),
    ("bayes", "alice", "uniform_bands", True): (
        "a2a7e43eb234e61ad83ffc71e0e8301b889aeeb0700b5c3454e71d3d3c3eca25"
    ),
    ("bayes", "eve:faircoin", "point_pair", False): (
        "455305b4b9e5b92ef2ae7e0ce2a9b15eb3a0e90951a901610951e3162e0261bf"
    ),
    ("bayes", "eve:faircoin", "point_pair", True): (
        "c642744c263ed5f1ebb800a0adac8b3d83ba32a9978b5c91bf863719a7313476"
    ),
    ("bayes", "eve:faircoin", "uniform_bands", False): (
        "0aa7ce506ada14df90894291ff69e363ce7d6d0dd41a1c08e4b8544fbd8647d6"
    ),
    ("bayes", "eve:faircoin", "uniform_bands", True): (
        "cbef6843a8ee94158e3b0925e887e94694fbe164943e891a6317c30dbb4f8763"
    ),
    ("bayes", "eve:uniformp", "point_pair", False): (
        "3301ef55be559a883ba5c2e36a1ad1b7431fa14bebed977d1a1110c4d8a24fcd"
    ),
    ("bayes", "eve:uniformp", "point_pair", True): (
        "058059a5cfb461c4c72d4393d71eb404d26cffd1c6e169c728cc3fe31f070760"
    ),
    ("bayes", "eve:uniformp", "uniform_bands", False): (
        "bb7681a2ee353bea3361aa65d6aaa4a9801d04fab8c4e1e2f3547fd4294cd07d"
    ),
    ("bayes", "eve:uniformp", "uniform_bands", True): (
        "181a45da1970b662dbe7a5ea87c91b6d2056fe87c8e07139a7df2569a971e24e"
    ),
    ("bayes", "eve:fixedp:0.3", "point_pair", False): (
        "455305b4b9e5b92ef2ae7e0ce2a9b15eb3a0e90951a901610951e3162e0261bf"
    ),
    ("bayes", "eve:fixedp:0.3", "point_pair", True): (
        "7c3fdf21a6c8c7f009b58f162af76de62b69ec321ea3677402072d6cc56dd81a"
    ),
    ("bayes", "eve:fixedp:0.3", "uniform_bands", False): (
        "26b9ccda2d1c736b6146ca322b7a6cf0ac16f0edc10c1e4ee0fa665f33528149"
    ),
    ("bayes", "eve:fixedp:0.3", "uniform_bands", True): (
        "d03e02baf7099d95576b66598e9bb2f1148a4b72dfafe693a105dbbffbc4031e"
    ),
    ("bayes", "eve:echo", "point_pair", False): (
        "455305b4b9e5b92ef2ae7e0ce2a9b15eb3a0e90951a901610951e3162e0261bf"
    ),
    ("bayes", "eve:echo", "point_pair", True): (
        "3a966d80b268f6a9c7d7c0900e0e8c0ba67ac12a770371855d6fbd48667a794e"
    ),
    ("bayes", "eve:echo", "uniform_bands", False): (
        "a8b2061f63c9d0b01e2d1effe8b7ca9519d0c762c275f7948d186312f452affc"
    ),
    ("bayes", "eve:echo", "uniform_bands", True): (
        "351924f190e23a0b4805fcda1cf9f93bf0800af5a7ce6fb957f8121a5470f780"
    ),
    ("serial", "eve:echo", "point_pair", False): (
        "56aa9bd202fbe17d71f1c317b05d850431dc83eabba8c34dc965c10aa7b8278c"
    ),
    ("naive", "eve:echo", "point_pair", False): (
        "53488d3a1d0f5a764ad165a382fb7d44f79b2e098aa7f2f961d9371bf37c7370"
    ),
    "martingale": (
        "b3cac7fa22be5787a389aa8f8bac9f624ca90346843c52e67b0d652cac6adbe7"
    ),
}


def _plain(value):
    """``value`` with its NumPy arrays as lists, for a stable JSON dump."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _kernel_digest(strategy, subject, distribution, transcript, monkeypatch):
    import retinasim.harness

    trials = _KERNEL_TRIALS
    config = RunConfig(strategy=strategy, subject=subject, distribution=distribution,
                       trials=trials, master_seed=4521, map_width=40, map_height=40,
                       walk_trace_limit=trials if transcript else 0)
    context = prepare(config)
    streams = []

    def kept_rng(master_seed, trial_index):
        streams.append(trial_rng(master_seed, trial_index))
        return streams[-1]

    monkeypatch.setattr(retinasim.harness, "trial_rng", kept_rng)
    digest = hashlib.sha256()
    for i in range(trials):
        record = run_trial(context, i)
        digest.update(repr(record).encode())
        state = _plain(streams[-1].bit_generator.state)
        digest.update(json.dumps(state, sort_keys=True).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "strategy,subject,distribution,transcript",
    _KERNEL_CELLS,
    ids=["-".join(map(str, cell)) for cell in _KERNEL_CELLS],
)
def test_kernel_records_match_pinned_digests(
    strategy, subject, distribution, transcript, monkeypatch
):
    cell = (strategy, subject, distribution, transcript)
    assert _kernel_digest(*cell, monkeypatch) == _KERNEL_DIGESTS[cell]


def test_martingale_report_matches_pinned_digest():
    context = prepare(RunConfig(subject="eve:echo", map_width=40, map_height=40))
    rng = make_rng(4522)
    report = martingale_diagnostics(context.sequential_plan, context.subject, 50, 40,
                                    rng)
    digest = hashlib.sha256(repr(report).encode())
    digest.update(json.dumps(_plain(rng.bit_generator.state), sort_keys=True).encode())
    assert digest.hexdigest() == _KERNEL_DIGESTS["martingale"]


# Float-free structural pins of the same cells: each record's integer fields,
# each traced round's class and answer bit, and each trial generator's end
# state, for every artifact cell, pattern run and kernel cell above, and the
# martingale report's counts with its generator's end state.  A change that
# moves only floats (a log-odds increment, a seeing probability in its last
# bits) leaves these as they are; one that changes an answer, a decision or
# how many draws a session takes does not.  A draw that changes its value
# but not the generator's end state shows only through what the record
# holds: ``TrialRecord`` keeps no per-spot naive counts, so a naive count
# that moves without moving a decision is missed here (the identify pins of
# test_cli.py print every count of one session each).
_STRUCTURAL_CELLS = (
    [("artifacts", *cell) for cell in _PINNED_CELLS]
    + [("pattern-run", subject, trials) for subject, trials in _PINNED_PATTERN_RUNS]
    + [("kernel", *cell) for cell in _KERNEL_CELLS]
    + [("martingale",)]
)
_STRUCTURAL_DIGESTS = {
    ('artifacts', 'bayes', 'alice', 'point_pair'): (
        "ed5a9b661641a9a8fa0cbec04a48605062e92d09a900b20d922f20ac65acfbd7"
    ),
    ('artifacts', 'bayes', 'alice', 'uniform_bands'): (
        "e6e579b9c69e4adf10ba07cd8340b75d1ef0c49684a44a1656917e500091b96f"
    ),
    ('artifacts', 'bayes', 'eve:uniformp', 'point_pair'): (
        "f79f40d8fa1197149bdffa72547f646f1f546de21f6fe6a1c460bf0191d2b11f"
    ),
    ('artifacts', 'bayes', 'eve:uniformp', 'uniform_bands'): (
        "71d245657b3364390730b220fd332622acddfbc5387821b377d05f2fba1f1ba0"
    ),
    ('artifacts', 'bayes', 'eve:echo', 'point_pair'): (
        "3c2e012fdd170362f4882d59f92fbbbdc780193b8ee2f942fdc473d45bcf3113"
    ),
    ('artifacts', 'bayes', 'eve:echo', 'uniform_bands'): (
        "471ec6d9d5ae63baa274dad3e5e31b7709c2756d0c3d55a527556cf7f3dc2d9f"
    ),
    ('artifacts', 'serial', 'alice', 'point_pair'): (
        "53ad3a366fb731762ccfa4e479008c518426d1099a0f559a0b11c5c6f4f54e01"
    ),
    ('artifacts', 'serial', 'alice', 'uniform_bands'): (
        "53ad3a366fb731762ccfa4e479008c518426d1099a0f559a0b11c5c6f4f54e01"
    ),
    ('artifacts', 'serial', 'eve:uniformp', 'point_pair'): (
        "932872ae9f9ba387d66e1027d0d372d7963e639b26370734fc8e61b257cbaa1b"
    ),
    ('artifacts', 'serial', 'eve:uniformp', 'uniform_bands'): (
        "932872ae9f9ba387d66e1027d0d372d7963e639b26370734fc8e61b257cbaa1b"
    ),
    ('artifacts', 'serial', 'eve:echo', 'point_pair'): (
        "5841402ca288c536d6f3a33ade19afa9699251c1617a50e3abe4f33027dfa8d9"
    ),
    ('artifacts', 'serial', 'eve:echo', 'uniform_bands'): (
        "5841402ca288c536d6f3a33ade19afa9699251c1617a50e3abe4f33027dfa8d9"
    ),
    ('artifacts', 'naive', 'alice', 'point_pair'): (
        "d918e642606538fc2259eef1551b37391c75c2a2257159467207e04324908ae8"
    ),
    ('artifacts', 'naive', 'alice', 'uniform_bands'): (
        "d918e642606538fc2259eef1551b37391c75c2a2257159467207e04324908ae8"
    ),
    ('artifacts', 'naive', 'eve:uniformp', 'point_pair'): (
        "22bd575519c53507581c24b9d042cb8edded79d577dd7276427445349e44b53b"
    ),
    ('artifacts', 'naive', 'eve:uniformp', 'uniform_bands'): (
        "22bd575519c53507581c24b9d042cb8edded79d577dd7276427445349e44b53b"
    ),
    ('artifacts', 'naive', 'eve:echo', 'point_pair'): (
        "9549cc1eb38f46a2b634b9510c99501871f5cba5727da0a3c1b189ff6f50b272"
    ),
    ('artifacts', 'naive', 'eve:echo', 'uniform_bands'): (
        "9549cc1eb38f46a2b634b9510c99501871f5cba5727da0a3c1b189ff6f50b272"
    ),
    ('artifacts', 'pattern', 'alice', 'point_pair'): (
        "f162a8e9260e5c909005572357e42c0bbacc001835beedace092ad46d8859841"
    ),
    ('artifacts', 'pattern', 'alice', 'uniform_bands'): (
        "f162a8e9260e5c909005572357e42c0bbacc001835beedace092ad46d8859841"
    ),
    ('artifacts', 'pattern', 'eve:uniformp', 'point_pair'): (
        "ae13e0df0fa79d1bfb61b827a38a546c002b139979833a66ece5395070691d8d"
    ),
    ('artifacts', 'pattern', 'eve:uniformp', 'uniform_bands'): (
        "ae13e0df0fa79d1bfb61b827a38a546c002b139979833a66ece5395070691d8d"
    ),
    ('artifacts', 'pattern', 'eve:echo', 'point_pair'): (
        "ae13e0df0fa79d1bfb61b827a38a546c002b139979833a66ece5395070691d8d"
    ),
    ('artifacts', 'pattern', 'eve:echo', 'uniform_bands'): (
        "ae13e0df0fa79d1bfb61b827a38a546c002b139979833a66ece5395070691d8d"
    ),
    ('pattern-run', 'alice', 40): (
        "0c36ca46952d375504c0c898c2f8da6ff25a3d8a40cc2294c2aec00b6f4c6715"
    ),
    ('pattern-run', 'eve:faircoin', 200): (
        "e5b9f92f556c850b7e2f9d35a978274fe85f8d809dc46b1a65f75fe5203e03aa"
    ),
    ('kernel', 'bayes', 'alice', 'point_pair', False): (
        "9eba97bc21c0b97f44a7f0720131d2ad5f1b08623569303ba95f93c9b2be95cd"
    ),
    ('kernel', 'bayes', 'alice', 'point_pair', True): (
        "58a474d9a583e04e02f762376ae450a19b867a0000331c3b0f31516b97939f89"
    ),
    ('kernel', 'bayes', 'alice', 'uniform_bands', False): (
        "fb4df48eef58956a58878118b4741d1b493b7dc34e7679cba9314cefaf2e28cd"
    ),
    ('kernel', 'bayes', 'alice', 'uniform_bands', True): (
        "35734c8989687c79449fcb95c6102df060bd29efe7225a45f62fab31660f6160"
    ),
    ('kernel', 'bayes', 'eve:faircoin', 'point_pair', False): (
        "519fe0b722e23c2219128e24c263746c201642f6e63de6b29e2b4ad5f345a337"
    ),
    ('kernel', 'bayes', 'eve:faircoin', 'point_pair', True): (
        "7292cee87a3474e7c635054a14e802c841c6a81c5563c3e3ace24fa38d35c4e4"
    ),
    ('kernel', 'bayes', 'eve:faircoin', 'uniform_bands', False): (
        "691f670260d60d599e4496a952a7e35112878560bfad6ea831822e68baae2b11"
    ),
    ('kernel', 'bayes', 'eve:faircoin', 'uniform_bands', True): (
        "de740a85d70b7288344698ce9c2357417333940ffea83557c502d2a554e87727"
    ),
    ('kernel', 'bayes', 'eve:uniformp', 'point_pair', False): (
        "ede7b3626f6c7112bd1d95e766c6f5b697e7708961f79c00a8e64247f123042f"
    ),
    ('kernel', 'bayes', 'eve:uniformp', 'point_pair', True): (
        "4a3e8ab61a385591ee9c82f3a63939131684f0605c6b23f06a62014057b066e5"
    ),
    ('kernel', 'bayes', 'eve:uniformp', 'uniform_bands', False): (
        "5d2e31edd24a17c715bf84b4b1ee9821940492ba457a09597cb253084677bd95"
    ),
    ('kernel', 'bayes', 'eve:uniformp', 'uniform_bands', True): (
        "64cfae2fd3f704eeac2033d21cb6619720fd1d599f65eb5fafe9a596eb78ef46"
    ),
    ('kernel', 'bayes', 'eve:fixedp:0.3', 'point_pair', False): (
        "519fe0b722e23c2219128e24c263746c201642f6e63de6b29e2b4ad5f345a337"
    ),
    ('kernel', 'bayes', 'eve:fixedp:0.3', 'point_pair', True): (
        "937acf51a65248bcacf166563d3375800af27495870cc8614d93da7578373f11"
    ),
    ('kernel', 'bayes', 'eve:fixedp:0.3', 'uniform_bands', False): (
        "7ecf065a6952dfd8f0e573ab7947a84f0dee8d1570babfca69986e8bf8cc163c"
    ),
    ('kernel', 'bayes', 'eve:fixedp:0.3', 'uniform_bands', True): (
        "712d4a261184583f9ecfb158557a37da73714549b10de35dcb887637afb61b9a"
    ),
    ('kernel', 'bayes', 'eve:echo', 'point_pair', False): (
        "519fe0b722e23c2219128e24c263746c201642f6e63de6b29e2b4ad5f345a337"
    ),
    ('kernel', 'bayes', 'eve:echo', 'point_pair', True): (
        "652a2eed20c853e2416fec18ff10b449f6a7ba27c1da385be2df7c4dfb50ca2c"
    ),
    ('kernel', 'bayes', 'eve:echo', 'uniform_bands', False): (
        "682e7a220d1620385abc2e37f3f8baa958e139683d70722f3a875d6a51e64d7e"
    ),
    ('kernel', 'bayes', 'eve:echo', 'uniform_bands', True): (
        "9a383684442753e3a9b893aa39357dbb4bf26f42181e8f80cdb16cab5e63ed2d"
    ),
    ('kernel', 'serial', 'eve:echo', 'point_pair', False): (
        "c48d6c91abe692a947c4a4613b4f0aace66e47c42d9641ca82fd0e97b4225c0d"
    ),
    ('kernel', 'naive', 'eve:echo', 'point_pair', False): (
        "ca6c7354c73d56c96788c1030986b77e83807dfe42a2355cb3a4614476d880be"
    ),
    ('martingale',): (
        "cf8a6dc005fd32dc9b3f103392c6e692b74a9ec97e0065626eb99ac98d83ee31"
    ),
}


def _structural_config(cell) -> RunConfig:
    kind, *rest = cell
    if kind == "artifacts":
        strategy, subject, distribution = rest
        return RunConfig(strategy=strategy, subject=subject, distribution=distribution,
                         trials=_PINNED_TRIALS[strategy], master_seed=4519,
                         map_width=40, map_height=40)
    if kind == "pattern-run":
        subject, trials = rest
        return RunConfig(strategy="pattern", subject=subject, trials=trials,
                         master_seed=4520)
    strategy, subject, distribution, transcript = rest
    return RunConfig(strategy=strategy, subject=subject, distribution=distribution,
                     trials=_KERNEL_TRIALS, master_seed=4521, map_width=40,
                     map_height=40,
                     walk_trace_limit=_KERNEL_TRIALS if transcript else 0)


def _structural_digest(cell, monkeypatch) -> str:
    import retinasim.harness

    digest = hashlib.sha256()
    if cell == ("martingale",):
        context = prepare(RunConfig(subject="eve:echo", map_width=40, map_height=40))
        rng = make_rng(4522)
        report = martingale_diagnostics(context.sequential_plan, context.subject,
                                        50, 40, rng)
        digest.update(repr((report.statistic, report.n_trials,
                            report.checkpoints)).encode())
        digest.update(json.dumps(_plain(rng.bit_generator.state),
                                 sort_keys=True).encode())
        return digest.hexdigest()
    config = _structural_config(cell)
    streams = []

    def kept_rng(master_seed, trial_index):
        streams.append(trial_rng(master_seed, trial_index))
        return streams[-1]

    monkeypatch.setattr(retinasim.harness, "trial_rng", kept_rng)
    _stats, records = montecarlo(config)
    low_top = config.distribution_object().low_band[1]
    for record, stream in zip(records, streams, strict=True):
        digest.update(repr((record.trial, record.accepted, record.timed_out,
                            record.rounds, record.boundary_violation)).encode())
        if record.walk is not None:
            digest.update(bytes(2 * (step.alpha > low_top) + step.saw
                                for step in record.walk))
        digest.update(json.dumps(_plain(stream.bit_generator.state),
                                 sort_keys=True).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "cell", _STRUCTURAL_CELLS, ids=["-".join(map(str, c)) for c in _STRUCTURAL_CELLS]
)
def test_structure_matches_pinned_digests(cell, monkeypatch):
    assert _structural_digest(cell, monkeypatch) == _STRUCTURAL_DIGESTS[cell]
