"""End-to-end tests of the command-line interface: exit codes, output
snippets, artifact emission, and config/flag precedence.  Everything runs
through ``main(argv)`` in-process, except the import-path checks, which need
a fresh interpreter."""

import ast
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import retinasim
from retinasim import (
    ConfigError,
    InfeasibleError,
    RunConfig,
    optimize_intensity,
    prepare,
    run_trial,
)
from retinasim.cli import _build_parser, _config_from_args, main

# exit codes: 0 accept/success, 1 reject, 2 usage, 3 infeasible/config

# Each flag, a value for it, and the config field and value that sets.
# ``--config`` reads a file holding ``{"k": 7}``.
_FLAGS = {
    "--config": (None, "k", 7),
    "--seed": ("3", "master_seed", 3),
    "--trials": ("5", "trials", 5),
    "--strategy": ("naive", "strategy", "naive"),
    "--subject": ("eve:echo", "subject", "eve:echo"),
    "--out": ("X", "out_dir", "X"),
}
# The flags each subcommand's handler reads; any other flag is a usage error.
_COMMAND_FLAGS = {
    "enroll": ("--config", "--seed", "--out"),
    "identify": ("--config", "--seed", "--strategy", "--subject"),
    "montecarlo": tuple(_FLAGS),
    "solve": ("--config",),
    "pattern": ("--config",),
    "bounds": ("--config",),
}


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert main(["solve", "--wat"]) == 2
        capsys.readouterr()

    def test_negative_seed(self, capsys):
        assert main(["identify", "--seed", "-1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("seed", ["abc", "1.5", str(2**64)])
    def test_bad_seed_message(self, seed, capsys):
        assert main(["montecarlo", "--seed", seed]) == 2
        err = capsys.readouterr().err
        assert err.endswith(
            "error: argument --seed: seed must be an unsigned 64-bit integer\n"
        )

    def test_missing_config_file(self, capsys):
        assert main(["identify", "--config", "/no/such/file.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_config_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["identify", "--config", str(path)]) == 3
        assert "invalid JSON" in capsys.readouterr().err

    def test_config_file_not_in_a_utf_encoding(self, tmp_path, capsys):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\x7fELF\x02\x01\x01\xff\xfe\x00{")
        assert main(["solve", "--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: config file {path}: invalid JSON")

    def test_map_file_not_in_a_utf_encoding(self, tmp_path, capsys):
        store = tmp_path / "binary.json"
        store.write_bytes(b"\x7fELF\x02\x01\x01\xff\xfe\x00{")
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"map_file": str(store)}))
        assert main(["identify", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {store}: invalid JSON")

    def test_unknown_config_field(self, tmp_path, capsys):
        path = tmp_path / "extra.json"
        path.write_text('{"warp_factor": 9}')
        assert main(["montecarlo", "--config", str(path)]) == 3
        assert "warp_factor" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, doc, field",
        [
            ("identify", {"master_seed": 1.5}, "master_seed"),
            ("identify", {"map_width": 100.0}, "map_width"),
            ("identify", {"pattern_noise": 2.5, "strategy": "pattern"}, "pattern_noise"),
            ("identify", {"p_fp": "1e-10", "strategy": "serial"}, "p_fp"),
            ("montecarlo", {"trials": 2.5}, "trials"),
            ("identify", {"alpha_low": "0.05"}, "alpha_low"),
            ("identify", {"trials": True}, "trials"),
        ],
    )
    def test_config_value_of_wrong_kind(self, command, doc, field, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(field) in err

    def test_bad_trial_count(self, tmp_path, capsys):
        assert main(["montecarlo", "--trials", "0"]) == 3
        assert "trials" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, doc, field",
        [
            ("identify", {"strategy": "pattern", "pattern_miss_limit": 0},
             "pattern_miss_limit"),
            ("montecarlo", {"strategy": "pattern", "pattern_noise_limit": 0},
             "pattern_noise_limit"),
            ("identify", {"strategy": "pattern", "pattern_low_max": 0.2},
             "pattern_low_max"),
            ("identify", {"strategy": "pattern", "pattern_i_tilde": -1},
             "pattern_i_tilde"),
            ("identify", {"strategy": "naive", "naive_p_c": 1.5}, "naive_p_c"),
            ("identify", {"map_width": 0}, "map_width"),
            ("montecarlo", {"map_height": 0}, "map_height"),
            ("solve", {"map_alpha_min": 0.5}, "map_alpha_min"),
            ("identify", {"i_tilde": -1}, "i_tilde"),
            ("identify", {"i_tilde": 1e400}, "i_tilde"),
            ("identify", {"alpha_low": 0.5}, "alpha_low"),
            ("identify", {"distribution": "uniform_bands", "low_band": [0.05, 0.02]},
             "low_band"),
            ("identify", {"i_tilde": 0}, "i_tilde"),
            ("identify", {"i_tilde": 1000}, "i_tilde"),
            ("solve", {"i_tilde": 0}, "i_tilde"),
            ("solve", {"i_tilde": 1000}, "i_tilde"),
            ("identify", {"p_fp": 10**400}, "p_fp"),
            ("identify", {"low_band": [10**400, 0.05]}, "low_band"),
            ("solve", {"map_width": 10**20}, "map_width"),
            ("pattern", {"map_width": 100_000, "map_height": 100_000}, "map_height"),
        ],
    )
    def test_config_value_out_of_range(self, command, doc, field, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and repr(field) in captured.err

    def test_config_integer_past_the_digit_limit(self, tmp_path, capsys):
        """``json.loads`` refuses the integer before any field is known, so
        the message names the file, not the field."""
        path = tmp_path / "run.json"
        path.write_text('{"trials": 1' + "0" * 5000 + "}")
        assert main(["identify", "--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: config file {path}: invalid JSON")

    @pytest.mark.parametrize(
        "command, flag",
        [(c, f) for c, kept in _COMMAND_FLAGS.items() for f in _FLAGS if f not in kept],
    )
    def test_flag_the_command_does_not_read(self, command, flag, capsys):
        assert main([command, flag, _FLAGS[flag][0]]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag", [(c, f) for c, kept in _COMMAND_FLAGS.items() for f in kept]
    )
    def test_flag_the_command_reads(self, command, flag, tmp_path):
        value, field, expected = _FLAGS[flag]
        if value is None:
            value = str(tmp_path / "run.json")
            Path(value).write_text(json.dumps({field: expected}))
        args = _build_parser().parse_args([command, flag, value])
        assert getattr(_config_from_args(args), field) == expected

    @pytest.mark.parametrize(
        "doc, fragment",
        [
            ({"pattern_high_min": 0.5}, "no library glyph"),
            ({"map_width": 4}, "smaller than the 5x7 glyph grid"),
            ({"map_height": 4}, "smaller than the 5x7 glyph grid"),
            ({"pattern_noise": 5000}, "5000 noise spots requested"),
            ({"pattern_high_min": 0.17844},
             "glyph '%' has no high-transmission spot (alpha >= 0.17844) in the "
             "block of its cell (3, 3)"),
            # some glyph's challenge lights too few cells for a second entry
            ({"pattern_noise": 12, "pattern_menu": 2},
             "only 1 glyphs embeddable in the illuminated set; 2 requested"),
        ],
    )
    def test_unplaceable_pattern_fails_before_output(self, doc, fragment, tmp_path,
                                                     capsys):
        """The run is refused when its plan is made, whatever the session
        would draw: at every seed, for either subject, and in bulk."""
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"strategy": "pattern", **doc}))
        argvs = [["montecarlo", "--config", str(path), "--trials", "3"]]
        argvs += [["identify", "--config", str(path), "--subject", subject,
                   "--seed", str(seed)]
                  for subject in ("alice", "eve:faircoin") for seed in range(1, 9)]
        for argv in argvs:
            assert main(argv) == 3, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:") and fragment in captured.err

    @pytest.mark.parametrize("command", ["identify", "montecarlo"])
    def test_unfillable_menu_names_its_glyph_and_fields(self, command, tmp_path, capsys):
        """The menu refusal names the glyph whose challenge leaves the
        smallest menu, and the two fields that would let it fill one."""
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"strategy": "pattern", "pattern_noise": 12,
                                    "pattern_menu": 2}))
        assert main([command, "--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: hidden among 12 noise spots, library glyph '%' leaves the "
            "smallest menu: only 1 glyphs embeddable in the illuminated set; 2 "
            "requested; raise field 'pattern_noise' or lower field 'pattern_menu'\n")

    @pytest.mark.parametrize(
        "argv",
        [["identify"], ["identify", "--strategy", "serial"], ["montecarlo"],
         ["solve"], ["bounds"]],
    )
    def test_map_band_below_distribution_fails_before_output(self, argv, tmp_path,
                                                             capsys):
        """Every spot lies in [0.1, 0.12]; the default distribution flashes
        0.05 and 0.15."""
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"map_alpha_min": 0.1, "map_alpha_max": 0.12}))
        assert main([*argv, "--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the map only provides [0.1, 0.12]" in captured.err
        assert "'alpha_low' and 'alpha_high'" in captured.err
        assert "'map_alpha_min' and 'map_alpha_max'" in captured.err

    def test_stored_map_band_below_distribution_names_map_file(self, tmp_path,
                                                               capsys):
        enroll = tmp_path / "enroll.json"
        enroll.write_text(json.dumps({"map_alpha_min": 0.1, "map_alpha_max": 0.12}))
        store = tmp_path / "store"
        assert main(["enroll", "--config", str(enroll), "--out", str(store)]) == 0
        capsys.readouterr()
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"map_file": str(store / "map.json")}))
        assert main(["identify", "--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'map_file'" in captured.err

    def test_pattern_report_ignores_distribution_coverage(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"map_alpha_min": 0.1, "map_alpha_max": 0.12}))
        assert main(["pattern", "--config", str(path)]) == 0
        assert "alpha=(0.1, 0.12):" in capsys.readouterr().out

    def test_naive_mu_above_map_spots_fails_before_output(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"naive_mu": 20000}))
        assert main(["identify", "--config", str(path), "--strategy", "naive"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "'naive_mu'" in captured.err

    @pytest.mark.parametrize("field", ["alpha", "alpha_max"])
    def test_map_number_too_large_for_a_float(self, field, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["enroll", "--out", str(store)]) == 0
        text = (store / "map.json").read_text()
        doc = json.loads(text)
        huge = "1" + "0" * 400
        if field == "alpha":
            doc["alpha"][2] = 0.125
            text = json.dumps(doc).replace("0.125", huge, 1)
            named = "alpha[2]"
        else:
            doc["alpha_max"] = 0.125
            text = json.dumps(doc).replace('"alpha_max": 0.125', f'"alpha_max": {huge}')
            named = "'alpha_max'"
        (store / "map.json").write_text(text)
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"map_file": str(store / "map.json")}))
        capsys.readouterr()
        assert main(["identify", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and named in captured.err

    def test_pattern_map_below_glyph_grid(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"map_width": 4, "map_height": 4}))
        code = main(["montecarlo", "--config", str(path), "--strategy", "pattern",
                     "--trials", "3"])
        assert code == 3
        assert "smaller than the 5x7 glyph grid" in capsys.readouterr().err


class TestEnroll:
    def test_writes_map(self, tmp_path, capsys):
        out = tmp_path / "store"
        assert main(["enroll", "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "enrolled map: 100x100" in captured
        assert (out / "map.json").exists()

    def test_enroll_is_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["enroll", "--out", str(a)]) == 0
        assert main(["enroll", "--out", str(b)]) == 0
        capsys.readouterr()
        assert (a / "map.json").read_bytes() == (b / "map.json").read_bytes()

    def test_enroll_import_roundtrip(self, tmp_path, capsys):
        first = tmp_path / "first"
        assert main(["enroll", "--out", str(first)]) == 0
        config = tmp_path / "import.json"
        config.write_text(json.dumps({"map_file": str(first / "map.json")}))
        second = tmp_path / "second"
        assert main(["enroll", "--config", str(config), "--out", str(second)]) == 0
        capsys.readouterr()
        assert (first / "map.json").read_bytes() == (second / "map.json").read_bytes()

    def test_requires_out_dir(self, capsys):
        assert main(["enroll"]) == 3
        assert "out_dir" in capsys.readouterr().err


class TestIdentify:
    def test_honest_user_accepted(self, capsys):
        assert main(["identify", "--seed", "4601"]) == 0
        out = capsys.readouterr().out
        assert "strategy: bayes" in out
        assert "i_tilde=62.3254" in out
        assert "outcome: accept" in out
        # transcript table with the running log odds
        assert "log_odds" in out

    def test_long_transcript_is_cut_with_a_count(self, monkeypatch, capsys):
        monkeypatch.setattr(retinasim.harness, "_TRANSCRIPT_CAP", 5)
        assert main(["identify", "--seed", "4601"]) == 0
        out = capsys.readouterr().out
        rounds = int(re.search(r"outcome: accept after (\d+) rounds", out).group(1))
        assert rounds > 5
        assert f"\n... ({rounds - 5} more rounds)\n" in out
        assert re.findall(r"^ +(\d+) +0\.", out, re.MULTILINE) == ["1", "2", "3", "4", "5"]

    def test_impostor_rejected(self, capsys):
        code = main(["identify", "--seed", "4601", "--subject", "eve:faircoin"])
        assert code == 1
        assert "outcome: reject" in capsys.readouterr().out

    def test_serial_session(self, capsys):
        assert main(["identify", "--seed", "4602", "--strategy", "serial"]) == 0
        out = capsys.readouterr().out
        assert "N=138" in out
        assert "wrong answers:" in out
        assert "outcome: accept" in out

    def test_naive_session(self, capsys):
        assert main(["identify", "--seed", "4603", "--strategy", "naive"]) == 0
        out = capsys.readouterr().out
        assert "window (9, 42)" in out
        assert "(50 of 50 spots tested)" in out

    @pytest.mark.parametrize("strategy", ["naive", "pattern"])
    def test_runs_that_tune_their_own_intensity_need_no_operating_point(
        self, strategy, tmp_path, capsys
    ):
        # At k = 200 the symmetric point has q = 6.8e-15, below the 1e-12
        # floor the solver accepts; only bayes, serial and the solve report
        # pulse at it, so only they refuse the config.
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"k": 200}))
        code = main(["identify", "--config", str(path), "--strategy", strategy])
        captured = capsys.readouterr()
        assert code in (0, 1) and captured.err == ""
        assert "outcome: " in captured.out
        for argv in (["identify", "--strategy", "bayes"],
                     ["identify", "--strategy", "serial"], ["solve"]):
            assert main([*argv, "--config", str(path)]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "no symmetric operating point" in captured.err

    def test_pattern_impostor(self, capsys):
        code = main([
            "identify", "--seed", "4604", "--strategy", "pattern",
            "--subject", "eve:uniformp",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "menu of 40" in out
        assert "outcome: reject" in out

    def test_interactive_session_reads_stdin(self, capsys, monkeypatch):
        class AlwaysSeen:
            def readline(self):
                return "y\n"

        monkeypatch.setattr("sys.stdin", AlwaysSeen())
        code = main(["identify", "--seed", "4605", "--subject", "interactive"])
        assert code == 1
        out = capsys.readouterr().out
        assert "seen? [y/n]" in out
        assert "outcome: reject" in out

    def test_interactive_pattern_session_is_refused(self, capsys, monkeypatch):
        """A pattern session asks the subject nothing, so it could only play
        a uniform pick in the user's name."""
        monkeypatch.setattr("sys.stdin", None)
        code = main(["identify", "--strategy", "pattern", "--subject", "interactive"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: strategy 'pattern' asks the subject")

    def test_interactive_aborts_on_closed_stdin(self, capsys, monkeypatch):
        class Closed:
            def readline(self):
                return ""

        monkeypatch.setattr("sys.stdin", Closed())
        code = main(["identify", "--seed", "4605", "--subject", "interactive"])
        assert code == 3
        assert "stdin closed" in capsys.readouterr().err


# SHA-256 of the stdout and the exit code of `identify --seed 4601` per
# (strategy, subject).  A mismatch means the session's RNG consumption or its
# printout changed.
_IDENTIFY_PINS = {
    ("bayes", "alice"): (
        "5398e4db27064796498d1631988c9bb9aeb008854213ed7c0e49c1d921a170b8", 0
    ),
    ("bayes", "eve:faircoin"): (
        "6a8b2a8f0cf41cea2a2584615111bf6b130cc2199c3c99351478e7692c8f79d5", 1
    ),
    ("bayes", "eve:uniformp"): (
        "d3fb4b7f867b1f074b20780bc2b8582a83c60a47dda6aa159b8acf14d047def4", 1
    ),
    ("bayes", "eve:echo"): (
        "d8ce2678bb2a0fe7ea4f75f6c37f8b407118556da54b2548a8ac438f5f44c61c", 1
    ),
    ("serial", "alice"): (
        "b480650f0cbc88587d326bef553392eb6f0fcd463f3707be96c3b7f9ffdabd6e", 0
    ),
    ("serial", "eve:faircoin"): (
        "aeaea377401ab1665570022f8de2fd74bdfd8b8960c6eb72c52e505fb6456721", 1
    ),
    ("serial", "eve:uniformp"): (
        "734b394aa2dec977f79a984a0c93b2c785ac7c49f06ab549d445211645e2cdd1", 1
    ),
    ("serial", "eve:echo"): (
        "698b1b36a3618a2c808c5e9aa1974a9c9442fc8c8528c80c4946265d82341320", 1
    ),
    ("naive", "alice"): (
        "2a8cb4a0034da25b14ef9517d5b771bf38133c67b8d10ce9db82e5618e7097f3", 0
    ),
    ("naive", "eve:faircoin"): (
        "31807f32edef02ab79724dd869e5066167f1a8e2b7eae4dc2e10b658395c816d", 0
    ),
    ("naive", "eve:uniformp"): (
        "d81671e94b6cb821fc19c0570623e39fae5ed83b7a3b4f780f019f87d6a31444", 1
    ),
    ("naive", "eve:echo"): (
        "cf710f33bc4161a60f786bef2c2bc2977ca529508dae8819b195c2b43a78c0a6", 1
    ),
    ("pattern", "alice"): (
        "05b4ec333152cfc2fc864f93303dde5f389f56d1dc81b3712e3230c176543290", 0
    ),
    ("pattern", "eve:faircoin"): (
        "11c5c0bd94b3c22f4bcbda12674018e443cb66a07d43e9245749f6ed6e4c20cd", 1
    ),
    ("pattern", "eve:uniformp"): (
        "1de1e9eab7745c951d009f8614e11be3b20c9183e6d4f9124c0f07f4b9ef9c5b", 1
    ),
    ("pattern", "eve:echo"): (
        "903b47e4c7ecd13501069c5d12fb52c8a744bf18e6b583d096f2a1ff93a2afef", 1
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestIdentifyPinned:
    @pytest.mark.parametrize(
        "strategy,subject",
        list(_IDENTIFY_PINS),
        ids=["-".join(cell) for cell in _IDENTIFY_PINS],
    )
    def test_stdout_and_exit_code(self, strategy, subject, capsys):
        code = main([
            "identify", "--seed", "4601", "--strategy", strategy,
            "--subject", subject,
        ])
        assert (_sha256(capsys.readouterr().out), code) == _IDENTIFY_PINS[
            (strategy, subject)
        ]

    def test_interactive_session_always_seen(self, capsys, monkeypatch):
        class AlwaysSeen:
            def readline(self):
                return "y\n"

        monkeypatch.setattr("sys.stdin", AlwaysSeen())
        code = main(["identify", "--seed", "4601", "--subject", "interactive"])
        assert (_sha256(capsys.readouterr().out), code) == (
            "3ac8bfcd69bfe82e0c4adcf8f98cdc877250497063a2104e40ad8c9fe2807bde", 1
        )

    @pytest.mark.parametrize("seed", [1, 9])
    @pytest.mark.parametrize("subject", ["alice", "eve:uniformp"])
    @pytest.mark.parametrize("strategy", ["bayes", "serial", "naive", "pattern"])
    def test_identify_is_trial_zero_of_montecarlo(
        self, strategy, subject, seed, capsys
    ):
        config = RunConfig(strategy=strategy, subject=subject, master_seed=seed)
        expected = 0 if run_trial(prepare(config), 0).accepted else 1
        code = main([
            "identify", "--seed", str(seed), "--strategy", strategy,
            "--subject", subject,
        ])
        capsys.readouterr()
        assert code == expected


class TestMontecarloCommand:
    def test_bulk_run_with_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "montecarlo", "--trials", "80", "--seed", "4606", "--out", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "trials: 80" in captured
        assert "accepted: 80" in captured
        assert "boundary violations: 0" in captured
        assert f"artifacts written to {out}" in captured
        assert (out / "summary.json").exists()
        assert (out / "t_histogram.csv").exists()
        assert (out / "walks.csv").exists()

    def test_impostor_bulk_run(self, capsys):
        code = main([
            "montecarlo", "--trials", "60", "--seed", "4607",
            "--subject", "eve:faircoin",
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "accepted: 0" in captured
        assert "rejected: 60" in captured

    def test_flags_override_config_file(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(
            {"strategy": "serial", "trials": 999, "master_seed": 11}
        ))
        code = main([
            "montecarlo", "--config", str(config), "--trials", "30",
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "strategy: serial" in captured
        assert "trials: 30" in captured
        assert "seed: 11" in captured

    def test_interactive_subject_rejected_in_bulk(self, capsys):
        code = main(["montecarlo", "--trials", "5", "--subject", "interactive"])
        assert code == 3
        assert "interactive" in capsys.readouterr().err


class TestSolveCommand:
    def test_full_report(self, capsys):
        assert main(["solve"]) == 0
        out = capsys.readouterr().out
        assert "wrong-answer probability q = 0.096091" in out
        assert "pulse intensity i_tilde    = 62.3254" in out
        assert "rounds N = 138" in out
        assert "mu = 50 spots, nu = 50 pulses/spot (total 2500), window (9, 42)" in out
        assert "E[T | honest]" in out
        assert "E[T | impostor]" in out
        assert "p_fp = (1/40)^6 = 2.4414e-10" in out
        assert "p_fp = (1/18)^8 = 9.0744e-11" in out
        assert "alpha=(0.02, 0.18): i_tilde* = 72.3, p_fn* = 4.997873e-04" in out
        assert "bulk heating per pulse:        4.667e-19 K" in out

    def test_report_follows_config(self, tmp_path, capsys):
        config = tmp_path / "wide.json"
        config.write_text(json.dumps({"alpha_low": 0.04, "alpha_high": 0.16, "k": 6}))
        assert main(["solve", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "alpha_low=0.04" in out
        assert "q = 0.096091" not in out

    @pytest.mark.parametrize(
        "doc, line",
        [
            ({}, "  classes: alpha_low=0.05  alpha_high=0.15  K=6"),
            (
                {
                    "distribution": "uniform_bands",
                    "low_band": [0.02, 0.07],
                    "high_band": [0.13, 0.18],
                },
                "  classes: low_band=(0.02, 0.07)  high_band=(0.13, 0.18)  K=6",
            ),
        ],
        ids=["point_pair", "uniform_bands"],
    )
    def test_classes_line_names_the_distribution_fields(self, doc, line, tmp_path,
                                                        capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(path)]) == 0
        assert line in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            {
                "distribution": "uniform_bands",
                "low_band": [0.02, 0.07],
                "high_band": [0.13, 0.18],
            },
            {"i_tilde": 70.0},
            {"naive_mu": 2},
            {"naive_mu": 20000},
            {"naive_mu": 10000},
            {"p_fp": 0.4, "p_fn": 0.4},
        ],
        ids=["default", "uniform_bands", "explicit_i_tilde", "naive_infeasible",
             "naive_mu_above_map_spots", "naive_window_clipped_many_spots",
             "naive_window_clipped_loose_targets"],
    )
    def test_rounds_match_the_run_that_config_makes(self, doc, tmp_path, capsys):
        """Every number ``solve`` sizes is the one the run of that strategy
        uses; a naive plan no run could use is reported, not refused."""
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        serial = prepare(RunConfig(strategy="serial", **doc))
        plan = serial.serial_plan
        try:
            naive = prepare(RunConfig(strategy="naive", **doc)).naive_plan
        except (ConfigError, InfeasibleError) as exc:
            naive_line = f"  infeasible: {exc}"
        else:
            naive_line = (f"  mu = {naive.mu} spots, nu = {naive.nu} pulses/spot "
                          f"(total {naive.mu * naive.nu}), "
                          f"window ({naive.n_l}, {naive.n_r})")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["solve", "--config", str(path)]) == 0
        assert caught == []
        lines = capsys.readouterr().out.splitlines()
        assert f"  wrong-answer probability q = {plan.q:.6f}" in lines
        assert f"  pulse intensity i_tilde    = {serial.i_tilde:.4f}" in lines
        assert (f"  decision fraction w = {plan.w:.6f}, rounds N = {plan.n_rounds}"
                in lines)
        assert lines[lines.index("per-spot counting test") + 1] == naive_line

    def test_infeasible_naive_plan_is_reported_not_refused(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"naive_mu": 2}))
        assert main(["solve", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[lines.index("per-spot counting test") + 1].startswith(
            "  infeasible: no nu <= 1000000 meets p_fp=1e-10, p_fn=0.0001 with mu=2"
        )

    @pytest.mark.parametrize(
        "argv, code",
        [(["identify", "--strategy", "naive"], 1),
         (["montecarlo", "--strategy", "naive", "--trials", "20"], 0)],
        ids=["identify", "montecarlo"],
    )
    def test_clipped_naive_window_leaves_stderr_empty(self, argv, code, tmp_path,
                                                       capsys):
        """At p_fp = p_fn = 0.4 the naive window is clipped to (0, 6) within
        counts 0..6, and the run writes nothing to stderr about it."""
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"p_fp": 0.4, "p_fn": 0.4}))
        assert main([*argv, "--config", str(path)]) == code
        assert capsys.readouterr().err == ""


class TestPatternCommand:
    def test_report(self, capsys):
        assert main(["pattern"]) == 0
        out = capsys.readouterr().out
        assert "(1/40)^6" in out
        assert "alpha=(0.02, 0.18): i_tilde* = 72.3" in out
        # narrow class pairs are reported too, with their much worse optimum
        assert "alpha=(0.04, 0.16)" in out

    def test_optimum_follows_pattern_config(self, tmp_path, capsys):
        path = tmp_path / "pattern.json"
        path.write_text(json.dumps(
            {"pattern_questions": 8, "pattern_noise": 40, "pattern_miss_limit": 3}
        ))
        assert main(["pattern", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "(25 pattern + 40 noise spots, limits 3/5, 8 questions):" in out
        pairs = [(0.02, 0.16), (0.02, 0.18), (0.04, 0.16), (0.04, 0.18)]
        for alpha_low, alpha_high in pairs:
            try:
                i_star, p_star = optimize_intensity(
                    25, 40, 3, 5, alpha_low, alpha_high, 6, 8
                )
            except InfeasibleError:
                line = "bound vacuous over the whole intensity range"
            else:
                line = f"i_tilde* = {i_star:.1f}, p_fn* = {p_star:.6e}"
            assert f"alpha=({alpha_low}, {alpha_high}): {line}" in out


    @pytest.mark.parametrize("command", ["pattern", "solve"])
    def test_no_noise_spots_reports_no_optimum(self, command, tmp_path, capsys):
        path = tmp_path / "pattern.json"
        path.write_text(json.dumps({"pattern_noise": 0}))
        assert main([command, "--config", str(path)]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "no optimum: the bound needs at least one noise spot" in captured.out


class TestBoundsCommand:
    def test_report(self, capsys):
        assert main(["bounds"]) == 0
        out = capsys.readouterr().out
        assert "sequential-test bounds" in out
        assert "drift: honest >= +0.37674/round, impostor <= -0.52859/round" in out
        assert "eavesdropping physics" in out
        assert "dipole falloff 1 cm -> 10 cm:  1000x" in out


class TestReportsFollowMapFile:
    """A stored map's band, not the synthetic-map fields, sets the reports'
    q_min and pattern class-edge pairs."""

    @pytest.fixture
    def map_config(self, tmp_path, capsys):
        enroll = tmp_path / "enroll.json"
        enroll.write_text(json.dumps({"map_alpha_min": 0.03, "map_alpha_max": 0.18}))
        store = tmp_path / "store"
        assert main(["enroll", "--config", str(enroll), "--out", str(store)]) == 0
        config = tmp_path / "use.json"
        config.write_text(json.dumps({"map_file": str(store / "map.json")}))
        capsys.readouterr()
        return str(config)

    def test_bounds_q_min_from_map_band(self, map_config, capsys):
        assert main(["bounds", "--config", map_config]) == 0
        out = capsys.readouterr().out
        # G6(0.03 * 62.3254); the synthetic-map default 0.02 gives 0.00181278
        assert "q_min=0.0123088)" in out
        assert "E[T | impostor] <= 24.6056" in out

    def test_solve_q_min_from_map_band(self, map_config, capsys):
        assert main(["solve", "--config", map_config]) == 0
        assert "q_min=0.0123088)" in capsys.readouterr().out

    def test_pattern_pairs_from_map_band(self, map_config, capsys):
        assert main(["pattern", "--config", map_config]) == 0
        out = capsys.readouterr().out
        assert "alpha=(0.03, 0.18):" in out
        assert "alpha=(0.03, 0.16):" in out
        assert "alpha=(0.02," not in out


def _scipy_loaded_after(script: str, tmp_path) -> list[str]:
    """Run ``script`` in a fresh interpreter, in ``tmp_path``, and return
    the SciPy modules it left in ``sys.modules``.  No module of the package
    imports SciPy: the seeing probability, its inverse and the band means
    are Poisson sums, the root search is a port in ``photon_stats``, and the
    physics constants are literals."""
    src = str(Path(retinasim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys\n"
        + script
        + "\nprint(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.strip().splitlines()[-1])


class TestImportPath:
    def test_import_loads_no_scipy(self, tmp_path):
        assert _scipy_loaded_after("import retinasim\nimport retinasim.cli\n",
                                   tmp_path) == []

    def test_commands_load_no_off_path_scipy(self, tmp_path):
        """Every subcommand, ``identify`` under each strategy, loads no SciPy
        module."""
        script = (
            "from retinasim.cli import main\n"
            "for argv in (['solve'], ['bounds'], ['pattern'],"
            " ['enroll', '--out', 'map'],"
            " ['montecarlo', '--trials', '20', '--out', 'mc'],"
            " ['montecarlo', '--trials', '5', '--strategy', 'naive'],"
            " ['identify', '--seed', '4601', '--strategy', 'bayes'],"
            " ['identify', '--seed', '4601', '--strategy', 'serial'],"
            " ['identify', '--seed', '4601', '--strategy', 'naive'],"
            " ['identify', '--seed', '4601', '--strategy', 'pattern']):\n"
            "    assert main(argv) in (0, 1), argv  # identify exits 1 on a reject\n"
        )
        assert _scipy_loaded_after(script, tmp_path) == []

    def test_bands_sizing_loads_no_scipy(self, tmp_path):
        """Sizing over bands of positive width takes the band means in
        closed form, so it loads no quadrature (or any other SciPy)."""
        script = (
            "from retinasim import RunConfig, prepare\n"
            "for strategy in ('bayes', 'serial'):\n"
            "    prepare(RunConfig(strategy=strategy, distribution='uniform_bands'))\n"
        )
        assert _scipy_loaded_after(script, tmp_path) == []

    def test_no_module_level_import_of_off_path_scipy(self):
        """No code of the package, module level or function body, imports
        SciPy."""

        def imported(node):
            if isinstance(node, ast.Import):
                return [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom) and node.module:
                return [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            return []

        package = Path(retinasim.__file__).parent
        offenders = [
            f"{path.name}:{node.lineno} {name}"
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            for name in imported(node)
            if name == "scipy" or name.startswith("scipy.")
        ]
        assert offenders == []
