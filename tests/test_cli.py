"""End-to-end tests of the command-line interface: exit codes, output
snippets, artifact emission, and config/flag precedence.  Everything runs
through ``main(argv)`` in-process."""

import json

import pytest

from retinasim import RunConfig, prepare
from retinasim.cli import main

# exit codes: 0 accept/success, 1 reject, 2 usage, 3 infeasible/config


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

    def test_missing_config_file(self, capsys):
        assert main(["identify", "--config", "/no/such/file.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_config_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["identify", "--config", str(path)]) == 3
        assert "invalid JSON" in capsys.readouterr().err

    def test_unknown_config_field(self, tmp_path, capsys):
        path = tmp_path / "extra.json"
        path.write_text('{"warp_factor": 9}')
        assert main(["montecarlo", "--config", str(path)]) == 3
        assert "warp_factor" in capsys.readouterr().err

    def test_bad_trial_count(self, tmp_path, capsys):
        assert main(["montecarlo", "--trials", "0"]) == 3
        assert "trials" in capsys.readouterr().err


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

    def test_interactive_aborts_on_closed_stdin(self, capsys, monkeypatch):
        class Closed:
            def readline(self):
                return ""

        monkeypatch.setattr("sys.stdin", Closed())
        code = main(["identify", "--seed", "4605", "--subject", "interactive"])
        assert code == 3
        assert "stdin closed" in capsys.readouterr().err


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
        "doc",
        [
            {},
            {
                "distribution": "uniform_bands",
                "low_band": [0.02, 0.07],
                "high_band": [0.13, 0.18],
            },
            {"i_tilde": 70.0},
        ],
        ids=["default", "uniform_bands", "explicit_i_tilde"],
    )
    def test_rounds_match_the_run_that_config_makes(self, doc, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        plan = prepare(RunConfig(strategy="serial", **doc)).serial_plan
        assert main(["solve", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"rounds N = {plan.n_rounds}" in out
        assert f"q = {plan.q:.6f}" in out


class TestPatternCommand:
    def test_report(self, capsys):
        assert main(["pattern"]) == 0
        out = capsys.readouterr().out
        assert "(1/40)^6" in out
        assert "alpha=(0.02, 0.18): i_tilde* = 72.3" in out
        # narrow class pairs are reported too, with their much worse optimum
        assert "alpha=(0.04, 0.16)" in out


class TestBoundsCommand:
    def test_report(self, capsys):
        assert main(["bounds"]) == 0
        out = capsys.readouterr().out
        assert "sequential-test bounds" in out
        assert "drift: honest >= +0.37674/round, impostor <= -0.52859/round" in out
        assert "eavesdropping physics" in out
        assert "dipole falloff 1 cm -> 10 cm:  1000x" in out
