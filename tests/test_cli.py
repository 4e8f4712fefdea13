"""End-to-end tests of the command-line interface: exit codes, output
snippets, artifact emission, and config/flag precedence.  Everything runs
through ``main(argv)`` in-process, except the import-path checks, which need
a fresh interpreter."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import retinasim
from retinasim import (
    InfeasibleError,
    RunConfig,
    optimize_intensity,
    prepare,
    run_trial,
)
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
        ],
    )
    def test_config_value_out_of_range(self, command, doc, field, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and repr(field) in captured.err

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


# SHA-256 of the stdout and the exit code of `identify --seed 4601` per
# (strategy, subject).  A mismatch means the session's RNG consumption or its
# printout changed.
_IDENTIFY_PINS = {
    ("bayes", "alice"): (
        "a2b08e2b743595c04172261bf265cd7ac0402f1d24a86192d32e63a3e1718dd4", 0
    ),
    ("bayes", "eve:faircoin"): (
        "9893cf3b3ae596b77170d91454722dca83d83a48c871262c7cb8cf4412f0108b", 1
    ),
    ("bayes", "eve:uniformp"): (
        "1a672734db6fd78a82ec411a0daecc62cdf94f0dd92dd821080d6721057ff87a", 1
    ),
    ("bayes", "eve:echo"): (
        "d8ce2678bb2a0fe7ea4f75f6c37f8b407118556da54b2548a8ac438f5f44c61c", 1
    ),
    ("serial", "alice"): (
        "a810a628033749e8d62366efc901f06b4753b58685b2b376e98814d212e0c151", 0
    ),
    ("serial", "eve:faircoin"): (
        "450e4ac77a2e884011b4cc42b375f6594d8d1677c933d0c98c3bd602fde6ce2d", 1
    ),
    ("serial", "eve:uniformp"): (
        "cb0b89a6c4b5988ea925713f2f0c988d53689697cc8ad84216f0c517ee44c5aa", 1
    ),
    ("serial", "eve:echo"): (
        "e739977c7d6f636f3d0e1303f84438889f24ed69f6fea94cbf9ad7a62b3e830d", 1
    ),
    ("naive", "alice"): (
        "922df54f8491d2e0175b6a871ded5555bd9816d88041506c5b451a7b1064a713", 0
    ),
    ("naive", "eve:faircoin"): (
        "4924e205163e5fe5913f656ebc459630f053b83b5bc583bd23c5c85661e84dc9", 0
    ),
    ("naive", "eve:uniformp"): (
        "72e57fc266ccb145a46b32b8abfe37c4eb0a7ebadb07fb90fd2af4641199b26c", 1
    ),
    ("naive", "eve:echo"): (
        "cf710f33bc4161a60f786bef2c2bc2977ca529508dae8819b195c2b43a78c0a6", 1
    ),
    ("pattern", "alice"): (
        "2f577a2046985c16a9e6049a483af03c71f2558c79b2669b85278fe4650e251c", 1
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


# SciPy subpackages no run may import: the root search is a port in
# ``photon_stats``, the physics constants are literals, and quadrature is
# imported only inside ``prior_p``'s branch for bands of positive width.
_OFF_PATH = ("scipy.optimize", "scipy.integrate", "scipy.constants")


def _modules_loaded_after(script: str) -> set[str]:
    """Run ``script`` in a fresh interpreter and return which of the
    off-path SciPy subpackages it left in ``sys.modules``."""
    src = str(Path(retinasim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys\n"
        + script
        + f"\nprint(sorted(m for m in {_OFF_PATH!r} if m in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return set(ast.literal_eval(done.stdout.strip().splitlines()[-1]))


class TestImportPath:
    def test_commands_load_no_off_path_scipy(self):
        script = (
            "from retinasim.cli import main\n"
            "for argv in (['solve'], ['bounds'], ['pattern'],"
            " ['identify', '--seed', '4601']):\n"
            "    main(argv)\n"
        )
        assert _modules_loaded_after(script) == set()

    def test_only_positive_width_bands_load_quadrature(self):
        """The lazy import is live: sizing over bands of positive width
        loads ``scipy.integrate`` (which pulls in the rest itself)."""
        script = (
            "from retinasim import RunConfig, prepare\n"
            "prepare(RunConfig(distribution='uniform_bands'))\n"
        )
        assert "scipy.integrate" in _modules_loaded_after(script)

    def test_no_module_level_import_of_off_path_scipy(self):
        """Module-level code (class bodies included, function bodies not)
        imports none of the off-path subpackages."""

        def imported(node):
            if isinstance(node, ast.Import):
                return [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom) and node.module:
                return [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            return []

        def module_level(nodes):
            for node in nodes:
                function = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                if isinstance(node, function):
                    continue
                yield node
                yield from module_level(ast.iter_child_nodes(node))

        package = Path(retinasim.__file__).parent
        offenders = [
            f"{path.name}:{node.lineno} {name}"
            for path in sorted(package.glob("*.py"))
            for node in module_level(ast.parse(path.read_text()).body)
            for name in imported(node)
            if any(name == m or name.startswith(m + ".") for m in _OFF_PATH)
        ]
        assert offenders == []
