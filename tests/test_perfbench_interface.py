"""The benchmark in ``perfbench/`` is kept unchanged from one version of the
package to the next, and the tier-1 suite never runs it.  These tests read
its sources with ``ast`` and check that everything it takes from the package
still exists: the names it imports from ``retinasim`` and ``retinasim.cli``,
the ``RunContext`` and ``RunConfig`` attributes it reads, the arguments of
each call it makes to an imported name, the functions its tracer wraps, and
the ``retinasim`` command lines it runs."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import retinasim
import retinasim.cli
import retinasim.harness
import retinasim.strategy_pattern
from retinasim import RunConfig, RunContext

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))
PACKAGES = {"retinasim": retinasim, "retinasim.cli": retinasim.cli}
TREES = [(path.name, ast.parse(path.read_text())) for path in SOURCES]


def _imported_names() -> list[tuple[str, str, str, str]]:
    """``(file, module, name, local name)`` per ``from retinasim... import``."""
    found = []
    for file, tree in TREES:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in PACKAGES:
                for alias in node.names:
                    found.append((file, node.module, alias.name,
                                  alias.asname or alias.name))
    return found


def _attribute_reads(owner: str) -> list[tuple[str, str]]:
    """``(file, attribute)`` for every ``<owner>.<attribute>`` expression."""
    found = []
    for file, tree in TREES:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == owner
            ):
                found.append((file, node.attr))
    return found


def _field_names(cls) -> set[str]:
    return {field.name for field in dataclasses.fields(cls)}


def test_sources_found():
    assert {"probes.py", "run.py", "tracing.py", "workloads.py"} <= {
        path.name for path in SOURCES
    }
    assert _imported_names()


@pytest.mark.parametrize("file,module,name,_local", _imported_names())
def test_imported_names_resolve(file, module, name, _local):
    assert hasattr(PACKAGES[module], name), f"{file}: {module}.{name} is gone"


def test_module_attributes_resolve():
    for file, attr in _attribute_reads("retinasim"):
        assert hasattr(retinasim, attr), f"{file}: retinasim.{attr} is gone"


def test_context_reads_are_run_context_fields():
    reads = _attribute_reads("context")
    assert reads
    missing = [(f, a) for f, a in reads if a not in _field_names(RunContext)]
    assert not missing, f"RunContext lacks {missing}"


def test_config_reads_are_run_config_fields():
    reads = _attribute_reads("config")
    assert reads
    missing = [(f, a) for f, a in reads if a not in _field_names(RunConfig)]
    assert not missing, f"RunConfig lacks {missing}"


def test_calls_bind_to_current_signatures():
    """Each call perfbench makes to an imported package name binds to that
    name's signature: same positional count, known keywords."""
    imported = {
        (file, local): getattr(PACKAGES[module], name)
        for file, module, name, local in _imported_names()
    }
    checked = 0
    for file, tree in TREES:
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            target = imported.get((file, node.func.id))
            if target is None:
                continue
            if any(isinstance(arg, ast.Starred) for arg in node.args) or any(
                kw.arg is None for kw in node.keywords
            ):
                continue
            args = [None] * len(node.args)
            kwargs = {kw.arg: None for kw in node.keywords}
            try:
                inspect.signature(target).bind(*args, **kwargs)
            except TypeError as exc:
                pytest.fail(f"{file}:{node.lineno}: {node.func.id}(...): {exc}")
            checked += 1
    assert checked > 0


def test_traced_calls_resolve():
    """The tracer wraps these module globals; a missing one would silently
    drop its spans from the per-layer report."""
    modules = {
        "harness": retinasim.harness,
        "strategy_pattern": retinasim.strategy_pattern,
    }
    traced = next(
        ast.literal_eval(node.value)
        for node in dict(TREES)["tracing.py"].body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TRACED_CALLS" for t in node.targets)
    )
    assert traced
    for module, attr, _layer in traced:
        assert callable(getattr(modules[module], attr, None)), f"{module}.{attr}"


_RUNNERS = {
    "bayes": "run_sequential",
    "serial": "run_serial",
    "naive": "run_naive",
    "pattern": "run_pattern_test",
}


#: Each strategy with the fair coin (its id the strategy's name), and naive
#: with every other subject: those drawn from their exit law, and ``echo``.
_RUNNER_CASES = [pytest.param(strategy, "eve:faircoin", id=strategy)
                 for strategy in sorted(_RUNNERS)] + [
    pytest.param("naive", subject, id=f"naive-{subject}")
    for subject in ("alice", "eve:fixedp:0.3", "eve:uniformp", "eve:echo")
]


@pytest.mark.parametrize("strategy, subject", _RUNNER_CASES)
def test_montecarlo_reaches_traced_runners_once_per_trial(strategy, subject,
                                                          monkeypatch):
    """The tracer's per-layer spans wrap the runners as ``harness`` module
    globals; they see every session only while the strategy table calls
    them through those globals, the configured runner once per trial,
    whatever path the session takes inside it."""
    calls = dict.fromkeys(_RUNNERS.values(), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        fn = getattr(retinasim.harness, name)
        monkeypatch.setattr(retinasim.harness, name, counting(name, fn))
    config = RunConfig(strategy=strategy, subject=subject, trials=3)
    retinasim.montecarlo(config)
    expected = dict.fromkeys(calls, 0)
    expected[_RUNNERS[strategy]] = config.trials
    assert calls == expected


def test_pattern_session_reaches_traced_calls_once_per_question(monkeypatch):
    """The tracer's per-question spans (``candidate_menu``,
    ``simulate_perception``, ``recognize``) count every question only while
    ``run_pattern_test`` calls them through the module's globals, once per
    question asked."""
    calls = dict.fromkeys(("candidate_menu", "simulate_perception", "recognize"), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        fn = getattr(retinasim.strategy_pattern, name)
        monkeypatch.setattr(retinasim.strategy_pattern, name, counting(name, fn))
    context = retinasim.prepare(RunConfig(strategy="pattern", subject="alice"))
    result = retinasim.harness.run_session(context, retinasim.trial_rng(4453, 0))
    assert result.rounds >= 1
    assert calls == dict.fromkeys(calls, result.rounds)


def _probe_argvs() -> list[list[str]]:
    """The ``argvs`` table of ``probes._cli``, each element that is not a
    literal (a seed, an output path) replaced by ``"1"``."""
    probe = next(
        node for node in dict(TREES)["probes.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "_cli"
    )
    table = next(
        node.value for node in ast.walk(probe)
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "argvs" for t in node.targets)
    )

    def element(node):
        return node.value if isinstance(node, ast.Constant) else "1"

    return [[element(node) for node in argv.elts] for argv in table.values]


def _parse(argv) -> None:
    """Parse ``argv`` as ``retinasim`` would, without running the command;
    only ``--help`` may exit, and with status 0."""
    try:
        retinasim.cli._build_parser().parse_args(list(argv))
    except SystemExit as exc:
        assert list(argv) == ["--help"] and exc.code == 0, f"{argv}: exit {exc.code}"


@pytest.mark.parametrize("argv", _probe_argvs(), ids=lambda argv: " ".join(argv))
def test_probe_command_lines_parse(argv, capsys):
    _parse(argv)
    capsys.readouterr()


def test_cli_cycle_command_lines_parse(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    ops = workloads.build_cycle("cli", 1, 0, 1.0, tmp_path)
    assert ops
    for op in ops:
        _parse(op.argv)
    capsys.readouterr()
