"""The declared public API: every module's ``__all__`` resolves, and every
public name of the package is declared where it is defined."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import retinasim

MODULES = [
    importlib.import_module(f"retinasim.{info.name}")
    for info in pkgutil.iter_modules(retinasim.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
    namespace: dict = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_package_names_are_declared_where_defined():
    names = [
        name
        for name in dir(retinasim)
        if not name.startswith("_") and not inspect.ismodule(getattr(retinasim, name))
    ]
    assert names
    for name in names:
        obj = getattr(retinasim, name)
        declaring = [m for m in MODULES if name in m.__all__]
        assert declaring, f"retinasim.{name} is in no module's __all__"
        assert all(getattr(m, name) is obj for m in declaring), name
        home = getattr(obj, "__module__", None)
        if home in {m.__name__ for m in MODULES}:
            assert home in {m.__name__ for m in declaring}, (name, home)


def _module_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module-level imports, ``from __future__`` aside."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_unused_imports(module):
    """Every name a module imports is read somewhere in it, by itself or as
    the base of an attribute (``np.random``)."""
    tree = ast.parse(Path(module.__file__).read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in _module_imports(tree) if name not in used] == []


def test_no_module_imports_warnings():
    """A caller learns of a condition from a return value or an exception:
    no module emits a Python warning."""
    found = [
        f"{module.__name__}:{node.lineno}"
        for module in MODULES
        for node in ast.walk(ast.parse(Path(module.__file__).read_text()))
        if (isinstance(node, ast.Import)
            and any(a.name.split(".")[0] == "warnings" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "warnings")
    ]
    assert found == []


def _cache_makers(tree: ast.Module) -> list[tuple[ast.expr, str]]:
    """Every reference to ``functools.lru_cache`` or ``functools.cache``, as
    an attribute of ``functools`` or by a name imported from it, with the
    name it refers to."""
    makers = {"lru_cache", "cache"}
    imported = {a.asname or a.name: a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "functools"
                for a in node.names if a.name in makers}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in imported:
            found.append((node, imported[node.id]))
        elif (isinstance(node, ast.Attribute) and node.attr in makers
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            found.append((node, node.attr))
    return found


def _is_bound(module, node: ast.expr | None) -> bool:
    """Whether a ``maxsize`` argument is a positive integer: a literal, or a
    module constant named by it."""
    if isinstance(node, ast.Constant):
        value = node.value
    elif isinstance(node, ast.Name):
        value = getattr(module, node.id, None)
    else:
        return False
    return type(value) is int and value >= 1


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_cache_is_bounded_and_typed(module):
    """Every ``lru_cache`` is made with a finite ``maxsize`` and
    ``typed=True``.  An unbounded cache grows with every distinct argument;
    an untyped one lets a ``True`` argument read the entry of ``1`` and skip
    the refusal it meets on a cold cache.  ``functools.cache`` and a bare
    ``@lru_cache`` (128 entries, untyped) are refused."""
    tree = ast.parse(Path(module.__file__).read_text())
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    bad = []
    for maker, name in _cache_makers(tree):
        call = calls.get(id(maker))
        args = call.args if call else []
        keywords = {k.arg: k.value for k in call.keywords} if call else {}
        maxsize = args[0] if args else keywords.get("maxsize")
        typed = args[1] if len(args) > 1 else keywords.get("typed")
        if not (name == "lru_cache" and _is_bound(module, maxsize)
                and isinstance(typed, ast.Constant) and typed.value is True):
            bad.append(f"{module.__name__}:{maker.lineno}")
    assert bad == []


def test_the_cache_check_sees_every_cache():
    """The check above finds each cache a module makes, in either spelling."""
    found = sum(len(_cache_makers(ast.parse(Path(m.__file__).read_text())))
                for m in MODULES)
    made = sum(hasattr(obj, "cache_parameters") and obj.__module__ == m.__name__
               for m in MODULES for obj in vars(m).values())
    assert found == made > 0


def _is_strings(node: ast.expr) -> bool:
    """A string literal, or a tuple, list or set of string literals."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return bool(node.elts) and all(map(_is_strings, node.elts))
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def test_strategy_names_are_compared_in_no_module():
    """Each per-strategy decision is an entry of ``harness.STRATEGIES``: no
    module tests a ``.strategy`` attribute against a strategy name."""
    found = []
    for module in MODULES:
        tree = ast.parse(Path(module.__file__).read_text())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if any(
                isinstance(o, ast.Attribute) and o.attr == "strategy" for o in operands
            ) and any(map(_is_strings, operands)):
                found.append(f"{module.__name__}:{node.lineno}")
    assert found == []


def test_distribution_names_are_compared_only_in_harness():
    """Each per-distribution decision reads ``harness._DISTRIBUTION_FIELDS``
    or ``RunConfig.distribution_object``: no other module tests a
    ``.distribution`` attribute against a distribution name."""
    found = []
    for module in MODULES:
        if module.__name__ == "retinasim.harness":
            continue
        tree = ast.parse(Path(module.__file__).read_text())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if any(
                isinstance(o, ast.Attribute) and o.attr == "distribution"
                for o in operands
            ) and any(map(_is_strings, operands)):
                found.append(f"{module.__name__}:{node.lineno}")
    assert found == []


_SUBJECT_TYPES = {"AliceSubject", "EveStrategy", "FixedP", "UniformP", "Adaptive",
                  "Echo"}


def _named(node: ast.expr) -> set[str]:
    """Every name in ``node``, bare or as an attribute (``subjects.EveStrategy``)."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_subjects_are_told_apart_in_no_other_module():
    """Each per-subject decision is an answer law of ``subjects``: no other
    module tests a subject's type or reads a ``bias`` attribute."""
    found = []
    for module in MODULES:
        if module.__name__ == "retinasim.subjects":
            continue
        tree = ast.parse(Path(module.__file__).read_text())
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and any(_named(arg) & _SUBJECT_TYPES for arg in node.args[1:])
            ) or (isinstance(node, ast.Attribute) and node.attr == "bias"):
                found.append(f"{module.__name__}:{node.lineno}")
    assert found == []


def test_subject_kinds_are_named_in_no_other_module():
    """Subjects are made from their names in ``subjects``
    (``build_subject``): no other module imports a subject class from it,
    but for ``cli``, whose interactive subject is an ``Adaptive`` rule on
    an ``EveContext``."""
    from retinasim import subjects

    classes = {name for name in subjects.__all__
               if inspect.isclass(getattr(subjects, name))}
    found = []
    for module in MODULES:
        if module.__name__ in {"retinasim.subjects", "retinasim.cli"}:
            continue
        tree = ast.parse(Path(module.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("subjects"):
                found += [f"{module.__name__}:{a.name}" for a in node.names
                          if a.name in classes]
    assert found == []


def test_no_strategy_module_imports_another():
    """What two strategies share lives below them (``photon_stats``,
    ``subjects``, ``alpha_map``): no ``strategy_*`` module imports from a
    sibling."""
    found = []
    for module in MODULES:
        if not module.__name__.startswith("retinasim.strategy_"):
            continue
        tree = ast.parse(Path(module.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):  # ``from . import strategy_x`` too
                sources = [node.module or "", *(a.name for a in node.names)]
            elif isinstance(node, ast.Import):
                sources = [a.name for a in node.names]
            else:
                continue
            found += [f"{module.__name__}:{node.lineno}" for source in sources
                      if source.rpartition(".")[2].startswith("strategy_")]
    assert found == []


#: What a subject's answer law gives (``subjects.open_scope``).
_LAW_READS = {"p_seen", "p_wrong", "spot_counts", "answers"}


def test_no_runner_asks_its_subject_for_a_law():
    """A runner asks only a law that ``open_scope`` returned, or goes
    through ``spot_count_law``: no ``strategy_*`` module reads ``p_seen``,
    ``p_wrong``, ``spot_counts`` or ``answers`` from a ``subject``, bare
    or as an attribute (``context.subject``)."""
    found = []
    for module in MODULES:
        if not module.__name__.startswith("retinasim.strategy_"):
            continue
        tree = ast.parse(Path(module.__file__).read_text())
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and node.attr in _LAW_READS):
                continue
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id == "subject") or (
                isinstance(owner, ast.Attribute) and owner.attr == "subject"
            ):
                found.append(f"{module.__name__}:{node.lineno}")
    assert found == []


#: A NumPy ``Generator``'s public methods but ``random``.
_SAMPLERS = {name for name in dir(np.random.Generator)
             if not name.startswith("_")} - {"random", "bit_generator"}


def _sampler_reads(tree: ast.Module) -> list[int]:
    """The lines of ``tree`` where a draw could read a sampler other than
    ``random()``: a parameter annotated as a ``Generator`` under a name
    other than ``rng``, an attribute of ``rng`` but ``random``, and a call
    of any other ``Generator`` method by name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            if "Generator" in _named(node.annotation) and node.arg != "rng":
                found.append(node.lineno)
        elif isinstance(node, ast.Attribute):
            if (isinstance(node.value, ast.Name) and node.value.id == "rng"
                    and node.attr != "random"):
                found.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in _SAMPLERS):
            found.append(node.lineno)
    return found


def test_no_pattern_draw_reads_a_sampler():
    """Every pattern record is drawn from ``rng.random()`` alone, so no
    pattern record depends on a NumPy sampler that NEP 19 leaves free to
    change: in ``strategy_pattern``, a generator arrives as ``rng``, and
    nothing reads ``rng`` but its ``random`` method or calls any other
    ``Generator`` method."""
    module = importlib.import_module("retinasim.strategy_pattern")
    assert _sampler_reads(ast.parse(Path(module.__file__).read_text())) == []


@pytest.mark.parametrize("source", [
    "def f(rng: np.random.Generator):\n    return rng.integers(3)\n",
    "def f(rng):\n    draw = rng.poisson\n",
    "def f(gen: np.random.Generator):\n    return gen.random()\n",
    "def f(self):\n    return self.rng.permutation(4)\n",
])
def test_the_sampler_check_sees_each_kind_of_read(source):
    assert _sampler_reads(ast.parse(source)) != []


def test_cli_sizes_no_plan_itself():
    """``solve`` prints the plans of ``harness.STRATEGIES``: the command line
    neither imports nor calls the solvers that size a serial or naive plan."""
    tree = ast.parse(Path(importlib.import_module("retinasim.cli").__file__).read_text())
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            named |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.Name):
            named.add(node.id)
    assert named & {"solve_w_N", "required_nu", "acceptance_counts"} == set()


#: How a rule is worded: a fixed interval (a computed window such as
#: ``SequentialPlan``'s "must lie in ({lo}, {hi})" is a relation, not a
#: rule), a least value, wholeness or finiteness.
_RULE_WORDING = re.compile(r"must lie in [\[(][-\d]|must be >=|must be an integer"
                           r"|must be finite|positive and finite")


def _text(node: ast.expr) -> str:
    """The literal text of every string in ``node``, f-strings included."""
    return "".join(n.value for n in ast.walk(node)
                   if isinstance(n, ast.Constant) and isinstance(n.value, str))


def test_argument_rules_are_written_in_no_other_module():
    """Each range or integer check of an argument or a config field goes
    through a rule of ``errors``: no other module raises a ``DomainError``
    or a ``ConfigError`` that words one."""
    found = []
    for module in MODULES:
        if module.__name__ == "retinasim.errors":
            continue
        tree = ast.parse(Path(module.__file__).read_text())
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and _named(node.exc.func) & {"DomainError", "ConfigError"}
                and _RULE_WORDING.search(_text(node.exc))
            ):
                found.append(f"{module.__name__}:{node.lineno}")
    assert found == []
