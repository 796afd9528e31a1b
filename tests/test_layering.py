"""Layering lint: one physical encoding, the oracle stays outside, and
numpy stays behind one module.

The arena is the only representation ``src/repro`` produces, stores,
ships or restructures.  The object representation lives on in
``repro.reference`` purely as the tests' differential oracle, so:

- nothing under ``src/repro`` outside ``reference/`` may import it (or
  the module it used to be, ``repro.core.frep``) or mention its
  classes;
- there is no ``encoding`` to select: no callable takes a parameter of
  that name and no object carries an attribute of that name (the
  ``open(..., encoding="utf-8")`` *keyword* is somebody else's
  parameter and is fine);
- numpy is a declared dependency with exactly one importer,
  ``core/columns.py``, which imports it unconditionally: no
  ``try``-guarded import and no ``_np is None`` branch anywhere picks a
  second body for a column primitive;
- an arena column has one type, a read-only int64 ndarray: the
  ``array`` module is imported only by ``core/arena.py``, whose
  ``ArenaWriter`` grows its columns in ``array('q')`` buffers;
- there is one eviction policy, :class:`repro.cache.LRUCache`: outside
  ``cache.py`` no module reaches for ``OrderedDict``, ``.popitem(`` /
  ``.move_to_end(`` or a ``del X[next(iter(X))]`` oldest-out loop;
- the session runs the one evaluation loop and executors only place
  its tasks: nothing under ``exec/`` or ``net/`` reads a private
  ``session._*`` attribute, only the session's public ones.

The walk is over the AST, so prose in docstrings and comments is free
to explain what used to be.
"""

from __future__ import annotations

import ast
import inspect
import os
import subprocess
import sys
from typing import Iterator, List, Tuple

import pytest

import repro
from repro.core.build import factorise
from repro.core.factorised import FactorisedRelation
from repro.engine import FDB
from repro.exec import worker
from repro.ivm import maintain
from repro.ivm.cache import ResultCache
from repro.service.session import QuerySession

PACKAGE = os.path.dirname(os.path.abspath(repro.__file__))
FORBIDDEN_MODULES = ("repro.reference", "repro.core.frep")
FORBIDDEN_NAMES = {"ProductRep", "UnionRep"}


def _engine_sources(
    with_reference: bool = False,
) -> Iterator[Tuple[str, ast.AST]]:
    """(path relative to the package, parsed module) for every file of
    ``src/repro`` -- outside the reference implementation unless
    ``with_reference``."""
    for folder, dirs, files in os.walk(PACKAGE):
        top = os.path.relpath(folder, PACKAGE).split(os.sep)[0]
        if top == "reference" and not with_reference:
            dirs[:] = []
            continue
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), filename=path)
                yield os.path.relpath(path, PACKAGE), tree


def _forbidden(module: str) -> bool:
    return any(
        module == name or module.startswith(name + ".")
        for name in FORBIDDEN_MODULES
    )


def _violations(path: str, tree: ast.AST) -> List[str]:
    found: List[str] = []

    def flag(node: ast.AST, what: str) -> None:
        found.append(f"{path}:{node.lineno}: {what}")

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _forbidden(alias.name):
                    flag(node, f"imports {alias.name}")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if _forbidden(module):
                flag(node, f"imports from {module}")
            for alias in node.names:
                if _forbidden(f"{module}.{alias.name}"):
                    flag(node, f"imports {module}.{alias.name}")
                if alias.name in FORBIDDEN_NAMES:
                    flag(node, f"imports the name {alias.name}")
        elif isinstance(node, ast.Name) and node.id in FORBIDDEN_NAMES:
            flag(node, f"uses the name {node.id}")
        elif isinstance(node, ast.Attribute):
            if node.attr in FORBIDDEN_NAMES:
                flag(node, f"uses the name {node.attr}")
            if node.attr == "encoding":
                flag(node, "reads or writes an attribute named encoding")
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            spec = node.args
            params = spec.posonlyargs + spec.args + spec.kwonlyargs
            if any(arg.arg == "encoding" for arg in params):
                flag(node, "takes a parameter named encoding")
    return found


def test_the_walk_sees_the_engine_and_skips_the_reference():
    paths = [path for path, _ in _engine_sources()]
    assert len(paths) > 80
    assert os.path.join("core", "arena.py") in paths
    assert os.path.join("ops", "arena_kernels.py") in paths
    assert not any(path.startswith("reference") for path in paths)
    assert os.path.isdir(os.path.join(PACKAGE, "reference"))


def test_the_lint_catches_what_it_is_meant_to_catch():
    sample = ast.parse(
        "from repro.reference.frep import ProductRep\n"
        "import repro.core.frep\n"
        "from repro import reference\n"
        "def f(tree, encoding='object'):\n"
        "    return fr.encoding, frep.UnionRep\n"
        "open('x', encoding='utf-8')\n"
    )
    found = _violations("sample.py", sample)
    assert len(found) == 8, found
    assert not any(":6:" in line for line in found)  # the open() keyword


def test_nothing_in_the_engine_knows_the_reference_or_an_encoding():
    found = [
        line
        for path, tree in _engine_sources()
        for line in _violations(path, tree)
    ]
    assert not found, "\n".join(found)


@pytest.mark.parametrize(
    "func",
    [
        FDB,
        QuerySession,
        factorise,
        ResultCache.lookup,
        maintain.delta_result,
        maintain.apply_deltas,
        worker.init_worker,
        worker.evaluate_join,
        worker.evaluate_shard,
    ],
    ids=lambda func: func.__qualname__,
)
def test_the_nine_deknobbed_callables_take_no_encoding(func):
    params = inspect.signature(func).parameters
    assert "encoding" not in params
    assert not any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    ), "a **kwargs shim would swallow encoding= silently"


@pytest.mark.parametrize(
    "func",
    [QuerySession, worker.init_worker, worker.compile_direct],
    ids=lambda func: func.__qualname__,
)
def test_the_serving_path_takes_no_planner_knobs(func):
    """Only the f-plan search reads ``plan_search`` / ``cost_model``;
    the serving path plans f-trees, so they stay on :class:`FDB`."""
    params = inspect.signature(func).parameters
    assert not {"plan_search", "cost_model", "statistics"} & set(params)
    assert not any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    )


def _numpy_imports(tree: ast.AST) -> List[Tuple[int, bool]]:
    """``(line, inside a try)`` of every import of numpy in ``tree``."""
    guarded = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.Try)
        for inner in ast.walk(node)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if any(module.split(".")[0] == "numpy" for module in modules):
            found.append((node.lineno, id(node) in guarded))
    return sorted(found)


def _np_none_checks(tree: ast.AST) -> List[int]:
    """Lines of every comparison of ``_np`` against ``None``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(
                isinstance(o, ast.Name) and o.id == "_np" for o in operands
            ) and any(
                isinstance(o, ast.Constant) and o.value is None
                for o in operands
            ):
                found.append(node.lineno)
    return sorted(found)


def test_the_numpy_lint_catches_what_it_is_meant_to_catch():
    sample = ast.parse(
        "try:\n"
        "    import numpy as _np\n"
        "except ImportError:\n"
        "    _np = None\n"
        "from numpy.linalg import norm\n"
        "if _np is not None and x:\n"
        "    pass\n"
        "y = 1 if None is _np else 2\n"
        "z = _np == 0\n"
    )
    assert _numpy_imports(sample) == [(2, True), (5, False)]
    assert _np_none_checks(sample) == [6, 8]


def test_numpy_is_imported_once_unconditionally_and_never_branched_on():
    imports = {}
    checks = []
    for path, tree in _engine_sources(with_reference=True):
        if _numpy_imports(tree):
            imports[path] = _numpy_imports(tree)
        checks.extend(f"{path}:{line}" for line in _np_none_checks(tree))
    columns = os.path.join("core", "columns.py")
    assert list(imports) == [columns], imports
    assert [guarded for _, guarded in imports[columns]] == [False]
    assert not checks, checks


def _array_imports(tree: ast.AST) -> List[int]:
    """Lines of every import of the stdlib ``array`` module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module or ""]
        else:
            continue
        if "array" in modules:
            found.append(node.lineno)
    return sorted(found)


def test_the_array_lint_catches_what_it_is_meant_to_catch():
    sample = ast.parse(
        "from array import array\n"
        "import os, array as arr\n"
        "from numpy import array\n"
        "from .array import thing\n"
        "def f():\n"
        "    import array\n"
    )
    assert _array_imports(sample) == [1, 2, 6]


def test_only_the_arena_writer_imports_array():
    found = {
        path: _array_imports(tree)
        for path, tree in _engine_sources(with_reference=True)
        if _array_imports(tree)
    }
    assert list(found) == [os.path.join("core", "arena.py")], found


def _eviction_loops(tree: ast.AST) -> List[int]:
    """Lines of every hand-rolled eviction idiom in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "OrderedDict":
            found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in (
            "OrderedDict",
            "popitem",
            "move_to_end",
        ):
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(
            alias.name == "OrderedDict" for alias in node.names
        ):
            found.append(node.lineno)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if not isinstance(target, ast.Subscript):
                    continue
                key = target.slice
                if (
                    isinstance(key, ast.Call)
                    and isinstance(key.func, ast.Name)
                    and key.func.id == "next"
                    and len(key.args) == 1
                    and isinstance(key.args[0], ast.Call)
                    and isinstance(key.args[0].func, ast.Name)
                    and key.args[0].func.id == "iter"
                    and len(key.args[0].args) == 1
                    and ast.dump(key.args[0].args[0])
                    == ast.dump(target.value)
                ):
                    found.append(node.lineno)
    return sorted(set(found))


def test_the_eviction_lint_catches_what_it_is_meant_to_catch():
    sample = ast.parse(
        "from collections import OrderedDict\n"
        "import collections\n"
        "memo = collections.OrderedDict()\n"
        "memo.move_to_end(key)\n"
        "memo.popitem(last=False)\n"
        "del self._memo[next(iter(self._memo))]\n"
        "del memo[next(iter(other))]\n"
        "first = next(iter(memo))\n"
        "del memo[key]\n"
    )
    assert _eviction_loops(sample) == [1, 3, 4, 5, 6]


def test_every_cache_evicts_through_the_one_lru():
    found = [
        f"{path}:{line}"
        for path, tree in _engine_sources(with_reference=True)
        if path != "cache.py"
        for line in _eviction_loops(tree)
    ]
    assert not found, found
    assert os.path.isfile(os.path.join(PACKAGE, "cache.py"))


def test_a_relation_holds_exactly_one_representation():
    slots = FactorisedRelation.__slots__
    assert tuple(s for s in slots if s != "__weakref__") == ("tree", "rep")


def test_importing_the_engine_never_loads_the_reference():
    code = (
        "import sys, repro, repro.service.session, repro.net.server, "
        "repro.cli, repro.experiments, repro.obs.profile\n"
        "loaded = [m for m in sys.modules if m.startswith('repro.reference')]\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(PACKAGE)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def _private_session_reads(tree: ast.AST) -> List[int]:
    """Lines of every ``session._x`` / ``self.session._x`` in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ):
            continue
        owner = node.value
        if (isinstance(owner, ast.Name) and owner.id == "session") or (
            isinstance(owner, ast.Attribute) and owner.attr == "session"
        ):
            found.append(node.lineno)
    return sorted(found)


def test_the_session_lint_catches_what_it_is_meant_to_catch():
    sample = ast.parse(
        "session._flat_result(q)\n"
        "self.session._observe(r)\n"
        "session.database.version\n"
        "self._session.run(q)\n"
        "session.__class__\n"
        "served = session._serve_cached\n"
    )
    assert _private_session_reads(sample) == [1, 2, 6]


def test_executors_and_the_wire_read_only_public_session_attributes():
    found = [
        f"{path}:{line}"
        for path, tree in _engine_sources()
        if path.split(os.sep)[0] in ("exec", "net")
        for line in _private_session_reads(tree)
    ]
    assert not found, found
