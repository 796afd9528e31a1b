"""Layering lint: one physical encoding, and the oracle stays outside.

The arena is the only representation ``src/repro`` produces, stores,
ships or restructures.  The object representation lives on in
``repro.reference`` purely as the tests' differential oracle, so:

- nothing under ``src/repro`` outside ``reference/`` may import it (or
  the module it used to be, ``repro.core.frep``) or mention its
  classes;
- there is no ``encoding`` to select: no callable takes a parameter of
  that name and no object carries an attribute of that name (the
  ``open(..., encoding="utf-8")`` *keyword* is somebody else's
  parameter and is fine).

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


def _engine_sources() -> Iterator[Tuple[str, ast.AST]]:
    """(path relative to the package, parsed module) for every file of
    ``src/repro`` that is not part of the reference implementation."""
    for folder, dirs, files in os.walk(PACKAGE):
        if os.path.relpath(folder, PACKAGE).split(os.sep)[0] == "reference":
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
        worker.evaluate_full,
        worker.evaluate_shard,
    ],
    ids=lambda func: func.__qualname__,
)
def test_the_ten_deknobbed_callables_take_no_encoding(func):
    params = inspect.signature(func).parameters
    assert "encoding" not in params
    assert not any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    ), "a **kwargs shim would swallow encoding= silently"


def test_a_relation_holds_exactly_one_representation():
    assert FactorisedRelation.__slots__ == ("tree", "rep")


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
