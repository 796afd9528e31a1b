"""The one import seam between the benchmark and ``repro``.

Every ``repro`` symbol the benchmark calls is resolved here, by dotted
path, so a PR that moves or merges modules (the ROADMAP's encoding and
executor consolidations may not edit this directory) finds every
dependency in one table.  Two grades:

- :data:`REQUIRED` symbols carry the end-to-end run; without one of
  them there is nothing to measure and :func:`load` raises
  :class:`SurfaceError` (``run.py`` then exits non-zero, printing no
  result);
- :data:`PROBES` are only called by the traced run's layer replays; a
  missing probe makes that layer report ``unavailable`` and the
  end-to-end numbers are unaffected.

Optional keyword arguments (``encoding="arena"``, ``shared_pool``) are
feature-detected from the callee's signature, never assumed.  Methods
the benchmark calls on the objects it gets back (``session.run``,
``run_on``, ``stats``, ``cache_counters``; ``db.extend_rows``,
``shard_view``, ``fanout_relation``; ``engine.optimal_tree``,
``factorise_query``, ``plan_for``; ``plan.execute``) are part of the
same surface: a replay that fails on one of them is reported as an
unavailable ``replay`` layer and the run goes on.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import os
import sys
from typing import Any, Dict, Iterable, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
#: ``src/`` of the checkout this benchmark sits in (benchmarks/e2e/../../src).
SRC = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir, "src"))

REQUIRED = {
    "Database": "repro.relational.database:Database",
    "ShardedDatabase": "repro.storage:ShardedDatabase",
    "QuerySession": "repro.service.session:QuerySession",
    "ParallelExecutor": "repro.exec:ParallelExecutor",
    "parse_query": "repro.query.parser:parse_query",
    "RemoteSession": "repro.net.client:RemoteSession",
    "save": "repro.persist:save",
}

PROBES = {
    # name: (layer, dotted path)
    "FDB": ("core", "repro.engine:FDB"),
    "project": ("ops", "repro.ops:project"),
    "union_all": ("ops", "repro.ops:union_all"),
    "shared_pool_for": ("exec", "repro.exec.worker:shared_pool_for"),
    "load": ("persist", "repro.persist:load"),
    "pack_result": ("net", "repro.net.protocol:pack_result"),
    "unpack_result": ("net", "repro.net.protocol:unpack_result"),
}


class SurfaceError(RuntimeError):
    """A symbol the end-to-end run cannot do without is missing."""


def _resolve(path: str) -> Any:
    module, _, attr = path.partition(":")
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def accepts(func: Any, keyword: str) -> bool:
    """Does ``func`` take ``keyword`` (by name or via ``**kwargs``)?"""
    try:
        params = inspect.signature(func).parameters
    except (TypeError, ValueError):
        return False
    return keyword in params or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    )


class Surface:
    """Resolved symbols plus the few calls the benchmark makes on them."""

    def __init__(self) -> None:
        if not os.path.isdir(os.path.join(SRC, "repro")):
            raise SurfaceError(f"no repro package under {SRC}")
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        self.missing: Dict[str, str] = {}  # probe name -> layer
        for name, path in REQUIRED.items():
            try:
                setattr(self, name, _resolve(path))
            except (ImportError, AttributeError) as exc:
                raise SurfaceError(f"required {path}: {exc}") from exc
        for name, (layer, path) in PROBES.items():
            try:
                setattr(self, name, _resolve(path))
            except (ImportError, AttributeError):
                setattr(self, name, None)
                self.missing[name] = layer
        #: Keyword arguments selecting the arena encoding where the
        #: constructor still has the switch (the object encoding is
        #: scheduled for deletion and deliberately not measured).
        self.session_kwargs = (
            {"encoding": "arena"}
            if accepts(self.QuerySession, "encoding")
            else {}
        )
        self.engine_kwargs = (
            {"encoding": "arena"}
            if self.FDB is not None and accepts(self.FDB, "encoding")
            else {}
        )

    @property
    def unavailable_layers(self) -> List[str]:
        return sorted(set(self.missing.values()))

    def replay_failed(self, exc: Exception) -> None:
        """A stage replay raised: the traced run reports it and goes on
        (the end-to-end numbers never depend on a replay)."""
        self.missing.setdefault(f"replay: {exc!r}", "replay")

    # -- building the system under test ------------------------------------

    def database(self, tables: Iterable[Tuple[str, Sequence[str], list]]):
        db = self.Database()
        for name, attrs, rows in tables:
            db.add_rows(name, attrs, rows)
        return db

    def sharded(self, tables, shards: int):
        db = self.ShardedDatabase(shards=shards, strategy="hash")
        for name, attrs, rows in tables:
            db.add_rows(name, attrs, rows)
        return db

    def session(self, database, executor=None):
        kwargs = dict(self.session_kwargs)
        if executor is not None:
            kwargs["executor"] = executor
        return self.QuerySession(database, **kwargs)

    def fanout_executor(self):
        """Per-(query, shard) fan-out without a scheduler in the way.

        ``SerialExecutor`` evaluates a ``ShardedDatabase`` through its
        merged view (no fan-out at all), so the fan-out path is only
        reachable through ``ParallelExecutor``; one pool *thread* keeps
        it deterministic on a 2-core box (see README.md).
        """
        return self.ParallelExecutor(max_workers=1, pool="thread")

    def serve_argv(self, db_path: str) -> List[str]:
        """``python -m repro serve`` on an ephemeral port, arena
        encoding (the server's default), no on-disk plan store."""
        return [
            sys.executable, "-m", "repro", "serve",
            "--db", db_path, "--port", "0", "--plan-store", "",
        ]  # fmt: skip

    def child_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        prior = env.get("PYTHONPATH")
        env["PYTHONPATH"] = SRC + (os.pathsep + prior if prior else "")
        return env

    def engine(self, database, shared_pool=None):
        """An ``FDB`` for stage replays (``None`` when unavailable)."""
        if self.FDB is None:
            return None
        kwargs = dict(self.engine_kwargs)
        if shared_pool is not None and accepts(self.FDB, "shared_pool"):
            kwargs["shared_pool"] = shared_pool
        return self.FDB(database, **kwargs)

    # -- consuming results ---------------------------------------------------

    @staticmethod
    def row_iterator(result):
        """The lazy row iterator of a session result (sorted attribute
        order); flat/raw results fall back to the materialised list."""
        factorised = getattr(result, "factorised", None)
        if factorised is not None:
            return factorised.rows()
        return iter(result.rows())

    def consume(self, result, limit: int) -> Tuple[int, List[tuple]]:
        """What a user does with a result: its count plus the first
        ``limit`` tuples of the lazy iterator."""
        count = result.count()
        rows = list(itertools.islice(self.row_iterator(result), limit))
        return count, rows

    @staticmethod
    def singletons(result) -> Tuple[int, int]:
        """(singletons, flat data elements) of a factorised result."""
        factorised = getattr(result, "factorised", result)
        return factorised.size(), factorised.flat_data_elements()


def load() -> Surface:
    return Surface()
