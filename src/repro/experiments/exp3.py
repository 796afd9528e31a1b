"""Experiment 3: query evaluation on flat data (Figure 7).

Two workload families:

- **scaling panels** (left/middle columns): three ternary relations of
  N tuples each, values uniform or Zipf over [1, 100], queries with
  K = 2..4 equalities; result sizes and evaluation times vs N;
- **combinatorial panel** (right column): two binary relations of 8^2
  tuples and two ternary relations of 8^3 tuples over [1, 20]; result
  sizes and times vs K = 1..8.

For each configuration we evaluate with FDB (factorised result;
size = #singletons), RDB (flat result; size = #tuples x arity) and
SQLite (time only, via an aggregation that forces full evaluation).
Configurations exceeding the timeout are reported as NaN, mirroring
the paper's missing data points under its 100-second timeout.

Expected shape: the factorised size is orders of magnitude below the
flat size and the gap *grows* with N (power laws with different
exponents); times follow sizes; Zipf skew widens the gap.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass
from typing import Iterable, List, Sequence

from repro.core.build import COUNTERS
from repro.engine import FDB
from repro.query.query import Query
from repro.relational.budget import Budget, BudgetExceeded
from repro.relational.database import Database
from repro.relational.engine import RelationalEngine
from repro.relational.sqlite_engine import SQLiteEngine
from repro.workloads.generator import (
    combinatorial_database,
    random_database,
    random_equalities,
)

DNF = float("nan")


@dataclass(frozen=True)
class Exp3Row:
    dataset: str  # "scaling" or "combinatorial"
    distribution: str
    tuples: int  # N per relation (0 for combinatorial)
    equalities: int  # K
    fdb_size_singletons: float
    flat_size_elements: float
    fdb_time_seconds: float
    rdb_time_seconds: float
    sqlite_time_seconds: float
    #: What the FDB evaluation's one ``factorise`` call did (the
    #: ``factorise`` counters): deterministic, so diffable across PRs.
    trie_builds: int = 0
    trie_rows_scanned: int = 0
    entries_committed: int = 0
    entries_rolled_back: int = 0


#: The ``factorise`` counters an :class:`Exp3Row` carries.
_WORK_FIELDS = (
    "trie_builds",
    "trie_rows_scanned",
    "entries_committed",
    "entries_rolled_back",
)


def _measure_fdb(db: Database, query: Query):
    """(size, seconds, result, factorise work counts) of one cold FDB
    evaluation -- the database is fresh, so its tries are built here."""
    fdb = FDB(db)
    counted = COUNTERS.snapshot()
    start = time.perf_counter()
    fr = fdb.evaluate(query)
    elapsed = time.perf_counter() - start
    spent = COUNTERS.since(counted)
    work = {name: spent[name] for name in _WORK_FIELDS}
    return float(fr.size()), elapsed, fr, work


def _measure_rdb(
    db: Database, query: Query, timeout: float, max_rows: int
) -> (float, float):
    engine = RelationalEngine(
        db, budget=Budget(timeout_seconds=timeout, max_rows=max_rows)
    )
    start = time.perf_counter()
    try:
        flat = engine.evaluate(query)
    except BudgetExceeded:
        return DNF, DNF
    elapsed = time.perf_counter() - start
    return float(len(flat) * flat.schema.arity), elapsed


def _measure_sqlite(
    db: Database, query: Query, timeout: float
) -> float:
    with SQLiteEngine(db) as sqlite:
        start = time.perf_counter()
        try:
            sqlite.count_with_timeout(query, timeout)
        except BudgetExceeded:
            return DNF
        return time.perf_counter() - start


def _flat_size_via_factorised(fr) -> float:
    """Exact flat size computed on the factorisation (no flattening).

    When RDB times out, the paper still knows the flat result size;
    counting on the factorised form gives it exactly and cheaply.
    """
    try:
        return float(fr.flat_data_elements())
    except OverflowError:  # pragma: no cover - astronomically large
        return math.inf


def run_experiment3(
    sizes: Sequence[int] = (1000, 3162, 10000),
    k_values: Sequence[int] = (2, 3, 4),
    distributions: Sequence[str] = ("uniform", "zipf"),
    domain: int = 100,
    timeout: float = 60.0,
    max_rows: int = 3_000_000,
    include_combinatorial: bool = True,
    combinatorial_k: Sequence[int] = tuple(range(1, 9)),
    seed: int = 0,
) -> List[Exp3Row]:
    """Figure 7, all panels."""
    rows: List[Exp3Row] = []
    for distribution in distributions:
        for n in sizes:
            for k in k_values:
                # Not hash(): str hashes differ between processes, and
                # the rows' sizes and counts must repeat to be diffed.
                label = f"{distribution}/{n}/{k}".encode()
                run_seed = seed + zlib.crc32(label) % 10_000
                db = random_database(
                    3,
                    9,
                    n,
                    domain=domain,
                    distribution=distribution,
                    seed=run_seed,
                )
                # One query per (distribution, K), as in the paper's
                # Fig. 7: only the data grows with N.  The equalities
                # read only the schema, which N does not change.
                query_label = f"{distribution}/{k}".encode()
                query_seed = seed + zlib.crc32(query_label) % 10_000
                query = Query.make(
                    db.names,
                    equalities=random_equalities(db, k, seed=query_seed),
                )
                fdb_size, fdb_time, fr, work = _measure_fdb(db, query)
                flat_size, rdb_time = _measure_rdb(
                    db, query, timeout, max_rows
                )
                rdb_dnf = rdb_time != rdb_time  # NaN: timed out
                if flat_size != flat_size:
                    flat_size = _flat_size_via_factorised(fr)
                # SQLite runs ~3x slower than RDB throughout Section 5:
                # when RDB already timed out, SQLite certainly would,
                # so skip the attempt and record the DNF directly.
                sqlite_time = (
                    DNF
                    if rdb_dnf
                    else _measure_sqlite(db, query, timeout)
                )
                rows.append(
                    Exp3Row(
                        dataset="scaling",
                        distribution=distribution,
                        tuples=n,
                        equalities=k,
                        fdb_size_singletons=fdb_size,
                        flat_size_elements=flat_size,
                        fdb_time_seconds=fdb_time,
                        rdb_time_seconds=rdb_time,
                        sqlite_time_seconds=sqlite_time,
                        **work,
                    )
                )
        if include_combinatorial:
            for k in combinatorial_k:
                db = combinatorial_database(
                    distribution=distribution, seed=seed + 77
                )
                query = Query.make(
                    db.names,
                    equalities=random_equalities(
                        db, k, seed=seed + k
                    ),
                )
                fdb_size, fdb_time, fr, work = _measure_fdb(db, query)
                flat_size, rdb_time = _measure_rdb(
                    db, query, timeout, max_rows
                )
                rdb_dnf = rdb_time != rdb_time
                if flat_size != flat_size:
                    flat_size = _flat_size_via_factorised(fr)
                sqlite_time = (
                    DNF
                    if rdb_dnf
                    else _measure_sqlite(db, query, timeout)
                )
                rows.append(
                    Exp3Row(
                        dataset="combinatorial",
                        distribution=distribution,
                        tuples=0,
                        equalities=k,
                        fdb_size_singletons=fdb_size,
                        flat_size_elements=flat_size,
                        fdb_time_seconds=fdb_time,
                        rdb_time_seconds=rdb_time,
                        sqlite_time_seconds=sqlite_time,
                        **work,
                    )
                )
    return rows


def headers() -> List[str]:
    return [
        "dataset",
        "dist",
        "N",
        "K",
        "FDB size",
        "flat size",
        "FDB t[s]",
        "RDB t[s]",
        "SQLite t[s]",
    ]


def as_cells(rows: Iterable[Exp3Row]) -> List[List[object]]:
    return [
        [
            row.dataset,
            row.distribution,
            row.tuples,
            row.equalities,
            row.fdb_size_singletons,
            row.flat_size_elements,
            row.fdb_time_seconds,
            row.rdb_time_seconds,
            row.sqlite_time_seconds,
        ]
        for row in rows
    ]
