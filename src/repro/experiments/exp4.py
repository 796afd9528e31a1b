"""Experiment 4: query evaluation on factorised data (Figure 8).

Follow-up queries of L equality conditions are evaluated (a) by FDB on
the *factorised* result of a K-equality query over the combinatorial
R = 4, A = 10 database -- executing the f-plan chosen by the full-search
optimiser -- and (b) by RDB as a single selection scan over the
materialised flat result.

Expected shape: FDB's factorised inputs and outputs stay orders of
magnitude smaller than the flat equivalents, and evaluation time
follows size; the gap closes only when the data shrinks to ~1000
tuples, where both engines answer in well under 0.1 s.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, List, Sequence

from repro.engine import FDB
from repro.query.query import EqualityCondition, Query
from repro.relational.operators import select_equality
from repro.workloads.generator import (
    combinatorial_database,
    random_equalities,
    random_followup_equalities,
)

DNF = float("nan")


@dataclass(frozen=True)
class Exp4Row:
    input_equalities: int  # K
    query_equalities: int  # L
    distribution: str
    fdb_result_singletons: float
    flat_result_elements: float
    fdb_time_seconds: float
    rdb_time_seconds: float


def run_experiment4(
    k_values: Sequence[int] = tuple(range(1, 9)),
    l_values: Sequence[int] = tuple(range(1, 6)),
    distributions: Sequence[str] = ("uniform",),
    timeout: float = 60.0,
    max_flat_tuples: int = 2_000_000,
    seed: int = 0,
) -> List[Exp4Row]:
    """Figure 8: follow-up queries on factorised vs flat results."""
    rows: List[Exp4Row] = []
    for distribution in distributions:
        for k in k_values:
            db = combinatorial_database(
                distribution=distribution, seed=seed + 5
            )
            query = Query.make(
                db.names,
                equalities=random_equalities(db, k, seed=seed + k),
            )
            fdb = FDB(db, plan_search="exhaustive")
            fr = fdb.evaluate(query)
            if fr.is_empty():
                continue
            flat_count = fr.count()
            flat = None
            if flat_count <= max_flat_tuples:
                flat = fr.to_relation("flat")

            for l_eq in l_values:
                try:
                    eqs = random_followup_equalities(
                        fr.tree, l_eq, seed=seed + 13 * l_eq + k
                    )
                except ValueError:
                    continue
                followup = Query.make([], equalities=eqs)

                start = time.perf_counter()
                result, _plan = fdb.evaluate_on(fr, followup)
                fdb_time = time.perf_counter() - start
                fdb_size = float(result.size())

                if flat is None:
                    rdb_time = DNF
                    flat_size = float(result.flat_data_elements())
                else:
                    deadline = time.perf_counter() + timeout
                    start = time.perf_counter()
                    selected = flat
                    timed_out = False
                    for left, right in eqs:
                        selected = select_equality(
                            selected, EqualityCondition(left, right)
                        )
                        if time.perf_counter() > deadline:
                            timed_out = True
                            break
                    rdb_time = (
                        DNF
                        if timed_out
                        else time.perf_counter() - start
                    )
                    flat_size = float(
                        len(selected) * selected.schema.arity
                    )
                rows.append(
                    Exp4Row(
                        input_equalities=k,
                        query_equalities=l_eq,
                        distribution=distribution,
                        fdb_result_singletons=fdb_size,
                        flat_result_elements=flat_size,
                        fdb_time_seconds=fdb_time,
                        rdb_time_seconds=rdb_time,
                    )
                )
    return rows


def headers() -> List[str]:
    return [
        "K",
        "L",
        "dist",
        "FDB size",
        "flat size",
        "FDB t[s]",
        "RDB t[s]",
    ]


def as_cells(rows: Iterable[Exp4Row]) -> List[List[object]]:
    return [
        [
            row.input_equalities,
            row.query_equalities,
            row.distribution,
            row.fdb_result_singletons,
            row.flat_result_elements,
            row.fdb_time_seconds,
            row.rdb_time_seconds,
        ]
        for row in rows
    ]
