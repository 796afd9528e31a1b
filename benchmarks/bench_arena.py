"""Arena benchmark: build, enumerate, load, and memory.

The arena (:mod:`repro.core.arena`) is the engine's one physical
representation because it makes the factorised hot path
allocation-free: flat interned-value and offset-range columns instead
of one Python object per union entry.  This benchmark keeps that
choice measured, against the object-at-a-time reference implementation
(:mod:`repro.reference`, the tests' oracle), on paper-shaped workloads
(the combinatorial database of Experiments 3/4 and a hierarchical
many-to-many join), and writes ``BENCH_arena.json`` for the cross-PR
diff:

- **build**: ground-representation construction from the input
  relations over the optimal f-tree, reference vs arena;
- **enumerate**: streaming every tuple of the result (the compiled
  per-skeleton loop nest vs the object walk), plus count and size;
- **load**: ``repro.persist`` round trip of the ``arena`` blob
  (columns reload ~O(bytes)); there is no object blob to compare with
  any more, so this is one column;
- **memory**: retained bytes of the built representation (tracemalloc).

Correctness (both describe the same relation) is asserted at every
scale; the speedup floors are skipped in smoke mode.
"""

from __future__ import annotations

import gc
import os
import time
import tracemalloc

import pytest

from benchmarks.conftest import bench_json, emit, full_scale, smoke_mode
from repro.core.build import factorise
from repro.core.factorised import FactorisedRelation
from repro.engine import FDB
from repro.persist import load, save
from repro.query.parser import parse_query
from repro.query.query import Query
from repro.reference import ObjectRelation
from repro.reference import factorise as reference_factorise
from repro.relational.database import Database
from repro.workloads import combinatorial_database, random_equalities


def _params():
    if smoke_mode():
        # K=5 keeps the combinatorial result small enough that the CI
        # smoke job enumerates thousands of tuples, not millions.
        return dict(keys=6, fanout=8, combinatorial_k=5, repeats=1)
    if full_scale():
        return dict(keys=12, fanout=120, combinatorial_k=2, repeats=5)
    return dict(keys=10, fanout=60, combinatorial_k=2, repeats=3)


def _workloads(p):
    """(label, relations, tree) triples for paper-shaped inputs."""
    out = []

    db = combinatorial_database(seed=7)
    query = Query.make(
        db.names,
        equalities=random_equalities(db, p["combinatorial_k"], seed=9),
    )
    tree = FDB(db).optimal_tree(query)
    out.append(("combinatorial", [db[n] for n in query.relations], tree))

    keys, fanout = p["keys"], p["fanout"]
    hier = Database()
    hier.add_rows(
        "Orders",
        ("oid", "o_key"),
        [(i, i % keys) for i in range(keys * fanout)],
    )
    hier.add_rows(
        "Listings",
        ("l_key", "price"),
        [(i % keys, 1000 + i) for i in range(keys * fanout)],
    )
    join = parse_query(
        "SELECT * FROM Orders, Listings WHERE o_key = l_key"
    )
    out.append(
        (
            "hierarchical",
            [hier[n] for n in join.relations],
            FDB(hier).optimal_tree(join),
        )
    )
    return out


def _best_of(repeats, fn):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _retained_bytes(build):
    """Bytes retained by the value ``build`` returns (tracemalloc)."""
    gc.collect()
    tracemalloc.start()
    baseline, _ = tracemalloc.get_traced_memory()
    kept = build()
    gc.collect()
    current, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del kept
    return max(current - baseline, 1)


@pytest.mark.benchmark(group="arena")
def test_arena_hot_paths(tmp_path):
    p = _params()
    totals = {
        "build_object_seconds": 0.0,
        "build_arena_seconds": 0.0,
        "enumerate_object_seconds": 0.0,
        "enumerate_arena_seconds": 0.0,
        "load_arena_seconds": 0.0,
        "memory_object_bytes": 0,
        "memory_arena_bytes": 0,
        "arena_file_bytes": 0,
        "result_tuples": 0,
        "result_singletons": 0,
    }

    for label, relations, tree in _workloads(p):
        build_obj, product = _best_of(
            p["repeats"], lambda: reference_factorise(relations, tree)
        )
        build_arena, columns = _best_of(
            p["repeats"], lambda: factorise(relations, tree)
        )
        fr = ObjectRelation(tree, product)
        fa = FactorisedRelation(tree, columns)

        # Correctness before speed, at every scale.
        assert fa.count() == fr.count() and fa.size() == fr.size()
        order = fr.attributes
        enum_obj, object_rows = _best_of(
            p["repeats"], lambda: sum(1 for _ in fr.rows(order))
        )
        enum_arena, arena_rows = _best_of(
            p["repeats"], lambda: sum(1 for _ in fa.rows(order))
        )
        assert object_rows == arena_rows == fr.count()

        arena_path = str(tmp_path / f"{label}-arena.fdbp")
        save(fa, arena_path)
        load_arena, reloaded_arena = _best_of(
            p["repeats"], lambda: load(arena_path)
        )
        assert reloaded_arena.count() == fr.count()

        totals["arena_file_bytes"] += os.path.getsize(arena_path)
        totals["build_object_seconds"] += build_obj
        totals["build_arena_seconds"] += build_arena
        totals["enumerate_object_seconds"] += enum_obj
        totals["enumerate_arena_seconds"] += enum_arena
        totals["load_arena_seconds"] += load_arena
        totals["memory_object_bytes"] += _retained_bytes(
            lambda: reference_factorise(relations, tree)
        )
        totals["memory_arena_bytes"] += _retained_bytes(
            lambda: factorise(relations, tree)
        )
        totals["result_tuples"] += fr.count()
        totals["result_singletons"] += fr.size()

    build_speedup = totals["build_object_seconds"] / max(
        totals["build_arena_seconds"], 1e-9
    )
    enumerate_speedup = totals["enumerate_object_seconds"] / max(
        totals["enumerate_arena_seconds"], 1e-9
    )
    memory_reduction = totals["memory_object_bytes"] / max(
        totals["memory_arena_bytes"], 1
    )

    emit(
        "Arena: hot-path speedups over the object reference",
        "\n".join(
            [
                f"result: {totals['result_tuples']} tuples, "
                f"{totals['result_singletons']} singletons",
                f"build:     object {totals['build_object_seconds']:8.4f}s"
                f"  arena {totals['build_arena_seconds']:8.4f}s"
                f"  ({build_speedup:5.2f}x)",
                f"enumerate: object {totals['enumerate_object_seconds']:8.4f}s"
                f"  arena {totals['enumerate_arena_seconds']:8.4f}s"
                f"  ({enumerate_speedup:5.2f}x)",
                f"codec load: arena {totals['load_arena_seconds']:8.4f}s"
                f"  ({totals['arena_file_bytes']} bytes)",
                f"retained:  object {totals['memory_object_bytes']:9d}B"
                f"  arena {totals['memory_arena_bytes']:9d}B"
                f"  ({memory_reduction:5.2f}x smaller)",
            ]
        ),
    )

    bench_json(
        "arena",
        {
            **totals,
            "build_speedup": build_speedup,
            "enumerate_speedup": enumerate_speedup,
            "memory_reduction": memory_reduction,
        },
        workload=_params(),
    )

    # Acceptance floors (not timed at smoke scale).
    # Both builders walk the same cached tries, so build time is what
    # the emitter costs: one column append per entry against a tuple,
    # a ProductRep and a list per entry (2.4-2.9x here; it was ~1.1x
    # while per-query index builds dominated both).
    if not smoke_mode():
        assert build_speedup > 1.5, f"arena build slower: {build_speedup:.2f}x"
        assert enumerate_speedup > 1.0, (
            f"arena enumeration slower: {enumerate_speedup:.2f}x"
        )
        assert memory_reduction > 1.0, (
            f"arena retains more memory: {memory_reduction:.2f}x"
        )
