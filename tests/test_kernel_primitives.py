"""The two column primitives of the f-plan kernels, against oracles
that share no code with them, and the prepared-kernel cache.

- the **forest gather** against the concatenation of one-entry
  ``_copy_run`` calls (the bulk-run copier the delta merge keeps);
- the **mask cascade** against :func:`repro.core.arena.select_filter`
  (the per-entry walk with ``mark`` / ``rollback`` behind constant
  selections), with the same mask spelled as a predicate;

both under the numpy and the stdlib realisation, with every output
checked by ``validate_arena`` (child ranges tile, no union is empty).
"""

import random
import sys
import threading

import pytest

from repro.core.arena import ArenaRep, select_filter, validate_arena
from repro.core.ftree import FTree
from repro.engine import FDB
from repro.obs.report import kernels_line, session_lines
from repro.ops import arena_kernels
from repro.ops.arena_kernels import (
    COUNTERS,
    _cascade,
    _Columns,
    _column,
    _copy_run,
    _gather_forest,
    _take,
    _Writer,
    kernel_for,
)
from repro.query.query import Query
from repro.service import QuerySession
from repro.workloads import random_database
from tests.conftest import REALISATIONS, realisation

SEEDS = [11, 12, 13, 14, 15, 16]


def _arena(seed: int):
    db = random_database(
        relations=3, attributes=7, tuples=14, domain=4, seed=seed
    )
    query = Query.make(sorted(rel.name for rel in db))
    engine = FDB(db)
    fr = engine.factorise_query(query, tree=engine.optimal_tree(query))
    assert not fr.is_empty()
    return fr


def _lists(columns):
    return [list(column) for column in columns]


# -- forest gather -------------------------------------------------------------


@pytest.mark.parametrize("name", REALISATIONS)
@pytest.mark.parametrize("seed", SEEDS)
def test_forest_gather_is_the_concatenation_of_one_entry_runs(seed, name):
    arena = _arena(seed).rep
    skel = arena.skel
    rng = random.Random(seed)
    for node in range(len(skel)):
        n = len(arena.values[node])
        draws = [
            [],
            [rng.randrange(n)] * 3,
            list(range(n - 1, -1, -1)),
            [rng.randrange(n) for _ in range(2 * n)],
        ]
        for idx in draws:
            expected = _Writer(skel)
            for e in idx:
                _copy_run(arena, expected, node, node, e, e + 1)
            with realisation(name):
                out = _Columns(arena)
                out.values[node] = _column(_take(arena.values[node], idx))
                _gather_forest(
                    arena, out, node, idx, range(len(skel.children[node]))
                )
            for k in range(node, skel.end[node]):
                assert list(out.values[k]) == list(expected.values[k])
                assert _lists(out.lo[k]) == _lists(expected.child_lo[k])
                assert _lists(out.hi[k]) == _lists(expected.child_hi[k])
            assert out.gathers == 1


# -- mask cascade --------------------------------------------------------------


@pytest.mark.parametrize("name", REALISATIONS)
@pytest.mark.parametrize("seed", SEEDS)
def test_mask_cascade_is_the_selection_filter(seed, name):
    fr = _arena(seed)
    arena, skel, pool = fr.rep, fr.rep.skel, fr.rep.pool
    rng = random.Random(seed)
    emptied = 0
    for node in range(len(skel)):
        attribute = skel.attr_tuples[node][0]
        present = sorted({pool[vid] for vid in arena.values[node]})
        subsets = [set(), set(present), {present[0]}] + [
            {value for value in present if rng.random() < 0.5}
            for _ in range(4)
        ]
        for kept in subsets:
            want = select_filter(arena, attribute, kept.__contains__)
            mask = [pool[vid] in kept for vid in arena.values[node]]
            with realisation(name):
                if arena_kernels._np is not None:
                    mask = arena_kernels._np.asarray(mask, dtype=bool)
                out = _Columns(arena)
                alive = _cascade(arena, out, {node: mask})
            if want is None:
                assert not alive
                emptied += 1
                continue
            assert alive
            got = ArenaRep(skel, out.values, out.lo, out.hi, pool)
            validate_arena(fr.tree, got)
            assert _lists(got.values) == _lists(want.values)
            assert [_lists(s) for s in got.child_lo] == [
                _lists(s) for s in want.child_lo
            ]
            assert [_lists(s) for s in got.child_hi] == [
                _lists(s) for s in want.child_hi
            ]
            assert out.pruned == arena.entry_count - want.entry_count
    assert emptied >= len(skel)  # the all-dropped mask, at every node


# -- the prepared-kernel cache -------------------------------------------------


def test_a_hot_kernel_survives_cold_insertions():
    hot_tree = _arena(SEEDS[0]).tree
    child = next(
        node
        for node in hot_tree.iter_nodes()
        if hot_tree.parent_of(node) is not None
    )
    args = (min(hot_tree.parent_of(child).label), min(child.label))
    hot = kernel_for(hot_tree, "swap", args)
    before = COUNTERS.snapshot()["cache_evictions"]
    for i in range(600):
        cold = FTree.from_nested([(f"c{i}", [(f"d{i}", [])])])
        kernel_for(cold, "swap", (f"c{i}", f"d{i}"))
        assert len(arena_kernels._KERNEL_CACHE) <= arena_kernels._KERNEL_CACHE_MAX
        if i % 100 == 0:
            assert kernel_for(hot_tree, "swap", args) is hot
    assert kernel_for(hot_tree, "swap", args) is hot
    snapshot = arena_kernels.counters()
    assert snapshot["cache_size"] == arena_kernels._KERNEL_CACHE_MAX
    assert snapshot["cache_evictions"] - before >= 600 - arena_kernels._KERNEL_CACHE_MAX


def test_the_kernel_cache_holds_its_bound_under_concurrent_use():
    hot_tree = FTree.from_nested([("hot_a", [("hot_b", [])])])
    hot = kernel_for(hot_tree, "swap", ("hot_a", "hot_b"))
    bound = arena_kernels._KERNEL_CACHE_MAX
    errors = []

    def churn(worker: int) -> None:
        try:
            for i in range(150):
                name = f"w{worker}_{i}"
                cold = FTree.from_nested([(name + "a", [(name + "b", [])])])
                kernel_for(cold, "swap", (name + "a", name + "b"))
                assert kernel_for(hot_tree, "swap", ("hot_a", "hot_b")) is hot
                assert len(arena_kernels._KERNEL_CACHE) <= bound
        except BaseException as exc:  # reported by the asserting thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=churn, args=(w,)) for w in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(arena_kernels._KERNEL_CACHE) == bound


# -- the kernels namespace -----------------------------------------------------


def test_kernel_runs_are_tallied_once_each():
    fr = _arena(SEEDS[1])
    tree = fr.tree
    child = next(
        node for node in tree.iter_nodes() if tree.parent_of(node) is not None
    )
    args = (min(tree.parent_of(child).label), min(child.label))
    kernel = kernel_for(tree, "swap", args)
    before = COUNTERS.snapshot()
    out = kernel.run(fr.rep)
    delta = COUNTERS.since(before)
    assert delta["runs"] == 1
    assert delta["entries_in"] == fr.rep.entry_count
    assert delta["entries_out"] == out.entry_count
    assert delta["entries_pruned"] == 0  # a swap never prunes
    assert delta["gathers"] == 3  # E_a, T_ab, T_b

    db = random_database(relations=3, attributes=7, tuples=14, domain=4, seed=3)
    with QuerySession(db) as session:
        names = sorted(rel.name for rel in db)
        base = session.run(Query.make(names[:2])).factorised
        attrs = sorted(base.tree.attributes())
        before = COUNTERS.snapshot()
        session.run_on(
            base, Query.make([], equalities=[(attrs[0], attrs[-1])])
        )
        assert COUNTERS.since(before)["runs"] >= 1
        snapshot = session.snapshot()
        assert snapshot["kernels"] == arena_kernels.counters()
        line = kernels_line(snapshot["kernels"])
        assert line in session_lines(snapshot)
        assert line.startswith(f"kernels: {snapshot['kernels']['runs']} runs, ")
    assert kernels_line(dict(snapshot["kernels"], runs=0)) is None
