"""The column primitives of the f-plan kernels, against oracles that
share no code with them, and the prepared-kernel cache.

- the **forest gather** (shared slots, then made plain level by
  level) against the concatenation of one-entry ``_copy_run`` calls
  (the bulk-run copier the delta merge keeps);
- the **mask cascade** against the enumerated rows filtered by the
  same mask spelled as a predicate: a valid arena over a fixed f-tree
  is unique, so equal rows plus ``validate_arena`` pin every column;
- the **segment sums** and **forest counts** (one ``reduceat`` per
  slot, a leaf child as its range width) against a prefix sum read at
  both range ends, and ``tuple_count`` against enumeration and the
  reference engine;

with every output checked by ``validate_arena`` (offsets run from 0 to
the child column's length and strictly increase: no union is empty).
"""

import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.arena import (
    ArenaWriter,
    iter_rows,
    tuple_count,
    validate_arena,
)
from repro.core.ftree import FTree
from repro.engine import FDB
from repro.obs.report import kernels_line, session_lines
from repro.ops import arena_kernels
from repro.core.columns import (
    _forest_counts,
    _ranges,
    _segment_sums,
    _take,
)
from repro.ops.arena_kernels import (
    COUNTERS,
    _cascade,
    _Columns,
    _copy_run,
    kernel_for,
)
from repro.query.query import Query
from repro.reference import ReferenceEngine
from repro.service import QuerySession
from repro.workloads import random_database, random_spj_queries

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


@pytest.mark.parametrize("seed", SEEDS)
def test_forest_gather_is_the_concatenation_of_one_entry_runs(seed):
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
            expected = ArenaWriter(skel, arena.pool)
            for e in idx:
                _copy_run(arena, expected, node, node, e, e + 1)
            out = _Columns(arena)
            out.values[node] = _take(arena.values[node], idx)
            out.share(node, idx, range(len(skel.children[node])))
            # Only refs are written: every column below stays shared.
            assert all(
                mine is theirs
                for mine, theirs in zip(out.values, arena.values)
                if mine is not out.values[node]
            )
            for k in range(node, skel.end[node]):  # parents first
                for j in range(len(skel.children[k])):
                    out.plain(k, j)
            for k in range(node, skel.end[node]):
                assert list(out.values[k]) == list(expected.values[k])
                assert _lists(out.offsets[k]) == _lists(expected.offsets[k])
            assert out.gathers == 1


# -- mask cascade --------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_mask_cascade_is_the_selection_filter(seed):
    fr = _arena(seed)
    arena, skel, pool = fr.rep, fr.rep.skel, fr.rep.pool
    attributes = fr.attributes
    rows = list(iter_rows(arena, attributes))
    rng = random.Random(seed)
    emptied = 0
    for node in range(len(skel)):
        at = attributes.index(skel.attr_tuples[node][0])
        present = sorted({pool[vid] for vid in arena.values[node]})
        subsets = [set(), set(present), {present[0]}] + [
            {value for value in present if rng.random() < 0.5}
            for _ in range(4)
        ]
        for kept in subsets:
            want = sorted(row for row in rows if row[at] in kept)
            mask = np.array(
                [pool[vid] in kept for vid in arena.values[node]], dtype=bool
            )
            out = _Columns(arena)
            alive = _cascade(out, {node: mask})
            if not want:
                assert not alive
                emptied += 1
                continue
            assert alive
            got = out.arena(pool)
            validate_arena(fr.tree, got)
            assert sorted(iter_rows(got, attributes)) == want
            assert out.pruned == arena.entry_count - got.entry_count
    assert emptied >= len(skel)  # the all-dropped mask, at every node


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SEEDS), st.integers(0, 6), st.randoms())
def test_cascade_outputs_count_their_rows(seed, node, rng):
    """The count of a cascaded arena is the number of rows it keeps."""
    fr = _arena(seed)
    arena = fr.rep
    node %= len(arena.skel)
    mask = np.array(
        [rng.random() < 0.6 for _ in arena.values[node]], dtype=bool
    )
    out = _Columns(arena)
    if not _cascade(out, {node: mask}):
        return
    got = out.arena(arena.pool)
    assert tuple_count(got) == len(list(iter_rows(got, fr.attributes)))


# -- counting ------------------------------------------------------------------


def _prefix_sums(weights, off):
    """The segment sums as a cumulative sum read at both range ends --
    an oracle that reads every range's end, not just its start."""
    off = np.asarray(off)
    total = np.zeros(len(weights) + 1, dtype=np.int64)
    np.cumsum(weights, out=total[1:])
    return total[off[1:]] - total[off[:-1]]


#: Per-entry child counts of one slot: every range non-empty.
_widths = st.lists(st.integers(1, 6), max_size=40)


@settings(max_examples=200, deadline=None)
@given(_widths, st.booleans(), st.randoms())
def test_segment_sums_are_the_prefix_sum_differences(widths, masks, rng):
    off = _ranges(np.array(widths, dtype=np.int64))
    assert list(off) == [sum(widths[:e]) for e in range(len(widths) + 1)]
    n = sum(widths)
    if masks:
        weights = np.array([rng.random() < 0.5 for _ in range(n)], bool)
    else:
        weights = np.array([rng.randrange(1 << 40) for _ in range(n)])
    got = _segment_sums(weights, off)
    assert got.dtype == np.int64
    assert got.tolist() == _prefix_sums(weights, off).tolist()


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(1, 6), min_size=1, max_size=40),
        min_size=1,
        max_size=3,
    ),
    st.randoms(),
)
def test_forest_counts_take_a_leaf_as_its_range_width(slots, rng):
    """Slots over leaves (weights ``None``) count as if every leaf entry
    weighed 1; the other slots' counts multiply in."""
    m = min(len(widths) for widths in slots)
    offsets, weights, ones = [], [], []
    for j, widths in enumerate(slots):
        offsets.append(_ranges(np.array(widths[:m], dtype=np.int64)))
        n = sum(widths[:m])
        ones.append(np.ones(n, dtype=np.int64))
        drawn = np.array([rng.randrange(50) for _ in range(n)])
        weights.append(None if j % 2 == 0 else drawn)
    want = np.ones(m, dtype=np.int64)
    for weight, one, off in zip(weights, ones, offsets):
        want *= _prefix_sums(one if weight is None else weight, off)
    plain = [None] * len(offsets)
    assert _forest_counts(weights, offsets, plain).tolist() == want.tolist()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_counts_agree_with_enumeration_and_the_reference_engine(seed):
    db = random_database(
        relations=3, attributes=6, tuples=10, domain=3, seed=seed
    )
    query = random_spj_queries(
        db, 1, seed=seed + 1, max_relations=3, max_equalities=2
    )[0]
    fr = FDB(db).evaluate(query)
    count = fr.count()
    assert count == ReferenceEngine(db).evaluate(query).count()
    assert count == len(list(iter_rows(fr.rep, fr.attributes)))


# -- the prepared-kernel cache -------------------------------------------------


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
