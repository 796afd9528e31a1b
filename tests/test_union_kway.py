"""The level-synchronous k-way shard union: arena identity and contracts.

``tests/data/union_golden.json`` was generated by
``scripts/gen_union_golden.py`` at the parent commit of the k-way union
(``union_all`` was a left fold of the pairwise ``union_arena``) and
committed unchanged.  The unioned arena is cached, persisted and
shipped, so its bytes -- column contents, which value id survives when
shards carry ``==``-equal values, the order a pool is extended in --
are part of ``union_all``'s contract.

The retained pairwise ``ops.union`` (the delta merge of ``repro.ivm``)
is the differential oracle for the new kernel on random queries.
"""

import json
import sys
from array import array
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from repro import ops
from repro.core.arena import ArenaError, ArenaRep, ValuePool, _skeleton_of
from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FTree
from repro.engine import FDB
from repro.obs.report import session_lines, union_line
from repro.ops import arena_kernels
from repro.ops.base import OperatorError
from repro.ops.union import COUNTERS
from repro.query.query import Query
from repro.reference import ops as reference_ops
from repro.reference import to_object, to_product
from repro.service import QuerySession
from repro.storage import ShardedDatabase
from repro.workloads import random_database, random_spj_query
from tests.conftest import load_script

gen = load_script("gen_union_golden")
arena_digest = gen.base.arena_digest

with open(gen.GOLDEN_PATH, encoding="utf-8") as handle:
    GOLDEN = json.load(handle)


# -- arena identity ------------------------------------------------------------


def test_corpus_meets_its_floor():
    cases = GOLDEN["cases"]
    assert GOLDEN["seed"] == gen.SEED
    assert len(cases) >= 900
    assert {case["kind"] for case in cases} >= {
        "chain", "branching", "forest", "single", "constants",
        "sparse", "lone", "empty", "mixed", "bench",
    }
    assert {case["shards"] for case in cases} == {2, 3, 4, 8}
    assert {case["strategy"] for case in cases} == {"hash", "round_robin"}
    assert {case["pool"] for case in cases} == {
        "shared", "private", "pickled"
    }
    merged = [case for case in cases if case["live"] >= 2]
    assert len(merged) >= 600
    assert sum(case["live"] < case["shards"] for case in merged) >= 100
    assert sum(case["live"] == 1 for case in cases) >= 50
    assert sum(case["live"] == 8 for case in cases) >= 50


def test_union_all_writes_the_golden_arenas():
    want = iter(GOLDEN["cases"])
    for case, db, query, tree in gen.cases():
        for got in gen.records_of(case, db, query, tree):
            assert got == next(want), got
    assert next(want, None) is None


def test_union_is_the_unsharded_relation():
    for case, db, query, tree in gen.cases():
        whole = FDB(db).factorise_query(query, tree=tree)
        for shards in (2, 8):
            parts = gen.shard_parts(db, query, tree, shards, "hash", "shared")
            union = ops.union_all(parts).validate()
            assert union.count() == whole.count(), case
            assert union.same_relation(whole), case


# -- the fold of the delta merge is the oracle ---------------------------------


@st.composite
def _fan_outs(draw):
    seed = draw(st.integers(0, 10_000))
    db = random_database(
        relations=draw(st.integers(1, 4)),
        attributes=8,
        tuples=draw(st.integers(1, 12)),
        domain=draw(st.integers(2, 5)),
        seed=seed,
    )
    query = random_spj_query(
        db, seed=seed + 1, max_equalities=3, projection_probability=0.0
    )
    return db, query, FDB(db).optimal_tree(query)


@settings(max_examples=150, deadline=None)
@given(
    _fan_outs(),
    st.integers(1, 8),
    st.sampled_from(gen.STRATEGIES),
    st.sampled_from(gen.POOL_MODES),
)
def test_union_all_is_the_fold_of_the_delta_merge(
    fan_out, shards, strategy, mode
):
    db, query, tree = fan_out

    def parts():  # afresh: a union may extend the first part's pool
        return gen.shard_parts(db, query, tree, shards, strategy, mode)

    folded = reduce(ops.union, parts())
    merged = ops.union_all(parts())
    assert arena_digest(merged.rep) == arena_digest(folded.rep)
    whole = FDB(db).factorise_query(query, tree=tree)
    assert sorted(merged.rows()) == sorted(whole.rows())
    merged.validate()


# -- edge behaviour kept from the fold -----------------------------------------


@pytest.fixture
def parts():
    db = random_database(3, 6, tuples=12, domain=4, seed=5)
    query = Query.make(db.names, equalities=[("a01", "a02"), ("a03", "a04")])
    tree = FDB(db).optimal_tree(query)
    return gen.shard_parts(db, query, tree, 4, "round_robin", "shared")


def test_no_parts_is_none():
    assert ops.union_all([]) is None


def test_a_lone_live_part_is_returned_as_is(parts):
    hollow = FactorisedRelation(parts[0].tree, None)
    assert ops.union_all([hollow, parts[1], hollow]) is parts[1]
    assert ops.union_all([parts[2]]) is parts[2]
    assert ops.union_all([hollow, hollow]).is_empty()


def test_differing_trees_raise_even_when_a_part_is_empty(parts):
    other = FDB(random_database(1, 2, tuples=3, seed=1)).evaluate(
        Query.make(["R0"])
    )
    with pytest.raises(OperatorError):
        ops.union_all(parts + [other])
    with pytest.raises(OperatorError):
        ops.union_all(parts + [FactorisedRelation(other.tree, None)])


def test_parts_never_take_the_pairwise_merge(parts, monkeypatch):
    def pairwise(*args):
        raise AssertionError("union_all folded its parts")

    monkeypatch.setattr(arena_kernels, "union_arena", pairwise)
    # (``repro.ops.union`` the attribute is the function, not the module)
    monkeypatch.setattr(sys.modules["repro.ops.union"], "union", pairwise)
    assert not ops.union_all(parts).is_empty()


def test_the_reference_union_folds_to_the_same_representation(parts):
    before = COUNTERS.snapshot()
    folded = reduce(reference_ops.union, [to_object(part) for part in parts])
    assert COUNTERS.since(before)["calls"] == 0  # the oracle is untallied
    assert folded.data == to_product(ops.union_all(parts).rep)


def test_private_pools_are_interned_once_in_part_order():
    skel = _skeleton_of(FTree.from_nested([("a", [])], [{"a"}]))

    def one_column(values, pool):
        ids = array("q", [list(pool).index(v) for v in values])
        return ArenaRep(skel, [ids], [[]], pool)

    pools = [[7, 3], [9, 3, True], [1, 8, 7]]
    arenas = [
        one_column([3, 7], pools[0]),
        one_column([3, 9], pools[1]),
        one_column([1, 7, 8], pools[2]),
    ]
    merged = arena_kernels.union_arenas(arenas)
    # The first pool, then the others' unseen values in part order --
    # used or not (True); 1 == True, but interning is per type.
    assert merged.pool == [7, 3, 9, True, 1, 8]
    assert pools[0] == [7, 3]  # a list pool is extended as a copy
    assert [merged.pool[v] for v in merged.values[0]] == [1, 3, 7, 8, 9]

    shared = ValuePool(pools[0])
    arenas[0] = one_column([3, 7], shared)
    merged = arena_kernels.union_arenas(arenas)
    assert merged.pool is shared  # a shared pool is extended in place
    assert list(shared) == [7, 3, 9, True, 1, 8]


def test_child_ranges_that_do_not_tile_are_refused(parts):
    live = [part.rep for part in parts if not part.is_empty()]
    rep = live[1]
    node = next(i for i, kids in enumerate(rep.skel.children) if kids)
    offsets = [list(slots) for slots in rep.offsets]
    offsets[node][0] = offsets[node][0].copy()  # writable, to tamper with
    offsets[node][0][-1] += 1
    broken = ArenaRep(rep.skel, rep.values, offsets, rep.pool)
    with pytest.raises(ArenaError):
        arena_kernels.union_arenas([live[0], broken])


# -- the union namespace -------------------------------------------------------


def test_union_counts_flush_once_per_union_all(parts):
    live = [part for part in parts if not part.is_empty()]
    before = COUNTERS.snapshot()
    union = ops.union_all(parts)
    spent = COUNTERS.since(before)
    assert spent == dict(
        calls=1,
        parts=len(live),
        entries_in=sum(part.rep.entry_count for part in live),
        entries_out=union.rep.entry_count,
        ids_remapped=0,  # one shared pool
    )
    assert spent["entries_in"] > spent["entries_out"]
    before = COUNTERS.snapshot()
    ops.union_all(parts[:1])
    assert COUNTERS.since(before)["calls"] == 0  # nothing to merge


def test_the_session_reports_the_union_namespace():
    from repro.exec import ParallelExecutor

    db = random_database(3, 6, tuples=12, domain=4, seed=5)
    sdb = ShardedDatabase.from_database(db, shards=4)
    query = Query.make(db.names, equalities=[("a01", "a02"), ("a03", "a04")])
    executor = ParallelExecutor(max_workers=1, pool="thread")

    def delta():
        before = COUNTERS.snapshot()
        with QuerySession(sdb, executor=executor) as session:
            for _ in range(2):  # the second run is a result-cache hit
                session.run(query)
            assert session.snapshot()["union"] == COUNTERS.snapshot()
            lines = session_lines(session.snapshot())
        return COUNTERS.since(before), lines

    first, lines = delta()
    second, _ = delta()
    assert first == second and first["calls"] == 1
    assert first["entries_in"] > first["entries_out"] > 0
    assert any(line.startswith("union: ") for line in lines)
    assert union_line(first).startswith(
        f"union: 1 calls over {first['parts']} parts, "
    )
    # A process that never recombined anything prints no union line.
    assert union_line(dict(first, calls=0)) is None
