"""The trie-cursor factoriser: arena identity, cache lifetime, counters.

``tests/data/factorise_golden.json`` was generated by
``scripts/gen_factorise_golden.py`` at the parent commit of the
trie-cursor factoriser (one ``_Source`` index per (relation, node), a
context dict threaded through the recursion) and committed unchanged.
An *equivalent* representation would not be enough: persisted blobs,
wire frames and ``core.fact_ratio`` are functions of the arena's bytes,
so column contents and pool order -- private pool and shared pool,
rolled-back interning included -- are part of ``factorise``'s contract.

The rest pins what makes the speed-up safe: tries live and die with
their immutable :class:`Relation` (never stale, never pickled, never
more than :data:`TRIE_CACHE_SIZE` per relation, harmless to build
twice), and the ``factorise`` counters repeat exactly.
"""

import json
import pickle
import random
import sys
import threading
from itertools import islice, permutations

from hypothesis import given, settings, strategies as st

from repro import persist
from repro.core import build
from repro.core.arena import ValuePool, iter_rows, validate_arena
from repro.core.build import COUNTERS, Factoriser, factorise
from repro.core.ftree import FNode, FTree
from repro.optimiser.ftree_optimiser import optimal_ftree
from repro.query.hypergraph import Hypergraph
from repro.query.query import Query
from repro.reference import ObjectFactoriser, to_product
from repro.reference import factorise as reference_factorise
from repro.reference.walkers import iter_rows as reference_iter_rows
from repro.relational.database import Database
from repro.relational.engine import RelationalEngine
from repro.relational.relation import TRIE_CACHE_SIZE, Relation
from repro.workloads import random_database, random_query
from tests.conftest import load_script
from tests.test_differential import BATCHES, _database, _queries

gen = load_script("gen_factorise_golden")

with open(gen.GOLDEN_PATH, encoding="utf-8") as handle:
    GOLDEN = json.load(handle)


# -- arena identity ------------------------------------------------------------


def test_corpus_meets_its_floor():
    cases = GOLDEN["cases"]
    assert GOLDEN["seed"] == gen.SEED
    assert len(cases) >= 300
    assert {case["kind"] for case in cases} >= {
        "optimal", "chain", "constants", "pruned", "empty", "mixed",
        "forest", "rollback", "partial", "grocery",
    }
    assert sum(case["private"] == "empty" for case in cases) >= 20
    # The shared pool also keeps what rolled-back entries interned, so
    # it must differ from the compacted private pool somewhere.
    assert sum(case["private"] != case["shared"] for case in cases) >= 50


def test_factorise_writes_the_golden_arenas():
    inputs = list(gen.cases())
    assert len(inputs) == len(GOLDEN["cases"])
    for (case, relations, tree), want in zip(inputs, GOLDEN["cases"]):
        assert gen.input_digest(relations, tree) == want["input"], case
        got = gen.case_record(relations, tree)
        assert got == {key: want[key] for key in got}, case
        # The arena decodes to what the reference factoriser builds.
        decoded = to_product(Factoriser(relations, tree).run())
        assert gen.product_digest(decoded) == want["object"], case


# -- when values become ids ----------------------------------------------------


def _typed_rows(arena, order):
    return [tuple(_typed(v) for v in row) for row in iter_rows(arena, order)]


def _typed(value):
    return type(value).__name__, value


def test_a_column_of_ints_and_floats_keeps_its_types_in_either_pool():
    """``1`` and ``1.0`` meet in one column.  A private pool numbers
    them at ``finish()``, column by column in first-use order; a shared
    pool interns them as the walk writes them (a leaf union before its
    parent's value).  Either way both types survive decoding."""
    r = Relation.from_rows(
        "R", ("a", "b"), [(1, 1), (1, 2.5), (2, 1.0), (2, 3)]
    )
    s = Relation.from_rows("S", ("b", "c"), [(1.0, 7), (2.5, 8.0), (3, 9)])
    chain = FTree.from_nested([("a", [("b", [])])], edges=[{"a", "b"}])
    private = factorise([r], chain)
    shared = factorise([r], chain, pool=ValuePool())
    assert [(type(v), v) for v in private.pool] == [
        (int, 1), (int, 2), (float, 2.5), (float, 1.0), (int, 3),
    ]
    assert [(type(v), v) for v in shared.pool] == [
        (int, 1), (float, 2.5), (float, 1.0), (int, 3), (int, 2),
    ]
    want = [(1, 1), (1, 2.5), (2, 1.0), (2, 3)]
    for rep in (private, shared):
        assert _typed_rows(rep, ("a", "b")) == [
            tuple(map(_typed, row)) for row in want
        ]
    # Through a two-relation join (the general emitter): b = 1 and
    # b = 1.0 are one join value, typed by the smaller trie level.
    deep = FTree.from_nested(
        [("a", [("b", [("c", [])])])], edges=[{"a", "b"}, {"b", "c"}]
    )
    private = factorise([r, s], deep)
    shared = factorise([r, s], deep, pool=ValuePool())
    assert _typed_rows(private, ("a", "b", "c")) == _typed_rows(
        shared, ("a", "b", "c")
    )
    assert len(private.pool) == len(set(map(_typed, private.pool)))
    assert {type(private.pool[v]) for v in private.values[1]} == {int, float}


def _spy_on_candidates(monkeypatch):
    """Count calls per node of every candidates function a run makes,
    keyed by the identity of the node's source list."""
    calls = {}
    real = build._candidates_fn

    def spy(cursors, sources):
        found = real(cursors, sources)
        calls[id(sources)] = 0

        def counted():
            calls[id(sources)] += 1
            return found()

        return counted

    monkeypatch.setattr(build, "_candidates_fn", spy)
    return calls


def _decoded(rep):
    if rep is None:
        return None
    return (
        [[_typed(rep.pool[v]) for v in column] for column in rep.values],
        [[list(slot) for slot in slots] for slots in rep.offsets],
    )


def _agreement_cases():
    """(relations, f-tree, intra) over the differential harness's
    databases and queries, on the optimal tree and on one shuffled
    chain; then chains ``a00 -> {a01, a02}`` over one relation, whose
    class asserts an intra-relation equality (``intra`` is true)."""
    for db_seed, query_seed, count in BATCHES:
        db = _database(db_seed)
        for i, query in enumerate(_queries(db, query_seed, count)):
            relations = gen._relations_of(db, query)
            tree, _ = optimal_ftree(db, query)
            yield relations, tree, False
            yield relations, gen._chain_tree(tree, random.Random(i)), False
    for seed in range(5):
        db = random_database(1, 3, tuples=8, domain=3, seed=seed)
        query = Query.make(["R0"], equalities=[("a01", "a02")])
        tree, _ = optimal_ftree(db, query)
        chain = FTree([FNode({"a00"}, [FNode({"a01", "a02"})])], tree.edges)
        yield [db["R0"]], chain, True


def test_private_and_shared_pools_decode_to_the_same_arena(monkeypatch):
    calls = _spy_on_candidates(monkeypatch)
    fused = skipped = 0
    for relations, tree, intra in _agreement_cases():
        calls.clear()
        factoriser = Factoriser(relations, tree)
        private = factoriser.run()
        shared = factoriser.run(ValuePool())
        assert _decoded(private) == _decoded(shared)
        assert to_product(private) == reference_factorise(relations, tree)
        validate_arena(tree, private)
        validate_arena(tree, shared)
        if private is None:
            continue
        # A leaf whose candidates never ran was written by its parent's
        # fused loop: one relation, one child, the child a leaf.
        skel = private.skel
        for idx, kids in enumerate(skel.children):
            if not kids and not calls[id(factoriser._sources[idx])]:
                fused += 1
                parent = skel.parent[idx]
                assert skel.children[parent] == (idx,)
                assert len(factoriser._sources[parent]) == 1
        if intra:
            # Every a00 without an a01 = a02 row has an empty level
            # under it: the fused loop skipped it and wrote nothing.
            rows = relations[0].rows
            kept = sorted({a00 for a00, a01, a02 in rows if a01 == a02})
            skipped += len(kept) < len({row[0] for row in rows})
            assert [private.pool[v] for v in private.values[0]] == kept
    assert fused > 0
    assert skipped > 0


# -- the semantic property -----------------------------------------------------

_values = st.integers(min_value=1, max_value=4)


@st.composite
def _joins(draw):
    """A small database, an equi-join over all of it, and an f-tree
    for the result: the optimal one, or all classes on one path."""
    db = Database()
    attrs = []
    for r in range(draw(st.integers(1, 3))):
        arity = draw(st.integers(1, 3))
        names = [f"x{len(attrs) + i}" for i in range(arity)]
        attrs.extend(names)
        rows = draw(
            st.lists(
                st.tuples(*[_values] * arity), min_size=0, max_size=6
            )
        )
        db.add_rows(f"T{r}", names, rows)
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(attrs), st.sampled_from(attrs)),
            max_size=3,
        )
    )
    query = Query.make(
        db.names, equalities=[(a, b) for a, b in pairs if a != b]
    )
    tree, _ = optimal_ftree(db, query)
    if draw(st.booleans()):
        labels = draw(st.permutations(tree.labels()))
        node = None
        for label in reversed(labels):
            node = FNode(label, [] if node is None else [node])
        tree = FTree([node], tree.edges)
    return db, query, tree


@settings(max_examples=120, deadline=None)
@given(_joins(), st.sampled_from(["reference", "arena"]))
def test_factorised_rows_are_the_flat_join(join, builder):
    db, query, tree = join
    flat = RelationalEngine(db).evaluate(query)
    order = flat.attributes
    relations = [db[name] for name in query.relations]
    if builder == "arena":
        rows = sorted(iter_rows(factorise(relations, tree), order))
    else:
        data = reference_factorise(relations, tree)
        rows = sorted(reference_iter_rows(tree.roots, data, order))
    assert rows == sorted(flat.rows)
    assert len(set(rows)) == len(rows)


# -- cache lifetime ------------------------------------------------------------


def _warm(db, query):
    tree, _ = optimal_ftree(db, query)
    relations = [db[name] for name in query.relations]
    return tree, factorise(relations, tree)


def _flat(db, query, order):
    flat = RelationalEngine(db).evaluate(query)
    perm = [flat.schema.index_of(a) for a in order]
    return sorted(tuple(row[i] for i in perm) for row in flat.rows)


def test_mutations_replace_the_relation_and_its_tries():
    db = random_database(3, 6, 12, domain=4, seed=11)
    query = random_query(db, 2, seed=12)
    tree, _ = _warm(db, query)
    order = sorted(tree.attributes())
    for mutate in (
        lambda: db.extend_rows("R0", [(1, 1), (2, 3)]),
        lambda: db.delete_rows("R0", rows=[db["R0"].rows[0]]),
        lambda: db.update_rows("R0", lambda row: row[0] == 1, {"a00": 4}),
    ):
        before = {name: db[name] for name in db.names}
        assert all(relation._tries for relation in before.values())
        mutate()
        assert db["R0"] is not before["R0"]
        assert db["R0"]._tries == {}
        for name in ("R1", "R2"):  # untouched: same object, same tries
            assert db[name] is before[name]
            assert db[name]._tries
        _, arena = _warm(db, query)
        assert sorted(iter_rows(arena, order)) == _flat(db, query, order)
        # The replaced relation's tries went with it, not into a
        # module-level cache: nothing else holds them.
        old = before.pop("R0")
        assert sys.getrefcount(old) == 2  # ``old`` + the call's argument


def test_trie_cache_is_capped_per_relation():
    attrs = [f"w{i}" for i in range(8)]
    wide = Relation.from_rows(
        "W", attrs, [tuple((i * j) % 5 for j in range(8)) for i in range(9)]
    )
    for order in islice(permutations(attrs), TRIE_CACHE_SIZE + 5):
        node = None
        for attr in reversed(order):
            node = FNode({attr}, [] if node is None else [node])
        tree = FTree([node], Hypergraph([set(attrs)]))
        arena = factorise([wide], tree)
        assert sorted(iter_rows(arena, attrs)) == wide.rows
        assert len(wide._tries) <= TRIE_CACHE_SIZE
    assert len(wide._tries) == TRIE_CACHE_SIZE
    # Least recently used out: the first access path is gone, the last
    # one is kept.
    assert tuple((i,) for i in range(8)) not in wide._tries
    assert list(wide._tries)[-1] == tuple(
        (attrs.index(attr),) for attr in order
    )


def test_concurrent_factorisation_over_shared_relations():
    """The server's thread pool factorises over one database from
    several threads: tries are read-only once built, and two threads
    that both miss build equal tries and keep either."""
    db = random_database(3, 7, 60, domain=6, seed=21)
    queries = [random_query(db, k, seed=30 + k) for k in (1, 2, 3, 2, 1)]
    plans = [(q, optimal_ftree(db, q)[0]) for q in queries]

    def digests():
        return [
            gen.arena_digest(
                factorise(
                    [db[name] for name in q.relations],
                    tree,
                    pool=ValuePool(),
                )
            )
            for q, tree in plans
        ]

    expected = digests()
    for relation in db:
        relation._tries.clear()  # every thread starts on a miss
    results = [None] * 6
    start = threading.Barrier(len(results))

    def work(slot):
        start.wait(timeout=30)
        results[slot] = digests()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=work, args=(slot,))
            for slot in range(len(results))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * len(results)


# -- derived caches stay out of pickles and files ------------------------------


def test_relation_pickles_without_its_caches(tmp_path):
    db = random_database(2, 5, 30, domain=5, seed=41)
    cold = pickle.dumps(db["R0"])
    cold_file = tmp_path / "cold.fdbp"
    persist.save(db, str(cold_file))
    query = random_query(db, 1, seed=42)
    _warm(db, query)
    db["R0"].distinct_count("a00")
    assert db["R0"]._tries and db["R0"]._distinct_cache
    assert pickle.dumps(db["R0"]) == cold
    clone = pickle.loads(pickle.dumps(db["R0"]))
    assert clone == db["R0"] and clone.schema == db["R0"].schema
    assert clone._tries == {} and clone._distinct_cache == {}
    warm_file = tmp_path / "warm.fdbp"
    persist.save(db, str(warm_file))
    assert warm_file.read_bytes() == cold_file.read_bytes()


# -- the factorise counters ----------------------------------------------------


def test_counters_repeat_exactly_and_agree_with_the_reference():
    def spent(build):
        db = random_database(3, 7, 25, domain=8, seed=55)
        query = random_query(db, 3, seed=56)
        tree, _ = optimal_ftree(db, query)
        relations = [db[name] for name in query.relations]
        before = COUNTERS.snapshot()
        first = build(relations, tree)
        cold = COUNTERS.since(before)
        before = COUNTERS.snapshot()
        build(relations, tree)
        return first, cold, COUNTERS.since(before), relations

    arena, cold, warm, relations = spent(factorise)
    assert cold == spent(factorise)[1] == spent(reference_factorise)[1]
    assert cold["calls"] == 1
    assert cold["trie_builds"] == 3 and cold["trie_hits"] == 0
    assert cold["trie_rows_scanned"] == sum(map(len, relations))
    assert cold["entries_committed"] == arena.entry_count
    assert cold["entries_rolled_back"] > 0
    assert warm == dict(
        cold, trie_builds=0, trie_hits=3, trie_rows_scanned=0
    )


def test_committed_entries_over_the_corpus_are_the_golden_total():
    """Same representation, cheaper construction: what the counters
    call committed is exactly what the parent commit's arenas held."""
    for factoriser in (Factoriser, ObjectFactoriser):
        before = COUNTERS.snapshot()
        for _, relations, tree in gen.cases():
            factoriser(relations, tree).run()
        spent = COUNTERS.since(before)
        assert spent["calls"] == len(GOLDEN["cases"])
        assert spent["entries_committed"] == sum(
            case["entries"] for case in GOLDEN["cases"]
        )
        assert spent["entries_rolled_back"] > 0
