"""Property-based tests (hypothesis) for the core invariants.

These are the paper's semantic guarantees, checked on randomly drawn
databases, f-trees and operator applications:

- factorised evaluation computes exactly the flat join result;
- every f-plan operator preserves the represented relation;
- normalisation never increases the representation size;
- the measured representation size respects the ``O(|D|^{s(T)})``
  bound (with the constant made explicit);
- swap's priority-queue algorithm agrees with the naive reference.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Tuple

from hypothesis import assume, given, settings, strategies as st

from repro.core.build import factorise
from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FTree
from repro.costs.cost_model import s_tree
from repro.engine import FDB
from repro.ops import (
    merge,
    normalise,
    project,
    select_constant,
    swap,
)
from repro.optimiser import exhaustive_fplan, greedy_fplan
from repro.optimiser.ftree_optimiser import optimal_ftree
from repro.query.query import ConstantCondition, Query
from repro.reference import ReferenceEngine, to_object, to_product
from repro.reference.ops import swap_reference
from repro.relational.database import Database
from repro.relational.engine import RelationalEngine
from tests.conftest import assignments, filtered, flat_assignments

# -- strategies ---------------------------------------------------------------

values = st.integers(min_value=1, max_value=4)


@st.composite
def databases(draw, relations=3, max_rows=5):
    """Small random databases with fixed binary schemas."""
    db = Database()
    for r in range(relations):
        rows = draw(
            st.lists(
                st.tuples(values, values), min_size=1, max_size=max_rows
            )
        )
        db.add_rows(f"T{r}", (f"x{2*r}", f"x{2*r+1}"), rows)
    return db


@st.composite
def databases_with_query(draw):
    db = draw(databases())
    attrs = db.attributes()
    n_eq = draw(st.integers(min_value=0, max_value=2))
    pairs: List[Tuple[str, str]] = []
    from repro.query.equivalence import UnionFind

    uf = UnionFind(attrs)
    tries = draw(
        st.lists(
            st.tuples(
                st.sampled_from(attrs), st.sampled_from(attrs)
            ),
            min_size=0,
            max_size=8,
        )
    )
    for a, b in tries:
        if len(pairs) >= n_eq:
            break
        if a != b and uf.union(a, b):
            pairs.append((a, b))
    return db, Query.make(db.names, equalities=pairs)


SETTINGS = settings(max_examples=40, deadline=None)


# -- properties ----------------------------------------------------------------


@SETTINGS
@given(databases_with_query())
def test_factorised_equals_flat(db_query):
    db, query = db_query
    fr = FDB(db, check_invariants=True).evaluate(query)
    flat = RelationalEngine(db).evaluate(query)
    assert assignments(fr) == flat_assignments(flat)
    oracle = ReferenceEngine(db, check_invariants=True).evaluate(query)
    assert assignments(oracle) == flat_assignments(flat)


@SETTINGS
@given(databases_with_query())
def test_size_bound_holds(db_query):
    """|E| <= |S| * (s+1) * |D|^{s(T)} for the optimal f-tree."""
    db, query = db_query
    tree, cost = optimal_ftree(db, query)
    data = factorise(list(db), tree)
    fr = FactorisedRelation(tree, data)
    d = max(1, db.total_size)
    bound = len(fr.attributes) * (float(cost) + 1) * (
        d ** float(cost)
    )
    assert fr.size() <= bound + 1e-9


@SETTINGS
@given(databases_with_query())
def test_normalise_preserves_relation_and_size(db_query):
    db, query = db_query
    fr = FDB(db).evaluate(query)
    assume(not fr.is_empty())
    out = normalise(fr)
    assert assignments(out) == assignments(fr)
    assert out.size() <= fr.size()


@SETTINGS
@given(databases_with_query(), st.integers(0, 10**6))
def test_swap_preserves_relation(db_query, pick):
    db, query = db_query
    fr = FDB(db, check_invariants=True).evaluate(query)
    assume(not fr.is_empty())
    pairs = [
        (parent, node)
        for node in fr.tree.iter_nodes()
        for parent in [fr.tree.parent_of(node)]
        if parent is not None
    ]
    assume(pairs)
    parent, node = pairs[pick % len(pairs)]
    out = swap(
        fr, min(parent.label), min(node.label)
    ).validate()
    ref = swap_reference(
        to_object(fr), min(parent.label), min(node.label)
    )
    assert to_product(out.rep) == ref.data
    assert assignments(out) == assignments(fr)
    assert out.tree.satisfies_path_constraint()
    assert out.tree.is_normalised()


@SETTINGS
@given(databases_with_query(), st.integers(1, 4), st.integers(0, 10**6))
def test_select_constant_matches_reference(db_query, constant, pick):
    db, query = db_query
    fr = FDB(db).evaluate(query)
    assume(not fr.is_empty())
    attrs = list(fr.attributes)
    attr = attrs[pick % len(attrs)]
    for op in ("=", "<", ">="):
        out = select_constant(
            fr, ConstantCondition(attr, op, constant)
        )
        if not out.is_empty():
            out.validate()
        cond = ConstantCondition(attr, op, constant)
        expected = filtered(
            fr, predicate=lambda d: cond.test(d[attr])
        )
        assert assignments(out) == expected


@SETTINGS
@given(databases_with_query(), st.integers(0, 10**6))
def test_projection_matches_reference(db_query, pick):
    db, query = db_query
    fr = FDB(db).evaluate(query)
    assume(not fr.is_empty())
    attrs = sorted(fr.attributes)
    keep = [a for i, a in enumerate(attrs) if (pick >> i) & 1]
    out = project(fr, keep)
    expected = {
        tuple(sorted((k, v) for k, v in d.items() if k in keep))
        for d in fr
    }
    assert assignments(out) == expected


@SETTINGS
@given(databases_with_query(), st.integers(0, 10**6))
def test_fplans_enforce_equality(db_query, pick):
    db, query = db_query
    fr = FDB(db, check_invariants=True).evaluate(query)
    assume(not fr.is_empty())
    labels = [n.label for n in fr.tree.iter_nodes()]
    assume(len(labels) >= 2)
    i = pick % len(labels)
    j = (pick // len(labels)) % len(labels)
    assume(i != j)
    eq = (min(labels[i]), min(labels[j]))
    for planner in (exhaustive_fplan, greedy_fplan):
        plan = planner(fr.tree, [eq])
        out = plan.execute(fr)
        if not out.is_empty():
            out.validate()
        assert assignments(out) == filtered(fr, [eq])


@SETTINGS
@given(databases_with_query())
def test_exhaustive_cost_never_exceeds_greedy(db_query):
    db, query = db_query
    fr = FDB(db).evaluate(query)
    labels = [n.label for n in fr.tree.iter_nodes()]
    assume(len(labels) >= 2)
    eq = (min(labels[0]), min(labels[1]))
    full = exhaustive_fplan(fr.tree, [eq])
    quick = greedy_fplan(fr.tree, [eq])
    assert full.cost.as_tuple()[:2] <= quick.cost.as_tuple()[:2]


@SETTINGS
@given(databases())
def test_count_equals_enumeration_length(db):
    query = Query.make(db.names)
    fr = FDB(db).evaluate(query)
    assert fr.count() == sum(1 for _ in fr)


@SETTINGS
@given(databases())
def test_constant_delay_enumeration_is_sorted_and_distinct(db):
    query = Query.make(db.names)
    fr = FDB(db).evaluate(query)
    rows = list(fr.rows())
    assert rows == sorted(set(rows))
