"""Unit tests for factorised aggregation."""

import random

import pytest

from repro.core.aggregate import AggregateError
from repro.core.build import factorise
from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FTree
from repro.engine import FDB
from repro.query.query import Query
from repro.reference import aggregate as reference_aggregate
from repro.reference import to_object
from repro.relational.relation import Relation
from repro.workloads import grocery_database, query_q1
from tests.conftest import random_small_database


@pytest.fixture
def fr():
    r = Relation.from_rows(
        "R", ("a", "b"), [(1, 10), (1, 20), (2, 20), (3, 5)]
    )
    tree = FTree.from_nested([("a", [("b", [])])], [{"a", "b"}])
    return FactorisedRelation(tree, factorise([r], tree))


def reference(fr):
    return list(fr)


def test_count_matches_enumeration(fr):
    assert fr.count() == len(reference(fr))
    obj = to_object(fr)
    assert reference_aggregate.count(obj.tree.roots, obj.data) == fr.count()


def test_sum_matches_enumeration(fr):
    expected = sum(d["b"] for d in reference(fr))
    assert fr.sum("b") == expected
    expected_a = sum(d["a"] for d in reference(fr))
    assert fr.sum("a") == expected_a


def test_avg_matches_enumeration(fr):
    rows = reference(fr)
    assert fr.avg("b") == sum(d["b"] for d in rows) / len(rows)


def test_min_max(fr):
    assert fr.min("b") == 5
    assert fr.max("b") == 20
    assert fr.min("a") == 1
    assert fr.max("a") == 3


def test_count_distinct(fr):
    assert fr.count_distinct("a") == 3
    assert fr.count_distinct("b") == 3  # {10, 20, 5}


def test_group_count_root_attribute(fr):
    assert fr.group_count("a") == {1: 2, 2: 1, 3: 1}


def test_group_count_inner_attribute(fr):
    assert fr.group_count("b") == {10: 1, 20: 2, 5: 1}


def test_empty_relation_aggregates(fr):
    empty = FactorisedRelation(fr.tree, None)
    assert empty.sum("b") == 0.0
    assert empty.avg("b") is None
    assert empty.min("b") is None and empty.max("b") is None
    assert empty.count_distinct("b") == 0
    assert empty.group_count("b") == {}


def test_unknown_attribute_raises(fr):
    with pytest.raises(AggregateError):
        fr.sum("zz")
    with pytest.raises(AggregateError):
        fr.min("zz")
    with pytest.raises(AggregateError):
        fr.count_distinct("zz")


def test_aggregates_on_join_result():
    db = grocery_database()
    fr = FDB(db).evaluate(query_q1())
    rows = list(fr)
    assert fr.sum("oid") == sum(d["oid"] for d in rows)
    assert fr.min("oid") == min(d["oid"] for d in rows)
    assert fr.max("oid") == max(d["oid"] for d in rows)
    assert fr.count_distinct("dispatcher") == len(
        {d["dispatcher"] for d in rows}
    )
    groups = fr.group_count("dispatcher")
    for name in groups:
        assert groups[name] == sum(
            1 for d in rows if d["dispatcher"] == name
        )


@pytest.mark.parametrize("seed", range(5))
def test_aggregates_match_enumeration_on_random_data(seed):
    rng = random.Random(seed)
    db = random_small_database(rng)
    q = Query.make(db.names)
    fr = FDB(db).evaluate(q)
    rows = list(fr)
    attr = sorted(fr.attributes)[seed % len(fr.attributes)]
    assert fr.sum(attr) == pytest.approx(
        sum(d[attr] for d in rows)
    )
    assert fr.min(attr) == min(d[attr] for d in rows)
    assert fr.max(attr) == max(d[attr] for d in rows)
    assert fr.count_distinct(attr) == len({d[attr] for d in rows})
    groups = fr.group_count(attr)
    expected = {}
    for d in rows:
        expected[d[attr]] = expected.get(d[attr], 0) + 1
    assert groups == expected
    # The recursive object walkers are the oracle: same answers.
    obj = to_object(fr)
    assert obj.sum(attr) == pytest.approx(fr.sum(attr))
    assert obj.avg(attr) == pytest.approx(fr.avg(attr))
    assert (obj.min(attr), obj.max(attr)) == (fr.min(attr), fr.max(attr))
    assert obj.count_distinct(attr) == fr.count_distinct(attr)
    assert obj.group_count(attr) == groups


def test_sum_is_linear_not_exponential():
    """Counting on a product of unions never enumerates tuples."""
    k = 12
    db_rows = [(i,) for i in range(10)]
    from repro.relational.database import Database

    db = Database()
    for i in range(k):
        db.add_rows(f"U{i}", (f"u{i}",), db_rows)
    fr = FDB(db).evaluate(Query.make(db.names))
    # 10^12 tuples; enumeration would be impossible.
    assert fr.count() == 10**k
    assert fr.sum("u0") == 45 * 10 ** (k - 1)
    assert fr.group_count("u3")[7] == 10 ** (k - 1)
