"""Unit tests for the SPJ query model."""

import pytest

from repro.query.query import (
    ConstantCondition,
    EqualityCondition,
    Query,
    QueryError,
)


def test_trivial_equality_rejected():
    with pytest.raises(QueryError):
        EqualityCondition("a", "a")


def test_equality_attributes_and_str():
    eq = EqualityCondition("a", "b")
    assert eq.attributes() == frozenset({"a", "b"})
    assert str(eq) == "a = b"


def test_constant_condition_comparators():
    assert ConstantCondition("a", "=", 3).test(3)
    assert not ConstantCondition("a", "=", 3).test(4)
    assert ConstantCondition("a", "<", 3).test(2)
    assert ConstantCondition("a", "<=", 3).test(3)
    assert ConstantCondition("a", ">", 3).test(4)
    assert ConstantCondition("a", ">=", 3).test(3)
    assert ConstantCondition("a", "!=", 3).test(4)


def test_unknown_comparator_rejected():
    with pytest.raises(QueryError):
        ConstantCondition("a", "~", 3)


def test_make_builds_conditions():
    q = Query.make(
        ["R", "S"],
        equalities=[("a", "c")],
        constants=[("b", ">=", 2)],
        projection=["a"],
    )
    assert q.relations == ("R", "S")
    assert q.equalities[0] == EqualityCondition("a", "c")
    assert q.constants[0].op == ">="
    assert q.projection == ("a",)


def test_attribute_classes_merge_transitively():
    q = Query.make(["R"], equalities=[("a", "b"), ("b", "c")])
    classes = q.attribute_classes(["a", "b", "c", "d"])
    assert frozenset({"a", "b", "c"}) in classes
    assert frozenset({"d"}) in classes
    assert len(classes) == 2


def test_attribute_classes_unknown_attribute():
    q = Query.make(["R"], equalities=[("a", "zz")])
    with pytest.raises(QueryError):
        q.attribute_classes(["a", "b"])


def test_nonredundant_equalities_dropped():
    q = Query.make(
        ["R"], equalities=[("a", "b"), ("b", "c"), ("a", "c")]
    )
    kept = q.nonredundant_equalities(["a", "b", "c"])
    assert len(kept) == 2


def test_validate_against_schema():
    schema = {"R": ("a", "b"), "S": ("c",)}
    Query.make(["R", "S"], equalities=[("a", "c")]).validate_against(
        schema
    )
    with pytest.raises(QueryError):
        Query.make(["R", "X"]).validate_against(schema)
    with pytest.raises(QueryError):
        Query.make(["R"], equalities=[("a", "zz")]).validate_against(
            schema
        )
    with pytest.raises(QueryError):
        Query.make(["R"], constants=[("zz", "=", 1)]).validate_against(
            schema
        )
    with pytest.raises(QueryError):
        Query.make(["R"], projection=["zz"]).validate_against(schema)


def test_str_rendering():
    q = Query.make(
        ["R", "S"],
        equalities=[("a", "c")],
        constants=[("b", "=", 1)],
        projection=["a", "b"],
    )
    text = str(q)
    assert "SELECT a, b FROM R, S" in text
    assert "a = c" in text and "b = 1" in text


def test_class_partition_is_canonical():
    q1 = Query.make(["R"], equalities=[("a", "b")])
    q2 = Query.make(["R"], equalities=[("b", "a")])
    attrs = ["a", "b", "c"]
    assert q1.class_partition(attrs) == q2.class_partition(attrs)


def test_canonical_key_memo_never_leaks_into_equality_hash_or_pickle():
    import dataclasses
    import pickle

    def build():
        return Query.make(
            ["S", "R"],
            equalities=[("b", "a")],
            constants=[("c", "<", 3)],
            projection=["b", "a"],
        )

    query, fresh = build(), build()
    key = query.canonical_key()
    assert query.canonical_key() is key  # derived once, then kept
    assert "_key" not in fresh.__dict__
    assert query == fresh and hash(query) == hash(fresh)
    assert repr(query) == repr(fresh)
    # Pickling and copying carry the fields only; the key is re-derived.
    clone = pickle.loads(pickle.dumps(query))
    assert "_key" not in clone.__dict__
    assert clone == query and clone.canonical_key() == key
    # replace() builds a new instance: it never inherits a stale key.
    assert dataclasses.replace(query).canonical_key() == key
    stripped = dataclasses.replace(query, projection=None)
    assert stripped.canonical_key() == key[:3] + (None,)
    assert stripped != query
