"""Unit tests for structured f-representations and the expression AST."""

import pytest

from repro.core import FRepError
from repro.core.expr import (
    Empty,
    ExprError,
    Nullary,
    Product,
    Singleton,
    Union,
    expression_of,
)
from repro.core.ftree import FNode, FTree
from repro.reference import from_product
from repro.reference.frep import (
    ProductRep,
    UnionRep,
    check_sorted,
    iter_unions,
    singleton_union,
)
from repro.query.hypergraph import Hypergraph


def small_tree():
    return FTree.from_nested(
        [("a", [("b", [])])], edges=[{"a", "b"}]
    )


def small_data():
    # a:1 -> b in {1,2};  a:2 -> b in {2}
    return ProductRep(
        [
            UnionRep(
                [
                    (1, ProductRep([UnionRep([
                        (1, ProductRep()), (2, ProductRep())
                    ])])),
                    (2, ProductRep([UnionRep([(2, ProductRep())])])),
                ]
            )
        ]
    )


def test_union_find_binary_search():
    u = UnionRep([(1, ProductRep()), (3, ProductRep())])
    assert u.find(3) is not None
    assert u.find(2) is None
    assert u.values() == [1, 3]


def test_check_sorted_rejects_disorder_and_duplicates():
    check_sorted(UnionRep([(1, ProductRep()), (2, ProductRep())]))
    with pytest.raises(FRepError):
        check_sorted(UnionRep([(2, ProductRep()), (1, ProductRep())]))
    with pytest.raises(FRepError):
        check_sorted(UnionRep([(1, ProductRep()), (1, ProductRep())]))


def test_singleton_union_shape():
    u = singleton_union(5)
    assert u.values() == [5]
    assert u.entries[0][1].factors == []


def test_iter_unions_visits_all():
    count = sum(1 for _ in iter_unions(small_data()))
    assert count == 3  # one a-union + two nested b-unions


def test_copy_is_deep():
    data = small_data()
    clone = data.copy()
    clone.factors[0].entries[0][1].factors[0].entries.append(
        (99, ProductRep())
    )
    assert data != clone


# -- expression AST ----------------------------------------------------------


def test_singleton_schema_size_tuples():
    s = Singleton("a", 7)
    assert s.schema() == frozenset({"a"})
    assert s.size() == 1
    assert s.tuples() == {(("a", 7),)}


def test_nullary_and_empty():
    assert Nullary().tuples() == {()}
    assert Empty({"a"}).tuples() == set()
    assert Empty().size() == 0 and Nullary().size() == 0


def test_union_schema_mismatch_rejected():
    with pytest.raises(ExprError):
        Union([Singleton("a", 1), Singleton("b", 1)])


def test_product_overlap_rejected():
    with pytest.raises(ExprError):
        Product([Singleton("a", 1), Singleton("a", 2)])


def test_expression_semantics_distributivity():
    # <a:1> x (<b:1> u <b:2>)  ==  <a:1>x<b:1> u <a:1>x<b:2>
    factored = Product(
        [Singleton("a", 1), Union([Singleton("b", 1), Singleton("b", 2)])]
    )
    flat = Union(
        [
            Product([Singleton("a", 1), Singleton("b", 1)]),
            Product([Singleton("a", 1), Singleton("b", 2)]),
        ]
    )
    assert factored.tuples() == flat.tuples()
    assert factored.size() == 3 and flat.size() == 4


def from_structured(tree, data):
    """The AST of an object representation, through its arena."""
    return expression_of(from_product(tree, data))


def test_from_structured_round_trip():
    tree = small_tree()
    expr = from_structured(tree, small_data())
    assert expr.size() == 2 + 3  # 2 a-singletons + 3 b-singletons
    assert expr.tuples() == {
        (("a", 1), ("b", 1)),
        (("a", 1), ("b", 2)),
        (("a", 2), ("b", 2)),
    }


def test_expression_of_multi_attribute_label():
    tree = FTree.from_nested([(("a", "b"), [])], edges=[{"a"}, {"b"}])
    data = ProductRep([UnionRep([(1, ProductRep())])])
    expr = from_structured(tree, data)
    assert expr.tuples() == {(("a", 1), ("b", 1))}
    assert expr.size() == 2
    assert expr.to_text(unicode_glyphs=False) == "<a:1> x <b:1>"


def test_nullary_tuple_renders_as_nullary():
    nullary = FTree([], Hypergraph([]))
    assert isinstance(from_structured(nullary, ProductRep()), Nullary)


def test_to_text_glyphs():
    tree = small_tree()
    text = from_structured(tree, small_data()).to_text()
    assert "⟨a:1⟩" in text and "∪" in text and "×" in text
    ascii_text = from_structured(tree, small_data()).to_text(
        unicode_glyphs=False
    )
    assert ascii_text == "<a:1> x (<b:1> u <b:2>) u <a:2> x <b:2>"


def test_arity_mismatch_rejected():
    tree = small_tree()
    with pytest.raises(FRepError):
        from_structured(tree, ProductRep([]))


def test_empty_union_rejected():
    tree = small_tree()
    bad = ProductRep([UnionRep([])])
    with pytest.raises(ExprError):
        from_structured(tree, bad)
