"""Unit tests for fractional and integral edge covers."""

from fractions import Fraction

import pytest

from repro.costs.cost_model import path_cover, s_tree
from repro.costs.edge_cover import (
    CoverError,
    exact,
    fractional_edge_cover,
    integral_edge_cover,
    SignatureCoverMemo,
)
from repro.optimiser import exhaustive_fplan, greedy_fplan
from repro.optimiser.ftree_optimiser import FTreeOptimiser
from repro.query.hypergraph import Hypergraph


def test_single_edge_covers_everything():
    assert fractional_edge_cover(
        [{"a"}, {"b"}], [{"a", "b"}]
    ) == Fraction(1)
    assert integral_edge_cover([{"a"}, {"b"}], [{"a", "b"}]) == 1


def test_disjoint_classes_need_two_edges():
    classes = [{"a"}, {"b"}]
    edges = [{"a"}, {"b"}]
    assert fractional_edge_cover(classes, edges) == Fraction(2)
    assert integral_edge_cover(classes, edges) == 2


def test_triangle_fractional_vs_integral_gap():
    """The classic AGM example: fractional 3/2, integral 2."""
    classes = [{"a"}, {"b"}, {"c"}]
    edges = [{"a", "b"}, {"b", "c"}, {"a", "c"}]
    assert fractional_edge_cover(classes, edges) == Fraction(3, 2)
    assert integral_edge_cover(classes, edges) == 2


def test_chain_cover():
    # path a-b-c with edges {a,b}, {b,c}: covered by both edges = 2?
    # No: {a,b} covers a and b, {b,c} covers c -> 2 edges, but
    # fractionally also 2? x1 + x2 with x1 >= 1 (a), x2 >= 1 (c) -> 2.
    classes = [{"a"}, {"b"}, {"c"}]
    edges = [{"a", "b"}, {"b", "c"}]
    assert fractional_edge_cover(classes, edges) == Fraction(2)


def test_empty_class_list_costs_zero():
    assert fractional_edge_cover([], [{"a"}]) == Fraction(0)
    assert integral_edge_cover([], [{"a"}]) == 0


def test_uncoverable_class_raises():
    with pytest.raises(CoverError):
        fractional_edge_cover([{"a"}, {"zz"}], [{"a"}])
    with pytest.raises(CoverError):
        integral_edge_cover([{"a"}, {"zz"}], [{"a"}])


def test_multi_attribute_classes_covered_by_intersection():
    # Class {a, b} is covered by any edge meeting a or b.
    classes = [{"a", "b"}, {"c"}]
    edges = [{"a", "c"}]
    assert fractional_edge_cover(classes, edges) == Fraction(1)


def test_star_query():
    # centre c joined with k satellites; each edge {c, s_i}.
    k = 4
    classes = [{"c"}] + [{f"s{i}"} for i in range(k)]
    edges = [{"c", f"s{i}"} for i in range(k)]
    assert fractional_edge_cover(classes, edges) == Fraction(k)


def test_k_cycle_fractional_cover_is_k_over_2():
    for k in (4, 5, 6):
        classes = [{f"v{i}"} for i in range(k)]
        edges = [{f"v{i}", f"v{(i + 1) % k}"} for i in range(k)]
        assert fractional_edge_cover(classes, edges) == Fraction(k, 2)


def test_result_is_exact_fraction():
    value = fractional_edge_cover(
        [{"a"}, {"b"}, {"c"}],
        [{"a", "b"}, {"b", "c"}, {"a", "c"}],
    )
    assert isinstance(value, Fraction)
    assert value.denominator == 2


def test_redundant_edges_do_not_hurt():
    classes = [{"a"}, {"b"}]
    edges = [{"a", "b"}, {"a"}, {"b"}, {"zzz"}]
    assert fractional_edge_cover(classes, edges) == Fraction(1)


def test_agreement_with_scipy_if_available():
    scipy = pytest.importorskip("scipy")
    from repro.costs.edge_cover import fractional_edge_cover_scipy

    cases = [
        ([{"a"}, {"b"}, {"c"}], [{"a", "b"}, {"b", "c"}, {"a", "c"}]),
        ([{"a"}, {"b"}], [{"a", "b"}]),
        (
            [{f"v{i}"} for i in range(5)],
            [{f"v{i}", f"v{(i + 1) % 5}"} for i in range(5)],
        ),
    ]
    for classes, edges in cases:
        exact = fractional_edge_cover(classes, edges)
        approx = fractional_edge_cover_scipy(classes, edges)
        assert abs(float(exact) - approx) < 1e-9


# -- the float contract -------------------------------------------------------

TRIANGLE = frozenset({0b011, 0b110, 0b101})  # classes of the triangle query


@pytest.mark.parametrize(
    "forged", [Fraction(1, 2**20 + 1), Fraction(2**10)]
)
def test_memo_refuses_values_without_an_exact_float(forged):
    memo = SignatureCoverMemo()
    memo._groups[TRIANGLE] = forged
    with pytest.raises(CoverError):
        memo.cover(TRIANGLE)
    with pytest.raises(CoverError):
        memo.cover(TRIANGLE | {0b1000})  # plus an edge-disjoint class
    assert len(memo) == 1 and memo.solves == 0


def test_memo_stores_floats_and_exact_recovers_them():
    memo = SignatureCoverMemo()
    memo._groups[TRIANGLE] = Fraction(2**20 - 1, 2**20)  # at the bound
    value = memo.cover(TRIANGLE | {0b1000})
    assert isinstance(value, float)
    assert exact(value) == Fraction(2**21 - 1, 2**20)
    assert exact(memo.cover(TRIANGLE)) == Fraction(2**20 - 1, 2**20)
    with pytest.raises(CoverError):
        exact(1 / 3 + 2**-40)  # no rational of the memo's is this float


# K4's triangles: every class is covered by three of the four edges, so
# the cover number is 4/3 -- a value no double holds exactly.
K4_CLASSES = [frozenset(c) for c in "abcd"]
K4_EDGES = [{"b", "c", "d"}, {"a", "b", "c"}, {"a", "b", "d"}, {"a", "c", "d"}]


def test_public_costs_are_exact_fractions():
    edges = Hypergraph(K4_EDGES + [{"e"}, {"f"}])
    tree, cost = FTreeOptimiser(
        K4_CLASSES + [frozenset("e"), frozenset("f")], edges
    ).optimise()
    assert type(cost) is Fraction and cost == Fraction(4, 3)
    assert type(s_tree(tree)) is Fraction and s_tree(tree) == cost
    path = path_cover(K4_CLASSES, edges.edges)
    assert type(path) is Fraction and path == Fraction(4, 3)
    for search in (exhaustive_fplan, greedy_fplan):
        plan = search(tree, [("e", "f")])
        bottleneck, final = plan.cost.as_tuple()[:2]
        assert type(bottleneck) is Fraction and type(final) is Fraction
        assert (bottleneck, final) == (Fraction(4, 3), Fraction(4, 3))
