"""Unit tests for f-tree enumeration and the optimal-f-tree DP."""

from fractions import Fraction

import pytest

from repro.core.ftree import FTree
from repro.costs.cost_model import s_tree
from repro.experiments.exp1 import run_experiment1
from repro.optimiser.ftree_optimiser import (
    FTreeOptimiser,
    optimal_ftree,
    query_classes_and_edges,
)
from repro.optimiser.ftree_space import (
    count_normalised_ftrees,
    enumerate_normalised_ftrees,
)
from repro.query.hypergraph import Hypergraph
from repro.query.query import Query
from repro.workloads import (
    grocery_database,
    query_q1,
    query_q2,
    random_database,
    random_query,
)
from tests.conftest import load_script


def lab(*attrs):
    return frozenset(attrs)


def test_enumeration_two_dependent_classes():
    h = Hypergraph([{"a", "b"}])
    trees = list(
        enumerate_normalised_ftrees([lab("a"), lab("b")], h)
    )
    shapes = sorted(t.pretty_inline() for t in trees)
    assert shapes == ["{a}({b})", "{b}({a})"]


def test_enumeration_independent_classes_forest_only():
    h = Hypergraph([{"a"}, {"b"}])
    trees = list(
        enumerate_normalised_ftrees([lab("a"), lab("b")], h)
    )
    # Normalised: only the forest of two roots.
    assert len(trees) == 1
    assert trees[0].pretty_inline() == "{a} | {b}"


def test_enumeration_all_trees_are_normalised_and_valid():
    h = Hypergraph([{"a", "b"}, {"b", "c"}, {"c", "d"}])
    labels = [lab(x) for x in "abcd"]
    trees = list(enumerate_normalised_ftrees(labels, h))
    assert trees
    for tree in trees:
        assert tree.is_normalised()
        assert tree.satisfies_path_constraint()
    # All trees distinct.
    assert len({t.key() for t in trees}) == len(trees)


def test_count_single_relation_chains():
    # One edge over k classes: every permutation chain is normalised.
    k = 4
    h = Hypergraph([set("abcd")])
    labels = [lab(x) for x in "abcd"]
    assert count_normalised_ftrees(labels, h) == 24  # 4!


def test_dp_matches_enumeration_on_small_instances():
    cases = [
        ([lab(x) for x in "abc"], Hypergraph([{"a", "b"}, {"b", "c"}])),
        (
            [lab(x) for x in "abcd"],
            Hypergraph([{"a", "b"}, {"b", "c"}, {"c", "d"}]),
        ),
        (
            [lab(x) for x in "abc"],
            Hypergraph([{"a", "b"}, {"b", "c"}, {"a", "c"}]),
        ),
        (
            [lab("a", "b"), lab("c"), lab("d")],
            Hypergraph([{"a", "c"}, {"b", "d"}]),
        ),
    ]
    for labels, edges in cases:
        best_enum = min(
            s_tree(t)
            for t in enumerate_normalised_ftrees(labels, edges)
        )
        tree, cost = FTreeOptimiser(labels, edges).optimise()
        assert cost == best_enum
        assert s_tree(tree) == cost
        assert tree.is_normalised()
        assert tree.satisfies_path_constraint()


def test_optimal_ftree_for_q2_has_cost_one():
    """Example 5: s(Q2) = 1 thanks to T3."""
    db = grocery_database()
    tree, cost = optimal_ftree(db, query_q2())
    assert cost == Fraction(1)
    # The root must be the supplier class with items and locations below.
    assert tree.roots[0].label == frozenset(
        {"p_supplier", "v_supplier"}
    )


def test_optimal_ftree_for_q1_has_cost_two():
    """Example 5: s(Q1) = 2; no f-tree does better."""
    db = grocery_database()
    _, cost = optimal_ftree(db, query_q1())
    assert cost == Fraction(2)


def test_query_classes_and_edges():
    db = grocery_database()
    classes, edges = query_classes_and_edges(db, query_q1())
    assert frozenset({"o_item", "s_item"}) in classes
    assert frozenset({"s_location", "d_location"}) in classes
    assert len(edges) == 3


def test_single_relation_query_costs_one():
    db = random_database(1, 5, 20, seed=1)
    q = Query.make(db.names)
    _, cost = optimal_ftree(db, q)
    assert cost == Fraction(1)


def test_chain_query_cost_grows_like_log():
    """Example 6: chains of joins have s = Theta(log n)."""
    from repro.relational.database import Database

    def chain_db(n):
        db = Database()
        for i in range(n):
            db.add_rows(
                f"R{i}", (f"A{i}", f"B{i}"), [(1, 1)]
            )
        return db

    def chain_query(n):
        return Query.make(
            [f"R{i}" for i in range(n)],
            equalities=[
                (f"B{i}", f"A{i+1}") for i in range(n - 1)
            ],
        )

    _, cost2 = optimal_ftree(chain_db(2), chain_query(2))
    _, cost4 = optimal_ftree(chain_db(4), chain_query(4))
    _, cost8 = optimal_ftree(chain_db(8), chain_query(8))
    assert cost2 == Fraction(1)
    assert cost4 == Fraction(2)
    assert cost2 <= cost4 <= cost8
    assert cost8 <= Fraction(3)  # log-like growth, not linear


def test_random_queries_dp_vs_enumeration():
    for seed in range(4):
        db = random_database(3, 6, 10, domain=5, seed=seed)
        q = random_query(db, 2, seed=seed)
        classes, edges = query_classes_and_edges(db, q)
        tree, cost = FTreeOptimiser(classes, edges).optimise()
        best = min(
            s_tree(t)
            for t in enumerate_normalised_ftrees(classes, edges)
        )
        assert cost == best


# -- branch & bound: lower-bound memo entries --------------------------------


def _fig5_cell():
    """Classes and edges of Figure 5's smoke cell R=4, K=3, repeat 0."""
    run_seed = 1000 * 4 + 10 * 3
    db = random_database(4, 24, 10, seed=run_seed)
    return query_classes_and_edges(db, random_query(db, 3, seed=run_seed + 1))


def test_greedy_fallback_from_the_first_subproblem_is_a_valid_tree():
    classes, edges = _fig5_cell()
    _, optimum = FTreeOptimiser(classes, edges).optimise()
    tree, cost = FTreeOptimiser(classes, edges, time_budget=0.0).optimise()
    assert tree.is_normalised()
    assert tree.satisfies_path_constraint()
    assert sorted(map(sorted, (n.label for n in tree.iter_nodes()))) == (
        sorted(map(sorted, classes))
    )
    assert s_tree(tree) == cost >= optimum


def test_golden_8_relation_trees_materialise_only_exact_entries():
    gen = load_script("gen_optimiser_golden")
    cases = [
        (db, query)
        for case, db, query in gen.ftree_inputs()
        if case["relations"] == 8
    ]
    assert cases
    bounded = 0
    for db, query in cases:
        opt = FTreeOptimiser(*query_classes_and_edges(db, query))
        visited = []
        materialise = opt._subtree

        def spy(component, ancestors):
            visited.append(opt._memo[(component, ancestors)])
            return materialise(component, ancestors)

        opt._subtree = spy
        tree, _ = opt.optimise()
        assert len(visited) == sum(1 for _ in tree.iter_nodes())
        assert all(root != 0 for _, root, _ in visited)
        bounded += sum(1 for _, root, _ in opt._memo.values() if not root)
    assert bounded  # the corpus does exercise lower-bound entries


def test_incumbent_bound_cuts_fig5_subproblems():
    (row,) = run_experiment1(
        relations_values=(4,),
        equalities_values=(3,),
        attributes=24,
        repeats=2,
    )
    # 5 272 at the parent commit, which solved every child exactly.
    assert row.subproblems < 5272
