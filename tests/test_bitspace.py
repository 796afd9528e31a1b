"""The integer-coded search spaces agree with their set-based specification.

Seeded random instances; every comparison is against code the searches
do not run: ``Hypergraph.components``, the plain simplex behind
``fractional_edge_cover``, ``s_tree`` and the tree-level operators
behind ``Step.transform_tree``.
"""

import random
from itertools import combinations

import pytest

from repro.core.ftree import FTree, label_key
from repro.costs.cost_model import clear_cover_cache, path_cover, s_tree
from repro.costs.edge_cover import (
    SIGNATURE_COVERS,
    CoverError,
    fractional_edge_cover,
)
from repro.optimiser.bitspace import SearchSpace
from repro.optimiser.exhaustive import CompactForests, target_partition
from repro.optimiser.fplan import Step
from repro.optimiser.ftree_space import enumerate_normalised_ftrees
from repro.query.hypergraph import Hypergraph

ATTRS = "abcdefghij"


def random_instance(rng, max_labels=7, max_edges=5, covered=True):
    """Disjoint labels over ``ATTRS`` plus random dependency edges."""
    attrs = rng.sample(ATTRS, rng.randint(2, len(ATTRS)))
    labels = []
    while attrs and len(labels) < max_labels:
        width = min(len(attrs), rng.choice((1, 1, 1, 2, 3)))
        labels.append(frozenset(attrs[:width]))
        attrs = attrs[width:]
    used = sorted(a for label in labels for a in label)
    edges = [
        set(rng.sample(used, rng.randint(1, min(4, len(used)))))
        for _ in range(rng.randint(1, max_edges))
    ]
    if covered:  # every label touched by some edge
        for label in labels:
            if not any(edge & label for edge in edges):
                rng.choice(edges).add(min(label))
    return labels, Hypergraph(edges)


def subset_mask(rng, space):
    return rng.randrange(1, space.full + 1)


def labels_of(space, mask):
    return [
        label for i, label in enumerate(space.labels) if mask >> i & 1
    ]


@pytest.mark.parametrize("seed", range(60))
def test_components_match_hypergraph_components(seed):
    rng = random.Random(seed)
    labels, edges = random_instance(rng, covered=False)
    space = SearchSpace(labels, edges)
    assert list(space.labels) == sorted(labels, key=label_key)
    for _ in range(10):
        mask = subset_mask(rng, space)
        expected = edges.components(labels_of(space, mask))
        got = [
            tuple(labels_of(space, part))
            for part in space.components(mask)
        ]
        assert got == expected  # same grouping, same order
        assert space.components(mask) is space.components(mask)  # memo


@pytest.mark.parametrize("seed", range(60))
def test_cover_matches_path_cover_and_the_plain_lp(seed):
    rng = random.Random(1000 + seed)
    labels, edges = random_instance(rng)
    if seed % 3 == 0 and len(labels) > 1:
        # Duplicate signatures: a second label under exactly the edges
        # of the first (the symmetry the LP memo collapses).
        twin = "z"
        edges = Hypergraph(
            [set(e) | ({twin} if e & labels[0] else set()) for e in edges]
        )
        labels = labels + [frozenset(twin)]
    if seed % 4 == 0:
        clear_cover_cache()  # cold and warm memo paths both
    space = SearchSpace(labels, edges)
    for _ in range(12):
        mask = subset_mask(rng, space)
        chosen = labels_of(space, mask)
        expected = fractional_edge_cover(chosen, list(edges))
        assert space.cover(mask) == expected
        assert path_cover(chosen, edges.edges) == expected
        assert space.cover(mask) == expected  # per-mask memo hit


def test_cover_of_an_uncovered_label_raises():
    space = SearchSpace(
        [frozenset("a"), frozenset("b")], Hypergraph([{"a"}])
    )
    assert space.cover(0b01) == 1
    with pytest.raises(CoverError):
        space.cover(0b11)


def test_signature_memo_reduces_keys_and_clears():
    clear_cover_cache()
    solved = SIGNATURE_COVERS.solves
    triangle = frozenset({0b011, 0b110, 0b101})
    assert SIGNATURE_COVERS.cover(triangle) == fractional_edge_cover(
        ["a", "b", "c"], [{"a", "b"}, {"b", "c"}, {"a", "c"}]
    )
    assert SIGNATURE_COVERS.solves == solved + 1
    # A signature containing another adds an implied constraint, and an
    # edge-disjoint class adds 1: both reuse the triangle's solved LP.
    assert SIGNATURE_COVERS.cover(triangle | {0b111}) == (
        SIGNATURE_COVERS.cover(triangle)
    )
    assert SIGNATURE_COVERS.cover(triangle | {0b1000}) == (
        SIGNATURE_COVERS.cover(triangle) + 1
    )
    assert SIGNATURE_COVERS.solves == solved + 1
    clear_cover_cache()
    SIGNATURE_COVERS.cover(triangle)
    assert SIGNATURE_COVERS.solves == solved + 2


# -- compact f-plan operators against Step.transform_tree ---------------------


def reference_neighbours(tree, goal):
    """The search graph's edges, computed on ``FTree`` objects.

    This is the set-based neighbour generation the coded search
    replaced, kept here as the specification of *which* operators are
    proposed and in *which order* (the order breaks ties in Dijkstra).
    """
    nodes = list(tree.iter_nodes())
    for node in nodes:
        parent = tree.parent_of(node)
        if parent is not None:
            yield Step("swap", (min(parent.label), min(node.label)))
    for left, right in combinations(nodes, 2):
        if goal[min(left.label)] != goal[min(right.label)]:
            continue
        parent_l, parent_r = tree.parent_of(left), tree.parent_of(right)
        if (parent_l is None and parent_r is None) or (
            parent_l is not None
            and parent_r is not None
            and parent_l.label == parent_r.label
        ):
            yield Step("merge", (min(left.label), min(right.label)))
        elif tree.is_ancestor(left, right):
            yield Step("absorb", (min(left.label), min(right.label)))


def random_normalised_tree(rng):
    labels = []
    while len(labels) < 2:
        labels, edges = random_instance(rng, max_labels=6, max_edges=4)
    constant = None
    if rng.random() < 0.3 and len(labels) > 2:
        # A constant node as select_constant leaves it: its attributes
        # gone from the edges, itself floated to the roots.
        candidate = rng.choice(labels)
        stripped = edges.without_attributes(candidate)
        if all(
            any(edge & label for edge in stripped)
            for label in labels
            if label != candidate
        ):
            constant, edges = candidate, stripped
    tree = rng.choice(list(enumerate_normalised_ftrees(labels, edges)))
    if constant is not None:
        tree = FTree(
            [
                root.as_constant() if root.label == constant else root
                for root in tree.roots
            ],
            edges,
        )
    return tree


def random_equalities(rng, tree):
    names = [min(node.label) for node in tree.iter_nodes()]
    return [
        tuple(rng.sample(names, 2))
        for _ in range(rng.randint(1, max(1, len(names) // 2)))
    ]


@pytest.mark.parametrize("seed", range(80))
def test_compact_operators_match_transform_tree(seed):
    rng = random.Random(5000 + seed)
    tree = random_normalised_tree(rng)
    assert tree.is_normalised()
    equalities = random_equalities(rng, tree)
    goal = target_partition(tree, equalities)
    forests = CompactForests(tree, equalities)
    # Walk a few operator applications deep so merged labels, moved
    # subtrees and re-normalised forests all get exercised.
    frontier = [tree]
    seen = {tree.key()}
    for _ in range(6):
        current = rng.choice(frontier)
        state = forests.encode(current)
        assert forests.materialise(state).key() == current.key()
        assert forests.s(state) == s_tree(current)
        assert forests.is_goal(state) == all(
            node.label == goal[min(node.label)]
            for node in current.iter_nodes()
        )
        expected = list(reference_neighbours(current, goal))
        got = list(forests.neighbours(state))
        assert [
            Step(kind, (forests.names[a], forests.names[b]))
            for (kind, a, b), _ in got
        ] == expected  # same operators, same order
        for step, (_, code) in zip(expected, got):
            successor = step.transform_tree(current)
            assert forests.materialise(code).key() == successor.key(), step
            assert forests.encode(successor) == code, step
            if successor.key() not in seen:
                seen.add(successor.key())
                frontier.append(successor)


def test_every_operator_kind_is_exercised_by_the_random_walks():
    kinds = set()
    for seed in range(80):
        rng = random.Random(5000 + seed)
        tree = random_normalised_tree(rng)
        goal = target_partition(tree, random_equalities(rng, tree))
        kinds |= {step.kind for step in reference_neighbours(tree, goal)}
    assert kinds == {"swap", "merge", "absorb"}
