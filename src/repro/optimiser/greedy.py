"""The greedy f-plan heuristic (Section 4.3).

The greedy optimiser restricts the search in two ways: it only
restructures the nodes participating in selection conditions, and it
orders the conditions greedily by the cost of their individual
restructure-then-select plans.  For each condition ``A = B`` it
considers the paper's three restructuring scenarios (plus the direct
merge when the nodes are already siblings):

0. merge directly, if ``A`` and ``B`` are siblings;
1. swap ``A`` upward until it is an ancestor of ``B``, then absorb;
2. symmetrically, promote ``B`` over ``A``, then absorb;
3. if the nodes sit in disjoint trees, promote both to roots, making
   them siblings at the topmost level, then merge.

The cheapest scenario (by the bottleneck ``s``-cost of its
intermediate trees) becomes the condition's plan; the conditions are
then executed cheapest-first, re-evaluating after each one.  Runtime
is polynomial in the f-tree size, 2-3 orders of magnitude below the
exhaustive search in the experiments (Figure 9), at a small loss of
plan quality (Figure 6).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.ftree import FTree
from repro.costs.cardinality import (
    Statistics,
    estimate_plan_cost,
)
from repro.costs.cost_model import PlanCost, s_tree
from repro.optimiser.fplan import FPlan, Step


def _promote_to_ancestor(
    tree: FTree, a_attr: str, b_attr: str
) -> Optional[List[Step]]:
    """Swap ``a`` upward until it dominates ``b``; then absorb.

    Returns ``None`` when impossible (the nodes are in disjoint trees).
    """
    steps: List[Step] = []
    current = tree
    while True:
        node_a = current.node_of(a_attr)
        node_b = current.node_of(b_attr)
        if current.is_ancestor(node_a, node_b):
            break
        parent = current.parent_of(node_a)
        if parent is None:
            return None
        step = Step("swap", (min(parent.label), min(node_a.label)))
        current = step.transform_tree(current)
        steps.append(step)
    steps.append(
        Step(
            "absorb",
            (
                min(current.node_of(a_attr).label),
                min(current.node_of(b_attr).label),
            ),
        )
    )
    return steps


def _promote_to_root(tree: FTree, attr: str) -> List[Step]:
    """Swaps lifting the node holding ``attr`` to a root."""
    steps: List[Step] = []
    current = tree
    while True:
        node = current.node_of(attr)
        parent = current.parent_of(node)
        if parent is None:
            return steps
        step = Step("swap", (min(parent.label), min(node.label)))
        current = step.transform_tree(current)
        steps.append(step)


def _apply_steps(tree: FTree, steps: Sequence[Step]) -> List[FTree]:
    """All trees visited by ``steps`` (including the input)."""
    trees = [tree]
    for step in steps:
        trees.append(step.transform_tree(trees[-1]))
    return trees


def _scenarios(
    tree: FTree, a_attr: str, b_attr: str
) -> List[List[Step]]:
    """Candidate restructure+select step lists for one condition."""
    node_a = tree.node_of(a_attr)
    node_b = tree.node_of(b_attr)
    candidates: List[List[Step]] = []

    parent_a = tree.parent_of(node_a)
    parent_b = tree.parent_of(node_b)
    same_parent = (
        (parent_a is None and parent_b is None)
        or (
            parent_a is not None
            and parent_b is not None
            and parent_a.label == parent_b.label
        )
    )
    if same_parent:
        candidates.append(
            [Step("merge", (min(node_a.label), min(node_b.label)))]
        )
    promotions = [
        _promote_to_ancestor(tree, first, second)
        for first, second in ((a_attr, b_attr), (b_attr, a_attr))
    ]
    candidates.extend(steps for steps in promotions if steps is not None)
    # Neither node can be swapped above the other: disjoint trees.
    if promotions[0] is None and not same_parent:
        steps = _promote_to_root(tree, a_attr)
        middle = _apply_steps(tree, steps)[-1]
        steps = steps + _promote_to_root(middle, b_attr)
        final = _apply_steps(tree, steps)[-1]
        steps.append(
            Step(
                "merge",
                (
                    min(final.node_of(a_attr).label),
                    min(final.node_of(b_attr).label),
                ),
            )
        )
        candidates.append(steps)
    return candidates


def _fragment_cost(
    tree: FTree,
    steps: Sequence[Step],
    stats: Optional[Statistics] = None,
):
    trees = _apply_steps(tree, steps)
    if stats is not None:
        # Estimate-based measure (Section 4.1): summed estimated
        # sizes.  Wrapped in a PlanCost-like tuple for comparability.
        total = estimate_plan_cost(trees, stats)
        final = estimate_plan_cost([trees[-1]], stats)
        return PlanCost.of_floats(total, final, len(steps))
    return PlanCost.of_trees(trees)


def greedy_fplan(
    tree: FTree,
    equalities: Sequence[Tuple[str, str]],
    stats: Optional[Statistics] = None,
) -> FPlan:
    """Greedy f-plan for a conjunction of equality conditions.

    With ``stats``, candidate restructurings are ranked by the
    estimate-based cost measure instead of the asymptotic one.

    >>> from repro.core.ftree import FTree
    >>> t = FTree.from_nested(
    ...     [("a", [("b", [])]), ("c", [("d", [])])],
    ...     edges=[{"a", "b"}, {"c", "d"}])
    >>> plan = greedy_fplan(t, [("b", "d")])
    >>> plan.output_tree.node_of("b").label == frozenset({"b", "d"})
    True
    """
    all_steps: List[Step] = []
    current = tree
    pending = list(equalities)
    while True:
        # Conditions whose attributes already share a node are done.
        pending = [
            (a, b)
            for a, b in pending
            if current.node_of(a).label != current.node_of(b).label
        ]
        if not pending:
            break
        best: Optional[
            Tuple[PlanCost, int, List[Step], Tuple[str, str]]
        ] = None
        for index, (a, b) in enumerate(pending):
            for scenario in _scenarios(current, a, b):
                cost = _fragment_cost(current, scenario, stats)
                key = (cost, index, scenario, (a, b))
                if best is None or (cost, len(scenario)) < (
                    best[0],
                    len(best[2]),
                ):
                    best = key
        assert best is not None
        _, _, steps, chosen = best
        all_steps.extend(steps)
        current = _apply_steps(current, steps)[-1]
        pending.remove(chosen)
    return FPlan(tree, all_steps)
