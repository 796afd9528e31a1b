"""Exhaustive f-plan search (Section 4.2).

The space of f-plans is a directed graph: vertices are normalised
f-trees, edges are applicable operators (swaps anywhere; merges and
absorbs only between nodes whose classes must end up merged -- "any
valid f-plan will only merge nodes which end up merged in T_final").
The cost of a path is the *bottleneck* ``s(f) = max_i s(T_i)``, and
among the goal trees reachable at the minimal bottleneck we pick one
with the smallest ``s(T_final)`` -- the lexicographic order
``<max x <s(T)`` of Section 4.1.  Dijkstra's algorithm applies because
the bottleneck metric is monotone along paths.

The search does not walk :class:`FTree` objects.  The input tree's
nodes are numbered once (:class:`CompactForests`), a forest over them
is one tuple of small ints (:data:`State`), and the operators are list
edits plus bit-mask dependency tests; f-trees are built for the input,
for the estimate-based cost callback and for the returned plan only.
The tree-level operators behind :meth:`Step.transform_tree` remain the
specification: they replay every returned plan, and
``tests/test_bitspace.py`` compares each coded operator against them.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.core.ftree import FNode, FTree
from repro.costs.cardinality import (
    Statistics,
    estimate_representation_size,
)
from repro.costs.edge_cover import SIGNATURE_COVERS
from repro.optimiser.bitspace import COUNTERS, CoverTally, SearchSpace
from repro.optimiser.fplan import FPlan, Step
from repro.query.equivalence import UnionFind

#: A forest over the input tree's nodes ("atoms", numbered in
#: ``label_key`` order): entry ``a`` is the parent's representative
#: (``-1`` for a root) when atom ``a`` is the lowest atom of its node --
#: the node's *representative* -- and ``-2 - representative`` when it
#: has been merged into a node with a lower atom.  Two f-trees over the
#: same edges are equal iff their codes are.
State = Tuple[int, ...]

#: An operator application in atom terms: (kind, first, second
#: representative) -- the arguments of the :class:`Step` it stands for.
Move = Tuple[str, int, int]

_UNCOVERED = 1e9  # s(T) of a tree with an uncoverable class


class SearchExhausted(RuntimeError):
    """Raised when the state cap is hit before reaching a goal."""


def target_partition(
    tree: FTree, equalities: List[Tuple[str, str]]
) -> Dict[str, FrozenSet[str]]:
    """Map each attribute to its goal class (tree classes + equalities)."""
    uf = UnionFind(tree.attributes())
    for node in tree.iter_nodes():
        attrs = sorted(node.label)
        for other in attrs[1:]:
            uf.union(attrs[0], other)
    for left, right in equalities:
        uf.union(left, right)
    return {attr: uf.class_of(attr) for attr in tree.attributes()}


class CompactForests:
    """The f-plan search graph over integer-coded forests.

    Built once per search from the input f-tree; its nodes become the
    atoms of every :data:`State`.  Children of a node are kept in
    ascending representative order, which is the ``label_key`` order
    :class:`FTree` sorts them in (a merged label's smallest attribute
    is its lowest atom's), so pre-order walks -- and with them the
    order in which :meth:`neighbours` proposes operators -- agree with
    the tree-level specification, :meth:`Step.transform_tree`.
    """

    def __init__(
        self, tree: FTree, equalities: List[Tuple[str, str]]
    ) -> None:
        nodes = list(tree.iter_nodes())
        self.edges = tree.edges
        self.space = SearchSpace([node.label for node in nodes], tree.edges)
        labels = self.space.labels
        self.size = len(labels)
        #: Smallest attribute per atom: what a Step names a node by.
        self.names = [min(label) for label in labels]
        self._atom_of = {name: a for a, name in enumerate(self.names)}
        constant = {node.label for node in nodes if node.constant}
        self._constant = sum(
            1 << a for a, label in enumerate(labels) if label in constant
        )
        goal = target_partition(tree, equalities)
        classes: Dict[FrozenSet[str], int] = {}
        #: Goal class number per atom; only atoms of one class may merge.
        self.goal_of = [
            classes.setdefault(goal[name], len(classes))
            for name in self.names
        ]
        self.goal_size = len(classes)
        #: Per atom: mask of the atoms it must end up merged with.
        self._goal_label = [
            sum(
                1 << other
                for other in range(self.size)
                if self.goal_of[other] == number
            )
            for number in self.goal_of
        ]
        #: label mask -> mask of the atoms it depends on / its edge
        #: signature (``None`` for constant nodes) / its attribute set.
        self._depends: Dict[int, int] = {}
        self._signature: Dict[int, Optional[int]] = {}
        self._attributes: Dict[int, FrozenSet[str]] = {}

    # -- coding ---------------------------------------------------------------

    def encode(self, tree: FTree) -> State:
        """The code of an f-tree over (merges of) this search's atoms."""
        atom_of = self._atom_of
        code = [0] * self.size
        for a, name in enumerate(self.names):
            node = tree.node_of(name)
            representative = atom_of[min(node.label)]
            if representative != a:
                code[a] = -2 - representative
                continue
            parent = tree.parent_of(node)
            code[a] = -1 if parent is None else atom_of[min(parent.label)]
        return tuple(code)

    def _decode(
        self, state: State
    ) -> Tuple[List[int], List[List[int]], List[int]]:
        """(label mask, children, pre-order) of the coded forest."""
        size = self.size
        label = [0] * size
        children: List[List[int]] = [[] for _ in range(size)]
        stack: List[int] = []
        for a, entry in enumerate(state):
            if entry < -1:
                label[-2 - entry] |= 1 << a
                continue
            label[a] |= 1 << a
            if entry < 0:
                stack.append(a)
            else:
                children[entry].append(a)
        stack.reverse()
        order: List[int] = []
        while stack:
            a = stack.pop()
            order.append(a)
            if children[a]:
                stack.extend(reversed(children[a]))
        return label, children, order

    def materialise(self, state: State) -> FTree:
        """The :class:`FTree` a code stands for."""
        label, children, _ = self._decode(state)

        def build(a: int) -> FNode:
            return FNode(
                self._attributes_of(label[a]),
                [build(child) for child in children[a]],
                not label[a] & ~self._constant,
            )

        return FTree(
            [build(a) for a, entry in enumerate(state) if entry == -1],
            self.edges,
        )

    def _attributes_of(self, label: int) -> FrozenSet[str]:
        attributes = self._attributes.get(label)
        if attributes is None:
            labels = self.space.labels
            attributes = self._attributes[label] = frozenset().union(
                *(labels[a] for a in range(self.size) if label >> a & 1)
            )
        return attributes

    def _depends_on(self, label: int) -> int:
        """Mask of the atoms sharing a dependency edge with ``label``."""
        mask = self._depends.get(label)
        if mask is None:
            adjacent = self.space.adjacent
            mask = 0
            rest = label
            while rest:
                low = rest & -rest
                mask |= adjacent[low.bit_length() - 1]
                rest ^= low
            self._depends[label] = mask
        return mask

    def _signature_of(self, label: int) -> Optional[int]:
        """Edge signature of a node; ``None`` for constant nodes."""
        if label not in self._signature:
            merged: Optional[int] = None
            if label & ~self._constant:
                merged = 0
                for a, signature in enumerate(self.space.signature):
                    if label >> a & 1:
                        merged |= signature
            self._signature[label] = merged
        return self._signature[label]

    # -- the search graph -----------------------------------------------------

    def is_goal(self, state: State) -> bool:
        """All equalities enforced: one node per goal class."""
        return sum(entry >= -1 for entry in state) == self.goal_size

    def neighbours(self, state: State) -> Iterator[Tuple[Move, State]]:
        """All operator applications from ``state``.

        Swaps for every (parent, child) pair in pre-order, then a merge
        or absorb for every pre-order pair of nodes that must end up
        merged ("any valid f-plan will only merge nodes which end up
        merged in T_final") and are siblings / ancestor and descendant.
        """
        label, children, order = self._decode(state)
        size = self.size
        below = [0] * size  # label masks of whole subtrees
        for a in reversed(order):
            mask = label[a]
            for child in children[a]:
                mask |= below[child]
            below[a] = mask
        for b in order:
            a = state[b]
            if a < 0:
                continue
            # chi_{A,B}: B takes A's place with A below it; children of
            # B that depend on A follow A down, the rest stay with B.
            code = list(state)
            code[b] = state[a]
            code[a] = b
            depends = self._depends_on(label[a])
            for child in children[b]:
                if depends & below[child]:
                    code[child] = a
            yield ("swap", a, b), tuple(code)
        goal_of = self.goal_of
        unmerged = [a for a in order if label[a] != self._goal_label[a]]
        if not unmerged:
            return
        above = [0] * size  # masks of ancestor representatives
        for a in order:
            for child in children[a]:
                above[child] = above[a] | 1 << a
        for i, left in enumerate(unmerged):
            for right in unmerged[i + 1 :]:
                if goal_of[left] != goal_of[right]:
                    continue
                if state[left] == state[right]:
                    # mu_{A,B}: siblings fuse, children of both below.
                    code = list(state)
                    self._fuse(code, label, left, right)
                    yield ("merge", left, right), tuple(code)
                elif above[right] >> left & 1:
                    yield (
                        ("absorb", left, right),
                        self._absorbed(state, label, order, left, right),
                    )

    def _fuse(
        self, code: List[int], label: List[int], keep: int, drop: int
    ) -> None:
        """Fold node ``drop`` into node ``keep`` (which keeps its place);
        whoever has the lower atom represents the fused node."""
        low, high = (keep, drop) if keep < drop else (drop, keep)
        place = code[keep]
        for a, entry in enumerate(code):
            if entry == high:
                code[a] = low
            elif label[high] >> a & 1:
                code[a] = -2 - low
        code[low] = place

    def _absorbed(
        self,
        state: State,
        label: List[int],
        order: List[int],
        upper: int,
        lower: int,
    ) -> State:
        """alpha_{A,B}: descendant B's children go to B's parent, B
        fuses into ancestor A, and the forest is re-normalised."""
        code = list(state)
        adopter = state[lower]
        for a, entry in enumerate(code):
            if entry == lower:
                code[a] = adopter
        self._fuse(code, label, upper, lower)
        # Normalise: push every node up past the ancestors it is
        # independent of.  Bottom-up, so a node's subtree is final when
        # the node is placed; absorbing only removed ancestors, so the
        # reversed pre-order of ``state`` (the fused node in A's place)
        # still lists every node after its descendants.  Push-ups
        # commute: this is the fix-point
        # :func:`repro.ops.normalise_tree` reaches.
        keep = min(upper, lower)
        fused = label[upper] | label[lower]
        nodes = [
            keep if a == upper else a
            for a in reversed(order)
            if a != lower
        ]
        below = [0] * self.size
        for b in nodes:
            mask = fused if b == keep else label[b]
            for a in nodes:
                if code[a] == b:
                    mask |= below[a]
            below[b] = mask
            parent = code[b]
            while parent >= 0 and not mask & self._depends_on(
                fused if parent == keep else label[parent]
            ):
                parent = code[parent]
            code[b] = parent
        return tuple(code)

    def s(self, state: State) -> float:
        """``s(T)`` of the coded forest: its worst root-to-leaf cover."""
        label = [0] * self.size
        inner = 0  # representatives that have children
        for a, entry in enumerate(state):
            if entry < -1:
                label[-2 - entry] |= 1 << a
            else:
                label[a] |= 1 << a
                if entry >= 0:
                    inner |= 1 << entry
        signature_of = self._signature_of
        worst = 0.0
        for leaf, entry in enumerate(state):
            if entry < -1 or inner >> leaf & 1:
                continue
            path = set()
            node = leaf
            while node >= 0:
                signature = signature_of(label[node])
                if signature == 0:
                    return _UNCOVERED
                if signature is not None:
                    path.add(signature)
                node = state[node]
            if path:
                value = SIGNATURE_COVERS.cover(frozenset(path))
                if value > worst:
                    worst = value
        return worst


def exhaustive_fplan(
    tree: FTree,
    equalities: List[Tuple[str, str]],
    max_states: int = 200_000,
    stats: Optional[Statistics] = None,
) -> FPlan:
    """Optimal f-plan for a conjunction of equality selections.

    Runs Dijkstra with the bottleneck cost from the input f-tree over
    the operator graph; explores at most ``max_states`` distinct
    f-trees (a safety valve -- the experiments of Section 5 stay well
    below it).  The graph is walked in the integer coding of
    :class:`CompactForests`; f-trees are only built for the returned
    plan, whose constructor replays every step through
    :meth:`Step.transform_tree` -- the specification the coded
    operators are checked against on every call.

    With ``stats`` given, the *estimate-based* cost measure of
    Section 4.1 is used instead of the asymptotic one: the cost of a
    plan is the sum of the estimated representation sizes of the
    intermediate and final f-trees (an additive metric, equally
    Dijkstra-compatible).  The paper reports both measures "lead to
    very similar choices of optimal f-plans".

    Among equally good plans the choice is deterministic and part of
    the contract (``tests/data/optimiser_golden.json``): states leave
    the frontier by (cost, steps, order of discovery), and a state's
    first-found cheapest path is kept.
    """
    forests = CompactForests(tree, equalities)
    cost_of: Dict[State, object] = {}
    if stats is not None:

        def measure(state: State):
            return estimate_representation_size(
                forests.materialise(state), stats
            )

        def combine(path_cost, state_cost):
            return path_cost + state_cost

    else:
        measure = forests.s
        combine = max

    tally = CoverTally()
    start = forests.encode(tree)
    start_cost = cost_of[start] = measure(start)

    #: state -> (bottleneck, steps-from-start)
    dist: Dict[State, Tuple[object, int]] = {start: (start_cost, 0)}
    back: Dict[State, Tuple[State, Move]] = {}
    counter = 0
    frontier: List[Tuple[object, int, int, State]] = [
        (start_cost, 0, counter, start)
    ]

    goals: List[Tuple[object, State]] = []
    best_goal_bottleneck = None
    expanded = 0
    generated = 0

    try:
        while frontier:
            bottleneck, steps, _, current = heapq.heappop(frontier)
            if dist[current] != (bottleneck, steps):
                continue
            if (
                best_goal_bottleneck is not None
                and bottleneck > best_goal_bottleneck
            ):
                break  # all remaining paths are strictly worse
            if forests.is_goal(current):
                goals.append((bottleneck, current))
                if best_goal_bottleneck is None:
                    best_goal_bottleneck = bottleneck
                # Do NOT stop here: swaps from a goal reach other goal
                # trees at the same bottleneck, possibly with a smaller
                # final cost (the paper picks the cheapest goal among
                # all at minimal distance).
            expanded += 1
            if expanded > max_states:
                if goals:
                    break
                raise SearchExhausted(
                    f"no f-plan found within {max_states} states"
                )
            for move, neighbour in forests.neighbours(current):
                generated += 1
                cost = cost_of.get(neighbour)
                if cost is None:
                    cost = cost_of[neighbour] = measure(neighbour)
                reached = (combine(bottleneck, cost), steps + 1)
                known = dist.get(neighbour)
                if known is None or reached < known:
                    dist[neighbour] = reached
                    counter += 1
                    back[neighbour] = (current, move)
                    heapq.heappush(
                        frontier, (*reached, counter, neighbour)
                    )
    finally:
        COUNTERS.add(
            fplan_searches=1,
            fplan_states_expanded=min(expanded, max_states),
            fplan_states_generated=generated,
            **tally.counts(),
        )

    if not goals:
        raise SearchExhausted("goal f-tree unreachable")

    # Lexicographic choice: minimal bottleneck, then minimal s(T_final).
    min_bottleneck = min(bottleneck for bottleneck, _ in goals)
    final = min(
        (
            candidate
            for bottleneck, candidate in goals
            if bottleneck == min_bottleneck
        ),
        key=lambda state: (cost_of[state], dist[state][1]),
    )

    # Reconstruct the step sequence.
    steps_rev: List[Step] = []
    names = forests.names
    state = final
    while state != start:
        state, (kind, first, second) = back[state]
        steps_rev.append(Step(kind, (names[first], names[second])))
    steps_rev.reverse()
    plan = FPlan(tree, steps_rev)
    assert forests.encode(plan.output_tree) == final, (
        "coded operators disagree with Step.transform_tree"
    )
    return plan
