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
nodes are numbered once, a forest over them is one tuple of small ints
(:data:`State`), and the operators are list edits plus bit-mask
dependency tests; f-trees are built for the input, for the
estimate-based cost callback and for the returned plan only.  The
tree-level operators behind :meth:`Step.transform_tree` remain the
specification: they replay every returned plan, and
``tests/test_bitspace.py`` compares each coded operator against them.

Follow-ups on one factorised input differ only in their goal (the class
partition their equalities force); the states, their ``s(T)`` and their
successors are the same for all of them.  So the graph comes in two
parts:

- a :class:`ForestSpace`, built once per input tree's atoms and edges
  and shared through the process-wide LRU
  :data:`~repro.optimiser.bitspace.FPLAN_SPACES`: it interns every
  forest reached as an int id and keeps, per id, ``s(T)``, the decoded
  forest and its successor ids;
- a :class:`CompactForests`, one search's goal over a space.

A search from a tree seen before is a Dijkstra over ints: no decoding
and no hashing of state tuples for states an earlier search reached.
"""

from __future__ import annotations

import heapq
import threading
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.core.ftree import FNode, FTree
from repro.costs.cardinality import (
    Statistics,
    estimate_representation_size,
)
from repro.costs.edge_cover import SIGNATURE_COVERS
from repro.optimiser.bitspace import (
    COUNTERS,
    FPLAN_SPACES,
    CoverTally,
    SearchSpace,
)
from repro.optimiser.fplan import FPlan, Step
from repro.query.equivalence import UnionFind
from repro.query.hypergraph import Hypergraph

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

#: Interned forests after which a shared :class:`ForestSpace` stops
#: growing (see :func:`space_for`); about 10 MB of states.
SPACE_STATE_CAP = 20_000


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
    attributes = tree.attributes()
    return {
        attr: members
        for members in uf.classes()
        for attr in members
        if attr in attributes
    }


#: What expanding one interned forest needs, decoded once: ``(label,
#: order, above, swaps)`` -- per atom the label mask of the node it
#: represents, the pre-order of the representatives, per atom the mask
#: of its ancestors, and the swaps as flat ``(parent, child, successor
#: id)`` triples in the pre-order of the child.  Plain tuples of ints,
#: which the garbage collector stops tracking.
Expansion = Tuple[
    Tuple[int, ...], Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]
]


class ForestSpace:
    """The goal-independent half of the f-plan search graph.

    Built once per input f-tree's atoms (its node labels and constant
    flags) and edges, and shared by every search from any f-tree over
    them: a forest's successors and its ``s(T)`` do not depend on the
    goal.  Each coded forest reached is interned once as an int id;
    per id the space keeps the asymptotic ``s(T)``, the
    :data:`Expansion` and, filled lazily per ``(left, right)`` pair,
    the merge and absorb successor ids.  Children of a node are kept in
    ascending representative order, which is the ``label_key`` order
    :class:`FTree` sorts them in (a merged label's smallest attribute
    is its lowest atom's), so pre-order walks -- and with them the
    order in which operators are proposed -- agree with the tree-level
    specification, :meth:`Step.transform_tree`.

    Interning holds a lock; everything filled in per id is a pure
    function of the id, so threads that race to fill the same slot
    write equal values.
    """

    def __init__(self, nodes: List[FNode], edges: Hypergraph) -> None:
        self.edges = edges
        self.coding = SearchSpace([node.label for node in nodes], edges)
        labels = self.coding.labels
        self.size = len(labels)
        #: Smallest attribute per atom: what a Step names a node by.
        self.names = [min(label) for label in labels]
        self._atom_of = {name: a for a, name in enumerate(self.names)}
        constant = {node.label for node in nodes if node.constant}
        self._constant = sum(
            1 << a for a, label in enumerate(labels) if label in constant
        )
        #: label mask -> mask of the atoms it depends on / its edge
        #: signature (``-1`` for constant nodes) / its attribute set.
        self._depends: Dict[int, int] = {}
        self._signature: Dict[int, int] = {}
        self._attributes: Dict[int, FrozenSet[str]] = {}
        #: state -> id, and per id: the state, and once first asked
        #: for, its ``s(T)`` and its :data:`Expansion`.
        self.ids: Dict[State, int] = {}
        self.states: List[State] = []
        self.costs: Dict[int, float] = {}
        self.expansions: Dict[int, Expansion] = {}
        #: (id, left, right) as ``(id * size + left) * size + right`` ->
        #: the id of the merge or absorb of ``left`` and ``right``.
        self._fused: Dict[int, int] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.states)

    # -- coding ---------------------------------------------------------------

    def encode(self, tree: FTree) -> State:
        """The code of an f-tree over (merges of) this space's atoms."""
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

    def intern(self, state: State) -> int:
        """The id of ``state``, numbering it if it is new."""
        number = self.ids.get(state)
        if number is None:
            with self._lock:
                number = self.ids.get(state)
                if number is None:
                    number = len(self.states)
                    self.states.append(state)
                    self.ids[state] = number  # published last
        return number

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
            labels = self.coding.labels
            attributes = self._attributes[label] = frozenset().union(
                *(labels[a] for a in range(self.size) if label >> a & 1)
            )
        return attributes

    # The two memos below are read inline by the hot loops
    # (``memo.get(label)``); these fill a missing entry.

    def _depends_on(self, label: int) -> int:
        """Mask of the atoms sharing a dependency edge with ``label``."""
        adjacent = self.coding.adjacent
        mask = 0
        rest = label
        while rest:
            low = rest & -rest
            mask |= adjacent[low.bit_length() - 1]
            rest ^= low
        self._depends[label] = mask
        return mask

    def _signature_of(self, label: int) -> int:
        """Edge signature of a node; ``-1`` for constant nodes."""
        merged = -1
        if label & ~self._constant:
            merged = 0
            for a, signature in enumerate(self.coding.signature):
                if label >> a & 1:
                    merged |= signature
        self._signature[label] = merged
        return merged

    # -- the search graph -----------------------------------------------------

    def expand(self, number: int) -> Expansion:
        """The :data:`Expansion` of forest ``number``.

        Swaps for every (parent, child) pair in pre-order; the merges
        and absorbs depend on the goal and are asked for one pair at a
        time (:meth:`fused`).
        """
        expansion = self.expansions.get(number)
        if expansion is not None:
            return expansion
        state = self.states[number]
        label, children, order = self._decode(state)
        size = self.size
        below = [0] * size  # label masks of whole subtrees
        for a in reversed(order):
            mask = label[a]
            for child in children[a]:
                mask |= below[child]
            below[a] = mask
        above = [0] * size  # masks of ancestor representatives
        swaps: List[int] = []
        depends_memo = self._depends.get
        for b in order:
            for child in children[b]:
                above[child] = above[b] | 1 << b
            a = state[b]
            if a < 0:
                continue
            # chi_{A,B}: B takes A's place with A below it; children of
            # B that depend on A follow A down, the rest stay with B.
            code = list(state)
            code[b] = state[a]
            code[a] = b
            depends = depends_memo(label[a])
            if depends is None:
                depends = self._depends_on(label[a])
            for child in children[b]:
                if depends & below[child]:
                    code[child] = a
            swaps += a, b, self.intern(tuple(code))
        expansion = self.expansions[number] = (
            tuple(label), tuple(order), tuple(above), tuple(swaps)
        )
        return expansion

    def fused(
        self, number: int, expansion: Expansion, left: int, right: int
    ) -> int:
        """The id of forest ``number`` (expanded to ``expansion``) with
        ``right`` merged into its sibling ``left`` (mu) or absorbed into
        its ancestor ``left`` (alpha) -- which one the forest's shape
        decides."""
        key = (number * self.size + left) * self.size + right
        successor = self._fused.get(key)
        if successor is None:
            state = self.states[number]
            label, order, _, _ = expansion
            if state[left] == state[right]:
                # mu_{A,B}: siblings fuse, children of both below.
                code = list(state)
                self._fuse(code, label, left, right)
            else:
                code = self._absorbed(state, label, order, left, right)
            successor = self._fused[key] = self.intern(tuple(code))
        return successor

    def _fuse(
        self, code: List[int], label: Sequence[int], keep: int, drop: int
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
        label: Sequence[int],
        order: Sequence[int],
        upper: int,
        lower: int,
    ) -> List[int]:
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
        depends_memo = self._depends.get
        below = [0] * self.size  # subtree masks of the placed children
        for b in reversed(order):
            if b == lower:
                continue
            if b == upper:
                b = keep
                mask = below[b] | fused
            else:
                mask = below[b] | label[b]
            parent = code[b]
            while parent >= 0:
                above = fused if parent == keep else label[parent]
                depends = depends_memo(above)
                if depends is None:
                    depends = self._depends_on(above)
                if mask & depends:
                    break
                parent = code[parent]
            code[b] = parent
            if parent >= 0:
                below[parent] |= mask
        return code

    def s(self, number: int) -> float:
        """``s(T)`` of forest ``number``, its worst root-to-leaf cover:
        computed, and kept in :attr:`costs` (callers look there
        first)."""
        state = self.states[number]
        label = [0] * self.size
        inner = 0  # representatives that have children
        for a, entry in enumerate(state):
            if entry < -1:
                label[-2 - entry] |= 1 << a
            else:
                label[a] |= 1 << a
                if entry >= 0:
                    inner |= 1 << entry
        signature_memo = self._signature.get
        worst = 0.0
        for leaf, entry in enumerate(state):
            if entry < -1 or inner >> leaf & 1:
                continue
            path = set()
            node = leaf
            while node >= 0:
                signature = signature_memo(label[node])
                if signature is None:
                    signature = self._signature_of(label[node])
                if signature > 0:
                    path.add(signature)
                elif signature == 0:
                    self.costs[number] = _UNCOVERED
                    return _UNCOVERED
                node = state[node]
            if path:
                value = SIGNATURE_COVERS.cover(frozenset(path))
                if value > worst:
                    worst = value
        self.costs[number] = worst
        return worst


def space_for(tree: FTree) -> ForestSpace:
    """The shared :class:`ForestSpace` of ``tree``'s atoms and edges.

    The key leaves the tree's shape out: atoms are numbered in
    ``label_key`` order, so every f-tree over the same labels, constant
    flags and edges codes its forests alike.  A space that has reached
    :data:`SPACE_STATE_CAP` stops growing: the search gets a private
    one, as every search did before spaces were shared.
    """
    nodes = list(tree.iter_nodes())
    key = (
        frozenset((node.label, node.constant) for node in nodes),
        tree.edges.key(),
    )
    space = FPLAN_SPACES.get(key)
    if space is None:
        space = ForestSpace(nodes, tree.edges)
        FPLAN_SPACES.put(key, space)
    elif len(space) >= SPACE_STATE_CAP:
        space = ForestSpace(nodes, tree.edges)
    return space


class CompactForests:
    """One search's goal over a shared :class:`ForestSpace`.

    The goal is the class partition the input tree's classes and the
    equalities force; only atoms of one goal class may merge.  States
    are the space's interned ids; :meth:`encode`, :meth:`s`,
    :meth:`is_goal` and :meth:`neighbours` also speak in codes, for the
    checks against the tree-level operators.
    """

    def __init__(
        self, tree: FTree, equalities: List[Tuple[str, str]]
    ) -> None:
        self.space = space = space_for(tree)
        self.names = space.names
        goal = target_partition(tree, equalities)
        classes: Dict[FrozenSet[str], int] = {}
        #: Goal class number per atom; only atoms of one class may merge.
        self.goal_of = [
            classes.setdefault(goal[name], len(classes))
            for name in space.names
        ]
        self.goal_size = len(classes)
        #: Per atom: mask of the atoms it must end up merged with.
        self._goal_label = [
            sum(
                1 << other
                for other in range(space.size)
                if self.goal_of[other] == number
            )
            for number in self.goal_of
        ]

    def encode(self, tree: FTree) -> State:
        return self.space.encode(tree)

    def materialise(self, state: State) -> FTree:
        return self.space.materialise(state)

    def s(self, state: State) -> float:
        space = self.space
        number = space.intern(state)
        cost = space.costs.get(number)
        return space.s(number) if cost is None else cost

    def is_goal(self, state: State) -> bool:
        """All equalities enforced: one node per goal class."""
        return sum(entry >= -1 for entry in state) == self.goal_size

    def successors(
        self, number: int, expansion: Expansion
    ) -> Iterator[Tuple[str, int, int, int]]:
        """``(kind, first, second, successor id)`` per operator from
        forest ``number``.

        Swaps for every (parent, child) pair in pre-order, then a merge
        or absorb for every pre-order pair of nodes that must end up
        merged ("any valid f-plan will only merge nodes which end up
        merged in T_final") and are siblings / ancestor and descendant.
        """
        label, order, above, swaps = expansion
        step = iter(swaps)
        for a, b, successor in zip(step, step, step):
            yield "swap", a, b, successor
        goal_label = self._goal_label
        unmerged = [a for a in order if label[a] != goal_label[a]]
        if len(unmerged) < 2:
            return
        goal_of = self.goal_of
        state = self.space.states[number]
        fused = self.space.fused
        for i, left in enumerate(unmerged):
            for right in unmerged[i + 1 :]:
                if goal_of[left] != goal_of[right]:
                    continue
                if state[left] == state[right]:
                    yield "merge", left, right, fused(
                        number, expansion, left, right
                    )
                elif above[right] >> left & 1:
                    yield "absorb", left, right, fused(
                        number, expansion, left, right
                    )

    def neighbours(self, state: State) -> Iterator[Tuple[Move, State]]:
        """All operator applications from ``state``, as codes."""
        space = self.space
        number = space.intern(state)
        for kind, a, b, successor in self.successors(
            number, space.expand(number)
        ):
            yield (kind, a, b), space.states[successor]


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
    below it).  The graph is walked over the interned forests of the
    input tree's shared :class:`ForestSpace`, so a follow-up from an
    f-tree searched before re-uses its states, their ``s(T)`` and their
    successors, and only the goal and the Dijkstra bookkeeping are this
    search's own.  F-trees are only built for the returned plan, whose
    constructor replays every step through :meth:`Step.transform_tree`
    -- the specification the coded operators are checked against on
    every call.

    With ``stats`` given, the *estimate-based* cost measure of
    Section 4.1 is used instead of the asymptotic one: the cost of a
    plan is the sum of the estimated representation sizes of the
    intermediate and final f-trees (an additive metric, equally
    Dijkstra-compatible).  The paper reports both measures "lead to
    very similar choices of optimal f-plans".  Estimates read
    ``stats``, so they are kept per search.

    Among equally good plans the choice is deterministic and part of
    the contract (``tests/data/optimiser_golden.json``): states leave
    the frontier by (cost, steps, order of discovery), and a state's
    first-found cheapest path is kept.
    """
    forests = CompactForests(tree, equalities)
    space = forests.space
    # A path costs the max of its states' s(T) (the bottleneck), or the
    # sum of their estimated sizes.
    additive = stats is not None
    if not additive:
        costs = space.costs
        measure = space.s
    else:
        costs = {}

        def measure(number: int) -> float:
            cost = costs[number] = estimate_representation_size(
                space.materialise(space.states[number]), stats
            )
            return cost

    tally = CoverTally()
    start = space.intern(space.encode(tree))
    start_cost = costs.get(start)
    if start_cost is None:
        start_cost = measure(start)

    #: id -> (bottleneck, steps-from-start)
    dist: Dict[int, Tuple[object, int]] = {start: (start_cost, 0)}
    #: id -> (predecessor id, kind, first, second)
    back: Dict[int, Tuple[int, str, int, int]] = {}
    counter = 0
    frontier: List[Tuple[object, int, int, int]] = [
        (start_cost, 0, counter, start)
    ]

    goals: List[Tuple[object, int]] = []
    best_goal_bottleneck = None
    expanded = 0
    generated = 0
    expand = space.expand
    successors = forests.successors
    goal_size = forests.goal_size

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
            expansion = expand(current)
            if len(expansion[1]) == goal_size:
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
            for kind, first, second, neighbour in successors(
                current, expansion
            ):
                generated += 1
                cost = costs.get(neighbour)
                if cost is None:
                    cost = measure(neighbour)
                if additive:
                    cost += bottleneck
                elif cost < bottleneck:
                    cost = bottleneck
                reached = (cost, steps + 1)
                known = dist.get(neighbour)
                if known is None or reached < known:
                    dist[neighbour] = reached
                    counter += 1
                    back[neighbour] = (current, kind, first, second)
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
        key=lambda number: (costs[number], dist[number][1]),
    )

    # Reconstruct the step sequence.
    steps_rev: List[Step] = []
    names = space.names
    number = final
    while number != start:
        number, kind, first, second = back[number]
        steps_rev.append(Step(kind, (names[first], names[second])))
    steps_rev.reverse()
    plan = FPlan(tree, steps_rev)
    assert space.encode(plan.output_tree) == space.states[final], (
        "coded operators disagree with Step.transform_tree"
    )
    return plan
