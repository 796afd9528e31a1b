"""Optimal f-tree search for a query over flat data (Experiment 1).

Finds, among all normalised f-trees of a query, one minimising the
size-bound parameter ``s(T)``.  The search exploits the recursive
structure of the space (see :mod:`repro.optimiser.ftree_space`) with
three accelerations that keep it fast at the paper's scale (A = 40
attributes, up to 8 relations, up to 9 equalities):

- **memoisation** on (component, ancestor-chain) pairs -- the cover of
  a leaf path depends only on the *set* of classes along it;
- **symmetry reduction**: classes covered by exactly the same edges
  are interchangeable, so only one per signature is tried as root;
- **branch & bound**: every subproblem is searched against a bound,
  the cost its caller must beat (the caller's incumbent), and starts
  its own incumbent there.  The cover is monotone in the class set
  and every class lies on some leaf path, so no subtree costs less
  than the largest partial-path cover of a single class: once the
  incumbent is at that floor, the remaining roots are pruned.  A root
  is also dropped as soon as one child subproblem reaches the
  incumbent.  A sub-search that cannot get below its bound memoises
  only that lower bound, which a later call with a higher bound
  searches again.

Covers themselves are decomposed into edge-connected groups before
hitting the LP (the cover of a disconnected class set is the sum of
its groups' covers), which both shrinks the LPs and multiplies cache
hits.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.ftree import FNode, FTree
from repro.costs.edge_cover import exact
from repro.optimiser.bitspace import COUNTERS, CoverTally, SearchSpace
from repro.query.hypergraph import Hypergraph
from repro.query.query import Query
from repro.relational.database import Database

Label = FrozenSet[str]

_INF = float("inf")

#: A searched subproblem: (cost, root bit, child components).  Root
#: bit 0 marks a lower bound: no subtree costs less than ``cost``.
_Solved = Tuple[float, int, Tuple[int, ...]]


class FTreeOptimiser:
    """Minimal-``s(T)`` normalised f-tree over given classes and edges.

    The search runs over the integer coding of
    :class:`~repro.optimiser.bitspace.SearchSpace`: a component or an
    ancestor chain is a bit mask over the classes in canonical order.
    Which of several equally cheap trees is returned is part of the
    contract (plan identity is pinned by
    ``tests/data/optimiser_golden.json``): candidate roots are tried in
    order of their partial-path cover, ties in canonical class order,
    and only a strictly cheaper root replaces the incumbent.

    >>> from repro.query.hypergraph import Hypergraph
    >>> opt = FTreeOptimiser(
    ...     [frozenset({"a"}), frozenset({"b"}), frozenset({"c"})],
    ...     Hypergraph([{"a", "b"}, {"b", "c"}]))
    >>> tree, cost = opt.optimise()
    >>> cost   # rooting at b gives paths {b,a} and {b,c}, each cover 1
    Fraction(1, 1)
    """

    def __init__(
        self,
        classes: Sequence[Label],
        edges: Hypergraph,
        time_budget: Optional[float] = None,
    ) -> None:
        """``time_budget`` (seconds) bounds the search: past the
        deadline the DP stops branching on root choices and commits to
        the first (best-lower-bound) candidate per component, turning
        into a greedy descent.  The returned tree is then possibly
        suboptimal but the call completes quickly -- benchmarks use
        this to keep pathological random instances bounded."""
        self.classes = [frozenset(c) for c in classes]
        self.edges = edges
        self.time_budget = time_budget
        self._deadline: Optional[float] = None
        self._space = SearchSpace(self.classes, edges)
        #: (component mask, ancestor mask) -> searched subproblem.
        self._memo: Dict[Tuple[int, int], _Solved] = {}
        self._pruned = 0

    def optimise(self) -> Tuple[FTree, Fraction]:
        """Return an optimal normalised f-tree and its ``s(T)``."""
        if self.time_budget is not None:
            self._deadline = time.perf_counter() + self.time_budget
        space = self._space
        tally = CoverTally()
        solved_before = len(self._memo)
        pruned_before = self._pruned
        roots: List[FNode] = []
        worst = 0.0
        try:
            for component in space.components(space.full):
                cost = self._best(component, 0)[0]
                roots.append(self._subtree(component, 0))
                if cost > worst:
                    worst = cost
        finally:
            COUNTERS.add(
                ftree_searches=1,
                ftree_subproblems=len(self._memo) - solved_before,
                ftree_pruned=self._pruned - pruned_before,
                **tally.counts(),
            )
        return FTree(roots, self.edges), exact(worst)

    def _subtree(self, component: int, ancestors: int) -> FNode:
        """Materialise the memoised winner of a solved subproblem."""
        _, root, parts = self._memo[(component, ancestors)]
        assert root, "only exact subproblems are materialised"
        path = ancestors | root
        return FNode(
            self._space.labels[root.bit_length() - 1],
            [self._subtree(part, path) for part in parts],
        )

    def _best(
        self, component: int, ancestors: int, bound: float = _INF
    ) -> _Solved:
        """Cheapest subtree over ``component`` below chain ``ancestors``
        if it costs less than ``bound``, else a lower bound >= ``bound``."""
        key = (component, ancestors)
        cached = self._memo.get(key)
        if cached is not None and (cached[1] or cached[0] >= bound):
            return cached

        space = self._space
        cover = space.cover
        signature = space.signature
        # One candidate root per edge signature (classes covered by the
        # same edges are interchangeable), scored by the partial-path
        # lower bound so good roots come first and the bound prunes
        # more.  Sorting (cover, bit) pairs keeps equal covers in
        # canonical class order.
        seen = set()
        scored: List[Tuple[float, int]] = []
        rest = component
        while rest:
            low = rest & -rest
            rest ^= low
            sig = signature[low.bit_length() - 1]
            if sig not in seen:
                seen.add(sig)
                scored.append((cover(ancestors | low), low))
        scored.sort()
        # Every class lies on some leaf path below ``ancestors``, so no
        # subtree over ``component`` costs less than the largest score.
        floor = scored[-1][0]
        if (
            self._deadline is not None
            and time.perf_counter() > self._deadline
        ):
            scored = scored[:1]  # greedy fallback past deadline
        best_cost = bound
        best_root = 0
        best_parts: Tuple[int, ...] = ()
        for tried, (lower, root) in enumerate(scored):
            if floor >= best_cost:
                # no remaining root can be strictly cheaper
                self._pruned += len(scored) - tried
                break
            remainder = component ^ root
            if not remainder:
                cost = lower
                parts: Tuple[int, ...] = ()
            else:
                path = ancestors | root
                parts = space.components(remainder)
                cost = 0.0
                pruned = False
                for part in parts:
                    part_cost = self._best(part, path, best_cost)[0]
                    if part_cost > cost:
                        cost = part_cost
                    if cost >= best_cost:
                        pruned = True
                        break
                if pruned:
                    self._pruned += 1
                    continue
            if cost < best_cost:
                best_cost, best_root, best_parts = cost, root, parts
        solved = self._memo[key] = (best_cost, best_root, best_parts)
        return solved


def query_classes_and_edges(
    database: Database, query: Query
) -> Tuple[List[Label], Hypergraph]:
    """Attribute classes and dependency edges of a query over a schema."""
    attrs: List[str] = []
    for name in query.relations:
        attrs.extend(database[name].attributes)
    classes = query.attribute_classes(attrs)
    edges = Hypergraph(
        frozenset(database[name].attributes) for name in query.relations
    )
    return [frozenset(c) for c in classes], edges


def optimal_ftree(
    database: Database, query: Query
) -> Tuple[FTree, Fraction]:
    """Optimal f-tree of ``query``'s result over ``database``'s schema.

    The classes are those of *all* attributes of the joined relations
    (projection is applied after factorisation, cf. Section 3.4), and
    the dependency edges are the relation schemas.
    """
    classes, edges = query_classes_and_edges(database, query)
    return FTreeOptimiser(classes, edges).optimise()
