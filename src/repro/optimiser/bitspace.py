"""Integer coding of the optimisers' search spaces.

Both searches of Section 4 walk spaces whose points are *sets of
attribute classes*: the f-tree DP memoises on (component, ancestor
chain) pairs, the f-plan Dijkstra on forests of labelled nodes.  Coded
as nested ``frozenset``s of attribute names, every step re-sorts and
re-hashes strings; coded as integers, the same step is a handful of
``&`` / ``|`` on machine words.  A :class:`SearchSpace` does the coding
once per query:

- the node labels are numbered in their canonical order (``label_key``,
  the order f-trees already sort children by), so "ascending bit" and
  "sorted by label" are the same order and every tie the set-based
  searches broke by name is broken identically by bit position;
- a set of labels is an ``int`` mask; per label the space precomputes
  its *signature* (mask of the dependency edges covering it) and its
  *adjacency* (mask of the labels it shares an edge with);
- :meth:`~SearchSpace.components` is a flood fill over adjacency masks
  and :meth:`~SearchSpace.cover` the fractional edge cover number, both
  memoised per mask; covers fall through to the process-wide
  signature-keyed LP memo of :mod:`repro.costs.edge_cover`, as floats.

:data:`COUNTERS` is the ``optimiser`` metrics namespace: each search
accumulates plain ints and flushes them here once, at its end.
:data:`FPLAN_SPACES` holds the f-plan search graphs that outlive one
search (:class:`repro.optimiser.exhaustive.ForestSpace`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.cache import LRUCache
from repro.core.ftree import label_key
from repro.costs.edge_cover import SIGNATURE_COVERS
from repro.obs.metrics import Tally
from repro.query.hypergraph import Hypergraph

Label = FrozenSet[str]


#: The ``optimiser`` metrics namespace, registered by every
#: :class:`~repro.service.session.QuerySession`: process-wide tallies
#: of optimiser work (one per process/worker).  ``ftree_subproblems``
#: counts the distinct (component, ancestor chain) pairs an f-tree
#: search entered, solved exactly or only bounded below by the
#: caller's incumbent; ``ftree_pruned`` counts the candidate roots it
#: dropped, untried because no root could beat the incumbent any more
#: or abandoned when one child subproblem reached it.  Everything but
#: the two ``cover_*`` counts is a deterministic function of the
#: searches run: it repeats exactly for a fixed query, so a change in
#: ``fplan_states_expanded`` means a different search, not a noisy
#: machine.  The cover counts depend on how warm the process-wide LP
#: memo was.
COUNTERS = Tally(
    (
        "ftree_searches",
        "ftree_subproblems",
        "ftree_pruned",
        "fplan_searches",
        "fplan_states_expanded",
        "fplan_states_generated",
        "cover_lp_solves",
        "cover_memo_hits",
    )
)


#: Input f-trees whose f-plan search graph the process keeps: the
#: goal-independent half of every search from one tree (per process /
#: worker; cleared with the cover memo by
#: :func:`repro.costs.cost_model.clear_cover_cache`).  A space holds
#: about half a kilobyte per state, at most
#: :data:`~repro.optimiser.exhaustive.SPACE_STATE_CAP` states.
FPLAN_SPACE_CAPACITY = 32

#: ``(atoms, edges)`` key -> :class:`~repro.optimiser.exhaustive.ForestSpace`.
FPLAN_SPACES = LRUCache(capacity=FPLAN_SPACE_CAPACITY)


def counters() -> Dict[str, int]:
    """The ``optimiser`` collector: :data:`COUNTERS` plus memo gauges.

    The gauges are the cover memo's and the f-plan spaces' occupancy
    and lifetime LRU counts; none of them is a function of the searches
    alone, so they stay out of the :data:`COUNTERS` tally.
    """
    return dict(
        COUNTERS.snapshot(),
        cover_memo_size=len(SIGNATURE_COVERS),
        cover_memo_drops=SIGNATURE_COVERS.drops,
        fplan_spaces=len(FPLAN_SPACES),
        fplan_space_states=sum(len(space) for space in FPLAN_SPACES.values()),
        fplan_space_hits=FPLAN_SPACES.hits,
        fplan_space_misses=FPLAN_SPACES.misses,
        fplan_space_evictions=FPLAN_SPACES.evictions,
    )


class CoverTally:
    """Cover-memo activity between construction and :meth:`counts`.

    Deltas of the process-wide memo's lifetime tallies; with searches
    running concurrently in other threads they are attributed to
    whichever search reads them first.
    """

    __slots__ = ("_solves", "_hits")

    def __init__(self) -> None:
        self._solves = SIGNATURE_COVERS.solves
        self._hits = SIGNATURE_COVERS.hits

    def counts(self) -> Dict[str, int]:
        return {
            "cover_lp_solves": SIGNATURE_COVERS.solves - self._solves,
            "cover_memo_hits": SIGNATURE_COVERS.hits - self._hits,
        }


class SearchSpace:
    """Labels and dependency edges of one optimiser run, as integers.

    ``labels`` are disjoint attribute sets (query classes, or the node
    labels of an input f-tree); bit ``i`` of every mask stands for
    ``labels[i]``, numbered in ``label_key`` order.

    >>> space = SearchSpace(
    ...     [frozenset("c"), frozenset("a"), frozenset("b")],
    ...     Hypergraph([{"a", "b"}, {"c"}]))
    >>> [sorted(label) for label in space.labels]
    [['a'], ['b'], ['c']]
    >>> space.components(0b111)     # {a, b} share an edge, {c} is alone
    (3, 4)
    >>> space.cover(0b111)
    2.0
    """

    __slots__ = (
        "labels",
        "full",
        "signature",
        "adjacent",
        "_components",
        "_covers",
    )

    def __init__(self, labels: Sequence[Label], edges: Hypergraph) -> None:
        self.labels: Tuple[Label, ...] = tuple(
            sorted(labels, key=label_key)
        )
        #: Mask of all labels.
        self.full = (1 << len(self.labels)) - 1
        #: Per label: mask of the edges (numbered in ``Hypergraph.key``
        #: order) that share an attribute with it.
        self.signature: List[int] = [0] * len(self.labels)
        #: Per label: mask of the labels some edge covers together with
        #: it (itself included, once any edge covers it) -- the
        #: paper's *dependence* relation.
        self.adjacent: List[int] = [0] * len(self.labels)
        bit_of = {
            attr: i for i, label in enumerate(self.labels) for attr in label
        }
        for number, edge in enumerate(edges.key()):
            touched = 0
            for attr in edge:
                i = bit_of.get(attr)
                if i is not None:
                    touched |= 1 << i
            rest = touched
            while rest:
                low = rest & -rest
                i = low.bit_length() - 1
                self.signature[i] |= 1 << number
                self.adjacent[i] |= touched
                rest ^= low
        self._components: Dict[int, Tuple[int, ...]] = {}
        self._covers: Dict[int, float] = {}

    def components(self, mask: int) -> Tuple[int, ...]:
        """Edge-connected components of the label set ``mask``.

        Same grouping as :meth:`Hypergraph.components` over the labels
        of ``mask`` in canonical order; the groups come ordered by
        their lowest bit, i.e. by their first label.
        """
        cached = self._components.get(mask)
        if cached is not None:
            return cached
        adjacent = self.adjacent
        groups: List[int] = []
        rest = mask
        while rest:
            group = frontier = rest & -rest
            while frontier:
                low = frontier & -frontier
                reached = adjacent[low.bit_length() - 1] & rest & ~group
                group |= reached
                frontier = (frontier ^ low) | reached
            groups.append(group)
            rest ^= group
        out = self._components[mask] = tuple(groups)
        return out

    def cover(self, mask: int) -> float:
        """Fractional edge cover number of the label set ``mask``.

        Raises :class:`~repro.costs.edge_cover.CoverError` when a label
        has no covering edge, as :func:`~repro.costs.path_cover` does.
        """
        value = self._covers.get(mask)
        if value is not None:
            return value
        signature = self.signature
        distinct = set()
        rest = mask
        while rest:
            low = rest & -rest
            distinct.add(signature[low.bit_length() - 1])
            rest ^= low
        value = self._covers[mask] = SIGNATURE_COVERS.cover(
            frozenset(distinct)
        )
        return value
