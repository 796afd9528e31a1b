"""Hypergraphs over attributes / attribute classes.

The paper derives the valid f-trees of a query from a hypergraph whose
vertices are attribute equivalence classes and whose hyperedges are the
schemas of the relations occurring in the query (Section 2).  Both the
path constraint (Proposition 1) and the fractional edge cover number
underlying ``s(T)`` are defined on this hypergraph.

Edges are stored at *attribute* granularity (frozensets of attribute
names).  A node of an f-tree is labelled by a set of attributes; an edge
"touches" a node if it shares at least one attribute with the label.
This attribute-level view is what lets projections install phantom
edges (see :mod:`repro.ops.project`) without rewriting node labels.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

Edge = FrozenSet[str]


class Hypergraph:
    """An immutable multiset-free hypergraph over attribute names."""

    __slots__ = ("_edges", "_key")

    def __init__(self, edges: Iterable[AbstractSet[str]] = ()) -> None:
        self._edges: FrozenSet[Edge] = frozenset(
            frozenset(edge) for edge in edges if edge
        )
        self._key: Optional[Tuple[Tuple[str, ...], ...]] = None

    @property
    def edges(self) -> FrozenSet[Edge]:
        return self._edges

    def key(self) -> Tuple[Tuple[str, ...], ...]:
        """Canonical form: sorted edges of sorted attributes (cached --
        every f-tree over these edges embeds it in its own key)."""
        if self._key is None:
            self._key = tuple(
                sorted(tuple(sorted(edge)) for edge in self._edges)
            )
        return self._key

    def __iter__(self) -> Iterator[Edge]:
        return iter(self._edges)

    def __len__(self) -> int:
        return len(self._edges)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Hypergraph) and self._edges == other._edges

    def __hash__(self) -> int:
        return hash(self._edges)

    def __repr__(self) -> str:
        parts = sorted("{" + ",".join(sorted(e)) + "}" for e in self._edges)
        return f"Hypergraph([{', '.join(parts)}])"

    def attributes(self) -> FrozenSet[str]:
        """All attributes mentioned by at least one edge."""
        out: Set[str] = set()
        for edge in self._edges:
            out |= edge
        return frozenset(out)

    def edges_touching(self, label: AbstractSet[str]) -> List[Edge]:
        """Edges sharing at least one attribute with ``label``."""
        return [edge for edge in self._edges if edge & label]

    def touches(self, left: AbstractSet[str], right: AbstractSet[str]) -> bool:
        """True iff a single edge intersects both attribute sets.

        This is the paper's *dependence* test: two (sets of) nodes are
        dependent when one relation has attributes in both.
        """
        for edge in self._edges:
            if edge & left and edge & right:
                return True
        return False

    def restrict(self, attributes: AbstractSet[str]) -> "Hypergraph":
        """Project every edge onto ``attributes``, dropping empty edges."""
        return Hypergraph(edge & attributes for edge in self._edges)

    def without_attributes(self, attributes: AbstractSet[str]) -> "Hypergraph":
        """Remove ``attributes`` from every edge (for constant nodes)."""
        return Hypergraph(edge - attributes for edge in self._edges)

    def merge_edges_touching(
        self, attributes: AbstractSet[str]
    ) -> "Hypergraph":
        """Fuse all edges meeting ``attributes`` into one phantom edge.

        Used by projection (Section 3.4): when a node whose attributes
        are all projected away is removed, the relations that contained
        those attributes induce a joint dependency among their remaining
        attributes.  The phantom edge is their union minus the removed
        attributes.
        """
        touched = [edge for edge in self._edges if edge & attributes]
        untouched = [edge for edge in self._edges if not (edge & attributes)]
        if not touched:
            return self
        phantom: Set[str] = set()
        for edge in touched:
            phantom |= edge
        phantom -= set(attributes)
        edges: List[AbstractSet[str]] = list(untouched)
        if phantom:
            edges.append(phantom)
        return Hypergraph(edges)

    def components(
        self, labels: Sequence[FrozenSet[str]]
    ) -> List[Tuple[FrozenSet[str], ...]]:
        """Partition node ``labels`` into edge-connected components.

        Two labels are connected when one edge intersects both.  The
        result is a list of components, each a tuple of labels in the
        input order; components themselves are ordered by their first
        member's position, so the output is deterministic.
        """
        index: Dict[int, int] = {i: i for i in range(len(labels))}

        def find(i: int) -> int:
            while index[i] != i:
                index[i] = index[index[i]]
                i = index[i]
            return i

        def union(i: int, j: int) -> None:
            ri, rj = find(i), find(j)
            if ri != rj:
                index[max(ri, rj)] = min(ri, rj)

        for edge in self._edges:
            touched = [i for i, lab in enumerate(labels) if edge & lab]
            for other in touched[1:]:
                union(touched[0], other)

        groups: Dict[int, List[FrozenSet[str]]] = {}
        order: List[int] = []
        for i, lab in enumerate(labels):
            root = find(i)
            if root not in groups:
                groups[root] = []
                order.append(root)
            groups[root].append(lab)
        return [tuple(groups[root]) for root in order]

    def is_chain(
        self,
        nodes: Sequence[FrozenSet[str]],
        ancestors: Dict[FrozenSet[str], Sequence[FrozenSet[str]]],
    ) -> bool:
        """True iff ``nodes`` lie on one root-to-leaf path.

        ``ancestors`` maps each label to the chain of its ancestors (in
        root-first order).  A set of nodes lies on a single path iff
        they are pairwise comparable under the ancestor order, i.e. the
        deepest of them has all others among its ancestors.
        """
        if len(nodes) <= 1:
            return True
        deepest = max(nodes, key=lambda lab: len(ancestors[lab]))
        chain = set(ancestors[deepest])
        chain.add(deepest)
        return all(node in chain for node in nodes)
