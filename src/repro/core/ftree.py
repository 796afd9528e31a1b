"""Factorisation trees (f-trees), Definition 2 of the paper.

An f-tree over a schema is an unordered rooted forest whose nodes are
labelled by disjoint, non-empty attribute sets (the attribute
equivalence classes of a query) such that every attribute labels
exactly one node.  The f-tree prescribes the nesting structure of an
f-representation: root values are factored out first, branching into
subtrees denotes a product of independent sub-representations.

Alongside the shape, an :class:`FTree` carries the *dependency
hypergraph*: one hyperedge per input relation (plus phantom edges
introduced by projection, and minus attributes bound to constants).
The hypergraph drives the two structural notions of the paper:

- the **path constraint** (Proposition 1): for every edge, the nodes it
  touches must lie on one root-to-leaf path;
- **dependence** between nodes, which gates the push-up/swap operators
  and defines normalisation (Definition 3).

F-trees are immutable and canonically ordered (children sorted by
label), so they can be hashed and used as vertices of the optimiser's
search graph (Section 4.2).
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

from repro.query.hypergraph import Hypergraph

Label = FrozenSet[str]


class FTreeError(ValueError):
    """Raised for malformed f-trees or illegal node references."""


def label_key(label: AbstractSet[str]) -> Tuple[str, ...]:
    """Canonical sort key of a node label."""
    return tuple(sorted(label))


class FNode:
    """An immutable f-tree node: a label plus ordered children.

    ``constant`` marks nodes bound to a single value by an equality
    selection with a constant (Section 3.3): such nodes are ignored by
    the cost parameter ``s(T)`` and are independent of everything
    (their attributes are removed from the dependency edges).
    """

    __slots__ = ("label", "children", "constant", "_key")

    def __init__(
        self,
        label: AbstractSet[str],
        children: Sequence["FNode"] = (),
        constant: bool = False,
    ) -> None:
        if not label:
            raise FTreeError("node label must be non-empty")
        self.label: Label = frozenset(label)
        self.children: Tuple[FNode, ...] = tuple(
            sorted(children, key=lambda n: label_key(n.label))
        )
        self.constant = constant
        self._key: Optional[tuple] = None

    def key(self) -> tuple:
        """Canonical hashable key of the subtree."""
        if self._key is None:
            self._key = (
                label_key(self.label),
                self.constant,
                tuple(child.key() for child in self.children),
            )
        return self._key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FNode) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        mark = "=const" if self.constant else ""
        return f"FNode({{{','.join(sorted(self.label))}}}{mark})"

    def subtree_attributes(self) -> FrozenSet[str]:
        """All attributes in this node's subtree (including itself)."""
        out: Set[str] = set(self.label)
        for child in self.children:
            out |= child.subtree_attributes()
        return frozenset(out)

    def iter_nodes(self) -> Iterator["FNode"]:
        """Pre-order traversal of the subtree."""
        yield self
        for child in self.children:
            yield from child.iter_nodes()

    def with_children(self, children: Sequence["FNode"]) -> "FNode":
        return FNode(self.label, children, self.constant)

    def with_label(self, label: AbstractSet[str]) -> "FNode":
        return FNode(label, self.children, self.constant)

    def as_constant(self) -> "FNode":
        return FNode(self.label, self.children, True)


class FTree:
    """An immutable forest of :class:`FNode` plus dependency edges."""

    __slots__ = ("roots", "edges", "_by_attr", "_parents", "_key")

    def __init__(
        self,
        roots: Sequence[FNode],
        edges: Hypergraph,
    ) -> None:
        self.roots: Tuple[FNode, ...] = tuple(
            sorted(roots, key=lambda n: label_key(n.label))
        )
        self.edges = edges
        self._by_attr: Optional[Dict[str, FNode]] = None
        self._parents: Optional[Dict[Label, Optional[FNode]]] = None
        self._key: Optional[tuple] = None
        seen: Set[str] = set()
        for node in self.iter_nodes():
            overlap = seen & node.label
            if overlap:
                raise FTreeError(
                    f"attributes {sorted(overlap)} label more than one node"
                )
            seen |= node.label

    # -- construction helpers ---------------------------------------------

    @staticmethod
    def from_nested(
        spec: Sequence[object], edges: Iterable[AbstractSet[str]] = ()
    ) -> "FTree":
        """Build from a nested spec, mainly for tests and examples.

        Each tree is ``(label, [children...])`` where ``label`` is an
        attribute name, an iterable of names, or a set; e.g.::

            FTree.from_nested(
                [("item", [("oid", []), ("loc", [("disp", [])])])],
                edges=[{"oid", "item"}, {"loc", "item"}, {"disp", "loc"}],
            )
        """

        def build(node_spec: object) -> FNode:
            label, children = node_spec  # type: ignore[misc]
            if isinstance(label, str):
                label_set: AbstractSet[str] = {label}
            else:
                label_set = set(label)
            return FNode(label_set, [build(c) for c in children])

        return FTree([build(s) for s in spec], Hypergraph(edges))

    # -- basic access -------------------------------------------------------

    def iter_nodes(self) -> Iterator[FNode]:
        for root in self.roots:
            yield from root.iter_nodes()

    def attributes(self) -> FrozenSet[str]:
        out: Set[str] = set()
        for node in self.iter_nodes():
            out |= node.label
        return frozenset(out)

    def labels(self) -> List[Label]:
        return [node.label for node in self.iter_nodes()]

    def class_partition(self) -> FrozenSet[Label]:
        """The node labels as a canonical partition of the attributes."""
        return frozenset(node.label for node in self.iter_nodes())

    def _index(self) -> None:
        if self._by_attr is not None:
            return
        by_attr: Dict[str, FNode] = {}
        parents: Dict[Label, Optional[FNode]] = {}

        def walk(node: FNode, parent: Optional[FNode]) -> None:
            parents[node.label] = parent
            for attr in node.label:
                by_attr[attr] = node
            for child in node.children:
                walk(child, node)

        for root in self.roots:
            walk(root, None)
        self._by_attr = by_attr
        self._parents = parents

    def node_of(self, attribute: str) -> FNode:
        """The unique node whose label contains ``attribute``."""
        self._index()
        assert self._by_attr is not None
        try:
            return self._by_attr[attribute]
        except KeyError:
            raise FTreeError(
                f"attribute {attribute!r} not in this f-tree"
            ) from None

    def parent_of(self, node: FNode) -> Optional[FNode]:
        """Parent node, or ``None`` for roots."""
        self._index()
        assert self._parents is not None
        try:
            return self._parents[node.label]
        except KeyError:
            raise FTreeError(f"node {node!r} not in this f-tree") from None

    def ancestors(self, node: FNode) -> List[FNode]:
        """Ancestors of ``node``, root first (excluding the node)."""
        chain: List[FNode] = []
        parent = self.parent_of(node)
        while parent is not None:
            chain.append(parent)
            parent = self.parent_of(parent)
        chain.reverse()
        return chain

    def is_ancestor(self, upper: FNode, lower: FNode) -> bool:
        return any(a.label == upper.label for a in self.ancestors(lower))

    def root_to_leaf_paths(self) -> List[List[FNode]]:
        """All root-to-leaf node paths (each a list, root first)."""
        paths: List[List[FNode]] = []

        def walk(node: FNode, prefix: List[FNode]) -> None:
            current = prefix + [node]
            if not node.children:
                paths.append(current)
            for child in node.children:
                walk(child, current)

        for root in self.roots:
            walk(root, [])
        return paths

    # -- dependence and the path constraint ---------------------------------

    def depends(
        self, left: AbstractSet[str], right: AbstractSet[str]
    ) -> bool:
        """True iff one dependency edge touches both attribute sets."""
        return self.edges.touches(left, right)

    def node_depends_on_subtree(self, node: FNode, subtree: FNode) -> bool:
        """Dependence between ``node``'s label and ``subtree``'s attributes.

        This is the gate of the push-up operator: a child ``B`` of ``A``
        may be pushed up iff ``A`` is *not* dependent on ``B`` or its
        descendants (Section 3.1).
        """
        return self.depends(node.label, subtree.subtree_attributes())

    def satisfies_path_constraint(self) -> bool:
        """Proposition 1: every edge's nodes lie on one path."""
        self._index()
        ancestors_of: Dict[Label, List[Label]] = {}
        for node in self.iter_nodes():
            ancestors_of[node.label] = [
                a.label for a in self.ancestors(node)
            ]
        for edge in self.edges:
            touched = [
                node.label
                for node in self.iter_nodes()
                if edge & node.label
            ]
            if len(touched) <= 1:
                continue
            deepest = max(touched, key=lambda lab: len(ancestors_of[lab]))
            chain = set(ancestors_of[deepest])
            chain.add(deepest)
            if not all(lab in chain for lab in touched):
                return False
        return True

    def pushable(self, node: FNode) -> bool:
        """Can ``node`` (a non-root) be pushed above its parent?"""
        parent = self.parent_of(node)
        if parent is None:
            return False
        return not self.node_depends_on_subtree(parent, node)

    def is_normalised(self) -> bool:
        """Definition 3: no node can be pushed up."""
        return not any(
            self.pushable(node)
            for node in self.iter_nodes()
            if self.parent_of(node) is not None
        )

    # -- identity ------------------------------------------------------------

    def key(self) -> tuple:
        if self._key is None:
            self._key = (
                tuple(root.key() for root in self.roots),
                self.edges.key(),
            )
        return self._key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FTree) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"FTree({self.pretty_inline()})"

    # -- display -------------------------------------------------------------

    def pretty_inline(self) -> str:
        """One-line rendering: ``{a}({b}, {c}({d}))``."""

        def render(node: FNode) -> str:
            label = "{" + ",".join(sorted(node.label)) + "}"
            if node.constant:
                label += "=c"
            if not node.children:
                return label
            inner = ", ".join(render(c) for c in node.children)
            return f"{label}({inner})"

        return " | ".join(render(root) for root in self.roots)

    def pretty(self) -> str:
        """Multi-line ASCII rendering of the forest."""
        lines: List[str] = []

        def render(node: FNode, indent: str) -> None:
            label = ",".join(sorted(node.label))
            if node.constant:
                label += " (const)"
            lines.append(f"{indent}{label}")
            for child in node.children:
                render(child, indent + "  ")

        for root in self.roots:
            render(root, "")
        return "\n".join(lines)

    # -- structural editing (used by the operators) --------------------------

    def with_roots(self, roots: Sequence[FNode]) -> "FTree":
        return FTree(roots, self.edges)

    def with_edges(self, edges: Hypergraph) -> "FTree":
        return FTree(self.roots, edges)

    def replace_node(
        self, target: Label, replacements: Sequence[FNode]
    ) -> "FTree":
        """Replace the node labelled ``target`` by ``replacements``.

        The replacements are spliced into the position of the target in
        its parent's child list (or the root forest); an empty sequence
        removes the node (its subtree goes with it).
        """
        found = [False]

        def rebuild(node: FNode) -> List[FNode]:
            if node.label == target:
                found[0] = True
                return list(replacements)
            new_children: List[FNode] = []
            for child in node.children:
                new_children.extend(rebuild(child))
            return [node.with_children(new_children)]

        new_roots: List[FNode] = []
        for root in self.roots:
            new_roots.extend(rebuild(root))
        if not found[0]:
            raise FTreeError(f"no node labelled {sorted(target)}")
        return FTree(new_roots, self.edges)
