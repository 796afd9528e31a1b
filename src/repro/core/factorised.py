"""The user-facing factorised relation: an f-tree plus its arena.

A :class:`FactorisedRelation` bundles an :class:`~repro.core.ftree.
FTree` with the :class:`~repro.core.arena.ArenaRep` over it (``None``
encodes the empty relation) and offers the logical-layer view of
Section 1: the relation *is* a relation -- it can be enumerated,
counted, aggregated, compared and exported flat -- while the physical
layer stays factorised.  The arena is the one physical representation
the engine builds, restructures, stores and ships; every method below
runs on its columns.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.core import aggregate
from repro.core import arena as arena_mod
from repro.core.arena import ArenaRep
from repro.core.expr import Empty, Expression, expression_of
from repro.core.ftree import FTree
from repro.relational.relation import Relation


class FactorisedRelation:
    """A relation stored factorised over an f-tree.

    >>> from repro.core.build import factorise
    >>> from repro.core.ftree import FTree
    >>> from repro.relational.relation import Relation
    >>> r = Relation.from_rows("R", ("a", "b"), [(1, 1), (1, 2), (2, 2)])
    >>> tree = FTree.from_nested([("a", [("b", [])])], [{"a", "b"}])
    >>> fr = FactorisedRelation(tree, factorise([r], tree))
    >>> fr.count()
    3
    >>> fr.size()  # 2 a-singletons + 3 b-singletons
    5
    """

    __slots__ = ("tree", "rep")

    def __init__(self, tree: FTree, rep: Optional[ArenaRep]) -> None:
        self.tree = tree
        self.rep = rep

    # -- relational view -----------------------------------------------------

    @property
    def attributes(self) -> Tuple[str, ...]:
        """Attributes in canonical (sorted) order."""
        return tuple(sorted(self.tree.attributes()))

    def is_empty(self) -> bool:
        return self.rep is None

    def size(self) -> int:
        """Representation size ``|E|``: the number of singletons."""
        return arena_mod.representation_size(self.rep)

    def count(self) -> int:
        """Number of represented tuples, without enumeration."""
        return arena_mod.tuple_count(self.rep)

    def flat_data_elements(self) -> int:
        """Size of the *flat* equivalent in data elements: #tuples x
        #attributes, the unit Figures 7 and 8 use for the relational
        engines."""
        return self.count() * len(self.tree.attributes())

    def __iter__(self) -> Iterator[Dict[str, object]]:
        return arena_mod.iter_assignments(self.rep)

    def rows(
        self, attributes: Optional[Sequence[str]] = None
    ) -> Iterator[tuple]:
        """Iterate tuples projected onto ``attributes`` (default all)."""
        order = self.attributes if attributes is None else tuple(attributes)
        return arena_mod.iter_rows(self.rep, order)

    def to_relation(self, name: str = "flat") -> Relation:
        """Materialise the flat relation (use with care on big data)."""
        return Relation.from_rows(name, self.attributes, self.rows())

    def to_expression(self) -> Expression:
        """The Definition-1 expression AST of this representation."""
        if self.rep is None:
            return Empty(self.tree.attributes())
        return expression_of(self.rep)

    # -- aggregates (computed without enumeration) -----------------------------

    def sum(self, attribute: str) -> float:
        """``SUM(attribute)`` over all represented tuples."""
        return aggregate.sum_of(self.rep, attribute)

    def avg(self, attribute: str) -> Optional[float]:
        """``AVG(attribute)``; ``None`` on the empty relation."""
        return aggregate.average(self.rep, attribute)

    def min(self, attribute: str):
        """``MIN(attribute)``; ``None`` on the empty relation."""
        return aggregate.extreme(self.rep, attribute, minimum=True)

    def max(self, attribute: str):
        """``MAX(attribute)``; ``None`` on the empty relation."""
        return aggregate.extreme(self.rep, attribute, minimum=False)

    def count_distinct(self, attribute: str) -> int:
        """``COUNT(DISTINCT attribute)``."""
        return aggregate.count_distinct(self.rep, attribute)

    def group_count(self, attribute: str):
        """``GROUP BY attribute`` with ``COUNT(*)`` per group."""
        return aggregate.group_count(self.rep, attribute)

    # -- comparisons and checks ----------------------------------------------

    def same_relation(self, other: "FactorisedRelation") -> bool:
        """Do both factorisations represent the same relation?"""
        if set(self.attributes) != set(other.attributes):
            return False
        mine = set(self.rows())
        theirs = set(other.rows(self.attributes))
        return mine == theirs

    def equals_flat(self, relation: Relation) -> bool:
        """Does this factorisation represent exactly ``relation``?"""
        if set(self.attributes) != set(relation.attributes):
            return False
        order = self.attributes
        perm = [relation.schema.index_of(a) for a in order]
        flat = {tuple(row[i] for i in perm) for row in relation}
        return set(self.rows(order)) == flat

    def validate(self) -> "FactorisedRelation":
        """Check all structural invariants; returns self for chaining."""
        arena_mod.validate_tree(self.tree)
        arena_mod.validate_arena(self.tree, self.rep)
        return self

    # -- display ---------------------------------------------------------------

    def pretty(self, unicode_glyphs: bool = True) -> str:
        """Render as a Definition-1 expression string."""
        return self.to_expression().to_text(unicode_glyphs)

    def __repr__(self) -> str:
        return (
            f"FactorisedRelation(attrs={list(self.attributes)}, "
            f"size={self.size()}, tuples={self.count()})"
        )

    def copy(self) -> "FactorisedRelation":
        rep = self.rep
        return FactorisedRelation(
            self.tree, None if rep is None else rep.copy()
        )
