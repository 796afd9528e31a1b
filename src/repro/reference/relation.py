""":class:`ObjectRelation`: an f-tree plus an object representation over
it (``None`` encodes the empty relation) -- what
:class:`repro.core.factorised.FactorisedRelation` was while it could
hold ``ProductRep`` data, with the same logical view computed by the
recursive walkers of this package.  :func:`to_object` /
:func:`from_object` cross to and from the engine's relation.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FTree
from repro.reference import aggregate
from repro.reference.convert import from_product, to_product
from repro.reference.frep import ProductRep
from repro.reference.walkers import (
    Assignment,
    data_elements,
    iter_assignments,
    iter_rows,
    representation_size,
    tuple_count,
    validate_relation,
)


class ObjectRelation:
    """A relation stored as ``ProductRep``/``UnionRep`` objects over an
    f-tree.

    >>> from repro.core.ftree import FTree
    >>> from repro.reference.build import factorise
    >>> from repro.relational.relation import Relation
    >>> r = Relation.from_rows("R", ("a", "b"), [(1, 1), (1, 2), (2, 2)])
    >>> tree = FTree.from_nested([("a", [("b", [])])], [{"a", "b"}])
    >>> fr = ObjectRelation(tree, factorise([r], tree))
    >>> (fr.count(), fr.size())
    (3, 5)
    """

    __slots__ = ("tree", "data")

    def __init__(self, tree: FTree, data: Optional[ProductRep]) -> None:
        self.tree = tree
        self.data = data

    @property
    def attributes(self) -> Tuple[str, ...]:
        """Attributes in canonical (sorted) order."""
        return tuple(sorted(self.tree.attributes()))

    def is_empty(self) -> bool:
        return self.data is None

    def size(self) -> int:
        """Representation size ``|E|``: the number of singletons."""
        return representation_size(self.tree.roots, self.data)

    def count(self) -> int:
        """Number of represented tuples, without enumeration."""
        return tuple_count(self.tree.roots, self.data)

    def flat_data_elements(self) -> int:
        """Size of the *flat* equivalent in data elements."""
        return data_elements(self.tree.roots, self.data)

    def __iter__(self) -> Iterator[Assignment]:
        return iter_assignments(self.tree.roots, self.data)

    def rows(
        self, attributes: Optional[Sequence[str]] = None
    ) -> Iterator[tuple]:
        """Iterate tuples projected onto ``attributes`` (default all)."""
        order = self.attributes if attributes is None else tuple(attributes)
        return iter_rows(self.tree.roots, self.data, order)

    def sum(self, attribute: str) -> float:
        return aggregate.sum_of(self.tree.roots, self.data, attribute)

    def avg(self, attribute: str) -> Optional[float]:
        return aggregate.average(self.tree.roots, self.data, attribute)

    def min(self, attribute: str):
        return aggregate.min_of(self.tree.roots, self.data, attribute)

    def max(self, attribute: str):
        return aggregate.max_of(self.tree.roots, self.data, attribute)

    def count_distinct(self, attribute: str) -> int:
        return aggregate.count_distinct(
            self.tree.roots, self.data, attribute
        )

    def group_count(self, attribute: str):
        return aggregate.group_count(
            self.tree.roots, self.data, attribute
        )

    def validate(self) -> "ObjectRelation":
        """Check all structural invariants; returns self for chaining."""
        validate_relation(self.tree, self.data)
        return self

    def copy(self) -> "ObjectRelation":
        data = None if self.data is None else self.data.copy()
        return ObjectRelation(self.tree, data)


def to_object(fr: FactorisedRelation) -> ObjectRelation:
    """The engine's relation, decoded into the object representation."""
    return ObjectRelation(fr.tree, to_product(fr.rep))


def from_object(obj: ObjectRelation) -> FactorisedRelation:
    """An object relation, encoded as the engine's relation."""
    return FactorisedRelation(obj.tree, from_product(obj.tree, obj.data))
