"""Structured f-representations aligned to an f-tree.

Definition 2 of the paper fixes the shape of an f-representation over
an f-tree ``T``: over a forest it is a product with one factor per
tree; over a tree rooted at a node it is a union over distinct values,
each value paired with an f-representation over the children forest.

We exploit that rigidity and store f-representations structurally:

- :class:`ProductRep` -- a product whose ``factors`` list is
  positionally aligned with the (canonically ordered) trees of the
  forest it represents;
- :class:`UnionRep` -- a union stored as ``(value, ProductRep)``
  entries, sorted strictly increasing in the value (the paper's order
  constraint, which the swap/merge algorithms rely on).

The *empty* relation has no structured form: by convention the wrapper
:class:`repro.reference.relation.ObjectRelation` stores ``None`` for
it, and inside a non-empty representation no union is ever empty (the
operators prune eagerly).  The nullary tuple is ``ProductRep([])``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.core.arena import FRepError

Value = object


def _entry_value(entry: Tuple[Value, "ProductRep"]) -> Value:
    """Sort key for bisecting ``UnionRep.entries`` by value."""
    return entry[0]


class ProductRep:
    """A product of unions, one per tree of the forest it represents."""

    __slots__ = ("factors",)

    def __init__(self, factors: Iterable["UnionRep"] = ()) -> None:
        self.factors: List[UnionRep] = list(factors)

    def __repr__(self) -> str:
        return f"ProductRep({self.factors!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ProductRep) and self.factors == other.factors
        )

    def copy(self) -> "ProductRep":
        """Deep copy (operators rebuild rather than mutate, but tests
        and the engine facade occasionally need an isolated instance)."""
        return ProductRep([factor.copy() for factor in self.factors])


class UnionRep:
    """A union over distinct values of one f-tree node.

    Each entry pairs a value with the :class:`ProductRep` over the
    node's children forest.  Entries are sorted strictly increasing by
    value.
    """

    __slots__ = ("entries",)

    def __init__(
        self, entries: Iterable[Tuple[Value, ProductRep]] = ()
    ) -> None:
        self.entries: List[Tuple[Value, ProductRep]] = list(entries)

    def __repr__(self) -> str:
        values = [value for value, _ in self.entries]
        return f"UnionRep({values!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, UnionRep) and self.entries == other.entries
        )

    def __len__(self) -> int:
        return len(self.entries)

    def values(self) -> List[Value]:
        return [value for value, _ in self.entries]

    def find(self, value: Value) -> Optional[ProductRep]:
        """Binary search for ``value``; ``None`` if absent.

        Bisects ``entries`` in place (O(log n) comparisons) instead of
        materialising the full value list per lookup.
        """
        idx = bisect_left(self.entries, value, key=_entry_value)
        if idx < len(self.entries) and self.entries[idx][0] == value:
            return self.entries[idx][1]
        return None

    def copy(self) -> "UnionRep":
        return UnionRep(
            (value, child.copy()) for value, child in self.entries
        )


def singleton_union(value: Value) -> UnionRep:
    """A union holding one leaf value (children forest empty)."""
    return UnionRep([(value, ProductRep())])


def check_sorted(union: UnionRep) -> None:
    """Assert the strict value-order invariant of one union."""
    values = union.values()
    for previous, current in zip(values, values[1:]):
        if not previous < current:  # also catches duplicates
            raise FRepError(
                f"union values not strictly increasing: "
                f"{previous!r} !< {current!r}"
            )


def iter_unions(product: ProductRep) -> Iterator[UnionRep]:
    """All unions in a representation, pre-order."""
    stack: List[ProductRep] = [product]
    while stack:
        current = stack.pop()
        for union in current.factors:
            yield union
            for _, child in union.entries:
                stack.append(child)
