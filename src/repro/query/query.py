"""The select-project-join query data model.

A :class:`Query` is the paper's ``Q = pi_P sigma_phi (R1 x ... x Rn)``:
a list of relation names, a conjunction of equality conditions between
attributes (equi-joins *and* intra-relation equality selections are
treated uniformly, cf. Section 3.3), a conjunction of comparisons with
constants, and an optional projection list.

Attribute names are globally unique across a database schema (the
workload generators guarantee this; the parser qualifies names where
needed), so conditions are expressed on bare attribute names.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.query.equivalence import UnionFind


class QueryError(ValueError):
    """Raised for malformed queries (unknown attributes, bad operators)."""


#: Comparison operators supported in constant conditions.
COMPARATORS: Dict[str, Callable[[object, object], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass(frozen=True)
class EqualityCondition:
    """An equality ``left = right`` between two attributes."""

    left: str
    right: str

    def __post_init__(self) -> None:
        if self.left == self.right:
            raise QueryError(f"trivial equality {self.left} = {self.right}")

    def attributes(self) -> FrozenSet[str]:
        return frozenset((self.left, self.right))

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


@dataclass(frozen=True)
class ConstantCondition:
    """A comparison ``attribute <op> value`` with a constant."""

    attribute: str
    op: str
    value: object

    def __post_init__(self) -> None:
        if self.op not in COMPARATORS:
            raise QueryError(f"unsupported comparator {self.op!r}")

    def test(self, value: object) -> bool:
        """Evaluate the condition on a single attribute value."""
        return COMPARATORS[self.op](value, self.value)

    def filter_rows(
        self, rows: Iterable[Sequence[object]], index: int
    ) -> list:
        """The rows whose ``index``-th value passes :meth:`test`, in
        order -- one comprehension, with no call per row for ``=``."""
        value = self.value
        if self.op == "=":
            return [row for row in rows if row[index] == value]
        compare = COMPARATORS[self.op]
        return [row for row in rows if compare(row[index], value)]

    def __str__(self) -> str:
        return f"{self.attribute} {self.op} {self.value!r}"


def equality_partition(
    equalities: Iterable[EqualityCondition],
) -> Tuple[Tuple[str, ...], ...]:
    """The canonical partition an equality conjunction induces.

    Only classes of two or more attributes appear (singletons carry no
    constraint), each as a sorted attribute tuple, the classes sorted
    among themselves.  Two conjunctions are equivalent -- same order,
    direction, or transitive closure -- iff their partitions are equal.
    """
    mentioned: set = set()
    for eq in equalities:
        mentioned.update((eq.left, eq.right))
    uf = UnionFind(mentioned)
    for eq in equalities:
        uf.union(eq.left, eq.right)
    return tuple(
        sorted(
            tuple(sorted(cls)) for cls in uf.classes() if len(cls) > 1
        )
    )


@dataclass(frozen=True)
class Query:
    """A select-project-join query.

    Parameters
    ----------
    relations:
        Names of the relations joined (a Cartesian product before the
        selection conditions are applied).
    equalities:
        Conjunction of attribute-attribute equalities.
    constants:
        Conjunction of attribute-constant comparisons.
    projection:
        Attributes to keep, or ``None`` for "all attributes".
    """

    relations: Tuple[str, ...]
    equalities: Tuple[EqualityCondition, ...] = ()
    constants: Tuple[ConstantCondition, ...] = ()
    projection: Optional[Tuple[str, ...]] = None

    @staticmethod
    def make(
        relations: Sequence[str],
        equalities: Iterable[Tuple[str, str]] = (),
        constants: Iterable[Tuple[str, str, object]] = (),
        projection: Optional[Sequence[str]] = None,
    ) -> "Query":
        """Convenience constructor from plain tuples.

        >>> q = Query.make(["R", "S"], equalities=[("a", "b")])
        >>> str(q.equalities[0])
        'a = b'
        """
        return Query(
            relations=tuple(relations),
            equalities=tuple(
                EqualityCondition(left, right) for left, right in equalities
            ),
            constants=tuple(
                ConstantCondition(attr, op, value)
                for attr, op, value in constants
            ),
            projection=None if projection is None else tuple(projection),
        )

    def attribute_classes(
        self, attributes: Iterable[str]
    ) -> List[FrozenSet[str]]:
        """Equivalence classes of ``attributes`` under the equalities.

        Every attribute of the queried relations labels exactly one
        class; equality conditions merge classes transitively.
        """
        uf = UnionFind(attributes)
        for eq in self.equalities:
            if eq.left not in uf or eq.right not in uf:
                missing = eq.left if eq.left not in uf else eq.right
                raise QueryError(f"equality on unknown attribute {missing!r}")
        for eq in self.equalities:
            uf.union(eq.left, eq.right)
        return sorted(uf.classes(), key=lambda c: tuple(sorted(c)))

    def class_partition(
        self, attributes: Iterable[str]
    ) -> FrozenSet[FrozenSet[str]]:
        """The classes as a canonical frozenset-of-frozensets."""
        return frozenset(self.attribute_classes(attributes))

    def closed_constants(self) -> Tuple[ConstantCondition, ...]:
        """The constant conditions closed over the equality classes.

        ``a = b AND b = 5`` also binds ``a = 5``: on the join result
        the attributes of a class are equal, so a comparison on one of
        them holds on every one.  Each condition is followed by its
        copies on its class-mates (sorted); a condition equal to an
        earlier one (``a = 1.0`` after ``a = 1``) is dropped.  Without
        equalities this is :attr:`constants`.  Like
        :meth:`canonical_key`, it is derived once per instance.

        >>> q = Query.make(["R", "S"], equalities=[("a", "b")],
        ...                constants=[("b", "=", 5)])
        >>> [str(c) for c in q.closed_constants()]
        ['b = 5', 'a = 5']
        """
        closed = self.__dict__.get("_closed")
        if closed is None:
            closed = self._close_constants()
            object.__setattr__(self, "_closed", closed)
        return closed

    def _close_constants(self) -> Tuple[ConstantCondition, ...]:
        if not self.equalities or not self.constants:
            return self.constants
        mates: Dict[str, Tuple[str, ...]] = {}
        for cls in equality_partition(self.equalities):
            for attr in cls:
                mates[attr] = cls
        closed: Dict[ConstantCondition, None] = {}
        for cond in self.constants:
            closed[cond] = None
            for attr in mates.get(cond.attribute, ()):
                closed.setdefault(
                    ConstantCondition(attr, cond.op, cond.value), None
                )
        return tuple(closed)

    def nonredundant_equalities(
        self, attributes: Iterable[str]
    ) -> Tuple[EqualityCondition, ...]:
        """Drop equalities already implied by earlier ones.

        The experiments of Section 5 use "non-redundant" conjunctions:
        each condition merges two previously distinct classes.
        """
        uf = UnionFind(attributes)
        kept: List[EqualityCondition] = []
        for eq in self.equalities:
            if uf.union(eq.left, eq.right):
                kept.append(eq)
        return tuple(kept)

    def canonical_key(self) -> Tuple:
        """A hashable key identifying the query up to reformulation.

        Two queries share a key exactly when they are the same SPJ
        query written differently:

        - relation order is irrelevant (the join is a product);
        - the equality conjunction is replaced by the partition of
          attributes it induces, so condition order, direction
          (``a = b`` vs ``b = a``) and redundant conditions implied by
          transitivity all collapse;
        - constant conditions are deduplicated and sorted;
        - the projection is treated as an attribute set (results are
          relations over sorted attributes, so column order does not
          matter).

        The key is the plan-cache index of the serving layer
        (:mod:`repro.service`): a hit means the cached f-tree/f-plan
        answers the incoming query verbatim.  It is computed once per
        instance and kept outside the fields, so equality, hashing and
        pickling never see it.

        >>> a = Query.make(["R", "S"], equalities=[("a", "b")])
        >>> b = Query.make(["S", "R"], equalities=[("b", "a")])
        >>> a.canonical_key() == b.canonical_key()
        True
        >>> c = Query.make(["R", "S"])
        >>> a.canonical_key() == c.canonical_key()
        False
        """
        key = self.__dict__.get("_key")
        if key is None:
            key = self._derive_key()
            object.__setattr__(self, "_key", key)
        return key

    def _derive_key(self) -> Tuple:
        classes = equality_partition(self.equalities)
        constants = tuple(
            sorted(
                {
                    (c.attribute, c.op, repr(c.value))
                    for c in self.constants
                }
            )
        )
        projection = (
            None
            if self.projection is None
            else tuple(sorted(set(self.projection)))
        )
        return (
            tuple(sorted(self.relations)),
            classes,
            constants,
            projection,
        )

    def __getstate__(self) -> Dict[str, object]:
        # Pickle (and copy) the fields only; the receiver re-derives
        # the key and the closed constants on first use.
        state = dict(self.__dict__)
        state.pop("_key", None)
        state.pop("_closed", None)
        return state

    def validate_against(self, schema: Mapping[str, Sequence[str]]) -> None:
        """Check the query against ``schema`` (relation -> attributes).

        Raises :class:`QueryError` for unknown relations/attributes or
        a projection of an attribute that is not produced.
        """
        known: set = set()
        for name in self.relations:
            if name not in schema:
                raise QueryError(f"unknown relation {name!r}")
            known.update(schema[name])
        for eq in self.equalities:
            for attr in (eq.left, eq.right):
                if attr not in known:
                    raise QueryError(f"unknown attribute {attr!r}")
        for cond in self.constants:
            if cond.attribute not in known:
                raise QueryError(f"unknown attribute {cond.attribute!r}")
        if self.projection is not None:
            for attr in self.projection:
                if attr not in known:
                    raise QueryError(f"cannot project unknown {attr!r}")

    def __str__(self) -> str:
        conds = [str(eq) for eq in self.equalities]
        conds += [str(c) for c in self.constants]
        proj = "*" if self.projection is None else ", ".join(self.projection)
        where = f" WHERE {' AND '.join(conds)}" if conds else ""
        return f"SELECT {proj} FROM {', '.join(self.relations)}{where}"
