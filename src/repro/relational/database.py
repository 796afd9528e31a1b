"""A named catalogue of relations plus the statistics catalog.

The database enforces the global-attribute-name convention (an
attribute belongs to exactly one relation) and exposes the cardinality
and distinct-value statistics used by the estimate-based cost measure
of Section 4.1.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.relational.delta import DEFAULT_CAPACITY, Delta, DeltaLog
from repro.relational.relation import Relation, check_arity
from repro.relational.schema import RelationSchema, SchemaError


class Database:
    """A collection of relations with globally unique attribute names.

    >>> db = Database()
    >>> _ = db.add_rows("R", ("a", "b"), [(1, 2)])
    >>> db.relation_of("a").name
    'R'
    >>> db.total_size
    1
    """

    def __init__(
        self,
        relations: Iterable[Relation] = (),
        delta_log_capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self._relations: Dict[str, Relation] = {}
        self._attr_owner: Dict[str, str] = {}
        self._version = 0
        self._delta_log = DeltaLog(capacity=delta_log_capacity)
        for relation in relations:
            self.add(relation)

    @property
    def version(self) -> int:
        """Mutation counter, bumped on every catalogue change.

        Consumers that cache derived state (statistics catalogues,
        compiled plans -- see :mod:`repro.service`) compare the version
        they captured against the current one to detect staleness.
        """
        return self._version

    @property
    def delta_log(self) -> DeltaLog:
        """The bounded log of recent mutations (see
        :mod:`repro.relational.delta`)."""
        return self._delta_log

    def changes_since(self, version: int) -> Optional[List[Delta]]:
        """The recorded deltas moving this database from ``version`` to
        :attr:`version`, oldest first.

        ``[]`` means nothing changed; ``None`` means the gap cannot be
        explained from the retained log (truncation, a schema change in
        the range, or a version from another timeline) and callers must
        invalidate wholesale.  Every returned delta is data-only.
        """
        if version == self._version:
            return []
        if version > self._version:
            return None
        last = self._delta_log.last()
        if last is None or last.version != self._version:
            # The log does not reach the present -- e.g. the persist
            # codec restored ``version`` directly after a load.  Only a
            # log whose newest entry produced the current version can
            # explain a gap ending here.
            return None
        return self._delta_log.since(version)

    def add(self, relation: Relation) -> Relation:
        """Register ``relation``; checks name/attribute uniqueness."""
        if relation.name in self._relations:
            raise SchemaError(f"duplicate relation name {relation.name!r}")
        for attr in relation.attributes:
            owner = self._attr_owner.get(attr)
            if owner is not None:
                raise SchemaError(
                    f"attribute {attr!r} already belongs to {owner!r}"
                )
        self._relations[relation.name] = relation
        for attr in relation.attributes:
            self._attr_owner[attr] = relation.name
        self._version += 1
        self._delta_log.record(
            Delta(
                version=self._version,
                relation=relation.name,
                schema_change=True,
            )
        )
        return relation

    def add_rows(
        self,
        name: str,
        attributes: Sequence[str],
        rows: Iterable[Sequence[object]],
    ) -> Relation:
        """Build and register a relation from raw rows."""
        return self.add(Relation.from_rows(name, attributes, rows))

    def _store(self, relation: Relation) -> Relation:
        """Replace the stored relation of the same name, silently.

        Internal plumbing for the mutation methods (and the sharding
        layer's partition rebuilds): no version bump, no uniqueness
        re-check beyond requiring an unchanged schema.
        """
        current = self[relation.name]
        if current.attributes != relation.attributes:
            raise SchemaError(
                f"cannot change attributes of {relation.name!r} from "
                f"{current.attributes} to {relation.attributes}"
            )
        self._relations[relation.name] = relation
        return relation

    def extend_rows(
        self, name: str, rows: Iterable[Sequence[object]]
    ) -> Relation:
        """Append ``rows`` to an existing relation (set semantics).

        Replaces the stored relation with one containing the union of
        old and new tuples and bumps :attr:`version`, so cached plans
        and statistics over this database are invalidated.  Only the
        genuinely fresh rows are sorted; they are merged into the
        already-sorted old rows.
        """
        old = self[name]
        fresh = sorted({tuple(r) for r in rows} - set(old.rows))
        check_arity(old.schema, fresh)
        merged = self._store(old.with_rows(fresh))
        self._version += 1
        self._delta_log.record(
            Delta(version=self._version, relation=name, inserted=tuple(fresh))
        )
        return merged

    def delete_rows(
        self,
        name: str,
        rows: Optional[Iterable[Sequence[object]]] = None,
        where: Optional[Callable[[Tuple[object, ...]], bool]] = None,
    ) -> int:
        """Delete rows from ``name``; returns how many were removed.

        A row is removed when it appears in ``rows`` (compared as
        tuples) *or* satisfies the ``where`` predicate (called with the
        full row tuple in :attr:`Relation.attributes` order).  At least
        one criterion is required -- delete-everything must be spelled
        ``where=lambda row: True``, not implied by omission.  Bumps
        :attr:`version` only when at least one row actually went away,
        so no-op deletes do not invalidate caches.

        >>> db = Database()
        >>> _ = db.add_rows("R", ("a", "b"), [(1, 1), (1, 2), (2, 2)])
        >>> db.delete_rows("R", where=lambda row: row[0] == 1)
        2
        >>> len(db["R"])
        1
        """
        if rows is None and where is None:
            raise ValueError(
                "delete_rows needs rows and/or where; to delete every "
                "row pass where=lambda row: True"
            )
        old = self[name]
        doomed = {tuple(r) for r in rows} if rows is not None else set()
        kept = [
            row
            for row in old.rows
            if row not in doomed and not (where is not None and where(row))
        ]
        removed = len(old) - len(kept)
        if removed:
            kept_set = set(kept)
            self._store(Relation(old.schema, kept))
            self._version += 1
            self._delta_log.record(
                Delta(
                    version=self._version,
                    relation=name,
                    removed=tuple(
                        row for row in old.rows if row not in kept_set
                    ),
                )
            )
        return removed

    def update_rows(
        self,
        name: str,
        where: Callable[[Tuple[object, ...]], bool],
        updates: Mapping[str, object],
    ) -> int:
        """Update rows of ``name`` matching ``where``; returns the
        number of rows rewritten.

        ``updates`` maps attribute name to either a new constant or a
        callable receiving the full old row tuple.  Set semantics
        apply: an update that makes two rows collide stores one copy.
        Bumps :attr:`version` only when some row actually changed.

        >>> db = Database()
        >>> _ = db.add_rows("R", ("a", "b"), [(1, 1), (2, 2)])
        >>> db.update_rows("R", lambda row: row[0] == 2, {"b": 9})
        1
        >>> db["R"].rows
        [(1, 1), (2, 9)]
        """
        old = self[name]
        positions = {
            attr: old.schema.index_of(attr) for attr in updates
        }
        changed = 0
        new_rows: List[Tuple[object, ...]] = []
        for row in old.rows:
            if where(row):
                rewritten = list(row)
                for attr, value in updates.items():
                    rewritten[positions[attr]] = (
                        value(row) if callable(value) else value
                    )
                new = tuple(rewritten)
                if new != row:
                    changed += 1
                new_rows.append(new)
            else:
                new_rows.append(row)
        if changed:
            rewritten_rel = self._store(
                Relation.from_rows(name, old.attributes, new_rows)
            )
            self._version += 1
            old_set, new_set = set(old.rows), set(rewritten_rel.rows)
            self._delta_log.record(
                Delta(
                    version=self._version,
                    relation=name,
                    inserted=tuple(
                        row
                        for row in rewritten_rel.rows
                        if row not in old_set
                    ),
                    removed=tuple(
                        row for row in old.rows if row not in new_set
                    ),
                )
            )
        return changed

    def add_renamed(
        self, source: str, new_name: str, mapping: Mapping[str, str]
    ) -> Relation:
        """Register a renamed copy of ``source`` (for self-joins)."""
        relation = self[source].renamed(new_name, dict(mapping))
        return self.add(relation)

    def __getitem__(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    @property
    def names(self) -> List[str]:
        return list(self._relations)

    @property
    def total_size(self) -> int:
        """Total number of tuples, the paper's ``|D|``."""
        return sum(len(r) for r in self._relations.values())

    def schema(self) -> Dict[str, Tuple[str, ...]]:
        """Mapping relation name -> attribute tuple."""
        return {
            name: rel.attributes for name, rel in self._relations.items()
        }

    def relation_of(self, attribute: str) -> Relation:
        """The unique relation owning ``attribute``."""
        owner = self._attr_owner.get(attribute)
        if owner is None:
            raise SchemaError(f"attribute {attribute!r} not in database")
        return self._relations[owner]

    def attributes(self) -> List[str]:
        """All attribute names across all relations."""
        return list(self._attr_owner)

    # -- statistics for the estimate-based cost measure ------------------

    def cardinality(self, name: str) -> int:
        return len(self[name])

    def distinct(self, attribute: str) -> int:
        """Distinct count of ``attribute`` in its owning relation."""
        return self.relation_of(attribute).distinct_count(attribute)

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Full catalogue snapshot: sizes and per-attribute distincts."""
        out: Dict[str, Dict[str, int]] = {}
        for name, relation in self._relations.items():
            entry = {"__cardinality__": len(relation)}
            for attr in relation.attributes:
                entry[attr] = relation.distinct_count(attr)
            out[name] = entry
        return out
