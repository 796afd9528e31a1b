"""Delta maintenance of factorised join results.

Soundness
---------

Let ``Q`` be an SPJ query (projection stripped -- see
:func:`join_query`) over relations ``R_1 .. R_k``, evaluated at
database state ``D_0``, and let a sequence of *insert-only* deltas
move the database to ``D``.  Then, under set semantics::

    Q(D)  =  Q(D_0)  u  U_i Q(D[R_i -> I_i])

where ``I_i`` is delta ``i``'s set of genuinely fresh rows (recorded
as ``new - old``, :mod:`repro.relational.delta`) and ``D[R -> I]`` is
``D`` with relation ``R`` replaced by just ``I``.  Every result tuple
of ``Q(D)`` either joins only rows already in ``D_0`` (first term) or
embeds at least one row first inserted by some delta ``i`` -- and then
it appears in that delta's term, because the remaining relations stand
at their *final* state ``D``.  Conversely each term only joins rows of
``D``, so the union never over-approximates; overlap between terms is
absorbed by set semantics.

Both sides factorise over the *same* f-tree, so the right-hand union
is the factor-wise :func:`repro.ops.union.union` -- exact here by the
path-constraint argument in :mod:`repro.ops.union`, since each delta
view partitions a single relation (fresh rows vs. the rest) just like
a shard does.  The union must happen **before** projection; the result
cache therefore stores unprojected results and callers project at
serve time.

Deltas that *remove* rows from a referenced relation (deletes, and
updates, which are remove+insert pairs) are not absorbed: subtraction
from a factorised union would need multiplicity bookkeeping the
representation does not carry.  :func:`absorbable` classifies a delta
range; non-absorbable ranges make the consumer invalidate, exactly as
every mutation did before this module existed.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Tuple

from repro import ops
from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FTree
from repro.engine import FDB
from repro.query.query import Query
from repro.relational.database import Database
from repro.relational.delta import Delta
from repro.relational.relation import Relation

if TYPE_CHECKING:
    from repro.ivm.cache import CachedResult


class MaintenanceError(ValueError):
    """Raised for structurally impossible maintenance requests."""


def join_query(query: Query) -> Query:
    """``query`` with its projection stripped (the *join* query).

    Cached results are keyed and maintained on this form: projection
    does not commute with the factor-wise union used to fold deltas
    in, so the cache stores the unprojected join result and serves
    any projection of it.
    """
    if query.projection is None:
        return query
    return replace(query, projection=None)


def absorbable(
    deltas: Optional[Sequence[Delta]], relations: Iterable[str]
) -> bool:
    """Can this delta range be folded into a result over ``relations``?

    ``None`` (unexplainable gap) is never absorbable.  A range is
    absorbable when every delta touching a referenced relation is
    insert-only; deltas on unreferenced relations are irrelevant
    regardless of kind, because the join result does not depend on
    them.
    """
    if deltas is None:
        return False
    referenced = set(relations)
    for delta in deltas:
        if delta.schema_change:
            return False
        if delta.relation in referenced and delta.removed:
            return False
    return True


def delta_view(
    database: Database,
    query: Query,
    relation: str,
    rows: Sequence[Tuple[object, ...]],
) -> Database:
    """A throwaway evaluation view: ``relation`` holding only the
    delta ``rows``, every other referenced relation at its live state.

    Relation objects are shared with ``database`` (no row copies);
    only the substituted relation is rebuilt.
    """
    if relation not in query.relations:
        raise MaintenanceError(
            f"delta relation {relation!r} not referenced by the query"
        )
    view = Database()
    for name in query.relations:
        live = database[name]
        if name == relation:
            view.add(Relation.from_rows(name, live.attributes, rows))
        else:
            view.add(live)
    return view


def delta_result(
    database: Database,
    query: Query,
    tree: FTree,
    relation: str,
    rows: Sequence[Tuple[object, ...]],
    check_invariants: bool = False,
) -> FactorisedRelation:
    """Factorise the delta term ``Q(D[relation -> rows])`` over the
    cached result's own ``tree`` (so the caller can union it in)."""
    view = delta_view(database, query, relation, rows)
    engine = FDB(view, check_invariants=check_invariants)
    return engine.factorise_query(join_query(query), tree=tree)


def apply_deltas(
    entry: "CachedResult",
    database: Database,
    check_invariants: bool = False,
) -> Optional[Tuple[int, int]]:
    """Catch ``entry`` up to ``database.version`` in place.

    Returns ``(merges, delta_rows)`` on success -- how many delta
    results were unioned in and how many fresh rows they carried --
    or ``None`` when the gap cannot be absorbed (the caller must drop
    the entry).  An already-current entry succeeds with ``(0, 0)``.
    """
    deltas = database.changes_since(entry.version)
    if not absorbable(deltas, entry.query.relations):
        return None
    referenced = set(entry.query.relations)
    merges = rows_in = 0
    result = entry.result
    for delta in deltas:
        if delta.relation not in referenced or not delta.inserted:
            continue
        extra = delta_result(
            database,
            entry.query,
            entry.tree,
            delta.relation,
            delta.inserted,
            check_invariants=check_invariants,
        )
        if check_invariants:
            # Validate the small appended piece per merge; the full
            # unioned result is checked once after the loop.  (A full
            # validate per merge made a k-delta batch cost k scans of
            # the whole cached result.)
            extra.validate()
        result = ops.union(result, extra)
        merges += 1
        rows_in += len(delta.inserted)
    if check_invariants and merges:
        result.validate()
    entry.result = result
    entry.version = database.version
    entry.deltas_applied += len(deltas)
    return merges, rows_in
