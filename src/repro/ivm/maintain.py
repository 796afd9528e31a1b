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

The join is linear in each relation, so the deltas on one relation
coalesce into one term::

    Q(D[R -> I_1])  u  Q(D[R -> I_2])  =  Q(D[R -> I_1 u I_2])

(both sides hold the other relations at ``D``): a range pays for at
most one term per referenced relation, however many appends it holds.
A constant condition on ``R`` is a selection on ``R`` alone, so it
commutes with the substitution: ``Q(D[R -> I]) = Q(D[R -> s(I)])``
where ``s`` keeps the rows of ``I`` passing every condition of ``Q``
on ``R``.  That holds for the *class-closed* conditions too
(:meth:`~repro.query.query.Query.closed_constants`): ``a = b AND
b = 5`` implies ``a = 5`` on every result tuple, whichever relation
holds ``a``, so adding the implied condition changes neither side.
Filtering the term's rows first -- the paper's "constant selections
run first" -- proves a term empty before anything is factorised when
``s(I)`` is empty, also when its rows only fail a constant stated on
a class-mate in another relation; such a term, and one that
factorises to empty, is skipped rather than unioned in.

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
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

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


def _delta_terms(
    database: Database, query: Query, deltas: Sequence[Delta]
) -> Dict[str, List[Tuple[object, ...]]]:
    """The rows of each referenced relation's delta term: the fresh
    rows of every delta on it in ``deltas``, coalesced, that pass all
    of ``query``'s class-closed constant conditions on that relation.

    A relation maps to ``[]`` when it received rows but none passes
    the constants -- its term is provably empty.  Relations that
    received no rows have no term.
    """
    inserted: Dict[str, List[Tuple[object, ...]]] = {}
    referenced = set(query.relations)
    for delta in deltas:
        if delta.relation in referenced and delta.inserted:
            inserted.setdefault(delta.relation, []).extend(delta.inserted)
    constants = query.closed_constants()
    terms: Dict[str, List[Tuple[object, ...]]] = {}
    for name, rows in inserted.items():
        schema = database[name].schema
        for cond in constants:
            if cond.attribute in schema:
                rows = cond.filter_rows(rows, schema.index_of(cond.attribute))
        terms[name] = rows
    return terms


def apply_deltas(
    entry: "CachedResult",
    database: Database,
    check_invariants: bool = False,
) -> Optional[Tuple[int, int, int]]:
    """Catch ``entry`` up to ``database.version`` in place.

    Returns ``(merges, skips, delta_rows)`` on success -- how many
    delta terms were unioned in, how many were proven empty and
    skipped (no row passed the constants, or the term factorised to
    empty), and how many fresh rows the merged terms carried -- or
    ``None`` when the gap cannot be absorbed (the caller must drop the
    entry).  An already-current entry succeeds with ``(0, 0, 0)``.
    """
    deltas = database.changes_since(entry.version)
    if not absorbable(deltas, entry.query.relations):
        return None
    merges = skips = rows_in = 0
    result = entry.result
    terms = _delta_terms(database, entry.query, deltas)
    for relation, rows in terms.items():
        if not rows:
            skips += 1
            continue
        extra = delta_result(
            database,
            entry.query,
            entry.tree,
            relation,
            rows,
            check_invariants=check_invariants,
        )
        if extra.is_empty():
            skips += 1
            continue
        if check_invariants:
            # Validate the small appended piece per merge; the full
            # unioned result is checked once after the loop.  (A full
            # validate per merge made a k-delta batch cost k scans of
            # the whole cached result.)
            extra.validate()
        result = ops.union(result, extra)
        merges += 1
        rows_in += len(rows)
    if check_invariants and merges:
        result.validate()
    if not merges:
        # The result is unchanged, so every projection memoised at the
        # entry's old version still answers at the new one.
        entry.projected = {
            pkey: (database.version, projected)
            for pkey, (version, projected) in entry.projected.items()
            if version == entry.version
        }
    entry.result = result
    entry.version = database.version
    entry.deltas_applied += len(deltas)
    return merges, skips, rows_in
