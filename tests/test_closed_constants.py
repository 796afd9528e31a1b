"""Constants closed over equality classes: FDB against the reference.

:meth:`repro.engine.FDB.factorise_query` pushes every constant into the
relations of its attribute's whole equality class
(:meth:`repro.query.query.Query.closed_constants`) and factorises
straight over the constant-marked f-tree, where a relation meeting
several branches is split into one trie per path.  That split is exact
only because the closure filtered the relation first, so these
properties aim at it: constants that name *one* attribute of a
multi-attribute class, two ``=`` constants on one class that agree or
conflict, and values that compare equal across types (``1`` /
``1.0``).  The factorised engine must match
:class:`repro.reference.ReferenceEngine` (which still selects on the
representation after factorising) on the decoded rows, the tree key
and the singleton count -- over a flat database, a 3-shard database
through the session, and a saved-then-reloaded database.
"""

from __future__ import annotations

import os
import tempfile
from typing import List, Tuple

from hypothesis import example, given, settings, strategies as st

from repro import persist
from repro.engine import FDB
from repro.exec import ParallelExecutor
from repro.query.query import Query
from repro.reference import ReferenceEngine
from repro.relational.database import Database
from repro.service import QuerySession
from repro.storage import ShardedDatabase

SCHEMA = (("R", ("a", "b")), ("S", ("c", "d")), ("T", ("e", "f")))

#: ``b = c`` always joins R and S; the rest may grow the classes.
OPTIONAL_EQUALITIES = [("d", "e"), ("a", "e"), ("d", "f")]

values = st.sampled_from([1, 2, 3, 1.0, 2.0])


@st.composite
def cases(draw) -> Tuple[Database, Query]:
    db = Database()
    for name, attrs in SCHEMA:
        rows = draw(
            st.lists(st.tuples(values, values), min_size=1, max_size=6)
        )
        db.add_rows(name, attrs, rows)
    equalities = [("b", "c")] + draw(
        st.lists(st.sampled_from(OPTIONAL_EQUALITIES), unique=True, max_size=2)
    )
    mentioned = sorted({attr for pair in equalities for attr in pair})
    constants = draw(
        st.lists(
            st.tuples(
                st.sampled_from(mentioned),
                st.sampled_from(["=", "=", "<"]),
                st.sampled_from([1, 2, 1.0]),
            ),
            min_size=1,
            max_size=3,
        )
    )
    return db, Query.make(
        [name for name, _ in SCHEMA],
        equalities=equalities,
        constants=constants,
    )


def _db(rows_r, rows_s, rows_t) -> Database:
    db = Database()
    for (name, attrs), rows in zip(SCHEMA, (rows_r, rows_s, rows_t)):
        db.add_rows(name, attrs, rows)
    return db


def _query(equalities, constants) -> Query:
    return Query.make(
        [name for name, _ in SCHEMA],
        equalities=equalities,
        constants=constants,
    )


# R meets the b/c node and a's node; with ``c = 1`` only, R's rows with
# b != 1 must not reach a's branch of the constant tree.
SPLIT = _db(
    [(1, 1), (2, 2), (3, 2)], [(1, 1), (2, 2)], [(1, 1), (2, 2)]
)
EXAMPLES: List[Tuple[Database, Query]] = [
    (SPLIT, _query([("b", "c")], [("c", "=", 1)])),
    (SPLIT, _query([("b", "c")], [("c", "<", 2)])),
    # Two ``=`` on one class: agreeing (across int / float) ...
    (SPLIT, _query([("b", "c")], [("b", "=", 1), ("c", "=", 1.0)])),
    # ... and conflicting: the result is empty.
    (SPLIT, _query([("b", "c")], [("b", "=", 1), ("c", "=", 2)])),
    (
        _db([(1, 1.0), (2, 2)], [(1, 1), (2, 2.0)], [(1, 3), (2, 1)]),
        _query([("b", "c"), ("d", "e")], [("e", "=", 2), ("a", "<", 2)]),
    ),
]


def _observed(fr) -> Tuple[tuple, List[tuple], int]:
    order = tuple(sorted(fr.tree.attributes()))
    return fr.tree.key(), sorted(set(fr.rows(order))), fr.size()


def _expected(
    db: Database, query: Query, tree
) -> Tuple[tuple, List[tuple], int]:
    return _observed(
        ReferenceEngine(db, check_invariants=True).factorise_query(
            query, tree=tree
        )
    )


def _with_examples(test):
    for case in EXAMPLES:
        test = example(case)(test)
    return given(cases())(settings(max_examples=25, deadline=None)(test))


@_with_examples
def test_flat_database_agrees_with_reference(case):
    db, query = case
    engine = FDB(db, check_invariants=True)
    tree = engine.optimal_tree(query)
    got = _observed(engine.factorise_query(query, tree=tree))
    assert got == _expected(db, query, tree), str(query)


@_with_examples
def test_sharded_session_agrees_with_reference(case):
    db, query = case
    sharded = ShardedDatabase.from_database(db, shards=3)
    executor = ParallelExecutor(max_workers=1, pool="thread")
    with QuerySession(
        sharded, executor=executor, check_invariants=True
    ) as session:
        result = session.run(query).factorised
    tree = FDB(db).optimal_tree(query)
    assert _observed(result) == _expected(db, query, tree), str(query)


@_with_examples
def test_reloaded_database_agrees_with_reference(case):
    db, query = case
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "db.fdbp")
        persist.save(db, path)
        reloaded = persist.load(path)
    engine = FDB(reloaded, check_invariants=True)
    tree = engine.optimal_tree(query)
    got = _observed(engine.factorise_query(query, tree=tree))
    assert got == _expected(db, query, tree), str(query)


def test_closed_constants_follow_the_classes():
    query = Query.make(
        ["R", "S", "T"],
        equalities=[("b", "c"), ("c", "e")],
        constants=[("c", "=", 1), ("b", "=", 1.0), ("f", "<", 3)],
    )
    assert [str(c) for c in query.closed_constants()] == [
        "c = 1",
        "b = 1",
        "e = 1",
        "f < 3",
    ]
    plain = Query.make(["R"], constants=[("a", "=", 1)])
    assert plain.closed_constants() == plain.constants
