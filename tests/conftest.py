"""Shared fixtures and helpers for the FDB reproduction test-suite."""

from __future__ import annotations

import importlib.util
import os
import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

import pytest

from repro import FDB, Database, Query, RelationalEngine
from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FTree
from repro.relational.relation import Relation
from repro.workloads import grocery_database, query_q1, query_q2


def load_script(name: str):
    """Import ``scripts/<name>.py`` (the golden-corpus generators) as a
    module, so a test can rebuild what the script wrote."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "scripts", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def grocery() -> Database:
    return grocery_database()


@pytest.fixture
def q1() -> Query:
    return query_q1()


@pytest.fixture
def q2() -> Query:
    return query_q2()


@pytest.fixture
def two_table_db() -> Database:
    db = Database()
    db.add_rows("R", ("a", "b"), [(1, 1), (1, 2), (2, 2), (3, 1)])
    db.add_rows("S", ("c", "d"), [(1, 7), (2, 8), (2, 9)])
    return db


def assignments(fr: FactorisedRelation) -> Set[Tuple[Tuple[str, object], ...]]:
    """The relation of a factorised result, as hashable sorted items."""
    return {tuple(sorted(d.items())) for d in fr}


def flat_assignments(
    relation: Relation,
) -> Set[Tuple[Tuple[str, object], ...]]:
    """The relation of a flat result, in the same shape."""
    attrs = relation.attributes
    return {
        tuple(sorted(zip(attrs, row))) for row in relation.rows
    }


def filtered(
    fr: FactorisedRelation,
    equalities: Sequence[Tuple[str, str]] = (),
    predicate=None,
) -> Set[Tuple[Tuple[str, object], ...]]:
    """Reference semantics: filter the enumerated relation."""
    out = set()
    for d in fr:
        if all(d[a] == d[b] for a, b in equalities):
            if predicate is None or predicate(d):
                out.add(tuple(sorted(d.items())))
    return out


def random_small_database(
    rng: random.Random,
    relations: int = 3,
    max_arity: int = 3,
    max_rows: int = 6,
    domain: int = 4,
) -> Database:
    """A tiny random database for differential tests."""
    db = Database()
    index = 0
    for r in range(relations):
        arity = rng.randint(1, max_arity)
        attrs = [f"x{index + i}" for i in range(arity)]
        index += arity
        rows = [
            tuple(rng.randint(1, domain) for _ in range(arity))
            for _ in range(rng.randint(1, max_rows))
        ]
        db.add_rows(f"T{r}", attrs, rows)
    return db


def random_equalities_for(
    db: Database, rng: random.Random, count: int
) -> List[Tuple[str, str]]:
    """Non-redundant equalities over the db's attributes."""
    from repro.query.equivalence import UnionFind

    attrs = db.attributes()
    uf = UnionFind(attrs)
    out: List[Tuple[str, str]] = []
    tries = 0
    while len(out) < count and tries < 1000:
        a, b = rng.sample(attrs, 2)
        if uf.union(a, b):
            out.append((a, b))
        tries += 1
    return out


def evaluate_both(
    db: Database, query: Query
) -> Tuple[FactorisedRelation, Relation]:
    """Evaluate with FDB (invariants on) and RDB; return both results."""
    fr = FDB(db, check_invariants=True).evaluate(query)
    flat = RelationalEngine(db).evaluate(query)
    return fr, flat
