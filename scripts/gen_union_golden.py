#!/usr/bin/env python3
"""Generate ``tests/data/union_golden.json``: the shard-union identity corpus.

What :func:`repro.ops.union_all` writes when it recombines per-shard
results is contractual in the same way ``factorise``'s output is
(``scripts/gen_factorise_golden.py``): the coordinator caches, persists
and ships the unioned arena, so a faster recombination must produce the
very same columns **and the same pool** -- which value id survives when
two shards carry ``==``-equal values, and in which order a private pool
is extended -- not just an equivalent representation.  This script pins
that contract as data.  Every case is a (database, join query, f-tree)
triple evaluated the way :mod:`repro.exec` does it -- one
``FDB.factorise_query`` per ``ShardedDatabase.shard_view`` -- for

- k in {2, 3, 4, 8} shards, under ``hash`` and ``round_robin``;
- three pool arrangements: ``shared`` (one :class:`ValuePool` for all
  parts: the in-process executors), ``private`` (a plain, compacted
  list pool per part) and ``pickled`` (one ``ValuePool`` per shard, as
  if every shard had run in its own worker process, and each part
  round-tripped through :mod:`pickle`, which is how a process pool
  delivers them);
- shapes: ``chain`` (all classes on one path), ``branching`` (optimal
  trees of paper-style joins), ``forest`` (disconnected queries: several
  roots, only one of which depends on the fan-out relation), ``single``
  (one node), ``constants`` (selections pushed in, constant nodes
  floated), ``sparse`` (fewer fan-out rows than shards, so some shards
  come back empty), ``lone`` (one shard holds the only joining row),
  ``empty`` (no shard has a result), ``mixed`` (``1`` / ``True`` /
  ``1.0`` meet across shards) and ``bench`` (the ``sharded_fanout``
  shape: three ternary Zipf relations of 200 rows);

and records a SHA-256 over ``values`` / ``child_lo`` / ``child_hi`` /
``pool`` of the union, its entry, singleton and tuple counts, and a
fingerprint of the parts that went in.  ``tests/test_union_kway.py``
rebuilds every case and asserts equality with the committed file, which
was generated **at the parent commit of the level-synchronous k-way
union** (PR 16; ``union_all`` was a left fold of the pairwise
``union_arena`` there) and committed unchanged::

    PYTHONPATH=<parent checkout>/src python scripts/gen_union_golden.py
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import random
import sys
from typing import Iterator, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen_factorise_golden as base  # noqa: E402 - sibling script

from repro import ops  # noqa: E402
from repro.core.arena import ValuePool, tuple_count  # noqa: E402
from repro.core.factorised import FactorisedRelation  # noqa: E402
from repro.core.ftree import FTree  # noqa: E402
from repro.engine import FDB  # noqa: E402
from repro.query.query import Query  # noqa: E402
from repro.relational.database import Database  # noqa: E402
from repro.storage import ShardedDatabase  # noqa: E402
from repro.workloads import (  # noqa: E402
    random_database,
    random_query,
    random_spj_query,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    os.pardir,
    "tests",
    "data",
    "union_golden.json",
)

SEED = base.SEED + 16
SHARD_COUNTS = (2, 3, 4, 8)
STRATEGIES = ("hash", "round_robin")
POOL_MODES = ("shared", "private", "pickled")

Case = Tuple[dict, Database, Query, FTree]


# -- evaluating one case -------------------------------------------------------


def shard_parts(
    db: Database,
    query: Query,
    tree: FTree,
    shards: int,
    strategy: str,
    mode: str,
) -> List[FactorisedRelation]:
    """The per-shard results ``repro.exec`` would hand ``union_all``."""
    sharded = ShardedDatabase.from_database(
        db, shards=shards, strategy=strategy
    )
    fanout = sharded.fanout_relation(query.relations)
    shared = ValuePool()

    def pool_of_shard():
        if mode == "private":
            return None
        return shared if mode == "shared" else ValuePool()

    parts = [
        FDB(
            sharded.shard_view(index, fanout),
            shared_pool=pool_of_shard(),
        ).factorise_query(query, tree=tree)
        for index in range(shards)
    ]
    if mode == "pickled":
        parts = [pickle.loads(pickle.dumps(part)) for part in parts]
    return parts


def union_record(parts: List[FactorisedRelation]) -> dict:
    """Everything the corpus pins about one union."""
    # Fingerprint the input first: a shared or pickled ValuePool is
    # extended in place by the union.
    given = base._sha([base.arena_digest(part.rep) for part in parts])
    arena = ops.union_all(parts).rep
    return dict(
        parts=given,
        live=sum(not part.is_empty() for part in parts),
        union=base.arena_digest(arena),
        entries=0 if arena is None else arena.entry_count,
        singletons=0 if arena is None else arena.singleton_count(),
        tuples=tuple_count(arena),
    )


# -- case generators -----------------------------------------------------------


def _tree_of(db: Database, query: Query) -> FTree:
    return FDB(db).optimal_tree(query)


def _draw(make, seed: int, entries: int):
    """The first ``make(seed)``, ``make(seed + 1)``, ... that is a case
    (not ``None``) whose unsharded result has at least ``entries``
    union entries -- a corpus of empty joins would pin nothing;
    returns ``(seed, db, query, tree)``."""
    while True:
        drawn = make(seed)
        if drawn is not None:
            db, query, tree = drawn
            arena = FDB(db).factorise_query(query, tree=tree).rep
            if arena is not None and arena.entry_count >= entries:
                return seed, db, query, tree
        seed += 1


def _join(i: int, small: bool = False, chain: bool = False, mixed: bool = False):
    """A paper-style equi-join sized by ``i``: 2..4 relations, about one
    equality per relation (enough to connect most of them, few enough
    to leave a result); ``small`` keeps a chain tree's near-flat
    representation in the tens."""

    def make(seed: int):
        relations = 2 + i % 3
        db = random_database(
            relations,
            relations * 2 + i % 2,
            tuples=5 + i if small else 12 + 6 * i,
            domain=2 + i % 2 if small else 3 + i % 3,
            distribution="zipf" if i % 3 == 0 else "uniform",
            seed=seed,
        )
        query = random_query(db, relations - 1 + i % 2, seed=seed + 1)
        tree = _tree_of(db, query)
        rng = random.Random(seed + 2)
        if mixed:
            db = Database(
                base._mixed_relations([db[name] for name in db.names], rng)
            )
        if chain:
            tree = base._chain_tree(tree, rng)
        return db, query, tree

    return make


def _lone_case(empty: bool) -> Case:
    """``R(a, b)`` fans out; ``S(a, c)`` joins one ``a`` only (or none),
    so one shard (or no shard) returns a result."""
    db = Database()
    db.add_rows("R", ("a", "b"), [(i, 10 + i % 3) for i in range(1, 10)])
    db.add_rows("S", ("a2", "c"), [(99 if empty else 4, 7), (98, 8)])
    query = Query.make(["R", "S"], equalities=[("a", "a2")])
    kind = "empty" if empty else "lone"
    return dict(kind=kind), db, query, _tree_of(db, query)


def _forest(i: int):
    def make(seed: int):
        # Fewer equalities than relations - 1: a disconnected query,
        # hence a forest with one root per component.
        db = random_database(
            3, 6 + i % 2, tuples=8 + 3 * i, domain=4, seed=seed
        )
        query = random_query(db, 1, seed=seed + 1)
        return db, query, _tree_of(db, query)

    return make


def _constants(i: int):
    def make(seed: int):
        db = random_database(
            3 + i % 2, 8, tuples=20 + i, domain=4 + i % 3, seed=seed
        )
        query = random_spj_query(
            db, seed=seed, max_equalities=4, projection_probability=0.0
        )
        if not query.constants or len(query.relations) < 2:
            return None  # no constant pushed into a join: draw again
        return db, query, _tree_of(db, query)

    return make


def _sparse(i: int):
    def make(seed: int):
        # At most five rows to fan out: most of eight shards are empty.
        db = random_database(2, 4, tuples=3 + i, domain=3, seed=seed)
        query = random_query(db, 1, seed=seed + 1)
        return db, query, _tree_of(db, query)

    return make


def _bench(i: int):
    def make(seed: int):
        db = random_database(
            3, 9, tuples=200, domain=100, distribution="zipf", seed=seed
        )
        query = random_query(db, 2 + i, seed=seed + 1)
        return db, query, _tree_of(db, query)

    return make


def cases() -> Iterator[Case]:
    """Every (descriptor, database, join query, f-tree), deterministically."""
    plan = (
        [("branching", _join(i), 10) for i in range(8)]
        + [("chain", _join(i, small=True, chain=True), 10) for i in range(6)]
        + [("forest", _forest(i), 10) for i in range(4)]
        + [("constants", _constants(i), 10) for i in range(5)]
        + [("sparse", _sparse(i), 4) for i in range(3)]
        + [
            ("mixed", _join(i, small=i % 3 == 2, chain=i % 3 == 2, mixed=True), 10)
            for i in range(6)
        ]
        + [("bench", _bench(i), 100) for i in range(3)]
    )
    for n, (kind, make, entries) in enumerate(plan):
        seed, db, query, tree = _draw(make, SEED + 100 * n, entries)
        yield dict(kind=kind, seed=seed, query=str(query)), db, query, tree
    for i in range(2):
        seed = SEED + 10_000 + i
        db = random_database(1, 1, tuples=12 + 20 * i, domain=60, seed=seed)
        query = Query.make(db.names)
        yield dict(kind="single", seed=seed), db, query, _tree_of(db, query)
    yield _lone_case(empty=False)
    yield _lone_case(empty=True)


def records_of(case: dict, db, query, tree) -> Iterator[dict]:
    for shards in SHARD_COUNTS:
        for strategy in STRATEGIES:
            for mode in POOL_MODES:
                parts = shard_parts(db, query, tree, shards, strategy, mode)
                yield dict(
                    case,
                    shards=shards,
                    strategy=strategy,
                    pool=mode,
                    **union_record(parts),
                )


def build_corpus() -> dict:
    """The whole corpus as the JSON document (deterministic)."""
    records: List[dict] = []
    for case, db, query, tree in cases():
        records.extend(records_of(case, db, query, tree))
    return dict(seed=SEED, cases=records)


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default=GOLDEN_PATH)
    args = parser.parse_args(argv)
    corpus = build_corpus()
    os.makedirs(os.path.dirname(args.output), exist_ok=True)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(corpus, handle, separators=(",", ":"), sort_keys=True)
        handle.write("\n")
    records = corpus["cases"]
    kinds = sorted({record["kind"] for record in records})
    print(
        f"wrote {args.output}: {len(records)} unions ({', '.join(kinds)}), "
        f"{sum(r['live'] < r['shards'] for r in records)} with empty parts, "
        f"{sum(r['union'] == 'empty' for r in records)} empty results, "
        f"{sum(r['entries'] for r in records)} entries out"
    )


if __name__ == "__main__":
    main()
