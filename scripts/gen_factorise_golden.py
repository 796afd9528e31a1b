#!/usr/bin/env python3
"""Generate ``tests/data/factorise_golden.json``: the arena-identity corpus.

What :func:`repro.core.build.factorise` writes is contractual (README,
*Factorising flat data*): a faster build must produce the very same
arena -- column contents and pool order, with a private pool and with a
shared :class:`~repro.core.arena.ValuePool` -- not just an equivalent
representation, so persisted blobs, wire frames and ``core.fact_ratio``
cannot tell the builders apart.  This script pins that contract as
data.  It draws a seeded corpus of (relations, f-tree) cases from the
:mod:`repro.workloads` generators --

- ``optimal``: paper-style equi-joins (uniform and Zipf, intra-relation
  equalities included) over their optimal f-tree;
- ``chain``: the same kind of join over a non-optimal single-path tree;
- ``constants``: SPJ queries whose constants are pushed into the base
  relations by ``flat_select``, exactly as ``FDB.factorise_query`` does;
- ``pruned``: trees that drop leaf classes, so relations carry
  attributes outside the tree;
- ``empty``: an empty input relation, and joins with no result;
- ``mixed``: ``True`` / ``1`` / ``1.0`` (and ``False`` / ``0`` /
  ``0.0``) values that compare equal but intern apart;
- ``forest``: one root per class, so every relation meets several
  branches (the shape constant nodes produce);
- ``rollback``: a second child that comes up empty after the first
  wrote a deep subtree; ``partial``: a tuple that breaks an
  intra-relation equality below the level it still contributes to;
  ``grocery``: the paper's running example --

and records, per case, a SHA-256 over ``values`` / ``child_lo`` /
``child_hi`` / ``pool`` of the arena built with a private and with a
shared pool, a SHA-256 of the object representation built by the
reference factoriser (:mod:`repro.reference`), and the result's entry,
singleton and tuple counts.  ``tests/test_trie_build.py`` rebuilds
every case and asserts equality with the committed file, which was
generated **at the parent commit of the trie-cursor factoriser**
(PR 15) and committed unchanged::

    PYTHONPATH=<parent checkout>/src python scripts/gen_factorise_golden.py
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.arena import ArenaRep, ValuePool, tuple_count
from repro.core.build import Factoriser
from repro.core.ftree import FNode, FTree, label_key
from repro.optimiser.ftree_optimiser import optimal_ftree
from repro.reference import ObjectFactoriser, ProductRep
from repro.relational.operators import select_constant as flat_select
from repro.relational.relation import Relation
from repro.workloads import (
    grocery_database,
    query_q1,
    query_q2,
    random_database,
    random_query,
    random_spj_query,
    tree_t1,
    tree_t2,
    tree_t3,
    tree_t4,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    os.pardir,
    "tests",
    "data",
    "factorise_golden.json",
)

SEED = 20120827  # PVLDB 5(11), where the paper appeared

Case = Tuple[dict, List[Relation], FTree]


# -- digests -------------------------------------------------------------------


def _sha(document: object) -> str:
    text = json.dumps(document, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _typed(value: object) -> List[str]:
    """A value with its type: ``1``, ``True`` and ``1.0`` stay apart."""
    return [type(value).__name__, repr(value)]


def arena_digest(arena: Optional[ArenaRep]) -> str:
    """The digest of an arena's plain form (:meth:`ArenaRep.dense`):
    its columns and pool.  It hashes each child slot as the (range
    starts, range ends) list pair the arena stored before it kept one
    offsets column per slot -- ``off[:-1]`` and ``off[1:]`` -- so the
    committed corpora did not move with the layout.  Columns are read
    through ``tolist()``, so the hash sees Python ints."""
    if arena is None:
        return "empty"
    arena = arena.dense()
    return _sha(
        dict(
            values=[column.tolist() for column in arena.values],
            child_lo=[
                [off[:-1].tolist() for off in slots]
                for slots in arena.offsets
            ],
            child_hi=[
                [off[1:].tolist() for off in slots]
                for slots in arena.offsets
            ],
            pool=[_typed(value) for value in arena.pool],
        )
    )


def product_digest(product: Optional[ProductRep]) -> str:
    if product is None:
        return "empty"

    def encode(rep: ProductRep) -> list:
        return [
            [[_typed(value), encode(child)] for value, child in union.entries]
            for union in rep.factors
        ]

    return _sha(encode(product))


def input_digest(relations: Sequence[Relation], tree: FTree) -> str:
    """Fingerprint of a case's input, so a drifted generator is told
    apart from a drifted factoriser."""
    return _sha(
        dict(
            relations=[
                [
                    relation.name,
                    list(relation.attributes),
                    [[_typed(v) for v in row] for row in relation.rows],
                ]
                for relation in relations
            ],
            tree=repr(tree.key()),
        )
    )


def case_record(relations: Sequence[Relation], tree: FTree) -> dict:
    """Everything the corpus pins about one case's output."""
    private = Factoriser(relations, tree).run()
    shared = Factoriser(relations, tree).run(ValuePool())
    product = ObjectFactoriser(relations, tree).run()
    return dict(
        private=arena_digest(private),
        shared=arena_digest(shared),
        object=product_digest(product),
        entries=0 if private is None else private.entry_count,
        singletons=0 if private is None else private.singleton_count(),
        tuples=tuple_count(private),
    )


# -- case generators -----------------------------------------------------------


def _relations_of(db, query) -> List[Relation]:
    """The query's relations with its constants pushed in, as
    ``FDB.factorise_query`` hands them to ``factorise``."""
    relations = []
    for name in query.relations:
        relation = db[name]
        for cond in query.constants:
            if cond.attribute in relation.schema:
                relation = flat_select(relation, cond)
        relations.append(relation)
    return relations


def _join_case(i: int, seed: int, small: bool = False):
    """A paper-style database and equi-join, sized by ``i``; ``small``
    keeps a chain tree's near-flat representation in the thousands."""
    relations = 2 + i % 4
    attributes = relations * (2 + (i // 4) % 2) + i % 2
    equalities = 1 + (i * 5) % min(6, attributes - 1)
    db = random_database(
        relations,
        attributes,
        tuples=3 + i % 5 if small else 6 + (i * 7) % 30,
        domain=2 + i % 3 if small else 3 + i % 5,
        distribution="zipf" if i % 3 == 0 else "uniform",
        seed=seed,
    )
    return db, random_query(db, equalities, seed=seed + 1)


def _chain_tree(tree: FTree, rng: random.Random) -> FTree:
    """All of ``tree``'s classes on one path, in a shuffled order: it
    satisfies the path constraint for every edge and is rarely optimal."""
    labels = sorted(tree.labels(), key=label_key)
    rng.shuffle(labels)
    node: Optional[FNode] = None
    for label in reversed(labels):
        node = FNode(label, [] if node is None else [node])
    return FTree([node], tree.edges)


def _pruned_tree(tree: FTree, rng: random.Random) -> FTree:
    """``tree`` without some of its leaves (never all of its nodes)."""
    for _ in range(rng.randint(1, 2)):
        leaves = [n for n in tree.iter_nodes() if not n.children]
        if len(tree.labels()) <= 1:
            break
        tree = tree.replace_node(rng.choice(leaves).label, [])
    return tree


def _forest_tree(tree: FTree) -> FTree:
    return FTree([FNode(label) for label in tree.labels()], tree.edges)


_MIXED = {
    1: (1, True, 1.0),
    0: (0, False, 0.0),
    2: (2, 2.0),
}


def _mixed_relations(
    relations: Sequence[Relation], rng: random.Random
) -> List[Relation]:
    """Re-type small values: equal under ``==``, distinct when interned.

    Values are shifted down by one first so ``0`` / ``False`` occur too.
    Rows that collide under ``==`` afterwards are de-duplicated by
    ``Relation.from_rows``, which keeps an arbitrary-but-deterministic
    representative -- itself part of what the corpus pins.
    """
    out = []
    for relation in relations:
        rows = [
            tuple(
                rng.choice(_MIXED.get(v - 1, (v - 1,))) for v in row
            )
            for row in relation.rows
        ]
        out.append(
            Relation.from_rows(relation.name, relation.attributes, rows)
        )
    return out


def _rollback_cases() -> Iterator[Case]:
    """``a -> (b -> c -> d, e)``: for some ``a`` the deep ``b`` subtree
    is written in full before ``e`` comes up empty."""
    tree = FTree.from_nested(
        [("a", [("b", [("c", [("d", [])])]), ("e", [])])],
        edges=[{"a", "b"}, {"b", "c"}, {"c", "d"}, {"a", "e"}],
    )
    ab = [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (4, 4)]
    bc = [(1, 5), (1, 6), (2, 6), (3, 7), (4, 5)]
    cd = [(5, 8), (5, 9), (6, 9), (7, 8)]
    for which, ae in enumerate(
        (
            [(2, 0), (4, 1)],  # a = 1, 3 roll back after a deep write
            [(1, 0), (3, 1), (3, 2)],  # a = 2, 4 roll back
            [(9, 9)],  # every a rolls back: empty result
        )
    ):
        relations = [
            Relation.from_rows("AB", ("a", "b"), ab),
            Relation.from_rows("BC", ("b", "c"), bc),
            Relation.from_rows("CD", ("c", "d"), cd),
            Relation.from_rows("AE", ("a", "e"), ae),
        ]
        yield dict(kind="rollback", which=which), relations, tree


def _partial_case() -> Case:
    """``a -> (b, {x, y})`` where ``R(a, x, y)`` has ``x != y`` in its
    only ``a = 1`` tuple: the tuple still offers ``a = 1`` (so ``b = 9``
    is written and interned) and only fails at ``{x, y}``."""
    tree = FTree.from_nested(
        [("a", [("b", []), (("x", "y"), [])])],
        edges=[{"a", "x", "y"}, {"a", "b"}],
    )
    relations = [
        Relation.from_rows("R", ("a", "x", "y"), [(1, 5, 6), (2, 7, 7)]),
        Relation.from_rows("S", ("a", "b"), [(1, 9), (2, 8)]),
    ]
    return dict(kind="partial"), relations, tree


def _grocery_cases() -> Iterator[Case]:
    db = grocery_database()
    for name, query, tree in (
        ("t1", query_q1(), tree_t1()),
        ("t2", query_q1(), tree_t2()),
        ("t3", query_q2(), tree_t3()),
        ("t4", query_q2(), tree_t4()),
    ):
        yield (
            dict(kind="grocery", tree=name),
            _relations_of(db, query),
            tree,
        )


def cases() -> Iterator[Case]:
    """Every (descriptor, relations, f-tree) case, deterministically."""
    for i in range(160):
        seed = SEED + i
        db, query = _join_case(i, seed)
        tree, _ = optimal_ftree(db, query)
        yield dict(kind="optimal", seed=seed), _relations_of(db, query), tree
    for i in range(48):
        seed = SEED + 1_000 + i
        db, query = _join_case(i, seed, small=True)
        tree, _ = optimal_ftree(db, query)
        chain = _chain_tree(tree, random.Random(seed + 2))
        yield dict(kind="chain", seed=seed), _relations_of(db, query), chain
    for i in range(40):
        seed = SEED + 2_000 + 50 * i
        db = random_database(
            3 + i % 2, 8, tuples=20 + i, domain=4 + i % 3, seed=seed
        )
        while True:  # first draw that pushes a constant into a join
            query = random_spj_query(db, seed=seed, max_equalities=4)
            if query.constants and len(query.relations) >= 2:
                break
            seed += 1
        tree, _ = optimal_ftree(db, query)
        yield (
            dict(kind="constants", seed=seed, query=str(query)),
            _relations_of(db, query),
            tree,
        )
    for i in range(24):
        seed = SEED + 3_000 + i
        db, query = _join_case(i, seed)
        tree, _ = optimal_ftree(db, query)
        pruned = _pruned_tree(tree, random.Random(seed + 2))
        yield dict(kind="pruned", seed=seed), _relations_of(db, query), pruned
    for i in range(16):
        seed = SEED + 4_000 + i
        relations = 2 + i % 3
        if i % 2:
            # No value is shared between relations: empty join result.
            db = random_database(
                relations, relations * 2, 5, domain=10_000, seed=seed
            )
        else:
            sizes = [6] * relations
            sizes[i % relations] = 0
            db = random_database(
                relations, relations * 2, 6, domain=3, seed=seed, sizes=sizes
            )
        query = random_query(db, relations - 1 + i % 2, seed=seed + 1)
        tree, _ = optimal_ftree(db, query)
        yield dict(kind="empty", seed=seed), _relations_of(db, query), tree
    for i in range(40):
        seed = SEED + 5_000 + i
        db, query = _join_case(i, seed, small=i % 4 == 3)
        tree, _ = optimal_ftree(db, query)
        rng = random.Random(seed + 2)
        mixed = _mixed_relations(_relations_of(db, query), rng)
        if i % 4 == 3:
            tree = _chain_tree(tree, rng)
        yield dict(kind="mixed", seed=seed), mixed, tree
    for i in range(12):
        seed = SEED + 6_000 + i
        db, query = _join_case(i, seed)
        tree, _ = optimal_ftree(db, query)
        yield (
            dict(kind="forest", seed=seed),
            _relations_of(db, query),
            _forest_tree(tree),
        )
    yield from _rollback_cases()
    yield _partial_case()
    yield from _grocery_cases()


def build_corpus() -> dict:
    """The whole corpus as the JSON document (deterministic)."""
    records: List[Dict[str, object]] = []
    for case, relations, tree in cases():
        records.append(
            dict(
                case,
                input=input_digest(relations, tree),
                **case_record(relations, tree),
            )
        )
    return dict(seed=SEED, cases=records)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default=GOLDEN_PATH)
    args = parser.parse_args()
    corpus = build_corpus()
    os.makedirs(os.path.dirname(args.output), exist_ok=True)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(corpus, handle, separators=(",", ":"), sort_keys=True)
        handle.write("\n")
    records = corpus["cases"]
    kinds = sorted({record["kind"] for record in records})
    print(
        f"wrote {args.output}: {len(records)} cases ({', '.join(kinds)}), "
        f"{sum(r['private'] == 'empty' for r in records)} empty results, "
        f"{sum(r['entries'] for r in records)} entries, "
        f"{sum(r['singletons'] for r in records)} singletons"
    )


if __name__ == "__main__":
    main()
