#!/usr/bin/env python3
"""Generate ``tests/data/fplan_golden.json``: the f-plan kernel identity corpus.

What the restructuring operators write -- swap, merge, absorb, push-up,
and the chains built from them -- is contractual in the same way
``factorise``'s and ``union_all``'s outputs are
(``scripts/gen_factorise_golden.py``, ``scripts/gen_union_golden.py``):
results are cached, persisted and shipped, so a faster kernel must
produce the very same columns, not just an equivalent representation --
including which value id heads a swapped group when ``1`` / ``True`` /
``1.0`` meet in one union.  This script pins that contract as data.
Every case is a factorised input plus a sequence of operator steps
applied through the public :mod:`repro.ops` functions; the corpus
records a SHA-256 over ``values`` / ``child_lo`` / ``child_hi`` /
``pool`` and the entry and tuple counts **after every step**, and for
sequences made of f-plan steps the digest of the fused
``FPlan.execute`` as well.  Kinds:

- ``leaf_swap``: ``B`` is ``A``'s only subtree and a leaf, at the root
  and below a parent;
- ``swap_payload``: ``A`` carries ``E_a``, ``B`` carries ``T_b`` and
  ``T_ab`` (each with a subtree of its own), at the root and at depth 2
  and 3, swapped there and back;
- ``merge``: siblings with child forests, below a parent (some
  occurrences empty, some survive), at root level, and with disjoint
  domains (the relation empties);
- ``absorb``: ``A`` three and four levels above ``B`` with side
  branches on the way and levels above ``A``, so pruning cascades to
  the root; one case prunes everything;
- ``push``: an independent child hoisted at the root and at depth 2,
  and constant selections whose normalisation replays push-ups;
- ``mixed``: the shapes above over ``1`` / ``True`` / ``1.0`` values;
- ``empty`` / ``single_row`` / ``deep_chain``: the edge shapes of
  ``tests/test_arena_ops.py``;
- ``sweep`` / ``plan``: that file's seeded candidate-step sweeps and
  optimiser-chosen follow-up plans (seeds 301-303);
- ``walk``: random multi-step walks, so kernels also run on other
  kernels' outputs;
- ``bench``: a mid-sized combinatorial input in the ``fplan_followup``
  shape.

``tests/test_fplan_golden.py`` rebuilds every case and asserts
equality with the committed
file, which was generated **at the parent commit of the
level-synchronous f-plan kernels** (PR 19; the kernels were
per-occurrence walks with ``mark`` / ``rollback`` there) and committed
unchanged::

    PYTHONPATH=<parent checkout>/src python scripts/gen_fplan_golden.py
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from itertools import combinations
from typing import Iterator, List, Optional, Sequence, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen_factorise_golden as base  # noqa: E402 - sibling script

from repro import ops  # noqa: E402
from repro.core.arena import tuple_count  # noqa: E402
from repro.core.build import factorise  # noqa: E402
from repro.core.factorised import FactorisedRelation  # noqa: E402
from repro.core.ftree import FTree  # noqa: E402
from repro.engine import FDB  # noqa: E402
from repro.optimiser.fplan import FPlan, Step  # noqa: E402
from repro.query.query import ConstantCondition, Query  # noqa: E402
from repro.relational.relation import Relation  # noqa: E402
from repro.workloads import random_database, random_spj_queries  # noqa: E402

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    os.pardir,
    "tests",
    "data",
    "fplan_golden.json",
)

SEED = base.SEED + 19

#: ``tests/test_arena_ops.py``'s database seeds.
ARENA_OPS_SEEDS = (301, 302, 303)

#: The step kinds an :class:`FPlan` is made of.
PLAN_KINDS = ("swap", "merge", "absorb", "push")

StepSpec = Tuple[str, tuple]
Case = Tuple[dict, FactorisedRelation, List[StepSpec]]


# -- applying and recording steps ----------------------------------------------


def apply_step(
    fr: FactorisedRelation, kind: str, args: tuple
) -> FactorisedRelation:
    if kind == "swap":
        return ops.swap(fr, *args)
    if kind == "merge":
        return ops.merge(fr, *args)
    if kind == "absorb":
        return ops.absorb(fr, *args)
    if kind == "push":
        return ops.push_up(fr, *args)
    if kind == "normalise":
        return ops.normalise(fr)
    if kind == "select":
        return ops.select_constant(fr, ConstantCondition(*args))
    raise ValueError(f"unknown step kind {kind!r}")


def _state(fr: FactorisedRelation) -> dict:
    """The plain form's digest, entries and tuple count."""
    arena = None if fr.rep is None else fr.rep.dense()
    return dict(
        arena=base.arena_digest(arena),
        entries=0 if arena is None else arena.entry_count,
        tuples=tuple_count(arena),
    )


def outputs_of(
    fr: FactorisedRelation, steps: Sequence[StepSpec]
) -> Iterator[FactorisedRelation]:
    """The relation after every step of the sequence, and last -- for
    a sequence of f-plan steps -- what the fused plan produces."""
    source = fr
    for kind, args in steps:
        fr = apply_step(fr, kind, args)
        yield fr
    if steps and all(kind in PLAN_KINDS for kind, _ in steps):
        plan = FPlan(source.tree, [Step(kind, args) for kind, args in steps])
        yield plan.execute(source)


def case_record(
    case: dict, fr: FactorisedRelation, steps: Sequence[StepSpec]
) -> dict:
    """Everything the corpus pins about one case."""
    record = dict(case, input=_state(fr), steps=[])
    outputs = list(outputs_of(fr, steps))
    for (kind, args), out in zip(steps, outputs):
        record["steps"].append(
            dict(
                step=f"{kind}({', '.join(map(str, args))})",
                tree=out.tree.pretty_inline(),
                **_state(out),
            )
        )
    if len(outputs) > len(steps):
        record["fused"] = base.arena_digest(outputs[-1].rep)
    return record


# -- building inputs -----------------------------------------------------------


def _relations(
    schemas: Sequence[Tuple[str, ...]],
    rng: random.Random,
    rows: int,
    domain: int,
    mixed: bool = False,
) -> List[Relation]:
    out = [
        Relation.from_rows(
            "R_" + "_".join(attrs),
            attrs,
            [
                tuple(rng.randint(1, domain) for _ in attrs)
                for _ in range(rows)
            ],
        )
        for attrs in schemas
    ]
    return base._mixed_relations(out, rng) if mixed else out


def _shaped(
    nested: list,
    schemas: Sequence[Tuple[str, ...]],
    rng: random.Random,
    rows: int,
    domain: int,
    mixed: bool = False,
) -> FactorisedRelation:
    """Random relations with the given schemas, factorised over the
    given (not necessarily normalised) f-tree."""
    tree = FTree.from_nested(nested, edges=[set(attrs) for attrs in schemas])
    relations = _relations(schemas, rng, rows, domain, mixed)
    return FactorisedRelation(tree, factorise(relations, tree))


def _above(levels: int, nested: tuple, top: str):
    """``nested`` below a chain of ``levels`` extra nodes g0 -> g1 ->
    ... whose last one joins ``top``; returns (spec, extra schemas)."""
    schemas = []
    names = [f"g{i}" for i in range(levels)]
    for upper, lower in zip(names, names[1:] + [top]):
        schemas.append((upper, lower))
    for name in reversed(names):
        nested = (name, [nested])
    return nested, schemas


def _leaf_swaps(rng: random.Random, mixed: bool) -> Iterator[Case]:
    for levels in (0, 1):
        nested, extra = _above(levels, ("a", [("b", [])]), "a")
        for rows, domain in ((1, 1), (12, 4), (60, 9)):
            fr = _shaped([nested], [("a", "b")] + extra, rng, rows, domain, mixed)
            yield (
                dict(kind="leaf_swap", levels=levels, rows=rows),
                fr,
                [("swap", ("a", "b")), ("swap", ("b", "a"))],
            )


def _payload_swaps(rng: random.Random, mixed: bool) -> Iterator[Case]:
    # A carries E_a (e -> f), B carries T_b (t -> v: independent of A)
    # and T_ab (u -> w: in a relation with A).
    inner = (
        "a",
        [
            ("b", [("t", [("v", [])]), ("u", [("w", [])])]),
            ("e", [("f", [])]),
        ],
    )
    schemas = [
        ("a", "b"), ("a", "e"), ("e", "f"), ("b", "t"), ("t", "v"),
        ("a", "b", "u"), ("u", "w"),
    ]
    for levels in (0, 2, 3):
        nested, extra = _above(levels, inner, "a")
        for rows, domain in ((8, 2), (30, 3), (90, 5)):
            fr = _shaped([nested], schemas + extra, rng, rows, domain, mixed)
            yield (
                dict(kind="swap_payload", levels=levels, rows=rows),
                fr,
                [("swap", ("a", "b")), ("swap", ("b", "a"))],
            )


def _merges(rng: random.Random, mixed: bool) -> Iterator[Case]:
    below = [("p", [("a", [("c", [])]), ("b", [("d", [])]), ("s", [])])]
    schemas = [("p", "a"), ("a", "c"), ("p", "b"), ("b", "d"), ("p", "s")]
    for rows, domain in ((6, 3), (20, 4), (60, 8)):
        fr = _shaped(below, schemas, rng, rows, domain, mixed)
        yield dict(kind="merge", at="below", rows=rows), fr, [("merge", ("a", "b"))]
    deeper, extra = _above(2, below[0], "p")
    fr = _shaped([deeper], schemas + extra, rng, 40, 5, mixed)
    yield dict(kind="merge", at="depth3", rows=40), fr, [("merge", ("b", "a"))]
    roots = [("a", [("c", [])]), ("b", [("d", [])]), ("s", [])]
    root_schemas = [("a", "c"), ("b", "d"), ("s",)]
    for rows, domain in ((5, 3), (25, 9)):
        fr = _shaped(roots, root_schemas, rng, rows, domain, mixed)
        yield dict(kind="merge", at="roots", rows=rows), fr, [("merge", ("a", "b"))]
    # Disjoint domains: no occurrence survives.
    tree = FTree.from_nested(below, edges=[set(s) for s in schemas])
    relations = _relations(schemas, rng, 12, 3)
    shifted = [
        Relation.from_rows(
            r.name,
            r.attributes,
            [(row[0], row[1] + 10) for row in r.rows],
        )
        if r.attributes == ("p", "b")
        else r
        for r in relations
    ]
    fr = FactorisedRelation(tree, factorise(shifted, tree))
    yield dict(kind="merge", at="disjoint", rows=12), fr, [("merge", ("a", "b"))]


def _absorbs(rng: random.Random, mixed: bool) -> Iterator[Case]:
    # a -> x -> y -> b -> c, side branches at a, x and y.
    inner = (
        "a",
        [
            ("x", [("y", [("b", [("c", [])]), ("k", [])]), ("j", [])]),
            ("i", []),
        ],
    )
    schemas = [
        ("a", "x"), ("x", "y"), ("y", "b"), ("b", "c"),
        ("a", "i"), ("x", "j"), ("y", "k"),
    ]
    for levels in (0, 2):
        nested, extra = _above(levels, inner, "a")
        for rows, domain in ((6, 2), (24, 3), (80, 5)):
            fr = _shaped([nested], schemas + extra, rng, rows, domain, mixed)
            yield (
                dict(kind="absorb", levels=levels, rows=rows),
                fr,
                [("absorb", ("a", "b"))],
            )
    # A directly above B's parent, and B a leaf.
    short = [("r", [("a", [("x", [("b", [])])])])]
    short_schemas = [("r", "a"), ("a", "x"), ("x", "b")]
    fr = _shaped(short, short_schemas, rng, 30, 4, mixed)
    yield dict(kind="absorb", levels=1, rows=30), fr, [("absorb", ("a", "b"))]
    fr = _shaped(short, short_schemas, rng, 30, 4, mixed)
    yield dict(kind="absorb", levels=1, rows=30), fr, [("absorb", ("r", "b"))]
    # Nothing matches: b's values sit outside a's domain.
    tree = FTree.from_nested(short, edges=[set(s) for s in short_schemas])
    relations = _relations(short_schemas, rng, 10, 3)
    shifted = [
        Relation.from_rows(
            r.name, r.attributes, [(row[0], row[1] + 10) for row in r.rows]
        )
        if r.attributes == ("x", "b")
        else r
        for r in relations
    ]
    fr = FactorisedRelation(tree, factorise(shifted, tree))
    yield dict(kind="absorb", levels=1, rows=10), fr, [("absorb", ("a", "b"))]


def _pushes(rng: random.Random, mixed: bool) -> Iterator[Case]:
    # b (with its subtree) does not depend on a.
    root = [("a", [("b", [("c", [])]), ("e", [])])]
    root_schemas = [("a", "e"), ("b", "c")]
    for rows, domain in ((1, 2), (15, 4)):
        fr = _shaped(root, root_schemas, rng, rows, domain, mixed)
        yield dict(kind="push", at="root", rows=rows), fr, [("push", ("b",))]
    deep = [("p", [("q", [("a", [("b", [("c", [])]), ("e", [])])])])]
    deep_schemas = [("p", "q"), ("q", "a"), ("a", "e"), ("q", "b"), ("b", "c")]
    for rows, domain in ((10, 2), (50, 4)):
        fr = _shaped(deep, deep_schemas, rng, rows, domain, mixed)
        yield (
            dict(kind="push", at="depth2", rows=rows),
            fr,
            [("push", ("b",)), ("swap", ("q", "b"))],
        )
    # Constant selections: filter, then replayed push-ups.
    chain = [("p", [("q", [("a", [("b", [])])])])]
    chain_schemas = [("p", "q"), ("q", "a"), ("a", "b")]
    for attr in ("a", "b", "q"):
        fr = _shaped(chain, chain_schemas, rng, 40, 4, mixed)
        yield (
            dict(kind="push", at="select", rows=40),
            fr,
            [("select", (attr, "=", 2)), ("normalise", ())],
        )


def candidate_steps(
    tree: FTree, rng: random.Random, limit: int = 8
) -> List[StepSpec]:
    """Applicable restructuring steps, drawn as
    ``tests/test_arena_ops.py`` draws them."""
    steps: List[StepSpec] = []
    nodes = list(tree.iter_nodes())
    for node in nodes:
        parent = tree.parent_of(node)
        if parent is not None:
            steps.append(("swap", (min(parent.label), min(node.label))))
    for left, right in combinations(nodes, 2):
        parent_l = tree.parent_of(left)
        parent_r = tree.parent_of(right)
        same_parent = (parent_l is None and parent_r is None) or (
            parent_l is not None
            and parent_r is not None
            and parent_l.label == parent_r.label
        )
        if same_parent:
            steps.append(("merge", (min(left.label), min(right.label))))
        elif tree.is_ancestor(left, right):
            steps.append(("absorb", (min(left.label), min(right.label))))
    rng.shuffle(steps)
    return steps[:limit]


def _arena_ops_database(seed: int, tuples: int = 6):
    return random_database(
        relations=4, attributes=8, tuples=tuples, domain=5, seed=seed
    )


def _join(db, relations) -> FactorisedRelation:
    query = Query.make(relations)
    engine = FDB(db)
    return engine.factorise_query(query, tree=engine.optimal_tree(query))


def _arena_ops_cases() -> Iterator[Case]:
    for seed in ARENA_OPS_SEEDS:
        db = _arena_ops_database(seed)
        rng = random.Random(seed)
        for n, query in enumerate(
            random_spj_queries(
                db, 4, seed=seed + 500, max_relations=3, max_equalities=1
            )
        ):
            fr = _join(db, query.relations)
            for step in candidate_steps(fr.tree, rng):
                yield dict(kind="sweep", seed=seed, query=n), fr, [step]
        names = sorted(rel.name for rel in db)
        # An impossible range selection empties the relation without
        # restructuring the tree; every operator then only moves trees.
        fr = _join(db, names[:3])
        attr = sorted(fr.tree.attributes())[0]
        empty = ops.select_constant(fr, ConstantCondition(attr, "<", -10_000))
        rng = random.Random(seed + 2)
        for step in candidate_steps(empty.tree, rng, limit=6):
            yield dict(kind="empty", seed=seed), empty, [step]
        single = _join(_arena_ops_database(seed, tuples=1), names[:3])
        rng = random.Random(seed + 3)
        for step in candidate_steps(single.tree, rng, limit=6):
            yield dict(kind="single_row", seed=seed), single, [step]
        for n, query in enumerate(
            random_spj_queries(
                db, 5, seed=seed + 900, max_relations=3, max_equalities=3
            )
        ):
            fr = _join(db, query.relations)
            plan = FDB(db).plan_for(
                fr.tree, [(eq.left, eq.right) for eq in query.equalities]
            )
            yield (
                dict(kind="plan", seed=seed, query=n, plan=str(plan)),
                fr,
                [(step.kind, step.args) for step in plan.steps],
            )


def _deep_chain() -> Case:
    depth = 60
    attrs = [f"x{i:03d}" for i in range(depth)]
    nested = None
    for attr in reversed(attrs):
        nested = (attr, [nested] if nested else [])
    tree = FTree.from_nested(
        [nested], edges=[{attrs[i], attrs[i + 1]} for i in range(depth - 1)]
    )
    relations = [
        Relation.from_rows(
            f"L{i:03d}", (attrs[i], attrs[i + 1]), [(v, v) for v in range(2)]
        )
        for i in range(depth - 1)
    ]
    fr = FactorisedRelation(tree, factorise(relations, tree))
    steps = [
        ("swap", (attrs[-2], attrs[-1])),
        ("normalise", ()),
        ("absorb", (attrs[0], attrs[-2])),
    ]
    return dict(kind="deep_chain", depth=depth), fr, steps


def _walks() -> Iterator[Case]:
    for i in range(12):
        seed = SEED + 1_000 + i
        db = random_database(
            relations=3 + i % 2,
            attributes=7 + i % 3,
            tuples=8 + 4 * i,
            domain=3 + i % 3,
            distribution="zipf" if i % 3 == 0 else "uniform",
            seed=seed,
        )
        names = sorted(rel.name for rel in db)
        fr = _join(db, names[: 2 + i % 2])
        rng = random.Random(seed)
        steps: List[StepSpec] = []
        current = fr
        for _ in range(4):
            candidates = candidate_steps(current.tree, rng, limit=1)
            if not candidates:
                break
            steps.append(candidates[0])
            current = apply_step(current, *candidates[0])
        yield dict(kind="walk", seed=seed), fr, steps


def _bench() -> Iterator[Case]:
    # The fplan_followup shape at a size the kernels replay
    # in well under a second: two binary and two ternary uniform
    # relations joined by one or two equalities, then follow-up plans.
    for i in range(3):
        seed = SEED + 2_000 + i
        rng = random.Random(seed)
        db = random_database(
            relations=4, attributes=10, tuples=60, domain=8, seed=seed
        )
        attrs = sorted(db.attributes())
        view = random_spj_queries(
            db, 1, seed=seed, max_relations=4, max_equalities=1 + i % 2
        )[0]
        query = Query.make(
            sorted(rel.name for rel in db),
            equalities=[(eq.left, eq.right) for eq in view.equalities],
        )
        engine = FDB(db)
        fr = engine.factorise_query(query, tree=engine.optimal_tree(query))
        for n in range(4):
            pairs = [tuple(rng.sample(attrs, 2)) for _ in range(1 + n % 3)]
            plan = engine.plan_for(fr.tree, pairs)
            yield (
                dict(kind="bench", seed=seed, followup=n, plan=str(plan)),
                fr,
                [(step.kind, step.args) for step in plan.steps],
            )


def cases() -> Iterator[Case]:
    """Every (descriptor, input, steps), deterministically."""
    rng = random.Random(SEED)
    for make in (_leaf_swaps, _payload_swaps, _merges, _absorbs, _pushes):
        yield from make(rng, False)
    for make in (_leaf_swaps, _payload_swaps, _merges, _absorbs, _pushes):
        for case, fr, steps in make(rng, True):
            yield dict(case, kind="mixed", shape=case["kind"]), fr, steps
    yield from _arena_ops_cases()
    yield _deep_chain()
    yield from _walks()
    yield from _bench()


def build_corpus() -> dict:
    """The whole corpus as the JSON document (deterministic)."""
    return dict(
        seed=SEED,
        cases=[case_record(case, fr, steps) for case, fr, steps in cases()],
    )


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
    steps = [step for record in records for step in record["steps"]]
    kinds = sorted({record["kind"] for record in records})
    print(
        f"wrote {args.output}: {len(records)} cases ({', '.join(kinds)}), "
        f"{len(steps)} steps, "
        f"{sum(step['arena'] == 'empty' for step in steps)} empty outputs, "
        f"{sum(step['entries'] for step in steps)} entries out"
    )


if __name__ == "__main__":
    main()
