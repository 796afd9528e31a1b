"""Seeded property tests: the operator kernels equal their object twins.

Every f-plan operator is a columnar kernel on the arena
(:mod:`repro.ops.arena_kernels`); the object implementations in
:mod:`repro.reference.ops` are the differential oracle.  These tests
pin the equivalence on the shapes the kernels are easiest to get wrong:

- empty inputs (``None`` must propagate);
- single-row relations (every union is a singleton, every child range
  is ``[0, 1)``);
- deep chain skeletons (per-level recursion depth equals tree height);
- randomly drawn operator applications over seeded databases.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import pytest

from repro import ops
from repro.core.arena import ValuePool, validate_arena
from repro.core.build import factorise
from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FTree
from repro.engine import FDB
from repro.query.query import ConstantCondition, Query
from repro.reference import ObjectRelation, ReferenceEngine
from repro.reference import factorise as reference_factorise
from repro.reference import ops as reference_ops
from repro.workloads import random_database, random_spj_queries
from tests.conftest import REALISATIONS, load_script, realisation

#: Database seeds for the randomized sweeps.
SEEDS = [301, 302, 303]

_STEP_OPS = {
    "swap": (ops.swap, reference_ops.swap),
    "merge": (ops.merge, reference_ops.merge),
    "absorb": (ops.absorb, reference_ops.absorb),
}


def _database(seed: int, tuples: int = 6):
    return random_database(
        relations=4, attributes=8, tuples=tuples, domain=5, seed=seed
    )


def _twins(
    db, query: Query
) -> Tuple[FactorisedRelation, ObjectRelation]:
    """The same factorised join from the engine and from the
    reference, over one tree."""
    tree = FDB(db).optimal_tree(query)
    arena_fr = FDB(db).factorise_query(query, tree=tree)
    object_fr = ReferenceEngine(db).factorise_query(query, tree=tree)
    return arena_fr, object_fr


def _rows(fr) -> Tuple[tuple, List[tuple]]:
    order = tuple(sorted(fr.tree.attributes()))
    return order, sorted(set(fr.rows(order)))


def _assert_twin(
    arena_out: FactorisedRelation,
    object_out: ObjectRelation,
    context: str,
) -> None:
    assert (
        arena_out.tree.key() == object_out.tree.key()
    ), f"{context}: trees diverge"
    if arena_out.rep is not None:
        validate_arena(arena_out.tree, arena_out.rep)
    assert _rows(arena_out) == _rows(object_out), context


#: Applicable restructuring steps, mirroring the optimiser's neighbour
#: enumeration (swaps between parent/child, merges between siblings,
#: absorbs along ancestor paths); shared with the f-plan golden corpus,
#: which pins the arenas these sweeps produce.
_candidate_steps = load_script("gen_fplan_golden").candidate_steps


def _apply(kind: str, fr, args):
    """One restructuring step, by the kernel or by its object twin."""
    engine_op, reference_op = _STEP_OPS[kind]
    op = engine_op if isinstance(fr, FactorisedRelation) else reference_op
    return op(fr, *args)


# -- randomized operator sweep ------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_random_steps_match_object_twin(seed):
    db = _database(seed)
    rng = random.Random(seed)
    queries = random_spj_queries(
        db, 4, seed=seed + 500, max_relations=3, max_equalities=1
    )
    exercised = 0
    for query in queries:
        base = Query.make(query.relations)
        arena_fr, object_fr = _twins(db, base)
        for kind, args in _candidate_steps(arena_fr.tree, rng):
            arena_out = _apply(kind, arena_fr, args)
            object_out = _apply(kind, object_fr, args)
            _assert_twin(
                arena_out, object_out, f"seed {seed} {kind}{args}"
            )
            exercised += 1
    assert exercised >= 10


@pytest.mark.parametrize("seed", SEEDS)
def test_select_project_normalise_match_object_twin(seed):
    db = _database(seed)
    rng = random.Random(seed + 1)
    queries = random_spj_queries(
        db, 3, seed=seed + 700, max_relations=3, max_equalities=2
    )
    for query in queries:
        base = Query.make(query.relations)
        arena_fr, object_fr = _twins(db, base)
        attrs = sorted(arena_fr.tree.attributes())
        attr = rng.choice(attrs)
        for op in ("=", "<", ">="):
            cond = ConstantCondition(attr, op, rng.randint(1, 5))
            _assert_twin(
                ops.select_constant(arena_fr, cond),
                reference_ops.select_constant(object_fr, cond),
                f"seed {seed} select {cond}",
            )
        keep = rng.sample(attrs, rng.randint(1, len(attrs)))
        _assert_twin(
            ops.project(arena_fr, keep),
            reference_ops.project(object_fr, keep),
            f"seed {seed} project {keep}",
        )
        _assert_twin(
            ops.normalise(arena_fr),
            reference_ops.normalise(object_fr),
            f"seed {seed} normalise",
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_union_and_product_match_object_twin(seed):
    db = _database(seed)
    names = sorted(rel.name for rel in db)
    # Union: factorise the same join over two halves of one relation
    # (the shard decomposition union is exact for).
    split_name = names[0]
    split = db[split_name]
    half = max(1, len(split) // 2)
    halves = []
    for rows in (split.rows[:half], split.rows[half:]):
        view = _database(seed)
        view.delete_rows(
            split_name,
            rows=[r for r in split.rows if r not in rows],
        )
        halves.append(view)
    query = Query.make(names[:2])
    tree = FDB(db).optimal_tree(query)
    arena_parts = [
        FDB(h).factorise_query(query, tree=tree) for h in halves
    ]
    object_parts = [
        ReferenceEngine(h).factorise_query(query, tree=tree)
        for h in halves
    ]
    _assert_twin(
        ops.union(*arena_parts),
        reference_ops.union(*object_parts),
        f"seed {seed} union",
    )
    # Product: two joins over disjoint relation subsets.
    qa, qb = Query.make(names[:2]), Query.make(names[2:])
    a_arena, a_object = _twins(db, qa)
    b_arena, b_object = _twins(db, qb)
    _assert_twin(
        ops.product(a_arena, b_arena),
        reference_ops.product(a_object, b_object),
        f"seed {seed} product",
    )


# -- empty inputs -------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_empty_inputs_stay_empty_and_match(seed):
    db = _database(seed)
    rng = random.Random(seed + 2)
    names = sorted(rel.name for rel in db)
    base = Query.make(names[:3])
    arena_fr, object_fr = _twins(db, base)
    # An impossible range selection empties both twins without
    # restructuring the tree (an ``=`` would mark the node constant).
    attr = sorted(arena_fr.tree.attributes())[0]
    nope = ConstantCondition(attr, "<", -10_000)
    arena_empty = ops.select_constant(arena_fr, nope)
    object_empty = reference_ops.select_constant(object_fr, nope)
    assert arena_empty.is_empty() and object_empty.is_empty()
    for kind, args in _candidate_steps(arena_empty.tree, rng, limit=6):
        arena_out = _apply(kind, arena_empty, args)
        object_out = _apply(kind, object_empty, args)
        context = f"seed {seed} empty {kind}{args}"
        assert arena_out.is_empty(), context
        assert (
            arena_out.tree.key() == object_out.tree.key()
        ), context
    attrs = sorted(arena_empty.tree.attributes())
    keep = attrs[: max(1, len(attrs) // 2)]
    arena_proj = ops.project(arena_empty, keep)
    object_proj = reference_ops.project(object_empty, keep)
    assert arena_proj.is_empty()
    assert arena_proj.tree.key() == object_proj.tree.key()
    # Union with an empty side preserves the non-empty input verbatim.
    assert ops.union(arena_empty, arena_fr).count() == arena_fr.count()
    assert ops.union(arena_fr, arena_empty).count() == arena_fr.count()


# -- single-row relations -----------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_single_row_relations_match(seed):
    db = _database(seed, tuples=1)
    rng = random.Random(seed + 3)
    names = sorted(rel.name for rel in db)
    base = Query.make(names[:3])
    arena_fr, object_fr = _twins(db, base)
    for kind, args in _candidate_steps(arena_fr.tree, rng, limit=6):
        _assert_twin(
            _apply(kind, arena_fr, args),
            _apply(kind, object_fr, args),
            f"seed {seed} single-row {kind}{args}",
        )


# -- deep chain skeletons -----------------------------------------------------


def _chain(depth: int, rows_per_level: int = 2):
    """A depth-``depth`` chain f-tree with matching relations."""
    from repro.relational.relation import Relation

    attrs = [f"x{i:03d}" for i in range(depth)]
    nested = None
    for attr in reversed(attrs):
        nested = (attr, [nested] if nested else [])
    edges = [
        {attrs[i], attrs[i + 1]} for i in range(depth - 1)
    ]
    tree = FTree.from_nested([nested], edges=edges)
    relations = [
        Relation.from_rows(
            f"L{i:03d}",
            (attrs[i], attrs[i + 1]),
            [(v, v) for v in range(rows_per_level)],
        )
        for i in range(depth - 1)
    ]
    return tree, relations


def test_deep_chain_skeleton_matches():
    depth = 60
    tree, relations = _chain(depth)
    arena_fr = FactorisedRelation(tree, factorise(relations, tree))
    object_fr = ObjectRelation(
        tree, reference_factorise(relations, tree)
    )
    # Swap at the very bottom of the chain, then renormalise: the
    # kernels recurse the full spine both ways.
    a, b = f"x{depth - 2:03d}", f"x{depth - 1:03d}"
    arena_out = ops.normalise(ops.swap(arena_fr, a, b))
    object_out = reference_ops.normalise(
        reference_ops.swap(object_fr, a, b)
    )
    _assert_twin(arena_out, object_out, "deep chain swap+normalise")


# -- only the compared columns are ranked --------------------------------------


@pytest.mark.parametrize("name", REALISATIONS)
@pytest.mark.parametrize("shared", [False, True])
def test_a_str_column_elsewhere_leaves_int_operators_alone(shared, name):
    """A pool -- a shared :class:`ValuePool` above all -- holds the
    values of every attribute.  The operators rank the ids of the
    columns they compare, never the pool: ``str`` values that sit
    beside the ``int`` operands (here even in the payload the swap
    moves) are not their business."""
    from repro.relational.relation import Relation

    rng = random.Random(7)
    relations = [
        Relation.from_rows(
            "R",
            ("a", "b", "s"),
            [
                (rng.randint(1, 4), rng.randint(1, 4), rng.choice("xyz"))
                for _ in range(20)
            ],
        ),
        Relation.from_rows(
            "S",
            ("c", "d"),
            [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(10)],
        ),
    ]
    tree = FTree.from_nested(
        [("a", [("b", [("s", [])])]), ("c", [("d", [])])],
        edges=[{"a", "b", "s"}, {"c", "d"}],
    )
    pool = ValuePool(["unrelated", 0.5]) if shared else None
    arena_fr = FactorisedRelation(tree, factorise(relations, tree, pool))
    object_fr = ObjectRelation(tree, reference_factorise(relations, tree))
    assert {type(value) for value in arena_fr.rep.pool} >= {int, str}
    for kind, args in (
        ("swap", ("a", "b")),
        ("merge", ("a", "c")),
        ("absorb", ("a", "b")),
        ("absorb", ("c", "d")),
    ):
        with realisation(name):
            arena_out = _apply(kind, arena_fr, args)
        _assert_twin(
            arena_out,
            _apply(kind, object_fr, args),
            f"{kind}{args} beside a str column",
        )
    # Values that do not compare *within* the operands still raise.
    with realisation(name), pytest.raises(TypeError):
        ops.absorb(arena_fr, "a", "s")


# -- whole-plan compilation ---------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_compiled_plans_match_object_stepwise(seed):
    """``FPlan.execute`` runs the fused compiled chain; it must agree
    with the reference's operator-at-a-time replay."""
    db = _database(seed)
    queries = random_spj_queries(
        db, 5, seed=seed + 900, max_relations=3, max_equalities=3
    )
    arena_engine = FDB(db)
    object_engine = ReferenceEngine(db)
    with_steps = 0
    for index, query in enumerate(queries):
        base = Query.make(query.relations)
        arena_fr, object_fr = _twins(db, base)
        followup = Query.make(
            [],
            equalities=[
                (eq.left, eq.right) for eq in query.equalities
            ],
        )
        arena_out, arena_plan = arena_engine.evaluate_on(
            arena_fr, followup
        )
        object_out, object_plan = object_engine.evaluate_on(
            object_fr, followup
        )
        assert str(arena_plan) == str(object_plan)
        if arena_plan.steps:
            with_steps += 1
        _assert_twin(
            arena_out, object_out, f"seed {seed} plan {arena_plan}"
        )
        # Same plan executed twice hits the compiled-plan cache and
        # must stay deterministic.
        rerun = arena_plan.execute(arena_fr)
        assert _rows(rerun) == _rows(arena_out)
    assert with_steps >= 1, "no restructuring plan exercised"
