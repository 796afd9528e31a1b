"""Shared child slots: the swap and push-up kernels hand forests on by
refs, and every reader of a shared slot must see the plain form.

- random step sequences (swap, merge, absorb, push-up) over random
  factorisations, each output checked against the object engine of
  :mod:`repro.reference` -- counts, sizes, rows through both
  enumerators, and the plain form's encoded bytes;
- a swap of nodes that hang below a slot an earlier swap shared;
- a count above 2^63 read through a shared slot (the exact branch);
- validation of refs, ``nbytes`` on a fan-out, and the follow-ups of
  the end-to-end ``fplan_followup`` load under ``check_invariants``.
"""

from __future__ import annotations

import importlib.util
import os
import sys

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.core import arena as arena_mod
from repro.core.arena import ArenaError, ArenaRep, validate_arena
from repro.core.build import factorise
from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FTree
from repro.engine import FDB
from repro.ops import absorb, merge, push_up, swap
from repro.persist.codec import ArenaPoolEncoder
from repro.query.parser import parse_query
from repro.reference import from_product, to_object
from repro.reference import ops as reference_ops
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.service import QuerySession
from repro.workloads import random_database, random_query

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

OPS = {"swap": swap, "merge": merge, "absorb": absorb, "push": push_up}


def _factorised(seed: int, equalities: int) -> FactorisedRelation:
    db = random_database(
        relations=3, attributes=7, tuples=14, domain=4, seed=seed
    )
    query = random_query(db, equalities, seed=seed)
    engine = FDB(db)
    return engine.factorise_query(query, tree=engine.optimal_tree(query))


def _moves(tree: FTree):
    """Every valid step on ``tree``, in a fixed order."""
    moves = []
    nodes = list(tree.iter_nodes())
    for node in nodes:
        b = min(node.label)
        parent = tree.parent_of(node)
        if parent is not None:
            moves.append(("swap", (min(parent.label), b)))
            if tree.pushable(node):
                moves.append(("push", (b,)))
        for upper in tree.ancestors(node):
            moves.append(("absorb", (min(upper.label), b)))
    for i, left in enumerate(nodes):
        for right in nodes[i + 1 :]:
            lp, rp = tree.parent_of(left), tree.parent_of(right)
            if (lp is None) == (rp is None) and (
                lp is None or lp.label == rp.label
            ):
                moves.append(("merge", (min(left.label), min(right.label))))
    return moves


def _encoded(fr: FactorisedRelation, values) -> bytes:
    """``fr``'s saved body, with ids taken from one fixed pool."""
    encoder = ArenaPoolEncoder()
    for value in values:
        encoder.pool.intern(value)
    return encoder.body(fr)


def _check_against_reference(fr: FactorisedRelation, ref, values) -> None:
    assert fr.tree.key() == ref.tree.key()
    assert fr.is_empty() == ref.is_empty()
    if fr.is_empty():
        return
    fr.validate()
    assert fr.count() == ref.count()
    assert fr.size() == ref.size()
    assert fr.flat_data_elements() == ref.flat_data_elements()
    want = list(ref.rows())
    assert list(fr.rows()) == want
    rep = fr.rep
    order = fr.attributes
    assert list(arena_mod._iter_rows_walk(rep, order)) == want
    compiled = arena_mod._compile_rows(rep.skel, order, rep.shared)
    assert list(compiled(rep)) == want
    plain = FactorisedRelation(ref.tree, from_product(ref.tree, ref.data))
    assert _encoded(fr, values) == _encoded(plain, values)
    assert rep.dense().entry_count == plain.rep.entry_count


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.integers(0, 30), st.integers(0, 2), st.data())
def test_step_sequences_match_the_object_engine(seed, equalities, data):
    fr = _factorised(seed, equalities)
    assume(not fr.is_empty())
    values = list(fr.rep.pool)
    ref = to_object(fr)
    for _ in range(data.draw(st.integers(1, 6), label="steps")):
        moves = _moves(fr.tree)
        if not moves or fr.is_empty():
            break
        kind, args = data.draw(st.sampled_from(moves), label="step")
        fr = OPS[kind](fr, *args)
        ref = getattr(reference_ops, "push_up" if kind == "push" else kind)(
            ref, *args
        )
        _check_against_reference(fr, ref, values)


def _below_shared(fr: FactorisedRelation, label) -> bool:
    """Does the node ``label`` (or an ancestor) hang in a shared slot?"""
    skel = fr.rep.skel
    shared = fr.rep.shared
    node = skel.index[label]
    while node != -1:
        if node in shared:
            return True
        node = skel.parent[node]
    return False


def test_swaps_below_a_shared_slot():
    """Every swap of a parent over a child, then every swap of a pair
    that now hangs below a slot the first one shared (the forests the
    pairs handed on by refs), each output checked."""
    swapped = 0
    for seed in range(40):
        fr = _factorised(seed, 2)
        if fr.is_empty():
            continue
        values = list(fr.rep.pool)
        obj = to_object(fr)
        for kind, (a, b) in _moves(fr.tree):
            if kind != "swap":
                continue
            first = swap(fr, a, b)
            ref = reference_ops.swap(obj, a, b)
            _check_against_reference(first, ref, values)
            for kind, (x, y) in _moves(first.tree):
                label = first.tree.node_of(x).label
                if kind == "swap" and _below_shared(first, label):
                    _check_against_reference(
                        swap(first, x, y),
                        reference_ops.swap(ref, x, y),
                        values,
                    )
                    swapped += 1
    assert swapped >= 20  # the fixtures do reach shared subtrees


def _width(a: int, width: int) -> int:
    return width + 7 * a


def _star(values_a: int, width: int, leaves: int) -> FactorisedRelation:
    """``a -> (b, c1 .. c_leaves)``: every ``a`` pairs with two ``b``
    values (``a + 1`` and ``a + 2`` modulo 3) and with
    ``_width(a, width)`` values of every ``c``."""
    relations = [
        Relation.from_rows(
            "R0",
            ("a0", "b"),
            [(a, (a + k) % 3) for a in range(values_a) for k in (1, 2)],
        )
    ]
    for i in range(1, leaves + 1):
        relations.append(
            Relation.from_rows(
                f"R{i}",
                (f"a{i}", f"c{i}"),
                [
                    (a, c)
                    for a in range(values_a)
                    for c in range(_width(a, width))
                ],
            )
        )
    root = {f"a{i}" for i in range(leaves + 1)}
    tree = FTree.from_nested(
        [(root, [("b", [])] + [(f"c{i}", []) for i in range(1, leaves + 1)])],
        [set(rel.attributes) for rel in relations],
    )
    return FactorisedRelation(tree, factorise(relations, tree))


def test_count_above_int64_through_a_shared_slot():
    fr = _star(values_a=3, width=150, leaves=9)
    out = swap(fr, "a0", "b")  # b over a: a's leaves are shared
    assert out.rep.shared
    want = sum(2 * _width(a, 150) ** 9 for a in range(3))
    assert want > 2**63
    ref = reference_ops.swap(to_object(fr), "a0", "b")
    assert out.count() == want == ref.count() == fr.count()
    assert out.size() == ref.size() == out.rep.dense().singleton_count()
    assert out.flat_data_elements() == want * len(out.tree.attributes())


def test_plain_sizes_stay_exact_past_int64():
    """A chain whose every slot shares one range: ``n * w**d`` plain
    entries at depth ``d``, far past int64, from a few hundred held."""
    n, w, depth = 100, 100, 10
    names = [f"x{d}" for d in range(depth)]
    spec = (names[-1], [])
    for name in reversed(names[:-1]):
        spec = (name, [spec])
    tree = FTree.from_nested(
        [spec], [{a, b} for a, b in zip(names, names[1:])]
    )
    values = [list(range(n))] + [list(range(w))] * (depth - 1)
    offsets = [[[0, w]] for _ in range(depth - 1)] + [[]]
    refs = [[[0] * len(column)] for column in values[:-1]] + [[]]
    rep = ArenaRep(
        arena_mod._skeleton_of(tree), values, offsets, list(range(n)), refs
    )
    fr = FactorisedRelation(tree, rep).validate()
    assert rep.entry_count == n + w * (depth - 1)
    assert fr.size() == sum(n * w**d for d in range(depth)) > 2**63
    assert fr.count() == n * w ** (depth - 1)


def test_fan_out_swap_holds_its_input_plus_refs():
    """The eager swap copied ``a``'s forest once per (a, b) pair; the
    shared one holds no more than the input's columns plus one ref per
    pair (the swapped level has one entry per pair either way)."""
    relations = [
        Relation.from_rows(
            "R0", ("a0", "b"), [(a, b) for a in range(10) for b in range(4)]
        ),
        Relation.from_rows(
            "R1", ("a1", "c"), [(a, c) for a in range(10) for c in range(30)]
        ),
    ]
    tree = FTree.from_nested(
        [({"a0", "a1"}, [("b", []), ("c", [])])],
        [set(rel.attributes) for rel in relations],
    )
    fr = FactorisedRelation(tree, factorise(relations, tree))
    out = swap(fr, "a0", "b")
    refs = sum(
        ref.nbytes for slots in out.rep.refs for ref in slots
        if ref is not None
    )
    assert refs
    assert out.rep.nbytes() <= fr.rep.nbytes() + refs
    # The plain form copies c's 30-entry union for all 40 pairs.
    assert out.rep.dense().nbytes() > 3 * fr.rep.nbytes()


def test_validation_rejects_a_ref_outside_its_slot():
    fr = swap(_star(values_a=3, width=4, leaves=2), "a0", "b")
    rep = fr.rep
    validate_arena(fr.tree, rep)
    i, j = next(
        (i, j)
        for i, slots in enumerate(rep.refs)
        for j, ref in enumerate(slots)
        if ref is not None
    )
    for bad in (len(rep.offsets[i][j]) - 1, -1):
        refs = [list(slots) for slots in rep.refs]
        planted = refs[i][j].copy()
        planted[0] = bad
        refs[i][j] = planted
        broken = ArenaRep(rep.skel, rep.values, rep.offsets, rep.pool, refs)
        with pytest.raises(ArenaError, match="refs outside"):
            validate_arena(fr.tree, broken)
    refs = [list(slots) for slots in rep.refs]
    refs[i][j] = refs[i][j][:-1]
    broken = ArenaRep(rep.skel, rep.values, rep.offsets, rep.pool, refs)
    with pytest.raises(ArenaError, match="child refs for"):
        FactorisedRelation(fr.tree, broken).validate()


def _e2e_gen():
    path = os.path.join(ROOT, "benchmarks", "e2e", "gen.py")
    spec = importlib.util.spec_from_file_location("e2e_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_fplan_followups_hold_their_invariants():
    """Every follow-up of the smoke ``fplan_followup`` load, on a
    session that validates after every operator."""
    load = _e2e_gen().make_load("fplan_followup", 5, "smoke")
    db = Database()
    for name, attrs, rows in load.tables:
        db.add_rows(name, attrs, rows)
    with QuerySession(db, check_invariants=True) as session:
        views = {
            name: session.run(parse_query(sql)).factorised
            for name, sql in load.views.items()
        }
        for sql in load.queries:
            query = parse_query(sql)
            got = session.run_on(views[query.relations[0]], query)
            rep = got.factorised.rep
            if rep is not None:
                assert got.count() == arena_mod.tuple_count(rep.dense())
