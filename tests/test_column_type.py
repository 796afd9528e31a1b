"""One column type: every arena column is a read-only int64 ndarray.

:class:`~repro.core.arena.ArenaRep` publishes each column it is given
read-only, so whichever layer built an arena -- the factoriser, an
f-plan kernel, a union, a projection or selection, a decoder, pickle
-- its columns are int64 ndarrays that refuse writes.  Each source is
checked here, and so is a write into a column that two arenas share.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro import ops
from repro.core.arena import ArenaRep, ValuePool
from repro.core.build import factorise
from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FTree
from repro.engine import FDB
from repro.ops import arena_kernels
from repro.ops.arena_kernels import KernelChain, kernel_for
from repro.persist import load, save
from repro.persist.codec import ArenaPoolDecoder, ArenaPoolEncoder
from repro.query.query import ConstantCondition, Query
from repro.relational.relation import Relation
from repro.workloads import random_database
from tests.conftest import load_script

_candidate_steps = load_script("gen_fplan_golden").candidate_steps


def _columns(rep: ArenaRep):
    return [*rep.values, *(off for slots in rep.offsets for off in slots)]


def _assert_frozen(rep) -> None:
    assert isinstance(rep, ArenaRep)
    for column in _columns(rep):
        assert type(column) is np.ndarray
        assert column.dtype == np.int64
        assert not column.flags.writeable


def _join(seed: int) -> FactorisedRelation:
    db = random_database(
        relations=4, attributes=8, tuples=8, domain=5, seed=seed
    )
    query = Query.make(sorted(rel.name for rel in db)[:3])
    engine = FDB(db)
    fr = engine.factorise_query(query, tree=engine.optimal_tree(query))
    assert not fr.is_empty()
    return fr


def _chain():
    """``a -> b`` over one relation, and its two halves by row."""
    rows = [(a, 2 * a + d) for a in range(1, 5) for d in (0, 1)]
    whole = Relation.from_rows("R", ("a", "b"), rows)
    halves = [
        Relation.from_rows("R", ("a", "b"), part)
        for part in (rows[::2], rows[1::2])
    ]
    tree = FTree.from_nested([("a", [("b", [])])], [{"a", "b"}])
    return tree, whole, halves


def test_the_factoriser_publishes_frozen_columns():
    tree, whole, _ = _chain()
    _assert_frozen(factorise([whole], tree))  # a private pool
    _assert_frozen(factorise([whole], tree, ValuePool()))  # a shared one


@pytest.mark.parametrize("seed", [301, 302, 303])
def test_every_fplan_kernel_publishes_frozen_columns(seed):
    fr = _join(seed)
    rng = random.Random(seed)
    ran = set()
    for kind, args in _candidate_steps(fr.tree, rng, limit=64):
        kernel = kernel_for(fr.tree, kind, args)
        out = kernel.run(fr.rep)
        chain = kernel.kernels if isinstance(kernel, KernelChain) else [
            kernel
        ]
        ran.update(type(k).__name__ for k in chain)
        if out is None:
            continue
        _assert_frozen(out)
        normalise = kernel_for(kernel.out_tree, "normalise")
        if normalise.kernels:
            ran.add("PushKernel")
            _assert_frozen(normalise.run(out))
    assert {"SwapKernel", "MergeKernel", "RestrictKernel"} <= ran


def test_push_up_publishes_frozen_columns():
    """``c`` does not depend on ``a``, so normalising ``a -> {b, c}``
    pushes ``c`` up."""
    r = Relation.from_rows("R", ("a", "b"), [(1, 2), (1, 3), (2, 2)])
    s = Relation.from_rows("S", ("c",), [(7,), (8,)])
    tree = FTree.from_nested(
        [("a", [("b", []), ("c", [])])], [{"a", "b"}, {"c"}]
    )
    fr = FactorisedRelation(tree, factorise([r, s], tree))
    assert kernel_for(tree, "normalise").kernels
    _assert_frozen(ops.normalise(fr).rep)


def test_both_unions_publish_frozen_columns():
    tree, _, halves = _chain()
    private = [factorise([half], tree) for half in halves]
    shared_pool = ValuePool()
    shared = [factorise([half], tree, shared_pool) for half in halves]
    for left, right in (private, shared):
        _assert_frozen(arena_kernels.union_arenas([left, right]))
        _assert_frozen(arena_kernels.union_arena(left, right))


def test_product_projection_and_selection_publish_frozen_columns():
    fr = _join(302)
    s = Relation.from_rows("S", ("x", "y"), [(1, 2), (1, 3), (2, 2)])
    xy = FTree.from_nested([("x", [("y", [])])], [{"x", "y"}])
    pool = ValuePool()
    other = FactorisedRelation(xy, factorise([s], xy, pool))
    _assert_frozen(ops.product(fr, other).rep)  # pools apart: a shift
    ab, whole, _ = _chain()
    mine = FactorisedRelation(ab, factorise([whole], ab, pool))
    _assert_frozen(ops.product(mine, other).rep)  # one pool: adopted
    attrs = sorted(fr.tree.attributes())
    for keep in (attrs[:1], attrs[:-1], attrs[::2]):
        _assert_frozen(ops.project(fr, keep).rep)
    for op in ("=", "<", ">="):
        out = ops.select_constant(fr, ConstantCondition(attrs[0], op, 3))
        if not out.is_empty():
            _assert_frozen(out.rep)


def test_decoded_columns_are_frozen_views(tmp_path):
    fr = _join(303)
    path = str(tmp_path / "result.fdbp")
    save(fr, path)
    _assert_frozen(load(path).rep)
    wire = ArenaPoolDecoder().decode(ArenaPoolEncoder().encode(fr))
    _assert_frozen(wire.rep)


def test_an_unpickled_arena_has_frozen_columns():
    fr = _join(301)
    loaded = pickle.loads(pickle.dumps(fr))
    _assert_frozen(loaded.rep)
    assert list(loaded.rows()) == list(fr.rows())


# -- writes into a published column -------------------------------------------


def test_a_kernel_input_refuses_writes():
    fr = _join(301)
    kind, args = next(
        step
        for step in _candidate_steps(fr.tree, random.Random(1), 64)
        if step[0] == "swap"
    )
    before = list(fr.rows())
    arena_kernels.apply(fr, kind, args)
    for column in _columns(fr.rep):
        with pytest.raises(ValueError):
            column[0] = column[0] + 1
    assert list(fr.rows()) == before


def test_a_decoded_column_refuses_writes():
    fr = _join(302)
    wire = ArenaPoolDecoder().decode(ArenaPoolEncoder().encode(fr))
    for column in _columns(wire.rep):
        with pytest.raises(ValueError):
            column[0] = 0


def test_a_shared_column_refuses_writes():
    """``drop_subtrees`` and a selection's untouched levels hand their
    source's columns on: the column both arenas hold refuses a write
    through either."""
    fr = _join(303)
    leaf = next(n for n in fr.tree.iter_nodes() if not n.children)
    keep = sorted(fr.tree.attributes() - leaf.label)
    projected = ops.project(fr, keep)
    attr = min(next(iter(fr.tree.roots)).label)
    selected = ops.select_constant(fr, ConstantCondition(attr, "<", 10))
    for derived in (projected, selected):
        shared = [
            column
            for column in _columns(derived.rep)
            if any(np.shares_memory(column, c) for c in _columns(fr.rep))
        ]
        assert shared
        for column in shared:
            with pytest.raises(ValueError):
                column[0] = 0
