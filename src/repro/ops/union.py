"""Union of f-representations over a shared f-tree.

Two callers need a union, and they get two contracts -- chosen by call
site, not by a flag:

**Shard recombination** -- :func:`union_all`.  The sharded execution
path (:mod:`repro.exec`) evaluates one join query per shard -- each
shard database holds a disjoint horizontal partition of a single
*fan-out* relation plus full copies of the others -- and recombines the
k per-shard factorised results here.  The parts are of comparable size
and mostly *overlap*: every shard re-derives the subtrees that do not
depend on the fan-out relation.  The parts are therefore merged in
one level-synchronous pass, one bulk sort-and-group per f-tree node
(:func:`repro.ops.arena_kernels.union_arenas`): every output column is
written once, where folding the pairwise merge would decode and
rewrite the growing result k-1 times.

**Delta merge** -- :func:`union`.  Incremental maintenance
(:func:`repro.ivm.apply_deltas`) unions a cached result of hundreds of
entries with a delta term of a handful.  The pairwise merge
(:func:`repro.ops.arena_kernels.union_arena`: a decoded two-pointer
walk per union occurrence, one-sided runs bulk-copied) does work
proportional to the small side and wins there: on the 144 (cached
result, delta) pairs of one ``append_requery`` benchmark round (median
275 against 9 entries) it takes 0.08 ms per union, the level pass 0.23.

Both are the same *structural* union, byte for byte
(``tests/test_union_kway.py`` holds the fold of the one against the
other): the unions of a node merge by value, and where both sides
carry the same value their child forests union factor-wise; the
left-most side's value id survives.  :func:`repro.reference.ops.union`
spells that out on objects.

Factor-wise union of products is **not** sound for arbitrary inputs:
``(B1 x C1) u (B2 x C2)`` only equals ``(B1 u B2) x (C1 u C2)`` when
the branches are compatible.  It *is* exact for per-shard join
results, by the path constraint: the fan-out relation's attribute
classes lie on a single root-to-leaf path of the f-tree, so at every
branching point at most one child subtree depends on the partitioned
relation -- conditioned on the (shared) ancestor values, every other
subtree holds identical content on all shards, and the union
distributes over the product.  (That is also why the union is exact
*node by node*, which is what the level-synchronous pass relies on.)
The operator therefore requires union *before* projection (projection
may destroy the single-path property);
:class:`~repro.exec.ParallelExecutor` projects after recombining.

The cross-engine differential harness (``tests/test_differential.py``)
checks the sharded path against the flat and SQLite engines over the
random SPJ space, per the PR-1 policy.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.factorised import FactorisedRelation
from repro.obs.metrics import Tally
from repro.ops import arena_kernels
from repro.ops.base import OperatorError

#: The ``union`` metrics namespace, registered by every
#: :class:`~repro.service.session.QuerySession`: process-wide tallies
#: of arena shard recombinations, folded in once per :func:`union_all`.
#: ``entries_in`` / ``entries_out`` is the factor by which a fan-out
#: replicated work: every shard re-derives the subtrees that do not
#: depend on the partitioned relation, and the union collapses the
#: copies.  ``ids_remapped`` are the entries whose value ids went
#: through a table because their part did not share the first part's
#: pool (0 for in-process shards).  All repeat exactly for a fixed
#: sequence of calls.
COUNTERS = Tally(
    ("calls", "parts", "entries_in", "entries_out", "ids_remapped")
)


def _require_same_tree(
    left: FactorisedRelation, right: FactorisedRelation
) -> None:
    if left.tree is not right.tree and left.tree.key() != right.tree.key():
        raise OperatorError(
            "union requires identical f-trees: "
            f"{left.tree.pretty_inline()} vs {right.tree.pretty_inline()}"
        )


def union(
    left: FactorisedRelation, right: FactorisedRelation
) -> FactorisedRelation:
    """Union two factorised relations over the *same* f-tree: the
    **delta merge** (see the module docstring).

    Exactness requires branch-compatible inputs -- see the module
    docstring.
    """
    _require_same_tree(left, right)
    if left.is_empty():
        return right
    if right.is_empty():
        return left
    return FactorisedRelation(
        left.tree, arena_kernels.union_arena(left.rep, right.rep)
    )


def union_all(
    parts: Sequence[FactorisedRelation],
) -> Optional[FactorisedRelation]:
    """Union many factorised relations over the same f-tree: the
    **shard recombination** (see the module docstring); ``None`` for
    an empty list.

    Empty parts drop out and a lone non-empty part is returned as is;
    the others are merged in one level-synchronous pass
    (:func:`repro.ops.arena_kernels.union_arenas`), tallied once in
    :data:`COUNTERS`.
    """
    parts = list(parts)
    if not parts:
        return None
    for part in parts:
        _require_same_tree(parts[0], part)
    live = [part for part in parts if not part.is_empty()]
    if len(live) < 2:
        return live[0] if live else parts[-1]
    tree = live[0].tree
    arenas = [part.rep for part in live]
    merged = arena_kernels.union_arenas(arenas)
    COUNTERS.add(
        calls=1,
        parts=len(arenas),
        entries_in=sum(arena.entry_count for arena in arenas),
        entries_out=merged.entry_count,
        ids_remapped=sum(
            arena.entry_count
            for arena in arenas
            if arena.pool is not arenas[0].pool
        ),
    )
    return FactorisedRelation(tree, merged)
