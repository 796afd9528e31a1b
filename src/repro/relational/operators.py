"""Physical operators of the flat relational engine.

These are textbook in-memory operators with set semantics: selection,
projection, Cartesian product, and equi-joins in two flavours -- a
sort-merge join (the paper's RDB uses "optimal relational join plans
implemented as multi-way sort-merge joins") and a hash join used when
inputs are not conveniently ordered.

All operators consume and produce :class:`~repro.relational.relation.
Relation` objects and preserve the sorted/distinct invariant.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.query.query import ConstantCondition, EqualityCondition
from repro.relational.budget import Budget
from repro.relational.relation import Relation, Row
from repro.relational.schema import RelationSchema


def select_constant(relation: Relation, cond: ConstantCondition) -> Relation:
    """``sigma_{A theta c}`` on a flat relation."""
    idx = relation.schema.index_of(cond.attribute)
    return Relation(relation.schema, cond.filter_rows(relation.rows, idx))


def select_equality(relation: Relation, cond: EqualityCondition) -> Relation:
    """``sigma_{A = B}`` where both attributes are in ``relation``."""
    left = relation.schema.index_of(cond.left)
    right = relation.schema.index_of(cond.right)
    rows = [row for row in relation.rows if row[left] == row[right]]
    return Relation(relation.schema, rows)


def project(relation: Relation, attributes: Sequence[str]) -> Relation:
    """``pi_A`` with duplicate elimination."""
    positions = [relation.schema.index_of(a) for a in attributes]
    rows = sorted({tuple(row[p] for p in positions) for row in relation})
    return Relation(relation.schema.project(attributes), rows)


def product(
    left: Relation,
    right: Relation,
    name: str = "x",
    budget: Optional[Budget] = None,
) -> Relation:
    """Cartesian product; output stays lexicographically sorted."""
    schema = left.schema.concat(right.schema, name)
    rows: List[Row] = []
    for lrow in left.rows:
        if budget is not None:
            budget.check(len(rows))
        for rrow in right.rows:
            rows.append(lrow + rrow)
    return Relation(schema, rows)


def _join_schema(left: Relation, right: Relation, name: str) -> RelationSchema:
    return left.schema.concat(right.schema, name)


def sort_merge_join(
    left: Relation,
    right: Relation,
    pairs: Sequence[Tuple[str, str]],
    name: str = "join",
    budget: Optional[Budget] = None,
) -> Relation:
    """Equi-join on ``pairs`` of (left attribute, right attribute).

    Both sides are sorted by their join keys, then merged; groups of
    equal keys produce the Cartesian product of their rows (general
    many-to-many behaviour).
    """
    if not pairs:
        return product(left, right, name, budget=budget)
    lpos = [left.schema.index_of(a) for a, _ in pairs]
    rpos = [right.schema.index_of(b) for _, b in pairs]

    lrows = sorted(left.rows, key=lambda r: tuple(r[p] for p in lpos))
    rrows = sorted(right.rows, key=lambda r: tuple(r[p] for p in rpos))

    schema = _join_schema(left, right, name)
    out: List[Row] = []
    i = j = 0
    while i < len(lrows) and j < len(rrows):
        lkey = tuple(lrows[i][p] for p in lpos)
        rkey = tuple(rrows[j][p] for p in rpos)
        if lkey < rkey:
            i += 1
        elif lkey > rkey:
            j += 1
        else:
            i_end = i
            while i_end < len(lrows) and (
                tuple(lrows[i_end][p] for p in lpos) == lkey
            ):
                i_end += 1
            j_end = j
            while j_end < len(rrows) and (
                tuple(rrows[j_end][p] for p in rpos) == rkey
            ):
                j_end += 1
            for li in range(i, i_end):
                if budget is not None:
                    budget.check(len(out))
                for rj in range(j, j_end):
                    out.append(lrows[li] + rrows[rj])
            i, j = i_end, j_end
    out.sort()
    return Relation(schema, out)


def hash_join(
    left: Relation,
    right: Relation,
    pairs: Sequence[Tuple[str, str]],
    name: str = "join",
    budget: Optional[Budget] = None,
) -> Relation:
    """Equi-join via a hash table on the smaller input."""
    if not pairs:
        return product(left, right, name, budget=budget)
    build, probe = (left, right) if len(left) <= len(right) else (right, left)
    build_is_left = build is left
    bpos = [
        build.schema.index_of(a if build_is_left else b) for a, b in pairs
    ]
    ppos = [
        probe.schema.index_of(b if build_is_left else a) for a, b in pairs
    ]

    table: Dict[Tuple[object, ...], List[Row]] = {}
    for row in build.rows:
        table.setdefault(tuple(row[p] for p in bpos), []).append(row)

    schema = _join_schema(left, right, name)
    out: List[Row] = []
    for row in probe.rows:
        if budget is not None:
            budget.check(len(out))
        for match in table.get(tuple(row[p] for p in ppos), ()):
            out.append(match + row if build_is_left else row + match)
    out.sort()
    return Relation(schema, out)


def union(left: Relation, right: Relation) -> Relation:
    """Set union of two relations over the same attribute order."""
    if left.attributes != right.attributes:
        perm = [right.schema.index_of(a) for a in left.attributes]
        rrows = [tuple(row[i] for i in perm) for row in right]
    else:
        rrows = list(right.rows)
    rows = sorted(set(left.rows) | set(rrows))
    return Relation(left.schema, rows)
