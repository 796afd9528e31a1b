"""The correctness oracle: stdlib ``sqlite3`` over the generated rows.

SQLite sees exactly the rows and SQL text the system sees and nothing
of ``repro``.  For every query it gives the distinct-tuple count and,
when the result has at most :data:`ROW_LIMIT` tuples, an
order-independent hash of them (``SELECT DISTINCT`` semantics).

Counting a many-to-many join by enumerating it is what the paper shows
flat engines cannot do (a 3-relation chain at N=400 has ~10^5-10^7
tuples, 200 such queries per run).  For queries without a projection
the oracle therefore counts without enumerating: each relation is
grouped by its join attributes first (``COUNT(*)`` per group) and the
groups are joined, summing the products -- exact, because base
relations are sets, and still computed by SQLite alone.  Results too
large to hash are spot-checked instead: the first tuples the system
returns must satisfy every condition and project onto stored rows.
"""

from __future__ import annotations

import operator
import re
import sqlite3
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

ROW_LIMIT = 5000
SPOT_CHECK = 200
_MASK = (1 << 64) - 1
_COMPARE = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}  # fmt: skip
_COND = re.compile(r"^(\w+) (=|!=|<=|>=|<|>) (-?\w+)$")


def rows_hash(rows) -> int:
    """Order-independent hash of a set of int tuples (``hash`` of an
    int tuple is unsalted, so it agrees across processes)."""
    return sum(hash(tuple(row)) for row in rows) & _MASK


@dataclass(frozen=True)
class Parsed:
    projection: Optional[Tuple[str, ...]]
    relations: Tuple[str, ...]
    equalities: Tuple[Tuple[str, str], ...]
    constants: Tuple[Tuple[str, str, int], ...]


def parse(sql: str) -> Parsed:
    """Parse the SQL :func:`gen.select_sql` writes (and nothing more)."""
    head, _, tail = sql.partition(" FROM ")
    rels, _, where = tail.partition(" WHERE ")
    proj = head[len("SELECT ") :]
    equalities, constants = [], []
    for cond in where.split(" AND ") if where else ():
        left, op, right = _COND.match(cond).groups()
        if right.lstrip("-").isdigit():
            constants.append((left, op, int(right)))
        else:
            equalities.append((left, right))
    return Parsed(
        None if proj == "*" else tuple(proj.split(", ")),
        tuple(rels.split(", ")),
        tuple(equalities),
        tuple(constants),
    )


@dataclass(frozen=True)
class Expected:
    count: int
    #: ``None`` when the result is too large to enumerate.
    hash: Optional[int]


class Oracle:
    def __init__(self, tables, views: Dict[str, str]) -> None:
        # Client threads spot-check through this connection too; the
        # harness serialises them with a lock.
        self.db = sqlite3.connect(":memory:", check_same_thread=False)
        self.attrs: Dict[str, Tuple[str, ...]] = {}
        self.views = {name: parse(sql) for name, sql in views.items()}
        self._stored: Dict[str, set] = {}  # spot_check's row sets
        for name, attrs, rows in tables:
            self.attrs[name] = tuple(attrs)
            cols = ", ".join(f"{a} INTEGER" for a in attrs)
            self.db.execute(
                f"CREATE TABLE {name} ({cols}, UNIQUE ({', '.join(attrs)}))"
            )
            for a in attrs:
                self.db.execute(f"CREATE INDEX {name}_{a} ON {name} ({a})")
            self.append(name, rows)

    def close(self) -> None:
        self.db.close()

    def append(self, table: str, rows) -> None:
        marks = ", ".join("?" * len(self.attrs[table]))
        self.db.executemany(
            f"INSERT OR IGNORE INTO {table} VALUES ({marks})", rows
        )
        self._stored.pop(table, None)

    # -- query forms ---------------------------------------------------------

    def expand(self, sql: str) -> Parsed:
        """``sql`` over base tables (a view name in FROM is replaced by
        the view's relations and conditions)."""
        q = parse(sql)
        if len(q.relations) == 1 and q.relations[0] in self.views:
            view = self.views[q.relations[0]]
            return Parsed(
                q.projection,
                view.relations,
                view.equalities + q.equalities,
                view.constants + q.constants,
            )
        return q

    def output_attributes(self, q: Parsed) -> Tuple[str, ...]:
        """The system's canonical column order: sorted by name."""
        if q.projection is not None:
            return tuple(sorted(q.projection))
        return tuple(sorted(a for r in q.relations for a in self.attrs[r]))

    @staticmethod
    def _where(q: Parsed) -> str:
        conds = [f"{a} = {b}" for a, b in q.equalities]
        conds += [f"{a} {op} {v}" for a, op, v in q.constants]
        return f" WHERE {' AND '.join(conds)}" if conds else ""

    def _flat_sql(self, q: Parsed) -> str:
        cols = ", ".join(self.output_attributes(q))
        return (
            f"SELECT DISTINCT {cols} FROM {', '.join(q.relations)}"
            f"{self._where(q)}"
        )

    def _grouped_count_sql(self, q: Parsed) -> str:
        """``SUM`` of per-group count products (see module docstring)."""
        owner = {a: r for r in q.relations for a in self.attrs[r]}
        root = {a: a for a in owner}

        def find(a: str) -> str:
            while root[a] != a:
                a = root[a]
            return a

        for a, b in q.equalities:
            ra, rb = find(a), find(b)
            if ra != rb:
                root[max(ra, rb)] = min(ra, rb)
        members: Dict[str, List[str]] = {}
        for a in owner:
            members.setdefault(find(a), []).append(a)
        subqueries, joins = [], []
        #: class -> the (alias.column) first seen for it
        anchor: Dict[str, str] = {}
        for i, rel in enumerate(q.relations):
            filters = [
                f"{a} {op} {v}" for a, op, v in q.constants if owner[a] == rel
            ]
            keys: List[str] = []
            for cls, attrs in sorted(members.items()):
                mine = sorted(a for a in attrs if owner[a] == rel)
                if not mine:
                    continue
                filters += [f"{mine[0]} = {other}" for other in mine[1:]]
                if len(mine) < len(attrs):  # class spans other relations
                    keys.append(mine[0])
                    column = f"t{i}.{mine[0]}"
                    if cls in anchor:
                        joins.append(f"{anchor[cls]} = {column}")
                    else:
                        anchor[cls] = column
            where = f" WHERE {' AND '.join(filters)}" if filters else ""
            select = ", ".join(keys + ["COUNT(*) AS c"])
            group = f" GROUP BY {', '.join(keys)}" if keys else ""
            subqueries.append(f"(SELECT {select} FROM {rel}{where}{group}) t{i}")
        product = " * ".join(f"t{i}.c" for i in range(len(q.relations)))
        where = f" WHERE {' AND '.join(joins)}" if joins else ""
        return (
            f"SELECT COALESCE(SUM({product}), 0) "
            f"FROM {', '.join(subqueries)}{where}"
        )

    # -- answers -------------------------------------------------------------

    def expected(self, sql: str) -> Expected:
        q = self.expand(sql)
        if q.projection is None:
            count_sql = self._grouped_count_sql(q)
        else:
            count_sql = f"SELECT COUNT(*) FROM ({self._flat_sql(q)})"
        (count,) = self.db.execute(count_sql).fetchone()
        if count > ROW_LIMIT:
            return Expected(count, None)
        return Expected(count, rows_hash(self.db.execute(self._flat_sql(q))))

    def spot_check(self, sql: str, rows: Sequence[tuple]) -> bool:
        """Do ``rows`` (system output, sorted-attribute order, no
        projection) satisfy the query and consist of stored rows?"""
        q = self.expand(sql)
        order = self.output_attributes(q)
        for rel in q.relations:
            if rel not in self._stored:
                self._stored[rel] = set(self.db.execute(f"SELECT * FROM {rel}"))
        stored = self._stored
        for row in rows:
            value = dict(zip(order, row))
            if any(value[a] != value[b] for a, b in q.equalities):
                return False
            if any(not _COMPARE[op](value[a], v) for a, op, v in q.constants):
                return False
            for rel in q.relations:
                if tuple(value[a] for a in self.attrs[rel]) not in stored[rel]:
                    return False
        return True
