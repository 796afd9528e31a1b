"""Benchmark-owned load generation: rows and SQL text from a seed.

Nothing here imports ``repro``, ``tests`` or ``benchmarks/conftest``: a
later PR that edits the library's own generators must not be able to
change the load this benchmark runs.  Every workload is a :class:`Load`
-- base tables, named views (queries whose factorised result is a
follow-up input), and one round's op sequence -- made from the
``--seed`` argument alone, and stamped with a digest so that two runs
are provably the same experiment.

Sizes live in :data:`SIZES`; they are fixed so that one round takes
about 1-2.5 s on the 2-core reference box (see README.md).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

Row = Tuple[int, ...]
Table = Tuple[str, Tuple[str, ...], List[Row]]

WORKLOADS = (
    "flat_join",
    "sharded_fanout",
    "fplan_followup",
    "cold_plan",
    "served_mix",
    "append_requery",
)


@dataclass(frozen=True)
class Op:
    """One user action.

    ``kind`` is ``"query"`` (SQL over base tables), ``"followup"`` (SQL
    whose single FROM name is a view: evaluated on that view's
    factorised result) or ``"write"`` (append ``rows`` to ``table``).
    ``qid`` indexes :attr:`Load.queries` for the two read kinds.
    """

    kind: str
    qid: int = -1
    table: str = ""
    rows: Tuple[Row, ...] = ()


@dataclass
class Load:
    workload: str
    tables: List[Table]
    #: view name -> defining SQL over the base tables (no projection).
    views: Dict[str, str] = field(default_factory=dict)
    #: distinct SQL texts; ops refer to them by index.
    queries: List[str] = field(default_factory=list)
    #: one round's op sequence per client connection.
    clients: List[List[Op]] = field(default_factory=list)

    @property
    def ops_per_round(self) -> int:
        return sum(len(ops) for ops in self.clients)

    def digest(self) -> str:
        """SHA-256 over rows + SQL + op order (hex, first 16 chars)."""
        doc = {
            "tables": [(n, list(a), r) for n, a, r in self.tables],
            "views": sorted(self.views.items()),
            "queries": self.queries,
            "clients": [
                [(op.kind, op.qid, op.table, op.rows) for op in ops]
                for ops in self.clients
            ],
        }
        blob = json.dumps(doc, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


#: Workload sizes.  ``smoke`` exists for the tier-1 test only.
SIZES = {
    "full": {
        "flat_join": dict(tuples=200, domain=100, ops=200),
        "fplan_followup": dict(
            distinct=24, ops=200, binary=250, ternary=4000, domain=30,
            retail_scale=2.5,
        ),
        "cold_plan": dict(
            tuples=12, spj=140, followups=60,
            relations=(5, 5, 6, 6, 7, 8), view_pool=4,
        ),
        "served_mix": dict(distinct=40, ops_per_client=600, scale=1.0),
        "append_requery": dict(
            dashboard=20, writes=25, reads_per_write=8, batch=12, scale=0.5
        ),
    },
    "smoke": {
        "flat_join": dict(tuples=40, domain=20, ops=8),
        "fplan_followup": dict(
            distinct=4, ops=8, binary=16, ternary=40, domain=8,
            retail_scale=0.05,
        ),
        "cold_plan": dict(
            tuples=6, spj=4, followups=4, relations=(5,), view_pool=4
        ),
        "served_mix": dict(distinct=8, ops_per_client=10, scale=0.05),
        "append_requery": dict(
            dashboard=4, writes=2, reads_per_write=4, batch=3, scale=0.05
        ),
    },
}
SIZES["full"]["sharded_fanout"] = SIZES["full"]["flat_join"]
SIZES["smoke"]["sharded_fanout"] = SIZES["smoke"]["flat_join"]


# -- value distributions ------------------------------------------------------


def zipf_weights(domain: int, exponent: float = 1.0) -> List[float]:
    return [1.0 / (v**exponent) for v in range(1, domain + 1)]


def uniform_weights(domain: int) -> List[float]:
    return [1.0] * domain


def exact_column(
    rng: random.Random, count: int, weights: Sequence[float]
) -> List[int]:
    """``count`` values over ``[1, len(weights)]`` whose histogram follows
    ``weights`` *exactly* (largest-remainder rounding), in seeded order.

    Sampling the histogram as well would make one hot value's frequency
    -- and with it every join through that column -- swing by 10% from
    seed to seed; what a seed varies here is which rows pair up.
    """
    total = sum(weights)
    shares = [count * w / total for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(
        range(len(weights)), key=lambda i: counts[i] - shares[i]
    )
    for i in by_remainder[: count - sum(counts)]:
        counts[i] += 1
    column = [v + 1 for v, n in enumerate(counts) for _ in range(n)]
    rng.shuffle(column)
    return column


def exact_rows(
    rng: random.Random, count: int, column_weights: Sequence[Sequence[float]]
) -> List[Row]:
    """Exactly ``count`` distinct rows zipped from :func:`exact_column`
    draws.  Duplicates (the engine's relations are sets) are resolved by
    swapping last-column values between rows, which keeps every
    histogram exact and every relation at its nominal size -- the
    sharded executor fans out over the *largest* relation, so sizes
    that differ by a row or two would change its plan from seed to seed.
    """
    columns = [exact_column(rng, count, w) for w in column_weights]
    last = columns[-1]
    for _ in range(200):
        seen, clashes = set(), []
        for i, row in enumerate(zip(*columns)):
            if row in seen:
                clashes.append(i)
            seen.add(row)
        if not clashes:
            return list(zip(*columns))
        for i in clashes:
            j = rng.randrange(count)
            last[i], last[j] = last[j], last[i]
    raise ValueError(f"cannot draw {count} distinct rows from these domains")


def attribute_names(total: int) -> List[str]:
    return [f"a{i:02d}" for i in range(total)]


def random_tables(
    rng: random.Random,
    arities: Sequence[int],
    sizes: Sequence[int],
    domain: int,
    zipf: bool,
) -> List[Table]:
    """Section 5 style relations ``R0..Rn`` over attributes a00, a01..,
    values Zipf(1) or uniform over ``[1, domain]``."""
    names = attribute_names(sum(arities))
    weights = zipf_weights(domain) if zipf else uniform_weights(domain)
    tables: List[Table] = []
    start = 0
    for r, (arity, size) in enumerate(zip(arities, sizes)):
        attrs = tuple(names[start : start + arity])
        start += arity
        tables.append((f"R{r}", attrs, exact_rows(rng, size, [weights] * arity)))
    return tables


# -- equalities ---------------------------------------------------------------


class _Classes:
    """Union-find over attribute names (non-redundant equality draws)."""

    def __init__(self, items: Sequence[str]) -> None:
        self.parent = {x: x for x in items}

    def find(self, x: str) -> str:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: str, b: str) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True

    def partition(self) -> frozenset:
        groups: Dict[str, List[str]] = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return frozenset(frozenset(g) for g in groups.values())


def random_equalities(
    rng: random.Random,
    attrs: Sequence[str],
    count: int,
    given: Sequence[Tuple[str, str]] = (),
) -> Tuple[List[Tuple[str, str]], frozenset]:
    """``count`` equalities, each merging two classes not yet equal under
    ``given`` (the paper's non-redundancy), plus the final partition."""
    classes = _Classes(attrs)
    for a, b in given:
        classes.union(a, b)
    if count >= len(classes.partition()):
        raise ValueError(f"{count} non-redundant equalities do not exist")
    out: List[Tuple[str, str]] = []
    while len(out) < count:
        a, b = rng.sample(list(attrs), 2)
        if classes.union(a, b):
            out.append((a, b))
    return out, classes.partition()


def select_sql(
    relations: Sequence[str],
    equalities: Sequence[Tuple[str, str]] = (),
    constants: Sequence[Tuple[str, str, int]] = (),
    projection: Optional[Sequence[str]] = None,
) -> str:
    conds = [f"{a} = {b}" for a, b in equalities]
    conds += [f"{a} {op} {v}" for a, op, v in constants]
    proj = "*" if projection is None else ", ".join(projection)
    where = f" WHERE {' AND '.join(conds)}" if conds else ""
    return f"SELECT {proj} FROM {', '.join(relations)}{where}"


def _distinct_equijoins(
    rng: random.Random,
    tables: Sequence[Table],
    count: int,
    k_choices: Sequence[int],
) -> List[str]:
    """``count`` equi-joins over all ``tables`` whose equality partitions
    differ pairwise, so no two share a plan or a cached result."""
    names = [t[0] for t in tables]
    attrs = [a for t in tables for a in t[1]]
    seen = set()
    out: List[str] = []
    while len(out) < count:
        eqs, partition = random_equalities(rng, attrs, rng.choice(k_choices))
        if partition not in seen:
            seen.add(partition)
            out.append(select_sql(names, eqs))
    return out


# -- retail schema (served_mix, append_requery, hierarchical follow-ups) -------

RETAIL_DAYS, RETAIL_PRICES, RETAIL_CITIES = 30, 50, 8


def retail_domains(scale: float) -> Tuple[int, int, int]:
    """(items, stores, customers) at ``scale``."""
    return (
        max(8, int(200 * scale)),
        max(4, int(40 * scale)),
        max(8, int(300 * scale)),
    )


def retail_tables(rng: random.Random, scale: float) -> List[Table]:
    """Orders x Listings x Stores: a many-to-many hierarchy whose joins
    stay small to medium (the shape ``served_mix`` ships over the wire).
    Items are Zipf(0.7)-popular on both sides of the join."""
    items, stores, customers = retail_domains(scale)
    item = zipf_weights(items, 0.7)
    return [
        (
            "Orders",
            ("o_cust", "o_day", "o_item"),
            exact_rows(
                rng,
                max(20, int(2000 * scale)),
                [uniform_weights(customers), uniform_weights(RETAIL_DAYS), item],
            ),
        ),
        (
            "Listings",
            ("l_item", "l_store", "l_price"),
            exact_rows(
                rng,
                max(20, int(1500 * scale)),
                [item, uniform_weights(stores), uniform_weights(RETAIL_PRICES)],
            ),
        ),
        (
            "Stores",
            ("s_store", "s_city"),
            list(
                zip(
                    range(1, stores + 1),
                    exact_column(rng, stores, uniform_weights(RETAIL_CITIES)),
                )
            ),
        ),
    ]


def retail_queries(shape: random.Random, scale: float, count: int) -> List[str]:
    """``count`` distinct dashboard queries: five join templates with
    constants from the value domains (not from the seeded rows, so the
    catalogue -- and each query's selectivity -- is the same for every
    seed)."""
    items, _, customers = retail_domains(scale)

    def templates():
        cust = shape.randint(1, customers)
        day = shape.randint(1, RETAIL_DAYS)
        price = shape.randint(5, RETAIL_PRICES)
        city = shape.randint(1, RETAIL_CITIES)
        yield select_sql(
            ["Orders", "Listings"],
            [("o_item", "l_item")],
            [("o_cust", "=", cust)],
        )
        yield select_sql(
            ["Orders", "Listings"],
            [("o_item", "l_item")],
            [("o_day", "=", day), ("l_price", "<", price)],
            ["o_cust", "l_store"],
        )
        yield select_sql(
            ["Orders", "Listings", "Stores"],
            [("o_item", "l_item"), ("l_store", "s_store")],
            [("s_city", "=", city), ("o_day", "=", day)],
        )
        yield select_sql(
            ["Listings", "Stores"],
            [("l_store", "s_store")],
            [("s_city", "=", city), ("l_price", ">=", price)],
            ["l_item", "l_price"],
        )
        yield select_sql(
            ["Orders"], [], [("o_item", "=", shape.randint(1, items))]
        )

    out: List[str] = []
    seen = set()
    while len(out) < count:
        for sql in templates():
            if sql not in seen and len(out) < count:
                seen.add(sql)
                out.append(sql)
    return out


# -- the six workloads --------------------------------------------------------
#
# Each builder takes two streams.  ``shape`` is seeded by the workload
# name alone and draws the query catalogue: which attributes a query
# equates is what its cost depends on, so a seeded catalogue moves a
# round's time by 10-25% between seeds (the share of expensive chain
# joins it happens to draw) and no bound could resolve a regression.
# ``rng`` is seeded by --seed and draws everything else: the rows, the
# write batches and the op order.


def _flat_join(shape, rng: random.Random, size: dict, workload: str) -> Load:
    tables = random_tables(
        rng, [3, 3, 3], [size["tuples"]] * 3, size["domain"], zipf=True
    )
    queries = _distinct_equijoins(shape, tables, size["ops"], (2, 3, 4))
    ops = [Op("query", qid) for qid in range(len(queries))]
    rng.shuffle(ops)
    return Load(workload, tables, queries=queries, clients=[ops])


def _followups(
    shape: random.Random,
    attrs: Sequence[str],
    view: str,
    view_eqs: Sequence[Tuple[str, str]],
    l_choices: Sequence[int],
    count: int,
    seen: set,
) -> List[str]:
    """Distinct follow-up selections of L not-yet-implied equalities on
    the attribute classes of ``view`` (whose attributes are ``attrs``)."""
    out: List[str] = []
    for _ in range(1000 * count):
        eqs, partition = random_equalities(
            shape, attrs, shape.choice(l_choices), given=view_eqs
        )
        if (view, partition) not in seen:
            seen.add((view, partition))
            out.append(select_sql([view], eqs))
            if len(out) == count:
                return out
    raise ValueError(f"{view} has fewer than {count} distinct follow-ups")


def _attrs(tables: Sequence[Table]) -> List[str]:
    return [a for _, attrs, _ in tables for a in attrs]


def _fplan_followup(shape, rng, size: dict, workload: str) -> Load:
    # Combinatorial inputs (Fig. 7 right / Fig. 8 shape, scaled up until
    # a cached plan runs for ~10 ms): two binary and two ternary uniform
    # relations; views join them with K = 1..3 equalities, so the
    # factorised inputs are large and branch.
    b, t = size["binary"], size["ternary"]
    comb = random_tables(
        rng, [2, 2, 3, 3], [b, b, t, t], size["domain"], zipf=False
    )
    retail = retail_tables(rng, size["retail_scale"])
    views: Dict[str, str] = {}
    view_eqs: Dict[str, List[Tuple[str, str]]] = {}
    for k in (1, 2, 3):
        eqs, _ = random_equalities(shape, _attrs(comb), k)
        views[f"Comb{k}"] = select_sql([t[0] for t in comb], eqs)
        view_eqs[f"Comb{k}"] = eqs
    eqs = [("o_item", "l_item"), ("l_store", "s_store")]
    views["Retail"] = select_sql([t[0] for t in retail], eqs)
    view_eqs["Retail"] = eqs

    queries: List[str] = []
    seen: set = set()
    names = sorted(views)
    for i in range(size["distinct"]):
        view = names[i % len(names)]
        base = retail if view == "Retail" else comb
        queries += _followups(
            shape, _attrs(base), view, view_eqs[view], (1, 1, 2, 2, 3), 1, seen
        )
    ops = [Op("followup", i % len(queries)) for i in range(size["ops"])]
    rng.shuffle(ops)
    return Load(workload, comb + retail, views, queries, [ops])


def _cold_plan(shape, rng, size: dict, workload: str) -> Load:
    # Tiny data, wide schemas: optimisation is exponential in the number
    # of attribute classes while execution over a dozen rows is free.
    tables = random_tables(
        rng, [2, 2, 2, 2, 3, 3, 3, 3], [size["tuples"]] * 8, 6, zipf=False
    )
    queries: List[str] = []
    seen: set = set()
    while len(queries) < size["spj"]:
        picked = sorted(
            shape.sample(range(8), shape.choice(size["relations"]))
        )
        subset = [tables[i] for i in picked]
        k = shape.randint(len(subset) - 1, len(subset) + 2)
        eqs, partition = random_equalities(shape, _attrs(subset), k)
        if (tuple(picked), partition) not in seen:
            seen.add((tuple(picked), partition))
            queries.append(select_sql([t[0] for t in subset], eqs))
    views: Dict[str, str] = {}
    per_view = max(1, size["followups"] // 4)
    for v in range(4):
        # Views join the first ``view_pool`` (binary) relations: 4 of
        # them leave 6 attribute classes, which keeps one exhaustive
        # f-plan search in the tens of milliseconds.
        subset = tables[: size["view_pool"]]
        eqs, _ = random_equalities(shape, _attrs(subset), 2)
        name = f"View{v}"
        views[name] = select_sql([t[0] for t in subset], eqs)
        queries += _followups(
            shape, _attrs(subset), name, eqs, (1, 2, 2, 3, 4), per_view, seen
        )
    ops = [
        Op("query" if qid < size["spj"] else "followup", qid)
        for qid in range(len(queries))
    ]
    rng.shuffle(ops)
    return Load(workload, tables, views, queries, [ops])


def _zipf_schedule(rng: random.Random, distinct: int, ops: int) -> List[int]:
    """``ops`` query ids in seeded order; query ``i`` appears with the
    exact (rounded) Zipf(1) frequency of rank ``i + 1``, so every seed
    sees the same hot set and the same mix, in a different order."""
    weights = zipf_weights(distinct)
    total = sum(weights)
    out: List[int] = []
    for qid, weight in enumerate(weights):
        out += [qid] * max(1, round(ops * weight / total))
    out += [0] * (ops - len(out))  # rounding remainder goes to the hottest
    out = out[:ops]
    rng.shuffle(out)
    return out


def _served_mix(shape, rng, size: dict, workload: str) -> Load:
    tables = retail_tables(rng, size["scale"])
    queries = retail_queries(shape, size["scale"], size["distinct"])
    clients = [
        [
            Op("query", qid)
            for qid in _zipf_schedule(
                rng, len(queries), size["ops_per_client"]
            )
        ]
        for _ in range(2)
    ]
    return Load(workload, tables, queries=queries, clients=clients)


def _append_requery(shape, rng, size: dict, workload: str) -> Load:
    tables = retail_tables(rng, size["scale"])
    extra = retail_tables(rng, size["scale"])  # rows the writes append
    queries = retail_queries(shape, size["scale"], size["dashboard"])
    ops: List[Op] = []
    cursor = itertools.cycle(range(len(queries)))
    for w in range(size["writes"]):
        name, _, rows = extra[w % 2]  # alternate Orders / Listings
        batch = tuple(rng.sample(rows, min(size["batch"], len(rows))))
        ops.append(Op("write", table=name, rows=batch))
        ops += [
            Op("query", next(cursor)) for _ in range(size["reads_per_write"])
        ]
    return Load(workload, tables, queries=queries, clients=[ops])


_BUILDERS = {
    "flat_join": _flat_join,
    "sharded_fanout": _flat_join,  # the same rows and SQL, by contract
    "fplan_followup": _fplan_followup,
    "cold_plan": _cold_plan,
    "served_mix": _served_mix,
    "append_requery": _append_requery,
}


def make_load(workload: str, seed: int, scale: str = "full") -> Load:
    """The seeded load of one workload.

    ``flat_join`` and ``sharded_fanout`` draw from the same streams, so
    a given seed yields byte-identical rows and SQL for both.
    """
    stream = "flat_join" if workload == "sharded_fanout" else workload
    shape = random.Random(f"fdb-e2e/{stream}/shape")
    rng = random.Random(f"fdb-e2e/{stream}/{seed}")
    return _BUILDERS[workload](shape, rng, SIZES[scale][workload], workload)
