"""Every in-process cache is one :class:`repro.cache.LRUCache`.

The prepared-kernel cache's original bound test, run against each site
through the API that fills it in production: fill the cache with
never-repeating (cold) keys, 600 more than it holds, and re-touch one
hot key after every insertion.  Least recently used out keeps the hot
entry -- the *same* object, never rebuilt -- while the cache sits at
its bound and the cold keys are evicted.  (Oldest out would flush the
hot entry once ``bound`` cold keys had gone in after it.)
"""

from __future__ import annotations

import asyncio
import sys
import threading
from contextlib import contextmanager
from itertools import islice, permutations
from typing import Callable, Iterator, NamedTuple, Tuple

import pytest

from repro.cache import LRUCache
from repro.core import arena
from repro.core.build import factorise
from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FTree
from repro.net.server import STATEMENT_MEMO_SIZE, QueryServer
from repro.ops import arena_kernels
from repro.ops.arena_kernels import kernel_for
from repro.persist.codec import (
    TREE_MEMO_SIZE,
    ArenaPoolDecoder,
    ArenaPoolEncoder,
)
from repro.query.parser import parse_query
from repro.relational.database import Database
from repro.relational.relation import TRIE_CACHE_SIZE, Relation
from repro.service import QuerySession

#: Cold insertions past a full cache.
COLD = 600

#: The session's plan-cache bound under test (``cache_size``), equal to
#: the default ``result_cache_size``.
SESSION_BOUND = 64


class Site(NamedTuple):
    bound: int
    #: One cold insertion, the ``i``-th never-seen key.
    insert: Callable[[int], object]
    #: The hot entry, through a cache hit.
    touch: Callable[[], object]
    #: ``(size, evictions)`` as the site reports them.
    gauges: Callable[[], Tuple[int, int]]


def _tree(*attrs: str) -> FTree:
    nested = []
    for attr in reversed(attrs):
        nested = [(attr, nested)]
    return FTree.from_nested(nested)


def _database() -> Database:
    db = Database()
    db.add_rows("R", ("a", "b"), [(1, 1), (2, 1)])
    return db


@contextmanager
def _plans() -> Iterator[Site]:
    db = _database()
    tree = _tree("a", "b")
    with QuerySession(db, cache_size=SESSION_BOUND) as session:
        hot = parse_query("SELECT * FROM R")
        session.store_plan(hot, tree)

        def gauges():
            plans = session.cache_counters()["plans"]
            return plans["size"], plans["evictions"]

        yield Site(
            SESSION_BOUND,
            lambda i: session.store_plan(
                parse_query(f"SELECT * FROM R WHERE a = {i}"), tree
            ),
            lambda: session.lookup_plan(hot),
            gauges,
        )


@contextmanager
def _results() -> Iterator[Site]:
    db = _database()
    tree = _tree("a", "b")
    empty = FactorisedRelation(tree, None)
    with QuerySession(db, cache_size=SESSION_BOUND) as session:
        results = session._results
        hot = parse_query("SELECT * FROM R")
        results.store(hot, db, tree, empty)

        def gauges():
            counters = session.cache_counters()["results"]
            return counters["size"], counters["evictions"]

        yield Site(
            SESSION_BOUND,
            lambda i: results.store(
                parse_query(f"SELECT * FROM R WHERE a = {i}"),
                db,
                tree,
                empty,
            ),
            lambda: results.lookup(hot, db),
            gauges,
        )


@contextmanager
def _tries() -> Iterator[Site]:
    wide = Relation.from_rows(
        "W",
        [f"w{i}" for i in range(8)],
        [tuple((i * j) % 5 for j in range(8)) for i in range(9)],
    )
    paths = [
        tuple((p,) for p in perm)
        for perm in islice(permutations(range(8)), TRIE_CACHE_SIZE + COLD + 1)
    ]
    hot = paths.pop()
    yield Site(
        TRIE_CACHE_SIZE,
        lambda i: wide.trie(paths[i]),
        lambda: wide.trie(hot)[0],
        lambda: (len(wide._tries), wide._tries.evictions),
    )


@contextmanager
def _enumerator() -> Iterator[Site]:
    attrs = [f"lru_e{i}" for i in range(7)]
    rows = [tuple(range(i, i + 7)) for i in range(3)]
    rep = factorise([Relation.from_rows("E", attrs, rows)], _tree(*attrs))
    orders = list(
        islice(permutations(attrs), arena._ENUM_CACHE_SIZE + COLD + 1)
    )
    hot = orders.pop()

    def gauges():
        counters = arena.counters()
        return counters["cache_size"], counters["cache_evictions"]

    yield Site(
        arena._ENUM_CACHE_SIZE,
        lambda i: arena._compile_rows(rep.skel, orders[i]),
        lambda: arena._compile_rows(rep.skel, hot),
        gauges,
    )


@contextmanager
def _kernels() -> Iterator[Site]:
    hot = _tree("lru_hot_a", "lru_hot_b")

    def gauges():
        counters = arena_kernels.counters()
        return counters["cache_size"], counters["cache_evictions"]

    yield Site(
        arena_kernels._KERNEL_CACHE_MAX,
        lambda i: kernel_for(
            _tree(f"lru_k{i}", f"lru_l{i}"),
            "swap",
            (f"lru_k{i}", f"lru_l{i}"),
        ),
        lambda: kernel_for(hot, "swap", ("lru_hot_a", "lru_hot_b")),
        gauges,
    )


@contextmanager
def _statements() -> Iterator[Site]:
    server = QueryServer(QuerySession(_database()), task_threads=1)
    try:
        memo = server._statements
        yield Site(
            STATEMENT_MEMO_SIZE,
            lambda i: server._statement(f"SELECT * FROM R WHERE a = {i}"),
            lambda: server._statement("SELECT * FROM R"),
            lambda: (len(memo), memo.evictions),
        )
    finally:
        asyncio.run(server.drain())


@contextmanager
def _decoder_trees() -> Iterator[Site]:
    decoder = ArenaPoolDecoder()

    def payload(*attrs: str) -> bytes:
        return ArenaPoolEncoder().encode(
            FactorisedRelation(_tree(*attrs), None)
        )

    hot = payload("hot_a", "hot_b")
    memo = decoder._trees
    yield Site(
        TREE_MEMO_SIZE,
        lambda i: decoder.decode(payload(f"c{i}", f"d{i}")),
        lambda: decoder.decode(hot).tree,
        lambda: (len(memo), memo.evictions),
    )


SITES = {
    "plans": _plans,
    "results": _results,
    "tries": _tries,
    "enumerator": _enumerator,
    "kernels": _kernels,
    "statements": _statements,
    "decoder_trees": _decoder_trees,
}


@pytest.mark.parametrize("name", list(SITES))
def test_a_hot_entry_survives_cold_insertions(name):
    with SITES[name]() as site:
        hot = site.touch()
        assert hot is not None
        _, before = site.gauges()
        for i in range(site.bound + COLD):
            site.insert(i)
            assert site.touch() is hot, f"hot entry lost after {i + 1}"
        size, evictions = site.gauges()
        assert size == site.bound
        assert evictions - before >= COLD


def test_the_bound_and_counters_hold_under_concurrent_use():
    """Every ``put`` is a new key and every ``get`` is counted once, so
    a lost update under racing threads breaks an equality below."""
    cache = LRUCache(8)
    workers, rounds = 6, 10000
    errors = []

    def churn(worker: int) -> None:
        try:
            for i in range(rounds):
                cache.put((worker, i), i + 1)
                cache.get((worker, i - 3))
                assert len(cache) <= 8
        except BaseException as exc:  # reported by the asserting thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=churn, args=(w,)) for w in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(cache) == 8
    assert cache.hits + cache.misses == workers * rounds
    assert cache.evictions == workers * rounds - 8


class _BoundedEntries(dict):
    """An entry dict that fails the moment it holds more than
    ``bound`` entries."""

    bound = 0

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        assert len(self) <= self.bound, f"{len(self)} entries"


def test_a_full_cache_evicts_before_it_inserts():
    """``len`` and ``counters`` read without the lock, so the cache must
    never hold ``capacity + 1`` entries even between two statements of
    ``put``: a new key into a full cache evicts first."""
    cache = LRUCache(3)
    entries = cache._entries = _BoundedEntries()
    entries.bound = 3
    for i in range(10):
        assert cache.put(i, i + 1) == (i - 3 if i >= 3 else None)
        cache.put(i, i + 2)  # a key already held: no eviction
    assert list(cache) == [7, 8, 9]
    assert cache.counters() == {
        "hits": 0, "misses": 0, "evictions": 7, "size": 3
    }
