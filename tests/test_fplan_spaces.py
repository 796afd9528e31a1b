"""The f-plan search graphs shared between searches.

Every exhaustive f-plan search from one input f-tree's atoms and edges
walks one :class:`~repro.optimiser.exhaustive.ForestSpace`, kept in the
process-wide :data:`~repro.optimiser.bitspace.FPLAN_SPACES`.  Sharing
must not change a plan (the golden records), must not hide work the
cover-memo counts report once the caches are cleared, must stay bounded
and must hold up under concurrent searches.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.core.ftree import FTree
from repro.costs.cost_model import clear_cover_cache
from repro.optimiser import exhaustive
from repro.optimiser.bitspace import (
    COUNTERS,
    FPLAN_SPACE_CAPACITY,
    FPLAN_SPACES,
    counters,
)
from repro.optimiser.exhaustive import exhaustive_fplan, space_for
from repro.optimiser.fplan import Step
from tests.conftest import load_script

gen = load_script("gen_optimiser_golden")

with open(gen.GOLDEN_PATH, encoding="utf-8") as handle:
    GOLDEN = json.load(handle)

INPUTS = [(tree, pairs) for _, _, tree, pairs in gen.fplan_inputs()]


def plan_of(plan) -> dict:
    """The golden record's plan fields (the state counts are summed
    process-wide, so concurrent searches cannot read their own)."""
    return dict(
        steps=[[step.kind, list(step.args)] for step in plan.steps],
        cost=gen.jsonable(plan.cost.as_tuple()),
    )


def golden_plan(i: int) -> dict:
    want = GOLDEN["fplan"][i]["asymptotic"]
    return dict(steps=want["steps"], cost=want["cost"])


@pytest.fixture(autouse=True)
def cold_spaces():
    clear_cover_cache()
    yield
    clear_cover_cache()


def test_warm_searches_are_the_golden_ones_with_the_same_counts():
    expanded = [case["asymptotic"]["expanded"] for case in GOLDEN["fplan"]]
    generated = [
        case["asymptotic"]["generated"] for case in GOLDEN["fplan"]
    ]
    for _ in range(2):  # cold spaces, then every space already built
        for i, (tree, pairs) in enumerate(INPUTS[:40]):
            before = COUNTERS.snapshot()
            plan = exhaustive_fplan(tree, pairs)
            spent = COUNTERS.since(before)
            assert plan_of(plan) == golden_plan(i), i
            assert spent["fplan_states_expanded"] == expanded[i], i
            assert spent["fplan_states_generated"] == generated[i], i


def test_clear_cover_cache_drops_the_fplan_spaces():
    def solves(tree, pairs) -> int:
        before = COUNTERS.snapshot()
        exhaustive_fplan(tree, pairs)
        return COUNTERS.since(before)["cover_lp_solves"]

    for tree, pairs in INPUTS:  # the first case that solves an LP cold
        clear_cover_cache()
        first = solves(tree, pairs)
        if first:
            break
    assert first > 0 and len(FPLAN_SPACES) == 1
    assert solves(tree, pairs) == 0  # warm
    # A space kept across the clear would answer every s(T) itself and
    # solve nothing: the cold repeat must solve what the first did.
    clear_cover_cache()
    assert len(FPLAN_SPACES) == 0
    assert solves(tree, pairs) == first


def test_one_space_serves_every_shape_over_the_same_atoms():
    i, (tree, pairs) = next(
        (i, (tree, pairs))
        for i, (tree, pairs) in enumerate(INPUTS)
        if any(tree.parent_of(node) for node in tree.iter_nodes())
    )
    child = next(n for n in tree.iter_nodes() if tree.parent_of(n))
    swapped = Step(
        "swap", (min(tree.parent_of(child).label), min(child.label))
    ).transform_tree(tree)
    assert swapped.key() != tree.key()
    cold = plan_of(exhaustive_fplan(swapped, pairs))
    clear_cover_cache()
    assert plan_of(exhaustive_fplan(tree, pairs)) == golden_plan(i)
    assert plan_of(exhaustive_fplan(swapped, pairs)) == cold
    assert len(FPLAN_SPACES) == 1
    assert space_for(swapped) is space_for(tree)


def _chain(i: int) -> FTree:
    """A two-node tree over attributes no other ``_chain`` uses."""
    a, b = f"a{i}", f"b{i}"
    return FTree.from_nested([(a, [(b, [])])], edges=[{a, b}])


def test_fplan_spaces_plateau_at_the_capacity():
    base = counters()
    sizes = []
    for i in range(300):
        plan = exhaustive_fplan(_chain(i), [(f"a{i}", f"b{i}")])
        assert [step.kind for step in plan.steps] == ["absorb"]
        sizes.append(counters()["fplan_spaces"])
    gauges = counters()
    assert sizes[:3] == [1, 2, 3]
    assert max(sizes) == sizes[-1] == FPLAN_SPACE_CAPACITY
    assert gauges["fplan_space_misses"] - base["fplan_space_misses"] == 300
    assert (
        gauges["fplan_space_evictions"] - base["fplan_space_evictions"]
        == 300 - FPLAN_SPACE_CAPACITY
    )
    assert gauges["fplan_space_states"] == sum(
        len(space) for space in FPLAN_SPACES.values()
    )
    # Gauges, not tallies: the deterministic counts do not carry them.
    assert not any(
        key.startswith("fplan_space") for key in COUNTERS.snapshot()
    )


def test_a_space_at_the_state_cap_stops_growing(monkeypatch):
    i, (tree, pairs) = max(
        (case for case in enumerate(INPUTS) if len(case[1][1]) > 1),
        key=lambda case: GOLDEN["fplan"][case[0]]["asymptotic"]["expanded"],
    )

    def states_after_two_goals(cap: int):
        monkeypatch.setattr(exhaustive, "SPACE_STATE_CAP", cap)
        clear_cover_cache()
        exhaustive_fplan(tree, pairs[:1])
        first = counters()["fplan_space_states"]
        plan = exhaustive_fplan(tree, pairs)  # more merges, more states
        assert plan_of(plan) == golden_plan(i)
        return first, counters()["fplan_space_states"]

    first, second = states_after_two_goals(exhaustive.SPACE_STATE_CAP)
    assert second > first > 50
    # The first search may cross the cap; the next one finds the space
    # full and searches a private one.
    assert states_after_two_goals(50) == (first, first)


def test_concurrent_searches_share_spaces_and_find_the_golden_plans():
    threads = 4
    cases = [  # the cheaper two thirds of the corpus
        (i, case)
        for i, case in enumerate(INPUTS)
        if GOLDEN["fplan"][i]["asymptotic"]["expanded"] < 200
    ]
    assert len(cases) > 100
    start = threading.Barrier(threads, timeout=60)
    failures = []

    def worker() -> None:
        # All threads start every search together: the cold round
        # builds each space from four threads at once, the warm round
        # reads it from four.
        try:
            for i, (tree, pairs) in cases:
                start.wait()
                got = plan_of(exhaustive_fplan(tree, pairs))
                if got != golden_plan(i):
                    failures.append((i, got))
        except Exception as exc:  # surfaced below
            start.abort()
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads finely
    try:
        for _ in ("cold", "warm"):
            pool = [threading.Thread(target=worker) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in pool)
            assert failures == []
    finally:
        sys.setswitchinterval(interval)
