"""Plan identity: both optimisers return exactly the golden choices.

``tests/data/optimiser_golden.json`` was generated by
``scripts/gen_optimiser_golden.py`` at the parent commit of the
integer-coded search core (set-based ``FTreeOptimiser._best``, an
``FTree`` per f-plan search state) and committed unchanged.  Equal
*cost* would not be enough: which of several equally cheap f-trees or
f-plans is picked moves downstream run times by tens of percent, so the
tie-breaking is part of the optimisers' contract.  The per-search state
counts pin the stronger claim that the search itself is the same one --
same states expanded, same neighbours generated -- only cheaper per
state.
"""

import json

import pytest

from repro.costs.cardinality import Statistics
from repro.optimiser import exhaustive_fplan, optimal_ftree
from repro.optimiser.bitspace import COUNTERS
from tests.conftest import load_script

gen = load_script("gen_optimiser_golden")

with open(gen.GOLDEN_PATH, encoding="utf-8") as handle:
    GOLDEN = json.load(handle)


def test_corpus_meets_its_size_floor():
    assert GOLDEN["seed"] == gen.SEED
    assert len(GOLDEN["ftree"]) >= 300
    assert {case["relations"] for case in GOLDEN["ftree"]} == set(
        range(3, 9)
    )
    assert len(GOLDEN["fplan"]) >= 150
    assert {(c["K"], c["L"]) for c in GOLDEN["fplan"]} == {
        (k, l_eq) for k in range(1, 6) for l_eq in range(1, 5)
    }


def test_optimal_ftrees_are_the_golden_ones():
    inputs = list(gen.ftree_inputs())
    assert len(inputs) == len(GOLDEN["ftree"])
    for (case, db, query), want in zip(inputs, GOLDEN["ftree"]):
        assert str(query) == want["query"], case  # same input drawn
        tree, cost = optimal_ftree(db, query)
        assert gen.jsonable(tree.key()) == want["key"], case
        assert gen.jsonable(cost) == want["s"], case


@pytest.mark.parametrize("cost_model", ["asymptotic", "estimates"])
def test_exhaustive_fplans_are_the_golden_ones(cost_model):
    inputs = list(gen.fplan_inputs())
    assert len(inputs) == len(GOLDEN["fplan"])
    before = COUNTERS.snapshot()
    for (case, db, tree, pairs), want in zip(inputs, GOLDEN["fplan"]):
        assert gen.jsonable(tree.key()) == want["input_key"], case
        assert gen.jsonable(pairs) == want["equalities"], case
        stats = (
            Statistics.of_database(db)
            if cost_model == "estimates"
            else None
        )
        got = gen.plan_record(
            lambda: exhaustive_fplan(tree, pairs, stats=stats)
        )
        assert got == want[cost_model], case
    # The searches' own tally agrees with the parent's count, which was
    # taken from outside by wrapping ``exhaustive._neighbours``.
    spent = COUNTERS.since(before)
    for counter, field in (
        ("fplan_states_expanded", "expanded"),
        ("fplan_states_generated", "generated"),
    ):
        assert spent[counter] == sum(
            case[cost_model][field] for case in GOLDEN["fplan"]
        )
    assert spent["fplan_searches"] == len(inputs)
