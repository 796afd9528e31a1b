#!/usr/bin/env python3
"""Generate ``tests/data/optimiser_golden.json``: the plan-identity corpus.

The optimisers' tie-breaking is contractual (README, *Query
optimisation*): a faster search must return the very same f-tree and
f-plan, not just one of equal cost.  This script pins that contract as
data.  It draws a seeded corpus from the :mod:`repro.workloads`
generators --

- f-tree half: SPJ queries over 3-8 relations -> ``FTree.key()`` and
  ``s(T)`` of :func:`~repro.optimiser.optimal_ftree`;
- f-plan half: follow-up equality sets (K = 1..5 input equalities,
  L = 1..4 follow-ups, the Experiment 2 shape) -> step sequence,
  ``PlanCost.as_tuple()`` and the number of states the search expanded
  and generated, for both ``cost_model`` values --

and writes it as JSON.  ``tests/test_optimiser_golden.py`` rebuilds the
corpus with :func:`build_corpus` and asserts equality with the
committed file, which was generated **at the parent commit of the
integer-coded search core** (PR 14) and committed unchanged::

    PYTHONPATH=<parent checkout>/src python scripts/gen_optimiser_golden.py

Search states are counted from the ``optimiser`` counters where the
checkout has them and by wrapping ``exhaustive._neighbours`` where it
does not (the parent commit), so the same script runs on both sides.
"""

from __future__ import annotations

import argparse
import json
import os
from fractions import Fraction
from typing import Callable, Iterator, List, Tuple

from repro.costs.cardinality import Statistics
from repro.optimiser import exhaustive
from repro.optimiser.exhaustive import exhaustive_fplan
from repro.optimiser.ftree_optimiser import optimal_ftree
from repro.workloads import (
    random_database,
    random_followup_equalities,
    random_query,
    random_spj_query,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    os.pardir,
    "tests",
    "data",
    "optimiser_golden.json",
)

SEED = 20120827  # PVLDB 5(11), where the paper appeared
JOIN_CASES = 252
SPJ_CASES = 60
FPLAN_REPEATS = 8  # per (K, L): 5 x 4 x 8 = 160 follow-up sets


def jsonable(value):
    """Tuples -> lists, Fractions -> 'n/d': what JSON can round-trip."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (tuple, list)):
        return [jsonable(v) for v in value]
    return value


def ftree_inputs() -> Iterator[Tuple[dict, object, object]]:
    """(descriptor, database, query) of every f-tree case."""
    for i in range(JOIN_CASES):
        relations = 3 + i % 6
        attributes = relations * (2 + (i // 6) % 3)
        equalities = 1 + (i * 7) % min(9, attributes - 1)
        seed = SEED + i
        db = random_database(relations, attributes, 4, seed=seed)
        query = random_query(db, equalities, seed=seed + 1)
        yield (
            dict(kind="join", relations=relations, seed=seed), db, query
        )
    for i in range(SPJ_CASES):
        relations = 3 + i % 6
        db = random_database(
            relations, relations * 3, 4, seed=SEED + 10_000 + i
        )
        seed = SEED + 20_000 + 100 * i
        while True:  # first draw that joins at least three relations
            query = random_spj_query(
                db, seed=seed, max_equalities=relations + 2
            )
            if len(query.relations) >= 3:
                break
            seed += 1
        yield dict(kind="spj", relations=relations, seed=seed), db, query


def fplan_inputs() -> Iterator[Tuple[dict, object, object, list]]:
    """(descriptor, database, input f-tree, equalities) per f-plan case."""
    for k in range(1, 6):
        for l_eq in range(1, 5):
            for rep in range(FPLAN_REPEATS):
                seed = SEED + 997 * k + 31 * l_eq + rep
                db = random_database(4, 10, 10, seed=seed)
                query = random_query(db, k, seed=seed + 1)
                tree, _ = optimal_ftree(db, query)
                pairs = random_followup_equalities(
                    tree, l_eq, seed=seed + 2
                )
                yield dict(K=k, L=l_eq, seed=seed), db, tree, pairs


def counted_search(search: Callable[[], object]) -> Tuple[object, int, int]:
    """Run one f-plan search; returns (plan, expanded, generated)."""
    try:
        from repro.optimiser.bitspace import COUNTERS
    except ImportError:
        COUNTERS = None
    if COUNTERS is not None:
        before = COUNTERS.snapshot()
        plan = search()
        spent = COUNTERS.since(before)
        return (
            plan,
            spent["fplan_states_expanded"],
            spent["fplan_states_generated"],
        )
    # Parent commit: one ``_neighbours`` call per expanded state, one
    # yielded (step, tree) pair per generated state.
    original = exhaustive._neighbours
    counts = [0, 0]

    def wrapped(tree, goal):
        counts[0] += 1
        for item in original(tree, goal):
            counts[1] += 1
            yield item

    exhaustive._neighbours = wrapped
    try:
        plan = search()
    finally:
        exhaustive._neighbours = original
    return plan, counts[0], counts[1]


def plan_record(search: Callable[[], object]) -> dict:
    plan, expanded, generated = counted_search(search)
    return dict(
        steps=[[step.kind, list(step.args)] for step in plan.steps],
        cost=jsonable(plan.cost.as_tuple()),
        expanded=expanded,
        generated=generated,
    )


def build_corpus() -> dict:
    """The whole corpus as the JSON document (deterministic)."""
    ftrees: List[dict] = []
    for case, db, query in ftree_inputs():
        tree, cost = optimal_ftree(db, query)
        ftrees.append(
            dict(
                case,
                query=str(query),
                key=jsonable(tree.key()),
                s=jsonable(cost),
            )
        )
    fplans: List[dict] = []
    for case, db, tree, pairs in fplan_inputs():
        stats = Statistics.of_database(db)
        fplans.append(
            dict(
                case,
                input_key=jsonable(tree.key()),
                equalities=jsonable(pairs),
                asymptotic=plan_record(
                    lambda: exhaustive_fplan(tree, pairs)
                ),
                estimates=plan_record(
                    lambda: exhaustive_fplan(tree, pairs, stats=stats)
                ),
            )
        )
    return dict(seed=SEED, ftree=ftrees, fplan=fplans)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default=GOLDEN_PATH)
    args = parser.parse_args()
    corpus = build_corpus()
    os.makedirs(os.path.dirname(args.output), exist_ok=True)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(corpus, handle, separators=(",", ":"), sort_keys=True)
        handle.write("\n")
    states = sum(
        case[model]["expanded"]
        for case in corpus["fplan"]
        for model in ("asymptotic", "estimates")
    )
    print(
        f"wrote {args.output}: {len(corpus['ftree'])} f-trees, "
        f"{len(corpus['fplan'])} follow-up sets x 2 cost models, "
        f"{states} f-plan states expanded"
    )


if __name__ == "__main__":
    main()
