"""Ablation benchmarks for the design choices called out in DESIGN.md.

Not paper figures -- these quantify *why* the design is as it is:

- **f-tree choice**: factorisation size with the optimal f-tree vs a
  deliberately bad (chain) f-tree over the same query -- the reason
  query optimisation has the second objective (Section 4);
- **swap algorithm**: the Figure 4 priority-queue swap vs the naive
  sort-based reference implementation;
- **cover solver**: the exact Fraction simplex vs scipy's linprog
  (when scipy is available);
- **plan search**: exhaustive vs greedy end-to-end on data (the
  execution-time consequence of Figure 6's quality gap).
"""

from __future__ import annotations

import random

import pytest

from benchmarks.conftest import bench_json, emit
from repro.core.build import factorise
from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FNode, FTree
from repro.costs.cost_model import s_tree
from repro.experiments.report import format_table
from repro.optimiser.ftree_optimiser import (
    FTreeOptimiser,
    query_classes_and_edges,
)
from repro.query.hypergraph import Hypergraph
from repro.query.query import Query
from repro.reference import to_object
from repro.reference.ops import swap, swap_reference
from repro.workloads import random_database, random_equalities


def _workload(n=800, seed=3):
    db = random_database(3, 9, n, domain=40, seed=seed)
    query = Query.make(
        db.names, equalities=random_equalities(db, 2, seed=seed + 1)
    )
    return db, query


def _chain_tree(classes, edges) -> FTree:
    """A worst-case f-tree: one chain in path-constraint-safe order.

    Built by repeatedly taking, per connected component, any class and
    nesting the rest below it -- a valid but unoptimised structure.
    """
    components = edges.components(list(classes))
    roots = []
    for component in components:
        node = None
        for label in reversed(list(component)):
            node = FNode(label, [] if node is None else [node])
        roots.append(node)
    return FTree(roots, edges)


@pytest.mark.benchmark(group="ablation-ftree")
def test_ablation_ftree_choice(benchmark):
    """Optimal vs chain f-tree: representation size and cost."""
    db, query = _workload()
    classes, edges = query_classes_and_edges(db, query)
    optimal, cost = FTreeOptimiser(classes, edges).optimise()
    chain = _chain_tree(classes, edges)
    assert chain.satisfies_path_constraint()

    def build_both():
        a = factorise(list(db), optimal)
        b = factorise(list(db), chain)
        return a, b

    opt_data, chain_data = benchmark.pedantic(
        build_both, rounds=1, iterations=1
    )
    opt_fr = FactorisedRelation(optimal, opt_data)
    chain_fr = FactorisedRelation(chain, chain_data)
    emit(
        "Ablation: f-tree choice",
        format_table(
            ["tree", "s(T)", "size [singletons]"],
            [
                ["optimal", float(cost), opt_fr.size()],
                [
                    "chain",
                    float(s_tree(chain)),
                    chain_fr.size(),
                ],
            ],
        ),
    )
    bench_json(
        "ablation_ftree_choice",
        {
            "optimal_cost": float(cost),
            "optimal_singletons": opt_fr.size(),
            "chain_cost": float(s_tree(chain)),
            "chain_singletons": chain_fr.size(),
            "size_ratio": chain_fr.size() / max(opt_fr.size(), 1),
        },
    )
    assert opt_fr.same_relation(chain_fr)
    # The optimal tree must never lose; typically it wins big.
    assert opt_fr.size() <= chain_fr.size()


@pytest.mark.benchmark(group="ablation-swap")
@pytest.mark.parametrize("algorithm", ["priority-queue", "reference"])
def test_ablation_swap_algorithms(benchmark, algorithm):
    """Figure 4's PQ swap vs the naive implementation, both on the
    object representation (:mod:`repro.reference`)."""
    db, query = _workload(n=1500)
    classes, edges = query_classes_and_edges(db, query)
    tree, _ = FTreeOptimiser(classes, edges).optimise()
    fr = to_object(FactorisedRelation(tree, factorise(list(db), tree)))
    # Pick a swappable (parent, child) pair.
    pair = None
    for node in fr.tree.iter_nodes():
        parent = fr.tree.parent_of(node)
        if parent is not None:
            pair = (min(parent.label), min(node.label))
            break
    assert pair is not None
    fn = swap if algorithm == "priority-queue" else swap_reference
    result = benchmark(lambda: fn(fr, *pair))
    assert set(result.rows(fr.attributes)) == set(fr.rows())


@pytest.mark.benchmark(group="ablation-cover")
def test_ablation_cover_solvers(benchmark):
    """Exact Fraction simplex vs scipy linprog on random covers."""
    rng = random.Random(5)
    instances = []
    for _ in range(50):
        attrs = [f"v{i}" for i in range(rng.randint(3, 8))]
        edges = [
            set(rng.sample(attrs, rng.randint(2, min(3, len(attrs)))))
            for _ in range(rng.randint(2, 5))
        ]
        classes = [{a} for a in sorted(set().union(*edges))]
        instances.append((classes, edges))

    from repro.costs.edge_cover import fractional_edge_cover

    def run_exact():
        return [
            fractional_edge_cover(c, e) for c, e in instances
        ]

    exact = benchmark(run_exact)
    try:
        from repro.costs.edge_cover import (
            fractional_edge_cover_scipy,
        )

        approx = [
            fractional_edge_cover_scipy(c, e) for c, e in instances
        ]
        for fraction_value, float_value in zip(exact, approx):
            assert abs(float(fraction_value) - float_value) < 1e-9
    except ImportError:  # scipy genuinely absent
        pass


@pytest.mark.benchmark(group="ablation-plan")
@pytest.mark.parametrize("planner", ["exhaustive", "greedy"])
def test_ablation_plan_search_end_to_end(benchmark, planner):
    """Plan quality consequence: execute both planners' plans."""
    from repro.engine import FDB
    from repro.workloads import random_followup_equalities

    db, query = _workload(n=400, seed=9)
    fdb = FDB(db, plan_search=planner)
    fr = fdb.evaluate(query)
    eqs = random_followup_equalities(fr.tree, 2, seed=4)
    followup = Query.make([], equalities=eqs)

    result, plan = benchmark(
        lambda: fdb.evaluate_on(fr, followup)
    )
    assert result.count() >= 0
