""":class:`ReferenceEngine`: :class:`repro.engine.FDB` with every data
step swapped for its :mod:`repro.reference` twin.  The optimisers are
shared (f-tree and f-plan search see only trees); factorisation,
constant selection, plan execution (operator at a time, checking each
step's f-tree against the plan's prediction) and projection run on
``ProductRep`` objects.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.ftree import FTree
from repro.engine import FDB
from repro.optimiser.fplan import FPlan
from repro.query.query import Query, QueryError
from repro.reference import ops
from repro.reference.build import factorise
from repro.reference.relation import ObjectRelation
from repro.relational.operators import select_constant as flat_select
from repro.relational.relation import Relation

_STEP_OPS = {
    "swap": ops.swap,
    "merge": ops.merge,
    "absorb": ops.absorb,
    "push": ops.push_up,
}


def execute_plan(plan: FPlan, fr: ObjectRelation) -> ObjectRelation:
    """Replay the plan on data; checks tree agreement per step."""
    if fr.tree.key() != plan.input_tree.key():
        raise ValueError(
            "plan input f-tree does not match the relation's f-tree"
        )
    current = fr
    for step, expected in zip(plan.steps, plan.trees[1:]):
        current = _STEP_OPS[step.kind](current, *step.args)
        if current.tree.key() != expected.key():
            raise AssertionError(
                f"step {step} produced an unexpected f-tree"
            )
    return current


class ReferenceEngine(FDB):
    """:class:`~repro.engine.FDB` evaluating on objects (see above)."""

    def factorise_query(  # type: ignore[override]
        self, query: Query, tree: Optional[FTree] = None
    ) -> ObjectRelation:
        query.validate_against(self.database.schema())
        if tree is None:
            tree = self.optimal_tree(query)
        relations: List[Relation] = []
        for name in query.relations:
            relation = self.database[name]
            for cond in query.constants:
                if cond.attribute in relation.schema:
                    relation = flat_select(relation, cond)
            relations.append(relation)
        fr = ObjectRelation(tree, factorise(relations, tree))
        for cond in query.constants:
            if cond.op == "=":
                fr = ops.select_constant(fr, cond)
        if self.check_invariants:
            fr.validate()
        return fr

    def evaluate(self, query: Query) -> ObjectRelation:  # type: ignore[override]
        fr = self.factorise_query(query)
        if query.projection is not None:
            fr = ops.project(fr, query.projection)
            if self.check_invariants:
                fr.validate()
        return fr

    def evaluate_on(  # type: ignore[override]
        self, fr: ObjectRelation, query: Query
    ) -> Tuple[ObjectRelation, FPlan]:
        current = fr
        for cond in query.constants:
            if cond.attribute not in current.tree.attributes():
                raise QueryError(
                    f"unknown attribute {cond.attribute!r}"
                )
            current = ops.select_constant(current, cond)
            if self.check_invariants:
                current.validate()
        pairs = [(eq.left, eq.right) for eq in query.equalities]
        plan = self.plan_for(current.tree, pairs)
        current = execute_plan(plan, current)
        if self.check_invariants:
            current.validate()
        if query.projection is not None:
            current = ops.project(current, query.projection)
            if self.check_invariants:
                current.validate()
        return current, plan
