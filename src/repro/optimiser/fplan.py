"""F-plans: sequences of f-plan operators (Section 4).

An :class:`FPlan` records the operator steps chosen by an optimiser,
together with every intermediate f-tree -- the trees determine the
plan's cost ``s(f) = max_i s(T_i)`` and the final factorisation's cost
``s(T_final)``.  Executing a plan replays the same steps on a
:class:`~repro.core.factorised.FactorisedRelation`, asserting that the
f-trees produced on data match the trees predicted at planning time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro import ops
from repro.core.factorised import FactorisedRelation
from repro.ops.arena_kernels import compiled_plan_for
from repro.core.ftree import FTree
from repro.costs.cost_model import PlanCost


@dataclass(frozen=True)
class Step:
    """One f-plan operator application.

    ``kind`` is one of ``swap`` (args: parent attr, child attr),
    ``merge`` (two sibling attrs), ``absorb`` (ancestor attr,
    descendant attr) or ``push`` (pushed node's attr).
    """

    kind: str
    args: Tuple[str, ...]

    def transform_tree(self, tree: FTree) -> FTree:
        if self.kind == "swap":
            return ops.swap_tree(tree, *self.args)
        if self.kind == "merge":
            return ops.merge_tree(tree, *self.args)
        if self.kind == "absorb":
            return ops.absorb_tree(tree, *self.args)
        if self.kind == "push":
            return ops.push_up_tree(tree, *self.args)
        raise ValueError(f"unknown step kind {self.kind!r}")

    def __str__(self) -> str:
        symbol = {
            "swap": "chi",
            "merge": "mu",
            "absorb": "alpha",
            "push": "psi",
        }[self.kind]
        return f"{symbol}({', '.join(self.args)})"


class FPlan:
    """A sequence of steps with its intermediate f-trees and cost."""

    __slots__ = ("steps", "trees", "cost", "__weakref__")

    def __init__(self, input_tree: FTree, steps: Sequence[Step]) -> None:
        self.steps: Tuple[Step, ...] = tuple(steps)
        trees: List[FTree] = [input_tree]
        for step in self.steps:
            trees.append(step.transform_tree(trees[-1]))
        self.trees: Tuple[FTree, ...] = tuple(trees)
        self.cost: PlanCost = PlanCost.of_trees(self.trees)

    @property
    def input_tree(self) -> FTree:
        return self.trees[0]

    @property
    def output_tree(self) -> FTree:
        return self.trees[-1]

    def execute(self, fr: FactorisedRelation) -> FactorisedRelation:
        """Run the plan on data: the whole plan as one compiled chain
        of prepared columnar kernels (weakly cached per plan, see
        :mod:`repro.ops.arena_kernels`); per-step tree agreement is
        checked once, when the chain is compiled."""
        if fr.tree.key() != self.input_tree.key():
            raise ValueError(
                "plan input f-tree does not match the relation's f-tree"
            )
        return compiled_plan_for(self).execute(fr)

    def then(self, more: Sequence[Step]) -> "FPlan":
        """A new plan extending this one."""
        return FPlan(self.input_tree, list(self.steps) + list(more))

    def __len__(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        if not self.steps:
            return "<identity f-plan>"
        return " ; ".join(str(step) for step in self.steps)

    def __repr__(self) -> str:
        return f"FPlan({self}, cost={self.cost!r})"
