"""The FDB engine facade.

Ties the layers together into the two evaluation paths of the paper:

- :meth:`FDB.evaluate` -- an SPJ query over a *flat* database: find an
  optimal f-tree for the query result (Section 4 / Experiment 1),
  push the constant selections into the input relations, factorise
  the join directly from them over the constant-marked tree
  (Experiment 3), then apply the projection;
- :meth:`FDB.evaluate_on` -- an SPJ query over a *factorised* input:
  optimise an f-plan (exhaustive or greedy, Section 4.2/4.3) and
  execute its operator sequence on the representation (Experiment 4).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro import ops
from repro.core.build import factorise
from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FTree
from repro.ops.select import selected_tree
from repro.optimiser.exhaustive import SearchExhausted, exhaustive_fplan
from repro.optimiser.fplan import FPlan
from repro.optimiser.ftree_optimiser import (
    FTreeOptimiser,
    query_classes_and_edges,
)
from repro.optimiser.greedy import greedy_fplan
from repro.query.query import Query, QueryError
from repro.relational.database import Database
from repro.relational.operators import select_constant as flat_select
from repro.relational.relation import Relation


class FDB:
    """In-memory query engine for factorised relational databases.

    Parameters
    ----------
    database:
        The flat input database (used by :meth:`evaluate`; queries over
        factorised inputs via :meth:`evaluate_on` do not touch it).
    plan_search:
        ``"exhaustive"`` (Section 4.2) or ``"greedy"`` (Section 4.3) --
        the optimiser used for f-plans over factorised inputs.
    cost_model:
        ``"asymptotic"`` (``s(T)``) or ``"estimates"`` (sizes from a
        :class:`~repro.costs.cardinality.Statistics` catalogue of
        ``database``) -- that search's cost measure.  The f-tree search
        of :meth:`evaluate` reads neither knob.
    check_invariants:
        When true, every produced representation is validated against
        the structural invariants (for tests and debugging).
    shared_pool:
        Intern values into this shared :class:`~repro.core.arena.
        ValuePool` (one per worker/connection) instead of a private
        pool per result, so independently built results recombine by
        id -- see :meth:`repro.core.build.Factoriser.run`.

    >>> from repro.relational import Database
    >>> from repro.query import parse_query
    >>> db = Database()
    >>> _ = db.add_rows("R", ("a", "b"), [(1, 1), (1, 2), (2, 2)])
    >>> _ = db.add_rows("S", ("c", "d"), [(1, 5), (2, 5), (2, 6)])
    >>> fdb = FDB(db)
    >>> result = fdb.evaluate(parse_query(
    ...     "SELECT * FROM R, S WHERE b = c"))
    >>> result.count()
    5
    """

    def __init__(
        self,
        database: Database,
        plan_search: str = "exhaustive",
        check_invariants: bool = False,
        cost_model: str = "asymptotic",
        shared_pool=None,
    ) -> None:
        if plan_search not in ("exhaustive", "greedy"):
            raise ValueError(f"unknown plan search {plan_search!r}")
        if cost_model not in ("asymptotic", "estimates"):
            raise ValueError(f"unknown cost model {cost_model!r}")
        self.database = database
        self.plan_search = plan_search
        self.check_invariants = check_invariants
        self.cost_model = cost_model
        self.shared_pool = shared_pool
        self._stats = None
        if cost_model == "estimates":
            from repro.costs.cardinality import Statistics

            self._stats = Statistics.of_database(database)
        #: Exhaustive f-plan searches that hit their state cap and were
        #: answered by the greedy heuristic instead (monotone).
        self.fplan_search_exhausted = 0

    # -- flat input path ------------------------------------------------------

    def optimal_tree(self, query: Query) -> FTree:
        """Optimal f-tree for the query result (all attributes)."""
        classes, edges = query_classes_and_edges(self.database, query)
        tree, _ = FTreeOptimiser(classes, edges).optimise()
        return tree

    def factorise_query(
        self, query: Query, tree: Optional[FTree] = None
    ) -> FactorisedRelation:
        """Factorised equi-join result over ``tree`` (constants applied).

        Constant conditions are the cheapest operators and run first
        (Section 4): each one, closed over its equality class
        (:meth:`Query.closed_constants` -- ``a = b AND b = 5`` also
        binds ``a = 5``), is pushed into every relation holding one of
        the class's attributes.  An equality additionally marks its
        node constant, so the node floats to the root and drops out of
        the cost parameter; the result is factorised directly over
        that constant tree (:func:`repro.ops.select.selected_tree`),
        with no selection on the arena afterwards.  The closure is
        what makes this exact: a relation meeting several branches of
        the constant tree is split into one trie per path, which
        factorises it exactly only if all of its rows carry the
        constant.
        """
        query.validate_against(self.database.schema())
        if tree is None:
            tree = self.optimal_tree(query)
        constants = query.closed_constants()
        relations: List[Relation] = []
        for name in query.relations:
            relation = self.database[name]
            for cond in constants:
                if cond.attribute in relation.schema:
                    relation = flat_select(relation, cond)
            relations.append(relation)
        tree = selected_tree(tree, query.constants)
        fr = FactorisedRelation(
            tree, factorise(relations, tree, pool=self.shared_pool)
        )
        if self.check_invariants:
            fr.validate()
        return fr

    def evaluate(self, query: Query) -> FactorisedRelation:
        """Full SPJ evaluation over the flat database."""
        fr = self.factorise_query(query)
        if query.projection is not None:
            fr = ops.project(fr, query.projection)
            if self.check_invariants:
                fr.validate()
        return fr

    # -- factorised input path --------------------------------------------------

    def plan_for(
        self,
        tree: FTree,
        equalities: Sequence[Tuple[str, str]],
    ) -> FPlan:
        """Optimise an f-plan for equality selections on ``tree``.

        An exhaustive search that runs into its state cap degrades to
        the greedy heuristic (a valid, possibly costlier plan) rather
        than failing the request; :attr:`fplan_search_exhausted`
        counts how often.
        """
        pairs = list(equalities)
        if self.plan_search == "exhaustive":
            try:
                return exhaustive_fplan(tree, pairs, stats=self._stats)
            except SearchExhausted:
                self.fplan_search_exhausted += 1
        return greedy_fplan(tree, pairs, stats=self._stats)

    def evaluate_on(
        self, fr: FactorisedRelation, query: Query
    ) -> Tuple[FactorisedRelation, FPlan]:
        """Evaluate a query over a factorised input relation.

        Returns the result and the f-plan chosen for the equality
        conditions (constants run first, projection last, exactly as
        in Section 4's operator ordering).
        """
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
        current = plan.execute(current)
        if self.check_invariants:
            current.validate()
        if query.projection is not None:
            current = ops.project(current, query.projection)
            if self.check_invariants:
                current.validate()
        return current, plan
