"""Core factorised-database layer: f-trees and f-representations.

This subpackage is the paper's primary contribution surface:

- :mod:`repro.core.ftree` -- factorisation trees with the dependency
  hypergraph, path constraint and normalisation predicate (Section 2);
- :mod:`repro.core.arena` -- the arena: f-representations as flat
  interned-value and offset-range columns, with their validation,
  size, counting and constant-delay enumeration;
- :mod:`repro.core.expr` -- the Definition-1 expression AST;
- :mod:`repro.core.build` -- factorising flat data over an f-tree;
- :mod:`repro.core.factorised` -- the user-facing bundle of an f-tree
  and its arena;
- :mod:`repro.core.aggregate` -- SQL aggregates without enumeration.

(The object representation the arena replaced is
:mod:`repro.reference`, the tests' differential oracle; nothing here
imports it.)
"""

from repro.core import aggregate
from repro.core.arena import (
    ArenaRep,
    FRepError,
    iter_assignments,
    iter_rows,
    representation_size,
    tuple_count,
    validate_arena,
    validate_tree,
)
from repro.core.build import Factoriser, factorise
from repro.core.expr import expression_of
from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FNode, FTree, FTreeError

__all__ = [
    "aggregate",
    "ArenaRep",
    "expression_of",
    "factorise",
    "FactorisedRelation",
    "Factoriser",
    "FNode",
    "FRepError",
    "FTree",
    "FTreeError",
    "iter_assignments",
    "iter_rows",
    "representation_size",
    "tuple_count",
    "validate_arena",
    "validate_tree",
]
