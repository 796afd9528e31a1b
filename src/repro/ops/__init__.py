"""F-plan operators (Section 3).

Each module implements one operator, in two flavours: a *tree-level*
transform (``*_tree``) used by the optimisers to explore the space of
f-trees cheaply, and the full *data* transform on a
:class:`~repro.core.factorised.FactorisedRelation`, rewriting every
occurrence of the affected fragment while preserving the value-order
constraint, the path constraint and normalisation.  The data transform
is a direct call of the operator's prepared columnar kernel
(:mod:`repro.ops.arena_kernels`, :mod:`repro.core.arena`); the
object-at-a-time implementations the kernels are tested against live
in :mod:`repro.reference.ops`.

========================  ==================================  ===========
operator                   module                              paper
========================  ==================================  ===========
push-up ``psi_B``          :mod:`repro.ops.normalise`          Fig. 3(a)
normalisation ``eta``      :mod:`repro.ops.normalise`          Def. 3
swap ``chi_{A,B}``         :mod:`repro.ops.swap`               Fig. 3(b)/4
merge ``mu_{A,B}``         :mod:`repro.ops.merge`              Fig. 3(c)
absorb ``alpha_{A,B}``     :mod:`repro.ops.absorb`             Fig. 3(d)
select ``sigma_{A th c}``  :mod:`repro.ops.select`             Sec. 3.3
project ``pi_A``           :mod:`repro.ops.project`            Sec. 3.4
product ``x``              :mod:`repro.ops.product`            Sec. 3.2
union ``u``                :mod:`repro.ops.union`              (sharding)
========================  ==================================  ===========

The union operator is not one of the paper's f-plan operators: it
recombines per-shard results for the sharded execution path of
:mod:`repro.exec` (see its module docstring for the exactness
precondition).
"""

from repro.ops.base import OperatorError
from repro.ops.normalise import (
    normalise,
    normalise_tree,
    push_up,
    push_up_tree,
    pushable_nodes,
)
from repro.ops.swap import swap, swap_tree
from repro.ops.merge import merge, merge_tree
from repro.ops.absorb import absorb, absorb_tree
from repro.ops.select import select_constant, select_constant_tree
from repro.ops.project import project, project_tree
from repro.ops.product import product, product_tree
from repro.ops.union import union, union_all

__all__ = [
    "absorb",
    "absorb_tree",
    "merge",
    "merge_tree",
    "normalise",
    "normalise_tree",
    "OperatorError",
    "product",
    "product_tree",
    "project",
    "project_tree",
    "push_up",
    "push_up_tree",
    "pushable_nodes",
    "select_constant",
    "select_constant_tree",
    "swap",
    "swap_tree",
    "union",
    "union_all",
]
