"""The reference implementation: FDB on one Python object per entry.

Before the arena (:mod:`repro.core.arena`) became the engine's one
physical representation, every f-representation was a tree of
:class:`ProductRep` / :class:`UnionRep` objects and every operator a
recursive rewrite of that tree.  That implementation follows the
paper's figures line by line and is the **differential oracle** of the
test-suite: the builder, every columnar kernel and the counting,
enumeration, aggregation and validation passes are checked against
their object twin here (:class:`ObjectRelation` is the f-tree + object
data bundle, :class:`ReferenceEngine` the FDB facade over all of it).

Nothing under ``src/repro`` outside this package imports it
(``tests/test_layering.py`` enforces that): it is never on a query's
path and may be slow.
"""

from repro.reference import ops
from repro.reference.build import ObjectFactoriser, factorise
from repro.reference.convert import from_product, to_product
from repro.reference.engine import ReferenceEngine, execute_plan
from repro.reference.frep import ProductRep, UnionRep
from repro.reference.relation import (
    ObjectRelation,
    from_object,
    to_object,
)

__all__ = [
    "execute_plan",
    "factorise",
    "from_object",
    "from_product",
    "ObjectFactoriser",
    "ObjectRelation",
    "ops",
    "ProductRep",
    "ReferenceEngine",
    "to_object",
    "to_product",
    "UnionRep",
]
