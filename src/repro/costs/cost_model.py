"""Cost measures for f-trees and f-plans (Section 4.1).

The asymptotic measure: ``s(T)`` is the maximum, over root-to-leaf
paths of ``T``, of the fractional edge cover number of the attribute
classes on the path (constant nodes are ignored, cf. Section 3.3).
The cost of an f-plan is the bottleneck ``s(f) = max_i s(T_i)`` over
the f-trees it traverses, and f-plans compare lexicographically by
``(s(f), s(T_final))`` -- the paper's ``<max x <s(T)`` order.

Covers are memoised on the (path classes, edges) pair: during the
optimiser's search thousands of trees share paths.  Behind that memo
sits the process-wide signature-keyed LP memo of
:mod:`repro.costs.edge_cover`, which the integer-coded optimisers
(:mod:`repro.optimiser.bitspace`) consult directly.  Both hold floats;
:func:`path_cover` and :func:`s_tree` return exact ``Fraction`` values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import FrozenSet, Sequence, Tuple, Union

from repro.core.ftree import FTree, label_key
from repro.costs.edge_cover import SIGNATURE_COVERS, CoverError, exact

_Classes = Tuple[FrozenSet[str], ...]
_Edges = FrozenSet[FrozenSet[str]]
_Cost = Union[Fraction, float]


@lru_cache(maxsize=262144)
def _cover_cached(classes: _Classes, edges: _Edges) -> float:
    # Edges numbered as SearchSpace numbers them, so both share entries.
    numbered = list(enumerate(sorted(edges, key=label_key)))
    return SIGNATURE_COVERS.cover(
        frozenset(
            sum(1 << i for i, edge in numbered if edge & cls)
            for cls in classes
        )
    )


def _path_cover(classes: Sequence[FrozenSet[str]], edges: _Edges) -> float:
    canonical = tuple(sorted(set(classes), key=lambda c: tuple(sorted(c))))
    return _cover_cached(canonical, edges)


def path_cover(
    classes: Sequence[FrozenSet[str]], edges: _Edges
) -> Fraction:
    """Fractional cover of one path's classes (order-insensitive)."""
    return exact(_path_cover(classes, edges))


def s_tree(tree: FTree) -> Fraction:
    """The parameter ``s(T)``: worst root-to-leaf fractional cover.

    >>> from repro.core.ftree import FTree
    >>> t = FTree.from_nested(
    ...     [("a", [("b", [])])], edges=[{"a", "b"}])
    >>> s_tree(t)
    Fraction(1, 1)
    """
    edges = tree.edges.edges
    best = 0.0
    for path in tree.root_to_leaf_paths():
        classes = [node.label for node in path if not node.constant]
        if not classes:
            continue
        try:
            cover = _path_cover(classes, edges)
        except CoverError:
            # A class with no covering edge cannot occur for query
            # f-trees; treat it as infinitely expensive if it does.
            return Fraction(10**9)
        if cover > best:
            best = cover
    return exact(best)


def s_plan(trees: Sequence[FTree]) -> Fraction:
    """Bottleneck cost ``s(f)`` of an f-plan through ``trees``."""
    if not trees:
        return Fraction(0)
    return max(s_tree(tree) for tree in trees)


class PlanCost:
    """The lexicographic f-plan cost ``<max x <s(T)`` of Section 4.1.

    Comparison is by (bottleneck ``s(f)``, final ``s(T)``), then by the
    number of operators as an implementation-level tiebreak so that
    shorter equally-good plans win deterministically.
    """

    __slots__ = ("bottleneck", "final", "length")

    def __init__(self, bottleneck: _Cost, final: _Cost, length: int) -> None:
        self.bottleneck = bottleneck
        self.final = final
        self.length = length

    def as_tuple(self) -> Tuple[_Cost, _Cost, int]:
        return (self.bottleneck, self.final, self.length)

    def __lt__(self, other: "PlanCost") -> bool:
        return self.as_tuple() < other.as_tuple()

    def __le__(self, other: "PlanCost") -> bool:
        return self.as_tuple() <= other.as_tuple()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PlanCost)
            and self.as_tuple() == other.as_tuple()
        )

    def __repr__(self) -> str:
        return (
            f"PlanCost(s(f)={self.bottleneck}, s(T)={self.final}, "
            f"ops={self.length})"
        )

    @staticmethod
    def of_trees(trees: Sequence[FTree]) -> "PlanCost":
        """Cost of a plan that traverses ``trees`` (first = input)."""
        return PlanCost(
            s_plan(trees), s_tree(trees[-1]), max(0, len(trees) - 1)
        )

    @staticmethod
    def of_floats(
        total: float, final: float, length: int
    ) -> "PlanCost":
        """Estimate-based cost (Section 4.1's alternative measure).

        Values are floats rather than Fractions; the comparison logic
        is identical, so estimate-based and asymptotic costs each form
        their own consistent order (they are never mixed in one
        optimiser run).
        """
        return PlanCost(total, final, length)


def clear_cover_cache() -> None:
    """Reset the memoised covers (between benchmark configurations),
    and the f-plan search spaces that keep s(T) values computed from
    them."""
    from repro.optimiser.bitspace import FPLAN_SPACES  # imports costs

    _cover_cached.cache_clear()
    SIGNATURE_COVERS.clear()
    FPLAN_SPACES.clear()
