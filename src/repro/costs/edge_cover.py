"""Fractional and integral edge cover numbers.

Section 2 defines the size-bound parameter ``s(T)`` through the
*fractional edge cover number* of each root-to-leaf path: the optimum
of the linear program

    minimise    sum_i x_{R_i}
    subject to  sum_{i : R_i covers A} x_{R_i} >= 1   for every class A,
                x_{R_i} >= 0.

The paper solves these LPs with GLPK; we solve them *exactly* instead,
with a small simplex over :class:`fractions.Fraction`.  Rather than
running two-phase simplex on the primal (whose origin is infeasible),
we solve the LP dual -- the fractional *packing* problem

    maximise    sum_A y_A
    subject to  sum_{A covered by R} y_A <= 1   for every edge R,
                y_A >= 0,

whose origin is feasible, and rely on strong duality.  Bland's rule
guarantees termination.  When SciPy is installed the test-suite
cross-checks this solver against ``scipy.optimize.linprog``.

The integral (non-weighted) edge cover number is provided for
completeness via branch-free subset enumeration -- the instances here
are tiny (one edge per query relation).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

INFEASIBLE = Fraction(-1)  # sentinel; callers treat it as "no cover"


class CoverError(ValueError):
    """Raised when no (finite) cover exists for some class."""


def _simplex_max(
    objective: Sequence[Fraction],
    matrix: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
) -> Fraction:
    """Maximise ``objective . y`` s.t. ``matrix y <= rhs``, ``y >= 0``.

    Requires ``rhs >= 0`` so the origin is feasible.  Returns the
    optimal objective value; raises :class:`CoverError` if unbounded.
    Dense tableau simplex with Bland's anti-cycling rule -- exact, and
    plenty fast for covers with at most a few dozen classes/edges.
    """
    n = len(objective)
    m = len(matrix)
    width = n + m + 1
    # tableau rows: constraints, then the objective row (negated costs).
    tableau: List[List[Fraction]] = []
    for i in range(m):
        row = [Fraction(v) for v in matrix[i]]
        row += [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        row.append(Fraction(rhs[i]))
        tableau.append(row)
    zrow = [-Fraction(c) for c in objective]
    zrow += [Fraction(0)] * (m + 1)
    tableau.append(zrow)
    basis = list(range(n, n + m))

    while True:
        # Bland: entering variable = smallest index with negative cost.
        enter = -1
        for j in range(width - 1):
            if tableau[m][j] < 0:
                enter = j
                break
        if enter < 0:
            return tableau[m][-1]
        # Ratio test; Bland tie-break on the leaving basic variable.
        leave = -1
        best: Optional[Fraction] = None
        for i in range(m):
            coef = tableau[i][enter]
            if coef > 0:
                ratio = tableau[i][-1] / coef
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            raise CoverError("LP is unbounded (a class has no cover)")
        # Pivot.
        pivot = tableau[leave][enter]
        tableau[leave] = [v / pivot for v in tableau[leave]]
        for i in range(m + 1):
            if i != leave and tableau[i][enter] != 0:
                factor = tableau[i][enter]
                tableau[i] = [
                    v - factor * p
                    for v, p in zip(tableau[i], tableau[leave])
                ]
        basis[leave] = enter


def fractional_edge_cover(
    classes: Sequence[AbstractSet[str]],
    edges: Sequence[AbstractSet[str]],
) -> Fraction:
    """The fractional edge cover number of ``classes`` by ``edges``.

    A class is covered by an edge when they share an attribute.  Raises
    :class:`CoverError` if some class is covered by no edge at all.

    >>> fractional_edge_cover([{"a"}, {"b"}], [{"a", "b"}])
    Fraction(1, 1)
    >>> fractional_edge_cover(                   # the triangle query
    ...     [{"a"}, {"b"}, {"c"}],
    ...     [{"a", "b"}, {"b", "c"}, {"a", "c"}])
    Fraction(3, 2)
    """
    classes = [frozenset(c) for c in classes]
    edges = [frozenset(e) for e in edges]
    if not classes:
        return Fraction(0)
    covers: List[List[int]] = []
    for cls in classes:
        covering = [j for j, edge in enumerate(edges) if edge & cls]
        if not covering:
            raise CoverError(f"class {sorted(cls)} has no covering edge")
        covers.append(covering)
    # Dual packing LP: variables y per class, one <=1 row per edge.
    relevant = sorted({j for covering in covers for j in covering})
    remap = {j: i for i, j in enumerate(relevant)}
    matrix = [
        [Fraction(0)] * len(classes) for _ in range(len(relevant))
    ]
    for i, covering in enumerate(covers):
        for j in covering:
            matrix[remap[j]][i] = Fraction(1)
    objective = [Fraction(1)] * len(classes)
    rhs = [Fraction(1)] * len(relevant)
    return _simplex_max(objective, matrix, rhs)


class SignatureCoverMemo:
    """Process-wide memo of cover numbers keyed by edge *signatures*.

    The packing LP above sees a class only through the set of edges
    that cover it -- its signature, here an ``int`` bitmask over some
    numbering of the edges.  Classes with equal signatures collapse to
    one LP variable, so the cover number of a class set is a function
    of its set of *distinct* signatures and of nothing else: not of the
    attribute names, not of the query the classes came from.  That set
    (a ``frozenset`` of small ints) is the memo key, which lets one
    solved LP serve every query and every optimiser in the process.

    Before solving, a key is reduced to independent pieces --
    signatures that contain another are dropped (their constraint is
    implied; on the golden corpus this alone takes a cold run from
    11.5k LPs to 0.4k), the rest split into groups sharing no edge (the LP is
    separable, covers add up) -- and every piece is memoised under its
    own reduced key too.  ``solves`` / ``hits`` are lifetime tallies
    the ``optimiser`` metrics namespace reports per search.
    """

    #: Entries kept before the memo is dropped wholesale (keys are a
    #: few machine words each; this only bounds a long-lived server).
    LIMIT = 262144

    def __init__(self) -> None:
        self._values: Dict[FrozenSet[int], Fraction] = {}
        self.solves = 0
        self.hits = 0

    def clear(self) -> None:
        self._values.clear()

    def cover(self, signatures: FrozenSet[int]) -> Fraction:
        """Fractional edge cover number of classes with ``signatures``."""
        value = self._values.get(signatures)
        if value is not None:
            self.hits += 1
            return value
        if 0 in signatures:
            raise CoverError("a class has no covering edge")
        total = Fraction(0)
        for group in _independent_groups(signatures):
            if len(group) == 1:
                total += 1  # one class: any one of its edges covers it
                continue
            value = self._values.get(group)
            if value is None:
                value = self._values[group] = _solve_signatures(group)
                self.solves += 1
            total += value
        if len(self._values) >= self.LIMIT:
            self._values.clear()
        self._values[signatures] = total
        return total


def _independent_groups(
    signatures: FrozenSet[int],
) -> List[FrozenSet[int]]:
    """Edge-disjoint groups of the minimal signatures (see above)."""
    minimal = [
        sig
        for sig in signatures
        if not any(
            other != sig and other & sig == other for other in signatures
        )
    ]
    groups: List[Tuple[int, List[int]]] = []  # (edge mask, signatures)
    for sig in minimal:
        members = [sig]
        rest = []
        for mask, others in groups:
            if mask & sig:
                sig |= mask
                members += others
            else:
                rest.append((mask, others))
        rest.append((sig, members))
        groups = rest
    return [frozenset(members) for _, members in groups]


def _solve_signatures(signatures: FrozenSet[int]) -> Fraction:
    """The packing LP over classes given as edge bitmasks."""
    columns = sorted(signatures)
    used = 0
    for sig in columns:
        used |= sig
    matrix = [
        [sig >> row & 1 for sig in columns]
        for row in range(used.bit_length())
        if used >> row & 1
    ]
    return _simplex_max([1] * len(columns), matrix, [1] * len(matrix))


#: The one memo (per process / worker); cleared by
#: :func:`repro.costs.cost_model.clear_cover_cache`.
SIGNATURE_COVERS = SignatureCoverMemo()


def integral_edge_cover(
    classes: Sequence[AbstractSet[str]],
    edges: Sequence[AbstractSet[str]],
) -> int:
    """The non-weighted cover number (smallest covering edge subset)."""
    classes = [frozenset(c) for c in classes]
    edges = [frozenset(e) for e in edges]
    if not classes:
        return 0
    useful = [e for e in edges if any(e & c for c in classes)]
    for size in range(1, len(useful) + 1):
        for subset in combinations(useful, size):
            if all(any(e & c for e in subset) for c in classes):
                return size
    raise CoverError("some class has no covering edge")


def fractional_edge_cover_scipy(
    classes: Sequence[AbstractSet[str]],
    edges: Sequence[AbstractSet[str]],
) -> float:
    """Primal LP via ``scipy.optimize.linprog`` (cross-check only)."""
    from scipy.optimize import linprog  # deferred optional import

    classes = [frozenset(c) for c in classes]
    edges = [frozenset(e) for e in edges]
    if not classes:
        return 0.0
    n = len(edges)
    a_ub = []
    for cls in classes:
        row = [-1.0 if edge & cls else 0.0 for edge in edges]
        if all(v == 0.0 for v in row):
            raise CoverError(f"class {sorted(cls)} has no covering edge")
        a_ub.append(row)
    result = linprog(
        c=[1.0] * n,
        A_ub=a_ub,
        b_ub=[-1.0] * len(classes),
        bounds=[(0, None)] * n,
        method="highs",
    )
    if not result.success:
        raise CoverError(f"linprog failed: {result.message}")
    return float(result.fun)
