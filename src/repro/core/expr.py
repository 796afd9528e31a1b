"""The f-representation expression AST of Definition 1.

This is the paper's formal representation system taken literally:
relational algebra expressions built from the empty relation, the
nullary tuple, attribute singletons ``<A:a>``, unions and products.
The arena of :mod:`repro.core.arena` is the engine's working
representation; this AST exists for

- faithful display (the factorisations printed in Examples 1 and 2),
- interoperability tests (arena -> AST -> relation round-trips),
- the formal ``size`` measure: the number of singletons.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.core.arena import ArenaRep, _views


class ExprError(ValueError):
    """Raised for ill-formed expressions (schema mismatches)."""


class Expression:
    """Base class of the AST; see the subclasses below."""

    def schema(self) -> FrozenSet[str]:
        raise NotImplementedError

    def size(self) -> int:
        """Number of singletons, the paper's ``|E|``."""
        raise NotImplementedError

    def tuples(self) -> Set[Tuple[Tuple[str, object], ...]]:
        """The represented relation, as a set of sorted attr/value maps."""
        raise NotImplementedError

    def to_text(self, unicode_glyphs: bool = True) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_text()


class Empty(Expression):
    """The empty relation over some schema."""

    def __init__(self, attributes: Iterable[str] = ()) -> None:
        self._schema = frozenset(attributes)

    def schema(self) -> FrozenSet[str]:
        return self._schema

    def size(self) -> int:
        return 0

    def tuples(self) -> Set[Tuple[Tuple[str, object], ...]]:
        return set()

    def to_text(self, unicode_glyphs: bool = True) -> str:
        return "∅" if unicode_glyphs else "{}"


class Nullary(Expression):
    """``<>``: the relation holding the nullary tuple (schema empty)."""

    def schema(self) -> FrozenSet[str]:
        return frozenset()

    def size(self) -> int:
        return 0

    def tuples(self) -> Set[Tuple[Tuple[str, object], ...]]:
        return {()}

    def to_text(self, unicode_glyphs: bool = True) -> str:
        return "⟨⟩" if unicode_glyphs else "<>"


class Singleton(Expression):
    """``<A:a>``: a unary relation with one value."""

    def __init__(self, attribute: str, value: object) -> None:
        self.attribute = attribute
        self.value = value

    def schema(self) -> FrozenSet[str]:
        return frozenset((self.attribute,))

    def size(self) -> int:
        return 1

    def tuples(self) -> Set[Tuple[Tuple[str, object], ...]]:
        return {((self.attribute, self.value),)}

    def to_text(self, unicode_glyphs: bool = True) -> str:
        if unicode_glyphs:
            return f"⟨{self.attribute}:{self.value}⟩"
        return f"<{self.attribute}:{self.value}>"


class Union(Expression):
    """``E1 ∪ ... ∪ En`` over a common schema."""

    def __init__(self, parts: Sequence[Expression]) -> None:
        if not parts:
            raise ExprError("a union needs at least one part")
        schemas = {part.schema() for part in parts}
        if len(schemas) != 1:
            raise ExprError(f"union over mixed schemas: {schemas}")
        self.parts = list(parts)

    def schema(self) -> FrozenSet[str]:
        return self.parts[0].schema()

    def size(self) -> int:
        return sum(part.size() for part in self.parts)

    def tuples(self) -> Set[Tuple[Tuple[str, object], ...]]:
        out: Set[Tuple[Tuple[str, object], ...]] = set()
        for part in self.parts:
            out |= part.tuples()
        return out

    def to_text(self, unicode_glyphs: bool = True) -> str:
        sep = " ∪ " if unicode_glyphs else " u "
        return sep.join(part.to_text(unicode_glyphs) for part in self.parts)


class Product(Expression):
    """``E1 × ... × En`` over disjoint schemas."""

    def __init__(self, parts: Sequence[Expression]) -> None:
        if not parts:
            raise ExprError("a product needs at least one part")
        seen: Set[str] = set()
        for part in parts:
            overlap = seen & part.schema()
            if overlap:
                raise ExprError(f"product schemas overlap on {overlap}")
            seen |= part.schema()
        self.parts = list(parts)

    def schema(self) -> FrozenSet[str]:
        out: Set[str] = set()
        for part in self.parts:
            out |= part.schema()
        return frozenset(out)

    def size(self) -> int:
        return sum(part.size() for part in self.parts)

    def tuples(self) -> Set[Tuple[Tuple[str, object], ...]]:
        combos: List[Tuple[Tuple[str, object], ...]] = [()]
        for part in self.parts:
            part_tuples = part.tuples()
            combos = [
                left + right for left in combos for right in part_tuples
            ]
            if not combos:
                return set()
        return {tuple(sorted(combo)) for combo in combos}

    def to_text(self, unicode_glyphs: bool = True) -> str:
        sep = " × " if unicode_glyphs else " x "
        rendered = []
        for part in self.parts:
            text = part.to_text(unicode_glyphs)
            if isinstance(part, Union) and len(part.parts) > 1:
                text = f"({text})"
            rendered.append(text)
        return sep.join(rendered)


def expression_of(arena: ArenaRep) -> Expression:
    """AST of a (non-empty) arena: one walk over its plain form."""
    arena = arena.dense()
    skel, pool = arena.skel, arena.pool
    values, offsets = _views(arena)

    def forest(units: List[Tuple[int, int, int]]) -> Expression:
        """``units``: one (node, lo, hi) union occurrence per tree."""
        if not units:
            return Nullary()
        parts = [union(idx, lo, hi) for idx, lo, hi in units]
        return parts[0] if len(parts) == 1 else Product(parts)

    def union(idx: int, lo: int, hi: int) -> Expression:
        if lo >= hi:
            raise ExprError("empty union inside an arena")
        kids = skel.children[idx]
        terms: List[Expression] = []
        for e in range(lo, hi):
            value = pool[values[idx][e]]
            singletons: List[Expression] = [
                Singleton(attr, value) for attr in skel.attr_tuples[idx]
            ]
            if kids:
                singletons.append(
                    forest(
                        [
                            (k, off[e], off[e + 1])
                            for off, k in zip(offsets[idx], kids)
                        ]
                    )
                )
            terms.append(
                singletons[0]
                if len(singletons) == 1
                else Product(singletons)
            )
        return terms[0] if len(terms) == 1 else Union(terms)

    return forest([(r, 0, len(values[r])) for r in skel.roots])
