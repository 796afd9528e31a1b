"""The f-plan operators of Section 3 on the object representation.

One function per operator of :mod:`repro.ops`, same name and
arguments, over :class:`~repro.reference.relation.ObjectRelation`; the
f-tree transforms (``*_tree``) and operand checks are the engine's own.
Tree and data are kept positionally aligned (factor ``i`` of a product
belongs to tree ``i`` of the forest, in canonical label order), so
every operator

1. computes the new local forest (a list of nodes) together with the
   matching factor list,
2. sorts both with :func:`sort_pairs` so the canonical order of
   :class:`~repro.core.ftree.FNode`/:class:`~repro.core.ftree.FTree`
   construction is mirrored exactly in the data, and
3. uses :func:`rewrite_at_level` to locate and rewrite every occurrence
   of the level at which the anchor node sits, propagating emptiness
   upward (an entry whose children forest became empty is dropped; a
   union left with no entries empties its own level, recursively --
   the eager pruning that keeps representations free of empty unions).
"""

from __future__ import annotations

import heapq
from typing import (
    AbstractSet,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.ftree import FNode, FTree, label_key
from repro.ops.absorb import _absorb_parts, _structural_tree
from repro.ops.base import OperatorError
from repro.ops.merge import _merge_parts, merge_tree
from repro.ops.normalise import (
    normalise_tree,
    push_up_tree,
    pushable_nodes,
)
from repro.ops.product import product_tree
from repro.ops.select import select_constant_tree
from repro.ops.swap import _swap_parts, swap_tree
from repro.ops.union import _require_same_tree
from repro.query.query import ConstantCondition
from repro.reference.frep import ProductRep, UnionRep, Value
from repro.reference.relation import ObjectRelation


# -- shared machinery ----------------------------------------------------------


#: A level rewriter: receives the factor list of one occurrence of the
#: anchor's level and returns the new factor list, or ``None`` when the
#: level became empty.
LevelFn = Callable[[List[UnionRep]], Optional[List[UnionRep]]]


def sort_pairs(
    nodes: Sequence[FNode], factors: Sequence[UnionRep]
) -> Tuple[List[FNode], List[UnionRep]]:
    """Sort (node, factor) pairs by the canonical node order."""
    pairs = sorted(
        zip(nodes, factors), key=lambda pair: label_key(pair[0].label)
    )
    return [n for n, _ in pairs], [f for _, f in pairs]


def level_index(forest: Sequence[FNode], attribute: str) -> Optional[int]:
    """Index of the tree whose *root* holds ``attribute``, if any."""
    for i, node in enumerate(forest):
        if attribute in node.label:
            return i
    return None


def subtree_index(forest: Sequence[FNode], attribute: str) -> int:
    """Index of the tree whose subtree contains ``attribute``."""
    for i, node in enumerate(forest):
        if attribute in node.subtree_attributes():
            return i
    raise OperatorError(f"attribute {attribute!r} not under this forest")


def rewrite_at_level(
    forest: Sequence[FNode],
    factors: List[UnionRep],
    anchor: str,
    fn: LevelFn,
) -> Optional[List[UnionRep]]:
    """Apply ``fn`` at every occurrence of the level holding ``anchor``.

    ``forest``/``factors`` describe the *input* structure.  When the
    anchor labels one of the forest's roots, ``fn`` rewrites this
    occurrence directly.  Otherwise the rewrite recurses into the tree
    containing the anchor; entries whose rewritten children forest is
    empty are dropped, and ``None`` is returned if the union (and hence
    this whole level) becomes empty.
    """
    if level_index(forest, anchor) is not None:
        return fn(list(factors))
    idx = subtree_index(forest, anchor)
    node, union = forest[idx], factors[idx]
    new_entries: List[Tuple[object, ProductRep]] = []
    for value, child in union.entries:
        rewritten = rewrite_at_level(
            node.children, child.factors, anchor, fn
        )
        if rewritten is not None:
            new_entries.append((value, ProductRep(rewritten)))
    if not new_entries:
        return None
    out = list(factors)
    out[idx] = UnionRep(new_entries)
    return out


# -- push-up and normalisation (Section 3.1) -----------------------------------


def push_up(fr: ObjectRelation, b_attr: str) -> ObjectRelation:
    """Push-up on a factorised relation (tree and data together)."""
    tree = fr.tree
    node_b = tree.node_of(b_attr)
    node_a = tree.parent_of(node_b)
    new_tree = push_up_tree(tree, b_attr)
    if fr.data is None:
        return ObjectRelation(new_tree, None)
    assert node_a is not None

    a_anchor = next(iter(node_a.label))
    j_b = [c.label for c in node_a.children].index(node_b.label)
    other_children = [
        c for c in node_a.children if c.label != node_b.label
    ]
    new_a = node_a.with_children(other_children)

    # The rewriter needs the old level's forest to align factors with
    # nodes; that forest is wherever node_a sits in the old tree.
    parent = tree.parent_of(node_a)
    old_level = list(parent.children) if parent is not None else list(
        tree.roots
    )

    def rewrite(factors: List[UnionRep]) -> Optional[List[UnionRep]]:
        i_a = [n.label for n in old_level].index(node_a.label)
        union_a = factors[i_a]
        # All copies of B's union are equal by independence; take the
        # first (the union is never empty inside valid data).
        union_b = union_a.entries[0][1].factors[j_b]
        reduced = UnionRep(
            (
                value,
                ProductRep(
                    child.factors[:j_b] + child.factors[j_b + 1 :]
                ),
            )
            for value, child in union_a.entries
        )
        nodes = [n for k, n in enumerate(old_level) if k != i_a]
        outs = [f for k, f in enumerate(factors) if k != i_a]
        nodes += [new_a, node_b]
        outs += [reduced, union_b]
        _, sorted_factors = sort_pairs(nodes, outs)
        return sorted_factors

    new_factors = rewrite_at_level(
        tree.roots, fr.data.factors, a_anchor, rewrite
    )
    data = None if new_factors is None else ProductRep(new_factors)
    return ObjectRelation(new_tree, data)


def normalise(fr: ObjectRelation) -> ObjectRelation:
    """The normalisation operator ``eta`` on a factorised relation."""
    current = fr
    while True:
        candidates = pushable_nodes(current.tree)
        if not candidates:
            return current
        node = max(
            candidates, key=lambda n: len(current.tree.ancestors(n))
        )
        current = push_up(current, next(iter(node.label)))


# -- swap (Section 3.1, Figure 4) ----------------------------------------------


def swap(
    fr: ObjectRelation, a_attr: str, b_attr: str
) -> ObjectRelation:
    """Swap on a factorised relation -- the Figure 4 algorithm."""
    tree = fr.tree
    node_a, node_b, a_others, t_b, t_ab = _swap_parts(
        tree, a_attr, b_attr
    )
    new_tree = swap_tree(tree, a_attr, b_attr)
    if fr.data is None:
        return ObjectRelation(new_tree, None)

    new_a = FNode(node_a.label, a_others + t_ab, node_a.constant)
    new_b = FNode(node_b.label, t_b + [new_a], node_b.constant)

    parent = tree.parent_of(node_a)
    old_level = list(parent.children) if parent is not None else list(
        tree.roots
    )
    i_a = [n.label for n in old_level].index(node_a.label)
    j_b = [c.label for c in node_a.children].index(node_b.label)
    b_children = list(node_b.children)
    tb_idx = [
        k for k, c in enumerate(b_children)
        if any(c.label == t.label for t in t_b)
    ]
    tab_idx = [
        k for k, c in enumerate(b_children)
        if any(c.label == t.label for t in t_ab)
    ]

    def rewrite(factors: List[UnionRep]) -> Optional[List[UnionRep]]:
        union_a = factors[i_a]
        # -- Figure 4: regroup by B using a min-priority queue --------
        heap: List[Tuple[object, int]] = []
        positions: List[int] = []
        for idx, (_, prod_a) in enumerate(union_a.entries):
            inner = prod_a.factors[j_b]
            positions.append(0)
            heapq.heappush(heap, (inner.entries[0][0], idx))

        out_entries: List[Tuple[object, ProductRep]] = []
        while heap:
            b_min = heap[0][0]
            f_bmin: Optional[List[UnionRep]] = None
            inner_entries: List[Tuple[object, ProductRep]] = []
            while heap and heap[0][0] == b_min:
                _, idx = heapq.heappop(heap)
                a_value, prod_a = union_a.entries[idx]
                inner = prod_a.factors[j_b]
                _, prod_b = inner.entries[positions[idx]]
                if f_bmin is None:
                    f_bmin = [prod_b.factors[k] for k in tb_idx]
                g_ab = [prod_b.factors[k] for k in tab_idx]
                e_a = [
                    f for k, f in enumerate(prod_a.factors) if k != j_b
                ]
                nodes = a_others + t_ab
                facts = e_a + g_ab
                _, sorted_facts = sort_pairs(nodes, facts)
                inner_entries.append(
                    (a_value, ProductRep(sorted_facts))
                )
                positions[idx] += 1
                if positions[idx] < len(inner.entries):
                    heapq.heappush(
                        heap, (inner.entries[positions[idx]][0], idx)
                    )
            assert f_bmin is not None
            union_a_inner = UnionRep(inner_entries)
            nodes = t_b + [new_a]
            facts = f_bmin + [union_a_inner]
            _, sorted_facts = sort_pairs(nodes, facts)
            out_entries.append((b_min, ProductRep(sorted_facts)))

        union_b = UnionRep(out_entries)
        nodes = [n for k, n in enumerate(old_level) if k != i_a]
        outs = [f for k, f in enumerate(factors) if k != i_a]
        nodes.append(new_b)
        outs.append(union_b)
        _, sorted_factors = sort_pairs(nodes, outs)
        return sorted_factors

    a_anchor = next(iter(node_a.label))
    new_factors = rewrite_at_level(
        tree.roots, fr.data.factors, a_anchor, rewrite
    )
    data = None if new_factors is None else ProductRep(new_factors)
    return ObjectRelation(new_tree, data)


def swap_reference(
    fr: ObjectRelation, a_attr: str, b_attr: str
) -> ObjectRelation:
    """Sort-based swap used to cross-check the Figure 4 algorithm."""
    tree = fr.tree
    node_a, node_b, a_others, t_b, t_ab = _swap_parts(
        tree, a_attr, b_attr
    )
    new_tree = swap_tree(tree, a_attr, b_attr)
    if fr.data is None:
        return ObjectRelation(new_tree, None)

    new_a = FNode(node_a.label, a_others + t_ab, node_a.constant)
    parent = tree.parent_of(node_a)
    old_level = list(parent.children) if parent is not None else list(
        tree.roots
    )
    i_a = [n.label for n in old_level].index(node_a.label)
    j_b = [c.label for c in node_a.children].index(node_b.label)
    b_children = list(node_b.children)
    tb_idx = [
        k for k, c in enumerate(b_children)
        if any(c.label == t.label for t in t_b)
    ]
    tab_idx = [
        k for k, c in enumerate(b_children)
        if any(c.label == t.label for t in t_ab)
    ]

    def rewrite(factors: List[UnionRep]) -> Optional[List[UnionRep]]:
        union_a = factors[i_a]
        grouped: Dict[object, List[Tuple[object, ProductRep]]] = {}
        f_of_b: Dict[object, List[UnionRep]] = {}
        for a_value, prod_a in union_a.entries:
            e_a = [f for k, f in enumerate(prod_a.factors) if k != j_b]
            for b_value, prod_b in prod_a.factors[j_b].entries:
                f_of_b.setdefault(
                    b_value, [prod_b.factors[k] for k in tb_idx]
                )
                g_ab = [prod_b.factors[k] for k in tab_idx]
                _, sorted_facts = sort_pairs(
                    a_others + t_ab, e_a + g_ab
                )
                grouped.setdefault(b_value, []).append(
                    (a_value, ProductRep(sorted_facts))
                )
        out_entries = []
        for b_value in sorted(grouped):
            _, sorted_facts = sort_pairs(
                t_b + [new_a],
                f_of_b[b_value] + [UnionRep(grouped[b_value])],
            )
            out_entries.append((b_value, ProductRep(sorted_facts)))
        nodes = [n for k, n in enumerate(old_level) if k != i_a]
        outs = [f for k, f in enumerate(factors) if k != i_a]
        _, sorted_factors = sort_pairs(
            nodes + [FNode(node_b.label, t_b + [new_a], node_b.constant)],
            outs + [UnionRep(out_entries)],
        )
        return sorted_factors

    new_factors = rewrite_at_level(
        tree.roots, fr.data.factors, next(iter(node_a.label)), rewrite
    )
    data = None if new_factors is None else ProductRep(new_factors)
    return ObjectRelation(new_tree, data)


# -- merge (Section 3.3, Figure 3(c)) ------------------------------------------


def merge(
    fr: ObjectRelation, a_attr: str, b_attr: str
) -> ObjectRelation:
    """Merge on a factorised relation: sort-merge join of the unions."""
    tree = fr.tree
    node_a, node_b, merged = _merge_parts(tree, a_attr, b_attr)
    new_tree = merge_tree(tree, a_attr, b_attr)
    if fr.data is None:
        return ObjectRelation(new_tree, None)

    parent = tree.parent_of(node_a)
    old_level = list(parent.children) if parent is not None else list(
        tree.roots
    )
    labels = [n.label for n in old_level]
    i_a = labels.index(node_a.label)
    i_b = labels.index(node_b.label)

    def rewrite(factors: List[UnionRep]) -> Optional[List[UnionRep]]:
        union_a, union_b = factors[i_a], factors[i_b]
        out: List[Tuple[object, ProductRep]] = []
        i = j = 0
        a_entries, b_entries = union_a.entries, union_b.entries
        while i < len(a_entries) and j < len(b_entries):
            a_value, a_child = a_entries[i]
            b_value, b_child = b_entries[j]
            if a_value < b_value:
                i += 1
            elif b_value < a_value:
                j += 1
            else:
                _, sorted_facts = sort_pairs(
                    list(node_a.children) + list(node_b.children),
                    a_child.factors + b_child.factors,
                )
                out.append((a_value, ProductRep(sorted_facts)))
                i += 1
                j += 1
        if not out:
            return None
        nodes = [
            n for k, n in enumerate(old_level) if k not in (i_a, i_b)
        ]
        outs = [
            f for k, f in enumerate(factors) if k not in (i_a, i_b)
        ]
        nodes.append(merged)
        outs.append(UnionRep(out))
        _, sorted_factors = sort_pairs(nodes, outs)
        return sorted_factors

    new_factors = rewrite_at_level(
        tree.roots, fr.data.factors, next(iter(node_a.label)), rewrite
    )
    data = None if new_factors is None else ProductRep(new_factors)
    return ObjectRelation(new_tree, data)


# -- absorb (Section 3.3, Figure 3(d)) -----------------------------------------


def absorb(
    fr: ObjectRelation, a_attr: str, b_attr: str
) -> ObjectRelation:
    """Absorb on a factorised relation (restriction + normalisation)."""
    tree = fr.tree
    node_a, node_b = _absorb_parts(tree, a_attr, b_attr)
    structural, merged = _structural_tree(tree, node_a, node_b)
    if fr.data is None:
        normalised, _ = normalise_tree(structural)
        return ObjectRelation(normalised, None)

    b_anchor = next(iter(node_b.label))

    def restrict(
        forest: Sequence[FNode],
        factors: Sequence[UnionRep],
        a_value: object,
    ) -> Optional[List[UnionRep]]:
        """Restrict B's union to ``a_value`` below this forest."""
        labels = [n.label for n in forest]
        if node_b.label in labels:
            i_b = labels.index(node_b.label)
            matched = factors[i_b].find(a_value)
            if matched is None:
                return None
            nodes = [n for k, n in enumerate(forest) if k != i_b]
            outs = [f for k, f in enumerate(factors) if k != i_b]
            nodes += list(node_b.children)
            outs += list(matched.factors)
            _, sorted_facts = sort_pairs(nodes, outs)
            return sorted_facts
        idx = subtree_index(forest, b_anchor)
        node, union = forest[idx], factors[idx]
        new_entries: List[Tuple[object, ProductRep]] = []
        for value, child in union.entries:
            res = restrict(node.children, child.factors, a_value)
            if res is not None:
                new_entries.append((value, ProductRep(res)))
        if not new_entries:
            return None
        out = list(factors)
        out[idx] = UnionRep(new_entries)
        return out

    parent = tree.parent_of(node_a)
    old_level = list(parent.children) if parent is not None else list(
        tree.roots
    )
    i_a = [n.label for n in old_level].index(node_a.label)

    def rewrite(factors: List[UnionRep]) -> Optional[List[UnionRep]]:
        union_a = factors[i_a]
        new_entries: List[Tuple[object, ProductRep]] = []
        for a_value, prod in union_a.entries:
            res = restrict(node_a.children, prod.factors, a_value)
            if res is not None:
                new_entries.append((a_value, ProductRep(res)))
        if not new_entries:
            return None
        nodes = [n for k, n in enumerate(old_level) if k != i_a]
        outs = [f for k, f in enumerate(factors) if k != i_a]
        nodes.append(merged)
        outs.append(UnionRep(new_entries))
        _, sorted_factors = sort_pairs(nodes, outs)
        return sorted_factors

    new_factors = rewrite_at_level(
        tree.roots, fr.data.factors, next(iter(node_a.label)), rewrite
    )
    if new_factors is None:
        normalised, _ = normalise_tree(structural)
        return ObjectRelation(normalised, None)
    return normalise(
        ObjectRelation(structural, ProductRep(new_factors))
    )


# -- selection with a constant (Section 3.3) -----------------------------------


def select_constant(
    fr: ObjectRelation, cond: ConstantCondition
) -> ObjectRelation:
    """Apply ``sigma_{A theta c}`` to a factorised relation."""
    tree = fr.tree
    node = tree.node_of(cond.attribute)
    if fr.is_empty():
        return ObjectRelation(select_constant_tree(tree, cond), None)

    anchor = cond.attribute

    def filter_forest(
        forest: Sequence[FNode], factors: Sequence[UnionRep]
    ) -> Optional[List[UnionRep]]:
        labels = [n.label for n in forest]
        if node.label in labels:
            idx = labels.index(node.label)
            union = factors[idx]
            kept = [
                (value, child)
                for value, child in union.entries
                if cond.test(value)
            ]
            if not kept:
                return None
            out = list(factors)
            out[idx] = UnionRep(kept)
            return out
        idx = subtree_index(forest, anchor)
        inner_node, union = forest[idx], factors[idx]
        new_entries: List[Tuple[object, ProductRep]] = []
        for value, child in union.entries:
            res = filter_forest(inner_node.children, child.factors)
            if res is not None:
                new_entries.append((value, ProductRep(res)))
        if not new_entries:
            return None
        out = list(factors)
        out[idx] = UnionRep(new_entries)
        return out

    new_factors = filter_forest(tree.roots, fr.data.factors)
    if new_factors is None:
        return ObjectRelation(select_constant_tree(tree, cond), None)
    if cond.op != "=":
        return ObjectRelation(tree, ProductRep(new_factors))

    # Equality: mark constant, drop its attributes from the dependency
    # edges and normalise (the node floats towards the root).
    const_tree = tree
    if not node.constant:
        const_tree = tree.replace_node(node.label, [node.as_constant()])
        const_tree = const_tree.with_edges(
            const_tree.edges.without_attributes(node.label)
        )
    return normalise(
        ObjectRelation(const_tree, ProductRep(new_factors))
    )


# -- projection (Section 3.4) --------------------------------------------------


def _reduce_labels(
    fr: ObjectRelation, keep: AbstractSet[str]
) -> ObjectRelation:
    """Phase 1: shrink partially-kept labels; rewrite edges.

    Shrinking a label changes the node's canonical sort key, so tree
    and data are rebuilt in lockstep, re-sorting siblings (and their
    aligned factors) by the new labels at every level.
    """
    tree = fr.tree
    substitution = {}
    for node in tree.iter_nodes():
        dropped = node.label - keep
        kept = node.label & keep
        if dropped and kept:
            representative = min(kept)
            for attr in dropped:
                substitution[attr] = representative
    if not substitution:
        return fr

    def node_transform(node: FNode) -> FNode:
        kept = node.label & keep
        label = kept if kept else node.label
        return FNode(
            label,
            [node_transform(child) for child in node.children],
            node.constant,
        )

    def data_transform(
        nodes: Sequence[FNode], product: ProductRep
    ) -> List[UnionRep]:
        """Factors aligned with the re-sorted transformed forest."""
        pairs = []
        for node, union in zip(nodes, product.factors):
            new_union = UnionRep(
                (
                    value,
                    ProductRep(
                        data_transform(node.children, child)
                    ),
                )
                for value, child in union.entries
            )
            pairs.append((node_transform(node), new_union))
        pairs.sort(key=lambda pair: tuple(sorted(pair[0].label)))
        return [factor for _, factor in pairs]

    new_edges = tree.edges.__class__(
        frozenset(substitution.get(attr, attr) for attr in edge)
        for edge in tree.edges
    )
    new_tree = FTree(
        [node_transform(root) for root in tree.roots], new_edges
    )
    if fr.is_empty():
        return ObjectRelation(new_tree, None)
    return ObjectRelation(
        new_tree, ProductRep(data_transform(tree.roots, fr.data))
    )


def _drop_leaf(fr: ObjectRelation, node: FNode) -> ObjectRelation:
    """Phase 2b: remove a fully-marked leaf node (tree and data)."""
    tree = fr.tree
    new_edges = tree.edges.merge_edges_touching(node.label)
    new_tree = tree.replace_node(node.label, []).with_edges(new_edges)
    if fr.data is None:
        return ObjectRelation(new_tree, None)

    anchor = next(iter(node.label))

    def drop(
        forest: Sequence[FNode], factors: Sequence[UnionRep]
    ) -> List[UnionRep]:
        labels = [n.label for n in forest]
        if node.label in labels:
            idx = labels.index(node.label)
            return [f for k, f in enumerate(factors) if k != idx]
        idx = subtree_index(forest, anchor)
        inner, union = forest[idx], factors[idx]
        out = list(factors)
        out[idx] = UnionRep(
            (value, ProductRep(drop(inner.children, child.factors)))
            for value, child in union.entries
        )
        return out

    return ObjectRelation(
        new_tree, ProductRep(drop(tree.roots, fr.data.factors))
    )


def project(
    fr: ObjectRelation, attributes: Sequence[str]
) -> ObjectRelation:
    """Project a factorised relation onto ``attributes``."""
    keep = frozenset(attributes)
    unknown = keep - fr.tree.attributes()
    if unknown:
        raise OperatorError(
            f"cannot project onto unknown attributes {sorted(unknown)}"
        )
    current = _reduce_labels(fr, keep)

    # Phase 2: eliminate fully-marked nodes, bottom-most first.
    while True:
        marked = [
            node
            for node in current.tree.iter_nodes()
            if not (node.label & keep)
        ]
        if not marked:
            break
        # Prefer a marked node with no marked node below it whose
        # subtree is smallest -- fewer swaps to reach a leaf.
        candidates = [
            node
            for node in marked
            if not any(
                other.label != node.label
                and other.label <= node.subtree_attributes()
                for other in marked
            )
        ]
        target = min(
            candidates or marked,
            key=lambda n: len(n.subtree_attributes()),
        )
        if target.children:
            # Swap the marked node below its first child (swap
            # handles empty relations itself).
            current = swap(
                current,
                next(iter(target.label)),
                next(iter(target.children[0].label)),
            )
        else:
            current = _drop_leaf(current, target)

    # Phase 3: normalise.
    if current.is_empty():
        tree, _ = normalise_tree(current.tree)
        return ObjectRelation(tree, None)
    return normalise(current)


# -- product (Section 3.2) -----------------------------------------------------


def product(left: ObjectRelation, right: ObjectRelation) -> ObjectRelation:
    """Cartesian product of two factorised relations."""
    tree = product_tree(left.tree, right.tree)
    if left.data is None or right.data is None:
        return ObjectRelation(tree, None)
    nodes = list(left.tree.roots) + list(right.tree.roots)
    factors = list(left.data.factors) + list(right.data.factors)
    _, sorted_factors = sort_pairs(nodes, factors)
    return ObjectRelation(tree, ProductRep(sorted_factors))


# -- union (shard and delta recombination) ------------------------------------


def _union_products(left: ProductRep, right: ProductRep) -> ProductRep:
    """Factor-wise union of two aligned products (see module docs)."""
    if len(left.factors) != len(right.factors):
        raise OperatorError(
            f"cannot union products of arity {len(left.factors)} "
            f"and {len(right.factors)}"
        )
    return ProductRep(
        _union_unions(a, b)
        for a, b in zip(left.factors, right.factors)
    )


def _union_unions(left: UnionRep, right: UnionRep) -> UnionRep:
    """Sorted merge of two unions; common values recurse."""
    out: List[Tuple[Value, ProductRep]] = []
    i = j = 0
    a, b = left.entries, right.entries
    while i < len(a) and j < len(b):
        va, vb = a[i][0], b[j][0]
        if va < vb:
            out.append(a[i])
            i += 1
        elif vb < va:
            out.append(b[j])
            j += 1
        else:
            out.append((va, _union_products(a[i][1], b[j][1])))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return UnionRep(out)


def union(left: ObjectRelation, right: ObjectRelation) -> ObjectRelation:
    """Union two factorised relations over the *same* f-tree.

    Sub-representations appearing on one side only are shared, not
    copied (operators treat representations as immutable).
    """
    _require_same_tree(left, right)
    if left.is_empty():
        return right
    if right.is_empty():
        return left
    return ObjectRelation(
        left.tree, _union_products(left.data, right.data)
    )
