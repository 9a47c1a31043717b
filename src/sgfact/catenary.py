"""Catenary degrees: the direct bottleneck computation and the dynamic one.

The direct route builds the complete distance-labeled graph on a fiber and
runs Kruskal; the bottleneck weight of the resulting spanning tree is the
catenary degree.  The dynamic route builds a minimum-weight spanning tree of
every element from the trees of the elements one atom below it.  Every
nonzero factorization of gamma lies in e_i + Z(gamma - a_i) for some atom i,
and the shift by e_i preserves distances, so the shifted child trees cover
the fiber.  An edge between two factorizations that share atom i lies in the
shifted complete graph of that child, whose tree already joins its ends by a
path no heavier (the cycle property).  So Kruskal needs only two edge sets:
the shifted child trees, and the pairs of factorizations with disjoint
supports.  Each element then costs one small pass over a merge of sorted
edge lists.

Trees are memoized in a plain dict from element to tree, with ``None`` for a
non-member.  The ascending sweep over a numerical semigroup drops each tree
once it lies max(atom) below the sweep, where it can never be needed again.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .core import AffineSemigroup, Vector, as_vector, dist, factorizations, vadd, vsub
from .errors import (
    NotInSemigroupError,
    ResourceLimitError,
    UnsupportedDimensionError,
    _step_limit,
)

Edge = tuple[int, Vector, Vector]  # (weight, smaller endpoint, larger endpoint)


@dataclass(frozen=True)
class WeightedTree:
    """A spanning tree of a fiber, edges sorted ascending by weight."""

    vertices: tuple[Vector, ...]
    edges: tuple[Edge, ...]

    @property
    def bottleneck(self) -> int:
        return self.edges[-1][0] if self.edges else 0


Memo = dict[Vector, WeightedTree | None]  # element -> its tree, None for a non-member


def _edge(z: Vector, w: Vector) -> Edge:
    return (dist(z, w), z, w) if z < w else (dist(z, w), w, z)


def _kruskal(vertices: tuple[Vector, ...], edges: list[Edge]) -> list[Edge]:
    """Spanning-tree edges admitted in the given (already weight-sorted) order."""
    parent: dict[Vector, Vector] = {v: v for v in vertices}
    size: dict[Vector, int] = {v: 1 for v in vertices}

    def find(v: Vector) -> Vector:
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    admitted: list[Edge] = []
    needed = len(vertices) - 1
    for edge in edges:
        ra, rb = find(edge[1]), find(edge[2])
        if ra == rb:
            continue
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        parent[rb] = ra
        size[ra] += size[rb]
        admitted.append(edge)
        if len(admitted) == needed:
            break
    if len(admitted) != needed:
        raise AssertionError("edge sources failed to span the fiber")
    return admitted


def catenary_naive(S: AffineSemigroup, gamma: int | Vector) -> int:
    """Catenary degree from the complete fiber graph; the reference method."""
    fiber = factorizations(S, gamma)
    if not fiber:
        raise NotInSemigroupError(f"{gamma} has no factorization")
    if len(fiber) == 1:
        return 0
    edges = sorted(
        _edge(fiber[i], fiber[j])
        for i in range(len(fiber))
        for j in range(i + 1, len(fiber))
    )
    admitted = _kruskal(fiber, edges)
    return admitted[-1][0]


def _merge_edges(lists: list[tuple[Edge, ...] | list[Edge]]) -> list[Edge]:
    """Merge weight-sorted edge lists, dropping duplicates, in linear time."""
    merged: list[Edge] = []
    for edge in heapq.merge(*lists):
        if not merged or merged[-1] != edge:
            merged.append(edge)
    return merged


def _translate(tree: WeightedTree, atom_index: int, k: int) -> tuple[list[Vector], list[Edge]]:
    """Image of a memoized tree under the shift adding one copy of atom i.

    The shift translates both endpoints of every edge by the same unit vector,
    so weights (and the sort order of the edge list) are preserved.
    """
    unit = tuple(1 if j == atom_index else 0 for j in range(k))
    vertices = [vadd(v, unit) for v in tree.vertices]
    edges = [(w, vadd(a, unit), vadd(b, unit)) for (w, a, b) in tree.edges]
    return vertices, edges


def _disjoint_pairs(vertices: tuple[Vector, ...]) -> list[Edge]:
    """Edges between the factorizations with disjoint supports, sorted by weight."""
    by_support: dict[int, list[Vector]] = {}
    for v in vertices:
        if 0 in v:  # a factorization that uses every atom has no partner
            mask = sum(1 << i for i, c in enumerate(v) if c)
            by_support.setdefault(mask, []).append(v)
    masks = list(by_support)
    edges = [
        _edge(z, w)
        for i, m in enumerate(masks)
        for n in masks[i + 1 :]
        if not m & n
        for z in by_support[m]
        for w in by_support[n]
    ]
    edges.sort()
    return edges


def _build_tree(k: int, children: list[tuple[int, WeightedTree]]) -> WeightedTree:
    """Kruskal over the shifted child trees and the disjoint-support pairs.

    ``children`` holds (atom index, tree of the element minus that atom) for
    every member one atom below; with none, the element is zero and its fiber
    is the zero vector of length ``k``.
    """
    if not children:
        return WeightedTree(((0,) * k,), ())
    vertex_set: set[Vector] = set()
    edge_lists: list[list[Edge]] = []
    for atom_index, tree in children:
        vertices, edges = _translate(tree, atom_index, k)
        vertex_set.update(vertices)
        edge_lists.append(edges)
    vertices = tuple(sorted(vertex_set))
    if len(vertices) == 1:
        return WeightedTree(vertices, ())
    edge_lists.append(_disjoint_pairs(vertices))
    admitted = _kruskal(vertices, _merge_edges(edge_lists))
    return WeightedTree(vertices, tuple(admitted))


def _settle(S: AffineSemigroup, memo: Memo, element: Vector) -> WeightedTree | None:
    """Record the tree of one element, or None for a non-member, in the memo.

    Every nonnegative element - atom must be settled already.
    """
    children = []
    for atom_index, atom in enumerate(S.generators):
        child = vsub(element, atom)
        if min(child) >= 0 and (tree := memo[child]) is not None:
            children.append((atom_index, tree))
    tree = _build_tree(len(S.generators), children) if children or not any(element) else None
    memo[element] = tree
    return tree


def _descent_set(S: AffineSemigroup, gamma: Vector, memo: Memo) -> list[Vector]:
    """gamma and every nonnegative gamma - (sum of atoms) not yet in the memo.

    Ordered by ascending coordinate sum, so each comes after all elements one
    atom below it.  A settled element is not descended into: everything below
    it was settled first.  Under :func:`~sgfact.errors.step_limit` every
    element found is one step, since each is settled next.
    """
    limit = _step_limit.get()
    seen = {gamma}
    queue = [gamma]
    while queue:
        current = queue.pop()
        for atom in S.generators:
            child = vsub(current, atom)
            if min(child) >= 0 and child not in seen and child not in memo:
                seen.add(child)
                queue.append(child)
        if limit is not None and len(seen) > limit:
            raise ResourceLimitError(limit)
    return sorted(seen, key=lambda v: (sum(v), v))


def mwst(S: AffineSemigroup, gamma: int | Vector, memo: Memo | None = None) -> WeightedTree:
    """A minimum-weight spanning tree of the fiber graph of gamma.

    Trees for everything below gamma are built bottom-up (an explicit
    worklist ordered by coordinate sum, so recursion depth is never an
    issue); membership falls out of the same pass.  ``memo`` maps each
    settled element to its tree, or to None for a non-member; pass one dict
    to share the work across calls.  Under :func:`~sgfact.errors.step_limit`
    every element settled is one step.
    """
    g = as_vector(gamma, S.dim)
    if memo is None:
        memo = {}
    if g not in memo:
        if any(c < 0 for c in g):
            raise NotInSemigroupError(f"{gamma} has negative coordinates")
        for element in _descent_set(S, g, memo):
            _settle(S, memo, element)
    tree = memo[g]
    if tree is None:
        raise NotInSemigroupError(f"{gamma} is not in the semigroup")
    return tree


def catenary_dynamic(S: AffineSemigroup, gamma: int | Vector, memo: Memo | None = None) -> int:
    """Catenary degree via the memoized spanning-tree route; agrees with catenary_naive."""
    return mwst(S, gamma, memo).bottleneck


def catenary_range(S: AffineSemigroup, bound: int) -> list[tuple[int, int]]:
    """(element, catenary degree) for every semigroup element up to the bound.

    Numerical semigroups only.  The sweep settles gamma = 0..bound in order,
    then drops the tree of gamma - max(atom), the oldest one any later
    element recalls, so at most max(atom) trees are held.  Under
    :func:`~sgfact.errors.step_limit` every element settled, member or not,
    is one step.
    """
    if S.dim != 1:
        raise UnsupportedDimensionError("ascending sweep requires a numerical semigroup")
    limit = _step_limit.get()
    top = max(a[0] for a in S.generators)
    memo: Memo = {}
    results: list[tuple[int, int]] = []
    steps = 0
    for gamma in range(bound + 1):
        steps += 1
        if limit is not None and steps > limit:
            raise ResourceLimitError(limit)
        tree = _settle(S, memo, (gamma,))
        memo.pop((gamma - top,), None)
        if tree is not None:
            results.append((gamma, tree.bottleneck))
    return results
