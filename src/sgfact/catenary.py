"""Catenary degrees: the direct bottleneck computation and the dynamic one.

The direct route builds the complete distance-labeled graph on a fiber and
runs Kruskal; the bottleneck weight of the resulting spanning tree is the
catenary degree.  The dynamic route reuses minimum-weight spanning trees of
smaller elements: shifting every factorization of gamma - atom_i up by one
copy of atom i embeds that tree isometrically, and together with the kernel
pairs landing exactly on gamma these edges are guaranteed to span the fiber
with correct bottlenecks, so each element costs one small Kruskal pass over
a merge of already-sorted edge lists.

Trees are memoized: in a plain map keyed by element for arbitrary dimension,
and in a ring buffer of capacity max(atom) for the ascending sweep over a
numerical semigroup, where older trees can never be needed again.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .core import (
    AffineSemigroup,
    Vector,
    as_vector,
    dist,
    factorizations,
    vadd,
    value_of,
    vsub,
)
from .errors import NotInSemigroupError, UnsupportedDimensionError
from .hilbert import graver_basis

Edge = tuple[int, Vector, Vector]  # (weight, smaller endpoint, larger endpoint)


@dataclass(frozen=True)
class WeightedTree:
    """A spanning tree of a fiber, edges sorted ascending by weight."""

    vertices: tuple[Vector, ...]
    edges: tuple[Edge, ...]

    @property
    def bottleneck(self) -> int:
        return self.edges[-1][0] if self.edges else 0


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


class TreeMemo:
    """Per-semigroup cache of minimum-weight spanning trees.

    Holds the kernel-pair edge index (computed once per semigroup) and a map
    from element to tree.  A memo instance is not thread-safe; confine it to
    one thread or use separate instances.
    """

    def __init__(self, S: AffineSemigroup):
        self.semigroup = S
        self.trees: dict[Vector, WeightedTree] = {}
        self.member: dict[Vector, bool] = {}
        self._edge_index: dict[Vector, list[Edge]] | None = None

    def kernel_edges(self, value: Vector) -> list[Edge]:
        if self._edge_index is None:
            index: dict[Vector, list[Edge]] = {}
            for z, w in graver_basis(self.semigroup):
                value_z = value_of(self.semigroup, z)
                index.setdefault(value_z, []).append(_edge(z, w))
            for edges in index.values():
                edges.sort()
            self._edge_index = index
        return self._edge_index.get(value, [])


def _descent_set(S: AffineSemigroup, gamma: Vector) -> list[Vector]:
    """All nonnegative gamma - (sum of atoms), ordered by ascending coordinate sum."""
    seen = {gamma}
    queue = [gamma]
    while queue:
        current = queue.pop()
        for atom in S.generators:
            child = vsub(current, atom)
            if all(c >= 0 for c in child) and child not in seen:
                seen.add(child)
                queue.append(child)
    return sorted(seen, key=lambda v: (sum(v), v))


def _build_tree(
    S: AffineSemigroup,
    element: Vector,
    children: list[tuple[int, WeightedTree]],
    kernel_edges: list[Edge],
) -> WeightedTree:
    """Kruskal over the shifted child trees and the kernel pairs at this element."""
    k = len(S.generators)
    vertex_set: set[Vector] = set()
    edge_lists: list[list[Edge]] = []
    for atom_index, tree in children:
        vertices, edges = _translate(tree, atom_index, k)
        vertex_set.update(vertices)
        edge_lists.append(edges)
    for _, a, b in kernel_edges:
        vertex_set.add(a)
        vertex_set.add(b)
    if kernel_edges:
        edge_lists.append(kernel_edges)
    if not vertex_set:
        # only the zero element has no member children and no kernel pairs
        return WeightedTree(((0,) * k,), ())
    vertices = tuple(sorted(vertex_set))
    if len(vertices) == 1:
        return WeightedTree(vertices, ())
    admitted = _kruskal(vertices, _merge_edges(edge_lists))
    return WeightedTree(vertices, tuple(admitted))


def mwst(S: AffineSemigroup, gamma: int | Vector, memo: TreeMemo | None = None) -> WeightedTree:
    """A minimum-weight spanning tree of the fiber graph of gamma.

    Trees for everything below gamma are built bottom-up (an explicit
    worklist ordered by coordinate sum, so recursion depth is never an
    issue); membership falls out of the same pass.
    """
    g = as_vector(gamma, S.dim)
    if memo is None:
        memo = TreeMemo(S)
    if g in memo.trees:
        return memo.trees[g]
    if any(c < 0 for c in g):
        raise NotInSemigroupError(f"{gamma} has negative coordinates")
    for element in _descent_set(S, g):
        if element in memo.trees or memo.member.get(element) is False:
            continue
        children = []
        is_member = not any(element)
        for atom_index, atom in enumerate(S.generators):
            child = vsub(element, atom)
            if any(c < 0 for c in child):
                continue
            if memo.member.get(child):
                is_member = True
                children.append((atom_index, memo.trees[child]))
        memo.member[element] = is_member
        if is_member:
            memo.trees[element] = _build_tree(
                S, element, children, memo.kernel_edges(element)
            )
    if not memo.member.get(g):
        raise NotInSemigroupError(f"{gamma} is not in the semigroup")
    return memo.trees[g]


def catenary_dynamic(
    S: AffineSemigroup, gamma: int | Vector, memo: TreeMemo | None = None
) -> int:
    """Catenary degree via the memoized spanning-tree route; agrees with catenary_naive."""
    return mwst(S, gamma, memo).bottleneck


def catenary_range(S: AffineSemigroup, bound: int) -> list[tuple[int, int]]:
    """(element, catenary degree) for every semigroup element up to the bound.

    Numerical semigroups only.  The sweep walks gamma = 0..bound; the tree of
    gamma - max(atom) is the oldest one ever recalled, so trees live in a
    ring buffer of that capacity, indexed by gamma modulo the capacity.
    """
    if S.dim != 1:
        raise UnsupportedDimensionError("ascending sweep requires a numerical semigroup")
    atoms = [a[0] for a in S.generators]
    capacity = max(atoms)
    memo = TreeMemo(S)
    ring: list[tuple[int, WeightedTree | None]] = [(-1, None)] * capacity
    member = [False] * (bound + 1)
    results: list[tuple[int, int]] = []
    for gamma in range(bound + 1):
        children: list[tuple[int, WeightedTree]] = []
        is_member = gamma == 0
        for atom_index, atom in enumerate(atoms):
            past = gamma - atom
            if past < 0 or not member[past]:
                continue
            stamp, tree = ring[past % capacity]
            if stamp != past or tree is None:
                raise AssertionError(f"ring buffer lost the tree of {past}")
            is_member = True
            children.append((atom_index, tree))
        member[gamma] = is_member
        if not is_member:
            ring[gamma % capacity] = (gamma, None)
            continue
        tree = _build_tree(S, (gamma,), children, memo.kernel_edges((gamma,)))
        ring[gamma % capacity] = (gamma, tree)
        results.append((gamma, tree.bottleneck))
    return results
