"""Catenary degrees: the direct bottleneck computation and the dynamic one.

The direct route builds the complete distance-labeled graph on a fiber and
runs Kruskal; the bottleneck weight of the resulting spanning tree is the
catenary degree.  The dynamic route builds a minimum-weight spanning tree of
every element from the trees of the elements one atom below it.  Every
nonzero factorization of gamma lies in e_i + Z(gamma - a_i) for some atom i,
and the shift by e_i preserves distances, so the shifted child trees cover
the fiber.  Each tree is the unique minimum spanning tree under the strict
(weight, lower, upper) order.  An edge between factorizations that share atom
i lies in the shifted complete graph of child i, whose tree holds it or joins
its ends by a path of strictly earlier edges (the cycle property).  So Kruskal
needs only the shifted child trees and the pairs with disjoint supports.  A
vertex of child i that uses an atom j < i, and a tree edge whose ends share
j, are covered by child j (gamma - a_j is a member): child i keeps neither.
Each element then costs one Kruskal pass over one sort of the edge lists, in
which Timsort merges the presorted runs.

On this route a factorization z of k atoms is the int sum(z_i << W*(k-1-i)),
W the bit length of ``core._INT_LIMIT``: the shift by e_i is one add, and
int order is the lexicographic order of the tuples, so trees and tie-breaks
are the same.  Atoms are nonzero vectors in N^d, so no z_i exceeds max(g),
which is below ``_INT_LIMIT`` for every element g that ``as_vector`` accepts
or :func:`catenary_range` admits: no field carries into the next.  A packed
tree is four lists: the sorted vertex codes, each vertex's length, each
vertex's support bitmask, and the tree edges as (weight, i, j), i < j
indices into the vertex list.  Index order is code order, so sorting index
edges sorts them as the tuple edges would sort.  Child i keeps its codes
below 1 << W*(k-i), a prefix, which shifted lie below those of every child of
a smaller atom index.  The lowest child, l (most often 0), has none below
it, so no vertex uses an atom below l: child l keeps its whole tree and comes
last, and its index edges move by one offset.  A child i > l keeps no edge
whose ends both use atom l, so it reads only the edges whose lower end is a
code below 1 << W*(k-1-l), a prefix.  A shift by e_i adds one to each length
and sets bit i of each mask, so :func:`_disjoint_pairs` decodes nothing, and
Kruskal's union-find is a plain list over the indices.
Elements settle bottom-up through ``core._settle``, with :func:`_build_tree`
as the rule.  The memo, a plain dict, maps an element to its packed tree, or
to ``None`` for a non-member, a nonzero element with no member one atom
below.  :func:`mwst` decodes only the tree it returns, each vertex once.  The
ascending sweep over a numerical semigroup settles each element on one
budget for the whole sweep, and drops each tree once it lies max(atom) below
the sweep, where it can never be needed again.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial

from .core import _INT_LIMIT, AffineSemigroup, Vector, _settle, as_vector, dist, factorizations
from .errors import ConstructionError, NotInSemigroupError, UnsupportedDimensionError, _Budget

Edge = tuple[int, Vector, Vector]  # (weight, smaller endpoint, larger endpoint)
# sorted vertex codes, their lengths, their support bitmasks, sorted (weight, i, j) index edges
Packed = tuple[list[int], list[int], list[int], list[tuple[int, int, int]]]

_W = _INT_LIMIT.bit_length()  # field width of one coordinate in a vertex code
_MASK = (1 << _W) - 1


@dataclass(frozen=True)
class WeightedTree:
    """A spanning tree of a fiber, edges sorted ascending by weight."""

    vertices: tuple[Vector, ...]
    edges: tuple[Edge, ...]

    @property
    def bottleneck(self) -> int:
        return _bottleneck(self.edges)


Memo = dict[Vector, Packed | None]  # element -> its packed tree, None for a non-member


def _bottleneck(edges) -> int:
    return edges[-1][0] if edges else 0


def _unpack(code: int, k: int) -> Vector:
    """The factorization of k atoms that a vertex code stands for."""
    return tuple([(code >> s) & _MASK for s in range(_W * (k - 1), -1, -_W)])


def _kruskal(n: int, edges: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """Spanning-tree edges over vertices 0..n-1, admitted in the given (already sorted) order.
    Admission never depends on which root becomes the parent, and path halving alone keeps
    the finds short, so the union keeps no sizes."""
    parent = list(range(n))
    admitted: list[tuple[int, int, int]] = []
    needed = n - 1
    for edge in edges:
        _, a, b = edge
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]  # path halving
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            continue
        parent[b] = a
        admitted.append(edge)
        if len(admitted) == needed:
            break
    if len(admitted) != needed:
        raise AssertionError("edge sources failed to span the fiber")
    return admitted


def catenary_naive(S: AffineSemigroup, gamma: int | Vector) -> int:
    """Catenary degree from the complete fiber graph; the reference method.  Under
    ``step_limit`` every pair of factorizations is one step, counted before any edge."""
    fiber = factorizations(S, gamma)
    if not fiber:
        raise NotInSemigroupError(f"{gamma} has no factorization")
    _Budget().spend(len(fiber) * (len(fiber) - 1) // 2)
    edges = sorted(
        (dist(fiber[i], fiber[j]), i, j)
        for i in range(len(fiber))
        for j in range(i + 1, len(fiber))
    )
    return _bottleneck(_kruskal(len(fiber), edges))


def _disjoint_pairs(lengths: list[int], masks: list[int], k: int) -> list[tuple[int, int, int]]:
    """Index edges between the factorizations with disjoint supports, weighted max(|z|, |w|)."""
    full = (1 << k) - 1  # a factorization that uses every atom has no partner
    by_support: dict[int, list[tuple[int, int]]] = {}
    for i, mask in enumerate(masks):
        if mask != full:
            by_support.setdefault(mask, []).append((i, lengths[i]))
    supports = list(by_support)
    return [
        (max(la, lb), a, b) if a < b else (max(la, lb), b, a)
        for s, m in enumerate(supports)
        for n in supports[s + 1 :]
        if not m & n
        for a, la in by_support[m]
        for b, lb in by_support[n]
    ]


def _build_tree(k: int, element: Vector, children: list[tuple[int, Packed]]) -> Packed | None:
    """Kruskal over the shifted child trees and the disjoint-support pairs.

    ``children`` holds (atom index, packed tree of the element minus that
    atom) for every member one atom below, in ascending atom order; walked
    downward, each child appends a prefix of its vertices in code order.  The
    lowest child keeps all, its edges moved by one offset; a child above reads
    only the edges whose lower end avoids the lowest child's atom, as each it
    keeps must.  No children: a non-member (None), unless the element is zero.
    """
    if not children:
        return None if any(element) else ([0], [0], [0], [])
    vertices: list[int] = []
    lengths: list[int] = []
    masks: list[int] = []
    coded: list[tuple[int, int, int]] = []  # kept edges above child low as (weight, code, code)
    low, (low_codes, _, _, low_edges) = children[0]  # no vertex uses an atom below low
    for atom_index, (codes, child_lengths, child_masks, child_edges) in reversed(children):
        shift, bit = 1 << (_W * (k - 1 - atom_index)), 1 << atom_index
        fresh = bisect_left(codes, shift << _W)  # the codes that use no atom below atom_index
        vertices += [v + shift for v in codes[:fresh]]
        lengths += [n + 1 for n in child_lengths[:fresh]]
        masks += [m | bit for m in child_masks[:fresh]]
        if atom_index > low:  # a kept edge has an end free of atom low, so its lower end a is one
            free = bisect_left(codes, 1 << (_W * (k - 1 - low)))  # the codes that use no atom low
            coded += [
                (w, codes[a] + shift, codes[b] + shift)
                for w, a, b in child_edges
                if a < free and not child_masks[a] & child_masks[b] & (bit - 1)
            ]
    ids = list(range(len(vertices)))  # shared index ints: the memo holds no copy per edge end
    # a shift keeps code order, so each child's run of index edges stays sorted
    edges = [(w, ids[bisect_left(vertices, a)], ids[bisect_left(vertices, b)]) for w, a, b in coded]
    off = len(vertices) - len(low_codes)  # the lowest child keeps all and comes last
    edges += [(w, ids[a + off], ids[b + off]) for w, a, b in low_edges]
    edges += _disjoint_pairs(lengths, masks, k)
    edges.sort()  # Timsort merges the presorted runs
    return vertices, lengths, masks, _kruskal(len(vertices), edges)


def _packed_tree(S: AffineSemigroup, gamma: int | Vector, memo: Memo | None) -> Packed:
    """The packed tree of gamma, settling first every element below it not in the memo."""
    g = as_vector(gamma, S.dim)
    if any(c < 0 for c in g):
        raise NotInSemigroupError(f"{gamma} has negative coordinates")
    rule = partial(_build_tree, len(S.generators))
    tree = _settle(S, g, {} if memo is None else memo, rule, _Budget().spend)
    if tree is None:
        raise NotInSemigroupError(f"{gamma} is not in the semigroup")
    return tree


def mwst(S: AffineSemigroup, gamma: int | Vector, memo: Memo | None = None) -> WeightedTree:
    """A minimum-weight spanning tree of the fiber graph of gamma.

    Trees for everything below gamma are built bottom-up by ``core._settle``
    (an explicit worklist ordered by coordinate sum, so recursion depth is
    never an issue); membership falls out of the same pass.  ``memo`` maps each
    settled element to its internal packed tree, or to None for a non-member;
    pass one dict to share the work across calls.  Only the returned tree is
    decoded, into tuple vertices and (weight, a, b) edges.  Under
    :func:`~sgfact.errors.step_limit` every element settled is one step.
    """
    k = len(S.generators)
    codes, _, _, edges = _packed_tree(S, gamma, memo)
    vertices = tuple(_unpack(v, k) for v in codes)
    return WeightedTree(vertices, tuple((w, vertices[a], vertices[b]) for w, a, b in edges))


def catenary_dynamic(S: AffineSemigroup, gamma: int | Vector, memo: Memo | None = None) -> int:
    """Catenary degree via the memoized spanning-tree route; agrees with catenary_naive."""
    return _bottleneck(_packed_tree(S, gamma, memo)[3])


def catenary_range(S: AffineSemigroup, bound: int) -> list[tuple[int, int]]:
    """(element, catenary degree) for every semigroup element up to the bound.

    Numerical semigroups only.  The sweep settles gamma = 0..bound in order,
    then drops the tree of gamma - max(atom), the oldest one any later
    element recalls, so at most max(atom) trees are held.  Under
    :func:`~sgfact.errors.step_limit` every element settled, member or not,
    is one step.  An element of 2**62 or more, beyond the field width of the
    vertex codes, raises :class:`ConstructionError`.
    """
    if S.dim != 1:
        raise UnsupportedDimensionError("ascending sweep requires a numerical semigroup")
    spend = _Budget().spend
    rule = partial(_build_tree, len(S.generators))
    top = max(a[0] for a in S.generators)
    memo: Memo = {}
    results: list[tuple[int, int]] = []
    for gamma in range(bound + 1):
        if gamma >= _INT_LIMIT:
            raise ConstructionError(f"element {gamma} exceeds the supported integer range")
        tree = _settle(S, (gamma,), memo, rule, spend)
        memo.pop((gamma - top,), None)
        if tree is not None:
            results.append((gamma, _bottleneck(tree[3])))
    return results
