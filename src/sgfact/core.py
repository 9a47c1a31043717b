"""Affine semigroups and element-level factorization machinery.

Vectors are plain tuples of Python ints, so every computation is exact.  A
semigroup is immutable once built and all operations are pure functions, safe
to call concurrently on shared objects.

One depth-first search over the atoms answers every element query in any
dimension (see :func:`_dfs_plan`): it enumerates the factorizations for
:func:`factorizations` and stops at the first for :func:`contains` and for the
atom minimalization of :func:`affine_semigroup`.  It keeps its own stack of
open positions, so its depth is not limited by the recursion limit.  Both modes
skip the lines of residues already known to leave nothing, from one memo per
search.  The last two atoms are not searched but solved in closed form, so a
two-atom fiber costs one node however large its element.  Under
:func:`~sgfact.errors.step_limit` the search counts one step per node and one
per factorization that closed form emits.  The catenary trees and the tame
degree's shortest lengths take the bottom-up route of :func:`_settle` instead.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .errors import ConstructionError, DimensionMismatchError, _Budget

if TYPE_CHECKING:
    from .hilbert import DiophantineSystem

Vector = tuple[int, ...]

_INT_LIMIT = 1 << 62


def as_vector(value: int | Sequence[int], dim: int | None = None) -> Vector:
    """Normalize an int or sequence into a coordinate tuple of the given dimension.

    A coordinate that is not an integer (a float or a string, say), or whose
    magnitude is 2**62 or more, raises :class:`ConstructionError`.
    """
    try:
        try:
            vec: Vector = (operator.index(value),)
        except TypeError:
            vec = tuple(map(operator.index, value))
    except TypeError:
        raise ConstructionError(f"expected integer coordinates, got {value!r}") from None
    if dim is not None and len(vec) != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {len(vec)}")
    for c in vec:
        if abs(c) >= _INT_LIMIT:
            raise ConstructionError(f"coordinate {c} exceeds the supported integer range")
    return vec


def as_matrix(matrix: Iterable[Sequence[int]]) -> tuple[Vector, ...]:
    """Normalize each row with :func:`as_vector`.

    Input that is not an iterable of rows (an int or None, say) raises
    :class:`ConstructionError`.
    """
    try:
        rows = iter(matrix)
    except TypeError:
        raise ConstructionError(f"expected a list of rows, got {matrix!r}") from None
    return tuple(as_vector(r) for r in rows)


def vadd(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def vmin(a: Vector, b: Vector) -> Vector:
    return tuple(x if x < y else y for x, y in zip(a, b))


def value_of(S: AffineSemigroup, z: Vector) -> Vector:
    """The element a factorization vector represents: sum(z_i * atom_i)."""
    out = [0] * S.dim
    for count, atom in zip(z, S.generators):
        if count:
            for i, c in enumerate(atom):
                out[i] += count * c
    return tuple(out)


@dataclass(frozen=True)
class AffineSemigroup:
    """A finitely generated subsemigroup of N^dim.

    ``generators`` is always the unique minimal generating set (the atoms),
    sorted lexicographically.  Build instances through
    :func:`affine_semigroup`; the raw constructor performs no validation.
    ``equations`` is present exactly when the semigroup is known to be full,
    i.e. cut out of N^dim by a congruence system whose Hilbert basis is the
    generator list; only :func:`~sgfact.tame.full_semigroup` sets it.
    """

    dim: int
    generators: tuple[Vector, ...]
    equations: DiophantineSystem | None = None

    @property
    def matrix(self) -> tuple[Vector, ...]:
        """Generators as matrix columns: row i lists coordinate i of every atom."""
        return tuple(zip(*self.generators))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.dim == 1:
            gens = ", ".join(str(g[0]) for g in self.generators)
        else:
            gens = "; ".join(str(g) for g in self.generators)
        return f"AffineSemigroup<{gens}>"


def affine_semigroup(generators: Iterable[int | Sequence[int]]) -> AffineSemigroup:
    """Build a semigroup, reducing the input to its minimal generating set.

    Each distinct generator v, in lexicographic order, is kept unless the
    atoms kept before it generate it: if v = u + w with w nonzero, u lies
    componentwise below v and so comes first.  Under :func:`~sgfact.errors.step_limit`
    each generator after the first is one counting loop, the search for v.
    Raises :class:`ConstructionError` for empty input, mixed dimensions,
    negative or out-of-range coordinates, or a zero vector.
    """
    vecs = [as_vector(g) for g in generators]
    if not vecs:
        raise ConstructionError("a semigroup needs at least one generator")
    dim = len(vecs[0])
    for v in vecs:
        if len(v) != dim:
            raise ConstructionError("generators of mixed dimensions")
        if any(c < 0 for c in v):
            raise ConstructionError(f"negative coordinate in generator {v}")
        if not any(v):
            raise ConstructionError("the zero vector cannot be a generator")
    atoms: list[Vector] = []
    for v in sorted(set(vecs)):
        if not (atoms and _search(_dfs_plan(atoms), v, first=True)):
            atoms.append(v)
    return AffineSemigroup(dim, tuple(atoms))


def homogenize(S: AffineSemigroup) -> AffineSemigroup:
    """The semigroup generated by (1,0) and (1, atom) for every atom, one dimension up.

    All generators share first coordinate 1, so they are the minimal generating
    set, already sorted: the extra generator (1, 0...) comes first, and the
    atoms of S keep their sorted order after it.  No search is needed.
    """
    gens = [(1,) + (0,) * S.dim] + [(1,) + atom for atom in S.generators]
    return AffineSemigroup(S.dim + 1, tuple(gens))


def _settle(S: AffineSemigroup, gamma: Vector, memo: dict, rule: Callable, spend: Callable[[], None]):
    """memo[gamma], after settling gamma and each nonnegative gamma - (sum of atoms) not in the memo.

    The descent finds them, one ``spend()`` each, computes each u - a_i once,
    and stops at settled elements, everything below those being settled.  They
    settle by ascending coordinate sum, after all elements one atom below, as
    ``memo[u] = rule(u, children)``: the pairs (i, memo[u - a_i]) over the
    members u - a_i, nonnegative with a memo value other than None.  This is
    the dynamic scheme of Barron, O'Neill and Pelayo (Math. Comp. 2017).
    """
    if gamma in memo:
        return memo[gamma]
    spend()
    below = {gamma: []}
    queue = [gamma]
    while queue:
        current = queue.pop()
        children = below[current]
        for i, atom in enumerate(S.generators):
            child = vsub(current, atom)
            if min(child) >= 0:
                children.append((i, child))
                if child not in below and child not in memo:
                    spend()
                    below[child] = []
                    queue.append(child)
    for u in sorted(below, key=sum):
        memo[u] = rule(u, [(i, value) for i, c in below[u] if (value := memo[c]) is not None])
    return memo[gamma]


def _dfs_plan(
    atoms: Sequence[Vector],
) -> tuple[tuple[int, ...], tuple[Vector, ...], tuple[int, ...], tuple[Vector, ...], tuple[int, int, int] | None]:
    """For each search position its atom's slot (``order``), atom, weight and suffix gcds; a minor.

    Heavy atoms (by coordinate sum, the weight) first: an atom with small
    support explored early has a huge branching factor; explored last, its
    multiplicity is forced.  A residue skips the atoms heavier than itself,
    and its branch ends unless some length L has L * lightest <= weight <=
    L * heaviest left and the suffix row gcds divide it.  Every search,
    enumerating or stopping at the first factorization, records in its own
    memo, per position j and line ``low + t*atom_j`` (``low`` lowest in
    N^dim), the largest t up to which every t leaves nothing, and starts past
    it next time.  So a stop-at-first search walks each line once per search,
    as a sieve walks each value once in dimension one.

    The last two planned atoms a and b are solved, not searched.  The minor
    ``(p, q, a_p*b_q - a_q*b_p)``, with p the first row where a is nonzero,
    is a nonzero 2x2 minor of (a, b) for Cramer's rule.  It is None when a
    and b are parallel (always in dimension one), as every minor on row p
    then vanishes; c*a + d*b == rem is then solved on the weights by the
    extended gcd.
    """
    order = tuple(sorted(range(len(atoms)), key=lambda j: (-sum(atoms[j]), atoms[j])))
    arranged = tuple(atoms[j] for j in order)
    suffix: list[Vector] = [(0,) * len(atoms[0])]
    for atom in reversed(arranged):
        suffix.append(tuple(map(gcd, atom, suffix[-1])))
    suffix.reverse()
    minor = None
    if len(arranged) >= 2:
        a, b = arranged[-2:]
        p = next(i for i, x in enumerate(a) if x)
        dets = ((q, a[p] * b[q] - a[q] * b[p]) for q in range(len(a)))
        minor = next(((p, q, det) for q, det in dets if det), None)
    return order, arranged, tuple(sum(atom) for atom in arranged), tuple(suffix), minor


def _suffix_feasible(rem: Vector, suffix_gcd: Vector) -> bool:
    for r, g in zip(rem, suffix_gcd):
        if g == 0:
            if r != 0:
                return False
        elif r % g:
            return False
    return True


def _search(plan: tuple, gamma: Vector, *, first: bool = False) -> list[Vector]:
    """The factorizations of gamma over the planned atoms, unsorted; only one with ``first``.

    The search keeps its own stack of open positions, so its depth is not
    limited by the recursion limit.  Under :func:`~sgfact.errors.step_limit`
    it counts one step per node and one per factorization the tail emits.
    """
    if any(c < 0 for c in gamma):
        return []
    spend = _Budget().spend
    order, arranged, weights, suffix, minor = plan
    k = len(arranged)
    dead: list[dict] = [{} for _ in arranged]
    lightest = weights[-1]
    out: list[Vector] = []
    coeffs = [0] * k
    if k >= 2:
        a, b = arranged[-2:]
        slot_a, slot_b = order[-2:]
        wa, wb = weights[-2:]
        g = gcd(wa, wb)
        stride = wb // g
        inverse = pow(wa // g, -1, stride)

    def tail(rem: Vector, weight: int) -> None:
        # the c with c * a + d * b == rem, d >= 0, form one progression
        top = weight // wa
        if minor is None:  # a, b parallel: solve c * wa + d * wb == weight
            if weight % g:
                return
            c = weight // g * inverse % stride
        else:  # Cramer's rule on rows p and q gives the only candidate
            p, q, det = minor
            c, rest = divmod(rem[p] * b[q] - rem[q] * b[p], det)
            if rest or c < 0:
                return
            top = min(top, c)
        # the first candidate checked in full vouches for the progression
        d = (weight - c * wa) // wb
        if c > top or rem != tuple([c * x + d * y for x, y in zip(a, b)]):
            return
        for c in range(c, top + 1, stride):
            spend()
            coeffs[slot_a] = c
            coeffs[slot_b] = (weight - c * wa) // wb
            out.append(tuple(coeffs))
            if first:
                break
        coeffs[slot_a] = coeffs[slot_b] = 0

    # one frame per open position: [j, rem, atom, slot, top, low, lines, c, len(out) on entry]
    stack: list[list] = []
    j, rem = 0, gamma
    while True:
        spend()
        frame = None
        weight = sum(rem)
        if not weight:
            out.append(tuple(coeffs))  # rem is zero: the remaining multiplicities are all zero
        # the multiplicities left add up to L with L * lightest <= weight <= L * weights[j]
        elif -(-weight // weights[j]) <= weight // lightest:
            while weights[j] > weight:  # atoms heavier than rem have multiplicity zero
                j += 1
            atom, slot = arranged[j], order[j]
            if j == k - 1:  # rem == c * atom forces c = weight // lightest
                c = weight // lightest
                if rem == tuple([c * a for a in atom]):
                    coeffs[slot] = c
                    out.append(tuple(coeffs))
                    coeffs[slot] = 0
            elif j == k - 2:
                tail(rem, weight)
            elif _suffix_feasible(rem, suffix[j]):
                top = min([r // a for r, a in zip(rem, atom) if a])  # atoms are nonzero
                low = tuple([r - top * a for r, a in zip(rem, atom)]) if top else rem
                lines = dead[j]
                # rem - c * atom == low + (top - c) * atom: skip the dead start of the line
                # (c == 0 leaves rem itself, top == 0 makes rem the lowest point)
                c = top - lines.get(low, -1) - 1
                if c >= 0:
                    frame = [j, rem, atom, slot, top, low, lines, c, len(out)]
                    stack.append(frame)
        if first and out:
            return out
        while frame is None:  # back up to the innermost open position with a smaller c left
            if not stack:
                return out
            j, rem, atom, slot, top, low, lines, c, found = stack[-1]
            if len(out) == found:
                lines[low] = top - c
            if c:
                frame = stack[-1]
                frame[7] = c = c - 1
            else:
                stack.pop()
                coeffs[slot] = 0
        coeffs[slot] = c
        j, rem = j + 1, tuple([r - c * a for r, a in zip(rem, atom)]) if c else rem


def contains(S: AffineSemigroup, gamma: int | Sequence[int]) -> bool:
    """Membership test: does gamma admit at least one factorization over the atoms?"""
    g = as_vector(gamma, S.dim)
    return bool(_search(_dfs_plan(S.generators), g, first=True))


def factorizations(S: AffineSemigroup, gamma: int | Sequence[int]) -> tuple[Vector, ...]:
    """All z in N^k with sum(z_i * atom_i) == gamma, sorted; empty iff gamma is not a member."""
    g = as_vector(gamma, S.dim)
    return tuple(sorted(_search(_dfs_plan(S.generators), g)))


def length_set(S: AffineSemigroup, gamma: int | Sequence[int]) -> tuple[int, ...]:
    """Sorted distinct factorization lengths of gamma; empty iff not a member."""
    return tuple(sorted({sum(z) for z in factorizations(S, gamma)}))


def delta_of_lengths(lengths: tuple[int, ...]) -> tuple[int, ...]:
    """Sorted distinct successive differences of a sorted length set."""
    return tuple(sorted({b - a for a, b in zip(lengths, lengths[1:])}))


def delta_of_element(S: AffineSemigroup, gamma: int | Sequence[int]) -> tuple[int, ...]:
    """Successive differences of the length set; empty when fewer than two lengths."""
    return delta_of_lengths(length_set(S, gamma))


def dist(z: Vector, w: Vector) -> int:
    """Distance between two factorizations: max leftover length after cancelling gcd."""
    if len(z) != len(w):
        raise DimensionMismatchError("factorizations of different lengths")
    common = vmin(z, w)
    shared = sum(common)
    return max(sum(z) - shared, sum(w) - shared)
