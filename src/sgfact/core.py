"""Affine semigroups and element-level factorization machinery.

Vectors are plain tuples of Python ints, so every computation is exact.  A
semigroup is immutable once built and all operations are pure functions, safe
to call concurrently on shared objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .errors import ConstructionError, DimensionMismatchError

Vector = tuple[int, ...]

_INT_LIMIT = 1 << 62


def as_vector(value: int | Sequence[int], dim: int | None = None) -> Vector:
    """Normalize an int or sequence into a coordinate tuple of the given dimension.

    A coordinate of magnitude 2**62 or more raises :class:`ConstructionError`.
    """
    if isinstance(value, int):
        vec: Vector = (value,)
    else:
        vec = tuple(int(c) for c in value)
    if dim is not None and len(vec) != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {len(vec)}")
    for c in vec:
        if abs(c) >= _INT_LIMIT:
            raise ConstructionError(f"coordinate {c} exceeds the supported integer range")
    return vec


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
class CongruenceSystem:
    """Row-wise congruences B x = 0 (mod m), with modulus 0 meaning equality over Z."""

    matrix: tuple[Vector, ...]
    moduli: tuple[int, ...]

    def satisfied_by(self, vec: Vector) -> bool:
        for row, m in zip(self.matrix, self.moduli):
            value = sum(r * c for r, c in zip(row, vec))
            if (value % m if m else value) != 0:
                return False
        return True


@dataclass(frozen=True)
class AffineSemigroup:
    """A finitely generated subsemigroup of N^dim.

    ``generators`` is always the unique minimal generating set (the atoms),
    sorted lexicographically.  Build instances through
    :func:`affine_semigroup`; the raw constructor performs no validation.
    ``equations`` is present exactly when the semigroup is known to be full,
    i.e. cut out of N^dim by a congruence system whose Hilbert basis is the
    generator list.
    """

    dim: int
    generators: tuple[Vector, ...]
    equations: CongruenceSystem | None = None

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


def affine_semigroup(
    generators: Iterable[int | Sequence[int]],
    *,
    equations: CongruenceSystem | None = None,
) -> AffineSemigroup:
    """Build a semigroup, reducing the input to its minimal generating set.

    Any generator expressible over the others is discarded; surviving atoms
    are stored in sorted order.  Raises :class:`ConstructionError` for empty
    input, mixed dimensions, negative or out-of-range coordinates, or a zero
    vector.
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
    vecs = sorted(set(vecs))
    atoms = tuple(v for v in vecs if not _is_decomposable(v, vecs))
    if equations is not None:
        if len(equations.moduli) != len(equations.matrix):
            raise ConstructionError("one modulus per congruence row required")
        if any(len(row) != dim for row in equations.matrix):
            raise ConstructionError("congruence rows must match the ambient dimension")
        if any(m < 0 for m in equations.moduli):
            raise ConstructionError("moduli must be nonnegative")
        for a in atoms:
            if not equations.satisfied_by(a):
                raise ConstructionError(f"generator {a} violates the defining congruences")
    return AffineSemigroup(dim, atoms, equations)


def _is_decomposable(target: Vector, gens: list[Vector]) -> bool:
    # target is a non-atom of <gens> iff it has a factorization of length >= 2,
    # i.e. target - g is a nonzero member for some generator g.  This test over
    # the full list is order-independent, so one pass minimalizes the input.
    if len(target) == 1:
        top = target[0]
        member = [False] * (top + 1)
        member[0] = True
        values = sorted({g[0] for g in gens if g[0] <= top})
        for n in range(1, top + 1):
            member[n] = any(v <= n and member[n - v] for v in values)
        return any(member[top - v] and top != v for v in values if v <= top)
    for g in gens:
        rest = vsub(target, g)
        if any(c < 0 for c in rest) or not any(rest):
            continue
        if _dfs_contains(gens, rest):
            return True
    return False


def _coordinate_bound(atom: Vector, gamma: Vector) -> int:
    bound: int | None = None
    for a, g in zip(atom, gamma):
        if a:
            q = g // a
            bound = q if bound is None else min(bound, q)
    return bound if bound is not None else 0


def _dfs_plan(atoms: Sequence[Vector]) -> tuple[list[int], list[Vector], list[Vector]]:
    """Search order and per-suffix row gcds for the factorization DFS.

    Heavy atoms first: an atom with small support (zero rows) explored early
    has a huge branching factor, whereas explored last its multiplicity is
    forced.  The suffix gcds prune branches where a residue can no longer be
    matched by the remaining atoms.
    """
    order = sorted(range(len(atoms)), key=lambda j: (-sum(atoms[j]), atoms[j]))
    arranged = [atoms[j] for j in order]
    dim = len(atoms[0])
    suffix: list[Vector] = [(0,) * dim]
    for atom in reversed(arranged):
        prev = suffix[-1]
        suffix.append(tuple(gcd(a, p) for a, p in zip(atom, prev)))
    suffix.reverse()
    return order, arranged, suffix


def _suffix_feasible(rem: Vector, suffix_gcd: Vector) -> bool:
    for r, g in zip(rem, suffix_gcd):
        if g == 0:
            if r != 0:
                return False
        elif r % g:
            return False
    return True


def _dfs_contains(atoms: Sequence[Vector], gamma: Vector) -> bool:
    if not any(gamma):
        return True
    if any(c < 0 for c in gamma):
        return False
    _, arranged, suffix = _dfs_plan(atoms)
    k = len(arranged)

    def rec(j: int, rem: Vector) -> bool:
        if not any(rem):
            return True
        if j == k or not _suffix_feasible(rem, suffix[j]):
            return False
        atom = arranged[j]
        if j == k - 1:
            return _exact_multiple(atom, rem) is not None
        for c in range(_coordinate_bound(atom, rem), -1, -1):
            if rec(j + 1, tuple(r - c * a for r, a in zip(rem, atom))):
                return True
        return False

    return rec(0, gamma)


def _exact_multiple(atom: Vector, rem: Vector) -> int | None:
    """The unique c >= 0 with c*atom == rem, or None."""
    c: int | None = None
    for a, r in zip(atom, rem):
        if a == 0:
            if r != 0:
                return None
        else:
            if r % a:
                return None
            q = r // a
            if c is None:
                c = q
            elif c != q:
                return None
    return c if c is not None and c >= 0 else None


def contains(S: AffineSemigroup, gamma: int | Sequence[int]) -> bool:
    """Membership test: does gamma admit at least one factorization over the atoms?"""
    g = as_vector(gamma, S.dim)
    if any(c < 0 for c in g):
        return False
    return _dfs_contains(S.generators, g)


def factorizations(S: AffineSemigroup, gamma: int | Sequence[int]) -> tuple[Vector, ...]:
    """All z in N^k with sum(z_i * atom_i) == gamma, sorted; empty iff gamma is not a member."""
    g = as_vector(gamma, S.dim)
    if any(c < 0 for c in g):
        return ()
    order, arranged, suffix = _dfs_plan(S.generators)
    k = len(arranged)
    out: list[Vector] = []
    coeffs = [0] * k

    def emit() -> None:
        z = [0] * k
        for pos, original in enumerate(order):
            z[original] = coeffs[pos]
        out.append(tuple(z))

    def rec(j: int, rem: Vector) -> None:
        if not _suffix_feasible(rem, suffix[j]):
            return
        if j == k - 1:
            c = _exact_multiple(arranged[j], rem)
            if c is not None:
                coeffs[j] = c
                emit()
            return
        atom = arranged[j]
        for c in range(_coordinate_bound(atom, rem), -1, -1):
            coeffs[j] = c
            rec(j + 1, tuple(r - c * a for r, a in zip(rem, atom)))
        coeffs[j] = 0

    rec(0, g)
    return tuple(sorted(out))


def length_set(S: AffineSemigroup, gamma: int | Sequence[int]) -> tuple[int, ...]:
    """Sorted distinct factorization lengths of gamma; empty iff not a member."""
    return tuple(sorted({sum(z) for z in factorizations(S, gamma)}))


def delta_of_element(S: AffineSemigroup, gamma: int | Sequence[int]) -> tuple[int, ...]:
    """Successive differences of the length set; empty when fewer than two lengths."""
    lengths = length_set(S, gamma)
    return tuple(sorted({b - a for a, b in zip(lengths, lengths[1:])}))


def dist(z: Vector, w: Vector) -> int:
    """Distance between two factorizations: max leftover length after cancelling gcd."""
    if len(z) != len(w):
        raise DimensionMismatchError("factorizations of different lengths")
    common = vmin(z, w)
    shared = sum(common)
    return max(sum(z) - shared, sum(w) - shared)
