"""Exact solvers for linear Diophantine problems over the nonnegative integers.

Two search engines back the public operations:

* project-and-lift over an integer kernel lattice, which computes all
  primitive (conformally minimal) kernel vectors — the Graver basis of a
  matrix — one leading coordinate at a time, completing on each longer
  prefix only the pairs whose sum can be new there;
* a breadth-first frontier search for minimal nonnegative solutions of
  equality/inequality systems, growing candidate vectors one unit at a time
  and only in directions that shrink the current constraint violation; the
  rows of a level share one total, so a new row is tested for domination
  only against the bucket of minimal solutions that can lie under it.

Both engines work on small dense int64 arrays and keep every intermediate
value exact; magnitudes are guarded so that silent wraparound is impossible.

A semigroup runs one, cached, Graver completion: that of ``homogenize(S)``.
:func:`graver_basis` projects it, and :mod:`~sgfact.delta` buckets it by gap.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .core import AffineSemigroup, Vector, as_matrix, as_vector, homogenize
from .errors import ConstructionError, _Budget

_INT_GUARD = 1 << 41


def vsplit(v: Vector) -> tuple[Vector, Vector]:
    """The positive and negative parts (v+, v-) of v: v = v+ - v-, disjoint supports."""
    return tuple(c if c > 0 else 0 for c in v), tuple(-c if c < 0 else 0 for c in v)


class Relation(Enum):
    EQ = "eq"
    GEQ = "geq"


@dataclass(frozen=True)
class DiophantineSystem:
    """An integer matrix with a row-wise relation, right-hand side, and optional moduli."""

    matrix: tuple[Vector, ...]
    relation: Relation
    rhs: tuple[int, ...]
    moduli: tuple[int, ...] | None = None

    @property
    def ncols(self) -> int:
        return len(self.matrix[0])

    @property
    def homogeneous(self) -> bool:
        return not any(self.rhs)

    def satisfied_by(self, vec: Vector) -> bool:
        """Whether every row holds at vec: as an equation, a congruence or an inequality."""
        for row, b, m in zip(self.matrix, self.rhs, self.moduli or itertools.repeat(0)):
            value = sum(r * c for r, c in zip(row, vec)) - b
            failed = value < 0 if self.relation is Relation.GEQ else (value % m if m else value)
            if failed:
                return False
        return True


def diophantine_system(
    matrix: Iterable[Sequence[int]],
    relation: Relation = Relation.EQ,
    rhs: Sequence[int] | None = None,
    moduli: Sequence[int] | None = None,
) -> DiophantineSystem:
    """Validate and freeze a system description."""
    rows = as_matrix(matrix)
    if not rows or not rows[0]:
        raise ConstructionError("a system needs at least one row and one column")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise ConstructionError("ragged matrix")
    b = as_vector(rhs) if rhs is not None else (0,) * len(rows)
    if len(b) != len(rows):
        raise ConstructionError("right-hand side length must match the row count")
    m = as_vector(moduli) if moduli is not None else None
    if m is not None:
        if relation is Relation.GEQ:
            raise ConstructionError("moduli and GEQ rows are mutually exclusive")
        if len(m) != len(rows):
            raise ConstructionError("one modulus per row required")
        if any(x < 0 for x in m):
            raise ConstructionError("moduli must be nonnegative")
        if any(b):
            raise ConstructionError("congruence rows require a zero right-hand side")
    return DiophantineSystem(rows, relation, b, m)


# ---------------------------------------------------------------------------
# integer kernel lattices and primitive vectors


def _pivot(rows: list[list[int]], col: int) -> list[int] | None:
    """Euclid's algorithm on one coordinate, until at most one row is nonzero there.

    That row, if any, is removed from ``rows`` and returned; the order of the
    other rows is kept.
    """
    while len(nonzero := [r for r in rows if r[col]]) > 1:
        pivot = min(nonzero, key=lambda r: abs(r[col]))
        for r in nonzero:
            if r is not pivot:
                q = r[col] // pivot[col]
                r[:] = [a - q * b for a, b in zip(r, pivot)]
    if not nonzero:
        return None
    rows.remove(nonzero[0])
    return nonzero[0]


def integer_kernel_basis(matrix: Sequence[Sequence[int]]) -> list[Vector]:
    """A lattice basis of {v in Z^n : Mv = 0}, via column reduction with exact ints.

    Each column of M carries the unit vector that records it; once every
    row is pivoted out, the columns left are zero and their records span
    the kernel.
    """
    rows = [list(r) for r in matrix]
    if not rows:
        return []
    m, n = len(rows), len(rows[0])
    cols = [[row[j] for row in rows] + [int(i == j) for i in range(n)] for j in range(n)]
    for i in range(m):
        _pivot(cols, i)
    if any(any(c[:m]) for c in cols):
        raise AssertionError("column reduction left a nonzero kernel column")
    return [tuple(c[m:]) for c in cols]


def _guard(arr: np.ndarray) -> np.ndarray:
    if arr.size and np.abs(arr).max() >= _INT_GUARD:
        raise ConstructionError("integer of magnitude 2**41 or more in a Diophantine search")
    return arr


def _multiple(g: Vector, s: Vector) -> int:
    """The k of largest |k| with k*g sign-compatible with s and |k*g| <= |s|, or 0.

    Coordinates past the shorter of g and s are not looked at.
    """
    sign = k = 0
    for a, b in zip(g, s):
        if a:
            q = abs(b) // abs(a)
            if not q:
                return 0
            same = (a > 0) == (b > 0)
            if not sign:
                sign, k = (1 if same else -1), q
            elif (sign > 0) != same:
                return 0
            elif q < k:
                k = q
    return sign * k


class _KernelStore:
    """Growing set of kernel vectors with conformal-reduction lookups on a prefix.

    Vectors are kept whole, one per sign pair with first nonzero entry
    positive; ``width`` is the number of leading coordinates that reduction
    and the pair rule look at, and only those prefixes go into the int64
    array.  Every vector is guarded on entry: reduction shrinks only the
    prefix, so the other coordinates of a normal form can outgrow the sum's.
    """

    def __init__(self, width: int):
        self.width = width
        self.heads = np.zeros((64, width), dtype=np.int64)
        self.tuples: list[Vector] = []

    def add(self, vec: Vector) -> None:
        _guard(np.array(vec, dtype=object))
        if len(self.tuples) == len(self.heads):
            self.heads = np.vstack([self.heads, np.zeros_like(self.heads)])
        self.heads[len(self.tuples)] = vec[: self.width]
        self.tuples.append(vec)

    def fitting(self, s: Vector) -> list[int]:
        """Indices of the stored vectors whose prefix lies under |s| coordinatewise."""
        heads = np.abs(self.heads[: len(self.tuples)])
        return np.flatnonzero((heads <= np.abs(np.array(s[: self.width]))).all(axis=1)).tolist()

    def reduce(self, s: Vector) -> Vector:
        """Sign-compatible reduction of s on the prefix, by stored vectors of either sign.

        One pass over the stored vectors that fit under |s| suffices: s only
        shrinks conformally, so a vector that cannot reduce s now never can,
        and each reducer is subtracted as often as it fits.
        """
        head = s[: self.width]
        for idx in self.fitting(s):
            g = self.tuples[idx]
            k = _multiple(g, head)
            if k:
                s = tuple(a - k * b for a, b in zip(s, g))
                head = s[: self.width]
                if not any(head):
                    break
        return s


def _lift(vectors: list[Vector], store: _KernelStore, budget: _Budget) -> None:
    """Complete ``vectors`` into ``store`` on its prefix, one step per queue pop.

    The vectors must have the positive sum property on one coordinate fewer
    than the store's width: every lattice vector is a sum of them (and their
    negatives) sign-compatible with it there, up to a multiple of a vector
    that is zero there.  Only pairs sign-compatible on that shorter prefix
    and of opposite sign at the new coordinate are completed.
    """
    last = store.width - 1
    counter = itertools.count()
    queue: list[tuple[int, int, Vector]] = []
    seen: set[Vector] = set()

    def admit(vec: Vector) -> None:
        if next(c for c in vec if c) < 0:
            vec = tuple(-c for c in vec)
        signs = np.sign(store.heads[: len(store.tuples)]) * np.sign(vec[: store.width])
        store.add(vec)
        if not vec[last]:
            return
        plus = (signs[:, last] < 0) & (signs[:, :last] >= 0).all(axis=1)
        minus = (signs[:, last] > 0) & (signs[:, :last] <= 0).all(axis=1)
        for sign, rows in ((1, plus), (-1, minus)):
            for idx in np.flatnonzero(rows).tolist():
                s = tuple(a + sign * b for a, b in zip(store.tuples[idx], vec))
                if s not in seen:
                    seen.add(s)
                    heapq.heappush(queue, (sum(map(abs, s[: store.width])), next(counter), s))

    for vec in sorted(vectors, key=lambda v: sum(map(abs, v[: store.width]))):
        red = store.reduce(vec)
        if any(red[: store.width]):
            admit(red)
    while queue:
        _, _, s = heapq.heappop(queue)
        budget.spend()
        red = store.reduce(s)
        if any(red[: store.width]):
            admit(red)


def primitive_kernel_vectors(matrix: Sequence[Sequence[int]]) -> tuple[Vector, ...]:
    """All conformally minimal nonzero kernel vectors of the matrix, one per sign pair.

    This is the Graver basis of the matrix, computed by project-and-lift
    (Hemmecke, "On the computation of Hilbert bases of cones", 2002, and "On
    the positive sum property and the computation of Graver test sets",
    Math. Program. 2003).  An echelon lattice basis has one vector per pivot
    column.  Stage j lifts the current set from the first j-1 coordinates to
    the first j: it adds the basis vector with pivot j-1, if any, brings every
    vector to its normal form under sign-compatible reduction on the first j
    coordinates (a vector whose prefix vanishes is zero, since the projection
    is injective on the span so far), and completes.  The set entering a
    stage has the positive sum property on the first j-1 coordinates, so a
    representation of any lattice vector by terms sign-compatible with it
    there exists; completing the pairs sign-compatible on the first j-1
    coordinates is therefore enough, and of those only the pairs that cancel
    at coordinate j-1 give sums not reduced at once by a summand.  The last
    stage ends with a sweep keeping only the primitive vectors.  Under
    :func:`~sgfact.errors.step_limit` every vector taken off a queue is one
    step, summed over all stages.
    """
    budget = _Budget()
    basis = integer_kernel_basis(matrix)
    if not basis:
        return ()
    # an echelon basis: the vector with pivot j is zero before coordinate j
    rows = [list(b) for b in basis]
    echelon = {j: tuple(p) for j in range(len(basis[0])) if (p := _pivot(rows, j))}
    _guard(np.array(list(echelon.values()), dtype=object))
    vectors: list[Vector] = []
    for width in range(1, len(basis[0]) + 1):
        if width - 1 in echelon:
            vectors.append(echelon[width - 1])
        if vectors:
            store = _KernelStore(width)
            _lift(vectors, store, budget)
            vectors = store.tuples
    return tuple(sorted(_primitive(store)))


def _primitive(store: _KernelStore) -> list[Vector]:
    """The stored vectors, whole in ``store.width``, with no multiple of another conformally under them."""
    vectors = store.tuples
    return [
        v
        for idx, v in enumerate(vectors)
        if not any(_multiple(vectors[c], v) for c in store.fitting(v) if c != idx)
    ]


# ---------------------------------------------------------------------------
# minimal nonnegative solutions by guided frontier search


def _dominated(frontier: np.ndarray, minimal: np.ndarray) -> np.ndarray:
    """Boolean mask of frontier rows that are >= some known minimal solution."""
    out = np.zeros(len(frontier), dtype=bool)
    chunk = max(1, 10_000_000 // max(1, frontier.shape[1] * max(1, len(minimal))))
    for start in range(0, len(frontier), chunk):
        block = frontier[start : start + chunk]
        out[start : start + chunk] = (
            (block[:, None, :] >= minimal[None, :, :]).all(axis=2).any(axis=1)
        )
    return out


def _minimal_nonneg_solutions(
    a: np.ndarray, b: np.ndarray, geq: bool, *, caps: np.ndarray | None = None
) -> list[Vector]:
    """Minimal x >= 0 with A x = b, or A x >= b when ``geq``.

    Frontier vectors grow one unit at a time, only along columns whose
    inner product with the current violation is negative; that rule reaches
    every minimal solution while pruning most of N^n.  Solutions are never
    extended, and anything above a known solution is dropped.

    All rows of a level have the same total, so a kept row r that is no
    solution lies above no known minimal m (one of its own total would equal
    it), and its child r + e_j lies above m only if m_j = r_j + 1: each child
    is tested only against the minimal solutions in that bucket (j, m_j).
    Each level is deduplicated by one lexsort and a neighbour comparison.
    Under :func:`~sgfact.errors.step_limit` every child row generated is one
    step, counted before deduplication and the domination test.

    Termination holds for homogeneous equality systems and for inequality
    systems with a nonnegative matrix; other callers must homogenize first
    (inhomogeneous equalities wander forever otherwise, because the kernel
    solutions that would fence the search in are not solutions of the
    inhomogeneous system).
    """
    budget = _Budget()
    ncols = a.shape[1]
    frontier = np.zeros((1, ncols), np.int64) if b.any() else np.eye(ncols, dtype=np.int64)
    buckets: dict[tuple[int, int], np.ndarray] = {}
    found: list[Vector] = []
    while len(frontier):
        frontier = frontier[np.lexsort(frontier.T)]
        frontier = frontier[np.r_[True, (frontier[1:] != frontier[:-1]).any(axis=1)]]
        violation = _guard(frontier @ a.T - b)
        if geq:
            violation = np.minimum(violation, 0)
        solution = (violation == 0).all(axis=1)
        sols = frontier[solution]
        rows = sols.tolist()
        found.extend(map(tuple, rows))
        for j, v in {(j, v) for row in rows for j, v in enumerate(row) if v}:
            buckets[j, v] = np.vstack([buckets.get((j, v), sols[:0]), sols[sols[:, j] == v]])
        rest = frontier[~solution]
        scores = violation[~solution] @ a
        children = []
        for j in range(ncols):
            mask = scores[:, j] < 0
            if caps is not None:
                mask &= rest[:, j] < caps[j]
            block = rest[mask]
            block[:, j] += 1
            budget.spend(len(block))
            for v in np.unique(block[:, j]).tolist():
                if (j, v) in buckets:
                    at = np.flatnonzero(block[:, j] == v)
                    block = np.delete(block, at[_dominated(block[at], buckets[j, v])], axis=0)
            children.append(block)
        frontier = np.vstack(children)
    return sorted(found)


def _np_matrix(rows: Sequence[Vector]) -> np.ndarray:
    return _guard(np.array(rows, dtype=np.int64))


def _extend_congruences(sys: DiophantineSystem) -> list[list[int]]:
    """The rows as equations: each congruence row reduced mod its m, with its own -m column.

    A reduced row is nonnegative, so its multiplier y = B'x/m is fixed by x
    and grows with x: the solutions project one-to-one, and in order, onto
    those of the congruences.
    """
    moduli = sys.moduli or (0,) * len(sys.matrix)
    rows = [[c % m for c in r] if m else list(r) for r, m in zip(sys.matrix, moduli)]
    for i, m in enumerate(moduli):
        if m:
            for i2, row in enumerate(rows):
                row.append(-m if i2 == i else 0)
    return rows


def hilbert_basis(sys: DiophantineSystem) -> tuple[Vector, ...]:
    """The minimal generating set of {x in N^n : rows hold}, for homogeneous systems.

    Each congruence row gets one multiplier column, projected away
    afterwards; the projection keeps minimality (see ``_extend_congruences``).
    Homogeneous GEQ systems are rejected: their solution sets are cones whose
    generators need not be componentwise-minimal, which is a different
    computation.  Under :func:`~sgfact.errors.step_limit` every
    frontier row the search generates is one step.
    """
    if not sys.homogeneous:
        raise ConstructionError("hilbert_basis requires a homogeneous system")
    if sys.relation is Relation.GEQ:
        raise ConstructionError("hilbert_basis supports equality/congruence rows only")
    rows = _extend_congruences(sys)
    solutions = _minimal_nonneg_solutions(_np_matrix(rows), np.zeros(len(rows), np.int64), False)
    return tuple(v[: sys.ncols] for v in solutions)


def minimal_solutions(sys: DiophantineSystem) -> tuple[Vector, ...]:
    """Componentwise-minimal nonnegative solutions of an inhomogeneous system.

    Equality systems are homogenized with one extra column carrying -rhs whose
    coordinate is capped at 1: solutions of the original system are exactly
    the pinned-coordinate-1 members of the homogeneous minimal set, and the
    pin-0 kernel solutions fence the search (the raw inhomogeneous search
    does not terminate).  Inequality systems require a nonnegative matrix,
    which bounds the search depth by the total right-hand side.  Infeasible
    systems yield the empty tuple.
    """
    if sys.homogeneous:
        raise ConstructionError("minimal_solutions requires a nonzero right-hand side")
    if sys.moduli and any(m for m in sys.moduli):
        raise ConstructionError("congruence rows with a right-hand side are not supported")
    mat = _np_matrix(sys.matrix)
    b = np.array(sys.rhs, dtype=np.int64)
    if sys.relation is Relation.EQ:
        extended = np.hstack([mat, -b[:, None]])
        caps = np.full(sys.ncols + 1, np.iinfo(np.int64).max, dtype=np.int64)
        caps[-1] = 1
        pinned = _minimal_nonneg_solutions(extended, np.zeros_like(b), False, caps=caps)
        return tuple(v[:-1] for v in pinned if v[-1] == 1)
    if any(c < 0 for row in sys.matrix for c in row):
        raise ConstructionError("GEQ systems require nonnegative matrix entries")
    return tuple(_minimal_nonneg_solutions(mat, b, True))


@functools.lru_cache(maxsize=16)
def _homogenized_graver(S: AffineSemigroup) -> tuple[Vector, ...]:
    """The Graver basis of ``homogenize(S)``: vectors (x_0, v) with x_0 = -sum(v) = |v-| - |v+|."""
    return primitive_kernel_vectors(homogenize(S).matrix)


def graver_basis(S: AffineSemigroup) -> tuple[tuple[Vector, Vector], ...]:
    """All primitive pairs (z, w) of distinct factorization vectors with equal value.

    Pairs have disjoint supports, carry one orientation each (lexicographically
    larger side first), and together they are the disjoint-support part of the
    Hilbert basis of the doubled system (A | -A).

    Each primitive v lifts to the primitive (|v-| - |v+|, v) of ``homogenize(S)``, so
    the plain basis is the conformally minimal part of the cached homogenized
    one with x_0 dropped; a cached completion spends no steps.
    """
    store = _KernelStore(len(S.generators))
    for v in _homogenized_graver(S):
        store.add(v[1:])
    pairs = []
    for v in _primitive(store):
        plus, minus = vsplit(v)
        pairs.append((plus, minus) if plus > minus else (minus, plus))
    return tuple(sorted(pairs))
