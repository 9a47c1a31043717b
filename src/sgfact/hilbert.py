"""Exact solvers for linear Diophantine problems over the nonnegative integers.

Two search engines back the public operations:

* a completion procedure over an integer kernel lattice that computes all
  primitive (conformally minimal) kernel vectors — the Graver basis of a
  matrix — by repeatedly summing known vectors and reducing sign-compatibly;
* a breadth-first frontier search for minimal nonnegative solutions of
  equality/inequality systems, growing candidate vectors one unit at a time
  and only in directions that shrink the current constraint violation.

Both engines work on small dense int64 arrays and keep every intermediate
value exact; magnitudes are guarded so that silent wraparound is impossible.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .core import AffineSemigroup, Vector, as_matrix, as_vector
from .errors import ConstructionError, ResourceLimitError, _step_limit

_INT_GUARD = 1 << 41


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


def diophantine_system(
    matrix: Iterable[Sequence[int]],
    relation: Relation = Relation.EQ,
    rhs: Sequence[int] | None = None,
    moduli: Sequence[int] | None = None,
) -> DiophantineSystem:
    """Validate and freeze a system description."""
    rows = as_matrix(matrix)
    if not rows:
        raise ConstructionError("a system needs at least one row")
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


def integer_kernel_basis(matrix: Sequence[Sequence[int]]) -> list[Vector]:
    """A lattice basis of {v in Z^n : Mv = 0}, via column reduction with exact ints."""
    rows = [list(r) for r in matrix]
    if not rows:
        return []
    n = len(rows[0])
    cols = [[rows[i][j] for i in range(len(rows))] for j in range(n)]
    unimod = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    active = list(range(n))
    for i in range(len(rows)):
        while True:
            nonzero = [j for j in active if cols[j][i] != 0]
            if len(nonzero) <= 1:
                break
            j0 = min(nonzero, key=lambda j: abs(cols[j][i]))
            for j in nonzero:
                if j == j0:
                    continue
                q = cols[j][i] // cols[j0][i]
                if q:
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[j0])]
                    unimod[j] = [a - q * b for a, b in zip(unimod[j], unimod[j0])]
        nonzero = [j for j in active if cols[j][i] != 0]
        if nonzero:
            active.remove(nonzero[0])
    basis = []
    for j in active:
        if any(cols[j]):
            raise AssertionError("column reduction left a nonzero kernel column")
        basis.append(tuple(unimod[j]))
    return basis


def _guard(arr: np.ndarray) -> np.ndarray:
    if arr.size and np.abs(arr).max() >= _INT_GUARD:
        raise ConstructionError("integer of magnitude 2**41 or more in a Diophantine search")
    return arr


def _sign_compatible(g: Vector, s: Vector) -> bool:
    return all(a * b >= 0 for a, b in zip(g, s))


class _KernelStore:
    """Growing set of kernel vectors with fast conformal-reduction lookups."""

    def __init__(self, n: int):
        self.n = n
        self.mat = np.zeros((64, n), dtype=np.int64)
        self.abs = np.zeros((64, n), dtype=np.int64)
        self.tuples: list[Vector] = []
        self.count = 0

    def add(self, vec: Vector) -> None:
        if self.count == len(self.mat):
            self.mat = np.vstack([self.mat, np.zeros_like(self.mat)])
            self.abs = np.vstack([self.abs, np.zeros_like(self.abs)])
        arr = np.array(vec, dtype=np.int64)
        self.mat[self.count] = arr
        self.abs[self.count] = np.abs(arr)
        self.tuples.append(vec)
        self.count += 1

    def reduce(self, s: Vector) -> Vector:
        """Sign-compatible reduction of s by stored vectors (either sign) to a normal form."""
        while any(s):
            abs_s = np.abs(np.array(s, dtype=np.int64))
            fits = np.flatnonzero((self.abs[: self.count] <= abs_s).all(axis=1))
            hit = None
            for idx in fits:
                g = self.tuples[idx]
                if _sign_compatible(g, s):
                    hit = g
                    break
                if _sign_compatible(tuple(-c for c in g), s):
                    hit = tuple(-c for c in g)
                    break
            if hit is None:
                break
            s = tuple(a - b for a, b in zip(s, hit))
        return s


def primitive_kernel_vectors(matrix: Sequence[Sequence[int]]) -> tuple[Vector, ...]:
    """All conformally minimal nonzero kernel vectors of the matrix, one per sign pair.

    This is the Graver basis of the matrix.  Completion: start from a lattice
    basis, keep normal forms of pairwise sums under sign-compatible reduction,
    and finally discard anything still reducible by another survivor.  Sums of
    sign-compatible pairs reduce trivially and are never enqueued; duplicate
    sums are processed once.  Under :func:`~sgfact.errors.step_limit` every
    vector taken off the queue is one step.
    """
    limit = _step_limit.get()
    basis = integer_kernel_basis(matrix)
    if not basis:
        return ()
    n = len(basis[0])
    store = _KernelStore(n)
    counter = itertools.count()
    queue: list[tuple[int, int, Vector]] = []
    seen: set[Vector] = set()

    def enqueue_pairs(vec: Vector) -> None:
        if not store.count:
            return
        arr = np.array(vec, dtype=np.int64)
        old = store.mat[: store.count]
        pos, neg = arr > 0, arr < 0
        conflict_plus = ((old < 0) & pos).any(axis=1) | ((old > 0) & neg).any(axis=1)
        conflict_minus = ((old > 0) & pos).any(axis=1) | ((old < 0) & neg).any(axis=1)
        sums_plus = _guard(old + arr)
        sums_minus = _guard(old - arr)
        norms_plus = np.abs(sums_plus).sum(axis=1)
        norms_minus = np.abs(sums_minus).sum(axis=1)
        for idx in np.flatnonzero(conflict_plus):
            entry = tuple(int(c) for c in sums_plus[idx])
            if any(entry) and entry not in seen:
                seen.add(entry)
                heapq.heappush(queue, (int(norms_plus[idx]), next(counter), entry))
        for idx in np.flatnonzero(conflict_minus):
            entry = tuple(int(c) for c in sums_minus[idx])
            if any(entry) and entry not in seen:
                seen.add(entry)
                heapq.heappush(queue, (int(norms_minus[idx]), next(counter), entry))

    def admit(vec: Vector) -> None:
        canon = vec if _first_nonzero_positive(vec) else tuple(-c for c in vec)
        enqueue_pairs(canon)
        store.add(canon)

    for b in basis:
        red = store.reduce(b)
        if any(red):
            admit(red)

    steps = 0
    while queue:
        _, _, s = heapq.heappop(queue)
        steps += 1
        if limit is not None and steps > limit:
            raise ResourceLimitError(limit)
        red = store.reduce(s)
        if any(red):
            admit(red)

    # completion can retain reducible vectors; keep only the primitive ones
    keep = []
    for idx, vec in enumerate(store.tuples):
        fits = (store.abs[: store.count] <= store.abs[idx]).all(axis=1)
        fits[idx] = False
        reducible = False
        for c in np.flatnonzero(fits):
            g = store.tuples[c]
            if _sign_compatible(g, vec) or _sign_compatible(tuple(-x for x in g), vec):
                reducible = True
                break
        if not reducible:
            keep.append(vec)
    return tuple(sorted(keep))


def _first_nonzero_positive(vec: Vector) -> bool:
    for c in vec:
        if c:
            return c > 0
    return True


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
    ncols: int,
    eq: tuple[np.ndarray, np.ndarray] | None,
    geq: tuple[np.ndarray, np.ndarray] | None,
    *,
    caps: np.ndarray | None = None,
) -> list[Vector]:
    """Minimal x >= 0 with A_eq x = b_eq and A_geq x >= b_geq.

    Frontier vectors grow one coordinate at a time, only along columns whose
    inner product with the current violation is negative; that rule reaches
    every minimal solution while pruning most of N^n.  Solutions are never
    extended, and anything above a known solution is dropped.

    Termination holds for homogeneous equality systems and for inequality
    systems with a nonnegative matrix; other callers must homogenize first
    (inhomogeneous equalities wander forever otherwise, because the kernel
    solutions that would fence the search in are not solutions of the
    inhomogeneous system).
    """
    limit = _step_limit.get()
    a_eq, b_eq = eq if eq is not None else (np.zeros((0, ncols), np.int64), np.zeros(0, np.int64))
    a_geq, b_geq = (
        geq if geq is not None else (np.zeros((0, ncols), np.int64), np.zeros(0, np.int64))
    )
    inhomogeneous = bool(b_eq.any() or b_geq.any())
    if inhomogeneous:
        frontier = np.zeros((1, ncols), dtype=np.int64)
    else:
        frontier = np.eye(ncols, dtype=np.int64)
    minimal = np.zeros((0, ncols), dtype=np.int64)
    found: list[Vector] = []
    steps = 0
    while len(frontier):
        frontier = np.unique(frontier, axis=0)
        if len(minimal):
            frontier = frontier[~_dominated(frontier, minimal)]
            if not len(frontier):
                break
        resid_eq = _guard(frontier @ a_eq.T - b_eq)
        viol_geq = np.minimum(_guard(frontier @ a_geq.T - b_geq), 0)
        solution = (resid_eq == 0).all(axis=1) & (viol_geq == 0).all(axis=1)
        if solution.any():
            sols = frontier[solution]
            minimal = np.vstack([minimal, sols])
            found.extend(tuple(int(c) for c in row) for row in sols)
        rest = frontier[~solution]
        if not len(rest):
            break
        scores = resid_eq[~solution] @ a_eq + viol_geq[~solution] @ a_geq
        children = []
        for j in range(ncols):
            mask = scores[:, j] < 0
            if caps is not None:
                mask &= rest[:, j] < caps[j]
            if mask.any():
                block = rest[mask].copy()
                block[:, j] += 1
                children.append(block)
        frontier = np.vstack(children) if children else np.zeros((0, ncols), np.int64)
        steps += len(frontier)
        if limit is not None and steps > limit:
            raise ResourceLimitError(limit)
    return sorted(found)


def _np_matrix(rows: Sequence[Vector]) -> np.ndarray:
    arr = np.array(rows, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape((0, 0))
    return _guard(arr)


def _extend_congruences(sys: DiophantineSystem) -> tuple[list[list[int]], int]:
    """Rewrite congruence rows with auxiliary multiplier columns; return rows and aux count."""
    rows = [list(r) for r in sys.matrix]
    naux = 0
    if sys.moduli:
        for i, m in enumerate(sys.moduli):
            if m == 0:
                continue
            cols = [-m]
            if any(c < 0 for c in sys.matrix[i]):
                cols.append(m)
            for value in cols:
                for i2, row in enumerate(rows):
                    row.append(value if i2 == i else 0)
                naux += 1
    return rows, naux


def _minimalize(vectors: Iterable[Vector]) -> list[Vector]:
    vecs = sorted(set(vectors), key=lambda v: (sum(v), v))
    kept: list[Vector] = []
    for v in vecs:
        if not any(all(a <= b for a, b in zip(m, v)) for m in kept):
            kept.append(v)
    return sorted(kept)


def hilbert_basis(sys: DiophantineSystem) -> tuple[Vector, ...]:
    """The minimal generating set of {x in N^n : rows hold}, for homogeneous systems.

    Congruence rows are rewritten with auxiliary multiplier columns which are
    projected away afterwards (re-minimalizing, since projection can break
    minimality).  Homogeneous GEQ systems are rejected: their solution sets
    are cones whose generators need not be componentwise-minimal, which is a
    different computation.  Under :func:`~sgfact.errors.step_limit` every
    frontier row the search generates is one step.
    """
    if not sys.homogeneous:
        raise ConstructionError("hilbert_basis requires a homogeneous system")
    if sys.relation is Relation.GEQ:
        raise ConstructionError("hilbert_basis supports equality/congruence rows only")
    rows, naux = _extend_congruences(sys)
    n = sys.ncols + naux
    solutions = _minimal_nonneg_solutions(
        n,
        eq=(_np_matrix([tuple(r) for r in rows]), np.zeros(len(rows), np.int64)),
        geq=None,
    )
    if not naux:
        return tuple(solutions)
    projected = [v[: sys.ncols] for v in solutions if any(v[: sys.ncols])]
    return tuple(_minimalize(projected))


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
        pinned = _minimal_nonneg_solutions(
            sys.ncols + 1,
            eq=(extended, np.zeros(len(sys.matrix), np.int64)),
            geq=None,
            caps=caps,
        )
        return tuple(sorted(v[:-1] for v in pinned if v[-1] == 1))
    if any(c < 0 for row in sys.matrix for c in row):
        raise ConstructionError("GEQ systems require nonnegative matrix entries")
    sols = _minimal_nonneg_solutions(sys.ncols, eq=None, geq=(mat, b))
    return tuple(sols)


def graver_basis(S: AffineSemigroup) -> tuple[tuple[Vector, Vector], ...]:
    """All primitive pairs (z, w) of distinct factorization vectors with equal value.

    Pairs have disjoint supports, carry one orientation each (lexicographically
    larger side first), and together they are the disjoint-support part of the
    Hilbert basis of the doubled system (A | -A).
    """
    pairs = []
    for v in primitive_kernel_vectors(S.matrix):
        plus = tuple(c if c > 0 else 0 for c in v)
        minus = tuple(-c if c < 0 else 0 for c in v)
        pairs.append((plus, minus) if plus > minus else (minus, plus))
    return tuple(sorted(pairs))
