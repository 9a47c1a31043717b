"""Independent brute-force oracles and random instance generators.

Everything here enumerates boxes with itertools and checks definitions
directly, or runs the plain textbook loop; none of it shares code with the
search engines it is used to verify beyond the binomial and term-order types.
Five exceptions: ``delta_bounds`` derives a cheap bracket of the delta set
from the public presentation and element-delta functions,
``reference_graver`` starts from the library's lattice basis,
``reference_lex_delta_basis`` runs the library's toric-ideal and Buchberger
engines on the homogenized semigroup, ``reference_tame_i`` takes the
library's shifted-ideal minimals and fibers, and ``reference_presentation``
takes the library's Graver basis and fibers.  ``cpu_limit`` is no oracle but
a guard the test modules share.
"""

from __future__ import annotations

import heapq
import random
import signal
from collections import deque
from contextlib import contextmanager
from itertools import combinations, count, product
from math import gcd

import numpy as np

from sgfact import AffineSemigroup, affine_semigroup, delta_of_element
from sgfact.core import factorizations, homogenize, value_of
from sgfact.grobner import Binomial, TermOrder, binomial, buchberger, reduce_basis, toric_ideal
from sgfact.hilbert import graver_basis, integer_kernel_basis
from sgfact.presentation import minimal_presentation
from sgfact.tame import minimals_principal_ideal


@contextmanager
def cpu_limit(seconds):
    """Fail with TimeoutError, instead of running on, once the block has used ``seconds`` of CPU."""

    def expire(signum, frame):
        raise TimeoutError(f"more than {seconds} s of CPU")

    previous = signal.signal(signal.SIGPROF, expire)
    signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


def reference_spanning_tree(fiber):
    """Kruskal over the complete distance graph of a fiber, edges taken in
    (weight, lower, upper) order; that strict order makes the tree unique."""

    def distance(z, w):
        common = sum(min(x, y) for x, y in zip(z, w))
        return max(sum(z), sum(w)) - common

    component = {z: z for z in fiber}

    def find(z):
        while component[z] != z:
            z = component[z]
        return z

    tree = []
    for w, a, b in sorted((distance(a, b), a, b) for a, b in combinations(sorted(fiber), 2)):
        ra, rb = find(a), find(b)
        if ra != rb:
            component[ra] = rb
            tree.append((w, a, b))
    return tuple(tree)


def brute_factorizations(gens, gamma):
    """Box enumeration of all z with sum(z_i * g_i) == gamma."""
    gamma = tuple(gamma) if not isinstance(gamma, int) else (gamma,)
    dim = len(gens[0])
    bounds = []
    for g in gens:
        b = min(gamma[i] // g[i] for i in range(dim) if g[i])
        bounds.append(b)
    out = []
    for z in product(*(range(b + 1) for b in bounds)):
        value = tuple(sum(c * g[i] for c, g in zip(z, gens)) for i in range(dim))
        if value == gamma:
            out.append(z)
    return sorted(out)


def brute_solutions(matrix, bound, *, rhs=None, geq=False, moduli=None):
    """All x in the box [0, bound]^n satisfying the system (zero excluded)."""
    n = len(matrix[0])
    rhs = rhs or [0] * len(matrix)
    out = []
    for x in product(range(bound + 1), repeat=n):
        if not any(x):
            continue
        ok = True
        for i, row in enumerate(matrix):
            value = sum(a * b for a, b in zip(row, x)) - rhs[i]
            if moduli and moduli[i]:
                ok = value % moduli[i] == 0
            elif geq:
                ok = value >= 0
            else:
                ok = value == 0
            if not ok:
                break
        if ok:
            out.append(x)
    return out


def minimal_elements(vectors):
    vecs = sorted(set(vectors), key=lambda v: (sum(v), v))
    kept = []
    for v in vecs:
        if not any(all(a <= b for a, b in zip(m, v)) for m in kept):
            kept.append(v)
    return sorted(kept)


def decomposes_over(vector, basis):
    """Is the vector a nonnegative integer combination of the basis vectors?"""
    if not any(vector):
        return True
    for b in basis:
        if all(x <= y for x, y in zip(b, vector)):
            if decomposes_over(tuple(y - x for x, y in zip(b, vector)), basis):
                return True
    return False


def numerical_members(gens, top):
    """Membership sieve for <gens> in N: entry n says whether n is a member, 0 <= n <= top."""
    values = sorted(set(gens))
    member = [False] * (top + 1)
    member[0] = True
    for n in range(1, top + 1):
        member[n] = any(v <= n and member[n - v] for v in values)
    return member


def numerical_atoms(gens):
    """The minimal generators of <gens> in N: those that are no sum of two nonzero members."""
    values = sorted(set(gens))
    member = numerical_members(values, values[-1])
    return [v for v in values if not any(member[v - u] and u < v for u in values if u <= v)]


def random_numerical_semigroup(rng: random.Random, k_max=5, atom_max=60) -> AffineSemigroup:
    k = rng.randint(2, k_max)
    atoms = rng.sample(range(2, atom_max + 1), k)
    return affine_semigroup(atoms)


def random_affine_semigroup(rng: random.Random, d=2, k_max=4, entry_max=8) -> AffineSemigroup:
    while True:
        k = rng.randint(2, k_max)
        gens = []
        for _ in range(k):
            v = tuple(rng.randint(0, entry_max) for _ in range(d))
            if any(v):
                gens.append(v)
        if gens:
            return affine_semigroup(gens)


def tame_of_element(gens, gamma):
    """Element-level tame degree, straight from the definition.

    An atom divides gamma exactly when some factorization uses it; for each
    such atom and each factorization z, take the distance from z to the
    closest factorization through the atom.  The worst case is the answer.
    """
    fiber = brute_factorizations(gens, gamma)
    worst = 0
    for i in range(len(gens)):
        through = [w for w in fiber if w[i] > 0]
        if through:
            for z in fiber:
                worst = max(worst, min(_distance(z, w) for w in through))
    return worst


def reference_tame_i(S: AffineSemigroup, i):
    """Tame degree of a full semigroup with respect to atom ``i``, one full fiber per candidate.

    Each minimal z of atom + S that avoids the atom is weighed against the
    shortest factorization of its own value that uses the atom, found by
    enumerating that whole fiber.
    """
    best = 0
    for z in minimals_principal_ideal(S, S.generators[i]):
        if z[i] == 0:
            through = [sum(w) for w in factorizations(S, value_of(S, z)) if w[i] > 0]
            best = max(best, sum(z), min(through))
    return best


def _distance(z, w):
    common = [min(a, b) for a, b in zip(z, w)]
    return max(sum(z) - sum(common), sum(w) - sum(common))


def reference_groebner(gens, order):
    """The reduced Groebner basis of a binomial ideal, by the plain Buchberger loop.

    A copy of the engine before it gained pair criteria and a divisor index:
    every pair without coprime leading terms is reduced, smallest lcm first,
    each division step scans the basis linearly for the first divisor, and
    the interreduction restarts after every change.  Only ``Binomial`` and
    ``TermOrder`` come from the engine; ``None`` stands for the zero binomial.
    """

    def orient(a, b):
        if a == b:
            return None
        return Binomial(a, b) if order.greater(a, b) else Binomial(b, a)

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    def lcm(a, b):
        return tuple(max(x, y) for x, y in zip(a, b))

    def step(term, g):
        return tuple(t - p + m for t, p, m in zip(term, g.plus, g.minus))

    def normal_form(f, members):
        plus, minus = f.plus, f.minus
        while (g := next((g for g in members if divides(g.plus, plus)), None)) is not None:
            plus = step(plus, g)
            if plus == minus:
                return None
            if order.greater(minus, plus):
                plus, minus = minus, plus
        while (g := next((g for g in members if divides(g.plus, minus)), None)) is not None:
            minus = step(minus, g)
            if plus == minus:
                return None
        return Binomial(plus, minus)

    basis = []
    counter = count()
    pairs = []

    def push_pairs(idx):
        g = basis[idx]
        for j in range(idx):
            h = basis[j]
            if all(a == 0 or b == 0 for a, b in zip(g.plus, h.plus)):
                continue
            heapq.heappush(pairs, (order.key(lcm(g.plus, h.plus)), next(counter), idx, j))

    for b in gens:
        if not b.is_zero:
            basis.append(b)
            push_pairs(len(basis) - 1)
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        top = lcm(basis[i].plus, basis[j].plus)
        s = orient(step(top, basis[i]), step(top, basis[j]))
        r = normal_form(s, basis) if s is not None else None
        if r is not None:
            basis.append(r)
            push_pairs(len(basis) - 1)

    basis.sort(key=lambda b: order.key(b.plus))
    minimal = []
    for b in basis:
        if not any(divides(m.plus, b.plus) for m in minimal):
            minimal.append(b)
    changed = True
    while changed:
        changed = False
        for i, b in enumerate(minimal):
            r = normal_form(b, minimal[:i] + minimal[i + 1 :])
            if r != b:
                if r is None:
                    del minimal[i]
                else:
                    minimal[i] = r
                changed = True
                break
    minimal.sort(key=lambda b: (order.key(b.plus), order.key(b.minus)))
    return tuple(minimal)


def delta_bounds(S: AffineSemigroup) -> tuple[int, int] | None:
    """(min, max) of the semigroup's delta set, or None when that set is empty.

    The minimum is the gcd of the relation length gaps; the maximum is the
    largest element-level delta over the Betti values.  Betti values whose own
    delta set is empty are skipped in the maximum; zero length gaps are
    ignored in the gcd unless all gaps vanish (half-factorial case).
    """
    relations = minimal_presentation(S)
    gaps = [abs(sum(z) - sum(w)) for z, w in relations]
    nonzero = [g for g in gaps if g]
    if not nonzero:
        return None
    lower = 0
    for g in nonzero:
        lower = gcd(lower, g)
    upper = 0
    for value in {value_of(S, z) for z, _ in relations}:
        deltas = delta_of_element(S, value)
        if deltas:
            upper = max(upper, deltas[-1])
    return (lower, upper)


def reference_graver(matrix):
    """All primitive kernel vectors of the matrix, by the plain completion loop.

    A copy of the engine before project-and-lift: start from a lattice basis,
    enqueue the sum of every sign-conflicting pair by increasing 1-norm,
    admit the normal form of each sum under sign-compatible reduction over all
    coordinates, and finally discard anything still reducible by another
    survivor.  One vector per sign pair, first nonzero entry positive, sorted.
    """
    basis = integer_kernel_basis(matrix)
    if not basis:
        return ()
    n = len(basis[0])
    store = np.zeros((64, n), dtype=np.int64)
    vectors = []

    def compatible(g, s):
        return all(a * b >= 0 for a, b in zip(g, s))

    def reducer(s, candidates):
        for idx in candidates:
            g = vectors[idx]
            if compatible(g, s):
                return g
            neg = tuple(-c for c in g)
            if compatible(neg, s):
                return neg
        return None

    def reduce(s):
        mat = store[: len(vectors)]
        while any(s):
            fits = np.flatnonzero((np.abs(mat) <= np.abs(np.array(s, dtype=np.int64))).all(axis=1))
            g = reducer(s, fits)
            if g is None:
                break
            s = tuple(a - b for a, b in zip(s, g))
        return s

    counter = count()
    queue = []
    seen = set()

    def admit(vec):
        nonlocal store
        first = next(c for c in vec if c)
        vec = vec if first > 0 else tuple(-c for c in vec)
        arr = np.array(vec, dtype=np.int64)
        mat = store[: len(vectors)]
        for sign in (1, -1):
            conflict = (np.sign(mat) * (sign * np.sign(arr)) < 0).any(axis=1)
            for row in mat[conflict]:
                entry = tuple(int(c) for c in row + sign * arr)
                if any(entry) and entry not in seen:
                    seen.add(entry)
                    heapq.heappush(queue, (sum(map(abs, entry)), next(counter), entry))
        if len(vectors) == len(store):
            store = np.vstack([store, np.zeros_like(store)])
        store[len(vectors)] = arr
        vectors.append(vec)

    for b in basis:
        red = reduce(b)
        if any(red):
            admit(red)
    while queue:
        _, _, s = heapq.heappop(queue)
        red = reduce(s)
        if any(red):
            admit(red)

    mat = store[: len(vectors)]
    keep = []
    for idx, vec in enumerate(vectors):
        fits = (np.abs(mat) <= np.abs(mat[idx])).all(axis=1)
        fits[idx] = False
        if reducer(vec, np.flatnonzero(fits)) is None:
            keep.append(vec)
    return tuple(sorted(keep))


def reference_lex_delta_basis(S: AffineSemigroup):
    """The reduced lex basis, x_0 greatest, of the toric ideal of ``homogenize(S)``.

    Computed without homogenizing the grlex basis of S: a second toric ideal,
    saturated on the homogenized lattice itself, re-oriented under lex and
    completed.
    """
    hom = homogenize(S)
    order = TermOrder.lex(len(hom.generators))
    gens = [binomial(b.plus, b.minus, order) for b in toric_ideal(hom).binomials]
    return reduce_basis(buchberger(gens, order))


def reference_presentation(S: AffineSemigroup, max_fiber: int = 150):
    """The canonical star presentation of ``minimal_presentation``, or None when
    some candidate fiber has more than ``max_fiber`` members.

    The candidates are the Graver values, a superset of the Betti values.  The
    R-classes of a fiber are the components of the graph joining every pair of
    factorizations that share an atom, found by breadth-first search.  Each
    class without the lex-least factorization of the fiber gives the pair
    (its least member, that factorization).
    """
    relations = []
    for value in sorted({value_of(S, z) for z, _ in graver_basis(S)}):
        fiber = factorizations(S, value)
        if len(fiber) > max_fiber:
            return None
        unseen, minima = set(fiber), []
        while unseen:
            start = unseen.pop()
            queue, members = deque([start]), [start]
            while queue:
                z = queue.popleft()
                for w in [w for w in unseen if any(a and b for a, b in zip(z, w))]:
                    unseen.remove(w)
                    queue.append(w)
                    members.append(w)
            minima.append(min(members))
        center = min(minima)
        relations += [(least, center) for least in minima if least != center]
    return tuple(sorted(relations))
