"""Tame degrees of full affine semigroups, and block monoids.

A full semigroup is cut out of N^n by congruences, so membership is a residue
check and the factorization vectors of a shifted ideal gamma + S are exactly
{x : A x >= gamma} with A the atom matrix.  The tame degree with respect to
one atom then reduces to finitely many small computations: the minimal
solutions of A x >= atom that avoid the atom, and for each, the shortest
factorization of its value v that uses the atom.  That is one more than the
shortest factorization of v - atom, since w -> w - e_i maps the factorizations
of v through atom i one-to-one onto those of v - atom.  No fiber is enumerated
for it: ``core._settle`` settles shortest lengths bottom-up over the elements
below v - atom with :func:`_shortest` as the rule, the min-length form of the
dynamic algorithms of Barron, O'Neill and Pelayo ("On dynamic algorithms for
factorization invariants in numerical monoids", Math. Comp. 2017) by which
the catenary trees of :mod:`~sgfact.catenary` settle too.

The tame functions take a plain :class:`AffineSemigroup`, whose ``equations``
field is the one record that it is full; without it they raise ``NotFullError``.
"""

from __future__ import annotations

from itertools import product
from math import prod

from .core import AffineSemigroup, Vector, _settle, affine_semigroup, as_vector, value_of, vsub
from .errors import ConstructionError, NotFullError, NotInSemigroupError, _Budget
from .hilbert import Relation, diophantine_system, hilbert_basis, minimal_solutions


def full_semigroup(matrix, moduli) -> AffineSemigroup:
    """The full semigroup {x in N^n : Bx = 0 (mod moduli)}, atoms via Hilbert basis.

    This is the one constructor that records fullness: ``equations`` is the
    validated system solved here, with a zero right-hand side.
    """
    system = diophantine_system(matrix, Relation.EQ, moduli=as_vector(moduli))
    atoms = hilbert_basis(system)
    if not atoms:
        raise ConstructionError("the congruence system admits only the zero solution")
    for a in atoms:
        if not system.satisfied_by(a):
            raise ConstructionError(f"generator {a} violates the defining congruences")
    S = affine_semigroup(atoms)
    if S.generators != tuple(sorted(atoms)):
        raise ConstructionError("congruence Hilbert basis was not minimal")
    return AffineSemigroup(S.dim, S.generators, system)


def block_monoid(moduli, subset=None) -> AffineSemigroup:
    """Zero-sum sequences over a subset of Z_m1 x ... x Z_mr, as a full semigroup.

    ``subset`` defaults to every nonzero group element, sorted as ``product``
    yields them; it may not contain zero or duplicates.
    """
    mods = as_vector(moduli)
    if not mods or any(m < 2 for m in mods):
        raise ConstructionError("block monoids need moduli >= 2")
    if subset is None:
        _Budget().spend(prod(mods))  # one step per group element listed
        elements = [g for g in product(*(range(m) for m in mods)) if any(g)]
    else:
        elements = [as_vector(g) for g in subset]
        if len(set(elements)) != len(elements):
            raise ConstructionError("subset contains duplicates")
        for g in elements:
            if len(g) != len(mods) or not any(g):
                raise ConstructionError(f"invalid group element {g}")
            if any(c < 0 or c >= m for c, m in zip(g, mods)):
                raise ConstructionError(f"group element {g} out of range")
    # one congruence row per group coordinate; columns are the chosen elements
    rows = [tuple(g[i] for g in elements) for i in range(len(mods))]
    return full_semigroup(rows, mods)


def minimals_principal_ideal(S: AffineSemigroup, gamma) -> tuple[Vector, ...]:
    """Minimal factorization vectors of the shifted ideal gamma + S.

    For a full semigroup, the minimal x with A x >= gamma componentwise, A
    the atom matrix; one without defining congruences raises ``NotFullError``.
    """
    if S.equations is None:
        raise NotFullError("the tame degree needs a full semigroup (defining congruences)")
    g = as_vector(gamma, S.dim)
    if any(c < 0 for c in g) or not S.equations.satisfied_by(g):
        raise NotInSemigroupError(f"{gamma} is not in the semigroup")
    if not any(g):
        return ((0,) * len(S.generators),)
    return minimal_solutions(diophantine_system(S.matrix, Relation.GEQ, rhs=g))


def _shortest(u: Vector, children: list[tuple[int, int]]) -> int:
    """The shortest factorization length of u, 1 + min l(u - a_j) over the
    members u - a_j one atom below it (the rule ``core._settle`` applies).

    u - a_j satisfies the defining congruences whenever u does, so it is a
    member exactly when it is nonnegative; a nonzero u with none below is not.
    """
    if not children:
        if any(u):
            raise NotFullError(f"the equations admit {u}, but no atom lies below it")
        return 0
    return 1 + min(length for _, length in children)


def _tame_i(S: AffineSemigroup, i: int, shortest: dict[Vector, int]) -> int:
    """Tame degree with respect to atom ``i``; ``shortest`` maps each element
    already settled to the length of its shortest factorization."""
    atom = S.generators[i]
    best = 0
    for z in minimals_principal_ideal(S, atom):
        if not z[i]:
            # minimality of z forces its support to be disjoint from every
            # factorization w through the atom, so dist(z, w) is max(|z|, |w|)
            v = vsub(value_of(S, z), atom)
            best = max(best, sum(z), 1 + _settle(S, v, shortest, _shortest, _Budget().spend))
    return best


def tame_i_full(S: AffineSemigroup, atom_index: int) -> int:
    """Tame degree of a full semigroup with respect to one atom (0-based index).

    Minimal shifted-ideal factorizations avoiding the atom pair off against
    the shortest factorization of their value v that uses it; the largest of
    all these lengths is the answer, and 0 means every minimal element
    already factors through the atom.  That shortest length is one more than
    the shortest factorization of v - atom, because w -> w - e_i is a
    bijection from the factorizations of v through the atom onto those of
    v - atom; that one is settled bottom-up, l(u) = 1 + min l(u - a_j) over
    the atoms below u.  Under :func:`~sgfact.errors.step_limit` the frontier
    search and each descent count their own steps.
    """
    if not 0 <= atom_index < len(S.generators):
        raise ConstructionError(f"atom index {atom_index} out of range")
    return _tame_i(S, atom_index, {})


def tame_full(S: AffineSemigroup) -> int:
    """Tame degree of a full semigroup: the largest per-atom tame degree.

    The atoms share one table of shortest factorization lengths, since
    different atoms often shift their candidates onto the same element.
    """
    shortest: dict[Vector, int] = {}
    return max((_tame_i(S, i, shortest) for i in range(len(S.generators))), default=0)
