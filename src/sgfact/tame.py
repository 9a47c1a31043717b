"""Tame degrees of full affine semigroups, and block monoids.

A full semigroup is cut out of N^n by congruences, so membership is a residue
check and the factorization vectors of a shifted ideal gamma + S are exactly
{x : A x >= gamma} with A the atom matrix.  The tame degree with respect to
one atom then reduces to finitely many small computations: the minimal
solutions of A x >= atom that avoid the atom, and for each, the shortest
factorization of its value that uses the atom.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import (
    AffineSemigroup,
    CongruenceSystem,
    Vector,
    affine_semigroup,
    as_matrix,
    as_vector,
    dist,
    factorizations,
    value_of,
)
from .errors import ConstructionError, NotFullError, NotInSemigroupError
from .hilbert import Relation, diophantine_system, hilbert_basis, minimal_solutions


@dataclass(frozen=True)
class FullSemigroupWitness:
    """A semigroup together with the congruence system proving it full.

    The generator list equals the Hilbert basis of the system, which is how
    instances are built (see :func:`full_semigroup` and :func:`block_monoid`).
    """

    semigroup: AffineSemigroup

    @property
    def system(self) -> CongruenceSystem:
        eq = self.semigroup.equations
        if eq is None:
            raise NotFullError("semigroup carries no defining congruences")
        return eq

    def member(self, gamma: Vector) -> bool:
        return all(c >= 0 for c in gamma) and self.system.satisfied_by(gamma)


def full_semigroup(matrix, moduli) -> FullSemigroupWitness:
    """The full semigroup {x in N^n : Bx = 0 (mod moduli)}, atoms via Hilbert basis."""
    rows = as_matrix(matrix)
    mods = as_vector(moduli)
    atoms = hilbert_basis(diophantine_system(rows, Relation.EQ, moduli=mods))
    if not atoms:
        raise ConstructionError("the congruence system admits only the zero solution")
    S = affine_semigroup(atoms, equations=CongruenceSystem(rows, mods))
    if S.generators != tuple(sorted(atoms)):
        raise ConstructionError("congruence Hilbert basis was not minimal")
    return FullSemigroupWitness(S)


def block_monoid(moduli, subset=None) -> FullSemigroupWitness:
    """Zero-sum sequences over a subset of Z_m1 x ... x Z_mr, as a full semigroup.

    ``subset`` defaults to every nonzero group element (sorted); it may not
    contain zero or duplicates.
    """
    mods = as_vector(moduli)
    if not mods or any(m < 2 for m in mods):
        raise ConstructionError("block monoids need moduli >= 2")
    if subset is None:
        elements = sorted(
            g for g in product(*(range(m) for m in mods)) if any(g)
        )
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


def _require_full(F: FullSemigroupWitness) -> AffineSemigroup:
    if F.semigroup.equations is None:
        raise NotFullError("operation requires a full semigroup (defining congruences)")
    return F.semigroup


def minimals_principal_ideal(F: FullSemigroupWitness, gamma) -> tuple[Vector, ...]:
    """Minimal factorization vectors of the shifted ideal gamma + S.

    For a full semigroup these are exactly the minimal x with A x >= gamma
    componentwise, A the atom matrix.
    """
    S = _require_full(F)
    g = as_vector(gamma, S.dim)
    if not F.member(g):
        raise NotInSemigroupError(f"{gamma} is not in the semigroup")
    if not any(g):
        return ((0,) * len(S.generators),)
    return minimal_solutions(diophantine_system(S.matrix, Relation.GEQ, rhs=g))


def tame_i_full(F: FullSemigroupWitness, atom_index: int) -> int:
    """Tame degree of a full semigroup with respect to one atom (0-based index).

    Minimal shifted-ideal factorizations avoiding the atom pair off against
    the shortest factorization of their value that uses it; the largest of
    all these lengths is the answer, and 0 means every minimal element
    already factors through the atom.
    """
    S = _require_full(F)
    k = len(S.generators)
    if not 0 <= atom_index < k:
        raise ConstructionError(f"atom index {atom_index} out of range")
    atom = S.generators[atom_index]
    candidates = [z for z in minimals_principal_ideal(F, atom) if z[atom_index] == 0]
    if not candidates:
        return 0
    best = 0
    for z in candidates:
        value = value_of(S, z)
        with_atom = [w for w in factorizations(S, value) if w[atom_index] > 0]
        if not with_atom:
            raise AssertionError("fullness guarantees a factorization through the atom")
        shortest = min(sum(w) for w in with_atom)
        # minimality of z forces disjoint supports, so distances degenerate
        # to plain lengths; keep the general formula honest in debug runs
        if __debug__:
            for w in with_atom:
                assert all(a == 0 or b == 0 for a, b in zip(z, w))
                assert dist(z, w) == max(sum(z), sum(w))
        best = max(best, sum(z), shortest)
    return best


def tame_full(F: FullSemigroupWitness, *, atom_indices=None) -> int:
    """Tame degree of a full semigroup: the largest per-atom tame degree.

    ``atom_indices`` optionally restricts the computation to those atoms; the
    caller is responsible for the restriction being exhaustive.
    """
    S = _require_full(F)
    indices = range(len(S.generators)) if atom_indices is None else atom_indices
    return max((tame_i_full(F, i) for i in indices), default=0)

