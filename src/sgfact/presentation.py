"""Minimal presentations and Betti elements.

A minimal presentation is assembled fiber by fiber: the candidate values are
those of the members of the defining ideal's reduced Groebner basis, which
include every Betti value.  Two factorizations of one value lie in the same
R-class when a chain of factorizations, each sharing an atom with the next,
joins them (Briales, Campillo, Marijuan and Pison, JPAA 1998).  One pass over
the sorted fiber finds the classes from support bitmasks, bit i for atom i as
in :mod:`~sgfact.catenary`; a fiber with c classes contributes c - 1 relations.
"""

from __future__ import annotations

from .core import AffineSemigroup, Vector, factorizations, value_of
from .grobner import toric_ideal

Pair = tuple[Vector, Vector]


def _betti_candidates(S: AffineSemigroup) -> list[Vector]:
    # every homogeneous binomial generating set has a member at each Betti value
    ideal = toric_ideal(S)
    return sorted({value_of(S, b.plus) for b in ideal.binomials})


def _class_minima(fiber: tuple[Vector, ...]) -> list[Vector]:
    """The least member of each R-class of a sorted fiber, in ascending order.

    Each class is kept as (atom bitmask, least member).  A factorization
    merges every class whose atoms it shares, so the masks stay pairwise
    disjoint; the fiber is sorted, so the least of the merged leasts is the
    least member of the merged class.
    """
    classes: list[tuple[int, Vector]] = []
    for z in fiber:
        mask, least, kept = sum(1 << i for i, c in enumerate(z) if c), z, []
        for m, rep in classes:
            if m & mask:  # the masks are disjoint: a grown mask meets only classes z meets
                mask, least = mask | m, min(least, rep)
            else:
                kept.append((m, rep))
        classes = kept + [(mask, least)]
    return sorted(least for _, least in classes)


def minimal_presentation(S: AffineSemigroup) -> tuple[Pair, ...]:
    """An irredundant generating set of the kernel congruence of the semigroup.

    Presentations are not unique; this one is canonical: at every Betti value
    the relations form a star to the lexicographically least factorization
    from the least member of each other R-class.  Each pair has its larger
    side first, and the pairs are sorted.
    """
    relations: list[Pair] = []
    for value in _betti_candidates(S):
        center, *others = _class_minima(factorizations(S, value))
        relations += [(rep, center) for rep in others]
    return tuple(sorted(relations))


def betti_elements(S: AffineSemigroup) -> tuple[Vector, ...]:
    """Values of the relations in a minimal presentation (independent of the choice)."""
    return tuple(sorted({value_of(S, z) for z, _ in minimal_presentation(S)}))
