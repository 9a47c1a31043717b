"""Minimal presentations and Betti elements.

A minimal presentation is assembled fiber by fiber: the candidate values are
those of the members of the defining ideal's reduced Groebner basis, which
include every Betti value.  At each candidate the factorization fiber is
split into components of the shared-support graph; a fiber with c >= 2
components contributes c - 1 star relations.
"""

from __future__ import annotations

from .core import AffineSemigroup, Vector, factorizations, value_of
from .grobner import toric_ideal

Pair = tuple[Vector, Vector]


def _betti_candidates(S: AffineSemigroup) -> list[Vector]:
    # every homogeneous binomial generating set has a member at each Betti value
    ideal = toric_ideal(S)
    return sorted({value_of(S, b.plus) for b in ideal.binomials})


def _support_components(fiber: tuple[Vector, ...]) -> list[list[Vector]]:
    """Partition a fiber by the graph joining factorizations with overlapping support."""
    parent = list(range(len(fiber)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    k = len(fiber[0]) if fiber else 0
    for coord in range(k):
        first = None
        for idx, z in enumerate(fiber):
            if z[coord]:
                if first is None:
                    first = idx
                else:
                    parent[find(idx)] = find(first)
    groups: dict[int, list[Vector]] = {}
    for idx, z in enumerate(fiber):
        groups.setdefault(find(idx), []).append(z)
    return sorted(groups.values(), key=lambda g: min(g))


def minimal_presentation(S: AffineSemigroup) -> tuple[Pair, ...]:
    """An irredundant generating set of the kernel congruence of the semigroup.

    Presentations are not unique; this one is canonical: at every Betti value
    the relations form a star from the lexicographically least factorization
    to the least member of each other support component.  Pairs are oriented
    larger-side-first and sorted.
    """
    relations: list[Pair] = []
    for value in _betti_candidates(S):
        fiber = factorizations(S, value)
        if len(fiber) <= 1:
            continue
        components = _support_components(fiber)
        if len(components) <= 1:
            continue
        center = components[0][0]  # lex-least member of the whole fiber
        for comp in components[1:]:
            rep = min(comp)
            relations.append((rep, center) if rep > center else (center, rep))
    return tuple(sorted(relations))


def betti_elements(S: AffineSemigroup) -> tuple[Vector, ...]:
    """Values of the relations in a minimal presentation (independent of the choice)."""
    return tuple(sorted({value_of(S, z) for z, _ in minimal_presentation(S)}))

