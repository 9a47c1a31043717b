"""Whole-semigroup delta sets, by two independent routes.

The chain route tracks the ascending ideals generated by kernel binomials
with bounded length gap: a gap value j joins the delta set exactly when the
slack-j generators escape the previous ideal.  The generators come from the
minimal elements of the doubled slack system, which, dropping the trivial
diagonal solutions whose binomials vanish, are exactly the primitive kernel
vectors of the generator matrix bucketed by length gap.

The homogenization route reads the delta set off the exponents of the extra
variable in a reduced lex Groebner basis for the defining ideal of the
length-homogenized semigroup.
"""

from __future__ import annotations

from math import gcd

from .core import AffineSemigroup, affine_semigroup, delta_of_element, value_of
from .errors import ConstructionError
from .grobner import (
    TermOrder,
    binomial,
    buchberger,
    buchberger_extend,
    normal_form,
    reduce_basis,
    toric_ideal,
)
from .hilbert import primitive_kernel_vectors
from .presentation import minimal_presentation


def homogenize(S: AffineSemigroup) -> AffineSemigroup:
    """The semigroup generated by (1,0) and (1, atom) for every atom, one dimension up.

    All generators share first coordinate 1, so they are automatically the
    minimal generating set, and sorting puts the extra generator (1, 0...) first.
    """
    gens = [(1,) + (0,) * S.dim] + [(1,) + atom for atom in S.generators]
    return affine_semigroup(gens)


def _gap_buckets(S: AffineSemigroup) -> dict[int, list]:
    """Generators of the chain ideals, bucketed by length gap.

    These are the nontrivial minimal solutions (z, w, s) of the doubled slack
    system {Az = Aw, |z| - |w| = s}; under (z, w, s) -> (z - w, s) they are
    exactly the primitive kernel vectors of the atom matrix extended by a
    zero-padded length row [1 .. 1 | -1].  The slack coordinate must take
    part in the minimality order: a kernel pair can be conformally reducible
    in the plain kernel only through parts with a larger gap, and such pairs
    are still needed as generators.
    """
    k = len(S.generators)
    order = TermOrder.grlex(k)
    slack_matrix = [row + (0,) for row in S.matrix]
    slack_matrix.append((1,) * k + (-1,))
    buckets: dict[int, list] = {}
    for x in primitive_kernel_vectors(slack_matrix):
        v = x[:k] if x[k] >= 0 else tuple(-c for c in x[:k])
        plus = tuple(c if c > 0 else 0 for c in v)
        minus = tuple(-c if c < 0 else 0 for c in v)
        buckets.setdefault(abs(x[k]), []).append(binomial(plus, minus, order))
    return buckets


def delta_set_hilbert(S: AffineSemigroup) -> tuple[int, ...]:
    """The delta set, by the ascending-chain route.

    Seed with the element-level delta sets at the Betti values (these pin the
    minimum gcd and the maximum); then walk j through the multiples of the
    minimum, adding j whenever some gap-j kernel binomial has a nonzero
    normal form against the current basis.  Half-factorial input (empty seed)
    short-circuits to the empty set.
    """
    presentation = minimal_presentation(S)
    seed: set[int] = set()
    for z, _ in presentation:
        seed.update(delta_of_element(S, value_of(S, z)))
    if not seed:
        return ()
    step = 0
    for value in seed:
        step = gcd(step, value)
    top = max(seed)
    # the gcd itself is the minimum of the delta set even when no Betti value
    # exhibits it directly
    found = set(seed) | {step}
    buckets = _gap_buckets(S)
    order = TermOrder.grlex(len(S.generators))
    basis = buchberger(buckets.get(0, []) + buckets.get(step, []), order)
    for j in range(2 * step, top - step + 1, step):
        gens = buckets.get(j, [])
        if any(not normal_form(b, basis).is_zero for b in gens):
            found.add(j)
            basis = buchberger_extend(basis, gens)
    return tuple(sorted(found))


def delta_set_grobner(S: AffineSemigroup) -> tuple[int, ...]:
    """The delta set, by the homogenization route.

    Take the toric ideal of the homogenized semigroup, complete its binomials
    under lex with the homogenizing variable greatest, reduce, and collect
    the homogenizing exponents of the leading terms that use it.  The reduced
    lex basis does not depend on the generators it starts from.
    """
    hom = homogenize(S)
    ideal = toric_ideal(hom)
    nvars = len(hom.generators)
    order = TermOrder.lex(nvars)  # variable 0 is the homogenizing generator
    gens = [binomial(b.plus, b.minus, order) for b in ideal.binomials]
    basis = reduce_basis(buchberger(gens, order))
    out = set()
    for b in basis.binomials:
        j = b.plus[0]
        if j > 0:
            if b.minus[0] != 0:
                raise ConstructionError(
                    "reduced basis member carries the homogenizing variable on both sides"
                )
            out.add(j)
    return tuple(sorted(out))

