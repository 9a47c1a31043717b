"""Whole-semigroup delta sets, by two independent routes.

Both routes read the delta set off the length-homogenized semigroup,
generated by (1, 0) and (1, a) for every atom a (``homogenize``).  Only the
chain route builds it, through the Graver basis of ``homogenize(S)`` that
:mod:`~sgfact.hilbert` caches for each semigroup and that ``graver_basis``
reads too.  A kernel vector (x_0, v) of its matrix is a kernel vector v of
the atom matrix with x_0 = |v-| - |v+|, so the extra coordinate records,
negated, the length gap of the pair of factorizations that v joins.

The chain route extends one grlex basis, from the empty one, by the Graver
binomials of the homogenized semigroup bucketed by that gap, in ascending
order: a gap j joins the delta set exactly when some gap-j binomial escapes
the ideal of the smaller gaps, that is, when its bucket adds a member.

The homogenization route reads the delta set off the exponents of the extra
variable x_0 in the reduced lex basis of the toric ideal of the homogenized
semigroup.  It starts from ``toric_ideal(S)``, the reduced grlex basis of S,
with x_0 on the lighter side of each member: a Groebner basis for a graded
order, homogenized, generates the homogenized ideal (Cox, Little and O'Shea,
ch. 8 §4, Thm 4).
"""

from __future__ import annotations

from .core import AffineSemigroup
from .errors import ConstructionError
from .grobner import BinomialIdealBasis, TermOrder, binomial, buchberger, buchberger_extend, reduce_basis, toric_ideal
from .hilbert import _homogenized_graver, vsplit


def _gap_buckets(S: AffineSemigroup) -> dict[int, list]:
    """Graver vectors of the homogenized semigroup, projected to the atoms and bucketed by gap.

    Each vector (x_0, v) of the cached Graver basis of ``homogenize(S)`` gives
    the binomial of the positive and negative parts of v, with gap |x_0|.  The
    homogenizing coordinate must take part in the minimality order: a kernel
    pair can be conformally reducible in the plain kernel only through parts
    with a larger gap, and such pairs are still needed as generators.  So
    these are the cached vectors themselves, not the plain Graver basis.
    """
    order = TermOrder.grlex(len(S.generators))
    buckets: dict[int, list] = {}
    for x0, *v in _homogenized_graver(S):
        buckets.setdefault(abs(x0), []).append(binomial(*vsplit(v), order))
    return buckets


def delta_set_hilbert(S: AffineSemigroup) -> tuple[int, ...]:
    """The delta set, by the ascending-chain route.

    Start from the empty basis and extend it by every gap bucket in
    ascending order; report a positive gap j when extending by its bucket
    adds a member.  The test is exact at every j > 0:

    1. Before gap j the basis is a Groebner basis of the smaller gaps, and
       gap-j binomials enter it only as nonzero normal forms, that is, when
       they escape its ideal.  A Graver decomposition is conformal in the gap
       too, so the buckets of gap at most j generate the ideal of all pairs
       of factorizations whose lengths differ by at most j.
    2. A binomial x^a - x^b lies in the ideal of a set of moves iff moves
       from the set join a and b inside N^k (Diaconis-Sturmfels, "Algebraic
       algorithms for sampling from conditional distributions", Ann. Statist.
       1998).  So a pair lies in the ideal of the gaps below j iff moves of
       gap below j join it.
    3. If a gap-j pair (a, b) of some element n escapes, no length of n lies
       strictly between |b| and |a|: such a factorization would be joined to
       both a and b.  So j is in the delta set of n.
    4. If j is in the delta set of n through consecutive lengths, no path
       with steps of gap below j crosses the empty interval between them, so
       some gap-j generator escapes.
    """
    basis = BinomialIdealBasis((), TermOrder.grlex(len(S.generators)))
    found = []
    for j, gens in sorted(_gap_buckets(S).items()):
        grown = buchberger_extend(basis, gens)
        if j and len(grown.members) > len(basis.members):
            found.append(j)
        basis = grown
    return tuple(found)


def _homogenized_binomials(S: AffineSemigroup, order: TermOrder) -> list:
    """The grlex basis of S, homogenized as in ``delta_set_grobner``, under ``order``."""
    basis = toric_ideal(S).binomials
    return [binomial((0,) + b.plus, (sum(b.plus) - sum(b.minus),) + b.minus, order) for b in basis]


def _lex_delta_basis(S: AffineSemigroup) -> BinomialIdealBasis:
    """The reduced lex basis, x_0 greatest, of the toric ideal of ``homogenize(S)``."""
    order = TermOrder.lex(len(S.generators) + 1)
    return reduce_basis(buchberger(_homogenized_binomials(S, order), order))


def delta_set_grobner(S: AffineSemigroup) -> tuple[int, ...]:
    """The delta set, by the homogenization route.

    Each member x^u - x^v of the reduced grlex basis of S has |u| >= |v|, as
    grlex is graded by total degree; x_0^(|u| - |v|) goes on the side v.  These
    generate the toric ideal of ``homogenize(S)`` (Cox, Little and O'Shea,
    *Ideals, Varieties, and Algorithms*, ch. 8 §4, Thm 4).  Complete them under
    lex with x_0 greatest, reduce, and collect the x_0 exponents that occur.
    """
    basis = _lex_delta_basis(S).binomials
    if any(b.minus[0] for b in basis):
        raise ConstructionError("reduced basis member carries x_0 on both sides")
    return tuple(sorted({b.plus[0] for b in basis if b.plus[0]}))
