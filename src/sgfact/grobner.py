"""Groebner bases for pure-difference binomial ideals.

Every object in scope is a difference of two monomials with coefficients 1
and -1, so a polynomial is just an ordered pair of exponent vectors and the
whole Buchberger loop closes over that representation: S-pairs and remainders
of binomials are again binomials (or zero).

Binomials are NOT normalized by cancelling a common monomial factor.  That
cancellation is only sound for saturated (toric) ideals; the ascending-chain
ideals used by the delta-set computation are generated by kernel binomials
but are not toric, and cancelling there can silently enlarge them.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .core import AffineSemigroup, Vector, vadd, vsub
from .errors import ConstructionError, ResourceLimitError
from .hilbert import integer_kernel_basis


class OrderKind(Enum):
    LEX = "lex"
    GRLEX = "grlex"
    REVLEX = "revlex"


@dataclass(frozen=True)
class TermOrder:
    """A monomial order on exponent vectors of a fixed number of variables.

    ``priority`` lists variable indices from most to least significant; for
    REVLEX it lists them in tie-break order, where the smaller exponent wins.
    ``weights`` is the positive degree of each variable under REVLEX and
    empty otherwise.
    """

    kind: OrderKind
    nvars: int
    priority: tuple[int, ...]
    weights: tuple[int, ...] = ()

    @staticmethod
    def lex(nvars: int, priority: Sequence[int] | None = None) -> "TermOrder":
        prio = tuple(priority) if priority is not None else tuple(range(nvars))
        if sorted(prio) != list(range(nvars)):
            raise ConstructionError("priority must be a permutation of the variables")
        return TermOrder(OrderKind.LEX, nvars, prio)

    @staticmethod
    def grlex(nvars: int, priority: Sequence[int] | None = None) -> "TermOrder":
        prio = tuple(priority) if priority is not None else tuple(range(nvars))
        if sorted(prio) != list(range(nvars)):
            raise ConstructionError("priority must be a permutation of the variables")
        return TermOrder(OrderKind.GRLEX, nvars, prio)

    @staticmethod
    def revlex(weights: Sequence[int], last: int) -> "TermOrder":
        """Weighted degree, then reverse lex with variable ``last`` the smallest.

        Degree ties go to the smaller exponent of ``last``, then of the other
        variables from the highest index down.
        """
        w = tuple(int(c) for c in weights)
        if any(c <= 0 for c in w):
            raise ConstructionError("revlex weights must be positive")
        if not 0 <= last < len(w):
            raise ConstructionError(f"variable {last} out of range")
        prio = (last,) + tuple(i for i in reversed(range(len(w))) if i != last)
        return TermOrder(OrderKind.REVLEX, len(w), prio, w)

    def key(self, exponent: Vector):
        if self.kind is OrderKind.GRLEX:
            return (sum(exponent), tuple(exponent[i] for i in self.priority))
        if self.kind is OrderKind.REVLEX:
            degree = sum(w * e for w, e in zip(self.weights, exponent))
            return (degree, tuple(-exponent[i] for i in self.priority))
        return tuple(exponent[i] for i in self.priority)

    def greater(self, a: Vector, b: Vector) -> bool:
        return self.key(a) > self.key(b)


class Binomial:
    """y^plus - y^minus with plus strictly greater under the ambient order.

    The degenerate difference y^z - y^z is the shared ZERO value; test with
    ``b.is_zero``.
    """

    __slots__ = ("plus", "minus", "is_zero")

    def __init__(self, plus: Vector, minus: Vector, *, _zero: bool = False):
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "minus", minus)
        object.__setattr__(self, "is_zero", _zero)

    def __setattr__(self, *args):  # immutable
        raise AttributeError("Binomial is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Binomial)
            and self.is_zero == other.is_zero
            and (self.is_zero or (self.plus == other.plus and self.minus == other.minus))
        )

    def __hash__(self):
        return hash((self.is_zero, self.plus, self.minus))

    def __repr__(self):  # pragma: no cover - cosmetic
        if self.is_zero:
            return "Binomial.ZERO"

        def mono(e):
            parts = [f"y{i+1}^{c}" if c > 1 else f"y{i+1}" for i, c in enumerate(e) if c]
            return "*".join(parts) if parts else "1"

        return f"{mono(self.plus)} - {mono(self.minus)}"


ZERO = Binomial((), (), _zero=True)


def binomial(a: Vector, b: Vector, order: TermOrder) -> Binomial:
    """Orient a difference of monomials under the given order, collapsing y^a - y^a."""
    if a == b:
        return ZERO
    return Binomial(a, b) if order.greater(a, b) else Binomial(b, a)


@dataclass(frozen=True)
class BinomialIdealBasis:
    binomials: tuple[Binomial, ...]
    order: TermOrder
    reduced: bool = False


def _divides(a: Vector, b: Vector) -> bool:
    return all(x <= y for x, y in zip(a, b))


def normal_form(f: Binomial, G: BinomialIdealBasis) -> Binomial:
    """Remainder of binomial division of f by the members of G.

    When G is a Groebner basis the result is the canonical normal form and is
    ZERO exactly for members of the ideal; otherwise the remainder is merely
    order-correct.  Both terms are fully reduced.
    """
    if f.is_zero:
        return ZERO
    order = G.order
    members = G.binomials
    plus, minus = f.plus, f.minus
    while True:
        reducer = next((g for g in members if _divides(g.plus, plus)), None)
        if reducer is None:
            break
        plus = vadd(vsub(plus, reducer.plus), reducer.minus)
        if plus == minus:
            return ZERO
        if order.greater(minus, plus):
            plus, minus = minus, plus
    while True:
        reducer = next((g for g in members if _divides(g.plus, minus)), None)
        if reducer is None:
            break
        minus = vadd(vsub(minus, reducer.plus), reducer.minus)
        if plus == minus:
            return ZERO
    return Binomial(plus, minus)


def spair(f: Binomial, g: Binomial, order: TermOrder) -> Binomial:
    """The S-polynomial of two binomials, itself a binomial (or ZERO)."""
    lcm = tuple(max(a, b) for a, b in zip(f.plus, g.plus))
    left = vadd(vsub(lcm, f.plus), f.minus)
    right = vadd(vsub(lcm, g.plus), g.minus)
    return binomial(left, right, order)


def buchberger(
    gens: Iterable[Binomial],
    order: TermOrder,
    *,
    max_steps: int | None = None,
) -> BinomialIdealBasis:
    """A Groebner basis of the ideal generated by pure-difference binomials.

    Normal selection strategy (smallest lcm first, FIFO ties) with the
    coprime-leading-term criterion; every S-pair remainder is a binomial, so
    the loop never leaves the two-term representation.
    """
    return _buchberger_extend([], gens, order, max_steps=max_steps)


def buchberger_extend(
    G: BinomialIdealBasis,
    new_gens: Iterable[Binomial],
    *,
    max_steps: int | None = None,
) -> BinomialIdealBasis:
    """Extend an existing Groebner basis with extra generators (pairs inside G are skipped)."""
    return _buchberger_extend(list(G.binomials), new_gens, G.order, max_steps=max_steps)


def _buchberger_extend(
    prefix: list[Binomial],
    gens: Iterable[Binomial],
    order: TermOrder,
    *,
    max_steps: int | None = None,
) -> BinomialIdealBasis:
    basis: list[Binomial] = list(prefix)
    counter = itertools.count()
    pairs: list[tuple[tuple, int, int, int]] = []

    def push_pairs(idx: int) -> None:
        g = basis[idx]
        for j in range(idx):
            h = basis[j]
            if all(a == 0 or b == 0 for a, b in zip(g.plus, h.plus)):
                continue  # coprime leading terms: S-pair reduces to zero
            lcm = tuple(max(a, b) for a, b in zip(g.plus, h.plus))
            heapq.heappush(pairs, (order.key(lcm), next(counter), idx, j))

    fresh = [b for b in gens if not b.is_zero]
    for b in fresh:
        basis.append(b)
        push_pairs(len(basis) - 1)

    steps = 0
    view = BinomialIdealBasis(tuple(basis), order)
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        steps += 1
        if max_steps is not None and steps > max_steps:
            raise ResourceLimitError(max_steps)
        s = spair(basis[i], basis[j], order)
        if s.is_zero:
            continue
        r = normal_form(s, view)
        if r.is_zero:
            continue
        basis.append(r)
        view = BinomialIdealBasis(tuple(basis), order)
        push_pairs(len(basis) - 1)
    return view


def reduce_basis(G: BinomialIdealBasis) -> BinomialIdealBasis:
    """The unique reduced Groebner basis of the ideal G generates.

    Requires G to be a Groebner basis already: leading terms are minimalized,
    every member is fully reduced against the others, and the result is
    canonically sorted, independent of the input presentation.
    """
    order = G.order
    members = [b for b in G.binomials if not b.is_zero]
    members.sort(key=lambda b: order.key(b.plus))
    minimal: list[Binomial] = []
    for b in members:
        if not any(_divides(m.plus, b.plus) for m in minimal):
            minimal.append(b)
    changed = True
    while changed:
        changed = False
        for i, b in enumerate(minimal):
            others = BinomialIdealBasis(tuple(minimal[:i] + minimal[i + 1 :]), order)
            r = normal_form(b, others)
            if r != b:
                if r.is_zero:
                    del minimal[i]
                else:
                    minimal[i] = r
                changed = True
                break
    minimal.sort(key=lambda b: (order.key(b.plus), order.key(b.minus)))
    return BinomialIdealBasis(tuple(minimal), order, reduced=True)


def toric_ideal(S: AffineSemigroup, *, max_steps: int | None = None) -> BinomialIdealBasis:
    """The reduced graded-lex Groebner basis of the defining ideal of the semigroup.

    Lattice saturation (Sturmfels, *Groebner Bases and Convex Polytopes*,
    1996, ch. 12; Hosten-Sturmfels, "GRIN", IPCO 1995): the binomials of a
    kernel lattice basis generate an ideal whose saturation by the product of
    the variables is the toric ideal.  Saturate one variable at a time: under
    revlex with that variable smallest, a Groebner basis of a homogeneous
    ideal divided by the variable's powers generates the saturation
    (Bayer-Stillman).  Weighting each variable by its atom's coordinate sum
    makes every kernel binomial homogeneous.
    """
    k = len(S.generators)
    weights = [sum(atom) for atom in S.generators]
    pairs = [
        (tuple(max(c, 0) for c in v), tuple(max(-c, 0) for c in v))
        for v in integer_kernel_basis(S.matrix)
    ]
    for i in range(k):
        order = TermOrder.revlex(weights, i)
        basis = buchberger((binomial(a, b, order) for a, b in pairs), order, max_steps=max_steps)
        pairs = []
        for b in reduce_basis(basis).binomials:
            common = tuple(min(b.plus[i], b.minus[i]) if j == i else 0 for j in range(k))
            pairs.append((vsub(b.plus, common), vsub(b.minus, common)))
    order = TermOrder.grlex(k)
    basis = buchberger((binomial(a, b, order) for a, b in pairs), order, max_steps=max_steps)
    return reduce_basis(basis)
