import random

import pytest

from sgfact import ConstructionError, affine_semigroup, graver_basis, step_limit
from sgfact.delta import _gap_buckets
from sgfact.grobner import (
    ZERO,
    Binomial,
    BinomialIdealBasis,
    TermOrder,
    _divides,
    binomial,
    buchberger,
    buchberger_extend,
    normal_form,
    reduce_basis,
    spair,
    toric_ideal,
)

from oracles import random_affine_semigroup, reference_groebner

LEX3 = TermOrder.lex(3)
# kernel dimension 7, the semigroup of the wide-presentation benchmark
WIDE = [
    (0, 0, 2), (0, 1, 1), (0, 1, 2), (0, 2, 0), (1, 0, 1),
    (1, 1, 0), (1, 1, 1), (2, 0, 0), (2, 1, 0), (3, 0, 0),
]


def _basis(binomials, order=LEX3):
    return BinomialIdealBasis(tuple(binomials), order)


class TestTermOrders:
    def test_lex_prefers_first_variable(self):
        assert TermOrder.lex(2).greater((1, 0), (0, 5))

    def test_grlex_prefers_degree(self):
        assert TermOrder.grlex(2).greater((0, 5), (1, 0))

    def test_revlex_tie_break(self):
        # weighted degree first
        assert TermOrder.revlex((1, 2, 3), 0).greater((0, 0, 1), (2, 0, 0))
        # equal degree: the smaller exponent of x_1 wins, then of x_3, then of x_2
        order = TermOrder.revlex((1, 1, 1, 1), 1)
        assert order.greater((0, 0, 0, 3), (0, 1, 0, 2))
        assert order.greater((3, 0, 0, 0), (0, 0, 0, 3))
        assert order.greater((2, 0, 0, 0), (1, 0, 1, 0))

    def test_revlex_rejects_nonpositive_weight(self):
        with pytest.raises(ConstructionError):
            TermOrder.revlex((1, 0, 2), 1)

    @pytest.mark.parametrize(
        "order", [TermOrder.lex(3), TermOrder.grlex(3), TermOrder.revlex((1, 2, 3), 0)]
    )
    def test_refines_divisibility(self, order):
        rng = random.Random(5)
        for _ in range(100):
            a = tuple(rng.randint(0, 4) for _ in range(3))
            c = tuple(rng.randint(0, 4) for _ in range(3))
            if any(c):
                assert order.greater(tuple(x + y for x, y in zip(a, c)), a)


class TestBinomials:
    def test_degenerate_collapses_to_zero(self):
        assert binomial((1, 2, 0), (1, 2, 0), LEX3) is ZERO

    def test_orientation(self):
        b = binomial((0, 2, 0), (1, 0, 1), LEX3)
        assert b.plus == (1, 0, 1) and b.minus == (0, 2, 0)

    def test_immutable(self):
        b = binomial((1, 0, 0), (0, 1, 0), LEX3)
        with pytest.raises(AttributeError):
            b.plus = (2, 0, 0)

    def test_spair_is_binomial(self):
        f = binomial((2, 0, 0), (0, 1, 1), LEX3)
        g = binomial((1, 1, 0), (0, 0, 2), LEX3)
        s = spair(f, g, LEX3)
        assert isinstance(s, Binomial) and not s.is_zero


class TestNormalForm:
    def test_self_reduction(self):
        g = binomial((3, 0), (0, 2), TermOrder.lex(2))
        assert normal_form(g, _basis([g], TermOrder.lex(2))).is_zero

    def test_known_member_reduces_to_zero(self):
        basis = toric_ideal(affine_semigroup([3, 4, 5]))
        f = binomial((1, 0, 1), (0, 2, 0), basis.order)
        assert normal_form(f, basis).is_zero

    def test_irreducible_passes_through(self):
        order = TermOrder.lex(2)
        g = binomial((3, 0), (0, 2), order)
        f = binomial((1, 0), (0, 1), order)
        assert normal_form(f, _basis([g], order)) == f

    def test_trailing_term_reduced(self):
        order = TermOrder.lex(2)
        g = binomial((1, 0), (0, 1), order)  # x - y
        f = binomial((2, 0), (0, 0), order)  # x^2 - 1
        r = normal_form(f, _basis([g], order))
        assert r == binomial((0, 2), (0, 0), order)  # y^2 - 1
        # a leading term no member divides: only the trailing side is rewritten
        g = binomial((0, 1, 0), (0, 0, 1), LEX3)  # y - z
        f = binomial((1, 0, 0), (0, 1, 0), LEX3)  # x - y
        assert normal_form(f, _basis([g])) == binomial((1, 0, 0), (0, 0, 1), LEX3)  # x - z


class TestBuchberger:
    def test_single_generator_is_complete(self):
        order = TermOrder.lex(2)
        g = binomial((3, 0), (0, 2), order)
        assert buchberger([g], order).binomials == (g,)

    def test_empty_input(self):
        assert buchberger([], LEX3).binomials == ()

    def test_presentation_generators_close_over_graver(self):
        s = affine_semigroup([3, 4, 5])
        order = TermOrder.grlex(3)
        rho = [
            binomial((1, 0, 1), (0, 2, 0), order),
            binomial((2, 1, 0), (0, 0, 2), order),
            binomial((3, 0, 0), (0, 1, 1), order),
        ]
        basis = buchberger(rho, order)
        for z, w in graver_basis(s):
            assert normal_form(binomial(z, w, order), basis).is_zero

    def test_generators_reduce_to_zero(self):
        rng = random.Random(11)
        order = TermOrder.grlex(4)
        gens = []
        for _ in range(4):
            a = tuple(rng.randint(0, 3) for _ in range(4))
            b = tuple(rng.randint(0, 3) for _ in range(4))
            g = binomial(a, b, order)
            if not g.is_zero:
                gens.append(g)
        basis = buchberger(gens, order)
        for g in gens:
            assert normal_form(g, basis).is_zero

    def test_everything_stays_binomial(self):
        order = TermOrder.grlex(3)
        gens = [
            binomial((1, 0, 1), (0, 2, 0), order),
            binomial((3, 0, 0), (0, 1, 1), order),
        ]
        for b in buchberger(gens, order).binomials:
            assert isinstance(b, Binomial) and not b.is_zero

    def test_extension_skips_settled_pairs(self):
        order = TermOrder.grlex(3)
        g1 = binomial((1, 0, 1), (0, 2, 0), order)
        g2 = binomial((3, 0, 0), (0, 1, 1), order)
        whole = reduce_basis(buchberger([g1, g2], order))
        grown = reduce_basis(buchberger_extend(buchberger([g1], order), [g2]))
        assert whole.binomials == grown.binomials

    def test_extension_leaves_the_basis_alone(self):
        order = TermOrder.grlex(3)
        g1 = binomial((1, 0, 1), (0, 2, 0), order)
        g2 = binomial((3, 0, 0), (0, 1, 1), order)
        basis = buchberger([g1], order)
        grown = buchberger_extend(basis, [g2])
        assert basis == _basis([g1], order) != grown
        assert normal_form(g2, basis) == g2 and normal_form(g2, grown).is_zero


class TestAdmission:
    # generators enter the basis as S-pairs do: as normal forms against the
    # members so far, and not at all when that is ZERO
    X2_Y = binomial((2, 0, 0), (0, 1, 0), LEX3)  # x^2 - y
    X3_Z = binomial((3, 0, 0), (0, 0, 1), LEX3)  # x^3 - z

    def test_no_leading_term_divides_a_later_one(self):
        members = buchberger([self.X2_Y, self.X3_Z], LEX3).members
        for i, g in enumerate(members):
            assert not any(_divides(h.plus, g.plus) for h in members[:i]), g

    def test_an_ideal_member_adds_nothing(self):
        basis = buchberger([self.X2_Y, self.X3_Z], LEX3)
        x4_y2 = binomial((4, 0, 0), (0, 2, 0), LEX3)  # (x^2 - y)(x^2 + y)
        assert buchberger_extend(basis, [x4_y2]) == basis


class TestReduceBasis:
    def test_already_reduced(self):
        order = TermOrder.lex(2)
        g = binomial((3, 0), (0, 2), order)
        assert reduce_basis(_basis([g], order)).binomials == (g,)

    def test_multiple_dropped(self):
        order = TermOrder.lex(2)
        g = binomial((3, 0), (0, 2), order)
        h = binomial((4, 0), (1, 2), order)  # y1 * g
        reduced = reduce_basis(buchberger([g, h], order))
        assert reduced.binomials == (g,)

    def test_unique_under_generator_shuffling(self):
        s = affine_semigroup([11, 36, 39])
        order = TermOrder.grlex(3)
        gens = [binomial(z, w, order) for z, w in graver_basis(s)]
        rng = random.Random(3)
        reference = None
        for _ in range(4):
            rng.shuffle(gens)
            reduced = reduce_basis(buchberger(gens, order))
            if reference is None:
                reference = reduced.binomials
            assert reduced.binomials == reference


class TestToricIdeal:
    def test_three_four_five_matches_presentation_ideal(self):
        s = affine_semigroup([3, 4, 5])
        ideal = toric_ideal(s)
        order = ideal.order
        rho = [
            binomial((1, 0, 1), (0, 2, 0), order),
            binomial((2, 1, 0), (0, 0, 2), order),
            binomial((3, 0, 0), (0, 1, 1), order),
        ]
        rho_basis = buchberger(rho, order)
        for b in ideal.binomials:
            assert normal_form(b, rho_basis).is_zero
        for b in rho:
            assert normal_form(b, ideal).is_zero

    def test_two_three(self):
        ideal = toric_ideal(affine_semigroup([2, 3]))
        assert [(b.plus, b.minus) for b in ideal.binomials] == [((3, 0), (0, 2))]

    def test_free_monoid_zero_ideal(self):
        assert toric_ideal(affine_semigroup([(1, 0), (0, 1)])).binomials == ()

    def test_matches_reduced_graver_basis(self):
        # the Graver basis is a universal Groebner basis; it comes from
        # project-and-lift in hilbert.py, not from saturation and Buchberger
        rng = random.Random(29)
        instances = []
        while len(instances) < 20:
            s = affine_semigroup(rng.sample(range(2, 40), rng.randint(3, 5)))
            if len(s.generators) >= 3:
                instances.append(s)
        instances += [random_affine_semigroup(rng, d=rng.randint(2, 3), k_max=5) for _ in range(8)]
        for s in instances:
            order = TermOrder.grlex(len(s.generators))
            graver = [binomial(z, w, order) for z, w in graver_basis(s)]
            expected = reduce_basis(BinomialIdealBasis(tuple(graver), order))
            assert toric_ideal(s).binomials == expected.binomials, s

    @pytest.mark.parametrize("gens", [[2, 3], [3, 4, 5], [(1, 0), (1, 1), (0, 2)]])
    def test_members_are_kernel_relations(self, gens):
        s = affine_semigroup(gens)
        for b in toric_ideal(s).binomials:
            plus_value = [
                sum(c * a[i] for c, a in zip(b.plus, s.generators))
                for i in range(s.dim)
            ]
            minus_value = [
                sum(c * a[i] for c, a in zip(b.minus, s.generators))
                for i in range(s.dim)
            ]
            assert plus_value == minus_value


def _random_ideal(rng):
    nvars = rng.randint(3, 5)
    order = rng.choice(
        [
            TermOrder.lex(nvars),
            TermOrder.grlex(nvars),
            TermOrder.revlex([rng.randint(1, 4) for _ in range(nvars)], rng.randrange(nvars)),
        ]
    )
    gens = []
    for _ in range(rng.randint(2, 5)):
        a = tuple(rng.randint(0, 4) for _ in range(nvars))
        b = tuple(rng.randint(0, 4) for _ in range(nvars))
        gens.append(binomial(a, b, order))
    return gens, order


class TestPairCriteria:
    # the pair criteria and the divisor index must not change the reduced basis
    # that the plain all-pairs loop computes

    def test_random_ideals(self):
        # the seed keeps the reference loop near 2 s; random lex ideals with
        # five variables can take it half a minute
        rng = random.Random(4)
        for _ in range(30):
            gens, order = _random_ideal(rng)
            expected = reference_groebner(gens, order)
            assert reduce_basis(buchberger(gens, order)).binomials == expected, (gens, order)
            # the members of the first run are a settled prefix of the second
            cut = len(gens) // 2
            grown = buchberger_extend(buchberger(gens[:cut], order), gens[cut:])
            assert reduce_basis(grown).binomials == expected, (gens, order, cut)

    @pytest.mark.parametrize("atoms, top", [([3, 4, 5], 1), ([17, 33, 53, 71], 6)])
    def test_chain_ideals(self, atoms, top):
        # the ascending ideals of the delta-set chain route, one per gap up to
        # the largest delta, are not saturated
        s = affine_semigroup(atoms)
        order = TermOrder.grlex(len(s.generators))
        buckets = _gap_buckets(s)
        gens = []
        for j in sorted(buckets):
            if j > top:
                break
            gens += buckets[j]
            expected = reference_groebner(gens, order)
            assert reduce_basis(buchberger(gens, order)).binomials == expected, j

    def test_criteria_m_and_f_prune(self):
        # without the chain criterion the largest Buchberger run of this toric
        # ideal pops 243 pairs; without criteria M and F as well it pops 844
        with step_limit(400):
            toric_ideal(affine_semigroup(WIDE))


class TestBeyondInt64:
    # exponents past the range of the int64 divisor index stay exact
    E = 2**70

    def test_normal_form(self):
        E = self.E
        basis = _basis([binomial((E, 0, 0), (0, 1, 0), LEX3)])
        f = binomial((E + 1, 0, 0), (0, 0, 1), LEX3)
        assert normal_form(f, basis) == binomial((1, 1, 0), (0, 0, 1), LEX3)
        g = binomial((E - 1, 0, 1), (0, 0, 0), LEX3)
        assert normal_form(g, basis) == g

    def test_reduced_basis(self):
        E = self.E
        gens = [binomial((E, 0, 0), (0, 1, 0), LEX3), binomial((0, 0, E), (0, 1, 0), LEX3)]
        reduced = reduce_basis(buchberger(gens, LEX3))
        assert [(b.plus, b.minus) for b in reduced.binomials] == [
            ((0, 1, 0), (0, 0, E)),
            ((E, 0, 0), (0, 0, E)),
        ]
