import random

from sgfact import affine_semigroup, contains, graver_basis
from sgfact.core import value_of
from sgfact.grobner import binomial, buchberger, normal_form, toric_ideal
from sgfact.presentation import betti_elements, minimal_presentation

from oracles import cpu_limit, delta_bounds, random_affine_semigroup, reference_presentation

# kernel dimension 7; the relations were recorded from the block-elimination
# engine that toric_ideal replaced
WIDE = affine_semigroup(
    [(0, 0, 2), (0, 1, 1), (0, 1, 2), (0, 2, 0), (1, 0, 1),
     (1, 1, 0), (1, 1, 1), (2, 0, 0), (2, 1, 0), (3, 0, 0)]
)  # fmt: skip
WIDE_PRESENTATION = (
    ((0, 0, 0, 0, 0, 0, 0, 3, 0, 0), (0, 0, 0, 0, 0, 0, 0, 0, 0, 2)),
    ((0, 0, 0, 0, 0, 1, 0, 0, 0, 1), (0, 0, 0, 0, 0, 0, 0, 1, 1, 0)),
    ((0, 0, 0, 0, 0, 1, 0, 2, 0, 0), (0, 0, 0, 0, 0, 0, 0, 0, 1, 1)),
    ((0, 0, 0, 0, 0, 2, 0, 1, 0, 0), (0, 0, 0, 0, 0, 0, 0, 0, 2, 0)),
    ((0, 0, 0, 0, 1, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 0, 1, 1, 0, 0)),
    ((0, 0, 0, 0, 1, 1, 0, 1, 0, 0), (0, 0, 0, 0, 0, 0, 1, 0, 0, 1)),
    ((0, 0, 0, 0, 1, 2, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1, 0, 1, 0)),
    ((0, 0, 0, 1, 0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 1, 0, 0, 1, 0)),
    ((0, 0, 0, 1, 0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 2, 0, 0, 0, 0)),
    ((0, 0, 0, 1, 2, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 2, 0, 0, 0)),
    ((0, 0, 1, 0, 0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 2, 1, 0, 0, 0, 0)),
    ((0, 0, 1, 0, 0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 0, 2, 0, 0, 0)),
    ((0, 0, 1, 0, 0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0, 1, 0, 0, 0)),
    ((0, 1, 0, 0, 0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 0, 1, 1, 0, 0)),
    ((0, 1, 0, 0, 0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1, 1, 0, 0, 0)),
    ((0, 1, 0, 0, 0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 1, 0, 0, 0, 0)),
    ((0, 1, 0, 0, 0, 0, 1, 0, 0, 0), (0, 0, 1, 0, 0, 1, 0, 0, 0, 0)),
    ((0, 1, 0, 0, 0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 1, 0, 0, 0, 0, 0)),
    ((0, 2, 0, 0, 1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0, 1, 0, 0, 0)),
    ((1, 0, 0, 0, 0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 1, 0, 1, 0, 0, 0)),
    ((1, 0, 0, 0, 0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 2, 0, 0, 0, 0, 0)),
    ((1, 0, 0, 0, 0, 0, 1, 0, 0, 0), (0, 0, 1, 0, 1, 0, 0, 0, 0, 0)),
    ((1, 0, 0, 0, 0, 1, 0, 0, 0, 0), (0, 1, 0, 0, 1, 0, 0, 0, 0, 0)),
    ((1, 0, 0, 1, 0, 0, 0, 0, 0, 0), (0, 2, 0, 0, 0, 0, 0, 0, 0, 0)),
    ((1, 2, 0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 2, 0, 0, 0, 0, 0, 0, 0)),
)


def _same_ideal(relations, ideal):
    order = ideal.order
    gens = [binomial(z, w, order) for z, w in relations]
    basis = buchberger(gens, order)
    return all(normal_form(b, basis).is_zero for b in ideal.binomials) and all(
        normal_form(g, ideal).is_zero for g in gens
    )


class TestMinimalPresentation:
    def test_three_four_five_is_the_paper_presentation(self):
        s = affine_semigroup([3, 4, 5])
        assert minimal_presentation(s) == (
            ((1, 0, 1), (0, 2, 0)),
            ((2, 1, 0), (0, 0, 2)),
            ((3, 0, 0), (0, 1, 1)),
        )

    def test_two_three(self):
        assert minimal_presentation(affine_semigroup([2, 3])) == (((3, 0), (0, 2)),)

    def test_free_monoid_has_no_relations(self):
        assert minimal_presentation(affine_semigroup([(1, 0), (0, 1)])) == ()

    def test_kernel_dimension_seven(self):
        assert minimal_presentation(WIDE) == WIDE_PRESENTATION

    def test_relations_are_kernel_pairs(self):
        s = affine_semigroup([11, 36, 39])
        for z, w in minimal_presentation(s):
            assert value_of(s, z) == value_of(s, w)

    def test_generates_the_defining_ideal(self):
        for gens in ([3, 4, 5], [11, 36, 39], [(1, 0), (1, 1), (0, 2)], [2, 3]):
            s = affine_semigroup(gens)
            assert _same_ideal(minimal_presentation(s), toric_ideal(s))

    def test_irredundant(self):
        for gens in ([3, 4, 5], [10, 13, 17, 19]):
            s = affine_semigroup(gens)
            relations = minimal_presentation(s)
            ideal = toric_ideal(s)
            for skip in range(len(relations)):
                rest = relations[:skip] + relations[skip + 1 :]
                assert not _same_ideal(rest, ideal)


class TestAgainstReference:
    def test_random_numerical_and_planar(self):
        # the oracle declines instances with a candidate fiber too large to pair up
        rng = random.Random(30)
        compared = 0
        for trial in range(30):
            if trial % 2:
                s = random_affine_semigroup(rng, d=2, k_max=5, entry_max=6)
            else:
                s = affine_semigroup(rng.sample(range(3, 30), rng.randint(3, 5)))
            expected = reference_presentation(s)
            if expected is not None:
                compared += 1
                assert minimal_presentation(s) == expected, s
        assert compared >= 20


class TestTwoLargeAtoms:
    # the fibers of <1000003, 1000033> are solved in closed form; a search
    # over the multiplicities of one atom would try about 10^6 of them
    S = affine_semigroup([1000003, 1000033])

    def test_presentation_and_betti_element(self):
        with cpu_limit(0.5):
            assert minimal_presentation(self.S) == (((1000033, 0), (0, 1000003)),)
        with cpu_limit(0.5):
            assert betti_elements(self.S) == ((1000003 * 1000033,),)

    def test_frobenius_number_and_betti_element_membership(self):
        with cpu_limit(0.5):
            assert not contains(self.S, 1000003 * 1000033 - 1000003 - 1000033)
            assert contains(self.S, 1000003 * 1000033)


class TestBettiElements:
    def test_three_four_five(self):
        assert betti_elements(affine_semigroup([3, 4, 5])) == ((8,), (9,), (10,))

    def test_two_three(self):
        assert betti_elements(affine_semigroup([2, 3])) == ((6,),)

    def test_free_monoid(self):
        assert betti_elements(affine_semigroup([(1, 0), (0, 1)])) == ()

    def test_independent_of_candidate_source(self):
        # Graver values are a superset of any binomial generating set's values,
        # so feeding them instead must reproduce the same Betti set
        rng = random.Random(42)
        for _ in range(8):
            gens = rng.sample(range(5, 40), rng.randint(3, 4))
            s = affine_semigroup(gens)
            betti = set(betti_elements(s))
            graver_values = {
                value_of(s, z) for z, _ in graver_basis(s)
            }
            assert betti <= graver_values


class TestDeltaBounds:
    def test_three_four_five(self):
        assert delta_bounds(affine_semigroup([3, 4, 5])) == (1, 1)

    def test_free_monoid_empty(self):
        assert delta_bounds(affine_semigroup([(1, 0), (0, 1)])) is None

    def test_half_factorial_affine(self):
        # (2,0) + (0,2) = 2*(1,1): the only relation is length-balanced
        s = affine_semigroup([(2, 0), (1, 1), (0, 2)])
        assert delta_bounds(s) is None

    def test_bounds_bracket_six(self):
        lower, upper = delta_bounds(affine_semigroup([17, 33, 53, 71]))
        assert lower <= 6 <= upper
        assert 6 % lower == 0
