import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgfact import ResourceLimitError, affine_semigroup, delta_of_element, step_limit
from sgfact.core import homogenize
from sgfact.delta import (
    _gap_buckets,
    _homogenized_binomials,
    _lex_delta_basis,
    delta_set_grobner,
    delta_set_hilbert,
)
from sgfact.grobner import (
    BinomialIdealBasis,
    TermOrder,
    binomial,
    buchberger,
    normal_form,
    reduce_basis,
    toric_ideal,
)
from sgfact.hilbert import _homogenized_graver, primitive_kernel_vectors
from sgfact.presentation import betti_elements

from oracles import (
    cpu_limit,
    delta_bounds,
    random_affine_semigroup,
    random_numerical_semigroup,
    reference_lex_delta_basis,
)


def _chain_state(S) -> tuple[tuple[int, ...], BinomialIdealBasis, dict[int, list]]:
    """Delta set plus the final chain basis and gap buckets (for invariant checks)."""
    result = delta_set_hilbert(S)
    buckets = _gap_buckets(S)
    order = TermOrder.grlex(len(S.generators))
    gens = [b for j in result for b in buckets.get(j, [])] + buckets.get(0, [])
    basis = buchberger(gens, order)
    return result, basis, buckets


class TestHomogenize:
    def test_numerical(self):
        hom = homogenize(affine_semigroup([3, 4, 5]))
        assert hom.generators == ((1, 0), (1, 3), (1, 4), (1, 5))

    def test_affine(self):
        hom = homogenize(affine_semigroup([(1, 0), (0, 1)]))
        assert hom.generators == ((1, 0, 0), (1, 0, 1), (1, 1, 0))

    def test_two_three(self):
        hom = homogenize(affine_semigroup([2, 3]))
        assert hom.generators == ((1, 0), (1, 2), (1, 3))

    def test_matches_construction_from_the_same_generators(self):
        rng = random.Random(16)
        for trial in range(20):
            if trial % 2:
                s = random_affine_semigroup(rng, d=2, k_max=5, entry_max=6)
            else:
                s = random_numerical_semigroup(rng, k_max=5, atom_max=40)
            gens = [(1,) + (0,) * s.dim] + [(1,) + atom for atom in reversed(s.generators)]
            assert homogenize(s) == affine_semigroup(gens)


@pytest.mark.parametrize("method", [delta_set_hilbert, delta_set_grobner])
class TestKnownDeltaSets:
    def test_three_four_five(self, method):
        assert method(affine_semigroup([3, 4, 5])) == (1,)

    def test_two_three(self, method):
        assert method(affine_semigroup([2, 3])) == (1,)

    def test_free_monoid(self, method):
        assert method(affine_semigroup([(1, 0), (0, 1)])) == ()

    def test_half_factorial_affine(self, method):
        assert method(affine_semigroup([(2, 0), (1, 1), (0, 2)])) == ()

    def test_gap_of_six(self, method):
        assert method(affine_semigroup([17, 33, 53, 71])) == (2, 4, 6)

    def test_gap_trapped_pairs_are_found(self, method):
        # regression: the fiber of (102, 92) realizes a gap of 2 and that of
        # (60, 56) a gap of 3 (checked by element enumeration), but only via
        # kernel pairs whose conformal reductions all raise the gap; bucketing
        # plain primitive kernel vectors misses them
        s = affine_semigroup([(0, 1), (4, 8), (5, 2), (6, 5)])
        assert method(s) == (1, 2, 3, 4, 5, 9, 13)

    def test_two_large_atoms(self, method):
        # the only factorization pair of 1000003 * 1000033 is 10^6 atoms
        # apart; a route that searched that fiber one multiplicity at a time
        # would try about 10^6 of them
        with cpu_limit(1):
            assert method(affine_semigroup([1000003, 1000033])) == (30,)


def test_chain_route_extends_by_normal_forms():
    # every gap bucket enters its basis as normal forms, so a bucket of the
    # ideal costs its divisions and no Buchberger pairs; the Graver basis is
    # warm, as after graver_basis or an earlier delta set
    s = affine_semigroup([16, 19, 21, 29, 34])
    _homogenized_graver(s)
    with cpu_limit(0.35):
        assert delta_set_hilbert(s) == (1, 2)
    assert delta_set_grobner(s) == (1, 2)


def _slack_buckets(S) -> dict[int, list]:
    """The gap buckets from the Graver basis of the atom matrix extended by a
    zero-padded length row [1 .. 1 | -1], whose last coordinate is the gap."""
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


class TestGapBuckets:
    @staticmethod
    def _pairs(buckets):
        return {j: sorted((b.plus, b.minus) for b in gens) for j, gens in buckets.items()}

    def test_match_slack_matrix_numerical(self):
        rng = random.Random(4242)
        for _ in range(25):
            s = random_numerical_semigroup(rng, k_max=4, atom_max=40)
            assert self._pairs(_gap_buckets(s)) == self._pairs(_slack_buckets(s)), s

    def test_match_slack_matrix_planar(self):
        rng = random.Random(2424)
        for _ in range(25):
            s = random_affine_semigroup(rng, k_max=5, entry_max=6)
            assert self._pairs(_gap_buckets(s)) == self._pairs(_slack_buckets(s)), s


class TestStructure:
    def test_minimum_equals_gcd_and_interval(self):
        rng = random.Random(808)
        for _ in range(10):
            s = random_numerical_semigroup(rng, atom_max=40)
            delta = delta_set_grobner(s)
            if not delta:
                continue
            lowest = delta[0]
            assert lowest == gcd(*delta) if len(delta) > 1 else True
            assert all(v % lowest == 0 for v in delta)
            bounds = delta_bounds(s)
            assert bounds == (delta[0], delta[-1])

    def test_element_deltas_are_contained(self):
        s = affine_semigroup([17, 33, 53, 71])
        delta = set(delta_set_hilbert(s))
        seen = set()
        for gamma in range(350):
            seen.update(delta_of_element(s, gamma))
        assert seen <= delta

    def test_chain_absorbs_all_smaller_gaps(self):
        # once the chain basis is complete, every bucketed generator with gap
        # inside the delta range reduces to zero
        for gens in ([3, 4, 5], [17, 33, 53, 71], [10, 13, 17, 19]):
            s = affine_semigroup(gens)
            result, basis, buckets = _chain_state(s)
            top = max(result)
            for j, gens_j in buckets.items():
                if j <= top:
                    for b in gens_j:
                        assert normal_form(b, basis).is_zero

    def test_homogenized_basis_shape(self):
        # members carrying the homogenizing variable carry it on one side only
        from sgfact.grobner import TermOrder, binomial, buchberger, reduce_basis
        from sgfact.presentation import minimal_presentation

        s = affine_semigroup([17, 33, 53, 71])
        hom = homogenize(s)
        order = TermOrder.lex(len(hom.generators))
        gens = [binomial(z, w, order) for z, w in minimal_presentation(hom)]
        basis = reduce_basis(buchberger(gens, order))
        exponents = set()
        for b in basis.binomials:
            if b.plus[0] > 0:
                assert b.minus[0] == 0
                exponents.add(b.plus[0])
        assert tuple(sorted(exponents)) == delta_set_grobner(s)


NAMED = (
    [3, 4, 5],
    [2, 3],
    [17, 33, 53, 71],
    [10, 13, 17, 19],
    [(2, 0), (1, 1), (0, 2)],
    [(0, 1), (4, 8), (5, 2), (6, 5)],
)


class TestLexDeltaBasis:
    """The homogenization route's lex basis, against a saturation of the homogenized lattice."""

    def test_matches_reference_gap_of_six(self):
        s = affine_semigroup([17, 33, 53, 71])
        assert _lex_delta_basis(s) == reference_lex_delta_basis(s)

    def test_matches_reference_random(self):
        rng = random.Random(41)
        for i in range(40):
            if i % 2:
                s = random_affine_semigroup(rng, k_max=5, entry_max=6)
            else:
                s = random_numerical_semigroup(rng, k_max=4, atom_max=40)
            assert _lex_delta_basis(s).binomials == reference_lex_delta_basis(s).binomials, s

    def test_matches_reduced_homogenized_graver_basis(self):
        # the Graver basis of homogenize(S) contains a universal Groebner basis
        # of its toric ideal (Sturmfels, Groebner Bases and Convex Polytopes,
        # ch. 4 and 7), so reducing it under lex needs no Buchberger run; it
        # comes from project-and-lift, not from saturation
        rng = random.Random(20)
        instances = [random_numerical_semigroup(rng, k_max=4, atom_max=40) for _ in range(25)]
        instances += [random_affine_semigroup(rng, k_max=5, entry_max=6) for _ in range(15)]
        instances += [random_affine_semigroup(rng, d=3, k_max=5, entry_max=4) for _ in range(10)]
        for s in instances:
            order = TermOrder.lex(len(s.generators) + 1)
            graver = [
                binomial(tuple(max(c, 0) for c in v), tuple(max(-c, 0) for c in v), order)
                for v in _homogenized_graver(s)
            ]
            expected = reduce_basis(BinomialIdealBasis(graver, order))
            assert _lex_delta_basis(s).binomials == expected.binomials, s

    @pytest.mark.parametrize("gens", NAMED, ids=str)
    def test_toric_ideal_is_graded(self, gens):
        # the side that takes x_0 is the lighter one only under a graded order
        s = affine_semigroup(gens)
        assert toric_ideal(s).order == TermOrder.grlex(len(s.generators))

    @pytest.mark.parametrize("gens", NAMED, ids=str)
    def test_homogenized_binomials_lie_in_homogenized_ideal(self, gens):
        s = affine_semigroup(gens)
        ideal = toric_ideal(homogenize(s))
        gens_h = _homogenized_binomials(s, TermOrder.lex(len(s.generators) + 1))
        assert len(gens_h) == len(toric_ideal(s).binomials)
        for b in gens_h:
            assert min(b.plus + b.minus) >= 0, b
            assert normal_form(binomial(b.plus, b.minus, ideal.order), ideal).is_zero, b

    def test_step_budget(self):
        # 20 steps stop the saturations behind the grlex basis of S, and 40,
        # which they fit in, stop the lex completion
        s = affine_semigroup([17, 33, 53, 71])
        for n in (20, 40):
            with step_limit(n), pytest.raises(ResourceLimitError):
                delta_set_grobner(s)
        with step_limit(10**6):
            assert delta_set_grobner(s) == (2, 4, 6)


class TestMethodAgreement:
    def test_largest_gap_is_reached_at_a_betti_element(self):
        # the maximum of the delta set is the largest delta of a Betti element
        # (Chapman, Garcia-Sanchez, Llena, Malyshev and Steinberg, "On the delta
        # set and the Betti elements of a BF-monoid", Arab. J. Math. 2012), so
        # both routes must agree with the fibers at the Betti elements
        rng = random.Random(11)
        instances = [random_numerical_semigroup(rng, k_max=4, atom_max=40) for _ in range(20)]
        instances += [random_affine_semigroup(rng, k_max=5, entry_max=6) for _ in range(20)]
        for s in instances:
            betti = max((max(delta_of_element(s, b), default=0) for b in betti_elements(s)), default=0)
            assert max(delta_set_grobner(s), default=0) == max(delta_set_hilbert(s), default=0) == betti, s

    def test_random_numerical(self):
        rng = random.Random(20250810)
        for _ in range(12):
            s = random_numerical_semigroup(rng, atom_max=45)
            assert delta_set_hilbert(s) == delta_set_grobner(s)

    def test_random_affine(self):
        rng = random.Random(31337)
        for _ in range(8):
            s = random_affine_semigroup(rng)
            assert delta_set_hilbert(s) == delta_set_grobner(s)

    @given(st.lists(st.integers(2, 30), min_size=2, max_size=4, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_property_numerical(self, atoms):
        s = affine_semigroup(atoms)
        assert delta_set_hilbert(s) == delta_set_grobner(s)

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(any), min_size=2, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_property_planar(self, gens):
        s = affine_semigroup(gens)
        assert delta_set_hilbert(s) == delta_set_grobner(s)
