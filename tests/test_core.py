import gc
import random
from collections import Counter
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgfact import (
    ConstructionError,
    DimensionMismatchError,
    ResourceLimitError,
    affine_semigroup,
    contains,
    delta_of_element,
    diophantine_system,
    dist,
    factorizations,
    length_set,
    step_limit,
)
from sgfact.core import _dfs_plan, _search, vadd, value_of

from oracles import (
    brute_factorizations,
    cpu_limit,
    decomposes_over,
    numerical_atoms,
    numerical_members,
)


KERNEL_DIM_7 = [(0, 0, 2), (0, 1, 1), (0, 1, 2), (0, 2, 0), (1, 0, 1),
                (1, 1, 0), (1, 1, 1), (2, 0, 0), (2, 1, 0), (3, 0, 0)]


class TestConstruction:
    def test_already_minimal(self):
        s = affine_semigroup([3, 4, 5])
        assert s.generators == ((3,), (4,), (5,))
        assert s.dim == 1

    def test_redundant_generator_dropped(self):
        # 7 = 3 + 4, so it is not an atom
        s = affine_semigroup([3, 4, 5, 7])
        assert s.generators == ((3,), (4,), (5,))

    def test_free_monoid(self):
        s = affine_semigroup([(1, 0), (0, 1)])
        assert s.generators == ((0, 1), (1, 0))

    def test_cascading_reduction(self):
        s = affine_semigroup([2, 4, 6])
        assert s.generators == ((2,),)

    def test_duplicates_collapse(self):
        s = affine_semigroup([5, 5, 7])
        assert s.generators == ((5,), (7,))

    @pytest.mark.parametrize(
        "gens",
        [[], [0], [(0, 0), (1, 0)], [(1, 0), (0, 1, 1)], [(-1, 2)], [2.5], [(1, "2")]],
    )
    def test_rejects_bad_input(self, gens):
        with pytest.raises(ConstructionError):
            affine_semigroup(gens)

    def test_numpy_integers(self):
        # numpy scalars and arrays read as the plain ints they hold
        plain = affine_semigroup([3, 5, 7])
        assert affine_semigroup(np.array([3, 5, 7])) == plain
        assert affine_semigroup([np.int64(3), np.int64(5), np.int64(7)]) == plain
        assert factorizations(plain, np.int64(15)) == factorizations(plain, 15)
        planar = affine_semigroup([(1, 0), (1, 1), (0, 2)])
        assert affine_semigroup(np.array([(1, 0), (1, 1), (0, 2)])) == planar
        assert factorizations(planar, np.array([2, 2])) == factorizations(planar, (2, 2))
        with pytest.raises(ConstructionError):
            affine_semigroup(np.array([2.5]))

    def test_takes_no_equations(self):
        # only tame.full_semigroup records fullness, from the system it solved;
        # 1 is not in <2, 3>, so these congruences do not cut it out
        with pytest.raises(TypeError):
            affine_semigroup([2, 3], equations=diophantine_system([(1,)], moduli=[1]))

    def test_matrix_is_columnwise(self):
        s = affine_semigroup([(1, 2), (3, 4)])
        assert s.matrix == ((1, 3), (2, 4))

    def test_two_large_atoms(self):
        # the atoms and members of <1000003, 1000033>, found without a
        # sieve up to the largest atom
        s = affine_semigroup([1000033, 1000003, 2000036])
        assert s.generators == ((1000003,), (1000033,))
        assert contains(s, 0) and contains(s, 2000036) and contains(s, 3000069)
        assert not contains(s, 30) and not contains(s, 2000035)
        assert factorizations(s, 3000069) == ((1, 2),)

    def test_interval_of_atoms(self):
        # every n in [100, 200) is an atom: no sum of two of them is below 200
        s = affine_semigroup(range(100, 200))
        assert s.generators == tuple((n,) for n in range(100, 200))
        member = numerical_members(range(100, 200), 600)
        assert [contains(s, n) for n in range(601)] == member

    @given(st.lists(st.integers(1, 300), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_numerical_matches_sieve(self, gens):
        # redundant generators included: multiples and sums of drawn ones
        gens = gens + [2 * gens[0], sum(gens[:2])]
        s = affine_semigroup(gens)
        assert s.generators == tuple((a,) for a in numerical_atoms(gens))
        top = 2 * max(gens)
        assert [contains(s, n) for n in range(top + 1)] == numerical_members(gens, top)

    @pytest.mark.parametrize("extra, is_atom", [(50001, False), (40800, True), (200003, False)])
    def test_interval_and_a_large_generator(self, extra, is_atom):
        # n is in <1000, ..., 1019> iff 1000t <= n <= 1019t for some t, so
        # 40800 (between 40 * 1019 and 41 * 1000) is the only new atom
        interval = tuple((n,) for n in range(1000, 1020))
        with cpu_limit(5):
            s = affine_semigroup(list(range(1000, 1020)) + [extra])
            assert contains(s, 40760) and not contains(s, 40761)
        assert s.generators == interval + (((extra,),) if is_atom else ())

    def test_more_atoms_than_the_recursion_limit(self):
        # 1001 + n is an atom for n <= 1000 and 2002, ..., 2101 are sums of
        # two: both search modes go 1,001 positions deep, past Python's
        # default recursion limit of 1,000
        with cpu_limit(10):
            s = affine_semigroup(range(1001, 2102))
            assert length_set(s, 2002) == (2,)
        assert s.generators == tuple((n,) for n in range(1001, 2002))

    def test_clustered_atoms_with_dead_residues(self):
        # residues that pass every weight test yet are no members: a search
        # that forgets them takes minutes here
        gens = [551, 548, 542, 569, 530, 539, 524, 518, 563, 560, 515,
                527, 521, 533, 506, 545, 557, 509, 554, 497, 9800]
        with cpu_limit(5):
            s = affine_semigroup(gens)
            found = [contains(s, n) for n in range(0, 9801, 97)]
        assert s.generators == tuple((a,) for a in numerical_atoms(gens))
        assert found == numerical_members(gens, 9800)[::97]

    @given(
        st.integers(20, 300),
        st.lists(st.integers(0, 30), min_size=2, max_size=12),
        st.integers(2, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_clustered_matches_sieve(self, base, offsets, factor):
        # clustered atoms next to one much larger generator
        gens = [base + o for o in offsets] + [factor * base + offsets[-1]]
        with cpu_limit(5):
            s = affine_semigroup(gens)
            found = [contains(s, n) for n in range(0, max(gens) + 1, 7)]
        assert s.generators == tuple((a,) for a in numerical_atoms(gens))
        assert found == numerical_members(gens, max(gens))[::7]

    @pytest.mark.parametrize(
        "gens",
        [
            [(1, 0), (0, 1), (1, 1), (2, 3)],
            [(2, 0), (0, 3), (1, 1), (3, 1), (4, 2), (2, 2)],
            [(3, 1), (1, 3), (2, 2), (4, 4), (5, 3), (0, 4)],
            [(1, 2), (2, 1), (3, 3), (0, 5), (5, 0), (6, 6), (4, 1)],
        ],
    )
    def test_planar_matches_definition(self, gens):
        s = affine_semigroup(gens)
        distinct = sorted(set(gens))
        atoms = [g for g in distinct if not decomposes_over(g, [h for h in distinct if h != g])]
        assert s.generators == tuple(atoms)
        for gamma in ((x, y) for x in range(9) for y in range(9)):
            assert contains(s, gamma) == decomposes_over(gamma, atoms)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_affine_atoms_match_definition(self, data):
        # construction keeps a generator unless the atoms before it in
        # lexicographic order generate it; the appended multiple and sum of
        # drawn generators are never atoms, the reversed one ties a drawn one
        # in weight, and no input order may change the atoms
        d = data.draw(st.integers(2, 3))
        vector = st.tuples(*[st.integers(0, 5)] * d).filter(any)
        drawn = data.draw(st.lists(vector, min_size=1, max_size=5))
        pick = st.sampled_from(drawn)
        u, v, w = data.draw(pick), data.draw(pick), data.draw(pick)
        gens = drawn + [tuple(2 * x for x in u), vadd(v, w), w[::-1]]
        shuffled = data.draw(st.permutations(gens))
        with cpu_limit(5), step_limit(10_000):
            s = affine_semigroup(shuffled)
            assert affine_semigroup(gens) == s
        distinct = sorted(set(gens))
        atoms = [g for g in distinct if not decomposes_over(g, [h for h in distinct if h != g])]
        assert s.generators == tuple(atoms)


class TestMembership:
    def test_zero_always_contained(self):
        assert contains(affine_semigroup([3, 4, 5]), 0)

    def test_member(self):
        assert contains(affine_semigroup([3, 4, 5]), 8)

    def test_non_member(self):
        assert not contains(affine_semigroup([3, 4, 5]), 2)

    def test_negative_coordinates(self):
        assert not contains(affine_semigroup([(1, 0), (0, 1)]), (-1, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            contains(affine_semigroup([3, 4, 5]), (1, 2))


class TestFactorizations:
    def test_fiber_of_eight(self):
        assert factorizations(affine_semigroup([3, 4, 5]), 8) == ((0, 2, 0), (1, 0, 1))

    def test_zero_has_empty_factorization(self):
        assert factorizations(affine_semigroup([3, 4, 5]), 0) == ((0, 0, 0),)

    def test_non_member_yields_empty(self):
        assert factorizations(affine_semigroup([3, 4, 5]), 2) == ()

    def test_known_pair_in_large_fiber(self):
        s = affine_semigroup([11, 36, 39])
        fiber = factorizations(s, 450)
        assert (6, 2, 8) in fiber and (24, 3, 2) in fiber
        assert fiber == tuple(brute_factorizations(s.generators, 450))

    def test_affine_fiber(self):
        s = affine_semigroup([(1, 0), (1, 1), (0, 2)])
        fiber = factorizations(s, (2, 2))
        assert fiber == tuple(brute_factorizations(s.generators, (2, 2)))
        for z in fiber:
            total = tuple(
                sum(c * g[i] for c, g in zip(z, s.generators)) for i in range(2)
            )
            assert total == (2, 2)

    def test_agrees_with_brute_force_on_random_semigroups(self):
        rng = random.Random(1234)
        for _ in range(20):
            k = rng.randint(2, 5)
            gens = [tuple([rng.randint(2, 50)]) for _ in range(k)]
            s = affine_semigroup(gens)
            gamma = rng.randint(0, 120)
            assert factorizations(s, gamma) == tuple(
                brute_factorizations(s.generators, gamma)
            )

    def test_two_atom_tail_agrees_with_brute_force(self):
        # the search solves its last two planned atoms in closed form: by
        # Cramer's rule when they are independent, as one progression when
        # they are parallel; an injected pair (2u, 3u) of light atoms puts
        # the parallel branch in dimensions 2 and 3 as well
        rng = random.Random(2017)
        branches = Counter()
        for trial in range(400):
            d = rng.randint(1, 3)
            gens = [tuple(rng.randint(0, 6) for _ in range(d)) for _ in range(rng.randint(1, 4))]
            if trial % 2:
                u = tuple(rng.randint(0, 1) for _ in range(d))
                gens += [tuple(2 * x for x in u), tuple(3 * x for x in u)]
            gens = [g for g in gens if any(g)]
            if not gens:
                continue
            s = affine_semigroup(gens)
            if rng.random() < 0.5:
                gamma = tuple(rng.randint(0, 20) for _ in range(d))
            else:
                gamma = value_of(s, tuple(rng.randint(0, 4) for _ in s.generators))
            box = prod(min(c // g for c, g in zip(gamma, atom) if g) + 1 for atom in s.generators)
            if box > 20000:
                continue
            expected = tuple(brute_factorizations(s.generators, gamma))
            assert factorizations(s, gamma) == expected, (s, gamma)
            assert contains(s, gamma) == bool(expected), (s, gamma)
            if len(s.generators) >= 2 and d >= 2:
                branches["parallel" if _dfs_plan(s.generators)[-1] is None else "cramer"] += 1
        assert branches["parallel"] >= 20 and branches["cramer"] >= 50, branches

    def test_enumeration_starts_past_dead_lines(self):
        # a Betti candidate of a semigroup of kernel dimension 7, whose
        # enumerating search comes back to lines it has found to leave
        # nothing; a memo that records one point too many, or records past
        # a factorization, loses members of this fiber
        s = affine_semigroup(KERNEL_DIM_7)
        gamma = (5, 2, 3)
        # 143 steps; a memo that records nothing takes 146
        with step_limit(143):
            fiber = sorted(_search(_dfs_plan(s.generators), gamma))
        assert fiber == brute_factorizations(s.generators, gamma)

    def test_plan_is_a_value(self):
        # a plan holds only what the atoms fix; the dead-line memo is each
        # search's own, so no search, finished or stopped, changes the plan
        s = affine_semigroup(KERNEL_DIM_7)
        plan = _dfs_plan(s.generators)
        assert hash(plan) == hash(_dfs_plan(list(s.generators)))
        assert plan == _dfs_plan(list(s.generators))
        assert _search(plan, (5, 2, 3))
        with step_limit(100), pytest.raises(ResourceLimitError):
            _search(plan, (9, 4, 6))
        assert plan == _dfs_plan(s.generators)

    def test_search_leaves_no_reference_cycle(self):
        # a search frees its dead-line memo, stack and closures when it returns:
        # it leaves nothing for the cyclic collector to find
        gc.collect()
        gc.disable()
        try:
            s = affine_semigroup([17, 33, 53, 71])
            factorizations(s, 2000)
            contains(s, 2001)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestBudget:
    # one step per node of the factorization search and one per factorization
    # its closed-form two-atom tail emits
    def test_limit_stops_factorizations(self):
        # 66,667 factorizations: few enough that a search which stops
        # counting them returns, and the test fails, instead of filling memory
        s = affine_semigroup([3, 5])
        with cpu_limit(5), step_limit(10), pytest.raises(ResourceLimitError):
            factorizations(s, 10**6)

    def test_limit_stops_contains(self):
        # two atoms are solved in one node, but with a third the search tries
        # many multiplicities of the heaviest before the first factorization
        s = affine_semigroup([1000003, 1000033, 1000037])
        with step_limit(10), pytest.raises(ResourceLimitError):
            contains(s, 10**12 + 1)

    def test_tail_counts_each_emitted_factorization(self):
        # the two planned atoms are parallel, so the fiber is one progression
        # found in a single node; only its 166,667 members can use up the
        # budget (an element small enough that an uncounted fiber still fits
        # in memory and the test fails instead)
        s = affine_semigroup([(2, 2), (3, 3)])
        with step_limit(10), pytest.raises(ResourceLimitError):
            factorizations(s, (10**6, 10**6))
        # (12, 12) has three factorizations: one node and three emitted
        with step_limit(4):
            assert factorizations(s, (12, 12)) == ((0, 4), (3, 2), (6, 0))
        with step_limit(3), pytest.raises(ResourceLimitError):
            factorizations(s, (12, 12))

    @pytest.mark.parametrize(
        "gens, gamma",
        [
            ([(0, 2, 2), (0, 2, 8), (0, 6, 2), (0, 10, 4), (1, 0, 0)], (0, 101, 70)),
            ([(0, 2, 2), (0, 2, 8), (0, 6, 2), (0, 10, 4), (1, 0, 0)], (0, 3001, 2000)),
            ([*range(20, 40, 2), 1001], 999),
        ],
    )
    def test_suffix_gcds_end_the_search_at_the_root(self, gens, gamma):
        # the atoms gamma could use have an even gcd in some coordinate where
        # gamma is odd, so the root node is the whole search; without the gcd
        # test the first takes 681 steps, the second 1,032,168, the third 3,169
        s = affine_semigroup(gens)
        with step_limit(1):
            assert not contains(s, gamma)
            assert factorizations(s, gamma) == ()

    def test_large_enough_limit_gives_unlimited_output(self):
        s = affine_semigroup([11, 36, 39])
        fiber = factorizations(s, 450)
        with step_limit(10**6):
            assert factorizations(s, 450) == fiber
            assert contains(s, 450) and not contains(s, 25)


class TestLengthsAndDeltas:
    def test_length_set_of_eight(self):
        assert length_set(affine_semigroup([3, 4, 5]), 8) == (2,)

    def test_length_set_of_zero(self):
        assert length_set(affine_semigroup([3, 4, 5]), 0) == (0,)

    def test_delta_of_eight_is_empty(self):
        assert delta_of_element(affine_semigroup([3, 4, 5]), 8) == ()

    def test_delta_of_nine_and_ten(self):
        s = affine_semigroup([3, 4, 5])
        assert delta_of_element(s, 9) == (1,)
        assert delta_of_element(s, 10) == (1,)

    def test_length_gap_of_six_appears_at_266(self):
        s = affine_semigroup([17, 33, 53, 71])
        lengths = length_set(s, 266)
        gaps = {b - a for a, b in zip(lengths, lengths[1:])}
        assert 6 in gaps
        assert 6 in delta_of_element(s, 283)
        assert 6 in delta_of_element(s, 300)


class TestDistance:
    def test_distance_to_self_is_zero(self):
        assert dist((3, 1, 2), (3, 1, 2)) == 0

    def test_known_weight(self):
        assert dist((9, 7, 0), (0, 0, 9)) == 16

    def test_disjoint_supports(self):
        assert dist((1, 0, 1), (0, 2, 0)) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            dist((1, 2), (1, 2, 3))

    @given(
        st.lists(st.tuples(*[st.integers(0, 9)] * 4), min_size=3, max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_metric_axioms(self, triple):
        z, w, u = triple
        assert dist(z, w) == dist(w, z)
        assert (dist(z, w) == 0) == (z == w)
        assert dist(z, w) <= dist(z, u) + dist(u, w)

    @given(
        st.tuples(*[st.integers(0, 9)] * 4),
        st.tuples(*[st.integers(0, 9)] * 4),
        st.tuples(*[st.integers(0, 9)] * 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_translation_invariance(self, z, w, shift):
        shifted_z = tuple(a + b for a, b in zip(z, shift))
        shifted_w = tuple(a + b for a, b in zip(w, shift))
        assert dist(shifted_z, shifted_w) == dist(z, w)
