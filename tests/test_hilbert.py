import random
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgfact import (
    ConstructionError,
    Relation,
    ResourceLimitError,
    affine_semigroup,
    diophantine_system,
    graver_basis,
    hilbert_basis,
    integer_kernel_basis,
    minimal_solutions,
    primitive_kernel_vectors,
    step_limit,
)
from sgfact.core import homogenize
from sgfact.hilbert import _homogenized_graver

from oracles import (
    brute_solutions,
    decomposes_over,
    minimal_elements,
    random_affine_semigroup,
    random_numerical_semigroup,
    reference_graver,
)

# the paper's example list for <3,4,5> omits the pure 4/5 relation
# ((0,5,0),(0,0,4)), which is primitive (verified by brute force below)
GRAVER_345 = {
    ((1, 0, 1), (0, 2, 0)),
    ((1, 3, 0), (0, 0, 3)),
    ((2, 1, 0), (0, 0, 2)),
    ((3, 0, 0), (0, 1, 1)),
    ((4, 0, 0), (0, 3, 0)),
    ((5, 0, 0), (0, 0, 3)),
    ((0, 5, 0), (0, 0, 4)),
}


class TestKernelBasis:
    def test_rank_one(self):
        basis = integer_kernel_basis([(2, 3)])
        assert len(basis) == 1
        v = basis[0]
        assert 2 * v[0] + 3 * v[1] == 0 and any(v)

    def test_full_rank_kernel_is_trivial(self):
        assert integer_kernel_basis([(1, 0), (0, 1)]) == []

    def test_spans_kernel_lattice(self):
        # (1,-2,1) is in the kernel and must be an integer combination
        basis = integer_kernel_basis([(3, 4, 5)])
        assert len(basis) == 2
        target = (1, -2, 1)
        hits = [
            (a, b)
            for a, b in product(range(-6, 7), repeat=2)
            if tuple(a * x + b * y for x, y in zip(*basis)) == target
        ]
        assert hits


class TestHilbertBasis:
    def test_only_zero_solution(self):
        assert hilbert_basis(diophantine_system([(1,)])) == ()

    def test_forced_diagonal(self):
        assert hilbert_basis(diophantine_system([(1, -1)])) == ((1, 1),)

    def test_doubled_system_contains_graver_pairs(self):
        basis = hilbert_basis(diophantine_system([(3, 4, 5, -3, -4, -5)]))
        diagonals = {v for v in basis if v[:3] == v[3:]}
        assert diagonals == {
            (1, 0, 0, 1, 0, 0),
            (0, 1, 0, 0, 1, 0),
            (0, 0, 1, 0, 0, 1),
        }
        pairs = set()
        for v in basis:
            z, w = v[:3], v[3:]
            if all(a == 0 or b == 0 for a, b in zip(z, w)) and z != w:
                pairs.add((z, w) if z > w else (w, z))
        assert pairs == GRAVER_345
        assert len(basis) == 3 + 2 * len(GRAVER_345)

    def test_congruence_rows(self):
        # x1 + 2 x2 = 0 mod 3
        basis = hilbert_basis(diophantine_system([(1, 2)], moduli=[3]))
        assert basis == ((0, 3), (1, 1), (3, 0))

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ConstructionError):
            hilbert_basis(diophantine_system([(1, 2)], rhs=[3]))

    def test_rejects_homogeneous_geq(self):
        with pytest.raises(ConstructionError):
            hilbert_basis(diophantine_system([(1, -1)], Relation.GEQ))

    def test_budget_aborts(self):
        with pytest.raises(ResourceLimitError), step_limit(3):
            hilbert_basis(diophantine_system([(17, 33, -53, -71)]))

    def test_guarded_range(self):
        with pytest.raises(ConstructionError):
            hilbert_basis(diophantine_system([(2**41, -1)]))

    @pytest.mark.parametrize("extra", [{"rhs": [1.5]}, {"moduli": [2.5]}, {"moduli": ["3"]}])
    def test_rejects_non_integers(self, extra):
        with pytest.raises(ConstructionError):
            diophantine_system([(1, -1)], **extra)

    @pytest.mark.parametrize(
        "matrix, extra, message",
        [
            ([(1, 2), (1,)], {}, "ragged"),
            ([(1, -1)], {"rhs": [1, 2]}, "right-hand side length"),
            ([(1, 2)], {"relation": Relation.GEQ, "moduli": [3]}, "mutually exclusive"),
            ([(1, 2)], {"moduli": [3, 3]}, "one modulus per row"),
            ([(1, 2)], {"moduli": [-3]}, "nonnegative"),
            ([(1, 2)], {"moduli": [3], "rhs": [1]}, "zero right-hand side"),
        ],
    )
    def test_rejects_malformed_systems(self, matrix, extra, message):
        with pytest.raises(ConstructionError, match=message):
            diophantine_system(matrix, **extra)


class TestSatisfiedBy:
    @pytest.mark.parametrize(
        "matrix, relation, rhs, moduli",
        [
            ([(1, 1, -2)], Relation.EQ, None, None),
            ([(2, -1, 1), (1, 0, -1)], Relation.EQ, [1, 0], None),
            ([(1, 2, 0), (0, 1, -1)], Relation.EQ, None, [3, 0]),
            ([(1, -2, 3), (2, 2, 1)], Relation.EQ, None, [4, 5]),
            ([(1, 2, 3)], Relation.GEQ, [4], None),
            ([(1, -1, 2), (0, 1, -1)], Relation.GEQ, [1, 0], None),
        ],
        ids=["eq", "eq-rhs", "congruence-and-eq", "congruences", "geq", "geq-negative"],
    )
    def test_agrees_with_brute_force(self, matrix, relation, rhs, moduli):
        system = diophantine_system(matrix, relation, rhs, moduli)
        box = [x for x in product(range(4), repeat=3) if any(x)]
        expected = brute_solutions(
            matrix, 3, rhs=rhs, geq=relation is Relation.GEQ, moduli=moduli
        )
        assert [x for x in box if system.satisfied_by(x)] == expected
        assert expected


class TestMinimalSolutions:
    def test_geq_paper_example(self):
        sols = minimal_solutions(diophantine_system([(3, 5, 7)], Relation.GEQ, rhs=[3]))
        assert sols == ((0, 0, 1), (0, 1, 0), (1, 0, 0))

    def test_shifted_fiber_via_doubled_system(self):
        # minimal factorizations of 3 + <3,5,7>: doubled equality system with
        # rhs 3, project to the first block, re-minimalize
        sols = minimal_solutions(
            diophantine_system([(3, 5, 7, -3, -5, -7)], rhs=[3])
        )
        projected = minimal_elements(v[:3] for v in sols if any(v[:3]))
        assert projected == [(0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 0)]

    def test_geq_trivial(self):
        assert minimal_solutions(diophantine_system([(1,)], Relation.GEQ, rhs=[1])) == ((1,),)

    def test_infeasible_returns_empty(self):
        assert minimal_solutions(diophantine_system([(2,)], rhs=[3])) == ()

    def test_rejects_homogeneous(self):
        with pytest.raises(ConstructionError):
            minimal_solutions(diophantine_system([(1, 2)]))

    def test_rejects_negative_geq_matrix(self):
        with pytest.raises(ConstructionError):
            minimal_solutions(diophantine_system([(1, -1)], Relation.GEQ, rhs=[1]))


class TestGraverBasis:
    def test_budget_aborts_and_suffices(self):
        s = affine_semigroup([17, 33, 53, 71])
        with pytest.raises(ResourceLimitError), step_limit(5):
            graver_basis(s)
        with step_limit(10**6):
            assert len(graver_basis(s)) == 182

    def test_guarded_range(self):
        # the Graver basis holds (2**41, 0, 1), outside the guarded range
        with pytest.raises(ConstructionError):
            primitive_kernel_vectors([(1, 1, -(2**41))])

    def test_three_four_five(self):
        assert set(graver_basis(affine_semigroup([3, 4, 5]))) == GRAVER_345

    def test_free_monoid_is_trivial(self):
        assert graver_basis(affine_semigroup([(1, 0), (0, 1)])) == ()

    def test_two_three(self):
        assert graver_basis(affine_semigroup([2, 3])) == (((3, 0), (0, 2)),)

    def test_pairs_are_kernel_pairs_with_disjoint_support(self):
        s = affine_semigroup([11, 36, 39])
        for z, w in graver_basis(s):
            assert sum(c * a[0] for c, a in zip(z, s.generators)) == sum(
                c * a[0] for c, a in zip(w, s.generators)
            )
            assert all(a == 0 or b == 0 for a, b in zip(z, w))
            assert z > w


def _plain_pairs(S):
    """The Graver pairs of S built from a completion of the plain atom matrix."""
    pairs = []
    for v in primitive_kernel_vectors(S.matrix):
        plus = tuple(max(c, 0) for c in v)
        minus = tuple(max(-c, 0) for c in v)
        pairs.append((plus, minus) if plus > minus else (minus, plus))
    return tuple(sorted(pairs))


class TestGraverCache:
    """graver_basis reads the cached homogenized completion, not a plain one."""

    def test_matches_plain_completion(self):
        rng = random.Random(1919)
        instances = [random_numerical_semigroup(rng, k_max=4, atom_max=40) for _ in range(25)]
        instances += [random_affine_semigroup(rng, k_max=5, entry_max=6) for _ in range(25)]
        for s in instances:
            assert graver_basis(s) == _plain_pairs(s), s

    def test_warm_call_spends_no_steps(self):
        s = affine_semigroup([17, 33, 53, 71])
        pairs = graver_basis(s)
        with step_limit(0):
            assert graver_basis(s) == pairs

    def test_aborted_completion_caches_nothing(self):
        s = affine_semigroup([17, 33, 53, 71])
        with pytest.raises(ResourceLimitError), step_limit(5):
            graver_basis(s)
        assert _homogenized_graver.cache_info().currsize == 0
        with step_limit(10**6):
            assert len(graver_basis(s)) == 182

    def test_cache_is_bounded(self):
        for a in range(2, 22):  # 20 distinct semigroups <a, a+1>
            graver_basis(affine_semigroup([a, a + 1]))
        assert _homogenized_graver.cache_info().currsize <= 16


def _check_system(matrix, moduli=None):
    basis = hilbert_basis(diophantine_system(matrix, moduli=moduli))
    for v in basis:
        for i, row in enumerate(matrix):
            value = sum(a * b for a, b in zip(row, v))
            if moduli and moduli[i]:
                assert value % moduli[i] == 0
            else:
                assert value == 0
    # pairwise incomparable
    for v in basis:
        for w in basis:
            if v != w:
                assert not all(a <= b for a, b in zip(v, w))
    bound = max((max(v) for v in basis), default=2) + 1
    solutions = brute_solutions(matrix, bound, moduli=moduli)
    assert minimal_elements(solutions) == sorted(basis)
    # every boxed solution decomposes over the basis
    for x in solutions[:60]:
        assert decomposes_over(x, basis)


class TestAgainstBruteForce:
    def test_random_equality_systems(self):
        rng = random.Random(20250810)
        done = 0
        while done < 12:
            n = rng.randint(2, 5)
            rows = rng.randint(1, 2)
            matrix = [
                tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(rows)
            ]
            if all(all(c >= 0 for c in row) for row in matrix):
                continue  # nonnegative rows force the trivial monoid
            _check_system(matrix)
            done += 1

    def test_random_congruence_systems(self):
        rng = random.Random(99)
        for _ in range(6):
            n = rng.randint(2, 4)
            matrix = [tuple(rng.randint(0, 5) for _ in range(n))]
            _check_system(matrix, moduli=[rng.choice([2, 3, 4])])

    def test_completion_matches_frontier_engine(self):
        rng = random.Random(7)
        for _ in range(15):
            n = rng.randint(2, 5)
            matrix = [tuple(rng.randint(-6, 6) for _ in range(n))]
            frontier = set(hilbert_basis(diophantine_system(matrix)))
            completion = set()
            for v in primitive_kernel_vectors(matrix):
                if all(c >= 0 for c in v):
                    completion.add(v)
                elif all(c <= 0 for c in v):
                    completion.add(tuple(-c for c in v))
            assert frontier == completion


class TestAgainstCompletion:
    """Project-and-lift against the plain completion loop it replaced."""

    def test_random_matrices(self):
        rng = random.Random(1010)
        for _ in range(40):
            n = rng.randint(2, 5)
            matrix = [tuple(rng.randint(-4, 5) for _ in range(n)) for _ in range(rng.randint(1, 2))]
            assert primitive_kernel_vectors(matrix) == reference_graver(matrix), matrix

    def test_homogenized_semigroups(self):
        rng = random.Random(2020)
        instances = [random_numerical_semigroup(rng, k_max=4, atom_max=40) for _ in range(8)]
        instances += [random_affine_semigroup(rng, k_max=5, entry_max=6) for _ in range(8)]
        for s in instances:
            matrix = homogenize(s).matrix
            assert primitive_kernel_vectors(matrix) == reference_graver(matrix), s

    @pytest.mark.parametrize("lift", [False, True], ids=["plain", "homogenized"])
    def test_four_atoms(self, lift):
        s = affine_semigroup([17, 33, 53, 71])
        matrix = (homogenize(s) if lift else s).matrix
        assert primitive_kernel_vectors(matrix) == reference_graver(matrix)


def _systems(n, low, high):
    """One or two rows of n entries in [low, high]."""
    row = st.tuples(*[st.integers(low, high)] * n)
    return st.lists(row, min_size=1, max_size=2)


class TestFrontierAgainstBoxes:
    """Each route into the frontier search against box enumeration.

    Inside a box that holds every vector the engine returns, the minimal
    solutions in the box are exactly the minimal solutions that fit in it.
    """

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_eq_minimal_solutions(self, data):
        # homogenized with the capped column pinned at 1; infeasible gives ()
        n = data.draw(st.integers(1, 3))
        matrix = data.draw(_systems(n, -4, 4))
        rhs = data.draw(st.lists(st.integers(1, 6), min_size=len(matrix), max_size=len(matrix)))
        sols = minimal_solutions(diophantine_system(matrix, rhs=rhs))
        bound = max([6] + [max(v) for v in sols])
        assert list(sols) == minimal_elements(brute_solutions(matrix, bound, rhs=rhs))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_geq_minimal_solutions(self, data):
        # a nonnegative matrix: no coordinate of a minimal solution exceeds max(rhs)
        n = data.draw(st.integers(1, 4))
        matrix = data.draw(_systems(n, 0, 4))
        rhs = data.draw(st.lists(st.integers(1, 7), min_size=len(matrix), max_size=len(matrix)))
        sols = minimal_solutions(diophantine_system(matrix, Relation.GEQ, rhs=rhs))
        expected = minimal_elements(brute_solutions(matrix, max(rhs), rhs=rhs, geq=True))
        assert list(sols) == expected

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_congruence_hilbert_basis(self, data):
        # lcm(moduli) e_i solves every row, so no minimal coordinate exceeds it
        n = data.draw(st.integers(1, 3))
        matrix = data.draw(_systems(n, -5, 5))
        moduli = data.draw(st.lists(st.integers(2, 5), min_size=len(matrix), max_size=len(matrix)))
        basis = hilbert_basis(diophantine_system(matrix, moduli=moduli))
        expected = minimal_elements(brute_solutions(matrix, lcm(*moduli), moduli=moduli))
        assert list(basis) == expected
