import random

import pytest
from hypothesis import assume, given, settings, target
from hypothesis import strategies as st

from sgfact import (
    ConstructionError,
    NotInSemigroupError,
    ResourceLimitError,
    UnsupportedDimensionError,
    affine_semigroup,
    dist,
    factorizations,
    length_set,
    step_limit,
)
from sgfact import catenary
from sgfact.catenary import (
    _W,
    WeightedTree,
    _disjoint_pairs,
    _kruskal,
    _unpack,
    catenary_dynamic,
    catenary_naive,
    catenary_range,
    mwst,
)
from sgfact.core import as_vector, contains, value_of, vsub

from oracles import cpu_limit, random_numerical_semigroup, reference_spanning_tree


@pytest.fixture(scope="module")
def s_11_36_39():
    return affine_semigroup([11, 36, 39])


class TestNaive:
    def test_known_values(self, s_11_36_39):
        assert catenary_naive(s_11_36_39, 450) == 16
        assert catenary_naive(s_11_36_39, 351) == 16

    def test_unique_factorization_gives_zero(self):
        assert catenary_naive(affine_semigroup([3, 4, 5]), 3) == 0

    def test_rejects_non_members(self):
        with pytest.raises(NotInSemigroupError):
            catenary_naive(affine_semigroup([3, 4, 5]), 2)

    def test_bottleneck_independent_of_tie_order(self, s_11_36_39):
        # shuffle equal-weight edges by hand: the admitted tree may differ,
        # its extreme weight may not
        import itertools

        fiber = factorizations(s_11_36_39, 450)
        edges = sorted(
            (dist(fiber[i], fiber[j]), i, j)
            for i, j in itertools.combinations(range(len(fiber)), 2)
        )
        rng = random.Random(0)

        reference = _kruskal(len(fiber), edges)[-1][0]
        for _ in range(5):
            groups = {}
            for e in edges:
                groups.setdefault(e[0], []).append(e)
            shuffled = []
            for w in sorted(groups):
                batch = groups[w][:]
                rng.shuffle(batch)
                shuffled.extend(batch)
            assert _kruskal(len(fiber), shuffled)[-1][0] == reference


class TestTrees:
    def test_two_vertex_tree(self):
        tree = mwst(affine_semigroup([3, 4, 5]), 8)
        assert tree.vertices == ((0, 2, 0), (1, 0, 1))
        assert tree.edges == ((2, (0, 2, 0), (1, 0, 1)),)

    def test_single_vertex_tree(self):
        tree = mwst(affine_semigroup([3, 4, 5]), 3)
        assert tree.vertices == ((1, 0, 0),)
        assert tree.edges == ()

    def test_zero_element(self):
        tree = mwst(affine_semigroup([3, 4, 5]), 0)
        assert tree == WeightedTree(((0, 0, 0),), ())

    def test_heaviest_edge_is_a_kernel_pair_translate(self, s_11_36_39):
        tree = mwst(s_11_36_39, 450)
        assert tree.bottleneck == 16
        heavy = [e for e in tree.edges if e[0] == 16]
        assert len(heavy) == 1
        _, a, b = heavy[0]
        shared = tuple(min(x, y) for x, y in zip(a, b))
        stripped = {
            tuple(x - s for x, s in zip(a, shared)),
            tuple(x - s for x, s in zip(b, shared)),
        }
        assert stripped == {(9, 7, 0), (0, 0, 9)}

    def test_structure_and_vertex_recovery(self, s_11_36_39):
        memo = {}
        for gamma in (88, 150, 351, 450):
            tree = mwst(s_11_36_39, gamma, memo)
            fiber = factorizations(s_11_36_39, gamma)
            assert tree.vertices == fiber
            assert len(tree.edges) == len(tree.vertices) - 1
            # edges recompute to their stored weight and recover the vertices
            endpoints = set()
            for w, a, b in tree.edges:
                assert dist(a, b) == w
                endpoints.update((a, b))
            if len(fiber) >= 2:
                assert tuple(sorted(endpoints)) == fiber

    def test_shift_preserves_weights(self, s_11_36_39):
        # the memo keeps trees built from shifted children: every index edge
        # still carries the distance of the vertices it names
        memo = {}
        mwst(s_11_36_39, 450, memo)
        for tree in filter(None, memo.values()):
            codes, _, _, edges = tree
            for w, i, j in edges:
                assert i < j and dist(_unpack(codes[i], 3), _unpack(codes[j], 3)) == w

    @pytest.mark.parametrize(
        "gens, elements",
        [([11, 36, 39], [450, 351]), ([(2, 0), (1, 1), (0, 2)], [(8, 4), (6, 6)])],
    )
    def test_carried_lengths_and_supports(self, gens, elements):
        s = affine_semigroup(gens)
        memo = {}
        for gamma in elements:
            mwst(s, gamma, memo)
        k = len(s.generators)
        for tree in filter(None, memo.values()):
            codes, lengths, masks, _ = tree
            for code, length, mask in zip(codes, lengths, masks):
                z = _unpack(code, k)
                assert length == sum(z)
                assert mask == sum(1 << i for i, c in enumerate(z) if c)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_tree_is_the_strict_order_kruskal_tree(self, data):
        # under (weight, lower, upper) order the minimum spanning tree is
        # unique, and the dynamic edge sources contain it
        d = data.draw(st.integers(1, 3))
        vectors = st.tuples(*[st.integers(0, 12 if d == 1 else 4)] * d).filter(any)
        s = affine_semigroup(data.draw(st.lists(vectors, min_size=2, max_size=5, unique=True)))
        counts = st.tuples(*[st.integers(1, 5)] * len(s.generators))
        gamma = value_of(s, data.draw(counts))
        fiber = factorizations(s, gamma)
        assume(2 <= len(fiber) <= 150)
        target(len(fiber))  # steer towards large fibers
        assert mwst(s, gamma).edges == reference_spanning_tree(fiber)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_tree_in_a_shared_memo_is_the_strict_order_tree(self, data):
        # the trees settled below a query, relabeled like the one it returns
        # and read back by later queries, are each the unique tree of their fiber
        d = data.draw(st.integers(1, 3))
        vectors = st.tuples(*[st.integers(0, 12 if d == 1 else 4)] * d).filter(any)
        s = affine_semigroup(data.draw(st.lists(vectors, min_size=2, max_size=5, unique=True)))
        counts = st.tuples(*[st.integers(1, 4)] * len(s.generators))
        queries = [value_of(s, z) for z in data.draw(st.lists(counts, min_size=2, max_size=4))]
        memo = {}
        with step_limit(100_000):
            sizes = [len(factorizations(s, gamma)) for gamma in queries]
            # a fiber below a query is no larger than the query's
            assume(max(sizes) <= 40)
            target(max(sizes))  # steer towards large fibers
            for gamma in queries:
                mwst(s, gamma, memo)
        assume(len(memo) <= 1_000)  # each entry costs the oracle its whole fiber
        k = len(s.generators)
        for element, tree in memo.items():
            if tree is not None:
                codes, _, _, edges = tree
                vertices = [_unpack(code, k) for code in codes]
                decoded = tuple((w, vertices[a], vertices[b]) for w, a, b in edges)
                assert decoded == reference_spanning_tree(factorizations(s, element))

    @pytest.mark.parametrize(
        "gens, gamma, children",
        [
            # a lone child 0 is gamma - a_0 = n * a_0, one vertex: any other
            # atom in its fiber would make gamma minus that atom a member
            ([7, 10, 13], 14, [0]),
            ([7, 10, 13], 23, [1, 2]),  # 16 is a gap
            ([7, 10, 13], 20, [0, 1, 2]),
            ([7, 10, 13], 100, [0, 1, 2]),  # each child has tree edges
            # each child has tree edges, the lowest being child 1
            ([(0, 0, 1), (2, 0, 0), (0, 2, 0), (1, 1, 0)], (4, 4, 0), [1, 2, 3]),
        ],
    )
    def test_child_layouts(self, gens, gamma, children):
        s = affine_semigroup(gens)
        g = as_vector(gamma, s.dim)
        below = [vsub(g, a) for a in s.generators]
        assert [i for i, u in enumerate(below) if min(u) >= 0 and contains(s, u)] == children
        assert mwst(s, gamma).edges == reference_spanning_tree(factorizations(s, gamma))

    def test_pairing_skips_factorizations_of_full_support(self):
        # a factorization using every atom has no disjoint partner, and most
        # vertices of a catenary sweep are such; the pairing reads no length
        # of theirs: 3 reads here, 503 without the skip
        class CountingList(list):
            reads = 0

            def __getitem__(self, i):
                CountingList.reads += 1
                return super().__getitem__(i)

        lengths = CountingList([6] * 500 + [2, 3, 4])
        edges = _disjoint_pairs(lengths, [0b111] * 500 + [0b001, 0b010, 0b110], 3)
        assert edges == [(3, 500, 501), (4, 500, 502)]
        assert CountingList.reads == 3

    def test_rejects_non_members(self):
        with pytest.raises(NotInSemigroupError):
            mwst(affine_semigroup([3, 4, 5]), 2)


def _pack(z):
    """The vertex code of a factorization: coordinate i in field k - 1 - i."""
    return sum(c << (_W * (len(z) - 1 - i)) for i, c in enumerate(z))


class TestPacked:
    def test_round_trip_at_the_largest_coefficient(self):
        for z in [(1, 2**62 - 1, 1), (2**62 - 1, 1, 2**62 - 1, 0), (1, 0, 2**62 - 1)]:
            assert _unpack(_pack(z), len(z)) == z

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_code_order_is_tuple_order(self, data):
        k = data.draw(st.integers(1, 4))
        coefficients = st.integers(0, 2**62 - 1)
        vectors = data.draw(st.lists(st.tuples(*[coefficients] * k), min_size=2, max_size=8))
        assert sorted(vectors, key=_pack) == sorted(vectors)
        assert [_unpack(_pack(z), k) for z in vectors] == vectors

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_tree_spans_the_fiber_in_dimensions_one_to_three(self, data):
        d = data.draw(st.integers(1, 3))
        vectors = st.tuples(*[st.integers(0, 9 if d == 1 else 5)] * d).filter(any)
        # more atoms than dimensions, so that some fibers have two or more vertices
        atoms = st.lists(vectors, min_size=d + 1, max_size=d + 3, unique=True)
        s = affine_semigroup(data.draw(atoms))
        counts = st.tuples(*[st.integers(1, 3)] * len(s.generators))
        gamma = value_of(s, data.draw(counts))
        fiber = factorizations(s, gamma)
        assume(len(fiber) >= 2)
        target(len(fiber))  # steer towards large fibers
        tree = mwst(s, gamma)
        assert tree.vertices == fiber
        assert len(tree.edges) == len(tree.vertices) - 1
        for w, a, b in tree.edges:
            assert a < b and dist(a, b) == w
        assert tree.bottleneck == catenary_naive(s, gamma)


class TestDynamic:
    def test_known_values(self, s_11_36_39):
        memo = {}
        assert catenary_dynamic(s_11_36_39, 450, memo) == 16
        assert catenary_dynamic(s_11_36_39, 351, memo) == 16

    def test_zero(self):
        assert catenary_dynamic(affine_semigroup([3, 4, 5]), 0) == 0

    def test_forced_single_edge(self):
        s = affine_semigroup([3, 4, 5])
        assert catenary_dynamic(s, 9) == dist((3, 0, 0), (0, 1, 1)) == 3

    def test_affine_dimension_two(self):
        s = affine_semigroup([(2, 0), (1, 1), (0, 2)])
        memo = {}
        for gamma in [(4, 2), (6, 6), (5, 3), (8, 4)]:
            assert catenary_dynamic(s, gamma, memo) == catenary_naive(s, gamma)

    def test_matches_naive_on_random_semigroups(self):
        rng = random.Random(2024)
        for _ in range(6):
            s = random_numerical_semigroup(rng, atom_max=50)
            memo = {}
            checked = 0
            gamma = 0
            while checked < 25:
                gamma += 1
                facts = factorizations(s, gamma)
                if not facts:
                    continue
                assert catenary_dynamic(s, gamma, memo) == catenary_naive(s, gamma)
                checked += 1

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_shared_memo_matches_naive_in_dimensions_two_and_three(self, data):
        d = data.draw(st.sampled_from([2, 3]))
        vectors = st.tuples(*[st.integers(0, 5)] * d).filter(any)
        s = affine_semigroup(data.draw(st.lists(vectors, min_size=2, max_size=5)))
        counts = st.tuples(*[st.integers(0, 3)] * len(s.generators))
        memo = {}
        for z in data.draw(st.lists(counts, min_size=1, max_size=10)):
            gamma = value_of(s, z)
            assert catenary_dynamic(s, gamma, memo) == catenary_naive(s, gamma)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_length_set_brackets_the_catenary_degree(self, data):
        # when |Z(n)| >= 2, 2 + max Delta(L(n)) <= c(n) <= max L(n) (Geroldinger
        # and Halter-Koch, Non-Unique Factorizations, 2006, section 1.6).  Above:
        # one step joins any z and w, at distance at most max(|z|, |w|).  Below:
        # a chain from length l to the next length l + d has a step z -> w with
        # |z| <= l < l + d <= |w|.  Cancel gcd(z, w) to z', w': then |w'| - |z'|
        # >= d, and |z'| >= 2, as an atom has no other factorization, so the
        # step is at least d + 2.  One memo serves every element of a case
        d = data.draw(st.integers(1, 3))
        vectors = st.tuples(*[st.integers(0, 30 if d == 1 else 5)] * d).filter(any)
        # more atoms than dimensions, so that some fibers have two or more vertices
        atoms = st.lists(vectors, min_size=d + 1, max_size=d + 3, unique=True)
        s = affine_semigroup(data.draw(atoms))
        counts = st.tuples(*[st.integers(0, 3)] * len(s.generators))
        memo = {}
        for z in data.draw(st.lists(counts, min_size=8, max_size=12)):
            gamma = value_of(s, z)
            with step_limit(100_000):
                if len(factorizations(s, gamma)) < 2:
                    continue
                lengths = length_set(s, gamma)
                degree = catenary_dynamic(s, gamma, memo)
            widest = max((b - a for a, b in zip(lengths, lengths[1:])), default=0)
            assert 2 + widest <= degree <= lengths[-1], (gamma, lengths)


class TestRange:
    def test_free_numerical(self):
        assert catenary_range(affine_semigroup([1]), 10) == [(g, 0) for g in range(11)]

    def test_rejects_higher_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            catenary_range(affine_semigroup([(1, 0), (0, 1)]), 5)

    def test_rejects_elements_beyond_the_field_width(self, monkeypatch):
        # lower the limit the guard reads, so the sweep reaches it at 50
        monkeypatch.setattr(catenary, "_INT_LIMIT", 50)
        with pytest.raises(ConstructionError):
            catenary_range(affine_semigroup([3, 5]), 100)

    def test_final_entry(self, s_11_36_39):
        entries = dict(catenary_range(s_11_36_39, 450))
        assert entries[450] == 16
        assert 1 not in entries  # gaps are skipped

    def test_sweep_to_1000_within_cpu_budget(self):
        # the sweep takes 0.11 s of CPU time (minimum of 7 runs) on a shared
        # 2-core x86-64 host, where a union-find over dicts keyed by packed
        # ints took over 1 s
        s = affine_semigroup([7, 10, 13])
        with cpu_limit(0.9):
            entries = catenary_range(s, 1000)
        assert entries[-1] == (1000, catenary_naive(s, 1000))

    def test_kruskal_gets_only_what_no_earlier_child_covers(self, monkeypatch):
        # a child's tree edge whose ends share the atom of an earlier child is
        # dropped before Kruskal, that child's tree covering it: the sweep hands
        # Kruskal 5,860 edges over 5,747 vertices, 14,989 if every child edge is
        # kept.  No step count sees this work, so only an edge count can pin it
        handed = {"vertices": 0, "edges": 0}
        original = catenary._kruskal

        def kruskal(n, edges):
            handed["vertices"] += n
            handed["edges"] += len(edges)
            return original(n, edges)

        monkeypatch.setattr(catenary, "_kruskal", kruskal)
        catenary_range(affine_semigroup([7, 10, 13]), 300)
        assert handed == {"vertices": 5747, "edges": 5860}

    def test_agrees_with_dynamic_and_naive(self):
        s = affine_semigroup([7, 10, 13])
        entries = catenary_range(s, 120)
        memo = {}
        for gamma, value in entries:
            assert value == catenary_dynamic(s, gamma, memo)
            assert value == catenary_naive(s, gamma)

    def test_sweep_holds_one_window_of_trees(self, monkeypatch):
        # each element recalls trees at most max(atom) below it, and the sweep
        # drops older ones: 14 entries for <7,10,13> to 300, not 301
        held, original = [], catenary._settle

        def settle(S, gamma, memo, rule, spend):
            tree = original(S, gamma, memo, rule, spend)
            held.append(len(memo))
            return tree

        monkeypatch.setattr(catenary, "_settle", settle)
        catenary_range(affine_semigroup([7, 10, 13]), 300)
        assert len(held) == 301
        assert max(held) <= 13 + 1

    @given(st.lists(st.integers(2, 40), min_size=2, max_size=5, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_at_every_member(self, atoms):
        s = affine_semigroup(atoms)
        fibers = [factorizations(s, g) for g in range(151)]
        # the naive oracle is quadratic in the fiber: <5,...,9> would take minutes
        assume(max(map(len, fibers)) <= 200)
        entries = catenary_range(s, 150)
        assert [g for g, _ in entries] == [g for g, fiber in enumerate(fibers) if fiber]
        for gamma, value in entries:
            assert value == catenary_naive(s, gamma)


class TestBudget:
    def test_limit_stops_mwst(self):
        with step_limit(5), pytest.raises(ResourceLimitError):
            mwst(affine_semigroup([3, 5]), 100)

    def test_limit_stops_range(self):
        # one step per element of 0..bound, members and gaps alike
        with step_limit(100), pytest.raises(ResourceLimitError):
            catenary_range(affine_semigroup([3, 5]), 100)

    def test_large_enough_limit_gives_unlimited_output(self, s_11_36_39):
        entries = catenary_range(s_11_36_39, 200)
        tree = mwst(s_11_36_39, 450)
        with step_limit(201):
            assert catenary_range(s_11_36_39, 200) == entries
        with step_limit(451):
            assert mwst(s_11_36_39, 450) == tree

    def test_descent_counts_one_step_per_element(self, s_11_36_39):
        # 450 - s for the 351 members s <= 450 of the semigroup, 450 itself
        # included; a memo that holds 450 settles nothing
        tree = mwst(s_11_36_39, 450)
        with step_limit(351):
            assert mwst(s_11_36_39, 450) == tree
        with step_limit(350), pytest.raises(ResourceLimitError):
            mwst(s_11_36_39, 450)
        memo = {}
        mwst(s_11_36_39, 450, memo)
        with step_limit(0):
            assert mwst(s_11_36_39, 450, memo) == tree

    def test_naive_counts_one_step_per_pair(self):
        # 22 factorizations, 231 pairs; the fiber search itself takes 32 steps
        s = affine_semigroup([3, 5, 7])
        assert len(factorizations(s, 60)) == 22
        with step_limit(231):
            assert catenary_naive(s, 60) == 4
        with step_limit(230), pytest.raises(ResourceLimitError):
            catenary_naive(s, 60)
