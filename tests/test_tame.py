import json
from itertools import combinations_with_replacement

import pytest

from sgfact import (
    AffineSemigroup,
    NotFullError,
    Relation,
    ResourceLimitError,
    affine_semigroup,
    diophantine_system,
    hilbert_basis,
    step_limit,
)
from sgfact import cli
from sgfact.core import dist, factorizations, value_of
from sgfact.tame import block_monoid, full_semigroup, minimals_principal_ideal, tame_full, tame_i_full

from oracles import cpu_limit, reference_tame_i, tame_of_element

# full semigroups that are not block monoids, as (matrix, moduli)
MIXED = ([[1, -1, 0], [0, 1, -1]], [2, 3])  # tame degree 6
EQUAL = ([[1, 1, -2]], [0])  # x + y = 2z over N; tame degree 2
# tame degree 5; without the |z| term of tame_i_full it comes out 4
LONG_MINIMAL = ([[-1, -1], [3, 0]], [5, 2])
# tame degree 6; without the shortest factorization through the atom it comes
# out 5, and with the longest one instead 7
SHORTEST_THROUGH_ATOM = ([[2, 3, 1]], [5])


def _largest_element_tame(gens, max_atoms):
    """The largest element tame degree over every sum of at most ``max_atoms`` atoms."""
    elements = {
        tuple(map(sum, zip(*atoms)))
        for r in range(1, max_atoms + 1)
        for atoms in combinations_with_replacement(gens, r)
    }
    return max(tame_of_element(gens, gamma) for gamma in elements)


def test_witness_without_congruences_is_not_full():
    with pytest.raises(NotFullError):
        tame_full(affine_semigroup([2, 3]))


@pytest.mark.parametrize("moduli, expected", [((3,), 3), ((2, 2), 3), ((4,), 4)])
def test_block_monoid_matches_definition(moduli, expected):
    # C3, C2^2 and C4; every element that is a sum of at most 4 atoms
    S = block_monoid(moduli)
    assert tame_full(S) == expected
    assert _largest_element_tame(S.generators, 4) == expected


@pytest.mark.parametrize(
    "system, expected, max_atoms",
    [
        # sums of at most 4 atoms reach only 4 here, so the sweep needs 6
        (MIXED, 6, 6),
        (EQUAL, 2, 4),
        (LONG_MINIMAL, 5, 3),
        (SHORTEST_THROUGH_ATOM, 6, 4),
    ],
)
def test_full_semigroup_matches_definition(system, expected, max_atoms):
    S = full_semigroup(*system)
    assert tame_full(S) == expected
    assert _largest_element_tame(S.generators, max_atoms) == expected


FULL_SEMIGROUPS = [
    pytest.param(block_monoid, [(3,)], id="C3"),
    pytest.param(block_monoid, [(2, 2)], id="C2^2"),
    pytest.param(block_monoid, [(4,)], id="C4"),
    pytest.param(block_monoid, [(5,)], id="C5"),
    pytest.param(full_semigroup, MIXED, id="mixed"),
    pytest.param(full_semigroup, EQUAL, id="equal"),
    pytest.param(full_semigroup, LONG_MINIMAL, id="long-minimal"),
    pytest.param(full_semigroup, SHORTEST_THROUGH_ATOM, id="shortest-through-atom"),
]
FULL = pytest.mark.parametrize("build, args", FULL_SEMIGROUPS)


@FULL
def test_equations_are_the_solved_system(build, args):
    # the atoms are the Hilbert basis of the recorded homogeneous system
    S = build(*args)
    assert S.equations.relation is Relation.EQ and S.equations.homogeneous
    assert hilbert_basis(S.equations) == S.generators
    assert all(S.equations.satisfied_by(a) for a in S.generators)


@FULL
def test_minimal_candidates_have_disjoint_supports(build, args):
    # tame_i_full weighs a minimal z avoiding atom i against a factorization
    # w through the atom by max(|z|, |w|); that is dist(z, w) only when the
    # supports are disjoint, which the minimality of z guarantees
    S = build(*args)
    checked = 0
    for i, atom in enumerate(S.generators):
        for z in minimals_principal_ideal(S, atom):
            if z[i]:
                continue
            for w in factorizations(S, value_of(S, z)):
                if w[i] == 0:
                    continue
                assert all(a == 0 or b == 0 for a, b in zip(z, w)), (z, w)
                assert dist(z, w) == max(sum(z), sum(w)), (z, w)
                checked += 1
    assert checked


@pytest.mark.parametrize(
    "build, args",
    FULL_SEMIGROUPS
    + [
        pytest.param(block_monoid, [(6,)], id="C6"),
        pytest.param(block_monoid, [(2, 2, 2)], id="C2^3"),
    ],
)
def test_tame_i_matches_full_fiber_reference(build, args):
    # tame_i_full settles the shortest length of value - atom by descent,
    # l(u) = 1 + min l(u - a_j); the reference enumerates the fiber of the value
    S = build(*args)
    for i in range(len(S.generators)):
        assert tame_i_full(S, i) == reference_tame_i(S, i), i


def test_benchmark_groups_within_cpu_budget():
    # the full-tame benchmark's groups: the frontier search and the descent
    # take about 0.2 s of this budget, one full fiber per candidate's value
    # more than all of it
    with cpu_limit(1.5):
        assert tame_full(block_monoid((6,))) == 8
        assert tame_full(block_monoid((2, 2, 2))) == 4


def test_c2_x_c4_within_cpu_budget():
    # 8 is what the route through the fibers of value - atom gave (about 34 s);
    # the frontier search and the descent take 6-7 s
    with cpu_limit(14):
        assert tame_full(block_monoid((2, 4))) == 8


def test_step_limit_stops_tame_full():
    S = block_monoid((5,))
    with pytest.raises(ResourceLimitError), step_limit(1):
        tame_full(S)
    with step_limit(10**6):
        assert tame_full(S) == 6


# x = y (mod 10): atoms (0,10), (1,1), (10,0).  The one candidate avoiding
# (1,1) is (0,10) + (10,0), and the descent from (9,9) settles ten elements,
# more than the 7 frontier rows that find the candidates
CHAIN = ([[1, -1]], [10])


def test_step_limit_stops_the_descent_alone(monkeypatch, tmp_path):
    S = full_semigroup(*CHAIN)
    with step_limit(7):
        assert minimals_principal_ideal(S, (1, 1)) == ((0, 1, 0), (1, 0, 1))
        with pytest.raises(ResourceLimitError):
            tame_i_full(S, 1)
    with step_limit(10):
        assert tame_i_full(S, 1) == 10
    # building the semigroup spends more steps than the descent, so the CLI
    # gets it ready-made and only the tame degree runs under --max-steps
    monkeypatch.setattr(cli._tame, "full_semigroup", lambda matrix, moduli: S)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"matrix": CHAIN[0], "moduli": CHAIN[1]}))
    argv = ["tame", "--equations", str(path), "--atom-index", "1", "--max-steps"]
    assert cli.run(argv + ["7"]) == (4, "")
    assert cli.run(argv + ["10"]) == (0, "10\n")


def test_equations_wider_than_the_atoms_are_named():
    # <2,3> recorded as all of N: 1 satisfies the equations, but no atom lies
    # below it, so the descent from 3 - 2 has nothing to settle it with
    S = AffineSemigroup(1, ((2,), (3,)), diophantine_system([(1,)], moduli=[1]))
    with pytest.raises(NotFullError, match="no atom lies below"):
        tame_full(S)
