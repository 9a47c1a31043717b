from itertools import combinations_with_replacement

import pytest

from sgfact import NotFullError, affine_semigroup
from sgfact.tame import FullSemigroupWitness, block_monoid, tame_full

from oracles import tame_of_element


def test_witness_without_congruences_is_not_full():
    witness = FullSemigroupWitness(affine_semigroup([2, 3]))
    with pytest.raises(NotFullError):
        witness.member((5,))


@pytest.mark.parametrize("moduli, expected", [((3,), 3), ((2, 2), 3), ((4,), 4)])
def test_block_monoid_matches_definition(moduli, expected):
    # C3, C2^2 and C4; every element that is a sum of at most 4 atoms
    F = block_monoid(moduli)
    gens = F.semigroup.generators
    assert tame_full(F) == expected
    elements = {
        tuple(map(sum, zip(*atoms)))
        for r in range(1, 5)
        for atoms in combinations_with_replacement(gens, r)
    }
    assert max(tame_of_element(gens, gamma) for gamma in elements) == expected
