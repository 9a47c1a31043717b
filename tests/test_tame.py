import pytest

from sgfact import NotFullError, affine_semigroup
from sgfact.tame import FullSemigroupWitness


def test_witness_without_congruences_is_not_full():
    witness = FullSemigroupWitness(affine_semigroup([2, 3]))
    with pytest.raises(NotFullError):
        witness.member((5,))
