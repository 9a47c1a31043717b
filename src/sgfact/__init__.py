"""Factorization invariants of affine semigroups."""

from .core import (
    AffineSemigroup,
    Vector,
    affine_semigroup,
    contains,
    delta_of_element,
    dist,
    factorizations,
    length_set,
)
from .errors import (
    ConstructionError,
    DimensionMismatchError,
    NotFullError,
    NotInSemigroupError,
    ResourceLimitError,
    SgfactError,
    UnsupportedDimensionError,
    step_limit,
)
from .hilbert import (
    DiophantineSystem,
    Relation,
    diophantine_system,
    graver_basis,
    hilbert_basis,
    integer_kernel_basis,
    minimal_solutions,
    primitive_kernel_vectors,
)

__version__ = "0.1.0"

__all__ = [
    "AffineSemigroup",
    "DiophantineSystem",
    "Relation",
    "Vector",
    "affine_semigroup",
    "contains",
    "delta_of_element",
    "diophantine_system",
    "dist",
    "factorizations",
    "graver_basis",
    "hilbert_basis",
    "integer_kernel_basis",
    "length_set",
    "minimal_solutions",
    "primitive_kernel_vectors",
    "ConstructionError",
    "DimensionMismatchError",
    "NotFullError",
    "NotInSemigroupError",
    "ResourceLimitError",
    "SgfactError",
    "UnsupportedDimensionError",
    "step_limit",
]
