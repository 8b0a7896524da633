"""Exact computations with symmetric functions and symmetric groups.

The package keeps two independent routes to every structural statement: a
combinatorial one built on margin matrices and tableau counts, and a
brute-force group-theoretic one built on explicit tuples and characters.
The ``verify`` suites and the test suite hold the two against each other.
"""

from .combinat import (
    Composition,
    Partition,
    conjugate,
    count_ssyt,
    count_standard_tableaux,
    dominance_leq,
    enumerate_compositions,
    enumerate_partitions,
    multinomial,
    sort_to_partition,
)
from .contingency import (
    ContingencyMatrix,
    contingency_matrices,
    decompose_permutation_tensor,
    hom_dimension,
)
from .errors import (
    BudgetExceededError,
    DegreeMismatchError,
    ExpressionError,
    InternalConsistencyError,
)
from .grouporacle import (
    act,
    character_scalar_product,
    character_table,
    compose,
    cycle_type,
    enumerate_tuples,
    jacobi_trudi,
    jacobi_trudi_dual,
    permutation_character,
    tensor_orbit_decompose,
)
from .kronecker import kronecker, kronecker_coefficient, kronecker_h
from .symfunc import (
    KostkaTable,
    SymFunc,
    basis_element,
    build_kostka_table,
    characteristic_map,
    convert,
    multiply,
    scalar_product,
    specht_character,
)

__version__ = "0.1.0"
