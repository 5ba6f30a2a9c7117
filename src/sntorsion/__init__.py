"""Exact tools for excluding normalized torsion units of composite order pq
in integral group rings of symmetric and alternating groups.

The package computes ordinary character values of S_n from scratch, ingests
rational-valued modular character rows from text files, expresses eigenvalue
multiplicities of hypothetical units as exact affine forms in partial
augmentations, and decides the resulting integer feasibility systems with a
self-contained lattice/Fourier-Motzkin enumerator.
"""

__version__ = "0.1.0"

from .characters import character_value, degree
from .luthar_passi import (
    AffineForm,
    AugVector,
    CharacterRow,
    allowed_support,
    orbit_residues,
)
from .solver import (
    FeasibilitySystem,
    SolveReport,
    enumerate_system,
    solve_order_pq,
    solve_prime_order,
)
from .table_io import TableFile, parse_table, serialize_table

__all__ = [
    "AffineForm",
    "AugVector",
    "CharacterRow",
    "FeasibilitySystem",
    "SolveReport",
    "TableFile",
    "allowed_support",
    "character_value",
    "degree",
    "enumerate_system",
    "orbit_residues",
    "parse_table",
    "serialize_table",
    "solve_order_pq",
    "solve_prime_order",
    "__version__",
]
