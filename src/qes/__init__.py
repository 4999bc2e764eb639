"""Exact operator ladders on special-function kernels, and the isolated
spectrum of the two-photon Rabi model built on top of them.

The package constructs six families of second-order operators that map a
finite span of special-function products into itself, verifies the mapping
coefficients and the closure relations of each raising/lowering pair
exactly over the rationals (with surds where needed), and uses the third
family to solve for the frequencies at which the two-photon Rabi
Hamiltonian has elementary eigenstates, cross-checked by an independent
truncated-Fock eigenvalue search.
"""

from .families import (FamilyError, FamilySpec, NotInSpan, PairContext,
                       PairElement, action_formula, apply_op, decompose,
                       family_operators, matrix_rep, operator_in_span,
                       solve_preserving, verify_invariance)
from .rabi import (RabiConfig, RabiError, SpectralResult, FrequencyRoot,
                   assemble_eigenfunctions, bargmann_growth, build_L,
                   closed_form_report, fock_truncation_check,
                   frequency_table_report, gauge_identity_residual,
                   ladder_combination, solve_frequencies, subspace_matrix)
from .structure import (ParamPoly, StructureError, closure_constants,
                        closure_suite, compare_to_catalog, derive_constants,
                        verify_structure_relations)

__version__ = "0.1.0"

__all__ = [
    "FamilyError", "FamilySpec", "NotInSpan", "PairContext", "PairElement",
    "action_formula", "apply_op", "decompose", "family_operators",
    "matrix_rep", "operator_in_span", "solve_preserving", "verify_invariance",
    "RabiConfig", "RabiError", "SpectralResult", "FrequencyRoot",
    "assemble_eigenfunctions", "bargmann_growth", "build_L",
    "closed_form_report", "fock_truncation_check", "frequency_table_report",
    "gauge_identity_residual", "ladder_combination", "solve_frequencies",
    "subspace_matrix",
    "ParamPoly", "StructureError", "closure_constants", "closure_suite",
    "compare_to_catalog", "derive_constants", "verify_structure_relations",
    "__version__",
]
