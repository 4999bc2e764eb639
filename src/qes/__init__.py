"""Exact operator ladders on special-function kernels, and the isolated
spectrum of the two-photon Rabi model built on top of them.

The package constructs six families of second-order operators that map a
finite span of special-function products into itself, verifies the mapping
coefficients and the closure relations of each raising/lowering pair
exactly over the rationals (with surds where needed), and uses the third
family to solve for the frequencies at which the two-photon Rabi
Hamiltonian has elementary eigenstates, cross-checked by an independent
truncated-Fock diagonalization.
"""

from .families import (BasisElement, FamilyError, FamilySpec, NotInSpan,
                       PairContext, PairElement, action_formula, apply_op,
                       decompose, family_operators, independence_rank,
                       matrix_rep, operator_in_span, solve_preserving,
                       substitute_pair, substituted_context, verify_invariance)
from .rabi import (RabiConfig, RabiError, RabiOperator, SpectralResult,
                   FrequencyRoot, assemble_eigenfunctions, bargmann_growth,
                   build_L, closed_form_report, fock_matrix,
                   fock_truncation_check, frequency_table_report,
                   gauge_identity_residual, ladder_combination,
                   solve_frequencies, subspace_matrix, truncation_convergence,
                   verify_gauge_identity)
from .structure import (CommutatorConstants, ParamPoly, StructureError,
                        closure_constants, closure_suite, compare_to_catalog,
                        derive_constants, solve_constants_at,
                        structure_operator, verify_structure_relations)

__version__ = "0.1.0"

__all__ = [
    "BasisElement", "FamilyError", "FamilySpec", "NotInSpan", "PairContext",
    "PairElement", "action_formula", "apply_op", "decompose",
    "family_operators", "independence_rank", "matrix_rep", "operator_in_span",
    "solve_preserving", "substitute_pair", "substituted_context",
    "verify_invariance",
    "RabiConfig", "RabiError", "RabiOperator", "SpectralResult",
    "FrequencyRoot", "assemble_eigenfunctions", "bargmann_growth", "build_L",
    "closed_form_report", "fock_matrix", "fock_truncation_check",
    "frequency_table_report", "gauge_identity_residual", "ladder_combination",
    "solve_frequencies", "subspace_matrix", "truncation_convergence",
    "verify_gauge_identity",
    "CommutatorConstants", "ParamPoly", "StructureError", "closure_constants",
    "closure_suite", "compare_to_catalog", "derive_constants",
    "solve_constants_at", "structure_operator", "verify_structure_relations",
    "__version__",
]
