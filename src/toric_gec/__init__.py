"""Exact arithmetic for the algebraic Monge-Ampere operator on Laurent
polynomials, the generalized Einstein condition, and the lattice-polytope
obstructions that rule it out for several toric Fano families.

Everything is computed over the rationals with fractions.Fraction; there
is no floating point anywhere in the library.
"""

from __future__ import annotations

from .expr import ExpressionError, format_expression, parse_expression
from .families import (
    FamilySpec,
    anticanonical_polytope,
    family_witness,
    obstructing_face,
    parse_family,
    rays,
)
from .gec import (
    EinsteinResult,
    ObstructionReport,
    classify_1d,
    edge_ratio_test,
    einstein_check,
    face_descent,
    gec_check,
    hexagon_obstruction,
    minimal_kappa,
    standard_hexagon_map,
    standard_hexagon_q,
)
from .lattice import (
    difference_lattice_basis,
    integer_determinant,
    lattice_coordinates,
    matrix_rank,
    primitive_vector,
    solve_linear_system,
)
from .laurent import (
    LaurentPolynomial,
    MonomialShift,
    divides,
    exact_quotient,
    least_dividing_power,
    monomial_normalize,
    substitute_monomial,
)
from .monge_ampere import (
    MuResult,
    check_initial_factorization,
    check_two_ray_factorization,
    initial_part,
    mu,
    mu_univariate_factored,
    predicted_mu_vertices,
    predicted_np_of_mu,
)
from .polytope import (
    Face,
    LatticePolytope,
    adjacent_polytope,
    face_chart_polynomial,
    faces,
    from_inequalities,
    hull,
    is_reflexive,
    min_weight_subset,
    unimodular_support,
)

__version__ = "0.1.0"

__all__ = [
    "EinsteinResult",
    "ExpressionError",
    "Face",
    "FamilySpec",
    "LatticePolytope",
    "LaurentPolynomial",
    "MonomialShift",
    "MuResult",
    "ObstructionReport",
    "adjacent_polytope",
    "anticanonical_polytope",
    "check_initial_factorization",
    "check_two_ray_factorization",
    "classify_1d",
    "difference_lattice_basis",
    "divides",
    "edge_ratio_test",
    "einstein_check",
    "exact_quotient",
    "face_chart_polynomial",
    "face_descent",
    "faces",
    "family_witness",
    "format_expression",
    "from_inequalities",
    "gec_check",
    "hexagon_obstruction",
    "hull",
    "initial_part",
    "integer_determinant",
    "is_reflexive",
    "lattice_coordinates",
    "least_dividing_power",
    "matrix_rank",
    "min_weight_subset",
    "minimal_kappa",
    "monomial_normalize",
    "mu",
    "mu_univariate_factored",
    "obstructing_face",
    "parse_expression",
    "parse_family",
    "predicted_mu_vertices",
    "predicted_np_of_mu",
    "primitive_vector",
    "rays",
    "solve_linear_system",
    "standard_hexagon_map",
    "standard_hexagon_q",
    "substitute_monomial",
    "unimodular_support",
]
