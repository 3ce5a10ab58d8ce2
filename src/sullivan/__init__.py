"""Exact rational computations with Sullivan minimal models.

The package covers free graded-commutative algebras with Koszul signs,
exact linear algebra, Groebner bases for homogeneous ideals, elliptic
exponent tables, cubic forms of six-manifolds, and the catalog of named
model families in dimensions four through nine with their classifiers.
"""

from .algebra import AlgebraElement, GeneratorTable, monomial_basis
from .cubic import (
    CubicForm,
    QuadricSubspace,
    associated_subspace,
    binary_classify,
    cubic_form_of_quadric_ideal,
    cubic_form_of_ring,
    hesse_form,
    hesse_sigma_candidates,
    is_elliptic_form,
    is_singular_ternary,
    pairing_rank,
    squarefree_part,
    substitute,
    wall_invariants,
)
from .exponents import (
    ExponentPair,
    check_constraints,
    check_sac,
    enumerate_exponents,
    exponents_of_model,
)
from .groebner import (
    GroebnerBasis,
    PolyRing,
    Polynomial,
    buchberger,
    is_regular_sequence,
)
from .linalg import RationalMatrix, in_span
from .model import (
    CochainComplex,
    SullivanModel,
    betti_numbers,
    cup_product_cubic_form,
    extend_differential,
    h4_pairing_discriminant,
    pairing_determinant,
    poincare_duality_check,
    pure_is_elliptic,
)
from .parsing import parse_element, parse_model, parse_polynomial, render_model

__all__ = [name for name in dir() if not name.startswith("_")]
