# Cubic forms of simply connected six-manifolds.
#
# With b3 = 0 the rational cohomology ring of a six-manifold is a cubic
# form on H^2.  For b2 = 2 ellipticity is a rank condition; for b2 = 3 it
# is a regular-sequence condition on the quadrics annihilated by the
# form.  This script reproduces the decision tables.

from fractions import Fraction

from sullivan import (
    CubicForm,
    PolyRing,
    associated_subspace,
    betti_numbers,
    binary_classify,
    cup_product_cubic_form,
    hesse_form,
    is_elliptic_form,
    pairing_rank,
    parse_polynomial,
    pure_is_elliptic,
)
from sullivan.catalog import dim6_b2_cubic_form, dim6_b2_discriminant, dim6_b2_model, dim6_b3_model
from sullivan.parsing import render_polynomial

RXY = PolyRing(("x", "y"))
RXYZ = PolyRing(("x", "y", "z"))

# --- binary forms (b2 = 2) -------------------------------------------------
print("binary cubic forms and their six-manifolds:")
for text in ("0", "x^3", "x^2*y", "x^3 + y^3", "x^2*y - x*y^2"):
    form = CubicForm.from_polynomial(parse_polynomial(text, RXY))
    verdict = "elliptic" if pairing_rank(form) == 2 else "hyperbolic"
    print(f"   {text:15s} class={binary_classify(form):17s} {verdict}")
print()

# The b2 = 2 families: one odd generator kills a quadric, the second a
# cubic.  A single determinant decides whether cohomology stays finite.
p, cubic = Fraction(1), (0, 0, 0, 1)
print(f"family member p={p}, cubic={cubic}:")
print(f"   discriminant = {dim6_b2_discriminant(p, cubic)}")
print(f"   betti through 13 = {betti_numbers(dim6_b2_model(p, cubic), 13)}")
formula = dim6_b2_cubic_form(p, cubic)
computed = cup_product_cubic_form(dim6_b2_model(p, cubic))
print(f"   closed-formula form matches the computed cup product: {formula.proportional_to(computed)}")
print()

# A degenerate member: the discriminant vanishes and cohomology grows.
degenerate = (1, (1, 0, 1, 0))
print(f"degenerate member p=1, cubic={degenerate[1]}:")
print(f"   discriminant = {dim6_b2_discriminant(*degenerate)}")
print(f"   betti through 14 = {betti_numbers(dim6_b2_model(*degenerate), 14)}")
print()

# --- ternary forms (b2 = 3) --------------------------------------------------
print("ternary normal forms, their quadric relations, and the verdict:")
rows = (
    "x*y*z",
    "z*(x^2 + y^2)",
    "x*(x*z - y^2)",
    "x^3 + y^3",
    "x^3 + 3*x^2*z - 3*y^2*z",
)
for text in rows:
    form = CubicForm.from_polynomial(parse_polynomial(text, RXYZ))
    sub = associated_subspace(form)
    verdict = is_elliptic_form(form, 3)
    basis = ", ".join(render_polynomial(q) for q in sub.basis)
    print(f"   {text:25s} [{basis}] -> {'elliptic' if verdict.elliptic else 'hyperbolic'}")
print()

# The diagonal family x^3+y^3+z^3+6s*xyz is elliptic away from s in {0, 1};
# the pure models behind it make the two exceptional parameters visible.
for lam in (2, 1, 0):
    model = dim6_b3_model(lam)
    print(f"diagonal model at lambda={lam}: elliptic? {pure_is_elliptic(model)}")
for s in (0, 1, 2):
    print(f"diagonal form at sigma={s}: elliptic? {is_elliptic_form(hesse_form(s), 3).elliptic}")
