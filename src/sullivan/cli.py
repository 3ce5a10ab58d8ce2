"""Command-line front end.

Exit codes: 0 success (or all checks pass), 1 a requested check fails,
2 usage or parse errors.  With --json the verification report is a JSON
array of records with the fields name, status, expected, actual, cite.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from fractions import Fraction

from . import catalog
from .cubic import (
    CubicForm,
    associated_subspace,
    binary_classify,
    hesse_sigma_candidates,
    is_elliptic_form,
    is_singular_ternary,
)
from .exponents import ExponentPair, check_constraints, check_sac, enumerate_exponents, exponents_of_model
from .groebner import PolyRing, buchberger, is_regular_sequence
from .model import betti_numbers
from .parsing import (
    parse_model,
    parse_polynomial,
    parse_polynomials,
    render_fraction,
    render_model,
    render_polynomial,
    variables_in,
)


class UsageError(ValueError):
    pass


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"not a rational number: {text!r}") from None


def _ring_for(expressions: list[str], vars_option: str | None) -> PolyRing:
    if vars_option:
        names = [v.strip() for v in vars_option.split(",") if v.strip()]
        if not names:
            raise UsageError("--vars must list at least one variable")
        return PolyRing(names)
    names = sorted({name for text in expressions for name in variables_in(text)})
    if not names:
        raise UsageError("no variables found; pass --vars explicitly")
    return PolyRing(names)


def _load_model(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    return parse_model(text)


# -- subcommand implementations ---------------------------------------------


def _cmd_exponents(args) -> int:
    for pair in enumerate_exponents(args.n):
        print(pair)
    return 0


def _cmd_check_sac(rest: list[str]) -> int:
    if "--" not in rest:
        print("usage: sullivan check-sac A.. -- B..", file=sys.stderr)
        return 2
    split = rest.index("--")
    pair = ExponentPair(tuple(int(x) for x in rest[:split]), tuple(int(x) for x in rest[split + 1 :]))
    ok = check_sac(pair)
    n = pair.formal_dimension()
    constraints = check_constraints(pair, n)
    print(f"{pair}: sac={'yes' if ok else 'no'} formal-dimension={n} constraints={'yes' if constraints else 'no'}")
    return 0 if ok else 1


def _cmd_cohomology(args) -> int:
    m = _load_model(args.file)
    n = m.formal_dimension_claim()
    max_degree = args.max_degree if args.max_degree is not None else max(n, 0) + 7
    betti = betti_numbers(m, max_degree)
    print(f"formal dimension claim: {n if n >= 0 else None}")
    for k, dim in enumerate(betti):
        print(f"b_{k} = {dim}")
    vanishing = [k for k, dim in enumerate(betti) if k > n and dim]
    symmetric = 0 <= n <= max_degree and all(betti[k] == betti[n - k] for k in range(n + 1))
    print(f"poincare symmetric through degree {n}: {'yes' if symmetric else 'no'}")
    if vanishing:
        print(f"nonzero above the formal dimension: degrees {vanishing}")
    else:
        print(f"vanishing above the formal dimension through degree {max_degree}: yes")
    return 0


def _cmd_regseq(args) -> int:
    ring = _ring_for(args.polys, args.vars)
    polys = parse_polynomials(args.polys, ring)
    regular = is_regular_sequence(polys, ring)
    print(f"variables: {', '.join(ring.variables)}")
    print("regular" if regular else "not regular")
    return 0 if regular else 1


def _cmd_groebner(args) -> int:
    ring = _ring_for(args.polys, args.vars)
    polys = parse_polynomials(args.polys, ring)
    gb = buchberger(polys, ring)
    print(f"variables: {', '.join(ring.variables)}")
    if not gb.generators:
        print("zero ideal")
    for g in gb.generators:
        print(render_polynomial(g))
    return 0


def _parse_form(args) -> CubicForm:
    ring = _ring_for([args.expr], args.vars)
    if len(ring.variables) not in (2, 3):
        raise UsageError("cubic forms need 2 or 3 variables (use --vars to pad)")
    return CubicForm.from_polynomial(parse_polynomial(args.expr, ring))


def _cmd_cubic(args) -> int:
    form = _parse_form(args)
    if args.action == "classify":
        if form.dim == 2:
            print(binary_classify(form))
        else:
            print("singular" if is_singular_ternary(form) else "nonsingular")
        return 0
    if args.action == "elliptic":
        b2 = args.b2 if args.b2 is not None else form.dim
        verdict = is_elliptic_form(form, b2)
        print("elliptic" if verdict.elliptic else f"not elliptic: {verdict.reason}")
        return 0 if verdict.elliptic else 1
    if args.action == "associated":
        if form.dim != 3:
            raise UsageError("the associated subspace needs a ternary form")
        sub = associated_subspace(form)
        for q in sub.basis:
            print(render_polynomial(q))
        return 0
    if args.action == "sigma":
        if form.dim != 3:
            raise UsageError("the diagonal-family parameter needs a ternary form")
        if is_singular_ternary(form):
            raise UsageError("the form is singular: no diagonal-family parameter")
        tolerance = _fraction(args.tolerance) if args.tolerance else Fraction(1, 10**6)
        for lo, hi in hesse_sigma_candidates(form, tolerance):
            if lo == hi:
                print(f"sigma = {render_fraction(lo)}")
            else:
                print(f"sigma in ({render_fraction(lo)}, {render_fraction(hi)})")
        return 0
    raise UsageError(f"unknown cubic action {args.action!r}")


def _cmd_catalog(args) -> int:
    if args.action == "list":
        for name, (signature, _) in sorted(catalog.MODEL_BUILDERS.items()):
            print(f"{name} {signature}".rstrip())
        for name, (signature, _) in sorted(catalog.RING_BUILDERS.items()):
            print(f"{name} {signature}".rstrip())
        return 0
    if args.action == "build":
        if not args.params:
            raise UsageError("catalog build needs a name")
        name, raw = args.params[0], args.params[1:]
        signature, build = catalog.MODEL_BUILDERS.get(name) or catalog.RING_BUILDERS.get(name) or ("", None)
        if build is None:
            raise UsageError(f"unknown catalog name {name!r}")
        expected = signature.split("(")[0].split()
        if len(raw) != len(expected):
            raise UsageError(f"{name} takes {len(expected)} parameter(s): {signature or 'none'}; got {len(raw)}")
        built = build([_fraction(p) for p in raw])
        if name in catalog.MODEL_BUILDERS:
            sys.stdout.write(render_model(built))
        else:
            for q in built.basis:
                print(render_polynomial(q))
        return 0
    raise UsageError(f"unknown catalog action {args.action!r}")


def _cmd_classify7(args) -> int:
    print(catalog.classify_dim7(_load_model(args.file)))
    return 0


def _cmd_classify8(args) -> int:
    m = _load_model(args.file)
    pair = exponents_of_model(m)
    if pair == ExponentPair((2, 2), (4, 4)):
        print(catalog.classify_dim8_middle(m))
        return 0
    if pair == ExponentPair((1, 1, 2), (2, 2, 4)):
        print(catalog.classify_dim8_sigma(m))
        return 0
    raise UsageError(
        f"classifiers cover the exponent cases (2,2; 4,4) and (1,1,2; 2,2,4); got {pair}"
    )


def _cmd_verify(args) -> int:
    records = catalog.verification_report(args.section)
    if args.json:
        print(json.dumps([asdict(r) for r in records], indent=2))
    else:
        for r in records:
            print(f"{r.status.upper():4s} {r.name} [{r.cite}] expected={r.expected} actual={r.actual}")
        failed = sum(1 for r in records if r.status == "fail")
        print(f"{len(records) - failed}/{len(records)} checks passed")
    return 0 if all(r.status != "fail" for r in records) else 1


_HANDLERS = {
    "exponents": _cmd_exponents,
    "cohomology": _cmd_cohomology,
    "regseq": _cmd_regseq,
    "groebner": _cmd_groebner,
    "cubic": _cmd_cubic,
    "catalog": _cmd_catalog,
    "classify7": _cmd_classify7,
    "classify8": _cmd_classify8,
    "verify-paper": _cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sullivan",
        description="Exact computations with Sullivan models, exponent tables and cubic forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponents", help="list the elliptic exponent pairs in dimension N")
    p.add_argument("n", type=int)

    sub.add_parser(
        "check-sac", help="check the arithmetic condition: check-sac A.. -- B..", add_help=False
    )

    p = sub.add_parser("cohomology", help="Betti numbers of a model file")
    p.add_argument("file")
    p.add_argument("--max-degree", type=int, default=None)

    p = sub.add_parser("regseq", help="regular-sequence test for homogeneous polynomials")
    p.add_argument("polys", nargs="+")
    p.add_argument("--vars", default=None)

    p = sub.add_parser("groebner", help="reduced Groebner basis (grevlex)")
    p.add_argument("polys", nargs="+")
    p.add_argument("--vars", default=None)

    p = sub.add_parser("cubic", help="cubic form computations")
    p.add_argument("action", choices=("classify", "elliptic", "associated", "sigma"))
    p.add_argument("expr")
    p.add_argument("--b2", type=int, default=None)
    p.add_argument("--vars", default=None)
    p.add_argument("--tolerance", default=None)

    p = sub.add_parser("catalog", help="list or build the named models and rings")
    p.add_argument("action", choices=("list", "build"))
    p.add_argument("params", nargs="*")

    p = sub.add_parser("classify7", help="rational type of a 7-dimensional model file")
    p.add_argument("file")

    p = sub.add_parser("classify8", help="classify the covered 8-dimensional exponent cases")
    p.add_argument("file")

    p = sub.add_parser("verify-paper", help="recompute and check every recorded claim")
    p.add_argument("--section", type=int, choices=(3, 4, 5), default=None)
    p.add_argument("--json", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] == "check-sac":
            return _cmd_check_sac(argv[1:])
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 2
        return _HANDLERS[args.command](args)
    except ValueError as exc:  # UsageError and ParseError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
