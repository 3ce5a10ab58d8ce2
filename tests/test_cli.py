"""Command line: subcommands, exit codes, JSON report schema."""

import hashlib
import json
import random
import time

import pytest

from sullivan.catalog import dim6_b3_model
from sullivan.cli import main
from sullivan.groebner import PolyRing, buchberger
from sullivan.parsing import render_model, render_polynomial


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exponents_listing(capsys):
    code, out, _ = run(capsys, "exponents", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [
        "a=() b=(4)",
        "a=(1) b=(2,3)",
        "a=(2) b=(2,4)",
        "a=(1,1) b=(2,2,2)",
    ]


def test_exponents_out_of_range(capsys):
    code, _, err = run(capsys, "exponents", "13")
    assert code == 2
    assert "error" in err


def test_check_sac(capsys):
    code, out, _ = run(capsys, "check-sac", "1", "1", "--", "2", "3")
    assert code == 0 and "sac=yes" in out
    code, out, _ = run(capsys, "check-sac", "1", "2", "--", "2", "2")
    assert code == 1 and "sac=no" in out
    code, out, _ = run(capsys, "check-sac", "--", "2", "2")
    assert code == 0
    code, _, err = run(capsys, "check-sac", "1", "2")
    assert code == 2
    code, out, _ = run(capsys, "check-sac", "2", "4", "--", "4", "8", "100001")
    assert code == 0 and out == "a=(2,4) b=(4,8,100001): sac=yes formal-dimension=200013 constraints=yes\n"
    code, _, err = run(capsys, "check-sac", "2", "--", "16777217")
    assert code == 2 and err == "error: the arithmetic condition takes entries of b up to 16777216, not 16777217\n"


def test_cohomology_of_model_file(tmp_path, capsys):
    path = tmp_path / "model.txt"
    path.write_text(
        "generator x1 2\ngenerator x2 2\ngenerator y1 3\ngenerator y2 5\n"
        "d y1 = x1^2 + x2^2\nd y2 = x2^3\n"
    )
    code, out, _ = run(capsys, "cohomology", str(path), "--max-degree", "6")
    assert code == 0
    assert "b_6 = 1" in out and "b_2 = 2" in out
    assert "formal dimension claim: 6" in out


def test_cohomology_reports_the_claim_and_duality(tmp_path, capsys):
    path = tmp_path / "model.txt"
    path.write_text(render_model(dim6_b3_model(2)))
    code, out, _ = run(capsys, "cohomology", str(path), "--max-degree", "8")
    assert code == 0
    betti = (1, 0, 3, 0, 3, 0, 1, 0, 0)
    assert out.splitlines() == [
        "formal dimension claim: 6",
        *(f"b_{k} = {b}" for k, b in enumerate(betti)),
        "poincare symmetric through degree 6: yes",
        "vanishing above the formal dimension through degree 8: yes",
    ]
    # only even generators: the claim is negative and prints as None
    path.write_text("generator x 2\n")
    code, out, _ = run(capsys, "cohomology", str(path), "--max-degree", "2")
    assert code == 0
    assert out.splitlines() == [
        "formal dimension claim: None",
        "b_0 = 1",
        "b_1 = 0",
        "b_2 = 1",
        "poincare symmetric through degree -1: no",
        "nonzero above the formal dimension: degrees [0, 2]",
    ]


def test_cohomology_rejects_invalid_model(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("generator x 2\ngenerator y 3\nd y = x\n")
    code, _, err = run(capsys, "cohomology", str(path))
    assert code == 2 and "degree" in err


def test_cohomology_rejects_a_huge_power_at_once(tmp_path, capsys):
    # x^2000000 is built by repeated squaring, so the degree check comes at
    # once instead of after two million multiplications
    path = tmp_path / "huge.txt"
    path.write_text("generator x 2\ngenerator y 3\nd y = x^2000000\n")
    start = time.perf_counter()
    code, _, err = run(capsys, "cohomology", str(path))
    assert time.perf_counter() - start < 10
    assert code == 2
    assert "d(y) has degree 4000000, expected 4" in err


@pytest.mark.parametrize("power", ["(x + z)^2000", "(1 + x)^2000", "(x + y*z)^2000"])
def test_cohomology_rejects_a_huge_power_of_a_sum_before_expanding_it(tmp_path, capsys, power):
    # expanding (x + z)^2000 took about 20 s before the degree check
    path = tmp_path / "huge.txt"
    path.write_text(f"generator x 2\ngenerator z 2\ngenerator y 3\nd y = {power}\n")
    start = time.perf_counter()
    code, _, err = run(capsys, "cohomology", str(path))
    assert time.perf_counter() - start < 5
    assert code == 2
    assert "line 4" in err and "a power of degree 4000 exceeds the expected degree 4" in err


def test_groebner_rejects_a_power_of_a_sum_with_too_many_terms_at_once(capsys):
    # (x + y + z)^300 has 45,451 terms; expanding it ran for minutes
    start = time.perf_counter()
    code, _, err = run(capsys, "groebner", "(x + y + z)^300")
    assert time.perf_counter() - start < 5
    assert code == 2
    assert "column 12: a power of a sum with more than 1000 terms" in err


def test_groebner_rejects_a_product_of_sums_with_too_many_terms_at_once(capsys):
    # each factor passes the power check; multiplying them out took 4.1 s
    start = time.perf_counter()
    code, _, err = run(capsys, "groebner", "(x + y)^999 * (x + y)^999")
    assert time.perf_counter() - start < 5
    assert code == 2
    assert "column 13: a product of sums with more than 1000 pairs of terms" in err


def test_groebner_rejects_many_powers_of_sums_in_one_polynomial(capsys):
    # each power passes its own check; expanding all eight took 4.5 s
    start = time.perf_counter()
    code, _, err = run(capsys, "groebner", " + ".join(["(x + y)^999"] * 8))
    assert time.perf_counter() - start < 5
    assert code == 2
    assert "column 36: powers and products of sums with more than 2000 terms in all" in err


@pytest.mark.parametrize("command", ["groebner", "regseq"])
def test_arguments_share_one_expansion_allowance(command, capsys):
    # each argument is within the allowance of one polynomial; parsing all
    # four took 4.3 s
    start = time.perf_counter()
    code, _, err = run(capsys, command, *["(x + y)^999 + (x + y)^999"] * 4)
    assert time.perf_counter() - start < 5
    assert code == 2
    assert "column 8: powers and products of sums with more than 2000 terms in all" in err


def test_cohomology_rejects_a_long_product_of_sums_before_multiplying_it_out(tmp_path, capsys):
    # multiplying out the 3,000 factors took 16 s before the degree check
    path = tmp_path / "product.txt"
    path.write_text("generator x 2\ngenerator z 2\ngenerator y 3\nd y = " + " * ".join(["(x + z)"] * 3000) + "\n")
    start = time.perf_counter()
    code, _, err = run(capsys, "cohomology", str(path))
    assert time.perf_counter() - start < 5
    assert code == 2
    assert "line 4, column 19: a product of degree 6 exceeds the expected degree 4" in err


def test_cohomology_rejects_a_free_algebra_too_large_to_enumerate(tmp_path, capsys):
    path = tmp_path / "free.txt"
    path.write_text("".join(f"generator x{i} 2\n" for i in range(20)))
    start = time.perf_counter()
    code, out, err = run(capsys, "cohomology", str(path), "--max-degree", "16")
    assert time.perf_counter() - start < 10
    assert code == 2 and out == ""
    assert "degree 12 of the free algebra has 177100 monomials" in err


def test_groebner_rejects_deeply_nested_parentheses(capsys):
    code, _, err = run(capsys, "groebner", "(" * 3000 + "x" + ")" * 3000)
    assert code == 2
    assert "column 101: expression nested deeper than 100 levels" in err


def test_cohomology_rejects_a_long_run_of_minus_signs(tmp_path, capsys):
    path = tmp_path / "minus.txt"
    path.write_text("generator x 2\ngenerator y 3\nd y = x*" + "-" * 3000 + "x\n")
    code, _, err = run(capsys, "cohomology", str(path))
    assert code == 2
    assert "line 3, column 103: expression nested deeper than 100 levels" in err


def test_regseq_exit_codes(capsys):
    code, out, _ = run(capsys, "regseq", "x1*x2", "x1^2 - x2^2", "x3^2", "--vars", "x1,x2,x3")
    assert code == 0 and "regular" in out
    code, out, _ = run(capsys, "regseq", "x2^2 + x1*x3", "x3^2", "x2*x3")
    assert code == 1 and "not regular" in out


def test_groebner_output(capsys):
    code, out, _ = run(capsys, "groebner", "x1*x2", "x1^2 - x2^2")
    assert code == 0
    assert "x2^3" in out


def test_regseq_and_groebner_on_dense_quadrics_in_five_variables(capsys):
    # three dense quadrics in five variables: both commands once ran past 60 s
    ring = PolyRing(("x1", "x2", "x3", "x4", "x5"))
    rng = random.Random(1)
    monos = ring.monomials_of_degree(2)
    quadrics = [ring.from_terms({m: rng.randint(-5, 5) for m in monos}) for _ in range(3)]
    texts = [render_polynomial(q) for q in quadrics]
    code, out, _ = run(capsys, "regseq", *texts)
    assert code == 0
    assert out.splitlines() == ["variables: x1, x2, x3, x4, x5", "regular"]
    code, out, _ = run(capsys, "groebner", *texts)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "variables: x1, x2, x3, x4, x5"
    assert lines[1:] == [render_polynomial(g) for g in buchberger(quadrics, ring).generators]


def test_cubic_subcommands(capsys):
    code, out, _ = run(capsys, "cubic", "classify", "x^2*y - x*y^2")
    assert code == 0 and out.strip() == "three-real-roots"
    code, out, _ = run(capsys, "cubic", "elliptic", "x*y*z", "--b2", "3")
    assert code == 0 and out.strip() == "elliptic"
    code, out, _ = run(capsys, "cubic", "elliptic", "x^3 + y^3 + z^3")
    assert code == 1 and "not elliptic" in out
    code, out, _ = run(capsys, "cubic", "associated", "x*y*z")
    assert code == 0 and out.splitlines() == ["x1^2", "x2^2", "x3^2"]
    code, out, _ = run(capsys, "cubic", "sigma", "x^3 + y^3 + z^3 + 12*x*y*z")
    assert code == 0 and "sigma = 2" in out
    code, _, err = run(capsys, "cubic", "sigma", "x*y*z")
    assert code == 2 and "singular" in err


def test_cubic_sigma_rejects_a_tolerance_that_is_not_a_rational(capsys):
    for tolerance in ("1/0", "tiny"):
        code, _, err = run(capsys, "cubic", "sigma", "x^3 + y^3 + z^3 + 12*x*y*z", "--tolerance", tolerance)
        assert code == 2 and f"not a rational number: {tolerance!r}" in err
    code, _, err = run(capsys, "cubic", "sigma", "x^3 + y^3 + z^3 + 12*x*y*z", "--tolerance", "-1")
    assert code == 2 and "tolerance must be positive" in err


def test_cubic_padding_with_vars(capsys):
    code, out, _ = run(capsys, "cubic", "elliptic", "x^3", "--vars", "x,y")
    assert code == 1


def test_catalog_list_and_build(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert "dim7-sigma" in out and "bsp" in out
    code, out, _ = run(capsys, "catalog", "build", "dim7-sigma", "2")
    assert code == 0 and "d y2 = x1^2 - 2*x2^2" in out
    code, out, _ = run(capsys, "catalog", "build", "bsp")
    assert code == 0 and len(out.strip().splitlines()) == 3
    code, _, err = run(capsys, "catalog", "build", "unknown-name")
    assert code == 2
    code, _, err = run(capsys, "catalog", "build", "dim4-sigma", "0")
    assert code == 2


CATALOG_LIST_DIGEST = "b8dfd1503cf835c56b7483527b74298c096116f45891d47dc2f2b7ecb62fa2f3"


BAD_CATALOG_PARAMETERS = [
    (("sphere", "5/2"), "N must be an integer, got 5/2"),
    (("cp", "3/2"), "N must be an integer, got 3/2"),
    (("sphere",), "sphere takes 1 parameter(s): N (dimension >= 2); got 0"),
    (("dim7-rank3", "5"), "dim7-rank3 takes 0 parameter(s): none; got 1"),
    (("dim6-b2", "1", "2"), "dim6-b2 takes 5 parameter(s): P C1 C2 C3 C4 (rationals); got 2"),
    (("b3", "1", "1", "1", "1"), "b3 takes 3 parameter(s): B1 C1 C2 (C2 nonzero, 2*C1 != B1*C2); got 4"),
    (("bsp", "1"), "bsp takes 0 parameter(s): none; got 1"),
]


@pytest.mark.parametrize(
    "params,message", BAD_CATALOG_PARAMETERS, ids=["-".join(params) for params, _ in BAD_CATALOG_PARAMETERS]
)
def test_catalog_build_rejects_wrong_parameters(capsys, params, message):
    code, out, err = run(capsys, "catalog", "build", *params)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_catalog_build_takes_whole_parameters_and_list_is_unchanged(capsys):
    assert run(capsys, "catalog", "build", "sphere", "6/2") == run(capsys, "catalog", "build", "sphere", "3")
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0 and hashlib.sha256(out.encode("utf-8")).hexdigest() == CATALOG_LIST_DIGEST


def test_classify7_and_classify8(tmp_path, capsys):
    path = tmp_path / "m7.txt"
    run(capsys, "catalog", "build", "dim7-sigma", "8")
    out = capsys.readouterr()
    code, out, _ = run(capsys, "catalog", "build", "dim7-sigma", "8")
    path.write_text(out)
    code, out, _ = run(capsys, "classify7", str(path))
    assert code == 0 and out.strip() == "sigma-family[2]"

    path8 = tmp_path / "m8.txt"
    code, out, _ = run(capsys, "catalog", "build", "dim8-middle", "1")
    path8.write_text(out)
    code, out, _ = run(capsys, "classify8", str(path8))
    assert code == 0 and out.strip() == "HP2#HP2[1]"

    code, out, _ = run(capsys, "catalog", "build", "dim8-sigma", "3")
    path8.write_text(out)
    code, out, _ = run(capsys, "classify8", str(path8))
    assert code == 0 and out.strip() == "sigma-family[3]"

    sphere = tmp_path / "s8.txt"
    code, out, _ = run(capsys, "catalog", "build", "sphere", "8")
    sphere.write_text(out)
    code, _, err = run(capsys, "classify8", str(sphere))
    assert code == 2


def test_classify8_with_a_large_prime_parameter(tmp_path, capsys):
    path = tmp_path / "m8.txt"
    code, out, _ = run(capsys, "catalog", "build", "dim8-middle", str(2**61 - 1))
    assert code == 0
    path.write_text(out)
    code, out, _ = run(capsys, "classify8", str(path))
    assert code == 0 and out.strip() == "middle-class[2305843009213693951]"


def test_classify8_with_an_unsplittable_parameter_exits_2(tmp_path, capsys):
    path = tmp_path / "m8.txt"
    code, out, _ = run(capsys, "catalog", "build", "dim8-middle", str((2**61 - 1) * (2**31 - 1)))
    assert code == 0
    path.write_text(out)
    code, out, err = run(capsys, "classify8", str(path))
    assert code == 2 and not out and "error" in err


def test_verify_paper_json_schema(capsys):
    code, out, _ = run(capsys, "verify-paper", "--section", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data
    for record in data:
        assert list(record) == ["name", "status", "expected", "actual", "cite"]
        assert record["status"] == "pass"


def test_verify_paper_deterministic(capsys):
    _, first, _ = run(capsys, "verify-paper", "--section", "5")
    _, second, _ = run(capsys, "verify-paper", "--section", "5")
    assert first == second
    assert first.strip().splitlines()[-1].endswith("checks passed")


# SHA-256 of the verify-paper stdout, in full and per section; refactors must
# keep it byte-identical
VERIFY_PAPER_DIGESTS = {
    (): "27504a0f37beb380916c2e837bd7fd31d2016f0250a068702cefa84c8b18c56f",
    ("--json",): "dd7fd0df697d9bf975a3f40523e16f8793252905d39a24be0d6936b1d7541026",
    ("--section", "3"): "2cd61903cd1cee7ea8ab10f8366bf232b4cbfc9d6bc9c1477aa124129c33b9a1",
    ("--section", "4"): "b8a66bdad77eddd9fc20ffe1843a331a269b3e3b0bd56d5ba3081e101497566a",
    ("--section", "5"): "7d35155cc5c7fa99cd17e7de68c6e865cdf3a0e414d5a34ab0715b555a4f8022",
    ("--section", "5", "--json"): (
        "fac65a1b3d736985879ba79fa46afe144d7bfbe8cd893128e1326512410be88d"
    ),
}


@pytest.mark.parametrize("flags", list(VERIFY_PAPER_DIGESTS))
def test_verify_paper_output_is_byte_identical(capsys, flags):
    code, out, _ = run(capsys, "verify-paper", *flags)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_PAPER_DIGESTS[flags]


USAGE_ERRORS = {
    "vars-with-no-name": (["groebner", "x", "--vars", ","], "--vars must list at least one variable"),
    "no-variables": (["groebner", "1"], "no variables found; pass --vars explicitly"),
    "missing-file": (["cohomology", "{missing}"], "cannot read {missing}: "),
    "associated-binary": (["cubic", "associated", "x^3 + y^3"], "the associated subspace needs a ternary form"),
    "sigma-binary": (["cubic", "sigma", "x^3 + y^3"], "the diagonal-family parameter needs a ternary form"),
    "build-no-name": (["catalog", "build"], "catalog build needs a name"),
}


@pytest.mark.parametrize("argv,message", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_errors_exit_2_with_one_line_on_stderr(tmp_path, capsys, argv, message):
    missing = str(tmp_path / "missing.txt")
    code, out, err = run(capsys, *(arg.format(missing=missing) for arg in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: " + message.format(missing=missing)) and err.count("\n") == 1 and err.endswith("\n")


def test_unknown_command_usage_error(capsys):
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2


def test_verify_paper_section_three(capsys):
    code, out, _ = run(capsys, "verify-paper", "--section", "3")
    assert code == 0
    assert "ternary-table" in out and "biquotient" in out
    assert out.strip().splitlines()[-1].endswith("checks passed")
