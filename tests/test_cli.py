"""Command line: subcommands, exit codes, JSON report schema."""

import hashlib
import json
import random
import time

import pytest

from sullivan.cli import main
from sullivan.groebner import PolyRing, buchberger
from sullivan.parsing import render_polynomial


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

    sphere = tmp_path / "s8.txt"
    code, out, _ = run(capsys, "catalog", "build", "sphere", "8")
    sphere.write_text(out)
    code, _, err = run(capsys, "classify8", str(sphere))
    assert code == 2


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


def test_unknown_command_usage_error(capsys):
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2


def test_verify_paper_section_three(capsys):
    code, out, _ = run(capsys, "verify-paper", "--section", "3")
    assert code == 0
    assert "ternary-table" in out and "biquotient" in out
    assert out.strip().splitlines()[-1].endswith("checks passed")
