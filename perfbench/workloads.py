"""The benchmark's four workloads: inputs, operations and output checks.

Each workload is a closed loop with one caller: an operation starts when
the previous one returns.  A pass rebuilds its inputs (catalog builders,
model files, generated polynomials) the way a command-line invocation
does, so a cache keyed on a model object can only help within one pass.

The package is reached through module attributes (``catalog.product_model``,
``groebner.buchberger``, ...) at call time, so the tracer's wrappers see
every call the benchmark makes into a layer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# The seed whose groebner outputs are recorded in expected/groebner.json.
DEFAULT_SEED = 0


def digest(text: str) -> str:
    """SHA-256 of the UTF-8 text, in hex."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- paper: the product users run ----------------------------------------------

PAPER_COMMANDS = (
    ("verify-paper",),
    ("verify-paper", "--json"),
    ("verify-paper", "--section", "3"),
    ("verify-paper", "--section", "4"),
    ("verify-paper", "--section", "5", "--json"),
    # the README command-line examples, with the model file written first
    ("exponents", "7"),
    ("check-sac", "1", "1", "--", "2", "3"),
    ("catalog", "build", "dim7-sigma", "2"),
    ("cohomology", "model.txt", "--max-degree", "13"),
    ("regseq", "x1*x2", "x1^2 - x2^2", "x3^2"),
    ("groebner", "x1*x2", "x1^2 - x2^2"),
    ("cubic", "classify", "x^2*y - x*y^2"),
    ("cubic", "elliptic", "x*y*z", "--b2", "3"),
    ("cubic", "associated", "x^3 + y^3 + z^3"),
    ("cubic", "sigma", "x^3 + y^3 + z^3 + 12*x*y*z"),
    ("catalog", "list"),
    ("classify7", "model.txt"),
)

# `catalog build` output is redirected to this file, as in the README.
MODEL_FILE_COMMAND = ("catalog", "build", "dim7-sigma", "2")
MODEL_FILE = "model.txt"


class Paper:
    """Every verify-paper form plus the README examples, through ``cli.main``.

    Operations read and write ``model.txt`` in the current directory, so
    the caller runs them from a scratch directory.
    """

    name = "paper"

    def inputs(self, seed: int):
        return [list(argv) for argv in PAPER_COMMANDS]

    def build(self, inputs):
        from sullivan import cli

        return cli

    def operations(self, inputs):
        from sullivan import cli

        def run(argv):
            def op():
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(list(argv))
                text = out.getvalue()
                if tuple(argv) == MODEL_FILE_COMMAND:
                    Path(MODEL_FILE).write_text(text, encoding="utf-8")
                return {"code": code, "stdout": text}

            return op

        return [(" ".join(argv), run(argv)) for argv in inputs]

    def reference(self, inputs, seed: int):
        recorded = json.loads((EXPECTED_DIR / "paper.json").read_text(encoding="utf-8"))
        return {" ".join(argv): recorded[" ".join(argv)] for argv in inputs}

    def check(self, label: str, output, reference) -> bool:
        expected = reference[label]
        if output["code"] != expected["code"] or digest(output["stdout"]) != expected["sha256"]:
            return False
        if label == "verify-paper":
            return output["stdout"].splitlines()[-1] == "135/135 checks passed"
        if label == "verify-paper --json":
            records = json.loads(output["stdout"])
            return len(records) == 135 and all(r["status"] == "pass" for r in records)
        return True

    def serialize(self, output) -> str:
        return f"{output['code']}\n{output['stdout']}"


# -- cochain: Betti numbers past the paper's sizes -----------------------------

COCHAIN_FACTORS = (("dim6_b3_model", 2), ("dim6_b3_model", 3))
COCHAIN_DEGREE = 7


def _build_product(factors):
    from sullivan import catalog

    first, second = (getattr(catalog, builder)(param) for builder, param in factors)
    return catalog.product_model(first, second)


class Cochain:
    """``betti_numbers`` of a 12-generator product model up to degree 7."""

    name = "cochain"

    def inputs(self, seed: int):
        return {"factors": [list(f) for f in COCHAIN_FACTORS], "degree": COCHAIN_DEGREE}

    def build(self, inputs):
        return _build_product(inputs["factors"])

    def operations(self, inputs):
        from sullivan import model

        def op():
            return model.betti_numbers(self.build(inputs), inputs["degree"])

        return [("betti_numbers", op)]

    def reference(self, inputs, seed: int):
        """Betti numbers of the product by the Kuenneth formula, from the factors."""
        from sullivan import catalog, model

        degree = inputs["degree"]
        factor_betti = [
            model.betti_numbers(getattr(catalog, builder)(param), degree)
            for builder, param in inputs["factors"]
        ]
        a, b = factor_betti
        return tuple(sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(degree + 1))

    def check(self, label: str, output, reference) -> bool:
        return tuple(output) == reference

    def serialize(self, output) -> str:
        return repr(tuple(output))


# -- duality: canonical RREF, kernels and coset reduction ----------------------

DUALITY_FACTORS = (("dim6_b3_model", 2), ("cp_model", 2))


class Duality:
    """``poincare_duality_check`` of an 8-generator product of formal dimension 10."""

    name = "duality"

    def inputs(self, seed: int):
        return {"factors": [list(f) for f in DUALITY_FACTORS]}

    def build(self, inputs):
        return _build_product(inputs["factors"])

    def operations(self, inputs):
        from sullivan import model

        def op():
            return model.poincare_duality_check(self.build(inputs))

        return [("poincare_duality_check", op)]

    def reference(self, inputs, seed: int):
        return True

    def check(self, label: str, output, reference) -> bool:
        return output is reference

    def serialize(self, output) -> str:
        return repr(output)


# -- groebner: dense random quadric systems -------------------------------------

GROEBNER_VARIABLES = ("x1", "x2", "x3")
GROEBNER_SYSTEMS = 160
GROEBNER_QUARTICS = 3
COEFFICIENT_RANGE = (-5, 5)


def _monomials(n: int, degree: int) -> list[tuple[int, ...]]:
    if n == 1:
        return [(degree,)]
    return [(e,) + rest for e in range(degree, -1, -1) for rest in _monomials(n - 1, degree - e)]


QUADRIC_MONOMIALS = _monomials(len(GROEBNER_VARIABLES), 2)
QUARTIC_MONOMIALS = _monomials(len(GROEBNER_VARIABLES), 4)


def _grevlex_key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def _reduces_to_zero(p: dict, basis) -> bool:
    """Division of p by a monic basis given as (lead, terms) pairs leaves nothing."""
    p = dict(p)
    while p:
        lm = max(p, key=_grevlex_key)
        for lead, g in basis:
            if all(a <= b for a, b in zip(lead, lm)):
                shift = tuple(b - a for a, b in zip(lead, lm))
                factor = p[lm]
                for m, c in g.items():
                    target = tuple(a + b for a, b in zip(m, shift))
                    value = p.get(target, 0) - factor * c
                    if value:
                        p[target] = value
                    else:
                        p.pop(target, None)
                break
        else:
            return False
    return True


def _is_reduced_modulo(terms: dict, leads) -> bool:
    return not any(all(a <= b for a, b in zip(lead, m)) for m in terms for lead in leads)


def _render(terms: dict) -> str:
    return repr(sorted((m, str(c)) for m, c in terms.items()))


class Groebner:
    """Per system: ``buchberger``, ``is_regular_sequence`` on the first three
    quadrics, ``hilbert_function(8)`` and the normal forms of a few quartics."""

    name = "groebner"

    def inputs(self, seed: int):
        rng = random.Random(f"groebner-{seed}")
        lo, hi = COEFFICIENT_RANGE
        systems = []
        for i in range(GROEBNER_SYSTEMS):
            # alternate 3 and 4 quadrics, so that every batch has the same mix
            count = 3 + i % 2
            systems.append(
                {
                    "quadrics": [[rng.randint(lo, hi) for _ in QUADRIC_MONOMIALS] for _ in range(count)],
                    "quartics": [
                        [rng.randint(lo, hi) for _ in QUARTIC_MONOMIALS] for _ in range(GROEBNER_QUARTICS)
                    ],
                }
            )
        return systems

    @staticmethod
    def _polys(system):
        """The system's quadrics and quartics as fresh package polynomials."""
        from sullivan import groebner

        ring = groebner.PolyRing(GROEBNER_VARIABLES)
        quadrics = [ring.from_terms(dict(zip(QUADRIC_MONOMIALS, c))) for c in system["quadrics"]]
        quartics = [ring.from_terms(dict(zip(QUARTIC_MONOMIALS, c))) for c in system["quartics"]]
        return ring, quadrics, quartics

    def build(self, inputs):
        return [self._polys(system) for system in inputs]

    def operations(self, inputs):
        from sullivan import groebner

        def run(system):
            def op():
                ring, quadrics, quartics = self._polys(system)
                gb = groebner.buchberger(quadrics, ring)
                return {
                    "inputs": [q.terms for q in quadrics],
                    "basis": [g.terms for g in gb.generators],
                    "regular": groebner.is_regular_sequence(quadrics[:3], ring),
                    "hilbert": gb.hilbert_function(8),
                    "normal_forms": [gb.normal_form(q).terms for q in quartics],
                }

            return op

        return [(f"system-{i}", run(system)) for i, system in enumerate(inputs)]

    def reference(self, inputs, seed: int):
        if seed != DEFAULT_SEED:
            return None
        return json.loads((EXPECTED_DIR / "groebner.json").read_text(encoding="utf-8"))

    def check(self, label: str, output, reference) -> bool:
        basis = []
        for g in output["basis"]:
            lead = max(g, key=_grevlex_key)
            if g[lead] != 1:
                return False
            basis.append((lead, g))
        leads = [lead for lead, _ in basis]
        for i, (lead, g) in enumerate(basis):
            if not _is_reduced_modulo(g, leads[:i] + leads[i + 1 :]):
                return False
        if not all(_reduces_to_zero(p, basis) for p in output["inputs"]):
            return False
        if not all(_is_reduced_modulo(nf, leads) for nf in output["normal_forms"]):
            return False
        if reference is not None:
            return digest(self.serialize(output)) == reference[label]
        return True

    def serialize(self, output) -> str:
        return "\n".join(
            [
                "basis " + " ; ".join(_render(g) for g in output["basis"]),
                f"regular {output['regular']}",
                f"hilbert {output['hilbert']}",
                "normal_forms " + " ; ".join(_render(nf) for nf in output["normal_forms"]),
            ]
        )


WORKLOADS = {w.name: w for w in (Paper(), Cochain(), Duality(), Groebner())}


def inputs_digest(workload, seed: int) -> str:
    """Digest of a workload's generated inputs; equal seeds give equal digests."""
    return digest(json.dumps(workload.inputs(seed), sort_keys=True))
