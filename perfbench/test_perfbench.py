"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They run real passes of the workloads (about a minute in total), because
what they check is that the benchmark measures the program it claims to.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import Tracer, metric_names  # noqa: E402
from workloads import WORKLOADS, inputs_digest  # noqa: E402


def _one_pass(workload, tracer=None):
    """Serialized outputs of one checked pass, optionally under the tracer."""
    inputs = workload.inputs(0)
    reference = workload.reference(inputs, 0)
    if tracer is not None:
        tracer.begin_pass()
    outputs = {}
    for label, thunk in workload.operations(inputs):
        output = tracer.run_op(label, thunk) if tracer is not None else thunk()
        assert workload.check(label, output, reference), label
        outputs[label] = workload.serialize(output)
    return outputs, tracer.end_pass() if tracer is not None else None


def _traced_pass(workload):
    tracer = Tracer()
    tracer.install()
    try:
        return _one_pass(workload, tracer)
    finally:
        tracer.uninstall()


def test_same_seed_gives_identical_inputs_across_processes():
    for name in WORKLOADS:
        digests = set()
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "setup", name, "7"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                check=True,
            )
            digests.add(json.loads(proc.stdout.splitlines()[-1])["inputs_sha256"])
        assert digests == {inputs_digest(WORKLOADS[name], 7)}


def test_different_seeds_give_different_groebner_inputs():
    groebner = WORKLOADS["groebner"]
    assert inputs_digest(groebner, 1) != inputs_digest(groebner, 2)
    assert groebner.inputs(3) == groebner.inputs(3)


@pytest.mark.parametrize("name", ["paper", "groebner"])
def test_traced_and_untraced_outputs_are_identical(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    plain, _ = _one_pass(WORKLOADS[name])
    traced, metrics = _traced_pass(WORKLOADS[name])
    assert traced == plain
    assert metrics["groebner.buchberger.calls"] > 0


@pytest.fixture(scope="module")
def traced_metrics():
    return {name: _traced_pass(WORKLOADS[name])[1] for name in ("cochain", "duality")}


@pytest.mark.parametrize("name", ["cochain", "duality"])
def test_cochain_and_duality_never_call_buchberger(traced_metrics, name):
    assert traced_metrics[name]["groebner.buchberger.calls"] == 0
    assert traced_metrics[name]["linalg.rank.calls"] > 0


def test_from_imports_are_rebound(traced_metrics):
    # model binds monomial_basis with `from .algebra import monomial_basis`;
    # the cochain workload only reaches it through that name.
    assert traced_metrics["cochain"]["algebra.monomial_basis.calls"] > 0


def test_uninstall_restores_every_binding():
    import sullivan
    from sullivan import algebra, linalg, model

    before = (model.monomial_basis, sullivan.betti_numbers, linalg.RationalMatrix.rank)
    tracer = Tracer()
    tracer.install()
    assert model.monomial_basis is not before[0]
    assert model.monomial_basis is algebra.monomial_basis
    tracer.uninstall()
    assert (model.monomial_basis, sullivan.betti_numbers, linalg.RationalMatrix.rank) == before


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == metric_names()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
