"""One fresh, single-threaded benchmark process.

    python3 perfbench/worker.py setup <workload> <seed>
    python3 perfbench/worker.py run <workload> <seed> <seconds> <trace>

``setup`` times ``import sullivan`` plus input construction and prints it
with a digest of the generated inputs.  ``run`` repeats passes over the
workload's operations for about ``seconds`` seconds, checks every output,
and prints pass and operation timings.  With trace 1 the first half of the
budget runs untraced and the second half under the tracer; the per-layer
metrics come from the traced passes.  Each mode prints one JSON line.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, inputs_digest  # noqa: E402


def _import_program() -> None:
    import sullivan

    source = Path(sullivan.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise ImportError(f"sullivan was imported from {source}, not from {ROOT / 'src'}")


def setup(workload, seed: int) -> dict:
    start = perf_counter()
    _import_program()
    inputs = workload.inputs(seed)
    workload.build(inputs)
    elapsed = perf_counter() - start
    return {"setup_s": elapsed, "inputs_sha256": inputs_digest(workload, seed)}


# Iterations of the reference loop: about 30 ms on a 2.1 GHz Xeon vCPU.
REFERENCE_ITERATIONS = 9000


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python job: Fraction arithmetic and dict stores.

    It is timed before and after every operation.  The speed of the host
    drifts by tens of percent over seconds to minutes, and this loop slows
    down with it, so an operation's time divided by the mean time of the
    two loops around it cancels the drift.  That ratio is the unit ``ref``.
    """
    start = perf_counter()
    step = Fraction(1, 3)
    total = Fraction(0)
    table = {}
    for i in range(REFERENCE_ITERATIONS):
        total += step * i
        table[i & 255] = total
    return perf_counter() - start


def run_passes(workload, inputs, reference, budget: float, state: dict, tracer=None) -> list[dict]:
    """Passes until the next one would overrun ``budget`` seconds; at least one.

    Returns each pass's time in seconds and in reference units.  ``state``
    accumulates operation latencies in reference units, attempted/failed
    counts and the serialized output of each operation, which every later
    pass, traced or not, must reproduce byte for byte.
    """
    passes: list[dict] = []
    begin = perf_counter()
    while True:
        if tracer is not None:
            tracer.begin_pass()
        outputs = []
        seconds = refs = 0.0
        before = reference_loop()
        for label, thunk in workload.operations(inputs):
            t0 = perf_counter()
            try:
                output = tracer.run_op(label, thunk) if tracer is not None else thunk()
            except Exception:  # a failed operation is counted, not fatal
                traceback.print_exc()
                output = None
            elapsed = perf_counter() - t0
            after = reference_loop()
            op_ref = elapsed / ((before + after) / 2)
            before = after
            state["op_ref"].append(op_ref)
            seconds += elapsed
            refs += op_ref
            outputs.append((label, output))
        passes.append({"s": seconds, "ref": refs})
        if tracer is not None:
            tracer.end_pass()
        for label, output in outputs:
            state["attempted"] += 1
            if output is None or not workload.check(label, output, reference):
                print(f"check failed: {workload.name} {label}", file=sys.stderr)
                state["failed"] += 1
                continue
            text = workload.serialize(output)
            if state["outputs"].setdefault(label, text) != text:
                print(f"output changed between passes: {workload.name} {label}", file=sys.stderr)
                state["failed"] += 1
        if perf_counter() - begin + statistics.median(p["s"] for p in passes) > budget:
            return passes


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    _import_program()
    inputs = workload.inputs(seed)
    reference = workload.reference(inputs, seed)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{workload.name}-{os.getpid()}"
    workdir.mkdir()
    cwd = os.getcwd()
    os.chdir(workdir)
    state = {"op_ref": [], "attempted": 0, "failed": 0, "outputs": {}}
    try:
        if not trace:
            passes = run_passes(workload, inputs, reference, seconds, state)
            return {
                "pass_s": [p["s"] for p in passes],
                "pass_ref": [p["ref"] for p in passes],
                "op_ref": state["op_ref"],
                "attempted": state["attempted"],
                "failed": state["failed"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        plain = run_passes(workload, inputs, reference, seconds / 2, state)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(workload, inputs, reference, seconds / 2, state, tracer)
        finally:
            tracer.uninstall()
        tracer.write(OUT_DIR / f"spans-{workload.name}-seed{seed}.json")
        per_layer = tracer.summary()
        per_layer["trace.overhead_frac"] = (
            statistics.median(p["ref"] for p in traced) / statistics.median(p["ref"] for p in plain) - 1.0
        )
        return {
            "attempted": state["attempted"],
            "failed": state["failed"],
            "per_layer": per_layer,
        }
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    workload = WORKLOADS[name]
    if mode == "setup":
        result = setup(workload, seed)
    elif mode == "run":
        result = run(workload, seed, float(argv[3]), argv[4] == "1")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
