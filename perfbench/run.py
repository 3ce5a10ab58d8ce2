"""Benchmark of the ``sullivan`` package.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src``.  Each workload runs in its own fresh single-threaded process, one
at a time.  With ``--trace 0`` the run reports the end-to-end metrics:

- ``pass_ref``: median time of one pass over the workload's operations, in
  reference units (see ``worker.reference_loop``);
- ``setup_s``: median, over several fresh interpreters, of ``import
  sullivan`` plus input construction;
- ``peak_rss_mb``: peak resident memory of the measuring process;
- ``ok_frac``: operations whose output checked out, over those attempted;
- ``op_p90_ref``: 90th-percentile per-operation latency in reference
  units, pooled over passes.

With ``--trace 1`` it reports the per-layer metrics of ``tracer.py``
instead.  Every line is human-readable except the last, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload and prefixes each metric with the
workload name.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))

from tracer import metric_names  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# Fresh interpreters timed per run for setup_s, half before and half after the
# measurement; one more runs first, untimed, so that compiling the package's
# bytecode is not counted.
SETUP_RUNS = 9
END_TO_END = (
    ("pass_ref", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("op_p90_ref", "ref"),
)
# A run never outlives this, whatever --seconds says.
WORKER_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    pass


def _worker(*args) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *map(str, args)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker {args} did not finish in {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {args} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _p90(values: list[float]) -> float:
    """90th percentile of the pooled samples, interpolated between neighbours."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload's result object: correct, attempted, failed, metrics."""
    if trace:
        result = _worker("run", name, seed, seconds, 1)
        metrics = {m: {"value": result["per_layer"][m], "unit": u} for m, u in metric_names()}
    else:
        _worker("setup", name, seed)
        probes = [_worker("setup", name, seed) for _ in range(SETUP_RUNS // 2)]
        result = _worker("run", name, seed, seconds, 0)
        probes += [_worker("setup", name, seed) for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
        if len({p["inputs_sha256"] for p in probes}) != 1:
            raise BenchmarkError(f"{name}: seed {seed} gave different inputs in different processes")
        op_ref = result["op_ref"]
        values = {
            "pass_ref": statistics.median(result["pass_ref"]),
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_frac": (result["attempted"] - result["failed"]) / result["attempted"],
            "op_p90_ref": _p90(op_ref),
        }
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
        # Shown to the reader but not a metric: it moves with the host's speed.
        print(f"{name:8s} {'pass time in seconds':40s} {statistics.median(result['pass_s']):.6g} s")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "sullivan" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'sullivan'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: measure(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name:8s} {metric:40s} {m['value']:.6g} {m['unit']}")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": m
                for name, r in results.items()
                for metric, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
