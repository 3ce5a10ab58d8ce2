"""Outside-in span tracer for the ``sullivan`` package.

The tracer wraps each layer's public functions, and the public methods of
``RationalMatrix`` and ``GroebnerBasis``, without touching the package
source.  ``model`` and ``catalog`` bind names with ``from .x import f``, so
a wrapper is installed in every ``sullivan.*`` namespace that holds the
original function, not only in the defining module.

Spans are kept in memory as ``[name, start, end, parent, overhead]`` and
written once, by ``write``, at the end of a run.  ``overhead`` is the time
the tracer's own bookkeeping (input fingerprints, output statistics) took
inside the span, so self time excludes it.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
from collections import Counter
from time import perf_counter

LAYERS = (
    "algebra",
    "linalg",
    "groebner",
    "model",
    "exponents",
    "cubic",
    "roots",
    "catalog",
    "parsing",
    "cli",
)

# Classes whose public methods are wrapped on the class itself.
CLASSES = {"linalg": ("RationalMatrix",), "groebner": ("GroebnerBasis",)}

# Function-level metrics: (span name, stats reported for it).
FUNCTION_METRICS = (
    ("linalg.rank", ("calls", "self_s", "entries", "repeat_frac")),
    ("linalg.rref", ("calls", "self_s", "repeat_frac")),
    ("linalg.kernel_basis", ("calls", "self_s")),
    ("linalg.row_space_rref", ("self_s",)),
    ("model.differential_matrix", ("calls", "self_s", "repeat_frac", "nnz")),
    ("algebra.monomial_basis", ("calls", "self_s", "repeat_frac")),
    ("model.extend_differential", ("calls", "self_s")),
    ("model.betti_numbers", ("self_s",)),
    ("model.poincare_duality_check", ("self_s",)),
    ("model.cup_product_cubic_form", ("self_s",)),
    ("groebner.buchberger", ("calls", "self_s", "out_gens", "out_max_degree")),
    ("groebner.normal_form", ("calls", "self_s")),
    ("groebner.hilbert_function", ("self_s",)),
    ("groebner.krull_dimension", ("self_s",)),
    ("roots.isolate_real_roots", ("calls", "self_s")),
    ("roots.refine_interval", ("calls", "self_s")),
    ("exponents.enumerate_exponents", ("self_s",)),
)

METRIC_UNITS = {
    "calls": "count",
    "self_s": "s",
    "entries": "count",
    "repeat_frac": "ratio",
    "nnz": "count",
    "out_gens": "count",
    "out_max_degree": "count",
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = [
        (f"{fn}.{stat}", METRIC_UNITS[stat])
        for fn, stats in FUNCTION_METRICS
        for stat in stats
    ]
    names += [(f"{layer}.self_s", "s") for layer in LAYERS]
    names.append(("trace.overhead_frac", "ratio"))
    return names


# -- input fingerprints and output statistics ---------------------------------


def _matrix_key(args, kwargs):
    m = args[0]
    return hash((m.rows, m.cols, m.data))


def _model_degree_key(args, kwargs):
    m = args[0] if args else kwargs["m"]
    k = args[1] if len(args) > 1 else kwargs["k"]
    return hash((m.table, m.images, k))


def _table_degree_key(args, kwargs):
    table = args[0] if args else kwargs["table"]
    k = args[1] if len(args) > 1 else kwargs["k"]
    return hash((table, k))


def _rank_stats(args, kwargs, result, counters):
    m = args[0]
    counters["linalg.rank.entries"] += m.rows * m.cols


def _differential_stats(args, kwargs, result, counters):
    matrix = result[0]
    counters["model.differential_matrix.nnz"] += sum(
        1 for row in matrix.data for x in row if x
    )


def _buchberger_stats(args, kwargs, result, counters):
    gens = result.generators
    counters["groebner.buchberger.out_gens"] += len(gens)
    top = max((g.degree() for g in gens), default=0)
    if top > counters["groebner.buchberger.out_max_degree"]:
        counters["groebner.buchberger.out_max_degree"] = top


# span name -> (input fingerprint for repeat_frac, output statistics)
PROBES = {
    "linalg.rank": (_matrix_key, _rank_stats),
    "linalg.rref": (_matrix_key, None),
    "model.differential_matrix": (_model_degree_key, _differential_stats),
    "algebra.monomial_basis": (_table_degree_key, None),
    "groebner.buchberger": (None, _buchberger_stats),
}


class Tracer:
    """Records spans around the package's layer boundaries while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._overhead = 0.0
        self._seen: dict[str, set] = {}
        self._counters: Counter = Counter()
        self._pass_start = 0
        self._restore: list[tuple[object, str, object]] = []
        self.passes: list[dict[str, float]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions in every sullivan namespace."""
        import importlib

        modules = {layer: importlib.import_module(f"sullivan.{layer}") for layer in LAYERS}
        wrappers = {}  # id(original) -> wrapper
        for layer, module in modules.items():
            methods = set()
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(module, cls_name)
                for name, fn in list(vars(cls).items()):
                    if name.startswith("_") or not inspect.isfunction(fn):
                        continue
                    methods.add(name)
                    self._set(cls, name, self._wrap(f"{layer}.{name}", fn))
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                # module-level aliases (linalg.rank, groebner.normal_form, ...)
                # only delegate to the wrapped method of the same name
                if name in methods:
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "sullivan" or mod_name.startswith("sullivan.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _set(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        key_fn, stats_fn = PROBES.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = perf_counter()
            if key_fn is not None:
                seen = tracer._seen.setdefault(name, set())
                key = key_fn(args, kwargs)
                if key in seen:
                    tracer._counters[name + ".repeats"] += 1
                else:
                    seen.add(key)
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            start = perf_counter()
            tracer._overhead += start - pre
            inner = tracer._overhead
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span[1] = start
                span[2] = end
                span[4] = tracer._overhead - inner
            if stats_fn is not None:
                stats_fn(args, kwargs, result, tracer._counters)
            tracer._overhead += perf_counter() - end
            return result

        return traced

    # -- passes --------------------------------------------------------------

    def begin_pass(self) -> None:
        self._pass_start = len(self.spans)
        self._seen = {}
        self._counters = Counter()

    def run_op(self, label: str, thunk):
        """Run one workload operation under a root span named ``op.<label>``."""
        span = ["op." + label, 0.0, 0.0, -1, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        inner = self._overhead
        span[1] = perf_counter()
        try:
            return thunk()
        finally:
            span[2] = perf_counter()
            self._stack.pop()
            span[4] = self._overhead - inner

    def end_pass(self) -> dict[str, float]:
        """Per-layer metrics of the pass that began at the last ``begin_pass``."""
        spans = self.spans[self._pass_start :]
        base = self._pass_start
        self_time = [(s[2] - s[1]) - s[4] for s in spans]
        for s in spans:
            if s[3] >= base:
                self_time[s[3] - base] -= (s[2] - s[1]) - s[4]
        calls: dict[str, int] = {}
        fn_self: dict[str, float] = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for s, t in zip(spans, self_time):
            name = s[0]
            if name.startswith("op."):
                continue
            calls[name] = calls.get(name, 0) + 1
            fn_self[name] = fn_self.get(name, 0.0) + t
            layer_self[name.split(".", 1)[0]] += t
        out: dict[str, float] = {}
        for fn, stats in FUNCTION_METRICS:
            n = calls.get(fn, 0)
            for stat in stats:
                if stat == "calls":
                    value = n
                elif stat == "self_s":
                    value = fn_self.get(fn, 0.0)
                elif stat == "repeat_frac":
                    value = self._counters[fn + ".repeats"] / n if n else 0.0
                else:
                    value = self._counters[f"{fn}.{stat}"]
                out[f"{fn}.{stat}"] = value
        for layer, t in layer_self.items():
            out[f"{layer}.self_s"] = t
        self.passes.append(out)
        return out

    def summary(self) -> dict[str, float]:
        """Median of each metric over the traced passes."""
        keys = self.passes[0].keys()
        return {k: statistics.median(p[k] for p in self.passes) for k in keys}

    def write(self, path) -> None:
        """Write every recorded span, once, as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "overhead"], "spans": self.spans},
                handle,
            )
