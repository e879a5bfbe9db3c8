"""Span and counter tracing of wlab, installed from outside the package.

``Tracer.install`` replaces every public function of the traced modules,
and every public method (plus ``__call__``) of the classes they define,
with a wrapper that records a span (name, start, end, parent span, op id)
and a call counter.  Module namespaces that re-import a wrapped function
(``compute_periods`` is bound in cli, bounds, curvature and mesh) are
rebound to the same wrapper, so every call site is seen.

Self time of a span is its duration minus the time covered by its child
spans; it is summed per layer (the module that defines the callee).
Counters and self times are kept per op and merged only when the op
finishes, so an op that hits the harness time limit leaves no partial
counts behind and two traced runs of the same inputs repeat exactly.
Spans stay in memory (up to ``MAX_SPANS``) and are written as JSON lines
by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter

LAYERS = (
    "cli",
    "exprparse",
    "rational",
    "poly",
    "roots",
    "weierstrass",
    "ramification",
    "bounds",
    "curvature",
    "mesh",
    "report",
)

MAX_SPANS = 100_000


def _size(z) -> int:
    size = getattr(z, "size", None)
    return int(size) if size is not None else 1


class Tracer:
    def __init__(self):
        self.counters: Counter = Counter()
        self.self_s: Counter = Counter()
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.unique_roots_inputs: set = set()
        # innermost three wrapped calls each timed-out op was in
        self.timeout_sites: Counter = Counter()
        self._raised = None  # (exception, keys it passed, innermost first)
        self._op = None
        self._op_counters: Counter = Counter()
        self._op_self: Counter = Counter()
        self._op_roots_inputs: set = set()
        self._op_span_mark = 0
        self._op_dropped_mark = 0
        self._stack: list[list] = []  # [span id, start, child time]
        self._next_span = 0
        self._mesh_depth = 0

    # -- op bookkeeping ---------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._op_counters = Counter()
        self._op_self = Counter()
        self._op_roots_inputs = set()
        self._op_span_mark = len(self.spans)
        self._op_dropped_mark = self.spans_dropped
        self._stack.clear()
        self._mesh_depth = 0
        self._raised = None

    def end_op(self, keep: bool) -> None:
        """Merge the op's counts, or drop them (timed-out op)."""
        if keep:
            self.counters.update(self._op_counters)
            self.self_s.update(self._op_self)
            self.unique_roots_inputs |= self._op_roots_inputs
        else:
            del self.spans[self._op_span_mark :]
            self.spans_dropped = self._op_dropped_mark
            site = " < ".join(self._raised[1][:3]) if self._raised else "harness"
            self.timeout_sites[site] += 1
        self._op = None

    # -- wrapping ---------------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced layers of the imported wlab package."""
        originals: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"wlab.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapper = self._wrap(obj, layer, f"{layer}.{name}")
                    originals[id(obj)] = wrapper
                    setattr(module, name, wrapper)
                elif (
                    inspect.isclass(obj)
                    and obj.__module__ == module.__name__
                    and not issubclass(obj, BaseException)
                ):
                    self._wrap_class(obj, layer)
        # rebind re-imports (``from .weierstrass import compute_periods``)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "wlab" or modname.startswith("wlab.")):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None and obj is not wrapper:
                    setattr(module, name, wrapper)

    def _wrap_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name != "__call__":
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(attr.__func__, layer, key)))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self._wrap(attr.__func__, layer, key)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(attr, layer, key))

    def _wrap(self, fn, layer: str, key: str):
        tracer = self
        stack = self._stack
        clock = time.perf_counter
        on_call = _CALL_HOOKS.get(key)
        on_return = _RETURN_HOOKS.get(key)
        is_mesh_build = key == "mesh.build_mesh"
        is_export = key == "mesh.export_mesh"

        def wrapper(*args, **kwargs):
            counters = tracer._op_counters
            counters[key] += 1
            if on_call is not None:
                on_call(tracer, args)
            span_id = tracer._next_span
            tracer._next_span += 1
            parent = stack[-1][0] if stack else -1
            if is_mesh_build:
                tracer._mesh_depth += 1
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                counters[f"{key}.raised.{type(exc).__name__}"] += 1
                if tracer._raised is None or tracer._raised[0] is not exc:
                    tracer._raised = (exc, [key])
                else:
                    tracer._raised[1].append(key)
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                tracer._op_self[layer] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if is_mesh_build:
                    tracer._mesh_depth -= 1
                if is_export:
                    tracer._op_self["mesh.export"] += duration
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((key, frame[1], end, span_id, parent, tracer._op))
                else:
                    tracer.spans_dropped += 1
            if on_return is not None:
                on_return(tracer, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- output -----------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, span_id, parent, op in self.spans:
                record = {"name": name, "start": start, "end": end, "id": span_id, "parent": parent, "op": op}
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


# -- counters beyond call counts ---------------------------------------------------


def _roots_call(tracer: Tracer, args) -> None:
    p = args[0]
    tracer._op_counters["roots.degree_sum"] += int(getattr(p, "degree", 0))
    key = getattr(p, "coeffs", None)
    tracer._op_roots_inputs.add(key if key is not None else repr(p))


def _poly_eval(tracer: Tracer, args) -> None:
    points = _size(args[1]) if len(args) > 1 else 1
    tracer._op_counters["poly.eval_points"] += points
    if tracer._mesh_depth:
        tracer._op_counters["mesh.eval_points"] += points


def _density_points(tracer: Tracer, args) -> None:
    tracer._op_counters["curvature.density_points"] += _size(args[1]) if len(args) > 1 else 1


def _rotation_attempts(tracer: Tracer, result) -> None:
    tracer._op_counters["bounds.rotation_attempts"] += int(getattr(result, "attempts", 0))


def _report_bytes(tracer: Tracer, result) -> None:
    tracer._op_counters["report.bytes"] += len(result.encode("utf-8")) if isinstance(result, str) else 0


def _mesh_vertices(tracer: Tracer, result) -> None:
    tracer._op_counters["mesh.vertices"] += int(getattr(result, "included_count", 0))


_CALL_HOOKS = {
    "roots.roots_with_multiplicity": _roots_call,
    "poly.Polynomial.__call__": _poly_eval,
    "curvature.spherical_derivative": _density_points,
}
_RETURN_HOOKS = {
    "bounds.rotation_normalize": _rotation_attempts,
    "report.to_json": _report_bytes,
    "mesh.build_mesh": _mesh_vertices,
}


def per_layer_metrics(tracer: Tracer, timeouts: int, overhead_frac: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from one traced phase."""
    c = tracer.counters
    s = tracer.self_s

    def ratio(num, den) -> float:
        return float(num) / den if den else 0.0

    roots_calls = c["roots.roots_with_multiplicity"]
    eval_calls = c["poly.Polynomial.__call__"]
    metrics = {
        "weierstrass.compute_periods.calls": (c["weierstrass.compute_periods"], "count"),
        "weierstrass.phi_from_data.calls": (c["weierstrass.phi_from_data"], "count"),
        "weierstrass.check_conformality.calls": (c["weierstrass.check_conformality"], "count"),
        "rational.residue_at.calls": (c["rational.RationalFunction.residue_at"], "count"),
        "rational.finite_poles.calls": (c["rational.RationalFunction.finite_poles"], "count"),
        "roots.unique_input_frac": (ratio(len(tracer.unique_roots_inputs), roots_calls), "ratio"),
        "roots.calls": (roots_calls, "count"),
        "roots.degree_sum": (c["roots.degree_sum"], "count"),
        "roots.cross_check_errors": (
            c["roots.roots_with_multiplicity.raised.RootCrossCheckError"],
            "count",
        ),
        "roots.ill_conditioned_errors": (
            c["roots.roots_with_multiplicity.raised.IllConditionedRootsError"],
            "count",
        ),
        "poly.approx_gcd.calls": (c["poly.approx_gcd"], "count"),
        "poly.divmod_by.calls": (c["poly.Polynomial.divmod_by"], "count"),
        "poly.eval_calls": (eval_calls, "count"),
        "poly.eval_points_per_call": (ratio(c["poly.eval_points"], eval_calls), "points/call"),
        "mesh.eval_points_per_vertex": (
            ratio(c["mesh.eval_points"], c["mesh.vertices"]),
            "points/vertex",
        ),
        "mesh.export_s": (float(s["mesh.export"]), "s"),
        "curvature.density_points": (c["curvature.density_points"], "count"),
        "bounds.rotation_attempts": (c["bounds.rotation_attempts"], "count"),
        "ramification.preimages.calls": (c["ramification.preimages"], "count"),
        "report.bytes": (c["report.bytes"], "bytes"),
        "timeouts": (timeouts, "count"),
        "trace_overhead_frac": (overhead_frac, "ratio"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (float(s[layer]), "s")
    return metrics
