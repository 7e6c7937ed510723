"""Spans around calls into the library's public functions, from outside.

Each wrapped function records one span (name, start, end, parent span) per
call while recording is on.  The wrapper replaces the function in every
loaded module that binds it by name, so calls between library modules are
traced too (``resultant`` and ``echar`` import ``det_rational``,
``det_interpolated`` and ``macaulay_resultant`` at import time).  Spans
stay in memory; the per-layer metrics, self times included, are computed
from them when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

# (module, attribute, span name).  "Class.method" patches the method on the class.
TARGETS = (
    ("echarpoly.document", "TensorDocument.from_json", "document.parse"),
    ("echarpoly.document", "TensorDocument.to_hypermatrix", "document.parse"),
    ("echarpoly.tensor", "binary_slices", "tensor.binary_slices"),
    ("echarpoly.tensor", "rotate", "tensor.rotate"),
    ("echarpoly.echar", "echar", "echar.echar"),
    ("echarpoly.echar", "echar_even_n2", "echar.route"),
    ("echarpoly.echar", "echar_odd_n2", "echar.route"),
    ("echarpoly.echar", "echar_det_even", "echar.route"),
    ("echarpoly.echar", "echar_det_odd", "echar.route"),
    ("echarpoly.echar", "echar_macaulay", "echar.echar_macaulay"),
    ("echarpoly.echar", "a0_predicted", "echar.a0_predicted"),
    ("echarpoly.resultant", "sylvester_resultant", "resultant.sylvester_resultant"),
    ("echarpoly.resultant", "macaulay_resultant", "resultant.macaulay_resultant"),
    ("echarpoly.polymat", "det_interpolated", "polymat.det_interpolated"),
    ("echarpoly.polymat", "det_rational", "polymat.det_rational"),
    ("echarpoly.polymat", "PolyMatrix.evaluate", "polymat.evaluate"),
    ("echarpoly.poly", "lagrange_interpolate", "poly.lagrange_interpolate"),
    ("echarpoly.poly", "poly_sqrt", "poly.poly_sqrt"),
    ("echarpoly.poly", "squarefree_decomposition", "poly.squarefree_decomposition"),
    ("echarpoly.poly", "complex_roots", "poly.complex_roots"),
    ("echarpoly.eigen", "eigenpairs_n2", "eigen.eigenpairs_n2"),
    ("echarpoly.eigen", "z_eigenpairs", "eigen.z_eigenpairs"),
    ("echarpoly.eigen", "is_regular", "eigen.is_regular"),
    ("echarpoly.verify", "run_checks", "verify.run_checks"),
)

#: Span names that take a route; the outermost one in a call chain counts the route.
ROUTE_SPANS = ("echar.echar", "echar.route", "echar.echar_macaulay")

#: Every per-layer metric, name -> unit, as BENCHMARK.json lists them.
METRICS = {
    metric["name"]: metric["unit"]
    for metric in json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())[
        "per_layer"
    ]
}

# Span fields.
NAME, START, END, PARENT, INFO = range(5)
#: INFO of a span whose call raised: it has no result to describe.
RAISED = "raised"


def _info(name: str, args, kwargs, result):
    """What a span keeps besides its timing."""
    if name == "polymat.det_rational":
        rows = args[0]
        return len(rows), result.numerator.bit_length() + result.denominator.bit_length()
    if name in ROUTE_SPANS:
        A = args[0]
        auto = kwargs.get("route", args[1] if len(args) > 1 else "auto") == "auto"
        fallback = (
            name == "echar.echar"
            and auto
            and A.dim == 2
            and A.order % 2 == 1
            and result.route == "macaulay"
        )
        return result.route, fallback
    if name == "poly.lagrange_interpolate":
        return len(args[0])
    if name == "eigen.is_regular":
        return args[0].dim
    return None


class Tracer:
    """Span recorder; records only between start() and stop()."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._recording = False

    def start(self):
        self._recording = True

    def stop(self):
        self._recording = False

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._recording:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[INFO] = RAISED
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            span[INFO] = _info(name, args, kwargs, result)
            return result

        return traced

    def install(self, extra_modules=()):
        """Replace each target in its module and in every module that imported it."""
        for module_name, attr, span_name in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    setattr(cls, method, classmethod(self._wrap(span_name, raw.__func__)))
                else:
                    setattr(cls, method, self._wrap(span_name, raw))
                continue
            original = getattr(module, attr)
            traced = self._wrap(span_name, original)
            holders = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "echarpoly"]
            for holder in holders + list(extra_modules):
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, traced)

    def metrics(self, rounds: int, latencies_s: list[float], completed: int) -> dict:
        """Per-layer metrics per round (counts and seconds), from the recorded spans.

        `latencies_s` are the scaled latencies of every attempt, as in the
        untraced run; span times are not scaled.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        children: dict[int, list[int]] = {}
        for index, span in enumerate(spans):
            parent = span[PARENT]
            if parent >= 0:
                child_time[parent] += span[END] - span[START]
                children.setdefault(parent, []).append(index)
        totals: dict[str, float] = {name: 0 for name in METRICS}
        size_max = bits_max = 0

        def add(key, value):
            totals[key] += value

        for index, span in enumerate(spans):
            name, start, end, parent, info = span
            if info is RAISED:
                # The operation counts as failed; its children still count.
                continue
            duration = end - start
            own = duration - child_time[index]
            kids = children.get(index, [])
            parent_name = spans[parent][NAME] if parent >= 0 else None
            if name == "document.parse":
                add("document.parse.s", duration)
            elif name.startswith("tensor."):
                add(f"{name}.calls", 1)
                add(f"{name}.s", duration)
            elif name.startswith("echar."):
                add("echar.self_s", own)
                if name == "echar.a0_predicted":
                    add("echar.a0_predicted.s", duration)
                    continue
                if info is not None and parent_name not in ROUTE_SPANS:
                    route, fallback = info
                    add("echar.calls", 1)
                    add(f"echar.route.{route}.calls", 1)
                if info is not None and info[1]:
                    add("echar.fallback.calls", 1)
                    add("echar.fallback.s", duration)
            elif name == "resultant.sylvester_resultant":
                add("resultant.sylvester_resultant.calls", 1)
                add("resultant.sylvester_resultant.s", duration)
            elif name == "resultant.macaulay_resultant":
                add("resultant.macaulay_resultant.calls", 1)
                add("resultant.macaulay_resultant.self_s", own)
                if parent_name == "echar.echar_macaulay":
                    add("echar.macaulay.nodes", 1)
                kid_names = [spans[k][NAME] for k in kids]
                dets = kid_names.count("polymat.det_rational")
                if "polymat.det_interpolated" in kid_names:
                    add("resultant.macaulay.perturbed_calls", 1)
                    add("resultant.macaulay.perturbed_s", duration)
                    add("resultant.macaulay.orderings_tried", dets)
                else:
                    # the ordering that worked took two determinants: minor, then full
                    add("resultant.macaulay.orderings_tried", max(dets - 1, 0))
            elif name == "polymat.det_interpolated":
                add("polymat.det_interpolated.calls", 1)
                add("polymat.det_interpolated.self_s", own)
                add(
                    "polymat.det_interpolated.nodes",
                    sum(1 for k in kids if spans[k][NAME] == "polymat.det_rational"),
                )
            elif name == "polymat.evaluate":
                add("polymat.evaluate.calls", 1)
                add("polymat.evaluate.s", duration)
            elif name == "polymat.det_rational":
                size, bits = info
                add("polymat.det_rational.calls", 1)
                add("polymat.det_rational.s", duration)
                add("polymat.det_rational.entries", size * size)
                size_max = max(size_max, size)
                bits_max = max(bits_max, bits)
            elif name == "poly.lagrange_interpolate":
                add("poly.lagrange_interpolate.calls", 1)
                add("poly.lagrange_interpolate.points", info)
                add("poly.lagrange_interpolate.s", duration)
            elif name.startswith("poly."):
                add(f"{name}.s", duration)
            elif name == "eigen.is_regular":
                add(f"eigen.is_regular.n{info}.s", duration)
            elif name.startswith("eigen."):
                add(f"{name}.s", duration)
            elif name == "verify.run_checks":
                add("verify.run_checks.self_s", own)
        out = {}
        for key, total in totals.items():
            if METRICS[key] == "count":
                value = total // rounds if total % rounds == 0 else total / rounds
            else:
                value = total / rounds
            out[key] = value
        out["polymat.det_rational.size_max"] = size_max
        out["polymat.det_rational.bits_max"] = bits_max
        out["trace.tensors_per_s"] = completed / sum(latencies_s)
        out["trace.tensor_ms_p50"] = statistics.median(latencies_s) * 1e3
        return {key: {"value": out[key], "unit": unit} for key, unit in METRICS.items()}

    def dump(self, path):
        """Write every span as `name start end parent`, one per line."""
        with open(path, "w") as handle:
            for name, start, end, parent, _ in self.spans:
                handle.write(f"{name} {start:.9f} {end:.9f} {parent}\n")
