"""Spans and counters recorded from outside ordext, for the traced run only.

``install`` replaces the public functions and methods of each layer, at
the module and class attributes where ``cli``, ``problemfile`` and the
engine look them up, with wrappers that open a span around the call.
``Installation.restore`` puts the originals back.  Nothing here runs unless the
benchmark is started with ``--trace 1``.

A call made while a span of the same layer is already open joins that
span instead of opening a new one, so spans mark layer boundaries and a
layer's self time is its spans' time minus their children's.  Order
comparisons (``geq``, ``compare``, ``strictly_greater``, ``equivalent``)
are counted, not spanned, and charged to the layer whose span encloses
them; only the outermost comparison of a nested chain counts.
"""

from __future__ import annotations

import gzip
import json
import math
import statistics
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("problemfile", "orders", "monotonicity", "contours", "utility", "extension", "cli")

COMPARISONS = ("geq", "compare", "strictly_greater", "equivalent")
FORMS = (
    "evaluate",
    "evaluate_offset_form",
    "evaluate_by_contour_region",
    "evaluate_by_band",
    "evaluate_pareto_set",
)
BOUND_QUERIES = ("lower_sup", "upper_inf", "contour_occupancy")
PARSERS = ("parse_problem", "parse_queries")
BUILDERS = ("finite_utility", "pareto_base_utility", "squash", "normalize01")
# relation build: the closure, and the constructors of both relation kinds
RELATION_BUILD = ("FinitePreorder.closure", "FinitePreorder.__init__", "ParetoSpace.__init__")
# the span that computes a point's value, directly under the CLI
POINT_SPANS = ("ExtensionEngine.evaluate_all_forms", "ExtensionEngine.evaluate")


class Tracer:
    """In-memory span store plus the counters the wrappers update."""

    def __init__(self):
        self.names: List[Tuple[str, str]] = []      # (layer, qualified name)
        self._name_ids: Dict[Tuple[str, str], int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.command = array("i")
        self._open: List[int] = []                  # indices of open spans
        self._open_layer: List[str] = [""]
        self.command_id = -1
        self.compare_calls: Counter = Counter()     # layer -> comparisons
        self._comparing = False
        self._form_depth = 0
        self.forms = 0
        self.parsed_bytes = 0
        self.oracle_keys: Dict[int, set] = {}       # id(oracle) -> distinct points
        self.bound_queries = 0

    def name_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        nid = self._name_ids.get(key)
        if nid is None:
            nid = self._name_ids[key] = len(self.names)
            self.names.append(key)
        return nid

    def open(self, nid: int, layer: str) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.command.append(self.command_id)
        self.end.append(0)
        self._open.append(idx)
        self._open_layer.append(layer)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._open.pop()
        self._open_layer.pop()

    @property
    def layer(self) -> str:
        return self._open_layer[-1]

    def __len__(self) -> int:
        return len(self.name)

    # ---- analysis -------------------------------------------------------

    def durations(self) -> List[int]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> List[int]:
        own = self.durations()
        for idx, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= self.end[idx] - self.start[idx]
        return own

    def write(self, path: Path, summary: dict) -> None:
        """Summary as JSON; spans as gzipped columns next to it."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = {
            "name": self.name, "start_ns": self.start, "end_ns": self.end,
            "parent": self.parent, "command": self.command,
        }
        span_path = path.with_suffix(".spans.gz")
        with gzip.open(span_path, "wb", compresslevel=1) as handle:
            for column in columns.values():
                column.tofile(handle)
        doc = dict(summary)
        doc["spans"] = {
            "file": span_path.name,
            "count": len(self),
            "layout": "columns in order, each `count` native values: "
            + ", ".join(f"{k} ({c.typecode})" for k, c in columns.items()),
            "names": [list(n) for n in self.names],
        }
        path.write_text(json.dumps(doc, indent=2, sort_keys=True))


def _spanned(tracer: Tracer, layer: str, name: str, fn: Callable,
             before: Optional[Callable] = None) -> Callable:
    nid = tracer.name_id(layer, name)

    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        if tracer.layer == layer:
            return fn(*args, **kwargs)
        idx = tracer.open(nid, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    wrapper.__wrapped__ = fn
    return wrapper


def _counted_comparison(tracer: Tracer, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        if tracer._comparing:
            return fn(*args, **kwargs)
        tracer.compare_calls[tracer.layer] += 1
        tracer._comparing = True
        try:
            return fn(*args, **kwargs)
        finally:
            tracer._comparing = False

    wrapper.__wrapped__ = fn
    return wrapper


def _counted_form(tracer: Tracer, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        if tracer._form_depth == 0:
            tracer.forms += 1
        tracer._form_depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            tracer._form_depth -= 1

    wrapper.__wrapped__ = fn
    return wrapper


class Installation:
    """The attributes replaced by ``install``, so they can be restored."""

    def __init__(self):
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap every layer's public entry points; returns what to restore."""
    from ordext import cli, contours, extension, monotonicity, orders, problemfile, utility

    inst = Installation()

    def module_fn(module, attr, layer, before=None):
        inst.replace(module, attr, _spanned(tracer, layer, attr, module.__dict__[attr], before))

    def method(cls, attr, layer, counted=None):
        fn = cls.__dict__[attr]
        if isinstance(fn, classmethod):
            wrapped = classmethod(_spanned(tracer, layer, f"{cls.__name__}.{attr}", fn.__func__))
        else:
            if counted is not None:
                fn = counted(tracer, fn)
            wrapped = _spanned(tracer, layer, f"{cls.__name__}.{attr}", fn)
        inst.replace(cls, attr, wrapped)

    def count_bytes(args):
        tracer.parsed_bytes += len(args[0].encode())

    def note_bound_query(args):
        oracle, x = args[0], args[1]
        if isinstance(x, orders.Augmented) and x.is_interior:
            x = x.element
        tracer.bound_queries += 1
        tracer.oracle_keys.setdefault(id(oracle), set()).add(x)

    # cli: the command entry point the benchmark calls
    module_fn(cli, "main", "cli")

    # problemfile: parsing, looked up by cli; instance methods on the class
    for name in PARSERS:
        module_fn(cli, name, "problemfile", count_bytes)
    module_fn(cli, "parse_base_utility_flag", "problemfile")
    for name in ("relation", "sample_utility", "to_engine", "with_range", "element_label"):
        method(problemfile.ProblemInstance, name, "problemfile")

    # orders: relation build; comparisons are counted, not spanned
    method(orders.FinitePreorder, "closure", "orders")
    for cls in (orders.FinitePreorder, orders.ParetoSpace):
        method(cls, "__init__", "orders")
    method(orders.FinitePreorder, "equivalence_classes", "orders")
    method(orders.FinitePreorder, "iter_elements", "orders")
    for cls in (orders.Preorder, orders.FinitePreorder, orders.ParetoSpace):
        for name in COMPARISONS:
            if name in cls.__dict__:
                inst.replace(cls, name, _counted_comparison(tracer, cls.__dict__[name]))

    # monotonicity: looked up by cli, and by each other inside the module
    for name in ("check_weakly_increasing", "check_strictly_increasing",
                 "check_gap_safe_finite", "check_gap_safe_pareto"):
        module_fn(cli, name, "monotonicity")
        module_fn(monotonicity, name, "monotonicity")

    # contours: the sample oracle (extreal's sup/inf run inside its scans)
    oracle = contours.FiniteSampleOracle
    method(oracle, "__init__", "contours")
    for name in BOUND_QUERIES:
        fn = oracle.__dict__[name]
        inst.replace(oracle, name, _spanned(
            tracer, "contours", f"FiniteSampleOracle.{name}", fn, note_bound_query))
    for name in ("in_samples", "sample_value"):
        method(oracle, name, "contours")

    # utility: builders as the engine and problemfile look them up, and calls
    for name in BUILDERS:
        module_fn(extension, name, "utility")
    module_fn(problemfile, "pareto_base_utility", "utility")
    method(utility.UtilityFn, "__call__", "utility")

    # extension: engine assembly and every evaluation method
    module_fn(problemfile, "make_engine", "extension")
    engine = extension.ExtensionEngine
    for name in ("__init__", "bounds", "classify_contour_region", "classify_bands",
                 "evaluate_all_forms"):
        method(engine, name, "extension")
    for name in FORMS:
        method(engine, name, "extension", _counted_form)
    return inst


TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def tail(values_sorted: List[float]) -> Tuple[float, float]:
    """Highest listed percentile with at least ten samples beyond it (nearest rank)."""
    n = len(values_sorted)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            return p, values_sorted[max(0, math.ceil(p / 100.0 * n) - 1)]
    return 100.0, values_sorted[-1] if values_sorted else 0.0


def summarize(tracer: Tracer, command_kinds: List[str]) -> dict:
    """Per-layer metrics, and self time per layer for each kind of command."""
    durations = tracer.durations()
    own = tracer.self_times()
    layer_of = [layer for layer, _ in tracer.names]
    qual_of = [name for _, name in tracer.names]
    self_by_layer = dict.fromkeys(LAYERS, 0)
    self_by_kind: Dict[str, Dict[str, int]] = {}
    inclusive: Counter = Counter()
    calls: Counter = Counter()
    point_us = []
    for idx, nid in enumerate(tracer.name):
        layer, qual = layer_of[nid], qual_of[nid]
        self_by_layer[layer] += own[idx]
        per_kind = self_by_kind.setdefault(command_kinds[tracer.command[idx]], {})
        per_kind[layer] = per_kind.get(layer, 0) + own[idx]
        inclusive[qual] += durations[idx]
        inclusive[layer] += durations[idx]
        calls[qual] += 1
        parent = tracer.parent[idx]
        if qual in POINT_SPANS and parent >= 0 and layer_of[tracer.name[parent]] == "cli":
            point_us.append(durations[idx] / 1e3)

    def seconds(*names):
        return sum(inclusive[n] for n in names) / 1e9

    distinct = sum(len(keys) for keys in tracer.oracle_keys.values())
    queries = tracer.bound_queries
    point_us.sort()
    tail_p, tail_us = tail(point_us)
    metrics = {
        "problemfile.parse_s": seconds(*PARSERS),
        "problemfile.bytes": tracer.parsed_bytes,
        "orders.closure_s": seconds(*RELATION_BUILD),
        "orders.compare_calls": sum(tracer.compare_calls.values()),
        "monotonicity.check_s": seconds("monotonicity"),
        "contours.scan_s": seconds(*(f"FiniteSampleOracle.{n}" for n in BOUND_QUERIES)),
        "contours.calls": queries,
        "contours.distinct_points": distinct,
        "contours.hit_ratio": 1.0 - distinct / queries if queries else 0.0,
        "utility.build_s": seconds(*BUILDERS),
        "utility.calls": calls["UtilityFn.__call__"],
        "extension.forms_per_point": tracer.forms / len(point_us) if point_us else 0.0,
        "extension.point_p50_us": statistics.median(point_us) if point_us else 0.0,
        "extension.point_tail_us": tail_us,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_by_layer[layer] / 1e9
    for layer in ("monotonicity", "contours", "utility"):
        metrics[f"{layer}.compare_calls"] = tracer.compare_calls[layer]
    return {
        "metrics": metrics,
        "self_sum_s": sum(self_by_layer.values()) / 1e9,
        "self_by_command_kind_s": {
            kind: {layer: ns / 1e9 for layer, ns in sorted(per.items())}
            for kind, per in sorted(self_by_kind.items())
        },
        "point_tail_percentile": tail_p,
        "points": len(point_us),
    }
