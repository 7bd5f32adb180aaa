"""Span tracing of gaugetorsion's layers from outside the package.

``Tracer.install`` replaces every public function of the eight layer modules,
and the arithmetic methods listed in ``METHODS``, with a wrapper that records
one span per call: name, parent span, start and end. A function is replaced in
every gaugetorsion namespace that holds it, so calls between modules are
traced too. Spans stay in memory until ``dump`` writes them out; per-layer
metrics are derived from them afterwards by ``summarize`` and
``layer_metrics``. Nothing under ``src/`` is modified, and no private memo
table is read.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from itertools import zip_longest

LAYERS = ("fp", "polyring", "steenrod", "chern", "suspension", "matrices", "torsion", "cli")

# (module, class, method) -> span name, beside each layer's public functions.
METHODS = {
    ("fp", "Prime", "__init__"): "fp.prime",
    ("polyring", "MultiPoly", "__mul__"): "polyring.mul",
    ("polyring", "UniPoly", "__mul__"): "polyring.mul",
    ("chern", "ChernPoly", "__mul__"): "chern.chernpoly_mul",
    ("matrices", "FpMatrix", "__mul__"): "matrices.mul",
    ("matrices", "IntMatrix", "__mul__"): "matrices.mul",
    ("matrices", "FpMatrix", "det"): "matrices.det",
    ("matrices", "IntMatrix", "det"): "matrices.det",
}


@functools.lru_cache(maxsize=None)
def _identity_rows(n: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _terms(poly) -> int:
    return len(getattr(poly, "terms", None) or getattr(poly, "coeffs", ()))


def _work_matrix_mul(a, b):
    eye = _identity_rows(a.n)
    return (a.n**3, int(a.rows == eye or b.rows == eye))


def _work_poly_mul(a, b):
    return (_terms(a) * _terms(b),)


# Span name -> function of the call's arguments giving the span's work record.
WORK = {
    "matrices.mul": _work_matrix_mul,
    "polyring.mul": _work_poly_mul,
    "chern.chernpoly_mul": _work_poly_mul,
    "torsion.decide_p": lambda n, k, p: (int(n % int(p) == 0),),
    "suspension.solve_alpha_p": lambda n, p, k: (n, int(p)),  # the memo key, not summed
}


def public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [
            name
            for name, obj in vars(module).items()
            if not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        ]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield name, obj


def replace_everywhere(original, replacement) -> list:
    """Rebind every gaugetorsion module attribute that is ``original``.

    Returns (namespace, name) pairs so the caller can restore them.
    """
    bound = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or mod_name.split(".")[0] != "gaugetorsion":
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                bound.append((module, name))
    return bound


class Tracer:
    """Records spans for the calls it wraps, in one list per process."""

    def __init__(self) -> None:
        # Each span: [name, parent index or -1, start_ns, end_ns, work tuple or None].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list = []
        self.caches: dict[str, object] = {}

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                if work:
                    # Inside the span, so the record's cost is charged to this
                    # call and not to the caller's self time.
                    span[4] = work(*args)
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"gaugetorsion.{layer}")
            for name, fn in public_functions(module):
                if hasattr(fn, "cache_info"):
                    self.caches[f"{layer}.{name}"] = fn
                wrapper = self._wrap(f"{layer}.{name}", fn)
                self._undo += [(ns, attr, fn) for ns, attr in replace_everywhere(fn, wrapper)]
        for (layer, cls_name, method), span_name in METHODS.items():
            cls = getattr(importlib.import_module(f"gaugetorsion.{layer}"), cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self._wrap(span_name, original))
            self._undo.append((cls, method, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def cache_counts(self) -> dict:
        return {name: list(fn.cache_info()[:2]) for name, fn in self.caches.items()}

    def dump(self, path: str, **extra) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, **extra}, handle)


def _add(a, b) -> list:
    return [x + y for x, y in zip_longest(a, b, fillvalue=0)]


def summarize(spans: list, start: int = 0, end: int | None = None) -> dict:
    """Calls, busy time, self time and summed work per span name.

    Only spans with index in [start, end) are counted; a span's self time is
    its duration minus the durations of its direct children. Busy time counts
    a span only when no ancestor has the same name, so recursion is not
    counted twice. ``solve_alpha_p`` durations are kept per call, split into
    the first call per (n, p) in the process and the rest.
    """
    end = len(spans) if end is None else end
    child_ns = [0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    out: dict = {}
    seen_alpha: set = set()
    alpha = {"cold_ns": [], "warm_ns": []}
    for i, (name, parent, t0, t1, work) in enumerate(spans[:end]):
        if name == "suspension.solve_alpha_p":
            key = tuple(work)
            if i >= start:
                alpha["warm_ns" if key in seen_alpha else "cold_ns"].append(t1 - t0)
            seen_alpha.add(key)
        if i < start:
            continue
        entry = out.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0, "work": []})
        entry["calls"] += 1
        entry["self_ns"] += t1 - t0 - child_ns[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            entry["busy_ns"] += t1 - t0
        if work is not None and name != "suspension.solve_alpha_p":
            entry["work"] = _add(entry["work"], work)
    return {"names": out, "alpha": alpha}


def _values(summary: dict) -> dict:
    """Every per-layer value one summary gives, by metric name."""
    names = summary["names"]

    def field(name, key):
        return names.get(name, {}).get(key, 0)

    def work(name, i):
        totals = names.get(name, {}).get("work", [])
        return totals[i] if i < len(totals) else 0

    def seconds(ns):
        return ns / 1e9

    def layer_self(layer):
        return seconds(sum(e["self_ns"] for n, e in names.items() if n.split(".")[0] == layer))

    warm = summary["alpha"]["warm_ns"]
    values = {
        "matrices.mul.calls": field("matrices.mul", "calls"),
        "matrices.mul.identity_calls": work("matrices.mul", 1),
        "matrices.mul.madds": work("matrices.mul", 0),
        "matrices.mul.busy_s": seconds(field("matrices.mul", "busy_ns")),
        "matrices.order_mod_p.self_s": seconds(field("matrices.order_mod_p", "self_ns")),
        "matrices.det.calls": field("matrices.det", "calls"),
        "matrices.det.busy_s": seconds(field("matrices.det", "busy_ns")),
        "suspension.solve_alpha_p.cold_s": seconds(sum(summary["alpha"]["cold_ns"])),
        "suspension.solve_alpha_p.warm_us_p50": statistics.median(warm) / 1e3 if warm else 0.0,
        "suspension.derive_recurrence.busy_s": seconds(field("suspension.derive_recurrence", "busy_ns")),
        "chern.phi_star.calls": field("chern.phi_star", "calls"),
        "chern.phi_star.busy_s": seconds(field("chern.phi_star", "busy_ns")),
        "fp.prime.calls": field("fp.prime", "calls"),
        "fp.prime.busy_s": seconds(field("fp.prime", "busy_ns")),
        "torsion.decide_p.self_s": seconds(field("torsion.decide_p", "self_ns")),
        "chern.phi_power_sum.busy_s": seconds(field("chern.phi_power_sum", "busy_ns")),
        "polyring.mul.calls": field("polyring.mul", "calls"),
        "polyring.mul.term_pairs": work("polyring.mul", 0),
        "polyring.mul.busy_s": seconds(field("polyring.mul", "busy_ns")),
        "chern.iota_star.self_s": seconds(field("chern.iota_star", "self_ns")),
        "chern.lift_power_sum.busy_s": seconds(field("chern.lift_power_sum", "busy_ns")),
        "chern.chernpoly_mul.term_pairs": work("chern.chernpoly_mul", 0),
        "steenrod.reduced_power.calls": field("steenrod.reduced_power", "calls"),
        "steenrod.reduced_power.busy_s": seconds(field("steenrod.reduced_power", "busy_ns")),
        "steenrod.milnor_q_recursive.busy_s": seconds(field("steenrod.milnor_q_recursive", "busy_ns")),
        "steenrod.milnor_q_closed.busy_s": seconds(field("steenrod.milnor_q_closed", "busy_ns")),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self(layer)
    return values


# Metrics of the measured phase, and metrics of set-up (named ``setup.<metric>``):
# the cold work, which only set-up does.
LOOP_METRICS = (
    "matrices.mul.calls",
    "matrices.mul.identity_calls",
    "matrices.mul.madds",
    "matrices.mul.busy_s",
    "matrices.order_mod_p.self_s",
    "matrices.det.calls",
    "matrices.det.busy_s",
    "suspension.solve_alpha_p.warm_us_p50",
    "chern.phi_star.calls",
    "chern.phi_star.busy_s",
    "fp.prime.calls",
    "fp.prime.busy_s",
    "torsion.decide_p.self_s",
    "polyring.mul.calls",
    "polyring.mul.term_pairs",
    "polyring.mul.busy_s",
    "chern.iota_star.self_s",
    "steenrod.reduced_power.calls",
    "steenrod.reduced_power.busy_s",
    "steenrod.milnor_q_recursive.busy_s",
    "steenrod.milnor_q_closed.busy_s",
    *(f"{layer}.self_s" for layer in LAYERS if layer != "cli"),
)
SETUP_METRICS = (
    "matrices.mul.calls",
    "matrices.mul.identity_calls",
    "matrices.mul.madds",
    "matrices.mul.busy_s",
    "matrices.order_mod_p.self_s",
    "suspension.solve_alpha_p.cold_s",
    "suspension.derive_recurrence.busy_s",
    "chern.phi_power_sum.busy_s",
    "chern.lift_power_sum.busy_s",
    "chern.chernpoly_mul.term_pairs",
    "matrices.self_s",
    "suspension.self_s",
    "cli.self_s",
)


def layer_metrics(loop: dict, setup: dict, setup_ratio: float, hit_ratio: float) -> dict:
    """The per-layer metric values named in BENCHMARK.json, minus the overhead ratio."""
    loop_values, setup_values = _values(loop), _values(setup)
    return {
        **{m: loop_values[m] for m in LOOP_METRICS},
        **{f"setup.{m}": setup_values[m] for m in SETUP_METRICS},
        "torsion.setup_ratio": setup_ratio,
        "polyring.elementary_sym.hit_ratio": hit_ratio,
    }


def setup_ratio(summary: dict) -> float:
    """derive_recurrence calls per decide_p call with p dividing n."""
    names = summary["names"]
    divisible = names.get("torsion.decide_p", {}).get("work", [0])[0]
    derived = names.get("suspension.derive_recurrence", {}).get("calls", 0)
    return derived / divisible if divisible else 0.0


# Metrics that count work; the traced runs of one seed must agree on them exactly.
COUNT_METRICS = (
    "matrices.mul.calls",
    "matrices.mul.identity_calls",
    "matrices.mul.madds",
    "matrices.det.calls",
    "chern.phi_star.calls",
    "fp.prime.calls",
    "torsion.setup_ratio",
    "polyring.mul.calls",
    "polyring.mul.term_pairs",
    "steenrod.reduced_power.calls",
    "polyring.elementary_sym.hit_ratio",
    "setup.matrices.mul.calls",
    "setup.matrices.mul.identity_calls",
    "setup.matrices.mul.madds",
    "setup.chern.chernpoly_mul.term_pairs",
)


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_us_p50"):
        return "us"
    if metric.endswith("ratio"):
        return "ratio"
    return "count"


_EMPTY = {"names": {}, "alpha": {"cold_ns": [], "warm_ns": []}}
UNITS = {
    m: _unit(m)
    for m in [*layer_metrics(_EMPTY, _EMPTY, 0.0, 0.0), "trace.overhead_ratio"]
}
