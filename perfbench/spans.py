"""Tracing for the benchmark's traced run, done from outside the program.

``traced`` swaps the public functions that callers look up in
``paramint.cli``, ``paramint.engine`` and ``paramint.quadrature`` for
wrappers that record a span (name, start, end, parent) per call, and swaps
each catalog callable for a counter.  Integrand calls get no spans (about
two million per nested_recon pass); each is counted on the innermost open
span, which inside a kernel is that kernel's span.  Leaving the context
restores the original functions, so untraced passes run the plain program.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import math
import statistics
import time
from typing import Iterable

from paramint import catalog, cli, engine, quadrature
from paramint.quadrature import QuadResult, QuadStatus

KERNELS = ("finite", "singular", "improper", "oscillatory")
ENGINE_OPS = ("eval_direct", "deriv_under_integral", "reconstruct",
              "interchange_check", "domination_scan")
CALLABLES = (("f", "integrand"), ("d_alpha", "d_alpha"), ("rhs", "rhs_closed"))

# (module, attribute callers look up, layer the span is charged to)
TARGETS = (
    (cli, "run", "cli.run"),
    (cli, "eval_direct", "engine.eval_direct"),
    (cli, "reconstruct", "engine.reconstruct"),
    *((engine, op, f"engine.{op}") for op in ENGINE_OPS),
    (engine, "integrate", "quadrature.dispatch"),
    (quadrature, "integrate", "quadrature.dispatch"),
    (quadrature, "integrate_finite", "quadrature.finite"),
    (quadrature, "integrate_singular", "quadrature.singular"),
    (quadrature, "integrate_improper", "quadrature.improper"),
    (quadrature, "integrate_oscillatory_improper", "quadrature.oscillatory"),
)


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "child_ns", "counts",
                 "raised", "nonconverged", "n_evals")

    def __init__(self, id_: int, name: str, parent: "Span | None"):
        self.id = id_
        self.name = name
        self.parent = parent
        self.start = self.end = self.child_ns = 0
        self.counts: dict[str, int] = {}
        self.raised = False
        self.nonconverged = False
        self.n_evals = 0


class Tracer:
    """Spans of one traced pass, kept in memory."""

    def __init__(self):
        self.root = Span(0, "root", None)
        self.stack = [self.root]
        self.spans: list[Span] = []
        self.ids = itertools.count(1)
        self.bytes_out = 0

    def wrap(self, name: str, fn):
        stack, spans, ids = self.stack, self.spans, self.ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            parent = stack[-1]
            sp = Span(next(ids), name, parent)
            stack.append(sp)
            sp.start = clock()
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                sp.raised = True
                raise
            finally:
                sp.end = clock()
                stack.pop()
                parent.child_ns += sp.end - sp.start
                spans.append(sp)
            if isinstance(res, QuadResult):
                sp.nonconverged = res.status is not QuadStatus.CONVERGED
                sp.n_evals = res.n_evals
            return res

        return traced_call

    def counter(self, key: str, fn):
        stack = self.stack

        def counted_call(*args):
            counts = stack[-1].counts
            counts[key] = counts.get(key, 0) + 1
            return fn(*args)

        return counted_call

    def counted_problem(self, entry_id: str, P):
        """P with every catalog callable it carries replaced by a counter."""
        swaps = {field: self.counter(f"{entry_id}.{kind}", getattr(P, field))
                 for kind, field in CALLABLES if getattr(P, field) is not None}
        return dataclasses.replace(P, **swaps)

    @contextlib.contextmanager
    def traced(self, problems: dict):
        """Install the wrappers; yields ``problems`` with counted callables."""
        entries = {e.id: dataclasses.replace(e, parametric=self.counted_problem(e.id, e.parametric))
                   for e in catalog.entries()}
        get = catalog.get
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TARGETS]
        saved.append((catalog, "get", get))
        try:
            for (mod, attr, layer), (_, _, fn) in zip(TARGETS, saved):
                setattr(mod, attr, self.wrap(layer, fn))
            catalog.get = lambda entry_id: entries[entry_id] if entry_id in entries else get(entry_id)
            yield {k: self.counted_problem(k, P) for k, P in problems.items()}
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def summary(self) -> dict:
        """Per-layer totals of this pass: exact counts and self times in ns."""
        layers: dict[str, dict] = {}
        # calls charged to the root came from the benchmark's own checks
        calls_by_key: dict[str, int] = {}
        inner = 0
        for sp in self.spans:
            lay = layers.setdefault(sp.name, {"calls": 0, "self_ns": 0, "raised": 0,
                                              "nonconverged": 0, "n_evals": 0, "evals": {}})
            lay["calls"] += 1
            lay["self_ns"] += sp.end - sp.start - sp.child_ns
            lay["raised"] += sp.raised
            lay["nonconverged"] += sp.nonconverged
            lay["n_evals"] += sp.n_evals
            for key, n in sp.counts.items():
                lay["evals"][key] = lay["evals"].get(key, 0) + n
                calls_by_key[key] = calls_by_key.get(key, 0) + n
            if sp.name == "engine.deriv_under_integral" and _under(sp, "engine.reconstruct"):
                inner += 1
        return {"layers": layers, "calls_by_key": calls_by_key, "inner_calls": inner,
                "bytes_out": self.bytes_out, "total_ns": self.root.child_ns}

    def span_rows(self) -> Iterable[tuple]:
        for sp in sorted(self.spans, key=lambda s: s.start):
            yield sp.id, sp.name, sp.start, sp.end, sp.parent.id


def _under(sp: Span, name: str) -> bool:
    p = sp.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


# ---------------------------------------------------------------------------
# standalone cost of each catalog callable
# ---------------------------------------------------------------------------

_N_ABSCISSAE = 64


def _abscissae(domain) -> list[float]:
    lo, hi = domain.lower, domain.upper
    ts = [(i + 0.5) / _N_ABSCISSAE for i in range(_N_ABSCISSAE)]
    if math.isinf(hi):  # x = lo + t/(1-t), the improper kernel's own map
        return [lo + t / (1.0 - t) for t in ts]
    return [lo + (hi - lo) * t for t in ts]


def _ns_per_call(fn, arg_sets: list[tuple], repeats: int = 15, inner: int = 20) -> float:
    clock = time.perf_counter_ns
    per_repeat = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(inner):
            for args in arg_sets:
                fn(*args)
        per_repeat.append(clock() - t0)
    return min(per_repeat) / (inner * len(arg_sets))


def callable_costs(keys: Iterable[str]) -> dict[str, tuple[float, float]]:
    """ns per call of each catalog callable at fixed abscissae: bare, and
    behind the counter the traced run puts in front of it."""
    scratch = Tracer()
    costs = {}
    for key in sorted(keys):
        entry_id, kind = key.split(".")
        entry = catalog.get(entry_id)
        P = entry.parametric
        fn = getattr(P, dict(CALLABLES)[kind])
        if kind == "rhs":  # midpoints of the grid's hull, clear of its singular ends
            lo, hi = min(entry.verification_grid), max(entry.verification_grid)
            args = [(lo + (hi - lo) * (i + 0.5) / _N_ABSCISSAE,) for i in range(_N_ABSCISSAE)]
        else:
            alpha = statistics.median(entry.verification_grid)
            args = [(x, alpha) for x in _abscissae(P.domain_for(alpha))]
        costs[key] = (_ns_per_call(fn, args), _ns_per_call(scratch.counter(key, fn), args))
    return costs


# ---------------------------------------------------------------------------
# per-layer metrics from the traced passes
# ---------------------------------------------------------------------------

def _count_view(summary: dict) -> dict:
    """The parts of a pass summary that must repeat exactly."""
    return {"layers": {name: {k: v for k, v in lay.items() if k != "self_ns"}
                       for name, lay in summary["layers"].items()},
            "calls_by_key": summary["calls_by_key"],
            "inner_calls": summary["inner_calls"],
            "bytes_out": summary["bytes_out"]}


def per_layer_metrics(summaries: list[dict], costs: dict, overhead_frac: float) -> tuple[dict, bool]:
    """Metrics per pass: counts from the first traced pass; a layer's self
    time as its median share of the pass's time inside paramint, so that the
    shares of all layers sum to one; absolute times as the least over traced
    passes.  The flag says whether every pass repeated the first one's counts."""
    first = summaries[0]
    repeat = all(_count_view(s) == _count_view(first) for s in summaries[1:])
    empty = {"calls": 0, "raised": 0, "nonconverged": 0, "n_evals": 0, "evals": {}}

    def layer(name):
        return first["layers"].get(name, empty)

    def self_ns(name):
        return min(s["layers"].get(name, {}).get("self_ns", 0) for s in summaries)

    def self_frac(name):
        return statistics.median(s["layers"].get(name, {}).get("self_ns", 0) / s["total_ns"]
                                 for s in summaries)

    m: dict[str, tuple[float, str]] = {}
    calls = first["calls_by_key"]
    for kind, _ in CALLABLES:
        m[f"catalog.{kind}_calls"] = (
            sum(n for k, n in calls.items() if k.endswith("." + kind)), "count")
    total_calls = sum(calls.values())
    raw_s = sum(n * costs[k][0] for k, n in calls.items()) * 1e-9
    m["catalog.integrand_ns"] = (raw_s * 1e9 / total_calls if total_calls else 0.0, "ns")
    m["catalog.integrand_s"] = (raw_s, "s")

    m["quadrature.dispatch.calls"] = (layer("quadrature.dispatch")["calls"], "count")
    m["quadrature.dispatch.self_frac"] = (self_frac("quadrature.dispatch"), "frac")
    for k in KERNELS:
        name = f"quadrature.{k}"
        lay = layer(name)
        evals = sum(lay["evals"].values())
        counted_ns = sum(n * costs[key][1] for key, n in lay["evals"].items())
        m[f"{name}.calls"] = (lay["calls"], "count")
        m[f"{name}.evals"] = (evals, "count")
        m[f"{name}.self_frac"] = (self_frac(name), "frac")
        m[f"{name}.nonconverged"] = (lay["nonconverged"], "count")
        m[f"{name}.raised"] = (lay["raised"], "count")
        m[f"{name}.overhead_ns_per_eval"] = (
            (self_ns(name) - counted_ns) / evals if evals else 0.0, "ns")
    for op in ENGINE_OPS:
        name = f"engine.{op}"
        m[f"{name}.calls"] = (layer(name)["calls"], "count")
        m[f"{name}.self_frac"] = (self_frac(name), "frac")
        m[f"{name}.raised"] = (layer(name)["raised"], "count")
    m["engine.reconstruct.inner_calls"] = (first["inner_calls"], "count")
    m["engine.reconstruct.n_evals_reported"] = (layer("engine.reconstruct")["n_evals"], "count")
    m["cli.run.calls"] = (layer("cli.run")["calls"], "count")
    m["cli.run.self_frac"] = (self_frac("cli.run"), "frac")
    m["cli.bytes_out"] = (first["bytes_out"], "bytes")
    m["trace.overhead_frac"] = (overhead_frac, "frac")
    return m, repeat
