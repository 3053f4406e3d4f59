"""Span tracing of emscan's layers from outside the package.

A traced run swaps emscan's public functions, at every module attribute
through which their callers resolve them, for wrappers that record a span:
the layer name, start, end, the enclosing span and the registration it
belongs to, plus counts read off the arguments or the result.  Spans stay in
memory until the run ends.  A hooked function that a refactor removed is
skipped, and its layer reports zero calls.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import sys
import time
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index of the enclosing span, None at the top
    registration: int
    counts: dict | None


def _edges_in(args, result) -> dict:
    return {"edges": getattr(args[0], "edge_count", 0) if args else 0}


def _graph_counts(args, result) -> dict:
    return {"edges": getattr(result, "edge_count", 0),
            "queried": getattr(result, "n_scan", 0),
            "inliers": getattr(result, "inlier_count", 0)}


def _register_counts(args, result) -> dict:
    return {"sweeps": getattr(result, "iterations", 0),
            "converged": int(bool(getattr(result, "converged", False)))}


def _file_bytes(args, result) -> dict:
    try:
        return {"bytes": os.path.getsize(args[0])}
    except (IndexError, OSError, TypeError):
        return {"bytes": 0}


#: (span name, module, attribute, counter) at every layer boundary.
HOOKS = (
    ("cli.main", "emscan.cli", "main", None),
    ("scanio.load", "emscan.scanio", "load_points", _file_bytes),
    ("em.register", "emscan.em", "register", _register_counts),
    ("graph.build", "emscan.graph", "build_graph", _graph_counts),
    ("grid.build", "emscan.grid", "GridIndex.__init__", None),
    ("grid.query", "emscan.grid", "GridIndex.query_radius", None),
    ("em.e_step", "emscan.em", "e_step", _edges_in),
    ("em.loglik", "emscan.em", "log_marginal_likelihood", _edges_in),
    ("em.m_step", "emscan.em", "m_step", None),
    ("em.covariance", "emscan.em", "residual_covariance", None),
)


def _resolve(module_name: str, attr: str):
    """``(owner, leaf name, function)``, or None when the hook target is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    fn = getattr(owner, leaf, None) if owner is not None else None
    return (owner, leaf, fn) if callable(fn) else None


class Tracer:
    """Records spans while installed and inside :meth:`registration`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.registrations = 0
        self.missing: set[str] = set()
        self._current: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def registration(self):
        """Scope for one registration; spans outside any scope are not kept."""
        self._current = self.registrations
        self.registrations += 1
        try:
            yield
        finally:
            self._current = None

    def install(self) -> None:
        for name, module_name, attr, counter in HOOKS:
            target = _resolve(module_name, attr)
            if target is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            owner, leaf, fn = target
            wrapper = self._wrap(name, fn, counter)
            if isinstance(owner, type):
                # Methods are looked up on the class by every caller.
                self._patch(owner, leaf, wrapper)
                continue
            # Functions are looked up in whichever module imported them.
            modules = [m for key, m in list(sys.modules.items())
                       if key == "emscan" or key.startswith("emscan.")]
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is fn]:
                    self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self._current is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(Span(name, 0.0, 0.0, stack[-1] if stack else None,
                              self._current, None))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index].start, spans[index].end = start, end
            if counter is not None:
                spans[index].counts = counter(args, result)
            return result

        return traced


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self and total seconds, and summed counts.

    Self time is a span's duration minus that of its child spans.  Children
    of one span run one after another on one thread, so the time they cover
    is the sum of their durations.
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_s[span.parent] += span.end - span.start
    totals: dict[str, dict[str, float]] = {}
    for span, inner in zip(spans, child_s):
        row = totals.setdefault(span.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.end - span.start
        row["self_s"] += span.end - span.start - inner
        for key, value in (span.counts or {}).items():
            row[key] = row.get(key, 0) + value
    return totals


def layer_metrics(spans: list[Span], registrations: int) -> dict[str, float]:
    """The per-layer metrics, each a mean per registration unless its name
    says otherwise; layers that did not run report zero."""
    totals = layer_totals(spans)

    def get(layer: str, key: str) -> float:
        return totals.get(layer, {}).get(key, 0)

    def per_reg(value: float) -> float:
        return value / registrations if registrations else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    sweeps = get("em.register", "sweeps")
    return {
        "graph.build_ms": per_reg(1e3 * get("graph.build", "self_s")),
        "graph.calls": per_reg(get("graph.build", "calls")),
        "graph.edges": per_reg(get("graph.build", "edges")),
        # The whole gate (grid build and queries included) per edge built.
        "graph.ns_per_edge": ratio(1e9 * get("graph.build", "total_s"),
                                   get("graph.build", "edges")),
        "graph.inlier_frac": ratio(get("graph.build", "inliers"),
                                   get("graph.build", "queried")),
        "grid.build_ms": per_reg(1e3 * get("grid.build", "self_s")),
        "grid.query_calls": per_reg(get("grid.query", "calls")),
        "grid.query_ms": per_reg(1e3 * get("grid.query", "self_s")),
        "em.e_step_ms": per_reg(1e3 * get("em.e_step", "self_s")),
        "em.e_step_calls_per_sweep": ratio(get("em.e_step", "calls"), sweeps),
        "em.e_step_ns_per_edge": ratio(1e9 * get("em.e_step", "self_s"),
                                       get("em.e_step", "edges")),
        "em.loglik_ms": per_reg(1e3 * get("em.loglik", "self_s")),
        "em.loglik_calls_per_sweep": ratio(get("em.loglik", "calls"), sweeps),
        "em.loglik_ns_per_edge": ratio(1e9 * get("em.loglik", "self_s"),
                                       get("em.loglik", "edges")),
        "em.m_step_ms": per_reg(1e3 * get("em.m_step", "self_s")),
        "em.m_step_us_per_call": ratio(1e6 * get("em.m_step", "self_s"),
                                       get("em.m_step", "calls")),
        "em.covariance_ms": per_reg(1e3 * get("em.covariance", "self_s")),
        "em.register_self_ms": per_reg(1e3 * get("em.register", "self_s")),
        "em.sweeps": per_reg(sweeps),
        "em.converged_frac": ratio(get("em.register", "converged"),
                                   get("em.register", "calls")),
        "scanio.load_ms": per_reg(1e3 * get("scanio.load", "self_s")),
        "scanio.load_mb_per_s": ratio(1e-6 * get("scanio.load", "bytes"),
                                      get("scanio.load", "self_s")),
        "cli.self_ms": per_reg(1e3 * get("cli.main", "self_s")),
    }
