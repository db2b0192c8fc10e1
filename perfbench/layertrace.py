"""Outside-in tracing of the bimoment layers.

A Tracer replaces selected module functions and methods of the package
with timing wrappers for the duration of a traced run, and puts the
originals back afterwards. Every binding of a wrapped function in any
``bimoment`` module is replaced, so calls through ``from .x import f``
names are seen too. Spans nest on one stack: a span's self time is its
duration minus the time of the traced spans it encloses.

``integrate_contour`` gets extra bookkeeping: the number of panels it
evaluated itself (not those of nested integrations), its piece count
from ``_prepare``, and its returned errors against the tolerance it was
asked for. From those come the worst err/tol and the count of results
accepted through the engine's budget fallback.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

KRONROD_NODES = 15


@dataclass
class SpanStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    items: int = 0          # nodes or integrand values, where meaningful


class Tracer:
    """Counters and self times per wrapped function, keyed by span name."""

    def __init__(self, bm):
        self.bm = bm
        self.stats: dict = {}
        self.err_over_tol_max = 0.0
        self.fallback_accepts = 0
        self.enabled = True
        self._stack = []          # [start, child_time] per open span
        self._quad = []           # bookkeeping per open integrate_contour
        self._patched = []        # (owner, attr, original)

    # -- installation ------------------------------------------------------

    def install(self):
        q, w = self.bm.quadrature, self.bm.weights
        integrate_sig = inspect.signature(q.integrate_contour)

        def integrate_inner(original):
            def integrate(*args, **kwargs):
                bound = integrate_sig.bind(*args, **kwargs)
                bound.apply_defaults()
                frame = {"panels": 0, "pieces": 1, "args": bound.arguments}
                self._quad.append(frame)
                try:
                    out = original(*args, **kwargs)
                finally:
                    self._quad.pop()
                self._check_tolerance(frame, out)
                return out
            return integrate

        def panel_post(args, out):
            self.stats["quadrature.panel"].items += KRONROD_NODES * len(out[0])
            if self._quad:
                self._quad[-1]["panels"] += 1

        def prepare_post(args, out):
            if self._quad:
                self._quad[-1]["pieces"] = len(out)

        def weight_post(args, out):
            self.stats["weights.weight_tracked"].items += np.size(args[1])

        self._wrap_function(q, "integrate_contour", "quadrature.integrate",
                            inner=integrate_inner)
        self._wrap_function(q, "_panel_eval", "quadrature.panel", post=panel_post)
        self._wrap_function(q, "_prepare", "quadrature.prepare", post=prepare_post)
        self._wrap_function(q, "_truncate_ray", "quadrature.truncate_ray")
        self._wrap_function(q, "laplace_many", "quadrature.laplace_many")
        self._wrap_method(w.WeightSpec, "weight_tracked", "weights.weight_tracked",
                          post=weight_post)
        self._wrap_method(w.WeightSpec, "log_weight_principal",
                          "weights.log_weight_principal")
        self._wrap_function(w, "trace_sdc", "weights.trace_sdc")
        self._wrap_function(w, "build_weight", "weights.build_weight")
        self._wrap_function(w, "build_contours", "weights.build_contours")
        self._wrap_function(self.bm.polycore, "poly_roots", "polycore.poly_roots")
        sc = self.bm.semiclassical
        self._wrap_function(sc, "validate_spec", "semiclassical.validate_spec")
        self._wrap_function(sc, "propagate_moments", "semiclassical.propagate_moments")
        self._wrap_function(sc, "recurrence_residual", "semiclassical.recurrence_residual")
        tb = self.bm.tables
        self._wrap_function(tb, "monic_bops", "tables.monic_bops")
        self._wrap_function(tb, "extract_recurrence", "tables.extract_recurrence")
        self._wrap_function(tb, "delta_scaled", "tables.delta_scaled")
        fv = self.bm.favard
        self._wrap_function(fv, "favard_reconstruct", "favard.favard_reconstruct")
        self._wrap_function(fv, "favard_verify", "favard.favard_verify")

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap_function(self, module, attr, name, post=None, inner=None):
        original = getattr(module, attr)
        wrapper = self._wrapper(original, name, post, inner)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bimoment" or mod_name.startswith("bimoment.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _wrap_method(self, cls, attr, name, post=None):
        original = cls.__dict__[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, name, post, None))

    def _wrapper(self, original, name, post, inner):
        """Timed stand-in for original; inner(original), when given, adds
        bookkeeping that runs only while tracing is enabled."""
        stat = self.stats[name] = SpanStat()
        traced = inner(original) if inner else original
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            frame = [clock(), 0.0]
            self._stack.append(frame)
            try:
                out = traced(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                self._stack.pop()
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - frame[1]
                if self._stack:
                    self._stack[-1][1] += dur
            if post:
                post(args, out)
            return out

        return wrapper

    # -- fallback detector -----------------------------------------------

    def _check_tolerance(self, frame, out):
        args = frame["args"]
        rtol = args["rtol"]
        if rtol is None:
            rtol = self.bm.quadrature.default_tolerance()
        vals, errs = out
        tol = np.maximum(args["atol"], rtol * (1.0 + np.abs(vals)))
        ratio = errs / tol
        self.err_over_tol_max = max(self.err_over_tol_max, float(np.max(ratio)))
        # the engine stops refining at err <= tol/4; a result that reached
        # the panel budget without that is an accept through the fallback
        budget = args["max_panels"] * frame["pieces"]
        if frame["panels"] >= budget and np.any(ratio > 0.25):
            self.fallback_accepts += 1

    # -- control -----------------------------------------------------------

    @contextmanager
    def paused(self):
        prev, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = prev

    def snapshot(self) -> dict:
        snap = {name: SpanStat(s.calls, s.total_s, s.self_s, s.items)
                for name, s in self.stats.items()}
        snap["_fallback_accepts"] = self.fallback_accepts
        return snap

    def since(self, before: dict) -> dict:
        """Per-span differences between now and an earlier snapshot."""
        out = {}
        for name, a in self.snapshot().items():
            b = before[name]
            if name.startswith("_"):
                out[name] = a - b
            else:
                out[name] = SpanStat(a.calls - b.calls, a.total_s - b.total_s,
                                     a.self_s - b.self_s, a.items - b.items)
        return out
