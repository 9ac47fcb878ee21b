"""Span tracer installed from outside around gausslip's public functions.

``Tracer.install()`` replaces every attribute of every loaded ``gausslip.*``
module that refers to a traced function, so name copies such as
``semigroup.integrate_halfline`` or ``lipschitz.ph_apply`` are wrapped too.
Each span records a name, start, end, parent span and request id, and stays
in memory until ``write``.  Integrand evaluations inside
``integrate_halfline`` are too many to keep one by one: they are timed and
counted per half-line span and subtracted from its self time.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

_now = time.perf_counter

#: (module, function, span name) traced as plain spans
PLAIN = (
    ("quadrature", "integrate_gaussian", "quadrature.integrate_gaussian"),
    ("quadrature", "tensor_nodes", "quadrature.tensor_nodes"),
    ("hermite", "project", "hermite.project"),
    ("hermite", "scale_by_level", "hermite.scale_by_level"),
    ("semigroup", "kernel_derivative_l1", "semigroup.kernel_derivative_l1"),
    ("forward_diff", "forward_difference", "forward_diff.forward_difference"),
    ("forward_diff", "forward_difference_curve", "forward_diff.forward_difference_curve"),
    ("fractional", "apply_fractional", "fractional.apply_fractional"),
    ("lipschitz", "sup_norm_estimate", "lipschitz.sup_norm_estimate"),
    ("lipschitz", "seminorm_estimate", "lipschitz.seminorm_estimate"),
    ("lipschitz", "modulus_probe", "lipschitz.modulus_probe"),
    ("lipschitz", "inclusion_probe", "lipschitz.inclusion_probe"),
    ("lipschitz", "derivative_equivalence_probe", "lipschitz.derivative_equivalence_probe"),
    ("lipschitz", "operator_boundedness_probe", "lipschitz.operator_boundedness_probe"),
    ("cli", "main", "cli.main"),
)


def _points(x, d: int) -> int:
    return max(1, int(np.size(x)) // d)


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, start, end, parent, request, self_s)
        self.busy = defaultdict(float)  # outermost-span time per name
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.request = None
        self.integrand_self_s = 0.0     # integrand time outside traced spans
        self._stack: list = []          # [span index, child time]
        self._depth = defaultdict(int)
        self._patched: list = []        # (module, attribute, original)

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str):
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([name, _now(), None, parent, self.request, None])
        frame = [len(self.spans) - 1, 0.0]
        self._stack.append(frame)
        self._depth[name] += 1
        self.calls[name] += 1
        return frame

    def _close(self, frame, extra_child: float = 0.0) -> None:
        end = _now()
        span = self.spans[frame[0]]
        span[2] = end
        dur = end - span[1]
        span[5] = dur - frame[1] - extra_child
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += dur
        name = span[0]
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.busy[name] += dur
        self.self_s[name] += span[5]

    def wrap(self, name: str, fn, points=None, result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if points is not None:
                self.counts[name + ".points"] += points(*args, **kwargs)
            return out if result is None else result(out, *args, **kwargs)
        traced.__traced__ = fn
        return traced

    @contextlib.contextmanager
    def request_span(self, request_id, name: str):
        """One benchmark request: a root span whose id its child spans carry."""
        self.request = request_id
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)
            self.request = None

    # -- gausslip-specific wrappers -------------------------------------------

    def _halfline(self, owner: str, fn, convergence_error):
        tracer = self

        @functools.wraps(fn)
        def traced(g, *args, **kwargs):
            inner = [0.0]

            def counted(s):
                # spans opened by the integrand get the half-line span as
                # parent; their time is already inside the integrand time
                pseudo = [tracer._stack[-1][0], 0.0]
                tracer._stack.append(pseudo)
                t0 = _now()
                try:
                    vals = g(s)
                finally:
                    spent = _now() - t0
                    inner[0] += spent
                    tracer.integrand_self_s += spent - pseudo[1]
                    tracer._stack.pop()
                n = int(np.size(s))
                tracer.counts["quadrature.halfline.nodes"] += n
                size = int(np.size(vals))
                tracer.counts["quadrature.halfline.payload_values"] += max(size, n)
                return vals

            frame = tracer._open("quadrature.integrate_halfline")
            try:
                return fn(counted, *args, **kwargs)
            except convergence_error:
                tracer.counts["quadrature.halfline.convergence_errors"] += 1
                raise
            finally:
                # integrand time is child time of the half-line span
                tracer._close(frame, extra_child=inner[0])
                tracer.busy[owner + ".integrand"] += inner[0]

        traced.__traced__ = fn
        return traced

    def _closure_result(self, kernel_name: str, sub_name: str | None):
        def result(out, f, q, *args, d=1, **kwargs):
            if not callable(out):
                return out
            name = kernel_name if q.method == "kernel" else sub_name
            dim = getattr(f, "dimension", d)
            return self.wrap(name, out, points=lambda x: _points(x, dim))
        return result

    def _run_suite(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(suite, *args, **kwargs):
            frame = tracer._open(f"suites.{suite}")
            try:
                rep = fn(suite, *args, **kwargs)
            finally:
                tracer._close(frame)
            s = rep.summary
            tracer.counts["suites.rows_failed"] += s["failed"]
            tracer.counts["suites.rows_flagged"] += s["flagged"]
            return rep

        traced.__traced__ = fn
        return traced

    def _write_report(self, fn):
        def bytes_written(out, r, format="json", path=None):
            self.counts["report.bytes"] += os.path.getsize(path)
            return out

        return self.wrap("report.write_report", fn, result=bytes_written)

    # -- installation ----------------------------------------------------------

    def _table(self) -> dict:
        """Map id(original) -> (original, wrapper).  ``integrate_halfline``
        gets one wrapper per calling module, which owns its integrand time."""
        import gausslip.cli
        from gausslip import (errors, fractional, hermite, lipschitz, quadrature,
                              report, semigroup, suites)
        mods = {"quadrature": quadrature, "hermite": hermite, "semigroup": semigroup,
                "fractional": fractional, "lipschitz": lipschitz,
                "forward_diff": sys.modules["gausslip.forward_diff"],
                "cli": gausslip.cli}
        out = {}
        for mod, attr, name in PLAIN:
            fn = getattr(mods[mod], attr)
            out[id(fn)] = (fn, self.wrap(name, fn))
        fn = hermite.eval_expansion
        out[id(fn)] = (fn, self.wrap("hermite.eval_expansion", fn,
                                     points=lambda e, x: _points(x, e.dimension)))
        fn = hermite.hermite_eval
        out[id(fn)] = (fn, self.wrap("hermite.hermite_eval", fn,
                                     points=lambda nu, x: _points(x, len(tuple(nu)))))
        fn = semigroup.ph_apply
        out[id(fn)] = (fn, self.wrap("semigroup.ph_apply", fn, result=self._closure_result(
            "semigroup.ph_kernel_apply", "semigroup.ph_subordination_apply")))
        fn = semigroup.ou_apply
        out[id(fn)] = (fn, self.wrap("semigroup.ou_apply", fn, result=self._closure_result(
            "semigroup.ou_kernel_apply", None)))
        fn = suites.run_suite
        out[id(fn)] = (fn, self._run_suite(fn))
        fn = report.write_report
        out[id(fn)] = (fn, self._write_report(fn))
        halfline = quadrature.integrate_halfline
        self._halfline_original = halfline
        self._halfline_wrappers = {
            owner: self._halfline(owner, halfline, errors.ConvergenceError)
            for owner in ("quadrature", "semigroup", "fractional")}
        return out

    def install(self) -> None:
        """Patch every gausslip module attribute that names a traced function."""
        table = self._table()
        self.originals = [fn for fn, _ in table.values()] + [self._halfline_original]
        for modname, mod in list(sys.modules.items()):
            if not (modname == "gausslip" or modname.startswith("gausslip.")) or mod is None:
                continue
            owner = modname.rpartition(".")[2]
            for attr, value in list(vars(mod).items()):
                if value is self._halfline_original:
                    wrapper = self._halfline_wrappers.get(owner, self._halfline_wrappers["quadrature"])
                elif callable(value) and id(value) in table and table[id(value)][0] is value:
                    wrapper = table[id(value)][1]
                else:
                    continue
                setattr(mod, attr, wrapper)
                self._patched.append((mod, attr, value))
        warnings_mod = sys.modules["gausslip.forward_diff"].warnings
        self._patched.append((sys.modules["gausslip.forward_diff"], "warnings", warnings_mod))
        sys.modules["gausslip.forward_diff"].warnings = _CountingWarnings(self, warnings_mod)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "request", "self_s")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def root_time(self) -> float:
        """Time covered by spans without a parent (the benchmark's requests)."""
        return sum(s[2] - s[1] for s in self.spans if s[3] is None and s[2] is not None)


class _CountingWarnings:
    """Stands in for the ``warnings`` module inside ``gausslip.forward_diff``."""

    def __init__(self, tracer: Tracer, real):
        self._tracer = tracer
        self._real = real

    def warn(self, message, category=UserWarning, stacklevel=1, **kwargs):
        if category.__name__ == "CancellationWarning":
            self._tracer.counts["forward_diff.cancellation_warnings"] += 1
        return self._real.warn(message, category, stacklevel + 1, **kwargs)

    def __getattr__(self, name):
        return getattr(self._real, name)
