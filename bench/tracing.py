"""Spans around the calls into each qcorr layer, recorded from outside the package.

Installing a Tracer replaces every public function of the layer modules
(and every name a qcorr module bound to one) with a wrapper that records a
span: name, layer, start, end and parent.  ``scipy.optimize.minimize`` is
wrapped the same way as the discord polish, and ``numpy.linalg.eigvalsh`` is
counted.  Spans stay in memory until the caller writes them out; uninstall
restores the original objects, so an untraced pass runs the program as is.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy.linalg
import scipy.optimize

LAYERS = ("cli", "sweep", "model", "correlations", "linalg")
HARNESS = "bench"
ROOT = "bench.op"
POLISH = "correlations.polish"

_NAME, _LAYER, _START, _END, _PARENT, _OP = range(6)


class Tracer:
    """Spans and counters of the calls made while installed; see the module docstring."""

    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent index, op index]
        self.eigvalsh_calls = 0
        self.polishes = []  # (objective, x0, args, nfev, fun) per minimize call
        self._stack = []
        self._op = -1
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self, package):
        replacements = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{package.__name__}.{layer}")
            if module is None:  # a layer that is gone or not imported has no spans
                continue
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    replacements[obj] = self._spanned(obj, f"{layer}.{name}", layer)
        replacements[scipy.optimize.minimize] = self._polish(scipy.optimize.minimize)
        replacements[numpy.linalg.eigvalsh] = self._counted(numpy.linalg.eigvalsh)
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(package.__name__ + ".")]
        modules += [scipy.optimize, numpy.linalg]
        for module in modules:
            for name, obj in list(vars(module).items()):
                try:
                    new = replacements.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if new is not None:
                    setattr(module, name, new)
                    self._undo.append((module, name, obj))

    def uninstall(self):
        for module, name, obj in reversed(self._undo):
            setattr(module, name, obj)
        self._undo.clear()

    def _spanned(self, fn, name, layer):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, layer, clock(), 0.0, stack[-1] if stack else -1, self._op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[_END] = clock()

        traced.__wrapped__ = fn
        return traced

    def _polish(self, minimize):
        spanned = self._spanned(minimize, POLISH, "correlations")

        def traced(fun, x0, *args, **kwargs):
            res = spanned(fun, x0, *args, **kwargs)
            extra = args[0] if args else kwargs.get("args", ())
            self.polishes.append((fun, x0, extra if isinstance(extra, tuple) else (extra,), res.nfev, res.fun))
            return res

        traced.__wrapped__ = minimize
        return traced

    def _counted(self, fn):
        def counted(*args, **kwargs):
            self.eigvalsh_calls += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- one operation of the workload -------------------------------------

    def run_op(self, index, fn, *args):
        """Call fn(*args) under a root span that tags its descendants with the op index."""
        self._op = index
        rec = [ROOT, HARNESS, time.perf_counter(), 0.0, -1, index]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args)
        finally:
            self._stack.pop()
            rec[_END] = time.perf_counter()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_us", "end_us", "parent", "op"],
                    "spans": [
                        [s[_NAME], round(s[_START] * 1e6, 3), round(s[_END] * 1e6, 3), s[_PARENT], s[_OP]]
                        for s in self.spans
                    ],
                },
                fh,
                separators=(",", ":"),
            )

    # -- summary ------------------------------------------------------------

    def summary(self, points, rows, wall_traced, wall_untraced):
        """Per-layer figures of the traced pass.

        A figure whose function was never called (or that is per CSV row when
        no rows were written) is None: absent, not zero.
        """
        spans = self.spans
        dur = [s[_END] - s[_START] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[_PARENT] >= 0:
                child[s[_PARENT]] += dur[i]
        self_t = [d - c for d, c in zip(dur, child)]

        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        layer_self = defaultdict(float)
        for i, s in enumerate(spans):
            calls[s[_NAME]] += 1
            total[s[_NAME]] += dur[i]
            own[s[_NAME]] += self_t[i]
            layer_self[s[_LAYER]] += self_t[i]

        def per_call(name, times=total):
            return times[name] / calls[name] * 1e6 if calls[name] else None

        def per_row(seconds):
            return seconds / rows * 1e6 if rows and seconds is not None else None

        # the sweep layer's own time inside run_sweep (run_sweep may delegate
        # to other sweep functions; its model and correlations work is excluded)
        in_run_sweep = [False] * len(spans)
        sweep_self = 0.0
        for i, s in enumerate(spans):
            inside = s[_NAME] == "sweep.run_sweep" or (s[_PARENT] >= 0 and in_run_sweep[s[_PARENT]])
            in_run_sweep[i] = inside
            if inside and s[_LAYER] == "sweep":
                sweep_self += self_t[i]

        useful = sum(1 for fun, x0, args, _, best in self.polishes if best < fun(x0, *args))
        out = {
            "cli.self_ms": layer_self["cli"] / calls["cli.main"] * 1e3 if calls["cli.main"] else None,
            "sweep.run_sweep.self_us_per_row": per_row(sweep_self if calls["sweep.run_sweep"] else None),
            "sweep.emit_csv.us_per_row": per_row(total["sweep.emit_csv"] if calls["sweep.emit_csv"] else None),
        }
        for fn in ("thermal_state", "hamiltonian_spectrum", "thermal_state_closed_form",
                   "milburn_evolve", "milburn_closed_form"):
            out[f"model.{fn}.us"] = per_call(f"model.{fn}")
        out["correlations.correlation_report.us"] = per_call("correlations.correlation_report")
        out["correlations.correlation_report.self_us"] = per_call("correlations.correlation_report", times=own)
        out["correlations.polish.us"] = per_call(POLISH)
        out["correlations.polish.nfev_per_point"] = sum(p[3] for p in self.polishes) / points
        out["correlations.polish_useful_share"] = useful / len(self.polishes) if self.polishes else None
        for fn in ("validate_two_qubit_state", "von_neumann_entropy", "partial_trace", "eig_hermitian"):
            out[f"linalg.{fn}.calls_per_point"] = calls[f"linalg.{fn}"] / points
            out[f"linalg.{fn}.us_per_point"] = total[f"linalg.{fn}"] / points * 1e6
        out["linalg.eigvalsh_calls_per_point"] = self.eigvalsh_calls / points
        for layer in LAYERS + (HARNESS,):
            out[f"{layer}.self_us_per_point"] = layer_self[layer] / points * 1e6
        out["trace.overhead_share"] = (wall_traced - wall_untraced) / wall_untraced
        out["trace.self_sum_share"] = sum(self_t) / wall_traced
        return out
