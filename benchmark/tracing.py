"""Span tracing of diracbvp from outside the package.

A traced round replaces every public function of the layer modules with a
wrapper that records a span (name, start, end, parent span, attributes).
Calls inside the package look these functions up as module attributes or
module globals at call time, so nested calls are traced too.  Spans stay in
memory until the round ends; the per-layer metrics are computed from them.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import statistics

LAYERS = ("integrator", "charfn", "eigensolver", "weyl", "expansion", "inverse", "cli")

# spans that define the nesting counts; the rest only carry self time
PROPAGATE = "integrator.propagate_many"
DELTA = "charfn.delta_many"
FIND = "eigensolver.find_eigenvalues"
MISFIT = "inverse.misfit"


def _propagate_attrs(args, kwargs, out):
    config = args[0] if args else kwargs["config"]
    ys = out[1]
    return {"points": ys.shape[0], "steps": ys.shape[1] - 1,
            "bytes": ys.nbytes, "grid": config.grid_points}


_ATTRS = {
    PROPAGATE: _propagate_attrs,
    DELTA: lambda args, kwargs, out: {"points": len(out)},
    FIND: lambda args, kwargs, out: {"roots": len(out)},
}


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []          # [name, start, end, parent index, attrs]
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        attrs = _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, self.clock(), None, parent, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
            if attrs is not None:
                try:
                    span[4] = attrs(args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass                # a changed signature leaves the span without counts
            return out
        return traced

    def install(self):
        for layer in LAYERS:
            module = importlib.import_module(f"diracbvp.{layer}")
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{layer}.{attr}", fn))

    def uninstall(self):
        for module, attr, fn in self._saved:
            setattr(module, attr, fn)
        self._saved.clear()


def _within(spans, i, prefix):
    """True when span i has an ancestor whose name starts with ``prefix``."""
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0].startswith(prefix):
            return True
        parent = spans[parent][3]
    return False


def round_metrics(spans) -> dict:
    """Per-layer counts and times of one traced round."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = {layer: 0.0 for layer in LAYERS}
    inverse_outside_misfit = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        layer = name.split(".")[0]
        own = end - start - child_time[i]
        self_s[layer] += own
        if layer == "inverse" and name != MISFIT:
            # a misfit span is a child of reconstruct, so this is optimiser time
            inverse_outside_misfit += own

    m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS if layer != "inverse"}
    props = [i for i, s in enumerate(spans) if s[0] == PROPAGATE]
    deltas = [i for i, s in enumerate(spans) if s[0] == DELTA]
    misfits = [s for s in spans if s[0] == MISFIT]
    finds = [i for i, s in enumerate(spans) if s[0] == FIND and not _within(spans, i, FIND)]

    def pa(i, key):
        return spans[i][4][key] if spans[i][4] else 0

    m["integrator.calls"] = len(props)
    m["integrator.lambda_points"] = sum(pa(i, "points") for i in props)
    m["integrator.steps"] = sum(pa(i, "points") * pa(i, "steps") for i in props)
    # the unrefined grid has about max(grid_points, 128) steps; any refine
    # factor of 2 or more lands above 1.5 times that
    m["integrator.refined_points"] = sum(
        pa(i, "points") for i in props
        if pa(i, "steps") > 1.5 * max(pa(i, "grid"), 128))
    m["integrator.trajectory_mb"] = sum(pa(i, "bytes") for i in props) / 1e6
    m["charfn.delta_calls"] = len(deltas)
    m["charfn.delta_points"] = sum(pa(i, "points") for i in deltas)
    m["eigensolver.delta_sweeps"] = sum(1 for i in deltas if _within(spans, i, FIND))
    m["eigensolver.completion_propagations"] = sum(
        1 for i in props if _within(spans, i, FIND) and not _within(spans, i, DELTA))
    m["eigensolver.roots"] = sum(pa(i, "roots") for i in finds)
    m["eigensolver.find_s"] = sum(spans[i][2] - spans[i][1] for i in finds)
    m["weyl.series_calls"] = sum(1 for s in spans if s[0] == "weyl.weyl_series")
    m["expansion.calls"] = sum(1 for i, s in enumerate(spans)
                               if s[0].startswith("expansion.")
                               and not _within(spans, i, "expansion."))
    m["expansion.inner_calls"] = sum(1 for s in spans if s[0] == "expansion.inner")
    m["expansion.eigen_element_points"] = sum(
        pa(i, "points") for i in props if _within(spans, i, "expansion."))
    m["inverse.misfit_evals"] = len(misfits)
    m["inverse.sweeps_per_eval"] = (
        sum(1 for i in deltas if _within(spans, i, MISFIT)) / len(misfits) if misfits else 0.0)
    m["inverse.misfit_s"] = (statistics.fmean(s[2] - s[1] for s in misfits)
                             if misfits else 0.0)
    m["inverse.self_s"] = inverse_outside_misfit
    m["trace.spans"] = len(spans)
    # without a grid cache every build_grid call builds a grid
    m["integrator.grid_builds"] = sum(1 for s in spans if s[0] == "integrator.build_grid")
    return m

