"""Span tracing around the public entry points of the ``aamr`` layers.

The tracer records one span per call of a wrapped function: its name, start,
end, the span that was open when it started (its parent), and one or two
numbers taken from the call's result (iterations, status, bytes written).
Spans live in flat arrays while the workload runs; :meth:`Tracer.spans`
turns them into NumPy arrays afterwards.  Nothing inside the program is
changed: :func:`installed` swaps module and class attributes for wrappers and
restores the originals on exit.
"""

import contextlib
import os
import time
from array import array

import numpy as np

from aamr import bench, geometry, operators, sets, solvers, svgplot

SET_VARIANTS = ("LinearSubspace", "AffineSubspace", "Translate", "Ball", "Box",
                "Halfspace", "Hyperplane", "ProductSet", "Diagonal")
SOLVERS = ("aamr_solve", "aamr_product_solve", "cm_solve", "haugazeau_solve",
           "dr_solve", "map_solve", "rap_solve")
STATUSES = tuple(s.value for s in operators.Status)
_STATUS_CODE = {s: i for i, s in enumerate(operators.Status)}


def _iterations(result, args):
    return result.iterations, _STATUS_CODE[result.status]


def _file_size(result, args):
    return os.path.getsize(args[0]), 0


def _probes():
    """(owner, attribute, span name, category, result reader) per wrapped
    entry point.  ``iterate`` is imported by name into ``solvers``, so it is
    wrapped where the drivers look it up."""
    probes = [(getattr(sets, v), "project", v, "set", None) for v in SET_VARIANTS]
    probes += [
        (operators.AamrOperator, "__call__", "AamrOperator", "step", None),
        (operators.DrOperator, "__call__", "DrOperator", "step", None),
        (operators.StoppingPolicy, "error_of", "error_of", "stop", None),
        (solvers, "iterate", "iterate", "iterate", _iterations),
    ]
    probes += [(solvers, s, s, "solver", _iterations) for s in SOLVERS]
    probes += [
        (bench, "angle_profile", "angle_profile", "sweep", None),
        (bench, "sweep_alpha", "sweep_alpha", "sweep", None),
        (bench, "sweep_beta", "sweep_beta", "sweep", None),
        (bench, "_batched_pair_sweep", "_batched_pair_sweep", "engine", None),
        (bench, "write_runs_csv", "write_runs_csv", "write", _file_size),
        (bench, "write_table_csv", "write_table_csv", "write", _file_size),
        (svgplot, "render_chart", "render_chart", "render", None),
        (geometry, "random_subspace_pair", "random_subspace_pair", "geometry", None),
        # make_instances looks the generator up in the bench namespace
        (bench, "random_subspace_pair", "random_subspace_pair", "geometry", None),
    ]
    return probes


class Tracer:
    """Collects spans from the wrappers that :func:`installed` puts in place."""

    def __init__(self):
        self.names = []
        self.categories = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.aux = array("i")
        self._stack = []

    def clear(self):
        for arr in (self.name, self.parent, self.start, self.end, self.value, self.aux):
            del arr[:]
        self._stack.clear()

    def _name_id(self, name, category):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.categories.append(category)
        return self._ids[name]

    def wrap(self, fn, name, category, reader=None):
        nid = self._name_id(name, category)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        values, auxes, stack = self.value, self.aux, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            values.append(0.0)
            auxes.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if reader is not None:
                values[i], auxes[i] = reader(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def spans(self) -> dict:
        """The recorded spans as arrays, with per-span self time (duration
        minus the time covered by direct children)."""
        name = np.frombuffer(self.name, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        start = np.frombuffer(self.start, dtype=float).copy()
        end = np.frombuffer(self.end, dtype=float).copy()
        duration = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                              minlength=name.size)
        return {"name": name, "parent": parent, "start": start, "end": end,
                "duration": duration, "self": duration - covered,
                "value": np.frombuffer(self.value, dtype=float).copy(),
                "aux": np.frombuffer(self.aux, dtype=np.int32).copy(),
                "names": np.array(self.names), "categories": np.array(self.categories)}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every probe for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, category, reader in _probes():
            original = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, category, reader))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _inside(spans, points, outer):
    """Which ``points`` (span starts) fall inside one of the ``outer`` spans.
    Outer spans of one kind never nest in each other, so they are disjoint
    intervals."""
    starts, ends = spans["start"][outer], spans["end"][outer]
    order = np.argsort(starts)
    starts, ends = starts[order], ends[order]
    idx = np.searchsorted(starts, points, side="right") - 1
    ok = idx >= 0
    ok[ok] = points[ok] < ends[idx[ok]]
    return ok


def _per_call_us(total_s, calls):
    return 1e6 * total_s / calls if calls else 0.0


def layer_metrics(spans, row_iterations: int) -> tuple[dict, dict]:
    """Per-layer figures of one traced round: ``(timings, counts)``.

    ``row_iterations`` is the row engine's work in the round, which the
    caller derives from the sweep's returned rows.  Timings are in the units
    their names carry; counts are exact and must repeat from round to round.
    A figure whose layer did no work in the round reads 0.
    """
    name_of = spans["names"][spans["name"]]
    cat_of = spans["categories"][spans["name"]]
    parent_cat = np.where(spans["parent"] >= 0,
                          cat_of[np.maximum(spans["parent"], 0)], "")
    timings, counts = {}, {}

    is_set = cat_of == "set"
    for variant in SET_VARIANTS:
        m = name_of == variant
        timings[f"sets.project_us.{variant}"] = _per_call_us(spans["self"][m].sum(), m.sum())
    counts["sets.project_calls"] = int(is_set.sum())

    outer_solver = (cat_of == "solver") & (parent_cat != "solver")
    solve_time = spans["duration"][outer_solver].sum()
    timings["sets.share"] = (spans["self"][is_set].sum() / solve_time) if solve_time else 0.0

    is_iterate = cat_of == "iterate"
    iterations = int(spans["value"][is_iterate].sum())
    counts["operators.iterations"] = iterations
    top_sets = is_set & (parent_cat != "set")
    in_loop = _inside(spans, spans["start"][top_sets], is_iterate)
    in_stop = _inside(spans, spans["start"][top_sets], cat_of == "stop")
    loop_projections = int((in_loop & ~in_stop).sum())
    counts["operators.projections_per_iter"] = loop_projections / iterations if iterations else 0.0
    timings["operators.iter_us"] = _per_call_us(spans["duration"][is_iterate].sum(), iterations)
    is_step = cat_of == "step"
    timings["operators.step_self_us"] = _per_call_us(spans["self"][is_step].sum(), is_step.sum())
    is_stop = cat_of == "stop"
    timings["operators.stop_check_us"] = _per_call_us(spans["duration"][is_stop].sum(), is_stop.sum())

    for solver in SOLVERS:
        m = (name_of == solver) & outer_solver
        timings[f"solvers.solve_ms.{solver}"] = \
            1e3 * float(np.median(spans["duration"][m])) if m.any() else 0.0
        counts[f"solvers.iterations.{solver}"] = int(spans["value"][m].sum())
    for code, status in enumerate(STATUSES):
        counts[f"solvers.status.{status}"] = int((spans["aux"][outer_solver] == code).sum())

    for which in ("alpha", "beta"):
        m = name_of == f"sweep_{which}"
        timings[f"bench.sweep_s.{which}"] = float(spans["duration"][m].sum())
    is_engine = cat_of == "engine"
    sweep_time = timings["bench.sweep_s.alpha"] + timings["bench.sweep_s.beta"]
    timings["bench.tail_share"] = (float(spans["duration"][is_engine].max()) / sweep_time
                                   if is_engine.any() and sweep_time else 0.0)
    timings["bench.row_iter_us"] = _per_call_us(spans["duration"][is_engine].sum(),
                                                row_iterations)
    is_write = cat_of == "write"
    timings["bench.write_ms"] = 1e3 * float(spans["duration"][is_write].sum())
    counts["bench.bytes_written"] = int(spans["value"][is_write].sum())
    timings["svgplot.render_ms"] = 1e3 * float(spans["duration"][cat_of == "render"].sum())
    is_geometry = (cat_of == "geometry") & (parent_cat != "geometry")
    timings["geometry.instance_ms"] = (1e3 * float(spans["duration"][is_geometry].mean())
                                       if is_geometry.any() else 0.0)
    return timings, counts
