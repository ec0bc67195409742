"""Per-layer tracing for the benchmark, installed from outside the library.

``Tracer.install`` replaces every binding of each named ``lombardi``
function (the defining module, every ``from .x import`` copy in other
modules, and class attributes for methods) with a wrapper:

- a *span* wrapper records ``[name, start, end, parent, draw]`` for each
  call, where ``parent`` is the index of the enclosing span (-1 at the
  top) and ``draw`` the id of the input being drawn, and counts calls that
  raise;
- a *count* wrapper only counts calls, for functions so small that timing
  each call would cost more than the call.

Spans stay in memory; ``layer_metrics`` turns them into per-layer calls,
total time and self time, and ``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# Spanned functions, as "<module>.<attribute path>" under ``lombardi``.
SPANNED = (
    "graph.parse",
    "graph.PlanarGraph.faces",
    "graph.PlanarGraph.dual",
    "graph.PlanarGraph.medial",
    "graph.PlanarGraph.bridges",
    "graph.PlanarGraph.suppress_degree_two",
    "graph.spqr",
    "graph.is_three_connected",
    "packing.pack_and_layout",
    "packing.pack_triangulation",
    "packing.layout_centers",
    "packing.kite_triangulation",
    "packing.primal_dual_pack",
    "mobius_opt.normalize_outer",
    "mobius_opt.optimize_min_radius",
    "mobius_opt.apply_to_normalized",
    "geometry.isodynamic_points",
    "geometry.lune_bisector",
    "drawing.draw_subcubic",
    "drawing.draw_medial",
    "drawing.draw_3connected",
    "drawing.drawing_from_packing",
    "drawing.glue_s_node",
    "drawing.expand_virtual_edge",
    "drawing.subdivide_arc",
    "drawing.attach_bridge_stubs",
    "drawing.glue_bridge",
    "drawing.verify",
    "drawing.to_json",
    "cli.emit_svg",
)

COUNTED = (
    "packing.edge_length",
    "mobius_opt.disk_automorphism",
    "geometry.Mobius.apply_circle",
    "geometry.Mobius.apply_arc",
    "geometry.arc_intersections",
)

# Steps the library retries on failure; their raised calls are reported.
RETRIED = (
    "drawing.attach_bridge_stubs",
    "drawing.expand_virtual_edge",
    "drawing.glue_bridge",
    "drawing.draw_3connected",
)

IMPROVING_STEPS = "mobius_opt.improving_steps"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.draw = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, errors, clock = self.spans, self._stack, self.errors, time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.draw]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapped

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _with_history(self, fn):
        """Pass ``history=[]`` to ``optimize_min_radius`` and count the
        improving steps it appends after the starting value.  The list is
        only appended to, so the result does not change."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            history = kwargs.setdefault("history", [])
            try:
                return fn(*args, **kwargs)
            finally:
                counts[IMPROVING_STEPS] += max(0, len(history) - 1)

        return wrapped

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        for name in SPANNED + COUNTED:
            owner, attr = self._resolve(name)
            orig = fn = vars(owner)[attr]
            if name == "mobius_opt.optimize_min_radius":
                fn = self._with_history(fn)
            wrapper = self._span(name, fn) if name in SPANNED else self._count(name, fn)
            if isinstance(owner, type):
                self._set(owner, attr, orig, wrapper)
                continue
            # a module-level function: rebind it wherever it was imported
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "lombardi" or mod_name.startswith("lombardi."):
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._set(mod, key, orig, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    @staticmethod
    def _resolve(name: str) -> tuple[object, str]:
        mod, *path = name.split(".")
        owner = sys.modules[f"lombardi.{mod}"]
        for part in path[:-1]:
            owner = getattr(owner, part)
        return owner, path[-1]

    def _set(self, owner, attr: str, orig, wrapper) -> None:
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, wrapper)


def span_times(spans: list[list]) -> dict[str, tuple[int, float, float]]:
    """Per name: (calls, total seconds, self seconds).

    A span's self time is its duration minus the durations of its direct
    children.  Total time adds the spans of a name that are not nested in
    another span of the same name, so recursion is not counted twice.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        rec = out.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[2] += (end - start) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            rec[1] += end - start
    return {k: (v[0], v[1], v[2]) for k, v in out.items()}


def layer_metrics(tracer: Tracer, draws: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric by name, as (value, unit)."""
    times = span_times(tracer.spans)
    m: dict[str, tuple[float, str]] = {}
    for name in SPANNED:
        calls, total, self_s = times.get(name, (0, 0.0, 0.0))
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.total_s"] = (total, "s")
        m[f"{name}.self_s"] = (self_s, "s")
    for name in COUNTED:
        m[f"{name}.calls"] = (tracer.counts[name], "count")
    for name in RETRIED:
        m[f"{name}.errors"] = (tracer.errors[name], "count")
    verify_calls = m["drawing.verify.calls"][0]
    m["drawing.verify.per_draw"] = (verify_calls / draws if draws else 0.0, "1")
    evals = tracer.counts["mobius_opt.disk_automorphism"]
    m["mobius_opt.accept_ratio"] = (tracer.counts[IMPROVING_STEPS] / evals if evals else 0.0, "1")
    stubs = m["drawing.attach_bridge_stubs.calls"][0]
    stub_errors = tracer.errors["drawing.attach_bridge_stubs"]
    m["drawing.attach_bridge_stubs.error_ratio"] = (stub_errors / stubs if stubs else 0.0, "1")
    return m
