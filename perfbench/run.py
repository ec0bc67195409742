#!/usr/bin/env python3
"""Benchmark: draw fixed workloads through ``lombardi.cli.main`` in-process.

    python3 perfbench/run.py --workload cubic --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` and the base graphs are read from ``fixtures/``.  Each draw is the
user's path: ``main([input, "--format", "both", ...])`` at default flags,
i.e. parse, draw, verify, then SVG and JSON emission.  Load is a closed
loop: one process, one thread, the next draw starts when the previous one
returns.  Whole passes over the workload's inputs repeat until the next
one would overrun ``--seconds`` (at least one pass); within a pass the
small inputs are drawn again after every input (see ``run_pass``).

Every time the benchmark reports is wall time corrected for the speed the
shared machine gave the process while it ran (see ``speed.py``); the raw
wall times are printed beside them.

``--seed`` shuffles the order in which each pass draws the inputs.  The
inputs are the shipped fixtures and the scaled family relabelled at
``--family-seed`` (default 0).  The labelling changes which inputs draw
at all and how long packing takes, so it is fixed for the benchmark and
changed only to recheck a claim on another labelling.

Untimed after each pass, every output is checked: the JSON is reloaded
with ``from_json`` and verified against the parsed input (or its medial
graph), and the SVG and JSON bytes of each input must be identical in
every draw of the run.  A draw fails when it does not exit 0 with an output that
verifies again; failures are counted, not hidden.

The run re-executes itself once with ``PYTHONHASHSEED=0``: the per-process
hash salt changes dict layouts and with them draw times, not outputs.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` one untraced pass is followed
by one pass with wrappers installed around each layer (see
``tracing.py``); the per-layer metrics are printed, the spans are written
to ``perfbench/_work/spans-<workload>.json``, and a self-check requires
that every wrapped function ran where the workload is meant to reach it
and that functions meant to stay idle did not run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SETUP_REPEATS = 9
SMALL = 12  # inputs with at most this many vertices make up small_s

# workload -> (CLI mode, [(input name, recipe)]); a recipe is a fixture
# name, or (family function, fixture name, argument).
WORKLOADS: dict[str, tuple[str, list]] = {
    # the paper's main pipeline: tangent packing and the optimizer do
    # almost all the work, gluing none
    "cubic": ("subcubic", [
        ("k4", "k4"),
        ("cube", "cube"),
        ("frucht", "frucht"),
        ("dodecahedron", "dodecahedron"),
        ("tutte", "tutte"),
        ("truncated_icosahedron", "truncated_icosahedron"),
        ("trunc180", ("truncate", "truncated_icosahedron", None)),
    ]),
    # packing with prescribed overlap angles; the optimizer never runs
    "medial": ("medial", [
        ("k4", "k4"),
        ("octahedron", "octahedron"),
        ("cube", "cube"),
        ("dodecahedron", "dodecahedron"),
        ("tutte", "tutte"),
    ]),
    # subdivision, SPQR gluing and bridge stubs, each re-verifying
    "chains": ("subcubic", [
        ("two_k4e", "two_k4e"),
        ("double_claw", "double_claw"),
        ("two_blocks_bridge", "two_blocks_bridge"),
        ("irregular69", "irregular69"),
        ("dodecahedron_sub2", ("subdivide", "dodecahedron", 2)),
        ("dodecahedron_x4", ("necklace", "dodecahedron", 4)),
        ("cube_x3", ("necklace", "cube", 3)),
        ("k4_x8", ("necklace", "k4", 8)),
        ("trunc_icosa_sub1", ("subdivide", "truncated_icosahedron", 1)),
    ]),
}

# vertex counts the generator must produce
EXPECTED_SIZE = {
    "trunc180": 180,
    "trunc_icosa_sub1": 150,
    "dodecahedron_sub2": 80,
    "dodecahedron_x4": 88,
    "cube_x3": 30,
    "k4_x8": 48,
}

# Traced-run self-check: workloads on which each wrapped function must run
# (a function missing here must run on every workload), and workloads on
# which it must not run at all.
ONLY_ON = {
    "graph.PlanarGraph.dual": ("cubic", "chains"),
    "graph.PlanarGraph.medial": ("medial",),
    "graph.PlanarGraph.bridges": ("cubic", "chains"),
    "graph.PlanarGraph.suppress_degree_two": ("cubic", "chains"),
    "graph.spqr": ("cubic", "chains"),
    "graph.is_three_connected": ("medial",),
    "packing.pack_and_layout": ("cubic", "chains"),
    "packing.kite_triangulation": ("medial",),
    "packing.primal_dual_pack": ("medial",),
    "mobius_opt.normalize_outer": ("cubic", "chains"),
    "mobius_opt.optimize_min_radius": ("cubic", "chains"),
    "mobius_opt.apply_to_normalized": ("cubic", "chains"),
    "mobius_opt.disk_automorphism": ("cubic", "chains"),
    "geometry.isodynamic_points": ("cubic", "chains"),
    "geometry.lune_bisector": ("medial",),
    "geometry.Mobius.apply_arc": ("chains",),
    "drawing.draw_subcubic": ("cubic", "chains"),
    "drawing.draw_medial": ("medial",),
    "drawing.draw_3connected": ("cubic", "chains"),
    "drawing.drawing_from_packing": ("cubic", "chains"),
    "drawing.glue_s_node": ("chains",),
    "drawing.expand_virtual_edge": ("chains",),
    "drawing.subdivide_arc": ("chains",),
    "drawing.attach_bridge_stubs": ("chains",),
    "drawing.glue_bridge": ("chains",),
}
NEVER_ON = {
    "mobius_opt.optimize_min_radius": ("medial",),
    "packing.primal_dual_pack": ("cubic", "chains"),
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run or its self-check failed."""


@dataclass
class Input:
    name: str
    path: Path
    vertices: int


@dataclass
class Outcome:
    status: object  # CLI exit status, or the name of an uncaught exception
    seconds: float  # set by ``settle``: median corrected time of the draws
    error: str = ""
    output: bytes = b""  # the SVG and JSON files, read back untimed
    intervals: list = field(default_factory=list)  # (start, end) of each draw
    wall: float = 0.0  # median raw wall time of the draws
    verified: bool = False
    residual: float = 0.0
    gap: float = 0.0
    digest: str = ""


@dataclass
class Gate:
    """What the correctness gate has seen across the passes of a run."""

    outcomes: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# set-up


def _import_library():
    """Import ``lombardi`` from ``src/`` afresh; returns the modules used."""
    for name in [m for m in sys.modules if m == "lombardi" or m.startswith("lombardi.")]:
        del sys.modules[name]
    import lombardi.cli as cli
    import lombardi.drawing as drawing
    import lombardi.graph as graph

    return cli, drawing, graph


def build_family(graph, workload: str, family_seed: int) -> dict[str, str]:
    """Text of every input of the workload: fixtures as shipped, generated
    inputs relabelled by ``family_seed``."""
    import family

    fixtures: dict = {}

    def base(name: str):
        if name not in fixtures:
            text = (ROOT / "fixtures" / f"{name}.txt").read_text()
            fixtures[name] = family.rotation_of(graph.parse(text))
        return fixtures[name]

    texts = {}
    for name, recipe in WORKLOADS[workload][1]:
        if isinstance(recipe, str):
            text = family.to_text(base(recipe))
        else:
            fn, fixture, arg = recipe
            rot = getattr(family, fn)(base(fixture), *([] if arg is None else [arg]))
            text = family.to_text(family.relabel(rot, family_seed))
        n = len(graph.parse(text).vertices)
        if n != EXPECTED_SIZE.get(name, n):
            raise BenchError(f"{name}: generated {n} vertices, expected {EXPECTED_SIZE[name]}")
        texts[name] = text
    return texts


def setup(workload: str, family_seed: int, workdir: Path):
    """Import the library, build the inputs and write them; repeated
    ``SETUP_REPEATS`` times.  Returns (modules, inputs, [(start, end)])."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        modules = _import_library()
        texts = build_family(modules[2], workload, family_seed)
        inputs = []
        for name, text in texts.items():
            path = workdir / f"{name}.txt"
            path.write_text(text)
            inputs.append(Input(name, path, text.count("\n")))
        times.append((t0, time.perf_counter()))
    return modules, inputs, times


# ---------------------------------------------------------------------------
# measurement


def draw(cli, inp: Input, mode: str) -> Outcome:
    """One timed CLI invocation.  Output files of earlier draws are removed
    first, so what is read back is what this call wrote."""
    for suffix in (".svg", ".json"):
        inp.path.with_suffix(suffix).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    argv = [str(inp.path), "--format", "both", "--mode", mode]
    crash = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            status = cli.main(argv)
        except Exception as exc:  # a crash is a failed draw, as for a user
            status, crash = type(exc).__name__, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    first = crash or next((ln for ln in err.getvalue().splitlines() if ln.strip()), "")
    res = Outcome(status, t1 - t0, error=first, intervals=[(t0, t1)])
    if status == 0:
        try:
            svg, js = (inp.path.with_suffix(x).read_bytes() for x in (".svg", ".json"))
            res.output = svg + b"\0" + js
        except FileNotFoundError:
            res.error = "exit 0 without both SVG and JSON output"
    return res


def min_vertex_gap(positions) -> float:
    """Smallest distance between two vertices over the drawing diameter."""
    pts = list(positions.values())
    lo, hi = math.inf, 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dist = abs(pts[i] - pts[j])
            lo, hi = min(lo, dist), max(hi, dist)
    return lo / hi if hi > 0 else math.inf


def check(modules, mode: str, inp: Input, res: Outcome, gate: Gate) -> None:
    """Untimed correctness gate for one draw; fills in ``res``."""
    _, drawing, graph = modules
    if res.status == 0 and not res.output:
        gate.problems.append(f"{inp.name}: {res.error}")
    elif res.status == 0:
        raw = res.output.split(b"\0", 1)[1]
        g = graph.parse(inp.path.read_text())
        ref = g.medial()[0] if mode == "medial" else g
        d = drawing.from_json(json.loads(raw))
        rep = drawing.verify(d, ref)
        res.verified = rep.passed
        if rep.passed:
            res.residual = rep.max_angle_residual
            res.gap = min_vertex_gap(d.positions)
        else:
            res.error = f"output does not verify again: {rep.summary()}"
            gate.problems.append(f"{inp.name}: exit 0 but {res.error}")
        res.digest = hashlib.sha256(res.output).hexdigest()
        res.output = b""
    key = (res.status, res.verified, res.digest)
    if gate.outcomes.setdefault(inp.name, key) != key:
        gate.problems.append(f"{inp.name}: outcome or output bytes differ between draws")


def run_pass(cli, inputs: list[Input], mode: str, order: list[int], gate: Gate, repeat_small: bool, tracer=None):
    """Draw every input once in ``order``.  With ``repeat_small``, the small
    inputs are drawn once more after each input; all draws of an input
    must exit alike with identical output, and ``settle`` later takes the
    median of their times."""
    results: dict[str, Outcome] = {}
    small = [i for i in order if inputs[i].vertices <= SMALL]
    for i in order:
        if tracer is not None:
            tracer.draw = i
        for j in [i] + (small if repeat_small else []):
            res = draw(cli, inputs[j], mode)
            first = results.setdefault(inputs[j].name, res)
            if first is not res:
                first.intervals += res.intervals
            if (res.status, res.output) != (first.status, first.output):
                gate.problems.append(f"{inputs[j].name}: repeated draws differ in exit status or output")
    return results


def settle(passes: list[dict[str, Outcome]], clock) -> None:
    """Set each outcome's seconds to the median corrected time of its
    draws, once all of the run's speed probes are in."""
    for res in passes:
        for r in res.values():
            r.seconds = statistics.median(clock.seconds(a, b) for a, b in r.intervals)
            r.wall = statistics.median(b - a for a, b in r.intervals)


def pass_figures(inputs: list[Input], results: dict[str, Outcome]) -> dict[str, float]:
    total = sum(r.seconds for r in results.values())
    largest = max(inputs, key=lambda x: x.vertices)
    verified_vertices = sum(x.vertices for x in inputs if results[x.name].verified)
    return {
        "pass_s": total,
        "largest_s": results[largest.name].seconds,
        "small_s": sum(results[x.name].seconds for x in inputs if x.vertices <= SMALL),
        "verified_vertices_per_s": verified_vertices / total,
    }


def end_to_end(inputs, passes, setup_s) -> dict[str, tuple[float, str]]:
    figures = [pass_figures(inputs, res) for res in passes]
    draws = [r for res in passes for r in res.values()]
    ok = [r for r in draws if r.verified]
    med = {k: statistics.median(f[k] for f in figures) for k in figures[0]}
    # with nothing verified the quality metrics read 0, their worst value;
    # a residual is floored at double precision so its digits stay finite
    worst = max([r.residual for r in ok] + [1e-16])
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (med["pass_s"], "s"),
        "largest_s": (med["largest_s"], "s"),
        "small_s": (med["small_s"], "s"),
        "verified_vertices_per_s": (med["verified_vertices_per_s"], "1/s"),
        "verified_ratio": (len(ok) / len(draws), "1"),
        "angle_residual_digits": (-math.log10(worst) if ok else 0.0, "digits"),
        "min_vertex_gap": (min((r.gap for r in ok), default=0.0), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def self_check(workload: str, metrics: dict) -> list[str]:
    """Failures of the traced run's predicted non-zero and zero call counts."""
    import tracing

    bad = []
    for name in tracing.SPANNED + tracing.COUNTED:
        calls = metrics[f"{name}.calls"][0]
        if workload in NEVER_ON.get(name, ()):
            if calls:
                bad.append(f"{name} ran {calls} times on {workload}; predicted 0")
        elif workload in ONLY_ON.get(name, (workload,)) and not calls:
            bad.append(f"{name} never ran on {workload}; a binding was missed or the code moved")
    return bad


# ---------------------------------------------------------------------------
# entry point


def _report(workload, inputs, passes, gate, clock) -> None:
    print(f"workload {workload}: {len(inputs)} inputs, {len(passes)} pass(es), "
          f"{len(clock.probes)} speed probes, slowdown against the nominal probe time "
          f"{clock.slowdown(0.0, math.inf):.3f}")
    print(f"  {'input':24s} {'':6s} {'corrected':>10s} {'wall':>10s}")
    for inp in inputs:
        rs = [res[inp.name] for res in passes]
        r = rs[0]
        what = "verified" if r.verified else f"FAILED exit {r.status}: {r.error}"
        secs = statistics.median(x.seconds for x in rs)
        wall = statistics.median(x.wall for x in rs)
        print(f"  {inp.name:24s} n={inp.vertices:<4d} {secs:8.3f} s {wall:8.3f} s  {what}")
    for p in gate.problems:
        print(f"  INCORRECT {p}")


def measure(args, modules, inputs, mode, gate):
    """Untraced passes for ``--seconds`` (one with ``--trace 1``), then with
    ``--trace 1`` one traced pass.  Returns (passes, tracer or None)."""
    cli = modules[0]
    rng = random.Random(args.seed)

    def one_pass(tracer=None):
        # traced, each input is drawn once so that call counts are per draw
        order = rng.sample(range(len(inputs)), len(inputs))
        results = run_pass(cli, inputs, mode, order, gate, tracer is None, tracer)
        if tracer is not None:
            tracer.uninstall()  # the gate's own verify calls are not traced
        for inp in inputs:
            check(modules, mode, inp, results[inp.name], gate)
        return results

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass())
        elapsed = time.perf_counter() - start
        if args.trace or elapsed + elapsed / len(passes) > args.seconds:
            break
    if not args.trace:
        return passes, None

    import tracing

    tracer = tracing.Tracer()
    try:
        tracer.install()
        passes.append(one_pass(tracer))
    finally:
        tracer.uninstall()
    return passes, tracer


def run(args) -> dict:
    if not (ROOT / "src" / "lombardi" / "cli.py").is_file() or not (ROOT / "fixtures").is_dir():
        raise BenchError(f"no lombardi source tree (src/lombardi, fixtures/) under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    mode = WORKLOADS[args.workload][0]
    gate = Gate()

    clock = speed.SpeedClock()
    clock.start()
    try:
        modules, inputs, setups = setup(args.workload, args.family_seed, workdir)
        passes, tracer = measure(args, modules, inputs, mode, gate)
    finally:
        clock.stop()
    settle(passes, clock)

    if tracer is not None:
        import tracing

        metrics = tracing.layer_metrics(tracer, len(inputs))
        overhead = pass_figures(inputs, passes[-1])["pass_s"] - pass_figures(inputs, passes[0])["pass_s"]
        metrics["trace.overhead_s"] = (overhead, "s")
        (WORK / f"spans-{args.workload}.json").write_text(
            json.dumps({"names": [i.name for i in inputs], "spans": tracer.spans})
        )
        bad = self_check(args.workload, metrics)
        if bad:
            raise BenchError("traced-run self-check failed:\n  " + "\n  ".join(bad))
    else:
        setup_s = statistics.median(clock.seconds(a, b) for a, b in setups)
        metrics = end_to_end(inputs, passes, setup_s)

    _report(args.workload, inputs, passes, gate, clock)
    draws = [r for res in passes for r in res.values()]
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:>14.6g} {unit}")
    return {
        "correct": not gate.problems,
        "attempted": sum(len(r.intervals) for r in draws),
        "failed": sum(len(r.intervals) for r in draws if not r.verified),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing is salted per process, and the dict layouts that
        # follow change draw times by up to a fifth (not the outputs), so
        # the run replaces itself with an interpreter that uses one salt.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0, help="shuffles the draw order of each pass")
    p.add_argument("--seconds", type=float, default=40.0, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--family-seed", type=int, default=0, help="relabelling of the generated inputs")
    args = p.parse_args(argv)
    try:
        result = run(args)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK / args.workload, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
