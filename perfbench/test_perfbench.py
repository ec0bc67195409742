"""Tests for the benchmark's own code: input family, span arithmetic,
tracer patching, speed correction and metric names.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import signal
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import family  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from lombardi import cli, drawing, graph, packing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _fixture(name: str) -> graph.PlanarGraph:
    return graph.parse((HERE.parent / "fixtures" / f"{name}.txt").read_text())


def _shape(g: graph.PlanarGraph) -> tuple:
    """Embedding invariants that a relabelling must keep."""
    return (
        sorted(g.degree(v) for v in g.vertices),
        sorted(len(f) for f in g.faces()),
        len(g.edges),
    )


def test_generated_sizes_and_planarity():
    for workload, (mode, _) in run.WORKLOADS.items():
        texts = run.build_family(graph, workload, family_seed=0)
        for name, text in texts.items():
            g = graph.parse(text)  # parse() checks the genus-0 rotation system
            assert g.is_connected()
            if mode == "subcubic":
                assert max(g.degree(v) for v in g.vertices) <= 3
            if name in run.EXPECTED_SIZE:
                assert len(g.vertices) == run.EXPECTED_SIZE[name]


def test_truncation_is_cubic_with_expected_faces():
    g = graph.parse(family.to_text(family.truncate(family.rotation_of(_fixture("truncated_icosahedron")))))
    assert all(g.degree(v) == 3 for v in g.vertices)
    # pentagons and hexagons double, every old vertex leaves a triangle
    assert Counter(len(f) for f in g.faces()) == Counter({10: 12, 12: 20, 3: 60})


def test_necklace_has_bridges_between_copies():
    g = graph.parse(family.to_text(family.necklace(family.rotation_of(_fixture("k4")), 8)))
    assert len(g.bridges()) == 7
    assert sum(g.degree(v) == 2 for v in g.vertices) == 2


def test_relabel_is_deterministic_and_keeps_the_embedding():
    rot = family.subdivide(family.rotation_of(_fixture("dodecahedron")), 2)
    base = graph.parse(family.to_text(rot))
    a = family.to_text(family.relabel(rot, 7))
    assert a == family.to_text(family.relabel(rot, 7))
    b = family.to_text(family.relabel(rot, 8))
    assert a != b
    for text in (a, b):
        assert _shape(graph.parse(text)) == _shape(base)


def test_self_time_of_nested_spans():
    # outer [0, 10] holds a [1, 4] and b [5, 9]; b holds a recursive a [6, 8]
    spans = [
        ["outer", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["a", 6.0, 8.0, 2, 0],
        ["a", 6.5, 7.0, 3, 0],
    ]
    t = tracing.span_times(spans)
    assert t["outer"] == (1, 10.0, 3.0)
    assert t["b"] == (1, 4.0, 2.0)
    # self: 3 + (2 - 0.5) + 0.5; total skips the span nested in another "a"
    assert t["a"] == (3, 5.0, 5.0)
    assert sum(s for _, _, s in t.values()) == 10.0


def test_tracer_patches_every_binding_and_restores_it():
    orig = packing.pack_and_layout
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert drawing.pack_and_layout is packing.pack_and_layout is not orig
        assert cli.verify is drawing.verify
    finally:
        tracer.uninstall()
    assert drawing.pack_and_layout is packing.pack_and_layout is orig


def test_traced_draw_matches_untraced_and_counts_layers():
    g = _fixture("k4")
    plain = json.dumps(drawing.to_json(drawing.draw_subcubic(g)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = json.dumps(drawing.to_json(drawing.draw_subcubic(g)))
    finally:
        tracer.uninstall()
    assert traced == plain
    m = tracing.layer_metrics(tracer, draws=1)
    assert m["drawing.draw_subcubic.calls"][0] == 1
    assert m["mobius_opt.optimize_min_radius.calls"][0] == 1
    assert m["packing.edge_length.calls"][0] > 0
    assert 0 < m["mobius_opt.accept_ratio"][0] < 1
    assert m["drawing.verify.per_draw"][0] == m["drawing.verify.calls"][0]
    assert m["drawing.draw_subcubic.self_s"][0] <= m["drawing.draw_subcubic.total_s"][0]


def test_speed_correction_of_fake_probes():
    clock = speed.SpeedClock()
    assert clock.slowdown(0.0, 1.0) == 1.0  # no probes: no correction
    # one probe a second; at the nominal time for ten seconds, then twice as slow
    nominal = speed.NOMINAL_PROBE
    clock.starts = [float(t) for t in range(20)]
    clock.probes = [nominal] * 10 + [2 * nominal] * 10
    # five slow probes inside: their own time is removed, the rest halved
    assert abs(clock.seconds(10.5, 15.5) - (5.0 - 10 * nominal) / 2) < 1e-12
    # no probe inside: the three nearest ones (1, 2 and 3 s) are at nominal speed
    assert clock.probe_seconds(2.2, 2.4) == 0.0
    assert abs(clock.seconds(2.2, 2.4) - 0.2) < 1e-12
    # across the change of speed the speeds are averaged: (1 + 1/2 + 1/2) / 3
    assert abs(clock.slowdown(8.5, 11.5) - 1.5) < 1e-12


def test_speed_clock_probes_while_running_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    clock = speed.SpeedClock()
    clock.start()
    try:
        end = time.perf_counter() + 4 * speed.PERIOD
        while time.perf_counter() < end:
            sum(range(1000))
    finally:
        clock.stop()
    assert len(clock.probes) >= 2
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_metric_names_and_benchmark_file_agree():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)

    layer = set(tracing.layer_metrics(tracing.Tracer(), draws=1)) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert set(run.ONLY_ON) | set(run.NEVER_ON) <= set(tracing.SPANNED + tracing.COUNTED)

    inputs = [run.Input("x", Path("x.txt"), 4)]
    e2e = run.end_to_end(inputs, [{"x": run.Outcome(0, 1.0, verified=True, residual=1e-8, gap=0.5)}], 0.1)
    assert {m["name"] for m in spec["end_to_end"]} == set(e2e)
