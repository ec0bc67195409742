"""The SVG and JSON writers against their one-call-per-number references.

``cli.emit_svg`` and ``drawing.json_text`` must give the same text as
tests/reference_writers.py, or raise the same exception, on every
drawing: the fixtures in both modes, every benchmark input, and
hypothesis-built drawings with signed zeros, numbers that round to
-0.000000000, non-finite coordinates, line arcs, arcs sweeping more
than pi, and str, int and tuple tags.
"""

import cmath
import math
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_writers as ref
from conftest import FIXTURES, drawn, drawn_medial, load_graph
from lombardi import cli
from lombardi.drawing import DrawingError, LombardiDrawing, draw_medial, draw_subcubic, json_text, to_json
from lombardi.geometry import INF, Arc, Circle, Line
from lombardi.graph import is_three_connected, parse

sys.path.insert(0, str(FIXTURES.parent / "perfbench"))
import run as perfbench_run  # noqa: E402


def outcome(f, *args):
    """What ``f(*args)`` gives: its value, or its exception's type and text."""
    try:
        return "value", f(*args)
    except Exception as err:  # noqa: BLE001 - any exception must match the reference's
        return type(err), str(err)


def assert_same_writes(d: LombardiDrawing) -> None:
    assert outcome(cli.emit_svg, d) == outcome(ref.emit_svg, d)
    obj = outcome(to_json, d)
    if obj[0] == "value":
        assert outcome(json_text, obj[1]) == outcome(ref.json_text, obj[1])


def fixture_drawings():
    for path in sorted(FIXTURES.glob("*.txt")):
        g = load_graph(path.stem)
        if max(map(g.degree, g.vertices)) <= 3:
            yield drawn(path.stem)[1]
        if is_three_connected(g):
            yield drawn_medial(path.stem)


def test_writers_match_the_references_on_the_fixtures():
    drawings = list(fixture_drawings())
    assert len(drawings) == 17
    for d in drawings:
        assert_same_writes(d)


@pytest.mark.parametrize("workload", sorted(perfbench_run.WORKLOADS))
def test_writers_match_the_references_on_the_benchmark_inputs(workload):
    mode = perfbench_run.WORKLOADS[workload][0]
    texts = perfbench_run.build_family(sys.modules["lombardi.graph"], workload, 0)
    drew = 0
    for text in texts.values():
        g = parse(text)
        try:
            if mode == "medial":
                d = draw_medial(g)
            else:
                d = draw_subcubic(g, outer_face=cli._default_outer_face(g))
        except DrawingError:
            continue  # chains' k4_x8 does not draw at the benchmark's labelling
        assert_same_writes(d)
        drew += 1
    assert drew >= len(texts) - 1


# numbers either writer could get wrong: signed zeros, numbers on both
# sides of rounding to -0.000000000, and the non-finite ones
SPECIAL = [0.0, -0.0, -1e-10, 1e-10, -4.9e-10, -5.1e-10, 0.5e-9, -1.0, 2.5, math.inf, -math.inf, math.nan]
finite = st.one_of(st.sampled_from([x for x in SPECIAL if math.isfinite(x)]), st.floats(-1e3, 1e3))
anything = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e3, 1e3))
angle = st.floats(-7.0, 7.0)
tags = st.one_of(
    st.text(max_size=3),
    st.integers(-(2**70), 2**70),
    st.tuples(st.text(max_size=2), st.integers(-3, 3)),
    st.tuples(st.sampled_from(["t", "e"]), st.tuples(st.integers(0, 2), st.text(max_size=1))),
)


@st.composite
def arcs(draw):
    kind = draw(st.sampled_from(["circle", "line", "ray", "wild"]))
    if kind == "circle":  # three points of one circle; the witness anywhere on it
        c, r = complex(draw(finite), draw(finite)), draw(st.floats(1e-3, 1e3))
        p, q, w = (c + r * cmath.exp(1j * draw(angle)) for _ in range(3))
        assume(len({p, q, w}) == 3)
        return Arc(Circle(c, r), p, q, w)
    normal = cmath.exp(1j * draw(angle))
    line = Line(normal, draw(finite))
    at = [normal * line.offset + 1j * normal * draw(finite) for _ in range(3)]
    assume(len(set(at)) == 3)
    if kind == "line":
        return Arc(line, *at)
    if kind == "ray":  # through infinity, at an end or as the witness
        return Arc(line, *draw(st.sampled_from([(at[0], at[1], INF), (at[0], INF, at[1]), (INF, at[0], at[1])])))
    # points off their support, each coordinate possibly not finite
    pts = [complex(draw(anything), draw(anything)) for _ in range(3)]
    assume(all(pts[i] != pts[j] or not cmath.isfinite(pts[i]) for i in range(3) for j in range(i)))
    support = Circle(complex(draw(anything), draw(anything)), draw(st.floats(1e-3, 1e3)))
    return Arc(draw(st.sampled_from([support, line])), *pts)


@st.composite
def drawings(draw):
    names = draw(st.lists(tags, max_size=5, unique=True))
    positions = {v: complex(draw(anything if draw(st.booleans()) else finite), draw(finite)) for v in names}
    d = LombardiDrawing(positions, outer_face=draw(st.one_of(st.none(), st.integers(-2, 9))))
    if names:
        for t in draw(st.lists(tags, max_size=5, unique=True)):
            d.arcs[t] = draw(arcs())
            d.edges[t] = (draw(st.sampled_from(names)), draw(st.sampled_from(names)))
    return d


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(drawings())
def test_writers_match_the_references_on_generated_drawings(d):
    assert_same_writes(d)


def test_writers_match_the_references_on_each_case():
    # one drawing per case the writers treat apart, whatever the
    # generated ones happen to reach
    circle = Circle(0.5 + 0j, 1.0)
    big = Arc(circle, circle.point_at(0.1), circle.point_at(3.0), circle.point_at(-1.0))  # sweeps > pi
    line = Arc(Line(1j, 0.0), -1 + 0j, 1 + 0j, 0.25 + 0j)
    positions = {"a": complex(-1e-10, -0.0), 7: complex(-4.9e-10, 1e-10), ("t", 1): complex(-5.1e-10, 3.0)}
    cases = [
        LombardiDrawing(positions, {"big": big, ("e", 2): line}, {"big": ("a", 7), ("e", 2): (7, ("t", 1))}, 3),
        LombardiDrawing({"a": complex(math.nan, 0.0), "b": 1j}, {"e": line}, {"e": ("a", "b")}),
        LombardiDrawing({"a": complex(0.0, -math.inf)}),
        LombardiDrawing({"a": 0j, "b": 1j}, {"e": Arc(Line(1j, 0.0), -1 + 0j, 1 + 0j, INF)}, {"e": ("a", "b")}),
        LombardiDrawing({"a": 0j, "b": 1j}, {"e": Arc(Line(1j, 0.0), INF, 1 + 0j, 0.5 + 0j)}, {"e": ("a", "b")}),
        LombardiDrawing({"a": 0j}, {"e": Arc(Circle(complex(math.inf, 0), 1.0), 0j, 1j, 2j)}, {"e": ("a", "a")}),
        LombardiDrawing({"a": 0j}, {"e": Arc(circle, 0j, complex(0, math.nan), 2j)}, {"e": ("a", "a")}),
        LombardiDrawing({"a": 0j}, {"e": Arc(circle, 0j, 2j, complex(math.inf, 1.0))}, {"e": ("a", "a")}),
        LombardiDrawing({"a": -1 + 0j, "b": 1 + 0j}, {"e": Arc(Line(1j, 0.0), -1 + 0j, 1 + 0j, 5 + 0j)}, {"e": ("a", "b")}),
    ]
    svg = [outcome(ref.emit_svg, d) for d in cases]
    paths = [line.split() for line in svg[0][1].splitlines() if line.startswith("<path")]
    assert [p[4] for p in paths] == ["A", "L"] and paths[0][8] == "1"  # the large-arc flag
    assert "-0.000000000" in ref._FMT.format(-1e-10) and "-0.000000000" not in svg[0][1]
    assert [s[0] for s in svg[3:]] == [DrawingError, AttributeError, "value", DrawingError, DrawingError, DrawingError]
    assert outcome(ref.json_text, to_json(cases[1]))[0] is ValueError
    for d in cases:
        assert_same_writes(d)
