"""Drawing construction, verification, gluing, and JSON round trip."""

import cmath
import math

import pytest

from conftest import drawn, load_graph
from lombardi.drawing import (
    DrawingError,
    LombardiDrawing,
    arc_with_tangent,
    attach_bridge_stubs,
    claw_drawing,
    draw_3connected,
    draw_medial,
    draw_subcubic,
    expand_virtual_edge,
    from_json,
    glue_bridge,
    mirror,
    p_node_drawing,
    subdivide_arc,
    to_json,
    transform,
    verify,
)
from lombardi.geometry import Circle, Mobius, arc_through, segment
from lombardi.graph import GraphError, parse

K4_TEXT = "a b c d\nb c a d\nc a b d\nd a c b\n"


def triangle_drawing() -> LombardiDrawing:
    """Three vertices on the unit circle joined by its arcs: a valid
    Lombardi drawing of the 3-cycle (two arcs per vertex, 180 degrees)."""
    zs = {f"v{k}": cmath.exp(2j * math.pi * k / 3) for k in range(3)}
    names = list(zs)
    arcs, edges = {}, {}
    for i in range(3):
        u, w = names[i], names[(i + 1) % 3]
        mid = cmath.exp(2j * math.pi * (i + 0.5) / 3)
        t = ("e", *sorted((u, w)))
        arcs[t] = arc_through(zs[u], zs[w], mid)
        edges[t] = (u, w)
    return LombardiDrawing(dict(zs), arcs, edges)


def triangle_graph():
    return parse("v0 v1 v2\nv1 v2 v0\nv2 v0 v1\n")


def test_verify_accepts_valid_drawing():
    rep = verify(triangle_drawing(), triangle_graph())
    assert rep.passed
    assert rep.max_angle_residual < 1e-12
    assert rep.max_endpoint_error < 1e-12
    assert rep.crossings == []


def test_verify_detects_displaced_vertex():
    d = triangle_drawing()
    d.positions["v0"] += 0.01
    rep = verify(d, triangle_graph())
    assert not rep.passed
    assert not (rep.endpoint_ok and rep.angles_ok)


def test_verify_detects_unequal_angles():
    # replace one circular edge by the chord: endpoints still meet but
    # the angles at both ends change
    d = triangle_drawing()
    t = ("e", "v0", "v1")
    d.arcs[t] = segment(d.positions["v0"], d.positions["v1"])
    rep = verify(d, triangle_graph())
    assert rep.endpoint_ok
    assert not rep.angles_ok


def test_verify_detects_crossing():
    # two plain segments crossing at their midpoints, as a 2-edge graph
    g = parse("a b\nb a\nc d\nd c\n".replace("c d\nd c\n", "c d\nd c\n"))
    d = LombardiDrawing(
        {"a": -1 - 1j, "b": 1 + 1j, "c": -1 + 1j, "d": 1 - 1j},
        {
            ("e", "a", "b"): segment(-1 - 1j, 1 + 1j),
            ("e", "c", "d"): segment(-1 + 1j, 1 - 1j),
        },
        {("e", "a", "b"): ("a", "b"), ("e", "c", "d"): ("c", "d")},
    )
    rep = verify(d, g)
    assert not rep.noncrossing_ok
    assert len(rep.crossings) == 1


def test_verify_detects_coincident_vertices():
    d = triangle_drawing()
    d.positions["v1"] = d.positions["v0"]
    rep = verify(d, triangle_graph())
    assert not rep.distinct_ok


def test_verify_rejects_edge_set_mismatch():
    d = triangle_drawing()
    g = parse(K4_TEXT)
    with pytest.raises((DrawingError, ValueError, KeyError)):
        verify(d, g)


def test_arc_with_tangent():
    # the arc from p to q leaving p in direction t
    a = arc_with_tangent(1 + 0j, 1j, 1j)  # tangent +i at 1: the ccw quarter circle
    assert abs(a.tangent_direction(1 + 0j) - 1j) < 1e-9
    assert a.contains(cmath.exp(0.25j * math.pi), 1e-9)
    # straight case: tangent along the chord gives a segment-like arc
    b = arc_with_tangent(0j, 2 + 0j, 1 + 0j)
    assert b.contains(1 + 0j, 1e-9)


# --------------------------------------------------------------------------
# 3-connected pipeline


def test_draw_3connected_k4():
    g = parse(K4_TEXT)
    d = draw_3connected(g)
    rep = verify(d, g)
    assert rep.passed
    assert rep.max_angle_residual < 1e-6
    assert len(d.arcs) == 6 and len(d.positions) == 4


def test_draw_3connected_k4_rotational_symmetry():
    # with the outer face fixed, the three vertices not on the axis of
    # the fourth are related by a rotation about the drawing's center
    g = parse(K4_TEXT)
    d = draw_3connected(g)
    outer_verts = set(g.face_vertices(d.outer_face if d.outer_face is not None else 0))
    zs = sorted((d.positions[v] for v in outer_verts), key=lambda z: cmath.phase(z))
    radii = [abs(z) for z in zs]
    assert max(radii) - min(radii) < 1e-6
    gaps = sorted(
        (cmath.phase(zs[(i + 1) % 3] / zs[i]) % (2 * math.pi)) for i in range(3)
    )
    assert max(gaps) - min(gaps) < 1e-6


def test_draw_3connected_rejects_bad_input():
    with pytest.raises(GraphError):
        draw_3connected(parse("a b\nb a\n"))
    with pytest.raises(GraphError):
        draw_3connected(parse(K4_TEXT), outer_face=99)


# --------------------------------------------------------------------------
# SPQR pieces and gluing


def test_p_node_drawing_verifies():
    d = p_node_drawing()
    assert len(d.arcs) == 3
    g = None
    rep = verify(d)
    assert rep.passed
    # three arcs between the same two vertices, 120 degrees apart
    assert rep.max_angle_residual < 1e-9


def test_expand_virtual_edge():
    tags = ["t0", "t1", ("virt", 999)]
    d = p_node_drawing(tags=tags)
    d2 = expand_virtual_edge(d, ("virt", 999))
    # the virtual edge's arc now subtends almost the full circle on the
    # other side, leaving room to splice a component in
    a = d2.arcs[("virt", 999)]
    assert a.subtended_angle() > 2 * math.pi * 0.9
    rep = verify(d2)
    assert rep.passed


def test_subdivide_arc_keeps_positions():
    d = p_node_drawing()
    tag = next(iter(d.arcs))
    before = dict(d.positions)
    d2 = subdivide_arc(d, tag, ["m1", "m2"])
    for v, z in before.items():
        assert d2.positions[v] == z
    assert "m1" in d2.positions and "m2" in d2.positions
    assert tag not in d2.arcs
    rep = verify(d2)
    assert rep.passed
    # subdivision points have degree 2 with smooth 180-degree continuation
    assert d2.degree("m1") == 2


def test_claw_drawing_verifies():
    d = claw_drawing()
    rep = verify(d)
    assert rep.passed
    degs = sorted(d.degree(v) for v in d.positions)
    assert degs == [1, 1, 1, 3]


def test_attach_bridge_stubs_on_chain():
    # replace one triangle edge by a chain carrying one bridge stub
    d = triangle_drawing()
    tag = ("e", "v0", "v1")
    d2 = attach_bridge_stubs(d, tag, k=1, junction_names=["j"], stub_tags=[("b", "j")])
    assert "j" in d2.positions
    assert d2.degree("j") == 3
    # the stub ends at a fresh degree-1 vertex
    u, w = d2.edges[("b", "j")]
    leaf = w if u == "j" else u
    assert d2.degree(leaf) == 1
    rep = verify(d2)
    assert rep.passed, rep.summary()
    # a stub ten times the default length crosses the triangle and is
    # halved until it fits
    d3 = attach_bridge_stubs(d, tag, face=1, k=1, junction_names=["j"], stub_tags=[("b", "j")], stub_scale=3.0)
    rep = verify(d3)
    assert rep.passed, rep.summary()
    pos = d3.positions
    requested = 3.0 * min(abs(pos["j"] - pos["v0"]), abs(pos["v1"] - pos["j"]))
    u, w = d3.edges[("b", "j")]
    assert abs(abs(pos[u] - pos[w]) - 1.3449) < 1e-4
    assert abs(pos[u] - pos[w]) < requested


def test_glue_bridge_joins_two_claws():
    # each side carries the shared bridge edge as a stub to a degree-1
    # placeholder leaf; gluing replaces both stubs by one straight bridge
    bridge = ("e", "c", "k")
    dA = claw_drawing("c", ("u1", "u2", "sA"), tags=[("e", "c", "u1"), ("e", "c", "u2"), bridge])
    dB = claw_drawing("k", ("w1", "w2", "sB"), tags=[("e", "k", "w1"), ("e", "k", "w2"), bridge])
    d = glue_bridge(dA, dB, bridge)
    assert set(d.edges[bridge]) == {"c", "k"}
    assert "sA" not in d.positions and "sB" not in d.positions
    assert d.degree("c") == 3 and d.degree("k") == 3
    rep = verify(d)
    assert rep.passed, rep.summary()


def test_transform_and_mirror_preserve_verification():
    d = triangle_drawing()
    m = Mobius(1.1, 0.2 + 0.1j, 0.05, 1)
    d2 = transform(d, m)
    rep = verify(d2, triangle_graph())
    assert rep.passed
    assert rep.max_angle_residual < 1e-7
    d3 = mirror(d)
    rep3 = verify(d3, triangle_graph())
    assert rep3.passed


# --------------------------------------------------------------------------
# general subcubic pipeline


@pytest.mark.parametrize(
    "text,nv",
    [
        ("a b\nb a\n", 2),  # single edge
        ("a b\nb a c\nc b d\nd c\n", 4),  # path
        ("a b f\nb a c\nc b d\nd c e\ne d f\nf e a\n", 6),  # 6-cycle
    ],
)
def test_draw_subcubic_small(text, nv):
    g = parse(text)
    d = draw_subcubic(g)
    assert len(d.positions) == nv
    rep = verify(d, g)
    assert rep.passed, rep.summary()
    assert rep.max_angle_residual < 1e-6


def test_draw_subcubic_teardrop():
    # a triangle with a pendant edge: cycle plus bridge at one vertex
    g = parse("a b c x\nb c a\nc a b\nx a\n")
    d = draw_subcubic(g)
    rep = verify(d, g)
    assert rep.passed, rep.summary()


def test_draw_subcubic_rejects_bad_degree_or_disconnection():
    with pytest.raises(GraphError):
        draw_subcubic(load_graph("g18"))  # 4-regular
    with pytest.raises(GraphError):
        draw_subcubic(parse("a b\nb a\nc d\nd c\n"))  # disconnected


@pytest.mark.parametrize("name", ["two_k4e", "double_claw", "two_blocks_bridge"])
def test_draw_subcubic_fixtures(name):
    g, d, _ = drawn(name)
    rep = verify(d, g)
    assert rep.passed, f"{name}: {rep.summary()}"
    assert rep.max_angle_residual < 1e-6


# --------------------------------------------------------------------------
# medial drawings


def test_draw_medial_k4_octahedron():
    g = parse(K4_TEXT)
    d = draw_medial(g)
    assert len(d.positions) == 6
    assert len(d.arcs) == 12
    mg, _ = g.medial()
    rep = verify(d, mg)
    assert rep.passed, rep.summary()
    assert all(d.degree(v) == 4 for v in d.positions)


def test_draw_medial_rejects_non_polyhedral():
    with pytest.raises(GraphError):
        draw_medial(load_graph("g18"))
    with pytest.raises(GraphError):
        draw_medial(load_graph("two_blocks_bridge"))


# --------------------------------------------------------------------------
# JSON round trip


def test_json_round_trip():
    g, d, _ = drawn("two_k4e")
    obj = to_json(d)
    d2 = from_json(obj)
    assert set(d2.positions) == set(d.positions)
    for v in d.positions:
        assert d2.positions[v] == d.positions[v]
    assert set(map(repr, d2.arcs)) == set(map(repr, d.arcs))
    for t in d.arcs:
        a, b = d.arcs[t], d2.arcs[t]
        assert a.p == b.p and a.q == b.q and a.witness == b.witness
        assert type(a.support) is type(b.support)
    rep = verify(d2, g)
    assert rep.passed
    # the JSON itself is pure-python serializable
    import json

    json.dumps(obj)
