"""Drawing construction, verification, gluing, and JSON round trip."""

import cmath
import json
import math
import pickle
import sys

import pytest

from conftest import (
    FIXTURES,
    drawn,
    drawn_medial,
    k4_gadgets,
    load_graph,
    load_text,
    nested_gadgets,
    transform,
)
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
    json_text,
    p_node_drawing,
    subdivide_arc,
    to_json,
    verify,
)
from lombardi.geometry import Arc, Circle, Line, Mobius, arc_through, inversion, segment
from lombardi import graph
from lombardi.graph import GraphError, PlanarGraph, is_three_connected, parse
from lombardi.packing import kite_triangulation, primal_dual_pack

sys.path.insert(0, str(FIXTURES.parent / "perfbench"))
import family  # noqa: E402
import run as bench  # noqa: E402

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


def test_verify_adjacent_arcs_on_huge_support_do_not_cross():
    # a path a-b-c along a radius-4e9 circle: the angles of b on the two
    # arcs differ by rounding, which the radius turns into ~1e-6 of overlap
    radius = 4e9
    g = parse("a b\nb a c\nc b\n")
    for k in range(-30, 31):
        phi = k / 10
        c = Circle(-radius * cmath.exp(1j * phi), radius)
        a, b, z = (c.point_at(phi + s / radius) for s in (-1.0, 0.0, 1.0))
        ab = Arc(c, a, b, c.point_at(phi - 0.5 / radius))
        bz = Arc(c, b, z, c.point_at(phi + 0.5 / radius))
        d = LombardiDrawing(
            {"a": a, "b": b, "c": z},
            {("e", "a", "b"): ab, ("e", "b", "c"): bz},
            {("e", "a", "b"): ("a", "b"), ("e", "b", "c"): ("b", "c")},
        )
        rep = verify(d, g)
        assert rep.crossings == [], phi


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
    # same vertex and edge sets, but c0 and c1 swap names: four tags
    # then join the wrong vertices
    g, d, _ = drawn("cube")
    swap = {"c0": "c1", "c1": "c0"}
    relabelled = LombardiDrawing(
        {swap.get(v, v): z for v, z in d.positions.items()},
        dict(d.arcs),
        {t: tuple(swap.get(v, v) for v in ends) for t, ends in d.edges.items()},
    )
    assert verify(relabelled).passed
    with pytest.raises(DrawingError, match="joins different vertices"):
        verify(relabelled, g)


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
    d = p_node_drawing(("a", "b"), ["m", "u", "l"])
    assert len(d.arcs) == 3
    g = None
    rep = verify(d)
    assert rep.passed
    # three arcs between the same two vertices, 120 degrees apart
    assert rep.max_angle_residual < 1e-9


def test_expand_virtual_edge():
    virt = ("virt", 999)
    d = p_node_drawing(("a", "b"), ["t0", "t1", virt])
    a, b = 0.3, 1.5
    m = expand_virtual_edge(d, virt, "a", a, b)
    # the map sends u, the arc's midpoint and w to the three targets
    assert abs(m.apply(d.positions["a"]) - cmath.exp(1j * a)) < 1e-12
    assert abs(m.apply(d.arcs[virt].midpoint()) - (-cmath.exp(1j * (a + b) / 2))) < 1e-12
    assert abs(m.apply(d.positions["b"]) - cmath.exp(1j * b)) < 1e-12
    # the placed side: the virtual arc goes around the unit circle the
    # long way from a to b, with its midpoint where the map sends it
    d2 = transform(d, m)
    arc = d2.arcs[virt]
    assert isinstance(arc.support, Circle)
    assert abs(arc.support.center) < 1e-12 and arc.support.radius == pytest.approx(1.0, abs=1e-12)
    assert arc.subtended_angle() == pytest.approx(2 * math.pi - (b - a), abs=1e-12)
    assert abs(arc.midpoint() - (-cmath.exp(1j * (a + b) / 2))) < 1e-12

    # the map reverses orientation: the turn between two arc-ends at u flips
    def turn(dd: LombardiDrawing) -> float:
        z = dd.positions["a"]
        return cmath.phase(dd.arcs["t1"].tangent_direction(z) / dd.arcs["t0"].tangent_direction(z))

    assert turn(d2) == pytest.approx(-turn(d), abs=1e-12)
    # the bond is symmetric, so the other two arcs have their midpoints on
    # the ray at angle (a + b) / 2, one inside the unit circle, one outside
    mids = sorted((d2.arcs[t].midpoint() for t in ("t0", "t1")), key=abs)
    for m in mids:
        assert cmath.phase(m) == pytest.approx((a + b) / 2, abs=1e-12)
    assert abs(mids[0]) < 1 < abs(mids[1])
    assert verify(d2).passed


def test_subdivide_arc_keeps_positions():
    d = p_node_drawing(("a", "b"), ["m", "u", "l"])
    tag = next(iter(d.arcs))
    before = dict(d.positions)
    u, w = d.edges[tag]
    # the drawing passed in is the result
    assert subdivide_arc(d, tag, ["m1", "m2"], [7, "x", ("y", 1)]) is None
    for v, z in before.items():
        assert d.positions[v] == z
    assert "m1" in d.positions and "m2" in d.positions
    assert tag not in d.arcs
    # the sub-arcs carry the given tags, in order from the first endpoint
    assert set(d.arcs) == {"u", "l", 7, "x", ("y", 1)}
    assert [d.edges[t] for t in (7, "x", ("y", 1))] == [(u, "m1"), ("m1", "m2"), ("m2", w)]
    rep = verify(d)
    assert rep.passed
    # subdivision points have degree 2 with smooth 180-degree continuation
    assert d.degree("m1") == 2


def test_claw_drawing_verifies():
    d = claw_drawing("c", ["t0", 1, ("t", 2)])
    rep = verify(d)
    assert rep.passed
    degs = sorted(d.degree(v) for v in d.positions)
    assert degs == [1, 1, 1, 3]
    # one stub per tag, each from the centre to its own leaf
    assert set(d.arcs) == {"t0", 1, ("t", 2)}
    assert all(d.edges[t][0] == "c" for t in d.arcs)
    # smaller stars: leaves at 2*pi/k spacing, the first straight up
    for k in (1, 2):
        d = claw_drawing("c", [f"t{i}" for i in range(k)])
        assert verify(d).passed
        assert abs(d.positions[d.edges["t0"][1]] - 1j) < 1e-15
        assert sorted(d.degree(v) for v in d.positions) == [1] * k + [k]


def test_attach_bridge_stubs_on_chain():
    # replace one triangle edge by a chain carrying one bridge stub
    d2 = triangle_drawing()
    tag = ("e", "v0", "v1")
    # the drawing passed in is the result
    assert attach_bridge_stubs(d2, tag, ["v0", "j", "v1"], [0, 1], {"j": ("b", "j")}) is None
    assert "j" in d2.positions
    assert d2.degree("j") == 3
    # the stub ends at a fresh degree-1 vertex
    u, w = d2.edges[("b", "j")]
    leaf = w if u == "j" else u
    assert d2.degree(leaf) == 1
    rep = verify(d2)
    assert rep.passed, rep.summary()
    # a longer chain: two junctions, with bridgeless vertices spread on
    # the arcs next to and between them, each edge under its own tag
    seq = ["v0", "p", "j1", "q", "r", "j2", "v1"]
    tags = ["a", 1, ("t", 2), "b", 3, "c"]
    d3 = triangle_drawing()
    attach_bridge_stubs(d3, tag, seq, tags, {"j1": "s1", "j2": "s2"})
    assert set(d3.arcs) == set(triangle_drawing().arcs) - {tag} | set(tags) | {"s1", "s2"}
    assert [d3.edges[t] for t in tags] == list(zip(seq, seq[1:]))
    assert [d3.degree(v) for v in seq[1:-1]] == [2, 3, 2, 2, 3]
    rep = verify(d3)
    assert rep.passed, rep.summary()


# each call raises before it changes the drawing: (function, arguments
# after the drawing, message); the edge is the triangle's v0-v1
_E = ("e", "v0", "v1")
CHAIN_ERRORS = {
    "subdivide_missing_edge": (subdivide_arc, (("e", "v0", "v9"), ["m"], [0, 1]), "not in the drawing"),
    "subdivide_tag_count": (subdivide_arc, (_E, ["m"], [7]), "one edge tag per edge"),
    "subdivide_old_name": (subdivide_arc, (_E, ["m", "v2"], [0, 1, 2]), "not new and distinct"),
    "subdivide_repeated_name": (subdivide_arc, (_E, ["m", "m"], [0, 1, 2]), "not new and distinct"),
    "stubs_missing_edge": (
        attach_bridge_stubs,
        (("e", "v0", "v9"), ["v0", "j", "v9"], [0, 1], {"j": "s"}),
        "not in the drawing",
    ),
    "stubs_reversed_chain": (attach_bridge_stubs, (_E, ["v1", "j", "v0"], [0, 1], {"j": "s"}), "does not run"),
    "stubs_tag_count": (attach_bridge_stubs, (_E, ["v0", "j", "v1"], [0], {"j": "s"}), "one edge tag per edge"),
    "stubs_old_name": (attach_bridge_stubs, (_E, ["v0", "v2", "v1"], [0, 1], {"v2": "s"}), "not new and distinct"),
    "stubs_repeated_name": (
        attach_bridge_stubs,
        (_E, ["v0", "j", "j", "v1"], [0, 1, 2], {"j": "s"}),
        "not new and distinct",
    ),
    "stubs_key_on_an_end": (attach_bridge_stubs, (_E, ["v0", "j", "v1"], [0, 1], {"v1": "s"}), "not inside"),
    "stubs_key_outside": (attach_bridge_stubs, (_E, ["v0", "j", "v1"], [0, 1], {"x": "s"}), "not inside"),
    # a tag that names another edge, or one used twice, would overwrite it
    "subdivide_other_edge_tag": (subdivide_arc, (_E, ["m"], [("e", "v1", "v2"), "x"]), "tags are not new"),
    "subdivide_repeated_tag": (subdivide_arc, (_E, ["m", "n"], ["x", 0, "x"]), "tags are not new"),
    "stubs_other_edge_tag": (
        attach_bridge_stubs,
        (_E, ["v0", "j", "v1"], [0, ("e", "v0", "v2")], {"j": "s"}),
        "tags are not new",
    ),
    "stubs_repeated_tag": (attach_bridge_stubs, (_E, ["v0", "j", "v1"], [0, 0], {"j": "s"}), "tags are not new"),
    "stubs_stub_tag_names_an_edge": (
        attach_bridge_stubs,
        (_E, ["v0", "j", "v1"], [0, 1], {"j": ("e", "v1", "v2")}),
        "tags are not new",
    ),
    "stubs_stub_tag_on_the_chain": (attach_bridge_stubs, (_E, ["v0", "j", "v1"], [0, 1], {"j": 1}), "tags are not new"),
    "stubs_repeated_stub_tag": (
        attach_bridge_stubs,
        (_E, ["v0", "j", "k", "v1"], [0, 1, 2], {"j": "s", "k": "s"}),
        "tags are not new",
    ),
}


@pytest.mark.parametrize("case", sorted(CHAIN_ERRORS))
def test_chain_step_raises_before_changing_the_drawing(case):
    fn, args, message = CHAIN_ERRORS[case]
    d = triangle_drawing()
    with pytest.raises(DrawingError, match=message):
        fn(d, *args)
    assert d == triangle_drawing()


def test_chain_step_leaves_the_drawing_whole_when_the_arc_cannot_be_split():
    # a two-ray arc through infinity has no point at a fraction of its length
    def two_rays():
        return LombardiDrawing({"a": 0j, "b": 1 + 0j}, {"e": Arc(Line(1j, 0.0), 0j, 1 + 0j, 5 + 0j)}, {"e": ("a", "b")})

    d = two_rays()
    with pytest.raises(DrawingError, match="unbounded line arc"):
        subdivide_arc(d, "e", ["m"], [0, 1])
    assert d == two_rays()


def test_glue_bridge_joins_two_claws():
    # each side carries the shared bridge edge as a stub to a degree-1
    # placeholder leaf; gluing replaces both stubs by one straight bridge
    bridge = 0
    dA = claw_drawing("c", ["cu1", "cu2", bridge])
    dB = claw_drawing("k", ["kw1", "kw2", bridge])
    leaves = {dA.edges[bridge][1], dB.edges[bridge][1]}
    d = glue_bridge(dA, dB, bridge, ("c", "k"))
    assert d.edges[bridge] == ("c", "k")
    assert not leaves & set(d.positions)
    assert d.degree("c") == 3 and d.degree("k") == 3
    rep = verify(d)
    assert rep.passed, rep.summary()
    # a bare stub: both ends have degree 1, and the anchors say which end stays
    d = glue_bridge(claw_drawing("a", [bridge]), claw_drawing("b", [bridge]), bridge, ("a", "b"))
    assert d.positions.keys() == {"a", "b"} and d.edges == {bridge: ("a", "b")}
    assert verify(d).passed
    with pytest.raises(DrawingError, match="not an end"):
        glue_bridge(dA, dB, bridge, ("k", "c"))


def test_transform_and_mirror_preserve_verification():
    d = triangle_drawing()
    m = Mobius(1.1, 0.2 + 0.1j, 0.05, 1)
    d2 = transform(d, m)
    rep = verify(d2, triangle_graph())
    assert rep.passed
    assert rep.max_angle_residual < 1e-7
    d3 = transform(d, Mobius(1, 0, 0, 1, conj=True))  # the mirror image
    rep3 = verify(d3, triangle_graph())
    assert rep3.passed


# --------------------------------------------------------------------------
# general subcubic pipeline


def sector_overflow_text() -> str:
    """Two K4 copies c0, c1 and a dodecahedron c2 joined by two 2-edge-cuts.

    c1.b-c1.c and c0.c-c0.d become c1.b-c0.c and c1.c-c0.d; then
    c2.v09-c2.v10 and c0.a-c0.c become c2.v09-c0.a and c2.v10-c0.c.  Each
    new edge takes the rotation slots of the edges it replaces.  One
    S-node component's body reaches outside its angular sector of the
    unit circle, and the glued drawing is still valid.
    """
    rot = {}
    for prefix, name in (("c0.", "k4"), ("c1.", "k4"), ("c2.", "dodecahedron")):
        g = load_graph(name)
        rot.update({prefix + v: [prefix + w for w in g.neighbors(v)] for v in g.vertices})
    for a, b, c, d in (("c1.b", "c1.c", "c0.c", "c0.d"), ("c2.v09", "c2.v10", "c0.a", "c0.c")):
        for v, old, new in ((a, b, c), (c, d, a), (b, a, d), (d, c, b)):
            rot[v][rot[v].index(old)] = new
    return "".join(" ".join([v, *nbrs]) + "\n" for v, nbrs in rot.items())


@pytest.mark.parametrize(
    "text,nv",
    [
        ("a b\nb a\n", 2),  # single edge
        ("a b\nb a c\nc b d\nd c\n", 4),  # path
        ("a b f\nb a c\nc b d\nd c e\ne d f\nf e a\n", 6),  # 6-cycle
        pytest.param(sector_overflow_text(), 28, id="sector-overflow"),
        # S nodes nested in S nodes' sides; (108, 16) failed the gate with
        # angle residual 1.8e-4 when inner S nodes re-expanded the whole
        # assembly instead of gluing sides drawn whole
        pytest.param(k4_gadgets(0, 8), 36, id="gadgets-0-8"),
        pytest.param(k4_gadgets(108, 16), 68, id="gadgets-108-16"),
        # every S node in a side of the previous one: the smallest vertex
        # gap over the diameter falls from 1e-1 at depth 1 to 1.5e-9 at 10
        *(pytest.param(nested_gadgets(k), 4 + 4 * k, id=f"nested-{k}") for k in range(1, 11)),
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


def test_draw_subcubic_outer_face():
    # a 3-connected cubic graph is drawn around the requested face, as
    # draw_3connected draws it, and labelled with it
    cube = load_graph("cube")
    for k in range(len(cube.faces())):
        d = draw_subcubic(cube, outer_face=k)
        assert d.outer_face == k and d.positions == draw_3connected(cube, outer_face=k).positions
    # two_k4e is not 3-connected: every request draws the same drawing,
    # which carries no label
    g = load_graph("two_k4e")
    drawings = [draw_subcubic(g, outer_face=k) for k in range(len(g.faces()))]
    assert all(d.positions == drawings[0].positions and d.outer_face is None for d in drawings)
    # the index is checked against the faces of every input; a lone
    # vertex has one face, the plane
    for h, k in ((g, len(g.faces())), (cube, -1), (parse("a\n"), 1)):
        with pytest.raises(GraphError, match="out of range"):
            draw_subcubic(h, outer_face=k)
    assert draw_subcubic(parse("a\n"), outer_face=0).outer_face is None


OUTER_FACE_GRAPHS = ["k4", "cube", "frucht", "dodecahedron", "tutte", "truncated_icosahedron"]


@pytest.mark.parametrize(
    "name,face",
    [(name, face) for name in OUTER_FACE_GRAPHS for face in range(len(load_graph(name).faces()))],
)
def test_every_outer_face_draws(name, face):
    # a guard on packing and Moebius arithmetic: at k4's face 3 and
    # tutte's face 8 the optimal automorphism is within 1e-14 of the
    # identity, so its pole lies 1e14 or more away, and the optimizer's
    # image radii and the tangency points the vertices are read from must
    # keep their digits there
    d = draw_subcubic(load_graph(name), outer_face=face)
    assert d.outer_face == face and d.report.passed


def test_block_chains_are_laid_into_one_drawing(monkeypatch):
    # the chains of a block (subdivisions and bridge stubs) are laid into
    # the drawing of its SPQR decomposition, not into a copy per chain
    import lombardi.drawing as drawing

    tops, blocks, depth = [], [], [0]
    spqr_drawing, block_drawing = drawing._spqr_drawing, drawing._block_drawing

    def outermost_spqr_drawing(*args):
        depth[0] += 1
        try:
            d = spqr_drawing(*args)
        finally:
            depth[0] -= 1
        if depth[0] == 0:
            tops.append(d)
        return d

    def recorded_block_drawing(*args):
        blocks.append(block_drawing(*args))
        return blocks[-1]

    monkeypatch.setattr(drawing, "_spqr_drawing", outermost_spqr_drawing)
    monkeypatch.setattr(drawing, "_block_drawing", recorded_block_drawing)
    for text in (subdivided_k4(), load_text("irregular69"), load_text("two_blocks_bridge")):
        tops.clear()
        blocks.clear()
        draw_subcubic(parse(text))
        assert blocks and [id(d) for d in blocks] == [id(d) for d in tops]


@pytest.mark.parametrize("name", ["two_k4e", "double_claw", "two_blocks_bridge"])
def test_draw_subcubic_fixtures(name):
    g, d, _ = drawn(name)
    rep = verify(d, g)
    assert rep.passed, f"{name}: {rep.summary()}"
    assert rep.max_angle_residual < 1e-6


# edge tags other than parse()'s: the drawing must carry the caller's own
TAG_MAPS = {"int": lambda i: i, "str": lambda i: f"edge{i}", "tuple": lambda i: ("x", i)}
CHAINS = bench.build_family(graph, "chains", 0)  # the benchmark's inputs at family seed 0


def _drawable_inputs() -> dict:
    """Every subcubic fixture, and every bridgeless chains input."""
    out = {}
    for path in sorted(FIXTURES.glob("*.txt")):
        g = parse(path.read_text())
        if max(g.degree(v) for v in g.vertices) <= 3:
            out[path.stem] = g
    for name, text in CHAINS.items():
        g = parse(text)
        if name not in out and not g.bridges():
            out[f"chains-{name}"] = g
    return out


DRAWABLE = _drawable_inputs()


def retagged(g: PlanarGraph, tag_of) -> PlanarGraph:
    """``g`` with its k-th edge (in ``g.edges`` order) tagged ``tag_of(k)``."""
    index = {t: k for k, t in enumerate(g.edges)}
    return PlanarGraph({v: [tag_of(index[t]) for t in g.rot[v]] for v in g.vertices})


@pytest.mark.parametrize("tags", sorted(TAG_MAPS))
@pytest.mark.parametrize("name", sorted(DRAWABLE))
def test_draw_subcubic_keeps_the_callers_edge_tags(name, tags):
    g = retagged(DRAWABLE[name], TAG_MAPS[tags])
    d = draw_subcubic(g)
    assert set(d.arcs) == set(d.edges) == set(g.edges)
    assert all(set(d.edges[t]) == set(g.endpoints(t)) for t in g.edges)
    assert verify(d, g).passed
    back = from_json(json.loads(json.dumps(to_json(d))))
    assert back.edges == d.edges and back.arcs == d.arcs and back.positions == d.positions


@pytest.mark.parametrize(
    "rot",
    [
        {"a": [1, 2, 3], "b": [3, 2, 4], "x": [1, 4]},
        {"a": [1, 2, 5], "b": [1, 2, 6], "p": [5], "q": [6]},
    ],
    ids=["two-parallel-edges-and-a-path", "digon-with-two-pendants"],
)
def test_draw_subcubic_multigraph(rot):
    g = PlanarGraph(rot)
    g.check_planar()
    d = draw_subcubic(g)
    assert set(d.arcs) == set(g.edges)
    rep = verify(d, g)
    assert rep.passed, rep.summary()


def k33() -> PlanarGraph:
    """K3,3 with one rotation system.  It is cubic and 3-connected, and no
    rotation system of it is planar: V-E+F = 2 needs 5 faces, each of at
    least 4 of its 18 darts."""
    a, b = ["a1", "a2", "a3"], ["b1", "b2", "b3"]
    rot = {u: [(u, w) for w in b] for u in a}
    rot.update({w: [(u, w) for u in reversed(a)] for w in b})
    return PlanarGraph(rot)


@pytest.mark.parametrize(
    "build",
    [
        draw_subcubic,
        draw_3connected,
        draw_medial,
        lambda g: g.dual(),
        lambda g: g.medial(),
        kite_triangulation,
    ],
    ids=["draw_subcubic", "draw_3connected", "draw_medial", "dual", "medial", "kite_triangulation"],
)
def test_a_non_planar_rotation_system_is_a_graph_error(build):
    # graphs derived from a rotation system are planar exactly when it is,
    # so each of these checks its source rather than what it builds
    with pytest.raises(GraphError, match="not planar"):
        build(k33())


def test_draw_subcubic_raises_drawing_error_for_geometry_failures():
    # k4_x8 still fails in bridge gluing (a degenerate Moebius map); that
    # is a failed draw, not a raw ValueError, while bad input stays a
    # GraphError (itself a ValueError)
    with pytest.raises(DrawingError, match="degenerate Moebius"):
        draw_subcubic(parse(CHAINS["k4_x8"]))
    with pytest.raises(GraphError):
        draw_subcubic(load_graph("g18"))


def glue_in_two_steps(dA, dB, bridge, anchors) -> LombardiDrawing:
    """``glue_bridge`` as two whole-side transforms: each side inverted at
    its leaf, then carried by the similarity that places it; the stub
    ray's direction is read off the image of the stub's witness."""
    out = LombardiDrawing({})
    for sign, d, anchor in ((1.0, dA, anchors[0]), (-1.0, dB, anchors[1])):
        u, w = d.edges[bridge]
        leaf = w if u == anchor else u
        inv = inversion(Circle(d.positions[leaf], abs(d.positions[anchor] - d.positions[leaf])))
        body = LombardiDrawing(
            {v: z for v, z in d.positions.items() if v != leaf},
            {t: a for t, a in d.arcs.items() if t != bridge},
            {t: e for t, e in d.edges.items() if t != bridge},
        )
        inverted = transform(body, inv)
        a_img = inverted.positions[anchor]
        ray = inv.apply(d.arcs[bridge].witness) - a_img
        images = list(inverted.positions.values()) + [inv.apply(a.witness) for a in body.arcs.values()]
        sc = sign / (ray / abs(ray)) / max([abs(z - a_img) for z in images] + [1e-9])
        placed = transform(inverted, Mobius(sc, -2.0 * sign - sc * a_img, 0, 1))
        out.positions.update(placed.positions)
        out.arcs.update(placed.arcs)
        out.edges.update(placed.edges)
    out.arcs[bridge] = segment(out.positions[anchors[0]], out.positions[anchors[1]])
    out.edges[bridge] = tuple(anchors)
    return out


def _necklace(name: str, copies: int) -> str:
    return family.to_text(family.necklace(family.rotation_of(load_graph(name)), copies))


# the chains inputs with a bridge that draw (k4_x8 fails, see above), and
# short K4 and cube necklaces
BRIDGED = {name: text for name, text in CHAINS.items() if parse(text).bridges() and name != "k4_x8"}
BRIDGED.update({f"{b}_x{k}": _necklace(b, k) for b in ("k4", "cube") for k in (2, 3, 4)})


def _glue_calls(monkeypatch, text: str, name: str = "glue_bridge") -> list:
    """(arguments..., glued drawing, apply_arc calls) of every call of
    ``drawing.<name>`` that drawing ``text`` makes: (dA, dB, bridge,
    anchors, ...) for ``glue_bridge``, (sides, cycle, ...) for
    ``glue_s_node``."""
    import lombardi.drawing as drawing

    calls, count = [], [0]
    glue, apply_arc = getattr(drawing, name), Mobius.apply_arc

    def counted_apply_arc(self, arc):
        count[0] += 1
        return apply_arc(self, arc)

    def recorded_glue(*args):
        before = count[0]
        calls.append((*args, glue(*args), count[0] - before))
        return calls[-1][-2]

    monkeypatch.setattr(Mobius, "apply_arc", counted_apply_arc)
    monkeypatch.setattr(drawing, name, recorded_glue)
    draw_subcubic(parse(text))
    assert calls
    return calls


@pytest.mark.parametrize("name", sorted(BRIDGED))
def test_glue_bridge_agrees_with_inverting_then_scaling(monkeypatch, name):
    for dA, dB, bridge, anchors, d, _ in _glue_calls(monkeypatch, BRIDGED[name]):
        ref = glue_in_two_steps(dA, dB, bridge, anchors)
        assert d.edges == ref.edges and d.positions.keys() == ref.positions.keys()
        zs = list(d.positions.values())
        tol = 1e-9 * max(abs(z - x) for z in zs for x in zs)
        assert all(abs(z - ref.positions[v]) <= tol for v, z in d.positions.items())
        for t, a in d.arcs.items():
            b = ref.arcs[t]
            assert all(abs(z - x) <= tol for z, x in zip((a.p, a.q, a.witness), (b.p, b.q, b.witness))), t


@pytest.mark.parametrize("name", ["irregular69", "cube_x3"])
def test_glue_bridge_maps_each_arc_once(monkeypatch, name):
    # one apply_arc per arc of each side but the bridge stub; the ray a
    # stub inverts to is read off the stub's tangent, not mapped
    for dA, dB, _, _, _, apply_arcs in _glue_calls(monkeypatch, BRIDGED[name]):
        assert apply_arcs == (len(dA.arcs) - 1) + (len(dB.arcs) - 1) + 0


@pytest.mark.parametrize("name", ["two_k4e", "nested_gadgets4"])
def test_glue_s_node_maps_each_arc_once(monkeypatch, name):
    # one apply_arc per arc of each side but its virtual edge, which the
    # cycle's unit-circle arcs replace unmapped
    text = nested_gadgets(4) if name == "nested_gadgets4" else load_text(name)
    for sides, _, _, apply_arcs in _glue_calls(monkeypatch, text, "glue_s_node"):
        assert apply_arcs == sum(len(side.arcs) - 1 for side in sides.values())


@pytest.mark.parametrize("name", ["cube", "dodecahedron", "truncated_icosahedron"])
def test_arc_supports_are_lines_or_moderate_circles(name):
    # a nearly straight edge is drawn on a Line: a circle of radius
    # 1e9 times the drawing loses digits under every Moebius map
    g, d, _ = drawn(name)
    pts = list(d.positions.values())
    diameter = max(abs(p - q) for p in pts for q in pts)
    for t, arc in d.arcs.items():
        if isinstance(arc.support, Circle):
            assert arc.support.radius <= 1e6 * diameter, (name, t, arc.support.radius)


def subdivided_k4() -> str:
    """K4 with every edge subdivided once, as rotation-system text."""
    rot = {}
    for line in K4_TEXT.splitlines():
        v, *nbrs = line.split()
        rot[v] = ["".join(sorted(v + w)) for w in nbrs]
    for v, mids in list(rot.items()):
        for m in mids:
            rot.setdefault(m, []).append(v)
    return "".join(" ".join([v] + nbrs) + "\n" for v, nbrs in rot.items())


def _cli_draw(text: str, tmp_path) -> None:
    from lombardi.cli import main

    path = tmp_path / "g.txt"
    path.write_text(text)
    assert main([str(path), "--format", "both"]) == 0


@pytest.mark.parametrize(
    "draw,text",
    [
        (lambda text, _: draw_subcubic(parse(text)), subdivided_k4()),
        (lambda text, _: draw_subcubic(parse(text)), load_text("cube")),
        (lambda text, _: draw_medial(parse(text)), K4_TEXT),
        (_cli_draw, load_text("cube")),
        (_cli_draw, load_text("two_blocks_bridge")),
        (_cli_draw, load_text("two_k4e")),
        (_cli_draw, load_text("irregular69")),
    ],
    ids=[
        "subcubic-k4-subdivided",
        "subcubic-cube",
        "medial-k4",
        "cli-cube",
        "cli-two-blocks-bridge",
        "cli-two-k4e",
        "cli-irregular69",
    ],
)
def test_entry_points_verify_once(monkeypatch, tmp_path, draw, text):
    # the entry point is the one verification gate: its construction
    # steps (SPQR and bridge gluing, stubs, subdivision) return unverified
    # drawings once, without retries, and the CLI prints the gate's report
    import lombardi.cli as cli
    import lombardi.drawing as drawing

    calls = []
    real = drawing.verify

    def counted(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(drawing, "verify", counted)
    monkeypatch.setattr(cli, "verify", counted)
    draw(text, tmp_path)
    assert len(calls) == 1


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


@pytest.mark.parametrize("name", ["k4", "octahedron", "cube", "dodecahedron", "tutte"])
def test_draw_medial_corners_meet_their_circles_at_45_degrees(name):
    # the paper's construction: each corner arc bisects its vertex-face
    # lune, which verify's 90 degree spacing alone does not pin down
    g, d = load_graph(name), drawn_medial(name)
    pdp = primal_dual_pack(g)
    for fi, walk in enumerate(g.faces()):
        for i in range(len(walk)):
            arc = d.arcs[("corner", fi, i)]
            v, f = walk[(i + 1) % len(walk)][0], f"f{fi}"
            cv, cf = pdp.vertex_circles[v], pdp.face_circles[f]
            for z in (arc.p, arc.q):
                t = arc.tangent_direction(z)
                for c in (cv, cf):
                    turn = abs(cmath.phase(t / (1j * (z - c.center)))) % (math.pi / 2)
                    assert abs(turn - math.pi / 4) <= 1e-9
            # the hub's disk is the exterior, so its lune is outside its circle
            w = arc.witness
            assert (cv.strictly_inside(w), cf.strictly_inside(w)) == (v != pdp.hub, f != pdp.hub)


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


def test_json_text_is_json_dumps_with_indent_2():
    drawings = []  # every fixture that draws, in both modes
    for path in sorted(FIXTURES.glob("*.txt")):
        g = parse(path.read_text())
        if max(map(g.degree, g.vertices)) <= 3:
            drawings.append(draw_subcubic(g))
        if is_three_connected(g):
            drawings.append(draw_medial(g))
    assert len(drawings) == 17
    # a lone vertex, a straight edge, and tags of every kind JSON holds
    lone = LombardiDrawing({"v": 0j})
    tags = LombardiDrawing(
        {"plain": 0j, "naïve ✓": 1 + 0j, 7: 1j, 2.5: 3 + 1j, ("x", ("y", 2), ()): -1 + 0j, None: 2 + 2j, True: -3j, -5: 4 + 0j}
    )
    for t, (u, w) in {
        ("e", ()): ("plain", "naïve ✓"),
        "straight": ("plain", 7),
        2.5: (2.5, "plain"),
        3: (7, ("x", ("y", 2), ())),
        (): ("plain", None),
        (("deep", (1, ("er",))),): (True, "plain"),
        2**70: (-5, "plain"),  # ints beyond 64 bits and below zero
        ("corner", -1, 2**64 + 1): (-5, 7),
    }.items():
        p, q = tags.positions[u], tags.positions[w]
        tags.arcs[t] = segment(p, q) if t == "straight" else arc_through(p, q, (p + q) / 2 + 0.3j * (q - p))
        tags.edges[t] = (u, w)
    assert any(isinstance(a.support, Line) for a in tags.arcs.values())
    drawings += [LombardiDrawing({}), lone, tags, LombardiDrawing(dict(tags.positions), dict(tags.arcs), dict(tags.edges), 2)]
    for d in drawings:
        obj = to_json(d)
        assert json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("bad", [complex(math.nan, 0), complex(0, math.inf)])
def test_json_text_refuses_non_finite_numbers(bad):
    with pytest.raises(ValueError):
        json_text(to_json(LombardiDrawing({"v": bad})))


def test_draws_leave_the_input_graph_unchanged():
    # draw_subcubic draws a bridgeless input, and its only piece, uncopied
    for path in sorted(FIXTURES.glob("*.txt")):
        g = parse(path.read_text())
        before = ({v: list(ts) for v, ts in g.rot.items()}, list(g.vertices), list(g.edges), [list(f) for f in g.faces()])
        for draw in (draw_subcubic, draw_medial):
            try:
                draw(g)
            except GraphError:
                pass
            after = (g.rot, g.vertices, g.edges, g.faces())
            assert after == before, f"{path.stem}: {draw.__name__} changed its input"


def test_drawing_equality_and_repr_ignore_the_report():
    d = draw_subcubic(load_graph("k4"))
    bare = LombardiDrawing(d.positions, d.arcs, d.edges, d.outer_face)
    assert d.report is not None and bare.report is None
    assert d == bare and repr(d) == repr(bare)
    assert repr(bare) == (
        f"LombardiDrawing(positions={d.positions!r}, arcs={d.arcs!r}, edges={d.edges!r}, outer_face={d.outer_face!r})"
    )
    assert d != LombardiDrawing(d.positions, d.arcs, d.edges, 0 if d.outer_face is None else None)
    back = pickle.loads(pickle.dumps(d))  # the report travels along, as a field it is
    assert back == d and back.report == d.report and back.report.passed
