"""Drawing construction, verification, gluing, and JSON round trip."""

import cmath
import json
import math
import sys

import pytest

from conftest import FIXTURES, drawn, k4_gadgets, load_graph, load_text
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
    p_node_drawing,
    subdivide_arc,
    to_json,
    transform,
    verify,
)
from lombardi.geometry import Arc, Circle, Mobius, arc_through, segment
from lombardi import graph
from lombardi.graph import GraphError, PlanarGraph, parse

sys.path.insert(0, str(FIXTURES.parent / "perfbench"))
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
    d2 = subdivide_arc(d, tag, ["m1", "m2"], [7, "x", ("y", 1)])
    for v, z in before.items():
        assert d2.positions[v] == z
    assert "m1" in d2.positions and "m2" in d2.positions
    assert tag not in d2.arcs
    # the sub-arcs carry the given tags, in order from the first endpoint
    u, w = d.edges[tag]
    assert set(d2.arcs) == set(d.arcs) - {tag} | {7, "x", ("y", 1)}
    assert [d2.edges[t] for t in (7, "x", ("y", 1))] == [(u, "m1"), ("m1", "m2"), ("m2", w)]
    rep = verify(d2)
    assert rep.passed
    # subdivision points have degree 2 with smooth 180-degree continuation
    assert d2.degree("m1") == 2
    with pytest.raises(DrawingError, match="one edge tag per edge"):
        subdivide_arc(d, tag, ["m1"], [7])


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
    d = triangle_drawing()
    tag = ("e", "v0", "v1")
    d2 = attach_bridge_stubs(d, tag, ["v0", "j", "v1"], [0, 1], {"j": ("b", "j")})
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
    d3 = attach_bridge_stubs(d, tag, seq, tags, {"j1": "s1", "j2": "s2"})
    assert set(d3.arcs) == set(d.arcs) - {tag} | set(tags) | {"s1", "s2"}
    assert [d3.edges[t] for t in tags] == list(zip(seq, seq[1:]))
    assert [d3.degree(v) for v in seq[1:-1]] == [2, 3, 2, 2, 3]
    rep = verify(d3)
    assert rep.passed, rep.summary()
    with pytest.raises(DrawingError, match="does not run"):
        attach_bridge_stubs(d, tag, seq[::-1], tags[::-1], {"j1": "s1"})


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


def test_draw_subcubic_raises_drawing_error_for_geometry_failures():
    # k4_x8 still fails in bridge gluing (a degenerate Moebius map); that
    # is a failed draw, not a raw ValueError, while bad input stays a
    # GraphError (itself a ValueError)
    with pytest.raises(DrawingError, match="degenerate Moebius"):
        draw_subcubic(parse(CHAINS["k4_x8"]))
    with pytest.raises(GraphError):
        draw_subcubic(load_graph("g18"))


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
