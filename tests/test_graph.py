"""Rotation-system graph structure: faces, dual, medial, bridges, SPQR."""

import shutil
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, k4_gadgets, load_graph, load_text, spqr_nodes, spqr_problems
from lombardi.cli import main
from lombardi.graph import (
    GraphError,
    PlanarGraph,
    is_three_connected,
    is_virtual,
    parse,
    spqr,
)
from lombardi.packing import kite_triangulation

sys.path.insert(0, str(FIXTURES.parent / "perfbench"))
import family  # noqa: E402

K4_TEXT = "a b c d\nb c a d\nc a b d\nd a c b\n"


def serialize(g: PlanarGraph) -> str:
    """The rotation-system text ``parse`` reads: one line per vertex."""
    return "".join(" ".join([v] + g.neighbors(v)) + "\n" for v in g.vertices)


def test_parse_serialize_round_trip():
    g = parse(K4_TEXT)
    g2 = parse(serialize(g))
    assert g2.rot == g.rot


def test_parse_rejects_bad_input():
    with pytest.raises(GraphError):
        parse("a b\n")  # unknown neighbor
    with pytest.raises(GraphError):
        parse("a a\n")  # self loop
    with pytest.raises(GraphError):
        parse("a b\nb\n")  # asymmetric
    with pytest.raises(GraphError):
        parse("a b b\nb a a\n")  # parallel edges


def test_basic_accessors():
    g = parse(K4_TEXT)
    assert sorted(g.vertices) == ["a", "b", "c", "d"]
    assert len(g.edges) == 6
    assert g.degree("a") == 3
    assert sorted(g.neighbors("a")) == ["b", "c", "d"]
    t = ("e", "a", "b")
    assert set(g.endpoints(t)) == {"a", "b"}
    assert g.other_end(t, "a") == "b"


@pytest.mark.parametrize(
    "name", ["k4", "cube", "dodecahedron", "frucht", "tutte", "truncated_icosahedron"]
)
def test_euler_formula(name):
    g = load_graph(name)
    v = len(g.vertices)
    e = len(g.edges)
    f = len(g.faces())
    assert v - e + f == 2


def test_k4_faces_are_triangles():
    g = parse(K4_TEXT)
    faces = g.faces()
    assert len(faces) == 4
    assert all(len(w) == 3 for w in faces)
    fo = g.face_of()
    for i, walk in enumerate(faces):
        for dart in walk:
            assert fo[dart] == i
        assert set(g.face_vertices(i)) == {d[0] for d in walk}


def test_dual_of_cube_is_octahedron_like():
    g = load_graph("cube")
    dg, face_name = g.dual()
    assert len(dg.vertices) == 6
    assert all(dg.degree(v) == 4 for v in dg.vertices)
    assert len(dg.edges) == 12
    # the face-corner labels cover every vertex-slot pair
    assert set(face_name) == {(v, i) for v in g.vertices for i in range(3)}


def test_medial_of_k4_is_octahedron():
    g = parse(K4_TEXT)
    mg, names = g.medial()
    assert len(mg.vertices) == 6
    assert len(mg.edges) == 12
    assert all(mg.degree(v) == 4 for v in mg.vertices)
    # medial vertices correspond to primal edges
    assert len(names) == len(g.edges)
    # octahedron: every face of the medial is a triangle or a primal-face image
    assert len(mg.faces()) == 8


def test_medial_of_cube_is_cuboctahedron():
    mg, _ = load_graph("cube").medial()
    assert len(mg.vertices) == 12
    assert len(mg.edges) == 24
    assert all(mg.degree(v) == 4 for v in mg.vertices)
    assert len(mg.faces()) == 14


def test_bridges():
    assert parse(K4_TEXT).bridges() == []
    g = load_graph("two_blocks_bridge")
    br = g.bridges()
    # the two blocks are joined by a 2-edge path through a degree-2 vertex
    assert len(br) == 2
    assert all("y1" in g.endpoints(t) for t in br)
    g2 = load_graph("double_claw")
    # the double claw is a tree plus leaves: every edge is a bridge
    assert len(g2.bridges()) == len(g2.edges)


def test_connectivity():
    g = parse(K4_TEXT)
    assert g.is_connected()
    assert g.connected_components() == [sorted(g.vertices, key=g.vertices.index)] or len(
        g.connected_components()
    ) == 1
    sub = g.subgraph(["a", "b"])
    assert len(sub.vertices) == 2
    assert len(sub.edges) == 1
    cut = g.without_edges(list(g.edges))
    assert len(cut.connected_components()) == 4


def count_traversals(monkeypatch) -> Counter:
    """Count graphs built and the face traces, component searches and
    DFS runs made on them from now on."""
    counts = Counter()
    for method, kept in (("faces", "_faces"), ("connected_components", "_components"), ("_dfs", "_dfs_result")):

        def counted(self, real=getattr(PlanarGraph, method), method=method, kept=kept):
            counts[method] += getattr(self, kept) is None
            return real(self)

        monkeypatch.setattr(PlanarGraph, method, counted)
    init = PlanarGraph.__init__

    def counted_init(self, rot):
        counts["graphs"] += 1
        init(self, rot)

    monkeypatch.setattr(PlanarGraph, "__init__", counted_init)
    return counts


def test_a_cubic_draw_traverses_each_graph_once(monkeypatch, tmp_path):
    # a graph keeps its faces, components and DFS: one CLI draw of a
    # 3-connected cubic graph builds the input and its dual, traces both
    # (packing reads the dual's faces), searches only the input for
    # components (the dual is planar because its source is) and runs one
    # DFS (bridges, then 2-cut classes)
    counts = count_traversals(monkeypatch)
    path = tmp_path / "truncated_icosahedron.txt"
    shutil.copy(FIXTURES / path.name, path)
    assert main([str(path), "--format", "both"]) == 0
    assert counts == {"graphs": 2, "faces": 2, "connected_components": 1, "_dfs": 1}


def test_a_medial_draw_checks_only_the_input_for_planarity(monkeypatch, tmp_path):
    # the input, its flag kites and its medial graph are built; only the
    # input is searched for components, and the medial graph's faces are
    # never traced (the kites' are, to test that they are triangles)
    counts = count_traversals(monkeypatch)
    path = tmp_path / "tutte.txt"
    shutil.copy(FIXTURES / path.name, path)
    assert main([str(path), "--mode", "medial", "--format", "json"]) == 0
    assert counts == {"graphs": 3, "faces": 2, "connected_components": 1, "_dfs": 1}


def test_derived_structure_is_kept():
    g = load_graph("cube")
    h, chains = g.suppress_degree_two()
    assert h is g and chains == {}
    assert g.bridges() == g.bridges() == [] and g.connected_components() == g.connected_components()
    g = load_graph("two_blocks_bridge")
    assert g.bridges() == g.bridges() and g.connected_components() is g.connected_components()


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(
    st.sampled_from(sorted(p.stem for p in FIXTURES.glob("*.txt"))),
    st.lists(st.sampled_from(["truncate", "subdivide", "relabel"]), max_size=2),
    st.integers(0, 9),
)
def test_dart_table_and_kept_faces_on_generated_graphs(name, steps, seed):
    rot = family.rotation_of(load_graph(name))
    for step in steps:
        if step == "relabel":
            rot = family.relabel(rot, seed)
        elif step == "subdivide":
            rot = family.subdivide(rot, 1)
        elif min(map(len, rot.values())) >= 3:  # truncating a leaf makes a loop
            rot = family.truncate(rot)
    g = parse(family.to_text(rot))
    # the twin table: an involution without fixed points, pairing the two
    # darts of each edge
    for d in g.darts():
        t = g.twin(d)
        assert t != d and g.twin(t) == d and g.dart_tag(t) == g.dart_tag(d)
        assert g.head(d) == t[0] == g.other_end(g.dart_tag(d), d[0])
    # face_of numbers each dart by the face walk holding it, and each walk
    # goes on from a dart's twin to the clockwise-next dart there
    faces, face_of = g.faces(), g.face_of()
    assert face_of == {d: i for i, walk in enumerate(faces) for d in walk}
    assert len(face_of) == 2 * len(g.edges)
    for walk in faces:
        for k, d in enumerate(walk):
            w, j = g.twin(d)
            assert walk[(k + 1) % len(walk)] == (w, (j + 1) % g.degree(w))
    # derived graphs and the structure check read the kept faces and
    # leave them as they were
    kept = ([list(walk) for walk in faces], dict(face_of))
    for derive in (PlanarGraph.dual, PlanarGraph.medial, kite_triangulation, is_three_connected):
        try:
            derive(g)
        except GraphError:  # a bridge's dual is a loop; a cut vertex has no flag kite
            pass
        assert g.faces() is faces and g.face_of() is face_of
        assert ([list(walk) for walk in faces], dict(face_of)) == kept


def test_suppress_degree_two_restores_chain():
    # K4 with one edge subdivided twice
    txt = (
        "a p c d\n"
        "b c q d\n"
        "c a b d\n"
        "d a c b\n"
        "p a q\n"
        "q p b\n"
    )
    g = parse(txt)
    sm, chains = g.suppress_degree_two()
    assert sorted(sm.vertices) == ["a", "b", "c", "d"]
    assert all(sm.degree(v) == 3 for v in sm.vertices)
    assert len(chains) == 1
    (tag, (seq, tags)) = next(iter(chains.items()))
    assert seq in (["a", "p", "q", "b"], ["b", "q", "p", "a"])
    # the chain's own edge tags, in the order of its vertices
    assert tags == [("e",) + tuple(sorted(uw)) for uw in zip(seq, seq[1:])]
    # any hashable tags come back as they are, also on parallel edges
    sm, chains = PlanarGraph({"a": [1, 2, 3], "b": [3, 2, 4], "x": [1, 4]}).suppress_degree_two()
    assert set(sm.edges) == {2, 3, *chains}
    assert list(chains.values()) == [(["a", "x", "b"], [1, 4])]


def test_suppress_rejects_pure_cycle():
    g = parse("a b c\nb c a\nc a b\n")  # triangle is fine (degree 2 everywhere)
    with pytest.raises(GraphError):
        g.suppress_degree_two()


def test_is_three_connected():
    assert is_three_connected(parse(K4_TEXT))
    assert is_three_connected(load_graph("cube"))
    assert is_three_connected(load_graph("dodecahedron"))
    assert not is_three_connected(load_graph("g18"))
    # a graph with a degree-2 vertex cannot be 3-connected
    sub = parse("a p c d\nb c p d\nc a b d\nd a c b\np a b\n")
    assert not is_three_connected(sub)
    # two K4-minus-an-edge blocks glued in series: 2-connected only
    tk, _ = load_graph("two_k4e").suppress_degree_two()
    assert not is_three_connected(tk)


def test_spqr_of_k4_single_r_node():
    g = parse(K4_TEXT)
    root = spqr(g)
    assert root.kind == "R"
    assert root.sides == {}
    assert spqr_problems(g, root) == []


def test_spqr_of_two_k4e():
    g, _ = load_graph("two_k4e").suppress_degree_two()
    root = spqr(g)
    assert sorted(n.kind for n in spqr_nodes(root)) == ["R", "R", "S"]
    assert root.kind == "S" and len(root.sides) == 2
    # real edges across skeletons reproduce the original edge multiset
    assert spqr_problems(g, root) == []


@pytest.mark.parametrize("name", ["two_k4e", "irregular69"])
def test_spqr_structural_assertions(name):
    """Each virtual edge joins one S node to one P or R node; S
    skeletons are even cycles alternating virtual and real edges; P
    skeletons are 3-bonds; R skeletons are simple 3-connected cubic."""
    g = load_graph(name)
    # restrict to a 2-edge-connected cubic piece: drop bridges and
    # degree<3 vertices, keep the largest component, smooth degree-2
    h = g.without_edges(g.bridges())
    comp = max(h.connected_components(), key=len)
    h = h.subgraph(comp)
    h, _ = h.suppress_degree_two()
    assert spqr_problems(h, spqr(h)) == []


def test_spqr_nests_s_nodes():
    """K4 with gadgets spliced into gadgets: S nodes inside the sides of
    other S nodes, three deep."""

    def s_depth(node) -> int:
        below = max((s_depth(side) for side in node.sides.values()), default=0)
        return below + (node.kind == "S")

    g = parse(k4_gadgets(0, 8))
    root = spqr(g)
    assert s_depth(root) == 3
    assert spqr_problems(g, root) == []


def test_spqr_virtual_tags_do_not_depend_on_earlier_calls():
    g, _ = load_graph("two_k4e").suppress_degree_two()

    def virtual_tags():
        nodes = spqr_nodes(spqr(g))
        return [sorted((t for t in n.skeleton.edges if is_virtual(t)), key=repr) for n in nodes]

    first = virtual_tags()
    assert any(first)
    assert virtual_tags() == first


def test_spqr_rejects_bridged_or_noncubic():
    with pytest.raises(GraphError):
        spqr(load_graph("two_blocks_bridge"))
    with pytest.raises(GraphError):
        spqr(parse("a b c\nb c a\nc a b\n"))
    # an input edge may not carry a tag of the skeletons' virtual edges
    k4 = parse(K4_TEXT)
    with pytest.raises(GraphError, match="reserved"):
        spqr(PlanarGraph({v: [("virt", k4.edges.index(t)) for t in k4.rot[v]] for v in k4.vertices}))


def test_fixture_degrees():
    for name in ("k4", "cube", "dodecahedron", "frucht", "tutte", "truncated_icosahedron"):
        g = load_graph(name)
        assert all(g.degree(v) == 3 for v in g.vertices), name
    g18 = load_graph("g18")
    assert len(g18.vertices) == 18
    assert all(g18.degree(v) == 4 for v in g18.vertices)
    irr = load_graph("irregular69")
    assert len(irr.vertices) == 69
    degs = {irr.degree(v) for v in irr.vertices}
    assert degs == {1, 2, 3}
    assert len(load_graph("truncated_icosahedron").vertices) == 60
