"""The structure layer against the brute-force algorithms it replaced.

``is_three_connected`` (lowpoint DFS plus the plane face criterion) must
give the verdict of trying every vertex pair, and ``_two_cut_classes``
(cycle-space sampling) the classes, in order, of one bridge search per
removed edge.  Both are compared on the fixtures, their medials and
duals, truncations, hand-built 2-cuts and generated variants.
"""

import itertools
import random
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, load_graph
from lombardi import graph
from lombardi.graph import GraphError, PlanarGraph, _two_cut_classes, is_three_connected, parse, spqr

sys.path.insert(0, str(FIXTURES.parent / "perfbench"))
import family  # noqa: E402

PRISM = "a c d b\nb a e c\nc b f a\nd a f e\ne d f b\nf e d c\n"
SMALL = ["k4", "octahedron", "cube", "frucht", "g18", "dodecahedron"]


def brute_three_connected(g: PlanarGraph) -> bool:
    """No pair of vertices disconnects the simple graph: O(n^3)."""
    vs = g.vertices
    if len(vs) < 4 or not g.is_connected() or any(g.degree(v) < 3 for v in vs):
        return False
    if not g.is_simple():
        return False  # polyhedral graphs are simple
    nbrs = {v: g.neighbors(v) for v in vs}
    for pair in itertools.combinations(vs, 2):
        start = next(v for v in vs if v not in pair)
        seen = {start, *pair}
        stack = [start]
        while stack:
            for w in nbrs[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(vs):
            return False
    return True


def _adjacency(g: PlanarGraph) -> dict:
    return {v: [(t, g.other_end(t, v)) for t in g.rot[v]] for v in g.vertices}


def _bridges_without(adj: dict, skip) -> list:
    """Bridges of the graph minus edge ``skip``, by a recursive lowpoint DFS."""
    disc: dict = {}
    low: dict = {}
    out = []

    def visit(v, via):
        disc[v] = low[v] = len(disc)
        for t, w in adj[v]:
            if t in (skip, via):
                continue
            if w in disc:
                low[v] = min(low[v], disc[w])
            else:
                visit(w, t)
                low[v] = min(low[v], low[w])
                if low[w] > disc[v]:
                    out.append(t)

    for v in adj:
        if v not in disc:
            visit(v, None)
    return out


def per_edge_two_cut_classes(g: PlanarGraph) -> list[list]:
    """Union every edge with the bridges of the graph without it: O(E^2)."""
    parent: dict = {t: t for t in g.edges}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    adj = _adjacency(g)
    in_cut = set()
    for e in g.edges:
        for f in _bridges_without(adj, e):
            parent[find(e)] = find(f)
            in_cut.update((e, f))
    groups: dict = {}
    for t in in_cut:
        groups.setdefault(find(t), []).append(t)
    classes = [sorted(v, key=repr) for v in groups.values()]
    classes.sort(key=lambda c: repr(c[0]))
    return classes


def brute_bridges(g: PlanarGraph) -> set:
    """Edges whose ends the rest of the graph does not join: O(E^2)."""
    adj = _adjacency(g)
    out = set()
    for t in g.edges:
        u, w = g.endpoints(t)
        seen, stack = {u}, [u]
        while stack:
            for s, x in adj[stack.pop()]:
                if s != t and x not in seen:
                    seen.add(x)
                    stack.append(x)
        if w not in seen:
            out.add(t)
    return out


def two_cut_join(rot1: family.Rotation, rot2: family.Rotation) -> family.Rotation:
    """Cut the first edge of each graph and reconnect the four ends across
    them, in whichever of the two pairings stays plane: the two new edges
    form a 2-edge-cut and their ends on one side a separating pair."""
    (a, b), (c, d) = family.edges(rot1)[0], family.edges(rot2)[0]
    for x, y in ((c, d), (d, c)):
        rot = {v: list(ns) for v, ns in (*rot1.items(), *rot2.items())}
        for v, old, new in ((a, b, x), (b, a, y), (x, y, a), (y, x, b)):
            rot[v][rot[v].index(old)] = new
        try:
            parse(family.to_text(rot))
        except GraphError:
            continue
        return rot
    raise AssertionError("neither pairing is plane")


def one_vertex_join(rot1: family.Rotation, rot2: family.Rotation) -> family.Rotation:
    """Identify the first vertex of each graph, which becomes a cut vertex."""
    a, b = next(iter(rot1)), next(iter(rot2))
    rest = {v: [a if w == b else w for w in ns] for v, ns in rot2.items() if v != b}
    return {**rot1, a: rot1[a] + rot2[b], **rest}


def _rot(g: PlanarGraph, prefix: str = "") -> family.Rotation:
    return {prefix + v: [prefix + w for w in g.neighbors(v)] for v in g.vertices}


def _cases() -> dict[str, PlanarGraph]:
    cases = {}
    for path in sorted(FIXTURES.glob("*.txt")):
        g = load_graph(path.stem)
        cases[path.stem] = g
        for kind in ("medial", "dual"):
            try:
                cases[f"{path.stem}.{kind}"] = getattr(g, kind)()[0]
            except GraphError:
                pass  # a bridge or a leaf gives the medial or dual a loop
    for name in SMALL:
        cases[f"{name}.truncated"] = parse(family.to_text(family.truncate(_rot(load_graph(name)))))
    cases["two_k4e.suppressed"] = load_graph("two_k4e").suppress_degree_two()[0]
    prism = parse(PRISM)
    cases["prism"] = prism
    cases["prism+prism"] = parse(family.to_text(two_cut_join(_rot(prism), _rot(prism, "p"))))
    k4s = one_vertex_join(_rot(load_graph("k4")), _rot(load_graph("k4"), "k"))
    cases["k4.k4"] = parse(family.to_text(k4s))  # the cut vertex is the DFS root
    cases["k4.k4.reordered"] = parse(family.to_text(dict(reversed(k4s.items()))))
    return cases


CASES = _cases()


def _agree(g: PlanarGraph) -> None:
    assert is_three_connected(g) == brute_three_connected(g)
    assert set(g.bridges()) == brute_bridges(g)
    blocks = g.without_edges(g.bridges())
    for comp in blocks.connected_components():
        if len(comp) > 1:
            h = blocks.subgraph(comp)
            assert _two_cut_classes(h) == per_edge_two_cut_classes(h)


@pytest.mark.parametrize("name", sorted(CASES))
def test_structure_matches_brute_force(name):
    _agree(CASES[name])


def test_cases_include_two_connected_graphs_that_are_not_three_connected():
    """Bridgeless graphs of minimum degree 3 that are not 3-connected:
    separating pairs, and a cut vertex at the DFS root and elsewhere."""
    for name in ("two_k4e.suppressed", "prism+prism", "k4.k4", "k4.k4.reordered"):
        g = CASES[name]
        assert min(g.degree(v) for v in g.vertices) == 3
        assert not g.bridges() and not brute_three_connected(g)
        assert not is_three_connected(g)
    assert is_three_connected(CASES["prism"])
    assert _two_cut_classes(CASES["prism+prism"])


@st.composite
def _variants(draw) -> PlanarGraph:
    """A small fixture or its medial, then seeded edge deletions,
    subdivisions, and 2-cut or one-vertex joins with another small
    fixture; at most 50 vertices."""
    base = load_graph(draw(st.sampled_from(SMALL[:5])))
    rot = _rot(base.medial()[0] if draw(st.booleans()) else base)
    rng = random.Random(draw(st.integers(0, 2**32)))
    for k, op in enumerate(draw(st.lists(st.sampled_from(["delete", "subdivide", "join", "glue"]), max_size=4))):
        pairs = family.edges(rot)
        if not pairs:
            break
        u, w = rng.choice(pairs)
        if op == "delete":
            rot[u].remove(w)
            rot[w].remove(u)
        elif op == "subdivide" and len(rot) < 50:
            x = f"sub{k}"
            rot[u][rot[u].index(w)] = x
            rot[w][rot[w].index(u)] = x
            rot[x] = [u, w]
        elif op in ("join", "glue"):
            other = _rot(load_graph(rng.choice(SMALL[:4])), f"j{k}_")
            if len(rot) + len(other) <= 50:
                rot = (two_cut_join if op == "join" else one_vertex_join)(rot, other)
    return parse(family.to_text(rot))


@settings(
    derandomize=True,
    max_examples=40,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_variants())
def test_structure_matches_brute_force_on_generated_variants(g):
    _agree(g)


def test_spqr_makes_one_bridge_search_and_no_edge_removals(monkeypatch):
    g = parse(family.to_text(family.truncate(_rot(load_graph("truncated_icosahedron")))))
    calls = {"without_edges": 0, "bridges": 0}
    for name in calls:
        original = getattr(PlanarGraph, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(PlanarGraph, name, counted)
    root = spqr(g)
    assert (root.kind, root.sides) == ("R", {})
    assert calls == {"without_edges": 0, "bridges": 1}


@pytest.mark.parametrize("name", ["k4", "cube", "tutte", "truncated_icosahedron"])
def test_label_collision_raises(monkeypatch, name):
    """With every label equal, the classes are wrong; the component checks
    in ``_split`` must refuse them rather than split along them."""
    monkeypatch.setattr(graph.random.Random, "getrandbits", lambda self, k: 1)
    with pytest.raises(GraphError):
        spqr(load_graph(name))
