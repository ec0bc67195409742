"""Planar embedded multigraphs as rotation systems.

A graph is given by a clockwise rotation system: for every vertex, the
cyclic order of its incident edge tags.  Each edge tag appears exactly
twice (at its two distinct endpoints); parallel edges carry distinct
tags, self loops are not supported.  Faces are traced from the rotation
system and Euler's formula certifies that the rotation system describes
a sphere embedding.
"""

from __future__ import annotations

from dataclasses import dataclass, field


Dart = tuple[str, int]  # (vertex, slot in its rotation)


class GraphError(ValueError):
    """Structurally invalid or unsupported graph input."""


class PlanarGraph:
    """An embedded multigraph defined by a clockwise rotation system."""

    def __init__(self, rot: dict[str, list]):
        self.rot: dict[str, list] = {v: list(tags) for v, tags in rot.items()}
        self.vertices: list[str] = list(self.rot.keys())
        ends: dict = {}
        for v in self.vertices:
            for i, tag in enumerate(self.rot[v]):
                ends.setdefault(tag, []).append((v, i))
        for tag, ds in ends.items():
            if len(ds) != 2:
                raise GraphError(f"edge tag {tag!r} appears {len(ds)} times (need 2)")
            if ds[0][0] == ds[1][0]:
                raise GraphError(f"self loop at {ds[0][0]!r} (tag {tag!r}) not supported")
        self._ends: dict = {t: (ds[0], ds[1]) for t, ds in ends.items()}
        self.edges: list = sorted(self._ends.keys(), key=repr)
        self._faces: list[list[Dart]] | None = None

    # -- basics ----------------------------------------------------------

    def degree(self, v: str) -> int:
        return len(self.rot[v])

    def endpoints(self, tag) -> tuple[str, str]:
        (u, _), (w, _) = self._ends[tag]
        return (u, w)

    def darts_of(self, tag) -> tuple[Dart, Dart]:
        return self._ends[tag]

    def dart_tag(self, d: Dart):
        return self.rot[d[0]][d[1]]

    def twin(self, d: Dart) -> Dart:
        d1, d2 = self._ends[self.dart_tag(d)]
        return d2 if d == d1 else d1

    def head(self, d: Dart) -> str:
        return self.twin(d)[0]

    def neighbors(self, v: str) -> list[str]:
        out = []
        for i in range(len(self.rot[v])):
            out.append(self.head((v, i)))
        return out

    def darts(self):
        for v in self.vertices:
            for i in range(len(self.rot[v])):
                yield (v, i)

    def other_end(self, tag, v: str) -> str:
        u, w = self.endpoints(tag)
        if v == u:
            return w
        if v == w:
            return u
        raise GraphError(f"{v!r} is not an endpoint of {tag!r}")

    # -- faces -----------------------------------------------------------

    def next_in_face(self, d: Dart) -> Dart:
        """Successor dart of the face walk: clockwise-next at the head."""
        w, j = self.twin(d)
        return (w, (j + 1) % len(self.rot[w]))

    def faces(self) -> list[list[Dart]]:
        if self._faces is None:
            seen: set[Dart] = set()
            faces = []
            for d in self.darts():
                if d in seen:
                    continue
                walk = []
                cur = d
                while cur not in seen:
                    seen.add(cur)
                    walk.append(cur)
                    cur = self.next_in_face(cur)
                if cur != d:
                    raise GraphError("rotation system face trace is inconsistent")
                faces.append(walk)
            self._faces = faces
        return self._faces

    def face_of(self) -> dict[Dart, int]:
        return {d: i for i, f in enumerate(self.faces()) for d in f}

    def face_vertices(self, i: int) -> list[str]:
        return [d[0] for d in self.faces()[i]]

    # -- validation -------------------------------------------------------

    def connected_components(self) -> list[list[str]]:
        seen: set[str] = set()
        comps = []
        for s in self.vertices:
            if s in seen:
                continue
            comp = [s]
            seen.add(s)
            stack = [s]
            while stack:
                v = stack.pop()
                for w in self.neighbors(v):
                    if w not in seen:
                        seen.add(w)
                        comp.append(w)
                        stack.append(w)
            comps.append(comp)
        return comps

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1

    def check_planar(self) -> None:
        """Euler check: the rotation system embeds each component in the sphere."""
        comps = self.connected_components()
        if len(comps) > 1:
            for comp in comps:
                self.subgraph(comp).check_planar()
            return
        if not self.edges:
            return
        v, e, f = len(self.vertices), len(self.edges), len(self.faces())
        if v - e + f != 2:
            raise GraphError(f"rotation system is not planar: V-E+F = {v}-{e}+{f} != 2")

    # -- derived graphs ----------------------------------------------------

    def subgraph(self, vs) -> "PlanarGraph":
        keep = set(vs)
        rot = {}
        for v in self.vertices:
            if v not in keep:
                continue
            rot[v] = [t for t in self.rot[v] if self.other_end(t, v) in keep]
        return PlanarGraph(rot)

    def without_edges(self, tags) -> "PlanarGraph":
        drop = set(tags)
        return PlanarGraph({v: [t for t in self.rot[v] if t not in drop] for v in self.vertices})

    def with_edge(self, tag, u: str, slot_u: int, w: str, slot_w: int) -> "PlanarGraph":
        """Copy with a new edge inserted at the given rotation slots."""
        rot = {v: list(ts) for v, ts in self.rot.items()}
        rot[u].insert(slot_u, tag)
        rot[w].insert(slot_w, tag)
        return PlanarGraph(rot)

    def dual(self) -> tuple["PlanarGraph", dict]:
        """The dual embedded graph.

        Dual vertices are face names 'f0', 'f1', ...; each primal edge tag
        is reused as the tag of the dual edge between its two adjacent
        faces.  Returns (dual, face_of) with face_of mapping primal darts
        to dual vertex names.
        """
        faces = self.faces()
        fidx = self.face_of()
        rot = {}
        for i, walk in enumerate(faces):
            rot[f"f{i}"] = [self.dart_tag(d) for d in walk]
        dualg = PlanarGraph(rot)
        dualg.check_planar()
        face_name = {d: f"f{fidx[d]}" for d in fidx}
        return dualg, face_name

    def medial(self) -> tuple["PlanarGraph", dict]:
        """The medial graph: one vertex per edge, joined along face corners.

        Medial vertex names are 'm<k>' for the k-th edge tag (in self.edges
        order); returns (medial, vertex_of_edge) mapping edge tags to medial
        vertex names.
        """
        mname = {tag: f"m{k}" for k, tag in enumerate(self.edges)}
        faces = self.faces()
        # corner (f, i) joins edge of dart i and edge of dart i+1 in face f
        corner_at: dict[Dart, dict[str, tuple]] = {d: {} for d in self.darts()}
        for fi, walk in enumerate(faces):
            n = len(walk)
            for i in range(n):
                d1, d2 = walk[i], walk[(i + 1) % n]
                tag = ("corner", fi, i)
                corner_at[d1]["out"] = tag  # corner following d1 in its face
                corner_at[d2]["in"] = tag  # corner preceding d2 in its face
        rot = {}
        for tag in self.edges:
            d, t = self._ends[tag]
            # clockwise around the midpoint of the edge
            rot[mname[tag]] = [
                corner_at[d]["out"],
                corner_at[t]["in"],
                corner_at[t]["out"],
                corner_at[d]["in"],
            ]
        med = PlanarGraph(rot)
        med.check_planar()
        return med, mname

    # -- bridges and blocks -------------------------------------------------

    def bridges(self) -> list:
        """Edge tags whose removal disconnects the graph (DFS lowpoint)."""
        disc: dict[str, int] = {}
        low: dict[str, int] = {}
        out = []
        time = 0
        for root in self.vertices:
            if root in disc:
                continue
            disc[root] = low[root] = time
            time += 1
            stack = [(root, None, iter(self.rot[root]))]
            while stack:
                v, via_tag, it = stack[-1]
                advanced = False
                for tag in it:
                    if tag == via_tag:
                        continue  # never re-traverse the entry edge itself
                    w = self.other_end(tag, v)
                    if w in disc:
                        low[v] = min(low[v], disc[w])
                    else:
                        disc[w] = low[w] = time
                        time += 1
                        stack.append((w, tag, iter(self.rot[w])))
                        advanced = True
                        break
                if not advanced:
                    stack.pop()
                    if stack:
                        pv = stack[-1][0]
                        low[pv] = min(low[pv], low[v])
                        if low[v] > disc[pv]:
                            out.append(via_tag)
        return out

    def suppress_degree_two(self):
        """Smooth all degree-2 vertices.

        Returns (smoothed graph, chains) where ``chains`` maps each new
        chain tag to (u, [interior vertices from u to w], w).  Vertices of
        other degrees keep their rotation, with each chain occupying the
        slot of its first edge.  A cycle made only of degree-2 vertices is
        an error.
        """
        anchors = [v for v in self.vertices if self.degree(v) != 2]
        if not anchors:
            raise GraphError("cannot suppress: every vertex has degree 2")
        chains: dict = {}
        new_tag_at: dict[Dart, object] = {}
        seen_darts: set[Dart] = set()
        for a in anchors:
            for i in range(self.degree(a)):
                d = (a, i)
                if d in seen_darts:
                    continue
                interior = []
                cur = d
                while True:
                    w = self.head(cur)
                    if self.degree(w) != 2:
                        break
                    interior.append(w)
                    wt = self.twin(cur)
                    # leave w through its other slot
                    cur = (w, 1 - wt[1])
                end = self.twin(cur)  # dart at the far anchor
                seen_darts.add(d)
                seen_darts.add(end)
                if not interior:
                    new_tag_at[d] = self.dart_tag(d)
                    new_tag_at[end] = self.dart_tag(end)
                    continue
                key = ("chain",) + tuple(sorted([d, end]))
                new_tag_at[d] = key
                new_tag_at[end] = key
                if key not in chains:
                    chains[key] = (a, interior, end[0])
        rot = {a: [new_tag_at[(a, i)] for i in range(self.degree(a))] for a in anchors}
        return PlanarGraph(rot), chains


# ---------------------------------------------------------------------------
# Text format


def parse(text: str) -> PlanarGraph:
    """Parse the one-line-per-vertex clockwise adjacency format.

    Each non-empty line: a vertex id followed by its neighbor ids in
    clockwise order; '#' starts a comment.  The listed adjacencies must
    be symmetric and define a simple graph.
    """
    rows: list[tuple[str, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        v, nbrs = toks[0], toks[1:]
        rows.append((v, nbrs))
    ids = [v for v, _ in rows]
    if len(set(ids)) != len(ids):
        raise GraphError("duplicate vertex line")
    known = set(ids)
    adj = dict(rows)
    for v, nbrs in rows:
        if len(set(nbrs)) != len(nbrs):
            raise GraphError(f"vertex {v!r}: repeated neighbor (parallel edges unsupported)")
        for w in nbrs:
            if w == v:
                raise GraphError(f"vertex {v!r}: self loop")
            if w not in known:
                raise GraphError(f"vertex {v!r}: unknown neighbor {w!r}")
            if v not in adj[w]:
                raise GraphError(f"asymmetric adjacency between {v!r} and {w!r}")
    rot = {}
    for v, nbrs in rows:
        rot[v] = [("e",) + tuple(sorted((v, w))) for w in nbrs]
    g = PlanarGraph(rot)
    g.check_planar()
    return g


def is_three_connected(g: PlanarGraph) -> bool:
    """Whether the (simple) graph is 3-connected (brute-force cutsets)."""
    vs = g.vertices
    if len(vs) < 4:
        return False
    if not g.is_connected():
        return False
    for v in vs:
        if g.degree(v) < 3:
            return False
    for t in g.edges:
        u, w = g.endpoints(t)
        if u == w:
            return False
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            rest = [v for v in vs if v not in (vs[i], vs[j])]
            if not g.subgraph(rest).is_connected():
                return False
    return True


def serialize(g: PlanarGraph) -> str:
    lines = []
    for v in g.vertices:
        lines.append(" ".join([v] + g.neighbors(v)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SPQR decomposition of 2-edge-connected cubic multigraphs


@dataclass
class SpqrNode:
    kind: str  # 'S', 'P' or 'R'
    skeleton: PlanarGraph
    index: int = -1


@dataclass
class SpqrTree:
    nodes: list[SpqrNode] = field(default_factory=list)
    # tree edges: virtual tag -> (node index, node index); the S side first
    links: dict = field(default_factory=dict)


def _two_cut_classes(g: PlanarGraph) -> list[list]:
    """Equivalence classes of edges under membership in common 2-edge-cuts."""
    parent: dict = {t: t for t in g.edges}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    in_cut = set()
    for e in g.edges:
        ge = g.without_edges([e])
        for f in ge.bridges():
            union(e, f)
            in_cut.add(e)
            in_cut.add(f)
    groups: dict = {}
    for t in in_cut:
        groups.setdefault(find(t), []).append(t)
    classes = [sorted(v, key=repr) for v in groups.values()]
    classes.sort(key=lambda c: repr(c[0]))
    return classes


def _assert_cubic(g: PlanarGraph):
    for v in g.vertices:
        if g.degree(v) != 3:
            raise GraphError(f"vertex {v!r} has degree {g.degree(v)}, expected 3")


_VIRT_COUNTER = [0]


def spqr(g: PlanarGraph) -> SpqrTree:
    """SPQR tree of a 2-edge-connected cubic planar multigraph.

    Splits recursively along maximal 2-edge-cut classes: each class
    yields an S node (an even cycle alternating real class edges and
    virtual edges), and every side is re-split with its virtual edge
    inserted in place of its class edge.  Leaves are P nodes (3-bonds)
    or R nodes (3-connected simple cubic skeletons).
    """
    _assert_cubic(g)
    if g.bridges():
        raise GraphError("graph is not 2-edge-connected")
    tree = SpqrTree()
    _split(g, tree)
    for i, n in enumerate(tree.nodes):
        n.index = i
    # pair virtual tags into tree links
    where: dict = {}
    for i, n in enumerate(tree.nodes):
        for t in n.skeleton.edges:
            if isinstance(t, tuple) and t and t[0] == "virt":
                where.setdefault(t, []).append(i)
    for t, idxs in where.items():
        if len(idxs) != 2:
            raise GraphError(f"virtual edge {t!r} appears in {len(idxs)} skeletons")
        a, b = idxs
        if tree.nodes[b].kind == "S" and tree.nodes[a].kind != "S":
            a, b = b, a
        if tree.nodes[a].kind != "S" or tree.nodes[b].kind == "S":
            raise GraphError("SPQR structure violated: tree edge without exactly one S endpoint")
        tree.links[t] = (a, b)
    return tree


def _split(g: PlanarGraph, tree: SpqrTree) -> None:
    classes = _two_cut_classes(g)
    if not classes:
        if len(g.vertices) == 2:
            tree.nodes.append(SpqrNode("P", g))
        else:
            # must be simple and 3-connected here
            for t in g.edges:
                u, w = g.endpoints(t)
                if sum(1 for s in g.edges if set(g.endpoints(s)) == {u, w}) > 1:
                    raise GraphError("unexpected parallel edges in 3-edge-connected skeleton")
            tree.nodes.append(SpqrNode("R", g))
        return
    cls = classes[0]
    for t in cls:
        if isinstance(t, tuple) and t and t[0] == "virt":
            raise GraphError("SPQR structure violated: virtual edge inside a cut class")
    # components of g minus the class
    rest = g.without_edges(cls)
    comps = rest.connected_components()
    comp_of = {v: i for i, c in enumerate(comps) for v in c}
    # each component must touch exactly two class edges
    touch: dict[int, list] = {i: [] for i in range(len(comps))}
    for t in cls:
        u, w = g.endpoints(t)
        if comp_of[u] == comp_of[w]:
            raise GraphError("cut class edge has both endpoints in one side")
        touch[comp_of[u]].append((t, u))
        touch[comp_of[w]].append((t, w))
    for i, lst in touch.items():
        if len(lst) != 2:
            raise GraphError("cut class component with attachment count != 2")
    # walk the cycle of components and class edges
    order = []  # list of (comp index, entry vertex, exit vertex, exit tag)
    start_tag = cls[0]
    tag = start_tag
    u, w = g.endpoints(tag)
    cur, entry = comp_of[w], w
    s_cycle = []  # alternating: real tag, virtual tag, ...
    s_rot: dict[str, list] = {}
    virt_of_comp: dict[int, tuple] = {}
    while True:
        (t1, v1), (t2, v2) = touch[cur]
        out_tag, out_v = (t2, v2) if t1 == tag else (t1, v1)
        _VIRT_COUNTER[0] += 1
        vt = ("virt", _VIRT_COUNTER[0])
        virt_of_comp[cur] = (vt, entry, out_v)
        # S cycle vertices entry/out_v joined by the virtual edge
        s_rot.setdefault(entry, []).append(tag)
        s_rot[entry].append(vt)
        s_rot.setdefault(out_v, []).append(vt)
        s_rot[out_v].append(out_tag)
        s_cycle.extend([tag, vt])
        tag = out_tag
        u, w = g.endpoints(tag)
        nxt, nentry = (comp_of[w], w) if comp_of[w] != cur else (comp_of[u], u)
        if tag == start_tag:
            break
        cur, entry = nxt, nentry
    if len(s_cycle) != 2 * len(cls):
        raise GraphError("cut class components do not form a single cycle")
    s_rot = {v: tags for v, tags in s_rot.items()}
    tree.nodes.append(SpqrNode("S", PlanarGraph(s_rot)))
    # recurse on each side with its virtual edge spliced in
    for ci, comp in enumerate(comps):
        vt, a, b = virt_of_comp[ci]
        sub = rest.subgraph(comp)
        # the virtual edge takes the rotation slot freed by the class edge
        # at each attachment vertex (slots shift down after edge removal)
        (ta, va), (tb, vb) = touch[ci]
        slot_a = sum(1 for t in g.rot[va][: g.rot[va].index(ta)] if t not in cls)
        slot_b = sum(1 for t in g.rot[vb][: g.rot[vb].index(tb)] if t not in cls)
        sub2 = sub.with_edge(vt, va, slot_a, vb, slot_b)
        _split(sub2, tree)


def recompose_edges(tree: SpqrTree) -> list:
    """Multiset of real edge tags across all skeletons (for validation)."""
    out = []
    for n in tree.nodes:
        for t in n.skeleton.edges:
            if not (isinstance(t, tuple) and t and t[0] == "virt"):
                out.append(t)
    return sorted(out, key=repr)
