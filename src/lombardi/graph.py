"""Planar embedded multigraphs as rotation systems.

A graph is given by a clockwise rotation system: for every vertex, the
cyclic order of its incident edge tags.  Each edge tag appears exactly
twice (at its two distinct endpoints); parallel edges carry distinct
tags, self loops are not supported.  Faces are traced from the rotation
system and Euler's formula certifies that the rotation system describes
a sphere embedding.

The structure checks run in near-linear time on one iterative DFS:
bridges and cut vertices by lowpoints, 2-edge-cut classes by
cycle-space sampling (``_two_cut_classes``), and 3-connectivity by the
face criterion for plane graphs (``is_three_connected``).
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from collections import Counter
from collections.abc import Iterator
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

    def is_simple(self) -> bool:
        """No two edges join the same pair of vertices."""
        return len({frozenset(self.endpoints(t)) for t in self.edges}) == len(self.edges)

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

    def _dfs(self) -> tuple[dict, dict, dict, list]:
        """Iterative DFS taking edges in rotation order.

        Returns (discovery index, lowpoint, tree edge into each vertex or
        None at a root, vertices in postorder); the lowpoint of v is the
        least discovery index reachable from v's subtree by one non-tree
        edge.  O(V + E).
        """
        disc: dict[str, int] = {}
        via: dict = {}
        post: list[str] = []
        for root in self.vertices:
            if root in disc:
                continue
            disc[root], via[root] = len(disc), None
            stack = [(root, iter(self.rot[root]))]
            while stack:
                v, it = stack[-1]
                for tag in it:
                    w = self.other_end(tag, v)
                    if w not in disc:
                        disc[w], via[w] = len(disc), tag
                        stack.append((w, iter(self.rot[w])))
                        break
                else:
                    stack.pop()
                    post.append(v)
        low = dict(disc)
        for v in post:
            for tag in self.rot[v]:
                if tag != via[v]:
                    w = self.other_end(tag, v)
                    low[v] = min(low[v], low[w] if via[w] == tag else disc[w])
        return disc, low, via, post

    def bridges(self) -> list:
        """Edge tags whose removal disconnects the graph, in DFS postorder:
        the tree edges into subtrees that no non-tree edge leaves."""
        disc, low, via, post = self._dfs()
        return [via[v] for v in post if via[v] is not None and low[v] == disc[v]]

    def suppress_degree_two(self):
        """Smooth all degree-2 vertices.

        Returns (smoothed graph, chains) where ``chains`` maps each new
        chain tag to (vertices, tags): the chain's vertices from one end u
        to the other end w, and the tags of its edges in the same order.
        Vertices of other degrees keep their rotation, with each chain
        occupying the slot of its first edge.  A cycle made only of
        degree-2 vertices is an error.
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
                seq, tags = [a], [self.dart_tag(d)]
                cur = d
                while self.degree(self.head(cur)) == 2:
                    w, j = self.twin(cur)
                    cur = (w, 1 - j)  # leave w through its other slot
                    seq.append(w)
                    tags.append(self.dart_tag(cur))
                end = self.twin(cur)  # dart at the far anchor
                seq.append(end[0])
                seen_darts.add(d)
                seen_darts.add(end)
                if len(seq) == 2:
                    new_tag_at[d] = new_tag_at[end] = tags[0]
                    continue
                key = ("chain",) + tuple(sorted([d, end]))
                new_tag_at[d] = new_tag_at[end] = key
                chains[key] = (seq, tags)
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
    """Whether the simple plane graph ``g`` is 3-connected.

    Graphs with fewer than 4 vertices, a vertex of degree < 3 or parallel
    edges are rejected outright, and a lowpoint DFS rejects cut vertices.
    What is left is decided by the face criterion for plane graphs: a
    2-connected plane graph with minimum degree 3 is 3-connected exactly
    when any two face boundaries share nothing, one vertex, or one edge
    lying on both.  (Two faces meeting in vertices u, v but no common edge
    uv give a closed curve through both faces that meets the graph only
    in u and v, so {u, v} separates; conversely the faces at a separating
    vertex that switch between the sides all pass through the other one.)
    Shared vertices are counted per face pair from one vertex -> faces
    map: O(sum of squared degrees), linear at bounded degree.  Raises
    GraphError if the rotation system is not a sphere embedding.
    """
    vs = g.vertices
    if len(vs) < 4 or any(g.degree(v) < 3 for v in vs) or not g.is_simple():
        return False
    disc, low, via, _ = g._dfs()
    parent = {v: g.other_end(t, v) for v, t in via.items() if t is not None}
    if len(parent) != len(vs) - 1 or sum(via[p] is None for p in parent.values()) != 1:
        return False  # disconnected, or the DFS root is a cut vertex
    if any(via[p] is not None and low[v] >= disc[p] for v, p in parent.items()):
        return False
    g.check_planar()
    faces_at: dict[str, list[int]] = {}
    for i, walk in enumerate(g.faces()):
        for v, _ in walk:
            faces_at.setdefault(v, []).append(i)
    shared = Counter(p for fs in faces_at.values() for p in itertools.combinations(fs, 2))
    fo = g.face_of()
    along_edge = {tuple(sorted(fo[d] for d in g.darts_of(t))) for t in g.edges}
    return all(k < 2 or (k == 2 and p in along_edge) for p, k in shared.items())


def serialize(g: PlanarGraph) -> str:
    lines = []
    for v in g.vertices:
        lines.append(" ".join([v] + g.neighbors(v)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SPQR decomposition of 2-edge-connected cubic multigraphs


@dataclass
class SpqrNode:
    """A node of the nested SPQR decomposition.

    ``kind`` is 'S', 'P' or 'R'.  An S node's skeleton is a cycle and
    ``sides`` maps each virtual edge of that cycle to the decomposition of
    the side across it, in whose skeletons the virtual edge is an ordinary
    edge; P and R nodes have no sides.
    """

    kind: str
    skeleton: PlanarGraph
    sides: dict = field(default_factory=dict)


def _two_cut_classes(g: PlanarGraph) -> list[list]:
    """Classes of edges under membership in common 2-edge-cuts of the
    2-edge-connected graph ``g``, by cycle-space sampling (Pritchard &
    Thurimella, *Fast computation of small cuts via cycle space
    sampling*, ACM TALG 2011).

    Every non-tree edge of one DFS gets a random 64-bit label and every
    tree edge the XOR of the labels of the non-tree edges covering it,
    summed bottom-up in postorder.  Two edges form a 2-edge-cut exactly
    when they lie on the same cycles, so they get equal labels; edges of
    different classes collide with probability about 2^-64, and ``_split``
    raises on a class that does not cut the graph into a cycle.  The
    labels come from a fixed seed.  Each class is sorted by ``repr``, and
    the classes by ``repr`` of their first edge.  O(V + E).
    """
    _, _, via, post = g._dfs()
    rng = random.Random(0)
    tree = set(via.values())
    label = {t: rng.getrandbits(64) for t in g.edges if t not in tree}
    for v in post:
        if via[v] is not None:
            label[via[v]] = functools.reduce(
                operator.xor, (label[t] for t in g.rot[v] if t != via[v]), 0
            )
    groups: dict[int, list] = {}
    for t in g.edges:
        groups.setdefault(label[t], []).append(t)
    return sorted((c for c in groups.values() if len(c) > 1), key=lambda c: repr(c[0]))


def is_virtual(tag) -> bool:
    """Whether ``tag`` names a virtual edge of an SPQR skeleton."""
    return isinstance(tag, tuple) and len(tag) > 0 and tag[0] == "virt"


def _assert_cubic(g: PlanarGraph):
    for v in g.vertices:
        if g.degree(v) != 3:
            raise GraphError(f"vertex {v!r} has degree {g.degree(v)}, expected 3")


def spqr(g: PlanarGraph) -> SpqrNode:
    """SPQR decomposition of a 2-edge-connected cubic planar multigraph.

    Splits recursively along maximal 2-edge-cut classes: each class
    yields an S node (an even cycle alternating real class edges and
    virtual edges), and every side is re-split with its virtual edge
    inserted in place of its class edge.  Leaves are P nodes (3-bonds)
    or R nodes (3-connected simple cubic skeletons).  Returns the root;
    the nesting is kept in the S nodes' ``sides``.  Virtual edges are
    tagged ("virt", 1), ("virt", 2), ... afresh in every call (see
    ``is_virtual``), so no input edge may carry such a tag.  Each
    split finds its classes in O(V + E) (see ``_two_cut_classes``), so
    the decomposition costs O(V + E) per level of nesting.
    """
    _assert_cubic(g)
    if any(is_virtual(t) for t in g.edges):
        raise GraphError("edge tags ('virt', ...) are reserved for SPQR skeletons")
    if g.bridges():
        raise GraphError("graph is not 2-edge-connected")
    return _split(g, itertools.count(1))


def _split(g: PlanarGraph, virt_ids: Iterator[int]) -> SpqrNode:
    classes = _two_cut_classes(g)
    if not classes:
        if len(g.vertices) == 2:
            return SpqrNode("P", g)
        # must be simple and 3-connected here
        if not g.is_simple():
            raise GraphError("unexpected parallel edges in 3-edge-connected skeleton")
        return SpqrNode("R", g)
    cls = classes[0]
    if any(is_virtual(t) for t in cls):
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
    start_tag = cls[0]
    tag = start_tag
    u, w = g.endpoints(tag)
    cur, entry = comp_of[w], w
    s_cycle = []  # alternating: real tag, virtual tag, ...
    s_rot: dict[str, list] = {}
    virt_of_comp: dict[int, tuple] = {}  # component -> its virtual tag
    while True:
        (t1, v1), (t2, v2) = touch[cur]
        out_tag, out_v = (t2, v2) if t1 == tag else (t1, v1)
        vt = ("virt", next(virt_ids))
        virt_of_comp[cur] = vt
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
    node = SpqrNode("S", PlanarGraph(s_rot))
    # recurse on each side with its virtual edge spliced in
    for ci, comp in enumerate(comps):
        vt, sub = virt_of_comp[ci], rest.subgraph(comp)
        # the virtual edge takes the rotation slot freed by the class edge
        # at each attachment vertex (slots shift down after edge removal)
        (ta, va), (tb, vb) = touch[ci]
        slot_a = sum(1 for t in g.rot[va][: g.rot[va].index(ta)] if t not in cls)
        slot_b = sum(1 for t in g.rot[vb][: g.rot[vb].index(tb)] if t not in cls)
        node.sides[vt] = _split(sub.with_edge(vt, va, slot_a, vb, slot_b), virt_ids)
    return node
