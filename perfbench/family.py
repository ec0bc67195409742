"""Deterministic benchmark inputs built from ``lombardi.graph.PlanarGraph``.

A rotation system is handled here as ``{vertex: [neighbor, ...]}`` with
neighbors in clockwise order, the same content as the one-line-per-vertex
text format that ``lombardi.graph.parse`` reads.  Every input is a simple
graph, so neighbor names identify edges.

The scaled family is derived from the shipped fixtures:

- ``truncate``: one vertex per dart (each vertex becomes a triangle);
- ``subdivide``: every edge split into k + 1 edges;
- ``necklace``: copies of a graph in a row, each joined to the next by a
  bridge between vertices that subdivide an edge of either copy.

``relabel`` applies a workload seed: a fresh vertex naming, a new line
order and a cyclic shift of every rotation.  None of these changes the
embedding, so a seed picks another presentation of the same plane graph.
"""

from __future__ import annotations

import random

Rotation = dict[str, list[str]]


def rotation_of(g) -> Rotation:
    """The clockwise neighbor lists of a parsed ``PlanarGraph``."""
    return {v: g.neighbors(v) for v in g.vertices}


def to_text(rot: Rotation) -> str:
    return "".join(" ".join([v, *nbrs]) + "\n" for v, nbrs in rot.items())


def truncate(rot: Rotation) -> Rotation:
    """Replace every vertex by a cycle with one vertex per incident dart.

    Vertex ``v_i`` sits on the i-th dart of ``v``; clockwise around it come
    the far end of that dart, then the next and the previous vertex of
    ``v``'s cycle.
    """
    out: Rotation = {}
    for v, nbrs in rot.items():
        k = len(nbrs)
        for i, w in enumerate(nbrs):
            far = f"{w}_{rot[w].index(v)}"
            out[f"{v}_{i}"] = [far, f"{v}_{(i + 1) % k}", f"{v}_{(i - 1) % k}"]
    return out


def _split_edge(rot: Rotation, u: str, w: str, names: list[str]) -> None:
    """Insert the path u - names[0] - ... - names[-1] - w in place of uw."""
    path = [u, *names, w]
    rot[u][rot[u].index(w)] = path[1]
    rot[w][rot[w].index(u)] = path[-2]
    for j, x in enumerate(names, 1):
        rot[x] = [path[j - 1], path[j + 1]]


def edges(rot: Rotation) -> list[tuple[str, str]]:
    return sorted({tuple(sorted((v, w))) for v, nbrs in rot.items() for w in nbrs})


def subdivide(rot: Rotation, k: int) -> Rotation:
    """Split every edge by k new degree-2 vertices."""
    out = {v: list(nbrs) for v, nbrs in rot.items()}
    for u, w in edges(rot):
        _split_edge(out, u, w, [f"{u}~{w}~{j}" for j in range(k)])
    return out


def necklace(rot: Rotation, copies: int) -> Rotation:
    """``copies`` copies of ``rot`` in a row, joined by bridges.

    In every copy the first edge (in sorted order) is subdivided at ``a``
    and the last edge that shares no endpoint with it at ``b``; a bridge
    joins ``b`` of each copy to ``a`` of the next.  The unused ``a`` of the
    first copy and ``b`` of the last stay as degree-2 vertices, so the
    result has ``copies * (n + 2)`` vertices.
    """
    es = edges(rot)
    first = es[0]
    last = [e for e in es if not set(e) & set(first)][-1]
    out: Rotation = {}
    for c in range(copies):
        part = {f"c{c}.{v}": [f"c{c}.{w}" for w in nbrs] for v, nbrs in rot.items()}
        _split_edge(part, f"c{c}.{first[0]}", f"c{c}.{first[1]}", [f"c{c}^a"])
        _split_edge(part, f"c{c}.{last[0]}", f"c{c}.{last[1]}", [f"c{c}^b"])
        out.update(part)
    for c in range(copies - 1):
        out[f"c{c}^b"].append(f"c{c + 1}^a")
        out[f"c{c + 1}^a"].append(f"c{c}^b")
    return out


def relabel(rot: Rotation, seed: int) -> Rotation:
    """Rename vertices to ``v0 .. v{n-1}`` in a seeded random order, emit
    the lines sorted by new name, and cyclically shift every rotation."""
    rng = random.Random(seed)
    old = list(rot)
    new = {v: f"v{i}" for v, i in zip(old, rng.sample(range(len(old)), len(old)))}
    out: Rotation = {}
    for v in sorted(old, key=lambda x: new[x]):
        nbrs = [new[w] for w in rot[v]]
        s = rng.randrange(len(nbrs)) if nbrs else 0
        out[new[v]] = nbrs[s:] + nbrs[:s]
    return out
