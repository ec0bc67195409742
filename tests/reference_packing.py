"""Reference circle packing: the flag kite with tuple tags, every triangle
through ``triangle_angles``, kept as an oracle.

``kite_triangulation`` tags each kite edge by what it joins: ("vx", v,
e), ("fx", face index, e) and ("vf", v, face index).  ``_angle_system``
and ``layout_centers`` take every triangle's angles, all three at once,
from ``triangle_angles``, and right kites from ``right_kite``.  The
Newton loop, the linear solves and the stopping rule are the library's.
``pack_and_layout`` and ``primal_dual_pack`` here must give the same
radii, centers, tangency and crossing points as the library's, bit for
bit (tests/test_packing.py).
"""

from __future__ import annotations

import cmath
import math
from collections import deque

from lombardi import packing
from lombardi.geometry import Circle
from lombardi.graph import GraphError, PlanarGraph
from lombardi.packing import CirclePacking, PackingError, PrimalDualPacking, edge_length


def pack_triangulation(g: PlanarGraph, boundary: dict[str, float], overlap: dict | None = None) -> dict[str, float]:
    """Radii closing every interior angle sum at 2*pi (the library's rule)."""
    ov = overlap or {}
    names = [v for v in g.vertices if v not in boundary]
    n = len(names)
    names += [v for v in g.vertices if v in boundary]
    index = {v: i for i, v in enumerate(names)}
    slot: dict[tuple[int, int], int] = {}
    pairs: list[tuple[int, int]] = []

    def side(i: int, j: int) -> int:
        key = (i, j) if i < j else (j, i)
        if key not in slot:
            slot[key] = len(pairs)
            pairs.append((min(key[0], n), min(key[1], n)))
        return slot[key]

    tris = []
    kites: dict[tuple[int, int], int] = {}
    tangent = not ov and 0.0 not in boundary.values()
    for walk in g.faces():
        vs = [index[d[0]] for d in walk]
        if min(vs) >= n:
            continue
        if len(walk) != 3:
            raise PackingError("packing requires a triangulation around every interior vertex")
        if not tangent:
            k = next(
                (k for k in range(3) if boundary.get(walk[k][0]) == 0.0 and ov.get(g.dart_tag(walk[k - 2])) == math.pi / 2),
                None,
            )
            if k is not None:
                ab = tuple(sorted((vs[k - 2], vs[k - 1])))
                kites[ab] = kites.get(ab, 0) + 1
                continue
            if any(ov.get(g.dart_tag(d), 0.0) or boundary.get(d[0]) == 0.0 for d in walk):
                raise PackingError("packing solves only tangent triangles and right kites")
        tris.append((vs, [side(vs[k], vs[(k + 1) % 3]) for k in range(3)]))
    kite_sides = [(a, b, m, side(a, b)) for (a, b), m in kites.items()]
    system = (tris, kite_sides, n, len(pairs))
    order = packing._elimination(pairs, n)
    radii = [boundary.get(v, 1.0) for v in names]
    theta, weight = _angle_system(radii, *system)
    norm = sum(x * x for x in theta)
    step = 0
    while True:
        worst = max(map(abs, theta), default=0.0)
        if worst <= packing._DEFECT_TOL:
            return {v: radii[index[v]] for v in g.vertices}
        if step >= packing._MAX_NEWTON_STEPS:
            raise PackingError(f"packing did not converge within {step} Newton steps (defect {worst:.3e})")
        step += 1
        rtol = min(0.1, max(math.sqrt(norm), 0.01 * packing._DEFECT_TOL / worst))
        d = packing._solve_laplacian(pairs, order, weight, theta, rtol=rtol)
        t = 1.0
        for _ in range(60):
            try:
                trial = [r * math.exp(t * x) for r, x in zip(radii, d)] + radii[n:]
                theta_t, weight_t = _angle_system(trial, *system)
                norm_t = sum(x * x for x in theta_t)
            except ArithmeticError:
                norm_t = math.inf
            if norm_t < norm:
                break
            t *= 0.5
        else:
            raise PackingError(f"packing stalled after {step} Newton steps (defect {worst:.3e})")
        radii, theta, weight, norm = trial, theta_t, weight_t, norm_t


def _angle_system(radii, tris, kites, n, n_pairs):
    """Angle-sum defects of the n unknowns and the Jacobian's side weights."""
    theta = [-2 * math.pi] * len(radii)
    weight = [0.0] * n_pairs
    for a, b, m, s in kites:
        angle_a, angle_b, w = right_kite(radii[a], radii[b])
        theta[a] += m * angle_a
        theta[b] += m * angle_b
        weight[s] += m * w
    for (a, b, c), (sab, sbc, sca) in tris:
        ra, rb, rc = radii[a], radii[b], radii[c]
        angle_a, angle_b, angle_c = triangle_angles(ra, rb, rc)
        theta[a] += angle_a
        theta[b] += angle_b
        theta[c] += angle_c
        rho = math.sqrt(ra * rb * rc / (ra + rb + rc))
        weight[sab] += rho / (ra + rb)
        weight[sbc] += rho / (rb + rc)
        weight[sca] += rho / (rc + ra)
    return theta[:n], weight


def triangle_angles(r_a: float, r_b: float, r_c: float) -> tuple[float, float, float]:
    """Angles at a, b and c of the triangle of centers of circles a, b, c:
    of three tangent circles by their incircle, of a right kite by
    ``right_kite``."""
    if r_a and r_b and r_c:
        rho = math.sqrt(r_a * r_b * r_c / (r_a + r_b + r_c))
        return 2 * math.atan(rho / r_a), 2 * math.atan(rho / r_b), 2 * math.atan(rho / r_c)
    return tuple(right_kite(r, s + t)[0] for r, s, t in ((r_a, r_b, r_c), (r_b, r_c, r_a), (r_c, r_a, r_b)))


def right_kite(r_a: float, r_b: float) -> tuple[float, float, float]:
    """Angles at a and b of a right kite (a, x, b), x a point circle, and
    its weight on side ab."""
    return math.atan2(r_b, r_a), math.atan2(r_a, r_b), r_a * r_b / (r_a * r_a + r_b * r_b)


def layout_centers(g: PlanarGraph, radii: dict[str, float], skip: set[int], overlap: dict | None = None) -> CirclePacking:
    """Place the circle centers of the faces outside ``skip`` in one queue pass."""
    ov = overlap or {}
    ends = [g.endpoints(t) for t in g.edges]
    cos_of = {phi: math.cos(phi) for phi in {0.0, *ov.values()}}
    cos: dict[tuple[str, str], float] = {}
    for t, (u, w) in zip(g.edges, ends):
        cos[(u, w)] = cos[(w, u)] = cos_of[ov.get(t, 0.0)]

    def length(u, w):
        return edge_length(radii[u], radii[w], cos[(u, w)])

    faces = g.faces()
    third: dict[tuple[str, str], str] = {}
    for i, walk in enumerate(faces):
        if i in skip:
            continue
        if len(walk) != 3:
            raise GraphError("layout requires a triangulation (all inner faces of size 3)")
        a, b, c = (d[0] for d in walk)
        third[(a, b)], third[(b, c)], third[(c, a)] = c, a, b
    laid = {a for a, _ in third}
    skipped = {d for i in skip for d in faces[i]}
    seed = next(d for d in g.darts() if d in skipped and d[0] in laid and g.head(d) in laid)
    u0, v0 = seed[0], g.head(seed)
    pos = {u0: complex(-radii[u0], 0.0)}
    pos[v0] = pos[u0] + length(u0, v0)
    queue = deque([(u0, v0), (v0, u0)])
    while queue:
        a, b = queue.popleft()
        c = third.get((a, b))
        if c is None or c in pos:
            continue
        dab = pos[b] - pos[a]
        if not dab:
            raise PackingError("layout failed: coincident centers")
        alpha = triangle_angles(radii[a], radii[b], radii[c])[0]
        pos[c] = pos[a] + length(a, c) * dab / abs(dab) * cmath.exp(1j * alpha)
        for w in g.neighbors(c):
            if w in pos:
                queue += ((c, w), (w, c))
    scale = max(radii[v] for v in laid)
    if len(pos) < len(laid) or any(
        abs(abs(pos[x] - pos[y]) - length(x, y)) > 1e-6 * scale for x, y in ends if x in pos and y in pos
    ):
        raise PackingError("layout failed: inconsistent edge lengths")
    circles = {v: Circle(pos[v], radii[v]) for v in g.vertices if v in pos and radii[v] > 0}
    return CirclePacking(circles=circles, centers=pos)


def pack_and_layout(g: PlanarGraph) -> CirclePacking:
    """Tangent packing of triangulation ``g`` with face 0 as its outer face."""
    walk = g.faces()[0]
    if len(walk) != 3:
        raise GraphError("outer face must be a triangle")
    radii = pack_triangulation(g, {d[0]: 1.0 for d in walk})
    laid = layout_centers(g, radii, {0})
    pos = laid.centers
    for t in g.edges:
        x, y = g.endpoints(t)
        laid.tangency[t] = pos[x] + radii[x] * (pos[y] - pos[x]) / abs(pos[y] - pos[x])
    return laid


def kite_triangulation(g: PlanarGraph) -> tuple[PlanarGraph, dict, dict, dict]:
    """One right kite triangle per flag, its edges tagged by what they join.

    Returns (kite graph, overlap angles, face names, edge-point names).
    """
    g.check_planar()
    faces = g.faces()
    fidx = g.face_of()
    fname = {i: f"f{i}" for i in range(len(faces))}
    xname = {t: f"x{k}" for k, t in enumerate(g.edges)}
    overlap: dict = {}
    rot: dict[str, list] = {}
    for v in g.vertices:
        k = g.degree(v)
        order = []
        for i in range(k):
            e = g.dart_tag((v, i))
            fi = fidx[(v, (i + 1) % k)]  # the corner between edges i and i+1
            order.append(("vx", v, e))
            order.append(("vf", v, fi))
            overlap[("vx", v, e)] = 0.0
            overlap[("vf", v, fi)] = math.pi / 2
        rot[v] = order
    for j, walk in enumerate(faces):
        order = []
        for d in walk:
            e = g.dart_tag(d)
            order.append(("vf", d[0], j))
            order.append(("fx", j, e))
            overlap[("fx", j, e)] = 0.0
        rot[fname[j]] = list(reversed(order))
    for e in g.edges:
        du, dw = g.darts_of(e)
        rot[xname[e]] = [("vx", du[0], e), ("fx", fidx[du], e), ("vx", dw[0], e), ("fx", fidx[dw], e)]
    kite = PlanarGraph(rot)
    if any(len(f) != 3 for f in kite.faces()):
        raise GraphError("flag subdivision is not a triangulation")
    return kite, overlap, fname, xname


def primal_dual_pack(g: PlanarGraph) -> PrimalDualPacking:
    """Orthogonal circle packing of a polyhedral graph and its dual, from
    the flag kite with the hub's star skipped in the layout."""
    kite, overlap, fname, xname = kite_triangulation(g)
    fidx = g.face_of()
    tri = next((i for i, walk in enumerate(g.faces()) if len(walk) == 3), None)
    deg3 = next((v for v in g.vertices if g.degree(v) == 3), None)
    if tri is not None:
        hub, triple = fname[tri], g.face_vertices(tri)
    elif deg3 is not None:
        hub, triple = deg3, [fname[fidx[(deg3, s)]] for s in range(3)]
    else:
        raise GraphError("no triangular face and no degree-3 vertex")
    boundary = {xname[t]: 0.0 for t in g.edges} | dict.fromkeys(triple, 1.0)
    radii = pack_triangulation(kite, boundary, overlap=overlap)

    ring = kite.neighbors(hub)
    if len(set(ring)) != len(ring):
        raise PackingError("the hub's faces do not close into one ring")
    kite_face = kite.face_of()
    star = {kite_face[(hub, s)] for s in range(kite.degree(hub))}
    laid = layout_centers(kite, radii, star, overlap=overlap)
    walk = kite.faces()[min(star)]
    k = [d[0] for d in walk].index(hub)
    x, y = walk[k - 2][0], walk[k - 1][0]
    xy = laid.centers[y] - laid.centers[x]
    side = edge_length(radii[x], radii[hub], math.cos(overlap[kite.dart_tag(walk[k])]))
    turn = cmath.exp(-1j * triangle_angles(radii[x], radii[y], radii[hub])[0])
    circles = laid.circles | {hub: Circle(laid.centers[x] + side * xy / abs(xy) * turn, radii[hub])}
    return PrimalDualPacking(
        vertex_circles={v: circles[v] for v in g.vertices},
        face_circles={fname[i]: circles[fname[i]] for i in fname},
        crossing={t: laid.centers[xname[t]] for t in g.edges},
        hub=hub,
    )
