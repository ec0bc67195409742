"""Circle packings of planar triangulations.

Radii solve the angle-sum system: at every interior vertex the angles
of its triangles of centers sum to 2*pi, where a side joining circles
r, s with overlap angle phi has length sqrt(r^2 + s^2 + 2 r s cos phi)
(tangency is phi = 0; the primal-dual packing crosses vertex and face
circles at pi/2 and pins point circles at radius 0).  In log-radii the
system is the gradient of a convex functional (Colin de Verdière 1991
for tangencies, Bobenko-Springborn 2004 for overlap angles), so its
Jacobian is minus a weighted Laplacian and damped Newton converges
quadratically; each step is solved by conjugate gradients.

Centers are then laid out by triangle-to-triangle propagation from a
seed edge on the x-axis.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .geometry import Circle
from .graph import GraphError, PlanarGraph


class PackingError(RuntimeError):
    """The radii failed to converge or the layout is inconsistent."""


@dataclass
class CirclePacking:
    """A laid-out packing: one circle per triangulation vertex.

    ``tangency`` holds, for every edge with overlap angle 0, the point
    where its two circles touch.
    """

    circles: dict[str, Circle]
    tangency: dict = field(default_factory=dict)
    outer_face: int = -1
    centers: dict[str, complex] = field(default_factory=dict)


@dataclass
class PrimalDualPacking:
    """Orthogonal primal-dual circle representation of a polyhedral graph."""

    vertex_circles: dict[str, Circle]
    face_circles: dict[str, Circle]
    crossing: dict  # primal edge tag -> the common crossing/tangency point
    kite: PlanarGraph
    kite_packing: CirclePacking
    # the puncture circle of the flat layout (a vertex or face name);
    # its disk is the exterior of the drawn circle
    hub: str = ""


def neighbor_angle(r_v: float, r_u: float, r_w: float) -> float:
    """Angle at circle v's center in the tangent triangle with circles u, w."""
    return _angle(r_v + r_u, r_v + r_w, r_u + r_w)


def edge_length(r1: float, r2: float, cos_overlap: float) -> float:
    return math.sqrt(r1 * r1 + r2 * r2 + 2 * r1 * r2 * cos_overlap)


def _angle(lv_u: float, lv_w: float, l_uw: float) -> float:
    """Triangle angle at the vertex whose adjacent sides are lv_u, lv_w."""
    c = (lv_u * lv_u + lv_w * lv_w - l_uw * l_uw) / (2 * lv_u * lv_w)
    return math.acos(min(1.0, max(-1.0, c)))


def _side_length(g: PlanarGraph, overlap: dict | None):
    """length(radii, u, w): the side of the triangle of centers along edge uw."""
    ov = overlap or {}
    cos: dict[tuple[str, str], float] = {}
    for t in g.edges:
        u, w = g.endpoints(t)
        cos[(u, w)] = cos[(w, u)] = math.cos(ov.get(t, 0.0))
    return lambda radii, u, w: edge_length(radii[u], radii[w], cos[(u, w)])


def pack_triangulation(
    g: PlanarGraph,
    boundary: dict[str, float],
    tol: float = 1e-10,
    max_iter: int = 1000000,
    overlap: dict | None = None,
) -> dict[str, float]:
    """Radii closing every interior angle sum at 2*pi, to a defect ≤ tol.

    ``boundary`` vertices keep their given radii (zero for point
    circles); the others are found by at most ``max_iter`` damped Newton
    steps in log-radii, each backtracking on the residual norm.
    """
    ov = overlap or {}
    names = [v for v in g.vertices if v not in boundary]
    n = len(names)  # the unknowns come first; in ``pairs``, n is any pinned vertex
    names += [v for v in g.vertices if v in boundary]
    index = {v: i for i, v in enumerate(names)}
    # per inner triangle in faces() order: its vertices, the overlap
    # cosines of its sides ab, bc, ca, and each side's slot in ``pairs``
    slot: dict[tuple[int, int], int] = {}
    pairs: list[tuple[int, int]] = []
    tris = []
    for walk in g.faces():
        vs = [index[d[0]] for d in walk]
        if min(vs) >= n:
            continue
        if len(walk) != 3:
            raise PackingError("packing requires a triangulation around every interior vertex")
        sides = []
        for k in range(3):
            key = tuple(sorted((vs[k], vs[(k + 1) % 3])))
            if key not in slot:
                slot[key] = len(pairs)
                pairs.append((min(key[0], n), min(key[1], n)))
            sides.append(slot[key])
        tris.append((vs, [math.cos(ov.get(g.dart_tag(d), 0.0)) for d in walk], sides))
    radii = [boundary.get(v, 1.0) for v in names]
    theta, weight = _angle_system(radii, tris, n, len(pairs))
    norm = sum(x * x for x in theta)
    step = 0
    while True:
        worst = max(map(abs, theta), default=0.0)
        if worst <= tol:
            return {v: radii[index[v]] for v in g.vertices}
        if step >= max_iter:
            raise PackingError(
                f"packing did not converge within {max_iter} Newton steps (defect {worst:.3e})"
            )
        step += 1
        d = _solve_laplacian(pairs, weight, theta, rtol=min(0.1, math.sqrt(norm)))
        t = 1.0
        for _ in range(60):
            try:  # a step may overflow a radius or flatten a triangle
                trial = [r * math.exp(t * x) for r, x in zip(radii, d)] + radii[n:]
                theta_t, weight_t = _angle_system(trial, tris, n, len(pairs))
                norm_t = sum(x * x for x in theta_t)
            except ArithmeticError:
                norm_t = math.inf
            if norm_t < norm:
                break
            t *= 0.5
        else:
            raise PackingError(f"packing stalled after {step} Newton steps (defect {worst:.3e})")
        radii, theta, weight, norm = trial, theta_t, weight_t, norm_t


def _angle_system(radii, tris, n, n_pairs):
    """Angle-sum defects of the n unknowns and the Jacobian's side weights.

    The Jacobian of the angle sums in log-radii is minus a weighted
    Laplacian: in each triangle, d(angle at a)/d(log r_b) = d(angle at
    b)/d(log r_a) = w_ab ≥ 0, and the angles do not change when all three
    radii are scaled together.
    """
    theta = [-2 * math.pi] * len(radii)
    weight = [0.0] * n_pairs
    for (a, b, c), (cab, cbc, cca), (sab, sbc, sca) in tris:
        ra, rb, rc = radii[a], radii[b], radii[c]
        ab = math.sqrt(ra * ra + rb * rb + 2 * ra * rb * cab)
        bc = math.sqrt(rb * rb + rc * rc + 2 * rb * rc * cbc)
        ca = math.sqrt(rc * rc + ra * ra + 2 * rc * ra * cca)
        cos_a = min(1.0, max(-1.0, (ab * ab + ca * ca - bc * bc) / (2 * ab * ca)))
        cos_b = min(1.0, max(-1.0, (ab * ab + bc * bc - ca * ca) / (2 * ab * bc)))
        cos_c = min(1.0, max(-1.0, (bc * bc + ca * ca - ab * ab) / (2 * bc * ca)))
        theta[a] += math.acos(cos_a)
        theta[b] += math.acos(cos_b)
        theta[c] += math.acos(cos_c)
        # with F the area, d(angle at a)/d(side) is bc/(2F) for the
        # opposite side and -bc*cos(angle at its far end)/(2F) for an
        # adjacent one; d(side xy)/d(log r_x) = r_x (r_x + r_y cos_xy) / xy
        h = 1.0 / (ab * ca * math.sqrt(max(0.0, 1.0 - cos_a * cos_a)))
        weight[sab] += h * rb * (rb + rc * cbc - bc * cos_b * (rb + ra * cab) / ab)
        weight[sbc] += h * rc * (rc + ra * cca - ca * cos_c * (rc + rb * cbc) / bc)
        weight[sca] += h * ra * (ra + rb * cab - ab * cos_a * (ra + rc * cca) / ca)
    return theta[:n], weight


def _solve_laplacian(pairs, weight, b, rtol):
    """Solve L x = b to relative residual rtol by Jacobi-preconditioned CG.

    L is the Laplacian with weight ``weight[k]`` on the side ``pairs[k]``,
    restricted to the unknowns; index len(b) is a pinned vertex, held at 0.
    """
    n = len(b)
    diag = [0.0] * (n + 1)
    for (i, j), w in zip(pairs, weight):
        diag[i] += w
        diag[j] += w
    x = [0.0] * (n + 1)
    r = list(b) + [0.0]
    z = [ri / di for ri, di in zip(b, diag)] + [0.0]
    p = z
    rz = sum(ri * zi for ri, zi in zip(r, z))
    stop = rtol * rtol * sum(bi * bi for bi in b)
    for _ in range(2 * n + 10):
        q = [0.0] * (n + 1)
        for (i, j), w in zip(pairs, weight):
            f = w * (p[i] - p[j])
            q[i] += f
            q[j] -= f
        q[n] = 0.0
        alpha = rz / sum(pi * qi for pi, qi in zip(p, q))
        x = [xi + alpha * pi for xi, pi in zip(x, p)]
        r = [ri - alpha * qi for ri, qi in zip(r, q)]
        if sum(ri * ri for ri in r) <= stop:
            break
        z = [ri / di for ri, di in zip(r, diag[:n])] + [0.0]
        rz, rz_old = sum(ri * zi for ri, zi in zip(r, z)), rz
        p = [zi + rz / rz_old * pi for zi, pi in zip(z, p)]
    return x[:n]


def layout_centers(
    g: PlanarGraph,
    radii: dict[str, float],
    outer_face: int,
    overlap: dict | None = None,
) -> CirclePacking:
    """Propagate circle centers face by face from a seed edge on the x-axis.

    The outer face (a triangle of the triangulation) is skipped; the
    first edge of its walk is the seed: its circles go on the x-axis
    tangent (or at their prescribed distance) at the origin, the first
    centered at (-r, 0).
    """
    length = _side_length(g, overlap)
    faces = g.faces()
    if any(len(f) != 3 for i, f in enumerate(faces) if i != outer_face):
        raise GraphError("layout requires a triangulation (all inner faces of size 3)")
    walk = faces[outer_face]
    d0 = walk[0]
    u0, v0 = d0[0], g.head(d0)
    pos = {u0: complex(-radii[u0], 0.0)}
    pos[v0] = pos[u0] + length(radii, u0, v0)
    pending = [i for i in range(len(faces)) if i != outer_face]
    progress = True
    while pending and progress:
        progress = False
        rest = []
        for fi in pending:
            vs = [d[0] for d in faces[fi]]
            if all(v in pos for v in vs):
                continue
            for r in range(3):
                a, b, c = vs[r % 3], vs[(r + 1) % 3], vs[(r + 2) % 3]
                if a in pos and b in pos and c not in pos:
                    alpha = _angle(
                        length(radii, a, c),
                        length(radii, a, b),
                        length(radii, b, c),
                    )
                    dab = pos[b] - pos[a]
                    dab /= abs(dab)
                    pos[c] = pos[a] + length(radii, a, c) * dab * cmath.exp(1j * alpha)
                    progress = True
                    break
            else:
                rest.append(fi)
        pending = rest
    scale = max(radii.values())
    if pending or any(
        abs(abs(pos[x] - pos[y]) - length(radii, x, y)) > 1e-6 * scale
        for x, y in map(g.endpoints, g.edges)
    ):
        raise PackingError("layout failed: inconsistent edge lengths")

    circles = {v: Circle(pos[v], radii[v]) for v in g.vertices if radii[v] > 0}
    tangency = {}
    ov = overlap or {}
    for t in g.edges:
        if ov.get(t, 0.0) == 0.0:
            x, y = g.endpoints(t)
            d = pos[y] - pos[x]
            tangency[t] = pos[x] + radii[x] * d / abs(d)
    return CirclePacking(circles=circles, tangency=tangency, outer_face=outer_face, centers=pos)


def pack_and_layout(
    g: PlanarGraph,
    boundary: dict[str, float],
    outer_face: int,
    tol: float = 1e-10,
    max_iter: int = 1000000,
    overlap: dict | None = None,
) -> CirclePacking:
    """pack_triangulation followed by layout_centers, with sanity checks."""
    walk = g.faces()[outer_face]
    if len(walk) != 3:
        raise GraphError("outer face must be a triangle")
    if set(boundary) != {d[0] for d in walk}:
        raise GraphError("boundary radii must be given exactly for the outer face vertices")
    radii = pack_triangulation(g, boundary, tol=tol, max_iter=max_iter, overlap=overlap)
    return layout_centers(g, radii, outer_face, overlap=overlap)


def packing_defects(g: PlanarGraph, packing: CirclePacking, overlap: dict | None = None) -> dict:
    """Max residuals of the laid-out packing: edge lengths and tangencies."""
    length = _side_length(g, overlap)
    radii = {v: packing.circles[v].radius for v in g.vertices}
    worst_len = 0.0
    for t in g.edges:
        x, y = g.endpoints(t)
        d = abs(packing.circles[x].center - packing.circles[y].center)
        worst_len = max(worst_len, abs(d - length(radii, x, y)))
    worst_contact = 0.0
    for t, p in packing.tangency.items():
        x, y = g.endpoints(t)
        for v in (x, y):
            c = packing.circles[v]
            worst_contact = max(worst_contact, abs(abs(p - c.center) - c.radius))
    return {"edge_length": worst_len, "tangency": worst_contact}


# ---------------------------------------------------------------------------
# Primal-dual orthogonal packing via the flag-kite subdivision


def kite_triangulation(g: PlanarGraph) -> tuple[PlanarGraph, dict, dict, dict]:
    """Split a polyhedral graph into one right kite triangle per flag.

    Vertices: the original vertices, one vertex per face ('f<i>'), and
    one vertex per edge ('x<k>') at the point where the four circles of
    the edge meet.  Each (vertex, edge, face) flag becomes the triangle
    (vertex, edge point, face); edge-point circles have radius zero, so
    every vertex-face side crosses at pi/2 while the two legs of each
    triangle are tangencies with a point circle.

    Returns (kite graph, overlap angles, face names, edge-point names).
    """
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
            # corner between edges i and i+1: the face whose walk enters
            # v along edge i (equivalently contains the dart (v, i+1))
            fi = fidx[(v, (i + 1) % k)]
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
    darts_of_tag: dict = {}
    for d in g.darts():
        darts_of_tag.setdefault(g.dart_tag(d), []).append(d)
    for e in g.edges:
        du, dw = darts_of_tag[e]
        rot[xname[e]] = [
            ("vx", du[0], e),
            ("fx", fidx[du], e),
            ("vx", dw[0], e),
            ("fx", fidx[dw], e),
        ]
    kite = PlanarGraph(rot)
    kite.check_planar()
    if any(len(f) != 3 for f in kite.faces()):
        raise GraphError("flag subdivision is not a triangulation")
    return kite, overlap, fname, xname


def primal_dual_pack(
    g: PlanarGraph,
    tol: float = 1e-10,
    max_iter: int = 1000000,
) -> PrimalDualPacking:
    """Simultaneous orthogonal circle packing of a polyhedral graph and its dual.

    The flag-kite subdivision is packed with overlap angles (pi/2 on
    vertex-face sides, tangency on the point-circle legs).  Edge-point
    circles are pinned at radius zero: their angle sum is identically
    2*pi (four right angles) and their centers are exactly the points
    where an edge's four circles meet.

    The boundary is a "hub" triple: the three vertex circles of the
    first triangular face, or dually the three face circles around the
    first degree-3 vertex; one of the two always exists in a
    3-connected planar graph.  The triple is pinned
    at radius 1, every other circle closes up at 2*pi -- including the
    hub itself, whose circle is laid out last by trilateration from its
    already-placed neighbors.
    """
    kite, overlap, fname, xname = kite_triangulation(g)
    faces = g.faces()
    fidx = g.face_of()
    hub, triple = None, None
    for i, walk in enumerate(faces):
        if len(walk) == 3:
            hub, triple = fname[i], g.face_vertices(i)
            break
    else:
        for v in g.vertices:
            if g.degree(v) == 3:
                hub = v
                triple = [fname[fidx[(v, s)]] for s in range(3)]
                break
    if hub is None:
        raise GraphError("no triangular face and no degree-3 vertex")
    boundary = {xname[t]: 0.0 for t in g.edges}
    for b in triple:
        boundary[b] = 1.0
    radii = pack_triangulation(kite, boundary, tol=tol, max_iter=max_iter, overlap=overlap)

    # lay out the kite complex punctured at the hub (its star of flag
    # triangles covers the same region as the rest of the complex, so
    # the full sphere triangulation cannot be laid out flat directly)
    sub = kite.subgraph([v for v in kite.vertices if v != hub])
    hub_nbrs = set(kite.neighbors(hub))
    sub_faces = sub.faces()
    ring = [
        i
        for i, f in enumerate(sub_faces)
        if len(f) == len(hub_nbrs) and {d[0] for d in f} == hub_nbrs
    ]
    if len(ring) != 1:
        raise PackingError("ambiguous boundary ring after removing the hub")
    packing = layout_centers(sub, {v: radii[v] for v in sub.vertices}, ring[0], overlap=overlap)

    length = _side_length(kite, overlap)
    hub_center = _trilaterate(
        [
            (packing.centers[u], length(radii, hub, u))
            for u in kite.neighbors(hub)
        ]
    )
    centers = dict(packing.centers)
    centers[hub] = hub_center
    circles = dict(packing.circles)
    circles[hub] = Circle(hub_center, radii[hub])
    vertex_circles = {v: circles[v] for v in g.vertices}
    face_circles = {fname[i]: circles[fname[i]] for i in fname}
    crossing = {t: centers[xname[t]] for t in g.edges}
    full = CirclePacking(
        circles=circles, tangency=dict(packing.tangency), outer_face=-1, centers=centers
    )
    return PrimalDualPacking(
        vertex_circles=vertex_circles,
        face_circles=face_circles,
        crossing=crossing,
        kite=kite,
        kite_packing=full,
        hub=hub,
    )


def _trilaterate(constraints: list[tuple[complex, float]]) -> complex:
    """The point at given distances from given points (least ambiguity wins).

    Uses the first two constraints to get the two circle-intersection
    candidates and the remaining ones to pick between them.
    """
    (p1, d1), (p2, d2) = constraints[0], constraints[1]
    d = abs(p2 - p1)
    if d == 0:
        raise PackingError("degenerate trilateration base")
    a = (d * d + d1 * d1 - d2 * d2) / (2 * d)
    h2 = d1 * d1 - a * a
    h = math.sqrt(max(0.0, h2))
    u = (p2 - p1) / d
    base = p1 + a * u
    cands = [base + 1j * h * u, base - 1j * h * u]

    def err(c: complex) -> float:
        return max(abs(abs(c - p) - dist) for p, dist in constraints)

    return min(cands, key=err)
