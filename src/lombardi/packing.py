"""Circle packings of planar triangulations.

Radii solve the angle-sum system: at every interior vertex the angles
of its triangles of centers sum to 2*pi, where a side joining circles
r, s with overlap angle phi has length sqrt(r^2 + s^2 + 2 r s cos phi)
(tangency is phi = 0; the primal-dual packing crosses vertex and face
circles at pi/2 and pins point circles at radius 0).  In log-radii the
system is the gradient of a convex functional (Colin de Verdière 1991
for tangencies, Bobenko-Springborn 2004 for overlap angles), so its
Jacobian is minus a weighted Laplacian and damped Newton converges
quadratically.  Each step solves its Laplacian exactly, eliminating
every unknown in minimum-degree order (star-mesh reduction), unless that
costs more than ``_FILL_RATIO`` mesh updates per side of the system;
then Jacobi-preconditioned conjugate gradients solve it whole (the duals
of Goldberg polyhedra).

Two kinds of triangle occur, each with angles in closed form
(``corner_angle``), which Newton evaluates inline and the layout once
per placed circle: three mutually tangent circles (the dual packing of
a cubic graph), by the incircle through their tangency points, and a
corner pinned at radius 0 opposite a side crossing at pi/2 (a flag kite
of the primal-dual packing, whose 6E edges ``kite_triangulation`` tags
by integers).  Any other triangle raises PackingError.

Every packing stops on one rule: success once the largest angle-sum
defect is at most ``_DEFECT_TOL``, and PackingError when a step cannot
lower the residual ("stalled") or after ``_MAX_NEWTON_STEPS`` steps
("did not converge").

Centers are then laid out in one linear pass from a seed edge on the
x-axis: a FIFO queue of the darts of placed edges enters each triangle
once and places its third circle (Collins and Stephenson 2003).
"""

from __future__ import annotations

import cmath
import heapq
import math
import operator
from collections import deque
from .geometry import Circle, Record
from .graph import GraphError, PlanarGraph

# largest angle-sum defect a packing may leave, in radians.  A defect d
# left in the radii returns as layout mismatch (side error over the
# smaller circle) of up to about 3,400 d, which the gate's residual
# tracks to within 1.3x: with 1e-10, medial 540 stopped at d = 5e-11,
# mismatch 1.7e-7, residual 1.8e-7.  A step from d lands at up to ~2 d^2,
# anywhere below the bound: with 1e-12, trunc180's exact step from 3.4e-7
# stopped at 2.3e-13, residual 2.2e-11 (1.1e-12 a step later).  At 1e-13
# only steps from about 3e-8 to 2.5e-7 stop above rounding's 2e-15: of the
# fixtures and benchmark inputs, the truncated icosahedron's flag kites
# (from 2.5e-7 to 9.9e-14, residual 6.1e-12); the rest end at d ≤ 2.4e-15,
# and rounding sets the residual
_DEFECT_TOL = 1e-13
# far above the 4-10 steps the packings of the fixtures and scaled inputs
# take, and above the 24 steps in which a packing with no solution (the
# primal-dual packing of g18, which is not 3-connected) meets the defect
# bound by shrinking circles to radius 3e-35, too small to lay out
_MAX_NEWTON_STEPS = 100
# mesh updates per side of the system that an exact solve may make.  Per
# Newton step the elimination makes one multiply-add per update and CG
# about two per side per iteration, so the exact solve wins while the
# ratio is small against CG's iteration count: its linear algebra took
# 0.78x CG's on the truncated icosahedron's dual (ratio 6.3), 0.88x on
# goldberg(1)'s (8.9) and 1.18x on goldberg(2)'s (38).  The crossover lies
# between; 8 stays below it because an attempt that runs over budget is
# lost work, up to 8 updates per side (about 3 % of a 1,280-vertex
# Goldberg draw).  Every fixture and benchmark packing needs at most 6.3
_FILL_RATIO = 8


class PackingError(RuntimeError):
    """The radii failed to converge or the layout is inconsistent."""


class CirclePacking(Record):
    """A laid-out packing: one circle per triangulation vertex.

    ``tangency`` holds, for every edge of a tangent packing
    (pack_and_layout), the point where its two circles touch.
    """

    __slots__ = _fields = ("circles", "tangency", "centers")

    def __init__(self, circles: dict[str, Circle], tangency: dict | None = None, centers: dict | None = None):
        self.circles, self.tangency = circles, {} if tangency is None else tangency
        self.centers = {} if centers is None else centers


class PrimalDualPacking(Record):
    """Orthogonal primal-dual circle representation of a polyhedral graph."""

    __slots__ = _fields = ("vertex_circles", "face_circles", "crossing", "hub")

    def __init__(self, vertex_circles: dict[str, Circle], face_circles: dict[str, Circle], crossing: dict,
                 hub: str = ""):
        self.vertex_circles, self.face_circles = vertex_circles, face_circles
        self.crossing = crossing  # primal edge tag -> the common crossing/tangency point
        # the puncture circle of the flat layout (a vertex or face name);
        # its disk is the exterior of the drawn circle
        self.hub = hub


def edge_length(r1: float, r2: float, cos_overlap: float) -> float:
    return math.sqrt(r1 * r1 + r2 * r2 + 2 * r1 * r2 * cos_overlap)


def pack_triangulation(
    g: PlanarGraph, boundary: dict[str, float], overlap: dict | None = None
) -> dict[str, float]:
    """Radii closing every interior angle sum at 2*pi, to a defect ≤ _DEFECT_TOL.

    ``boundary`` vertices keep their given radii (zero for point
    circles); the others are found by at most ``_MAX_NEWTON_STEPS``
    damped Newton steps in log-radii, each backtracking on the residual
    norm.
    """
    ov = overlap or {}
    names = [v for v in g.vertices if v not in boundary]
    n = len(names)  # the unknowns come first; in ``pairs``, n is any pinned vertex
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

    # per tangent triangle in faces() order: its vertices and the slots
    # of its sides ab, bc, ca in ``pairs``; a right kite -- a corner
    # pinned at radius 0 whose opposite side crosses at pi/2 -- is
    # instead counted on that side in ``kites``
    tris = []
    kites: dict[tuple[int, int], int] = {}  # side (a, b), a < b -> its right kites
    tangent = not ov and 0.0 not in boundary.values()  # no overlap, no point circle
    for walk in g.faces():
        vs = [index[d[0]] for d in walk]
        if min(vs) >= n:
            continue
        if len(walk) != 3:
            raise PackingError("packing requires a triangulation around every interior vertex")
        for k in range(0 if tangent else 3):
            if boundary.get(walk[k][0]) == 0.0 and ov.get(g.dart_tag(walk[k - 2])) == math.pi / 2:
                a, b = vs[k - 2], vs[k - 1]
                ab = (a, b) if a < b else (b, a)
                kites[ab] = kites.get(ab, 0) + 1
                break
        else:
            if not tangent and any(ov.get(g.dart_tag(d), 0.0) or boundary.get(d[0]) == 0.0 for d in walk):
                raise PackingError("packing solves only tangent triangles and right kites")
            tris.append((vs, [side(vs[k], vs[(k + 1) % 3]) for k in range(3)]))
    kite_sides = [(a, b, m, side(a, b)) for (a, b), m in kites.items()]
    system = (tris, kite_sides, n, len(pairs))
    order = _elimination(pairs, n)
    radii = [boundary.get(v, 1.0) for v in names]
    theta, weight = _angle_system(radii, *system)
    norm = sum(x * x for x in theta)
    step = 0
    while True:
        worst = max(map(abs, theta), default=0.0)
        if worst <= _DEFECT_TOL:
            return {v: radii[index[v]] for v in g.vertices}
        if step >= _MAX_NEWTON_STEPS:
            raise PackingError(
                f"packing did not converge within {step} Newton steps (defect {worst:.3e})"
            )
        step += 1
        # CG solves no finer than the stop needs: the floor binds on its
        # last step alone, which lands the defect near 0.01 * _DEFECT_TOL.
        # An exact solve ignores rtol; its step from d lands at about 2 d^2
        # (see _DEFECT_TOL)
        rtol = min(0.1, max(math.sqrt(norm), 0.01 * _DEFECT_TOL / worst))
        d = _solve_laplacian(pairs, order, weight, theta, rtol=rtol)
        t = 1.0
        for _ in range(60):
            try:  # a step may overflow a radius or flatten a triangle
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
    """Angle-sum defects of the n unknowns and the Jacobian's side weights.

    The Jacobian of the angle sums in log-radii is minus a weighted
    Laplacian: in each triangle, d(angle at a)/d(log r_b) = d(angle at
    b)/d(log r_a) = w_ab ≥ 0, and the angles do not change when all three
    radii are scaled together.

    A triangle of three tangent circles has the angle 2 atan(rho / r_a)
    at a (corner_angle), and w_ab = rho / (r_a + r_b), rho being its
    incircle radius.  ``kites`` lists (a, b, m, slot): m right kites on
    side ab, each with the angle atan2(r_b, r_a) at a (corner_angle) and
    the weight r_a r_b / (r_a^2 + r_b^2) on ab (Bobenko-Springborn 2004).
    """
    theta = [-2 * math.pi] * len(radii)
    weight = [0.0] * n_pairs
    for a, b, m, s in kites:
        ra, rb = radii[a], radii[b]
        theta[a] += m * math.atan2(rb, ra)
        theta[b] += m * math.atan2(ra, rb)
        weight[s] += m * (ra * rb / (ra * ra + rb * rb))
    for (a, b, c), (sab, sbc, sca) in tris:
        ra, rb, rc = radii[a], radii[b], radii[c]
        rho = math.sqrt(ra * rb * rc / (ra + rb + rc))
        theta[a] += 2 * math.atan(rho / ra)
        theta[b] += 2 * math.atan(rho / rb)
        theta[c] += 2 * math.atan(rho / rc)
        weight[sab] += rho / (ra + rb)
        weight[sbc] += rho / (rb + rc)
        weight[sca] += rho / (rc + ra)
    return theta[:n], weight


def corner_angle(r_a: float, r_b: float, r_c: float) -> float:
    """Angle at a of the triangle of centers of circles a, b, c.

    Three tangent circles: 2 atan(rho / r_a), rho = sqrt(r_a r_b r_c /
    (r_a + r_b + r_c)) being the radius of the incircle through their
    tangency points (Collins and Stephenson 2003).  A right kite, one of
    whose circles is a point (radius 0) tangent to the other two, which
    cross at pi/2: the triangle is right-angled at the point, with legs
    the other two radii, so the angle is atan2(r_b + r_c, r_a), pi/2 at
    the point itself.
    """
    if r_a and r_b and r_c:
        return 2 * math.atan(math.sqrt(r_a * r_b * r_c / (r_a + r_b + r_c)) / r_a)
    return math.atan2(r_b + r_c, r_a)


def _elimination(pairs, n):
    """Star-mesh elimination order for the Laplacian on the sides ``pairs``.

    Eliminating an unknown joins its live neighbours (the pinned index n
    counts as one and stays) pairwise by mesh sides (Kron reduction,
    Dörfler and Bullo 2013).  Every unknown goes, in minimum-degree order;
    None as soon as that takes more than _FILL_RATIO mesh updates per side
    of the system, and conjugate gradients then solve it whole.  Else
    (each pair's side, the number of sides, the steps (v, its neighbours,
    their sides, its mesh updates as flat triples side, i, j, joining its
    i-th and j-th neighbours)).  Heap keys and mesh updates are ints, not
    tuples, which the garbage collector does not track: as tuples, the
    attempt that runs over budget on a 1,280-vertex Goldberg graph's dual
    set off collections that made its draw 5 % slower.
    """
    nbr, ends, slot = [{} for _ in range(n + 1)], [], []  # nbr[v]: {neighbour: side}
    for i, j in pairs:
        s = nbr[i].get(j)
        if s is None:
            s = nbr[i][j] = nbr[j][i] = len(ends)
            ends.append((i, j))
        slot.append(s)
    budget = _FILL_RATIO * len(ends)
    queue = [len(nbr[v]) * (n + 1) + v for v in range(n)]  # keyed degree * (n + 1) + v
    heapq.heapify(queue)
    steps = []
    while queue:
        degree, v = divmod(heapq.heappop(queue), n + 1)
        if nbr[v] is None or len(nbr[v]) != degree:
            continue  # eliminated, or queued again at its new degree
        star, nbr[v] = nbr[v], None
        live = sorted(star)
        k = len(live)
        budget -= k * (k - 1) // 2
        if budget < 0:
            return None
        mesh = []
        for i, a in enumerate(live):
            na = nbr[a]
            del na[v]
            for j in range(i + 1, k):
                c = live[j]
                s = na.get(c)
                if s is None:
                    s = na[c] = nbr[c][a] = len(ends)
                    ends.append((a, c))
                mesh += s, i, j
        steps.append((v, live, [star[a] for a in live], mesh))
        for a in live:
            if a < n:
                heapq.heappush(queue, len(nbr[a]) * (n + 1) + a)
    return slot, len(ends), steps


def _solve_laplacian(pairs, order, weight, b, rtol):
    """Solve L x = b: exactly by ``order`` (_elimination), by CG when it is None.

    L is the Laplacian with weight ``weight[k]`` on the side ``pairs[k]``,
    restricted to the unknowns; index len(b) is a pinned vertex, held at 0.
    With no order, Jacobi-preconditioned CG solves to relative residual
    rtol.  Else each step v of ``order`` adds w_va w_vb / W_v to side ab
    and w_va b_v / W_v to b_a, W_v being v's weight sum: no term cancels;
    then x_v = (b_v + sum of w_va x_a) / W_v in reverse order, and rtol is
    not used.
    """
    if order is None:
        return _conjugate_gradients([(i, j, w) for (i, j), w in zip(pairs, weight)], b, rtol)
    n = len(b)
    slot, n_sides, steps = order
    w = [0.0] * n_sides
    for s, ws in zip(slot, weight):
        w[s] += ws
    y, stars = list(b) + [0.0], []
    for v, live, star, mesh in steps:
        ws = [w[s] for s in star]
        total = sum(ws)
        for a, wa in zip(live, ws):
            y[a] += wa / total * y[v]
        flat = iter(mesh)
        for s, i, j in zip(flat, flat, flat):
            w[s] += ws[i] * ws[j] / total
        stars.append((ws, total))
    y[n] = 0.0
    for (v, live, _, _), (ws, total) in zip(reversed(steps), reversed(stars)):
        y[v] = (y[v] + sum(map(operator.mul, ws, [y[a] for a in live]))) / total
    return y[:n]


def _conjugate_gradients(sides, b, rtol):
    """x with L x = b to residual rtol |b|, by Jacobi-preconditioned CG.

    L is the Laplacian with weight ws on each side (i, j, ws) of
    ``sides``; index len(b) is the pinned vertex.
    """
    m = len(b)
    diag = [0.0] * (m + 1)
    for i, j, ws in sides:
        diag[i] += ws
        diag[j] += ws
    diag = diag[:m]
    x = [0.0] * (m + 1)
    r = list(b) + [0.0]
    p = z = [ri / di for ri, di in zip(r, diag)] + [0.0]
    rz = sum(map(operator.mul, r, z))
    stop = rtol * rtol * sum(map(operator.mul, b, b))
    for _ in range(2 * m + 10):
        if sum(map(operator.mul, r, r)) <= stop:
            break
        q = [0.0] * (m + 1)
        for i, j, ws in sides:
            f = ws * (p[i] - p[j])
            q[i] += f
            q[j] -= f
        q[m] = 0.0
        alpha = rz / sum(map(operator.mul, p, q))
        x = [xi + alpha * pi for xi, pi in zip(x, p)]
        r = [ri - alpha * qi for ri, qi in zip(r, q)]
        z = [ri / di for ri, di in zip(r, diag)] + [0.0]
        rz, rz_old = sum(map(operator.mul, r, z)), rz
        p = [zi + rz / rz_old * pi for zi, pi in zip(z, p)]
    return x[:m]


def layout_centers(
    g: PlanarGraph, radii: dict[str, float], skip: set[int], overlap: dict | None = None
) -> CirclePacking:
    """Place the circle centers of the faces outside ``skip`` in one queue pass.

    Every laid face must be a triangle.  The seed is the first dart, in
    ``g.darts()`` order, of a skipped face whose ends both lie on laid
    faces: its circles go on the x-axis at their prescribed distance,
    the first centered at (-r, 0).  A FIFO queue holds the darts of
    placed edges; a dart ab of a laid face (a, b, c) with c unplaced
    puts c at its distance from a, turned from ab by the face's angle at
    a (corner_angle), and the darts of c's edges to placed circles
    join the queue, so every circle is placed once (Collins and
    Stephenson, A circle packing algorithm, 2003).  A vertex on no laid
    face is not placed.
    """
    ov = overlap or {}
    ends = [g.endpoints(t) for t in g.edges]
    cos_of = {phi: math.cos(phi) for phi in {0.0, *ov.values()}}
    cos: dict[tuple[str, str], float] = {}
    for t, (u, w) in zip(g.edges, ends):
        cos[(u, w)] = cos[(w, u)] = cos_of[ov.get(t, 0.0)]

    def length(u, w):  # the side of the triangle of centers along edge uw
        return edge_length(radii[u], radii[w], cos[(u, w)])

    faces = g.faces()
    third: dict[tuple[str, str], str] = {}  # dart ab of a laid face (a, b, c) -> c
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
        if not dab:  # radii too far apart for one scale of floats
            raise PackingError("layout failed: coincident centers")
        alpha = corner_angle(radii[a], radii[b], radii[c])
        pos[c] = pos[a] + length(a, c) * dab / abs(dab) * cmath.exp(1j * alpha)
        for w in g.neighbors(c):
            if w in pos:
                queue += ((c, w), (w, c))
    if len(pos) < len(laid):
        raise PackingError("layout failed: inconsistent edge lengths")
    # relative to the largest laid circle, so only a layout that did not
    # close trips it: the largest mismatch is 3.5e-13 of that circle on the
    # fixtures (the truncated icosahedron's flag kites) and 1.4e-12 on CI's
    # scale inputs (subcubic at 14,580 vertices, 6.4e-9 of its smaller circle)
    bound = 1e-6 * max(radii[v] for v in laid)
    for x, y in ends:
        if x in pos and y in pos and abs(abs(pos[x] - pos[y]) - length(x, y)) > bound:
            raise PackingError("layout failed: inconsistent edge lengths")

    circles = {v: Circle(pos[v], radii[v]) for v in g.vertices if v in pos and radii[v] > 0}
    return CirclePacking(circles=circles, centers=pos)


def pack_and_layout(g: PlanarGraph) -> CirclePacking:
    """Tangent packing of triangulation ``g`` with face 0 as its outer face.

    The three circles of face 0 are pinned at radius 1, the others are
    found by pack_triangulation, and layout_centers places them all.
    """
    walk = g.faces()[0]
    if len(walk) != 3:
        raise GraphError("outer face must be a triangle")
    radii = pack_triangulation(g, {d[0]: 1.0 for d in walk})
    packing = layout_centers(g, radii, {0})
    pos = packing.centers
    for t in g.edges:
        x, y = g.endpoints(t)
        packing.tangency[t] = pos[x] + radii[x] * (pos[y] - pos[x]) / abs(pos[y] - pos[x])
    return packing


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

    Kite edges are tagged by integers, three per dart d = (v, i) of g,
    the j-th in ``g.darts()`` order: 3j joins v to the point of d's edge,
    3j + 1 joins the face of d to that point, and 3j + 2 joins v to the
    face of d (the corner before d at v), crossing at pi/2.

    Returns (kite graph, overlap angles, face names, edge-point names).
    """
    g.check_planar()  # the flag subdivision of a sphere embedding is one too
    fname = {i: f"f{i}" for i in range(len(g.faces()))}
    xname = {t: f"x{k}" for k, t in enumerate(g.edges)}
    first, j = {}, 0  # v -> 3 * (the index of the dart (v, 0))
    for v in g.vertices:
        first[v], j = j, j + 3 * g.degree(v)
    overlap = {t: math.pi / 2 if t % 3 == 2 else 0.0 for t in range(j)}
    rot: dict[str, list] = {}
    for v in g.vertices:
        k, b = g.degree(v), first[v]
        # edge i, then the corner between edges i and i + 1
        rot[v] = [t for i in range(k) for t in (b + 3 * i, b + 3 * ((i + 1) % k) + 2)]
    for i, walk in enumerate(g.faces()):
        if len({v for v, _ in walk}) < len(walk):  # v would meet the face at two corners
            raise GraphError(f"face {i} passes a vertex twice: no flag subdivision")
        rot[fname[i]] = [t for v, s in reversed(walk) for t in (first[v] + 3 * s + 1, first[v] + 3 * s + 2)]
    for e in g.edges:
        (u, s), (w, r) = g.darts_of(e)
        rot[xname[e]] = [first[u] + 3 * s, first[u] + 3 * s + 1, first[w] + 3 * r, first[w] + 3 * r + 1]
    kite = PlanarGraph(rot)
    if any(len(f) != 3 for f in kite.faces()):
        raise GraphError("flag subdivision is not a triangulation")
    return kite, overlap, fname, xname


def primal_dual_pack(g: PlanarGraph) -> PrimalDualPacking:
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
    hub itself.  The hub's star of flag triangles covers the same region
    as the rest of the complex, so the kite is laid out by
    layout_centers with the star's faces skipped, from the first ring
    edge in dart order; the hub then goes at its distance from x in a
    star face (x, y, hub), turned from xy by the face's angle at x, but
    to the side of the laid faces.
    """
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
    packing = layout_centers(kite, radii, star, overlap=overlap)
    walk = kite.faces()[min(star)]
    k = [d[0] for d in walk].index(hub)
    x, y = walk[k - 2][0], walk[k - 1][0]  # the star's face (x, y, hub)
    xy = packing.centers[y] - packing.centers[x]
    side = edge_length(radii[x], radii[hub], math.cos(overlap[kite.dart_tag(walk[k])]))
    turn = cmath.exp(-1j * corner_angle(radii[x], radii[y], radii[hub]))
    circles = packing.circles | {hub: Circle(packing.centers[x] + side * xy / abs(xy) * turn, radii[hub])}
    return PrimalDualPacking(
        vertex_circles={v: circles[v] for v in g.vertices},
        face_circles={fname[i]: circles[fname[i]] for i in fname},
        crossing={t: packing.centers[xname[t]] for t in g.edges},
        hub=hub,
    )
