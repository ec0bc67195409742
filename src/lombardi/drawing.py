"""Assembly and verification of planar Lombardi drawings.

A Lombardi drawing places vertices at points and draws every edge as a
circular arc (straight segments are arcs of Line supports) so that the
arc-ends around each vertex are equally spaced at 2*pi/deg.  This
module builds such drawings for 3-connected cubic planar graphs from a
circle packing of the dual, extends them to arbitrary subcubic planar
graphs by gluing along the nested SPQR decomposition (each S node's
sides drawn whole before it glues them) and along bridges, and draws
medial graphs of polyhedral graphs from a primal-dual circle packing.
``draw_subcubic`` and ``draw_medial`` verify the drawing they return,
once, at their ``angle_tol``, and keep that report on it as
``report``.  That is the only verification of a draw: every
construction step (packing read-off, SPQR and bridge gluing, stubs,
subdivision) builds its result once, without retries, and returns it
unverified.  A geometric ``ValueError`` inside a draw is re-raised as
``DrawingError``.  ``verify`` finds crossing candidates by a
sort-and-sweep over padded arc bounding boxes, so a verification costs
about E log E for E arcs rather than E^2 pair tests.

Edge tags belong to the caller: a drawing of ``g`` carries exactly
``g``'s tags, whatever hashable values they are, and ``draw_subcubic``
builds no tag of its own.  Each chain of degree-2 vertices, each cycle
and each stub takes its tags from the darts that ``graph`` walks: from
``suppress_degree_two``'s chains, from a face walk of the cycle, and
from the bridges.  Stub leaves, the only vertices a construction step
invents, are named in ``_add_stubs`` alone, and ``glue_bridge`` removes
them again.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

from .geometry import (
    Arc,
    Circle,
    Line,
    Mobius,
    Triangle,
    arc_intersections,
    arc_through,
    inversion,
    is_finite,
    is_inf,
    isodynamic_points,
    lune_bisector,
    mobius_from_triples,
    mobius_scale_translate,
    near,
    same_support,
    segment,
)
from .graph import GraphError, PlanarGraph, SpqrNode, is_three_connected, is_virtual, spqr
from .mobius_opt import (
    NormalizedPacking,
    apply_to_normalized,
    normalize_outer,
    optimize_min_radius,
)
from .packing import CirclePacking, pack_and_layout, primal_dual_pack

_TWO_PI = 2.0 * math.pi


class DrawingError(RuntimeError):
    """A drawing operation failed or its result did not verify."""


# ---------------------------------------------------------------------------
# Drawing container and verification


@dataclass
class LombardiDrawing:
    """A set of vertex positions and one circular arc per edge.

    ``edges`` maps each edge tag to its (u, w) endpoint names; the arc
    stored under the same tag runs between those vertices' positions
    (in either orientation).  ``outer_face`` is an optional face index
    of the source graph's embedding.  ``report`` is the verification
    report of the gate that passed the drawing (``draw_subcubic``,
    ``draw_medial``), None if it was not gated; it is not serialized.
    """

    positions: dict[str, complex]
    arcs: dict = field(default_factory=dict)
    edges: dict = field(default_factory=dict)
    outer_face: int | None = None
    report: VerificationReport | None = field(default=None, compare=False, repr=False)

    def degree(self, v: str) -> int:
        return sum(1 for u, w in self.edges.values() for x in (u, w) if x == v)

    def incident(self, v: str) -> list:
        return [t for t, (u, w) in self.edges.items() if v in (u, w)]


@dataclass
class VerificationReport:
    max_angle_residual: float = 0.0
    worst_angle_vertex: object = None
    max_endpoint_error: float = 0.0
    crossings: list = field(default_factory=list)
    coincident: list = field(default_factory=list)
    endpoint_ok: bool = True
    angles_ok: bool = True
    noncrossing_ok: bool = True
    distinct_ok: bool = True

    @property
    def passed(self) -> bool:
        return self.endpoint_ok and self.angles_ok and self.noncrossing_ok and self.distinct_ok

    def summary(self) -> str:
        return (
            f"angle residual {self.max_angle_residual:.3e} ({'ok' if self.angles_ok else 'FAIL'}); "
            f"endpoint error {self.max_endpoint_error:.3e} ({'ok' if self.endpoint_ok else 'FAIL'}); "
            f"{len(self.crossings)} crossing pair(s) ({'ok' if self.noncrossing_ok else 'FAIL'}); "
            f"{len(self.coincident)} coincident vertex pair(s) ({'ok' if self.distinct_ok else 'FAIL'})"
        )


def _interval_of(arc: Arc) -> tuple[float, float]:
    """The ccw angular interval [a, b] covered by a circle arc."""
    tp, sweep, ccw = arc._sweep()
    return (tp, tp + sweep) if ccw else (tp - sweep, tp)


def _circular_overlap(i1: tuple[float, float], i2: tuple[float, float]) -> float:
    """Total overlap length of two angular intervals on the circle."""
    a1, b1 = i1
    a1 %= _TWO_PI
    b1 = a1 + (i1[1] - i1[0])
    a2, b2 = i2
    a2 %= _TWO_PI
    b2 = a2 + (i2[1] - i2[0])
    total = 0.0
    for shift in (-_TWO_PI, 0.0, _TWO_PI):
        lo = max(a1, a2 + shift)
        hi = min(b1, b2 + shift)
        total += max(0.0, hi - lo)
    return total


def _line_coord_interval(arc: Arc, frame: Line | None = None) -> tuple[float, float] | None:
    """Parametric interval of a finite segment-like line arc, else None.

    Coordinates are measured in the ``frame`` line's parametrization
    (defaulting to the arc's own support) so two arcs on the same line
    can be compared even when their supports have opposite directions.
    """
    line: Line = frame if frame is not None else arc.support  # type: ignore[assignment]
    if is_inf(arc.p) or is_inf(arc.q):
        return None
    d = line.direction
    f = line.foot()
    t1 = (d.conjugate() * (arc.p - f)).real
    t2 = (d.conjugate() * (arc.q - f)).real
    lo, hi = min(t1, t2), max(t1, t2)
    if not is_inf(arc.witness):
        tw = (d.conjugate() * (arc.witness - f)).real
        if not (lo - 1e-12 <= tw <= hi + 1e-12):
            return None  # complement (two-ray) arc: unbounded
    return lo, hi


def _support_noise(a1: Arc, a2: Arc) -> float:
    """Absolute rounding noise of positions computed on the arcs' supports.

    Coordinates on a huge-radius support carry noise of order radius *
    machine epsilon; both crossing tests widen their tolerance to it.
    """
    return max(
        (a.support.radius * 1e-14 for a in (a1, a2) if isinstance(a.support, Circle)),
        default=0.0,
    )


def _arcs_overlap_on_support(a1: Arc, a2: Arc, tol_len: float) -> bool:
    """Whether two arcs on the same support share more than endpoints."""
    if isinstance(a1.support, Circle):
        r = a1.support.radius
        ov = _circular_overlap(_interval_of(a1), _interval_of(a2))
        return ov * r > max(tol_len, _support_noise(a1, a2))
    i1 = _line_coord_interval(a1)
    i2 = _line_coord_interval(a2, frame=a1.support)
    if i1 is None or i2 is None:
        return True  # unbounded overlap candidates: treat as crossing
    lo = max(i1[0], i2[0])
    hi = min(i1[1], i2[1])
    return hi - lo > tol_len


def _finite_arc(a: Arc) -> bool:
    s = a.support
    nums = (s.center, s.radius) if isinstance(s, Circle) else (s.normal, s.offset)
    return is_finite(a.p, a.q, a.witness, *nums)


def _arc_box(a: Arc, tol: float) -> tuple[float, float, float, float] | None:
    """Padded box (x0, x1, y0, y1) of the arc, or None when it is unbounded.

    The box is the arc's endpoints plus the axis extremes of its support
    on the arc, padded to hold every point the crossing test of
    ``verify`` can place on it: every x with ``a.contains(x, tol)``, and
    every point where another arc on a ``same_support`` overlaps it.  On
    a circle of radius r, ``Arc.contains`` widens the radius by
    tol*max(r, 1) and the arc by at most tol of length, ``same_support``
    lets centres and radii differ by 1e-9*r, and positions on the support
    carry rounding noise of about 1e-14*(|centre| + r).  On a line,
    ``Arc.contains`` widens the distance and the coordinate each by
    tol*max(1, |p|, |q|, |w|, |x|), which grows with absolute position,
    not with the drawing; x then stays within 5*tol*size of the segment
    (size bounds |p|, |q|, |w| and the support's distance from them), and
    ``same_support``'s 1e-9 on the normal and offset moves a projection
    by less than 3e-9*size.  Rays, two-ray line arcs (also a segment
    whose witness is not clearly inside it), non-finite arcs and lines at
    tol >= 0.2, where x is not bounded, give None.
    """
    if not _finite_arc(a):
        return None
    s = a.support
    zs = [a.p, a.q]
    if isinstance(s, Circle):
        c, r = s.center, s.radius
        zs += [s.point_at(theta) for theta in _interval_of(a)] + a.axis_extremes()
        pad = tol * max(r, 1.0) + tol + 2e-9 * r + 1e-14 * (abs(c) + r)
    else:
        if tol >= 0.2:
            return None
        d, f = s.direction, s.foot()
        t1, t2 = sorted((d.conjugate() * (z - f)).real for z in (a.p, a.q))
        tw = (d.conjugate() * (a.witness - f)).real
        size = max(1.0, abs(a.p), abs(a.q), abs(a.witness))
        size += max(abs(s.signed_distance(a.p)), abs(s.signed_distance(a.q)))
        # the other arc's frame moves the witness against the ends by at
        # most 1e-9 * |w - end|, and must not make this a two-ray arc
        if min(tw - t1, t2 - tw) <= 2e-9 * (abs(a.witness - a.p) + abs(a.witness - a.q)) + 1e-12 * size:
            return None
        zs += [f + d * t1, f + d * t2]
        pad = (5 * tol + 3e-9 + 1e-14) * size
    xs = [z.real for z in zs]
    ys = [z.imag for z in zs]
    box = (min(xs) - pad, max(xs) + pad, min(ys) - pad, max(ys) + pad)
    return box if is_finite(*box) else None


def _crossing_candidates(boxes: list) -> list[tuple[int, int]]:
    """Index pairs (i < j), sorted, whose boxes overlap or either is None.

    Sort-and-sweep: boxes sorted by left edge; each box is compared with
    the boxes that start before its right edge.  A None box (unbounded
    arc) is paired with every other index.
    """
    n = len(boxes)
    order = sorted((i for i in range(n) if boxes[i] is not None), key=lambda i: boxes[i][0])
    pairs = set()
    for k, i in enumerate(order):
        _, x1, y0, y1 = boxes[i]
        for m in range(k + 1, len(order)):
            j = order[m]
            bx0, _, by0, by1 = boxes[j]
            if bx0 > x1:
                break
            if by0 <= y1 and y0 <= by1:
                pairs.add((i, j) if i < j else (j, i))
    for i in range(n):
        if boxes[i] is None:
            pairs.update((min(i, j), max(i, j)) for j in range(n) if j != i)
    return sorted(pairs)


def _arcs_cross(d: LombardiDrawing, t1, t2, match_tol: float, tol_pt: float) -> bool:
    """Whether two arcs of the drawing meet anywhere but at shared endpoints."""
    a1, a2 = d.arcs[t1], d.arcs[t2]
    if same_support(a1.support, a2.support, 1e-9):
        return _arcs_overlap_on_support(a1, a2, match_tol)
    shared_pts = [d.positions[v] for v in set(d.edges[t1]) & set(d.edges[t2])]
    exclude = max(match_tol, _support_noise(a1, a2))
    for x in arc_intersections(a1, a2, tol=tol_pt):
        if is_inf(x):
            continue
        if any(abs(x - s) <= exclude for s in shared_pts):
            continue
        return True
    return False


def verify(
    d: LombardiDrawing,
    g: PlanarGraph | None = None,
    tol_angle: float = 1e-6,
    tol_geom: float = 1e-9,
) -> VerificationReport:
    """Check the Lombardi drawing invariants and report residuals.

    Criteria: (a) every arc's endpoints coincide with its vertices'
    positions, and every position and arc is finite; (b) at every vertex
    the sorted tangent directions of the incident arc-ends are equally
    spaced at 2*pi/deg; (c) no two arcs intersect except at shared
    endpoints; (d) vertex positions are pairwise distinct.  When ``g`` is
    given, the drawing's vertex set, edge set and each edge's endpoints
    must match it (DrawingError otherwise).

    (c) tests only the pairs of arcs whose padded bounding boxes overlap,
    found by a sort-and-sweep (``_arc_box``); an unbounded arc (a ray or
    a two-ray line arc) or a non-finite one is tested against every arc.
    The pad covers every slack of the pair test, so the crossings are
    those of testing all pairs, in the same order.  (d) likewise compares
    only positions within the point tolerance of each other in x and in
    y; that tolerance is ``tol_geom`` times the extent of the finite
    positions.  With K candidate pairs the cost is O(E log E + K log K)
    plus one box test per pair of arcs whose x-extents overlap, instead
    of E^2/2 pair tests.
    """
    rep = VerificationReport()
    if set(d.arcs) != set(d.edges):
        raise DrawingError("drawing arcs and edge endpoints disagree")
    if g is not None:
        if set(g.vertices) != set(d.positions):
            raise DrawingError("drawing and graph have different vertex sets")
        if set(g.edges) != set(d.arcs):
            raise DrawingError("drawing and graph have different edge sets")
        for t in g.edges:
            if set(d.edges[t]) != set(g.endpoints(t)):
                raise DrawingError(f"edge {t!r} joins different vertices in drawing and graph")

    pos = d.positions
    names = list(pos)
    fin = [i for i, v in enumerate(names) if is_finite(pos[v])]
    scale = 1.0
    if fin:
        z0 = pos[names[fin[0]]]
        scale = max(1.0, max(abs(pos[names[i]] - z0) for i in fin))
    tol_pt = tol_geom * scale
    match_tol = max(1e-6 * scale, 10 * tol_pt)

    # (a) endpoint coincidence
    for t, (u, w) in d.edges.items():
        a = d.arcs[t]
        if not (is_finite(pos[u], pos[w]) and _finite_arc(a)):
            rep.max_endpoint_error = math.inf
            continue
        e1 = min(abs(a.p - pos[u]), abs(a.p - pos[w]))
        e2 = min(abs(a.q - pos[u]), abs(a.q - pos[w]))
        straight = max(abs(a.p - pos[u]) + abs(a.q - pos[w]), e1, e2)
        swapped = max(abs(a.p - pos[w]) + abs(a.q - pos[u]), e1, e2)
        err = min(straight, swapped)
        rep.max_endpoint_error = max(rep.max_endpoint_error, err)
    rep.endpoint_ok = rep.max_endpoint_error <= tol_pt

    # (b) equal angular spacing at each vertex
    incident: dict[str, list] = {v: [] for v in pos}
    for t, (u, w) in d.edges.items():
        incident[u].append(t)
        incident[w].append(t)
    for v, tags in incident.items():
        k = len(tags)
        if k < 2:
            continue
        dirs = []
        try:
            for t in tags:
                dirs.append(cmath.phase(d.arcs[t].tangent_direction(pos[v], tol=match_tol)))
        except ValueError:
            # an arc does not even reach this vertex; that is an angle
            # failure to report, not an internal error
            rep.max_angle_residual = math.inf
            rep.worst_angle_vertex = v
            continue
        dirs.sort()
        want = _TWO_PI / k
        for i in range(k):
            gap = (dirs[(i + 1) % k] - dirs[i]) % _TWO_PI
            if abs(gap - want) > rep.max_angle_residual:
                rep.max_angle_residual = abs(gap - want)
                rep.worst_angle_vertex = v
    rep.angles_ok = rep.max_angle_residual <= tol_angle

    # (c) no two arcs cross except at shared endpoints
    tags = list(d.arcs)
    boxes = [_arc_box(d.arcs[t], tol_pt) for t in tags]
    rep.crossings = [
        (tags[i], tags[j])
        for i, j in _crossing_candidates(boxes)
        if _arcs_cross(d, tags[i], tags[j], match_tol, tol_pt)
    ]
    rep.noncrossing_ok = not rep.crossings

    # (d) distinct vertex positions; a non-finite one is within tol_pt of nothing
    pts = [pos[names[i]] for i in fin]
    near_pairs = _crossing_candidates(
        [(z.real - tol_pt, z.real + tol_pt, z.imag - tol_pt, z.imag + tol_pt) for z in pts]
    )
    rep.coincident = [
        (names[fin[i]], names[fin[j]]) for i, j in near_pairs if abs(pts[i] - pts[j]) <= tol_pt
    ]
    rep.distinct_ok = not rep.coincident
    return rep


def _check(d: LombardiDrawing, g: PlanarGraph, angle_tol: float) -> LombardiDrawing:
    """The gate of a draw: verify ``d`` against ``g``, raise DrawingError
    if it fails, else keep the report on it."""
    rep = verify(d, g, tol_angle=angle_tol)
    if not rep.passed:
        raise DrawingError(f"drawing failed verification: {rep.summary()}")
    d.report = rep
    return d


# ---------------------------------------------------------------------------
# Transforms and small constructions


def transform(d: LombardiDrawing, m: Mobius) -> LombardiDrawing:
    """Apply a Moebius map to every vertex and arc of the drawing."""
    positions = {}
    for v, z in d.positions.items():
        img = m.apply(z)
        if is_inf(img):
            raise DrawingError(f"vertex {v!r} maps to infinity")
        positions[v] = img
    arcs = {t: m.apply_arc(a) for t, a in d.arcs.items()}
    return LombardiDrawing(positions, arcs, dict(d.edges), d.outer_face)


def arc_with_tangent(p: complex, q: complex, t: complex) -> Arc:
    """The arc from p to q leaving p in direction ``t``."""
    w = q - p
    if abs(w) == 0:
        raise DrawingError("arc endpoints coincide")
    t = t / abs(t)
    denom = ((1j * t).conjugate() * w).real
    if abs(denom) <= 1e-12 * abs(w) * abs(w):
        if (t.conjugate() * w).real <= 0:
            raise DrawingError("tangent points away from the endpoint along the chord")
        return segment(p, q)
    u = (w.conjugate() * w).real / (2.0 * denom)
    center = p + 1j * t * u
    r = abs(u)
    c = Circle(center, r)
    mid = (p + q) / 2
    dvec = mid - center
    if abs(dvec) <= 1e-12 * r:
        dvec = 1j * (q - p)
    dvec /= abs(dvec)
    for wit in (center + r * dvec, center - r * dvec):
        a = Arc(c, p, q, wit)
        if (a.tangent_direction(p, tol=1e-9 * max(1.0, abs(p))).conjugate() * t).real > 0:
            return a
    raise DrawingError("no arc orientation matches the requested tangent")


def _arc_point(a: Arc, frac: float) -> complex:
    """The point at parametric fraction ``frac`` along the arc from a.p."""
    if isinstance(a.support, Circle):
        tp, sweep, ccw = a._sweep()
        return a.support.point_at(tp + (sweep * frac if ccw else -sweep * frac))
    if _line_coord_interval(a) is None:
        raise DrawingError("cannot parametrize an unbounded line arc")
    return a.p + (a.q - a.p) * frac


def _oriented(a: Arc, start: complex, tol: float) -> Arc:
    """The same arc with ``p`` at the given start point."""
    if near(a.p, start, tol):
        return a
    if near(a.q, start, tol):
        return Arc(a.support, a.q, a.p, a.witness)
    raise DrawingError("arc does not start or end at the requested point")


def _forward_tangent(a: Arc, z: complex) -> complex:
    """Unit tangent at an interior (or end) point, in p->q direction."""
    if isinstance(a.support, Circle):
        c = a.support
        _, _, ccw = a._sweep()
        radial = (z - c.center) / abs(z - c.center)
        return radial * (1j if ccw else -1j)
    d = a.support.direction
    return d if ((a.q - a.p).conjugate() * d).real > 0 else -d


# ---------------------------------------------------------------------------
# Theorem-1 pipeline: 3-connected cubic graphs


def drawing_from_packing(
    g: PlanarGraph,
    packing: NormalizedPacking | CirclePacking,
    face_name: dict,
    outer_face: int = 0,
    outer_name: str | None = None,
) -> LombardiDrawing:
    """Read a Lombardi drawing of cubic ``g`` off a packing of its dual.

    Each vertex of g is surrounded by the three mutually tangent dual
    circles of its incident faces; the vertex goes to the isodynamic
    point of the triangle of their pairwise tangency points that lies
    in the cusp between the circles.  Each edge becomes the arc through
    its endpoints and the tangency point of its two adjacent faces.
    """
    circles = packing.circles
    tangency = packing.tangency
    if outer_name is None:
        outer_name = getattr(packing, "outer", None)
    positions: dict[str, complex] = {}
    for v in g.vertices:
        if g.degree(v) != 3:
            raise GraphError(f"vertex {v!r} is not degree 3")
        t_pts = [tangency[t] for t in g.rot[v]]
        names = {face_name[(v, i)] for i in range(3)}
        tri = Triangle(t_pts[0], t_pts[1], t_pts[2])
        cc = tri.circumcircle()
        cands = isodynamic_points(tri)
        good = []
        for z in cands:
            if is_inf(z):
                continue
            if abs(z - cc.center) >= cc.radius * (1 + 1e-9):
                continue
            ok = True
            for n in names:
                c = circles[n]
                inside = abs(z - c.center) < c.radius * (1 - 1e-9)
                # the cusp is outside every packing circle, except the
                # inverted outer circle whose face side is its inside
                if inside != (n == outer_name):
                    ok = False
                    break
            if ok:
                good.append(z)
        if len(good) != 1:
            raise DrawingError(f"vertex {v!r}: {len(good)} isodynamic candidates lie in the cusp")
        positions[v] = good[0]
    arcs = {}
    edges = {}
    for t in g.edges:
        u, w = g.endpoints(t)
        arcs[t] = arc_through(positions[u], positions[w], tangency[t])
        edges[t] = (u, w)
    return LombardiDrawing(positions, arcs, edges, outer_face)


def draw_3connected(
    g: PlanarGraph,
    outer_face: int = 0,
    pack_tol: float = 1e-10,
    pack_max_iter: int = 10**6,
) -> LombardiDrawing:
    """Planar Lombardi drawing of a 3-connected cubic planar graph.

    Pipeline: pack the dual triangulation, turn it inside out so the
    designated outer face's circle becomes the unit circle, optimize
    the smallest radius over disk automorphisms, then place vertices at
    isodynamic points and edges through tangency points.  The result
    is not verified; ``draw_subcubic`` verifies what it returns.
    """
    for v in g.vertices:
        if g.degree(v) != 3:
            raise GraphError(f"vertex {v!r} has degree {g.degree(v)}, expected 3")
    faces = g.faces()
    if not 0 <= outer_face < len(faces):
        raise GraphError(f"outer face index {outer_face} out of range")
    dualg, face_name = g.dual()
    f0 = dualg.faces()[0]
    if len(f0) != 3:
        raise GraphError("dual of a cubic graph must be a triangulation")
    boundary = {dart[0]: 1.0 for dart in f0}
    packing = pack_and_layout(dualg, boundary, outer_face=0, tol=pack_tol, max_iter=pack_max_iter)
    norm, _ = normalize_outer(packing, f"f{outer_face}")
    m, _ = optimize_min_radius(norm)
    norm = apply_to_normalized(norm, m)
    return drawing_from_packing(g, norm, face_name, outer_face)


# ---------------------------------------------------------------------------
# SPQR gluing operations


def expand_virtual_edge(d: LombardiDrawing, e, eps: float = 0.05) -> LombardiDrawing:
    """Invert the drawing so edge ``e`` subtends >= 2*pi*(1-eps).

    The inversion is centered at distance eps*len(e) from the arc's
    midpoint, on the side away from the rest of the drawing, which
    sends the arc to a near-full circle with the remaining geometry
    inside it near the gap.
    """
    if eps <= 0:
        raise DrawingError("expansion parameter must be positive")
    if e not in d.arcs:
        raise DrawingError(f"edge {e!r} is not in the drawing")
    a = d.arcs[e]
    chord = abs(a.p - a.q)
    m0 = a.midpoint()
    if isinstance(a.support, Circle):
        n = (m0 - a.support.center) / abs(m0 - a.support.center)
    else:
        n = a.support.normal
    # put the center on the side opposite most of the drawing
    inside = outside = 0
    u, w = d.edges[e]
    for v, z in d.positions.items():
        if v in (u, w):
            continue
        if a.support.strictly_inside(z):
            inside += 1
        else:
            outside += 1
    side_in = a.support.strictly_inside(m0 + n * chord * 1e-3)
    body_inside = inside >= outside
    if body_inside == side_in:
        n = -n
    # a straight edge of length L inverted from distance delta leaves a
    # gap of about 8*delta/L, so the nominal eps*L offset can fall just
    # short of the 2*pi*(1-eps) target; halve the offset until it holds
    delta = eps * chord
    for _ in range(8):
        z0 = m0 + n * delta
        out = transform(d, inversion(Circle(z0, chord)))
        arc = out.arcs[e]
        if isinstance(arc.support, Circle) and arc.subtended_angle() >= _TWO_PI * (1 - eps) - 1e-9:
            return out
        delta /= 2
    raise DrawingError("expanded arc does not subtend enough of its circle")


def p_node_drawing(names: tuple[str, str] = ("a", "b"), tags: list | None = None) -> LombardiDrawing:
    """Canonical drawing of the two-vertex three-edge bond graph.

    Vertices at -1 and 1; the first tag is the straight middle segment
    and the other two are mirror-image arcs leaving at +-120 degrees.
    Valid by construction, so returned unverified.
    """
    if tags is None:
        tags = ["m", "u", "l"]
    if len(tags) != 3 or len(set(tags)) != 3:
        raise DrawingError("a bond drawing needs three distinct edge tags")
    a, b = -1 + 0j, 1 + 0j
    u, w = names
    r = 2.0 / math.sqrt(3.0)
    cu = Circle(1j / math.sqrt(3.0), r)
    cl = Circle(-1j / math.sqrt(3.0), r)
    arcs = {
        tags[0]: segment(a, b),
        tags[1]: Arc(cu, a, b, 1j * math.sqrt(3.0)),
        tags[2]: Arc(cl, a, b, -1j * math.sqrt(3.0)),
    }
    return LombardiDrawing({u: a, w: b}, arcs, {t: (u, w) for t in tags}, None)


def glue_s_node(sides: dict, cycle: PlanarGraph) -> LombardiDrawing:
    """Glue side drawings around an S-node cycle on the unit circle.

    ``sides`` maps each virtual edge of ``cycle`` to the drawing of the
    side across it, in which that edge is drawn.  Each side's virtual
    arc is expanded to a near-full circle and mapped onto the unit
    circle across a private angular sector; the virtual arcs are deleted
    and the cycle's real edges become the short unit-circle arcs joining
    consecutive sides, continuing the deleted arcs' tangents exactly.
    Returned unverified.
    """
    if len(sides) < 2:
        raise DrawingError("an S node has at least two virtual edges and components")
    walk = cycle.faces()[0]
    tags = [cycle.dart_tag(dd) for dd in walk]
    tails = [dd[0] for dd in walk]
    n = len(walk)
    if set(t for t in tags if is_virtual(t)) != set(sides):
        raise DrawingError("components do not match the cycle's virtual edges")
    start = next(i for i, t in enumerate(tags) if is_virtual(t))
    tags = tags[start:] + tags[:start]
    tails = tails[start:] + tails[:start]
    if any(is_virtual(tags[i]) != (i % 2 == 0) for i in range(n)):
        raise DrawingError("S cycle does not alternate virtual and real edges")
    k = n // 2

    weights = [max(1, len(sides[tags[2 * i]].arcs)) for i in range(k)]
    total = float(sum(weights))
    gap = 0.1 * _TWO_PI / k
    widths = [0.9 * _TWO_PI * wt / total for wt in weights]
    starts = []
    cur = 0.0
    for i in range(k):
        starts.append(cur)
        cur += widths[i] + gap

    def unit(theta: float) -> complex:
        return cmath.exp(1j * theta)

    positions: dict[str, complex] = {}
    arcs: dict = {}
    edges: dict = {}
    for i in range(k):
        t = tags[2 * i]
        u_i, w_i = tails[2 * i], tails[2 * i + 1]
        comp = sides[t]
        if set(comp.edges[t]) != {u_i, w_i}:
            raise DrawingError(f"component for {t!r} has mismatched endpoints")
        a_i, b_i = starts[i], starts[i] + widths[i]
        ex = expand_virtual_edge(comp, t)
        m = mobius_from_triples(
            (ex.positions[u_i], ex.arcs[t].midpoint(), ex.positions[w_i]),
            (unit(a_i), -unit((a_i + b_i) / 2), unit(b_i)),
        )
        placed = transform(ex, m)
        for v, z in placed.positions.items():
            if v in positions and abs(positions[v] - z) > 1e-7:
                raise DrawingError(f"vertex {v!r} appears in two components")
            positions[v] = z
        for tt, aa in placed.arcs.items():
            if tt == t:
                continue
            arcs[tt] = aa
            edges[tt] = placed.edges[tt]
    circ = Circle(0j, 1.0)
    for i in range(k):
        r_tag = tags[2 * i + 1]
        w_i = tails[2 * i + 1]
        u_next = tails[(2 * i + 2) % n]
        b_i = starts[i] + widths[i]
        a_next = starts[(i + 1) % k] + (_TWO_PI if i == k - 1 else 0.0)
        arcs[r_tag] = Arc(circ, positions[w_i], positions[u_next], unit((b_i + a_next) / 2))
        edges[r_tag] = (w_i, u_next)
    return LombardiDrawing(positions, arcs, edges, None)


def _lay_chain(d: LombardiDrawing, a: Arc, seq: list, tags: list) -> None:
    """Lay the path ``seq`` along arc ``a`` into ``d``, in place.

    ``a`` runs from seq[0] to seq[-1], which ``d`` already places; the
    vertices between them go at equal subtended fractions along ``a``,
    and the len(seq) - 1 sub-arcs, which continue each other smoothly at
    180 degrees, carry ``tags`` in order.  A one-edge path is ``a`` itself.
    """
    if len(tags) != len(seq) - 1:
        raise DrawingError("a chain needs one edge tag per edge")
    k = len(seq) - 2
    if k == 0:
        d.arcs[tags[0]] = a
        d.edges[tags[0]] = (seq[0], seq[1])
        return
    pts = [d.positions[seq[0]]] + [_arc_point(a, j / (k + 1)) for j in range(1, k + 1)]
    pts.append(d.positions[seq[-1]])
    d.positions.update(zip(seq[1:-1], pts[1:-1]))
    for j, tag in enumerate(tags):
        d.arcs[tag] = Arc(a.support, pts[j], pts[j + 1], _arc_point(a, (2 * j + 1) / (2 * (k + 1))))
        d.edges[tag] = (seq[j], seq[j + 1])


def _add_stubs(d: LombardiDrawing, stubs: list[tuple[str, complex, object, float]]) -> LombardiDrawing:
    """Attach straight degree-1 stubs; returned unverified.

    ``stubs`` holds (vertex, unit direction, edge tag, length) entries;
    each stub runs from its vertex to a new leaf ``("stub", tag, vertex)``.
    This is the one place that names stub leaves.
    """
    positions = dict(d.positions)
    arcs = dict(d.arcs)
    edges = dict(d.edges)
    for v, direction, tag, length in stubs:
        leaf = ("stub", tag, v)
        positions[leaf] = d.positions[v] + length * direction
        arcs[tag] = segment(d.positions[v], positions[leaf])
        edges[tag] = (v, leaf)
    return LombardiDrawing(positions, arcs, edges, d.outer_face)


def _without_edge(d: LombardiDrawing, e, new_vertices: list) -> LombardiDrawing:
    """A copy of ``d`` without edge ``e``, checking that ``new_vertices``
    are not in it yet."""
    if e not in d.arcs:
        raise DrawingError(f"edge {e!r} is not in the drawing")
    for x in new_vertices:
        if x in d.positions:
            raise DrawingError(f"vertex {x!r} already exists")
    return LombardiDrawing(
        dict(d.positions),
        {t: a for t, a in d.arcs.items() if t != e},
        {t: ee for t, ee in d.edges.items() if t != e},
        d.outer_face,
    )


def subdivide_arc(d: LombardiDrawing, e, interior: list[str], tags: list) -> LombardiDrawing:
    """Split edge ``e`` into equal sub-arcs at new degree-2 vertices.

    The k interior vertices are placed at equal subtended angles along
    the arc from e's first endpoint to its second, and the k+1 sub-arcs
    between them carry ``tags`` in that order.  Every new vertex sees its
    two sub-arcs continue smoothly at 180 degrees on the same support.
    Returned unverified: the new vertices and sub-arcs lie on the old arc.
    """
    out = _without_edge(d, e, interior)
    u, w = d.edges[e]
    scale = max(1.0, abs(d.positions[u]), abs(d.positions[w]))
    _lay_chain(out, _oriented(d.arcs[e], d.positions[u], 1e-6 * scale), [u, *interior, w], tags)
    return out


def attach_bridge_stubs(d: LombardiDrawing, e, seq: list, tags: list, stubs: dict) -> LombardiDrawing:
    """Replace edge ``e`` by a chain whose vertices in ``stubs`` carry
    bridge stubs.

    The chain ``seq`` runs from e's first endpoint to its second through
    new vertices, and ``tags`` are its edges' tags in that order.  An
    inset arc A through e's endpoints meets e at 30 degrees on the left
    of e directed from its first endpoint.  The k chain vertices in
    ``stubs``, the junctions, sit on A at equal subtended spacing; the
    k+1 arcs between consecutive junctions each meet A at 30 degrees, so
    consecutive arcs meet each other at 120 degrees, and a straight stub
    tagged ``stubs[v]`` leaves each junction v along the remaining
    trisector to a new degree-1 vertex, 0.3 times as long as the
    junction's shorter neighbouring chord.  The other chain vertices are
    spread along the arcs between junctions as by ``subdivide_arc``.
    Returned unverified.
    """
    out = _without_edge(d, e, seq[1:-1])
    u, w = d.edges[e]
    if (seq[0], seq[-1]) != (u, w):
        raise DrawingError(f"chain does not run from {u!r} to {w!r}")
    cuts = [0] + [i for i in range(1, len(seq) - 1) if seq[i] in stubs] + [len(seq) - 1]
    k = len(cuts) - 2
    pu, pw = d.positions[u], d.positions[w]
    scale = max(1.0, abs(pu), abs(pw))
    a = _oriented(d.arcs[e], pu, 1e-6 * scale)
    rot = cmath.exp(1j * math.pi / 6)
    inset = arc_with_tangent(pu, pw, a.tangent_direction(pu, tol=1e-6 * scale) * rot)
    pts = [pu] + [_arc_point(inset, j / (k + 1)) for j in range(1, k + 1)] + [pw]
    out.positions.update(zip((seq[i] for i in cuts[1:-1]), pts[1:-1]))
    for j, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        arc = arc_with_tangent(pts[j], pts[j + 1], _forward_tangent(inset, pts[j]) / rot)
        _lay_chain(out, arc, seq[lo : hi + 1], tags[lo:hi])
    junction_stubs = []
    for j, i in enumerate(cuts[1:-1], 1):
        z = pts[j]
        length = 0.3 * min(abs(pts[j + 1] - z), abs(z - pts[j - 1]))
        junction_stubs.append((seq[i], 1j * _forward_tangent(inset, z), stubs[seq[i]], length))
    return _add_stubs(out, junction_stubs)


def claw_drawing(center: str, tags: list) -> LombardiDrawing:
    """A vertex at the origin with one unit stub per tag, at 2*pi/k
    spacing with the first pointing up.  Returned unverified."""
    k = len(tags)
    return _add_stubs(
        LombardiDrawing({center: 0j}),
        [(center, cmath.exp(1j * (math.pi / 2 + i * _TWO_PI / k)), t, 1.0) for i, t in enumerate(tags)],
    )


def glue_bridge(dA: LombardiDrawing, dB: LombardiDrawing, bridge, anchors: tuple) -> LombardiDrawing:
    """Join two block drawings along their shared bridge edge.

    ``anchors`` are the bridge's endpoints in dA and in dB; in each
    drawing the bridge is a stub from its anchor to a degree-1 leaf.  Each
    side is inverted at its leaf, sending its copy of the bridge to an
    exterior ray; the rays are aligned on the x-axis pointing at each
    other, each side scaled to unit extent with its anchor at -2 or 2,
    and the bridge becomes the straight segment between the two anchors.
    Returned unverified.
    """
    if dA is dB:
        raise DrawingError("cannot glue a drawing to itself")
    if set(dA.positions) & set(dB.positions):
        raise DrawingError("block drawings share vertices")
    positions: dict[str, complex] = {}
    arcs: dict = {}
    edges: dict = {}
    for sign, d, anchor in ((1.0, dA, anchors[0]), (-1.0, dB, anchors[1])):
        if bridge not in d.arcs:
            raise DrawingError(f"bridge {bridge!r} missing from a block drawing")
        u, w = d.edges[bridge]
        if anchor not in (u, w):
            raise DrawingError(f"{anchor!r} is not an end of bridge {bridge!r}")
        leaf = w if u == anchor else u
        z0 = d.positions[leaf]
        za = d.positions[anchor]
        r = abs(za - z0)
        if r == 0:
            raise DrawingError("degenerate bridge stub")
        body = LombardiDrawing(
            {v: z for v, z in d.positions.items() if v != leaf},
            {t: a for t, a in d.arcs.items() if t != bridge},
            {t: ee for t, ee in d.edges.items() if t != bridge},
            None,
        )
        inv = inversion(Circle(z0, r))
        body = transform(body, inv)
        a_img = body.positions[anchor]
        # the bridge arc inverts to a ray from the anchor's image; its
        # direction is the image arc's tangent there (the chord direction
        # is wrong when the stub is curved)
        ray = inv.apply_arc(_oriented(d.arcs[bridge], za, 1e-6 * max(1.0, abs(za))))
        direction = ray.tangent_direction(a_img, tol=1e-6 * max(1.0, abs(a_img)))
        extent = max(
            [abs(z - a_img) for v, z in body.positions.items() if v != anchor]
            + [abs(a.midpoint() - a_img) for a in body.arcs.values()]
            + [1e-9]
        )
        sc = sign / direction / extent
        placed = transform(body, mobius_scale_translate(sc, -2.0 * sign - sc * a_img))
        positions.update(placed.positions)
        arcs.update(placed.arcs)
        edges.update(placed.edges)
    arcs[bridge] = segment(positions[anchors[0]], positions[anchors[1]])
    edges[bridge] = tuple(anchors)
    return LombardiDrawing(positions, arcs, edges, None)


# ---------------------------------------------------------------------------
# General subcubic graphs


def _cycle_drawing(piece: PlanarGraph, stub_of: dict) -> LombardiDrawing:
    """Draw a cycle piece whose vertices in ``stub_of`` (the hubs) carry
    a stub tagged ``stub_of[v]``; returned unverified.

    The cycle is walked along its first face, from its first hub if it
    has one: a circle without hubs, a teardrop with one, a polygon with
    more.
    """
    walk = piece.faces()[0]
    seq = [dd[0] for dd in walk]
    tags = [piece.dart_tag(dd) for dd in walk]
    i = next((i for i, v in enumerate(seq) if v in stub_of), 0)
    seq = seq[i:] + seq[: i + 1]  # a closed walk: it ends where it starts
    tags = tags[i:] + tags[:i]
    hubs = [v for v in seq[:-1] if v in stub_of]
    if not hubs:
        return _bare_cycle_drawing(seq, tags)
    if len(hubs) == 1:
        return _teardrop_drawing(seq, tags, stub_of[hubs[0]])
    return _polygon_cycle_drawing(seq, tags, stub_of)


def _bare_cycle_drawing(seq: list, tags: list) -> LombardiDrawing:
    """The closed walk ``seq`` on the unit circle with equally spaced
    vertices."""
    n = len(tags)
    circ = Circle(0j, 1.0)
    positions = {v: cmath.exp(1j * _TWO_PI * i / n) for i, v in enumerate(seq[:-1])}
    arcs = {}
    edges = {}
    for i, t in enumerate(tags):
        wit = cmath.exp(1j * _TWO_PI * (i + 0.5) / n)
        arcs[t] = Arc(circ, positions[seq[i]], positions[seq[i + 1]], wit)
        edges[t] = (seq[i], seq[i + 1])
    return LombardiDrawing(positions, arcs, edges, None)


def _teardrop_drawing(seq: list, tags: list, stub_tag) -> LombardiDrawing:
    """A cycle with exactly one stub-carrying vertex, drawn as a teardrop.

    The closed walk ``seq`` starts and ends at the hub.  The hub sits at
    the origin with the stub pointing along -x and the two cycle ends
    leaving at +-60 degrees; they wrap around a middle circle whose top
    and bottom are the smooth junction vertices, and the rest of the
    cycle lies on that middle arc.
    """
    if len(seq) < 4:
        raise GraphError("a cycle block has at least three vertices")
    hub, x1, xm = seq[0], seq[1], seq[-2]
    R = 1.0 / math.sqrt(3.0)
    ja = complex(math.sqrt(3.0) * R, R)
    jb = complex(math.sqrt(3.0) * R, -R)
    c1 = Circle(complex(math.sqrt(3.0) * R, -R), 2 * R)
    c2 = Circle(complex(math.sqrt(3.0) * R, 0.0), R)
    c3 = Circle(complex(math.sqrt(3.0) * R, R), 2 * R)
    arcs = {
        tags[0]: Arc(c1, 0j, ja, c1.center + 2 * R * cmath.exp(2j * math.pi / 3)),
        tags[-1]: Arc(c3, jb, 0j, c3.center + 2 * R * cmath.exp(-2j * math.pi / 3)),
    }
    d = LombardiDrawing({hub: 0j, x1: ja, xm: jb}, arcs, {tags[0]: (hub, x1), tags[-1]: (xm, hub)})
    _lay_chain(d, Arc(c2, ja, jb, c2.center + R), seq[1:-1], tags[1:-1])
    return _add_stubs(d, [(hub, -1.0 + 0j, stub_tag, 0.3 * abs(ja))])


def _polygon_cycle_drawing(seq: list, tags: list, stub_of: dict) -> LombardiDrawing:
    """A cycle with k >= 2 stub vertices, drawn around a regular k-gon.

    The closed walk ``seq`` starts and ends at a hub.  Hubs sit on the
    unit circle with radial stubs; the cycle arcs between consecutive
    hubs leave each hub at 120 degrees from the radial direction, giving
    the 120/120/120 split everywhere, and the vertices between two hubs
    lie on their arc.
    """
    cuts = [i for i, v in enumerate(seq) if v in stub_of]
    hubs = [seq[i] for i in cuts[:-1]]
    k = len(hubs)
    d = LombardiDrawing({v: cmath.exp(1j * _TWO_PI * j / k) for j, v in enumerate(hubs)})
    hub_pos = dict(d.positions)
    for lo, hi in zip(cuts, cuts[1:]):
        p, q = hub_pos[seq[lo]], hub_pos[seq[hi]]
        _lay_chain(d, arc_with_tangent(p, q, p * cmath.exp(2j * math.pi / 3)), seq[lo : hi + 1], tags[lo:hi])
    stubs = []
    for j, v in enumerate(hubs):
        chord = abs(hub_pos[v] - hub_pos[hubs[(j + 1) % k]])
        stubs.append((v, hub_pos[v] / abs(hub_pos[v]), stub_of[v], 0.3 * max(chord, 0.5)))
    return _add_stubs(d, stubs)


def _spqr_drawing(node: SpqrNode, outer_face: int, **kw) -> LombardiDrawing:
    """Draw the SPQR decomposition rooted at ``node``: a P node as the
    canonical bond, an R node by ``draw_3connected`` and an S node by
    gluing the drawings of its sides.  Only the root's R node gets
    ``outer_face``."""
    sk = node.skeleton
    if node.kind == "P":
        u = sk.vertices[0]
        return p_node_drawing((u, sk.other_end(sk.rot[u][0], u)), list(sk.rot[u]))
    if node.kind == "R":
        return draw_3connected(sk, outer_face=outer_face, **kw)
    return glue_s_node({t: _spqr_drawing(side, 0, **kw) for t, side in node.sides.items()}, sk)


def _block_drawing(piece: PlanarGraph, stub_of: dict, outer_face: int, **kw) -> LombardiDrawing:
    """Draw one bridgeless block whose vertices in ``stub_of`` carry a
    stub tagged ``stub_of[v]`` for their bridge."""
    h, chains = piece.suppress_degree_two()
    d = _spqr_drawing(spqr(h), outer_face if not chains and not stub_of else 0, **kw)
    for chain_tag, (seq, tags) in chains.items():
        # junctions are laid out from the drawing's first edge endpoint;
        # flip the chain if the drawing stores the edge the other way
        if d.edges[chain_tag] != (seq[0], seq[-1]):
            seq, tags = seq[::-1], tags[::-1]
        stubs = {x: stub_of[x] for x in seq[1:-1] if x in stub_of}
        if stubs:
            d = attach_bridge_stubs(d, chain_tag, seq, tags, stubs)
        else:
            d = subdivide_arc(d, chain_tag, seq[1:-1], tags)
    return d


def _drawing_errors(draw):
    """Re-raise a geometry ``ValueError`` escaping ``draw`` as
    DrawingError; a GraphError (bad input) passes unchanged."""

    @functools.wraps(draw)
    def wrapped(*args, **kw):
        try:
            return draw(*args, **kw)
        except GraphError:
            raise
        except ValueError as err:
            raise DrawingError(str(err)) from err

    return wrapped


@_drawing_errors
def draw_subcubic(g: PlanarGraph, outer_face: int = 0, angle_tol: float = 1e-6, **kw) -> LombardiDrawing:
    """Planar Lombardi drawing of any connected planar graph of max degree 3.

    Bridges are deleted and each remaining 2-edge-connected piece is
    drawn on its own (SPQR gluing for blocks, circles, teardrops and
    polygons for cycles, a lone vertex for a piece of one vertex, with
    stubs marking bridge attachments); the pieces are then joined back
    along the bridges.
    The drawing carries ``g``'s own vertex names and edge tags.  Only the
    joined drawing is verified, against ``g`` with angle tolerance
    ``angle_tol``: DrawingError if it fails (also for a geometric
    ValueError on the way), else the report is kept as ``report`` on the
    returned drawing.
    """
    if not g.vertices:
        raise GraphError("input graph is empty")
    if not g.is_connected():
        raise GraphError("input graph is disconnected")
    for v in g.vertices:
        if g.degree(v) > 3:
            raise GraphError(f"vertex {v!r} has degree {g.degree(v)} > 3")
    if len(g.vertices) == 1:
        return _check(LombardiDrawing({g.vertices[0]: 0j}), g, angle_tol)

    bridges = set(g.bridges())
    core = g.without_edges(bridges)
    comps = core.connected_components()
    bridge_at = {v: [t for t in g.rot[v] if t in bridges] for v in g.vertices}

    piece_of: dict[str, int] = {}
    piece_drawings: dict[int, LombardiDrawing] = {}
    for idx, comp in enumerate(comps):
        for v in comp:
            piece_of[v] = idx
        if len(comp) == 1:
            piece_drawings[idx] = claw_drawing(comp[0], bridge_at[comp[0]])
            continue
        piece = core.subgraph(comp)
        # a vertex on a piece of two or more vertices has at most one bridge
        stub_of = {v: bridge_at[v][0] for v in comp if bridge_at[v]}
        if all(piece.degree(v) == 2 for v in comp):
            piece_drawings[idx] = _cycle_drawing(piece, stub_of)
        else:
            piece_drawings[idx] = _block_drawing(piece, stub_of, outer_face, **kw)

    # join the pieces along the bridges, always merging the two smallest
    # eligible clusters first: gluing transforms both sides, and a
    # balanced merge order keeps every piece's accumulated Mobius
    # distortion logarithmic in the number of bridges instead of linear
    cluster_of = {idx: idx for idx in piece_drawings}
    todo = [t for t in g.edges if t in bridges]
    while todo:
        def _cost(t):
            u, w = g.endpoints(t)
            ra, rb = cluster_of[piece_of[u]], cluster_of[piece_of[w]]
            return max(len(piece_drawings[ra].arcs), len(piece_drawings[rb].arcs))

        t = min(todo, key=lambda x: (_cost(x), repr(x)))
        todo.remove(t)
        u, w = g.endpoints(t)
        ra, rb = cluster_of[piece_of[u]], cluster_of[piece_of[w]]
        if ra == rb:
            raise DrawingError("bridge endpoints in the same glued cluster")
        piece_drawings[ra] = glue_bridge(piece_drawings[ra], piece_drawings[rb], t, (u, w))
        for i, r in list(cluster_of.items()):
            if r == rb:
                cluster_of[i] = ra
    final = piece_drawings[cluster_of[piece_of[g.vertices[0]]]]
    if not bridges and len(comps) == 1:
        final.outer_face = outer_face
    return _check(final, g, angle_tol)


# ---------------------------------------------------------------------------
# Medial graphs of polyhedral graphs


@_drawing_errors
def draw_medial(
    g: PlanarGraph, pack_tol: float = 1e-10, pack_max_iter: int = 10**6, angle_tol: float = 1e-6
) -> LombardiDrawing:
    """Lombardi drawing of the medial graph of a 3-connected planar graph.

    A primal-dual circle packing puts one vertex circle per vertex and
    one orthogonal face circle per face, crossing at the edge points;
    the medial vertices are those crossing points and each medial edge
    is the bisector arc of its vertex-face lune, meeting both circles
    at 45 degrees so that the four arc-ends at each degree-4 vertex are
    spaced at 90 degrees.  The drawing is verified against the medial
    graph with angle tolerance ``angle_tol`` before it is returned, and a
    geometric ValueError is re-raised as DrawingError, as in
    ``draw_subcubic``.
    """
    if not is_three_connected(g):
        raise GraphError("medial drawings require a 3-connected (polyhedral) input graph")
    pdp = primal_dual_pack(g, tol=pack_tol, max_iter=pack_max_iter)
    med, mname = g.medial()
    positions = {mname[t]: pdp.crossing[t] for t in g.edges}
    arcs = {}
    edges = {}
    faces = g.faces()
    for fi, walk in enumerate(faces):
        n = len(walk)
        for i in range(n):
            d1, d2 = walk[i], walk[(i + 1) % n]
            tag = ("corner", fi, i)
            v = d2[0]  # the face-walk vertex shared by the two darts
            e1, e2 = g.dart_tag(d1), g.dart_tag(d2)
            cv = pdp.vertex_circles[v]
            cf = pdp.face_circles[f"f{fi}"]
            # the hub circle is drawn inside-out: its disk is the
            # exterior, so the lune sits on the other side of it
            sv = v != pdp.hub
            sf = f"f{fi}" != pdp.hub
            bis = lune_bisector(cv, cf, side1=sv, side2=sf)
            x1, x2 = pdp.crossing[e1], pdp.crossing[e2]
            arcs[tag] = _corner_arc(bis, x1, x2, cv, cf, sv, sf)
            edges[tag] = (mname[e1], mname[e2])
    d = LombardiDrawing(positions, arcs, edges, None)
    return _check(d, med, angle_tol)


def _corner_arc(
    bis: Arc, x1: complex, x2: complex, cv: Circle, cf: Circle, sv: bool, sf: bool
) -> Arc:
    """The sub-arc of the lune bisector joining two crossing points."""
    support = bis.support
    if isinstance(support, Line):
        return segment(x1, x2)
    c: Circle = support
    a1, a2 = c.angle_of(x1), c.angle_of(x2)
    for wit_angle in (a1 + ((a2 - a1) % _TWO_PI) / 2, a1 - ((a1 - a2) % _TWO_PI) / 2):
        wit = c.point_at(wit_angle)
        if cv.strictly_inside(wit) == sv and cf.strictly_inside(wit) == sf:
            return Arc(c, x1, x2, wit)
    raise DrawingError("no bisector arc lies inside the lune")


# ---------------------------------------------------------------------------
# Serialization


def _tag_to_json(tag):
    if isinstance(tag, tuple):
        return ["t"] + [_tag_to_json(x) for x in tag]
    return tag


def _tag_from_json(obj):
    if isinstance(obj, list):
        if not obj or obj[0] != "t":
            raise ValueError("malformed tag")
        return tuple(_tag_from_json(x) for x in obj[1:])
    return obj


def _support_to_json(s):
    if isinstance(s, Circle):
        return {"kind": "circle", "cx": s.center.real, "cy": s.center.imag, "r": s.radius}
    return {"kind": "line", "nx": s.normal.real, "ny": s.normal.imag, "offset": s.offset}


def _support_from_json(obj):
    if obj["kind"] == "circle":
        return Circle(complex(obj["cx"], obj["cy"]), obj["r"])
    return Line(complex(obj["nx"], obj["ny"]), obj["offset"])


def to_json(d: LombardiDrawing) -> dict:
    """A JSON-serializable dict with stable key order."""
    verts = [
        {"id": _tag_to_json(v), "x": z.real, "y": z.imag}
        for v, z in sorted(d.positions.items(), key=lambda kv: repr(kv[0]))
    ]
    edges = []
    for t in sorted(d.arcs, key=repr):
        a = d.arcs[t]
        u, w = d.edges[t]
        edges.append(
            {
                "id": _tag_to_json(t),
                "u": _tag_to_json(u),
                "w": _tag_to_json(w),
                "support": _support_to_json(a.support),
                "px": a.p.real,
                "py": a.p.imag,
                "qx": a.q.real,
                "qy": a.q.imag,
                "wx": a.witness.real,
                "wy": a.witness.imag,
            }
        )
    return {"vertices": verts, "edges": edges, "outer_face": d.outer_face}


def from_json(obj: dict) -> LombardiDrawing:
    """Inverse of ``to_json``; raises ``ValueError`` on an inconsistent dump."""
    positions = {_tag_from_json(v["id"]): complex(v["x"], v["y"]) for v in obj["vertices"]}
    arcs = {}
    edges = {}
    for e in obj["edges"]:
        tag = _tag_from_json(e["id"])
        arcs[tag] = Arc(
            _support_from_json(e["support"]),
            complex(e["px"], e["py"]),
            complex(e["qx"], e["qy"]),
            complex(e["wx"], e["wy"]),
        )
        edges[tag] = (_tag_from_json(e["u"]), _tag_from_json(e["w"]))
        if not positions.keys() >= set(edges[tag]):
            raise ValueError(f"edge {tag!r} names a vertex missing from the vertices")
    return LombardiDrawing(positions, arcs, edges, obj.get("outer_face"))
