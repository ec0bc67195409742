"""Assembly and verification of planar Lombardi drawings.

A Lombardi drawing places vertices at points and draws every edge as a
circular arc (straight segments are arcs of Line supports) so that the
arc-ends around each vertex are equally spaced at 2*pi/deg.  This
module builds such drawings for 3-connected cubic planar graphs from a
circle packing of the dual, extends them to arbitrary subcubic planar
graphs by gluing along the nested SPQR decomposition (each S node maps
its sides' drawings once, straight into its own) and along bridges, and
draws medial graphs of polyhedral graphs from a primal-dual circle
packing.  ``draw_subcubic`` and ``draw_medial`` verify the drawing they
return, once, at their ``angle_tol``, and keep that report on it as
``report``.  That is the only verification of a draw: every
construction step (packing read-off, SPQR and bridge gluing, and stubs
and subdivision, in place) builds its result once, without retries,
and leaves it unverified.  A geometric ``ValueError`` inside a draw is
re-raised as ``DrawingError``.  ``verify`` makes one pass over the
arcs, which yields each arc's endpoint error, its tangent phase at both
ends and its padded bounding box, and finds crossing candidates by a
sort-and-sweep over the boxes, so a verification costs about E log E
for E arcs rather than E^2 pair tests.  Nearly every candidate is two
circle arcs through one shared endpoint z; their circles meet at most
once more, at z's mirror image in the line of centres, which
``verify`` takes in closed form, leaving every other pair to the
general two-support solve.

Edge tags belong to the caller: a drawing of ``g`` carries exactly
``g``'s tags, whatever hashable values they are, and ``draw_subcubic``
builds no tag of its own.  Each chain of degree-2 vertices, each cycle
and each stub takes its tags from the darts that ``graph`` walks: from
``suppress_degree_two``'s chains, from a face walk of the cycle, and
from the bridges.  Stub leaves, the only vertices a construction step
invents, are named in ``_add_stubs`` alone, and ``glue_bridge`` removes
them again.

``to_json`` turns a drawing into a dict and ``json_text`` writes that
dict as exactly ``json.dumps(obj, indent=2)`` would, from fixed
templates rather than through ``json``'s pure-Python encoder (CPython
before 3.13 uses its C encoder only without ``indent``); the CLI writes
``json_text(to_json(d))``.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from json.encoder import encode_basestring_ascii

from .geometry import (
    INF,
    Arc,
    Circle,
    Line,
    Mobius,
    Record,
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
    segment,
    support_distance,
)
from .graph import GraphError, PlanarGraph, SpqrNode, is_three_connected, is_virtual, spqr
from .mobius_opt import (
    NormalizedPacking,
    apply_to_normalized,
    normalize_outer,
    optimize_min_radius,
)
from .packing import pack_and_layout, primal_dual_pack

_TWO_PI = 2.0 * math.pi
_RIGHT, _TOP, _LEFT, _BOTTOM = (k * math.pi / 2 for k in range(4))  # the angles of Arc.axis_extremes
ANGLE_TOL = 1e-6  # the default gate: largest angular-spacing residual, in radians


class DrawingError(RuntimeError):
    """A drawing operation failed or its result did not verify."""


# ---------------------------------------------------------------------------
# Drawing container and verification


class LombardiDrawing(Record):
    """A set of vertex positions and one circular arc per edge.

    ``edges`` maps each edge tag to its (u, w) endpoint names; the arc
    stored under the same tag runs between those vertices' positions
    (in either orientation).  ``outer_face`` is the index of the source
    graph's face that the draw put outermost on request, else None.
    ``report`` is the verification report of the gate that passed the
    drawing (``draw_subcubic``, ``draw_medial``), None if it was not
    gated; it is not serialized, compared or shown by ``repr``.
    """

    _fields = ("positions", "arcs", "edges", "outer_face")
    __slots__ = (*_fields, "report")

    def __init__(self, positions: dict[str, complex], arcs: dict | None = None, edges: dict | None = None,
                 outer_face: int | None = None, report: VerificationReport | None = None):
        self.positions, self.outer_face, self.report = positions, outer_face, report
        self.arcs = {} if arcs is None else arcs
        self.edges = {} if edges is None else edges

    def __reduce__(self):
        return LombardiDrawing, (*self._values, self.report)

    def degree(self, v: str) -> int:
        return sum(1 for u, w in self.edges.values() for x in (u, w) if x == v)


class VerificationReport(Record):
    __slots__ = _fields = ("max_angle_residual", "worst_angle_vertex", "max_endpoint_error", "crossings",
                           "coincident", "endpoint_ok", "angles_ok", "noncrossing_ok", "distinct_ok")

    def __init__(self, max_angle_residual: float = 0.0, worst_angle_vertex: object = None,
                 max_endpoint_error: float = 0.0, crossings: list | None = None, coincident: list | None = None,
                 endpoint_ok: bool = True, angles_ok: bool = True, noncrossing_ok: bool = True,
                 distinct_ok: bool = True):
        self.max_angle_residual, self.worst_angle_vertex, self.max_endpoint_error = (
            max_angle_residual, worst_angle_vertex, max_endpoint_error)
        self.crossings = [] if crossings is None else crossings
        self.coincident = [] if coincident is None else coincident
        self.endpoint_ok, self.angles_ok, self.noncrossing_ok, self.distinct_ok = (
            endpoint_ok, angles_ok, noncrossing_ok, distinct_ok)

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


def _support_noise(*arcs: Arc) -> float:
    """Absolute rounding noise of positions computed on the arcs' supports.

    Coordinates on a huge-radius support carry noise of order radius *
    machine epsilon; both crossing tests widen their tolerance to it.
    """
    return max((a.support.radius * 1e-14 for a in arcs if isinstance(a.support, Circle)), default=0.0)


def _arcs_overlap_on_support(a1: Arc, a2: Arc, tol_len: float) -> bool:
    """Whether two arcs on the same support share more than endpoints.

    A ray or a two-ray line arc counts as overlapping.  A segment ``a2``'s
    ends are measured on ``a1``'s support, whose direction may be the
    opposite of its own.
    """
    if isinstance(a1.support, Circle):
        # each arc as the ccw angular interval [s, s + w], s in [0, 2*pi)
        (s1, w1), (s2, w2) = (((tp if ccw else tp - w) % _TWO_PI, w) for tp, w, ccw in (a1._sweep(), a2._sweep()))
        ov = 0.0
        for shift in (-_TWO_PI, 0.0, _TWO_PI):
            ov += max(0.0, min(s1 + w1, s2 + w2 + shift) - max(s1, s2 + shift))
        return ov * a1.support.radius > max(tol_len, _support_noise(a1, a2))
    lo, hi, kind = a1._sweep()
    if kind != "segment" or a2._sweep()[2] != "segment":
        return True
    t1, t2 = a1.support.coord(a2.p), a1.support.coord(a2.q)
    return min(hi, max(t1, t2)) - max(lo, min(t1, t2)) > tol_len


def _line_box(a: Arc, tol: float) -> tuple:
    """(finite, box) of an arc on a Line for ``verify``: box is the padded
    (x0, x1, y0, y1) of a segment, None when the arc is not finite or is
    a ray or a two-ray arc.

    The pad holds every point the crossing test of ``verify`` can place
    on the arc: every x with ``a.contains(x, tol)``, which lies within tol
    of the support and within tol of the span along it, so within 2*tol
    of the segment in x and in y; and every point where another arc on a
    ``same_support`` overlaps it, whose 1e-9 on the normal and offset
    moves a projection by less than 3e-9*size (size bounds |p|, |q|, |w|
    and the support's distance from them).
    """
    s, p, q, w = a.support, a.p, a.q, a.witness
    if not is_finite(p, q, w, s.normal, s.offset):
        return False, None
    t1, t2, kind = a._sweep()
    if kind != "segment":
        return True, None
    d, f = s.direction, s.foot()
    size = max(1.0, abs(p), abs(q), abs(w)) + max(abs(s.signed_distance(p)), abs(s.signed_distance(q)))
    xs = [p.real, q.real, (f + d * t1).real, (f + d * t2).real]
    ys = [p.imag, q.imag, (f + d * t1).imag, (f + d * t2).imag]
    pad = 2 * tol + (3e-9 + 1e-14) * size
    box = (min(xs) - pad, max(xs) + pad, min(ys) - pad, max(ys) + pad)
    return True, box if is_finite(*box) else None


def _mirror_meeting(o1: complex, r1: float, o2: complex, r2: float, z: complex, tol: float):
    """The point other than ``z`` where two circles through ``z`` meet:
    ``z``'s mirror image x in their line of centres.

    None where ``support_intersections(..., tol)`` need not find x beside
    a point at ``z``: ``z`` more than ``tol`` off either circle; centres
    within max(tol, 1e-9*R) of each other, R the larger radius (nearly
    concentric, or ``same_support``), or too far apart or too near for
    the general solve to find any point; x within 4*tol of ``z``, where
    that solve merges the two points into one; or a general solve too
    coarse to agree.  It rounds the centres' difference at their size
    and takes the half chord h = |x - z|/2 from r1**2 - a**2, which moves
    its points by about 2e-16*R*(|z| + R + R**2/h)/d for centre distance
    d; x is kept only while five times that stays below ``tol``.
    """
    v = z - o1
    if not (abs(abs(v) - r1) <= tol and abs(abs(z - o2) - r2) <= tol):
        return None
    e = o2 - o1
    dist, big, both = abs(e), (r1 if r1 > r2 else r2), r1 + r2
    if dist <= (tol if tol > 1e-9 * big else 1e-9 * big) or not abs(r1 - r2) - tol <= dist <= both + tol:
        return None
    x = o1 + e / e.conjugate() * v.conjugate()
    dz = abs(x - z)
    if dz <= 4 * tol or 1e-15 * big * (abs(z) + big + 2 * big * big / dz) > tol * dist:
        return None
    return x


def _crossing_candidates(boxes: list) -> list[tuple[int, int]]:
    """Index pairs (i < j), sorted, whose boxes overlap or either is None.

    Sort-and-sweep: boxes sorted by left edge; each box is compared with
    the boxes that start before its right edge.  A None box (unbounded
    arc) is paired with every other index.  The sweep meets each pair
    once, so a set merges pairs only when some box is None.
    """
    n = len(boxes)
    order = sorted((i for i in range(n) if boxes[i] is not None), key=lambda i: boxes[i][0])
    pairs = []
    for k, i in enumerate(order):
        _, x1, y0, y1 = boxes[i]
        for m in range(k + 1, len(order)):
            j = order[m]
            bx0, _, by0, by1 = boxes[j]
            if bx0 > x1:
                break
            if by0 <= y1 and y0 <= by1:
                pairs.append((i, j) if i < j else (j, i))
    if len(order) < n:
        pairs = set(pairs)
        for i in range(n):
            if boxes[i] is None:
                pairs.update((min(i, j), max(i, j)) for j in range(n) if j != i)
    return sorted(pairs)


def verify(
    d: LombardiDrawing,
    g: PlanarGraph | None = None,
    tol_angle: float = ANGLE_TOL,
    tol_geom: float = 1e-9,
) -> VerificationReport:
    """Check the Lombardi drawing invariants and report residuals.

    Criteria: (a) every arc's endpoints coincide with its vertices'
    positions and lie on its support (an endpoint off it by more than the
    point tolerance, or the support's rounding noise, counts by that
    distance), and every position and arc is finite; (b) at every vertex
    the sorted tangent directions of the incident arc-ends are equally
    spaced at 2*pi/deg; (c) no two arcs intersect except at shared
    endpoints; (d) vertex positions are pairwise distinct.  When ``g`` is
    given, the drawing's vertex set, edge set and each edge's endpoints
    must match it (DrawingError otherwise).  The point tolerance is
    ``tol_geom`` times the extent, the largest distance of a finite
    position from the first one; every other tolerance is a multiple of
    it or of a radius, so each scales and moves with the drawing.

    One pass over the arcs does all per-arc work.  For a finite circle
    arc between finite vertices it measures the four end-to-vertex
    distances and each end's distance from the centre once, and takes
    from them (a)'s error and the tangent phase at both ends, as
    ``Arc.tangent_direction`` would give it.  It also builds the arc's
    box from its ends and the axis extremes it covers, padded to hold
    every point the crossing test can place on it.  A line arc, or an arc
    or vertex that is not finite, leaves its tangents to
    ``Arc.tangent_direction``.  (b) then only sorts and scans each
    vertex's phases.

    (c) tests only the pairs of arcs whose boxes overlap, found by a
    sort-and-sweep; an unbounded arc (a ray or a two-ray line arc) or a
    non-finite one is tested against every arc.  The pad covers every
    slack of the pair test, so the crossings are those of testing all
    pairs, in the same order.  Most pairs are two circle arcs with one
    shared endpoint z, and two circles through z meet at most once more,
    at z's mirror image x in their line of centres (``_mirror_meeting``):
    the pair crosses when x is farther than the shared-endpoint radius
    from z, inside both boxes, and on both arcs.  Every other pair, and
    one that fails ``_mirror_meeting``'s conditions, goes to
    ``arc_intersections``, which drops the points at a shared endpoint or
    outside either box before any membership test.  (d) likewise
    compares only positions within the point tolerance of each other in
    x and in y.  With K candidate pairs the cost is O(E log E + K log K)
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
            e, f = d.edges[t], g.endpoints(t)
            if e != f and set(e) != set(f):
                raise DrawingError(f"edge {t!r} joins different vertices in drawing and graph")

    pos = d.positions
    names = list(pos)
    vfin = {v: is_finite(z) for v, z in pos.items()}  # read by (a) to (d)
    fin = [i for i, v in enumerate(names) if vfin[v]]
    z0 = pos[names[fin[0]]] if fin else 0j
    scale = max((abs(pos[names[i]] - z0) for i in fin), default=1.0)
    tol_pt = tol_geom * scale
    match_tol = max(1e-6 * scale, 10 * tol_pt)

    # one pass over the arcs: (a)'s error, (b)'s phases and (c)'s records
    emax = 0.0
    phases: dict[str, list] = {v: [] for v in pos}  # per vertex, its arc-ends in arc order
    slow = set()  # vertices with an arc-end left to Arc.tangent_direction (an Arc in phases)
    tags, arcs = list(d.arcs), list(d.arcs.values())
    ends = [d.edges[t] for t in tags]
    boxes, circles, excl = [], [], []
    for a, (u, w) in zip(arcs, ends):
        s, p, q = a.support, a.p, a.q
        box = circle = None
        on_circle = isinstance(s, Circle)
        fast = False  # whether this pass takes (b)'s phases, which needs a non-zero |p - c| and |q - c|
        if on_circle:
            c, r = s.center, s.radius
            noise = r * 1e-14
            finite = is_finite(p, q, a.witness, c, r)
            if finite:
                tp, sweep, ccw = a._sweep()
                pc, qc = abs(p - c), abs(q - c)
                dev = abs(pc - r) if abs(pc - r) > abs(qc - r) else abs(qc - r)  # of the ends from the circle
                fast = pc != 0.0 != qc
                x0, x1 = (p.real, q.real) if p.real < q.real else (q.real, p.real)
                y0, y1 = (p.imag, q.imag) if p.imag < q.imag else (q.imag, p.imag)
                # the circle's rightmost, top, leftmost and lowest points, where the arc covers them
                lo, cx, cy = tp if ccw else tp - sweep, c.real, c.imag
                if (_RIGHT - lo) % _TWO_PI <= sweep and cx + r > x1:
                    x1 = cx + r
                if (_TOP - lo) % _TWO_PI <= sweep and cy + r > y1:
                    y1 = cy + r
                if (_LEFT - lo) % _TWO_PI <= sweep and cx - r < x0:
                    x0 = cx - r
                if (_BOTTOM - lo) % _TWO_PI <= sweep and cy - r < y0:
                    y0 = cy - r
                # the arc's ends on its circle lie within dev of p and q;
                # Arc.contains widens the radius by tol and the arc by at most
                # tol of length, same_support lets centres and radii differ
                # by 1e-9*r, and positions on the support carry rounding
                # noise of about 1e-14*(|centre| + r)
                pad = dev + 2 * tol_pt + 2e-9 * r + 1e-14 * (abs(c) + r)
                x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
                if -math.inf < x0 and x1 < math.inf and -math.inf < y0 and y1 < math.inf:
                    box, circle = (x0, x1, y0, y1), (c, r)
        else:
            noise = 0.0
            finite, box = _line_box(a, tol_pt)
        boxes.append(box)
        circles.append(circle)
        excl.append(noise if noise > match_tol else match_tol)  # radius around a shared endpoint

        if not (finite and vfin[u] and vfin[w]):
            emax, fast = math.inf, False
        else:
            # (a) the ends matched to u, w either way round; an end far from
            # both vertices counts by its distance to the nearer
            zu, zw = pos[u], pos[w]
            pu, pw, qu, qw = abs(p - zu), abs(p - zw), abs(q - zu), abs(q - zw)
            # max(min(pu + qw, pw + qu), min(pu, pw), min(qu, qw)) without the calls
            err = pu + qw if pu + qw < pw + qu else pw + qu
            if (pu if pu < pw else pw) > err:
                err = pu if pu < pw else pw
            if (qu if qu < qw else qw) > err:
                err = qu if qu < qw else qw
            off = dev if on_circle else max(support_distance(s, p), support_distance(s, q))
            if off > (tol_pt if tol_pt > noise else noise) and off > err:
                err = off
            if err > emax:
                emax = err
        if fast:
            # (b) Arc.tangent_direction's circle case: the nearer end's
            # radius turned a quarter, reversed at q
            turn = 1j if ccw else -1j
            for v, dp, dq in ((u, pu, qu), (w, pw, qw)):
                if dp <= match_tol or dq <= match_tol:
                    tan = (p - c) / pc * turn if dp <= dq else -((q - c) / qc * turn)
                    phases[v].append(cmath.phase(tan))
                else:  # tangent_direction raises: the arc does not reach v
                    phases[v].append(a)
                    slow.add(v)
        else:
            phases[u].append(a)
            phases[w].append(a)
            slow.update((u, w))
    rep.max_endpoint_error = emax
    rep.endpoint_ok = emax <= tol_pt

    # (b) equal angular spacing at each vertex
    worst, worst_v = 0.0, None
    for v, dirs in phases.items():
        k = len(dirs)
        if k < 2:
            continue
        if v in slow:
            try:
                z = pos[v]
                dirs = [x if isinstance(x, float) else cmath.phase(x.tangent_direction(z, tol=match_tol)) for x in dirs]
            except ValueError:
                # an arc does not even reach this vertex; that is an angle
                # failure to report, not an internal error
                worst, worst_v = math.inf, v
                continue
        dirs.sort()
        want = _TWO_PI / k
        for here, there in zip(dirs, dirs[1:] + dirs[:1]):
            res = abs((there - here) % _TWO_PI - want)
            if res > worst:
                worst, worst_v = res, v
    rep.max_angle_residual, rep.worst_angle_vertex = worst, worst_v
    rep.angles_ok = worst <= tol_angle

    # (c) no two arcs cross except at shared endpoints
    for i, j in _crossing_candidates(boxes):
        a1, a2 = arcs[i], arcs[j]
        by = excl[i] if excl[i] > excl[j] else excl[j]
        x, c1, c2 = None, circles[i], circles[j]
        if c1 is not None and c2 is not None:
            (ui, wi), ej = ends[i], ends[j]
            zv = (None if wi in ej else ui) if ui in ej else (wi if wi in ej else None)
            if zv is not None and vfin[zv]:
                z = pos[zv]
                x = _mirror_meeting(c1[0], c1[1], c2[0], c2[1], z, tol_pt)
        if x is not None:
            b1, b2 = boxes[i], boxes[j]
            crossed = (
                abs(x - z) > by
                and b1[0] <= x.real <= b1[1] and b1[2] <= x.imag <= b1[3]
                and b2[0] <= x.real <= b2[1] and b2[2] <= x.imag <= b2[3]
                and a1.contains(x, tol_pt) and a2.contains(x, tol_pt)
            )
        else:
            shared = [pos[v] for v in set(ends[i]) & set(ends[j])]
            pts = arc_intersections(a1, a2, tol_pt, shared, by, (boxes[i], boxes[j]))
            if pts is None:  # one support
                crossed = _arcs_overlap_on_support(a1, a2, match_tol)
            else:  # a finite meeting point away from the shared endpoints
                crossed = len(pts) > pts.count(INF)
        if crossed:
            rep.crossings.append((tags[i], tags[j]))
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
# Small constructions


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
    if a._sweep()[2] != "segment":
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
    g: PlanarGraph, packing: NormalizedPacking, outer_face: int = 0
) -> LombardiDrawing:
    """Read a Lombardi drawing of cubic ``g`` off a packing of its dual.

    Each vertex of g is surrounded by the three mutually tangent dual
    circles of its incident faces and goes to the cusp between them, an
    isodynamic point of the triangle of their tangency points: those
    points are fixed by a cross ratio with the triangle, so they move
    with every Moebius map, and one map takes the three circles to equal
    ones, whose cusp is the center of the equilateral triangle of
    tangency points.  Of the two points, the first (with the tangency
    points in rotation order) lies inside the circle through the
    tangency points.  That circle is orthogonal to the three circles and
    separates the cusp from the gap on its far side, which holds the
    rest of the packing, so the first point is the cusp.  Each edge
    becomes the arc through its endpoints and the tangency point of its
    two adjacent faces.
    """
    tangency = packing.tangency
    positions: dict[str, complex] = {}
    for v in g.vertices:
        if g.degree(v) != 3:
            raise GraphError(f"vertex {v!r} is not degree 3")
        positions[v] = isodynamic_points(*(tangency[t] for t in g.rot[v]))[0]
    arcs = {}
    edges = {}
    for t in g.edges:
        u, w = g.endpoints(t)
        arcs[t] = arc_through(positions[u], positions[w], tangency[t])
        edges[t] = (u, w)
    return LombardiDrawing(positions, arcs, edges, outer_face)


def draw_3connected(g: PlanarGraph, outer_face: int = 0) -> LombardiDrawing:
    """Planar Lombardi drawing of a 3-connected cubic planar graph.

    Pipeline: pack the dual triangulation, turn it inside out so the
    designated outer face's circle becomes the unit circle, optimize
    the smallest radius over disk automorphisms, then place vertices at
    isodynamic points and edges through tangency points.  The result
    is labelled with ``outer_face`` and is not verified;
    ``draw_subcubic`` verifies what it returns.
    """
    for v in g.vertices:
        if g.degree(v) != 3:
            raise GraphError(f"vertex {v!r} has degree {g.degree(v)}, expected 3")
    faces = g.faces()
    if not 0 <= outer_face < len(faces):
        raise GraphError(f"outer face index {outer_face} out of range")
    norm, _ = normalize_outer(pack_and_layout(g.dual()[0]), f"f{outer_face}")
    m, _ = optimize_min_radius(norm)
    norm = apply_to_normalized(norm, m)
    return drawing_from_packing(g, norm, outer_face)


# ---------------------------------------------------------------------------
# SPQR gluing operations


def expand_virtual_edge(d: LombardiDrawing, e, u, a: float, b: float) -> Mobius:
    """The anti-Moebius map that places the side ``d`` so its virtual
    edge ``e`` runs outside the sector [a, b]: it sends ``u`` to
    exp(i*a), the arc's midpoint to -exp(i*(a+b)/2) and the edge's other
    endpoint to exp(i*b), so the arc goes onto the unit circle, around
    the long way from a to b.  ``d`` is only read.
    """
    if e not in d.arcs:
        raise DrawingError(f"edge {e!r} is not in the drawing")
    p, q = d.edges[e]
    w = q if p == u else p
    src = (d.positions[u], d.arcs[e].midpoint(), d.positions[w])
    dst = (cmath.exp(1j * a), -cmath.exp(1j * (a + b) / 2), cmath.exp(1j * b))
    m = mobius_from_triples(tuple(z.conjugate() for z in src), dst)
    return m.compose(Mobius(1, 0, 0, 1, conj=True))


def p_node_drawing(names: tuple[str, str], tags: list) -> LombardiDrawing:
    """Canonical drawing of the two-vertex three-edge bond graph.

    Vertices ``names`` at -1 and 1; the first tag is the straight middle
    segment and the other two are mirror-image arcs leaving at +-120
    degrees.  Valid by construction, so returned unverified.
    """
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
    side across it, in which that edge is drawn.  Each side gets a
    private angular sector and one anti-Moebius map
    (``expand_virtual_edge``) that sends its virtual arc onto the unit
    circle outside that sector; it maps the side's vertices and other
    arcs once, straight into the result, and not the virtual arc.  The
    cycle's real edges become the short unit-circle arcs joining
    consecutive sides, continuing the virtual arcs' tangents exactly.
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
        m = expand_virtual_edge(comp, t, u_i, starts[i], starts[i] + widths[i])
        for v, z in comp.positions.items():
            z = m.apply(z)
            if is_inf(z):
                raise DrawingError(f"vertex {v!r} maps to infinity")
            if v in positions and abs(positions[v] - z) > 1e-7:
                raise DrawingError(f"vertex {v!r} appears in two components")
            positions[v] = z
        arcs.update((tt, m.apply_arc(aa)) for tt, aa in comp.arcs.items() if tt != t)
        edges.update((tt, comp.edges[tt]) for tt in comp.arcs if tt != t)
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
    """Attach straight degree-1 stubs to ``d`` in place; returns ``d``, unverified.

    ``stubs`` holds (vertex, unit direction, edge tag, length) entries;
    each stub runs from its vertex to a new leaf ``("stub", tag, vertex)``.
    This is the one place that names stub leaves.
    """
    for v, direction, tag, length in stubs:
        leaf = ("stub", tag, v)
        d.positions[leaf] = d.positions[v] + length * direction
        d.arcs[tag] = segment(d.positions[v], d.positions[leaf])
        d.edges[tag] = (v, leaf)
    return d


def _check_chain(d: LombardiDrawing, e, interior: list, tags: list, stub_tags=()) -> None:
    """Raise DrawingError unless edge ``e`` is in ``d`` and a path through
    the vertices ``interior``, new and pairwise distinct, with one tag per
    edge in ``tags``, can replace it.  The chain's tags and ``stub_tags``
    must be pairwise distinct, and none may name an edge of ``d`` but e."""
    if e not in d.arcs:
        raise DrawingError(f"edge {e!r} is not in the drawing")
    if len(tags) != len(interior) + 1:
        raise DrawingError("a chain needs one edge tag per edge")
    new = set(interior)
    if len(new) != len(interior) or not new.isdisjoint(d.positions):
        raise DrawingError("the chain's interior vertices are not new and distinct")
    every = [*tags, *stub_tags]
    if len(set(every)) != len(every) or any(t in d.arcs and t != e for t in every):
        raise DrawingError("the chain's edge tags are not new and distinct")


def _replace_edge(d: LombardiDrawing, e, part: LombardiDrawing) -> None:
    """Swap edge ``e`` of ``d`` for the vertices and arcs of ``part``, in place."""
    del d.arcs[e], d.edges[e]
    d.positions.update(part.positions)
    d.arcs.update(part.arcs)
    d.edges.update(part.edges)


def subdivide_arc(d: LombardiDrawing, e, interior: list[str], tags: list) -> None:
    """Split edge ``e`` of ``d``, in place, into equal sub-arcs at new degree-2 vertices.

    The k ``interior`` vertices are placed at equal subtended angles
    along the arc from e's first endpoint to its second, and the k+1
    sub-arcs between them carry ``tags`` in that order.  Every new vertex
    sees its two sub-arcs continue smoothly at 180 degrees on the same
    support.  Unverified: they lie on the old arc.  Input that
    ``_check_chain`` refuses, and an arc with no points to place, raise
    DrawingError before ``d`` changes.
    """
    _check_chain(d, e, interior, tags)
    u, w = d.edges[e]
    pu, pw = d.positions[u], d.positions[w]
    a = _oriented(d.arcs[e], pu, 1e-6 * max(1.0, abs(pu), abs(pw)))
    part = LombardiDrawing({u: pu, w: pw})
    _lay_chain(part, a, [u, *interior, w], tags)
    _replace_edge(d, e, part)


def attach_bridge_stubs(d: LombardiDrawing, e, seq: list, tags: list, stubs: dict) -> None:
    """Replace edge ``e`` of ``d``, in place, by a chain whose vertices in ``stubs`` carry bridge stubs.

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
    Unverified.  Input that ``_check_chain`` refuses (stub tags
    included), a chain with other ends than e's, and a key of ``stubs``
    that is not strictly inside the chain raise DrawingError before
    ``d`` changes, as does a failure to lay the chain out.
    """
    _check_chain(d, e, seq[1:-1], tags, stubs.values())
    u, w = d.edges[e]
    if (seq[0], seq[-1]) != (u, w):
        raise DrawingError(f"chain does not run from {u!r} to {w!r}")
    if not set(stubs) <= set(seq[1:-1]):
        raise DrawingError("a stub vertex is not inside the chain")
    cuts = [0] + [i for i in range(1, len(seq) - 1) if seq[i] in stubs] + [len(seq) - 1]
    k = len(cuts) - 2
    pu, pw = d.positions[u], d.positions[w]
    scale = max(1.0, abs(pu), abs(pw))
    a = _oriented(d.arcs[e], pu, 1e-6 * scale)
    rot = cmath.exp(1j * math.pi / 6)
    inset = arc_with_tangent(pu, pw, a.tangent_direction(pu, tol=1e-6 * scale) * rot)
    pts = [pu] + [_arc_point(inset, j / (k + 1)) for j in range(1, k + 1)] + [pw]
    arcs = [arc_with_tangent(pts[j], pts[j + 1], _forward_tangent(inset, pts[j]) / rot) for j in range(k + 1)]
    junction_stubs = []
    for j, i in enumerate(cuts[1:-1], 1):
        z = pts[j]
        length = 0.3 * min(abs(pts[j + 1] - z), abs(z - pts[j - 1]))
        junction_stubs.append((seq[i], 1j * _forward_tangent(inset, z), stubs[seq[i]], length))
    part = LombardiDrawing({u: pu, w: pw} | dict(zip((seq[i] for i in cuts[1:-1]), pts[1:-1])))
    for arc, lo, hi in zip(arcs, cuts, cuts[1:]):
        _lay_chain(part, arc, seq[lo : hi + 1], tags[lo:hi])
    _replace_edge(d, e, _add_stubs(part, junction_stubs))


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
    side is mapped once, by the inversion at its leaf followed by a
    similarity, composed into one map: the inversion sends the side's
    copy of the bridge to an exterior ray, and the similarity aligns the
    rays on the x-axis pointing at each other, with each side's anchor at
    -2 or 2 and the side's extent 1.  That extent is read off point
    images under the inversion: the vertices and each arc's witness.  The
    bridge becomes the straight segment between the two anchors.
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
        inv = inversion(Circle(z0, r))
        images = {v: inv.apply(z) for v, z in d.positions.items() if v != leaf}
        for v, z in images.items():
            if is_inf(z):
                raise DrawingError(f"vertex {v!r} maps to infinity")
        a_img = images[anchor]
        # the bridge arc inverts to a ray from the anchor's image, leaving
        # along the stub's tangent t there reflected in the inversion circle:
        # -e^(2i phi) conj(t) for za - z0 = r e^(i phi) (not the chord)
        t = d.arcs[bridge].tangent_direction(za, tol=1e-6 * max(1.0, abs(za)))
        direction = -(((za - z0) / r) ** 2) * t.conjugate()
        body = [t for t in d.arcs if t != bridge]
        interior = [inv.apply(d.arcs[t].witness) for t in body]
        extent = max([abs(z - a_img) for z in (*images.values(), *interior) if not is_inf(z)] + [1e-9])
        sc = sign / direction / extent
        m = mobius_scale_translate(sc, -2.0 * sign - sc * a_img).compose(inv)
        positions.update((v, m.apply(z)) for v, z in d.positions.items() if v != leaf)
        arcs.update((t, m.apply_arc(d.arcs[t])) for t in body)
        edges.update((t, d.edges[t]) for t in body)
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


def _spqr_drawing(node: SpqrNode, outer_face: int | None) -> LombardiDrawing:
    """Draw the SPQR decomposition rooted at ``node``: a P node as the
    canonical bond, an R node by ``draw_3connected`` and an S node by
    gluing the drawings of its sides.  Only an R node given an
    ``outer_face`` (only ever the root) draws that face outermost and is
    labelled with it; every other drawing is unlabelled."""
    sk = node.skeleton
    if node.kind == "P":
        u = sk.vertices[0]
        return p_node_drawing((u, sk.other_end(sk.rot[u][0], u)), list(sk.rot[u]))
    if node.kind == "R":
        if outer_face is not None:
            return draw_3connected(sk, outer_face)
        d = draw_3connected(sk)
        d.outer_face = None  # face 0 is outermost, but no face was asked for
        return d
    return glue_s_node({t: _spqr_drawing(side, None) for t, side in node.sides.items()}, sk)


def _block_drawing(piece: PlanarGraph, stub_of: dict, outer_face: int) -> LombardiDrawing:
    """Draw one bridgeless block whose vertices in ``stub_of`` carry a
    stub tagged ``stub_of[v]`` for their bridge.  ``outer_face``, a face
    of ``piece``, reaches an R node at the root only when the block has
    no stubs and no chains, as its faces are then that node's faces.
    Each chain replaces its edge of the block's drawing in place, through
    ``subdivide_arc`` or ``attach_bridge_stubs``."""
    h, chains = piece.suppress_degree_two()
    d = _spqr_drawing(spqr(h), None if chains or stub_of else outer_face)
    for chain_tag, (seq, tags) in chains.items():
        # junctions are laid out from the drawing's first edge endpoint;
        # flip the chain if the drawing stores the edge the other way
        if d.edges[chain_tag] != (seq[0], seq[-1]):
            seq, tags = seq[::-1], tags[::-1]
        stubs = {x: stub_of[x] for x in seq[1:-1] if x in stub_of}
        if stubs:
            attach_bridge_stubs(d, chain_tag, seq, tags, stubs)
        else:
            subdivide_arc(d, chain_tag, seq[1:-1], tags)
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
def draw_subcubic(g: PlanarGraph, outer_face: int = 0, angle_tol: float = ANGLE_TOL) -> LombardiDrawing:
    """Planar Lombardi drawing of any connected planar graph of max degree 3.

    Bridges are deleted and each remaining 2-edge-connected piece is
    drawn on its own (SPQR gluing for blocks, circles, teardrops and
    polygons for cycles, a lone vertex for a piece of one vertex, with
    stubs marking bridge attachments); the pieces are then joined back
    along the bridges.
    The drawing carries ``g``'s own vertex names and edge tags.  Face
    ``outer_face`` of ``g`` (GraphError when there is no such face; a
    lone vertex has one, the plane) is drawn outermost only when ``g`` is
    3-connected and cubic, and only then is the drawing labelled with it;
    otherwise its ``outer_face`` is None.  Only the joined drawing is
    verified, against ``g`` with angle tolerance ``angle_tol``:
    DrawingError if it fails (also for a geometric ValueError on the
    way), else the report is kept as ``report`` on the returned drawing.
    """
    if not g.vertices:
        raise GraphError("input graph is empty")
    if not g.is_connected():
        raise GraphError("input graph is disconnected")
    for v in g.vertices:
        if g.degree(v) > 3:
            raise GraphError(f"vertex {v!r} has degree {g.degree(v)} > 3")
    if not 0 <= outer_face < max(1, len(g.faces())):
        raise GraphError(f"outer face index {outer_face} out of range")
    bridges = set(g.bridges())
    # a PlanarGraph is not written to after construction (bar its
    # caches), so a bridgeless input and a lone piece are drawn uncopied
    core = g.without_edges(bridges) if bridges else g
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
        piece = core.subgraph(comp) if len(comps) > 1 else core
        # a vertex on a piece of two or more vertices has at most one bridge
        stub_of = {v: bridge_at[v][0] for v in comp if bridge_at[v]}
        if all(piece.degree(v) == 2 for v in comp):
            piece_drawings[idx] = _cycle_drawing(piece, stub_of)
        else:
            piece_drawings[idx] = _block_drawing(piece, stub_of, outer_face)

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

        t = min(todo, key=_cost)  # ties: the first in g.edges, sorted by repr
        todo.remove(t)
        u, w = g.endpoints(t)
        ra, rb = cluster_of[piece_of[u]], cluster_of[piece_of[w]]
        if ra == rb:
            raise DrawingError("bridge endpoints in the same glued cluster")
        piece_drawings[ra] = glue_bridge(piece_drawings[ra], piece_drawings[rb], t, (u, w))
        for i, r in list(cluster_of.items()):
            if r == rb:
                cluster_of[i] = ra
    return _check(piece_drawings[cluster_of[piece_of[g.vertices[0]]]], g, angle_tol)


# ---------------------------------------------------------------------------
# Medial graphs of polyhedral graphs


@_drawing_errors
def draw_medial(g: PlanarGraph, angle_tol: float = ANGLE_TOL) -> LombardiDrawing:
    """Lombardi drawing of the medial graph of a 3-connected planar graph.

    A primal-dual circle packing puts one vertex circle per vertex and
    one orthogonal face circle per face, crossing at the edge points;
    the medial vertices are those crossing points and each medial edge
    is the bisector arc of its vertex-face lune, meeting both circles
    at 45 degrees so that the four arc-ends at each degree-4 vertex are
    spaced at 90 degrees.  Each corner arc keeps the support of
    ``lune_bisector`` (one circle image) and its witness, the bisector's
    midpoint, and takes the packing's crossing points as its ends.  The
    drawing is verified against the medial graph with angle tolerance
    ``angle_tol`` before it is returned, and a geometric ValueError is
    re-raised as DrawingError, as in ``draw_subcubic``.
    """
    if not is_three_connected(g):
        raise GraphError("medial drawings require a 3-connected (polyhedral) input graph")
    pdp = primal_dual_pack(g)
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
            # the packing's crossing points become the ends; the
            # bisector's witness, its midpoint, stays inside the lune
            x1, x2 = pdp.crossing[e1], pdp.crossing[e2]
            line = isinstance(bis.support, Line)
            arcs[tag] = segment(x1, x2) if line else Arc(bis.support, x1, x2, bis.witness)
            edges[tag] = (mname[e1], mname[e2])
    d = LombardiDrawing(positions, arcs, edges, None)
    return _check(d, med, angle_tol)


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


# the layout of ``json.dumps(to_json(d), indent=2)``, one record per %
# operation; %r of a float is the text ``json`` writes for a finite one
_JSON_VERTEX = """{
      "id": %s,
      "x": %r,
      "y": %r
    }"""
_JSON_EDGE = """{
      "id": %%s,
      "u": %%s,
      "w": %%s,
      "support": {
        "kind": "%s",
        "%s": %%r,
        "%s": %%r,
        "%s": %%r
      },
      "px": %%r,
      "py": %%r,
      "qx": %%r,
      "qy": %%r,
      "wx": %%r,
      "wy": %%r
    }"""
_JSON_CIRCLE_EDGE = _JSON_EDGE % ("circle", "cx", "cy", "r")
_JSON_LINE_EDGE = _JSON_EDGE % ("line", "nx", "ny", "offset")


def _check_finite(xs: tuple) -> None:
    """ValueError for the first of ``xs`` that is not finite."""
    for x in xs:
        if not math.isfinite(x):
            raise ValueError(f"{x!r} has no JSON text")


def _json_list(items: list[str], indent: str) -> str:
    """A JSON array of already laid out items, closed at ``indent``."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def _json_value(x, indent: str) -> str:
    """A tag or scalar of a ``to_json`` dict, as ``json.dumps(indent=2)``
    lays it out at ``indent``."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if type(x) is int:
        return int.__repr__(x)
    if isinstance(x, list):
        inner = indent + "  "
        return _json_list([encode_basestring_ascii(v) if type(v) is str else _json_value(v, inner) for v in x], indent)
    if isinstance(x, float):
        _check_finite((x,))
        return float.__repr__(x)
    return json.dumps(x)  # bool, None and int subclasses; TypeError for the rest, as json's


def json_text(obj: dict) -> str:
    """``json.dumps(obj, indent=2)`` for a dict in ``to_json``'s layout,
    except that a non-finite number raises ValueError instead of being
    written as NaN or Infinity.

    Each vertex and edge is one % operation; each distinct str tag is
    encoded once.  A record's numbers are checked by one finite sum
    (a sum that overflows is checked number by number).
    """
    encode = functools.cache(encode_basestring_ascii)

    def tag(x) -> str:
        return encode(x) if type(x) is str else _json_value(x, "      ")

    verts = []
    for v in obj["vertices"]:
        i, xy = tag(v["id"]), (v["x"], v["y"])
        if not math.isfinite(sum(xy)):
            _check_finite(xy)
        verts.append(_JSON_VERTEX % (i, *xy))
    edges = []
    for e in obj["edges"]:
        s = e["support"]
        if s["kind"] == "circle":
            record, support = _JSON_CIRCLE_EDGE, (s["cx"], s["cy"], s["r"])
        else:
            record, support = _JSON_LINE_EDGE, (s["nx"], s["ny"], s["offset"])
        if not math.isfinite(sum(support)):
            _check_finite(support)
        tags = tag(e["id"]), tag(e["u"]), tag(e["w"])
        ends = e["px"], e["py"], e["qx"], e["qy"], e["wx"], e["wy"]
        if not math.isfinite(sum(ends)):
            _check_finite(ends)
        edges.append(record % (*tags, *support, *ends))
    return '{\n  "vertices": %s,\n  "edges": %s,\n  "outer_face": %s\n}' % (
        _json_list(verts, "  "),
        _json_list(edges, "  "),
        _json_value(obj["outer_face"], "  "),
    )


def from_json(obj: dict) -> LombardiDrawing:
    """Inverse of ``to_json``; raises ``ValueError`` on an inconsistent dump,
    such as one that repeats a vertex or edge id."""
    positions = {}
    for v in obj["vertices"]:
        tag = _tag_from_json(v["id"])
        if tag in positions:
            raise ValueError(f"vertex {tag!r} appears twice")
        positions[tag] = complex(v["x"], v["y"])
    arcs = {}
    edges = {}
    for e in obj["edges"]:
        tag = _tag_from_json(e["id"])
        if tag in arcs:
            raise ValueError(f"edge {tag!r} appears twice")
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
