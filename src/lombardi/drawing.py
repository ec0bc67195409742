"""Assembly and verification of planar Lombardi drawings.

A Lombardi drawing places vertices at points and draws every edge as a
circular arc (straight segments are arcs of Line supports) so that the
arc-ends around each vertex are equally spaced at 2*pi/deg.  This
module builds such drawings for 3-connected cubic planar graphs from a
circle packing of the dual, extends them to arbitrary subcubic planar
graphs by SPQR-tree and bridge gluing, and draws medial graphs of
polyhedral graphs from a primal-dual circle packing.  Every
construction is checked by an explicit geometric verifier before it is
returned.
"""

from __future__ import annotations

import cmath
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
    is_inf,
    isodynamic_points,
    lune_bisector,
    mobius_from_triples,
    mobius_scale_translate,
    near,
    same_support,
    segment,
)
from .graph import GraphError, PlanarGraph, is_three_connected, spqr
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
    of the source graph's embedding.
    """

    positions: dict[str, complex]
    arcs: dict = field(default_factory=dict)
    edges: dict = field(default_factory=dict)
    outer_face: int | None = None

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


def _arcs_overlap_on_support(a1: Arc, a2: Arc, tol_len: float) -> bool:
    """Whether two arcs on the same support share more than endpoints."""
    if isinstance(a1.support, Circle):
        r = a1.support.radius
        ov = _circular_overlap(_interval_of(a1), _interval_of(a2))
        return ov * r > tol_len
    i1 = _line_coord_interval(a1)
    i2 = _line_coord_interval(a2, frame=a1.support)
    if i1 is None or i2 is None:
        return True  # unbounded overlap candidates: treat as crossing
    lo = max(i1[0], i2[0])
    hi = min(i1[1], i2[1])
    return hi - lo > tol_len


def verify(
    d: LombardiDrawing,
    g: PlanarGraph | None = None,
    tol_angle: float = 1e-6,
    tol_geom: float = 1e-9,
) -> VerificationReport:
    """Check the Lombardi drawing invariants and report residuals.

    Criteria: (a) every arc's endpoints coincide with its vertices'
    positions; (b) at every vertex the sorted tangent directions of the
    incident arc-ends are equally spaced at 2*pi/deg; (c) no two arcs
    intersect except at shared endpoints; (d) vertex positions are
    pairwise distinct.  When ``g`` is given, the drawing's vertex and
    edge sets must match it.
    """
    rep = VerificationReport()
    if g is not None:
        if set(g.vertices) != set(d.positions):
            raise DrawingError("drawing and graph have different vertex sets")
        if set(g.edges) != set(d.arcs):
            raise DrawingError("drawing and graph have different edge sets")
    if set(d.arcs) != set(d.edges):
        raise DrawingError("drawing arcs and edge endpoints disagree")

    pos = d.positions
    scale = 1.0
    if pos:
        vals = list(pos.values())
        scale = max(1.0, max(abs(z - vals[0]) for z in vals))
    tol_pt = tol_geom * scale
    match_tol = max(1e-6 * scale, 10 * tol_pt)

    # (a) endpoint coincidence
    for t, (u, w) in d.edges.items():
        a = d.arcs[t]
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

    # (c) pairwise non-crossing except at shared endpoints
    tags = list(d.arcs)
    for i in range(len(tags)):
        for j in range(i + 1, len(tags)):
            t1, t2 = tags[i], tags[j]
            a1, a2 = d.arcs[t1], d.arcs[t2]
            shared = set(d.edges[t1]) & set(d.edges[t2])
            shared_pts = [pos[v] for v in shared]
            if same_support(a1.support, a2.support, 1e-9):
                if _arcs_overlap_on_support(a1, a2, match_tol):
                    rep.crossings.append((t1, t2))
                continue
            # intersection coordinates on a huge-radius support carry
            # absolute noise of order radius * machine epsilon; widen the
            # shared-endpoint exclusion zone to cover it
            noise = 0.0
            for a in (a1, a2):
                if isinstance(a.support, Circle):
                    noise = max(noise, a.support.radius * 1e-14)
            exclude = max(match_tol, noise)
            for x in arc_intersections(a1, a2, tol=tol_pt):
                if is_inf(x):
                    continue
                if any(abs(x - s) <= exclude for s in shared_pts):
                    continue
                rep.crossings.append((t1, t2))
                break
    rep.noncrossing_ok = not rep.crossings

    # (d) distinct vertex positions
    names = list(pos)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            if abs(pos[names[i]] - pos[names[j]]) <= tol_pt:
                rep.coincident.append((names[i], names[j]))
    rep.distinct_ok = not rep.coincident
    return rep


def _check(d: LombardiDrawing, g: PlanarGraph | None = None, tol_angle: float = 1e-6) -> LombardiDrawing:
    rep = verify(d, g, tol_angle=tol_angle)
    if not rep.passed:
        raise DrawingError(f"drawing failed verification: {rep.summary()}")
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


_CONJ = Mobius(1, 0, 0, 1, conj=True)


def mirror(d: LombardiDrawing) -> LombardiDrawing:
    """Reflect the drawing across the real axis (reverses orientation)."""
    return transform(d, _CONJ)


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
    opt_step_tol: float = 1e-9,
) -> LombardiDrawing:
    """Planar Lombardi drawing of a 3-connected cubic planar graph.

    Pipeline: pack the dual triangulation, turn it inside out so the
    designated outer face's circle becomes the unit circle, optimize
    the smallest radius over disk automorphisms, then place vertices at
    isodynamic points and edges through tangency points.
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
    m, _ = optimize_min_radius(norm, step_tol=opt_step_tol)
    norm = apply_to_normalized(norm, m)
    d = drawing_from_packing(g, norm, face_name, outer_face)
    return _check(d, g)


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
    d = LombardiDrawing({u: a, w: b}, arcs, {t: (u, w) for t in tags}, None)
    return _check(d)


def _is_virtual(tag) -> bool:
    return isinstance(tag, tuple) and len(tag) > 0 and tag[0] == "virt"


def glue_s_node(
    components: list[tuple[LombardiDrawing, object]],
    cycle: PlanarGraph,
    eps: float = 0.05,
) -> LombardiDrawing:
    """Glue component drawings around an S-node cycle on the unit circle.

    Each component's virtual arc is expanded to a near-full circle and
    mapped onto the unit circle across a private angular sector; the
    virtual arcs are deleted and the cycle's real edges become the
    short unit-circle arcs joining consecutive components, continuing
    the deleted arcs' tangents exactly.
    """
    if len(components) < 2:
        raise DrawingError("an S node has at least two virtual edges and components")
    comp_of = {t: d for d, t in components}
    if len(comp_of) != len(components):
        raise DrawingError("duplicate virtual tags among components")
    walk = cycle.faces()[0]
    tags = [cycle.dart_tag(dd) for dd in walk]
    tails = [dd[0] for dd in walk]
    n = len(walk)
    if set(t for t in tags if _is_virtual(t)) != set(comp_of):
        raise DrawingError("components do not match the cycle's virtual edges")
    start = next(i for i, t in enumerate(tags) if _is_virtual(t))
    tags = tags[start:] + tags[:start]
    tails = tails[start:] + tails[:start]
    if any(_is_virtual(tags[i]) != (i % 2 == 0) for i in range(n)):
        raise DrawingError("S cycle does not alternate virtual and real edges")
    k = n // 2

    weights = [max(1, len(comp_of[tags[2 * i]].arcs)) for i in range(k)]
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

    last_err: Exception | None = None
    for eps_try in (eps, eps / 4, eps / 16):
        try:
            positions: dict[str, complex] = {}
            arcs: dict = {}
            edges: dict = {}
            for i in range(k):
                t = tags[2 * i]
                u_i, w_i = tails[2 * i], tails[2 * i + 1]
                comp = comp_of[t]
                if set(comp.edges[t]) != {u_i, w_i}:
                    raise DrawingError(f"component for {t!r} has mismatched endpoints")
                a_i, b_i = starts[i], starts[i] + widths[i]
                placed = None
                for use_mirror in (False, True):
                    src = mirror(comp) if use_mirror else comp
                    ex = expand_virtual_edge(src, t, eps_try)
                    arc = ex.arcs[t]
                    pu, pw = ex.positions[u_i], ex.positions[w_i]
                    m = mobius_from_triples(
                        (pu, arc.midpoint(), pw),
                        (unit(a_i), -unit((a_i + b_i) / 2), unit(b_i)),
                    )
                    cand = transform(ex, m)
                    # the body must stay in this component's angular
                    # wedge (it may extend beyond the unit circle); the
                    # final verification is the authoritative check
                    ok = True
                    for v, z in cand.positions.items():
                        if v in (u_i, w_i):
                            continue
                        off = (cmath.phase(z) - a_i) % _TWO_PI
                        if off > widths[i] + gap / 2:
                            ok = False
                            break
                    if ok:
                        placed = cand
                        break
                if placed is None:
                    raise DrawingError(f"component for {t!r} overflows its sector")
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
            return _check(LombardiDrawing(positions, arcs, edges, None))
        except DrawingError as err:
            last_err = err
    raise DrawingError(f"S-node gluing failed: {last_err}")


def subdivide_arc(d: LombardiDrawing, e, interior: list[str]) -> LombardiDrawing:
    """Split edge ``e`` into equal sub-arcs at new degree-2 vertices.

    The k interior vertices are placed at equal subtended angles along
    the arc; every new vertex sees its two sub-arcs continue smoothly
    at 180 degrees on the same support.
    """
    if not interior:
        return d
    if e not in d.arcs:
        raise DrawingError(f"edge {e!r} is not in the drawing")
    for x in interior:
        if x in d.positions:
            raise DrawingError(f"subdivision vertex {x!r} already exists")
    u, w = d.edges[e]
    scale = max(1.0, abs(d.positions[u]), abs(d.positions[w]))
    a = _oriented(d.arcs[e], d.positions[u], 1e-6 * scale)
    k = len(interior)
    seq = [u] + list(interior) + [w]
    pts = [d.positions[u]]
    for j in range(1, k + 1):
        pts.append(_arc_point(a, j / (k + 1)))
    pts.append(d.positions[w])
    positions = dict(d.positions)
    for name, z in zip(interior, pts[1 : k + 1]):
        positions[name] = z
    arcs = {t: aa for t, aa in d.arcs.items() if t != e}
    edges = {t: ee for t, ee in d.edges.items() if t != e}
    for j in range(k + 1):
        wit = _arc_point(a, (2 * j + 1) / (2 * (k + 1)))
        tag = ("e",) + tuple(sorted((seq[j], seq[j + 1])))
        arcs[tag] = Arc(a.support, pts[j], pts[j + 1], wit)
        edges[tag] = (seq[j], seq[j + 1])
    return _check(LombardiDrawing(positions, arcs, edges, d.outer_face))


def attach_bridge_stubs(
    d: LombardiDrawing,
    e,
    face: int = 1,
    k: int = 1,
    junction_names: list[str] | None = None,
    stub_tags: list | None = None,
    stub_scale: float = 0.3,
) -> LombardiDrawing:
    """Replace edge ``e`` by a chain of arcs carrying bridge stubs.

    An inset arc A through e's endpoints meets e at 30 degrees on the
    chosen side (``face`` > 0 is the left of the arc directed from the
    smaller endpoint).  k junction vertices sit on A at equal subtended
    spacing; the k+1 replacement arcs each meet A at 30 degrees, so
    consecutive arcs meet each other at 120 degrees, and a straight
    stub leaves each junction along the remaining trisector to a new
    degree-1 vertex.  Stubs shrink by halves if they collide.
    """
    if k == 0:
        return d
    if e not in d.arcs:
        raise DrawingError(f"edge {e!r} is not in the drawing")
    if junction_names is None:
        junction_names = [f"j{i}" for i in range(k)]
    if stub_tags is None:
        stub_tags = [("stub-edge", e, i) for i in range(k)]
    if len(junction_names) != k or len(stub_tags) != k:
        raise DrawingError("need one junction name and one stub tag per stub")
    for x in junction_names:
        if x in d.positions:
            raise DrawingError(f"junction vertex {x!r} already exists")
    s = 1.0 if face > 0 else -1.0
    u, w = d.edges[e]
    pu, pw = d.positions[u], d.positions[w]
    scale = max(1.0, abs(pu), abs(pw))
    a = _oriented(d.arcs[e], pu, 1e-6 * scale)
    rot = cmath.exp(1j * math.pi / 6 * s)
    t_u = a.tangent_direction(pu, tol=1e-6 * scale)
    inset = arc_with_tangent(pu, pw, t_u * rot)
    pts = [pu] + [_arc_point(inset, j / (k + 1)) for j in range(1, k + 1)] + [pw]
    chain_arcs = []
    for j in range(k + 1):
        tang = _forward_tangent(inset, pts[j]) / rot
        chain_arcs.append(arc_with_tangent(pts[j], pts[j + 1], tang))
    seq = [u] + list(junction_names) + [w]
    positions = dict(d.positions)
    arcs = {t: aa for t, aa in d.arcs.items() if t != e}
    edges = {t: ee for t, ee in d.edges.items() if t != e}
    for j in range(k + 1):
        tag = ("e",) + tuple(sorted((seq[j], seq[j + 1])))
        arcs[tag] = chain_arcs[j]
        edges[tag] = (seq[j], seq[j + 1])
    stubs = []
    for i, name in enumerate(junction_names):
        z = pts[i + 1]
        positions[name] = z
        length = stub_scale * min(abs(pts[i + 2] - z), abs(z - pts[i]))
        stubs.append((name, 1j * _forward_tangent(inset, z) * s, stub_tags[i], length))
    return _add_stubs(LombardiDrawing(positions, arcs, edges, d.outer_face), stubs)


def claw_drawing(
    center: str = "c",
    leaves: tuple[str, str, str] = ("l0", "l1", "l2"),
    tags: list | None = None,
) -> LombardiDrawing:
    """K_{1,3}: three unit segments from the origin at 120-degree spacing."""
    if tags is None:
        tags = [("e",) + tuple(sorted((center, x))) for x in leaves]
    positions = {center: 0j}
    arcs = {}
    edges = {}
    for i, (leaf, tag) in enumerate(zip(leaves, tags)):
        z = cmath.exp(1j * (math.pi / 2 + i * _TWO_PI / 3))
        positions[leaf] = z
        arcs[tag] = segment(0j, z)
        edges[tag] = (center, leaf)
    return _check(LombardiDrawing(positions, arcs, edges, None))


def glue_bridge(dA: LombardiDrawing, dB: LombardiDrawing, bridge) -> LombardiDrawing:
    """Join two block drawings along their shared bridge edge.

    Each side is inverted at its degree-1 bridge endpoint, sending its
    copy of the bridge to an exterior ray; the rays are aligned on the
    x-axis pointing at each other and the bridge becomes the straight
    segment between the two attachment vertices.
    """
    if dA is dB:
        raise DrawingError("cannot glue a drawing to itself")
    if set(dA.positions) & set(dB.positions):
        raise DrawingError("block drawings share vertices")
    sides = []
    for d in (dA, dB):
        if bridge not in d.arcs:
            raise DrawingError(f"bridge {bridge!r} missing from a block drawing")
        u, w = d.edges[bridge]
        deg = {v: d.degree(v) for v in (u, w)}
        if deg[w] == 1 and deg[u] != 1:
            anchor, leaf = u, w
        elif deg[u] == 1 and deg[w] != 1:
            anchor, leaf = w, u
        else:
            # both degree 1 (a bare stub): the generated leaf is tagged
            leaf = w if isinstance(w, tuple) and w and w[0] == "stub" else u
            anchor = u if leaf == w else w
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
        sides.append((body, anchor, a_img, direction, extent))

    last_err: Exception | None = None
    for t_sep in (2.0, 4.0, 8.0):
        positions: dict[str, complex] = {}
        arcs: dict = {}
        edges: dict = {}
        anchors = []
        for idx, (body, anchor, a_img, direction, extent) in enumerate(sides):
            target_dir = 1.0 if idx == 0 else -1.0
            target_pos = -t_sep if idx == 0 else t_sep
            sc = target_dir / direction / extent
            m = mobius_scale_translate(sc, target_pos - sc * a_img)
            placed = transform(body, m)
            positions.update(placed.positions)
            arcs.update(placed.arcs)
            edges.update(placed.edges)
            anchors.append(anchor)
        arcs[bridge] = segment(positions[anchors[0]], positions[anchors[1]])
        edges[bridge] = (anchors[0], anchors[1])
        out = LombardiDrawing(positions, arcs, edges, None)
        try:
            return _check(out)
        except DrawingError as err:
            last_err = err
    raise DrawingError(f"bridge gluing failed to separate the blocks: {last_err}")


# ---------------------------------------------------------------------------
# General subcubic graphs


def _cycle_order(piece: PlanarGraph) -> list[str]:
    start = piece.vertices[0]
    order = [start]
    prev = None
    cur = start
    while True:
        nxt = [x for x in piece.neighbors(cur) if x != prev]
        step = nxt[0] if nxt else prev
        if step == start:
            break
        order.append(step)
        prev, cur = cur, step
    return order


def _cycle_tag(piece: PlanarGraph, u: str, w: str):
    for t in piece.rot[u]:
        if piece.other_end(t, u) == w:
            return t
    raise GraphError(f"no edge between {u!r} and {w!r}")


def _bare_cycle_drawing(piece: PlanarGraph) -> LombardiDrawing:
    order = _cycle_order(piece)
    n = len(order)
    circ = Circle(0j, 1.0)
    positions = {v: cmath.exp(1j * _TWO_PI * i / n) for i, v in enumerate(order)}
    arcs = {}
    edges = {}
    for i, v in enumerate(order):
        w = order[(i + 1) % n]
        t = _cycle_tag(piece, v, w)
        wit = cmath.exp(1j * _TWO_PI * (i + 0.5) / n)
        arcs[t] = Arc(circ, positions[v], positions[w], wit)
        edges[t] = (v, w)
    return _check(LombardiDrawing(positions, arcs, edges, None))


def _add_stubs(d: LombardiDrawing, stubs: list[tuple[str, complex, object, float]]) -> LombardiDrawing:
    """Attach straight degree-1 stubs jointly, shrinking on collision.

    ``stubs`` holds (vertex, unit direction, edge tag, length) entries;
    the combined drawing must verify, with stub lengths halved together
    as long as the only failures are collisions involving stubs.
    """
    lengths = [L for (_, _, _, L) in stubs]
    tags = [t for (_, _, t, _) in stubs]
    for _ in range(12):
        positions = dict(d.positions)
        arcs = dict(d.arcs)
        edges = dict(d.edges)
        for (v, direction, tag, _), L in zip(stubs, lengths):
            leaf = ("stub", tag, v)
            positions[leaf] = d.positions[v] + L * direction
            arcs[tag] = segment(d.positions[v], positions[leaf])
            edges[tag] = (v, leaf)
        out = LombardiDrawing(positions, arcs, edges, d.outer_face)
        rep = verify(out)
        if rep.passed:
            return out
        stub_only = rep.crossings and all(c[0] in tags or c[1] in tags for c in rep.crossings)
        if stub_only and rep.angles_ok and rep.endpoint_ok and rep.distinct_ok:
            lengths = [L / 2 for L in lengths]
            continue
        raise DrawingError(f"stub attachment failed: {rep.summary()}")
    raise DrawingError("stubs could not avoid collisions")


def _teardrop_drawing(piece: PlanarGraph, hub: str, stub_tag) -> LombardiDrawing:
    """A cycle with exactly one stub-carrying vertex, drawn as a teardrop.

    The hub sits at the origin with the stub pointing along -x and the
    two cycle ends leaving at +-60 degrees; they wrap around a middle
    circle whose top and bottom are the smooth junction vertices.
    """
    order = _cycle_order(piece)
    i = order.index(hub)
    order = order[i:] + order[:i]
    interior = order[1:]
    if len(interior) < 2:
        raise GraphError("a cycle block has at least three vertices")
    R = 1.0 / math.sqrt(3.0)
    ja = complex(math.sqrt(3.0) * R, R)
    jb = complex(math.sqrt(3.0) * R, -R)
    c1 = Circle(complex(math.sqrt(3.0) * R, -R), 2 * R)
    c2 = Circle(complex(math.sqrt(3.0) * R, 0.0), R)
    c3 = Circle(complex(math.sqrt(3.0) * R, R), 2 * R)
    x1, xm = interior[0], interior[-1]
    middle = interior[1:-1]
    # the middle arc is a real edge only for a triangle; otherwise it is
    # a placeholder later subdivided at the remaining cycle vertices
    mid_tag = ("seg", x1, xm) if middle else _cycle_tag(piece, x1, xm)
    positions = {hub: 0j, x1: ja, xm: jb}
    arcs = {
        _cycle_tag(piece, hub, x1): Arc(c1, 0j, ja, c1.center + 2 * R * cmath.exp(2j * math.pi / 3)),
        mid_tag: Arc(c2, ja, jb, c2.center + R),
        _cycle_tag(piece, xm, hub): Arc(c3, jb, 0j, c3.center + 2 * R * cmath.exp(-2j * math.pi / 3)),
    }
    edges = {
        _cycle_tag(piece, hub, x1): (hub, x1),
        mid_tag: (x1, xm),
        _cycle_tag(piece, xm, hub): (xm, hub),
    }
    d = LombardiDrawing(positions, arcs, edges, None)
    d = _add_stubs(d, [(hub, -1.0 + 0j, stub_tag, 0.3 * abs(ja))])
    if middle:
        d = subdivide_arc(d, mid_tag, middle)
    return d


def _polygon_cycle_drawing(piece: PlanarGraph, hubs: list[str], stub_tags: dict) -> LombardiDrawing:
    """A cycle with k >= 2 stub vertices, drawn around a regular k-gon.

    Stub vertices sit on the unit circle with radial stubs; the cycle
    arcs between them leave each vertex at 120 degrees from the radial
    direction, giving the 120/120/120 split everywhere.
    """
    order = _cycle_order(piece)
    hub_set = set(hubs)
    i0 = next(i for i, v in enumerate(order) if v in hub_set)
    order = order[i0:] + order[:i0]
    hub_seq = [v for v in order if v in hub_set]
    k = len(hub_seq)
    hub_pos = {v: cmath.exp(1j * _TWO_PI * j / k) for j, v in enumerate(hub_seq)}
    # split the cycle order into segments between consecutive hubs
    segments = []  # (hub_from, [interior...], hub_to)
    cuts = [i for i, v in enumerate(order) if v in hub_set]
    for a, b in zip(cuts, cuts[1:] + [len(order)]):
        seg = order[a:b]
        nxt = order[(b) % len(order)]
        segments.append((seg[0], seg[1:], nxt))
    positions = {v: hub_pos[v] for v in hub_seq}
    arcs = {}
    edges = {}
    pending = []  # (tag, interior names) to subdivide afterwards
    for hub_from, inner, hub_to in segments:
        p, q = hub_pos[hub_from], hub_pos[hub_to]
        tang = p * cmath.exp(2j * math.pi / 3)
        a = arc_with_tangent(p, q, tang)
        if inner:
            tag = ("seg", hub_from, hub_to)
        else:
            tag = _cycle_tag(piece, hub_from, hub_to)
        arcs[tag] = a
        edges[tag] = (hub_from, hub_to)
        if inner:
            pending.append((tag, inner))
    d = LombardiDrawing(positions, arcs, edges, None)
    stubs = []
    for j, v in enumerate(hub_seq):
        chord = abs(hub_pos[v] - hub_pos[hub_seq[(j + 1) % k]])
        stubs.append((v, hub_pos[v] / abs(hub_pos[v]), stub_tags[v], 0.3 * max(chord, 0.5)))
    d = _add_stubs(d, stubs)
    for tag, inner in pending:
        d = subdivide_arc(d, tag, inner)
    return d


def _spqr_block_drawing(h: PlanarGraph, outer_face: int, **kw) -> LombardiDrawing:
    """Draw a 2-edge-connected cubic multigraph via its SPQR tree."""
    tree = spqr(h)
    if len(tree.nodes) == 1:
        node = tree.nodes[0]
        if node.kind == "P":
            u = node.skeleton.vertices[0]
            w = node.skeleton.other_end(node.skeleton.rot[u][0], u)
            return p_node_drawing((u, w), list(node.skeleton.rot[u]))
        return draw_3connected(node.skeleton, outer_face=outer_face, **kw)
    cluster_of: dict[int, int] = {}
    drawings: dict[int, LombardiDrawing] = {}
    for i, node in enumerate(tree.nodes):
        if node.kind == "S":
            continue
        if node.kind == "P":
            u = node.skeleton.vertices[0]
            w = node.skeleton.other_end(node.skeleton.rot[u][0], u)
            drawings[i] = p_node_drawing((u, w), list(node.skeleton.rot[u]))
        else:
            drawings[i] = draw_3connected(node.skeleton, outer_face=0, **kw)
        cluster_of[i] = i
    for i, node in enumerate(tree.nodes):
        if node.kind != "S":
            continue
        virts = [t for t in node.skeleton.edges if _is_virtual(t)]
        comps = []
        roots = []
        for t in virts:
            s_idx, other = tree.links[t]
            if s_idx != i:
                raise GraphError("SPQR link bookkeeping error")
            root = cluster_of[other]
            comps.append((drawings[root], t))
            roots.append(root)
        if len(set(roots)) != len(roots):
            raise DrawingError("SPQR tree cycle detected during gluing")
        merged = glue_s_node(comps, node.skeleton)
        new_root = roots[0]
        drawings[new_root] = merged
        for n_idx, r in list(cluster_of.items()):
            if r in roots:
                cluster_of[n_idx] = new_root
        cluster_of[i] = new_root
    roots = set(cluster_of.values())
    if len(roots) != 1:
        raise DrawingError("SPQR gluing left multiple clusters")
    return drawings[roots.pop()]


def _block_drawing(piece: PlanarGraph, bridge_at: dict, outer_face: int, **kw) -> LombardiDrawing:
    """Draw one bridgeless block, with stubs for its bridge attachments."""
    h, chains = piece.suppress_degree_two()
    pristine = not chains and not any(bridge_at.get(v) for v in piece.vertices)
    d = _spqr_block_drawing(h, outer_face if pristine else 0, **kw)
    for chain_tag, (u, interior, w) in chains.items():
        # junctions are laid out from the drawing's first edge endpoint;
        # flip the chain if the drawing stores the edge the other way
        if d.edges[chain_tag] == (w, u):
            u, w = w, u
            interior = list(reversed(interior))
        bridged = [x for x in interior if bridge_at.get(x)]
        if not bridged:
            d = subdivide_arc(d, chain_tag, interior)
            continue
        stubs = [bridge_at[x][0] for x in bridged]
        placed = None
        last_err: Exception | None = None
        for side in (1, -1):
            try:
                placed = attach_bridge_stubs(
                    d, chain_tag, face=side, k=len(bridged), junction_names=bridged, stub_tags=stubs
                )
                break
            except DrawingError as err:
                last_err = err
        if placed is None:
            raise DrawingError(f"could not attach stubs on chain {chain_tag!r}: {last_err}")
        d = placed
        # restore the bridgeless interior vertices between the junctions
        bounds = [u] + bridged + [w]
        seq = [u] + interior + [w]
        for a, b in zip(bounds, bounds[1:]):
            lo, hi = seq.index(a), seq.index(b)
            between = seq[lo + 1 : hi]
            if between:
                d = subdivide_arc(d, ("e",) + tuple(sorted((a, b))), between)
    return d


def draw_subcubic(g: PlanarGraph, outer_face: int = 0, **kw) -> LombardiDrawing:
    """Planar Lombardi drawing of any connected planar graph of max degree 3.

    Bridges are deleted and each remaining 2-edge-connected piece is
    drawn on its own (SPQR gluing for blocks, circles and teardrops for
    cycles, claws for isolated vertices, with stubs marking bridge
    attachments); the pieces are then joined back along the bridges.
    """
    if not g.is_connected():
        raise GraphError("input graph is disconnected")
    for v in g.vertices:
        if g.degree(v) > 3:
            raise GraphError(f"vertex {v!r} has degree {g.degree(v)} > 3")
    if len(g.vertices) == 1:
        return LombardiDrawing({g.vertices[0]: 0j}, {}, {}, None)

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
            v = comp[0]
            bs = bridge_at[v]
            positions = {v: 0j}
            arcs = {}
            edges = {}
            b = len(bs)
            for j, t in enumerate(bs):
                leaf = ("stub", t, v)
                z = cmath.exp(1j * (math.pi / 2 + j * _TWO_PI / b))
                positions[leaf] = z
                arcs[t] = segment(0j, z)
                edges[t] = (v, leaf)
            piece_drawings[idx] = _check(LombardiDrawing(positions, arcs, edges, None))
            continue
        piece = core.subgraph(comp)
        if all(piece.degree(v) == 2 for v in comp):
            hubs = [v for v in comp if bridge_at[v]]
            if not hubs:
                piece_drawings[idx] = _bare_cycle_drawing(piece)
            elif len(hubs) == 1:
                piece_drawings[idx] = _teardrop_drawing(piece, hubs[0], bridge_at[hubs[0]][0])
            else:
                piece_drawings[idx] = _polygon_cycle_drawing(
                    piece, hubs, {v: bridge_at[v][0] for v in hubs}
                )
        else:
            piece_drawings[idx] = _block_drawing(piece, bridge_at, outer_face, **kw)

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
        merged = glue_bridge(piece_drawings[ra], piece_drawings[rb], t)
        piece_drawings[ra] = merged
        for i, r in list(cluster_of.items()):
            if r == rb:
                cluster_of[i] = ra
    final = piece_drawings[cluster_of[piece_of[g.vertices[0]]]]
    if not bridges and len(comps) == 1:
        final.outer_face = outer_face
    return _check(final, g)


# ---------------------------------------------------------------------------
# Medial graphs of polyhedral graphs


def draw_medial(g: PlanarGraph, pack_tol: float = 1e-10, pack_max_iter: int = 10**6) -> LombardiDrawing:
    """Lombardi drawing of the medial graph of a 3-connected planar graph.

    A primal-dual circle packing puts one vertex circle per vertex and
    one orthogonal face circle per face, crossing at the edge points;
    the medial vertices are those crossing points and each medial edge
    is the bisector arc of its vertex-face lune, meeting both circles
    at 45 degrees so that the four arc-ends at each degree-4 vertex are
    spaced at 90 degrees.
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
    return _check(d, med)


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
    return LombardiDrawing(positions, arcs, edges, obj.get("outer_face"))
