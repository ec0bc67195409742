"""Circle geometry on the extended complex plane.

Points are python complex numbers; the point at infinity is the tagged
singleton ``INF``.  Circles and lines are first-class ("generalized
circles"), and Moebius transformations act on points, circles and arcs.
All tolerances are relative to the scale of the operands.

A Moebius map acts on a generalized circle in one way, in closed form
around its pole (``Mobius.apply_circle``): the support is shifted so the
pole sits at the origin, inverted by z -> 1/z and carried by a
similarity.  Arcs take that support too (``Mobius.apply_arc``) and fall
back to refitting the circle through their three image points only where
the closed form cannot hold them: an image point at INF, or a support so
close to the pole that the reciprocal cancels.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union


class _PointAtInfinity:
    """The unique point at infinity of the extended complex plane."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    def __reduce__(self):
        return (_PointAtInfinity, ())


INF = _PointAtInfinity()

Point = Union[complex, _PointAtInfinity]

#: default tolerance for exact geometric identities
GEOM_TOL = 1e-10


def is_inf(p: Point) -> bool:
    return p is INF or isinstance(p, _PointAtInfinity)


def near(p: Point, q: Point, tol: float = GEOM_TOL) -> bool:
    """Whether two extended points coincide within ``tol`` (absolute)."""
    if is_inf(p) or is_inf(q):
        return is_inf(p) and is_inf(q)
    return abs(p - q) <= tol


@dataclass(frozen=True)
class Circle:
    """A circle with finite center and positive radius."""

    center: complex
    radius: float

    def __post_init__(self):
        if not (self.radius > 0):
            raise ValueError(f"circle radius must be positive, got {self.radius}")

    def point_at(self, theta: float) -> complex:
        return self.center + self.radius * cmath.exp(1j * theta)

    def angle_of(self, z: complex) -> float:
        return cmath.phase(z - self.center)

    def contains(self, p: Point, tol: float = GEOM_TOL) -> bool:
        """Whether ``p`` lies on the circle, within ``tol`` relative to the radius."""
        if is_inf(p):
            return False
        return abs(abs(p - self.center) - self.radius) <= tol * max(self.radius, 1.0)

    def strictly_inside(self, p: Point, tol: float = 0.0) -> bool:
        if is_inf(p):
            return False
        return abs(p - self.center) < self.radius - tol


@dataclass(frozen=True)
class Line:
    """The line { z : Re(conj(normal) * z) == offset } with unit normal."""

    normal: complex
    offset: float

    def __post_init__(self):
        n = abs(self.normal)
        if not (abs(n - 1.0) <= 1e-9):
            raise ValueError("line normal must be a unit vector")

    @property
    def direction(self) -> complex:
        """A unit vector along the line."""
        return 1j * self.normal

    def foot(self) -> complex:
        """The point of the line closest to the origin."""
        return self.normal * self.offset

    def signed_distance(self, z: complex) -> float:
        return (self.normal.conjugate() * z).real - self.offset

    def contains(self, p: Point, tol: float = GEOM_TOL) -> bool:
        if is_inf(p):
            return True  # every line passes through infinity
        scale = max(1.0, abs(p))
        return abs(self.signed_distance(p)) <= tol * scale

    def strictly_inside(self, p: Point, tol: float = 0.0) -> bool:
        # "interior" of a line: the half plane on the side the normal points away from
        if is_inf(p):
            return False
        return self.signed_distance(p) < -tol


GeneralizedCircle = Union[Circle, Line]


def line_through(p: complex, q: complex) -> Line:
    """The line through two distinct finite points."""
    d = q - p
    if abs(d) == 0:
        raise ValueError("line_through needs two distinct points")
    n = (d / abs(d)) * (-1j)  # rotate direction by -90deg to get a normal
    return Line(n, (n.conjugate() * p).real)


def circle_through(p: Point, q: Point, r: Point, tol: float = 1e-12) -> GeneralizedCircle:
    """The generalized circle through three distinct extended points.

    Returns a Line when one of the points is INF or when the three finite
    points are collinear (relative cross-product tolerance ``tol``).
    """
    pts = [p, q, r]
    infs = [x for x in pts if is_inf(x)]
    if len(infs) > 1:
        raise ValueError("at most one of the three points may be INF")
    finite = [x for x in pts if not is_inf(x)]
    for i in range(len(finite)):
        for j in range(i + 1, len(finite)):
            if finite[i] == finite[j]:
                raise ValueError("circle_through needs three distinct points")
    if infs:
        return line_through(finite[0], finite[1])
    a, b, c = finite
    u = b - a
    v = c - a
    cross = (u.conjugate() * v).imag
    if abs(cross) <= tol * abs(u) * abs(v):
        return line_through(a, b)
    # circumcenter via the standard determinant formula
    u2 = abs(u) ** 2
    v2 = abs(v) ** 2
    ux, uy = u.real, u.imag
    vx, vy = v.real, v.imag
    d = 2 * (ux * vy - uy * vx)
    cx = (vy * u2 - uy * v2) / d
    cy = (ux * v2 - vx * u2) / d
    center = a + complex(cx, cy)
    radius = (abs(center - a) + abs(center - b) + abs(center - c)) / 3.0
    return Circle(center, radius)


def _support_distance(s: GeneralizedCircle, z: complex) -> float:
    if isinstance(s, Circle):
        return abs(abs(z - s.center) - s.radius)
    return abs(s.signed_distance(z))


# ---------------------------------------------------------------------------
# Moebius transformations


@dataclass(frozen=True)
class Mobius:
    """z -> (a*w + b) / (c*w + d) where w = conj(z) if conj else z.

    With conj=False this is orientation preserving (a fractional linear
    map); with conj=True it is orientation reversing (e.g. a circle
    inversion or a line reflection).
    """

    a: complex
    b: complex
    c: complex
    d: complex
    conj: bool = False

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        scale = max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))
        if scale == 0 or abs(det) <= 1e-14 * scale * scale:
            raise ValueError("degenerate Moebius coefficients (det ~ 0)")

    # -- point action -------------------------------------------------

    def apply(self, p: Point) -> Point:
        if is_inf(p):
            if self.c == 0:
                return INF
            return self.a / self.c
        z = p.conjugate() if self.conj else p
        den = self.c * z + self.d
        if den == 0:
            return INF
        w = (self.a * z + self.b) / den
        if cmath.isinf(w) or cmath.isnan(w):
            return INF
        return w

    def __call__(self, p: Point) -> Point:
        return self.apply(p)

    # -- algebra -------------------------------------------------------

    def compose(self, inner: "Mobius") -> "Mobius":
        """self after inner: (self.compose(g))(z) == self(g(z))."""
        a1, b1, c1, d1 = inner.a, inner.b, inner.c, inner.d
        if self.conj:
            a1, b1, c1, d1 = (
                a1.conjugate(),
                b1.conjugate(),
                c1.conjugate(),
                d1.conjugate(),
            )
        return Mobius(
            self.a * a1 + self.b * c1,
            self.a * b1 + self.b * d1,
            self.c * a1 + self.d * c1,
            self.c * b1 + self.d * d1,
            conj=self.conj ^ inner.conj,
        )

    def inverse(self) -> "Mobius":
        a, b, c, d = self.d, -self.b, -self.c, self.a
        if self.conj:
            a, b, c, d = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
        return Mobius(a, b, c, d, conj=self.conj)

    # -- action on circles and arcs -------------------------------------

    def apply_circle(self, support: GeneralizedCircle) -> GeneralizedCircle:
        """Image of a generalized circle, in closed form around the pole.

        After conjugating the support when ``conj`` is set, a map with
        c != 0 is z -> a/c + k/(z - p) with pole p = -d/c and
        k = (b*c - a*d)/c^2.  The support is shifted so the pole sits at
        the origin, taken through z -> 1/z, and carried by the similarity
        z -> k*z + a/c; with c == 0 only the similarity z -> (a*z + b)/d
        acts.  A circle (m, r) shifted to (m - p, r) inverts to the circle
        with center conj(m - p)/P and radius r/|P|, P = |m - p|^2 - r^2.
        A line with unit normal n inverts to the circle with center
        conj(n)/(2*off'), off' = offset - Re(conj(n)*p).  Shifting first
        keeps small circles far from the origin accurate, where raw
        coefficients would cancel.  The image is a Line exactly when the
        support passes through the pole (relative tolerance 1e-9).
        """
        s = support
        if self.conj and isinstance(s, Circle):
            s = Circle(s.center.conjugate(), s.radius)
        elif self.conj:
            s = Line(s.normal.conjugate(), s.offset)
        a, b, c, d = self.a, self.b, self.c, self.d
        if c == 0:
            alpha, beta = a / d, b / d
        else:
            p = -d / c
            alpha, beta = (b * c - a * d) / (c * c), a / c
            if isinstance(s, Circle):
                m = s.center - p
                if s.contains(p, tol=1e-9):
                    s = Line(m.conjugate() / abs(m), 1 / (2 * abs(m)))
                else:
                    power = abs(m) ** 2 - s.radius**2
                    s = Circle(m.conjugate() / power, s.radius / abs(power))
            elif s.contains(p, tol=1e-9):
                s = Line(s.normal.conjugate(), 0.0)
            else:
                off = s.offset - (s.normal.conjugate() * p).real
                s = Circle(s.normal.conjugate() / (2 * off), 1 / (2 * abs(off)))
        if isinstance(s, Circle):
            return Circle(alpha * s.center + beta, abs(alpha) * s.radius)
        n = s.normal / alpha.conjugate()
        return Line(n / abs(n), (s.offset + (n.conjugate() * beta).real) / abs(n))

    def apply_arc(self, arc: "Arc") -> "Arc":
        """Image of an arc: its mapped endpoints and witness on the image support.

        The support comes from ``apply_circle``, whose closed form stays
        accurate for arcs far smaller than the working scale, where the
        three image points are too close together to recover the
        support's center.  The support is refit through the three image
        points instead when one of them is INF, or when the closed form
        misses them by more than a relative 1e-9: for a support passing
        close to the pole the reciprocal cancels catastrophically, but
        there the image points are far apart and determine the support
        well.
        """
        p = self.apply(arc.p)
        q = self.apply(arc.q)
        w = self.apply(arc.witness)
        if not (is_inf(p) or is_inf(q) or is_inf(w)):
            support = self.apply_circle(arc.support)
            mag = max(1.0, abs(p), abs(q), abs(w))
            if max(_support_distance(support, z) for z in (p, q, w)) <= 1e-9 * mag:
                return Arc(support, p, q, w)
        return Arc(circle_through(p, q, w), p, q, w)


def mobius_scale_translate(scale: complex, offset: complex = 0j) -> Mobius:
    return Mobius(scale, offset, 0, 1)


def inversion(circle: Circle) -> Mobius:
    """Inversion in a circle: z -> o + r^2 / conj(z - o).  Orientation reversing."""
    o, r = circle.center, circle.radius
    return Mobius(o, r * r - abs(o) ** 2, 1, -o.conjugate(), conj=True)


def _to_zero_one_inf(z1: Point, z2: Point, z3: Point) -> Mobius:
    """The unique orientation-preserving map sending (z1, z2, z3) to (0, 1, INF)."""
    if is_inf(z1):
        return Mobius(0, z2 - z3, 1, -z3)
    if is_inf(z2):
        return Mobius(1, -z1, 1, -z3)
    if is_inf(z3):
        return Mobius(1, -z1, 0, z2 - z1)
    return Mobius(z2 - z3, -z1 * (z2 - z3), z2 - z1, -z3 * (z2 - z1))


def mobius_from_triples(src: tuple[Point, Point, Point], dst: tuple[Point, Point, Point]) -> Mobius:
    """The unique orientation-preserving Moebius map with src[i] -> dst[i]."""
    for triple in (src, dst):
        for i in range(3):
            for j in range(i + 1, 3):
                if near(triple[i], triple[j], 0.0):
                    raise ValueError("triple points must be pairwise distinct")
    s = _to_zero_one_inf(*src)
    t = _to_zero_one_inf(*dst)
    return t.inverse().compose(s)


# ---------------------------------------------------------------------------
# Arcs

_TWO_PI = 2 * math.pi


@dataclass(frozen=True)
class Arc:
    """A directed arc of a generalized circle from p to q.

    The witness is a third extended point of the support that the arc
    passes through; it selects which of the two arcs between p and q is
    meant.  On a Line support the arc may pass through INF (as endpoint
    or witness), making it a ray or a two-ray complement of a segment.
    """

    support: GeneralizedCircle
    p: Point
    q: Point
    witness: Point

    def __post_init__(self):
        if isinstance(self.support, Circle):
            if is_inf(self.p) or is_inf(self.q) or is_inf(self.witness):
                raise ValueError("arcs of circles have finite endpoints and witness")
        for u, v in ((self.p, self.q), (self.p, self.witness), (self.q, self.witness)):
            if near(u, v, 0.0):
                raise ValueError("arc endpoints and witness must be pairwise distinct")

    # circle arc helpers ------------------------------------------------

    def _sweep(self) -> tuple[float, float, bool]:
        """(start angle, swept angle, ccw?) for a Circle support."""
        c: Circle = self.support  # type: ignore[assignment]
        tp = c.angle_of(self.p)
        tq = c.angle_of(self.q)
        tw = c.angle_of(self.witness)
        ccw_q = (tq - tp) % _TWO_PI
        ccw_w = (tw - tp) % _TWO_PI
        if ccw_w <= ccw_q:
            return tp, ccw_q, True
        return tp, _TWO_PI - ccw_q, False

    def subtended_angle(self) -> float:
        """The central angle swept by a circle arc (0..2pi)."""
        if not isinstance(self.support, Circle):
            raise ValueError("subtended_angle is defined for circle arcs")
        return self._sweep()[1]

    # membership ---------------------------------------------------------

    def contains(self, x: Point, tol: float = GEOM_TOL) -> bool:
        if isinstance(self.support, Circle):
            if is_inf(x):
                return False
            c = self.support
            if not c.contains(x, tol):
                return False
            tp, sweep, ccw = self._sweep()
            tx = c.angle_of(x)
            off = (tx - tp) % _TWO_PI if ccw else (tp - tx) % _TWO_PI
            slack = tol / max(c.radius, tol)
            return off <= sweep + slack or off >= _TWO_PI - slack
        # line support: parametrize by signed coordinate along direction
        line: Line = self.support
        if not line.contains(x, tol):
            return False
        if is_inf(x):
            return is_inf(self.p) or is_inf(self.q) or is_inf(self.witness)
        d = line.direction
        f = line.foot()

        def coord(z: complex) -> float:
            return (d.conjugate() * (z - f)).real

        tx = coord(x)
        scale = max((abs(v) for v in (self.p, self.q, self.witness, x) if not is_inf(v)), default=1.0)
        eps = tol * max(scale, 1.0)
        if is_inf(self.p) or is_inf(self.q):
            fin = self.q if is_inf(self.p) else self.p
            t0 = coord(fin)
            if is_inf(self.witness):
                raise ValueError("a ray needs a finite witness")
            tw = coord(self.witness)
            if tw >= t0:
                return tx >= t0 - eps
            return tx <= t0 + eps
        t1, t2 = sorted((coord(self.p), coord(self.q)))
        if is_inf(self.witness):
            return tx <= t1 + eps or tx >= t2 - eps
        tw = coord(self.witness)
        if t1 - eps <= tw <= t2 + eps:
            return t1 - eps <= tx <= t2 + eps
        return tx <= t1 + eps or tx >= t2 - eps

    # tangents -----------------------------------------------------------

    def tangent_direction(self, at: Point, tol: float = 1e-7) -> complex:
        """Unit tangent of the arc at an endpoint, pointing into the arc.

        ``at`` must match one of the endpoints (within ``tol``) and be finite.
        """
        if is_inf(at):
            raise ValueError("tangent direction at INF is undefined")
        # prefer the nearer endpoint: when the whole arc is smaller than
        # tol both endpoints match, and picking the farther one would
        # flip the direction
        dp = abs(self.p - at) if not is_inf(self.p) else math.inf
        dq = abs(self.q - at) if not is_inf(self.q) else math.inf
        if min(dp, dq) > tol:
            raise ValueError("tangent_direction: point is not an arc endpoint")
        at_p = dp <= dq
        endpoint = self.p if at_p else self.q
        if isinstance(self.support, Circle):
            c = self.support
            _, _, ccw = self._sweep()
            radial = (endpoint - c.center) / abs(endpoint - c.center)
            t = radial * (1j if ccw else -1j)
            return t if at_p else -t  # into the arc from whichever end
        line = self.support
        d = line.direction
        f = line.foot()

        def coord(z: Point) -> float:
            return (d.conjugate() * (z - f)).real  # type: ignore[operand]

        other = self.q if at_p else self.p
        if is_inf(other):
            w = self.witness
            if is_inf(w):
                raise ValueError("a ray needs a finite witness")
            sgn = 1.0 if coord(w) >= coord(endpoint) else -1.0
            return d * sgn
        if is_inf(self.witness) or not self.contains((endpoint + other) / 2, 1e-9):
            # complement arc: leaves the endpoint away from the other endpoint
            sgn = -1.0 if coord(other) > coord(endpoint) else 1.0
        else:
            sgn = 1.0 if coord(other) > coord(endpoint) else -1.0
        return d * sgn

    def midpoint(self) -> complex:
        """A finite interior point of the arc (the angular/parametric middle)."""
        if isinstance(self.support, Circle):
            c = self.support
            tp, sweep, ccw = self._sweep()
            t = tp + (sweep / 2 if ccw else -sweep / 2)
            return c.point_at(t)
        if not is_inf(self.p) and not is_inf(self.q) and not is_inf(self.witness):
            m = (self.p + self.q) / 2
            if self.contains(m, 1e-9):
                return m
            return self.witness
        return self.witness if not is_inf(self.witness) else (self.p if not is_inf(self.p) else self.q)


def arc_through(p: Point, q: Point, witness: Point) -> Arc:
    """The arc from p to q passing through the witness point."""
    support = circle_through(p, q, witness)
    return Arc(support, p, q, witness)


def segment(p: complex, q: complex) -> Arc:
    """The straight segment between two finite points, as a line arc."""
    return arc_through(p, q, (p + q) / 2)


# ---------------------------------------------------------------------------
# Intersections


def _circle_circle_points(c1: Circle, c2: Circle, tol: float) -> list[complex]:
    d = abs(c2.center - c1.center)
    if d <= tol * max(c1.radius, c2.radius):
        return []  # concentric (or equal supports, handled by caller)
    r1, r2 = c1.radius, c2.radius
    if d > r1 + r2 + tol * (r1 + r2) or d < abs(r1 - r2) - tol * (r1 + r2):
        return []
    a = (d * d + r1 * r1 - r2 * r2) / (2 * d)
    h2 = r1 * r1 - a * a
    h = math.sqrt(max(h2, 0.0))
    u = (c2.center - c1.center) / d
    base = c1.center + a * u
    if h <= tol * r1:
        return [base]
    return [base + 1j * h * u, base - 1j * h * u]


def _line_circle_points(line: Line, c: Circle, tol: float) -> list[complex]:
    s = line.signed_distance(c.center)
    if abs(s) > c.radius + tol * c.radius:
        return []
    foot = c.center - s * line.normal
    h2 = c.radius * c.radius - s * s
    h = math.sqrt(max(h2, 0.0))
    if h <= tol * c.radius:
        return [foot]
    d = line.direction
    return [foot + h * d, foot - h * d]


def _line_line_points(l1: Line, l2: Line, tol: float) -> list[Point]:
    cross = (l1.normal.conjugate() * l2.normal).imag
    if abs(cross) <= tol:
        return [INF]  # parallel lines meet only at INF
    # solve [n1x n1y; n2x n2y] [x;y] = [d1; d2]
    a1, b1 = l1.normal.real, l1.normal.imag
    a2, b2 = l2.normal.real, l2.normal.imag
    det = a1 * b2 - a2 * b1
    x = (l1.offset * b2 - l2.offset * b1) / det
    y = (a1 * l2.offset - a2 * l1.offset) / det
    return [complex(x, y), INF]


def support_intersections(
    s1: GeneralizedCircle, s2: GeneralizedCircle, tol: float = GEOM_TOL
) -> list[Point]:
    """Intersection points of two distinct generalized circles (0, 1 or 2)."""
    if isinstance(s1, Circle) and isinstance(s2, Circle):
        return list(_circle_circle_points(s1, s2, tol))
    if isinstance(s1, Line) and isinstance(s2, Line):
        return _line_line_points(s1, s2, tol)
    if isinstance(s1, Line):
        return list(_line_circle_points(s1, s2, tol))
    return list(_line_circle_points(s2, s1, tol))


def same_support(s1: GeneralizedCircle, s2: GeneralizedCircle, tol: float = 1e-9) -> bool:
    if isinstance(s1, Circle) and isinstance(s2, Circle):
        scale = max(s1.radius, s2.radius)
        return abs(s1.center - s2.center) <= tol * scale and abs(s1.radius - s2.radius) <= tol * scale
    if isinstance(s1, Line) and isinstance(s2, Line):
        aligned = abs((s1.normal.conjugate() * s2.normal).imag) <= tol
        if not aligned:
            return False
        if abs(s1.normal - s2.normal) <= tol:
            return abs(s1.offset - s2.offset) <= tol * max(1.0, abs(s1.offset))
        if abs(s1.normal + s2.normal) <= tol:
            return abs(s1.offset + s2.offset) <= tol * max(1.0, abs(s1.offset))
        return False
    return False


def arc_intersections(a1: Arc, a2: Arc, tol: float = GEOM_TOL) -> list[Point]:
    """Points common to two arcs (excluding shared supports, which raise)."""
    if same_support(a1.support, a2.support):
        raise ValueError("arc_intersections: arcs share a support")
    pts = support_intersections(a1.support, a2.support, tol)
    return [x for x in pts if a1.contains(x, tol) and a2.contains(x, tol)]


# ---------------------------------------------------------------------------
# Triangles and isodynamic points


@dataclass(frozen=True)
class Triangle:
    a: complex
    b: complex
    c: complex

    def __post_init__(self):
        if self.signed_area() == 0.0:
            raise ValueError("degenerate triangle")

    def signed_area(self) -> float:
        u = self.b - self.a
        v = self.c - self.a
        return (u.conjugate() * v).imag / 2.0

    def sides(self) -> tuple[float, float, float]:
        """(|bc|, |ca|, |ab|): side lengths opposite to a, b, c."""
        return (abs(self.c - self.b), abs(self.a - self.c), abs(self.b - self.a))

    def angles(self) -> tuple[float, float, float]:
        """Interior angles at a, b, c."""
        la, lb, lc = self.sides()

        def ang(opp, s1, s2):
            v = (s1 * s1 + s2 * s2 - opp * opp) / (2 * s1 * s2)
            return math.acos(min(1.0, max(-1.0, v)))

        return (ang(la, lb, lc), ang(lb, lc, la), ang(lc, la, lb))

    def circumcircle(self) -> Circle:
        c = circle_through(self.a, self.b, self.c)
        if not isinstance(c, Circle):
            raise ValueError("degenerate triangle has no circumcircle")
        return c


def isodynamic_points(t: Triangle) -> tuple[Point, Point]:
    """The two isodynamic points of a triangle.

    Computed from the trilinears sin(A +- pi/3) converted to barycentric
    weights (multiply by the opposite side length).  The second point is
    INF exactly when the triangle is equilateral.
    """
    la, lb, lc = t.sides()
    aa, ab, ac = t.angles()
    verts = (t.a, t.b, t.c)

    def pt(sign: float) -> Point:
        w = [
            la * math.sin(aa + sign * math.pi / 3),
            lb * math.sin(ab + sign * math.pi / 3),
            lc * math.sin(ac + sign * math.pi / 3),
        ]
        total = sum(w)
        mag = sum(abs(x) for x in w)
        if mag <= 1e-12 * (la + lb + lc) or abs(total) <= 1e-12 * mag:
            return INF
        return sum(wi * v for wi, v in zip(w, verts)) / total

    return (pt(+1.0), pt(-1.0))


# ---------------------------------------------------------------------------
# Lune bisector


def _inside(support: GeneralizedCircle, z: complex) -> bool:
    return support.strictly_inside(z)


def lune_bisector(
    c1: GeneralizedCircle,
    c2: GeneralizedCircle,
    tol: float = GEOM_TOL,
    side1: bool = True,
    side2: bool = True,
) -> Arc:
    """The arc bisecting the lune of two properly crossing circles.

    The two supports must cross at two points; the result is the arc
    between the crossing points that meets both circles at half their
    crossing angle, running through the interior of the lune
    (the intersection of the two disks).  Setting ``side1``/``side2``
    to False selects the exterior of the corresponding disk instead,
    so any of the four crossing regions can serve as the lune.
    """
    pts = support_intersections(c1, c2, tol)
    finite = [p for p in pts if not is_inf(p)]
    if len(finite) != 2:
        raise ValueError("lune_bisector: supports must cross at two points")
    q1, q2 = finite
    # any third anchor sends the corners to 0 and INF alike; the images
    # of both supports turn by the same angle with the choice
    m = mobius_from_triples((q1, q2, (q1 + q2) / 2), (0j, INF, 1 + 0j))
    minv = m.inverse()

    def image_dir(c: GeneralizedCircle) -> float:
        img = m.apply_circle(c)
        if not isinstance(img, Line):
            raise ValueError("lune_bisector: corner mapping failed")
        return cmath.phase(img.direction)

    phi1 = image_dir(c1)
    phi2 = image_dir(c2)
    # candidate bisector directions (mod pi)
    mid = (phi1 + phi2) / 2
    for phi in (mid, mid + math.pi / 2):
        for s in (1.0, -1.0):
            u = cmath.exp(1j * phi) * s
            w = minv.apply(u)
            if is_inf(w):
                continue
            if _inside(c1, w) == side1 and _inside(c2, w) == side2:
                return arc_through(q1, q2, w)
    raise ValueError("lune_bisector: no candidate lies inside the lune")


def angle_between(d1: complex, d2: complex) -> float:
    """Unsigned angle between two direction vectors, in [0, pi]."""
    v = (d1.conjugate() * d2) / (abs(d1) * abs(d2))
    return abs(cmath.phase(v))
