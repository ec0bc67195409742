"""Circle geometry on the extended complex plane.

Points are python complex numbers; the point at infinity is the tagged
singleton ``INF``.  Circles and lines are first-class ("generalized
circles"), and Moebius transformations act on points, circles and arcs.
Every ``tol`` of a membership or intersection test is an absolute
distance in the operands' own frame, the same at any radius or position.

A Moebius map acts on a generalized circle by one closed form
(``Mobius.image_form``): the support is written as a Hermitian form
about its base point (a circle's center, a line's foot) and mapped as
such, which keeps its digits however far the pole lies; the image is a
Line exactly when the support passes through the pole.  Arcs take that
support too (``Mobius.apply_arc``) and fall back to refitting the
circle through their three image points only where the closed form
cannot hold them: an image point at INF, or a support so close to the
pole that the form's leading coefficient cancels.

``INF`` is tested by identity (``is_inf``): its class hands out one
instance, to unpickling and copying as well.  Records compare, hash,
print and pickle the values their ``_fields`` name, as dataclasses do
(``Record``); ``Arc`` is frozen and no code writes to one after
construction, so an arc decides its parametrization once, on first use,
and keeps it: a circle arc's start angle, sweep and orientation, or a
line arc's coordinate span on its support and its kind, a segment, a ray
or a two-ray arc.  The kind comes from the witness's coordinate alone;
a tolerance widens an arc's membership and never changes its kind.
"""

from __future__ import annotations

import cmath
import math
import operator


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

Point = complex | _PointAtInfinity

#: default tolerance for exact geometric identities
GEOM_TOL = 1e-10


def is_inf(p: Point) -> bool:
    return p is INF


def is_finite(*zs) -> bool:
    """Whether every value is a finite number (INF and NaN are not)."""
    for z in zs:
        if z is INF or not cmath.isfinite(z):
            return False
    return True


def near(p: Point, q: Point, tol: float = GEOM_TOL) -> bool:
    """Whether two extended points coincide within ``tol`` (absolute)."""
    if is_inf(p) or is_inf(q):
        return is_inf(p) and is_inf(q)
    return abs(p - q) <= tol


_set = object.__setattr__  # how a frozen record's __init__ writes its fields


class Record:
    """Compares, hashes, prints and pickles the values ``_fields`` names, in
    ``__init__``'s order; ``frozen=True`` makes assignment raise AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls, frozen=False):
        cls._values = property(operator.attrgetter(*cls._fields))
        if frozen:
            cls.__setattr__ = cls.__delattr__ = Record._frozen

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __reduce__(self):
        return self.__class__, self._values

    def _frozen(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")


class Circle(Record, frozen=True):
    """A circle with finite center and positive radius."""

    __slots__ = _fields = ("center", "radius")

    def __init__(self, center: complex, radius: float):
        if not (radius > 0):
            raise ValueError(f"circle radius must be positive, got {radius}")
        _set(self, "center", center)
        _set(self, "radius", radius)

    def point_at(self, theta: float) -> complex:
        return self.center + self.radius * cmath.exp(1j * theta)

    def angle_of(self, z: complex) -> float:
        return cmath.phase(z - self.center)

    def contains(self, p: Point, tol: float = GEOM_TOL) -> bool:
        """Whether ``p`` lies within distance ``tol`` of the circle."""
        if is_inf(p):
            return False
        return abs(abs(p - self.center) - self.radius) <= tol

    def strictly_inside(self, p: Point) -> bool:
        if is_inf(p):
            return False
        return abs(p - self.center) < self.radius


class Line(Record, frozen=True):
    """The line { z : Re(conj(normal) * z) == offset } with unit normal."""

    __slots__ = _fields = ("normal", "offset")

    def __init__(self, normal: complex, offset: float):
        if not (abs(abs(normal) - 1.0) <= 1e-9):
            raise ValueError("line normal must be a unit vector")
        _set(self, "normal", normal)
        _set(self, "offset", offset)

    @property
    def direction(self) -> complex:
        """A unit vector along the line."""
        return 1j * self.normal

    def foot(self) -> complex:
        """The point of the line closest to the origin."""
        return self.normal * self.offset

    def signed_distance(self, z: complex) -> float:
        return (self.normal.conjugate() * z).real - self.offset

    def coord(self, z: complex) -> float:
        """Signed coordinate of ``z``'s projection along ``direction``, from ``foot``."""
        return (self.direction.conjugate() * (z - self.foot())).real

    def contains(self, p: Point, tol: float = GEOM_TOL) -> bool:
        if is_inf(p):
            return True  # every line passes through infinity
        return abs(self.signed_distance(p)) <= tol

    def strictly_inside(self, p: Point) -> bool:
        # "interior" of a line: the half plane on the side the normal points away from
        if is_inf(p):
            return False
        return self.signed_distance(p) < 0


GeneralizedCircle = Circle | Line


def line_through(p: complex, q: complex) -> Line:
    """The line through two distinct finite points."""
    d = q - p
    if abs(d) == 0:
        raise ValueError("line_through needs two distinct points")
    n = (d / abs(d)) * (-1j)  # rotate direction by -90deg to get a normal
    return Line(n, (n.conjugate() * p).real)


def circle_through(p: Point, q: Point, r: Point, tol: float = 1e-9) -> GeneralizedCircle:
    """The generalized circle through three distinct extended points.

    Returns a Line when one of the points is INF or when the three finite
    points are collinear (relative cross-product tolerance ``tol``).  The
    default is the verifier's geometric tolerance: a nearly straight arc
    becomes a Line rather than a circle of radius ~1/tol, whose image
    under a Möbius map loses about radius * epsilon of relative precision.
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


def support_distance(s: GeneralizedCircle, z: complex) -> float:
    if isinstance(s, Circle):
        return abs(abs(z - s.center) - s.radius)
    return abs(s.signed_distance(z))


# ---------------------------------------------------------------------------
# Moebius transformations


class Mobius(Record, frozen=True):
    """z -> (a*w + b) / (c*w + d) where w = conj(z) if conj else z.

    With conj=False this is orientation preserving (a fractional linear
    map); with conj=True it is orientation reversing (e.g. a circle
    inversion or a line reflection).
    """

    __slots__ = _fields = ("a", "b", "c", "d", "conj")

    def __init__(self, a: complex, b: complex, c: complex, d: complex, conj: bool = False):
        # relative to the rounding scale of ad - bc, so that translations
        # and scalings of any size pass
        ad, bc = a * d, b * c
        if abs(ad - bc) <= 1e-14 * (abs(ad) + abs(bc)):
            raise ValueError("degenerate Moebius coefficients (det ~ 0)")
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "d", d)
        _set(self, "conj", conj)

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

    def image_form(self, support: GeneralizedCircle) -> tuple[bool, float, complex, float, float]:
        """(through the pole?, A', B', C', k') of the image of ``support``.

        The support is the Hermitian form A|z - z0|^2 + 2 Re(conj(B)(z - z0))
        + C = 0 about its base point z0, with k = sqrt(|B|^2 - AC): a circle
        is z0 = center, (A, B, C, k) = (1, 0, -r^2, r), a line z0 = foot,
        (0, n/2, 0, 1/2); ``conj`` conjugates z0 and B first.  With
        b0 = a*z0 + b and d0 = c*z0 + d the image is A'|w|^2 +
        2 Re(conj(B') w) + C' = 0 about the origin and k' = |ad - bc| k.
        Expanding about z0 rather than the origin keeps the center out
        of C, which would be |center|^2 - r^2 and cancel for a circle
        passing near 0.  The first value is whether the pole -d/c,
        conjugated when ``conj`` is set, lies within 1e-9*max(r, 1) of a
        circle or 1e-9*max(1, |pole|) of a line; a pole at INF (c == 0)
        lies on lines only, whose images stay lines under similarities.
        """
        a, b, c, d = self.a, self.b, self.c, self.d
        pole = INF if c == 0 else -d / c
        if self.conj and pole is not INF:
            pole = pole.conjugate()
        if isinstance(support, Circle):
            z0, A, B, C, k = support.center, 1.0, 0j, -(support.radius * support.radius), support.radius
            through = pole is not INF and abs(abs(pole - z0) - k) <= 1e-9 * max(k, 1.0)
        else:
            z0, A, B, C, k = support.foot(), 0.0, support.normal / 2, 0.0, 0.5
            through = pole is INF or abs(support.signed_distance(pole)) <= 1e-9 * max(1.0, abs(pole))
        if self.conj:
            z0, B = z0.conjugate(), B.conjugate()
        b0, d0 = a * z0 + b, c * z0 + d
        # a trailing underscore marks a complex conjugate
        a_, B_, c_, d0_ = a.conjugate(), B.conjugate(), c.conjugate(), d0.conjugate()
        return (
            through,
            A * abs(d0) ** 2 - 2 * (B_ * d0 * c_).real + C * abs(c) ** 2,
            B * d0_ * a + B_ * b0 * c_ - A * (b0 * d0_) - C * (a * c_),
            A * abs(b0) ** 2 - 2 * (B_ * b0 * a_).real + C * abs(a) ** 2,
            abs(a * d - b * c) * k,
        )

    def apply_circle(self, support: GeneralizedCircle) -> GeneralizedCircle:
        """Image of a generalized circle, in closed form (``image_form``).

        The image is Circle(-B'/A', k'/|A'|), or Line(B'/|B'|,
        -C'/(2|B'|)) when the support passes through the pole.  Its
        terms stay accurate however far the pole lies; only A' cancels,
        and only for a support passing close to the pole.
        """
        line, a2, b2, c2, k2 = self.image_form(support)
        if line:
            return Line(b2 / abs(b2), -c2 / (2 * abs(b2)))
        return Circle(-b2 / a2, k2 / abs(a2))

    def apply_arc(self, arc: "Arc") -> "Arc":
        """Image of an arc: its mapped endpoints and witness on the image support.

        The support comes from ``apply_circle``, whose closed form stays
        accurate for arcs far smaller than the working scale, where the
        three image points are too close together to recover the
        support's center.  The support is refit through the three image
        points instead when one of them is INF, or when the closed form
        misses them by more than a relative 1e-9: for a support passing
        close to the pole the image's A' cancels catastrophically, but
        there the image points are far apart and determine the support
        well.
        """
        p = self.apply(arc.p)
        q = self.apply(arc.q)
        w = self.apply(arc.witness)
        if not (is_inf(p) or is_inf(q) or is_inf(w)):
            support = self.apply_circle(arc.support)
            mag = max(1.0, abs(p), abs(q), abs(w))
            if max(support_distance(support, z) for z in (p, q, w)) <= 1e-9 * mag:
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
# (angle, unit vector) of the axis directions right, up, left and down
_AXES = tuple((th, complex(math.cos(th), math.sin(th))) for th in (k * math.pi / 2 for k in range(4)))


class Arc(Record, frozen=True):
    """A directed arc of a generalized circle from p to q.

    The witness is a third extended point of the support that the arc
    passes through; it selects which of the two arcs between p and q is
    meant.  An arc of a Line is of one of three kinds: a segment, whose
    witness lies strictly between p and q; a ray, with p or q at INF; or
    a two-ray arc, the complement of the segment between p and q, whose
    witness is INF or lies outside them.  ``_sweep`` decides the kind
    once, and every reader takes it from there: ``tol`` widens what
    ``contains`` accepts but never turns one kind into another.
    """

    _fields = ("support", "p", "q", "witness")
    __slots__ = (*_fields, "_swept")

    def __init__(self, support: GeneralizedCircle, p: Point, q: Point, witness: Point):
        if isinstance(support, Circle):
            if is_inf(p) or is_inf(q) or is_inf(witness):
                raise ValueError("arcs of circles have finite endpoints and witness")
        for u, v in ((p, q), (p, witness), (q, witness)):
            # equal non-finite coordinates are left to verify to report
            if u == v and (is_inf(u) or cmath.isfinite(u)):
                raise ValueError("arc endpoints and witness must be pairwise distinct")
        _set(self, "support", support)
        _set(self, "p", p)
        _set(self, "q", q)
        _set(self, "witness", witness)
        _set(self, "_swept", None)

    def _sweep(self) -> tuple:
        """The arc's one parametrization, computed on the first call and
        kept outside the fields, which ``==``, ``hash`` and ``repr`` read alone.

        A Circle support gives (start angle, swept angle, ccw?).  A Line
        support gives (lo, hi, kind) in its ``Line.coord``: a "segment" or
        "ray" is lo <= t <= hi, a ray's INF end being -inf or inf on its
        (finite) witness's side, and a "two-ray" arc is t <= lo or t >= hi.
        Only a witness strictly between two finite ends makes a segment.
        """
        swept = self._swept
        if swept is None:
            s, p, q, w = self.support, self.p, self.q, self.witness
            if isinstance(s, Circle):
                c = s.center
                tp = cmath.phase(p - c)  # Circle.angle_of, as are tq and tw
                ccw_q = (cmath.phase(q - c) - tp) % _TWO_PI
                ccw_w = (cmath.phase(w - c) - tp) % _TWO_PI
                swept = (tp, ccw_q, True) if ccw_w <= ccw_q else (tp, _TWO_PI - ccw_q, False)
            else:
                coord = s.coord
                if p is INF or q is INF:
                    t0 = coord(q if p is INF else p)
                    swept = (t0, math.inf, "ray") if coord(w) >= t0 else (-math.inf, t0, "ray")
                else:
                    tp, tq = coord(p), coord(q)
                    lo, hi = (tq, tp) if tq < tp else (tp, tq)
                    kind = "segment" if w is not INF and lo < coord(w) < hi else "two-ray"
                    swept = (lo, hi, kind)
            _set(self, "_swept", swept)
        return swept

    # circle arc helpers ------------------------------------------------

    def axis_extremes(self) -> list[complex]:
        """The points of a circle arc where its circle is leftmost,
        rightmost, lowest or highest, in the order right, top, left, bottom."""
        c: Circle = self.support  # type: ignore[assignment]
        start, sweep, ccw = self._sweep()
        out = []
        for th, unit in _AXES:
            delta = (th - start) % _TWO_PI
            if (delta if ccw else (_TWO_PI - delta) % _TWO_PI) <= sweep:
                out.append(c.center + c.radius * unit)
        return out

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
        line: Line = self.support
        if not line.contains(x, tol):
            return False
        lo, hi, kind = self._sweep()
        if x is INF:
            return kind != "segment"
        tx = line.coord(x)
        if kind == "two-ray":
            return tx <= lo + tol or tx >= hi - tol
        return lo - tol <= tx <= hi + tol

    # tangents -----------------------------------------------------------

    def tangent_direction(self, at: Point, tol: float = 1e-7) -> complex:
        """Unit tangent of the arc at an endpoint, pointing into the arc.

        ``at`` must match one of the endpoints (within ``tol``) and be
        finite: INF and NaN raise ValueError.
        """
        if not is_finite(at):
            raise ValueError("tangent direction at a non-finite point is undefined")
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
        _, hi, kind = self._sweep()
        # a span leaves its lower end upward and its upper end downward;
        # a two-ray arc leaves each end the other way
        up = line.coord(endpoint) != hi
        return line.direction * (1.0 if up != (kind == "two-ray") else -1.0)

    def midpoint(self) -> complex:
        """A finite interior point of the arc (the angular/parametric middle)."""
        if isinstance(self.support, Circle):
            c = self.support
            tp, sweep, ccw = self._sweep()
            t = tp + (sweep / 2 if ccw else -sweep / 2)
            return c.point_at(t)
        if self._sweep()[2] == "segment":
            return (self.p + self.q) / 2
        return self.p if is_inf(self.witness) else self.witness


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
    if d <= tol:
        return []  # concentric (or equal supports, handled by caller)
    r1, r2 = c1.radius, c2.radius
    if d > r1 + r2 + tol or d < abs(r1 - r2) - tol:
        return []
    a = (d * d + r1 * r1 - r2 * r2) / (2 * d)
    h2 = r1 * r1 - a * a
    h = math.sqrt(max(h2, 0.0))
    u = (c2.center - c1.center) / d
    base = c1.center + a * u
    if h <= tol:
        return [base]
    return [base + 1j * h * u, base - 1j * h * u]


def _line_circle_points(line: Line, c: Circle, tol: float) -> list[complex]:
    s = line.signed_distance(c.center)
    if abs(s) > c.radius + tol:
        return []
    foot = c.center - s * line.normal
    h2 = c.radius * c.radius - s * s
    h = math.sqrt(max(h2, 0.0))
    if h <= tol:
        return [foot]
    d = line.direction
    return [foot + h * d, foot - h * d]


def _line_line_points(l1: Line, l2: Line) -> list[Point]:
    cross = (l1.normal.conjugate() * l2.normal).imag
    if cross == 0:
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
        return _circle_circle_points(s1, s2, tol)
    if isinstance(s1, Line) and isinstance(s2, Line):
        return _line_line_points(s1, s2)
    if isinstance(s1, Line):
        return _line_circle_points(s1, s2, tol)
    return _line_circle_points(s2, s1, tol)


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


def arc_intersections(a1: Arc, a2: Arc, tol: float = GEOM_TOL, away=(), by: float = 0.0, boxes=(None, None)):
    """Points common to two arcs; None when ``same_support`` holds, as arcs
    on one support overlap rather than meet in points.  Finite points within
    ``by`` of a point in ``away``, or outside either of ``boxes`` (per arc
    an (x0, x1, y0, y1) holding every point it contains at ``tol``, or
    None), are dropped before any membership test."""
    if same_support(a1.support, a2.support):
        return None
    out = []
    for x in support_intersections(a1.support, a2.support, tol):
        if x is not INF:
            kept = True
            for z in away:
                kept = kept and not abs(x - z) <= by
            for b in boxes:
                kept = kept and (b is None or (b[0] <= x.real <= b[1] and b[2] <= x.imag <= b[3]))
            if not kept:
                continue
        if a1.contains(x, tol) and a2.contains(x, tol):
            out.append(x)
    return out


# ---------------------------------------------------------------------------
# Isodynamic points


def isodynamic_points(a: complex, b: complex, c: complex) -> tuple[Point, Point]:
    """The two isodynamic points of the triangle with vertices a, b, c.

    They are the points z whose cross ratio (z - a)(b - c) / ((z - c)(b - a))
    with the vertices is e^(+-i pi/3), so z = (a(b - c) - lam c(b - a)) /
    ((b - c) - lam (b - a)).  The first point takes the sign of the
    triangle's orientation, which makes it the center of an equilateral
    triangle; a point whose denominator vanishes to rounding is INF, as
    the second one is exactly when the triangle is equilateral.  Raises
    ``ValueError`` on collinear vertices.
    """
    area = ((b - a).conjugate() * (c - a)).imag
    if area == 0.0:
        raise ValueError("degenerate triangle")
    u, v = b - c, b - a
    lam = cmath.exp(1j * math.copysign(math.pi / 3, area))

    def pt(lam: complex) -> Point:
        den = u - lam * v
        if abs(den) <= 1e-12 * (abs(u) + abs(v)):
            return INF
        return (a * u - lam * c * v) / den

    return (pt(lam), pt(lam.conjugate()))


# ---------------------------------------------------------------------------
# Lune bisector


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

    The map m(z) = (q1 - z)/(z - q2) sends the crossing points q1, q2
    to 0 and INF and the chord's midpoint to 1; its inverse is written
    down as ``Mobius(q2, q1, 1, 1)``.  Both supports become lines
    through 0 whose directions are their tangents at q1 times
    m'(q1) = 1/(q2 - q1), so no circle is mapped to find them.  The
    bisecting line whose preimage point at |u| = 1 lies in the selected
    region is mapped back, one circle image per call, and that point,
    on the chord's perpendicular bisector, is the arc's midpoint and
    its witness; it is INF when the bisector is the chord's line outside
    the crossing points.  A u within 1e-9 of -1 is taken as -1, so that
    witness is INF, not a point some 1e16 away: ``apply_circle`` takes a
    line that close to the pole -1 as passing through it, so the support
    is then that line already.
    """
    pts = support_intersections(c1, c2, tol)
    finite = [p for p in pts if not is_inf(p)]
    if len(finite) != 2:
        raise ValueError("lune_bisector: supports must cross at two points")
    q1, q2 = finite
    minv = Mobius(q2, q1, 1, 1)

    def image_dir(c: GeneralizedCircle) -> float:
        tangent = 1j * (q1 - c.center) if isinstance(c, Circle) else c.direction
        return cmath.phase(tangent / (q2 - q1))

    # candidate bisector directions (mod pi)
    mid = (image_dir(c1) + image_dir(c2)) / 2
    for phi in (mid, mid + math.pi / 2):
        for s in (1.0, -1.0):
            u = cmath.exp(1j * phi) * s
            if abs(u + 1) <= 1e-9:
                u = -1 + 0j
            w = minv.apply(u)
            if c1.strictly_inside(w) == side1 and c2.strictly_inside(w) == side2:
                return Arc(minv.apply_circle(Line(1j * u, 0.0)), q1, q2, w)
    raise ValueError("lune_bisector: no candidate lies inside the lune")
