"""Oracle-based tests for circles, arcs, and Moebius maps."""

import cmath
import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import transform
from lombardi.drawing import LombardiDrawing, _arcs_overlap_on_support, _line_box
from lombardi.geometry import (
    INF,
    Arc,
    Circle,
    Line,
    Mobius,
    arc_intersections,
    arc_through,
    circle_through,
    inversion,
    is_inf,
    isodynamic_points,
    line_through,
    lune_bisector,
    mobius_from_triples,
    mobius_scale_translate,
    near,
    same_support,
    segment,
    support_distance,
    support_intersections,
    _PointAtInfinity,
)


def unit(z: complex) -> complex:
    return z / abs(z)


def angle_between(d1: complex, d2: complex) -> float:
    """Unsigned angle between two direction vectors, in [0, pi]."""
    v = (d1.conjugate() * d2) / (abs(d1) * abs(d2))
    return abs(cmath.phase(v))


# --------------------------------------------------------------------------
# circle_through / line_through


def test_circle_through_recovers_known_circle():
    c = Circle(2 + 1j, 3.0)
    pts = [c.point_at(t) for t in (0.3, 1.7, 4.0)]
    got = circle_through(*pts)
    assert isinstance(got, Circle)
    assert abs(got.center - c.center) < 1e-9
    assert abs(got.radius - c.radius) < 1e-9


def test_circle_through_collinear_gives_line():
    got = circle_through(0j, 1 + 1j, 3 + 3j)
    assert isinstance(got, Line)
    for p in (0j, 1 + 1j, 3 + 3j, -2 - 2j):
        assert got.contains(p)


def test_circle_through_nearly_collinear_gives_line():
    # collinear within the verifier's 1e-9 geometric tolerance: a Line,
    # not a circle of radius ~1e10
    assert isinstance(circle_through(0j, 1 + 0j, 0.5 + 1e-11j), Line)
    assert isinstance(circle_through(0j, 1 + 0j, 0.5 + 1e-6j), Circle)


def test_circle_through_infinity_gives_line():
    got = circle_through(1 + 0j, 2 + 5j, INF)
    assert isinstance(got, Line)
    assert got.contains(1 + 0j) and got.contains(2 + 5j)


def test_line_signed_distance_and_direction():
    ln = line_through(0j, 2 + 0j)  # the real axis
    assert abs(abs(ln.signed_distance(3j)) - 3.0) < 1e-12
    assert abs(ln.direction.imag) < 1e-12  # direction along the axis


# --------------------------------------------------------------------------
# arcs


def test_arc_witness_selects_side_and_angle():
    c = Circle(0j, 1.0)
    quarter = arc_through(1 + 0j, 1j, cmath.exp(0.25j * math.pi))
    assert abs(quarter.subtended_angle() - math.pi / 2) < 1e-12
    assert quarter.contains(cmath.exp(0.1j * math.pi))
    assert not quarter.contains(-1 + 0j)
    other = arc_through(1 + 0j, 1j, -1 + 0j)
    assert abs(other.subtended_angle() - 3 * math.pi / 2) < 1e-12
    assert other.contains(-1j)
    assert not other.contains(cmath.exp(0.25j * math.pi))
    assert isinstance(quarter.support, Circle)
    assert abs(quarter.support.center - c.center) < 1e-12


def test_segment_is_line_arc():
    s = segment(0j, 2 + 2j)
    assert isinstance(s.support, Line)
    assert s.contains(1 + 1j)
    assert not s.contains(3 + 3j)
    assert abs(s.tangent_direction(0j) - unit(2 + 2j)) < 1e-12
    assert abs(s.tangent_direction(2 + 2j) - unit(-2 - 2j)) < 1e-12
    # four arcs of the x-axis, one of each kind; the last is the x-axis
    # outside [-1, 1], whose witness lies 1e-3 past an end: a tolerance
    # of 1e-2 widens what it holds but must not make it the segment
    x_axis = Line(1j, 0.0)
    arcs = {
        "segment": Arc(x_axis, -1 + 0j, 1 + 0j, 0.5 + 0j),
        "ray": Arc(x_axis, 1 + 0j, INF, 2 + 0j),
        "two-ray through INF": Arc(x_axis, -1 + 0j, 1 + 0j, INF),
        "two-ray": Arc(x_axis, -1 + 0j, 1 + 0j, 1.001 + 0j),
    }
    far = Arc(x_axis, 10 + 0j, 11 + 0j, 10.5 + 0j)
    for name, a in arcs.items():
        bounded = name == "segment"
        for tol in (1e-9, 1e-2):
            assert a.contains(0j, tol) == bounded, (name, tol)
            assert a.contains(5 + 0j, tol) != bounded, (name, tol)
            assert a.contains(INF, tol) != bounded, (name, tol)
            for end in (a.p, a.q):
                if not is_inf(end):
                    assert a.contains(end + 0.5 * a.tangent_direction(end, tol), tol), (name, tol)
            mid = a.midpoint()
            assert a.contains(mid, tol) and (-1 < mid.real < 1) == bounded, (name, tol)
            assert (_line_box(a, tol)[1] is not None) == bounded, (name, tol)
            assert _arcs_overlap_on_support(a, far, tol) != bounded, (name, tol)


def test_circle_arc_tangent_directions():
    # ccw quarter arc on the unit circle; tangents point into the arc,
    # so at 1 the direction is +i and at i it is +1 (back along the arc)
    a = arc_through(1 + 0j, 1j, cmath.exp(0.25j * math.pi))
    assert abs(a.tangent_direction(1 + 0j) - 1j) < 1e-9
    assert abs(a.tangent_direction(1j) - (1 + 0j)) < 1e-9


def test_tangent_direction_prefers_nearest_endpoint():
    # an arc smaller than the matching tolerance: both endpoints match,
    # and the nearer one must win or the direction flips
    eps = 1e-9
    a = arc_through(1 + 0j, cmath.exp(1j * eps), cmath.exp(0.5j * eps))
    d = a.tangent_direction(1 + 0j, tol=1e-7)
    assert abs(d - 1j) < 1e-6
    d2 = a.tangent_direction(cmath.exp(1j * eps), tol=1e-7)
    assert abs(d2 + 1j) < 1e-6


def test_tangent_direction_rejects_non_finite_points():
    # a NaN point matches no endpoint; it must not fall through to q's tangent
    a = arc_through(0j, 1, 0.5 + 0.5j)
    for at in (complex(math.nan, 0), complex(0, math.nan), complex(math.inf, 0), INF):
        with pytest.raises(ValueError):
            a.tangent_direction(at)


def test_arc_intersections_of_crossing_circles():
    a1 = arc_through(1 + 0j, -1 + 0j, 1j)  # upper unit semicircle
    c2 = Circle(1 + 0j, 1.0)
    a2 = arc_through(0j, 2 + 0j, 1 + 1j)  # upper semicircle of the shifted circle
    pts = arc_intersections(a1, a2)
    expect = 0.5 + 1j * math.sqrt(3) / 2
    assert len(pts) == 1
    assert abs(pts[0] - expect) < 1e-9
    # restrict the second arc to the lower half: no intersection remains
    a3 = arc_through(0j, 2 + 0j, 1 - 1j)
    assert arc_intersections(a1, a3) == []
    # arcs of one circle overlap rather than meet in points
    assert arc_intersections(a1, arc_through(1 + 0j, -1 + 0j, -1j)) is None
    assert c2.contains(pts[0])


def _reference_arc_intersections(a1, a2, tol, away=(), by=0.0, boxes=(None, None)):
    """arc_intersections composed from its parts: the support intersection,
    then the away/by and box filters on finite points, then membership."""
    if same_support(a1.support, a2.support):
        return None

    def kept(x):
        if is_inf(x):
            return True
        in_boxes = all(b is None or (b[0] <= x.real <= b[1] and b[2] <= x.imag <= b[3]) for b in boxes)
        return in_boxes and not any(abs(x - z) <= by for z in away)

    pts = [x for x in support_intersections(a1.support, a2.support, tol) if kept(x)]
    return [x for x in pts if a1.contains(x, tol) and a2.contains(x, tol)]


def _around(z: complex, h: float) -> tuple:
    return (z.real - h, z.real + h, z.imag - h, z.imag + h)


def _arc_pairs(rng: random.Random):
    """(a1, a2, away, boxes) cases: arcs sharing an endpoint, near-tangent
    circles, supports equal within 1e-9, two crossings with a box around
    one of them, and line arcs through INF."""

    def polar() -> complex:
        return cmath.rect(rng.uniform(0.1, 2.0), rng.uniform(0, 2 * math.pi))

    def bbox(a: Arc, pad: float):  # a padded box holding a finite arc, else None
        pts = (a.p, a.q, a.witness)
        if any(is_inf(z) for z in pts):
            return None
        if isinstance(a.support, Circle):
            c, r = a.support.center, a.support.radius
            return (c.real - r - pad, c.real + r + pad, c.imag - r - pad, c.imag + r + pad)
        xs, ys = [z.real for z in pts], [z.imag for z in pts]
        return (min(xs) - pad, max(xs) + pad, min(ys) - pad, max(ys) + pad)

    for _ in range(150):  # circle arcs sharing an endpoint, either way round
        hub = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        arcs = []
        while len(arcs) < 2:
            try:
                a = arc_through(hub, hub + polar(), hub + polar())
            except ValueError:
                continue
            arcs.append(Arc(a.support, a.q, a.p, a.witness) if rng.random() < 0.5 else a)
        a1, a2 = arcs
        yield a1, a2, [hub], (None, None)
        yield a1, a2, [hub, a1.q if a1.p == hub else a1.p, complex(math.nan, 0)], (bbox(a1, 1e-9), bbox(a2, 0.0))
    for gap in (-1e-6, -1e-9, -1e-11, 0.0, 1e-11, 1e-9, 1e-6):  # near-tangent circles
        for r2, sign in ((1.0, 1), (0.25, 1), (3.0, -1)):
            c2 = complex(1 + sign * r2 + gap, 0)
            a1 = arc_through(cmath.exp(-0.5j), cmath.exp(0.5j), 1 + 0j)
            a2 = arc_through(c2 + r2 * cmath.exp(2.5j), c2 + r2 * cmath.exp(-2.5j), c2 - sign * r2)
            yield a1, a2, [], (None, None)
            yield a1, a2, [1 + 0j], (_around(1 + 0j, 1e-3), None)
    for k in range(40):  # supports equal within same_support's 1e-9, or just outside it
        c0, r = complex(rng.uniform(-5, 5), rng.uniform(-5, 5)), rng.uniform(0.5, 2.0)
        f = 0.9e-9 if k % 2 == 0 else 3e-9
        c1, c2 = Circle(c0, r), Circle(c0 + f * r * cmath.exp(1j * rng.uniform(0, 6)), r * (1 + rng.choice([-f, f])))
        a1 = Arc(c1, c1.point_at(0.0), c1.point_at(2.0), c1.point_at(1.0))
        a2 = Arc(c2, c2.point_at(1.5), c2.point_at(3.5), c2.point_at(2.5))
        yield a1, a2, [], (None, None)
        l1 = line_through(c0, c0 + cmath.exp(1j * k))
        l2 = Line(l1.normal * cmath.exp(1j * f), l1.offset * (1 + f))
        yield Arc(l1, c0, INF, c0 + l1.direction), Arc(l2, l2.foot(), l2.foot() + l2.direction, INF), [], (None, None)
    for _ in range(60):  # two crossings, and a box around one of them
        while True:
            c1 = Circle(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), rng.uniform(0.5, 1.5))
            c2 = Circle(c1.center + polar(), rng.uniform(0.5, 1.5))
            pts = support_intersections(c1, c2)
            if len(pts) == 2 and abs(pts[0] - pts[1]) > 1e-3:
                break
        arcs = []
        for c in (c1, c2):  # each arc runs 0.1 past both crossings
            t1, t2 = (c.angle_of(x) for x in pts)
            span = (t2 - t1) % (2 * math.pi)
            arcs.append(Arc(c, c.point_at(t1 - 0.1), c.point_at(t1 + span + 0.1), c.point_at(t1 + span / 2)))
        box = _around(pts[0], abs(pts[0] - pts[1]) / 3)
        yield arcs[0], arcs[1], [], rng.choice([(box, None), (None, box), (box, box)])
    for k in range(30):  # lines: crossing, parallel, rays and two-ray arcs through INF, and a circle
        x = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        u, v = cmath.exp(1j * rng.uniform(0, math.pi)), cmath.exp(1j * rng.uniform(0, math.pi))
        seg = arc_through(x - u, x + u, x + 0.5 * u)
        ray = Arc(line_through(x, x + v), x + 0.5 * v, INF, x + v)
        two_ray = Arc(line_through(x, x + v), x - 0.5 * v, x + 0.5 * v, INF)
        parallel = Arc(line_through(x + 1j * u, x + 1j * u + u), x + 1j * u, INF, x + 1j * u + u)
        far_ray = Arc(line_through(x, x + u), x + 3 * u, INF, x + 4 * u)
        circle = arc_through(x - v, x + v, x + 1j * v)
        yield seg, ray, [], (None, None)
        yield seg, two_ray, [x], (bbox(seg, 0.0), None)
        yield far_ray, parallel, [], (None, None)
        yield ray, far_ray, [], (None, None)
        yield circle, seg, [x - v], (bbox(circle, 1e-9), None)
        yield two_ray, circle, [x + v], (None, bbox(circle, 0.0))


def test_arc_intersections_matches_its_reference():
    rng = random.Random(20)
    seen = {"none": 0, "points": 0, "inf": 0, "dropped": 0, "clipped": 0}
    for a1, a2, away, boxes in _arc_pairs(rng):
        for tol in (1e-10, 1e-9, 1e-6):
            full = _reference_arc_intersections(a1, a2, tol)
            for by in (0.0, 1e-9, 1e-6, 0.5):
                for bx in ((None, None), boxes):
                    want = _reference_arc_intersections(a1, a2, tol, away, by, bx)
                    assert arc_intersections(a1, a2, tol, away, by, bx) == want, (a1, a2, tol, away, by, bx)
                    if want is None:
                        seen["none"] += 1
                        continue
                    seen["points"] += any(not is_inf(x) for x in want)
                    seen["inf"] += INF in want
                    if bx == (None, None):
                        seen["dropped"] += len(want) < len(full)
                    else:
                        seen["clipped"] += len(want) < len(_reference_arc_intersections(a1, a2, tol, away, by))
    # every filter acted somewhere, so the comparison is not vacuous
    assert all(n > 50 for n in seen.values()), seen


def test_arc_intersections_box_keeps_exactly_one_crossing():
    c1, c2 = Circle(0j, 1.0), Circle(1 + 0j, 1.0)
    a1 = Arc(c1, c1.point_at(-2.0), c1.point_at(2.0), 1 + 0j)
    a2 = Arc(c2, c2.point_at(1.0), c2.point_at(-1.0), 0j)
    both = arc_intersections(a1, a2)
    assert len(both) == 2
    for x in both:
        kept = arc_intersections(a1, a2, boxes=(_around(x, 0.5), None))
        assert kept == [x]
        assert arc_intersections(a1, a2, boxes=(None, _around(x, 0.5))) == [x]


def test_support_intersections_tangent_circles():
    pts = support_intersections(Circle(0j, 1.0), Circle(2 + 0j, 1.0))
    finite = [p for p in pts if not is_inf(p)]
    assert len(finite) >= 1
    assert all(abs(p - (1 + 0j)) < 1e-7 for p in finite)


# --------------------------------------------------------------------------
# Moebius maps


def rand_mobius(rng: random.Random) -> Mobius:
    while True:
        a, b, c, d = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4))
        if abs(a * d - b * c) > 0.1:
            return Mobius(a, b, c, d)


def test_mobius_from_triples_random():
    rng = random.Random(7)
    for _ in range(50):
        src = tuple(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(3))
        dst = tuple(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(3))
        if min(abs(src[i] - src[j]) for i in range(3) for j in range(i + 1, 3)) < 0.1:
            continue
        if min(abs(dst[i] - dst[j]) for i in range(3) for j in range(i + 1, 3)) < 0.1:
            continue
        m = mobius_from_triples(src, dst)
        for s, t in zip(src, dst):
            assert abs(m.apply(s) - t) < 1e-8


def test_mobius_inverse_and_composition():
    rng = random.Random(11)
    for _ in range(30):
        m = rand_mobius(rng)
        n = rand_mobius(rng)
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        w = m.apply(z)
        if is_inf(w):
            continue
        assert abs(m.inverse().apply(w) - z) < 1e-8
        assert abs(m.compose(n).apply(z) - m.apply(n.apply(z))) < 1e-7


# maps with their poles: z -> 1/z, an inversion, and a conjugating map with c != 0
POLED_MAPS = (
    (Mobius(0, 1, 1, 0), 0j),
    (inversion(Circle(0.5 - 1j, 1.5)), 0.5 - 1j),
    (Mobius(1 + 1j, 2, 0.5j, 1 - 1j, conj=True), 2 - 2j),
)


def support_points(s, ts=(-1.0, 0.3, 2.0)) -> list[complex]:
    if isinstance(s, Circle):
        return [s.point_at(t) for t in ts]
    return [s.foot() + t * s.direction for t in ts]


def test_apply_circle_matches_inversion_formula():
    # the image of a circle under z -> 1/z has a closed form via the
    # power of the origin: center' = conj(c)/(|c|^2 - r^2), r' = r/||c|^2 - r^2|
    m = Mobius(0, 1, 1, 0)
    for c, r in ((2 + 1j, 0.5), (-1 + 3j, 2.0), (0.2 + 0.1j, 1.0)):
        power = abs(c) ** 2 - r * r
        img = m.apply_circle(Circle(c, r))
        assert isinstance(img, Circle)
        assert abs(img.center - c.conjugate() / power) < 1e-9
        assert abs(img.radius - r / abs(power)) < 1e-9
    # with the pole off the support, circles and lines alike map to the
    # circle through the images of their points (INF too, for a line)
    supports = (Circle(2 + 1j, 0.5), Circle(-1 + 3j, 2.0), line_through(-1 + 2j, 3 + 0.5j), line_through(4j, 1 + 4j))
    for m, _ in POLED_MAPS:
        for s in supports:
            img = m.apply_circle(s)
            assert isinstance(img, Circle)
            extra = [m.apply(INF)] if isinstance(s, Line) else []
            for z in [m.apply(x) for x in support_points(s)] + extra:
                assert img.contains(z, 1e-9)


class Q:
    """An exact complex rational, for oracles free of rounding."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @classmethod
    def of(cls, z: complex) -> "Q":
        return cls(z.real, z.imag)

    def __add__(self, o):
        return Q(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return Q(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return Q(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        n = o.re * o.re + o.im * o.im
        return self * Q(o.re / n, -o.im / n)

    def norm2(self) -> Fraction:
        return self.re * self.re + self.im * self.im


def exact_image_circle(m: Mobius, s) -> tuple[complex, float]:
    """(center, radius) of the circle through the exact images of three
    rational points of ``s``: a circle's center plus its radius times 1,
    i and (3 + 4i)/5, or a line's foot plus 0, 1 and -2 times its
    direction."""
    a, b, cc, d = (Q.of(x) for x in (m.a, m.b, m.c, m.d))
    if isinstance(s, Circle):
        units = (Q(1), Q(0, 1), Q(Fraction(3, 5), Fraction(4, 5)))
        pts = [Q.of(s.center) + Q(s.radius) * u for u in units]
    else:
        pts = [Q.of(s.foot()) + Q(t) * Q.of(s.direction) for t in (0, 1, -2)]
    p, q, w = ((a * z + b) / (cc * z + d) for z in pts)
    # circumcenter x: |x - p|^2 = |x - q|^2 = |x - w|^2, two linear equations
    u, v = q - p, w - p
    det = 2 * (u.re * v.im - u.im * v.re)
    x = p + Q((v.im * u.norm2() - u.im * v.norm2()) / det, (u.re * v.norm2() - v.re * u.norm2()) / det)
    return complex(float(x.re), float(x.im)), math.sqrt((x - p).norm2())


def test_apply_circle_matches_exact_images_far_from_the_pole():
    # maps whose pole -d/c lies up to 1e15 away: disk automorphisms near
    # the identity (the optimum of a symmetric packing) and general maps
    # with a tiny c; the image must keep its digits however far the pole,
    # for circles and for lines, whose images pass through a/c
    rng = random.Random(19)
    supports = [
        Circle(0j, 1.0),
        Circle(0.3 + 0.2j, 0.1),
        Circle(-0.55 + 0.1j, 0.4),
        Circle(0.9j, 0.05),
        Line(1 + 0j, 0.0),
        line_through(-1 + 2j, 3 + 0.5j),
        line_through(0.3j, 1 + 0.2j),
        Line(cmath.exp(0.4j), -0.8),
    ]
    for k in range(40):
        scale = 10.0 ** rng.uniform(0, 15)
        phase = cmath.exp(2j * math.pi * rng.random())
        if k % 2:
            w = phase / scale
            m = Mobius(1.0, -w, -w.conjugate(), 1.0)
        else:
            d = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            m = Mobius(complex(rng.uniform(-2, 2), 1), rng.uniform(-2, 2), phase * abs(d) / scale, d)
        for s in supports:
            center, radius = exact_image_circle(m, s)
            img = m.apply_circle(s)
            assert isinstance(img, Circle)
            assert abs(img.radius - radius) <= 1e-13 * radius, (m, s)
            assert abs(img.center - center) <= 1e-13 * radius, (m, s)


def pole_of(m: Mobius) -> complex | None:
    """The point ``m`` sends to INF, None when that is INF itself."""
    if m.c == 0:
        return None
    pole = -m.d / m.c
    return pole.conjugate() if m.conj else pole


def near_pole(m: Mobius, s, tol: float = 1e-6) -> bool:
    pole = pole_of(m)
    return pole is not None and support_distance(s, pole) <= tol * max(1.0, abs(pole))


part = st.floats(-2, 2).map(lambda x: round(x, 3))  # no pole past |d|/0.001
coefficient = st.builds(complex, part, part)
mobius_maps = (
    st.tuples(coefficient, coefficient, st.one_of(st.just(0j), coefficient), coefficient, st.booleans())
    .filter(lambda t: abs(t[0] * t[3] - t[1] * t[2]) > 0.1)
    .map(lambda t: Mobius(*t))
)
generalized_circles = st.one_of(
    st.builds(Circle, st.complex_numbers(max_magnitude=2), st.floats(0.05, 2)),
    st.builds(Line, st.floats(0, 2 * math.pi).map(lambda t: cmath.exp(1j * t)), st.floats(-2, 2)),
)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(mobius_maps, mobius_maps, generalized_circles)
def test_apply_circle_respects_composition_and_inverse(m, n, s):
    # maps of both orientations, similarities among them, on circles and
    # lines: mapping by m.compose(n) is mapping by n, then m; and the
    # inverse takes the image back, lines through the inverse's pole
    # (the images of lines) included
    image = n.apply_circle(s)
    assume(not near_pole(n, s) and not near_pole(m, image) and not near_pole(m.compose(n), s))
    assert same_support(m.compose(n).apply_circle(s), m.apply_circle(image))
    assert same_support(n.inverse().apply_circle(image), s)


def test_apply_circle_through_pole_gives_line():
    m = Mobius(0, 1, 1, 0)
    img = m.apply_circle(Circle(1 + 0j, 1.0))  # passes through 0, the pole
    assert isinstance(img, Line)
    # images of circle points (other than the pole) land on the line
    for t in (0.3, 1.1, 2.9):
        z = Circle(1 + 0j, 1.0).point_at(t)
        assert img.contains(1 / z, 1e-9)
    for m, pole in POLED_MAPS:
        for s in (Circle(pole + 1, 1.0), line_through(pole, pole + 1 + 2j)):
            img = m.apply_circle(s)
            assert isinstance(img, Line)
            for z in support_points(s, (0.3, 1.1, 2.9)):
                assert img.contains(m.apply(z), 1e-9)


def test_apply_arc_points_stay_on_image():
    def check(m: Mobius, a: Arc, inner: list[complex]) -> None:
        imgs = [m.apply(z) for z in (a.p, a.q, a.witness)]
        if any(is_inf(z) or abs(z) > 1e6 for z in imgs):
            return
        b = m.apply_arc(a)
        assert abs(b.p - imgs[0]) < 1e-9
        assert abs(b.q - imgs[1]) < 1e-9
        # interior sample points of the source arc map onto the image arc
        for z in inner:
            assert b.contains(m.apply(z), 1e-7)

    rng = random.Random(3)
    for _ in range(25):
        m = rand_mobius(rng)
        a = arc_through(
            cmath.exp(1j * rng.uniform(0, 2)),
            cmath.exp(1j * rng.uniform(3, 5)),
            cmath.exp(1j * rng.uniform(2.2, 2.8)),
        )
        start, swept, ccw = a._sweep()
        inner = [a.support.point_at(start + (swept * f if ccw else -swept * f)) for f in (0.25, 0.5, 0.75)]
        check(m, a, inner)
    # orientation-reversing maps, on circle arcs and on straight segments
    rng = random.Random(4)
    for _ in range(25):
        m = rand_mobius(rng)
        m = Mobius(m.a, m.b, m.c, m.d, conj=True)
        p, q = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(2))
        check(m, segment(p, q), [p + f * (q - p) for f in (0.25, 0.5, 0.75)])
        a = arc_through(1 + 0j, cmath.exp(1j * rng.uniform(3, 5)), cmath.exp(1j * rng.uniform(1, 2.8)))
        start, swept, ccw = a._sweep()
        check(m, a, [a.support.point_at(start + (swept * f if ccw else -swept * f)) for f in (0.25, 0.5, 0.75)])


def test_apply_arc_preserves_tiny_arc_tangents():
    # the image tangent must follow the map's derivative even when the
    # arc is far smaller than coordinate rounding would allow via
    # three-point reconstruction
    m = Mobius(2 + 1j, 0.3, 0.001, 1)  # pole far from the unit circle

    def deriv(z: complex) -> complex:
        det = m.a * m.d - m.b * m.c
        return det / (m.c * z + m.d) ** 2

    for size in (1e-3, 1e-6, 1e-9):
        a = arc_through(1 + 0j, cmath.exp(1j * size), cmath.exp(0.5j * size))
        b = m.apply_arc(a)
        want = unit(deriv(a.p) * a.tangent_direction(a.p))
        got = b.tangent_direction(b.p, tol=1e-4)
        assert abs(got - want) < 1e-6, f"size {size}: tangent off by {abs(got - want)}"


def test_apply_arc_refits_a_support_passing_near_the_pole():
    # a nearly straight arc, on a support of radius 2.3e8 that passes
    # close to the pole of an inversion: the closed-form image misses the
    # image points by 1e-2 of their size, so the support is refit through
    # them
    a = arc_through(-1 + 0j, 1 + 0j, 0.3 + 2e-9j)
    m = inversion(Circle(-0.16 + 0.057j, 0.2))
    pts = [m.apply(z) for z in (a.p, a.q, a.witness)]
    size = max(abs(z) for z in pts)
    assert max(support_distance(m.apply_circle(a.support), z) for z in pts) > 1e-3 * size
    b = m.apply_arc(a)
    assert [b.p, b.q, b.witness] == pts
    for z in pts:
        assert support_distance(b.support, z) <= 1e-15


def test_mobius_scale_translate_and_inversion():
    m = mobius_scale_translate(2j, 3 + 0j)
    assert abs(m.apply(1 + 1j) - (2j * (1 + 1j) + 3)) < 1e-12
    inv = inversion(Circle(0j, 2.0))
    # inversion in |z|=2 sends z to 4/conj(z): check a sample
    assert abs(inv.apply(1 + 0j) - 4) < 1e-12
    assert abs(abs(inv.apply(2 * cmath.exp(0.7j))) - 2.0) < 1e-12


# --------------------------------------------------------------------------
# lune bisector


def test_lune_bisector_halves_crossing_angle():
    c1 = Circle(0j, 1.0)
    c2 = Circle(math.sqrt(2) + 0j, 1.0)  # orthogonal to c1
    bis = lune_bisector(c1, c2)
    corners = [p for p in support_intersections(c1, c2) if not is_inf(p)]
    assert len(corners) == 2
    for z in corners:
        tb = bis.tangent_direction(z, tol=1e-7)
        for circ in (c1, c2):
            tc = 1j * (z - circ.center) / abs(z - circ.center)
            ang = angle_between(tb, tc)
            ang = min(ang, math.pi - ang)
            assert abs(ang - math.pi / 4) < 1e-7
    # interior witness lies inside both disks by default
    assert c1.strictly_inside(bis.witness) and c2.strictly_inside(bis.witness)


def test_lune_bisector_side_selectors():
    c1 = Circle(0j, 1.0)
    c2 = Circle(math.sqrt(2) + 0j, 1.0)
    for s1 in (True, False):
        for s2 in (True, False):
            bis = lune_bisector(c1, c2, side1=s1, side2=s2)
            assert c1.strictly_inside(bis.witness) == s1
            assert c2.strictly_inside(bis.witness) == s2


def support_tangent(s, z: complex) -> complex:
    return 1j * (z - s.center) if isinstance(s, Circle) else s.direction


def fold(angle: float) -> float:
    """An angle between two undirected lines, in [0, pi/2]."""
    return min(angle, math.pi - angle)


@st.composite
def crossing_pairs(draw):
    """Two properly crossing supports: a circle of radius r1 at 0 and,
    rotated by theta about it, a circle of radius r2 at distance d
    strictly between |r1 - r2| and r1 + r2, or a line at distance
    strictly below r1."""
    r1 = draw(st.integers(1, 16)) / 4
    theta = draw(st.integers(0, 23)) * math.pi / 12
    k = draw(st.integers(1, 9)) / 10
    rot = cmath.exp(1j * theta)
    if draw(st.booleans()):
        return Circle(0j, r1), Line(rot, (2 * k - 1) * r1)
    r2 = draw(st.integers(1, 16)) / 4
    d = abs(r1 - r2) + k * (r1 + r2 - abs(r1 - r2))
    return Circle(0j, r1), Circle(d * rot, r2)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    crossing_pairs(),
    st.complex_numbers(min_magnitude=0.1, max_magnitude=10),
    st.complex_numbers(max_magnitude=10),
)
def test_lune_bisector_properties(pair, s, t):
    c1, c2 = pair
    similarity = Mobius(s, t, 0, 1)
    size = max(c.radius for c in pair if isinstance(c, Circle))
    for s1, s2 in itertools.product((True, False), repeat=2):
        bis = lune_bisector(c1, c2, side1=s1, side2=s2)
        # the arc ends at the two crossing points
        for z in (bis.p, bis.q):
            for c in (c1, c2, bis.support):
                assert support_distance(c, z) <= 1e-12 * size
        assert abs(bis.p - bis.q) > 1e-3 * size
        # its tangent makes equal angles with both supports at each end
        for z in (bis.p, bis.q):
            tb = bis.tangent_direction(z)
            a1, a2 = (fold(angle_between(tb, support_tangent(c, z))) for c in (c1, c2))
            assert abs(a1 - a2) <= 1e-9
        # the witness lies in the selected region, on the support, midway
        w = bis.witness
        assert (c1.strictly_inside(w), c2.strictly_inside(w)) == (s1, s2)
        if not is_inf(w):
            assert support_distance(bis.support, w) <= 1e-9 * max(size, abs(w))
            assert abs(abs(w - bis.p) - abs(w - bis.q)) <= 1e-9 * max(size, abs(w))
        # it commutes with a similarity
        mapped = lune_bisector(similarity.apply_circle(c1), similarity.apply_circle(c2), side1=s1, side2=s2)
        expect = similarity.apply_arc(bis)
        scale = abs(s) * size + abs(t)
        assert same_support(mapped.support, expect.support, 1e-9)
        for z in (expect.p, expect.q):
            assert min(abs(z - mapped.p), abs(z - mapped.q)) <= 1e-9 * scale
        assert is_inf(expect.witness) if is_inf(w) else abs(mapped.witness - expect.witness) <= 1e-9 * scale


def test_lune_bisector_of_equal_circles_is_their_common_chord():
    for r, d in ((1.0, 1.0), (0.25, 0.4), (3.0, 5.9)):
        for rot in (1, 1j, cmath.exp(0.7j), cmath.exp(2.1j)):
            c1, c2 = Circle(0j, r), Circle(d * rot, r)
            bis = lune_bisector(c1, c2)
            assert isinstance(bis.support, Line)
            # the chord is the perpendicular bisector of the centers
            assert abs(bis.support.signed_distance(c1.center) + bis.support.signed_distance(c2.center)) <= 1e-12
            assert abs(bis.witness - d * rot / 2) <= 1e-12 * r
            # outside both disks the bisector is the rest of that line,
            # whose witness may be INF
            outer = lune_bisector(c1, c2, side1=False, side2=False)
            assert isinstance(outer.support, Line) and same_support(outer.support, bis.support)
            assert not (c1.strictly_inside(outer.witness) or c2.strictly_inside(outer.witness))
            assert not outer.contains((outer.p + outer.q) / 2)


# --------------------------------------------------------------------------
# isodynamic points


def test_isodynamic_distance_ratio_property():
    # at an isodynamic point the distances to the vertices are inversely
    # proportional to the opposite side lengths
    a, b, c = 0j, 4 + 0j, 1 + 3j
    la, lb, lc = sides(a, b, c)
    for z in isodynamic_points(a, b, c):
        if is_inf(z):
            continue
        prods = (abs(z - a) * la, abs(z - b) * lb, abs(z - c) * lc)
        assert max(prods) - min(prods) < 1e-9 * max(prods)


def sides(a: complex, b: complex, c: complex) -> tuple:
    """(|bc|, |ca|, |ab|): the side lengths opposite to a, b, c."""
    return (abs(c - b), abs(a - c), abs(b - a))


def signed_area(a: complex, b: complex, c: complex) -> float:
    return ((b - a).conjugate() * (c - a)).imag / 2


def trilinear_isodynamic_points(verts: tuple) -> tuple:
    """The isodynamic points from their trilinears sin(A +- pi/3), turned
    into barycentric weights by the opposite side lengths; angles by the
    law of cosines.  None where the weights sum to about 0."""
    lengths = sides(*verts)
    angles = []
    for k in range(3):
        opp, s1, s2 = lengths[k], lengths[(k + 1) % 3], lengths[(k + 2) % 3]
        angles.append(math.acos((s1 * s1 + s2 * s2 - opp * opp) / (2 * s1 * s2)))

    def pt(sign: float):
        w = [side * math.sin(ang + sign * math.pi / 3) for side, ang in zip(lengths, angles)]
        if abs(sum(w)) <= 1e-9 * sum(map(abs, w)):
            return None
        return sum(wi * v for wi, v in zip(w, verts)) / sum(w)

    return pt(+1.0), pt(-1.0)


def test_isodynamic_points_match_trilinears():
    # random triangles of both orientations; the first point is the one
    # with trilinears sin(A + pi/3), inside the triangle
    rng = random.Random(7)
    checked = 0
    while checked < 300:
        pts = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
        size = max(sides(*pts))
        if abs(signed_area(*pts)) < 1e-3 * size * size:
            continue
        for got, want in zip(isodynamic_points(*pts), trilinear_isodynamic_points(pts)):
            if want is None:
                assert is_inf(got) or abs(got) > 1e6 * size
            else:
                assert abs(got - want) <= 1e-9 * max(size, abs(want)), (pts, got, want)
        checked += 1


def test_isodynamic_equilateral():
    w = cmath.exp(2j * math.pi / 3)
    first, second = isodynamic_points(1 + 0j, w, w * w)
    assert abs(first) < 1e-12  # the center
    assert is_inf(second)


def tangent_triple(r1: float, r2: float, r3: float) -> tuple:
    """Three mutually tangent circles with the given radii and their
    tangency points, in the order (t12, t23, t31)."""
    d = r1 + r2
    # the third center from the law of cosines at the first
    cos_a = ((r1 + r3) ** 2 + d * d - (r2 + r3) ** 2) / (2 * (r1 + r3) * d)
    c3 = (r1 + r3) * cmath.exp(1j * math.acos(cos_a))
    circles = (Circle(0j, r1), Circle(d + 0j, r2), Circle(c3, r3))
    pts = tuple(
        a.center + a.radius * unit(b.center - a.center)
        for a, b in zip(circles, circles[1:] + circles[:1])
    )
    return circles, pts


radii = st.floats(min_value=0.05, max_value=20)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(
    radii,
    radii,
    radii,
    st.one_of(st.none(), st.tuples(st.complex_numbers(max_magnitude=40), st.floats(0.5, 10))),
)
def test_first_isodynamic_point_lies_in_the_cusp_inside_the_tangency_circle(r1, r2, r3, inv):
    # the lemma drawing_from_packing relies on: of the two isodynamic
    # points of the tangency points of three mutually tangent circles, the
    # first lies in the gap between the disks that is inside the circle
    # through the tangency points, the second outside that circle.  An
    # inversion whose center lies in a disk turns that disk inside out,
    # as normalization does to the outer face's circle.
    circles, pts = tangent_triple(r1, r2, r3)
    inside_out = [False] * 3
    if inv is not None:
        m = inversion(Circle(*inv))
        # keep the center off the circles and the tangency points, so
        # that no image is a line or escapes to INF
        for c in circles:
            assume(abs(abs(inv[0] - c.center) - c.radius) > 0.05 * c.radius)
        assume(min(abs(inv[0] - t) for t in pts) > 0.05 * min(r1, r2, r3))
        inside_out = [c.strictly_inside(inv[0]) for c in circles]
        circles = tuple(m.apply_circle(c) for c in circles)
        pts = tuple(m.apply(t) for t in pts)
    cc = circle_through(*pts)
    assert isinstance(cc, Circle)
    first, second = isodynamic_points(*pts)
    for c, out in zip(circles, inside_out):
        gap = abs(first - c.center) - c.radius
        assert (gap < 1e-9 * c.radius) if out else (gap > -1e-9 * c.radius)
    assert abs(first - cc.center) < cc.radius
    assert is_inf(second) or abs(second - cc.center) > cc.radius


def test_angle_between_basic():
    assert abs(angle_between(1 + 0j, 1j) - math.pi / 2) < 1e-12
    assert abs(angle_between(1 + 1j, -1 - 1j) - math.pi) < 1e-12
    assert angle_between(2 + 0j, 5 + 0j) < 1e-12


def test_degenerate_inputs_rejected():
    with pytest.raises(ValueError):
        Circle(0j, 0.0)
    with pytest.raises(ValueError):
        isodynamic_points(0j, 1 + 0j, 2 + 0j)
    with pytest.raises(ValueError):
        Arc(Circle(0j, 1.0), 1 + 0j, 1 + 0j, 1j)


def test_mobius_degeneracy_is_relative_to_the_determinant_terms():
    # a translation far from the origin is a valid map
    m = mobius_scale_translate(1, 3e7)
    assert m(1j) == 3e7 + 1j
    for coeffs in [(1, 2, 2, 4), (0, 0, 0, 0), (1e8, 1e8, 1e-8, 1e-8)]:
        with pytest.raises(ValueError):
            Mobius(*coeffs)


# --------------------------------------------------------------------------
# the sweep memo and INF by identity


def test_arc_sweep_is_kept_outside_the_fields():
    a = arc_through(1 + 0j, -1 + 0j, 1j)
    m = Mobius(2 + 1j, 0.3, 0.5, 1)
    moved = transform(LombardiDrawing({"u": a.p, "w": a.q}, {"e": a}, {"e": ("u", "w")}), m)
    arcs = [a, m.apply_arc(a), moved.arcs["e"], arc_through(0j, 2 + 0j, 1 - 1j)]
    for arc in arcs:
        fresh = Arc(arc.support, arc.p, arc.q, arc.witness)
        swept = arc._sweep()
        assert arc._sweep() is swept  # computed once
        assert swept == fresh._sweep()
        assert arc == fresh and hash(arc) == hash(fresh) and repr(arc) == repr(fresh)
        back = pickle.loads(pickle.dumps(arc))
        assert back == arc and back._sweep() == swept
        # the reversed arc is a new instance with its own sweep
        rev = Arc(arc.support, arc.q, arc.p, arc.witness)
        tq, rswept, rccw = rev._sweep()
        assert tq == arc.support.angle_of(arc.q) and rccw is not swept[2]
        assert math.isclose(rswept, swept[1])


RECORDS = [
    Circle(0.1j, 2.0),
    Line(1j, -0.5),
    Mobius(2 + 1j, 0.3, 0.5, 1),
    Mobius(1, 0, 0, 1, conj=True),
    arc_through(1 + 0j, -1 + 0j, 1j),
    segment(0j, 1 + 1j),
    Arc(Line(1j, 0.0), INF, 0j, 1 + 0j),
]
FIELDS = {
    Circle: ("center", "radius"),
    Line: ("normal", "offset"),
    Mobius: ("a", "b", "c", "d", "conj"),
    Arc: ("support", "p", "q", "witness"),
}


@pytest.mark.parametrize("rec", RECORDS, ids=repr)
def test_geometry_records_are_frozen_values(rec):
    if isinstance(rec, Arc) and isinstance(rec.support, Circle):
        swept = rec._sweep()  # pickled with its sweep cached
    fields = FIELDS[type(rec)]
    twin = type(rec)(*(getattr(rec, f) for f in fields))
    assert twin is not rec and twin == rec and hash(twin) == hash(rec) and not twin != rec
    assert rec != Circle(5j, 7.0) and rec != fields
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is type(rec) and back == rec and hash(back) == hash(rec)
    assert copy.deepcopy(rec) == rec and copy.copy(rec) == rec
    if isinstance(rec, Arc) and isinstance(rec.support, Circle):
        assert back._sweep() == swept
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert twin == rec  # the refused writes changed nothing


def test_geometry_record_repr_is_the_dataclass_text():
    assert repr(Circle(0.1j, 2.0)) == "Circle(center=0.1j, radius=2.0)"
    assert repr(Line(1j, -0.5)) == "Line(normal=1j, offset=-0.5)"
    assert repr(Mobius(2, 0.5j, 0, 1)) == "Mobius(a=2, b=0.5j, c=0, d=1, conj=False)"
    assert repr(Arc(Line(1j, 0.0), INF, 0j, 1 + 0j)) == (
        "Arc(support=Line(normal=1j, offset=0.0), p=INF, q=0j, witness=(1+0j))"
    )
    assert repr(Arc(Circle(0j, 1.0), 1 + 0j, -1 + 0j, 1j)) == (
        "Arc(support=Circle(center=0j, radius=1.0), p=(1+0j), q=(-1+0j), witness=1j)"
    )


def test_inf_is_one_instance():
    assert _PointAtInfinity() is INF
    assert pickle.loads(pickle.dumps(INF)) is INF
    assert copy.copy(INF) is INF and copy.deepcopy([INF])[0] is INF


def test_arc_rejects_exactly_the_equal_point_pairs():
    nan = complex(math.nan, math.nan)
    points = [0j, complex(-0.0, -0.0), 1 + 2j, nan, INF, complex(math.inf, 0.0)]
    # 0j and -0j are equal; NaN equals nothing, itself included; an
    # infinite coordinate is not rejected here but fails verify
    equal = {(i, i) for i in (0, 1, 2, 4)} | {(0, 1), (1, 0)}
    for i, j in itertools.product(range(6), repeat=2):
        # the test Arc makes agrees with near(u, v, 0.0), which it replaced
        assert near(points[i], points[j], 0.0) == ((i, j) in equal)
    for i, j, k in itertools.product(range(6), repeat=3):
        clash = {(i, j), (i, k), (j, k)} & equal
        if clash:
            with pytest.raises(ValueError, match="pairwise distinct"):
                Arc(Line(1j, 0.0), points[i], points[j], points[k])
        else:
            Arc(Line(1j, 0.0), points[i], points[j], points[k])
