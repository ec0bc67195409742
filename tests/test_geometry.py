"""Oracle-based tests for circles, arcs, and Moebius maps."""

import cmath
import math
import random

import pytest

from lombardi.geometry import (
    INF,
    Arc,
    Circle,
    Line,
    Mobius,
    Triangle,
    angle_between,
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
    segment,
    support_intersections,
)


def unit(z: complex) -> complex:
    return z / abs(z)


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
    assert c2.contains(pts[0])


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


# --------------------------------------------------------------------------
# isodynamic points


def test_isodynamic_distance_ratio_property():
    # at an isodynamic point the distances to the vertices are inversely
    # proportional to the opposite side lengths
    t = Triangle(0j, 4 + 0j, 1 + 3j)
    la, lb, lc = t.sides()
    for z in isodynamic_points(t):
        if is_inf(z):
            continue
        prods = (abs(z - t.a) * la, abs(z - t.b) * lb, abs(z - t.c) * lc)
        assert max(prods) - min(prods) < 1e-9 * max(prods)


def test_isodynamic_equilateral():
    w = cmath.exp(2j * math.pi / 3)
    t = Triangle(1 + 0j, w, w * w)
    first, second = isodynamic_points(t)
    assert abs(first) < 1e-12  # the center
    assert is_inf(second)


def test_angle_between_basic():
    assert abs(angle_between(1 + 0j, 1j) - math.pi / 2) < 1e-12
    assert abs(angle_between(1 + 1j, -1 - 1j) - math.pi) < 1e-12
    assert angle_between(2 + 0j, 5 + 0j) < 1e-12


def test_degenerate_inputs_rejected():
    with pytest.raises(ValueError):
        Circle(0j, 0.0)
    with pytest.raises(ValueError):
        Triangle(0j, 1 + 0j, 2 + 0j)
    with pytest.raises(ValueError):
        Arc(Circle(0j, 1.0), 1 + 0j, 1 + 0j, 1j)
