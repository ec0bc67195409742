"""Outer normalization and min-radius optimization over disk automorphisms."""

import cmath
import math
import random

import pytest

from conftest import load_graph
from lombardi.graph import parse
from lombardi.mobius_opt import (
    NormalizedPacking,
    _hyperboloid_coefficients,
    _min_radius,
    apply_to_normalized,
    disk_automorphism,
    normalize_outer,
    optimize_min_radius,
)
from lombardi.packing import pack_and_layout

K4_TEXT = "a b c d\nb c a d\nc a b d\nd a c b\n"


def normalized(g) -> NormalizedPacking:
    dualg, _ = g.dual()
    norm, _ = normalize_outer(pack_and_layout(dualg), "f0")
    return norm


def k4_normalized() -> NormalizedPacking:
    return normalized(parse(K4_TEXT))


def objective(norm: NormalizedPacking, w: complex) -> float:
    """Smallest interior radius after disk_automorphism(w), recomputed."""
    m = disk_automorphism(w)
    vals = []
    for v in norm.interior_names():
        img = m.apply_circle(norm.circles[v])
        vals.append(getattr(img, "radius", -math.inf))
    return min(vals)


def test_normalize_outer_maps_to_unit_circle():
    norm = k4_normalized()
    out = norm.circles[norm.outer]
    assert abs(out.center) < 1e-9
    assert abs(out.radius - 1.0) < 1e-9
    for v in norm.interior_names():
        c = norm.circles[v]
        assert abs(c.center) + c.radius <= 1.0 + 1e-7
    # tangencies survive: tangency points still lie on their circles...
    # the outer normalization is a Moebius map, so interior circles stay
    # pairwise tangent; spot-check all recorded tangency points
    for t, z in norm.tangency.items():
        on = [v for v, c in norm.circles.items() if c.contains(z, 1e-7)]
        assert len(on) >= 2


def test_disk_automorphism_fixes_unit_circle():
    rng = random.Random(5)
    for _ in range(20):
        w = 0.8 * cmath.exp(2j * math.pi * rng.random()) * rng.random()
        m = disk_automorphism(w)
        assert abs(m.apply(w)) < 1e-12
        for k in range(8):
            z = cmath.exp(2j * math.pi * k / 8)
            assert abs(abs(m.apply(z)) - 1.0) < 1e-9


def test_disk_automorphism_rejects_outside_parameter():
    with pytest.raises(ValueError):
        disk_automorphism(1.5 + 0j)


def test_hyperboloid_closed_form_matches_image_radius():
    norm = normalized(load_graph("tutte"))
    rng = random.Random(23)
    for _ in range(20):
        w = 0.9 * rng.random() * cmath.exp(2j * math.pi * rng.random())
        y = 2 * w / (1 - abs(w) ** 2)  # inverse of w = Y / (1 + S)
        sq = math.sqrt(1 + abs(y) ** 2)
        m = disk_automorphism(w)
        for v in norm.interior_names():
            a, b, gamma = _hyperboloid_coefficients(norm.circles[v])
            want = 1 / m.apply_circle(norm.circles[v]).radius
            got = a * sq - (b.conjugate() * y).real + gamma
            assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize(
    "name", ["k4", "cube", "frucht", "dodecahedron", "tutte", "truncated_icosahedron"]
)
def test_min_radius_is_apply_circle_exactly(name):
    # _min_radius repeats apply_circle's arithmetic on floats; the two
    # copies must agree bit for bit, or the optimizer's choice of iterate
    # and its returned objective would drift from the map it returns
    norm = normalized(load_graph(name))
    rng = random.Random(name)
    for _ in range(500):
        w = (1 - 10 ** rng.uniform(-6, 0)) * cmath.exp(2j * math.pi * rng.random())
        assert _min_radius(norm, w) == objective(norm, w), w
    assert _min_radius(norm, 0j) == objective(norm, 0j) == min(
        norm.circles[v].radius for v in norm.interior_names()
    )
    # toward the point where an interior circle touches the unit circle,
    # the pole lands on that circle and its image is a line
    v = max(norm.interior_names(), key=lambda v: abs(norm.circles[v].center) + norm.circles[v].radius)
    c = norm.circles[v].center
    w = (1 - 1e-12) * c / abs(c)
    assert _min_radius(norm, w) == objective(norm, w) == -math.inf


def test_optimizer_matches_grid_search_oracle():
    inputs = {"k4": k4_normalized()}
    for name in ("cube", "frucht", "dodecahedron"):
        inputs[name] = normalized(load_graph(name))
    for name, norm in inputs.items():
        # independent coarse grid search over the parameter disk
        best = -math.inf
        n = 41
        for i in range(n):
            for j in range(n):
                w = complex(-0.95 + 1.9 * i / (n - 1), -0.95 + 1.9 * j / (n - 1))
                if abs(w) >= 0.95:
                    continue
                best = max(best, objective(norm, w))
        m, obj = optimize_min_radius(norm)
        assert obj >= best - 1e-4, name  # optimizer at least as good as the grid
        # and the optimizer's claimed objective matches a recomputation
        vals = [m.apply_circle(norm.circles[v]).radius for v in norm.interior_names()]
        assert min(vals) == obj, name


def test_optimizer_beats_every_nearby_probe():
    # k4 and frucht are where a loose stopping rule leaves the largest error
    for name in ("k4", "cube", "frucht", "dodecahedron", "tutte", "truncated_icosahedron"):
        norm = normalized(load_graph(name))
        m, obj = optimize_min_radius(norm)
        w = -m.b  # disk_automorphism(w) has b = -w
        for rho in (1e-3, 1e-5, 1e-7, 1e-9):
            for k in range(48):
                probe = objective(norm, w + rho * cmath.exp(2j * math.pi * k / 48))
                assert probe <= obj * (1 + 1e-12), (name, rho, k)


@pytest.mark.parametrize(
    "name, active",
    [
        ("k4", 3),
        ("cube", 1),
        ("frucht", 3),
        ("dodecahedron", 1),
        ("tutte", 1),
        ("truncated_icosahedron", 1),
    ],
)
def test_optimizer_active_circles(name, active):
    # at most three circles fix the optimum; on frucht two opposite
    # circles fix it and a third reaches the same radius 1/6 there
    norm = normalized(load_graph(name))
    m, _ = optimize_min_radius(norm)
    recip = [1 / m.apply_circle(norm.circles[v]).radius for v in norm.interior_names()]
    assert sum(max(recip) - x <= 1e-12 * max(recip) for x in recip) == active


@pytest.mark.parametrize("name", ["k4", "frucht", "truncated_icosahedron"])
def test_optimizer_does_not_depend_on_circle_order(name):
    norm = normalized(load_graph(name))
    names = [norm.outer, *reversed(norm.interior_names())]
    rev = NormalizedPacking({v: norm.circles[v] for v in names}, norm.tangency, norm.outer)
    assert rev.interior_names() == norm.interior_names()[::-1]
    m, obj = optimize_min_radius(norm)
    m_rev, obj_rev = optimize_min_radius(rev)
    assert abs(obj_rev - obj) <= 1e-14 * obj
    assert abs(m_rev.b - m.b) <= 1e-12  # disk_automorphism(w) has b = -w


def test_optimizer_keeps_the_symmetry_of_a_smooth_optimum():
    # only the circle opposite the outer face is active, so the objective
    # is flat to second order there; the four side-face circles are
    # congruent under the cube's rotation about that axis and must come
    # out equal, which iterates 1e-9 from the optimum do not
    norm = normalized(load_graph("cube"))
    m, obj = optimize_min_radius(norm)
    radii = sorted(m.apply_circle(norm.circles[v]).radius for v in norm.interior_names())
    assert radii[0] == obj
    assert radii[-1] - radii[1] <= 1e-10 * radii[-1]


def test_optimizer_monotone_history_and_start_invariance():
    norm = k4_normalized()
    hist: list = []
    _, obj0 = optimize_min_radius(norm, history=hist)
    assert hist == sorted(hist)
    rng = random.Random(17)
    for _ in range(3):
        w0 = 0.7 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        _, obj = optimize_min_radius(norm, start=w0)
        assert abs(obj - obj0) < 1e-8


def test_apply_to_normalized_keeps_outer():
    norm = k4_normalized()
    m = disk_automorphism(0.2 + 0.1j)
    norm2 = apply_to_normalized(norm, m)
    assert norm2.outer == norm.outer
    out = norm2.circles[norm2.outer]
    assert abs(out.radius - 1.0) < 1e-9 and abs(out.center) < 1e-9
    for v in norm2.interior_names():
        c = norm2.circles[v]
        assert abs(c.center) + c.radius <= 1.0 + 1e-7
