"""``verify``'s sort-and-sweep crossing and coincidence tests against the
all-pairs loops they replaced, which are kept here as the oracle, and its
angle criterion against one computed with ``Arc.tangent_direction``."""

import cmath
import json
import math
import random
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lombardi.drawing as drawing
from conftest import FIXTURES, drawn, drawn_medial, load_graph, nested_gadgets
from lombardi.drawing import (
    DrawingError,
    LombardiDrawing,
    _arcs_overlap_on_support,
    _mirror_meeting,
    _support_noise,
    draw_subcubic,
    from_json,
    to_json,
    verify,
)
from lombardi.geometry import (
    INF,
    Arc,
    Circle,
    Line,
    arc_intersections,
    arc_through,
    circle_through,
    is_finite,
    is_inf,
    line_through,
    same_support,
    segment,
)
from lombardi.graph import parse

sys.path.insert(0, str(FIXTURES.parent / "perfbench"))
import family  # noqa: E402

SUBCUBIC = [
    "k4", "cube", "dodecahedron", "frucht", "tutte", "truncated_icosahedron",
    "two_k4e", "double_claw", "two_blocks_bridge", "irregular69",
]
MEDIAL = ["k4", "octahedron", "cube", "dodecahedron", "frucht", "tutte", "truncated_icosahedron"]


def all_pairs(d: LombardiDrawing, tol_geom: float = 1e-9) -> tuple[list, list]:
    """(crossings, coincident) by testing every pair: verify's loops
    before the sweep."""
    pos = d.positions
    vals = list(pos.values())
    scale = max(abs(z - vals[0]) for z in vals) if vals else 1.0
    tol_pt = tol_geom * scale
    match_tol = max(1e-6 * scale, 10 * tol_pt)
    crossings = []
    tags = list(d.arcs)
    for i in range(len(tags)):
        for j in range(i + 1, len(tags)):
            t1, t2 = tags[i], tags[j]
            a1, a2 = d.arcs[t1], d.arcs[t2]
            shared = set(d.edges[t1]) & set(d.edges[t2])
            shared_pts = [pos[v] for v in shared]
            if same_support(a1.support, a2.support, 1e-9):
                if _arcs_overlap_on_support(a1, a2, match_tol):
                    crossings.append((t1, t2))
                continue
            exclude = max(match_tol, _support_noise(a1, a2))
            for x in arc_intersections(a1, a2, tol=tol_pt):
                if is_inf(x):
                    continue
                if any(abs(x - s) <= exclude for s in shared_pts):
                    continue
                crossings.append((t1, t2))
                break
    coincident = []
    names = list(pos)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            if abs(pos[names[i]] - pos[names[j]]) <= tol_pt:
                coincident.append((names[i], names[j]))
    return crossings, coincident


def assert_agrees(d: LombardiDrawing, tol_geom: float = 1e-9) -> list:
    rep = verify(d, tol_geom=tol_geom)
    crossings, coincident = all_pairs(d, tol_geom)
    assert rep.crossings == crossings
    assert rep.coincident == coincident
    return crossings


def similar(d: LombardiDrawing, s: complex, t: complex = 0j) -> LombardiDrawing:
    """The drawing under z -> s*z + t, each support mapped by its centre
    and radius or its normal and offset: without rounding when s is a
    power of two and t is 0."""

    def f(z):
        return z if is_inf(z) else s * z + t

    def support(x):
        if isinstance(x, Circle):
            return Circle(f(x.center), abs(s) * x.radius)
        n = x.normal * (s / abs(s))
        return Line(n, abs(s) * x.offset + (n.conjugate() * t).real)

    arcs = {k: Arc(support(a.support), f(a.p), f(a.q), f(a.witness)) for k, a in d.arcs.items()}
    return LombardiDrawing({v: f(z) for v, z in d.positions.items()}, arcs, dict(d.edges))


def from_arcs(arcs: list[Arc], extra: list[complex] = ()) -> LombardiDrawing:
    """A drawing with one vertex per distinct finite endpoint (plus
    ``extra`` points); an arc end at INF is tied to the arc's other end."""
    names: dict = {}

    def name(z):
        return names.setdefault(z, f"v{len(names)}")

    for z in extra:
        name(z)
    edges = {}
    for i, a in enumerate(arcs):
        ends = [name(z) for z in (a.p, a.q) if not is_inf(z)]
        edges[i] = (ends[0], ends[-1])
    return LombardiDrawing({v: z for z, v in names.items()}, dict(enumerate(arcs)), edges)


def angle_oracle(d: LombardiDrawing, tol_geom: float = 1e-9) -> tuple:
    """(max_angle_residual, worst_angle_vertex) of verify's criterion (b),
    every arc-end's direction taken from ``Arc.tangent_direction``."""
    pos = d.positions
    fin = [z for z in pos.values() if is_finite(z)]
    scale = max([abs(z - fin[0]) for z in fin], default=1.0)
    match_tol = max(1e-6 * scale, 10 * tol_geom * scale)
    incident: dict = {v: [] for v in pos}
    for t, (u, w) in d.edges.items():
        incident[u].append(t)
        incident[w].append(t)
    worst, worst_v = 0.0, None
    for v, tags in incident.items():
        k = len(tags)
        if k < 2:
            continue
        try:
            dirs = sorted(cmath.phase(d.arcs[t].tangent_direction(pos[v], tol=match_tol)) for t in tags)
        except ValueError:
            worst, worst_v = math.inf, v
            continue
        for i in range(k):
            res = abs((dirs[(i + 1) % k] - dirs[i]) % (2 * math.pi) - 2 * math.pi / k)
            if res > worst:
                worst, worst_v = res, v
    return worst, worst_v


def _fixture_drawings():
    for name in SUBCUBIC:
        yield f"subcubic-{name}", drawn(name)[1]
    for name in MEDIAL:
        yield f"medial-{name}", drawn_medial(name)


def test_sweep_matches_all_pairs_on_fixture_drawings():
    for label, d in _fixture_drawings():
        assert assert_agrees(d) == [], label


def _json_drawings():
    """Drawings read back by ``from_json``: K4 with Line arcs and circle
    arcs whose ends lie 1e-8 off their circles; the same with one vertex
    moved off its arcs' ends; and with a position that is NaN."""
    a, b, c, o = 0j, 1 + 0j, 0.5 + 0.8j, 0.5 + 0.3j

    def loose(p, q, w, f):  # the arc through p, w, q on a circle grown by f
        s = circle_through(p, q, w)
        return Arc(Circle(s.center, s.radius * (1 + f)), p, q, w)

    arcs = {
        "ab": segment(a, b),
        "bc": loose(b, c, 0.9 + 0.5j, 1e-8),
        "ca": loose(c, a, 0.1 + 0.45j, -1e-8),
        "oa": segment(o, a),
        "ob": arc_through(o, b, 0.8 + 0.2j),
        "oc": loose(c, o, 0.45 + 0.55j, 1e-8),
    }
    edges = {t: tuple(t) for t in arcs}
    base = {"a": a, "b": b, "c": c, "o": o}
    for moved in ({}, {"o": o + 0.01j}, {"c": complex(math.nan, 0.8)}):
        d = LombardiDrawing({**base, **moved}, arcs, edges)
        yield from_json(json.loads(json.dumps(to_json(d))))


def test_angle_criterion_matches_tangent_direction():
    drawings = [d for _, d in _fixture_drawings()] + list(_json_drawings())
    for d in drawings:
        rep = verify(d)
        assert (rep.max_angle_residual, rep.worst_angle_vertex) == angle_oracle(d)
    loaded = list(_json_drawings())
    assert any(isinstance(a.support, Line) for a in loaded[0].arcs.values())
    assert 0 < verify(loaded[0]).max_angle_residual < math.inf
    assert verify(loaded[1]).max_angle_residual == math.inf
    # the NaN vertex has no tangent, so it is the worst angle vertex
    rep = verify(loaded[2])
    assert (rep.max_angle_residual, rep.worst_angle_vertex) == (math.inf, "c")


def test_verify_judges_a_drawing_in_its_own_frame():
    # every tolerance is a multiple of the drawing's extent, so a power
    # of two scales every quantity verify compares without rounding, and
    # the report must not move by a bit
    for label, d in _fixture_drawings():
        rep = verify(d)
        want = (rep.passed, rep.crossings, rep.coincident, rep.max_angle_residual)
        for k in (-40, -30, -20, -7, 16, 24, 30, 40):
            got = verify(similar(d, 2.0**k))
            assert (got.passed, got.crossings, got.coincident, got.max_angle_residual) == want, (label, k)
        fin = list(d.positions.values())
        extent = max(abs(z - fin[0]) for z in fin)
        for u in (1, 1j, -1, -1j):
            assert verify(similar(d, 1, 1e3 * extent * u)).passed == rep.passed, (label, u)
    # two perpendicular segments crossing at 0, in a drawing 2e9 across:
    # a point tolerance of 2 does not make their lines parallel
    arcs = [segment(-1e3 + 0j, 1e3 + 0j), segment(-1e3j, 1e3j)]
    d = from_arcs(arcs, [2e9 + 0j])
    assert verify(d).crossings == [(0, 1)] == assert_agrees(d)


def test_sweep_matches_all_pairs_on_huge_support_path():
    radius = 4e9
    for k in range(-30, 31):
        phi = k / 10
        c = Circle(-radius * cmath.exp(1j * phi), radius)
        a, b, z = (c.point_at(phi + s / radius) for s in (-1.0, 0.0, 1.0))
        ab = Arc(c, a, b, c.point_at(phi - 0.5 / radius))
        bz = Arc(c, b, z, c.point_at(phi + 0.5 / radius))
        assert assert_agrees(from_arcs([ab, bz])) == [], phi


def test_sweep_matches_all_pairs_within_wide_slacks():
    # a drawing 1e9 across makes the point tolerance about 1: a unit
    # segment at the origin holds the points within 1 of it, not every
    # point of its line, so it does not cross an arc over that line 1e9 away
    far = arc_through(1e9 - 1j, 1e9 + 1j, 1e9 + 0.5 + 0j)
    assert assert_agrees(from_arcs([arc_through(-0.5 + 0j, 0.5 + 0j, 0j), far])) == []
    # a radius-4e9 arc in a drawing 100 across: Circle.contains accepts
    # points within 1e-7 of the circle, not 400, so a segment 50 away
    # does not cross it
    radius = 4e9
    c = Circle(complex(0, -radius), radius)
    arc = Arc(c, c.point_at(math.pi / 2 + 1 / radius), c.point_at(math.pi / 2 - 1 / radius), 0j)
    seg = arc_through(-1 + 50j, 1 + 50j, 50j)
    assert assert_agrees(from_arcs([arc, seg], [100 + 0j])) == []
    # supports equal within same_support's 1e-9 relative but 9e-4 apart
    # overlap, at a tolerance far below that gap
    big = [Circle(0j, 1e6), Circle(9e-4 + 0j, 1e6)]
    arcs = [Arc(s, s.point_at(-1e-5), s.point_at(1e-5), s.point_at(k * 1e-6)) for k, s in enumerate(big)]
    assert assert_agrees(from_arcs(arcs), tol_geom=1e-12) == [(0, 1)]


def test_sweep_matches_all_pairs_on_a_circle_arc_with_ends_off_its_circle():
    # an arc read from JSON need not have p and q on its support: this one
    # runs over the unit circle from angle pi/8 to pi/2, out to x = 0.92,
    # while p = 0.5*e^(i*pi/8) and q = i stay within x <= 0.47
    arc = Arc(Circle(0j, 1.0), 0.5 * cmath.exp(1j * math.pi / 8), 1j, cmath.exp(1j * math.pi / 4))
    ray = cmath.exp(1j * math.pi / 6)
    assert assert_agrees(from_arcs([arc, arc_through(0.8 * ray, 1.2 * ray, ray)])) == [(0, 1)]


@pytest.mark.parametrize("gap", [-1e-6, -1e-8, -1e-9, -1e-10, 0.0, 1e-10, 1e-9, 1e-8, 1e-6])
def test_sweep_matches_all_pairs_on_near_tangent_circles(gap):
    arcs = []
    for r2, sign in ((1.0, 1), (0.25, 1), (3.0, -1)):
        # circle 2 touches the unit circle at 1 from outside (sign 1) or
        # holds it (sign -1), moved outward by ``gap``
        c2 = complex(1 + sign * r2 + gap, 0)
        arcs.append(arc_through(cmath.exp(-0.5j), cmath.exp(0.5j), 1 + 0j))
        arcs.append(arc_through(c2 + r2 * cmath.exp(2.5j), c2 + r2 * cmath.exp(-2.5j), c2 - sign * r2))
    # a segment just touching the unit circle at -1
    arcs.append(arc_through(complex(-1 - gap, -1), complex(-1 - gap, 1), complex(-1 - gap, 0)))
    assert_agrees(from_arcs(arcs))


def test_sweep_matches_all_pairs_on_rays_and_two_ray_arcs():
    x_axis = line_through(0j, 1 + 0j)
    diagonal = line_through(0j, 1 + 1j)
    far = line_through(100 + 100j, 101 + 100j)
    arcs = [
        Arc(x_axis, -1 + 0j, 1 + 0j, INF),  # the x-axis outside [-1, 1]
        Arc(diagonal, 2 + 2j, INF, 3 + 3j),  # a ray away from the origin
        Arc(far, 100 + 100j, INF, 90 + 100j),  # a ray far from everything else
        arc_through(5 - 1j, 5 + 1j, 6 + 0j),  # a small arc crossing the x-axis at 6
        arc_through(-0.5 + 0.5j, 0.5 + 0.5j, 0.5j + 0.1),  # a segment missing every ray
        arc_through(3 + 2.5j, 3 + 3.5j, 3 + 3j),  # a segment crossing the diagonal ray
    ]
    crossings = assert_agrees(from_arcs(arcs))
    assert (0, 3) in crossings and (1, 5) in crossings


_NUDGES = (0.0, 1e-10, -1e-10, 3e-9, -3e-9, 1e-7)
_KINDS = ["arc"] * 6 + ["fan"] * 3 + ["ray", "two-ray", "near-end", "loose", "loose-circle"]


@st.composite
def _arc_sets(draw):
    # one drawn seed per example: drawing every coordinate through
    # hypothesis cost more than the sweep and the oracle together
    rng = random.Random(draw(st.integers(0, 2**64 - 1)))

    def point():
        return complex(*(rng.randint(-4, 4) / 2 + rng.choice(_NUDGES) for _ in range(2)))

    def step():  # short steps keep most arcs apart, so the sweep has pairs to prune
        return complex(rng.randint(-2, 2), rng.randint(-2, 2)) / 4

    scale = rng.choice([1, 1e4, 1e9])
    shift = rng.choice([0, 1e3, 1e6 * (1 + 1j)])
    arcs = []
    for _ in range(rng.randint(2, 12)):
        base = point()
        far = point() if rng.randint(0, 2) == 0 else base + step()
        p, q, w = (scale * z + shift for z in (base, far, base + step()))
        kind = rng.choice(_KINDS)
        try:
            if kind == "arc":
                arcs.append(arc_through(p, q, w))
            elif kind == "fan":  # the same shape moved to an end of an earlier arc, sharing it
                hub = rng.choice([z for a in arcs for z in (a.p, a.q) if not is_inf(z)] or [p])
                arcs.append(arc_through(hub, hub + (q - p), hub + (w - p)))
            elif kind == "loose":  # a segment whose support misses its ends
                line = line_through(p, q)
                arcs.append(Arc(Line(line.normal, line.offset + scale / 8), p, q, (p + q) / 2))
            elif kind == "loose-circle":  # a circle arc whose ends are off its circle
                c = arc_through(p, q, w).support
                if isinstance(c, Circle):
                    f = rng.choice([0.5, 2.0])
                    arcs.append(Arc(c, c.center + f * (p - c.center), c.center + f * (q - c.center), w))
            elif kind == "near-end":  # a segment or two-ray arc whose witness is just inside or outside an end
                f = rng.choice([1, -1]) * 10.0 ** rng.uniform(-12, -2)
                arcs.append(Arc(line_through(p, q), p, q, q + f * (q - p)))
            elif kind == "ray":
                arcs.append(Arc(line_through(p, w), p, INF, w))
            else:
                arcs.append(Arc(line_through(p, q), p, q, INF))
        except ValueError:
            continue  # coincident points, or two rounded together far from the origin
    extra = [scale * point() + shift for _ in range(rng.randint(0, 4))]
    return from_arcs(arcs, extra)


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_arc_sets())
def test_sweep_matches_all_pairs_on_random_arc_sets(d):
    assert_agrees(d)


@settings(
    derandomize=True,
    max_examples=100,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_arc_sets())
def test_arc_intersections_excludes_before_membership_as_a_filter_after_it(d):
    # verify's gate drops the points at a shared endpoint inside
    # arc_intersections; that must equal filtering its full result.  Few
    # random arcs share an endpoint, so every end of the two is tried too
    vals = list(d.positions.values())
    scale = max(abs(z - vals[0]) for z in vals) if vals else 1.0
    tol_pt = 1e-9 * scale
    match_tol = max(1e-6 * scale, 10 * tol_pt)
    tags = list(d.arcs)
    for i, t1 in enumerate(tags):
        for t2 in tags[i + 1 :]:
            a1, a2 = d.arcs[t1], d.arcs[t2]
            if same_support(a1.support, a2.support):
                continue
            shared = [d.positions[v] for v in set(d.edges[t1]) & set(d.edges[t2])]
            ends = [z for a in (a1, a2) for z in (a.p, a.q) if not is_inf(z)]
            full = arc_intersections(a1, a2, tol_pt)
            for away in (shared, ends):
                for by in (0.0, 1e-9, max(match_tol, _support_noise(a1, a2))):
                    kept = [x for x in full if is_inf(x) or all(abs(x - z) > by for z in away)]
                    assert arc_intersections(a1, a2, tol_pt, away, by) == kept


def _pre_gate(monkeypatch, text: str) -> LombardiDrawing:
    """The drawing that ``draw_subcubic`` hands its gate for ``text``,
    whether or not it passes."""
    seen = []
    check = drawing._check
    monkeypatch.setattr(drawing, "_check", lambda d, g, tol: seen.append(d) or check(d, g, tol))
    try:
        draw_subcubic(parse(text))
    except DrawingError:
        pass
    monkeypatch.undo()
    (d,) = seen
    return d


def test_sweep_matches_all_pairs_on_drawings_that_cross(monkeypatch):
    # drawings the gate refuses for crossings, most of them pairs of arcs
    # that share an endpoint and meet once more
    texts = {"nested-12": nested_gadgets(12)}
    for name, copies in (("k4", 5), ("k4", 6), ("cube", 5)):
        rot = family.necklace(family.rotation_of(load_graph(name)), copies)
        texts[f"{name}_x{copies}"] = family.to_text(rot)
        texts[f"{name}_x{copies}-seed1"] = family.to_text(family.relabel(rot, 1))
    for label, text in texts.items():
        assert assert_agrees(_pre_gate(monkeypatch, text)), label


def _mirror_kept(a1: Arc, a2: Arc, z: complex, tol: float, by: float):
    """What (c) of ``verify`` keeps of a pair of circle arcs through ``z``
    by the closed form, before the boxes: None when it does not apply."""
    s1, s2 = a1.support, a2.support
    x = _mirror_meeting(s1.center, s1.radius, s2.center, s2.radius, z, tol)
    if x is None:
        return None
    return [x] if abs(x - z) > by and a1.contains(x, tol) and a2.contains(x, tol) else []


@st.composite
def _arc_pairs_through_a_point(draw):
    """(a1, a2, z, tol, by): two circle arcs with an end at z, at a point
    tolerance and shared-endpoint radius as ``verify`` sets them for
    drawings ``scale`` across."""
    rng = random.Random(draw(st.integers(0, 2**64 - 1)))
    scale = rng.choice([1.0, 1e3, 1e9])
    shift = rng.choice([0, 1e6 * scale])

    def point():
        return scale * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) + shift

    z = point()
    arcs = []
    for _ in range(2):
        kind = rng.choice(["through", "through", "tangent", "reaches", "flat"])
        if kind == "flat":  # a circle far larger than the drawing
            o = z + scale * 10.0 ** rng.randint(2, 9) * cmath.exp(1j * rng.uniform(-3, 3))
            c = Circle(o, abs(z - o))
            ends = [z, c.point_at(c.angle_of(z) + rng.choice([1, -1]) * scale / c.radius)]
            arcs.append(Arc(c, *ends[:: rng.choice([1, -1])], c.point_at(c.angle_of(z) + rng.uniform(-3, 3))))
            continue
        if kind == "tangent" and arcs:  # a circle nearly tangent to the first at z, or nearly equal
            o1 = arcs[0].support.center
            turn = cmath.exp(1j * rng.choice([1e-12, 1e-9, 1e-6, 1e-3]))
            o2 = z + (o1 - z) * rng.choice([-2.0, 0.5, 1.0, 3.0]) * turn
            c = Circle(o2, abs(z - o2))
            ends = [z, c.point_at(c.angle_of(z) + rng.uniform(0.1, 3))]
            arcs.append(Arc(c, *ends[:: rng.choice([1, -1])], c.point_at(c.angle_of(z) + 0.05)))
            continue
        if kind == "reaches" and arcs:  # ends where the first arc's circle meets it again
            c = arcs[0].support
            far = c.point_at(c.angle_of(z) + rng.uniform(-3, 3))
            ends = [z, far]
            w = point()
        else:
            ends, w = [z, point()], point()
        try:
            a = arc_through(*ends[:: rng.choice([1, -1])], w)
        except ValueError:
            continue
        if isinstance(a.support, Circle):
            arcs.append(a)
    if len(arcs) < 2:
        arcs = [arc_through(z, z + scale, z + scale * (0.5 + 0.5j)), arc_through(z, z + scale * 1j, z - 0.3 * scale)]
    tol = rng.choice([1e-12, 1e-9, 1e-7]) * scale
    by = max(1e-6 * scale, 10 * tol, *(a.support.radius * 1e-14 for a in arcs[:2]))
    return arcs[0], arcs[1], z, tol, by


@settings(
    derandomize=True,
    max_examples=400,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_arc_pairs_through_a_point())
def test_mirror_meeting_keeps_what_arc_intersections_keeps(pair):
    a1, a2, z, tol, by = pair
    kept = _mirror_kept(a1, a2, z, tol, by)
    if kept is None:
        return
    general = arc_intersections(a1, a2, tol, [z], by)
    assert len(general) == len(kept)
    size = max(a1.support.radius, a2.support.radius)
    assert all(abs(x - y) <= 1e-6 * size for x, y in zip(kept, general))


def test_mirror_meeting_and_the_general_solve_both_find_a_crossing_at_wide_slack():
    # a drawing 1e9 across has a point tolerance of 1, an absolute
    # distance for support_intersections as for the closed form: both
    # keep the meeting points 0 and 1500 of these circles apart, and the
    # one at 1500 lies beyond the shared-endpoint radius 1000 of 0
    c1, c2 = Circle(750 + 5000j, abs(750 + 5000j)), Circle(750 - 3000j, abs(750 - 3000j))
    arcs = [Arc(c, 0j, c.point_at(c.angle_of(1500) + s * 0.2), 1500 + 0j) for c, s in ((c1, 1), (c2, -1))]
    assert abs(_mirror_meeting(c1.center, c1.radius, c2.center, c2.radius, 0j, 1.0) - 1500) <= 1e-9
    d = from_arcs(arcs, [1e9 + 0j])
    assert verify(d).crossings == [(0, 1)] == assert_agrees(d)


def test_mirror_meeting_leaves_separated_circles_to_the_general_solve():
    # two half-unit circles 1.2e-9 apart, both within the point tolerance
    # 1e-9 of a vertex z = 1.8e-5j: the general solve finds no meeting
    # point, while z's mirror image -z lies on both arcs within that
    # tolerance and 3.6e-5 from z, farther than the shared-endpoint radius
    eps, z = 0.6e-9, 1.8e-5j
    c1, c2 = Circle(complex(-0.5 - eps, 0), 0.5), Circle(complex(0.5 + eps, 0), 0.5)
    arcs = [Arc(c1, z, c1.point_at(-0.5), c1.point_at(-0.1)), Arc(c2, z, c2.point_at(3.6), c2.point_at(3.2))]
    assert _mirror_meeting(c1.center, c1.radius, c2.center, c2.radius, z, 1e-9) is None
    assert verify(from_arcs(arcs)).crossings == [] == assert_agrees(from_arcs(arcs))
