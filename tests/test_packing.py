"""Circle packing: closed-form oracles, tangency and orthogonality checks."""

import functools
import math
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_packing
from conftest import FIXTURES, goldberg, load_graph
from lombardi import packing
from lombardi.graph import GraphError, PlanarGraph, parse
from lombardi.packing import (
    PackingError,
    corner_angle,
    edge_length,
    kite_triangulation,
    pack_and_layout,
    primal_dual_pack,
)

sys.path.insert(0, str(FIXTURES.parent / "perfbench"))
import family  # noqa: E402

K4_TEXT = "a b c d\nb c a d\nc a b d\nd a c b\n"


def test_edge_length_tangent_and_orthogonal():
    assert abs(edge_length(2.0, 3.0, 1.0) - 5.0) < 1e-12  # tangent: r1 + r2
    assert abs(edge_length(3.0, 4.0, 0.0) - 5.0) < 1e-12  # orthogonal: hypotenuse


def descartes_inner_radius(k1: float, k2: float, k3: float) -> float:
    """Curvature of the circle tangent to three mutually tangent circles."""
    k4 = k1 + k2 + k3 + 2 * math.sqrt(k1 * k2 + k2 * k3 + k3 * k1)
    return 1.0 / k4


def packing_defects(g: PlanarGraph, p: packing.CirclePacking) -> dict:
    """Largest residuals of a laid-out tangent packing: each edge's center
    distance against r + s, and each tangency point's distance from its
    two circles against their radii."""
    worst_len = 0.0
    for t in g.edges:
        cx, cy = (p.circles[v] for v in g.endpoints(t))
        worst_len = max(worst_len, abs(abs(cx.center - cy.center) - edge_length(cx.radius, cy.radius, 1.0)))
    worst_contact = 0.0
    for t, z in p.tangency.items():
        for v in g.endpoints(t):
            c = p.circles[v]
            worst_contact = max(worst_contact, abs(abs(z - c.center) - c.radius))
    return {"edge_length": worst_len, "tangency": worst_contact}


def k4_dual_packing():
    g = parse(K4_TEXT)
    dualg = g.dual()
    return dualg, pack_and_layout(dualg)


def test_k4_dual_interior_radius_descartes():
    dualg, p = k4_dual_packing()
    boundary_names = {v for v, c in p.circles.items() if abs(c.radius - 1.0) < 1e-6}
    inner = [v for v in p.circles if v not in boundary_names]
    assert len(inner) == 1
    want = descartes_inner_radius(1.0, 1.0, 1.0)  # = 1 / (3 + 2 sqrt(3))
    assert abs(p.circles[inner[0]].radius - want) < 1e-8


def test_k4_packing_tangencies_and_defects():
    dualg, p = k4_dual_packing()
    for t in dualg.edges:
        u, w = dualg.endpoints(t)
        cu, cw = p.circles[u], p.circles[w]
        gap = abs(cu.center - cw.center) - (cu.radius + cw.radius)
        assert abs(gap) < 1e-8
        # the recorded tangency point lies on both circles
        z = p.tangency[t]
        assert cu.contains(z, 1e-8) and cw.contains(z, 1e-8)
    d = packing_defects(dualg, p)
    assert max(abs(x) for x in d.values()) < 1e-8


CUBIC_3CONNECTED = ["k4", "cube", "dodecahedron", "frucht", "tutte", "truncated_icosahedron"]


@pytest.fixture
def newton_steps(monkeypatch):
    """Records one entry per Newton step (each step makes one linear solve)."""
    steps = []
    solve = packing._solve_laplacian

    def counted(*args, **kw):
        steps.append(1)
        return solve(*args, **kw)

    monkeypatch.setattr(packing, "_solve_laplacian", counted)
    return steps


def law_of_cosines(lv_u: float, lv_w: float, l_uw: float) -> float:
    """Triangle angle at the vertex whose adjacent sides are lv_u, lv_w.

    An oracle independent of the packing's closed forms.
    """
    c = (lv_u * lv_u + lv_w * lv_w - l_uw * l_uw) / (2 * lv_u * lv_w)
    return math.acos(min(1.0, max(-1.0, c)))


@pytest.fixture
def placements(monkeypatch):
    """Records one entry per circle the layout places: one
    ``corner_angle`` call each inside layout_centers (the hub's, which
    primal_dual_pack places after the layout, is not counted)."""
    calls, laying = [], []
    angles, layout = packing.corner_angle, packing.layout_centers

    def counted(*args):
        if laying:
            calls.append(1)
        return angles(*args)

    def counted_layout(*args, **kw):
        laying.append(1)
        try:
            return layout(*args, **kw)
        finally:
            laying.pop()

    monkeypatch.setattr(packing, "corner_angle", counted)
    monkeypatch.setattr(packing, "layout_centers", counted_layout)
    return calls


def assert_laid_lengths(g, centers, radii, overlap, name):
    """Every edge of ``g`` between laid-out centers has its packing length."""
    for t in g.edges:
        u, w = g.endpoints(t)
        if u in centers and w in centers:
            want = edge_length(radii[u], radii[w], math.cos(overlap.get(t, 0.0)))
            assert abs(abs(centers[u] - centers[w]) - want) <= 1e-8 * want, (name, t)


@pytest.mark.parametrize("name", CUBIC_3CONNECTED)
def test_dual_packing_of_cubic_fixtures(name, newton_steps, placements):
    # Newton converges quadratically: a handful of steps reach the defect bound
    g = load_graph(name)
    dualg = g.dual()
    p = pack_and_layout(dualg)
    assert 0 < len(newton_steps) <= 8, (name, len(newton_steps))
    # the seed edge's two circles go down first, every other circle once
    assert len(placements) == len(dualg.vertices) - 2, name
    assert_laid_lengths(dualg, p.centers, {v: c.radius for v, c in p.circles.items()}, {}, name)
    for t in dualg.edges:
        u, w = dualg.endpoints(t)
        cu, cw = p.circles[u], p.circles[w]
        gap = abs(cu.center - cw.center) - (cu.radius + cw.radius)
        assert abs(gap) < 1e-7 * max(1.0, cu.radius + cw.radius), (name, t)
    assert max(packing_defects(dualg, p).values()) < 1e-9, name


class _Captured(Exception):
    """Stops a packing at its first Newton step's linear solve."""


def newton_system(monkeypatch, pack, g):
    """(pairs, order, weight, b) of the first Newton step of ``pack(g)``."""
    got = []

    def capture(*args, **kw):
        got.append(args)
        raise _Captured

    with monkeypatch.context() as m:
        m.setattr(packing, "_solve_laplacian", capture)
        with pytest.raises(_Captured):
            pack(g)
    return got[0]


def laplacian_times(pairs, weight, x):
    """L x for the Laplacian with ``weight[k]`` on side ``pairs[k]``; the
    index len(x) is the pinned vertex, held at 0."""
    x = list(x) + [0.0]
    out = [0.0] * len(x)
    for (i, j), w in zip(pairs, weight):
        out[i] += w * (x[i] - x[j])
        out[j] += w * (x[j] - x[i])
    return out[:-1]


def dense_solve(pairs, weight, b):
    """x with L x = b, by Gaussian elimination on L stored as a dense matrix.

    Pivots go in order of ascending degree, and each update runs over
    the pivot row's nonzero columns only.
    """
    n = len(b)
    a = [[0.0] * n for _ in range(n)]
    for (i, j), w in zip(pairs, weight):
        for u, v in ((i, j), (j, i)):
            if u < n:
                a[u][u] += w
                if v < n:
                    a[u][v] -= w
    y, live, later = list(b), [True] * n, {}
    for k in sorted(range(n), key=lambda v: n - a[v].count(0.0)):
        live[k] = False
        row = a[k]
        later[k] = cols = [j for j in range(n) if live[j] and row[j]]
        for i in cols:
            f = a[i][k] / row[k]
            for j in cols:
                a[i][j] -= f * row[j]
            y[i] -= f * y[k]
    x = [0.0] * n
    for k in reversed(later):
        x[k] = (y[k] - sum(a[k][j] * x[j] for j in later[k])) / a[k][k]
    return x


def star_mesh_solve(order, weight, b):
    """_solve_laplacian's exact solve written plainly, kept as the oracle of
    its float operations: each step v of ``order`` adds w_va w_vb / W_v to
    side ab and w_va / W_v * b_v to b_a; then, in reverse order, x_v is
    (b_v + the sum of w_va x_a) / W_v."""
    slot, n_sides, steps = order
    w = [0.0] * n_sides
    for s, ws in zip(slot, weight):
        w[s] += ws
    y, kept = list(b) + [0.0], []
    for v, live, star, mesh in steps:
        ws = [w[s] for s in star]
        total = sum(ws)
        for a, wa in zip(live, ws):
            y[a] += wa / total * y[v]
        for k in range(0, len(mesh), 3):
            s, i, j = mesh[k:k + 3]
            w[s] += ws[i] * ws[j] / total
        kept.append((v, live, ws, total))
    y[len(b)] = 0.0
    for v, live, ws, total in reversed(kept):
        y[v] = (y[v] + sum([wa * y[a] for a, wa in zip(live, ws)])) / total
    return y[:len(b)]


def assert_solves(pairs, order, weight, b, rtol):
    """_solve_laplacian meets rtol and agrees with Gaussian elimination."""
    x = packing._solve_laplacian(pairs, order, weight, b, rtol=rtol)
    r = [bi - li for bi, li in zip(b, laplacian_times(pairs, weight, x))]
    assert math.hypot(*r) <= rtol * math.hypot(*b)
    want = dense_solve(pairs, weight, b)
    assert max(abs(xi - wi) for xi, wi in zip(x, want)) <= 1e-8 * max(map(abs, want))


@functools.cache
def trunc(times: int) -> PlanarGraph:
    """The truncated icosahedron truncated ``times`` more times."""
    rot = family.rotation_of(load_graph("truncated_icosahedron"))
    for _ in range(times):
        rot = family.truncate(rot)
    return parse(family.to_text(rot))


@pytest.mark.parametrize(
    "pack, g, exact",
    [
        (pack_and_layout, lambda: load_graph("tutte").dual(), True),  # all 22 unknowns eliminated
        (primal_dual_pack, lambda: load_graph("tutte"), True),  # all 68, adding mesh sides
        (pack_and_layout, lambda: trunc(2).dual(), True),  # all 269
        (pack_and_layout, lambda: parse(goldberg(1)).dual(), False),  # over the fill budget: CG
        (pack_and_layout, lambda: parse(goldberg(2)).dual(), False),  # far over it: CG
    ],
    ids=["tutte-dual", "tutte-kite", "trunc540-dual", "goldberg80-dual", "goldberg320-dual"],
)
def test_solve_laplacian_matches_gaussian_elimination(monkeypatch, pack, g, exact):
    pairs, order, weight, b = newton_system(monkeypatch, pack, g())
    assert (order is not None) == exact
    assert_solves(pairs, order, weight, b, rtol=1e-10)
    if exact:  # no CG: exact whatever rtol allows
        x = packing._solve_laplacian(pairs, order, weight, b, rtol=0.5)
        r = [bi - li for bi, li in zip(b, laplacian_times(pairs, weight, x))]
        assert math.hypot(*r) <= 1e-12 * math.hypot(*b)
        assert repr(x) == repr(star_mesh_solve(order, weight, b))  # bit for bit


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(st.integers(1, 24), st.integers(0, 2**32 - 1))
def test_stacked_triangulations_reduce_fully(n, seed):
    # a vertex stacked into a triangle has three neighbours, so star-mesh
    # elimination takes every unknown and leaves CG nothing; the outer
    # triangle is pinned, its sides joining the pinned index to itself
    rng = random.Random(seed)
    faces, pairs = [(n, n, n)], [(n, n)] * 3
    for v in range(n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        faces += [(a, b, v), (b, c, v), (c, a, v)]
        pairs += [(v, a), (v, b), (v, c)]
    weight = [10 ** rng.uniform(-3, 3) for _ in pairs]
    b = [rng.uniform(-1, 1) for _ in range(n)]
    order = packing._elimination(pairs, n)
    assert order is not None  # no CG
    assert_solves(pairs, order, weight, b, rtol=1e-12)


def test_star_mesh_remainder_is_flat_in_n(monkeypatch):
    # minimum degree eliminates every unknown of the duals of the
    # truncations at 180, 540 and 1,620 vertices, of the dodecahedron and
    # of the truncated icosahedron, so CG has nothing left at any n;
    # goldberg(2)'s dual runs over the fill budget and CG solves it whole
    exact = []
    elimination = packing._elimination

    def record(pairs, n):
        order = elimination(pairs, n)
        exact.append(order is not None)
        return order

    monkeypatch.setattr(packing, "_elimination", record)
    monkeypatch.setattr(packing, "_MAX_NEWTON_STEPS", 0)
    graphs = [trunc(1), trunc(2), trunc(3), load_graph("dodecahedron"), trunc(0), parse(goldberg(2))]
    for g in graphs:
        with pytest.raises(PackingError, match="within 0 Newton steps"):
            pack_and_layout(g.dual())
    assert exact == [True, True, True, True, True, False]


def test_pack_nonconvergence_raises(monkeypatch):
    monkeypatch.setattr(packing, "_MAX_NEWTON_STEPS", 1)
    dualg = load_graph("dodecahedron").dual()
    with pytest.raises(PackingError, match="did not converge within 1 Newton steps"):
        pack_and_layout(dualg)


def test_pack_stall_raises(monkeypatch):
    # with no defect small enough, Newton runs until rounding stops the
    # residual from falling, long before the step cap
    monkeypatch.setattr(packing, "_DEFECT_TOL", 0.0)
    dualg = load_graph("k4").dual()
    with pytest.raises(PackingError, match="packing stalled after 5 Newton steps"):
        pack_and_layout(dualg)


def test_primal_dual_pack_without_solution_raises():
    # g18 is not 3-connected, so it has no primal-dual packing: the angle
    # sums close only as some circles shrink towards radius 0, too small
    # to lay out beside the others
    with pytest.raises(PackingError, match="layout failed"):
        primal_dual_pack(load_graph("g18"))


@pytest.mark.parametrize("ratio", [1e-6, 1e-3, 0.1, 1.0, 7.0, 1e3, 1e6])
def test_right_kite_matches_law_of_cosines(ratio):
    # the right kite (v, x, f), x a point circle: the layout's angles,
    # and Newton's angle sums and weight on side vf, which must be the
    # same angles
    r_v = 0.3
    r_f = ratio * r_v

    def angles(r_v, r_f):  # at v and at f
        return corner_angle(r_v, 0.0, r_f), corner_angle(r_f, r_v, 0.0)

    angle_v, angle_f = angles(r_v, r_f)
    hyp = math.hypot(r_v, r_f)
    assert abs(angle_v - law_of_cosines(r_v, hyp, r_f)) < 1e-9
    assert abs(angle_f - law_of_cosines(r_f, hyp, r_v)) < 1e-9
    assert corner_angle(0.0, r_f, r_v) == corner_angle(0.0, r_v, r_f) == math.pi / 2
    theta, (w,) = packing._angle_system([r_v, r_f], [], [(0, 1, 1, 0)], 2, 1)
    assert theta == [-2 * math.pi + angle_v, -2 * math.pi + angle_f]
    # w = d(angle at v)/d(log r_f) = -d(angle at f)/d(log r_f); difference
    # the smaller angle, whose rounding error is smallest
    k, sign = (0, 1) if angle_v <= angle_f else (1, -1)
    h = 1e-5
    fd = (angles(r_v, r_f * math.exp(h))[k] - angles(r_v, r_f * math.exp(-h))[k]) / (2 * h)
    assert abs(sign * fd - w) <= 1e-6 * w


@pytest.mark.parametrize("ratio", [1e-6, 1e-3, 0.1, 1.0, 7.0, 1e3, 1e6])
def test_tangent_triangle_matches_law_of_cosines(ratio):
    # one triangle of tangent circles with radii r, ratio*r, sqrt(ratio)*r
    radii = [0.3, 0.3 * ratio, 0.3 * math.sqrt(ratio)]
    tri = (0, 1, 2, 0, 1, 2)  # vertices a, b, c; slots of sides ab, bc, ca

    def angles(rs):
        theta, weight = packing._angle_system(rs, tri, [], 3, 3)
        return [x + 2 * math.pi for x in theta], weight

    got, weight = angles(radii)
    for k in range(3):
        r, s, t = radii[k], radii[(k + 1) % 3], radii[(k + 2) % 3]
        assert abs(got[k] - law_of_cosines(r + s, r + t, s + t)) < 1e-9
    # w_ab = d(angle at a)/d(log r_b) = d(angle at b)/d(log r_a)
    h = 1e-4
    for side, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
        for at, by in ((i, j), (j, i)):
            up, down = list(radii), list(radii)
            up[by] *= math.exp(h)
            down[by] *= math.exp(-h)
            fd = (angles(up)[0][at] - angles(down)[0][at]) / (2 * h)
            assert abs(fd - weight[side]) <= 1e-6 * weight[side], (side, at)


def assert_sides_keep_lengths(g, radii, overlap):
    """layout_centers lays every side of ``g`` at its prescribed length,
    to 1e-12 of the side's smaller circle above the rounding of the
    centers' coordinates (a few units in the last place of the largest)."""
    centers = packing.layout_centers(g, radii, {0}, overlap=overlap).centers
    rounding = 4 * math.ulp(max(map(abs, centers.values())))
    for t in g.edges:
        x, y = g.endpoints(t)
        want = edge_length(radii[x], radii[y], math.cos(overlap.get(t, 0.0)))
        small = min(r for r in (radii[x], radii[y]) if r > 0)
        err = abs(abs(centers[x] - centers[y]) - want)
        assert err <= 1e-12 * small + rounding, (radii, t, err / small)


@pytest.mark.parametrize("ratio", [1e-6, 1e-5, 1e-4, 1e-3, 0.1])
def test_layout_keeps_side_lengths_beside_a_large_circle(ratio):
    # one face laid from a seed side in the other: the large circle's
    # angle is small, and an angle taken from the three side lengths
    # (law of cosines) loses the small circles' digits
    g = parse("a b c\nb c a\nc a b\n")
    tag = {frozenset(g.endpoints(t)): t for t in g.edges}
    for big in "abc":
        # three tangent circles, the two small ones of different sizes
        small = [v for v in "abc" if v != big]
        assert_sides_keep_lengths(g, {big: 1.0, small[0]: ratio, small[1]: 1.5 * ratio}, {})
        # a right kite: a point circle beside the large circle and a
        # small one, which cross at pi/2
        for point, other in (small, small[::-1]):
            right = {tag[frozenset((big, other))]: math.pi / 2}
            assert_sides_keep_lengths(g, {big: 1.0, point: 0.0, other: ratio}, right)


def test_dual_packing_of_trunc540_keeps_edge_lengths():
    # the truncated icosahedron truncated twice: its packing holds circles
    # far apart in size, and every edge keeps its length to 1e-10 of its
    # smaller circle
    rot = family.rotation_of(load_graph("truncated_icosahedron"))
    dualg = parse(family.to_text(family.truncate(family.truncate(rot)))).dual()
    p = pack_and_layout(dualg)
    worst = 0.0
    for t in dualg.edges:
        cx, cy = (p.circles[v] for v in dualg.endpoints(t))
        gap = abs(abs(cx.center - cy.center) - (cx.radius + cy.radius))
        worst = max(worst, gap / min(cx.radius, cy.radius))
    assert worst <= 1e-10, worst


def test_pack_rejects_triangles_without_a_closed_form():
    # an overlap angle off the right kites, or a tangent corner pinned at
    # radius 0, makes a triangle the packing has no closed form for
    g = parse(K4_TEXT)
    tag = next(t for t in g.edges if "d" in g.endpoints(t))
    with pytest.raises(PackingError, match="only tangent triangles and right kites"):
        packing.pack_triangulation(g, {"a": 1.0, "b": 1.0, "c": 1.0}, overlap={tag: 0.5})
    with pytest.raises(PackingError, match="only tangent triangles and right kites"):
        packing.pack_triangulation(g, {"a": 1.0, "b": 1.0, "c": 0.0})


def test_kite_triangulation_of_k4():
    g = parse(K4_TEXT)
    kite, overlap = kite_triangulation(g)
    # one kite vertex per primal vertex, face, and edge crossing, numbered
    # in that order: vertex j is g.vertices[j], V + i is face i, and
    # V + F + k is the point of g.edges[k], joined to its edge's two ends
    # and two faces
    nv, nf, fo = len(g.vertices), len(g.faces()), g.face_of()
    assert kite.vertices == list(range(nv + nf + len(g.edges)))
    assert [kite.degree(j) for j in range(nv)] == [2 * g.degree(v) for v in g.vertices]
    assert [kite.degree(nv + i) for i in range(nf)] == [2 * len(walk) for walk in g.faces()]
    for k, t in enumerate(g.edges):
        ends = {g.vertices.index(v) for v in g.endpoints(t)}
        assert set(kite.neighbors(nv + nf + k)) == ends | {nv + fo[d] for d in g.darts_of(t)}
    # every face of the kite graph is a triangle
    assert all(len(w) == 3 for w in kite.faces())
    # every kite edge has its overlap: the 2E vertex-face sides cross at
    # pi/2, the 4E legs to the edge points are tangent
    e = len(g.edges)
    assert set(overlap) == set(kite.edges)
    assert Counter(overlap.values()) == {math.pi / 2: 2 * e, 0.0: 4 * e}


def test_primal_dual_pack_k4_closed_form():
    g = parse(K4_TEXT)
    pdp = primal_dual_pack(g)
    # vertex circles: three symmetric outer ones plus one inner; the
    # flat layout normalizes the three boundary circles to radius 1
    radii = sorted(c.radius for c in pdp.vertex_circles.values())
    assert abs(radii[0] - descartes_inner_radius(1.0, 1.0, 1.0)) < 1e-7
    assert all(abs(r - 1.0) < 1e-7 for r in radii[1:])
    # face circles: the circle through the pairwise tangency points of
    # three unit circles has radius 1/sqrt(3) (the circumcircle of the
    # medial triangle of an equilateral triangle with side 2); each of
    # the other three faces touches two unit circles and the inner one,
    # giving radius 2 - sqrt(3)
    got = sorted(c.radius for c in pdp.face_circles)
    want = sorted([2 - math.sqrt(3)] * 3 + [1 / math.sqrt(3)])
    assert len(got) == len(want)
    for r, w in zip(got, want):
        assert abs(r - w) < 1e-6


def kite_circles(g, pdp):
    """The vertex and face circles of ``pdp`` by kite vertex number (see
    ``kite_triangulation``), and the hub's number."""
    nv = len(g.vertices)
    circles = dict(enumerate(pdp.vertex_circles[v] for v in g.vertices))
    circles.update((nv + i, c) for i, c in enumerate(pdp.face_circles))
    kind, x = pdp.hub
    return circles, nv + x if kind == "face" else g.vertices.index(x)


@pytest.mark.parametrize("name", CUBIC_3CONNECTED + ["octahedron"])
def test_primal_dual_orthogonality(name, newton_steps, placements):
    g = load_graph(name) if name != "k4" else parse(K4_TEXT)
    pdp = primal_dual_pack(g)
    assert 0 < len(newton_steps) <= 12, (name, len(newton_steps))
    kite, overlap = kite_triangulation(g)
    # the layout places every circle once but the seed edge's two and the
    # hub, which primal_dual_pack places after the layout; each flag kite
    # keeps its side lengths
    assert len(placements) == len(kite.vertices) - 3, name
    circles, hub = kite_circles(g, pdp)
    points = range(len(circles), len(kite.vertices))
    centers = {v: c.center for v, c in circles.items() if v != hub}
    centers.update(zip(points, (pdp.crossing[t] for t in g.edges)))
    radii = {v: c.radius for v, c in circles.items()} | dict.fromkeys(points, 0.0)
    assert_laid_lengths(kite, centers, radii, overlap, name)
    # oracle: law-of-cosines angle sums over the flag kites close at 2*pi
    # at every circle but the three pinned at radius 1 beside the hub
    pinned = set(kite.neighbors(hub)) - set(points)
    angle_sum = dict.fromkeys(set(circles) - pinned, 0.0)
    for walk in kite.faces():
        vs = [d[0] for d in walk]
        rs = [circles[v].radius if v in circles else 0.0 for v in vs]
        # side k joins vs[k] and vs[k + 1]
        sides = [
            edge_length(rs[k], rs[(k + 1) % 3], math.cos(overlap[kite.dart_tag(walk[k])]))
            for k in range(3)
        ]
        for k, v in enumerate(vs):
            if v in angle_sum:
                angle_sum[v] += law_of_cosines(sides[k], sides[k - 1], sides[(k + 1) % 3])
    assert len(angle_sum) == len(circles) - 3
    assert max(abs(s - 2 * math.pi) for s in angle_sum.values()) < 1e-9, name
    fo = g.face_of()
    for t in g.edges:
        u, w = g.endpoints(t)
        d1, d2 = g.darts_of(t)
        faces = {fo[d1], fo[d2]}
        z = pdp.crossing[t]
        for v in (u, w):
            cv = pdp.vertex_circles[v]
            assert cv.contains(z, 1e-7)
        for fi in faces:
            cf = pdp.face_circles[fi]
            assert cf.contains(z, 1e-7)
        # orthogonality: |cv - cf|^2 == rv^2 + rf^2 for incident pairs
        for v in (u, w):
            for fi in faces:
                cv = pdp.vertex_circles[v]
                cf = pdp.face_circles[fi]
                lhs = abs(cv.center - cf.center) ** 2
                rhs = cv.radius**2 + cf.radius**2
                assert abs(lhs - rhs) < 1e-6 * max(1.0, rhs)


def test_primal_dual_pack_lays_out_the_kite_itself(monkeypatch):
    # no punctured copy of the kite: its hub's star is skipped in place
    def refuse(self, vs):
        raise AssertionError("primal_dual_pack built a subgraph")

    monkeypatch.setattr(PlanarGraph, "subgraph", refuse)
    pdp = primal_dual_pack(load_graph("tutte"))
    assert set(pdp.crossing) == set(load_graph("tutte").edges)


def test_primal_dual_hub_is_recorded():
    # the puncture circle is the first triangular face's, else the first
    # degree-3 vertex's, named by its kind: with int vertex names, vertex 0
    # is not face 0
    for g, hub in [(parse(K4_TEXT), ("face", 0)), (load_graph("cube"), ("vertex", "c0"))]:
        pdp = primal_dual_pack(g)
        assert pdp.hub == hub
        assert len(pdp.face_circles) == len(g.faces())
        # crossing points exist for every primal edge
        assert set(pdp.crossing) == set(g.edges)
    cube = load_graph("cube")
    numbered = PlanarGraph({n: cube.rot[v] for n, v in enumerate(cube.vertices)})
    assert primal_dual_pack(numbered).hub == ("vertex", 0)


def packed(pack, g):
    """A packing's repr, which holds every radius, center, tangency and
    crossing point to the last bit, or the class of what ``pack`` raised."""
    try:
        return repr(pack(g))
    except (GraphError, PackingError) as e:
        return type(e)


@pytest.mark.parametrize(
    "name, kind",
    [(p.stem, kind) for p in sorted(FIXTURES.glob("*.txt")) for kind in ("dual", "kite")]
    + [("trunc180", "dual"), ("goldberg80", "dual")],
)
def test_packing_matches_the_reference(name, kind):
    # integer kite tags, Newton's inline angles and the layout's single
    # corner angle change no bit of a packing: the dual packings (CG
    # solves goldberg80's) and the primal-dual packings of the flag kites
    g = {"trunc180": lambda: trunc(1), "goldberg80": lambda: parse(goldberg(1))}.get(name, lambda: load_graph(name))()
    if kind == "dual":  # a bridge is a loop of the dual, which raises
        got = packed(lambda g: pack_and_layout(g.dual()), g)
        want = packed(lambda g: reference_packing.pack_and_layout(g.dual()), g)
    else:
        got, want = packed(primal_dual_pack, g), packed(reference_packing.primal_dual_pack, g)
    assert got == want
