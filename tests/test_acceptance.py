"""Acceptance suite: one criterion per test, one pass/fail line each.

Tolerances are pinned here and must not be loosened.  Criteria:
 1. closed-form interior radius of the K4 dual packing (1e-8, < 1 s)
 2. perfect 2*pi/3 angular resolution on the six cubic fixtures (1e-6,
    60-vertex fixture in < 10 s)
 3. zero arc crossings on every drawn fixture
 4. the series-glued two-block fixture draws and its SPQR decomposition
    satisfies the structural assertions (each virtual edge joins one
    cycle node to one bond or rigid node, even alternating cycles,
    3-bonds, simple 3-connected cubic rigid skeletons)
 5. fixtures with degree-1 and degree-2 vertices draw, with 180-degree
    smooth continuations at degree-2 vertices (1e-6)
 6. medial drawings: cube -> cuboctahedron (12 vertices at 90 degrees,
    1e-6), K4 -> octahedron, zero crossings
 7. a direct 4-regular input is rejected with exit status 2
 8. Moebius invariance: isodynamic unordered-pair equivariance under
    100 random maps (1e-7) and pipeline naturality on K4 (1e-6)
 9. the min-radius optimizer (a convex program solved by Newton) reaches
    the same objective from 5 random starts, within 1e-8, on every cubic
    3-connected fixture
"""

import cmath
import math
import random
import time

import pytest

from conftest import FIXTURES, drawn, load_graph, spqr_problems, transform
from lombardi.drawing import (
    draw_medial,
    drawing_from_packing,
    verify,
)
from lombardi.geometry import Mobius, is_inf, isodynamic_points
from lombardi.graph import parse, spqr
from lombardi.mobius_opt import NormalizedPacking, normalize_outer, optimize_min_radius
from lombardi.packing import pack_and_layout

CUBIC_FIXTURES = ["k4", "cube", "dodecahedron", "frucht", "tutte", "truncated_icosahedron"]
OTHER_FIXTURES = ["two_k4e", "double_claw", "two_blocks_bridge", "irregular69"]


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} [{name}]: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def dual_packing(name: str):
    g = load_graph(name)
    dualg, _ = g.dual()
    return g, dualg, pack_and_layout(dualg)


_norm_cache: dict = {}


def normalized(name: str) -> NormalizedPacking:
    if name not in _norm_cache:
        g, dualg, p = dual_packing(name)
        _norm_cache[name], _ = normalize_outer(p, "f0")
    return _norm_cache[name]


def test_criterion_1_packing_closed_form():
    t0 = time.perf_counter()
    g, dualg, p = dual_packing("k4")
    elapsed = time.perf_counter() - t0
    inner = [c.radius for c in p.circles.values() if c.radius < 0.5]
    want = 1.0 / (3.0 + 2.0 * math.sqrt(3.0))
    err = abs(inner[0] - want) if len(inner) == 1 else math.inf
    report(
        1,
        "packing closed form",
        len(inner) == 1 and err < 1e-8 and elapsed < 1.0,
        f"radius error {err:.2e}, {elapsed:.3f}s",
    )


def test_criterion_2_perfect_angular_resolution():
    worst = 0.0
    t60 = None
    for name in CUBIC_FIXTURES:
        g, d, secs = drawn(name)
        rep = verify(d, g)
        assert rep.passed, f"{name}: {rep.summary()}"
        worst = max(worst, rep.max_angle_residual)
        if name == "truncated_icosahedron":
            t60 = secs
    ok = worst < 1e-6 and t60 is not None and t60 < 10.0
    report(
        2,
        "2pi/3 angular resolution",
        ok,
        f"worst residual {worst:.2e}, 60-vertex fixture {t60:.2f}s",
    )


def test_criterion_3_zero_crossings():
    total = 0
    for name in CUBIC_FIXTURES + OTHER_FIXTURES:
        g, d, _ = drawn(name)
        rep = verify(d, g)
        total += len(rep.crossings)
        assert not rep.crossings, f"{name}: {rep.crossings[:3]}"
    report(3, "planarity", total == 0, f"{total} crossings over 10 fixtures")


def test_criterion_4_series_glued_blocks_and_tree_structure():
    g, d, _ = drawn("two_k4e")
    rep = verify(d, g)
    h, _ = g.suppress_degree_two()
    ok = rep.passed and not spqr_problems(h, spqr(h))
    report(4, "series-glued blocks + tree structure", ok, rep.summary())


def test_criterion_5_low_degree_vertices():
    ok = True
    details = []
    for name in ["double_claw", "two_blocks_bridge", "irregular69"]:
        g, d, _ = drawn(name)
        rep = verify(d, g)
        ok = ok and rep.passed
        degs = {g.degree(v) for v in g.vertices}
        if name == "irregular69":
            ok = ok and {1, 2} <= degs
        # at each degree-2 vertex the two tangents are 180 degrees apart
        worst2 = 0.0
        for v in g.vertices:
            if g.degree(v) != 2:
                continue
            tags = [t for t, ends in d.edges.items() if v in ends]
            dirs = [d.arcs[t].tangent_direction(d.positions[v], tol=1e-6) for t in tags]
            gap = abs(cmath.phase(dirs[1] / dirs[0]))
            worst2 = max(worst2, abs(gap - math.pi))
        ok = ok and worst2 < 1e-6
        details.append(f"{name} deg2 residual {worst2:.1e}")
    report(5, "degree-1/degree-2 handling", ok, "; ".join(details))


def test_criterion_6_medial_drawings():
    details = []
    ok = True
    for src, nv, want_name in (("cube", 12, "cuboctahedron"), ("k4", 6, "octahedron")):
        g = load_graph(src)
        d = draw_medial(g)
        mg, _ = g.medial()
        rep = verify(d, mg)
        ok = ok and rep.passed and len(d.positions) == nv
        # 90-degree spacing at every degree-4 vertex is covered by the
        # verifier's angle criterion; record its residual explicitly
        ok = ok and rep.max_angle_residual < 1e-6 and not rep.crossings
        details.append(f"{src}->{want_name} residual {rep.max_angle_residual:.1e}")
    report(6, "medial drawings", ok, "; ".join(details))


def test_criterion_7_four_regular_rejected():
    from lombardi.cli import main

    rc_subcubic = main([str(FIXTURES / "g18.txt"), "--output", "/tmp/g18_try.svg"])
    rc_medial = main(
        [str(FIXTURES / "g18.txt"), "--mode", "medial", "--output", "/tmp/g18_try.svg"]
    )
    ok = rc_subcubic == 2 and rc_medial == 2
    report(7, "4-regular input rejected", ok, f"exit codes {rc_subcubic}, {rc_medial}")


def rand_mobius(rng: random.Random) -> Mobius:
    while True:
        a, b, c, d = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4))
        if abs(a * d - b * c) > 0.2:
            return Mobius(a, b, c, d)


def signed_area(a: complex, b: complex, c: complex) -> float:
    return ((b - a).conjugate() * (c - a)).imag / 2


def test_criterion_8_mobius_invariance():
    rng = random.Random(2026)
    worst = 0.0
    trials = 0
    while trials < 100:
        pts = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
        if abs(signed_area(*pts)) < 0.05:
            continue
        m = rand_mobius(rng)
        imgs = [m.apply(z) for z in pts]
        if any(is_inf(z) or abs(z) > 50 for z in imgs):
            continue
        if abs(signed_area(*imgs)) < 1e-3:
            continue
        p1 = isodynamic_points(*pts)
        p2 = isodynamic_points(*imgs)
        mapped = [m.apply(z) for z in p1]
        if any(is_inf(z) or abs(z) > 50 for z in list(mapped) + list(p2)):
            continue
        # unordered-pair comparison
        d_same = max(abs(mapped[0] - p2[0]), abs(mapped[1] - p2[1]))
        d_swap = max(abs(mapped[0] - p2[1]), abs(mapped[1] - p2[0]))
        worst = max(worst, min(d_same, d_swap))
        trials += 1
    equivariance_ok = worst < 1e-7

    # pipeline naturality on K4: drawing the transformed packing equals
    # transforming the drawing
    g = load_graph("k4")
    norm, _ = normalize_outer(pack_and_layout(g.dual()[0]), "f0")
    d_base = drawing_from_packing(g, norm, 0)
    m = Mobius(1.0, 0.15 + 0.1j, -0.08 + 0.05j, 1.1)  # keeps everything finite
    circles = {v: m.apply_circle(c) for v, c in norm.circles.items()}
    tangency = {t: m.apply(z) for t, z in norm.tangency.items()}
    moved = NormalizedPacking(circles=circles, tangency=tangency, outer=norm.outer)
    d_moved = drawing_from_packing(g, moved, 0)
    d_mapped = transform(d_base, m)
    nat = 0.0
    for v in d_base.positions:
        nat = max(nat, abs(d_moved.positions[v] - d_mapped.positions[v]))
    for t in d_base.arcs:
        for attr in ("p", "q"):
            nat = max(nat, abs(getattr(d_moved.arcs[t], attr) - getattr(d_mapped.arcs[t], attr)))
        # same support: the witness may differ along the arc
        assert d_moved.arcs[t].contains(d_mapped.arcs[t].witness, 1e-6)
    naturality_ok = nat < 1e-6
    report(
        8,
        "Moebius invariance",
        equivariance_ok and naturality_ok,
        f"equivariance worst {worst:.1e} over 100 maps, naturality {nat:.1e}",
    )


def test_criterion_9_optimizer_start_invariance():
    bound = 1e-8
    rng = random.Random(99)
    worst = 0.0
    for name in CUBIC_FIXTURES:
        norm = normalized(name)
        objs = []
        for _ in range(5):
            w0 = 0.8 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            while abs(w0) >= 0.9:
                w0 = 0.8 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            _, obj = optimize_min_radius(norm, start=w0)
            objs.append(obj)
        spread = max(objs) - min(objs)
        worst = max(worst, spread)
        assert spread <= bound, f"{name}: spread {spread:.2e}"
    report(9, "optimizer start invariance", worst <= bound, f"worst spread {worst:.1e}")
