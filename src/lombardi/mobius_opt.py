"""Moebius normalization and min-radius optimization of circle packings.

After packing, one circle is chosen to become the outer boundary: an
inversion in it turns the configuration inside out, and a scaling pins
it to the unit circle.  Among the Moebius maps that fix the unit circle,
the optimizer then maximizes the smallest interior radius, a quasiconvex
problem (Bern and Eppstein, Optimal Moebius transformations for
information visualization and meshing, WADS 2001) that is convex in
hyperboloid coordinates: with the map's parameter w = Y / (1 + S),
S = sqrt(1 + |Y|^2), circle (c, r) has reciprocal image radius
a*S - <b, Y> + gamma, where a = (1 + |c|^2 - r^2) / (2r), b = c / r and
gamma = (1 - |c|^2 + r^2) / (2r), strictly convex in Y.  So the
optimizer minimizes t subject to t >= each of these, by Newton.  Each
iterate is scored by its closed-form image radii, computed with the
arithmetic of ``Mobius.apply_circle`` but without building the image
circles; a test pins the two to agree exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import Circle, Mobius, inversion, mobius_scale_translate
from .packing import CirclePacking


@dataclass
class NormalizedPacking:
    """A packing whose designated outer circle is the unit circle."""

    circles: dict[str, Circle]
    tangency: dict
    outer: str

    def interior_names(self):
        return [v for v in self.circles if v != self.outer]


def _map_packing(p: CirclePacking | NormalizedPacking, m: Mobius) -> tuple[dict, dict]:
    circles = {}
    for v, c in p.circles.items():
        img = m.apply_circle(c)
        if not isinstance(img, Circle):
            raise ValueError(f"circle {v!r} maps to a line; map center lies on it")
        circles[v] = img
    tangency = {t: m.apply(z) for t, z in p.tangency.items()}
    return circles, tangency


_CONTAIN_TOL = 1e-6  # how far past the unit circle an interior circle may reach


def normalize_outer(p: CirclePacking, outer: str) -> tuple[NormalizedPacking, Mobius]:
    """Turn the packing inside out so circle ``outer`` becomes the unit circle.

    The map is the inversion in that circle, which fixes it, followed by
    the scaling and translation taking it to the unit circle.  All other
    circles end up strictly inside.
    """
    c0 = p.circles[outer]
    m = mobius_scale_translate(1.0 / c0.radius, -c0.center / c0.radius).compose(inversion(c0))
    circles, tangency = _map_packing(p, m)
    out = circles[outer]
    if abs(out.radius - 1.0) > 1e-9 or abs(out.center) > 1e-9:
        raise ValueError("outer normalization failed")
    for v, c in circles.items():
        if v != outer and abs(c.center) + c.radius > 1.0 + _CONTAIN_TOL:
            raise ValueError(f"circle {v!r} not contained in the outer circle after normalization")
    return NormalizedPacking(circles=circles, tangency=tangency, outer=outer), m


def disk_automorphism(w: complex) -> Mobius:
    """The Moebius map z -> (z - w) / (1 - conj(w) z), fixing the unit circle."""
    if abs(w) >= 1.0:
        raise ValueError("parameter must lie inside the unit disk")
    return Mobius(1.0, -w, -w.conjugate(), 1.0)


def _min_radius(p: NormalizedPacking, w: complex) -> float:
    """Smallest interior radius under ``disk_automorphism(w)``, -inf for a line.

    Each image radius is taken in closed form on floats, with the
    expressions of ``Mobius.apply_circle`` in the same order (pole
    p = -d/c, k = |(b*c - a*d)/c^2|, radius k * (r / ||m - p|^2 - r^2|)
    for the circle (m, r)), so the value is bit for bit what mapping
    every circle would give; the exactness test in
    ``tests/test_mobius_opt.py`` pins that.
    """
    m = disk_automorphism(w)
    circles = [p.circles[v] for v in p.interior_names()]
    if m.c == 0:
        return min((c.radius for c in circles), default=math.inf)
    pole = -m.d / m.c
    k = abs((m.b * m.c - m.a * m.d) / (m.c * m.c))
    radii = []
    for c in circles:
        if abs(abs(pole - c.center) - c.radius) <= 1e-9 * max(c.radius, 1.0):
            radii.append(-math.inf)  # the support passes through the pole: a line
            continue
        rad = k * (c.radius / abs(abs(c.center - pole) ** 2 - c.radius**2))
        if not rad > 0:
            raise ValueError(f"circle radius must be positive, got {rad}")
        radii.append(rad)
    return min(radii, default=math.inf)


_GAP_REL = 1e-13  # stop once the duality gap n/s is below _GAP_REL * t
_MU = 10.0  # barrier weight growth factor
_CENTERED = 0.25  # squared Newton decrement of a point close to the central path
# objective values this close tie, and a tie goes to the later iterate:
# at a smooth optimum _min_radius cannot tell apart iterates 1e-9 from it
_TIE_REL = 1e-14


def _hyperboloid_coefficients(c: Circle) -> tuple[float, complex, float]:
    """The (a, b, gamma) of the module docstring for circle ``c``."""
    q = abs(c.center) ** 2 - c.radius**2
    return (1 + q) / (2 * c.radius), c.center / c.radius, (1 - q) / (2 * c.radius)


def optimize_min_radius(
    p: NormalizedPacking, start: complex = 0j, history: list | None = None
) -> tuple[Mobius, float]:
    """Maximize the minimum interior radius over unit-disk automorphisms.

    Damped Newton steps from ``start`` minimize the barrier
    s*t - sum log(t - f_v(Y)) of the convex program in the module
    docstring, multiplying s by ``_MU`` whenever the iterate is near the
    central path, until the duality gap n/s is below ``_GAP_REL * t`` or
    rounding stops the barrier from decreasing or leaves the Newton system
    singular.  Returns the map and the
    objective of the best iterate by ``_min_radius``; ``history`` gets the
    objective at ``start``, then the best one so far after each step.
    """
    coef = [_hyperboloid_coefficients(p.circles[v]) for v in p.interior_names()]
    n = len(coef)
    best_w, obj = start, _min_radius(p, start)
    history = [] if history is None else history
    history.append(obj)
    y = 2 * start / (1 - abs(start) ** 2)
    sq = math.sqrt(1 + abs(y) ** 2)
    f = [a * sq - (b.conjugate() * y).real + g for a, b, g in coef]
    t = 2 * max(f)
    s = n / t
    slack = [t - fv for fv in f]
    while True:
        # gradient (less s, in t) and Hessian of the barrier; a symmetric
        # 2x2 block acts on complex z as (P*z + Q*conj(z)) / 2
        gy, gt, hyt, htt, P, Q, curv = 0j, 0.0, 0j, 0.0, 0.0, 0j, 0.0
        for (a, b, _), d in zip(coef, slack):
            u = (a * y / sq - b) / d  # gradient of f_v over its slack
            gy += u
            gt -= 1 / d
            hyt -= u / d
            htt += 1 / d**2
            P += abs(u) ** 2
            Q += u * u
            curv += a / d
        # the Hessian of f_v is a * (I / S - Y Y^T / S^3); eliminating dt
        # leaves the Schur complement (P, Q), which does not depend on s
        P += curv * (2 / sq - abs(y) ** 2 / sq**3) - abs(hyt) ** 2 / htt
        Q -= curv * y * y / sq**3 + hyt * hyt / htt
        det = P * P - abs(Q) ** 2
        if not det > 0:
            break  # tiny slacks cancel the Schur complement to rounding: keep the best iterate
        while True:
            r = hyt * (gt + s) / htt - gy
            dy = 2 * (P * r - Q * r.conjugate()) / det
            dt = -(gt + s + (hyt.conjugate() * dy).real) / htt
            slope = (gy.conjugate() * dy).real + (gt + s) * dt  # minus the squared decrement
            if -slope > _CENTERED or n / s <= _GAP_REL * t:
                break
            s *= _MU
        if -slope <= _CENTERED:
            break
        # backtrack until all slacks stay positive and the barrier decreases;
        # slack changes avoid cancellation, so their rounding scales with the step
        ydy, bdy = (y.conjugate() * dy).real, [(b.conjugate() * dy).real for _, b, _ in coef]
        alpha = 1.0
        for _ in range(60):
            sq_new = math.sqrt(1 + abs(y + alpha * dy) ** 2)
            dsq = alpha * (2 * ydy + alpha * abs(dy) ** 2) / (sq_new + sq)
            change = [alpha * (dt + bd) - a * dsq for (a, _, _), bd in zip(coef, bdy)]
            if all(d + c > 0 for d, c in zip(slack, change)):
                dbar = s * alpha * dt - sum(math.log1p(c / d) for d, c in zip(slack, change))
                if dbar <= 0.25 * alpha * slope:  # Armijo test on the barrier change
                    break
            alpha *= 0.5
        else:
            break
        y, t, sq = y + alpha * dy, t + alpha * dt, sq_new
        slack = [d + c for d, c in zip(slack, change)]
        w = y / (1 + sq)
        val = _min_radius(p, w)
        if val >= history[-1] * (1 - _TIE_REL):
            best_w, obj = w, val
        history.append(max(history[-1], val))
    return disk_automorphism(best_w), obj


def apply_to_normalized(p: NormalizedPacking, m: Mobius) -> NormalizedPacking:
    """Apply a unit-circle-fixing map to a normalized packing."""
    circles, tangency = _map_packing(p, m)
    return NormalizedPacking(circles=circles, tangency=tangency, outer=p.outer)
