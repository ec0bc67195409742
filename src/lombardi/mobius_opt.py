"""Moebius normalization and min-radius optimization of circle packings.

After packing, one circle is chosen to become the outer boundary: an
inversion in it turns the configuration inside out, and a scaling pins
it to the unit circle.  Among the Moebius maps that fix the unit circle,
the optimizer then maximizes the smallest interior radius, a quasiconvex
problem (Bern and Eppstein, Optimal Moebius transformations for
information visualization and meshing, WADS 2001) that is convex in
hyperboloid coordinates: with w = Y / (1 + S), S = sqrt(1 + |Y|^2),
circle (c, r) has reciprocal image radius f(Y) = a*S - <b, Y> + gamma,
a = (1 + |c|^2 - r^2) / (2r), b = c / r, gamma = (1 - |c|^2 + r^2) / (2r).

The optimizer solves min_Y max_v f_v exactly through its dual.  For
weights lambda on the simplex, (A, B, Gamma) = sum lambda_v (a_v, b_v,
gamma_v) and rho = sqrt(A^2 - |B|^2), min_Y sum lambda_v f_v is
g = rho + Gamma at Y = B / rho, i.e. w = B / (rho + A).  Every Y has
max f_v >= g, so a Y whose worst circle exceeds g by at most 1e-14 g
is certified optimal, and as Y is 2-D an optimal lambda needs at most
three circles.  On a face with base circle k, eta(P, Q) = a_P a_Q -
Re(conj(b_P) b_Q), D_i = P_i - P_k, H = [eta(D_i, D_j)], h =
[eta(D_i, P_k)] and c = [gamma_i - gamma_k], the dual is stationary at
rho^2 = (eta(P_k, P_k) - h'H^-1 h) / (1 - c'H^-1 c), lambda = -H^-1
(h + rho c).
"""

from __future__ import annotations

import math
from itertools import combinations

from .geometry import Circle, Mobius, Record, inversion, mobius_scale_translate
from .packing import CirclePacking


class NormalizedPacking(Record):
    """A packing whose designated outer circle is the unit circle."""

    __slots__ = _fields = ("circles", "tangency", "outer")

    def __init__(self, circles: dict[str, Circle], tangency: dict, outer: str):
        self.circles, self.tangency, self.outer = circles, tangency, outer

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

    Each image radius is k'/|A'| of ``Mobius.image_form``, the routine
    and pole test ``Mobius.apply_circle`` maps by, without building the
    image circles, so the value is bit for bit what mapping every circle
    would give; the exactness test in ``tests/test_mobius_opt.py`` pins
    that.
    """
    m = disk_automorphism(w)
    radii = []
    for v in p.interior_names():
        line, a2, _, _, k2 = m.image_form(p.circles[v])
        rad = -math.inf if line else k2 / abs(a2)  # through the pole: a line
        if not (line or rad > 0):
            raise ValueError(f"circle radius must be positive, got {rad}")
        radii.append(rad)
    return min(radii, default=math.inf)


_GAP_REL = 1e-14  # stop once no circle exceeds the dual value by this much of it
_HOROCYCLE_REL = 1e-12  # a face with rho^2 below this times A^2 touches the unit circle


def _hyperboloid_coefficients(c: Circle) -> tuple[float, complex, float]:
    """The (a, b, gamma) of the module docstring for circle ``c``."""
    q = abs(c.center) ** 2 - c.radius**2
    return (1 + q) / (2 * c.radius), c.center / c.radius, (1 - q) / (2 * c.radius)


def _eta(p: tuple, q: tuple) -> float:
    """The eta(P, Q) of the module docstring for two coefficient triples."""
    return p[0] * q[0] - (p[1].conjugate() * q[1]).real


def _face_max(coef: list, face: tuple) -> tuple[float, complex, complex] | None:
    """The dual's maximum (g, Y, w) inside the simplex of ``face``, 1 to 3
    indices into ``coef``, or None where a radicand is not positive, the
    weights leave the open simplex or rho vanishes to rounding (the face
    touches the unit circle, as a lone horocycle does).  The base is the
    circle with the largest a, so the order of ``face`` does not matter.
    """
    *rest, k = sorted(face, key=lambda i: coef[i][0])
    pk = coef[k]
    d = [tuple(x - y for x, y in zip(coef[i], pk)) for i in rest]
    hh = [[_eta(p, q) for q in d] for p in d]
    det, adj = (hh[0][0], [[1.0]]) if d else (1.0, [])
    if len(d) == 2:
        (h00, h01), (_, h11) = hh
        det, adj = h00 * h11 - h01 * h01, [[h11, -h01], [-h01, h00]]
    h, c = [_eta(p, pk) for p in d], [p[2] for p in d]
    adj_h, adj_c = ([sum(x * y for x, y in zip(row, v)) for row in adj] for v in (h, c))
    num = det * _eta(pk, pk) - sum(x * y for x, y in zip(h, adj_h))
    den = det - sum(x * y for x, y in zip(c, adj_c))
    if not (det and den and num / den > 0):
        return None
    s = math.sqrt(num / den)
    lam = [-(x + s * y) / det for x, y in zip(adj_h, adj_c)]
    a, b, gamma = (pk[j] + sum(x * p[j] for x, p in zip(lam, d)) for j in range(3))
    rho2 = a * a - abs(b) ** 2
    if not (all(x > 0 for x in lam) and sum(lam) < 1 and rho2 > _HOROCYCLE_REL * a * a):
        return None
    rho = math.sqrt(rho2)
    return rho + gamma, b / rho, b / (rho + a)


def optimize_min_radius(
    p: NormalizedPacking, start: complex = 0j, history: list | None = None
) -> tuple[Mobius, float]:
    """Maximize the minimum interior radius over unit-disk automorphisms.

    An active-set ascent on the dual from the support {the circle worst
    at ``start``}.  Each round takes the support's best face; it stops
    when no circle u outside the face has f_u(Y) - g > ``_GAP_REL`` * g
    or when g does not rise, else the face plus u is the next support.
    A lone horocycle has no face, so then u is the next worst at
    ``start``.  The ascent steers by g alone: each subset of a support
    is solved once per call, and ``_min_radius`` runs once, at the
    returned map.  Returns the last face's map and its ``_min_radius``;
    a given ``history`` gets that at ``start``, then the best so far per
    round, scoring every round's map.
    """
    coef = [_hyperboloid_coefficients(p.circles[v]) for v in p.interior_names()]
    solved: dict = {}

    def face_max(s: tuple):
        if (key := frozenset(s)) not in solved:
            solved[key] = _face_max(coef, s)
        return solved[key]

    best_w, obj = start, None if history is None else _min_radius(p, start)
    if history is not None:
        history.append(obj)
    y, g, face = 2 * start / (1 - abs(start) ** 2), -math.inf, ()
    while True:
        sq = math.sqrt(1 + abs(y) ** 2)
        f = [a * sq - (b.conjugate() * y).real + gamma for a, b, gamma in coef]
        u = max((v for v in range(len(f)) if v not in face), key=f.__getitem__, default=None)
        if u is None or f[u] - g <= _GAP_REL * g:
            break
        support = (*face, u)
        faces = [(r, s) for m in (1, 2, 3) for s in combinations(support, m) if (r := face_max(s))]
        if not faces and not face:
            face = support  # a horocycle alone: add the next circle worst at start
            continue
        (g_new, y, w), face = max(faces, key=lambda r: r[0][0], default=((g, y, best_w), face))
        if not g_new > g:
            break
        g, best_w = g_new, w
        if history is not None:
            obj = _min_radius(p, w)
            history.append(max(history[-1], obj))
    return disk_automorphism(best_w), _min_radius(p, best_w) if obj is None else obj


def apply_to_normalized(p: NormalizedPacking, m: Mobius) -> NormalizedPacking:
    """Apply a unit-circle-fixing map to a normalized packing."""
    circles, tangency = _map_packing(p, m)
    return NormalizedPacking(circles=circles, tangency=tangency, outer=p.outer)
