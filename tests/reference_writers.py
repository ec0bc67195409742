"""Reference SVG and JSON writers: one call per number, kept as oracles.

``emit_svg`` formats every number through ``_num``, checks every arc
point with ``is_finite``, and refuses a line arc whose witness does not
lie between its ends: a two-ray arc, which passes through INF.
``json_text`` lays out every value through ``_json_value`` and checks
every number with ``_finite``.  The library's writers must give the
same text, or raise the same exception, on every drawing
(tests/test_writers.py).
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii

from lombardi.drawing import DrawingError, LombardiDrawing
from lombardi.geometry import Circle, is_finite

_FMT = "{:.9f}"  # fixed decimal precision for reproducible artifacts


def _num(x: float) -> str:
    s = _FMT.format(x)
    return "0.000000000" if s == "-0.000000000" else s


def _svg_bounds(d: LombardiDrawing) -> tuple[float, float, float, float]:
    xs: list[float] = []
    ys: list[float] = []

    def add(z: complex) -> None:
        xs.append(z.real)
        ys.append(-z.imag)

    for z in d.positions.values():
        add(z)
    for a in d.arcs.values():
        add(a.p)
        add(a.q)
        if isinstance(a.support, Circle):
            for z in a.axis_extremes():
                add(z)
    if not xs:
        return (0.0, 0.0, 1.0, 1.0)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad = 0.05 * (max(x1 - x0, y1 - y0) or 1.0)  # a lone vertex gets a unit canvas
    return (x0 - pad, y0 - pad, (x1 - x0) + 2 * pad, (y1 - y0) + 2 * pad)


def _arc_path(a) -> str:
    for z in (a.p, a.q, a.witness):
        if not is_finite(z):
            raise DrawingError("cannot emit an arc through infinity")
    p = complex(a.p.real, -a.p.imag)
    q = complex(a.q.real, -a.q.imag)
    if not isinstance(a.support, Circle):
        tp, tq, tw = (a.support.coord(z) for z in (a.p, a.q, a.witness))
        if not min(tp, tq) < tw < max(tp, tq):
            raise DrawingError("cannot emit an arc through infinity")
        return f"M {_num(p.real)} {_num(p.imag)} L {_num(q.real)} {_num(q.imag)}"
    c = complex(a.support.center.real, -a.support.center.imag)
    w = complex(a.witness.real, -a.witness.imag)
    r = a.support.radius
    ap = math.atan2((p - c).imag, (p - c).real)
    aq = math.atan2((q - c).imag, (q - c).real)
    aw = math.atan2((w - c).imag, (w - c).real)
    dq = (aq - ap) % (2 * math.pi)
    dw = (aw - ap) % (2 * math.pi)
    sweep = 1 if dw <= dq else 0
    swept = dq if sweep else 2 * math.pi - dq
    large = 1 if swept > math.pi else 0
    return (
        f"M {_num(p.real)} {_num(p.imag)} "
        f"A {_num(r)} {_num(r)} 0 {large} {sweep} {_num(q.real)} {_num(q.imag)}"
    )


def emit_svg(d: LombardiDrawing) -> str:
    """Deterministic SVG: one path per edge, one dot per vertex."""
    x, y, wdt, hgt = _svg_bounds(d)
    diag = math.hypot(wdt, hgt)
    stroke = 0.004 * diag
    dot = 0.008 * diag
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_num(x)} {_num(y)} {_num(wdt)} {_num(hgt)}">',
        f'<g fill="none" stroke="black" stroke-width="{_num(stroke)}">',
    ]
    for t in sorted(d.arcs, key=repr):
        lines.append(f'<path d="{_arc_path(d.arcs[t])}"/>')
    lines.append("</g>")
    lines.append('<g fill="black" stroke="none">')
    for v in sorted(d.positions, key=repr):
        z = d.positions[v]
        lines.append(
            f'<circle cx="{_num(z.real)}" cy="{_num(-z.imag)}" r="{_num(dot)}"/>'
        )
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# the layout of ``json.dumps(to_json(d), indent=2)``; %r of a float is
# the text ``json`` writes for a finite one
_JSON_VERTEX = """{
      "id": %s,
      "x": %r,
      "y": %r
    }"""
_JSON_EDGE = """{
      "id": %s,
      "u": %s,
      "w": %s,
      "support": %s,
      "px": %r,
      "py": %r,
      "qx": %r,
      "qy": %r,
      "wx": %r,
      "wy": %r
    }"""
_JSON_CIRCLE = """{
        "kind": "circle",
        "cx": %r,
        "cy": %r,
        "r": %r
      }"""
_JSON_LINE = """{
        "kind": "line",
        "nx": %r,
        "ny": %r,
        "offset": %r
      }"""


def _finite(*xs: float) -> tuple:
    """``xs``, once each is known to be finite (ValueError otherwise)."""
    for x in xs:
        if not math.isfinite(x):
            raise ValueError(f"{x!r} has no JSON text")
    return xs


def _json_list(items: list[str], indent: str) -> str:
    """A JSON array of already laid out items, closed at ``indent``."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def _json_value(x, indent: str) -> str:
    """A tag or scalar of a ``to_json`` dict, as ``json.dumps(indent=2)``
    lays it out at ``indent``."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if type(x) is int:
        return int.__repr__(x)
    if isinstance(x, list):
        return _json_list([_json_value(v, indent + "  ") for v in x], indent)
    if isinstance(x, float):
        _finite(x)
        return float.__repr__(x)
    return json.dumps(x)  # bool, None and int subclasses; TypeError for the rest, as json's


def json_text(obj: dict) -> str:
    """``json.dumps(obj, indent=2)`` for a dict in ``to_json``'s layout,
    except that a non-finite number raises ValueError instead of being
    written as NaN or Infinity."""
    verts = [
        _JSON_VERTEX % (_json_value(v["id"], "      "), *_finite(v["x"], v["y"]))
        for v in obj["vertices"]
    ]
    edges = []
    for e in obj["edges"]:
        s = e["support"]
        if s["kind"] == "circle":
            support = _JSON_CIRCLE % _finite(s["cx"], s["cy"], s["r"])
        else:
            support = _JSON_LINE % _finite(s["nx"], s["ny"], s["offset"])
        edges.append(
            _JSON_EDGE
            % (
                _json_value(e["id"], "      "),
                _json_value(e["u"], "      "),
                _json_value(e["w"], "      "),
                support,
                *_finite(e["px"], e["py"], e["qx"], e["qy"], e["wx"], e["wy"]),
            )
        )
    return '{\n  "vertices": %s,\n  "edges": %s,\n  "outer_face": %s\n}' % (
        _json_list(verts, "  "),
        _json_list(edges, "  "),
        _json_value(obj["outer_face"], "  "),
    )
