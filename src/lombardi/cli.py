"""Command-line front end: read a rotation system, draw, emit SVG/JSON.

Input format: one line per vertex, listing the vertex name followed by
its neighbors in clockwise order.  Exit status 0 means a drawing was
produced and verified; 1 means a convergence or internal failure; 2
means the input is unsupported (unreadable, disconnected, degree > 3 in
subcubic mode, not 3-connected in medial mode) or an output file cannot
be written, the input file itself among them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os.path
import sys

from .drawing import (
    ANGLE_TOL,
    DrawingError,
    LombardiDrawing,
    draw_medial,
    draw_subcubic,
    from_json,
    json_text,
    to_json,
    verify,
)
from .geometry import INF, Circle, Record
from .graph import GraphError, PlanarGraph, parse
from .packing import PackingError


class RunConfig(Record):
    __slots__ = _fields = ("input", "mode", "format", "outer_face", "angle_tol", "verify_only", "output")

    def __init__(self, input: str, mode: str = "subcubic", format: str = "svg", outer_face: int | None = None,
                 angle_tol: float = ANGLE_TOL, verify_only: bool = False, output: str | None = None):
        if mode not in ("subcubic", "medial"):
            raise ValueError(f"unknown mode {mode!r}")
        if format not in ("svg", "json", "both"):
            raise ValueError(f"unknown format {format!r}")
        if mode == "medial" and outer_face is not None:
            raise ValueError("outer_face applies to subcubic mode only")
        if not 0 < angle_tol < math.inf:
            raise ValueError("angle_tol must be positive and finite")
        self.input, self.mode, self.format, self.outer_face = input, mode, format, outer_face
        self.angle_tol, self.verify_only, self.output = angle_tol, verify_only, output


def _svg_bounds(d: LombardiDrawing) -> tuple[float, float, float, float]:
    pts = list(d.positions.values())
    for a in d.arcs.values():
        pts += (a.p, a.q)
        if isinstance(a.support, Circle):
            pts += a.axis_extremes()
    if not pts:
        return (0.0, 0.0, 1.0, 1.0)
    xs = [z.real for z in pts]
    ys = [-z.imag for z in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad = 0.05 * (max(x1 - x0, y1 - y0) or 1.0)  # a lone vertex gets a unit canvas
    return (x0 - pad, y0 - pad, (x1 - x0) + 2 * pad, (y1 - y0) + 2 * pad)


# SVG records, every number written with 9 decimals
_SVG_LINE = '<path d="M %.9f %.9f L %.9f %.9f"/>'
_SVG_ARC = '<path d="M %.9f %.9f A %.9f %.9f 0 %d %d %.9f %.9f"/>'
_SVG_DOT = '<circle cx="%.9f" cy="%.9f" r="%.9f"/>'


def emit_svg(d: LombardiDrawing) -> str:
    """Deterministic SVG: one path per edge, one dot per vertex.

    y points down, and a negative number that rounds to zero is written
    as 0.000000000.  An arc through INF, a two-ray line arc among them,
    raises DrawingError.
    """
    x, y, wdt, hgt = _svg_bounds(d)
    diag = math.hypot(wdt, hgt)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="%.9f %.9f %.9f %.9f">' % (x, y, wdt, hgt),
        '<g fill="none" stroke="black" stroke-width="%.9f">' % (0.004 * diag),
    ]
    for t in sorted(d.arcs, key=repr):
        a = d.arcs[t]
        p, q, w = a.p, a.q, a.witness
        line = not isinstance(a.support, Circle)
        # p - p + (q - q) + (w - w) is 0 if all three are finite, else nan
        if w is INF or p - p + (q - q) + (w - w) or line and a._sweep()[2] != "segment":
            raise DrawingError("cannot emit an arc through infinity")
        p = complex(p.real, -p.imag)
        q = complex(q.real, -q.imag)
        if line:
            lines.append(_SVG_LINE % (p.real, p.imag, q.real, q.imag))
            continue
        c = complex(a.support.center.real, -a.support.center.imag)
        w = complex(w.real, -w.imag)
        r = a.support.radius
        ap = math.atan2((p - c).imag, (p - c).real)
        aq = math.atan2((q - c).imag, (q - c).real)
        aw = math.atan2((w - c).imag, (w - c).real)
        dq = (aq - ap) % (2 * math.pi)
        dw = (aw - ap) % (2 * math.pi)
        sweep = 1 if dw <= dq else 0
        swept = dq if sweep else 2 * math.pi - dq
        large = 1 if swept > math.pi else 0
        lines.append(_SVG_ARC % (p.real, p.imag, r, r, large, sweep, q.real, q.imag))
    lines.append("</g>")
    lines.append('<g fill="black" stroke="none">')
    dot = 0.008 * diag
    for v in sorted(d.positions, key=repr):
        z = d.positions[v]
        lines.append(_SVG_DOT % (z.real, -z.imag, dot))
    lines.append("</g>")
    lines.append("</svg>")
    # %.9f prints -0.000000000 for a negative number that rounds to zero
    # and for no other, so one pass writes each such number as 0
    return ("\n".join(lines) + "\n").replace("-0.000000000", "0.000000000")


def _default_outer_face(g: PlanarGraph) -> int:
    """The face of maximum length; ties go to the face whose smallest
    incident vertex name is lexicographically least, then lowest index.
    0 when the graph has no faces."""
    faces = g.faces()
    return min(
        range(len(faces)),
        key=lambda i: (-len(faces[i]), min(str(dart[0]) for dart in faces[i])),
        default=0,
    )


def _artifact_paths(cfg: RunConfig) -> dict[str, str]:
    name = cfg.output or cfg.input
    if cfg.output and (cfg.output.endswith((os.sep, os.altsep or os.sep)) or os.path.isdir(cfg.output)):
        name = os.path.join(cfg.output, os.path.basename(cfg.input))  # a directory: the input's name in it
    root, ext = os.path.splitext(os.path.normpath(name))
    base = root if ext.lower() in (".svg", ".json", ".txt") else root + ext
    kinds = ("svg", "json") if cfg.format == "both" else (cfg.format,)
    return {kind: f"{base}.{kind}" for kind in kinds}


def run(cfg: RunConfig) -> int:
    """Execute one drawing (or verification) run; returns the exit status."""
    try:
        with open(cfg.input, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as err:
        print(f"error: cannot read input: {err}", file=sys.stderr)
        return 2

    if cfg.verify_only:
        try:
            d = from_json(json.loads(text))
        except (ValueError, KeyError, TypeError) as err:
            print(f"error: not a drawing dump: {err}", file=sys.stderr)
            return 2
        rep = verify(d, tol_angle=cfg.angle_tol)
        print(rep.summary())
        return 0 if rep.passed else 1

    paths = _artifact_paths(cfg)
    clash = [path for path in paths.values() if os.path.exists(path) and os.path.samefile(path, cfg.input)]
    if clash:
        print(f"error: cannot write output: {clash[0]} is the input file", file=sys.stderr)
        return 2

    try:
        g = parse(text)
    except GraphError as err:
        print(f"error: unsupported input: {err}", file=sys.stderr)
        return 2

    try:
        if cfg.mode == "medial":
            d = draw_medial(g, angle_tol=cfg.angle_tol)
        else:
            outer = cfg.outer_face if cfg.outer_face is not None else _default_outer_face(g)
            d = draw_subcubic(g, outer_face=outer, angle_tol=cfg.angle_tol)
    except GraphError as err:
        print(f"error: unsupported input: {err}", file=sys.stderr)
        return 2
    except (DrawingError, PackingError) as err:
        print(f"error: drawing failed: {err}", file=sys.stderr)
        return 1

    print(d.report.summary())  # the entry point's gate already verified d
    for kind, path in paths.items():
        text = emit_svg(d) if kind == "svg" else json_text(to_json(d)) + "\n"
        try:
            with open(path, "w") as f:
                f.write(text)
        except OSError as err:
            print(f"error: cannot write output: {err}", file=sys.stderr)
            return 2
        print(f"wrote {path}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The flag parser: built by the first ``main`` call, reused and never mutated by the rest."""
    p = argparse.ArgumentParser(
        prog="lombardi",
        description="Planar Lombardi drawings of subcubic planar graphs "
        "and of medial graphs of polyhedral graphs.",
        argument_default=argparse.SUPPRESS,  # a flag left out takes RunConfig's default
    )
    p.add_argument("input", help="rotation-system text file (or drawing JSON with --verify-only)")
    p.add_argument("--mode", choices=("subcubic", "medial"))
    p.add_argument("--format", choices=("svg", "json", "both"))
    p.add_argument("--outer-face", type=int, help="outer face index in subcubic mode (default: longest face)")
    p.add_argument("--angle-tol", type=float)
    p.add_argument("--verify-only", action="store_true", help="re-verify a drawing JSON dump")
    p.add_argument("--output", help="artifact path base, or a directory to write the input's name into "
                   "(default: beside the input)")
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig(**vars(args))  # one field per flag
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
