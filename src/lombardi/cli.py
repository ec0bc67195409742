"""Command-line front end: read a rotation system, draw, emit SVG/JSON.

Input format: one line per vertex, listing the vertex name followed by
its neighbors in clockwise order.  Exit status 0 means a drawing was
produced and verified; 1 means a convergence or internal failure; 2
means the input is unsupported (unreadable, disconnected, degree > 3 in
subcubic mode, not 3-connected in medial mode).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .drawing import (
    DrawingError,
    LombardiDrawing,
    draw_medial,
    draw_subcubic,
    from_json,
    to_json,
    verify,
)
from .geometry import Circle, is_inf
from .graph import GraphError, PlanarGraph, parse
from .packing import PackingError

_FMT = "{:.9f}"  # fixed decimal precision for reproducible artifacts


@dataclass
class RunConfig:
    input: str
    mode: str = "subcubic"  # subcubic | medial
    format: str = "svg"  # svg | json | both
    outer_face: int | None = None
    pack_tol: float = 1e-10
    pack_max_iter: int = 10**6
    opt_step_tol: float = 1e-9
    angle_tol: float = 1e-6
    verify_only: bool = False
    output: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("subcubic", "medial"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.format not in ("svg", "json", "both"):
            raise ValueError(f"unknown format {self.format!r}")
        for knob in ("pack_tol", "opt_step_tol", "angle_tol"):
            if getattr(self, knob) <= 0:
                raise ValueError(f"{knob} must be positive")


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
            # axis-extreme points of the support that lie on the arc
            c, r = a.support.center, a.support.radius
            start, sweep, ccw = a._sweep()
            for k in range(4):
                th = k * math.pi / 2
                delta = (th - start) % (2 * math.pi)
                on = delta <= sweep if ccw else (2 * math.pi - delta) % (2 * math.pi) <= sweep
                if on:
                    add(c + r * complex(math.cos(th), math.sin(th)))
    if not xs:
        return (0.0, 0.0, 1.0, 1.0)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad = 0.05 * max(x1 - x0, y1 - y0, 1e-9)
    return (x0 - pad, y0 - pad, (x1 - x0) + 2 * pad, (y1 - y0) + 2 * pad)


def _arc_path(a) -> str:
    for z in (a.p, a.q, a.witness):
        if is_inf(z) or not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise DrawingError("cannot emit an arc through infinity")
    p = complex(a.p.real, -a.p.imag)
    q = complex(a.q.real, -a.q.imag)
    if not isinstance(a.support, Circle):
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


def _default_outer_face(g: PlanarGraph) -> int:
    """The face of maximum length; ties go to the face whose smallest
    incident vertex name is lexicographically least, then lowest index."""
    best = None
    for i, walk in enumerate(g.faces()):
        key = (-len(walk), min(str(dart[0]) for dart in walk), i)
        if best is None or key < best[0]:
            best = (key, i)
    assert best is not None
    return best[1]


def _artifact_paths(cfg: RunConfig) -> dict[str, Path]:
    base = Path(cfg.output) if cfg.output else Path(cfg.input)
    if base.suffix.lower() in (".svg", ".json", ".txt"):
        base = base.with_suffix("")
    out: dict[str, Path] = {}
    if cfg.format in ("svg", "both"):
        out["svg"] = base.with_suffix(".svg")
    if cfg.format in ("json", "both"):
        out["json"] = base.with_suffix(".json")
    return out


def run(cfg: RunConfig) -> int:
    """Execute one drawing (or verification) run; returns the exit status."""
    try:
        text = Path(cfg.input).read_text()
    except OSError as err:
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

    try:
        g = parse(text)
    except GraphError as err:
        print(f"error: unsupported input: {err}", file=sys.stderr)
        return 2

    try:
        if cfg.mode == "medial":
            d = draw_medial(g, pack_tol=cfg.pack_tol, pack_max_iter=cfg.pack_max_iter)
            ref, _ = g.medial()
        else:
            outer = cfg.outer_face if cfg.outer_face is not None else _default_outer_face(g)
            d = draw_subcubic(
                g,
                outer_face=outer,
                pack_tol=cfg.pack_tol,
                pack_max_iter=cfg.pack_max_iter,
                opt_step_tol=cfg.opt_step_tol,
            )
            ref = g
    except GraphError as err:
        print(f"error: unsupported input: {err}", file=sys.stderr)
        return 2
    except (DrawingError, PackingError, ValueError) as err:
        print(f"error: drawing failed: {err}", file=sys.stderr)
        return 1

    rep = verify(d, ref, tol_angle=cfg.angle_tol)
    print(rep.summary())
    if not rep.passed:
        return 1
    for kind, path in _artifact_paths(cfg).items():
        if kind == "svg":
            path.write_text(emit_svg(d))
        else:
            path.write_text(json.dumps(to_json(d), indent=2) + "\n")
        print(f"wrote {path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lombardi",
        description="Planar Lombardi drawings of subcubic planar graphs "
        "and of medial graphs of polyhedral graphs.",
    )
    p.add_argument("input", help="rotation-system text file (or drawing JSON with --verify-only)")
    p.add_argument("--mode", choices=("subcubic", "medial"), default="subcubic")
    p.add_argument("--format", choices=("svg", "json", "both"), default="svg")
    p.add_argument("--outer-face", type=int, default=None, help="outer face index (default: longest face)")
    p.add_argument("--pack-tol", type=float, default=1e-10)
    p.add_argument("--pack-max-iter", type=int, default=10**6)
    p.add_argument("--opt-step-tol", type=float, default=1e-9)
    p.add_argument("--angle-tol", type=float, default=1e-6)
    p.add_argument("--verify-only", action="store_true", help="re-verify a drawing JSON dump")
    p.add_argument("--output", default=None, help="artifact path base (default: beside the input)")
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig(
            input=args.input,
            mode=args.mode,
            format=args.format,
            outer_face=args.outer_face,
            pack_tol=args.pack_tol,
            pack_max_iter=args.pack_max_iter,
            opt_step_tol=args.opt_step_tol,
            angle_tol=args.angle_tol,
            verify_only=args.verify_only,
            output=args.output,
        )
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
