"""Command-line interface: exit codes, SVG/JSON artifacts, determinism."""

import cmath
import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

import lombardi
from conftest import FIXTURES, load_graph
from lombardi.cli import RunConfig, _build_parser, _default_outer_face, emit_svg, main, run
from lombardi.drawing import DrawingError, LombardiDrawing, draw_medial, draw_subcubic, json_text, to_json
from lombardi.geometry import Arc, Circle, Line, arc_through, segment
from lombardi.graph import parse


def svg_arc_midpoint(x1, y1, rx, ry, large, sweep, x2, y2):
    """Midpoint of an SVG elliptical-arc segment (circular case), computed
    from the endpoint parameterization exactly as the SVG specification
    defines it: an independent check of the large/sweep flag emission."""
    assert rx == ry
    r = rx
    dx, dy = (x1 - x2) / 2.0, (y1 - y2) / 2.0
    # scale radius up if numerically short (the spec's correction step)
    lam = (dx * dx + dy * dy) / (r * r)
    if lam > 1:
        r *= math.sqrt(lam)
    sq = (r * r - dx * dx - dy * dy) / (dx * dx + dy * dy)
    co = math.sqrt(max(0.0, sq))
    if large == sweep:
        co = -co
    cxp, cyp = co * dy, -co * dx
    cx, cy = cxp + (x1 + x2) / 2.0, cyp + (y1 + y2) / 2.0
    th1 = math.atan2(y1 - cy, x1 - cx)
    th2 = math.atan2(y2 - cy, x2 - cx)
    dth = th2 - th1
    if sweep and dth < 0:
        dth += 2 * math.pi
    if not sweep and dth > 0:
        dth -= 2 * math.pi
    tm = th1 + dth / 2.0
    return cx + r * math.cos(tm), cy + r * math.sin(tm)


ARC_RE = re.compile(
    r"M (\S+) (\S+) A (\S+) (\S+) 0 ([01]) ([01]) (\S+) (\S+)"
)


def test_svg_arc_flags_put_midpoint_on_witness_side():
    # several arcs with witnesses on either side, both minor and major
    cases = [
        arc_through(1 + 0j, -1 + 0j, 1j),  # upper semicircle
        arc_through(1 + 0j, -1 + 0j, -1j),  # lower semicircle
        arc_through(1 + 0j, 1j, 0.9 + 0.45j),  # minor arc
        arc_through(1 + 0j, 1j, -1 + 0j),  # major arc
        arc_through(2 + 1j, 2 + 3j, 1 + 2j),  # off-origin circle
    ]
    positions = {}
    arcs = {}
    edges = {}
    for i, a in enumerate(cases):
        u, w = f"u{i}", f"w{i}"
        positions[u], positions[w] = a.p, a.q
        arcs[(i,)] = a
        edges[(i,)] = (u, w)
    d = LombardiDrawing(positions, arcs, edges)
    svg = emit_svg(d)
    paths = re.findall(r'<path d="([^"]+)"/>', svg)
    assert len(paths) == len(cases)
    for path, a in zip(paths, sorted(arcs, key=repr)):
        arc = arcs[a]
        m = ARC_RE.match(path)
        assert m, path
        x1, y1, rx, ry, large, sweep, x2, y2 = (
            float(m.group(1)),
            float(m.group(2)),
            float(m.group(3)),
            float(m.group(4)),
            int(m.group(5)),
            int(m.group(6)),
            float(m.group(7)),
            float(m.group(8)),
        )
        mx, my = svg_arc_midpoint(x1, y1, rx, ry, large, sweep, x2, y2)
        mid = complex(mx, -my)  # back to math orientation
        # the rendered midpoint lies on the support circle...
        assert arc.support.contains(mid, 1e-6)
        # ...and on the same side of the chord as the witness
        chord = arc.q - arc.p
        side_mid = ((mid - arc.p) / chord).imag
        side_wit = ((arc.witness - arc.p) / chord).imag
        assert side_mid * side_wit > 0, (path, arc)


def test_svg_numbers_are_fixed_precision():
    d = LombardiDrawing(
        {"a": 0j, "b": 1 + 0j},
        {("e", "a", "b"): segment(0j, 1 + 0j)},
        {("e", "a", "b"): ("a", "b")},
    )
    svg = emit_svg(d)
    body = svg.split("\n", 1)[1]  # skip the XML declaration's "1.0"
    for num in re.findall(r'[-+]?\d+\.\d+', body):
        assert len(num.split(".")[1]) == 9
    assert "-0.000000000" not in svg


def test_svg_refuses_a_two_ray_line_arc():
    # the x-axis outside [-1, 1], through 5 and INF: a path from p to q
    # would draw the segment the arc leaves out
    arc = Arc(Line(1j, 0), -1 + 0j, 1 + 0j, 5 + 0j)
    d = LombardiDrawing({"a": -1 + 0j, "b": 1 + 0j}, {"e": arc}, {"e": ("a", "b")})
    with pytest.raises(DrawingError, match="cannot emit an arc through infinity"):
        emit_svg(d)


def test_empty_drawing_yields_valid_svg():
    svg = emit_svg(LombardiDrawing({}, {}, {}))
    assert svg.startswith("<?xml")
    assert "<path" not in svg and "<circle" not in svg
    assert "viewBox" in svg


def test_default_outer_face_rules():
    # the dodecahedron: all faces are pentagons, so ties are broken by
    # the smallest incident vertex name
    g = load_graph("dodecahedron")
    i = _default_outer_face(g)
    faces = g.faces()
    assert len(faces[i]) == max(len(w) for w in faces)
    vmin = min(min(str(d[0]) for d in w) for w in faces if len(w) == len(faces[i]))
    assert min(str(d[0]) for d in faces[i]) == vmin


def k4_input(tmp_path):
    src = FIXTURES / "k4.txt"
    dst = tmp_path / "k4.txt"
    shutil.copy(src, dst)
    return dst


def test_cli_k4_svg_and_json(tmp_path, capsys):
    inp = k4_input(tmp_path)
    rc = main([str(inp), "--format", "both"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ok" in out
    svg = (tmp_path / "k4.svg").read_text()
    assert svg.count("<path") == 6
    assert svg.count("<circle") == 4
    obj = json.loads((tmp_path / "k4.json").read_text())
    assert len(obj["vertices"]) == 4
    assert len(obj["edges"]) == 6


def test_cli_deterministic_output(tmp_path):
    inp = k4_input(tmp_path)
    assert main([str(inp), "--format", "both"]) == 0
    svg1 = (tmp_path / "k4.svg").read_bytes()
    js1 = (tmp_path / "k4.json").read_bytes()
    assert main([str(inp), "--format", "both"]) == 0
    assert (tmp_path / "k4.svg").read_bytes() == svg1
    assert (tmp_path / "k4.json").read_bytes() == js1


def test_cli_output_flag(tmp_path):
    inp = k4_input(tmp_path)
    out = tmp_path / "custom.svg"
    assert main([str(inp), "--output", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize(
    "name, flags, written",
    [
        ("k4.final.txt", [], ["k4.final.svg", "k4.final.json"]),
        ("k4.TXT", [], ["k4.svg", "k4.json"]),
        ("k4", [], ["k4.svg", "k4.json"]),
        ("k4.txt", ["--output", "out.v3"], ["out.v3.svg", "out.v3.json"]),
        ("k4.txt", ["--output", "out.svg.json"], ["out.svg.svg", "out.svg.json"]),
        ("k4.txt", ["--output", "sub.d/out"], ["sub.d/out.svg", "sub.d/out.json"]),
        ("k4.txt", ["--output", "./sub.d//out.TXT"], ["sub.d/out.svg", "sub.d/out.json"]),
        ("k4.txt", ["--output", "sub.d/"], ["sub.d/k4.svg", "sub.d/k4.json"]),
        ("k4.final.txt", ["--output", "sub.d"], ["sub.d/k4.final.svg", "sub.d/k4.final.json"]),
    ],
)
def test_cli_output_names_keep_the_whole_file_name(tmp_path, monkeypatch, capsys, name, flags, written):
    # one trailing .txt, .svg or .json is dropped, then .svg and .json appended
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub.d").mkdir()
    shutil.copy(FIXTURES / "k4.txt", tmp_path / name)
    assert main([name, "--format", "both", *flags]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [f"wrote {w}" for w in written]
    assert all((tmp_path / w).is_file() for w in written)
    assert len(list(tmp_path.rglob("*"))) == 2 + len(written)


def test_cli_inputs_differing_before_the_suffix_write_different_files(tmp_path):
    for name in ("g.a.txt", "g.b.txt"):
        shutil.copy(FIXTURES / "k4.txt", tmp_path / name)
    assert main([str(tmp_path / "g.a.txt"), "--format", "both"]) == 0
    assert main([str(tmp_path / "g.b.txt"), "--mode", "medial", "--format", "both"]) == 0
    names = ["g.a.json", "g.a.svg", "g.a.txt", "g.b.json", "g.b.svg", "g.b.txt"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    assert (tmp_path / "g.a.svg").read_text() != (tmp_path / "g.b.svg").read_text()


@pytest.mark.parametrize(
    "name, flags, clash",
    [
        ("g.json", ["--format", "json"], "g.json"),
        ("g.json", ["--format", "both"], "g.json"),
        ("g.svg", [], "g.svg"),
        ("g.txt", ["--format", "both", "--output", "alias.json"], "alias.json"),  # a link to the input
    ],
)
def test_cli_never_overwrites_its_input(tmp_path, monkeypatch, capsys, name, flags, clash):
    # a rotation system saved under an artifact's name is refused before
    # anything is drawn or written
    monkeypatch.chdir(tmp_path)
    shutil.copy(FIXTURES / "k4.txt", tmp_path / name)
    os.symlink(name, tmp_path / "alias.json")
    before = (tmp_path / name).read_bytes()
    assert main([name, *flags]) == 2
    assert capsys.readouterr() == ("", f"error: cannot write output: {clash} is the input file\n")
    assert (tmp_path / name).read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([name, "alias.json"])


def test_cli_import_generates_no_code():
    # each CLI run is a fresh process: importing lombardi.cli must not load
    # dataclasses (code generation), inspect, typing or pathlib
    src = os.path.dirname(os.path.dirname(lombardi.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import lombardi.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'typing', 'pathlib') if m in sys.modules))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_cli_verify_only_round_trip(tmp_path):
    inp = k4_input(tmp_path)
    assert main([str(inp), "--format", "json"]) == 0
    rc = main([str(tmp_path / "k4.json"), "--verify-only"])
    assert rc == 0


def test_cli_verify_only_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main([str(bad), "--verify-only"]) == 2


def test_cli_verify_only_rejects_edge_to_unknown_vertex(tmp_path, capsys):
    inp = k4_input(tmp_path)
    assert main([str(inp), "--format", "json"]) == 0
    obj = json.loads((tmp_path / "k4.json").read_text())
    obj["vertices"] = obj["vertices"][1:]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main([str(bad), "--verify-only"]) == 2
    assert "not a drawing dump" in capsys.readouterr().err


@pytest.mark.parametrize("records", ["vertices", "edges"])
def test_cli_verify_only_rejects_a_repeated_id(tmp_path, capsys, records):
    # the last record again under the first one's id: read as a dict, it
    # would replace the first, and verify would judge a drawing the file
    # does not hold
    inp = k4_input(tmp_path)
    assert main([str(inp), "--format", "json"]) == 0
    obj = json.loads((tmp_path / "k4.json").read_text())
    obj[records].append({**obj[records][-1], "id": obj[records][0]["id"]})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main([str(bad), "--verify-only"]) == 2
    assert "not a drawing dump" in capsys.readouterr().err


def test_cli_verify_only_rejects_non_finite_drawing(tmp_path, capsys):
    cycle = tmp_path / "c3.txt"
    cycle.write_text("a b c\nb c a\nc a b\n")
    assert main([str(cycle), "--format", "json"]) == 0
    obj = json.loads((tmp_path / "c3.json").read_text())
    for v in obj["vertices"]:
        v["x"] = v["y"] = math.nan
    for e in obj["edges"]:
        for key in ("px", "py", "qx", "qy", "wx", "wy"):
            e[key] = math.nan
        e["support"]["cx"] = e["support"]["cy"] = math.nan
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main([str(bad), "--verify-only"]) == 1
    assert "endpoint error inf (FAIL)" in capsys.readouterr().out


def test_cli_verify_only_rejects_an_arc_whose_end_is_off_its_support(tmp_path, capsys):
    # the arc runs over the unit circle from angle pi/8 to pi/2, so it never
    # reaches its vertex u, half a unit inside the circle at p
    p, q = 0.5 * cmath.exp(1j * math.pi / 8), 1j
    arc = Arc(Circle(0j, 1.0), p, q, cmath.exp(1j * math.pi / 4))
    dump = tmp_path / "off.json"
    dump.write_text(json.dumps(to_json(LombardiDrawing({"u": p, "w": q}, {"e": arc}, {"e": ("u", "w")}))))
    assert main([str(dump), "--verify-only"]) == 1
    assert "endpoint error 5.000e-01 (FAIL)" in capsys.readouterr().out


def test_cli_angle_tol_sets_the_gate(tmp_path, capsys):
    # irregular69 glues blocks and attaches bridge stubs, none of which
    # verify on their own, and leaves an angle residual of about 2.3e-9
    i69 = tmp_path / "i69.txt"
    shutil.copy(FIXTURES / "irregular69.txt", i69)
    flags = [str(i69), "--format", "both"]
    assert main(flags + ["--angle-tol", "1e-9"]) == 1
    assert "angle residual 2.254e-09" in capsys.readouterr().err
    assert not (tmp_path / "i69.svg").exists() and not (tmp_path / "i69.json").exists()
    for extra in ([], ["--angle-tol", "1e-3"]):
        assert main(flags + extra) == 0
        assert "angle residual 2.254e-09" in capsys.readouterr().out


def test_cli_rejects_unsupported_inputs(tmp_path):
    # 4-regular graph fed directly: unsupported in both modes
    g18 = FIXTURES / "g18.txt"
    assert main([str(g18), "--output", str(tmp_path / "a.svg")]) == 2
    assert main([str(g18), "--mode", "medial", "--output", str(tmp_path / "b.svg")]) == 2
    # disconnected graph
    dis = tmp_path / "dis.txt"
    dis.write_text("a b\nb a\nc d\nd c\n")
    assert main([str(dis), "--output", str(tmp_path / "c.svg")]) == 2
    # missing file
    assert main([str(tmp_path / "nope.txt")]) == 2


@pytest.mark.parametrize("extra", [[], ["--verify-only"]], ids=["draw", "verify-only"])
def test_cli_undecodable_input_is_unreadable(tmp_path, capsys, extra):
    # input is read as UTF-8 whatever the locale; bytes that do not decode
    # are unreadable input, not a crash
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe")
    assert main([str(bad), *extra]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read input: ")
    assert not (tmp_path / "bad.svg").exists()


@pytest.mark.parametrize("fmt", ["svg", "json", "both"])
def test_cli_unwritable_output_is_reported(tmp_path, capsys, fmt):
    # a drawing that cannot be written is an error on stderr with exit 2,
    # after the gate's report, not a traceback
    out = tmp_path / "no" / "such" / "dir" / "x"
    assert main([str(FIXTURES / "k4.txt"), "--format", fmt, "--output", str(out)]) == 2
    printed = capsys.readouterr()
    assert printed.out.startswith("angle residual ") and "wrote" not in printed.out
    assert printed.err.startswith("error: cannot write output: ") and printed.err.count("\n") == 1
    assert not (tmp_path / "no").exists()


def test_cli_main_reuses_one_parser(tmp_path, capsys):
    # in-process calls share the first call's parser, and no call's flags
    # reach the next: each writes what drawing its input alone gives
    inp = k4_input(tmp_path)
    medial = [str(inp), "--mode", "medial", "--output", str(tmp_path / "medial")]
    subcubic = [str(inp), "--format", "json", "--output", str(tmp_path / "subcubic")]
    assert main(medial) == 0
    with pytest.raises(SystemExit) as exc:
        main([str(inp), "--mode", "bogus"])
    assert exc.value.code == 2
    assert main(subcubic) == 0
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert _build_parser.cache_info().misses == 1
    g = parse(inp.read_text())
    assert (tmp_path / "medial.svg").read_text() == emit_svg(draw_medial(g))
    want = json_text(to_json(draw_subcubic(g, outer_face=_default_outer_face(g)))) + "\n"
    assert (tmp_path / "subcubic.json").read_text() == want
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k4.txt", "medial.svg", "subcubic.json"]


def test_cli_one_vertex_input_draws(tmp_path):
    # no faces, so the default outer face falls back to 0
    one = tmp_path / "one.txt"
    one.write_text("a\n")
    assert main([str(one), "--format", "both"]) == 0
    assert len(json.loads((tmp_path / "one.json").read_text())["vertices"]) == 1
    # a zero-extent drawing still gets a visible canvas, stroke and dot
    svg = (tmp_path / "one.svg").read_text()
    _, _, width, height = map(float, re.search(r'viewBox="([^"]*)"', svg).group(1).split())
    stroke = float(re.search(r'stroke-width="([^"]*)"', svg).group(1))
    dot = float(re.search(r'<circle [^>]* r="([^"]*)"', svg).group(1))
    assert min(width, height, stroke, dot) > 0


def test_cli_draws_an_outer_face_next_to_every_face(tmp_path, capsys):
    # the default outer face, a 7-gon, touches every other face, so all
    # seven circles it leaves inside are active at the optimum and the
    # optimizer's Newton system becomes singular to rounding there
    skel = tmp_path / "skel12.txt"
    skel.write_text(
        "v12 v28 v51 v35\nv18 v27 v60 v45\nv27 v45 v52 v18\nv28 v12 v52 v3\n"
        "v3 v52 v51 v28\nv35 v60 v12 v59\nv45 v56 v27 v18\nv51 v56 v12 v3\n"
        "v52 v28 v27 v3\nv56 v45 v59 v51\nv59 v35 v56 v60\nv60 v18 v35 v59\n"
    )
    assert main([str(skel), "--format", "json"]) == 0
    residual = float(re.search(r"angle residual (\S+)", capsys.readouterr().out).group(1))
    assert residual < 1e-9


@pytest.mark.parametrize("text", ["", "# nothing but a comment\n"])
def test_cli_empty_input_is_unsupported(tmp_path, capsys, text):
    empty = tmp_path / "empty.txt"
    empty.write_text(text)
    assert main([str(empty)]) == 2
    assert "unsupported input" in capsys.readouterr().err
    assert not (tmp_path / "empty.svg").exists()


def test_cli_medial_mode(tmp_path):
    inp = k4_input(tmp_path)
    rc = main([str(inp), "--mode", "medial", "--format", "svg"])
    assert rc == 0
    svg = (tmp_path / "k4.svg").read_text()
    assert svg.count("<path") == 12
    assert svg.count("<circle") == 6


def test_cli_outer_face_flag(tmp_path):
    inp = k4_input(tmp_path)
    assert main([str(inp), "--outer-face", "2", "--format", "json"]) == 0
    assert json.loads((tmp_path / "k4.json").read_text())["outer_face"] == 2
    assert main([str(inp), "--outer-face", "99", "--output", str(tmp_path / "x.svg")]) == 2
    # an input that is not 3-connected is range-checked too, and its
    # drawing is not labelled with a face it was not drawn around
    two = tmp_path / "two_k4e.txt"
    shutil.copy(FIXTURES / "two_k4e.txt", two)
    assert main([str(two), "--outer-face", "99", "--format", "json"]) == 2
    assert not (tmp_path / "two_k4e.json").exists()
    assert main([str(two), "--outer-face", "5", "--format", "json"]) == 0
    assert json.loads((tmp_path / "two_k4e.json").read_text())["outer_face"] is None
    # medial mode picks its own outer face and refuses the flag
    med = tmp_path / "medial.json"
    assert main([str(inp), "--mode", "medial", "--outer-face", "0", "--format", "json", "--output", str(med)]) == 2
    assert not med.exists()


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig("x.txt", mode="bogus")
    with pytest.raises(ValueError):
        RunConfig("x.txt", format="png")
    for bad in (-1.0, 0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            RunConfig("x.txt", angle_tol=bad)
    with pytest.raises(ValueError):
        RunConfig("x.txt", mode="medial", outer_face=0)
    k4 = str(FIXTURES / "k4.txt")
    assert main([k4, "--angle-tol", "nan"]) == 2


@pytest.mark.parametrize("flag", ["--pack-tol", "--pack-max-iter"])
def test_cli_packing_has_no_flags(flag):
    # the packing stop is fixed in the packing module
    with pytest.raises(SystemExit) as exc:
        main([str(FIXTURES / "k4.txt"), flag, "1"])
    assert exc.value.code == 2
