"""Shared helpers: fixture loading, cached expensive drawings, generated
nested-2-cut graphs and a structure check of SPQR decompositions."""

import pathlib
import random
from collections import Counter

import pytest

from lombardi.graph import PlanarGraph, is_three_connected, is_virtual, parse

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def load_text(name: str) -> str:
    return (FIXTURES / f"{name}.txt").read_text()


def load_graph(name: str) -> PlanarGraph:
    return parse(load_text(name))


_drawings: dict = {}
_timings: dict = {}


def drawn(name: str):
    """Draw a fixture with draw_subcubic once per session; returns
    (graph, drawing, wall seconds)."""
    if name not in _drawings:
        import time

        from lombardi.drawing import draw_subcubic

        g = load_graph(name)
        t0 = time.perf_counter()
        d = draw_subcubic(g)
        _timings[name] = time.perf_counter() - t0
        _drawings[name] = (g, d)
    g, d = _drawings[name]
    return g, d, _timings[name]


@pytest.fixture
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


def k4_gadgets(seed: int, k: int) -> str:
    """K4 with ``k`` edges replaced, one after another, by a K4-minus-an-edge
    gadget on a 2-edge-cut, as rotation-system text.

    Edge uw (picked by ``random.Random(seed)`` among the current edges)
    becomes u-a and b-w with the gadget a, b, c, d (named g<i>_a ...) between
    them; a gadget placed inside an earlier one nests S nodes.
    """
    rot = {"p": ["q", "r", "s"], "q": ["p", "s", "r"], "r": ["p", "q", "s"], "s": ["p", "r", "q"]}
    rng = random.Random(seed)
    for i in range(k):
        u, w = rng.choice(sorted({tuple(sorted((v, x))) for v in rot for x in rot[v]}))
        a, b, c, d = (f"g{i}_{x}" for x in "abcd")
        rot[u][rot[u].index(w)] = a
        rot[w][rot[w].index(u)] = b
        rot.update({a: [u, c, d], b: [w, d, c], c: [a, b, d], d: [a, c, b]})
    return "".join(" ".join([v] + nbrs) + "\n" for v, nbrs in rot.items())


def spqr_nodes(node) -> list:
    """The nodes of the nested SPQR decomposition rooted at ``node``,
    root first."""
    return [node] + [n for side in node.sides.values() for n in spqr_nodes(side)]


def spqr_problems(g: PlanarGraph, root) -> list[str]:
    """What is wrong with ``root`` as the SPQR decomposition of ``g``;
    empty when nothing is.

    Every real edge of ``g`` lies in exactly one skeleton.  Each virtual
    tag lies in exactly two: in the skeleton of the S node whose
    ``sides`` maps it, and in one P or R skeleton inside that side.  S
    skeletons are even cycles alternating real and virtual edges, P
    skeletons 3-bonds, R skeletons simple 3-connected cubic graphs.
    """
    nodes = spqr_nodes(root)
    problems = []
    real = [t for n in nodes for t in n.skeleton.edges if not is_virtual(t)]
    if sorted(real, key=repr) != sorted(g.edges, key=repr):
        problems.append("the real edges are not split one skeleton each")
    held = Counter(t for n in nodes for t in n.skeleton.edges if is_virtual(t))
    problems += [f"{t!r} is in {c} skeletons" for t, c in held.items() if c != 2]
    for n in nodes:
        sk = n.skeleton
        if n.kind == "S":
            if set(n.sides) != {t for t in sk.edges if is_virtual(t)}:
                problems.append("an S node's sides are not its virtual edges")
            if len(sk.connected_components()) != 1 or any(
                sorted(map(is_virtual, sk.rot[v])) != [False, True] for v in sk.vertices
            ):
                problems.append("an S skeleton is not a cycle alternating real and virtual edges")
            for t, side in n.sides.items():
                kinds = [m.kind for m in spqr_nodes(side) if t in m.skeleton.edges]
                if kinds not in (["P"], ["R"]):
                    problems.append(f"{t!r} is in {kinds} skeletons across its S node")
        elif n.sides:
            problems.append(f"a {n.kind} node has sides")
        elif n.kind == "P":
            if (len(sk.vertices), len(sk.edges)) != (2, 3):
                problems.append("a P skeleton is not a 3-bond")
        elif n.kind != "R" or not (
            sk.is_simple() and all(sk.degree(v) == 3 for v in sk.vertices) and is_three_connected(sk)
        ):
            problems.append(f"a {n.kind} skeleton is not simple 3-connected cubic")
    return problems
