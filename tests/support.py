"""Shared builders for atlas and bundle test cases.

Everything here is constructed programmatically so tests do not depend on
the shipped gallery files except where a test is specifically about them.
"""

import json
import math

from vbx.constructions import LOCAL_CHART, local_bundle
from vbx.coords import FieldTag
from vbx.expr import Expr, Var
from vbx.spec import make_atlas, make_bundle, make_field
from vbx.specio import gallery_path, list_gallery

PI = math.pi
TWO_PI = 2 * math.pi


def walked_top(root) -> int:
    """The largest variable index in root, 0 if it has none, by a walk that
    visits each distinct node once, operands first: the oracle for a
    node's top, which is set at construction."""
    tops: dict = {}  # id(node) -> its top; every node lives under root
    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in tops:
            stack.pop()
            continue
        kids = [v for v in vars(node).values() if isinstance(v, Expr)]
        todo = [k for k in kids if id(k) not in tops]
        if todo:
            stack += todo
            continue
        stack.pop()
        tops[id(node)] = (node.index if isinstance(node, Var)
                          else max((tops[id(k)] for k in kids), default=0))
    return tops[id(root)]


def local_field(box, d, r, s, comps):
    """An (r,s)-field on one box: a field on the trivial bundle over it."""
    return make_field(local_bundle(box, d), r, s, {LOCAL_CHART: comps})


def circle_atlas():
    """Two-chart circle: east (-pi, pi) and west (0, 2pi), glued twice."""
    charts = [("east", [(-PI, PI)]), ("west", [(0.0, TWO_PI)])]
    overlaps = [
        ("east", "west", [[(0.0, PI)]], ["x1"]),
        ("east", "west", [[(-PI, 0.0)]], ["x1 + 2*pi"]),
        ("west", "east", [[(0.0, PI)]], ["x1"]),
        ("west", "east", [[(PI, TWO_PI)]], ["x1 - 2*pi"]),
    ]
    return make_atlas(1, charts, overlaps)


def mobius_bundle():
    """Rank-one bundle over the circle with a sign flip on one gluing."""
    transitions = [
        ("east", "west", [["1"]]),
        ("east", "west", [["-1"]]),
        ("west", "east", [["1"]]),
        ("west", "east", [["-1"]]),
    ]
    return make_bundle(circle_atlas(), 1, FieldTag.REAL, transitions)


def circle_trivial_bundle(fiber_dim=1):
    """Trivial rank-d bundle over the circle (all transitions identity)."""
    eye = [["1" if i == j else "0" for j in range(fiber_dim)] for i in range(fiber_dim)]
    transitions = [(frm, to, eye) for frm, to in
                   [("east", "west"), ("east", "west"), ("west", "east"), ("west", "east")]]
    return make_bundle(circle_atlas(), fiber_dim, FieldTag.REAL, transitions)


def quarter_circle_atlas():
    """Four-chart circle used as the double-cover source.

    Charts carry the global angle directly; only the wrap-around pair
    needs a shifted coordinate change.
    """
    h = PI / 2
    charts = [
        ("c0", [(-h, h)]),
        ("c1", [(0.0, PI)]),
        ("c2", [(h, 3 * h)]),
        ("c3", [(PI, TWO_PI)]),
    ]
    overlaps = [
        ("c0", "c1", [[(0.0, h)]], ["x1"]),
        ("c1", "c0", [[(0.0, h)]], ["x1"]),
        ("c1", "c2", [[(h, PI)]], ["x1"]),
        ("c2", "c1", [[(h, PI)]], ["x1"]),
        ("c2", "c3", [[(PI, 3 * h)]], ["x1"]),
        ("c3", "c2", [[(PI, 3 * h)]], ["x1"]),
        ("c3", "c0", [[(3 * h, TWO_PI)]], ["x1 - 2*pi"]),
        ("c0", "c3", [[(-h, 0.0)]], ["x1 + 2*pi"]),
    ]
    return make_atlas(1, charts, overlaps)


def double_cover_map():
    """Chart assignment and angle-doubling expressions onto the circle."""
    assignment = {"c0": "east", "c1": "west", "c2": "east", "c3": "west"}
    maps = {
        "c0": ["2*x1"],
        "c1": ["2*x1"],
        "c2": ["2*x1 - 2*pi"],
        "c3": ["2*x1 - 2*pi"],
    }
    return assignment, maps


def plane_atlas():
    """Two rectangles in the plane overlapping in a vertical band."""
    charts = [("left", [(-2.0, 0.5), (-1.0, 1.0)]), ("right", [(-0.5, 2.0), (-1.0, 1.0)])]
    band = [(-0.5, 0.5), (-1.0, 1.0)]
    overlaps = [
        ("left", "right", [band], ["x1", "x2"]),
        ("right", "left", [band], ["x1", "x2"]),
    ]
    return make_atlas(2, charts, overlaps)


def plane_rotation_bundle():
    """Rank-two bundle over the plane atlas with a position-dependent gluing."""
    rot = [["cos(x1)", "-sin(x1)"], ["sin(x1)", "cos(x1)"]]
    rot_inv = [["cos(x1)", "sin(x1)"], ["-sin(x1)", "cos(x1)"]]
    transitions = [("left", "right", rot), ("right", "left", rot_inv)]
    return make_bundle(plane_atlas(), 2, FieldTag.REAL, transitions)


def gallery_expressions() -> list:
    """Every distinct entry text of the gallery specs, sorted."""
    texts = []
    for name in list_gallery():
        doc = json.loads(gallery_path(name).read_text())
        texts += [t for o in doc["base"]["overlaps"] for t in o["tau"]]
        texts += [t for tr in doc.get("transitions", []) for row in tr["g"] for t in row]
        for entry in doc.get("sections", []) + doc.get("fields", []):
            texts += [t for comps in entry["components"].values() for t in comps]
        texts += [t for f in doc.get("frames", []) for col in f["columns"] for t in col]
    return sorted(set(texts))
