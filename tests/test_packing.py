"""Packed trials: the check suites run consecutive small subjects of one
family (every edge, every chart triple) as one _Trial, and each distinct
program once per stage of a pack.

The oracle is the harness itself at a row budget of 1, where every subject
is a pack of its own and no two options share a run: each report must be
byte-equal to it at every budget.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from vbx import bundles, calculus
from vbx.bundles import check_base_atlas, check_vb, make_field, make_morphism
from vbx.calculus import SmoothMap, make_smooth_map
from vbx.cli import main
from vbx.constructions import check_tensor_field, direct_product, tensor_bundle, vb_pullback_rs
from vbx.expr import Var
from vbx.geometry import make_box
from vbx.linalg import on_columns
from vbx.report import report_to_json
from vbx.specio import gallery_path, list_gallery, load_spec, save_spec

from support import circle_trivial_bundle

GOLDEN = Path(__file__).parent / "golden"
BUDGETS = (1, 7, bundles._PACK_ROWS)


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    """Every gallery spec, and the dense tensor (1,1) and product outputs
    as `vbx construct` writes them (loaded back, their entries interned)."""
    out = {name: gallery_path(name) for name in list_gallery()}
    dense = load_spec(GOLDEN / "dense.json").bundle
    work = tmp_path_factory.mktemp("dense")
    for name, B in (("tensor11", tensor_bundle(dense, 1, 1)),
                    ("product", direct_product(
                        dense, load_spec(gallery_path("projective_tangent")).bundle))):
        save_spec(B, work / f"{name}.json")
        out[name] = work / f"{name}.json"
    return out


def check_bytes(path, samples, out) -> tuple:
    """stdout, exit code and --out bytes of `vbx check` at --seed 7."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["check", str(path), "--samples", str(samples), "--seed", "7",
                     "--out", str(out)])
    return buf.getvalue(), code, out.read_bytes()


@pytest.mark.parametrize("samples", [1, 3, 50, 200])
@pytest.mark.parametrize("name", sorted(list_gallery()) + ["tensor11", "product"])
def test_a_report_is_the_same_at_every_row_budget(specs, name, samples, tmp_path, monkeypatch):
    got = []
    for budget in BUDGETS:
        monkeypatch.setattr(bundles, "_PACK_ROWS", budget)
        got.append(check_bytes(specs[name], samples, tmp_path / f"{budget}.json"))
    assert got[1] == got[0]
    assert got[2] == got[0]


def broken_mobius(tmp_path) -> Path:
    """mobius with evaluation failures at some samples of later subjects: a
    tau image that escapes, transitions and a section off their domains."""
    doc = json.loads(gallery_path("mobius").read_text())
    doc["base"]["overlaps"][1]["tau"] = ["x1 + 7"]
    doc["transitions"][0]["g"] = [["sqrt(x1 - 1)"]]
    doc["transitions"][3]["g"] = [["log(x1 - 4)"]]
    doc["sections"].append({"name": "broken", "components": {"east": ["sqrt(x1)"],
                                                             "west": ["1"]}})
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("samples", [3, 50])
def test_failures_inside_a_pack_are_those_of_each_subject_alone(samples, tmp_path, monkeypatch):
    path = broken_mobius(tmp_path)
    partner = load_spec(gallery_path("projective_tangent")).bundle
    B = direct_product(load_spec(path).bundle, partner)
    got = []
    for budget in BUDGETS:
        monkeypatch.setattr(bundles, "_PACK_ROWS", budget)
        got.append((check_bytes(path, samples, tmp_path / "out.json"),
                    report_to_json(check_base_atlas(B.base, samples, seed=7)),
                    report_to_json(check_vb(B, samples, seed=7))))
    assert got[1] == got[0]
    assert got[2] == got[0]
    (stdout, code, _), atlas, vb = got[0]
    assert code == 2 and '"passed": false' in atlas and '"passed": false' in vb
    if samples == 50:
        for note in ("escapes every declared west->east region", "evaluation failed",
                     "is in no declared west->east region"):
            assert note in stdout


def spy_det_lengths(monkeypatch) -> list:
    """The stack length of every scaled_abs_dets call of the suites."""
    lengths = []
    det = bundles.scaled_abs_dets
    monkeypatch.setattr(bundles, "scaled_abs_dets", lambda m: lengths.append(len(m)) or det(m))
    return lengths


def spy_trial_rows(monkeypatch) -> list:
    """The row count of every trial."""
    rows = []
    init = calculus._Trial.__init__

    def spy(self, pts, progs, *args):
        rows.append(len(pts))
        init(self, pts, progs, *args)

    monkeypatch.setattr(calculus._Trial, "__init__", spy)
    return rows


def test_a_pack_past_the_determinant_threshold_keeps_each_subjects_form(monkeypatch):
    # projective_tangent, d = 2: the determinant form changes at 128 rows.
    # At 50 samples no edge reaches it, but their pack does.
    B = load_spec(gallery_path("projective_tangent")).bundle
    monkeypatch.setattr(bundles, "_PACK_ROWS", 1)
    alone = report_to_json(check_vb(B, 50, seed=7))
    monkeypatch.setattr(bundles, "_PACK_ROWS", 2048)
    lengths, rows = spy_det_lengths(monkeypatch), spy_trial_rows(monkeypatch)
    assert report_to_json(check_vb(B, 50, seed=7)) == alone
    assert not on_columns(max(lengths), 4)
    assert on_columns(max(rows), 4)


def test_a_pulled_field_keeps_each_subjects_determinant_form(monkeypatch):
    # The fiber-map rule of a pulled field runs on the rows of every edge
    # whose chart it is; at 100 samples a chart's rows pass 128 and no
    # edge's do.
    B = circle_trivial_bundle(2)
    charts = ("east", "west")
    M = make_morphism(B, B, {c: c for c in charts}, {c: ["x1"] for c in charts},
                      {c: [["2 + sin(x1)", "x1/9"], ["0", "1"]] for c in charts},
                      inverse={c: (c, ["x1"]) for c in charts})
    A = vb_pullback_rs(M, make_field(B, 1, 1, {c: ["1", "x1", "0", "2"] for c in charts}))
    monkeypatch.setattr(bundles, "_PACK_ROWS", 1)
    alone = report_to_json(check_tensor_field(A, 100, seed=7))
    monkeypatch.setattr(bundles, "_PACK_ROWS", 2048)
    lengths = spy_det_lengths(monkeypatch)
    assert report_to_json(check_tensor_field(A, 100, seed=7)) == alone
    assert lengths and max(lengths) == 100


def test_one_run_per_program_in_each_stage_of_a_pack(specs, monkeypatch):
    # Before packing, check_base_atlas + check_vb of the product output at
    # 3 samples ran 672 programs: one per choice and row group of each of
    # 112 subjects. Now every stage of a pack runs each of its programs once.
    L = load_spec(specs["product"]).bundle
    runs, stages = [], []
    run = calculus.run_program
    monkeypatch.setattr(calculus, "run_program",
                        lambda prog, X: runs.append(prog) or run(prog, X))
    chosen = calculus._Trial.chosen

    def spy(self, *args, **kwargs):
        start = len(runs)
        out = chosen(self, *args, **kwargs)
        stages.append(runs[start:])
        return out

    monkeypatch.setattr(calculus._Trial, "chosen", spy)
    check_base_atlas(L.base, 3, seed=7)
    check_vb(L, 3, seed=7)
    assert len(runs) == 73
    for stage in stages:
        assert len({id(p) for p in stage}) == len(stage)


def test_packs_keep_subject_order_within_the_row_budget(monkeypatch):
    monkeypatch.setattr(bundles, "_PACK_ROWS", 8)
    subjects = [(k, np.zeros((n, 1)), None) for k, n in enumerate([3, 3, 2, 9, 1, 4, 4])]
    packs = [[s[0] for s in pack] for pack in bundles._packs(iter(subjects))]
    assert packs == [[0, 1, 2], [3], [4, 5], [6]]


def test_maps_sharing_a_program_keep_their_own_boxes(monkeypatch):
    F = make_smooth_map(["x1"], [(0, 2)])
    G = SmoothMap(F.components, make_box([(0, 1)]))
    runs = []
    run = calculus.run_program
    monkeypatch.setattr(calculus, "run_program",
                        lambda prog, X: runs.append(len(X)) or run(prog, X))
    t = calculus._Trial(np.array([[0.5], [1.5], [0.5], [1.5], [1.5]]), {})
    Y = t.maps(np.array([0, 0, 1, 1, -1]), [F, G], t.pts)
    assert runs == [4]
    assert t.live.tolist() == [True, True, True, False, True]
    assert str(t.why(3)) == "point [1.5] outside the open domain box"
    np.testing.assert_array_equal(Y[:4, 0], t.pts[:4, 0])
    assert np.isnan(Y[4, 0])


def test_a_shared_program_runs_over_at_most_the_row_budget(monkeypatch):
    # Options that share a program run together while their rows fit the
    # budget, so a subject larger than the budget never runs a program over
    # more rows than it did one option at a time.
    g = ((Var(1),),)
    runs = []
    run = calculus.run_program
    monkeypatch.setattr(calculus, "run_program",
                        lambda prog, X: runs.append(len(X)) or run(prog, X))
    X = np.arange(6.0)[:, None]
    for run_rows, want in ((None, [6]), (6, [6]), (5, [3, 3])):
        runs.clear()
        t = calculus._Trial(X, {}, run_rows=run_rows)
        G = t.matrices(np.array([0, 0, 0, 1, 1, 1]), [g, g], X, float)
        assert runs == want
        np.testing.assert_array_equal(G[:, 0, 0], X[:, 0])
