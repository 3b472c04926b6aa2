"""Packed trials: the check suites run consecutive small subjects of one
family (every edge, every chart triple) as one _Trial, cut a larger subject
into trials of at most the row budget, and run each distinct program once
per stage of a trial.

The oracle is the harness itself at a row budget of 1, where every sample
is a trial of its own: each report must be byte-equal to it at every
budget.
"""

import contextlib
import io
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from vbx import bundles, calculus, dets
from vbx.bundles import check_base_atlas, check_frame, check_section, check_vb
from vbx.calculus import SmoothMap, make_smooth_map
from vbx.cli import main
from vbx.constructions import (
    check_morphism,
    check_tensor_field,
    direct_product,
    dual_bundle,
    identity_morphism,
    make_morphism,
    subbundle_check,
    tensor_bundle,
    vb_pullback_rs,
)
from vbx.coords import FieldTag, make_box
from vbx.errors import InvalidDimension
from vbx.report import report_to_json
from vbx.spec import make_atlas, make_bundle, make_field
from vbx.specio import gallery_path, list_gallery, load_spec, save_spec

from support import circle_trivial_bundle

GOLDEN = Path(__file__).parent / "golden"
BUDGETS = (1, 7, bundles._PACK_ROWS)


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    """Every gallery spec, and the dense tensor (1,1), dual and product
    outputs as `vbx construct` writes them (loaded back, their entries
    interned). The dual's fiber dimension is 3: its transition_gl
    determinants are stacks of 3 x 3 matrices."""
    out = {name: gallery_path(name) for name in list_gallery()}
    dense = load_spec(GOLDEN / "dense.json").bundle
    work = tmp_path_factory.mktemp("dense")
    for name, B in (("tensor11", tensor_bundle(dense, 1, 1)), ("dual", dual_bundle(dense)),
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


@pytest.mark.parametrize("name, samples", [
    (name, samples) for name in sorted(list_gallery()) + ["tensor11", "product"]
    for samples in (1, 3, 50, 200)] + [("dual", samples) for samples in (1, 3, 50)])
def test_a_report_is_the_same_at_every_row_budget(specs, name, samples, tmp_path, monkeypatch):
    # Budget 1 runs one sample per trial, so it takes seconds at 200 samples,
    # and for the product output at 50 (its 50-sample failures meet budget 1
    # in the test below). There budget 7 cuts every subject, its last piece a
    # trial of its own, and 2,048 holds each subject whole.
    got = []
    slow = samples == 200 or (name, samples) == ("product", 50)
    for budget in BUDGETS[1:] if slow else BUDGETS:
        monkeypatch.setattr(bundles, "_PACK_ROWS", budget)
        got.append(check_bytes(specs[name], samples, tmp_path / f"{budget}.json"))
    assert all(g == got[0] for g in got[1:])


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
    # At 50 samples budgets 1 and 7 cut every subject, so a failure in a
    # later piece meets one in an earlier piece.
    for budget in BUDGETS:
        monkeypatch.setattr(bundles, "_PACK_ROWS", budget)
        got.append((check_bytes(path, samples, tmp_path / "out.json"),
                    report_to_json(check_base_atlas(B.base, samples, seed=7)),
                    report_to_json(check_vb(B, samples, seed=7))))
    assert all(g == got[0] for g in got[1:])
    (stdout, code, _), atlas, vb = got[0]
    assert code == 2 and '"passed": false' in atlas and '"passed": false' in vb
    if samples == 50:
        for note in ("escapes every declared west->east region", "evaluation failed",
                     "is in no declared west->east region"):
            assert note in stdout


def spy_det_forms(monkeypatch) -> list:
    """(form, stack length) of every determinant taken."""
    calls = []
    for form in ("_cofactor_scaled_abs_dets", "_lu_scaled_abs_dets"):
        fn = getattr(dets, form)
        monkeypatch.setattr(dets, form,
                            lambda m, form=form, fn=fn: calls.append((form, len(m))) or fn(m))
    return calls


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
    # projective_tangent, d = 2. At 50 samples the pack of its edges is one
    # stack of determinants, and d alone picks the closed form for it as
    # for each edge alone, so every record is its edge's alone.
    B = load_spec(gallery_path("projective_tangent")).bundle
    monkeypatch.setattr(bundles, "_PACK_ROWS", 1)
    alone = report_to_json(check_vb(B, 50, seed=7))
    monkeypatch.setattr(bundles, "_PACK_ROWS", 2048)
    forms, rows = spy_det_forms(monkeypatch), spy_trial_rows(monkeypatch)
    assert report_to_json(check_vb(B, 50, seed=7)) == alone
    assert {form for form, _ in forms} == {"_cofactor_scaled_abs_dets"}
    assert max(n for _, n in forms) == max(rows) > 50


def test_a_pulled_field_keeps_each_subjects_determinant_form(monkeypatch):
    # The fiber-map rule of a pulled field runs on the rows of every edge
    # whose chart it is, as one stack: d = 2 picks the closed form for it,
    # as for each edge's rows alone.
    B = circle_trivial_bundle(2)
    charts = ("east", "west")
    M = make_morphism(B, B, {c: c for c in charts}, {c: ["x1"] for c in charts},
                      {c: [["2 + sin(x1)", "x1/9"], ["0", "1"]] for c in charts},
                      inverse={c: (c, ["x1"]) for c in charts})
    A = vb_pullback_rs(M, make_field(B, 1, 1, {c: ["1", "x1", "0", "2"] for c in charts}))
    monkeypatch.setattr(bundles, "_PACK_ROWS", 1)
    alone = report_to_json(check_tensor_field(A, 100, seed=7))
    monkeypatch.setattr(bundles, "_PACK_ROWS", 2048)
    forms = spy_det_forms(monkeypatch)
    assert report_to_json(check_tensor_field(A, 100, seed=7)) == alone
    assert {form for form, _ in forms} == {"_cofactor_scaled_abs_dets"}
    assert max(n for _, n in forms) > 100


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


def test_each_lookup_masks_each_distinct_region_once(specs, monkeypatch):
    # Masked per subject, on its own rows, the regions of these two suites'
    # lookups took 448 region masks at 3 samples. Now each lookup masks
    # each distinct region of its options once, over all rows of the pack.
    L = load_spec(specs["product"]).bundle
    masked, lookups = [], []
    mask, lookup = bundles.region_mask, bundles._lookup
    monkeypatch.setattr(bundles, "region_mask",
                        lambda region, X: masked.append((id(region), len(X))) or mask(region, X))

    def spy(t, options, Y, why=None):
        start = len(masked)
        out = lookup(t, options, Y, why)
        calls = masked[start:]
        regions = {id(o.region) for opts in options for o in opts}
        assert len({r for r, _ in calls}) == len(calls) <= len(regions)
        assert all(rows == len(Y) for _, rows in calls)
        lookups.append(len(calls))
        return out

    monkeypatch.setattr(bundles, "_lookup", spy)
    check_base_atlas(L.base, 3, seed=7)
    check_vb(L, 3, seed=7)
    assert lookups and sum(lookups) == len(masked) < 448


def test_a_matrix_builds_its_entry_key_once_per_suite_call(specs, monkeypatch):
    # Every stage call used to rebuild the entry-id key of each option's
    # matrix to find its program: 281 builds for these two suites at 3
    # samples. Now a matrix finds its program by its own identity.
    L = load_spec(specs["product"]).bundle
    built = []
    entries = calculus._entries
    monkeypatch.setattr(calculus, "_entries", lambda exprs: built.append(id(exprs)) or entries(exprs))
    check_base_atlas(L.base, 3, seed=7)
    assert not built  # the atlas checks run maps only
    check_vb(L, 3, seed=7)
    assert sorted(built) == sorted({id(e.g) for e in L.edges})


def test_packs_keep_subject_order_within_the_row_budget(monkeypatch):
    # Subjects go whole while they fit; the 9- and 17-row ones are cut into
    # 8-row pieces, and the last piece packs with the subjects after it.
    monkeypatch.setattr(bundles, "_PACK_ROWS", 8)
    sizes = [3, 3, 2, 9, 1, 4, 17, 4]
    subjects = [(str(k), [(np.arange(n)[:, None], None)]) for k, n in enumerate(sizes)]
    packs = list(bundles._packs(iter(subjects)))
    assert [[(k, len(p)) for (k, _), p, _ in pack] for pack in packs] == [
        [(0, 3), (1, 3), (2, 2)], [(3, 8)], [(3, 1), (4, 1), (5, 4)], [(6, 8)], [(6, 8)],
        [(6, 1), (7, 4)]]
    pieces = [(k, p) for pack in packs for (k, _), p, _ in pack]
    for k, n in enumerate(sizes):
        np.testing.assert_array_equal(np.vstack([p for j, p in pieces if j == k])[:, 0],
                                      np.arange(n))


def glued_everywhere(charts):
    """A line bundle over charts on [0, 1], every ordered pair of them glued
    by a tau and g of their own."""
    pairs = [(i, j) for i in charts for j in charts if i != j]
    A = make_atlas(1, [(c, [(0, 1)]) for c in charts],
                   [(i, j, [[(0, 1)]], [f"x1 + {k}e-9"]) for k, (i, j) in enumerate(pairs)])
    return make_bundle(A, 1, FieldTag.REAL, [(i, j, [[f"1 + {k}e-9"]])
                                             for k, (i, j) in enumerate(pairs)])


def test_subjects_that_share_a_name_keep_their_own_records(monkeypatch):
    # The overlaps a->(b->c) and (a->b)->c are both named 'a->b->c#0', and
    # the triples (a, b->c, d) and (a->b, c, d) both 'a->b->c->d': each is
    # still one subject with its own records, as under names that differ.
    monkeypatch.setattr(bundles, "_PACK_ROWS", 7)
    clash = glued_everywhere(["a", "b->c", "a->b", "c", "d"])
    plain = glued_everywhere(["a", "bc", "ab", "c", "d"])
    for suite, of in ((check_base_atlas, lambda B: B.base), (check_vb, lambda B: B)):
        got, want = (suite(of(B), 20, seed=7) for B in (clash, plain))
        subjects = [r.subject for r in got.records]
        assert subjects.count("a->b->c#0") == 4 and subjects.count("a->b->c->d") == 2
        assert ([(r.check, r.samples, r.worst, r.passed, r.note) for r in got.records]
                == [(r.check, r.samples, r.worst, r.passed, r.note) for r in want.records])


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


def test_equal_boxes_in_one_pack_are_checked_once(tmp_path, monkeypatch):
    # Four overlaps whose taus ("x1") share one program; a tau's box is its
    # source chart's, so each stage's one run holds three distinct but
    # equal Box objects. Each stage checks the run's rows against one box.
    doc = {"base": {"dim": 1, "charts": [{"name": n, "box": [[0, 4]]} for n in "abc"],
                    "overlaps": [{"from": f, "to": t, "region": [[[1, 3]]], "tau": ["x1"]}
                                 for f, t in (("a", "b"), ("a", "c"), ("b", "a"), ("c", "a"))]}}
    (tmp_path / "equal_boxes.json").write_text(json.dumps(doc))
    A = load_spec(tmp_path / "equal_boxes.json").base
    assert len({id(o.tau.box) for o in A.overlaps}) == 3
    assert len({o.tau.box for o in A.overlaps}) == 1
    monkeypatch.setattr(bundles, "_PACK_ROWS", 1)
    alone = report_to_json(check_base_atlas(A, 10, seed=7))
    monkeypatch.setattr(bundles, "_PACK_ROWS", 2048)
    checked = []
    in_box = calculus._Trial.in_box
    monkeypatch.setattr(calculus._Trial, "in_box", lambda t, box, X, rows, where: (
        checked.append(len(rows)) or in_box(t, box, X, rows, where)))
    assert report_to_json(check_base_atlas(A, 10, seed=7)) == alone
    assert checked == [40, 40]  # the tau stage and its way back, over 4 x 10 rows


def test_no_trial_and_no_program_run_exceeds_the_row_budget(specs, tmp_path, monkeypatch):
    # At 200 samples and a budget of 128, every pair subject and every i->j
    # part of a triple is cut into pieces; the report is the one of a budget
    # above its largest subject.
    monkeypatch.setattr(bundles, "_PACK_ROWS", 10**6)
    whole = check_bytes(specs["product"], 200, tmp_path / "whole.json")
    monkeypatch.setattr(bundles, "_PACK_ROWS", 128)
    rows, runs = spy_trial_rows(monkeypatch), []
    run = calculus.run_program
    monkeypatch.setattr(calculus, "run_program",
                        lambda prog, X: runs.append(len(X)) or run(prog, X))
    assert check_bytes(specs["product"], 200, tmp_path / "cut.json") == whole
    assert max(rows) == max(runs) == 128


def dense_tensor_check_peak(B, samples) -> int:
    """tracemalloc's peak over check_vb of B at samples."""
    tracemalloc.start()
    try:
        check_vb(B, samples, seed=7)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_checks_memory_does_not_grow_with_its_sample_count(monkeypatch):
    # A subject above the budget ran as one trial, every slot of its
    # programs over all its rows: 8 times the samples took about 8 times
    # the memory. Cut into budget-row pieces, it takes what one trial does.
    monkeypatch.setattr(bundles, "_PACK_ROWS", 128)
    B = tensor_bundle(load_spec(GOLDEN / "dense.json").bundle, 1, 1)
    check_vb(B, 3, seed=7)
    once = dense_tensor_check_peak(B, 128)
    assert dense_tensor_check_peak(B, 8 * 128) <= 1.5 * once


SUITES = {
    "check_base_atlas": lambda doc, n: check_base_atlas(doc.base, n),
    "check_vb": lambda doc, n: check_vb(doc.bundle, n),
    "check_section": lambda doc, n: check_section(doc.sections["halfwave"], n),
    "check_tensor_field": lambda doc, n: check_tensor_field(doc.fields["halfdual"], n),
    "check_frame": lambda doc, n: check_frame(doc.frames["unit_east"], n),
    "check_morphism": lambda doc, n: check_morphism(identity_morphism(doc.bundle), n),
    "subbundle_check": lambda doc, n: subbundle_check(doc.bundle, {"east": [["1"]],
                                                                   "west": [["1"]]}, n),
}


@pytest.mark.parametrize("samples", [0, -1])
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_check_suite_refuses_fewer_than_one_sample(suite, samples):
    # Each subject is checked at the sample count, so fewer than one is an
    # input error, not a numpy error or a passing record of no samples.
    doc = load_spec(gallery_path("mobius"))
    assert SUITES[suite](doc, 1).records
    with pytest.raises(InvalidDimension, match=f"at least 1 sample, got {samples}$"):
        SUITES[suite](doc, samples)
