"""Command-line behavior: exit codes, report text, construct/eval flows."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from support import quarter_circle_atlas

from vbx.cli import main
from vbx.specio import base_to_dict, gallery_path, load_spec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gp(name):
    return str(gallery_path(name))


def cold_command(*argv) -> dict:
    """subprocess arguments for `python -m vbx.cli` in a fresh interpreter,
    so stdout and stderr are real ones. The child writes no bytecode cache
    into the source tree."""
    import vbx

    src = str(Path(vbx.__file__).resolve().parent.parent)
    return {"args": [sys.executable, "-m", "vbx.cli", *argv],
            "env": {"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}}


def run_cold(*argv):
    proc = subprocess.run(**cold_command(*argv), capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


# --------------------------------------------------------------------------
# check


def test_check_passes_on_gallery_bundle(capsys):
    code, out, err = run(capsys, "check", gp("mobius"), "--samples", "80")
    assert code == 0
    assert "suite: check" in out
    assert "result: PASS" in out
    assert "pair_cocycle" in out
    assert "tau_inverse" in out
    assert "section 'halfwave'" in out
    assert "FAIL" not in out


def test_check_fails_on_tampered_transitions(capsys):
    code, out, err = run(capsys, "check", gp("mobius_tampered"), "--samples", "80")
    assert code == 2
    assert "result: FAIL" in out
    assert "FAIL" in out


def test_check_fails_on_incompatible_section(capsys):
    code, out, err = run(capsys, "check", gp("mobius_bad_section"), "--samples", "80")
    assert code == 2
    assert "section 'one'" in out
    assert "result: FAIL" in out


def test_check_accepts_atlas_only_files(capsys):
    code, out, err = run(capsys, "check", gp("circle_base"), "--samples", "80")
    assert code == 0
    assert "result: PASS" in out


def test_check_missing_file(capsys):
    code, out, err = run(capsys, "check", "definitely_not_here.json")
    assert code == 1
    assert "error" in err


def test_power_overflow_in_a_section_is_a_fail_record_not_a_traceback(tmp_path):
    doc = json.loads(gallery_path("mobius").read_text())
    doc["sections"].append({"name": "blowup", "components": {
        "east": ["exp(x1*200)^3"], "west": ["exp(x1*200)^3"]}})
    spec = tmp_path / "blowup.json"
    spec.write_text(json.dumps(doc))
    code, out, err = run_cold("check", str(spec), "--samples", "40")
    assert code == 2
    assert "Traceback" not in err
    assert "power overflow" in out
    assert "result: FAIL" in out


def test_frame_entry_that_fails_to_evaluate_is_a_fail_record_not_an_abort(tmp_path):
    doc = json.loads(gallery_path("mobius").read_text())
    doc["frames"].append({"name": "bad", "chart": "east", "columns": [["log(x1)"]]})
    spec = tmp_path / "badframe.json"
    spec.write_text(json.dumps(doc))
    report = tmp_path / "r.json"
    code, out, err = run_cold("check", str(spec), "--samples", "40", "--out", str(report))
    assert code == 2
    assert "Traceback" not in err
    records = json.loads(report.read_text())["records"]
    bad = [r for r in records if r["subject"] == "frame 'bad' east"]
    assert len(bad) == 1
    assert bad[0]["check"] == "frame_gl" and not bad[0]["passed"]
    assert bad[0]["note"].startswith("evaluation failed at [")
    assert "log of non-positive value" in bad[0]["note"]
    assert all(r["passed"] for r in records if r is not bad[0])


def test_failed_frame_record_reads_as_a_failed_min_scaled_det(capsys, tmp_path):
    doc = json.loads(gallery_path("mobius").read_text())
    doc["frames"].append({"name": "bad", "chart": "east", "columns": [["log(x1)"]]})
    spec = tmp_path / "badframe.json"
    spec.write_text(json.dumps(doc))
    report = tmp_path / "r.json"
    code, out, err = run(capsys, "check", str(spec), "--samples", "40", "--out", str(report))
    assert code == 2
    bad = [r for r in json.loads(report.read_text())["records"]
           if r["subject"] == "frame 'bad' east"]
    assert [(r["check"], r["kind"], r["worst"], r["passed"]) for r in bad] == \
        [("frame_gl", "min_scaled_det", float("inf"), False)]
    line = next(ln for ln in out.splitlines() if "frame 'bad'" in ln)
    assert "FAIL" in line and "min scaled |det| inf (tol 1.0e-10)" in line
    assert "max residual" not in line


def _deep_spec(tmp_path, entry: str, name: str) -> str:
    doc = json.loads(gallery_path("mobius").read_text())
    doc["sections"].append({"name": "deep", "components": {"east": [entry], "west": ["1"]}})
    spec = tmp_path / f"{name}.json"
    spec.write_text(json.dumps(doc))
    return str(spec)


@pytest.mark.parametrize("entry", ["(" * 1500 + "x1" + ")" * 1500,
                                   "sin(" * 1500 + "x1" + ")" * 1500], ids=["parens", "sins"])
def test_deeply_nested_entries_end_in_an_exit_code_not_a_traceback(tmp_path, entry):
    spec = _deep_spec(tmp_path, entry, "deep")
    code, out, err = run_cold("check", spec, "--samples", "20")
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert "section 'deep'" in out
    code, out, err = run_cold("eval", spec, "--target", "deep", "--chart", "east",
                              "--point", "0.5")
    assert code == 0
    assert "Traceback" not in err
    assert out.splitlines()[-1].startswith("value ")


def test_deeply_nested_syntax_error_names_its_entry(tmp_path):
    spec = _deep_spec(tmp_path, "sin(" * 1500 + "x1" + ")" * 1499, "broken")
    for argv in (["check", spec], ["eval", spec, "--target", "deep", "--chart", "east",
                                   "--point", "0.5"]):
        code, out, err = run_cold(*argv)
        assert code == 1
        assert "Traceback" not in err
        assert "/sections/2/components/east/0: expected ')', found end of input" in err


def _deep_tau_spec(tmp_path) -> str:
    """mobius with first tau x1 + 0*sin(sin(...x1...)), 1,500 deep."""
    doc = json.loads(gallery_path("mobius").read_text())
    tau = doc["base"]["overlaps"][0]["tau"]
    tau[0] += " + 0*" + "sin(" * 1500 + "x1" + ")" * 1500
    spec = tmp_path / "deep_tau.json"
    spec.write_text(json.dumps(doc))
    return str(spec)


def test_constructions_on_a_deeply_nested_tau_end_in_an_exit_code_not_a_traceback(tmp_path):
    spec = _deep_tau_spec(tmp_path)
    code, out, err = run_cold("construct", "sum", spec, spec, "-o", str(tmp_path / "sum.json"))
    assert (code, err) == (0, "")
    regions = tmp_path / "regions.json"
    regions.write_text(json.dumps({"regions": {"east": [[-3.0, 3.0]], "west": [[0.5, 6.0]]}}))
    code, out, err = run_cold("construct", "restrict", spec, str(regions),
                              "-o", str(tmp_path / "restricted.json"))
    assert (code, err) == (0, "")
    assert run_cold("check", str(tmp_path / "restricted.json"), "--samples", "20")[0] == 0


@pytest.mark.parametrize("tau", ["x1 + 0*exp(x1*1000)",
                                 "x1 + 0*sin(x1*1e200*1e200 - x1*1e200*1e200)"],
                         ids=["exp", "sin_of_nan"])
def test_restrict_with_an_overflowing_tau_enclosure_is_not_a_traceback(tmp_path, tau):
    doc = json.loads(gallery_path("mobius").read_text())
    doc["base"]["overlaps"][0]["tau"] = [tau]
    spec = tmp_path / "overflow_tau.json"
    spec.write_text(json.dumps(doc))
    regions = tmp_path / "regions.json"
    regions.write_text(json.dumps({"regions": {"east": [[-3.0, 3.0]], "west": [[0.1, 6.2]]}}))
    code, out, err = run_cold("construct", "restrict", str(spec), str(regions),
                              "-o", str(tmp_path / "restricted.json"))
    assert code in (0, 2)
    assert "Traceback" not in err


def test_unwritable_report_path_is_a_file_error_not_a_traceback(tmp_path):
    target = tmp_path / "missing_dir" / "r.json"
    code, out, err = run_cold("check", gp("mobius"), "--samples", "20", "--out", str(target))
    assert code == 1
    assert "Traceback" not in err
    assert "cannot write" in err


def test_nan_residual_fails_the_check(capsys, tmp_path):
    doc = json.loads(gallery_path("circle_tangent").read_text())
    doc["sections"].append({"name": "huge", "components": {
        "east": ["1e200*1e200*(2+x1)"], "west": ["1e200*1e200*(5+x1)"]}})
    spec = tmp_path / "huge.json"
    spec.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(spec), "--samples", "40")
    assert code == 2
    huge = [line for line in out.splitlines() if "section 'huge'" in line]
    assert len(huge) == 4
    assert all("FAIL" in line and "non-finite residual" in line for line in huge)


def test_check_usage_validation(capsys):
    assert run(capsys, "check", gp("mobius"), "--samples", "0")[0] == 1
    assert run(capsys, "check", gp("mobius"), "--tol", "0")[0] == 1
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys)[0] == 1


@pytest.mark.parametrize("tol", ["inf", "nan", "-0.5"])
def test_a_tolerance_must_be_positive_and_finite(tol):
    # An infinite tolerance would pass every residual and write a report
    # whose tol reads Infinity.
    code, out, err = run_cold("check", gp("mobius"), "--tol", tol)
    assert (code, out, err) == (1, "", "--tol must be a positive finite number\n")


@pytest.mark.parametrize("samples", ["1000000000000000000", "100000000000000000000"])
def test_a_huge_sample_count_is_a_usage_error_not_a_traceback(samples):
    # Refused before anything is allocated: without the cap numpy raises
    # MemoryError at 10^18 and "maximum allowed dimension exceeded" at 10^20.
    code, out, err = run_cold("check", gp("mobius"), "--samples", samples)
    assert code == 1
    assert err.count("\n") == 1 and "--samples" in err
    assert out == ""


def test_a_closed_stdout_is_exit_1_not_a_traceback(tmp_path):
    proc = subprocess.Popen(**cold_command("construct", "dual", gp("mobius"),
                                           "-o", str(tmp_path / "dual.json")),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()  # the child is still starting up: it has written nothing yet
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert err == "error: cannot write to standard output: it was closed\n"


def test_check_report_files_are_reproducible(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "check", gp("mobius"), "--samples", "60", "--out", str(a))[0] == 0
    assert run(capsys, "check", gp("mobius"), "--samples", "60", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert report["suite"] == "check"
    assert report["passed"] is True
    assert all("worst" in r for r in report["records"])


def test_reports_do_not_depend_on_the_blas_thread_count(capsys, tmp_path):
    spec = str(tmp_path / "t11.json")
    dense = str(Path(__file__).parent / "golden" / "dense.json")
    assert run(capsys, "construct", "tensor", "--r", "1", "--s", "1", dense, "-o", spec)[0] == 0
    seen = []
    for threads in ("1", "2"):
        out = tmp_path / f"report{threads}.json"
        command = cold_command("check", spec, "--samples", "200", "--out", str(out))
        command["env"]["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run(**command, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        seen.append((out.read_bytes(), proc.stdout))
    assert seen[0] == seen[1]


# --------------------------------------------------------------------------
# construct


def test_construct_tensor_then_check(capsys, tmp_path):
    out_file = tmp_path / "t11.json"
    code, out, err = run(capsys, "construct", "tensor", gp("mobius"),
                         "--r", "1", "--s", "1", "-o", str(out_file))
    assert code == 0
    assert f"wrote {out_file}" in out
    assert run(capsys, "check", str(out_file), "--samples", "80")[0] == 0


def test_construct_prints_the_size_of_what_it_wrote(capsys, tmp_path):
    golden = Path(__file__).parent / "golden"
    out_file = tmp_path / "t11.json"
    code, out, err = run(capsys, "construct", "tensor", str(golden / "dense.json"),
                         "--r", "1", "--s", "1", "-o", str(out_file))
    assert code == 0
    assert out.splitlines() == [
        f"wrote {out_file}",
        "fiber dim 9, 4 edges, 68952 tree nodes, 451 unique nodes, 274288 bytes"]
    assert out_file.stat().st_size == 274288


def test_construct_tensor_needs_valence_flags(capsys, tmp_path):
    code, out, err = run(capsys, "construct", "tensor", gp("mobius"),
                         "-o", str(tmp_path / "x.json"))
    assert code == 1
    assert "--r" in err


@pytest.mark.parametrize("kind,inputs", [
    ("dual", ["mobius"]),
    ("sum", ["mobius", "mobius"]),
    ("hom", ["mobius", "mobius"]),
    ("product", ["mobius", "trivial"]),
])
def test_construct_algebra_kinds(capsys, tmp_path, kind, inputs):
    out_file = tmp_path / f"{kind}.json"
    argv = ["construct", kind] + [gp(n) for n in inputs] + ["-o", str(out_file)]
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, "check", str(out_file), "--samples", "60")[0] == 0


def test_construct_product_of_a_product(capsys, tmp_path):
    inner = tmp_path / "inner.json"
    outer = tmp_path / "outer.json"
    assert run(capsys, "construct", "product", gp("mobius"), gp("trivial"),
               "-o", str(inner))[0] == 0
    code, out, err = run(capsys, "construct", "product", str(inner), gp("circle_tangent"),
                         "-o", str(outer))
    assert code == 0, err
    assert "(east|main)|east" in [c.name for c in load_spec(outer).bundle.base.charts]
    assert run(capsys, "check", str(outer), "--samples", "60")[0] == 0


def test_construct_input_count_usage(capsys, tmp_path):
    code, out, err = run(capsys, "construct", "sum", gp("mobius"),
                         "-o", str(tmp_path / "s.json"))
    assert code == 1
    assert "exactly 2" in err


def test_construct_rejects_atlas_only_input(capsys, tmp_path):
    code, out, err = run(capsys, "construct", "dual", gp("circle_base"),
                         "-o", str(tmp_path / "d.json"))
    assert code == 1
    assert "atlas-only" in err


def test_construct_restrict(capsys, tmp_path):
    regions = tmp_path / "regions.json"
    regions.write_text(json.dumps(
        {"regions": {"east": [[-3.0, 3.0]], "west": [[0.5, 6.0]]}}))
    out_file = tmp_path / "restricted.json"
    code, out, err = run(capsys, "construct", "restrict", gp("mobius"),
                         str(regions), "-o", str(out_file))
    assert code == 0
    assert run(capsys, "check", str(out_file), "--samples", "80")[0] == 0
    doc = load_spec(out_file)
    assert doc.bundle.base.chart("west").box.lo == (0.5,)


def test_construct_restrict_validates_keys(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"regions": {}, "extra": 1}))
    code, out, err = run(capsys, "construct", "restrict", gp("mobius"),
                         str(bad), "-o", str(tmp_path / "r.json"))
    assert code == 1
    assert "regions" in err


def test_construct_induced_double_cover(capsys, tmp_path):
    pull = tmp_path / "pull.json"
    assignment = {"c0": "east", "c1": "west", "c2": "east", "c3": "west"}
    maps = {"c0": ["2*x1"], "c1": ["2*x1"],
            "c2": ["2*x1 - 2*pi"], "c3": ["2*x1 - 2*pi"]}
    pull.write_text(json.dumps({"base": base_to_dict(quarter_circle_atlas()),
                                "assignment": assignment, "map": maps}))
    out_file = tmp_path / "induced.json"
    code, out, err = run(capsys, "construct", "induced", gp("mobius"),
                         str(pull), "-o", str(out_file))
    assert code == 0
    assert run(capsys, "check", str(out_file), "--samples", "80")[0] == 0


def test_construct_induced_validates_keys(capsys, tmp_path):
    pull = tmp_path / "pull.json"
    pull.write_text(json.dumps({"assignment": {}, "map": {}}))
    code, out, err = run(capsys, "construct", "induced", gp("mobius"),
                         str(pull), "-o", str(tmp_path / "i.json"))
    assert code == 1
    assert "base" in err


def test_construct_induced_rejects_escaping_map(capsys, tmp_path):
    pull = tmp_path / "pull.json"
    assignment = {"c0": "east", "c1": "west", "c2": "east", "c3": "west"}
    maps = {"c0": ["2*x1 + 3"], "c1": ["2*x1"],
            "c2": ["2*x1 - 2*pi"], "c3": ["2*x1 - 2*pi"]}
    pull.write_text(json.dumps({"base": base_to_dict(quarter_circle_atlas()),
                                "assignment": assignment, "map": maps}))
    code, out, err = run(capsys, "construct", "induced", gp("mobius"),
                         str(pull), "-o", str(tmp_path / "i.json"))
    assert code == 2
    assert "verification failure" in err


def test_construct_tangent_from_atlas(capsys, tmp_path):
    out_file = tmp_path / "tangent.json"
    code, out, err = run(capsys, "construct", "tangent", gp("projective_base"),
                         "-o", str(out_file))
    assert code == 0
    assert run(capsys, "check", str(out_file), "--samples", "80")[0] == 0


# --------------------------------------------------------------------------
# eval


def test_eval_section(capsys):
    code, out, err = run(capsys, "eval", gp("trivial"), "--target", "wave",
                         "--chart", "main", "--point", "0.25,0.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "chart main"
    assert lines[1].startswith("point 0.25 0.5")
    import math
    want = f"value {math.cos(0.25):.17g} {math.sin(0.5):.17g}"
    assert lines[2] == want


def test_eval_field(capsys):
    code, out, err = run(capsys, "eval", gp("trivial"), "--target", "gmetric",
                         "--chart", "main", "--point", "0,0")
    assert code == 0
    assert out.strip().splitlines()[2] == "value 1 0 0 1"


def test_eval_unknown_target(capsys):
    code, out, err = run(capsys, "eval", gp("trivial"), "--target", "nope",
                         "--chart", "main", "--point", "0,0")
    assert code == 1
    assert "nope" in err


def test_eval_refuses_a_name_that_is_both_a_section_and_a_field(capsys, tmp_path):
    # Neither entry may shadow the other: check checks both, eval names both.
    doc = json.loads(gallery_path("mobius").read_text())
    doc["fields"][0]["name"] = "halfwave"
    path = tmp_path / "both.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "eval", str(path), "--target", "halfwave",
                         "--chart", "east", "--point", "0.5")
    assert (code, out) == (1, "")
    assert err == f"'halfwave' names both a section and a field in '{path}'\n"
    code, out, err = run(capsys, "check", str(path), "--samples", "20")
    assert code == 0 and "section 'halfwave'" in out and "field 'halfwave'" in out


def test_eval_unparseable_point(capsys):
    code, out, err = run(capsys, "eval", gp("trivial"), "--target", "wave",
                         "--chart", "main", "--point", "a,b")
    assert code == 1


def test_eval_point_outside_chart(capsys):
    code, out, err = run(capsys, "eval", gp("trivial"), "--target", "wave",
                         "--chart", "main", "--point", "9,9")
    assert code == 2
    assert "verification failure" in err


def test_eval_point_of_the_wrong_dimension_is_a_shape_mismatch():
    code, out, err = run_cold("eval", gp("mobius"), "--target", "halfwave",
                              "--chart", "east", "--point=0.1,0.2")
    assert code == 1
    assert err == "error: point shape (2,) does not match base dim 1\n"


def test_eval_of_an_overflowing_entry_is_an_eval_error(tmp_path):
    doc = json.loads(gallery_path("mobius").read_text())
    doc["sections"].append({"name": "huge", "components": {
        "east": ["x1*1e308*10"], "west": ["x1*1e308*10"]}})
    spec = tmp_path / "huge.json"
    spec.write_text(json.dumps(doc))
    code, out, err = run_cold("eval", str(spec), "--target", "huge", "--chart", "east",
                              "--point", "1.0")
    assert code == 1
    assert out == ""
    assert err == "error: field value not finite at [1.0]\n"  # no Traceback, no RuntimeWarning


def test_eval_unknown_chart_is_a_usage_problem(capsys):
    # A chart the base does not declare is a problem with the command, like
    # a wrong point shape: exit 1, not a verification failure.
    code, out, err = run(capsys, "eval", gp("mobius"), "--target", "halfwave",
                         "--chart", "north", "--point", "0.5")
    assert code == 1
    assert err.startswith("error: ") and "unknown chart 'north'" in err


def test_eval_full_precision_output(capsys):
    code, out, err = run(capsys, "eval", gp("mobius"), "--target", "halfwave",
                         "--chart", "east", "--point", "0.5")
    assert code == 0
    import math
    assert out.strip().splitlines()[2] == f"value {math.cos(0.25):.17g}"


# --------------------------------------------------------------------------
# Constant folds past the float range: no traceback, however a cell is written.

FOLD_COMMANDS = (("dual",), ("tensor", "--r", "2", "--s", "0"), ("product",))


def mobius_with_cell(path: Path, cell: str, k: int = 0) -> str:
    doc = json.loads(gallery_path("mobius").read_text())
    doc["transitions"][k]["g"][0][0] = cell
    path.write_text(json.dumps(doc))
    return str(path)


def quiet_main(*argv) -> tuple:
    """main's exit code and stderr, stdout discarded, in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def construct_and_check(spec: str, out_dir: Path) -> list:
    """(exit code, stderr) of each construct of FOLD_COMMANDS on spec, and
    of the check of each file it wrote."""
    runs = []
    for kind, *flags in FOLD_COMMANDS:
        out = str(out_dir / f"{kind}.json")
        inputs = [spec, spec] if kind == "product" else [spec]
        runs.append(quiet_main("construct", kind, *flags, *inputs, "-o", out))
        if runs[-1][0] == 0:
            runs.append(quiet_main("check", out, "--samples", "20"))
    return runs


@pytest.mark.parametrize("cell", ["1e-320", "(1e200)^2 / (1e200)^2"])
def test_constant_folds_past_the_float_range_keep_their_node(tmp_path, cell):
    spec = mobius_with_cell(tmp_path / "in.json", cell)
    assert quiet_main("check", spec, "--samples", "20")[0] == 2
    runs = construct_and_check(spec, tmp_path)
    # each construct writes its output, and the output fails its check as the input does
    assert [code for code, _ in runs] == [0, 2] * len(FOLD_COMMANDS)
    assert all("Traceback" not in err for _, err in runs)


_LITERALS = st.one_of(
    st.sampled_from(["5e-324", "1e-320", "2.2e-308", "1e308", "-1e308",
                     "1.7976931348623157e308", "0", "1", "-1"]),
    st.builds("(1e{})^{}".format, st.integers(-330, 330), st.integers(-3, 3)))
_CELLS = st.one_of(_LITERALS, st.builds("{} / {}".format, _LITERALS, _LITERALS),
                   st.builds("({}) * ({})".format, _LITERALS, _LITERALS))


@seed(20261018)
@settings(max_examples=50, deadline=None)
@given(_CELLS, st.integers(0, 3))
def test_extreme_transition_literals_end_in_an_exit_code(cell, k):
    with tempfile.TemporaryDirectory() as tmp:
        spec = mobius_with_cell(Path(tmp) / "in.json", cell, k)
        for code, err in construct_and_check(spec, Path(tmp)):
            assert code in (0, 1, 2), (cell, code, err)
            assert "Traceback" not in err, (cell, err)


def mobius_with_tau(path: Path, tau: str) -> str:
    doc = json.loads(gallery_path("mobius").read_text())
    doc["base"]["overlaps"][0]["tau"] = [tau]
    path.write_text(json.dumps(doc))
    return str(path)


@seed(20261019)
@settings(max_examples=40, deadline=None)
@given(_LITERALS, st.sampled_from(["sin", "cos", "tan", "exp", "log", "sqrt"]))
def test_restrict_of_an_overflowing_tau_ends_in_an_exit_code(literal, fn):
    tau = f"x1 + 0*{fn}(x1*{literal}*{literal} - x1*{literal}*{literal})"
    with tempfile.TemporaryDirectory() as tmp:
        spec = mobius_with_tau(Path(tmp) / "in.json", tau)
        regions = Path(tmp) / "regions.json"
        regions.write_text(json.dumps({"regions": {"east": [[-3, 3]], "west": [[0.1, 6]]}}))
        out = str(Path(tmp) / "restricted.json")
        runs = [quiet_main("construct", "restrict", spec, str(regions), "-o", out)]
        if runs[0][0] == 0:
            runs.append(quiet_main("check", out, "--samples", "20"))
        for code, err in runs:
            assert code in (0, 1, 2), (tau, code, err)
            assert "Traceback" not in err, (tau, err)


# --------------------------------------------------------------------------
# Bounded fibers, and the fuzz gates: every input ends in exit 0, 1 or 2.


def trivial_with(tmp_path: Path, edit) -> str:
    doc = json.loads(gallery_path("trivial").read_text())
    edit(doc)
    spec = tmp_path / f"{edit.__name__}.json"
    spec.write_text(json.dumps(doc))
    return str(spec)


def _huge_fiber(doc):
    doc["fiber"]["dim"] = 2**40
    for key in ("sections", "frames", "fields"):
        del doc[key]


def _huge_valence(doc):
    doc["fields"][1]["r"] = 10**6


@pytest.mark.parametrize("argv,message", [
    (("construct", "tensor", "--r", "100", "--s", "0", "SPEC", "-o", "OUT"),
     "error: tensor valence (100,0) is above the bound r + s <= 10\n"),
    (("check", "HUGE_FIBER"),
     "error: /fiber/dim: fiber dimension 1099511627776 is above the bound 1024\n"),
    (("check", "HUGE_VALENCE"),
     "error: /fields/1: field valence (1000000,1) is above the bound r + s <= 10\n"),
], ids=["tensor_flags", "fiber_dim", "field_valence"])
def test_fibers_past_the_bound_are_refused_before_they_are_built(tmp_path, argv, message):
    files = {"SPEC": gp("trivial"), "OUT": str(tmp_path / "out.json"),
             "HUGE_FIBER": trivial_with(tmp_path, _huge_fiber),
             "HUGE_VALENCE": trivial_with(tmp_path, _huge_valence)}
    assert quiet_main(*(files.get(a, a) for a in argv)) == (1, message)
    assert not (tmp_path / "out.json").exists()


def _address_space_limit(nbytes: int):
    """A preexec_fn that caps the child's address space at nbytes; the
    limit acts on that child only."""
    import resource

    return lambda: resource.setrlimit(resource.RLIMIT_AS, (nbytes, nbytes))


def test_running_out_of_memory_is_exit_1_not_a_traceback():
    # 10^8 points of two coordinates are 1.5 GiB: under the --samples bound,
    # over what a process held to 1.5 GiB of address space can allocate.
    kwargs = cold_command("check", gp("trivial"), "--samples", "100000000")
    kwargs["env"]["OPENBLAS_NUM_THREADS"] = "1"  # no BLAS thread buffers out of the limit
    proc = subprocess.run(**kwargs, capture_output=True, text=True, timeout=120,
                          preexec_fn=_address_space_limit(3 << 29))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: out of memory at 100000000 samples; lower --samples\n"
    assert "Traceback" not in proc.stderr


def guarded_main(*argv) -> tuple:
    """quiet_main's exit code and stderr, once the run is shown to end in
    0, 1 or 2 with no exception, traceback or warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = quiet_main(*argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert not caught, (argv, [str(w.message) for w in caught])
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    return code, err


def check_tangent_and_dual(spec: str, out_dir: Path) -> list:
    """(exit code, stderr) of check --samples 20, construct tangent and
    construct dual."""
    return [guarded_main("check", spec, "--samples", "20"),
            guarded_main("construct", "tangent", spec, "-o", str(out_dir / "tangent.json")),
            guarded_main("construct", "dual", spec, "-o", str(out_dir / "dual.json"))]


_BROKEN = [("tau_inverse", "east->west#0"), ("tau_inverse", "west->east#0"),
           ("pair_cocycle", "east->west#0"),
           ("section_compat", "section 'halfwave' east->west#0"),
           ("section_compat", "section 'zero' east->west#0"),
           ("section_compat", "field 'halfdual' east->west#0")]
_AWAY = "tau image [102.60163076000404]"
_OUTSIDE = ("evaluation failed at [2.6016307600040474]: "
            "point [102.60163076000404] outside chart 'west'")


@pytest.mark.parametrize("tau,code,failed", [
    ("x1/0", 2, [(c, s, "evaluation failed at [2.6016307600040474]: division by zero")
                 for c, s in _BROKEN]),
    ("x1 + 0*log(0)", 2, [(c, s, "evaluation failed at [2.6016307600040474]: "
                                 "log of non-positive value 0.0") for c, s in _BROKEN]),
    ("sqrt(x1)*sqrt(x1) + 0*sqrt(x1 - x1)", 0, []),  # smooth: its partials are defined
    ("x1 + 100", 2, [(c, s, note) for (c, s), note in zip(_BROKEN, [
        f"{_AWAY} escapes every declared west->east region", "",
        f"{_AWAY} is in no declared west->east region", _OUTSIDE, _OUTSIDE, _OUTSIDE])]),
    ("x1 + 0.5", 2, [(c, s, "") for c, s in _BROKEN if "'zero'" not in s]),
], ids=["divide_by_zero", "log_of_zero", "sqrt_of_zero", "far_away", "half_shifted"])
def test_pinned_taus_keep_their_verdicts(tmp_path, tau, code, failed):
    spec = mobius_with_tau(tmp_path / "in.json", tau)
    report = tmp_path / "report.json"
    assert guarded_main("check", spec, "--samples", "20", "--out", str(report))[0] == code
    assert failed == [(r["check"], r["subject"], r["note"])
                      for r in json.loads(report.read_text())["records"] if not r["passed"]]


@pytest.mark.parametrize("tau", ["x1/0", "x1 + 100", "x1 + 0.5", "2*x1", "-x1"])
def test_constructs_that_invert_refuse_an_atlas_tangent_refuses(tmp_path, tau):
    # The inverse of a transition is the reverse edge's matrix at the image,
    # so each overlap needs one reverse component, as for the tangent bundle.
    spec = mobius_with_tau(tmp_path / "in.json", tau)
    out = str(tmp_path / "out.json")
    code, message = guarded_main("construct", "tangent", spec, "-o", out)
    assert code == 1 and message.startswith("error: ")
    for argv in (("dual", spec), ("tensor", "--r", "1", "--s", "0", spec), ("hom", spec, spec)):
        assert guarded_main("construct", *argv, "-o", out) == (1, message)
    assert not Path(out).exists()


_FUNCS = ["sin", "cos", "tan", "exp", "log", "sqrt"]
_TAUS = st.recursive(
    st.sampled_from(["x1", "x1", "0", "5e-324", "1e308", "(1e200)^2", "2", "0.5", "pi"]),
    lambda inner: st.one_of(
        st.builds("({}) {} ({})".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("{}({})".format, st.sampled_from(_FUNCS), inner),
        st.builds("({})^{}".format, inner, st.integers(-2, 3)),
        st.builds("-({})".format, inner)),
    max_leaves=6)


@seed(20261020)
@settings(max_examples=60, deadline=None)
@given(_TAUS)
def test_any_tau_from_the_grammar_ends_in_an_exit_code(tau):
    with tempfile.TemporaryDirectory() as tmp:
        check_tangent_and_dual(mobius_with_tau(Path(tmp) / "in.json", tau), Path(tmp))


def _nodes(doc, path=()):
    """The path of every node under doc, its root excepted."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _nodes(value, path + (key,))


def _mutate(doc, path, how, pick):
    """Drop, duplicate, retype or rescale the node at path; pick(options)
    chooses among the ways to. A dict member is duplicated over a sibling."""
    *up, key = path
    parent = doc
    for k in up:
        parent = parent[k]
    node = parent[key]
    copy = json.loads(json.dumps(node))
    if how == "drop":
        del parent[key]
    elif how == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy)
    elif how == "duplicate":
        parent[pick(sorted(parent))] = copy
    elif how == "rescale" and isinstance(node, (int, float)) and not isinstance(node, bool):
        factor = pick([0, -1, 2, 1000, 2**40, 0.5, 1e308])
        parent[key] = node * factor
    elif how == "rescale" and isinstance(node, str):
        parent[key] = f"({node})*{pick(['0', '-1', '1e308', '5e-324', '(1e200)^2'])}"
    elif how == "rescale" and isinstance(node, list):
        parent[key] = node * pick([0, 2, 3])
    else:
        parent[key] = pick([None, True, 0, 1.5, "x1", "", [], {}, [[0, 1]], {"x": 1}])


@seed(20261021)
@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(p.stem for p in gallery_path("mobius").parent.glob("*.json"))),
       st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(
           ["drop", "duplicate", "retype", "rescale"])), min_size=1, max_size=3),
       st.sampled_from([("tensor", "--r", "1", "--s", "1"), ("tensor", "--r", "0", "--s", "2")]),
       st.data())
def test_any_mutated_gallery_spec_ends_in_an_exit_code(name, mutations, construct, data):
    doc = json.loads(gallery_path(name).read_text())
    for at, how in mutations:
        paths = list(_nodes(doc))
        if paths:
            _mutate(doc, paths[at % len(paths)], how, lambda options: data.draw(
                st.sampled_from(options)))
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "in.json"
        spec.write_text(json.dumps(doc))
        check_tangent_and_dual(str(spec), Path(tmp))
        guarded_main("construct", *construct, str(spec), "-o", str(Path(tmp) / "out.json"))


# Flag vectors: odd values for every flag of check, construct and eval.

_ODD = ["0", "-1", "nan", "inf", "1e-320", "1e308", "", "abc", "10^21", "0x10", "2"]


@st.composite
def flag_vectors(draw, tmp: Path):
    """An argv for check, construct or eval with flags drawn from _ODD, an
    unwritable --out, unknown construct kinds, charts and targets."""
    def pick(options):
        return draw(st.sampled_from(options))

    def flags(names):  # each flag given three times in four
        return [a for f in names if draw(st.integers(0, 3)) for a in (f, pick(_ODD))]

    spec = pick([gp("mobius"), gp("trivial"), gp("circle_tangent"), gp("circle_base"), "abc"])
    out = pick([str(tmp / "out.json"), str(tmp / "missing" / "out.json"), str(tmp), ""])
    command = pick(["check", "construct", "eval"])
    if command == "check":
        return (["check", spec, *flags(["--samples", "--tol", "--seed"])]
                + (["--out", out] if draw(st.booleans()) else []))
    if command == "construct":
        return ["construct", pick(["tensor", "dual", "tangent", "sum", "abc", ""]),
                *[spec] * draw(st.integers(1, 2)), "-o", out, *flags(["--r", "--s"])]
    point = ",".join(draw(st.lists(st.sampled_from(_ODD), min_size=1, max_size=2)))
    return ["eval", spec, "--target", pick(["halfwave", "wave", "dtheta", "gmetric"] + _ODD),
            "--chart", pick(["east", "west", "main"] + _ODD), "--point", point]


def strict_main(*argv) -> tuple:
    """quiet_main's exit code and stderr, with warnings turned into errors;
    the run must end in 0, 1 or 2 with no traceback."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = quiet_main(*argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    return code, err


@seed(20261023)
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_any_flag_vector_ends_in_an_exit_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        strict_main(*data.draw(flag_vectors(Path(tmp))))


@pytest.mark.parametrize("argv", [
    ("check", "MOBIUS", "--samples", "10^21", "--tol", "nan"),
    ("construct", "tensor", "--r", "0x10", "--s", "1", "MOBIUS", "-o", "MISSING"),
    ("eval", "MOBIUS", "--target", "halfwave", "--chart", "east", "--point", "1e308,inf"),
], ids=["check", "construct", "eval"])
def test_flag_vectors_end_in_an_exit_code_in_a_fresh_interpreter(tmp_path, argv):
    files = {"MOBIUS": gp("mobius"), "MISSING": str(tmp_path / "missing" / "out.json")}
    proc = subprocess.run(**cold_command(*(files.get(a, a) for a in argv)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode in (0, 1, 2), proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_spec_file_that_is_not_utf8_is_a_file_error(tmp_path):
    # JSON text is UTF-8 (RFC 8259, section 8.1), whatever the locale.
    spec = tmp_path / "latin1.json"
    spec.write_bytes(b'{"base": "\xff"}')
    code, out, err = run_cold("check", str(spec))
    assert (code, out) == (1, "")
    assert err == (f"error: '{spec}' is not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
                   "in position 10: invalid start byte\n")


def test_a_chart_named_in_any_script_gives_the_same_bytes_in_every_locale(tmp_path):
    doc = json.loads(Path(gp("mobius")).read_text(encoding="utf-8"))
    spec = tmp_path / "omega.json"
    text = json.dumps(doc).replace('"east"', '"Ωst"').replace('"halfwave"', '"hαlfwave"')
    spec.write_text(text, encoding="utf-8")
    runs = []
    for locale in ("C", "C.utf8"):
        report = tmp_path / f"report_{locale}.json"
        kwargs = cold_command("check", str(spec), "--samples", "5", "--out", str(report))
        kwargs["env"].update(LC_ALL=locale, PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        proc = subprocess.run(**kwargs, capture_output=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b""), proc.stderr
        kwargs = cold_command("eval", str(spec), "--target", "hαlfwave", "--chart", "Ωst",
                              "--point", "0.5")
        kwargs["env"].update(LC_ALL=locale, PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        evaluated = subprocess.run(**kwargs, capture_output=True, timeout=120)
        assert (evaluated.returncode, evaluated.stderr) == (0, b""), evaluated.stderr
        runs.append((proc.stdout, report.read_bytes(), evaluated.stdout))
    assert runs[0] == runs[1]
    assert "west->Ωst#0".encode() in runs[0][0]
    assert runs[0][2].startswith("chart Ωst\n".encode())
    # Bytes that are not UTF-8 name no chart; stderr escapes them.
    kwargs = cold_command("eval", str(spec), "--target", "hαlfwave",
                          "--chart", os.fsdecode(b"\xff"), "--point", "0.5")
    kwargs["env"].update(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    proc = subprocess.run(**kwargs, capture_output=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == b"error: unknown chart '\\udcff'\n"


@pytest.mark.parametrize("argv", [
    ("check", "MOBIUS", "--samples", "5", "--out", "REPORT"),
    ("construct", "dual", "MOBIUS", "-o", "OUT"),
    ("eval", "MOBIUS", "--target", "halfwave", "--chart", "east", "--point", "0.5"),
], ids=["check", "construct", "eval"])
def test_no_file_is_read_or_written_in_the_locale_encoding(tmp_path, argv):
    files = {"MOBIUS": gp("mobius"), "REPORT": str(tmp_path / "report.json"),
             "OUT": str(tmp_path / "dual.json")}
    kwargs = cold_command(*(files.get(a, a) for a in argv))
    kwargs["args"][1:1] = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
    proc = subprocess.run(**kwargs, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("point", ["nan", "inf", "-inf", "1e999"])
def test_a_non_finite_point_is_a_usage_error(capsys, point):
    argv = ("eval", gp("mobius"), "--target", "halfwave", "--chart", "east", f"--point={point}")
    assert run(capsys, *argv) == (1, "", f"--point must hold finite coordinates, got '{point}'\n")
