"""Golden reports: the checks must keep reproducing frozen reports.

The files under tests/golden/ are `vbx check --out` reports written by the
per-point, tree-walking checks at `--samples 200 --seed 42`: one per
gallery spec, and one each for the `tensor --r 1 --s 1` and `product`
outputs of the seeded dense rank-3 circle bundle in golden/dense.json
(perfbench/gen.py, seed 42; the product partner is the gallery's
projective_tangent). Every record field
except `worst` must match exactly. `worst` may differ by rounding only:
the residuals are themselves rounding noise near 1e-16, so one ulp of
difference in an intermediate value moves them by about 2.2e-16 in
absolute terms, and the bound below is absolute plus relative.
"""

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from vbx.bundles import check_base_atlas, check_vb
from vbx.cli import main
from vbx.constructions import direct_product, tensor_bundle
from vbx.report import CheckRecord, make_report, merge_reports, report_to_dict, report_to_json
from vbx.specio import gallery_path, load_spec

GOLDEN = Path(__file__).parent / "golden"
GALLERY = ("circle_base", "circle_tangent", "mobius", "mobius_bad_section",
           "mobius_tampered", "projective_base", "projective_tangent", "trivial")
WORST_ABS = 4.5e-16  # 2 ulp at 1.0
WORST_REL = 4 * 2.2e-16


def worst_drift(got: float, want: float) -> float:
    """How far a worst value moved, beyond the bound when the result is > 0."""
    if math.isinf(want) or math.isinf(got):
        return 0.0 if got == want else math.inf
    return abs(got - want) - (WORST_ABS + WORST_REL * abs(want))


def assert_matches_golden(report_path: Path, golden_name: str) -> None:
    got = json.loads(report_path.read_text())
    want = json.loads((GOLDEN / golden_name).read_text())
    assert got["suite"] == want["suite"]
    assert got["passed"] == want["passed"]
    assert len(got["records"]) == len(want["records"])
    for g, w in zip(got["records"], want["records"]):
        assert {k: v for k, v in g.items() if k != "worst"} == \
            {k: v for k, v in w.items() if k != "worst"}
        assert worst_drift(g["worst"], w["worst"]) <= 0.0, (g, w)


def check_to(tmp_path: Path, spec: str, name: str, expected_exit: int) -> Path:
    out = tmp_path / f"{name}.report.json"
    code = main(["check", spec, "--samples", "200", "--seed", "42", "--out", str(out)])
    assert code == expected_exit
    return out


@pytest.mark.parametrize("name", GALLERY)
def test_gallery_reports_match_golden(name, tmp_path, capsys):
    want = json.loads((GOLDEN / f"{name}.report.json").read_text())
    out = check_to(tmp_path, str(gallery_path(name)), name, 0 if want["passed"] else 2)
    assert_matches_golden(out, f"{name}.report.json")


@pytest.mark.parametrize("name", ["tensor11", "product"])
def test_dense_derived_reports_match_golden(name, tmp_path):
    # In process rather than construct -> save -> check: saving and
    # re-parsing the 2.5 MB tensor output would take most of the time, and
    # parse(to_string(e)) evaluates like e.
    dense = load_spec(GOLDEN / "dense.json").bundle
    if name == "tensor11":
        B = tensor_bundle(dense, 1, 1)
    else:
        B = direct_product(dense, load_spec(gallery_path("projective_tangent")).bundle)
    report = merge_reports("check", [check_base_atlas(B.base, 200, 1e-9, 42),
                                     check_vb(B, 200, 1e-9, 42)])
    out = tmp_path / f"{name}.report.json"
    out.write_text(report_to_json(report))
    assert_matches_golden(out, f"dense_{name}.report.json")


def test_worst_bound_is_a_bound():
    assert worst_drift(4.440892098500626e-16, 6.661338147750939e-16) <= 0.0
    assert worst_drift(1e-9, 2e-9) > 0.0
    assert worst_drift(1.0 + 8 * 2.2e-16, 1.0) > 0.0
    assert worst_drift(math.inf, math.inf) == 0.0
    assert worst_drift(1.0, math.inf) == math.inf


_FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(),
                    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0, 1e-9, 5e-324]))
_TEXTS = st.one_of(st.text(), st.sampled_from(["", "tau \u2192 \"x\"\\", "n\u00e9\u0000\t\U0001f600"]))
_RECORDS = st.builds(CheckRecord, _TEXTS, _TEXTS, st.sampled_from(["max_residual", "min_scaled_det"]),
                     st.integers(0, 10**6), st.integers(-2**63, 2**64), _FLOATS, _FLOATS,
                     st.booleans(), _TEXTS)


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(_TEXTS, st.lists(_RECORDS, max_size=4))
def test_report_json_is_that_of_json_dumps(suite, records):
    # The writer fills a fixed layout; json.dumps of the report's dict,
    # keys sorted, is its oracle: non-finite and signed-zero floats,
    # non-ASCII and escaped text, and an empty record list included.
    report = make_report(suite, records)
    assert report_to_json(report) == json.dumps(report_to_dict(report), sort_keys=True,
                                                indent=2) + "\n"
