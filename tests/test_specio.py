"""Reading and writing specification documents."""

import json
import tracemalloc

import pytest
from support import circle_atlas, local_field, mobius_bundle, plane_rotation_bundle

from vbx.coords import FieldTag
from vbx.errors import EvalError, FileError, ParseError, SpecError, UnknownSymbol, VbxError
from vbx.expr import Num
from vbx.spec import make_bundle, make_field, make_frame, make_section
from vbx.specio import (
    bundle_to_dict,
    document_to_dict,
    gallery_path,
    list_gallery,
    load_json,
    load_spec,
    save_spec,
)


def write_doc(tmp_path, doc, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


# --------------------------------------------------------------------------
# Round trips.


def test_bundle_round_trip(tmp_path):
    B = mobius_bundle()
    p = tmp_path / "mobius.json"
    save_spec(B, p)
    doc = load_spec(p)
    assert doc.bundle == B
    assert doc.base == B.base
    assert not doc.is_atlas_only
    assert doc.sections == {} and doc.frames == {} and doc.fields == {}


def test_full_document_round_trip(tmp_path):
    B = plane_rotation_bundle()
    S = make_section(B, {"left": ["x1", "x2"], "right": ["x1", "x2"]})
    F = make_frame(B, "left", [["cos(x1)", "sin(x1)"], ["-sin(x1)", "cos(x1)"]])
    A = make_field(B, 0, 2, {"left": ["1", "0", "0", "1"],
                             "right": ["1", "0", "0", "1"]})
    p = tmp_path / "plane.json"
    save_spec(B, p, sections={"diag": S}, frames={"rot": F}, fields={"metric": A})
    doc = load_spec(p)
    assert doc.bundle == B
    assert doc.sections == {"diag": S}
    assert doc.frames == {"rot": F}
    assert doc.fields == {"metric": A}


def test_save_then_save_again_is_stable(tmp_path):
    # serialization is canonical: a load/save cycle reproduces the bytes
    B = mobius_bundle()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_spec(B, p1)
    save_spec(load_spec(p1).bundle, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_derivation_metadata_survives(tmp_path):
    from vbx.constructions import dual_bundle

    D = dual_bundle(mobius_bundle())
    p = tmp_path / "dual.json"
    save_spec(D, p)
    loaded = load_spec(p).bundle
    assert loaded.derivation == {"construction": "dual"}


def test_save_rejects_an_entry_that_is_not_on_the_saved_bundle(tmp_path):
    # Written, the file would name a chart its bundle lacks, and fail to load.
    S = make_section(plane_rotation_bundle(), {"left": ["x1", "x2"]})
    with pytest.raises(SpecError, match="section 'diag' is not on the saved bundle"):
        save_spec(mobius_bundle(), tmp_path / "m.json", sections={"diag": S})
    assert not (tmp_path / "m.json").exists()


def test_save_rejects_a_non_finite_literal(tmp_path):
    # The API takes nodes as built; the grammar has no spelling for this one.
    B = make_bundle(circle_atlas(), 1, FieldTag.REAL,
                    [(frm, to, [[Num(float("inf"))]]) for frm, to in
                     (("east", "west"), ("east", "west"), ("west", "east"), ("west", "east"))])
    with pytest.raises(EvalError, match="not finite"):
        save_spec(B, tmp_path / "inf.json")
    assert not (tmp_path / "inf.json").exists()


def test_save_rejects_a_field_with_point_rules(tmp_path):
    # The pulled field fails where x1 leaves (-0.5, 0.5); its coefficients
    # alone, written and loaded, would not.
    from vbx.calculus import make_smooth_map
    from vbx.constructions import map_pullback_cov

    A = local_field([(-0.5, 0.5)], 1, 1, 0, ["x1^2"])
    P = map_pullback_cov(make_smooth_map(["x1"], [(-1, 1)]), A, 1)
    with pytest.raises(SpecError, match="field 'pulled' carries point rules"):
        save_spec(P.bundle, tmp_path / "p.json", fields={"pulled": P})


# --------------------------------------------------------------------------
# Atlas-only documents.


def test_atlas_only_document(tmp_path):
    doc = {"base": bundle_to_dict(mobius_bundle())["base"]}
    p = write_doc(tmp_path, doc)
    loaded = load_spec(p)
    assert loaded.is_atlas_only
    assert loaded.bundle is None
    assert [c.name for c in loaded.base.charts] == ["east", "west"]


def test_gallery_has_atlas_only_entries():
    doc = load_spec(gallery_path("circle_base"))
    assert doc.is_atlas_only


def test_sections_require_a_fiber(tmp_path):
    doc = {"base": bundle_to_dict(mobius_bundle())["base"],
           "sections": [{"name": "z", "components": {"east": ["0"]}}]}
    with pytest.raises(SpecError) as err:
        load_spec(write_doc(tmp_path, doc))
    assert "/sections" in str(err.value)


def test_fiber_and_transitions_come_together(tmp_path):
    full = bundle_to_dict(mobius_bundle())
    no_transitions = {k: v for k, v in full.items() if k != "transitions"}
    with pytest.raises(SpecError) as err:
        load_spec(write_doc(tmp_path, no_transitions, "a.json"))
    assert "transitions" in str(err.value)
    no_fiber = {k: v for k, v in full.items() if k != "fiber"}
    with pytest.raises(SpecError) as err:
        load_spec(write_doc(tmp_path, no_fiber, "b.json"))
    assert "fiber" in str(err.value)


# --------------------------------------------------------------------------
# Structural errors carry JSON-pointer locations.


def test_unknown_top_level_key(tmp_path):
    doc = bundle_to_dict(mobius_bundle())
    doc["bogus"] = 1
    with pytest.raises(SpecError) as err:
        load_spec(write_doc(tmp_path, doc))
    assert "/bogus" in str(err.value)


def test_unknown_nested_key(tmp_path):
    doc = bundle_to_dict(mobius_bundle())
    doc["base"]["overlaps"][1]["smooth"] = True
    with pytest.raises(SpecError) as err:
        load_spec(write_doc(tmp_path, doc))
    assert "/base/overlaps/1/smooth" in str(err.value)


def test_missing_required_key(tmp_path):
    doc = bundle_to_dict(mobius_bundle())
    del doc["base"]["charts"][0]["box"]
    with pytest.raises(SpecError) as err:
        load_spec(write_doc(tmp_path, doc))
    assert "/base/charts/0/box" in str(err.value)


def test_box_must_be_pairs(tmp_path):
    doc = bundle_to_dict(mobius_bundle())
    doc["base"]["charts"][0]["box"] = [[0.0]]
    with pytest.raises(SpecError) as err:
        load_spec(write_doc(tmp_path, doc))
    assert "/base/charts/0/box/0" in str(err.value)
    assert "pair" in str(err.value)


def test_booleans_are_not_numbers(tmp_path):
    doc = bundle_to_dict(mobius_bundle())
    doc["base"]["dim"] = True
    with pytest.raises(SpecError) as err:
        load_spec(write_doc(tmp_path, doc))
    assert "integer" in str(err.value)


def test_bad_field_tag(tmp_path):
    doc = bundle_to_dict(mobius_bundle())
    doc["fiber"]["field"] = "quaternionic"
    with pytest.raises(SpecError) as err:
        load_spec(write_doc(tmp_path, doc))
    assert "/fiber/field" in str(err.value)


def test_expression_errors_name_the_entry(tmp_path):
    doc = bundle_to_dict(mobius_bundle())
    doc["transitions"][0]["g"] = [["2 ** 3"]]
    with pytest.raises(ParseError) as err:
        load_spec(write_doc(tmp_path, doc))
    assert "/transitions/0/g/0/0" in str(err.value)


def test_tau_expression_errors_name_the_entry(tmp_path):
    doc = bundle_to_dict(mobius_bundle())
    doc["base"]["overlaps"][0]["tau"] = ["x1 +"]
    with pytest.raises(ParseError) as err:
        load_spec(write_doc(tmp_path, doc))
    assert "/base/overlaps/0/tau/0" in str(err.value)


# A valid entry of each named kind on the Möbius bundle (rank 1, base dim 1).
GOOD = {
    "section": {"name": "z", "components": {"east": ["0"], "west": ["0"]}},
    "frame": {"name": "z", "chart": "east", "columns": [["1"]]},
    "field": {"name": "z", "r": 1, "s": 0, "components": {"east": ["0"], "west": ["0"]}},
}


@pytest.mark.parametrize("kind", sorted(GOOD))
def test_duplicate_section_names(tmp_path, kind):
    # Names are unique within each kind.
    doc = bundle_to_dict(mobius_bundle())
    doc[f"{kind}s"] = [GOOD[kind], dict(GOOD[kind])]
    with pytest.raises(SpecError) as err:
        load_spec(write_doc(tmp_path, doc))
    assert str(err.value) == f"/{kind}s/1/name: duplicate {kind} name 'z'"


def test_one_name_may_serve_each_kind(tmp_path):
    doc = bundle_to_dict(mobius_bundle())
    doc.update({f"{kind}s": [entry] for kind, entry in GOOD.items()})
    loaded = load_spec(write_doc(tmp_path, doc))
    assert list(loaded.sections) == list(loaded.frames) == list(loaded.fields) == ["z"]


# Documents with one error in one named entry (a duplicate name is above),
# each with the error it raises. A change is the whole array when it is not
# a dict, else the keys it sets on the kind's valid entry, None removing one.
_COMPONENT_ERRORS = [
    ("bad_expression", {"components": {"east": ["x1 +"], "west": ["0"]}}, ParseError,
     "/{k}/0/components/east/0: expected an operand, found end of input (column 5)"),
    ("unknown_symbol", {"components": {"east": ["y1"], "west": ["0"]}}, UnknownSymbol,
     "/{k}/0/components/east/0: unknown identifier 'y1' (column 1)"),
    ("wrong_component_count", {"components": {"east": ["0", "0"], "west": ["0"]}}, SpecError,
     "/{k}/0: field on chart 'east' has 2 components, expected 1"),
    ("components_not_an_object", {"components": ["0"]}, SpecError,
     "/{k}/0/components: expected an object"),
    ("chart_entry_not_an_array", {"components": {"east": "0"}}, SpecError,
     "/{k}/0/components/east: expected an array"),
    ("no_charts", {"components": {}}, SpecError,
     "/{k}/0: a field needs components on at least one chart"),
    ("unknown_chart", {"components": {"north": ["0"]}}, SpecError,
     "/{k}/0: unknown chart 'north'"),
    ("variable_past_dim", {"components": {"east": ["x2"], "west": ["0"]}}, SpecError,
     "/{k}/0: field component on 'east' references x2 but the dimension is 1"),
    ("missing_components", {"components": None}, SpecError,
     "/{k}/0/components: missing required key 'components'"),
]
SINGLE_ERRORS = [(kind, *case) for kind in sorted(GOOD) for case in [
    ("not_an_array", "z", SpecError, "/{k}: expected an array"),
    ("not_an_object", [5], SpecError, "/{k}/0: expected an object"),
    ("unknown_key", {"bogus": 1}, SpecError, "/{k}/0/bogus: unknown key 'bogus'"),
    ("missing_name", {"name": None}, SpecError, "/{k}/0/name: missing required key 'name'"),
    ("name_not_a_string", {"name": 3}, SpecError, "/{k}/0/name: expected a string"),
]] + [("section", *case) for case in _COMPONENT_ERRORS] + [
    ("field", *case) for case in _COMPONENT_ERRORS + [
        ("r_not_an_integer", {"r": "1"}, SpecError, "/{k}/0/r: expected an integer"),
        ("s_not_an_integer", {"s": 1.5}, SpecError, "/{k}/0/s: expected an integer"),
        ("r_a_boolean", {"r": True}, SpecError, "/{k}/0/r: expected an integer"),
        ("missing_s", {"s": None}, SpecError, "/{k}/0/s: missing required key 's'"),
        ("valence_above_the_bound", {"r": 11}, SpecError,
         "/{k}/0: field valence (11,0) is above the bound r + s <= 10"),
        ("negative_valence", {"s": -1}, SpecError, "/{k}/0: field valence must be non-negative"),
    ]] + [("frame", *case) for case in [
        ("bad_expression", {"columns": [["x1 +"]]}, ParseError,
         "/{k}/0/columns/0/0: expected an operand, found end of input (column 5)"),
        ("unknown_symbol", {"columns": [["y1"]]}, UnknownSymbol,
         "/{k}/0/columns/0/0: unknown identifier 'y1' (column 1)"),
        ("wrong_component_count", {"columns": [["1", "0"]]}, SpecError,
         "/{k}/0: a frame needs 1 columns of 1 components"),
        ("wrong_column_count", {"columns": [["1"], ["1"]]}, SpecError,
         "/{k}/0: a frame needs 1 columns of 1 components"),
        ("variable_past_dim", {"columns": [["x2"]]}, SpecError,
         "/{k}/0: frame entry references x2 but the dimension is 1"),
        ("chart_not_a_string", {"chart": 3}, SpecError, "/{k}/0/chart: expected a string"),
        ("unknown_chart", {"chart": "north"}, SpecError, "/{k}/0: unknown chart 'north'"),
        ("missing_chart", {"chart": None}, SpecError, "/{k}/0/chart: missing required key 'chart'"),
        ("columns_not_an_array", {"columns": "1"}, SpecError, "/{k}/0/columns: expected an array"),
        ("column_not_an_array", {"columns": ["1"]}, SpecError,
         "/{k}/0/columns/0: expected an array"),
    ]]


@pytest.mark.parametrize("kind,case,change,error,message", SINGLE_ERRORS,
                         ids=[f"{kind}-{case}" for kind, case, *_ in SINGLE_ERRORS])
def test_a_single_error_in_a_named_entry_raises_its_type_and_message(tmp_path, kind, case,
                                                                      change, error, message):
    if isinstance(change, dict):
        entry = {**GOOD[kind], **change}
        change = [{key: value for key, value in entry.items() if value is not None}]
    doc = bundle_to_dict(mobius_bundle())
    doc[f"{kind}s"] = change
    with pytest.raises(VbxError) as err:
        load_spec(write_doc(tmp_path, doc))
    assert (type(err.value), str(err.value)) == (error, message.format(k=f"{kind}s"))


def test_section_shape_errors_point_at_the_entry(tmp_path):
    doc = bundle_to_dict(mobius_bundle())
    doc["sections"] = [{"name": "bad", "components": {"east": ["0", "0"]}}]
    with pytest.raises(SpecError) as err:
        load_spec(write_doc(tmp_path, doc))
    assert "/sections/0" in str(err.value)


def test_top_level_must_be_an_object(tmp_path):
    p = tmp_path / "arr.json"
    p.write_text("[1, 2]")
    with pytest.raises(SpecError):
        load_spec(p)


# --------------------------------------------------------------------------
# File-level errors.


def test_missing_file_raises_file_error(tmp_path):
    with pytest.raises(FileError):
        load_spec(tmp_path / "nope.json")


def test_invalid_json_raises_file_error(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{\"base\": ")
    with pytest.raises(FileError):
        load_spec(p)


def test_loading_holds_a_file_once_while_parsing_it(tmp_path):
    # A 4 MB entry: held as bytes, as text and as the parsed string, the
    # peak was three times the file; the bytes now go before parsing.
    doc = json.loads(gallery_path("mobius").read_text(encoding="utf-8"))
    doc["sections"][0]["components"]["east"] = [" + ".join(["sin(x1)"] * 400_000)]
    p = write_doc(tmp_path, doc)
    tracemalloc.start()
    try:
        load_json(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * p.stat().st_size


def test_save_into_missing_directory_raises_file_error(tmp_path):
    with pytest.raises(FileError):
        save_spec(mobius_bundle(), tmp_path / "no" / "such" / "dir.json")


# --------------------------------------------------------------------------
# Gallery.


def test_gallery_listing():
    names = list_gallery()
    assert names == sorted(names)
    for expected in ("mobius", "mobius_tampered", "projective_tangent", "trivial"):
        assert expected in names


def test_every_gallery_file_loads():
    for name in list_gallery():
        doc = load_spec(gallery_path(name))
        assert doc.base.charts


def test_document_to_dict_orders_names():
    B = plane_rotation_bundle()
    S1 = make_section(B, {"left": ["1", "0"], "right": ["1", "0"]})
    S2 = make_section(B, {"left": ["0", "1"], "right": ["0", "1"]})
    doc = document_to_dict(B, sections={"zeta": S1, "alpha": S2})
    assert [s["name"] for s in doc["sections"]] == ["alpha", "zeta"]
