"""Reading and writing bundle specification documents.

A specification is a single JSON object. Top-level keys:

    base         required; {"dim", "charts", "overlaps"}
    fiber        {"dim", "field"}; optional only for atlas-only documents
    transitions  required whenever fiber is present
    sections     optional; [{"name", "components": {chart: [exprs]}}]
    frames       optional; [{"name", "chart", "columns": [[exprs], ...]}]
    fields       optional; [{"name", "r", "s", "components": {chart: [exprs]}}]
    derivation   optional free-form metadata written by the constructors

Expressions are DSL strings. Unknown keys are rejected with a
JSON-pointer-style location; expression syntax errors keep their own error
type but gain the offending entry's location in the message.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .coords import FieldTag
from .errors import FileError, ParseError, ShapeMismatch, SpecError, UnknownSymbol
from .expr import parse_expr, print_and_count, to_string
from .record import Record, record
from .spec import (
    BaseAtlasSpec,
    VectorBundleSpec,
    make_atlas,
    make_bundle,
    make_field,
    make_frame,
    make_section,
)

_TOP_KEYS = {"base", "fiber", "transitions", "sections", "frames", "fields", "derivation"}
_BASE_KEYS = {"dim", "charts", "overlaps"}
_CHART_KEYS = {"name", "box"}
_OVERLAP_KEYS = {"from", "to", "region", "tau"}
_FIBER_KEYS = {"dim", "field"}
_TRANSITION_KEYS = {"from", "to", "g"}


@record
class SpecDocument(Record):
    """Everything one file describes: the bundle (or bare atlas) plus any
    named sections, frames, and tensor fields."""

    base: BaseAtlasSpec
    bundle: VectorBundleSpec | None
    sections: dict
    frames: dict
    fields: dict

    @property
    def is_atlas_only(self) -> bool:
        return self.bundle is None


def _check_keys(obj: dict, allowed: set, loc: str) -> None:
    for key in obj:
        if key not in allowed:
            raise SpecError(f"unknown key '{key}'", f"{loc}/{key}")


def _need(obj: dict, key: str, loc: str):
    if key not in obj:
        raise SpecError(f"missing required key '{key}'", f"{loc}/{key}")
    return obj[key]


def _as_dict(value, loc: str) -> dict:
    if not isinstance(value, dict):
        raise SpecError("expected an object", loc)
    return value


def _as_list(value, loc: str) -> list:
    if not isinstance(value, list):
        raise SpecError("expected an array", loc)
    return value


def _as_str(value, loc: str) -> str:
    if not isinstance(value, str):
        raise SpecError("expected a string", loc)
    return value


def _as_int(value, loc: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError("expected an integer", loc)
    return value


def _as_number(value, loc: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError("expected a number", loc)
    try:
        return float(value)
    except OverflowError:  # an integer past the float range
        raise SpecError("number outside the float range", loc) from None


def _parse_entry(text, loc: str, memo: dict | None):
    """Parse one expression string, tagging grammar errors with the entry's
    location. memo is the document's: see parse_expr."""
    text = _as_str(text, loc)
    try:
        return parse_expr(text, memo)
    except (ParseError, UnknownSymbol) as exc:
        raise exc.at(loc) from exc


def _parse_matrix(value, loc: str, memo: dict) -> tuple:
    """An array of arrays of expression strings, as a tuple of tuples."""
    return tuple(tuple(_parse_entry(e, f"{loc}/{i}/{j}", memo)
                       for j, e in enumerate(_as_list(row, f"{loc}/{i}")))
                 for i, row in enumerate(_as_list(value, loc)))


def _entries(value, loc: str, allowed: set):
    """(location, entry) for each entry of the array value at loc, each an
    object with only allowed keys."""
    for k, entry in enumerate(_as_list(value, loc)):
        _check_keys(_as_dict(entry, f"{loc}/{k}"), allowed, f"{loc}/{k}")
        yield f"{loc}/{k}", entry


def _parse_box(value, loc: str) -> list:
    bounds = _as_list(value, loc)
    out = []
    for k, pair in enumerate(bounds):
        pair = _as_list(pair, f"{loc}/{k}")
        if len(pair) != 2:
            raise SpecError("expected a [lo, hi] pair", f"{loc}/{k}")
        out.append((_as_number(pair[0], f"{loc}/{k}/0"),
                    _as_number(pair[1], f"{loc}/{k}/1")))
    return out


def load_json(path) -> dict:
    """Read one JSON object from disk, as UTF-8 whatever the locale (JSON
    text is UTF-8, RFC 8259 section 8.1); I/O, encoding and syntax problems
    raise FileError."""
    p = Path(path)
    try:
        data = p.read_bytes()
    except OSError as exc:
        raise FileError(f"cannot read '{p}': {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FileError(f"'{p}' is not UTF-8 text: {exc}") from exc
    del data  # so the file is not held twice, as bytes and as text, while JSON parses
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileError(f"'{p}' is not valid JSON: {exc}") from exc
    except RecursionError:
        raise FileError(f"'{p}' nests JSON too deeply to read") from None
    if not isinstance(doc, dict):
        raise SpecError("top level must be an object")
    return doc


def atlas_from_document(doc: dict, memo: dict | None = None) -> BaseAtlasSpec:
    base = _as_dict(_need(doc, "base", ""), "/base")
    _check_keys(base, _BASE_KEYS, "/base")
    dim = _as_int(_need(base, "dim", "/base"), "/base/dim")

    charts = [(_as_str(_need(entry, "name", loc), f"{loc}/name"),
               _parse_box(_need(entry, "box", loc), f"{loc}/box"))
              for loc, entry in _entries(_need(base, "charts", "/base"), "/base/charts",
                                         _CHART_KEYS)]

    overlaps = []
    for loc, entry in _entries(base.get("overlaps", []), "/base/overlaps", _OVERLAP_KEYS):
        frm = _as_str(_need(entry, "from", loc), f"{loc}/from")
        to = _as_str(_need(entry, "to", loc), f"{loc}/to")
        region = [_parse_box(b, f"{loc}/region/{i}")
                  for i, b in enumerate(_as_list(_need(entry, "region", loc), f"{loc}/region"))]
        tau = [_parse_entry(t, f"{loc}/tau/{i}", memo)
               for i, t in enumerate(_as_list(_need(entry, "tau", loc), f"{loc}/tau"))]
        overlaps.append((frm, to, region, tau))

    try:
        return make_atlas(dim, charts, overlaps)
    except ShapeMismatch as exc:  # an empty or invalid box
        raise SpecError(str(exc), "/base") from exc


def _load_bundle(doc: dict, base: BaseAtlasSpec, memo: dict) -> VectorBundleSpec:
    fiber = _as_dict(_need(doc, "fiber", ""), "/fiber")
    _check_keys(fiber, _FIBER_KEYS, "/fiber")
    fdim = _as_int(_need(fiber, "dim", "/fiber"), "/fiber/dim")
    fname = _as_str(_need(fiber, "field", "/fiber"), "/fiber/field")
    try:
        field = FieldTag(fname)
    except ValueError:
        raise SpecError(f"field must be 'real' or 'complex', got '{fname}'",
                        "/fiber/field") from None

    transitions = []
    for loc, entry in _entries(_need(doc, "transitions", ""), "/transitions", _TRANSITION_KEYS):
        frm = _as_str(_need(entry, "from", loc), f"{loc}/from")
        to = _as_str(_need(entry, "to", loc), f"{loc}/to")
        transitions.append((frm, to, _parse_matrix(_need(entry, "g", loc), f"{loc}/g", memo)))

    derivation = doc.get("derivation")
    if derivation is not None:
        derivation = _as_dict(derivation, "/derivation")
    return make_bundle(base, fdim, field, transitions, derivation)


def _components(entry: dict, key: str, loc: str, memo: dict | None) -> dict:
    """entry[key], at loc, as expressions by chart: a section's or field's
    components, or an induced map."""
    comps = _as_dict(_need(entry, key, loc), f"{loc}/{key}")
    return {chart: tuple(_parse_entry(e, f"{loc}/{key}/{chart}/{i}", memo)
                         for i, e in enumerate(_as_list(exprs, f"{loc}/{key}/{chart}")))
            for chart, exprs in comps.items()}


def _components_out(A, memo: dict) -> dict:
    return {c: [to_string(e, memo) for e in exprs] for c, exprs in sorted(A.per_chart.items())}


def _frame_out(F, memo: dict) -> dict:
    ((chart, P),) = F.fiber_map.items()  # a frame's columns are its fiber map's
    return {"chart": chart, "columns": [[to_string(e, memo) for e in col] for col in zip(*P)]}


# Each kind of named entry, in SpecDocument's order: its keys, its
# constructor, a reader of the constructor's other arguments from one entry
# and a writer of a value's entry but its name. Its array is kind + "s".
_NAMED = {
    "section": ({"name", "components"}, make_section,
                lambda entry, loc, memo: (_components(entry, "components", loc, memo),),
                lambda S, memo: {"components": _components_out(S, memo)}),
    "frame": ({"name", "chart", "columns"}, make_frame,
              lambda entry, loc, memo: (
                  _as_str(_need(entry, "chart", loc), f"{loc}/chart"),
                  _parse_matrix(_need(entry, "columns", loc), f"{loc}/columns", memo)),
              _frame_out),
    "field": ({"name", "r", "s", "components"}, make_field,
              lambda entry, loc, memo: (_as_int(_need(entry, "r", loc), f"{loc}/r"),
                                        _as_int(_need(entry, "s", loc), f"{loc}/s"),
                                        _components(entry, "components", loc, memo)),
              lambda A, memo: {"r": A.r, "s": A.s, "components": _components_out(A, memo)}),
}


def load_spec(path) -> SpecDocument:
    """Load and structurally validate one specification file.

    One parse memo serves the whole file, so an expression group repeated
    anywhere in it is read once and text-equal entries are one node.
    """
    doc = load_json(path)
    _check_keys(doc, _TOP_KEYS, "")

    memo: dict = {}
    base = atlas_from_document(doc, memo)

    has_fiber = "fiber" in doc
    has_transitions = "transitions" in doc
    if not has_fiber and not has_transitions:
        for kind in _NAMED:
            if f"{kind}s" in doc:
                raise SpecError(f"'{kind}s' requires a fiber", f"/{kind}s")
        return SpecDocument(base, None, {}, {}, {})
    if not has_fiber:
        raise SpecError("missing required key 'fiber'", "/fiber")
    if not has_transitions:
        raise SpecError("missing required key 'transitions'", "/transitions")
    bundle = _load_bundle(doc, base, memo)

    named = {}
    for kind, (keys, make, read, _) in _NAMED.items():
        by_name = named[kind] = {}
        for loc, entry in _entries(doc.get(f"{kind}s", []), f"/{kind}s", keys):
            name = _as_str(_need(entry, "name", loc), f"{loc}/name")
            if name in by_name:
                raise SpecError(f"duplicate {kind} name '{name}'", f"{loc}/name")
            args = read(entry, loc, memo)
            try:
                by_name[name] = make(bundle, *args)
            except SpecError as exc:
                raise SpecError(str(exc), loc) from exc
    return SpecDocument(base, bundle, *named.values())


def induced_map_from_document(doc: dict) -> tuple:
    """An induced-map file's base atlas, chart assignment and map: the
    arguments of constructions.induced_bundle after the bundle."""
    for key in doc:
        if key not in {"base", "assignment", "map"}:
            raise SpecError(f"unknown key '{key}' in the induced-map file")
    for key in ("base", "assignment", "map"):
        if key not in doc:
            raise SpecError(f"the induced-map file needs a '{key}' key")
    base = atlas_from_document(doc)
    assignment = {chart: _as_str(target, f"/assignment/{chart}")
                  for chart, target in _as_dict(doc["assignment"], "/assignment").items()}
    return base, assignment, _components(doc, "map", "", None)


def regions_from_document(doc: dict) -> dict:
    """A restriction file's regions: the box bounds of each chart kept."""
    if set(doc) != {"regions"}:
        raise SpecError("the restriction file must have exactly one key, 'regions'")
    return {chart: _parse_box(bounds, f"/regions/{chart}")
            for chart, bounds in _as_dict(doc["regions"], "/regions").items()}


# ---------------------------------------------------------------------------
# Writing.


def _num_out(v: float):
    return int(v) if float(v).is_integer() and abs(v) < 1e15 and math.isfinite(v) else v


def _box_out(box) -> list:
    return [[_num_out(lo), _num_out(hi)] for lo, hi in zip(box.lo, box.hi)]


def base_to_dict(base: BaseAtlasSpec, memo: dict | None = None) -> dict:
    return {"dim": base.dim,
            "charts": [{"name": c.name, "box": _box_out(c.box)} for c in base.charts],
            "overlaps": [{"from": o.frm, "to": o.to, "region": [_box_out(b) for b in o.region],
                          "tau": [to_string(e, memo) for e in o.tau.components]}
                         for o in base.overlaps]}


def document_to_dict(bundle: VectorBundleSpec, sections: dict | None = None,
                     frames: dict | None = None, fields: dict | None = None) -> dict:
    return _document(bundle, sections, frames, fields)[0]


bundle_to_dict = document_to_dict  # a bundle's document, with no named entries


def _document(bundle: VectorBundleSpec, sections, frames, fields) -> tuple:
    """The document's JSON object, and the tree and unique nodes of the
    bundle's coordinate changes and transitions, which one walk prints and
    counts. One print memo serves the document: a shared subtree is printed
    once. A section, frame or field off the bundle, or one with point rules
    (see constructions.Pulling), cannot be written faithfully: SpecError."""
    memo: dict = {}
    roots = [c for o in bundle.base.overlaps for c in o.tau.components]
    roots += [c for e in bundle.edges for row in e.g for c in row]
    texts, tree, unique = print_and_count(roots, memo)
    texts = dict(zip(map(id, roots), texts))
    doc = {"base": base_to_dict(bundle.base, memo),
           "fiber": {"dim": bundle.fiber_dim, "field": bundle.field.value},
           "transitions": [{"from": e.overlap.frm, "to": e.overlap.to,
                            "g": [[texts[id(c)] for c in row] for row in e.g]}
                           for e in bundle.edges]}
    if bundle.derivation is not None:
        doc["derivation"] = bundle.derivation
    for (kind, (*_, write)), entries in zip(_NAMED.items(), (sections, frames, fields)):
        for name, X in sorted((entries or {}).items()):
            if (X.target if kind == "frame" else X.bundle) != bundle:
                raise SpecError(f"{kind} '{name}' is not on the saved bundle")
            if getattr(X, "rules", ()):
                raise SpecError(f"{kind} '{name}' carries point rules, which a file cannot hold")
            doc.setdefault(f"{kind}s", []).append({"name": name, **write(X, memo)})
    return doc, tree, unique


def save_spec(bundle: VectorBundleSpec, path, sections: dict | None = None,
              frames: dict | None = None, fields: dict | None = None) -> tuple:
    """Write the document to path; returns _document's tree and unique nodes."""
    doc, tree, unique = _document(bundle, sections, frames, fields)
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise FileError(f"cannot write '{path}': {exc}") from exc
    return tree, unique


def gallery_dir() -> Path:
    return Path(__file__).parent / "gallery"


def gallery_path(name: str) -> Path:
    return gallery_dir() / f"{name}.json"


def list_gallery() -> list:
    return sorted(p.stem for p in gallery_dir().glob("*.json"))
