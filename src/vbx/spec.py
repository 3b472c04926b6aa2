"""Bundle specifications: the charts, atlases, bundles, fields and frames a
specification file describes, their constructors, and field evaluation.

A bundle is specified by a base atlas (named charts with open box images,
overlaps with coordinate changes) plus a fiber dimension and one transition
matrix of expressions per overlap component. The constructors check
everything decidable without evaluation; the sampled identities are the
check suites' (vbx.bundles). Every `vbx` command loads this module, and
`vbx eval` runs nothing of the bundle layer beyond it.

There is one tensor-field type, TensorFieldSpec: one expression per
coefficient on each chart it covers. A section of B is a (0,1)-field. A
field pulled back carries the point rules of the pointwise definition as
data (vbx.constructions.Pulling); a sum, multiple or product with such a
field carries its operands whole. The rules run ahead of the coefficients
in the one field-evaluation stage that field_eval and the check suites
share.

A frame on a chart U (d sections of B independent on U) is the local
trivialization U x R^d -> B|U: a BundleMorphismSpec onto B from B's fiber
over U, with the identity base map and the frame matrix as fiber map.

Transition Convention, used uniformly by every operation and construction:
the stored matrix g_ij converts chart-j fiber coordinates to chart-i fiber
coordinates and is evaluated at chart-i base coordinates,

    v_i = g_ij(x_i) * v_j        where x_j = tau_ij(x_i).

Overlaps may be declared in several components per ordered chart pair (a
disconnected overlap cannot carry one smooth formula when the transition
differs per component, as on the Mobius band). Transition entries attach to
the overlap components of their (from, to) pair in declaration order, and
the counts must agree.
"""

from __future__ import annotations

from dataclasses import field as dc_field
from functools import cached_property

import numpy as np

from .calculus import SmoothMap, at_point, identity_map, make_smooth_map
from .coords import Box, FieldTag, VectorSpace, box_inside, make_box, make_tensor
from .errors import DomainViolation, ShapeMismatch, SpecError
from .expr import as_exprs
from .record import Record, record


@record
class ChartSpec(Record):
    """A named chart: an open box of coordinates."""

    name: str
    box: Box


@record
class OverlapSpec(Record):
    """One component of the overlap of two charts, in from-chart coordinates."""

    frm: str
    to: str
    region: tuple  # tuple of Box, a finite union
    tau: SmoothMap  # from-chart coords -> to-chart coords


def _by_charts(items, overlap) -> dict:
    """items by the (from, to) charts of their overlap, a tuple per pair."""
    pairs = [(overlap(x).frm, overlap(x).to) for x in items]
    return {p: tuple(x for x, q in zip(items, pairs) if q == p) for p in dict.fromkeys(pairs)}


@record
class BaseAtlasSpec(Record):
    """A base manifold: charts of one dimension and the overlaps that glue them."""

    dim: int
    charts: tuple
    overlaps: tuple

    def chart(self, name: str) -> ChartSpec:
        for c in self.charts:
            if c.name == name:
                return c
        raise SpecError(f"unknown chart '{name}'")

    _between = cached_property(lambda self: _by_charts(self.overlaps, lambda o: o))

    def overlaps_between(self, i: str, j: str) -> tuple:
        return self._between.get((i, j), ())


@record
class BundleEdge(Record):
    """An overlap component together with its transition matrix."""

    overlap: OverlapSpec
    g: tuple  # d x d tuple-of-tuples of Expr, in from-chart coordinates
    component: int  # index among the (from, to) components, declaration order

    @property
    def region(self) -> tuple:
        return self.overlap.region


@record
class VectorBundleSpec(Record):
    """A vector bundle: a fiber of fiber_dim over field, and a transition matrix on
    each overlap component. derivation records how a constructed bundle was
    built; it takes no part in equality."""

    base: BaseAtlasSpec
    fiber_dim: int
    field: FieldTag
    edges: tuple
    derivation: dict | None = dc_field(default=None, compare=False)

    @property
    def fiber_space(self) -> VectorSpace:
        return VectorSpace(self.fiber_dim, self.field)

    _between = cached_property(lambda self: _by_charts(self.edges, lambda e: e.overlap))

    def edges_between(self, i: str, j: str) -> tuple:
        return self._between.get((i, j), ())


@record
class TensorFieldSpec(Record):
    """An (r,s)-tensor field on a bundle; a section is a (0,1)-field.

    rules are what a point must pass before the coefficients are read, in
    the order the pointwise definition meets them: a Pulling for a field
    pulled back (see vbx.constructions), and each operand, whole, of a sum,
    multiple or product built from such a field. Other fields have none.
    A rule runs as rule.passes(t, chart, X, rows).
    """

    bundle: VectorBundleSpec
    r: int
    s: int
    per_chart: dict  # chart name -> tuple of fiber_dim^(r+s) Expr, radix order
    rules: tuple = ()

    def passes(self, t, chart: str, X, rows) -> None:
        """The field's rule as an operand: its values on chart at the points
        X of trial t's rows evaluate and are finite (_field_values)."""
        _field_values(t, self, chart, X, rows)


@record
class BundleMorphismSpec(Record):
    """A bundle morphism: per source chart, the target chart its base image lies
    in, the base map and the fiber map."""

    source: VectorBundleSpec
    target: VectorBundleSpec
    assignment: dict  # source chart -> target chart the image lies in
    base_map: dict  # source chart -> tuple of target-base-dim Expr
    fiber_map: dict  # source chart -> d2 x d1 matrix of Expr
    inverse: dict | None = None  # target chart -> (source chart, Expr tuple)


# ---------------------------------------------------------------------------
# Construction and validation.


def make_atlas(dim: int, charts, overlaps) -> BaseAtlasSpec:
    """Assemble and statically validate a base atlas.

    charts: iterable of (name, box-like); overlaps: iterable of
    (from, to, [boxes], [tau exprs]). Sampled identities are the job of
    check_base_atlas; this checks everything decidable without evaluation.
    """
    if dim < 1:
        raise SpecError("base dimension must be positive", "/base/dim")
    chart_list = []
    seen = set()
    for name, box in charts:
        if not isinstance(name, str) or not name:
            raise SpecError("chart name must be a non-empty string", "/base/charts")
        if name in seen:
            raise SpecError(f"duplicate chart name '{name}'", "/base/charts")
        seen.add(name)
        b = box if isinstance(box, Box) else make_box(box)
        if b.dim != dim:
            raise SpecError(f"chart '{name}' box has dim {b.dim}, base dim is {dim}",
                            "/base/charts")
        chart_list.append(ChartSpec(name, b))
    atlas_charts = tuple(chart_list)

    def chart_box(name: str) -> Box:
        for c in atlas_charts:
            if c.name == name:
                return c.box
        raise SpecError(f"overlap references unknown chart '{name}'", "/base/overlaps")

    overlap_list = []
    for k, (frm, to, region, tau) in enumerate(overlaps):
        loc = f"/base/overlaps/{k}"
        if frm == to:
            raise SpecError("self-overlaps are implicit and must not be declared", loc)
        frm_box = chart_box(frm)
        chart_box(to)
        boxes = tuple(b if isinstance(b, Box) else make_box(b) for b in region)
        if not boxes:
            raise SpecError("overlap region must contain at least one box", loc)
        for b in boxes:
            if b.dim != dim:
                raise SpecError(f"region box has dim {b.dim}, base dim is {dim}", loc)
            if not box_inside(b, frm_box):
                raise SpecError(
                    f"region box {list(zip(b.lo, b.hi))} is not inside chart '{frm}'", loc)
        try:
            tau_map = make_smooth_map(tau, frm_box)
        except ShapeMismatch as exc:
            raise SpecError(f"bad coordinate change: {exc}", loc) from exc
        if tau_map.out_dim != dim:
            raise SpecError(
                f"coordinate change has {tau_map.out_dim} components, base dim is {dim}", loc)
        overlap_list.append(OverlapSpec(frm, to, boxes, tau_map))

    atlas = BaseAtlasSpec(dim, atlas_charts, tuple(overlap_list))
    for o in atlas.overlaps:
        if not atlas.overlaps_between(o.to, o.frm):
            raise SpecError(
                f"overlap {o.frm}->{o.to} has no declared reverse", "/base/overlaps")
    return atlas


# Bounds on a fiber, refused before any power or allocation: a check holds
# a d x d matrix per sample (8 MB at MAX_FIBER_DIM), and past MAX_VALENCE
# slots the (r,s)-tensors on any fiber of rank 2 or more pass MAX_FIBER_DIM.
MAX_FIBER_DIM = 1024
MAX_VALENCE = 10


def tensor_dim(d: int, r: int, s: int, what: str, loc: str = "") -> int:
    """d^(r+s), the dimension of the (r,s)-tensors on a rank-d fiber, once
    d, r and s pass the bounds; SpecError at JSON pointer loc otherwise.
    what names the valence in messages."""
    if d < 1:
        raise SpecError("fiber dimension must be positive", loc)
    if d > MAX_FIBER_DIM:
        raise SpecError(f"fiber dimension {d} is above the bound {MAX_FIBER_DIM}", loc)
    if r < 0 or s < 0:
        raise SpecError(f"{what} valence must be non-negative", loc)
    if r + s > MAX_VALENCE:
        raise SpecError(f"{what} valence ({r},{s}) is above the bound r + s <= {MAX_VALENCE}", loc)
    if d ** (r + s) > MAX_FIBER_DIM:
        raise SpecError(f"{what} valence ({r},{s}) on a rank-{d} fiber has {d}^{r + s} "
                        f"components, above the bound {MAX_FIBER_DIM}", loc)
    return d ** (r + s)


def make_bundle(base: BaseAtlasSpec, fiber_dim: int, field: FieldTag, transitions,
                derivation: dict | None = None) -> VectorBundleSpec:
    """Pair transition matrices with overlap components and validate shapes.

    transitions: iterable of (from, to, g) with g a d x d matrix of
    expressions; entries for one (from, to) pair attach to that pair's
    overlap components in declaration order, and every component needs
    exactly one entry.
    """
    tensor_dim(fiber_dim, 0, 0, "fiber", "/fiber/dim")
    parsed = []
    for k, (frm, to, g) in enumerate(transitions):
        loc = f"/transitions/{k}"
        gmat = tuple(as_exprs(row, base.dim, "transition entry",
                              lambda m, loc=loc: SpecError(m, loc)) for row in g)
        if len(gmat) != fiber_dim or any(len(r) != fiber_dim for r in gmat):
            raise SpecError(f"transition matrix must be {fiber_dim}x{fiber_dim}", loc)
        parsed.append((frm, to, gmat, loc))

    edges = []
    used = [False] * len(parsed)
    for frm, to in sorted({(o.frm, o.to) for o in base.overlaps}):
        comps = base.overlaps_between(frm, to)
        matching = [k for k, p in enumerate(parsed) if p[0] == frm and p[1] == to]
        if len(matching) != len(comps):
            raise SpecError(
                f"overlap {frm}->{to} has {len(comps)} component(s) but "
                f"{len(matching)} transition entr{'y' if len(matching) == 1 else 'ies'}",
                "/transitions")
        for comp_idx, (o, k) in enumerate(zip(comps, matching)):
            edges.append(BundleEdge(o, parsed[k][2], comp_idx))
            used[k] = True
    for k, u in enumerate(used):
        if not u:
            frm, to = parsed[k][0], parsed[k][1]
            raise SpecError(f"transition {frm}->{to} has no declared overlap", parsed[k][3])
    return VectorBundleSpec(base, fiber_dim, field, tuple(edges), derivation)


def make_field(B: VectorBundleSpec, r: int, s: int, per_chart: dict) -> TensorFieldSpec:
    want = tensor_dim(B.fiber_dim, r, s, "field")
    if not per_chart:
        raise SpecError("a field needs components on at least one chart")
    comp = {}
    for name in sorted(per_chart):
        B.base.chart(name)
        exprs = as_exprs(per_chart[name], B.base.dim, f"field component on '{name}'", SpecError)
        if len(exprs) != want:
            raise SpecError(
                f"field on chart '{name}' has {len(exprs)} components, expected {want}")
        comp[name] = exprs
    return TensorFieldSpec(B, r, s, comp)


def make_section(B: VectorBundleSpec, per_chart: dict) -> TensorFieldSpec:
    return make_field(B, 0, 1, per_chart)


def make_frame(B: VectorBundleSpec, chart: str, columns) -> BundleMorphismSpec:
    """The frame on chart whose sections are columns, d lists of d entries."""
    box = B.base.chart(chart).box
    cols = tuple(as_exprs(col, B.base.dim, "frame entry", SpecError) for col in columns)
    if len(cols) != B.fiber_dim or any(len(c) != B.fiber_dim for c in cols):
        raise SpecError(f"a frame needs {B.fiber_dim} columns of {B.fiber_dim} components")
    over = make_bundle(make_atlas(B.base.dim, [(chart, box)], []), B.fiber_dim, B.field, [])
    return BundleMorphismSpec(over, B, {chart: chart}, {chart: identity_map(box).components},
                              {chart: tuple(zip(*cols))})


# ---------------------------------------------------------------------------
# Field evaluation: the one stage field_eval and the check suites share.


def _field_rows(t, A: TensorFieldSpec, chart: str, X, rows) -> np.ndarray:
    """The field's coefficients on one chart at every point: the chart's
    box, A's rules in order, then the coefficients."""
    t.in_box(A.bundle.base.chart(chart).box, X, rows, f"chart '{chart}'")
    for rule in A.rules:
        rule.passes(t, chart, X, rows)
    return t.exprs(A.per_chart[chart], X, rows)


def _field_values(t, A: TensorFieldSpec, chart: str, X, rows) -> np.ndarray:
    """field_eval's coefficients at every point: finite ones."""
    C = _field_rows(t, A, chart, X, rows)
    t.finite(C, X, rows, "field value")
    return C


def field_eval(A: TensorFieldSpec, chart: str, x):
    """The field's value at a point of one chart, as a tensor on the fiber.
    A chart the base does not declare is a SpecError; a declared chart the
    field has no components on, a DomainViolation."""
    A.bundle.base.chart(chart)
    if chart not in A.per_chart:
        raise DomainViolation(f"field has no components on chart '{chart}'")
    coeffs = at_point(x, A.bundle.base.dim, "base dim",
                      lambda t, X, rows: _field_values(t, A, chart, X, rows))
    return make_tensor(A.bundle.fiber_space, A.r, A.s, coeffs)
