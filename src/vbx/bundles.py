"""Desk-scale smooth vector bundles: atlases, transitions, fields, morphisms.

A bundle is specified by a base atlas (named charts with open box images,
overlaps with coordinate changes) plus a fiber dimension and one transition
matrix of expressions per overlap component.

There is one tensor-field type, TensorFieldSpec: one expression per
coefficient on each chart it covers. A section of B is a (0,1)-field, and a
field on one open box is a field on local_bundle(box, d), the trivial bundle
with the single chart LOCAL_CHART. A field pulled back (along a morphism,
or along a smooth map as the morphism whose fiber map is its Jacobian)
carries the point rules of the pointwise definition as data, a Pulling;
a sum, multiple or product with such a field carries its operands whole.
The rules run ahead of the coefficients in the one field-evaluation stage
that field_eval and the check suites share.

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

All verification is by sampling at low-discrepancy points with an explicit
seed; reports are deterministic given (spec, samples, seed, tol).
"""

from __future__ import annotations

from dataclasses import field as dc_field, replace
from itertools import permutations

import numpy as np

from .calculus import (
    SmoothMap,
    _Trial,
    at_point,
    at_points,
    eval_map,
    identity_map,
    make_smooth_map,
    point_in_box,
)
from .errors import (
    CocycleViolation,
    DomainViolation,
    ShapeMismatch,
    SingularFrame,
    SpecError,
    UnsupportedField,
)
from .expr import as_exprs, fold_add, fold_mul, num_literal
from .geometry import (
    Box,
    box_inside,
    make_box,
    region_contains,
    region_mask,
    sample_box,
    sample_region,
    sampling_scope,
    scope_memo,
)
from .linalg import (
    DEFAULT_TOL,
    FieldTag,
    LinearMap,
    OrderedBasis,
    VectorSpace,
    is_gl,
    make_linear,
    row_reduce,
    scaled_abs_dets,
)
from .record import Record, record
from .report import (
    MIN_DET,
    RESIDUAL,
    CheckReport,
    det_record,
    failed_record,
    make_report,
    residual_record,
    vacuous_record,
)
from .tensors import make_tensor, on_slots

DEFAULT_SAMPLES = 200
DEFAULT_SEED = 42
DEFAULT_CHECK_TOL = 1e-9


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

    def overlaps_between(self, i: str, j: str) -> list:
        return [o for o in self.overlaps if o.frm == i and o.to == j]


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

    def edges_between(self, i: str, j: str) -> list:
        return [e for e in self.edges if e.overlap.frm == i and e.overlap.to == j]


@record
class TotalPoint(Record):
    """A point of the total space: base coordinates x in a chart and fiber
    coordinates v in that chart's trivialization."""

    chart: str
    x: np.ndarray
    v: np.ndarray


@record
class TensorFieldSpec(Record):
    """An (r,s)-tensor field on a bundle; a section is a (0,1)-field.

    rules are what a point must pass before the coefficients are read, in
    the order the pointwise definition meets them: a Pulling for a field
    pulled back, and each operand, whole, of a sum, multiple or product
    built from such a field. Other fields have none.
    """

    bundle: VectorBundleSpec
    r: int
    s: int
    per_chart: dict  # chart name -> tuple of fiber_dim^(r+s) Expr, radix order
    rules: tuple = ()


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


@record
class Pulling(Record):
    """One level of pulling back through the morphism M. At a point x of a
    source chart, M's base map evaluates, M's fiber map passes its rule
    (_fiber_map_rule), the base image is finite, and it passes the rules of
    the field pulled back, inner, on the assigned chart, starting with
    that chart's box."""

    M: BundleMorphismSpec
    inner: TensorFieldSpec
    tol: float | None
    error: type
    noun: str  # what the fiber map is: "Jacobian", "fiber map" or "frame matrix"


def _edge_subject(e: BundleEdge) -> str:
    return f"{e.overlap.frm}->{e.overlap.to}#{e.component}"


def _overlap_subject(o: OverlapSpec, comp: int) -> str:
    return f"{o.frm}->{o.to}#{comp}"


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
            tau_map = tau if isinstance(tau, SmoothMap) else make_smooth_map(tau, frm_box)
        except ShapeMismatch as exc:
            raise SpecError(f"bad coordinate change: {exc}", loc) from exc
        tau_map = SmoothMap(tau_map.components, frm_box)
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


LOCAL_CHART = "box"


def local_bundle(box, fiber_dim: int) -> VectorBundleSpec:
    """The trivial real bundle of rank fiber_dim over one open box: one
    chart, LOCAL_CHART, and no overlaps. Its fields are the box-local
    fields."""
    b = box if isinstance(box, Box) else make_box(box)
    return make_bundle(make_atlas(b.dim, [(LOCAL_CHART, b)], []), fiber_dim, FieldTag.REAL, [])


def make_morphism(source: VectorBundleSpec, target: VectorBundleSpec,
                  assignment: dict, base_map: dict, fiber_map: dict,
                  inverse: dict | None = None) -> BundleMorphismSpec:
    if source.field is not target.field:
        raise UnsupportedField("make_morphism needs a common scalar field")
    d1, d2 = source.fiber_dim, target.fiber_dim
    asg, bm, fm = {}, {}, {}
    for c in source.base.charts:
        name = c.name
        if name not in assignment or name not in base_map or name not in fiber_map:
            raise SpecError(f"morphism is missing data on chart '{name}'")
        target.base.chart(assignment[name])
        what = f"morphism data on '{name}'"
        comps = as_exprs(base_map[name], source.base.dim, what, SpecError)
        if len(comps) != target.base.dim:
            raise SpecError(
                f"base map on '{name}' has {len(comps)} components, "
                f"target base dim is {target.base.dim}")
        mat = tuple(as_exprs(row, source.base.dim, what, SpecError) for row in fiber_map[name])
        if len(mat) != d2 or any(len(row) != d1 for row in mat):
            raise SpecError(f"fiber map on '{name}' must be {d2}x{d1}")
        asg[name], bm[name], fm[name] = assignment[name], comps, mat
    inv = None
    if inverse is not None:
        inv = {}
        for c in target.base.charts:
            if c.name not in inverse:
                raise SpecError(f"declared inverse is missing chart '{c.name}'")
            src_chart, comps = inverse[c.name]
            source.base.chart(src_chart)
            comps = as_exprs(comps, target.base.dim, f"inverse on '{c.name}'", SpecError)
            if len(comps) != source.base.dim:
                raise SpecError(
                    f"inverse on '{c.name}' has {len(comps)} components, "
                    f"source base dim is {source.base.dim}")
            inv[c.name] = (src_chart, comps)
    return BundleMorphismSpec(source, target, asg, bm, fm, inv)


# ---------------------------------------------------------------------------
# Evaluation.


def find_edge(B: VectorBundleSpec, i: str, j: str, x) -> BundleEdge | None:
    for e in B.edges_between(i, j):
        if region_contains(e.overlap.region, x):
            return e
    return None


def transition_eval(B: VectorBundleSpec, i: str, j: str, x,
                    tol: float = DEFAULT_TOL) -> LinearMap:
    """Evaluate the transition matrix converting chart-j fiber coordinates
    to chart-i fiber coordinates, at chart-i base coordinates x: a point of
    chart i when i == j, else of a declared i->j overlap region."""
    fiber = B.fiber_space
    if i == j:
        point_in_box(x, B.base.chart(i).box, "base dim", f"chart '{i}'")
        return make_linear(fiber, fiber, np.eye(B.fiber_dim, dtype=B.field.dtype))
    edges = B.edges_between(i, j)

    def stage(t, X, rows):
        at, _ = _lookup(t, [edges], X, lambda k: DomainViolation(
            f"point {X[k].tolist()} is not in any declared {i}->{j} overlap region"))
        if edges:  # else every point failed above
            return t.matrices(at, [e.g for e in edges], X, B.field.dtype)

    L = make_linear(fiber, fiber, at_point(x, B.base.dim, "base dim", stage))
    if not is_gl(L, tol):
        raise CocycleViolation(
            f"transition {i}->{j} is singular at {np.asarray(x).tolist()}")
    return L


def change_chart(B: VectorBundleSpec, p: TotalPoint, j: str,
                 tol: float = DEFAULT_TOL) -> TotalPoint:
    """Rewrite a total-space point in another chart's coordinates."""
    if j == p.chart:
        return p
    i = p.chart
    edge = find_edge(B, i, j, p.x)
    if edge is None:
        raise DomainViolation(
            f"point {np.asarray(p.x).tolist()} is not in any declared {i}->{j} overlap region")
    y = eval_map(edge.overlap.tau, p.x)
    # Per the Transition Convention, v_j = g_ji(x_j) v_i.
    L = transition_eval(B, j, i, y, tol)
    return TotalPoint(j, y, L.matrix @ np.asarray(p.v, dtype=B.field.dtype))


def make_total_point(B: VectorBundleSpec, chart: str, x, v) -> TotalPoint:
    pt = point_in_box(x, B.base.chart(chart).box, "base dim", f"chart '{chart}'")
    vec = np.asarray(v, dtype=B.field.dtype)
    if vec.shape != (B.fiber_dim,):
        raise ShapeMismatch(f"fiber vector shape {vec.shape} does not match dim {B.fiber_dim}")
    return TotalPoint(chart, pt, vec)


# ---------------------------------------------------------------------------
# The sampled-identity harness. Every check suite runs its subjects through
# _sampled: each subject is a (name, points, data) triple, and consecutive
# subjects of one family (every edge of check_vb, say) are packed into one
# _Trial while their points stay within _PACK_ROWS. All the points of a pack
# go through the stages of the identity together, each stage one batched
# evaluation per distinct program, and the records are split back per
# subject, each as it would be alone.

_PACK_ROWS = 2048  # bounds the rows, and so the memory, of one pack


def _first_match(regions, X) -> np.ndarray:
    """Per point, the index of the first region in declaration order that
    contains it (find_edge's choice), or -1."""
    at = np.full(len(X), -1)
    for k, region in enumerate(regions):
        at[(at < 0) & region_mask(region, X)] = k
    return at


def _joined(t: _Trial, options, at) -> tuple:
    """One choice over the options of every pack subject in turn, from
    options[s], subject s's own list, and at, each row's index into its
    subject's list (-1 for none); and the options in that order."""
    if len(options) == 1:
        return at, options[0]
    offsets = np.cumsum([0] + [len(o) for o in options[:-1]])
    return np.where(at >= 0, at + offsets[t.subject], -1), [o for opts in options for o in opts]


def _lookup(t: _Trial, options, Y, why=None) -> tuple:
    """Per row of Y, the first of its subject's options (overlaps or edges,
    options[s] for pack subject s) whose region holds it, as find_edge
    chooses, or none: a choice over the options of every subject in turn
    (_joined), and those options. A row in none fails with why, or with
    no why leaves the trial. Each distinct region is masked once, over
    every row of the pack."""
    if len(options) == 1:
        at, chosen = _first_match([o.region for o in options[0]], Y), options[0]
    else:
        index: dict = {}  # id(region) -> (its row in hits, region)
        table = np.full((max(map(len, options)), len(options)), -1)  # [k, s]: option k of s
        for s, opts in enumerate(options):
            for k, o in enumerate(opts):
                table[k, s] = index.setdefault(id(o.region), (len(index), o.region))[0]
        hits = np.zeros((len(index) + 1, len(Y)), dtype=bool)  # row -1: no option k
        for i, region in index.values():
            hits[i] = region_mask(region, Y)
        at = np.full(len(Y), -1)
        for k, region_of in enumerate(table):
            at[(at < 0) & hits[region_of[t.subject], t.rows]] = k
        at, chosen = _joined(t, options, at)
    if why is None:
        t.skip(t.rows, at < 0)
    else:
        t.fail(t.rows, at < 0, why)
    return at, chosen


def _live_only(t: _Trial, fn, A, shape) -> np.ndarray:
    """fn on the live samples whose values are all finite, NaN elsewhere;
    for the LAPACK calls that reject non-finite input."""
    ok = t.live & row_reduce(np.logical_and, np.isfinite(A))
    if not ok.any():
        return np.full((len(A),) + shape, np.nan)
    part = fn(A[ok])
    out = np.full((len(A),) + shape, np.nan, dtype=part.dtype)
    out[ok] = part
    return out


def _packs(subjects):
    """The subjects in order, in runs whose points total at most
    _PACK_ROWS; a larger subject is a run of its own."""
    pack, rows = [], 0
    for s in subjects:
        if pack and rows + len(s[1]) > _PACK_ROWS:
            yield pack
            pack, rows = [], 0
        pack.append(s)
        rows += len(s[1])
    if pack:
        yield pack


def _sampled(checks, subjects, seed: int, evaluate, samples: int | None = None) -> list:
    """The records of the sampled identities of subjects, an iterable of
    (name, points, data), in order.

    The trials take their programs from the sampling scope's cache (see
    geometry.scope_memo), which the suites of one check command share.
    checks holds (check, kind, tol) for each per-row value array that
    evaluate(trial, data) returns, in record order, for a trial over one
    pack of subjects (_packs) and data, their data in order. A failed
    sample, or a non-finite value at a live one, fails the subject: one
    failed record, of its check's kind, under its first residual check
    (else its first check), noting the subject's first such sample in
    sample order. Triple checks pass samples, the count a failed record
    reports; for them only samples that stayed live count, and none makes
    the subject vacuous.
    """
    name, kind, tol = next((c for c in checks if c[1] == RESIDUAL), checks[0])
    records = []
    for pack in _packs(subjects):
        names, pts, data = zip(*pack)
        X = pts[0] if len(pts) == 1 else np.vstack(pts)
        t = _Trial(X, scope_memo("programs"), [len(p) for p in pts], _PACK_ROWS)
        with np.errstate(all="ignore"):  # failed samples compute on garbage
            values = evaluate(t, data)
        for (_, k, _), v in zip(checks, values):
            label = "residual" if k == RESIDUAL else "scaled determinant"
            t.fail(t.rows, ~np.isfinite(v),
                   lambda j, label=label: f"non-finite {label} at {X[j].tolist()}")
        for subject, b in zip(names, t.blocks):
            failed = np.flatnonzero(t.cause[b] >= 0)
            live = t.live[b]
            count = int(live.sum())
            if failed.size:
                i = b.start + failed[0]
                why = t.why(i)
                note = (why if isinstance(why, str)
                        else f"evaluation failed at {X[i].tolist()}: {why}")
                records.append(failed_record(name, subject, b.stop - b.start if samples is None
                                             else samples, seed, tol, note, kind))
            elif samples is not None and count == 0:
                records.append(vacuous_record(name, subject, seed, tol))
            else:
                records += [residual_record(c, subject, count, seed, c_tol,
                                            np.max(v[b][live], initial=0.0))
                            if c_kind == RESIDUAL else
                            det_record(c, subject, count, seed, c_tol,
                                       np.min(v[b][live], initial=np.inf))
                            for (c, c_kind, c_tol), v in zip(checks, values)]
    return records


def _reverse_g(t: _Trial, backs, Y, dtype) -> np.ndarray:
    """g_ji at each image Y = tau_ij(x), from the first of its subject's
    j->i edges (backs[s] for pack subject s) that holds it, as find_edge
    chooses; a point in none fails."""
    def why(k):
        o = backs[t.subject[k]][0].overlap
        return f"tau image {Y[k].tolist()} is in no declared {o.frm}->{o.to} region"

    at, options = _lookup(t, backs, Y, why)
    return t.matrices(at, [b.g for b in options], Y, dtype)


def _triples(charts, between, closing, samples: int, seed: int):
    """The subjects of the triple checks: each chart triple i->j->k with
    parts between(i, j), between(j, k) and between(*closing(i, k)), its
    points those of every i->j part's region in turn; data (ij, jk, the
    closing parts, the i->j part of each point)."""
    for i, j, k in permutations(charts, 3):
        ij, jk, last = between(i, j), between(j, k), between(*closing(i, k))
        if ij and jk and last:
            pts = [sample_region(p.region, samples, seed) for p in ij]
            yield (f"{i}->{j}->{k}", np.vstack(pts),
                   (ij, jk, last, np.repeat(np.arange(len(pts)), [len(p) for p in pts])))


def _max_abs(A) -> np.ndarray:
    return row_reduce(np.maximum, np.abs(A))


# ---------------------------------------------------------------------------
# Atlas and bundle check suites.


@sampling_scope()
def check_base_atlas(spec: BaseAtlasSpec, samples: int = DEFAULT_SAMPLES,
                     tol: float = DEFAULT_CHECK_TOL, seed: int = DEFAULT_SEED) -> CheckReport:
    """Sampled verification of the atlas identities.

    Per overlap component: tau lands in the reverse region, tau_ji(tau_ij(x))
    returns x, and the Jacobian of tau is invertible. Per chart triple with
    the needed overlaps: tau_jk(tau_ij(x)) = tau_ik(x) where memberships
    allow.
    """
    pairs = ((_overlap_subject(o, comp), sample_region(o.region, samples, seed),
              (o, spec.overlaps_between(o.to, o.frm)))
             for frm, to in sorted({(o.frm, o.to) for o in spec.overlaps})
             for comp, o in enumerate(spec.overlaps_between(frm, to)))

    def pair(t, data):
        X = t.pts
        Y, J = t.maps_and_jacobians(t.subject, [o.tau for o, _ in data], X)

        def why(j):
            o = data[t.subject[j]][0]
            return f"tau image {Y[j].tolist()} escapes every declared {o.to}->{o.frm} region"

        back_at, backs = _lookup(t, [reverse for _, reverse in data], Y, why)
        back = t.maps(back_at, [r.tau for r in backs], Y)
        return _max_abs(back - X), scaled_abs_dets(J)

    def triple(t, data):
        X = t.pts
        ij, jk, ik, part = zip(*data)
        at, ij = _joined(t, ij, np.concatenate(part))
        Y = t.maps(at, [o.tau for o in ij], X)
        step2, jk = _lookup(t, jk, Y)
        direct, ik = _lookup(t, ik, X)
        Z = t.maps(step2, [o.tau for o in jk], Y)
        return (_max_abs(Z - t.maps(direct, [o.tau for o in ik], X)),)

    triples = _triples([c.name for c in spec.charts], spec.overlaps_between, lambda i, k: (i, k),
                       samples, seed)
    records = _sampled([("tau_inverse", RESIDUAL, tol), ("tau_jacobian", MIN_DET, DEFAULT_TOL)],
                       pairs, seed, pair)
    records += _sampled([("tau_triple", RESIDUAL, tol)], triples, seed, triple,
                        samples=samples)
    return make_report("base_atlas", records)


@sampling_scope()
def check_vb(B: VectorBundleSpec, samples: int = DEFAULT_SAMPLES,
             tol: float = DEFAULT_CHECK_TOL, seed: int = DEFAULT_SEED) -> CheckReport:
    """Sampled verification of VB structure: GL values, pair and triple cocycles."""
    d, dtype = B.fiber_dim, B.field.dtype
    eye = np.eye(d, dtype=dtype)
    pairs = ((_edge_subject(e), sample_region(e.region, samples, seed),
              (e, B.edges_between(e.overlap.to, e.overlap.frm)))
             for e in B.edges)  # by chart pair, then component (make_bundle's order)

    def pair(t, data):
        es, backs = zip(*data)
        G = t.matrices(t.subject, [e.g for e in es], t.pts, dtype)
        G_back = _reverse_g(t, backs, t.maps(t.subject, [e.overlap.tau for e in es], t.pts), dtype)
        return scaled_abs_dets(G), _max_abs(G @ G_back - eye)

    def triple(t, data):
        X = t.pts
        ij, jk, ki, part = zip(*data)
        at, ij = _joined(t, ij, np.concatenate(part))
        G1 = t.matrices(at, [e.g for e in ij], X, dtype)
        Y = t.maps(at, [e.overlap.tau for e in ij], X)
        e2, jk = _lookup(t, jk, Y)
        G2 = t.matrices(e2, [e.g for e in jk], Y, dtype)
        Z = t.maps(e2, [e.overlap.tau for e in jk], Y)
        e3, ki = _lookup(t, ki, Z)
        G3 = t.matrices(e3, [e.g for e in ki], Z, dtype)
        return (_max_abs(G1 @ G2 @ G3 - eye),)

    triples = _triples([c.name for c in B.base.charts], B.edges_between, lambda i, k: (k, i),
                       samples, seed)
    records = _sampled([("transition_gl", MIN_DET, DEFAULT_TOL), ("pair_cocycle", RESIDUAL, tol)],
                       pairs, seed, pair)
    records += _sampled([("triple_cocycle", RESIDUAL, tol)], triples, seed, triple,
                        samples=samples)
    return make_report("vector_bundle", records)


# ---------------------------------------------------------------------------
# Tensor fields and sections. A section of B is a (0,1)-field: the bundle of
# (0,1)-tensors on B's fibers has B's transitions.


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


def zero_section(B: VectorBundleSpec) -> TensorFieldSpec:
    zero = tuple(num_literal(0.0) for _ in range(B.fiber_dim))
    return TensorFieldSpec(B, 0, 1, {c.name: zero for c in B.base.charts})


def _field_rows(t, A: TensorFieldSpec, chart: str, X, rows) -> np.ndarray:
    """The field's coefficients on one chart at every point: the chart's
    box, A's rules in order, then the coefficients."""
    t.in_box(A.bundle.base.chart(chart).box, X, rows, f"chart '{chart}'")
    for rule in A.rules:
        if isinstance(rule, Pulling):
            _pulling(t, rule, chart, X, rows)
        else:
            _field_values(t, rule, chart, X, rows)
    return t.exprs(A.per_chart[chart], X, rows).astype(A.bundle.field.dtype, copy=False)


def _field_values(t, A: TensorFieldSpec, chart: str, X, rows) -> np.ndarray:
    """field_eval's coefficients at every point: finite ones."""
    C = _field_rows(t, A, chart, X, rows)
    t.finite(C, X, rows, "field value")
    return C


def _fiber_map_rule(t, M: BundleMorphismSpec, chart: str, X, rows, tol: float | None,
                    error: type, noun: str) -> None:
    """The fiber-map rule at the points X of a source chart of M: M's
    fiber map evaluates, is finite and, unless tol is None, is
    nonsingular at tol (else error, naming the noun and the point)."""
    phi = t.matrix(M.fiber_map[chart], X, rows, M.source.field.dtype)
    t.finite(phi, X, rows, noun)
    if tol is not None:
        t.fail(rows, scaled_abs_dets(phi) <= tol,
               lambda j: error(f"{noun} singular at {X[j].tolist()}"))


def _pulling(t, P: Pulling, chart: str, X, rows) -> None:
    """P's rules at the points X of a source chart, in Pulling's order."""
    M = P.M
    Y = t.exprs(M.base_map[chart], X, rows)
    _fiber_map_rule(t, M, chart, X, rows, P.tol, P.error, P.noun)
    t.finite(Y, X, rows, "map value")
    _field_values(t, P.inner, M.assignment[chart], Y, rows)


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


@sampling_scope()
def check_section(S: TensorFieldSpec, samples: int = DEFAULT_SAMPLES,
                  tol: float = DEFAULT_CHECK_TOL, seed: int = DEFAULT_SEED) -> CheckReport:
    """Cross-chart compatibility of a field of any valence at samples:
    S_i(x) = T_ij(x) S_j(tau_ij(x)), where T_ij applies g_ij(x) on each
    covector slot and, on each vector slot, the inverse-transpose of
    g_ij(x) by the cocycle, g_ji(tau_ij(x)) transposed (as in check_vb)."""
    B = S.bundle
    slots, dtype = (B.fiber_dim,) * (S.r + S.s), B.field.dtype
    pairs = ((_edge_subject(e), sample_region(e.region, samples, seed),
              (e, B.edges_between(e.overlap.to, e.overlap.frm)))
             for e in B.edges if e.overlap.frm in S.per_chart and e.overlap.to in S.per_chart)

    def on_charts(t, charts, X):
        """S on each subject's chart in charts: one call per distinct chart."""
        return t.chosen(t.subject, charts, lambda chart: chart, X, (len(S.per_chart[charts[0]]),),
                        dtype, lambda chart, X, rows: _field_rows(t, S, chart, X, rows))

    def evaluate(t, data):
        X = t.pts
        es, backs = zip(*data)
        lhs = on_charts(t, [e.overlap.frm for e in es], X)
        Y = t.maps(t.subject, [e.overlap.tau for e in es], X)
        G = t.matrices(t.subject, [e.g for e in es], X, dtype)
        C = on_charts(t, [e.overlap.to for e in es], Y).reshape((len(X),) + slots)
        mats = [G] * S.s
        if S.r:
            mats = [_reverse_g(t, backs, Y, dtype).transpose(0, 2, 1)] * S.r + mats
        return (_max_abs(lhs - on_slots(C, mats).reshape(lhs.shape)),)

    records = _sampled([("section_compat", RESIDUAL, tol)], pairs, seed, evaluate)
    if not records:
        records.append(vacuous_record("section_compat", "no shared overlaps", seed, tol))
    return make_report("section", records)


def _check_field_pair(A: TensorFieldSpec, B: TensorFieldSpec, op: str,
                      same_valence: bool) -> None:
    if A.bundle != B.bundle:
        raise ShapeMismatch(f"{op}: fields live on different bundles")
    if set(A.per_chart) != set(B.per_chart):
        raise ShapeMismatch(f"{op}: fields cover different charts")
    if same_valence and (A.r, A.s) != (B.r, B.s):
        raise ShapeMismatch(f"{op}: valences differ (({A.r},{A.s}) vs ({B.r},{B.s}))")


def _operand_rules(*operands) -> tuple:
    """The rules of a field built from operands: each operand whole, in
    order, once any of them has rules of its own."""
    return operands if any(A.rules for A in operands) else ()


def field_add(A: TensorFieldSpec, B: TensorFieldSpec) -> TensorFieldSpec:
    _check_field_pair(A, B, "field_add", same_valence=True)
    out = {name: tuple(fold_add(a, b)
                       for a, b in zip(A.per_chart[name], B.per_chart[name]))
           for name in sorted(A.per_chart)}
    return TensorFieldSpec(A.bundle, A.r, A.s, out, _operand_rules(A, B))


def field_smul(c, A: TensorFieldSpec) -> TensorFieldSpec:
    """Multiply by a constant. Expressions are real-valued, so c must be
    real (a complex number with zero imaginary part included) on complex
    bundles too."""
    z = complex(c)
    if z.imag != 0:
        raise ShapeMismatch(f"field_smul: scalar {c} is not real; expressions are real-valued")
    if not np.isfinite(z.real):
        raise ShapeMismatch(f"field_smul: scalar {c} is not finite")
    lit = num_literal(z.real)
    out = {name: tuple(fold_mul(lit, e) for e in comps)
           for name, comps in sorted(A.per_chart.items())}
    return TensorFieldSpec(A.bundle, A.r, A.s, out, _operand_rules(A))


def field_fmul(f: dict, A: TensorFieldSpec) -> TensorFieldSpec:
    """Multiply by a scalar function given as one expression per chart."""
    if set(f) != set(A.per_chart):
        raise ShapeMismatch("field_fmul: function charts do not match field charts")
    out = {}
    for name in sorted(A.per_chart):
        (scalar,) = as_exprs((f[name],), A.bundle.base.dim, f"scalar on '{name}'", ShapeMismatch)
        out[name] = tuple(fold_mul(scalar, e) for e in A.per_chart[name])
    return TensorFieldSpec(A.bundle, A.r, A.s, out, _operand_rules(A))


# ---------------------------------------------------------------------------
# Frames: morphisms from B's fiber over one chart, fiber map the frame matrix.


def make_frame(B: VectorBundleSpec, chart: str, columns) -> BundleMorphismSpec:
    """The frame on chart whose sections are columns, d lists of d entries."""
    box = B.base.chart(chart).box
    cols = tuple(as_exprs(col, B.base.dim, "frame entry", SpecError) for col in columns)
    if len(cols) != B.fiber_dim or any(len(c) != B.fiber_dim for c in cols):
        raise SpecError(f"a frame needs {B.fiber_dim} columns of {B.fiber_dim} components")
    over = make_bundle(make_atlas(B.base.dim, [(chart, box)], []), B.fiber_dim, B.field, [])
    return BundleMorphismSpec(over, B, {chart: chart}, {chart: identity_map(box).components},
                              {chart: tuple(zip(*cols))})


def frame_from_trivialization(B: VectorBundleSpec, chart: str,
                              basis: OrderedBasis) -> BundleMorphismSpec:
    """The frame of constant sections whose fiber values are the basis vectors."""
    if basis.space.dim != B.fiber_dim:
        raise ShapeMismatch(
            f"basis dim {basis.space.dim} does not match fiber dim {B.fiber_dim}")
    if np.any(np.imag(basis.vectors) != 0):
        raise UnsupportedField("constant frames are stored as expressions, which are real-valued")
    return make_frame(B, chart, [[num_literal(v) for v in np.real(vec)] for vec in basis.vectors])


def _frame_chart(F: BundleMorphismSpec) -> ChartSpec:
    """The chart of frame F: a frame's source has one chart."""
    charts = F.source.base.charts
    if len(charts) != 1:
        raise SpecError(f"a frame's source has one chart; this morphism's has {len(charts)}")
    return charts[0]


def frame_matrix_at(F: BundleMorphismSpec, x) -> np.ndarray:
    """The d x d matrix whose columns are the frame sections at x."""
    c = _frame_chart(F)

    def stage(t, X, rows):
        t.in_box(c.box, X, rows, f"chart '{c.name}'")
        return t.matrix(F.fiber_map[c.name], X, rows, F.source.field.dtype)

    return at_point(x, c.box.dim, "base dim", stage)


@sampling_scope()
def check_frame(F: BundleMorphismSpec, samples: int = DEFAULT_SAMPLES,
                tol: float = DEFAULT_TOL, seed: int = DEFAULT_SEED) -> CheckReport:
    """Invertibility of the frame matrix across the chart."""
    c = _frame_chart(F)

    def evaluate(t, _):
        return (scaled_abs_dets(t.matrix(F.fiber_map[c.name], t.pts, t.rows,
                                         F.source.field.dtype)),)

    records = _sampled([("frame_gl", MIN_DET, tol)],
                       [(c.name, sample_box(c.box, samples, seed), None)], seed, evaluate)
    return make_report("frame", records)


def dual_frame(F: BundleMorphismSpec, samples: int = 25, tol: float = DEFAULT_TOL,
               seed: int = DEFAULT_SEED) -> BundleMorphismSpec:
    """Dual frame: column i of the result is row i of the pointwise inverse.

    The inverse is taken symbolically (adjugate over determinant), so the
    dual frame is again an expression-backed frame, on the dual bundle.
    Pairing dual column i against frame column j gives the Kronecker delta.
    """
    from . import symmat
    from .constructions import dual_bundle

    c = _frame_chart(F)
    at_points(sample_box(c.box, samples, seed), lambda t, X, rows: _fiber_map_rule(
        t, F, c.name, X, rows, tol, SingularFrame, "frame matrix"))
    inv = symmat.mat_inverse(F.fiber_map[c.name])
    return replace(F, target=dual_bundle(F.target), fiber_map={c.name: symmat.mat_transpose(inv)})
