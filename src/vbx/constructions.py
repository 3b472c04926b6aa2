"""Bundles built from bundles: tensor, dual, Hom, sums, products, pullbacks.

Every constructor returns an ordinary VectorBundleSpec whose transition
matrices are expression matrices derived symbolically from the inputs, so
the output serializes and re-checks like a hand-written spec. A derivation
note (construction name and parameters) rides along for provenance when
saved to disk.

Fields are pulled back through bundle morphisms by one routine, _pulled:
on each source chart, symmat.mat_pullback of the fiber map times the field
with the base map substituted. Pulling back along a smooth map f is the
pullback through the morphism from the trivial bundle over f's box whose
base map is f and whose fiber map is the Jacobian J_f (f.partials).
A frame is a morphism too (spec.make_frame), and a field's local
expression in a frame is the pullback through it.

Transition matrices follow the Transition Convention of the bundle core
throughout; flattened fibers (tensor and Hom bundles) use the same radix
layout as the tensor algebra, row-major over the leading index first.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cache, partial
from itertools import product

import numpy as np

from .bundles import (
    DEFAULT_CHECK_TOL,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    _edge_subject,
    _frame_chart,
    _live_only,
    _lookup,
    _max_abs,
    _sampled,
    check_section,
)
from .calculus import SmoothMap, at_points, identity_map, make_smooth_map, shaped
from .coords import Box, FieldTag, box_inside, in_regions, inside, make_box
from .dets import DEFAULT_TOL, scaled_abs_dets
from .errors import (
    BaseMismatch,
    ChartAssignmentError,
    DomainViolation,
    EvalError,
    NotADiffeomorphism,
    NotAnIsomorphism,
    ShapeMismatch,
    SingularFrame,
    SpecError,
    UnsupportedField,
)
from .expr import Var, _as_expr, as_exprs, compile_exprs, subst_all
from .geometry import sample_box, sample_region, sampling_scope
from .intervals import box_covered, enclose, intersect_boxes
from .record import Record, record
from .report import MIN_DET, RESIDUAL, make_report
from .spec import (
    BaseAtlasSpec,
    BundleEdge,
    BundleMorphismSpec,
    OverlapSpec,
    TensorFieldSpec,
    VectorBundleSpec,
    _field_values,
    make_atlas,
    make_bundle,
    tensor_dim,
)
from . import symmat


def _edge_pairs(B1: VectorBundleSpec, B2: VectorBundleSpec, op: str):
    """The edges of B1 and B2 side by side, over one base and overlap list."""
    if B1.base != B2.base:
        raise BaseMismatch(f"{op} needs structurally equal base atlases")
    if B1.field is not B2.field:
        raise UnsupportedField(f"{op} needs a common scalar field")
    for e1, e2 in zip(B1.edges, B2.edges):
        if e1.overlap != e2.overlap:
            raise BaseMismatch(f"{op}: overlap structures disagree")
        yield e1, e2


def _inverse_transpose(B: VectorBundleSpec, e: BundleEdge) -> tuple:
    """e's inverse-transpose by the cocycle, g_ij(x)^-1 = g_ji(tau_ij(x)):
    the paired reverse edge's matrix with tau_ij substituted, transposed."""
    backs = B.edges_between(e.overlap.to, e.overlap.frm)
    rev = backs[_reverse_part(e.overlap, [b.overlap for b in backs])]
    return symmat.mat_transpose(symmat.mat_subst(rev.g, e.overlap.tau.components))


def _crossings(B: VectorBundleSpec, i: str, j: str) -> tuple:
    """The ways from chart i to chart j of B, as edges: B's i->j overlap
    components or, from a chart to itself, the identity over its box as the
    one component."""
    if i != j:
        return B.edges_between(i, j)
    box = B.base.chart(i).box
    return (BundleEdge(OverlapSpec(i, i, (box,), identity_map(box)),
                       symmat.mat_identity(B.fiber_dim), 0),)


# ---------------------------------------------------------------------------
# Algebraic constructions over a fixed base.


def tensor_bundle(B: VectorBundleSpec, r: int, s: int) -> VectorBundleSpec:
    """Bundle of (r,s)-tensors on the fibers of B.

    The transition over each overlap is the matrix, in the radix basis, of
    the change of tensor components from the to-chart to the from-chart:
    the pullback along the inverse transition, which works out to the
    Kronecker product of r copies of the inverse-transpose followed by s
    copies of the transition itself. The inverse is the cocycle's, so for
    r > 0 each overlap pairs with one reverse component, as in tangent_bundle.
    """
    dim = tensor_dim(B.fiber_dim, r, s, "tensor")
    transitions = []
    for e in B.edges:
        vec_part = (symmat.mat_kron_power(_inverse_transpose(B, e), r) if r
                    else symmat.mat_identity(1))
        cov_part = symmat.mat_kron_power(e.g, s)
        transitions.append((e.overlap.frm, e.overlap.to, symmat.mat_kron(vec_part, cov_part)))
    return make_bundle(B.base, dim, B.field, transitions,
                       derivation={"construction": "tensor", "r": r, "s": s})


def dual_bundle(B: VectorBundleSpec) -> VectorBundleSpec:
    out = tensor_bundle(B, 1, 0)
    return replace(out, derivation={"construction": "dual"})


def hom_bundle(B1: VectorBundleSpec, B2: VectorBundleSpec) -> VectorBundleSpec:
    """Bundle of fiberwise linear maps from B1 to B2 over the same base.

    A fiber element is a d2 x d1 matrix flattened row-major (target row
    first); the transition conjugates, alpha -> G2 alpha G1^(-1), which
    flattens to kron(G2, inverse-transpose of G1), G1^(-1) the cocycle's.
    """
    transitions = [(e1.overlap.frm, e1.overlap.to,
                    symmat.mat_kron(e2.g, _inverse_transpose(B1, e1)))
                   for e1, e2 in _edge_pairs(B1, B2, "hom_bundle")]
    return make_bundle(B1.base, B1.fiber_dim * B2.fiber_dim, B1.field, transitions,
                       derivation={"construction": "hom"})


def whitney_sum(B1: VectorBundleSpec, B2: VectorBundleSpec) -> VectorBundleSpec:
    """Fiberwise direct sum over a shared base; transitions are block-diagonal."""
    transitions = [(e1.overlap.frm, e1.overlap.to, symmat.mat_block_diag(e1.g, e2.g))
                   for e1, e2 in _edge_pairs(B1, B2, "whitney_sum")]
    return make_bundle(B1.base, B1.fiber_dim + B2.fiber_dim, B1.field, transitions,
                       derivation={"construction": "whitney_sum"})


# ---------------------------------------------------------------------------
# Products and induced bundles: new bases.


def direct_product(B1: VectorBundleSpec, B2: VectorBundleSpec) -> VectorBundleSpec:
    """Bundle over the product base with fiberwise direct-sum fibers.

    Product charts pair the factor charts, named `a|b`; a factor name that
    already holds `|` is bracketed, so products nest: `(east|u)|left`.
    A product overlap combines a crossing of each factor (_crossings: an
    overlap component, or the identity when the factor chart repeats), so
    its transition is block-diagonal in the factor transitions.
    """
    if B1.field is not B2.field:
        raise UnsupportedField("direct_product needs a common scalar field")
    m1, m2 = B1.base.dim, B2.base.dim
    shift = tuple(Var(m1 + k) for k in range(1, m2 + 1))  # B2's coordinates follow B1's

    def pair_name(n1: str, n2: str) -> str:
        return "|".join(f"({n})" if "|" in n else n for n in (n1, n2))

    pairs = list(product(B1.base.charts, B2.base.charts))
    charts = [(pair_name(c1.name, c2.name), Box(c1.box.lo + c2.box.lo, c1.box.hi + c2.box.hi))
              for c1, c2 in pairs]
    overlaps = []
    transitions = []
    for (c1, c2), (d1, d2) in product(pairs, repeat=2):
        if c1.name == d1.name and c2.name == d2.name:
            continue
        frm, to = pair_name(c1.name, c2.name), pair_name(d1.name, d2.name)
        for e1, e2 in product(_crossings(B1, c1.name, d1.name), _crossings(B2, c2.name, d2.name)):
            region = tuple(Box(a.lo + b.lo, a.hi + b.hi) for a in e1.region for b in e2.region)
            tau = e1.overlap.tau.components + subst_all(e2.overlap.tau.components, shift)
            overlaps.append((frm, to, region, tau))
            g = symmat.mat_block_diag(e1.g, symmat.mat_subst(e2.g, shift))
            transitions.append((frm, to, g))
    base = make_atlas(m1 + m2, charts, overlaps)
    return make_bundle(base, B1.fiber_dim + B2.fiber_dim, B1.field, transitions,
                       derivation={"construction": "direct_product"})


_PRECONDITION_SAMPLES = 25  # of an overlap's pairing, a pullback's or dual frame's preconditions
_INDUCED_SAMPLES = 50  # samples of each chart and overlap of an induced bundle's new base
_ROUNDTRIP_TOL = 1e-8  # the largest round-trip error of a pullback's declared inverse


def _image_part(o: OverlapSpec, f: SmoothMap, regions, what: str, error: type, samples: int) -> int:
    """The index of the first of regions (the what = `i->j` overlap
    components) to hold f's image of overlap o's first sample, once it
    holds the images of all the others too; else error."""
    images = at_points(sample_region(o.region, samples, DEFAULT_SEED),
                       lambda t, X, rows: t.map(f, X, rows))
    hits = in_regions(images, regions, np.arange(len(regions))[:, None])
    if not hits[:, 0].any():
        raise error(f"image {images[0].tolist()} of overlap {o.frm}->{o.to} lies in no "
                    f"declared {what} overlap region")
    k = int(hits[:, 0].argmax())
    if not hits[k].all():
        raise error(f"overlap {o.frm}->{o.to} maps into more than one {what} component; "
                    "split the overlap")
    return k


def induced_bundle(B: VectorBundleSpec, base: BaseAtlasSpec, assignment: dict,
                   maps: dict) -> VectorBundleSpec:
    """Pull the bundle back along a smooth map of bases.

    The map is given per chart of the new base: assignment names the chart
    of B's base that the image lies in, and maps gives the coordinate
    expressions of the map into that chart. Transitions of the result are
    B's transitions with the map substituted in; over an overlap whose two
    charts share an assigned target chart the transition is the identity.
    """
    for c in base.charts:
        if c.name not in assignment:
            raise SpecError(f"chart '{c.name}' has no assigned target chart")
        if c.name not in maps:
            raise SpecError(f"chart '{c.name}' has no map components")
    for what, given in (("assignment", assignment), ("map", maps)):
        if extra := sorted(given.keys() - {c.name for c in base.charts}):
            raise SpecError(f"{what} names chart '{extra[0]}', which the new base does not have")
    smooth = {}
    for c in base.charts:
        target_chart = B.base.chart(assignment[c.name])
        comps = tuple(_as_expr(e) for e in maps[c.name])
        if len(comps) != B.base.dim:
            raise SpecError(
                f"map on '{c.name}' has {len(comps)} components, target base dim is {B.base.dim}")
        f = make_smooth_map(comps, c.box)

        def stage(t, X, rows):
            Y, box = t.map(f, X, rows), target_chart.box
            t.fail(rows, ~inside(Y, box.lo, box.hi), lambda j: ChartAssignmentError(
                f"image {Y[j].tolist()} of chart '{c.name}' point {X[j].tolist()} "
                f"escapes assigned chart '{target_chart.name}'"))

        at_points(sample_box(c.box, _INDUCED_SAMPLES, DEFAULT_SEED), stage)
        smooth[c.name] = f

    transitions = []
    for o in base.overlaps:
        ci, cj = assignment[o.frm], assignment[o.to]
        if ci == cj:
            transitions.append((o.frm, o.to, symmat.mat_identity(B.fiber_dim)))
            continue
        f_i, edges = smooth[o.frm], B.edges_between(ci, cj)
        k = _image_part(o, f_i, [e.overlap.region for e in edges], f"{ci}->{cj}",
                        ChartAssignmentError, _INDUCED_SAMPLES)
        transitions.append((o.frm, o.to, symmat.mat_subst(edges[k].g, f_i.components)))
    return make_bundle(base, B.fiber_dim, B.field, transitions,
                       derivation={"construction": "induced",
                                   "assignment": {k: assignment[k] for k in sorted(assignment)}})


# ---------------------------------------------------------------------------
# Base restriction.


_CERTIFY_DEPTH = 6  # halvings of an overlap region box to certify its image
_PAIR_DEPTH = 3  # halvings of a certified box to pair it with a reverse overlap
_NUDGE_ROUNDS = 4  # one-ulp inward nudges that absorb rounding in a round trip


def _bisect(boxes: list, depth: int, accept) -> list:
    """accept's results for boxes and, where a box is not taken, for its
    halves across its widest side, down to depth halvings, in depth-first
    order. accept(lo, hi) takes a level's boxes as rows of (n, dim) arrays
    and returns the mask of those it takes and their results in row order."""
    if not boxes:
        return []
    lo, hi = np.array([b.lo for b in boxes]), np.array([b.hi for b in boxes])
    place = np.arange(len(boxes)) << depth  # a box's place in depth-first order
    found = []
    for level in range(depth + 1):
        took, results = accept(lo, hi)
        found += zip(place[took].tolist(), results)
        lo, hi, place = lo[~took], hi[~took], place[~took]
        if level == depth or not len(lo):
            break
        axis = np.argmax(hi - lo, axis=1)[:, None] == np.arange(lo.shape[1])
        with np.errstate(invalid="ignore"):  # -inf + inf: a box with no midpoint
            mid = 0.5 * (lo + hi)
        ok = np.all(~axis | (lo < mid) & (mid < hi), axis=1)
        lo, hi, place, axis, mid = lo[ok], hi[ok], place[ok], axis[ok], mid[ok]
        lo, hi = np.concatenate([lo, np.where(axis, mid, lo)]), np.concatenate(
            [np.where(axis, mid, hi), hi])
        place = np.concatenate([place, place + (1 << (depth - level - 1))])
    return [r for _, r in sorted(found, key=lambda pr: pr[0])]


def _boxes(lo, hi) -> list:
    return [Box(tuple(l), tuple(h)) for l, h in zip(lo.tolist(), hi.tolist())]


def _certified_into(tau, target: Box, lo, hi):
    """The boxes whose tau image provably sits inside target."""
    elo, ehi, bad = enclose(tau, lo, hi)
    took = ~bad & np.all((elo >= target.lo) & (ehi <= target.hi), axis=1)
    return took, _boxes(lo[took], hi[took])


def _paired(tau, reverse, target: Box, lo, hi):
    """The mask of boxes that pair with a reverse overlap component, and
    (box, reverse index, image) for each: the box's interval image sits
    inside target and the component's region, and the round trip through
    the reverse coordinate change lands back inside the box, which may be
    nudged inward by an ulp a round to absorb rounding."""
    took = np.zeros(len(lo), dtype=bool)
    pairs = {}
    for ridx, rtau, region in reverse:
        rows = np.flatnonzero(~took)
        cl, ch = lo[rows], hi[rows]
        for _ in range(_NUDGE_ROUNDS):
            if not len(rows):
                break
            elo, ehi, bad = enclose(tau, cl, ch)
            ok = ~bad & np.all((elo < ehi) & (elo >= target.lo) & (ehi <= target.hi), axis=1)
            ok[ok] = [box_covered(e, region) for e in _boxes(elo[ok], ehi[ok])]
            rlo, rhi, rbad = enclose(rtau, elo, ehi)
            ok &= ~rbad
            done = ok & np.all((rlo >= cl) & (rhi <= ch), axis=1)
            for i, cand, image in zip(rows[done], _boxes(cl[done], ch[done]),
                                      _boxes(elo[done], ehi[done])):
                pairs[i] = (cand, ridx, image)
            took[rows[done]] = True
            nlo = np.where(rlo < cl, np.nextafter(cl, ch), cl)
            nhi = np.where(rhi > ch, np.nextafter(ch, cl), ch)
            keep = ok & ~done & np.all(nlo < nhi, axis=1)
            rows, cl, ch = rows[keep], nlo[keep], nhi[keep]
    return took, [pairs[i] for i in np.flatnonzero(took)]


def base_restriction(B: VectorBundleSpec, regions: dict) -> VectorBundleSpec:
    """Restrict the base to sub-boxes of (a subset of) the charts.

    Charts absent from regions are dropped. Each surviving overlap region
    is shrunk to a certified union of boxes: interval evaluation of the
    coordinate change shows the image stays inside the other restricted
    chart and inside the reverse overlap's surviving region, bisecting
    where a whole box cannot be certified. The result under-approximates
    the true restricted overlap. Bounds round to nearest, so the
    certificate holds up to floating-point rounding.
    """
    chart_names = {c.name for c in B.base.charts}
    for name in regions:
        if name not in chart_names:
            raise SpecError(f"restriction names unknown chart '{name}'")
    if not regions:
        raise SpecError("restriction must keep at least one chart")

    sub = {}
    kept_charts = []
    for c in B.base.charts:
        if c.name not in regions:
            continue
        r = regions[c.name]
        try:
            box = r if isinstance(r, Box) else make_box(r)
        except ShapeMismatch as exc:
            raise SpecError(f"restriction region for '{c.name}' is empty: {exc}") from exc
        if box.dim != c.box.dim:
            raise SpecError(f"restriction region for '{c.name}' has dim {box.dim}, not {c.box.dim}")
        if not box_inside(box, c.box):
            raise SpecError(f"restriction region for '{c.name}' is not inside the chart")
        sub[c.name] = box
        kept_charts.append((c.name, box))

    # Only one direction of each overlap pair is certified directly; the
    # reverse regions are the interval images of the surviving boxes, so
    # the two directions map into each other exactly by construction and
    # no mutual-consistency fixpoint is needed.
    rev_of: dict = {}
    for idx, o in enumerate(B.base.overlaps):
        rev_of.setdefault((o.frm, o.to), []).append(idx)

    kept: dict = {}
    derived: dict = {}
    for idx, o in enumerate(B.base.overlaps):
        if o.frm not in sub or o.to not in sub or o.frm > o.to:
            continue
        tau = compile_exprs(o.tau.components)
        reverse = [(r, compile_exprs(B.base.overlaps[r].tau.components),
                    list(B.base.overlaps[r].region)) for r in rev_of[(o.to, o.frm)]]
        clipped = [c for b in o.region if (c := intersect_boxes(b, sub[o.frm])) is not None]
        boxes = _bisect(clipped, _CERTIFY_DEPTH, partial(_certified_into, tau, sub[o.to]))
        pairs = _bisect(boxes, _PAIR_DEPTH, partial(_paired, tau, reverse, sub[o.to]))
        kept[idx] = [cand for cand, _, _ in pairs]
        for _, ridx, image in pairs:
            derived.setdefault(ridx, []).append(image)

    g_of = {id(e.overlap): e.g for e in B.edges}
    overlaps = []
    transitions = []
    for idx, o in enumerate(B.base.overlaps):
        boxes = kept.get(idx) or derived.get(idx)
        if not boxes:
            continue
        overlaps.append((o.frm, o.to, tuple(boxes), o.tau.components))
        transitions.append((o.frm, o.to, g_of[id(o)]))

    base = make_atlas(B.base.dim, kept_charts, overlaps)
    meta = {"construction": "restriction",
            "regions": {name: [[lo, hi] for lo, hi in zip(box.lo, box.hi)]
                        for name, box in sorted(sub.items())}}
    return make_bundle(base, B.fiber_dim, B.field, transitions, derivation=meta)


# ---------------------------------------------------------------------------
# Tangent bundle of a base atlas.


def _reverse_part(o: OverlapSpec, reverse) -> int:
    """The index of the one of reverse, o's o.to->o.frm components, that
    holds tau's image of o's pairing samples; else SpecError."""
    return _image_part(o, o.tau, [p.region for p in reverse], f"{o.to}->{o.frm}", SpecError,
                       _PRECONDITION_SAMPLES)


def tangent_bundle(base: BaseAtlasSpec) -> VectorBundleSpec:
    """Tangent bundle: fiber dimension equals the base dimension.

    Under the Transition Convention the from-chart transition is the
    Jacobian of the reverse coordinate change evaluated at the image
    point, so each entry is a symbolic derivative with the forward change
    substituted in. The chain rule then gives the cocycle identities.
    An overlap whose image is not in exactly one reverse component is a
    SpecError.
    """
    transitions = []
    for o in base.overlaps:
        candidates = base.overlaps_between(o.to, o.frm)
        rev = candidates[_reverse_part(o, candidates)]
        transitions.append((o.frm, o.to, symmat.mat_subst(rev.tau.partials, o.tau.components)))
    return make_bundle(base, base.dim, FieldTag.REAL, transitions,
                       derivation={"construction": "tangent"})


# ---------------------------------------------------------------------------
# Tensor fields on a bundle.


def check_tensor_field(A: TensorFieldSpec, samples: int = DEFAULT_SAMPLES,
                       tol: float = DEFAULT_CHECK_TOL, seed: int = DEFAULT_SEED):
    """Compatibility of an (r,s)-field: check_section checks every valence."""
    return check_section(A, samples, tol, seed)


def local_expression(A: TensorFieldSpec, F: BundleMorphismSpec, points) -> np.ndarray:
    """Numeric components of the field in a frame, at the query points.

    Component (j1..jr, k1..ks) at p is the field evaluated on the frame
    columns in the vector slots and the dual-frame rows in the covector
    slots: the field pulled back through the frame. The returned table
    has one row per point, radix-ordered.
    """
    if F.target != A.bundle:
        raise ShapeMismatch("frame and field live on different bundles")
    c = _frame_chart(F)
    if c.name not in A.per_chart:
        raise DomainViolation(f"field has no components on chart '{c.name}'")
    X = np.array([shaped(p, c.box.dim, "base dim") for p in points]).reshape(-1, c.box.dim)
    if not len(X):
        return np.array([], dtype=A.bundle.field.dtype)
    try:
        pulled = _pulled(F, A, DEFAULT_TOL, SingularFrame, "frame matrix")
    except SingularFrame:  # the determinant folds to 0: the first point that gets there fails

        def stage(t, X, rows):
            t.in_box(c.box, X, rows, f"chart '{c.name}'")
            _fiber_map_rule(t, F, c.name, X, rows, DEFAULT_TOL, SingularFrame, "frame matrix")

        at_points(X, stage)
        raise
    values = at_points(X, lambda t, X, rows: _field_values(t, pulled, c.name, X, rows))
    return values.astype(A.bundle.field.dtype, copy=False)


# ---------------------------------------------------------------------------
# Bundle morphisms.


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


def identity_morphism(B: VectorBundleSpec) -> BundleMorphismSpec:
    ident_base = tuple(Var(k) for k in range(1, B.base.dim + 1))
    ident_fiber = symmat.mat_identity(B.fiber_dim)
    names = [c.name for c in B.base.charts]
    return make_morphism(B, B,
                         {n: n for n in names},
                         {n: ident_base for n in names},
                         {n: ident_fiber for n in names},
                         inverse={n: (n, ident_base) for n in names})


def compose_morphism(M2: BundleMorphismSpec, M1: BundleMorphismSpec) -> BundleMorphismSpec:
    """The morphism applying M1 first, then M2."""
    if M1.target != M2.source:
        raise ShapeMismatch("compose_morphism: M1's target is not M2's source")
    asg, bm, fm = {}, {}, {}
    for c in M1.source.base.charts:
        name = c.name
        mid = M1.assignment[name]
        env = M1.base_map[name]
        asg[name] = M2.assignment[mid]
        bm[name] = subst_all(M2.base_map[mid], env)
        fm[name] = symmat.mat_mul(symmat.mat_subst(M2.fiber_map[mid], env),
                                  M1.fiber_map[name])
    inv = None
    if M1.inverse is not None and M2.inverse is not None:
        inv = {}
        for c in M2.target.base.charts:
            mid_chart, h2 = M2.inverse[c.name]
            src_chart, h1 = M1.inverse[mid_chart]
            inv[c.name] = (src_chart, subst_all(h1, h2))
    return make_morphism(M1.source, M2.target, asg, bm, fm, inv)


@sampling_scope()
def check_morphism(M: BundleMorphismSpec, samples: int = DEFAULT_SAMPLES,
                   tol: float = DEFAULT_CHECK_TOL, seed: int = DEFAULT_SEED):
    """Chart compatibility of a morphism at sampled points.

    Two records per source overlap component: the intertwining identity
    fiberMap_i(x) G1_ij(x) = G2(f_i(x)) fiberMap_j(tau_ij(x)), and
    coherence of the base map representations f_j(tau_ij(x)) = tau2(f_i(x)).
    G2 and tau2 come from the target's crossing (_crossings) between the
    assigned charts that holds f_i(x); a point in none fails its record.
    Each source chart's box is sampled for the rule that f_i's image lies
    inside the assigned chart (induced_bundle's rule); a rule, not an
    identity, so only a chart that breaks it adds a record, a failed one.
    Each family, the edges and the charts, is one _sampled call.
    """
    src, tgt = M.source, M.target
    smooth = {c.name: make_smooth_map(M.base_map[c.name], c.box)
              for c in src.base.charts}
    crossings = cache(partial(_crossings, tgt))

    def in_charts(t, names, Y) -> None:
        """The rule that each row's base image Y lies inside its subject's
        assigned chart, names[s]."""
        _lookup(t, [crossings(n, n) for n in names], Y, lambda k: DomainViolation(
            f"point {Y[k].tolist()} outside chart '{names[t.subject[k]]}'"))

    def intertwine(t, es):
        X = t.pts
        i, j = [e.overlap.frm for e in es], [e.overlap.to for e in es]
        phi_i = t.matrices(t.subject, [M.fiber_map[c] for c in i], X)
        g1 = t.matrices(t.subject, [e.g for e in es], X)
        Y = t.maps(t.subject, [e.overlap.tau for e in es], X)
        phi_j = t.matrices(t.subject, [M.fiber_map[c] for c in j], Y)
        fi_x = t.maps(t.subject, [smooth[c] for c in i], X)
        fj_y = t.maps(t.subject, [smooth[c] for c in j], Y)
        ci, cj = ([M.assignment[c] for c in cs] for cs in (i, j))
        in_charts(t, ci, fi_x)
        at, options = _lookup(t, [crossings(*p) for p in zip(ci, cj)], fi_x, lambda k: (
            f"base image {fi_x[k].tolist()} lies in no declared "
            f"{ci[t.subject[k]]}->{cj[t.subject[k]]} overlap region"))
        if not options:  # no subject's charts cross: every row has failed
            return (np.full(len(X), np.nan),) * 2
        g2 = t.matrices(at, [f.g for f in options], fi_x)
        tau2_fi = t.maps(at, [f.overlap.tau for f in options], fi_x)
        return _max_abs(phi_i @ g1 - g2 @ phi_j), _max_abs(fj_y - tau2_fi)

    def image(t, charts):
        Y = t.maps(t.subject, [smooth[c] for c in charts], t.pts)
        in_charts(t, [M.assignment[c] for c in charts], Y)
        return (np.zeros(len(t.pts)),)

    records = _sampled([("morphism_intertwine", RESIDUAL, tol),
                        ("base_map_coherence", RESIDUAL, tol)],
                       ((_edge_subject(e), [(e.region, e)]) for e in src.edges),
                       samples, seed, intertwine, "no overlaps")
    records += [r for r in _sampled([("base_map_image", RESIDUAL, tol)],
                                    ((c.name, [((c.box,), c.name)]) for c in src.base.charts),
                                    samples, seed, image) if not r.passed]
    return make_report("morphism", records)


# ---------------------------------------------------------------------------
# Pullbacks of tensor fields through morphisms, and along smooth maps.


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

    def passes(self, t, chart: str, X, rows) -> None:
        """The rules at the points X of a source chart, in the order above."""
        M = self.M
        Y = t.exprs(M.base_map[chart], X, rows)
        _fiber_map_rule(t, M, chart, X, rows, self.tol, self.error, self.noun)
        t.finite(Y, X, rows, "map value")
        _field_values(t, self.inner, M.assignment[chart], Y, rows)


def _fiber_map_rule(t, M: BundleMorphismSpec, chart: str, X, rows, tol: float | None,
                    error: type, noun: str) -> None:
    """The fiber-map rule at the points X of a source chart of M: M's
    fiber map evaluates, is finite and, unless tol is None, is
    nonsingular at tol (else error, naming the noun and the point)."""
    phi = t.matrix(M.fiber_map[chart], X, rows)
    t.finite(phi, X, rows, noun)
    if tol is not None:
        t.fail(rows, scaled_abs_dets(phi) <= tol,
               lambda j: error(f"{noun} singular at {X[j].tolist()}"))


def _pulled(M: BundleMorphismSpec, A: TensorFieldSpec, tol: float | None,
            error: type, noun: str) -> TensorFieldSpec:
    """A's components pulled back through M on each source chart:
    mat_pullback of the fiber map times A at the mapped base point. M's
    point rules ride along as a Pulling."""
    out = {}
    for c in M.source.base.charts:
        name, chart = c.name, M.assignment[c.name]
        try:
            K = symmat.mat_pullback(M.fiber_map[name], A.r, A.s)
        except EvalError as exc:  # s > 0 and det folds to 0: no point has an inverse
            raise error(f"{noun} determinant on chart '{name}' is identically zero ({exc})") from exc
        if chart not in A.per_chart:
            raise SpecError(f"field has no components on chart '{chart}'")
        column = tuple((c,) for c in subst_all(A.per_chart[chart], M.base_map[name]))
        out[name] = tuple(c for (c,) in symmat.mat_mul(K, column))
    return TensorFieldSpec(M.source, A.r, A.s, out, (Pulling(M, A, tol, error, noun),))


def vb_pullback_rs(M: BundleMorphismSpec, A: TensorFieldSpec) -> TensorFieldSpec:
    """Pull an (r,s)-field on the target back through an isomorphism.

    Componentwise this is the tensor pullback of the pointwise fiber map
    applied to the field at the mapped base point, materialized
    symbolically (the fiber map's inverse enters through the adjugate).
    The isomorphism preconditions are enforced by sampling; at evaluation
    a point whose base image leaves the assigned chart raises
    DomainViolation, and one where the fiber map is singular NotAnIsomorphism.
    """
    if A.bundle != M.target:
        raise ShapeMismatch("vb_pullback_rs: field does not live on the morphism's target")
    if M.source.fiber_dim != M.target.fiber_dim:
        raise NotAnIsomorphism("fiber dimensions differ")
    if M.inverse is None:
        raise NotAnIsomorphism("pullback of mixed tensors needs a declared inverse")
    for c in M.source.base.charts:
        at_points(sample_box(c.box, _PRECONDITION_SAMPLES, DEFAULT_SEED), lambda t, X, rows: (
            _fiber_map_rule(t, M, c.name, X, rows, DEFAULT_TOL, NotAnIsomorphism, "fiber map")))
    smooth = {c.name: make_smooth_map(M.base_map[c.name], c.box)
              for c in M.source.base.charts}
    for c in M.target.base.charts:
        src_chart, comps = M.inverse[c.name]
        if M.assignment[src_chart] != c.name:
            raise NotAnIsomorphism(
                f"inverse of chart '{c.name}' lands on chart '{src_chart}', whose image "
                f"is assigned to '{M.assignment[src_chart]}'")
        h = make_smooth_map(comps, c.box)
        src_box = M.source.base.chart(src_chart).box

        def stage(t, Y, rows):
            X = t.map(h, Y, rows)
            t.fail(rows, ~inside(X, src_box.lo, src_box.hi), lambda j: NotAnIsomorphism(
                f"declared inverse leaves chart '{src_chart}' at {Y[j].tolist()}"))
            back = t.map(smooth[src_chart], X, rows)
            t.fail(rows, _max_abs(back - Y) > _ROUNDTRIP_TOL, lambda j: NotAnIsomorphism(
                f"declared inverse fails the round trip at {Y[j].tolist()}"))

        at_points(sample_box(c.box, _PRECONDITION_SAMPLES, DEFAULT_SEED), stage)

    return _pulled(M, A, DEFAULT_TOL, NotAnIsomorphism, "fiber map")


def vb_pullback_cov(M: BundleMorphismSpec, A: TensorFieldSpec) -> TensorFieldSpec:
    """Pull a purely covariant field back through any morphism; at
    evaluation a point whose base image leaves the assigned chart raises
    DomainViolation."""
    if A.bundle != M.target:
        raise ShapeMismatch("vb_pullback_cov: field does not live on the morphism's target")
    if A.s > 0:
        raise ShapeMismatch(
            f"vb_pullback_cov handles purely covariant fields, got valence ({A.r},{A.s})")
    return _pulled(M, A, None, NotAnIsomorphism, "fiber map")


LOCAL_CHART = "box"


def local_bundle(box, fiber_dim: int) -> VectorBundleSpec:
    """The trivial real bundle of rank fiber_dim over one open box: one
    chart, LOCAL_CHART, and no overlaps. Its fields are the box-local
    fields."""
    b = box if isinstance(box, Box) else make_box(box)
    return make_bundle(make_atlas(b.dim, [(LOCAL_CHART, b)], []), fiber_dim, FieldTag.REAL, [])


def _map_morphism(f: SmoothMap, A: TensorFieldSpec) -> BundleMorphismSpec:
    """f as a morphism into A's one chart: from the trivial bundle over
    f's box, with fiber map the Jacobian J_f."""
    for what, dim in (("fiber", A.bundle.fiber_dim), ("box", A.bundle.base.dim)):
        if dim != f.out_dim:
            raise ShapeMismatch(
                f"field {what} dim {dim} does not match the map's codomain dim {f.out_dim}")
    if len(A.per_chart) != 1:
        raise ShapeMismatch(f"a map pulls back a field on one chart, not {len(A.per_chart)}")
    (chart,) = A.per_chart
    return make_morphism(local_bundle(f.box, f.in_dim), A.bundle, {LOCAL_CHART: chart},
                         {LOCAL_CHART: f.components}, {LOCAL_CHART: f.partials})


def map_pullback_rs(f: SmoothMap, A: TensorFieldSpec, r: int, s: int) -> TensorFieldSpec:
    """Pull an (r,s)-field on one chart back along a diffeomorphism
    witness f, to a field on local_bundle(f.box, f.in_dim).

    At x the result is rs_pullback(J_f(x), r, s, A(f(x))); a point where
    J_f is singular at DEFAULT_TOL raises NotADiffeomorphism.
    """
    if (A.r, A.s) != (r, s):
        raise ShapeMismatch(f"field has valence ({A.r},{A.s}), asked for ({r},{s})")
    if f.in_dim != f.out_dim:
        raise ShapeMismatch("a diffeomorphism needs equal domain and codomain dimensions")
    return _pulled(_map_morphism(f, A), A, DEFAULT_TOL, NotADiffeomorphism, "Jacobian")


def map_pullback_cov(f: SmoothMap, A: TensorFieldSpec, r: int) -> TensorFieldSpec:
    """Pull a purely covariant field on one chart back along any smooth
    map, to a field on local_bundle(f.box, f.in_dim)."""
    if A.s != 0:
        raise ShapeMismatch("map_pullback_cov needs a purely covariant field")
    if A.r != r:
        raise ShapeMismatch(f"field has rank {A.r}, asked for {r}")
    return _pulled(_map_morphism(f, A), A, None, NotADiffeomorphism, "Jacobian")


# ---------------------------------------------------------------------------
# Sub-bundle criterion.


@sampling_scope()
def subbundle_check(B: VectorBundleSpec, W: dict, samples: int = DEFAULT_SAMPLES,
                    tol: float = DEFAULT_CHECK_TOL, seed: int = DEFAULT_SEED):
    """Sampled criterion for a rank-l sub-bundle given by local sections.

    W maps chart names to l columns of fiber components. Per chart, the
    columns must stay pointwise independent (smallest scaled singular
    value of the d x l matrix); per overlap with both charts present, the
    transported span must match: the transition applied to the to-chart
    columns must be annihilated by the projector complement of the
    from-chart span. Each family, the charts and the shared overlap
    components, is one _sampled call.
    """
    if not W:
        raise SpecError("subbundle_check needs sections on at least one chart")
    d = B.fiber_dim
    cols_of = {}
    rank = None
    for name in sorted(W):
        B.base.chart(name)
        cols = tuple(as_exprs(col, B.base.dim, f"section on '{name}'", SpecError)
                     for col in W[name])
        if rank is None:
            rank = len(cols)
            if not 1 <= rank <= d:
                raise SpecError(f"sub-bundle rank must be between 1 and {d}, got {rank}")
        if len(cols) != rank:
            raise SpecError(f"chart '{name}' declares {len(cols)} sections, expected {rank}")
        for col in cols:
            if len(col) != d:
                raise SpecError(f"section on '{name}' has {len(col)} components, fiber dim is {d}")
        cols_of[name] = cols

    def span_at(t, names, X):
        """The d x l matrix of the sections on each subject's chart,
        names[s], at every point."""
        cols = [cols_of[n] for n in names]
        return t.matrices(t.subject, cols, X).transpose(0, 2, 1)

    def independent(t, names):
        sv = _live_only(t, lambda W: np.linalg.svd(W, compute_uv=False),
                        span_at(t, names, t.pts), (rank,))
        return (np.where(sv[:, 0] > 0, sv[:, -1] / sv[:, 0], 0.0),)

    def transported(t, es):
        X = t.pts
        Wi = span_at(t, [e.overlap.frm for e in es], X)
        Y = t.maps(t.subject, [e.overlap.tau for e in es], X)
        moved = (t.matrices(t.subject, [e.g for e in es], X)
                 @ span_at(t, [e.overlap.to for e in es], Y))
        Q = _live_only(t, lambda W: np.linalg.qr(W)[0], Wi, (d, rank))
        off = moved - Q @ (Q.transpose(0, 2, 1) @ moved)
        scale = np.maximum(np.linalg.norm(moved, axis=1), 1e-300)
        return (np.max(np.linalg.norm(off, axis=1) / scale, axis=1),)

    shared = [e for e in B.edges if e.overlap.frm in cols_of and e.overlap.to in cols_of]
    records = _sampled([("subbundle_rank", MIN_DET, DEFAULT_TOL)],
                       ((n, [((B.base.chart(n).box,), n)]) for n in sorted(cols_of)),
                       samples, seed, independent)
    records += _sampled([("subbundle_span", RESIDUAL, tol)],
                        ((_edge_subject(e), [(e.region, e)]) for e in shared), samples, seed,
                        transported, "no shared overlaps" if len(cols_of) > 1 else None)
    return make_report("subbundle", records)
