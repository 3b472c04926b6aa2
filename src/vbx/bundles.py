"""The check suites: sampled verification of atlases, bundles, sections,
tensor fields and frames.

Every structural claim about a specification (vbx.spec) is an identity
checked at low-discrepancy sample points with an explicit seed, so reports
are deterministic given (spec, samples, seed, tol). `vbx check` runs the
suites here; `vbx eval` and the specification types never load them.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .calculus import _Trial
from .coords import on_slots, region_contains, region_mask, row_reduce
from .dets import DEFAULT_TOL, scaled_abs_dets
from .errors import InvalidDimension, SpecError
from .geometry import sample_region, sampling_scope, scope_memo
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
from .spec import (
    BaseAtlasSpec,
    BundleEdge,
    BundleMorphismSpec,
    ChartSpec,
    OverlapSpec,
    TensorFieldSpec,
    VectorBundleSpec,
    _field_rows,
)

DEFAULT_SAMPLES = 200
DEFAULT_SEED = 42
DEFAULT_CHECK_TOL = 1e-9


def _edge_subject(e: BundleEdge) -> str:
    return f"{e.overlap.frm}->{e.overlap.to}#{e.component}"


def _overlap_subject(o: OverlapSpec, comp: int) -> str:
    return f"{o.frm}->{o.to}#{comp}"


def find_edge(B: VectorBundleSpec, i: str, j: str, x) -> BundleEdge | None:
    for e in B.edges_between(i, j):
        if region_contains(e.overlap.region, x):
            return e
    return None


# ---------------------------------------------------------------------------
# The sampled-identity harness. Every check suite runs its subjects through
# _sampled: each subject is a (name, parts) pair, parts its (region, data),
# and every part is the suite's sample count of points of its region, at
# least one. One rule bounds every _Trial: it holds at most _PACK_ROWS rows.
# Consecutive parts of one family (every edge of check_vb, say) are packed
# whole into a trial while they fit, and a larger part is cut into
# _PACK_ROWS-row pieces. All the points of a trial go through the stages of
# the identity together, each stage one batched evaluation per distinct
# program, and each piece's results are merged back into its subject's
# records, each as it would be alone.

_PACK_ROWS = 2048  # bounds the rows, and so the memory, of every trial


def _first_match(regions, X) -> np.ndarray:
    """Per point, the index of the first region in declaration order that
    contains it (find_edge's choice), or -1."""
    at = np.full(len(X), -1)
    for k, region in enumerate(regions):
        at[(at < 0) & region_mask(region, X)] = k
    return at


def _lookup(t: _Trial, options, Y, why=None) -> tuple:
    """Per row of Y, the first of its subject's options (overlaps or edges,
    options[s] for trial subject s) whose region holds it, as find_edge
    chooses, or none: a choice over the options of every subject in turn,
    and those options. A row in none fails with why, or with no why leaves
    the trial. Each distinct region is masked once, over every row of the
    trial."""
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
        offsets = np.cumsum([0] + [len(o) for o in options[:-1]])
        at, chosen = (np.where(at >= 0, at + offsets[t.subject], -1),
                      [o for opts in options for o in opts])
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
    """The pieces ((ordinal, name), points, data) of subjects, each (name,
    parts) with parts a list of (points, data), in order, in trials whose
    points total at most _PACK_ROWS: a part goes whole while it fits, and a
    larger one as _PACK_ROWS-row pieces."""
    pack, rows = [], 0
    for n, (name, parts) in enumerate(subjects):
        for pts, data in parts:
            for start in range(0, len(pts) or 1, _PACK_ROWS):
                piece = pts[start:start + _PACK_ROWS]
                if pack and rows + len(piece) > _PACK_ROWS:
                    yield pack
                    pack, rows = [], 0
                pack.append(((n, name), piece, data))
                rows += len(piece)
    if pack:
        yield pack


def _sampled(checks, subjects, samples: int, seed: int, evaluate) -> list:
    """The records of the sampled identities of subjects, an iterable of
    (name, parts), parts a list of (region, data), in order: each part is
    samples points of its region (geometry.sample_region, at seed), in
    sample order. Fewer than one sample is InvalidDimension.

    The trials take their programs from the sampling scope's cache (see
    geometry.scope_memo), which the suites of one check command share.
    checks holds (check, kind, tol) for each per-row value array that
    evaluate(trial, data) returns, in record order, for a trial over the
    pieces of one pack (_packs) and data, their data in order. A subject's
    records merge those of its pieces: the worst residual is their max and
    the worst determinant their min, and live counts add up. A failed
    sample, or a non-finite value at a live one, fails the subject: one
    failed record of samples points, of its check's kind, under its first
    residual check (else its first check), noting the subject's first such
    sample in sample order. A subject with no live sample (every one
    skipped: a triple whose point leaves the needed overlaps) is vacuous.
    """
    if samples < 1:
        raise InvalidDimension(f"a check needs at least 1 sample, got {samples}")
    name, kind, tol = next((c for c in checks if c[1] == RESIDUAL), checks[0])
    empty = [0.0 if k == RESIDUAL else np.inf for _, k, _ in checks]  # the worst of no sample
    merged: dict = {}  # (ordinal, name) -> (live count, first failure, worst per check)
    for pack in _packs((subject, [(sample_region(region, samples, seed), data)
                                  for region, data in parts]) for subject, parts in subjects):
        keys, pts, data = zip(*pack)
        X = pts[0] if len(pts) == 1 else np.vstack(pts)
        t = _Trial(X, scope_memo("programs"), [len(p) for p in pts])
        with np.errstate(all="ignore"):  # failed samples compute on garbage
            values = evaluate(t, data)
        for (_, k, _), v in zip(checks, values):
            label = "residual" if k == RESIDUAL else "scaled determinant"
            t.fail(t.rows, ~np.isfinite(v),
                   lambda j, label=label: f"non-finite {label} at {X[j].tolist()}")
        for key, b in zip(keys, t.blocks):
            count, note, worst = merged.get(key, (0, None, empty))
            failed = np.flatnonzero(t.cause[b] >= 0)
            if failed.size and note is None:  # an earlier piece's failure comes first
                i = b.start + failed[0]
                why = t.why(i)
                note = (why if isinstance(why, str)
                        else f"evaluation failed at {X[i].tolist()}: {why}")
            live = t.live[b]
            merged[key] = (count + int(live.sum()), note, [
                np.max(v[b][live], initial=w) if k == RESIDUAL else np.min(v[b][live], initial=w)
                for (_, k, _), v, w in zip(checks, values, worst)])
    records = []
    for (_, subject), (count, note, worst) in merged.items():
        if note is not None:
            records.append(failed_record(name, subject, samples, seed, tol, note, kind))
        elif count == 0:
            records.append(vacuous_record(name, subject, seed, tol))
        else:
            records += [residual_record(c, subject, count, seed, c_tol, w) if c_kind == RESIDUAL
                        else det_record(c, subject, count, seed, c_tol, w)
                        for (c, c_kind, c_tol), w in zip(checks, worst)]
    return records


def _reverse_g(t: _Trial, backs, Y, dtype) -> np.ndarray:
    """g_ji at each image Y = tau_ij(x), from the first of its subject's
    j->i edges (backs[s] for trial subject s) that holds it, as find_edge
    chooses; a point in none fails."""
    def why(k):
        o = backs[t.subject[k]][0].overlap
        return f"tau image {Y[k].tolist()} is in no declared {o.frm}->{o.to} region"

    at, options = _lookup(t, backs, Y, why)
    return t.matrices(at, [b.g for b in options], Y, dtype)


def _triples(charts, between, closing):
    """The subjects of the triple checks: each chart triple i->j->k with
    parts between(i, j), between(j, k) and between(*closing(i, k)), its
    parts each i->j part's region in turn, with data (that part, the j->k
    parts, the closing parts)."""
    for i, j, k in permutations(charts, 3):
        ij, jk, last = between(i, j), between(j, k), between(*closing(i, k))
        if ij and jk and last:
            yield f"{i}->{j}->{k}", [(p.region, (p, jk, last)) for p in ij]


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
    pairs = ((_overlap_subject(o, comp), [(o.region, (o, spec.overlaps_between(o.to, o.frm)))])
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
        ij, jk, ik = zip(*data)
        Y = t.maps(t.subject, [o.tau for o in ij], X)
        step2, jk = _lookup(t, jk, Y)
        direct, ik = _lookup(t, ik, X)
        Z = t.maps(step2, [o.tau for o in jk], Y)
        return (_max_abs(Z - t.maps(direct, [o.tau for o in ik], X)),)

    triples = _triples([c.name for c in spec.charts], spec.overlaps_between, lambda i, k: (i, k))
    records = _sampled([("tau_inverse", RESIDUAL, tol), ("tau_jacobian", MIN_DET, DEFAULT_TOL)],
                       pairs, samples, seed, pair)
    records += _sampled([("tau_triple", RESIDUAL, tol)], triples, samples, seed, triple)
    return make_report("base_atlas", records)


@sampling_scope()
def check_vb(B: VectorBundleSpec, samples: int = DEFAULT_SAMPLES,
             tol: float = DEFAULT_CHECK_TOL, seed: int = DEFAULT_SEED) -> CheckReport:
    """Sampled verification of VB structure: GL values, pair and triple cocycles."""
    d, dtype = B.fiber_dim, B.field.dtype
    eye = np.eye(d, dtype=dtype)
    pairs = ((_edge_subject(e), [(e.region, (e, B.edges_between(e.overlap.to, e.overlap.frm)))])
             for e in B.edges)  # by chart pair, then component (make_bundle's order)

    def pair(t, data):
        es, backs = zip(*data)
        G = t.matrices(t.subject, [e.g for e in es], t.pts, dtype)
        G_back = _reverse_g(t, backs, t.maps(t.subject, [e.overlap.tau for e in es], t.pts), dtype)
        return scaled_abs_dets(G), _max_abs(G @ G_back - eye)

    def triple(t, data):
        X = t.pts
        ij, jk, ki = zip(*data)
        G1 = t.matrices(t.subject, [e.g for e in ij], X, dtype)
        Y = t.maps(t.subject, [e.overlap.tau for e in ij], X)
        e2, jk = _lookup(t, jk, Y)
        G2 = t.matrices(e2, [e.g for e in jk], Y, dtype)
        Z = t.maps(e2, [e.overlap.tau for e in jk], Y)
        e3, ki = _lookup(t, ki, Z)
        G3 = t.matrices(e3, [e.g for e in ki], Z, dtype)
        return (_max_abs(G1 @ G2 @ G3 - eye),)

    triples = _triples([c.name for c in B.base.charts], B.edges_between, lambda i, k: (k, i))
    records = _sampled([("transition_gl", MIN_DET, DEFAULT_TOL), ("pair_cocycle", RESIDUAL, tol)],
                       pairs, samples, seed, pair)
    records += _sampled([("triple_cocycle", RESIDUAL, tol)], triples, samples, seed, triple)
    return make_report("vector_bundle", records)


# ---------------------------------------------------------------------------
# Tensor fields and sections. A section of B is a (0,1)-field: the bundle of
# (0,1)-tensors on B's fibers has B's transitions.


@sampling_scope()
def check_section(S: TensorFieldSpec, samples: int = DEFAULT_SAMPLES,
                  tol: float = DEFAULT_CHECK_TOL, seed: int = DEFAULT_SEED) -> CheckReport:
    """Cross-chart compatibility of a field of any valence at samples:
    S_i(x) = T_ij(x) S_j(tau_ij(x)), where T_ij applies g_ij(x) on each
    covector slot and, on each vector slot, the inverse-transpose of
    g_ij(x) by the cocycle, g_ji(tau_ij(x)) transposed (as in check_vb)."""
    B = S.bundle
    slots, dtype = (B.fiber_dim,) * (S.r + S.s), B.field.dtype
    pairs = ((_edge_subject(e), [(e.region, (e, B.edges_between(e.overlap.to, e.overlap.frm)))])
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

    records = _sampled([("section_compat", RESIDUAL, tol)], pairs, samples, seed, evaluate)
    if not records:
        records.append(vacuous_record("section_compat", "no shared overlaps", seed, tol))
    return make_report("section", records)


# ---------------------------------------------------------------------------
# Frames: morphisms from B's fiber over one chart, fiber map the frame matrix.


def _frame_chart(F: BundleMorphismSpec) -> ChartSpec:
    """The chart of frame F: a frame's source has one chart."""
    charts = F.source.base.charts
    if len(charts) != 1:
        raise SpecError(f"a frame's source has one chart; this morphism's has {len(charts)}")
    return charts[0]


@sampling_scope()
def check_frame(F: BundleMorphismSpec, samples: int = DEFAULT_SAMPLES,
                tol: float = DEFAULT_TOL, seed: int = DEFAULT_SEED) -> CheckReport:
    """Invertibility of the frame matrix across the chart."""
    c = _frame_chart(F)

    def evaluate(t, _):
        return (scaled_abs_dets(t.matrix(F.fiber_map[c.name], t.pts, t.rows,
                                         F.source.field.dtype)),)

    records = _sampled([("frame_gl", MIN_DET, tol)], [(c.name, [((c.box,), None)])], samples,
                       seed, evaluate)
    return make_report("frame", records)
