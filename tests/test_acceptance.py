"""Acceptance sweep: one test per shipped guarantee, at its contractual tolerance.

Each test prints a single PASS/FAIL line with the worst measured value next
to the bound it is held to, so a verbose run reads as a checklist. The
tolerances are part of the package contract; if a line goes red the fix
belongs in the library, never here.
"""

import itertools

import numpy as np
import pytest

from vbx.bundles import check_section, check_vb
from vbx.calculus import eval_map, jacobian
from vbx.cli import main
from vbx.constructions import (
    LOCAL_CHART,
    base_restriction,
    direct_product,
    dual_bundle,
    hom_bundle,
    induced_bundle,
    local_expression,
    map_pullback_rs,
    tangent_bundle,
    tensor_bundle,
    whitney_sum,
)
from vbx.coords import FieldTag, make_box, make_tensor, region_contains
from vbx.errors import IndexOutOfRange
from vbx.geometry import sample_box, sample_region
from vbx.linalg import (
    compose_linear,
    identity_linear,
    invert_linear,
    make_linear,
    make_space,
    scaled_abs_det,
)
from vbx.pointwise import (
    chain_defect,
    compose_maps,
    dual_frame,
    frame_matrix_at,
    leibniz_defect,
    transition_eval,
)
from vbx.pullbacks import cov_pullback, rs_pullback
from vbx.spec import field_eval, make_section
from vbx.specio import gallery_path, list_gallery, load_spec
from vbx.tensors import (
    basis_tensor,
    components_of,
    graded_product,
    make_graded,
    reconstruct,
    scalar_mul,
    tensor_add,
    tensor_eval,
    tensor_product,
    zero_tensor,
)

import support

SEED = 42


def _report(num, title, ok, detail):
    line = f"criterion {num:02d} {title}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _docs():
    return {name: load_spec(gallery_path(name)) for name in list_gallery()}


# ---------------------------------------------------------------------------
# 1. Basis family size and exact reconstruction, exhaustively for small shapes.


def test_c01_tensor_basis_and_reconstruction():
    tol = 1e-12
    rng = np.random.default_rng(SEED)
    worst = 0.0
    shapes = 0
    for d in (1, 2, 3):
        space = make_space(d, FieldTag.REAL)
        eye = np.eye(d)
        for r in range(4):
            for s in range(4 - r):
                total = d ** (r + s)
                family = [basis_tensor(j, d, r, s) for j in range(1, total + 1)]
                assert len(family) == total
                for j, b in enumerate(family):
                    assert np.flatnonzero(b.coeffs).tolist() == [j]
                with pytest.raises(IndexOutOfRange):
                    basis_tensor(total + 1, d, r, s)
                T = make_tensor(space, r, s, rng.uniform(-1, 1, total))
                # Route 1: each coefficient read back by evaluating on its
                # basis argument tuple, over every tuple there is.
                for flat, digits in enumerate(itertools.product(range(d), repeat=r + s)):
                    vecs = [eye[k] for k in digits[:r]]
                    covs = [eye[k] for k in digits[r:]]
                    worst = max(worst, abs(tensor_eval(T, vecs, covs) - T.coeffs[flat]))
                # Route 2: the coefficient-weighted sum of basis members
                # rebuilds the tensor.
                acc = zero_tensor(space, r, s)
                for j, b in enumerate(family):
                    acc = tensor_add(acc, scalar_mul(float(T.coeffs[j]), b))
                worst = max(worst, float(np.max(np.abs(acc.coeffs - T.coeffs))))
                R = reconstruct(components_of(T), d, r, s)
                assert np.array_equal(R.coeffs, T.coeffs)
                shapes += 1
    _report(1, "tensor basis and reconstruction", worst <= tol,
            f"{shapes} shapes, worst {worst:.3e}, tol {tol:.0e}")


# ---------------------------------------------------------------------------
# 2. Associativity of the graded product on random triples.


def test_c02_graded_product_associativity():
    tol = 1e-11
    rng = np.random.default_rng(SEED + 1)
    valences = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 4))
        space = make_space(d, FieldTag.REAL)

        def rand_graded():
            picks = rng.choice(len(valences), size=2, replace=False)
            terms = {}
            for p in picks:
                r, s = valences[p]
                terms[(r, s)] = make_tensor(space, r, s, rng.uniform(-1, 1, d ** (r + s)))
            return make_graded(space, terms)

        X, Y, Z = rand_graded(), rand_graded(), rand_graded()
        left = graded_product(graded_product(X, Y), Z)
        right = graded_product(X, graded_product(Y, Z))
        assert set(left.terms) == set(right.terms)
        for key in left.terms:
            diff = np.max(np.abs(left.terms[key].coeffs - right.terms[key].coeffs))
            worst = max(worst, float(diff))
    _report(2, "graded product associativity", worst <= tol,
            f"200 triples, worst {worst:.3e}, tol {tol:.0e}")


# ---------------------------------------------------------------------------
# 3. Pullback laws on random maps and tensors.


def test_c03_pullback_functoriality():
    tol = 1e-10
    rng = np.random.default_rng(SEED + 2)
    valences = [(r, s) for r in range(4) for s in range(4 - r)]
    worst = 0.0

    def random_gl(space):
        while True:
            m = rng.uniform(-1, 1, (space.dim, space.dim))
            if scaled_abs_det(m) > 0.3:
                return make_linear(space, space, m)

    for _ in range(200):
        d = int(rng.integers(1, 4))
        V = make_space(d, FieldTag.REAL)
        r, s = valences[int(rng.integers(0, len(valences)))]
        T = make_tensor(V, r, s, rng.uniform(-1, 1, d ** (r + s)))
        L1, L2 = random_gl(V), random_gl(V)

        same = rs_pullback(identity_linear(V), r, s, T)
        worst = max(worst, float(np.max(np.abs(same.coeffs - T.coeffs))))

        through = rs_pullback(compose_linear(L2, L1), r, s, T)
        stepwise = rs_pullback(L1, r, s, rs_pullback(L2, r, s, T))
        worst = max(worst, float(np.max(np.abs(through.coeffs - stepwise.coeffs))))

        back = rs_pullback(invert_linear(L1), r, s, rs_pullback(L1, r, s, T))
        worst = max(worst, float(np.max(np.abs(back.coeffs - T.coeffs))))

        # Covariant pullback has no invertibility requirement, so run its
        # identity and composition laws over arbitrary rectangular maps.
        d1, d2, d3 = (int(rng.integers(1, 4)) for _ in range(3))
        U1, U2, U3 = (make_space(k, FieldTag.REAL) for k in (d1, d2, d3))
        rc = int(rng.integers(0, 4))
        beta = make_tensor(U3, rc, 0, rng.uniform(-1, 1, d3 ** rc))
        M1 = make_linear(U1, U2, rng.uniform(-1, 1, (d2, d1)))
        M2 = make_linear(U2, U3, rng.uniform(-1, 1, (d3, d2)))
        same_c = cov_pullback(identity_linear(U3), rc, beta)
        worst = max(worst, float(np.max(np.abs(same_c.coeffs - beta.coeffs))))
        through_c = cov_pullback(compose_linear(M2, M1), rc, beta)
        stepwise_c = cov_pullback(M1, rc, cov_pullback(M2, rc, beta))
        worst = max(worst, float(np.max(np.abs(through_c.coeffs - stepwise_c.coeffs))))
    _report(3, "pullback functoriality", worst <= tol,
            f"200 instances, worst {worst:.3e}, tol {tol:.0e}")


# ---------------------------------------------------------------------------
# 4/5. Calculus identities on the coordinate changes the gallery atlases ship.


def _atlas_map_pairs():
    """Every overlap's coordinate change, paired with its reverse.

    The reverse component is found by mapping the region midpoint across
    and asking which reverse region caught it.
    """
    pairs = []
    for name in ("circle_base", "projective_base"):
        atlas = load_spec(gallery_path(name)).base
        for o in atlas.overlaps:
            probe = [(lo + hi) / 2 for lo, hi in zip(o.region[0].lo, o.region[0].hi)]
            y = eval_map(o.tau, probe)
            rev = next(ro for ro in atlas.overlaps_between(o.to, o.frm)
                       if region_contains(ro.region, y))
            pairs.append((f"{name}:{o.frm}->{o.to}", o, rev))
    return pairs


def test_c04_calculus_identities_on_atlas_maps():
    defect_tol, fd_tol = 1e-10, 1e-6
    worst_defect, worst_fd = 0.0, 0.0
    pairs = _atlas_map_pairs()
    assert len(pairs) == 8
    h = 1e-6
    for _, o, rev in pairs:
        f, back = o.tau, rev.tau
        box = o.region[0]
        # Shrink the sampling window so central-difference probes cannot
        # step over the open boundary.
        inner = make_box([(lo + 1e-3, hi - 1e-3) for lo, hi in zip(box.lo, box.hi)])
        loop = compose_maps(back, f)
        for x in sample_box(inner, 100, seed=SEED):
            worst_defect = max(worst_defect,
                               abs(leibniz_defect(f, f, x, [1.0])),
                               abs(leibniz_defect(f, loop, x, [1.0])),
                               chain_defect(back, f, x))
            ad = jacobian(f, x).matrix[0, 0]
            fd = (eval_map(f, [x[0] + h])[0] - eval_map(f, [x[0] - h])[0]) / (2 * h)
            worst_fd = max(worst_fd, abs(ad - fd))
    ok = worst_defect <= defect_tol and worst_fd <= fd_tol
    _report(4, "calculus identities", ok,
            f"defects {worst_defect:.3e} vs {defect_tol:.0e}, "
            f"AD-FD {worst_fd:.3e} vs {fd_tol:.0e}")


def test_c05_field_pullback_functoriality():
    tol = 1e-9
    worst = 0.0
    for _, o, rev in _atlas_map_pairs():
        f, back = o.tau, rev.tau
        loop = compose_maps(back, f)
        # Composition law: pulling back around the loop in one step agrees
        # with chaining the two pullbacks.
        A = support.local_field(f.box, 1, 1, 1, ["sin(x1) + 2"])
        one = map_pullback_rs(loop, A, 1, 1)
        two = map_pullback_rs(f, map_pullback_rs(back, A, 1, 1), 1, 1)
        for x in sample_box(o.region[0], 50, seed=SEED):
            worst = max(worst, float(np.max(np.abs(
                field_eval(one, LOCAL_CHART, x).coeffs - field_eval(two, LOCAL_CHART, x).coeffs))))
        # Inverse law: pull forward then back and land on the original field.
        B = support.local_field(back.box, 1, 1, 1, ["cos(x1) + 2"])
        there_and_back = map_pullback_rs(back, map_pullback_rs(f, B, 1, 1), 1, 1)
        for x in sample_box(rev.region[0], 50, seed=SEED):
            worst = max(worst, float(np.max(np.abs(
                field_eval(there_and_back, LOCAL_CHART, x).coeffs
                - field_eval(B, LOCAL_CHART, x).coeffs))))
    _report(5, "field pullback functoriality", worst <= tol,
            f"8 diffeos, worst {worst:.3e}, tol {tol:.0e}")


# ---------------------------------------------------------------------------
# 6. Cocycle suite over every shipped and every constructed bundle, plus the
#    negative controls through the command line.


def test_c06_cocycle_suite_and_negative_controls(capsys):
    tol, n = 1e-10, 200
    docs = _docs()
    checked, failures = [], []

    def run(name, bundle):
        rep = check_vb(bundle, n, tol, SEED)
        checked.append(name)
        if not rep.passed:
            failures.append(name)

    for name, doc in sorted(docs.items()):
        if doc.is_atlas_only or name == "mobius_tampered":
            continue
        run(name, doc.bundle)

    mob = docs["mobius"].bundle
    tang = docs["circle_tangent"].bundle
    summed = whitney_sum(mob, tang)
    run("sum", summed)
    for r in range(3):
        for s in range(3):
            run(f"tensor({r},{s})", tensor_bundle(summed, r, s))
    run("dual", dual_bundle(docs["projective_tangent"].bundle))
    run("hom", hom_bundle(mob, tang))
    run("product", direct_product(mob, docs["trivial"].bundle))
    assignment, maps = support.double_cover_map()
    run("induced", induced_bundle(mob, support.quarter_circle_atlas(), assignment, maps))
    run("restrict", base_restriction(
        mob, {"east": make_box([(-3, 3)]), "west": make_box([(0.5, 6)])}))
    run("tangent", tangent_bundle(docs["circle_base"].base))

    codes = {}
    for bad in ("mobius_tampered", "mobius_bad_section"):
        codes[bad] = main(["check", str(gallery_path(bad)), "--samples", "60"])
    capsys.readouterr()

    ok = not failures and all(c == 2 for c in codes.values())
    _report(6, "cocycle suite", ok,
            f"{len(checked)} bundles at {n} samples tol {tol:.0e}, "
            f"failures {failures or 'none'}, control exits {sorted(codes.values())}")


# ---------------------------------------------------------------------------
# 7. The Möbius bundle tells global sections apart.


def test_c07_mobius_section_discriminator():
    doc = load_spec(gallery_path("mobius"))
    zero_rep = check_section(doc.sections["zero"], 200, seed=SEED)
    ones = make_section(doc.bundle, {"east": ["1"], "west": ["1"]})
    ones_rep = check_section(ones, 200, seed=SEED)
    ok = zero_rep.passed and not ones_rep.passed
    _report(7, "mobius section discriminator", ok,
            f"zero passed={zero_rep.passed}, constant one passed={ones_rep.passed}")


# ---------------------------------------------------------------------------
# 8. Dual frames pair to the identity against their frames.


def test_c08_dual_frame_pairing():
    tol = 1e-10
    worst = 0.0
    count = 0
    for name, doc in sorted(_docs().items()):
        for _, F in sorted(doc.frames.items()):
            D = dual_frame(F)
            box = F.source.base.charts[0].box
            eye = np.eye(F.target.fiber_dim)
            for x in sample_box(box, 50, seed=SEED):
                P = frame_matrix_at(F, x)
                Q = frame_matrix_at(D, x)
                worst = max(worst, float(np.max(np.abs(Q.T @ P - eye))))
            count += 1
    assert count == 5
    _report(8, "dual frame pairing", worst <= tol,
            f"{count} frames at 50 samples, worst {worst:.3e}, tol {tol:.0e}")


# ---------------------------------------------------------------------------
# 9. Frame components of every shipped field rebuild the field.


def test_c09_local_expression_reconstruction():
    tol = 1e-10
    worst = 0.0
    pairs = 0
    for name, doc in sorted(_docs().items()):
        for _, A in sorted(doc.fields.items()):
            for _, F in sorted(doc.frames.items()):
                chart = F.source.base.charts[0].name
                if chart not in A.per_chart:
                    continue
                d = A.bundle.fiber_dim
                space = A.bundle.fiber_space
                box = A.bundle.base.chart(chart).box
                pts = sample_box(box, 50, seed=SEED)
                table = local_expression(A, F, pts)
                for row, x in zip(table, pts):
                    P = frame_matrix_at(F, x)
                    P_inv = np.linalg.inv(P)
                    # Rebuild the tensor as the component-weighted sum of
                    # products of dual rows (vector slots) and frame
                    # columns (covector slots).
                    rebuilt = zero_tensor(space, A.r, A.s)
                    for flat, digits in enumerate(
                            itertools.product(range(d), repeat=A.r + A.s)):
                        factors = [make_tensor(space, 1, 0, P_inv[k])
                                   for k in digits[:A.r]]
                        factors += [make_tensor(space, 0, 1, P[:, k])
                                    for k in digits[A.r:]]
                        piece = factors[0]
                        for t in factors[1:]:
                            piece = tensor_product(piece, t)
                        rebuilt = tensor_add(rebuilt, scalar_mul(float(row[flat]), piece))
                    direct = field_eval(A, chart, x)
                    worst = max(worst, float(np.max(np.abs(rebuilt.coeffs - direct.coeffs))))
                pairs += 1
    assert pairs == 8
    _report(9, "local expression reconstruction", worst <= tol,
            f"{pairs} field/frame pairs at 50 samples, worst {worst:.3e}, tol {tol:.0e}")


# ---------------------------------------------------------------------------
# 10. The tangent bundle of the projective-line atlas closes under the chain
#     rule and matches the shipped version.


def test_c10_tangent_bundle_chain_rule():
    tol = 1e-10
    atlas = load_spec(gallery_path("projective_base")).base
    built = tangent_bundle(atlas)
    rep = check_vb(built, 200, tol, SEED)
    shipped = load_spec(gallery_path("projective_tangent")).bundle
    worst = 0.0
    for o in atlas.overlaps:
        for x in sample_region(o.region, 50, seed=SEED):
            g = transition_eval(built, o.frm, o.to, x).matrix[0, 0]
            # The derivative of t -> 1/t is -1/t^2; stored at this chart's
            # coordinate that reads -x^2.
            worst = max(worst, abs(g + x[0] ** 2))
            ref = transition_eval(shipped, o.frm, o.to, x).matrix[0, 0]
            worst = max(worst, abs(g - ref))
            y = eval_map(o.tau, x)
            back = transition_eval(built, o.to, o.frm, y).matrix[0, 0]
            worst = max(worst, abs(g * back - 1.0))
    ok = rep.passed and worst <= tol
    _report(10, "tangent bundle chain rule", ok,
            f"cocycle passed={rep.passed}, worst {worst:.3e}, tol {tol:.0e}")


# ---------------------------------------------------------------------------
# 11. Same seed, same bytes.


def test_c11_deterministic_reports(tmp_path, capsys):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    for out in (first, second):
        code = main(["check", str(gallery_path("mobius")),
                     "--samples", "200", "--seed", "7", "--out", str(out)])
        assert code == 0
    capsys.readouterr()
    ok = first.read_bytes() == second.read_bytes()
    _report(11, "deterministic reports", ok,
            f"two runs, {first.stat().st_size} bytes each, identical={ok}")
