"""Smooth maps on open boxes and exact Jacobians.

Every value comes from one evaluator: vbx.expr compiles the expressions
into a straight-line program and runs it over a batch of points. Every
Jacobian is that program run on SmoothMap.partials, expr.diff of each
component, so Jacobians are exact to rounding; central finite differences
exist only in the test suite as a cross-check. _Trial holds the stages of
that evaluation and the rules a point must pass (its shape, box
membership, evaluation without error, finite values): the check suites
run it over packs of their subjects' samples, and the one-point functions
(eval_map, jacobian, and the bundle ones such as field_eval) are one row
of it. A tensor field on a box is a field on a one-chart trivial bundle
(constructions.local_bundle), and pulling it back along a smooth map is
the morphism pullback of vbx.constructions (map_pullback_rs,
map_pullback_cov), whose fiber map is the same partials. Composition,
directional derivatives and the derivative identities at a point are
library API in vbx.pointwise.
"""

from __future__ import annotations

import sys
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

from .coords import Box, FieldTag, VectorSpace, inside, make_box, row_reduce
from .errors import DomainViolation, EvalError, ShapeMismatch
from .expr import Expr, Num, Program, Var, as_exprs, compile_exprs, diff, run_program
from .record import Record, record

if TYPE_CHECKING:  # library API, which no command loads
    from .linalg import LinearMap


@record
class SmoothMap(Record):
    """A map from an open box in R^m to R^n, one expression per component."""

    components: tuple
    box: Box

    @property
    def in_dim(self) -> int:
        return self.box.dim

    @property
    def out_dim(self) -> int:
        return len(self.components)

    @cached_property
    def partials(self) -> tuple:
        """The Jacobian as expressions: row i is expr.diff of component i
        by x1 .. x{in_dim}. Raises diff's EvalError where a component
        divides by a literal zero or takes the log of a literal zero."""
        return tuple(tuple(diff(c, j + 1) for j in range(self.in_dim)) for c in self.components)


def make_smooth_map(components, box) -> SmoothMap:
    """Build a SmoothMap from expressions (or strings) and box bounds."""
    b = box if isinstance(box, Box) else make_box(box)
    exprs = as_exprs(components, b.dim, "map component", ShapeMismatch)
    if not exprs:
        raise ShapeMismatch("a map needs at least one component")
    return SmoothMap(exprs, b)


def identity_map(box) -> SmoothMap:
    b = box if isinstance(box, Box) else make_box(box)
    return SmoothMap(tuple(Var(i + 1) for i in range(b.dim)), b)


# ---------------------------------------------------------------------------
# Evaluation stages and the point rules.

_DOMAIN_BOX = "the open domain box"


class _Trial:
    """A batch of points and what has become of each.

    The points are those of one or more subjects (see bundles._sampled),
    each in a block of consecutive rows, `sizes` rows each (by default one
    subject of all rows). A subject's results do not depend on the others
    in the batch: rows are evaluated independently, and every numeric form
    is chosen by the shape of what is computed, never by the number of
    rows (see coords.on_columns).

    Stages run in the order an identity is evaluated at a single point. A
    point leaves at its first failure, which becomes its note (run_program
    reports failing operations to run's fail in slot order), or when a
    triple check finds no overlap to continue in; later stages still
    compute at it but no longer change its fate. Stage methods take the
    points X of trial rows `rows` and return one result row per point; the
    chosen-option stages (maps, matrices, maps_and_jacobians) take one
    point per trial row and a choice of option per row.
    Every stage computes in float64: expressions are real on any field,
    and only what the library returns takes a complex field's dtype.
    """

    def __init__(self, pts: np.ndarray, progs: dict, sizes=None):
        n = len(pts)
        self.pts = pts
        self.rows = np.arange(n)
        self.progs = progs
        self.live = np.ones(n, dtype=bool)
        self.cause = np.full(n, -1)  # per point, its failure in _whys
        self._local = np.zeros(n, dtype=int)
        self._whys: list = []
        sizes = [n] if sizes is None else sizes
        self.blocks = [slice(end - k, end) for k, end in zip(sizes, accumulate(sizes))]
        self.subject = (np.zeros(n, dtype=int) if len(sizes) == 1  # per row, its block
                        else np.repeat(np.arange(len(sizes)), sizes))

    def fail(self, rows, mask, why) -> None:
        """Fail the live points among rows[mask]. why(j) explains local
        row j: an exception for a broken rule, else the note itself."""
        j = mask.nonzero()[0]
        if not j.size:
            return
        i = rows[j]
        keep = self.live[i]
        i, j = i[keep], j[keep]
        if i.size:
            self.live[i] = False
            self.cause[i] = len(self._whys)
            self._local[i] = j
            self._whys.append(why)

    def skip(self, rows, mask) -> None:
        self.live[rows[mask]] = False

    def why(self, i: int):
        return self._whys[self.cause[i]](self._local[i])

    def _cached(self, key, pinned, build) -> Program:
        """progs[key], built on a miss. The entry pins the objects whose
        ids the key holds, so no id is reused while progs lives."""
        hit = self.progs.get(key)
        if hit is None:
            hit = self.progs[key] = (pinned, build())
        return hit[1]

    def program(self, exprs) -> Program:
        """exprs (a vector, or a matrix flattened row by row) compiled once
        per progs: a check command's cache (geometry.scope_memo), a suite
        call's when it runs on its own, or a one-point call's. The program
        is keyed by the identities of the entries, not their container, so
        matrices whose entries a document interned to the same nodes (see
        expr.parse_expr) share one program on whichever edge they stand;
        the container's identity finds it again without that key."""

        def build():
            flat = _entries(exprs)
            return self._cached(tuple(map(id, flat)), flat, lambda: compile_exprs(flat))

        return self._cached(id(exprs), exprs, build)

    def map_program(self, F: SmoothMap) -> Program:
        """F's components, then its partials row by row (zeros where diff
        cannot build them), as one program: once per progs for each domain
        dimension and tuple of component nodes, which fix the partials."""

        def build():
            try:
                J = sum(F.partials, ())
            except EvalError:  # a literal zero denominator: no point has a value
                J = (Num(0.0),) * (F.out_dim * F.in_dim)
            return compile_exprs(F.components + J)

        return self._cached((F.in_dim, tuple(map(id, F.components))), F.components, build)

    def components(self, F: SmoothMap) -> Program:
        """The program of F's components alone: the prefix of map_program
        that computes them, so a map is compiled once per progs."""

        def prefix():
            full = self.map_program(F)
            outputs = full.outputs[:F.out_dim]
            return Program(full.code[:max(outputs) + 1], outputs)

        return self._cached(tuple(map(id, F.components)), F.components, prefix)

    # The rules. Each is written here once.

    def in_box(self, box: Box, X, rows, where: str) -> None:
        """A point outside box fails: DomainViolation, outside `where`."""
        self.outside(rows, ~inside(X, box.lo, box.hi), X, where)

    def outside(self, rows, mask, X, where: str) -> None:
        """The points of rows[mask] fail as outside `where`."""
        self.fail(rows, mask, lambda j: DomainViolation(f"point {X[j].tolist()} outside {where}"))

    def run(self, prog: Program, X, rows) -> np.ndarray:
        """Every output of prog at every point, (len(X), count); a point
        where one fails to evaluate fails with the EvalError it meets
        first."""

        def fail(mask, why):
            self.fail(rows, mask, lambda j: EvalError(why if isinstance(why, str) else why(j)))

        return run_program(prog, X, fail)

    def exprs(self, exprs, X, rows) -> np.ndarray:
        """run of the program of exprs."""
        return self.run(self.program(exprs), X, rows)

    def finite(self, V, X, rows, what: str) -> None:
        """A point whose row of V is not all finite fails: EvalError."""
        self.fail(rows, ~row_reduce(np.logical_and, np.isfinite(V)),
                  lambda j: EvalError(f"{what} not finite at {X[j].tolist()}"))

    # Stages built from the rules.

    def matrix(self, g, X, rows) -> np.ndarray:
        """A matrix of expressions at every point: (len(X), rows of g,
        columns of g)."""
        return self.exprs(g, X, rows).reshape(len(X), len(g), len(g[0]))

    def _in_domain(self, F: SmoothMap, X, rows) -> None:
        self.in_box(F.box, X, rows, _DOMAIN_BOX)

    def _map_values(self, F: SmoothMap, X, rows) -> np.ndarray:
        Y = self.run(self.components(F), X, rows)
        self.finite(Y, X, rows, "map value")
        return Y

    def map(self, F: SmoothMap, X, rows) -> np.ndarray:
        """eval_map at every point."""
        self._in_domain(F, X, rows)
        return self._map_values(F, X, rows)

    def jacobian(self, F: SmoothMap, X, rows) -> np.ndarray:
        """jacobian at every point: F's values and Jacobians come from one
        program, the components then F.partials, so a point whose value
        fails fails with the value's message."""
        self._in_domain(F, X, rows)
        J = _partials(F, self.run(self.map_program(F), X, rows))
        self.finite(J, X, rows, "jacobian")
        return J

    def _map_and_partials(self, F: SmoothMap, X, rows) -> np.ndarray:
        """The run of map_program, its values and then its partials finite."""
        V = self.run(self.map_program(F), X, rows)
        self.finite(V[:, :F.out_dim], X, rows, "map value")
        self.finite(V[:, F.out_dim:], X, rows, "jacobian")
        return V

    # Stages with a choice of option per row.

    def chosen(self, choice, options, key, X, shape, stage, boxes=False) -> np.ndarray:
        """stage(option, X[rows], rows) for the rows that chose each option
        (choice[row] indexes options), one result row per trial row, NaN
        where a row chose none (-1). The rows of the options with one
        key(option) go to one stage call with the first of them, in row
        order. With boxes, the options are maps, and a point outside the
        box of the one it chose fails before the stage, all rows at once.
        When every row chose one option, stage gets X itself."""
        k = int(choice[0])  # a trial holds at least one row
        if k >= 0 and (choice == k).all():
            if boxes:
                self._in_domain(options[k], X, self.rows)
            return stage(options[k], X, self.rows)
        ks = np.flatnonzero(np.bincount(choice + 1)[1:])  # the options some row chose
        runs: dict = {}  # key -> (its run, the first option with that key that some row chose)
        run_of = np.full(len(options) + 1, len(ks))  # the last entry for the rows that chose none
        run_of[ks] = [runs.setdefault(key(options[k]), (len(runs), k))[0] for k in ks.tolist()]
        run = run_of[choice]
        if boxes:  # per row, the bounds of the box of the map it chose
            d, b = X.shape[1], np.array([F.box.lo + F.box.hi for F in options]).T[:, choice]
            self.outside(self.rows, (choice >= 0) & ~inside(X, b[:d], b[d:]), X, _DOMAIN_BOX)
        out = np.full((len(choice),) + shape, np.nan)
        ends = np.cumsum(np.bincount(run)[:len(runs)])  # of the runs in the rows sorted by run
        for (_, k), rows in zip(runs.values(), np.split(np.argsort(run, kind="stable"), ends)):
            out[rows] = stage(options[k], X[rows], rows)
        return out

    def maps(self, choice, maps, X) -> np.ndarray:
        """map at each point with the map it chose, NaN where it chose
        none: each map's box, then each distinct program once."""
        return self.chosen(choice, maps, lambda F: id(self.components(F)), X, (maps[0].out_dim,),
                           self._map_values, boxes=True)

    def maps_and_jacobians(self, choice, maps, X) -> tuple:
        """eval_map and jacobian at each point with the map it chose, from
        one run of each distinct program."""
        F = maps[0]
        V = self.chosen(choice, maps, lambda F: id(self.map_program(F)), X,
                        (F.out_dim * (1 + F.in_dim),), self._map_and_partials, boxes=True)
        return V[:, :F.out_dim], _partials(F, V)

    def matrices(self, choice, gs, X) -> np.ndarray:
        """matrix at each point with the matrix it chose, NaN where none:
        each distinct program once."""
        return self.chosen(choice, gs, lambda g: id(self.program(g)), X,
                           (len(gs[0]), len(gs[0][0])), self.matrix)


def _entries(exprs) -> tuple:
    """A vector's entries, or a matrix's row by row."""
    return tuple(exprs) if isinstance(exprs[0], Expr) else tuple(e for row in exprs for e in row)


def _partials(F: SmoothMap, V) -> np.ndarray:
    """The Jacobians in a run of map_program: (len(V), out_dim, in_dim)."""
    return V[:, F.out_dim:].reshape(len(V), F.out_dim, F.in_dim)


def at_points(X: np.ndarray, stage):
    """stage(trial, X, rows) over all points X at once: its result, or the
    exception of the first point, in order, that broke a rule. Calls inside a
    sampling scope share their compiled programs; a scope opens only where
    vbx.geometry is loaded, which this core module leaves to the check layer."""
    geometry = sys.modules.get(f"{__package__}.geometry")
    t = _Trial(X, geometry.scope_memo("programs") if geometry else {})
    with np.errstate(all="ignore"):  # failed points compute on garbage
        out = stage(t, X, t.rows)
    failed = np.flatnonzero(t.cause >= 0)
    if failed.size:
        raise t.why(failed[0])
    return out


def at_point(x, dim: int, what: str, stage):
    """stage run on x alone, as the one row of a batch: its row for x.
    The shape rule comes first."""
    return at_points(shaped(x, dim, what)[None, :], stage)[0]


def shaped(x, dim: int, what: str) -> np.ndarray:
    """The shape rule: x as a point of R^dim (`what` names dim)."""
    pt = np.asarray(x, dtype=float)
    if pt.shape != (dim,):
        raise ShapeMismatch(f"point shape {pt.shape} does not match {what} {dim}")
    return pt


def eval_map(F: SmoothMap, x) -> np.ndarray:
    """Componentwise evaluation at a point of the open domain box."""
    return at_point(x, F.in_dim, "domain dim", lambda t, X, rows: t.map(F, X, rows))


def jacobian(F: SmoothMap, x) -> LinearMap:
    """Matrix of first partials at x: F.partials evaluated there."""
    from .linalg import make_linear  # library API, which no command loads

    mat = at_point(x, F.in_dim, "domain dim", lambda t, X, rows: t.jacobian(F, X, rows))
    dom = VectorSpace(F.in_dim, FieldTag.REAL)
    cod = VectorSpace(F.out_dim, FieldTag.REAL)
    return make_linear(dom, cod, mat)
