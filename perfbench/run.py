"""Benchmark of vbx: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload gallery_n2000 --seed 1 --seconds 24 --trace 0

One process issues one `vbx` command at a time and waits for it; there are
no threads. Every operation's output is checked against `reference.json`
(exit code and the (check, subject, passed) of every report record), the
shape of every written spec and its transitions at seeded points
(`construct_check.py`), and an independent evaluation of every `vbx eval`
value. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, measured untraced
over whole passes of the workload's op list. With `--trace 1` they are the
per-layer ones from `tracing.py` over one pass, together with the tracing
overhead. The line before the result holds the details: generator
parameters, per-command timings with the tail percentile used and its
sample count, raw wall times, bytes written and failures.

The program is imported from `src/` of the checkout this file sits in; a
checkout without it is an error (exit 2, no result line).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import construct_check
import gen
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GALLERY = SRC / "vbx" / "gallery"
REFERENCE = HERE / "reference.json"
WORK_ROOT = ROOT / ".perfbench_work"
SPANS_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(SRC))  # vbx for the workers and for construct_check

SETUP_REPS = 5
IMPORT_REPS = 3
GALLERY_SAMPLES = 2000
DERIVED_SAMPLES = 3
COLD_SAMPLES = 50
OP_TIMEOUT_S = 150
TAIL_BEYOND = 10
CAL_LOOPS = 8_000
CAL_REPS = 9
CAL_REUSE_S = 1.0  # a calibration this recent serves as the next "before"
REF_CAL_S = 0.003  # one calibration loop on the reference machine, quiet
REF_NUMPY_S = 0.12  # `import numpy` in a fresh interpreter there, quiet
GALLERY_SPECS = ("circle_base", "circle_tangent", "mobius", "mobius_bad_section",
                 "mobius_tampered", "projective_base", "projective_tangent", "trivial")
DUAL_INPUTS = ("circle_tangent", "mobius", "projective_tangent", "trivial")
TANGENT_INPUTS = ("circle_base", "projective_base")


@dataclass
class Op:
    key: str  # name in reference.json
    kind: str  # check | construct | eval
    argv: list  # vbx command-line arguments
    out: Path | None = None  # file the command writes
    expect: list | None = None  # eval: values from the independent evaluator
    inputs: tuple = ()  # construct: the input spec files
    seed: int = 0  # construct: seeds the points its output is checked at


@dataclass
class Result:
    op: Op
    raw_seconds: float  # wall time
    code: int | None
    stdout: str
    stderr: str
    seconds: float  # the time the metrics use: see run_in_process, run_cold
    ok: bool = False
    reason: str = ""
    points: int = 0
    out_bytes: int = 0


@dataclass
class Workload:
    name: str
    cold: bool  # fresh interpreter per command, else in process
    pass_s: float  # nominal seconds per pass on the seed code
    stage: Callable[[Path, int], dict]  # writes the inputs, returns their parameters
    ops: Callable[[Path, int], list]  # the op list of one pass


# ---------------------------------------------------------------------------
# Inputs and operations.


def _stage_gallery(work: Path, seed: int) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    for name in GALLERY_SPECS:
        shutil.copyfile(GALLERY / f"{name}.json", work / f"{name}.json")
    return {"specs": list(GALLERY_SPECS)}


def _stage_dense(work: Path, seed: int) -> dict:
    return gen.generate(GALLERY, work, seed)


def _check(work: Path, key: str, spec: str, samples: int, seed: int) -> Op:
    report = work / f"report_{spec}.json"
    argv = ["check", str(work / f"{spec}.json"), "--samples", str(samples),
            "--seed", str(seed), "--out", str(report)]
    return Op(key, "check", argv, report)


def _gallery_ops(work: Path, seed: int) -> list:
    return [_check(work, f"check {s}", s, GALLERY_SAMPLES, seed) for s in GALLERY_SPECS]


DERIVED = (  # (output, construct arguments, inputs)
    ("tensor11", ["tensor", "--r", "1", "--s", "1"], ("dense",)),
    ("tensor02", ["tensor", "--r", "0", "--s", "2"], ("dense",)),
    ("dual", ["dual"], ("dense",)),
    ("product", ["product"], ("dense", "partner")),
)


def _derived_ops(work: Path, seed: int) -> list:
    ops = []
    for out, kind, inputs in DERIVED:
        path = work / f"{out}.json"
        files = tuple(work / f"{i}.json" for i in inputs)
        argv = ["construct", *kind, *map(str, files), "-o", str(path)]
        ops.append(Op(f"construct {out}", "construct", argv, path, inputs=files, seed=seed))
    ops += [_check(work, f"check {out}", out, DERIVED_SAMPLES, seed) for out, _, _ in DERIVED]
    return ops


def _eval_ops(work: Path, seed: int) -> list:
    """`vbx eval` of every named section and field in the gallery, each at a
    seeded point of its first chart, with values from `expected_values`."""
    ops = []
    k = 0
    for spec in GALLERY_SPECS:
        doc = json.loads((work / f"{spec}.json").read_text())
        boxes = {c["name"]: c["box"] for c in doc["base"]["charts"]}
        for entry in doc.get("sections", []) + doc.get("fields", []):
            chart = sorted(entry["components"])[0]
            point = construct_check.seeded_point(boxes[chart], seed, k)
            k += 1
            argv = ["eval", str(work / f"{spec}.json"), "--target", entry["name"],
                    "--chart", chart, "--point=" + ",".join(repr(x) for x in point)]
            expect = expected_values(entry["components"][chart], point)
            ops.append(Op(f"cold eval {spec} {entry['name']}", "eval", argv, None, expect))
    return ops


def expected_values(texts: list, point: list) -> list:
    """Independent evaluation of component texts with Python's math module.

    Valid for texts where no unary minus sits directly before a `^` operand,
    which holds for every shipped gallery entry (vbx binds that minus
    tighter than the power; Python does not).
    """
    names = {"sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp,
             "log": math.log, "sqrt": math.sqrt, "pi": math.pi, "e": math.e}
    names.update({f"x{i + 1}": v for i, v in enumerate(point)})
    return [float(eval(t.replace("^", "**"), {"__builtins__": {}}, names)) for t in texts]


def _cold_ops(work: Path, seed: int) -> list:
    checks = [_check(work, f"cold check {s}", s, COLD_SAMPLES, seed) for s in GALLERY_SPECS]
    evals = _eval_ops(work, seed)
    builds = []
    for kind, specs in (("dual", DUAL_INPUTS), ("tangent", TANGENT_INPUTS)):
        for s in specs:
            path, spec = work / f"{kind}_{s}.json", work / f"{s}.json"
            builds.append(Op(f"cold construct {kind} {s}", "construct",
                             ["construct", kind, str(spec), "-o", str(path)], path,
                             inputs=(spec,), seed=seed))
    return checks + evals + builds


WORKLOADS = {
    # Tiny trees, nothing constructed: per-point interpretation dominates.
    "gallery_n2000": Workload("gallery_n2000", False, 8.0, _stage_gallery, _gallery_ops),
    # Dense symbolic transitions with heavy node sharing: construction,
    # printing, parsing and big-tree evaluation dominate.
    "derived_dense": Workload("derived_dense", False, 8.0, _stage_dense, _derived_ops),
    # Fresh interpreter per command: start-up and `import vbx` dominate.
    "cli_cold": Workload("cli_cold", True, 12.0, _stage_gallery, _cold_ops),
}


# ---------------------------------------------------------------------------
# Running and checking one operation.


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _clear_output(op: Op) -> None:
    """Remove the previous pass's output, so a stale file never passes."""
    if op.out is not None:
        op.out.unlink(missing_ok=True)


def at_reference_speed(raw: float, before: float) -> float:
    """Scale a wall time measured between two calibrations to the reference
    speed: REF_CAL_S over the mean of the calibration before the interval
    and one taken now, after it.

    The host is shared and its speed drifts by a third or more within tens
    of seconds as other tenants come and go; the drift slows the
    calibration loop too, so scaled times describe the program rather than
    the neighbours. Raw wall times stay in the detail line.
    """
    return raw * REF_CAL_S / (0.5 * (before + calibration_s()))


_last_cal = [-math.inf, 0.0]  # (when, value) of the latest calibration


def calibration_before() -> float:
    """The calibration before an interval: the latest one if it is at most
    CAL_REUSE_S old, as it is between consecutive ops, else a new one."""
    if time.perf_counter() - _last_cal[0] > CAL_REUSE_S:
        calibration_s()
    return _last_cal[1]


def run_in_process(op: Op, cli) -> Result:
    """Run one op in this process, timed at the reference speed."""
    _clear_output(op)
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    before = calibration_before()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # recorded as a failed operation, never fatal to the run
        code = None
        err.write(traceback.format_exc())
    raw = time.perf_counter() - t0
    return Result(op, raw, code, out.getvalue(), err.getvalue(), at_reference_speed(raw, before))


def run_cold(op: Op, spans: Path | None = None) -> Result:
    """Run one op in a fresh interpreter, timed from spawn to exit at the
    reference speed."""
    _clear_output(op)
    if spans is None:
        cmd = [sys.executable, "-m", "vbx.cli", *op.argv]
    else:
        cmd = [sys.executable, str(HERE / "tracing.py"), str(spans), *op.argv]
    before = calibration_before()
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        wall = time.perf_counter() - t0
        return Result(op, wall, None, "", f"timed out: {exc}", at_reference_speed(wall, before))
    wall = time.perf_counter() - t0
    return Result(op, wall, proc.returncode, proc.stdout, proc.stderr,
                  at_reference_speed(wall, before))


def verify(res: Result, ref: dict) -> Result:
    """Set res.ok, and res.reason when it fails; count points and bytes."""
    want = ref.get(res.op.key)
    try:
        res.reason = _mismatch(res, want)
    except Exception as exc:  # an output the checks cannot read fails the op
        res.reason = f"unreadable output: {exc!r}"
    res.ok = not res.reason
    return res


_CHECKED_OUTPUTS: dict = {}  # op key -> digest of a construct output that passed


def _mismatch(res: Result, want: dict | None) -> str:
    if want is None:
        return "no reference entry"
    if "Traceback" in res.stdout or "Traceback" in res.stderr:
        return "printed a traceback"
    if res.code != want["exit"]:
        return f"exit {res.code}, expected {want['exit']}"
    op = res.op
    if op.kind == "check":
        report = json.loads(op.out.read_text())
        got = [[r["check"], r["subject"], r["passed"]] for r in report["records"]]
        res.points = sum(r["samples"] for r in report["records"])
        if got != want["records"]:
            return "report records differ from the reference"
    elif op.kind == "construct":
        data = op.out.read_bytes()
        res.out_bytes = len(data)
        doc = json.loads(data)
        got = {"fiber_dim": doc["fiber"]["dim"], "transitions": len(doc["transitions"])}
        if got != want["shape"]:
            return f"output shape {got}, expected {want['shape']}"
        digest = hashlib.sha256(data).digest()
        if _CHECKED_OUTPUTS.get(op.key) == digest:  # the same bytes passed already
            return ""
        inputs = [json.loads(p.read_text()) for p in op.inputs]
        reason = construct_check.mismatch(op.argv, inputs, doc, op.seed)
        if not reason:
            _CHECKED_OUTPUTS[op.key] = digest
        return reason
    else:
        lines = [ln for ln in res.stdout.splitlines() if ln.startswith("value ")]
        if len(lines) != 1:
            return "no value line"
        values = [float(t) for t in lines[0].split()[1:]]
        if len(values) != len(op.expect) or not all(
                math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-14)
                for a, b in zip(values, op.expect)):
            return f"values {values}, expected {op.expect}"
    return ""


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


# ---------------------------------------------------------------------------
# Set-up, statistics and the measured loop.


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop that allocates as it goes,
    as parsing and evaluation do: the machine's speed now."""
    times = []
    for _ in range(CAL_REPS):
        t0 = time.perf_counter()
        table = {}
        for i in range(CAL_LOOPS):
            table[(i, i + 1)] = [i, str(i)]
        del table
        times.append(time.perf_counter() - t0)
    _last_cal[:] = [time.perf_counter(), statistics.median(times)]
    return _last_cal[1]


def child_import_seconds(module: str) -> float:
    """Wall time of a fresh interpreter that imports module, spawn to exit."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", f"import {module}"], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"import {module} failed in a fresh interpreter:\n{proc.stderr}")
    return wall


def measure_setup(wl: Workload, work: Path, seed: int) -> tuple:
    """Median over SETUP_REPS of (generate inputs + import vbx in a fresh
    interpreter); the last repetition's inputs are the ones used.

    Set-up is almost all import, whose speed the pure-Python calibration
    tracks poorly. Each repetition is instead scaled to the reference speed
    by REF_NUMPY_S over the mean of the `import numpy` times in fresh
    interpreters just before and just after it.
    """
    times = []
    params = {}
    cal = [child_import_seconds("numpy")]
    for _ in range(SETUP_REPS):
        if work.exists():
            shutil.rmtree(work)
        t0 = time.perf_counter()
        params = wl.stage(work, seed)
        raw = time.perf_counter() - t0 + child_import_seconds("vbx")
        cal.append(child_import_seconds("numpy"))
        times.append(raw * REF_NUMPY_S / (0.5 * (cal[-2] + cal[-1])))
    return statistics.median(times), params


def hd_quantile(values: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with weights from the Beta(p(n+1),
    (1-p)(n+1)) density; unlike a single order statistic it does not jump
    when the quantile falls between two clusters of op costs.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cells = 64  # midpoint rule per order statistic
    dens = [t ** (a - 1) * (1 - t) ** (b - 1)
            for t in ((k + 0.5) / (n * cells) for k in range(n * cells))]
    total = sum(dens)
    return sum(x * sum(dens[i * cells:(i + 1) * cells]) / total for i, x in enumerate(xs))


def timing_stats(values: list) -> dict:
    """Median and the highest percentile with TAIL_BEYOND samples beyond it."""
    n = len(values)
    if n == 0:
        return {"count": 0}
    p = max(0.5, (n - TAIL_BEYOND) / n)  # below 2*TAIL_BEYOND samples: the median
    return {"p50": hd_quantile(values, 0.5), "tail": hd_quantile(values, p),
            "tail_percentile": round(100 * p, 2), "count": n}


def measured_loop(ops: list, run_op, passes: int, ref: dict) -> list:
    """Closed loop: whole passes over the op list, one op at a time."""
    return [verify(run_op(op), ref) for _ in range(passes) for op in ops]


def import_vbx():
    import vbx.cli

    if not Path(vbx.cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"vbx imported from {vbx.cli.__file__}, not from {SRC}")
    return vbx.cli


# ---------------------------------------------------------------------------
# The two kinds of run.


def end_to_end(wl: Workload, ops: list, seconds: float, ref: dict, setup_s: float) -> tuple:
    """Whole passes, round(seconds / nominal pass time) of them and at least
    one. Every run weighs each op alike, so a workload whose ops differ
    tenfold in cost keeps its median and tail on the same mix, and the pass
    count does not move with the host's speed."""
    passes = max(1, round(seconds / wl.pass_s))
    if wl.cold:
        results = measured_loop(ops, run_cold, passes, ref)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        cli = import_vbx()
        results = measured_loop(ops, lambda op: run_in_process(op, cli), passes, ref)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    op_stats = timing_stats([r.seconds for r in results])
    check_time = sum(r.seconds for r in results if r.op.kind == "check")
    points = sum(r.points for r in results)
    metrics = {
        "op_s.p50": (op_stats["p50"], "s"),
        "op_s.tail": (op_stats["tail"], "s"),
        "points_per_s": (points / check_time if check_time else 0.0, "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    detail = {"passes": passes, "op_s": op_stats, "points": points,
              "op_s_wall": timing_stats([r.raw_seconds for r in results]),
              "out_bytes": sum(r.out_bytes for r in results)}
    for kind in ("check", "construct", "eval"):
        detail[f"{kind}_s"] = timing_stats([r.seconds for r in results if r.op.kind == kind])
    if wl.cold:
        detail["cold_cmd_s"] = op_stats
    return results, metrics, detail


PER_LAYER_TIMES = (  # metric, span name
    ("expr.eval_s", "expr.eval"), ("expr.parse_s", "expr.parse"),
    ("expr.to_string_s", "expr.to_string"),
    ("calculus.eval_map_s", "calculus.eval_map"), ("calculus.jacobian_s", "calculus.jacobian"),
    ("linalg.det_s", "linalg.det"), ("geometry.sample_s", "geometry.sample"),
    ("bundles.check_base_atlas_s", "bundles.check_base_atlas"),
    ("bundles.check_vb_s", "bundles.check_vb"),
    ("bundles.check_section_s", "bundles.check_section"),
    ("bundles.check_frame_s", "bundles.check_frame"),
    ("constructions.build_s.tensor", "constructions.build.tensor"),
    ("constructions.build_s.dual", "constructions.build.dual"),
    ("constructions.build_s.product", "constructions.build.product"),
    ("constructions.build_s.tangent", "constructions.build.tangent"),
    ("constructions.check_tensor_field_s", "constructions.check_tensor_field"),
    ("symmat.inverse_s", "symmat.inverse"), ("symmat.kron_s", "symmat.kron"),
    ("specio.load_s", "specio.load"), ("specio.save_s", "specio.save"),
    ("report.format_s", "report.format"), ("report.json_s", "report.json"),
    ("cli.self_s", "cli"),
)
PER_LAYER_CALLS = (
    ("expr.eval_calls", "expr.eval"), ("expr.parse_calls", "expr.parse"),
    ("calculus.eval_map_calls", "calculus.eval_map"),
    ("calculus.jacobian_calls", "calculus.jacobian"), ("linalg.det_calls", "linalg.det"),
)
PER_LAYER_COUNTS = ("geometry.points", "bundles.find_edge_calls", "bundles.records",
                    "bundles.vacuous_records", "bundles.triple_points",
                    "constructions.tree_nodes", "constructions.unique_nodes",
                    "specio.load_bytes", "specio.save_bytes")


def traced_op(wl: Workload, op: Op, op_id: int, tracer, cli, ref: dict) -> Result:
    """The op, traced and checked."""
    if wl.cold:
        spans = SPANS_DIR / f"child-{os.getpid()}.npz"
        res = verify(run_cold(op, spans), ref)
        if spans.exists():
            tracer.absorb(spans, op_id)
            spans.unlink()
        return res
    tracer.op = op_id
    tracer.install()
    try:
        res = run_in_process(op, cli)
    finally:
        tracer.uninstall()
    tracer.walk_outputs()
    return verify(res, ref)


def traced(wl: Workload, ops: list, ref: dict) -> tuple:
    """One traced pass.

    Per-layer figures are for that pass, in wall seconds. The overhead is
    the measured cost of one span times the number of spans, in the same
    wall seconds, as a share of the pass's traced wall time less it.
    """
    tracer = tracing.Tracer()
    cli = None if wl.cold else import_vbx()
    results = [traced_op(wl, op, k, tracer, cli, ref) for k, op in enumerate(ops)]
    traced_s = sum(r.raw_seconds for r in results)
    tracer.dump(SPANS_DIR / f"spans-{wl.name}.npz")
    self_s, calls = tracer.totals()
    counts = tracer.counts
    metrics = {}
    for metric, span in PER_LAYER_TIMES:
        metrics[metric] = (self_s.get(span, 0.0), "s")
    for metric, span in PER_LAYER_CALLS:
        metrics[metric] = (calls.get(span, 0), "count")
    for key in PER_LAYER_COUNTS:
        metrics[key] = (counts.get(key, 0), "B" if key.endswith("_bytes") else "count")
    tree, unique = counts.get("constructions.tree_nodes", 0), counts.get(
        "constructions.unique_nodes", 0)
    metrics["constructions.unique_ratio"] = (unique / tree if tree else 0.0, "ratio")
    hits, tried = counts.get("bundles.triple_hits", 0), counts.get("bundles.triple_points", 0)
    metrics["bundles.triple_hit_ratio"] = (hits / tried if tried else 0.0, "ratio")
    imports = [tracing.import_breakdown(child_env(), ROOT) for _ in range(IMPORT_REPS)]
    for key in ("import.total_s", "import.scipy_special_s"):
        metrics[key] = (statistics.median(i[key] for i in imports), "s")
    span_s = tracing.span_cost()
    overhead_s = span_s * len(tracer.start)
    metrics["trace.overhead_s"] = (overhead_s, "s")
    metrics["trace.overhead_frac"] = (overhead_s / (traced_s - overhead_s), "ratio")
    detail = {"passes": 1, "traced_pass_s": traced_s, "span_cost_s": span_s,
              "spans": len(tracer.start), "triple_hits": hits}
    return results, metrics, detail


# ---------------------------------------------------------------------------


def declared_metrics(trace_on: bool) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace_on else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one vbx benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "vbx" / "__init__.py").is_file():
        print(f"perfbench: no vbx sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    ref = load_reference()
    work = WORK_ROOT / f"{wl.name}-{os.getpid()}"
    try:
        setup_s, params = measure_setup(wl, work, args.seed)
        ops = wl.ops(work, args.seed)
        if args.trace:
            results, metrics, detail = traced(wl, ops, ref)
        else:
            results, metrics, detail = end_to_end(wl, ops, args.seconds, ref, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    declared = declared_metrics(bool(args.trace))
    units = {k: u for k, (_, u) in metrics.items()}
    if units != declared:
        print(f"perfbench: metrics {units} do not match BENCHMARK.json {declared}",
              file=sys.stderr)
        return 2
    failed = [r for r in results if not r.ok]
    detail.update({"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "generator": params,
                   "failed_frac": len(failed) / len(results),
                   "failures": [f"{r.op.key}: {r.reason}" for r in failed[:5]]})
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
