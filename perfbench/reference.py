"""Correctness reference for every benchmark operation.

    python3 perfbench/reference.py write [--seeds 5]
    python3 perfbench/reference.py selftest

`write` runs one pass of every workload on the current code at seed 0 and
stores, per operation, the exit code and either the (check, subject,
passed) of each report record or the shape of the written spec. Worst
values are not stored: last-ulp drift in them is allowed. It then runs
seeds 1..N and fails if any of them disagrees, so the reference holds for
any seed. `selftest` shows that the checker rejects an operation whose
expected verdict or exit code is wrong, and a construct output of the
right shape but the wrong transitions.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import sys

import run


def one_pass(name: str, seed: int, ref: dict | None = None) -> list:
    """(key, reference entry, result) per op; results verified against ref."""
    wl = run.WORKLOADS[name]
    work = run.WORK_ROOT / f"reference-{name}-{os.getpid()}"
    try:
        wl.stage(work, seed)
        ops = wl.ops(work, seed)
        cli = None if wl.cold else run.import_vbx()
        out = []
        for op in ops:
            res = run.run_cold(op) if wl.cold else run.run_in_process(op, cli)
            key, entry = _entry(res)
            run.verify(res, ref if ref is not None else {key: entry})
            out.append((key, entry, res))
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _entry(res: run.Result) -> tuple:
    """(key, reference entry) that this result implies."""
    entry = {"exit": res.code}
    if res.code is not None and res.op.kind == "check" and res.op.out.exists():
        report = json.loads(res.op.out.read_text())
        entry["records"] = [[r["check"], r["subject"], r["passed"]] for r in report["records"]]
    elif res.code == 0 and res.op.kind == "construct":
        doc = json.loads(res.op.out.read_text())
        entry["shape"] = {"fiber_dim": doc["fiber"]["dim"], "transitions": len(doc["transitions"])}
    return res.op.key, entry


def write(seeds: int) -> int:
    ref = {}
    for name in run.WORKLOADS:
        for key, entry, res in one_pass(name, 0):
            if not res.ok or key in ref:
                print(f"{key}: {res.reason or 'duplicate key'}\n{res.stderr}", file=sys.stderr)
                return 1
            ref[key] = entry
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(ref.items())]
    run.REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(ref)} entries to {run.REFERENCE}")
    bad = 0
    for seed in range(1, seeds + 1):
        for name in run.WORKLOADS:
            for key, entry, res in one_pass(name, seed, ref):
                if not res.ok:
                    bad += 1
                    print(f"seed {seed}: {key}: {res.reason}", file=sys.stderr)
        print(f"seed {seed}: checked")
    return 1 if bad else 0


def _drop_inverse_transpose(op: run.Op) -> None:
    """Overwrite a written dual with its input's transitions: the shape a
    dual missing its inverse-transpose would have."""
    doc = json.loads(op.out.read_text())
    doc["transitions"] = json.loads(op.inputs[0].read_text())["transitions"]
    op.out.write_text(json.dumps(doc))


def selftest() -> int:
    """A wrong expected verdict, a wrong expected exit code and a wrong
    construct output must fail."""
    ref = run.load_reference()
    work = run.WORK_ROOT / f"selftest-{os.getpid()}"
    try:
        run.WORKLOADS["gallery_n2000"].stage(work, 3)
        ops = {op.key: op for name in ("gallery_n2000", "cli_cold")
               for op in run.WORKLOADS[name].ops(work, 3)}
        cli = run.import_vbx()
        wrong_verdict = copy.deepcopy(ref)
        wrong_verdict["check mobius"]["records"][0][2] = False
        wrong_exit = copy.deepcopy(ref)
        wrong_exit["check mobius_tampered"]["exit"] = 0
        dual = "cold construct dual projective_tangent"
        cases = [  # (op, reference, tampering of its output, should pass)
            ("check mobius", ref, None, True), ("check mobius", wrong_verdict, None, False),
            ("check mobius_tampered", ref, None, True),
            ("check mobius_tampered", wrong_exit, None, False),
            (dual, ref, None, True), (dual, ref, _drop_inverse_transpose, False),
        ]
        ok = True
        for key, table, tamper, want in cases:
            res = run.run_in_process(ops[key], cli)
            if tamper is not None:
                tamper(ops[key])
            res = run.verify(res, table)
            good = res.ok == want
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {key}: verified={res.ok} {res.reason}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description="Write or test the correctness reference.")
    ap.add_argument("action", choices=("write", "selftest"))
    ap.add_argument("--seeds", type=int, default=5, help="extra seeds `write` checks")
    args = ap.parse_args()
    return write(args.seeds) if args.action == "write" else selftest()


if __name__ == "__main__":
    raise SystemExit(main())
