"""Check reports: plain records of what was verified and how badly it failed.

Reports are value objects built deterministically from (spec, samples, seed,
tol); serializing one twice gives identical bytes. Each record carries the
worst value its check saw, read by the rules of its kind (KINDS): a max
residual passes at worst <= tol, a min scaled |det| at worst > tol.
"""

from __future__ import annotations

import operator
from dataclasses import asdict
from json.encoder import encode_basestring_ascii

import numpy as np

from .record import Record, record

RESIDUAL = "max_residual"
MIN_DET = "min_scaled_det"


@record
class RecordKind(Record):
    """The rules of one kind of record."""

    none: float  # the worst value of no sample
    worst: np.ufunc  # the worse of two values; by reduceat, the worst of each block
    passes: object  # passes(worst, tol)
    noun: str  # a value, in a note
    heading: str  # the worst value, in format_report


KINDS = {RESIDUAL: RecordKind(0.0, np.maximum, operator.le, "residual", "max residual"),
         MIN_DET: RecordKind(np.inf, np.minimum, operator.gt, "scaled determinant",
                             "min scaled |det|")}


@record
class CheckRecord(Record):
    """The outcome of one sampled check on one subject."""

    check: str  # identity being verified, e.g. "pair_cocycle"
    subject: str  # where, e.g. "east->west#0"
    kind: str  # a key of KINDS
    samples: int
    seed: int
    tol: float
    worst: float
    passed: bool
    note: str = ""


@record
class CheckReport(Record):
    """A suite's records, and whether all of them passed."""

    suite: str
    records: tuple
    passed: bool


def sampled_record(check: str, subject: str, kind: str, samples: int, seed: int, tol: float,
                   worst: float) -> CheckRecord:
    return CheckRecord(check, subject, kind, samples, seed, tol, float(worst),
                       bool(KINDS[kind].passes(worst, tol)), "")


def failed_record(check: str, subject: str, samples: int, seed: int, tol: float,
                  note: str, kind: str = RESIDUAL) -> CheckRecord:
    """A record for a check that could not even be evaluated, of the
    check's kind; its worst value is inf whatever the kind."""
    return CheckRecord(check, subject, kind, samples, seed, tol, float("inf"), False, note)


def vacuous_record(check: str, subject: str, kind: str, seed: int, tol: float) -> CheckRecord:
    return CheckRecord(check, subject, kind, 0, seed, tol, KINDS[kind].none, True,
                       "vacuous: no qualifying samples")


def make_report(suite: str, records) -> CheckReport:
    recs = tuple(records)
    return CheckReport(suite, recs, all(r.passed for r in recs))


def merge_reports(suite: str, reports) -> CheckReport:
    records = []
    for rep in reports:
        records.extend(rep.records)
    return make_report(suite, records)


def report_to_dict(report: CheckReport) -> dict:
    return {"suite": report.suite, "passed": report.passed,
            "records": [asdict(r) for r in report.records]}


# report_to_json writes what json.dumps(report_to_dict(report),
# sort_keys=True, indent=2) would, a record at a time into a fixed layout.
_RECORD = """    {
      "check": %s,
      "kind": %s,
      "note": %s,
      "passed": %s,
      "samples": %d,
      "seed": %d,
      "subject": %s,
      "tol": %s,
      "worst": %s
    }"""
_BOOL = {True: "true", False: "false"}


def _number(v) -> str:
    """json's text for an int or float: its repr, or NaN, Infinity or -Infinity."""
    if v - v == 0:  # finite
        return float.__repr__(v) if isinstance(v, float) else int.__repr__(v)
    return "NaN" if v != v else "Infinity" if v > 0 else "-Infinity"


def report_to_json(report: CheckReport) -> str:
    """Canonical serialization; identical inputs give identical bytes."""
    q = encode_basestring_ascii
    records = ",\n".join(_RECORD % (q(r.check), q(r.kind), q(r.note), _BOOL[r.passed], r.samples,
                                     r.seed, q(r.subject), _number(r.tol), _number(r.worst))
                          for r in report.records)
    return (f'{{\n  "passed": {_BOOL[report.passed]},\n  "records": '
            + (f"[\n{records}\n  ]" if records else "[]") + f',\n  "suite": {q(report.suite)}\n}}\n')


def format_report(report: CheckReport) -> str:
    """Terminal rendering, one line per record."""
    lines = [f"suite: {report.suite}"]
    for r in report.records:
        mark = "PASS" if r.passed else "FAIL"
        vacuous = r.note.startswith("vacuous")
        detail = r.note if vacuous else f"{KINDS[r.kind].heading} {r.worst:.3e} (tol {r.tol:.1e})"
        suffix = f" [{r.note}]" if r.note and not vacuous else ""
        lines.append(f"  {mark}  {r.check:<22} {r.subject:<28} {detail}{suffix}")
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines)
