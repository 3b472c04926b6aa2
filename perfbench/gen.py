"""Seeded stress-spec generator.

Writes spec files for the benchmark's workloads. The program under test
only ever sees these files; nothing here imports vbx, so generated inputs
do not change when the program does.

    python3 perfbench/gen.py OUTDIR --seed N

The dense bundle is the rank-D bundle, D = DENSE_RANK = 3, over the
gallery's `circle_base` atlas whose forward (east->west) transitions are

    G(x1)[i][j] = delta_ij + a * sin(x1 + i + 2j + c) / D

with 0-based i, j. The reverse (west->east) edges hold the symbolic
inverse adj(G)/det(G) as text. The entries of a*S/D are bounded by a < 1
in the row-sum norm, so G is invertible everywhere and every cocycle
holds up to rounding. The seed fixes the amplitude a and the phase c.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
from pathlib import Path

DENSE_RANK = 3
PRODUCT_PARTNER = "projective_tangent"


def dense_params(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "rank": DENSE_RANK,
        "amplitude": round(0.2 + 0.2 * rng.random(), 6),
        "phase": round(rng.random(), 6),
        "seed": seed,
    }


def _forward(p: dict) -> list:
    d, a, c = p["rank"], p["amplitude"], p["phase"]
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            term = f"{a!r}*sin(x1 + {i + 2 * j + c!r})/{d}"
            row.append(f"1 + {term}" if i == j else term)
        rows.append(row)
    return rows


def _minor(m: list, row: int, col: int) -> list:
    return [[x for k, x in enumerate(r) if k != col] for t, r in enumerate(m) if t != row]


def _det(m: list) -> str:
    if len(m) == 1:
        return m[0][0]
    out = ""
    for j in range(len(m)):
        term = f"({m[0][j]})*({_det(_minor(m, 0, j))})"
        out = term if j == 0 else out + (" - " if j % 2 else " + ") + term
    return out


def _inverse(m: list) -> list:
    d = len(m)
    det = _det(m)
    if d == 1:
        return [[f"1/({det})"]]
    inv = []
    for i in range(d):
        row = []
        for j in range(d):
            cof = _det(_minor(m, j, i))
            sign = "-" if (i + j) % 2 else ""
            row.append(f"{sign}({cof})/({det})")
        inv.append(row)
    return inv


def dense_bundle(base: dict, p: dict) -> dict:
    """The dense rank-D bundle over a two-chart circle atlas."""
    fwd = _forward(p)
    inv = _inverse(fwd)
    transitions = []
    for o in base["overlaps"]:
        g = fwd if o["from"] == "east" else inv
        transitions.append({"from": o["from"], "to": o["to"], "g": g})
    return {"base": base, "fiber": {"dim": p["rank"], "field": "real"},
            "transitions": transitions}


def generate(gallery: Path, outdir: Path, seed: int) -> dict:
    """Write the derived_dense inputs into outdir; returns the parameters."""
    outdir.mkdir(parents=True, exist_ok=True)
    p = dense_params(seed)
    base = json.loads((gallery / "circle_base.json").read_text())["base"]
    text = json.dumps(dense_bundle(base, p), indent=1) + "\n"
    (outdir / "dense.json").write_text(text)
    shutil.copyfile(gallery / f"{PRODUCT_PARTNER}.json", outdir / "partner.json")
    return p


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir")
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    gallery = Path(__file__).resolve().parent.parent / "src" / "vbx" / "gallery"
    print(json.dumps(generate(gallery, Path(args.outdir), args.seed)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
