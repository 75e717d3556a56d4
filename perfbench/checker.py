"""Correctness check behind the benchmark's ok_frac.

A job passes when its exit code matches and its artifacts pass two kinds
of test:

* references stored for the default seed (``refs/<workload>.json``):
  byte digests of CSV and PGM artifacts with the ``cfg:`` hash lines
  removed, and JSON reports compared key by key on the reference's keys
  only, so counters added to a report later do not break the check.
  ``census_halton`` stores its sorted orbit set instead of bytes, since a
  different seed sequence finds the same complete set in another order;
* invariants that hold for any seed: every census level holds 2^n points
  and every orbit closes under the map; the horseshoe's minimal-period
  saddle counts equal the Moebius counts of the full 2-shift; a Julia
  cloud holds walks x (depth - burn_in) finite points.

Artifacts are named by kind: the 12-hex config tag in a file name becomes
``*``, so ``periodic-0123456789ab-orbits.csv`` is ``periodic-*-orbits.csv``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from pathlib import Path

import numpy as np

_TAG = re.compile(r"-[0-9a-f]{12}(?=[-.])")

# relative closure gate, as in periodic2d._build_orbit
CLOSURE_TOL = 1e-9
# orbit points from different seeds agree to Newton precision; distinct
# points of a level sit far further apart than this
ORBIT_MATCH_TOL = 1e-7


def artifact_kind(name: str) -> str:
    return _TAG.sub("-*", name, count=1)


def artifacts(out_dir: Path) -> dict:
    if not out_dir.is_dir():
        return {}
    return {artifact_kind(p.name): p for p in sorted(out_dir.iterdir())
            if p.is_file()}


def _drop_cfg_lines(data: bytes, limit: int) -> bytes:
    """Remove ``# cfg:`` lines among the first `limit` lines."""
    lines = data.split(b"\n", limit)
    head, tail = lines[:limit], lines[limit:]
    kept = [ln for ln in head if not ln.startswith(b"# cfg:")]
    return b"\n".join(kept + tail)


def normalized_bytes(path: Path) -> bytes:
    """Artifact bytes without the config-hash line.

    A PGM header is magic, comment lines, size and maxval; only header
    lines are filtered, so raster bytes that happen to read ``# cfg:``
    stay.  CSV writers put the hash on the first row.
    """
    data = path.read_bytes()
    if path.suffix == ".pgm":
        comments = 0
        for line in data.split(b"\n", 8)[1:8]:
            if not line.startswith(b"#"):
                break
            comments += 1
        return _drop_cfg_lines(data, 1 + comments)
    return _drop_cfg_lines(data, 1)


def digest(path: Path) -> str:
    return hashlib.sha256(normalized_bytes(path)).hexdigest()


def json_without_cfg(path: Path):
    doc = json.loads(path.read_text())
    doc.pop("cfg", None)
    return doc


def json_mismatch(ref, got, where: str = "$") -> str | None:
    """First place where `got` differs from `ref`; keys only in `got` are
    ignored."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return f"{where}: expected an object"
        for key, val in ref.items():
            if key not in got:
                return f"{where}.{key}: missing"
            bad = json_mismatch(val, got[key], f"{where}.{key}")
            if bad:
                return bad
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{where}: expected a list of {len(ref)}"
        for i, (r, g) in enumerate(zip(ref, got)):
            bad = json_mismatch(r, g, f"{where}[{i}]")
            if bad:
                return bad
        return None
    if ref != got or type(ref) is not type(got):
        return f"{where}: {got!r} != {ref!r}"
    return None


def read_orbit_rows(path: Path) -> list:
    """Data rows of a periodic orbits CSV as dicts; hash rows skipped."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, body = rows[0], rows[1:]
    return [dict(zip(header, r)) for r in body]


def _points(rows) -> np.ndarray:
    return np.array([[complex(float(r["x_re"]), float(r["x_im"])),
                      complex(float(r["y_re"]), float(r["y_im"]))]
                     for r in rows], dtype=complex).reshape(-1, 2)


def orbit_set(path: Path) -> dict:
    """Level -> (N, 4) list of [x_re, x_im, y_re, y_im], sorted."""
    by_level: dict = {}
    for r in read_orbit_rows(path):
        by_level.setdefault(r["n"], []).append(
            [float(r[k]) for k in ("x_re", "x_im", "y_re", "y_im")])
    return {n: sorted(pts) for n, pts in by_level.items()}


def orbit_set_mismatch(ref: dict, got: dict) -> str | None:
    """Each level must hold the same points, matched both ways within
    ORBIT_MATCH_TOL; equal counts then make the match a bijection."""
    if sorted(ref) != sorted(got):
        return f"levels {sorted(got)} != {sorted(ref)}"
    for n in ref:
        a, b = np.array(ref[n]), np.array(got[n])
        if a.shape != b.shape:
            return f"level {n}: {len(b)} points, expected {len(a)}"
        dist = np.max(np.abs(a[:, None, :] - b[None, :, :]), axis=2)
        scale = 1.0 + np.max(np.abs(a))
        if (np.max(np.min(dist, axis=0)) > ORBIT_MATCH_TOL * scale
                or np.max(np.min(dist, axis=1)) > ORBIT_MATCH_TOL * scale):
            return f"level {n}: orbit points differ from the reference"
    return None


def make_reference(job: dict, out_dir: Path) -> dict:
    """Reference record for one job from a run at the default seed."""
    files = artifacts(out_dir)
    if job["reference"] == "orbit_set":
        return {"orbit_set": orbit_set(files["periodic-*-orbits.csv"])}
    return {"artifacts": {
        kind: ({"json": json_without_cfg(p)} if p.suffix == ".json"
               else {"sha256": digest(p)})
        for kind, p in files.items()}}


def _check_reference(ref: dict, files: dict) -> list:
    problems = []
    if "orbit_set" in ref:
        path = files.get("periodic-*-orbits.csv")
        if path is None:
            return ["periodic-*-orbits.csv missing"]
        bad = orbit_set_mismatch(ref["orbit_set"], orbit_set(path))
        return [f"orbit set: {bad}"] if bad else []
    for kind, want in ref["artifacts"].items():
        path = files.get(kind)
        if path is None:
            problems.append(f"{kind} missing")
        elif "json" in want:
            bad = json_mismatch(want["json"], json_without_cfg(path))
            if bad:
                problems.append(f"{kind}: {bad}")
        elif digest(path) != want["sha256"]:
            problems.append(f"{kind}: content differs from the reference")
    return problems


def mobius_count(n: int) -> int:
    """Points of minimal period n of the full 2-shift, sum_{d|n} mu(n/d) 2^d,
    by Moebius inversion of 2^n = sum_{d|n} count(d)."""
    return 2 ** n - sum(mobius_count(d) for d in range(1, n) if n % d == 0)


def _check_census(job: dict, files: dict) -> list:
    cfg = job["config"]
    a = complex(*cfg["params"]["a"])
    b = complex(*cfg["params"]["b"])
    level_max = int(cfg["budgets"]["level_max"])
    path = files.get("periodic-*-orbits.csv")
    if path is None:
        return ["periodic-*-orbits.csv missing"]
    rows = read_orbit_rows(path)
    problems = []
    counts: dict = {}
    orbits: dict = {}
    for r in rows:
        n = int(r["n"])
        counts[n] = counts.get(n, 0) + int(r["multiplicity"])
        orbits.setdefault((n, r["orbit"]), []).append(r)
    for n in range(1, level_max + 1):
        if counts.get(n, 0) != 2 ** n:
            problems.append(f"level {n}: {counts.get(n, 0)} points, "
                            f"expected {2 ** n}")
    for (n, oid), orows in orbits.items():
        pts = _points(orows)
        period = int(orows[0]["period"])
        if len(pts) != period:
            problems.append(f"level {n} orbit {oid}: {len(pts)} points "
                            f"for period {period}")
            continue
        x, y = pts[:, 0], pts[:, 1]
        fx = -x * x + a - b * y
        resid = max(np.max(np.abs(fx - np.roll(x, -1))),
                    np.max(np.abs(x - np.roll(y, -1))))
        scale = 1.0 + np.max(np.maximum(np.abs(x), np.abs(y))) ** 2
        if not resid <= CLOSURE_TOL * scale:
            problems.append(f"level {n} orbit {oid}: closure residual "
                            f"{resid:.3e}")
    if "mobius" in job.get("invariants", ()):
        path = files.get("periodic-*-saddles.csv")
        if path is None:
            return problems + ["periodic-*-saddles.csv missing"]
        with open(path, newline="") as fh:
            table = [r for r in csv.reader(fh)
                     if r and not r[0].startswith("#")]
        saddles = {int(r[0]): int(r[1]) for r in table[1:]}
        for n in range(1, level_max + 1):
            if saddles.get(n) != mobius_count(n):
                problems.append(f"level {n}: {saddles.get(n)} minimal saddle "
                                f"points, expected {mobius_count(n)}")
    return problems


def _check_julia(job: dict, files: dict) -> list:
    budgets = job["config"]["budgets"]
    walks, depth = int(budgets["walks"]), int(budgets["depth"])
    burn_in = int(budgets.get("burn_in", 10))
    path = files.get("julia-*.csv")
    if path is None:
        return ["julia-*.csv missing"]
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    body = rows[1:]
    want = walks * (depth - burn_in)
    if len(body) != want:
        return [f"julia cloud: {len(body)} points, expected {want}"]
    pts = np.array([[float(r[0]), float(r[1])] for r in body])
    if not np.all(np.isfinite(pts)):
        return ["julia cloud: non-finite points"]
    per_level = np.bincount([int(r[2]) for r in body], minlength=depth + 1)
    if not np.array_equal(per_level[burn_in + 1:],
                          np.full(depth - burn_in, walks)):
        return ["julia cloud: levels do not hold one point per walk"]
    return []


def _check_pgm_size(job: dict, files: dict) -> list:
    want = job["config"].get("window", {}).get("pixels")
    problems = []
    for kind, path in files.items():
        if path.suffix != ".pgm" or want is None:
            continue
        lines = [ln for ln in path.read_bytes().split(b"\n", 8)[1:8]
                 if not ln.startswith(b"#")]
        if lines[0].split() != [str(v).encode() for v in want]:
            problems.append(f"{kind}: size {lines[0]!r}, expected {want}")
    return problems


def check_job(job: dict, out_dir: Path, rc: int, ref: dict | None) -> list:
    """Problems found with one job's run; empty when it passes.

    `ref` is the stored reference record, or None where no reference
    applies: set-up sized jobs, and seeded jobs at another seed than the
    default.
    """
    problems = []
    if rc != job["exit"]:
        problems.append(f"exit code {rc}, expected {job['exit']}")
    files = artifacts(out_dir)
    if not files:
        return problems + ["no artifacts written"]
    try:
        if ref is not None:
            problems += _check_reference(ref, files)
        if job["command"] == "periodic-report":
            problems += _check_census(job, files)
        elif job["command"] == "julia-cloud":
            problems += _check_julia(job, files)
        problems += _check_pgm_size(job, files)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable artifact: {exc!r}")
    return problems
