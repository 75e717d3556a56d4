"""Run one corpus of CLI jobs under two source trees and print what differs.

    python tests/parity.py PARENT_DIR

PARENT_DIR is another checkout of this repository, typically the commit a
change is based on.  Each job runs as ``python -m henonlab`` in a fresh
interpreter against each tree's ``src/``, writing into its own temporary
directory.  The corpus is every job of ``perfbench/spec.json`` (read from
that file, at its default seed), the render shapes pinned in the tests in
all three render modes, a quadratic whose z coefficient is not 0, render
configs whose orbits overflow, a cubic render, renders that take each
branch of the row and column plans of `cli._render_tiles` (windows off
the axis, odd and non-power-of-two heights and widths, a complex
parameter and a complex slice direction, even and odd polynomials, a
complex c and a real nonzero base), two renders whose orbits escape
after d^n has passed the double range, julia-cloud at degrees 2, 4 and
5 and the bench cubic at seed 1, periodic-report on and off the
horseshoe (shadowing seeds and continuation, a short level next to a
bifurcation, and a monodromy that overflows), entropy-report skipped,
incomplete and with an inconclusive reality verdict, and `validate` with
its default criteria (all twelve; criterion 11's details carry the
unstable-manifold cloud's size and worst distance).

One line is printed per output file whose bytes differ or that only one
tree wrote, per differing exit code, and per stderr line that only one
tree printed (the tree's own path is shown as <tree>).  The last line
counts the jobs that differ; the exit status is 1 if any did, else 0.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

HENON_10 = {"kind": "henon", "a": [10.0, 0.0], "b": [0.3, 0.0]}
BASILICA = {"kind": "poly", "coeffs": [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}
POLY_SLICE = {"base": [[0.0, 0.0]], "direction": [[1.0, 0.0]]}
TINY_WINDOW = {"width": 14.0, "height": 10.0, "pixels": [24, 16]}
# one partial tile, full and partial tiles, and shapes spanning several
# bands of the gray map and the PGM write
SHAPES = [[72, 40], [136, 136], [7, 2500], [2500, 7], [9000, 2]]


def _render(mode: str, params: dict, window: dict, n_max: int) -> dict:
    cfg = {"mode": mode, "params": params, "window": window,
           "budgets": {"n_max": n_max}}
    if mode == "poly":
        cfg["slice"] = POLY_SLICE
    return cfg


def corpus() -> list:
    """(name, command, config, seed) for every job, in a fixed order."""
    with open(HERE / "perfbench" / "spec.json") as fh:
        spec = json.load(fh)
    seed = spec["default_seed"]
    jobs = [(f"{wl}/{job['name']}", job["command"], job["config"], seed)
            for wl, body in spec["workloads"].items() for job in body["jobs"]]
    for px in SHAPES:
        window = {"center": [0.0, 0.0], "width": 14.0, "height": 10.0,
                  "pixels": px}
        for mode in ("plus", "minus", "poly"):
            params = BASILICA if mode == "poly" else HENON_10
            jobs.append((f"{mode}-{px[0]}x{px[1]}", "render-green",
                         _render(mode, params, window,
                                 200 if mode == "poly" else 60), None))
    # a quadratic whose z coefficient is not 0
    jobs.append(("poly-top-72x40", "render-green", _render(
        "poly", {"kind": "poly", "coeffs": [[0.1, 0.0], [0.5, 0.2], [1.0, 0.0]]},
        {"center": [0.0, 0.0], "width": 4.0, "height": 3.0, "pixels": [72, 40]},
        200), None))
    # start points up to 5e8 make b * y overflow at b = 1e300
    wide = dict(TINY_WINDOW, width=1e9, height=1e9)
    for mode, a, b, window in [("plus", 10.0, 1e300, wide),
                               ("minus", 10.0, 1e-320, TINY_WINDOW),
                               ("plus", 1e200, 0.3, TINY_WINDOW),
                               ("minus", 1e300, 0.3, TINY_WINDOW),
                               ("minus", 10.0, 1e-200, TINY_WINDOW)]:
        jobs.append((f"{mode}-overflow-a{a!r}-b{b!r}", "render-green",
                     _render(mode, {"a": a, "b": b}, window, 60), None))
    # julia-cloud at degree 2 (closed-form roots), 4 and 5 (Aberth sweeps
    # whose repel sums have more than three terms), and the bench cubic
    # at another seed
    for name, coeffs in [
            ("d2", [[-0.12, 0.75], 0.0, 1.0]),
            ("d4", [[0.1, -0.3], 0.2, [-0.7, 0.1], 0.0, 1.0]),
            ("d5", [[0.2, 0.1], [-0.4, 0.0], 0.0, [0.3, -0.2], 0.0, 1.0])]:
        jobs.append((f"cloud-{name}", "julia-cloud", {
            "params": {"kind": "poly", "coeffs": coeffs, "c": 1.0},
            "window": {"width": 4.0, "height": 4.0, "pixels": [64, 64]},
            "budgets": {"walks": 128, "depth": 30, "burn_in": 10}}, None))
    cubic = spec["workloads"]["julia_cubic"]["jobs"][0]
    jobs.append(("cloud-cubic-seed1", cubic["command"], cubic["config"], 1))
    # a cubic render, whose tail bounds divide by 3^n, and escapes past
    # the double range of 2^n (n >= 1024) and 3^n (n >= 647)
    jobs.append(("poly-cubic-72x40", "render-green", _render(
        "poly", {"kind": "poly", "coeffs": [[0.3, 0.2], [-0.5, 0.0], 0.0,
                                            1.0]},
        {"center": [0.0, 0.0], "width": 4.0, "height": 3.0,
         "pixels": [72, 40]}, 200), None))
    # every branch of the row plan of a real render: rows that pair
    # partly off the axis, an axis row, a height whose rows pair in part,
    # and complex parameters or slices, where no row is mirrored
    off_axis = {"center": [0.0, 0.7], "width": 14.0, "height": 10.0,
                "pixels": [72, 100]}
    for name, mode, params, sl, window in [
            ("plus-off-axis", "plus", HENON_10, None, off_axis),
            ("minus-off-axis", "minus", HENON_10, None, off_axis),
            ("plus-72x41", "plus", HENON_10, None,
             dict(TINY_WINDOW, pixels=[72, 41])),
            ("poly-301x257", "poly", BASILICA, None,
             {"width": 4.0, "height": 4.0, "pixels": [301, 257]}),
            ("plus-complex-a", "plus", dict(HENON_10, a=[10.0, 0.5]), None,
             dict(TINY_WINDOW, pixels=[72, 40])),
            ("plus-complex-direction", "plus", HENON_10,
             {"base": [[0.0, 0.0], [0.0, 0.0]],
              "direction": [[1.0, 0.2], [0.0, 0.0]]},
             dict(TINY_WINDOW, pixels=[72, 40]))]:
        cfg = _render(mode, params, window, 200 if mode == "poly" else 60)
        if sl is not None:
            cfg["slice"] = sl
        jobs.append((name, "render-green", cfg, None))
    # the column plan of a polynomial with f(-w) = +-f(w) on the base 0:
    # an even quartic, an odd cubic, and the basilica off the imaginary
    # axis and 301 pixels wide; and no column plan for a complex c or a
    # real nonzero base (rows only)
    square = {"width": 4.0, "height": 4.0, "pixels": [128, 96]}
    for name, coeffs, base, window in [
            ("poly-even-quartic", [[-0.6, 0.0], 0.0, [0.4, 0.0], 0.0, 1.0],
             None, square),
            ("poly-odd-cubic", [0.0, [-0.5, 0.0], 0.0, 1.0], None, square),
            ("poly-complex-c", [[-0.12, 0.75], 0.0, 1.0], None, square),
            ("poly-real-base", BASILICA["coeffs"], [[0.25, 0.0]], square),
            ("poly-off-centre", BASILICA["coeffs"], None,
             dict(square, center=[0.5, 0.0])),
            ("poly-301-wide", BASILICA["coeffs"], None,
             dict(square, pixels=[301, 96]))]:
        cfg = _render("poly", {"kind": "poly", "coeffs": coeffs}, window, 200)
        if base is not None:
            cfg["slice"] = dict(POLY_SLICE, base=base)
        jobs.append((name, "render-green", cfg, None))
    late = {"center": [0.0, 0.0], "width": 0.001, "height": 0.001,
            "pixels": [4, 4]}
    for name, coeffs in [("quadratic", [0.250001, 0.0, 1.0]),
                         ("cubic", [0.3849101, 0.0, 0.0, 1.0])]:
        jobs.append((f"poly-late-escape-{name}", "render-green", _render(
            "poly", {"kind": "poly", "coeffs": coeffs}, late, 5000), None))
    # censuses: horseshoe seeds at (10, 0.3) and (-1e4, 0.3), continuation
    # off the horseshoe, level 4 short at (3, 1), and a monodromy that
    # overflows at a = 1e150 (exit 2)
    for a, b, level_max in [(10.0, 0.3, 6), (1.4, 0.3, 5), (3.0, 1.0, 4),
                            (0.02431, -0.44608, 8), (-1e4, 0.3, 6),
                            (1e150, 0.3, 5)]:
        jobs.append((f"periodic-a{a!r}-b{b!r}-n{level_max}",
                     "periodic-report", {"params": {"a": a, "b": b},
                                         "budgets": {"level_max": level_max}},
                     None))
    # entropy skipped off the horseshoe, incomplete at budget 16, and
    # skipped with an inconclusive reality verdict
    for name, cfg in [
            ("skipped", {"params": {"a": 1.4, "b": 0.3}}),
            ("incomplete", {"budgets": {"budget": 16}}),
            ("reality-inconclusive", {"params": {"a": 3.0, "b": 1.0},
                                      "budgets": {"reality_n_max": 2}})]:
        jobs.append((f"entropy-{name}", "entropy-report", cfg, None))
    jobs.append(("validate", "validate", {}, None))
    return jobs


def run(tree: Path, work: Path, name: str, command: str, cfg: dict,
        seed) -> tuple:
    """Exit code, stderr lines and {relative path: sha256} of one job."""
    job_dir = work / name.replace("/", "-")
    job_dir.mkdir(parents=True)
    cfg_path = job_dir / "job.json"
    cfg_path.write_text(json.dumps(cfg, sort_keys=True))
    out = job_dir / "out"
    argv = [sys.executable, "-m", "henonlab", command, "--config",
            str(cfg_path), "--threads", "1", "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(argv, env=env, cwd=job_dir, capture_output=True,
                          text=True, timeout=600)
    err = [line.replace(str(tree), "<tree>").replace(str(job_dir), "<job>")
           for line in proc.stderr.splitlines()]
    files = ({str(f.relative_to(out)): hashlib.sha256(f.read_bytes())
              .hexdigest() for f in sorted(out.rglob("*")) if f.is_file()}
             if out.exists() else {})
    return proc.returncode, err, files


def diff(name: str, old: tuple, new: tuple) -> list:
    rc0, err0, files0 = old
    rc1, err1, files1 = new
    lines = []
    for path in sorted(set(files0) | set(files1)):
        h0, h1 = files0.get(path), files1.get(path)
        if h0 != h1:
            lines.append(f"{name}: file {path}: {h0 and h0[:12]} -> "
                         f"{h1 and h1[:12]}")
    if rc0 != rc1:
        lines.append(f"{name}: exit {rc0} -> {rc1}")
    lines += [f"{name}: stderr - {line}" for line in err0 if line not in err1]
    lines += [f"{name}: stderr + {line}" for line in err1 if line not in err0]
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not (Path(args[0]) / "src" / "henonlab").is_dir():
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent = Path(args[0]).resolve()
    jobs = corpus()
    differing = 0
    with tempfile.TemporaryDirectory(prefix="henonlab-parity-") as tmp:
        for name, command, cfg, seed in jobs:
            old = run(parent, Path(tmp) / "parent", name, command, cfg, seed)
            new = run(HERE, Path(tmp) / "this", name, command, cfg, seed)
            lines = diff(name, old, new)
            differing += bool(lines)
            for line in lines:
                print(line)
    print(f"{differing} of {len(jobs)} jobs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
