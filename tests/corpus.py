"""The CLI corpus: every job the tests and tests/parity.py run, and the
table of what each one writes.

`JOBS` lists every job as (name, command, config, seed).  `corpus.json`,
next to this file, holds for each job its exit code, its stderr lines and
the sha256 of each output file, and in its ``library`` section the pinned
digests of library results, keyed by the test that checks them.
`tests/test_corpus.py` runs every job in-process through `cli.main`;
`tests/parity.py` runs them in fresh interpreters; both compare with the
one table.

The jobs: the five benchmark jobs, written out here; renders in all
three modes at shapes that span a partial tile, full and partial tiles
and several bands of the gray map and the PGM write; a quadratic whose
z coefficient is not 0; orbits that overflow; a cubic render; renders
that take each branch of the row and column plans of `cli._render_tiles`;
orbits that escape after d^n has passed the double range, and one whose
escape rate converges to a subnormal; julia-cloud at degrees 2 to 5 and
the bench cubic at seed 1; periodic-report on and off the horseshoe
(shadowing seeds and continuation, lost, retried and far paths, and a
monodromy that overflows); entropy-report at several word lengths,
skipped, incomplete and with an inconclusive reality verdict; and
`validate`, of criterion 12 and of all twelve.

After a change that moves bytes on purpose,

    PYTHONPATH=src python tests/corpus.py

rewrites the ``jobs`` section of the table from this tree's outputs, so
that the table's diff shows exactly which artifacts moved.  Library
digests are re-pinned by hand from the failing test.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import tempfile
import warnings
from pathlib import Path
from typing import NamedTuple

TABLE = Path(__file__).resolve().with_name("corpus.json")


class Job(NamedTuple):
    name: str
    command: str
    config: dict
    seed: int | None = None


HENON_10 = {"kind": "henon", "a": [10.0, 0.0], "b": [0.3, 0.0]}
OFF_HORSESHOE = {"kind": "henon", "a": [1.4, 0.0], "b": [0.3, 0.0]}
BASILICA = {"kind": "poly", "coeffs": [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}
POLY_SLICE = {"base": [[0.0, 0.0]], "direction": [[1.0, 0.0]]}
TINY_WINDOW = {"width": 14.0, "height": 10.0, "pixels": [24, 16]}
SQUARE = {"width": 4.0, "height": 4.0, "pixels": [128, 96]}
LATE = {"center": [0.0, 0.0], "width": 0.001, "height": 0.001,
        "pixels": [4, 4]}
# the benchmark's jobs, at its default seed 0
BENCH_RENDER_PLUS = {
    "mode": "plus", "params": HENON_10,
    "window": {"center": [0.0, 0.0], "width": 16.0, "height": 16.0,
               "pixels": [512, 512]},
    "budgets": {"n_max": 100}}
BENCH_RENDER_POLY = {
    "mode": "poly", "params": BASILICA, "slice": POLY_SLICE,
    "window": {"center": [0.0, 0.0], "width": 4.0, "height": 4.0,
               "pixels": [512, 512]},
    "budgets": {"n_max": 200}}
BENCH_CUBIC = {
    "params": {"kind": "poly",
               "coeffs": [[0.3, 0.2], [-0.5, 0.0], [0.0, 0.0], [1.0, 0.0]],
               "c": [1.0, 0.0]},
    "window": {"center": [0.0, 0.0], "width": 4.0, "height": 4.0,
               "pixels": [256, 256]},
    "budgets": {"walks": 128, "depth": 30, "burn_in": 10}}


def _render(mode: str, params: dict, window: dict, n_max: int | None = None,
            **extra) -> dict:
    cfg = {"mode": mode, "params": params, "window": window,
           "budgets": {"n_max": n_max or (200 if mode == "poly" else 60)}}
    if mode == "poly":
        cfg["slice"] = POLY_SLICE
    return dict(cfg, **extra)


def _poly(coeffs) -> dict:
    return {"kind": "poly", "coeffs": coeffs}


def _cloud(coeffs, walks: int, depth: int, pixels: list) -> dict:
    return {"params": {"kind": "poly", "coeffs": coeffs, "c": 1.0},
            "window": {"width": 4.0, "height": 4.0, "pixels": pixels},
            "budgets": {"walks": walks, "depth": depth, "burn_in": 10}}


def _jobs() -> list:
    jobs = [
        Job("render/plus", "render-green", BENCH_RENDER_PLUS),
        Job("render/poly", "render-green", BENCH_RENDER_POLY),
        Job("julia_cubic/cubic", "julia-cloud", BENCH_CUBIC),
        Job("census_horseshoe/horseshoe", "periodic-report",
            {"params": HENON_10,
             "budgets": {"level_max": 11, "budget": 2048}}),
        Job("census_halton/halton", "periodic-report",
            {"params": OFF_HORSESHOE,
             "budgets": {"level_max": 7, "budget": 2048}}),
    ]
    # one partial tile, full and partial tiles, and shapes spanning
    # several bands of the gray map, the histogram and the PGM write, the
    # last band partial; 9000-pixel rows are longer than a band
    for px in [[72, 40], [136, 136], [7, 2500], [2500, 7], [9000, 2]]:
        window = {"center": [0.0, 0.0], "width": 14.0, "height": 10.0,
                  "pixels": px}
        for mode in ("plus", "minus", "poly"):
            jobs.append(Job(f"{mode}-{px[0]}x{px[1]}", "render-green",
                            _render(mode, BASILICA if mode == "poly"
                                    else HENON_10, window)))
        if px in ([72, 40], [2500, 7]):
            jobs.append(Job(f"poly-basilica-{px[0]}x{px[1]}", "render-green",
                            _render("poly", BASILICA,
                                    dict(window, width=4.0, height=3.0))))
    # a quadratic whose z coefficient is not 0
    jobs.append(Job("poly-top-72x40", "render-green", _render(
        "poly", _poly([[0.1, 0.0], [0.5, 0.2], [1.0, 0.0]]),
        {"center": [0.0, 0.0], "width": 4.0, "height": 3.0,
         "pixels": [72, 40]})))
    # start points up to 5e8 make b * y overflow at b = 1e300; orbits
    # retire at |x| or |y| past 1e154, where the squared magnitude in the
    # tail bound would overflow
    wide = dict(TINY_WINDOW, width=1e9, height=1e9)
    for mode, a, b, window in [("plus", 10.0, 1e300, wide),
                               ("minus", 10.0, 1e-320, TINY_WINDOW),
                               ("plus", 1e200, 0.3, TINY_WINDOW),
                               ("minus", 1e300, 0.3, TINY_WINDOW),
                               ("minus", 10.0, 1e-200, TINY_WINDOW)]:
        jobs.append(Job(f"{mode}-overflow-a{a!r}-b{b!r}", "render-green",
                        _render(mode, {"a": a, "b": b}, window)))
    # julia-cloud at degree 2 (closed-form roots), 3 (every walk step runs
    # the Aberth solver), 4 and 5 (each root's repel sum has more than
    # three terms), and the bench cubic at another seed
    for name, coeffs in [
            ("d2", [[-0.12, 0.75], 0.0, 1.0]),
            ("d4", [[0.1, -0.3], 0.2, [-0.7, 0.1], 0.0, 1.0]),
            ("d5", [[0.2, 0.1], [-0.4, 0.0], 0.0, [0.3, -0.2], 0.0, 1.0])]:
        jobs.append(Job(f"cloud-{name}", "julia-cloud",
                        _cloud(coeffs, 128, 30, [64, 64])))
    jobs += [Job("cloud-cubic-40x24", "julia-cloud", _cloud(
                 [[0.3, 0.2], [-0.5, 0.0], 0.0, 1.0], 64, 20, [40, 24])),
             Job("cloud-quartic-40x24", "julia-cloud", _cloud(
                 [[0.1, -0.3], 0.2, [-0.7, 0.1], 0.0, 1.0], 128, 30,
                 [40, 24])),
             Job("cloud-cubic-seed1", "julia-cloud", BENCH_CUBIC, 1)]
    # a cubic render, whose tail bounds divide by 3^n, and escapes past
    # the double range of 2^n (n >= 1024) and 3^n (n >= 647)
    jobs.append(Job("poly-cubic-72x40", "render-green", _render(
        "poly", _poly([[0.3, 0.2], [-0.5, 0.0], 0.0, 1.0]),
        {"center": [0.0, 0.0], "width": 4.0, "height": 3.0,
         "pixels": [72, 40]})))
    # every branch of the row plan of a real render: rows that pair
    # partly off the axis, an axis row, a height whose rows pair in part,
    # and complex parameters or slices, where no row is mirrored
    off_axis = {"center": [0.0, 0.7], "width": 14.0, "height": 10.0,
                "pixels": [72, 100]}
    flat = dict(TINY_WINDOW, pixels=[72, 40])
    jobs += [
        Job("plus-off-axis", "render-green",
            _render("plus", HENON_10, off_axis)),
        Job("minus-off-axis", "render-green",
            _render("minus", HENON_10, off_axis)),
        Job("plus-72x41", "render-green",
            _render("plus", HENON_10, dict(TINY_WINDOW, pixels=[72, 41]))),
        Job("poly-301x257", "render-green", _render(
            "poly", BASILICA,
            {"width": 4.0, "height": 4.0, "pixels": [301, 257]})),
        Job("plus-complex-a", "render-green",
            _render("plus", dict(HENON_10, a=[10.0, 0.5]), flat)),
        Job("plus-complex-direction", "render-green", _render(
            "plus", HENON_10, flat,
            slice={"base": [[0.0, 0.0], [0.0, 0.0]],
                   "direction": [[1.0, 0.2], [0.0, 0.0]]}))]
    # the column plan of a polynomial with f(-w) = +-f(w) on the base 0:
    # an even quartic, an odd cubic, and the basilica off the imaginary
    # axis and 301 pixels wide; and no column plan for a complex c or a
    # real nonzero base (rows only)
    for name, coeffs, window in [
            ("poly-even-quartic", [[-0.6, 0.0], 0.0, [0.4, 0.0], 0.0, 1.0],
             SQUARE),
            ("poly-odd-cubic", [0.0, [-0.5, 0.0], 0.0, 1.0], SQUARE),
            ("poly-complex-c", [[-0.12, 0.75], 0.0, 1.0], SQUARE),
            ("poly-off-centre", BASILICA["coeffs"],
             dict(SQUARE, center=[0.5, 0.0])),
            ("poly-301-wide", BASILICA["coeffs"],
             dict(SQUARE, pixels=[301, 96]))]:
        jobs.append(Job(name, "render-green",
                        _render("poly", _poly(coeffs), window)))
    jobs.append(Job("poly-real-base", "render-green", _render(
        "poly", BASILICA, SQUARE,
        slice=dict(POLY_SLICE, base=[[0.25, 0.0]]))))
    # escapes after thousands of steps; and every pixel converging to
    # 26 * 2^-1074, a range np.histogram cannot split into 32 bins
    for name, coeffs in [("late-escape-quadratic", [0.250001, 0.0, 1.0]),
                         ("late-escape-cubic", [0.3849101, 0.0, 0.0, 1.0]),
                         ("subnormal", [[0.2500086, 0], [0, 0], [1, 0]])]:
        jobs.append(Job(f"poly-{name}", "render-green",
                        _render("poly", _poly(coeffs), LATE, 5000)))
    # censuses: horseshoe seeds at (10, 0.3) and (-1e4, 0.3), continuation
    # off the horseshoe, and a monodromy that overflows at a = 1e150
    # (exit 2)
    for name, params, level_max in [
            ("horseshoe", HENON_10, 6),
            ("continued", OFF_HORSESHOE, 5),
            # a path lost on both detours (paths_lost 1 at levels 2 and
            # 4), whose stalled end is polished but not admitted: the
            # levels are incomplete (exit 3)
            ("paths-lost", {"kind": "henon", "a": [3.0, 0.0],
                            "b": [1.0, 0.0]}, 4),
            # two period-8 paths lost on the first detour and rerun on
            # the second
            ("paths-retried", {"kind": "henon", "a": [0.02431, 0.0],
                               "b": [-0.44608, 0.0]}, 8),
            # a long path: its detours scale with |a - a0|, so every
            # level is complete
            ("far-a", {"kind": "henon", "a": [-1e4, 0.0],
                       "b": [0.3, 0.0]}, 6),
            ("overflow", {"a": 1e150, "b": 0.3}, 5)]:
        jobs.append(Job(f"periodic-{name}", "periodic-report",
                        {"params": params,
                         "budgets": {"level_max": level_max}}))
    for name, cfg in [
            ("default", {}),
            ("word3", {"budgets": {"word_max": 3}}),
            ("word12", {"budgets": {"word_max": 12}}),
            ("word14", {"budgets": {"word_max": 14}}),
            # the word count is skipped; the reality table still runs
            ("skipped", {"params": OFF_HORSESHOE}),
            # 152 of the 1024 period-10 points: inconclusive (exit 3)
            ("incomplete", {"budgets": {"budget": 16}}),
            ("reality-inconclusive", {"params": {"a": 3.0, "b": 1.0},
                                      "budgets": {"reality_n_max": 2}})]:
        jobs.append(Job(f"entropy-{name}", "entropy-report", cfg))
    # criterion 12 runs `validate` itself
    jobs += [Job("validate-12", "validate", {"params": {"criteria": [12]}}),
             Job("validate", "validate", {})]
    return jobs


JOBS = _jobs()
BY_NAME = {job.name: job for job in JOBS}


@functools.cache
def table() -> dict:
    with open(TABLE) as fh:
        return json.load(fh)


def pinned(key: str) -> str:
    """The library digest the table pins for the test case `key`."""
    return table()["library"][key]


def outputs(rc: int, stderr: str, out: Path) -> dict:
    """The table entry of one run: exit code, stderr lines and, for every
    path under `out`, its relative path -> the file's sha256, or
    "directory", so that a directory left behind is a difference too."""
    files = ({str(f.relative_to(out)): hashlib.sha256(f.read_bytes())
              .hexdigest() if f.is_file() else "directory"
              for f in sorted(out.rglob("*"))}
             if out.exists() else {})
    return {"exit": rc, "stderr": stderr.splitlines(), "files": files}


def config_file(job: Job, work: Path) -> Path:
    path = work / "job.json"
    path.write_text(json.dumps(job.config, sort_keys=True))
    return path


def run(job: Job) -> tuple:
    """Run `job` in this process: its table entry, the messages of the
    warnings it raised and its stdout."""
    from henonlab.cli import main
    with tempfile.TemporaryDirectory(prefix="henonlab-corpus-") as tmp:
        work = Path(tmp)
        argv = [job.command, "--config", str(config_file(job, work)),
                "--out", str(work / "out")]
        if job.seed is not None:
            argv += ["--seed", str(job.seed)]
        err, out = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(out):
            warnings.simplefilter("always")
            rc = main(argv)
        return (outputs(rc, err.getvalue(), work / "out"),
                [str(w.message) for w in caught], out.getvalue())


@functools.cache
def result(name: str) -> tuple:
    """`run` of the job `name`, once per process."""
    return run(BY_NAME[name])


def diff(name: str, got: dict) -> list:
    """One line per output path whose digest differs from the table's or
    that only one side has, directories included, per differing exit code and per stderr line
    that only one side has."""
    want = table()["jobs"].get(name, {"exit": None, "stderr": [],
                                      "files": {}})
    lines = [f"{name}: path {path}: {want['files'].get(path)} -> "
             f"{got['files'].get(path)}"
             for path in sorted(set(want["files"]) | set(got["files"]))
             if want["files"].get(path) != got["files"].get(path)]
    if want["exit"] != got["exit"]:
        lines.append(f"{name}: exit {want['exit']} -> {got['exit']}")
    lines += [f"{name}: stderr - {line}" for line in want["stderr"]
              if line not in got["stderr"]]
    lines += [f"{name}: stderr + {line}" for line in got["stderr"]
              if line not in want["stderr"]]
    return lines


def check(name: str) -> list:
    """What an in-process run of the job `name` does that the table does
    not pin: `diff`'s lines and one line per warning raised."""
    got, warned, _ = result(name)
    return diff(name, got) + [f"{name}: warning {w}" for w in warned]


def repin() -> None:
    """Rewrite the table's ``jobs`` section from this tree's outputs."""
    doc = dict(table(), jobs={job.name: result(job.name)[0]
                             for job in JOBS})
    TABLE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    repin()
