"""End-to-end acceptance checks for the whole toolkit.

Twelve numbered criteria, each an independent function returning a verdict
plus the measured quantities that justify it.  The registry `_CRITERIA`
holds each one's time limit; `run_all` executes them in order, times each
against its limit, and does not abort on a crash: a crashing criterion is
reported as failed with the exception recorded; only an unknown criterion
id raises.  No check leaves files behind.
The CLI `validate` subcommand and the test suite both run through this
module, so there is exactly one definition of "works".
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import MapParams
from .errors import ContractError
from .measures import TestBattery, angular_discrepancy, compare, \
    potential_of_measure
from .periodic2d import (ORBIT_CLASSES, cylinder_point_measure,
                         mu_n_measure, negative_fixed_point, periodic_levels,
                         saddle_table, unstable_disk_sample)
from .poly1d import Poly, brolin_measure
from .potential import (ScalarGrid, discrete_ddc_mass, green_plus_field,
                        green_poly_field, mass_in_disk)
from .symbolic import entropy_estimate, itinerary_word_counts

SQUARE = Poly((0.0, 0.0, 1.0))
HORSESHOE = MapParams(10.0, 0.3)


@functools.cache
def _horseshoe_levels() -> tuple:
    """Levels 1-8 of the (10, 0.3) census, enumerated once per process as
    one census and shared by criteria 6-9 and 11 (levels are frozen)."""
    return tuple(periodic_levels(HORSESHOE, range(1, 9)))


def _horseshoe_level(n: int):
    return _horseshoe_levels()[n - 1]


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0


def _criterion_01():
    """Squaring-map field: computed values equal log+ |z| to 1e-9."""
    rng = np.random.default_rng(11)
    pts = rng.uniform(-3.0, 3.0, size=(1000, 2))
    zs = pts[:, 0] + 1j * pts[:, 1]
    fld = green_poly_field(zs, SQUARE)
    target = np.log(np.maximum(np.abs(zs), 1.0))
    err = float(np.max(np.abs(fld.values - target)))
    all_conv = bool(np.all(fld.converged))
    return err < 1e-9 and all_conv, {
        "points": 1000, "max_error": err, "all_converged": all_conv,
    }


def _criterion_02():
    """Backward-tree equidistribution on the circle for the squaring map."""
    mu_exact = brolin_measure(SQUARE, "preimage", 12, c=1.0)
    d_exact = angular_discrepancy(mu_exact)
    # depth-12 preimages of 1 are the exact 4096th roots of unity, so the
    # Kolmogorov distance can only reach the atomic floor 1/4096
    gap = abs(d_exact - 1.0 / 4096.0)
    mu_off = brolin_measure(SQUARE, "preimage", 14, c=0.5)
    # depth-14 preimages of 0.5 still sit ~4e-5 inside the circle
    d_off = angular_discrepancy(mu_off, radial_tol=1e-3)
    return gap <= 1e-9 and d_off < 0.02, {
        "floor_gap_at_c1": gap, "discrepancy_at_c05": d_off,
        "atoms": [len(mu_exact), len(mu_off)],
    }


def _criterion_03():
    """Periodic-point measure reproduces the squaring-map potential."""
    mu = brolin_measure(SQUARE, "periodic", 10)
    errs = {}
    for z in (1.5, 2.0, 3.0):
        errs[str(z)] = abs(potential_of_measure(mu, z) - math.log(z))
    worst = max(errs.values())
    return mu.complete and worst < 0.01, {
        "complete": mu.complete, "atoms": len(mu),
        "potential_errors": errs, "worst": worst,
    }


def _criterion_04():
    """Five-point laplacian of log|z| concentrates unit mass at the origin."""
    grid = ScalarGrid.over_window(lambda z: np.log(np.abs(z)),
                                  -1.0, 1.0, -1.0, 1.0, 0.01)
    mass = discrete_ddc_mass(grid)
    inside = mass_in_disk(mass, 0.0, 0.5)
    return 0.99 <= inside <= 1.01, {
        "grid": [grid.height, grid.width], "mass_in_half_disk": inside,
    }


def _criterion_05():
    """Forward escape rate doubles under one map application."""
    cases = [(10.0, 0.3), (3.0, -0.5), (1.4 + 0.2j, 0.3)]
    worst_by_case = {}
    for a, b in cases:
        m = MapParams(a, b)
        rng = np.random.default_rng(23)
        collected = 0
        worst = 0.0
        for _ in range(10):
            if collected >= 1000:
                break
            box = rng.uniform(-2.0 * m.R, 2.0 * m.R, size=(4000, 4))
            xs = box[:, 0] + 1j * box[:, 1]
            ys = box[:, 2] + 1j * box[:, 3]
            f1 = green_plus_field(xs, ys, m)
            keep = (f1.converged & ~f1.presumed_bounded & (f1.values > 0.0)
                    & (f1.bounds <= 1e-8))
            if not np.any(keep):
                continue
            xs, ys, v1 = xs[keep], ys[keep], f1.values[keep]
            x2 = -xs * xs + m.a - m.b * ys
            f2 = green_plus_field(x2, xs, m)
            ok = f2.converged & (f2.bounds <= 1e-8)
            err = np.abs(f2.values[ok] - 2.0 * v1[ok])
            take = min(err.size, 1000 - collected)
            if take:
                worst = max(worst, float(np.max(err[:take])))
            collected += take
        worst_by_case[f"a={a}, b={b}"] = worst
        if collected < 1000:
            worst_by_case[f"a={a}, b={b}"] = math.inf
    worst = max(worst_by_case.values())
    return worst < 1e-6, {
        "points_per_case": 1000, "worst_defect": worst,
        "by_case": worst_by_case,
    }


def _mobius_minimal_count(n: int) -> int:
    # points of minimal period n: the 2^n fixed points of f^n less those of
    # minimal period a proper divisor of n (Moebius inversion, unrolled)
    return 2 ** n - sum(_mobius_minimal_count(d) for d in range(1, n)
                        if n % d == 0)


def _criterion_06():
    """Complete period-n census at (10, 0.3) for n <= 6, all orbits real."""
    counts, minimal, xs, complete = {}, {}, [], True
    for n in range(1, 7):
        lv = _horseshoe_level(n)
        counts[n] = lv.fixed_point_count
        minimal[n] = lv.minimal_point_count(saddles_only=True)
        complete = complete and lv.complete
        xs.append(lv.columns.x)
    # a cycle's y are its x in another order
    imag_worst = float(np.max(np.abs(np.concatenate(xs).imag), initial=0.0))
    count_ok = all(counts[n] == 2 ** n for n in counts)
    minimal_ok = all(minimal[n] == _mobius_minimal_count(n) for n in minimal)
    return (complete and count_ok and minimal_ok
            and imag_worst <= 1e-7), {
        "counts": counts, "minimal_saddle_counts": minimal,
        "complete": complete, "worst_imag_part": imag_worst,
    }


def _criterion_07():
    """Saddle-count ratio never drops below its n=3 value through n=6."""
    tab = saddle_table([_horseshoe_level(n) for n in range(1, 7)])
    ratios = {row.n: row.ratio for row in tab.rows}
    floor = ratios[3]
    ok_floor = all(ratios[n] >= floor - 1e-12 for n in range(3, 7))
    ok_end = ratios[6] >= 0.75
    counts_ok = all(row.saddle_count == _mobius_minimal_count(row.n)
                    for row in tab.rows)
    return ok_floor and ok_end and counts_ok, {
        "ratios": {str(k): v for k, v in ratios.items()},
        "baseline": floor, "verdict": tab.verdict,
    }


def _criterion_08():
    """Period-n measures tighten with n and match the itinerary pushforward."""
    mus = {n: mu_n_measure(_horseshoe_level(n)) for n in (4, 6, 8)}
    battery = TestBattery(2, sigma=HORSESHOE.R)
    d46 = compare(mus[4], mus[6], battery).discrepancy
    d68 = compare(mus[6], mus[8], battery).discrepancy
    cyl = cylinder_point_measure(HORSESHOE, 3)
    d_cyl = compare(mus[6], cyl, battery).discrepancy
    return d46 > d68 and d_cyl < 0.05, {
        "d(mu4, mu6)": d46, "d(mu6, mu8)": d68,
        "d(mu6, cylinder3)": d_cyl,
    }


def _golden_mean_counts(n_max: int) -> dict:
    # blocks with no adjacent 1s: S(n) follows the Fibonacci recurrence
    counts = {1: 2, 2: 3}
    for n in range(3, n_max + 1):
        counts[n] = counts[n - 1] + counts[n - 2]
    return counts


def _criterion_09():
    """Word census gives log 2 on the full shift, log phi on the golden mean."""
    lv = _horseshoe_level(8)
    counts = itinerary_word_counts(lv, 8)
    census_ok = all(counts[n] == 2 ** n for n in counts)
    est = entropy_estimate(counts, 8)
    full_err = abs(est.point - math.log(2.0))
    gm = entropy_estimate(_golden_mean_counts(20), 20)
    phi = math.log((1.0 + math.sqrt(5.0)) / 2.0)
    gm_rel = abs(gm.point - phi) / phi
    return (lv.complete and census_ok and full_err < 1e-6
            and gm_rel <= 0.05), {
        "word_counts": counts, "full_shift_error": full_err,
        "golden_mean_relative_error": gm_rel,
    }


def _criterion_10():
    """The outgoing cone absorbs forward orbits with |x| strictly growing."""
    cases = [(10.0, 0.3), (3.0, -0.5), (1.4 + 0.2j, 0.3), (0.1, 0.3),
             (2.0, 1.0)]
    by_case = {}
    all_ok = True
    for a, b in cases:
        m = MapParams(a, b)
        rng = np.random.default_rng(31)
        n = 10000
        rad = rng.uniform(m.R, 4.0 * m.R, size=n)
        x = rad * np.exp(2j * math.pi * rng.uniform(size=n))
        y = (rng.uniform(0.0, 1.0, size=n) * rad
             * np.exp(2j * math.pi * rng.uniform(size=n)))
        ok = bool(np.all((np.abs(x) >= np.abs(y)) & (np.abs(x) >= m.R)))
        active = np.ones(n, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(20):
                x2 = -x * x + m.a - m.b * y
                ax, ax2 = np.abs(x[active]), np.abs(x2[active])
                # next point is (x2, x): cone membership needs |x2| >= |x|
                # and |x2| >= R, and the growth clause wants it strict
                step_ok = np.all(ax2 > ax) and np.all(ax2 >= m.R)
                ok = ok and bool(step_ok)
                y = np.where(active, x, y)
                x = np.where(active, x2, x)
                # freeze past double range; escape is already certain there
                active &= np.abs(x) < 1e100
                if not np.any(active):
                    break
        by_case[f"a={a}, b={b}"] = ok
        all_ok = all_ok and ok
    return all_ok, {"points_per_case": 10000, "iterates": 20,
                    "by_case": by_case}


def _criterion_11():
    """Unstable-manifold cloud passes within 1e-2 of every short saddle."""
    cloud = unstable_disk_sample(negative_fixed_point(HORSESHOE), HORSESHOE,
                                 steps=14, samples=20000)
    worst = 0.0
    saddle_points = 0
    for n in range(1, 7):
        c = _horseshoe_level(n).columns
        # the points of the minimal saddle cycles, in column order
        saddle = c.orbit_class == ORBIT_CLASSES.index("saddle")
        keep = np.repeat((c.period == n) & saddle, c.period)
        for x, y in zip(c.x[keep], c.y()[keep]):
            saddle_points += 1
            d = np.sqrt(np.abs(cloud[:, 0] - x) ** 2
                        + np.abs(cloud[:, 1] - y) ** 2)
            worst = max(worst, float(d.min()))
    return worst < 1e-2, {
        "cloud_points": int(cloud.shape[0]), "saddle_points": saddle_points,
        "worst_distance": worst,
    }


def _other_hash_seed() -> str:
    """A PYTHONHASHSEED unlike this process's: one more than a fixed seed,
    else 0 (this process's own seed is random)."""
    own = os.environ.get("PYTHONHASHSEED", "")
    return str((int(own) + 1) % 2 ** 32) if own.isdigit() else "0"


# seconds a fresh interpreter of criterion 12 may take, from its start
FRESH_TIMEOUT = 600


def _fresh_cli(args: list, cwd: Path) -> subprocess.Popen:
    """Start `python -m henonlab *args` in a new interpreter run from cwd,
    with this henonlab first on its path and another hash seed; its output
    is dropped."""
    package_parent = str(Path(__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=_other_hash_seed(),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [package_parent,
                                 os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-m", "henonlab", *args],
                            cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)


def _files(out_dir: Path) -> dict:
    """Every file under out_dir, relative path -> bytes."""
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def _criterion_12():
    """Every subcommand writes the same files in this process (--threads 1)
    as in a fresh interpreter with another hash seed (--threads 4), both
    writing into a temporary directory that is removed on return."""
    from .cli import main as cli_main

    jobs = {
        "render-green": {
            "command": "render-green", "mode": "plus",
            "window": {"center": [0.0, 0.0], "width": 14.0, "height": 10.0,
                       "pixels": [96, 64]},
            "budgets": {"n_max": 60},
        },
        "julia-cloud": {
            "command": "julia-cloud",
            "budgets": {"walks": 512, "depth": 25, "burn_in": 10},
            "window": {"center": [0.0, 0.0], "width": 4.0, "height": 4.0,
                       "pixels": [64, 64]},
        },
        "periodic-report": {
            "command": "periodic-report",
            "budgets": {"level_max": 4, "budget": 512},
        },
        "entropy-report": {
            "command": "entropy-report",
            "budgets": {"word_max": 6, "reality_n_max": 3, "budget": 512},
        },
        "validate": {
            "command": "validate",
            "params": {"criteria": [4]},
        },
    }

    import json as _json
    with tempfile.TemporaryDirectory(prefix="determinism-") as tmp:
        base = Path(tmp).resolve()
        # the fresh interpreters run while this process runs the same jobs; a
        # crash or a timeout on either side kills the ones still running
        fresh = {}
        try:
            for name, doc in jobs.items():
                cfg_path = base / f"{name}.json"
                cfg_path.write_text(_json.dumps(doc))
                cwd = base / f"{name}-cwd"
                cwd.mkdir()
                fresh[name] = _fresh_cli(
                    [name, "--config", str(cfg_path), "--threads", "4",
                     "--out", str(base / f"{name}-t4")], cwd)
            deadline = time.monotonic() + FRESH_TIMEOUT
            codes = {}
            for name in jobs:
                # the inner run's stdout (validate's verdict lines) belongs to
                # no one: only its files are compared
                with contextlib.redirect_stdout(io.StringIO()):
                    codes[name] = [cli_main(
                        [name, "--config", str(base / f"{name}.json"),
                         "--threads", "1", "--out", str(base / f"{name}-t1")])]
            for name, proc in fresh.items():
                codes[name].append(
                    proc.wait(timeout=max(0.0, deadline - time.monotonic())))
        finally:
            for proc in fresh.values():
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        identical = {name: _files(base / f"{name}-t1")
                     == _files(base / f"{name}-t4") for name in jobs}
    all_ok = all(identical.values()) and all(
        rcs == [0, 0] for rcs in codes.values())
    return all_ok, {"identical": identical, "exit_codes": codes}


# id, name, check, and the seconds the check may take (None: no limit)
_CRITERIA = (
    (1, "squaring-map escape rate matches log+|z|", _criterion_01, 1.0),
    (2, "backward tree equidistributes over the circle", _criterion_02,
     10.0),
    (3, "periodic-point potential matches the escape rate", _criterion_03,
     2.0),
    (4, "discrete laplacian of log|z| carries unit mass", _criterion_04,
     5.0),
    (5, "forward escape rate doubles under the map", _criterion_05, 10.0),
    (6, "period census at (10, 0.3) complete and real through n=6",
     _criterion_06, 120.0),
    (7, "saddle-count ratio holds its n=3 floor", _criterion_07, None),
    (8, "periodic measures converge and match the cylinder pushforward",
     _criterion_08, None),
    (9, "word census entropy: log 2 full shift, log phi control",
     _criterion_09, None),
    (10, "outgoing cone absorbs orbits with growing |x|", _criterion_10,
     None),
    (11, "unstable manifold cloud shadows every short saddle", _criterion_11,
     60.0),
    (12, "CLI outputs are byte-identical in a fresh interpreter",
     _criterion_12, None),
)


def run_all(only=None) -> list[CriterionResult]:
    """Run the acceptance criteria in order, catching per-criterion crashes.

    Each check is timed once, here: one that returns past its time limit
    fails, and its details carry that `time_limit`; a crash carries only
    its `error`.  `only` restricts the run to the listed criterion ids.
    An id outside the registry raises ContractError: a run that checks
    nothing must not report that everything passed.
    """
    results = []
    if only and not all(isinstance(k, int) and not isinstance(k, bool)
                        for k in only):
        raise ContractError(f"criterion ids must be integers, got {only!r}")
    wanted = None if not only else set(only)
    unknown = sorted((wanted or set()) - {cid for cid, *_ in _CRITERIA})
    if unknown:
        raise ContractError(f"unknown acceptance criterion ids {unknown}; "
                            f"known ids are 1-{len(_CRITERIA)}")
    for cid, name, fn, limit in _CRITERIA:
        if wanted is not None and cid not in wanted:
            continue
        t0 = time.perf_counter()
        try:
            passed, details = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, details, limit = False, {"error": repr(exc)}, None
        elapsed = time.perf_counter() - t0
        if limit is not None:
            passed = passed and elapsed < limit
            details["time_limit"] = limit
        results.append(CriterionResult(cid, name, bool(passed), details,
                                       elapsed))
    return results
