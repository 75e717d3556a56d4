"""Batch command-line surface.

Five subcommands: render-green, julia-cloud, periodic-report,
entropy-report, validate.  A run is described by one JSON config; flags
override fields.  Every artifact embeds the sha256 hash of the semantic
config fields (command, mode, params, slice, window, budgets, tolerances,
rng_seed) so outputs are traceable; thread count and output paths stay
out of the hash because they never change pixel or report content.

Exit codes: 0 success, 2 contract violation or bad config, 3 incomplete
or inconclusive result, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import functools
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import MapParams, is_horseshoe_regime
from .errors import CapError, ContractError, HenonlabError
from .measures import TestBattery, compare
from .periodic2d import (mu_n_measure, periodic_points_2d, reality_table,
                         saddle_table)
from .poly1d import Poly, julia_render_points
from .potential import green_minus_field, green_plus_field, green_poly_field
from .raster import density_counts, grayscale_log, write_pgm
from .symbolic import (PeriodicSequence, SymbolWord, count_admissible_words,
                       entropy_estimate)

TILE = 128
# largest pixel raster, and largest julia-cloud walk tree (walks x
# (depth + 1) points), a config may ask for: 2^24 complex points is 256 MiB
SIZE_CAP = 2 ** 24

_HENON_DEFAULT = {"kind": "henon", "a": [10.0, 0.0], "b": [0.3, 0.0]}

DEFAULTS = {
    "render-green": {
        "mode": "plus",
        "params": dict(_HENON_DEFAULT),
        "slice": {"base": [[0.0, 0.0], [0.0, 0.0]],
                  "direction": [[1.0, 0.0], [0.0, 0.0]]},
        "window": {"center": [0.0, 0.0], "width": 16.0, "height": 16.0,
                   "pixels": [256, 256]},
        "budgets": {"n_max": 100},
        "tolerances": {"tol": 1e-9},
    },
    "julia-cloud": {
        "mode": "cloud",
        "params": {"kind": "poly",
                   "coeffs": [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                   "c": [1.0, 0.0]},
        "slice": {},
        "window": {"center": [0.0, 0.0], "width": 4.0, "height": 4.0,
                   "pixels": [256, 256]},
        "budgets": {"walks": 4096, "depth": 40, "burn_in": 10},
        "tolerances": {},
    },
    "periodic-report": {
        "mode": "report",
        "params": dict(_HENON_DEFAULT),
        "slice": {},
        "window": {},
        "budgets": {"level_max": 5, "budget": 2048},
        "tolerances": {},
    },
    "entropy-report": {
        "mode": "report",
        "params": dict(_HENON_DEFAULT),
        "slice": {},
        "window": {},
        "budgets": {"word_max": 10, "reality_n_max": 4, "budget": 2048},
        "tolerances": {},
    },
    "validate": {
        "mode": "all",
        "params": {},
        "slice": {},
        "window": {},
        "budgets": {},
        "tolerances": {},
    },
}

_SECTIONS = ("params", "slice", "window", "budgets", "tolerances")

# section keys a config file may set beyond those of its command's
# defaults: the polynomial of a poly render, the criteria to validate
_EXTRA_KEYS = {
    ("render-green", "params"): {"coeffs"},
    ("validate", "params"): {"criteria"},
}


@dataclass(frozen=True)
class JobConfig:
    command: str
    mode: str
    params: dict
    slice: dict
    window: dict
    budgets: dict
    tolerances: dict
    rng_seed: int
    threads: int
    out: str

    def semantic_doc(self) -> dict:
        return {
            "command": self.command,
            "mode": self.mode,
            "params": self.params,
            "slice": self.slice,
            "window": self.window,
            "budgets": self.budgets,
            "tolerances": self.tolerances,
            "rng_seed": self.rng_seed,
        }

    def cfg_hash(self) -> str:
        blob = json.dumps(self.semantic_doc(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("ascii")).hexdigest()


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def build_config(command: str, file_doc: dict | None = None,
                 seed: int | None = None, threads: int | None = None,
                 out: str | None = None) -> JobConfig:
    if command not in DEFAULTS:
        raise ContractError(f"unknown command {command!r}")
    doc = copy.deepcopy(DEFAULTS[command])
    doc.setdefault("rng_seed", 0)
    doc.setdefault("threads", 1)
    doc.setdefault("out", ".")
    if file_doc is not None and not isinstance(file_doc, dict):
        raise ContractError("a config file must hold one JSON object")
    if file_doc:
        unknown = sorted(set(file_doc) - set(doc) - {"command"})
        if unknown:
            raise ContractError(f"unknown config keys {unknown}")
        if "command" in file_doc and file_doc["command"] != command:
            raise ContractError("config file names a different command")
        _check_section_keys(command, file_doc)
        doc = _deep_merge(doc, {k: v for k, v in file_doc.items()
                                if k != "command"})
    if seed is not None:
        doc["rng_seed"] = seed
    if threads is not None:
        doc["threads"] = threads
    if out is not None:
        doc["out"] = str(out)
    for key in _SECTIONS:
        if not isinstance(doc[key], dict):
            raise ContractError(f"config field {key} must be an object")
    for key in ("rng_seed", "threads"):
        if not _is_int(doc[key]):
            raise ContractError(f"{key} must be an integer")
    cfg = JobConfig(command, doc["mode"], doc["params"], doc["slice"],
                    doc["window"], doc["budgets"], doc["tolerances"],
                    doc["rng_seed"], doc["threads"], doc["out"])
    _validate_config(cfg)
    return cfg


def _check_section_keys(command: str, file_doc: dict) -> None:
    """Reject keys the command does not read in the file's own sections.

    The file is checked, not the merged doc: a poly render inherits the
    henon default's a and b under params and must still be accepted.
    """
    for section in _SECTIONS:
        given = file_doc.get(section)
        if not isinstance(given, dict):
            continue  # a missing section is fine, a non-object one fails later
        known = set(DEFAULTS[command][section])
        known |= _EXTRA_KEYS.get((command, section), set())
        unknown = sorted(set(given) - known)
        if unknown:
            raise ContractError(f"unknown {command} {section} keys {unknown}")


def _is_real(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _validate_config(cfg: JobConfig) -> None:
    if cfg.threads < 1:
        raise ContractError("threads must be >= 1")
    if not -(2 ** 63) <= cfg.rng_seed < 2 ** 64:
        raise ContractError("rng_seed must fit in 64 bits")
    for key, val in cfg.budgets.items():
        if not _is_int(val) or val < 0:
            raise ContractError(f"budget {key} must be a nonnegative integer")
        if key in ("n_max", "walks", "depth", "level_max", "budget",
                   "word_max", "reality_n_max") and val < 1:
            raise ContractError(f"budget {key} must be >= 1")
    for key, val in cfg.tolerances.items():
        if not _is_real(val) or val <= 0:
            raise ContractError(f"tolerance {key} must be positive")
    if cfg.window:
        px = cfg.window.get("pixels", [1, 1])
        if (not isinstance(px, list) or len(px) != 2
                or not all(_is_int(v) and v >= 1 for v in px)):
            raise ContractError("pixels must be a pair of integers >= 1")
        for key in ("width", "height"):
            val = cfg.window.get(key, 1.0)
            if not _is_real(val) or not 0.0 < val < math.inf:
                raise ContractError(f"window {key} must be a positive number")
    sizes = {}
    if cfg.command in ("render-green", "julia-cloud"):
        nx, ny = cfg.window["pixels"]
        sizes["pixel count"] = nx * ny
    if cfg.command == "julia-cloud":
        sizes["walks x (depth + 1)"] = (cfg.budgets["walks"]
                                        * (cfg.budgets["depth"] + 1))
    for what, size in sizes.items():
        if size > SIZE_CAP:
            raise CapError(f"{what} {size} exceeds the size cap SIZE_CAP = "
                           f"{SIZE_CAP}")


def _cx(pair) -> complex:
    if isinstance(pair, (int, float)):
        return complex(pair)
    if len(pair) != 2:
        raise ContractError("complex values are [re, im] pairs")
    return complex(float(pair[0]), float(pair[1]))


def _slice_points(sl: dict, key: str, count: int) -> list:
    """The first count [re, im] entries of slice[key]; fewer is an error."""
    vals = sl.get(key)
    if not isinstance(vals, list) or len(vals) < count:
        raise ContractError(f"slice.{key} needs {count} [re, im] entries")
    return [_cx(v) for v in vals[:count]]


def _map_params(params: dict) -> MapParams:
    if params.get("kind") != "henon":
        raise ContractError("this command needs params.kind = henon")
    return MapParams(_cx(params["a"]), _cx(params["b"]))


def _poly(params: dict) -> Poly:
    if params.get("kind") != "poly":
        raise ContractError("this command needs params.kind = poly")
    return Poly(tuple(_cx(c) for c in params["coeffs"]))


def _comments(cfg: JobConfig) -> list:
    return [f"cfg:{cfg.cfg_hash()}", f"tool:henonlab {__version__}"]


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _render_tiles(eval_field, center: complex, width: float, height: float,
                  nx: int, ny: int):
    """Evaluate a field over the pixel lattice in 128x128 tiles.

    Tiles are independent pure evaluations written into preallocated
    slots in a fixed order.  The escape-rate loop works on live points
    only, so the tile size sets just how often its per-step Python
    overhead is paid: on 512x512 rasters 128 measured faster than 64 on
    the basilica and faster than 256 on `plus`, and whole-raster calls
    would hold several raster-sized transient arrays at once.  Tiles run
    one after another: a thread pool over the tiles measured slower than
    this loop (a 512x512 `plus` raster took 0.86 s on two threads against
    0.47 s on one), so `--threads` is validated but changes nothing.
    """
    values = np.empty((ny, nx))
    converged = np.empty((ny, nx), dtype=bool)
    presumed = np.empty((ny, nx), dtype=bool)
    for i0 in range(0, ny, TILE):
        for j0 in range(0, nx, TILE):
            i1, j1 = min(i0 + TILE, ny), min(j0 + TILE, nx)
            ii, jj = np.mgrid[i0:i1, j0:j1]
            t = (center
                 + width * ((jj + 0.5) / nx - 0.5)
                 + 1j * height * ((ii + 0.5) / ny - 0.5))
            gf = eval_field(t)
            values[i0:i1, j0:j1] = gf.values
            converged[i0:i1, j0:j1] = gf.converged
            presumed[i0:i1, j0:j1] = gf.presumed_bounded
    return values, converged, presumed


def cmd_render_green(cfg: JobConfig) -> int:
    mode = cfg.mode
    tol = float(cfg.tolerances.get("tol", 1e-9))
    nx, ny = (int(v) for v in cfg.window["pixels"])
    center = _cx(cfg.window["center"])
    width = float(cfg.window["width"])
    height = float(cfg.window["height"])
    if mode == "poly":
        f = _poly(cfg.params)
        n_max = int(cfg.budgets.get("n_max", 200))
        base, = _slice_points(cfg.slice, "base", 1)
        direction, = _slice_points(cfg.slice, "direction", 1)

        def eval_field(t):
            return green_poly_field(base + t * direction, f, tol, n_max)
    elif mode in ("plus", "minus"):
        m = _map_params(cfg.params)
        n_max = int(cfg.budgets.get("n_max", 100))
        base = _slice_points(cfg.slice, "base", 2)
        direction = _slice_points(cfg.slice, "direction", 2)
        field = green_plus_field if mode == "plus" else green_minus_field

        def eval_field(t):
            return field(base[0] + t * direction[0],
                         base[1] + t * direction[1], m, tol, n_max)
    else:
        raise ContractError(f"unknown render mode {mode!r}")
    values, converged, presumed = _render_tiles(
        eval_field, center, width, height, nx, ny)
    gray = grayscale_log(values)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    tag = cfg.cfg_hash()[:12]
    write_pgm(out / f"green-{tag}.pgm", np.flipud(gray), _comments(cfg))
    finite = values[np.isfinite(values)]
    vmax = float(finite.max()) if finite.size else 0.0
    hist_range = (0.0, vmax if vmax > 0 else 1.0)
    counts, edges = np.histogram(finite, bins=32, range=hist_range)
    _write_json(out / f"green-{tag}-stats.json", {
        "cfg": cfg.cfg_hash(),
        "tool": f"henonlab {__version__}",
        "mode": mode,
        "min": float(finite.min()) if finite.size else 0.0,
        "max": vmax,
        "zero_fraction": float(np.mean(values == 0.0)),
        "converged_fraction": float(np.mean(converged)),
        "presumed_bounded_fraction": float(np.mean(presumed)),
        "histogram": {"edges": [float(e) for e in edges],
                      "counts": [int(c) for c in counts]},
    })
    return 0


def cmd_julia_cloud(cfg: JobConfig) -> int:
    f = _poly(cfg.params)
    c = _cx(cfg.params["c"])
    walks = int(cfg.budgets["walks"])
    depth = int(cfg.budgets["depth"])
    burn_in = int(cfg.budgets.get("burn_in", 10))
    points, levels = julia_render_points(f, c, walks, depth, burn_in,
                                         cfg.rng_seed)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    tag = cfg.cfg_hash()[:12]
    with open(out / f"julia-{tag}.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow([f"# cfg:{cfg.cfg_hash()}"])
        wr.writerow([f"# tool:henonlab {__version__}"])
        wr.writerow(["re", "im", "level"])
        for p, lvl in zip(points, levels):
            wr.writerow([repr(float(p.real)), repr(float(p.imag)), int(lvl)])
    nx, ny = (int(v) for v in cfg.window["pixels"])
    counts = density_counts(points, _cx(cfg.window["center"]),
                            float(cfg.window["width"]),
                            float(cfg.window["height"]), nx, ny)
    write_pgm(out / f"julia-{tag}.pgm", np.flipud(grayscale_log(counts)),
              _comments(cfg))
    return 0


def _orbit_rows(level_n: int, orbits) -> list:
    rows = []
    for oi, o in enumerate(orbits):
        l1, l2 = o.multiplier_eigenvalues
        for j, p in enumerate(o.points):
            rows.append([level_n, oi, o.period, j,
                         repr(p.x.real), repr(p.x.imag),
                         repr(p.y.real), repr(p.y.imag),
                         repr(l1.real), repr(l1.imag),
                         repr(l2.real), repr(l2.imag),
                         o.orbit_class, int(o.is_real),
                         repr(o.residual), o.multiplicity])
    return rows


def cmd_periodic_report(cfg: JobConfig) -> int:
    m = _map_params(cfg.params)
    n_max = int(cfg.budgets["level_max"])
    budget = int(cfg.budgets["budget"])
    levels = [periodic_points_2d(m, n, budget=budget)
              for n in range(1, n_max + 1)]
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    tag = cfg.cfg_hash()[:12]
    with open(out / f"periodic-{tag}-orbits.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow([f"# cfg:{cfg.cfg_hash()}"])
        wr.writerow([f"# tool:henonlab {__version__}"])
        wr.writerow(["n", "orbit", "period", "index", "x_re", "x_im",
                     "y_re", "y_im", "lam1_re", "lam1_im", "lam2_re",
                     "lam2_im", "class", "is_real", "residual",
                     "multiplicity"])
        for level in levels:
            for row in _orbit_rows(level.n, level.orbits):
                wr.writerow(row)
    table = saddle_table(levels)
    with open(out / f"periodic-{tag}-saddles.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow([f"# cfg:{cfg.cfg_hash()}"])
        wr.writerow(["n", "saddle_count", "ratio", "complete"])
        for row in table.rows:
            wr.writerow([row.n, row.saddle_count, repr(row.ratio),
                         int(row.complete)])
    battery = TestBattery(2, sigma=float(m.R))
    mus = [mu_n_measure(level) for level in levels]
    # |int f dmu_i - int f dmu_j| is symmetric bit for bit, and so are the
    # worst probe and the advisory flag: compare each pair once, mirror it
    matrix = [[0.0] * len(mus) for _ in mus]
    for i in range(len(mus)):
        for j in range(i + 1, len(mus)):
            matrix[i][j] = matrix[j][i] = float(
                compare(mus[i], mus[j], battery))
    real_params = m.a.imag == 0.0 and m.b.imag == 0.0
    if real_params:
        reality = reality_table(m, levels)
        reality_doc = {
            "verdict": reality.verdict,
            "all_real": reality.all_real,
            "nonreal_periods": list(reality.nonreal_periods),
            "rows": [{"n": r.n, "complete": r.complete,
                      "orbit_count": r.orbit_count,
                      "max_imag": r.max_imag,
                      "worst_condition": r.worst_condition}
                     for r in reality.rows],
        }
    else:
        reality_doc = {"verdict": "not applicable (complex parameters)"}
    doc = {
        "cfg": cfg.cfg_hash(),
        "tool": f"henonlab {__version__}",
        "n_max": n_max,
        "levels": [{"n": lv.n, "complete": lv.complete,
                    "fixed_point_count": lv.fixed_point_count,
                    "orbit_count": len(lv.orbits),
                    "minimal_orbit_count": len(lv.minimal_orbits),
                    "attempts": lv.attempts,
                    "paths_lost": lv.paths_lost,
                    "step_halvings": lv.step_halvings}
                   for lv in levels],
        "saddle_table": [{"n": r.n, "saddle_count": r.saddle_count,
                          "ratio": r.ratio, "complete": r.complete}
                         for r in table.rows],
        "saddle_verdict": table.verdict,
        "mu_comparison": matrix,
        "reality": reality_doc,
    }
    _write_json(out / f"periodic-{tag}-report.json", doc)
    return 0 if all(lv.complete for lv in levels) else 3


def cmd_entropy_report(cfg: JobConfig) -> int:
    m = _map_params(cfg.params)
    word_max = int(cfg.budgets["word_max"])
    reality_n = int(cfg.budgets["reality_n_max"])
    budget = int(cfg.budgets["budget"])
    inconclusive = False

    @functools.cache
    def level_at(n: int):
        # the word level is also a reality level when word_max <= reality_n
        return periodic_points_2d(m, n, budget=budget)

    if not is_horseshoe_regime(m):
        entropy_doc = {"status": "skipped",
                       "reason": "itinerary coding needs parameters that "
                                 "pass the horseshoe test"}
    else:
        level = level_at(word_max)
        if not level.orbits:
            entropy_doc = {"status": "inconclusive",
                           "reason": "no orbits found"}
            inconclusive = True
        elif not level.complete:
            entropy_doc = {"status": "inconclusive",
                           "reason": "enumeration incomplete",
                           "found": level.fixed_point_count,
                           "expected": 2 ** word_max}
            inconclusive = True
        else:
            seqs = []
            for o in level.orbits:
                bits = tuple(0 if p.x.real < 0 else 1 for p in o.points)
                seqs.append(PeriodicSequence(SymbolWord(bits)))
            counts = {n: count_admissible_words(seqs, n)
                      for n in range(1, word_max + 1)}
            est = entropy_estimate(counts, word_max)
            entropy_doc = {
                "status": "ok",
                "word_counts": {str(k): v for k, v in counts.items()},
                "entropy_point": est.point,
                "entropy_slope": est.slope,
                "log_2": math.log(2.0),
            }
    real_params = m.a.imag == 0.0 and m.b.imag == 0.0
    if real_params:
        rep = reality_table(m, [level_at(n) for n in range(1, reality_n + 1)])
        reality_doc = {"verdict": rep.verdict, "all_real": rep.all_real,
                       "nonreal_periods": list(rep.nonreal_periods)}
        if rep.verdict == "inconclusive":
            inconclusive = True
    else:
        reality_doc = {"verdict": "not applicable (complex parameters)"}
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    tag = cfg.cfg_hash()[:12]
    _write_json(out / f"entropy-{tag}.json", {
        "cfg": cfg.cfg_hash(),
        "tool": f"henonlab {__version__}",
        "entropy": entropy_doc,
        "reality": reality_doc,
    })
    return 3 if inconclusive else 0


def _stable_details(details: dict) -> dict:
    # wall-clock and scratch-path entries vary run to run; the report must not
    volatile = {"seconds", "workdir"}
    return {k: v for k, v in details.items() if k not in volatile}


def cmd_validate(cfg: JobConfig) -> int:
    from .acceptance import run_all
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    only = cfg.params.get("criteria") or None
    results = run_all(out / "validate-work", only=only)
    tag = cfg.cfg_hash()[:12]
    _write_json(out / f"validate-{tag}.json", {
        "cfg": cfg.cfg_hash(),
        "tool": f"henonlab {__version__}",
        "criteria": [{"id": r.cid, "name": r.name, "passed": r.passed,
                      "details": _stable_details(r.details)} for r in results],
        "all_passed": all(r.passed for r in results),
    })
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.cid:>2}  {r.name}")
    return 0 if all(r.passed for r in results) else 3


COMMANDS = {
    "render-green": cmd_render_green,
    "julia-cloud": cmd_julia_cloud,
    "periodic-report": cmd_periodic_report,
    "entropy-report": cmd_entropy_report,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="henonlab",
        description="Deterministic batch runs: escape-rate rasters, Julia "
                    "clouds, periodic-orbit and entropy reports.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None,
                       help="JSON config; flags override its fields")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    try:
        file_doc = None
        if args.config is not None:
            with open(args.config) as fh:
                file_doc = json.load(fh)
        cfg = build_config(args.command, file_doc, args.seed, args.threads,
                           None if args.out is None else str(args.out))
        return COMMANDS[args.command](cfg)
    except (ContractError, HenonlabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:
        # any other escape, MemoryError included, is a refused job: one
        # line, no traceback
        detail = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}{': ' + detail if detail else ''}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
