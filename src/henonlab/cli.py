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
import functools
import hashlib
import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

# the library modules are read through their names at call time, so a
# command runs only the modules it calls (see henonlab/__init__)
from . import (__version__, dynamics, measures, periodic2d, poly1d, potential,
               symbolic)
from .errors import CapError, ContractError, HenonlabError
from .raster import (density_counts, grayscale_log, masked_histogram,
                     write_pgm)

TILE = 128
# largest pixel raster, and largest julia-cloud walk tree (walks x
# (depth + 1) points), a config may ask for: 2^24 complex points is 256 MiB.
# A render that plans no line holds about 13 bytes a pixel at its peak (the
# values array, the two masks, the gray map and its two gathers into the
# raster), 208 MiB at the cap, plus one tile's working set: every stage
# after the tiles runs over bands.  A planned render's block is smaller
SIZE_CAP = 2 ** 24


class Check(NamedTuple):
    """A config value check: a predicate and what it asks for."""
    ok: Callable
    want: str


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _is_finite(val) -> bool:
    # a real a double holds: bools, NaN, +-inf and ints past 1.8e308 fail
    return ((_is_int(val) or isinstance(val, float))
            and abs(val) <= sys.float_info.max)


def _is_pair(val, is_entry) -> bool:
    return isinstance(val, list) and len(val) == 2 and all(map(is_entry, val))


def _list_of(check: Check) -> Check:
    return Check(lambda v: isinstance(v, list) and all(map(check.ok, v)),
                 f"a list, each entry {check.want}")


def _choice(*names) -> Check:
    return Check(lambda v: isinstance(v, str) and v in names,
                 f"one of {list(names)}")


COUNT = Check(lambda v: _is_int(v) and v >= 1, "an integer >= 1")
NONNEG = Check(lambda v: _is_int(v) and v >= 0, "an integer >= 0")
POSITIVE = Check(lambda v: _is_finite(v) and v > 0, "a finite number > 0")
COMPLEX = Check(lambda v: _is_finite(v) or _is_pair(v, _is_finite),
                "a finite real or an [re, im] pair of them")
COMPLEXES = _list_of(COMPLEX)
PIXELS = Check(lambda v: _is_pair(v, COUNT.ok), "a pair of integers >= 1")

_HENON = {"kind": ("henon", _choice("henon")),
          "a": ([10.0, 0.0], COMPLEX), "b": ([0.3, 0.0], COMPLEX)}


def _window(width: float) -> dict:
    return {"center": ([0.0, 0.0], COMPLEX), "width": (width, POSITIVE),
            "height": (width, POSITIVE), "pixels": ([256, 256], PIXELS)}


# Every config value each command reads.  "mode" lists the allowed modes,
# the first being the default; each section maps a key to (default, check),
# a default of None marking an optional key.  A section left out holds no
# keys.
SCHEMA = {
    "render-green": {
        "mode": ("plus", "minus", "poly"),
        "params": dict(_HENON, kind=("henon", _choice("henon", "poly")),
                       coeffs=(None, COMPLEXES)),
        "slice": {"base": ([[0.0, 0.0], [0.0, 0.0]], COMPLEXES),
                  "direction": ([[1.0, 0.0], [0.0, 0.0]], COMPLEXES)},
        "window": _window(16.0),
        "budgets": {"n_max": (100, COUNT)},
        "tolerances": {"tol": (1e-9, POSITIVE)},
    },
    "julia-cloud": {
        "mode": ("cloud",),
        "params": {"kind": ("poly", _choice("poly")),
                   "coeffs": ([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                              COMPLEXES),
                   "c": ([1.0, 0.0], COMPLEX)},
        "window": _window(4.0),
        "budgets": {"walks": (4096, COUNT), "depth": (40, COUNT),
                    "burn_in": (10, NONNEG)},
    },
    "periodic-report": {
        "mode": ("report",),
        "params": _HENON,
        "budgets": {"level_max": (5, COUNT), "budget": (2048, COUNT)},
    },
    "entropy-report": {
        "mode": ("report",),
        "params": _HENON,
        # the entropy slope reads the word counts at word_max - 2..word_max
        "budgets": {"word_max": (10, Check(lambda v: _is_int(v) and v >= 3,
                                           "an integer >= 3")),
                    "reality_n_max": (4, COUNT), "budget": (2048, COUNT)},
    },
    "validate": {
        "mode": ("all",),
        "params": {"criteria": (None, _list_of(COUNT))},
    },
}

# the fields outside the sections; of these only rng_seed is hashed
_RUN_FIELDS = {
    "rng_seed": (0, Check(lambda v: _is_int(v) and -(2 ** 63) <= v < 2 ** 64,
                          "an integer that fits in 64 bits")),
    "threads": (1, COUNT),
    "out": (".", Check(lambda v: isinstance(v, str), "a string")),
}


def _fields(schema: dict) -> dict:
    """A command's whole config: run fields, mode and the five sections."""
    modes = schema["mode"]
    return dict(_RUN_FIELDS, mode=(modes[0], _choice(*modes)),
                **{s: schema.get(s, {}) for s in
                   ("params", "slice", "window", "budgets", "tolerances")})


def _defaults(fields: dict) -> dict:
    return {key: _defaults(field) if isinstance(field, dict) else field[0]
            for key, field in fields.items()
            if isinstance(field, dict) or field[0] is not None}


DEFAULTS = {command: _defaults(_fields(schema))
            for command, schema in SCHEMA.items()}


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
        return {key: val for key, val in vars(self).items()
                if key not in ("threads", "out")}

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
    """Merge defaults, the config file and the flags, then check the
    merged doc once against SCHEMA; values are checked, never rewritten."""
    if command not in SCHEMA:
        raise ContractError(f"unknown command {command!r}")
    if file_doc is not None and not isinstance(file_doc, dict):
        raise ContractError("a config file must hold one JSON object")
    file_doc = dict(file_doc or {})
    if file_doc.pop("command", command) != command:
        raise ContractError("config file names a different command")
    doc = _deep_merge(DEFAULTS[command], file_doc)
    for key, val in (("rng_seed", seed), ("threads", threads),
                     ("out", None if out is None else str(out))):
        if val is not None:
            doc[key] = val
    _check_fields(_fields(SCHEMA[command]), doc)
    cfg = JobConfig(command=command, **doc)
    _validate_config(cfg)
    return cfg


def _check_fields(fields: dict, given, name: str = "") -> None:
    """Refuse keys `fields` does not list and values their check refuses;
    a field that is itself a dict is a section, checked key by key."""
    if not isinstance(given, dict):
        raise ContractError(f"{name} must be an object")
    unknown = sorted(set(given) - set(fields))
    if unknown:
        raise ContractError(f"unknown {name or 'config'} keys {unknown}")
    for key, val in given.items():
        field, where = fields[key], f"{name}.{key}" if name else key
        if isinstance(field, dict):
            _check_fields(field, val, where)
        elif not field[1].ok(val):
            raise ContractError(f"{where} must be {field[1].want}")


def _validate_config(cfg: JobConfig) -> None:
    """Rules across fields: the size caps on rasters and walk trees."""
    sizes = {}
    if "pixels" in cfg.window:
        sizes["pixel count"] = math.prod(cfg.window["pixels"])
    if "walks" in cfg.budgets:
        sizes["walks x (depth + 1)"] = (cfg.budgets["walks"]
                                        * (cfg.budgets["depth"] + 1))
    for what, size in sizes.items():
        if size > SIZE_CAP:
            raise CapError(f"{what} {size} exceeds the size cap SIZE_CAP = "
                           f"{SIZE_CAP}")


def _cx(val) -> complex:
    """A checked complex config value: a real or an [re, im] pair."""
    return complex(*val) if isinstance(val, list) else complex(val)


def _slice_points(sl: dict, key: str, count: int) -> list:
    """The first count entries of slice[key]; fewer is an error."""
    if len(sl[key]) < count:
        raise ContractError(f"slice.{key} needs {count} [re, im] entries")
    return [_cx(v) for v in sl[key][:count]]


def _map_params(params: dict) -> dynamics.MapParams:
    if params["kind"] != "henon":
        raise ContractError("this command needs params.kind = henon")
    return dynamics.MapParams(_cx(params["a"]), _cx(params["b"]))


def _poly(params: dict) -> poly1d.Poly:
    if params["kind"] != "poly" or "coeffs" not in params:
        raise ContractError("this command needs params.kind = poly and "
                            "params.coeffs")
    return poly1d.Poly(tuple(_cx(c) for c in params["coeffs"]))


def _comments(cfg: JobConfig) -> list:
    return [f"cfg:{cfg.cfg_hash()}", f"tool:henonlab {__version__}"]


def _out_dir(cfg: JobConfig) -> tuple:
    """The --out directory, made now, and the tag of its artifact names."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out, cfg.cfg_hash()[:12]


def _comment_lines(cfg: JobConfig) -> list:
    return [f"# {c}" for c in _comments(cfg)]


def _write_csv(path: Path, lines: Iterable[str]) -> None:
    """Write CSV lines as csv.writer writes rows: each ended by \\r\\n.
    The fields of this program's CSVs, numbers, reprs, class names and the
    # comment lines, hold no comma, quote or line break, so none needs
    quoting."""
    with open(path, "w", newline="") as fh:
        fh.write("".join(f"{line}\r\n" for line in lines))


def _write_json(path: Path, cfg: JobConfig, doc: dict) -> None:
    doc = {"cfg": cfg.cfg_hash(), "tool": f"henonlab {__version__}", **doc}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _pixels(center: complex, width: float, height: float, nx: int, ny: int,
            ii, jj):
    """The pixel coordinates t at rows ii and columns jj, summed by
    broadcasting: the one expression the tiles and the row plan share, so
    equal indices give equal bits whatever the other indices are."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (center
                + width * ((jj + 0.5) / nx - 0.5)
                + 1j * height * ((ii + 0.5) / ny - 0.5))


def _lines(coords, planned: bool) -> tuple:
    """The rows or columns to evaluate, and each line's position among
    them, from the lines' coordinates (each row's imaginary or each
    column's real part).  With planned set one line is evaluated per
    magnitude of coordinate, in ascending magnitude, the first line that
    has it, and every line whose coordinate is its exact negation (the
    mirror line) or its equal reads it; else every line is evaluated, in
    order.  A checked window's
    coordinate is center + side x with |x| < 1/2 and both terms finite,
    so it is never NaN."""
    if not planned:
        return np.arange(coords.size), np.arange(coords.size)
    _, first, inverse = np.unique(np.abs(coords), return_index=True,
                                  return_inverse=True)
    return first, inverse


class Block(NamedTuple):
    """The evaluated pixels of a render: raster pixel (i, j) has the bits
    of block pixel (rows[i], cols[j])."""
    values: np.ndarray
    converged: np.ndarray
    presumed: np.ndarray
    rows: np.ndarray
    cols: np.ndarray


def _render_tiles(eval_field, center: complex, width: float, height: float,
                  nx: int, ny: int, conj: bool, neg: bool) -> Block:
    """Evaluate a field over the pixel lattice in 128x128 tiles, one pixel
    per symmetry class.

    With conj set the field commutes with complex conjugation: a real map
    on a real slice.  With neg set as well it is also unchanged under
    t -> -t: a real polynomial with f(-w) = (-1)^d f(w) on the slice base
    +-0 (see `_green_field`).  The lines are planned before they are
    tiled: under conj a row whose imaginary coordinate is the exact
    negation of an earlier row's, or equal to it, reads that row's
    pixels, and under neg a column likewise by its real coordinate; only
    the other rows and columns are evaluated.  For a window centred on
    the real axis row ny - 1 - i mirrors row i: every row pairs when ny
    is a power of two, and some rows of other heights are one ulp from
    exact negation, so they are computed; columns pair the same way about
    a centre on the imaginary axis.  The reading is exact.
    Round-to-nearest is symmetric under negation, so with real parameters
    every operation of a render maps conjugate inputs to the conjugate
    output up to the sign of a zero: the start points b + t d with real b
    and d; numpy's complex +, -, * and /, with or without FMA; |.|, log
    and the comparisons.  Under neg the start point base + (-t) d is the
    negation of base + t d up to the sign of a zero, and each Horner step
    acc * w + c_k of f(w) keeps acc(-w) = +-acc(w), the added c_k being
    +-0 wherever the sign flips, so f(-w) = +-f(w) up to the sign of a
    zero: an even degree's orbits agree from step 1 on, an odd degree's
    are each other's negations.  No magnitude and no == reads the sign of
    a zero or a sign both sides share, so a twin pixel's value, converged
    and presumed flags are its source pixel's bits, and its start points
    are finite exactly when the source's are.  Without conj every pixel
    is evaluated.

    The returned block holds the evaluated rows x evaluated columns, and
    each raster row's and column's position in it; the raster is never
    expanded.  Each pixel's t is the same elementwise expression
    (`_pixels`) whichever pixels share its tile.  Tiles are independent
    pure evaluations written into preallocated slots in a fixed order.
    The escape-rate loop works on live points only, so the tile size sets
    just how often its per-step Python overhead is paid.  On the 512x512
    `plus` and basilica rasters (medians of two sets of 25 interleaved
    in-process runs on a 2-core machine) 128 took 21-22 and 31-34 ms, 90
    took 22-23 and 37-41 ms, 64 took 25-27 and 47-52 ms, and 256 41-43
    and 36-41 ms; whole-raster calls would hold several raster-sized
    transient arrays at once.  Each tile's points and GreenField are
    dropped before the next tile starts, so the loop holds the three block
    arrays, the line plans and one tile's working set.  A start point past
    the float range reaches eval_field as inf or NaN without a numpy
    warning, for eval_field to refuse.  Tiles run one after another: a
    pool of two threads over the same tiles was no faster (21-22 and 34-35
    ms in the same runs), so `--threads` is validated but changes nothing.
    """
    rows, row_at = _lines(_pixels(center, width, height, nx, ny,
                                  np.arange(ny), np.arange(1)).imag, conj)
    cols, col_at = _lines(_pixels(center, width, height, nx, ny,
                                  np.arange(1), np.arange(nx)).real, neg)
    values = np.empty((rows.size, cols.size))
    converged = np.empty(values.shape, dtype=bool)
    presumed = np.empty(values.shape, dtype=bool)
    for r0 in range(0, rows.size, TILE):
        for c0 in range(0, cols.size, TILE):
            gf = eval_field(_pixels(center, width, height, nx, ny,
                                    rows[r0:r0 + TILE, None],
                                    cols[None, c0:c0 + TILE]))
            tile = np.s_[r0:r0 + TILE, c0:c0 + TILE]
            values[tile] = gf.values
            converged[tile] = gf.converged
            presumed[tile] = gf.presumed_bounded
            del gf
    return Block(values, converged, presumed, row_at, col_at)


def _weight_classes(rows, cols) -> Iterator[tuple]:
    """(w, mask) for each weight w a block pixel takes, the number of
    raster pixels that read it: its row's multiplicity in rows times its
    column's in cols.  mask marks the block pixels of weight w, or is None
    where every block pixel has it."""
    row_mult, col_mult = np.bincount(rows), np.bincount(cols)
    pairs = {}
    # sets, not np.unique: numpy's hashing unique of an int array imports
    # numpy.ma on first use, 15 ms of a fresh process
    for a in set(row_mult.tolist()):
        for b in set(col_mult.tolist()):
            pairs.setdefault(a * b, []).append((row_mult == a,
                                                col_mult == b))
    if len(pairs) == 1:
        yield next(iter(pairs)), None
        return
    for w, sides in pairs.items():
        mask = np.zeros((row_mult.size, col_mult.size), dtype=bool)
        for in_rows, in_cols in sides:
            mask[np.ix_(in_rows, in_cols)] = True
        yield w, mask


def _start_points(t, base, direction) -> list:
    """The slice coordinates base + t * direction at the pixels t; a start
    point that overflows is a bad config, not a pixel to iterate."""
    with np.errstate(over="ignore", invalid="ignore"):
        coords = [b + t * d for b, d in zip(base, direction)]
    if not all(np.isfinite(c).all() for c in coords):
        raise ContractError("slice start points base + t * direction "
                            "overflow inside the window")
    return coords


def _green_field(cfg: JobConfig) -> tuple:
    """The render's field over pixel coordinates t, whether it commutes
    with complex conjugation (every parameter and every slice entry is
    real), and whether it is also unchanged under t -> -t: a `poly`
    render of f(-w) = (-1)^d f(w), every coefficient whose index parity
    differs from the degree's being +-0, on the slice base +-0."""
    mode = cfg.mode
    tol = float(cfg.tolerances["tol"])
    n_max = int(cfg.budgets["n_max"])
    if mode == "poly":
        f = _poly(cfg.params)
        base, = _slice_points(cfg.slice, "base", 1)
        direction, = _slice_points(cfg.slice, "direction", 1)

        def eval_field(t):
            return potential.green_poly_field(
                *_start_points(t, [base], [direction]), f, tol, n_max)
        entries = (*f.coeffs, base, direction)
        parity = base == 0 and not any(f.coeffs[1 - f.degree % 2::2])
    else:
        m = _map_params(cfg.params)
        base = _slice_points(cfg.slice, "base", 2)
        direction = _slice_points(cfg.slice, "direction", 2)
        field = (potential.green_plus_field if mode == "plus"
                 else potential.green_minus_field)

        def eval_field(t):
            return field(*_start_points(t, base, direction), m, tol, n_max)
        entries = (m.a, m.b, *base, *direction)
        parity = False
    real = all(v.imag == 0 for v in entries)
    return eval_field, real, real and parity


def cmd_render_green(cfg: JobConfig) -> int:
    """Raster the escape rate over the window.  A real map on a real slice
    is symmetric under conjugation, and a real polynomial with
    f(-w) = +-f(w) on the slice base +-0 under t -> -t too, so the render
    evaluates one pixel of each exactly mirrored class (`_render_tiles`):
    the escape rate reads only magnitudes and ==, and f(-w) = +-f(w) holds
    in floats up to the sign of a zero, which neither reads.  The
    symmetries are read off the config, and the bytes are the same either
    way.  Every stage works on the evaluated block: the gray map once per
    block pixel, gathered into the raster with the vertical flip folded
    into the row gather; the range from the block; and the histogram and
    fractions as exact integer counts, each block pixel weighted by the
    raster pixels that read it (`_weight_classes`)."""
    mode = cfg.mode
    nx, ny = (int(v) for v in cfg.window["pixels"])
    center = _cx(cfg.window["center"])
    width = float(cfg.window["width"])
    height = float(cfg.window["height"])
    eval_field, conj, neg = _green_field(cfg)
    block = _render_tiles(eval_field, center, width, height, nx, ny, conj,
                          neg)
    values, converged, presumed = block.values, block.converged, block.presumed
    out, tag = _out_dir(cfg)
    # the image's first line is the window's top, raster row ny - 1; two
    # takes, the columns' on the block first, beat one np.ix_ gather 5-fold
    write_pgm(out / f"green-{tag}.pgm", grayscale_log(values).take(
        block.cols, axis=1).take(block.rows[::-1], axis=0), _comments(cfg))
    # an unconverged pixel's value is a placeholder: the range and the
    # histogram cover converged pixels only
    settled = np.isfinite(values)
    settled &= converged
    vmin, vmax = ((float(np.min(values, where=settled, initial=np.inf)),
                   float(np.max(values, where=settled, initial=-np.inf)))
                  if settled.any() else (None, None))
    value_range = (0.0, vmax if vmax and vmax > 0 else 1.0)
    # an overflowed orbit's 0 is a placeholder, not a converged value
    zero = values == 0.0
    zero &= converged
    counts, tallies = 0, [0, 0, 0]
    for w, sel in _weight_classes(block.rows, block.cols):
        part, edges = masked_histogram(
            values, settled if sel is None else settled & sel, 32,
            value_range)
        counts = counts + w * part
        for k, mask in enumerate((zero, converged, presumed)):
            tallies[k] += w * np.count_nonzero(
                mask if sel is None else mask & sel)
    pixels = nx * ny
    _write_json(out / f"green-{tag}-stats.json", cfg, {
        "mode": mode,
        "min": vmin,
        "max": vmax,
        "zero_fraction": tallies[0] / pixels,
        "converged_fraction": tallies[1] / pixels,
        "presumed_bounded_fraction": tallies[2] / pixels,
        "histogram": {"edges": [float(e) for e in edges],
                      "counts": [int(c) for c in counts]},
    })
    # a pixel neither converged nor presumed bounded is a shortfall
    return 0 if converged.all() else 3


def cmd_julia_cloud(cfg: JobConfig) -> int:
    f = _poly(cfg.params)
    c = _cx(cfg.params["c"])
    walks = int(cfg.budgets["walks"])
    depth = int(cfg.budgets["depth"])
    burn_in = int(cfg.budgets["burn_in"])
    points, levels = poly1d.julia_render_points(f, c, walks, depth, burn_in,
                                                cfg.rng_seed)
    out, tag = _out_dir(cfg)
    _write_csv(out / f"julia-{tag}.csv", itertools.chain(
        _comment_lines(cfg), ["re,im,level"],
        map(",".join, zip(map(repr, points.real.tolist()),
                          map(repr, points.imag.tolist()),
                          map(str, levels.tolist())))))
    nx, ny = (int(v) for v in cfg.window["pixels"])
    counts = density_counts(points, _cx(cfg.window["center"]),
                            float(cfg.window["width"]),
                            float(cfg.window["height"]), nx, ny)
    write_pgm(out / f"julia-{tag}.pgm", np.flipud(grayscale_log(counts)),
              _comments(cfg))
    return 0


def _orbit_lines(level) -> Iterator[str]:
    """One orbit CSV line per point of the level, built a column at a
    time: each column formatted once, and the fields of an orbit repeated
    over its points."""
    c = level.columns
    periods = c.period.tolist()

    def per_point(fields):
        return [f for f, d in zip(fields, periods) for _ in range(d)]

    def reprs(*cols):
        return map(",".join, zip(*(map(repr, col.tolist()) for col in cols)))

    lam = c.multipliers
    heads = per_point(f"{level.n},{oi},{d}" for oi, d in enumerate(periods))
    tails = per_point(map(",".join, zip(
        reprs(lam[:, 0].real, lam[:, 0].imag, lam[:, 1].real, lam[:, 1].imag),
        map(periodic2d.ORBIT_CLASSES.__getitem__, c.orbit_class.tolist()),
        ("1" if r else "0" for r in c.is_real.tolist()),
        map(repr, c.residual.tolist()), map(str, c.multiplicity.tolist()))))
    index = np.arange(len(c.x)) - np.repeat(c.starts(), c.period)
    # y_j = x_{j-1}: a point's y fields are its predecessor's x fields
    xs = list(reprs(c.x.real, c.x.imag))
    ys = [xs[i] for i in c.prev().tolist()]
    return map(",".join, zip(heads, map(str, index.tolist()), xs, ys, tails))


def _record(record, *left_out) -> dict:
    """A dataclass record's fields by name, less those left out."""
    return {f.name: getattr(record, f.name) for f in fields(record)
            if f.name not in left_out}


def cmd_periodic_report(cfg: JobConfig) -> int:
    m = _map_params(cfg.params)
    n_max = int(cfg.budgets["level_max"])
    budget = int(cfg.budgets["budget"])
    levels = periodic2d.periodic_levels(m, range(1, n_max + 1), budget)
    out, tag = _out_dir(cfg)
    _write_csv(out / f"periodic-{tag}-orbits.csv", itertools.chain(
        _comment_lines(cfg),
        ["n,orbit,period,index,x_re,x_im,y_re,y_im,lam1_re,lam1_im,lam2_re,"
         "lam2_im,class,is_real,residual,multiplicity"],
        *map(_orbit_lines, levels)))
    table = periodic2d.saddle_table(levels)
    _write_csv(out / f"periodic-{tag}-saddles.csv", itertools.chain(
        _comment_lines(cfg)[:1], ["n,saddle_count,ratio,complete"],
        (f"{r.n},{r.saddle_count},{r.ratio!r},{int(r.complete)}"
         for r in table.rows)))
    battery = measures.TestBattery(2, sigma=float(m.R))
    mus = [periodic2d.mu_n_measure(level) for level in levels]
    # |int f dmu_i - int f dmu_j| is symmetric bit for bit, and so are the
    # worst probe and the advisory flag: compare each pair once, mirror it
    matrix = [[0.0] * len(mus) for _ in mus]
    for i in range(len(mus)):
        for j in range(i + 1, len(mus)):
            matrix[i][j] = matrix[j][i] = float(
                measures.compare(mus[i], mus[j], battery))
    real_params = m.a.imag == 0.0 and m.b.imag == 0.0
    if real_params:
        reality_doc = asdict(periodic2d.reality_table(m, levels))
    else:
        reality_doc = {"verdict": "not applicable (complex parameters)"}
    doc = {
        "n_max": n_max,
        "levels": [{**_record(lv, "columns"),
                    "orbit_count": len(lv.columns.period),
                    "minimal_orbit_count": int(np.count_nonzero(
                        lv.columns.period == lv.n))}
                   for lv in levels],
        "saddle_table": [asdict(r) for r in table.rows],
        "saddle_verdict": table.verdict,
        "mu_comparison": matrix,
        "reality": reality_doc,
    }
    _write_json(out / f"periodic-{tag}-report.json", cfg, doc)
    return 0 if all(lv.complete for lv in levels) else 3


def cmd_entropy_report(cfg: JobConfig) -> int:
    m = _map_params(cfg.params)
    word_max = int(cfg.budgets["word_max"])
    reality_n = int(cfg.budgets["reality_n_max"])
    budget = int(cfg.budgets["budget"])
    inconclusive = False
    horseshoe = dynamics.is_horseshoe_regime(m)
    real_params = m.a.imag == 0.0 and m.b.imag == 0.0
    # the word level first, then each reality level not asked for yet
    ns = [word_max] if horseshoe else []
    if real_params:
        ns += [n for n in range(1, reality_n + 1) if n not in ns]
    level_at = dict(zip(ns, periodic2d.periodic_levels(m, ns, budget)))
    if not horseshoe:
        entropy_doc = {"status": "skipped",
                       "reason": "itinerary coding needs parameters that "
                                 "pass the horseshoe test"}
    else:
        level = level_at[word_max]
        if not level.complete:
            entropy_doc = {"status": "inconclusive",
                           "reason": "enumeration incomplete",
                           "found": level.fixed_point_count,
                           "expected": 2 ** word_max}
            inconclusive = True
        else:
            counts = symbolic.itinerary_word_counts(level, word_max)
            est = symbolic.entropy_estimate(counts, word_max)
            entropy_doc = {
                "status": "ok",
                "word_counts": {str(k): v for k, v in counts.items()},
                "entropy_point": est.point,
                "entropy_slope": est.slope,
                "log_2": math.log(2.0),
            }
    if real_params:
        rep = periodic2d.reality_table(
            m, [level_at[n] for n in range(1, reality_n + 1)])
        reality_doc = _record(rep, "rows")
        if rep.verdict == "inconclusive":
            inconclusive = True
    else:
        reality_doc = {"verdict": "not applicable (complex parameters)"}
    out, tag = _out_dir(cfg)
    _write_json(out / f"entropy-{tag}.json", cfg, {
        "entropy": entropy_doc,
        "reality": reality_doc,
    })
    return 3 if inconclusive else 0


def cmd_validate(cfg: JobConfig) -> int:
    from .acceptance import run_all
    # run_all refuses unknown ids before anything runs or --out is made
    results = run_all(only=cfg.params.get("criteria") or None)
    out, tag = _out_dir(cfg)
    _write_json(out / f"validate-{tag}.json", cfg, {
        "criteria": [{"id": r.cid, "name": r.name, "passed": r.passed,
                      "details": r.details} for r in results],
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
