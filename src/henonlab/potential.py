"""Potential kernels, escape-rate functions, and grid mass recovery.

The escape-rate estimators run one loop over arrays of start points,
compacted to the points still iterating: iterate until the orbit enters a
region of strict quadratic growth, read off log-norm over d^n, and
certify the answer with an a-posteriori geometric tail bound.  Orbits
that never reach the growth region within the budget, or that repeat a
float state exactly before it, are reported as presumed bounded, value
0; no exact membership claim is made.  The scalar estimators are the
field kernels evaluated at one point.

The plane-measure side discretizes the Laplacian with the five-point
stencil; cell mass is stencil-sum over 2*pi (the h^2 of the stencil and
of the area element cancel), with singular cells and their stencil
neighbors excluded rather than clipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import MapParams
from .errors import ContractError

TWO_PI = 2.0 * math.pi
# freeze orbits before squaring can overflow float64
SAFE_NORM = 1e130


def potential_kernel(z, d: int) -> float:
    """Radial kernel by ambient dimension: |z|, log|z|, or -1/|z|^(d-2)."""
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ContractError("dimension must be an integer >= 1")
    if isinstance(z, (complex, np.complexfloating)):
        vec = np.array([z.real, z.imag], dtype=float)
        if d == 1:
            if z.imag != 0:
                raise ContractError("d=1 needs a real argument")
            vec = vec[:1]
    else:
        vec = np.atleast_1d(np.asarray(z, dtype=float))
    if vec.shape != (d,):
        raise ContractError(f"point has {vec.shape[0]} coordinates, expected {d}")
    r = float(np.linalg.norm(vec))
    if d == 1:
        return r
    if d == 2:
        return math.log(r) if r > 0.0 else -math.inf
    return -math.inf if r == 0.0 else -1.0 / r ** (d - 2)


@dataclass(frozen=True)
class GreenEstimate:
    """Escape-rate value with certificate: bound dominates the discarded tail."""

    value: float
    n_used: int
    converged: bool
    bound: float
    presumed_bounded: bool = False

    def __post_init__(self):
        if self.value < 0.0:
            raise ContractError("escape-rate values are nonnegative")


class GreenField(NamedTuple):
    """Vectorized counterpart of GreenEstimate over an array of start points."""

    values: np.ndarray
    bounds: np.ndarray
    converged: np.ndarray
    presumed_bounded: np.ndarray
    n_used: np.ndarray


def _power(d: int, n: int) -> float:
    """float(d) ** n, or inf past the double range, where Python floats
    raise OverflowError; `_over_power` divides by it."""
    try:
        return float(d) ** n
    except OverflowError:
        return math.inf


def _past_power(x, d: int, n: int):
    """x / d^n where d^n is past the double range, so that the quotient
    underflows only where the true one does: x 2^-n through ldexp for
    d = 2, exact at every n, else exp(log x - n log d), for x >= 0."""
    if d == 2:
        return np.ldexp(x, -n)
    with np.errstate(divide="ignore"):
        return np.exp(np.log(x) - n * math.log(d))


def _over_power(x, d: int, n: int):
    """x / d^n: the quotient by `_power(d, n)` wherever that is finite,
    `_past_power` past it.  For d = 2 the two agree wherever 2^n is
    finite, each correctly rounded."""
    p = _power(d, n)
    return x / p if p < math.inf else _past_power(x, d, n)


def _verified_floor(floor, bound, n: int, tol: float, safe_norm: float) -> float:
    """floor(n) scaled by 1 - 1e-9 and capped at safe_norm if its tail
    bound is not under tol, else 0.

    Every bound is built from correctly rounded divisions, products and
    sums of the magnitude, each monotone, so it is non-increasing in the
    magnitude: the one check proves the bound is not under tol at every
    magnitude at or below the floor.  It runs on a float64 scalar, whose
    operations round as those on an array do, at a seventh of the cost."""
    fl = min(floor(n) * (1.0 - 1e-9), safe_norm)
    if fl > 0.0 and bound(np.float64(fl), n) >= tol:
        return fl
    return 0.0


def _escape_rate(coords, shape, lead, bound, value, advance, floor,
                 tol: float, n_max: int,
                 safe_norm: float = SAFE_NORM) -> GreenField:
    """The one escape-rate loop, run on the live points only.

    The loop keeps live, the flat indices of the points still iterating,
    and cur, their coordinates compacted in the same order.  Per step n,
    lead(*cur, carried) gives the escaping magnitude, the max-norm and the
    escape test of every live point, where carried is the previous step's
    magnitude in the same order (None at n = 0): the Hénon kernels read
    their other coordinate's magnitude from it, since that coordinate is
    the escaping one of the step before.  floor(n) is a magnitude at or
    below which bound(magnitude, n) cannot be under tol; scaled by
    1 - 1e-9, capped at safe_norm and checked once through bound (0 if
    the check fails), it limits the tail bound to the escaped points
    above it, and to every escaped point at n = n_max.  Those retire once
    the bound is below tol, the magnitude is past safe_norm, or the budget
    is spent, and only then is value(magnitude, n) taken.  A point whose
    norm passes safe_norm without retiring that way, an escaped point of
    infinite magnitude included, retires with bound inf, neither
    converged nor presumed bounded.  A point is presumed bounded (value 0,
    bound 0, n_used n_max) when it is still live at n_max, or when its
    coordinates repeat exactly: at n = 16, 32, 48, 72, 108, ... (each
    interval half the step, at least 16) the loop keeps the live
    coordinates as a snapshot, and a point equal (==) to its snapshot
    that has not passed the escape test since retires at once.  Its orbit
    is then periodic in every magnitude the loop reads (a +-0 difference
    changes no later magnitude, and NaN never compares equal), so the
    budget would end it the same way; the growing interval catches every
    period once it reaches it.  Retiring points are scattered through
    live into the full-size results, and live, cur, the carried magnitude
    and the snapshot shrink by one keep mask on the steps where some
    point retired.  advance(*cur) is pure: it returns the coordinates of
    the live points one map step on, so a snapshot needs no copy.  The
    loop runs with float overflow and invalid-operation warnings off, and
    ends early once no point is live, so its work is the live points'
    summed orbit lengths up to their first exact repeat, not the input
    size times the steps.
    """
    if tol <= 0.0:
        raise ContractError("tol must be positive")
    if n_max < 1:
        raise ContractError("n_max must be >= 1")
    size = coords[0].size
    values = np.zeros(size)
    bounds = np.zeros(size)
    conv = np.zeros(size, dtype=bool)
    presumed = np.zeros(size, dtype=bool)
    n_used = np.zeros(size, dtype=np.int32)
    live = np.arange(size)
    cur = tuple(coords)
    carried = None
    snap = None    # the live coordinates at the last snapshot step
    seen = None    # live points that passed the escape test since then
    snap_at = 16
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_max + 1):
            mag, norm, esc = lead(*cur, carried)
            keep = None
            if esc.any():
                if seen is not None:
                    seen |= esc
                if n < n_max:
                    fl = _verified_floor(floor, bound, n, tol, safe_norm)
                    if fl > 0.0:
                        esc &= mag > fl
                ci = np.flatnonzero(esc)
                if ci.size:
                    mag_e = mag[ci]
                    bnd = bound(mag_e, n)
                    ok = bnd < tol
                    stop = ok | (mag_e > safe_norm) | (n == n_max)
                    stop &= mag_e < np.inf
                    if stop.any():
                        si = ci[stop]
                        fi = live[si]
                        values[fi] = value(mag_e[stop], n)
                        bounds[fi] = bnd[stop]
                        conv[fi] = ok[stop]
                        n_used[fi] = n
                        keep = np.ones(live.size, dtype=bool)
                        keep[si] = False
            over = norm > safe_norm
            if keep is not None:
                over &= keep
            if over.any():
                oi = live[over]
                bounds[oi] = np.inf
                n_used[oi] = n
                keep = ~over if keep is None else keep & ~over
            if n == n_max:
                live = live if keep is None else live[keep]
                conv[live] = True
                presumed[live] = True
                n_used[live] = n_max
                break
            if snap is not None:
                # the first coordinate alone rules out nearly every point
                same = cur[0] == snap[0]
                if same.any():
                    same &= ~seen
                    for c, s in zip(cur[1:], snap[1:]):
                        same &= c == s
                    ri = live[same]
                    conv[ri] = True
                    presumed[ri] = True
                    n_used[ri] = n_max
                    keep = ~same if keep is None else keep & ~same
            if keep is not None:
                live = live[keep]
                cur = tuple(c[keep] for c in cur)
                mag = mag[keep]
                if snap is not None:
                    snap = tuple(s[keep] for s in snap)
                    seen = seen[keep]
            if live.size == 0:
                break
            if n == snap_at:
                snap = cur
                seen = np.zeros(live.size, dtype=bool)
                snap_at += max(16, snap_at // 2)
            carried = mag
            cur = advance(*cur)
    return GreenField(values.reshape(shape), bounds.reshape(shape),
                      conv.reshape(shape), presumed.reshape(shape),
                      n_used.reshape(shape))


def _first(fld: GreenField) -> GreenEstimate:
    return GreenEstimate(float(fld.values[0]), int(fld.n_used[0]),
                         bool(fld.converged[0]), float(fld.bounds[0]),
                         bool(fld.presumed_bounded[0]))


def green_poly_field(zs, f, tol: float = 1e-9, n_max: int = 200) -> GreenField:
    """Escape rate log|f^n(z)| / d^n of a monic polynomial over an array.

    Outside |w| = 2(1 + sum|c_i|) the lower-order terms perturb log|f(w)|
    by at most 2 sum|c_i| / |w|, so the remaining increments are dominated
    by a geometric series; that sum is the reported bound.  Orbits retire
    past min(SAFE_NORM, 10^(300/d)), below which w^d still fits in float64.
    """
    z = np.asarray(zs, dtype=complex)
    d = f.degree
    csum = f.lower_coeff_sum()
    w_esc = 2.0 * (1.0 + csum)

    def lead(w, carried):
        aw = np.abs(w)
        return aw, aw, aw > w_esc

    def bound(aw, n):
        p = _power(d, n)
        if p < math.inf:
            return 2.0 * csum / (aw * p * (d - 1.0))
        return _past_power(2.0 * csum / (aw * (d - 1.0)), d, n)

    def floor(n):
        return 2.0 * csum / (tol * _power(d, n) * (d - 1.0))

    def value(aw, n):
        return _over_power(np.log(aw), d, n)

    # Horner from the monic top: the operations of f(w) less its first
    # step 1 * w, which is exact up to the sign of a zero while w is
    # finite; a live w is finite or NaN, so every magnitude the loop reads
    # is that of f(w) bit for bit; so is skipping a zero top, since w + 0
    # differs from w only in the sign of a zero.  Each product goes to a
    # fresh array and each add is in place: numpy rounds an aliased complex
    # product of a one-element array differently from the same product of
    # a longer one.
    rest = f.coeffs[-3::-1]
    top = f.coeffs[-2]

    def advance(w):
        acc = w + top if top else w
        for ck in rest:
            acc = acc * w
            acc += ck
        return (acc,)

    return _escape_rate((z.ravel(),), z.shape, lead, bound, value, advance,
                        floor, tol, n_max, min(SAFE_NORM, 10.0 ** (300.0 / d)))


def green_poly(z: complex, f, tol: float = 1e-9, n_max: int = 200) -> GreenEstimate:
    """green_poly_field at the single point z."""
    return _first(green_poly_field([z], f, tol, n_max))


def _coords(p):
    if hasattr(p, "x"):
        return complex(p.x), complex(p.y)
    x, y = p
    return complex(x), complex(y)


def _flat_pair(xs, ys):
    x = np.asarray(xs, dtype=complex)
    y = np.asarray(ys, dtype=complex)
    if x.shape != y.shape:
        raise ContractError("coordinate arrays must have matching shapes")
    return (x.ravel(), y.ravel()), x.shape


def _dominant(u, v, thr: float, av=None):
    """Magnitude |u|, norm max(|u|, |v|), and the test |u| > thr, |u| >= |v|;
    av, when given, is |v|."""
    au = np.abs(u)
    if av is None:
        av = np.abs(v)
    return au, np.maximum(au, av), (au > thr) & (au >= av)


def _henon_tail(a: complex, c: float, tol: float):
    """The tail bound 2(|a|/r^2 + c/r) / 2^n of a dominant coordinate of
    magnitude r, and its floor: the positive root of s r^2 - c r - |a| = 0
    with s = tol 2^n / 2, below which the bound is at least tol."""
    abs_a = abs(a)

    def bound(r, n):
        return _over_power(2.0 * (abs_a / r / r + c / r), 2, n)

    def floor(n):
        t = tol * _power(2, n)
        if t == math.inf:
            return 0.0
        return (c + math.sqrt(c * c + 2.0 * t * abs_a)) / t

    return bound, floor


def green_plus_field(xs, ys, m: MapParams, tol: float = 1e-9,
                     n_max: int = 100) -> GreenField:
    """Forward escape rate log|x_n| / 2^n over arrays of start points.

    Once |x| > 2R with |x| >= |y| the first coordinate strictly dominates
    and squares up to a relative error |a|/|x|^2 + |b|/|x|, giving the
    geometric tail bound 2(|a|/|x|^2 + |b|/|x|) / 2^n.
    """
    coords, shape = _flat_pair(xs, ys)
    thr = 2.0 * m.R
    a, b = m.a, m.b
    bound, floor = _henon_tail(a, abs(b), tol)

    def value(ax, n):
        return _over_power(np.log(ax), 2, n)

    # y_n = x_{n-1}: the carried magnitude is |y|.  a - x^2 differs from
    # -x * x + a only in the sign of a zero, which no magnitude reads, and
    # no complex product is aliased (see green_poly_field).
    def advance(x, y):
        acc = x * x
        np.subtract(a, acc, out=acc)
        acc -= b * y
        return acc, x

    return _escape_rate(coords, shape,
                        lambda x, y, ay: _dominant(x, y, thr, ay),
                        bound, value, advance, floor, tol, n_max)


def green_minus_field(xs, ys, m: MapParams, tol: float = 1e-9,
                      n_max: int = 100) -> GreenField:
    """Backward escape rate (log|y_m| - log|b|) / 2^m over arrays.

    Under the inverse map the second coordinate squares and picks up a
    constant 1/b factor each step; the factor telescopes exactly into
    -log|b| / 2^m, leaving the same geometric error as the forward case
    with epsilon = |a|/|y|^2 + 1/|y|.
    """
    coords, shape = _flat_pair(xs, ys)
    thr = 2.0 * m.R
    a, b = m.a, m.b
    log_b = math.log(abs(b))
    bound, floor = _henon_tail(a, 1.0, tol)

    def value(ay, n):
        return _over_power(np.log(ay) - log_b, 2, n)

    # x_n = y_{n-1}: the carried magnitude is |x|
    def advance(x, y):
        acc = y * y
        np.subtract(a, acc, out=acc)
        acc -= x
        acc /= b
        return y, acc

    return _escape_rate(coords, shape,
                        lambda x, y, ax: _dominant(y, x, thr, ax),
                        bound, value, advance, floor, tol, n_max)


def green_plus(p, m: MapParams, tol: float = 1e-9, n_max: int = 100) -> GreenEstimate:
    """green_plus_field at the single point p = (x, y)."""
    x, y = _coords(p)
    return _first(green_plus_field([x], [y], m, tol, n_max))


def green_minus(p, m: MapParams, tol: float = 1e-9, n_max: int = 100) -> GreenEstimate:
    """green_minus_field at the single point p = (x, y)."""
    x, y = _coords(p)
    return _first(green_minus_field([x], [y], m, tol, n_max))


@dataclass(frozen=True)
class ScalarGrid:
    """Row-major sampled scalar field.

    origin is the coordinate of cell (0, 0); cell (i, j) sits at
    origin + j*spacing + i*spacing*1j.  Values may contain nan or -inf
    at flagged singular cells.
    """

    origin: complex
    spacing: float
    values: np.ndarray

    def __post_init__(self):
        if self.spacing <= 0.0:
            raise ContractError("spacing must be positive")
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ContractError("values must be a 2-D array")
        object.__setattr__(self, "origin", complex(self.origin))
        object.__setattr__(self, "values", v)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def points(self) -> np.ndarray:
        ii, jj = np.mgrid[0:self.height, 0:self.width]
        return self.origin + self.spacing * (jj + 1j * ii)

    @classmethod
    def sample(cls, fn: Callable, origin: complex, spacing: float,
               width: int, height: int) -> "ScalarGrid":
        """Evaluate a vectorized complex->real function on the lattice."""
        ii, jj = np.mgrid[0:height, 0:width]
        zz = complex(origin) + spacing * (jj + 1j * ii)
        return cls(complex(origin), float(spacing), np.asarray(fn(zz), dtype=float))

    @classmethod
    def over_window(cls, fn: Callable, xmin: float, xmax: float,
                    ymin: float, ymax: float, spacing: float) -> "ScalarGrid":
        """Sample cell centers tiling the window; the lattice never touches
        the window edges, which keeps isolated singularities off the grid."""
        if xmax <= xmin or ymax <= ymin:
            raise ContractError("window must have positive extent")
        nx = int(round((xmax - xmin) / spacing))
        ny = int(round((ymax - ymin) / spacing))
        if nx < 1 or ny < 1:
            raise ContractError("window is narrower than one cell")
        origin = complex(xmin + 0.5 * spacing, ymin + 0.5 * spacing)
        return cls.sample(fn, origin, float(spacing), nx, ny)

    def interpolate(self, z: complex) -> float:
        """Bilinear value at an interior point; singular corners are an error."""
        fx = (z.real - self.origin.real) / self.spacing
        fy = (z.imag - self.origin.imag) / self.spacing
        eps = 1e-9
        if not (-eps <= fx <= self.width - 1 + eps and
                -eps <= fy <= self.height - 1 + eps):
            raise ContractError("point lies outside the sampled domain")
        j0 = min(max(int(math.floor(fx)), 0), self.width - 2) if self.width > 1 else 0
        i0 = min(max(int(math.floor(fy)), 0), self.height - 2) if self.height > 1 else 0
        tx = min(max(fx - j0, 0.0), 1.0)
        ty = min(max(fy - i0, 0.0), 1.0)
        j1 = min(j0 + 1, self.width - 1)
        i1 = min(i0 + 1, self.height - 1)
        corners = self.values[[i0, i0, i1, i1], [j0, j1, j0, j1]]
        if not np.all(np.isfinite(corners)):
            raise ContractError("interpolation touches a singular cell")
        v00, v01, v10, v11 = corners
        return float((1 - ty) * ((1 - tx) * v00 + tx * v01)
                     + ty * ((1 - tx) * v10 + tx * v11))


def discrete_ddc_mass(grid: ScalarGrid) -> ScalarGrid:
    """Cell masses from the five-point stencil: (sum of 4 neighbors - 4v) / 2pi.

    The h^2 in the Laplacian estimate cancels against the cell area, so
    masses integrate a unit point mass to 1 regardless of spacing.
    Boundary cells, singular cells and their stencil neighbors are nan.
    """
    v = grid.values
    if v.shape[0] < 3 or v.shape[1] < 3:
        raise ContractError("grid must be at least 3x3")
    finite = np.isfinite(v)
    ok = (finite[1:-1, 1:-1] & finite[:-2, 1:-1] & finite[2:, 1:-1]
          & finite[1:-1, :-2] & finite[1:-1, 2:])
    if not ok.any():
        raise ContractError("degenerate grid: no regular interior cells")
    stencil = (v[:-2, 1:-1] + v[2:, 1:-1] + v[1:-1, :-2] + v[1:-1, 2:]
               - 4.0 * v[1:-1, 1:-1])
    mass = np.full(v.shape, np.nan)
    mass[1:-1, 1:-1] = np.where(ok, stencil / TWO_PI, np.nan)
    return ScalarGrid(grid.origin, grid.spacing, mass)


def mass_in_disk(mass_grid: ScalarGrid, center: complex, radius: float) -> float:
    inside = np.abs(mass_grid.points() - complex(center)) <= radius
    vals = mass_grid.values[inside]
    return float(np.nansum(vals))


class SubaverageResult(NamedTuple):
    passed: bool
    deficit: float


def subaverage_check(target, center: complex, radius: float,
                     n_samples: int = 512, tol: float = 1e-9) -> SubaverageResult:
    """Compare the value at center to the circle average.

    deficit = average - center value; subharmonic functions never come out
    negative beyond the quadrature tolerance.  target is a scalar callable
    or a ScalarGrid (bilinear samples).
    """
    if radius <= 0.0:
        raise ContractError("radius must be positive")
    if n_samples < 8:
        raise ContractError("insufficient samples on the circle")
    center = complex(center)
    theta = TWO_PI * np.arange(n_samples) / n_samples
    ring = center + radius * np.exp(1j * theta)
    if isinstance(target, ScalarGrid):
        vals = [target.interpolate(z) for z in ring]
        mid = target.interpolate(center)
    else:
        vals = [float(target(z)) for z in ring]
        mid = float(target(center))
    avg = math.fsum(vals) / n_samples
    deficit = avg - mid
    return SubaverageResult(deficit >= -tol * (1.0 + abs(avg)), deficit)
