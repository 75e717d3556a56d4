import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mp_reference import escape_rate

from henonlab import potential
from henonlab.dynamics import MapParams, PointC2, henon_apply, henon_inverse
from henonlab.errors import ContractError
from henonlab.periodic2d import periodic_levels
from henonlab.poly1d import Poly
from henonlab.potential import (SAFE_NORM, GreenEstimate, GreenField,
                                ScalarGrid, _coords, discrete_ddc_mass,
                                green_minus,
                                green_minus_field, green_plus,
                                green_plus_field, green_poly,
                                green_poly_field, mass_in_disk,
                                potential_kernel, subaverage_check)

SQUARE = Poly((0.0, 0.0, 1.0))
CHEB = Poly((-2.0, 0.0, 1.0))
BASILICA = Poly((-1.0, 0.0, 1.0))
# period-3 bulb; like the basilica and z^2, its bounded starts land on an
# exact float cycle well inside a 200-step budget
RABBIT = Poly((-0.12256116687665362 + 0.74486176661974424j, 0.0, 1.0))


# Per-point reference: the scalar escape-rate loops in plain complex
# arithmetic, kept independent of the field kernels they check.

def ref_green_poly(z: complex, f, tol: float = 1e-9, n_max: int = 200) -> GreenEstimate:
    if tol <= 0.0:
        raise ContractError("tol must be positive")
    if n_max < 1:
        raise ContractError("n_max must be >= 1")
    d = f.degree
    csum = f.lower_coeff_sum()
    w_esc = 2.0 * (1.0 + csum)
    w = complex(z)
    for n in range(n_max + 1):
        aw = abs(w)
        if aw > w_esc:
            scale = float(d) ** n
            value = math.log(aw) / scale
            bound = 2.0 * csum / (aw * scale * (d - 1.0))
            if bound < tol:
                return GreenEstimate(value, n, True, bound)
            if aw > SAFE_NORM or n == n_max:
                return GreenEstimate(value, n, False, bound)
        elif n == n_max:
            return GreenEstimate(0.0, n_max, True, 0.0, presumed_bounded=True)
        w = complex(f(w))
    raise AssertionError("unreachable")


def ref_green_plus(p, m: MapParams, tol: float = 1e-9, n_max: int = 100) -> GreenEstimate:
    if tol <= 0.0:
        raise ContractError("tol must be positive")
    if n_max < 1:
        raise ContractError("n_max must be >= 1")
    thr = 2.0 * m.R
    a, b = m.a, m.b
    x, y = _coords(p)
    for n in range(n_max + 1):
        ax, ay = abs(x), abs(y)
        if ax > thr and ax >= ay:
            scale = 2.0 ** n
            value = math.log(ax) / scale
            bound = 2.0 * (abs(a) / (ax * ax) + abs(b) / ax) / scale
            if bound < tol:
                return GreenEstimate(value, n, True, bound)
            if ax > SAFE_NORM or n == n_max:
                return GreenEstimate(value, n, False, bound)
        elif max(ax, ay) > SAFE_NORM:
            return GreenEstimate(0.0, n, False, math.inf)
        elif n == n_max:
            return GreenEstimate(0.0, n_max, True, 0.0, presumed_bounded=True)
        x, y = -x * x + a - b * y, x
    raise AssertionError("unreachable")


def ref_green_minus(p, m: MapParams, tol: float = 1e-9, n_max: int = 100) -> GreenEstimate:
    if tol <= 0.0:
        raise ContractError("tol must be positive")
    if n_max < 1:
        raise ContractError("n_max must be >= 1")
    thr = 2.0 * m.R
    a, b = m.a, m.b
    x, y = _coords(p)
    for n in range(n_max + 1):
        ax, ay = abs(x), abs(y)
        if ay > thr and ay >= ax:
            scale = 2.0 ** n
            value = (math.log(ay) - math.log(abs(b))) / scale
            bound = 2.0 * (abs(a) / (ay * ay) + 1.0 / ay) / scale
            if bound < tol:
                return GreenEstimate(value, n, True, bound)
            if ay > SAFE_NORM or n == n_max:
                return GreenEstimate(value, n, False, bound)
        elif max(ax, ay) > SAFE_NORM:
            return GreenEstimate(0.0, n, False, math.inf)
        elif n == n_max:
            return GreenEstimate(0.0, n_max, True, 0.0, presumed_bounded=True)
        x, y = y, (a - y * y - x) / b
    raise AssertionError("unreachable")


# Whole-field reference: the masked loop the live-set loop replaced.  It
# runs lead and the mask updates on every point at every step and moves the
# active points i in place through advance(*coords, i).

def ref_escape_rate(coords, shape, lead, tail, advance, tol: float,
                    n_max: int, safe_norm: float = SAFE_NORM) -> GreenField:
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
    active = np.ones(size, dtype=bool)
    for n in range(n_max + 1):
        mag, norm, esc = lead(*coords)
        esc &= active
        esc &= mag < np.inf
        if esc.any():
            idx = np.flatnonzero(esc)
            mag_e = mag[idx]
            val, bnd = tail(mag_e, n)
            ok = bnd < tol
            stop = ok | (mag_e > safe_norm) | (n == n_max)
            fi = idx[stop]
            values[fi] = val[stop]
            bounds[fi] = bnd[stop]
            conv[fi] = ok[stop]
            n_used[fi] = n
            active[fi] = False
        over = active & (norm > safe_norm)
        if over.any():
            oi = np.flatnonzero(over)
            bounds[oi] = np.inf
            n_used[oi] = n
            active[oi] = False
        live = np.flatnonzero(active)
        if n == n_max:
            conv[live] = True
            presumed[live] = True
            n_used[live] = n_max
            break
        if live.size == 0:
            break
        advance(*coords, live)
    return GreenField(values.reshape(shape), bounds.reshape(shape),
                      conv.reshape(shape), presumed.reshape(shape),
                      n_used.reshape(shape))


def _masked_escape_rate(coords, shape, lead, bound, value, advance, floor,
                        *args):
    """ref_escape_rate driven by a kernel's pure advance, moved in place."""
    def tail(mag, n):
        return value(mag, n), bound(mag, n)

    def in_place(*coords_and_index):
        *cs, i = coords_and_index
        for c, new in zip(cs, advance(*(c[i] for c in cs))):
            c[i] = new

    return ref_escape_rate(tuple(c.copy() for c in coords), shape,
                           lambda *cs: lead(*cs, None), tail, in_place, *args)


EDGE_POINTS = [0.0, 1.0, 1e116, 1e129, 1e131, 1e200, -1e200j, math.inf,
               -math.inf, complex(math.inf, 1.0), math.nan]


def _with_edges(rng, scale, count, edges):
    pts = rng.normal(scale=scale, size=count) + 1j * rng.normal(scale=scale,
                                                                size=count)
    return np.concatenate([pts, np.array(edges, dtype=complex)])


@pytest.mark.parametrize("kernel, setting", [
    ("poly", BASILICA), ("poly", SQUARE), ("poly", RABBIT),
    ("poly", Poly((0.1, 0.0, 0.0, 1.0))),
    ("poly", Poly((0.1 - 0.3j, 0.2, -0.7 + 0.1j, 0.0, 1.0))),
    ("plus", (10.0, 0.3)), ("plus", (1.4, 0.3)),
    ("plus", (1.2 + 0.5j, 0.3 - 0.1j)),
    ("minus", (10.0, 0.3)), ("minus", (1.4, 0.3)),
    ("minus", (1.2 + 0.5j, 0.3 - 0.1j)),
    # 1/b and b * y overflow: infinite magnitudes retire as overflows
    ("minus", (10.0, 1e-320)), ("plus", (10.0, 1e300)),
], ids=["poly2", "square", "rabbit", "poly3", "poly4", "plus-10", "plus-1.4", "plus-complex",
        "minus-10", "minus-1.4", "minus-complex", "minus-b-1e-320",
        "plus-b-1e300"])
def test_live_set_loop_matches_masked_reference(monkeypatch, kernel, setting):
    rng = np.random.default_rng(17)
    if kernel == "poly":
        zs = _with_edges(rng, 2.0, 150, EDGE_POINTS).reshape(23, 7)
        budgets = (1, 2, 7, 47, 48, 49, 73, 200)

        def run(n_max, tol):
            return green_poly_field(zs, setting, tol, n_max)
    else:
        m = MapParams(*setting)
        xs = _with_edges(rng, 6.0, 150, EDGE_POINTS)
        ys = _with_edges(rng, 6.0, 150, EDGE_POINTS[::-1])
        field = green_plus_field if kernel == "plus" else green_minus_field
        budgets = (1, 2, 7, 47, 48, 49, 73, 100)

        def run(n_max, tol):
            return field(xs, ys, m, tol, n_max)
    for n_max in budgets:
        for tol in (1e-3, 1e-9, 1e-12, 1e-300):
            with np.errstate(all="ignore"):  # inf and nan starts
                fld = run(n_max, tol)
                with monkeypatch.context() as mp:
                    mp.setattr(potential, "_escape_rate", _masked_escape_rate)
                    ref = run(n_max, tol)
            for got, want in zip(fld, ref):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want, equal_nan=True)


def _counting(monkeypatch):
    """Patch the loop to record the live-set size of every advance call."""
    sizes = []
    live_set_loop = potential._escape_rate

    def counted_loop(coords, shape, lead, bound, value, advance, *args):
        def counted(*cur):
            sizes.append(cur[0].size)
            return advance(*cur)

        return live_set_loop(coords, shape, lead, bound, value, counted, *args)

    monkeypatch.setattr(potential, "_escape_rate", counted_loop)
    return sizes


def test_live_set_loop_advances_live_points_only(monkeypatch):
    sizes = _counting(monkeypatch)
    ii, jj = np.mgrid[0:48, 0:48]
    zs = (jj + 0.5) / 12.0 - 2.0 + 1j * ((ii + 0.5) / 16.0 - 1.5)
    before = zs.copy()
    fld = green_poly_field(zs, BASILICA, n_max=200)
    bounded = fld.presumed_bounded
    assert bounded.any() and not bounded.all()
    assert np.all(fld.n_used[bounded] == 200)
    assert all(b <= a for a, b in zip(sizes, sizes[1:]))
    assert np.array_equal(zs, before)  # the caller's array is not moved
    # every bounded start lands on the exact float cycle {0, -1} early: the
    # loop retires it there, not at n_max, and stops after 34 advances
    assert len(sizes) == 34 and sum(sizes) == 20440
    # each escaping point is advanced once per step it stays live, n_used
    # times, whatever else shares its loop
    sizes.clear()
    alone = green_poly_field(zs[~bounded], BASILICA, n_max=200)
    assert sum(sizes) == int(alone.n_used.sum())
    for got, want in zip(alone, fld):
        assert np.array_equal(got, want[~bounded])


def _identity_run(monkeypatch, w0, n_max, tol=1e-9):
    """_escape_rate and its masked reference on the map w -> w, escaping
    at |w| > 1 with the tail bound 2^-n; returns both fields and the
    number of advance calls of the live-set loop."""
    sizes = _counting(monkeypatch)
    coords = (np.asarray(w0, dtype=complex),)

    def lead(w, carried):
        aw = np.abs(w)
        return aw, aw, aw > 1.0

    def bound(aw, n):
        return np.full(aw.shape, 0.5 ** n)

    def value(aw, n):
        return np.log(aw) * 0.5 ** n

    def advance(w):
        return (w.copy(),)

    args = (coords, coords[0].shape, lead, bound, value, advance,
            lambda n: 0.0, tol, n_max)
    with np.errstate(invalid="ignore"):  # the NaN start
        got = potential._escape_rate(*args)
        want = _masked_escape_rate(*args)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w, equal_nan=True)
    return got, len(sizes)


def test_repeating_orbit_retires_early_with_budget_outputs(monkeypatch):
    # a fixed point is caught at the first snapshot (n = 16) one step later
    fld, advances = _identity_run(monkeypatch, [0.5, -0.25j, 0.0, -0.0], 200)
    assert advances == 17
    assert fld.presumed_bounded.all() and fld.converged.all()
    assert np.all(fld.n_used == 200)
    assert np.all(fld.values == 0.0) and np.all(fld.bounds == 0.0)


def test_repeating_orbit_that_escapes_retires_through_its_bound(monkeypatch):
    # the state repeats from step 16 on, but the escape test fires every
    # step, so only the shrinking bound may end it: at n = 30, 2^-30 < 1e-9
    fld, advances = _identity_run(monkeypatch, [3.0, -2.0j], 200)
    assert advances == 30
    assert not fld.presumed_bounded.any() and fld.converged.all()
    assert np.all(fld.n_used == 30)
    assert np.array_equal(fld.values, np.log([3.0, 2.0]) * 0.5 ** 30)


def test_nan_start_never_retires_by_repetition(monkeypatch):
    fld, advances = _identity_run(monkeypatch, [math.nan, complex(0.5, math.nan)],
                                  200)
    assert advances == 200
    assert fld.presumed_bounded.all() and np.all(fld.n_used == 200)


@pytest.mark.parametrize("n_max", [1, 15, 16, 17])
def test_short_budget_takes_no_snapshot(monkeypatch, n_max):
    # the first snapshot is at n = 16 and the first compare one step later,
    # so a budget below 18 runs every step
    fld, advances = _identity_run(monkeypatch, [0.5, 0.0], n_max)
    assert advances == n_max
    assert fld.presumed_bounded.all() and np.all(fld.n_used == n_max)


@pytest.mark.parametrize("f", [BASILICA, RABBIT, Poly((0.1, 0.0, 0.0, 1.0)),
                               Poly((0.1 - 0.3j, 0.2, -0.7 + 0.1j, 0.0, 1.0)),
                               Poly((0.1, 0.5 + 0.2j, 1.0))],
                         ids=["basilica", "rabbit", "cubic", "quartic", "top"])
def test_poly_advance_keeps_poly_call_magnitudes(monkeypatch, f):
    # the kernel's Horner drops polyval's exact first step 1 * w; on finite
    # points every magnitude the loop reads is the same bit for bit
    seen = []
    monkeypatch.setattr(potential, "_escape_rate",
                        lambda coords, *rest: seen.append(rest[4]))
    green_poly_field([0.0], f)
    advance, = seen
    rng = np.random.default_rng(21)
    w = rng.normal(scale=3.0, size=400) + 1j * rng.normal(scale=3.0, size=400)
    w = np.concatenate([w, [0.0, -0.0, complex(0.0, -0.0), -1.0, 1e60j,
                            -1e60 + 1e-300j, 1e-320]])
    got, = advance(w)
    assert np.array_equal(np.abs(got), np.abs(f(w)))


def _bench_tile(scale):
    """The 128x128 tile at rows and columns 128-255 of a 512x512 render of
    width and height scale centred on 0: the lattice of cli._render_tiles."""
    jj = np.arange(128, 256)[None, :]
    ii = np.arange(128, 256)[:, None]
    return scale * ((jj + 0.5) / 512 - 0.5) + 1j * scale * ((ii + 0.5) / 512 - 0.5)


def _bound_counting(monkeypatch):
    """Patch the loop to record the points passed to bound, and to check
    at every step that the kernel's floor survives its verification."""
    sizes = []
    live_set_loop = potential._escape_rate

    def counted_loop(coords, shape, lead, bound, value, advance, floor, tol,
                     n_max, safe_norm=SAFE_NORM):
        for n in range(n_max + 1):
            assert potential._verified_floor(floor, bound, n, tol,
                                             safe_norm) > 0.0

        def counted(mag, n):
            sizes.append(mag.size)
            return bound(mag, n)

        return live_set_loop(coords, shape, lead, counted, value, advance,
                             floor, tol, n_max, safe_norm)

    monkeypatch.setattr(potential, "_escape_rate", counted_loop)
    return sizes


def test_tail_bound_skips_escaped_points_below_the_floor(monkeypatch):
    # the benchmark's plus tile: every pixel retires through its bound by
    # step 7; below the floor an escaped point's bound cannot meet tol, so
    # the bound sees each retiring point once and one floor check a step
    # (4.1 times the retirements when every escaped point was bounded)
    sizes = _bound_counting(monkeypatch)
    t = _bench_tile(16.0)
    fld = green_plus_field(t, 0 * t, MapParams(10.0, 0.3), 1e-9, 100)
    retired = int(np.sum(np.isfinite(fld.bounds) & ~fld.presumed_bounded))
    assert retired == t.size and fld.converged.all()
    assert sum(sizes) <= retired + int(fld.n_used.max()) + 1


def test_basilica_tile_floor_and_snapshots(monkeypatch):
    # on the benchmark's basilica tile the floor check never falls back on
    # 0; the bounded starts land on the float cycle {0, -1} by step 46, so
    # the snapshot at 48 retires them and the loop advances 50 times (66
    # with snapshots at 16, 32, 64)
    _bound_counting(monkeypatch)
    sizes = _counting(monkeypatch)
    fld = green_poly_field(_bench_tile(4.0), BASILICA, 1e-9, 200)
    assert fld.presumed_bounded.any() and not fld.presumed_bounded.all()
    assert len(sizes) == 50


def test_verified_floor_refuses_a_floor_past_the_root():
    # bound 1/(r 2^n) meets tol = 1e-3 just above r = 1000/2^n
    def bound(r, n):
        return 1.0 / r / 2.0 ** n

    def root(n):
        return 1e3 / 2.0 ** n

    for n in range(8):
        fl = potential._verified_floor(root, bound, n, 1e-3, SAFE_NORM)
        assert fl == root(n) * (1.0 - 1e-9)
        assert potential._verified_floor(lambda n: root(n) * 1.001, bound, n,
                                         1e-3, SAFE_NORM) == 0.0
    assert potential._verified_floor(root, bound, 0, 1e-300, 10.0) == 10.0
    for bad in (0.0, -1.0, math.nan):
        assert potential._verified_floor(lambda n: bad, bound, 0, 1e-3,
                                         SAFE_NORM) == 0.0


@pytest.mark.parametrize("kernel, setting", [
    ("poly", BASILICA), ("poly", Poly((0.1 - 0.3j, 0.2, -0.7 + 0.1j, 0.0, 1.0))),
    ("plus", (10.0, 0.3)), ("plus", (1.2 + 0.5j, 0.3 - 0.1j)),
    ("minus", (1.4, 0.3)), ("minus", (10.0, 1e-320)),
], ids=["poly2", "poly4", "plus-10", "plus-complex", "minus-1.4",
        "minus-b-1e-320"])
def test_carried_magnitude_and_floor_hold_at_every_step(monkeypatch, kernel,
                                                        setting):
    # the lead of every step reads the same with the carried magnitude as
    # without it, and no magnitude just below the verified floor has a
    # bound under tol
    live_set_loop = potential._escape_rate
    steps = []

    def checked_loop(coords, shape, lead, bound, value, advance, floor, tol,
                     n_max, safe_norm=SAFE_NORM):
        def checked_lead(*cur):
            got = lead(*cur)
            steps.append(cur[-1] is not None)
            for g, w in zip(got, lead(*cur[:-1], None)):
                assert np.array_equal(g, w, equal_nan=True)
            return got

        for n in range(n_max + 1):
            fl = potential._verified_floor(floor, bound, n, tol, safe_norm)
            if fl > 0.0:
                assert np.all(bound(fl * np.linspace(0.999, 1.0, 1001), n)
                              >= tol)
        return live_set_loop(coords, shape, checked_lead, bound, value,
                             advance, floor, tol, n_max, safe_norm)

    monkeypatch.setattr(potential, "_escape_rate", checked_loop)
    rng = np.random.default_rng(19)
    with np.errstate(all="ignore"):  # inf and nan starts
        for tol in (1e-3, 1e-9, 1e-12):
            if kernel == "poly":
                green_poly_field(_with_edges(rng, 2.0, 400, EDGE_POINTS),
                                 setting, tol, 200)
            else:
                field = green_plus_field if kernel == "plus" else green_minus_field
                field(_with_edges(rng, 6.0, 400, EDGE_POINTS),
                      _with_edges(rng, 6.0, 400, EDGE_POINTS[::-1]),
                      MapParams(*setting), tol, 100)
    assert sum(steps) > 10


def test_green_minus_infinite_magnitude_is_an_overflow():
    # 1/b overflows, so |y_1| is inf: its tail bound 0 would certify the
    # value inf; it retires as an overflow instead, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = green_minus((0.5, 0.5), MapParams(10.0, 1e-320))
    assert g == GreenEstimate(0.0, 1, False, math.inf)


@pytest.mark.parametrize("a, b", [(10.0, 0.3), (1.4, 0.3),
                                  (1.2 + 0.5j, 0.3 - 0.1j), (6.0, -0.3)])
def test_green_minus_is_green_plus_of_the_conjugate_inverse(a, b):
    # psi(x, y) = (y/b, x/b) conjugates the inverse of the map at (a, b) to
    # the map at (a/b^2, 1/b), and the 1/b it scales the escaping
    # coordinate by is the -log|b| of G-: G-(x, y) = G+'(y/b, x/b) step for
    # step.  Cycle points run a budget short enough that neither side's
    # rounding drifts off the saddle cycle, so the presumed-bounded flag
    # fires on both.
    m = MapParams(a, b)
    conj = MapParams(a / b ** 2, 1.0 / b)
    rng = np.random.default_rng(33)
    box = 2.0 * m.R
    xs, ys = (rng.uniform(-box, box, (2, 2000))
              + 1j * rng.uniform(-box, box, (2, 2000)))
    cyc = np.array([p for lv in periodic_levels(m, range(1, 5))
                    for o in lv.orbits for p in o.points])
    for x, y, n_max in ((xs, ys, 100), (cyc[:, 0], cyc[:, 1], 6)):
        g = green_minus_field(x, y, m, n_max=n_max)
        h = green_plus_field(y / b, x / b, conj, n_max=n_max)
        for flag in ("converged", "presumed_bounded", "n_used"):
            assert np.array_equal(getattr(g, flag), getattr(h, flag))
        assert np.allclose(g.values, h.values, rtol=1e-12, atol=0.0)
    assert g.presumed_bounded.all()


def test_potential_kernel_values():
    assert potential_kernel(-2.5, 1) == pytest.approx(2.5)
    assert potential_kernel(0.0j, 2) == -math.inf
    assert potential_kernel(complex(math.e ** 2, 0.0), 2) == pytest.approx(2.0)
    assert potential_kernel(np.array([2.0, 0.0, 0.0]), 3) == pytest.approx(-0.5)
    with pytest.raises(ContractError):
        potential_kernel(1.0 + 1.0j, 1)
    with pytest.raises(ContractError):
        potential_kernel(np.array([1.0, 0.0, 0.0]), 2)


def test_green_square_map_is_exact():
    rng = np.random.default_rng(4)
    for z in rng.normal(scale=2.0, size=50) + 1j * rng.normal(scale=2.0, size=50):
        g = green_poly(z, SQUARE)
        assert g.converged
        assert abs(g.value - max(math.log(abs(z)), 0.0)) < 1e-12
    inside = green_poly(0.4 + 0.2j, SQUARE)
    assert inside.presumed_bounded and inside.value == 0.0 and inside.bound == 0.0


def test_green_conjugacy_oracle():
    # z = w + 1/w conjugates z^2 - 2 to w^2, so G(3) = log((3 + sqrt 5)/2)
    g = green_poly(3.0, CHEB, tol=1e-12)
    assert g.converged
    assert abs(g.value - math.log((3.0 + math.sqrt(5.0)) / 2.0)) < 1e-12


def test_green_poly_functional_equation():
    # the scalar estimators are field elements (checked below), so the
    # identities are checked on whole fields
    rng = np.random.default_rng(9)
    zs = rng.normal(scale=1.8, size=300) + 1j * rng.normal(scale=1.8, size=300)
    g = green_poly_field(zs, BASILICA, tol=1e-11)
    g2 = green_poly_field(BASILICA(zs), BASILICA, tol=1e-11)
    keep = g.converged & (g.values > 0.0)
    assert np.all(np.abs(g2.values[keep] - 2.0 * g.values[keep]) < 1e-9)


def test_green_poly_field_matches_scalar():
    rng = np.random.default_rng(10)
    zs = rng.normal(scale=2.0, size=64) + 1j * rng.normal(scale=2.0, size=64)
    fld = green_poly_field(zs, BASILICA)
    for i, z in enumerate(zs):
        g = ref_green_poly(complex(z), BASILICA)
        assert fld.values[i] == pytest.approx(g.value, abs=1e-14)
        assert bool(fld.converged[i]) == g.converged
        assert fld.n_used[i] == g.n_used


def _random_points(rng, radius, count):
    r = rng.uniform(-radius, radius, size=(count, 4))
    return [PointC2(complex(u[0], u[1]), complex(u[2], u[3])) for u in r]


def _field_at(field, pts, m):
    return field(np.array([p.x for p in pts]), np.array([p.y for p in pts]), m)


def test_green_plus_functional_equation(horseshoe):
    pts = _random_points(np.random.default_rng(12), 2 * horseshoe.R, 400)
    g = _field_at(green_plus_field, pts, horseshoe)
    g2 = _field_at(green_plus_field, [henon_apply(p, horseshoe) for p in pts],
                   horseshoe)
    keep = g.converged & (g.values > 0.0)
    assert np.all(np.abs(g2.values[keep] - 2.0 * g.values[keep]) < 1e-6)
    assert keep.sum() > 100


def test_green_minus_functional_equation(horseshoe):
    pts = _random_points(np.random.default_rng(13), 2 * horseshoe.R, 400)
    g = _field_at(green_minus_field, pts, horseshoe)
    g2 = _field_at(green_minus_field,
                   [henon_inverse(p, horseshoe) for p in pts], horseshoe)
    keep = g.converged & (g.values > 0.0)
    assert np.all(np.abs(g2.values[keep] - 2.0 * g.values[keep]) < 1e-6)
    assert keep.sum() > 100


def test_green_plus_bounded_orbit_is_presumed():
    # a sink's basin is numerically robust; a saddle would drift off after
    # ~20 steps of amplified rounding and read as a tiny positive value
    m = MapParams(0.1, 0.3)
    x = (-1.3 + math.sqrt(1.3 ** 2 + 0.4)) / 2.0
    g = green_plus(PointC2(x, x), m)
    assert g.presumed_bounded and g.value == 0.0 and g.converged


def test_green_plus_untriggered_overflow_not_presumed(horseshoe):
    g = green_plus(PointC2(1.0, 1e200), horseshoe)
    assert not g.converged
    assert not g.presumed_bounded
    assert g.bound == math.inf


def _check_henon_field(field, ref, m, seed):
    rng = np.random.default_rng(seed)
    xs = rng.normal(scale=6.0, size=40) + 1j * rng.normal(scale=6.0, size=40)
    ys = rng.normal(scale=6.0, size=40) + 1j * rng.normal(scale=6.0, size=40)
    fld = field(xs, ys, m)
    for i in range(40):
        g = ref(PointC2(complex(xs[i]), complex(ys[i])), m)
        assert fld.values[i] == pytest.approx(g.value, abs=1e-13)
        assert bool(fld.presumed_bounded[i]) == g.presumed_bounded


def test_green_field_against_scalar_henon(horseshoe):
    _check_henon_field(green_plus_field, ref_green_plus, horseshoe, 14)


def test_green_minus_field_against_reference(horseshoe):
    _check_henon_field(green_minus_field, ref_green_minus, horseshoe, 14)


@pytest.mark.parametrize("scalar, field", [(green_plus, green_plus_field),
                                           (green_minus, green_minus_field)])
def test_henon_scalar_is_field_element(horseshoe, scalar, field):
    rng = np.random.default_rng(15)
    xs = rng.normal(scale=6.0, size=(20, 15)) + 1j * rng.normal(scale=6.0, size=(20, 15))
    ys = rng.normal(scale=6.0, size=(20, 15)) + 1j * rng.normal(scale=6.0, size=(20, 15))
    xs[0, :3] = (0.0, 1.0, 1e200)  # presumed, escaping, overflowing
    ys[0, :3] = (0.0, 1e200, 1.0)
    with np.errstate(over="ignore"):  # |x|^2 of the 1e200 point is inf
        fld = field(xs, ys, horseshoe, tol=1e-11, n_max=40)
    for i, j in np.ndindex(xs.shape):
        with np.errstate(over="ignore"):
            g = scalar(PointC2(complex(xs[i, j]), complex(ys[i, j])),
                       horseshoe, tol=1e-11, n_max=40)
        assert g == GreenEstimate(float(fld.values[i, j]), int(fld.n_used[i, j]),
                                  bool(fld.converged[i, j]),
                                  float(fld.bounds[i, j]),
                                  bool(fld.presumed_bounded[i, j]))


def test_poly_scalar_is_field_element():
    rng = np.random.default_rng(16)
    zs = rng.normal(scale=2.0, size=120) + 1j * rng.normal(scale=2.0, size=120)
    fld = green_poly_field(zs, BASILICA, tol=1e-12, n_max=60)
    assert fld.presumed_bounded.any() and fld.converged.any()
    for i, z in enumerate(zs):
        g = green_poly(z, BASILICA, tol=1e-12, n_max=60)
        assert g == GreenEstimate(float(fld.values[i]), int(fld.n_used[i]),
                                  bool(fld.converged[i]), float(fld.bounds[i]),
                                  bool(fld.presumed_bounded[i]))


@pytest.mark.parametrize("bad", [{"n_max": 0}, {"n_max": -1}, {"tol": 0.0},
                                 {"tol": -1e-9}])
def test_field_kernels_reject_bad_budget(horseshoe, bad):
    pts = np.array([0.5 + 0.0j, 30.0])
    with pytest.raises(ContractError):
        green_plus_field(pts, pts, horseshoe, **bad)
    with pytest.raises(ContractError):
        green_minus_field(pts, pts, horseshoe, **bad)
    with pytest.raises(ContractError):
        green_poly_field(pts, BASILICA, **bad)
    with pytest.raises(ContractError):
        green_poly(0.5, BASILICA, **bad)


def test_henon_fields_reject_mismatched_shapes(horseshoe):
    # equal sizes in another shape must not be paired in flat order
    xs = np.zeros((2, 3), dtype=complex)
    ys = np.zeros((3, 2), dtype=complex)
    for field in (green_plus_field, green_minus_field):
        with pytest.raises(ContractError):
            field(xs, ys, horseshoe)
    assert green_plus_field(xs, xs, horseshoe).values.shape == (2, 3)


def test_green_poly_overflow_is_not_bounded():
    # |w| = 1e200 is past SAFE_NORM but inside the escape radius 2(1 + 1e200)
    huge = Poly((1e200, 0.0, 1.0))
    fld = green_poly_field([3.0], huge)
    assert fld.bounds[0] == math.inf
    assert not fld.converged[0] and not fld.presumed_bounded[0]
    assert fld.values[0] == 0.0 and fld.n_used[0] == 1
    g = green_poly(3.0, huge)
    assert g == GreenEstimate(0.0, 1, False, math.inf)


def test_green_poly_cubic_tiny_tol_is_not_inf_converged():
    # |w|^3 of an orbit point past 1e103 overflows: a cubic freezes its
    # orbits below 10^(300/3) instead of SAFE_NORM = 1e130
    with np.errstate(over="raise"):
        g = green_poly(3.0, Poly((0.1, 0.0, 0.0, 1.0)), tol=1e-300)
    assert math.isfinite(g.value) and not g.converged
    assert g == green_poly(3.0, Poly((0.1, 0.0, 0.0, 1.0)), tol=1e-300,
                           n_max=50)


@pytest.mark.parametrize("f, n_min", [
    (Poly((0.250001, 0.0, 1.0)), 1024),
    (Poly((2.0 / (3.0 * math.sqrt(3.0)) + 1e-5, 0.0, 0.0, 1.0)), 647),
], ids=["quadratic", "cubic"])
def test_green_poly_escape_past_the_double_range_of_d_to_the_n(f, n_min):
    # just past a parabolic parameter the orbit of 0 escapes after more
    # steps than d^n has doubles for (2^1024 and 3^647 overflow): its
    # escape rate, under 1e-300, rounds to 0 with bound 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = green_poly(0.0, f, n_max=5000)
    assert g.n_used >= n_min
    assert g == GreenEstimate(0.0, g.n_used, True, 0.0)


def test_henon_tail_past_the_double_range_of_2_to_the_n():
    bound, floor = potential._henon_tail(1.4, 0.3, 1e-9)
    assert bound(np.float64(10.0), 1100) == 0.0 and floor(1100) == 0.0
    assert bound(np.float64(10.0), 1023) > 0.0 and floor(1023) > 0.0


def test_henon_tail_bound_just_past_the_double_range_of_2_to_the_n():
    # 2^1030 overflows, but the bound 0.088 / 2^1030 is a subnormal
    bound, _ = potential._henon_tail(1.4, 0.3, 1e-9)
    assert bound(np.float64(10.0), 1030) == math.ldexp(0.088, -1030) > 0.0


def test_past_power_is_the_quotient_where_d_to_the_n_is_finite():
    # ldexp rounds as the division by 2^n does, into the subnormals too;
    # exp(log x - n log 3) is within a few ulps of x / 3^n
    x = np.array([1e-300, 0.3, 1.0, 7.5, 1e300])
    for n in range(1024):
        assert np.array_equal(potential._past_power(x, 2, n), x / 2.0 ** n)
    for n in range(0, 647, 7):
        q = x / 3.0 ** n
        normal = q > 2.3e-308
        assert np.allclose(potential._past_power(x, 3, n)[normal], q[normal],
                           rtol=1e-12, atol=0.0)


def test_green_poly_value_just_past_the_double_range_of_2_to_the_n():
    # 0 escapes from z^2 + 1/4 + 9.3e-6 at n = 1029: its escape rate is
    # log|w_n| 2^-n of the float orbit, a subnormal, not 0
    c = 0.25 + 9.3e-6
    g = green_poly(0.0, Poly((c, 0.0, 1.0)), n_max=5000)
    assert g.n_used == 1029 and g.converged
    w = 0.0
    for _ in range(g.n_used):
        w = w * w + c
    assert g.value == math.ldexp(math.log(abs(w)), -1029) > 0.0
    assert 0.0 < g.bound < 1e-9


def test_green_poly_value_just_past_the_double_range_of_3_to_the_n():
    # 0 escapes from z^3 + 2/(3 sqrt 3) + 1.35e-5 at n = 649, past 3^647:
    # the value lies within its bound of the 80-digit escape rate
    f = Poly((2.0 / (3.0 * math.sqrt(3.0)) + 1.35e-5, 0.0, 0.0, 1.0))
    g = green_poly(0.0, f, n_max=5000)
    assert g.n_used == 649 and g.converged
    ref = escape_rate(0.0, f, "poly")
    assert 3.7e-310 < ref < 3.8e-310
    assert abs(g.value - ref) <= g.bound + 1e-15 * ref


def _within_bound(g: GreenEstimate, ref: float) -> bool:
    return abs(g.value - ref) <= g.bound + 1e-15 * abs(ref)


@pytest.mark.parametrize("m", [MapParams(10.0, 0.3), MapParams(1.4, 0.3),
                               MapParams(1.2 + 0.5j, 0.3 - 0.1j)],
                         ids=["horseshoe", "1.4", "complex"])
@pytest.mark.parametrize("direction", ["plus", "minus"])
def test_henon_escape_rates_against_80_digits(m, direction):
    # every converged value at a start point within 1.5 R lies within its
    # tail bound of the 80-digit escape rate
    scalar = green_plus if direction == "plus" else green_minus
    rng = np.random.default_rng(18)
    box = 1.5 * m.R
    starts = (rng.uniform(-box, box, (40, 2))
              + 1j * rng.uniform(-box, box, (40, 2))).tolist()
    checked = 0
    for p in starts:
        g = scalar(p, m)
        if g.converged and not g.presumed_bounded:
            assert _within_bound(g, escape_rate(p, m, direction))
            checked += 1
    assert checked >= 20


@pytest.mark.xfail(strict=True, reason="the tail bound leaves out the "
                   "rounding of the float orbit")
def test_minus_escape_rate_near_a_saddle_cycle_against_80_digits():
    # a level-3 cycle point of (10, 0.3) moved by 1e-6 stays near the
    # cycle for a few inverse steps, each rounding by ~eps |y| against an
    # offset of 1e-6: the value is 1.5e-10 relative off the 80-digit escape
    # rate, some 1e5 times its bound.  The same iteration in Python complex
    # arithmetic gives the kernel's value bit for bit.
    m = MapParams(10.0, 0.3)
    for lv in periodic_levels(m, [3]):
        for o in lv.orbits:
            for p in o.points:
                q = (p.x + 1e-6, p.y)
                g = green_minus(q, m)
                assert g.converged and not g.presumed_bounded
                assert _within_bound(g, escape_rate(q, m, "minus"))


def test_basilica_escape_rates_against_80_digits():
    rng = np.random.default_rng(18)
    zs = rng.uniform(-2.0, 2.0, 40) + 1j * rng.uniform(-1.2, 1.2, 40)
    checked = 0
    for z in zs.tolist():
        g = green_poly(z, BASILICA)
        if g.converged and not g.presumed_bounded:
            assert _within_bound(g, escape_rate(z, BASILICA, "poly"))
            checked += 1
    assert checked >= 20


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(st.complex_numbers(max_magnitude=12.0),
       st.complex_numbers(min_magnitude=0.05, max_magnitude=0.9),
       st.tuples(st.complex_numbers(max_magnitude=6.0),
                 st.complex_numbers(max_magnitude=6.0)),
       st.sampled_from(["plus", "minus"]))
def test_escape_rates_against_80_digits_sampled(a, b, p, direction):
    m = MapParams(a, b)
    g = (green_plus if direction == "plus" else green_minus)(p, m)
    if g.converged and not g.presumed_bounded:
        assert _within_bound(g, escape_rate(p, m, direction))


def test_scalar_grid_window_avoids_origin():
    g = ScalarGrid.over_window(lambda z: np.log(np.abs(z)),
                               -1.0, 1.0, -1.0, 1.0, 0.01)
    assert np.all(np.isfinite(g.values))
    assert g.width == 200 and g.height == 200


def test_scalar_grid_interpolation():
    g = ScalarGrid.sample(lambda z: 3.0 * z.real - z.imag, 0.0, 0.5, 5, 5)
    # bilinear interpolation is exact on affine functions
    assert g.interpolate(0.8 + 1.1j) == pytest.approx(3 * 0.8 - 1.1)
    with pytest.raises(ContractError):
        g.interpolate(3.0 + 0.0j)


def test_ddc_mass_log_kernel():
    g = ScalarGrid.over_window(lambda z: np.log(np.abs(z)),
                               -1.0, 1.0, -1.0, 1.0, 0.01)
    mass = discrete_ddc_mass(g)
    inside = mass_in_disk(mass, 0.0, 0.5)
    assert abs(inside - 1.0) < 0.01
    assert abs(np.nansum(mass.values) - 1.0) < 0.02


def test_ddc_mass_harmonic_function_vanishes():
    g = ScalarGrid.over_window(lambda z: (z * z).real, -1.0, 1.0, -1.0, 1.0,
                               0.05)
    mass = discrete_ddc_mass(g)
    assert abs(np.nansum(mass.values)) < 1e-9


def test_ddc_degenerate_grid_rejected():
    g = ScalarGrid(0.0, 1.0, np.full((3, 3), -np.inf))
    with pytest.raises(ContractError):
        discrete_ddc_mass(g)


def test_subaverage_check_log_kernel():
    fn = lambda z: float(np.log(abs(z))) if z != 0 else -math.inf
    res = subaverage_check(fn, 0.0, 1.0)
    assert res.passed  # mean over the circle is 0, center value is -inf
    res2 = subaverage_check(fn, 1.5 + 0.5j, 0.3)
    assert res2.passed and abs(res2.deficit) < 1e-6  # harmonic off the origin
    with pytest.raises(ContractError):
        subaverage_check(fn, 0.0, 1.0, n_samples=4)


def test_subaverage_check_flags_superharmonic():
    # circle mean of -|z|^2 is -(|c|^2 + r^2), strictly below the center value
    anti = lambda z: -abs(z) ** 2
    res = subaverage_check(anti, 1.0 + 0.0j, 0.5)
    assert not res.passed
    assert abs(res.deficit + 0.25) < 1e-9
