import hashlib
import math
from fractions import Fraction

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from corpus import pinned
from mp_reference import poly_at, polyroots

from henonlab import cycles, poly1d
from henonlab.errors import CapError, ContractError, ConvergenceError
from henonlab.poly1d import (Poly, brolin_measure, exceptional_check,
                             julia_render_points, periodic_points_1d,
                             preimages, simultaneous_roots, solve_offset)

SQUARE = Poly((0.0, 0.0, 1.0))
BASILICA = Poly((-1.0, 0.0, 1.0))


def test_poly_contract():
    with pytest.raises(ContractError):
        Poly((1.0, 1.0))           # degree 1
    with pytest.raises(ContractError):
        Poly((1.0, 0.0, 2.0))      # not monic
    f = Poly((2.0, -1.0, 0.0, 1.0))
    assert f.degree == 3
    assert f(2.0) == pytest.approx(8 - 2 + 2)
    assert f.eval_deriv(2.0) == pytest.approx(12 - 1)
    assert f.lower_coeff_sum() == pytest.approx(3.0)


def _signed_zero_parts(rng, v):
    """v with about a quarter of its real and imaginary parts set to +0.0
    or -0.0."""
    v = np.array(v, dtype=complex)
    for part in (v.real, v.imag):
        hit = rng.random(part.shape) < 0.25
        part[hit] = np.where(rng.random(part.shape) < 0.5, 0.0, -0.0)[hit]
    return v


@pytest.mark.parametrize("d", range(2, 9))
def test_poly_evaluates_with_the_bits_of_numpy_polynomial(d):
    # one Horner for every polynomial: values and derivatives have the bits
    # of polyval and polyder, at arrays, 0-d arrays and Python scalars
    rng = np.random.default_rng(d)
    for _ in range(40):
        scale = 10.0 ** rng.integers(-3, 4)
        low = scale * (rng.normal(size=d) + 1j * rng.normal(size=d))
        f = Poly((*_signed_zero_parts(rng, low).tolist(), 1.0))
        c = np.array(f.coeffs)
        dc = npp.polyder(c)
        z = _signed_zero_parts(rng, rng.normal(size=(3, 5))
                               + 1j * rng.normal(size=(3, 5)))
        for at, ref in ((f, c), (f.eval_deriv, dc)):
            got = at(z)
            assert type(got) is np.ndarray and got.shape == z.shape
            assert got.tobytes() == npp.polyval(z, ref).tobytes()
            for w in (complex(z[0, 3]), float(z[2, 4].real)):
                for arg in (np.asarray(w), w):
                    got = at(arg)
                    assert type(got) is np.complex128
                    assert got.tobytes() == npp.polyval(arg, ref).tobytes()


def test_periodic_points_cap():
    with pytest.raises(CapError):
        periodic_points_1d(SQUARE, 13)  # 2^13 paths past the cap
    with pytest.raises(ContractError):
        periodic_points_1d(SQUARE, 0)


def test_simultaneous_roots_against_numpy():
    rng = np.random.default_rng(7)
    for deg in (2, 3, 4, 7, 11):
        for _ in range(10):
            c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            c[-1] = 1.0
            mine = np.sort_complex(simultaneous_roots(c))
            ref = np.sort_complex(np.roots(c[::-1]))
            assert np.max(np.abs(mine - ref)) < 1e-7


@pytest.mark.parametrize("d", range(2, 21))
def test_simultaneous_roots_within_rounding_level_of_60_digit_roots(d):
    # the rounding level the kernel's stall rule accepts: every root's
    # residual, evaluated at 60 digits, is at most 4 d eps sum |c_i| |z|^i.
    # The disk |w - z| <= d |p(z)| / |p'(z)| holds a root of p, so each
    # root lies within d times that level over |p'(z)| of one of
    # mp.polyroots' roots, and no two roots share one
    rng = np.random.default_rng(d)
    c = np.r_[rng.normal(size=d) + 1j * rng.normal(size=d), 1.0]
    ref = polyroots(c)
    nearest = []
    for z in simultaneous_roots(c).tolist():
        resid, slope, scale = poly_at(c, z)
        level = 4 * d * np.finfo(float).eps * scale
        assert resid <= level
        dist = [abs(z - r) for r in ref]
        k = dist.index(min(dist))
        assert dist[k] <= d * level / slope
        nearest.append(k)
    assert sorted(nearest) == list(range(d))


def test_simultaneous_roots_resolves_interior_root():
    # z^64 - z: one root at the origin, the rest on the unit circle
    c = np.zeros(65, dtype=complex)
    c[1], c[-1] = -1.0, 1.0
    roots = simultaneous_roots(c)
    assert int(np.sum(np.abs(roots) < 0.5)) == 1
    assert np.max(np.abs(np.polyval(c[::-1], roots))) < 1e-10


CUBIC = Poly((0.3 + 0.2j, -0.5, 0.0, 1.0))
QUARTIC = Poly((0.1 - 0.3j, 0.2, -0.7 + 0.1j, 0.0, 1.0))


def offset_rows(f, k, seed):
    """k monic rows f(z) - w for random targets w, the rows solve_offset builds."""
    rng = np.random.default_rng(seed)
    c = np.tile(np.array(f.coeffs, dtype=complex), (k, 1))
    c[:, 0] -= rng.normal(size=k) + 1j * rng.normal(size=k)
    return c


@pytest.mark.parametrize("f", [CUBIC, QUARTIC], ids=["cubic", "quartic"])
@pytest.mark.parametrize("k", [0, 1, 7, 300])
def test_batched_roots_bit_identical_to_row_loop(f, k):
    c = offset_rows(f, k, seed=k)
    batch = simultaneous_roots(c)
    assert batch.shape == (k, f.degree)
    loop = np.array([simultaneous_roots(row) for row in c]).reshape(k, f.degree)
    assert np.array_equal(batch, loop)


def test_batched_roots_across_blocks(monkeypatch):
    c = offset_rows(CUBIC, 41, seed=1)
    whole = simultaneous_roots(c)
    # 5 rows of 3x3 per block: 41 rows run as 9 blocks, the last one short
    monkeypatch.setattr(poly1d, "ROOTS_BLOCK_ELEMS", 45)
    blocked = simultaneous_roots(c)
    loop = np.array([simultaneous_roots(row) for row in c])
    assert np.array_equal(blocked, whole) and np.array_equal(blocked, loop)


def test_batched_roots_shapes():
    c = offset_rows(QUARTIC, 1, seed=3)
    assert simultaneous_roots(c[0]).shape == (4,)
    assert simultaneous_roots(c).shape == (1, 4)
    assert np.array_equal(simultaneous_roots(np.array([[3.0, 1.0]])),
                          [[-3.0 + 0j]])
    with pytest.raises(ContractError):
        simultaneous_roots(np.ones((2, 2, 3)))
    with pytest.raises(ContractError):
        simultaneous_roots(np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 2.0]]))


@pytest.mark.parametrize("lead", [math.nan, complex(1.0, math.nan),
                                  complex(math.nan, 0.0)])
def test_nan_leading_coefficient_is_not_monic(lead):
    # |nan - 1| > 0 is False: a NaN top coefficient must be refused up
    # front, not swept to a ConvergenceError
    c = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, lead]], dtype=complex)
    with pytest.raises(ContractError, match="monic"):
        simultaneous_roots(c)


@pytest.mark.parametrize("f", [CUBIC, QUARTIC], ids=["cubic", "quartic"])
def test_solve_offset_matches_per_target_solves(f):
    # reference: one 1-D solve per target, one Newton step, sort by (re, im)
    ws = np.random.default_rng(6).normal(size=50) * (1 + 1j)
    ref = []
    for w in ws:
        c = np.array(f.coeffs, dtype=complex)
        c[0] -= w
        r = simultaneous_roots(c)
        dz = f.eval_deriv(r)
        safe = np.abs(dz) > 1e-12
        r = np.where(safe, r - npp.polyval(r, c) / np.where(safe, dz, 1.0), r)
        ref.append(r[np.lexsort((r.imag, r.real))])
    assert np.array_equal(solve_offset(f, ws), np.array(ref))


def random_rows(d, k, seed):
    """k monic rows of degree d with standard complex normal coefficients."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(k, d + 1)) + 1j * rng.normal(size=(k, d + 1))
    c[:, -1] = 1.0
    return c


@pytest.mark.parametrize("src", [2, 3, 4, 5, 7, 11, 20, 64, CUBIC, QUARTIC],
                         ids=["d2", "d3", "d4", "d5", "d7", "d11", "d20",
                              "d64", "cubic-offsets", "quartic-offsets"])
def test_simultaneous_roots_pinned_bits(request, src):
    # pinned digests: no change to the sweep layout may move a bit of a
    # root at any degree; 50 random rows of degree d (seed d), or 300
    # offset rows of a fixed polynomial
    c = (random_rows(src, 50, seed=src) if isinstance(src, int)
         else offset_rows(src, 300, seed=5))
    assert hashlib.sha256(simultaneous_roots(c).tobytes()).hexdigest() \
        == pinned(f"test_poly1d.py::{request.node.name}")


def test_solve_offset_empty_targets():
    for f in (BASILICA, CUBIC, QUARTIC):
        assert solve_offset(f, np.empty(0)).shape == (0, f.degree)


def test_batched_roots_name_first_failing_row(monkeypatch):
    # at 4 sweeps rows 0 and 1 have converged and rows 2-5 have not
    rows = offset_rows(QUARTIC, 6, seed=4)
    monkeypatch.setattr(poly1d, "MAX_SWEEPS", 4)
    simultaneous_roots(rows[:2])
    with pytest.raises(ConvergenceError) as alone:
        simultaneous_roots(rows[2])
    with pytest.raises(ConvergenceError) as other:
        simultaneous_roots(rows[4])
    assert str(alone.value) != str(other.value)
    with pytest.raises(ConvergenceError) as batched:
        simultaneous_roots(rows[[0, 1, 2, 4]])
    assert str(batched.value) == str(alone.value)
    # too few sweeps: every row fails, the first one is named
    monkeypatch.setattr(poly1d, "MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError) as first:
        simultaneous_roots(rows[0])
    with pytest.raises(ConvergenceError) as batched:
        simultaneous_roots(rows[:3])
    assert str(batched.value) == str(first.value)


@pytest.mark.parametrize("roots", [[0.5j] * 3 + [1.0], [1j] * 3 + [-1.0],
                                   [0.3] * 4 + [2.0]],
                         ids=["triple-0.5i", "triple-i", "quadruple-0.3"])
def test_roots_near_a_multiple_root_return_at_rounding_level(roots):
    # the step test never fires near a multiple root; the sweeps run out
    # with every root's backward error at rounding level
    c = npp.polyfromroots(roots).astype(complex)
    z = simultaneous_roots(c)
    eps = np.finfo(float).eps
    scale = npp.polyval(np.abs(z), np.abs(c))
    assert np.all(np.abs(npp.polyval(z, c)) <= 4 * len(roots) * eps * scale)
    assert np.allclose(np.sort_complex(z), np.sort_complex(roots), atol=1e-3)
    # alone or in a batch with a row that converges early: the same bits
    batch = np.array([npp.polyfromroots(np.arange(len(roots)) + 1j), c])
    assert np.array_equal(simultaneous_roots(batch)[1], z)


def expanded_iterate(f, n):
    """Ascending coefficients of f^n(z) - z, f^n expanded by Horner in the
    coefficient ring."""
    cur = np.array([0.0, 1.0], dtype=complex)
    for _ in range(n):
        acc = np.array([1.0 + 0.0j])
        for coef in reversed(f.coeffs[:-1]):
            acc = npp.polymul(acc, cur)
            acc[0] += coef
        cur = acc
    return npp.polysub(cur, (0.0, 1.0))


def test_wandering_roots_still_raise():
    # the expanded basilica iterate f^6(z) - z: roots at rounding-level
    # backward error, but still moving by 3e-3 a sweep
    with pytest.raises(ConvergenceError, match=r"max residual 5\.564e\+00"):
        simultaneous_roots(expanded_iterate(BASILICA, 6))


def test_solve_offset_inverts():
    rng = np.random.default_rng(8)
    for f in (SQUARE, BASILICA, Poly((0.3, -0.2 + 0.1j, 0.0, 1.0))):
        ws = rng.normal(size=6) + 1j * rng.normal(size=6)
        roots = solve_offset(f, ws)
        assert roots.shape == (6, f.degree)
        err = np.abs(f(roots) - ws[:, None])
        assert float(err.max()) < 1e-8


def test_preimage_tree_full_shapes():
    tree = preimages(BASILICA, 1.0 + 0.2j, 5)
    assert [len(lv) for lv in tree.levels] == [1, 2, 4, 8, 16, 32]
    for k in range(1, 6):
        parents = BASILICA(tree.levels[k])
        # every child maps onto some entry of the previous level
        prev = tree.levels[k - 1]
        d = np.min(np.abs(parents[:, None] - prev[None, :]), axis=1)
        assert float(d.max()) < 1e-9
        # full mode: the parent of levels[k][i] is levels[k - 1][i // 2]
        residual = BASILICA(tree.levels[k]) - np.repeat(prev, tree.branching)
        assert float(np.max(np.abs(residual))) < 1e-9


def test_preimage_tree_sampled_shapes():
    tree = preimages(SQUARE, 2.0, 30, mode="sampled", k=64, rng_seed=3)
    assert all(len(lv) == 64 for lv in tree.levels[1:])
    t2 = preimages(SQUARE, 2.0, 30, mode="sampled", k=64, rng_seed=3)
    assert np.array_equal(tree.levels[-1], t2.levels[-1])


def test_preimage_cap():
    with pytest.raises(CapError):
        preimages(SQUARE, 1.0, 25)


def test_exceptional_points():
    assert exceptional_check(SQUARE, 0.0)        # backward orbit stays {0}
    assert not exceptional_check(SQUARE, 1.0)
    assert not exceptional_check(BASILICA, 0.0)
    assert not exceptional_check(Poly((-2.0, 0.0, 1.0)), 2.0)


def test_periodic_points_1d_square_map():
    reps, mult = periodic_points_1d(SQUARE, 2)
    assert int(mult.sum()) == 4
    got = np.sort_complex(np.repeat(reps, mult))
    want = np.sort_complex(np.roots([1, 0, 0, -1, 0]))  # z^4 - z
    assert np.max(np.abs(got - want)) < 1e-9


def _nearest(a, b):
    """max over a of the distance to the nearest point of b."""
    return max(float(np.max(np.min(np.abs(a[i:i + 256, None] - b[None, :]),
                                   axis=1)))
               for i in range(0, len(a), 256))


@pytest.mark.parametrize("n", range(1, 11))
def test_square_map_periodic_points_are_exact(n):
    # 0 and the (2^n - 1)-th roots of unity, each simple
    reps, mult = periodic_points_1d(SQUARE, n)
    want = np.concatenate([[0.0], np.exp(2j * math.pi
                                          * np.arange(2 ** n - 1)
                                          / (2 ** n - 1))])
    assert mult.tolist() == [1] * 2 ** n
    assert _nearest(reps, want) < 1e-12 and _nearest(want, reps) < 1e-12


def _max_periodic_residual(f, z, n):
    w = z
    for _ in range(n):
        w = f(w)
    return float(np.max(np.abs(w - z)))


@pytest.mark.parametrize("f, n", [(BASILICA, 6), (BASILICA, 8),
                                  (BASILICA, 10),
                                  (Poly((-0.12 + 0.75j, 0.0, 1.0)), 8),
                                  (CUBIC, 5)],
                         ids=["basilica-6", "basilica-8", "basilica-10",
                              "rabbit-8", "cubic-5"])
def test_periodic_points_past_the_expanded_iterate(f, n):
    # cases where Aberth on the expanded f^n(z) - z did not converge
    reps, mult = periodic_points_1d(f, n)
    assert int(mult.sum()) == f.degree ** n
    assert _max_periodic_residual(f, np.repeat(reps, mult), n) <= 1e-10


# z^2 + 1/4 loses 2 paths, z^2 - 3/4 one and z^2 - 2 two, which stall
# short of t = 1 and are polished there
@pytest.mark.parametrize("c, n, digest", [
    (c, n, pinned(f"test_poly1d.py::test_periodic_points_1d_pinned_bits"
                  f"[{c}-{n}]"))
    for c, n in [(0.25, 2), (0.25, 10), (-0.75, 10), (-2.0, 12), (-1.0, 8)]])
def test_periodic_points_1d_pinned_bits(c, n, digest):
    # pinned digests: no change to the path driver, the polish or the
    # matching of ends may move a bit of the points or multiplicities
    reps, mult = periodic_points_1d(Poly((c, 0.0, 1.0)), n)
    assert int(mult.sum()) == 2 ** n
    assert hashlib.sha256(reps.tobytes() + mult.tobytes()).hexdigest() \
        == digest


@pytest.mark.parametrize("n, want", [
    (1, [0.5, 0.5]), (2, [0.5, 0.5, -0.5 + 1j, -0.5 - 1j])])
def test_parabolic_periodic_points_are_complete(n, want):
    # z^2 + 1/4: the fixed point 1/2 is double; its two paths stall where
    # they meet, and their ends polish at the target
    reps, mult = periodic_points_1d(Poly((0.25, 0.0, 1.0)), n)
    got = np.repeat(reps, mult)
    assert len(got) == 2 ** n
    assert _nearest(got, np.array(want)) < 1e-6
    assert _nearest(np.array(want), got) < 1e-6


def test_ends_that_meet_at_a_simple_cycle_are_lost(monkeypatch):
    # every path of a period lands on its first path's cycle: the fixed
    # points and cycles are simple, so the extra ends are lost, not counted
    continue_cycles = cycles.continue_cycles

    def jumping(X, *args):
        X, *counters = continue_cycles(X, *args)
        return (np.repeat(X[:1], len(X), axis=0), *counters)

    # poly1d reads continue_cycles through cycles at call time
    monkeypatch.setattr(cycles, "continue_cycles", jumping)
    reps, mult = periodic_points_1d(BASILICA, 4)
    # one fixed point, one period-2 cycle and one period-4 cycle survive
    assert mult.tolist() == [1] * 7
    mu = brolin_measure(BASILICA, "periodic", 4)
    assert not mu.complete and mu.total_mass() == Fraction(7, 16)


def test_ends_that_meet_are_matched_as_cycles(monkeypatch):
    continue_cycles = cycles.continue_cycles
    land = {}

    def landing(X, *args):
        X, *counters = continue_cycles(X, *args)
        return (land.get(X.shape[1], lambda X: X)(X), *counters)

    monkeypatch.setattr(cycles, "continue_cycles", landing)
    # every path of a period lands on its first path's cycle, each at
    # another phase: the copies are one simple cycle, the rest are lost
    land.update(dict.fromkeys((1, 2, 4), lambda X: np.stack(
        [np.roll(X[0], i) for i in range(len(X))])))
    reps, mult = periodic_points_1d(BASILICA, 4)
    assert mult.tolist() == [1] * 7
    # the period-2 path lands on the fixed point (1 - sqrt 5)/2: its end
    # stands for two ends there, and they meet that point's own end at a
    # simple point, so the point keeps multiplicity 1
    q = (1.0 - math.sqrt(5.0)) / 2.0
    land.clear()
    land[2] = lambda X: np.full_like(X, q)
    reps, mult = periodic_points_1d(BASILICA, 2)
    assert mult.tolist() == [1, 1] and abs(reps[0] - q) < 1e-12


@pytest.mark.parametrize("n", [10, 12])
def test_chebyshev_periodic_points_are_complete(n):
    # z^2 - 2: 2^n simple points 2cos(2 pi k / (2^n -+ 1)), some near +-2
    # closer to one another than the matching tolerance, but on distinct
    # cycles.  Newton stops near 1e-10 of them, so 1e-9 is asked.
    reps, mult = periodic_points_1d(Poly((-2.0, 0.0, 1.0)), n)
    assert mult.tolist() == [1] * 2 ** n
    want = np.concatenate([2.0 * np.cos(2.0 * math.pi * np.arange(N) / N)
                           for N in (2 ** n - 1, 2 ** n + 1)])
    assert _nearest(reps, want) <= 1e-9 and _nearest(want, reps) <= 1e-9


def test_blocks_do_not_change_periodic_points(monkeypatch):
    whole = periodic_points_1d(BASILICA, 8)
    # one period-8 cycle, three of period 4, per block
    monkeypatch.setattr(cycles, "PATHS_BLOCK_ELEMS", 50)
    got = periodic_points_1d(BASILICA, 8)
    assert all(a.tobytes() == b.tobytes() and a.dtype == b.dtype
               for a, b in zip(got, whole))


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(st.lists(st.complex_numbers(max_magnitude=2.0), min_size=2,
                max_size=3),
       st.integers(1, 6))
def test_periodic_points_complete_or_short_never_padded(low, n):
    f = Poly(tuple(low) + (1.0,))
    d = f.degree
    reps, mult = periodic_points_1d(f, n)
    total = int(mult.sum())
    assert total <= d ** n
    assert brolin_measure(f, "periodic", n).complete == (total == d ** n)
    if total < d ** n:
        return
    # cyclic residual: f maps every point onto the set
    assert _nearest(f(reps), reps) <= 1e-10
    # the roots of f^n(z) - z sum to -d^(n-1) c_(d-1); a root counted
    # twice in place of a missing one moves the sum
    if d ** n >= 3:
        trace = np.sum(np.repeat(reps, mult))
        assert abs(trace + d ** (n - 1) * f.coeffs[-2]) <= 1e-6 * d ** n


def test_brolin_measure_preimage_mode():
    mu = brolin_measure(SQUARE, "preimage", 10, c=1.0)
    assert len(mu) == 1024
    assert mu.total_mass() == Fraction(1)
    assert mu.complete
    assert np.max(np.abs(np.abs(mu.points) - 1.0)) < 1e-12
    with pytest.raises(ContractError):
        brolin_measure(SQUARE, "preimage", 5, c=0.0)  # exceptional base
    with pytest.raises(ContractError):
        brolin_measure(SQUARE, "preimage", 5)


def test_brolin_measure_periodic_mode():
    mu = brolin_measure(SQUARE, "periodic", 6)
    assert mu.complete
    assert mu.total_mass() == Fraction(1)
    with pytest.raises(ContractError):
        brolin_measure(SQUARE, "orbit", 4)


def test_julia_render_points_deterministic_and_on_circle():
    pts, lvls = julia_render_points(SQUARE, 2.0, walks=256, depth=45,
                                    burn_in=24, rng_seed=5)
    p2, l2 = julia_render_points(SQUARE, 2.0, walks=256, depth=45,
                                 burn_in=24, rng_seed=5)
    assert np.array_equal(pts, p2) and np.array_equal(lvls, l2)
    assert lvls.min() == 25 and lvls.max() == 45
    # backward contraction puts every retained level within 1e-6 of |z| = 1
    assert np.max(np.abs(np.abs(pts) - 1.0)) < 1e-6
    with pytest.raises(ContractError):
        julia_render_points(SQUARE, 0.0, walks=8, depth=10)
