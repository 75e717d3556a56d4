import math
from fractions import Fraction

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest

from henonlab import poly1d
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


def test_iterate_coeffs_small_cases():
    c2 = SQUARE.iterate_coeffs(2)
    assert np.allclose(c2, [0, 0, 0, 0, 1])
    cb = BASILICA.iterate_coeffs(2)  # (z^2-1)^2 - 1 = z^4 - 2 z^2
    assert np.allclose(cb, [0, 0, -2, 0, 1])
    ev, dev = BASILICA.iter_eval(np.array([2.0 + 0j]), 2)
    assert abs(ev[0] - (2 ** 4 - 2 * 2 ** 2)) < 1e-12


def test_iterate_coeffs_cap():
    with pytest.raises(CapError):
        SQUARE.iterate_coeffs(13)  # 2^13 past the expansion cap


def test_simultaneous_roots_against_numpy():
    rng = np.random.default_rng(7)
    for deg in (2, 3, 4, 7, 11):
        for _ in range(10):
            c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            c[-1] = 1.0
            mine = np.sort_complex(simultaneous_roots(c))
            ref = np.sort_complex(np.roots(c[::-1]))
            assert np.max(np.abs(mine - ref)) < 1e-7


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


def test_solve_offset_empty_targets():
    for f in (BASILICA, CUBIC, QUARTIC):
        assert solve_offset(f, np.empty(0)).shape == (0, f.degree)


def test_batched_roots_name_first_failing_row():
    # at 4 sweeps rows 0 and 1 have converged and rows 2-5 have not
    rows = offset_rows(QUARTIC, 6, seed=4)
    simultaneous_roots(rows[:2], max_sweeps=4)
    with pytest.raises(ConvergenceError) as alone:
        simultaneous_roots(rows[2], max_sweeps=4)
    with pytest.raises(ConvergenceError) as other:
        simultaneous_roots(rows[4], max_sweeps=4)
    assert str(alone.value) != str(other.value)
    with pytest.raises(ConvergenceError) as batched:
        simultaneous_roots(rows[[0, 1, 2, 4]], max_sweeps=4)
    assert str(batched.value) == str(alone.value)
    # too few sweeps: every row fails, the first one is named
    with pytest.raises(ConvergenceError) as first:
        simultaneous_roots(rows[0], max_sweeps=1)
    with pytest.raises(ConvergenceError) as batched:
        simultaneous_roots(rows[:3], max_sweeps=1)
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


def test_wandering_roots_still_raise():
    # the expanded basilica iterate f^6(z) - z: roots at rounding-level
    # backward error, but still moving by 3e-3 a sweep
    with pytest.raises(ConvergenceError, match=r"max residual 5\.564e\+00"):
        periodic_points_1d(BASILICA, 6)


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
    assert tree.max_parent_residual(BASILICA) < 1e-9


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
