import cmath
import dataclasses
import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import henonlab.cycles as cycles
import henonlab.periodic2d as periodic2d
from henonlab.cycles import (DEDUP_TOL, SUM_SLACK, ClosureSystem,
                             cyclic_neighbours, matches, same_cycle,
                             solve_stack)
from henonlab.dynamics import (MapParams, derivative_along_orbit,
                               henon_apply, is_horseshoe_regime)
from henonlab.errors import ContractError
from henonlab.measures import TestBattery, compare
from henonlab.periodic2d import (_newton_cycles, _start_parameter,
                                 cylinder_point_measure,
                                 fixed_points_closed_form, mu_n_measure,
                                 negative_fixed_point, periodic_levels,
                                 periodic_points_2d, reality_conditions_report,
                                 reality_table, saddle_table,
                                 symbolic_orbit_seed, unstable_disk_sample)
from henonlab.symbolic import necklaces

HALTON_REF = (Path(__file__).resolve().parents[1]
              / "perfbench" / "refs" / "census_halton.json")


def test_closed_form_fixed_points_are_fixed():
    for a, b in [(10.0, 0.3), (3.0, -0.5), (1.4 + 0.2j, 0.3), (2.0, 1.0)]:
        m = MapParams(a, b)
        orbits = [o for o in fixed_points_closed_form(m) if o is not None]
        assert len(orbits) == 2
        for o in orbits:
            p = o.points[0]
            q = henon_apply(p, m)
            assert abs(q.x - p.x) < 1e-9 * (1 + abs(p.x) ** 2)
            assert abs(q.y - p.y) < 1e-9 * (1 + abs(p.y) ** 2)


def test_degenerate_fixed_point_flagged():
    # fixed-point discriminant (1+b)^2 + 4a vanishes
    b = 0.5
    a = -(1 + b) ** 2 / 4.0
    orbits = [o for o in fixed_points_closed_form(MapParams(a, b))
              if o is not None]
    assert len(orbits) == 1
    assert orbits[0].degenerate and orbits[0].multiplicity == 2


def test_census_counts_match_target(horseshoe_levels):
    for n, lv in horseshoe_levels.items():
        assert lv.complete
        assert lv.fixed_point_count == 2 ** n
        assert lv.paths_lost == 0 and lv.step_halvings == 0
        for o in lv.orbits:
            assert n % o.period == 0


def test_orbit_residuals_and_multipliers(horseshoe, horseshoe_levels):
    for n, lv in horseshoe_levels.items():
        for o in lv.orbits:
            assert o.residual <= 1e-9 * (1 + max(abs(p.x) for p in o.points) ** 2)
            lam = o.multiplier_eigenvalues
            assert abs(lam[0]) >= abs(lam[1])
            if o.period > 5:
                # eig noise ~eps*|lam1| swamps the tiny eigenvalue beyond this
                continue
            # |det Df^period| = |b|^period constrains the multiplier pair
            target = abs(horseshoe.b) ** o.period
            assert abs(abs(lam[0] * lam[1]) - target) < 1e-3 * target


def test_horseshoe_orbits_are_real_saddles(horseshoe_levels):
    for lv in horseshoe_levels.values():
        for o in lv.orbits:
            assert o.is_real
            assert max(max(abs(p.x.imag), abs(p.y.imag))
                       for p in o.points) <= 1e-7
            assert o.orbit_class == "saddle"


def _assert_no_duplicates(lv):
    # the scan over every pair of orbits is the reference here
    for i, a in enumerate(lv.orbits):
        for b in lv.orbits[:i]:
            assert not same_cycle(*([p.x for p in o.points] for o in (a, b)))
    pts = [(round(p.x.real, 5), round(p.x.imag, 5),
            round(p.y.real, 5), round(p.y.imag, 5))
           for o in lv.orbits for p in o.points]
    assert len(pts) == len(set(pts)) == lv.fixed_point_count


def test_no_duplicate_cycles(horseshoe_levels):
    for lv in horseshoe_levels.values():
        _assert_no_duplicates(lv)
    assert horseshoe_levels[6].fixed_point_count == 64
    # off the horseshoe: every orbit but the fixed points is continued
    continued = periodic_points_2d(MapParams(1.4, 0.3), 6)
    assert continued.complete
    _assert_no_duplicates(continued)


def _pairwise_matches(X):
    """The match relation of the rows of X by the scan over every pair,
    as `matches` gives it: row -> sorted matching rows, for rows that
    match one."""
    xs = np.asarray(X).tolist()
    near = {}
    for i, j in itertools.combinations(range(len(xs)), 2):
        if same_cycle(xs[i], xs[j]):
            near.setdefault(i, []).append(j)
            near.setdefault(j, []).append(i)
    return near


def _sorted(near):
    return {i: sorted(js) for i, js in near.items()}


def test_matches_agree_with_pairwise_scan():
    rng = np.random.default_rng(5)
    pool = [rng.uniform(-3.0, 3.0, size=(d, 2)) for d in (1, 2, 2, 3, 3, 3)]
    stacks = {}
    for _ in range(300):
        base = pool[int(rng.integers(len(pool)))]
        # jitter of up to 1.5 tolerances lands on both sides of the match
        # threshold
        arr = base + rng.uniform(-1.5, 1.5, size=base.shape) * DEDUP_TOL
        arr = np.roll(arr, int(rng.integers(len(arr))), axis=0)
        stacks.setdefault(len(arr), []).append(arr[:, 0] + 1j * arr[:, 1])
    linked = unlinked = 0
    for rows in stacks.values():
        want = _pairwise_matches(rows)
        assert _sorted(matches(np.array(rows))) == want
        linked += len(want)
        unlinked += len(rows) - len(want)
    assert linked > 50 and unlinked > 10  # both outcomes exercised


def _shadowing_cycles(m, n):
    """Real period-n cycles whose itineraries are long runs of 0 broken by
    one or two 1s: most of their points shadow the fixed point."""
    words = [[0] * n for _ in range(n // 2 + 1)]
    words[0][0] = 1
    for j, w in enumerate(words[1:], start=1):
        w[0] = w[j] = 1
    X, ok = _newton_cycles(m, symbolic_orbit_seed(m, np.array(words)))
    assert ok.all()
    return X


def test_matches_of_shadowing_cycles_agree_with_pairwise_scan(horseshoe):
    pool = _shadowing_cycles(horseshoe, 24)
    rng = np.random.default_rng(11)
    rows, bases = [], []
    for _ in range(150):
        bases.append(int(rng.integers(len(pool))))
        base = pool[bases[-1]]
        # copies within 0.9 tolerances of each other match; half the
        # copies move one point by 1 to 3 tolerances, which may or may not
        # leave them a match
        x = base + rng.uniform(-0.45, 0.45, size=base.shape) * DEDUP_TOL
        if rng.integers(2):
            x[int(rng.integers(len(x)))] += (
                rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 3.0) * DEDUP_TOL)
        # start anywhere on the cycle, mostly on a point near the fixed point
        rows.append(np.roll(x, int(rng.integers(len(x)))))
    want = _pairwise_matches(rows)
    assert _sorted(matches(np.array(rows))) == want
    # copies of one cycle that match, and ones that do not
    pairs = sum(map(len, want.values())) // 2
    copies = sum(c * (c - 1) // 2 for c in np.bincount(bases))
    assert 100 < pairs < copies - 100


def test_matches_at_the_edges_of_the_sum_interval(monkeypatch,
                                                   horseshoe_levels):
    base = np.array([p.x for p in next(
        o for o in horseshoe_levels[3].orbits if o.period == 3).points])
    d = len(base)
    # the half-width of base's interval, as it is for any copy moved by
    # a few tolerances
    reach = d * DEDUP_TOL + d * SUM_SLACK * np.abs(base.real).sum()
    compared = []
    same = cycles.same_cycle

    def spy(xa, xb, tol=DEDUP_TOL):
        compared.append((xa, xb))
        return same(xa, xb, tol)

    monkeypatch.setattr(cycles, "same_cycle", spy)
    for move, match, meets in [
            # the copy's sum just inside base's interval, and just outside
            (reach / d * (1.0 - 1e-6), True, True),
            (reach / d * (1.0 + 1e-6), False, True),
            # the two intervals just overlap, and just miss
            (2.0 * reach / d * (1.0 - 1e-6), False, True),
            (2.0 * reach / d * (1.0 + 1e-6), False, False)]:
        compared.clear()
        copy = np.roll(base + move, 1)
        assert matches(np.stack([base, copy])) == (
            {0: [1], 1: [0]} if match else {})
        assert bool(compared) == meets


def test_matches_survive_huge_coordinates():
    X = np.array([[1e305 + 0j], [1e305 + 0j], [-1e305 + 0j]])
    assert matches(X) == {0: [1], 1: [0]}
    # sums past double range, and nan, span the line: every pair is scanned
    X = np.array([[1e308, 1e308], [1e308, 1e308], [-1e308, -1e308],
                  [1.0, 2.0], [2.0, 1.0], [np.nan, 1.0]], dtype=complex)
    want = _pairwise_matches(X)
    assert want == {0: [1], 1: [0], 3: [4], 4: [3]}
    assert _sorted(matches(X)) == want


def test_symbolic_seed_matches_itinerary(horseshoe):
    for bits in necklaces(5):
        x = symbolic_orbit_seed(horseshoe, bits)
        assert x.shape == (5,)
        signs = tuple(0 if v.real < 0 else 1 for v in x)
        assert signs == bits
        # shadowing residual: x_{j}^2 + x_{j+1} + b x_{j-1} - a ~ 0
        res = x * x - horseshoe.a + np.roll(x, -1) + horseshoe.b * np.roll(x, 1)
        assert float(np.max(np.abs(res))) < 1e-10


def test_stacked_seeds_match_lone_seeds(horseshoe):
    bits = np.array(list(necklaces(7)))
    stack = symbolic_orbit_seed(horseshoe, bits)
    assert stack.shape == (len(bits), 7)
    for row, word in zip(stack, bits):
        assert np.array_equal(row, symbolic_orbit_seed(horseshoe, tuple(word)))


def ref_cycle_jacobian(x, b):
    """The n x n closure Jacobian of one cycle, entry by entry."""
    n = len(x)
    A = np.zeros((n, n), dtype=complex)
    for j in range(n):
        A[j, j] = -2.0 * x[j]
        A[j, (j - 1) % n] += -b
        A[j, (j + 1) % n] += -1.0
    return A


def ref_newton_cycle(m, x0):
    """The one-cycle damped Newton loop the stacked kernel replaced, on the
    closure system in x alone."""
    x = np.array(x0, dtype=complex)

    def defect(v):
        return -v * v + m.a - m.b * np.roll(v, 1) - np.roll(v, -1)

    for _ in range(60):
        if not np.all(np.isfinite(x)):
            return None
        F = defect(x)
        n_f = float(np.max(np.abs(F)))
        scale = 1.0 + float(np.max(np.abs(x))) ** 2
        if n_f < 1e-12 * scale:
            return x
        try:
            delta = np.linalg.solve(ref_cycle_jacobian(x, m.b), F)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(delta)):
            return None
        step = 1.0
        for _ in range(20):
            y = x - step * delta
            if (np.all(np.isfinite(y))
                    and float(np.max(np.abs(defect(y)))) < n_f):
                x = y
                break
            step *= 0.5
        else:
            return None
    return None


def ref_interleaved_jacobian(X, b):
    """The 2n x 2n Jacobian of the closure system in (x_j, y_j), unknowns
    interleaved, that the census solved before it ran in x alone."""
    d = X.shape[-1]
    dim = 2 * d
    rows = np.arange(d)
    A = np.zeros(X.shape[:-1] + (dim, dim), dtype=complex)
    A[..., 2 * rows, 2 * rows] = -2.0 * X
    A[..., 2 * rows, 2 * rows + 1] = -b
    A[..., 2 * rows + 1, 2 * rows] = 1.0
    A[..., 2 * rows, (2 * rows + 2) % dim] += -1.0
    A[..., 2 * rows + 1, (2 * rows + 3) % dim] += -1.0
    return A


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_x_only_newton_step_matches_interleaved_system(n):
    # on a cycle with y_j = x_{j-1}, the Newton step of the (x, y) system
    # has dy_j = dx_{j-1}, and its dx solves the n x n system in x alone
    rng = np.random.default_rng(n)
    m = MapParams(1.4 + 0.2j, 0.3 - 0.1j)
    X = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
    nxt, prv = cyclic_neighbours(n)
    Y = X[:, prv]
    F2 = np.stack([-X * X + m.a - m.b * Y - X[:, nxt], X - Y[:, nxt]],
                  axis=-1).reshape(5, 2 * n)
    full = np.linalg.solve(ref_interleaved_jacobian(X, m.b),
                           F2[..., None])[..., 0].reshape(5, n, 2)
    system = ClosureSystem(np.full(5, n), n, m.b)
    reduced = solve_stack(system.jacobian(-2.0 * X),
                          system.defect(X, -X * X + m.a))
    assert np.allclose(full[..., 0], reduced, rtol=1e-12, atol=1e-12)
    assert np.allclose(full[..., 1], reduced[:, prv], rtol=1e-12,
                       atol=1e-12)


def _assert_rows_match_lone_runs(m, P):
    Q, ok = _newton_cycles(m, P)
    with np.errstate(all="ignore"):
        for j in range(len(P)):
            Qj, okj = _newton_cycles(m, P[j:j + 1])
            assert ok[j] == okj[0]
            assert np.array_equal(Q[j], Qj[0], equal_nan=True)
            ref = ref_newton_cycle(m, P[j])
            if ok[j]:
                assert np.array_equal(ref, Q[j])
            else:
                assert ref is None
    return ok


def ref_build_orbit(points, m, multiplicity=1, degenerate=False):
    """The one-orbit assembly the stacked pass replaced: Python complex
    residual, `derivative_along_orbit`, one eigvals per orbit.  Returns the
    orbit and its monodromy, or (None, None) past the residual gate."""
    d = len(points)
    resid = 0.0
    for j, p in enumerate(points):
        q = points[(j + 1) % d]
        fx = -p.x * p.x + m.a - m.b * p.y
        resid = max(resid, abs(fx - q.x), abs(p.x - q.y))
    scale = 1.0 + max(max(abs(p.x), abs(p.y)) for p in points) ** 2
    if resid > 1e-9 * scale:
        return None, None
    J = derivative_along_orbit(points, m)
    eigs = np.linalg.eigvals(J)
    order = np.lexsort((eigs.imag, eigs.real, np.abs(eigs)))[::-1]
    eigs = tuple(complex(v) for v in eigs[order])
    moduli = [abs(v) for v in eigs]
    if any(abs(mod - 1.0) <= periodic2d.UNIT_BAND for mod in moduli):
        cls = "nonhyperbolic"
    elif all(mod < 1.0 for mod in moduli):
        cls = "sink"
    elif all(mod > 1.0 for mod in moduli):
        cls = "source"
    else:
        cls = "saddle"
    is_real = all(abs(p.x.imag) < periodic2d.REALITY_TOL
                  and abs(p.y.imag) < periodic2d.REALITY_TOL for p in points)
    return periodic2d.PeriodicOrbit(tuple(points), d, eigs, cls, is_real,
                                    resid, multiplicity, degenerate), J


def _bits(orb):
    """Every field of an orbit, floats as their bytes (-0.0 != 0.0)."""
    return (np.array(orb.points, dtype=complex).tobytes(), orb.period,
            np.array(orb.multiplier_eigenvalues).tobytes(), orb.orbit_class,
            orb.is_real, float(orb.residual).hex(), orb.multiplicity,
            orb.degenerate)


ASSEMBLY_LEVELS = (
    [((10.0, 0.3), n, 2048) for n in range(1, 12)]
    + [((1.4, 0.3), n, 2048) for n in range(1, 8)]
    + [((1.2 + 0.5j, 0.3 - 0.1j), 6, 2048)]
    + [((0.1, 0.3), n, 2048) for n in range(1, 4)]
    + [((3.0, 1.0), 2, 64), ((10.0, 0.3), 9, 40)])


def test_stacked_assembly_matches_lone_orbits():
    # census orbits come from one stacked pass per block; each must be bit
    # for bit the orbit the per-orbit assembly builds from its points, and
    # the reality table's conditions those of derivative_along_orbit
    seen = set()
    for (a, b), n, budget in ASSEMBLY_LEVELS:
        m = MapParams(a, b)
        lv = periodic_points_2d(m, n, budget=budget)
        seen.add((lv.complete, lv.paths_lost > 0))
        worst = 0.0
        for o in lv.orbits:
            ref, J = ref_build_orbit(o.points, m, o.multiplicity,
                                     o.degenerate)
            assert _bits(o) == _bits(ref)
            assert o.monodromy.tobytes() == J.tobytes()
            if o.period == n:
                worst = max(worst, float(np.linalg.cond(J - np.eye(2))))
        if m.a.imag == 0.0 and m.b.imag == 0.0:
            row, = reality_table(m, [lv]).rows
            assert row.worst_condition.hex() == worst.hex()
    # complete levels, a lost path and a budget shortfall all ran
    assert seen == {(True, False), (False, True), (False, False)}


def _orbits_digest(orbits):
    """sha256 over every field of the orbits, monodromy included."""
    h = hashlib.sha256()
    for o in orbits:
        h.update(repr(_bits(o) + (o.monodromy.tobytes(),)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("a, b, ns, digest", [
    (10.0, 0.3, range(1, 9),
     "3b5146c08c9c18192ee773868a70504fb771d33a04bbe5db4d4290f7517ff87a"),
    (1.4, 0.3, range(1, 7),
     "3df1cd2648d97e3a7d54d4d7e130be49199308d8fcffa87abe5bd9cbfd7ccd87"),
    # fixed-point discriminant 0: one degenerate orbit of multiplicity 2
    (-0.5625, 0.5, [1],
     "48d00613714fe1342e44356ca16dfb1db4c3f086e51a610842a363d5e0c9da95"),
], ids=["horseshoe", "continued", "degenerate"])
def test_level_orbits_match_object_census(a, b, ns, digest):
    # the digests were taken from the census that built PeriodicOrbits as
    # it admitted them: the orbits built from the columns on access are
    # those, field by field and every monodromy byte
    m = MapParams(a, b)
    levels = periodic_levels(m, ns)
    orbits = [o for lv in levels for o in lv.orbits]
    assert _orbits_digest(orbits) == digest
    for lv in levels:
        assert lv.orbits is lv.orbits  # built once
        for o in lv.orbits:
            assert isinstance(o.multiplicity, int)
            assert isinstance(o.is_real, bool)
            assert not o.monodromy.flags.writeable
    if len(ns) == 1:
        assert _orbits_digest(fixed_points_closed_form(m)) == digest
        assert levels[0].orbits[0].degenerate


def _ref_minimal_period(x, n):
    """The least d | n with x shifted by d within DEDUP_TOL of x."""
    for d in range(1, n):
        if n % d == 0 and all(abs(x[j] - x[(j + d) % n]) <= DEDUP_TOL
                              for j in range(n)):
            return d
    return n


def _matches_kept(x, kept):
    """Does the cycle x match a kept one under some shift, pairwise?"""
    K = np.array([k for k in kept if len(k) == len(x)]).reshape(-1, 1, len(x))
    shifts = np.array([np.roll(x, -s) for s in range(len(x))])
    return bool(np.any(np.all(np.abs(K - shifts) <= DEDUP_TOL, axis=2)))


def _ref_census(m, n, offered, stop):
    """One level's census on its own, by the pairwise scan: the closed-form
    fixed points, then each offered cycle (polished at its own period, or
    None where Newton failed) in order, until the level is complete if
    `stop`.  A cycle below its period is re-polished there alone.  Returns
    the level and the x of each cycle kept."""
    passed, fixed = periodic2d._fixed_points(m)
    parts, kept = [fixed], [[x] for x in fixed.x.tolist()]
    count = int(fixed.multiplicity.sum())
    counts = dict(attempts=0, lower_period=0, duplicates=0,
                  residual_rejected=int(np.count_nonzero(~passed)))
    for x in offered:
        if stop and count >= 2 ** n:
            break
        counts["attempts"] += 1
        if x is None:
            continue
        d = _ref_minimal_period(x.tolist(), len(x))
        if d < len(x):
            counts["lower_period"] += 1
            X, ok = _newton_cycles(m, x[None, :d])
            if not ok[0]:
                continue
            x = X[0]
        passed, cols = periodic2d._assemble(m, x[None])
        if not passed[0]:
            counts["residual_rejected"] += 1
        elif _matches_kept(x, kept):
            counts["duplicates"] += 1
        else:
            kept.append(x.tolist())
            parts.append(cols)
            count += len(x)
    cols = periodic2d.OrbitColumns(*map(np.concatenate, zip(*parts)))
    return periodic2d.PeriodicLevel(n, cols, count, count >= 2 ** n,
                                    **counts), kept


def _ref_itinerary_level(m, n, budget):
    """A horseshoe level on its own: one seed per necklace of length n,
    polished at period n."""
    words = np.array(list(itertools.islice(necklaces(n), budget)))
    X, ok = _newton_cycles(m, periodic2d.symbolic_orbit_seed(m, words))
    return _ref_census(m, n, [x if good else None
                              for x, good in zip(X, ok)], stop=True)


def _ref_continued_levels(m, ns, budget):
    """Levels off the horseshoe, each start level on its own: a start
    cycle matching one of an earlier level is the same path."""
    a0 = _start_parameter(m.b)
    starts, paths = [], []
    for n in ns:
        ids = []
        for x in _ref_itinerary_level(MapParams(a0, m.b), n, budget)[1]:
            if len(x) > 1:
                i = next((i for i, s in enumerate(starts)
                          if same_cycle(x, s)), len(starts))
                starts[i:i + 1] = [starts[i] if i < len(starts) else x]
                ids.append(i)
        paths.append(ids)
    periods = np.array([len(x) for x in starts], dtype=np.int64)
    X0 = np.zeros((len(starts), max(periods, default=1)), dtype=complex)
    for i, x in enumerate(starts):
        X0[i, :len(x)] = x
    first, second = ([(a0, m.a, kappa)] for kappa in periodic2d.DETOURS)
    X, reached, _, halvings, accepted = cycles.continue_cycles(
        X0, periodic2d.QUADRATIC, first, m.b, periods)
    retried = ~reached
    if retried.any():
        again = cycles.continue_cycles(
            X0[retried], periodic2d.QUADRATIC, second, m.b,
            periods[retried])
        X[retried], reached[retried] = again[:2]
        halvings[retried] += again[3]
        accepted[retried] += again[4]
    ends = []
    for x, d, r in zip(X, periods, reached):
        Q, ok = _newton_cycles(m, x[None, :d])
        ends.append(Q[0] if r and ok[0] else None)
    return [dataclasses.replace(
        _ref_census(m, n, [ends[i] for i in ids], stop=False)[0],
        paths_lost=int(np.count_nonzero(~reached[ids])),
        step_halvings=int(halvings[ids].sum()),
        paths_retried=int(np.count_nonzero(retried[ids])),
        steps_accepted=int(accepted[ids].sum())) for n, ids in zip(ns, paths)]


def _ref_levels(m, ns, budget=2048):
    if is_horseshoe_regime(m):
        return [_ref_itinerary_level(m, n, budget)[0] for n in ns]
    return _ref_continued_levels(m, ns, budget)


def _assert_levels_equal(got, want):
    assert len(got) == len(want)
    for lv, ref in zip(got, want):
        assert lv == ref
        assert lv.columns.monodromy.tobytes() == ref.columns.monodromy.tobytes()


@pytest.mark.parametrize("a, b", [(10.0, 0.3), (6.0, -0.3), (10.0, 0.3j),
                                  (20.0, 1.0), (5.0 + 1.0j, 0.2),
                                  (30.0, 0.01)])
def test_levels_match_sequential_reference(a, b):
    # one census for levels 1-10, each primitive cycle polished once at its
    # minimal period, against each level on its own, polished at n
    m = MapParams(a, b)
    assert is_horseshoe_regime(m)
    for budget in (1, 2, 3, 5, 17, 2048):
        _assert_levels_equal(periodic_levels(m, range(1, 11), budget),
                             _ref_levels(m, range(1, 11), budget))


@pytest.mark.parametrize("a, b, n, gate_period, counts", [
    (10.0, 0.3, 8, None, (5, 0, 1)),
    (1.4, 0.3, 6, None, (0, 0, 0)),
    # period-3 rows pushed past the residual gate
    (1.4, 0.3, 6, 3, (0, 2, 0)),
], ids=["horseshoe", "continued", "continued-gate"])
def test_census_counters_match_pairwise_reference(monkeypatch, a, b, n,
                                                  gate_period, counts):
    residual = periodic2d._closure_residual

    def gated(X, a_, b_):
        # only at the target: the start level keeps its period-3 cycles
        r = residual(X, a_, b_)
        return r + 1.0 if (X.shape[1], a_) == (gate_period, a) else r

    monkeypatch.setattr(periodic2d, "_closure_residual", gated)
    m = MapParams(a, b)
    lv = periodic_points_2d(m, n)
    assert (lv.lower_period, lv.residual_rejected, lv.duplicates) == counts
    _assert_levels_equal([lv], _ref_levels(m, [n]))
    assert lv.complete == (gate_period is None)


@pytest.mark.parametrize("a, b, top", [(10.0, 0.3, 8), (1.4, 0.3, 6)])
def test_forced_lower_period_cycles_match_reference(monkeypatch, a, b, top):
    # the itinerary 0001 (and its powers) seeded on the period-2 cycle 01:
    # Newton keeps it there, so its cycle is re-polished at period 2 and
    # checked against the level's own period-2 cycles, where 0101 then
    # finds it
    seed = periodic2d.symbolic_orbit_seed

    def forced(m, bits, periods=None):
        x = seed(m, bits, periods)
        rows = np.atleast_2d(np.asarray(bits))
        for i, row in enumerate(rows):
            d = rows.shape[1] if periods is None else periods[i]
            if d % 4 == 0 and row[:d].tolist() == [0, 0, 0, 1] * (d // 4):
                x.reshape(rows.shape)[i, :d] = seed(m, [0, 1] * (d // 2))
        return x

    monkeypatch.setattr(periodic2d, "symbolic_orbit_seed", forced)
    m = MapParams(a, b)
    levels = periodic_levels(m, range(1, top + 1))
    _assert_levels_equal(levels, _ref_levels(m, range(1, top + 1)))
    # level 4 finds 0000, 0001, 0101 and 1111 below period 4, the period-2
    # cycle once, and falls one period-4 cycle short
    four = levels[3]
    assert four.fixed_point_count == 12 and not four.complete
    if is_horseshoe_regime(m):
        assert (four.lower_period, four.duplicates) == (4, 3)


def test_orbit_monodromy_is_read_only_and_out_of_eq(horseshoe,
                                                    horseshoe_levels):
    o = horseshoe_levels[3].orbits[-1]
    assert not o.monodromy.flags.writeable
    with pytest.raises(ValueError):
        o.monodromy[0, 0] = 0.0
    bare = periodic2d.PeriodicOrbit(*(getattr(o, f) for f in (
        "points", "period", "multiplier_eigenvalues", "orbit_class",
        "is_real", "residual", "multiplicity", "degenerate")))
    assert bare.monodromy is None
    assert bare == o and hash(bare) == hash(o) and repr(bare) == repr(o)
    # the level's monodromy column is read-only too, and out of its ==
    lv = horseshoe_levels[3]
    assert not lv.columns.monodromy.flags.writeable
    other = dataclasses.replace(lv, columns=lv.columns._replace(
        monodromy=np.zeros_like(lv.columns.monodromy)))
    assert other == lv
    assert dataclasses.replace(lv, duplicates=lv.duplicates + 1) != lv


def test_stacked_newton_rows_match_lone_runs(horseshoe):
    # period 1 at b = 0.5: the Jacobian -2x - b - 1 is exactly singular at
    # x = -0.75, and one ulp away its huge finite step fails the line
    # search at every one of the 20 halvings
    m = MapParams(10.0, 0.5)
    near = -0.75 + 2.0 ** -52
    A = ClosureSystem([1, 1], 1, m.b).jacobian(
        -2.0 * np.array([[-0.75 + 0j], [near + 0j]]))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(A[0], np.ones(1))
    assert np.all(np.isfinite(np.linalg.solve(A[1], np.ones(1))))
    starts = np.array([[-3.0], [-0.75], [2.4], [near], [np.nan], [-4.2]],
                      dtype=complex)
    ok = _assert_rows_match_lone_runs(m, starts)
    assert ok.tolist() == [True, False, True, False, False, True]
    # itinerary seeds pushed off their cycles, rows converging at
    # different iterations, plus a non-finite row in the middle
    rng = np.random.default_rng(3)
    seeds = symbolic_orbit_seed(horseshoe, np.array(list(necklaces(6))))
    seeds = seeds + 0.3 * rng.standard_normal(seeds.shape)
    seeds[4, 2] = complex(math.inf, 0.0)
    ok = _assert_rows_match_lone_runs(horseshoe, seeds)
    assert ok.tolist() == [j != 4 for j in range(len(seeds))]


def test_itinerary_blocks_do_not_change_orbits(monkeypatch, horseshoe):
    whole = periodic_points_2d(horseshoe, 7)
    # three period-7 cycles, 7^2 = 49 entries each, per block
    monkeypatch.setattr(cycles, "PATHS_BLOCK_ELEMS", 150)
    assert periodic_points_2d(horseshoe, 7) == whole


def test_itinerary_level_seeds_once(monkeypatch, horseshoe):
    calls = {"seed": [], "fixed": 0, "assemble": []}
    seed = periodic2d.symbolic_orbit_seed
    fixed = periodic2d._fixed_points
    assemble = periodic2d._assemble

    def counting_seed(m, bits, *args, **kwargs):
        calls["seed"].append(np.shape(bits))
        return seed(m, bits, *args, **kwargs)

    def counting_fixed(m):
        calls["fixed"] += 1
        return fixed(m)

    def counting_assemble(m, X, *args, **kwargs):
        calls["assemble"].append(np.shape(X)[1])
        return assemble(m, X, *args, **kwargs)

    monkeypatch.setattr(periodic2d, "symbolic_orbit_seed", counting_seed)
    monkeypatch.setattr(periodic2d, "_fixed_points", counting_fixed)
    monkeypatch.setattr(periodic2d, "_assemble", counting_assemble)
    lv = periodic_points_2d(horseshoe, 8)
    # the roots of the 36 necklaces: 2 of period 1, 1 of 2, 3 of 4, 30 of 8
    assert lv.complete and calls["seed"] == [(36, 8)]
    assert calls["fixed"] == 1 and calls["assemble"] == [1, 1, 2, 4, 8]
    for key in calls:
        calls[key] = [] if key != "fixed" else 0
    # levels 1-8 together: one padded seed sweep over the 71 distinct
    # roots, the fixed points once, one assembly per period
    levels = periodic_levels(horseshoe, range(1, 9))
    assert all(lv.complete for lv in levels)
    assert calls["seed"] == [(71, 8)] and calls["fixed"] == 1
    assert calls["assemble"] == [1, *range(1, 9)]


def test_padded_seeds_match_lone_seeds():
    # itineraries of periods 1-9 in one stack padded to 9 slots: each row's
    # first slots hold its lone seed, bit for bit, its padded slots 0
    words = [w for n in range(1, 10) for w in necklaces(n)][::3]
    periods = np.array([len(w) for w in words])
    bits = np.zeros((len(words), 9), dtype=np.int8)
    for i, w in enumerate(words):
        bits[i, :len(w)] = w
    for m in (MapParams(10.0, 0.3), MapParams(5.0 + 1.0j, 0.2)):
        stack = symbolic_orbit_seed(m, bits, periods=periods)
        assert stack.shape == bits.shape
        for row, w in zip(stack, words):
            assert row[:len(w)].tobytes() == \
                symbolic_orbit_seed(m, w).tobytes()
            assert np.all(row[len(w):] == 0.0)


def test_enumeration_rejects_bad_inputs(horseshoe):
    with pytest.raises(ContractError):
        periodic_points_2d(horseshoe, 0)
    with pytest.raises(ContractError):
        periodic_points_2d(horseshoe, 3, budget=0)
    # off the horseshoe, both entries check before any continuation
    off = MapParams(1.4, 0.3)
    for call in (lambda: periodic_points_2d(off, 0),
                 lambda: periodic_points_2d(off, 3, budget=0),
                 lambda: periodic_levels(off, [2, 0]),
                 lambda: periodic_levels(off, [2], budget=0),
                 lambda: periodic_levels(horseshoe, [2, 0])):
        with pytest.raises(ContractError):
            call()


def test_incomplete_census_is_flagged():
    m = MapParams(3.0, -0.5)  # not a horseshoe: no symbolic seeding
    lv = periodic_points_2d(m, 6, budget=2)
    assert not lv.complete
    assert lv.fixed_point_count < 64
    assert lv.attempts <= 2


@pytest.mark.parametrize("a, b", [(1.4, 0.3), (10.0, 0.3)])
def test_newton_converges_to_a_fixed_point(a, b):
    # at period 1 both wrap-around Jacobian entries land on the diagonal
    m = MapParams(a, b)
    x = min((o.points[0].x for o in fixed_points_closed_form(m)),
            key=lambda v: v.real)
    X, ok = _newton_cycles(m, [[x + 1e-3]])
    assert ok[0] and abs(X[0, 0] - x) < 1e-12


@pytest.mark.parametrize("a, b, n", [(1.4, 0.3, 9), (1.4, 0.3, 10),
                                     (1.0, 0.3, 10),
                                     (1.2 + 0.5j, 0.3 - 0.1j, 6)])
def test_continued_census_is_complete(a, b, n):
    m = MapParams(a, b)
    assert not is_horseshoe_regime(m)
    lv = periodic_points_2d(m, n)
    assert lv.complete and lv.fixed_point_count == 2 ** n
    assert lv.paths_lost == 0
    assert lv.attempts == sum(1 for o in lv.orbits if o.period > 1)
    for o in lv.orbits:
        assert n % o.period == 0
        assert o.residual <= 1e-9 * (1 + max(abs(p.x) for p in o.points) ** 2)
    _assert_no_duplicates(lv)


def _parameter(re, im, radius):
    # a: real, or complex with im in `im`; b: real of either sign, or complex
    a = st.builds(complex, re, st.just(0.0) | im)
    b = (st.builds(lambda r, sign: sign * r, radius, st.sampled_from([-1, 1]))
         | st.builds(lambda r, t: r * cmath.exp(1j * t), radius,
                     st.floats(-math.pi, math.pi)))
    return st.tuples(a, b)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(_parameter(st.floats(-1e6, -10.0), st.floats(-1e3, 1e3),
                  st.floats(0.01, 0.9))
       | _parameter(st.floats(-0.1, 0.1), st.floats(-0.1, 0.1),
                    st.floats(2.0, 1e3)))
def test_far_parameters_come_out_complete(ab):
    # a long continuation path leaves the real line only if its detour
    # grows with it: with a fixed kappa (-1e4, 0.3) and (1.4, 1e3) came
    # out with 2 of 2^n points from level 2 on
    levels = periodic_levels(MapParams(*ab), range(1, 7))
    assert [lv.fixed_point_count for lv in levels] == [2 ** n
                                                       for n in range(1, 7)]
    assert all(lv.complete and lv.paths_lost == 0 for lv in levels)


def _cycles(level) -> list:
    """The x-sequence of each cycle of a level's columns, in order."""
    c = level.columns
    return [c.x[s:s + d] for s, d in zip(c.starts().tolist(),
                                        c.period.tolist())]


def _conjugate_match(cycles, others, scale) -> list:
    """For each cycle, the indices of the others that its conjugate
    matches under `same_cycle`, within 1e-8 relative to scale."""
    return [[k for k, y in enumerate(others)
             if same_cycle((np.conj(x) / scale).tolist(),
                           (y / scale).tolist(), tol=1e-8)]
            for x in cycles]


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(st.builds(complex, st.floats(-2.0, 12.0), st.floats(-3.0, 3.0)),
       st.builds(complex, st.floats(-0.9, 0.9), st.floats(-0.5, 0.5))
       .filter(lambda b: b != 0))
def test_census_of_the_conjugate_map_is_the_conjugate_census(a, b):
    # complex conjugation conjugates the map at (a, b) to the map at
    # (conj a, conj b): its census holds the conjugate cycles one to one,
    # with the same classes, reality flags, multiplicities and verdicts
    levels = periodic_levels(MapParams(a, b), range(1, 7))
    mirror = periodic_levels(MapParams(a.conjugate(), b.conjugate()),
                             range(1, 7))
    for lv, mv in zip(levels, mirror):
        assert (lv.complete, lv.fixed_point_count) == (mv.complete,
                                                       mv.fixed_point_count)
        for saddles in (False, True):
            assert (lv.minimal_point_count(saddles)
                    == mv.minimal_point_count(saddles))
        cycles, others = _cycles(lv), _cycles(mv)
        assert len(cycles) == len(others)
        scale = max(1.0, np.max(np.abs(lv.columns.x)),
                    np.max(np.abs(mv.columns.x)))
        hits = _conjugate_match(cycles, others, scale)
        assert all(len(h) == 1 for h in hits)
        pair = [h[0] for h in hits]
        assert sorted(pair) == list(range(len(others)))
        for col in ("orbit_class", "is_real", "multiplicity"):
            assert np.array_equal(getattr(lv.columns, col),
                                  getattr(mv.columns, col)[pair])


def test_real_census_is_closed_under_conjugation():
    # at real (a, b) = (1.4, 0.3) each level's cycle set is its own
    # conjugate
    for lv in periodic_levels(MapParams(1.4, 0.3), range(1, 8)):
        cycles = _cycles(lv)
        scale = max(1.0, np.max(np.abs(lv.columns.x)))
        assert all(len(h) == 1
                   for h in _conjugate_match(cycles, cycles, scale))


def test_continued_census_matches_halton_reference():
    # levels 1-7 at (1.4, 0.3) as Halton seeding once found them, with the
    # benchmark checker's both-ways match at ORBIT_MATCH_TOL = 1e-7
    ref = json.loads(HALTON_REF.read_text())["jobs"]["halton"]["orbit_set"]
    m = MapParams(1.4, 0.3)
    assert sorted(ref, key=int) == [str(n) for n in range(1, 8)]
    for n in range(1, 8):
        c = periodic_points_2d(m, n).columns
        y = c.y()
        got = np.stack([c.x.real, c.x.imag, y.real, y.imag], axis=1)
        want = np.array(ref[str(n)])
        assert got.shape == want.shape
        dist = np.max(np.abs(want[:, None, :] - got[None, :, :]), axis=2)
        tol = 1e-7 * (1.0 + np.max(np.abs(want)))
        assert np.max(np.min(dist, axis=0)) <= tol
        assert np.max(np.min(dist, axis=1)) <= tol


def test_path_blocks_do_not_change_orbits(monkeypatch):
    m = MapParams(1.4, 0.3)
    whole = periodic_points_2d(m, 6)
    # at most two period-6 paths, 6^2 = 36 entries each, per block
    monkeypatch.setattr(cycles, "PATHS_BLOCK_ELEMS", 75)
    assert periodic_points_2d(m, 6) == whole


@pytest.mark.parametrize("a, b, top", [(1.4, 0.3, 7),
                                       (1.2 + 0.5j, 0.3 - 0.1j, 6)])
def test_levels_built_together_match_lone_levels(a, b, top):
    # a cycle shared by several start levels is continued once, from the
    # lowest level's copy: the same census, up to rounding, and each level
    # still counts the steps of all its own paths
    m = MapParams(a, b)
    together = periodic_levels(m, range(1, top + 1))
    assert [lv.n for lv in together] == list(range(1, top + 1))
    for lv in together:
        lone = periodic_points_2d(m, lv.n)
        for f in ("fixed_point_count", "complete", "attempts", "paths_lost",
                  "paths_retried", "step_halvings", "steps_accepted"):
            assert getattr(lv, f) == getattr(lone, f)
        assert [o.period for o in lv.orbits] == \
            [o.period for o in lone.orbits]
        for o, ref in zip(lv.orbits, lone.orbits):
            x = np.array([q.x for q in o.points])
            y = np.array([q.x for q in ref.points])
            assert np.max(np.abs(x - y)) <= 1e-10 * (
                1.0 + np.max(np.abs(x)) ** 2)


def test_levels_continue_each_cycle_once(monkeypatch):
    # levels 1-7 at (1.4, 0.3) start from 43 cycles of period >= 2, 39 of
    # them distinct: one call, one row each, run on the first detour alone
    calls = []
    run = periodic2d.continue_cycles

    def counting(X, family, detours, *args):
        out = run(X, family, detours, *args)
        calls.append((len(X), detours[0][2], int(out[2].max())))
        return out

    monkeypatch.setattr(periodic2d, "continue_cycles", counting)
    levels = periodic_levels(MapParams(1.4, 0.3), range(1, 8))
    assert all(lv.complete for lv in levels)
    assert sum(lv.attempts for lv in levels) == 43
    assert calls == [(39, periodic2d.DETOURS[0], 1)]


def test_padded_rows_match_unpadded_runs():
    # cycles of periods 3, 5 and 7 continued in one stack padded to 7 end
    # where each period's own stack takes them, with the same step counts
    b = 0.3
    a0 = _start_parameter(b)
    m = MapParams(1.4, b)
    groups = [np.array([[q.x for q in o.points] for o in periodic_points_2d(
        MapParams(a0, b), n).orbits if o.period == n][:4]) for n in (3, 5, 7)]
    periods = np.repeat([3, 5, 7], [len(g) for g in groups])
    X0 = np.zeros((len(periods), 7), dtype=complex)
    for i, x in enumerate(row for g in groups for row in g):
        X0[i, :len(x)] = x
    detour = periodic2d.QUADRATIC, [(a0, m.a, periodic2d.DETOURS[0])]
    X, reached, _, halvings, accepted = cycles.continue_cycles(
        X0, *detour, b, periods)
    # padded slots never move
    assert np.all(X[np.arange(7) >= periods[:, None]] == 0.0)
    lo = 0
    for g in groups:
        d = g.shape[1]
        Y, r, _, h, acc = cycles.continue_cycles(g, *detour, b)
        rows = slice(lo, lo + len(g))
        scale = 1.0 + np.max(np.abs(Y), axis=1) ** 2
        assert np.all(np.max(np.abs(X[rows, :d] - Y), axis=1)
                      <= 1e-12 * scale)
        assert r.all() and np.array_equal(reached[rows], r)
        assert np.array_equal(halvings[rows], h)
        assert np.array_equal(accepted[rows], acc)
        lo += len(g)


def test_lost_paths_are_retried_on_the_second_detour():
    # near this branch point both the 2i detour and its conjugate lose
    # two period-8 paths; the 1i detour loses none
    lv = periodic_points_2d(MapParams(0.02431, -0.44608), 8)
    assert lv.complete and lv.fixed_point_count == 256
    assert lv.paths_lost == 0 and lv.paths_retried == 2
    assert lv.attempts == 34 and lv.steps_accepted > 0
    # at (3, 1) the cycles really collide: the retry loses the path too
    lv = periodic_points_2d(MapParams(3.0, 1.0), 2)
    assert lv.paths_retried == 1 and lv.paths_lost == 1
    assert not lv.complete


def test_lost_path_leaves_level_incomplete():
    # at (3, 1) the period-2 orbit merges into a fixed point: 4a = 3(1+b)^2
    lv = periodic_points_2d(MapParams(3.0, 1.0), 2)
    assert not lv.complete
    assert lv.fixed_point_count == 2
    assert lv.attempts == 1 and lv.paths_lost == 1


def test_start_parameter():
    assert _start_parameter(0.3 + 0j) == 10.0
    a0 = _start_parameter(3.0 + 0j)
    assert a0 > 10.0 and is_horseshoe_regime(MapParams(a0, 3.0))
    assert not is_horseshoe_regime(MapParams(a0 / 2.0, 3.0))
    with pytest.raises(ContractError):
        _start_parameter(complex(math.nan, 0.0))


def test_solve_stack_marks_singular_rows():
    A = np.array([np.eye(2), np.zeros((2, 2)), 2.0 * np.eye(2)],
                 dtype=complex)
    F = np.ones((3, 2), dtype=complex)
    x = solve_stack(A, F)
    assert np.array_equal(x[0], F[0]) and np.array_equal(x[2], 0.5 * F[2])
    assert np.all(np.isnan(x[1]))


def test_mu_n_measure_mass_and_completeness(horseshoe_levels):
    lv = horseshoe_levels[5]
    mu = mu_n_measure(lv)
    assert mu.total_mass() == 1 and mu.denominator == 2 ** 5
    pts = [[p.x, p.y] for o in lv.orbits for p in o.points]
    assert np.array_equal(mu.points, np.array(pts, dtype=complex))
    assert mu.counts.tolist() == [o.multiplicity for o in lv.orbits
                                  for _ in o.points]
    assert mu.complete
    assert len(mu) == 32
    assert mu.ambient_dim == 2


def test_saddle_ratio_table(horseshoe):
    tab = saddle_table(periodic_levels(horseshoe, range(1, 7)))
    counts = [row.saddle_count for row in tab.rows]
    assert counts == [2, 2, 6, 12, 30, 54]
    ratios = [row.ratio for row in tab.rows]
    assert ratios == pytest.approx([1.0, 0.5, 0.75, 0.75, 0.9375, 0.84375])
    assert tab.verdict == "consistent with limit 1"


def test_reality_report_verdicts(horseshoe):
    rep = reality_conditions_report(horseshoe, 4)
    assert rep.verdict == "log 2"
    assert rep.all_real
    assert rep.nonreal_periods == ()
    sink = reality_conditions_report(MapParams(0.1, 0.3), 3, budget=1024)
    assert sink.verdict == "entropy < log 2 expected"
    assert 2 in sink.nonreal_periods
    with pytest.raises(ContractError):
        reality_conditions_report(MapParams(1.0 + 1.0j, 0.3), 2)


def test_reality_table_matches_report(horseshoe, horseshoe_levels):
    levels = [horseshoe_levels[n] for n in range(1, 5)]
    assert (reality_table(horseshoe, levels)
            == reality_conditions_report(horseshoe, 4))
    sink = MapParams(0.1, 0.3)
    sink_levels = [periodic_points_2d(sink, n, budget=1024)
                   for n in range(1, 4)]
    assert (reality_table(sink, sink_levels)
            == reality_conditions_report(sink, 3, budget=1024))
    with pytest.raises(ContractError):
        reality_table(horseshoe, [])
    with pytest.raises(ContractError):
        reality_table(MapParams(1.0 + 1.0j, 0.3), levels)


def test_unstable_disk_sample_lands_on_cycle(horseshoe):
    orb = negative_fixed_point(horseshoe)
    cloud = unstable_disk_sample(orb, horseshoe, steps=6, samples=512)
    assert cloud.ndim == 2 and cloud.shape[1] == 2
    p = orb.points[0]
    d = np.sqrt(np.abs(cloud[:, 0] - p.x) ** 2 + np.abs(cloud[:, 1] - p.y) ** 2)
    assert float(d.min()) < 1e-9  # the cycle itself rides along
    sup = np.maximum(np.abs(cloud[:, 0]), np.abs(cloud[:, 1]))
    assert float(sup.max()) <= 4.0 * horseshoe.R + 1e-9


def test_unstable_disk_backward_mode(horseshoe):
    orb = negative_fixed_point(horseshoe)
    fwd = unstable_disk_sample(orb, horseshoe, steps=5, samples=256)
    bwd = unstable_disk_sample(orb, horseshoe, steps=5, samples=256,
                               backward=True)
    # the two sides leave the saddle along different directions
    assert fwd.shape[0] > 64 and bwd.shape[0] > 64
    assert not np.array_equal(fwd[:64], bwd[:64])


@pytest.mark.parametrize("a, b, backward, digest", [
    (10.0, 0.3, False,
     "56f5549ad8f62f9a712d72da070574a97f8547402a188712de4f422de739ab94"),
    (10.0, 0.3, True,
     "da5ef809ac66c9e47acc8686bc08f16c6d0869da58e40e12f85dcba076823e3a"),
    (1.4, 0.3, False,
     "915c61ef0b3ea60205bb7783047bd026fb2f992cf41e299f3ce4860520dd8fe4"),
    (1.4, 0.3, True,
     "af8a2f339ffbeca51ee09db49c757463b603231342b897747c13ae439aaa1ead"),
])
def test_unstable_disk_sample_digest(a, b, backward, digest):
    # the real chart: the bits of each cloud, both sides of the saddle
    m = MapParams(a, b)
    cloud = unstable_disk_sample(negative_fixed_point(m), m, steps=10,
                                 samples=3000, backward=backward)
    assert hashlib.sha256(cloud.tobytes()).hexdigest() == digest


def test_unstable_disk_sample_digest_complex_saddle():
    # a nonreal saddle takes the circle chart
    m = MapParams(1.2 + 0.5j, 0.3 - 0.1j)
    orb = next(o for o in fixed_points_closed_form(m)
               if o.orbit_class == "saddle")
    assert not orb.is_real
    cloud = unstable_disk_sample(orb, m, steps=10, samples=3000)
    assert hashlib.sha256(cloud.tobytes()).hexdigest() == (
        "32b5838bafeef5713696e97c3be244a1b2cea8e9d4851daeabf65d371a660bba")


def test_unstable_disk_rejects_sinks():
    m = MapParams(0.1, 0.3)
    orbits = [o for o in fixed_points_closed_form(m) if o is not None]
    sink = next(o for o in orbits if o.orbit_class == "sink")
    with pytest.raises(ContractError):
        unstable_disk_sample(sink, m, steps=3, samples=64)


def test_cylinder_point_measure(horseshoe):
    cyl = cylinder_point_measure(horseshoe, 2)
    assert len(cyl) == 16
    assert cyl.total_mass() == 1
    assert cyl.counts.tolist() == [1] * 16 and cyl.denominator == 16
    sup = np.maximum(np.abs(cyl.points[:, 0]), np.abs(cyl.points[:, 1]))
    assert float(sup.max()) < horseshoe.R
    with pytest.raises(ContractError):
        cylinder_point_measure(MapParams(0.1, 0.3), 2)


def test_cylinder_matches_periodic_measure(horseshoe, horseshoe_levels):
    mu6 = mu_n_measure(horseshoe_levels[6])
    cyl = cylinder_point_measure(horseshoe, 3)
    bat = TestBattery(2, sigma=horseshoe.R)
    assert compare(mu6, cyl, bat).discrepancy < 0.05


def test_negative_fixed_point(horseshoe):
    orb = negative_fixed_point(horseshoe)
    assert orb.points[0].x.real < 0
    assert orb.period == 1
