import math
from fractions import Fraction

import numpy as np
import pytest

from henonlab.dynamics import (MapParams, PointC2, derivative_along_orbit,
                               henon_apply)
from henonlab.errors import ContractError
from henonlab.measures import TestBattery, compare
from henonlab.periodic2d import (DEDUP_TOL, _CycleIndex, _dedup_cell,
                                 _same_cycle, cylinder_point_measure,
                                 fixed_points_closed_form, mu_n_measure,
                                 negative_fixed_point, periodic_points_2d,
                                 reality_conditions_report, reality_table,
                                 saddle_count_ratio, symbolic_orbit_seed,
                                 unstable_disk_sample)
from henonlab.symbolic import necklaces


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
            assert o.max_imag <= 1e-7
            assert o.orbit_class == "saddle"


def _assert_no_duplicates(lv):
    # the pairwise scan the cell index replaced is the reference here
    for i, a in enumerate(lv.orbits):
        for b in lv.orbits[:i]:
            assert not _same_cycle(a.points, b.points)
    pts = [(round(p.x.real, 5), round(p.x.imag, 5),
            round(p.y.real, 5), round(p.y.imag, 5))
           for o in lv.orbits for p in o.points]
    assert len(pts) == len(set(pts)) == lv.fixed_point_count


def test_no_duplicate_cycles(horseshoe_levels):
    for lv in horseshoe_levels.values():
        _assert_no_duplicates(lv)
    assert horseshoe_levels[6].fixed_point_count == 64
    halton = periodic_points_2d(MapParams(1.4, 0.3), 6)  # Halton seeds only
    assert halton.complete
    _assert_no_duplicates(halton)


def _shifted(cycle, dx):
    return tuple(PointC2(p.x + dx, p.y) for p in cycle)


def test_cycle_index_across_strip_boundary(horseshoe_levels):
    base = horseshoe_levels[3].minimal_orbits[0].points
    # place the first Re x just below a strip boundary, the copy just above
    edge = (_dedup_cell(base[0].x) + 1) * 2.0 * DEDUP_TOL
    lo = _shifted(base, edge - 0.4 * DEDUP_TOL - base[0].x.real)
    hi = _shifted(lo, 0.8 * DEDUP_TOL)
    assert _dedup_cell(hi[0].x) == _dedup_cell(lo[0].x) + 1
    index = _CycleIndex()
    index.add(lo)
    assert index.has(hi)
    assert index.has(hi[1:] + hi[:1])  # same cycle, other starting point
    far = _shifted(lo, 10.0 * DEDUP_TOL)
    assert not index.has(far)
    index.add(far)
    assert index.has(far) and index.has(lo)


def test_cycle_index_agrees_with_pairwise_scan():
    rng = np.random.default_rng(5)
    pool = [rng.uniform(-3.0, 3.0, size=(d, 4)) for d in (1, 2, 2, 3, 3, 3)]
    index, kept, hits = _CycleIndex(), [], 0
    for _ in range(600):
        base = pool[int(rng.integers(len(pool)))]
        # jitter of up to 1.5 tolerances lands on both sides of the match
        # threshold and of the strip boundaries
        arr = base + rng.uniform(-1.5, 1.5, size=base.shape) * DEDUP_TOL
        arr = np.roll(arr, int(rng.integers(len(arr))), axis=0)
        cycle = tuple(PointC2(complex(r[0], r[1]), complex(r[2], r[3]))
                      for r in arr)
        expected = any(_same_cycle(cycle, k) for k in kept)
        assert index.has(cycle) == expected
        if expected:
            hits += 1
        else:
            kept.append(cycle)
            index.add(cycle)
    assert 50 < hits < 550  # both outcomes exercised


def test_cycle_index_survives_huge_coordinates():
    index = _CycleIndex()
    huge = (PointC2(1e305 + 0j, 1.0 + 0j),)
    index.add(huge)
    assert index.has(huge)
    assert not index.has((PointC2(-1e305 + 0j, 1.0 + 0j),))


def test_symbolic_seed_matches_itinerary(horseshoe):
    for bits in necklaces(5):
        cycle = symbolic_orbit_seed(horseshoe, bits)
        assert cycle.shape == (5, 2)
        signs = tuple(0 if x.real < 0 else 1 for x in cycle[:, 0])
        assert signs == bits
        # shadowing residual: x_{j}^2 + x_{j+1} + b x_{j-1} - a ~ 0
        x = cycle[:, 0]
        res = x * x - horseshoe.a + np.roll(x, -1) + horseshoe.b * np.roll(x, 1)
        assert float(np.max(np.abs(res))) < 1e-10


def test_enumeration_rejects_bad_inputs(horseshoe):
    with pytest.raises(ContractError):
        periodic_points_2d(horseshoe, 0)
    with pytest.raises(ContractError):
        periodic_points_2d(horseshoe, 3, budget=0)


def test_incomplete_census_is_flagged():
    m = MapParams(3.0, -0.5)  # not a horseshoe: no symbolic seeding
    lv = periodic_points_2d(m, 6, budget=2)
    assert not lv.complete
    assert lv.fixed_point_count < 64
    assert lv.attempts <= 2


def test_mu_n_measure_mass_and_completeness(horseshoe_levels):
    mu = mu_n_measure(horseshoe_levels[5])
    assert mu.total_mass() == Fraction(1)
    assert mu.complete
    assert len(mu) == 32
    assert mu.ambient_dim == 2


def test_saddle_ratio_table(horseshoe):
    tab = saddle_count_ratio(horseshoe, 6)
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


def test_unstable_disk_rejects_sinks():
    m = MapParams(0.1, 0.3)
    orbits = [o for o in fixed_points_closed_form(m) if o is not None]
    sink = next(o for o in orbits if o.orbit_class == "sink")
    with pytest.raises(ContractError):
        unstable_disk_sample(sink, m, steps=3, samples=64)


def test_cylinder_point_measure(horseshoe):
    cyl = cylinder_point_measure(horseshoe, 2)
    assert len(cyl) == 16
    assert cyl.total_mass() == Fraction(1)
    assert all(w == Fraction(1, 16) for w in cyl.weights)
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
