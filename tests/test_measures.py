import math
from fractions import Fraction

import numpy as np
import pytest

from henonlab.dynamics import MapParams
from henonlab.errors import ContractError
from henonlab.measures import (DiscreteMeasure, TestBattery,
                               angular_discrepancy, compare, integrate,
                               potential_of_measure)
from henonlab.periodic2d import (cylinder_point_measure, mu_n_measure,
                                 periodic_points_2d)
from henonlab.poly1d import Poly, brolin_measure


def equal_weights(points):
    """Planar counting measure: count 1 per atom over the atom count."""
    pts = np.asarray(points, dtype=complex)
    return DiscreteMeasure(pts, np.ones(len(pts), dtype=np.int64), len(pts), 1)


def unit_circle_measure(n):
    return equal_weights(np.exp(2j * math.pi * np.arange(n) / n))


def test_measure_contract():
    mu = unit_circle_measure(8)
    assert len(mu) == 8
    assert mu.total_mass() == Fraction(1)
    assert mu.counts.tolist() == [1] * 8 and mu.denominator == 8
    assert np.allclose(mu.weight_array, 0.125)
    one = np.array([1.0 + 0j])
    with pytest.raises(ContractError):
        DiscreteMeasure(one, [1], 2, 1)  # mass != 1
    with pytest.raises(ContractError):
        DiscreteMeasure(one, [1, 1], 2, 1)  # one count per atom
    with pytest.raises(ContractError):
        DiscreteMeasure(np.array([[1.0 + 0j, 0j]]), [1], 1, 1)
    for bad in ([0.5], [0], [-1], [True]):
        with pytest.raises(ContractError):
            DiscreteMeasure(one, bad, 1, 1, complete=False)
    for bad in (0, -2, 2.0, True):
        with pytest.raises(ContractError):
            DiscreteMeasure(one, [1], bad, 1, complete=False)
    partial = DiscreteMeasure(one, [1], 2, 1, complete=False)
    assert float(partial.total_mass()) == 0.5
    counts = np.array([3])
    mu = DiscreteMeasure(one, counts, 3, 1)
    counts[0] = 5  # the measure keeps its own read-only copy
    assert mu.counts.tolist() == [3] and mu.counts.dtype == np.int64
    assert not mu.counts.flags.writeable


def test_exact_total_mass_over_one_denominator():
    den = 3 * 2 ** 70  # past int64: the denominator stays a Python int
    counts = [1, 5, 2 ** 40, 7, 11]
    mu = DiscreteMeasure(np.zeros(5, dtype=complex), counts, den, 1,
                         complete=False)
    total = mu.total_mass()
    assert isinstance(total, Fraction)
    assert total == Fraction(sum(counts), den)
    assert mu.weight_array.tolist() == [float(Fraction(c, den))
                                        for c in counts]
    third = DiscreteMeasure(np.zeros(3, dtype=complex), [1, 1, 1], 3, 1)
    assert third.total_mass() == 1
    big = 3 * 2 ** 60
    whole = DiscreteMeasure(np.zeros(2, dtype=complex), [big - 1, 1], big, 1)
    assert whole.total_mass() == 1
    # one count short of the denominator is not complete, however close
    with pytest.raises(ContractError, match="total mass 1"):
        DiscreteMeasure(np.zeros(2, dtype=complex), [big - 2, 1], big, 1)


HORSESHOE = MapParams(10.0, 0.3)
CUBIC = Poly((0.3 + 0.2j, -0.5, 0.0, 1.0))


@pytest.mark.parametrize("build", [
    lambda: mu_n_measure(periodic_points_2d(HORSESHOE, 6)),
    # 2^70 is past int64: the denominator stays an exact Python int
    lambda: mu_n_measure(periodic_points_2d(HORSESHOE, 70, budget=8)),
    lambda: brolin_measure(CUBIC, "preimage", 4, c=1.0),
    lambda: brolin_measure(CUBIC, "periodic", 4),
    lambda: cylinder_point_measure(HORSESHOE, 3),
    lambda: equal_weights(np.arange(7)),
], ids=["mu_6", "mu_70", "preimage", "periodic", "cylinder", "equal_7"])
def test_weight_array_is_the_exact_weight_rounded(build):
    mu = build()
    exact = [float(Fraction(c, mu.denominator)) for c in mu.counts.tolist()]
    assert mu.weight_array.tolist() == exact
    assert mu.total_mass() == Fraction(sum(mu.counts.tolist()),
                                       mu.denominator)


def test_weight_array_is_cached_and_read_only():
    mu = unit_circle_measure(8)
    w = mu.weight_array
    assert w is mu.weight_array
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 1.0


def test_integrate_fixed_order():
    mu = unit_circle_measure(4)
    total = integrate(mu, np.real(mu.points) ** 2)
    assert total == pytest.approx(0.5)
    vals = np.ones(4)
    assert integrate(mu, vals) == pytest.approx(1.0)
    with pytest.raises(ContractError):
        integrate(mu, np.ones(5))


def test_battery_normalization():
    bat = TestBattery(1, sigma=2.0)
    rng = np.random.default_rng(6)
    pts = rng.normal(scale=4.0, size=256) + 1j * rng.normal(scale=4.0, size=256)
    probes = bat.evaluate_all(pts)
    assert len(probes) == len(bat.ids)
    for vals in probes:
        assert vals.shape == pts.shape
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12
    with pytest.raises(ContractError):
        TestBattery(3, sigma=1.0)
    with pytest.raises(ContractError):
        TestBattery(1, sigma=0.0)


def test_compare_detects_separation_and_self_zero():
    mu = unit_circle_measure(16)
    bat = TestBattery(1, sigma=1.5)
    self_d = compare(mu, mu, bat)
    assert self_d.discrepancy == 0.0
    shifted = equal_weights(mu.points + 0.5)
    moved = compare(mu, shifted, bat)
    assert moved.discrepancy > 0.05
    assert not moved.advisory
    partial = DiscreteMeasure(mu.points[:8], [1] * 8, 16, 1, complete=False)
    assert compare(mu, partial, bat).advisory


def test_compare_is_symmetric_bit_for_bit():
    # periodic-report compares each pair once and mirrors the matrix
    rng = np.random.default_rng(5)
    bat = TestBattery(1, sigma=1.5)
    mus = [equal_weights(rng.normal(size=n) + 1j * rng.normal(size=n))
           for n in (9, 16, 33)]
    mus.append(DiscreteMeasure(mus[1].points[:8], [1] * 8, 16, 1,
                               complete=False))
    for a in mus:
        for b in mus:
            assert compare(a, b, bat) == compare(b, a, bat)


def test_compare_dimension_mismatch():
    mu1 = unit_circle_measure(4)
    mu2 = DiscreteMeasure(np.array([[0j, 0j]]), [1], 1, 2)
    bat = TestBattery(1, sigma=1.0)
    with pytest.raises(ContractError):
        compare(mu1, mu2, bat)
    with pytest.raises(ContractError):
        compare(mu2, mu2, bat)


def test_potential_of_measure_circle():
    mu = unit_circle_measure(64)
    # discrete potential of the uniform circle law: log|z| outside, ~0 inside
    assert potential_of_measure(mu, 2.0) == pytest.approx(math.log(2.0),
                                                          abs=1e-12)
    assert abs(potential_of_measure(mu, 0.1 + 0.1j)) < 1e-9
    assert potential_of_measure(mu, 1.0) == -math.inf


def test_angular_discrepancy_floor_and_gap():
    mu = unit_circle_measure(128)
    d = angular_discrepancy(mu)
    assert abs(d - 1.0 / 128.0) < 1e-12
    # removing half the circle leaves a gap of ~1/2
    half = equal_weights(np.exp(1j * math.pi * np.arange(64) / 64))
    assert angular_discrepancy(half) > 0.4
    off = equal_weights(np.array([2.0 + 0j]))
    with pytest.raises(ContractError):
        angular_discrepancy(off)
    assert angular_discrepancy(off, radial_tol=1.5) >= 0.0
