import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from henonlab.errors import ContractError
from henonlab.measures import (DiscreteMeasure, TestBattery,
                               angular_discrepancy, compare, integrate,
                               potential_of_measure)


def unit_circle_measure(n):
    pts = np.exp(2j * math.pi * np.arange(n) / n)
    return DiscreteMeasure.equal_weights(pts, 1, provenance=f"roots({n})")


def test_measure_contract():
    mu = unit_circle_measure(8)
    assert len(mu) == 8
    assert mu.total_mass() == Fraction(1)
    assert np.allclose(mu.weight_array, 0.125)
    with pytest.raises(ContractError):
        DiscreteMeasure(np.array([1.0 + 0j]), (Fraction(1, 2),), 1)  # mass != 1
    with pytest.raises(ContractError):
        DiscreteMeasure(np.array([1.0 + 0j]), (Fraction(1), Fraction(1)), 1)
    with pytest.raises(ContractError):
        DiscreteMeasure(np.array([[1.0 + 0j, 0j]]), (Fraction(1),), 1)
    partial = DiscreteMeasure(np.array([1.0 + 0j]), (Fraction(1, 2),), 1,
                              complete=False)
    assert float(partial.total_mass()) == 0.5


def test_exact_total_mass_on_mixed_denominators():
    weights = (Fraction(1, 3), Fraction(5, 12), Fraction(1, 2 ** 40),
               Fraction(7, 9), Fraction(2, 1), Fraction(11, 2 ** 40 * 3))
    mu = DiscreteMeasure(np.zeros(len(weights), dtype=complex), weights, 1,
                         complete=False)
    total = mu.total_mass()
    assert isinstance(total, Fraction)
    assert total == sum(weights, Fraction(0))
    third = DiscreteMeasure(np.zeros(3, dtype=complex),
                            (Fraction(1, 3),) * 3, 1)
    assert third.total_mass() == 1


def test_per_weight_work_runs_once_per_distinct_weight():
    calls = Counter()

    class Counted(Fraction):
        def __le__(self, other):
            calls["<="] += 1
            return Fraction.__le__(self, other)

        def __float__(self):
            calls["float"] += 1
            return Fraction.__float__(self)

        @property
        def denominator(self):
            calls["denominator"] += 1
            return Fraction.denominator.fget(self)

    eighth, quarter = Counted(1, 8), Counted(1, 4)
    weights = (eighth, quarter, eighth, eighth, quarter, eighth)
    mu = DiscreteMeasure(np.zeros(6, dtype=complex), weights, 1)
    # the positivity check, and the mass check's lcm and scaled numerators
    assert calls == {"<=": 2, "denominator": 4}
    calls.clear()
    assert mu.weight_array.tolist() == [0.125, 0.25, 0.125, 0.125, 0.25,
                                        0.125]
    assert calls["float"] == 2
    assert mu.weights == weights and mu.total_mass() == 1
    with pytest.raises(ContractError):
        DiscreteMeasure(np.zeros(3, dtype=complex),
                        (eighth, Counted(0, 1), eighth), 1, complete=False)


def test_weight_array_is_cached_and_read_only():
    mu = unit_circle_measure(8)
    w = mu.weight_array
    assert w is mu.weight_array
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 1.0


def test_measure_csv_round_trip(tmp_path):
    mu = unit_circle_measure(6)
    path = tmp_path / "atoms.csv"
    mu.save(path)
    back = DiscreteMeasure.load(path)
    assert np.array_equal(back.points, mu.points)
    assert back.weights == mu.weights
    assert back.complete and back.ambient_dim == 1
    mu2 = DiscreteMeasure(np.array([[0.1 + 0j, 0.2 + 0j]]), (1.0,), 2,
                          complete=False, provenance="pair")
    p2 = tmp_path / "atoms2.csv"
    mu2.save(p2)
    back2 = DiscreteMeasure.load(p2)
    assert back2.ambient_dim == 2 and back2.provenance == "pair"
    assert np.array_equal(back2.points, mu2.points)


def test_integrate_fixed_order():
    mu = unit_circle_measure(4)
    total = integrate(mu, lambda pts: np.real(pts) ** 2)
    assert total == pytest.approx(0.5)
    vals = np.ones(4)
    assert integrate(mu, vals) == pytest.approx(1.0)
    with pytest.raises(ContractError):
        integrate(mu, np.ones(5))


def test_battery_normalization():
    bat = TestBattery(1, sigma=2.0)
    rng = np.random.default_rng(6)
    pts = rng.normal(scale=4.0, size=256) + 1j * rng.normal(scale=4.0, size=256)
    for tid in bat.ids:
        vals = bat.evaluate(tid, pts)
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12
    with pytest.raises(ContractError):
        bat.evaluate("nope", pts)
    with pytest.raises(ContractError):
        TestBattery(3, sigma=1.0)
    with pytest.raises(ContractError):
        TestBattery(1, sigma=0.0)


def test_compare_detects_separation_and_self_zero():
    mu = unit_circle_measure(16)
    bat = TestBattery(1, sigma=1.5)
    self_d = compare(mu, mu, bat)
    assert self_d.discrepancy == 0.0
    shifted = DiscreteMeasure.equal_weights(mu.points + 0.5, 1)
    moved = compare(mu, shifted, bat)
    assert moved.discrepancy > 0.05
    assert not moved.advisory
    partial = DiscreteMeasure(mu.points[:8], (Fraction(1, 16),) * 8, 1,
                              complete=False)
    assert compare(mu, partial, bat).advisory


def test_compare_is_symmetric_bit_for_bit():
    # periodic-report compares each pair once and mirrors the matrix
    rng = np.random.default_rng(5)
    bat = TestBattery(1, sigma=1.5)
    mus = [DiscreteMeasure.equal_weights(
        rng.normal(size=n) + 1j * rng.normal(size=n), 1) for n in (9, 16, 33)]
    mus.append(DiscreteMeasure(mus[1].points[:8], (Fraction(1, 16),) * 8, 1,
                               complete=False))
    for a in mus:
        for b in mus:
            assert compare(a, b, bat) == compare(b, a, bat)


def test_compare_dimension_mismatch():
    mu1 = unit_circle_measure(4)
    mu2 = DiscreteMeasure(np.array([[0j, 0j]]), (Fraction(1),), 2)
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
    half = DiscreteMeasure.equal_weights(
        np.exp(1j * math.pi * np.arange(64) / 64), 1)
    assert angular_discrepancy(half) > 0.4
    off = DiscreteMeasure.equal_weights(np.array([2.0 + 0j]), 1)
    with pytest.raises(ContractError):
        angular_discrepancy(off)
    assert angular_discrepancy(off, radial_tol=1.5) >= 0.0
