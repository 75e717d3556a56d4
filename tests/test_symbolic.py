import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from henonlab.dynamics import MapParams, PointC2
from henonlab.errors import CodingError, ContractError
from henonlab.periodic2d import (negative_fixed_point, periodic_levels,
                                 periodic_points_2d)
from henonlab.symbolic import (PeriodicSequence, SymbolWord, code_orbit,
                               entropy_estimate, itinerary_word_counts,
                               necklaces, sequence_metric, shift)


def test_symbol_word_positions():
    w = SymbolWord((0, 1, 1, 0, 1), anchor=2)
    assert w.symbol(0) == 1
    assert w.symbol(-2) == 0
    assert list(w.support()) == [-2, -1, 0, 1, 2]
    with pytest.raises(ContractError):
        w.symbol(3)
    with pytest.raises(ContractError):
        SymbolWord((0, 2, 1))


def test_periodic_sequence_wraps():
    s = PeriodicSequence(SymbolWord((0, 1, 1)))
    assert [s.symbol(j) for j in range(-3, 6)] == [0, 1, 1, 0, 1, 1, 0, 1, 1]
    assert s.period == 3


def test_shift_moves_positions():
    s = PeriodicSequence(SymbolWord((0, 1, 1)))
    t = shift(s, 1)
    assert all(t.symbol(j) == s.symbol(j + 1) for j in range(-4, 5))
    w = SymbolWord((0, 1, 1, 0), anchor=1)
    v = shift(w, 2)
    assert v.symbol(0) == w.symbol(2)
    with pytest.raises(ContractError):
        shift(w, 9)


def test_sequence_metric_weights_by_position():
    a = PeriodicSequence(SymbolWord((0,)))
    b = PeriodicSequence(SymbolWord((1,)))
    # disagreement everywhere: sum over j of 2^-|j| inside the cutoff
    assert sequence_metric(a, a) == 0.0
    assert sequence_metric(a, b) > 2.9
    w0 = SymbolWord((0, 0, 0), anchor=1)
    w1 = SymbolWord((0, 0, 1), anchor=1)
    assert sequence_metric(w0, w1) == pytest.approx(0.5)


def _reference_word_counts(orbits, n_max):
    """S(1..n_max) over orbit objects: each cycle's sign itinerary (1 unless
    Re x < 0), its length-n blocks read cyclically, wrapping past the
    period."""
    itineraries = [tuple(0 if p.x.real < 0 else 1 for p in o.points)
                   for o in orbits]
    counts = {}
    for n in range(1, n_max + 1):
        seen = set()
        for s in itineraries:
            d = len(s)
            ext = tuple(s[j % d] for j in range(d + n - 1))
            seen.update(ext[i:i + n] for i in range(d))
        counts[n] = len(seen)
    return counts


@pytest.fixture(scope="module")
def deep_horseshoe_levels():
    return periodic_levels(MapParams(10.0, 0.3), range(1, 13))


def test_itinerary_word_counts_full_shift_period2(deep_horseshoe_levels):
    # the fixed points code 0 and 1, the period-2 cycle 01
    counts = itinerary_word_counts(deep_horseshoe_levels[1], 3)
    # the period-2 cycle contributes the wrapped blocks 010 and 101 only
    assert counts == {1: 2, 2: 4, 3: 4}
    assert itinerary_word_counts(deep_horseshoe_levels[1], 0) == {}


@pytest.mark.parametrize("n", range(1, 13))
def test_itinerary_word_counts_match_orbit_windows(deep_horseshoe_levels, n):
    # at n_max = n + 3 the windows wrap past every cycle's period
    lv = deep_horseshoe_levels[n - 1]
    for n_max in (n, n + 3):
        counts = itinerary_word_counts(lv, n_max)
        assert counts == _reference_word_counts(lv.orbits, n_max)
        assert all(type(k) is int and type(v) is int
                   for k, v in counts.items())
    assert counts[n] == 2 ** n


def test_itinerary_word_counts_off_horseshoe_and_long_windows(
        deep_horseshoe_levels):
    lv = periodic_points_2d(MapParams(1.4, 0.3), 7)
    assert itinerary_word_counts(lv, 10) == \
        _reference_word_counts(lv.orbits, 10)
    lv = deep_horseshoe_levels[2]
    counts = itinerary_word_counts(lv, 70)
    assert counts == _reference_word_counts(lv.orbits, 70)
    assert counts[70] == 8
    # one period-70 cycle coded 10...0: S(n) = n + 1 below n = 70 and
    # S(70) = 70, while the last 64 symbols of a window, all that an int64
    # window code keeps, tell only 65 of them apart
    level = deep_horseshoe_levels[0]
    x = np.full(70, -1.0 + 0j)
    x[0] = 1.0
    lv = dataclasses.replace(level, columns=level.columns.take([0])._replace(
        x=x, period=np.array([70])))
    counts = itinerary_word_counts(lv, 70)
    assert counts == _reference_word_counts(lv.orbits, 70)
    assert counts[64] == 65 and counts[70] == 70


def test_itinerary_word_counts_nan_codes_one(deep_horseshoe_levels):
    # `_sign_symbol`'s rule: a nan x is not Re x < 0, so it codes 1
    lv = deep_horseshoe_levels[1]
    c = lv.columns
    fixed_negative = (np.repeat(c.period, c.period) == 1) & (c.x.real < 0)
    x = c.x.copy()
    x[np.flatnonzero(fixed_negative)[0]] = complex(math.nan, 0.0)
    lv = dataclasses.replace(lv, columns=c._replace(x=x))
    counts = itinerary_word_counts(lv, 3)
    assert counts == _reference_word_counts(lv.orbits, 3)
    # both fixed points code 1 now: 11, 01 and 10 at length 2
    assert counts == {1: 2, 2: 3, 3: 3}


def test_itinerary_word_counts_empty_level(deep_horseshoe_levels):
    lv = deep_horseshoe_levels[0]
    lv = dataclasses.replace(lv, columns=lv.columns.take([]))
    assert itinerary_word_counts(lv, 3) == {1: 0, 2: 0, 3: 0}


def test_entropy_estimate_full_shift():
    counts = {n: 2 ** n for n in range(1, 9)}
    est = entropy_estimate(counts, 8)
    assert abs(est.point - math.log(2)) < 1e-12
    assert abs(est.slope - math.log(2)) < 1e-12
    with pytest.raises(ContractError):
        entropy_estimate(counts, 2)
    with pytest.raises(ContractError):
        entropy_estimate({8: 256}, 8)


def test_entropy_estimate_golden_mean():
    counts = {1: 2, 2: 3}
    for n in range(3, 21):
        counts[n] = counts[n - 1] + counts[n - 2]
    assert counts[20] == 17711
    est = entropy_estimate(counts, 20)
    phi = (1 + math.sqrt(5)) / 2
    assert abs(est.point - math.log(phi)) / math.log(phi) < 0.05


def test_necklace_counts_and_minimality():
    counts = [len(list(necklaces(n))) for n in range(1, 7)]
    assert counts == [2, 3, 4, 6, 8, 14]
    for n in range(1, 7):
        reps = list(necklaces(n))
        assert len(set(reps)) == len(reps)
        for bits in reps:
            # representative is the least rotation of its class
            rots = [bits[k:] + bits[:k] for k in range(n)]
            assert bits == min(rots)


def _necklaces_by_filter(n):
    out = []
    for v in range(2 ** n):
        bits = tuple((v >> (n - 1 - i)) & 1 for i in range(n))
        if bits == min(bits[i:] + bits[:i] for i in range(n)):
            out.append(bits)
    return out


def test_necklaces_match_min_rotation_filter():
    for n in range(1, 13):
        assert list(necklaces(n)) == _necklaces_by_filter(n)
    with pytest.raises(ContractError):
        necklaces(0)


def test_necklaces_are_generated_lazily():
    t0 = time.perf_counter()
    first = list(itertools.islice(necklaces(30), 2048))
    assert time.perf_counter() - t0 < 1.0
    assert len(first) == 2048
    assert first[0] == (0,) * 30
    assert first == sorted(first)


def test_code_orbit_fixed_points(horseshoe):
    p_neg = negative_fixed_point(horseshoe).points[0]
    w = code_orbit(p_neg, horseshoe, 3, 3)
    assert w.bits == (0,) * 6
    p_pos = PointC2(-p_neg.x - 1.3, -p_neg.y - 1.3)  # the other fixed point
    w2 = code_orbit(PointC2(p_pos.x, p_pos.y), horseshoe, 2, 2)
    assert w2.bits == (1,) * 4


def test_code_orbit_rejects_outside_regime_and_set():
    with pytest.raises(CodingError):
        code_orbit(PointC2(0, 0), MapParams(0.1, 0.3), 1, 1)
    m = MapParams(10.0, 0.3)
    with pytest.raises(CodingError):
        code_orbit(PointC2(2 * m.R, 0.0), m, 0, 3)
