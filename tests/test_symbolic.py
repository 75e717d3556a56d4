import itertools
import math
import time

import pytest

from henonlab.dynamics import MapParams, PointC2
from henonlab.errors import CodingError, ContractError
from henonlab.periodic2d import negative_fixed_point
from henonlab.symbolic import (PeriodicSequence, SymbolWord, code_orbit,
                               count_admissible_words, entropy_estimate,
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


def test_count_admissible_words_full_shift_period2():
    seqs = [PeriodicSequence(SymbolWord(b)) for b in ((0,), (1,), (0, 1))]
    assert count_admissible_words(seqs, 1) == 2
    assert count_admissible_words(seqs, 2) == 4
    # period-2 cycle contributes wrapped blocks 010 and 101
    assert count_admissible_words(seqs, 3) == 4
    with pytest.raises(ContractError):
        count_admissible_words(seqs, 0)


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
