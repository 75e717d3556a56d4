"""Binary symbol sequences, the shift, word counting and entropy estimates.

Bounded orbits in the full-horseshoe regime are coded by the sign of
Re(x) along the orbit; the coded sequences form the full 2-shift, so the
number S(n) of admissible length-n words grows like 2^n and the word
entropy lim (1/n) log S(n) equals log 2.  `itinerary_word_counts` counts
S(n) over the cycles of a periodic level straight from its x column, one
integer code per point and window length; `SymbolWord` and
`PeriodicSequence` carry the shift and the sequence metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .dynamics import MapParams, PointC2, Region, classify_region, henon_apply, \
    henon_inverse, is_horseshoe_regime
from .errors import CodingError, ContractError

# Support cutoff for metric sums over bi-infinite sequences; the tail beyond
# |j| = 64 is bounded by 2^-63, beneath double resolution of the sum.
_METRIC_CUTOFF = 64


@dataclass(frozen=True)
class SymbolWord:
    """Finite block of symbols; position j maps to bits[anchor + j]."""

    bits: tuple[int, ...]
    anchor: int = 0

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ContractError("symbols must be 0 or 1")
        if not 0 <= self.anchor <= len(self.bits):
            raise ContractError("anchor outside the word")

    def __len__(self) -> int:
        return len(self.bits)

    def support(self) -> range:
        return range(-self.anchor, len(self.bits) - self.anchor)

    def symbol(self, j: int) -> int:
        if j not in self.support():
            raise ContractError(f"position {j} outside support")
        return self.bits[self.anchor + j]

@dataclass(frozen=True)
class PeriodicSequence:
    """Bi-infinite periodic extension of a word; s_j = bits[(anchor + j) mod p]."""

    word: SymbolWord

    def __post_init__(self):
        if len(self.word) == 0:
            raise ContractError("empty period block")

    @property
    def period(self) -> int:
        return len(self.word)

    def symbol(self, j: int) -> int:
        p = self.period
        return self.word.bits[(self.word.anchor + j) % p]

def shift(s, k: int = 1):
    """Left shift by k: the new symbol at position j is the old one at j + k."""
    if isinstance(s, PeriodicSequence):
        p = s.period
        w = s.word
        return PeriodicSequence(SymbolWord(w.bits, anchor=(w.anchor + k) % p))
    new_anchor = s.anchor + k
    if not 0 <= new_anchor <= len(s.bits):
        raise ContractError("shift moves the anchor off the word")
    return SymbolWord(s.bits, anchor=new_anchor)


def sequence_metric(s, t) -> float:
    """Sum of |s_j - t_j| 2^-|j| over positions where both sequences are defined."""
    lo, hi = -_METRIC_CUTOFF, _METRIC_CUTOFF + 1
    for seq in (s, t):
        if isinstance(seq, SymbolWord):
            sup = seq.support()
            lo, hi = max(lo, sup.start), min(hi, sup.stop)
    total = 0.0
    for j in range(lo, hi):
        if s.symbol(j) != t.symbol(j):
            total += 2.0 ** (-abs(j))
    return total


def itinerary_word_counts(level, n_max: int) -> dict[int, int]:
    """S(n), n = 1..n_max: the distinct length-n windows of the sign
    itineraries of the cycles of a periodic level, read from its columns;
    a window wraps around its cycle."""
    c = level.columns
    # `_sign_symbol`'s rule; nan codes 1
    bits = (~(c.x.real < 0)).astype(np.int64)
    period = np.repeat(c.period, c.period)
    start = np.repeat(c.starts(), c.period)
    j = np.arange(len(bits)) - start
    code = 0  # the empty window
    counts = {}
    for n in range(1, n_max + 1):
        # each point's length-n window, one symbol more than its (n-1)-window
        code = 2 * code + bits[start + (j + n - 1) % period]
        # relabel the windows 0..k-1, so that codes never overflow
        words, code = np.unique(code, return_inverse=True)
        counts[n] = len(words)
    return counts


@dataclass(frozen=True)
class EntropyEstimate:
    point: float
    slope: float
    n_max: int


def entropy_estimate(word_counts: Mapping[int, int], n_max: int) -> EntropyEstimate:
    """Entropy proxy (1/n_max) log S(n_max), plus the least-squares slope of
    log S over the last three block lengths as a trend check."""
    if n_max < 3:
        raise ContractError("need n_max >= 3 for a slope estimate")
    logs = {}
    for n in (n_max - 2, n_max - 1, n_max):
        if n not in word_counts:
            raise ContractError(f"word_counts missing n = {n}")
        if word_counts[n] < 1:
            raise ContractError(f"S({n}) must be positive")
        logs[n] = math.log(word_counts[n])
    return EntropyEstimate(
        point=logs[n_max] / n_max,
        slope=0.5 * (logs[n_max] - logs[n_max - 2]),
        n_max=n_max,
    )


def code_orbit(p: PointC2, m: MapParams, n_back: int, n_fwd: int) -> SymbolWord:
    """Itinerary of p over positions -n_back .. n_fwd-1; symbol 1 iff Re(x) >= 0.

    Every visited iterate must stay in the bidisk B; leaving it means p is
    not on the invariant set and has no itinerary.
    """
    if not is_horseshoe_regime(m):
        raise CodingError("sign coding is only validated in the horseshoe regime")
    if n_back < 0 or n_fwd < 0 or n_back + n_fwd < 1:
        raise ContractError("window must cover at least one position")
    bits = []
    q = p
    for _ in range(n_back):
        q = henon_inverse(q, m)
        if classify_region(q, m.R) is not Region.B:
            raise CodingError("backward orbit leaves the bidisk")
        bits.append(_sign_symbol(q))
    bits.reverse()
    q = p
    for j in range(n_fwd):
        if j > 0:
            q = henon_apply(q, m)
        if classify_region(q, m.R) is not Region.B:
            raise CodingError("forward orbit leaves the bidisk")
        bits.append(_sign_symbol(q))
    return SymbolWord(tuple(bits), anchor=n_back)


def _sign_symbol(q: PointC2) -> int:
    return 0 if q.x.real < 0 else 1


def necklaces(n: int) -> Iterator[tuple[int, ...]]:
    """Binary necklaces of length n: lexicographically minimal cyclic words,
    yielded lazily in lexicographic order.

    Fredricksen-Kessler-Maiorana: the next prenecklace bumps the last 0 to
    1 and repeats the prefix up to it; a prenecklace is a necklace exactly
    when the length of that prefix divides n (Ruskey, Combinatorial
    Generation).
    """
    if n < 1:
        raise ContractError("length must be >= 1")
    return _fkm_necklaces(n)


def _fkm_necklaces(n: int) -> Iterator[tuple[int, ...]]:
    a = [0] * n
    yield tuple(a)
    while True:
        i = n - 1
        while i >= 0 and a[i] == 1:
            i -= 1
        if i < 0:
            return
        a[i] = 1
        p = i + 1
        for j in range(p, n):
            a[j] = a[j - p]
        if n % p == 0:
            yield tuple(a)
