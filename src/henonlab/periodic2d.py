"""Periodic orbits of the plane quadratic map.

A cycle is its x-sequence (y_j = x_{j-1}); enumeration runs damped Newton
on the closure system x_{j+1} + b x_{j-1} = a - x_j^2 in x alone, over
stacks of cycles, through the kernel of `cycles` that the one-variable
periodic points share; that kernel also blocks the stacks and decides
which cycles are one.  Fixed points come in closed form.  The levels a
command asks for are one census (`_Census`): each cycle is polished,
assembled (residuals, monodromy matrices, eigenvalues, a period at a
time), checked for its numerical minimal period and matched, by cyclic
alignment of x, against the other cycles of its period once.  Each level
reads its cycles from there and keeps a cycle that matches none it kept
before.
When the parameters pass the horseshoe test, the cycles come from binary
necklaces: a necklace w = r^(n/d) shadows the cycle of its primitive root
r, so every distinct root is seeded once (alternating square-root branches
along the itinerary), all in one padded sweep, and polished at its
minimal period d.  Elsewhere the cycles of the horseshoe census at
(a0, b) are continued to (a, b), each once, on the complex detours in a
of `cycles.continue_cycles`; every end is polished, but only one that
reached (a, b) is admitted, so a path lost on every detour leaves its
levels incomplete.  A level holds its cycles as columns
(`OrbitColumns`), which the measures, saddle tables and reality reports
read; `PeriodicOrbit` objects are built only when a caller asks for a
level's orbits.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .cycles import (continue_cycles, cyclic_neighbours, matches,
                     minimal_periods, newton_cycles)
from .dynamics import (MapParams, PointC2, derivative_along_orbit,
                       is_horseshoe_regime, monodromy_stack)
from .errors import ContractError, MapOverflowError
from .measures import DiscreteMeasure
from .symbolic import necklaces

REALITY_TOL = 1e-7
UNIT_BAND = 1e-8
ORBIT_CLASSES = ("saddle", "sink", "source", "nonhyperbolic")


@dataclass(frozen=True)
class PeriodicOrbit:
    """One periodic cycle: points in orbit order, minimal period, multipliers.

    multiplier_eigenvalues are the eigenvalues of the derivative of f^period
    at points[0], largest modulus first; their product has modulus |b|^period
    because every Jacobian factor has determinant b.  monodromy is that
    derivative, read-only, as the census assembled it (None on an orbit
    built by hand); it takes no part in equality, hashing or repr.
    """

    points: tuple
    period: int
    multiplier_eigenvalues: tuple
    orbit_class: str
    is_real: bool
    residual: float
    multiplicity: int = 1
    degenerate: bool = False
    monodromy: np.ndarray | None = field(default=None, compare=False,
                                         repr=False)

    def __post_init__(self):
        if self.period < 1 or len(self.points) != self.period:
            raise ContractError("period must match the point count")
        if self.orbit_class not in ORBIT_CLASSES:
            raise ContractError(f"unknown orbit class {self.orbit_class!r}")
        if self.multiplicity < 1:
            raise ContractError("multiplicity must be >= 1")


def _closure_residual(X: np.ndarray, a: complex, b: complex) -> np.ndarray:
    """max_j |f(p_j).x - x_{j+1}| of each cycle of the (k, d) stack X, in
    real and imaginary parts with the operation order of Python complex
    arithmetic and |.| as hypot, since the residual is reported to the last
    bit; a nan term is skipped, as Python's max skips it."""
    nxt, prv = cyclic_neighbours(X.shape[1])
    xr, xi = X.real, X.imag
    yr, yi = xr[:, prv], xi[:, prv]
    # -x*x + a - b*y - x_next, one rounding per Python complex operation
    fr = ((-xr) * xr - (-xi) * xi + a.real) - (b.real * yr - b.imag * yi)
    fi = ((-xr) * xi + (-xi) * xr + a.imag) - (b.real * yi + b.imag * yr)
    return np.fmax.reduce(np.hypot(fr - xr[:, nxt], fi - xi[:, nxt]),
                          axis=1, initial=0.0)


class OrbitColumns(NamedTuple):
    """Assembled cycles as columns, one cycle after another.  x holds every
    cycle's x-sequence back to back (y_j = x_{j-1} within a cycle, see
    `y`); the other columns hold one entry per cycle: period, the
    multipliers (largest modulus first), orbit_class as an index into
    ORBIT_CLASSES, is_real, residual, multiplicity and the read-only
    monodromy, shape (k, 2, 2)."""

    x: np.ndarray
    period: np.ndarray
    multipliers: np.ndarray
    orbit_class: np.ndarray
    is_real: np.ndarray
    residual: np.ndarray
    multiplicity: np.ndarray
    monodromy: np.ndarray

    def starts(self) -> np.ndarray:
        """The offset of each cycle's first point in x."""
        return np.cumsum(self.period) - self.period

    def prev(self) -> np.ndarray:
        """The index in x of each point's predecessor, cyclically within
        its cycle."""
        prev = np.arange(len(self.x)) - 1
        starts = self.starts()
        prev[starts] = starts + self.period - 1
        return prev

    def y(self) -> np.ndarray:
        """y_j = x_{j-1} of every point."""
        return self.x[self.prev()]

    def take(self, rows) -> OrbitColumns:
        """The cycles `rows`, in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        period = self.period[rows]
        # each taken cycle's points, shifted from its old offset to its new
        shift = self.starts()[rows] - (np.cumsum(period) - period)
        points = np.repeat(shift, period) + np.arange(period.sum())
        return OrbitColumns(self.x[points], *(col[rows] for col in self[1:]))


def _orbits(c: OrbitColumns) -> list:
    """The PeriodicOrbit of every cycle of the columns c, with points
    (x_j, x_{j-1}) and every field a Python scalar; a cycle of multiplicity
    above 1 (the double fixed point) is degenerate."""
    xs = c.x.tolist()
    out = []
    start = 0
    for i, (d, eigs, code, real, resid, mult) in enumerate(zip(
            c.period.tolist(), c.multipliers.tolist(), c.orbit_class.tolist(),
            c.is_real.tolist(), c.residual.tolist(),
            c.multiplicity.tolist())):
        x = xs[start:start + d]
        start += d
        out.append(PeriodicOrbit(tuple(map(PointC2, x, x[-1:] + x[:-1])), d,
                                 tuple(eigs), ORBIT_CLASSES[code], real,
                                 resid, mult, mult > 1, c.monodromy[i]))
    return out


def _assemble(m: MapParams, X,
              multiplicity: int = 1) -> tuple[np.ndarray, OrbitColumns]:
    """The polished (k, d) stack of cycles X, assembled in one pass: a row
    whose residual exceeds 1e-9 (1 + max|x|^2) is rejected; the rest get
    the monodromy from `monodromy_stack` (MapOverflowError past double
    range) and multipliers from one eigvals over the stack; every row bit
    for bit what it gives alone.  Returns the mask of rows that passed the
    gate and their columns."""
    X = np.asarray(X, dtype=complex)
    d = X.shape[1]
    resid = _closure_residual(X, m.a, m.b)
    scale = 1.0 + np.max(np.hypot(X.real, X.imag), axis=1) ** 2
    # a nan residual passes, as it did the scalar gate
    passed = ~(resid > 1e-9 * scale)
    G = X[passed]
    with np.errstate(over="ignore", invalid="ignore"):
        J = monodromy_stack(G, m.b)
    bad = ~np.all(np.isfinite(J), axis=(1, 2))
    if bad.any():
        x = G[bad][0]
        raise MapOverflowError(PointC2(x[0], x[-1]), (
            f"monodromy of a period-{d} cycle overflowed "
            f"(max |x| {np.max(np.abs(x)):.3e})"))
    J.flags.writeable = False
    eigs = (np.linalg.eigvals(J) if len(G)
            else np.empty((0, 2), dtype=complex))
    order = np.lexsort((eigs.imag, eigs.real, np.abs(eigs)))[:, ::-1]
    eigs = np.take_along_axis(eigs, order, axis=1)
    moduli = np.hypot(eigs.real, eigs.imag)
    # codes into ORBIT_CLASSES
    classes = np.where(
        np.any(np.abs(moduli - 1.0) <= UNIT_BAND, axis=1), 3,
        np.where(np.all(moduli < 1.0, axis=1), 1,
                 np.where(np.all(moduli > 1.0, axis=1), 2, 0))).astype(np.int8)
    kept = len(G)
    return passed, OrbitColumns(
        G.ravel(), np.full(kept, d), eigs, classes,
        np.all(np.abs(G.imag) < REALITY_TOL, axis=1), resid[passed],
        np.full(kept, multiplicity), J)


def _fixed_points(m: MapParams) -> tuple[np.ndarray, OrbitColumns]:
    """The fixed points from x = y, x^2 + (1+b)x - a = 0, assembled: a
    double root is one cycle of multiplicity 2, flagged degenerate."""
    beta = 1.0 + m.b
    disc = beta * beta + 4.0 * m.a
    if disc == 0:
        return _assemble(m, [[-0.5 * beta]], multiplicity=2)
    sq = cmath.sqrt(disc)
    if (beta.conjugate() * sq).real < 0.0:
        sq = -sq
    # stable split: the large root first, the small one via the product -a
    r1 = -0.5 * (beta + sq)
    r2 = -m.a / r1 if r1 != 0 else -beta
    return _assemble(m, [[r1], [r2]])


def fixed_points_closed_form(m: MapParams) -> list:
    """Fixed points in closed form, with classification: the orbits that
    pass the residual gate."""
    return _orbits(_fixed_points(m)[1])


def _newton_cycles(m: MapParams, X,
                   periods=None) -> tuple[np.ndarray, np.ndarray]:
    """`newton_cycles` on the closure systems of the map m."""
    return newton_cycles(X, lambda x: -x * x + m.a, lambda x: -2.0 * x, m.b,
                         periods)


def symbolic_orbit_seed(m: MapParams, bits, periods=None):
    """Shadowing seed for the cycle with itinerary `bits` (horseshoe only).

    Solves x_j^2 = a - x_{j+1} - b x_{j-1} cyclically by 60 branch-respecting
    square-root sweeps; the branch argument stays off the cut because the
    horseshoe test guarantees |a| clears (1+|b|)R.  Returns the candidate
    cycle's x_j; a (k, n) stack of itineraries gives a (k, n) stack.  With
    `periods`, row i holds an itinerary of period periods[i] in its first
    slots, and its seed there, 0 in the padded slots after them.  The
    sweeps run over the cycle slots alone, each with its own neighbours,
    so each row is bit for bit its lone seed.
    """
    bits = np.asarray(bits)
    rows = bits.reshape(-1, bits.shape[-1])
    if periods is None:
        periods = np.full(len(rows), rows.shape[1])
    # the cycle slots back to back, as OrbitColumns lays out x, each with
    # its neighbours in its own cycle
    periods = np.asarray(periods)
    cyc = np.arange(rows.shape[1]) < periods[:, None]
    starts = np.repeat(np.cumsum(periods) - periods, periods)
    length = np.repeat(periods, periods)
    j = np.arange(len(starts)) - starts
    nxt, prv = starts + (j + 1) % length, starts + (j - 1) % length
    sign = np.where(rows[cyc] == 1, 1.0, -1.0).astype(complex)
    x = sign * cmath.sqrt(abs(m.a))
    for _ in range(60):
        x = sign * np.sqrt(m.a - x[nxt] - m.b * x[prv])
    out = np.zeros(rows.shape, dtype=complex)
    out[cyc] = x
    return out.reshape(bits.shape)


@dataclass(frozen=True, eq=False)
class PeriodicLevel:
    """All solutions of f^n(p) = p found for one n, grouped into cycles.

    columns holds the cycles in the order the census admitted them;
    `orbits` builds their PeriodicOrbits on first access.  Two levels are
    equal when their counts and columns are, the monodromy aside, as
    PeriodicOrbit compares.

    attempts counts necklaces in the horseshoe regime and continuation
    paths elsewhere.  The census counters: lower_period (necklaces whose
    primitive period is below n, and cycles that Newton brought to a lower
    period than they were polished at; each is taken at that period),
    residual_rejected (rows past the residual gate of `_assemble`) and
    duplicates (cycles that matched one kept before).  The continuation
    counters stay 0 on the itinerary path; each sums over the level's own
    paths: paths_lost (lost on every detour, its end polished but not
    admitted), paths_retried (rerun on a later detour), and step_halvings
    and steps_accepted (over every detour the path ran).
    """

    n: int
    columns: OrbitColumns
    fixed_point_count: int
    complete: bool
    attempts: int
    lower_period: int = 0
    residual_rejected: int = 0
    duplicates: int = 0
    paths_lost: int = 0
    step_halvings: int = 0
    paths_retried: int = 0
    steps_accepted: int = 0

    # for library callers and the benchmark tracer (perfbench/spans.py);
    # no command or criterion reads it
    @functools.cached_property
    def orbits(self) -> tuple:
        return tuple(_orbits(self.columns))

    def minimal_point_count(self, saddles_only: bool = False) -> int:
        c = self.columns
        keep = c.period == self.n
        if saddles_only:
            keep &= c.orbit_class == ORBIT_CLASSES.index("saddle")
        return int(np.sum(c.period[keep] * c.multiplicity[keep]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PeriodicLevel):
            return NotImplemented
        return (all(getattr(self, f.name) == getattr(other, f.name)
                    for f in fields(self) if f.name != "columns")
                and all(np.array_equal(getattr(self.columns, name),
                                       getattr(other.columns, name))
                        for name in OrbitColumns._fields
                        if name != "monodromy"))


# a candidate's pool row when it has no cycle: not reached or not polished
# (at its own period, or at the lower one it was re-polished at), or past
# the residual gate
NO_CYCLE = -1
REJECTED = -2


class _Census:
    """One command's cycles, each admitted once, and the levels read from
    them.

    Candidates are itinerary roots or continuation paths, numbered in the
    order levels offer them: row i of the padded stack X holds candidate
    i polished at period periods[i], ok where it may be admitted (its
    polish converged and, for a path, it reached its end).  Each
    candidate's admission is decided once: its numerical minimal period
    (a cycle below the period it was polished at is re-polished there)
    and the residual gate of `_assemble`.  Every admitted cycle is a row
    of one pool of columns, the closed-form fixed points first, and
    `matches` relates each pool row to the rows of its period it matches,
    once.

    A level walks its own candidates through those decisions and keeps a
    cycle that matches none it kept before, as a census of that level
    alone does.
    """

    def __init__(self, m: MapParams, X, periods, ok):
        passed, fixed = _fixed_points(m)
        self.fixed_rejected = int(np.count_nonzero(~passed))
        # per candidate: its cycle's numerical minimal period (0 when not
        # polished), at which it is re-polished when below its own, and
        # its pool row
        low = np.zeros(len(X), dtype=np.int64)
        for d in sorted(set(periods[ok].tolist())):
            ids = np.flatnonzero(ok & (periods == d))
            low[ids] = minimal_periods(X[ids, :d])
        lower = np.flatnonzero(ok & (low < periods))
        X, ok = X.copy(), ok.copy()
        X[lower], ok[lower] = _newton_cycles(m, X[lower], low[lower])
        row = np.full(len(X), NO_CYCLE)
        parts = [fixed]
        size = len(fixed.period)
        for e in sorted(set(low[ok].tolist())):
            ids = np.flatnonzero(ok & (low == e))
            passed, cols = _assemble(m, X[ids, :e])
            row[ids[~passed]] = REJECTED
            ids = ids[passed]
            row[ids] = size + np.arange(len(ids))
            parts.append(cols)
            size += len(ids)
        self.pool = OrbitColumns(*map(np.concatenate, zip(*parts)))
        # the pool rows each row matches, for the rows that match one
        self._near = {}
        period, starts = self.pool.period, self.pool.starts()
        for d in sorted(set(period.tolist())):
            rows = np.flatnonzero(period == d)
            near = matches(self.pool.x[starts[rows, None] + np.arange(d)])
            rows = rows.tolist()
            self._near.update((rows[i], [rows[j] for j in js])
                              for i, js in near.items())
        self._period = period.tolist()
        self._mult = self.pool.multiplicity.tolist()
        self._fixed = list(range(len(fixed.period)))
        self._length, self._low, self._row = (
            periods.tolist(), low.tolist(), row.tolist())

    def walk(self, n: int, cands, paths: bool = False) -> tuple[list, dict]:
        """Level n's census: the fixed points, then each candidate's cycle
        in order.  Necklaces of length n are offered at period n and stop
        once the level is complete; paths are offered at their own period
        and all run.  Returns the pool rows kept, in admission order, and
        the census counters of PeriodicLevel by name."""
        period, mult, near = self._period, self._mult, self._near
        rows = list(self._fixed)
        kept = set(rows)
        count = sum(mult[r] for r in rows)
        attempts = lower = duplicates = 0
        rejected = self.fixed_rejected
        for c in cands:
            if not paths and count >= 2 ** n:
                break
            attempts += 1
            if not self._low[c]:
                continue
            lower += self._low[c] < (self._length[c] if paths else n)
            r = self._row[c]
            rejected += r == REJECTED
            if r < 0:
                continue
            if kept.isdisjoint(near.get(r, ())):
                rows.append(r)
                kept.add(r)
                count += period[r] * mult[r]
            else:
                duplicates += 1
        return rows, {"fixed_point_count": count, "complete": count >= 2 ** n,
                      "attempts": attempts, "lower_period": lower,
                      "residual_rejected": rejected,
                      "duplicates": duplicates}

    def level(self, n: int, walked: tuple, **counters) -> PeriodicLevel:
        """Level n from its `walk`, the columns in one gather, with further
        counters of PeriodicLevel by name."""
        rows, walk_counters = walked
        cols = self.pool.take(rows)
        for col in cols:
            col.flags.writeable = False
        return PeriodicLevel(n, cols, **walk_counters, **counters)


def _roots(words, n: int) -> list:
    """The primitive root r of each word w = r^(n/d) of length n."""
    below = [d for d in range(1, n) if n % d == 0]
    return [next((w[:d] for d in below if w[:d] * (n // d) == w), w)
            for w in words]


def _itinerary_census(m: MapParams, ns, budget: int) -> tuple:
    """The census of levels ns in the horseshoe regime: the first `budget`
    necklaces of each level, each reduced to its primitive root r
    (w = r^(n/d), which shadows the cycle of r), every distinct root
    seeded in one padded sweep, then polished and assembled a period at a
    time.  Returns the census and each level's root numbers in necklace
    order.  w -> w^k keeps necklace order, so the roots of period d a level
    offers are the first ones of the command's, in the same order."""
    words = {n: _roots(itertools.islice(necklaces(n), budget), n)
             for n in ns}
    roots = sorted({r for rs in words.values() for r in rs},
                   key=lambda r: (len(r), r))
    number = {r: i for i, r in enumerate(roots)}
    periods = np.array([len(r) for r in roots])
    bits = np.zeros((len(roots), periods[-1]), dtype=np.int8)
    for i, r in enumerate(roots):
        bits[i, :len(r)] = r
    X, ok = _newton_cycles(m, symbolic_orbit_seed(m, bits, periods=periods),
                           periods)
    return (_Census(m, X, periods, ok),
            {n: [number[r] for r in rs] for n, rs in words.items()})


# Continuation from a horseshoe start (a0, b) to the target (a1, b) on the
# detours a0 -> a1 of `continue_cycles`, with these kappa, scaled up with
# the path past START_A: a path lost on the first reruns on the second, not
# on the conjugate detour, which at real parameters loses the same paths.
# The family is p(x, a) = a - x^2, with its derivatives in x and in a.
START_A = 10.0
DETOURS = (2j, 1j)
QUADRATIC = (lambda X, A: -X * X + A, lambda X, A: -2.0 * X,
             lambda X, A: 1.0)


def _start_parameter(b: complex) -> float:
    """The first of START_A, 2 START_A, 4 START_A, ... at which (a0, b)
    passes the horseshoe test."""
    a0 = START_A
    while not is_horseshoe_regime(MapParams(a0, b)):
        a0 *= 2.0
        if math.isinf(a0):
            raise ContractError(f"no horseshoe start parameter for b = {b}")
    return a0


def _continued_levels(m: MapParams, ns, budget: int) -> list:
    """Levels ns off the horseshoe.  The start levels' cycles of period
    >= 2 at (a0, b) are the paths, one per cycle of the start census,
    continued to m in one padded stack on the DETOURS, then polished,
    assembled and admitted as one census at m, each level offered its
    paths in the order of its own start level.

    Each kappa is scaled by max(1, |a - a0| / START_A): a fixed detour
    leaves a long path all but real, and it runs into the real collisions
    it should avoid (a0 = 10 -> a = -1e4, or a0 = 2.6e6 -> 1.4 at b = 1e3,
    came out with 2 of 2^n points).  Scaling by |a - a0| / |a0| instead
    left the second kind short.  Up to |a - a0| = START_A the factor is
    exactly 1 and the paths are unchanged."""
    a0 = _start_parameter(m.b)
    start, words = _itinerary_census(MapParams(a0, m.b), ns, budget)
    kept = [[r for r in start.walk(n, words[n])[0]
             if start.pool.period[r] > 1] for n in ns]
    rows = sorted({r for rs in kept for r in rs})
    path = {r: i for i, r in enumerate(rows)}
    firsts = start.pool.take(rows)
    periods = firsts.period
    X0 = np.zeros((len(rows), max(periods, default=1)), dtype=complex)
    X0[np.arange(X0.shape[1]) < periods[:, None]] = firsts.x
    scale = max(1.0, abs(m.a - a0) / START_A)
    X, reached, runs, halvings, accepted = continue_cycles(
        X0, QUADRATIC, [(a0, m.a, kappa * scale) for kappa in DETOURS], m.b,
        periods)
    # a stalled end is polished as well, but not admitted
    X, ok = _newton_cycles(m, X, periods)
    census = _Census(m, X, periods, ok & reached)
    levels = []
    for n, rs in zip(ns, kept):
        ids = [path[r] for r in rs]
        levels.append(census.level(
            n, census.walk(n, ids, paths=True),
            paths_lost=int(np.count_nonzero(~reached[ids])),
            step_halvings=int(halvings[ids].sum()),
            paths_retried=int(np.count_nonzero(runs[ids] > 1)),
            steps_accepted=int(accepted[ids].sum())))
    return levels


def periodic_levels(m: MapParams, ns, budget: int = 2048) -> list:
    """`periodic_points_2d(m, n, budget)` for each n in ns, in order, built
    as one census: in the horseshoe regime each primitive itinerary is
    seeded, polished and assembled once, elsewhere each start cycle is
    continued once, for all levels."""
    ns = list(ns)
    if any(n < 1 for n in ns):
        raise ContractError("n must be >= 1")
    if budget < 1:
        raise ContractError("budget must be >= 1")
    if not ns:
        return []
    if is_horseshoe_regime(m):
        census, words = _itinerary_census(m, ns, budget)
        return [census.level(n, census.walk(n, words[n])) for n in ns]
    return _continued_levels(m, ns, budget)


def periodic_points_2d(m: MapParams, n: int,
                       budget: int = 2048) -> PeriodicLevel:
    """Enumerate fixed points of f^n, at most `budget` seeds or paths.

    Closed-form fixed points enter directly; every other orbit must come
    out of a converged Newton run.  In the horseshoe regime the seeds are
    itineraries and enumeration stops once the multiplicity-weighted count
    reaches 2^n; elsewhere the horseshoe level is continued to m.  A
    shortfall is flagged, never padded.
    """
    return periodic_levels(m, [n], budget)[0]


def mu_n_measure(level: PeriodicLevel) -> DiscreteMeasure:
    """Equal weights 2^-n on the fixed points of f^n, multiplicity-weighted:
    each point of an orbit counts its multiplicity over 2^n."""
    c = level.columns
    if not len(c.x):
        raise ContractError("level carries no points")
    return DiscreteMeasure(np.stack([c.x, c.y()], axis=1),
                           np.repeat(c.multiplicity, c.period), 2 ** level.n,
                           2, level.complete, f"mu_n(n={level.n})")


@dataclass(frozen=True)
class SaddleRow:
    n: int
    saddle_count: int
    ratio: float
    complete: bool


@dataclass(frozen=True)
class SaddleRatioTable:
    rows: tuple
    verdict: str


def saddle_table(levels) -> SaddleRatioTable:
    """Minimal-period saddle counts against 2^n from enumerated levels."""
    rows = []
    for level in levels:
        cnt = level.minimal_point_count(saddles_only=True)
        rows.append(SaddleRow(level.n, cnt, cnt / 2.0 ** level.n,
                              level.complete))
    if not rows:
        raise ContractError("no levels to tabulate")
    if not all(r.complete for r in rows):
        verdict = "inconclusive"
    else:
        late = [r.ratio for r in rows if r.n >= 3]
        if late and min(late) >= 0.7 and rows[-1].ratio >= 0.8:
            verdict = "consistent with limit 1"
        else:
            verdict = "below trend"
    return SaddleRatioTable(tuple(rows), verdict)


@dataclass(frozen=True)
class RealityRow:
    n: int
    complete: bool
    orbit_count: int
    max_imag: float
    worst_condition: float


@dataclass(frozen=True)
class RealityReport:
    rows: tuple
    all_real: bool
    nonreal_periods: tuple
    verdict: str


def _fixed_point_conditions(J: np.ndarray) -> list:
    """cond(J - I) of each monodromy of the (k, 2, 2) stack J, one stacked
    call; an SVD that fails to converge counts as infinitely
    ill-conditioned."""
    if not len(J):
        return []
    try:
        return np.linalg.cond(J - np.eye(2)).tolist()
    except np.linalg.LinAlgError:
        out = []
        for Ji in J:
            try:
                out.append(float(np.linalg.cond(Ji - np.eye(2))))
            except np.linalg.LinAlgError:
                out.append(math.inf)
        return out


def reality_table(m: MapParams, levels) -> RealityReport:
    """Are all periodic points real?  all real -> full-shift entropy log 2;
    any nonreal point -> strictly smaller entropy expected.

    Reads the columns of enumerated levels, one row each: the minimal
    cycles' x (a cycle's y are its x in another order, so max_imag is the
    largest |Im x|), is_real and monodromy.  A nonreal finding stands even
    when enumeration is incomplete; the all-real verdict needs every level
    complete, else "inconclusive".
    """
    if m.a.imag != 0.0 or m.b.imag != 0.0:
        raise ContractError("reality report needs real parameters")
    rows = []
    nonreal = set()
    all_complete = True
    any_nonreal = False
    for level in levels:
        c = level.columns
        minimal = c.period == level.n
        on_minimal = np.repeat(minimal, c.period)
        worst_imag = float(np.max(np.abs(c.x[on_minimal].imag), initial=0.0))
        # Python's max passes over a nan condition; np.max would return it
        worst_cond = max([0.0, *_fixed_point_conditions(c.monodromy[minimal])])
        if not c.is_real[minimal].all():
            any_nonreal = True
            nonreal.add(level.n)
        rows.append(RealityRow(level.n, level.complete,
                               int(np.count_nonzero(minimal)), worst_imag,
                               worst_cond))
        all_complete = all_complete and level.complete
    if not rows:
        raise ContractError("no levels to tabulate")
    if any_nonreal:
        verdict = "entropy < log 2 expected"
    elif all_complete:
        verdict = "log 2"
    else:
        verdict = "inconclusive"
    return RealityReport(tuple(rows), not any_nonreal, tuple(sorted(nonreal)),
                         verdict)


def reality_conditions_report(m: MapParams, n_max: int,
                              budget: int = 2048) -> RealityReport:
    """Enumerate levels 1..n_max and tabulate their reality conditions."""
    if m.a.imag != 0.0 or m.b.imag != 0.0:
        raise ContractError("reality report needs real parameters")
    if n_max < 1:
        raise ContractError("n_max must be >= 1")
    levels = periodic_levels(m, range(1, n_max + 1), budget)
    return reality_table(m, levels)


def _runs(mask: np.ndarray):
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return []
    cuts = np.flatnonzero(np.diff(idx) > 1)
    return np.split(idx, cuts + 1)


def unstable_disk_sample(orbit: PeriodicOrbit, m: MapParams, steps: int,
                         samples: int, backward: bool = False) -> np.ndarray:
    """Push a radius-1e-6 seed along the expanding eigenvector through
    `steps` map applications, arclength-resampled to `samples` points per
    step, discarding anything with sup-norm beyond 4R.  Returns the union
    cloud as an (N, 2) complex array sorted lexicographically.

    backward=True runs the inverse map from the contracting eigenvector,
    which traces the stable side instead.
    """
    if orbit.orbit_class != "saddle":
        raise ContractError("manifold sampling needs a saddle orbit")
    if steps < 1 or samples < 8:
        raise ContractError("need steps >= 1 and samples >= 8")
    J = derivative_along_orbit(orbit.points, m)
    w, V = np.linalg.eig(J)
    order = np.argsort(-np.abs(w))
    pick = order[1] if backward else order[0]
    lam = w[pick]
    if (abs(lam) <= 1.0) if not backward else (abs(lam) >= 1.0):
        raise ContractError("selected eigenvalue is not on the expanding side")
    v = V[:, pick]
    # rotate the eigenvector phase so a real manifold gets a real chart
    lead = v[np.argmax(np.abs(v))]
    v = v * (lead.conjugate() / abs(lead))
    v = v / max(abs(v[0]), abs(v[1]))
    p0 = orbit.points[0]
    radius = 1e-6
    base = min(samples, 257)
    real_chart = orbit.is_real and float(np.max(np.abs(v.imag))) < 1e-9
    if real_chart:
        ts = radius * np.linspace(-1.0, 1.0, base).astype(complex)
    else:
        ts = radius * np.exp(2j * math.pi * np.linspace(0.0, 1.0, base))
    xs = p0.x + ts * v[0]
    ys = p0.y + ts * v[1]
    lim = 4.0 * m.R
    a, b = m.a, m.b
    cycle_x = np.array([p.x for p in orbit.points])
    cycle_y = np.array([p.y for p in orbit.points])
    cloud_x = [cycle_x]
    cloud_y = [cycle_y]
    for _ in range(steps):
        if backward:
            xs, ys = ys, (a - ys * ys - xs) / b
        else:
            xs, ys = -xs * xs + a - b * ys, xs
        keep = np.maximum(np.abs(xs), np.abs(ys)) <= lim
        pieces = [(xs[run], ys[run]) for run in _runs(keep)]
        if not pieces:
            break
        segs = [np.sqrt(np.abs(np.diff(px)) ** 2 + np.abs(np.diff(py)) ** 2)
                for px, py in pieces]
        lengths = [float(seg.sum()) for seg in segs]
        total_len = sum(lengths)
        new_x, new_y = [], []
        for (px, py), seg, ln in zip(pieces, segs, lengths):
            if ln > 0.0:
                # uniform-arclength resampling: a run of positive length
                # has two points or more and a positive cumulative length
                quota = max(2, int(samples * ln / total_len) + 1)
                s = np.concatenate([[0.0], np.cumsum(seg)])
                t = np.linspace(0.0, s[-1], quota)
                px = np.interp(t, s, px.real) + 1j * np.interp(t, s, px.imag)
                py = np.interp(t, s, py.real) + 1j * np.interp(t, s, py.imag)
            new_x.append(px)
            new_y.append(py)
        xs = np.concatenate(new_x)
        ys = np.concatenate(new_y)
        cloud_x.append(xs)
        cloud_x.append(cycle_x)
        cloud_y.append(ys)
        cloud_y.append(cycle_y)
    cx = np.concatenate(cloud_x)
    cy = np.concatenate(cloud_y)
    order = np.lexsort((cy.imag, cy.real, cx.imag, cx.real))
    return np.stack([cx[order], cy[order]], axis=1)


def negative_fixed_point(m: MapParams) -> PeriodicOrbit:
    """The fixed-point orbit on the symbol-0 side (x.real < 0)."""
    for orb in fixed_points_closed_form(m):
        if orb.points[0].x.real < 0:
            return orb
    raise ContractError("no fixed point with negative real part")


def cylinder_point_measure(m: MapParams, level: int) -> DiscreteMeasure:
    """Pushforward of the level-n cylinder weights to phase space.

    Each length-2n itinerary window is extended by 15 zeros on both sides,
    clamped at the window ends to the symbol-0 fixed point, and shadowed
    by 80 square-root sweeps; the box's mass 4^-n lands on the resulting
    center point (x_0, x_{-1}).
    """
    if level < 1:
        raise ContractError("level must be >= 1")
    if not is_horseshoe_regime(m):
        raise ContractError("cylinder pushforward needs horseshoe-regime "
                            "parameters")
    x_fix = negative_fixed_point(m).points[0].x
    n_words = 4 ** level
    buffer = 15
    window = 2 * level + 2 * buffer
    codes = np.arange(n_words)
    bits = (codes[:, None] >> np.arange(2 * level)[None, ::-1]) & 1
    signs = np.full((n_words, window), -1.0, dtype=complex)
    signs[:, buffer:buffer + 2 * level] = np.where(bits == 1, 1.0, -1.0)
    x = signs * cmath.sqrt(abs(m.a))
    pad = np.full((n_words, 1), complex(x_fix))
    for _ in range(80):
        ext = np.concatenate([pad, x, pad], axis=1)
        x = signs * np.sqrt(m.a - ext[:, 2:] - m.b * ext[:, :-2])
    mid = buffer + level
    pts = np.stack([x[:, mid], x[:, mid - 1]], axis=1)
    return DiscreteMeasure(pts, np.ones(n_words, dtype=np.int64), n_words, 2,
                           True, f"cylinder_push(level={level})")
