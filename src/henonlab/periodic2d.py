"""Periodic orbits of the plane quadratic map.

A cycle is its x-sequence (y_j = x_{j-1}); enumeration runs damped Newton
on the closure system x_{j+1} + b x_{j-1} = a - x_j^2 in x alone, over
stacks of cycles, through the kernel of `cycles` that the one-variable
periodic points share.  Fixed points come in closed form.  When the
parameters pass the horseshoe test, every other cycle comes from one
shadowing seed per binary necklace (alternating square-root branches along
the itinerary), a level in one stacked sweep and one stacked Newton.
Elsewhere the horseshoe levels at (a0, b) are continued to (a, b) along a
complex detour in a ("gamma trick" homotopy of Sommese-Wampler, The
Numerical Solution of Systems of Polynomials, 2005), each start cycle once
per set of levels; a path lost on both detours leaves its levels
incomplete.  Orbits are assembled in the same stacks (residuals,
monodromy matrices, eigenvalues, y_j), deduplicate by cyclic alignment of
x, and aggregate into measures, saddle tables and reality reports.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .cycles import (block_rows, continue_cycles, cyclic_neighbours,
                     newton_cycles)
from .dynamics import (MapParams, PointC2, derivative_along_orbit,
                       is_horseshoe_regime, monodromy_stack)
from .errors import ContractError, MapOverflowError
from .measures import DiscreteMeasure
from .symbolic import necklaces

DEDUP_TOL = 1e-7
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

    @property
    def max_imag(self) -> float:
        return max(max(abs(p.x.imag), abs(p.y.imag)) for p in self.points)


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


def _assemble(m: MapParams, X, multiplicity: int = 1,
              degenerate: bool = False) -> list:
    """Orbits of the polished (k, d) stack of cycles X in one pass: None
    for a row whose residual exceeds 1e-9 (1 + max|x|^2), else points
    (x_j, x_{j-1}), the monodromy from `monodromy_stack` (MapOverflowError
    past double range) and multipliers from one eigvals over the stack;
    every row bit for bit what it gives alone."""
    X = np.asarray(X, dtype=complex)
    k, d = X.shape
    _, prv = cyclic_neighbours(d)
    resid = _closure_residual(X, m.a, m.b)
    scale = 1.0 + np.max(np.hypot(X.real, X.imag), axis=1) ** 2
    # a nan residual passes, as it did the scalar gate
    good = np.flatnonzero(~(resid > 1e-9 * scale))
    with np.errstate(over="ignore", invalid="ignore"):
        J = monodromy_stack(X[good], m.b)
    bad = ~np.all(np.isfinite(J), axis=(1, 2))
    if bad.any():
        x = X[good][bad][0]
        raise MapOverflowError(PointC2(x[0], x[-1]), (
            f"monodromy of a period-{d} cycle overflowed "
            f"(max |x| {np.max(np.abs(x)):.3e})"))
    J.flags.writeable = False
    eigs = (np.linalg.eigvals(J) if len(good)
            else np.empty((0, 2), dtype=complex))
    order = np.lexsort((eigs.imag, eigs.real, np.abs(eigs)))[:, ::-1]
    eigs = np.take_along_axis(eigs, order, axis=1)
    moduli = np.hypot(eigs.real, eigs.imag)
    classes = np.where(
        np.any(np.abs(moduli - 1.0) <= UNIT_BAND, axis=1), "nonhyperbolic",
        np.where(np.all(moduli < 1.0, axis=1), "sink",
                 np.where(np.all(moduli > 1.0, axis=1), "source", "saddle")))
    real = np.all(np.abs(X[good].imag) < REALITY_TOL, axis=1)
    out = [None] * k
    for r, i in enumerate(good.tolist()):
        points = tuple(map(PointC2, X[i].tolist(), X[i, prv].tolist()))
        out[i] = PeriodicOrbit(points, d, tuple(eigs[r].tolist()),
                               str(classes[r]), bool(real[r]),
                               float(resid[i]), multiplicity, degenerate,
                               J[r])
    return out


def _build_orbit(x, m: MapParams, multiplicity: int = 1,
                 degenerate: bool = False) -> PeriodicOrbit | None:
    """`_assemble` on the one cycle x: its orbit, or None past the gate."""
    return _assemble(m, np.asarray(x, dtype=complex)[None],
                     multiplicity, degenerate)[0]


def fixed_points_closed_form(m: MapParams):
    """Fixed points from x = y, x^2 + (1+b)x - a = 0, with classification."""
    beta = 1.0 + m.b
    disc = beta * beta + 4.0 * m.a
    if disc == 0:
        return [_build_orbit([-0.5 * beta], m, multiplicity=2,
                             degenerate=True)]
    sq = cmath.sqrt(disc)
    if (beta.conjugate() * sq).real < 0.0:
        sq = -sq
    # stable split: the large root first, the small one via the product -a
    r1 = -0.5 * (beta + sq)
    r2 = -m.a / r1 if r1 != 0 else -beta
    return [o for o in _assemble(m, [[r1], [r2]]) if o is not None]


def _newton_cycles(m: MapParams, X) -> tuple[np.ndarray, np.ndarray]:
    """`newton_cycles` on the closure systems of the map m."""
    return newton_cycles(X, lambda x: -x * x + m.a, lambda x: -2.0 * x, m.b)


def symbolic_orbit_seed(m: MapParams, bits, sweeps: int = 60):
    """Shadowing seed for the cycle with itinerary `bits` (horseshoe only).

    Solves x_j^2 = a - x_{j+1} - b x_{j-1} cyclically by branch-respecting
    square-root sweeps; the branch argument stays off the cut because the
    horseshoe test guarantees |a| clears (1+|b|)R.  Returns the candidate
    cycle's x_j; a (k, n) stack of itineraries gives a (k, n) stack, each
    row bit for bit its lone seed.
    """
    sign = np.where(np.asarray(bits) == 1, 1.0, -1.0).astype(complex)
    nxt, prv = cyclic_neighbours(sign.shape[-1])
    x = sign * cmath.sqrt(abs(m.a))
    for _ in range(sweeps):
        x = sign * np.sqrt(m.a - x[..., nxt] - m.b * x[..., prv])
    return x


def _minimal_period(x: np.ndarray, n: int) -> int:
    """The least d | n with x shifted by d within DEDUP_TOL of x (as
    y_j = x_{j-1}, the y shift moves no further)."""
    for d in range(1, n):
        if n % d == 0 and all(abs(x[j] - x[(j + d) % n]) <= DEDUP_TOL
                              for j in range(n)):
            return d
    return n


def _same_cycle(points_a, points_b, tol: float = DEDUP_TOL) -> bool:
    """Do two cycles of PointC2s match under some cyclic shift?  Their x
    alone decide, as in `_minimal_period`."""
    d = len(points_a)
    if d != len(points_b):
        return False
    xa = [p.x for p in points_a]
    xb = [p.x for p in points_b] * 2
    return any(all(abs(u - v) <= tol for u, v in zip(xa, xb[shift:]))
               for shift in range(d))


def _dedup_cell(z: complex) -> int | float:
    """Strip of width 2*DEDUP_TOL holding Re z.  A point within DEDUP_TOL of
    z lies in the same strip or a neighbouring one."""
    q = z.real / (2.0 * DEDUP_TOL)
    # past ~3.6e301 the quotient overflows; such points match only
    # themselves, so the infinite quotient serves as its own key
    return math.floor(q) if math.isfinite(q) else q


# kept cycles around a candidate's first point past which `_CycleIndex.has`
# looks for a less crowded point to probe from
CROWDED = 8


class _CycleIndex:
    """Kept cycles bucketed by (period, strip of Re x) of each of their points.

    A match under any shift puts every candidate point within DEDUP_TOL of
    a point of the kept cycle, so the kept cycle sits in that point's strip
    or a neighbour, whichever candidate point is taken.  `has` probes from
    the first point, or, when more than CROWDED kept cycles surround it
    (long cycles that shadow a fixed point share its strips), from the
    candidate point with the fewest around it, and runs `_same_cycle` only
    on those; the answer equals a scan over every kept cycle.
    """

    def __init__(self):
        self._cells: dict[tuple, list] = {}

    def add(self, points) -> None:
        d = len(points)
        for c in {_dedup_cell(p.x) for p in points}:
            self._cells.setdefault((d, c), []).append(points)

    def _around(self, d: int, z: complex) -> list:
        c = _dedup_cell(z)
        return [self._cells.get((d, k), ()) for k in (c - 1, c, c + 1)]

    def match(self, cycle):
        """The first kept cycle matching `cycle`, or None."""
        d = len(cycle)
        near = self._around(d, cycle[0].x)
        crowd = sum(map(len, near))
        if crowd > CROWDED:
            for p in cycle[1:]:
                other = self._around(d, p.x)
                size = sum(map(len, other))
                if size < crowd:
                    near, crowd = other, size
        return next((kept for bucket in near for kept in bucket
                     if _same_cycle(cycle, kept)), None)

    def has(self, cycle) -> bool:
        return self.match(cycle) is not None


@dataclass(frozen=True)
class PeriodicLevel:
    """All solutions of f^n(p) = p found for one n, grouped into cycles.

    attempts counts itinerary seeds in the horseshoe regime and continuation
    paths elsewhere.  The continuation counters stay 0 on the itinerary
    path; each sums over the level's own paths: paths_lost (lost on both
    detours), step_halvings and steps_accepted (both detours), and
    paths_retried (lost on the first detour).
    """

    n: int
    orbits: tuple
    fixed_point_count: int
    complete: bool
    attempts: int
    paths_lost: int = 0
    step_halvings: int = 0
    paths_retried: int = 0
    steps_accepted: int = 0

    @property
    def minimal_orbits(self) -> tuple:
        return tuple(o for o in self.orbits if o.period == self.n)

    @property
    def fixed_points(self) -> list:
        return [p for o in self.orbits for p in o.points]

    def minimal_point_count(self, saddles_only: bool = False) -> int:
        total = 0
        for o in self.minimal_orbits:
            if saddles_only and o.orbit_class != "saddle":
                continue
            total += o.period * o.multiplicity
        return total


class _Census:
    """One level's orbits as they are admitted: the closed-form fixed
    points first, then every Newton-polished cycle that survives the
    minimal-period check, the residual gate of `_assemble` and the dedup
    index."""

    def __init__(self, m: MapParams, n: int):
        self.m = m
        self.n = n
        self.orbits: list[PeriodicOrbit] = []
        self.kept = _CycleIndex()
        self.count = 0
        for orb in fixed_points_closed_form(m):
            if orb is not None:
                self._keep(orb)

    @property
    def complete(self) -> bool:
        return self.count >= 2 ** self.n

    def _keep(self, orb: PeriodicOrbit) -> None:
        self.orbits.append(orb)
        self.kept.add(orb.points)
        self.count += orb.period * orb.multiplicity

    def try_cycle(self, x: np.ndarray, orb: PeriodicOrbit | None) -> None:
        """Admit the polished cycle x, whose `_assemble` row gave orb."""
        d = _minimal_period(x, len(x))
        if d < len(x):
            # re-polish at the minimal period: detection tolerance is looser
            # than the orbit residual gate
            X, ok = _newton_cycles(self.m, x[None, :d])
            if not ok[0]:
                return
            orb = _build_orbit(X[0], self.m)
        if orb is not None and not self.kept.has(orb.points):
            self._keep(orb)

    def level(self, attempts: int, **counters: int) -> PeriodicLevel:
        """The level, with PeriodicLevel's continuation counters by name."""
        return PeriodicLevel(self.n, tuple(self.orbits), self.count,
                             self.complete, attempts, **counters)


def _itinerary_level(m: MapParams, n: int, budget: int) -> PeriodicLevel:
    """Newton from one shadowing seed per necklace (horseshoe only): the
    first `budget` necklaces are seeded, polished and assembled a block at a
    time (one seed call when they fit one block) and admitted in necklace
    order until the census is complete; `attempts` counts those admitted.
    """
    census = _Census(m, n)
    words = itertools.islice(necklaces(n), budget)
    attempts = 0
    while not census.complete:
        bits = np.array(list(itertools.islice(words, block_rows(n))))
        if bits.size == 0:
            break
        X, ok = _newton_cycles(m, symbolic_orbit_seed(m, bits))
        orbs = iter(_assemble(m, X[ok]))
        for x, good in zip(X, ok):
            if census.complete:
                break
            attempts += 1
            if good:
                census.try_cycle(x, next(orbs))
    return census.level(attempts)


# Continuation from a horseshoe start (a0, b) to the target (a1, b) along
# a(s) = a0 + (a1 - a0) s + i kappa sin(pi s).  The detour leaves the real
# line, where periodic orbits collide at bifurcations, for the complex
# plane, where a path meets such a collision only by accident.  A path lost
# on the first detour is rerun from its start on the second; not on the
# conjugate detour, which at real parameters loses the same paths.
START_A = 10.0
DETOURS = (2j, 1j)


def _start_parameter(b: complex) -> float:
    """The first of START_A, 2 START_A, 4 START_A, ... at which (a0, b)
    passes the horseshoe test."""
    a0 = START_A
    while not is_horseshoe_regime(MapParams(a0, b)):
        a0 *= 2.0
        if math.isinf(a0):
            raise ContractError(f"no horseshoe start parameter for b = {b}")
    return a0


def _detour(a0: float, m: MapParams, kappa: complex) -> tuple:
    """(a(s), p, p', dp/ds) of the continuation from (a0, b) to m."""
    def a(s):
        # sin(pi) is not 0 in floating point: pin the end to m.a exactly
        return np.where(s < 1.0,
                        a0 + (m.a - a0) * s + kappa * np.sin(np.pi * s), m.a)

    return (a,
            lambda X, A: -X * X + A,
            lambda X, A: -2.0 * X,
            lambda X, s: np.broadcast_to(
                (m.a - a0) + kappa * np.pi * np.cos(np.pi * s), X.shape))


def _continue_paths(m: MapParams, a0: float, X0: np.ndarray,
                    periods: np.ndarray, kappa: complex):
    """`continue_cycles` on the zero-padded (k, N) stack X0 along one
    detour, a block of `block_rows(N)` rows at a time."""
    step = block_rows(X0.shape[1])
    # an empty stack runs as one empty block
    runs = [continue_cycles(X0[lo:lo + step], *_detour(a0, m, kappa), m.b,
                            periods[lo:lo + step])
            for lo in range(0, len(X0) or 1, step)]
    return tuple(np.concatenate(parts) for parts in zip(*runs))


def _continued_levels(m: MapParams, ns, budget: int) -> list:
    """Levels ns off the horseshoe.  The start levels' cycles of period
    >= 2, each kept once across levels, are continued to m in one padded
    stack (rerunning lost rows on the second detour), polished and
    assembled a period at a time, and admitted into each level in the order
    of its own start level.  Fixed points come in closed form."""
    a0 = _start_parameter(m.b)
    start = MapParams(a0, m.b)
    index = _CycleIndex()
    path_of = {}
    starts = []
    level_paths = []
    for n in ns:
        ids = []
        for o in _itinerary_level(start, n, budget).orbits:
            if o.period == 1:
                continue
            kept = index.match(o.points)
            if kept is None:
                kept = o.points
                index.add(kept)
                path_of[kept] = len(starts)
                starts.append([q.x for q in kept])
            ids.append(path_of[kept])
        level_paths.append(ids)
    periods = np.array([len(x) for x in starts], dtype=np.int64)
    X0 = np.zeros((len(starts), max(periods, default=1)), dtype=complex)
    for i, x in enumerate(starts):
        X0[i, :len(x)] = x
    X, reached, halvings, accepted = _continue_paths(m, a0, X0, periods,
                                                     DETOURS[0])
    retried = ~reached
    if retried.any():
        again = _continue_paths(m, a0, X0[retried], periods[retried],
                                DETOURS[1])
        X[retried], reached[retried] = again[:2]
        halvings[retried] += again[2]
        accepted[retried] += again[3]
    ends = {}
    for d in sorted(set(periods.tolist())):
        rows = np.flatnonzero(reached & (periods == d))
        Q = np.empty((len(rows), d), dtype=complex)
        ok = np.empty(len(rows), dtype=bool)
        step = block_rows(d)
        for lo in range(0, len(rows), step):
            Q[lo:lo + step], ok[lo:lo + step] = _newton_cycles(
                m, X[rows[lo:lo + step], :d])
        Q = Q[ok]
        ends.update(zip(rows[ok].tolist(), zip(Q, _assemble(m, Q))))
    levels = []
    for n, ids in zip(ns, level_paths):
        census = _Census(m, n)
        for i in ids:
            if i in ends:
                census.try_cycle(*ends[i])
        levels.append(census.level(
            len(ids), paths_lost=int(np.count_nonzero(~reached[ids])),
            step_halvings=int(halvings[ids].sum()),
            paths_retried=int(np.count_nonzero(retried[ids])),
            steps_accepted=int(accepted[ids].sum())))
    return levels


def periodic_levels(m: MapParams, ns, budget: int = 2048) -> list:
    """`periodic_points_2d(m, n, budget)` for each n in ns, in order, built
    together: in the horseshoe regime level by level, elsewhere with each
    start cycle continued once for all levels."""
    ns = list(ns)
    if is_horseshoe_regime(m):
        # looked up in this module at call time, so that a wrapper bound
        # here sees every level; each call checks its own arguments
        return [periodic_points_2d(m, n, budget=budget) for n in ns]
    if any(n < 1 for n in ns):
        raise ContractError("n must be >= 1")
    if budget < 1:
        raise ContractError("budget must be >= 1")
    return _continued_levels(m, ns, budget) if ns else []


def periodic_points_2d(m: MapParams, n: int,
                       budget: int = 2048) -> PeriodicLevel:
    """Enumerate fixed points of f^n, at most `budget` seeds or paths.

    Closed-form fixed points enter directly; every other orbit must come
    out of a converged Newton run.  In the horseshoe regime the seeds are
    itineraries and enumeration stops once the multiplicity-weighted count
    reaches 2^n; elsewhere the horseshoe level is continued to m.  A
    shortfall is flagged, never padded.
    """
    if n < 1:
        raise ContractError("n must be >= 1")
    if budget < 1:
        raise ContractError("budget must be >= 1")
    if is_horseshoe_regime(m):
        return _itinerary_level(m, n, budget)
    return _continued_levels(m, [n], budget)[0]


def mu_n_measure(level: PeriodicLevel) -> DiscreteMeasure:
    """Equal weights 2^-n on the fixed points of f^n, multiplicity-weighted:
    each point of an orbit counts its multiplicity over 2^n."""
    pts = [p for o in level.orbits for p in o.points]
    if not pts:
        raise ContractError("level carries no points")
    counts = np.repeat([o.multiplicity for o in level.orbits],
                       [o.period for o in level.orbits])
    return DiscreteMeasure(np.array(pts, dtype=complex), counts, 2 ** level.n,
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


def saddle_count_ratio(m: MapParams, n_max: int,
                       budget: int = 2048) -> SaddleRatioTable:
    """Enumerate levels 1..n_max and tabulate saddle counts and ratios."""
    if n_max < 1:
        raise ContractError("n_max must be >= 1")
    levels = periodic_levels(m, range(1, n_max + 1), budget)
    return saddle_table(levels)


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


def _fixed_point_conditions(orbits, m: MapParams) -> list:
    """cond(J - I) of each orbit's monodromy J, one stacked call; an SVD
    that fails to converge counts as infinitely ill-conditioned."""
    if not orbits:
        return []
    J = np.stack([derivative_along_orbit(o.points, m)
                  if o.monodromy is None else o.monodromy for o in orbits])
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

    Reads enumerated levels, one row each, and the monodromy each census
    orbit carries (an orbit without one gets it from
    `derivative_along_orbit`).  A nonreal finding stands even
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
        worst_imag = 0.0
        worst_cond = 0.0
        orbits = level.minimal_orbits
        for o, cond in zip(orbits, _fixed_point_conditions(orbits, m)):
            worst_imag = max(worst_imag, o.max_imag)
            worst_cond = max(worst_cond, cond)
            if not o.is_real:
                any_nonreal = True
                nonreal.add(o.period)
        rows.append(RealityRow(level.n, level.complete,
                               len(orbits), worst_imag,
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


def _resample_curve(xs: np.ndarray, ys: np.ndarray, count: int):
    """Uniform-arclength resampling of one polyline run."""
    if len(xs) < 2 or count < 2:
        return xs, ys
    seg = np.sqrt(np.abs(np.diff(xs)) ** 2 + np.abs(np.diff(ys)) ** 2)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    if s[-1] <= 0.0:
        return xs[:1], ys[:1]
    t = np.linspace(0.0, s[-1], count)
    xr = np.interp(t, s, xs.real) + 1j * np.interp(t, s, xs.imag)
    yr = np.interp(t, s, ys.real) + 1j * np.interp(t, s, ys.imag)
    return xr, yr


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
        runs = _runs(keep)
        if not runs:
            break
        lengths = []
        for run in runs:
            if len(run) < 2:
                lengths.append(0.0)
                continue
            seg = np.sqrt(np.abs(np.diff(xs[run])) ** 2
                          + np.abs(np.diff(ys[run])) ** 2)
            lengths.append(float(seg.sum()))
        total_len = sum(lengths)
        new_x, new_y = [], []
        for run, ln in zip(runs, lengths):
            if len(run) < 2 or ln == 0.0 or total_len == 0.0:
                new_x.append(xs[run])
                new_y.append(ys[run])
                continue
            quota = max(2, int(samples * ln / total_len) + 1)
            xr, yr = _resample_curve(xs[run], ys[run], quota)
            new_x.append(xr)
            new_y.append(yr)
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
        if orb is not None and orb.points[0].x.real < 0:
            return orb
    raise ContractError("no fixed point with negative real part")


def cylinder_point_measure(m: MapParams, level: int, buffer: int = 15,
                           sweeps: int = 80) -> DiscreteMeasure:
    """Pushforward of the level-n cylinder weights to phase space.

    Each length-2n itinerary window is extended by zeros on both sides,
    clamped at the window ends to the symbol-0 fixed point, and shadowed
    by square-root sweeps; the box's mass 4^-n lands on the resulting
    center point (x_0, x_{-1}).
    """
    if level < 1:
        raise ContractError("level must be >= 1")
    if not is_horseshoe_regime(m):
        raise ContractError("cylinder pushforward needs horseshoe-regime "
                            "parameters")
    x_fix = negative_fixed_point(m).points[0].x
    n_words = 4 ** level
    window = 2 * level + 2 * buffer
    codes = np.arange(n_words)
    bits = (codes[:, None] >> np.arange(2 * level)[None, ::-1]) & 1
    signs = np.full((n_words, window), -1.0, dtype=complex)
    signs[:, buffer:buffer + 2 * level] = np.where(bits == 1, 1.0, -1.0)
    x = signs * cmath.sqrt(abs(m.a))
    pad = np.full((n_words, 1), complex(x_fix))
    for _ in range(sweeps):
        ext = np.concatenate([pad, x, pad], axis=1)
        x = signs * np.sqrt(m.a - ext[:, 2:] - m.b * ext[:, :-2])
    mid = buffer + level
    pts = np.stack([x[:, mid], x[:, mid - 1]], axis=1)
    return DiscreteMeasure(pts, np.ones(n_words, dtype=np.int64), n_words, 2,
                           True, f"cylinder_push(level={level})")
