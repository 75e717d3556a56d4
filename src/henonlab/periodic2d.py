"""Periodic orbits of the plane quadratic map.

Enumeration runs damped Newton on the closure system f(p_j) = p_{j+1} of
a whole cycle, over stacks of cycles: each row has its own line search
and stop test and comes out bit for bit as it would alone.  Fixed points
come in closed form.  When the parameters pass the horseshoe test, every
other cycle comes from one shadowing seed per binary necklace
(alternating square-root branches along the itinerary); a level seeds all
its necklaces in one stacked sweep and polishes them in one stacked
Newton.  Elsewhere the horseshoe level at a start parameter (a0, b) is
continued to (a, b) along a complex detour in a, all cycles of one period
in one stacked Newton solve per step ("gamma trick" homotopy of
Sommese-Wampler, The Numerical Solution of Systems of Polynomials, 2005);
a lost path leaves the level incomplete.  Orbits are assembled in the
same stacks, one pass per block for the closure residuals, the monodromy
matrices and their eigenvalues; they deduplicate by cyclic alignment,
carry their monodromy, multiplier eigenvalues and a hyperbolicity class,
and aggregate into equal-weight measures, the saddle-count table, and the
all-real/entropy report.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .dynamics import (MapParams, PointC2, derivative_along_orbit,
                       is_horseshoe_regime, monodromy_stack)
from .errors import ContractError
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


def _closure_residual(P: np.ndarray, a: complex, b: complex) -> np.ndarray:
    """max_j max(|f(p_j).x - p_{j+1}.x|, |p_j.x - p_{j+1}.y|) of each cycle
    in the stack P, shape (k, d, 2).

    Worked in real and imaginary parts with the operation order of Python
    complex arithmetic, and |.| as hypot: numpy's complex multiply and
    absolute value round differently, and the residual is reported to the
    last bit.  A nan term is skipped, as Python's max skips it.
    """
    nxt, _ = _cyclic_neighbours(P.shape[1])
    xr, xi = P[..., 0].real, P[..., 0].imag
    yr, yi = P[..., 1].real, P[..., 1].imag
    # -x*x + a - b*y - x_next, one rounding per Python complex operation
    fr = ((-xr) * xr - (-xi) * xi + a.real) - (b.real * yr - b.imag * yi)
    fi = ((-xr) * xi + (-xi) * xr + a.imag) - (b.real * yi + b.imag * yr)
    terms = np.concatenate([np.hypot(fr - xr[:, nxt], fi - xi[:, nxt]),
                            np.hypot(xr - yr[:, nxt], xi - yi[:, nxt])],
                           axis=1)
    return np.fmax.reduce(terms, axis=1, initial=0.0)


def _assemble(m: MapParams, P, multiplicity: int = 1,
              degenerate: bool = False) -> list:
    """Orbits of the polished cycles P, shape (k, d, 2), in one pass.

    A row whose closure residual exceeds 1e-9 (1 + max|p|^2) gives None.
    The others get their monodromy Df(p_{d-1}) ... Df(p_0) from
    `monodromy_stack`, and their multipliers from one eigvals over the
    stack.  Every row is bit for bit what it gives alone.
    """
    P = np.asarray(P, dtype=complex)
    k, d, _ = P.shape
    resid = _closure_residual(P, m.a, m.b)
    scale = 1.0 + np.max(np.hypot(P.real, P.imag), axis=(1, 2)) ** 2
    # a nan residual passes, as it did the scalar gate
    good = np.flatnonzero(~(resid > 1e-9 * scale))
    J = monodromy_stack(P[good, :, 0], m.b)
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
    real = np.all(np.abs(P[good].imag) < REALITY_TOL, axis=(1, 2))
    out = [None] * k
    for r, i in enumerate(good.tolist()):
        points = tuple(PointC2(x, y) for x, y in P[i].tolist())
        out[i] = PeriodicOrbit(points, d, tuple(eigs[r].tolist()),
                               str(classes[r]), bool(real[r]),
                               float(resid[i]), multiplicity, degenerate,
                               J[r])
    return out


def _build_orbit(points, m: MapParams, multiplicity: int = 1,
                 degenerate: bool = False) -> PeriodicOrbit | None:
    """`_assemble` on the one cycle `points` (PointC2s or an (d, 2) array):
    its orbit, or None when it fails the residual gate."""
    return _assemble(m, np.asarray(points, dtype=complex)[None],
                     multiplicity, degenerate)[0]


def fixed_points_closed_form(m: MapParams):
    """Fixed points from x = y, x^2 + (1+b)x - a = 0, with classification."""
    beta = 1.0 + m.b
    disc = beta * beta + 4.0 * m.a
    if disc == 0:
        x = -0.5 * beta
        orb = _build_orbit((PointC2(x, x),), m, multiplicity=2, degenerate=True)
        return [orb]
    sq = cmath.sqrt(disc)
    if (beta.conjugate() * sq).real < 0.0:
        sq = -sq
    # stable split: the large root first, the small one via the product -a
    r1 = -0.5 * (beta + sq)
    r2 = -m.a / r1 if r1 != 0 else -beta
    out = []
    for x in (r1, r2):
        orb = _build_orbit((PointC2(x, x),), m)
        if orb is not None:
            out.append(orb)
    return out


def _divisors(n: int):
    return [d for d in range(1, n + 1) if n % d == 0]


def _cyclic_neighbours(n: int):
    """Index arrays of the next and previous cycle slot: x[nxt] and x[prv]
    are np.roll(x, -1) and np.roll(x, 1) without the per-call overhead."""
    idx = np.arange(n)
    return (idx + 1) % n, (idx - 1) % n


def _closure_defect(P: np.ndarray, a, b, nxt: np.ndarray) -> np.ndarray:
    """f(p_j) - p_{j+1} for cycles stacked on the trailing (d, 2) axes."""
    X, Y = P[..., 0], P[..., 1]
    F = np.empty_like(P)
    F[..., 0] = -X * X + a - b * Y - X[..., nxt]
    F[..., 1] = X - Y[..., nxt]
    return F


def _cycle_jacobian(X: np.ndarray, b: complex) -> np.ndarray:
    """Jacobian of the closure system at cycles with x-coordinates X[..., j].

    Unknowns interleave (x_j, y_j).  The wrap-around -1 entries are added,
    not assigned: at period 1 they fall on the diagonal, on top of -2x
    and 0.
    """
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


# entries of one (cycles, 2d, 2d) stack of closure Jacobians; a level with
# many long cycles runs Newton and continuation in blocks of cycles so that
# their temporaries stay bounded.  A block holds at least one cycle.
PATHS_BLOCK_ELEMS = 1 << 18
NEWTON_ITERS = 60
LINE_SEARCH_HALVINGS = 20


def _block_rows(d: int) -> int:
    """Cycles of period d per block of PATHS_BLOCK_ELEMS Jacobian entries."""
    return max(1, PATHS_BLOCK_ELEMS // (4 * d * d))


def _newton_cycles(m: MapParams, P) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on the cyclic systems f(p_j) = p_{j+1} of a stack of
    candidate cycles P, shape (k, n, 2), all points of a cycle at once.

    Solving the closure equations simultaneously keeps the residual at
    rounding level for any period; composing f^n instead would bury orbits
    with a strong multiplier under |lambda|^n amplification of rounding
    noise.  A row stops once max|F| < 1e-12 (1 + max|p|^2), within
    NEWTON_ITERS iterations.  Every iteration makes one stacked solve over
    the rows still running, and each row halves its own step up to
    LINE_SEARCH_HALVINGS times until the step is finite and lowers max|F|.
    A row fails on a non-finite start, a singular or non-finite step, or an
    exhausted line search.  Rows never mix, so each row of the result is
    bit for bit what it gives alone.  Callers pass at most one block of
    rows (`_block_rows`).  Returns the polished stack and a mask of the
    rows that converged.
    """
    P = np.array(P, dtype=complex)
    nxt, _ = _cyclic_neighbours(P.shape[1])
    ok = np.zeros(len(P), dtype=bool)
    live = np.all(np.isfinite(P), axis=(1, 2))
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_ITERS):
            idx = np.flatnonzero(live)
            if idx.size == 0:
                break
            Q = P[idx]
            F = _closure_defect(Q, m.a, m.b, nxt)
            n_f = np.max(np.abs(F), axis=(1, 2))
            scale = 1.0 + np.max(np.abs(Q), axis=(1, 2)) ** 2
            done = n_f < 1e-12 * scale
            ok[idx[done]] = True
            live[idx[done]] = False
            idx, Q, F, n_f = idx[~done], Q[~done], F[~done], n_f[~done]
            if idx.size == 0:
                break
            delta = _solve_stack(_cycle_jacobian(Q[..., 0], m.b),
                                 F.reshape(len(idx), -1)).reshape(Q.shape)
            good = np.all(np.isfinite(delta), axis=(1, 2))
            live[idx[~good]] = False
            idx, Q, delta, n_f = idx[good], Q[good], delta[good], n_f[good]
            t = 1.0
            for _ in range(LINE_SEARCH_HALVINGS):
                if idx.size == 0:
                    break
                R = Q - t * delta
                acc = (np.all(np.isfinite(R), axis=(1, 2))
                       & (np.max(np.abs(_closure_defect(R, m.a, m.b, nxt)),
                                 axis=(1, 2)) < n_f))
                P[idx[acc]] = R[acc]
                idx, Q, delta = idx[~acc], Q[~acc], delta[~acc]
                n_f = n_f[~acc]
                t *= 0.5
            live[idx] = False
    return P, ok


def _newton_cycle(m: MapParams, init_pts) -> np.ndarray | None:
    """_newton_cycles on the one cycle init_pts: the polished (n, 2) cycle,
    or None."""
    P, ok = _newton_cycles(m, np.asarray(init_pts, dtype=complex)
                           .reshape(1, -1, 2))
    return P[0] if ok[0] else None


def symbolic_orbit_seed(m: MapParams, bits, sweeps: int = 60):
    """Shadowing seed for the cycle with itinerary `bits` (horseshoe only).

    Solves x_j^2 = a - x_{j+1} - b x_{j-1} cyclically by branch-respecting
    square-root sweeps; the branch argument stays off the cut because the
    horseshoe test guarantees |a| clears (1+|b|)R.  Returns the full
    candidate cycle as an (n, 2) array of (x_j, y_j) = (x_j, x_{j-1}); a
    stack of itineraries, shape (k, n), gives one (k, n, 2) stack, each row
    bit for bit its lone seed.
    """
    sign = np.where(np.asarray(bits) == 1, 1.0, -1.0).astype(complex)
    nxt, prv = _cyclic_neighbours(sign.shape[-1])
    x = sign * cmath.sqrt(abs(m.a))
    for _ in range(sweeps):
        x = sign * np.sqrt(m.a - x[..., nxt] - m.b * x[..., prv])
    return np.stack([x, x[..., prv]], axis=-1)


def _minimal_period(pts, n: int) -> int:
    for d in _divisors(n):
        if d == n:
            return n
        ok = True
        for j in range(n):
            pa, pb = pts[j], pts[(j + d) % n]
            if max(abs(pa[0] - pb[0]), abs(pa[1] - pb[1])) > DEDUP_TOL:
                ok = False
                break
        if ok:
            return d
    return n


def _same_cycle(points_a, points_b, tol: float = DEDUP_TOL) -> bool:
    d = len(points_a)
    if d != len(points_b):
        return False
    for shift in range(d):
        if all(max(abs(points_a[j].x - points_b[(j + shift) % d].x),
                   abs(points_a[j].y - points_b[(j + shift) % d].y)) <= tol
               for j in range(d)):
            return True
    return False


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

    def has(self, cycle) -> bool:
        d = len(cycle)
        near = self._around(d, cycle[0].x)
        crowd = sum(map(len, near))
        if crowd > CROWDED:
            for p in cycle[1:]:
                other = self._around(d, p.x)
                size = sum(map(len, other))
                if size < crowd:
                    near, crowd = other, size
        return any(_same_cycle(cycle, kept)
                   for bucket in near for kept in bucket)


@dataclass(frozen=True)
class PeriodicLevel:
    """All solutions of f^n(p) = p found for one n, grouped into cycles.

    attempts counts itinerary seeds in the horseshoe regime and continuation
    paths elsewhere; paths_lost and step_halvings are continuation counters
    and stay 0 on the itinerary path.
    """

    n: int
    orbits: tuple
    fixed_point_count: int
    complete: bool
    attempts: int
    paths_lost: int = 0
    step_halvings: int = 0

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

    def try_cycle(self, pts: np.ndarray, orb: PeriodicOrbit | None) -> None:
        """Admit the polished cycle pts, whose row of its block's
        `_assemble` pass gave orb."""
        d = _minimal_period(pts, len(pts))
        if d < len(pts):
            # re-polish at the minimal period: detection tolerance is looser
            # than the orbit residual gate
            pts = _newton_cycle(self.m, pts[:d])
            if pts is None:
                return
            orb = _build_orbit(pts, self.m)
        if orb is not None and not self.kept.has(orb.points):
            self._keep(orb)

    def level(self, attempts: int, paths_lost: int = 0,
              step_halvings: int = 0) -> PeriodicLevel:
        return PeriodicLevel(self.n, tuple(self.orbits), self.count,
                             self.complete, attempts, paths_lost,
                             step_halvings)


def _itinerary_level(m: MapParams, n: int, budget: int) -> PeriodicLevel:
    """Newton from one shadowing seed per necklace (horseshoe only).

    The first `budget` necklaces are seeded, polished and assembled in
    stacks of one block each, so a level whose necklaces fit one block
    makes one seed call; the polished cycles are admitted in necklace order
    until the census is complete, and `attempts` counts the necklaces
    admitted up to there.
    """
    census = _Census(m, n)
    words = itertools.islice(necklaces(n), budget)
    attempts = 0
    while not census.complete:
        bits = np.array(list(itertools.islice(words, _block_rows(n))))
        if bits.size == 0:
            break
        P, ok = _newton_cycles(m, symbolic_orbit_seed(m, bits))
        orbs = iter(_assemble(m, P[ok]))
        for pts, good in zip(P, ok):
            if census.complete:
                break
            attempts += 1
            if good:
                census.try_cycle(pts, next(orbs))
    return census.level(attempts)


# Continuation from a horseshoe start (a0, b) to the target (a1, b) along
# a(s) = a0 + (a1 - a0) s + DETOUR sin(pi s).  The detour leaves the real
# line, where periodic orbits collide at bifurcations, for the complex
# plane, where a path meets such a collision only by accident.
START_A = 10.0
DETOUR = 2j
CORRECTOR_ITERS = 3
STEP_RESIDUAL = 1e-11
STEP_MOVE = 0.25
STEP_MAX = 0.1
STEP_MIN = 1e-6


def _start_parameter(b: complex) -> float:
    """The first of START_A, 2 START_A, 4 START_A, ... at which (a0, b)
    passes the horseshoe test."""
    a0 = START_A
    while not is_horseshoe_regime(MapParams(a0, b)):
        a0 *= 2.0
        if math.isinf(a0):
            raise ContractError(f"no horseshoe start parameter for b = {b}")
    return a0


def _solve_stack(A: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Solve A[i] x = F[i] for every i; a singular A[i] gives nan."""
    try:
        return np.linalg.solve(A, F[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(F.shape, np.nan, dtype=complex)
        for i in range(len(A)):
            try:
                out[i] = np.linalg.solve(A[i], F[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _continue_cycles(P: np.ndarray, a0: float, a1: complex, b: complex):
    """Follow the cycles P, shape (k, d, 2), of the map at (a0, b) to
    (a1, b).

    Every path has its own s and step h.  A step to s + h predicts the
    cycle along the tangent dP/ds at s (Euler), then runs CORRECTOR_ITERS
    undamped Newton iterations at a(s + h); it is
    accepted when the residual ends below STEP_RESIDUAL * scale and the
    cycle moved less than STEP_MOVE * scale, with scale = 1 + max|p|^2.
    Acceptance doubles h up to STEP_MAX, rejection halves it, and a path
    whose h falls below STEP_MIN is lost.  The predictor and each corrector
    iteration make one stacked solve over the paths still running.  The
    tangent cuts the rejected steps about sixfold against restarting
    Newton from the cycle at s.  Returns the end
    cycles, a mask of the paths that reached s = 1 and the number of
    step halvings.
    """
    k, d, _ = P.shape
    nxt, _ = _cyclic_neighbours(d)
    P = P.copy()
    s = np.zeros(k)
    h = np.full(k, STEP_MAX)
    live = np.ones(k, dtype=bool)
    halvings = 0
    with np.errstate(all="ignore"):
        while live.any():
            idx = np.flatnonzero(live)
            s_new = np.minimum(s[idx] + h[idx], 1.0)
            # sin(pi) is not 0 in floating point: pin the end to a1 exactly
            a = np.where(s_new < 1.0,
                         a0 + (a1 - a0) * s_new + DETOUR * np.sin(np.pi * s_new),
                         a1)[:, None]
            # Euler predictor: J dP/ds = -dF/ds, and dF/ds is a'(s) in the
            # x rows
            Q = P[idx]
            da = ((a1 - a0) + DETOUR * np.pi * np.cos(np.pi * s[idx]))
            rhs = np.zeros((len(idx), d, 2), dtype=complex)
            rhs[..., 0] = da[:, None]
            tangent = _solve_stack(_cycle_jacobian(Q[..., 0], b),
                                   rhs.reshape(len(idx), 2 * d))
            Q = Q - (s_new - s[idx])[:, None, None] * tangent.reshape(Q.shape)
            for _ in range(CORRECTOR_ITERS):
                F = _closure_defect(Q, a, b, nxt)
                delta = _solve_stack(_cycle_jacobian(Q[..., 0], b),
                                     F.reshape(len(idx), 2 * d))
                Q = Q - delta.reshape(Q.shape)
            res = np.max(np.abs(_closure_defect(Q, a, b, nxt)), axis=(1, 2))
            move = np.max(np.abs(Q - P[idx]), axis=(1, 2))
            scale = 1.0 + np.max(np.abs(Q), axis=(1, 2)) ** 2
            ok = (res < STEP_RESIDUAL * scale) & (move < STEP_MOVE * scale)
            acc, rej = idx[ok], idx[~ok]
            P[acc] = Q[ok]
            s[acc] = s_new[ok]
            h[acc] = np.minimum(2.0 * h[acc], STEP_MAX)
            h[rej] *= 0.5
            halvings += rej.size
            live[acc[s[acc] >= 1.0]] = False
            live[rej[h[rej] < STEP_MIN]] = False
    return P, s >= 1.0, halvings


def _continued_level(m: MapParams, n: int, budget: int) -> PeriodicLevel:
    """Level n off the horseshoe: continue the start level's cycles of
    period >= 2 to m, one stacked path set per period, polish and assemble
    the ends of each set in one stacked pass each and admit them in start
    order.  Fixed points come in closed form."""
    a0 = _start_parameter(m.b)
    start = _itinerary_level(MapParams(a0, m.b), n, budget)
    # one path per start cycle; each came from one of at most `budget` seeds
    paths = [o for o in start.orbits if o.period > 1]
    ends = {}
    lost = halvings = 0
    for d in sorted({o.period for o in paths}):
        group = [i for i, o in enumerate(paths) if o.period == d]
        step = _block_rows(d)
        for lo in range(0, len(group), step):
            block = group[lo:lo + step]
            P0 = np.array([[(p.x, p.y) for p in paths[i].points]
                           for i in block], dtype=complex)
            P, reached, block_halvings = _continue_cycles(P0, a0, m.a, m.b)
            halvings += block_halvings
            lost += int(np.count_nonzero(~reached))
            Q, ok = _newton_cycles(m, P[reached])
            done = [i for i, r in zip(block, reached) if r]
            polished = [i for i, good in zip(done, ok) if good]
            Q = Q[ok]
            ends.update(zip(polished, zip(Q, _assemble(m, Q))))
    census = _Census(m, n)
    for i in sorted(ends):
        census.try_cycle(*ends[i])
    return census.level(len(paths), lost, halvings)


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
    return _continued_level(m, n, budget)


def mu_n_measure(level: PeriodicLevel) -> DiscreteMeasure:
    """Equal weights 2^-n on the fixed points of f^n, multiplicity-weighted;
    the points of one orbit share one weight."""
    pts = []
    wts = []
    denom = 2 ** level.n
    for o in level.orbits:
        pts.extend(o.points)
        wts.extend((Fraction(o.multiplicity, denom),) * o.period)
    if not pts:
        raise ContractError("level carries no points")
    return DiscreteMeasure(np.array(pts, dtype=complex), tuple(wts), 2,
                           level.complete, f"mu_n(n={level.n})")


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
    levels = [periodic_points_2d(m, n, budget=budget)
              for n in range(1, n_max + 1)]
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
    levels = [periodic_points_2d(m, n, budget=budget)
              for n in range(1, n_max + 1)]
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
    wts = (Fraction(1, n_words),) * n_words
    return DiscreteMeasure(pts, wts, 2, True, f"cylinder_push(level={level})")
