"""One-variable polynomial dynamics: preimage trees, inverse-iteration
sampling, periodic points and the two equilibrium-measure estimators.

Both estimators average point masses with weight d^-n: over the solutions
of f^n(z) = z (periodic points) or of f^n(z) = c (backward tree, c
nonexceptional).  Either family converges weakly to the equilibrium
measure of the filled Julia set, which is what the measure comparisons
downstream exercise.  Periodic points come as cycles of the closure
system z_{j+1} = f(z_j), the kernel of `cycles` with b = 0, continued from
the known cycles of z^d and matched as cycles under the rule the C^2
census applies; preimages come from Ehrlich-Aberth root finding at
degree d.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# cycles and measures are read at call time: the Julia cloud runs neither
from . import cycles, measures
from .errors import CapError, ContractError, ConvergenceError

PREIMAGE_CAP = 1 << 20
PERIODIC_CAP = 4096
# periodic points are continued from z^d along f_t = z^d + t (f - z^d),
# on the detour t = 0 -> 1 of `cycles.continue_cycles` with kappa i KAPPA
KAPPA = 0.5
# ends that meet count as one multiple point only where the multiplier
# lambda of f^n there has |lambda - 1| <= SINGULAR_TOL (1 + |lambda|)
SINGULAR_TOL = 1e-4
# entries of one (rows, d, d) Aberth difference tensor; blocking a big
# batch (a whole preimage-tree level) keeps its temporaries, not its
# output, bounded.  A block holds at least one row.
ROOTS_BLOCK_ELEMS = 1 << 18
# Aberth stops a row once every step is below ROOT_TOL (1 + max|z|), and
# gives up after MAX_SWEEPS sweeps
ROOT_TOL = 1e-13
MAX_SWEEPS = 600


@dataclass(frozen=True)
class Poly:
    """Monic polynomial of degree >= 2, coefficients ascending."""

    coeffs: tuple

    def __post_init__(self):
        c = tuple(complex(v) for v in self.coeffs)
        if len(c) < 3:
            raise ContractError("degree must be >= 2")
        if c[-1] != 1:
            raise ContractError("polynomial must be monic")
        if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in c):
            raise ContractError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        return _horner(self._coeff_array, z)

    def eval_deriv(self, z):
        return _horner(self._deriv_coeffs, z)

    @functools.cached_property
    def _coeff_array(self) -> np.ndarray:
        return np.array(self.coeffs)

    @functools.cached_property
    def _deriv_coeffs(self) -> np.ndarray:
        # scaled by 1 first, as `polyder` scales: that turns a -0-0j
        # coefficient into 0-0j, and so its product into 0+0j
        c = self._coeff_array[1:] * 1
        return c * np.arange(1, len(c) + 1)

    def lower_coeff_sum(self) -> float:
        return float(sum(abs(v) for v in self.coeffs[:-1]))


def _horner(c: np.ndarray, z):
    """The polynomials with ascending coefficients c[0], ..., c[d] at z.

    The coefficient axis is first, and each c[i] broadcasts against z: a
    1-d c is one polynomial at every z, and c of shape (d+1, ..., 1, k) is
    column r's polynomial at column r of a (m, k) z.  Horner in the
    operation order of `numpy.polynomial.polynomial.polyval`, so each value
    has the bits it gives, and a Python-scalar z goes through numpy scalar
    arithmetic as it does there.  Each product goes to a fresh array and
    only the add is in place: numpy rounds an aliased complex product of a
    one-element array differently.
    """
    acc = c[-1] + z * 0
    for i in range(2, len(c) + 1):
        acc = acc * z
        acc += c[-i]
    return acc


@functools.cache
def _start_constellation(d: int):
    """Modulus factors (d, 1), phases (d, 1) and the radius cap of the d
    start points.  Moduli and angles are staggered: a perfectly circular
    start constellation can stall on root sets with interior points.  The
    cap keeps radius^d representable: evaluating the polynomial on the
    start circle must not overflow doubles at high degree."""
    idx = np.arange(d)
    spread = np.mod(idx * 0.6180339887498949, 1.0)
    moduli = (0.55 + 0.9 * spread)[:, None]
    phases = np.exp(2j * math.pi * (idx + 0.354) / d)[:, None]
    moduli.flags.writeable = phases.flags.writeable = False
    return moduli, phases, 10.0 ** (100.0 / d)


def _aberth_block(c: np.ndarray) -> np.ndarray:
    """Ehrlich-Aberth sweeps over the rows of one block of monic rows.

    The sweeps run in root columns: the live roots are a (d, k) array, one
    column per row, and p and p' are one (d+1, 2, 1, k) coefficient stack
    (p' padded by a zero top coefficient, which adds only exact zeros), so
    one Horner evaluates both and every reduction over a row's roots runs
    along axis 0.  Each root goes through the operations of a
    row-at-a-time sweep in the same order, so the bits are the same: the
    (d, k, d) repel tensor is C-ordered with the sibling index last, which
    keeps numpy's pairwise summation order of each root's repel sum, and a
    max over roots is exact in any order.  A row leaves the live set at
    the sweep where it converges; no later arithmetic touches it, so each
    row's roots do not depend on its batch-mates.  Returns (k, d).
    """
    k, d = c.shape[0], c.shape[1] - 1
    moduli, phases, cap = _start_constellation(d)
    pc = np.zeros((d + 1, 2, 1, k), dtype=complex)
    pc[:, 0, 0] = c.T
    pc[:-1, 1, 0] = pc[1:, 0, 0] * np.arange(1, d + 1)[:, None]
    radius = np.minimum(1.0 + np.max(np.abs(c[:, :-1]), axis=1), cap)
    z = moduli * radius * phases
    idx = np.arange(d)
    live = np.arange(k)
    zl, pcl, delta = z, pc, np.full_like(z, np.inf)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(MAX_SWEEPS):
            pz, dpz = _horner(pcl, zl)
            newton = pz / dpz
            diff = np.subtract(zl[:, :, None], zl.T[None],
                               out=np.empty((d, zl.shape[1], d), complex))
            diff[idx, :, idx] = np.inf
            np.divide(1.0, diff, out=diff)
            repel = np.add.reduce(diff, axis=2)
            delta = newton / (1.0 - newton * repel)
            # a stray iterate in overflow land sits out this sweep
            delta = np.where(np.isfinite(delta), delta, 0.0)
            zl = zl - delta
            # ufunc reductions: np.max's wrapper costs more than reducing
            # a few short columns
            done = ((np.maximum.reduce(np.abs(delta))
                     < ROOT_TOL * (1.0 + np.maximum.reduce(np.abs(zl))))
                    & np.logical_and.reduce(np.isfinite(pz)))
            if done.any():
                z[:, live[done]] = zl[:, done]
                keep = np.flatnonzero(~done)
                live, zl, pcl, delta = (live[keep], zl.take(keep, 1),
                                        pcl.take(keep, 3), delta.take(keep, 1))
                if not live.size:
                    return z.T
        # Out of sweeps.  Near a root of multiplicity m, fixed only to
        # ~eps^(1/m), the step test never fires.  A row has converged as
        # far as doubles allow if every root's backward error is at
        # rounding level, |p(z)| <= 4 d eps sum |c_i| |z|^i, and its last
        # steps stay under eps^(1/4).  The first failing row is named.
        eps = np.finfo(float).eps
        pz = _horner(pcl[:, 0], zl)
        bound = 4 * d * eps * _horner(np.abs(pcl[:, 0]), np.abs(zl))
        stalled = (np.max(np.abs(delta), axis=0)
                   <= eps ** 0.25 * (1.0 + np.max(np.abs(zl), axis=0)))
        bad = np.flatnonzero(~(stalled & np.all(
            (np.abs(pz) <= bound) & (bound < np.inf), axis=0)))
        if not bad.size:
            z[:, live] = zl
            return z.T
        resid = float(np.max(np.abs(pz[:, bad[0]])))
    raise ConvergenceError(f"simultaneous_roots: no convergence in "
                           f"{MAX_SWEEPS} sweeps (max residual {resid:.3e})")


def simultaneous_roots(coeffs) -> np.ndarray:
    """All roots of monic polynomials by simultaneous iteration.

    `coeffs` is one ascending coefficient row, shape (d+1,), giving roots
    of shape (d,), or a batch of k rows, shape (k, d+1), giving (k, d).
    Ehrlich-Aberth corrections: each point takes a Newton step repelled by
    its siblings.  Compared with the plain Weierstrass product form this
    stays bounded at high degree (sums of reciprocals, no d-fold products)
    and converges fast enough to resolve degree ~1000 constellations.
    Every row is solved exactly as if it were alone; rows run in blocks of
    about ROOTS_BLOCK_ELEMS difference-tensor entries, and each block's
    sweeps hold its roots in columns, a (d, k) array, with the bits of a
    row-at-a-time sweep (`_aberth_block`).  If any row fails to converge,
    the error names the first such row's residual.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim not in (1, 2) or c.shape[-1] < 2:
        raise ContractError("simultaneous_roots expects coefficient rows of "
                            "shape (d+1,) or (k, d+1) with d >= 1")
    rows = c.reshape(-1, c.shape[-1])
    if np.any(rows[:, -1] != 1):
        raise ContractError("simultaneous_roots expects monic coefficients")
    k, d = rows.shape[0], rows.shape[1] - 1
    if d == 1:
        out = -rows[:, :1]
    else:
        out = np.empty((k, d), dtype=complex)
        step = max(1, ROOTS_BLOCK_ELEMS // (d * d))
        for s in range(0, k, step):
            out[s:s + step] = _aberth_block(rows[s:s + step])
    return out if c.ndim == 2 else out[0]


def _quadratic_roots(beta, gamma):
    """Stable roots of z^2 + beta z + gamma = 0, vectorized, fixed order."""
    beta = np.asarray(beta, dtype=complex)
    gamma = np.asarray(gamma, dtype=complex)
    u = np.sqrt(beta * beta - 4.0 * gamma)
    # pick the sign that avoids cancellation in beta + u
    u = np.where((np.conj(beta) * u).real >= 0.0, u, -u)
    q = -0.5 * (beta + u)
    r2 = np.where(q != 0, gamma / np.where(q != 0, q, 1.0), -beta)
    return q, r2


def solve_offset(f: Poly, w) -> np.ndarray:
    """Roots of f(z) = w for each w; shape (len(w), d), deterministic order."""
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    d = f.degree
    if d == 2:
        c0, c1, _ = f.coeffs
        r1, r2 = _quadratic_roots(np.full_like(w, c1), c0 - w)
        return np.stack([r1, r2], axis=1)
    c = np.empty((len(w), d + 1), dtype=complex)
    c[:] = f.coeffs
    c[:, 0] -= w
    roots = simultaneous_roots(c)
    # one Newton step sharpens the simultaneous-iteration output
    fz = _horner(c.T[:, None], roots.T).T
    dz = f.eval_deriv(roots)
    safe = np.abs(dz) > 1e-12
    roots = np.where(safe, roots - fz / np.where(safe, dz, 1.0), roots)
    order = np.lexsort((roots.imag, roots.real), axis=-1)
    return np.take_along_axis(roots, order, axis=-1)


@dataclass(frozen=True)
class PreimageTree:
    """Backward-orbit levels: level k holds solutions of f^k(z) = root.

    In full mode level k holds all d^k preimages and the parent of
    levels[k+1][i] is levels[k][i // d]; in sampled mode levels have the
    walk count and parents share the walk index.
    """

    root: complex
    levels: list
    mode: str
    branching: int


def preimages(f: Poly, c: complex, n: int, mode: str = "full",
              k: int | None = None,
              rng_seed: int | None = None) -> PreimageTree:
    """Backward orbit of c to depth n, full tree (at most PREIMAGE_CAP
    points) or k sampled walks."""
    if n < 1:
        raise ContractError("depth must be >= 1")
    d = f.degree
    if mode == "full":
        if d ** n > PREIMAGE_CAP:
            raise CapError(f"full preimage tree would hold {d}^{n} points, "
                           f"over the cap {PREIMAGE_CAP}; use sampled mode")
        levels = [np.array([complex(c)])]
        for _ in range(n):
            levels.append(solve_offset(f, levels[-1]).ravel())
        return PreimageTree(complex(c), levels, "full", d)
    if mode == "sampled":
        if k is None or k < 1:
            raise ContractError("sampled mode needs a walk count k >= 1")
        rng = np.random.default_rng(rng_seed)
        choices = rng.integers(0, d, size=(n, k))
        levels = [np.full(k, complex(c))]
        for step in range(n):
            roots = solve_offset(f, levels[-1])
            levels.append(roots[np.arange(k), choices[step]])
        return PreimageTree(complex(c), levels, "sampled", d)
    raise ContractError(f"unknown mode {mode!r}")


def exceptional_check(f: Poly, c: complex) -> bool:
    """True when the backward orbit of c stays below 3 distinct points: its
    first 4 levels are probed, and points within 1e-9 count as one."""
    distinct = [complex(c)]
    frontier = np.array([complex(c)])
    for _ in range(4):
        frontier = solve_offset(f, frontier).ravel()
        for z in frontier:
            if all(abs(z - w) > 1e-9 for w in distinct):
                distinct.append(complex(z))
                if len(distinct) >= 3:
                    return False
    return True


def _start_cycles(d: int, n: int) -> dict:
    """{period: (k, period) stack} of the cycles of z^d of periods dividing
    n: 0, and the (d^n - 1)-th roots of unity w^k in orbits k -> d k led
    by their least k, each point computed from its own exponent."""
    N = d ** n - 1
    K = np.arange(N)[:, None] * d ** np.arange(n) % N
    exps: dict[int, list] = {}
    for k in np.flatnonzero(K.min(axis=1) == np.arange(N)):
        m = len(set(K[k].tolist()))
        exps.setdefault(m, []).append(K[k, :m])
    stacks = {m: np.exp(2j * math.pi * np.array(e) / N)
              for m, e in sorted(exps.items())}
    stacks[1] = np.concatenate([[[0j]], stacks[1]])
    return stacks


def _multiple(f: Poly, z: np.ndarray, n: int) -> np.ndarray:
    """Are the z multiple roots of f^n(z) = z: is the multiplier (f^n)'(z),
    1 + the determinant of the cycle Jacobian, numerically 1?"""
    lam = np.ones_like(z)
    for _ in range(n):
        lam, z = lam * f.eval_deriv(z), f(z)
    return np.abs(lam - 1.0) <= SINGULAR_TOL * (1.0 + np.abs(lam))


def periodic_points_1d(f: Poly, n: int):
    """Solutions of f^n(z) = z: (distinct points, multiplicities).

    The d^n cycles of z^d are continued to f along f_t = z^d + t (f - z^d),
    one stacked path set per period, on the one detour
    t(s) = s + i KAPPA sin(pi s) (`cycles.continue_cycles`), and every
    end, a stalled one included, is polished at f and admitted if the
    polish converges.  An end of start period m is taken at its numerical
    minimal period e and stands for m/e ends on each point of that cycle;
    in period order it joins the first kept cycle it matches
    (`cycles.matches`) or is kept.  Ends that meet count as one multiple
    point only where the cycle Jacobian is numerically singular, else the
    extra ends are lost, like ends whose polish fails.  A loss leaves the
    multiplicities summing below d^n; it is never padded.  d^n is at most
    PERIODIC_CAP.
    """
    d = f.degree
    if n < 1:
        raise ContractError("n must be >= 1")
    if d ** n > PERIODIC_CAP:
        raise CapError(f"{d}^{n} periodic points exceed the cap "
                       f"{PERIODIC_CAP}")
    # f - z^d and its derivative
    low, dlow = f._coeff_array[:-1], f._deriv_coeffs[:-1]

    family = (lambda X, T: X ** d + T * _horner(low, X),
              lambda X, T: d * X ** (d - 1) + T * _horner(dlow, X),
              lambda X, T: _horner(low, X))
    # per minimal period e: each end's cycle and the ends it stands for
    ends: dict[int, list] = {}
    for m, X0 in _start_cycles(d, n).items():
        X, *_ = cycles.continue_cycles(X0, family, [(0.0, 1.0, 1j * KAPPA)],
                                       0.0)
        X, ok = cycles.newton_cycles(X, f, f.eval_deriv, 0.0)
        X = X[ok]
        for x, e in zip(X, cycles.minimal_periods(X).tolist()):
            ends.setdefault(e, []).append((x[:e], m // e))
    points, counts = [np.zeros(0, dtype=complex)], [np.zeros(0, np.int64)]
    for e, group in sorted(ends.items()):
        X = np.array([x for x, _ in group])
        near = cycles.matches(X)
        # kept cycle -> the ends it stands for, in the order kept
        kept: dict[int, int] = {}
        for i, (_, w) in enumerate(group):
            j = min((j for j in near.get(i, ()) if j in kept), default=i)
            kept[j] = kept.get(j, 0) + w
        points.append(X[list(kept)].ravel())
        counts.append(np.repeat(list(kept.values()), e))
    points, counts = np.concatenate(points), np.concatenate(counts)
    order = np.lexsort((points.imag, points.real))
    reps, counts = points[order], counts[order]
    meet = counts > 1
    counts[meet] = np.where(_multiple(f, reps[meet], n), counts[meet], 1)
    return reps, counts


def brolin_measure(f: Poly, mode: str, n: int,
                   c: complex | None = None) -> measures.DiscreteMeasure:
    """Equal-weight measure (weight d^-n) on preimages of c or on periodic points."""
    d = f.degree
    if mode == "preimage":
        if c is None:
            raise ContractError("preimage mode needs the base point c")
        if exceptional_check(f, c):
            raise ContractError(f"c = {c} is exceptional (backward orbit has fewer "
                                "than 3 points); the equidistribution hypothesis "
                                "requires a nonexceptional base point")
        tree = preimages(f, c, n, "full")
        pts = tree.levels[n]
        return measures.DiscreteMeasure(
            pts, np.ones(len(pts), dtype=np.int64), d ** n, 1, True,
            f"preimage(c={c}, n={n})")
    if mode == "periodic":
        reps, mult = periodic_points_1d(f, n)
        return measures.DiscreteMeasure(reps, mult, d ** n, 1,
                                        int(mult.sum()) == d ** n,
                                        f"periodic(n={n})")
    raise ContractError(f"unknown mode {mode!r}")


def julia_render_points(f: Poly, c: complex, walks: int, depth: int,
                        burn_in: int = 10, rng_seed: int = 0):
    """Backward random walks from c, keeping levels past burn_in.

    Uniform independent branch choices reproduce the equal-weight averaging
    of the preimage estimator; the walk is biased toward parts of the Julia
    set easily reached from outside, which is documented, not corrected.
    Output is sorted by (level, re, im), so it does not depend on walk
    scheduling; identical seeds give identical clouds.
    """
    if walks < 1:
        raise ContractError("need at least one walk")
    if not 0 <= burn_in < depth:
        raise ContractError("need 0 <= burn_in < depth")
    if exceptional_check(f, c):
        raise ContractError(f"c = {c} is exceptional; backward walks would collapse")
    tree = preimages(f, c, depth, "sampled", k=walks, rng_seed=rng_seed)
    pts, lvls = [], []
    for lvl in range(burn_in + 1, depth + 1):
        pts.append(tree.levels[lvl])
        lvls.append(np.full(len(tree.levels[lvl]), lvl))
    points = np.concatenate(pts)
    levels = np.concatenate(lvls)
    order = np.lexsort((points.imag, points.real, levels))
    return points[order], levels[order]
