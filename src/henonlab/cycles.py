"""Cyclic closure systems in x alone, for the Henon map and for f(z).

A cycle of (x, y) -> (p(x) - b y, x) is its x-sequence (y_j = x_{j-1}),
closed by x_{j+1} + b x_{j-1} = p(x_j): p(x) = a - x^2 for the Henon map,
b = 0 and p = f for a polynomial f.  The defect p(x_j) - b x_{j-1} - x_{j+1}
has an n x n cyclic-tridiagonal Jacobian: p'(x_j) on the diagonal, -b and
-1 off it.  `ClosureSystem` builds both for (k, n) stacks of cycles
zero-padded to n slots.  Damped Newton (`newton_cycles`) polishes such a
stack one period at a time, continuation (`continue_cycles`) follows it
whole along the detours of one path driver, each a block of `block_rows`
rows at a time; each row bit for bit as alone in the same stack width.
Callers supply p and its derivatives as callables on stacks, and b.

This module also decides which cycles are one: a cycle's numerical
minimal period (`minimal_periods`), the pairwise rule (`same_cycle`: x
within DEDUP_TOL under a cyclic shift) and the match relation of a stack
of one period (`matches`), which both censuses apply.
"""

from __future__ import annotations

import copy
import functools

import numpy as np

# entries of one (cycles, n, n) stack of Jacobians: Newton and continuation
# run blocks of at least one cycle each, so that temporaries stay bounded
PATHS_BLOCK_ELEMS = 1 << 18
NEWTON_ITERS = 60
LINE_SEARCH_HALVINGS = 20
CORRECTOR_ITERS = 3
STEP_RESIDUAL = 1e-11
STEP_MOVE = 0.25
STEP_MAX = 0.1
STEP_MIN = 1e-6
DEDUP_TOL = 1e-7
# bound on the rounding of a computed sum of d terms, relative to the sum
# of their moduli: (d - 1) 2^-53 for any order of summation, taken 8 d
# times larger to cover the rounding of the bounds themselves
SUM_SLACK = 2.0 ** -50


def block_rows(n: int) -> int:
    """Cycles of period n per block of PATHS_BLOCK_ELEMS Jacobian entries."""
    return max(1, PATHS_BLOCK_ELEMS // (n * n))


def cyclic_neighbours(n: int):
    """Index arrays of the next and previous cycle slot: x[nxt] and x[prv]
    are np.roll(x, -1) and np.roll(x, 1) without the per-call overhead."""
    idx = np.arange(n)
    return (idx + 1) % n, (idx - 1) % n


class ClosureSystem:
    """The closure systems of a (k, n) stack whose row i holds a cycle of
    period periods[i] in its first periods[i] slots and zeros after them.
    A padded slot has zero defect and an identity Jacobian row, so it
    never moves.  Methods take p(x) or p'(x) on the whole stack; a system
    of one row is every row of any stack."""

    def __init__(self, periods, n: int, b):
        d = np.asarray(periods)[:, None]
        j = np.arange(n)
        self.n, self.b = n, b
        self.cyc = j < d
        # each slot's next and previous slot in its own cycle; a padded
        # slot points at itself
        nxt = np.where(self.cyc, (j + 1) % d, j)
        prv = np.where(self.cyc, (j - 1) % d, j)
        self._index(nxt, prv)
        # the Jacobian but for p'(x_j) on the diagonal: the cyclic entries
        # are added, not assigned, so that at period 1 they land on the
        # diagonal and at period 2 on one off-diagonal
        T = np.zeros((len(d), n, n), dtype=complex)
        I, J = np.nonzero(self.cyc)
        T[I, J, prv[I, J]] += -b
        T[I, J, nxt[I, J]] += -1.0
        I, J = np.nonzero(~self.cyc)
        T[I, J, J] = 1.0
        self.template = T

    def _index(self, nxt, prv) -> None:
        # X[self.next_slot] holds each slot's next slot, X[self.prev_slot]
        # its previous one
        self.nxt, self.prv = nxt, prv
        if len(nxt) == 1:
            # column indices, which serve every row of a stack
            self.next_slot = slice(None), nxt[0]
            self.prev_slot = slice(None), prv[0]
        else:
            rows = np.arange(len(nxt))[:, None]
            self.next_slot, self.prev_slot = (rows, nxt), (rows, prv)

    def rows(self, at) -> ClosureSystem:
        """The system of the stack's rows `at` (an index array)."""
        sub = copy.copy(self)
        sub.cyc, sub.template = self.cyc[at], self.template[at]
        sub._index(self.nxt[at], self.prv[at])
        return sub

    def defect(self, X, P) -> np.ndarray:
        """p(x_j) - b x_{j-1} - x_{j+1} on the cycle slots, P = p(X)."""
        return self.mask(P - self.b * X[self.prev_slot] - X[self.next_slot])

    def jacobian(self, D) -> np.ndarray:
        """The Jacobians at p'(x_j) = D[:, j]."""
        n = self.n
        A = np.empty((len(D), n, n), dtype=complex)
        A[...] = self.template
        diagonal = A.reshape(len(A), n * n)[:, ::n + 1]
        diagonal += self.mask(D)
        return A

    def mask(self, V) -> np.ndarray:
        """V on the cycle slots, 0 on the padded ones."""
        return np.where(self.cyc, V, 0.0)


@functools.lru_cache(maxsize=64)
def uniform_system(n: int, b) -> ClosureSystem:
    """The one-row system of period n, for stacks of that period.  Cached:
    a census runs Newton once per block, at a handful of (n, b)."""
    return ClosureSystem([n], n, b)


def solve_stack(A: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Solve A[i] x = F[i] for every i; a singular A[i] gives nan."""
    try:
        return np.linalg.solve(A, F[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(A) == 1:
            return np.full(F.shape, np.nan, dtype=complex)
        return np.concatenate([solve_stack(A[i:i + 1], F[i:i + 1])
                               for i in range(len(A))])


def _by_blocks(run, stacks: tuple, *args) -> tuple:
    """run(*stacks, *args) on each block of `block_rows` rows of the
    row-aligned stacks, the first a (k, n) stack of cycles, its outputs
    concatenated.  An empty stack runs as one empty block."""
    step = block_rows(stacks[0].shape[1])
    runs = [run(*(a[lo:lo + step] for a in stacks), *args)
            for lo in range(0, len(stacks[0]) or 1, step)]
    return tuple(np.concatenate(parts) for parts in zip(*runs))


def newton_cycles(X, p, dp, b, periods=None) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on the whole-cycle closure systems of the (k, n) stack
    X (composing the map would amplify rounding by |multiplier|), a period
    at a time: row i holds a cycle of period periods[i] (n by default) in
    its first slots, polished there as in a stack of that period alone;
    its slots after them are left as they are.  A row stops once
    max|F| < 1e-12 (1 + max|x|^2), within NEWTON_ITERS stacked solves,
    halving its own step up to LINE_SEARCH_HALVINGS times until it is
    finite and lowers max|F|; it fails on a non-finite start, a singular
    or non-finite step, or an exhausted line search.  Returns the stack and
    a mask of converged rows.
    """
    X = np.array(X, dtype=complex)
    if periods is None:
        periods = np.full(len(X), X.shape[1])
    ok = np.zeros(len(X), dtype=bool)
    for d in sorted(set(periods.tolist())):
        ids = np.flatnonzero(periods == d)
        X[ids, :d], ok[ids] = _by_blocks(_newton_block, (X[ids, :d],),
                                         p, dp, b)
    return X, ok


def _newton_block(X, p, dp, b) -> tuple[np.ndarray, np.ndarray]:
    """`newton_cycles` on one block."""
    X = X.copy()
    system = uniform_system(X.shape[1], b)
    ok = np.zeros(len(X), dtype=bool)
    live = np.all(np.isfinite(X), axis=1)
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_ITERS):
            idx = np.flatnonzero(live)
            if idx.size == 0:
                break
            Q = X[idx]
            F = system.defect(Q, p(Q))
            n_f = np.max(np.abs(F), axis=1)
            scale = 1.0 + np.max(np.abs(Q), axis=1) ** 2
            done = n_f < 1e-12 * scale
            ok[idx[done]] = True
            live[idx[done]] = False
            idx, Q, F, n_f = idx[~done], Q[~done], F[~done], n_f[~done]
            if idx.size == 0:
                break
            delta = solve_stack(system.jacobian(dp(Q)), F)
            good = np.all(np.isfinite(delta), axis=1)
            live[idx[~good]] = False
            idx, Q, delta, n_f = idx[good], Q[good], delta[good], n_f[good]
            t = 1.0
            for _ in range(LINE_SEARCH_HALVINGS):
                if idx.size == 0:
                    break
                R = Q - t * delta
                acc = (np.all(np.isfinite(R), axis=1)
                       & (np.max(np.abs(system.defect(R, p(R))),
                                 axis=1) < n_f))
                X[idx[acc]] = R[acc]
                idx, Q, delta = idx[~acc], Q[~acc], delta[~acc]
                n_f = n_f[~acc]
                t *= 0.5
            live[idx] = False
    return X, ok


def continue_cycles(X: np.ndarray, family, detours, b, periods=None):
    """Follow the (k, n) stack of cycles X of p(., c0) to p(., c1).

    family is (p, dp, dp_dc): p(x, c) and its derivatives in x and in c,
    each on a stack and a column (rows, 1) of family parameters.  A detour
    (c0, c1, kappa) is the path c(s) = c0 + (c1 - c0) s + kappa sin(pi s),
    pinned to c1 at s = 1 (sin(pi) is not 0 in floating point): off the
    real line, where cycles collide at bifurcations, a path meets a
    collision only by accident ("gamma trick" homotopy, Sommese-Wampler,
    The Numerical Solution of Systems of Polynomials, 2005).  Every row
    runs on the first detour; a row lost there reruns from its start on
    the next, and so on.  Row i may hold a cycle of period periods[i] < n
    in its first slots, padded with zeros: the padded slots have zero
    defect and identity Jacobian rows, so they never move.

    Each path has its own s and step h.  A step predicts along the tangent
    dX/ds (Euler), solved once per point reached and kept across rejected
    steps, then runs CORRECTOR_ITERS undamped stacked Newton iterations.
    It is accepted when the residual ends below STEP_RESIDUAL * scale and
    the cycle moved less than STEP_MOVE * scale (scale = 1 + max|x|^2),
    doubling h up to STEP_MAX; a rejection halves h, and a path with h
    below STEP_MIN is lost.  Returns the ends (where lost paths stalled on
    their last detour), a mask of the paths that reached s = 1, each
    path's count of detours run, and its step halvings and accepted steps
    summed over them.
    """
    k = len(X)
    periods = np.full(k, X.shape[1]) if periods is None else periods
    ends = np.array(X, dtype=complex)
    reached = np.zeros(k, dtype=bool)
    runs, halvings, accepted = np.zeros((3, k), dtype=np.int64)
    lost = np.arange(k)
    for detour in detours:
        ends[lost], reached[lost], h, acc = _by_blocks(
            _continue_block, (X[lost], periods[lost]), family, detour, b)
        runs[lost] += 1
        halvings[lost] += h
        accepted[lost] += acc
        lost = lost[~reached[lost]]
        if not lost.size:
            break
    return ends, reached, runs, halvings, accepted


def _continue_block(X, periods, family, detour, b):
    """`continue_cycles` on one block and one detour."""
    p, dp, dp_dc = family
    c0, c1, kappa = detour

    def c(s):
        return np.where(s < 1.0,
                        c0 + (c1 - c0) * s + kappa * np.sin(np.pi * s), c1)

    k, n = X.shape
    system = ClosureSystem(periods, n, b)
    X = X.copy()
    s = np.zeros(k)
    h = np.full(k, STEP_MAX)
    live = np.ones(k, dtype=bool)
    # J dX/ds = -dp/ds: the predictor subtracts (s_new - s) J^-1 dp/ds
    slope = np.empty_like(X)
    stale = np.ones(k, dtype=bool)
    halvings = np.zeros(k, dtype=np.int64)
    accepted = np.zeros(k, dtype=np.int64)
    with np.errstate(all="ignore"):
        while live.any():
            idx = np.flatnonzero(live)
            new = idx[stale[idx]]
            if new.size:
                S = s[new, None]
                C = c(S)
                # dp/ds = dp/dc dc/ds
                dc_ds = (c1 - c0) + kappa * np.pi * np.cos(np.pi * S)
                tangent = system.rows(new)
                slope[new] = solve_stack(
                    tangent.jacobian(dp(X[new], C)),
                    tangent.mask(dc_ds * dp_dc(X[new], C)))
                stale[new] = False
            s_new = np.minimum(s[idx] + h[idx], 1.0)
            C = c(s_new[:, None])
            step = system.rows(idx)
            Q = X[idx] - (s_new - s[idx])[:, None] * slope[idx]
            for _ in range(CORRECTOR_ITERS):
                Q = Q - solve_stack(step.jacobian(dp(Q, C)),
                                    step.defect(Q, p(Q, C)))
            res = np.max(np.abs(step.defect(Q, p(Q, C))), axis=1)
            move = np.max(np.abs(Q - X[idx]), axis=1)
            scale = 1.0 + np.max(np.abs(Q), axis=1) ** 2
            ok = (res < STEP_RESIDUAL * scale) & (move < STEP_MOVE * scale)
            acc, rej = idx[ok], idx[~ok]
            X[acc] = Q[ok]
            s[acc] = s_new[ok]
            stale[acc] = True
            h[acc] = np.minimum(2.0 * h[acc], STEP_MAX)
            h[rej] *= 0.5
            accepted[acc] += 1
            halvings[rej] += 1
            live[acc[s[acc] >= 1.0]] = False
            live[rej[h[rej] < STEP_MIN]] = False
    return X, s >= 1.0, halvings, accepted


def minimal_periods(X: np.ndarray) -> np.ndarray:
    """For each row of the (k, d) stack X, the least e | d with the row
    shifted by e within DEDUP_TOL of itself, |.| as hypot (as
    y_j = x_{j-1}, the y shift moves no further)."""
    k, d = X.shape
    low = np.full(k, d)
    for e in range(d - 1, 0, -1):
        if d % e == 0:
            D = X - np.roll(X, -e, axis=1)
            low[np.all(np.hypot(D.real, D.imag) <= DEDUP_TOL, axis=1)] = e
    return low


def same_cycle(xa, xb) -> bool:
    """Do two cycles, given by their x-sequences, match within DEDUP_TOL
    under some cyclic shift?  x alone decides, as in `minimal_periods`."""
    d = len(xa)
    if d != len(xb):
        return False
    xb = list(xb) * 2
    return any(all(abs(u - v) <= DEDUP_TOL for u, v in zip(xa, xb[shift:]))
               for shift in range(d))


def matches(X: np.ndarray) -> dict:
    """Which cycles of the (k, d) stack X match which: row i -> the other
    rows j with `same_cycle(X[i], X[j])`, for the rows that match one.
    A match moves each Re x by at most DEDUP_TOL, their sum by at most
    d DEDUP_TOL, so cycles whose computed sums, each widened by d DEDUP_TOL
    and its rounding, fall in disjoint intervals cannot match; only rows
    whose intervals overlap are compared, and a row whose interval is not
    finite is taken to span the line."""
    k, d = X.shape
    with np.errstate(over="ignore", invalid="ignore"):
        s = X.real.sum(axis=1)
        r = d * DEDUP_TOL + d * SUM_SLACK * np.abs(X.real).sum(axis=1)
        lo, hi = s - r, s + r
    finite = np.isfinite(lo) & np.isfinite(hi)
    lo = np.where(finite, lo, -np.inf)
    hi = np.where(finite, hi, np.inf)
    order = np.argsort(lo, kind="stable")
    # the sorted intervals after the p-th that start by its end overlap it
    after = (np.searchsorted(lo[order], hi[order], side="right")
             - np.arange(1, k + 1))
    p = np.repeat(np.arange(k), after)
    q = p + 1 + np.arange(len(p)) - np.repeat(np.cumsum(after) - after, after)
    near = {}
    for i, j in zip(order[p].tolist(), order[q].tolist()):
        if same_cycle(X[i].tolist(), X[j].tolist()):
            near.setdefault(i, []).append(j)
            near.setdefault(j, []).append(i)
    return near
