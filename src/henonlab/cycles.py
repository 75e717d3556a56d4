"""Cyclic closure systems in x alone, for the Henon map and for f(z).

A cycle of (x, y) -> (p(x) - b y, x) is its x-sequence (y_j = x_{j-1}),
closed by x_{j+1} + b x_{j-1} = p(x_j): p(x) = a - x^2 for the Henon map,
b = 0 and p = f for a polynomial f.  The defect p(x_j) - b x_{j-1} - x_{j+1}
has an n x n cyclic-tridiagonal Jacobian: p'(x_j) on the diagonal, -b and
-1 off it.  Damped Newton and continuation run over (k, n) stacks of cycles
of one period, each row bit for bit as alone; callers supply p, p' (and
dp/ds) as callables on stacks, and b.
"""

from __future__ import annotations

import numpy as np

# entries of one (cycles, n, n) stack of Jacobians: callers run blocks of
# at least one cycle each, so that temporaries stay bounded
PATHS_BLOCK_ELEMS = 1 << 18
NEWTON_ITERS = 60
LINE_SEARCH_HALVINGS = 20
CORRECTOR_ITERS = 3
STEP_RESIDUAL = 1e-11
STEP_MOVE = 0.25
STEP_MAX = 0.1
STEP_MIN = 1e-6


def block_rows(n: int) -> int:
    """Cycles of period n per block of PATHS_BLOCK_ELEMS Jacobian entries."""
    return max(1, PATHS_BLOCK_ELEMS // (n * n))


def cyclic_neighbours(n: int):
    """Index arrays of the next and previous cycle slot: x[nxt] and x[prv]
    are np.roll(x, -1) and np.roll(x, 1) without the per-call overhead."""
    idx = np.arange(n)
    return (idx + 1) % n, (idx - 1) % n


def closure_defect(X: np.ndarray, p, b) -> np.ndarray:
    """p(x_j) - b x_{j-1} - x_{j+1} for cycles stacked on the last axis."""
    nxt, prv = cyclic_neighbours(X.shape[-1])
    return p(X) - b * X[..., prv] - X[..., nxt]


def cycle_jacobian(D: np.ndarray, b) -> np.ndarray:
    """Closure Jacobians of cycles with p'(x_j) = D[..., j].  The cyclic
    entries are added, not assigned: at period 1 they land on the diagonal,
    at period 2 on one off-diagonal."""
    n = D.shape[-1]
    rows = np.arange(n)
    nxt, prv = cyclic_neighbours(n)
    A = np.zeros(D.shape + (n,), dtype=complex)
    A[..., rows, rows] = D
    A[..., rows, prv] += -b
    A[..., rows, nxt] += -1.0
    return A


def solve_stack(A: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Solve A[i] x = F[i] for every i; a singular A[i] gives nan."""
    try:
        return np.linalg.solve(A, F[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(A) == 1:
            return np.full(F.shape, np.nan, dtype=complex)
        return np.concatenate([solve_stack(A[i:i + 1], F[i:i + 1])
                               for i in range(len(A))])


def newton_cycles(X, p, dp, b) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on the whole-cycle closure systems of the (k, n) stack
    X (composing the map would amplify rounding by |multiplier|).  A row
    stops once max|F| < 1e-12 (1 + max|x|^2), within NEWTON_ITERS stacked
    solves, halving its own step up to LINE_SEARCH_HALVINGS times until it
    is finite and lowers max|F|; it fails on a non-finite start, a singular
    or non-finite step, or an exhausted line search.  Takes at most one
    block (`block_rows`); returns the stack and a mask of converged rows.
    """
    X = np.array(X, dtype=complex)
    ok = np.zeros(len(X), dtype=bool)
    live = np.all(np.isfinite(X), axis=1)
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_ITERS):
            idx = np.flatnonzero(live)
            if idx.size == 0:
                break
            Q = X[idx]
            F = closure_defect(Q, p, b)
            n_f = np.max(np.abs(F), axis=1)
            scale = 1.0 + np.max(np.abs(Q), axis=1) ** 2
            done = n_f < 1e-12 * scale
            ok[idx[done]] = True
            live[idx[done]] = False
            idx, Q, F, n_f = idx[~done], Q[~done], F[~done], n_f[~done]
            if idx.size == 0:
                break
            delta = solve_stack(cycle_jacobian(dp(Q), b), F)
            good = np.all(np.isfinite(delta), axis=1)
            live[idx[~good]] = False
            idx, Q, delta, n_f = idx[good], Q[good], delta[good], n_f[good]
            t = 1.0
            for _ in range(LINE_SEARCH_HALVINGS):
                if idx.size == 0:
                    break
                R = Q - t * delta
                acc = (np.all(np.isfinite(R), axis=1)
                       & (np.max(np.abs(closure_defect(R, p, b)),
                                 axis=1) < n_f))
                X[idx[acc]] = R[acc]
                idx, Q, delta = idx[~acc], Q[~acc], delta[~acc]
                n_f = n_f[~acc]
                t *= 0.5
            live[idx] = False
    return X, ok


def continue_cycles(X: np.ndarray, p, dp, dp_ds, b):
    """Follow the (k, n) stack of cycles X of p(., 0) to p(., 1); p, dp and
    dp_ds take a stack and the column (rows, 1) of its parameters s.

    Each path has its own s and step h.  A step predicts along the tangent
    dX/ds (Euler), solved once per point reached and kept across rejected
    steps, then runs CORRECTOR_ITERS undamped stacked Newton iterations.
    It is accepted when the residual ends below STEP_RESIDUAL * scale and
    the cycle moved less than STEP_MOVE * scale (scale = 1 + max|x|^2),
    doubling h up to STEP_MAX; a rejection halves h, and a path with h
    below STEP_MIN is lost.  Returns the ends (where lost paths stalled), a
    mask of the paths that reached s = 1 and the number of step halvings.
    """
    k = len(X)
    X = X.copy()
    s = np.zeros(k)
    h = np.full(k, STEP_MAX)
    live = np.ones(k, dtype=bool)
    # J dX/ds = -dp/ds: the predictor subtracts (s_new - s) J^-1 dp/ds
    slope = np.empty_like(X)
    stale = np.ones(k, dtype=bool)
    halvings = 0
    with np.errstate(all="ignore"):
        while live.any():
            idx = np.flatnonzero(live)
            new = idx[stale[idx]]
            if new.size:
                S = s[new, None]
                slope[new] = solve_stack(cycle_jacobian(dp(X[new], S), b),
                                         dp_ds(X[new], S))
                stale[new] = False
            s_new = np.minimum(s[idx] + h[idx], 1.0)
            S = s_new[:, None]
            Q = X[idx] - (s_new - s[idx])[:, None] * slope[idx]
            for _ in range(CORRECTOR_ITERS):
                F = closure_defect(Q, lambda Y: p(Y, S), b)
                Q = Q - solve_stack(cycle_jacobian(dp(Q, S), b), F)
            res = np.max(np.abs(closure_defect(Q, lambda Y: p(Y, S), b)),
                         axis=1)
            move = np.max(np.abs(Q - X[idx]), axis=1)
            scale = 1.0 + np.max(np.abs(Q), axis=1) ** 2
            ok = (res < STEP_RESIDUAL * scale) & (move < STEP_MOVE * scale)
            acc, rej = idx[ok], idx[~ok]
            X[acc] = Q[ok]
            s[acc] = s_new[ok]
            stale[acc] = True
            h[acc] = np.minimum(2.0 * h[acc], STEP_MAX)
            h[rej] *= 0.5
            halvings += rej.size
            live[acc[s[acc] >= 1.0]] = False
            live[rej[h[rej] < STEP_MIN]] = False
    return X, s >= 1.0, halvings
