import numpy as np

import henonlab.cycles as cycles
from henonlab.dynamics import MapParams
from henonlab.periodic2d import (DETOURS, QUADRATIC, _newton_cycles,
                                 _start_parameter, periodic_points_2d)


def test_continuation_solves_one_tangent_per_point_reached(monkeypatch):
    # the start cycles of (1.4, 0.3) at n = 7, continued from a0 = 10 along
    # the census detour; a rejected step keeps its path's tangent
    b = 0.3
    a0, a1 = _start_parameter(b), 1.4
    start = periodic_points_2d(MapParams(a0, b), 7)
    X0 = np.array([[p.x for p in o.points] for o in start.orbits
                   if o.period == 7])

    tangent_rows, solved_rows = [], []

    def da(X, A):
        # dp/da, read once per tangent solve
        tangent_rows.append(len(X))
        return 1.0

    solve = cycles.solve_stack

    def counting(A, F):
        solved_rows.append(len(A))
        return solve(A, F)

    monkeypatch.setattr(cycles, "solve_stack", counting)
    X, reached, runs, halvings, accepted = cycles.continue_cycles(
        X0, (lambda X, A: -X * X + A, lambda X, A: -2.0 * X, da),
        [(a0, a1, 2j)], b)
    k = len(X0)
    corrector = sum(solved_rows) - sum(tangent_rows)
    assert corrector % cycles.CORRECTOR_ITERS == 0
    # every step tried, accepted or not, runs the corrector once per path
    assert corrector // cycles.CORRECTOR_ITERS == (halvings + accepted).sum()
    assert reached.all() and halvings.sum() > 0 and np.all(accepted >= 1)
    assert np.all(runs == 1)
    # one tangent at each start and at each point reached short of s = 1;
    # a solve per step tried would make `halvings` more
    assert sum(tangent_rows) == k + accepted.sum() - int(reached.sum())
    # the ends close the target system
    system = cycles.ClosureSystem(np.full(k, X.shape[1]), X.shape[1], b)
    res = np.max(np.abs(system.defect(X, -X * X + a1)), axis=1)
    scale = 1.0 + np.max(np.abs(X), axis=1) ** 2
    assert np.all(res < cycles.STEP_RESIDUAL * scale)


def _start_cycles(b, n):
    """The period-n cycles of the horseshoe start census of b, (k, n)."""
    start = periodic_points_2d(MapParams(_start_parameter(b), b), n)
    return np.array([[p.x for p in o.points] for o in start.orbits
                     if o.period == n])


def test_newton_polishes_padded_stack_a_period_at_a_time():
    # rough seeds of periods 3, 5 and 7 (start cycles, scaled) in one
    # stack padded to 7; the padded slots hold values Newton must not touch
    m = MapParams(1.4, 0.3)
    groups = [_start_cycles(0.3, n)[:4] * 0.3 + 0.01j for n in (3, 5, 7)]
    periods = np.repeat([3, 5, 7], [len(g) for g in groups])
    X0 = np.full((len(periods), 7), 9.0 + 9.0j)
    for i, x in enumerate(row for g in groups for row in g):
        X0[i, :len(x)] = x
    X, ok = _newton_cycles(m, X0, periods)
    pad = np.arange(7) >= periods[:, None]
    assert np.array_equal(X[pad], X0[pad])
    lo = 0
    for g in groups:
        d = g.shape[1]
        Y, good = _newton_cycles(m, g)
        rows = slice(lo, lo + len(g))
        assert X[rows, :d].tobytes() == Y.tobytes()
        assert np.array_equal(ok[rows], good)
        lo += len(g)
    assert ok.any()


def test_lost_rows_rerun_from_their_start_on_the_next_detour():
    # the period-8 start cycles of b = -0.44608 continued to a = 0.02431:
    # the 2i detour loses two of them, which the 1i detour, run from
    # their starts, brings home
    b, a1 = -0.44608, 0.02431
    a0 = _start_parameter(b)
    X0 = _start_cycles(b, 8)
    first, second = ([(a0, a1, kappa)] for kappa in DETOURS)
    X, reached, runs, halvings, accepted = cycles.continue_cycles(
        X0, QUADRATIC, first + second, b)
    Y, r, _, h, acc = cycles.continue_cycles(X0, QUADRATIC, first, b)
    lost = ~r
    assert np.count_nonzero(lost) == 2
    Z, r2, _, h2, acc2 = cycles.continue_cycles(
        X0[lost], QUADRATIC, second, b)
    assert r2.all() and reached.all()
    assert np.array_equal(runs, np.where(lost, 2, 1))
    assert X[~lost].tobytes() == Y[~lost].tobytes()
    assert X[lost].tobytes() == Z.tobytes()
    assert np.array_equal(halvings[~lost], h[~lost])
    assert np.array_equal(accepted[~lost], acc[~lost])
    assert np.array_equal(halvings[lost], h[lost] + h2)
    assert np.array_equal(accepted[lost], acc[lost] + acc2)
