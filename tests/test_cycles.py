import numpy as np

import henonlab.cycles as cycles
from henonlab.dynamics import MapParams
from henonlab.periodic2d import _start_parameter, periodic_points_2d


def test_continuation_solves_one_tangent_per_point_reached(monkeypatch):
    # the start cycles of (1.4, 0.3) at n = 7, continued from a0 = 10 along
    # the census detour; a rejected step keeps its path's tangent
    b = 0.3
    a0, a1 = _start_parameter(b), 1.4
    start = periodic_points_2d(MapParams(a0, b), 7)
    X0 = np.array([[p.x for p in o.points] for o in start.orbits
                   if o.period == 7])

    def a(s):
        return np.where(s < 1.0, a0 + (a1 - a0) * s + 2j * np.sin(np.pi * s),
                        a1)

    tangent_rows, solved_rows = [], []

    def dp_ds(X, s):
        tangent_rows.append(len(X))
        return np.broadcast_to((a1 - a0) + 2j * np.pi * np.cos(np.pi * s),
                               X.shape)

    solve = cycles.solve_stack

    def counting(A, F):
        solved_rows.append(len(A))
        return solve(A, F)

    monkeypatch.setattr(cycles, "solve_stack", counting)
    X, reached, halvings, accepted = cycles.continue_cycles(
        X0, a, lambda X, A: -X * X + A, lambda X, A: -2.0 * X, dp_ds, b)
    k = len(X0)
    corrector = sum(solved_rows) - sum(tangent_rows)
    assert corrector % cycles.CORRECTOR_ITERS == 0
    # every step tried, accepted or not, runs the corrector once per path
    assert corrector // cycles.CORRECTOR_ITERS == (halvings + accepted).sum()
    assert reached.all() and halvings.sum() > 0 and np.all(accepted >= 1)
    # one tangent at each start and at each point reached short of s = 1;
    # a solve per step tried would make `halvings` more
    assert sum(tangent_rows) == k + accepted.sum() - int(reached.sum())
    # the ends close the target system
    system = cycles.ClosureSystem(np.full(k, X.shape[1]), X.shape[1], b)
    res = np.max(np.abs(system.defect(X, -X * X + a1)), axis=1)
    scale = 1.0 + np.max(np.abs(X), axis=1) ** 2
    assert np.all(res < cycles.STEP_RESIDUAL * scale)
