"""Complex Henon family f(x, y) = (-x^2 + a - b*y, x) on C^2.

The map is invertible for b != 0 with constant Jacobian determinant b,
and factors as f = f3 o f2 o f1 with
    f1(x, y) = (x, b*y),    f2(x, y) = (-y, x),    f3(x, y) = (x + (-y^2 + a), y).

C^2 splits into a bidisk B = {|x| < R, |y| < R} and two cones: B- where
|x| dominates (forward-absorbing, |x| grows strictly) and B+ where |y|
dominates (backward-absorbing).  Escape through B- / B+ is the basis of
every unbounded-orbit classification in this package.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ContractError, MapOverflowError

# Relative inflation of the closed-form filtration radius.  For real a, b > 0
# the extremal saddle fixed point sits exactly at |x| = |y| = R_closed_form,
# which the strict bidisk inequality would misclassify as escaped; any radius
# >= the closed form keeps the absorption property, so nudge it outward.
_RADIUS_SAFETY = 1e-9


class PointC2(NamedTuple):
    """Point of C^2 with component accessors x = pi_1, y = pi_2."""

    x: complex
    y: complex


class Region(enum.Enum):
    B = "B"
    B_PLUS = "B+"
    B_MINUS = "B-"


def escape_radius(a: complex, b: complex) -> float:
    """Filtration radius for parameters (a, b).

    R solves t^2 - (1+|b|)t - |a| = 0, the threshold above which
    |x'| >= |x|^2 - |a| - |b||x| exceeds |x|.  The backward map gives the
    same quadratic in |y| (the roles of the growing coordinate swap), so
    the maximum of the forward and backward bounds is this single value.
    """
    s = 1.0 + abs(b)
    r = 0.5 * (s + math.sqrt(s * s + 4.0 * abs(a)))
    return r * (1.0 + _RADIUS_SAFETY)


@dataclass(frozen=True)
class MapParams:
    a: complex
    b: complex
    R: float = field(init=False)

    def __post_init__(self):
        if self.b == 0:
            raise ContractError("b = 0 degenerates the family to a 1-d polynomial")
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        object.__setattr__(self, "R", escape_radius(self.a, self.b))


def henon_apply(p: PointC2, m: MapParams) -> PointC2:
    x, y = p
    out = PointC2(-x * x + m.a - m.b * y, x)
    if not cmath.isfinite(out.x):
        raise MapOverflowError(p)
    return out


def henon_inverse(q: PointC2, m: MapParams) -> PointC2:
    x, y = q
    out = PointC2(y, (m.a - y * y - x) / m.b)
    if not cmath.isfinite(out.y):
        raise MapOverflowError(q)
    return out


def henon_apply_factored(p: PointC2, m: MapParams) -> PointC2:
    """Apply f through its shear/rotation/shear factorization."""
    x, y = p
    x, y = x, m.b * y          # f1
    x, y = -y, x               # f2
    return PointC2(x + (-y * y + m.a), y)  # f3


def henon_derivative(p: PointC2, m: MapParams) -> np.ndarray:
    """Derivative matrix [[-2x, -b], [1, 0]] at p; det = b identically."""
    return np.array([[-2.0 * p.x, -m.b], [1.0, 0.0]], dtype=complex)


def monodromy_stack(X, b: complex) -> np.ndarray:
    """Chain-rule products Df(p_{n-1}) ... Df(p_0), shape (k, 2, 2), for a
    (k, n) stack X of orbit x-coordinates: henon_derivative's factors,
    multiplied from the left in orbit order, one stacked matmul a step."""
    X = np.asarray(X, dtype=complex)
    D = np.zeros(X.shape + (2, 2), dtype=complex)
    D[..., 0, 0] = -2.0 * X
    D[..., 0, 1] = -b
    D[..., 1, 0] = 1.0
    acc = np.repeat(np.eye(2, dtype=complex)[None], len(X), axis=0)
    for j in range(X.shape[1]):
        acc = D[:, j] @ acc
    return acc


def derivative_along_orbit(points, m: MapParams) -> np.ndarray:
    """`monodromy_stack` on one orbit's consecutive points."""
    return monodromy_stack([[p.x for p in points]], m.b)[0]


def classify_region(p: PointC2, R: float) -> Region:
    if R <= 0:
        raise ContractError("R must be positive")
    ax, ay = abs(p.x), abs(p.y)
    if max(ax, ay) < R:
        return Region.B
    if ax >= R and ax >= ay:  # tie on |x| = |y| goes to B-
        return Region.B_MINUS
    return Region.B_PLUS


def is_horseshoe_regime(m: MapParams) -> bool:
    """Sufficient check that the inverse-branch shadowing construction applies.

    Requires the branch argument a - x_{j+1} - b*x_{j-1} to stay in a disk of
    radius (1+|b|)R around a that avoids the square-root branch cut and keeps
    the two-sided contraction factor (1+|b|)/(2 sqrt(min modulus)) below 1.
    Holds for the standard full-horseshoe parameters (image fold entirely
    outside the bidisk), e.g. a = 10, b = 0.3.
    """
    reach = (1.0 + abs(m.b)) * m.R
    cut_dist = abs(m.a) if m.a.real >= 0 else abs(m.a.imag)
    if cut_dist <= reach:
        return False
    return abs(m.a) - reach > 0.25 * (1.0 + abs(m.b)) ** 2


@dataclass(frozen=True)
class OrbitRecord:
    start: PointC2
    direction: str
    escape_step: int | None
    final_norm: float
    region_trace: tuple[Region, ...]
    bounded_up_to: int
    overflow: bool = False


def classify_orbit(p: PointC2, m: MapParams, direction: str,
                   budget: int) -> OrbitRecord:
    """Iterate until the absorbing cone is entered or the budget runs out.

    Forward orbits are absorbed by B-, backward orbits by B+.  Entering the
    cone at step k sets escape_step = k (step 0 means the start point already
    lies in the cone).  Numeric overflow is reported as an escape at the step
    where it occurred, with the overflow flag set.
    """
    if budget < 1:
        raise ContractError("budget must be >= 1")
    if direction == "forward":
        step, target = henon_apply, Region.B_MINUS
    elif direction == "backward":
        step, target = henon_inverse, Region.B_PLUS
    else:
        raise ContractError(f"direction must be forward or backward, got {direction!r}")

    trace = [classify_region(p, m.R)]
    if trace[0] is target:
        return OrbitRecord(p, direction, 0, _sup_norm(p), tuple(trace), 0)

    q = p
    for k in range(1, budget + 1):
        try:
            q = step(q, m)
        except MapOverflowError:
            # blowing past double range is an escape in all but name
            trace.append(target)
            return OrbitRecord(p, direction, k, math.inf, tuple(trace), k, overflow=True)
        reg = classify_region(q, m.R)
        trace.append(reg)
        if reg is target:
            return OrbitRecord(p, direction, k, _sup_norm(q), tuple(trace), k)
    return OrbitRecord(p, direction, None, _sup_norm(q), tuple(trace), budget)


def _sup_norm(p: PointC2) -> float:
    return max(abs(p.x), abs(p.y))
