"""Finite atomic measures, logarithmic potentials and weak-convergence probes.

Equilibrium measures are approximated by finite point clouds (preimage
trees, periodic points, cylinder boxes), each a normalized counting
measure: d^-n per preimage, 2^-n per periodic point, 4^-n per box.
Closeness of two such clouds is probed by integrating a fixed battery of
smooth windowed test functions and taking the worst disagreement, a
pseudometric adequate for detecting weak-convergence trends without any
density estimation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ContractError

UNIT_CIRCLE_TOL = 1e-6


@dataclass(frozen=True)
class DiscreteMeasure:
    """Atoms in C (ambient_dim 1, points shape (N,)) or C^2 (dim 2, points
    shape (N, 2)); atom i weighs counts[i] / denominator exactly.  Complete
    means the cloud is the whole intended atom set, not a sampled or
    truncated one, so its counts sum to the denominator."""

    points: np.ndarray
    counts: np.ndarray
    denominator: int
    ambient_dim: int
    complete: bool = True
    provenance: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex)
        if self.ambient_dim == 1:
            if pts.ndim != 1:
                raise ContractError("ambient_dim 1 expects a flat complex array")
        elif self.ambient_dim == 2:
            if pts.ndim != 2 or pts.shape[1] != 2:
                raise ContractError("ambient_dim 2 expects an (N, 2) complex array")
        else:
            raise ContractError("ambient_dim must be 1 or 2")
        counts = np.asarray(self.counts)
        if counts.ndim != 1 or len(counts) != len(pts):
            raise ContractError("one count per atom required")
        if counts.dtype.kind not in "iu" or np.any(counts <= 0):
            raise ContractError("counts must be positive integers")
        if type(self.denominator) is not int or self.denominator < 1:
            raise ContractError("denominator must be an integer >= 1")
        counts = counts.astype(np.int64)
        counts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "counts", counts)
        if self.complete and int(counts.sum()) != self.denominator:
            raise ContractError("complete measure must have total mass 1")

    def __len__(self) -> int:
        return len(self.counts)

    def total_mass(self) -> Fraction:
        return Fraction(int(self.counts.sum()), self.denominator)

    @functools.cached_property
    def weight_array(self) -> np.ndarray:
        """Float weights counts / denominator, read-only."""
        w = self.counts / float(self.denominator)
        w.flags.writeable = False
        return w

    @functools.cached_property
    def _probe_integrals(self) -> dict:
        # (ambient_dim, sigma) of a battery -> its probe integrals
        return {}

    def probe_integrals(self, battery: "TestBattery") -> tuple:
        """Integrals of every battery probe against this measure, in id
        order; computed once per battery (ambient_dim, sigma)."""
        key = (battery.ambient_dim, battery.sigma)
        if key not in self._probe_integrals:
            self._probe_integrals[key] = tuple(
                integrate(self, vals)
                for vals in battery.evaluate_all(self.points))
        return self._probe_integrals[key]


class TestBattery:
    """Gaussian-windowed polynomial moments, normalized to sup norm <= 1.

    ambient_dim 2 carries the ten probes {1, Re x, Im x, Re y, Im y, Re x^2,
    Im x^2, Re xy, Im xy, |p|^2} times exp(-|p|^2 / 2 sigma^2); ambient_dim 1
    the analogous six in one variable.
    """

    def __init__(self, ambient_dim: int, sigma: float):
        if ambient_dim not in (1, 2):
            raise ContractError("ambient_dim must be 1 or 2")
        if sigma <= 0:
            raise ContractError("sigma must be positive")
        self.ambient_dim = ambient_dim
        self.sigma = float(sigma)
        # sup of r^k exp(-r^2/2s^2) over r >= 0 is (k s^2)^(k/2) e^(-k/2)
        s = self.sigma
        lin = s * math.exp(-0.5)
        quad = 2.0 * s * s * math.exp(-1.0)
        cross = s * s * math.exp(-1.0)
        if ambient_dim == 2:
            self._probes = [
                ("gauss", lambda x, y: np.ones_like(x.real), 1.0),
                ("g_re_x", lambda x, y: x.real, lin),
                ("g_im_x", lambda x, y: x.imag, lin),
                ("g_re_y", lambda x, y: y.real, lin),
                ("g_im_y", lambda x, y: y.imag, lin),
                ("g_re_x2", lambda x, y: (x * x).real, quad),
                ("g_im_x2", lambda x, y: (x * x).imag, quad),
                ("g_re_xy", lambda x, y: (x * y).real, cross),
                ("g_im_xy", lambda x, y: (x * y).imag, cross),
                ("g_norm2", lambda x, y: np.abs(x) ** 2 + np.abs(y) ** 2, quad),
            ]
        else:
            self._probes = [
                ("gauss", lambda z: np.ones_like(z.real), 1.0),
                ("g_re", lambda z: z.real, lin),
                ("g_im", lambda z: z.imag, lin),
                ("g_re2", lambda z: (z * z).real, quad),
                ("g_im2", lambda z: (z * z).imag, quad),
                ("g_abs2", lambda z: np.abs(z) ** 2, quad),
            ]

    @property
    def ids(self) -> list[str]:
        return [name for name, _, _ in self._probes]

    def _coords_and_window(self, points) -> tuple:
        pts = np.asarray(points, dtype=complex)
        if self.ambient_dim == 2:
            x, y = pts[:, 0], pts[:, 1]
            r2 = np.abs(x) ** 2 + np.abs(y) ** 2
            coords = (x, y)
        else:
            r2 = np.abs(pts) ** 2
            coords = (pts,)
        return coords, np.exp(-r2 / (2.0 * self.sigma ** 2))

    def evaluate_all(self, points: np.ndarray) -> list:
        """Every probe at points, in id order, over one shared window."""
        coords, window = self._coords_and_window(points)
        return [fn(*coords) * window / norm for _, fn, norm in self._probes]


def integrate(mu: DiscreteMeasure, values) -> float:
    """Integral of test-function values (one per atom) against mu, summed in
    fixed atom order."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != (len(mu),):
        raise ContractError("need one test value per atom")
    return math.fsum((mu.weight_array * vals).tolist())


@dataclass(frozen=True)
class ComparisonResult:
    discrepancy: float
    advisory: bool
    worst_id: str = ""

    def __float__(self) -> float:
        return self.discrepancy


def compare(mu1: DiscreteMeasure, mu2: DiscreteMeasure,
            battery: TestBattery) -> ComparisonResult:
    """Worst |int f dmu1 - int f dmu2| over the battery; advisory when either
    cloud is incomplete (sampled or truncated atom sets compare loosely).
    Each measure integrates the battery once (`probe_integrals`)."""
    if mu1.ambient_dim != mu2.ambient_dim:
        raise ContractError("measures live in different ambient dimensions")
    if battery.ambient_dim != mu1.ambient_dim:
        raise ContractError("battery dimension mismatch")
    worst, worst_id = 0.0, battery.ids[0]
    for test_id, v1, v2 in zip(battery.ids, mu1.probe_integrals(battery),
                               mu2.probe_integrals(battery)):
        d = abs(v1 - v2)
        if d > worst:
            worst, worst_id = d, test_id
    return ComparisonResult(worst, advisory=not (mu1.complete and mu2.complete),
                            worst_id=worst_id)


def potential_of_measure(mu: DiscreteMeasure, z: complex) -> float:
    """Logarithmic potential sum w_i log|z - p_i|; -inf if z hits an atom."""
    if mu.ambient_dim != 1:
        raise ContractError("logarithmic potential is defined for planar measures")
    d = np.abs(z - mu.points)
    if np.any(d == 0.0):
        return -math.inf
    return math.fsum(float(v) for v in mu.weight_array * np.log(d))


def angular_discrepancy(mu: DiscreteMeasure, radial_tol: float = UNIT_CIRCLE_TOL) -> float:
    """Kolmogorov distance between the atom angle distribution and the uniform
    law on the circle.  Atoms must sit within radial_tol of the unit circle;
    deep backward-walk clouds carry shadowing error above the default."""
    if mu.ambient_dim != 1:
        raise ContractError("angular discrepancy needs planar atoms")
    radii = np.abs(mu.points)
    if np.any(np.abs(radii - 1.0) > radial_tol):
        worst = float(np.max(np.abs(radii - 1.0)))
        raise ContractError(f"atoms are not on the unit circle "
                            f"(worst radial deviation {worst:.3e})")
    u = np.mod(np.angle(mu.points) / (2.0 * math.pi), 1.0)
    order = np.argsort(u, kind="stable")
    u = u[order]
    w = mu.weight_array[order]
    w = w / w.sum()
    cum_after = np.cumsum(w)
    cum_before = cum_after - w
    return float(np.max(np.maximum(np.abs(cum_after - u), np.abs(cum_before - u))))
