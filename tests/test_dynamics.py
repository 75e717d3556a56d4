import math

import numpy as np
import pytest

from henonlab.dynamics import (MapParams, OrbitRecord, PointC2, Region,
                               classify_orbit, classify_region,
                               derivative_along_orbit, escape_radius,
                               henon_apply, henon_apply_factored,
                               henon_derivative, henon_inverse,
                               is_horseshoe_regime)
from henonlab.errors import ContractError, MapOverflowError


def random_points(rng, n, scale=3.0):
    c = rng.normal(size=(n, 4)) * scale
    return [PointC2(complex(r[0], r[1]), complex(r[2], r[3])) for r in c]


def test_inverse_composes_to_identity():
    rng = np.random.default_rng(0)
    m = MapParams(1.2 + 0.4j, -0.7 + 0.1j)
    for p in random_points(rng, 200):
        q = henon_inverse(henon_apply(p, m), m)
        assert abs(q.x - p.x) < 1e-9 * (1 + abs(p.x) ** 2)
        assert abs(q.y - p.y) < 1e-9 * (1 + abs(p.y) ** 2)
        r = henon_apply(henon_inverse(p, m), m)
        assert abs(r.x - p.x) < 1e-9 * (1 + abs(p.x) ** 2)


def test_factored_form_matches_direct():
    rng = np.random.default_rng(1)
    m = MapParams(10.0, 0.3)
    for p in random_points(rng, 100):
        direct = henon_apply(p, m)
        factored = henon_apply_factored(p, m)
        assert abs(direct.x - factored.x) < 1e-12 * (1 + abs(direct.x))
        assert direct.y == factored.y


def test_derivative_determinant_is_b():
    rng = np.random.default_rng(2)
    m = MapParams(3.0, -0.5 + 0.2j)
    for p in random_points(rng, 50):
        det = np.linalg.det(henon_derivative(p, m))
        assert abs(det - m.b) < 1e-12 * (1 + abs(m.b))


def test_derivative_matches_finite_differences():
    m = MapParams(2.0 + 1.0j, 0.4)
    p = PointC2(0.7 - 0.2j, -1.1 + 0.5j)
    J = henon_derivative(p, m)
    h = 1e-7
    for k, dp in enumerate((PointC2(h, 0), PointC2(0, h))):
        q0 = henon_apply(p, m)
        q1 = henon_apply(PointC2(p.x + dp.x, p.y + dp.y), m)
        col = np.array([(q1.x - q0.x) / h, (q1.y - q0.y) / h])
        assert np.max(np.abs(col - J[:, k])) < 1e-5


def test_derivative_along_orbit_chains():
    m = MapParams(10.0, 0.3)
    p = PointC2(0.3, -0.2)
    q = henon_apply(p, m)
    J2 = derivative_along_orbit([p, q], m)
    assert np.array_equal(J2, henon_derivative(q, m) @ henon_derivative(p, m))
    assert abs(np.linalg.det(J2) - m.b ** 2) < 1e-12
    # a longer complex orbit is the left-multiplied factor product bit for bit
    m = MapParams(1.2 + 0.5j, 0.3 - 0.1j)
    pts = [PointC2(0.3 - 0.1j, -0.2 + 0.4j)]
    for _ in range(6):
        pts.append(henon_apply(pts[-1], m))
    acc = np.eye(2, dtype=complex)
    for q in pts:
        acc = henon_derivative(q, m) @ acc
    assert np.array_equal(derivative_along_orbit(pts, m), acc)
    assert np.array_equal(derivative_along_orbit([], m), np.eye(2))


def test_escape_radius_solves_its_quadratic():
    for a, b in [(10.0, 0.3), (3.0, -0.5), (1.4 + 0.2j, 0.3), (2.0, 1.0)]:
        r = escape_radius(a, b) / (1.0 + 1e-9)
        assert abs(r * r - (1 + abs(b)) * r - abs(a)) < 1e-9 * r * r
        # inflation keeps the extremal fixed point inside the bidisk
        assert escape_radius(a, b) > r


def test_fixed_point_classifies_inside_bidisk():
    m = MapParams(10.0, 0.3)
    x = -(1 + 0.3 + math.sqrt((1 + 0.3) ** 2 + 40.0)) / 2.0
    assert classify_region(PointC2(x, x), m.R) is Region.B


def test_classify_region_cases():
    assert classify_region(PointC2(0.1, 0.2), 1.0) is Region.B
    assert classify_region(PointC2(2.0, 2.0), 1.0) is Region.B_MINUS  # tie
    assert classify_region(PointC2(0.5, 3.0), 1.0) is Region.B_PLUS
    assert classify_region(PointC2(3.0, 0.5), 1.0) is Region.B_MINUS
    with pytest.raises(ContractError):
        classify_region(PointC2(0, 0), 0.0)


def test_horseshoe_regime_flags():
    assert is_horseshoe_regime(MapParams(10.0, 0.3))
    assert is_horseshoe_regime(MapParams(6.0, 0.2))
    assert is_horseshoe_regime(MapParams(10.0j, 0.3))
    assert not is_horseshoe_regime(MapParams(3.0, -0.5))
    assert not is_horseshoe_regime(MapParams(0.1, 0.3))
    assert not is_horseshoe_regime(MapParams(2.0, 1.0))
    assert not is_horseshoe_regime(MapParams(1.4 + 0.2j, 0.3))


def test_b_zero_rejected():
    with pytest.raises(ContractError):
        MapParams(10.0, 0.0)


def test_apply_overflow_raises():
    m = MapParams(10.0, 0.3)
    with pytest.raises(MapOverflowError):
        henon_apply(PointC2(1e200, 0.0), m)


def test_classify_orbit_fixed_point_stays_bounded():
    # budget kept short: rounding noise grows like |lambda|^n ~ 7.6^n along
    # the unstable direction, so a saddle only shadows itself so long
    m = MapParams(10.0, 0.3)
    x = -(1 + 0.3 + math.sqrt((1 + 0.3) ** 2 + 40.0)) / 2.0
    rec = classify_orbit(PointC2(x, x), m, "forward", 12)
    assert rec.escape_step is None
    assert rec.bounded_up_to == 12
    assert all(r is Region.B for r in rec.region_trace)


def test_classify_orbit_cone_start_escapes_at_zero():
    m = MapParams(10.0, 0.3)
    rec = classify_orbit(PointC2(2 * m.R, 0.0), m, "forward", 10)
    assert rec.escape_step == 0
    rec_b = classify_orbit(PointC2(0.0, 2 * m.R), m, "backward", 10)
    assert rec_b.escape_step == 0


def test_classify_orbit_generic_point_escapes_forward():
    m = MapParams(10.0, 0.3)
    rec = classify_orbit(PointC2(0.1, 4.1), m, "forward", 64)
    assert rec.escape_step is not None
    assert rec.region_trace[-1] is Region.B_MINUS
    assert isinstance(rec, OrbitRecord)


def test_classify_orbit_overflow_is_flagged_escape():
    m = MapParams(10.0, 0.3)
    # start in B+ so the forward classifier must take a step, which overflows
    rec = classify_orbit(PointC2(1e200, 2e200), m, "forward", 10)
    assert rec.escape_step == 1
    assert rec.overflow
    assert rec.final_norm == math.inf
    huge = classify_orbit(PointC2(1e80, 1.0), m, "forward", 10)
    assert huge.escape_step == 0 and not huge.overflow


def test_classify_orbit_rejects_bad_inputs():
    m = MapParams(10.0, 0.3)
    with pytest.raises(ContractError):
        classify_orbit(PointC2(0, 0), m, "sideways", 10)
    with pytest.raises(ContractError):
        classify_orbit(PointC2(0, 0), m, "forward", 0)
