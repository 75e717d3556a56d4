import sys
import types

import pytest

import henonlab

# the package's public names; the lazy export table must keep every one
EXPORTED = [
    "CapError", "CodingError", "ComparisonResult", "ContractError",
    "ConvergenceError", "DiscreteMeasure", "EntropyEstimate", "GreenEstimate",
    "GreenField", "HenonlabError", "MapOverflowError", "MapParams",
    "OrbitColumns", "OrbitRecord", "PeriodicLevel", "PeriodicOrbit",
    "PeriodicSequence", "PointC2", "Poly", "PreimageTree", "RealityReport",
    "Region", "SaddleRatioTable", "ScalarGrid", "SymbolWord", "TestBattery",
    "angular_discrepancy", "brolin_measure", "classify_orbit",
    "classify_region", "code_orbit", "compare", "cycles",
    "cylinder_point_measure", "derivative_along_orbit", "discrete_ddc_mass",
    "dynamics", "entropy_estimate", "errors",
    "escape_radius", "exceptional_check", "fixed_points_closed_form",
    "green_minus", "green_minus_field", "green_plus", "green_plus_field",
    "green_poly", "green_poly_field", "henon_apply", "henon_apply_factored",
    "henon_derivative", "henon_inverse", "integrate", "is_horseshoe_regime",
    "julia_render_points", "mass_in_disk", "measures", "mu_n_measure",
    "necklaces", "negative_fixed_point", "periodic2d", "periodic_levels",
    "periodic_points_1d", "periodic_points_2d", "poly1d", "potential",
    "potential_kernel", "potential_of_measure", "preimages",
    "reality_conditions_report", "reality_table", "saddle_table",
    "sequence_metric", "shift", "simultaneous_roots", "subaverage_check",
    "symbolic", "symbolic_orbit_seed", "unstable_disk_sample",
]
SUBMODULES = {"cycles", "dynamics", "errors", "measures", "periodic2d",
              "poly1d", "potential", "symbolic"}


def test_all_is_pinned():
    assert henonlab.__all__ == EXPORTED


def test_each_export_is_its_modules_object():
    for name in EXPORTED:
        obj = getattr(henonlab, name)
        if name in SUBMODULES:
            assert obj is sys.modules[f"henonlab.{name}"], name
            assert isinstance(obj, types.ModuleType), name
        else:
            assert obj.__module__.startswith("henonlab."), name
            assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_star_import_binds_every_name():
    ns = {}
    exec("from henonlab import *", ns)
    assert set(ns) - {"__builtins__"} == set(EXPORTED)
    assert all(ns[name] is getattr(henonlab, name) for name in EXPORTED)


def test_dir_covers_all():
    assert set(EXPORTED) <= set(dir(henonlab))


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        henonlab.no_such_name
    with pytest.raises(ImportError):
        exec("from henonlab import no_such_name", {})
