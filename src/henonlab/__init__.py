"""Numerical laboratory for plane quadratic dynamics.

Escape-region bookkeeping and itinerary coding for the invertible
quadratic map (x, y) -> (-x^2 + a - b y, x), escape-rate potentials with
certified tail bounds for that map and for one-variable monic
polynomials, equilibrium-measure estimators built from preimages and
periodic points, periodic-orbit enumeration with saddle classification,
entropy diagnostics, and a deterministic batch CLI.

`import henonlab` runs only `errors`.  Every other submodule is registered
in `sys.modules` and bound here at once, but its body runs on the first
attribute read, so a CLI command executes just the modules it calls.  The
names below resolve through their module on first use (PEP 562).
"""

__version__ = "0.1.0"

from . import errors
from .errors import (CapError, CodingError, ContractError, ConvergenceError,
                     HenonlabError, MapOverflowError)

# each lazily run submodule, with the names the package exports from it
_EXPORTS = {
    "dynamics": ("MapParams", "OrbitRecord", "PointC2", "Region",
                 "classify_orbit", "classify_region",
                 "derivative_along_orbit", "escape_radius", "henon_apply",
                 "henon_apply_factored", "henon_derivative", "henon_inverse",
                 "is_horseshoe_regime"),
    "cycles": (),
    "measures": ("ComparisonResult", "DiscreteMeasure", "TestBattery",
                 "angular_discrepancy", "compare", "integrate",
                 "potential_of_measure"),
    "symbolic": ("EntropyEstimate", "PeriodicSequence", "SymbolWord",
                 "code_orbit", "entropy_estimate", "necklaces",
                 "sequence_metric", "shift"),
    "periodic2d": ("OrbitColumns", "PeriodicLevel", "PeriodicOrbit",
                   "RealityReport", "SaddleRatioTable",
                   "cylinder_point_measure", "fixed_points_closed_form",
                   "mu_n_measure", "negative_fixed_point", "periodic_levels",
                   "periodic_points_2d", "reality_conditions_report",
                   "reality_table", "saddle_table", "symbolic_orbit_seed",
                   "unstable_disk_sample"),
    "poly1d": ("Poly", "PreimageTree", "brolin_measure", "simultaneous_roots",
               "exceptional_check", "julia_render_points",
               "periodic_points_1d", "preimages"),
    "potential": ("GreenEstimate", "GreenField", "ScalarGrid",
                  "discrete_ddc_mass", "green_minus", "green_minus_field",
                  "green_plus", "green_plus_field", "green_poly",
                  "green_poly_field", "mass_in_disk", "potential_kernel",
                  "subaverage_check"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def _register(name: str):
    """henonlab.<name>, put in sys.modules now and executed on first use."""
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update({name: _register(name) for name in _EXPORTS})

__all__ = sorted(["errors", "CapError", "CodingError", "ContractError",
                  "ConvergenceError", "HenonlabError", "MapOverflowError",
                  *_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__() -> list:
    return sorted({*globals(), *__all__})
