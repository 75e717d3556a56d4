"""Numerical laboratory for plane quadratic dynamics.

Escape-region bookkeeping and itinerary coding for the invertible
quadratic map (x, y) -> (-x^2 + a - b y, x), escape-rate potentials with
certified tail bounds for that map and for one-variable monic
polynomials, equilibrium-measure estimators built from preimages and
periodic points, periodic-orbit enumeration with saddle classification,
entropy diagnostics, and a deterministic batch CLI.
"""

__version__ = "0.1.0"

from .dynamics import (MapParams, OrbitRecord, PointC2, Region,
                       classify_orbit, classify_region, derivative_along_orbit,
                       escape_radius, henon_apply, henon_apply_factored,
                       henon_derivative, henon_inverse, is_horseshoe_regime)
from .errors import (CapError, CodingError, ContractError, ConvergenceError,
                     HenonlabError, MapOverflowError)
from .measures import (ComparisonResult, DiscreteMeasure, TestBattery,
                       angular_discrepancy, compare, integrate,
                       potential_of_measure)
from .periodic2d import (OrbitColumns, PeriodicLevel, PeriodicOrbit,
                         RealityReport, SaddleRatioTable,
                         cylinder_point_measure,
                         fixed_points_closed_form, mu_n_measure,
                         negative_fixed_point, periodic_levels,
                         periodic_points_2d, reality_conditions_report,
                         reality_table, saddle_count_ratio, saddle_table,
                         symbolic_orbit_seed, unstable_disk_sample)
from .poly1d import (Poly, PreimageTree, brolin_measure, simultaneous_roots,
                     exceptional_check, julia_render_points,
                     periodic_points_1d, preimages)
from .potential import (GreenEstimate, GreenField, ScalarGrid,
                        discrete_ddc_mass, green_minus, green_minus_field,
                        green_plus, green_plus_field, green_poly,
                        green_poly_field, mass_in_disk, mass_total,
                        potential_kernel, subaverage_check)
from .symbolic import (CylinderMeasure, EntropyEstimate, PeriodicSequence,
                       SymbolWord, code_orbit, count_admissible_words,
                       cylinder_mass, entropy_estimate, necklaces,
                       sequence_metric, shift)

__all__ = [name for name in dir() if not name.startswith("_")]
