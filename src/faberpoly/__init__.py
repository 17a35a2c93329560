"""Faber polynomials of exterior conformal maps.

Three mutually independent computation paths -- the coefficient
recurrence, series-based value oracles, and per-family closed forms --
plus verifiers for the identities tying them together.
"""

from .faber import (exp_map_exterior, faber_derivative_values_from_series,
                    faber_system_from_recurrence, faber_values_from_log_series,
                    faber_values_from_ratio_series, kernel_polys)
from .maps import (BranchCutError, ExpMap, GapMap, Hypocycloid, LambertResult,
                   Shift, TwoGapMap, chebyshev_scaled, evaluate_map,
                   exp_map_boundary, exp_map_faber_closed_form, gap_faber_closed_form,
                   hypocycloid_faber_closed_form, inverse_exp_map, lambert_w0,
                   lambert_w0_power_series, starlikeness_grid_infimum,
                   starlikeness_infimum, to_exterior_map, two_gap_faber_system,
                   univalence_certificate_bound)
from .poly import ComplexPolynomial, RootFindingError
from .verify import (CheckReport, check_derivative_identity,
                     check_gap_coefficient_recovery, exponential_map_characterization,
                     leading_common_root_order)

__all__ = [
    "BranchCutError", "CheckReport", "ComplexPolynomial",
    "ExpMap", "GapMap", "Hypocycloid", "LambertResult", "RootFindingError",
    "Shift", "TwoGapMap", "chebyshev_scaled", "check_derivative_identity",
    "check_gap_coefficient_recovery",
    "evaluate_map", "exp_map_boundary", "exp_map_exterior",
    "exp_map_faber_closed_form", "exponential_map_characterization",
    "faber_derivative_values_from_series", "faber_system_from_recurrence",
    "faber_values_from_log_series", "faber_values_from_ratio_series",
    "gap_faber_closed_form", "hypocycloid_faber_closed_form", "inverse_exp_map",
    "kernel_polys", "lambert_w0", "lambert_w0_power_series",
    "leading_common_root_order", "starlikeness_grid_infimum",
    "starlikeness_infimum", "to_exterior_map", "two_gap_faber_system",
    "univalence_certificate_bound",
]

__version__ = "0.1.0"
