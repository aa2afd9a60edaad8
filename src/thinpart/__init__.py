"""Explicit discreteness constants for conjugated lattices, with a
desk-scale experimental harness for the drift and tail bounds behind them."""

from .contraction import ContractionParams, contraction_constants, delta_opt, phi
from .rootdata import delta_lower_bound, group_constants, order_bound_real
from .slgroup import discreteness_radius, expanding_element, radius_params

__version__ = "0.1.0"

__all__ = [
    "ContractionParams",
    "contraction_constants",
    "delta_opt",
    "phi",
    "delta_lower_bound",
    "group_constants",
    "order_bound_real",
    "discreteness_radius",
    "expanding_element",
    "radius_params",
    "__version__",
]
