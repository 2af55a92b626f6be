"""Exact counting, q-series identities, and Farey-arc contour evaluation for
weighted sums of four polygonal numbers and congruence-constrained sums of
squares."""

from .counting import (ALL_INTEGERS, NON_NEGATIVE, POSITIVE, CongruenceInstance,
                       CountDomain, PolygonalInstance, count_polygonal,
                       count_squares, polygonal_count_table, polygonal_number,
                       polygonal_to_squares, squares_count_table)
from .qseries import QSeries, TruncationError
from .series import (decomposition_check, f_J_series, false_theta_series,
                     partial_theta_series, rplus_generating_check,
                     star_theta_series, theta_series)
from .farey import FareyArc, arcs, farey_sequence, rho_congruence

__version__ = "0.1.0"

__all__ = [
    "ALL_INTEGERS", "NON_NEGATIVE", "POSITIVE", "CongruenceInstance",
    "CountDomain", "PolygonalInstance", "count_polygonal", "count_squares",
    "polygonal_count_table", "polygonal_number", "polygonal_to_squares",
    "squares_count_table", "QSeries", "TruncationError", "decomposition_check",
    "f_J_series", "false_theta_series", "partial_theta_series",
    "rplus_generating_check", "star_theta_series", "theta_series",
    "FareyArc", "arcs", "farey_sequence", "rho_congruence", "__version__",
]
