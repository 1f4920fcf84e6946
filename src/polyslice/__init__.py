"""Exact computational laboratory for slices of polyhedral norm balls.

Everything geometric runs in arbitrary-precision rational arithmetic; the
only floating point lives in the seeded sampling oracle and in decimal
columns of reports.

The package root exports the names of the README's "Library use" example;
everything else lives in its layer module (numeric, linprog, polytope,
spaces, slices, experiments, cli).
"""

from .numeric import rational
from .polytope import vertices
from .spaces import make_space_II, norm
from .slices import SliceSpec, diameter, lower_bound_certificate, make_slice

__version__ = "0.1.0"

__all__ = [
    "SliceSpec",
    "diameter",
    "lower_bound_certificate",
    "make_slice",
    "make_space_II",
    "norm",
    "rational",
    "vertices",
    "__version__",
]
