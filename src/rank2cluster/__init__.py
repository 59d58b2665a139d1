"""Exact computation of rank-two cluster variable expansions.

Two independent routes compute the same objects: the defining recurrence
with exact Laurent polynomial division, and a closed-form constrained sum
over admissible integer tuples.  Euler characteristics of the associated
quiver Grassmannian cells fall out of either route and every identity
connecting them is executable and tested.
"""

from .combinat import ChiTable, ClusterContext, euler_form, mod_binom
from .laurent import ONE, X1, X2, InexactDivisionError, LaurentPoly2
from .recurrence import (
    ExpansionStructureError,
    chi_from_expansion,
    cluster_var_recurrence,
    scalar_cluster_value,
)
from .closedform import (
    chi_formula,
    chi_formula_summands,
    chi_table_from_formula,
    cluster_var_formula,
    cluster_var_formula_v2,
    enumerate_admissible,
)
from .identities import (
    RationalPoly,
    staged_chi_sum,
    vandermonde_sides,
    vanishing_check,
)

__version__ = "0.1.0"

__all__ = [
    "ClusterContext",
    "RationalPoly",
    "LaurentPoly2",
    "ChiTable",
    "InexactDivisionError",
    "ExpansionStructureError",
    "X1",
    "X2",
    "ONE",
    "mod_binom",
    "euler_form",
    "cluster_var_recurrence",
    "scalar_cluster_value",
    "chi_from_expansion",
    "chi_formula",
    "chi_formula_summands",
    "chi_table_from_formula",
    "cluster_var_formula",
    "cluster_var_formula_v2",
    "enumerate_admissible",
    "staged_chi_sum",
    "vandermonde_sides",
    "vanishing_check",
]
