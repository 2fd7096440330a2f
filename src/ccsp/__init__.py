"""Exact stationary radial solutions of the Schrodinger-Poisson system on
flat, hyperbolic and spherical spaces: an exact derivation engine, a
verified solution catalog, and a numerical checking layer.

Importing the package loads the exact layer only (geometry, bases,
symbolic, derivation, catalog); the float layer's names are read from
:mod:`ccsp.numeric`, which loads numpy when it is imported."""

from .geometry import Regime, Space, sphere_area
from .bases import Basis
from .symbolic import Graded, Monomial, RadialExpr
from .derivation import (
    AlphaSign,
    AnsatzFamily,
    DerivationHit,
    solve_background,
    solve_homogeneous,
)
from .catalog import (
    CATALOG,
    GradedMass,
    Solution,
    catalog_list,
    get_solution,
    scale_flat_solution,
    solution_from_hit,
)

__version__ = "0.1.0"
