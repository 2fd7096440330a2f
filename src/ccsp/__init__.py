"""Exact stationary radial solutions of the Schrodinger-Poisson system on
flat, hyperbolic and spherical spaces: an exact derivation engine, a
verified solution catalog, and a numerical checking layer.

Importing the package loads the exact layer only (geometry, symbolic,
derivation, catalog); the numerical layer :mod:`ccsp.numeric`, and with it
numpy, loads when one of its names is first read from here or when it is
imported itself."""

from .geometry import Regime, Space, sphere_area
from .symbolic import Basis, Graded, Monomial, RadialExpr
from .derivation import (
    AlphaSign,
    AnsatzFamily,
    DerivationHit,
    classify_alpha_sign,
    consistency_residual,
    omega_of,
    potential_term,
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

_NUMERIC_NAMES = frozenset({
    "Divergent",
    "PohozaevFunctionals",
    "VerificationReport",
    "compactness_obstruction_check",
    "default_grid",
    "fd_residual",
    "integrate_radial",
    "mass",
    "pohozaev_check",
    "pohozaev_functionals",
    "poisson_invert",
    "verify_solution",
})


def __getattr__(name: str):
    """The float layer's names, imported on first use (PEP 562)."""
    if name in _NUMERIC_NAMES:
        from . import numeric

        return getattr(numeric, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
