"""Constant-curvature geometry: the curvature regimes and their spaces.

The three maximally symmetric spaces are described by a signed sectional
curvature kappa (zero: Euclidean, negative: hyperbolic, positive: sphere).
Radial formulas use the curvature-scaled functions

    S(r) = sinh(sqrt(-kappa) r)/sqrt(-kappa)    kappa < 0
         = r                                    kappa = 0
         = sin(sqrt(kappa) r)/sqrt(kappa)       kappa > 0

    C(r) = S'(r),   T(r) = S(r)/C(r)

which satisfy S' = C, C' = -kappa*S and C^2 - (-kappa)*S^2 = 1 in every
regime, so each identity in this package is stated once with a signed
curvature.  S, C and 1/T are evaluated in one place only, as array
functions of the float layer (:func:`ccsp.numeric.metric`), so this
module, like the rest of the exact layer, does not import numpy.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple


class Regime(str, Enum):
    FLAT = "flat"
    HYPERBOLIC = "hyperbolic"
    SPHERICAL = "spherical"


class _SpaceFields(NamedTuple):
    regime: Regime
    kappa: float
    dim: int


class Space(_SpaceFields):
    """A simply connected space of constant sectional curvature.

    kappa < 0 for hyperbolic, kappa > 0 for spherical, and kappa == 0
    for flat; this is the only place the sign and finiteness of kappa are
    checked.  dim is the dimension D >= 1.
    """

    __slots__ = ()

    def __new__(cls, regime: Regime, kappa: float, dim: int) -> "Space":
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        if not math.isfinite(kappa):
            raise ValueError("kappa must be finite")
        if regime is Regime.FLAT and kappa != 0.0:
            raise ValueError("flat space requires kappa == 0")
        if regime is Regime.HYPERBOLIC and not kappa < 0:
            raise ValueError("hyperbolic space requires kappa < 0")
        if regime is Regime.SPHERICAL and not kappa > 0:
            raise ValueError("spherical space requires kappa > 0")
        return super().__new__(cls, regime, kappa, dim)

    @classmethod
    def _make(cls, fields) -> "Space":
        return cls(*fields)  # so that _replace checks too

    @staticmethod
    def unit_kappa(regime: Regime) -> float:
        """The default curvature of a regime: 0, -1 or +1."""
        return {Regime.FLAT: 0.0, Regime.HYPERBOLIC: -1.0, Regime.SPHERICAL: 1.0}[regime]

    @property
    def r_max(self) -> float:
        """Upper end of the radial coordinate: pi/sqrt(kappa) on the sphere."""
        if self.regime is Regime.SPHERICAL:
            return math.pi / math.sqrt(self.kappa)
        return math.inf

    @property
    def length(self) -> float:
        """The length unit of the float checks: 1/sqrt|kappa| curved, 1 flat."""
        return 1.0 if self.regime is Regime.FLAT else 1.0 / math.sqrt(abs(self.kappa))


def sphere_area(dim: int) -> float:
    """Area of the unit sphere in `dim` dimensions: 2 pi^(D/2)/Gamma(D/2).

    dim == 1 gives 2, the counting measure of the two-point 0-sphere, which
    is what makes one-dimensional masses come out as two-sided line
    integrals.  Past D = 343, where Gamma(D/2) overflows, the same value
    comes from log-Gamma, so the area is finite for every D >= 1.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    try:
        return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    except OverflowError:  # Gamma(D/2) exceeds the float range from D = 344
        return 2.0 * math.exp(dim / 2.0 * math.log(math.pi) - math.lgamma(dim / 2.0))
