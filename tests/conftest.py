"""Shared numerical oracles used across the suite.

The scalar metric and the finite-difference Laplacian here are deliberately
independent of the package's float layer and of the symbolic layer: they
use :mod:`math` only, so they can serve as the ground-truth check for
`numeric.metric` and for every exact Laplacian rule.
"""

from __future__ import annotations

import math

import numpy as np

from ccsp.geometry import Regime, Space


def scalar_metric(space: Space, r: float) -> tuple[float, float]:
    """S(r) and C(r) of `space` at one radius, with math only."""
    if space.regime is Regime.FLAT:
        return float(r), 1.0
    if space.regime is Regime.HYPERBOLIC:
        lam = math.sqrt(-space.kappa)
        return math.sinh(lam * r) / lam, math.cosh(lam * r)
    mu = math.sqrt(space.kappa)
    return math.sin(mu * r) / mu, math.cos(mu * r)


def scalar_T(space: Space, r: float) -> float:
    """T(r) = S(r)/C(r) at one radius, with math only."""
    s, c = scalar_metric(space, r)
    return s / c


def fd_laplacian(f, space: Space, r, h: float = 1e-4):
    """Second-order central-difference radial Laplace-Beltrami operator,
    at one radius or, for an f on arrays, at every radius of an array."""
    second = (f(r + h) - 2.0 * f(r) + f(r - h)) / h**2
    if space.dim == 1:
        return second
    first = (f(r + h) - f(r - h)) / (2.0 * h)
    t = np.vectorize(lambda x: scalar_T(space, x))(r)
    return second + (space.dim - 1) / t * first
