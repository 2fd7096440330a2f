"""Shared numerical oracles used across the suite.

The finite-difference Laplacian here is deliberately independent of the
symbolic layer: it only uses the scalar metric functions, so it can serve
as the ground-truth check for every exact Laplacian rule.
"""

from __future__ import annotations

import numpy as np

from ccsp.geometry import Regime, Space, metric_T


def fd_laplacian(f, space: Space, r, h: float = 1e-4):
    """Second-order central-difference radial Laplace-Beltrami operator,
    at one radius or, for an f on arrays, at every radius of an array."""
    second = (f(r + h) - 2.0 * f(r) + f(r - h)) / h**2
    if space.dim == 1:
        return second
    first = (f(r + h) - f(r - h)) / (2.0 * h)
    t = np.vectorize(lambda x: metric_T(space, x))(r)
    return second + (space.dim - 1) / t * first


def eval_scalar(expr, space, r, alpha=1.0, amp_sq=1.0):
    return expr.eval(space, r, alpha, amp_sq)
