import math

import numpy as np
import pytest

from ccsp import numeric
from ccsp.geometry import (
    PoleError,
    Regime,
    Space,
    metric_C,
    metric_S,
    metric_T,
    sphere_area,
)

HYP = Space.hyperbolic(-1.0, 3)
SPH = Space.spherical(1.0, 3)
FLAT = Space.flat(6)


def test_metric_s_values():
    assert metric_S(HYP, 0.0) == 0.0
    assert metric_S(SPH, math.pi / 2) == pytest.approx(1.0, rel=1e-14)
    # scalar-math oracle: sinh(2)/2
    assert metric_S(Space.hyperbolic(-4.0, 3), 1.0) == pytest.approx(math.sinh(2.0) / 2.0, rel=1e-14)
    assert metric_S(FLAT, 2.5) == 2.5


def test_metric_c_values():
    assert metric_C(HYP, 0.0) == 1.0
    for r in (0.0, 1.0, 7.3):
        assert metric_C(FLAT, r) == 1.0
    assert metric_C(SPH, math.pi) == pytest.approx(-1.0, rel=1e-14)


def test_metric_t_values():
    assert metric_T(FLAT, 3.0) == 3.0
    # tanh limit
    assert metric_T(HYP, 40.0) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(PoleError):
        metric_T(SPH, math.pi / 2)


def test_sphere_area():
    assert sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-15)
    # Gamma oracle: 2 pi^3 / Gamma(3) = pi^3
    assert sphere_area(6) == pytest.approx(2 * math.pi**3 / math.gamma(3.0), rel=1e-15)
    assert sphere_area(6) == pytest.approx(math.pi**3, rel=1e-15)
    assert sphere_area(1) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(ValueError):
        sphere_area(0)


@pytest.mark.parametrize(
    "space",
    [FLAT, HYP, SPH, Space.hyperbolic(-4.0, 5), Space.spherical(2.25, 4)],
)
def test_structure_identity(space):
    # (-kappa) S^2 = C^2 - 1 in every regime (flat: 0 = 0)
    r_hi = space.r_max if math.isfinite(space.r_max) else 5.0
    for i in range(1, 20):
        r = r_hi * i / 20.0
        s, c = metric_S(space, r), metric_C(space, r)
        assert -space.kappa * s * s == pytest.approx(c * c - 1.0, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("space", [FLAT, HYP, SPH, Space.spherical(2.25, 4)])
def test_vectorized_metric(space):
    # the float layer's array S and C agree with the scalar functions, and 1/T = C/S
    r_hi = space.r_max if math.isfinite(space.r_max) else 5.0
    r = np.linspace(0.05, 0.45, 9) * r_hi
    m = numeric.metric(space)
    assert np.allclose(m.S(r), [metric_S(space, x) for x in r], rtol=1e-14, atol=0.0)
    assert np.allclose(m.C(r), [metric_C(space, x) for x in r], rtol=1e-14, atol=0.0)
    assert np.allclose(m.inv_T(r) * m.S(r), m.C(r), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("space", [HYP, SPH, Space.hyperbolic(-0.25, 2)])
def test_derivative_relations(space):
    # S' = C and C' = -kappa S by central differences
    h = 1e-5
    r_hi = space.r_max if math.isfinite(space.r_max) else 3.0
    for i in range(1, 10):
        r = 0.9 * r_hi * i / 10.0
        ds = (metric_S(space, r + h) - metric_S(space, r - h)) / (2 * h)
        dc = (metric_C(space, r + h) - metric_C(space, r - h)) / (2 * h)
        assert ds == pytest.approx(metric_C(space, r), rel=1e-8)
        assert dc == pytest.approx(-space.kappa * metric_S(space, r), rel=1e-8, abs=1e-10)


def test_parity():
    # S odd, C even about the origin: compare series behavior near 0
    for space in (HYP, SPH):
        r = 1e-3
        assert metric_S(space, r) == pytest.approx(r, rel=1e-6)
        assert metric_C(space, r) == pytest.approx(1.0, rel=1e-6)


def test_domain_checks():
    with pytest.raises(ValueError):
        metric_S(HYP, -0.1)
    with pytest.raises(ValueError):
        metric_S(SPH, math.pi + 0.1)
    assert SPH.r_max == math.pi / math.sqrt(SPH.kappa)
    assert HYP.r_max == math.inf


def test_space_invariants():
    with pytest.raises(ValueError):
        Space(Regime.HYPERBOLIC, 1.0, 3)
    with pytest.raises(ValueError):
        Space(Regime.SPHERICAL, -1.0, 3)
    with pytest.raises(ValueError):
        Space(Regime.FLAT, 0.5, 3)
    with pytest.raises(ValueError):
        Space.flat(0)
    with pytest.raises(ValueError):
        Space.flat(3)._replace(kappa=-1.0)
