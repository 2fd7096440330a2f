import math

import numpy as np
import pytest

from conftest import scalar_T, scalar_metric
from ccsp import numeric
from ccsp.geometry import Regime, Space, sphere_area

HYP = Space(Regime.HYPERBOLIC, -1.0, 3)
SPH = Space(Regime.SPHERICAL, 1.0, 3)
FLAT = Space(Regime.FLAT, 0.0, 6)


def S(space, r):
    return float(numeric.metric(space).S(np.float64(r)))


def C(space, r):
    return float(numeric.metric(space).C(np.float64(r)))


def inv_T(space, r):
    return float(numeric.metric(space).inv_T(np.float64(r)))


def test_metric_s_values():
    assert S(HYP, 0.0) == 0.0
    assert S(SPH, math.pi / 2) == pytest.approx(1.0, rel=1e-14)
    # scalar-math oracle: sinh(2)/2
    assert S(Space(Regime.HYPERBOLIC, -4.0, 3), 1.0) == pytest.approx(math.sinh(2.0) / 2.0, rel=1e-14)
    assert S(FLAT, 2.5) == 2.5


def test_metric_c_values():
    assert C(HYP, 0.0) == 1.0
    for r in (0.0, 1.0, 7.3):
        assert C(FLAT, r) == 1.0
    assert C(SPH, math.pi) == pytest.approx(-1.0, rel=1e-14)


def test_metric_t_values():
    assert inv_T(FLAT, 3.0) == 1.0 / 3.0
    # coth limit
    assert inv_T(HYP, 40.0) == pytest.approx(1.0, abs=1e-14)
    # T has a pole on the equator, where 1/T vanishes
    assert inv_T(SPH, math.pi / 2) == pytest.approx(0.0, abs=1e-15)
    for space in (FLAT, HYP, SPH):
        for r in (0.3, 1.1, 2.9):
            assert 1.0 / inv_T(space, r) == pytest.approx(scalar_T(space, r), rel=1e-14)


def test_sphere_area():
    assert sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-15)
    # Gamma oracle: 2 pi^3 / Gamma(3) = pi^3
    assert sphere_area(6) == pytest.approx(2 * math.pi**3 / math.gamma(3.0), rel=1e-15)
    assert sphere_area(6) == pytest.approx(math.pi**3, rel=1e-15)
    assert sphere_area(1) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(ValueError):
        sphere_area(0)
    # Gamma(D/2) overflows from D = 344; below, the area keeps its formula's bits
    assert sphere_area(343) == 2.0 * math.pi ** 171.5 / math.gamma(171.5)
    for dim in (344, 345, 700, 1001, 10**6):
        assert math.isfinite(sphere_area(dim)) and sphere_area(dim) >= 0.0
    # the recurrence A(D + 2) = A(D) 2 pi/D across the switch
    for dim in (342, 343, 344, 400):
        assert sphere_area(dim + 2) == pytest.approx(sphere_area(dim) * 2.0 * math.pi / dim, rel=1e-12)


@pytest.mark.parametrize(
    "space",
    [FLAT, HYP, SPH, Space(Regime.HYPERBOLIC, -4.0, 5), Space(Regime.SPHERICAL, 2.25, 4)],
)
def test_structure_identity(space):
    # (-kappa) S^2 = C^2 - 1 in every regime (flat: 0 = 0)
    r_hi = space.r_max if math.isfinite(space.r_max) else 5.0
    for i in range(1, 20):
        r = r_hi * i / 20.0
        s, c = S(space, r), C(space, r)
        assert (s, c) == pytest.approx(scalar_metric(space, r), rel=1e-14, abs=1e-15)
        assert -space.kappa * s * s == pytest.approx(c * c - 1.0, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("space", [FLAT, HYP, SPH, Space(Regime.SPHERICAL, 2.25, 4)])
def test_vectorized_metric(space):
    # the float layer's array S and C agree with the scalar oracle, and 1/T = C/S
    r_hi = space.r_max if math.isfinite(space.r_max) else 5.0
    r = np.linspace(0.05, 0.45, 9) * r_hi
    m = numeric.metric(space)
    assert np.allclose(m.S(r), [scalar_metric(space, x)[0] for x in r], rtol=1e-14, atol=0.0)
    assert np.allclose(m.C(r), [scalar_metric(space, x)[1] for x in r], rtol=1e-14, atol=0.0)
    assert np.allclose(m.inv_T(r) * m.S(r), m.C(r), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("space", [HYP, SPH, Space(Regime.HYPERBOLIC, -0.25, 2)])
def test_derivative_relations(space):
    # S' = C and C' = -kappa S by central differences
    h = 1e-5
    r_hi = space.r_max if math.isfinite(space.r_max) else 3.0
    for i in range(1, 10):
        r = 0.9 * r_hi * i / 10.0
        ds = (S(space, r + h) - S(space, r - h)) / (2 * h)
        dc = (C(space, r + h) - C(space, r - h)) / (2 * h)
        assert ds == pytest.approx(C(space, r), rel=1e-8)
        assert dc == pytest.approx(-space.kappa * S(space, r), rel=1e-8, abs=1e-10)


def test_parity():
    # S odd, C even about the origin: compare series behavior near 0
    for space in (HYP, SPH):
        r = 1e-3
        assert S(space, r) == pytest.approx(r, rel=1e-6)
        assert C(space, r) == pytest.approx(1.0, rel=1e-6)


def test_domain_checks():
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
        Space(Regime.FLAT, 0.0, 0)
    with pytest.raises(ValueError):
        Space(Regime.FLAT, 0.0, 3)._replace(kappa=-1.0)
