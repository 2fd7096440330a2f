import math
from dataclasses import replace

import numpy as np
import pytest

from ccsp import numeric
from ccsp.catalog import CATALOG, get_solution, scale_flat_solution
from ccsp.derivation import AlphaSign
from ccsp.geometry import Regime, Space, metric_T, sphere_area
from ccsp.numeric import Divergent, Grid, default_grid, integrate_radial, mass
from ccsp.symbolic import Basis, RadialExpr

HYP3 = Space.hyperbolic(-1.0, 3)
FLAT6 = Space.flat(6)


def _params(sol, curved_kappa=-1.0):
    kappa = {Regime.FLAT: 0.0, Regime.HYPERBOLIC: curved_kappa, Regime.SPHERICAL: 1.0}[sol.regime]
    alpha = -1.0 if sol.alpha_sign in (AlphaSign.ATTRACTIVE, None) else 1.0
    return kappa, alpha


def test_flat_entry_rejects_nonzero_kappa():
    # Space is the one check of kappa: a flat entry is not silently moved to kappa = 0
    sol = get_solution("FLAT_CSV")
    with pytest.raises(ValueError):
        mass(sol, 5.0, -1.0)
    with pytest.raises(ValueError):
        numeric.fd_residual(sol, 5.0, -1.0)
    with pytest.raises(ValueError):
        sol.u_fn(5.0, -1.0)


# -- quadrature ----------------------------------------------------------------


def test_integrate_known_antiderivative():
    # integral of sinh^2/cosh^4 = tanh^3/3 -> 1/3
    f = lambda r: np.sinh(r) ** 2 / np.cosh(r) ** 4
    got = integrate_radial(f, 0.0, math.inf)
    assert got == pytest.approx(1.0 / 3.0, rel=1e-10)


def test_integrate_beta_integrals():
    # (1/2) B(3,1) = 1/6 and (1/2) B(2,1) = 1/4, the flat mass kernels
    f = lambda r: r**5 * (1 + r**2) ** -4.0
    assert integrate_radial(f, 0.0, math.inf) == pytest.approx(1.0 / 6.0, rel=1e-10)
    g = lambda r: r**3 * (1 + r**2) ** -3.0
    assert integrate_radial(g, 0.0, math.inf) == pytest.approx(1.0 / 4.0, rel=1e-10)


def test_integrate_finite_interval():
    f = lambda r: np.sin(r)
    got = integrate_radial(f, 0.0, math.pi)
    assert got == pytest.approx(2.0, rel=1e-10)


def test_integrate_detects_small_r_divergence():
    f = lambda r: 1.0 / r**2
    got = integrate_radial(f, 0.0, 1.0)
    assert isinstance(got, Divergent) and got.where == "small-r"


def test_integrate_detects_log_divergence():
    f = lambda r: 1.0 / r
    got = integrate_radial(f, 0.0, math.inf)
    assert isinstance(got, Divergent)


def test_integrate_detects_tail_divergence():
    f = lambda r: np.ones_like(np.asarray(r, dtype=float))
    got = integrate_radial(f, 0.0, math.inf)
    assert isinstance(got, Divergent) and got.where == "large-r"


def test_integrable_endpoint_singularity():
    f = lambda r: 1.0 / np.sqrt(r)
    got = integrate_radial(f, 0.0, 1.0)
    assert got == pytest.approx(2.0, rel=1e-8)


def _reference_panel(f, a, b):
    # the 15/7 pair as two separate integrand calls: the oracle for _panel
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x15, w15 = np.polynomial.legendre.leggauss(15)
    x7, w7 = np.polynomial.legendre.leggauss(7)
    i15 = half * float(np.dot(w15, np.asarray(f(mid + half * x15), dtype=float)))
    i7 = half * float(np.dot(w7, np.asarray(f(mid + half * x7), dtype=float)))
    if not (math.isfinite(i15) and math.isfinite(i7)):
        return math.nan, math.inf
    return i15, abs(i15 - i7)


def _count_panels(monkeypatch):
    calls = []
    panel = numeric._panel

    def counted(f, a, b):
        calls.append((a, b))
        return panel(f, a, b)

    monkeypatch.setattr(numeric, "_panel", counted)
    return calls


def test_panel_matches_two_call_reference():
    sol = get_solution("BG_HYP_N1_D6")
    u = sol.u_fn(-1.0, sol.default_alpha)
    s_fn = Space.hyperbolic(-1.0, sol.dim).metric.S
    integrands = [
        lambda r: np.sinh(r) ** 2 / np.cosh(r) ** 4,
        lambda r: r**5 * (1 + r**2) ** -4.0,
        lambda r: 1.0 / np.sqrt(r),
        lambda r: np.exp(-r) * np.sin(3.0 * r),
        lambda r: u(r) ** 2 * s_fn(r) ** (sol.dim - 1),
    ]
    for f in integrands:
        for a, b in [(1e-9, 1e-3), (0.0, 1.0), (0.3, 7.1), (10.0, 20.0), (80.0, 160.0)]:
            with np.errstate(all="ignore"):
                got, want = numeric._panel(f, a, b), _reference_panel(f, a, b)
            assert got[0] == want[0] or (math.isnan(got[0]) and math.isnan(want[0]))
            assert got[1] == want[1]


def test_adaptive_raises_at_first_non_finite_panel(monkeypatch):
    calls = _count_panels(monkeypatch)
    f = lambda r: np.where(r < 3.0, 1.0, np.inf)
    with pytest.raises(ValueError, match="not finite"):
        numeric._adaptive(f, 0.0, 4.0, 1e-10)
    assert len(calls) == 1


def test_overflowing_tail_is_divergent(monkeypatch):
    # grows like e^(3r), and sinh(r)^5 overflows to inf inside the tail windows
    calls = _count_panels(monkeypatch)
    f = lambda r: np.exp(-2.0 * r) * np.sinh(r) ** 5
    with np.errstate(over="ignore", invalid="ignore"):
        got = integrate_radial(f, 0.0, math.inf)
    assert got == Divergent("large-r")
    assert len(calls) < 500


def test_interior_core_pole_raises():
    # the core of (0, inf) is [1, 10]: a pole at its midpoint sits on a node
    # of the first panel, and a non-finite stretch meets every panel around it
    def pole(r):
        with np.errstate(divide="ignore"):
            return 1.0 / (r - 5.5) ** 2 / (1.0 + r**4)

    def stretch(r):
        with np.errstate(invalid="ignore"):
            return np.sqrt(r - 3.0) / (1.0 + r**4)

    for f in (pole, stretch):
        with pytest.raises(ValueError, match="not finite"):
            integrate_radial(f, 0.0, math.inf)


@pytest.mark.parametrize("kappa", [-2.0, -0.5])
def test_divergence_probe_stops_at_first_non_finite_panel(monkeypatch, kappa):
    # u^2 S^5 grows like e^(3 lambda r); S^5 overflows inside the Cauchy
    # window [80, 160].  Bisecting that window down to depth 30 took
    # about 25,000 panels.
    calls = _count_panels(monkeypatch)
    sol = get_solution("BG_HYP_N1_D6")
    assert mass(sol, kappa, sol.default_alpha) == Divergent("large-r")
    assert len(calls) < 2000


# -- masses ----------------------------------------------------------------------


def test_mass_flat_csv():
    got = mass(get_solution("FLAT_CSV"), 0.0, -1.0)
    assert got == pytest.approx(96.0 * math.pi**3, rel=1e-10)


def test_mass_hyp_u1():
    got = mass(get_solution("HYP_U1"), -1.0, -1.0)
    assert got == pytest.approx(48.0 * math.pi, rel=1e-10)


def test_mass_sech_line():
    got = mass(get_solution("BG_1D_SECH"), -1.0, 1.0)
    assert got == pytest.approx(16.0, rel=1e-9)


def test_mass_sph_u3_radial_integral():
    sol = get_solution("SPH_U3")
    radial = mass(sol, 1.0, 1.0, include_sphere_factor=False)
    assert radial == pytest.approx(4.0, rel=1e-10)
    full = mass(sol, 1.0, 1.0)
    assert full == pytest.approx(4.0 * sphere_area(4), rel=1e-10)
    assert sol.expected_mass_value(1.0, 1.0) == pytest.approx(4.0 * sphere_area(4))
    # the radial integral is curvature-independent in the metric normalization
    assert mass(sol, 4.0, 1.0, include_sphere_factor=False) == pytest.approx(4.0, rel=1e-9)


def test_mass_rejects_incompatible_sign():
    with pytest.raises(ValueError):
        mass(get_solution("FLAT_CSV"), 0.0, 1.0)
    with pytest.raises(ValueError):
        mass(get_solution("SPH_U3"), 1.0, -1.0)


@pytest.mark.parametrize("kappa", [-1.0, -0.25])
def test_closed_form_masses_at_two_curvatures(kappa):
    for sol in CATALOG:
        if not sol.finite_mass or sol.regime is not Regime.HYPERBOLIC:
            continue
        _, alpha = _params(sol)
        got = mass(sol, kappa, alpha)
        expected = sol.expected_mass_value(kappa, alpha)
        assert got == pytest.approx(expected, rel=1e-8), sol.id


def test_flat_closed_form_masses():
    for sid in ("FLAT_CSV", "BG_FLAT_N3_D4", "BG_FLAT_N3_D5", "BG_FLAT_N4_D4"):
        sol = get_solution(sid)
        _, alpha = _params(sol)
        got = mass(sol, 0.0, alpha)
        assert got == pytest.approx(sol.expected_mass_value(0.0, alpha), rel=1e-8), sid


def test_divergence_classification_matches_flags():
    for sol in CATALOG:
        kappa, alpha = _params(sol)
        got = mass(sol, kappa, alpha)
        assert isinstance(got, Divergent) == (not sol.finite_mass), sol.id


def test_divergent_ends():
    assert mass(get_solution("HYP_U2"), -1.0, -1.0).where == "small-r"
    assert mass(get_solution("HYP_U3"), -1.0, -1.0).where == "large-r"


def test_charge_balance_sech():
    sol = get_solution("BG_1D_SECH")
    rho = sol.rho_fn(-1.0, 1.0)
    neg_rho_total = integrate_radial(lambda r: -rho(r), 0.0, math.inf)
    neg_rho_total *= sphere_area(1)
    m = mass(sol, -1.0, 1.0)
    assert m == pytest.approx(neg_rho_total, rel=1e-8)


# -- finite differences ------------------------------------------------------------


def test_fd_residual_exact_solutions():
    for sid in ("FLAT_CSV", "HYP_U1"):
        sol = get_solution(sid)
        kappa, alpha = _params(sol)
        schro, poisson = numeric.fd_residual(sol, kappa, alpha)
        assert schro <= 1e-6 and poisson <= 1e-6, sid


def test_fd_residual_detects_perturbation():
    # scale u by 1.01 through the amplitude law: the quadratic Poisson term
    # must flag the 2 percent violation loudly
    from fractions import Fraction as F
    from ccsp.symbolic import Graded

    sol = get_solution("FLAT_CSV")
    bad = replace(sol, x_law=Graded(F(-576) * F(101, 100) ** 2))
    _, poisson = numeric.fd_residual(bad, 0.0, -1.0)
    assert poisson > 1e-3


def test_fd_convergence_order():
    # halving h from 2e-3 to 1e-3 must shrink residuals about fourfold
    for sid in ("FLAT_CSV", "HYP_U1", "SPH_U3"):
        sol = get_solution(sid)
        kappa, alpha = _params(sol)
        coarse_grid = default_grid(sol, kappa, n_points=400, h=2e-3)
        fine_grid = default_grid(sol, kappa, n_points=400, h=1e-3)
        c = max(numeric.fd_residual(sol, kappa, alpha, coarse_grid))
        f = max(numeric.fd_residual(sol, kappa, alpha, fine_grid))
        order = math.log2(c / f)
        assert 1.5 <= order <= 2.5, (sid, order)


def test_grid_invariants():
    with pytest.raises(ValueError):
        Grid(np.array([1.0, 0.5]), 1e-4)
    with pytest.raises(ValueError):
        Grid(np.array([0.1, 0.5, 0.50005]), 1e-4, singular_radii=(0.5,))
    g = Grid(np.array([0.1, 0.5]), 1e-4, singular_radii=(2.0,))
    assert len(g.r_values) == 2


# -- inversion ----------------------------------------------------------------------


def test_poisson_invert_flat_oracle():
    # -Lap of 24 c^-4 is the squared six-dimensional profile, and it decays:
    # the closed form is the oracle for the inverter
    sol = get_solution("FLAT_CSV")
    u = sol.u_fn(0.0, -1.0)
    v = numeric.poisson_invert(lambda r: u(r) ** 2, FLAT6, 6)
    rs = np.linspace(0.1, 10.0, 23)
    expected = 24.0 / (1.0 + rs**2) ** 2
    assert np.max(np.abs(v(rs) - expected) / expected) < 1e-7


def test_poisson_invert_slowly_decaying_potential():
    # -Lap of 18/(1+r^2) at D = 4 is 144 (1+r^2)^-3; the potential's r^-2
    # tail pushes the far end of the inversion out to about 1e7
    f = lambda r: 144.0 / (1.0 + np.asarray(r, dtype=float) ** 2) ** 3
    v = numeric.poisson_invert(f, Space.flat(4), 4)
    rs = np.array([0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0])
    expected = 18.0 / (1.0 + rs**2)
    assert np.max(np.abs(v(rs) - expected) / expected) < 1e-8


def test_poisson_invert_zero():
    v = numeric.poisson_invert(lambda r: np.zeros_like(np.asarray(r, dtype=float)), FLAT6, 6)
    assert abs(float(v(1.0))) < 1e-12


def test_poisson_invert_hyperbolic_oracle():
    sol = get_solution("HYP_U1")
    u = sol.u_fn(-1.0, -1.0)
    v = numeric.poisson_invert(lambda r: u(r) ** 2, HYP3, 3)
    rs = np.linspace(0.1, 8.0, 17)
    expected = 6.0 / np.cosh(rs) ** 2
    assert np.max(np.abs(v(rs) - expected) / expected) < 1e-7


def test_poisson_invert_fd_round_trip():
    # -Lap_h(V_f) - f small on an interior grid, for both oracle cases;
    # h = 1e-4 keeps the stencil truncation below the 1e-5 target
    cases = [
        ("FLAT_CSV", FLAT6, 0.0, -1.0),
        ("HYP_U1", HYP3, -1.0, -1.0),
    ]
    h = 1e-4
    for sid, space, kappa, alpha in cases:
        sol = get_solution(sid)
        u = sol.u_fn(kappa, alpha)
        f = lambda r: u(r) ** 2
        v = numeric.poisson_invert(f, space, sol.dim)
        for r in np.linspace(0.5, 5.0, 7):
            vp, v0, vm = float(v(r + h)), float(v(r)), float(v(r - h))
            lap = (vp - 2 * v0 + vm) / h**2 + (sol.dim - 1) / metric_T(space, r) * (vp - vm) / (2 * h)
            assert abs(-lap - float(f(r))) <= 1e-5


# -- variational functionals ----------------------------------------------------------


def test_pohozaev_flat_csv():
    sol = get_solution("FLAT_CSV")
    fns = numeric.pohozaev_functionals(sol, 0.0, -1.0)
    pi3 = math.pi**3
    # exact values: T = Q = 1152/5 pi^3, N = 96 pi^3 (Beta-integral oracles)
    assert fns.kinetic_T == pytest.approx(1152.0 / 5.0 * pi3, rel=1e-9)
    assert fns.N == pytest.approx(96.0 * pi3, rel=1e-9)
    assert fns.Q == pytest.approx(1152.0 / 5.0 * pi3, rel=1e-8)
    rep = numeric.pohozaev_check(sol, 0.0, -1.0)
    assert rep.defect <= 1e-6
    # independent route: Q = S_5 int u^2 V r^(D-1) with V from the nested
    # inversion of -Lap, not from the energy form
    u = sol.u_fn(0.0, -1.0)
    v = numeric.poisson_invert(lambda r: u(r) ** 2, FLAT6, 6)
    direct = integrate_radial(
        lambda r: u(r) ** 2 * v(r) * r**5, 0.0, math.inf, rel_tol=1e-9
    ) * sphere_area(6)
    assert fns.Q == pytest.approx(direct, rel=1e-7)


@pytest.mark.parametrize(
    "sid, alpha, q_exact",
    [
        # Q = S_(D-1) int M^2 r^(1-D) dr with closed-form charges M, e.g.
        # BG_FLAT_N3_D4: M = 36 r^4/(1+r^2)^2, Q = 2 pi^2 1296 (1/2) B(3,1)
        ("FLAT_CSV", -1.0, 1152.0 * math.pi**3 / 5.0),
        ("BG_FLAT_N3_D4", 1.0, 432.0 * math.pi**2),
        ("BG_FLAT_N3_D5", 1.0, 75.0 * math.pi**3 / 4.0),
        ("BG_FLAT_N4_D4", -1.0, 9216.0 * math.pi**2 / 5.0),
    ],
)
def test_pohozaev_q_closed_forms(sid, alpha, q_exact):
    fns = numeric.pohozaev_functionals(get_solution(sid), 0.0, alpha)
    assert fns.Q == pytest.approx(q_exact, rel=1e-8)


def test_pohozaev_identities_skip_background_entries():
    # the identities are derived for rho = 0; a source adds terms they omit
    rep = numeric.pohozaev_check(get_solution("BG_FLAT_N3_D4"), 0.0, 1.0)
    assert rep.identities is None and rep.defect is None
    assert rep.to_json_obj()["defect"] is None


def test_pohozaev_zero_profile():
    sol = replace(get_solution("FLAT_CSV"), u=RadialExpr.zero(Basis.FLAT_C))
    fns = numeric.pohozaev_functionals(sol, 0.0, -1.0)
    assert fns.kinetic_T == 0.0 and fns.N == 0.0 and fns.Q == 0.0


def test_pohozaev_singular_profile_diverges():
    fns = numeric.pohozaev_functionals(get_solution("FLAT_SINGULAR_D6"), 0.0, -1.0)
    assert isinstance(fns.kinetic_T, Divergent)


def test_pohozaev_requires_flat_high_dimension():
    with pytest.raises(ValueError):
        numeric.pohozaev_functionals(get_solution("HYP_U1"), -1.0, -1.0)


def test_third_identity_sign_infeasibility():
    # with T, Q > 0 and D > 2, 4T + (D-2) alpha Q = 0 needs alpha < 0
    t, q, d = 2.3, 1.7, 6
    assert 4 * t + (d - 2) * 1.0 * q > 0
    alpha = -4.0 * t / ((d - 2) * q)
    assert alpha < 0
    assert 4 * t + (d - 2) * alpha * q == pytest.approx(0.0, abs=1e-14)


# -- scaling ------------------------------------------------------------------------


@pytest.mark.parametrize("a", [0.5, 2.0])
def test_scaling_mass_law(a):
    csv = get_solution("FLAT_CSV")
    base = mass(csv, 0.0, -1.0)
    scaled = mass(scale_flat_solution(csv, a), 0.0, -1.0)
    assert scaled / base == pytest.approx(a**2, rel=1e-8)


def test_scaled_solution_still_solves():
    scaled = scale_flat_solution(get_solution("FLAT_CSV"), 2.0)
    schro, poisson = numeric.fd_residual(scaled, 0.0, -1.0)
    assert schro <= 1e-6 and poisson <= 1e-6


# -- verification reports ---------------------------------------------------------------


def test_verify_solution_report():
    rep = numeric.verify_solution(get_solution("FLAT_CSV"), 0.0, -1.0)
    assert rep.passed
    assert rep.mass_expected == pytest.approx(96 * math.pi**3)
    obj = rep.to_json_obj()
    assert obj["passed"] is True and obj["grid"]["points"] > 0


def test_verify_divergent_mass_entry_passes():
    rep = numeric.verify_solution(get_solution("HYP_U2"), -1.0, -1.0)
    assert rep.passed
    assert isinstance(rep.mass_numeric, Divergent)
