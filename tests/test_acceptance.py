"""Acceptance checklist: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
tolerance is pinned here, not configured elsewhere.  Criterion 5 checks the
four-dimensional repulsive background profile BG_FLAT_N3_D4 as finite-mass:
its integrand 144 r^3 / (alpha (1+r^2)^3) decays like r^-3, and t = r^2 turns
the radial integral into (1/2) B(2, 1) = 1/4, so N = 36 S_3/alpha = 72 pi^2/alpha.
"""

import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import fd_laplacian
from ccsp import numeric
from ccsp.catalog import CATALOG, get_solution, scale_flat_solution, NotScalableError
from ccsp.derivation import (
    AlphaSign,
    solve_background,
    solve_homogeneous,
)
from ccsp.geometry import Regime, sphere_area
from ccsp.numeric import Divergent, compactness_obstruction_check
from ccsp.symbolic import Basis, Graded, RadialExpr


def _report(num: str, ok: bool, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def _params(sol):
    kappa = {Regime.FLAT: 0.0, Regime.HYPERBOLIC: -1.0, Regime.SPHERICAL: 1.0}[sol.regime]
    alpha = -1.0 if sol.alpha_sign in (AlphaSign.ATTRACTIVE, None) else 1.0
    return kappa, alpha


def mono(basis, coeff, **kw):
    return RadialExpr.monomial(basis, coeff, **kw)


def test_criterion_1_flat_uniqueness():
    t0 = time.time()
    hits = solve_homogeneous(Basis.FLAT_C, Regime.FLAT, range(-8, 0), range(1, 13))
    dt = time.time() - t0
    ok = (
        len(hits) == 1
        and hits[0].n == -4
        and hits[0].dim == 6
        and hits[0].x_law == Graded(F(-576))
        and hits[0].amp_sq_value(0.0, -1.0) == 576.0
        and dt < 1.0
    )
    _report("1", ok, f"unique flat hit (n=-4, D=6, A^2=576/(-alpha)) in {dt:.3f}s")


def test_criterion_2_curved_searches_exact():
    c_hits = solve_homogeneous(Basis.CURVED_C, Regime.HYPERBOLIC, range(-8, 0), range(1, 13))
    s_hits = solve_homogeneous(Basis.CURVED_S, Regime.HYPERBOLIC, range(-8, 0), range(1, 13))
    ok = (
        [(h.n, h.dim) for h in c_hits] == [(-2, 3)]
        and c_hits[0].x_law == Graded(F(-36), 2)          # A = 6(-kappa)/sqrt(-alpha)
        and c_hits[0].omega == Graded(F(0))
        and [(h.n, h.dim) for h in s_hits] == [(-2, 3), (-1, 4)]
        and s_hits[0].x_law == Graded(F(-4))              # A = 2/sqrt(-alpha)
        and s_hits[1].x_law == Graded(F(-2), 1)           # A = sqrt(2(-kappa)/(-alpha))
        and math.sqrt(c_hits[0].amp_sq_value(-1.0, -1.0)) == pytest.approx(6.0, abs=0)
        and s_hits[0].amp_sq_value(-1.0, -1.0) == 4.0
        and s_hits[1].amp_sq_value(-1.0, -1.0) == 2.0
    )
    _report("2", ok, "curved searches give exactly the three known profiles, exact amplitudes")


def test_criterion_3_background_derivations():
    flat = {(h.n, h.dim): h for h in solve_background(Basis.FLAT_C, Regime.FLAT, range(-8, 0), range(1, 13))}
    curved = {(h.n, h.dim): h for h in solve_background(Basis.CURVED_C, Regime.HYPERBOLIC, range(-8, 0), range(1, 7))}
    rho_n3 = mono(Basis.FLAT_C, -360, base=-8, alpha=-1)
    checks = [
        flat[(-3, 4)].rho == rho_n3 and flat[(-3, 4)].x_law == Graded(F(144)),
        flat[(-3, 5)].rho == rho_n3 and flat[(-3, 5)].x_law == Graded(F(60)),
        # the D=4 attractive companion: exact substitution fixes
        # rho = 256/(alpha c^6) (negative for alpha < 0; positive-sign
        # quotes of this source fail the Poisson equation)
        flat[(-4, 4)].rho == mono(Basis.FLAT_C, 256, base=-6, alpha=-1),
        flat[(-4, 4)].x_law == Graded(F(-576)),
    ]
    for d in range(1, 7):
        expected = (
            RadialExpr.zero(Basis.CURVED_C)
            if d == 3
            else mono(Basis.CURVED_C, -12 * (d - 3), base=-2, kappa=2, alpha=-1)
        )
        checks.append(curved[(-2, d)].rho == expected)
    for d in (1, 2, 4, 5, 6):
        h = curved[(-1, d)]
        checks.append(h.rho == mono(Basis.CURVED_C, -12, base=-4, kappa=2, alpha=-1))
        checks.append(h.alpha_sign is (AlphaSign.REPULSIVE if d < 3 else AlphaSign.ATTRACTIVE))
    checks.append((-1, 3) not in curved)  # zero amplitude: no solution at D = 3
    _report("3", all(checks), "background hits and sources match exact substitution, "
            "with the alpha-sign trichotomy at D<3 / D=3 / D>3")


def test_criterion_4_masses():
    t0 = time.time()
    results = []
    m = numeric.mass(get_solution("FLAT_CSV"), 0.0, -1.0)
    results.append(abs(m - 96 * math.pi**3) <= 1e-8 * 96 * math.pi**3)
    m = numeric.mass(get_solution("HYP_U1"), -1.0, -1.0)
    results.append(abs(m - 48 * math.pi) <= 1e-8 * 48 * math.pi)
    m = numeric.mass(get_solution("BG_1D_SECH"), -1.0, 1.0)  # R = 1, alpha = 1
    results.append(abs(m - 16.0) <= 1e-8 * 16.0)
    # the spherical inverse-S profile carries the repulsive sign, so the
    # radial integral 4/alpha is evaluated at alpha = +1 and equals 4
    m = numeric.mass(get_solution("SPH_U3"), 1.0, 1.0, include_sphere_factor=False)
    results.append(abs(m - 4.0) <= 1e-8 * 4.0)
    dt = time.time() - t0
    _report("4", all(results) and dt < 4.0, f"closed-form masses reproduced to 1e-8 in {dt:.2f}s")


def test_criterion_5_divergence_classification():
    subchecks = []

    def sub(name, ok):
        print(f"    criterion 5 <- {name}: {'ok' if ok else 'MISMATCH'}")
        subchecks.append((name, ok))

    sub("HYP_U2 small-r", getattr(numeric.mass(get_solution("HYP_U2"), -1.0, -1.0), "where", None) == "small-r")
    sub("HYP_U3 large-r", getattr(numeric.mass(get_solution("HYP_U3"), -1.0, -1.0), "where", None) == "large-r")
    sub("FLAT_SINGULAR_D6", isinstance(numeric.mass(get_solution("FLAT_SINGULAR_D6"), 0.0, -1.0), Divergent))
    sub("FLAT_SINGULAR_D3", isinstance(numeric.mass(get_solution("FLAT_SINGULAR_D3"), 0.0, -1.0), Divergent))
    # integrand 144 r^3 / (alpha (1+r^2)^3); with t = r^2 the radial integral is
    # (1/2) B(2, 1) = 1/4, so N = 144 * 1/4 * S_3 = 72 pi^2 at alpha = 1
    m = numeric.mass(get_solution("BG_FLAT_N3_D4"), 0.0, 1.0)
    expected = 144 * 0.25 * sphere_area(4)
    sub("BG_FLAT_N3_D4 finite", not isinstance(m, Divergent) and abs(m - expected) <= 1e-8 * expected)
    # inverse-C-squared family: finite mass exactly for D in {3, 4} among [3, 6]
    finite_dims = set()
    for d, sid in ((3, "HYP_U1"), (4, "BG_HYP_N2_D4"), (5, "BG_HYP_N2_D5"), (6, "BG_HYP_N2_D6")):
        if not isinstance(numeric.mass(get_solution(sid), -1.0, -1.0), Divergent):
            finite_dims.add(d)
    sub("BG_HYP_N2 finite set {3,4}", finite_dims == {3, 4})

    failing = [name for name, ok in subchecks if not ok]
    text = "divergence classification matches the stated set"
    if failing:
        text += f" (mismatched: {', '.join(failing)})"
    _report("5", not failing, text)


def _central_difference_residual(sol, kappa, alpha, h):
    # both field equations under the test's own central-difference
    # Laplacian at step h, on verify's grid, divided by max(|u|, 1): only the
    # ratio of two steps is read, as a convergence order
    space = sol.space(kappa)
    r = numeric.default_grid(sol, kappa)
    fields = sol.fields_fn(kappa, alpha, "u", "V", "rho")
    u, v, rho = fields(r)
    schro = -fd_laplacian(lambda x: fields(x)[0], space, r, h) + alpha * v * u - sol.omega_value(kappa) * u
    poisson = -fd_laplacian(lambda x: fields(x)[1], space, r, h) - u**2 - rho
    return max(np.max(np.abs(schro)), np.max(np.abs(poisson))) / max(np.max(np.abs(u)), 1.0)


def test_criterion_6_pde_residuals_and_order():
    worst = 0.0
    orders = {}
    for sol in CATALOG:
        kappa, alpha = _params(sol)
        schro, poisson = numeric.fd_residual(sol, kappa, alpha)
        worst = max(worst, schro, poisson)
        assert schro <= 1e-6 and poisson <= 1e-6, (sol.id, schro, poisson)
        coarse = _central_difference_residual(sol, kappa, alpha, 2e-3)
        fine = _central_difference_residual(sol, kappa, alpha, 1e-3)
        if coarse > 1e-10:  # residual measurable (constant profiles are exact)
            order = math.log2(coarse / fine)
            orders[sol.id] = order
            assert 1.5 <= order <= 2.5, (sol.id, order)
    ok = worst <= 1e-6 and all(1.5 <= o <= 2.5 for o in orders.values())
    _report("6", ok, f"all {len(CATALOG)} entries: residuals <= 1e-6 (worst {worst:.2e}), "
            f"central differences converge at order 2.0 +/- 0.5 on {len(orders)} measurable entries")


def test_criterion_7_pohozaev():
    t0 = time.time()
    sol = get_solution("FLAT_CSV")
    fns = numeric.pohozaev_functionals(sol, 0.0, -1.0)
    t, q = fns.T, fns.Q
    dt = time.time() - t0
    ok = (
        not isinstance(t, Divergent)
        and abs(t - q) / t <= 1e-6              # T - omega N + alpha Q with omega = 0
        and abs(4 * t + 4 * (-1.0) * q) / t <= 1e-6  # 4T + (D-2) alpha Q at D = 6
        and dt < 30.0
    )
    _report("7", ok, f"flat identities |T-Q|/T = {abs(t-q)/t:.2e} within 1e-6, {dt:.1f}s < 30s")


def test_criterion_8_scaling_family():
    csv = get_solution("FLAT_CSV")
    base = numeric.mass(csv, 0.0, -1.0)
    ratios_ok = True
    for a in (0.5, 2.0):
        scaled = numeric.mass(scale_flat_solution(csv, a), 0.0, -1.0)
        ratios_ok = ratios_ok and abs(scaled / base - a**2) <= 1e-8
    rejected = False
    try:
        scale_flat_solution(get_solution("HYP_U1"), 2.0)
    except NotScalableError:
        rejected = True
    _report("8", ratios_ok and rejected, "mass scales as a^2; curved rescaling rejected")


def test_criterion_9_compactness():
    ok = True
    for sid in ("SPH_U1", "SPH_U2", "SPH_U3"):
        rep = compactness_obstruction_check(get_solution(sid))
        ok = ok and rep.has_singularity and rep.consistent
    rep = compactness_obstruction_check(get_solution("SPH_TRIVIAL"))
    ok = ok and rep.total_charge is not None and abs(rep.total_charge) <= 1e-10
    _report("9", ok, "spherical homogeneous entries singular; trivial profile balances charge")


def test_criterion_10_property_suites():
    import test_symbolic as ts

    for basis in Basis:
        ts.test_ring_axioms(basis)
        ts.test_normal_form_unique_under_shuffling(basis)
    ts.test_laplacian_linearity()
    ts.test_laplacian_matches_fd_oracle()
    _report("10", True, "ring axioms and 50x20 finite-difference oracle equivalence")
