import json
import math
import pickle
import re
import warnings
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest

from ccsp.catalog import (
    CATALOG,
    _SCALE_POWERS,
    GradedMass,
    NotScalableError,
    Solution,
    catalog_list,
    get_solution,
    scale_flat_solution,
    solution_from_hit,
)
from ccsp import derivation
from ccsp.derivation import (
    AlphaSign,
    DerivationHit,
    exact_mass,
    resubstitution_defects,
    solution_exprs,
    solve_background,
    solve_homogeneous,
)
from ccsp.geometry import Regime
from ccsp.numeric import compactness_obstruction_check, fd_residual, verify_solution
from ccsp.symbolic import Basis, Graded, RadialExpr

ALL_IDS = [s.id for s in CATALOG]


def test_expected_entries_exist():
    for sid in (
        "FLAT_CSV",
        "FLAT_SINGULAR_D3",
        "FLAT_SINGULAR_D6",
        "BG_FLAT_N3_D4",
        "BG_FLAT_N3_D5",
        "BG_FLAT_N4_D4",
        "HYP_U1",
        "HYP_U2",
        "HYP_U3",
        "BG_HYP_N2_D4",
        "BG_HYP_N1_D2",
        "BG_1D_SECH",
        "SPH_U1",
        "SPH_U2",
        "SPH_U3",
        "SPH_TRIVIAL",
    ):
        assert sid in ALL_IDS
    assert len(set(ALL_IDS)) == len(ALL_IDS)


def test_finite_mass_flags():
    finite = {s.id for s in CATALOG if s.finite_mass}
    assert finite == {
        "FLAT_CSV",
        "BG_FLAT_N3_D4",
        "BG_FLAT_N3_D5",
        "BG_FLAT_N4_D4",
        "HYP_U1",
        "BG_HYP_N2_D1",
        "BG_HYP_N2_D2",
        "BG_HYP_N2_D4",
        "BG_HYP_N1_D2",
        "BG_1D_SECH",
        "SPH_U3",
        "SPH_TRIVIAL",
    }


def test_masses_from_the_exponents_equal_the_closed_forms():
    # half-Beta integrals worked by hand: (coef, sphere_sub, pi_pow, kappa_pow2)
    expected = {
        "FLAT_CSV": (F(96), 5, 0, 0),
        "BG_FLAT_N3_D4": (F(36), 3, 0, 0),
        "BG_FLAT_N3_D5": (F(45, 4), 4, 1, 0),
        "BG_FLAT_N4_D4": (F(48), 3, 0, 0),
        "HYP_U1": (F(12), 2, 0, 1),
        "BG_HYP_N2_D1": (F(24), 0, 0, 3),
        "BG_HYP_N2_D2": (F(12), 1, 0, 2),
        "BG_HYP_N2_D4": (F(24), 3, 0, 0),
        "BG_HYP_N1_D2": (F(4), 1, 0, 2),
        "BG_1D_SECH": (F(8), 0, 0, 3),
        "SPH_U3": (F(4), None, 0, 0),  # radial-integral convention
    }
    for sid, (coef, sub, pi_pow, kappa_pow2) in expected.items():
        assert get_solution(sid).mass == GradedMass(coef, sub, pi_pow, kappa_pow2), sid


def test_every_entry_resubstitutes_exactly():
    for s in CATALOG:
        schro, poisson = resubstitution_defects(s.u, s.V, s.rho, s.omega, s.x_law, s.dim)
        assert schro.is_zero and poisson.is_zero, s.id


def _kappa_grade_faults(hit, mass):
    """Every grade of a curved hit whose length dimension is wrong.

    S has dimension length, C and (-kappa) S^2 none, and alpha none, so
    a term C^b S^o (-kappa)^k (curved-c) has dimension o - 2k and
    S^b C^o (-kappa)^k (curved-s) has b - 2k.  u = A B^n has dimension -2,
    so X = alpha A^2 carries (-kappa)^2 (curved-c) or (-kappa)^(2 + n)
    (curved-s); V and omega have dimension -2, rho and u^2 -4, and the mass
    int u^2 dvol D - 4 = -kappa_pow2.  The amplitude-free constant profile
    has u, rho and A of dimension 0."""
    def length_dim(t):
        return (t.odd if hit.family is Basis.CURVED_C else t.base) - 2 * t.kappa + t.amp * amp_dim

    faults = []
    if hit.x_law is None:
        amp_dim, want_u, want_rho, want_mass = 0, 0, 0, -hit.dim
    else:
        x_kappa = 2 if hit.family is Basis.CURVED_C else 2 + hit.n
        if hit.x_law.kappa != x_kappa:
            faults.append(("X", hit.x_law))
        amp_dim, want_u, want_rho, want_mass = -x_kappa, -2, -4, 4 - hit.dim
    u, v = solution_exprs(hit)
    for name, expr, want in (("u", u, want_u), ("V", v, -2), ("rho", hit.rho, want_rho)):
        faults += [(name, t) for t in expr.terms if length_dim(t) != want]
    if not hit.omega.is_zero and hit.omega.kappa != 1:
        faults.append(("omega", hit.omega))
    if mass is not None and mass.kappa_pow2 != want_mass:
        faults.append(("mass", mass))
    return faults


def test_every_curved_grade_has_its_length_dimension():
    # exact and float-free: this checks the curvature grades, not the coefficients
    entries = [s for s in CATALOG if not s.family.is_flat]
    hits = []
    for family in (Basis.CURVED_C, Basis.CURVED_S):
        for regime in (Regime.HYPERBOLIC, Regime.SPHERICAL):
            hits += solve_homogeneous(family, regime, range(-64, 0), range(1, 65))
            hits += solve_background(family, regime, range(-64, 0), range(1, 65), 3)
    assert (len(entries), len(hits)) == (17, 133)
    faults = [(s.id, f) for s in entries for f in _kappa_grade_faults(s, s.mass)]
    faults += [((h.family, h.n, h.dim), f) for h in hits for f in _kappa_grade_faults(h, exact_mass(h))]
    assert faults == []


def test_key_amplitudes_and_frequencies():
    csv = get_solution("FLAT_CSV")
    assert csv.x_law == Graded(F(-576))
    assert csv.fields_fn(0.0, -1.0, "u")(0.0) == [pytest.approx(24.0)]
    assert csv.omega_value(0.0) == 0.0

    u1 = get_solution("HYP_U1")
    assert u1.fields_fn(-1.0, -1.0, "u")(0.0) == [pytest.approx(6.0)]
    assert u1.omega_value(-1.0) == 0.0

    u3 = get_solution("HYP_U3")
    assert u3.omega_value(-1.0) == pytest.approx(2.0)

    sph3 = get_solution("SPH_U3")
    assert sph3.alpha_sign is AlphaSign.REPULSIVE
    assert sph3.omega_value(1.0) == pytest.approx(-2.0)
    assert sph3.fields_fn(1.0, 1.0, "u")(math.pi / 2) == [pytest.approx(math.sqrt(2.0))]

    sech = get_solution("BG_1D_SECH")
    assert sech.fields_fn(-1.0, 1.0, "u")(0.0) == [pytest.approx(math.sqrt(8.0))]


def test_singular_radii():
    assert get_solution("FLAT_CSV").singular_radii == ()
    assert get_solution("FLAT_SINGULAR_D6").singular_radii == ("origin",)
    assert get_solution("HYP_U2").singular_radii == ("origin",)
    assert get_solution("SPH_U1").singular_radii == ("equator",)
    assert get_solution("SPH_U2").singular_radii == ("origin", "antipode")
    sph2 = get_solution("SPH_U2")
    assert sph2.singular_radii_values(1.0) == pytest.approx((0.0, math.pi))
    sph1 = get_solution("SPH_U1")
    assert sph1.singular_radii_values(4.0) == pytest.approx((math.pi / 4,))


# -- listing ---------------------------------------------------------------


def test_singular_radii_values_are_exact():
    # the pole radii come from Space.r_max: halving it is exact in floating point
    for k in range(-4, 5):
        kappa = 2.0 ** (k / 2)
        equator, antipode = math.pi / (2 * math.sqrt(kappa)), math.pi / math.sqrt(kappa)
        assert get_solution("SPH_U1").singular_radii_values(kappa) == (equator,)
        for sid in ("SPH_U2", "SPH_U3"):
            assert get_solution(sid).singular_radii_values(kappa) == (0.0, antipode)


def test_default_alpha_has_the_required_sign():
    for s in CATALOG:
        want = 1.0 if s.alpha_sign is AlphaSign.REPULSIVE else -1.0
        assert s.default_alpha == want, s.id
    assert get_solution("FLAT_CSV").default_alpha == -1.0   # attractive
    assert get_solution("SPH_TRIVIAL").default_alpha == -1.0  # amplitude-free
    assert get_solution("SPH_TRIVIAL").alpha_sign is None
    assert get_solution("SPH_U3").default_alpha == 1.0      # repulsive
    assert get_solution("BG_1D_SECH").default_alpha == 1.0


def test_list_all():
    assert catalog_list() == list(CATALOG)


def test_list_hyperbolic_finite():
    got = catalog_list(regime=Regime.HYPERBOLIC, finite_mass=True)
    ids = [s.id for s in got]
    assert "HYP_U1" in ids
    homogeneous = [s.id for s in got if s.rho.is_zero]
    assert homogeneous == ["HYP_U1"]


def test_list_repulsive():
    ids = [s.id for s in catalog_list(alpha_sign=AlphaSign.REPULSIVE)]
    for expected in ("BG_FLAT_N3_D4", "BG_FLAT_N3_D5", "BG_HYP_N1_D2", "BG_1D_SECH", "SPH_U3"):
        assert expected in ids
    assert "FLAT_CSV" not in ids
    # sign-agnostic entries match both filters
    assert "SPH_TRIVIAL" in ids
    assert "SPH_TRIVIAL" in [s.id for s in catalog_list(alpha_sign=AlphaSign.ATTRACTIVE)]


def test_list_dim6():
    ids = [s.id for s in catalog_list(dim=6)]
    assert "FLAT_CSV" in ids and "FLAT_SINGULAR_D6" in ids


# -- scaling ----------------------------------------------------------------


def test_scale_identity():
    csv = get_solution("FLAT_CSV")
    assert scale_flat_solution(csv, 1.0) == csv


def test_scale_profile_and_mass_law():
    csv = get_solution("FLAT_CSV")
    scaled = scale_flat_solution(csv, 2.0)
    u = scaled.fields_fn(0.0, -1.0, "u")
    # u_a(r) = a^-2 u(r/a)
    assert u(0.0) == [pytest.approx(6.0)]
    assert u(2.0) == [pytest.approx(0.25 * 24.0 / (1 + 1.0) ** 2)]
    assert scaled.expected_mass_value(0.0, -1.0) == pytest.approx(4.0 * csv.expected_mass_value(0.0, -1.0))
    assert scale_flat_solution(scaled, 3.0).scale == 6.0
    # the scale never acts on omega, the poles or rho: flat omega is 0, the
    # only flat pole is the origin and scalable entries are homogeneous
    rs = np.linspace(0.5, 9.5, 7)
    for sid in ("FLAT_CSV", "FLAT_SINGULAR_D6"):
        sol = get_solution(sid)
        scaled = scale_flat_solution(sol, 2.0)
        assert scaled.omega_value(0.0) == sol.omega_value(0.0) == 0.0
        assert scaled.singular_radii_values(0.0) == sol.singular_radii_values(0.0)
        (rho,), (scaled_rho,) = sol.fields_fn(0.0, -1.0, "rho")(rs), scaled.fields_fn(0.0, -1.0, "rho")(rs)
        assert list(scaled_rho) == list(rho) == [0.0] * len(rs)
    assert get_solution("FLAT_SINGULAR_D6").singular_radii_values(0.0) == (0.0,)


def test_scale_rejects_curved():
    with pytest.raises(NotScalableError):
        scale_flat_solution(get_solution("HYP_U1"), 2.0)
    with pytest.raises(NotScalableError):
        scale_flat_solution(get_solution("BG_FLAT_N3_D4"), 2.0)
    with pytest.raises(ValueError):
        scale_flat_solution(get_solution("FLAT_CSV"), -1.0)


def _tangent_defects(sol, p, q):
    # L1 and L2, the field equations linearized at (u, V) and applied to the
    # tangent d/da (a^p u(r/a), a^q V(r/a)) at a = 1: (p u - r u', q V - r V')
    basis = sol.family
    r = RadialExpr.monomial(basis, 1, odd=1) if basis is Basis.FLAT_C else RadialExpr.monomial(basis, 1, base=1)
    u, v = sol.u, sol.V
    phi, psi = u * p - r * u.diff(), v * q - r * v.diff()
    omega = RadialExpr.monomial(basis, sol.omega.coef, kappa=sol.omega.kappa)
    l1 = -phi.laplacian(sol.dim) + (v * phi + u * psi).scale_grades(alpha=1) - omega * phi
    l2 = -psi.laplacian(sol.dim) - (u * phi * 2).substitute_amp_sq(sol.x_law)
    return l1, l2


@pytest.mark.parametrize("sid", ["FLAT_CSV", "FLAT_SINGULAR_D3", "FLAT_SINGULAR_D6"])
def test_scale_powers_are_the_exact_tangent_of_the_scaling_family(sid):
    # the scaled pair solves both equations for every a exactly when its
    # tangent at a = 1 does: at the table's (p, q), and at no neighbour
    sol = get_solution(sid)
    p, q = _SCALE_POWERS["u"], _SCALE_POWERS["V"]
    assert all(defect.is_zero for defect in _tangent_defects(sol, p, q))
    for dp, dq in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        assert not all(defect.is_zero for defect in _tangent_defects(sol, p + dp, q + dq)), (dp, dq)
    powers = {"du": p - 1, "d2u": p - 2, "dV": q - 1, "d2V": q - 2, "K": 2 * p + 2, "rho": q - 2}
    assert {name: _SCALE_POWERS[name] for name in powers} == powers


def _exact_value(expr, b2, neg_kappa, alpha):
    # an amplitude-free expression of even base powers and no odd factor, at B^2 = b2
    assert all(t.base % 2 == 0 and t.odd == 0 and t.amp == 0 for t in expr.terms), expr
    return sum(t.coeff * b2 ** (t.base // 2) * neg_kappa**t.kappa * alpha**t.alpha for t in expr.terms)


def _conformal_image_faults(hyp):
    # the points where hyp (kappa = -lam^2) is not the conformal image of
    # FLAT_CSV scaled by a = 1/lam: with t = tanh(lam r / 2), the ball radius
    # is t/lam, C = cosh(lam r) = (1 + t^2)/(1 - t^2) and the factor 1 + C
    flat = get_solution("FLAT_CSV")
    u2_hyp = (hyp.u * hyp.u).substitute_amp_sq(hyp.x_law)
    u2_flat = (flat.u * flat.u).substitute_amp_sq(flat.x_law)
    faults = []
    for lam, alpha, t in product((F(1), F(2), F(1, 3)), (F(-1), F(-5, 2)), (F(1, 5), F(1, 2), F(7, 9))):
        a, c = 1 / lam, (1 + t**2) / (1 - t**2)
        flat_b2 = 1 + (t / lam / a) ** 2  # c^2 at rho/a
        v_image = (1 + c) ** -2 * a ** _SCALE_POWERS["V"] * _exact_value(flat.V, flat_b2, 0, alpha)
        u_image = (1 + c) ** -2 * a ** _SCALE_POWERS["u"]
        if (_exact_value(hyp.V, c**2, lam**2, alpha) != v_image
                or _exact_value(u2_hyp, c**2, lam**2, alpha) != u_image**2 * _exact_value(u2_flat, flat_b2, 0, alpha)):
            faults.append((lam, alpha, t))
    return faults


def test_hyperbolic_d6_background_is_the_conformal_image_of_the_scaled_flat_bubble():
    # in D = 6 the hyperbolic ball is conformal to the flat one, and fields of
    # length dimension -2 carry the factor (1 + C)^-2; u is compared through
    # u^2, where A^2 = X/alpha is rational
    hyp = get_solution("BG_HYP_N2_D6")
    assert _conformal_image_faults(hyp) == []
    assert hyp.omega == Graded(6, 1)
    assert hyp.rho == hyp.V.scale_grades(kappa=1) * 6
    # omega shifted by (-kappa) moves V by a constant, which the image has not
    assert len(_conformal_image_faults(hyp._replace(omega=Graded(7, 1)))) == 18


# -- the tail integral K ---------------------------------------------------------


def _flat_k_solutions():
    # every flat catalog entry with D > 2, where Q is defined, and every flat
    # hit of the default search box, at any D
    sols = [s for s in CATALOG if s.regime is Regime.FLAT and s.dim > 2]
    n_box, d_box = range(-8, 0), range(1, 13)
    hits = solve_homogeneous(Basis.FLAT_C, Regime.FLAT, n_box, d_box)
    hits += solve_background(Basis.FLAT_C, Regime.FLAT, n_box, d_box)
    hits += solve_homogeneous(Basis.FLAT_R, Regime.FLAT, n_box, d_box)
    sols += [solution_from_hit(h, f"hit:{h.family.value}:n{h.n}:D{h.dim}") for h in hits]
    assert len(sols) == 6 + 16
    return sols


def test_tail_integral_is_exact():
    # K(r) = int_r^inf u^2 t dt: K'/r = -u^2 exactly, and every term decays
    # (a negative power of c or r), so K -> 0 at infinity as the integral does
    for sol in _flat_k_solutions():
        k = sol.K
        assert (k.diff().div_T() + sol.u * sol.u).is_zero, sol.id
        assert k.terms and all(t.base < 0 for t in k.terms), (sol.id, str(k))


def test_tail_integral_is_flat_only():
    for sid in ("HYP_U1", "SPH_U3"):
        with pytest.raises(ValueError, match="tail integral"):
            get_solution(sid).K


# -- compactness -------------------------------------------------------------


def test_compactness_homogeneous_entries_are_singular():
    for sid in ("SPH_U1", "SPH_U2", "SPH_U3"):
        rep = compactness_obstruction_check(get_solution(sid))
        assert rep.has_singularity and rep.consistent


def test_compactness_trivial_charge_balance():
    rep = compactness_obstruction_check(get_solution("SPH_TRIVIAL"))
    assert rep.total_charge is not None
    assert abs(rep.total_charge) <= 1e-10
    assert rep.consistent


def test_compactness_charge_balance_is_relative_to_the_mass():
    # at kappa = 1e8 the 3-sphere's volume, int u^2 of SPH_TRIVIAL, is
    # 1.97e-11: a source doubled to rho = -2 leaves a net charge of -int u^2,
    # below the absolute 1e-10 but not below 1e-10 int u^2
    sol = get_solution("SPH_TRIVIAL")
    assert compactness_obstruction_check(sol, 1e8).consistent
    rep = compactness_obstruction_check(sol._replace(rho=sol.rho * 2), 1e8)
    assert rep.total_charge == pytest.approx(-2.0 * math.pi**2 * 1e8**-1.5, rel=1e-10)
    assert not rep.consistent


def test_compactness_flags_a_divergent_charge(monkeypatch):
    # the S^2 weight of the 3-sphere leaves -(pi - r)^-4 non-integrable at
    # the antipode (-(pi - r)^-2 stays finite): it replaces rho's row
    fields_fn = Solution.fields_fn

    def patched(self, kappa, alpha, *names):
        fields = fields_fn(self, kappa, alpha, *names)
        return lambda r: [-(math.pi - r) ** -4.0 if name == "rho" else row for name, row in zip(names, fields(r))]

    monkeypatch.setattr(Solution, "fields_fn", patched)
    rep = compactness_obstruction_check(get_solution("SPH_TRIVIAL"))
    assert not rep.consistent
    assert rep.total_charge is None
    assert rep.detail == "charge integral diverges"


def test_compactness_flags_regular_homogeneous(monkeypatch):
    # a hypothetical regular homogeneous spherical solution contradicts the
    # charge-balance argument; no hit is one, so fake an empty singular set
    monkeypatch.setattr(Solution, "singular_radii", property(lambda self: ()))
    rep = compactness_obstruction_check(get_solution("SPH_U1"))
    assert not rep.consistent
    assert "CONTRADICTION" in rep.detail


def test_compactness_rejects_noncompact():
    with pytest.raises(ValueError):
        compactness_obstruction_check(get_solution("HYP_U1"))


def test_compactness_refuses_a_mass_past_the_floats():
    # the 3-sphere's volume, int u^2 of SPH_TRIVIAL, is past the floats at
    # kappa = 1e-205: the check reported consistent=True against int u^2 = inf
    with pytest.raises(ValueError, match=r"^int u\^2 = inf is past the floats at kappa = 1e-205, alpha = -1\.0$"):
        compactness_obstruction_check(get_solution("SPH_TRIVIAL"), 1e-205)


# -- serialization ------------------------------------------------------------


def test_json_round_trip_bit_exact():
    for s in CATALOG:
        text = json.dumps(s.to_json_obj())
        back = Solution.from_json_obj(json.loads(text))
        assert json.dumps(back.to_json_obj()) == text
        assert back.u == s.u and back.V == s.V and back.rho == s.rho
        assert back.omega == s.omega and back.x_law == s.x_law
        assert back.finite_mass == s.finite_mass
        assert back == s


def test_solution_equality_covers_the_record():
    # a record is its hit's fields and then its own: equality and hash see
    # both, and a record never equals its bare hit
    sol = get_solution("FLAT_CSV")
    hit = DerivationHit(**{name: getattr(sol, name) for name in DerivationHit._fields})
    same = solution_from_hit(hit, sol.id, sol.mass_convention, sol.provenance)
    assert same == sol and hash(same) == hash(sol)
    renamed = solution_from_hit(hit, "FLAT_CSV_COPY", sol.mass_convention, sol.provenance)
    assert renamed != sol and renamed.u == sol.u
    assert sol != hit and hit != sol
    assert scale_flat_solution(sol, 2.0) != sol
    assert sol._replace(scale=2.0) == scale_flat_solution(sol, 2.0)
    assert pickle.loads(pickle.dumps(sol)) == sol
    with pytest.raises(TypeError):
        Solution(*hit, "FLAT_CSV", "FULL", "")  # the record's fields are keyword-only
    with pytest.raises(AttributeError):
        sol.id = "OTHER"


def test_solution_repr_names_every_field_in_order():
    # the hit's own NamedTuple repr would print only its eight fields
    sol = scale_flat_solution(get_solution("FLAT_CSV"), 2.0)
    text, at = repr(sol), 0
    assert text.startswith("Solution(") and len(Solution._fields) == 12
    for name in Solution._fields:
        at = text.index(f"{name}={getattr(sol, name)!r}", at)
    assert text.endswith(", scale=2.0)")


def test_from_json_rejects_a_record_its_derivation_disagrees_with():
    obj = get_solution("FLAT_CSV").to_json_obj()
    edited_v = json.loads(json.dumps(obj))
    edited_v["V"]["terms"][0]["coeff"] = "7"
    # a quarter of X quarters the mass too, so only the equations catch it
    edited_law = json.loads(json.dumps(obj))
    edited_law["amp_law"]["coef"] = "-144"
    edited_law["mass"]["coef"] = "24"
    for bad in (edited_v, edited_law):
        with pytest.raises(ValueError):
            Solution.from_json_obj(bad)
    assert Solution.from_json_obj(obj) == get_solution("FLAT_CSV")


def test_from_json_rejects_a_profile_of_two_terms():
    obj = get_solution("FLAT_CSV").to_json_obj()
    term = obj["u"]["terms"][0]
    two_terms = {**obj, "u": {**obj["u"], "terms": [term, {**term, "base": -2}]}}
    with pytest.raises(ValueError, match=r"^FLAT_CSV: u must be a single monomial A\*base\^n$"):
        Solution.from_json_obj(two_terms)


@pytest.mark.parametrize("sid, kappa_pow", [("FLAT_CSV", 0), ("HYP_U1", 1)])
def test_from_json_rejects_a_record_whose_omega_is_not_its_cells_frequency(sid, kappa_pow):
    # omega and V shifted by one gauge constant c (V by c/alpha) still solve
    # both equations exactly, so only the frequency of the cell catches it
    sol = get_solution(sid)
    assert sol.omega.is_zero
    shifted = sol._replace(omega=Graded(1, kappa_pow))
    assert shifted.V != sol.V
    assert all(d.is_zero for d in resubstitution_defects(shifted.u, shifted.V, shifted.rho, shifted.omega,
                                                         shifted.x_law, shifted.dim))
    with pytest.raises(ValueError, match=f"^{sid}: omega = .* is not the frequency .* of its cell$"):
        Solution.from_json_obj(json.loads(json.dumps(shifted.to_json_obj())))
    with pytest.raises(ValueError, match="omega"):
        solution_from_hit(shifted, sid)


def test_from_json_checks_the_scale():
    # a scale other than 1 goes through scale_flat_solution: a scaled curved
    # or background record is no solution, and the factor must be positive
    def record(sid, scale):
        return {**get_solution(sid).to_json_obj(), "scale": scale}

    for sid, scale, error in (
        ("HYP_U1", 2.0, NotScalableError),
        ("BG_FLAT_N3_D4", 2.0, NotScalableError),
        ("FLAT_CSV", -1.0, ValueError),
        ("FLAT_CSV", math.nan, ValueError),
    ):
        with pytest.raises(error):
            Solution.from_json_obj(record(sid, scale))
    scaled = scale_flat_solution(get_solution("FLAT_CSV"), 2.0)
    assert Solution.from_json_obj(json.loads(json.dumps(scaled.to_json_obj()))) == scaled
    assert Solution.from_json_obj(record("FLAT_CSV", 2.0)) == scaled


def test_a_scale_past_the_float_range_is_a_value_error():
    # an int past the float range raised OverflowError from its conversion
    csv = get_solution("FLAT_CSV")
    with pytest.raises(ValueError, match="scale factor must be positive and finite"):
        scale_flat_solution(csv, 10**400)
    with pytest.raises(ValueError, match="scale factor must be positive and finite"):
        Solution.from_json_obj({**csv.to_json_obj(), "scale": 10**400})
    assert scale_flat_solution(csv, 2**1000).scale == 2.0**1000


def test_a_scale_that_puts_a_field_outside_the_float_range_is_a_value_error():
    # a^-4 of u'' and V'' is 1e320 at a = 1e-80, which raised OverflowError
    sol = scale_flat_solution(get_solution("FLAT_CSV"), 1e-80)
    with pytest.raises(ValueError, match=r"^FLAT_CSV: scale 1e-80 puts a field outside the float range$"):
        verify_solution(sol, 0.0, -1.0)
    # u alone: a^-2 is 1e400 at a = 1e-200
    with pytest.raises(ValueError, match="FLAT_CSV: scale 1e-200 puts a field outside the float range"):
        scale_flat_solution(get_solution("FLAT_CSV"), 1e-200).fields_fn(0.0, -1.0, "u")


@pytest.mark.parametrize("scale", [1e200, 1e154])
def test_a_scale_that_puts_the_mass_outside_the_float_range_is_a_value_error(scale):
    # FLAT_CSV's mass goes as a^(D-4) = a^2: a^2 = 1e400 raised OverflowError,
    # and 2977 a^2 = 3e311 at a = 1e154 was returned as inf
    sol = scale_flat_solution(get_solution("FLAT_CSV"), scale)
    with pytest.raises(ValueError, match=rf"^FLAT_CSV: scale {re.escape(repr(scale))} puts the mass outside the float range$"):
        sol.expected_mass_value(0.0, -1.0)


def test_a_power_of_the_scale_below_the_normal_doubles_is_a_value_error():
    # a^-4 of u'' and V'' is 1e-400 at a = 1e100, which rounded to 0.0: every
    # field was 0 and fd_residual returned (0.0, 0.0), checking nothing
    csv = get_solution("FLAT_CSV")
    with pytest.raises(ValueError, match=r"^FLAT_CSV: scale 1e\+100 puts a field outside the float range$"):
        fd_residual(scale_flat_solution(csv, 1e100), 0.0, -1.0)
    # u alone: a^-2 is 1e-400 at a = 1e200
    with pytest.raises(ValueError, match=r"^FLAT_CSV: scale 1e\+200 puts a field outside the float range$"):
        scale_flat_solution(csv, 1e200).fields_fn(0.0, -1.0, "u")
    # the mass factor a^2 is 1e-400 at a = 1e-200: the message named kappa and alpha, not the scale
    with pytest.raises(ValueError, match=r"^FLAT_CSV: scale 1e-200 puts the mass outside the float range$"):
        scale_flat_solution(csv, 1e-200).expected_mass_value(0.0, -1.0)


def test_a_scaled_field_past_the_floats_is_inf_without_a_warning():
    # at a = 1e-77 every a^power is finite (a^-4 = 1e308), but u'' a^-4 is not:
    # the scaled product overflowed outside any errstate and warned
    sol = scale_flat_solution(get_solution("FLAT_CSV"), 1e-77)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        residuals = fd_residual(sol, 0.0, -1.0)
    assert not any(math.isfinite(x) for x in residuals), residuals


def test_a_closed_form_mass_below_the_normal_doubles_is_a_value_error():
    # 2 pi^2 kappa^(-3/2) underflows to 0.0 at kappa = 1e300
    with pytest.raises(ValueError, match=r"^closed-form mass = 0\.0 is below the normal doubles at kappa = 1e\+300, alpha = -1\.0$"):
        get_solution("SPH_TRIVIAL").expected_mass_value(1e300, -1.0)


def test_a_closed_form_mass_past_the_floats_is_a_value_error():
    # kappa^(-3/2) of the 3-sphere's volume overflows at kappa = 3e-206: the
    # float power raised OverflowError, and at scale 1 the message blamed the scale
    sol = get_solution("SPH_TRIVIAL")
    assert sol.mass.value(3e-206, -1.0) == math.inf
    for kappa in (3e-206, 1e-205):
        with pytest.raises(ValueError, match=rf"^closed-form mass = inf is past the floats at kappa = {kappa!r}, alpha = -1\.0$"):
            sol.expected_mass_value(kappa, -1.0)


def test_from_json_rejects_an_unknown_convention_and_a_scale_that_is_no_number():
    # an unknown convention re-derived, and its mass then lost the sphere
    # factor (96 for FLAT_CSV's 2976.6); a bool scale re-derived as 1.0
    obj = get_solution("FLAT_CSV").to_json_obj()
    bogus = {**obj, "mass_convention": "BOGUS", "mass": {**obj["mass"], "sphere_sub": None}}
    with pytest.raises(ValueError, match="unknown mass convention 'BOGUS'"):
        Solution.from_json_obj(bogus)
    with pytest.raises(ValueError, match="unknown mass convention"):
        solution_from_hit(get_solution("HYP_U1"), "X", mass_convention="full")
    for scale in (True, False, "1.0", None):
        with pytest.raises(ValueError, match="scale must be a number"):
            Solution.from_json_obj({**obj, "scale": scale})


def test_trivial_sphere_mass_keeps_its_value():
    # the amplitude-free hit gives S_2 B(1/2, 3/2) kappa^(-3/2), stored before
    # as the hand-typed 2 pi^2 kappa^(-3/2); the float values are identical
    sol = get_solution("SPH_TRIVIAL")
    assert sol.mass == GradedMass(F(1, 2), 2, pi_pow=1, kappa_pow2=-3, alpha_pow=0)
    hand_typed = GradedMass(F(2), None, pi_pow=2, kappa_pow2=-3, alpha_pow=0)
    for kappa in (0.25, 1.0, 4.0):
        for alpha in (1.0, -1.0):
            assert sol.mass.value(kappa, alpha) == hand_typed.value(kappa, alpha)
            assert sol.expected_mass_value(kappa, alpha) == hand_typed.value(kappa, alpha)


def test_json_field_order():
    obj = get_solution("FLAT_CSV").to_json_obj()
    assert list(obj) == [
        "id",
        "regime",
        "dim",
        "u",
        "V",
        "rho",
        "omega",
        "alpha_sign",
        "amp_law",
        "singular_radii",
        "mass",
        "mass_convention",
        "provenance",
        "scale",
    ]
    assert obj["rho"] is None  # homogeneous
    assert get_solution("SPH_U3").mass_convention == "RADIAL_INTEGRAL"


# -- catalog equals the derivation union ----------------------------------------


def _signature(family, n, dim, regime, x_law, rho):
    return (family, n, dim, regime, x_law, rho)


def test_every_derived_catalog_cell_is_a_hit_of_the_classification():
    derived = [s for s in CATALOG if s.id != "SPH_TRIVIAL"]
    assert len(derived) == 22
    for sol in derived:
        hits = derivation._search(sol.family, sol.regime, [sol.n], [sol.dim], sol.mode)
        fields_of_hit = {name: getattr(sol, name) for name in DerivationHit._fields}
        assert hits == [DerivationHit(**fields_of_hit)], sol.id


def test_catalog_matches_derivation_union():
    n_box, d_box = range(-8, 0), range(1, 13)
    hits = []
    hits += solve_homogeneous(Basis.FLAT_C, Regime.FLAT, n_box, d_box)
    hits += solve_homogeneous(Basis.CURVED_C, Regime.HYPERBOLIC, n_box, d_box)
    hits += solve_homogeneous(Basis.CURVED_S, Regime.HYPERBOLIC, n_box, d_box)
    hits += solve_homogeneous(Basis.CURVED_C, Regime.SPHERICAL, n_box, d_box)
    hits += solve_homogeneous(Basis.CURVED_S, Regime.SPHERICAL, n_box, d_box)
    hits += solve_background(Basis.FLAT_C, Regime.FLAT, n_box, d_box)
    hits += solve_background(Basis.CURVED_C, Regime.HYPERBOLIC, n_box, range(1, 7))
    hit_sigs = {
        _signature(h.family, h.n, h.dim, h.regime, h.x_law, h.rho) for h in hits
    }
    # the singular and trivial families come from their dedicated operations
    singular = solve_homogeneous(Basis.FLAT_R, Regime.FLAT, range(-8, 0), [3, 6])
    hit_sigs |= {_signature(h.family, h.n, h.dim, h.regime, h.x_law, h.rho) for h in singular}

    cat_sigs = set()
    for s in CATALOG:
        if s.id == "SPH_TRIVIAL":
            continue
        cat_sigs.add(_signature(s.family, s.n, s.dim, s.regime, s.x_law, s.rho))

    # every catalog entry is a derivation output
    assert cat_sigs <= hit_sigs
    # and every derivation output is cataloged, modulo: background searches
    # rediscover homogeneous solutions with an empty source, and the
    # inverse-square family is materialized at D in {3, 6} only
    unmatched = hit_sigs - cat_sigs
    for fam, n, dim, regime, x_law, rho in unmatched:
        if fam is Basis.FLAT_R:
            assert dim not in (3, 6)
        else:
            assert rho.is_zero, (fam, n, dim)
            twin = _signature(fam, n, dim, regime, x_law, RadialExpr.zero(rho.basis))
            assert twin in cat_sigs
