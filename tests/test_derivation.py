import json
import math
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import fd_laplacian
from ccsp import derivation, numeric
from ccsp.catalog import solution_from_hit
from ccsp.derivation import (
    AlphaSign,
    AnsatzFamily,
    CandidateStatus,
    evaluate_candidate,
    exact_mass,
    omega_of,
    potential_term,
    resubstitution_defects,
    solution_exprs,
    solve_background,
    solve_homogeneous,
)
from ccsp.geometry import Regime, Space
from ccsp.symbolic import Basis, Graded, RadialExpr

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"

N_BOX = range(-8, 0)
D_BOX = range(1, 13)


def mono(basis, coeff, **kw):
    return RadialExpr.monomial(basis, coeff, **kw)


# -- potential term -----------------------------------------------------------


def test_potential_term_flat_csv():
    got = potential_term(AnsatzFamily(Basis.FLAT_C, -4), Regime.FLAT, 6)
    assert got == mono(Basis.FLAT_C, -24, base=-4)


def test_potential_term_curved_c_with_fd_oracle():
    fam = AnsatzFamily(Basis.CURVED_C, -2)
    got = potential_term(fam, Regime.HYPERBOLIC, 3)
    assert got == mono(Basis.CURVED_C, -6, base=-2, kappa=1)
    # brute-force check of Lap(u)/u at sample radii
    space = Space(Regime.HYPERBOLIC, -1.0, 3)
    u = lambda r: math.cosh(r) ** -2
    table = numeric.compile_table((got,), space, 1.0, 1.0)
    for r in (0.6, 1.1, 2.3):
        assert float(table(r)[0]) == pytest.approx(fd_laplacian(u, space, r) / u(r), rel=1e-6)


def test_potential_term_inverse_s_coefficients_fixed_by_oracle():
    # oracle first: finite differences on u = 1/S determine both
    # coefficients of Lap(u)/u = a/S^2 + b*(-kappa) before any assertion
    space = Space(Regime.HYPERBOLIC, -1.0, 4)
    u = lambda r: 1.0 / math.sinh(r)
    samples = []
    for r in (0.8, 1.7):
        s2 = math.sinh(r) ** -2
        samples.append((s2, fd_laplacian(u, space, r) / u(r)))
    (x1, y1), (x2, y2) = samples
    a = (y1 - y2) / (x1 - x2)
    b = y1 - a * x1
    assert a == pytest.approx(-1.0, rel=1e-5)
    assert b == pytest.approx(-2.0, rel=1e-4)

    got = potential_term(AnsatzFamily(Basis.CURVED_S, -1), Regime.HYPERBOLIC, 4)
    expected = mono(Basis.CURVED_S, -1, base=-2) + mono(Basis.CURVED_S, -2, kappa=1)
    assert got == expected


# -- omega ---------------------------------------------------------------------


def test_omega_flat_zero():
    for n in (-4, -3, -2):
        for d in (3, 6):
            w = omega_of(AnsatzFamily(Basis.FLAT_C, n), Regime.FLAT, d)
            assert w == Graded(F(0))
    w = omega_of(AnsatzFamily(Basis.FLAT_R, -2), Regime.FLAT, 6)
    assert w == Graded(F(0))


def test_omega_curved_values():
    w = omega_of(AnsatzFamily(Basis.CURVED_C, -2), Regime.HYPERBOLIC, 3)
    assert w == Graded(F(0))  # D + n - 1 = 0
    w = omega_of(AnsatzFamily(Basis.CURVED_S, -1), Regime.HYPERBOLIC, 4)
    assert w == Graded(F(2), 1)
    # numeric limit of -Lap(u)/u at large r
    space = Space(Regime.HYPERBOLIC, -1.0, 4)
    u = lambda r: 1.0 / math.sinh(r)
    limit = -fd_laplacian(u, space, 30.0) / u(30.0)
    assert w.evaluate(1.0) == pytest.approx(limit, abs=1e-7)


def test_omega_curved_constant_split():
    # u = C^n: the constant term of Lap(u)/u is n(D+n-1)(-kappa) in both regimes
    n, dim = -2, 5
    for regime in (Regime.HYPERBOLIC, Regime.SPHERICAL):
        w = omega_of(AnsatzFamily(Basis.CURVED_C, n), regime, dim)
        assert w == Graded(F(-n * (dim + n - 1)), 1)


def test_potential_term_has_only_even_nonpositive_powers():
    # why omega is minus the constant term: every other term decays at infinity
    for family in Basis:
        regime = Regime.FLAT if family.is_flat else Regime.HYPERBOLIC
        for n in range(-12, 13):
            for d in range(1, 17):
                pot = potential_term(AnsatzFamily(family, n), regime, d)
                assert all(t.odd == 0 and t.base <= 0 for t in pot.terms), (family, n, d)


def test_omega_spherical_is_conventional():
    w = omega_of(AnsatzFamily(Basis.CURVED_S, -1), Regime.SPHERICAL, 4)
    assert w == Graded(F(2), 1)
    assert w.evaluate(-1.0) == -2.0  # kappa = +1


# -- geometric part and amplitude law --------------------------------------------


def test_residual_curved_c_n2_d3():
    fam = AnsatzFamily(Basis.CURVED_C, -2)
    # alpha*Lap(V) = 36 (-kappa)^2 / C^4, and the amplitude term X/C^4 cancels it
    assert derivation._geometry_part(fam, 3) == mono(Basis.CURVED_C, 36, base=-4, kappa=2)
    cand = evaluate_candidate(fam, Regime.HYPERBOLIC, 3, "homogeneous")
    assert cand.hit.x_law == Graded(F(-36), 2)


def test_residual_inverse_s_d3_has_no_solution():
    cand = evaluate_candidate(AnsatzFamily(Basis.CURVED_S, -1), Regime.HYPERBOLIC, 3)
    assert cand.status is CandidateStatus.NO_SOLUTION


# -- homogeneous searches ----------------------------------------------------------


def test_flat_homogeneous_unique():
    hits = solve_homogeneous(Basis.FLAT_C, Regime.FLAT, N_BOX, D_BOX)
    assert [(h.n, h.dim) for h in hits] == [(-4, 6)]
    h = hits[0]
    assert h.x_law == Graded(F(-576))
    assert h.alpha_sign is AlphaSign.ATTRACTIVE
    assert h.amp_sq_value(0.0, -1.0) == pytest.approx(576.0)
    assert h.omega == Graded(F(0))


def test_curved_c_homogeneous_unique():
    hits = solve_homogeneous(Basis.CURVED_C, Regime.HYPERBOLIC, N_BOX, D_BOX)
    assert [(h.n, h.dim) for h in hits] == [(-2, 3)]
    assert hits[0].x_law == Graded(F(-36), 2)
    assert hits[0].omega == Graded(F(0))
    # A = 6 (-kappa)/sqrt(-alpha) at kappa = -1, alpha = -1
    assert math.sqrt(hits[0].amp_sq_value(-1.0, -1.0)) == pytest.approx(6.0)


def test_curved_s_homogeneous_pair():
    hits = solve_homogeneous(Basis.CURVED_S, Regime.HYPERBOLIC, N_BOX, D_BOX)
    assert [(h.n, h.dim) for h in hits] == [(-2, 3), (-1, 4)]
    by_n = {h.n: h for h in hits}
    assert by_n[-2].x_law == Graded(F(-4))
    assert by_n[-1].x_law == Graded(F(-2), 1)
    # amplitudes at kappa = -1, alpha = -1: 2 and sqrt(2)
    assert math.sqrt(by_n[-2].amp_sq_value(-1.0, -1.0)) == pytest.approx(2.0)
    assert math.sqrt(by_n[-1].amp_sq_value(-1.0, -1.0)) == pytest.approx(math.sqrt(2.0))
    assert all(h.alpha_sign is AlphaSign.ATTRACTIVE for h in hits)


def test_spherical_s_pair_and_sign_flip():
    hits = solve_homogeneous(Basis.CURVED_S, Regime.SPHERICAL, N_BOX, D_BOX)
    by_n = {h.n: h for h in hits}
    assert set(by_n) == {-2, -1}
    assert by_n[-2].alpha_sign is AlphaSign.ATTRACTIVE
    # the inverse-S profile on the sphere carries the opposite coupling sign:
    # X = -2 (-kappa) evaluates positive for kappa > 0
    assert by_n[-1].alpha_sign is AlphaSign.REPULSIVE
    assert by_n[-1].amp_sq_value(1.0, 1.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        by_n[-1].amp_sq_value(1.0, -1.0)


def test_singular_flat_search():
    hits = solve_homogeneous(Basis.FLAT_R, Regime.FLAT, range(-8, 0), range(1, 13))
    assert all(h.n == -2 for h in hits)
    assert [h.dim for h in hits] == [d for d in range(1, 13) if d != 4]
    by_d = {h.dim: h for h in hits}
    # A^2 = 4 (D-4)^2 / (-alpha)
    assert by_d[6].x_law == Graded(F(-16))
    assert by_d[3].x_law == Graded(F(-4))
    assert by_d[6].amp_sq_value(0.0, -1.0) == pytest.approx(16.0)


# -- background searches -------------------------------------------------------------


def test_flat_background_hits():
    hits = solve_background(Basis.FLAT_C, Regime.FLAT, N_BOX, D_BOX)
    sigs = {(h.n, h.dim): h for h in hits}
    assert set(sigs) == {(-4, 4), (-4, 6), (-3, 4), (-3, 5)}
    rho_n3 = mono(Basis.FLAT_C, -360, base=-8, alpha=-1)
    assert sigs[(-3, 4)].rho == rho_n3
    assert sigs[(-3, 5)].rho == rho_n3
    assert sigs[(-3, 4)].alpha_sign is AlphaSign.REPULSIVE
    assert sigs[(-3, 4)].x_law == Graded(F(144))
    assert sigs[(-3, 5)].x_law == Graded(F(60))
    # the attractive D=4 companion: rho = 256/(alpha c^6), negative for alpha < 0
    assert sigs[(-4, 4)].rho == mono(Basis.FLAT_C, 256, base=-6, alpha=-1)
    assert sigs[(-4, 4)].alpha_sign is AlphaSign.ATTRACTIVE
    # D=6 rediscovers the homogeneous solution with an empty source
    assert sigs[(-4, 6)].rho.is_zero


def test_flat_background_n2_has_no_integer_dimension():
    hits = solve_background(Basis.FLAT_C, Regime.FLAT, [-2], D_BOX)
    assert hits == []


def test_curved_background_families():
    hits = solve_background(Basis.CURVED_C, Regime.HYPERBOLIC, N_BOX, range(1, 7))
    sigs = {(h.n, h.dim): h for h in hits}
    assert set(sigs) == {(-2, d) for d in range(1, 7)} | {(-1, d) for d in (1, 2, 4, 5, 6)}
    for d in range(1, 7):
        h = sigs[(-2, d)]
        assert h.x_law == Graded(F(-36), 2)
        expected_rho = (
            RadialExpr.zero(Basis.CURVED_C)
            if d == 3
            else mono(Basis.CURVED_C, -12 * (d - 3), base=-2, kappa=2, alpha=-1)
        )
        assert h.rho == expected_rho
    for d in (1, 2, 4, 5, 6):
        h = sigs[(-1, d)]
        assert h.rho == mono(Basis.CURVED_C, -12, base=-4, kappa=2, alpha=-1)
        assert h.x_law == Graded(F(-4 * (d - 3)), 2)
        assert h.alpha_sign is (AlphaSign.REPULSIVE if d < 3 else AlphaSign.ATTRACTIVE)


def test_sech_line_solution():
    hits = solve_background(Basis.CURVED_C, Regime.HYPERBOLIC, [-1], [1])
    (h,) = hits
    assert h.x_law == Graded(F(8), 2)
    assert h.alpha_sign is AlphaSign.REPULSIVE
    assert h.omega == Graded(F(-1), 1)
    # with kappa = -1/R^2: u = sqrt(8/alpha)/(R^2 cosh(r/R)) at R = 1, alpha = 1
    assert math.sqrt(h.amp_sq_value(-1.0, 1.0)) == pytest.approx(math.sqrt(8.0))


def test_spherical_background_only_trivial():
    for family in (Basis.CURVED_C, Basis.CURVED_S):
        assert solve_background(family, Regime.SPHERICAL, N_BOX, range(1, 7)) == []


def test_background_rejects_pure_power_family():
    with pytest.raises(ValueError):
        solve_background(Basis.FLAT_R, Regime.FLAT, [-2], [6])


def test_negative_rho_cap_is_rejected():
    # a cap of -1 would reject every cell, a vanishing source included
    with pytest.raises(ValueError, match="max_rho_terms"):
        solve_background(Basis.CURVED_C, Regime.HYPERBOLIC, range(-2, 0), range(1, 5), max_rho_terms=-1)
    with pytest.raises(ValueError, match="max_rho_terms"):
        evaluate_candidate(AnsatzFamily(Basis.CURVED_C, -1), Regime.HYPERBOLIC, 4, "background", -1)
    # a cap of 0 is a real cap: it keeps the hits whose source vanishes
    assert solve_background(Basis.CURVED_C, Regime.HYPERBOLIC, range(-2, 0), range(1, 5), max_rho_terms=0)


# -- coupling sign and the sign of the source --------------------------------------

RADII = (0.0, 0.5, 1.0, 2.0, 5.0)


def _rho_values(hit):
    sol = solution_from_hit(hit, id=f"{hit.family.value}:n{hit.n}:D{hit.dim}")
    return sol.fields_fn(Space.unit_kappa(hit.regime), hit.default_alpha, "rho")(RADII)[0]


def test_classify_inverse_c_n1():
    hits = solve_background(Basis.CURVED_C, Regime.HYPERBOLIC, [-1], [5])
    assert hits[0].alpha_sign is AlphaSign.ATTRACTIVE
    assert (_rho_values(hits[0]) > 0).all()
    cand = evaluate_candidate(AnsatzFamily(Basis.CURVED_C, -1), Regime.HYPERBOLIC, 3, "background")
    assert cand.status is CandidateStatus.NO_SOLUTION
    hits = solve_background(Basis.CURVED_C, Regime.HYPERBOLIC, [-1], [2])
    assert hits[0].alpha_sign is AlphaSign.REPULSIVE
    assert (_rho_values(hits[0]) < 0).all()


def test_classify_inverse_c_n2():
    for d in (3, 4, 5):
        hits = solve_background(Basis.CURVED_C, Regime.HYPERBOLIC, [-2], [d])
        assert hits[0].alpha_sign is AlphaSign.ATTRACTIVE
        if d == 3:
            assert hits[0].rho.is_zero
        else:
            assert (_rho_values(hits[0]) > 0).all()


# -- structural invariants -----------------------------------------------------------


def _all_default_hits():
    hits = []
    hits += solve_homogeneous(Basis.FLAT_C, Regime.FLAT, N_BOX, D_BOX)
    hits += solve_homogeneous(Basis.CURVED_C, Regime.HYPERBOLIC, N_BOX, D_BOX)
    hits += solve_homogeneous(Basis.CURVED_S, Regime.HYPERBOLIC, N_BOX, D_BOX)
    hits += solve_homogeneous(Basis.CURVED_C, Regime.SPHERICAL, N_BOX, D_BOX)
    hits += solve_homogeneous(Basis.CURVED_S, Regime.SPHERICAL, N_BOX, D_BOX)
    hits += solve_homogeneous(Basis.FLAT_R, Regime.FLAT, range(-8, 0), range(1, 13))
    hits += solve_background(Basis.FLAT_C, Regime.FLAT, N_BOX, D_BOX)
    hits += solve_background(Basis.CURVED_C, Regime.HYPERBOLIC, N_BOX, range(1, 7))
    return hits


def test_resubstitution_is_exact_for_every_hit():
    for hit in _all_default_hits():
        u, v = solution_exprs(hit)
        schro, poisson = resubstitution_defects(u, v, hit.rho, hit.omega, hit.x_law, hit.dim)
        assert schro.is_zero, f"{hit}"
        assert poisson.is_zero, f"{hit}"


def test_sign_soundness():
    for hit in _all_default_hits():
        good = hit.default_alpha
        kappa = {Regime.FLAT: 0.0, Regime.HYPERBOLIC: -1.0, Regime.SPHERICAL: 1.0}[hit.regime]
        assert hit.amp_sq_value(kappa, good) > 0
        with pytest.raises(ValueError):
            hit.amp_sq_value(kappa, -good)


def test_omega_agreement_with_numeric_limit():
    # every hyperbolic hit: omega equals the r -> infinity limit of -Lap(u)/u,
    # computed at r = 30 with Richardson-extrapolated central differences
    hits = [h for h in _all_default_hits() if h.regime is Regime.HYPERBOLIC]
    assert hits
    for hit in hits:
        space = Space(Regime.HYPERBOLIC, -1.0, hit.dim)
        alpha = hit.default_alpha
        amp_sq = hit.amp_sq_value(-1.0, alpha)
        u, _ = solution_exprs(hit)
        table = numeric.compile_table((u,), space, alpha, amp_sq)
        r, h = 30.0, 1e-3
        f = lambda x: float(table(x)[0])
        lap_h = fd_laplacian(f, space, r, h=h)
        lap_2h = fd_laplacian(f, space, r, h=2 * h)
        limit = -(4.0 * lap_h - lap_2h) / 3.0 / f(r)
        assert hit.omega.evaluate(1.0) == pytest.approx(limit, abs=1e-8)


def test_range_guards():
    with pytest.raises(ValueError):
        solve_homogeneous(Basis.FLAT_C, Regime.FLAT, range(-100, 0), [6])
    with pytest.raises(ValueError):
        solve_homogeneous(Basis.FLAT_C, Regime.FLAT, [], [6])
    with pytest.raises(ValueError):
        solve_homogeneous(Basis.FLAT_C, Regime.FLAT, [-4], [0])
    with pytest.raises(ValueError):
        potential_term(AnsatzFamily(Basis.FLAT_C, -4), Regime.HYPERBOLIC, 3)
    with pytest.raises(ValueError):
        potential_term(AnsatzFamily(Basis.CURVED_C, -2), Regime.FLAT, 3)


def test_hit_json_round_trip():
    from ccsp.derivation import DerivationHit

    for hit in _all_default_hits()[:6]:
        obj = hit.to_json_obj()
        back = DerivationHit.from_json_obj(obj)
        assert back == hit


@pytest.mark.parametrize("value", [-576.0, -576, True], ids=["float", "int", "bool"])
def test_rational_fields_must_be_strings(value):
    from ccsp.derivation import DerivationHit

    hits = _all_default_hits()
    homogeneous = hits[0].to_json_obj()
    background = next(h for h in hits if h.mode == "background" and h.rho.terms).to_json_obj()
    for obj, edit in (
        (homogeneous, lambda o: o["x_law"].update(coef=value)),
        (homogeneous, lambda o: o["omega"].update(coef=value)),
        (background, lambda o: o["rho"]["terms"][0].update(coeff=value)),
    ):
        bad = json.loads(json.dumps(obj))
        edit(bad)
        with pytest.raises(TypeError, match="as a string"):
            DerivationHit.from_json_obj(bad)


def test_amplitude_free_hit_json_round_trip():
    # SPH_TRIVIAL has no amplitude law: x_law is null and either sign works
    from ccsp.catalog import get_solution
    from ccsp.derivation import DerivationHit

    sol = get_solution("SPH_TRIVIAL")
    obj = DerivationHit.to_json_obj(sol)
    assert obj["x_law"] is None and obj["alpha_sign"] == "any"
    assert json.loads(json.dumps(obj)) == obj
    hit = DerivationHit(**{name: getattr(sol, name) for name in DerivationHit._fields})
    assert DerivationHit.from_json_obj(obj) == hit
    # the amplitude-free source is negative for either coupling sign
    for alpha in (1.0, -1.0):
        assert (sol.fields_fn(1.0, alpha, "rho")((0.0, 0.5, 1.5))[0] < 0).all()


# -- the search against the direct-Laplacian oracle ---------------------------

COMBOS = [
    (Basis.FLAT_C, Regime.FLAT, "homogeneous"),
    (Basis.FLAT_C, Regime.FLAT, "background"),
    (Basis.FLAT_R, Regime.FLAT, "homogeneous"),
    *(
        (family, regime, mode)
        for family in (Basis.CURVED_C, Basis.CURVED_S)
        for regime in (Regime.HYPERBOLIC, Regime.SPHERICAL)
        for mode in ("homogeneous", "background")
    ),
]


def _direct_potential(fam, dim):
    shape = RadialExpr.monomial(fam.family, 1, base=fam.n)
    return shape.laplacian(dim).div_monomial(shape)


_DIRECT_GEOMETRY = {}


def _direct_geometry(fam, dim):
    if (fam, dim) not in _DIRECT_GEOMETRY:
        _DIRECT_GEOMETRY[fam, dim] = _direct_potential(fam, dim).laplacian(dim)
    return _DIRECT_GEOMETRY[fam, dim]


def _solve(family, regime, mode, ns, ds, max_rho_terms):
    if mode == "homogeneous":
        return solve_homogeneous(family, regime, ns, ds)
    return solve_background(family, regime, ns, ds, max_rho_terms)


def test_parts_equal_the_direct_laplacian():
    for family in Basis:
        for n in range(-8, 9):
            fam = AnsatzFamily(family, n)
            regime = Regime.FLAT if family.is_flat else Regime.HYPERBOLIC
            for d in range(1, 13):
                assert derivation._geometry_part(fam, d) == _direct_geometry(fam, d), (fam, d)
                assert potential_term(fam, regime, d) == _direct_potential(fam, d), (fam, d)


@pytest.mark.parametrize("family, regime, mode", COMBOS, ids=lambda x: getattr(x, "value", x))
def test_search_equals_brute_force_oracle(family, regime, mode, monkeypatch):
    ns, ds = range(-12, 13), range(1, 17)
    rho_caps = (0, 1, 2) if mode == "background" else (1,)
    fast = {cap: _solve(family, regime, mode, ns, ds, cap) for cap in rho_caps}
    monkeypatch.setattr(derivation, "_geometry_part", _direct_geometry)
    monkeypatch.setattr(
        derivation, "potential_term", lambda fam, regime, dim: _direct_potential(fam, dim)
    )
    for cap in rho_caps:
        brute = []
        for n in ns:
            for d in ds:
                cand = evaluate_candidate(AnsatzFamily(family, n), regime, d, mode, cap)
                if cand.status is CandidateStatus.HIT:
                    brute.append(cand.hit)
        assert fast[cap] == sorted(brute, key=lambda h: h.sort_key()), (mode, cap)


def test_candidate_exponents_cover_the_support():
    expected = {
        Basis.FLAT_C: {-4, -3, -2},
        Basis.FLAT_R: {-2},
        Basis.CURVED_C: {-2, -1},
        Basis.CURVED_S: {-2, -1},
    }
    for family in Basis:
        support = {
            t.base
            for n in range(-64, 64)
            for part in derivation._geometry_parts(AnsatzFamily(family, n))
            for t in part.terms
            if t.odd == 0
        }
        # only even powers: no half-integer n can put base^(2n) on G's support
        assert all(p % 2 == 0 for p in support), (family, sorted(support))
        from_support = {p // 2 for p in support}
        assert derivation._candidate_exponents(family) == from_support == expected[family]


def test_geometry_has_one_grade_per_power():
    # G has dimension length^-4 and no amplitude: (-kappa) has dimension
    # length^-2 and S length, so the S power fixes the curvature grade, and
    # one X always suffices at the u^2 power
    s_power = {Basis.CURVED_C: lambda base, odd: odd, Basis.CURVED_S: lambda base, odd: base}
    for family in Basis:
        for n in range(-64, 65):
            grades = {}
            for part in derivation._geometry_parts(AnsatzFamily(family, n)):
                for t in part.terms:
                    grades.setdefault((t.base, t.odd), set()).add((t.kappa, t.alpha, t.amp))
            for (base, odd), found in grades.items():
                assert len(found) == 1, (family, n, base, odd, found)
                ((kappa, alpha, amp),) = found
                assert (alpha, amp) == (0, 0)
                s = 0 if family.is_flat else s_power[family](base, odd) + 4
                assert 2 * kappa == s, (family, n, base, odd)


# -- every dimension classified at once ----------------------------------------

BIG = 10**20


@pytest.mark.parametrize(
    "coeffs, roots",
    [
        ((120, -64, 8), {3, 5}),                      # 8(m - 3)(m - 5)
        ((1, -3, 2), {1}),                            # roots 1 and 1/2
        ((F(4, 3), F(-13, 3), 1), {4}),               # roots 4 and 1/3: discriminant 121/9
        ((-2, 0, 1), set()),                          # discriminant 8 is not a square
        ((36, -24, 4), {3}),                          # double root 4(m - 3)^2
        ((2, 3, 1), set()),                           # roots -1 and -2
        ((0, 1, 1), {0}),                             # roots 0 and -1
        ((-640, 128, 0), {5}),                        # linear
        ((-208, 48, 0), set()),                       # linear, root 13/3
        ((7, 0, 0), set()),                           # nonzero constant
        ((0, 0, 0), set()),                           # the zero polynomial
        ((1, 0, 1), set()),                           # discriminant -4: no real root
        (((BIG + 1) * (BIG + 3), -2 * BIG - 4, 1), {BIG + 1, BIG + 3}),
        ((-(BIG**2) - 1, 0, 1), set()),               # a float sqrt would give 1e20
        ((-3 * (BIG + 1), 3, 0), {BIG + 1}),
        ((BIG + 1, -2, 0), set()),                    # root (1e20 + 1)/2
    ],
)
def test_nonnegative_integer_roots_are_exact(coeffs, roots):
    assert derivation._nonnegative_integer_roots(*coeffs) == roots


def test_classification_of_the_flat_rows():
    flat_csv = derivation._classification(AnsatzFamily(Basis.FLAT_C, -4), Regime.FLAT, "homogeneous", 1)
    assert flat_csv == (frozenset({3, 5}), CandidateStatus.LEFTOVER_TERMS)
    # the inverse-square row hits at every D except D = 4, where X = 0
    inverse_square = derivation._classification(AnsatzFamily(Basis.FLAT_R, -2), Regime.FLAT, "homogeneous", 1)
    assert inverse_square == (frozenset({3}), CandidateStatus.HIT)


def test_search_evaluates_only_exceptional_cells(monkeypatch):
    cells = []

    def counted(fam, regime, dim, mode, max_rho_terms):
        cells.append((fam.n, dim))
        return evaluate_candidate(fam, regime, dim, mode, max_rho_terms)

    monkeypatch.setattr(derivation, "evaluate_candidate", counted)
    hits = solve_homogeneous(Basis.FLAT_C, Regime.FLAT, range(-8, 0), range(1, 65))
    assert sorted(cells) == [(-4, 4), (-4, 6), (-3, 4), (-3, 5), (-2, 4)]
    assert [(h.n, h.dim) for h in hits] == [(-4, 6)]


def test_classification_probes_past_an_exceptional_zero(monkeypatch):
    # no real row has 0 in E; forcing it only adds exceptional cells, so the
    # probe moves to the first D - 1 outside E and the search is unchanged
    roots = derivation._nonnegative_integer_roots
    monkeypatch.setattr(derivation, "_nonnegative_integer_roots", lambda *c: roots(*c) | {0})
    probes = []
    evaluate = derivation._evaluate

    def probed(fam, regime, dim, mode, max_rho_terms):
        probes.append(dim)
        return evaluate(fam, regime, dim, mode, max_rho_terms)

    fam = AnsatzFamily(Basis.FLAT_C, -4)
    derivation._classification.cache_clear()
    try:
        monkeypatch.setattr(derivation, "_evaluate", probed)
        got = derivation._classification(fam, Regime.FLAT, "homogeneous", 1)
        assert got == (frozenset({0, 3, 5}), CandidateStatus.LEFTOVER_TERMS)
        assert probes == [2]
        monkeypatch.setattr(derivation, "_evaluate", evaluate)
        ds = range(1, 65)
        brute = [c.hit for d in ds if (c := evaluate_candidate(fam, Regime.FLAT, d)).status is CandidateStatus.HIT]
        assert solve_homogeneous(Basis.FLAT_C, Regime.FLAT, [-4], ds) == brute
    finally:
        monkeypatch.undo()
        derivation._classification.cache_clear()


@pytest.mark.parametrize("family, regime, mode", COMBOS, ids=lambda x: getattr(x, "value", x))
def test_classification_equals_brute_force_far_out(family, regime, mode):
    ns = sorted(derivation._candidate_exponents(family))
    for ds in (range(1, 65), range(1001, 1065)):
        for cap in (0, 1, 2):
            brute = []
            for n in ns:
                for d in ds:
                    cand = evaluate_candidate(AnsatzFamily(family, n), regime, d, mode, cap)
                    if cand.status is CandidateStatus.HIT:
                        brute.append(cand.hit)
            got = derivation._search(family, regime, ns, ds, mode, cap)
            assert got == sorted(brute, key=lambda h: h.sort_key()), (ds, cap)


def test_universe_hits_equal_the_reference():
    ref = json.loads(REFERENCE.read_text())
    (n_lo, n_hi), (d_lo, d_hi) = ref["universe"]["n"], ref["universe"]["dim"]
    total = 0
    for family, regime, mode in COMBOS:
        hits = []
        for lo in range(n_lo, n_hi + 1, 64):  # windows of at most 64 exponents
            hits += _solve(family, regime, mode, range(lo, min(lo + 64, n_hi + 1)),
                            range(d_lo, d_hi + 1), 1)
        got = [
            {
                "n": h.n,
                "dim": h.dim,
                "x": [str(h.x_law.coef), h.x_law.kappa],
                "omega": [str(h.omega.coef), h.omega.kappa],
                "alpha_rho": sorted(
                    [str(t.coeff), t.base, t.kappa] for t in h.rho.terms if t.alpha == -1
                ),
            }
            for h in hits
        ]
        want = [
            {k: h[k] for k in ("n", "dim", "x", "omega", "alpha_rho")}
            for h in ref["hits"][f"{family.value}:{regime.value}:{mode}"]
        ]
        key = lambda h: (h["n"], h["dim"])
        assert sorted(got, key=key) == sorted(want, key=key), (family, regime, mode)
        total += len(got)
    assert total == 201


# -- masses from the exponents ------------------------------------------------


def test_exact_mass_equals_the_reference():
    ref = json.loads(REFERENCE.read_text())
    finite = 0
    for family, regime, mode in COMBOS:
        for want in ref["hits"][f"{family.value}:{regime.value}:{mode}"]:
            hit = evaluate_candidate(AnsatzFamily(family, want["n"]), regime, want["dim"], mode).hit
            assert [str(hit.x_law.coef), hit.x_law.kappa] == want["x"]
            got, ref_mass = exact_mass(hit), want["mass"]
            assert (got is None) == bool(ref_mass["divergent_ends"]), (family, regime, want["n"], want["dim"])
            if got is not None:
                assert got.kappa_pow2 == ref_mass["lam_pow"]
                assert got.alpha_pow == -ref_mass["alpha_pow"]
                assert got.value(-1.0, 1.0) == pytest.approx(ref_mass["mass1"], rel=1e-12)
                finite += 1
    assert finite == 13


def test_exact_mass_agrees_with_quadrature():
    # the numeric divergence detector and Beta values on every small hit
    hits = [h for combo in COMBOS for h in _solve(*combo, range(-16, 0), range(1, 17), 1)]
    assert len(hits) == 57
    finite = 0
    for hit in hits:
        sol = solution_from_hit(hit, id=f"{hit.family.value}:n{hit.n}:D{hit.dim}")
        kappa = {Regime.FLAT: 0.0, Regime.HYPERBOLIC: -1.0, Regime.SPHERICAL: 1.0}[hit.regime]
        alpha = hit.default_alpha
        got = numeric.mass(sol, kappa, alpha)
        assert isinstance(got, numeric.Divergent) == (sol.mass is None), sol.id
        if sol.mass is not None:
            assert got == pytest.approx(sol.expected_mass_value(kappa, alpha), rel=1e-8), sol.id
            finite += 1
    assert finite == 13
