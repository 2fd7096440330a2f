import json
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import fd_laplacian
from ccsp.geometry import Regime, Space
from ccsp.bases import SPECS
from ccsp.numeric import _DEFINITION_FNS, compile_table, metric
from ccsp.symbolic import Basis, ClosureError, Graded, Monomial, RadialExpr

FLAT = Space(Regime.FLAT, 0.0, 6)
HYP = Space(Regime.HYPERBOLIC, -1.0, 3)
SPH = Space(Regime.SPHERICAL, 1.0, 4)


def mono(basis, coeff, **kw):
    return RadialExpr.monomial(basis, coeff, **kw)


# -- add ------------------------------------------------------------------


def test_add_cancellation():
    a = mono(Basis.FLAT_C, 3, base=-4)
    b = mono(Basis.FLAT_C, -3, base=-4)
    assert (a + b).is_zero


def test_add_distinct_terms():
    e = mono(Basis.FLAT_C, 1, base=-2) + mono(Basis.FLAT_C, 1, base=-4)
    assert len(e.terms) == 2


def test_add_amplitude_cancellation():
    # 24 n(n-2) c^-8 for n = -4 is 576 c^-8; the coupling-graded amplitude
    # term cancels it once X = alpha A^2 = -576 is substituted
    geom = mono(Basis.FLAT_C, 576, base=-8)
    x_term = mono(Basis.FLAT_C, 1, base=-8, alpha=1, amp=2)
    e = (geom + x_term).substitute_amp_sq(Graded(F(-576)))
    assert e.is_zero


def test_add_mode_mismatch():
    with pytest.raises(ValueError):
        mono(Basis.FLAT_C, 1) + mono(Basis.CURVED_C, 1)


# -- mul ------------------------------------------------------------------


def test_mul_amplitude_square():
    u = mono(Basis.FLAT_C, 1, base=-4, amp=1)
    u2 = u * u
    assert u2 == mono(Basis.FLAT_C, 1, base=-8, amp=2)


def test_mul_odd_reduction_flat():
    # hand reduction via r^2 = c^2 - 1
    m = mono(Basis.FLAT_C, 1, base=-2, odd=1)
    assert m * m == mono(Basis.FLAT_C, 1, base=-2) + mono(Basis.FLAT_C, -1, base=-4)


def test_mul_odd_reduction_curved():
    # hand reduction via (-kappa) S^2 = C^2 - 1
    m = mono(Basis.CURVED_C, 1, base=-2, odd=1)
    expected = mono(Basis.CURVED_C, 1, base=-2, kappa=-1) + mono(Basis.CURVED_C, -1, base=-4, kappa=-1)
    assert m * m == expected


# -- laplacian -------------------------------------------------------------


@pytest.mark.parametrize("n,dim", [(-4, 6), (-2, 3), (-3, 5), (2, 4), (-6, 9)])
def test_laplacian_flat_power_rule(n, dim):
    # Delta c^n = n(D+n-2) c^(n-2) - n(n-2) c^(n-4)
    got = mono(Basis.FLAT_C, 1, base=n).laplacian(dim)
    expected = mono(Basis.FLAT_C, n * (dim + n - 2), base=n - 2) + mono(
        Basis.FLAT_C, -n * (n - 2), base=n - 4
    )
    assert got == expected


def test_laplacian_flat_csv_case():
    # n = -4, D = 6: the c^-6 coefficient n(D+n-2) vanishes
    got = mono(Basis.FLAT_C, 1, base=-4).laplacian(6)
    assert got == mono(Basis.FLAT_C, -24, base=-8)


@pytest.mark.parametrize("n,dim", [(-2, 3), (-1, 4), (-3, 6), (2, 5)])
def test_laplacian_curved_c_rule(n, dim):
    # Delta C^n / C^n = (-kappa) n(D+n-1) - (-kappa) n(n-1) / C^2
    shape = mono(Basis.CURVED_C, 1, base=n)
    got = shape.laplacian(dim).div_monomial(shape)
    expected = mono(Basis.CURVED_C, n * (dim + n - 1), kappa=1) + mono(
        Basis.CURVED_C, -n * (n - 1), base=-2, kappa=1
    )
    assert got == expected


def test_laplacian_pure_power_fd_oracle():
    # oracle first: the finite-difference Laplacian of r^-2 in D = 6
    space = Space(Regime.FLAT, 0.0, 6)
    f = lambda r: r**-2.0
    for r in (0.7, 1.3, 2.9):
        oracle = fd_laplacian(f, space, r)
        assert oracle == pytest.approx(-4.0 * r**-4.0, rel=1e-6)
    got = mono(Basis.FLAT_R, 1, base=-2).laplacian(6)
    # m(m+D-2) = -4; matches the oracle (not -8)
    assert got == mono(Basis.FLAT_R, -4, base=-4)


def test_laplacian_closure_error_on_odd_flat():
    odd = mono(Basis.FLAT_C, 1, base=-2, odd=1)
    with pytest.raises(ValueError):
        odd.laplacian(6)


def test_laplacian_dimension_one_has_no_first_order_term():
    got = mono(Basis.CURVED_C, 1, base=-1).laplacian(1)
    expected = mono(Basis.CURVED_C, 1, base=-1, kappa=1) + mono(Basis.CURVED_C, -2, base=-3, kappa=1)
    assert got == expected


# -- div -------------------------------------------------------------------


def test_div_exact_examples():
    num = mono(Basis.FLAT_C, -24, base=-8)
    den = mono(Basis.FLAT_C, 1, base=-4)
    assert num.div_monomial(den) == mono(Basis.FLAT_C, -24, base=-4)

    e = mono(Basis.CURVED_C, 7, base=-3, kappa=2)
    assert e.div_monomial(e) == mono(Basis.CURVED_C, 1)

    n = -2
    num = mono(Basis.CURVED_C, 6 * n * (n - 1), base=n - 4, kappa=2)
    den = mono(Basis.CURVED_C, 1, base=n)
    assert num.div_monomial(den) == mono(Basis.CURVED_C, 6 * n * (n - 1), base=-4, kappa=2)


def test_div_rejects_polynomials():
    den = mono(Basis.FLAT_C, 1, base=-2) + mono(Basis.FLAT_C, 1, base=-4)
    with pytest.raises(ValueError):
        mono(Basis.FLAT_C, 1).div_monomial(den)


# -- collect ---------------------------------------------------------------


@pytest.mark.parametrize("n,dim", [(-4, 6), (-3, 4), (-2, 7), (-5, 9)])
def test_collect_cleared_flat_consistency_polynomial(n, dim):
    # clearing denominators of the flat residual must give exactly
    # 24n(n-2) + 4n(Dn-8n-4D+16) c^2 - 2n(D-4)(D+n-2) c^4 + X c^(2n+8)
    from ccsp.derivation import AnsatzFamily, CandidateStatus, _geometry_part, evaluate_candidate

    fam = AnsatzFamily(Basis.FLAT_C, n)
    cleared = _geometry_part(fam, dim) * mono(Basis.FLAT_C, 1, base=8)
    got = {(t.key[0], t.key[3], t.key[4]): t.coeff for t in cleared.terms}
    expect = {
        0: F(24 * n * (n - 2)),
        2: F(4 * n * (dim * n - 8 * n - 4 * dim + 16)),
        4: F(-2 * n * (dim - 4) * (dim + n - 2)),
    }
    for power, value in expect.items():
        if value == 0:
            assert (power, 0, 0) not in got
        else:
            assert got[(power, 0, 0)] == value
    assert len(got) == sum(1 for v in expect.values() if v != 0)
    # the amplitude term X c^(2n+8) cancels the geometric term at its power,
    # and what is left is -alpha rho: a hit wherever that term is there
    cand = evaluate_candidate(fam, Regime.FLAT, dim, "background", max_rho_terms=3)
    x_term = got.get((2 * n + 8, 0, 0))
    assert (cand.status is CandidateStatus.HIT) == (x_term is not None)
    if x_term is not None:
        assert cand.hit.x_law == Graded(-x_term)
        rho = cand.hit.rho * mono(Basis.FLAT_C, 1, base=8)
        assert {(t.key[0], t.key[3]): t.coeff for t in rho.terms} == {
            (p, -1): -v for p, v in expect.items() if v != 0 and p != 2 * n + 8
        }


def test_collect_zero():
    assert RadialExpr.zero(Basis.FLAT_C).terms == ()


@pytest.mark.parametrize("n,dim", [(-2, 3), (-1, 4), (-3, 6)])
def test_collect_s_profile_condition(n, dim):
    # cleared inverse-S condition: X S^(2n+4) - 2 n(D+n-2)(D-4) S^0
    #                              - 2 (-kappa) n(D+n-2)(D-3) S^2 = 0.
    # The rational coefficients match the classical form; the curvature
    # grades (0 on S^0, 1 on S^2) follow from the metric normalization of S
    # and are what the finite-difference oracle reproduces.
    from ccsp.derivation import AnsatzFamily, _geometry_part, evaluate_candidate

    fam = AnsatzFamily(Basis.CURVED_S, n)
    cleared = _geometry_part(fam, dim) * mono(Basis.CURVED_S, 1, base=4)
    got = {(t.key[0], t.key[2], t.key[3], t.key[4]): t.coeff for t in cleared.terms}
    c0 = F(-2 * n * (dim + n - 2) * (dim - 4))
    c2 = F(-2 * n * (dim + n - 2) * (dim - 3))
    if c0:
        assert got[(0, 0, 0, 0)] == c0
    if c2:
        assert got[(2, 1, 0, 0)] == c2
    assert len(got) == (c0 != 0) + (c2 != 0)
    # the amplitude term X S^(2n+4) empties the residual exactly when the
    # geometric part is one term at that power: then X is minus that term
    hit = evaluate_candidate(fam, Regime.HYPERBOLIC, dim, "homogeneous").hit
    (power, kappa, _, _), coef = next(iter(got.items()))
    assert (hit is not None) == (len(got) == 1 and power == 2 * n + 4)
    if hit is not None:
        assert hit.x_law == Graded(-coef, kappa)


# -- eval -------------------------------------------------------------------


def test_eval_simple():
    e = mono(Basis.FLAT_C, 24, base=-4)
    assert float(compile_table((e,), FLAT, 1.0, 1.0)(1.0)[0]) == pytest.approx(6.0, rel=1e-12)


def test_eval_amplitude_profile_at_center():
    # inverse-C-squared profile with A^2 = 36 (-kappa)^2/(-alpha)
    u = mono(Basis.CURVED_C, 1, base=-2, amp=1)
    amp_sq = 36.0 * 1.0**2 / 1.0  # kappa = -1, alpha = -1
    assert float(compile_table((u,), Space(Regime.HYPERBOLIC, -1.0, 3), -1.0, amp_sq)(0.0)[0]) == pytest.approx(6.0)


def test_eval_inverse_s_on_equator():
    u = mono(Basis.CURVED_S, 1, base=-1, amp=1)
    # S(pi/2) = 1 at kappa = 1; amplitude sqrt(2)
    got = float(compile_table((u,), SPH, 1.0, 2.0)(math.pi / 2)[0])
    assert got == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_eval_pole_is_inf():
    e = mono(Basis.FLAT_R, 1, base=-2)
    assert float(compile_table((e,), Space(Regime.FLAT, 0.0, 3), 1.0, 1.0)(0.0)[0]) == math.inf


@pytest.mark.parametrize(
    "refused, match",
    [
        (lambda: compile_table((mono(Basis.FLAT_C, 1, base=-2),), FLAT, 1.0, -1.0),
         "amplitude squared must be nonnegative"),
        (lambda: compile_table((mono(Basis.FLAT_C, 1, kappa=1),), FLAT, 1.0, 1.0),
         "flat evaluation of a curvature-graded term"),
        (lambda: compile_table((mono(Basis.FLAT_C, 1, alpha=-1),), FLAT, 0.0, 1.0),
         "alpha == 0 with a coupling-graded term"),
        (lambda: compile_table((mono(Basis.FLAT_C, 1, amp=-2),), FLAT, 1.0, 0.0),
         "zero amplitude with negative amplitude grade"),
        (lambda: RadialExpr.from_terms(Basis.FLAT_C, [Monomial(F(1), 0, 2, 0, 0, 0)]),
         "odd power must be 0 or 1"),
        (lambda: RadialExpr.from_terms(Basis.FLAT_R, [Monomial(F(1), 0, 1, 0, 0, 0)]),
         "flat-r basis has no odd factor"),
        (lambda: mono(Basis.CURVED_C, 1, base=-1).laplacian(0), "dimension must be >= 1"),
        (lambda: mono(Basis.CURVED_C, 1).div_monomial(mono(Basis.CURVED_C, 1, odd=1)),
         "negative odd power"),
        (lambda: mono(Basis.FLAT_C, 1, amp=1).substitute_amp_sq(Graded(-576)),
         "odd amplitude grade"),
    ],
    ids=["negative-amp-sq", "flat-kappa", "alpha-zero", "zero-amp", "odd-squared",
         "flat-r-odd", "laplacian-0", "div-negative-odd", "odd-amp-substitution"],
)
def test_refusals(refused, match):
    with pytest.raises(ValueError, match=match):
        refused()


def _reference_compile(expr, space, alpha, amp_sq):
    # the evaluator as first written (zeros start, one full_like per term):
    # the oracle that compile_table must match bit for bit
    spec, m = SPECS[expr.basis], metric(space)
    base_fn, odd_fn = _DEFINITION_FNS[spec.base](m), spec.odd and _DEFINITION_FNS[spec.odd](m)
    nk, amp = -space.kappa, math.sqrt(amp_sq)
    pre = []
    for t in expr.terms:
        scale = float(t.coeff)
        if t.kappa:
            scale *= nk**t.kappa
        if t.alpha:
            scale *= alpha**t.alpha
        if t.amp:
            scale *= amp**t.amp
        pre.append((scale, t.base, t.odd))

    def fn(r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            total = np.zeros_like(r)
            if pre:
                b = base_fn(r)
                o = odd_fn(r) if odd_fn else None
                for scale, bp, op in pre:
                    term = np.full_like(r, scale)
                    if bp:
                        term = term * b ** float(bp)
                    if op:
                        term = term * o
                    total = total + term
        return total

    return fn


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_compile_matches_reference_evaluator():
    from ccsp.catalog import CATALOG
    from ccsp.numeric import default_grid

    unit = {Regime.FLAT: 0.0, Regime.HYPERBOLIC: -1.0, Regime.SPHERICAL: 1.0}
    for sol in CATALOG:
        kappa, alpha = unit[sol.regime], sol.default_alpha
        space, amp_sq = sol.space(kappa), sol.amp_sq_value(kappa, alpha)
        # the grid, plus the centre and the poles, where values are inf or nan
        edges = [0.0, *sol.singular_radii_values(kappa)]
        radii = np.concatenate([default_grid(sol, kappa), edges])
        for expr in (sol.u, sol.V, sol.rho):
            table, ref = compile_table((expr,), space, alpha, amp_sq), _reference_compile(expr, space, alpha, amp_sq)
            _assert_same_bits(table(radii)[0], ref(radii))
            for r in (0.0, 0.5, radii[-1]):
                _assert_same_bits(table(r)[0], ref(r))
    # no terms, and single terms that are -0.0 at r = 0 (the sum must give +0.0)
    for expr, space in [
        (RadialExpr.zero(Basis.CURVED_C), HYP),
        (mono(Basis.CURVED_C, -3, odd=1), HYP),
        (mono(Basis.FLAT_R, -2, base=1), FLAT),
    ]:
        for r in (0.0, 0.7, np.linspace(0.0, 2.0, 5)):
            _assert_same_bits(compile_table((expr,), space, 1.0, 1.0)(r)[0], _reference_compile(expr, space, 1.0, 1.0)(r))


# -- graded constants ---------------------------------------------------------


def test_graded_sign_flips_odd_grades_on_the_sphere():
    for regime in Regime:
        assert Graded(F(3)).sign(regime) == 1
        assert Graded(F(-3), 2).sign(regime) == -1
    assert Graded(F(2), 1).sign(Regime.HYPERBOLIC) == 1
    assert Graded(F(2), 1).sign(Regime.SPHERICAL) == -1
    assert Graded(F(-2), 3).sign(Regime.SPHERICAL) == 1


def test_graded_normal_form():
    # the coefficient is a Fraction, and zero carries no power of kappa,
    # however the value is built
    assert Graded(1, 2).coef == 1 and type(Graded(1, 2).coef) is F
    assert Graded("1/2") == Graded(F(1, 2), 0)
    assert Graded(0, 3) == Graded(F(0)) and Graded(0, 3).kappa == 0
    assert Graded(F(1), 2)._replace(coef=0).kappa == 0
    assert str(Graded(F(-3, 2), 2)) == "-3/2*(-kappa)^2"


def test_str_prints_the_amplitude_and_the_odd_factor():
    assert str(mono(Basis.CURVED_C, 2, base=-2, odd=1, amp=1)) == "(2)*A*S*C^-2"
    assert str(mono(Basis.FLAT_C, 1, base=-4, odd=1, amp=2)) == "(1)*A^2*r*c^-4"


def test_compile_is_a_removed_name():
    # compile_table is the one evaluator; the name stays for perfbench's tracer
    with pytest.raises(NotImplementedError, match="compile_table"):
        getattr(mono(Basis.FLAT_C, 24, base=-4), "compile")(FLAT, 1.0, 1.0)


# -- ring axioms and normal form ---------------------------------------------


def _random_expr(rng, basis, n_terms=3, with_odd=True):
    terms = []
    for _ in range(rng.randint(1, n_terms)):
        terms.append(
            Monomial(
                F(rng.randint(-9, 9) or 1, rng.randint(1, 5)),
                rng.randint(-5, 3),
                rng.randint(0, 1) if (basis.has_odd and with_odd) else 0,
                rng.randint(-1, 2) if not basis.is_flat else 0,
                rng.randint(-1, 1),
                2 * rng.randint(0, 1),
            )
        )
    return RadialExpr.from_terms(basis, terms)


@pytest.mark.parametrize("basis", list(Basis))
def test_ring_axioms(basis):
    rng = random.Random(20240801)
    for _ in range(40):
        a = _random_expr(rng, basis)
        b = _random_expr(rng, basis)
        c = _random_expr(rng, basis)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("basis", list(Basis))
def test_normal_form_unique_under_shuffling(basis):
    rng = random.Random(7)
    for _ in range(25):
        e = _random_expr(rng, basis, n_terms=5)
        terms = list(e.terms)
        rng.shuffle(terms)
        assert RadialExpr.from_terms(basis, terms) == e


def test_laplacian_linearity():
    rng = random.Random(99)
    for basis in (Basis.FLAT_C, Basis.CURVED_C, Basis.CURVED_S, Basis.FLAT_R):
        for _ in range(15):
            with_odd = basis in (Basis.CURVED_S,)
            a = _random_expr(rng, basis, with_odd=with_odd)
            b = _random_expr(rng, basis, with_odd=with_odd)
            q = F(rng.randint(-5, 5) or 2)
            lhs = (a * q + b).laplacian(5)
            rhs = a.laplacian(5) * q + b.laplacian(5)
            assert lhs == rhs


def test_flat_even_closure():
    # even flat input of fixed parity -> no odd terms in the image
    rng = random.Random(3)
    for _ in range(25):
        e = _random_expr(rng, Basis.FLAT_C, with_odd=False)
        img = e.laplacian(6)
        assert all(t.odd == 0 for t in img.terms)


# -- oracle equivalence -------------------------------------------------------


def _spaces_for(basis):
    if basis.is_flat:
        return [Space(Regime.FLAT, 0.0, 3), Space(Regime.FLAT, 0.0, 6)]
    return [Space(Regime.HYPERBOLIC, -1.0, 3), Space(Regime.HYPERBOLIC, -2.25, 4), Space(Regime.SPHERICAL, 1.0, 4)]


def test_laplacian_matches_fd_oracle():
    # 50 random monomials x 20 radii, 1e-5 relative, h = 1e-4
    rng = random.Random(20240515)
    checked = 0
    for i in range(50):
        basis = list(Basis)[i % 4]
        odd = rng.randint(0, 1) if basis is Basis.CURVED_S else 0
        m = RadialExpr.from_terms(
            basis,
            [
                Monomial(
                    F(rng.randint(1, 7), rng.randint(1, 3)) * (1 if rng.random() < 0.5 else -1),
                    rng.randint(-5, 2),
                    odd,
                    rng.randint(-1, 2) if not basis.is_flat else 0,
                    0,
                    0,
                )
            ],
        )
        for space in _spaces_for(basis):
            sym = compile_table((m.laplacian(space.dim),), space, 1.0, 1.0)
            num = compile_table((m,), space, 1.0, 1.0)
            r_hi = min(3.0, space.r_max * 0.45 if math.isfinite(space.r_max) else 3.0)
            for k in range(20):
                r = 0.5 + (r_hi - 0.5) * k / 19.0
                oracle = fd_laplacian(lambda x: float(num(x)[0]), space, r, h=1e-4)
                value = float(sym(r)[0])
                # noise floor scales with the function magnitude (FD roundoff)
                floor = 1e-5 * max(1.0, abs(float(num(r)[0])))
                assert abs(value - oracle) <= max(1e-5 * abs(oracle), floor)
                checked += 1
    assert checked >= 50 * 20


@pytest.mark.parametrize("basis", list(Basis))
def test_diff_and_div_T_match_fd_oracle(basis):
    # d/dr against a central difference of the compiled monomial, and 1/T
    # against value * metric.inv_T; 1/T of an even flat-c or curved-c term
    # would need 1/r resp. 1/S and must be refused
    spaces = [Space(Regime.FLAT, 0.0, 3)] if basis.is_flat else [
        Space(Regime.HYPERBOLIC, -2.25, 3), Space(Regime.SPHERICAL, 2.0, 4)
    ]
    h = 1e-5
    checked = 0
    for space in spaces:
        r_lo, r_hi = (0.1, 0.45) if math.isfinite(space.r_max) else (0.2, 2.5)
        if math.isfinite(space.r_max):  # stay inside the C > 0 hemisphere
            r_lo, r_hi = r_lo * space.r_max, r_hi * space.r_max
        radii = np.linspace(r_lo, r_hi, 7)
        inv_t = metric(space).inv_T(radii)
        for odd in (0, 1) if basis.has_odd else (0,):
            for base in range(-5, 4):
                m = mono(basis, F(-3, 2), base=base, odd=odd, kappa=0 if basis.is_flat else 1)
                f = compile_table((m,), space, 1.0, 1.0)
                df = compile_table((m.diff(),), space, 1.0, 1.0)
                oracle = (f(radii + h)[0] - f(radii - h)[0]) / (2.0 * h)
                scale = np.maximum(np.maximum(abs(oracle), abs(f(radii)[0])), 1.0)
                assert np.all(abs(df(radii)[0] - oracle) <= 1e-7 * scale), (space, odd, base)
                if odd == 0 and basis in (Basis.FLAT_C, Basis.CURVED_C):
                    with pytest.raises(ClosureError):
                        m.div_T()
                else:
                    got = compile_table((m.div_T(),), space, 1.0, 1.0)(radii)[0]
                    assert np.allclose(got, f(radii)[0] * inv_t, rtol=1e-12, atol=0.0)
                checked += 1
    assert checked == len(spaces) * 9 * (2 if basis.has_odd else 1)


def _mp_monomial(basis, space, m, r):
    # m at r from its powers alone, in mpmath: B and O from S, C and the
    # flat c = sqrt(1 + r^2)
    import mpmath as mp

    lam = mp.sqrt(abs(mp.mpf(space.kappa)))
    if space.regime is Regime.FLAT:
        s, c = r, mp.mpf(1)
    elif space.regime is Regime.HYPERBOLIC:
        s, c = mp.sinh(lam * r) / lam, mp.cosh(lam * r)
    else:
        s, c = mp.sin(lam * r) / lam, mp.cos(lam * r)
    base, odd = {
        Basis.FLAT_C: (mp.sqrt(1 + r * r), r),
        Basis.FLAT_R: (s, c),
        Basis.CURVED_C: (c, s),
        Basis.CURVED_S: (s, c),
    }[basis]
    neg_kappa = -mp.mpf(space.kappa)
    return mp.mpf(m.coeff.numerator) / m.coeff.denominator * base**m.base * odd**m.odd * neg_kappa**m.kappa


@pytest.mark.parametrize("basis", list(Basis))
def test_diff_matches_mpmath(basis):
    # the compiled first and second derivatives of random monomials against
    # mpmath.diff at 30 digits, to 1e-12 of max(|value|, |f|, 1); on the
    # sphere the radii stay inside C > 0
    import mpmath as mp

    rng = random.Random(2026 + list(Basis).index(basis))
    spaces = [Space(Regime.FLAT, 0.0, 3)] if basis.is_flat else [
        Space(Regime.HYPERBOLIC, -1.0, 3), Space(Regime.HYPERBOLIC, -2.25, 4), Space(Regime.SPHERICAL, 2.0, 4)
    ]
    checked = 0
    with mp.workdps(30):
        for space in spaces:
            r_lo, r_hi = (0.05, 0.49 * space.r_max) if math.isfinite(space.r_max) else (0.1, 3.0)
            for _ in range(12):
                e = mono(
                    basis,
                    F(rng.randint(-9, 9) or 1, rng.randint(1, 5)),
                    base=rng.randint(-6, 4),
                    odd=rng.randint(0, 1) if basis.has_odd else 0,
                    kappa=0 if basis.is_flat else rng.randint(-2, 2),
                )
                m, d1 = e.terms[0], e.diff()
                derivatives = compile_table((d1, d1.diff()), space, 1.0, 1.0)
                for _ in range(5):
                    r = rng.uniform(r_lo, r_hi)
                    x = mp.mpf(r)
                    f = abs(_mp_monomial(basis, space, m, x))
                    for order, value in enumerate(derivatives(r), start=1):
                        want = mp.diff(lambda t: _mp_monomial(basis, space, m, t), x, order)
                        got = float(value)
                        scale = max(abs(got), float(f), 1.0)
                        assert abs(got - float(want)) <= 1e-12 * scale, (basis, space, m, r, order, got, want)
                    checked += 1
    assert checked == len(spaces) * 12 * 5


# -- serialization -------------------------------------------------------------


def test_json_round_trip_bit_exact():
    rng = random.Random(11)
    for basis in Basis:
        for _ in range(10):
            e = _random_expr(rng, basis, n_terms=4)
            text = json.dumps(e.to_json_obj())
            back = RadialExpr.from_json_obj(json.loads(text))
            assert back == e
            assert json.dumps(back.to_json_obj()) == text


def test_json_schema_fields():
    e = mono(Basis.CURVED_C, F(-3, 2), base=-2, odd=1, kappa=2, alpha=-1, amp=2)
    obj = e.to_json_obj()
    assert obj["basis"] == "curved-c"
    assert obj["terms"][0] == {"coeff": "-3/2", "base": -2, "odd": 1, "kappa": 2, "alpha": -1, "amp": 2}
