import copy
import json
import math
import pickle
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import scalar_T
from ccsp import numeric
from ccsp.catalog import CATALOG, Solution, get_solution, scale_flat_solution
from ccsp.derivation import AlphaSign
from ccsp.geometry import Regime, Space, sphere_area
from ccsp.numeric import Divergent, default_grid, integrate_radial, mass
from ccsp.symbolic import Graded

HYP3 = Space(Regime.HYPERBOLIC, -1.0, 3)
FLAT6 = Space(Regime.FLAT, 0.0, 6)


# every field the float layer reads, by name: its expression, taken from the
# record's own u, V, rho and K, and its flat-scale power
_FIELDS = {
    "u": (lambda sol: sol.u, -2),
    "du": (lambda sol: sol.u.diff(), -3),
    "d2u": (lambda sol: sol.u.diff().diff(), -4),
    "V": (lambda sol: sol.V, -2),
    "dV": (lambda sol: sol.V.diff(), -3),
    "d2V": (lambda sol: sol.V.diff().diff(), -4),
    "rho": (lambda sol: sol.rho, -4),
    "K": (lambda sol: sol.K, -2),
}
_RESIDUAL_FIELDS = ("u", "du", "d2u", "V", "dV", "d2V", "rho")


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


def test_divergent_is_an_immutable_value_but_not_a_tuple():
    # a tuple result means a stacked integral, and the CLI writes tuples as lists
    d = Divergent("small-r")
    assert not isinstance(d, tuple)
    assert d == Divergent("small-r") and hash(d) == hash(Divergent("small-r"))
    assert d != Divergent("large-r") and d != "small-r"
    assert str(d) == "divergent:small-r" and repr(d) == "Divergent(where='small-r')"
    with pytest.raises(AttributeError):
        d.where = "large-r"
    assert d.where == "small-r"


def test_divergent_is_its_json_tag():
    # a Divergent is the string the CLI prints, so a report's fields are its
    # JSON, and it still takes no part in float arithmetic
    d = Divergent("r=1.5708")
    for back in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d), copy.copy(d)):
        assert type(back) is Divergent and back == d and back.where == "r=1.5708"
    assert json.dumps(d) == '"divergent:r=1.5708"' and json.dumps({"mass": d}) == '{"mass": "divergent:r=1.5708"}'
    with pytest.raises(TypeError):
        1.0 + d
    with pytest.raises(TypeError):
        d * 2.0


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


@pytest.mark.parametrize(
    "r_lo, r_hi",
    [(1.0, math.nan), (0.0, -math.inf), (math.inf, math.inf), (math.nan, 1.0), (-1.0, 1.0), (2.0, 2.0), (3.0, 1.0)],
)
def test_bad_interval_is_rejected(r_lo, r_hi):
    # a nan bound, or an infinite one on the wrong side, fails the check
    # itself, not later as "integrand not finite" with RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="bad interval"):
            integrate_radial(lambda r: np.exp(-r), r_lo, r_hi)


@pytest.mark.parametrize("rel_tol", [math.nan, math.inf, -1.0, 0.0])
def test_rel_tol_must_be_finite_and_positive(rel_tol):
    # a nan tolerance used to make every Cauchy window look divergent
    with pytest.raises(ValueError, match="relative tolerance"):
        integrate_radial(lambda r: np.exp(-r), 0.0, math.inf, rel_tol)


def _edge_integrals():
    # convergent integrals near the edge of convergence: integrand (for
    # floats and mpmath alike), its exponent, and the closed form
    for p in (1.05, 1.1, 1.2, 1.5):
        yield pytest.param(lambda r, p: (1 + r) ** -p, p, lambda mp, p: 1 / (p - 1), id=f"(1+r)^-{p}")
    for q in (0.85, 0.95):
        yield pytest.param(
            lambda r, q: r**-q / (1 + r * r), q, lambda mp, q: mp.pi / 2 / mp.sin(mp.pi * (1 - q) / 2),
            id=f"r^-{q}/(1+r^2)",
        )


@pytest.mark.parametrize("f, x, closed_form", _edge_integrals())
def test_slowly_converging_integrals(f, x, closed_form):
    # their terms decay like r^-0.05 at an end, so they settle only near
    # r = e^(+-670), where the rule's nodes end.  The oracles: the closed
    # form, and 30-digit mpmath quad in s = log r, where both ends decay
    # exponentially
    import mpmath as mp

    got = integrate_radial(lambda r: f(r, x), 0.0, math.inf)
    with mp.workdps(30):
        x_mp = mp.mpf(x)
        exact = closed_form(mp, x_mp)
        oracle = mp.quad(lambda s: f(mp.exp(s), x_mp) * mp.exp(s), [-2000, -40, 0, 40, 2000])
    assert type(got) is float
    assert abs(got - float(exact)) <= 1e-9 * float(exact)
    assert abs(got - float(oracle)) <= 1e-9 * float(exact)


@pytest.mark.parametrize(
    "f, where",
    [
        (lambda r: 1.0 / (1.0 + r), "large-r"),
        (lambda r: (1.0 + r) ** -0.95, "large-r"),
        (lambda r: 1.0 / (r * (1.0 + r * r)), "small-r"),
    ],
    ids=["(1+r)^-1", "(1+r)^-0.95", "1/(r(1+r^2))"],
)
def test_integrals_just_past_the_edge_diverge(f, where):
    # the outermost terms do not decay: a verdict from the first level
    sizes = []
    got = integrate_radial(lambda r: sizes.append(np.size(r)) or f(r), 0.0, math.inf)
    assert got == Divergent(where)
    assert sizes == [27]


def test_end_that_does_not_settle_raises():
    # int_0^pi (pi - r)^(-1/2) dr = 2 sqrt(pi) converges, but the part of it
    # closer to pi than the last double below pi is 3e-8 of it: an error,
    # not a divergence (it used to be divergent:large-r)
    with pytest.raises(ValueError, match="large-r end does not settle"):
        integrate_radial(lambda r: (math.pi - r) ** -0.5, 0.0, math.pi)
    # the same singularity at r = 0, where the nodes reach 1e-300, settles
    got = integrate_radial(lambda r: r**-0.5, 0.0, math.pi)
    assert got == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-14)


def _hex(values):
    return [float(v).hex() for v in values]


def _count_calls(monkeypatch):
    # the size of every call of an S-weighted integrand: the integrands of
    # the manifold integrals, of the charge and of the inversion
    sizes = []
    weighted = numeric._weighted

    def counted(space, g, power):
        f = weighted(space, g, power)
        return lambda r: sizes.append(np.size(r)) or f(r)

    monkeypatch.setattr(numeric, "_weighted", counted)
    return sizes


def test_interior_pole_off_the_nodes_raises():
    # 1/(r-5)^2 never meets a node; the levels of the rule do not agree as
    # their nodes close in on the pole (bisection toward it used to stop at
    # the depth cap and return 1.9e7 after 16,647 panels)
    f = lambda r: 1.0 / (r - 5.0) ** 2 / (1.0 + r**4)
    with pytest.raises(ValueError, match=f"no convergence after {numeric.DE_LEVELS} levels"):
        integrate_radial(f, 0.0, math.inf)


@pytest.mark.parametrize("error", [ValueError, OverflowError])
def test_integrand_that_raises_propagates(error):
    # an integrand fails by a value that is not finite; an exception is not
    # read as a divergent end, even past where the tail settles (about
    # r = 40 here), which the first level's nodes reach
    def f(r):
        if np.max(r) > 500.0:
            raise error("beyond r = 500")
        return np.exp(-r) * (1.0 + np.cos(r) ** 2)

    with pytest.raises(error, match="beyond r = 500"):
        integrate_radial(f, 0.0, math.inf)
    with pytest.raises(error, match="beyond r = 500"):
        integrate_radial(f, 400.0, 800.0)


def test_integrand_call_counts(monkeypatch):
    # the masses of the catalog: one integrand call per level of the rule
    sizes = []
    integrate = numeric.integrate_radial

    def counted(f, *args):
        return integrate(lambda r: sizes.append(np.size(r)) or f(r), *args)

    monkeypatch.setattr(numeric, "integrate_radial", counted)
    for sol in CATALOG:
        kappa, _ = _params(sol)
        with np.errstate(all="ignore"):
            mass(sol, kappa, sol.default_alpha)
    assert len(sizes) <= 60 and sum(sizes) <= 1500
    monkeypatch.undo()
    # T, N and Q: one stacked integral of u'^2, u^2 and u^2 K with the exact
    # tail integral K = int_r^inf u^2 t dt, one integrand call per level
    # for all three rows (3 calls of 63 points measured)
    calls = _count_calls(monkeypatch)
    numeric.pohozaev_functionals(get_solution("FLAT_CSV"), 0.0, -1.0)
    assert len(calls) <= 3 and sum(calls) <= 70
    # fd_residual evaluates one table of u, u', u'', V, V', V'' and rho,
    # with the basis' base and odd functions evaluated once each
    tables, evaluated = [], []
    make = numeric.compile_table

    def counting(exprs, space, alpha, amp_sq):
        tables.append(len(exprs))
        return make(exprs, space, alpha, amp_sq)

    def counted(fns):
        def both(m):
            base, odd = fns(m)
            return (
                lambda r: evaluated.append("base") or base(r),
                lambda r: evaluated.append("odd") or odd(r),
            )

        return both

    monkeypatch.setattr(numeric, "compile_table", counting)
    monkeypatch.setattr(numeric, "_BASIS_FNS", {b: counted(fns) for b, fns in numeric._BASIS_FNS.items()})
    for sol in CATALOG:
        kappa, _ = _params(sol)
        grid = default_grid(sol, kappa)
        tables.clear()
        evaluated.clear()
        numeric.fd_residual(sol, kappa, sol.default_alpha, grid)
        odd = any(t.odd for name in _RESIDUAL_FIELDS for t in _FIELDS[name][0](sol).terms)
        assert tables == [7], sol.id
        assert evaluated == ["base"] + ["odd"] * odd, sol.id


# -- stacked integrands -------------------------------------------------------

_ROWS = {
    # settles at level 1, its tail reaching far past r = 200
    "lorentz": lambda r: 1.0 / (1.0 + r * r),
    # settles at level 3
    "exp": lambda r: np.exp(-r),
    # not finite from r = 200 on: that cuts its own large-r end only
    "cut": lambda r: np.where(r >= 200.0, np.nan, np.exp(-r) * (1.0 + np.cos(r) ** 2)),
    # settles at level 4
    "cubic": lambda r: r**3 * np.exp(-r),
    # diverges at the first level
    "tail": lambda r: (1.0 + r) ** -0.5,
    "small": lambda r: r**-1.0 / (1.0 + r * r),
    # raise: levels that never agree, and a middle node that is not finite
    "pole": lambda r: 1.0 / (r - 5.5) ** 2 / (1.0 + r**4),
    "stretch": lambda r: np.sqrt(r - 3.0) / (1.0 + r**4),
}


def _counted(f, sizes):
    return lambda r: sizes.append(np.size(r)) or f(r)


def _outcome(call):
    # a value as its bits, a verdict as itself, an error as its message
    try:
        got = call()
    except numeric.QuadratureError as error:
        return str(error)
    return got.hex() if type(got) is float else got


@pytest.mark.parametrize("names", [
    ("lorentz", "exp", "cut", "cubic"),
    ("cubic", "tail", "exp"),
    ("cut", "lorentz", "small", "exp"),
])
def test_stacked_rows_are_their_own_integrals(names):
    # each row has the bits or the verdict of its integrand alone, though the
    # rows settle at different levels, one diverges while others go on, and
    # one's nodes that are not finite are the others' ordinary nodes
    alone, levels = [], []
    with np.errstate(all="ignore"):
        for name in names:
            sizes = []
            alone.append(_outcome(lambda: integrate_radial(_counted(_ROWS[name], sizes), 0.0, math.inf)))
            levels.append(len(sizes))
        sizes = []
        got = integrate_radial(_counted(lambda r: np.array([_ROWS[name](r) for name in names]), sizes), 0.0, math.inf)
    assert len(set(levels)) > 1
    assert type(got) is tuple and len(got) == len(names)
    assert [x.hex() if type(x) is float else x for x in got] == alone
    # one call of f per level, as many as the row that runs longest
    assert len(sizes) == max(levels)


@pytest.mark.parametrize("names, raised", [
    (("exp", "pole", "stretch"), "pole"),
    (("exp", "stretch", "pole"), "stretch"),
    (("pole", "tail"), "pole"),
])
def test_stacked_error_is_the_first_failing_row(names, raised):
    # "stretch" fails at the first level and "pole" only after the last, yet
    # the row first in order decides the error; a Divergent row is no failure
    expected = _outcome(lambda: integrate_radial(_ROWS[raised], 0.0, math.inf))
    with np.errstate(invalid="ignore"), pytest.raises(numeric.QuadratureError) as error:
        integrate_radial(lambda r: np.array([_ROWS[name](r) for name in names]), 0.0, math.inf)
    assert str(error.value) == expected


def test_one_dimensional_integrand_returns_a_float():
    got = integrate_radial(lambda r: np.exp(-r), 0.0, math.inf)
    assert type(got) is float
    stacked = integrate_radial(lambda r: np.exp(-r)[None, :], 0.0, math.inf)
    assert type(stacked) is tuple and stacked == (got,)


def test_stacked_manifold_integral_drops_a_diverged_row(monkeypatch):
    # SPH_U1's u^2 diverges at its pole on the equator, the end of the first
    # segment; the constant row goes on into the second alone
    sol = get_solution("SPH_U1")
    u = sol.u_fn(1.0, -1.0)
    rows = []
    integrate = numeric.integrate_radial

    def counted(f, *args):
        return integrate(lambda s: rows.append(np.shape(f(s))[0]) or f(s), *args)

    monkeypatch.setattr(numeric, "integrate_radial", counted)
    with np.errstate(all="ignore"):
        got = numeric._manifold_integral(sol, 1.0, lambda r: np.array([u(r) ** 2, np.ones_like(r)]), 1e-10)
    monkeypatch.undo()
    assert got[0] == Divergent("r=1.5708") == mass(sol, 1.0, -1.0, 1e-10)
    assert got[1] == numeric._manifold_integral(sol, 1.0, lambda r: np.ones_like(r), 1e-10)
    assert got[1] == pytest.approx(2.0 * math.pi**2, rel=1e-10)
    assert rows[0] == 2 and rows[-1] == 1


@pytest.mark.parametrize("fault", ["overflow", "nan", "growth"])
def test_failed_node_past_a_settled_end(fault):
    # from r = 200 on (r = 160 for growth) the integrand is inf, NaN or
    # overflows; the tail is negligible long before, so its side stops at
    # the first such node settled, and the value is the closed form 1.6
    def f(r):
        out = np.exp(-r) * (1.0 + np.cos(r) ** 2)
        if fault == "growth":
            with np.errstate(over="ignore"):
                return out + np.where(r > 160.0, np.exp(10.0 * r), 0.0)
        return np.where(r >= 200.0, np.inf if fault == "overflow" else np.nan, out)

    got = integrate_radial(f, 0.0, math.inf)
    assert type(got) is float and got == pytest.approx(1.6, rel=1e-10)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_failed_node_inside_a_settled_end(level):
    # exp(-r) on (0, inf) is NaN at exactly the first exp-sinh node of one
    # level toward infinity (r = 1.487, 1.218, 1.103, 1.050): at levels 1-3
    # the large-r side has settled, and the NaN would cut it short of terms
    # it holds, which raises; level 4 is never evaluated, the rule having
    # converged
    node = numeric._DE_LEVELS[level][3][0]
    f = lambda r: np.where(r == node, np.nan, np.exp(-r))
    if level == 4:
        assert integrate_radial(f, 0.0, math.inf) == pytest.approx(1.0, rel=1e-14)
        return
    with pytest.raises(numeric.QuadratureError, match="inside the settled large-r end"):
        integrate_radial(f, 0.0, math.inf)


def test_overflowing_tail_is_divergent():
    # grows like e^(3r), and sinh(r)^5 overflows to inf at the first level's
    # node r = 1325: the rising terms before it are the verdict
    sizes = []

    def f(r):
        sizes.append(np.size(r))
        return np.exp(-2.0 * r) * np.sinh(r) ** 5

    with np.errstate(over="ignore", invalid="ignore"):
        got = integrate_radial(f, 0.0, math.inf)
    assert got == Divergent("large-r")
    assert sizes == [27]


def test_interior_core_pole_raises():
    # a pole at r = 5.5 among the nodes of (0, inf), whose levels then never
    # agree, and a non-finite stretch r < 3 that holds the middle node r = 1
    def pole(r):
        with np.errstate(divide="ignore"):
            return 1.0 / (r - 5.5) ** 2 / (1.0 + r**4)

    def stretch(r):
        with np.errstate(invalid="ignore"):
            return np.sqrt(r - 3.0) / (1.0 + r**4)

    with pytest.raises(ValueError, match="no convergence"):
        integrate_radial(pole, 0.0, math.inf)
    with pytest.raises(ValueError, match="not finite at r = 1.0"):
        integrate_radial(stretch, 0.0, math.inf)


@pytest.mark.parametrize("kappa", [-2.0, -0.5, -(2.0**-0.5)])
def test_divergence_probe_stops_at_first_non_finite_node(kappa):
    # u^2 S^5 grows like e^(3 lambda r) until S^5 overflows: the first
    # level's nodes up to the first one that is not finite are the verdict,
    # from one call of 27 nodes (bisecting a Cauchy window toward the
    # overflow once took about 25,000 panels)
    sizes = []
    sol = get_solution("BG_HYP_N1_D6")
    u = sol.u_fn(kappa, sol.default_alpha)

    def g(r):
        sizes.append(np.size(r))
        return u(r) ** 2

    assert numeric._manifold_integral(sol, kappa, g, numeric.DEFAULT_REL_TOL) == Divergent("large-r")
    assert sizes == [27]


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


def _wrong_masses(points):
    # every (entry, kappa, alpha) whose mass verdict or finite value is not
    # the closed form's, with float warnings as errors
    wrong = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sol, kappa, alpha in points:
            got = mass(sol, kappa, alpha)
            want = sol.expected_mass_value(kappa, alpha)
            if sol.finite_mass:
                ok = not isinstance(got, Divergent) and abs(got - want) <= numeric.MASS_REL_TOL * abs(want)
            else:
                ok = isinstance(got, Divergent)
            if not ok:
                wrong.append((sol.id, sol.scale, kappa, alpha, got, want))
    return wrong


def _signs(sol):
    return {AlphaSign.ATTRACTIVE: (-1.0,), AlphaSign.REPULSIVE: (1.0,), None: (1.0, -1.0)}[sol.alpha_sign]


def test_masses_over_curvature_and_scale():
    # every curved entry at |kappa| = 2^e, e in -20..20 in steps of 2, every
    # flat homogeneous entry scaled by 2^e, e in -10..10 in steps of 2, at
    # the default alpha: the rule runs in units of 1/sqrt|kappa| or the
    # scale, so the profile's length does not matter
    points = []
    for sol in CATALOG:
        if sol.regime is not Regime.FLAT:
            kappas = [math.copysign(2.0**e, Space.unit_kappa(sol.regime)) for e in range(-20, 21, 2)]
            points += [(sol, kappa, sol.default_alpha) for kappa in kappas]
        elif sol.rho.is_zero:
            points += [(scale_flat_solution(sol, 2.0**e), 0.0, sol.default_alpha) for e in range(-10, 11, 2)]
        else:
            points.append((sol, 0.0, sol.default_alpha))
    assert len(points) == 393
    assert _wrong_masses(points) == []


def test_masses_over_the_alpha_lattice():
    # |kappa| = 2^(k/2), k in -4..4, and alpha = +-2^(j/2), j in -6..6, and
    # |alpha| = 2^+-50 and 2^+-60, with each entry's admissible signs: the
    # mass scales as 1/|alpha|, and no absolute floor may judge it
    sizes = [2.0 ** (j / 2.0) for j in range(-6, 7)] + [2.0**50, 2.0**-50, 2.0**60, 2.0**-60]
    points = [
        (sol, kappa, sign * size)
        for sol in CATALOG
        for kappa in ([0.0] if sol.regime is Regime.FLAT else
                      [math.copysign(2.0 ** (k / 2.0), Space.unit_kappa(sol.regime)) for k in range(-4, 5)])
        for size in sizes
        for sign in _signs(sol)
    ]
    assert len(points) == 2856
    assert _wrong_masses(points) == []


@pytest.mark.parametrize("k", [-4, 0, 4])
def test_masses_at_both_coupling_signs(k):
    # every catalog entry at |kappa| = 2^(k/2), both coupling signs: a sign
    # the amplitude law does not admit raises, and every admitted one gives
    # the closed form's verdict and value
    points = []
    for sol in CATALOG:
        kappa = 0.0 if sol.regime is Regime.FLAT else math.copysign(2.0 ** (k / 2.0), Space.unit_kappa(sol.regime))
        for alpha in (-1.0, 1.0):
            if alpha in _signs(sol):
                points.append((sol, kappa, alpha))
            else:
                with pytest.raises(ValueError):
                    mass(sol, kappa, alpha)
    assert _wrong_masses(points) == []
    assert sum(sol.finite_mass for sol, _, _ in points) >= 10


def test_overflowing_divergent_masses_on_the_verify_lattice():
    # the divergent hyperbolic entries whose large-r integrands overflow, on
    # the verify lattice: every point is divergent, as the catalog says
    points = [
        (sol, kappa, alpha)
        for sid in ("BG_HYP_N1_D4", "BG_HYP_N1_D5", "BG_HYP_N1_D6", "HYP_U3", "BG_HYP_N2_D5", "BG_HYP_N2_D6")
        for sol in [get_solution(sid)]
        for kappa, alpha in _lattice(sol)
    ]
    assert len(points) == 270
    assert not any(sol.finite_mass for sol, _, _ in points)
    assert _wrong_masses(points) == []


@pytest.mark.parametrize(
    "sid, kappa, segment, tag, where",
    [
        # SPH_U1: a pole at the equator splits [0, pi] in two
        ("SPH_U1", 1.0, 0, "small-r", "small-r"),
        ("SPH_U1", 1.0, 0, "large-r", "r=1.5708"),
        ("SPH_U1", 1.0, 1, "small-r", "r=1.5708"),
        ("SPH_U1", 1.0, 1, "large-r", "r=3.14159"),
        # SPH_U2: poles at both ends of the one segment [0, pi]
        ("SPH_U2", 1.0, 0, "small-r", "small-r"),
        ("SPH_U2", 1.0, 0, "large-r", "r=3.14159"),
        # HYP_U1: one segment [0, inf]
        ("HYP_U1", -1.0, 0, "small-r", "small-r"),
        ("HYP_U1", -1.0, 0, "large-r", "large-r"),
        # at kappa = 4 the rule runs in s = 2r, and the tags stay in r
        ("SPH_U1", 4.0, 0, "large-r", "r=0.785398"),
        ("SPH_U1", 4.0, 1, "large-r", "r=1.5708"),
    ],
)
def test_divergence_tag_comes_from_the_segment(monkeypatch, sid, kappa, segment, tag, where):
    sol = get_solution(sid)
    segments = []

    def stub(f, lo, hi, rel_tol=None):
        segments.append((lo, hi))
        return Divergent(tag) if len(segments) - 1 == segment else 1.0

    monkeypatch.setattr(numeric, "integrate_radial", stub)
    got = mass(sol, kappa, _params(sol)[1])
    assert isinstance(got, Divergent) and got.where == where
    assert len(segments) == segment + 1
    # in units of the length 1/sqrt|kappa| the segments do not depend on kappa
    unit = {"SPH_U1": [(0.0, math.pi / 2.0), (math.pi / 2.0, math.pi)], "SPH_U2": [(0.0, math.pi)],
            "HYP_U1": [(0.0, math.inf)]}
    assert segments == pytest.approx(unit[sid][: segment + 1])


def test_charge_balance_sech():
    sol = get_solution("BG_1D_SECH")
    rho = sol.rho_fn(-1.0, 1.0)
    neg_rho_total = integrate_radial(lambda r: -rho(r), 0.0, math.inf)
    neg_rho_total *= sphere_area(1)
    m = mass(sol, -1.0, 1.0)
    assert m == pytest.approx(neg_rho_total, rel=1e-8)


# -- PDE residuals -----------------------------------------------------------------


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
    bad = sol._replace(x_law=Graded(F(-576) * F(101, 100) ** 2))
    _, poisson = numeric.fd_residual(bad, 0.0, -1.0)
    assert poisson > 1e-3


def _lattice(sol):
    # perfbench verify's lattice: |kappa| = 2^(k/2), k in -4..4, and
    # |alpha| = 2^(j/2), j in -2..2, with both signs where either is allowed
    kappas = [0.0] if sol.regime is Regime.FLAT else [
        math.copysign(2.0 ** (k / 2.0), Space.unit_kappa(sol.regime)) for k in range(-4, 5)
    ]
    signs = {AlphaSign.ATTRACTIVE: (-1.0,), AlphaSign.REPULSIVE: (1.0,), None: (1.0, -1.0)}[sol.alpha_sign]
    return [(kappa, sign * 2.0 ** (j / 2.0)) for kappa in kappas for j in range(-2, 3) for sign in signs]


def test_field_table_matches_each_field_compiled_alone():
    # every named field from one table, bit for bit each expression compiled
    # alone (RadialExpr.compile, with its flat-scale power: a^power
    # expr(r/a)), on the verify lattice and on flat entries scaled; K where
    # it exists (flat, n < -1: every flat entry)
    scaled = [
        scale_flat_solution(get_solution(sid), a)
        for sid in ("FLAT_CSV", "FLAT_SINGULAR_D6", "FLAT_SINGULAR_D3")
        for a in (2.0, 0.5, 3.0)
    ]
    points = with_k = 0
    for sol in list(CATALOG) + scaled:
        names = _RESIDUAL_FIELDS + (("K",) if sol.regime is Regime.FLAT and sol.n < -1 else ())
        with_k += "K" in names
        for kappa, alpha in _lattice(sol):
            r = default_grid(sol, kappa)
            got = sol.fields_fn(kappa, alpha, *names)(r)
            assert len(got) == len(names)
            a, amp_sq = sol.scale, sol.amp_sq_value(kappa, alpha)
            for field, name in zip(got, names):
                expr, power = _FIELDS[name][0](sol), _FIELDS[name][1]
                want = expr.compile(sol.space(kappa), alpha, amp_sq)(r / a) * a**power
                assert field.tobytes() == want.tobytes(), (sol.id, sol.scale, kappa, alpha, name)
            points += 1
    assert points == 840 + 45
    assert with_k == 6 + 9
    # reading u, V and rho differentiates nothing
    fresh = get_solution("FLAT_CSV")._replace()
    fresh.fields_fn(0.0, -1.0, "u", "V", "rho")
    assert "_derivatives" not in vars(fresh)


@pytest.mark.parametrize("size", [0.25, 4.0])
def test_default_grid_is_the_unit_grid_in_units_of_the_length(size):
    # at |kappa| = 1/4 and 4 the length 1/sqrt|kappa| is 2 and 1/2, so the
    # grid is the unit-curvature grid times 2 or 1/2, bit for bit; a flat
    # entry scaled by a has the unscaled grid times a
    length = size**-0.5
    for sol in CATALOG:
        if sol.regime is not Regime.FLAT:
            unit = Space.unit_kappa(sol.regime)
            got = default_grid(sol, size * unit)
            assert got.tobytes() == (length * default_grid(sol, unit)).tobytes(), sol.id
    for sid in ("FLAT_CSV", "FLAT_SINGULAR_D3"):
        sol = get_solution(sid)
        got = default_grid(scale_flat_solution(sol, length), 0.0)
        assert got.tobytes() == (length * default_grid(sol, 0.0)).tobytes(), sid


@pytest.mark.parametrize("kappa", [-6e3, -1e4, -1e6])
def test_hyperbolic_entries_verify_far_from_unit_curvature(kappa):
    # the default grid spans r / L in [0.1, 9.9], L = 1/sqrt|kappa|; in
    # absolute r its end 9.9 put lambda r past 710, where sinh and cosh
    # overflow, and every residual was NaN
    checked = [sol for sol in CATALOG if sol.regime is Regime.HYPERBOLIC]
    assert len(checked) == 13
    for sol in checked:
        report = numeric.verify_solution(sol, kappa, sol.default_alpha)
        assert report.passed, (sol.id, report.schrodinger_residual_max, report.poisson_residual_max)
        assert report.grid["r_max"] == pytest.approx(9.9 / math.sqrt(-kappa), rel=1e-15)


def test_residuals_at_roundoff_and_sensitive_to_shifts(monkeypatch):
    # exact derivatives leave only roundoff at every lattice point, and a
    # relative 1e-6 shift of X, or of omega on the scale of the Schrodinger
    # terms (max |alpha V - omega| = max |Lap u / u|), raises the residual
    # at least a thousandfold wherever the shift is not zero
    omega_value = Solution.omega_value
    points, shifted = 0, {"X": 0, "omega": 0}
    for sol in CATALOG:
        x_law = sol.x_law
        x_shifted = None
        if x_law is not None:
            x_shifted = sol._replace(x_law=Graded(x_law.coef * Fraction(1000001, 1000000), x_law.kappa))
        for kappa, alpha in _lattice(sol):
            points += 1
            base = max(numeric.fd_residual(sol, kappa, alpha))
            assert base <= 1e-12, (sol.id, kappa, alpha, base)
            if x_shifted is not None:
                by_x = max(numeric.fd_residual(x_shifted, kappa, alpha))
                assert by_x > 0 and by_x >= 1e3 * base, (sol.id, kappa, alpha, base, by_x)
                shifted["X"] += 1
            omega = omega_value(sol, kappa)
            v = sol.v_fn(kappa, alpha)(default_grid(sol, kappa))
            d_omega = 1e-6 * max(abs(omega), float(np.max(np.abs(alpha * v - omega))))
            if d_omega:
                # shift the value fd_residual reads: shifting omega in the
                # record would move V with it, and the residual would not see it
                with monkeypatch.context() as patched:
                    patched.setattr(Solution, "omega_value", lambda self, k: omega_value(self, k) + d_omega)
                    by_omega = max(numeric.fd_residual(sol, kappa, alpha))
                assert by_omega > 0 and by_omega >= 1e3 * base, (sol.id, kappa, alpha, base, by_omega)
                shifted["omega"] += 1
    assert points == 840 and shifted == {"X": 750, "omega": 750}


# -- the charge inside a radius -------------------------------------------------------


def _bg_flat_n3_d4_charge():
    # BG_FLAT_N3_D4's charge of u^2 at alpha = 1, built as poisson_invert builds it for f = u^2
    sol = get_solution("BG_FLAT_N3_D4")
    u = sol.u_fn(0.0, 1.0)
    density = numeric._weighted(sol.space(0.0), lambda t: u(t) ** 2, sol.dim - 1)
    total = mass(sol, 0.0, 1.0, numeric.NESTED_REL_TOL, include_sphere_factor=False)
    return numeric._charge(density, total, sol.scale)


def test_cumulative_charge_of_an_integrable_singularity():
    # M(s) = sqrt(pi) erf(sqrt(s)) for the density t^(-1/2) e^(-t), on both
    # sides of the length 1: s int_0^1 by tanh-sinh, whose end takes the
    # singularity, and beyond, the total sqrt(pi) less s int_1^inf by exp-sinh
    s = np.array([1e-200, 1e-20, 1e-6, 0.3, 1.0, 1.5, 7.0, 40.0, 1e4])
    charge = numeric._charge(lambda t: t**-0.5 * np.exp(-t), math.sqrt(math.pi), 1.0)
    want = np.array([math.sqrt(math.pi) * math.erf(math.sqrt(x)) for x in s])
    assert np.max(np.abs(charge(s) / want - 1.0)) <= 1e-13


def test_charge_of_bg_flat_n3_d4_is_its_closed_form():
    # M(r) = 36 r^4 / (1 + r^2)^2, the Beta integral of u^2 r^3
    r = np.logspace(-6, 6, 241)
    want = 36.0 * r**4 / (1.0 + r**2) ** 2
    assert np.max(np.abs(_bg_flat_n3_d4_charge()(r) / want - 1.0)) <= 1e-12


@pytest.mark.parametrize("power", [0.0, 1.0])
def test_cumulative_is_a_pure_function_of_the_point(power):
    # the charge of t^power e^-t (total 1): each row of the outer x inner
    # grid is reduced alone, so a permuted batch and 17 chunks in random
    # order give the bits of one call, at points on both sides of the
    # length, at it and duplicated
    charge = numeric._charge(lambda t: t**power * np.exp(-t), 1.0, 1.0)
    rng = np.random.default_rng(7)
    points = np.concatenate([[1.0, 1.0, 1e-13, 0.5, 2.0], np.logspace(-8, 8, 61), rng.uniform(0.01, 12.0, 60)])
    want = _hex(charge(points))
    assert "nan" not in want
    order = rng.permutation(len(points))
    got = np.empty(len(points))
    got[order] = charge(points[order])
    assert _hex(got) == want
    got[:] = math.nan
    for chunk in np.array_split(rng.permutation(len(points)), 17):
        got[chunk] = charge(points[chunk])
    assert _hex(got) == want
    # shape is kept, a scalar gives a 0-d array
    grid = charge(points[:4].reshape(2, 2))
    assert grid.shape == (2, 2) and _hex(grid.ravel()) == want[:4]
    assert charge(points[5]).shape == () and float(charge(points[5])).hex() == want[5]
    # and the values are the lower incomplete gamma function
    closed = -np.expm1(-points) - (points * np.exp(-points) if power else 0.0)
    assert np.max(np.abs(got - closed)) <= 1e-15


def test_charge_with_an_unsettled_cut_is_nan():
    # the density e^-t is NaN from t = 23 on, where its terms are still
    # about 1e-10 of the charge: the steps 1/16 and 1/8 agree on the sum up
    # to the cut, but the cut side has not settled, so every r past the
    # length, whose exp-sinh nodes reach t = 23, is NaN instead of wrong
    charge = numeric._charge(lambda t: np.where(t < 23.0, np.exp(-t), np.nan), 1.0, 1.0)
    s = np.logspace(-3, 1.3, 400)
    got = charge(s)
    assert np.array_equal(np.isnan(got), s > 1.0)
    assert np.max(np.abs(got[s <= 1.0] + np.expm1(-s[s <= 1.0]))) <= 1e-15


def test_charge_of_a_too_narrow_density_is_nan():
    # a bump of width 0.03 at t = 0.7 is too narrow for the fixed node set:
    # where the steps 1/16 and 1/8 disagree M is NaN, wherever it is finite
    # it is the closed form, and a Q of it raises instead of being wrong
    width, center = 0.03, 0.7
    total = width * math.sqrt(math.pi) / 2.0 * (1.0 + math.erf(center / width))
    charge = numeric._charge(lambda t: np.exp(-(((t - center) / width) ** 2)), total, 1.0)
    s = np.logspace(-3, 3, 2001)
    got = charge(s)
    want = total - width * math.sqrt(math.pi) / 2.0 * np.array([math.erfc((x - center) / width) for x in s])
    nan = np.isnan(got)
    assert 0.01 < nan.mean() < 0.5
    assert np.max(np.abs(got[~nan] - want[~nan])) <= 1e-12 * total
    with pytest.raises(numeric.QuadratureError):
        integrate_radial(lambda r: charge(r) ** 2 * r**-3.0, 0.0, math.inf)


# -- inversion ----------------------------------------------------------------------


def test_poisson_invert_flat_oracle():
    # -Lap of 24 c^-4 is the squared six-dimensional profile, and it decays:
    # the closed form is the oracle for the inverter
    sol = get_solution("FLAT_CSV")
    u = sol.u_fn(0.0, -1.0)
    sizes = []
    v = numeric.poisson_invert(lambda r: sizes.append(np.size(r)) or u(r) ** 2, FLAT6, 6)
    rs = np.linspace(0.1, 10.0, 23)
    expected = 24.0 / (1.0 + rs**2) ** 2
    sizes.clear()
    assert np.max(np.abs(v(rs) - expected) / expected) < 1e-7
    # each V(r) is its own outer rule of about 60 nodes, each a row of
    # about 220 charge nodes: 13,200 source points per V(r) measured
    assert sum(sizes) <= 16_000 * len(rs)


def test_poisson_invert_slowly_decaying_potential():
    # -Lap of 18/(1+r^2) at D = 4 is 144 (1+r^2)^-3; the potential has an
    # r^-2 tail, so V(r) integrates M(s) s^-3 far past r
    f = lambda r: 144.0 / (1.0 + np.asarray(r, dtype=float) ** 2) ** 3
    v = numeric.poisson_invert(f, Space(Regime.FLAT, 0.0, 4), 4)
    rs = np.array([0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0])
    expected = 18.0 / (1.0 + rs**2)
    assert np.max(np.abs(v(rs) - expected) / expected) < 1e-8


def test_poisson_invert_keeps_the_input_shape():
    v = numeric.poisson_invert(lambda r: 144.0 / (1.0 + np.asarray(r, dtype=float) ** 2) ** 4, FLAT6, 6)
    rs = np.array([[0.5, 1.0, 2.0], [3.0, 5.0, 0.5]])
    grid = v(rs)
    assert grid.shape == (2, 3)
    assert _hex(grid.ravel()) == _hex(v(rs.ravel()))
    scalar = v(2.0)
    assert type(scalar) is float and scalar.hex() == float(grid[0, 2]).hex()


def test_poisson_invert_zero():
    v = numeric.poisson_invert(lambda r: np.zeros_like(np.asarray(r, dtype=float)), FLAT6, 6)
    assert abs(float(v(1.0))) < 1e-12


def test_poisson_invert_negative_source():
    # the charge's inner error is judged against |total|, so a source of
    # negative total charge inverts to exactly the negated potential
    f = lambda r: 144.0 / (1.0 + np.asarray(r, dtype=float) ** 2) ** 4
    v = numeric.poisson_invert(f, FLAT6, 6)
    minus = numeric.poisson_invert(lambda r: -f(r), FLAT6, 6)
    rs = np.linspace(0.1, 10.0, 11)
    assert _hex(minus(rs)) == _hex(-v(rs))


def test_poisson_invert_zero_net_source():
    # -Lap of (1+r^2)^-3 at D = 6 is (36 - 12 r^2)(1+r^2)^-5, and -Lap of
    # e^(-r^2) at D = 3 is (6 - 4 r^2) e^(-r^2): their charges 6 r^6
    # (1+r^2)^-4 and 2 r^3 e^(-r^2) return to 0, so the total cancels to
    # roundoff, and each row of the charge is judged against its own
    # h r sum |terms|
    x = lambda r: np.asarray(r, dtype=float) ** 2
    v = numeric.poisson_invert(lambda r: (36.0 - 12.0 * x(r)) / (1.0 + x(r)) ** 5, FLAT6, 6)
    rs = np.array([0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0, 1000.0])
    expected = (1.0 + rs**2) ** -3.0
    assert np.max(np.abs(v(rs) - expected) / expected) < 1e-12
    v = numeric.poisson_invert(lambda r: (6.0 - 4.0 * x(r)) * np.exp(-x(r)), Space(Regime.FLAT, 0.0, 3), 3)
    rs = np.linspace(0.1, 4.0, 14)
    expected = np.exp(-(rs**2))
    assert np.max(np.abs(v(rs) - expected) / expected) < 1e-9


def test_poisson_invert_hyperbolic_oracle():
    sol = get_solution("HYP_U1")
    u = sol.u_fn(-1.0, -1.0)
    v = numeric.poisson_invert(lambda r: u(r) ** 2, HYP3, 3)
    rs = np.linspace(0.1, 8.0, 17)
    expected = 6.0 / np.cosh(rs) ** 2
    assert np.max(np.abs(v(rs) - expected) / expected) < 1e-7


def test_poisson_invert_far_from_unit_curvature():
    # at kappa = -1e6 both integrals run over s = r / L with L = 1e-3; in
    # absolute r the total charge's middle node r = 1 overflowed sinh(1000 r)
    sol = get_solution("HYP_U1")
    kappa = -1e6
    u = sol.u_fn(kappa, -1.0)
    v = numeric.poisson_invert(lambda r: u(r) ** 2, sol.space(kappa), sol.dim)
    rs = 1e-3 * np.array([0.3, 1.0, 3.0])
    assert np.max(np.abs(v(rs) / sol.v_fn(kappa, -1.0)(rs) - 1.0)) <= 1e-12


def test_poisson_invert_hyperbolic_overflow(monkeypatch):
    # past r ~ 355 the charge's density is NaN at its middle node (cosh^-4
    # underflows where sinh^2 overflows), so M is NaN there: the side of
    # each V(r) stops at the first such node, long settled, and
    # V = 1/(6 cosh^2) is right wherever it is finite
    calls = _count_calls(monkeypatch)
    f = lambda r: 1.0 / np.cosh(r) ** 4
    v = numeric.poisson_invert(f, HYP3, 3)
    assert 0 < len(calls) <= 6  # the total charge (4 measured)
    rs = np.linspace(0.1, 20.0, 50)
    calls.clear()
    assert np.max(np.abs(v(rs) * 6.0 * np.cosh(rs) ** 2 - 1.0)) < 1e-12
    assert len(calls) <= 50 * 10  # per point, two calls per level (8 measured)
    # V is not finite past the overflow, and says so
    with pytest.raises(ValueError, match="V is not finite at r = 1000.0"):
        v(np.array([1.0, 1000.0]))
    # at D = 22 the density f S^21 grows like e^(17 r) until S^21 overflows:
    # the total charge diverges, a verdict from the first level's 27 nodes
    calls.clear()
    with pytest.raises(ValueError, match="inversion tail diverges"):
        numeric.poisson_invert(f, Space(Regime.HYPERBOLIC, -1.0, 22), 22)
    assert calls == [27]


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
            lap = (vp - 2 * v0 + vm) / h**2 + (sol.dim - 1) / scalar_T(space, r) * (vp - vm) / (2 * h)
            assert abs(-lap - float(f(r))) <= 1e-5


# -- variational functionals ----------------------------------------------------------


def test_pohozaev_flat_csv():
    sol = get_solution("FLAT_CSV")
    fns = numeric.pohozaev_functionals(sol, 0.0, -1.0)
    pi3 = math.pi**3
    # exact values: T = Q = 1152/5 pi^3, N = 96 pi^3 (Beta-integral oracles)
    assert fns.T == pytest.approx(1152.0 / 5.0 * pi3, rel=1e-9)
    assert fns.N == pytest.approx(96.0 * pi3, rel=1e-9)
    assert fns.Q == pytest.approx(1152.0 / 5.0 * pi3, rel=1e-8)
    rep = numeric.pohozaev_check(sol, 0.0, -1.0)
    assert rep.defect <= 1e-6
    # independent route: Q = S_5 int u^2 V r^(D-1) with V from the nested
    # float inversion of -Lap, not from the term algebra.  V is not finite where
    # the inner charge's r^5 overflows (r ~ 1e61), which the rule's nodes
    # on (0, inf) reach, so the route drops r >= 2^20 (without evaluating V
    # there): the remainder, about 576^2 24 r^-6 / 6 = 2e-31, is below
    # roundoff.  Exp-sinh on (0, inf) evaluates V at about 40 points, where
    # tanh-sinh on (0, 2^20) took about 460
    u = sol.u_fn(0.0, -1.0)
    v = numeric.poisson_invert(lambda r: u(r) ** 2, FLAT6, 6)

    def energy(r):
        out, near = np.zeros_like(r), r < 2.0**20
        out[near] = u(r[near]) ** 2 * v(r[near]) * r[near] ** 5
        return out

    direct = integrate_radial(energy, 0.0, math.inf, rel_tol=1e-9) * sphere_area(6)
    assert fns.Q == pytest.approx(direct, rel=1e-7)


_Q_CLOSED_FORMS = [
    # Q = S_(D-1) int M^2 r^(1-D) dr with closed-form charges M, e.g.
    # BG_FLAT_N3_D4: M = 36 r^4/(1+r^2)^2, Q = 2 pi^2 1296 (1/2) B(3,1)
    ("FLAT_CSV", -1.0, 1152.0 * math.pi**3 / 5.0),
    ("BG_FLAT_N3_D4", 1.0, 432.0 * math.pi**2),
    ("BG_FLAT_N3_D5", 1.0, 75.0 * math.pi**3 / 4.0),
    ("BG_FLAT_N4_D4", -1.0, 9216.0 * math.pi**2 / 5.0),
]


@pytest.mark.parametrize("sid, alpha, q_exact", _Q_CLOSED_FORMS)
def test_pohozaev_q_closed_forms(sid, alpha, q_exact):
    fns = numeric.pohozaev_functionals(get_solution(sid), 0.0, alpha)
    assert fns.Q == pytest.approx(q_exact, rel=1e-8)


def test_pohozaev_q_over_alpha_and_scale():
    # |alpha| = 2^k, k in -30..30, where Q = q_exact / alpha^2
    # (u^2 scales as 1/alpha), and FLAT_CSV scaled by 2^e, e in -10..10,
    # whose Q at D = 6 does not change: Q's integral runs in units of the
    # scale, so its bits do not either
    for sid, sign, q_exact in _Q_CLOSED_FORMS:
        sol = get_solution(sid)
        for k in range(-30, 31):
            alpha = sign * 2.0**k
            q = numeric.pohozaev_functionals(sol, 0.0, alpha).Q
            assert abs(q * alpha**2 - q_exact) <= 1e-10 * q_exact, (sid, alpha, q)
    csv = get_solution("FLAT_CSV")
    base = numeric.pohozaev_functionals(csv, 0.0, -1.0).Q.hex()
    for e in range(-10, 11):
        assert numeric.pohozaev_functionals(scale_flat_solution(csv, 2.0**e), 0.0, -1.0).Q.hex() == base, e


def test_pohozaev_identities_skip_background_entries():
    # the identities are derived for rho = 0; a source adds terms they omit
    rep = numeric.pohozaev_check(get_solution("BG_FLAT_N3_D4"), 0.0, 1.0)
    assert rep.identities is None and rep.defect is None
    assert rep._asdict()["defect"] is None


def test_pohozaev_singular_profile_diverges():
    fns = numeric.pohozaev_functionals(get_solution("FLAT_SINGULAR_D6"), 0.0, -1.0)
    assert isinstance(fns.T, Divergent)
    # u^2 K r^(D-1) goes as 1/r at D = 6 (and 1/r^4 at D = 3): Q's one
    # integral diverges at the origin, though N at D = 6 diverges at infinity
    assert fns.N == Divergent("large-r")
    assert fns.Q == Divergent("small-r")
    fns = numeric.pohozaev_functionals(get_solution("FLAT_SINGULAR_D3"), 0.0, -1.0)
    assert fns.T == fns.N == fns.Q == Divergent("small-r")


@pytest.mark.parametrize("sid", ["FLAT_SINGULAR_D3", "FLAT_SINGULAR_D6"])
def test_pohozaev_check_of_divergent_functionals(sid):
    # a homogeneous entry whose functionals diverge has no identities, and
    # its defect is the divergence
    rep = numeric.pohozaev_check(get_solution(sid), 0.0, -1.0)
    assert rep.identities is None and rep.defect == Divergent("functionals")
    assert rep.T == Divergent("small-r") and rep.Q == Divergent("small-r")


def test_pohozaev_functionals_below_the_normal_doubles_raise():
    # Q goes as alpha^-2 and leaves the normal doubles from |alpha| about
    # 5.7e155 (FLAT_CSV): it underflowed to 0.0 and FLAT_CSV's exact
    # solution printed the defect 4.0
    for sid, alpha in (("FLAT_CSV", -1e200), ("FLAT_CSV", -6e155), ("BG_FLAT_N3_D4", 1e200)):
        with pytest.raises(ValueError, match=rf"^Q = \S+ is below the normal doubles at alpha = {re.escape(repr(alpha))}$"):
            numeric.pohozaev_functionals(get_solution(sid), 0.0, alpha)
    # and just inside, Q is still its closed form
    q = numeric.pohozaev_functionals(get_solution("FLAT_CSV"), 0.0, -1e155).Q
    assert q == pytest.approx(1152.0 * math.pi**3 / 5.0 * 1e-310, rel=1e-8)


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
    obj = rep._asdict()
    assert obj["passed"] is True and obj["grid"]["points"] > 0


def test_verify_divergent_mass_entry_passes():
    rep = numeric.verify_solution(get_solution("HYP_U2"), -1.0, -1.0)
    assert rep.passed
    assert isinstance(rep.mass_numeric, Divergent)


def test_verify_fails_a_finite_mass_that_quadrature_calls_divergent(monkeypatch):
    monkeypatch.setattr(numeric, "mass", lambda sol, kappa, alpha: Divergent("large-r"))
    sol = get_solution("HYP_U1")
    rep = numeric.verify_solution(sol, -1.0, sol.default_alpha)
    assert not rep.passed
    assert rep.mass_numeric == "divergent:large-r"
