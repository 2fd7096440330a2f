"""Reference values for the ccsp benchmark, computed without importing ccsp.

    python3 perfbench/reference.py      # rewrites perfbench/reference.json

The command derives everything the benchmark checks from first principles:

* the search itself, parametrically: for u = t^n in the base variable t
  (c = sqrt(1+r^2), r, C or S) the radial Laplacian is a second-order
  operator in t whose coefficients are polynomials in t, D and K = -kappa.
  sympy computes g = Lap(u)/u and G = Lap(g) once per basis with n and D
  as symbols; each (n, D) cell is then a substitution.  A cell is a hit
  when the coefficient of t^(2n) is one graded monomial X = q K^g != 0 and
  the rest of G vanishes (homogeneous) or is at most one monomial that
  becomes the source alpha*rho (background, regular u only);
* finite or divergent masses, from the leading exponent of u^2 S^(D-1) at
  each end of each smooth segment; the local order of every metric
  function at every end comes from sympy leading terms;
* closed-form masses as Beta integrals evaluated exactly by sympy, with
  each catalog entry's integral also checked against sympy's own
  `integrate`;
* the Pohozaev functionals of the four flat finite-mass entries: N and T
  from Beta integrals, Q from the energy form
  Q = |S^(D-1)| * integral M(r)^2 r^(1-D) dr with M the cumulative charge.

The module also holds the 50-digit mpmath residuals that confirm hits and
misses at check time; those use only the hit's (family, n, D, X, omega,
rho) and the metric functions.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import mpmath

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# The searched universe: every (family, regime, mode) the CLI accepts,
# n in [-64, 63] and D in [1, 64] (the CLI caps a window at 64 values).
N_RANGE = (-64, 63)
D_RANGE = (1, 64)
COMBOS = (
    ("flat-c", "flat", "homogeneous"),
    ("flat-c", "flat", "background"),
    ("flat-r", "flat", "homogeneous"),
    ("curved-c", "hyperbolic", "homogeneous"),
    ("curved-c", "hyperbolic", "background"),
    ("curved-c", "spherical", "homogeneous"),
    ("curved-c", "spherical", "background"),
    ("curved-s", "hyperbolic", "homogeneous"),
    ("curved-s", "hyperbolic", "background"),
    ("curved-s", "spherical", "homogeneous"),
    ("curved-s", "spherical", "background"),
)

# Catalog ids and the (family, regime, n, D, mode) cell each one is built
# from, as the catalog's documentation states them.  SPH_TRIVIAL is the
# constant profile u = 1, rho = -1 on the 3-sphere (no amplitude law).
CATALOG_CELLS = {
    "FLAT_CSV": ("flat-c", "flat", -4, 6, "homogeneous"),
    "FLAT_SINGULAR_D3": ("flat-r", "flat", -2, 3, "homogeneous"),
    "FLAT_SINGULAR_D6": ("flat-r", "flat", -2, 6, "homogeneous"),
    "BG_FLAT_N3_D4": ("flat-c", "flat", -3, 4, "background"),
    "BG_FLAT_N3_D5": ("flat-c", "flat", -3, 5, "background"),
    "BG_FLAT_N4_D4": ("flat-c", "flat", -4, 4, "background"),
    "HYP_U1": ("curved-c", "hyperbolic", -2, 3, "homogeneous"),
    "HYP_U2": ("curved-s", "hyperbolic", -2, 3, "homogeneous"),
    "HYP_U3": ("curved-s", "hyperbolic", -1, 4, "homogeneous"),
    "BG_HYP_N2_D1": ("curved-c", "hyperbolic", -2, 1, "background"),
    "BG_HYP_N2_D2": ("curved-c", "hyperbolic", -2, 2, "background"),
    "BG_HYP_N2_D4": ("curved-c", "hyperbolic", -2, 4, "background"),
    "BG_HYP_N2_D5": ("curved-c", "hyperbolic", -2, 5, "background"),
    "BG_HYP_N2_D6": ("curved-c", "hyperbolic", -2, 6, "background"),
    "BG_HYP_N1_D2": ("curved-c", "hyperbolic", -1, 2, "background"),
    "BG_HYP_N1_D4": ("curved-c", "hyperbolic", -1, 4, "background"),
    "BG_HYP_N1_D5": ("curved-c", "hyperbolic", -1, 5, "background"),
    "BG_HYP_N1_D6": ("curved-c", "hyperbolic", -1, 6, "background"),
    "BG_1D_SECH": ("curved-c", "hyperbolic", -1, 1, "background"),
    "SPH_U1": ("curved-c", "spherical", -2, 3, "homogeneous"),
    "SPH_U2": ("curved-s", "spherical", -2, 3, "homogeneous"),
    "SPH_U3": ("curved-s", "spherical", -1, 4, "homogeneous"),
    "SPH_TRIVIAL": ("curved-c", "spherical", 0, 3, None),
}

POHOZAEV_IDS = ("FLAT_CSV", "BG_FLAT_N3_D4", "BG_FLAT_N3_D5", "BG_FLAT_N4_D4")

# The homogeneous solutions the paper derives in closed form; the
# reference search must find exactly these in the universe.
CLOSED_FORM_HOMOGENEOUS = {
    "flat-c:flat:homogeneous": [(-4, 6)],
    "flat-r:flat:homogeneous": [(-2, d) for d in range(D_RANGE[0], D_RANGE[1] + 1) if d != 4],
    "curved-c:hyperbolic:homogeneous": [(-2, 3)],
    "curved-c:spherical:homogeneous": [(-2, 3)],
    "curved-s:hyperbolic:homogeneous": [(-2, 3), (-1, 4)],
    "curved-s:spherical:homogeneous": [(-2, 3), (-1, 4)],
}


def u_is_regular(family: str, regime: str, n: int) -> bool:
    """Does u = t^n stay finite on the closed radial domain?"""
    if n >= 0:
        return True
    return family == "flat-c" or (family == "curved-c" and regime == "hyperbolic")


def segment_ends(family: str, regime: str, n: int) -> list[str]:
    """Ends of the smooth segments of u, in radial order (shared ends repeat)."""
    if regime != "spherical":
        return ["origin", "infinity"]
    if family == "curved-c" and n < 0:
        return ["origin", "equator", "equator", "antipode"]
    return ["origin", "antipode"]


# -- exact search ----------------------------------------------------------


def _family_operator(family: str):
    """sympy symbols and Lap acting on functions of the base variable t."""
    import sympy as sp

    t = sp.Symbol("t", positive=True)
    n, D, K = sp.symbols("n D K")

    def lap(f):
        ft, ftt = sp.diff(f, t), sp.diff(f, t, 2)
        if family == "flat-c":  # t = c, r^2 = t^2 - 1
            return ftt * (t**2 - 1) / t**2 + ft * (1 / t**3 + (D - 1) / t)
        if family == "flat-r":  # t = r
            return ftt + (D - 1) * ft / t
        if family == "curved-c":  # t = C, C' = K S, K S^2 = C^2 - 1
            return K * ((t**2 - 1) * ftt + D * t * ft)
        # curved-s: t = S, S' = C, C^2 = 1 + K S^2
        return (1 + K * t**2) * ftt + K * t * ft + (D - 1) * (1 + K * t**2) * ft / t

    return sp, t, n, D, K, lap


def _laurent(sp, expr, t):
    """{power of t: coefficient} of a Laurent polynomial in t."""
    expr = sp.expand(sp.powsimp(sp.expand(expr), force=True))
    out: dict[int, object] = {}
    for term in sp.Add.make_args(expr):
        coeff, power = term.as_coeff_exponent(t)
        if coeff.has(t) or not power.is_Integer:
            raise ValueError(f"not a Laurent monomial in t: {term}")
        out[int(power)] = out.get(int(power), 0) + coeff
    return {p: c for p, c in out.items() if sp.expand(c) != 0}


def _poly_terms(sp, coeff, n, D, K):
    """coefficient -> [(K power, n power, D power, Fraction)]"""
    poly = sp.Poly(sp.expand(coeff), K, n, D)
    return [(k, a, b, Fraction(int(c.p), int(c.q))) for (k, a, b), c in poly.terms()]


def family_tables(family: str) -> dict:
    """g = Lap(t^n)/t^n and G = Lap(g) as {t power: polynomial terms}."""
    sp, t, n, D, K, lap = _family_operator(family)
    g = sp.expand(sp.powsimp(lap(t**n) / t**n, force=True))
    g_coeffs = _laurent(sp, g, t)
    big_g = sum(c * t**p for p, c in g_coeffs.items())
    G_coeffs = _laurent(sp, lap(big_g), t)
    return {
        "g": {p: _poly_terms(sp, c, n, D, K) for p, c in g_coeffs.items()},
        "G": {p: _poly_terms(sp, c, n, D, K) for p, c in G_coeffs.items()},
    }


def _graded(terms, n0: int, d0: int) -> dict[int, Fraction]:
    """Evaluate polynomial terms at (n0, d0): {K power: coefficient}."""
    out: dict[int, Fraction] = {}
    for k, a, b, c in terms:
        out[k] = out.get(k, Fraction(0)) + c * n0**a * d0**b
    return {k: v for k, v in out.items() if v != 0}


def evaluate_cell(tables: dict, family: str, regime: str, mode: str, n0: int, d0: int):
    """The exact outcome of one search cell: None (miss) or the hit data."""
    flat = regime == "flat"
    graded = {p: _graded(terms, n0, d0) for p, terms in tables["G"].items()}
    if flat and any(k for c in graded.values() for k in c):
        raise AssertionError("curvature grade in a flat family")
    at_u2 = graded.get(2 * n0, {})
    if len(at_u2) > 1:
        return None  # mixed curvature grades: no single X cancels them
    rest = [(p, k, c) for p, cs in graded.items() if p != 2 * n0 for k, c in cs.items()]
    if mode == "homogeneous":
        if rest:
            return None
    else:
        if not u_is_regular(family, regime, n0) or len(rest) > 1:
            return None
    if not at_u2:
        return None  # forced amplitude is zero
    (g_pow, coef), = at_u2.items()
    omega = _graded(tables["g"].get(0, []), n0, d0)
    (w_pow, w_coef), = omega.items() if omega else ((0, Fraction(0)),)
    return {
        "n": n0,
        "dim": d0,
        "x": [str(-coef), g_pow],
        "omega": [str(-w_coef), w_pow],
        # rho = -rest/alpha; stored as alpha*rho monomials (coef, t power, K power)
        "alpha_rho": [[str(-c), p, k] for p, k, c in sorted(rest)],
    }


def universe_hits(tables_by_family: dict) -> dict[str, list[dict]]:
    hits = {}
    for family, regime, mode in COMBOS:
        tables = tables_by_family[family]
        found = []
        for n0 in range(N_RANGE[0], N_RANGE[1] + 1):
            for d0 in range(D_RANGE[0], D_RANGE[1] + 1):
                cell = evaluate_cell(tables, family, regime, mode, n0, d0)
                if cell is not None:
                    found.append(cell)
        hits[combo_key(family, regime, mode)] = found
    return hits


def combo_key(family: str, regime: str, mode: str) -> str:
    return f"{family}:{regime}:{mode}"


# -- finiteness and masses ---------------------------------------------------


def local_orders() -> dict:
    """Leading order of t (per family) and of S at each end, from sympy.

    Finite ends give the power p in (distance to the end)^p; the flat end at
    infinity gives the power of r; the hyperbolic end gives the exponential
    rate in units of sqrt(-kappa).
    """
    import sympy as sp

    r, x = sp.symbols("r x", positive=True)
    fns = {
        "flat": {"S": r, "flat-c": sp.sqrt(1 + r**2), "flat-r": r},
        "hyperbolic": {"S": sp.sinh(r), "curved-c": sp.cosh(r), "curved-s": sp.sinh(r)},
        "spherical": {"S": sp.sin(r), "curved-c": sp.cos(r), "curved-s": sp.sin(r)},
    }
    ends = {
        "flat": {"origin": 0, "infinity": None},
        "hyperbolic": {"origin": 0, "infinity": None},
        "spherical": {"origin": 0, "equator": sp.pi / 2, "antipode": sp.pi},
    }
    out: dict = {}
    for regime, named in fns.items():
        for end, at in ends[regime].items():
            for name, f in named.items():
                if at is None and regime == "flat":
                    lead = sp.simplify(f.subs(r, 1 / x)).as_leading_term(x)
                    order = -int(lead.as_coeff_exponent(x)[1])
                elif at is None:
                    order = int(sp.limit(sp.log(f) / r, r, sp.oo))
                else:
                    step = x if at == 0 else -x
                    lead = f.subs(r, at + step).as_leading_term(x)
                    order = int(lead.as_coeff_exponent(x)[1])
                out[f"{regime}:{end}:{name}"] = order
    return out


def divergent_ends(orders: dict, family: str, regime: str, n0: int, d0: int) -> list[str]:
    """Ends where u^2 S^(D-1) = t^(2n) S^(D-1) fails to be integrable."""
    bad = []
    for end in dict.fromkeys(segment_ends(family, regime, n0)):
        p = 2 * n0 * orders[f"{regime}:{end}:{family}"] + (d0 - 1) * orders[f"{regime}:{end}:S"]
        if end != "infinity":
            ok = p > -1
        elif regime == "flat":
            ok = p < -1
        else:
            ok = p < 0
        if not ok:
            bad.append(end)
    return bad


def radial_integral(family: str, regime: str, n0: int, d0: int):
    """integral of t^(2n) S^(D-1) dr at |kappa| = 1, as an exact sympy number."""
    import sympy as sp

    half = sp.Rational(1, 2)
    a, b = d0 - 1, 2 * n0
    if family == "flat-c":  # r^a (1+r^2)^(b/2)
        return half * sp.beta(sp.Rational(a + 1, 2), -sp.Rational(a + b + 1, 2))
    if regime == "hyperbolic" and family == "curved-c":  # sinh^a cosh^b
        return half * sp.beta(sp.Rational(a + 1, 2), -sp.Rational(a + b, 2))
    if regime == "spherical" and family == "curved-c":  # sin^a cos^b on [0, pi]
        return sp.beta(sp.Rational(a + 1, 2), sp.Rational(b + 1, 2))
    if regime == "spherical" and family == "curved-s":  # sin^(a+b) on [0, pi]
        return sp.beta(sp.Rational(a + b + 1, 2), half)
    raise ValueError(f"no finite mass for {family} in the {regime} regime")


def radial_integral_direct(family: str, regime: str, n0: int, d0: int):
    """The same integral through sympy's integrate, as a cross-check."""
    import sympy as sp

    r = sp.symbols("r", positive=True)
    if regime == "hyperbolic":  # finite masses here are curved-c: sinh^a cosh^b
        # t = tanh(r) turns sinh^a cosh^b dr into t^a (1-t^2)^(-(a+b+2)/2) dt
        a, b = d0 - 1, 2 * n0
        return sp.integrate(r**a * (1 - r**2) ** sp.Rational(-(a + b + 2), 2), (r, 0, 1))
    if regime == "flat":
        return sp.integrate(r ** (d0 - 1) * (1 + r**2) ** n0, (r, 0, sp.oo))
    t = sp.cos(r) if family == "curved-c" else sp.sin(r)
    return sp.integrate(sp.sin(r) ** (d0 - 1) * t ** (2 * n0), (r, 0, sp.pi))


def _exact_str(sp, value) -> str:
    return str(sp.gammasimp(sp.expand_func(value)))


def sphere_area(dim: int):
    import sympy as sp

    return 2 * sp.pi ** sp.Rational(dim, 2) / sp.gamma(sp.Rational(dim, 2))


def cell_mass(orders: dict, family: str, regime: str, n0: int, d0: int, x_coef: Fraction, x_pow: int):
    """Mass data of u = A t^n with alpha*A^2 = x_coef*K^x_pow.

    N(kappa, alpha) = mass1 * |kappa|^(lam_pow/2) / |alpha|^alpha_pow, or
    divergent at the listed ends.
    """
    bad = divergent_ends(orders, family, regime, n0, d0)
    out = {"divergent_ends": bad, "mass1": None, "lam_pow": 0, "alpha_pow": 1}
    if bad:
        return out
    import sympy as sp

    exact = sphere_area(d0) * abs(sp.Rational(x_coef.numerator, x_coef.denominator)) * radial_integral(
        family, regime, n0, d0
    )
    out["mass1"] = float(sp.N(exact, 30))
    out["mass1_exact"] = _exact_str(sp, exact)
    # r -> s/lam: |X| carries lam^(2 x_pow), the integral lam^-D, and t = S
    # one more lam^(-2n)
    if regime != "flat":
        out["lam_pow"] = 2 * x_pow - d0 - (2 * n0 if family == "curved-s" else 0)
    return out


def pohozaev_reference(n0: int, d0: int, x_coef: Fraction) -> dict:
    """T, N, Q at |alpha| = 1 for u = A c^n in flat D dimensions, alpha*A^2 = x_coef."""
    import sympy as sp

    area = sphere_area(d0)
    amp_sq = abs(sp.Rational(x_coef.numerator, x_coef.denominator))
    half = sp.Rational(1, 2)
    n_val = area * amp_sq * half * sp.beta(sp.Rational(d0, 2), -sp.Rational(2 * n0 + d0, 2))
    # u' = A n r c^(n-2): |grad u|^2 r^(D-1) = A^2 n^2 r^(D+1) (1+r^2)^(n-2)
    t_val = area * amp_sq * n0**2 * half * sp.beta(
        sp.Rational(d0 + 2, 2), -sp.Rational(2 * (n0 - 2) + d0 + 2, 2)
    )
    with mpmath.workdps(30):

        def charge(x):
            return mpmath.quad(lambda y: y ** (d0 - 1) * (1 + y * y) ** n0, [0, x])

        q_radial = mpmath.quad(lambda x: charge(x) ** 2 * x ** (1 - d0), [0, 1, 10, mpmath.inf])
        q_val = mpmath.mpf(sp.N(area * amp_sq**2, 30)) * q_radial
        return {
            "T1": float(sp.N(t_val, 30)),
            "N1": float(sp.N(n_val, 30)),
            "Q1": float(q_val),
            "T1_exact": _exact_str(sp, t_val),
            "N1_exact": _exact_str(sp, n_val),
        }


# -- the command -------------------------------------------------------------


def build() -> dict:
    tables = {f: family_tables(f) for f in ("flat-c", "flat-r", "curved-c", "curved-s")}
    orders = local_orders()
    hits = universe_hits(tables)
    for key, cells in CLOSED_FORM_HOMOGENEOUS.items():
        if sorted((h["n"], h["dim"]) for h in hits[key]) != sorted(cells):
            raise AssertionError(f"{key}: the reference search disagrees with the closed forms")
    for key, found in hits.items():
        family, regime, _ = key.split(":")
        for h in found:
            xc = Fraction(h["x"][0])
            h["mass"] = cell_mass(orders, family, regime, h["n"], h["dim"], xc, h["x"][1])

    catalog = {}
    for cid, (family, regime, n0, d0, mode) in CATALOG_CELLS.items():
        if mode is None:  # the constant sphere profile: u = 1 for either sign
            xc, xp, sign = Fraction(1), 0, "any"
            mass = cell_mass(orders, family, regime, n0, d0, xc, xp)
            mass["alpha_pow"] = 0
        else:
            cell = evaluate_cell(tables[family], family, regime, mode, n0, d0)
            if cell is None:
                raise AssertionError(f"{cid}: the reference search finds no solution")
            xc, xp = Fraction(cell["x"][0]), cell["x"][1]
            k_sign = -1 if regime == "spherical" else 1
            x_sign = (1 if xc > 0 else -1) * (k_sign**xp)
            sign = "repulsive" if x_sign > 0 else "attractive"
            mass = cell_mass(orders, family, regime, n0, d0, xc, xp)
        if mass["mass1"] is not None:
            import sympy as sp

            direct = radial_integral_direct(family, regime, n0, d0)
            beta = radial_integral(family, regime, n0, d0)
            if abs(float(sp.N(direct - beta, 30))) > 1e-25:
                raise AssertionError(f"{cid}: Beta integral {beta} != integrate {direct}")
        catalog[cid] = {"regime": regime, "dim": d0, "alpha_sign": sign, **mass}

    pohozaev = {}
    for cid in POHOZAEV_IDS:
        family, regime, n0, d0, mode = CATALOG_CELLS[cid]
        cell = evaluate_cell(tables[family], family, regime, mode, n0, d0)
        pohozaev[cid] = pohozaev_reference(n0, d0, Fraction(cell["x"][0]))

    return {
        "universe": {"n": list(N_RANGE), "dim": list(D_RANGE)},
        "hits": hits,
        "catalog": catalog,
        "pohozaev": pohozaev,
    }


def load() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# -- 50-digit residuals ------------------------------------------------------

_DPS = 50
_RESIDUAL_TOL = mpmath.mpf(10) ** -25
_RADII = {"flat": (0.5, 1.25, 2.5), "hyperbolic": (0.5, 1.25, 2.5), "spherical": (0.3, 0.7, 1.1)}


def _metric(family: str, regime: str, kappa):
    """(t, t', t'', S, C, odd factor) at r for curvature kappa."""
    big_k = -kappa
    lam = mpmath.sqrt(abs(kappa)) if regime != "flat" else mpmath.mpf(1)

    def fns(r):
        if regime == "flat":
            s, c = r, mpmath.mpf(1)
        elif regime == "hyperbolic":
            s, c = mpmath.sinh(lam * r) / lam, mpmath.cosh(lam * r)
        else:
            s, c = mpmath.sin(lam * r) / lam, mpmath.cos(lam * r)
        if family == "flat-c":
            t = mpmath.sqrt(1 + r * r)
            return t, r / t, 1 / t**3, s, c, r
        if family == "flat-r":
            return r, mpmath.mpf(1), mpmath.mpf(0), s, c, mpmath.mpf(1)
        if family == "curved-c":
            return c, big_k * s, big_k * c, s, c, s
        return s, c, big_k * s, s, c, c

    return fns


def _lap_over_u(family, regime, n, dim, kappa):
    fns = _metric(family, regime, kappa)

    def g(r):
        t, t1, t2, s, c, _ = fns(r)
        val = n * (n - 1) * (t1 / t) ** 2 + n * t2 / t
        if dim > 1:
            val += (dim - 1) * (c / s) * n * t1 / t
        return val

    return fns, g


def _geometry(family, regime, n, dim, kappa, r):
    """(G(r) = Lap(Lap(u)/u), t(r), odd factor) by 50-digit differentiation."""
    fns, g = _lap_over_u(family, regime, n, dim, kappa)
    t, _, _, s, c, odd = fns(r)
    big_g = mpmath.diff(g, r, 2)
    if dim > 1:
        big_g += (dim - 1) * (c / s) * mpmath.diff(g, r, 1)
    return big_g, t, odd


def _test_kappas(regime: str):
    return {"flat": (0,), "hyperbolic": (-1, -2), "spherical": (1, 2)}[regime]


def hit_residual_problems(family: str, regime: str, hit: dict) -> list[str]:
    """Confirm one program hit: Lap(Lap(u)/u) + X t^(2n) + alpha*rho = 0,
    the sign of alpha and (away from the sphere) omega = -lim Lap(u)/u."""
    problems = []
    n, dim = int(hit["n"]), int(hit["dim"])
    xc, xp = Fraction(hit["x_law"]["coef"]), int(hit["x_law"]["kappa_pow"])
    wc, wp = Fraction(hit["omega"]["coef"]), int(hit["omega"]["kappa_pow"])
    with mpmath.workdps(_DPS):
        for kappa in _test_kappas(regime):
            big_k = mpmath.mpf(-kappa)
            x = mpmath.mpf(xc.numerator) / xc.denominator * big_k**xp
            alpha = 1 if x > 0 else -1
            if (alpha < 0) != (hit["alpha_sign"] == "attractive"):
                problems.append(f"alpha sign {hit['alpha_sign']} but X = {mpmath.nstr(x, 8)}")
            amp = mpmath.sqrt(x / alpha)
            for r in _RADII[regime]:
                r = mpmath.mpf(r)
                big_g, t, odd = _geometry(family, regime, n, dim, kappa, r)
                x_term = x * t ** (2 * n)
                rho_term = mpmath.mpf(0)
                for m in hit["rho"]["terms"]:
                    cf = Fraction(m["coeff"])
                    rho_term += (
                        mpmath.mpf(cf.numerator) / cf.denominator
                        * t ** int(m["base"]) * odd ** int(m["odd"]) * big_k ** int(m["kappa"])
                        * mpmath.mpf(alpha) ** (int(m["alpha"]) + 1) * amp ** int(m["amp"])
                    )
                res = big_g + x_term + rho_term
                scale = max(abs(big_g), abs(x_term), abs(rho_term), mpmath.mpf(1) * 10**-30)
                if abs(res) > _RESIDUAL_TOL * scale:
                    problems.append(
                        f"Poisson residual {mpmath.nstr(res / scale, 5)} at kappa={kappa}, r={mpmath.nstr(r, 6)}"
                    )
            if regime != "spherical":
                _, g = _lap_over_u(family, regime, n, dim, kappa)
                far = mpmath.mpf(10) ** 30 if regime == "flat" else 80 / mpmath.sqrt(-kappa)
                omega = mpmath.mpf(wc.numerator) / wc.denominator * big_k**wp
                if abs(g(far) + omega) > _RESIDUAL_TOL * max(1, abs(omega)):
                    problems.append(f"omega {mpmath.nstr(omega, 8)} != -lim Lap(u)/u at kappa={kappa}")
    return problems


def miss_confirmed(family: str, regime: str, n: int, dim: int) -> bool:
    """True when no single X makes Lap(Lap(u)/u) + X t^(2n) vanish on the
    test radii at every test curvature (or only X = 0 does)."""
    with mpmath.workdps(_DPS):
        for kappa in _test_kappas(regime):
            xs = []
            for r in _RADII[regime]:
                big_g, t, _ = _geometry(family, regime, n, dim, kappa, mpmath.mpf(r))
                xs.append(-big_g / t ** (2 * n))
            spread = max(abs(a - xs[0]) for a in xs)
            size = max(abs(a) for a in xs)
            if size == 0 or spread > _RESIDUAL_TOL * size:
                return True
            if size < _RESIDUAL_TOL:
                return True  # X = 0 is forced: no nontrivial amplitude
    return False


def main() -> int:
    ref = build()
    text = json.dumps(ref, indent=1, sort_keys=True)
    REFERENCE_PATH.write_text(text + "\n")
    total = sum(len(v) for v in ref["hits"].values())
    print(f"wrote {REFERENCE_PATH.name}: {total} hits, {len(ref['catalog'])} catalog entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
