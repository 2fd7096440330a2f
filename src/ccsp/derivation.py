"""Closed-form ansatz search for the stationary radial system.

For a trial profile u = A * base(r)^n the potential is eliminated through

    alpha*V - omega = Lap(u)/u,

and the remaining Poisson equation -Lap(V) = u^2 (+ rho) becomes an exact
polynomial identity in the basis monomials.  Writing X = alpha*A^2, the
identity is linear in X: the residual is

    R = X * base^(2n) + Lap(Lap(u)/u),

and a candidate (n, D) is a solution exactly when X can cancel one
monomial of the geometric part and the rest vanishes (homogeneous mode) or
is simple enough to serve as a background source rho (background mode).
Everything here is exact rational arithmetic; hits report amplitude laws as
graded rationals X = q * (-kappa)^g, whose sign fixes the sign of alpha.

The search never rebuilds Lap(Lap(u)/u) cell by cell.  The Laplacian is
d^2 + m T^-1 d with m = D - 1, linear in m, so with a = (u'')/u and
b = (T^-1 u')/u

    Lap(u)/u = a + m b,
    G = Lap(Lap(u)/u) = A0 + m A1 + m^2 A2,
    A0 = a'',  A1 = T^-1 a' + b'',  A2 = T^-1 b',

and (a, b, A0, A1, A2) are computed once per (family, n).  For u = base^n
the base powers of a, b and G do not depend on n (dividing by u removes
it), and their coefficients are polynomials of degree at most 2 in n.  A
hit needs X != 0, so the u^2 power base^(2n) must be one of G's powers:
n = p/2 for p in the fixed support P of G, which is the union of the
supports of A0, A1, A2 at any three distinct n (a nonzero polynomial of
degree 2 has at most two roots).  P/2 is {-4, -3, -2} for flat-c, {-2} for
flat-r and {-2, -1} for curved-c and curved-s; the searches evaluate only
the cells with n in that set.

Every dimension is classified at once.  At a fixed n each coefficient of G,
one per monomial key, is a polynomial c0 + c1 m + c2 m^2 in m = D - 1 (the
coefficients of that key in A0, A1, A2).  Let E be the set of integers
m >= 0 at which some coefficient polynomial that is not identically zero
has a root; the roots are found exactly over Q.  A polynomial that is
identically zero gives no monomial at any D, and off E every other one is
nonzero, so G has the same monomials at every D with D - 1 outside E.  A
cell's verdict is read off those monomials alone: whether the u^2 power
is present, the leftover and its monomial count (the rho terms), and
X != 0; whether u has poles does not depend on D.
So every D with D - 1 outside E has one status, the generic status, which
one evaluation at such a D gives.  The search evaluates only the cells
with D - 1 in E, or every cell of the row when the generic status is a
hit (flat-r n = -2 and the curved-c hyperbolic background rows), so every
hit is still built cell by cell.  In every row E has at most two values;
flat-c n = -4 has
G = 8(m - 3)(m - 5) t^-4 + (128m - 640) t^-6 + 576 t^-8, so E = {3, 5}.

One X always suffices at the u^2 power, because G carries one grade per
power of the basis.  G = Lap(Lap(u)/u) has dimension length^-4 and u's
amplitude cancels in it, so no term has an alpha or amplitude grade.  The
flat bases carry no curvature grade at all.  In the curved bases S has
dimension length while C and (-kappa) S^2 are dimensionless, so a term
C^b S^o (-kappa)^k (curved-c) needs k = (o + 4)/2 and a term
S^b C^o (-kappa)^k (curved-s) needs k = (b + 4)/2: the (-kappa) power is
fixed by the S power, and at most one term sits at the u^2 power.

Masses and frequencies come from the exponents as well.  The mass of a
hit is a half-Beta integral fixed by (family, n, D, regime) and X (see
`exact_mass`), and since Lap(u)/u has only even terms with non-positive
base powers, omega is minus its constant term in every regime.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import cache
from typing import NamedTuple, Optional, Sequence

from .geometry import Regime, sphere_area
from .symbolic import Basis, Graded, RadialExpr, ZERO_GRADED, json_int

__all__ = [
    "AnsatzFamily",
    "AlphaSign",
    "DerivationHit",
    "GradedMass",
    "CandidateStatus",
    "Candidate",
    "potential_term",
    "omega_of",
    "evaluate_candidate",
    "exact_mass",
    "solve_homogeneous",
    "solve_background",
    "solution_exprs",
    "resubstitution_defects",
]

_MAX_RANGE = 64
_MODES = ("homogeneous", "background")


class AlphaSign(str, Enum):
    ATTRACTIVE = "attractive"  # alpha < 0
    REPULSIVE = "repulsive"    # alpha > 0


class AnsatzFamily(NamedTuple):
    """A trial-profile family together with its integer exponent."""

    family: Basis
    n: int


def omega_json(omega: Graded, regime: Regime) -> dict:
    """omega with its `conventional` flag: on the sphere there is no
    r -> infinity limit, and omega is the constant split of Lap(u)/u by
    convention.  Readers take the graded value and ignore the flag."""
    return {**omega.to_json_obj(), "conventional": regime is Regime.SPHERICAL}


class CandidateStatus(str, Enum):
    HIT = "hit"
    LEFTOVER_TERMS = "leftover-terms"     # homogeneous: terms off the u^2 power remain
    NO_SOLUTION = "no-solution"           # forced amplitude A^2 = 0, or no u^2 term at all
    RHO_TOO_COMPLEX = "rho-too-complex"   # background: too many source monomials
    SINGULAR_U = "singular-u"             # background: profile has poles


class DerivationHit(NamedTuple):
    """One verified (family, n, D) solution of the matching problem."""

    family: Basis
    n: int
    dim: int
    regime: Regime
    mode: str                      # "homogeneous" | "background"
    x_law: Optional[Graded]        # X = alpha * A^2, exact; None: amplitude-free
    omega: Graded
    rho: RadialExpr                # empty in homogeneous mode

    @property
    def alpha_sign(self) -> Optional[AlphaSign]:
        """The coupling sign that makes A^2 = X/alpha positive: the sign of
        X in the regime.  None for an amplitude-free solution, which works
        with either sign."""
        if self.x_law is None:
            return None
        return AlphaSign.REPULSIVE if self.x_law.sign(self.regime) > 0 else AlphaSign.ATTRACTIVE

    @property
    def default_alpha(self) -> float:
        """Unit coupling of the required sign; attractive when either works."""
        return 1.0 if self.alpha_sign is AlphaSign.REPULSIVE else -1.0

    def amp_sq_value(self, kappa: float, alpha: float) -> float:
        """Numeric A^2 = X/alpha (1 when amplitude-free); raises if alpha is
        zero or not finite, if the signs are incompatible, or if X or A^2
        leaves the doubles: X's power of kappa overflows or underflows to 0
        (|kappa| past about 1e154 or below about 1e-162 where X holds
        (-kappa)^2), or A^2 does (|alpha| below about |X| / 1.8e308, or
        far above |X|)."""
        if alpha == 0 or not math.isfinite(alpha):
            raise ValueError("alpha must be finite and nonzero")
        if self.x_law is None:
            return 1.0
        x = self.x_law.evaluate(-kappa)
        amp_sq = x / alpha
        # the sign bit of X/alpha survives overflow and underflow to 0
        if math.copysign(1.0, amp_sq) < 0:
            raise ValueError(
                f"alpha = {alpha} gives A^2 = {amp_sq} <= 0; "
                f"this solution requires the {self.alpha_sign.value} sign"
            )
        fault = "underflows to 0" if amp_sq == 0 else "is not finite"
        if x == 0 or not math.isfinite(x):
            raise ValueError(f"kappa = {kappa} gives {self.amp_sq_str()} = {amp_sq}, which {fault}")
        if amp_sq == 0 or not math.isfinite(amp_sq):
            raise ValueError(f"alpha = {alpha} gives A^2 = {amp_sq}, which {fault}")
        return amp_sq

    def amp_sq_str(self) -> str:
        if self.x_law is None:
            return "amplitude-free"
        denom = "(-alpha)" if self.alpha_sign is AlphaSign.ATTRACTIVE else "alpha"
        coef = -self.x_law.coef if self.alpha_sign is AlphaSign.ATTRACTIVE else self.x_law.coef
        lead = Graded(coef, self.x_law.kappa)
        return f"A^2 = {lead}/{denom}"

    def sort_key(self):
        return (self.family.value, self.mode, self.n, self.dim)

    def to_json_obj(self) -> dict:
        return {
            "family": self.family.value,
            "n": self.n,
            "dim": self.dim,
            "regime": self.regime.value,
            "mode": self.mode,
            "x_law": None if self.x_law is None else self.x_law.to_json_obj(),
            "alpha_sign": self.alpha_sign.value if self.alpha_sign else "any",
            "amp_sq": self.amp_sq_str(),
            "omega": omega_json(self.omega, self.regime),
            "rho": self.rho.to_json_obj(),
            "notes": "",  # a hit has none; the key keeps derive's JSON stable
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "DerivationHit":
        """A hit from its `to_json_obj` form; a malformed field raises
        TypeError or ValueError (a missing one KeyError), and so does a
        homogeneous hit with a source."""
        mode, notes = obj["mode"], obj.get("notes", "")
        _check_mode(mode)
        if type(notes) is not str:
            raise TypeError(f"notes must be a string, got {notes!r}")
        hit = cls(
            family=Basis(obj["family"]),
            n=json_int(obj["n"]),
            dim=json_int(obj["dim"]),
            regime=Regime(obj["regime"]),
            mode=mode,
            x_law=None if obj["x_law"] is None else Graded.from_json_obj(obj["x_law"]),
            omega=Graded.from_json_obj(obj["omega"]),
            rho=RadialExpr.from_json_obj(obj["rho"]),
        )
        if mode == "homogeneous" and not hit.rho.is_zero:  # the search never writes one
            raise ValueError(f"a homogeneous hit has the source rho = {hit.rho}")
        return hit


class Candidate(NamedTuple):
    """Outcome of evaluating one (family, n, D) cell of the search grid."""

    status: CandidateStatus
    hit: Optional[DerivationHit] = None
    detail: str = ""


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")


def _check_search(family: Basis, regime: Regime, mode: str, max_rho_terms: int) -> None:
    family.check_regime(regime)
    _check_mode(mode)
    if mode == "background" and family is Basis.FLAT_R:
        raise ValueError("pure power-of-r profiles are homogeneous-search only")
    if max_rho_terms < 0:
        raise ValueError(f"max_rho_terms must be >= 0, got {max_rho_terms}")


@cache
def _potential_parts(fam: AnsatzFamily) -> tuple[RadialExpr, RadialExpr]:
    """(a, b) with Lap(u)/u = a + (D-1) b: a = u''/u, b = (u'/T)/u."""
    shape = RadialExpr.monomial(fam.family, 1, base=fam.n)
    return tuple(part.div_monomial(shape) for part in shape.laplacian_parts())


@cache
def _geometry_parts(fam: AnsatzFamily) -> tuple[RadialExpr, RadialExpr, RadialExpr]:
    """(A0, A1, A2) with Lap(Lap(u)/u) = A0 + (D-1) A1 + (D-1)^2 A2."""
    (a2, a_t), (b2, b_t) = (part.laplacian_parts() for part in _potential_parts(fam))
    return a2, a_t + b2, b_t


def _at_dimension(parts: tuple[RadialExpr, ...], dim: int) -> RadialExpr:
    """sum_k (D-1)^k parts[k]."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    m = dim - 1
    total = parts[0]
    for k, part in enumerate(parts[1:], start=1):
        total = total + m**k * part
    return total


@cache
def _candidate_exponents(family: Basis) -> frozenset[int]:
    """Every n for which some dimension can give a hit: n = p/2 for the
    even powers p of G's fixed support (see the module docstring)."""
    support = {
        t.base
        for n in (1, 2, 3)
        for part in _geometry_parts(AnsatzFamily(family, n))
        for t in part.terms
        if t.odd == 0
    }
    return frozenset(p // 2 for p in support if p % 2 == 0)


def potential_term(fam: AnsatzFamily, regime: Regime, dim: int) -> RadialExpr:
    """Lap(u)/u for the trial profile: equals alpha*V - omega exactly."""
    fam.family.check_regime(regime)
    return _at_dimension(_potential_parts(fam), dim)


def omega_of(fam: AnsatzFamily, regime: Regime, dim: int) -> Graded:
    """Frequency: minus the constant term of Lap(u)/u.

    Lap(u)/u has only even terms with non-positive base powers, so off the
    sphere this is -lim_{r->inf} Lap(u)/u (zero for the flat families).  On
    the sphere there is no such limit and the same constant split is the
    convention (see `omega_json`).
    """
    const = [t for t in potential_term(fam, regime, dim).terms if t.base == 0]
    return Graded(-const[0].coeff, const[0].kappa) if const else ZERO_GRADED


def _geometry_part(fam: AnsatzFamily, dim: int) -> RadialExpr:
    # alpha*Lap(V) = Lap(Lap(u)/u): the constant omega drops under Lap.
    return _at_dimension(_geometry_parts(fam), dim)


# zeros of the base function on the closed domain, keyed like _MASS_BETA:
# there u = base^n with n < 0 has its poles
_BASE_ZEROS = {
    (Basis.FLAT_R, Regime.FLAT): ("origin",),
    (Basis.CURVED_C, Regime.SPHERICAL): ("equator",),
    (Basis.CURVED_S, Regime.HYPERBOLIC): ("origin",),
    (Basis.CURVED_S, Regime.SPHERICAL): ("origin", "antipode"),
}


def singular_radius_tags(fam: AnsatzFamily, regime: Regime) -> tuple[str, ...]:
    """Symbolic labels of the genuine poles of u = base^n."""
    return _BASE_ZEROS.get((fam.family, regime), ()) if fam.n < 0 else ()


class GradedMass(NamedTuple):
    """Exact closed-form mass: coef * S_sub * pi^p * |kappa|^(k2/2) * |alpha|^a.

    sphere_sub is the subscript of the unit-sphere area factor (S_5 for six
    ambient dimensions), or None when no sphere factor is included (the
    radial-integral convention).
    """

    coef: Fraction
    sphere_sub: Optional[int] = None
    pi_pow: int = 0
    kappa_pow2: int = 0
    alpha_pow: int = -1

    def value(self, kappa: float, alpha: float) -> float:
        """The float value; inf where a float power overflows."""
        v = float(self.coef)
        if self.sphere_sub is not None:
            v *= sphere_area(self.sphere_sub + 1)
        try:
            return v * math.pi**self.pi_pow * abs(kappa) ** (self.kappa_pow2 / 2.0) * abs(alpha) ** self.alpha_pow
        except OverflowError:
            return math.inf

    def to_json_obj(self) -> dict:
        return {
            "coef": str(self.coef),
            "sphere_sub": self.sphere_sub,
            "pi_pow": self.pi_pow,
            "kappa_pow2": self.kappa_pow2,
            "alpha_pow": self.alpha_pow,
        }


_HALF = Fraction(1, 2)

# int u^2 S^(D-1) dr = |X/alpha| f B(x, y) lambda^p with lambda = |kappa|^(1/2);
# (x, y, f, p) from (n, h = D/2).  flat-r and hyperbolic curved-s are never
# integrable: S^(2n+D-1) fails at the origin or at infinity.
_MASS_BETA = {
    (Basis.FLAT_C, Regime.FLAT): lambda n, h: (h, -n - h, _HALF, 0),
    (Basis.CURVED_C, Regime.HYPERBOLIC): lambda n, h: (h, _HALF - n - h, _HALF, -2 * h),
    (Basis.CURVED_C, Regime.SPHERICAL): lambda n, h: (n + _HALF, h, 1, -2 * h),
    (Basis.CURVED_S, Regime.SPHERICAL): lambda n, h: (_HALF, n + h, 1, -2 * (n + h)),
}


def _gamma_half(z: Fraction) -> tuple[Fraction, int]:
    """Gamma(z) for z in Z/2, z > 0, as (q, k) with Gamma(z) = q sqrt(pi)^k."""
    if z.denominator == 1:
        return Fraction(math.factorial(int(z) - 1)), 0
    k = int(z - _HALF)
    return Fraction(math.factorial(2 * k), 4**k * math.factorial(k)), 1


def exact_mass(hit: DerivationHit, sphere_factor: bool = True) -> Optional[GradedMass]:
    """Closed-form mass int u^2 dvol of a hit, or None where it diverges.

    The integral is finite exactly when both Beta arguments are positive.
    They are half-integers, so B(x, y) is a rational times pi^0 or pi^1.
    Without `sphere_factor` the mass is the bare radial integral.  An
    amplitude-free hit has A = 1: X = 1 and no power of alpha.
    """
    rule = _MASS_BETA.get((hit.family, hit.regime))
    if rule is None:
        return None
    x, y, f, p = rule(hit.n, Fraction(hit.dim, 2))
    if x <= 0 or y <= 0:
        return None
    (gx, kx), (gy, ky), (gxy, kxy) = (_gamma_half(z) for z in (x, y, x + y))
    x_law = Graded(Fraction(1)) if hit.x_law is None else hit.x_law
    return GradedMass(
        abs(x_law.coef) * f * gx * gy / gxy,
        sphere_sub=hit.dim - 1 if sphere_factor else None,
        pi_pow=(kx + ky - kxy) // 2,
        kappa_pow2=2 * x_law.kappa + int(p),
        alpha_pow=0 if hit.x_law is None else -1,
    )


def evaluate_candidate(
    fam: AnsatzFamily,
    regime: Regime,
    dim: int,
    mode: str = "homogeneous",
    max_rho_terms: int = 1,
) -> Candidate:
    """Run the matching procedure for a single (family, n, D) cell."""
    _check_search(fam.family, regime, mode, max_rho_terms)
    return _evaluate(fam, regime, dim, mode, max_rho_terms)


def _evaluate(fam: AnsatzFamily, regime: Regime, dim: int, mode: str, max_rho_terms: int) -> Candidate:
    geom = _geometry_part(fam, dim)
    u2_base = 2 * fam.n

    # at most one term: G has one grade per power (see the module docstring)
    matching = [t for t in geom.terms if t.base == u2_base and t.odd == 0]
    rest = RadialExpr.from_terms(
        fam.family, (t for t in geom.terms if t.base != u2_base or t.odd != 0)
    )
    # the coefficient at the u^2 power may legitimately be zero, forcing a
    # zero amplitude; distinguish that from failing the mode's acceptance
    x_law = Graded(-matching[0].coeff, matching[0].kappa) if matching else Graded(Fraction(0))

    if mode == "homogeneous":
        if not rest.is_zero:
            return Candidate(CandidateStatus.LEFTOVER_TERMS, detail=f"residual leftover: {rest}")
        rho = RadialExpr.zero(fam.family)
    else:
        if singular_radius_tags(fam, regime):
            return Candidate(CandidateStatus.SINGULAR_U, detail="profile has poles on the closed domain")
        rho = (-rest).scale_grades(alpha=-1)
        if len(rho.terms) > max_rho_terms:
            return Candidate(
                CandidateStatus.RHO_TOO_COMPLEX,
                detail=f"source needs {len(rho.terms)} monomials (> {max_rho_terms})",
            )
    if x_law.is_zero:
        return Candidate(CandidateStatus.NO_SOLUTION, detail="forced amplitude is zero")

    hit = DerivationHit(
        family=fam.family,
        n=fam.n,
        dim=dim,
        regime=regime,
        mode=mode,
        x_law=x_law,
        omega=omega_of(fam, regime, dim),
        rho=rho,
    )
    return Candidate(CandidateStatus.HIT, hit=hit)


def _nonnegative_integer_roots(c0: Fraction, c1: Fraction, c2: Fraction) -> frozenset[int]:
    """The integers m >= 0 with c0 + c1 m + c2 m^2 = 0, found over Q.

    A quadratic has rational roots only when its discriminant is the square
    of a rational, that is when the numerator and the denominator of the
    reduced fraction are both perfect squares.  The zero polynomial and a
    nonzero constant give no roots.
    """
    c0, c1, c2 = Fraction(c0), Fraction(c1), Fraction(c2)
    if c2 == 0:
        roots = [-c0 / c1] if c1 != 0 else []
    else:
        disc = c1 * c1 - 4 * c2 * c0
        if disc < 0:
            return frozenset()
        num, den = math.isqrt(disc.numerator), math.isqrt(disc.denominator)
        if num * num != disc.numerator or den * den != disc.denominator:
            return frozenset()
        root = Fraction(num, den)
        roots = [(-c1 - root) / (2 * c2), (-c1 + root) / (2 * c2)]
    return frozenset(int(x) for x in roots if x.denominator == 1 and x >= 0)


@cache
def _classification(
    fam: AnsatzFamily, regime: Regime, mode: str, max_rho_terms: int
) -> tuple[frozenset[int], CandidateStatus]:
    """(E, generic status) of a search row: the exceptional m = D - 1, and
    the status of every cell with D - 1 outside E (see the module
    docstring)."""
    coeffs: dict[tuple, list[Fraction]] = {}
    for k, part in enumerate(_geometry_parts(fam)):
        for t in part.terms:
            coeffs.setdefault(t.key, [Fraction(0)] * 3)[k] = t.coeff
    exceptional = frozenset().union(*(_nonnegative_integer_roots(*c) for c in coeffs.values()))
    m = 0
    while m in exceptional:
        m += 1
    # a probe, not a searched cell: `_search` has checked the arguments
    return exceptional, _evaluate(fam, regime, m + 1, mode, max_rho_terms).status


def _search(
    family: Basis,
    regime: Regime,
    n_range: Sequence[int],
    d_range: Sequence[int],
    mode: str,
    max_rho_terms: int = 1,
) -> list[DerivationHit]:
    # sizes only: a lazy range is never materialized before the cap
    if not n_range or not d_range:
        raise ValueError("empty search range")
    if len(n_range) > _MAX_RANGE or len(d_range) > _MAX_RANGE:
        raise ValueError(f"search range wider than {_MAX_RANGE}")
    if min(d_range) < 1:
        raise ValueError("dimensions must be >= 1")
    _check_search(family, regime, mode, max_rho_terms)
    ds = sorted(set(d_range))
    hits = []
    for n in sorted(n for n in _candidate_exponents(family) if n in n_range):
        fam = AnsatzFamily(family, n)
        exceptional, generic = _classification(fam, regime, mode, max_rho_terms)
        for d in ds:
            if generic is CandidateStatus.HIT or d - 1 in exceptional:
                cand = evaluate_candidate(fam, regime, d, mode, max_rho_terms)
                if cand.status is CandidateStatus.HIT:
                    hits.append(cand.hit)
    hits.sort(key=DerivationHit.sort_key)
    return hits


def solve_homogeneous(
    family: Basis,
    regime: Regime,
    n_range: Sequence[int],
    d_range: Sequence[int],
) -> list[DerivationHit]:
    """Enumerate exponents and dimensions; keep exact homogeneous solutions.

    A cell is accepted iff exactly one amplitude assignment empties the
    residual with A^2 != 0 (the sign of alpha is then forced).  n = 0 and
    positive exponents fall out of the same criterion rather than being
    special-cased.

    Only exponents n with base^(2n) in the fixed support of
    G = Lap(Lap(u)/u) are evaluated: elsewhere X has nothing to cancel and
    the forced amplitude is zero, whatever D.  For the others, G is built
    as A0 + (D-1) A1 + (D-1)^2 A2 from parts cached per (family, n), and
    only the dimensions whose verdict can differ from the row's generic
    status are evaluated; see the module docstring.
    """
    return _search(family, regime, n_range, d_range, "homogeneous")


def solve_background(
    family: Basis,
    regime: Regime,
    n_range: Sequence[int],
    d_range: Sequence[int],
    max_rho_terms: int = 1,
) -> list[DerivationHit]:
    """Search with a background source: -Lap(V) = u^2 + rho.

    After the amplitude cancels one residual monomial, the leftover becomes
    rho = -leftover/alpha; cells are kept when rho has at most
    `max_rho_terms` monomials and u has no poles on the closed domain.
    Like `solve_homogeneous`, it evaluates only the cells that can hit.
    """
    return _search(family, regime, n_range, d_range, "background", max_rho_terms)


# -- materialization ----------------------------------------------------


def solution_exprs(hit: DerivationHit) -> tuple[RadialExpr, RadialExpr]:
    """Exact (u, V) for a hit: u = A*base^n (amplitude grade 1, or 0 when
    amplitude-free) and V = (Lap(u)/u + omega)/alpha."""
    u = RadialExpr.monomial(hit.family, 1, base=hit.n, amp=0 if hit.x_law is None else 1)
    pot = potential_term(AnsatzFamily(hit.family, hit.n), hit.regime, hit.dim)
    alpha_v = pot + RadialExpr.monomial(hit.family, hit.omega.coef, kappa=hit.omega.kappa)
    v = alpha_v.scale_grades(alpha=-1)
    return u, v


def resubstitution_defects(
    u: RadialExpr,
    v: RadialExpr,
    rho: RadialExpr,
    omega: Graded,
    x_law: Optional[Graded],
    dim: int,
) -> tuple[RadialExpr, RadialExpr]:
    """Exact residuals of both field equations; zero certifies a solution.

    Returns (-Lap(u) + alpha*V*u - omega*u, -Lap(V) - u^2 - rho) with the
    amplitude law substituted so everything cancels rationally.
    """
    basis = u.basis
    schro = -u.laplacian(dim) + v.scale_grades(alpha=1) * u \
        - RadialExpr.monomial(basis, omega.coef, kappa=omega.kappa) * u
    u2 = u * u
    if x_law is not None:
        u2 = u2.substitute_amp_sq(x_law)
    poisson = -v.laplacian(dim) - u2 - rho
    return schro, poisson
