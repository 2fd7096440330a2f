"""Numerical verification layer: array evaluation, quadrature, PDE
residuals, inversion.  This is the only module besides the CLI that
imports numpy.

Everything here treats the symbolic layer as ground truth and checks it
with independent machinery:

* array evaluation: S, C and 1/T of a space (the one regime branch for
  arrays), the array functions of each basis' base and odd factor, and
  the evaluator that :func:`ccsp.symbolic.compile_table` returns: for a
  table of fields over one basis, it evaluates B(r) and O(r) once per call
  and each distinct B^p once, whichever fields share it, and sums each
  field's terms scale * B^p (times O) from 0.0, so every field has the
  bits of its expression compiled alone;
* one double-exponential rule for every improper radial integral
  (Takahasi & Mori 1974): exp-sinh toward infinity, tanh-sinh on a finite
  interval, levels of halved step whose new nodes are evaluated in one
  call each.  Each side of t = 0 ends at its first node that is not finite
  or whose r rounds onto an end; a side is settled when the integral past
  it is negligible against sum |terms| (not |sum|, which may cancel), and
  one whose outermost terms do not decay at the first two levels is
  DIVERGENT -- a result, not an error.  Not finite is not divergent: an
  end that never settles, or levels that never agree (an interior pole),
  raise.  A value that is not finite is an integrand's one way to fail;
  an exception it raises propagates;
* one weighted integral S_(D-1) int g S^p dr over the manifold (S the
  curvature-scaled sine), for the mass, T, Q and the charge balance
  int (u^2 + rho) = 0 that a compact manifold forces, run in units of the
  space's length (1/sqrt|kappa|, or the flat scale);
* PDE residuals of both field equations on grids clear of the profile's
  poles, each Laplacian assembled in floats as f'' + (D-1) f' / T from the
  exact derivatives of u and V;
* the charge M(r) = int_0^r of an S-weighted density at every r of a
  call from one fixed node set of the same rule (step 1/16), on one outer
  x inner grid in one call: r int_0^1 by tanh-sinh inside the length unit,
  the total less r int_1^inf by exp-sinh beyond it, so M is a pure function
  of r, and NaN where its inner error is not negligible against the larger
  of |total| and its own sum |terms|;
* radial inversion of -Lap with decay normalization, V(r) one integral of
  S^(1-D) M from r;
* the variational functionals T, N, Q and their flat-space identities, Q
  by one of two routes, neither a float inversion of -Lap: where the term
  algebra holds W = (-Lap)^-1 u^2 exactly, the one integral of u^2 W; elsewhere
  the energy form int |grad W|^2 = S_(D-1) int M^2 S^(1-D), with M the
  charge above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Union

import numpy as np

from .geometry import Regime, Space, sphere_area
from .symbolic import Basis

if TYPE_CHECKING:  # pragma: no cover
    from .catalog import Solution

__all__ = [
    "Metric",
    "metric",
    "evaluator",
    "Divergent",
    "default_grid",
    "integrate_radial",
    "mass",
    "CompactnessReport",
    "compactness_obstruction_check",
    "fd_residual",
    "poisson_invert",
    "PohozaevFunctionals",
    "pohozaev_functionals",
    "PohozaevReport",
    "pohozaev_check",
    "VerificationReport",
    "verify_solution",
]

DEFAULT_REL_TOL = 1e-10
NESTED_REL_TOL = 1e-11  # poisson_invert, pohozaev_functionals and the charge (Q's outer: 1e-9)
MASS_REL_TOL = 1e-8     # verify: quadrature mass against the closed form
DE_T_MAX = 6.8          # |t| of the outermost double-exponential node: exp(pi/2 sinh t) < 1e307
DE_LEVELS = 8           # levels of the double-exponential rule, step 1/2 down to 1/256
CHARGE_LEVELS = 4       # levels of the charge's fixed node set, step 1/2 down to 1/16
GRID_R_CAP = 10.0       # noncompact default grids end here (times the flat scale)
GRID_POINTS = 2000      # radii of a default grid, shared among its smooth segments


# -- array evaluation -----------------------------------------------------


class Metric(NamedTuple):
    """Vectorized metric functions of one space (r must be a float array)."""

    S: Callable
    C: Callable
    inv_T: Callable


def metric(space: Space) -> Metric:
    """S, C and 1/T of `space` as array functions: the one regime branch
    of every array evaluation in the package."""
    if space.regime is Regime.FLAT:
        return Metric(lambda r: r, lambda r: np.ones_like(r), lambda r: 1.0 / r)
    if space.regime is Regime.HYPERBOLIC:
        lam = math.sqrt(-space.kappa)
        return Metric(
            lambda r: np.sinh(lam * r) / lam,
            lambda r: np.cosh(lam * r),
            lambda r: lam / np.tanh(lam * r),
        )
    mu = math.sqrt(space.kappa)
    return Metric(
        lambda r: np.sin(mu * r) / mu,
        lambda r: np.cos(mu * r),
        lambda r: mu / np.tan(mu * r),
    )


# the array functions of each basis' base B and odd factor O, from a metric
_BASIS_FNS: dict[Basis, Callable[[Metric], tuple[Callable, Callable]]] = {
    Basis.FLAT_C: lambda m: ((lambda r: np.sqrt(1.0 + r * r)), m.S),
    Basis.FLAT_R: lambda m: (m.S, m.C),
    Basis.CURVED_C: lambda m: (m.C, m.S),
    Basis.CURVED_S: lambda m: (m.S, m.C),
}


def evaluator(basis: Basis, space: Space, table: list[list[tuple[float, float, int]]]) -> Callable:
    """r -> the list of the fields of `table`, each the sum of scale *
    B^base * O^odd over its (scale, base, odd) terms, for expressions over
    `basis`, on arrays (poles become inf/nan).  B and O are evaluated once
    per call, and so is each distinct power of B, whichever fields share it."""
    base_fn, odd_fn = _BASIS_FNS[basis](metric(space))
    has_odd = any(op for pre in table for _, _, op in pre)

    def fn(r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            b = base_fn(r)
            o = odd_fn(r) if has_odd else None
            powers: dict[float, np.ndarray] = {}
            fields = []
            for pre in table:
                if not pre:
                    fields.append(np.zeros_like(r))
                    continue
                # b ** 0.0 is 1 everywhere, and a sum started from +0.0
                # turns -0.0 into +0.0 as a zeros_like start would
                total = 0.0
                for scale, bp, op in pre:
                    if bp not in powers:
                        powers[bp] = b**bp
                    term = scale * powers[bp]
                    if op:
                        term = term * o
                    total = total + term
                fields.append(total)
        return fields

    return fn


# -- quadrature -------------------------------------------------------------


@dataclass(frozen=True)
class Divergent:
    """Marker value for integrals whose terms do not decay at an end."""

    where: str  # "small-r" | "large-r" | "endpoint"

    def __str__(self) -> str:
        return f"divergent:{self.where}"


Quadrature = Union[float, Divergent]


class QuadratureError(ValueError):
    """An integral the rule can call neither convergent nor divergent."""


def _json_value(x):
    """A quadrature result as JSON: Divergent values print as their tag."""
    return str(x) if isinstance(x, Divergent) else x


def _de_level(level: int) -> tuple[np.ndarray, ...]:
    """The new |t| of one level of the double-exponential rule, ascending,
    and at each: exp(-+u) and its dr/dt for exp-sinh toward r_lo and
    toward infinity, and for tanh-sinh e/(1 + e), the distance to the
    nearer end over the width, with its dr/dt over the width (e =
    exp(-2u), so neither cancels), where u = pi/2 sinh t.  Level j has the
    step h = 2^-(j+1): level 0 holds every multiple of h in (0, DE_T_MAX],
    a later level the odd ones."""
    h = 0.5 ** (level + 1)
    t = h * np.arange(1, int(DE_T_MAX / h) + 1, 1 if level == 0 else 2)
    u, du = 0.5 * math.pi * np.sinh(t), 0.5 * math.pi * np.cosh(t)
    x_lo, x_hi = np.exp(-u), np.exp(u)
    with np.errstate(under="ignore"):
        e = np.exp(-2.0 * u)
    q = e / (1.0 + e)
    return t, x_lo, du * x_lo, x_hi, du * x_hi, q, 2.0 * du * q / (1.0 + e)


_DE_LEVELS = [_de_level(level) for level in range(DE_LEVELS)]


def _remainder(last: float, prev: float, dt: float) -> float:
    """The integral past a side's outermost term of size `last`, from it and
    the term of size `prev` dt before it in t: 0 past a zero term, inf past
    terms that do not decay (the side diverges), else bounded through their
    secant decay rate (the log-terms of a double-exponential end are
    concave)."""
    if last == 0.0:
        return 0.0
    if not last < prev:
        return math.inf
    return last * dt / math.log(prev / last)


class _Side:
    """One side of t = 0 of the double-exponential rule: its terms
    f(r) dr/dt in order of |t|, up to (not including) `reach`, the |t| of
    its first node that is not finite or whose r rounds onto an end (`stop`
    says which) or past which it was trimmed once settled."""

    def __init__(self, where: str, sign: float) -> None:
        self.where, self.sign = where, sign
        self.t, self.terms = np.empty(0), np.empty(0)
        self.reach, self.stop = math.inf, ""
        self.settled = False

    def nodes(self, level: int, r_lo: float, r_hi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """|t|, r and dr/dt of the level's new nodes short of the reach:
        exp-sinh r = r_lo + exp(+-u) toward infinity, tanh-sinh on a finite
        interval.  r moves toward the end with |t|, so the nodes whose r
        rounds onto it come last: the first of them becomes the reach."""
        t, x_lo, w_lo, x_hi, w_hi, q, wq = _DE_LEVELS[level]
        n = len(t) if self.reach > t[-1] else int(np.searchsorted(t, self.reach))
        if math.isinf(r_hi):
            x, w = (x_lo, w_lo) if self.sign < 0 else (x_hi, w_hi)
            r, w = r_lo + x[:n], w[:n]
        else:
            width = r_hi - r_lo
            r, w = (r_lo + width * q[:n] if self.sign < 0 else r_hi - width * q[:n]), width * wq[:n]
        m = int(np.count_nonzero((r > r_lo) & (r < r_hi)))
        if m < n:
            self.reach, self.stop = t[m], f"r = {r[m]} rounds onto an end"
        return t[:m], r[:m], w[:m]

    def add(self, t: np.ndarray, r: np.ndarray, terms: np.ndarray) -> bool:
        """Merge a level's new terms.  A term that is not finite ends the
        side short of its reach; True if the reach now drops terms of
        earlier levels."""
        bad = ~np.isfinite(terms)
        if bad.any():
            k = int(np.argmax(bad))
            self.reach, self.stop = t[k], f"integrand not finite at r = {r[k]}"
            t, terms = t[:k], terms[:k]
        lost = bool(len(self.t)) and self.t[-1] >= self.reach
        t, terms = np.concatenate((self.t, t)), np.concatenate((self.terms, terms))
        order = np.argsort(t, kind="stable")
        keep = t[order] < self.reach
        self.t, self.terms = t[order][keep], terms[order][keep]
        return lost

    def remainder(self, center: float) -> float:
        """The integral past the outermost term by :func:`_remainder` (the
        middle term stands before the first), NaN for a side with no term."""
        if not len(self.terms):
            return math.nan
        last = abs(self.terms[-1])
        prev, dt = (abs(self.terms[-2]), self.t[-1] - self.t[-2]) if len(self.terms) > 1 else (abs(center), self.t[-1])
        return _remainder(last, prev, dt)

    def trim(self, h: float, budget: float) -> None:
        """Drop the outermost terms that sum to at most `budget`, and evaluate
        no later node past them."""
        tail = h * np.cumsum(np.abs(self.terms[::-1]))[::-1]
        n = int(np.count_nonzero(tail > budget))
        if n < len(self.terms):
            self.reach = self.t[n]
            self.t, self.terms = self.t[:n], self.terms[:n]


def integrate_radial(
    f: Callable,
    r_lo: float,
    r_hi: float,
    rel_tol: float = DEFAULT_REL_TOL,
) -> Quadrature:
    """Integrate f(r) dr over (r_lo, r_hi), endpoints treated as improper.

    f must accept numpy arrays of any radii in (r_lo, r_hi), and fails by a
    value that is not finite: an exception it raises propagates.
    0 <= r_lo < r_hi <= inf; rel_tol must be finite and positive.  Returns
    a float or :class:`Divergent` tagged with the offending end; an end
    that the rule can call neither convergent nor divergent, or a pole in
    the open interior, raises :class:`QuadratureError`.

    One double-exponential rule on t in [-DE_T_MAX, DE_T_MAX] (Takahasi &
    Mori 1974): exp-sinh r = r_lo + exp(pi/2 sinh t) toward infinity,
    tanh-sinh on a finite interval.  Level 0 has the step h = 1/2; each
    later level halves h and evaluates only its new nodes, in one call of
    f.  Each side of t = 0 is summed outward to its first node that is not
    finite or whose r rounds onto an end.  Against A = h sum |terms| (the
    sum itself may cancel to about 0), a side is settled once the integral
    past its outermost term, bounded through the decay of its last two
    terms, is below 1e-3 rel_tol A; it is then trimmed to where the terms
    it drops sum to no more, and a later node inside it that is not finite
    raises.  At level 0 or 1, a side whose outermost terms do not decay is
    divergent; a side not settled by the last level raises.  The value is
    accepted when both sides are settled and two levels agree to
    1e-2 sqrt(rel_tol) A (the error about squares per level) or to 1e-14 A,
    roundoff.

    The rule assumes that f is resolved by the nodes of levels 0 and 1
    (step 1/4 in t): smooth, with no feature much narrower than their
    spacing, which toward infinity from r_lo is about 0.4 in r at
    r - r_lo = 1 and about 3 at r - r_lo = 5.  A feature that all those
    nodes miss is not seen at all: both sides settle on terms of about 0
    and the levels agree, so a wrong value is returned without an error.
    On (0, inf), exp(-((r - 0.3)/0.003)^2) and exp(-((r - 5)/0.03)^2),
    whose integrals are 5.3e-3 and 5.3e-2, integrate to 0.0.  The callers
    pass profiles of the term algebra in units of the space's length,
    which vary on the scale 1.
    """
    if not (0.0 <= r_lo < r_hi):
        raise ValueError(f"bad interval ({r_lo}, {r_hi})")
    if not (0.0 < rel_tol < math.inf):
        raise ValueError(f"relative tolerance must be finite and positive, got {rel_tol}")
    if math.isinf(r_hi):
        r_mid, w_mid = r_lo + 1.0, 0.5 * math.pi
    else:
        r_mid, w_mid = r_lo + 0.5 * (r_hi - r_lo), 0.25 * math.pi * (r_hi - r_lo)
    sides = [_Side("small-r", -1.0), _Side("large-r", 1.0)]
    center, previous = math.nan, math.nan
    for level in range(DE_LEVELS):
        h = 0.5 ** (level + 1)
        with np.errstate(all="ignore"):
            fresh = [side.nodes(level, r_lo, r_hi) for side in sides]
            r = np.concatenate(([r_mid] if level == 0 else [], fresh[0][1], fresh[1][1]))
            fx = np.asarray(f(r), dtype=float).reshape(r.shape)
            if level == 0:
                center, fx = float(fx[0]) * w_mid, fx[1:]
                if not math.isfinite(center):
                    raise QuadratureError(f"integrand not finite at r = {r_mid}")
            n = len(fresh[0][0])
            lost = [side.add(t, r, fx_side * w) for side, (t, r, w), fx_side in zip(sides, fresh, (fx[:n], fx[n:]))]
        scale = h * (abs(center) + sum(float(np.abs(side.terms).sum()) for side in sides))
        budget = 1e-3 * rel_tol * scale
        for side, dropped in zip(sides, lost):
            if side.settled:
                if dropped:
                    raise QuadratureError(f"{side.stop}, inside the settled {side.where} end")
                continue
            rest = side.remainder(center)
            if rest <= budget:
                side.settled = True
                side.trim(h, budget)
            elif rest == math.inf and level <= 1:
                return Divergent(side.where)
        total = h * (center + sum(float(side.terms.sum()) for side in sides))
        agree = max(1e-2 * math.sqrt(rel_tol), 1e-14) * scale
        if all(side.settled for side in sides) and abs(total - previous) <= agree:
            return total
        previous = total
    for side in sides:
        if not side.settled:
            raise QuadratureError(f"the {side.where} end does not settle: {side.stop or 'the range of doubles ends'}")
    raise QuadratureError(f"no convergence after {DE_LEVELS} levels of the double-exponential rule on ({r_lo}, {r_hi})")


# -- integrals over the manifold ---------------------------------------------


def mass(
    sol: "Solution",
    kappa: float,
    alpha: float,
    rel_tol: float = DEFAULT_REL_TOL,
    include_sphere_factor: bool = True,
) -> Quadrature:
    """Total mass integral of u^2 over the manifold (or its radial part).

    Rejects parameters whose signs are incompatible with the solution's
    amplitude law.  Divergence is a legitimate answer, tagged with the
    offending end of the domain.
    """
    u = sol.u_fn(kappa, alpha)
    return _manifold_integral(sol, kappa, lambda r: u(r) ** 2, rel_tol, sphere_factor=include_sphere_factor)


def _weighted(space: Space, g: Callable, power: int) -> Callable:
    """r -> g(r) S(r)^power, with S the space's curvature-scaled sine.
    Overflow and poles give inf or nan, which the quadrature reports (it
    evaluates f with floating-point errors ignored)."""
    s_fn = metric(space).S

    def f(r):
        r = np.asarray(r, dtype=float)
        return g(r) * s_fn(r) ** power

    return f


def _manifold_integral(
    sol: "Solution",
    kappa: float,
    g: Callable,
    rel_tol: float,
    power: Optional[int] = None,
    sphere_factor: bool = True,
) -> Quadrature:
    """S_(D-1) int g S^power dr (power D - 1: g over the manifold), or the
    radial integral alone.  The integral runs over s = r / L, with L the
    space's length unit (1/sqrt|kappa| curved, the scale flat), so the rule
    sees every space at unit size.  The domain is split at the profile's
    poles, so each is probed as an improper endpoint, and a divergence is
    tagged with the offending end of the domain."""
    space = sol.space(kappa)
    f = _weighted(space, g, sol.dim - 1 if power is None else power)
    length = sol.scale if space.regime is Regime.FLAT else 1.0 / math.sqrt(abs(kappa))
    interior = [s for s in sol.singular_radii_values(kappa) if 0.0 < s < space.r_max]
    cuts = [0.0] + interior + [space.r_max]
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        part = integrate_radial(lambda s: f(length * s) * length, lo / length, hi / length, rel_tol)
        if isinstance(part, Divergent):
            # a segment end away from r = 0 and r = inf is a pole or the antipode
            where = part.where
            if where == "small-r" and lo > 0:
                where = f"r={lo:.6g}"
            elif where == "large-r" and math.isfinite(hi):
                where = f"r={hi:.6g}"
            return Divergent(where)
        total += part
    return total * (sphere_area(sol.dim) if sphere_factor else 1.0)


# -- charge balance on the sphere -------------------------------------------


@dataclass(frozen=True)
class CompactnessReport:
    """Outcome of the compact-manifold charge-balance check."""

    solution_id: str
    has_singularity: bool
    consistent: bool
    total_charge: Optional[float]   # background entries only
    detail: str


def compactness_obstruction_check(sol: "Solution", kappa: float = 1.0, alpha: Optional[float] = None) -> CompactnessReport:
    """On the sphere a regular homogeneous solution would force
    integral(u^2) = 0, a contradiction; so homogeneous entries must be
    singular somewhere, and background entries must balance charge:
    integral(u^2 + rho) = 0 over the whole manifold."""
    if sol.regime is not Regime.SPHERICAL:
        raise ValueError("compactness check applies to spherical solutions")
    if alpha is None:
        alpha = sol.default_alpha
    sol.space(kappa)  # an invalid kappa raises before anything else
    has_sing = bool(sol.singular_radii)
    if sol.rho.is_zero:
        detail = ("singular set nonempty, as the charge-balance obstruction requires" if has_sing
                  else "CONTRADICTION: regular homogeneous solution on a compact manifold")
        return CompactnessReport(sol.id, has_sing, has_sing, None, detail)
    u = sol.u_fn(kappa, alpha)
    rho = sol.rho_fn(kappa, alpha)
    total = _manifold_integral(sol, kappa, lambda r: u(r) ** 2 + rho(r), 1e-12)
    if isinstance(total, Divergent):
        return CompactnessReport(sol.id, has_sing, False, None, "charge integral diverges")
    return CompactnessReport(sol.id, has_sing, abs(total) <= 1e-10, total, f"total charge {total:.3e}")


# -- PDE residuals ------------------------------------------------------------


def default_grid(sol: "Solution", kappa: float) -> np.ndarray:
    """Per-solution verification radii, strictly increasing.

    Each maximal smooth segment of the domain contributes points, inset by
    0.1 from coordinate endpoints and by ~1 from genuine poles of the
    profile.
    """
    space = sol.space(kappa)
    sing = sol.singular_radii_values(kappa)
    # curved entries have scale 1: only flat entries can be rescaled
    hi = space.r_max if math.isfinite(space.r_max) else GRID_R_CAP * sol.scale
    cuts = [0.0] + [s for s in sing if 0.0 < s < hi] + [hi]
    segments = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        length = b - a
        inset_a = min(1.0, 0.45 * length) if a in sing else min(0.1, 0.25 * length)
        inset_b = min(1.0, 0.45 * length) if b in sing else min(0.1, 0.25 * length)
        aa, bb = a + inset_a, b - inset_b
        if bb > aa:
            segments.append((aa, bb))
    if not segments:
        raise ValueError("no smooth segment wide enough for a grid")
    per = max(8, GRID_POINTS // len(segments))
    # the segments are disjoint and increasing, so the radii already are
    return np.concatenate([np.linspace(a, b, per) for a, b in segments])


def fd_residual(
    sol: "Solution",
    kappa: float,
    alpha: float,
    r: Optional[np.ndarray] = None,
) -> tuple[float, float]:
    """Max-norm residuals of both field equations on the radii r (default:
    :func:`default_grid`), normalized by max(|u|, 1).

    u', u'', V' and V'' are the exact derivatives of the term algebra, read
    with u, V and rho from one field table
    (:meth:`ccsp.catalog.Solution.fields_fn`), and each Laplacian is
    assembled here in floats as f'' + (D-1) f' / T, so neither 1/T nor the
    assembly comes from :meth:`ccsp.symbolic.RadialExpr.laplacian`.  (The
    name predates the exact derivatives; perfbench's tracer wraps the
    function by it.)"""
    if r is None:
        r = default_grid(sol, kappa)
    inv_t = metric(sol.space(kappa)).inv_T(r)
    u, du, d2u, v, dv, d2v, rho = sol.fields_fn(kappa, alpha)(r)
    m = sol.dim - 1
    with np.errstate(over="ignore", invalid="ignore"):
        # fields near the end of the doubles overflow: an inf or NaN residual fails
        res_schro = -(d2u + m * inv_t * du) + alpha * v * u - sol.omega_value(kappa) * u
        res_poisson = -(d2v + m * inv_t * dv) - u**2 - rho
    norm = max(float(np.max(np.abs(u))), 1.0)
    return (
        float(np.max(np.abs(res_schro))) / norm,
        float(np.max(np.abs(res_poisson))) / norm,
    )


# -- the charge inside a radius, and radial inversion of -Lap -------------


class _ChargeRule(NamedTuple):
    """Levels 0 .. CHARGE_LEVELS - 1 of the double-exponential rule as one
    fixed node set on (0, 1) (tanh-sinh) or (1, inf) (exp-sinh): the middle
    node, then the small-r and the large-r side, each in ascending |t| up to
    its first node that rounds onto an end.  Per column its node x, its
    weight dx/dt and its |t| (0 at the middle); the column slices of the two
    sides; and the columns of the step 2h."""

    x: np.ndarray
    w: np.ndarray
    t: np.ndarray
    sides: tuple
    coarse: np.ndarray


def _charge_rule(tail: bool) -> _ChargeRule:
    levels = _DE_LEVELS[:CHARGE_LEVELS]
    order = np.argsort(np.concatenate([level[0] for level in levels]), kind="stable")
    t, x_lo, w_lo, x_hi, w_hi, q, wq = (np.concatenate([level[i] for level in levels])[order] for i in range(7))
    coarse = np.concatenate([np.full(len(level[0]), j < CHARGE_LEVELS - 1) for j, level in enumerate(levels)])[order]
    if tail:
        lo, hi, middle, sides = 1.0, math.inf, (2.0, 0.5 * math.pi), ((1.0 + x_lo, w_lo), (1.0 + x_hi, w_hi))
    else:
        lo, hi, middle, sides = 0.0, 1.0, (0.5, 0.25 * math.pi), ((q, wq), (1.0 - q, wq))
    columns, bounds = [(np.array([middle[0]]), np.array([middle[1]]), np.zeros(1), np.ones(1, bool))], [1]
    for x, w in sides:
        n = int(np.count_nonzero((x > lo) & (x < hi)))
        columns.append((x[:n], w[:n], t[:n], coarse[:n]))
        bounds.append(bounds[-1] + n)
    x, w, t_col, coarse_col = (np.concatenate(parts) for parts in zip(*columns))
    return _ChargeRule(x, w, t_col, (slice(1, bounds[1]), slice(bounds[1], bounds[2])), coarse_col)


_CHARGE_RULES = _charge_rule(False), _charge_rule(True)


def _charge_rows(values: np.ndarray, rule: _ChargeRule) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of density values on the rule's columns: the integral at the
    step h = 2^-CHARGE_LEVELS (NaN where the row fails), its difference from
    the integral at the step 2h over the same nodes, and h sum |terms|.

    As in :func:`integrate_radial`, each side ends at its first term that is
    not finite, and a side so cut must be settled: the integral past its
    outermost term, by :func:`_remainder`, at most 1e-3 NESTED_REL_TOL
    h sum |terms|.
    A row whose middle term is not finite fails too."""
    h = 0.5**CHARGE_LEVELS
    terms = values * rule.w
    ok = np.isfinite(terms[:, 0])
    cuts = []
    for side in rule.sides:
        block = terms[:, side]  # a view: the side's terms past its cut become 0
        bad = ~np.isfinite(block)
        n = np.where(bad.any(axis=1), bad.argmax(axis=1), block.shape[1])
        block[np.arange(block.shape[1]) >= n[:, None]] = 0.0
        cuts.append(n)
    abs_sum = h * np.abs(terms).sum(axis=1)
    for side, n in zip(rule.sides, cuts):
        rows = np.flatnonzero(n < side.stop - side.start)
        if rows.size:
            # the middle term stands before a side's first
            sized = np.abs(np.concatenate((terms[rows, :1], terms[rows, side]), axis=1))
            t = np.concatenate(([0.0], rule.t[side]))
            k = n[rows]
            last, prev = sized[np.arange(rows.size), k], sized[np.arange(rows.size), k - 1]
            ends = zip(last.tolist(), prev.tolist(), (t[k] - t[k - 1]).tolist())
            rest = np.array([_remainder(*end) for end in ends])
            ok[rows] &= (k > 0) & (rest <= 1e-3 * NESTED_REL_TOL * abs_sum[rows])
    fine = h * terms.sum(axis=1)
    coarse = 2.0 * h * terms[:, rule.coarse].sum(axis=1)
    return np.where(ok, fine, math.nan), fine - coarse, abs_sum


def _charge(density: Callable, total: Quadrature, length: float) -> Callable:
    """r -> M(r) = integral_0^r density, a pure function of each r > 0,
    with `total` the integral over (0, inf) and `length` the space's unit.

    M(r) = r int_0^1 density(r x) dx for r <= length, and beyond it
    total - r int_1^inf density(r y) dy, each by one fixed node set of the
    double-exponential rule (:class:`_ChargeRule`), and every r of a call
    on one outer x inner grid in one call of density.  The inner error is
    judged against a magnitude: the larger of |total| and the row's own
    h r sum |terms|, so neither a charge that underflows toward r = 0 nor
    a density whose total is negative or cancels to about 0 makes the test
    impossible.  M is NaN where its steps h and 2h differ by more than
    max(1e-2 sqrt(NESTED_REL_TOL), 1e-14) times that magnitude, or its row
    fails (:func:`_charge_rows`).  Without a finite total (a density that
    diverges at large r) every r takes the first form, judged against its
    own h r sum |terms|."""
    finite = not isinstance(total, Divergent)
    agree = max(1e-2 * math.sqrt(NESTED_REL_TOL), 1e-14)

    def charge(r):
        r = np.asarray(r, dtype=float)
        flat = r.ravel()
        beyond = flat > length if finite else np.zeros(flat.shape, dtype=bool)
        masks = (~beyond, beyond)
        out = np.empty_like(flat)
        with np.errstate(all="ignore"):
            grids = [flat[mask][:, None] * rule.x for mask, rule in zip(masks, _CHARGE_RULES)]
            values = np.asarray(density(np.concatenate([grid.ravel() for grid in grids])), dtype=float)
            parts = zip(masks, grids, _CHARGE_RULES, np.split(values, [grids[0].size]))
            for k, (mask, grid, rule, vals) in enumerate(parts):
                s = flat[mask]
                fine, diff, abs_sum = _charge_rows(vals.reshape(grid.shape), rule)
                scale = np.maximum(abs(total), s * abs_sum) if finite else s * abs_sum
                m = s * fine if k == 0 else total - s * fine
                out[mask] = np.where(s * np.abs(diff) <= agree * scale, m, math.nan)
        return out.reshape(r.shape)

    return charge


def poisson_invert(
    f: Callable,
    space: Space,
    dim: int,
) -> Callable:
    """Return V with -Lap(V) = f and V -> 0 at infinity (radial, decaying).

        V(r) = integral_r^inf S(s)^(1-D) M(s) ds,  M(s) = integral_0^s f(t) S(t)^(D-1) dt

    M is the charge of :func:`_charge`, against the total charge by
    :func:`integrate_radial`, and each V(r) is one :func:`integrate_radial`
    from r.  Flat and hyperbolic regimes only (the sphere has no decay
    normalization).  V raises ValueError where it is not finite (the inner
    charge overflows).
    """
    if space.regime is Regime.SPHERICAL:
        raise ValueError("decay-normalized inversion needs a noncompact space")
    if dim < 2:
        raise ValueError("radial inversion requires D >= 2")
    density = _weighted(space, f, dim - 1)
    total = integrate_radial(density, 0.0, math.inf, NESTED_REL_TOL)
    if isinstance(total, Divergent):
        raise ValueError("inversion tail diverges")
    length = 1.0 if space.regime is Regime.FLAT else 1.0 / math.sqrt(-space.kappa)
    outer = _weighted(space, _charge(density, total, length), 1 - dim)

    def v_fn(r):
        r = np.asarray(r, dtype=float)
        out = np.empty(r.shape)
        for i, point in enumerate(r.flat):
            try:
                value = integrate_radial(outer, point, math.inf, NESTED_REL_TOL)
            except QuadratureError:
                value = math.nan
            if isinstance(value, Divergent):
                raise ValueError("inversion tail diverges")
            if not math.isfinite(value):
                raise ValueError(f"V is not finite at r = {point}")
            out.flat[i] = value
        return out if out.shape else float(out)

    return v_fn


# -- variational functionals ----------------------------------------------


@dataclass(frozen=True)
class PohozaevFunctionals:
    """Kinetic, mass and nonlocal functionals; fields may be Divergent."""

    kinetic_T: Quadrature
    N: Quadrature
    Q: Quadrature

    @property
    def all_finite(self) -> bool:
        return all(not isinstance(x, Divergent) for x in (self.kinetic_T, self.N, self.Q))


def pohozaev_functionals(
    sol: "Solution",
    kappa: float,
    alpha: float,
) -> PohozaevFunctionals:
    """T = int |grad u|^2, N = int u^2, Q = int u^2 (-Lap)^-1 u^2 (flat, D > 2).

    Q has two routes.  Where N is finite and the term algebra holds the
    decaying W = (-Lap)^-1 u^2 exactly
    (:attr:`ccsp.catalog.Solution.newton_potential`), Q is the one integral
    S_(D-1) int u^2 W r^(D-1) dr.  Elsewhere (W outside the algebra, or N
    divergent) it comes from the energy form, by :func:`_charge_q`.  A
    charge infinite at r = 0 (N divergent there) makes Q divergent there.
    """
    if sol.regime is not Regime.FLAT:
        raise ValueError("functional identities are derived in the flat case")
    if sol.dim <= 2:
        raise ValueError("functional identities require D > 2")
    du = sol.du_fn(kappa, alpha)
    t_val = _manifold_integral(sol, kappa, lambda r: du(r) ** 2, NESTED_REL_TOL)

    n_radial = mass(sol, kappa, alpha, NESTED_REL_TOL, include_sphere_factor=False)
    n_val = n_radial if isinstance(n_radial, Divergent) else n_radial * sphere_area(sol.dim)
    if n_val == Divergent("small-r"):
        # u^2 > 0, so the charge M(r) inside every radius is infinite too
        return PohozaevFunctionals(t_val, n_val, n_val)
    if sol.newton_potential is None or isinstance(n_radial, Divergent):
        return PohozaevFunctionals(t_val, n_val, _charge_q(sol, kappa, alpha, n_radial))
    # u and W compiled apart: the grade A^4 of u^2 W would overflow first
    u, w = sol.u_fn(kappa, alpha), sol.w_fn(kappa, alpha)
    q_val = _manifold_integral(sol, kappa, lambda r: u(r) ** 2 * w(r), NESTED_REL_TOL)
    return PohozaevFunctionals(t_val, n_val, q_val)


def _charge_q(sol: "Solution", kappa: float, alpha: float, n_radial: Quadrature) -> Quadrature:
    """Q from the energy form: with -Lap W = u^2 and W decaying,
    Q = int u^2 W = int |grad W|^2 = S_(D-1) int_0^inf M(r)^2 r^(1-D) dr,
    where M(r) = int_0^r u^2 t^(D-1) dt is the charge inside radius r, by
    :func:`_charge` in units of the flat scale against `n_radial`, N's
    radial part.  A charge that diverges at large r (`n_radial` divergent
    there) has no total to complement, and every r takes the integral
    from 0."""
    u = sol.u_fn(kappa, alpha)
    charge = _charge(_weighted(sol.space(kappa), lambda t: u(t) ** 2, sol.dim - 1), n_radial, sol.scale)
    return _manifold_integral(sol, kappa, lambda r: charge(r) ** 2, 1e-9, power=1 - sol.dim)


@dataclass(frozen=True)
class PohozaevReport:
    functionals: PohozaevFunctionals
    identities: Optional[dict]
    defect: Optional[Quadrature]

    def to_json_obj(self) -> dict:
        return {
            "T": _json_value(self.functionals.kinetic_T),
            "N": _json_value(self.functionals.N),
            "Q": _json_value(self.functionals.Q),
            "identities": self.identities,
            "defect": _json_value(self.defect),
        }


def pohozaev_check(sol: "Solution", kappa: float, alpha: float) -> PohozaevReport:
    """Evaluate the three flat-space integral identities.

        T - omega N + alpha Q = 0
        (D-2) T - D omega N + (D+2)/2 alpha Q = 0
        4 T + (D-2) alpha Q = 0

    The defect is the largest |left-hand side| normalized by T.  The
    identities hold for the homogeneous system only: for an entry with a
    background source rho, identities and defect are None.
    """
    fns = pohozaev_functionals(sol, kappa, alpha)
    if not sol.rho.is_zero:
        return PohozaevReport(fns, None, None)
    if not fns.all_finite:
        return PohozaevReport(fns, None, Divergent("functionals"))
    t, n, q = fns.kinetic_T, fns.N, fns.Q
    omega = sol.omega_value(kappa)
    d = sol.dim
    ids = {
        "first": t - omega * n + alpha * q,
        "second": (d - 2) * t - d * omega * n + 0.5 * (d + 2) * alpha * q,
        "third": 4.0 * t + (d - 2) * alpha * q,
    }
    defect = max(abs(x) for x in ids.values()) / max(t, 1e-300)
    return PohozaevReport(fns, ids, defect)


# -- verification reports ---------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    solution_id: str
    kappa: float
    alpha: float
    schrodinger_residual_max: float
    poisson_residual_max: float
    mass_numeric: Optional[Quadrature]
    mass_expected: Optional[float]
    pohozaev_defect: Optional[Quadrature]
    passed: bool
    tolerances: dict
    grid_meta: dict

    def to_json_obj(self) -> dict:
        return {
            "solution_id": self.solution_id,
            "kappa": self.kappa,
            "alpha": self.alpha,
            "schrodinger_residual_max": self.schrodinger_residual_max,
            "poisson_residual_max": self.poisson_residual_max,
            "mass_numeric": _json_value(self.mass_numeric),
            "mass_expected": self.mass_expected,
            "pohozaev_defect": _json_value(self.pohozaev_defect),
            "passed": self.passed,
            "tolerances": self.tolerances,
            "grid": self.grid_meta,
        }


def verify_solution(
    sol: "Solution",
    kappa: float,
    alpha: float,
    residual_tol: float = 1e-6,
    with_pohozaev: bool = False,
) -> VerificationReport:
    """Full numerical verification of one catalog entry.

    Checks the PDE residuals of both equations, the mass against the
    stored closed form (or, for infinite-mass entries, that the divergence
    detector agrees), and optionally the flat variational identities
    (homogeneous entries only).  residual_tol must be finite and
    nonnegative.
    """
    if not (0.0 <= residual_tol < math.inf):
        raise ValueError(f"residual tolerance must be finite and nonnegative, got {residual_tol}")
    grid = default_grid(sol, kappa)
    schro, poisson = fd_residual(sol, kappa, alpha, grid)
    ok = schro <= residual_tol and poisson <= residual_tol

    m_num = mass(sol, kappa, alpha)
    m_exp = sol.expected_mass_value(kappa, alpha)
    if sol.finite_mass:
        if isinstance(m_num, Divergent):
            ok = False
        elif m_exp:
            ok = ok and abs(m_num - m_exp) <= MASS_REL_TOL * abs(m_exp)
    else:
        ok = ok and isinstance(m_num, Divergent)

    p_defect: Optional[Quadrature] = None
    if (
        with_pohozaev
        and sol.regime is Regime.FLAT
        and sol.dim > 2
        and sol.finite_mass
        and sol.rho.is_zero
    ):
        rep = pohozaev_check(sol, kappa, alpha)
        p_defect = rep.defect
        ok = ok and not isinstance(p_defect, Divergent) and p_defect <= 1e-6

    return VerificationReport(
        solution_id=sol.id,
        kappa=kappa,
        alpha=alpha,
        schrodinger_residual_max=schro,
        poisson_residual_max=poisson,
        mass_numeric=m_num,
        mass_expected=m_exp,
        pohozaev_defect=p_defect,
        passed=ok,
        tolerances={"residual": residual_tol, "mass_rel": MASS_REL_TOL},
        grid_meta={
            "points": len(grid),
            "r_min": float(grid[0]),
            "r_max": float(grid[-1]),
        },
    )
