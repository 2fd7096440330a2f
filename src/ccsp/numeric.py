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
* adaptive quadrature on 15 + 7 Gauss-Legendre nodes for the gaps of the
  cumulative integrals, the pending panels of a bisection level evaluated
  in one call and reduced by one batched product per rule (bit for bit
  the row-by-row np.dot).  A job fails at its first non-finite panel or at
  a panel unresolved at the depth cap;
* one weighted integral S_(D-1) int g S^p dr over the manifold (S the
  curvature-scaled sine), for the mass, T, Q and the charge balance
  int (u^2 + rho) = 0 that a compact manifold forces, run in units of the
  space's length (1/sqrt|kappa|, or the flat scale);
* PDE residuals of both field equations on grids clear of the profile's
  poles, each Laplacian assembled in floats as f'' + (D-1) f' / T from the
  exact derivatives of u and V;
* radial inversion of -Lap with decay normalization, via nested adaptive
  quadrature whose cumulative integrals are sums over fixed anchors a
  quarter octave apart plus each point's gap from the last anchor it
  passes (exact to quadrature tolerance, no interpolation; a pure function
  of the point; every gap of a batch in one batched quadrature call; NaN
  past a gap that fails), so inside [2^-40, 2^40] no gap spans more than a
  quarter octave of a slowly decaying potential; a gap from r = 0 goes
  through the double-exponential rule, which takes an integrable
  singularity there;
* the variational functionals T, N, Q and their flat-space identities, Q
  from the energy form int |grad W|^2 with one cumulative charge integral
  (no inversion of -Lap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Union

import numpy as np
from numpy.polynomial.legendre import leggauss

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
MAX_DEPTH = 30
MAX_PANELS = 2**16      # bisected panels one level of _bisect may hold
NESTED_REL_TOL = 1e-11  # poisson_invert and pohozaev_functionals (Q's outer: 1e-9)
MASS_REL_TOL = 1e-8     # verify: quadrature mass against the closed form
DE_T_MAX = 6.8          # |t| of the outermost double-exponential node: exp(pi/2 sinh t) < 1e307
DE_LEVELS = 8           # levels of the double-exponential rule, step 1/2 down to 1/256
GRID_R_CAP = 10.0       # noncompact default grids end here (times the flat scale)
GRID_POINTS = 2000      # radii of a default grid, shared among its smooth segments

_X7, _W7 = leggauss(7)
_X15, _W15 = leggauss(15)
_NODES = np.concatenate([_X15, _X7])
_W15_COLUMN, _W7_COLUMN = _W15[:, None], _W7[:, None]


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


def _panels(f: Callable, lo: list, hi: list) -> tuple[list, list]:
    """15- and 7-point Gauss-Legendre estimates of many panels from one
    call of f on all their nodes (22 per panel; the rules share only the
    midpoint), with f's floating-point errors ignored.  Returns the lists
    of I15 and |I15 - I7| per panel, with (nan, inf) for a panel whose
    estimates are not finite.  Each rule is one stack of 1 x n by n x 1
    products, which numpy reduces row by row in the dot loop of np.dot, so
    a panel's bits do not depend on the other panels evaluated with it (a
    plain matrix-vector product would change them in the last bit)."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _NODES
    with np.errstate(all="ignore"):
        fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)[:, None, :]
        i15 = half * (fx[..., :15] @ _W15_COLUMN).ravel()
        i7 = half * (fx[..., 15:] @ _W7_COLUMN).ravel()
        err = np.abs(i15 - i7)
        # a finite sum of the errors makes every I15 and I7 finite
        if math.isfinite(err.sum()):
            return i15.tolist(), err.tolist()
    finite = np.isfinite(i15) & np.isfinite(i7)
    return np.where(finite, i15, math.nan).tolist(), np.where(finite, err, math.inf).tolist()


class _Bisection(NamedTuple):
    """What :func:`_bisect` returns: per job its value (NaN for a job that
    failed), and the jobs that failed, with why, in the order the failures
    were found."""

    values: list
    failed: dict


def _bisect(f: Callable, jobs: list) -> _Bisection:
    """Adaptive bisection with the 15/7 pair on each job (a, b, tol),
    with one call of f per bisection level for the pending panels of
    every job.

    A panel is accepted when its error estimate meets its tolerance or is
    already at machine precision relative to the panel value (further
    splitting cannot improve it); otherwise both halves go to the next
    level with half the tolerance.  A job fails, and is bisected no
    further, at a panel whose estimate is not finite: its error is
    infinite, so it could never be accepted, and bisecting it would only
    integrate its finite parts.  An integrand that is not finite at a
    single node therefore fails too, where bisection might have stepped
    around that node.  A job with a panel still unaccepted after MAX_DEPTH
    bisections fails as well, so an interior pole is an error, not a
    number; and a level of more than MAX_PANELS bisected panels, which
    bounds memory, fails every job still open.  The leaves are summed as
    left + right up the bisection tree, so each value is the one
    recursive bisection of its job returns.
    """
    lo, hi, tol = ([job[i] for job in jobs] for i in range(3))
    owner = list(range(len(jobs)))
    failed: dict[int, str] = {}
    levels: list[tuple[list, list]] = []  # per level: values, split panels
    while lo:
        ests, errs = _panels(f, lo, hi)
        split = []
        for k, (est, err, t, j) in enumerate(zip(ests, errs, tol, owner)):
            if err <= 5e-15 * abs(est):
                continue
            if not math.isfinite(est):
                failed.setdefault(j, f"integrand not finite on [{lo[k]}, {hi[k]}]")
            elif err > t:
                split.append(k)
        if failed:
            split = [k for k in split if owner[k] not in failed]
        if split and len(levels) == MAX_DEPTH:
            for k in split:
                failed.setdefault(owner[k], f"no convergence after {MAX_DEPTH} bisections on [{lo[k]}, {hi[k]}]")
            split = []
        if 2 * len(split) > MAX_PANELS:
            a, b = min(lo[k] for k in split), max(hi[k] for k in split)
            for k in split:
                failed.setdefault(owner[k], f"more than {MAX_PANELS} panels to bisect in one level on [{a}, {b}]")
            split = []
        levels.append((ests, split))
        mid = [0.5 * (lo[k] + hi[k]) for k in split]
        lo, hi, tol, owner = (
            [x for k, m in zip(split, mid) for x in (lo[k], m)],
            [x for k, m in zip(split, mid) for x in (m, hi[k])],
            [0.5 * tol[k] for k in split for _ in (0, 1)],
            [owner[k] for k in split for _ in (0, 1)],
        )
    below: list[float] = []
    for values, split in reversed(levels):
        for i, k in enumerate(split):
            values[k] = below[2 * i] + below[2 * i + 1]
        below = values
    for j in failed:
        below[j] = math.nan
    return _Bisection(below, failed)


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
        """The integral past the outermost term: 0 past a zero term, inf
        past terms that do not decay (the side diverges), NaN for a side
        with no term, else bounded through the secant decay rate of the last
        two terms (the log-terms of a double-exponential end are concave)."""
        if not len(self.terms):
            return math.nan
        last = abs(self.terms[-1])
        prev, dt = (abs(self.terms[-2]), self.t[-1] - self.t[-2]) if len(self.terms) > 1 else (abs(center), self.t[-1])
        if last == 0.0:
            return 0.0
        if not last < prev:
            return math.inf
        return last * dt / math.log(prev / last)

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
    res_schro = -(d2u + m * inv_t * du) + alpha * v * u - sol.omega_value(kappa) * u
    res_poisson = -(d2v + m * inv_t * dv) - u**2 - rho
    norm = max(float(np.max(np.abs(u))), 1.0)
    return (
        float(np.max(np.abs(res_schro))) / norm,
        float(np.max(np.abs(res_poisson))) / norm,
    )


# -- radial inversion of -Lap ---------------------------------------------


_ANCHORS = 2.0 ** (np.arange(-160, 161) / 4.0)  # quarter-octave anchors of _Cumulative


class _Cumulative:
    """Cumulative integral M(s) = integral_start^s f, a pure function of s.

    The fixed anchors 2^(k/4), k = -160..160, carry the ordered sums of the
    gaps from start outward on their side, filled lazily; a point adds the
    gap from the last anchor it passes (from start if it passes none).  So
    a value never depends on which other points were asked for, and no
    interpolation error enters (kinks from interpolation would spoil
    finite-difference checks downstream).  A gap that fails (f not finite,
    or a bisection level over MAX_PANELS, which depends on the batch) makes
    M NaN past it in that call only: it never enters the anchor sums.
    """

    def __init__(self, f: Callable, start: float, tol: float) -> None:
        self._f = f
        self._tol = tol
        self._start = start
        # per side: direction, edges (start, then the anchors in the order
        # they are passed) and M at the edges summed so far
        above, below = _ANCHORS[_ANCHORS > start], _ANCHORS[_ANCHORS < start][::-1]
        self._sides = [
            (sign, np.concatenate(([start], anchors)), [0.0]) for sign, anchors in ((1.0, above), (-1.0, below))
        ]

    def many(self, s_values: np.ndarray) -> np.ndarray:
        """M at every point, of any shape.  The missing anchor gaps and the
        gaps of the points are integrated in one batched call."""
        s_values = np.asarray(s_values, dtype=float)
        flat = s_values.ravel()
        out = np.empty_like(flat)
        up = flat >= self._start
        ends = [(np.empty(0), np.empty(0))]  # the gaps to integrate: one end, the other
        plans = []
        for (sign, edges, sums), mask in zip(self._sides, (up, ~up)):
            idx = np.flatnonzero(mask)
            if not idx.size:
                continue
            at = np.searchsorted(sign * edges, sign * flat[idx], side="right") - 1  # last edge passed
            missing = edges[len(sums) - 1 : at.max() + 1]  # edges of the gaps not yet summed
            moved = flat[idx] != edges[at]
            ends += [(missing[:-1], missing[1:]), (edges[at[moved]], flat[idx[moved]])]
            plans.append((sign, sums, len(missing[1:]), idx, at, moved))
        a, b = map(np.concatenate, zip(*ends))
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        jobs = list(zip(lo.tolist(), hi.tolist(), (self._tol * np.maximum(1.0, hi - lo)).tolist()))
        bisected = iter(_bisect(self._f, [job for job in jobs if job[0] > 0.0]).values)
        incs = iter([self._from_zero(b) if a == 0.0 else next(bisected) for a, b, _ in jobs])
        for sign, sums, n_missing, idx, at, moved in plans:
            for inc in list(islice(incs, n_missing)):  # every missing gap is consumed
                if math.isnan(inc):  # failed: the anchors past it stay unsummed
                    break
                sums.append(sums[-1] + sign * inc)
            vals = np.array(sums + [math.nan] * (int(at.max()) + 1 - len(sums)))[at]
            vals[moved] += sign * np.fromiter(incs, float, int(moved.sum()))
            out[idx] = vals
        return out.reshape(s_values.shape)


    def _from_zero(self, b: float) -> float:
        """The gap (0, b) by :func:`integrate_radial`, whose tanh-sinh end
        takes an integrable singularity at 0; NaN if it fails."""
        try:
            inc = integrate_radial(self._f, 0.0, b, self._tol)
        except QuadratureError:
            return math.nan
        return math.nan if isinstance(inc, Divergent) else inc


def poisson_invert(
    f: Callable,
    space: Space,
    dim: int,
) -> Callable:
    """Return V with -Lap(V) = f and V -> 0 at infinity (radial, decaying).

        V(r) = integral_r^inf S(s)^(1-D) M(s) ds,  M(s) = integral_0^s f(t) S(t)^(D-1) dt

    Implemented as nested quadrature: both cumulative integrals are
    continued from fixed quarter-octave anchors, and the tail past r_far
    is one :func:`integrate_radial`.  Flat and
    hyperbolic regimes only (the sphere has no decay normalization).  V
    raises ValueError where it is not finite (the inner charge overflows).
    """
    if space.regime is Regime.SPHERICAL:
        raise ValueError("decay-normalized inversion needs a noncompact space")
    if dim < 2:
        raise ValueError("radial inversion requires D >= 2")

    m_cum = _Cumulative(_weighted(space, f, dim - 1), 0.0, NESTED_REL_TOL)
    outer = _weighted(space, m_cum.many, 1 - dim)

    # push until the remaining tail is negligible
    r_far = 20.0 if space.regime is Regime.FLAT else 40.0 / math.sqrt(-space.kappa)
    while True:
        with np.errstate(all="ignore"):
            g = float(outer(r_far))
        if not math.isfinite(g):
            raise ValueError(f"inversion integrand not finite at r = {r_far}")
        tail_est = abs(g) * r_far  # decays at least like s^(1-D), D >= 3 safe
        if tail_est < 1e-13 or r_far > 1e7:
            break
        r_far *= 2.0
    v_cum = _Cumulative(outer, r_far, NESTED_REL_TOL)
    tail = integrate_radial(outer, r_far, math.inf, NESTED_REL_TOL)
    if isinstance(tail, Divergent):
        raise ValueError("inversion tail diverges")

    def v_fn(r):
        out = tail - v_cum.many(r)  # integral_r^r_far + tail
        finite = np.isfinite(out)
        if not finite.all():
            raise ValueError(f"V is not finite at r = {np.asarray(r, dtype=float)[~finite].flat[0]}")
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

    Q comes from the energy form: with -Lap W = u^2 and W decaying,
    Q = int u^2 W = int |grad W|^2 = S_(D-1) int_0^inf M(r)^2 r^(1-D) dr,
    where M(r) = int_0^r u^2 t^(D-1) dt is the charge inside radius r.
    """
    if sol.regime is not Regime.FLAT:
        raise ValueError("functional identities are derived in the flat case")
    if sol.dim <= 2:
        raise ValueError("functional identities require D > 2")
    du = sol.du_fn(kappa, alpha)
    t_val = _manifold_integral(sol, kappa, lambda r: du(r) ** 2, NESTED_REL_TOL)

    n_val = mass(sol, kappa, alpha, NESTED_REL_TOL)
    if n_val == Divergent("small-r"):
        # u^2 > 0, so the charge M(r) inside every radius is infinite too
        return PohozaevFunctionals(t_val, n_val, n_val)

    u = sol.u_fn(kappa, alpha)
    density = _weighted(sol.space(kappa), lambda t: u(t) ** 2, sol.dim - 1)
    m_cum = _Cumulative(density, 0.0, NESTED_REL_TOL)
    q_val = _manifold_integral(sol, kappa, lambda r: m_cum.many(r) ** 2, 1e-9, power=1 - sol.dim)
    return PohozaevFunctionals(t_val, n_val, q_val)


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
