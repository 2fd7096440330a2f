"""Numerical verification layer: quadrature, finite differences, inversion.

Everything here treats the symbolic layer as ground truth and checks it
with independent machinery:

* adaptive quadrature on 15 + 7 Gauss-Legendre nodes evaluated in one
  call per panel, stopping at the first non-finite panel, with improper
  endpoints probed by dyadic windows (halving toward a finite endpoint,
  doubling toward infinity).  A tail or endpoint whose window
  contributions stop shrinking (ratio >= 0.9 over eight consecutive
  windows) fails the Cauchy test and the integral is classified
  DIVERGENT -- a result, not an error;
* second-order central finite differences for the radial Laplacian,
  giving PDE residuals for both field equations on singularity-avoiding
  grids;
* radial inversion of -Lap with decay normalization, via nested adaptive
  quadrature whose cumulative integrals are continued incrementally from
  cached anchors (exact to quadrature tolerance, no interpolation), the
  outer one seeded with dyadic anchors so slowly decaying potentials are
  resolved;
* the variational functionals T, N, Q and their flat-space identities, Q
  from the energy form int |grad W|^2 with one cumulative charge integral
  (no inversion of -Lap);
* the charge balance int (u^2 + rho) = 0 that a compact manifold forces.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Union

import numpy as np
from numpy.polynomial.legendre import leggauss

from .geometry import Regime, Space, sphere_area

if TYPE_CHECKING:  # pragma: no cover
    from .catalog import Solution

__all__ = [
    "Divergent",
    "Grid",
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
ABS_FLOOR = 1e-14

_X7, _W7 = leggauss(7)
_X15, _W15 = leggauss(15)
_NODES = np.concatenate([_X15, _X7])


@dataclass(frozen=True)
class Divergent:
    """Marker value for integrals that fail the Cauchy test."""

    where: str  # "small-r" | "large-r" | "endpoint"

    def __str__(self) -> str:
        return f"divergent:{self.where}"


Quadrature = Union[float, Divergent]


def _json_value(x):
    """A quadrature result as JSON: Divergent values print as their tag."""
    return str(x) if isinstance(x, Divergent) else x


def _panel(f: Callable, a: float, b: float) -> tuple[float, float]:
    """15- and 7-point Gauss-Legendre estimates of one panel from one call
    of f on their 22 nodes (the rules share only the midpoint); returns
    (I15, |I15 - I7|), or (nan, inf) when either estimate is not finite."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fx = np.asarray(f(mid + half * _NODES), dtype=float)
    i15 = half * float(np.dot(_W15, fx[:15]))
    i7 = half * float(np.dot(_W7, fx[15:]))
    if not (math.isfinite(i15) and math.isfinite(i7)):
        return math.nan, math.inf
    return i15, abs(i15 - i7)


def _adaptive(f: Callable, a: float, b: float, tol: float, depth: int = 30) -> float:
    """Adaptive bisection with the 15/7 pair; deterministic order.

    A panel is accepted when its error estimate meets the absolute
    tolerance or is already at machine precision relative to the panel
    value (further splitting cannot improve it).  A panel whose estimate
    is not finite raises ValueError at once: its error is infinite, so it
    could never be accepted, and bisecting it would only integrate its
    finite parts before failing on the rest.  An integrand that is not
    finite at a single node therefore raises too, where bisection might
    have stepped around that node.
    """
    est, err = _panel(f, a, b)
    if not math.isfinite(est):
        raise ValueError(f"integrand not finite on [{a}, {b}]")
    if err <= tol or err <= 5e-15 * abs(est) or depth == 0:
        return est
    mid = 0.5 * (a + b)
    half_tol = 0.5 * tol
    return _adaptive(f, a, mid, half_tol, depth - 1) + _adaptive(f, mid, b, half_tol, depth - 1)


def _cauchy_windows(
    f: Callable,
    windows,
    tol_of: Callable[[float], float],
    where: str,
    max_windows: int = 200,
) -> Quadrature:
    """Sum window contributions until they become negligible.

    Declares divergence when the last eight window magnitudes fail to
    shrink (ratio >= 0.9 while still non-negligible) or a window is not
    finite.
    """
    acc = 0.0
    ratios: list[float] = []
    prev: Optional[float] = None
    quiet = 0
    for idx, (lo, hi) in enumerate(windows):
        if idx >= max_windows:
            return Divergent(where)
        try:
            w, werr = _panel(f, lo, hi)
            if werr > max(tol_of(acc), ABS_FLOOR):
                w = _adaptive(f, lo, hi, max(tol_of(acc), ABS_FLOOR))
        except (ValueError, OverflowError):
            return Divergent(where)
        if not math.isfinite(w):
            return Divergent(where)
        acc += w
        tol = max(tol_of(acc), ABS_FLOOR)
        if abs(w) <= tol:
            quiet += 1
            if quiet >= 2:
                return acc
        else:
            quiet = 0
        if prev is not None and abs(prev) > 0:
            ratios.append(abs(w) / abs(prev))
            if len(ratios) >= 8 and all(r >= 0.9 for r in ratios[-8:]) and abs(w) > tol:
                return Divergent(where)
        prev = w
    return Divergent(where)


def integrate_radial(
    f: Callable,
    r_lo: float,
    r_hi: float,
    rel_tol: float = DEFAULT_REL_TOL,
) -> Quadrature:
    """Integrate f(r) dr over (r_lo, r_hi), endpoints treated as improper.

    f must accept numpy arrays.  r_hi may be infinite.  Returns a float or
    :class:`Divergent` tagged with the offending end; genuine poles in the
    open interior are errors, not divergences.
    """
    if not (r_lo >= 0) or (math.isfinite(r_hi) and r_hi <= r_lo):
        raise ValueError(f"bad interval ({r_lo}, {r_hi})")
    infinite = math.isinf(r_hi)
    span = (r_hi - r_lo) if not infinite else math.inf
    d_lo = min(1.0, span / 4.0) if not infinite else 1.0
    a0 = r_lo + d_lo

    def tol_of(acc: float) -> float:
        return rel_tol * max(abs(acc), 1.0e-3)

    # core
    if infinite:
        b0 = max(2.0 * a0, 10.0)
        core = _adaptive(f, a0, b0, tol_of(0.0))
        tail_windows = ((b0 * 2.0**k, b0 * 2.0 ** (k + 1)) for k in range(10**6))
        hi_part = _cauchy_windows(f, tail_windows, tol_of, "large-r", max_windows=60)
        if isinstance(hi_part, Divergent):
            return hi_part
    else:
        d_hi = min(1.0, span / 4.0)
        b0 = r_hi - d_hi
        core = _adaptive(f, a0, b0, tol_of(0.0))
        hi_windows = (
            (r_hi - d_hi / 2.0**k, r_hi - d_hi / 2.0 ** (k + 1)) for k in range(10**6)
        )
        hi_part = _cauchy_windows(f, hi_windows, tol_of, "large-r")
        if isinstance(hi_part, Divergent):
            return hi_part

    lo_windows = ((r_lo + d_lo / 2.0 ** (k + 1), r_lo + d_lo / 2.0**k) for k in range(10**6))
    lo_part = _cauchy_windows(f, lo_windows, tol_of, "small-r")
    if isinstance(lo_part, Divergent):
        return lo_part
    return core + lo_part + hi_part


# -- masses --------------------------------------------------------------


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
    space = sol.space(kappa)
    u = sol.u_fn(kappa, alpha)
    s_fn = space.metric.S

    def f(r):
        r = np.asarray(r, dtype=float)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return u(r) ** 2 * s_fn(r) ** (sol.dim - 1)

    # split at the genuine poles of the profile so that every singular
    # radius is probed as an improper endpoint, never evaluated across
    r_hi = space.r_max if math.isfinite(space.r_max) else math.inf
    interior = [s for s in sol.singular_radii_values(kappa) if 0.0 < s < r_hi]
    cuts = [0.0] + interior + [r_hi]
    total = 0.0
    for i, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
        part = integrate_radial(f, lo, hi, rel_tol)
        if isinstance(part, Divergent):
            where = part.where
            if where == "small-r" and i > 0:
                where = f"r={lo:.6g}"
            elif where == "large-r" and (i < len(cuts) - 2 or math.isfinite(r_hi)):
                where = f"r={hi:.6g}"
            return Divergent(where)
        total += part
    return total * (sphere_area(sol.dim) if include_sphere_factor else 1.0)


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
    space = sol.space(kappa)
    has_sing = bool(sol.singular_radii)
    if sol.rho.is_zero:
        detail = ("singular set nonempty, as the charge-balance obstruction requires" if has_sing
                  else "CONTRADICTION: regular homogeneous solution on a compact manifold")
        return CompactnessReport(sol.id, has_sing, has_sing, None, detail)
    u = sol.u_fn(kappa, alpha)
    rho = sol.rho_fn(kappa, alpha)
    s_fn = space.metric.S

    def integrand(r):
        r = np.asarray(r, dtype=float)
        return (u(r) ** 2 + rho(r)) * s_fn(r) ** (sol.dim - 1)

    total = integrate_radial(integrand, 0.0, space.r_max, rel_tol=1e-12)
    if isinstance(total, Divergent):
        return CompactnessReport(sol.id, has_sing, False, None, "charge integral diverges")
    total *= sphere_area(sol.dim)
    return CompactnessReport(sol.id, has_sing, abs(total) <= 1e-10, total, f"total charge {total:.3e}")


# -- finite-difference residuals -----------------------------------------


@dataclass(frozen=True)
class Grid:
    """Evaluation radii plus the stencil step, kept clear of singularities."""

    r_values: np.ndarray
    h: float
    singular_radii: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        r = np.asarray(self.r_values, dtype=float)
        if r.ndim != 1 or len(r) == 0:
            raise ValueError("grid must be a nonempty 1-d array")
        if np.any(np.diff(r) <= 0):
            raise ValueError("grid radii must be strictly increasing")
        for s in self.singular_radii:
            if np.min(np.abs(r - s)) < 10.0 * self.h:
                raise ValueError(f"grid point within 10 h of the singular radius {s}")
        object.__setattr__(self, "r_values", r)


def default_grid(
    sol: "Solution",
    kappa: float,
    n_points: int = 2000,
    h: float = 1e-4,
    r_cap: float = 10.0,
) -> Grid:
    """Per-solution verification grid.

    Each maximal smooth segment of the domain contributes points, inset by
    0.1 from coordinate endpoints and by ~1 from genuine poles of the
    profile (steep inverse powers need the larger margin for the stencil
    to resolve them in double precision).
    """
    space = sol.space(kappa)
    sing = sol.singular_radii_values(kappa)
    lo = 0.0
    if space.regime is Regime.FLAT:
        hi = r_cap * sol.scale
    elif space.regime is Regime.HYPERBOLIC:
        hi = r_cap
    else:
        hi = space.r_max
    cuts = [lo] + [s for s in sing if lo < s < hi] + [hi]
    segments = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        length = b - a
        # genuine poles need a wide margin: the stencil must resolve the
        # inverse powers to 1e-6 in double precision
        inset_a = min(1.0, 0.45 * length) if a in sing else min(0.1, 0.25 * length)
        inset_b = min(1.0, 0.45 * length) if b in sing else min(0.1, 0.25 * length)
        aa, bb = a + inset_a, b - inset_b
        if bb > aa:
            segments.append((aa, bb))
    if not segments:
        raise ValueError("no smooth segment wide enough for a grid")
    per = max(8, n_points // len(segments))
    rs = np.concatenate([np.linspace(a, b, per) for a, b in segments])
    rs = np.unique(rs)
    return Grid(rs, h, tuple(sing))


def fd_residual(
    sol: "Solution",
    kappa: float,
    alpha: float,
    grid: Optional[Grid] = None,
) -> tuple[float, float]:
    """Max-norm residuals of both field equations under a second-order
    central-difference radial Laplacian, normalized by max(|u|, 1)."""
    if grid is None:
        grid = default_grid(sol, kappa)
    space = sol.space(kappa)
    u = sol.u_fn(kappa, alpha)
    v = sol.v_fn(kappa, alpha)
    rho = sol.rho_fn(kappa, alpha)
    omega = sol.omega_value(kappa)
    r = grid.r_values
    h = grid.h
    inv_t = space.metric.inv_T(r)

    def lap(fn):
        fp, f0, fm = fn(r + h), fn(r), fn(r - h)
        second = (fp - 2.0 * f0 + fm) / h**2
        first = (fp - fm) / (2.0 * h)
        if sol.dim == 1:
            return second
        return second + (sol.dim - 1) * inv_t * first

    u0, v0, rho0 = u(r), v(r), rho(r)
    res_schro = -lap(u) + alpha * v0 * u0 - omega * u0
    res_poisson = -lap(v) - u0**2 - rho0
    norm = max(float(np.max(np.abs(u0))), 1.0)
    return (
        float(np.max(np.abs(res_schro))) / norm,
        float(np.max(np.abs(res_poisson))) / norm,
    )


# -- radial inversion of -Lap ---------------------------------------------


class _Cumulative:
    """Incrementally continued cumulative integral with sorted anchors.

    Evaluations are exact to the adaptive tolerance: each new point extends
    the integral from the nearest cached anchor, so no interpolation error
    enters (kinks from interpolation would spoil finite-difference checks
    downstream).
    """

    def __init__(self, f: Callable, start: float, tol: float) -> None:
        self._f = f
        self._tol = tol
        self._xs: list[float] = [start]
        self._vals: list[float] = [0.0]

    def __call__(self, s: float) -> float:
        xs, vals = self._xs, self._vals
        i = bisect.bisect_left(xs, s)
        if i < len(xs) and xs[i] == s:
            return vals[i]
        j = i - 1 if i > 0 and (i == len(xs) or s - xs[i - 1] <= xs[i] - s) else i
        s0, m0 = xs[j], vals[j]
        lo, hi = (s0, s) if s > s0 else (s, s0)
        inc = _adaptive(self._f, lo, hi, self._tol * max(1.0, hi - lo))
        val = m0 + (inc if s > s0 else -inc)
        xs.insert(i, s)
        vals.insert(i, val)
        return val

    def many(self, s_values: np.ndarray) -> np.ndarray:
        order = np.argsort(s_values)
        out = np.empty_like(s_values, dtype=float)
        for i in order:
            out[i] = self(float(s_values[i]))
        return out


def poisson_invert(
    f: Callable,
    space: Space,
    dim: int,
    rel_tol: float = 1e-11,
) -> Callable:
    """Return V with -Lap(V) = f and V -> 0 at infinity (radial, decaying).

        V(r) = integral_r^inf S(s)^(1-D) M(s) ds,  M(s) = integral_0^s f(t) S(t)^(D-1) dt

    Implemented as nested adaptive quadrature; both cumulative integrals
    are memoized by incremental continuation from anchors.  Flat and
    hyperbolic regimes only (the sphere has no decay normalization).
    """
    if space.regime is Regime.SPHERICAL:
        raise ValueError("decay-normalized inversion needs a noncompact space")
    if dim < 2:
        raise ValueError("radial inversion requires D >= 2")

    s_fn = space.metric.S
    s_pow = lambda s, p: s_fn(np.asarray(s, dtype=float)) ** p

    def inner(t):
        return f(t) * s_pow(t, dim - 1)

    m_cum = _Cumulative(inner, 0.0, rel_tol)

    def outer(s):
        s = np.asarray(s, dtype=float)
        m = m_cum.many(np.atleast_1d(s)).reshape(np.shape(s))
        return s_pow(s, 1 - dim) * m

    # push until the remaining tail is negligible
    r_far = 20.0 if space.regime is Regime.FLAT else 40.0 / math.sqrt(-space.kappa)
    while True:
        g = float(outer(r_far))
        tail_est = abs(g) * r_far  # decays at least like s^(1-D), D >= 3 safe
        if tail_est < 1e-13 or r_far > 1e7:
            break
        r_far *= 2.0
    v_cum = _Cumulative(outer, r_far, rel_tol)
    # dyadic anchors down to r = 1, so that no single panel spans decades
    # of a slowly decaying integrand and misses where its mass lies
    anchor = r_far / 2.0
    while anchor >= 1.0:
        v_cum(anchor)
        anchor /= 2.0
    tail = _cauchy_windows(
        outer,
        ((r_far * 2.0**k, r_far * 2.0 ** (k + 1)) for k in range(10**6)),
        lambda acc: 1e-13,
        "large-r",
        max_windows=60,
    )
    if isinstance(tail, Divergent):
        raise ValueError("inversion tail fails the Cauchy test")

    def v_fn(r):
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.empty_like(r_arr)
        for i, rv in enumerate(r_arr):
            out[i] = tail - v_cum(float(rv))  # integral_r^rfar + tail
        out = out.reshape(np.shape(np.asarray(r, dtype=float)))
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
    rel_tol: float = 1e-11,
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
    space = sol.space(kappa)
    area = sphere_area(sol.dim)
    dim = sol.dim

    if sol.u.is_zero:
        return PohozaevFunctionals(0.0, 0.0, 0.0)

    amp = sol.amp_sq(kappa, alpha)
    du = sol._scaled(sol.u.diff().compile(space, alpha, amp), -3)

    def t_integrand(r):
        r = np.asarray(r, dtype=float)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return du(r) ** 2 * r ** (dim - 1)

    t_val = integrate_radial(t_integrand, 0.0, math.inf, rel_tol)
    if not isinstance(t_val, Divergent):
        t_val *= area

    n_val = mass(sol, kappa, alpha, rel_tol)

    u = sol.u_fn(kappa, alpha)

    def charge_density(t):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return u(t) ** 2 * t ** (dim - 1)

    m_cum = _Cumulative(charge_density, 0.0, max(rel_tol, 1e-11))

    def q_integrand(r):
        r = np.asarray(r, dtype=float)
        m = m_cum.many(np.atleast_1d(r)).reshape(np.shape(r))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return m**2 * r ** (1 - dim)

    q_val = integrate_radial(q_integrand, 0.0, math.inf, max(rel_tol, 1e-9))
    if not isinstance(q_val, Divergent):
        q_val *= area
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
    grid: Optional[Grid] = None,
    residual_tol: float = 1e-6,
    mass_rel_tol: float = 1e-8,
    with_pohozaev: bool = False,
) -> VerificationReport:
    """Full numerical verification of one catalog entry.

    Checks the finite-difference residuals of both equations, the mass
    against the stored closed form (or, for infinite-mass entries, that
    the divergence detector agrees), and optionally the flat variational
    identities (homogeneous entries only).
    """
    if grid is None:
        grid = default_grid(sol, kappa)
    schro, poisson = fd_residual(sol, kappa, alpha, grid)
    ok = schro <= residual_tol and poisson <= residual_tol

    m_num = mass(sol, kappa, alpha)
    m_exp = sol.expected_mass_value(kappa, alpha)
    if sol.finite_mass:
        if isinstance(m_num, Divergent):
            ok = False
        elif m_exp:
            ok = ok and abs(m_num - m_exp) <= mass_rel_tol * abs(m_exp)
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
        tolerances={"residual": residual_tol, "mass_rel": mass_rel_tol},
        grid_meta={
            "points": int(len(grid.r_values)),
            "h": grid.h,
            "r_min": float(grid.r_values[0]),
            "r_max": float(grid.r_values[-1]),
        },
    )
