"""Numerical verification layer: array evaluation, quadrature, PDE
residuals, inversion.  This is the only module besides the CLI that
imports numpy.

Everything here treats the symbolic layer as ground truth and checks it
with independent machinery:

* array evaluation: S, C and 1/T of a space (the one regime branch for
  arrays), the array functions of each basis' base and odd factor, and
  :func:`compile_table`, which turns the exact coefficients of several
  expressions over one basis into floats and returns their evaluator: it
  evaluates B(r) and O(r) once per call and each distinct B^p once,
  whichever fields share it, and sums each field's terms scale * B^p
  (times O) from 0.0, so every field has the bits of its expression
  compiled alone;
* one double-exponential rule for every improper radial integral
  (Takahasi & Mori 1974): exp-sinh toward infinity, tanh-sinh on a finite
  interval, levels of halved step whose new nodes are evaluated in one
  call each, for every row of a stacked integrand at once: each row is its
  own integral, bit for bit, and the first failing row's error is raised.
  Each side of t = 0 ends at its first node that is not finite
  or whose r rounds onto an end; a side is settled when the integral past
  it is negligible against sum |terms| (not |sum|, which may cancel), and
  one whose outermost terms do not decay at the first two levels is
  DIVERGENT -- a result, not an error.  Not finite is not divergent: an
  end that never settles, or levels that never agree (an interior pole),
  raise.  A value that is not finite is an integrand's one way to fail;
  an exception it raises propagates.  A level costs a fixed number of
  numpy calls for all rows: each side of a row holds its terms and their
  sizes as two rows of one array, merged with the level's new terms in one
  pass and summed by one np.add.reduce per run of sides with one count,
  which has the bits of each row's own sum; the decisions are a few
  scalars per side;
* one weighted integral S_(D-1) int g S^(D-1) dr over the manifold (S the
  curvature-scaled sine), for the mass, for T, N and Q as one stack, and
  for the charge balance int (u^2 + rho) = 0 that a compact manifold
  forces, stacked with the int u^2 it is judged against, run in units of the
  length L (1/sqrt|kappa| curved, the flat scale flat), as are the grids;
* PDE residuals of both field equations on grids clear of the profile's
  poles (the unit-size grid times L), each Laplacian assembled in floats
  as f'' + (D-1) f' / T from the exact derivatives of u and V;
* the charge M(r) = int_0^r of an S-weighted density, for the inversion
  of -Lap below, at every r of a call from one fixed node set of the same
  rule (step 1/16), on one outer x inner grid in one call: r int_0^1 by
  tanh-sinh inside the length unit, the total less r int_1^inf by exp-sinh
  beyond it, so M is a pure function of r, and NaN where its inner error
  is not negligible against the larger of |total| and its own sum |terms|;
* radial inversion of -Lap with decay normalization, V(r) one integral of
  S^(1-D) M from r;
* the variational functionals T, N, Q and their flat-space identities, the
  rows of one weighted integral: Q = 2/(D-2) S_(D-1) int u^2 K r^(D-1) dr, with
  K(r) = int_r^inf u^2 t dt one monomial of the term algebra, so neither
  the charge nor a float inversion of -Lap enters Q.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from functools import lru_cache
from itertools import pairwise
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .geometry import Regime, Space, sphere_area
from .symbolic import Basis, RadialExpr, _power

if TYPE_CHECKING:  # pragma: no cover
    from .catalog import Solution

__all__ = [
    "Metric",
    "metric",
    "compile_table",
    "Divergent",
    "default_grid",
    "integrate_radial",
    "mass",
    "CompactnessReport",
    "compactness_obstruction_check",
    "fd_residual",
    "poisson_invert",
    "pohozaev_functionals",
    "PohozaevReport",
    "pohozaev_check",
    "VerificationReport",
    "verify_solution",
]

DEFAULT_REL_TOL = 1e-10
NESTED_REL_TOL = 1e-11  # poisson_invert and its charge; T, N and Q of pohozaev_functionals
MASS_REL_TOL = 1e-8     # verify: quadrature mass against the closed form
RESIDUAL_TOL = 1e-6     # verify: max-norm residuals of both field equations
DE_T_MAX = 6.8          # |t| of the outermost double-exponential node: exp(pi/2 sinh t) < 1e307
DE_LEVELS = 8           # levels of the double-exponential rule, step 1/2 down to 1/256
CHARGE_LEVELS = 4       # levels of the charge's fixed node set, step 1/2 down to 1/16
GRID_R_CAP = 10.0       # noncompact default grids end here, in units of the length
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


def compile_table(exprs: Sequence[RadialExpr], space: Space, alpha: float, amp_sq: float) -> Callable:
    """r -> [value of each of `exprs`] on arrays (poles become inf/nan),
    for expressions over one basis.

    Each term becomes a float scale times B^base O^odd.  B and O are
    evaluated once per call, and so is each distinct power of B, whichever
    fields share it."""
    if amp_sq < 0:
        raise ValueError(f"amplitude squared must be nonnegative, got {amp_sq}")
    basis = exprs[0].basis
    for expr in exprs[1:]:
        exprs[0]._require_same_basis(expr)
    basis.check_regime(space.regime)
    nk = space.neg_kappa
    amp = math.sqrt(amp_sq)
    table = []
    for expr in exprs:
        pre = []
        for t in expr.terms:
            if t.kappa != 0 and space.regime is Regime.FLAT:
                raise ValueError("flat evaluation of a curvature-graded term")
            if t.alpha != 0 and alpha == 0:
                raise ValueError("alpha == 0 with a coupling-graded term")
            if t.amp != 0 and amp == 0.0 and t.amp < 0:
                raise ValueError("zero amplitude with negative amplitude grade")
            scale = float(t.coeff)
            if t.kappa:
                scale *= _power(nk, t.kappa)
            if t.alpha:
                scale *= _power(alpha, t.alpha)
            if t.amp:
                scale *= _power(amp, t.amp)
            pre.append((scale, float(t.base), t.odd))
        table.append(pre)
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


class Divergent(str):
    """Marker value for integrals whose terms do not decay at an end: the
    string ``divergent:<where>`` the CLI prints, so a result is its own JSON.

    Not a tuple, unlike the other value types: a tuple of results is a
    stacked integral's (:func:`_manifold_integral`), and the CLI's JSON
    writes a tuple as a list."""

    __slots__ = ()

    def __new__(cls, where: str) -> "Divergent":  # "small-r" | "large-r" | "endpoint" | "r=..."
        return super().__new__(cls, f"divergent:{where}")

    @property
    def where(self) -> str:
        return self[len("divergent:"):]

    def __getnewargs__(self) -> tuple[str]:
        return (self.where,)

    def __repr__(self) -> str:
        return f"Divergent(where={self.where!r})"


Quadrature = Union[float, Divergent]


class QuadratureError(ValueError):
    """An integral the rule can call neither convergent nor divergent."""


def _de_nodes(t: np.ndarray) -> tuple[np.ndarray, ...]:
    """The ascending |t| of double-exponential nodes, and at each: exp(-+u)
    and its dr/dt for exp-sinh toward r_lo and toward infinity, and for
    tanh-sinh e/(1 + e), the distance to the nearer end over the width,
    with its dr/dt over the width (e = exp(-2u), so neither cancels), where
    u = pi/2 sinh t."""
    u, du = 0.5 * math.pi * np.sinh(t), 0.5 * math.pi * np.cosh(t)
    x_lo, x_hi = np.exp(-u), np.exp(u)
    with np.errstate(under="ignore"):
        e = np.exp(-2.0 * u)
    q = e / (1.0 + e)
    return t, x_lo, du * x_lo, x_hi, du * x_hi, q, 2.0 * du * q / (1.0 + e)


# the new nodes of each level j of the rule, of step h = 2^-(j+1): level 0
# holds every multiple of h in (0, DE_T_MAX], a later level the odd ones
_DE_LEVELS = [
    _de_nodes(0.5 ** (j + 1) * np.arange(1, int(DE_T_MAX * 2 ** (j + 1)) + 1, 1 if j == 0 else 2)) for j in range(DE_LEVELS)
]
_DE_T = [level[0].tolist() for level in _DE_LEVELS]  # their |t| as floats, to bisect


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


@lru_cache(maxsize=256)
def _de_call(level: int, n0: int, n1: int, finite: bool) -> tuple[np.ndarray, ...]:
    """A level's call of f: the middle node at level 0, then side 0's first n0
    new nodes and side 1's first n1, as exp-sinh x = r - r_lo and dr/dt, or
    tanh-sinh +-q and dr/dt over the width, and whether a node is side 1's."""
    _, x_lo, w_lo, x_hi, w_hi, q, wq = _DE_LEVELS[level]
    sides = ((q, -q, 0.5), (wq, wq, 0.25 * math.pi)) if finite else ((x_lo, x_hi, 1.0), (w_lo, w_hi, 0.5 * math.pi))
    x, w = (np.concatenate(([mid] if level == 0 else [], a[:n0], b[:n1])) for a, b, mid in sides)
    hi = np.arange(len(x)) >= len(x) - n1
    for a in (x, w, hi):
        a.flags.writeable = False  # shared by every call that hits the cache
    return x, w, hi


def _run_sums(block: np.ndarray, pairs: list[int], count: list[int]) -> list[float]:
    """np.add.reduce of rows 2p and 2p + 1 of `block` over their first count[p]
    columns, at 2p and 2p + 1 of the list returned, for each pair p of `pairs`
    (ascending; other places are not set): one reduce along axis 1 per run of
    pairs with one count, with the bits of each row's own 1-D reduce."""
    out, k = np.empty(len(block)), 0
    while k < len(pairs):
        j, c = k + 1, count[pairs[k]]
        while j < len(pairs) and pairs[j] == pairs[j - 1] + 1 and count[pairs[j]] == c:
            j += 1
        np.add.reduce(block[2 * pairs[k] : 2 * pairs[j - 1] + 2, :c], 1, None, out[2 * pairs[k] : 2 * pairs[j - 1] + 2])
        k = j
    return out.tolist()


def integrate_radial(
    f: Callable,
    r_lo: float,
    r_hi: float,
    rel_tol: float = DEFAULT_REL_TOL,
) -> Union[Quadrature, tuple[Quadrature, ...]]:
    """Integrate f(r) dr over (r_lo, r_hi), endpoints treated as improper.

    f takes numpy arrays of radii in (r_lo, r_hi) and fails by a value that is
    not finite (an exception it raises propagates); 0 <= r_lo < r_hi <= inf,
    and rel_tol is finite and positive.  Returns a float or a
    :class:`Divergent` tagged with the offending end; an end the rule can
    call neither convergent nor divergent, or an interior pole, raises
    :class:`QuadratureError`.  A stacked f returns k rows, shape (k, m), for
    a tuple of k results, each row bit for bit its own integral alone; the
    error raised is the first failing row's.

    One double-exponential rule (Takahasi & Mori 1974): exp-sinh
    r = r_lo + exp(pi/2 sinh t) toward infinity, tanh-sinh on a finite
    interval, t in [-DE_T_MAX, DE_T_MAX].  Level 0 has the step h = 1/2; each
    later level halves h and calls f once, on the new nodes the rows not yet
    done need.  Each side of t = 0 ends at its first node that is not finite
    or whose r rounds onto an end.  Against A = h sum |terms|, a side is
    settled once the integral past its outermost term, bounded through the
    decay of its last two terms, is below 1e-3 rel_tol A; it is then trimmed
    to where the terms it drops sum to no more, and a later node inside it
    that is not finite raises.  At level 0 or 1 a side whose outermost terms
    do not decay is divergent; one not settled by the last level raises.  The
    value is accepted when both sides are settled and two levels agree to
    1e-2 sqrt(rel_tol) A (the error about squares per level) or 1e-14 A.

    Pair p = s rows + i is side s (0 toward r_lo) of row i: its terms f(r) dr/dt
    at the multiples 1 .. count[p] of h in |t|, short of its reach[p], the |t|
    of its first node that is not finite or rounds onto an end (stop[p] says
    which) or past which it was trimmed.  Rows 2p and 2p + 1 of `flat` hold
    p's terms and sizes, merged for all pairs in a fixed number of numpy
    calls a level, and summed in one reduce per run of pairs with one count.

    f must be resolved by the nodes of levels 0 and 1, about 0.4 apart in r
    at r - r_lo = 1 and 3 at r - r_lo = 5 toward infinity: a feature they all
    miss is not seen, and a wrong value is returned without an error (on
    (0, inf), exp(-((r - 0.3)/0.003)^2) and exp(-((r - 5)/0.03)^2) integrate
    to 0.0, not 5.3e-3 and 5.3e-2).  The callers pass profiles of the term
    algebra in units of the space's length, which vary on the scale 1.
    """
    if not (0.0 <= r_lo < r_hi):
        raise ValueError(f"bad interval ({r_lo}, {r_hi})")
    if not (0.0 < rel_tol < math.inf):
        raise ValueError(f"relative tolerance must be finite and positive, got {rel_tol}")
    finite, width, where = r_hi < math.inf, r_hi - r_lo, ("small-r", "large-r")
    agree, rows, live = max(1e-2 * math.sqrt(rel_tol), 1e-14), 1, [0]
    reach, stop, count, settled = [math.inf] * 2, [("the range of doubles ends",)] * 2, [0] * 2, [False] * 2
    with np.errstate(all="ignore"):
        for level in range(DE_LEVELS):
            t, h, size = _DE_T[level], 0.5 ** (level + 1), int(DE_T_MAX * 2 ** (level + 1))
            need = [0] * (2 * rows)  # per pair, the new nodes short of its reach; none unless live
            for i in live:
                need[i], need[rows + i] = bisect_left(t, reach[i]), bisect_left(t, reach[rows + i])
            for cut in (False, True):
                n0, n1 = max(need[:rows]), max(need[rows:])
                x, w, hi = _de_call(level, n0, n1, finite)
                r, w = (np.where(hi, r_hi, r_lo) + width * x, width * w) if finite else (r_lo + x, w)
                start = (1, 1 + n0) if level == 0 else (0, n0)
                # r moves toward the end with |t|: if a side's first and last node are inside, all
                # are; else the first of a pair's that rounds onto it is its reach, and a pass again
                if cut or all(r_lo < r[a + k] < r_hi for a, n in zip(start, (n0, n1)) if n for k in (0, n - 1)):
                    break
                inside = (r > r_lo) & (r < r_hi)
                for s, (a, n) in enumerate(zip(start, (n0, n1))):
                    so_far = np.cumsum(inside[a : a + n]).tolist()  # how many of the side's nodes are inside
                    for p in (s * rows + i for i in live):
                        m = so_far[need[p] - 1] if need[p] else 0
                        if m < need[p]:
                            reach[p], stop[p], need[p] = t[m], ("r = {} rounds onto an end", r[a + m]), m
            fx = np.asarray(f(r), dtype=float)
            if level == 0:
                stacked, rows = fx.ndim > 1, len(fx) if fx.ndim > 1 else 1
                live, previous, results = list(range(rows)), [math.nan] * rows, [None] * rows
                reach, stop, need, count, settled = (
                    x[:1] * rows + x[1:] * rows for x in (reach, stop, need, count, settled))
            terms = fx.reshape(rows, -1) * w
            ok = np.isfinite(terms)
            if level == 0:  # the middle node's terms
                centers, terms, ok = terms[:, 0].tolist(), terms[:, 1:], ok[:, 1:]
                for i in live:
                    if not math.isfinite(centers[i]):
                        results[i] = QuadratureError(f"integrand not finite at r = {float(r[0])}")
            # a term that is not finite among those a pair needs ends it short of its reach
            for i, k in enumerate(ok.argmin(axis=1).tolist() if ok.size else ()):
                if not ok[i, k]:
                    k1 = (int(ok[i, n0:].argmin()) if n1 else 0) if k < n0 else k - n0
                    for p, s, bad in ((i, 0, k), (rows + i, 1, k1 if k1 < n1 and not ok[i, n0 + k1] else n1)):
                        if bad < need[p]:
                            reach[p], stop[p] = t[bad], ("integrand not finite at r = {}", r[start[s] + bad])
            # the new terms are the odd multiples of h, the earlier ones the even
            step, old, merged = 2 if level else 1, count, np.empty((4 * rows, size))
            if level:
                merged[:, 1::2] = flat
            flat, new = merged, slice(0, step * max(n0, n1), step)
            flat[0 : 2 * rows : 2, : step * n0 : step] = terms[:, :n0]
            flat[2 * rows :: 2, : step * n1 : step] = terms[:, n0:]
            np.abs(flat[0::2, new], out=flat[1::2, new])
            count = [int(x / h) - 1 if x <= size * h else size for x in reach]  # the multiples of h short of it
            act = [i for i in live if results[i] is None]
            sums = _run_sums(flat, act + [rows + i for i in act], count)
            ends, going = [], []
            for i in act:
                center = centers[i]
                scale = h * (abs(center) + (sums[2 * i + 1] + sums[2 * (rows + i) + 1]))
                budget = 1e-3 * rel_tol * scale
                for s, p in enumerate((i, rows + i)):
                    if settled[p]:
                        if 2 * old[p] > count[p]:  # its reach dropped terms of earlier levels
                            results[i] = QuadratureError(f"{str.format(*stop[p])}, inside the settled {where[s]} end")
                            break
                        continue
                    # the integral past the outermost term, the middle one before the first
                    c = count[p]
                    prev = float(flat[2 * p + 1, c - 2]) if c > 1 else abs(center)
                    rest = _remainder(float(flat[2 * p + 1, c - 1]), prev, h) if c else math.nan
                    if rest <= budget:
                        settled[p] = True
                        ends.append((p, budget))
                    elif rest == math.inf and level <= 1:
                        results[i] = Divergent(where[s])
                        break
                else:
                    going.append((i, scale))
            if ends:  # trimmed as it settles, a pair evaluates no later node past its terms
                sizes, trimmed = flat[1::2, : max(count[p] for p, _ in ends)].tolist(), []
                for p, budget in ends:  # the outermost terms summing to <= budget go
                    n, tail = count[p], 0.0
                    for term in reversed(sizes[p][: count[p]]):  # added as np.cumsum of them reversed
                        tail += term
                        if h * tail > budget:
                            break
                        n -= 1
                    if n < count[p]:
                        reach[p], count[p] = (n + 1) * h, n
                        trimmed.append(p)
                resum = _run_sums(flat, sorted(trimmed), count)
                for p in trimmed:
                    sums[2 * p] = resum[2 * p]
            for i, scale in going:
                total = h * (centers[i] + ((0.0 + sums[2 * i]) + sums[2 * (rows + i)]))
                if settled[i] and settled[rows + i] and abs(total - previous[i]) <= agree * scale:
                    results[i] = total
                previous[i] = total
            # the rows not done, before the first that failed: its error is raised
            failed = next((i for i, x in enumerate(results) if isinstance(x, QuadratureError)), len(results))
            live = [i for i in range(failed) if results[i] is None]
            if not live:
                break
        for i in live:
            s = next((s for s in (0, 1) if not settled[s * rows + i]), None)
            results[i] = QuadratureError(f"the {where[s]} end does not settle: {str.format(*stop[s * rows + i])}"
                                         if s is not None else f"no convergence after {DE_LEVELS} levels of the "
                                         f"double-exponential rule on ({r_lo}, {r_hi})")
    error = next((x for x in results if isinstance(x, QuadratureError)), None)
    if error is not None:
        raise error
    return tuple(results) if stacked else results[0]


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
    offending end of the domain; a finite one below the normal doubles raises,
    and so does a QuadratureError, naming the entry, kappa and alpha.
    """
    u = sol.u_fn(kappa, alpha)
    try:
        m = _manifold_integral(sol, kappa, lambda r: u(r) ** 2, rel_tol, sphere_factor=include_sphere_factor)
    except QuadratureError as error:
        raise _named(error, sol, kappa, alpha) from None
    if not isinstance(m, Divergent) and abs(m) < sys.float_info.min:
        raise ValueError(f"mass = {m!r} is below the normal doubles at kappa = {kappa!r}, alpha = {alpha!r}")
    return m


def _named(error: QuadratureError, sol: "Solution", kappa: float, alpha: float) -> QuadratureError:
    """`error` with the entry, kappa and alpha (and a flat scale) it was raised at."""
    scale = f", scale = {sol.scale!r}" if sol.scale != 1.0 else ""
    return QuadratureError(f"{sol.id} at kappa = {kappa!r}, alpha = {alpha!r}{scale}: {error}")


def _weighted(space: Space, g: Callable, power: int) -> Callable:
    """r -> g(r) S(r)^power, with S the space's curvature-scaled sine.
    Overflow and poles give inf or nan, which the quadrature reports (it
    evaluates f with floating-point errors ignored)."""
    s_fn = metric(space).S

    def f(r):
        r = np.asarray(r, dtype=float)
        return g(r) * s_fn(r) ** power

    return f


def _cuts(r_max: float, poles: tuple[float, ...]) -> list[float]:
    """The ends of the smooth segments of (0, r_max): 0, the poles inside, r_max."""
    return [0.0] + [s for s in poles if 0.0 < s < r_max] + [r_max]


def _manifold_integral(
    sol: "Solution",
    kappa: float,
    g: Callable,
    rel_tol: float,
    sphere_factor: bool = True,
) -> Union[Quadrature, tuple[Quadrature, ...]]:
    """S_(D-1) int g S^(D-1) dr, g over the manifold, or the radial
    integral alone; a stacked g (rows x radii) gives a tuple, one integral
    per row, as :func:`integrate_radial` does.  The integral runs over
    s = r / L, with L the length unit (:meth:`ccsp.catalog.Solution.length`),
    so the rule sees every space at unit size.  The domain is split at the
    profile's poles (:func:`_cuts`), so each is probed as an improper
    endpoint, and a divergence is tagged with the offending end of the
    domain; a row that diverges takes no part in the later segments."""
    space = sol.space(kappa)
    f = _weighted(space, g, sol.dim - 1)
    length = sol.length(kappa)
    unit = f if length == 1.0 else lambda s: f(length * s) * length  # times 1.0 would change no bit
    totals: list = []  # per row, its sum so far or its divergence
    for lo, hi in pairwise(_cuts(space.r_max, sol.singular_radii_values(kappa))):
        live = [i for i, total in enumerate(totals) if not isinstance(total, Divergent)]
        rows = unit if len(live) == len(totals) else lambda s: unit(s)[live]
        parts = integrate_radial(rows, lo / length, hi / length, rel_tol)
        stacked = isinstance(parts, tuple)
        parts = parts if stacked else (parts,)
        totals = totals or [0.0] * len(parts)
        for i, part in zip(live or range(len(parts)), parts):
            # a segment end away from r = 0 and r = inf is a pole or the antipode
            end = lo if isinstance(part, Divergent) and part.where == "small-r" else hi
            totals[i] = (Divergent(f"r={end:.6g}" if 0.0 < end < math.inf else part.where)
                         if isinstance(part, Divergent) else totals[i] + part)
        if all(isinstance(total, Divergent) for total in totals):
            break
    area = sphere_area(sol.dim) if sphere_factor else 1.0
    totals = [total if isinstance(total, Divergent) else total * area for total in totals]
    return tuple(totals) if stacked else totals[0]


# -- charge balance on the sphere -------------------------------------------


class CompactnessReport(NamedTuple):
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
    integral(u^2 + rho) = 0 over the whole manifold, to 1e-10 integral(u^2)."""
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
    fields = sol.fields_fn(kappa, alpha, "u", "rho")

    def rows(r):  # the charge and the mass it is judged against: one stacked integral
        u, rho = fields(r)
        return np.array([u**2 + rho, u**2])

    total, charge = _manifold_integral(sol, kappa, rows, 1e-12)
    if isinstance(total, Divergent) or isinstance(charge, Divergent):
        return CompactnessReport(sol.id, has_sing, False, None, "charge integral diverges")
    return CompactnessReport(sol.id, has_sing, abs(total) <= 1e-10 * charge, total,
                             f"total charge {total:.3e} against int u^2 = {charge:.3e}")


# -- PDE residuals ------------------------------------------------------------


def default_grid(sol: "Solution", kappa: float) -> np.ndarray:
    """Per-solution verification radii, strictly increasing: L (the length
    unit, :meth:`ccsp.catalog.Solution.length`) times the grid at unit
    curvature and scale 1, where each smooth segment (:func:`_cuts`, capped
    at GRID_R_CAP) contributes points, inset by 0.1 from coordinate
    endpoints and by ~1 from genuine poles of the profile."""
    unit = sol.space(Space.unit_kappa(sol.regime))
    sing = sol.singular_radii_values(unit.kappa)
    segments = []
    for a, b in pairwise(_cuts(min(unit.r_max, GRID_R_CAP), sing)):
        width = b - a
        inset_a = min(1.0, 0.45 * width) if a in sing else min(0.1, 0.25 * width)
        inset_b = min(1.0, 0.45 * width) if b in sing else min(0.1, 0.25 * width)
        aa, bb = a + inset_a, b - inset_b
        if bb > aa:
            segments.append((aa, bb))
    if not segments:
        raise ValueError("no smooth segment wide enough for a grid")
    per = max(8, GRID_POINTS // len(segments))
    # the segments are disjoint and increasing, so the radii already are
    return sol.length(kappa) * np.concatenate([np.linspace(a, b, per) for a, b in segments])


def fd_residual(
    sol: "Solution",
    kappa: float,
    alpha: float,
    r: Optional[np.ndarray] = None,
) -> tuple[float, float]:
    """Max-norm residuals of both field equations on the radii r (default:
    :func:`default_grid`), normalized by max(|u|, 1).

    u', u'', V' and V'' are the exact derivatives of the term algebra, read
    by name with u, V and rho from one field table
    (:meth:`ccsp.catalog.Solution.fields_fn`), and each Laplacian is
    assembled here in floats as f'' + (D-1) f' / T, so neither 1/T nor the
    assembly comes from :meth:`ccsp.symbolic.RadialExpr.laplacian`.  (The
    name predates the exact derivatives; perfbench's tracer wraps the
    function by it.)"""
    if r is None:
        r = default_grid(sol, kappa)
    inv_t = metric(sol.space(kappa)).inv_T(r)
    u, du, d2u, v, dv, d2v, rho = sol.fields_fn(kappa, alpha, "u", "du", "d2u", "V", "dV", "d2V", "rho")(r)
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
    # |t| = k h at the step h of the last level: the middle node at k = 0,
    # then each side from k = 1 on, and the step 2h at even k
    k = np.arange(int(DE_T_MAX * 2**CHARGE_LEVELS) + 1)
    t, x_lo, w_lo, x_hi, w_hi, q, wq = _de_nodes(0.5**CHARGE_LEVELS * k)
    if tail:
        lo, hi, ((x0, w0), (x1, w1)) = 1.0, math.inf, ((1.0 + x_lo, w_lo), (1.0 + x_hi, w_hi))
    else:
        lo, hi, ((x0, w0), (x1, w1)) = 0.0, 1.0, ((q, wq), (1.0 - q, wq))
    n0, n1 = (int(np.count_nonzero((x > lo) & (x < hi))) for x in (x0, x1))
    cols = np.r_[0:n0, 1:n1]
    x, w = np.concatenate((x0[:n0], x1[1:n1])), np.concatenate((w0[:n0], w1[1:n1]))
    return _ChargeRule(x, w, t[cols], (slice(1, n0), slice(n0, n0 + n1 - 1)), k[cols] % 2 == 0)


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


def _charge(density: Callable, total: float, length: float) -> Callable:
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
    fails (:func:`_charge_rows`)."""
    agree = max(1e-2 * math.sqrt(NESTED_REL_TOL), 1e-14)

    def charge(r):
        r = np.asarray(r, dtype=float)
        flat = r.ravel()
        beyond = flat > length
        masks = (~beyond, beyond)
        out = np.empty_like(flat)
        with np.errstate(all="ignore"):
            grids = [flat[mask][:, None] * rule.x for mask, rule in zip(masks, _CHARGE_RULES)]
            values = np.asarray(density(np.concatenate([grid.ravel() for grid in grids])), dtype=float)
            parts = zip(masks, grids, _CHARGE_RULES, np.split(values, [grids[0].size]))
            for k, (mask, grid, rule, vals) in enumerate(parts):
                s = flat[mask]
                fine, diff, abs_sum = _charge_rows(vals.reshape(grid.shape), rule)
                scale = np.maximum(abs(total), s * abs_sum)
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
    from r, both over s = r / L with L the space's length unit.  Flat and
    hyperbolic regimes only (the sphere has no decay normalization).  V
    raises ValueError where it is not finite (the inner charge overflows).
    """
    if space.regime is Regime.SPHERICAL:
        raise ValueError("decay-normalized inversion needs a noncompact space")
    if dim < 2:
        raise ValueError("radial inversion requires D >= 2")
    length = space.length
    density = _weighted(space, f, dim - 1)
    total = integrate_radial(lambda s: density(length * s) * length, 0.0, math.inf, NESTED_REL_TOL)
    if isinstance(total, Divergent):
        raise ValueError("inversion tail diverges")
    outer = _weighted(space, _charge(density, total, length), 1 - dim)

    def v_fn(r):
        r = np.asarray(r, dtype=float)
        out = np.empty(r.shape)
        for i, point in enumerate(r.flat):
            try:
                value = integrate_radial(lambda s: outer(length * s) * length, point / length, math.inf, NESTED_REL_TOL)
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


def pohozaev_functionals(
    sol: "Solution",
    kappa: float,
    alpha: float,
) -> "PohozaevReport":
    """T = int |grad u|^2, N = int u^2, Q = int u^2 (-Lap)^-1 u^2 (flat, D > 2),
    as a :class:`PohozaevReport` whose identities and defect are None.

    In flat space the decaying W = (-Lap)^-1 u^2 is
    (r^(2-D) M(r) + K(r))/(D - 2), with M(r) = int_0^r u^2 t^(D-1) dt the
    charge inside r and K(r) = int_r^inf u^2 t dt the tail integral
    (:attr:`ccsp.catalog.Solution.K`, one monomial of the term algebra).
    The two halves of int u^2 W are one double integral over t < r and over
    t > r (Fubini), so Q = 2/(D - 2) S_(D-1) int u^2 K r^(D-1) dr, Divergent
    at an end where u^2 K r^(D-1) does not decay.  T, N and Q are the rows
    of one stacked integral (:func:`integrate_radial`), each bit for bit
    its integral alone; where several fail, T's error comes before N's and
    N's before Q's, naming the entry, kappa and alpha.  A finite T, N or Q
    below the normal doubles (Q goes as alpha^-2, so from |alpha| about
    1e155) raises ValueError naming alpha.
    """
    if sol.regime is not Regime.FLAT:
        raise ValueError("functional identities are derived in the flat case")
    if sol.dim <= 2:
        raise ValueError("functional identities require D > 2")
    # u and K as fields apart: the grade A^4 of u^2 K would overflow first
    fields = sol.fields_fn(kappa, alpha, "du", "u", "K")

    def rows(r):
        du, u, k = fields(r)
        u2 = u**2
        return np.array([du**2, u2, u2 * k])

    try:
        t_val, n_val, q_val = _manifold_integral(sol, kappa, rows, NESTED_REL_TOL)
    except QuadratureError as error:
        raise _named(error, sol, kappa, alpha) from None
    if not isinstance(q_val, Divergent):
        q_val *= 2.0 / (sol.dim - 2)
    for name, x in zip("TNQ", (t_val, n_val, q_val)):
        if not isinstance(x, Divergent) and abs(x) < sys.float_info.min:
            raise ValueError(f"{name} = {x!r} is below the normal doubles at alpha = {alpha!r}")
    return PohozaevReport(t_val, n_val, q_val, None, None)


class PohozaevReport(NamedTuple):
    """T, N, Q and the identities (None unless :func:`pohozaev_check` sets them): its fields are its JSON keys."""

    T: Quadrature
    N: Quadrature
    Q: Quadrature
    identities: Optional[dict]
    defect: Optional[Quadrature]


def pohozaev_check(sol: "Solution", kappa: float, alpha: float) -> PohozaevReport:
    """Evaluate the three flat-space integral identities.

        T - omega N + alpha Q = 0
        (D-2) T - D omega N + (D+2)/2 alpha Q = 0
        4 T + (D-2) alpha Q = 0

    The defect is the largest |left-hand side| normalized by T.  The
    identities hold for the homogeneous system only: for an entry with a
    background source rho, identities and defect are None.
    """
    rep = pohozaev_functionals(sol, kappa, alpha)
    if not sol.rho.is_zero:
        return rep
    t, n, q = rep.T, rep.N, rep.Q
    if any(isinstance(x, Divergent) for x in (t, n, q)):
        return rep._replace(defect=Divergent("functionals"))
    omega = sol.omega_value(kappa)
    d = sol.dim
    ids = {
        "first": t - omega * n + alpha * q,
        "second": (d - 2) * t - d * omega * n + 0.5 * (d + 2) * alpha * q,
        "third": 4.0 * t + (d - 2) * alpha * q,
    }
    defect = max(abs(x) for x in ids.values()) / max(t, 1e-300)
    return rep._replace(identities=ids, defect=defect)


# -- verification reports ---------------------------------------------------


class VerificationReport(NamedTuple):
    """One entry's verdict: its fields are its JSON keys."""

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
    grid: dict


def verify_solution(
    sol: "Solution",
    kappa: float,
    alpha: float,
    residual_tol: float = RESIDUAL_TOL,
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
        else:
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
        grid={
            "points": len(grid),
            "r_min": float(grid[0]),
            "r_max": float(grid[-1]),
        },
    )
