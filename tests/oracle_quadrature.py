"""The double-exponential rule's level loop as it was before its per-level
bookkeeping ran for all rows at once: a frozen oracle that
``test_quadrature_oracle.py`` holds :func:`ccsp.numeric.integrate_radial` to,
bit for bit, with the same integrand calls and the same errors.

Only the loop is frozen: the node tables, the value types and the constants
are the package's own.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable

import numpy as np

from ccsp.numeric import _DE_LEVELS, DE_LEVELS, DE_T_MAX, DEFAULT_REL_TOL, Divergent, QuadratureError


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
    """One side of t = 0 of the double-exponential rule, for each row of
    the integrand (one until f's first call gives their number): row i's
    terms f(r) dr/dt at the multiples 1 .. count[i] of the step h in |t|,
    short of its `reach`, the |t| of its first node that is not finite or
    whose r rounds onto an end (`stop` says which) or past which it was
    trimmed once settled."""

    def __init__(self, where: str, sign: float) -> None:
        self.where, self.sign = where, sign
        self.reach, self.stop = [math.inf], [""]

    def nodes(self, level: int, r_lo: float, r_hi: float, live: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """r and dr/dt of the level's new nodes that the live rows need, each
        row (`need`) those short of its reach: exp-sinh r = r_lo + exp(+-u)
        toward infinity, tanh-sinh on a finite interval.  r moves toward the
        end with |t|, so the nodes whose r rounds onto it come last: the first
        of them among a row's becomes its reach."""
        t, x_lo, w_lo, x_hi, w_hi, q, wq = _DE_LEVELS[level]
        self.need = [bisect_left(t, reach) if i in live else 0 for i, reach in enumerate(self.reach)]
        n = max(self.need)
        if math.isinf(r_hi):
            x, w = (x_lo, w_lo) if self.sign < 0 else (x_hi, w_hi)
            r, w = r_lo + x[:n], w[:n]
        else:
            width = r_hi - r_lo
            r, w = (r_lo + width * q[:n] if self.sign < 0 else r_hi - width * q[:n]), width * wq[:n]
        # r is monotone in |t|, so if its first and last node are inside, all are
        if n and not (r_lo < r[0] < r_hi and r_lo < r[-1] < r_hi):
            inside = (r > r_lo) & (r < r_hi)
            for i in live:
                m = int(np.count_nonzero(inside[: self.need[i]]))
                if m < self.need[i]:
                    self.reach[i], self.stop[i], self.need[i] = t[m], f"r = {r[m]} rounds onto an end", m
        n = max(self.need)
        return r[:n], w[:n]

    def add(self, level: int, r: np.ndarray, terms: np.ndarray, finite: bool, live: list[int]) -> list[int]:
        """Merge a level's new terms, rows x the nodes of :meth:`nodes`: they
        are the odd multiples of h, and the earlier terms the even ones.
        Unless all are `finite`, a term that is not ends its row short of its
        reach.  Returns the rows whose reach now drops terms of earlier levels."""
        t, h, rows = _DE_LEVELS[level][0], 0.5 ** (level + 1), len(terms)
        if level == 0:
            self.count, self.settled = [0] * rows, [False] * rows
            self.need, self.reach, self.stop = self.need * rows, self.reach * rows, self.stop * rows
        if not finite:
            for i in live:
                bad = ~np.isfinite(terms[i, : self.need[i]])
                if bad.any():
                    k = int(bad.argmax())
                    self.reach[i], self.stop[i] = t[k], f"integrand not finite at r = {r[k]}"
        size = int(DE_T_MAX * 2 ** (level + 1))  # the level's multiples of h, as in _DE_LEVELS
        merged = np.empty((rows, size))
        if level == 0:
            merged[:, : terms.shape[1]] = terms
        else:
            merged[:, 0 : 2 * terms.shape[1] : 2] = terms
            merged[:, 1::2] = self.terms
        # every multiple of h short of the reach, itself one if inside
        count = [min(size, int(reach / h) - 1) if reach <= size * h else size for reach in self.reach]
        lost = [i for i in live if 2 * self.count[i] > count[i]]
        self.terms, self.sizes, self.count = merged, np.abs(merged), count
        return lost

    def trim(self, i: int, h: float, budget: float) -> None:
        """Drop row i's outermost terms that sum to at most `budget`, and
        evaluate no later node past them."""
        tail = h * np.cumsum(self.sizes[i, : self.count[i]][::-1])[::-1]
        n = int(np.count_nonzero(tail > budget))
        if n < self.count[i]:
            self.reach[i], self.count[i] = (n + 1) * h, n


def integrate_radial(
    f: Callable,
    r_lo: float,
    r_hi: float,
    rel_tol: float = DEFAULT_REL_TOL,
):
    """Integrate f(r) dr over (r_lo, r_hi), endpoints treated as improper.

    f must accept numpy arrays of any m radii in (r_lo, r_hi), and fails by a
    value that is not finite: an exception it raises propagates.
    0 <= r_lo < r_hi <= inf; rel_tol must be finite and positive.  Returns
    a float or :class:`Divergent` tagged with the offending end; an end
    that the rule can call neither convergent nor divergent, or a pole in
    the open interior, raises :class:`QuadratureError`.

    A stacked f returns k rows, shape (k, m), for a tuple of k results, each
    row bit for bit its own integral alone (ends, settling, divergence and
    agreement its own).  Each level calls f once, on the nodes that the rows
    not yet done need; a row takes those short of its own reach.  The error
    raised is that of the first failing row, once the rows before it are done.

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
    agree, live = max(1e-2 * math.sqrt(rel_tol), 1e-14), [0]
    with np.errstate(all="ignore"):
        for level in range(DE_LEVELS):
            h = 0.5 ** (level + 1)
            (r0, w0), (r1, w1) = (side.nodes(level, r_lo, r_hi, live) for side in sides)
            middle = [r_mid] if level == 0 else []
            fx = np.asarray(f(np.concatenate((middle, r0, r1))), dtype=float)
            if level == 0:
                stacked, rows = fx.ndim > 1, len(fx) if fx.ndim > 1 else 1
                live, previous, results = list(range(rows)), [math.nan] * rows, [None] * rows
            terms = fx.reshape(rows, -1) * np.concatenate(([w_mid] if middle else [], w0, w1))
            finite = bool(np.isfinite(terms).all())
            if level == 0:
                centers, terms = terms[:, 0].tolist(), terms[:, 1:]
            n = len(r0)
            lost = [side.add(level, r_side, block, finite, live)
                    for side, r_side, block in zip(sides, (r0, r1), (terms[:, :n], terms[:, n:]))]
            for i in live:
                center = centers[i]
                if not math.isfinite(center):
                    results[i] = QuadratureError(f"integrand not finite at r = {r_mid}")
                    continue
                scale = h * (abs(center) + sum(np.add.reduce(side.sizes[i, : side.count[i]]) for side in sides))
                budget = 1e-3 * rel_tol * scale
                for side, dropped in zip(sides, lost):
                    if side.settled[i]:
                        if i in dropped:
                            results[i] = QuadratureError(f"{side.stop[i]}, inside the settled {side.where} end")
                            break
                        continue
                    # the integral past the outermost term, the middle one standing
                    # before the first; NaN with no term
                    count = side.count[i]
                    prev = abs(float(side.terms[i, count - 2])) if count > 1 else abs(center)
                    rest = _remainder(abs(float(side.terms[i, count - 1])), prev, h) if count else math.nan
                    if rest <= budget:
                        side.settled[i] = True
                        side.trim(i, h, budget)
                    elif rest == math.inf and level <= 1:
                        results[i] = Divergent(side.where)
                        break
                else:
                    total = h * (center + sum(np.add.reduce(side.terms[i, : side.count[i]]) for side in sides))
                    if all(side.settled[i] for side in sides) and abs(total - previous[i]) <= agree * scale:
                        results[i] = float(total)
                    previous[i] = total
            # the rows not done, before the first that failed: its error is raised
            failed = next((i for i, x in enumerate(results) if isinstance(x, QuadratureError)), len(results))
            live = [i for i in range(failed) if results[i] is None]
            if not live:
                break
        for i in live:
            side = next((side for side in sides if not side.settled[i]), None)
            results[i] = QuadratureError(
                f"the {side.where} end does not settle: {side.stop[i] or 'the range of doubles ends'}" if side
                else f"no convergence after {DE_LEVELS} levels of the double-exponential rule on ({r_lo}, {r_hi})")
    for result in results:
        if isinstance(result, QuadratureError):
            raise result
    return tuple(results) if stacked else results[0]
