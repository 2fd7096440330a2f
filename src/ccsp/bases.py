"""The four monomial bases, one row each: every fact about a basis.

A basis is a base function B with at most one factor of an odd function O,
both defined through the metric functions S and C of :mod:`ccsp.geometry`:

    flat-c    B = c = sqrt(1 + S^2),  O = S = r,   r^2 = c^2 - 1
    flat-r    B = S = r               (no odd factor)
    curved-c  B = C,  O = S,   (-kappa) S^2 = C^2 - 1
    curved-s  B = S,  O = C,   C^2 = 1 + (-kappa) S^2

Its `Spec` holds these definitions, which :mod:`ccsp.numeric` maps to
arrays; the term algebra's `Rules`, which only :mod:`ccsp.symbolic` reads;
and, per regime the basis lives in (the first is the default), the zeros of
B and the mass rule.  Like the rest of the exact layer, it imports no numpy.
"""

from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .geometry import Regime

__all__ = ["Basis", "Unit", "Rules", "RegimeFacts", "Spec", "SPECS", "poles"]


class Basis(str, Enum):
    FLAT_C = "flat-c"
    FLAT_R = "flat-r"
    CURVED_C = "curved-c"
    CURVED_S = "curved-s"

    @property
    def is_flat(self) -> bool:
        return Regime.FLAT in SPECS[self].regimes

    @property
    def has_odd(self) -> bool:
        return SPECS[self].odd is not None

    def check_regime(self, regime: Regime) -> None:
        """A basis lives in its spec's regimes only: flat bases in flat space, curved bases in curved space."""
        if regime not in SPECS[self].regimes:
            need = "the flat regime" if self.is_flat else "a curved regime"
            raise ValueError(f"{self.value} basis requires {need}, not {regime.value}")


Unit = tuple[int, int, int]  # powers (base, odd, kappa) of a unit monomial


class Rules(NamedTuple):
    """The term algebra's rules for base function B and odd factor O.

    d_base, d_odd and inv_T are the unit monomials B', O' and 1/T; inv_T
    may carry O^-1, which only an odd term absorbs.  odd_sq rewrites O^2
    as (sign, base shift, kappa shift) terms.  names print B and O.
    """

    d_base: Unit
    d_odd: Optional[Unit]
    inv_T: Unit
    odd_sq: tuple[tuple[int, int, int], ...]
    names: tuple[str, str]


class RegimeFacts(NamedTuple):
    """A basis in one regime: the zeros of B (tag, exact radius in units of pi L),
    and the mass rule (n, h = D/2) -> (x, y, f, p) with int u^2 S^(D-1) dr =
    |X/alpha| f B(x, y) |kappa|^(p/2), or None where it never converges."""

    zeros: tuple[tuple[str, Fraction], ...]
    mass: Optional[Callable[[int, Fraction], tuple]]


class Spec(NamedTuple):
    """One basis: B and O defined through the metric's S and C, the term
    algebra's rules, and the regimes it lives in, the first the default."""

    base: str
    odd: Optional[str]
    rules: Rules
    regimes: dict[Regime, RegimeFacts]


_HALF = Fraction(1, 2)
_ORIGIN, _EQUATOR, _ANTIPODE = ("origin", Fraction(0)), ("equator", _HALF), ("antipode", Fraction(1))

# flat-r and hyperbolic curved-s are never integrable: S^(2n+D-1) fails at the
# origin or at infinity
SPECS: dict[Basis, Spec] = {
    # c' = r c^-1, r' = 1, 1/T = r^-1; r^2 = c^2 - 1
    Basis.FLAT_C: Spec("sqrt(1 + S^2)", "S", Rules((-1, 1, 0), (0, 0, 0), (0, -1, 0), ((1, 2, 0), (-1, 0, 0)), ("c", "r")),
                       {Regime.FLAT: RegimeFacts((), lambda n, h: (h, -n - h, _HALF, 0))}),
    # r' = 1, 1/T = r^-1
    Basis.FLAT_R: Spec("S", None, Rules((0, 0, 0), None, (-1, 0, 0), (), ("r", "")),
                       {Regime.FLAT: RegimeFacts((_ORIGIN,), None)}),
    # C' = (-kappa) S, S' = C, 1/T = C S^-1; S^2 = (C^2 - 1)/(-kappa)
    Basis.CURVED_C: Spec("C", "S", Rules((0, 1, 1), (1, 0, 0), (1, -1, 0), ((1, 2, -1), (-1, 0, -1)), ("C", "S")), {
        Regime.HYPERBOLIC: RegimeFacts((), lambda n, h: (h, _HALF - n - h, _HALF, -2 * h)),
        Regime.SPHERICAL: RegimeFacts((_EQUATOR,), lambda n, h: (n + _HALF, h, 1, -2 * h))}),
    # S' = C, C' = (-kappa) S, 1/T = C S^-1; C^2 = 1 + (-kappa) S^2
    Basis.CURVED_S: Spec("S", "C", Rules((0, 1, 0), (1, 0, 1), (-1, 1, 0), ((1, 0, 0), (1, 2, 1)), ("S", "C")), {
        Regime.HYPERBOLIC: RegimeFacts((_ORIGIN,), None),
        Regime.SPHERICAL: RegimeFacts((_ORIGIN, _ANTIPODE), lambda n, h: (_HALF, n + h, 1, -2 * (n + h)))}),
}


def poles(basis: Basis, regime: Regime, n: int) -> tuple[tuple[str, Fraction], ...]:
    """The poles of u = B^n on the closed domain, as (tag, radius) pairs:
    the zeros of B when n < 0."""
    return SPECS[basis].regimes[regime].zeros if n < 0 else ()
