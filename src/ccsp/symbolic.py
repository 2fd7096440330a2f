"""Exact term algebra for radial profiles on constant-curvature spaces.

Every profile this package manipulates lives in one of the four closed
monomial bases of :mod:`ccsp.bases`: powers of a base function B with at
most one factor of an odd function O.
Coefficients are exact rationals graded by integer powers of the signed
curvature (-kappa), the coupling alpha, and the solution amplitude A, so
addition, multiplication, d/dr and the radial Laplace-Beltrami operator are
all exact: no floating point enters until evaluation.

The odd exponent is capped at one; squares are reduced eagerly, which makes
the normal form unique.  This module alone reads a basis' `Rules`
(:mod:`ccsp.bases`): B', O' and 1/T as unit monomials, the O^2 reduction and
the print names.  d/dr is the product rule and 1/T a multiplication by a
unit monomial; both pass each product through the normal-form step of
multiplication, which reduces O^2 and raises :class:`ClosureError` where
an odd power would turn negative (1/T of an even flat-c or curved-c term
needs 1/r resp. 1/S).  The curved relations
use the *signed* quantity (-kappa) (positive hyperbolic, negative
spherical), so a single expression serves both curved regimes and is
evaluated with the right signs by the float layer (:mod:`ccsp.numeric`).
Expressions are immutable values; everything here is pure and safe to
share across threads.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Union

from .bases import SPECS, Basis, Rules, Unit
from .geometry import Regime

__all__ = [
    "Basis",
    "Monomial",
    "RadialExpr",
    "Graded",
]


class ClosureError(ValueError):
    """Requested operation leaves the monomial family."""


def json_int(value) -> int:
    """A JSON integer field; anything else (a bool, float, string) raises TypeError."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def json_fraction(value) -> Fraction:
    """A JSON rational field, the string "p/q"; anything else (a number, a
    bool) raises TypeError, and a zero denominator raises ValueError."""
    if type(value) is not str:
        raise TypeError(f"expected a rational as a string, got {value!r}")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


RatLike = Union[Fraction, int]


class Monomial(NamedTuple):
    """coeff * base^base * odd^odd * (-kappa)^kappa * alpha^alpha * A^amp."""

    coeff: Fraction
    base: int
    odd: int
    kappa: int
    alpha: int
    amp: int

    @property
    def key(self) -> tuple[int, int, int, int, int]:
        return self[1:]


def _sort_key(m: Monomial):
    # deterministic normal form: descending base power, then grades
    return (-m.base, m.odd, m.kappa, m.alpha, m.amp)


class _GradedFields(NamedTuple):
    coef: Fraction
    kappa: int = 0


class Graded(_GradedFields):
    """An exact rational times an integer power of the signed curvature."""

    __slots__ = ()

    def __new__(cls, coef: RatLike, kappa: int = 0) -> "Graded":
        coef = Fraction(coef)
        return super().__new__(cls, coef, kappa if coef else 0)

    @classmethod
    def _make(cls, fields) -> "Graded":
        return cls(*fields)  # so that _replace normalizes too

    @property
    def is_zero(self) -> bool:
        return self.coef == 0

    def evaluate(self, neg_kappa: float) -> float:
        """The value at (-kappa) = neg_kappa; +-inf where the power overflows."""
        return float(self.coef) * _power(neg_kappa, self.kappa)

    def sign(self, regime: Regime) -> int:
        """Sign of the value in `regime`: (-kappa) is negative on the sphere."""
        s = 1 if self.coef > 0 else -1
        return -s if regime is Regime.SPHERICAL and self.kappa % 2 else s

    def __str__(self) -> str:
        if self.kappa == 0:
            return str(self.coef)
        k = "(-kappa)" if self.kappa == 1 else f"(-kappa)^{self.kappa}"
        return f"{self.coef}*{k}"

    def to_json_obj(self) -> dict:
        return {"coef": str(self.coef), "kappa_pow": self.kappa}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Graded":
        return cls(json_fraction(obj["coef"]), json_int(obj["kappa_pow"]))


ZERO_GRADED = Graded(Fraction(0), 0)


def _power(x: float, k: int) -> float:
    """x**k, or the infinity of its sign where it overflows: a float power
    of an integer raises OverflowError there instead."""
    try:
        return x**k
    except OverflowError:
        return -math.inf if x < 0 and k % 2 else math.inf


def _float_result(name: str, x: float, at: str) -> float:
    """x, a float result of the checks; outside the normal doubles in
    magnitude it raises ValueError naming it and where (`at`) it was taken."""
    if not sys.float_info.min <= abs(x) <= sys.float_info.max:
        fault = "below the normal doubles" if abs(x) < sys.float_info.min else "past the floats"
        raise ValueError(f"{name} = {x!r} is {fault} at {at}")
    return x


def _normal(
    rules: Rules, coeff: Fraction, base: int, odd: int, kappa: int, alpha: int, amp: int
) -> tuple[Monomial, ...]:
    """coeff B^base O^odd (-kappa)^kappa alpha^alpha A^amp in normal form."""
    if odd < 0:
        raise ClosureError(f"a negative power of {rules.names[1]} leaves the basis")
    if odd <= 1:
        return (Monomial(coeff, base, odd, kappa, alpha, amp),)
    return tuple(
        Monomial(coeff * sign, base + dbase, 0, kappa + dkappa, alpha, amp)
        for sign, dbase, dkappa in rules.odd_sq
    )


def _times_unit(rules: Rules, coeff: Fraction, m: Monomial, unit: Unit) -> tuple[Monomial, ...]:
    """coeff times m's powers times unit (m's own coefficient is not used)."""
    base, odd, kappa = unit
    return _normal(rules, coeff, m.base + base, m.odd + odd, m.kappa + kappa, m.alpha, m.amp)


def _diff_monomial(rules: Rules, m: Monomial) -> Iterator[Monomial]:
    # product rule on B^b O^o: b B^(b-1) O^o B' + o B^b O^(o-1) O', o in {0, 1}
    if m.base:
        base, odd, kappa = rules.d_base
        yield from _times_unit(rules, m.coeff * m.base, m, (base - 1, odd, kappa))
    if m.odd:
        base, odd, kappa = rules.d_odd
        yield from _times_unit(rules, m.coeff, m, (base, odd - 1, kappa))


class RadialExpr(NamedTuple):
    """Finite sum of monomials over one basis, kept in normal form."""

    basis: Basis
    terms: tuple[Monomial, ...]

    # -- construction -------------------------------------------------

    @classmethod
    def from_terms(cls, basis: Basis, terms: Iterable[Monomial]) -> "RadialExpr":
        acc: dict[tuple, Fraction] = {}
        for t in terms:
            if t.odd not in (0, 1):
                raise ValueError(f"odd power must be 0 or 1, got {t.odd}")
            if t.odd and not basis.has_odd:
                raise ValueError(f"{basis.value} basis has no odd factor")
            key = t.key
            acc[key] = acc[key] + t.coeff if key in acc else t.coeff
        kept = [
            Monomial(c if type(c) is Fraction else Fraction(c), *k)
            for k, c in acc.items()
            if c != 0
        ]
        kept.sort(key=_sort_key)
        return cls(basis, tuple(kept))

    @classmethod
    def zero(cls, basis: Basis) -> "RadialExpr":
        return cls(basis, ())

    @classmethod
    def monomial(
        cls,
        basis: Basis,
        coeff: RatLike,
        base: int = 0,
        odd: int = 0,
        kappa: int = 0,
        alpha: int = 0,
        amp: int = 0,
    ) -> "RadialExpr":
        return cls.from_terms(basis, [Monomial(Fraction(coeff), base, odd, kappa, alpha, amp)])

    # -- ring operations ----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _require_same_basis(self, other: "RadialExpr") -> None:
        if self.basis is not other.basis:
            raise ValueError(f"basis mismatch: {self.basis.value} vs {other.basis.value}")

    def __add__(self, other: "RadialExpr") -> "RadialExpr":
        self._require_same_basis(other)
        return RadialExpr.from_terms(self.basis, self.terms + other.terms)

    def __neg__(self) -> "RadialExpr":
        return RadialExpr(
            self.basis,
            tuple(Monomial(-t.coeff, *t.key) for t in self.terms),
        )

    def __sub__(self, other: "RadialExpr") -> "RadialExpr":
        return self + (-other)

    def __mul__(self, other: Union["RadialExpr", RatLike]) -> "RadialExpr":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return RadialExpr.from_terms(
                self.basis, (Monomial(t.coeff * q, *t.key) for t in self.terms)
            )
        self._require_same_basis(other)
        rules = SPECS[self.basis].rules
        out: list[Monomial] = []
        for a in self.terms:
            for b in other.terms:
                out.extend(_normal(rules, a.coeff * b.coeff, a.base + b.base, a.odd + b.odd,
                                   a.kappa + b.kappa, a.alpha + b.alpha, a.amp + b.amp))
        return RadialExpr.from_terms(self.basis, out)

    __rmul__ = __mul__

    def scale_grades(self, kappa: int = 0, alpha: int = 0, amp: int = 0) -> "RadialExpr":
        """Multiply by a pure grade monomial (-kappa)^kappa alpha^alpha A^amp."""
        return RadialExpr(
            self.basis,
            tuple(
                Monomial(t.coeff, t.base, t.odd, t.kappa + kappa, t.alpha + alpha, t.amp + amp)
                for t in self.terms
            ),
        )

    def diff(self) -> "RadialExpr":
        rules = SPECS[self.basis].rules
        out: list[Monomial] = []
        for t in self.terms:
            out.extend(_diff_monomial(rules, t))
        return RadialExpr.from_terms(self.basis, out)

    def div_T(self) -> "RadialExpr":
        """Exact division by T = S/C (flat: by r)."""
        rules = SPECS[self.basis].rules
        return RadialExpr.from_terms(
            self.basis,
            (m for t in self.terms for m in _times_unit(rules, t.coeff, t, rules.inv_T)),
        )

    def laplacian_parts(self) -> tuple["RadialExpr", "RadialExpr"]:
        """(f'', f'/T): the radial Laplacian is f'' + (D-1) f'/T."""
        d1 = self.diff()
        return d1.diff(), d1.div_T()

    def laplacian(self, dim: int) -> "RadialExpr":
        """Radial Laplace-Beltrami image: f'' + (D-1)/T f'.

        Exact for every expression of the curved-s and flat-r families and
        for even (odd == 0) expressions of the other two; the odd image in
        those would involve 1/r resp. 1/S and leave the family.
        """
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        if dim == 1:  # no f'/T term, which leaves the family for an odd flat-c or curved-c f
            return self.diff().diff()
        d2, d1_t = self.laplacian_parts()
        return d2 + (dim - 1) * d1_t

    def div_monomial(self, divisor: "RadialExpr") -> "RadialExpr":
        """Exact quotient by a single-monomial expression."""
        self._require_same_basis(divisor)
        if len(divisor.terms) != 1:
            raise ValueError("divisor must be a single monomial")
        d = divisor.terms[0]
        out = []
        for t in self.terms:
            odd = t.odd - d.odd
            if odd not in (0, 1):
                raise ClosureError("quotient leaves the basis (negative odd power)")
            out.append(
                Monomial(
                    t.coeff / d.coeff,
                    t.base - d.base,
                    odd,
                    t.kappa - d.kappa,
                    t.alpha - d.alpha,
                    t.amp - d.amp,
                )
            )
        return RadialExpr.from_terms(self.basis, out)

    def substitute_amp_sq(self, x_law: Graded) -> "RadialExpr":
        """Replace A^2 by X/alpha with X = x_law (amplitude-resolved form).

        Only even amplitude grades can be eliminated rationally.
        """
        out = []
        for t in self.terms:
            if t.amp == 0:
                out.append(t)
                continue
            if t.amp % 2:
                raise ValueError("cannot substitute an odd amplitude grade")
            m = t.amp // 2
            out.append(
                Monomial(
                    t.coeff * x_law.coef**m,
                    t.base,
                    t.odd,
                    t.kappa + m * x_law.kappa,
                    t.alpha - m,
                    0,
                )
            )
        return RadialExpr.from_terms(self.basis, out)

    # -- evaluation ----------------------------------------------------

    def compile(self, *args, **kwargs):
        """Removed: :func:`ccsp.numeric.compile_table` is the one evaluator.  The name
        stays only for perfbench's tracer wrapper (``perfbench/tracing.py``), and the
        two go together (ROADMAP item 13a)."""
        raise NotImplementedError("RadialExpr.compile is removed; use ccsp.numeric.compile_table")

    # -- serialization ---------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "basis": self.basis.value,
            "terms": [
                {
                    "coeff": str(t.coeff),
                    "base": t.base,
                    "odd": t.odd,
                    "kappa": t.kappa,
                    "alpha": t.alpha,
                    "amp": t.amp,
                }
                for t in self.terms
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RadialExpr":
        return cls.from_terms(
            Basis(obj["basis"]),
            (
                Monomial(json_fraction(t["coeff"]), *(json_int(t[k]) for k in ("base", "odd", "kappa", "alpha", "amp")))
                for t in obj["terms"]
            ),
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        base_name = SPECS[self.basis].rules.names
        parts = []
        for t in self.terms:
            bits = [f"({t.coeff})"]
            if t.kappa:
                bits.append(f"(-kappa)^{t.kappa}" if t.kappa != 1 else "(-kappa)")
            if t.alpha:
                bits.append(f"alpha^{t.alpha}" if t.alpha != 1 else "alpha")
            if t.amp:
                bits.append(f"A^{t.amp}" if t.amp != 1 else "A")
            if t.odd:
                bits.append(base_name[1])
            if t.base:
                bits.append(f"{base_name[0]}^{t.base}" if t.base != 1 else base_name[0])
            parts.append("*".join(bits))
        return " + ".join(parts)
