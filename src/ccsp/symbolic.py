"""Exact term algebra for radial profiles on constant-curvature spaces.

Every profile this package manipulates lives in one of four closed monomial
families, each generated by a single base function with at most one factor
of a complementary odd function:

    flat-c    powers of c = sqrt(1 + r^2), odd factor r,   r^2 = c^2 - 1
    flat-r    pure powers of r (no odd factor)
    curved-c  powers of C,     odd factor S,   (-kappa) S^2 = C^2 - 1
    curved-s  powers of S,     odd factor C,   C^2 = 1 + (-kappa) S^2

where S, C are the curvature-scaled metric functions of :mod:`ccsp.geometry`.
Coefficients are exact rationals graded by integer powers of the signed
curvature (-kappa), the coupling alpha, and the solution amplitude A, so
addition, multiplication, d/dr and the radial Laplace-Beltrami operator are
all exact: no floating point enters until evaluation.

The odd exponent is capped at one; squares are reduced eagerly through the
relations above, which makes the normal form unique.  The curved relations
use the *signed* quantity (-kappa) (positive hyperbolic, negative
spherical), so a single expression serves both curved regimes and is
evaluated with the right signs by :meth:`RadialExpr.eval`.  Expressions are
immutable values; everything here is pure and safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Union

import numpy as np

from .geometry import PoleError, Regime, Space

__all__ = [
    "Basis",
    "Monomial",
    "RadialExpr",
    "Graded",
]


class ClosureError(ValueError):
    """Requested operation leaves the monomial family."""


class Basis(str, Enum):
    FLAT_C = "flat-c"
    FLAT_R = "flat-r"
    CURVED_C = "curved-c"
    CURVED_S = "curved-s"

    @property
    def is_flat(self) -> bool:
        return self in (Basis.FLAT_C, Basis.FLAT_R)

    @property
    def has_odd(self) -> bool:
        return self is not Basis.FLAT_R


RatLike = Union[Fraction, int]


@dataclass(frozen=True, order=True)
class Monomial:
    """coeff * base^base * odd^odd * (-kappa)^kappa * alpha^alpha * A^amp."""

    coeff: Fraction
    base: int
    odd: int
    kappa: int
    alpha: int
    amp: int

    @property
    def key(self) -> tuple[int, int, int, int, int]:
        return (self.base, self.odd, self.kappa, self.alpha, self.amp)


def _sort_key(m: Monomial):
    # deterministic normal form: descending base power, then grades
    return (-m.base, m.odd, m.kappa, m.alpha, m.amp)


@dataclass(frozen=True)
class Graded:
    """An exact rational times an integer power of the signed curvature."""

    coef: Fraction
    kappa: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "coef", Fraction(self.coef))
        if self.coef == 0 and self.kappa != 0:
            object.__setattr__(self, "kappa", 0)

    @property
    def is_zero(self) -> bool:
        return self.coef == 0

    def evaluate(self, neg_kappa: float) -> float:
        if self.kappa == 0:
            return float(self.coef)
        return float(self.coef) * neg_kappa**self.kappa

    def sign(self, regime: Regime) -> int:
        """Sign of the value in `regime`: (-kappa) is negative on the sphere."""
        s = 1 if self.coef > 0 else -1
        return -s if regime is Regime.SPHERICAL and self.kappa % 2 else s

    def __neg__(self) -> "Graded":
        return Graded(-self.coef, self.kappa)

    def __str__(self) -> str:
        if self.kappa == 0:
            return str(self.coef)
        k = "(-kappa)" if self.kappa == 1 else f"(-kappa)^{self.kappa}"
        return f"{self.coef}*{k}"

    def to_json_obj(self) -> dict:
        return {"coef": str(self.coef), "kappa_pow": self.kappa}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Graded":
        return cls(Fraction(obj["coef"]), int(obj["kappa_pow"]))


ZERO_GRADED = Graded(Fraction(0), 0)

# odd^2 rewrite rules: odd^2 * base^b -> sum of (coeff sign, base shift,
# kappa shift) applied to the even part.
_REDUCTIONS: dict[Basis, tuple[tuple[int, int, int], ...]] = {
    Basis.FLAT_C: ((1, 2, 0), (-1, 0, 0)),      # r^2 = c^2 - 1
    Basis.CURVED_C: ((1, 2, -1), (-1, 0, -1)),  # S^2 = (C^2 - 1)/(-kappa)
    Basis.CURVED_S: ((1, 0, 0), (1, 2, 1)),     # C^2 = 1 + (-kappa) S^2
}


def _mul_monomials(basis: Basis, a: Monomial, b: Monomial) -> Iterator[Monomial]:
    coeff = a.coeff * b.coeff
    base = a.base + b.base
    kappa = a.kappa + b.kappa
    alpha = a.alpha + b.alpha
    amp = a.amp + b.amp
    odd = a.odd + b.odd
    if odd <= 1:
        yield Monomial(coeff, base, odd, kappa, alpha, amp)
        return
    for sign, dbase, dkappa in _REDUCTIONS[basis]:
        yield Monomial(coeff * sign, base + dbase, 0, kappa + dkappa, alpha, amp)


def _diff_monomial(basis: Basis, m: Monomial) -> Iterator[Monomial]:
    b = m.base
    if basis is Basis.FLAT_R:
        if b != 0:
            yield Monomial(m.coeff * b, b - 1, 0, m.kappa, m.alpha, m.amp)
    elif basis is Basis.FLAT_C:
        if m.odd == 0:
            if b != 0:
                yield Monomial(m.coeff * b, b - 2, 1, m.kappa, m.alpha, m.amp)
        else:
            # d/dr (r c^b) = (1+b) c^b - b c^(b-2)
            yield Monomial(m.coeff * (1 + b), b, 0, m.kappa, m.alpha, m.amp)
            if b != 0:
                yield Monomial(-m.coeff * b, b - 2, 0, m.kappa, m.alpha, m.amp)
    elif basis is Basis.CURVED_C:
        if m.odd == 0:
            # d/dr C^b = b (-kappa) S C^(b-1)
            if b != 0:
                yield Monomial(m.coeff * b, b - 1, 1, m.kappa + 1, m.alpha, m.amp)
        else:
            # d/dr (S C^b) = (1+b) C^(b+1) - b C^(b-1)
            yield Monomial(m.coeff * (1 + b), b + 1, 0, m.kappa, m.alpha, m.amp)
            if b != 0:
                yield Monomial(-m.coeff * b, b - 1, 0, m.kappa, m.alpha, m.amp)
    elif basis is Basis.CURVED_S:
        if m.odd == 0:
            # d/dr S^b = b C S^(b-1)
            if b != 0:
                yield Monomial(m.coeff * b, b - 1, 1, m.kappa, m.alpha, m.amp)
        else:
            # d/dr (C S^b) = (1+b)(-kappa) S^(b+1) + b S^(b-1)
            yield Monomial(m.coeff * (1 + b), b + 1, 0, m.kappa + 1, m.alpha, m.amp)
            if b != 0:
                yield Monomial(m.coeff * b, b - 1, 0, m.kappa, m.alpha, m.amp)
    else:  # pragma: no cover
        raise AssertionError(basis)


@dataclass(frozen=True)
class RadialExpr:
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
            if not basis.has_odd and t.odd != 0:
                raise ValueError(f"{basis.value} basis has no odd factor")
            acc[t.key] = acc.get(t.key, Fraction(0)) + Fraction(t.coeff)
        kept = [
            Monomial(c, *k)
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

    @classmethod
    def const(cls, basis: Basis, value: Union[RatLike, Graded]) -> "RadialExpr":
        if isinstance(value, Graded):
            return cls.monomial(basis, value.coef, kappa=value.kappa)
        return cls.monomial(basis, value)

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
        out: list[Monomial] = []
        for a in self.terms:
            for b in other.terms:
                out.extend(_mul_monomials(self.basis, a, b))
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
        out: list[Monomial] = []
        for t in self.terms:
            out.extend(_diff_monomial(self.basis, t))
        return RadialExpr.from_terms(self.basis, out)

    def div_T(self) -> "RadialExpr":
        """Exact division by T = S/C (flat: by r)."""
        if self.basis is Basis.FLAT_R:
            return RadialExpr(
                self.basis,
                tuple(Monomial(t.coeff, t.base - 1, 0, t.kappa, t.alpha, t.amp) for t in self.terms),
            )
        if self.basis is Basis.CURVED_S:
            # multiply by the monomial C * S^-1, reducing C^2 where it appears
            return self * RadialExpr.monomial(self.basis, 1, base=-1, odd=1)
        out = []
        for t in self.terms:
            if t.odd != 1:
                raise ClosureError(
                    f"1/T of an even {self.basis.value} term leaves the basis"
                )
            if self.basis is Basis.FLAT_C:
                out.append(Monomial(t.coeff, t.base, 0, t.kappa, t.alpha, t.amp))
            else:  # CURVED_C: S C^b / T = C^(b+1)
                out.append(Monomial(t.coeff, t.base + 1, 0, t.kappa, t.alpha, t.amp))
        return RadialExpr.from_terms(self.basis, out)

    def laplacian(self, dim: int) -> "RadialExpr":
        """Radial Laplace-Beltrami image: f'' + (D-1)/T f'.

        Exact for every expression of the curved-s and flat-r families and
        for even (odd == 0) expressions of the other two; the odd image in
        those would involve 1/r resp. 1/S and leave the family.
        """
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        d1 = self.diff()
        d2 = d1.diff()
        if dim == 1:
            return d2
        return d2 + (dim - 1) * d1.div_T()

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

    def collect(self) -> list[tuple[tuple[int, int, int, int, int], Fraction]]:
        """Deterministically ordered (key, coefficient) pairs."""
        return [(t.key, t.coeff) for t in self.terms]

    # -- evaluation ----------------------------------------------------

    def _base_odd_fns(self, space: Space) -> tuple[Callable, Callable]:
        if self.basis.is_flat:
            if space.regime is not Regime.FLAT:
                raise ValueError("flat expression evaluated on a curved space")
            if self.basis is Basis.FLAT_C:
                return (lambda r: np.sqrt(1.0 + r * r)), (lambda r: r)
        elif space.regime is Regime.FLAT:
            raise ValueError("curved expression evaluated on flat space")
        metric = space.metric
        if self.basis is Basis.CURVED_C:
            return metric.C, metric.S
        # flat-r and curved-s: base S (flat: r), odd factor C (flat: 1)
        return metric.S, metric.C

    def compile(self, space: Space, alpha: float, amp_sq: float) -> Callable:
        """Vectorized evaluator r -> value (floats; poles become inf/nan)."""
        if amp_sq < 0:
            raise ValueError(f"amplitude squared must be nonnegative, got {amp_sq}")
        base_fn, odd_fn = self._base_odd_fns(space)
        nk = space.neg_kappa
        amp = math.sqrt(amp_sq)
        pre: list[tuple[float, int, int]] = []
        for t in self.terms:
            if t.kappa != 0 and space.regime is Regime.FLAT:
                raise ValueError("flat evaluation of a curvature-graded term")
            if t.alpha != 0 and alpha == 0:
                raise ValueError("alpha == 0 with a coupling-graded term")
            if t.amp != 0 and amp == 0.0 and t.amp < 0:
                raise ValueError("zero amplitude with negative amplitude grade")
            scale = float(t.coeff)
            if t.kappa:
                scale *= nk**t.kappa
            if t.alpha:
                scale *= alpha**t.alpha
            if t.amp:
                scale *= amp**t.amp
            pre.append((scale, t.base, t.odd))

        def fn(r):
            r = np.asarray(r, dtype=float)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                total = np.zeros_like(r)
                if pre:
                    b = base_fn(r)
                    o = odd_fn(r)
                    for scale, bp, op in pre:
                        term = np.full_like(r, scale)
                        if bp:
                            term = term * b ** float(bp)
                        if op:
                            term = term * o
                        total = total + term
            return total

        return fn

    def eval(self, space: Space, r: float, alpha: float = 1.0, amp_sq: float = 1.0) -> float:
        """Scalar evaluation; raises PoleError where a base function vanishes
        under a negative power."""
        value = float(self.compile(space, alpha, amp_sq)(float(r)))
        if not math.isfinite(value):
            raise PoleError(f"expression has a pole at r = {r}")
        return value

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

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RadialExpr":
        return cls.from_terms(
            Basis(obj["basis"]),
            (
                Monomial(
                    Fraction(t["coeff"]),
                    int(t["base"]),
                    int(t["odd"]),
                    int(t["kappa"]),
                    int(t["alpha"]),
                    int(t["amp"]),
                )
                for t in obj["terms"]
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "RadialExpr":
        return cls.from_json_obj(json.loads(text))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        base_name = {
            Basis.FLAT_C: ("c", "r"),
            Basis.FLAT_R: ("r", ""),
            Basis.CURVED_C: ("C", "S"),
            Basis.CURVED_S: ("S", "C"),
        }[self.basis]
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
