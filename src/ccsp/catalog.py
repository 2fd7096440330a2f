"""Verified records of every closed-form solution the package knows.

An entry is a derivation hit plus its record (id, mass convention,
provenance, scale).  Each is materialized by actually running the
derivation engine for its (family, exponent, dimension) cell and
re-substituting the resulting profile into both field equations
symbolically; construction fails loudly if either residual is nonzero.
SPH_TRIVIAL is the one hand-written hit: the amplitude-free constant
profile, which the search cannot return (X = 0 at n = 0).

Profile, potential, singular set and mass are functions of the hit.
Masses come from the exponents (:func:`ccsp.derivation.exact_mass`) as
exact graded constants (rational * sphere area * pi^p * |kappa|^(k/2) *
|alpha|^a), so the numerical layer can verify them at any curvature and
coupling.

The float layer reads every field by name (`Solution.fields_fn`): the named
expressions compiled at (kappa, alpha) as one table, the flat scale applied
once with each field's power from `_SCALE_POWERS`.  A flat entry's tail
integral K(r) = int_r^inf u^2 t dt, from which the float layer takes Q, is
one monomial of the term algebra (`Solution.K`), built on first use, never
while the catalog builds.  Flat homogeneous entries form a scaling family
u_a(r) = a^-2 u(r/a); the curved entries do not scale (the
curved Laplacian has no scale symmetry), and :func:`scale_flat_solution`
refuses them, as it refuses background entries; a record's scale is
re-applied through it when the record is loaded.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Callable, Optional

from .derivation import (
    AlphaSign,
    AnsatzFamily,
    CandidateStatus,
    DerivationHit,
    GradedMass,
    evaluate_candidate,
    exact_mass,
    omega_json,
    omega_of,
    resubstitution_defects,
    singular_radius_tags,
    solution_exprs,
)
from .geometry import Regime, Space, sphere_area
from .symbolic import Basis, Graded, RadialExpr, ZERO_GRADED, _float_result, json_int

__all__ = [
    "GradedMass",
    "Solution",
    "NotScalableError",
    "CATALOG",
    "catalog_list",
    "get_solution",
    "solution_from_hit",
    "scale_flat_solution",
]

FULL = "FULL"
RADIAL_INTEGRAL = "RADIAL_INTEGRAL"


class NotScalableError(ValueError):
    """Only flat homogeneous solutions form a scaling family."""


# each field's flat-scale power: u, V and K take -2, each d/dr -1, and rho its
# length dimension -4 (rho is zero wherever a scale acts: only homogeneous entries scale)
_SCALE_POWERS = {"u": -2, "du": -3, "d2u": -4, "V": -2, "dV": -3, "d2V": -4, "K": -2, "rho": -4}

# halving r_max is exact, so the equator is bit-identical to pi/(2 sqrt(kappa))
_TAG_RADII: dict[str, Callable[[Space], float]] = {
    "origin": lambda space: 0.0,
    "equator": lambda space: space.r_max / 2,
    "antipode": lambda space: space.r_max,
}


_HIT_FIELDS = len(DerivationHit._fields)


class Solution(DerivationHit):
    """A derivation hit plus its record: every field but `id`,
    `mass_convention`, `provenance` and `scale` is the hit's, and u, V, the
    singular set and the mass are functions of it.

    The record's fields are keyword-only and follow the hit's in the
    tuple, so equality and hash cover them and a Solution never equals
    its bare hit.  Unlike the other value types it keeps an instance
    dict, where its cached properties live."""

    _fields = DerivationHit._fields + ("id", "mass_convention", "provenance", "scale")
    id = property(itemgetter(_HIT_FIELDS))
    mass_convention = property(itemgetter(_HIT_FIELDS + 1))
    provenance = property(itemgetter(_HIT_FIELDS + 2))
    scale = property(itemgetter(_HIT_FIELDS + 3))

    def __new__(
        cls, *hit_args, id: str, mass_convention: str, provenance: str, scale: float = 1.0, **hit_fields
    ) -> "Solution":
        hit = DerivationHit(*hit_args, **hit_fields)
        return tuple.__new__(cls, (*hit, id, mass_convention, provenance, scale))

    def __getnewargs_ex__(self):
        return tuple(self[:_HIT_FIELDS]), dict(zip(self._fields[_HIT_FIELDS:], self[_HIT_FIELDS:]))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{name}={value!r}' for name, value in zip(self._fields, self))})"

    def _replace(self, **changes) -> "Solution":
        return type(self)(**{**self._asdict(), **changes})

    @cached_property
    def _exprs(self) -> tuple[RadialExpr, RadialExpr]:
        return solution_exprs(self)

    @cached_property
    def _derivatives(self) -> dict[str, RadialExpr]:
        """u', u'', V' and V'' by field name: reading u or V differentiates nothing."""
        du, dv = self.u.diff(), self.V.diff()
        return {"du": du, "d2u": du.diff(), "dV": dv, "d2V": dv.diff()}

    @property
    def u(self) -> RadialExpr:
        return self._exprs[0]

    @property
    def V(self) -> RadialExpr:
        return self._exprs[1]

    @cached_property
    def K(self) -> RadialExpr:
        """K(r) = int_r^inf u^2 t dt, flat entries only.  With u = A B^n and
        (B^2)' = 2r in both flat bases, K = -u^2 B^2/(2n + 2): one monomial,
        which decays for every n < -1.  K' = -r u^2, so
        (-Lap)^-1 u^2 = (r^(2-D) M + K)/(D - 2) in flat space, M the charge
        int_0^r u^2 t^(D-1) dt."""
        if not self.family.is_flat or self.n >= -1:
            raise ValueError(f"{self.id}: the tail integral of u^2 r needs a flat profile decaying faster than 1/r")
        return self.u * self.u * RadialExpr.monomial(self.family, Fraction(-1, 2 * self.n + 2), 2)

    @property
    def singular_radii(self) -> tuple[str, ...]:
        return singular_radius_tags(AnsatzFamily(self.family, self.n), self.regime)

    @cached_property
    def mass(self) -> Optional[GradedMass]:
        """None: the mass diverges."""
        return exact_mass(self, sphere_factor=self.mass_convention == FULL)

    @property
    def finite_mass(self) -> bool:
        return self.mass is not None

    # -- parameter handling -------------------------------------------

    def space(self, kappa: float) -> Space:
        return Space(self.regime, kappa, self.dim)

    def length(self, kappa: float) -> float:
        """The space's length unit times the scale (every curved scale is 1)."""
        return self.space(kappa).length * self.scale

    def fields_fn(self, kappa: float, alpha: float, *names: str) -> Callable:
        """r -> [each named field, a key of `_SCALE_POWERS`] at (kappa, alpha),
        from one table (:func:`ccsp.numeric.compile_table`), each field bit for
        bit its expression compiled alone.  A scaled field is a^power f(r/a),
        the scale acting once, as r/a: a^power outside the normal doubles raises
        ValueError (:meth:`_scale_power`), and a product past the floats is inf."""
        from .numeric import compile_table

        exprs = [getattr(self, name) if name in ("u", "V", "K", "rho") else self._derivatives[name] for name in names]
        table = compile_table(exprs, self.space(kappa), alpha, self.amp_sq_value(kappa, alpha))
        if self.scale == 1.0:
            return table
        import numpy as np  # loaded with compile_table

        a = self.scale
        factors = [self._scale_power(_SCALE_POWERS[name], "a field") for name in names]
        return np.errstate(over="ignore", invalid="ignore")(lambda r: [v * f for v, f in zip(table(r / a), factors)])

    def _scale_power(self, k: int, what: str) -> float:
        """a^k of the flat scale a; outside the normal doubles it raises ValueError."""
        try:
            if (power := self.scale**k) >= sys.float_info.min:
                return power
        except OverflowError:
            pass
        raise ValueError(f"{self.id}: scale {self.scale!r} puts {what} outside the float range")

    # only flat entries scale, and their omega is 0 and their one pole the origin
    def omega_value(self, kappa: float) -> float:
        return self.omega.evaluate(-kappa)

    def singular_radii_values(self, kappa: float) -> tuple[float, ...]:
        space = self.space(kappa)
        return tuple(sorted(_TAG_RADII[t](space) for t in self.singular_radii))

    def expected_mass_value(self, kappa: float, alpha: float) -> Optional[float]:
        """Closed-form full-manifold mass, or None for infinite-mass entries; outside the normal doubles, ValueError."""
        if self.mass is None:
            return None
        v = self.mass.value(kappa, alpha)
        if self.mass_convention == RADIAL_INTEGRAL:
            v *= sphere_area(self.dim)
        v *= self._scale_power(self.dim - 4, "the mass")
        if not math.isfinite(v) and self.scale != 1.0:  # the product with the scale's mass factor a^(D-4)
            raise ValueError(f"{self.id}: scale {self.scale!r} puts the mass outside the float range")
        return _float_result("closed-form mass", v, f"kappa = {kappa!r}, alpha = {alpha!r}")

    # -- serialization -------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "id": self.id,
            "regime": self.regime.value,
            "dim": self.dim,
            "u": self.u.to_json_obj(),
            "V": self.V.to_json_obj(),
            "rho": None if self.rho.is_zero else self.rho.to_json_obj(),
            "omega": omega_json(self.omega, self.regime),
            "alpha_sign": self.alpha_sign.value if self.alpha_sign else "any",
            "amp_law": self.x_law.to_json_obj() if self.x_law else None,
            "singular_radii": list(self.singular_radii),
            "mass": self.mass.to_json_obj() if self.mass else None,
            "mass_convention": self.mass_convention,
            "provenance": self.provenance,
            "scale": self.scale,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Solution":
        """Re-derive a record from its cell: the hit is rebuilt from u's
        basis and power, the amplitude law, omega and rho, re-checked
        symbolically, and must reproduce the record exactly."""
        u = RadialExpr.from_json_obj(obj["u"])
        if len(u.terms) != 1:
            raise ValueError(f"{obj['id']}: u must be a single monomial A*base^n")
        rho = obj["rho"]
        hit = DerivationHit(
            family=u.basis,
            n=u.terms[0].base,
            dim=json_int(obj["dim"]),
            regime=Regime(obj["regime"]),
            mode="homogeneous" if rho is None else "background",
            x_law=Graded.from_json_obj(obj["amp_law"]) if obj["amp_law"] else None,
            omega=Graded.from_json_obj(obj["omega"]),
            rho=RadialExpr.zero(u.basis) if rho is None else RadialExpr.from_json_obj(rho),
        )
        sol = solution_from_hit(hit, obj["id"], obj["mass_convention"], obj["provenance"])
        scale = obj["scale"]
        if type(scale) not in (int, float):
            raise ValueError(f"{sol.id}: scale must be a number, got {scale!r}")
        if scale != 1.0:
            sol = scale_flat_solution(sol, scale)
        if sol.to_json_obj() != obj:
            raise ValueError(f"{sol.id}: the record disagrees with its derivation")
        return sol


def solution_from_hit(
    hit: DerivationHit,
    id: str,
    mass_convention: str = FULL,
    provenance: str = "",
) -> Solution:
    """Materialize a derivation hit into a full record, re-checking both
    field equations symbolically; the mass is the hit's exact Beta value.
    omega must be the frequency of the hit's cell (:func:`ccsp.derivation.omega_of`):
    a constant shift of omega (and with it of V) also solves both equations,
    so only this check catches it."""
    if mass_convention not in (FULL, RADIAL_INTEGRAL):
        raise ValueError(f"{id}: unknown mass convention {mass_convention!r}")
    sol = Solution(
        *hit[:_HIT_FIELDS],
        id=id,
        mass_convention=mass_convention,
        provenance=provenance,
    )
    schro, poisson = resubstitution_defects(sol.u, sol.V, sol.rho, sol.omega, sol.x_law, sol.dim)
    if not schro.is_zero or not poisson.is_zero:
        raise ValueError(f"{id}: re-substitution defect (schro={schro}, poisson={poisson})")
    omega = omega_of(AnsatzFamily(sol.family, sol.n), sol.regime, sol.dim)
    if sol.omega != omega:
        raise ValueError(f"{id}: omega = {sol.omega} is not the frequency {omega} of its cell")
    return sol


def _entry(
    id: str,
    family: Basis,
    n: int,
    regime: Regime,
    dim: int,
    mode: str,
    mass_convention: str = FULL,
    provenance: str = "",
) -> Solution:
    cand = evaluate_candidate(AnsatzFamily(family, n), regime, dim, mode)
    if cand.status is not CandidateStatus.HIT:
        raise AssertionError(f"{id}: expected a hit, got {cand.status.value} ({cand.detail})")
    return solution_from_hit(cand.hit, id, mass_convention, provenance)


def _trivial_sphere_entry() -> Solution:
    # not a search hit: X = 0 at n = 0, so the constant profile is the
    # amplitude-free cell with u^2 = -rho = 1
    basis = Basis.CURVED_C
    hit = DerivationHit(
        family=basis,
        n=0,
        dim=3,
        regime=Regime.SPHERICAL,
        mode="background",
        x_law=None,
        omega=ZERO_GRADED,
        rho=RadialExpr.monomial(basis, -1),
    )
    return solution_from_hit(
        hit,
        "SPH_TRIVIAL",
        provenance=(
            "Constant profile on the 3-sphere with u^2 = -rho = 1 and V = 0; the only "
            "background solution regular on the whole sphere.  Works for either coupling "
            "sign.  Mass equals the sphere volume 2 pi^2 kappa^(-3/2)."
        ),
    )


def _build_catalog() -> tuple[Solution, ...]:
    entries = [
        _entry(
            "FLAT_CSV", Basis.FLAT_C, -4, Regime.FLAT, 6, "homogeneous",
            provenance=(
                "Self-attractive profile A (1+r^2)^-2 in dimension six, amplitude "
                "A = 24/sqrt(-alpha); smooth, square-integrable, and a member of the "
                "scaling family u_a(r) = a^-2 u(r/a) with N[u_a] = a^2 N[u].  Exponent "
                "convention: n counts powers of c = sqrt(1+r^2), so this is n = -4."
            ),
        ),
        _entry(
            "FLAT_SINGULAR_D3", Basis.FLAT_R, -2, Regime.FLAT, 3, "homogeneous",
            provenance=(
                "Inverse-square profile u = 2|D-4| r^-2/sqrt(-alpha) at D = 3; singular "
                "at the origin, infinite mass.  Quotes of the amplitude as "
                "2(D-4) r^-2/(-alpha) are dimensionally inconsistent; coefficient "
                "matching forces the 1/sqrt(-alpha) normalization."
            ),
        ),
        _entry(
            "FLAT_SINGULAR_D6", Basis.FLAT_R, -2, Regime.FLAT, 6, "homogeneous",
            provenance=(
                "Inverse-square profile at D = 6, amplitude 4/sqrt(-alpha); singular at "
                "the origin, infinite mass (the D = 4 member has zero amplitude and "
                "does not exist)."
            ),
        ),
        _entry(
            "BG_FLAT_N3_D4", Basis.FLAT_C, -3, Regime.FLAT, 4, "background",
            provenance=(
                "Repulsive background profile u = 12 c^-3/sqrt(alpha) at D = 4 with "
                "source rho = -360/(alpha c^8).  Mass is finite, N = 36 S_3/alpha "
                "(despite occasional claims of divergence: the integrand decays like "
                "r^-3)."
            ),
        ),
        _entry(
            "BG_FLAT_N3_D5", Basis.FLAT_C, -3, Regime.FLAT, 5, "background",
            provenance=(
                "Repulsive background profile u = sqrt(60/alpha) c^-3 at D = 5, same "
                "source rho = -360/(alpha c^8).  Mass is finite, N = (45 pi/4) S_4/alpha."
            ),
        ),
        _entry(
            "BG_FLAT_N4_D4", Basis.FLAT_C, -4, Regime.FLAT, 4, "background",
            provenance=(
                "Attractive background companion of the D = 6 profile, taken at D = 4: "
                "u = 24 c^-4/sqrt(-alpha), rho = 256/(alpha c^6).  For alpha < 0 the "
                "source is negative (positive-sign quotes drop the orientation of the "
                "Poisson source; direct substitution fixes it).  Mass is finite, "
                "N = 48 S_3/(-alpha)."
            ),
        ),
        _entry(
            "HYP_U1", Basis.CURVED_C, -2, Regime.HYPERBOLIC, 3, "homogeneous",
            provenance=(
                "Attractive inverse-C-squared profile in hyperbolic 3-space, amplitude "
                "A = 6(-kappa)/sqrt(-alpha), omega = 0; smooth and square-integrable "
                "with N = 12 S_2 sqrt(-kappa)/(-alpha).  Not scalable: one solution per "
                "(kappa, alpha)."
            ),
        ),
        _entry(
            "HYP_U2", Basis.CURVED_S, -2, Regime.HYPERBOLIC, 3, "homogeneous",
            provenance=(
                "Attractive inverse-S-squared profile, D = 3.  With the metric function "
                "S the exact amplitude is 2/sqrt(-alpha); quotes of 2(-kappa)/sqrt(-alpha) "
                "presume the unscaled sinh normalization and agree at kappa = -1.  "
                "Singular at the origin; mass diverges from small r."
            ),
        ),
        _entry(
            "HYP_U3", Basis.CURVED_S, -1, Regime.HYPERBOLIC, 4, "homogeneous",
            provenance=(
                "Attractive inverse-S profile, D = 4, amplitude sqrt(2(-kappa)/(-alpha)) "
                "in the metric-S normalization (unscaled-sinh quotes carry an extra "
                "sqrt(-kappa)), omega = 2(-kappa).  Singular at the origin; mass "
                "diverges from large r."
            ),
        ),
        _entry(
            "BG_HYP_N2_D1", Basis.CURVED_C, -2, Regime.HYPERBOLIC, 1, "background",
            provenance=(
                "D = 1 member of the attractive inverse-C-squared background family; "
                "the source rho = -24 (-kappa)^2/((-alpha) C^2) is negative, so it "
                "cannot model a gravitating background, but it solves the equations "
                "exactly.  Finite mass N = 48 (-kappa)^(3/2)/(-alpha)."
            ),
        ),
        _entry(
            "BG_HYP_N2_D2", Basis.CURVED_C, -2, Regime.HYPERBOLIC, 2, "background",
            provenance=(
                "D = 2 member of the attractive inverse-C-squared background family "
                "(negative source, as below three dimensions); finite mass "
                "N = 12 S_1 (-kappa)/(-alpha)."
            ),
        ),
        _entry(
            "BG_HYP_N2_D4", Basis.CURVED_C, -2, Regime.HYPERBOLIC, 4, "background",
            provenance=(
                "Attractive inverse-C-squared profile continued to D = 4 with source "
                "rho = 12 (-kappa)^2/((-alpha) C^2) >= 0; finite mass "
                "N = 24 S_3/(-alpha), independent of the curvature.  The family has "
                "finite mass only for D <= 4."
            ),
        ),
        _entry(
            "BG_HYP_N2_D5", Basis.CURVED_C, -2, Regime.HYPERBOLIC, 5, "background",
            provenance=(
                "D = 5 member of the inverse-C-squared background family; the mass "
                "integrand tends to a nonzero constant, so the mass diverges."
            ),
        ),
        _entry(
            "BG_HYP_N2_D6", Basis.CURVED_C, -2, Regime.HYPERBOLIC, 6, "background",
            provenance=(
                "D = 6 member of the inverse-C-squared background family; infinite mass."
            ),
        ),
        _entry(
            "BG_HYP_N1_D2", Basis.CURVED_C, -1, Regime.HYPERBOLIC, 2, "background",
            provenance=(
                "Repulsive inverse-C profile at D = 2 (below three dimensions the "
                "amplitude law forces alpha > 0, so the source rho = -12 (-kappa)^2/"
                "(alpha C^4) is a negative charge).  Finite mass N = 4 S_1 (-kappa)/alpha."
            ),
        ),
        _entry(
            "BG_HYP_N1_D4", Basis.CURVED_C, -1, Regime.HYPERBOLIC, 4, "background",
            provenance=(
                "Attractive inverse-C profile at D = 4 with positive source "
                "rho = 12 (-kappa)^2/((-alpha) C^4); infinite mass (finite only below "
                "three dimensions).  At D = 3 the amplitude vanishes and no such "
                "solution exists."
            ),
        ),
        _entry(
            "BG_HYP_N1_D5", Basis.CURVED_C, -1, Regime.HYPERBOLIC, 5, "background",
            provenance=(
                "Attractive inverse-C profile at D = 5; infinite mass."
            ),
        ),
        _entry(
            "BG_HYP_N1_D6", Basis.CURVED_C, -1, Regime.HYPERBOLIC, 6, "background",
            provenance=(
                "Attractive inverse-C profile at D = 6; infinite mass."
            ),
        ),
        _entry(
            "BG_1D_SECH", Basis.CURVED_C, -1, Regime.HYPERBOLIC, 1, "background",
            provenance=(
                "One-dimensional sech profile: with kappa = -1/R^2 the line metric is "
                "Euclidean and u = sqrt(8/alpha)/(R^2 cosh(r/R)), "
                "rho = -12/(alpha R^4 cosh^4(r/R)), a repulsive solution with a "
                "negative background charge.  Mass N = 16/(R^3 alpha) equals the "
                "integral of -rho; the family scales with R."
            ),
        ),
        _entry(
            "SPH_U1", Basis.CURVED_C, -2, Regime.SPHERICAL, 3, "homogeneous",
            provenance=(
                "Spherical continuation of the inverse-C-squared profile (C = cos): "
                "attractive, amplitude 6 kappa/sqrt(-alpha), omega = 0.  Singular on "
                "the equator where C vanishes; infinite mass."
            ),
        ),
        _entry(
            "SPH_U2", Basis.CURVED_S, -2, Regime.SPHERICAL, 3, "homogeneous",
            provenance=(
                "Spherical inverse-S-squared profile: attractive, amplitude "
                "2/sqrt(-alpha) (metric-S normalization).  Singular at both antipodes; "
                "mass diverges."
            ),
        ),
        _entry(
            "SPH_U3", Basis.CURVED_S, -1, Regime.SPHERICAL, 4, "homogeneous",
            mass_convention=RADIAL_INTEGRAL,
            provenance=(
                "Spherical inverse-S profile at D = 4.  Direct substitution forces the "
                "repulsive sign: alpha A^2 = 2 kappa > 0 and omega = -2 kappa; the "
                "attractive continuation sometimes quoted fails the Poisson equation.  "
                "Singular at both antipodes.  The radial mass integral is exactly "
                "4/alpha (kappa-independent); quotes of 4 kappa/(-alpha) use the "
                "unscaled-sin normalization with the attractive sign and agree in "
                "magnitude at |kappa| = |alpha| = 1.  Stored value uses the "
                "radial-integral convention (multiply by S_3 for the full mass)."
            ),
        ),
        _trivial_sphere_entry(),
    ]
    ids = [e.id for e in entries]
    if len(set(ids)) != len(ids):
        raise AssertionError("duplicate catalog ids")
    return tuple(entries)


CATALOG: tuple[Solution, ...] = _build_catalog()
_BY_ID = {sol.id: sol for sol in CATALOG}


def get_solution(id: str) -> Solution:
    try:
        return _BY_ID[id]
    except KeyError:
        raise KeyError(f"unknown solution id {id!r}; known: {', '.join(_BY_ID)}") from None


def catalog_list(
    regime: Optional[Regime] = None,
    dim: Optional[int] = None,
    alpha_sign: Optional[AlphaSign] = None,
    finite_mass: Optional[bool] = None,
) -> list[Solution]:
    """Filter the catalog; filters are conjunctive, order is deterministic.

    Entries valid for either coupling sign match both alpha_sign filters.
    """
    out = []
    for sol in CATALOG:
        if regime is not None and sol.regime is not regime:
            continue
        if dim is not None and sol.dim != dim:
            continue
        if alpha_sign is not None and sol.alpha_sign is not None and sol.alpha_sign is not alpha_sign:
            continue
        if finite_mass is not None and sol.finite_mass != finite_mass:
            continue
        out.append(sol)
    return out


def scale_flat_solution(sol: Solution, a: float) -> Solution:
    """Rescale a flat homogeneous solution: u_a(r) = a^-2 u(r/a).

    Masses transform as N[u_a] = a^(D-4) N[u] (a^2 N[u] in six dimensions).
    Curved solutions admit no such family and are rejected.
    """
    # compared exactly, so an int past the float range is rejected, not converted
    if not (0.0 < a <= sys.float_info.max):
        raise ValueError(f"scale factor must be positive and finite, got {a}")
    if sol.regime is not Regime.FLAT:
        raise NotScalableError(
            f"{sol.id}: curved solutions do not scale; one solution per (kappa, alpha)"
        )
    if not sol.rho.is_zero:
        raise NotScalableError(f"{sol.id}: background solutions are not rescaled here")
    return sol._replace(scale=sol.scale * a)
