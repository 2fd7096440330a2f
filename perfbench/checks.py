"""Checks of ccsp's outputs against perfbench/reference.json.

Each check returns (problems, fault): `problems` lists every way the output
is wrong and `fault` names the known program fault that explains them, or
is None.  An operation counts as failed when it has problems; the run is
incorrect when a failure has no known fault behind it.

Known faults, each recognised by the sub-check that goes wrong:

* ``finite-hit-mass``: `verify --hit-file` gives passed = false for a
  derived hit whose mass is finite and correct, because hits are built
  without a mass and so are expected to diverge.
* ``fd-residual``: `verify` gives passed = false for an exact solution
  whose mass is correct, because the finite-difference residual, held to a
  fixed tolerance at a fixed step, exceeds it at scaled parameters.
* ``poisson-invert``: `pohozaev` prints a wrong Q for a background entry
  while T and N are right, because the inversion of -Lap returns a
  potential close to zero.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import reference

MASS_REL_TOL = 1e-8
POHOZAEV_REL_TOL = 1e-8
IDENTITY_DEFECT_TOL = 1e-6


def _printed(x: float) -> float:
    """x as the CLI prints it: 12 significant digits."""
    return float(f"{x:.12g}")


def _rel_err(value: float, expected: float) -> float:
    return abs(value - expected) / abs(expected)


# -- derive -----------------------------------------------------------------


def reference_window(ref: dict, combo: str, n_lo: int, n_hi: int, d_lo: int, d_hi: int) -> dict:
    return {
        (h["n"], h["dim"]): h
        for h in ref["hits"][combo]
        if n_lo <= h["n"] <= n_hi and d_lo <= h["dim"] <= d_hi
    }


def check_derive(ref: dict, combo: str, window: tuple, stdout: str, rc: int, miss_cells) -> list[str]:
    """Hits of one window equal the reference search, each is confirmed by
    50-digit residuals, and the sampled misses are confirmed as misses."""
    family, regime, mode = combo.split(":")
    if rc != 0:
        return [f"exit code {rc}"]
    hits = json.loads(stdout)
    expected = reference_window(ref, combo, *window)
    got = {(h["n"], h["dim"]): h for h in hits}
    problems = []
    if set(got) != set(expected):
        problems.append(
            f"hit cells {sorted(got)} != reference {sorted(expected)}"
        )
    for cell, hit in got.items():
        if (hit["family"], hit["regime"], hit["mode"]) != (family, regime, mode):
            problems.append(f"{cell}: hit labelled {hit['family']}/{hit['regime']}/{hit['mode']}")
        want = expected.get(cell)
        if want is not None:
            if [str(Fraction(hit["x_law"]["coef"])), hit["x_law"]["kappa_pow"]] != want["x"]:
                problems.append(f"{cell}: X = {hit['x_law']} != reference {want['x']}")
            if [str(Fraction(hit["omega"]["coef"])), hit["omega"]["kappa_pow"]] != want["omega"]:
                problems.append(f"{cell}: omega = {hit['omega']} != reference {want['omega']}")
            rho = sorted(
                [str(Fraction(t["coeff"])), t["base"], t["kappa"]]
                for t in hit["rho"]["terms"]
                if t["odd"] == 0 and t["alpha"] == -1 and t["amp"] == 0
            )
            if len(rho) != len(hit["rho"]["terms"]) or rho != sorted(want["alpha_rho"]):
                problems.append(f"{cell}: rho = {hit['rho']['terms']} != reference {want['alpha_rho']}")
        problems += [f"{cell}: {p}" for p in reference.hit_residual_problems(family, regime, hit)]
    for n, dim in miss_cells:
        if (n, dim) not in got and not reference.miss_confirmed(family, regime, n, dim):
            problems.append(f"({n}, {dim}): 50-digit residuals admit a solution the search missed")
    return problems


# -- verify -----------------------------------------------------------------


def _end_radius(end: str, lam: float) -> float:
    if end == "origin":
        return 0.0
    if end == "infinity":
        return math.inf
    return math.pi / (2.0 * lam) if end == "equator" else math.pi / lam


def _divergence_radius(where: str) -> float:
    if where == "small-r":
        return 0.0
    if where == "large-r":
        return math.inf
    return float(where.removeprefix("r="))


def mass_problems(mass_ref: dict, mass_numeric, kappa: float, alpha: float) -> list[str]:
    """A finite mass within 1e-8 of the closed form, or a divergence at an
    end that the exponent analysis calls divergent."""
    lam = math.sqrt(abs(kappa))
    if mass_ref["mass1"] is not None:
        expected = mass_ref["mass1"] * abs(kappa) ** (mass_ref["lam_pow"] / 2.0)
        expected /= abs(alpha) ** mass_ref["alpha_pow"]
        if not isinstance(mass_numeric, (int, float)):
            return [f"mass {mass_numeric} but the reference is finite, {expected:.12g}"]
        if _rel_err(mass_numeric, expected) > MASS_REL_TOL:
            return [f"mass {mass_numeric!r} != reference {expected:.15g}"]
        return []
    if not isinstance(mass_numeric, str) or not mass_numeric.startswith("divergent:"):
        return [f"mass {mass_numeric!r} but the reference diverges at {mass_ref['divergent_ends']}"]
    where = _divergence_radius(mass_numeric.removeprefix("divergent:"))
    ends = [_end_radius(e, lam) for e in mass_ref["divergent_ends"]]
    if not any(where == e or (math.isfinite(e) and abs(where - e) <= 1e-5 * max(e, 1.0)) for e in ends):
        return [f"{mass_numeric} but the reference diverges at {mass_ref['divergent_ends']}"]
    return []


def check_verify(mass_ref: dict, stdout: str, rc: int, kappa: float, alpha: float, hit: bool):
    """Returns (problems, fault) for one `verify` call."""
    if rc not in (0, 1):
        return [f"exit code {rc}"], None
    rep = json.loads(stdout)
    problems = []
    if (rep["kappa"], rep["alpha"]) != (_printed(kappa), _printed(alpha)):
        problems.append(f"report for kappa={rep['kappa']}, alpha={rep['alpha']}")
    problems += mass_problems(mass_ref, rep["mass_numeric"], kappa, alpha)
    if (rc == 0) != bool(rep["passed"]):
        problems.append(f"exit code {rc} with passed = {rep['passed']}")
    if rep["passed"] or problems:
        return problems, None
    tol = rep["tolerances"]["residual"]
    worst = max(rep["schrodinger_residual_max"], rep["poisson_residual_max"])
    if worst > tol:
        return [f"passed = false: FD residual {worst:.4g} > {tol:g}"], "fd-residual"
    if hit and mass_ref["mass1"] is not None:
        return ["passed = false for a finite, correct mass"], "finite-hit-mass"
    return ["passed = false with correct residuals and mass"], None


# -- pohozaev ---------------------------------------------------------------


def check_pohozaev(poh_ref: dict, stdout: str, rc: int, alpha: float, identities: bool):
    """T and N within 1e-8 of |alpha|^-1 times the reference, Q within 1e-8
    of |alpha|^-2 times it, and (homogeneous entries) a defect <= 1e-6."""
    if rc != 0:
        return [f"exit code {rc}"], None
    rep = json.loads(stdout)
    problems = []
    if rep["alpha"] != _printed(alpha):
        problems.append(f"report for alpha={rep['alpha']}")
    for key, power in (("T", 1), ("N", 1)):
        want = poh_ref[f"{key}1"] / abs(alpha) ** power
        if not isinstance(rep[key], float) or _rel_err(rep[key], want) > POHOZAEV_REL_TOL:
            problems.append(f"{key} = {rep[key]!r} != reference {want:.12g}")
    if identities and not (isinstance(rep["defect"], float) and rep["defect"] <= IDENTITY_DEFECT_TOL):
        problems.append(f"identity defect {rep['defect']!r} > {IDENTITY_DEFECT_TOL:g}")
    q_want = poh_ref["Q1"] / alpha**2
    q_bad = not isinstance(rep["Q"], float) or _rel_err(rep["Q"], q_want) > POHOZAEV_REL_TOL
    if q_bad:
        message = f"Q = {rep['Q']!r} != reference {q_want:.12g}"
        return problems + [message], None if problems or identities else "poisson-invert"
    return problems, None
