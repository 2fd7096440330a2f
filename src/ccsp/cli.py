"""Command-line interface: catalog, derive, verify, mass, pohozaev, eval.

All results go to stdout in json, csv or table form; diagnostics go to
stderr.  Exit codes: 0 for success (a divergent integral is a correct
answer, not a failure), 1 when a verification does not pass, 2 for usage
and domain errors, 141 when stdout closes before the output is written.  Floats are printed with 12 significant digits so
output diffs are stable across platforms.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import nullcontext
from functools import cache
from typing import Optional, Sequence

import numpy as np

from . import numeric
from .bases import SPECS, Basis
from .catalog import Solution, catalog_list, get_solution, solution_from_hit
from .derivation import (
    AlphaSign,
    DerivationHit,
    solve_background,
    solve_homogeneous,
)
from .geometry import Regime, Space, sphere_area

_RANGE_FLAGS = ("-n", "--n-range", "-D", "--dim-range", "--r")

# `eval --r lo:hi:count` holds every row and the whole output in memory
MAX_GRID_POINTS = 100_000


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _jenc(obj):
    """JSON-encode with stable key order and 12-digit floats; a float that is
    not finite, which JSON cannot hold, is the string `_fmt` prints."""

    def walk(x):
        if isinstance(x, float):
            return float(f"{x:.12g}") if math.isfinite(x) else _fmt(x)
        if isinstance(x, dict):
            return {k: walk(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [walk(v) for v in x]
        return x

    return json.dumps(walk(obj), indent=2, allow_nan=False)


def _parse_int_range(text: str) -> range:
    try:
        lo_s, hi_s = text.split("..")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a..b, got {text!r}")
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo_s, hi_s, n_s = text.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi:count, got {text!r}")
    if n < 2 or not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise argparse.ArgumentTypeError(f"bad grid {text!r}")
    if n > MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"grid of {n} points exceeds {MAX_GRID_POINTS}")
    return np.linspace(lo, hi, n)


def _is_negative_number(tok: str) -> bool:
    try:
        float(tok)
    except ValueError:
        return False
    return tok.startswith("-")


def _preprocess_argv(argv: list[str]) -> list[str]:
    # argparse takes "-8..-1" and "-4e-2" for options; glue range values and
    # negative numbers to the flag before them
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if i + 1 < len(argv) and (
            tok in _RANGE_FLAGS
            or (tok.startswith("--") and tok != "--" and _is_negative_number(argv[i + 1]))
        ):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


@cache
def _build_parser() -> argparse.ArgumentParser:
    # built on first use and reused: parse_args fills a fresh namespace
    # from the defaults on every call
    p = argparse.ArgumentParser(
        prog="ccsp",
        description="Exact stationary radial solutions of the Schrodinger-Poisson "
        "system on constant-curvature spaces.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    # each subcommand registers only the flags it reads
    def common(sp, fmt_default):
        sp.add_argument("--format", choices=("json", "csv", "table"), default=fmt_default)

    def params(sp):
        sp.add_argument("--kappa", type=float, default=None, help="sectional curvature")
        sp.add_argument("--R", type=float, default=None, help="curvature radius; kappa = -1/R^2")
        sp.add_argument("--alpha", type=float, default=None, help="coupling (sign matters)")

    sp = sub.add_parser("catalog", help="list the verified solution catalog")
    common(sp, "table")
    sp.add_argument("--regime", choices=[r.value for r in Regime])
    sp.add_argument("--dim", type=int)
    sp.add_argument("--alpha-sign", choices=[s.value for s in AlphaSign])
    sp.add_argument("--finite-mass", action="store_true", default=None)
    sp.add_argument("--infinite-mass", dest="finite_mass", action="store_false")

    sp = sub.add_parser("derive", help="run the closed-form ansatz search")
    common(sp, "json")
    sp.add_argument("--family", required=True, choices=[b.value for b in Basis])
    sp.add_argument("--regime", choices=[r.value for r in Regime])
    sp.add_argument("--mode", choices=("homogeneous", "background"), default="homogeneous")
    sp.add_argument("-n", "--n-range", type=_parse_int_range, default=range(-8, 0))
    sp.add_argument("-D", "--dim-range", type=_parse_int_range, default=range(1, 13))
    sp.add_argument("--max-rho-terms", type=int, default=None, help="background mode; default 1")

    sp = sub.add_parser("verify", help="numerically verify a solution")
    common(sp, "json")
    params(sp)
    sp.add_argument("id", nargs="?", help="catalog id")
    sp.add_argument("--hit-file", help="JSON hits from `derive` ('-' for stdin)")
    sp.add_argument("--residual-tol", type=float, default=numeric.RESIDUAL_TOL)
    sp.add_argument("--with-pohozaev", action="store_true")

    sp = sub.add_parser("mass", help="total mass integral of u^2")
    common(sp, "json")
    params(sp)
    sp.add_argument("id")
    sp.add_argument("--rel-tol", type=float, default=numeric.DEFAULT_REL_TOL)
    sp.add_argument("--radial-only", action="store_true", help="omit the sphere-area factor")

    sp = sub.add_parser("pohozaev", help="variational functionals and identities")
    common(sp, "json")
    params(sp)
    sp.add_argument("id")

    sp = sub.add_parser("eval", help="export (r, u, V, rho) profiles")
    common(sp, "csv")
    params(sp)
    sp.add_argument("id")
    sp.add_argument("--r", type=_parse_grid, required=True, metavar="lo:hi:count")
    return p


def _default_params(sol: Solution, kappa: Optional[float], R: Optional[float], alpha: Optional[float]):
    if R is not None:
        if kappa is not None:
            raise ValueError("give either --kappa or --R, not both")
        if not (R > 0):
            raise ValueError("--R must be positive")
        try:
            kappa = -1.0 / R**2
        except (ZeroDivisionError, OverflowError):  # R^2 underflows to 0 or overflows
            kappa = math.nan
        if not (math.isfinite(kappa) and kappa != 0.0):
            raise ValueError(f"--R = {R} is outside the float range: kappa = -1/R^2 must be finite and nonzero")
    if kappa is None:
        kappa = Space.unit_kappa(sol.regime)
    sol.space(kappa)  # validates kappa for the regime
    if alpha is None:
        alpha = sol.default_alpha
    sol.amp_sq_value(kappa, alpha)
    return kappa, alpha


def _print_table(rows: list[dict]) -> None:
    if not rows:
        print("(empty)")
        return
    cols = list(rows[0])
    widths = {c: max(len(c), *(len(_fmt(r[c])) for r in rows)) for c in cols}
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for r in rows:
        print("  ".join(_fmt(r[c]).ljust(widths[c]) for c in cols))


def _print_csv(rows: list[dict]) -> None:
    if not rows:
        return
    cols = list(rows[0])
    print(",".join(cols))
    for r in rows:
        print(",".join(_fmt(r[c]) for c in cols))


def _emit_rows(rows: list[dict], fmt: str, json_payload) -> None:
    if fmt == "json":
        print(_jenc(json_payload))
    elif fmt == "csv":
        _print_csv(rows)
    else:
        _print_table(rows)


def _cmd_catalog(args) -> int:
    sols = catalog_list(
        regime=Regime(args.regime) if args.regime else None,
        dim=args.dim,
        alpha_sign=AlphaSign(args.alpha_sign) if args.alpha_sign else None,
        finite_mass=args.finite_mass,
    )
    rows = [
        {
            "id": s.id,
            "regime": s.regime.value,
            "dim": s.dim,
            "alpha_sign": s.alpha_sign.value if s.alpha_sign else "any",
            "omega": str(s.omega),
            "finite_mass": s.finite_mass,
            "singular": ";".join(s.singular_radii) or "-",
        }
        for s in sols
    ]
    _emit_rows(rows, args.format, [s.to_json_obj() for s in sols])
    return 0


def _cmd_derive(args) -> int:
    family = Basis(args.family)
    regime = next(iter(SPECS[family].regimes)) if args.regime is None else Regime(args.regime)
    if args.mode == "homogeneous":
        if args.max_rho_terms is not None:
            raise ValueError("--max-rho-terms applies to --mode background only")
        hits = solve_homogeneous(family, regime, args.n_range, args.dim_range)
    else:
        cap = 1 if args.max_rho_terms is None else args.max_rho_terms
        hits = solve_background(family, regime, args.n_range, args.dim_range, cap)
    rows = [
        {
            "family": h.family.value,
            "n": h.n,
            "dim": h.dim,
            "mode": h.mode,
            "alpha_sign": h.alpha_sign.value,
            "amp_sq": h.amp_sq_str(),
            "omega": str(h.omega),
            "rho": str(h.rho),
        }
        for h in hits
    ]
    _emit_rows(rows, args.format, [h.to_json_obj() for h in hits])
    return 0


def _read_hits(path: str) -> list[DerivationHit]:
    """Parse a `derive` JSON list; every malformed input is a ValueError."""
    try:
        with nullcontext(sys.stdin) if path == "-" else open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read hit file: {exc}") from None
    if not isinstance(data, list):
        raise ValueError("hit file must hold a JSON list of hits")
    hits = []
    for i, obj in enumerate(data):
        if not isinstance(obj, dict):
            raise ValueError(f"hit {i} is not a JSON object")
        try:
            hits.append(DerivationHit.from_json_obj(obj))
        except KeyError as exc:
            raise ValueError(f"hit {i} lacks the field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"hit {i} is malformed: {exc}") from None
    return hits


def _solutions_for_verify(args) -> list[Solution]:
    if args.hit_file:
        if args.id:
            raise ValueError("give a catalog id or --hit-file, not both")
        hits = _read_hits(args.hit_file)
        return [
            solution_from_hit(h, id=f"hit:{h.family.value}:n{h.n}:D{h.dim}:{h.regime.value}")
            for h in hits
        ]
    if not args.id:
        raise ValueError("give a catalog id or --hit-file")
    return [get_solution(args.id)]


def _cmd_verify(args) -> int:
    sols = _solutions_for_verify(args)
    reports = []
    all_passed = True
    for sol in sols:
        kappa, alpha = _default_params(sol, args.kappa, args.R, args.alpha)
        rep = numeric.verify_solution(
            sol,
            kappa,
            alpha,
            residual_tol=args.residual_tol,
            with_pohozaev=args.with_pohozaev,
        )
        reports.append(rep)
        all_passed = all_passed and rep.passed
    rows = [
        {
            "id": r.solution_id,
            "schrodinger": r.schrodinger_residual_max,
            "poisson": r.poisson_residual_max,
            "mass": r.mass_numeric,
            "passed": r.passed,
        }
        for r in reports
    ]
    payload = [r._asdict() for r in reports]
    _emit_rows(rows, args.format, payload[0] if len(payload) == 1 else payload)
    return 0 if all_passed else 1


def _cmd_mass(args) -> int:
    sol = get_solution(args.id)
    kappa, alpha = _default_params(sol, args.kappa, args.R, args.alpha)
    value = numeric.mass(
        sol, kappa, alpha, rel_tol=args.rel_tol, include_sphere_factor=not args.radial_only
    )
    expected = sol.expected_mass_value(kappa, alpha)
    if args.radial_only and expected is not None:
        expected /= sphere_area(sol.dim)
    divergent = isinstance(value, numeric.Divergent)
    payload = {
        "id": sol.id,
        "kappa": kappa,
        "alpha": alpha,
        "mass": None if divergent else value,
        "divergent": value.where if divergent else None,
        "expected": expected,
    }
    rows = [{k: ("-" if v is None else v) for k, v in payload.items()}]
    _emit_rows(rows, args.format, payload)
    return 0


def _cmd_pohozaev(args) -> int:
    sol = get_solution(args.id)
    kappa, alpha = _default_params(sol, args.kappa, args.R, args.alpha)
    rep = numeric.pohozaev_check(sol, kappa, alpha)
    payload = {"id": sol.id, "kappa": kappa, "alpha": alpha, **rep._asdict()}
    rows = [{"id": sol.id, "T": rep.T, "N": rep.N, "Q": rep.Q, "defect": "-" if rep.defect is None else rep.defect}]
    _emit_rows(rows, args.format, payload)
    return 0


def _cmd_eval(args) -> int:
    sol = get_solution(args.id)
    kappa, alpha = _default_params(sol, args.kappa, args.R, args.alpha)
    rs = args.r
    space = sol.space(kappa)
    # the margins are relative to the length unit, so they hold at every kappa
    margin = 1e-12 * sol.length(kappa)
    if rs[0] < 0:
        raise ValueError(f"grid starts at r = {rs[0]:.6g}, but a geodesic radius is nonnegative")
    if math.isfinite(space.r_max) and rs[-1] > space.r_max + margin:
        raise ValueError(f"grid extends beyond the domain end {space.r_max:.6g}")
    for s in sol.singular_radii_values(kappa):
        if rs[0] - margin <= s <= rs[-1] + margin:
            raise ValueError(f"grid crosses the singular radius r = {s:.6g} of {sol.id}")
    u, v, rho = sol.fields_fn(kappa, alpha, "u", "V", "rho")(rs)
    if sol.rho.is_zero:
        rho = [None] * len(rs)
    columns = ["r", "u", "V", "rho"]
    data = [
        [float(r), float(uu), float(vv), None if p is None else float(p)]
        for r, uu, vv, p in zip(rs, u, v, rho)
    ]
    rows = [{c: "" if x is None else x for c, x in zip(columns, row)} for row in data]
    payload = {"id": sol.id, "kappa": kappa, "alpha": alpha, "columns": columns, "rows": data}
    _emit_rows(rows, args.format, payload)
    return 0


_COMMANDS = {
    "catalog": _cmd_catalog,
    "derive": _cmd_derive,
    "verify": _cmd_verify,
    "mass": _cmd_mass,
    "pohozaev": _cmd_pohozaev,
    "eval": _cmd_eval,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(_preprocess_argv(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:  # console script
    try:
        code = main()
        sys.stdout.flush()  # a closed stdout raises here, not in the exit flush
    except BrokenPipeError:
        # the reader went away: stdout now points at devnull, so the exit
        # flush cannot raise again, and the code is 128 + SIGPIPE, as a shell
        # reports a tool that SIGPIPE killed
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)
