import argparse
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest

import ccsp
from ccsp.cli import MAX_GRID_POINTS, _parse_grid, _parse_int_range, main


def run(args, stdin_text=None):
    import sys

    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(args)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


# -- catalog --------------------------------------------------------------


def test_catalog_all():
    code, out, _ = run(["catalog"])
    assert code == 0
    assert "FLAT_CSV" in out and "SPH_TRIVIAL" in out


def test_catalog_hyperbolic_finite_mass():
    code, out, _ = run(["catalog", "--regime", "hyperbolic", "--finite-mass", "--format", "json"])
    assert code == 0
    ids = [s["id"] for s in json.loads(out)]
    assert "HYP_U1" in ids
    assert all(s["mass"] is not None for s in json.loads(out))


def test_catalog_dim_six():
    code, out, _ = run(["catalog", "--dim", "6", "--format", "json"])
    ids = [s["id"] for s in json.loads(out)]
    assert "FLAT_CSV" in ids and "FLAT_SINGULAR_D6" in ids


def test_catalog_unknown_flag_is_usage_error():
    code, _, _ = run(["catalog", "--no-such-filter"])
    assert code == 2


# -- derive ---------------------------------------------------------------


def test_derive_flat_homogeneous():
    code, out, _ = run(
        ["derive", "--family", "flat-c", "--mode", "homogeneous", "-n", "-8..-1", "-D", "1..12"]
    )
    assert code == 0
    hits = json.loads(out)
    assert len(hits) == 1
    assert hits[0]["n"] == -4 and hits[0]["dim"] == 6
    assert hits[0]["amp_sq"] == "A^2 = 576/(-alpha)"


def test_derive_curved_s_two_hits():
    code, out, _ = run(
        ["derive", "--family", "curved-s", "--regime", "hyperbolic", "--mode", "homogeneous",
         "-n", "-8..-1", "-D", "1..12"]
    )
    hits = json.loads(out)
    assert [(h["n"], h["dim"]) for h in hits] == [(-2, 3), (-1, 4)]


def test_derive_background_includes_sech():
    code, out, _ = run(
        ["derive", "--family", "curved-c", "--regime", "hyperbolic", "--mode", "background",
         "-n", "-1..-1", "-D", "1..6"]
    )
    hits = json.loads(out)
    assert (min(h["dim"] for h in hits), max(h["dim"] for h in hits)) == (1, 6)
    d1 = [h for h in hits if h["dim"] == 1][0]
    assert d1["alpha_sign"] == "repulsive"


def test_derive_rejects_a_negative_rho_cap():
    args = ["derive", "--family", "curved-c", "--regime", "hyperbolic", "--mode", "background",
            "-n", "-2..-1", "-D", "1..4"]
    code, out, err = run(args + ["--max-rho-terms=-1"])
    assert code == 2 and out == ""
    assert "max_rho_terms" in err
    code, out, _ = run(args + ["--max-rho-terms=0"])
    assert code == 0 and json.loads(out)


def test_derive_empty_is_success():
    code, out, _ = run(["derive", "--family", "flat-c", "--mode", "homogeneous", "-n", "-1..-1", "-D", "3..3"])
    assert code == 0
    assert json.loads(out) == []


def test_derive_invalid_combination():
    code, _, err = run(["derive", "--family", "flat-c", "--regime", "hyperbolic", "-n", "-4..-4", "-D", "6..6"])
    assert code == 2
    # also when no exponent of the window can hit, so no cell is evaluated
    code, _, err = run(["derive", "--family", "flat-c", "--regime", "hyperbolic", "-n", "-8..-5", "-D", "6..6"])
    assert code == 2
    code, _, err = run(["derive", "--family", "flat-r", "--mode", "background", "-n", "-8..-5", "-D", "6..6"])
    assert code == 2


def test_parser_reused_across_calls_keeps_defaults():
    from ccsp.cli import _build_parser

    assert _build_parser() is _build_parser()
    code, out, _ = run(["derive", "--family", "curved-s", "-n", "-1..-1", "-D", "1..12"])
    assert code == 0
    assert [(h["n"], h["dim"]) for h in json.loads(out)] == [(-1, 4)]
    # the second call gets the default range -8..-1 back
    code, out, _ = run(["derive", "--family", "curved-s", "-D", "1..12"])
    assert code == 0
    assert [(h["n"], h["dim"]) for h in json.loads(out)] == [(-2, 3), (-1, 4)]


# -- verify ---------------------------------------------------------------


def test_verify_catalog_entry():
    code, out, _ = run(["verify", "FLAT_CSV", "--alpha", "-1"])
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert rep["schrodinger_residual_max"] <= 1e-6
    assert rep["poisson_residual_max"] <= 1e-6


def test_verify_hyperbolic_entry():
    code, out, _ = run(["verify", "HYP_U1", "--kappa", "-1", "--alpha", "-1"])
    assert code == 0 and json.loads(out)["passed"]


@pytest.mark.parametrize("argv", [["verify", "HYP_U1", "--kappa", "-4"], ["verify", "SPH_U1", "--kappa", "4"]])
def test_verify_passes_off_unit_curvature(argv):
    # exact solutions at |kappa| = 4: the residuals stay at roundoff
    code, out, _ = run(argv)
    rep = json.loads(out)
    assert code == 0 and rep["passed"]
    assert max(rep["schrodinger_residual_max"], rep["poisson_residual_max"]) <= 1e-12


def test_verify_sign_incompatible_is_domain_error():
    code, _, err = run(["verify", "FLAT_CSV", "--alpha", "+1"])
    assert code == 2
    assert "attractive" in err


def test_verify_unknown_id():
    code, _, _ = run(["verify", "NO_SUCH_ID"])
    assert code == 2


def test_derive_pipe_to_verify():
    # every hit from the default boxes must verify
    _, out, _ = run(
        ["derive", "--family", "curved-s", "--regime", "hyperbolic", "--mode", "homogeneous",
         "-n", "-8..-1", "-D", "1..12"]
    )
    code, out2, err = run(["verify", "--hit-file", "-", "--kappa", "-1"], stdin_text=out)
    assert code == 0, err
    reports = json.loads(out2)
    assert len(reports) == 2 and all(r["passed"] for r in reports)


@pytest.mark.parametrize(
    "derive_args, count",
    [
        (["--family", "flat-c"], 1),
        (["--family", "curved-c", "--regime", "hyperbolic", "--mode", "background"], 23),
    ],
)
def test_derive_pipe_verifies_finite_mass_hits(derive_args, count):
    # finite-mass hits carry their exact Beta mass through the pipe
    _, out, _ = run(["derive", *derive_args])
    code, out2, err = run(["verify", "--hit-file", "-"], stdin_text=out)
    assert code == 0, err
    reports = json.loads(out2)
    reports = reports if isinstance(reports, list) else [reports]
    assert len(reports) == count and all(r["passed"] for r in reports)
    assert any(r["mass_expected"] is not None for r in reports)


@pytest.mark.parametrize("fmt,expected", [("json", "[]\n"), ("csv", ""), ("table", "(empty)\n")])
def test_verify_empty_hit_list(fmt, expected):
    # flat-r has no hit at n = -1: an empty pipe is an empty result, as in derive
    _, hits, _ = run(["derive", "--family", "flat-r", "-n", "-1..-1"])
    assert json.loads(hits) == []
    code, out, err = run(["verify", "--hit-file", "-", "--format", fmt], stdin_text=hits)
    assert (code, out, err) == (0, expected, "")


def test_verify_rows_print_mass_with_12_digits():
    _, hits, _ = run(["derive", "--family", "flat-c"])
    code, out, _ = run(["verify", "--hit-file", "-", "--format", "csv"], stdin_text=hits)
    assert code == 0
    assert out.splitlines()[1].split(",")[3] == "2976.60256131"
    code, out, _ = run(["verify", "HYP_U2", "--format", "table"])
    assert code == 0 and "divergent:small-r" in out


def test_derive_range_is_lazy():
    assert isinstance(_parse_int_range("-1000000..1000000"), range)
    run(["derive", "--family", "flat-c"])  # build the cached parser first
    tracemalloc.start()
    try:
        code, _, err = run(["derive", "--family", "flat-c", "-n", "-1000000..1000000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and "wider than 64" in err
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "args",
    [
        ["catalog", "--kappa", "5"],
        ["catalog", "--rel-tol", "3"],
        ["derive", "--family", "flat-c", "--kappa", "-1"],
        ["derive", "--family", "flat-c", "--alpha", "1"],
        ["derive", "--family", "flat-c", "--R", "2"],
        ["verify", "FLAT_CSV", "--rel-tol", "1e-3"],
        ["pohozaev", "FLAT_CSV", "--rel-tol", "1e-3"],
        ["eval", "FLAT_CSV", "--r", "0:1:3", "--rel-tol", "1e-3"],
        ["derive", "--family", "flat-c", "--max-rho-terms", "7"],
        ["verify", "NO_SUCH_ID", "--hit-file", "-"],
        ["verify", "FLAT_CSV", "--grid-points", "500"],
        ["verify", "FLAT_CSV", "--h", "1e-3"],
    ],
)
def test_unread_flags_are_rejected(args):
    assert run(args)[0] == 2


def _edited_hit(edit, mode="homogeneous"):
    _, out, _ = run(["derive", "--family", "flat-c", "--mode", mode])
    hit = json.loads(out)[0]
    edit(hit)
    return json.dumps([hit])


def _rho_term(edit):
    # an edit of the background hit's one rho term, base^-6
    def apply(hit):
        edit(hit["rho"]["terms"][0])

    return apply


# an edited derive hit: (edit, derive mode, expected text on stderr).
# Integer fields must hold JSON integers, which int() used to truncate
_BAD_HITS = {
    "MISSING_FIELD": (lambda hit: hit.pop("n"), "homogeneous", "lacks the field 'n'"),
    "WRONG_LAW": (lambda hit: hit["x_law"].update(coef="-1"), "homogeneous", "re-substitution defect"),
    "FLOAT_N_DIM": (lambda hit: hit.update(n=-4.5, dim=6.9), "homogeneous", "malformed"),
    "INTEGRAL_FLOAT_DIM": (lambda hit: hit.update(dim=6.0), "homogeneous", "malformed"),
    "BOOL_N": (lambda hit: hit.update(n=True), "homogeneous", "malformed"),
    "STRING_DIM": (lambda hit: hit.update(dim="6"), "homogeneous", "malformed"),
    "FLOAT_KAPPA_POW": (lambda hit: hit["x_law"].update(kappa_pow=0.5), "homogeneous", "malformed"),
    "FLOAT_RHO_BASE": (_rho_term(lambda t: t.update(base=-6.5)), "background", "malformed"),
    "FLOAT_RHO_POWERS": (_rho_term(lambda t: t.update(odd=0.5, kappa=0.5, amp=0.5)), "background", "malformed"),
    "FLOAT_RHO_ALPHA": (_rho_term(lambda t: t.update(alpha=-1.5)), "background", "malformed"),
    # a zero denominator is malformed input, not a failed verification (exit 1)
    "ZERO_DENOM_X_LAW": (lambda hit: hit["x_law"].update(coef="1/0"), "homogeneous", "malformed"),
    "ZERO_DENOM_OMEGA": (lambda hit: hit["omega"].update(coef="1/0"), "homogeneous", "malformed"),
    "ZERO_DENOM_RHO": (_rho_term(lambda t: t.update(coeff="1/0")), "background", "malformed"),
    "UNKNOWN_MODE": (lambda hit: hit.update(mode="bogus"), "homogeneous", "malformed"),
    "NOTES_NOT_A_STRING": (lambda hit: hit.update(notes=3), "homogeneous", "malformed"),
    # a rational field must be a string: a float would be read as a binary
    # fraction the file never wrote (-576.0 used to verify and pass)
    "FLOAT_X_LAW_COEF": (lambda hit: hit["x_law"].update(coef=-576.0), "homogeneous", "malformed"),
    "INT_X_LAW_COEF": (lambda hit: hit["x_law"].update(coef=-576), "homogeneous", "malformed"),
    "BOOL_OMEGA_COEF": (lambda hit: hit["omega"].update(coef=True), "homogeneous", "malformed"),
    "FLOAT_RHO_COEFF": (_rho_term(lambda t: t.update(coeff=256.0)), "background", "malformed"),
    "ZERO_DIM": (lambda hit: hit.update(dim=0), "homogeneous", "dimension must be >= 1, got 0"),
    # the search never writes a homogeneous hit with a source: it used to verify and pass
    "HOMOGENEOUS_WITH_RHO": (lambda hit: hit.update(mode="homogeneous"), "background", "malformed"),
}


@pytest.mark.parametrize(
    "path, stdin_text",
    [
        ("missing.json", None),     # no such file
        (".", None),                # a directory: open() fails
        ("-", '{"a": 1}'),          # not a list
        ("-", "[1]"),               # an element that is not an object
        *(("-", name) for name in _BAD_HITS),
    ],
    ids=["missing-file", "unreadable", "not-a-list", "not-an-object", *(n.lower().replace("_", "-") for n in _BAD_HITS)],
)
def test_verify_bad_hit_file_is_a_one_line_error(path, stdin_text, tmp_path):
    if path != "-":
        path = str(tmp_path / path)
    expected = "error: "
    if stdin_text in _BAD_HITS:
        edit, mode, expected = _BAD_HITS[stdin_text]
        stdin_text = _edited_hit(edit, mode)
    code, out, err = run(["verify", "--hit-file", path], stdin_text=stdin_text)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert expected in err, err


_DEFAULT_DERIVES = [
    ("flat-c", "flat", "homogeneous"),
    ("flat-c", "flat", "background"),
    ("flat-r", "flat", "homogeneous"),
    *(
        (family, regime, mode)
        for family in ("curved-c", "curved-s")
        for regime in ("hyperbolic", "spherical")
        for mode in ("homogeneous", "background")
    ),
]


def _sign_in_regime(x_law, regime):
    # X = coef * (-kappa)^k at unit curvature, evaluated without the package
    neg_kappa = {"flat": 0, "hyperbolic": 1, "spherical": -1}[regime]
    x = F(x_law["coef"]) * F(neg_kappa) ** x_law["kappa_pow"]
    return "repulsive" if x > 0 else "attractive"


def test_derive_verify_pipe_past_the_sphere_area_overflow():
    # Gamma(D/2) overflows from D = 344; the pipe used to end in an
    # OverflowError traceback with exit 1, the code of a failed verification
    derive = ["derive", "--family", "curved-c", "--regime", "hyperbolic", "--mode", "background"]
    code, hits, _ = run([*derive, "-D", "340..349"])
    assert code == 0 and {h["dim"] for h in json.loads(hits)} >= {343, 344, 349}
    code, out, err = run(["verify", "--hit-file", "-"], stdin_text=hits)
    assert code == 0 and err == "", err
    assert len(json.loads(out)) == len(json.loads(hits))
    code, hits, _ = run(["derive", "--family", "flat-r", "-D", "1000..1001"])
    assert code == 0 and len(json.loads(hits)) == 2
    assert run(["verify", "--hit-file", "-"], stdin_text=hits)[0] == 0


# the eleven default-grid derive queries, as family, regime, mode
_DEFAULT_QUERIES = [
    ("flat-c", "flat", "homogeneous"), ("flat-c", "flat", "background"), ("flat-r", "flat", "homogeneous"),
    ("curved-c", "hyperbolic", "homogeneous"), ("curved-c", "hyperbolic", "background"),
    ("curved-c", "spherical", "homogeneous"), ("curved-c", "spherical", "background"),
    ("curved-s", "hyperbolic", "homogeneous"), ("curved-s", "hyperbolic", "background"),
    ("curved-s", "spherical", "homogeneous"), ("curved-s", "spherical", "background"),
]


def test_a_hit_whose_omega_is_not_its_cells_frequency_exits_2():
    # omega + 1, with V = (Lap u/u + omega)/alpha shifted along, still solves
    # both equations (a gauge), but it is not the frequency derive defines
    hits = []
    for family, regime, mode in _DEFAULT_QUERIES:
        code, out, _ = run(["derive", "--family", family, "--regime", regime, "--mode", mode])
        assert code == 0
        hits += json.loads(out)
    assert len(hits) == 45
    for hit in hits:
        hit["omega"]["coef"] = str(F(hit["omega"]["coef"]) + 1)
        code, out, err = run(["verify", "--hit-file", "-"], stdin_text=json.dumps([hit]))
        assert code == 2 and out == "", (hit, code)
        assert err.count("\n") == 1 and "omega" in err and "is not the frequency" in err, err
    # a background cell with two source monomials passes unshifted
    code, hits, _ = run(["derive", "--family", "flat-c", "--mode", "background", "-n", "-4..-4", "-D", "7..7",
                         "--max-rho-terms", "2"])
    assert code == 0 and len(json.loads(hits)) == 1
    assert run(["verify", "--hit-file", "-"], stdin_text=hits)[0] == 0


def test_json_writes_a_non_finite_float_as_its_string():
    # the residuals leave the doubles; JSON (RFC 8259) has no Infinity or NaN
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    code, out, err = run(["verify", "HYP_U2", "--kappa=-1e+155", "--alpha=-1e+20"])
    assert code == 1 and err == ""
    report = json.loads(out, parse_constant=reject)
    assert report["schrodinger_residual_max"] == "inf" and report["poisson_residual_max"] == "inf"
    assert not report["passed"]


def test_json_sign_and_convention_follow_the_amplitude_law_and_regime():
    _, out, _ = run(["catalog", "--format", "json"])
    records = [(s["amp_law"], s) for s in json.loads(out)]
    for family, regime, mode in _DEFAULT_DERIVES:
        code, out, _ = run(["derive", "--family", family, "--regime", regime, "--mode", mode])
        assert code == 0
        records += [(h["x_law"], h) for h in json.loads(out)]
    assert len(records) > 23
    assert any(law is None for law, _ in records)
    for law, obj in records:
        want = "any" if law is None else _sign_in_regime(law, obj["regime"])
        assert obj["alpha_sign"] == want, obj
        assert obj["omega"]["conventional"] == (obj["regime"] == "spherical"), obj


def test_mass_reads_rel_tol():
    code, out, _ = run(["mass", "HYP_U1", "--rel-tol", "1e-8"])
    assert code == 0 and json.loads(out)["mass"] is not None


# -- mass / pohozaev ---------------------------------------------------------


def test_mass_value():
    code, out, _ = run(["mass", "HYP_U1", "--kappa", "-1", "--alpha", "-1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["mass"] == pytest.approx(48 * math.pi, rel=1e-9)
    assert payload["divergent"] is None


def test_mass_divergent_is_success():
    code, out, _ = run(["mass", "HYP_U2", "--kappa", "-1", "--alpha", "-1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["mass"] is None and payload["divergent"] == "small-r"


def test_mass_radial_only():
    code, out, _ = run(["mass", "SPH_U3", "--kappa", "1", "--alpha", "1", "--radial-only"])
    payload = json.loads(out)
    assert payload["mass"] == pytest.approx(4.0, rel=1e-9)


def test_mass_r_flag_sets_curvature():
    code, out, _ = run(["mass", "BG_1D_SECH", "--R", "1", "--alpha", "1"])
    payload = json.loads(out)
    assert payload["kappa"] == -1.0
    assert payload["mass"] == pytest.approx(16.0, rel=1e-8)


@pytest.mark.parametrize(
    "argv, mass, divergent",
    [
        # kappa = -100: the weight S^2 and the profile vary on 1/10, not on 1
        (["mass", "HYP_U1", "--kappa=-100", "--alpha", "-1"], 48.0 * math.pi * 10.0, None),
        # R = 0.01 is kappa = -1e4, and the mass 16 lambda^3 = 1.6e7
        (["mass", "BG_1D_SECH", "--R", "0.01", "--alpha", "1"], 1.6e7, None),
        # divergent at r = 0, however small the prefactor 1/|alpha|
        (["mass", "FLAT_SINGULAR_D3", "--alpha=-1e15"], None, "small-r"),
    ],
    ids=["HYP_U1-kappa-100", "BG_1D_SECH-R0.01", "FLAT_SINGULAR_D3-alpha-1e15"],
)
def test_mass_off_unit_scales(argv, mass, divergent):
    code, out, _ = run(argv)
    payload = json.loads(out)
    assert code == 0 and payload["divergent"] == divergent
    assert payload["mass"] == (None if mass is None else pytest.approx(mass, rel=1e-10))


@pytest.mark.parametrize(
    "argv",
    [
        # finite mass 48 pi^2 / |alpha|, where the tail's S^3 overflows past
        # r ~ 141 after u^2 has underflowed to 0
        ["verify", "BG_HYP_N2_D4", "--kappa=-2.8284271247461903", "--alpha", "-1"],
        ["verify", "FLAT_CSV", "--alpha=-1e15"],
        ["verify", "FLAT_CSV", "--alpha=-1e6", "--with-pohozaev"],
        # R = 0.01 is kappa = -1e4: the grid ends at r = 9.9 R, where
        # cosh(r / R) is finite, not at r = 9.9
        ["verify", "HYP_U1", "--R", "0.01"],
    ],
    ids=["BG_HYP_N2_D4-kappa-2^1.5", "FLAT_CSV-alpha-1e15", "FLAT_CSV-alpha-1e6-pohozaev", "HYP_U1-R0.01"],
)
def test_verify_passes_at_extreme_parameters(argv):
    code, out, _ = run(argv)
    assert code == 0 and json.loads(out)["passed"] is True


def test_subnormal_alpha_is_rejected_in_one_line():
    # at |alpha| = 5e-324, A^2 = X/alpha overflows: every entry with an
    # amplitude law exits 2 with one line (verify and eval died with an
    # OverflowError traceback, and mass printed "integrand not finite")
    from ccsp.catalog import CATALOG
    from ccsp.derivation import AlphaSign

    rejected = 0
    for sol in CATALOG:
        alpha = "--alpha=-5e-324" if sol.alpha_sign is AlphaSign.ATTRACTIVE else "--alpha=5e-324"
        commands = [["verify", sol.id], ["mass", sol.id], ["eval", sol.id, "--r", "0.5:0.6:2"]]
        if sol.x_law is None:
            # amplitude-free: A^2 = 1 whatever alpha is
            assert all(run(argv + [alpha])[0] == 0 for argv in commands), sol.id
            continue
        for argv in commands + [["pohozaev", sol.id]]:
            code, out, err = run(argv + [alpha])
            assert (code, out) == (2, ""), (argv, err)
            assert err == f"error: alpha = {alpha[8:]} gives A^2 = inf, which is not finite\n", (argv, err)
            rejected += 1
    assert rejected == 22 * 4


def _curved_commands(sol, size):
    from ccsp.geometry import Space

    kappa = f"--kappa={size * Space.unit_kappa(sol.regime)!r}"
    grid = f"{0.3 / size**0.5!r}:{0.4 / size**0.5!r}:2"
    return [["verify", sol.id, kappa], ["mass", sol.id, kappa], ["eval", sol.id, "--r", grid, kappa]]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extreme_curvature_exits_in_one_line():
    # at |kappa| = 1e200, X = alpha A^2 of the twelve entries whose X holds
    # (-kappa)^2 overflows (verify, mass and eval died with an OverflowError
    # traceback from Graded.evaluate); every command of every curved entry
    # exits 0, or 2 with one line, and no float warning escapes
    from ccsp.catalog import CATALOG
    from ccsp.geometry import Regime

    rejected = set()
    for sol in CATALOG:
        if sol.regime is Regime.FLAT:
            continue
        for argv in _curved_commands(sol, 1e200):
            code, out, err = run(argv)
            assert code in (0, 2), (argv, err)
            if code == 2:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            if "gives A^2" in err:
                assert err.endswith("= inf, which is not finite\n"), (argv, err)
                rejected.add(sol.id)
    assert len(rejected) == 12


@pytest.mark.parametrize("R", ["1e-200", "1e-160", "1e200", "inf"])
def test_r_outside_the_float_range_is_named(R):
    # R^2 underflows to 0 (1e-200), -1/R^2 overflows (1e-160), R^2 overflows
    # (1e200) or -1/R^2 is -0 (inf): each is one line that names --R, not a
    # traceback or a message about kappa
    for command in ("verify", "mass"):
        code, out, err = run([command, "HYP_U1", f"--R={R}"])
        assert code == 2 and out == "" and err.count("\n") == 1, err
        assert err.startswith("error: --R = "), err


def test_underflowing_amplitude_is_named():
    # at |kappa| = 1e-200 the same twelve X underflow to 0: the message
    # names the underflow, where it said the (right) sign was wrong
    from ccsp.catalog import CATALOG

    named = 0
    for sol in CATALOG:
        if sol.x_law is None or sol.x_law.kappa != 2:
            continue
        for argv in _curved_commands(sol, 1e-200):
            code, out, err = run(argv)
            kappa = argv[-1][len("--kappa="):]
            assert (code, out) == (2, ""), (argv, err)
            assert err == f"error: kappa = {kappa} gives {sol.amp_sq_str()} = 0.0, which underflows to 0\n", argv
            named += 1
    assert named == 12 * 3
    code, _, err = run(["verify", "HYP_U1", "--kappa=-1e-200"])
    assert err == "error: kappa = -1e-200 gives A^2 = 36*(-kappa)^2/(-alpha) = 0.0, which underflows to 0\n"
    # an A^2 that underflows for a tiny X over a huge |alpha| names alpha
    code, _, err = run(["mass", "HYP_U1", "--kappa=-1e-150", "--alpha=-1e300"])
    assert (code, err) == (2, "error: alpha = -1e+300 gives A^2 = 0.0, which underflows to 0\n")
    # and a wrong sign is still named as one
    code, _, err = run(["mass", "HYP_U1", "--alpha=1"])
    assert (code, err) == (2, "error: alpha = 1.0 gives A^2 = -36.0 <= 0; this solution requires the attractive sign\n")


def test_pohozaev_defect():
    code, out, _ = run(["pohozaev", "FLAT_CSV", "--alpha", "-1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["defect"] <= 1e-6
    assert payload["T"] == pytest.approx(payload["Q"], rel=1e-6)


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["mass", "HYP_U1"], "--kappa", "-4e-2"),
        (["pohozaev", "FLAT_CSV"], "--alpha", "-1e4"),
    ],
)
def test_negative_exponent_value_after_flag(argv, flag, value):
    spaced = run(argv + [flag, value])
    glued = run(argv + [f"{flag}={value}"])
    assert spaced[0] == glued[0] == 0
    assert spaced[1] == glued[1]


def test_pohozaev_divergent_functionals_print_their_tag():
    code, out, _ = run(["pohozaev", "FLAT_SINGULAR_D6"])
    assert code == 0 and '"defect": "divergent:functionals"' in out.splitlines()[-2]
    payload = json.loads(out)
    assert (payload["T"], payload["N"], payload["Q"]) == ("divergent:small-r", "divergent:large-r", "divergent:small-r")
    assert payload["identities"] is None


@pytest.mark.parametrize("argv", [
    ["pohozaev", "FLAT_CSV", "--alpha=-1e200"],
    ["pohozaev", "BG_FLAT_N3_D4", "--alpha=1e200"],
    ["verify", "FLAT_CSV", "--alpha=-1e200", "--with-pohozaev"],
])
def test_q_below_the_normal_doubles_exits_in_one_line(argv):
    # Q underflowed to 0.0: pohozaev printed it (with the defect 4.0 for
    # FLAT_CSV's exact solution) and verify failed the solution
    code, out, err = run(argv)
    assert (code, out) == (2, ""), err
    assert err == f"error: Q = 0.0 is below the normal doubles at alpha = {float(argv[2][8:])!r}\n"


@pytest.mark.parametrize("command", ["mass", "verify"])
def test_a_mass_below_the_normal_doubles_exits_in_one_line(command):
    # the 3-sphere's volume 2 pi^2 kappa^(-3/2) underflowed to 0.0 at
    # kappa = 1e300: mass printed 0 against 0, and verify skipped its mass
    # comparison and passed
    code, out, err = run([command, "SPH_TRIVIAL", "--kappa=1e300"])
    assert (code, out) == (2, ""), err
    assert err == "error: mass = 0.0 is below the normal doubles at kappa = 1e+300, alpha = -1.0\n"


@pytest.mark.parametrize("argv", [
    ["mass", "BG_HYP_N2_D5", "--kappa=-1e-125", "--alpha=-1e-244"],
    ["verify", "BG_HYP_N2_D5", "--kappa=-1e-125", "--alpha=-1e-244"],
    ["pohozaev", "FLAT_CSV", "--alpha=-3.162277660168379e-153"],
    ["pohozaev", "FLAT_SINGULAR_D6", "--alpha=-1e-152"],
    ["mass", "SPH_TRIVIAL", "--kappa=1e-205"],
])
def test_a_result_past_the_floats_exits_in_one_line(argv):
    # mass and pohozaev printed inf as an answer and exited 0 (verify failed
    # an exact solution), and SPH_TRIVIAL's message blamed a scale it does not have
    code, out, err = run(argv)
    assert (code, out) == (2, ""), err
    assert err.startswith("error: ") and err.count("\n") == 1 and " is past the floats at " in err, err
    for arg in argv[2:]:
        name, value = arg[2:].split("=")
        assert f"{name} = {float(value)!r}" in err, err


@pytest.mark.parametrize("argv, err", [
    (["verify", "HYP_U3", "--kappa=-1e200"], "HYP_U3 at kappa = -1e+200, alpha = -1.0: integrand not finite at r = 1.0"),
    (["mass", "HYP_U2", "--kappa=-1e160"], "HYP_U2 at kappa = -1e+160, alpha = -1.0: integrand not finite at r = 1.0"),
    (["mass", "HYP_U3", "--kappa=-1e-200"], "HYP_U3 at kappa = -1e-200, alpha = -1.0: no convergence after 8 levels "
                                            "of the double-exponential rule on (0.0, inf)"),
    (["pohozaev", "FLAT_CSV", "--alpha=-1e160"], "FLAT_CSV at kappa = 0.0, alpha = -1e+160: no convergence after 8 "
                                                 "levels of the double-exponential rule on (0.0, inf)"),
])
def test_a_quadrature_error_names_the_entry_kappa_and_alpha(argv, err):
    # the rule's own message named neither the entry nor the point
    code, out, got = run(argv)
    assert (code, out, got) == (2, "", f"error: {err}\n")


def test_verify_with_pohozaev():
    code, out, _ = run(["verify", "FLAT_CSV", "--with-pohozaev"])
    assert code == 0 and json.loads(out)["pohozaev_defect"] <= 1e-6
    # background entries are not held to the homogeneous identities
    code, out, _ = run(["verify", "BG_FLAT_N3_D4", "--with-pohozaev"])
    assert code == 0
    assert json.loads(out)["pohozaev_defect"] is None


def test_verify_fails_by_the_pohozaev_bound_it_prints(monkeypatch):
    # the bound joins the printed tolerances whenever the check ran: FLAT_CSV's
    # defect (about 5e-15) passes the default bound and fails one of 1e-16
    from ccsp import numeric

    monkeypatch.setattr(numeric, "POHOZAEV_TOL", 1e-16)
    code, out, _ = run(["verify", "FLAT_CSV", "--with-pohozaev"])
    rep = json.loads(out)
    assert (code, rep["passed"]) == (1, False) and rep["pohozaev_defect"] > 1e-16
    assert rep["tolerances"] == {"residual": numeric.RESIDUAL_TOL, "mass_rel": numeric.MASS_REL_TOL, "pohozaev": 1e-16}
    code, out, _ = run(["verify", "FLAT_CSV"])
    assert code == 0 and "pohozaev" not in json.loads(out)["tolerances"]


# -- eval ----------------------------------------------------------------------


def test_eval_profile():
    code, out, _ = run(["eval", "FLAT_CSV", "--alpha", "-1", "--r", "0:10:101"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,u,V,rho"
    assert len(lines) == 102
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(24.0)


def test_eval_curved_center_amplitude():
    code, out, _ = run(["eval", "HYP_U1", "--kappa", "-1", "--alpha", "-1", "--r", "0:5:51"])
    first = out.strip().splitlines()[1].split(",")
    assert float(first[1]) == pytest.approx(6.0)


def test_eval_grid_crossing_pole_is_rejected():
    code, _, err = run(["eval", "SPH_U1", "--kappa", "1", "--alpha", "-1", "--r", "0:3.14159:100"])
    assert code == 2
    assert "singular" in err and "1.5708" in err


def test_eval_pole_margin_scales_with_the_length():
    # at kappa = 1e20 the length unit is 1e-10, so an absolute margin of
    # 1e-12 would be 1% of it: this grid ends 8e-13 short of SPH_U1's
    # equator and does not cross it
    code, out, err = run(["eval", "SPH_U1", "--kappa=1e20", "--r", "1.5e-10:1.57e-10:2"])
    assert code == 0 and err == "" and len(out.strip().splitlines()) == 3


def test_eval_domain_margin_scales_with_the_length():
    # and this one ends 5e-13 past the antipode r_max = pi 1e-10
    code, out, err = run(["eval", "SPH_TRIVIAL", "--kappa=1e20", "--r", "3.0e-10:3.1466e-10:2"])
    assert code == 2 and out == "" and "beyond the domain end" in err


@pytest.mark.parametrize("argv", [
    ["eval", "FLAT_CSV", "--r", "-1:1:3", "--format", "csv"],
    ["eval", "HYP_U1", "--r", "-2:0:3"],
])
def test_eval_rejects_negative_radii(argv):
    # r is a geodesic radius: a grid starting below 0 is a usage error
    code, out, err = run(argv)
    assert code == 2 and out == "" and "nonnegative" in err


def test_eval_grid_count_is_capped():
    # eval holds every row in memory, so the point count has a named cap
    assert MAX_GRID_POINTS == 100_000
    assert len(_parse_grid("0:1:100000")) == 100_000
    with pytest.raises(argparse.ArgumentTypeError, match="exceeds 100000"):
        _parse_grid("0:1:100001")
    code, out, err = run(["eval", "FLAT_CSV", "--alpha", "-1", "--r", "0:1:100000000"])
    assert code == 2 and out == "" and "exceeds" in err


def test_eval_json_round_trip():
    code, out, _ = run(["eval", "FLAT_CSV", "--alpha", "-1", "--r", "1:2:3", "--format", "json"])
    payload = json.loads(out)
    assert payload["columns"] == ["r", "u", "V", "rho"]
    assert len(payload["rows"]) == 3


# -- output stability -------------------------------------------------------------


def test_json_outputs_reserialize_identically():
    for args in (
        ["catalog", "--format", "json"],
        ["derive", "--family", "flat-c", "-n", "-8..-1", "-D", "1..12"],
        ["mass", "HYP_U1", "--kappa", "-1", "--alpha", "-1"],
    ):
        _, out, _ = run(args)
        parsed = json.loads(out)
        _, out2, _ = run(args)
        assert out == out2
        assert json.loads(out2) == parsed


# -- the README's CLI block ------------------------------------------------------


def _readme_cli_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.strip()]


README_VALUES = {
    "48π": lambda got: got["mass"] == pytest.approx(48.0 * math.pi, rel=1e-10),
    "divergent:small-r": lambda got: got["mass"] is None and got["divergent"] == "small-r",
    "16": lambda got: got["mass"] == pytest.approx(16.0, rel=1e-9),
}


def test_readme_cli_block_runs_as_documented():
    checked = set()
    for line in _readme_cli_lines():
        command, _, note = line.partition("#")
        stdin_text = None
        for stage in command.split("|"):
            argv = shlex.split(stage)
            assert argv[0] == "ccsp", line
            code, out, err = run(argv[1:], stdin_text)
            assert code == 0, (line, err)
            stdin_text = out
        value = note.split()[0] if note.strip() else None
        if value in README_VALUES:
            assert README_VALUES[value](json.loads(out)), (line, out)
            checked.add(value)
    assert checked == set(README_VALUES)


# -- python -m ccsp ---------------------------------------------------------------


def test_python_dash_m_runs_the_cli():
    src = str(Path(ccsp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "ccsp", "catalog", "--format", "csv"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run(["catalog", "--format", "csv"])[1]


def test_closed_stdout_exits_141_without_a_traceback():
    # the pipe's reader is gone before the CLI writes: no BrokenPipeError
    # traceback, and 128 + SIGPIPE, the code a shell reports for a tool that
    # SIGPIPE killed
    src = str(Path(ccsp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ccsp", "derive", "--family", "flat-r", "-D", "1..64"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 141


# -- tolerances and grids that no verdict can be right for -------------------------


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_mass_rejects_a_rel_tol_that_is_not_finite_and_positive(value):
    code, out, err = run(["mass", "FLAT_CSV", f"--rel-tol={value}"])
    assert code == 2 and out == ""
    assert "relative tolerance" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_verify_rejects_a_residual_tol_that_is_not_finite_and_nonnegative(value):
    code, out, err = run(["verify", "FLAT_CSV", f"--residual-tol={value}"])
    assert code == 2 and out == ""
    assert "residual tolerance" in err


@pytest.mark.parametrize("grid", ["0:1e400:3", "-1e400:1:3", "0:inf:3"])
def test_eval_grid_bounds_must_be_finite(grid):
    code, out, _ = run(["eval", "FLAT_CSV", "--r", grid])
    assert code == 2 and out == ""


# -- parameter errors: one line each, exit 2 ----------------------------------------


@pytest.mark.parametrize("argv, message", [
    (["mass", "HYP_U1", "--kappa=-1", "--R=1"], "give either --kappa or --R, not both"),
    (["mass", "HYP_U1", "--R=0"], "--R must be positive"),
    (["verify"], "give a catalog id or --hit-file"),
    (["verify", "FLAT_CSV", "--alpha=0"], "alpha must be finite and nonzero"),
    (["verify", "FLAT_CSV", "--alpha=nan"], "alpha must be finite and nonzero"),
    (["mass", "HYP_U1", "--kappa=inf"], "kappa must be finite"),
    (["mass", "HYP_U1", "--kappa=nan"], "kappa must be finite"),
])
def test_a_bad_parameter_is_a_one_line_error(argv, message):
    code, out, err = run(argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, flag, message", [
    (["derive", "--family", "flat-c", "-n", "5"], "-n/--n-range", "expected a..b, got '5'"),
    (["derive", "--family", "flat-c", "-n", "3..1"], "-n/--n-range", "empty range '3..1'"),
    (["eval", "FLAT_CSV", "--r", "0:1"], "--r", "expected lo:hi:count, got '0:1'"),
])
def test_a_malformed_range_names_its_flag(argv, flag, message):
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == f"ccsp {argv[0]}: error: argument {flag}: {message}", err
