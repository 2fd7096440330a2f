"""Shows that the benchmark's checks catch wrong outputs.

    python3 perfbench/selftest.py

Takes real outputs of `ccsp verify`, `ccsp derive` and `ccsp pohozaev`,
checks that they pass, then perturbs them and checks that each perturbed
output is flagged: a mass off by 1e-6 relative, a divergent mass reported
as finite, a hit whose X has been changed, a derived solution reported as
a miss, and a Q with its sign flipped.  Exits 1 if any check misses.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import reference  # noqa: E402
from ccsp.cli import main as ccsp_main  # noqa: E402
from run import call  # noqa: E402


def cli_json(argv):
    rc, out, _ = call(ccsp_main, argv)
    return rc, json.loads(out)


def run_cases() -> list[str]:
    ref = reference.load()
    results = []

    def expect(name, problems, flagged):
        ok = bool(problems) == flagged
        results.append(f"{'ok  ' if ok else 'FAIL'} {name}: {problems[0] if problems else 'no problem'}")

    # verify: a finite mass and a divergent one
    for cid, kappa, alpha in (("HYP_U1", -2.0, -0.5), ("HYP_U3", -1.0, -1.0)):
        rc, rep = cli_json(["verify", cid, "--kappa", repr(kappa), "--alpha", repr(alpha)])
        entry = ref["catalog"][cid]
        expect(f"verify {cid} as printed", checks.check_verify(entry, json.dumps(rep), rc, kappa, alpha, False)[0], False)
        bad = dict(rep)
        if isinstance(rep["mass_numeric"], float):
            bad["mass_numeric"] = rep["mass_numeric"] * (1 + 1e-6)
            name = f"verify {cid} with the mass off by 1e-6 relative"
        else:
            bad["mass_numeric"] = 1.0
            name = f"verify {cid} with a divergent mass reported finite"
        expect(name, checks.check_verify(entry, json.dumps(bad), rc, kappa, alpha, False)[0], True)

    # derive: the flat-c and curved-s homogeneous hits
    for family, regime in (("flat-c", "flat"), ("curved-s", "spherical")):
        combo = reference.combo_key(family, regime, "homogeneous")
        window = (-8, -1, 1, 8)
        argv = ["derive", "--family", family, "--regime", regime, "-n", "-8..-1", "-D", "1..8"]
        rc, hits = cli_json(argv)
        expect(f"derive {combo} as printed", checks.check_derive(ref, combo, window, json.dumps(hits), rc, [(-3, 5)]), False)
        for hit in hits:
            changed = json.loads(json.dumps(hit))
            changed["x_law"]["coef"] = str(int(hit["x_law"]["coef"]) + 1)
            expect(
                f"50-digit residual of {combo} ({hit['n']}, {hit['dim']}) with X changed",
                reference.hit_residual_problems(family, regime, changed), True,
            )
            expect(
                f"derive {combo} with X of ({hit['n']}, {hit['dim']}) changed",
                checks.check_derive(ref, combo, window, json.dumps([changed if h is hit else h for h in hits]), rc, []),
                True,
            )
            missed = [h for h in hits if h is not hit]
            expect(
                f"derive {combo} with ({hit['n']}, {hit['dim']}) dropped",
                checks.check_derive(ref, combo, window, json.dumps(missed), rc, [(hit["n"], hit["dim"])]), True,
            )

    # pohozaev: FLAT_CSV with Q's sign flipped
    alpha = -0.75
    rc, rep = cli_json(["pohozaev", "FLAT_CSV", "--alpha", repr(alpha)])
    poh = ref["pohozaev"]["FLAT_CSV"]
    expect("pohozaev FLAT_CSV as printed", checks.check_pohozaev(poh, json.dumps(rep), rc, alpha, True)[0], False)
    flipped = dict(rep, Q=-rep["Q"])
    problems, fault = checks.check_pohozaev(poh, json.dumps(flipped), rc, alpha, True)
    expect("pohozaev FLAT_CSV with Q's sign flipped", problems if fault is None else [], True)
    return results


def main() -> int:
    results = run_cases()
    print("\n".join(results))
    return 0 if all(line.startswith("ok") for line in results) else 1


if __name__ == "__main__":
    sys.exit(main())
