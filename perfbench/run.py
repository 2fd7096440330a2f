"""End-to-end and per-layer benchmark of ccsp.

    python3 perfbench/run.py --workload derive|verify|pohozaev --seed N \
        --seconds S --trace 0|1

Runs from the root of a ccsp source tree and imports the package from
src/.  Every operation is one in-process call of `ccsp.cli.main` with the
CLI arguments that the seed generates; stdout is captured and checked
against perfbench/reference.json (see reference.py and checks.py).

A run is a fixed sequence of whole rounds.  Each workload's round is one
seeded, balanced pass over its inputs (see README.md); `--seconds` sets
the number of rounds from the round's nominal length on the reference
machine, so two commits given the same seed and seconds do the same work.
With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` the layers are wrapped (tracing.py) and it carries the per-layer
metrics instead.  Results and traces are also written to .perfbench/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_STARTS = 15

# A run makes round(--seconds / ROUND_SECONDS) rounds.  For derive and
# verify this is about one round's length on the reference machine; a
# pohozaev round lasts about 8 s, so its runs last about twice --seconds:
# its few long calls need the extra samples.
ROUND_SECONDS = {"derive": 1.4, "verify": 8.0, "pohozaev": 4.8}

# -- derive: 8x8 tiles of n in [-64, 63] and D in [1, 64] -------------------

TILE = 8
N_QUARTERS = 4
MAX_DERIVE_ROUNDS = (128 // TILE // N_QUARTERS) * (64 // TILE)

# -- verify: a lattice |kappa| = 2^(k/2), |alpha| = 2^(j/2) -----------------

K_LATTICE = tuple(range(-4, 5))
J_LATTICE = tuple(range(-2, 3))
HITS_PER_PASS = 5

# Lattice points where `verify` reports passed = false because of the
# finite-difference residual (fault "fd-residual"), from a scan of the
# whole lattice; k is None for flat entries.  Seeded draws avoid them, so
# the failed share of a run does not depend on the seed; the point listed
# in FD_FAULT_OPS for each entry runs in every cycle instead.
FD_FAULT_POINTS = {
    "BG_FLAT_N3_D5": [(None, -2), (None, -1)],
    "HYP_U1": [(4, -2), (4, -1), (4, 0)],
    "BG_HYP_N2_D4": [(3, -2), (3, -1), (3, 0), (3, 1), (4, -2), (4, -1), (4, 0), (4, 1), (4, 2)],
    "BG_HYP_N2_D5": [(3, -2), (3, -1), (4, -2), (4, -1), (4, 0), (4, 1), (4, 2)],
    "BG_HYP_N2_D6": [(3, j) for j in J_LATTICE] + [(4, j) for j in J_LATTICE],
    "BG_HYP_N1_D4": [(4, -2), (4, -1), (4, 0), (4, 1)],
    "BG_HYP_N1_D5": [(4, -2), (4, -1), (4, 0), (4, 1)],
    "BG_HYP_N1_D6": [(4, -2), (4, -1), (4, 0), (4, 1)],
    "SPH_U1": [(k, j) for k in (1, 2, 3, 4) for j in J_LATTICE],
}
FD_FAULT_OPS = {cid: (None, -2) if cid == "BG_FLAT_N3_D5" else (4, 0) for cid in FD_FAULT_POINTS}

# -- pohozaev ------------------------------------------------------------------

POHOZAEV_SEEDED = "FLAT_CSV"
# Background entries whose Q is wrong today (fault "poisson-invert") run
# at their default coupling, so the failed share does not depend on the seed.
POHOZAEV_FIXED = {"BG_FLAT_N3_D4": 1.0, "BG_FLAT_N3_D5": 1.0, "BG_FLAT_N4_D4": -1.0}


class Op:
    """One CLI call: its arguments, stdin, item count and output check."""

    __slots__ = ("argv", "stdin", "items", "check")

    def __init__(self, argv, items, check, stdin=None):
        self.argv, self.items, self.check, self.stdin = argv, items, check, stdin


def default_kappa(regime: str) -> float:
    return {"flat": 0.0, "hyperbolic": -1.0, "spherical": 1.0}[regime]


def lattice(k, j, regime: str, sign: int) -> tuple[float, float]:
    kappa = 0.0 if k is None else math.copysign(2.0 ** (k / 2.0), default_kappa(regime))
    return kappa, sign * 2.0 ** (j / 2.0)


# -- workloads -------------------------------------------------------------------


def derive_rounds(rng: random.Random, rounds: int, ref: dict) -> list[list[Op]]:
    """Per round, one 8x8 window per n-quarter and combination; windows are
    drawn without replacement, so no cell is searched twice in a run."""
    import checks
    import reference

    n_tiles = [(a, a + TILE - 1) for a in range(reference.N_RANGE[0], reference.N_RANGE[1] + 1, TILE)]
    d_tiles = [(d, d + TILE - 1) for d in range(reference.D_RANGE[0], reference.D_RANGE[1] + 1, TILE)]
    per_quarter = len(n_tiles) // N_QUARTERS
    draws = {}
    for family, regime, mode in reference.COMBOS:
        for q in range(N_QUARTERS):
            tiles = [(n, d) for n in n_tiles[q * per_quarter:(q + 1) * per_quarter] for d in d_tiles]
            draws[(family, regime, mode, q)] = rng.sample(tiles, rounds)
    out = []
    for r in range(rounds):
        ops = []
        for (family, regime, mode, _q), tiles in draws.items():
            (n_lo, n_hi), (d_lo, d_hi) = tiles[r]
            combo = reference.combo_key(family, regime, mode)
            misses = [(rng.randint(n_lo, n_hi), rng.randint(d_lo, d_hi))] if mode == "homogeneous" else []
            argv = ["derive", "--family", family, "--regime", regime, "--mode", mode,
                    "-n", f"{n_lo}..{n_hi}", "-D", f"{d_lo}..{d_hi}"]
            window = (n_lo, n_hi, d_lo, d_hi)

            def check(rc, out_text, combo=combo, window=window, misses=misses):
                return checks.check_derive(ref, combo, window, out_text, rc, misses), None

            ops.append(Op(argv, (n_hi - n_lo + 1) * (d_hi - d_lo + 1), check))
        rng.shuffle(ops)
        out.append(ops)
    return out


def default_grid_hits(main, ref: dict) -> list[tuple[str, dict]]:
    """Hits of the eleven default-grid `derive` queries, checked exactly
    against the reference search (untimed set-up of the verify workload)."""
    import checks
    import reference

    hits = []
    for family, regime, mode in reference.COMBOS:
        argv = ["derive", "--family", family, "--regime", regime, "--mode", mode]
        rc, out, _ = call(main, argv)
        combo = reference.combo_key(family, regime, mode)
        expected = checks.reference_window(ref, combo, -8, -1, 1, 12)
        found = json.loads(out) if rc == 0 else None
        if found is None or {(h["n"], h["dim"]) for h in found} != set(expected):
            raise RuntimeError(f"default-grid derive {combo} disagrees with the reference")
        hits += [(combo, h) for h in found]
    return hits


def verify_rounds(rng: random.Random, rounds: int, ref: dict, hits) -> list[list[Op]]:
    """Per round, nine passes; in each, every catalog entry once at a seeded
    lattice point (each entry meets every |kappa| once per round), five of
    the default-grid hits and one fixed point of the fd-residual fault."""
    import checks

    catalog = ref["catalog"]
    passes = len(K_LATTICE)
    if len(hits) > passes * HITS_PER_PASS or len(FD_FAULT_OPS) > passes:
        raise RuntimeError("a verify round has too few passes for its inputs")

    def catalog_op(cid, k, j, sign):
        entry = catalog[cid]
        kappa, alpha = lattice(k, j, entry["regime"], sign)
        argv = ["verify", cid, "--alpha", repr(alpha)]
        if entry["regime"] != "flat":
            argv += ["--kappa", repr(kappa)]

        def check(rc, out_text):
            return checks.check_verify(entry, out_text, rc, kappa, alpha, hit=False)

        return Op(argv, 1, check)

    def hit_op(combo, hit):
        mass_ref = next(h["mass"] for h in ref["hits"][combo] if (h["n"], h["dim"]) == (hit["n"], hit["dim"]))
        kappa = default_kappa(hit["regime"])
        alpha = -1.0 if hit["alpha_sign"] == "attractive" else 1.0

        def check(rc, out_text):
            return checks.check_verify(mass_ref, out_text, rc, kappa, alpha, hit=True)

        return Op(["verify", "--hit-file", "-"], 1, check, stdin=json.dumps([hit]))

    def sign_of(cid):
        s = catalog[cid]["alpha_sign"]
        return rng.choice((-1, 1)) if s == "any" else (-1 if s == "attractive" else 1)

    out = []
    for _ in range(rounds):
        kappa_order = {cid: rng.sample(K_LATTICE, passes) for cid in catalog}
        hit_order = rng.sample(hits, len(hits))
        fault_order = rng.sample(sorted(FD_FAULT_OPS), len(FD_FAULT_OPS))
        ops = []
        for p in range(passes):
            batch = []
            for cid, entry in catalog.items():
                k = None if entry["regime"] == "flat" else kappa_order[cid][p]
                bad = FD_FAULT_POINTS.get(cid, ())
                js = [j for j in J_LATTICE if (k, j) not in bad]
                if js:
                    batch.append(catalog_op(cid, k, rng.choice(js), sign_of(cid)))
            batch += [hit_op(*h) for h in hit_order[p * HITS_PER_PASS:(p + 1) * HITS_PER_PASS]]
            if p < len(fault_order):
                cid = fault_order[p]
                batch.append(catalog_op(cid, *FD_FAULT_OPS[cid], sign_of(cid)))
            rng.shuffle(batch)
            ops += batch
        out.append(ops)
    return out


def pohozaev_rounds(rng: random.Random, rounds: int, ref: dict) -> list[list[Op]]:
    """Per round, FLAT_CSV at a seeded alpha (log-uniform on [-2, -1/2],
    one draw per stratum of the run) and the three background entries."""
    import checks

    strata = rng.sample(range(rounds), rounds)
    out = []
    for r in range(rounds):
        u = (strata[r] + rng.random()) / rounds
        plan = [(POHOZAEV_SEEDED, -(2.0 ** (2.0 * u - 1.0)), True)]
        plan += [(cid, alpha, False) for cid, alpha in POHOZAEV_FIXED.items()]
        ops = []
        for cid, alpha, identities in plan:

            def check(rc, out_text, cid=cid, alpha=alpha, identities=identities):
                return checks.check_pohozaev(ref["pohozaev"][cid], out_text, rc, alpha, identities)

            ops.append(Op(["pohozaev", cid, "--alpha", repr(alpha)], 1, check))
        rng.shuffle(ops)
        out.append(ops)
    return out


# -- running ---------------------------------------------------------------------


def call(main, argv, stdin=None):
    """One CLI operation: (exit code, stdout, seconds inside main)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            rc = main(argv)
            elapsed = time.perf_counter() - start
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), elapsed


def import_seconds() -> float:
    """Time of `import ccsp` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import ccsp; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import ccsp failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def rounds_for(workload: str, seconds: int) -> int:
    rounds = max(1, round(seconds / ROUND_SECONDS[workload]))
    return min(rounds, MAX_DERIVE_ROUNDS) if workload == "derive" else rounds


def run(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    if not traced:
        import_seconds()  # warm-up: the first start may write bytecode caches
    sys.path.insert(0, str(SRC))
    import ccsp.cli

    if not Path(ccsp.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported ccsp from {ccsp.__file__}, not from {SRC}")
    import reference
    from tracing import Tracer

    ref = reference.load()
    rng = random.Random(f"{workload}:{seed}")
    rounds = rounds_for(workload, seconds)
    if workload == "derive":
        plan = derive_rounds(rng, rounds, ref)
    elif workload == "verify":
        plan = verify_rounds(rng, rounds, ref, default_grid_hits(ccsp.cli.main, ref))
    else:
        plan = pohozaev_rounds(rng, rounds, ref)

    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    ops = [op for round_ops in plan for op in round_ops]
    times, items, attempted, failed = [], 0, 0, 0
    setup_samples: list[float] = []
    faults: dict[str, int] = {}
    wrong = None
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        else:
            # fresh starts spread evenly over the run, between operations
            while len(setup_samples) < SETUP_STARTS * (index + 1) // len(ops):
                setup_samples.append(import_seconds())
        try:
            rc, out, elapsed = call(ccsp.cli.main, op.argv, op.stdin)
            problems, fault = op.check(rc, out)
        except Exception as exc:  # a crash is a failure no fault explains
            problems, fault = [f"{type(exc).__name__}: {exc}"], None
        else:
            times.append(elapsed)
            items += op.items
        attempted += 1
        if problems:
            failed += 1
            if fault is None:
                wrong = f"{' '.join(op.argv)}: {'; '.join(problems)}"
                break
            faults[fault] = faults.get(fault, 0) + 1

    while not traced and len(setup_samples) < SETUP_STARTS:
        setup_samples.append(import_seconds())
    busy = sum(times)
    rate = items / busy if busy else 0.0
    summary = {
        "workload": workload, "seed": seed, "rounds": rounds, "operations": attempted,
        "items": items, "busy_s": busy, "items_per_s": rate, "faults": faults,
    }
    if wrong is not None:
        summary["incorrect"] = wrong
    print(json.dumps(summary), file=sys.stderr)
    if tracer is not None:
        metrics = tracer.metrics(max(items, 1))
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{workload}-seed{seed}.json")
    else:
        ms = [t * 1e3 for t in times] or [0.0]  # empty only when the first call went wrong
        p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "items_per_s": {"value": rate, "unit": "items/s"},
            "op_ms.p50": {"value": statistics.median(ms), "unit": "ms"},
            "op_ms.p90": {"value": p90, "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"
            },
        }
    return {"correct": wrong is None, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "ccsp" / "__init__.py").is_file():
        print(f"error: no ccsp package under {SRC}; run from a ccsp source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(result) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
