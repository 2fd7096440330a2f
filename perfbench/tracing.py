"""Layer tracing for the ccsp benchmark.

`Tracer.install()` replaces the public functions of each ccsp layer with
wrappers that time every call.  Each wrapper records, at the layer
boundary, the call count, the time of outermost calls (a call nested in a
call of the same name is not counted twice) and the self time (minus the
time of wrapped calls made inside it).  Spans (operation, name, start,
duration, parent) are kept in memory for the cli, derivation, catalog and
numeric layers and written when the run ends; the symbolic layer is
called millions of times per run and keeps counters only.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

import numpy as np

PER_LAYER = (
    ("cli.self_ms", "ms/item"),
    ("derivation.cells", "count/item"),
    ("derivation.cell_us.p50", "us"),
    ("derivation.hits", "count/item"),
    ("symbolic.laplacian.calls", "count/item"),
    ("symbolic.laplacian.ms", "ms/item"),
    ("symbolic.from_terms.calls", "count/item"),
    ("symbolic.mul.calls", "count/item"),
    ("symbolic.mul.ms", "ms/item"),
    ("symbolic.compile.calls", "count/item"),
    ("symbolic.eval_points", "count/item"),
    ("symbolic.eval_ms", "ms/item"),
    ("catalog.solution_from_hit.ms", "ms/item"),
    ("numeric.mass.ms", "ms/item"),
    ("numeric.mass.points", "count/item"),
    ("numeric.mass.divergent_ms", "ms/item"),
    ("numeric.integrate_radial.calls", "count/item"),
    ("numeric.fd_residual.ms", "ms/item"),
    ("numeric.poisson_invert.ms", "ms/item"),
    ("numeric.poisson_invert.points", "count/item"),
)


class _Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self) -> None:
        self.op = -1                      # index of the operation being run
        self.stack: list[list] = []       # [name, time of wrapped children]
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.counts: dict[str, int] = defaultdict(int)
        self.divergent_seconds = 0.0      # inside mass calls that return Divergent
        self.cell_seconds: list[float] = []
        self.spans: list[tuple] = []

    # -- wrapping --------------------------------------------------------

    def wrap(self, name: str, fn, keep_span: bool = True, on_result=None):
        def wrapper(*args, **kwargs):
            stack = self.stack
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent[1] += elapsed
                stat = self.stats[name]
                stat.calls += 1
                stat.self_time += elapsed - frame[1]
                if all(f[0] != name for f in stack):
                    stat.total += elapsed
                if keep_span:
                    self.spans.append((self.op, name, start, elapsed, parent[0] if parent else None))
            if on_result is not None:
                on_result(result, elapsed)
            return result

        return wrapper

    def _inside(self, name: str) -> bool:
        return any(f[0] == name for f in self.stack)

    def _counting(self, fn, counter: str, inside: str):
        """Wrap an integrand so points evaluated inside `inside` are counted."""
        def counted(r):
            if self._inside(inside):
                self.counts[counter] += int(np.size(r))
            return fn(r)

        return counted

    def install(self) -> None:
        from ccsp import catalog, cli, derivation, numeric, symbolic

        expr = symbolic.RadialExpr

        def patch(owner, attr, name, **kw):
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

        cli.main = self.wrap("cli.main", cli.main)

        def on_cell(cand, elapsed):
            self.cell_seconds.append(elapsed)
            if cand.status is derivation.CandidateStatus.HIT:
                self.counts["derivation.hits"] += 1

        patch(derivation, "evaluate_candidate", "derivation.evaluate_candidate",
              keep_span=False, on_result=on_cell)
        for attr in ("solve_homogeneous", "solve_background"):
            wrapped = self.wrap(f"derivation.{attr}", getattr(derivation, attr))
            setattr(derivation, attr, wrapped)
            setattr(cli, attr, wrapped)

        mul = self.wrap("symbolic.mul", expr.__mul__, keep_span=False)
        expr.__mul__ = mul
        expr.__rmul__ = mul
        patch(expr, "laplacian", "symbolic.laplacian", keep_span=False)
        from_terms = self.wrap("symbolic.from_terms", expr.__dict__["from_terms"].__func__, keep_span=False)
        expr.from_terms = classmethod(from_terms)
        compile_expr = expr.compile

        def compiled(self_expr, *args, **kwargs):
            evaluate = self.wrap("symbolic.eval", compile_expr(self_expr, *args, **kwargs), keep_span=False)

            def points(r):
                self.counts["symbolic.eval_points"] += int(np.size(r))
                return evaluate(r)

            return points

        expr.compile = self.wrap("symbolic.compile", compiled, keep_span=False)

        from_hit = self.wrap("catalog.solution_from_hit", catalog.solution_from_hit)
        catalog.solution_from_hit = from_hit
        cli.solution_from_hit = from_hit

        def on_mass(value, elapsed):
            if isinstance(value, numeric.Divergent):
                self.divergent_seconds += elapsed

        patch(numeric, "mass", "numeric.mass", on_result=on_mass)
        integrate = numeric.integrate_radial

        def integrate_radial(f, *args, **kwargs):
            return integrate(self._counting(f, "numeric.mass.points", "numeric.mass"), *args, **kwargs)

        numeric.integrate_radial = self.wrap("numeric.integrate_radial", integrate_radial)
        patch(numeric, "fd_residual", "numeric.fd_residual")
        invert = numeric.poisson_invert

        def poisson_invert(f, *args, **kwargs):
            f = self._counting(f, "numeric.poisson_invert.points", "numeric.poisson_invert")
            return self.wrap("numeric.poisson_invert", invert(f, *args, **kwargs))

        numeric.poisson_invert = self.wrap("numeric.poisson_invert", poisson_invert)
        for attr in ("default_grid", "verify_solution", "pohozaev_check", "pohozaev_functionals"):
            patch(numeric, attr, f"numeric.{attr}")

    # -- results -----------------------------------------------------------

    def metrics(self, items: int) -> dict:
        """Every per-layer metric, per item of the workload."""
        s = self.stats

        def ms(name):
            return s[name].total * 1e3 / items

        def calls(name):
            return s[name].calls / items

        cells = self.cell_seconds
        values = {
            "cli.self_ms": s["cli.main"].self_time * 1e3 / items,
            "derivation.cells": len(cells) / items,
            "derivation.cell_us.p50": statistics.median(cells) * 1e6 if cells else 0.0,
            "derivation.hits": self.counts["derivation.hits"] / items,
            "symbolic.laplacian.calls": calls("symbolic.laplacian"),
            "symbolic.laplacian.ms": ms("symbolic.laplacian"),
            "symbolic.from_terms.calls": calls("symbolic.from_terms"),
            "symbolic.mul.calls": calls("symbolic.mul"),
            "symbolic.mul.ms": ms("symbolic.mul"),
            "symbolic.compile.calls": calls("symbolic.compile"),
            "symbolic.eval_points": self.counts["symbolic.eval_points"] / items,
            "symbolic.eval_ms": ms("symbolic.eval"),
            "catalog.solution_from_hit.ms": ms("catalog.solution_from_hit"),
            "numeric.mass.ms": ms("numeric.mass"),
            "numeric.mass.points": self.counts["numeric.mass.points"] / items,
            "numeric.mass.divergent_ms": self.divergent_seconds * 1e3 / items,
            "numeric.integrate_radial.calls": calls("numeric.integrate_radial"),
            "numeric.fd_residual.ms": ms("numeric.fd_residual"),
            "numeric.poisson_invert.ms": ms("numeric.poisson_invert"),
            "numeric.poisson_invert.points": self.counts["numeric.poisson_invert.points"] / items,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    def write(self, path) -> None:
        layers = {
            name: {"calls": st.calls, "total_ms": st.total * 1e3, "self_ms": st.self_time * 1e3}
            for name, st in sorted(self.stats.items())
        }
        with open(path, "w") as fh:
            json.dump(
                {
                    "layers": layers,
                    "counts": dict(self.counts),
                    "span_fields": ["op", "name", "start_s", "duration_s", "parent"],
                    "spans": self.spans,
                },
                fh,
            )
