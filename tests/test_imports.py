"""The import boundary between the exact layer and the float layer.

`import ccsp` loads geometry, symbolic, derivation and catalog, which never
evaluate a float array; numpy arrives only with `ccsp.numeric` (or the CLI).
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import ccsp


def _run(code: str) -> str:
    """The stdout of `code` in a fresh interpreter that imports this ccsp."""
    src = str(Path(ccsp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


EXACT_LAYER_RUN = """
import sys

import ccsp, ccsp.catalog, ccsp.derivation, ccsp.geometry, ccsp.symbolic
from ccsp.derivation import solve_homogeneous
from ccsp.geometry import Regime
from ccsp.symbolic import Basis

for sol in ccsp.catalog.CATALOG:
    sol.to_json_obj()
    # the tail integral K behind Q is built on first use, not while the catalog builds
    assert "K" not in vars(sol), sol.id
for basis in Basis:
    for regime in [Regime.FLAT] if basis.is_flat else [Regime.HYPERBOLIC, Regime.SPHERICAL]:
        solve_homogeneous(basis, regime, range(-8, 0), range(1, 13))
print(",".join(m for m in ("numpy", "ccsp.numeric") if m in sys.modules))
"""


def test_exact_layer_does_not_import_numpy():
    out = _run(EXACT_LAYER_RUN)
    assert out.strip() == "", f"the exact layer loaded {out.strip()}"
    # the float layer's names are read from ccsp.numeric, not from the package
    assert not hasattr(ccsp, "mass")
    assert not hasattr(ccsp, "__getattr__")


def test_public_names():
    # a name stays only if a command, an acceptance criterion, another module,
    # CI or the benchmark uses it: a new export is a deliberate edit here.
    # Submodules are left out, as which of them are loaded depends on the run
    names = {n for n in dir(ccsp) if not n.startswith("_") and not isinstance(getattr(ccsp, n), ModuleType)}
    assert names == {
        "AlphaSign", "AnsatzFamily", "Basis", "CATALOG", "DerivationHit", "Graded", "GradedMass",
        "Monomial", "RadialExpr", "Regime", "Solution", "Space", "catalog_list", "get_solution",
        "scale_flat_solution", "solution_from_hit", "solve_background", "solve_homogeneous", "sphere_area",
    }


def test_term_algebra_imports_no_float_layer():
    # the exact term algebra imports neither numpy nor ccsp.numeric, not even
    # inside a function: compile_table is the one evaluator
    tree = ast.parse(Path(ccsp.__file__).with_name("symbolic.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):  # `from . import numeric` reads "None.numeric"
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert imported and not {name for name in imported if name.split(".")[0] == "numpy" or "numeric" in name}, imported


def test_only_the_term_algebra_reads_the_basis_rules():
    # a basis' definitions and its rules are separate fields of its spec: only
    # ccsp.symbolic reads the rules, so a check built on the definitions
    # (the float layer, the zeros, the mass rules) shares none of them
    package = Path(ccsp.__file__).parent
    for path in package.glob("*.py"):
        if path.stem in ("symbolic", "bases"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                named = {alias.name for alias in node.names}
            else:  # an attribute, a name, a parameter or a keyword
                named = {getattr(node, field, None) for field in ("attr", "id", "arg")}
            assert not named & {"Rules", "rules"}, (path.name, node.lineno)
    # and the spec imports neither numpy nor ccsp.numeric
    imported = set()
    for node in ast.walk(ast.parse((package / "bases.py").read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert imported and not {name for name in imported if name.split(".")[0] == "numpy" or "numeric" in name}, imported


@pytest.mark.parametrize("module", ["bases", "symbolic", "derivation", "catalog", "numeric"])
def test_module_all_names_exist(module):
    # a name deleted from a module leaves no stale entry in its __all__
    mod = importlib.import_module(f"ccsp.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"ccsp.{module}.__all__ names undefined {missing}"


BOUNDARY_RUN = """
import sys

import ccsp

print(",".join(m for m in ("dataclasses", "inspect") if m in sys.modules))
import ccsp.cli

print(",".join(m for m in ("dataclasses",) if m in sys.modules))
"""


def test_package_loads_neither_dataclasses_nor_inspect():
    # the value types are NamedTuples: `import ccsp` needs neither module,
    # and the CLI, whose numpy loads inspect, still needs no dataclasses
    out = _run(BOUNDARY_RUN)
    assert out.split("\n")[:2] == ["", ""], f"loaded: {out!r}"


FLOAT_LAYER_RUN = """
import sys

import numpy

loaded = "numpy.polynomial" in sys.modules
import ccsp.numeric
print("numpy.polynomial" in sys.modules and not loaded)
"""


def test_float_layer_does_not_import_numpy_polynomial():
    # every quadrature rule is built from exp and sinh: nothing loads
    # numpy.polynomial (numpy 1.x loads it with numpy itself, numpy 2 lazily)
    out = _run(FLOAT_LAYER_RUN)
    assert out.strip() == "False", "ccsp.numeric loaded numpy.polynomial"
