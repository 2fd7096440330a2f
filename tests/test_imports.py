"""The import boundary between the exact layer and the float layer.

`import ccsp` loads geometry, symbolic, derivation and catalog, which never
evaluate a float array; numpy arrives only with `ccsp.numeric` (or the CLI).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ccsp
from ccsp import numeric

EXACT_LAYER_RUN = """
import sys

import ccsp, ccsp.catalog, ccsp.derivation, ccsp.geometry, ccsp.symbolic
from ccsp.derivation import solve_homogeneous
from ccsp.geometry import Regime
from ccsp.symbolic import Basis

for sol in ccsp.catalog.CATALOG:
    sol.to_json_obj()
    # Q's W = (-Lap)^-1 u^2 is solved on first use, not while the catalog builds
    assert "newton_potential" not in vars(sol), sol.id
for basis in Basis:
    for regime in [Regime.FLAT] if basis.is_flat else [Regime.HYPERBOLIC, Regime.SPHERICAL]:
        solve_homogeneous(basis, regime, range(-8, 0), range(1, 13))
print(",".join(m for m in ("numpy", "ccsp.numeric") if m in sys.modules))
"""


def test_exact_layer_does_not_import_numpy():
    src = str(Path(ccsp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", EXACT_LAYER_RUN], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "", f"the exact layer loaded {proc.stdout.strip()}"
    # the package still serves the float layer's names, on first use
    assert ccsp.mass is numeric.mass
    assert ccsp.Divergent is numeric.Divergent
    assert ccsp.verify_solution is numeric.verify_solution
    with pytest.raises(AttributeError):
        ccsp.no_such_name


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
    src = str(Path(ccsp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", FLOAT_LAYER_RUN], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False", "ccsp.numeric loaded numpy.polynomial"
