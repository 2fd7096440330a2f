"""integrate_radial against its frozen level loop (oracle_quadrature.py):
the same bits, the same Divergent tags, the same QuadratureError messages
and the same integrand calls, on the integrals the float layer makes."""

import math

import numpy as np
import pytest

import oracle_quadrature
from ccsp import numeric
from ccsp.catalog import CATALOG, get_solution
from ccsp.geometry import Regime, Space
from test_numeric import _ROWS, _edge_integrals, _signs


def _run(integrate, f, *args):
    # the outcome (a value as its bits, a verdict as itself, an error as its
    # type and message) and the size of every integrand call
    sizes = []
    try:
        got = integrate(lambda r: sizes.append(np.shape(r)) or f(r), *args)
    except numeric.QuadratureError as error:
        return ("error", str(error)), sizes
    values = got if type(got) is tuple else (got,)
    return [x.hex() if type(x) is float else x for x in values] + [type(got).__name__], sizes


def _compared(monkeypatch):
    # integrate_radial that runs the oracle beside the package's rule on every
    # call the float layer makes, and records what differs
    integrate, compared, differ = numeric.integrate_radial, [], []

    def both(f, *args):
        with np.errstate(all="ignore"):
            ours, oracle = _run(integrate, f, *args), _run(oracle_quadrature.integrate_radial, f, *args)
        compared.append(args)
        if ours != oracle:
            differ.append((args, ours, oracle))
        return integrate(f, *args)

    monkeypatch.setattr(numeric, "integrate_radial", both)
    return compared, differ


_STACKS = [("lorentz", "exp", "cut", "cubic"), ("cubic", "tail", "exp"), ("cut", "lorentz", "small", "exp")]


def test_rows_stacks_and_edge_integrals_match_the_oracle():
    # also on intervals where nodes round onto an end: every node past the
    # first few (from 1e17, and on a width of 1e-12 or 5e-324), or the first
    # ones while later ones are inside (from 1e17 toward infinity)
    integrands = [_ROWS[name] for name in _ROWS]
    integrands += [lambda r, names=names: np.array([_ROWS[name](r) for name in names]) for names in _STACKS]
    integrands += [lambda r, p=p: p.values[0](r, p.values[1]) for p in _edge_integrals()]
    intervals = [(0.0, math.inf), (0.0, math.inf, 1e-12), (0.5, 7.0), (1e17, math.inf), (1e20, 1e20 + 1e5),
                 (3.0, 3.0 + 1e-12), (0.0, 5e-324)]
    with np.errstate(all="ignore"):
        for f in integrands:
            for args in intervals:
                assert _run(numeric.integrate_radial, f, *args) == _run(oracle_quadrature.integrate_radial, f, *args)


def test_catalog_masses_match_the_oracle(monkeypatch):
    # every entry at |kappa| = 2^(k/2), k in -4..4, with its regime's sign, and
    # alpha = +-2^(j/2), j in -2..2, with the signs its amplitude law admits
    compared, differ = _compared(monkeypatch)
    for sol in CATALOG:
        kappas = ([0.0] if sol.regime is Regime.FLAT else
                  [math.copysign(2.0 ** (k / 2.0), Space.unit_kappa(sol.regime)) for k in range(-4, 5)])
        for kappa in kappas:
            for alpha in (sign * 2.0 ** (j / 2.0) for j in range(-2, 3) for sign in _signs(sol)):
                try:
                    numeric.mass(sol, kappa, alpha)
                except ValueError:
                    pass
    assert len(compared) >= 800 and differ == []


def test_pohozaev_functionals_match_the_oracle(monkeypatch):
    # T, N and Q, one stacked integral, of the six flat entries with D > 2 at
    # alpha = +-10^(e/2), e in -24, -21, ..., 24, the signs each admits
    compared, differ = _compared(monkeypatch)
    ids = [sol.id for sol in CATALOG if sol.regime is Regime.FLAT and sol.dim > 2]
    assert len(ids) == 6
    for sol in map(get_solution, ids):
        for alpha in (sign * 10.0 ** (e / 2.0) for e in range(-24, 25, 3) for sign in _signs(sol)):
            try:
                numeric.pohozaev_functionals(sol, 0.0, alpha)
            except ValueError:
                pass
    assert len(compared) >= 6 * 17 and differ == []


@pytest.mark.parametrize("seed", range(4))
def test_run_sums_have_the_bits_of_each_rows_own_reduce(seed):
    # _run_sums sums each run of consecutive pairs that share a count, two rows
    # (terms and sizes) per pair, in one reduce along axis 1: on ragged random
    # data, of contiguous and of strided rows, the bits of each row's own 1-D
    # np.add.reduce, at counts from below numpy's 8-way unrolling to past its
    # pairwise split at 128
    rng = np.random.default_rng(seed)
    for _ in range(100):
        pairs, size, stride = int(rng.integers(1, 7)), int(rng.integers(1, 1741)), int(rng.integers(1, 3))
        block = rng.standard_normal((2 * pairs, stride * size)) * 10.0 ** rng.integers(-300, 300, (2 * pairs, 1))
        block = block[:, ::stride]
        count = rng.integers(0, size + 1, pairs).tolist()
        count[: pairs // 2] = [count[0]] * (pairs // 2)  # a run of pairs with one count
        picked = sorted(rng.choice(pairs, int(rng.integers(1, pairs + 1)), replace=False).tolist())
        got = numeric._run_sums(block, picked, count)
        want = [float(np.add.reduce(block[2 * p + k, : count[p]])).hex() for p in picked for k in (0, 1)]
        assert [got[2 * p + k].hex() for p in picked for k in (0, 1)] == want
