"""Golden CLI output: stdout and exit code, byte for byte.

Covers `catalog --format json`, `mass` and `verify` of every catalog entry
at default parameters, two `eval` grids, the `derive` examples of the
README's CLI section and `pohozaev` tables and CSV of the four flat
finite-mass entries.  The golden file records one block per command:

    $ ccsp <args>
    [exit <code>]
    <stdout>

Regenerate it only when an output change is intended, and review the diff:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/golden/cli.txt
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ccsp.catalog import CATALOG
from ccsp.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.txt"
PROMPT = "$ ccsp "

COMMANDS = [
    ["catalog", "--format", "json"],
    *(["mass", sol.id] for sol in CATALOG),
    *(["verify", sol.id] for sol in CATALOG),
    ["eval", "FLAT_CSV", "--alpha", "-1", "--r", "0:10:101"],
    ["eval", "HYP_U1", "--r", "0.1:5:50"],
    ["derive", "--family", "flat-c", "--mode", "homogeneous", "-n", "-8..-1", "-D", "1..12"],
    ["derive", "--family", "curved-c", "--regime", "hyperbolic", "--mode", "background",
     "-n", "-1..-1", "-D", "1..6"],
    ["derive", "--family", "curved-s", "--regime", "hyperbolic", "-n", "-8..-1", "-D", "1..12"],
    *(["pohozaev", sid, "--format", fmt]
      for sid in ("FLAT_CSV", "BG_FLAT_N3_D4", "BG_FLAT_N3_D5", "BG_FLAT_N4_D4")
      for fmt in ("table", "csv")),
]


def render(argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return f"{PROMPT}{' '.join(argv)}\n[exit {code}]\n{out.getvalue()}"


def golden_blocks() -> dict[str, str]:
    blocks: dict[str, str] = {}
    key = None
    for line in GOLDEN.read_text().splitlines(keepends=True):
        if line.startswith(PROMPT):
            key = line[len(PROMPT):].rstrip("\n")
            blocks[key] = ""
        blocks[key] += line
    return blocks


def test_golden_covers_exactly_the_commands():
    assert list(golden_blocks()) == [" ".join(argv) for argv in COMMANDS]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_matches_golden(argv):
    assert render(argv) == golden_blocks()[" ".join(argv)]


if __name__ == "__main__":
    sys.stdout.write("".join(render(argv) for argv in COMMANDS))
