"""The table verbs' stdout and exit codes, byte for byte, on a small grid.

``data/cli_golden.json`` maps each argv (joined with spaces) to the exit code
and stdout that ``cli.main`` gives for it.  To record a deliberate change of
output, rewrite the file with ``PYTHONPATH=src python -m tests.test_cli_golden``
and review the diff.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from faberfields.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

SEEDS = ((), ("--seed", "koebe", "--rho", "1/2"))
KOEBE = SEEDS[1]
TABLES = (("faber", "--n", "4", "--all"),
          ("tpoly", "--n", "3", "--all"),
          ("lambda", "--p", "3", "--all"),
          ("diag", "--p", "4", "--all"),
          ("grunsky", "--n", "3", "--k", "2"),
          ("grunsky", "--n", "3", "--k", "2", "--route", "compose"),
          ("afield", "--p", "2", "--n", "3"),
          ("afield", "--p", "2", "--n", "3", "--route", "grunsky"),
          ("reverse", "--q", "-2", "--order", "5"))
EVALS = (("eval", "--family", "faber", "--index", "3"),
         ("eval", "--family", "lambda", "--index", "2", "--at", "0.3"),
         ("eval", "--family", "diag", "--index", "3"))
GRID = [table + seed + ("--format", fmt)
        for table in TABLES for seed in SEEDS for fmt in ("text", "json")]
GRID += [ev + KOEBE + ("--format", fmt) for ev in EVALS for fmt in ("text", "json")]
GRID += [("reverse", "--q", "0", "--order", "3") + KOEBE,
         ("eval", "--family", "diag", "--index", "3", "--at", "0.3") + KOEBE]


def _record(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return {"code": code, "out": out.getvalue()}


def test_grid_is_recorded():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(" ".join(a) for a in GRID)


@pytest.mark.parametrize("argv", GRID, ids=" ".join)
def test_bytes_match(argv):
    assert _record(argv) == json.loads(GOLDEN.read_text())[" ".join(argv)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({" ".join(a): _record(a) for a in GRID},
                                 indent=1, sort_keys=True) + "\n")
