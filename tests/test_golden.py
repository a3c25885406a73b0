"""Golden outputs: `orbits` for the six groups and `chars --cubic`, each at
S = {oo,2}, {oo,2,3} and {oo,2,5}, compared byte for byte with stored JSON.

The stored files were printed by the code before the local symbols moved to
integer kernels; regenerate one with
`PYTHONPATH=src python -m tracecoef.cli orbits --group G --S s --json`
only when a change to that output is intended.
"""
from pathlib import Path

import pytest

from tracecoef.cli import main

GOLDEN = Path(__file__).parent / "golden"
S_SETS = ("2", "2,3", "2,5")
GROUPS = ("gl2", "sl2", "gl3", "sl3", "gsp2", "sp2")

CASES = [(f"orbits-{g}-S{s.replace(',', '_')}.json", ["orbits", "--group", g, "--S", s])
         for s in S_SETS for g in GROUPS]
CASES += [(f"chars-cubic-S{s.replace(',', '_')}.json", ["chars", "--S", s, "--cubic"])
          for s in S_SETS]


@pytest.mark.parametrize("name, argv", CASES, ids=[c[0] for c in CASES])
def test_golden_output(capsys, name, argv):
    assert main(argv + ["--json"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
