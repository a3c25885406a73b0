"""Golden outputs, compared byte for byte with stored JSON.

- `orbits` for the six groups and `chars --cubic`, each at S = {oo,2},
  {oo,2,3} and {oo,2,5}: one file per command. These were printed by the
  code before the local symbols moved to integer kernels; regenerate one with
  `PYTHONPATH=src python -m tracecoef.cli orbits --group G --S s --json`
  only when a change to that output is intended.
- `coeff` and `diff`: a matrix of commands whose exit codes and stdout are
  stored one per line in `golden/coeff-diff.jsonl`. They were printed by the
  code before the character sums of `coeff` shared one builder.
- `lfun`, `weights --engine` and `shintani` at X = 10^4: a second matrix,
  stored the same way in `golden/lfun-weights-shintani.jsonl`. It was printed
  by the code before the Shintani pole data had a single entry point.

`PYTHONPATH=src python tests/test_golden.py` regenerates every golden file;
run it only when a change to those outputs is intended, and check with
`git diff tests/golden` that nothing else moved.
"""
import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from tracecoef.cli import CACHE_ENV, main

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


COEFF_DIFF = GOLDEN / "coeff-diff.jsonl"
ALPHAS = {"2": ("1", "-1", "2"), "2,3": ("1", "-3", "6")}
SUB_PARAMS = (("--alpha", "-1"), ("--alpha", "2"), ("--alpha", "1"), ("--form", "1,0,-3"))

MATRIX = [["coeff", "--group", g, "--orbit", o, "--S", s, "--alpha", a]
          for g in GROUPS for o in ("tri", "min", "reg") for s in ALPHAS for a in ALPHAS[s]]
MATRIX += [["diff", "--orbit", o, "--S", s, "--alpha", a]
           for o in ("min", "reg") for s in ALPHAS for a in ALPHAS[s]]
MATRIX += [[*cmd, "--orbit", "sub", "--S", "2", "--X", "10000", *p]
           for cmd in (["coeff", "--group", "gsp2"], ["coeff", "--group", "sp2"], ["diff"])
           for p in SUB_PARAMS]
MATRIX += [
    ["coeff", "--group", "sp2", "--S", "2", "--X", "10000", "--form", "1,0,-3"],
    ["coeff", "--group", "sp2", "--orbit", "tri", "--S", "3"],  # 2 not in S: exit 2
]


LWS = GOLDEN / "lfun-weights-shintani.jsonl"
LWS_MATRIX = [
    ["lfun", "--chi", "-4", "--s", "1", "--S", "2"],
    ["lfun", "--chi", "12", "--s", "1", "--S", "2,3"],
    ["lfun", "--chi", "-4", "--s", "2", "--deriv", "--S", "2"],
    ["lfun", "--chi", "1", "--s", "2", "--deriv", "--S", "2,3"],
    ["lfun", "--laurent", "--S", "2"],
    ["lfun", "--laurent", "--S", "2,3"],
    ["weights", "--which", "m0", "--nu", "3,1,1,1", "--T", "0,0", "--S", "2", "--engine"],
    ["weights", "--which", "m1", "--nu", "0,2,-1/2,3", "--T", "0.5,0", "--S", "2", "--engine"],
    ["weights", "--which", "m1", "--nu", "1,2,-1,3", "--u", "2", "--T", "0,1", "--S", "2,3",
     "--engine"],
    ["weights", "--which", "m2", "--nu", "1,-2,3,0", "--T", "0,0", "--S", "2", "--engine"],
    ["weights", "--which", "m2", "--nu", "3,1,-2,1", "--u=-1/2", "--T=-0.5,0.5",
     "--S", "2", "--engine"],
    ["weights", "--which", "gl3-m0", "--nu", "2,-1,3", "--T", "0,0", "--S", "2", "--engine"],
    ["weights", "--which", "gl3-mp", "--nu", "0,1,-3", "--T", "1,0", "--S", "2", "--engine"],
    ["weights", "--which", "gl3-mp", "--nu", "1,2,3", "--u", "3/4", "--T", "0,0", "--S", "2,3",
     "--engine"],
]
LWS_MATRIX += [["shintani", "--alpha", a, "--S", s, "--X", "10000"]
               for a, s in (("-1", "2"), ("2", "2"), ("6", "2"), ("-1", "2,3"))]
MATRICES = {COEFF_DIFF: MATRIX, LWS: LWS_MATRIX}


def _run(capsys, argv):
    code = main(argv + ["--json"])
    return code, capsys.readouterr().out


def _stored(path=COEFF_DIFF):
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_coeff_diff_matrix_is_stored():
    assert [rec["argv"] for rec in _stored()] == MATRIX


def test_lfun_weights_shintani_matrix_is_stored():
    assert [rec["argv"] for rec in _stored(LWS)] == LWS_MATRIX


@pytest.mark.parametrize("i", range(len(MATRIX)), ids=[" ".join(a) for a in MATRIX])
def test_golden_coeff_diff(capsys, monkeypatch, i):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    rec = _stored()[i]
    assert _run(capsys, rec["argv"]) == (rec["exit"], rec["stdout"])


@pytest.mark.parametrize("i", range(len(LWS_MATRIX)), ids=[" ".join(a) for a in LWS_MATRIX])
def test_golden_lfun_weights_shintani(capsys, monkeypatch, i):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    rec = _stored(LWS)[i]
    assert _run(capsys, rec["argv"]) == (rec["exit"], rec["stdout"])


def _capture(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv + ["--json"])
    return code, buf.getvalue()


if __name__ == "__main__":
    os.environ.pop(CACHE_ENV, None)
    for name, argv in CASES:
        code, out = _capture(argv)
        assert code == 0, argv
        (GOLDEN / name).write_bytes(out.encode())
    for path, matrix in MATRICES.items():
        with path.open("w", encoding="utf-8") as fh:
            for argv in matrix:
                code, out = _capture(argv)
                fh.write(json.dumps({"argv": argv, "exit": code, "stdout": out},
                                    sort_keys=True) + "\n")
