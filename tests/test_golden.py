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
- The L-value cache file that a cold `shintani --X 10000` run writes, for
  alpha = -1 and 2 at S = {oo,2} and -5 at {oo,2,3}: one file each,
  `golden/l1cache-shintani-alpha<alpha>-S<S>.jsonl`, printed by the code
  before the cache was read and written in bulk.  A warm run must leave it
  as it is.
- The 17 records that go through the Shintani pole data (`coeff`/`diff`
  `--orbit sub`, `--form` and `shintani`) were reprinted with `--drift
  --write` when that pole data moved to float64; they moved by at most
  5.3e-14 relative in values and 4.7e-12 in error fields.

`PYTHONPATH=src python tests/test_golden.py` regenerates every golden file;
run it only when a change to those outputs is intended, and check with
`git diff tests/golden` that nothing else moved.

`PYTHONPATH=src python tests/test_golden.py --drift` reruns the two command
matrices and prints, for each record whose stdout changed, the largest
relative change of its value fields and of its error fields (keys naming an
error) with the field where it occurs.  It exits 1 if an exit code, a
non-float field or a float beyond `--value-tol` / `--error-tol` changed;
with `--write` and no such change it rewrites exactly the changed records.
"""
import argparse
import contextlib
import io
import json
import math
import os
import sys
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


L1CACHE = [(f"l1cache-shintani-alpha{a}-S{s.replace(',', '_')}.jsonl",
            ["shintani", "--alpha", a, "--S", s, "--X", "10000"])
           for a, s in (("-1", "2"), ("2", "2"), ("-5", "2,3"))]


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


@pytest.mark.parametrize("name, argv", L1CACHE, ids=[c[0] for c in L1CACHE])
def test_golden_l1_cache(capsys, tmp_path, name, argv):
    """The cache file of a cold run, and of the warm run after it."""
    path = tmp_path / "cache.jsonl"
    outs = []
    for kind in ("cold", "warm"):
        outs.append(_run(capsys, argv + ["--cache", str(path)]))
        assert path.read_bytes() == (GOLDEN / name).read_bytes(), kind
    assert outs[0][0] == 0 and outs[0] == outs[1]


def _capture(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv + ["--json"])
    return code, buf.getvalue()


def _float_drift(old, new, key=""):
    """(field, relative change) for each float of old against new; a
    ValueError at the first difference of anything else."""
    if isinstance(old, float) and isinstance(new, float):
        yield key, abs(new - old) / abs(old) if old else (0.0 if new == 0 else math.inf)
    elif isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for k in old:
            yield from _float_drift(old[k], new[k], f"{key}.{k}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _float_drift(a, b, f"{key}[{i}]")
    elif type(old) is not type(new) or old != new:
        raise ValueError(f"{key}: {old!r} -> {new!r}")


def drift(value_tol: float, error_tol: float, write: bool) -> int:
    """The --drift report; returns the exit code."""
    bad, changed = 0, {}
    for path, matrix in MATRICES.items():
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        for i, (line, argv) in enumerate(zip(lines, matrix)):
            rec = json.loads(line)
            code, out = _capture(argv)
            if (code, out) == (rec["exit"], rec["stdout"]):
                continue
            worst = {"value": (0.0, ""), "error": (0.0, "")}
            try:
                if code != rec["exit"]:
                    raise ValueError(f"exit {rec['exit']} -> {code}")
                for key, rel in _float_drift(json.loads(rec["stdout"]), json.loads(out)):
                    kind = "error" if "error" in key.rsplit(".", 1)[-1] else "value"
                    worst[kind] = max(worst[kind], (rel, key))
                ok = worst["value"][0] <= value_tol and worst["error"][0] <= error_tol
                note = "  ".join(f"{k} {r:.2e} {f}" for k, (r, f) in worst.items())
            except ValueError as e:
                ok, note = False, str(e)
            bad += not ok
            print(f"{path.name}:{i + 1} {'ok ' if ok else 'BAD'} {' '.join(argv)}: {note}")
            lines[i] = json.dumps({"argv": argv, "exit": code, "stdout": out},
                                  sort_keys=True) + "\n"
            changed[path] = lines
    print(f"{sum(len(m) for m in MATRICES.values())} records, "
          f"{bad} beyond tolerance or not comparable")
    if write and not bad:
        for path, lines in changed.items():
            path.write_text("".join(lines), encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    os.environ.pop(CACHE_ENV, None)
    ap = argparse.ArgumentParser(description="regenerate the golden files, or report drift")
    ap.add_argument("--drift", action="store_true")
    ap.add_argument("--value-tol", type=float, default=1e-12)
    ap.add_argument("--error-tol", type=float, default=1e-10)
    ap.add_argument("--write", action="store_true", help="with --drift: rewrite changed records")
    opts = ap.parse_args()
    if opts.drift:
        sys.exit(drift(opts.value_tol, opts.error_tol, opts.write))
    for name, argv in CASES:
        code, out = _capture(argv)
        assert code == 0, argv
        (GOLDEN / name).write_bytes(out.encode())
    for name, argv in L1CACHE:
        (GOLDEN / name).unlink(missing_ok=True)
        assert _capture(argv + ["--cache", str(GOLDEN / name)])[0] == 0, argv
    for path, matrix in MATRICES.items():
        with path.open("w", encoding="utf-8") as fh:
            for argv in matrix:
                code, out = _capture(argv)
                fh.write(json.dumps({"argv": argv, "exit": code, "stdout": out},
                                    sort_keys=True) + "\n")
