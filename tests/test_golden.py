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
  before the cache was read and written in bulk.  A warm run, and the run
  after it that the cache index serves, must leave it as it is.
- The 17 records that go through the Shintani pole data (`coeff`/`diff`
  `--orbit sub`, `--form` and `shintani`) were reprinted with `--drift
  --write` when that pole data moved to float64; they moved by at most
  5.3e-14 relative in values and 4.7e-12 in error fields.
- Six `weights --engine` records were reprinted with `--drift --write
  --value-tol 1 --error-tol 1e-4` when the closed form and the family
  constants moved to the engine's precision.  The `deviation` of the two
  minimal-Levi records fell from the 15-digit closed form's rounding (1.9e-16,
  4.7e-17) to 8.6e-29 and 3.0e-33; every other move is at the engine's
  rounding level (at most 5e-37 absolute in `deviation` and `engine_error`);
  `closed_form` and `engine_limit` kept their bytes.

`PYTHONPATH=src python tests/test_golden.py` regenerates every golden file;
run it only when a change to those outputs is intended, and check with
`git diff tests/golden` that nothing else moved.

- When the real-quadratic form sums were folded onto a <= c and added in
  enumeration order, `--drift --write` reprinted the 12 records that read
  real L(1) values (`coeff --group gsp2|sp2 --orbit sub` and `diff --orbit
  sub` with `--alpha 2`, `--alpha 1` and `--form 1,0,-3`, `coeff --group sp2
  --form 1,0,-3`, and `shintani --alpha 2|6`) and
  `l1cache-shintani-alpha2-S2.jsonl`.  The largest moves were 5.7e-14 in a
  value (`constant` of `shintani --alpha 6`), 2.4e-13 in an error field
  (`residue_error` of `shintani --alpha 2`) and 6.4e-16 in a cached L1.
- When the pole data stopped calling LAPACK (closed-form tail fit,
  Lagrange extrapolation, scalar prefactors), its L^S(2s) log factors were
  rounded to multiples of 2^-56 and the real form sums took log1p as
  z log(u)/(u - 1), `--drift --write` reprinted the 17 pole-data records
  and `l1cache-shintani-alpha2-S2.jsonl` (13 of its lines).  The largest
  moves were 1.4e-14 in a value (`constant` of `shintani --alpha 6`),
  8.3e-13 in an error field (`residue_error` of `shintani --alpha -1`) and
  3.2e-16 in a cached L1.
- When the pole data moved from the epsilon grid to the direct Laurent
  formula (no `--eps`, no `grid_values`, no `inputs.eps_grid`), the full
  regenerate path above reprinted the same 17 records; `--drift` refuses a
  schema change.  Each Shintani constant moved by +1.8e-4 to +3.4e-3,
  inside the earlier `constant_error` of 0.014-0.031; the cache files kept
  their bytes.
- When `residue_error` became P(3/2) (kappa_stderr + twice the prefix
  spread of kappa_hat), `--drift --write --error-tol 1` reprinted the four
  `shintani` records; only their `residue_error` moved (by 0.83-0.94
  relative), and every other record and the cache files kept their bytes.
- When the `shintani` document lost `inputs.l1_method` (one L(1) method),
  the full regenerate path reprinted the four `shintani` records; `--drift`
  refuses a schema change.  Only that field went: every other byte, every
  `coeff`/`diff` record and the cache files kept their bytes.
- When L(s) at s < 0 moved to the functional equation, four `lfun` records
  at s < 0 (E_30/2, L(-80) of conductor 199, the trivial zero of chi_5 at
  -20, and the zeta^S derivative at -31) were appended to the second
  matrix; the full regenerate path added those four lines and changed no
  other byte of any golden file.
- When `coeff` stopped giving the identity classes and the SL(3)
  subminimal class an alpha (`sp2:tri`, not `sp2:tri(1)`) and typed the
  subregular class of x_1 as sub', the full regenerate path reprinted 26
  `coeff` records of `golden/coeff-diff.jsonl`, in `inputs.orbit` only.
- When L^S(3, chi_D) stopped at p <= 200, took its log factors from mpmath
  and its exponential from a fixed polynomial, `--drift --write --value-tol
  1e-5 --error-tol 1e-4` reprinted the 17 pole-data records.  The largest
  moves were 3.3e-6 relative in a value (`constant` of `shintani --alpha
  6`) and 1.9e-5 in an error field (`residue_error` of `shintani --alpha
  -1`); the cache files kept their bytes.

`PYTHONPATH=src python tests/test_golden.py --drift` reruns the two command
matrices and prints, for each record whose stdout changed, the largest
relative change of its value fields and of its error fields (keys naming an
error) with the field where it occurs.  It also reruns the cold `shintani`
runs of the three L-value cache files and prints the largest relative L1
change of each.  It exits 1 if an exit code, a non-float field (for the
cache files: a D, digits or method, or the order of the lines) or a float
beyond `--value-tol` / `--error-tol` changed; with `--write` and no such
change it rewrites exactly the changed records and cache files.
"""
import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import tracecoef
from tracecoef.cli import CACHE_ENV, main, render_json

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
LWS_MATRIX += [  # s < 0 by the functional equation; chi_5 at -20 is a trivial zero
    ["lfun", "--chi", "-4", "--s", "-30", "--S", "2"],
    ["lfun", "--chi", "-199", "--s", "-80", "--S", "199"],
    ["lfun", "--chi", "5", "--s", "-20", "--S", "5"],
    ["lfun", "--chi", "1", "--s", "-31", "--S", "2", "--deriv"],
]
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
    """The cache file of a cold run, of the warm run after it (which parses
    the file and writes its index) and of a run served by that index."""
    path = tmp_path / "cache.jsonl"
    outs = []
    for kind in ("cold", "warm", "indexed"):
        assert os.path.exists(f"{path}.idx") == (kind == "indexed"), kind
        outs.append(_run(capsys, argv + ["--cache", str(path)]))
        assert path.read_bytes() == (GOLDEN / name).read_bytes(), kind
    assert outs[0][0] == 0 and outs[0] == outs[1] == outs[2]


BLAS_KERNEL_CASES = [
    (LWS, ["shintani", "--alpha", "2", "--S", "2", "--X", "10000"]),
    (COEFF_DIFF, ["coeff", "--group", "sp2", "--orbit", "sub", "--S", "2", "--X", "10000",
                  "--alpha", "2"]),
]


def _child_documents(argvs, **env):
    """(exit code, stdout) of each argv, run with --json one after another in
    one child process whose environment adds env and drops the cache path."""
    code = ("import contextlib, io, json, sys; from tracecoef.cli import main\n"
            "out = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    buf = io.StringIO()\n"
            "    with contextlib.redirect_stdout(buf):\n"
            "        out.append([main(argv + ['--json']), buf.getvalue()])\n"
            "print(json.dumps(out))")
    env = {**os.environ, **env, "PYTHONPATH": os.path.dirname(os.path.dirname(tracecoef.__file__))}
    env.pop(CACHE_ENV, None)
    child = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                           env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def test_pole_data_bytes_under_another_blas_kernel():
    """A shintani golden and a real-alpha subregular coeff golden, rerun in a
    child process on OpenBLAS's Prescott kernel, print their stored bytes:
    the pole data calls no BLAS or LAPACK routine."""
    recs = [next(r for r in _stored(path) if r["argv"] == argv) for path, argv in BLAS_KERNEL_CASES]
    got = _child_documents([r["argv"] for r in recs], OPENBLAS_CORETYPE="Prescott")
    assert got == [[r["exit"], r["stdout"]] for r in recs]


def _pole_data_records():
    """The 17 stored records that go through the Shintani pole data: coeff and
    diff with --orbit sub or --form, and shintani."""
    recs = [r for path in MATRICES for r in _stored(path)
            if r["argv"][0] == "shintani" or "sub" in r["argv"] or "--form" in r["argv"]]
    assert len(recs) == 17
    return recs


CPU_SETTINGS = {  # each set for one child process only
    "numpy-without-avx2-avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
    "glibc-without-fma": {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F"},
}


@pytest.mark.parametrize("setting", list(CPU_SETTINGS))
def test_pole_data_bytes_under_other_cpu_settings(setting):
    """The 17 pole-data goldens, rerun in a child process under numpy's
    dispatch without AVX2 and AVX-512, or under glibc's libm without FMA,
    print their stored bytes: the log factors of L^S(3) come from mpmath and
    their exponential from a fixed polynomial in IEEE + and *, so no numpy
    SIMD kernel and no libm call sets a bit of L^S(3).  The real form sums
    still call np.log, whose bits these settings leave unmoved at the golden
    X = 10^4."""
    env = CPU_SETTINGS[setting]
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env={**os.environ, **env},
                           capture_output=True, text=True)
    if probe.returncode != 0:
        pytest.skip(f"numpy refuses {env} at import: {probe.stderr.strip()[-200:]}")
    recs = _pole_data_records()
    assert _child_documents([r["argv"] for r in recs], **env) == \
        [[r["exit"], r["stdout"]] for r in recs]


def _documents():
    """(name, argv as printed, stored bytes) of every stored CLI document: each
    golden file and the stdout of each record of the two matrices, all of
    them printed with --json (test_golden_output and _run add it)."""
    for name, argv in CASES:
        yield name, argv + ["--json"], (GOLDEN / name).read_bytes()
    for path in MATRICES:
        for rec in _stored(path):
            yield f"{path.name}: {' '.join(rec['argv'])}", rec["argv"] + ["--json"], \
                rec["stdout"].encode()


def test_stored_documents_re_render_to_their_bytes():
    """render_json of the parsed document, pretty unless it was printed with
    --json, gives back the stored bytes of every golden file and record.  It
    reads the stored outputs only; the L1 cache files hold cache records, not
    documents."""
    docs = list(_documents())
    assert len(docs) == len(CASES) + len(MATRIX) + len(LWS_MATRIX)
    for name, argv, stored in docs:
        again = render_json(json.loads(stored), pretty="--json" not in argv) + "\n"
        assert again.encode() == stored, name


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


def _drift_note(old, new, value_tol: float, error_tol: float):
    """(ok, note): the largest relative change of the value floats and of the
    error floats of new against old; not ok beyond a tolerance or when
    anything but a float changed."""
    worst = {"value": (0.0, ""), "error": (0.0, "")}
    try:
        for key, rel in _float_drift(old, new):
            kind = "error" if "error" in key.rsplit(".", 1)[-1] else "value"
            worst[kind] = max(worst[kind], (rel, key))
    except ValueError as e:
        return False, str(e)
    ok = worst["value"][0] <= value_tol and worst["error"][0] <= error_tol
    return ok, "  ".join(f"{k} {r:.2e} {f}" for k, (r, f) in worst.items())


def _cache_records(text: str) -> list:
    return [json.loads(line) for line in text.splitlines()]


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
            ok, note = (_drift_note(json.loads(rec["stdout"]), json.loads(out), value_tol,
                                    error_tol) if code == rec["exit"]
                        else (False, f"exit {rec['exit']} -> {code}"))
            bad += not ok
            print(f"{path.name}:{i + 1} {'ok ' if ok else 'BAD'} {' '.join(argv)}: {note}")
            lines[i] = json.dumps({"argv": argv, "exit": code, "stdout": out},
                                  sort_keys=True) + "\n"
            changed[path] = "".join(lines)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in L1CACHE:  # the cold run's cache file, record by record
            cache = Path(tmp) / name
            code = _capture(argv + ["--cache", str(cache)])[0]
            old = (GOLDEN / name).read_text(encoding="utf-8")
            new = cache.read_text(encoding="utf-8") if cache.exists() else ""
            ok, note = (_drift_note(_cache_records(old), _cache_records(new), value_tol, error_tol)
                        if code == 0 else (False, f"exit 0 -> {code}"))
            bad += not ok
            print(f"{name} {'ok ' if ok else 'BAD'} {' '.join(argv)}: "
                  f"{note if new != old else 'unchanged'}")
            if new != old:
                changed[GOLDEN / name] = new
    print(f"{sum(len(m) for m in MATRICES.values())} records and {len(L1CACHE)} cache files, "
          f"{bad} beyond tolerance or not comparable")
    if write and not bad:
        for path, text in changed.items():
            path.write_text(text, encoding="utf-8")
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
