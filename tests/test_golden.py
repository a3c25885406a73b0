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
  alpha = -1 and 2 at S = {oo,2} and -5 at {oo,2,3}: its records, one file
  each, `golden/l1cache-shintani-alpha<alpha>-S<S>.jsonl`, as the last
  version with a JSON-lines cache wrote them (D, L1 as the shortest
  round-trip repr, which keeps its bits, and digits, in the order written).
  The binary file is decoded by tests/l1cache.py and compared with them;
  the two warm runs after the cold run must leave its bytes as they are.
  `golden/l1cache-shintani-alpha-1-S2.bin` pins the bytes of the first.
  It was reprinted when the digits column left the batch (batch 2): the
  same 250 D and L1, bit for bit, in the same order, in 4056 bytes
  instead of 6056.  The JSON lines keep the digits 15 and the method that
  the JSON-lines version stored with every record.
- `descent_coeff` of the semisimple kinds z and sigma1-sigma6 at S = {oo,2}
  and {oo,2,3}: one line per case in `golden/descent.jsonl`, holding the
  compact JSON of the coefficient document or the name of the exception
  raised. It was printed by the code before the descent moved into `coeff`.
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
change of each, and of the decoded binary cache golden.  It exits 1 if an
exit code, a non-float field (for the cache files: a D, digits or method,
or the order of the records) or a float beyond `--value-tol` /
`--error-tol` changed; with `--write` and no such change it rewrites
exactly the changed records and cache files.
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

import l1cache
import tracecoef
from tracecoef.arith import PlaceSet
from tracecoef.cli import CACHE_ENV, _coeff_doc, main, render_json
from tracecoef.coeff import descent_coeff
from tracecoef.quadforms import OrbitClass, centralizer_classify

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

# descent_coeff at S = {oo,2} and {oo,2,3}: [S, sigma kind and parameters, u
# (a list names the host OrbitClass of kind z), params], each stored with the
# compact JSON of its _coeff_doc or the name of the exception it raises
DESCENT = GOLDEN / "descent.jsonl"
DESCENT_CASES = [[["z"], ["gl2", "reg", None], None], [["z"], ["sp2", "min", 3], None]]
DESCENT_CASES += [[["sigma1"], u, p] for u in ("u_{1,0}", "u_{0,1}", "u_{alpha,1}")
                  for p in (None, {"alpha": 3})]
DESCENT_CASES += [[["sigma2", 3], "u_1", None], [["sigma3", 2], "u_1", None]]
DESCENT_CASES += [[["sigma5", d, 1, 1], "u_beta", {"alpha": beta}]
                  for d in (-1, -3, 5) for beta in (1, 3, -1)]
DESCENT_CASES += [[["sigma4", 5], "u_1", None], [["sigma6", 5, 9, 4], "u_1", None],
                  [["sigma1"], "u_2", None], [["z"], "u_1", None]]
DESCENT_MATRIX = [[s, *case] for s in ("2", "2,3") for case in DESCENT_CASES]


def _descent_line(case) -> str:
    s, sigma, u, params = case
    S = PlaceSet.of(*map(int, s.split(",")))
    try:
        res = descent_coeff(centralizer_classify(*sigma),
                            OrbitClass(*u) if isinstance(u, list) else u, S, params=params)
        out = render_json(_coeff_doc(res), pretty=False)
    except (ValueError, NotImplementedError) as e:  # stored by the exception's name
        out = type(e).__name__
    return json.dumps({"case": case, "out": out}, sort_keys=True) + "\n"


L1CACHE = [(f"l1cache-shintani-alpha{a}-S{s.replace(',', '_')}.jsonl",
            ["shintani", "--alpha", a, "--S", s, "--X", "10000"])
           for a, s in (("-1", "2"), ("2", "2"), ("-5", "2,3"))]
L1CACHE_BIN = GOLDEN / "l1cache-shintani-alpha-1-S2.bin"  # the bytes of the first


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
    """The cache file of a cold run, of the warm run after it and of a third
    run: one batch whose records, decoded, are the golden's, and the same
    bytes after each warm run; the same stdout from all three."""
    path = tmp_path / "cache.bin"
    outs, files = [], []
    for kind in ("cold", "warm", "third"):
        outs.append(_run(capsys, argv + ["--cache", str(path)]))
        files.append(path.read_bytes())
        assert l1cache.jsonl(l1cache.records(files[-1])) == (GOLDEN / name).read_text(), kind
    assert outs[0][0] == 0 and outs[0] == outs[1] == outs[2]
    assert files[0] == files[1] == files[2] and len(l1cache.batches(files[0])) == 1


def test_golden_l1_cache_bytes(capsys, tmp_path):
    """The bytes of the first cache file: the binary golden."""
    path = tmp_path / "cache.bin"
    assert _run(capsys, L1CACHE[0][1] + ["--cache", str(path)])[0] == 0
    assert path.read_bytes() == L1CACHE_BIN.read_bytes()


def test_descent_matrix_is_stored():
    with DESCENT.open(encoding="utf-8") as fh:
        assert [json.loads(line)["case"] for line in fh] == DESCENT_MATRIX


@pytest.mark.parametrize("i", range(len(DESCENT_MATRIX)),
                         ids=[json.dumps(c) for c in DESCENT_MATRIX])
def test_golden_descent(i):
    """descent_coeff gives the stored bytes, or raises the stored exception."""
    stored = DESCENT.read_text(encoding="utf-8").splitlines(keepends=True)[i]
    assert _descent_line(DESCENT_MATRIX[i]) == stored


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


def _cold_cache(argv, tmp) -> tuple[int, bytes]:
    """(exit code, cache bytes) of a cold run of argv."""
    cache = Path(tmp) / "cache.bin"
    cache.unlink(missing_ok=True)
    code = _capture(argv + ["--cache", str(cache)])[0]
    return code, cache.read_bytes() if cache.exists() else b""


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
            changed[path] = "".join(lines).encode()
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in L1CACHE:  # the cold run's cache file, record by record
            code, data = _cold_cache(argv, tmp)
            new = l1cache.jsonl(l1cache.records(data))
            olds = [(name, (GOLDEN / name).read_text(encoding="utf-8"))]
            if name == L1CACHE[0][0]:
                olds.append((L1CACHE_BIN.name, l1cache.jsonl(l1cache.records(
                    L1CACHE_BIN.read_bytes()))))
                if data != L1CACHE_BIN.read_bytes():
                    changed[L1CACHE_BIN] = data
            for old_name, old in olds:
                ok, note = (_drift_note(_cache_records(old), _cache_records(new), value_tol,
                                        error_tol) if code == 0 else (False, f"exit 0 -> {code}"))
                bad += not ok
                print(f"{old_name} {'ok ' if ok else 'BAD'} {' '.join(argv)}: "
                      f"{note if new != old else 'unchanged'}")
            if new != olds[0][1]:
                changed[GOLDEN / name] = new.encode()
    print(f"{sum(len(m) for m in MATRICES.values())} records and {len(L1CACHE) + 1} cache files, "
          f"{bad} beyond tolerance or not comparable")
    if write and not bad:
        for path, data in changed.items():
            path.write_bytes(data)
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
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in L1CACHE:
            code, data = _cold_cache(argv, tmp)
            assert code == 0, argv
            (GOLDEN / name).write_text(l1cache.jsonl(l1cache.records(data)), encoding="utf-8")
            if name == L1CACHE[0][0]:
                L1CACHE_BIN.write_bytes(data)
    DESCENT.write_text("".join(map(_descent_line, DESCENT_MATRIX)), encoding="utf-8")
    for path, matrix in MATRICES.items():
        with path.open("w", encoding="utf-8") as fh:
            for argv in matrix:
                code, out = _capture(argv)
                fh.write(json.dumps({"argv": argv, "exit": code, "stdout": out},
                                    sort_keys=True) + "\n")
