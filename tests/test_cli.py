"""CLI plumbing: JSON determinism, the cache, exit codes."""
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
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import l1cache
import tracecoef
from tracecoef import cli, lfun
from tracecoef.arith import PlaceSet
from tracecoef.characters import QuadChar
from tracecoef.cli import JsonlCache, main, render_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_coeff_command(capsys):
    code, out = run_cli(capsys, "coeff", "--group", "sp2", "--orbit", "min",
                        "--alpha", "1", "--S", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["terms"]
    assert abs(doc["result"]["value"] - 2.043379170155876) < 1e-10
    names = [f["name"] for t in doc["result"]["terms"] for f in t["factors"]]
    assert "zeta^S(2)" in names


def test_shintani_command(capsys):
    code, out = run_cli(capsys, "shintani", "--alpha", "-1", "--S", "2",
                        "--X", "15000", "--json")
    assert code == 0
    doc = json.loads(out)
    r = doc["result"]
    assert r["residue_exact"] == "1/8"
    assert abs(r["residue_estimate"] - 0.125) / 0.125 < 0.05
    assert set(r) == {"residue_estimate", "residue_exact", "residue_error", "constant",
                      "constant_error", "unstable", "diagnostics"}
    assert set(doc["inputs"]) == {"alpha", "S", "X"}


def test_lfun_orbit_chars_weights_commands(capsys):
    code, out = run_cli(capsys, "lfun", "--chi", "-4", "--s", "2", "--S", "2", "--json")
    assert code == 0 and abs(json.loads(out)["result"]["value"] - 0.915965594177219) < 1e-12
    code, out = run_cli(capsys, "lfun", "--laurent", "--S", "2", "--json")
    assert json.loads(out)["result"]["residue"] == 0.5
    code, out = run_cli(capsys, "orbits", "--group", "gsp2", "--S", "2", "--json")
    assert json.loads(out)["result"]["count"] == 19
    code, out = run_cli(capsys, "chars", "--S", "2,3", "--cubic", "--json")
    doc = json.loads(out)
    assert doc["result"]["cubic_moduli"] == [9, 9]
    code, out = run_cli(capsys, "weights", "--which", "m0", "--nu", "3,1,1,1",
                        "--T", "0,0", "--S", "2", "--engine", "--json")
    doc = json.loads(out)
    assert doc["result"]["deviation"] < 1e-9


def test_diff_command(capsys):
    code, out = run_cli(capsys, "diff", "--orbit", "min", "--alpha", "1",
                        "--S", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["deviation"] < 1e-10


def test_reruns_byte_identical(capsys):
    argv = ["coeff", "--group", "sl2", "--orbit", "min", "--alpha", "7",
            "--S", "2,3", "--json"]
    _, out1 = run_cli(capsys, *argv)
    _, out2 = run_cli(capsys, *argv)
    assert out1 == out2


def test_usage_and_instability_exit_codes(capsys):
    # unknown group: argparse usage error
    code = main(["coeff", "--group", "nope", "--S", "2"])
    capsys.readouterr()
    assert code == 2
    # pole request: rejected as a usage error with a JSON error object
    code, out = run_cli(capsys, "lfun", "--chi", "1", "--s", "1", "--S", "2", "--json")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "usage"
    # sp2 without 2 in S
    code, out = run_cli(capsys, "shintani", "--alpha", "-1", "--S", "3", "--json")
    assert code == 2


@pytest.mark.parametrize("which, nu, u, message", [
    ("m1", "1,1,1,1", None, "nu12 must vanish for the radical case"),
    ("m1", "0,1,1,1", None, "det(Y) vanishes"),
    ("m1", "1,1,1,1", "0", "u12 vanishes"),
    ("m2", "1,1,1,1", None, "nu24 must vanish for the radical case"),
    ("m2", "0,0,0,0", None, "(nu12, nu13, nu14) vanishes"),
    ("gl3-mp", "1,1,1", None, "nu12 must vanish for the radical case"),
    ("gl3-mp", "1,1,0", "1", "nu23 vanishes"),
], ids=["m1-radical-nu12", "m1-detY", "m1-u12", "m2-radical-nu24", "m2-radical-zero",
        "gl3mp-radical-nu12", "gl3mp-nu23"])
def test_weights_engine_refuses_degenerate_input_by_the_closed_form(capsys, which, nu, u,
                                                                    message):
    """weights --engine refuses degenerate input once, with the closed form's
    message, before the family is built."""
    argv = ["weights", "--which", which, "--nu", nu, "--S", "2", "--engine", "--json"]
    code, out = run_cli(capsys, *argv, *(["--u", u] if u else []))
    assert code == 2
    assert json.loads(out)["error"] == {"code": "usage", "message": message}


@pytest.mark.parametrize("alpha, X, code, S", [("-1", "2000", 0, "2"), ("2", "2000", 2, "2"),
                                              ("6", "100000", 0, "2"), ("-3", "100000", 0, "2"),
                                              ("-1", "100000", 0, "2,3")],
                         ids=["-1-2000-0", "2-2000-2", "6-100000-0", "-3-100000-0",
                              "-1-100000-0-S2,3"])
def test_shintani_exit_codes(capsys, alpha, X, code, S):
    """The 30-class floor holds for the full tail fit only: at X = 2000 alpha
    -1 (9 classes below N_max/4) runs and alpha 2 is refused.  The constants
    near 0 of alpha 6 and -3 do not raise the unstable flag, whose test
    compares the fitted residue with the exact one, nor does alpha -1 at
    {oo,2,3}, where every prefix fit leans the same way (its bar is the
    kappa_stderr plus twice their spread)."""
    got, out = run_cli(capsys, "shintani", "--alpha", alpha, "--S", S, "--X", X, "--json")
    assert got == code, out
    if code == 0:
        assert json.loads(out)["result"]["unstable"] is False


METHOD = "class-number-formula"  # the method of every record held


X_TOO_SMALL = ('{\n  "error": {\n    "code": "usage",\n'
               '    "message": "X must be at least 10^3"\n  }\n}\n')


@pytest.mark.parametrize("argv", [["coeff", "--group", "sp2", "--orbit", "min"],
                                  ["diff", "--orbit", "min"], ["shintani"]],
                         ids=["coeff", "diff", "shintani"])
def test_X_below_10_to_3_is_a_usage_error(capsys, argv):
    """Each subcommand that takes --X refuses X < 10^3 with the same JSON
    usage error, also for an orbit whose coefficient does not read X."""
    assert run_cli(capsys, *argv, "--X", "100") == (2, X_TOO_SMALL)


def test_cache_roundtrip(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    c = JsonlCache(path)
    c.put({"D": -4, "L1": 0.7853981633974483, "method": METHOD, "digits": 15})
    c.put({"D": 8, "L1": 1.2, "method": METHOD, "digits": 15})
    with pytest.raises(ValueError):
        c.put({"D": 5, "L1": 0.43, "method": "x", "digits": 15})
    c2 = JsonlCache(path)
    assert c2.get(-4)["L1"] == 0.7853981633974483
    assert c2.get(8) == {"D": 8, "L1": 1.2, "digits": 15, "method": METHOD}
    assert c2.get(5) is None and c2.get(-3) is None


def test_cache_highest_digits_wins(tmp_path, capsys):
    path = tmp_path / "cache.bin"
    path.write_bytes(l1cache.batch([(-4, 0.78, 10)]) + l1cache.batch([(-4, 0.785398, 20)])
                     + l1cache.batch([(-4, 0.79, 10)]) + b"not a batch at all\n"
                     + l1cache.batch([(8, 1.1, 10), (8, 1.2, 10)]))
    c = JsonlCache(str(path))
    assert c.get(-4)["L1"] == 0.785398  # highest digits wins
    assert c.get(8)["L1"] == 1.2        # ties: last wins
    assert capsys.readouterr().err.count("skipping 1 corrupt") == 1
    # an in-memory put with fewer digits must not clobber
    c.put({"D": -4, "L1": 0.7, "digits": 5, "method": METHOD})
    assert c.get(-4)["L1"] == 0.785398


def test_cache_store_l1_same_bytes_as_put(tmp_path):
    """One bulk append writes the records that the sequential puts write,
    column bytes for column bytes, with the same digits precedence applied to
    each record: one batch against one batch per put."""
    seed = l1cache.batch([(-4, 0.785398, 20)])
    Ds, L1s = [-4, 5, 8, 5], [0.7, 0.43, 0.62, 0.4304]  # -4: fewer digits, skipped; 5: tie, wins
    appended = []
    for name in ("put", "store_l1"):
        path = tmp_path / f"{name}.bin"
        path.write_bytes(seed)
        c = JsonlCache(str(path))
        if name == "put":
            for D, L1 in zip(Ds, L1s):
                c.put({"D": D, "L1": L1, "method": METHOD, "digits": 15})
        else:
            c.store_l1(Ds, L1s, 15)
        assert c.get(-4)["L1"] == 0.785398 and c.get(5)["L1"] == 0.4304
        appended.append(l1cache.batches(path.read_bytes()[len(seed):]))
    assert appended[0] == [[rec] for rec in appended[1][0]]
    assert appended[1] == [[(5, 0.43, 15), (8, 0.62, 15), (5, 0.4304, 15)]]


def test_cache_rejects_non_finite_record(tmp_path):
    """An L1 that is not finite is refused, not stored as a string, and
    nothing of its batch reaches the file."""
    path = tmp_path / "cache.jsonl"
    c = JsonlCache(str(path))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            c.store_l1([5, 8], [0.43, bad], 15)
        with pytest.raises(ValueError):
            c.put({"D": 8, "L1": bad, "method": METHOD, "digits": 15})
    assert not path.exists()
    assert c.get(5) is None and c.get(8) is None


RECORDS = st.fixed_dictionaries({
    "D": st.integers(-10**12, 10**12),
    "L1": st.floats(allow_nan=False, allow_infinity=False),
    "method": st.one_of(st.just(METHOD), st.just(METHOD), st.text(max_size=30)),
    "digits": st.integers(-10**6, 10**6),
})
OTHER_RECORDS = st.one_of(
    RECORDS.map(lambda r: {**r, "D": bool(r["D"] % 2)}),
    RECORDS.map(lambda r: {**r, "D": r["D"] + 2**63}),
    RECORDS.map(lambda r: {**r, "digits": -r["digits"] - 2**63 - 1}),
    RECORDS.map(lambda r: {**r, "L1": r["D"]}),
    RECORDS.map(lambda r: {**r, "method": None}),
    RECORDS.map(lambda r: {**r, "extra": None}),
    RECORDS.map(lambda r: {k: v for k, v in r.items() if k != "method"}),
    RECORDS.map(lambda r: [r["D"], r["L1"]]),
)


def _is_l1_record(rec) -> bool:
    return (isinstance(rec, dict) and rec.keys() == {"D", "L1", "digits", "method"}
            and type(rec["D"]) is int and type(rec["digits"]) is int
            and -2**63 <= rec["D"] < 2**63 and -2**63 <= rec["digits"] < 2**63
            and type(rec["L1"]) is float and rec["method"] == METHOD)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(RECORDS, OTHER_RECORDS), max_size=8,
                unique_by=lambda r: int(r["D"] if isinstance(r, dict) else r[0])))
def test_cache_lines_are_the_encoder_bytes(recs):
    """put appends exactly the batch that tests/l1cache.py encodes for an
    L(1) record of METHOD, and refuses any other shape or method with
    ValueError, writing nothing and holding nothing of it."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "cache.bin"
        c = JsonlCache(str(path))
        for rec in recs:
            if _is_l1_record(rec):
                c.put(rec)
            else:
                with pytest.raises(ValueError):
                    c.put(rec)
        got = path.read_bytes() if path.exists() else b""
        held = sum(map(len, c._cols.values()))
    want = [rec for rec in recs if _is_l1_record(rec)]
    assert got == b"".join(l1cache.batch([(r["D"], r["L1"], r["digits"])]) for r in want)
    assert held == 3 * len(want)


def test_cache_names_perfbench_wraps(tmp_path):
    """perfbench/spans.py wraps get and put through JsonlCache.__dict__ and
    times open_cache; the bulk methods stand beside them.  Its get wrapper
    calls get(D) and counts the gets and the hits."""
    from tracecoef import cli

    assert {"get", "put", "lookup_l1", "store_l1"} <= set(JsonlCache.__dict__)
    assert callable(cli.open_cache)
    sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
    try:
        import spans
    finally:
        sys.path.pop(0)
    cache = JsonlCache(str(tmp_path / "cache.jsonl"))
    cache.put({"D": -4, "L1": 0.7853981633974483, "method": METHOD, "digits": 15})
    rec = spans.Recorder()
    rec.install()
    try:
        assert cache.get(-4) == {"D": -4, "L1": 0.7853981633974483, "digits": 15,
                                 "method": METHOD}
    finally:
        rec.uninstall()
    assert rec.counts["cli.cache.gets"] == 1 and rec.counts["cli.cache.hits"] == 1


HELD = st.lists(st.tuples(st.integers(-12, 12), st.floats(), st.integers(10, 20)), max_size=12)


@settings(max_examples=150, deadline=None)
@given(held=st.lists(HELD, max_size=3),
       batch=st.lists(st.tuples(st.integers(-12, 12),
                                st.floats(allow_nan=False, allow_infinity=False)), max_size=12),
       bad=st.sampled_from([None, math.nan, math.inf, -math.inf]),
       digits=st.integers(12, 18))
def test_cache_bulk_agrees_with_get_and_put(held, batch, bad, digits):
    """lookup_l1 and store_l1 against get and sequential puts, on files of
    batches that hold records with more digits, implausible L1s (nan, inf
    and <= 0 among them, which only a file written by hand can hold) and
    duplicate D: the same values served, the same records held, the same
    records appended; a batch with a non-finite L1 is refused whole."""
    Ds, L1s = [D for D, _ in batch], [L1 for _, L1 in batch]
    if bad is not None:
        Ds, L1s = Ds + [0], L1s + [bad]
    with tempfile.TemporaryDirectory() as d:
        paths = [Path(d) / "sequential.bin", Path(d) / "bulk.bin"]
        seed = b"".join(map(l1cache.batch, held))
        for path in paths:
            path.write_bytes(seed)
        seq, bulk = (JsonlCache(str(path)) for path in paths)

        def served(rec):
            if rec is None:
                return None
            assert rec["method"] == METHOD and type(rec["L1"]) is float
            return rec["L1"] if 0 < rec["L1"] < math.inf else None
        want = [served(seq.get(D)) for D in Ds]
        with contextlib.redirect_stderr(io.StringIO()):
            assert [None if x != x else x for x in bulk.lookup_l1(Ds)] == want
        if bad is None:
            for D, L1 in zip(Ds, L1s):
                seq.put({"D": D, "L1": L1, "method": METHOD, "digits": digits})
            bulk.store_l1(Ds, L1s, digits)
        else:
            with pytest.raises(ValueError):
                seq.put({"D": 0, "L1": bad, "method": METHOD, "digits": digits})
            with pytest.raises(ValueError):
                bulk.store_l1(Ds, L1s, digits)
        # repr: a held nan L1 is unequal to itself
        assert all(repr(seq.get(D)) == repr(bulk.get(D)) for D in range(-12, 13))
        appended = [repr(l1cache.records(p.read_bytes()[len(seed):])) for p in paths]
        assert appended[0] == appended[1]


def _with_L1(data: bytes, D: int, L1: float) -> bytes:
    """The batches of data with the L1 of D replaced."""
    return b"".join(l1cache.batch([(d, L1 if d == D else x, n) for d, x, n in recs])
                    for recs in l1cache.batches(data))


def test_implausible_records_are_recomputed(tmp_path, capsys):
    """A cached L1 that is infinite or negative is not served: the document
    prints what a cold run prints, warns once, and appends a batch of that
    record that wins on the next read.  A batch that fails its CRC loses all
    its records: they are recomputed and appended too, and the corrupt batch
    warns on every read."""
    path = tmp_path / "cache.bin"
    argv = ["shintani", "--alpha", "-1", "--S", "2", "--X", "10000", "--json"]

    def run(*cache):
        code = main(argv + list(cache))
        return code, *capsys.readouterr()
    code, clean, _ = run()
    assert code == 0
    run("--cache", str(path))
    data = path.read_bytes()
    (recs,) = l1cache.batches(data)
    rec = next(r for r in recs if r[0] == -4)
    for bad in (math.inf, -0.5, "a flipped byte"):
        if bad == "a flipped byte":
            edited = bytearray(data)
            edited[l1cache.HEAD + 8 * len(recs) + 8 * recs.index(rec) + 6] ^= 0x10
            edited = bytes(edited)
        else:
            edited = _with_L1(data, -4, bad)
        path.write_bytes(edited)
        code, out, err = run("--cache", str(path))
        assert (code, out) == (0, clean)
        appended = l1cache.batches(path.read_bytes()[len(edited):])
        if bad == "a flipped byte":
            corrupt = "warning: skipping 1 corrupt or cut-short L(1) cache batches\n"
            assert err == corrupt and appended == [recs]
            assert run("--cache", str(path)) == (0, clean, corrupt)
        else:
            assert err.count("recomputing 1 implausible") == 1 and appended == [[rec]]
            assert run("--cache", str(path)) == (0, clean, "")


def test_plausible_record_outranks_implausible_one_with_more_digits(tmp_path, capsys):
    """An implausible record with more digits does not block the plausible
    one recomputed for it: the first run warns and appends, the second reads
    the new record without a warning."""
    path = tmp_path / "cache.bin"
    path.write_bytes(l1cache.batch([(-4, -0.5, 20)]))
    argv = ["shintani", "--alpha", "-1", "--S", "2", "--X", "2000", "--cache", str(path)]

    def run():
        code = main(argv)
        return code, *capsys.readouterr()
    code, out, err = run()
    assert code == 0 and err.count("recomputing 1 implausible") == 1
    assert run() == (0, out, "")
    assert abs(JsonlCache(str(path)).get(-4)["L1"] - math.pi / 4) < 1e-15


def test_cache_one_parse_keeps_the_digits_rule(tmp_path, capsys):
    """A file is read in one pass, whatever its batching: records in one
    batch, or one batch each, are held by the same rule (most digits wins,
    ties go to the last), with no warning."""
    recs = [(-4, 0.78, 10), (-4, 0.785398, 20), (-4, 0.79, 10), (8, 1.1, 15), (8, 1.2, 15),
            (5, -0.43, 30), (5, 0.43, 15)]
    for name, data in (("one", l1cache.batch(recs)),
                       ("each", b"".join(l1cache.batch([r]) for r in recs))):
        path = tmp_path / f"{name}.bin"
        path.write_bytes(data)
        c = JsonlCache(str(path))
        assert [c.get(D)["L1"] for D in (-4, 8, 5)] == [0.785398, 1.2, 0.43]
    assert capsys.readouterr().err == ""


def test_parser_reused_without_leaking_options(capsys):
    """main builds its parser once; options of one call do not carry over
    into the next, across subcommands: a leaked --X would show in the
    inputs of the coeff document that does not set it."""
    from tracecoef import cli

    code, out = run_cli(capsys, "shintani", "--alpha", "-1", "--S", "2", "--X", "2000",
                        "--json")
    assert code == 0 and json.loads(out)["inputs"]["X"] == 2000
    code, out = run_cli(capsys, "coeff", "--group", "sp2", "--orbit", "min", "--alpha", "-1",
                        "--S", "2")
    assert code == 0 and "\n" in out.strip()          # pretty: --json did not carry over
    assert json.loads(out)["inputs"]["X"] == 10**5
    code, out = run_cli(capsys, "lfun", "--chi", "-4", "--s", "2", "--S", "2", "--deriv",
                        "--json")
    assert code == 0 and set(json.loads(out)["result"]) == {"derivative"}
    code, out = run_cli(capsys, "lfun", "--chi", "-4", "--S", "2", "--json")
    doc = json.loads(out)
    assert code == 0 and set(doc["result"]) == {"value"} and doc["inputs"]["s"] == 2.0
    assert cli._parser() is cli._parser()


def test_cache_env_default(tmp_path, monkeypatch, capsys):
    path = str(tmp_path / "envcache.jsonl")
    monkeypatch.setenv("TRACECOEF_CACHE", path)
    code, _ = run_cli(capsys, "shintani", "--alpha", "-1", "--S", "2",
                      "--X", "2000", "--json")
    assert code == 0
    with open(path, "rb") as fh:
        recs = l1cache.records(fh.read())
    assert any(D == -4 for D, _, _ in recs)


def test_render_json_deterministic_types():
    from fractions import Fraction
    from mpmath import mpf, mpc

    doc = render_json({"a": Fraction(1, 8), "b": mpf("0.25"), "c": mpc(1, 2),
                       "s": {3, 1, 2}}, pretty=False)
    assert doc == '{"a":"1/8","b":0.25,"c":[1.0,2.0],"s":[1,2,3]}'


def test_selftest_subset(capsys):
    code, out = run_cli(capsys, "selftest", "--quick", "--criteria", "1,3,7,10", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["all_passed"]
    assert [c["id"] for c in doc["result"]["criteria"]] == [1, 3, 7, 10]


def test_coeff_sub_orbit_via_alpha(capsys):
    code, out = run_cli(capsys, "coeff", "--group", "sp2", "--orbit", "sub",
                        "--alpha", "-1", "--S", "2", "--X", "15000", "--json")
    assert code == 0
    doc = json.loads(out)
    names = [f["name"] for t in doc["result"]["terms"] for f in t["factors"]]
    assert any("C_F" in n for n in names)
    assert any("chi_-4" in n for n in names)


@pytest.mark.parametrize("group", ["gl2", "sl2", "gl3", "sl3"])
@pytest.mark.parametrize("orbit", [["--orbit", "sub"], ["--orbit", "sub'"],
                                   ["--form", "1,0,-3"]], ids=["sub", "subp", "form"])
def test_coeff_sub_rejected_for_groups_without_one(capsys, group, orbit):
    code, out = run_cli(capsys, "coeff", "--group", group, *orbit, "--S", "2", "--json")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "usage"


@pytest.mark.parametrize("argv", [
    ["orbits", "--group", "sp2", "--digits", "40"],
    ["chars", "--X", "10"],
    ["lfun", "--cache", "p"],
    ["selftest", "--S", "2"],
    ["shintani", "--vol-m1", "2"],
    ["shintani", "--digits", "40"],
    ["coeff", "--group", "sp2", "--seed", "1"],
], ids=lambda a: " ".join(a))
def test_flag_not_read_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["lfun", "--chi=-4", "--s=1", "--digits=-3"], "--digits"),
    (["lfun", "--chi=-4", "--s=1", "--digits=0"], "--digits"),
    (["lfun", "--chi=-4", "--s=1", "--digits=14"], "--digits"),
    (["coeff", "--group=sp2", "--orbit=min", "--digits=14"], "--digits"),
    (["diff", "--orbit=min", "--digits=3"], "--digits"),
    (["lfun", "--chi=-4", "--s=inf"], "--s"),
    (["lfun", "--chi=-4", "--s=-inf"], "--s"),
    (["lfun", "--chi=-4", "--s=nan"], "--s"),
], ids=lambda a: " ".join(a) if isinstance(a, list) else a)
def test_bad_precision_or_point_is_a_usage_error(capsys, argv, flag):
    """--digits below lfun.MIN_DIGITS and a non-finite --s exit 2
    with a message that names the flag, and compute nothing."""
    assert main(argv + ["--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"argument {flag}:" in captured.err


@pytest.mark.parametrize("argv,expected", [
    (["--chi=-4", "--s=-30", "--S=2"], -2.2077194662451156e26),   # E_30 / 2
    (["--chi=5", "--s=-20", "--S=5"], 0.0),                       # trivial zeros
    (["--chi=1", "--s=-30", "--S=2"], 0.0),
], ids=lambda a: " ".join(a) if isinstance(a, list) else None)
def test_lfun_at_negative_s(capsys, argv, expected):
    code, out = run_cli(capsys, "lfun", *argv, "--json")
    value = json.loads(out)["result"]["value"]
    assert code == 0 and abs(value - expected) <= 1e-15 * max(1.0, abs(expected))


@pytest.mark.parametrize("s", ["-1e400", "-1e6", "-2000", "-201", "-200.5", "-200", "-199.5",
                               "-150", "-80", "-30.5", "24", "60", "199.99", "200", "200.5",
                               "2000", "1e6", "1e400", "inf", "-inf", "nan"])
@pytest.mark.parametrize("chi", ["-199", "-4"])
def test_no_point_is_an_internal_fault(capsys, chi, s):
    """Every --s either computes (exit 0), is rejected by argparse with a
    message that names --s (|s| > 200 or not finite, exit 2), or has a value
    beyond the float64 range of the output (exit 2, naming --s); none exits
    3, and no usage error comes from inside the kernel."""
    code = main(["lfun", f"--chi={chi}", f"--s={s}", f"--S={-int(chi) if chi == '-199' else 2}",
                 "--json"])
    out, err = capsys.readouterr()
    if code == 0:
        assert abs(float(s)) <= 200 and math.isfinite(json.loads(out)["result"]["value"])
    elif code == 2 and out:
        assert -200 <= float(s) < 0 and err == ""
        message = json.loads(out)["error"]["message"]
        assert message.startswith(f"--s {float(s)}: the value is beyond the float64 range")
    else:
        assert code == 2, (code, out)
        assert not abs(float(s)) <= 200
        assert "argument --s: must be a number, |s| <= 200" in err


# L(s, chi) at s < 0 with S the primes of chi (2 for zeta): -B_{1-s,chi}/(1-s)
# from the exact generalized Bernoulli numbers at the integers, mpmath's
# dirichlet at 50 digits at s = -30.5
NEGATIVE_POINTS = [(-199, -80, "199", 3.6379860728366204e239),
                   (-40, -100, "2,5", 4.5908814131560094e238),
                   (-4, -150, "2", -1.389287023902287e233),
                   (-199, -60, "199", 4.100567808983544e172),
                   (-199, -30.5, "199", -2.75349519984661e79),
                   (-4, -90, "2", -2.1136203430699544e120),
                   (-4, -30, "2", -2.2077194662451156e26),
                   (5, -20, "5", 0.0),
                   (1, -30, "2", 0.0)]


@pytest.mark.parametrize("chi,s,S,expected", NEGATIVE_POINTS,
                         ids=[f"{chi}-{s}-{S}" for chi, s, S, _ in NEGATIVE_POINTS])
def test_negative_points_compute(capsys, chi, s, S, expected):
    """Points at s < 0 of conductors 1 to 199, down to s = -150, exit 0
    within 1e-15 of their values."""
    code, out = run_cli(capsys, "lfun", f"--chi={chi}", f"--s={s}", f"--S={S}", "--json")
    assert code == 0 and abs(json.loads(out)["result"]["value"] - expected) <= 1e-15 * abs(expected)


def test_value_beyond_float64_names_s(capsys, monkeypatch):
    """A value the JSON output cannot hold is rejected naming --s, not by the
    renderer."""
    monkeypatch.setattr(lfun, "LS", lambda *args: mpf("-1e400"))
    code, out = run_cli(capsys, "lfun", "--chi=-4", "--s=-90", "--S=2", "--json")
    assert code == 2
    assert json.loads(out)["error"]["message"].startswith("--s -90.0: the value is beyond")


def test_value_surely_beyond_float64_is_refused_before_the_kernel(capsys, monkeypatch):
    """lfun --chi=-199 --s=-199.5 --S=199 has log|L^S| >= 1551 > log(float
    max) by lfun.log_abs_LS_lower_bound, so it exits 2 with the usual message
    and the Dirichlet kernel at 1 - s never runs."""
    def kernel(*args, **kwargs):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(lfun, "_dirichlet_jet", kernel)
    code, out = run_cli(capsys, "lfun", "--chi=-199", "--s=-199.5", "--S=199", "--json")
    assert (code, out) == (2, '{"error":{"code":"usage","message":"--s -199.5: the value is '
                              'beyond the float64 range of the output"}}\n')


def test_derivative_surely_beyond_float64_is_refused_before_the_kernel(capsys, monkeypatch):
    """lfun --chi=-199 --s=-199.5 --S=199 --deriv: the value bound plus
    log(|G'/G + E'/E| + zeta'/zeta(1 - s)) exceeds log(float max), so it exits
    2 with the usual message and the Dirichlet kernel at 1 - s never runs."""
    def kernel(*args, **kwargs):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(lfun, "_dirichlet_jet", kernel)
    code, out = run_cli(capsys, "lfun", "--chi=-199", "--s=-199.5", "--S=199", "--deriv", "--json")
    assert (code, out) == (2, '{"error":{"code":"usage","message":"--s -199.5: the derivative is '
                              'beyond the float64 range of the output"}}\n')


@pytest.mark.parametrize("chi, s, S", [(-199, -30.5, (199,)), (-199, -80, (199,)), (-4, -30, (2,)),
                                       (None, -31, (2,)), (5, -20.5, (5,)), (1, -5.5, (2, 3)),
                                       (12, -10.25, (2, 3)), (-4, -0.3, (2,))])
def test_derivative_bound_is_below_the_derivative(chi, s, S):
    """log_abs_LS_lower_bound(..., deriv=True) never exceeds log|(L^S)'(s)|,
    so it refuses nothing the kernel could print; near s = 0, where
    zeta'/zeta(1 - s) is large, it is -inf."""
    chi = None if chi is None else QuadChar(chi)
    S = PlaceSet.of(*S)
    bound = lfun.log_abs_LS_lower_bound(s, chi, S, deriv=True)
    assert bound <= float(mp.log(abs(lfun.deriv_LS(s, chi, S)))) + 1e-12
    assert (bound == -math.inf) == (s == -0.3)


def test_digits_at_the_floor_is_accepted(capsys):
    code, out = run_cli(capsys, "lfun", "--chi=-4", "--s=1", "--S=2", "--digits=15", "--json")
    assert code == 0 and abs(json.loads(out)["result"]["value"] - math.pi / 4) < 1e-15


VOLS = {"--vol-m0", "--vol-m1", "--vol-m2", "--vol-mp", "--vol-g"}
SHINTANI = {"--S", "--cache", "--X"}
OPTIONS = {
    "coeff": SHINTANI | VOLS | {"--digits", "--group", "--orbit", "--alpha", "--form"},
    "diff": SHINTANI | VOLS | {"--digits", "--orbit", "--alpha", "--form"},
    "shintani": SHINTANI | {"--alpha"},
    "lfun": {"--S", "--digits", "--chi", "--s", "--deriv", "--laurent"},
    "orbits": {"--S", "--group"},
    "weights": {"--S", "--seed", "--which", "--nu", "--u", "--T", "--engine"},
    "chars": {"--S", "--cubic"},
    "selftest": {"--cache", "--quick", "--criteria"},
}


def test_each_subcommand_has_only_the_flags_it_reads():
    import argparse

    from tracecoef.cli import build_parser

    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    got = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
           for name, p in sub.choices.items()}
    assert got == {name: opts | {"--json"} for name, opts in OPTIONS.items()}


def test_chars_covers_every_square_class_of_a_large_S(capsys):
    """{oo,2,3,5,7} has 2 * 8 * 4^3 = 1024 square classes; the largest
    representative the scan needs is 65310."""
    code, out = run_cli(capsys, "chars", "--S", "2,3,5,7", "--json")
    classes = json.loads(out)["result"]["square_classes"]
    assert code == 0 and len(set(classes)) == 1024 and max(map(abs, classes)) == 65310


@pytest.mark.parametrize("argv, code", [(["chars", "--S", "2", "--json"], 0),
                                        (["chars", "--S", "4", "--json"], 2)])
def test_package_runs_as_module(argv, code):
    """python -m tracecoef prints the bytes and exits with the code of
    python -m tracecoef.cli, for a document and for a usage error."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(tracecoef.__file__))}
    env.pop("TRACECOEF_CACHE", None)
    package, cli = (subprocess.run([sys.executable, "-m", mod, *argv], env=env, capture_output=True)
                    for mod in ("tracecoef", "tracecoef.cli"))
    assert (package.returncode, package.stdout) == (cli.returncode, cli.stdout)
    assert package.returncode == code and package.stdout
