"""CLI plumbing: JSON determinism, the cache, exit codes."""
import json
import math
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert set(r["grid_values"]) == {"0.2", "0.15", "0.1", "0.05"}


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


def test_cache_roundtrip(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    c = JsonlCache(path)
    c.put({"D": -4, "L1": 0.7853981633974483, "method": "class-number-formula", "digits": 15})
    c.put({"D": 8, "L1": 1.2, "method": "x", "digits": 15})
    c2 = JsonlCache(path)
    assert c2.get(-4)["L1"] == 0.7853981633974483
    assert c2.get(8)["L1"] == 1.2
    assert c2.get(5) is None


def test_cache_highest_digits_wins(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    with open(path, "w") as fh:
        fh.write(json.dumps({"D": -4, "L1": 0.78, "digits": 10}) + "\n")
        fh.write(json.dumps({"D": -4, "L1": 0.785398, "digits": 20}) + "\n")
        fh.write(json.dumps({"D": -4, "L1": 0.79, "digits": 10}) + "\n")
        fh.write("not json at all\n")
        fh.write(json.dumps({"D": 8, "L1": 1.1, "digits": 10}) + "\n")
        fh.write(json.dumps({"D": 8, "L1": 1.2, "digits": 10}) + "\n")
    c = JsonlCache(path)
    assert c.get(-4)["L1"] == 0.785398  # highest digits wins
    assert c.get(8)["L1"] == 1.2        # ties: last wins
    # an in-memory put with fewer digits must not clobber
    c.put({"D": -4, "L1": 0.7, "digits": 5})
    assert c.get(-4)["L1"] == 0.785398


def test_cache_store_l1_same_bytes_as_put(tmp_path):
    """One bulk append writes what the sequential puts write, with the same
    digits precedence applied to each record."""
    with open(tmp_path / "seed.jsonl", "w") as fh:
        fh.write(json.dumps({"D": -4, "L1": 0.785398, "digits": 20}) + "\n")
    Ds, L1s = [-4, 5, 8, 5], [0.7, 0.43, 0.62, 0.4304]  # -4: fewer digits, skipped; 5: tie, wins
    paths = []
    for name in ("put", "store_l1"):
        path = tmp_path / f"{name}.jsonl"
        path.write_bytes((tmp_path / "seed.jsonl").read_bytes())
        c = JsonlCache(str(path))
        if name == "put":
            for D, L1 in zip(Ds, L1s):
                c.put({"D": D, "L1": L1, "method": "m", "digits": 15})
        else:
            c.store_l1(Ds, L1s, "m", 15)
        assert c.get(-4)["L1"] == 0.785398 and c.get(5)["L1"] == 0.4304
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert len(paths[1].read_text().splitlines()) == 4


def test_cache_rejects_non_finite_record(tmp_path):
    """An L1 that is not finite is refused, not stored as a string, and
    nothing of its batch reaches the file."""
    path = tmp_path / "cache.jsonl"
    c = JsonlCache(str(path))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            c.store_l1([5, 8], [0.43, bad], "m", 15)
        with pytest.raises(ValueError):
            c.put({"D": 8, "L1": bad, "method": "m", "digits": 15})
    assert not path.exists() or path.read_text() == ""
    assert c.get(5) is None and c.get(8) is None


RECORDS = st.fixed_dictionaries({
    "D": st.integers(-10**12, 10**12),
    "L1": st.floats(allow_nan=False, allow_infinity=False),
    "method": st.text(max_size=30),
    "digits": st.integers(-10**6, 10**6),
})
OTHER_RECORDS = st.one_of(
    RECORDS.map(lambda r: {**r, "D": bool(r["D"] % 2)}),
    RECORDS.map(lambda r: {**r, "L1": r["D"]}),
    RECORDS.map(lambda r: {**r, "extra": None}),
    RECORDS.map(lambda r: {k: v for k, v in r.items() if k != "method"}),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(RECORDS, OTHER_RECORDS), max_size=8,
                unique_by=lambda r: int(r["D"])))
def test_cache_lines_are_the_encoder_bytes(recs):
    """put writes exactly what json.JSONEncoder(sort_keys=True,
    allow_nan=False) writes, for the L(1) record shape and any other."""
    enc = json.JSONEncoder(sort_keys=True, allow_nan=False)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "cache.jsonl"
        c = JsonlCache(str(path))
        for rec in recs:
            c.put(rec)
        got = path.read_text(encoding="utf-8") if recs else ""
    assert got == "".join(enc.encode(rec) + "\n" for rec in recs)


METHODS = ("class-number-formula", "smoothed-character-sum")
HELD = st.fixed_dictionaries({
    "D": st.integers(-12, 12),
    "L1": st.one_of(st.floats(), st.integers(-2, 2), st.just("0.5")),
    "method": st.sampled_from(METHODS),
    "digits": st.integers(10, 20),
})


@settings(max_examples=150, deadline=None)
@given(held=st.lists(HELD, max_size=12),
       batch=st.lists(st.tuples(st.integers(-12, 12),
                                st.floats(allow_nan=False, allow_infinity=False)), max_size=12),
       bad=st.sampled_from([None, math.nan, math.inf, -math.inf]),
       method=st.sampled_from(METHODS), digits=st.integers(12, 18))
def test_cache_bulk_agrees_with_get_and_put(held, batch, bad, method, digits):
    """lookup_l1 and store_l1 against get and sequential puts, on files that
    hold records of the other method, with more digits, with implausible L1s
    and with duplicate D: the same values served, the same records held, the
    same file bytes; a batch with a non-finite L1 is refused whole."""
    Ds, L1s = [D for D, _ in batch], [L1 for _, L1 in batch]
    if bad is not None:
        Ds, L1s = Ds + [0], L1s + [bad]
    with tempfile.TemporaryDirectory() as d:
        paths = [Path(d) / "sequential.jsonl", Path(d) / "bulk.jsonl"]
        for path in paths:
            path.write_text("".join(json.dumps(rec) + "\n" for rec in held))
        seq, bulk = (JsonlCache(str(path)) for path in paths)

        def served(rec):
            if rec is None or rec["method"] != method:
                return None
            ok = type(rec["L1"]) is float and 0 < rec["L1"] < math.inf
            return rec["L1"] if ok else None
        want = [served(seq.get(D)) for D in Ds]
        assert [None if x != x else x for x in bulk.lookup_l1(Ds, method)] == want
        if bad is None:
            for D, L1 in zip(Ds, L1s):
                seq.put({"D": D, "L1": L1, "method": method, "digits": digits})
            bulk.store_l1(Ds, L1s, method, digits)
        else:
            with pytest.raises(ValueError):
                seq.put({"D": 0, "L1": bad, "method": method, "digits": digits})
            with pytest.raises(ValueError):
                bulk.store_l1(Ds, L1s, method, digits)
        assert all(seq.get(D) == bulk.get(D) for D in range(-12, 13))
        assert paths[0].read_bytes() == paths[1].read_bytes()


def test_implausible_records_are_recomputed(tmp_path, capsys):
    """A cached L1 that is infinite (1e999 reads as inf), negative or a
    string is not served: the document prints what a cold run prints, warns
    once, and appends a record that wins on the next read."""
    path = tmp_path / "cache.jsonl"
    argv = ["shintani", "--alpha", "-1", "--S", "2", "--X", "10000", "--json"]

    def run(*cache):
        code = main(argv + list(cache))
        return code, *capsys.readouterr()
    code, clean, _ = run()
    assert code == 0
    run("--cache", str(path))
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if json.loads(line)["D"] == -4)
    for bad in ("1e999", "-0.5", '"0.5"'):
        edited = lines[:i] + [lines[i].replace(str(json.loads(lines[i])["L1"]), bad)] + lines[i + 1:]
        path.write_text("\n".join(edited) + "\n")
        code, out, err = run("--cache", str(path))
        assert (code, out) == (0, clean) and err.count("recomputing 1 implausible") == 1
        assert path.read_text().splitlines()[len(edited):] == [lines[i]]
        assert run("--cache", str(path)) == (0, clean, "")
        assert len(path.read_text().splitlines()) == len(lines) + 1


def test_cache_one_parse_keeps_the_digits_rule(tmp_path, capsys):
    """A file without corrupt lines is read in one parse, with the same
    precedence as the per-line read: most digits wins, ties go to the last."""
    path = tmp_path / "cache.jsonl"
    recs = [{"D": -4, "L1": 0.78, "digits": 10}, {"D": -4, "L1": 0.785398, "digits": 20},
            {"D": -4, "L1": 0.79, "digits": 10}, {"D": 8, "L1": 1.1}, {"D": 8, "L1": 1.2},
            {"D": "12", "L1": 0.5}]
    path.write_text("".join(json.dumps(r) + "\n\n" for r in recs))
    c = JsonlCache(str(path))
    assert (c.get(-4)["L1"], c.get(8)["L1"], c.get(12)["L1"]) == (0.785398, 1.2, 0.5)
    assert capsys.readouterr().err == ""


def test_cache_two_records_on_one_line_are_corrupt(tmp_path, capsys):
    """The whole-file parse must not accept what the per-line parse rejects."""
    path = tmp_path / "cache.jsonl"
    path.write_text(json.dumps({"D": 5, "L1": 0.4}) + "," + json.dumps({"D": 8, "L1": 0.6})
                    + "\n" + json.dumps({"D": -4, "L1": 0.78}) + "\n")
    c = JsonlCache(str(path))
    assert c.get(5) is None and c.get(8) is None and c.get(-4)["L1"] == 0.78
    assert "skipping corrupt cache line" in capsys.readouterr().err


def test_parser_reused_without_leaking_options(tmp_path, capsys):
    """main builds its parser once; options of one call do not carry over
    into the next, across subcommands.  coeff has no --l1-method, so a
    leaked one would make it fill the cache by the smoothed method."""
    from tracecoef import cli

    code, out = run_cli(capsys, "shintani", "--alpha", "-1", "--S", "2", "--X", "2000",
                        "--l1-method", "smoothed-character-sum", "--json")
    assert code == 0 and json.loads(out)["inputs"]["l1_method"] == "smoothed-character-sum"
    path = tmp_path / "cache.jsonl"
    code, out = run_cli(capsys, "coeff", "--group", "sp2", "--orbit", "sub", "--alpha", "-1",
                        "--S", "2", "--X", "2000", "--cache", str(path))
    assert code == 0 and "\n" in out.strip()          # pretty: --json did not carry over
    methods = {json.loads(line)["method"] for line in path.read_text().splitlines()}
    assert methods == {"class-number-formula"}
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
    assert os.path.exists(path)
    with open(path) as fh:
        recs = [json.loads(line) for line in fh]
    assert any(r["D"] == -4 for r in recs)


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


VOLS = {"--vol-m0", "--vol-m1", "--vol-m2", "--vol-mp", "--vol-g"}
SHINTANI = {"--S", "--cache", "--X", "--eps"}
OPTIONS = {
    "coeff": SHINTANI | VOLS | {"--digits", "--group", "--orbit", "--alpha", "--form"},
    "diff": SHINTANI | VOLS | {"--digits", "--orbit", "--alpha", "--form"},
    "shintani": SHINTANI | {"--alpha", "--l1-method"},
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
