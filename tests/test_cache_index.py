"""The binary index `<path>.idx` of the L-value cache file.

The JSON-lines file is the only source of truth: a read through an index
must serve what a read of the whole file serves, whatever happened to the
file or the index since the index was written.
"""
import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracecoef import cli
from tracecoef.cli import JsonlCache, main

METHOD = "class-number-formula"  # the method of every record held
METHODS = (METHOD, "smoothed-character-sum")  # the methods of older cache files
SHINTANI = ["shintani", "--alpha", "-1", "--S", "2", "--X", "2000", "--json"]
DS = list(range(-2000, 2001))


def _served(path, Ds=DS):
    """What a read of path serves: lookup_l1 (nan as None) and get of every D
    of Ds, and what the read and lookups print to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        c = JsonlCache(str(path))
        looked = [None if x != x else x for x in c.lookup_l1(Ds).tolist()]
    return looked, [c.get(D) for D in Ds], err.getvalue()


def _served_without_index(path, Ds=DS):
    with tempfile.TemporaryDirectory() as d:
        copy = Path(d) / "copy.jsonl"
        if os.path.exists(path):
            shutil.copyfile(path, copy)
        return _served(copy, Ds)


def _filled(tmp_path, name="cache.jsonl", argv=SHINTANI):
    """A cache filled by a cold run, and indexed by a warm read."""
    path = tmp_path / name
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--cache", str(path)]) == 0
    JsonlCache(str(path))
    assert os.path.exists(f"{path}.idx")
    return path


def test_index_written_by_a_read_and_used_by_the_next(tmp_path):
    path = _filled(tmp_path)
    idx = Path(f"{path}.idx").read_bytes()
    want = _served_without_index(path)
    JsonlCache(str(path)).lookup_l1([-4])
    assert Path(f"{path}.idx").read_bytes() == idx  # an unchanged file: no new index
    c = JsonlCache(str(path))
    assert c._read_index(path.read_bytes()) == len(path.read_bytes())
    assert _served(path) == want and want[1][DS.index(-4)]["L1"] == math.pi / 4
    # an append is parsed as the tail of the file and indexed again
    JsonlCache(str(path)).store_l1([-4, -3], [0.7853981633974484, 0.6045997880780728], 16)
    assert _served(path) == _served_without_index(path)
    assert Path(f"{path}.idx").read_bytes() != idx
    c = JsonlCache(str(path))  # the record of 16 digits outranks the one of 15
    assert c.get(-4)["digits"] == 16 and c.get(-4)["L1"] == 0.7853981633974484


def _edit_one_digit_in_place(path):
    data = bytearray(path.read_bytes())
    st_ = os.stat(path)
    i = data.index(b'"L1": 0.7') + len(b'"L1": 0.7')  # the first digit after "0.7"
    data[i] = ord("0") + (data[i] - ord("0") + 1) % 10
    with open(path, "r+b") as fh:  # same size, same mtime
        fh.write(data)
    os.utime(path, ns=(st_.st_atime_ns, st_.st_mtime_ns))
    assert os.stat(path).st_size == st_.st_size


def _truncate_index(path):
    idx = Path(f"{path}.idx")
    idx.write_bytes(idx.read_bytes()[:-20])


def _flip_column_byte(path):
    # a high byte of the fourth L1: the D, L1 and digits columns of 8 bytes
    # each follow the digest line and the header line
    idx = Path(f"{path}.idx")
    data = bytearray(idx.read_bytes())
    body = data.index(b"\n", data.index(b"\n") + 1) + 1
    data[body + (len(data) - body) // 3 + 3 * 8 + 6] ^= 0x10
    idx.write_bytes(bytes(data))


def _truncate_file(path):
    data = path.read_bytes()
    path.write_bytes(data[:data.index(b"\n", len(data) // 2) + 1])


def _truncate_file_mid_line(path):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


STALE = {
    "in-place edit, same size and mtime": _edit_one_digit_in_place,
    "truncated index": _truncate_index,
    "flipped column bytes": _flip_column_byte,
    "file truncated below n": _truncate_file,
    "file truncated mid-line": _truncate_file_mid_line,
}


@pytest.mark.parametrize("spoil", STALE.values(), ids=list(STALE))
def test_stale_index_is_never_trusted(tmp_path, spoil):
    path = _filled(tmp_path)
    spoil(path)
    assert _served(path) == _served_without_index(path)


def test_index_of_another_cache_is_not_trusted(tmp_path):
    path = _filled(tmp_path)
    other = _filled(tmp_path, "other.jsonl",
                    ["shintani", "--alpha", "2", "--S", "2", "--X", "10000", "--json"])
    shutil.copyfile(f"{other}.idx", f"{path}.idx")
    assert _served(path) == _served_without_index(path) != _served(other)


def test_file_deleted_while_index_remains(tmp_path):
    """Deleted: nothing is served.  Written again, longer and with one L1
    changed: the old index is not trusted for the bytes it covered."""
    path = _filled(tmp_path)
    data = path.read_bytes()
    path.unlink()
    assert _served(path) == _served_without_index(path)
    assert JsonlCache(str(path)).get(-4) is None
    path.write_bytes(data)
    _edit_one_digit_in_place(path)
    data = (path.read_bytes()
            + b'{"D": 1, "L1": 1.0, "digits": 15, "method": "class-number-formula"}\n')
    path.unlink()
    path.write_bytes(data)
    assert _served(path) == _served_without_index(path)


def test_read_only_directory_writes_no_index(tmp_path, monkeypatch, capsys):
    """A directory that refuses the index file costs a parse on each read,
    nothing else: the same stdout and no error."""
    path = tmp_path / "ro" / "cache.jsonl"
    path.parent.mkdir()
    argv = SHINTANI + ["--cache", str(path)]
    assert main(argv) == 0
    cold = capsys.readouterr()

    def refused(*args, **kwargs):
        raise PermissionError(13, "Permission denied")
    monkeypatch.setattr(tempfile, "mkstemp", refused)  # what a read-only directory does
    path.parent.chmod(0o555)
    try:
        for _ in range(2):
            assert main(argv) == 0
            assert capsys.readouterr() == cold
        assert os.listdir(path.parent) == ["cache.jsonl"]
    finally:
        path.parent.chmod(0o755)


@pytest.mark.parametrize("line", [
    "not json", '{"D": -3, "L1": 1, "digits": 15, "method": "class-number-formula"}',
    '{"D": -3, "L1": 0.5, "digits": 15, "method": "class-number-formula", "x": 0}',
    '{"D": -3, "L1": 0.5, "digits": 15}',
    '{"D": "-3", "L1": 0.5, "digits": 15, "method": "class-number-formula"}',
    '{"D": 9223372036854775808, "L1": 0.5, "digits": 15, "method": "class-number-formula"}',
    '{"D": -3, "L1": 0.5, "digits": true, "method": "class-number-formula"}',
    '{"D": -3, "L1": 0.5, "digits": 15, "method": 7}'])
def test_no_index_over_a_corrupt_line_or_another_shape(tmp_path, line):
    """A line that is not an L(1) record is corrupt, whatever its method:
    such a file is parsed whole on every read, with the same warning, and
    serves the other lines."""
    path = tmp_path / "cache.jsonl"
    path.write_text(line + "\n" + json.dumps({"D": -4, "L1": 0.78, "digits": 15, "method": METHOD})
                    + "\n")
    want = _served_without_index(path, [-4, -3])
    assert want[2] == f"warning: skipping corrupt cache line: {line[:60]}\n"
    assert want[:2] == ([0.78, None], [{"D": -4, "L1": 0.78, "digits": 15, "method": METHOD}, None])
    for _ in range(2):
        assert _served(path, [-4, -3]) == want
    assert not os.path.exists(f"{path}.idx")


def test_bytes_that_are_not_utf8(tmp_path):
    """A byte that is not UTF-8 is read as U+FFFD: in a number it makes its
    line corrupt, in a method string another method, never held; the other
    records are served, and a Shintani run exits 0."""
    path = tmp_path / "cache.jsonl"
    good = json.dumps({"D": -4, "L1": 0.78, "digits": 15, "method": METHOD}).encode()
    path.write_bytes(b'{"D": -3, "L1": 0.6\xff, "digits": 15, "method": "class-number-formula"}\n'
                     b'{"D": -8, "L1": 0.6, "digits": 15, "method": "class-number-formula\xff"}\n'
                     + good + b"\n")
    looked, held, err = _served_without_index(path, [-8, -4, -3])
    assert looked == [None, 0.78, None] and held == [None, json.loads(good), None]
    assert err.count("skipping corrupt cache line") == 1
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(SHINTANI + ["--cache", str(path)]) == 0


# the earlier index formats: the five columns D, L1, digits, method and a
# record column, then the four columns D, L1, digits and method, each with a
# list of the methods whose codes the method column holds
OLD_INDEXES = {"tracecoef L(1) index 1": ([-8, -4, -3], [0.9] * 3, [20] * 3, [0] * 3, [-1] * 3),
               "tracecoef L(1) index 2": ([-8, -4, -3] * 2, [0.9] * 6, [20] * 6, [0] * 3 + [1] * 3)}


def test_index_of_the_old_format_is_ignored_and_rewritten(tmp_path):
    """An index in an earlier format, with valid checksums, is read as no
    index and replaced by one of the three columns of the records held."""
    recs = [{"D": D, "L1": 0.5 + D / 100, "digits": 15, "method": m}
            for m in METHODS for D in (-8, -4, -3)]
    for fmt, old_cols in OLD_INDEXES.items():
        path = tmp_path / f"{fmt[-1]}.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in recs))
        data = path.read_bytes()
        body = b"".join(np.array(col, "<f8" if i == 1 else "<i8").tobytes()
                        for i, col in enumerate(old_cols))
        head = json.dumps({"format": fmt, "methods": list(METHODS),
                           "n": len(data), "checksum": cli._checksum(data)}).encode()
        rest = head + b"\n" + body
        Path(f"{path}.idx").write_bytes(cli._checksum(rest).encode() + b"\n" + rest)
        want = _served_without_index(path, [-8, -4, -3])
        assert want[0] == [0.42, 0.46, 0.47]
        assert _served(path, [-8, -4, -3]) == want
        _, head, body = Path(f"{path}.idx").read_bytes().split(b"\n", 2)
        assert json.loads(head) == {"format": cli._IDX_FORMAT, "n": len(data),
                                    "checksum": cli._checksum(data)}
        assert cli._IDX_FORMAT not in OLD_INDEXES and len(body) == 3 * 8 * 3
        assert _served(path, [-8, -4, -3]) == want  # through the new index


def test_index_ignored_when_it_cannot_be_read(tmp_path):
    """An index path that is a directory is read as no index and not written."""
    path = tmp_path / "cache.jsonl"
    path.write_text(json.dumps({"D": -4, "L1": 0.78, "digits": 15, "method": METHOD}) + "\n")
    os.mkdir(f"{path}.idx")
    assert JsonlCache(str(path)).get(-4)["L1"] == 0.78
    assert sorted(os.listdir(tmp_path)) == ["cache.jsonl", "cache.jsonl.idx"]


# -- index, tail and whole-file parse agree ----------------------------------

D_SMALL = st.integers(-6, 6)
L1_RECORDS = st.fixed_dictionaries({
    "D": D_SMALL,
    "L1": st.one_of(st.floats(0.01, 3.0), st.floats(-2.0, 0.0)),  # some implausible
    "digits": st.integers(10, 20),
    "method": st.sampled_from(METHODS),
})
OTHER_SHAPES = st.one_of(
    L1_RECORDS.map(lambda r: {**r, "extra": 1}),
    L1_RECORDS.map(lambda r: {**r, "L1": 1}),
    L1_RECORDS.map(lambda r: {**r, "L1": "0.5"}),
    L1_RECORDS.map(lambda r: {**r, "D": str(r["D"])}),
    L1_RECORDS.map(lambda r: {**r, "digits": 2**63}),
    L1_RECORDS.map(lambda r: {**r, "method": None}),
    L1_RECORDS.map(lambda r: {k: v for k, v in r.items() if k != "method"}),
    L1_RECORDS.map(lambda r: {k: v for k, v in r.items() if k != "digits"}),
)
CORRUPT = st.sampled_from(["not json", "{", '{"L1": 0.5}', "[1, 2]", '"text"'])


def _line(item) -> str:
    return item if isinstance(item, str) else json.dumps(item, sort_keys=True)


@st.composite
def _files(draw):
    """Lines of a cache file, and the line at which an index is written."""
    kinds = st.one_of(L1_RECORDS, L1_RECORDS, L1_RECORDS, OTHER_SHAPES, CORRUPT,
                      st.just(""), L1_RECORDS.map(lambda r: {**r, "L1": 1e999}))
    lines = [_line(x) for x in draw(st.lists(kinds, max_size=14))]
    return lines, draw(st.integers(0, len(lines)))


def _write(path, lines):
    path.write_text("".join(line + "\n" for line in lines))


def _held_by_rule(lines) -> dict:
    """The record held for each D, by the rule written out: only L(1)
    records of METHOD count (the keys D, L1, digits and method, D and digits
    ints of 64 bits, L1 a float, method METHOD); a plausible L1 first, then
    the most digits, ties to the last."""
    held, rank = {}, {}
    for line in lines:
        try:
            rec = json.loads(line)
        except ValueError:
            continue
        if not (isinstance(rec, dict) and sorted(rec) == ["D", "L1", "digits", "method"]):
            continue
        D, L1, digits, method = rec["D"], rec["L1"], rec["digits"], rec["method"]
        if not (type(D) is int and -2**63 <= D < 2**63 and type(digits) is int
                and -2**63 <= digits < 2**63 and type(L1) is float and method == METHOD):
            continue
        r = (0 < L1 < math.inf, digits)
        if D not in rank or r >= rank[D]:
            held[D], rank[D] = rec, r
    return held


@settings(max_examples=120, deadline=None)
@given(_files(), _files())
def test_index_tail_and_whole_file_agree(file, other):
    """Three reads of one file serve the same: through an index written at
    the split line, through the stale index of another file, and with no
    index; and each holds, for each D, the record the rule picks."""
    (lines, k), Ds = file, list(range(-6, 7))
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        whole, split, stale, spare = (d / f"{n}.jsonl" for n in ("whole", "split", "stale", "spare"))
        _write(whole, lines)
        want = _served(whole, Ds)
        with contextlib.redirect_stderr(io.StringIO()):
            _write(split, lines[:k])
            JsonlCache(str(split))  # indexes the first k lines, if they allow it
            _write(spare, other[0])
            JsonlCache(str(spare))
        with split.open("a") as fh:
            fh.write("".join(line + "\n" for line in lines[k:]))
        _write(stale, lines)
        if os.path.exists(f"{spare}.idx"):
            shutil.copyfile(f"{spare}.idx", f"{stale}.idx")
        assert _served(split, Ds) == want
        assert _served(stale, Ds) == want
    held = _held_by_rule(lines)
    assert want[1] == [held.get(D) for D in Ds]


# -- two processes share one cache file ---------------------------------------

CHILD = r"""
import sys
import numpy as np
from tracecoef.cli import JsonlCache
path, me = sys.argv[1], int(sys.argv[2])
for r in range(ROUNDS):
    Ds = np.arange(-400, 0) + 7 * r if me else np.arange(-200, 200) + 5 * r
    L1s = 0.5 + (Ds % 97) / 100 + me / 1e3
    JsonlCache(path).store_l1(Ds, L1s, 15)
    assert not np.isnan(JsonlCache(path).lookup_l1(Ds)).any(), r
""".replace("ROUNDS", "30")


def test_two_processes_share_one_cache(tmp_path):
    """Exactly two child processes store to and read one file at once:
    every line is a whole record, none is lost, and a read through the
    index left behind serves what a read of the whole file serves."""
    path = tmp_path / "cache.jsonl"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    children = [subprocess.Popen([sys.executable, "-c", CHILD, str(path), str(me)], env=env,
                                 stderr=subprocess.PIPE, text=True) for me in (0, 1)]
    for child in children:
        _, err = child.communicate(timeout=300)
        assert child.returncode == 0, err
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(recs) == 2 * 30 * 400
    assert {tuple(sorted(rec)) for rec in recs} == {("D", "L1", "digits", "method")}
    assert {(type(r["D"]), type(r["L1"]), r["digits"], r["method"]) for r in recs} == {
        (int, float, 15, "class-number-formula")}
    Ds = sorted({rec["D"] for rec in recs})
    assert _served(path, Ds) == _served_without_index(path, Ds)
    assert sorted(os.listdir(tmp_path)) == ["cache.jsonl", "cache.jsonl.idx"]
