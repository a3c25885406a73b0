"""The binary L-value cache file, and the side index `<path>.idx` that
earlier versions kept beside a JSON-lines cache.

The binary file is read whole on every open, one CRC-32 per batch, so a
leftover index is never read: whatever happened to the file or the index,
a read serves what a read of the file alone serves.  A batch that fails its
CRC or is cut short loses its own records only, with one warning.  A file
that does not start with a batch, such as a JSON-lines cache of an earlier
version or a batch-1 file, which held a digits column, is refused (exit 2)
and left as it is.  tests/l1cache.py writes and reads the layout with
struct alone, and applies README's rule, the first plausible record of each
D, to a dict, as the oracle.
"""
import contextlib
import io
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import l1cache
from tracecoef import cli
from tracecoef.cli import JsonlCache, main

SHINTANI = ["shintani", "--S", "2", "--X", "2000", "--json"]
DS = list(range(-2000, 2001))
GOLDEN_JSONL = Path(__file__).parent / "golden" / "l1cache-shintani-alpha-1-S2.jsonl"


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
        copy = Path(d) / "copy.bin"
        if os.path.exists(path):
            shutil.copyfile(path, copy)
        return _served(copy, Ds)


def _run(path, alpha="-1", argv=SHINTANI):
    """(exit code, stdout) of a shintani run on the cache path."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--alpha", alpha, "--cache", str(path)])
    return code, out.getvalue()


def _checksum(data: bytes) -> str:
    """The checksum of the earlier index: CRC-32 and Adler-32, 16 hex digits."""
    return f"{zlib.crc32(data):08x}{zlib.adler32(data):08x}"


def _old_index(path, L1=9.0):
    """Write `<path>.idx` as earlier versions did, for the whole file as it is
    now, claiming the L1 L1 for each of its D: an index that those versions
    would have trusted."""
    data = path.read_bytes()
    Ds = sorted({D for D, _ in l1cache.records(data)})
    head = json.dumps({"format": "tracecoef L(1) index 3", "n": len(data),
                       "checksum": _checksum(data)}).encode()
    body = b"".join(np.array(col, dt).tobytes() for col, dt in
                    ((Ds, "<i8"), ([L1] * len(Ds), "<f8"), ([15] * len(Ds), "<i8")))
    rest = head + b"\n" + body
    Path(f"{path}.idx").write_bytes(_checksum(rest).encode() + b"\n" + rest)


def _filled(tmp_path, name="cache.bin", alphas=("-1", "3")):
    """A cache of one batch per cold run of alphas, with an index beside it."""
    path = tmp_path / name
    for alpha in alphas:
        assert _run(path, alpha)[0] == 0
    assert len(l1cache.batches(path.read_bytes())) == len(alphas)
    _old_index(path)
    return path


def _first_batch_end(data: bytes) -> int:
    return l1cache.HEAD + 16 * len(l1cache.batches(data)[0])


def _edit_one_byte_in_place(path):
    # a high byte of the first L1 of the first batch; same size, same mtime
    data = bytearray(path.read_bytes())
    st_ = os.stat(path)
    data[l1cache.HEAD + 8 * len(l1cache.batches(bytes(data))[0]) + 6] ^= 0x10
    with open(path, "r+b") as fh:
        fh.write(data)
    os.utime(path, ns=(st_.st_atime_ns, st_.st_mtime_ns))
    assert os.stat(path).st_size == st_.st_size


def _truncate_index(path):
    idx = Path(f"{path}.idx")
    idx.write_bytes(idx.read_bytes()[:-20])


def _flip_column_byte(path):
    # a high byte of the fourth L1 of the index
    idx = Path(f"{path}.idx")
    data = bytearray(idx.read_bytes())
    body = data.index(b"\n", data.index(b"\n") + 1) + 1
    data[body + (len(data) - body) // 3 + 3 * 8 + 6] ^= 0x10
    idx.write_bytes(bytes(data))


def _truncate_file(path):
    # at the end of the first batch
    data = path.read_bytes()
    path.write_bytes(data[:_first_batch_end(data)])


def _truncate_file_mid_batch(path):
    data = path.read_bytes()
    path.write_bytes(data[:(_first_batch_end(data) + len(data)) // 2])


STALE = {  # the ids name a batch a line, as the JSON-lines cache had one record a line
    "in-place edit, same size and mtime": _edit_one_byte_in_place,
    "truncated index": _truncate_index,
    "flipped column bytes": _flip_column_byte,
    "file truncated below n": _truncate_file,
    "file truncated mid-line": _truncate_file_mid_batch,
}


@pytest.mark.parametrize("spoil", STALE.values(), ids=list(STALE))
def test_stale_index_is_never_trusted(tmp_path, spoil):
    """An index beside the file changes nothing, however file or index were
    spoiled since: the batch spoiled loses its records, with one warning."""
    path = _filled(tmp_path)
    spoil(path)
    want = _served_without_index(path)
    assert _served(path) == want and 9.0 not in want[0]
    spoiled_batch = spoil in (_edit_one_byte_in_place, _truncate_file_mid_batch)
    assert want[2] == ("warning: skipping 1 corrupt or cut-short L(1) cache batches\n"
                       if spoiled_batch else "")


def test_index_of_another_cache_is_not_trusted(tmp_path):
    path = _filled(tmp_path)
    other = _filled(tmp_path, "other.bin", alphas=("3",))
    shutil.copyfile(f"{other}.idx", f"{path}.idx")
    assert _served(path) == _served_without_index(path) != _served(other)


def test_file_deleted_while_index_remains(tmp_path):
    """Deleted: nothing is served, and a read creates no file.  Written again
    by a cold run: the old index is not trusted for the bytes it covered."""
    path = _filled(tmp_path)
    path.unlink()
    looked, held, err = _served(path)
    assert set(looked) == {None} and set(held) == {None} and err == ""
    assert not path.exists()
    assert _run(path)[0] == 0
    assert _served(path) == _served_without_index(path)


def test_read_only_directory_writes_no_index(tmp_path, monkeypatch):
    """A warm run opens nothing for writing: where every write is refused it
    prints the cold run's bytes and exits 0, and the directory keeps its files."""
    path = _filled(tmp_path)
    cold = _run(path)
    real_open = open

    def refused(file, mode="r", *args, **kwargs):
        if set(mode) & set("wax+"):
            raise PermissionError(13, "Permission denied", str(file))
        return real_open(file, mode, *args, **kwargs)
    monkeypatch.setattr(cli, "open", refused, raising=False)
    for _ in range(2):
        assert _run(path) == cold
    assert sorted(os.listdir(tmp_path)) == ["cache.bin", "cache.bin.idx"]


@pytest.mark.parametrize("line", [
    "not json", '{"D": -3, "L1": 1, "digits": 15, "method": "class-number-formula"}',
    '{"D": -3, "L1": 0.5, "digits": 15, "method": "class-number-formula", "x": 0}',
    '{"D": -3, "L1": 0.5, "digits": 15}',
    '{"D": "-3", "L1": 0.5, "digits": 15, "method": "class-number-formula"}',
    '{"D": 9223372036854775808, "L1": 0.5, "digits": 15, "method": "class-number-formula"}',
    '{"D": -3, "L1": 0.5, "digits": true, "method": "class-number-formula"}',
    '{"D": -3, "L1": 0.5, "digits": 15, "method": 7}'])
def test_no_index_over_a_corrupt_line_or_another_shape(tmp_path, line):
    """A JSON-lines file, whatever its lines, is no cache: a read raises
    ValueError naming the path, a run exits 2 with that usage error, and the
    file keeps its bytes, with no index beside it."""
    path = tmp_path / "cache.jsonl"
    path.write_text(line + "\n" + json.dumps({"D": -4, "L1": 0.78, "digits": 15,
                                              "method": "class-number-formula"}) + "\n")
    data = path.read_bytes()
    with pytest.raises(ValueError, match="not an L\\(1\\) cache file"):
        JsonlCache(str(path))
    code, out = _run(path)
    assert code == 2 and json.loads(out)["error"]["message"].startswith(f"{path} is not an L(1)")
    assert path.read_bytes() == data and os.listdir(tmp_path) == ["cache.jsonl"]


def test_json_lines_cache_of_an_earlier_version_is_refused(tmp_path):
    """The cache file that the last JSON-lines version wrote, with its index:
    exit 2, the message says to delete the file or choose another path, and
    neither file changes."""
    path = tmp_path / "cache.jsonl"
    shutil.copyfile(GOLDEN_JSONL, path)
    _old_index_of_json_lines(path)
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    code, out = _run(path)
    assert code == 2
    message = json.loads(out)["error"]["message"]
    assert str(path) in message and "delete it or choose another path" in message
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_batch_1_cache_of_an_earlier_version_is_refused(tmp_path):
    """A cache of the batch-1 layout, which held the columns D, L1 and
    digits: exit 2 with the usage error that names the path, and the file
    keeps its bytes."""
    path = tmp_path / "cache.bin"
    cols = struct.pack("<3q3d3q", -4, 5, 8, 0.785398, 0.430408, 1.246450, 15, 15, 15)
    path.write_bytes(b"tracecoef L(1) batch 1 class-number-formula\n"
                     + struct.pack("<QI", 3, zlib.crc32(cols)) + cols)
    data = path.read_bytes()
    code, out = _run(path)
    assert code == 2 and json.loads(out)["error"]["message"].startswith(f"{path} is not an L(1)")
    assert path.read_bytes() == data and os.listdir(tmp_path) == ["cache.bin"]


@pytest.mark.parametrize("where", ["a directory", "in a missing directory"])
def test_cache_path_that_cannot_be_read_or_written(tmp_path, where):
    """A --cache path that cannot be read (a directory) or written (in a
    directory that does not exist): exit 2 with a usage error that names the
    path, and nothing is created."""
    path = tmp_path if where == "a directory" else tmp_path / "missing" / "cache.bin"
    code, out = _run(path)
    assert code == 2 and json.loads(out)["error"]["message"].startswith(f"{path}: cannot")
    assert os.listdir(tmp_path) == []


def _old_index_of_json_lines(path):
    data = path.read_bytes()
    head = json.dumps({"format": "tracecoef L(1) index 3", "n": len(data),
                       "checksum": _checksum(data)}).encode()
    Path(f"{path}.idx").write_bytes(_checksum(head + b"\n").encode() + b"\n" + head + b"\n")


def test_bytes_that_are_not_utf8(tmp_path):
    """Bytes that are no text are no cache either: refused with exit 2 and left
    as they are.  After a whole batch the same bytes are a corrupt stretch:
    one warning, the batch served, and a run exits 0 and appends a batch."""
    path = tmp_path / "cache.bin"
    junk = b'{"D": -3, "L1": 0.6\xff, "digits": 15}\n\xfe\xff'
    path.write_bytes(junk)
    assert _run(path)[0] == 2 and path.read_bytes() == junk
    good = l1cache.batch([(-4, 0.78)])
    path.write_bytes(good + junk)
    looked, held, err = _served(path, [-4, -3])
    assert looked == [0.78, None] and held[1] is None
    assert err == "warning: skipping 1 corrupt or cut-short L(1) cache batches\n"
    with contextlib.redirect_stderr(io.StringIO()):
        assert _run(path)[0] == 0
    data = path.read_bytes()
    assert data.startswith(good + junk) and l1cache.batches(data[len(good + junk):])


def test_index_ignored_when_it_cannot_be_read(tmp_path):
    """An index path that is a directory is not read, and nothing is written."""
    path = tmp_path / "cache.bin"
    path.write_bytes(l1cache.batch([(-4, 0.78)]))
    os.mkdir(f"{path}.idx")
    assert JsonlCache(str(path)).get(-4) == 0.78
    assert sorted(os.listdir(tmp_path)) == ["cache.bin", "cache.bin.idx"]


# -- what a cache holds, what the file holds, and the rule agree --------------

RECORDS = st.tuples(st.integers(-6, 6),
                    st.one_of(st.floats(0.01, 3.0), st.floats(-2.0, 0.0)))  # some implausible
# a step: the cache that stores (0 or 1, 1 opened before the step given below)
# a batch of plausible records, with repeated D
BATCHES = st.lists(st.tuples(st.integers(0, 1),
                             st.lists(st.tuples(st.integers(-6, 6), st.floats(0.01, 3.0)),
                                      max_size=6)),
                   max_size=8)


def _as_dict(cache: JsonlCache, Ds) -> dict:
    with contextlib.redirect_stderr(io.StringIO()):
        return {D: L1 for D in Ds if (L1 := cache.get(D)) is not None}


@settings(max_examples=120, deadline=None)
@given(st.lists(RECORDS, max_size=8), BATCHES, st.integers(0, 8))
def test_index_tail_and_whole_file_agree(seed, steps, opened):
    """On a file seeded by hand with records, some implausible, two cache
    objects on one path store random batches in turn, the second opened
    after `opened` steps: each holds the first plausible record of each D
    of the file as it read it plus its own stores after (its tail), the file
    holds every record whose D the storing object did not hold, in order,
    and a fresh read of the whole file holds the first plausible of those."""
    Ds = range(-6, 7)
    with tempfile.TemporaryDirectory() as d:
        path = str(Path(d) / "cache.bin")
        Path(path).write_bytes(l1cache.batch(seed) if seed else b"")
        written = list(seed)
        caches, held = [JsonlCache(path), None], [l1cache.first_plausible(seed), None]
        for k, (who, batch) in enumerate(steps + [(0, [])]):
            if k == min(opened, len(steps)):
                caches[1], held[1] = JsonlCache(path), l1cache.first_plausible(written)
            if not batch:
                continue
            who = who if caches[1] else 0
            caches[who].store_l1([D for D, _ in batch], [L1 for _, L1 in batch])
            for D, L1 in batch:
                if D not in held[who]:
                    held[who][D] = L1
                    written.append((D, L1))
        assert l1cache.records(Path(path).read_bytes()) == written
        for cache, want in zip(caches, held):
            assert _as_dict(cache, Ds) == want
        assert _as_dict(JsonlCache(path), Ds) == l1cache.first_plausible(written)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.lists(RECORDS, min_size=1, max_size=5), min_size=1, max_size=5),
       st.data())
def test_corrupt_or_cut_short_batch_loses_only_its_records(batches, data):
    """One byte of one batch flipped, or the last batch cut short: exactly
    that batch's records go, the later batches are read, one warning is
    printed, and a later store_l1 appends a batch that reads back.  A flip in
    the magic of the first batch makes the file no cache: refused."""
    blobs = [l1cache.batch(b) for b in batches]
    k = data.draw(st.integers(0, len(blobs) - 1))
    if data.draw(st.booleans()):
        blob = bytearray(blobs[k])
        i = data.draw(st.integers(0, len(blob) - 1))
        blob[i] ^= data.draw(st.integers(1, 255))
        blobs[k] = bytes(blob)
    else:
        k = len(blobs) - 1
        blobs[k] = blobs[k][:data.draw(st.integers(1, len(blobs[k]) - 1))]
    kept = [rec for j, b in enumerate(batches) if j != k for rec in b]
    Ds = range(-6, 8)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "cache.bin"
        path.write_bytes(b"".join(blobs))
        if not path.read_bytes().startswith(l1cache.MAGIC):
            assert k == 0
            with pytest.raises(ValueError):
                JsonlCache(str(path))
            return
        warning = "warning: skipping 1 corrupt or cut-short L(1) cache batches\n"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            cache = JsonlCache(str(path))
        assert err.getvalue() == warning
        assert _as_dict(cache, Ds) == l1cache.first_plausible(kept)
        size = path.stat().st_size
        cache.store_l1([7], [1.5])  # a D of no batch
        assert l1cache.records(path.read_bytes()[size:]) == [(7, 1.5)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            again = JsonlCache(str(path))
        assert err.getvalue() == warning
        assert _as_dict(again, Ds) == l1cache.first_plausible(kept + [(7, 1.5)])


# -- two processes share one cache file ---------------------------------------

ROUNDS = 30
CHILD = r"""
import sys
import numpy as np
from tracecoef.cli import JsonlCache
path, me = sys.argv[1], int(sys.argv[2])
for r in range(ROUNDS):
    Ds = np.arange(-400, 0) + 7 * r if me else np.arange(-200, 200) + 5 * r
    L1s = 0.5 + (Ds % 97) / 100 + me / 1e3
    JsonlCache(path).store_l1(Ds, L1s)
    assert not np.isnan(JsonlCache(path).lookup_l1(Ds)).any(), r
""".replace("ROUNDS", str(ROUNDS))


def test_two_processes_share_one_cache(tmp_path):
    """Exactly two child processes store to and read one file at once: every
    batch is whole, with its CRC, no D stored is lost, and the file is all
    there is.  A batch holds the D its process did not hold when it opened
    the file, so the sizes vary, and both may store one D."""
    path = tmp_path / "cache.bin"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    children = [subprocess.Popen([sys.executable, "-c", CHILD, str(path), str(me)], env=env,
                                 stderr=subprocess.PIPE, text=True) for me in (0, 1)]
    for child in children:
        _, err = child.communicate(timeout=300)
        assert child.returncode == 0, err
    batches = l1cache.batches(path.read_bytes())
    assert all(batches) and len(batches) <= 2 * ROUNDS
    recs = [rec for b in batches for rec in b]
    assert {(type(D), type(L1)) for D, L1 in recs} == {(int, float)}
    stored = {D for r in range(ROUNDS) for D in [*range(-400 + 7 * r, 7 * r),
                                                   *range(-200 + 5 * r, 200 + 5 * r)]}
    Ds = sorted({D for D, _ in recs})
    assert Ds == sorted(stored)
    looked, held, err = _served(path, Ds)
    assert err == "" and None not in looked
    assert held == [l1cache.first_plausible(recs)[D] for D in Ds]
    assert os.listdir(tmp_path) == ["cache.bin"]


NO_MA = r"""
import sys
from tracecoef.cli import main
code = main(["shintani", "--S", "2", "--X", "2000", "--json", "--cache", sys.argv[1],
             "--alpha", sys.argv[2]])
assert code == 0 and "numpy.ma" not in sys.modules, code
"""


def test_cold_and_warm_runs_never_load_numpy_ma(tmp_path):
    """A cold, a warm and a half-warm shintani run (another alpha, whose
    misses join the records held), each in a fresh process, never import
    numpy.ma, which np.isin on a sparse D range and np.unique without
    return_index load (about 1 MB of resident memory)."""
    path = tmp_path / "cache.bin"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for run, alpha in (("cold", "-1"), ("warm", "-1"), ("half-warm", "3")):
        child = subprocess.run([sys.executable, "-c", NO_MA, str(path), alpha], env=env,
                               capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, (run, child.stderr)
    assert len(l1cache.batches(path.read_bytes())) == 2
