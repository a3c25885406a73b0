"""The L(1) cache file as README lays it out, written and read with struct
alone, apart from tracecoef.cli: the oracle of the cache tests.

A file is a sequence of batches.  A batch is MAGIC, the record count n (8
bytes), the CRC-32 of the columns (4 bytes), then the columns: n D and n L1,
each 8 bytes, all little-endian.
"""
import json
import struct
import zlib

METHOD = "class-number-formula"
MAGIC = f"tracecoef L(1) batch 2 {METHOD}\n".encode()
HEAD = len(MAGIC) + 12


def batch(records) -> bytes:
    """The batch of the records (D, L1)."""
    n = len(records)
    cols = struct.pack(f"<{n}q{n}d", *(x for col in zip(*records) for x in col))
    return MAGIC + struct.pack("<QI", n, zlib.crc32(cols)) + cols


def batches(data: bytes) -> list:
    """The records (D, L1) of each batch of data, which must hold whole
    batches only, each with its CRC."""
    out, i = [], 0
    while i < len(data):
        assert data.startswith(MAGIC, i), i
        n, crc = struct.unpack_from("<QI", data, i + len(MAGIC))
        cols = data[i + HEAD:i + HEAD + 16 * n]
        assert len(cols) == 16 * n and zlib.crc32(cols) == crc, i
        values = struct.unpack(f"<{n}q{n}d", cols)
        out.append(list(zip(values[:n], values[n:])))
        i += HEAD + 16 * n
    return out


def records(data: bytes) -> list:
    """The records of data, in the order written."""
    return [rec for recs in batches(data) for rec in recs]


def jsonl(recs) -> str:
    """The JSON lines that earlier versions wrote for the records recs, with
    the digits 15 and the method they stored with each; the shortest
    round-trip repr of a float keeps its bits."""
    return "".join(json.dumps({"D": D, "L1": L1, "digits": 15, "method": METHOD},
                              sort_keys=True) + "\n" for D, L1 in recs)


def first_plausible(recs, held=None) -> dict:
    """README's rule: D -> the L1 of the first plausible record (finite and
    > 0) of D among the records recs, written in order after those held."""
    held = dict(held or {})
    for D, L1 in recs:
        if 0 < L1 < float("inf"):
            held.setdefault(D, L1)
    return held
