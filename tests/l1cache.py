"""The L(1) cache file as README lays it out, written and read with struct
alone, apart from tracecoef.cli: the oracle of the cache tests.

A file is a sequence of batches.  A batch is MAGIC, the record count n (8
bytes), the CRC-32 of the columns (4 bytes), then the columns: n D, n L1 and
n digits, each 8 bytes, all little-endian.
"""
import json
import struct
import zlib

METHOD = "class-number-formula"
MAGIC = f"tracecoef L(1) batch 1 {METHOD}\n".encode()
HEAD = len(MAGIC) + 12


def batch(records) -> bytes:
    """The batch of the records (D, L1, digits)."""
    n = len(records)
    cols = struct.pack(f"<{n}q{n}d{n}q", *(x for col in zip(*records) for x in col))
    return MAGIC + struct.pack("<QI", n, zlib.crc32(cols)) + cols


def batches(data: bytes) -> list:
    """The records (D, L1, digits) of each batch of data, which must hold whole
    batches only, each with its CRC."""
    out, i = [], 0
    while i < len(data):
        assert data.startswith(MAGIC, i), i
        n, crc = struct.unpack_from("<QI", data, i + len(MAGIC))
        cols = data[i + HEAD:i + HEAD + 24 * n]
        assert len(cols) == 24 * n and zlib.crc32(cols) == crc, i
        values = struct.unpack(f"<{n}q{n}d{n}q", cols)
        out.append(list(zip(values[:n], values[n:2 * n], values[2 * n:])))
        i += HEAD + 24 * n
    return out


def records(data: bytes) -> list:
    """The records of data, in the order written."""
    return [rec for recs in batches(data) for rec in recs]


def jsonl(recs) -> str:
    """The JSON lines that earlier versions wrote for the records recs; the
    shortest round-trip repr of a float keeps its bits."""
    return "".join(json.dumps({"D": D, "L1": L1, "digits": digits, "method": METHOD},
                              sort_keys=True) + "\n" for D, L1, digits in recs)


def outranks(new, old) -> bool:
    """README's rule for two records of one D, new written after old: a
    plausible L1 (finite and > 0) outranks an implausible one, then the most
    digits wins, then the later record."""
    def rank(rec):
        return (0 < rec[1] < float("inf"), rec[2])
    return old is None or rank(new) >= rank(old)


def held_by_rule(recs, held=None) -> dict:
    """D -> the record held for D after the records recs, written in order
    after those of held."""
    held = dict(held or {})
    for rec in recs:
        if outranks(rec, held.get(rec[0])):
            held[rec[0]] = rec
    return held
