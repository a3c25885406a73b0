"""Command-line front end: deterministic JSON output and the L-value cache.

Subcommands: coeff, shintani, lfun, orbits, weights, chars, selftest.
Every run prints one JSON document to stdout (pretty by default, compact
with --json); reruns with identical inputs and a warm cache are
byte-identical.  Each subcommand takes only the shared flags it reads.
Exit codes: 0 success, 2 usage error, 3 numeric instability (with a
machine-readable error object).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile
import zlib
from fractions import Fraction
from operator import itemgetter

import numpy as np
from mpmath import mpf, mpc

from .arith import PlaceSet, cclass_reps, sclass_reps
from .characters import enum_cubic_chars, enum_quad_chars, QuadChar
from . import lfun
from .coeff import GROUPS, CoeffResult, VolumeParams, coeff_unipotent, endoscopic_diff
from .quadforms import OrbitClass, SymForm2, subregular_type, unipotent_orbit_set
from .shintani import require_X, shintani_run
from . import weights as wmod
from . import selfcheck

CACHE_ENV = "TRACECOEF_CACHE"


# ---------------------------------------------------------------------------
# Deterministic JSON rendering
# ---------------------------------------------------------------------------

def _plain(obj):
    if isinstance(obj, (str, int)) or obj is None:  # bool is an int
        return obj
    if isinstance(obj, float):
        return "nan" if obj != obj else obj  # NaN is not valid JSON
    if isinstance(obj, dict):
        return {str(k): _plain(obj[k]) for k in sorted(obj, key=str)}
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, mpf):
        return float(obj)
    if isinstance(obj, mpc):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _plain(dataclasses.asdict(obj))
    if isinstance(obj, (frozenset, set)):
        return sorted(_plain(x) for x in obj)
    return str(obj)


def render_json(obj, pretty=True) -> str:
    doc = _plain(obj)
    if pretty:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    return json.dumps(doc, separators=(",", ":"), sort_keys=True, allow_nan=False)


def _coeff_doc(res: CoeffResult) -> dict:
    return {
        "terms": [
            {
                "prefactor": t.prefactor,
                "volume": t.volume,
                "factors": [{"name": n, "value": v} for n, v in t.factors],
                "value": t.value,
            }
            for t in res.terms
        ],
        "value": res.value,
        "error": res.error,
        "provenance": res.provenance,
        "notes": res.notes,
    }


# ---------------------------------------------------------------------------
# JSON-lines L-value cache
# ---------------------------------------------------------------------------

# the columns of the records held, 8 bytes each
_COLS = (("D", "<i8"), ("L1", "<f8"), ("digits", "<i8"))
_IDX_FORMAT = "tracecoef L(1) index 3"  # D, L1, digits columns
_METHOD = "class-number-formula"  # the method of the records held and written
_CORRUPT = (ValueError, KeyError, TypeError, OverflowError)


def _l1_lines(Ds, L1s, digits: int) -> str:
    """The L(1) records of the columns Ds and L1s (ints and finite floats), one
    a line, as json.JSONEncoder(sort_keys=True, allow_nan=False) writes them."""
    cols = [None] * (2 * len(Ds))
    cols[::2], cols[1::2] = Ds, L1s
    line = '{"D": %%d, "L1": %%r, "digits": %d, "method": "%s"}\n' % (digits, _METHOD)
    return line * len(Ds) % tuple(cols)


def _l1_columns(recs: list) -> tuple:
    """The columns of _COLS of the records of recs whose method is _METHOD:
    each record has the keys D, L1, digits and method only, D and digits ints
    of 64 bits, L1 a float and method a str; for any other, an exception of
    _CORRUPT.  A record of another method, as earlier versions wrote, is well
    formed but never held."""
    if not set(map(len, recs)) <= {4}:  # then itemgetter finds the four keys, or raises
        raise ValueError("not an L(1) record")
    cols = [list(map(itemgetter(name), recs)) for name in ("D", "L1", "digits", "method")]
    for col, kind in zip(cols, (int, float, int, str)):
        if not set(map(type, col)) <= {kind}:  # bool is not int here
            raise ValueError("not an L(1) record")
    mine = np.array([m == _METHOD for m in cols[3]], bool)
    return tuple(np.array(col, dt)[mine] for col, (_, dt) in zip(cols, _COLS))


def _checksum(data: bytes) -> str:
    """The CRC-32 and Adler-32 of data, 16 hex digits.  zlib is loaded with
    numpy already; hashlib would load OpenSSL, 3.5 MB of resident memory."""
    return f"{zlib.crc32(data):08x}{zlib.adler32(data):08x}"


def _parse_lines(data: bytes) -> tuple[tuple, bool]:
    """The _l1_columns of the L(1) records of data, one a line, warning about
    each other line, and whether there were none such."""
    text = data.decode("utf-8", "replace").replace("\r\n", "\n").replace("\r", "\n")
    lines = [line for line in map(str.strip, text.split("\n")) if line]
    try:  # one parse of the whole file
        recs = json.loads("[" + ",".join(lines) + "]")
        if len(recs) == len(lines):  # else not one record per line
            return _l1_columns(recs), True
    except _CORRUPT:
        pass
    recs = []
    for line in lines:  # parse each line
        try:
            rec = json.loads(line)
            _l1_columns([rec])
            recs.append(rec)
        except _CORRUPT:
            print(f"warning: skipping corrupt cache line: {line[:60]}", file=sys.stderr)
    return _l1_columns(recs), len(recs) == len(lines)


def _ranked(cols: dict):
    """For records in the order they were written: whether each outranks every
    earlier record of its D, and the index of the record held for each D, by
    increasing D.  A plausible L1 (a finite float > 0) outranks an implausible
    one, then the most digits wins, and ties go to the later one."""
    L1, D = cols["L1"], cols["D"]
    ranks = (cols["digits"], (L1 > 0) & (L1 < np.inf), D)  # lexsort: the last key first
    order = np.lexsort(ranks)  # stable: records that tie stay in written order
    above = np.zeros(len(L1), bool)  # order[i] ranks above order[i - 1]
    for k in ranks:
        above[1:] |= k[order][1:] != k[order][:-1]
    rank = np.empty(len(L1), np.int64)
    rank[order] = np.cumsum(above)  # increases with D
    by_D = np.argsort(D, kind="stable")
    outranks = np.empty(len(L1), bool)
    outranks[by_D] = rank[by_D] == np.maximum.accumulate(rank[by_D])
    won = by_D[outranks[by_D]]  # the last of each D is the one held
    return outranks, won[np.append(D[won][1:] != D[won][:-1], True)]


class JsonlCache:
    """Append-only cache of L(1,chi_D) records, one JSON object per line; a
    line that is not an L(1) record is corrupt, and skipped with a warning.

    Only the records of _METHOD are held.  Of the records of one D, the one
    held is the first by the rule of _ranked, on reads and on writes: a
    record is stored, and appended, only if it outranks the one held.  The
    records held are numpy columns sorted by D, which `<path>.idx` holds for
    the file's first bytes.  lookup_l1 and store_l1 are the bulk forms of get
    and put."""

    def __init__(self, path: str | None):
        self.path = path
        self._cols = {name: np.empty(0, dt) for name, dt in _COLS}
        if path and os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
            n = self._read_index(data)
            cols, clean = _parse_lines(data[n:])
            self._merge(*cols)
            # never over a half-written last line, nor over a corrupt line
            if len(data) > n and data.endswith(b"\n") and clean:
                self._write_index(data)

    def _read_index(self, data: bytes) -> int:
        """Hold the columns of `<path>.idx` if it indexes the first n bytes of
        data, and return n; else 0."""
        try:
            with open(self.path + ".idx", "rb") as fh:
                digest, head, body = fh.read().split(b"\n", 2)
            h = json.loads(head)
            n = h["n"]
            if (digest.decode() == _checksum(head + b"\n" + body)
                    and h["format"] == _IDX_FORMAT and 0 < n <= len(data)
                    and h["checksum"] == _checksum(data[:n])):
                cols = np.frombuffer(body, "<i8").reshape(len(_COLS), -1)
                self._cols = {name: col.view(dt) for (name, dt), col in zip(_COLS, cols)}
                return n
        except (OSError, ValueError, KeyError, TypeError):
            pass
        return 0

    def _write_index(self, data: bytes):
        """Write `<path>.idx` for the records held, those of the file's bytes
        data: atomically, or not at all if the directory refuses it."""
        head = json.dumps({"format": _IDX_FORMAT, "n": len(data), "checksum": _checksum(data)})
        rest = head.encode() + b"\n" + b"".join(self._cols[name].tobytes() for name, _ in _COLS)
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(self.path)))
            with os.fdopen(fd, "wb") as fh:
                fh.write(_checksum(rest).encode() + b"\n" + rest)
            os.replace(tmp, self.path + ".idx")
        except OSError:
            if tmp:
                os.unlink(tmp)

    def _merge(self, D, L1, digits) -> np.ndarray:
        """Hold the winners among the records held and the later new ones, the
        columns of _COLS; whether each new one outranks those before it."""
        if not len(D):
            return np.zeros(0, bool)
        cols = {name: np.concatenate((self._cols[name], col))
                for (name, _), col in zip(_COLS, (D, L1, digits))}
        outranks, held = _ranked(cols)
        self._cols = {name: col[held] for name, col in cols.items()}
        return outranks[len(outranks) - len(D):]

    def get(self, D: int):
        """The record held for D, or None."""
        D, held = int(D), self._cols["D"]
        i = int(np.searchsorted(held, D))
        if i < len(held) and held[i] == D:
            L1, digits = self._cols["L1"][i].item(), self._cols["digits"][i].item()
            return {"D": D, "L1": L1, "digits": digits, "method": _METHOD}

    def put(self, rec: dict):
        """store_l1 of the one L(1) record rec of _METHOD; ValueError for any other."""
        try:
            D, L1, (digits,) = _l1_columns([rec])  # no digits for another method
        except _CORRUPT as e:
            raise ValueError(f"not an L(1) record of {_METHOD}: {rec!r}") from e
        self.store_l1(D, L1, int(digits))

    def lookup_l1(self, Ds) -> np.ndarray:
        """For each D of Ds, the L1 of the record held for D if it is
        plausible, a finite float > 0 (L(1, chi_D) > 0 for every real primitive
        chi_D); nan otherwise.  One warning counts those skipped as implausible."""
        Ds, held = np.asarray(Ds, dtype=np.int64), self._cols["D"]
        if not len(held):
            return np.full(len(Ds), np.nan)
        i = np.minimum(np.searchsorted(held, Ds), len(held) - 1)
        L1 = self._cols["L1"][i]
        mine = held[i] == Ds
        ok = mine & (L1 > 0) & (L1 < np.inf)
        if bad := np.count_nonzero(mine & ~ok):
            print(f"warning: recomputing {bad} implausible L(1) cache records", file=sys.stderr)
        return np.where(ok, L1, np.nan)

    def store_l1(self, Ds, L1s, digits: int):
        """Store the L(1) records (D, L1, digits) of the columns Ds and L1s in
        order, each unless the one held for its D outranks it, with one append;
        a non-finite L1 raises ValueError before anything is stored."""
        L1s = np.asarray(L1s, dtype=np.float64)
        if not np.isfinite(L1s).all():
            raise ValueError("a non-finite L1 is not stored")
        Ds = np.asarray(Ds, dtype=np.int64)
        kept = self._merge(Ds, L1s, np.full(len(Ds), digits))
        if self.path and kept.any():
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(_l1_lines(Ds[kept].tolist(), L1s[kept].tolist(), digits))


def open_cache(path: str | None) -> JsonlCache:
    return JsonlCache(path or os.environ.get(CACHE_ENV))


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

class UsageError(ValueError):
    pass


def _parse_S(text: str | None) -> PlaceSet:
    return PlaceSet.of(*_parse_list(text or "", int))


def _parse_list(text: str, conv=float) -> list:
    return [conv(x) for x in text.split(",") if x.strip()]


_VOLS = ("vol_m0", "vol_m1", "vol_m2", "vol_mp", "vol_g")


def _vols(args) -> VolumeParams:
    return VolumeParams(**{name: getattr(args, name) for name in _VOLS})


def _digits_arg(text: str) -> int:
    """--digits: an integer of at least lfun.MIN_DIGITS, the kernel's floor."""
    try:
        n = int(text)
    except ValueError:
        n = None
    if n is None or n < lfun.MIN_DIGITS:
        raise argparse.ArgumentTypeError(f"must be an integer >= {lfun.MIN_DIGITS}, got {text!r}")
    return n


def _point_arg(text: str) -> float:
    """--s: a float of absolute value at most lfun.MAX_ABS_S."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not abs(x) <= lfun.MAX_ABS_S:  # nan too
        raise argparse.ArgumentTypeError(f"must be a number, |s| <= {lfun.MAX_ABS_S}, got {text!r}")
    return x


def _add_common(p, *, S=True, digits=False, cache=False, X=False, vols=False, seed=False):
    """--json, and each shared flag on the subcommands that read it."""
    p.add_argument("--json", action="store_true", help="compact single-line JSON output")
    if S:
        p.add_argument("--S", default="2", help="comma-separated finite primes of S (oo implicit)")
    if digits:
        p.add_argument("--digits", type=_digits_arg, default=30,
                       help=f"working precision in decimal digits (at least {lfun.MIN_DIGITS})")
    if cache:
        p.add_argument("--cache", default=None, help=f"L-value cache path (default ${CACHE_ENV})")
    if X:
        p.add_argument("--X", type=int, default=10**5, help="discriminant truncation bound")
    if vols:
        for name in _VOLS:
            p.add_argument("--" + name.replace("_", "-"), dest=name, type=float, default=1.0)
    if seed:
        p.add_argument("--seed", type=int, default=selfcheck.SEED)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tracecoef",
        description="geometric-side coefficients of the rank-2 symplectic trace formula over Q",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeff", help="unipotent orbital-integral coefficients")
    _add_common(p, digits=True, cache=True, X=True, vols=True)
    p.add_argument("--group", required=True,
                   choices=GROUPS)
    p.add_argument("--orbit", default="min", help="tri|min|sub|reg")
    p.add_argument("--alpha", default="1", help="square/cube class parameter")
    p.add_argument("--form", default=None,
                   help="a,b,c entries of the symmetric form for subregular orbits")

    p = sub.add_parser("shintani", help="Shintani zeta residue and constant term")
    _add_common(p, cache=True, X=True)
    p.add_argument("--alpha", default="-1")

    p = sub.add_parser("lfun", help="partial L-function values and Laurent data")
    _add_common(p, digits=True)
    p.add_argument("--chi", type=int, default=1,
                   help="fundamental discriminant of the character (1 = trivial)")
    p.add_argument("--s", type=_point_arg, default=2.0)
    p.add_argument("--deriv", action="store_true")
    p.add_argument("--laurent", action="store_true")

    p = sub.add_parser("orbits", help="unipotent orbit enumeration")
    _add_common(p)
    p.add_argument("--group", required=True,
                   choices=GROUPS)

    p = sub.add_parser("weights", help="weight factors, closed form and engine")
    _add_common(p, seed=True)
    p.add_argument("--which", required=True,
                   choices=list(wmod.FACTORS))
    p.add_argument("--nu", required=True, help="entries n12,n13,n14,n24 (gl3: n12,n13,n23)")
    p.add_argument("--u", default=None, help="Levi unipotent entry for the mixed cases")
    p.add_argument("--T", default="0,0")
    p.add_argument("--engine", action="store_true",
                   help="also run the numeric family-limit cross-check")

    p = sub.add_parser("chars", help="character enumeration")
    _add_common(p)
    p.add_argument("--cubic", action="store_true")

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    _add_common(p, S=False, cache=True)
    p.add_argument("--quick", action="store_true", help="reduced sizes, same checks")
    p.add_argument("--criteria", default=None, help="comma list of criterion ids")

    p = sub.add_parser("diff", help="symplectic-vs-similitude coefficient difference")
    _add_common(p, digits=True, cache=True, X=True, vols=True)
    p.add_argument("--orbit", default="min", choices=["min", "sub", "reg"])
    p.add_argument("--alpha", default="1")
    p.add_argument("--form", default=None)

    return ap


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _sub_form(args, alpha: Fraction) -> SymForm2 | None:
    """The subregular form of a coeff/diff command: --form a,b,c, else
    x_alpha for --orbit sub or sub'; None for the other orbits."""
    if args.form:
        a, b, c = _parse_list(args.form, Fraction)
        return SymForm2(a, b, c)
    if args.orbit in ("sub", "sub'"):
        return SymForm2.x_alpha(alpha)
    return None


def _param_inputs(args, form: SymForm2 | None, S: PlaceSet, alpha) -> dict:
    """alpha, or for a --form the form and the S-class of its -det instead."""
    if not (args.form and form):
        return {"alpha": alpha}
    rep = next(r.value for r in sclass_reps(S) if r.same_class(-form.det, S))
    return {"form": [form.a, form.b, form.c], "minus_det_class": rep}


def cmd_coeff(args) -> dict:
    S = _parse_S(args.S)
    vols = _vols(args)
    cache = open_cache(args.cache)
    X = require_X(args.X)
    alpha = Fraction(args.alpha)
    g = args.group
    form = _sub_form(args, alpha)
    if form is not None:  # coeff_unipotent rejects the groups without one
        orbit = OrbitClass(g, subregular_type(form, S), form)
    elif args.orbit in ("tri", "min", "reg"):
        # the rank-1 groups have a single nontrivial type
        typ = "reg" if g in ("gl2", "sl2") and args.orbit == "min" else args.orbit
        # alpha labels the classes that come in square or cube classes only
        param = typ != "tri" and g in ("sl2", "sl3", "sp2") and (g, typ) != ("sl3", "min")
        orbit = OrbitClass(g, typ, alpha if param else None)
    else:
        raise UsageError(f"unknown orbit {args.orbit!r} for group {g}")
    res = coeff_unipotent(orbit, S, vols, X, cache, args.digits)
    return {
        "command": "coeff",
        "inputs": {"group": g, "orbit": str(orbit), "S": str(S), "X": args.X,
                   "digits": args.digits, **_param_inputs(args, form, S, alpha)},
        "result": _coeff_doc(res),
    }


def cmd_shintani(args) -> dict:
    S = _parse_S(args.S)
    S.require_2("the shintani command")
    cache = open_cache(args.cache)
    X = require_X(args.X)
    alpha = Fraction(args.alpha)
    res = shintani_run(alpha, S, X, cache)
    doc = {
        "command": "shintani",
        "inputs": {"alpha": alpha, "S": str(S), "X": X},
        "result": {
            "residue_estimate": res.residue_estimate,
            "residue_exact": res.residue_exact,
            "residue_error": res.residue_error,
            "constant": res.constant_CF,
            "constant_error": res.constant_error,
            "unstable": res.unstable,
            "diagnostics": {k: res.diagnostics[k] for k in ("n_terms", "kappa_star", "kappa_hat")},
        },
    }
    if res.unstable:
        doc["error"] = {"code": "shintani-unstable",
                        "message": "the fitted residue misses the exact one by more than its "
                                   "error bar; increase X"}
    return doc


def cmd_lfun(args) -> dict:
    S = _parse_S(args.S)
    chi = None if args.chi == 1 else QuadChar(args.chi)
    out: dict = {"command": "lfun",
                 "inputs": {"chi": args.chi, "S": str(S), "s": args.s,
                            "digits": args.digits}}
    if args.laurent:
        ld = lfun.laurent_at_1(chi, S, args.digits)
        out["result"] = {"center": 1.0, "residue": ld.residue, "c0": ld.c0, "c1": ld.c1}
        return out
    key, fn = ("derivative", lfun.deriv_LS) if args.deriv else ("value", lfun.LS)
    beyond = UsageError(f"--s {args.s}: the {key} is beyond the float64 range of the output")
    # a value that surely overflows is refused before the kernel runs at 1 - s
    if (not args.deriv and args.s < 0
            and lfun.log_abs_LS_lower_bound(args.s, chi, S) > math.log(sys.float_info.max)):
        raise beyond
    out["result"] = {key: fn(args.s, chi, S, args.digits)}
    if not math.isfinite(out["result"][key]):
        raise beyond
    return out


def cmd_orbits(args) -> dict:
    S = _parse_S(args.S)
    orbits = unipotent_orbit_set(args.group, S)
    items = []
    for o in orbits:
        entry = {"type": o.type}
        if isinstance(o.param, SymForm2):
            entry["form"] = [o.param.a, o.param.b, o.param.c]
            entry["minus_det"] = -o.param.det
            entry["hasse"] = {str(v): e for v, e in o.hasse.items()}
        elif o.param is not None:
            entry["param"] = getattr(o.param, "value", o.param)
        items.append(entry)
    return {
        "command": "orbits",
        "inputs": {"group": args.group, "S": str(S)},
        "result": {"count": len(orbits), "orbits": items},
    }


def cmd_weights(args) -> dict:
    S = _parse_S(args.S)
    T1, T2 = _parse_list(args.T)
    T = wmod.TruncParam(T1, T2)
    u = Fraction(args.u) if args.u is not None else None
    entries = _parse_list(args.nu, Fraction)
    count = wmod.FACTORS[args.which][3]
    if len(entries) != count:
        raise UsageError("gl3 weights need nu = n12,n13,n23" if count == 3
                         else "symplectic weights need nu = n12,n13,n14,n24")
    nu = (wmod.Nu3Entries if count == 3 else wmod.NuEntries)(*entries, S)
    result = wmod.factor_check(args.which, nu, T, u, engine=args.engine, seed=args.seed)
    return {
        "command": "weights",
        "inputs": {"which": args.which, "nu": entries, "u": u, "T": [T1, T2], "S": str(S)},
        "result": result,
    }


def cmd_chars(args) -> dict:
    S = _parse_S(args.S)
    quad = [ch.D for ch in enum_quad_chars(S)]
    result = {"quadratic_discriminants": quad,
              "square_classes": [r.value for r in sclass_reps(S)]}
    if args.cubic:
        result["cubic_moduli"] = [ch.modulus for ch in enum_cubic_chars(S)]
        result["cube_classes"] = [r.value for r in cclass_reps(S)]
    return {"command": "chars", "inputs": {"S": str(S)}, "result": result}


def cmd_diff(args) -> dict:
    S = _parse_S(args.S)
    vols = _vols(args)
    cache = open_cache(args.cache)
    X = require_X(args.X)
    alpha = Fraction(args.alpha)
    form = _sub_form(args, alpha) if args.orbit == "sub" else None
    d = endoscopic_diff(S, args.orbit, form or alpha, vols, X, cache, args.digits)
    return {
        "command": "diff",
        "inputs": {"orbit": args.orbit, "S": str(S), **_param_inputs(args, form, S, args.alpha)},
        "result": {
            "two_path_difference": d["difference"].value,
            "predicted": _coeff_doc(d["predicted"]),
            "sp2_value": d["sp2"].value,
            "gsp2_value": d["gsp2"].value,
            "deviation": abs(d["difference"].value - d["predicted"].value),
            "error_bars": d["difference"].error,
        },
    }


def _determinism_check(cache, ids=(1, 3, 7, 10)) -> dict:
    """Criterion 11: two fresh quick runs of some criteria must render to
    identical bytes."""
    a, b = [render_json({"criteria": selfcheck.run_criteria(ids, quick=True, cache=cache)},
                        pretty=False) for _ in range(2)]
    return {
        "id": 11,
        "name": "selftest-determinism",
        "passed": a == b,
        "details": {"bytes": len(a), "reran_criteria": list(ids)},
    }


def cmd_selftest(args) -> dict:
    cache = open_cache(args.cache)
    ids = _parse_list(args.criteria, int) if args.criteria else None
    results = selfcheck.run_criteria(ids, quick=args.quick, cache=cache)
    if ids is None or 11 in (ids or []):
        results.append(_determinism_check(cache))
    table = [
        {"id": r["id"], "name": r["name"], "passed": r["passed"], "details": r["details"]}
        for r in results
    ]
    return {
        "command": "selftest",
        "inputs": {"quick": args.quick},
        "result": {
            "criteria": table,
            "all_passed": all(r["passed"] for r in results),
        },
    }


COMMANDS = {
    "coeff": cmd_coeff,
    "shintani": cmd_shintani,
    "lfun": cmd_lfun,
    "orbits": cmd_orbits,
    "weights": cmd_weights,
    "chars": cmd_chars,
    "selftest": cmd_selftest,
    "diff": cmd_diff,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        doc = COMMANDS[args.command](args)
    except (UsageError, ValueError, lfun.PoleError) as e:
        print(render_json({"error": {"code": "usage", "message": str(e)}},
                          pretty=not getattr(args, "json", False)))
        return 2
    except (wmod.FamilyLimitError, RuntimeError) as e:
        print(render_json({"error": {"code": "numeric-instability", "message": str(e)}},
                          pretty=not getattr(args, "json", False)))
        return 3
    print(render_json(doc, pretty=not args.json))
    if doc.get("error") or (
        args.command == "selftest" and not doc["result"]["all_passed"]
    ):
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
