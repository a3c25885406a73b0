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
import zlib
from fractions import Fraction

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
# Binary L-value cache
# ---------------------------------------------------------------------------

# a batch: _MAGIC, the record count n (8 bytes), the CRC-32 of the columns (4
# bytes), then the n D and the n L1, all little-endian
_MAGIC = b"tracecoef L(1) batch 2 class-number-formula\n"
_HEAD = len(_MAGIC) + 12


def _batch(D, L1) -> bytes:
    """The batch of the int64 and float64 columns D and L1."""
    cols = np.stack((D, L1.view(np.int64))).astype("<i8", copy=False).tobytes()
    return b"".join((_MAGIC, len(D).to_bytes(8, "little"),
                     zlib.crc32(cols).to_bytes(4, "little"), cols))


def _batches(data: bytes) -> tuple[np.ndarray, int]:
    """The (2, n) int64 columns of the whole batches of data in order, and
    the number of stretches skipped: a batch that fails its CRC or is cut
    short, or bytes between batches.  A skip resumes at the next _MAGIC.
    zlib is loaded with numpy already; hashlib would load OpenSSL, 3.5 MB of
    resident memory."""
    view, cols, skipped, i = memoryview(data), [], 0, 0
    while 0 <= i < len(data):
        n = int.from_bytes(view[i + len(_MAGIC):i + _HEAD - 4], "little")
        end = i + _HEAD + 16 * n
        if (data.startswith(_MAGIC, i) and end <= len(data) and zlib.crc32(view[i + _HEAD:end])
                == int.from_bytes(view[i + _HEAD - 4:i + _HEAD], "little")):
            cols.append(np.frombuffer(data, "<i8", 2 * n, i + _HEAD).reshape(2, n))
            i = end
        else:
            skipped += 1
            i = data.find(_MAGIC, i + 1)
    return np.concatenate(cols, axis=1) if cols else np.empty((2, 0), "<i8"), skipped


def _find(keys: np.ndarray, Ds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each D of Ds, where it is or would go in the sorted keys, and
    whether keys holds it.  np.searchsorted, not np.isin: on a sparse range
    of D np.isin loads numpy.ma, about 1 MB of resident memory."""
    i = np.minimum(np.searchsorted(keys, Ds), max(len(keys) - 1, 0))
    return i, keys[i] == Ds if len(keys) else np.zeros(len(Ds), bool)


class JsonlCache:
    """Append-only binary cache of L(1,chi_D) records (D, L1) of the
    class-number formula: batches of the columns D and L1, each with a
    CRC-32 (the class name is historical; the file once held JSON lines).  A
    file that is not empty and does not start with _MAGIC is refused with
    ValueError, and never written.  A batch that fails its CRC or is cut
    short yields no record, with one warning per read.

    The record held for D is the first plausible one written, plausible
    meaning a finite L1 > 0, as L(1, chi_D) is for every real primitive
    chi_D; a record is appended only for a D that has none.  The records
    held are numpy columns sorted by D.  lookup_l1 and store_l1 are the bulk
    forms of get and put."""

    def __init__(self, path: str | None):
        self.path = path
        data = b""
        try:
            if path and os.path.exists(path):
                with open(path, "rb") as fh:
                    data = fh.read()
        except OSError as e:
            raise ValueError(f"{path}: cannot read the cache ({e.strerror})") from None
        if data and not data.startswith(_MAGIC):
            raise ValueError(f"{path} is not an L(1) cache file of this version (earlier versions "
                             "wrote JSON lines or batch 1); delete it or choose another path")
        cols, skipped = _batches(data)
        if skipped:
            print(f"warning: skipping {skipped} corrupt or cut-short L(1) cache batches",
                  file=sys.stderr)
        D, L1 = cols[0], cols[1].view("<f8")
        ok = (L1 > 0) & (L1 < np.inf)
        self._D, first = np.unique(D[ok], return_index=True)  # sorted, the first of each D
        self._L1 = L1[ok][first]
        self._bad = np.sort(D[~ok])  # the D of implausible records

    def get(self, D: int):
        """The L1 held for D, or None."""
        return None if np.isnan(L1 := self.lookup_l1([D])[0]) else float(L1)

    def put(self, D: int, L1: float):
        """store_l1 of the one record (D, L1)."""
        self.store_l1([D], [L1])

    def lookup_l1(self, Ds) -> np.ndarray:
        """For each D of Ds, the L1 held for D, nan if none.  One warning
        counts those whose only records are implausible."""
        Ds = np.asarray(Ds, dtype=np.int64)
        i, held = _find(self._D, Ds)
        if bad := np.count_nonzero(_find(self._bad, Ds)[1] & ~held):
            print(f"warning: recomputing {bad} implausible L(1) cache records", file=sys.stderr)
        L1 = np.full(len(Ds), np.nan)
        L1[held] = self._L1[i[held]]
        return L1

    def store_l1(self, Ds, L1s):
        """Store the records (D, L1) of the columns Ds and L1s whose D is not
        held yet, the first of each D, in order, with one append of one batch;
        an L1 that is not plausible raises ValueError before anything is
        stored."""
        Ds, L1s = np.asarray(Ds, dtype=np.int64), np.asarray(L1s, dtype=np.float64)
        if not ((L1s > 0) & (L1s < np.inf)).all():
            raise ValueError("an L1 that is not a finite float > 0 is not stored")
        new, first = np.unique(Ds, return_index=True)
        first = np.sort(first[~_find(self._D, new)[1]])
        if not len(first):
            return
        if self.path:
            try:
                with open(self.path, "ab", buffering=0) as fh:  # one write, with O_APPEND
                    fh.write(_batch(Ds[first], L1s[first]))
            except OSError as e:
                raise ValueError(f"{self.path}: cannot write the cache ({e.strerror})") from None
        D = np.concatenate((self._D, Ds[first]))
        order = np.argsort(D)
        self._D, self._L1 = D[order], np.concatenate((self._L1, L1s[first]))[order]


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


def _entries(text: str, flag: str, names: str, conv=float) -> list:
    """The comma-separated entries of the list flag, one for each of names."""
    entries = _parse_list(text, conv)
    if len(entries) != len(names.split(",")):
        raise UsageError(f"{flag} needs the entries {names}, got {text!r}")
    return entries


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
        return SymForm2(*_entries(args.form, "--form", "a,b,c", Fraction))
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
    chi = QuadChar(args.chi)
    out: dict = {"command": "lfun",
                 "inputs": {"chi": args.chi, "S": str(S), "s": args.s,
                            "digits": args.digits}}
    if args.laurent:
        ld = lfun.laurent_at_1(chi, S, args.digits)
        out["result"] = {"center": 1.0, "residue": ld.residue, "c0": ld.c0, "c1": ld.c1}
        return out
    key, fn = ("derivative", lfun.deriv_LS) if args.deriv else ("value", lfun.LS)
    beyond = UsageError(f"--s {args.s}: the {key} is beyond the float64 range of the output")
    # a value or derivative that surely overflows is refused before the kernel runs at 1 - s
    if (args.s < 0 and lfun.log_abs_LS_lower_bound(args.s, chi, S, args.deriv)
            > math.log(sys.float_info.max)):
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
    T = wmod.TruncParam(*_entries(args.T, "--T", "T1,T2"))
    u = Fraction(args.u) if args.u is not None else None
    gl3 = wmod.FACTORS[args.which][3] == 3
    entries = _entries(args.nu, "--nu", "n12,n13,n23" if gl3 else "n12,n13,n14,n24", Fraction)
    nu = (wmod.Nu3Entries if gl3 else wmod.NuEntries)(*entries, S)
    result = wmod.factor_check(args.which, nu, T, u, engine=args.engine, seed=args.seed)
    return {
        "command": "weights",
        "inputs": {"which": args.which, "nu": entries, "u": u, "T": [T.T1, T.T2], "S": str(S)},
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
    known = [*selfcheck.CRITERIA, 11]
    ids = _parse_list(args.criteria, int) if args.criteria else known
    if unknown := sorted(set(ids) - set(known)):
        raise UsageError(f"--criteria: unknown ids {unknown}; the valid ids are {known}")
    rest = [i for i in ids if i != 11]  # run_criteria([]) would run them all
    results = selfcheck.run_criteria(rest, quick=args.quick, cache=cache) if rest else []
    if 11 in ids:
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
