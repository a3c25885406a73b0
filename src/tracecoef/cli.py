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
import itertools
import json
import math
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np
from mpmath import mpf, mpc

from .arith import PlaceSet, cclass_reps, sclass_reps
from .characters import enum_cubic_chars, enum_quad_chars, QuadChar
from . import lfun
from .coeff import CoeffResult, VolumeParams, coeff_unipotent, endoscopic_diff
from .quadforms import OrbitClass, SymForm2, hasse_profile, unipotent_orbit_set
from .shintani import ShintaniConfig, shintani_run
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

_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False)


def _l1_lines(Ds, L1s, digits: int, method: str) -> str:
    """The L(1) records {"D", "L1", "digits", "method"} of the columns Ds and
    L1s (ints and finite floats) as _RECORD_ENCODER writes them, one a line."""
    m = encode_basestring_ascii(method)
    return "".join([f'{{"D": {D}, "L1": {L1!r}, "digits": {digits}, "method": {m}}}\n'
                    for D, L1 in zip(Ds, L1s)])


def _record_line(rec: dict) -> str:
    """rec as _RECORD_ENCODER writes it; an L(1) record with a finite L1 goes
    through _l1_lines, anything else through the encoder."""
    D, L1, digits, method = (rec.get(k) for k in ("D", "L1", "digits", "method"))
    if (len(rec) == 4 and type(D) is type(digits) is int and type(method) is str
            and type(L1) is float and math.isfinite(L1)):
        return _l1_lines((D,), (L1,), digits, method)
    return _RECORD_ENCODER.encode(rec) + "\n"


def _parse_lines(lines) -> list:
    """(D, record) for each line that holds a record, warning about the rest."""
    out = []
    for line in lines:
        try:
            rec = json.loads(line)
            out.append((int(rec["D"]), rec))
        except (ValueError, KeyError, TypeError):
            print(f"warning: skipping corrupt cache line: {line[:60]}", file=sys.stderr)
    return out


class JsonlCache:
    """Append-only cache of L(1,chi_D) records, one JSON object per line.

    Reads tolerate duplicate keys (the record with the most digits wins,
    ties going to the last one) and skip corrupt lines with a warning.
    Writes keep the same rule: a record is stored, and appended, unless the
    one held for its D has more digits.  lookup_l1 and store_l1 are the bulk
    forms of get and put for the L(1) records of one method.
    """

    def __init__(self, path: str | None):
        self.path = path
        self._mem: dict[int, dict] = {}
        if path and os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                lines = [line for line in map(str.strip, fh) if line]
            try:  # one parse of the whole file
                keyed = [(int(rec["D"]), rec) for rec in json.loads("[" + ",".join(lines) + "]")]
            except (ValueError, KeyError, TypeError):
                keyed = []
            if len(keyed) != len(lines):  # not one record per line: parse each line
                keyed = _parse_lines(lines)
            for D, rec in keyed:
                old = self._mem.get(D)
                if old is None or rec.get("digits", 0) >= old.get("digits", 0):
                    self._mem[D] = rec

    def get(self, D: int):
        return self._mem.get(int(D))

    def put(self, rec: dict):
        """Store rec unless the record held for its D has more digits, and
        append it to the file.  rec holds plain JSON values; a non-finite
        float raises ValueError, whether or not rec would be stored."""
        D, line = int(rec["D"]), _record_line(rec)
        old = self._mem.get(D)
        if old is None or old.get("digits", 0) <= rec.get("digits", 0):
            self._mem[D] = rec
            self._append(line)

    def lookup_l1(self, Ds, method: str) -> list:
        """For each D of Ds, the L1 of the record held for D if `method` made
        it and it is plausible, a finite float > 0 (L(1, chi_D) > 0 for every
        real primitive chi_D); nan otherwise.  One warning counts the records
        of `method` skipped as implausible."""
        nan, inf = math.nan, math.inf
        out, bad = [], 0
        for rec in map(self._mem.get, Ds):
            L1 = nan
            if rec is not None and rec.get("method") == method:
                L1 = rec.get("L1")
                if type(L1) is not float or not 0.0 < L1 < inf:
                    L1, bad = nan, bad + 1
            out.append(L1)
        if bad:
            print(f"warning: recomputing {bad} implausible L(1) cache records", file=sys.stderr)
        return out

    def store_l1(self, Ds, L1s, method: str, digits: int):
        """put for the L(1) records (D, L1, method, digits) of the columns Ds
        and L1s, in order, with one append; a non-finite L1 raises ValueError
        before anything is stored."""
        L1s = np.asarray(L1s, dtype=np.float64)
        if not np.isfinite(L1s).all():
            raise ValueError("a non-finite L1 is not stored")
        Ds, L1s, mem = np.asarray(Ds, dtype=np.int64).tolist(), L1s.tolist(), self._mem
        # every record has these digits, so each is kept or not by the record held before
        keep = [old is None or old.get("digits", 0) <= digits for old in map(mem.get, Ds)]
        if not all(keep):
            Ds, L1s = list(itertools.compress(Ds, keep)), list(itertools.compress(L1s, keep))
        mem.update({D: {"D": D, "L1": L1, "method": method, "digits": digits}
                    for D, L1 in zip(Ds, L1s)})
        self._append(_l1_lines(Ds, L1s, digits, method))

    def _append(self, text: str):
        if self.path and text:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(text)


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


def _add_common(p, *, S=True, digits=False, cache=False, X=False, vols=False, seed=False):
    """--json, and each shared flag on the subcommands that read it."""
    p.add_argument("--json", action="store_true", help="compact single-line JSON output")
    if S:
        p.add_argument("--S", default="2", help="comma-separated finite primes of S (oo implicit)")
    if digits:
        p.add_argument("--digits", type=int, default=30, help="working precision in decimal digits")
    if cache:
        p.add_argument("--cache", default=None, help=f"L-value cache path (default ${CACHE_ENV})")
    if X:
        p.add_argument("--X", type=int, default=10**5, help="discriminant truncation bound")
        p.add_argument("--eps", default="0.2,0.15,0.1,0.05", help="epsilon grid, descending")
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
                   choices=["gl2", "sl2", "gl3", "sl3", "gsp2", "sp2"])
    p.add_argument("--orbit", default="min", help="tri|min|sub|reg")
    p.add_argument("--alpha", default="1", help="square/cube class parameter")
    p.add_argument("--form", default=None,
                   help="a,b,c entries of the symmetric form for subregular orbits")

    p = sub.add_parser("shintani", help="Shintani zeta grid, residue and constant term")
    _add_common(p, cache=True, X=True)
    p.add_argument("--alpha", default="-1")
    p.add_argument("--l1-method", dest="l1_method", default="class-number-formula",
                   choices=["class-number-formula", "smoothed-character-sum"])

    p = sub.add_parser("lfun", help="partial L-function values and Laurent data")
    _add_common(p, digits=True)
    p.add_argument("--chi", type=int, default=1,
                   help="fundamental discriminant of the character (1 = trivial)")
    p.add_argument("--s", type=float, default=2.0)
    p.add_argument("--deriv", action="store_true")
    p.add_argument("--laurent", action="store_true")

    p = sub.add_parser("orbits", help="unipotent orbit enumeration")
    _add_common(p)
    p.add_argument("--group", required=True,
                   choices=["gl2", "sl2", "gl3", "sl3", "gsp2", "sp2"])

    p = sub.add_parser("weights", help="weight factors, closed form and engine")
    _add_common(p, seed=True)
    p.add_argument("--which", required=True,
                   choices=["m0", "m1", "m2", "gl3-m0", "gl3-mp"])
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

def _shintani_config(args) -> ShintaniConfig:
    if hasattr(args, "digits"):  # coeff and diff
        lfun.PrecisionConfig(working_digits=args.digits)  # validates >= 15
    return ShintaniConfig(X=args.X, eps_grid=tuple(_parse_list(args.eps)),
                          L1_method=getattr(args, "l1_method", "class-number-formula"))


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
    cfg = _shintani_config(args)
    alpha = Fraction(args.alpha)
    g = args.group
    form = _sub_form(args, alpha)
    if form is not None:
        orbit = OrbitClass(g, "sub", form)  # coeff_unipotent rejects the groups without one
    elif args.orbit in ("tri", "min", "reg"):
        # the rank-1 groups have a single nontrivial type
        typ = "reg" if g in ("gl2", "sl2") and args.orbit == "min" else args.orbit
        orbit = OrbitClass(g, typ, alpha if g in ("sl2", "sl3", "sp2") else None)
    else:
        raise UsageError(f"unknown orbit {args.orbit!r} for group {g}")
    res = coeff_unipotent(orbit, S, vols, cfg, cache, args.digits)
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
    cfg = _shintani_config(args)
    alpha = Fraction(args.alpha)
    res = shintani_run(alpha, S, cfg, cache)
    doc = {
        "command": "shintani",
        "inputs": {"alpha": alpha, "S": str(S), "X": cfg.X, "eps_grid": list(cfg.eps_grid),
                   "l1_method": cfg.L1_method},
        "result": {
            "grid_values": {str(e): v for e, v in res.grid_values.items()},
            "residue_estimate": res.residue_estimate,
            "residue_exact": res.residue_exact,
            "residue_error": res.residue_error,
            "constant": res.constant_CF,
            "constant_error": res.constant_error,
            "unstable": res.unstable,
            "diagnostics": {k: res.diagnostics["constant"][k]
                            for k in ("n_terms", "kappa_star", "kappa_hat")},
        },
    }
    if res.unstable:
        doc["error"] = {"code": "shintani-unstable",
                        "message": "extrapolants disagree beyond tolerance; increase X"}
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
    if args.deriv:
        out["result"] = {"derivative": lfun.deriv_LS(args.s, chi, S, args.digits)}
        return out
    out["result"] = {"value": lfun.LS(args.s, chi, S, args.digits)}
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
            entry["hasse"] = {str(v): e for v, e in hasse_profile(o.param, S).items()}
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
    if args.which.startswith("gl3"):
        if len(entries) != 3:
            raise UsageError("gl3 weights need nu = n12,n13,n23")
        nu = wmod.Nu3Entries(*entries, S)
        if args.which == "gl3-m0":
            closed, family, dims = wmod.w_M0_gl3(nu, T), wmod.family_m0_gl3(nu, T), 2
        else:
            closed = wmod.w_Mp_gl3(nu, T, u12=u)
            family, dims = wmod.family_mp_gl3(nu, T, u12=u), 1
    else:
        if len(entries) != 4:
            raise UsageError("symplectic weights need nu = n12,n13,n14,n24")
        nu = wmod.NuEntries(*entries, S)
        if args.which == "m0":
            closed, family, dims = wmod.w_M0(nu, T), wmod.family_m0(nu, T), 2
        elif args.which == "m1":
            closed = wmod.w_M1(nu, T, u12=u)
            family, dims = wmod.family_m1(nu, T, u12=u), 1
        else:
            closed = wmod.w_M2(nu, T, u24=u)
            family, dims = wmod.family_m2(nu, T, u24=u), 1
    result = {"closed_form": closed}
    if args.engine:
        lim, err = wmod.gm_family_limit(family, dims=dims, seed=args.seed)
        result["engine_limit"] = lim
        result["engine_error"] = err
        result["deviation"] = abs(lim - closed)
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
    cfg = _shintani_config(args)
    alpha = Fraction(args.alpha)
    form = _sub_form(args, alpha) if args.orbit == "sub" else None
    d = endoscopic_diff(S, args.orbit, form or alpha, vols, cfg, cache, args.digits)
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
