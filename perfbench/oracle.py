"""Per-document oracles.

``expect`` precomputes what a document must print, during set-up and out
of timing; ``check`` compares a finished document against it and returns
a failure reason, or None when the document passes.  Each oracle takes a
route independent of the code path it checks:

- lfun at s = 1: the class number formula (``shintani.l1_class_number``);
- lfun at s = 2: mpmath's own ``dirichlet`` times the removed Euler factors,
  with characters from the Kronecker symbol computed here;
- lfun --laurent: mpmath's ``stieltjes`` and numerical derivatives of the
  removed Euler product;
- diff and weights: the document's own second path (deviation within the
  pinned tolerance, or within the error bars for subregular orbits);
- shintani: the exact residue 2^-|S| prod (p-1)/p; a warm document must be
  byte-identical to its cold run;
- coeff, orbits and chars: reference values stored in refs.json.
"""
from __future__ import annotations

import json
from fractions import Fraction

from mpmath import mp

from tracecoef import selfcheck
from tracecoef.shintani import l1_class_number

from workloads import doc_key, prime_support

ORACLE_DPS = 25
TOL_COEFF_REL = 1e-10  # stored coefficient values, relative


def kronecker(D: int, n: int) -> int:
    """(D/n) for n >= 0 by factoring n: Euler's criterion at odd primes."""
    if n == 0:
        return 1 if abs(D) == 1 else 0
    out = 1
    for p in prime_support(n):
        e, m = 0, n
        while m % p == 0:
            m //= p
            e += 1
        if p == 2:
            c = 0 if D % 2 == 0 else (1 if D % 8 in (1, 7) else -1)
        else:
            r = pow(D % p, (p - 1) // 2, p)
            c = 0 if r == 0 else (1 if r == 1 else -1)
        out *= c**e
    return out


def _primes(S: str) -> list[int]:
    return [int(p) for p in S.split(",") if p]


def _l_s2(D: int, S: str, deriv: bool) -> float:
    """L^S(2, chi_D) or its s-derivative, from mpmath's Dirichlet L-function."""
    q = abs(D)
    chi = [kronecker(D, n) for n in range(q)]
    with mp.workdps(ORACLE_DPS):
        s = mp.mpf(2)
        L = mp.dirichlet(s, chi)
        E, dlogE = mp.mpf(1), mp.mpf(0)
        for p in _primes(S):
            c = kronecker(D, p)
            if c:
                w = c * mp.mpf(p) ** (-s)
                E *= 1 - w
                dlogE += w * mp.ln(p) / (1 - w)
        if not deriv:
            return float(L * E)
        return float(mp.dirichlet(s, chi, 1) * E + L * E * dlogE)


def _laurent_trivial(S: str) -> dict:
    """Laurent data of zeta^S at s = 1 from the Stieltjes constants."""
    primes = _primes(S)
    with mp.workdps(ORACLE_DPS):
        f = lambda s: mp.fprod(1 - mp.mpf(p) ** (-s) for p in primes)  # noqa: E731
        f0, f1, f2 = f(1), mp.diff(f, 1, 1), mp.diff(f, 1, 2)
        g0, g1 = mp.stieltjes(0), mp.stieltjes(1)
        return {"residue": float(f0), "c0": float(g0 * f0 + f1),
                "c1": float(-g1 * f0 + g0 * f1 + f2 / 2)}


def residue_exact(S: str) -> Fraction:
    out = Fraction(1, 2 ** (1 + len(_primes(S))))
    for p in _primes(S):
        out *= Fraction(p - 1, p)
    return out


def expect(doc: dict, refs: dict) -> dict:
    kind = doc["kind"]
    if kind == "lfun-s1":
        return {"value": float(l1_class_number(doc["D"], digits=ORACLE_DPS)),
                "tol": selfcheck.TOL_L1_CLASSNO}
    if kind == "lfun-s2":
        return {"value": _l_s2(doc["D"], doc["S"], doc["deriv"]),
                "tol": selfcheck.TOL_L2_M4}
    if kind == "lfun-laurent":
        return {"laurent": _laurent_trivial(doc["S"]), "tol": selfcheck.TOL_LAURENT_OO}
    if kind in ("coeff", "coeff-sub"):
        return {"ref": refs["coeff"][doc_key(doc["argv"])]}
    if kind in ("orbits", "chars"):
        return {"ref": refs[kind][doc_key(doc["argv"])]}
    if kind == "shintani":
        return {"residue_exact": residue_exact(doc["S"])}
    return {}  # diff and weights carry their own second path


def _close(x, y, tol) -> bool:
    return isinstance(x, (int, float)) and abs(x - y) <= tol


def _check_result(doc: dict, exp: dict, res: dict):
    kind = doc["kind"]
    if kind in ("lfun-s1", "lfun-s2"):
        key = "derivative" if doc.get("deriv") else "value"
        if not _close(res.get(key), exp["value"], exp["tol"]):
            return f"{key} {res.get(key)!r} != oracle {exp['value']!r}"
    elif kind == "lfun-laurent":
        for k, v in exp["laurent"].items():
            if not _close(res.get(k), v, exp["tol"]):
                return f"{k} {res.get(k)!r} != oracle {v!r}"
    elif kind in ("coeff", "coeff-sub"):
        ref = exp["ref"]
        if res.get("provenance") != ref["provenance"] or len(res.get("terms", ())) != ref["n_terms"]:
            return f"coefficient structure differs from the reference ({res.get('provenance')})"
        tol = TOL_COEFF_REL * max(abs(ref["value"]), 1.0) + ref["error"]
        if not _close(res.get("value"), ref["value"], tol):
            return f"value {res.get('value')!r} != reference {ref['value']!r}"
    elif kind == "diff":
        sub = "--orbit=sub" in doc["argv"]
        tol = res.get("error_bars", 0.0) + 1e-12 if sub else selfcheck.TOL_ENDOSCOPIC
        if not _close(res.get("deviation"), 0.0, tol):
            return f"two-path deviation {res.get('deviation')!r} > {tol!r}"
    elif kind == "weights":
        if not _close(res.get("deviation"), 0.0, selfcheck.TOL_WEIGHTS):
            return f"engine deviation {res.get('deviation')!r} > {selfcheck.TOL_WEIGHTS}"
    elif kind in ("orbits", "chars"):
        if res != exp["ref"]:
            return "result differs from the stored reference"
    elif kind == "shintani":
        exact = exp["residue_exact"]
        if res.get("residue_exact") != f"{exact.numerator}/{exact.denominator}":
            return f"residue_exact {res.get('residue_exact')!r} != {exact}"
        est = res.get("residue_estimate")
        if not _close(est, float(exact), selfcheck.TOL_RESIDUE_REL * float(exact)):
            return f"residue {est!r} not within {selfcheck.TOL_RESIDUE_REL} of {exact}"
    return None


def check(doc: dict, exp: dict, rc, out: str, cold_out: str | None = None):
    """Failure reason for a finished document, or None.

    Exit 3 with the ``shintani-unstable`` error is a documented outcome of
    the shintani command, not a failure.
    """
    if rc is None:
        return "raised"
    try:
        parsed = json.loads(out)
    except ValueError:
        return f"exit {rc}: output is not JSON"
    if rc != 0 and not is_unstable(doc, rc, parsed):
        return f"unexpected exit code {rc}: {out[:120]}"
    if cold_out is not None and out != cold_out:
        return "warm output differs from the cold output"
    res = parsed.get("result")
    if not isinstance(res, dict):
        return "no result object"
    return _check_result(doc, exp, res)


def is_unstable(doc: dict, rc, parsed: dict) -> bool:
    return (doc["kind"] == "shintani" and rc == 3
            and parsed.get("error", {}).get("code") == "shintani-unstable")


def residue_rel_dev(out: str, exact: Fraction) -> float:
    est = json.loads(out)["result"]["residue_estimate"]
    return abs(est - float(exact)) / float(exact)
