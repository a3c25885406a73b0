"""The Shintani zeta function for binary quadratic forms over Q.

Truncated evaluation of xi^S(s; d_S), extraction of the residue at s=3/2
(exact target 2^{-|S|} c_F^S) and of the Laurent constant term C_F(S,d_S),
plus the closed-form unramified local Euler factors and their assembly
identity.

The pole data has one entry point, shintani_run: it makes the terms, the
eps-grid sums, the tail fit, the prefactors and the exact residue once, and
residue_at_pole and shintani_constant only combine what they are handed.
It is float64 throughout: one L^S(2s) matrix serves every eps and the tail
fit, and the zeta^S prefactors come from one Euler-Maclaurin evaluation.

The summands over the discriminant classes are built in one array pass
(`build_terms` returns one array per quantity).  Their L(1,chi_D) values come
from the class number formula, for every D at once, as sums over the reduced
forms (a,b,c) of discriminant D = b^2 + 4ac (with c -> -c for D < 0):

- D < 0: 0 <= b <= a <= c, weight 1 when b = 0, b = a or a = c and 2
  otherwise; the sum is h(D).
- D > 0: a, b, c > 0 with |a - c| < b (each giving (a,b,-c) and (-a,b,c)),
  weight log((b + sqrt D)/2a).  Their product around every reduction cycle
  is the same totally positive unit eps+, so h+ log(eps+) is twice the sum.

Only the forms with |D| = r mod M = 2^k for a residue r of the wanted D are
visited: b = r mod 2, and for fixed (a, b) the c with 4ac = t mod M, t = r +
b^2 (D < 0) or r - b^2 (D > 0), form one progression of step M/gcd(4a, M), or
none when gcd(4a, M) does not divide t.  M <= 64 minimises |residues| *
(pairs (a, b) + forms / M) over the wanted D, and an exact lookup rejects
every other D, so the values do not depend on M.

The per-discriminant routines (class_number_imag, class_data_real,
l1_class_number) remain as the independent oracles of that pass.  A
smoothed character-sum evaluation (incomplete-gamma split of the completed
L-function) is the second, independent method.

Truncation tails are modeled by the empirical linear growth of the
weighted discriminant count A(t); this is a documented heuristic with
error bars, not a proven bound.  When extracting the constant term, the
pole is removed with the exact residue, never by fitting.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

import numpy as np
from mpmath import mp, mpf

from .arith import (PlaceSet, SquareClassRep, kronecker, legendre_table, legendre_tables,
                    primes_up_to, squarefree_kernel)
from .characters import conductor_outside, disc_classes, quad_char_of
from . import lfun

_L2S_PRIME_BOUND = 600  # Euler-product truncation for L^S(2s, chi), 2s >= 3 (see _l2s_values)


@dataclass
class ShintaniConfig:
    """Evaluation parameters for the truncated zeta function."""

    X: int = 10**5
    eps_grid: tuple = (0.2, 0.15, 0.1, 0.05)
    L1_method: str = "class-number-formula"  # or "smoothed-character-sum"

    def __post_init__(self):
        if self.X < 10**3:
            raise ValueError("X must be at least 10^3")
        g = tuple(float(e) for e in self.eps_grid)
        if any(e <= 0 for e in g) or list(g) != sorted(g, reverse=True):
            raise ValueError("eps_grid must be positive and sorted descending")
        self.eps_grid = g
        if self.L1_method not in ("class-number-formula", "smoothed-character-sum"):
            raise ValueError(f"unknown L1 method {self.L1_method!r}")


@dataclass
class ShintaniResult:
    grid_values: dict            # eps -> truncated xi^S(3/2+eps; d_S)
    residue_estimate: float
    residue_exact: Fraction
    residue_error: float
    constant_CF: float
    constant_error: float
    unstable: bool
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Class numbers and regulators of fundamental discriminants
# ---------------------------------------------------------------------------

def w_disc(D: int) -> int:
    """Number of roots of unity in the imaginary quadratic order of disc D."""
    if D == -3:
        return 6
    if D == -4:
        return 4
    return 2


def _divisors_from_spf(n: int, spf) -> list[int]:
    divs = [1]
    while n > 1:
        p = int(spf[n]) if spf is not None else None
        if p is None:
            p = 2 if n % 2 == 0 else next(q for q in range(3, n + 1, 2) if n % q == 0)
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return divs


def class_number_imag(D: int, spf=None) -> int:
    """h(D) for a fundamental discriminant D < 0, by counting reduced forms
    (a,b,c), -a < b <= a <= c (b >= 0 when a = c or a = |b|)."""
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError("need a negative discriminant")
    h = 0
    b = D % 2
    while 3 * b * b <= -D:
        n = (b * b - D) // 4
        for a in _divisors_from_spf(n, spf):
            if a < max(b, 1) or a * a > n:
                continue
            c = n // a
            h += 1 if (b == 0 or a == b or a == c) else 2
        b += 2
    return h


def _reduced_indefinite_forms(D: int, spf=None) -> set:
    """All reduced indefinite forms (a,b,c) of discriminant D > 0:
    0 < b < sqrt(D) and sqrt(D) - b < 2|a| < sqrt(D) + b."""
    forms = set()
    b = 2 - (D % 2)
    while b * b < D:
        n4 = D - b * b
        if n4 % 4 == 0:
            n = n4 // 4
            for a in _divisors_from_spf(n, spf):
                if a * a > n:
                    continue
                for aa in {a, n // a}:
                    # exact test of sqrt(D)-b < 2*aa < sqrt(D)+b
                    if (2 * aa + b) ** 2 > D and (2 * aa - b) ** 2 < D:
                        c = n // aa
                        forms.add((aa, b, -c))
                        forms.add((-aa, b, c))
        b += 2
    return forms


def _rho_step(form, D: int, sq: int):
    """One reduction step (a,b,c) -> (c, r, (r^2-D)/(4c)) with r the unique
    integer = -b mod 2|c| in (sqrt(D)-2|c|, sqrt(D))."""
    a, b, c = form
    m = 2 * abs(c)
    r0 = (-b) % m
    r = sq - ((sq - r0) % m)
    return (c, r, (r * r - D) // (4 * c))


def class_data_real(D: int, spf=None, digits: int | None = None):
    """(narrow class number, log of the smallest totally positive unit > 1)
    for a fundamental discriminant D > 0.

    Counts the reduction cycles of the reduced indefinite forms; the unit is
    the cycle product of (b + sqrt(D))/(2|a|), the same for every cycle.
    """
    forms = _reduced_indefinite_forms(D, spf)
    sq = isqrt(D)
    remaining = set(forms)
    h_plus = 0
    log_eps = None
    while remaining:
        h_plus += 1
        start = min(remaining)
        cyc = []
        f = start
        while True:
            cyc.append(f)
            remaining.discard(f)
            f = _rho_step(f, D, sq)
            if f == start:
                break
        if log_eps is None:
            if digits is None:
                sqf = math.sqrt(D)
                log_eps = sum(
                    math.log((b + sqf) / (2 * abs(a))) for a, b, _ in cyc
                )
            else:
                with mp.workdps(digits + 10):
                    sqf = mp.sqrt(D)
                    log_eps = +sum(
                        mp.ln((b + sqf) / (2 * abs(a))) for a, b, _ in cyc
                    )
    return h_plus, log_eps


def l1_class_number(D: int, digits: int | None = None):
    """L(1, chi_D) for a fundamental discriminant D != 1 by the class number
    formula: 2*pi*h/(w*sqrt(|D|)) for D < 0, h+ * log(eps+)/sqrt(D) for D > 0."""
    if D == 1:
        raise ValueError("trivial character has a pole at 1")
    if digits is None:
        if D < 0:
            return 2 * math.pi * class_number_imag(D) / (w_disc(D) * math.sqrt(-D))
        h_plus, log_eps = class_data_real(D)
        return h_plus * log_eps / math.sqrt(D)
    with mp.workdps(digits + 10):
        if D < 0:
            out = 2 * mp.pi * class_number_imag(D) / (w_disc(D) * mp.sqrt(-D))
        else:
            h_plus, log_eps = class_data_real(D, digits=digits)
            out = h_plus * log_eps / mp.sqrt(D)
        out = +out
    return out


def l1_smoothed(D: int, tol: float = 1e-12) -> float:
    """L(1, chi_D) by the incomplete-gamma split of the completed L-function.

    Even case (D>0):  L = sum chi(n) [ erfc(n r)/n + E1(pi n^2/q)/sqrt(q) ]
    Odd case (D<0):   L = sum chi(n) [ exp(-pi n^2/q)/n + (pi/sqrt(q)) erfc(n r) ]
    with q = |D|, r = sqrt(pi/q); both root numbers are +1 for chi_D.
    """
    from scipy.special import erfc, exp1

    q = abs(D)
    n_max = int(math.sqrt(q * math.log(1 / tol) / math.pi)) + 2
    n = np.arange(1, n_max + 1, dtype=np.float64)
    chi = np.array([kronecker(D, int(k)) for k in range(1, n_max + 1)], dtype=np.float64)
    r = math.sqrt(math.pi / q)
    if D > 0:
        terms = erfc(n * r) / n + exp1(math.pi * n * n / q) / math.sqrt(q)
    else:
        terms = np.exp(-math.pi * n * n / q) / n + (math.pi / math.sqrt(q)) * erfc(n * r)
    return float(np.dot(chi, terms))


# ---------------------------------------------------------------------------
# L(1, chi_D) in bulk: the class number formula over arrays
# ---------------------------------------------------------------------------

_FORM_CHUNK = 1 << 14  # forms per chunk of the enumeration
_PAIR_BLOCK = 1 << 11  # (a, b) pairs per block
_INV64 = np.array([pow(u, -1, 64) if u % 2 else 0 for u in range(64)])  # odd u -> 1/u mod 64


def _require_int32(q: np.ndarray) -> None:
    """Refuse |D| = q >= 2^31, out of range of the int32 residues and forms."""
    if int(q.max(initial=0)) >= 1 << 31:
        raise ValueError("|D| >= 2^31 is out of range of the int32 form enumeration")


def _reduced_form_sums(D: np.ndarray) -> np.ndarray:
    """h(D) (D < 0) or h+ log(eps+) (D > 0) for distinct fundamental
    discriminants D of one sign, by the strided sums of the module docstring."""
    q, neg = np.abs(D), bool(D[0] < 0)
    _require_int32(q)
    X = int(q.max())
    pairs, forms = (X / 6, 0.07 * X**1.5) if neg else (0.75 * X, 0.23 * X**1.5)
    res = [np.flatnonzero(np.bincount(q & ((1 << k) - 1), minlength=1 << k)) for k in range(7)]
    k = min(range(7), key=lambda k: len(res[k]) * (pairs + forms / 2**k))
    M = 1 << k
    # D > 0: c >= max(a - b + 1, 1) gives D >= (2a - b)^2 + 4a and D >= b^2 + 4a
    a_all = np.arange(1, isqrt(X // 3) + 1 if neg else isqrt(X + 4) - 1)
    b_hi = a_all if neg else np.sqrt(X - 4 * a_all).astype(np.int64)
    b_lo = 0 * a_all if neg else np.maximum(2 * a_all - b_hi, 1)
    par = min(M, 2)  # b = |D| mod 2
    acc = np.zeros(len(D))
    for r in res[k].tolist():
        slot = np.full((X >> k) + 1, -1, dtype=np.int32)  # the index of D at |D| >> k
        sel = np.flatnonzero(q & (M - 1) == r)
        slot[q[sel] >> k] = sel
        b_r = b_lo + (b_lo - r) % par  # the least b of each a
        n_b = np.maximum((b_hi - b_r) // par + 1, 0)
        cum_b = np.cumsum(n_b)
        cuts = cum_b[np.searchsorted(cum_b, np.arange(0, cum_b[-1], _PAIR_BLOCK), "right")]
        for s0, s1 in itertools.pairwise(sorted({0, *cuts.tolist(), int(cum_b[-1])})):
            pos = np.arange(s0, s1)  # the pairs of whole a's, about _PAIR_BLOCK of them
            i = np.searchsorted(cum_b, pos, "right")
            a, b = i + 1, b_r[i] + par * (pos - cum_b[i] + n_b[i])
            lo, t = (a, r + b * b) if neg else (np.maximum(a - b + 1, 1), r - b * b)  # 4ac = t
            hi = (X + b * b) // (4 * a) if neg else np.minimum(a + b - 1, (X - b * b) // (4 * a))
            g = np.gcd(4 * a, M)
            m = M // g
            first = lo + ((t // g) * _INV64[(4 * a // g) % 64] - lo) % m
            cnt = np.where(t % g == 0, np.maximum((hi - first) // m + 1, 0), 0)
            a, b, m, first, cnt = (x[cnt > 0] for x in (a, b, m, first, cnt))
            start, step = 4 * a * first + (-b * b if neg else b * b), (4 * a * m).astype(np.int32)
            p1 = (b == 0) | (b == a) if neg else b.astype(np.int32)  # the weight data
            p2 = (4 * a * a - b * b if neg else 2 * a).astype(np.int32)
            excl = np.cumsum(cnt) - cnt
            for f0 in range(0, int(cnt.sum()), _FORM_CHUNK):
                i, j = np.searchsorted(excl, (f0 + 1, f0 + _FORM_CHUNK)) - (1, 0)
                e = np.maximum(excl[i:j], f0)
                n = np.minimum(excl[i:j] + cnt[i:j], f0 + _FORM_CHUNK) - e
                v = np.arange(n.sum(), dtype=np.int32)
                v -= np.repeat((e - f0).astype(np.int32), n)
                v *= np.repeat(step[i:j], n)
                v += np.repeat((start[i:j] + (e - excl[i:j]) * step[i:j]).astype(np.int32), n)
                idx = slot[v >> k]
                hit = idx >= 0
                x1, x2 = np.repeat(p1[i:j], n)[hit], np.repeat(p2[i:j], n)[hit]
                v, idx = v[hit], idx[hit]
                w = 2 - (x1 | (v == x2)) if neg else np.log((x1 + np.sqrt(v)) / x2)
                # real: one sum per a, in the order of a, the rounding the golden outputs pin
                new_a = [] if neg else np.flatnonzero(np.diff(x2)) + 1
                for ii, ww in zip(np.split(idx, new_a), np.split(w, new_a)):
                    acc += np.bincount(ii, weights=ww, minlength=len(D))
    return acc if neg else 2 * acc


def _l1_class_number_bulk(D: np.ndarray) -> np.ndarray:
    """L(1, chi_D) at distinct fundamental discriminants D != 1 by l1_class_number's formulas."""
    out = np.empty(len(D))
    neg = D < 0
    if neg.any():
        w = np.where(D[neg] == -3, 6, np.where(D[neg] == -4, 4, 2))
        out[neg] = 2 * math.pi * _reduced_form_sums(D[neg]) / (w * np.sqrt(-D[neg]))
    if not neg.all():
        out[~neg] = _reduced_form_sums(D[~neg]) / np.sqrt(D[~neg])
    return out


# ---------------------------------------------------------------------------
# The terms of the discriminant sum, one array per quantity
# ---------------------------------------------------------------------------

_L2S_ROWS = 512  # terms per block of the L^S(2s) product, bounding its temporaries


def _kron_at_prime(D: np.ndarray, p: int) -> np.ndarray:
    """chi_D(p) = (D/p) for an array of discriminants D and a prime p, as int8."""
    if p == 2:
        r = D % 8
        return np.where(r % 2 == 0, 0, np.where((r == 1) | (r == 7), 1, -1)).astype(np.int8)
    return legendre_table(p)[D % p]


@dataclass
class Terms:
    """The summands of xi^S(.; alpha), ordered by (|D|, d).

    d holds the squarefree class representatives, D their fundamental
    discriminants, N the conductors outside S and L1S = L^S(1, chi_D); row i
    of the int8 matrix chi holds chi_D(p) at the small primes outside S
    (`primes`), from which L^S(2s, chi_D) is assembled.
    """

    d: np.ndarray
    D: np.ndarray
    N: np.ndarray
    L1S: np.ndarray
    chi: np.ndarray
    primes: np.ndarray

    def __len__(self) -> int:
        return len(self.d)


def _l1_values(D: np.ndarray, method: str, cache) -> np.ndarray:
    """L(1, chi_D) for every D: the value the cache serves for this method,
    so the two methods never stand in for each other; the misses in one pass,
    stored with one store_l1."""
    L1 = np.full(len(D), np.nan)
    if cache is not None:
        L1[:] = cache.lookup_l1(D.tolist(), method)
    miss = np.isnan(L1)
    if miss.any():
        Dm = D[miss]
        if method == "class-number-formula":
            L1[miss] = _l1_class_number_bulk(Dm)
        else:
            L1[miss] = [l1_smoothed(k) for k in Dm.tolist()]
        if cache is not None:
            cache.store_l1(Dm.tolist(), L1[miss].tolist(), method, 15)
    return L1


@functools.lru_cache(maxsize=16)
def _chi_table(S_primes: tuple):
    """The odd primes p <= _L2S_PRIME_BOUND outside S (2 is in S), their
    Legendre table and the int32 offset of each p's block, read-only."""
    primes = np.array([p for p in primes_up_to(_L2S_PRIME_BOUND).tolist()
                       if p not in S_primes], dtype=np.int32)
    table, off = legendre_tables(primes)
    out = primes, table, off.astype(np.int32)
    for a in out:
        a.flags.writeable = False
    return out


def _chi_matrix(D: np.ndarray, S: PlaceSet):
    """The primes of _chi_table as float64 and the int8 matrix of chi_D(p), a
    row per D, read off the table at the int32 index D mod p + offset of p,
    _L2S_ROWS rows at a time."""
    primes, table, off = _chi_table(S.primes)
    D32 = D.astype(np.int32)  # |D| < 2^31: build_terms checks
    chi = np.empty((len(D), len(primes)), dtype=np.int8)
    for i in range(0, len(D), _L2S_ROWS):
        idx = D32[i : i + _L2S_ROWS, None] % primes
        idx += off
        np.take(table, idx, out=chi[i : i + _L2S_ROWS])
    return primes.astype(np.float64), chi


def build_terms(alpha, S: PlaceSet, X: int, method: str = "class-number-formula",
                cache=None) -> Terms:
    """All summands of xi^S(.; alpha) with |fundamental discriminant| <= X,
    ordered by |D| then d.  The cache, if given, needs lookup_l1(D list,
    method) and store_l1(D list, L1 list, method, digits) as cli.JsonlCache."""
    S.require_2("the Shintani zeta function")
    a_val = alpha.value if isinstance(alpha, SquareClassRep) else squarefree_kernel(alpha)
    d = np.array(disc_classes(S, a_val, X=X, kind="Q_S").entries, dtype=np.int64)
    D = np.where(d % 4 == 1, d, 4 * d)
    _require_int32(np.abs(D))
    # N(f_d^S): d is squarefree, the odd primes of D divide d once, and 2 is in S
    N = np.abs(d)
    for p in S.primes:
        N = np.where(N % p == 0, N // p, N)
    L1S = _l1_values(D, method, cache)
    for p in S.primes:  # removed Euler factors (1 for p | D, where chi_D(p) = 0)
        L1S *= 1.0 - _kron_at_prime(D, p) / p
    primes, chi = _chi_matrix(D, S)
    return Terms(d, D, N, L1S, chi, primes)


# ---------------------------------------------------------------------------
# xi^S and its pole data
# ---------------------------------------------------------------------------

_BERNOULLI_2K = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)


def _zetaS_float(x, S: PlaceSet) -> np.ndarray:
    """zeta^S(x) in float64 for an array of real x >= 2: zeta(x) by
    Euler-Maclaurin with the terms n < 10 and B_2..B_16 at N = 10 (remainder
    below 1e-17), times prod_{p in S}(1 - p^-x).  lfun.zetaS is its check."""
    x = np.asarray(x, dtype=np.float64)
    c = x * 10.0 ** (-x - 1) / 2  # x (x+1) ... (x+2k-2) N^(-x-2k+1) / (2k)!
    out = np.zeros_like(x)
    for k, b in enumerate(_BERNOULLI_2K, 1):
        out += b * c
        c *= (x + 2 * k - 1) * (x + 2 * k) / ((2 * k + 1) * (2 * k + 2) * 100.0)
    out += 10.0 ** (1 - x) / (x - 1) + 10.0**-x / 2
    for n in range(9, 0, -1):  # smallest first
        out += float(n) ** -x
    for p in S.primes:
        out *= 1 - float(p) ** -x
    return out


def _prefactors(S: PlaceSet, eps) -> dict:
    """eps -> zeta^S(2s-1) zeta^S(2s) / zeta^S(2) at s = 3/2 + eps, for each eps."""
    e = np.asarray(eps, dtype=np.float64)
    z = _zetaS_float(np.concatenate([2 + 2 * e, 3 + 2 * e, [2.0]]), S)
    return dict(zip(eps, (z[: len(e)] * z[len(e) : -1] / z[-1]).tolist()))


def _l2s_values(terms: Terms, two_s) -> np.ndarray:
    """L^S(2s, chi_d), a row per 2s in two_s and a column per term: the Euler
    product over the p <= P = _L2S_PRIME_BOUND outside S, summed in logs, so
    |log L^S - log(product)| <= sum_{n > P} n^-2s/(1 - n^-2s) <= P^(1-2s)/((2s-1)
    (1 - P^-2s)): 1.4e-6 at 2s = 3, far below the truncation-model error."""
    pw = terms.primes ** -np.reshape(two_s, (-1, 1))
    lo, hi = np.log1p(-pw).T, np.log1p(pw).T  # chi_d(p) = 1, -1
    out = np.empty((len(pw), len(terms)))
    for i in range(0, len(terms), _L2S_ROWS):
        chi = terms.chi[i : i + _L2S_ROWS]
        out[:, i : i + _L2S_ROWS] = ((chi == 1) @ lo + (chi == -1) @ hi).T
    return np.exp(-out, out=out)


def _summands(terms: Terms, L2S: np.ndarray, eps) -> np.ndarray:
    """L^S(1,chi_d) / (L^S(3+2eps, chi_d) N_d^(1+eps)), a contiguous row per eps
    (so a sum along it is pairwise), from the rows L^S(3+2eps) of L2S."""
    return terms.L1S / (L2S * np.exp(np.outer(1 + np.asarray(eps), np.log(terms.N))))


def xi_partial(s: float, alpha, S: PlaceSet, X: int) -> float:
    """Truncated xi^S(s; alpha): prefactor times the sum over the classes
    with |fundamental discriminant| <= X.  Requires s > 3/2 and 2 in S."""
    if s <= 1.5:
        raise ValueError("xi^S converges only for s > 3/2; the pole data comes from shintani_run")
    terms = build_terms(alpha, S, X)  # requires 2 in S
    e = s - 1.5
    (row,) = _summands(terms, _l2s_values(terms, [2 * s]), [e])
    return _prefactors(S, [e])[e] * float(np.add.reduce(row))


def residue_exact_value(S: PlaceSet) -> Fraction:
    """The exact pole datum 2^{-|S|} c_F^S at s = 3/2."""
    out = Fraction(1, 2 ** len(S))
    for p in S.primes:
        out *= Fraction(p - 1, p)
    return out


def _fit_tail(terms: Terms, L3: np.ndarray) -> dict:
    """Fit A(t) = sum_{N_d <= t} a_d ~ kappa*t + c*sqrt(t) on the top
    three quarters of the data; a_d = L^S(1,chi_d)/L^S(3,chi_d), L3 = L^S(3, chi_d)."""
    N = terms.N.astype(np.float64)
    A = np.cumsum(terms.L1S / L3)
    n_max = N[-1]
    mask = N >= n_max / 4
    if mask.sum() < 30:
        raise ValueError("X too small for the truncation-tail model (need more classes)")
    t, y = N[mask], A[mask]
    M = np.column_stack([t, np.sqrt(t)])
    coef, res, *_ = np.linalg.lstsq(M, y, rcond=None)
    kappa_hat, c_hat = float(coef[0]), float(coef[1])
    resid = y - M @ coef
    dof = max(len(t) - 2, 1)
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(M.T @ M)
    return {
        "kappa_hat": kappa_hat,
        "c_hat": c_hat,
        "kappa_stderr": math.sqrt(max(cov[0, 0], 0.0)),
        "fit_rms": math.sqrt(sigma2),
        "n_terms": len(terms),
        "N_max": float(n_max),
        "A": A,
        "N": N,
    }


def _tail_integral(eps: float, N_max: float, kappa: float, c: float) -> float:
    """int_{N_max}^inf (kappa + c/(2 sqrt(t))) t^{-1-eps} dt."""
    return kappa * N_max ** (-eps) / eps + 0.5 * c * N_max ** (-0.5 - eps) / (0.5 + eps)


def _poly_extrapolate(xs, ys):
    """Value at 0 of the interpolating polynomial (Vandermonde solve), plus
    a stability spread from dropping one node at a time."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)

    def fit(keep):
        return float(np.linalg.solve(np.vander(xs[keep], increasing=True), ys[keep])[0])

    n = len(xs)
    full = fit(np.arange(n))
    if n <= 2:
        return full, abs(full)
    return full, max(abs(fit(np.arange(n) != i) - full) for i in range(n))


def residue_at_pole(fit: dict, sums: dict, prefactors: dict, eps_grid):
    """Estimate lim eps * xi^S(3/2+eps; alpha) from the truncated sums over
    eps_grid plus the fitted tail model, extrapolated polynomially to
    eps -> 0.  fit, sums and prefactors are those of shintani_run.

    Returns (estimate, error_estimate, diagnostics).
    """
    ys = [e * prefactors[e] * (sums[e] + _tail_integral(e, fit["N_max"], fit["kappa_hat"],
                                                        fit["c_hat"])) for e in eps_grid]
    val, spread = _poly_extrapolate(eps_grid, ys)
    err = spread + fit["kappa_stderr"] * prefactors[0.0]
    diag = {k: fit[k] for k in ("kappa_hat", "c_hat", "kappa_stderr", "fit_rms",
                                "n_terms", "N_max")}
    diag["grid_residues"] = dict(zip(eps_grid, ys))
    return val, err, diag


def shintani_constant(fit: dict, sums: dict, prefactors: dict, R: float, eps_grid):
    """The Laurent constant C_F(S,alpha) of xi^S(s;alpha) at s=3/2.

    c(eps) = xi^S(3/2+eps) - R/eps is formed with the EXACT residue R
    (the pole is never fitted); the tail model supplies the truncated part
    of the sum with its leading coefficient pinned to R, and c(eps) is then
    extrapolated polynomially to eps -> 0.  fit, sums and prefactors are
    those of shintani_run.

    Returns (value, error_estimate, unstable_flag, diagnostics).
    """
    P32 = prefactors[0.0]
    kappa_star = R / P32
    # refit the sqrt correction with the leading coefficient pinned
    N, A = fit["N"], fit["A"]
    mask = N >= fit["N_max"] / 4
    t, y = N[mask], (A - kappa_star * N)[mask]
    c_star = float(np.dot(np.sqrt(t), y) / np.sum(t))
    cs = [prefactors[e] * (sums[e] + _tail_integral(e, fit["N_max"], kappa_star, c_star)) - R / e
          for e in eps_grid]
    val, spread = _poly_extrapolate(eps_grid, cs)
    # tail-fluctuation contribution to the error: rms of the pinned fit
    resid = y - c_star * np.sqrt(t)
    fluct = float(np.sqrt(np.mean(resid**2))) / fit["N_max"] ** 0.5
    err = spread + fluct * P32 + abs(fit["kappa_hat"] - kappa_star) * P32
    unstable = bool(spread > 0.05 * max(abs(val), 1e-9) + 1e-6)
    diag = {
        "kappa_star": kappa_star,
        "c_star": c_star,
        "kappa_hat": fit["kappa_hat"],
        "n_terms": fit["n_terms"],
        "N_max": fit["N_max"],
        "grid_constants": dict(zip(eps_grid, cs)),
    }
    return val, err, unstable, diag


def shintani_run(alpha, S: PlaceSet, config: ShintaniConfig | None = None,
                 cache=None) -> ShintaniResult:
    """The pole data of xi^S(s; alpha) at s = 3/2, by the one path: grid
    values, the residue estimate against the exact residue, and the constant
    term.  The cache, if given, is as in build_terms."""
    config = config or ShintaniConfig()
    terms = build_terms(alpha, S, config.X, config.L1_method, cache)
    grid = config.eps_grid
    L2S = _l2s_values(terms, [3 + 2 * e for e in (*grid, 0.0)])
    sums = dict(zip(grid, np.add.reduce(_summands(terms, L2S[:-1], grid), axis=1).tolist()))
    fit = _fit_tail(terms, L2S[-1])
    prefactors = _prefactors(S, (*grid, 0.0))
    exact = residue_exact_value(S)
    res_est, res_err, diag_r = residue_at_pole(fit, sums, prefactors, grid)
    cf, cf_err, unstable, diag_c = shintani_constant(fit, sums, prefactors, float(exact), grid)
    return ShintaniResult(
        grid_values={e: prefactors[e] * sums[e] for e in grid},
        residue_estimate=res_est,
        residue_exact=exact,
        residue_error=res_err,
        constant_CF=cf,
        constant_error=cf_err,
        unstable=unstable,
        diagnostics={"residue": diag_r, "constant": diag_c},
    )


def tail_block_check(alpha, S: PlaceSet, eps: float, X: int,
                     cache=None) -> dict:
    """Self-check of the tail model: the measured partial sum over
    X/2 < |D| <= X against the fitted-law prediction."""
    ShintaniConfig(X=X)  # validates X
    terms = build_terms(alpha, S, X, cache=cache)
    L2S = _l2s_values(terms, [3 + 2 * eps, 3.0])
    fit = _fit_tail(terms, L2S[1])
    half = np.abs(terms.D) > X / 2
    measured = float(np.add.reduce(_summands(terms, L2S[:1], [eps])[0][half]))
    N_lo = float(terms.N[half].min())
    predicted = (_tail_integral(eps, N_lo, fit["kappa_hat"], fit["c_hat"])
                 - _tail_integral(eps, fit["N_max"], fit["kappa_hat"], fit["c_hat"]))
    return {"measured": measured, "predicted": predicted,
            "ratio": measured / predicted if predicted else float("inf")}


# ---------------------------------------------------------------------------
# Local Euler factors of the zeta integral and their assembly
# ---------------------------------------------------------------------------

def local_factor(p: int, s: float, twist: str = "trivial", ramified: bool = False,
                 chi_p: int = 1) -> float:
    """Normalized unramified local factor of the zeta integral at a prime
    outside S.

    twist="trivial":  (1-q^{1-2s})^{-1} (1-q^{-2s})^{-1} (1-q^{-2})
                      * (1 - chi_p q^{-2s})  [the reciprocal local L(2s)]
                      * q^{-s+1/2} when chi_{d,p} is ramified (chi_p = 0);
    twist="chi_d":    (1-q^{1-2s})^{-1} (1-q^{-2}) when unramified,
                      0 when ramified (the global object vanishes).
    """
    q = float(p)
    if twist == "chi_d":
        if ramified:
            return 0.0
        return (1.0 - q**-2.0) / (1.0 - q ** (1.0 - 2 * s))
    if twist != "trivial":
        raise ValueError(f"unknown twist {twist!r}")
    base = (1.0 - q**-2.0) / ((1.0 - q ** (1.0 - 2 * s)) * (1.0 - q ** (-2.0 * s)))
    if ramified:
        return base * q ** (-s + 0.5)
    return base * (1.0 - chi_p * q ** (-2.0 * s))


def euler_assembly_check(d, s: float, S: PlaceSet, X: int = 3 * 10**7,
                         twist: str = "chi_d", digits: int = 30):
    """Two routes to the same value, as an internal identity test.

    Route A multiplies the closed-form local factors over the primes p <= X
    outside S (with chi_d(p) read off the periodic symbol table) and the
    global normalization L^S(1,chi_d).  Route B is the direct formula:
    L^S(1,chi_d) zeta^S(2s-1)/zeta^S(2) for the twisted path, and the
    single-class summand of xi^S for the trivial path.  Returns (A, B).
    """
    if s <= 1.5:
        raise ValueError("need s > 3/2")
    chi = quad_char_of(d)
    D = chi.D
    ram_outside = [p for p in chi.support if p not in S.primes]
    if twist == "chi_d" and ram_outside:
        return 0.0, 0.0
    L1S = float(lfun.LS(1, chi, S, digits))
    primes = primes_up_to(X)
    mask = np.ones(len(primes), dtype=bool)
    for p in S.primes:
        mask &= primes != p
    primes = primes[mask].astype(np.float64)
    table = np.array([kronecker(D, r) for r in range(abs(D))], dtype=np.float64)
    chi_p = table[(primes.astype(np.int64)) % abs(D)]
    if twist == "chi_d":
        logA = -np.log1p(-primes ** (1.0 - 2 * s)) + np.log1p(-primes**-2.0)
        A = L1S * float(np.exp(np.add.reduce(logA)))
        B = L1S * float(lfun.zetaS(2 * s - 1, S, digits) / lfun.zetaS(2, S, digits))
        return A, B
    if twist != "trivial":
        raise ValueError(f"unknown twist {twist!r}")
    logA = (
        -np.log1p(-primes ** (1.0 - 2 * s))
        - np.log1p(-primes ** (-2.0 * s))
        + np.log1p(-primes**-2.0)
        + np.log1p(-chi_p * primes ** (-2.0 * s))
    )
    A = L1S * float(np.exp(np.add.reduce(logA)))
    # chi_p = 0 at the ramified primes already gives their local L = 1 above;
    # their extra q^{-s+1/2} factors combine into N(f_d^S)^{-(s-1/2)}
    N = conductor_outside(d, S).N_fdS
    A *= float(N) ** (-s + 0.5)
    chiL = lfun.LS(2 * s, chi, S, digits)
    B = float(
        lfun.LS(1, chi, S, digits)
        * lfun.zetaS(2 * s - 1, S, digits)
        * lfun.zetaS(2 * s, S, digits)
        / (lfun.zetaS(2, S, digits) * chiL * mpf(N) ** (s - 0.5))
    )
    return A, B
