"""The Shintani zeta function for binary quadratic forms over Q.

The truncated sums of xi^S(s; d_S) over the discriminant classes, and from
them the residue at s=3/2 (exact target 2^{-|S|} c_F^S) and the Laurent
constant term C_F(S,d_S); euler_assembly_check checks one summand against
the product of its local Euler factors.

The pole data has one entry point, shintani_run, in three steps: the terms
(build_terms), sorted by |D| and so by N_d; L^S(3, chi_d) from the D alone
(_l2s_values); and the direct estimator.  With b_d = L^S(1,chi_d)/
L^S(3,chi_d), the Laurent constant is partial summation against the tail model
A(t) = sum_{N_d <= t} b_d ~ kappa t + c sqrt(t), with the pole removed by the
exact kappa* = R/P(3/2) (shintani_constant); the residue is P(3/2) times the
free fit's kappa (residue_at_pole).  Both are formed at the cut-offs N_max,
N_max/2 and N_max/4, prefixes of the same terms, and twice their spread over
the cut-offs is the error bar.  It is float64 throughout, and P(3/2), P'(3/2)
come from three float constants.

The summands over the discriminant classes are built in one array pass
(`build_terms` returns one array per quantity).  Their L(1,chi_D) values come
from the class number formula, for every D at once, as sums over the reduced
forms (a,b,c) of discriminant D = b^2 + 4ac (with c -> -c for D < 0):

- D < 0: 0 <= b <= a <= c, weight 1 when b = 0, b = a or a = c and 2
  otherwise; the sum is h(D).
- D > 0: a, b, c > 0 with |a - c| < b, each giving (a,b,-c) and (-a,b,c).
  Around every reduction cycle the product of (b + sqrt D)/2a is the same
  unit eps+, so h+ log(eps+) is twice the sum of their logs.  The forms of
  one b come in pairs a <-> c = (D - b^2)/4a whose two terms add up to
  log((sqrt D + b)/(sqrt D - b)), so a <= c suffices, with weight m
  log1p(2b (sqrt D + b)/4ac), m = 1 when c = a and 2 otherwise: 4ac = D - b^2
  is exact, and sqrt D - b never cancels.

Both signs run through c >= a by a, then b, then c.  Only the forms with
|D| = r mod M for a residue r of the wanted D are visited, where M = 2^k m,
k <= 6 and m | 3*5*7, minimises |residues| * (pairs (a, b) of one parity +
forms / M): the odd primes of S put every wanted |D| in few classes mod p.
Then b = r mod 2 (M even), and for fixed (a, b) the c with 4ac = t mod M,
t = r + b^2 (D < 0) or r - b^2 (D > 0), form one progression of step M/g,
g = gcd(4a, M), or none when g does not divide t; c = a can only head it.
Along it j = |D| // M steps by 4a/g, and each form adds its weight to bin j
of its residue, which is read off at the wanted D once the residue is done;
a bin of an unwanted |D| is never read.  For D < 0 the bins count forms in
integers (weight 1 on the pairs b = 0 and b = a and at c = a), exact in any
order.  For D > 0 np.add.at adds half the weights in enumeration order, and
doubling the sums at the end is exact, so each sum is one fixed sequence of
float additions whatever M and the block sizes.

The per-discriminant routines (class_number_imag, class_data_real,
l1_class_number) remain as the independent oracles of that pass, and
l1_smoothed (incomplete-gamma split of the completed L-function) as an
oracle independent of the class numbers.

Truncation tails are modeled by the empirical linear growth of the
weighted discriminant count A(t); this is a documented heuristic with
error bars, not a proven bound.  When extracting the constant term, the
pole is removed with the exact residue, never by fitting.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

import numpy as np
from mpmath import mp, mpf

from .arith import (PlaceSet, SquareClassRep, factorize, kronecker, legendre_table,
                    legendre_tables, primes_up_to, squarefree_kernel)
from .characters import conductor_outside, disc_classes, quad_char_of
from . import lfun

_L2S_PRIME_BOUND = 200  # the Euler product of L^S(2s, chi_D), 2s >= 3, stops here (_l2s_values)


def require_X(X: int) -> int:
    """The truncation bound X of the discriminant sum, if at least 10^3."""
    if X < 10**3:
        raise ValueError("X must be at least 10^3")
    return X


@dataclass
class ShintaniResult:
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
    return {-3: 6, -4: 4}.get(D, 2)


def _divisors_from_spf(n: int, spf) -> list[int]:
    """The divisors of n >= 1, factored by the smallest-prime-factor table
    spf, or by arith.factorize when spf is None."""
    if spf is None:
        fac = factorize(n)
    else:
        fac = {}
        while n > 1:
            p = int(spf[n])
            fac[p] = fac.get(p, 0) + 1
            n //= p
    divs = [1]
    for p, e in fac.items():
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
        if log_eps is None and digits is None:
            sqf = math.sqrt(D)
            log_eps = sum(math.log((b + sqf) / (2 * abs(a))) for a, b, _ in cyc)
        elif log_eps is None:
            with mp.workdps(digits + 10):
                sqf = mp.sqrt(D)
                log_eps = +sum(mp.ln((b + sqf) / (2 * abs(a))) for a, b, _ in cyc)
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
            return +(2 * mp.pi * class_number_imag(D) / (w_disc(D) * mp.sqrt(-D)))
        h_plus, log_eps = class_data_real(D, digits=digits)
        return +(h_plus * log_eps / mp.sqrt(D))


def l1_smoothed(D: int, tol: float = 1e-12) -> float:
    """L(1, chi_D) by the incomplete-gamma split of the completed L-function.

    Even case (D>0):  L = sum chi(n) [ erfc(n r)/n + E1(pi n^2/q)/sqrt(q) ]
    Odd case (D<0):   L = sum chi(n) [ exp(-pi n^2/q)/n + (pi/sqrt(q)) erfc(n r) ]
    with q = |D|, r = sqrt(pi/q); both root numbers are +1 for chi_D.
    """
    q = abs(D)
    n_max = int(math.sqrt(q * math.log(1 / tol) / math.pi)) + 2
    n = np.arange(1, n_max + 1, dtype=np.float64)
    chi = np.array([kronecker(D, int(k)) for k in range(1, n_max + 1)], dtype=np.float64)
    r = math.sqrt(math.pi / q)
    erfc = np.array([math.erfc(k * r) for k in n.tolist()])
    if D > 0:
        e1 = np.array([float(mp.e1(math.pi * k * k / q)) for k in n.tolist()])
        terms = erfc / n + e1 / math.sqrt(q)
    else:
        terms = np.exp(-math.pi * n * n / q) / n + (math.pi / math.sqrt(q)) * erfc
    return float(np.add.reduce(chi * terms))


# ---------------------------------------------------------------------------
# L(1, chi_D) in bulk: the class number formula over arrays
# ---------------------------------------------------------------------------

_FORM_CHUNK = 1 << 14  # forms per chunk of the enumeration
_PAIR_BLOCK = 1 << 12  # (a, b) pairs per block


def _require_int32(q: np.ndarray) -> None:
    """Refuse |D| = q >= 2^31, out of range of the int32 residues and forms."""
    if int(q.max(initial=0)) >= 1 << 31:
        raise ValueError("|D| >= 2^31 is out of range of the int32 form enumeration")


def _stride(q: np.ndarray, pairs: float, forms: float) -> int:
    """The modulus M = 2^k m, k <= 6 and m | 3*5*7, that minimises
    |residues of q mod M| * (pairs + forms / M)."""
    seen = np.bincount((q & 63) * 105 + q % 105, minlength=64 * 105).reshape(64, 105) > 0
    odd, ms = seen.any(0), [1]
    for p in (3, 5, 7):  # a p whose classes all hold some q multiplies |residues| by p
        if not odd.reshape(-1, p).any(0).all():
            ms += [m * p for m in ms]
    cost = {}
    for m in ms:
        s = seen.reshape(64, -1, m).any(1)  # the residues mod 64 m
        for k in range(6, -1, -1):
            cost[m << k] = np.count_nonzero(s) * (pairs + forms / (m << k))
            s = s[: len(s) // 2] | s[len(s) // 2 :]
    return min(sorted(cost), key=cost.get)


def _progressions(start: np.ndarray, step: np.ndarray, count: np.ndarray, size: int):
    """The terms start + n step, 0 <= n < count, of consecutive progressions, in
    chunks of `size` terms: yields (i, n, lead, x), where the chunk meets the
    progressions i, i + 1, ... with n terms each, lead is the position in x of
    each one's n = 0 term (< 0 when it lies in an earlier chunk) and x holds
    the terms as int32."""
    excl = np.cumsum(count) - count
    for f0 in range(0, int(count.sum()), size):
        i, k = np.searchsorted(excl, (f0 + 1, f0 + size)) - (1, 0)
        e = np.maximum(excl[i:k], f0)
        n = np.minimum(excl[i:k] + count[i:k], f0 + size) - e
        x = np.arange(n.sum(), dtype=np.int32)
        x -= np.repeat((e - f0).astype(np.int32), n)
        x *= np.repeat(step[i:k].astype(np.int32), n)
        x += np.repeat((start[i:k] + (e - excl[i:k]) * step[i:k]).astype(np.int32), n)
        yield i, n, excl[i:k] - f0, x


def _pair_block(r: int, X: int, M: int, neg: bool, b, a, g, mg, inv, dj):
    """The pairs (a, b) of one block whose c progression holds forms, as
    (a, b, head, j0, dj, count): head where its first c is a, and j0 = |D| // M
    there.  g = gcd(4a, M), mg = M/g, inv = (4a/g)^-1 mod mg, dj = 4a/g."""
    bb = b.astype(np.int64) ** 2
    t = r + bb if neg else r - bb  # 4ac = t mod M
    hi = (X + bb) // (4 * a) if neg else np.minimum(a + b - 1, (X - bb) // (4 * a))
    tg = t // g
    first = a + ((tg * inv - a) % mg)
    cnt = np.where(tg * g == t, np.maximum((hi - first) // mg + 1, 0), 0)
    keep = np.flatnonzero(cnt)
    a, b, bb, first = a[keep], b[keep], bb[keep], first[keep]
    return a, b, first == a, (4 * a * first + (-bb if neg else bb)) // M, dj[keep], cnt[keep]


def _reduced_form_sums(D: np.ndarray) -> np.ndarray:
    """h(D) (D < 0) or h+ log(eps+) (D > 0) for distinct fundamental
    discriminants D of one sign, by the strided sums of the module docstring."""
    q, neg = np.abs(D), bool(D[0] < 0)
    _require_int32(q)
    X = int(q.max())
    # the (a, b) pairs of one parity of b, and the forms, with c >= a and |D| <= X
    pairs, forms = (0.069 * X, 0.088 * X**1.5) if neg else (math.pi / 16 * X, 0.115 * X**1.5)
    M = _stride(q, pairs, forms)
    par = 2 - M % 2  # b = |D| mod 2
    # c >= a: 3a^2 <= 4a^2 - b^2 <= X (D < 0), 4a^2 + b^2 <= X (D > 0, where b = 0 has no c)
    a_all = np.arange(1, isqrt(X // 3) + 1 if neg else isqrt((X - 1) // 4) + 1)
    b_hi = a_all if neg else np.sqrt(X - 4 * a_all * a_all).astype(np.int64)
    b_lo = np.sqrt(np.maximum(4 * a_all * a_all - X, 0)).astype(np.int64)
    # per a, with g = gcd(4a, M): 4ac = t mod M holds when g | t, for the c = t/g
    # (4a/g)^-1 mod M/g, and along them j = |D| // M steps by 4a/g
    g_a = np.gcd(4 * a_all, M)
    mg_a, dj_a = M // g_a, 4 * a_all // g_a
    inv_a = np.array([pow(u, -1, n) for u, n in zip(dj_a[:M].tolist(), mg_a[:M].tolist())])
    per_a = a_all, g_a, mg_a, inv_a[(a_all - 1) % M], dj_a  # the inverse is a function of a mod M
    qr, qj = q % M, q // M
    out = np.zeros(len(D))
    for r in np.flatnonzero(np.bincount(qr, minlength=M)).tolist():
        bins = np.zeros(X // M + 1, dtype=np.int32 if neg else np.float64)  # at j = |D| // M
        b_r = b_lo + (b_lo - r) % par  # the least b of each a
        n_b = np.maximum((b_hi - b_r) // par + 1, 0)
        for i, n, _, b in _progressions(b_r, np.full_like(b_r, par), n_b, _PAIR_BLOCK):
            a, b, head, j0, dj, cnt = _pair_block(
                r, X, M, neg, b, *(np.repeat(x[i : i + len(n)], n) for x in per_a))
            if neg:  # integer counts, so in any order: weight 1 on b = 0, b = a and c = a
                one = (b == 0) | (b == a)
                for w, sel in ((1, one), (2, ~one)):
                    for *_, j in _progressions(j0[sel], dj[sel], cnt[sel], _FORM_CHUNK):
                        np.add.at(bins, j, np.int32(w))
                np.add.at(bins, j0[head & ~one], np.int32(-1))
                continue
            bf = b.astype(np.float64)
            for i, n, lead, j in _progressions(j0, dj, cnt, _FORM_CHUNK):
                b1, v = np.repeat(bf[i : i + len(n)], n), j * float(M) + r
                w = np.sqrt(v)  # log1p(2 b (sqrt v + b) / (v - b^2)), in place
                w += b1
                v -= b1 * b1
                b1 += b1
                w *= b1
                w /= v
                u = w + 1.0  # log1p(w) = w log(u) / (u - 1) (Goldberg 1991), by np.log
                w *= np.log(u)
                u -= 1.0
                w /= u
                w[lead[head[i : i + len(n)] & (lead >= 0)]] *= 0.5
                np.add.at(bins, j, w)  # half the weights, in enumeration order
        sel = np.flatnonzero(qr == r)
        out[sel] = bins[qj[sel]]
    return out if neg else 2 * out


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
    discriminants, N the conductors outside S and L1S = L^S(1, chi_D).
    """

    d: np.ndarray
    D: np.ndarray
    N: np.ndarray
    L1S: np.ndarray

    def __len__(self) -> int:
        return len(self.d)


def _l1_values(D: np.ndarray, cache) -> np.ndarray:
    """L(1, chi_D) for every D: the value the cache serves, and the misses
    in one bulk pass, stored with one store_l1."""
    L1 = np.full(len(D), np.nan) if cache is None else np.array(cache.lookup_l1(D), float)
    miss = np.isnan(L1)
    if miss.any():
        L1[miss] = _l1_class_number_bulk(D[miss])
        if cache is not None:
            cache.store_l1(D[miss], L1[miss])
    return L1


def build_terms(alpha, S: PlaceSet, X: int, cache=None) -> Terms:
    """All summands of xi^S(.; alpha) with |fundamental discriminant| <= X,
    ordered by |D| then d.  The cache, if given, needs lookup_l1(D array)
    and store_l1(D array, L1 array) as cli.JsonlCache."""
    S.require_2("the Shintani zeta function")
    a_val = alpha.value if isinstance(alpha, SquareClassRep) else squarefree_kernel(alpha)
    d = np.asarray(disc_classes(S, a_val, X=X, kind="Q_S").entries, dtype=np.int64)
    D = np.where(d % 4 == 1, d, 4 * d)
    _require_int32(np.abs(D))
    # N(f_d^S): d is squarefree, the odd primes of D divide d once, and 2 is in S
    N = np.abs(d)
    for p in S.primes:
        N = np.where(N % p == 0, N // p, N)
    L1S = _l1_values(D, cache)
    for p in S.primes:  # removed Euler factors (1 for p | D, where chi_D(p) = 0)
        L1S *= 1.0 - _kron_at_prime(D, p) / p
    return Terms(d, D, N, L1S)


# ---------------------------------------------------------------------------
# xi^S and its pole data
# ---------------------------------------------------------------------------

# zeta(3), zeta'/zeta(2) and zeta'/zeta(3) (mpmath, rounded to float64)
_ZETA_3, _DLOG_ZETA_2, _DLOG_ZETA_3 = 1.2020569031595942, -0.5699609930945329, -0.16482268215827725


def _pole_prefactor(S: PlaceSet) -> tuple:
    """P(3/2) = zeta^S(3) and P'(3/2) = 2 P(3/2) (zeta^S'/zeta^S(2) + zeta^S'/zeta^S(3))
    of P(s) = zeta^S(2s-1) zeta^S(2s) / zeta^S(2), where zeta^S'/zeta^S(x) is
    zeta'/zeta(x) + sum_{p in S} log p/(p^x - 1)."""
    P = _ZETA_3 * math.prod(1 - p**-3 for p in S.primes)
    dlog = sum(math.log(p) * (1 / (p**2 - 1) + 1 / (p**3 - 1)) for p in S.primes)
    return P, 2 * P * (_DLOG_ZETA_2 + _DLOG_ZETA_3 + dlog)


@functools.lru_cache(maxsize=16)
def _dlog_mean(S_primes: tuple) -> float:
    """E'(0)/E(0) of the mean E(eps) = prod_p E_p(eps) of L^S(1,chi_d)/L^S(3+2eps,
    chi_d) over the d, p the primes of L^S(3) (_chi_table): E_p(eps) = [f(0) +
    (p/2)(f(1) + f(-1))]/(p + 1), f(c) = (1 - c p^(-3-2eps))/(1 - c/p), so
    E_p(0) = (p + 1 + 1/p)/(p + 1) and E_p'(0)/E_p(0) = 2 log p/((p^2 - 1)(p^2
    + p + 1)).  The primes beyond 200 add less than 8e-8; L^S(3) stops at the
    same primes."""
    primes = _chi_table(S_primes)[0]
    return sum(2 * math.log(p) / ((p * p - 1) * (p * p + p + 1)) for p in primes.tolist())


_CHI_BLOCK = 1 << 15  # (prime, D) entries per block of _l2s_values, bounding its temporaries
_L2S_COLS = 1 << 13  # discriminants per column of those blocks


@functools.lru_cache(maxsize=16)
def _chi_table(S_primes: tuple):
    """The odd p <= _L2S_PRIME_BOUND outside S (2 is in S), the primes of _l2s_values
    and _dlog_mean, their Legendre table and the int32 offset of each p's block, read-only."""
    primes = np.array([p for p in primes_up_to(_L2S_PRIME_BOUND).tolist()
                       if p not in S_primes], dtype=np.int32)
    table, off = legendre_tables(primes)
    out = primes, table, off.astype(np.int32)
    for a in out:
        a.flags.writeable = False
    return out


@functools.lru_cache(maxsize=16)
def _log_table(S_primes: tuple, two_s: float) -> np.ndarray:
    """The log Euler factor of each entry of _chi_table at 2s, read-only:
    log1p(-p^-2s) where chi_D(p) = 1, log1p(p^-2s) where it is -1, else 0,
    each from mpmath at 80 bits rounded to a multiple of 2^-56.  mpmath works
    on integers, so no bit of the table depends on the CPU or on libm."""
    primes, table, _ = _chi_table(S_primes)
    with mp.workprec(80):
        lo, hi = (np.repeat([float(mp.nint(mp.log1p(c * mpf(p) ** -two_s) * 2**56)) * 2.0**-56
                             for p in primes.tolist()], primes) for c in (-1, 1))
    out = np.where(table == 1, lo, np.where(table == -1, hi, 0.0))
    out.flags.writeable = False
    return out


# 1/k!, k = 0..11: the Taylor polynomial of exp at 0, within 4e-20 of exp(x) for |x| < 2^-3
_EXP_COEFFS = tuple(1 / math.factorial(k) for k in range(12))


def _exp_small(x: np.ndarray) -> np.ndarray:
    """exp(x) for |x| < 2^-3, within 2 ulp, by _EXP_COEFFS in Horner form.
    numpy's + and * are IEEE operations that do not fuse, so the bits do not
    depend on the SIMD dispatch, as np.exp's do."""
    y = np.full_like(x, _EXP_COEFFS[-1])
    for c in _EXP_COEFFS[-2::-1]:
        y *= x
        y += c
    return y


def _l2s_values(D: np.ndarray, S: PlaceSet, two_s: float) -> np.ndarray:
    """L^S(2s, chi_D) for each D, |D| < 2^31: the Euler product over the p <=
    P = _L2S_PRIME_BOUND outside S, summed in logs, so |log L^S - log(product)|
    <= sum_{n > P} n^-2s/(1 - n^-2s) <= P^(1-2s)/((2s-1)(1 - P^-2s)): 1.25e-5
    at 2s = 3, which moves C_F by about 1e-7, far below the truncation-model
    error.

    Blocks of a few p by at most _L2S_COLS D (about _CHI_BLOCK entries) read
    the log factor of chi_D(p) off _log_table at D mod p = D - (D // p) p
    (numpy divides by one p by multiplying, libdivide, faster than a mod) and
    fold it into the log sums, so no (D, p) matrix is held.  The log factors
    are multiples of 2^-56 (at most 45 2^-57 in log L^S) with absolute sum
    below 2^-3 for 2s >= 3, so every partial sum is exact: no blocking or
    summation order moves a bit, and _exp_small takes the exponential."""
    primes, _, off = _chi_table(S.primes)
    logtab = _log_table(S.primes, two_s)
    out = np.zeros(len(D))
    cols = max(1, min(len(D), _L2S_COLS))
    rows = max(1, _CHI_BLOCK // cols)
    for i in range(0, len(D), cols):
        d = D[i : i + cols].astype(np.int32)
        for j in range(0, len(primes), rows):
            p = primes[j : j + rows, None]
            idx = np.empty((len(p), len(d)), dtype=np.int32)
            for q, pj in zip(idx, p[:, 0].tolist()):
                np.floor_divide(d, pj, out=q)
            idx *= -p
            idx += d
            idx += off[j : j + rows, None]
            out[i : i + cols] += np.take(logtab, idx).sum(axis=0)
    return _exp_small(-out)


def residue_exact_value(S: PlaceSet) -> Fraction:
    """The exact pole datum 2^{-|S|} c_F^S at s = 3/2."""
    out = Fraction(1, 2 ** len(S))
    for p in S.primes:
        out *= Fraction(p - 1, p)
    return out


def _fit_tail(N: np.ndarray, A: np.ndarray, kappa_star: float) -> dict:
    """Fit A(t) = sum_{N_d <= t} b_d ~ kappa t + c sqrt(t) on the top three
    quarters of the sorted N, A the running sum of the b_d = L^S(1,chi_d)/
    L^S(3,chi_d), twice.  The free fit solves the normal equations on u = t/N_max
    and sqrt(u) in closed form with one step of iterative refinement, as the
    columns are nearly parallel; the pinned fit takes kappa = kappa_star and
    gives c_star."""
    n_max = float(N[-1])
    mask = N >= n_max / 4
    t, y = N[mask], A[mask]
    u = t / n_max
    v = np.sqrt(u)
    uu, uv, vv = (float(np.add.reduce(w)) for w in (u * u, u * v, u))
    det = uu * vv - uv * uv

    def solve(r):  # the coefficients of u and v for the right-hand side r
        ur, vr = float(np.add.reduce(u * r)), float(np.add.reduce(v * r))
        return (vv * ur - uv * vr) / det, (uu * vr - uv * ur) / det

    a, b = solve(y)
    da, db = solve(y - (a * u + b * v))
    a, b = a + da, b + db
    resid = y - (a * u + b * v)
    sigma2 = float(np.add.reduce(resid * resid)) / max(len(u) - 2, 1)
    c_star = float(np.add.reduce(np.sqrt(t) * (y - kappa_star * t)) / np.add.reduce(t))
    return {
        "kappa_hat": a / n_max, "c_hat": b / math.sqrt(n_max),
        "kappa_stderr": math.sqrt(max(sigma2 * vv / det, 0.0)) / n_max,
        "fit_rms": math.sqrt(sigma2),
        "kappa_star": kappa_star, "c_star": c_star, "N_max": n_max,
    }


def residue_at_pole(fits: list, P: float):
    """(estimate, error, unstable flag) of the residue of xi^S(s; alpha) at
    s = 3/2: P kappa_hat of the free tail fit on all terms (fits[0]), with the
    error P (kappa_stderr + twice the largest move of kappa_hat over the prefix
    fits, fits[1:]), as shintani_constant's bar.  Unstable when P kappa_hat
    misses the exact P kappa_star by more than that error.  P = P(3/2)."""
    kappa = fits[0]["kappa_hat"]
    err = P * (fits[0]["kappa_stderr"] + 2 * max(abs(f["kappa_hat"] - kappa) for f in fits))
    return P * kappa, err, bool(P * abs(kappa - fits[0]["kappa_star"]) > err)


def shintani_constant(fits: list, sums: list, P: float, dP: float, dlog_mean: float):
    """(value, error) of the Laurent constant C_F(S,alpha) of xi^S(s;alpha) at
    s = 3/2, by partial summation against the pinned tail model at each cut-off
    T = f["N_max"] of fits, with sums the sum_{N_d <= T} b_d/N_d:

        C(T) = P [sum_{N_d <= T} b_d/N_d - kappa* log T + c*(T)/sqrt(T)
                  + kappa* E'(0)/E(0)] + P' kappa*,

    P, P' = P(3/2), P'(3/2) and dlog_mean = E'(0)/E(0).  The pole is removed
    with the exact kappa* = R/P, never fitted.  The value is C at the first
    cut-off (all terms), the error twice the largest move of C(T) over the
    others: a heuristic bar."""
    ks = fits[0]["kappa_star"]
    cs = [P * (s - ks * math.log(f["N_max"]) + f["c_star"] / math.sqrt(f["N_max"])
               + ks * dlog_mean) + dP * ks for f, s in zip(fits, sums)]
    return cs[0], 2 * max(abs(c - cs[0]) for c in cs)


def shintani_run(alpha, S: PlaceSet, X: int = 10**5, cache=None) -> ShintaniResult:
    """The pole data of xi^S(s; alpha) at s = 3/2, by the one path: the
    residue estimate against the exact residue, and the constant term, over
    the |D| <= X (at least 10^3).  The cache, if given, is as in build_terms."""
    terms = build_terms(alpha, S, require_X(X), cache)
    L3 = _l2s_values(terms.D, S, 3.0)
    # the direct estimator, on all terms and the prefixes N_d <= N_max/2, N_max/4
    exact = residue_exact_value(S)
    P, dP = _pole_prefactor(S)
    N, b = terms.N.astype(np.float64), terms.L1S / L3
    if np.count_nonzero(N >= N[-1] / 4) < 30:
        raise ValueError("X too small for the truncation-tail model (need more classes)")
    ends = np.searchsorted(N, N[-1] / np.array([1.0, 2.0, 4.0]), side="right")
    A, sums = np.cumsum(b), np.cumsum(b / N)
    fits = [_fit_tail(N[:k], A[:k], float(exact) / P) for k in ends.tolist()]
    res_est, res_err, unstable = residue_at_pole(fits, P)
    cf, cf_err = shintani_constant(fits, sums[ends - 1].tolist(), P, dP, _dlog_mean(S.primes))
    return ShintaniResult(
        residue_estimate=res_est,
        residue_exact=exact,
        residue_error=res_err,
        constant_CF=cf,
        constant_error=cf_err,
        unstable=unstable,
        diagnostics={"n_terms": len(terms), "kappa_star": fits[0]["kappa_star"],
                     "kappa_hat": fits[0]["kappa_hat"]},
    )


# ---------------------------------------------------------------------------
# The Euler assembly identity
# ---------------------------------------------------------------------------

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
    # chi_d(p) = 0 where chi_d ramifies, so L^S(s,chi_d) = L^S'(s,chi_d), S' = S and those p
    S_chi = PlaceSet.of(*S.primes, *ram_outside)
    L1S = float(lfun.LS(1, chi, S_chi, digits))
    primes = primes_up_to(X)
    primes = primes[~np.isin(primes, S.primes)].astype(np.float64)
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
    N = conductor_outside(d, S)
    A *= float(N) ** (-s + 0.5)
    chiL = lfun.LS(2 * s, chi, S_chi, digits)
    B = float(
        lfun.LS(1, chi, S_chi, digits)
        * lfun.zetaS(2 * s - 1, S, digits)
        * lfun.zetaS(2 * s, S, digits)
        / (lfun.zetaS(2, S, digits) * chiL * mpf(N) ** (s - 0.5))
    )
    return A, B
