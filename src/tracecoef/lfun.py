"""Partial L-functions over Q and their Laurent data at s=1.

One numeric kernel, the Dirichlet sum with Euler-Maclaurin tails.  For a
primitive character chi mod q (q = 1 for the Riemann zeta function)

    L(s,chi) = sum_{n <= Nq} chi(n) n^-s + q^-s sum_{a mod q} chi(a) T(s, N + a/q),

where T(s, A) is the Euler-Maclaurin tail of the Hurwitz zeta function
beyond its first N terms.  The tails are regularized: they carry the pole
term (A^{1-s} - 1)/(s-1), analytic at s=1 with the closed form (-ln A,
ln^2 A / 2) there.  The subtracted poles cancel because sum_a chi(a) = 0;
for zeta the kernel returns zeta(s) - 1/(s-1), and 1/(s-1) is added back
off the pole.  Laurent coefficients at s=1 thus never rely on numerical
cancellation.

Arithmetic is fixed point on Python integers scaled by 2^W, with W the
working precision plus _GUARD_BITS.  The tables of ln n and n^-s are built
from a smallest-prime-factor sieve, additively and multiplicatively, so ln
and exp run only at primes (n^-s needs no exp at all for integer s); they
are shared by every character at the same precision and s.  The number of
Bernoulli terms comes from the explicit Euler-Maclaurin remainder bound
(F. Johansson, Numer. Algorithms 2015), checked once at the smallest
A = N + 1/q, which covers every residue; N doubles when the bound cannot
reach 2^-prec.  The guard bits absorb the fixed-point rounding.

Derivatives are propagated through every formula with first-order jets
(value, d/ds) rather than finite differences.

Memos have exact keys (precision and the exact mpf s): Dirichlet jets by
(prec, s, character), tails by (prec, s, N, a/q).  They are plain dicts
written by single assignments, so concurrent readers only ever see complete
entries; clear_cache() empties them and the tables.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from mpmath import mp, mpf, bernoulli
from mpmath.libmp import to_fixed

from .arith import PlaceSet, spf_table
from .characters import QuadChar

DEFAULT_DIGITS = 30
_GUARD = 10
_GUARD_BITS = 30
_MAX_BERNOULLI_TERMS = 100
_MEMO_MAX = 200_000

_jet_memo: dict = {}     # (prec, s, chi) -> jet of L(s,chi); chi None for zeta - pole
_tail_memo: dict = {}    # (prec, s, N, a) -> fixed-point jet of T(s, N + a)
_bernoulli_memo: dict = {}  # (prec, s) -> [[(c_j, c_j')], (s)_{2j-1}, its s-derivative]
_ln_tables: dict = {}    # prec -> [ln n], fixed point
_pow_tables: dict = {}   # (prec, s) -> [n^-s], fixed point
_MEMOS = (_jet_memo, _tail_memo, _bernoulli_memo, _ln_tables, _pow_tables)


class PoleError(ZeroDivisionError):
    """Evaluation requested at a pole; use laurent_at_1 instead."""


@dataclass
class PrecisionConfig:
    """Working precision for the numeric kernel."""

    working_digits: int = DEFAULT_DIGITS

    def __post_init__(self):
        if self.working_digits < 15:
            raise ValueError("working_digits must be >= 15")


@dataclass
class LaurentData:
    """Laurent data of a partial L-function at a point:
    L(s) = residue/(s-center) + c0 + c1*(s-center) + ...
    """

    center: float
    residue: mpf
    c0: mpf
    c1: mpf


def clear_cache():
    for memo in _MEMOS:
        memo.clear()


def _remember(memo: dict, key, value):
    if len(memo) >= _MEMO_MAX:
        memo.clear()
    memo[key] = value
    return value


# ---------------------------------------------------------------------------
# first-order jets (value, d/ds) and fixed-point conversion
# ---------------------------------------------------------------------------

def _jmul(a, b):
    return (a[0] * b[0], a[0] * b[1] + a[1] * b[0])


def _to_mpf(x):
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator
    return mpf(x)


def _bits() -> int:
    """Fixed-point scale W of the kernel at the current precision."""
    return mp.prec + _GUARD_BITS


def _fix(x, W: int) -> int:
    return to_fixed(mpf(x)._mpf_, W)


def _unfix(n: int, W: int):
    return mpf((n, -W))


# ---------------------------------------------------------------------------
# tables of ln n and n^-s from the smallest-prime-factor sieve
# ---------------------------------------------------------------------------

def _sieve_table(memo: dict, key, X: int, unit: int, at_prime, combine) -> list:
    """[f(n) for n <= X] (index 0 unused), extending the memoised table, for a
    completely additive or multiplicative f with f(1) = unit:
    at_prime(p, table) at primes and combine(f(p), f(n/p)) elsewhere, p the
    smallest prime factor of n."""
    tab = list(memo.get(key) or (0, unit))
    spf = spf_table(X).tolist()
    for n in range(len(tab), X + 1):
        p = spf[n]
        tab.append(at_prime(p, tab) if p == n else combine(tab[p], tab[n // p]))
    return _remember(memo, key, tab)


def _ln_table(X: int) -> list:
    """[ln n] for n <= X in fixed point; ln p = ln(p-1) + 2 atanh(1/(2p-1))."""
    tab = _ln_tables.get(mp.prec)
    if tab is not None and len(tab) > X:
        return tab
    W = _bits()

    def at_prime(p, tab):
        if p == 2:
            with mp.workprec(W + 10):
                return _fix(mp.ln2, W)
        d = 2 * p - 1
        t, acc, k = (1 << W) // d, 0, 1
        while t:
            acc += t // k
            t //= d * d
            k += 2
        return tab[p - 1] + 2 * acc

    return _sieve_table(_ln_tables, mp.prec, X, 0, at_prime, int.__add__)


def _pow_table(s, X: int) -> list:
    """[n^-s] for n <= X in fixed point; exp runs only for non-integral s."""
    tab = _pow_tables.get((mp.prec, s))
    if tab is not None and len(tab) > X:
        return tab
    W = _bits()
    one = 1 << W
    if s >= 0 and s == int(s):
        k = int(s)

        def at_prime(p, tab):
            return one // p**k
    else:
        ln = _ln_table(X)

        def at_prime(p, tab):
            with mp.workprec(W + 10):
                return _fix(mp.exp(-s * _unfix(ln[p], W)), W)

    return _sieve_table(_pow_tables, (mp.prec, s), X, one, at_prime,
                        lambda x, y: (x * y) >> W)


# ---------------------------------------------------------------------------
# Euler-Maclaurin tails (the single kernel)
# ---------------------------------------------------------------------------

def _initial_terms(s) -> int:
    return max(12, int(0.5 * mp.dps) + 2, int(2 * abs(s)))


def _em_plan(s, a_min, scale: float = 1.0, N: int | None = None) -> tuple[int, int]:
    """(N, M): summed terms N and Bernoulli terms M such that the remainder
    bound at A = N + a_min, times scale, is at most 2^-prec for the value and
    the s-derivative together.

    The remainder after M terms is bounded by 4 |(s)_2M| A^{1-c} /
    ((2 pi)^2M (c-1)) with c = s + 2M, and its s-derivative by the same times
    sum_i 1/|s+i| + ln A + 1/(c-1) (Johansson 2015, real s).  The bound
    decreases with A, so the smallest A covers every residue.  N doubles when
    the bound turns upward before reaching the tolerance.
    """
    sig = float(s)
    N = N or _initial_terms(sig)
    log_tol = -mp.prec * math.log(2) - math.log(scale)
    log_4, log_2pi = math.log(4), math.log(2 * math.pi)
    for _attempt in range(6):
        lnA = math.log(N + float(a_min))
        log_rf = dsum = 0.0          # log |(s)_2M| and sum 1/|s+i|, zero factors skipped
        prev = math.inf
        for M in range(1, _MAX_BERNOULLI_TERMS + 1):
            for x in (sig + 2 * M - 2, sig + 2 * M - 1):
                if x:
                    log_rf += math.log(abs(x))
                    dsum += 1 / abs(x)
            c1 = sig + 2 * M - 1
            if c1 <= 0:
                continue
            bound = (log_4 + log_rf - 2 * M * log_2pi - c1 * lnA - math.log(c1)
                     + math.log(1 + dsum + lnA + 1 / c1))
            if bound <= log_tol:
                return N, M
            if bound > prev:
                break
            prev = bound
        N *= 2
    raise RuntimeError("Euler-Maclaurin did not converge; increase precision")


def _bernoulli_jets(s, M: int) -> list:
    """[(c_j, d/ds c_j)] for j <= M in fixed point, c_j = B_2j/(2j)! (s)_{2j-1};
    a memoised list shorter than M is extended from where it stopped."""
    key, W = (mp.prec, s), _bits()
    entry = _bernoulli_memo.get(key) or _remember(_bernoulli_memo, key, [[], s, mpf(1)])
    out, R, dR = entry              # R, dR: rising factorial (s)_{2j-1} and its derivative
    if len(out) < M:
        with mp.workprec(W + 20):
            for j in range(len(out) + 1, M + 1):
                if j > 1:
                    a, b = s + (2 * j - 3), s + (2 * j - 2)
                    R, dR = R * a * b, dR * a * b + R * (a + b)
                beta = bernoulli(2 * j) / math.factorial(2 * j)
                out.append((_fix(beta * R, W), _fix(beta * dR, W)))
        entry[1:] = R, dR
    return out


def _phi(u, L: int, e: int, W: int):
    """(A^-u - 1)/u and its u-derivative in fixed point, from L = ln A and
    e = A^-u; closed form at u = 0, power series for small |u| ln A."""
    one = 1 << W
    if u == 0:
        return -L, (L * L) >> (W + 1)
    U = _fix(u, W)
    if 2 * abs(U) * L < one * one:
        # phi = sum_{k>=1} (-L)^k u^(k-1)/k!, dphi = sum_{k>=2} (k-1) (-L)^k u^(k-2)/k!
        phi = dphi = 0
        t, upow, uprev = one, one, 0     # (-L)^k/k!, u^(k-1), u^(k-2)
        k = 1
        while True:
            t = ((t * -L) >> W) // k
            if t == 0:
                return phi, dphi
            phi += (t * upow) >> W
            dphi += (k - 1) * ((t * uprev) >> W)
            uprev, upow = upow, (upow * U) >> W
            k += 1
    phi = ((e - one) << W) // U
    return phi, ((-((L * e) >> W) - phi) << W) // U


def _tail(s, N: int, a, M: int):
    """Fixed-point jet of the regularized Euler-Maclaurin tail T(s, A), A = N + a:

        (A^{1-s} - 1)/(s-1) + A^-s/2 + sum_{j<=M} c_j A^{-s-2j+1}.

    A rational a = r/q reads ln A and A^-s off the tables at n = Nq + r;
    any other a > 0 evaluates them directly.
    """
    key = (mp.prec, s, N, a)
    hit = _tail_memo.get(key)
    if hit is not None:
        return hit
    W = _bits()
    if isinstance(a, Fraction):
        q = a.denominator
        n = N * q + a.numerator
        ln, pw = _ln_table(n), _pow_table(s, n)
        lnA = ln[n] - ln[q]
        w = (pw[n] << W) // pw[q]
        Ainv = (q << W) // n
    else:
        with mp.workprec(W + 10):
            A = N + a
            lnA_mpf = mp.ln(A)
            lnA, w, Ainv = _fix(lnA_mpf, W), _fix(mp.exp(-s * lnA_mpf), W), _fix(1 / A, W)
    x = (Ainv * Ainv) >> W
    h = dh = 0                           # Horner in x = A^-2 over the Bernoulli terms
    for c, dc in reversed(_bernoulli_jets(s, M)[:M]):
        h = ((h * x) >> W) + c
        dh = ((dh * x) >> W) + dc
    wa = (w * Ainv) >> W                 # A^{-s-1}
    phi, dphi = _phi(s - 1, lnA, (w << W) // Ainv, W)
    val = phi + (w >> 1) + ((wa * h) >> W)
    der = dphi - ((lnA * w) >> (W + 1)) + ((wa * (dh - ((lnA * h) >> W))) >> W)
    return _remember(_tail_memo, key, (val, der))


def _hurwitz_jet(s, a):
    """Jet of zeta(s,a) - 1/(s-1) for real a > 0: N direct terms plus the tail."""
    if a <= 0:
        raise ValueError("need a > 0")
    N, M = _em_plan(s, a)
    W = _bits()
    val = der = mpf(0)
    with mp.workprec(W + 10):
        for k in range(N):
            L = mp.ln(k + a)
            w = mp.exp(-s * L)
            val += w
            der -= L * w
        val, der = _fix(val, W), _fix(der, W)
    t, dt = _tail(s, N, a, M)
    return _unfix(val + t, W), _unfix(der + dt, W)


def _with_pole(jet, s):
    """Add the pole 1/(s-1) back to a regularized jet."""
    u = s - 1
    if u == 0:
        raise PoleError("zeta(s,a) has a pole at s=1")
    return jet[0] + 1 / u, jet[1] - 1 / (u * u)


def hurwitz(s, a=1, derivative=0, regularized=False, digits=None):
    """Hurwitz zeta zeta(s,a) or its s-derivative; regularized subtracts the
    pole term 1/(s-1) (making the result analytic at s=1)."""
    with mp.workdps((digits or DEFAULT_DIGITS) + _GUARD):
        s = _to_mpf(s)
        jet = _hurwitz_jet(s, _to_mpf(a))
        if not regularized:
            jet = _with_pole(jet, s)
        out = +jet[derivative]
    return out


def stieltjes_gamma(n: int, digits=None):
    """Stieltjes constants gamma_0, gamma_1 from our own kernel:
    zeta(s) - 1/(s-1) = gamma_0 - gamma_1 (s-1) + ..."""
    if n not in (0, 1):
        raise ValueError("only gamma_0 and gamma_1 are provided")
    with mp.workdps((digits or DEFAULT_DIGITS) + _GUARD):
        g, gp = _dirichlet_jet(mpf(1), None)
        out = +(g if n == 0 else -gp)
    return out


# ---------------------------------------------------------------------------
# Dirichlet L-functions (primitive) and partial L-functions
# ---------------------------------------------------------------------------

def _char_classes(chi):
    """(q, classes, m): chi(n) = exp(2 pi i classes[n % q] / m), classes None
    off the units.  chi None is the trivial character mod 1."""
    if chi is None:
        return 1, [0], 1
    if isinstance(chi, QuadChar):
        index = {1: 0, -1: 1}
        return chi.conductor, [index.get(chi(r)) for r in range(chi.conductor)], 2
    return chi.modulus, chi.values, 3


def _combine(parts: list, W: int):
    """sum_k exp(2 pi i k/m) parts[k] for m = len(parts) <= 3, rounded once."""
    if len(parts) == 3:
        re = _unfix(2 * parts[0] - parts[1] - parts[2], W + 1)
        return mp.mpc(re, mp.sqrt(3) * _unfix(parts[1] - parts[2], W + 1))
    return _unfix(parts[0] - sum(parts[1:]), W)


def _dirichlet_jet(s, chi):
    """Jet of the primitive L(s,chi) for nontrivial chi, valid at s=1 too;
    chi None gives zeta(s) - 1/(s-1).  s is an mpf."""
    key = (mp.prec, s, chi)
    hit = _jet_memo.get(key)
    if hit is not None:
        return hit
    q, classes, m = _char_classes(chi)
    N, M = _em_plan(s, Fraction(1, q), q ** (1 - float(s)) * (1 + math.log(q)))
    W = _bits()
    X = N * q
    ln, pw = _ln_table(X + q), _pow_table(s, X + q)
    sums = [[0, 0, 0, 0] for _ in range(m)]  # per class: partial sum jet, tail jet
    for r in range(1, q + 1):
        k = classes[r % q]
        if k is None:
            continue
        col = slice(r, X + 1, q)         # n = r, r + q, ..., r + (N-1) q
        v = pw[col]
        t, dt = _tail(s, N, Fraction(r, q), M)
        acc = sums[k]
        acc[0] += sum(v)
        acc[1] -= sum(map(mul, v, ln[col])) >> W
        acc[2] += t
        acc[3] += dt
    # each class: partial sum plus q^-s times the tails, as a jet
    qs, lnq = pw[q], ln[q]
    val = [p + ((qs * t) >> W) for p, _, t, _ in sums]
    der = [dp + ((qs * (dt - ((lnq * t) >> W))) >> W) for _, dp, t, dt in sums]
    return _remember(_jet_memo, key, (_combine(val, W), _combine(der, W)))


def _euler_removed_jet(s, chi, S: PlaceSet):
    """Jet of prod_{p in S_fin, p not dividing cond} (1 - chi(p) p^{-s})."""
    s = _to_mpf(s)
    out = (mp.mpf(1), mp.mpf(0))
    for p in S.primes:
        if isinstance(chi, QuadChar):
            c = chi(p)  # 0 at ramified p, where the local factor is already 1
        else:
            k = chi.exponent(p)
            c = 0 if k is None else mp.exp(2j * mp.pi * k / 3)
        if c == 0:
            continue
        lnp = mp.ln(p)
        w = mp.exp(-s * lnp)
        out = _jmul(out, (1 - c * w, c * lnp * w))
    return out


def _trivial_char_mark(chi) -> bool:
    return chi is None or chi.is_trivial


def _LS_jet(s, chi, S: PlaceSet):
    s = _to_mpf(s)
    if _trivial_char_mark(chi):
        if s == 1:
            raise PoleError("zeta^S(s) has a pole at s=1; use laurent_at_1")
        z = _with_pole(_dirichlet_jet(s, None), s)
        return _jmul(z, _euler_removed_jet(s, QuadChar(1), S))
    if not chi.is_unramified_outside(S):
        bad = [p for p in chi.support if p not in S.primes]
        raise ValueError(f"character ramified outside S at {bad}")
    L = _dirichlet_jet(s, chi)
    return _jmul(L, _euler_removed_jet(s, chi, S))


def zetaS(s, S: PlaceSet, digits=None):
    """zeta^S(s) = zeta(s) * prod_{p in S_fin} (1 - p^{-s}), real s != 1."""
    with mp.workdps((digits or DEFAULT_DIGITS) + _GUARD):
        out = +(_LS_jet(s, None, S)[0])
    return out


def LS(s, chi, S: PlaceSet, digits=None):
    """Partial L-function L^S(s,chi); trivial chi gives zeta^S(s).

    Real for trivial/quadratic characters, complex for cubic ones.
    """
    with mp.workdps((digits or DEFAULT_DIGITS) + _GUARD):
        out = +(_LS_jet(s, chi, S)[0])
    return out


def deriv_LS(s0, chi, S: PlaceSet, digits=None):
    """d/ds L^S(s,chi) at s0 (s0 != 1 for the trivial character)."""
    with mp.workdps((digits or DEFAULT_DIGITS) + _GUARD):
        out = +(_LS_jet(s0, chi, S)[1])
    return out


def _removed_product_taylor2(S: PlaceSet, digits):
    """Taylor data (f, f', f'') at s=1 of f(s) = prod_{p in S_fin}(1 - p^{-s})."""
    f = (mp.mpf(1), mp.mpf(0), mp.mpf(0))
    for p in S.primes:
        lnp = mp.ln(p)
        w = mp.mpf(1) / p
        g = (1 - w, lnp * w, -(lnp**2) * w)
        f = (
            f[0] * g[0],
            f[0] * g[1] + f[1] * g[0],
            f[0] * g[2] + 2 * f[1] * g[1] + f[2] * g[0],
        )
    return f


def laurent_at_1(chi, S: PlaceSet, digits=None) -> LaurentData:
    """Laurent data of L^S(s,chi) at s=1.

    Trivial character: multiply the Laurent series of zeta at 1 (Stieltjes
    constants) by the Taylor series of the removed Euler factors.  Nontrivial:
    residue 0, c0 = L^S(1,chi), c1 = (d/ds)L^S(s,chi)|_1.
    """
    digits = digits or DEFAULT_DIGITS
    with mp.workdps(digits + _GUARD):
        if _trivial_char_mark(chi):
            g0, g0p = _dirichlet_jet(mpf(1), None)
            gamma0, gamma1 = g0, -g0p
            f, fp, fpp = _removed_product_taylor2(S, digits)
            residue = +f
            c0 = +(gamma0 * f + fp)
            c1 = +(-gamma1 * f + gamma0 * fp + fpp / 2)
        else:
            jet = _LS_jet(1, chi, S)
            residue = mp.mpf(0)
            c0 = +jet[0]
            c1 = +jet[1]
    return LaurentData(center=1.0, residue=residue, c0=c0, c1=c1)
