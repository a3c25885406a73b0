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
A = N + 1/q, which covers every residue.  The Bernoulli coefficients are
exact, from the integer tangent-number recurrence (R. P. Brent and D. Harvey
2013), so each one is a single floor division.  The guard bits absorb the
fixed-point rounding.  The fixed point is absolute, so at s > 0, where the
tails divide by q^-s, the kernel adds ceil(s log2 q) - 30 bits when that is
positive, so that q^-s keeps the working precision.

The kernel runs at s >= 0 only.  At s < 0, L(s,chi) of zeta and of the
quadratic characters comes from the kernel's jet at 1 - s by the functional
equation (_reflected_jet); hurwitz refuses s < 0.

Derivatives are propagated through every formula with first-order jets
(value, d/ds) rather than finite differences.  A value request (LS, zetaS)
switches the derivative off: it skips the sums of chi(n) n^-s ln n and the
derivative halves of the tail, and reads ln n only where the value needs
it: the whole table where n^-s needs ln p (s not a non-negative integer),
and at s = 1, where the tails' pole term is -ln A, only the ln(Nq + r) and
ln q that the table's recursion reaches (about a sixth of the table at
q = 199).  A value at s = 2 or 3 takes no logarithm.  The value is the same
integer sequence either way, so it has the bits of the full jet.

The q tails of a character mod q are one pass over the units r mod q,
shared by every character mod q (chi_D and chi_-D, the cubic characters).

Memos have exact keys (precision and the exact mpf s), ending in the
derivative switch: Dirichlet jets by (prec, s, character, deriv), tail
passes by (prec, s, N, q, M, deriv).  A full entry serves a value request;
a value-only entry never serves a derivative.  They are plain dicts
written by single assignments, so concurrent readers only ever see complete
entries; clear_cache() empties them and the tables.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from mpmath import mp, mpf
from mpmath.libmp import to_fixed

from .arith import PlaceSet, spf_table
from .characters import QuadChar

DEFAULT_DIGITS = 30
MIN_DIGITS = 15
_GUARD = 10
_GUARD_BITS = 30
# the plan's last Bernoulli term: at N = _initial_terms a plan needs at most
# about 0.6 terms per digit, so this covers every s >= 0 to about 1000 digits
_MAX_BERNOULLI_TERMS = 600
# the largest |s| the command line takes: at s > 0 the tables grow like
# s^2 q log2 q bits for a value that is 1 to 2^-s
MAX_ABS_S = 200
_MEMO_MAX = 200_000

_jet_memo: dict = {}     # (prec, s, chi, deriv) -> jet of L(s,chi); chi None for zeta - pole
_tails_memo: dict = {}   # (prec, s, N, q, M, deriv) -> fixed-point T(s, N + r/q), r mod q
_bernoulli_memo: dict = {}  # "ratios" -> exact B_2j/(2j)!; (prec, s) -> [[(c_j, c_j')], P, Q]
_ln_tables: dict = {}    # prec -> [ln n], fixed point
_pow_tables: dict = {}   # (prec, s) -> [n^-s], fixed point
_MEMOS = (_jet_memo, _tails_memo, _bernoulli_memo, _ln_tables, _pow_tables)


class PoleError(ZeroDivisionError):
    """Evaluation requested at a pole; use laurent_at_1 instead."""


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


def _memo_get(memo: dict, key, deriv: bool):
    """The entry of key + (True,), which holds the derivative, or for a
    value request (deriv False) also the value-only entry key + (False,)."""
    hit = memo.get(key + (True,))
    return memo.get(key + (False,)) if hit is None and not deriv else hit


def _remember(memo: dict, key, value):
    if len(memo) >= _MEMO_MAX:
        memo.clear()
    memo[key] = value
    return value


# ---------------------------------------------------------------------------
# first-order jets (value, d/ds) and fixed-point conversion
# ---------------------------------------------------------------------------

def _jmul(a, b):
    """Product of jets; a value-only jet (d/ds None) makes a value-only one."""
    if a[1] is None or b[1] is None:
        return a[0] * b[0], None
    return a[0] * b[0], a[0] * b[1] + a[1] * b[0]


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

def _sieve_table(memo: dict, key, X: int, unit: int, at_prime, shift=None) -> list:
    """[f(n) for n <= X] (index 0 unused), extending the memoised table, for f
    with f(1) = unit: at_prime(p, table) at primes, and elsewhere f(p) + f(n/p)
    (completely additive f, shift None) or f(p) f(n/p) >> shift (completely
    multiplicative f in fixed point), p the smallest prime factor of n."""
    tab = list(memo.get(key) or (0, unit))
    spf = spf_table(X).tolist()
    if shift is None:
        for n in range(len(tab), X + 1):
            p = spf[n]
            tab.append(at_prime(p, tab) if p == n else tab[p] + tab[n // p])
    else:
        for n in range(len(tab), X + 1):
            p = spf[n]
            tab.append(at_prime(p, tab) if p == n else (tab[p] * tab[n // p]) >> shift)
    return _remember(memo, key, tab)


def _ln_prime(p: int, ln_before: int, W: int) -> int:
    """ln p in fixed point from ln_before = ln(p-1): ln p = ln(p-1) +
    2 atanh(1/(2p-1)), and ln 2 directly."""
    if p == 2:
        with mp.workprec(W + 10):
            return _fix(mp.ln2, W)
    d = 2 * p - 1
    t, acc, k = (1 << W) // d, 0, 1
    while t:
        acc += t // k
        t //= d * d
        k += 2
    return ln_before + 2 * acc


def _ln_table(X: int) -> list:
    """[ln n] for n <= X in fixed point."""
    tab = _ln_tables.get(mp.prec)
    if tab is not None and len(tab) > X:
        return tab
    W = _bits()
    return _sieve_table(_ln_tables, mp.prec, X, 0, lambda p, tab: _ln_prime(p, tab[p - 1], W))


def _ln_entries(ns, X: int):
    """ln n for the n in ns (all <= X), indexable by n: the memoised table if
    it reaches X, else a dict of only the entries that the table's recursion
    reaches from ns (ln p from ln(p-1), ln n = ln p + ln(n/p) for p the
    smallest prime factor of n), with the table's integers."""
    tab = _ln_tables.get(mp.prec)
    if tab is not None and len(tab) > X:
        return tab
    W, spf, out = _bits(), spf_table(X).tolist(), {1: 0}

    def ln(n):
        v = out.get(n)
        if v is None:
            p = spf[n]
            v = out[n] = _ln_prime(p, ln(p - 1), W) if p == n else ln(p) + ln(n // p)
        return v

    for n in ns:
        ln(n)
    return out


def _pow_table(s, X: int) -> list:
    """[n^-s] for n <= X in fixed point, s >= 0; exp runs only for non-integral s."""
    tab = _pow_tables.get((mp.prec, s))
    if tab is not None and len(tab) > X:
        return tab
    W = _bits()
    one = 1 << W
    if s == int(s):
        k = int(s)

        def at_prime(p, tab):
            return one // p**k
    else:
        ln = _ln_table(X)

        def at_prime(p, tab):
            with mp.workprec(W + 10):
                return _fix(mp.exp(-s * _unfix(ln[p], W)), W)

    return _sieve_table(_pow_tables, (mp.prec, s), X, one, at_prime, W)


# ---------------------------------------------------------------------------
# Euler-Maclaurin tails (the single kernel)
# ---------------------------------------------------------------------------

def _initial_terms(s) -> int:
    return max(12, int(0.5 * mp.dps) + 2, int(2 * abs(s)))


def _em_plan(s, a_min, log_scale: float = 0.0, q: int | None = None) -> tuple[int, int]:
    """(N, M): N = _initial_terms(s) summed terms and the fewest Bernoulli
    terms M such that the remainder bound at A = N + a_min, times
    e^log_scale, is at most 2^-prec for the value and the s-derivative
    together; s >= 0.

    The remainder after M terms is bounded by 4 |(s)_2M| A^{1-c} /
    ((2 pi)^2M (c-1)) with c = s + 2M, and its s-derivative by the same times
    sum_i 1/|s+i| + ln A + 1/(c-1) (Johansson 2015, real s).  The bound
    decreases with A, so the smallest A covers every residue.  It falls with
    M until M is about pi A, where it is about e^(-2 pi A), far below the
    tolerance at N >= digits/2; a plan that turns upward first, or needs more
    than _MAX_BERNOULLI_TERMS, raises.  q, the modulus, only names the
    character then.
    """
    sig = float(s)
    N = _initial_terms(sig)
    log_tol = -mp.prec * math.log(2) - log_scale
    log_4, log_2pi = math.log(4), math.log(2 * math.pi)
    lnA = math.log(N + float(a_min))
    log_rf = dsum = 0.0          # log |(s)_2M| and sum 1/|s+i|, zero factors skipped
    prev = math.inf
    for M in range(1, _MAX_BERNOULLI_TERMS + 1):
        for x in (sig + 2 * M - 2, sig + 2 * M - 1):
            if x:
                log_rf += math.log(x)
                dsum += 1 / x
        c1 = sig + 2 * M - 1
        bound = (log_4 + log_rf - 2 * M * log_2pi - c1 * lnA - math.log(c1)
                 + math.log(1 + dsum + lnA + 1 / c1))
        if bound <= log_tol:
            return N, M
        if bound > prev:
            break
        prev = bound
    at = f"s = {sig:g}" + (f", q = {q}" if q else "")
    raise RuntimeError(f"Euler-Maclaurin did not converge at {at}; more precision cannot help,"
                       " a lower precision may")


def _bernoulli_ratios(M: int) -> list:
    """[(a_j, b_j)] for j <= M: B_2j/(2j)! = a_j/(b_j 4^j) = (-1)^(j-1) T_j /
    ((2j-1)! (4^j - 1) 4^j), T_j the tangent numbers (Brent and Harvey 2013)."""
    tab = _bernoulli_memo.get("ratios")
    if tab is not None and len(tab) >= M:
        return tab
    T = [0, 1]
    for k in range(2, M + 1):
        T.append((k - 1) * T[k - 1])
    for k in range(2, M + 1):
        for j in range(k, M + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    tab = [((-1) ** (j - 1) * T[j], math.factorial(2 * j - 1) * (4**j - 1))
           for j in range(1, M + 1)]
    return _remember(_bernoulli_memo, "ratios", tab)


def _bernoulli_jets(s, M: int) -> list:
    """[(c_j, d/ds c_j)] for j <= M in fixed point, c_j = B_2j/(2j)! (s)_{2j-1}:
    floors of exact rationals, as (s)_{2j-1} = P/2^(e(2j-1)) and its derivative
    is Q/2^(e(2j-2)) with integers P, Q at s = m 2^-e.  A memoised list shorter
    than M is extended from where it stopped."""
    key, W = (mp.prec, s), _bits()
    sign, man, exp, _ = s._mpf_
    m, e = ((-man if sign else man) << max(exp, 0)), max(-exp, 0)
    entry = _bernoulli_memo.get(key) or _remember(_bernoulli_memo, key, [[], m, 1])
    out, P, Q = entry
    if len(out) < M:
        ratios = _bernoulli_ratios(M)
        for j in range(len(out) + 1, M + 1):
            if j > 1:
                a, b = m + ((2 * j - 3) << e), m + ((2 * j - 2) << e)
                P, Q = P * a * b, Q * a * b + P * (a + b)
            num, den = ratios[j - 1]
            D = den << (2 * j + e * (2 * j - 1))     # c_j = num P / D, c_j' = num Q 2^e / D
            out.append(((num * P << W) // D, (num * Q << W) // (D >> e)))
        entry[1:] = P, Q
    return out


def _phi(U, L, e: int, W: int, deriv: bool):
    """(A^-u - 1)/u and, when deriv, its u-derivative (else None) in fixed
    point, from U = u in fixed point (None for u = 0), L = ln A and e = A^-u;
    closed form at u = 0, power series for small |u| ln A.  L may be None for
    |u| >= 1, as A >= 12 keeps the series off there."""
    one = 1 << W
    if U is None:
        return -L, (L * L) >> (W + 1)
    if L is not None and 2 * abs(U) * L < one * one:
        # phi = sum_{k>=1} (-L)^k u^(k-1)/k!, dphi = sum_{k>=2} (k-1) (-L)^k u^(k-2)/k!
        phi = dphi = 0
        t, upow, uprev = one, one, 0     # (-L)^k/k!, u^(k-1), u^(k-2)
        k = 1
        while True:
            t = ((t * -L) >> W) // k
            if t == 0:
                return phi, (dphi if deriv else None)
            phi += (t * upow) >> W
            dphi += (k - 1) * ((t * uprev) >> W)
            uprev, upow = upow, (upow * U) >> W
            k += 1
    phi = ((e - one) << W) // U
    return phi, (((-((L * e) >> W) - phi) << W) // U if deriv else None)


def _tail(U, L, w: int, Ainv: int, rev: list, W: int, deriv: bool):
    """Fixed-point regularized Euler-Maclaurin tail T(s, A) and, when deriv,
    its s-derivative (else None):

        (A^{1-s} - 1)/(s-1) + A^-s/2 + sum_{j<=M} c_j A^{-s-2j+1},

    from U = s - 1 as for _phi, L = ln A (None where the value needs none),
    w = A^-s, Ainv = 1/A and rev = the Bernoulli jets (c_j, c_j') for j = M
    down to 1.
    """
    x = (Ainv * Ainv) >> W
    h = 0                                # Horner in x = A^-2 over the Bernoulli terms
    for c, _ in rev:
        h = ((h * x) >> W) + c
    wa = (w * Ainv) >> W                 # A^{-s-1}
    phi, dphi = _phi(U, L, (w << W) // Ainv, W, deriv)
    val = phi + (w >> 1) + ((wa * h) >> W)
    if not deriv:
        return val, None
    dh = 0
    for _, dc in rev:
        dh = ((dh * x) >> W) + dc
    return val, dphi - ((L * w) >> (W + 1)) + ((wa * (dh - ((L * h) >> W))) >> W)


def _tails(s, N: int, q: int, M: int, deriv: bool):
    """([T(s, N + r/q)], [d/ds] or None) in fixed point, indexed by the units
    r mod q (0 elsewhere): one pass over the residues, shared by every
    character mod q.  ln A and A^-s are read off the tables at n = Nq + r.
    ln A enters the derivative, the value at s = 1 (the pole term -ln A) and
    the value where n^-s needs the whole ln table (s not a non-negative
    integer); at s = 1 the value reads only the ln n it needs."""
    key = (mp.prec, s, N, q, M)
    hit = _memo_get(_tails_memo, key, deriv)
    if hit is not None:
        return hit
    W, X = _bits(), N * q
    units = [r for r in range(1, q + 1) if math.gcd(r, q) == 1]
    pw = _pow_table(s, X + q)
    if deriv or s != int(s):
        ln = _ln_table(X + q)
    else:
        ln = _ln_entries([q] + [X + r for r in units], X + q) if s == 1 else None
    rev = _bernoulli_jets(s, M)[M - 1::-1]
    U = None if s == 1 else _fix(s - 1, W)
    pq = pw[q]
    lnq = ln[q] if ln else 0
    vals = [0] * (q + 1)
    ders = [0] * (q + 1) if deriv else None
    for r in units:
        n = X + r
        t, dt = _tail(U, ln[n] - lnq if ln else None, (pw[n] << W) // pq, (q << W) // n,
                      rev, W, deriv)
        vals[r] = t
        if deriv:
            ders[r] = dt
    return _remember(_tails_memo, key + (deriv,), (vals, ders))


def _hurwitz_jet(s, a):
    """Jet of zeta(s,a) - 1/(s-1) for s >= 0 and real a > 0: N direct terms
    plus the tail."""
    if s < 0 or a <= 0:
        raise ValueError("zeta(s, a) is computed at s >= 0 and a > 0 only")
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
        A = N + a
        lnA = mp.ln(A)
        lnA, w, Ainv = _fix(lnA, W), _fix(mp.exp(-s * lnA), W), _fix(1 / A, W)
    U = None if s == 1 else _fix(s - 1, W)
    t, dt = _tail(U, lnA, w, Ainv, _bernoulli_jets(s, M)[M - 1::-1], W, True)
    return _unfix(val + t, W), _unfix(der + dt, W)


def _with_pole(jet, s):
    """Add the pole 1/(s-1) back to a regularized jet."""
    u = s - 1
    if u == 0:
        raise PoleError("zeta(s,a) has a pole at s=1")
    return jet[0] + 1 / u, None if jet[1] is None else jet[1] - 1 / (u * u)


def hurwitz(s, a=1, derivative=0, regularized=False, digits=None):
    """Hurwitz zeta zeta(s,a) at s >= 0 or its s-derivative; regularized
    subtracts the pole term 1/(s-1) (making the result analytic at s=1)."""
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


def _dirichlet_plan(s, q: int) -> tuple[int, int]:
    """(N, M) of _em_plan for a primitive character mod q, whose tails are
    scaled by q^-s."""
    return _em_plan(s, Fraction(1, q), (1 - float(s)) * math.log(q) + math.log1p(math.log(q)),
                    q=q)


def _dirichlet_jet(s, chi, deriv: bool = True):
    """Jet of the primitive L(s,chi) for nontrivial chi, valid at s=1 too;
    chi None gives zeta(s) - 1/(s-1).  s is an mpf.  deriv False gives
    (value, None), with the value's bits of the full jet."""
    key = (mp.prec, s, chi)
    hit = _memo_get(_jet_memo, key, deriv)
    if hit is not None:
        return hit
    q, classes, m = _char_classes(chi)
    N, M = _dirichlet_plan(s, q)
    # the tails divide by q^-s, which would be 0 at s log2 q > _bits(): carry
    # the bits beyond the guard bits that q^-s needs to keep the working precision
    with mp.workprec(mp.prec + max(0, math.ceil(float(s) * math.log2(q)) - _GUARD_BITS)):
        W, X = _bits(), N * q
        pw = _pow_table(s, X + q)
        ln = _ln_table(X + q) if deriv else None
        tails, dtails = _tails(s, N, q, M, deriv)
        sums = [[0, 0, 0, 0] for _ in range(m)]  # per class: partial sum jet, tail jet
        for r in range(1, q + 1):
            k = classes[r % q]
            if k is None:
                continue
            col = slice(r, X + 1, q)         # n = r, r + q, ..., r + (N-1) q
            acc = sums[k]
            acc[0] += sum(pw[col])
            acc[2] += tails[r]
            if deriv:
                acc[1] -= sum(map(mul, pw[col], ln[col])) >> W
                acc[3] += dtails[r]
        # each class: partial sum plus q^-s times the tails, as a jet
        qs = pw[q]
        val = _combine([p + ((qs * t) >> W) for p, _, t, _ in sums], W)
        der = None
        if deriv:
            lnq = ln[q]
            der = _combine([dp + ((qs * (dt - ((lnq * t) >> W))) >> W)
                            for _, dp, t, dt in sums], W)
    return _remember(_jet_memo, key + (deriv,), (val, der))


def _euler_removed_jet(s, chi, S: PlaceSet, deriv: bool = True):
    """Jet of prod_{p in S_fin, p not dividing cond} (1 - chi(p) p^{-s});
    deriv False gives (value, None)."""
    s = _to_mpf(s)
    out = (mp.mpf(1), mp.mpf(0) if deriv else None)
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
        out = _jmul(out, (1 - c * w, c * lnp * w if deriv else None))
    return out


def _trivial_char_mark(chi) -> bool:
    return chi is None or chi.is_trivial


def _reflection_args(s, chi):
    """(q, x, y, z) of _reflected_jet's factor (q/pi)^(1/2-s) Gamma(x) Gamma(y)
    sin(pi z)/pi at s, chi None (zeta) or quadratic."""
    q, a = (1, 0) if chi is None else (chi.conductor, int(chi.D < 0))
    return q, (1 - s + a) / 2, 1 - (s + a) / 2, (s + a) / 2


def _reflected_jet(s, chi, deriv: bool):
    """Jet of L(s,chi) at s < 0, chi None (zeta) or quadratic, from the
    kernel's jet at 1 - s by the functional equation (root number 1; Davenport,
    Multiplicative Number Theory, ch. 9), a = 0 for zeta and D > 0, 1 for D < 0:

        L(s) = (q/pi)^(1/2-s) Gamma((1-s+a)/2) Gamma(1-(s+a)/2) sin(pi(s+a)/2)/pi L(1-s).

    Both Gamma arguments exceed 1/2, and sinpi gives the trivial zeros
    exactly; deriv False gives (value, None)."""
    q, x, y, z = _reflection_args(s, chi)
    t = 1 - s
    L = _dirichlet_jet(t, chi, deriv)
    if chi is None:
        L = _with_pole(L, t)
    g = (q / mp.pi) ** (mpf(1) / 2 - s) * mp.gamma(x) * mp.gamma(y) / mp.pi
    sin = mp.sinpi(z)
    dg = None
    if deriv:
        dg = g * (sin * (-mp.ln(q / mp.pi) - (mp.digamma(x) + mp.digamma(y)) / 2)
                  + mp.pi / 2 * mp.cospi(z))
    return _jmul((g * sin, dg), (L[0], None if L[1] is None else -L[1]))


def _LS_jet(s, chi, S: PlaceSet, deriv: bool = True):
    """Jet of L^S(s,chi); deriv False gives (value, None).  At s < 0 only
    zeta and the quadratic characters are computed."""
    s = _to_mpf(s)
    if _trivial_char_mark(chi):
        if s == 1:
            raise PoleError("zeta^S(s) has a pole at s=1; use laurent_at_1")
        z = (_reflected_jet(s, None, deriv) if s < 0
             else _with_pole(_dirichlet_jet(s, None, deriv), s))
        return _jmul(z, _euler_removed_jet(s, QuadChar(1), S, deriv))
    _require_computable(s, chi, S)
    L = _reflected_jet(s, chi, deriv) if s < 0 else _dirichlet_jet(s, chi, deriv)
    return _jmul(L, _euler_removed_jet(s, chi, S, deriv))


def _require_computable(s, chi, S: PlaceSet):
    """Refuse a nontrivial chi ramified outside S, and a cubic chi at s < 0."""
    if not chi.is_unramified_outside(S):
        bad = [p for p in chi.support if p not in S.primes]
        raise ValueError(f"character ramified outside S at {bad}")
    if s < 0 and not isinstance(chi, QuadChar):
        raise ValueError("L(s, chi) of a cubic character is computed at s >= 0 only")


def log_abs_LS_lower_bound(s, chi, S: PlaceSet) -> float:
    """A lower bound on log|L^S(s,chi)| at s < 0, chi None (zeta) or quadratic,
    without the kernel: the log of _reflected_jet's gamma and sine factor and
    of the removed Euler factors, both at 30 digits, plus log(zeta(2t)/
    zeta(t)) <= log|L(t,chi)| at t = 1 - s > 1 (the Euler product of L(t,chi)
    against that of zeta(2t)/zeta(t) = prod (1 + p^-t)^-1).  -inf at a trivial
    zero."""
    trivial = _trivial_char_mark(chi)
    if not trivial:
        _require_computable(s, chi, S)
    with mp.workdps(30):
        s = _to_mpf(s)
        q, x, y, z = _reflection_args(s, None if trivial else chi)
        sin = mp.sinpi(z)
        if sin == 0:
            return -math.inf
        t = 1 - s
        removed = _euler_removed_jet(s, QuadChar(1) if trivial else chi, S, deriv=False)[0]
        out = ((mpf(1) / 2 - s) * mp.ln(q / mp.pi) + mp.loggamma(x) + mp.loggamma(y)
               + mp.ln(abs(sin) / mp.pi) + mp.ln(mp.zeta(2 * t) / mp.zeta(t))
               + mp.ln(abs(removed)))
    return float(out)


def zetaS(s, S: PlaceSet, digits=None):
    """zeta^S(s) = zeta(s) * prod_{p in S_fin} (1 - p^{-s}), real s != 1."""
    with mp.workdps((digits or DEFAULT_DIGITS) + _GUARD):
        out = +(_LS_jet(s, None, S, deriv=False)[0])
    return out


def LS(s, chi, S: PlaceSet, digits=None):
    """Partial L-function L^S(s,chi); trivial chi gives zeta^S(s).

    Real for trivial/quadratic characters, complex for cubic ones.
    """
    with mp.workdps((digits or DEFAULT_DIGITS) + _GUARD):
        out = +(_LS_jet(s, chi, S, deriv=False)[0])
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
