"""Quadratic and cubic idele-class characters of Q, unramified outside S.

A character of the norm-one idele class group of Q is identified with a
primitive Dirichlet character.  Quadratic characters are indexed by
fundamental discriminants; cubic characters carry an explicit value table.
Also: the S-restricted evaluation chi_S, the discriminant-class sets used
by the Shintani zeta function, and conductors outside S.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, prod
from numbers import Integral

import numpy as np

from .arith import (
    PlaceSet,
    SquareClassRep,
    factorize,
    is_square_at,
    kronecker,
    legendre_table,
    primes_up_to,
    squarefree_kernel,
    valuation,
)


def is_fundamental_discriminant(D: int) -> bool:
    """True for D=1 (trivial) and for discriminants of quadratic fields."""
    if D == 1:
        return True
    if D % 4 == 1:
        return D == squarefree_kernel(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and m == squarefree_kernel(m)
    return False


@dataclass(frozen=True, order=True)
class QuadChar:
    """Dirichlet character of order <= 2, given by a fundamental discriminant.

    D = 1 encodes the trivial character.
    """

    D: int

    def __post_init__(self):
        if not is_fundamental_discriminant(self.D):
            raise ValueError(f"{self.D} is not a fundamental discriminant")

    @property
    def is_trivial(self) -> bool:
        return self.D == 1

    @property
    def conductor(self) -> int:
        return abs(self.D)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(factorize(self.D))) if self.D != 1 else ()

    def exponent(self, n: int):
        v = kronecker(self.D, n)
        return None if v == 0 else (1 - v) // 2

    def __call__(self, n: int) -> int:
        return kronecker(self.D, n)

    def is_unramified_outside(self, S: PlaceSet) -> bool:
        return all(p in S.primes for p in self.support)


def quad_char_of(d: int | Fraction) -> QuadChar:
    """The quadratic character attached to Q(sqrt(d)); depends only on the
    square class of d.  Rejects squares (use QuadChar(1) explicitly)."""
    return QuadChar(fundamental_discriminant_of(d))


def _prime_discriminants(S: PlaceSet) -> list[list[int]]:
    """Groups of prime discriminants supported in S_fin; at 2 the three
    choices -4, 8, -8 are mutually exclusive."""
    groups = []
    for p in S.primes:
        if p == 2:
            groups.append([-4, 8, -8])
        else:
            groups.append([p if p % 4 == 1 else -p])
    return groups


def enum_quad_chars(S: PlaceSet) -> list[QuadChar]:
    """All quadratic characters (including the trivial one) unramified outside S.

    Every fundamental discriminant is a product of prime discriminants with
    distinct prime supports, at most one of them even.
    """
    out = []
    for combo in product(*[[1] + g for g in _prime_discriminants(S)]):
        D = 1
        for c in combo:
            D *= c
        out.append(QuadChar(D))
    return sorted(out, key=lambda ch: (abs(ch.D), -ch.D))


# ---------------------------------------------------------------------------
# Cubic characters
# ---------------------------------------------------------------------------

def _unit_group_generator(q: int) -> int:
    """A generator of (Z/q)^x for q = 9 or q an odd prime (cyclic cases)."""
    units = [a for a in range(1, q) if gcd(a, q) == 1]
    n = len(units)
    targets = {p for p in factorize(n)}
    for g in units:
        if all(pow(g, n // p, q) != 1 for p in targets):
            return g
    raise AssertionError(f"(Z/{q})^x not cyclic?")


@dataclass(frozen=True)
class CubicChar:
    """Dirichlet character of order dividing 3, as an explicit value table.

    values[n] for n coprime to the modulus is the exponent k in omega^k with
    omega = exp(2*pi*i/3); non-coprime n map to None (value 0).
    """

    modulus: int
    values: tuple  # values[n] in {0,1,2,None}, length == modulus

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(factorize(self.modulus))) if self.modulus > 1 else ()

    @property
    def is_trivial(self) -> bool:
        return all(v in (0, None) for v in self.values)

    def exponent(self, n: int):
        return self.values[n % self.modulus]

    def __call__(self, n: int) -> complex:
        k = self.exponent(n)
        if k is None:
            return 0j
        return cmath.exp(2j * cmath.pi * k / 3)

    def inverse(self) -> "CubicChar":
        vals = tuple(None if v is None else (-v) % 3 for v in self.values)
        return CubicChar(self.modulus, vals)

    def is_unramified_outside(self, S: PlaceSet) -> bool:
        return all(p in S.primes for p in self.support)


def _cubic_component(q: int, power: int) -> dict[int, int]:
    """Exponent table of a primitive order-3 character mod q (q=9 or p=1 mod 3)."""
    g = _unit_group_generator(q)
    n = len([a for a in range(1, q) if gcd(a, q) == 1])
    table = {}
    acc = 1
    for k in range(n):
        table[acc] = (k * power) % 3
        acc = (acc * g) % q
    return table


def enum_cubic_chars(S: PlaceSet) -> list[CubicChar]:
    """All nontrivial cubic characters unramified outside S, each followed by
    its inverse.

    Components exist only for modulus 9 (if 3 in S) and primes p = 1 mod 3.  A
    character takes an exponent 0, 1 or 2 on each and its inverse the negated
    ones, so the choices whose first nonzero exponent is 1 meet each pair once.
    """
    moduli = sorted(([9] if 3 in S.primes else []) + [p for p in S.primes if p % 3 == 1])
    out: list[CubicChar] = []
    for combo in product((0, 1, 2), repeat=len(moduli)):
        if next((c for c in combo if c), 0) != 1:
            continue
        comps = [(q, _cubic_component(q, c)) for q, c in zip(moduli, combo) if c]
        Q = prod(q for q, _ in comps)
        vals = tuple(sum(t[n % q] for q, t in comps) % 3 if gcd(n, Q) == 1 else None
                     for n in range(Q))
        ch = CubicChar(Q, vals)
        out += [ch, ch.inverse()]
    return out


# ---------------------------------------------------------------------------
# chi_S: product of the local components over S
# ---------------------------------------------------------------------------

def require_unramified_outside(chi, S: PlaceSet):
    """Refuse a character ramified at a prime outside S."""
    if not chi.is_unramified_outside(S):
        bad = [p for p in chi.support if p not in S.primes]
        raise ValueError(f"character ramified outside S at {bad}")


def chi_S(chi, alpha: int | Fraction, S: PlaceSet):
    """prod_{v in S} chi_v(alpha): +-1 for quadratic chi and a complex root
    of unity for cubic chi, from chi_S_exponent."""
    k = chi_S_exponent(chi, alpha, S)
    if isinstance(chi, QuadChar):
        return (-1) ** k
    return cmath.exp(2j * cmath.pi * k / 3)


def chi_S_exponent(chi, alpha: int | Fraction, S: PlaceSet) -> int:
    """Exact exponent k with chi_S(alpha) = (-1)^k (quadratic chi) or omega^k
    (cubic chi), via the global product formula.

    The product over all places of chi_v(alpha) is 1, so the S-part equals
    prod_{p not in S} chi_p(alpha)^{-1} = prod chi(p)^{-v_p(alpha)} with
    chi(p) the Dirichlet value at the (unramified) prime p.
    """
    alpha = Fraction(alpha)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    require_unramified_outside(chi, S)
    k = 0
    for p in factorize(abs(alpha.numerator * alpha.denominator)):
        if p not in S.primes:
            kp = chi.exponent(p)
            if kp is None:
                raise AssertionError("unramified prime maps into the modulus")
            k -= kp * valuation(alpha, p)
    return k % (2 if isinstance(chi, QuadChar) else 3)


# ---------------------------------------------------------------------------
# Discriminant class sets and conductors outside S
# ---------------------------------------------------------------------------

def conductor_outside(d: int | Fraction, S: PlaceSet) -> int:
    """N(f_d^S): the part of the conductor of chi_d at the primes outside S."""
    chi = quad_char_of(d)
    N = 1
    for p in chi.support:
        if p not in S.primes:
            N *= p ** valuation(chi.D, p)
    return N


@dataclass(frozen=True)
class DiscClassSet:
    """A set of square classes of nonsquare rationals, as squarefree integers."""

    entries: tuple[int, ...] | np.ndarray  # Q_S: a read-only int64 array


def fundamental_discriminant_of(d: int | Fraction) -> int:
    """The discriminant of Q(sqrt(d)); rejects squares."""
    m = squarefree_kernel(d)
    if m == 1:
        raise ValueError("d is a square: the attached character is trivial")
    return m if m % 4 == 1 else 4 * m


def disc_classes(S: PlaceSet, d_S, X: int | None = None, kind: str = "Q_S") -> DiscClassSet:
    """Square classes d matching d_S at every v in S.

    kind="Q_S": all squarefree nonsquare d with |fundamental discriminant| <= X
    (X required), ordered by |D| then d.
    kind="Q_ur": the finite set of classes whose character is additionally
    unramified outside S (discriminant support inside S); no bound needed.
    """
    S.require_2("discriminant class enumeration")
    alpha = d_S.value if isinstance(d_S, SquareClassRep) else squarefree_kernel(d_S)
    if kind == "Q_ur":
        found = []
        for ch in enum_quad_chars(S):
            if ch.is_trivial:
                continue
            m = squarefree_kernel(ch.D)
            if m != 1 and all(is_square_at(Fraction(m, alpha), v) for v in S):
                found.append(m)
        found.sort(key=lambda m: (abs(fundamental_discriminant_of(m)), m))
        return DiscClassSet(tuple(found))
    if kind != "Q_S":
        raise ValueError(f"unknown kind {kind!r}")
    if X is None:
        raise ValueError("kind='Q_S' needs a truncation bound X")
    if not isinstance(X, Integral) or X < 0:
        raise ValueError(f"the truncation bound X must be an integer >= 0, got X={X!r}")
    m = _local_class_scan(alpha, S, X)
    m.flags.writeable = False
    return DiscClassSet(m)


def _local_class_scan(alpha: int, S: PlaceSet, X: int) -> np.ndarray:
    """The squarefree m != 1 with |fundamental discriminant| <= X and m/alpha
    a square at every v in S, ordered by (|D|, m).

    For squarefree m and alpha this is a congruence: the signs agree (v = oo);
    v_p(m) = v_p(alpha) at each p in S; and the product of the unit parts is
    1 mod 8 at p = 2, a quadratic residue at odd p (units mod 8 are their own
    inverses, and u and 1/u have the same Legendre symbol).  As 2 is in S, the
    |m| form one progression c + k*step with step = 8 * 2^v_2(alpha): 4 never
    divides m, D/m is the same for every entry (D = m when m = 1 mod 4, else
    4m), so |D| grows with |m| and the progression is already in order.
    """
    sign = 1 if alpha > 0 else -1
    step = 16 if alpha % 2 == 0 else 8
    c = abs(alpha) % step
    top = X if sign * c % 4 == 1 else X // 4
    keep = np.ones(max(0, (top - c) // step + 1), dtype=bool)
    for p in primes_up_to(isqrt(top))[1:].tolist():  # odd p: p^2 | m on one class of k
        q = p * p
        keep[-c * pow(step, -1, q) % q :: q] = False
    for p in S.primes[1:]:  # odd p: m mod p * p^v_p(alpha) decides, a period of k
        pe = p if alpha % p == 0 else 1  # p^v_p(alpha)
        r = sign * (c + step * np.arange(min(p * pe, keep.size + 1)))  # m over a period, or all k
        ok = (r % pe == 0) & (legendre_table(p)[r // pe % p * (alpha // pe % p) % p] == 1)
        keep &= np.tile(ok, -(-keep.size // ok.size))[: keep.size]
    m = sign * (c + step * np.flatnonzero(keep))
    return m[m != 1]  # the trivial class
