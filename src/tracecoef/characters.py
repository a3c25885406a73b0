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
from math import isqrt

import numpy as np

from .arith import (
    PlaceSet,
    SquareClassRep,
    factorize,
    is_square_at,
    kronecker,
    legendre_table,
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

    def __call__(self, n: int) -> int:
        return kronecker(self.D, n)

    def is_unramified_outside(self, S: PlaceSet) -> bool:
        return all(p in S.primes for p in self.support)

    def order(self) -> int:
        return 1 if self.D == 1 else 2


def quad_char_of(d: int | Fraction) -> QuadChar:
    """The quadratic character attached to Q(sqrt(d)); depends only on the
    square class of d.  Rejects squares (use QuadChar(1) explicitly)."""
    m = squarefree_kernel(d)
    if m == 1:
        raise ValueError("d is a square: the attached character is trivial")
    return QuadChar(m if m % 4 == 1 else 4 * m)


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
    from math import gcd

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

    def order(self) -> int:
        return 1 if self.is_trivial else 3

    def inverse(self) -> "CubicChar":
        vals = tuple(None if v is None else (-v) % 3 for v in self.values)
        return CubicChar(self.modulus, vals)

    def is_unramified_outside(self, S: PlaceSet) -> bool:
        return all(p in S.primes for p in self.support)


def _cubic_component(q: int, power: int) -> dict[int, int]:
    """Exponent table of a primitive order-3 character mod q (q=9 or p=1 mod 3)."""
    g = _unit_group_generator(q)
    from math import gcd

    n = len([a for a in range(1, q) if gcd(a, q) == 1])
    table = {}
    acc = 1
    for k in range(n):
        table[acc] = (k * power) % 3
        acc = (acc * g) % q
    return table


def enum_cubic_chars(S: PlaceSet) -> list[CubicChar]:
    """All nontrivial cubic characters unramified outside S, inverses adjacent.

    Components exist only for modulus 9 (if 3 in S) and primes p = 1 mod 3.
    """
    moduli = []
    if 3 in S.primes:
        moduli.append(9)
    moduli += [p for p in S.primes if p % 3 == 1]
    moduli.sort()
    out: list[CubicChar] = []
    seen: set = set()
    for combo in product(*[(0, 1, 2)] * len(moduli)):
        if all(c == 0 for c in combo):
            continue
        qs = [q for q, c in zip(moduli, combo) if c]
        tables = [_cubic_component(q, c) for q, c in zip(moduli, combo) if c]
        Q = 1
        for q in qs:
            Q *= q
        vals: list = [None] * Q
        from math import gcd

        for n in range(Q):
            if gcd(n, Q) == 1:
                vals[n] = sum(t[n % q] for q, t in zip(qs, tables)) % 3
        ch = CubicChar(Q, tuple(vals))
        key = (Q, ch.values)
        if key not in seen:
            seen.add(key)
            out.append(ch)
    # pair each character with its inverse: sort by (modulus, min exponent pattern)
    paired: list[CubicChar] = []
    used = set()
    for ch in out:
        if id(ch) in used:
            continue
        inv = ch.inverse()
        paired.append(ch)
        used.add(id(ch))
        for other in out:
            if other.values == inv.values and other.modulus == inv.modulus and id(other) not in used:
                paired.append(other)
                used.add(id(other))
                break
    return paired


# ---------------------------------------------------------------------------
# chi_S: product of the local components over S
# ---------------------------------------------------------------------------

def _require_unramified_outside(chi, S: PlaceSet):
    if not chi.is_unramified_outside(S):
        bad = [p for p in chi.support if p not in S.primes]
        raise ValueError(f"character ramified outside S at {bad}")


def chi_S(chi, alpha: int | Fraction, S: PlaceSet):
    """prod_{v in S} chi_v(alpha), via the global product formula.

    The product over all places of chi_v(alpha) is 1, so the S-part equals
    prod_{p not in S} chi_p(alpha)^{-1} = prod chi(p)^{-v_p(alpha)} with
    chi(p) the Dirichlet value at the (unramified) prime p.

    Returns +-1 for quadratic chi and a complex root of unity for cubic chi.
    """
    alpha = Fraction(alpha)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    _require_unramified_outside(chi, S)
    n = abs(alpha.numerator * alpha.denominator)
    if isinstance(chi, QuadChar):
        out = 1
        for p, _ in factorize(n).items():
            if p not in S.primes:
                e = valuation(alpha, p)
                if e % 2:
                    out *= kronecker(chi.D, p)
        return out
    k = chi_S_exponent(chi, alpha, S)
    return cmath.exp(2j * cmath.pi * k / 3)


def chi_S_exponent(chi: CubicChar, alpha: int | Fraction, S: PlaceSet) -> int:
    """Exact exponent k with chi_S(alpha) = omega^k for a cubic character."""
    alpha = Fraction(alpha)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    _require_unramified_outside(chi, S)
    n = abs(alpha.numerator * alpha.denominator)
    k = 0
    for p in factorize(n):
        if p not in S.primes:
            e = valuation(alpha, p)
            kp = chi.exponent(p)
            if kp is None:
                raise AssertionError("unramified prime maps into the modulus")
            k -= kp * e
    return k % 3


# ---------------------------------------------------------------------------
# Discriminant class sets and conductors outside S
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConductorData:
    """N(f_d^S): product of the primes outside S where chi_d ramifies."""

    N_fdS: int


def conductor_outside(d: int | Fraction, S: PlaceSet) -> ConductorData:
    chi = quad_char_of(d)
    N = 1
    for p in chi.support:
        if p not in S.primes:
            N *= p ** valuation(chi.D, p)
    return ConductorData(N)


@dataclass(frozen=True)
class DiscClassSet:
    """A set of square classes of nonsquare rationals, as squarefree integers."""

    kind: str  # "Q", "Q_S", or "Q_ur"
    entries: tuple[int, ...]


def _matches_locally(d: int, alpha_value: int, S: PlaceSet) -> bool:
    return all(is_square_at(Fraction(d, alpha_value), v) for v in S)


def fundamental_discriminant_of(d: int | Fraction) -> int:
    m = squarefree_kernel(d)
    if m == 1:
        raise ValueError("square class is trivial")
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
            if m != 1 and _matches_locally(m, alpha, S):
                found.append(m)
        found.sort(key=lambda m: (abs(fundamental_discriminant_of(m)), m))
        return DiscClassSet("Q_ur", tuple(found))
    if kind != "Q_S":
        raise ValueError(f"unknown kind {kind!r}")
    if X is None:
        raise ValueError("kind='Q_S' needs a truncation bound X")
    return DiscClassSet("Q_S", tuple(_local_class_scan(alpha, S, X).tolist()))


def _local_class_scan(alpha: int, S: PlaceSet, X: int) -> np.ndarray:
    """The squarefree m != 1 with |fundamental discriminant| <= X and m/alpha
    a square at every v in S, ordered by (|D|, m).

    For squarefree m and alpha this is a congruence: the signs agree (v = oo);
    v_p(m) = v_p(alpha) at each p in S; and the product of the unit parts is
    1 mod 8 at p = 2, a quadratic residue at odd p (units mod 8 are their own
    inverses, and u and 1/u have the same Legendre symbol).
    """
    sign = 1 if alpha > 0 else -1
    sq = np.ones(X + 1, dtype=bool)  # the candidates |m|, squarefree
    sq[0] = False
    for k in range(2, isqrt(X) + 1):
        sq[k * k :: k * k] = False
    # |D| <= X: D = m when m = 1 mod 4, else D = 4m
    one_mod_4 = np.zeros(X + 1, dtype=bool)
    one_mod_4[sign % 4 :: 4] = True
    sq[X // 4 + 1 :] &= one_mod_4[X // 4 + 1 :]
    del one_mod_4
    sq[1:2] &= sign < 0  # m = 1 is the trivial class
    m = sign * np.flatnonzero(sq)
    del sq
    for p in S.primes:
        a_div = alpha % p == 0
        a_unit = alpha // p if a_div else alpha
        m = m[(m % p == 0) == a_div]
        u = m // p if a_div else m
        if p == 2:
            m = m[u * (a_unit % 8) % 8 == 1]
        else:
            m = m[legendre_table(p)[u % p * (a_unit % p) % p] == 1]
    D = np.where(m % 4 == 1, m, 4 * m)
    return m[np.lexsort((m, np.abs(D)))]
