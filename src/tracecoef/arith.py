"""Exact arithmetic over Q and its completions, at desk scale.

Places of Q, integer factorization, Kronecker and Hilbert symbols, and the
local/global square- and cube-class bookkeeping that everything else is
built on.  All computations here are exact; nothing in this module touches
floating point.

The local symbols take an int, a Fraction or anything Fraction() accepts,
and work on integers only: x = num/den lies in the square class of the
integer num*den and in the cube class of num*den^2, so every square- and
cube-class question is answered by p-adic valuations and residues of that
integer, with no Fraction built per call.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

import numpy as np

#: marker for the archimedean place of Q
OO = "oo"


class ScanBoundError(RuntimeError):
    """A scan over class representatives ended before covering every class."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division (desk-scale inputs)."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _num_den(x) -> tuple[int, int]:
    """Numerator and positive denominator of a rational; int and Fraction
    pass through, anything else goes through Fraction() once."""
    if type(x) is int:
        return x, 1
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator, x.denominator


def _split(n: int, p: int) -> tuple[int, int]:
    """(v, u) with n = p^v * u and p not dividing u, for an integer n != 0."""
    v = 0
    q, r = divmod(n, p)
    while not r:
        n = q
        v += 1
        q, r = divmod(n, p)
    return v, n


def _square_int(x, what: str) -> int:
    """The integer num*den, in the square class of x = num/den != 0."""
    num, den = _num_den(x)
    if num == 0:
        raise ValueError(f"{what} of 0")
    return num * den


def _cube_int(x, what: str) -> int:
    """The integer num*den^2, in the cube class of x = num/den != 0."""
    num, den = _num_den(x)
    if num == 0:
        raise ValueError(f"{what} of 0")
    return num * den * den


def valuation(x: int | Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    num, den = _num_den(x)
    if num == 0:
        raise ValueError("valuation of 0")
    if den % p:
        return _split(num, p)[0]
    return -_split(den, p)[0]


def squarefree_kernel(x: int | Fraction) -> int:
    """The unique squarefree integer in the square class of a nonzero rational."""
    n = _square_int(x, "square class")
    out = 1 if n > 0 else -1
    for p, e in factorize(n).items():
        if e % 2:
            out *= p
    return out


# ---------------------------------------------------------------------------
# Kronecker symbol
# ---------------------------------------------------------------------------

def kronecker(a: int, n: int) -> int:
    """Extended Jacobi/Kronecker symbol (a/n)."""
    if n == 0:
        return 1 if abs(a) == 1 else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    # factor out 2 from n
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 and (a % 8) in (3, 5):
            result = -result
    a %= n
    # quadratic reciprocity loop (n odd > 0 now)
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# ---------------------------------------------------------------------------
# Hilbert symbol
# ---------------------------------------------------------------------------

def hilbert(a: int | Fraction, b: int | Fraction, v) -> int:
    """Hilbert symbol (a,b)_v: +1 iff a x^2 + b y^2 = z^2 has a nontrivial
    solution over the completion at v.  v is OO or a prime.

    Serre's closed forms (A Course in Arithmetic, III.1.2), applied to
    integers in the square classes of a and b."""
    ai = _square_int(a, "hilbert symbol")
    bi = _square_int(b, "hilbert symbol")
    if v == OO:
        return -1 if (ai < 0 and bi < 0) else 1
    p = v
    alpha, u = _split(ai, p)
    beta, w = _split(bi, p)
    if p != 2:
        res = 1
        if (alpha * beta) % 2 and p % 4 == 3:
            res = -res
        if beta % 2:
            res *= kronecker(u, p)
        if alpha % 2:
            res *= kronecker(w, p)
        return res
    # p = 2: (-1)^{eps(u)eps(w) + alpha*omega(w) + beta*omega(u)} with
    # eps(m) = (m-1)/2 and omega(m) = (m^2-1)/8 mod 2 for odd m
    u8, w8 = u % 8, w % 8
    e = (u8 % 4 == 3) * (w8 % 4 == 3) + alpha * (w8 in (3, 5)) + beta * (u8 in (3, 5))
    return -1 if e % 2 else 1


def hilbert_product_places(a: int | Fraction, b: int | Fraction) -> list:
    """Places where (a,b)_v can be nontrivial: OO and primes dividing 2ab."""
    n = 2 * _square_int(a, "hilbert symbol") * _square_int(b, "hilbert symbol")
    return [OO] + sorted(factorize(n))


# ---------------------------------------------------------------------------
# Local square classes
# ---------------------------------------------------------------------------

def is_square_at(x: int | Fraction, v) -> bool:
    """Is x a square in the completion at v?"""
    n = _square_int(x, "square test")
    if v == OO:
        return n > 0
    p = v
    e, u = _split(n, p)
    if e % 2:
        return False
    if p == 2:
        return u % 8 == 1
    return kronecker(u, p) == 1


def local_square_class(x: int | Fraction, v):
    """Canonical label of the coset of x in Q_v^x / (Q_v^x)^2."""
    n = _square_int(x, "square class")
    if v == OO:
        return ("sign", 1 if n > 0 else -1)
    p = v
    e, u = _split(n, p)
    if p == 2:
        return (e % 2, u % 8)
    return (e % 2, kronecker(u, p))


def local_square_labels(v) -> list:
    """All square-class labels at v (2 at OO, 8 at p=2, 4 at odd p)."""
    if v == OO:
        return [("sign", 1), ("sign", -1)]
    if v == 2:
        return [(e, u) for e in (0, 1) for u in (1, 3, 5, 7)]
    return [(e, s) for e in (0, 1) for s in (1, -1)]


# ---------------------------------------------------------------------------
# Local cube classes
# ---------------------------------------------------------------------------

def is_cube_at(x: int | Fraction, v) -> bool:
    """Is x a cube in the completion at v?  (At OO every real is a cube.)"""
    n = _cube_int(x, "cube test")
    if v == OO:
        return True
    p = v
    e, u = _split(n, p)
    if e % 3:
        return False
    # Hensel: for p != 3 a unit cube mod p lifts (derivative 3t^2 is a unit);
    # for p = 3 solvability mod 27 suffices (v(f') = 1).
    if p == 3:
        um = u % 27
        return any(pow(t, 3, 27) == um for t in range(1, 27) if t % 3)
    um = u % p
    return any(pow(t, 3, p) == um for t in range(1, p))


def local_cube_class(x: int | Fraction, v):
    """Canonical label of the coset of x in Q_v^x / (Q_v^x)^3."""
    n = _cube_int(x, "cube class")
    if v == OO:
        return ("real", 0)
    p = v
    e, u = _split(n, p)
    if p == 3:
        um = u % 9
        for rep in (1, 2, 4):
            if any((rep * pow(t, 3, 9)) % 9 == um for t in (1, 2, 4, 5, 7, 8)):
                return (e % 3, rep)
        raise AssertionError("unreachable: units mod 9 split into 3 cube cosets")
    if p % 3 == 2:
        return (e % 3, 1)
    # p = 1 mod 3: the cubic-residue power u^{(p-1)/3} mod p labels the coset
    return (e % 3, pow(u, (p - 1) // 3, p))


def local_cube_labels(v) -> list:
    if v == OO:
        return [("real", 0)]
    p = v
    if p == 3:
        units = [1, 2, 4]
    elif p % 3 == 2:
        units = [1]
    else:
        units = sorted({pow(g, (p - 1) // 3, p) for g in range(1, p)} - {0})
        assert len(units) == 3
    return [(e, u) for e in (0, 1, 2) for u in units]


# ---------------------------------------------------------------------------
# Place sets and global class representatives
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class PlaceSet:
    """A finite set of places of Q; the archimedean place is always present."""

    primes: tuple[int, ...]

    def __post_init__(self):
        ps = tuple(sorted(set(self.primes)))
        for p in ps:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "primes", ps)

    @classmethod
    def of(cls, *primes: int) -> "PlaceSet":
        return cls(tuple(primes))

    @property
    def places(self) -> tuple:
        return (OO,) + self.primes

    def __contains__(self, v) -> bool:
        return v == OO or v in self.primes

    def __iter__(self):
        return iter(self.places)

    def __len__(self) -> int:
        return 1 + len(self.primes)

    def require_2(self, what: str = "this operation"):
        if 2 not in self.primes:
            raise ValueError(f"{what} requires 2 in S (S must contain the places over 2)")

    def __str__(self) -> str:
        return "{oo" + "".join(f",{p}" for p in self.primes) + "}"


@dataclass(frozen=True)
class SquareClassRep:
    """A squarefree integer representing a class of Q^x/(Q^x cap (Q_S^x)^2)."""

    value: int
    local_labels: dict = field(compare=False, hash=False)

    def same_class(self, x: int | Fraction, S: PlaceSet) -> bool:
        n = _square_int(x, "square class") * self.value  # x / value up to a square
        return all(is_square_at(n, v) for v in S)


@dataclass(frozen=True)
class CubeClassRep:
    """A cube-free positive integer representing a class of Q^x/(Q^x cap (Q_S^x)^3)."""

    value: int
    local_labels: dict = field(compare=False, hash=False)

    def same_class(self, x: int | Fraction, S: PlaceSet) -> bool:
        n = _cube_int(x, "cube class") * self.value**2  # x / value up to a cube
        return all(is_cube_at(n, v) for v in S)


def _squarefree_scan():
    """Yield squarefree integers ordered by absolute value: 1, -1, 2, -2, ..."""
    for n in itertools.count(1):
        if all(e == 1 for e in factorize(n).values()):
            yield n
            yield -n


def sclass_reps(S: PlaceSet) -> list[SquareClassRep]:
    """Squarefree representatives in bijection with prod_{v in S} Q_v^x/(Q_v^x)^2.

    Found by scanning squarefree integers by increasing |value| until every
    tuple of local labels is covered; the scan ends by weak approximation.
    """
    target = 1
    for v in S:
        target *= len(local_square_labels(v))
    seen: dict[tuple, SquareClassRep] = {}
    order: list[tuple] = []
    for n in _squarefree_scan():
        key = tuple(local_square_class(n, v) for v in S)
        if key not in seen:
            seen[key] = SquareClassRep(n, dict(zip(S.places, key)))
            order.append(key)
            if len(seen) == target:
                return [seen[k] for k in order]


def _cubefree_scan():
    for n in itertools.count(1):
        if all(e <= 2 for e in factorize(n).values()):
            yield n


def cclass_reps(S: PlaceSet) -> list[CubeClassRep]:
    """Cube-free representatives of Q^x/(Q^x cap (Q_S^x)^3), by brute scan
    until every class is covered (weak approximation)."""
    target = 1
    for v in S:
        target *= len(local_cube_labels(v))
    seen: dict[tuple, CubeClassRep] = {}
    order: list[tuple] = []
    for n in _cubefree_scan():
        key = tuple(local_cube_class(n, v) for v in S)
        if key not in seen:
            seen[key] = CubeClassRep(n, dict(zip(S.places, key)))
            order.append(key)
            if len(seen) == target:
                return [seen[k] for k in order]


def primes_up_to(n: int) -> np.ndarray:
    """The primes <= n as a numpy integer array, by a boolean sieve."""
    sieve = np.ones(max(n, 1) + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(max(n, 0)) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0]


def legendre_tables(primes):
    """The Legendre symbols (r/p), r = 0..p-1, of odd primes p, one block per p
    in one int8 table, and the offset of each block: (r/p) is table[off + r].
    The squares r^2 mod p, 0 < r < p, are marked for every p in one pass."""
    p = np.asarray(primes, dtype=np.int64)
    off = np.cumsum(p) - p
    table = np.full(int(p.sum()), -1, dtype=np.int8)
    table[off] = 0
    # r^2 < p^2 in int32 when it fits (its modulo is about 3x faster than int64's)
    p = p.astype(np.int32 if int(p.max(initial=0)) <= 46340 else np.int64)
    pr = np.repeat(p, p - 1)  # the prime of each pair (p, r)
    r = np.arange(1, len(pr) + 1, dtype=p.dtype) - np.repeat(np.cumsum(p - 1) - (p - 1), p - 1)
    table[np.repeat(off, p - 1) + r * r % pr] = 1
    return table, off


@functools.lru_cache(maxsize=64)
def legendre_table(p: int):
    """The Legendre symbol (r/p) for r = 0..p-1, as a read-only numpy int8
    array (p odd prime), built once per p: the one block of legendre_tables([p])."""
    table = legendre_tables([p])[0]
    table.flags.writeable = False
    return table


def spf_table(n: int):
    """Smallest prime factor of every 0 <= k <= n as a numpy array (spf[k] = k
    for k < 2 and for primes)."""
    spf = np.arange(n + 1, dtype=np.int64)
    for p in range(2, isqrt(n) + 1):
        if spf[p] == p:
            sl = spf[p * p :: p]
            np.minimum(sl, p, out=sl)
    return spf
