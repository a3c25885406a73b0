"""Exact arithmetic over Q and its completions, at desk scale.

Places of Q, integer factorization, Kronecker and Hilbert symbols, and the
local/global square- and cube-class bookkeeping that everything else is
built on.  All computations here are exact (int / Fraction); nothing in
this module touches floating point.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

#: marker for the archimedean place of Q
OO = "oo"


class ScanBoundError(RuntimeError):
    """Representative scan exhausted its bound before covering all classes."""


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


def valuation(x: int | Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of 0")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def unit_part(x: int | Fraction, p: int) -> Fraction:
    """x / p^{v_p(x)} as an exact rational (a p-adic unit)."""
    return Fraction(x) / Fraction(p) ** valuation(x, p)


def _unit_mod(u: Fraction, modulus: int) -> int:
    """Reduce a p-adic unit written as a fraction modulo `modulus`."""
    num = u.numerator % modulus
    den = u.denominator % modulus
    return (num * pow(den, -1, modulus)) % modulus


def squarefree_kernel(x: int | Fraction) -> int:
    """The unique squarefree integer in the square class of a nonzero rational."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("square class of 0")
    n = x.numerator * x.denominator
    out = 1 if n > 0 else -1
    for p, e in factorize(n).items():
        if e % 2:
            out *= p
    return out


def cubefree_kernel(x: int | Fraction) -> int:
    """Canonical cube-free positive integer in the cube class of a nonzero rational.

    -1 is a cube, so every class has a positive representative; x*den^3 =
    num*den^2 shifts into the integers, and exponents are reduced mod 3.
    """
    x = Fraction(x)
    if x == 0:
        raise ValueError("cube class of 0")
    n = abs(x.numerator) * x.denominator**2
    out = 1
    for p, e in factorize(n).items():
        out *= p ** (e % 3)
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
    solution over the completion at v.  v is OO or a prime."""
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol needs nonzero arguments")
    # replace by integers in the same square classes
    ai = a.numerator * a.denominator
    bi = b.numerator * b.denominator
    if v == OO:
        return -1 if (ai < 0 and bi < 0) else 1
    p = v
    alpha = valuation(ai, p)
    beta = valuation(bi, p)
    u = ai // p**alpha
    w = bi // p**beta
    if p != 2:
        res = 1
        if (alpha * beta) % 2 and p % 4 == 3:
            res = -res
        if beta % 2:
            res *= kronecker(u, p)
        if alpha % 2:
            res *= kronecker(w, p)
        return res
    # p = 2: (-1)^{eps(u)eps(w) + alpha*omega(w) + beta*omega(u)}
    def eps(m: int) -> int:  # (m-1)/2 mod 2 for odd m
        return ((m % 8) - 1) // 2 % 2

    def omega(m: int) -> int:  # (m^2-1)/8 mod 2 for odd m
        return ((m % 8) ** 2 - 1) // 8 % 2

    e = eps(u) * eps(w) + alpha * omega(w) + beta * omega(u)
    return -1 if e % 2 else 1


def hilbert_product_places(a: int | Fraction, b: int | Fraction) -> list:
    """Places where (a,b)_v can be nontrivial: OO and primes dividing 2ab."""
    a, b = Fraction(a), Fraction(b)
    n = 2 * a.numerator * a.denominator * b.numerator * b.denominator
    return [OO] + sorted(factorize(n))


# ---------------------------------------------------------------------------
# Local square classes
# ---------------------------------------------------------------------------

def is_square_at(x: int | Fraction, v) -> bool:
    """Is x a square in the completion at v?"""
    x = Fraction(x)
    if x == 0:
        raise ValueError("square test needs nonzero input")
    if v == OO:
        return x > 0
    p = v
    if valuation(x, p) % 2:
        return False
    u = unit_part(x, p)
    if p == 2:
        return _unit_mod(u, 8) == 1
    return kronecker(_unit_mod(u, p), p) == 1


def local_square_class(x: int | Fraction, v):
    """Canonical label of the coset of x in Q_v^x / (Q_v^x)^2."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("square class of 0")
    if v == OO:
        return ("sign", 1 if x > 0 else -1)
    p = v
    vp = valuation(x, p) % 2
    u = unit_part(x, p)
    if p == 2:
        return (vp, _unit_mod(u, 8))
    return (vp, kronecker(_unit_mod(u, p), p))


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
    x = Fraction(x)
    if x == 0:
        raise ValueError("cube test needs nonzero input")
    if v == OO:
        return True
    p = v
    if valuation(x, p) % 3:
        return False
    u = unit_part(x, p)
    # Hensel: for p != 3 a unit cube mod p lifts (derivative 3t^2 is a unit);
    # for p = 3 solvability mod 27 suffices (v(f') = 1).
    if p == 3:
        m, um = 27, _unit_mod(u, 27)
        return any(pow(t, 3, m) == um for t in range(1, m) if t % 3)
    um = _unit_mod(u, p)
    return any(pow(t, 3, p) == um for t in range(1, p))


def local_cube_class(x: int | Fraction, v):
    """Canonical label of the coset of x in Q_v^x / (Q_v^x)^3."""
    x = Fraction(x)
    if v == OO:
        return ("real", 0)
    p = v
    vp = valuation(x, p) % 3
    u = unit_part(x, p)
    if p == 3:
        um = _unit_mod(u, 9)
        for rep in (1, 2, 4):
            if any((rep * pow(t, 3, 9)) % 9 == um for t in (1, 2, 4, 5, 7, 8)):
                return (vp, rep)
        raise AssertionError("unreachable: units mod 9 split into 3 cube cosets")
    if p % 3 == 2:
        return (vp, 1)
    # p = 1 mod 3: the cubic-residue power u^{(p-1)/3} mod p labels the coset
    return (vp, pow(_unit_mod(u, p), (p - 1) // 3, p))


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
        return all(is_square_at(Fraction(x) / self.value, v) for v in S)


@dataclass(frozen=True)
class CubeClassRep:
    """A cube-free positive integer representing a class of Q^x/(Q^x cap (Q_S^x)^3)."""

    value: int
    local_labels: dict = field(compare=False, hash=False)

    def same_class(self, x: int | Fraction, S: PlaceSet) -> bool:
        return all(is_cube_at(Fraction(x) / self.value, v) for v in S)


def _squarefree_scan(bound: int):
    """Yield squarefree integers ordered by absolute value: 1, -1, 2, -2, ..."""
    for n in range(1, bound + 1):
        if all(e == 1 for e in factorize(n).values()):
            yield n
            yield -n


def sclass_reps(S: PlaceSet, bound: int = 10**4) -> list[SquareClassRep]:
    """Squarefree representatives in bijection with prod_{v in S} Q_v^x/(Q_v^x)^2.

    Found by scanning squarefree integers by increasing |value| until every
    tuple of local labels is covered; surjectivity holds by weak approximation.
    """
    target = 1
    for v in S:
        target *= len(local_square_labels(v))
    seen: dict[tuple, SquareClassRep] = {}
    order: list[tuple] = []
    for n in _squarefree_scan(bound):
        key = tuple(local_square_class(n, v) for v in S)
        if key not in seen:
            seen[key] = SquareClassRep(n, dict(zip(S.places, key)))
            order.append(key)
            if len(seen) == target:
                return [seen[k] for k in order]
    raise ScanBoundError(
        f"covered {len(seen)}/{target} square classes for S={S} with |value|<={bound}"
    )


def _cubefree_scan(bound: int):
    for n in range(1, bound + 1):
        if all(e <= 2 for e in factorize(n).values()):
            yield n


def cclass_reps(S: PlaceSet, bound: int = 10**4) -> list[CubeClassRep]:
    """Cube-free representatives of Q^x/(Q^x cap (Q_S^x)^3), by brute scan."""
    target = 1
    for v in S:
        target *= len(local_cube_labels(v))
    seen: dict[tuple, CubeClassRep] = {}
    order: list[tuple] = []
    for n in _cubefree_scan(bound):
        key = tuple(local_cube_class(n, v) for v in S)
        if key not in seen:
            seen[key] = CubeClassRep(n, dict(zip(S.places, key)))
            order.append(key)
            if len(seen) == target:
                return [seen[k] for k in order]
    raise ScanBoundError(
        f"covered {len(seen)}/{target} cube classes for S={S} with value<={bound}"
    )


def primes_up_to(n: int) -> list[int]:
    """Primes <= n by a plain sieve (small n; use numpy elsewhere for bulk)."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(range(p * p, n + 1, p))
    return [i for i in range(2, n + 1) if sieve[i]]


def legendre_table(p: int):
    """The Legendre symbol (r/p) for r = 0..p-1, as a numpy int8 array (p odd prime)."""
    import numpy as np

    table = np.full(p, -1, dtype=np.int8)
    table[0] = 0
    r = np.arange(1, p, dtype=np.int64)
    table[r * r % p] = 1
    return table


def spf_table(n: int):
    """Smallest prime factor of every 0 <= k <= n as a numpy array (spf[k] = k
    for k < 2 and for primes)."""
    import numpy as np

    spf = np.arange(n + 1, dtype=np.int64)
    for p in range(2, isqrt(n) + 1):
        if spf[p] == p:
            sl = spf[p * p :: p]
            np.minimum(sl, p, out=sl)
    return spf
