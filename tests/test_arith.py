"""Symbols and class machinery against brute-force oracles."""
import random
from fractions import Fraction

import pytest

from tracecoef.arith import (
    OO,
    PlaceSet,
    ScanBoundError,
    cclass_reps,
    factorize,
    hilbert,
    hilbert_product_places,
    is_cube_at,
    is_prime,
    is_square_at,
    kronecker,
    legendre_table,
    legendre_tables,
    local_cube_labels,
    local_square_labels,
    primes_up_to,
    sclass_reps,
    squarefree_kernel,
    cubefree_kernel,
    valuation,
)

S_OO = PlaceSet.of()
S2 = PlaceSet.of(2)
S23 = PlaceSet.of(2, 3)


def legendre_bruteforce(a, p):
    """Quadratic-residue symbol by enumerating squares mod p."""
    a %= p
    if a == 0:
        return 0
    squares = {(x * x) % p for x in range(1, p)}
    return 1 if a in squares else -1


def hilbert_bruteforce(a, b, v):
    """Solvability of a x^2 + b y^2 = z^2 over the completion at v, by
    exhaustive primitive solutions modulo p^k with the lifting criterion
    (k = 6 at p = 2, k = 3 at odd p; valid for squarefree a, b)."""
    a, b = squarefree_kernel(a), squarefree_kernel(b)
    if v == OO:
        return -1 if (a < 0 and b < 0) else 1
    p = v
    m = 2**6 if p == 2 else p**3
    sq_all = {(z * z) % m for z in range(m)}
    sq_prim = {(z * z) % m for z in range(m) if z % p}
    for x in range(m):
        for y in range(m):
            val = (a * x * x + b * y * y) % m
            if x % p or y % p:
                if val in sq_all:
                    return 1
            elif val in sq_prim:
                return 1
    return -1


def test_primes_up_to_against_trial_division():
    for n in (0, 1, 2, 3, 4, 97, 1000):
        assert primes_up_to(n).tolist() == [p for p in range(n + 1) if is_prime(p)]


def test_kronecker_examples():
    assert kronecker(-4, 3) == -1
    assert kronecker(5, 5) == 0
    assert kronecker(8, 7) == 1


def test_legendre_tables_vs_bruteforce():
    """Each block of the one concatenated table, and legendre_table(p), is
    the Legendre symbol mod p; past p = 46340 the squares leave int32."""
    primes = [p for p in primes_up_to(600).tolist() if p > 2]
    table, off = legendre_tables(primes)
    assert table.dtype.name == "int8" and len(table) == sum(primes)
    for p, o in zip(primes, off.tolist()):
        assert table[o : o + p].tolist() == [legendre_bruteforce(r, p) for r in range(p)], p
    assert legendre_table(3).tolist() == [0, 1, -1]
    for p in (46337, 46349):  # the largest prime with p^2 < 2^31 and the next one
        assert is_prime(p)
        got = legendre_table(p)
        rs = random.Random(p).sample(range(p), 200)
        assert [int(got[r]) for r in rs] == [kronecker(r, p) for r in rs]


def test_kronecker_vs_bruteforce_legendre():
    for p in (3, 5, 7, 11, 13):
        for a in range(-20, 21):
            if a % p:
                assert kronecker(a, p) == legendre_bruteforce(a, p), (a, p)


def test_kronecker_multiplicative_and_periodic():
    rng = random.Random(1)
    for D in (-4, 8, -8, 5, -3, 12, -20, 21):
        for _ in range(60):
            m = rng.randint(1, 400)
            n = rng.randint(1, 400)
            assert kronecker(D, m * n) == kronecker(D, m) * kronecker(D, n)
            assert kronecker(D, m + abs(D)) == kronecker(D, m)


def test_hilbert_examples():
    for b in (1, -1, 2, 7, -30):
        for v in (OO, 2, 3, 5):
            assert hilbert(1, b, v) == 1
    assert hilbert(-1, -1, OO) == -1
    assert hilbert(-1, -1, 2) == -1


@pytest.mark.parametrize("v", [OO, 2, 3, 5])
def test_hilbert_vs_solvability_oracle(v):
    cases = [(a, b) for a in (-1, 1, 2, -2, 3, -3, 5, 6, -6, 10, -15)
             for b in (-1, 2, -2, 3, -5, 7, 15)]
    for a, b in cases:
        assert hilbert(a, b, v) == hilbert_bruteforce(a, b, v), (a, b, v)


def test_hilbert_symmetry_bimultiplicativity():
    rng = random.Random(2)
    for _ in range(120):
        a = rng.choice([x for x in range(-30, 31) if x])
        b = rng.choice([x for x in range(-30, 31) if x])
        c = rng.choice([x for x in range(-30, 31) if x])
        k = rng.randint(1, 9)
        for v in (OO, 2, 3, 5):
            assert hilbert(a, b, v) == hilbert(b, a, v)
            assert hilbert(a * k * k, b, v) == hilbert(a, b, v)
            assert hilbert(a * c, b, v) == hilbert(a, b, v) * hilbert(c, b, v)


def test_hilbert_product_formula():
    rng = random.Random(3)
    for _ in range(200):
        a = rng.randint(1, 10**4) * rng.choice((1, -1))
        b = rng.randint(1, 10**4) * rng.choice((1, -1))
        prod = 1
        for v in hilbert_product_places(a, b):
            prod *= hilbert(a, b, v)
        assert prod == 1, (a, b)


def test_hilbert_rational_arguments():
    assert hilbert(Fraction(1, 2), Fraction(-3, 5), 2) == hilbert(2, -15, 2)


def test_is_square_at():
    assert is_square_at(17, 2)
    assert not is_square_at(2, 2)
    assert not is_square_at(-1, OO)
    assert is_square_at(Fraction(9, 4), 7)
    # brute cross-check: n^2 * unit patterns
    for p in (2, 3, 5):
        for n in range(1, 12):
            assert is_square_at(n * n, p)
            assert not is_square_at(n * n * p, p)


def test_local_square_label_counts():
    assert len(local_square_labels(OO)) == 2
    assert len(local_square_labels(2)) == 8
    assert len(local_square_labels(5)) == 4


def test_sclass_reps():
    assert sorted(r.value for r in sclass_reps(S_OO)) == [-1, 1]
    reps = sclass_reps(S2)
    assert len(reps) == 16
    assert sorted(abs(r.value) for r in reps) == sorted(
        abs(v) for v in (1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10, 14, -14)
    )
    # bijectivity: no two representatives locally equal everywhere
    for i, r in enumerate(reps):
        for r2 in reps[i + 1:]:
            assert not all(
                is_square_at(Fraction(r.value, r2.value), v) for v in S2
            )
    # membership: 17 is in the class of 1
    one = next(r for r in reps if r.value == 1)
    assert one.same_class(17, S2)


def test_sclass_count_formula():
    # 2 * 8 * 4^(number of odd primes) when 2 is in S
    assert len(sclass_reps(S23)) == 2 * 8 * 4
    assert len(sclass_reps(PlaceSet.of(2, 3, 5))) == 2 * 8 * 16


def test_scan_bound_error():
    with pytest.raises(ScanBoundError):
        sclass_reps(S23, bound=10)


def test_cclass_reps():
    assert [r.value for r in cclass_reps(S_OO)] == [1]
    assert sorted(r.value for r in cclass_reps(S2)) == [1, 2, 4]
    assert len(cclass_reps(PlaceSet.of(2, 7))) == 27


def test_cube_classes_local():
    # units of Q_2 are all cubes; 7 = 1 mod 3 has three unit classes
    assert len(local_cube_labels(2)) == 3
    assert len(local_cube_labels(7)) == 9
    assert len(local_cube_labels(3)) == 9
    assert is_cube_at(8, 2) and is_cube_at(3, 2) and not is_cube_at(2, 2)
    assert is_cube_at(-1, 5)  # -1 = (-1)^3


def test_cube_oracle_vs_modular_cubing():
    # unit cube classes by modular cubing only
    for p in (2, 3, 5, 7, 13):
        m = 27 if p == 3 else p * p
        units = [u for u in range(1, m) if u % p]
        cubes = {pow(u, 3, m) for u in units}
        classes = []
        for u in units:
            if not any((u * w * w) % m in cubes for w in classes):
                classes.append(u)
        expected = len(local_cube_labels(p)) // 3
        assert len(classes) == expected, p


def test_kernels_and_valuation():
    assert squarefree_kernel(Fraction(18, 5)) == 10
    assert squarefree_kernel(-4) == -1
    assert cubefree_kernel(-8) == 1
    # 16/3 over 18 is (2/3)^3, so 18 represents the cube class
    assert cubefree_kernel(Fraction(16, 3)) == 18
    assert is_cube_at(Fraction(16, 3) / 18, 2) and is_cube_at(Fraction(16, 3) / 18, 3)
    assert valuation(Fraction(12, 25), 5) == -2
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
