"""Character enumeration, chi_S, and discriminant class sets."""
import cmath
import random
from fractions import Fraction

import pytest

from tracecoef.arith import PlaceSet, hilbert, is_square_at, sclass_reps, squarefree_kernel
from tracecoef.characters import (
    QuadChar,
    chi_S,
    chi_S_exponent,
    conductor_outside,
    disc_classes,
    enum_cubic_chars,
    enum_quad_chars,
    fundamental_discriminant_of,
    is_fundamental_discriminant,
    quad_char_of,
)

S_OO = PlaceSet.of()
S2 = PlaceSet.of(2)
S23 = PlaceSet.of(2, 3)
S27 = PlaceSet.of(2, 7)


def test_fundamental_discriminants():
    fundamentals = [1, -3, -4, 5, 8, -8, 12, 13, -20, 24]
    for D in fundamentals:
        assert is_fundamental_discriminant(D), D
    for D in (2, 3, -5, 9, 18, -12, 25):
        assert not is_fundamental_discriminant(D), D


def test_quad_char_of():
    from tracecoef.arith import squarefree_kernel

    assert quad_char_of(-1).D == -4
    assert quad_char_of(-4).D == -4
    assert quad_char_of(6).D == 24
    with pytest.raises(ValueError):
        quad_char_of(9)
    rng = random.Random(5)
    nonsquares = [x for x in range(-30, 31) if x and squarefree_kernel(x) != 1]
    for _ in range(40):
        d = rng.choice(nonsquares)
        c = Fraction(rng.randint(1, 7), rng.randint(1, 4))
        assert quad_char_of(d * c * c) == quad_char_of(d)


def test_chi_S_examples():
    ch = QuadChar(-4)
    assert chi_S(ch, 1, S2) == 1
    assert chi_S(ch, 3, S2) == -1
    assert chi_S(ch, 9, S2) == 1


def test_chi_S_multiplicative_and_square_trivial():
    rng = random.Random(6)
    for S in (S2, S23):
        for ch in enum_quad_chars(S):
            for _ in range(25):
                a = Fraction(rng.randint(1, 50), rng.randint(1, 20)) * rng.choice((1, -1))
                b = Fraction(rng.randint(1, 50), rng.randint(1, 20)) * rng.choice((1, -1))
                assert chi_S(ch, a * b, S) == chi_S(ch, a, S) * chi_S(ch, b, S)
                if all(is_square_at(a, v) for v in S):
                    assert chi_S(ch, a, S) == 1


def test_chi_S_vs_hilbert_product():
    """chi_{d,v}(x) = (d,x)_v, so chi_S is the S-product of Hilbert symbols."""
    rng = random.Random(7)
    for S in (S2, S23):
        for d in (-1, 2, -2, 3, 6):
            ch = quad_char_of(d)
            if not ch.is_unramified_outside(S):
                continue
            for _ in range(30):
                a = rng.choice([x for x in range(-40, 41) if x])
                prod = 1
                for v in S:
                    prod *= hilbert(d, a, v)
                assert chi_S(ch, a, S) == prod, (d, a, S)


def test_chi_S_rejects_ramified_outside():
    with pytest.raises(ValueError):
        chi_S(QuadChar(-3), 5, S2)


def test_enum_quad_chars():
    assert [c.D for c in enum_quad_chars(S_OO)] == [1]
    assert sorted(c.D for c in enum_quad_chars(S2)) == [-8, -4, 1, 8]
    assert sorted(c.D for c in enum_quad_chars(S23)) == sorted([1, -4, 8, -8, -3, 12, 24, -24])


def test_enum_cubic_chars():
    assert enum_cubic_chars(S2) == []
    c7 = enum_cubic_chars(S27)
    assert len(c7) == 2 and all(c.modulus == 7 for c in c7)
    assert c7[1].values == c7[0].inverse().values
    c9 = enum_cubic_chars(S23)
    assert len(c9) == 2 and all(c.modulus == 9 for c in c9)
    # order three: chi^3 = 1 on units
    ch = c7[0]
    for n in range(1, 7):
        assert abs(ch(n) ** 3 - 1) < 1e-12


def test_cubic_chi_S():
    ch = enum_cubic_chars(S27)[0]
    k = chi_S_exponent(ch, 3, S27)
    assert cmath.isclose(chi_S(ch, 3, S27), cmath.exp(2j * cmath.pi * k / 3))
    # cubes at all v in S give 1: alpha = 27 has only p=3 outside S, exponent 3*e
    assert chi_S_exponent(ch, 27, S27) == 0


def test_orthogonality_quad():
    for S in (S2, S23):
        reps = sclass_reps(S)
        for ch in enum_quad_chars(S):
            tot = sum(chi_S(ch, r.value, S) for r in reps)
            assert tot == (len(reps) if ch.is_trivial else 0)


def test_disc_classes_unramified():
    reps = {r.value: r for r in sclass_reps(S2)}
    got = disc_classes(S2, reps[-1], kind="Q_ur")
    assert got.entries == (-1,)
    # -det = 1 class has no unramified nontrivial class over S={oo,2}
    got1 = disc_classes(S2, reps[1], kind="Q_ur")
    assert got1.entries == ()


def test_disc_classes_bounded():
    reps = {r.value: r for r in sclass_reps(S2)}
    got = disc_classes(S2, reps[-1], X=150, kind="Q_S")
    assert got.entries[0] == -1
    for d in got.entries:
        assert all(is_square_at(Fraction(d, -1), v) for v in S2)
        assert abs(fundamental_discriminant_of(d)) <= 150
    # ordered by |fundamental discriminant|
    Ds = [abs(fundamental_discriminant_of(d)) for d in got.entries]
    assert Ds == sorted(Ds)
    with pytest.raises(ValueError):
        disc_classes(S2, reps[-1], kind="Q_S")


@pytest.mark.parametrize("S", [S2, S23, PlaceSet.of(2, 5)])
def test_disc_classes_congruence_matches_brute_scan(S):
    """The congruence mask selects exactly the squarefree d with
    |D| <= X for which d/alpha is a square at every v in S."""
    X = 3000
    candidates = [m for n in range(1, X + 1) for m in (n, -n)
                  if m != 1 and squarefree_kernel(m) == m
                  and abs(fundamental_discriminant_of(m)) <= X]
    for rep in sclass_reps(S):
        brute = [m for m in candidates
                 if all(is_square_at(Fraction(m, rep.value), v) for v in S)]
        brute.sort(key=lambda m: (abs(fundamental_discriminant_of(m)), m))
        assert disc_classes(S, rep, X=X, kind="Q_S").entries == tuple(brute), rep.value


def test_conductor_outside():
    assert conductor_outside(-1, S2).N_fdS == 1
    assert conductor_outside(-3, S2).N_fdS == 3
    assert conductor_outside(-3, S23).N_fdS == 1
    assert conductor_outside(15, S2).N_fdS == 15


def test_orthogonality_cubic():
    """Nontrivial cubic characters sum to zero over the cube classes."""
    from tracecoef.arith import cclass_reps

    for S in (S27, PlaceSet.of(2, 3)):
        reps = cclass_reps(S)
        for ch in enum_cubic_chars(S):
            tot = sum(chi_S(ch, r.value, S) for r in reps)
            assert abs(tot) < 1e-9, (S, ch.modulus)
