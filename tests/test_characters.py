"""Character enumeration, chi_S, and discriminant class sets."""
import cmath
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _least_generator(q: int) -> int:
    units = [a for a in range(1, q) if math.gcd(a, q) == 1]
    return next(g for g in units if len({pow(g, k, q) for k in range(len(units))}) == len(units))


@settings(max_examples=30, deadline=None)
@given(st.sets(st.sampled_from([2, 3, 7, 13, 19])))
def test_enum_cubic_chars_property(primes):
    """The cubic characters unramified outside S are the homomorphisms of
    (Z/M)^x to Z/3, M = 9 (if 3 in S) times the p = 1 mod 3 of S: 3^m of them
    for m such components.  Each is determined by its exponents at the least
    generator of each component, lifted to 1 at the others; every nontrivial
    one appears once, is multiplicative, is followed by its inverse, and the
    first of each pair has first nonzero exponent 1."""
    S = PlaceSet.of(*primes)
    moduli = sorted(([9] if 3 in primes else []) + [p for p in primes if p % 3 == 1])
    M = math.prod(moduli)
    lifts = [next(n for n in range(_least_generator(q), M, q) if n % (M // q) == 1 % (M // q))
             for q in moduli]
    chars = enum_cubic_chars(S)
    rng = random.Random(len(chars))
    seen = set()
    for i, ch in enumerate(chars):
        Q = ch.modulus
        assert M % Q == 0 and ch.is_unramified_outside(S) and len(ch.values) == Q
        assert all((v is None) == (math.gcd(n, Q) != 1) for n, v in enumerate(ch.values))
        units = [n for n in range(Q) if math.gcd(n, Q) == 1]
        for a, b in zip(rng.choices(units, k=200), rng.choices(units, k=200)):
            assert ch.exponent(a * b) == (ch.exponent(a) + ch.exponent(b)) % 3
        exps = tuple(ch.exponent(n) for n in lifts)
        assert any(exps) and exps not in seen
        seen.add(exps)
        if i % 2 == 0:
            assert next(e for e in exps if e) == 1
        else:
            prev = chars[i - 1]
            assert Q == prev.modulus and ch == prev.inverse()
            assert all(v is w is None or (v + w) % 3 == 0 for v, w in zip(ch.values, prev.values))
    assert len(chars) == 3 ** len(moduli) - 1


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


@functools.lru_cache(maxsize=None)
def _sclass_values(primes: tuple) -> list:
    return [r.value for r in sclass_reps(PlaceSet.of(*primes))]


def _square_up_to_S_unit(alpha, S: PlaceSet) -> bool:
    """Is u alpha a square at every v in S for some S-unit u = +-prod p^(0 or 1)?"""
    units = [sign * math.prod(p for p, e in zip(S.primes, es) if e)
             for sign in (1, -1) for es in itertools.product((0, 1), repeat=len(S.primes))]
    return any(all(is_square_at(u * alpha, v) for v in S.places) for u in units)


@st.composite
def nonzero_rationals(draw):
    x = Fraction(draw(st.sampled_from((1, -1))) * draw(st.integers(1, 1000)))
    for p in (2, 3, 5, 7, 11, 13, 17, 19):
        x *= Fraction(p) ** draw(st.integers(-3, 3))
    return x


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from((2, 3, 5, 7, 11, 13)), max_size=3, unique=True),
       st.lists(nonzero_rationals(), max_size=8))
def test_chi_S_orthogonality_random_S(primes, extra):
    """Over the quadratic characters unramified outside S, sum chi_S(chi,
    alpha, S) is their number when alpha is a local square at every v in S
    and 0 when no S-unit multiple of alpha is; the S-units themselves (-1,
    the p in S) pair trivially with every such character by the product
    formula, so exactly |reps| / |characters| of the square-class
    representatives give the full sum."""
    S = PlaceSet.of(*primes)
    chars = enum_quad_chars(S)
    reps = _sclass_values(tuple(sorted(primes)))
    sums = {alpha: sum(chi_S(ch, alpha, S) for ch in chars) for alpha in reps + extra}
    for alpha, tot in sums.items():
        assert tot == (len(chars) if _square_up_to_S_unit(alpha, S) else 0), (S, alpha)
    assert sum(sums[alpha] == len(chars) for alpha in reps) * len(chars) == len(reps)


def test_disc_classes_unramified():
    reps = {r.value: r for r in sclass_reps(S2)}
    got = disc_classes(S2, reps[-1], kind="Q_ur")
    assert got.entries == (-1,)
    # -det = 1 class has no unramified nontrivial class over S={oo,2}
    got1 = disc_classes(S2, reps[1], kind="Q_ur")
    assert got1.entries == ()


def test_disc_classes_bounded():
    reps = {r.value: r for r in sclass_reps(S2)}
    entries = disc_classes(S2, reps[-1], X=150, kind="Q_S").entries
    assert entries.dtype == "int64" and not entries.flags.writeable
    got = entries.tolist()
    assert got[0] == -1
    for d in got:
        assert all(is_square_at(Fraction(d, -1), v) for v in S2)
        assert abs(fundamental_discriminant_of(d)) <= 150
    # ordered by |fundamental discriminant|
    Ds = [abs(fundamental_discriminant_of(d)) for d in got]
    assert Ds == sorted(Ds)
    with pytest.raises(ValueError):
        disc_classes(S2, reps[-1], kind="Q_S")
    assert disc_classes(S2, reps[-1], X=0, kind="Q_S").entries.tolist() == []


@functools.lru_cache(maxsize=None)
def _squarefree_classes():
    """(|D|, m) for the squarefree m != 1 with |fundamental discriminant| D
    at most 3000, in order."""
    pairs = [(abs(fundamental_discriminant_of(m)), m) for n in range(1, 3001) for m in (n, -n)
             if m != 1 and squarefree_kernel(m) == m]
    return sorted(pair for pair in pairs if pair[0] <= 3000)


def brute_disc_classes(S, alpha, X):
    """disc_classes(S, alpha, X) by definition, for X <= 3000: the squarefree
    m != 1 with |D| <= X and m/alpha a square at every v in S, ordered by (|D|, m)."""
    assert X <= 3000
    return [m for D, m in _squarefree_classes()
            if D <= X and all(is_square_at(Fraction(m, alpha), v) for v in S)]


@pytest.mark.parametrize("S", [S2, S23, PlaceSet.of(2, 5)])
def test_disc_classes_congruence_matches_brute_scan(S):
    """The progression scan selects exactly the squarefree d with
    |D| <= X for which d/alpha is a square at every v in S."""
    for rep in sclass_reps(S):
        got = disc_classes(S, rep, X=3000, kind="Q_S").entries.tolist()
        assert got == brute_disc_classes(S, rep.value, 3000), rep.value


# X near the edges of the progression: small X, and X next to a multiple of 4,
# where the bound X // 4 on the m with D = 4m steps
_bounds = st.one_of(st.integers(0, 15),
                    st.builds(lambda k, d: min(max(4 * k + d, 0), 3000),
                              st.integers(0, 750), st.integers(-4, 4)),
                    st.integers(0, 3000))


@functools.lru_cache(maxsize=None)
def _rep_values(S):
    # {oo,2,3,5,7} has 1024 classes, the largest rep |value| is 65310
    return [r.value for r in sclass_reps(S)]


@settings(max_examples=60, deadline=None)
@given(odd=st.sets(st.sampled_from([3, 5, 7])), X=_bounds, data=st.data())
def test_disc_classes_property_matches_definition(odd, X, data):
    """disc_classes equals its definition for S = {oo, 2} and any odd primes
    of {3, 5, 7}, every S-class rep alpha, and X up to 3000."""
    S = PlaceSet.of(2, *odd)
    alpha = data.draw(st.sampled_from(_rep_values(S)), label="alpha")
    full = data.draw(st.booleans(), label="X at a class edge") and brute_disc_classes(S, alpha, 3000)
    if full:
        # the bound at or just below the |D| of an admissible class
        X = abs(fundamental_discriminant_of(data.draw(st.sampled_from(full)))) - data.draw(st.integers(0, 1))
    got = disc_classes(S, alpha, X=X, kind="Q_S").entries.tolist()
    assert got == brute_disc_classes(S, alpha, X)


def test_disc_classes_odd_prime_of_alpha_beyond_the_bound():
    """p in S dividing alpha: the mask's period p^2 is longer than the whole
    progression, so the mask is built for each entry of it instead."""
    S = PlaceSet.of(2, 1009)
    for alpha in (1009, -1009, 2018, -3 * 1009):
        assert (disc_classes(S, alpha, X=3000, kind="Q_S").entries.tolist()
                == brute_disc_classes(S, alpha, 3000))
    assert disc_classes(S, 1009, X=3000, kind="Q_S").entries.tolist() == [1009]


@pytest.mark.parametrize("X", [-1, -2, 2.5])
def test_disc_classes_rejects_bad_bound(X):
    with pytest.raises(ValueError, match=f"X={X}"):
        disc_classes(S2, -1, X=X, kind="Q_S")


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
