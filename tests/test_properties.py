"""Property tests of the integer local-symbol kernels.

Each kernel in `arith` works on the integer num*den (square classes) or
num*den^2 (cube classes).  The references below work on the rational itself,
with Fraction unit parts reduced modulo p^k, Euler's criterion and brute
cube tables, and share no code with `arith`.
"""
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tracecoef.arith import (
    OO,
    hilbert,
    is_cube_at,
    is_square_at,
    local_cube_class,
    local_square_class,
    valuation,
)
from tracecoef.quadforms import SymForm2, hasse

PRIMES = (2, 3, 5, 7)
PLACES = (OO,) + PRIMES
SETTINGS = settings(max_examples=300, deadline=None)


@st.composite
def rationals(draw):
    """Nonzero rationals of either sign with high powers of 2, 3, 5 and 7;
    integral values come as int about half the time."""
    x = Fraction(draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6)))
    x *= draw(st.sampled_from((1, -1)))
    for p in PRIMES:
        x *= Fraction(p) ** draw(st.integers(-25, 25))
    if x.denominator == 1 and draw(st.booleans()):
        return int(x)
    return x


# -- Fraction-based references ------------------------------------------------

def ref_valuation(x, p):
    x = Fraction(x)
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def ref_unit_mod(x, p, m):
    """The p-adic unit x / p^v(x), reduced modulo m (a power of p)."""
    u = Fraction(x) / Fraction(p) ** ref_valuation(x, p)
    return u.numerator * pow(u.denominator, -1, m) % m


def ref_legendre(a, p):
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def ref_local_square_class(x, v):
    if v == OO:
        return ("sign", 1 if x > 0 else -1)
    e = ref_valuation(x, v) % 2
    if v == 2:
        return (e, ref_unit_mod(x, 2, 8))
    return (e, ref_legendre(ref_unit_mod(x, v, v), v))


def ref_is_square_at(x, v):
    if v == OO:
        return x > 0
    if ref_valuation(x, v) % 2:
        return False
    if v == 2:
        return ref_unit_mod(x, 2, 8) == 1
    return ref_legendre(ref_unit_mod(x, v, v), v) == 1


def ref_hilbert(a, b, v):
    """Serre's formulas on the rationals themselves."""
    a, b = Fraction(a), Fraction(b)
    if v == OO:
        return -1 if a < 0 and b < 0 else 1
    p = v
    al, be = ref_valuation(a, p), ref_valuation(b, p)
    if p != 2:
        u, w = ref_unit_mod(a, p, p), ref_unit_mod(b, p, p)
        sign = (-1) ** (al * be * ((p - 1) // 2) % 2)
        return sign * ref_legendre(u, p) ** (be % 2) * ref_legendre(w, p) ** (al % 2)
    u, w = ref_unit_mod(a, 2, 8), ref_unit_mod(b, 2, 8)
    eps = lambda m: (m - 1) // 2  # noqa: E731
    omega = lambda m: (m * m - 1) // 8  # noqa: E731
    return (-1) ** ((eps(u) * eps(w) + al * omega(w) + be * omega(u)) % 2)


def _unit_cubes(m, p):
    return {pow(t, 3, m) for t in range(m) if t % p}


def ref_local_cube_class(x, v):
    if v == OO:
        return ("real", 0)
    p = v
    e = ref_valuation(x, p) % 3
    if p == 3:
        u = ref_unit_mod(x, 3, 9)
        cubes = _unit_cubes(9, 3)
        return (e, next(r for r in (1, 2, 4) if u * pow(r, -1, 9) % 9 in cubes))
    if p % 3 == 2:
        return (e, 1)
    return (e, pow(ref_unit_mod(x, p, p), (p - 1) // 3, p))


def ref_is_cube_at(x, v):
    if v == OO:
        return True
    p = v
    if ref_valuation(x, p) % 3:
        return False
    m = 27 if p == 3 else p
    return ref_unit_mod(x, p, m) in _unit_cubes(m, p)


# -- properties -----------------------------------------------------------------

@SETTINGS
@given(rationals(), st.sampled_from(PRIMES))
def test_valuation_matches_reference(x, p):
    assert valuation(x, p) == ref_valuation(x, p)


@SETTINGS
@given(rationals(), st.sampled_from(PLACES))
def test_square_class_matches_reference(x, v):
    assert local_square_class(x, v) == ref_local_square_class(x, v)
    assert is_square_at(x, v) == ref_is_square_at(x, v)


@SETTINGS
@given(rationals(), rationals(), st.sampled_from(PLACES))
def test_hilbert_matches_reference(a, b, v):
    assert hilbert(a, b, v) == ref_hilbert(a, b, v)


@SETTINGS
@given(rationals(), st.sampled_from(PLACES))
def test_cube_class_matches_reference(x, v):
    assert local_cube_class(x, v) == ref_local_cube_class(x, v)
    assert is_cube_at(x, v) == ref_is_cube_at(x, v)


small = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@SETTINGS
@given(small, small, small, st.lists(small, min_size=4, max_size=4))
def test_hasse_invariant_under_congruence(a, b, c, g):
    assume(a * c - b * b != 0)
    p, q, r, s = g
    assume(p * s - q * r != 0)
    x = SymForm2(a, b, c)
    y = x.congruent_by(((p, q), (r, s)))
    for v in PLACES:
        assert hasse(y, v) == hasse(x, v)


def test_other_input_types_go_through_fraction():
    assert valuation("-3/8", 2) == -3
    assert local_square_class(0.75, 3) == local_square_class(Fraction(3, 4), 3)
    assert hilbert("2", 7.0, 7) == hilbert(2, 7, 7)
    assert is_cube_at("16/2", 2)


@pytest.mark.parametrize("fn", [
    lambda: valuation(0, 2),
    lambda: valuation(Fraction(0), 3),
    lambda: local_square_class(0, 5),
    lambda: is_square_at(0, OO),
    lambda: hilbert(0, 3, 3),
    lambda: hilbert(3, Fraction(0), OO),
    lambda: local_cube_class(0, 7),
    lambda: is_cube_at(0, 3),
])
def test_zero_is_rejected(fn):
    with pytest.raises(ValueError):
        fn()


@SETTINGS
@given(st.sampled_from(((2,), (2, 3), (2, 5))), small.filter(bool), small.filter(bool),
       small, st.integers(0, 10**4))
def test_square_minus_det_means_hasse_profile_of_x1(S, a, r, b, k):
    """A form whose -det is a square at every place of S = {oo} + S is the
    hyperbolic plane there, so it has the Hasse profile of x_1 = diag(1,-1).
    -det = t is drawn from the trivial S-class directly: t = r^2 m with
    m = 1 mod 8 prod(odd p in S), and the form is [[a, b], [b, (b^2 - t)/a]]."""
    m = 1 + 8 * math.prod(p for p in S if p != 2) * k
    x = SymForm2(a, b, (b * b - r * r * m) / a)
    places = (OO,) + S
    assert all(is_square_at(-x.det, v) for v in places)
    x1 = SymForm2.x_alpha(1)
    assert [hasse(x, v) for v in places] == [hasse(x1, v) for v in places]
