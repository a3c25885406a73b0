"""Partial L-functions: special values, Laurent data, derivatives.

Expected values below were frozen from independent oracles: closed forms
(pi^2/6, pi/4), direct alternating sums (the L(2,chi_-4) constant), and
published digits of the Euler-Mascheroni and first Stieltjes constants.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from tracecoef.arith import PlaceSet
from tracecoef.characters import QuadChar, enum_cubic_chars
from tracecoef import lfun

S_OO = PlaceSet.of()
S2 = PlaceSet.of(2)
S23 = PlaceSet.of(2, 3)

GAMMA0_STR = "0.577215664901532860606512090082402431042"
GAMMA1_STR = "-0.072815845483676724860586375874901319138"


def alternating_sum_oracle(power: int, n_terms: int = 200_000) -> float:
    """sum (-1)^k/(2k+1)^power by direct summation; the alternating-series
    error is below the last term."""
    k = np.arange(n_terms, dtype=np.float64)
    terms = (-1.0) ** k / (2 * k + 1) ** power
    return float(np.add.reduce(terms))


def test_zetaS_closed_forms():
    with mp.workdps(35):
        assert abs(lfun.zetaS(2, S_OO) - mp.pi**2 / 6) < mpf("1e-28")
        assert abs(lfun.zetaS(2, S2) - mp.pi**2 / 8) < mpf("1e-28")
        assert abs(lfun.zetaS(2, S23) - mp.pi**2 / 9) < mpf("1e-28")


def test_zetaS_pole_signaled():
    with pytest.raises(lfun.PoleError):
        lfun.zetaS(1, S2)


def test_LS_special_values():
    ch = QuadChar(-4)
    with mp.workdps(35):
        assert abs(lfun.LS(1, ch, S2) - mp.pi / 4) < mpf("1e-25")
    # direct alternating sum oracle for the Leibniz and the s=2 values
    assert abs(float(lfun.LS(1, ch, S2)) - alternating_sum_oracle(1, 4_000_000)) < 1e-6
    assert abs(float(lfun.LS(2, ch, S2)) - alternating_sum_oracle(2)) < 1e-10
    # trivial character falls back to zetaS
    assert lfun.LS(3, None, S23) == lfun.zetaS(3, S23)
    assert lfun.LS(3, QuadChar(1), S23) == lfun.zetaS(3, S23)


def test_LS_ramified_outside_rejected():
    with pytest.raises(ValueError):
        lfun.LS(2, QuadChar(-3), S2)


def test_LS_euler_factor_compatibility():
    """L^S agrees with L^{S'} times the explicit factors for S inside S'."""
    with mp.workdps(40):
        for ch in (None, QuadChar(-4), QuadChar(8)):
            for s in (mpf(2), mpf("1.5"), mpf(3)):
                small = lfun.LS(s, ch, S2)
                big = lfun.LS(s, ch, S23)
                chi3 = 1 if ch is None else ch(3)
                assert abs(big - small * (1 - chi3 * mpf(3) ** -s)) < mpf("1e-25")


def test_laurent_trivial():
    with mp.workdps(40):
        ld = lfun.laurent_at_1(None, S_OO, digits=35)
        assert ld.residue == 1
        assert abs(ld.c0 - mpf(GAMMA0_STR)) < mpf("1e-30")
        assert abs(ld.c1 - (-mpf(GAMMA1_STR))) < mpf("1e-30")
        ld2 = lfun.laurent_at_1(None, S2, digits=35)
        assert abs(ld2.residue - mpf(1) / 2) < mpf("1e-30")
        assert abs(ld2.c0 - (mpf(GAMMA0_STR) / 2 + mp.ln(2) / 2)) < mpf("1e-30")


def test_laurent_nontrivial():
    ld = lfun.laurent_at_1(QuadChar(-4), S2)
    assert ld.residue == 0
    with mp.workdps(35):
        assert abs(ld.c0 - mp.pi / 4) < mpf("1e-25")
    # c1 against a centered difference of the full partial L-function
    h = mpf("1e-5")
    fd = (lfun.LS(1 + h, QuadChar(-4), S2) - lfun.LS(1 - h, QuadChar(-4), S2)) / (2 * h)
    assert abs(ld.c1 - fd) < mpf("1e-8")


def test_residue_from_laurent_model():
    """(s-1) zeta^S(s) near s=1 matches the Laurent model."""
    for S in (S_OO, S2, S23):
        ld = lfun.laurent_at_1(None, S)
        for sgn in (1, -1):
            s = 1 + sgn * mpf("1e-4")
            model = ld.residue + ld.c0 * (s - 1) + ld.c1 * (s - 1) ** 2
            assert abs((s - 1) * lfun.zetaS(s, S) - model) < mpf("1e-6")


def test_deriv_vs_finite_difference():
    h = mpf("1e-5")
    for s0 in (mpf("1.5"), mpf(2), mpf(3)):
        for ch in (None, QuadChar(-4), QuadChar(8)):
            fd = (lfun.LS(s0 + h, ch, S2) - lfun.LS(s0 - h, ch, S2)) / (2 * h)
            assert abs(lfun.deriv_LS(s0, ch, S2) - fd) < mpf("1e-8"), (s0, ch)


def test_deriv_zeta_at_2():
    # frozen from the high-precision Euler-Maclaurin kernel at 40 digits,
    # cross-checked against the finite difference above
    val = lfun.deriv_LS(2, None, S_OO, digits=40)
    with mp.workdps(45):
        assert abs(val - mpf("-0.937548254315843753702574094567864977898")) < mpf("1e-35")


def test_deriv_product_rule_S():
    """d/ds zeta^S at 3: product rule on zeta(s)(1-2^{-s})."""
    with mp.workdps(40):
        z = lfun.zetaS(3, S_OO, 40)
        zp = lfun.deriv_LS(3, None, S_OO, 40)
        f = 1 - mpf(2) ** -3
        fp = mp.ln(2) * mpf(2) ** -3
        assert abs(lfun.deriv_LS(3, None, S2, 40) - (zp * f + z * fp)) < mpf("1e-30")


def test_stieltjes_internal_vs_published():
    with mp.workdps(40):
        assert abs(lfun.stieltjes_gamma(0, 35) - mpf(GAMMA0_STR)) < mpf("1e-30")
        assert abs(lfun.stieltjes_gamma(1, 35) - mpf(GAMMA1_STR)) < mpf("1e-30")


def test_cubic_L_values_real_product():
    S27 = PlaceSet.of(2, 7)
    ch = enum_cubic_chars(S27)[0]
    with mp.workdps(40):
        L = lfun.LS(1, ch, S27)
        Linv = lfun.LS(1, ch.inverse(), S27)
        prod = L * Linv
        assert abs(mp.im(prod)) < mpf("1e-25")
        assert mp.re(prod) > 0
        # conjugate pair
        assert abs(mp.conj(L) - Linv) < mpf("1e-25")


def test_hurwitz_regularized_consistency():
    """Regularized kernel equals the plain one minus the pole term."""
    with mp.workdps(40):
        for s in (mpf("1.3"), mpf("0.7"), mpf(2)):
            a = mpf(1) / 3
            plain = lfun.hurwitz(s, a)
            reg = lfun.hurwitz(s, a, regularized=True)
            assert abs(plain - (reg + 1 / (s - 1))) < mpf("1e-25")


# ---------------------------------------------------------------------------
# the Dirichlet kernel against mpmath's own L-functions, and its memos
# ---------------------------------------------------------------------------

def _values_mod_q(chi):
    """chi(0), ..., chi(q-1) in working precision, q the conductor."""
    if isinstance(chi, QuadChar):
        return [chi(k) for k in range(chi.conductor)]
    return [0 if e is None else mp.exp(2j * mp.pi * e / 3) for e in chi.values]


def _mpmath_dirichlet(s, chi, derivative):
    """mpmath's Hurwitz-zeta route to L(s,chi) or L'(s,chi).  Its s == 1
    branch raises the precision once per value other than 0 and 1, which
    exhausts memory beyond tiny conductors, so s = 1 is evaluated at
    1 + 2^-110 in 400-bit arithmetic instead (the shift moves the value by
    about 2^-110 |L'|, the cancelling poles cost 220 bits)."""
    if s == 1:
        with mp.workprec(400):
            return mp.dirichlet(1 + mpf(2) ** -110, _values_mod_q(chi), derivative)
    return mp.dirichlet(s, _values_mod_q(chi), derivative)


def _cubic(*primes):
    return [ch for ch in enum_cubic_chars(PlaceSet.of(*primes))
            if set(ch.support) == set(primes)][0]


ORACLE_CASES = (
    [(QuadChar(D), s) for D in (-4, 5, -23) for s in (1, mpf(3) / 2, 2, 3)]
    + [(QuadChar(173), mpf(3) / 2), (QuadChar(-199), 2)]
    + [(_cubic(p), s) for p in (7, 3) for s in (1, mpf(3) / 2, 2, 3)]
    + [(_cubic(3, 7), 2), (_cubic(181), 3)]
)


def _case_id(v):
    if isinstance(v, QuadChar):
        return f"D={v.D}"
    return f"cubic-mod-{v.modulus}" if hasattr(v, "modulus") else f"s={float(v)}"


@pytest.mark.parametrize("chi,s", ORACLE_CASES, ids=_case_id)
def test_dirichlet_kernel_vs_mpmath(chi, s):
    """Value and derivative of the primitive L(s,chi) (S = support of chi, so
    no Euler factor is removed) against mp.dirichlet, to 1e-30."""
    S = PlaceSet.of(*chi.support)
    with mp.workdps(40):
        for derivative, ours in ((0, lfun.LS(s, chi, S)), (1, lfun.deriv_LS(s, chi, S))):
            ref = _mpmath_dirichlet(mpf(s), chi, derivative)
            assert abs(ours - ref) < mpf("1e-30") * max(1, abs(ref)), (chi, s, derivative)


def test_clear_cache_empties_every_memo_and_table():
    """Value-only and full entries alike."""
    for fn in (lfun.LS, lfun.deriv_LS):
        fn(mpf(3) / 2, QuadChar(-4), S2)
    lfun.laurent_at_1(None, S2)
    lfun.hurwitz(2, mpf(1) / 3)
    module_dicts = {id(v) for k, v in vars(lfun).items()
                    if isinstance(v, dict) and not k.startswith("__")}
    assert module_dicts == {id(m) for m in lfun._MEMOS}
    assert all(lfun._MEMOS)
    for memo in (lfun._jet_memo, lfun._tails_memo):
        assert {key[-1] for key in memo} == {False, True}
    lfun.clear_cache()
    assert not any(lfun._MEMOS)


def test_bernoulli_jets_extend_bit_identically():
    """A memoised list shorter than M is extended, and the extension holds
    the same fixed-point integers as a list built from j = 1."""
    s = mpf(3) / 2
    with mp.workdps(40):
        lfun.clear_cache()
        fresh = list(lfun._bernoulli_jets(s, 24))
        lfun.clear_cache()
        assert len(lfun._bernoulli_jets(s, 5)) == 5
        grown = lfun._bernoulli_jets(s, 23)
        assert lfun._bernoulli_jets(s, 24) is grown and lfun._bernoulli_jets(s, 10) is grown
        lfun.clear_cache()
    assert grown == fresh


def test_bernoulli_ratios_are_exact():
    """The tangent-number table is B_2j/(2j)! exactly, for every j the
    Euler-Maclaurin plan may ask for."""
    M = lfun._MAX_BERNOULLI_TERMS
    lfun.clear_cache()
    ratios = lfun._bernoulli_ratios(M)
    lfun.clear_cache()
    assert len(ratios) == M
    for j, (a, b) in enumerate(ratios, 1):
        assert Fraction(a, b * 4**j) == Fraction(*mp.bernfrac(2 * j)) / math.factorial(2 * j)


JET_POINTS = ["1", "2", "3", "3/2", "25/4", "0.7", "1.0001", "0", "-1/2", "-1", "-1-2^-131"]


def _jet_point(text):
    if text == "-1-2^-131":
        return mpf(-1) - mpf(2) ** -131
    num, _, den = text.partition("/")
    return mpf(num) / int(den or 1)


@pytest.mark.parametrize("dps", [20, 40, 60])
def test_bernoulli_jets_match_mpmath(dps):
    """(c_j, dc_j/ds) in fixed point against mpmath at three times the
    working bits: within one unit of 2^-W, negative s included."""
    M = 30
    with mp.workdps(dps):
        W = lfun._bits()
        for text in JET_POINTS:
            s = _jet_point(text)
            lfun.clear_cache()
            jets = lfun._bernoulli_jets(s, M)
            with mp.workprec(3 * W):
                R, dR = s, mpf(1)
                for j, (c, dc) in enumerate(jets, 1):
                    if j > 1:
                        a, b = s + (2 * j - 3), s + (2 * j - 2)
                        R, dR = R * a * b, dR * a * b + R * (a + b)
                    beta = mp.bernoulli(2 * j) / math.factorial(2 * j) * mpf(2) ** W
                    assert abs(c - beta * R) <= 1 and abs(dc - beta * dR) <= 1, (text, j)
    lfun.clear_cache()


def test_memo_keys_are_exact_in_s():
    """Two s that print alike to dps digits but differ in the working
    precision get their own jets.  Near the trivial zero of L(s,chi_-4) at
    s = -1 the difference of the values is far above their rounding."""
    chi = QuadChar(-4)
    with mp.workdps(40):
        s1 = mpf(-1)
        s2 = s1 - mpf(2) ** -131
        assert s1 != s2 and mp.nstr(s1, mp.dps) == mp.nstr(s2, mp.dps)
        L1, dL1 = lfun._LS_jet(s1, chi, S2)
        L2, _ = lfun._LS_jet(s2, chi, S2)
        assert abs(dL1 - 2 * mp.catalan / mp.pi) < mpf("1e-30")
        assert abs((L2 - L1) - (s2 - s1) * dL1) < abs(s2 - s1) * dL1 / 100


def test_em_plan_gives_up(monkeypatch):
    """A plan that needs more Bernoulli terms than the cap raises, naming s
    and q and not asking for more precision."""
    monkeypatch.setattr(lfun, "_MAX_BERNOULLI_TERMS", 5)
    with mp.workdps(40), pytest.raises(RuntimeError, match="did not converge at s = 1, q = 4;"
                                       " more precision cannot help"):
        lfun._dirichlet_plan(mpf(1), 4)


# ---------------------------------------------------------------------------
# value-only requests, the per-modulus tail pass, and negative s
# ---------------------------------------------------------------------------

VALUE_POINTS = [mpf(1), mpf(2), mpf(3), mpf(3) / 2, mpf(25) / 4, mpf("0.7"), mpf(0)]
VALUE_CHARS = [QuadChar(-4), QuadChar(8), QuadChar(-8), QuadChar(-23), _cubic(7), _cubic(3)]


def _bits_of(x):
    """The exact binary representation of an mpf or mpc."""
    return (x.real._mpf_, x.imag._mpf_) if isinstance(x, mp.mpc) else x._mpf_


@pytest.mark.parametrize("digits", [15, 30, 60])
def test_value_only_equals_jet_value(digits):
    """The value-only kernel gives the bits of the full jet's value, with and
    without the other value-only and full entries in the memos."""
    with mp.workdps(digits + lfun._GUARD):
        for chi in VALUE_CHARS + [None]:
            S = PlaceSet.of(*(chi.support if chi else ()), 2)
            for s in VALUE_POINTS:
                lfun.clear_cache()
                val, none = lfun._dirichlet_jet(s, chi, deriv=False)
                lfun.clear_cache()
                full = lfun._dirichlet_jet(s, chi)
                assert none is None and _bits_of(val) == _bits_of(full[0]), (chi, s)
                if chi is None and s == 1:
                    continue
                lfun.clear_cache()
                assert _bits_of(lfun._LS_jet(s, chi, S, deriv=False)[0]) == \
                    _bits_of(lfun._LS_jet(s, chi, S)[0]), (chi, s)
    lfun.clear_cache()


@pytest.mark.parametrize("chi,s", [(QuadChar(-4), 1), (QuadChar(-4), mpf(3) / 2),
                                   (QuadChar(173), 2), (None, 2), (None, mpf("0.7")),
                                   (_cubic(7), 2), (_cubic(3, 7), 1)],
                         ids=lambda v: _case_id(v) if v is not None else "zeta")
def test_value_derivative_value_same_bits_as_fresh(chi, s):
    """LS, then deriv_LS, then LS on one key: each answer has the bits of the
    same call on empty memos, whichever entry serves it."""
    S = PlaceSet.of(*(chi.support if chi else ()), 2)
    fresh = []
    for fn in (lfun.LS, lfun.deriv_LS):
        lfun.clear_cache()
        fresh.append(_bits_of(fn(s, chi, S)))
    lfun.clear_cache()
    seq = [_bits_of(fn(s, chi, S)) for fn in (lfun.LS, lfun.deriv_LS, lfun.LS)]
    lfun.clear_cache()
    assert seq == [fresh[0], fresh[1], fresh[0]]


def test_tail_pass_shared_by_characters_of_one_modulus():
    """chi_8 and chi_-8 read one tail pass.  A value at s = 2 builds no ln
    table and a value at s = 1 none of its own; a derivative builds it."""
    with mp.workdps(40):
        lfun.clear_cache()
        lfun.LS(2, QuadChar(8), S2)
        assert len(lfun._tails_memo) == 1 and not lfun._ln_tables
        (entry,) = lfun._tails_memo.values()
        lfun.LS(2, QuadChar(-8), S2)
        assert list(lfun._tails_memo.values()) == [entry] and not lfun._ln_tables
        lfun.LS(1, QuadChar(8), S2)
        assert not lfun._ln_tables
        lfun.deriv_LS(1, QuadChar(8), S2)
        assert lfun._ln_tables
    lfun.clear_cache()


@pytest.mark.parametrize("dps", [15, 40])
def test_ln_entries_are_the_table_entries(dps):
    """The entries reached from a few n have the sieve table's integers."""
    X = 199 * 23
    ns = [199] + list(range(199 * 22 + 1, X + 1, 7))
    with mp.workdps(dps):
        lfun.clear_cache()
        part = lfun._ln_entries(ns, X)
        assert isinstance(part, dict) and len(part) < X // 3
        table = lfun._ln_table(X)
        assert all(table[n] == v for n, v in part.items()) and lfun._ln_entries(ns, X) is table
    lfun.clear_cache()


LARGE_S_CASES = [(QuadChar(-199), 24), (QuadChar(-199), 60), (QuadChar(-23), 60),
                 (_cubic(7), 60), (QuadChar(-4), 200), (QuadChar(5), 200), (QuadChar(-199), 200)]


@pytest.mark.parametrize("chi,s", LARGE_S_CASES, ids=_case_id)
def test_large_s_keeps_q_to_the_minus_s(chi, s):
    """At s log2 q beyond the fixed point's bits q^-s, the scale of the tails,
    would be 0; the kernel's extra bits keep it, and the value and derivative
    agree with mp.dirichlet to 1e-30 (30 digits)."""
    S = PlaceSet.of(*chi.support)
    assert s * math.log2(chi.conductor if isinstance(chi, QuadChar) else chi.modulus) > 166
    with mp.workdps(40):
        for derivative, ours in ((0, lfun.LS(s, chi, S)), (1, lfun.deriv_LS(s, chi, S))):
            ref = _mpmath_dirichlet(mpf(s), chi, derivative)
            assert abs(ours - ref) < mpf("1e-30") * max(1, abs(ref)), (chi, s, derivative)
    lfun.clear_cache()


def test_em_plan_scale_in_the_log_domain():
    """The scale q^(1-s)(1 + ln q) of a character's plan under- or overflows a
    float at |s| = 2000; its logarithm does not, and the plan is that of the
    scale itself where the scale is a float."""
    with mp.workdps(40):
        for s in (mpf(2000), mpf(-2000)):
            log_scale = (1 - float(s)) * math.log(4) + math.log1p(math.log(4))
            assert math.isfinite(log_scale)
        assert lfun._em_plan(mpf(2000), Fraction(1, 4), log_scale)[1] >= 1
        log_scale = -math.log(4) + math.log1p(math.log(4))  # s = 2
        assert lfun._em_plan(mpf(2), Fraction(1, 4), log_scale) == lfun._em_plan(
            mpf(2), Fraction(1, 4), math.log(4.0 ** -1 * (1 + math.log(4))))


NEGATIVE_S = [mpf(-30), mpf(-20), mpf("-11.5"), mpf("-5.5")]


@pytest.mark.parametrize("s", NEGATIVE_S, ids=lambda s: f"s={float(s)}")
def test_negative_s_keeps_its_digits(s):
    """At s < 0 the functional equation keeps L(s,chi), zeta(s) and their
    derivatives within 1e-38 (relative, or absolute at the trivial zeros) of
    mpmath at 60 digits."""
    def close(ours, ref):
        return abs(ours - ref) <= mpf("1e-38") * max(1, abs(ref))

    for D in (-4, -3, 5):
        chi = QuadChar(D)
        S = PlaceSet.of(*chi.support)
        ours = [lfun.LS(s, chi, S, digits=40), lfun.deriv_LS(s, chi, S, digits=40)]
        with mp.workdps(60):
            for derivative in (0, 1):
                ref = mp.dirichlet(s, _values_mod_q(chi), derivative)
                assert close(ours[derivative], ref), (D, s, derivative)
    for S in (S_OO, S2):
        ours = [lfun.zetaS(s, S, digits=40), lfun.deriv_LS(s, None, S, digits=40)]
        with mp.workdps(60):
            z, dz = mp.zeta(s), mp.zeta(s, 1, 1)
            if S == S2:  # times 1 - 2^-s
                z, dz = z * (1 - mpf(2) ** -s), dz * (1 - mpf(2) ** -s) + z * mpf(2) ** -s * mp.ln2
            assert close(ours[0], z) and close(ours[1], dz), (s, S)
    lfun.clear_cache()


@pytest.mark.parametrize("chi", [None, QuadChar(-4), QuadChar(5), QuadChar(-23)],
                         ids=lambda v: _case_id(v) if v is not None else "zeta")
def test_reflected_value_only_equals_jet_value(chi):
    """At s < 0 a value request has the bits of the full jet's value."""
    S = PlaceSet.of(*(chi.support if chi else ()), 2)
    with mp.workdps(40):
        for s in (mpf(-1) / 2, mpf(-3), mpf(-4), mpf("-20.5")):
            lfun.clear_cache()
            val, none = lfun._LS_jet(s, chi, S, deriv=False)
            lfun.clear_cache()
            assert none is None and _bits_of(val) == _bits_of(lfun._LS_jet(s, chi, S)[0]), s
    lfun.clear_cache()


@pytest.mark.parametrize("D,s,S", [(1, -31, (2,)), (1, -0.5, (2, 3)), (-4, -0.5, (2,)),
                                   (-4, -30, (2,)), (-4, -150, (2,)), (5, -3.3, (5,)),
                                   (8, -0.25, (2,)), (12, -40.5, (2, 3)), (-199, -60, (199,))])
def test_log_abs_lower_bound_is_below_the_value(D, s, S):
    """lfun.log_abs_LS_lower_bound at s < 0 is at most log|L^S(s,chi)|, and
    within 2 of it (the gap is log|L(1-s)|/(zeta(2t)/zeta(t)), largest near 0)."""
    chi, S = None if D == 1 else QuadChar(D), PlaceSet.of(*S)
    with mp.workdps(30):
        log_abs = float(mp.ln(abs(lfun.LS(s, chi, S, 20))))
    bound = lfun.log_abs_LS_lower_bound(s, chi, S)
    assert log_abs - 2 <= bound <= log_abs
    lfun.clear_cache()


def test_log_abs_lower_bound_of_a_trivial_zero_and_a_ramified_chi():
    """-inf at a trivial zero, which still computes; the kernel's refusal of a
    character ramified outside S."""
    assert lfun.log_abs_LS_lower_bound(-20, QuadChar(5), PlaceSet.of(5)) == -math.inf
    assert lfun.log_abs_LS_lower_bound(-7, None, PlaceSet.of(2)) < 0  # zeta(-7) = 1/240
    with pytest.raises(ValueError, match="ramified outside S"):
        lfun.log_abs_LS_lower_bound(-3, QuadChar(-4), PlaceSet.of(3))


@pytest.mark.parametrize("s", [-1, mpf("-0.5"), -mpf(2) ** -60, -150])
def test_hurwitz_refuses_negative_s(s):
    """The kernel runs at s >= 0 only, and nothing calls zeta(s, a) below."""
    with pytest.raises(ValueError, match="s >= 0"):
        lfun.hurwitz(s, mpf(1) / 3)


def test_cubic_L_refuses_negative_s():
    """A cubic character's L(s) at s < 0 has no caller and no reflection here."""
    with pytest.raises(ValueError, match="cubic character"):
        lfun.LS(-1, _cubic(7), PlaceSet.of(7))


# ---------------------------------------------------------------------------
# L^S(s, chi_D) for s >= 3 against a truncated Euler product
# ---------------------------------------------------------------------------

EULER_P = 1000
EULER_PRIMES = [p for p in range(2, EULER_P + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def _squarefree(n):
    return all(n % (d * d) for d in range(2, math.isqrt(n) + 1))


FUNDAMENTAL = [1] + [D for D in range(-200, 201) if D not in (0, 1) and (
    (D % 4 == 1 and _squarefree(abs(D)))
    or (D % 4 == 0 and (D // 4) % 4 in (2, 3) and _squarefree(abs(D) // 4)))]


def _kronecker_at_prime(D, p):
    """chi_D(p) from Euler's criterion at odd p and D mod 8 at p = 2."""
    if D % p == 0:
        return 0
    if p == 2:
        return 1 if D % 8 in (1, 7) else -1
    return 1 if pow(D % p, (p - 1) // 2, p) == 1 else -1


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FUNDAMENTAL), st.sets(st.sampled_from((2, 3, 5, 7, 11, 13))),
       st.integers(12, 32).map(lambda k: Fraction(k, 4)))
def test_LS_matches_truncated_euler_product(D, extra, s):
    """L^S(s, chi_D) = prod_{p not in S} (1 - chi_D(p) p^-s)^-1 for s >= 3.
    Truncated at p <= P, |log of the rest| <= sum_{p>P} -log(1 - p^-s) <=
    B = P^(1-s) / ((s-1)(1 - P^-s)), so the ratio is within e^B - 1 of 1."""
    support = {p for p in EULER_PRIMES if D % p == 0}
    S = PlaceSet.of(*(support | extra))
    chi = None if D == 1 else QuadChar(D)
    with mp.workdps(30):
        ours = lfun.LS(s, chi, S)
        sm = mpf(s.numerator) / s.denominator
        prod = mpf(1)
        for p in EULER_PRIMES:
            if p not in S.primes:
                prod /= 1 - _kronecker_at_prime(D, p) * mpf(p) ** -sm
        B = mpf(EULER_P) ** (1 - sm) / ((sm - 1) * (1 - mpf(EULER_P) ** -sm))
        assert abs(ours / prod - 1) <= mp.expm1(B), (D, sorted(S.primes), s)
    lfun.clear_cache()


# ---------------------------------------------------------------------------
# L(1-n, chi_D) = -B_{n,chi}/n, the exact second route at the negative integers
# ---------------------------------------------------------------------------

def _generalized_bernoulli(n, D):
    """B_{n,chi_D} = q^(n-1) sum_{a=1..q} chi_D(a) B_n(a/q), q = |D|, exactly:
    sum_k C(n,k) B_k q^(k-1) sum_a chi_D(a) a^(n-k).  D = 1 (q = 1, chi = 1)
    gives B_n(1), which is B_n but for B_1(1) = +1/2."""
    q = abs(D)
    chi = [1] if D == 1 else [QuadChar(D)(a) for a in range(1, q + 1)]
    return sum(math.comb(n, k) * Fraction(*mp.bernfrac(k)) * Fraction(q) ** (k - 1)
               * sum(c * a ** (n - k) for a, c in enumerate(chi, 1) if c) for k in range(n + 1))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FUNDAMENTAL), st.integers(1, 201))
@example(-199, 201)
@example(1, 201)
@example(-4, 151)
@example(-4, 31)
@example(5, 21)
def test_negative_integers_are_generalized_bernoulli_numbers(D, n):
    """L(1-n, chi_D) = -B_{n,chi}/n, and zeta(1-n) = -B_n/n for D = 1, within
    1e-38 relative at 40 digits.  The trivial zeros at s < 0 come out exactly
    0; the one at s = 0 (even chi_D, n = 1) is the kernel's, within 1e-38."""
    chi = None if D == 1 else QuadChar(D)
    ours = lfun.LS(1 - n, chi, PlaceSet.of(*(chi.support if chi else ())), digits=40)
    exact = -_generalized_bernoulli(n, D) / n
    if exact == 0:
        assert ours == 0 if n > 1 else abs(ours) <= mpf("1e-38"), (D, n)
    else:
        with mp.workdps(60):
            ref = mpf(exact.numerator) / exact.denominator
            assert abs(ours - ref) <= mpf("1e-38") * abs(ref), (D, n)
    lfun.clear_cache()
