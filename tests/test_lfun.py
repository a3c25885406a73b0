"""Partial L-functions: special values, Laurent data, derivatives.

Expected values below were frozen from independent oracles: closed forms
(pi^2/6, pi/4), direct alternating sums (the L(2,chi_-4) constant), and
published digits of the Euler-Mascheroni and first Stieltjes constants.
"""
from fractions import Fraction

import numpy as np
import pytest
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


def test_precision_config_validation():
    with pytest.raises(ValueError):
        lfun.PrecisionConfig(working_digits=10)
    cfg = lfun.PrecisionConfig()
    assert cfg.working_digits == 30


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
    lfun.LS(mpf(3) / 2, QuadChar(-4), S2)
    lfun.laurent_at_1(None, S2)
    lfun.hurwitz(2, mpf(1) / 3)
    module_dicts = {id(v) for k, v in vars(lfun).items()
                    if isinstance(v, dict) and not k.startswith("__")}
    assert module_dicts == {id(m) for m in lfun._MEMOS}
    assert all(lfun._MEMOS)
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


def test_small_initial_N_doubles_and_converges(monkeypatch):
    with mp.workdps(40):
        N, M = lfun._em_plan(mpf(1), Fraction(1, 4), N=2)
    assert N > 2 and N & (N - 1) == 0 and M <= lfun._MAX_BERNOULLI_TERMS
    lfun.clear_cache()
    monkeypatch.setattr(lfun, "_initial_terms", lambda s: 2)
    try:
        with mp.workdps(40):
            assert abs(lfun.LS(1, QuadChar(-4), S2) - mp.pi / 4) < mpf("1e-38")
            assert abs(lfun.stieltjes_gamma(0, 35) - mpf(GAMMA0_STR)) < mpf("1e-38")
    finally:
        lfun.clear_cache()


def test_em_plan_gives_up():
    with mp.workprec(20_000), pytest.raises(RuntimeError, match="did not converge"):
        lfun._em_plan(mpf(1), 1, N=1)
