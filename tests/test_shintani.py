"""Shintani zeta function: class-number machinery, truncated sums, pole data.

Oracles: published class numbers are re-derived here through the L-value
route; fundamental units are verified in place by their norm equations and
(for small discriminants) by brute-force Pell search before being compared
with the cycle-product regulator.
"""
import ast
import functools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import isqrt
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from tracecoef.arith import PlaceSet, kronecker, primes_up_to, sclass_reps, spf_table
from tracecoef.characters import (
    QuadChar,
    conductor_outside,
    disc_classes,
    fundamental_discriminant_of,
    is_fundamental_discriminant,
)
import l1cache
import tracecoef
from tracecoef import lfun
from tracecoef import shintani
from tracecoef.cli import JsonlCache
from tracecoef.shintani import (
    _l1_class_number_bulk,
    _reduced_form_sums,
    build_terms,
    class_data_real,
    class_number_imag,
    euler_assembly_check,
    l1_class_number,
    l1_smoothed,
    residue_exact_value,
    shintani_run,
    w_disc,
)

S2 = PlaceSet.of(2)

# class numbers of imaginary quadratic fields (standard published table;
# re-verified against the Dirichlet L-value in test_imag_class_numbers)
H_IMAG = {-3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -19: 1, -20: 2,
          -23: 3, -24: 2, -31: 3, -35: 2, -39: 4, -40: 2, -43: 1,
          -47: 5, -52: 2, -71: 7, -84: 4, -163: 1}

# fundamental units eps = (t + u sqrt(D))/2 of real quadratic fields,
# as (D, t, u); each entry is verified by its norm equation below
UNITS_REAL = [(5, 1, 1), (8, 2, 1), (12, 4, 1), (13, 3, 1), (17, 8, 2),
              (21, 5, 1), (24, 10, 2), (28, 16, 3), (29, 5, 1), (33, 46, 8),
              (40, 6, 1), (44, 20, 3), (61, 39, 5)]


def test_imag_class_numbers():
    for D, h in H_IMAG.items():
        assert class_number_imag(D) == h, D
        # dual route: h = w sqrt(|D|) L(1,chi_D) / (2 pi) with the Hurwitz L
    for D in (-4, -15, -23, -84):
        S = PlaceSet.of(*QuadChar(D).support)
        L = float(lfun.LS(1, QuadChar(D), S))
        h_from_L = w_disc(D) * math.sqrt(-D) * L / (2 * math.pi)
        assert abs(h_from_L - H_IMAG[D]) < 1e-8


def brute_pell4(D, u_cap=500):
    """Minimal (t,u), u >= 1, with t^2 - D u^2 = 4."""
    for u in range(1, u_cap):
        t2 = 4 + D * u * u
        t = math.isqrt(t2)
        if t * t == t2:
            return t, u
    raise AssertionError(f"no Pell solution found for D={D}")


def test_real_units_and_regulator():
    for D, t, u in UNITS_REAL:
        norm = t * t - D * u * u
        assert norm in (4, -4), (D, t, u)  # the table entry is a unit
        eps = (t + u * math.sqrt(D)) / 2
        log_eps_plus = math.log(eps) * (2 if norm == -4 else 1)
        h_plus, log_eps_cycle = class_data_real(D)
        assert abs(log_eps_cycle - log_eps_plus) < 1e-9, D
        # brute Pell cross-check of the totally positive unit
        tp, up = brute_pell4(D)
        assert abs(math.log((tp + up * math.sqrt(D)) / 2) - log_eps_plus) < 1e-9


def test_regulator_same_on_every_cycle():
    """h+ > 1 fields: the cycle product is class-independent."""
    from tracecoef.shintani import _reduced_indefinite_forms, _rho_step

    for D in (40, 60, 65, 105, 220):
        if not is_fundamental_discriminant(D):
            continue
        forms = _reduced_indefinite_forms(D)
        sq = math.isqrt(D)
        sqf = math.sqrt(D)
        remaining = set(forms)
        regs = []
        while remaining:
            start = min(remaining)
            f, total = start, 0.0
            while True:
                total += math.log((f[1] + sqf) / (2 * abs(f[0])))
                remaining.discard(f)
                f = _rho_step(f, D, sq)
                if f == start:
                    break
            regs.append(total)
        assert max(regs) - min(regs) < 1e-9, D


def test_l1_positive_and_methods_agree():
    for D in (-3, -4, -8, -20, -84, 5, 8, 13, 40, 136, 205, -407, 761):
        if not is_fundamental_discriminant(D):
            continue
        a = l1_class_number(D)
        b = l1_smoothed(D)
        assert a > 0
        assert abs(a - b) < 1e-10 * max(1, a), D


@pytest.mark.parametrize("alpha, S", [(-1, S2), (2, S2), (-1, PlaceSet.of(2, 3))], ids=str)
def test_l1_smoothed_agrees_over_whole_term_sets(alpha, S):
    """The incomplete-gamma route, independent of the class numbers, agrees
    with the bulk class number formula at every D of a run's terms."""
    D = build_terms(alpha, S, 2000).D
    bulk = _l1_class_number_bulk(D)
    for k, L in zip(D.tolist(), bulk.tolist()):
        assert abs(l1_smoothed(k) - L) < 1e-10 * max(1, L), k


def test_l1_high_precision_variant():
    with mp.workdps(35):
        assert abs(l1_class_number(-4, digits=30) - mp.pi / 4) < mpf("1e-28")


def _xi(s, alpha, S, X):
    """Truncated xi^S(s; alpha), s > 3/2: the terms of build_terms,
    L^S(1,chi_d)/(L^S(2s,chi_d) N_d^(s-1/2)), times zeta^S(2s-1) zeta^S(2s)/
    zeta^S(2) from lfun."""
    terms = build_terms(alpha, S, X)
    L2s = shintani._l2s_values(terms.D, S, 2 * s)
    pref = float(lfun.zetaS(2 * s - 1, S) * lfun.zetaS(2 * s, S) / lfun.zetaS(2, S))
    return pref * float(np.add.reduce(terms.L1S / (L2s * terms.N ** (s - 0.5))))


def test_xi_below_bound_is_zero():
    # X below the smallest admissible |D| leaves an empty sum
    assert _xi(2.0, -1, S2, 3) == 0.0


def test_xi_single_term_vs_lfun_oracle():
    """X=5 keeps only d=-1; compare against the assembled L-value formula."""
    xi = _xi(2.0, -1, S2, 5)
    pref = float(lfun.zetaS(3, S2) * lfun.zetaS(4, S2) / lfun.zetaS(2, S2))
    term = float(lfun.LS(1, QuadChar(-4), S2) / lfun.LS(4, QuadChar(-4), S2))
    assert abs(xi - pref * term) < 1e-9
    # beta(4) factor from the direct alternating sum
    k = np.arange(100000, dtype=np.float64)
    beta4 = float(np.add.reduce((-1.0) ** k / (2 * k + 1) ** 4))
    assert abs(float(lfun.LS(4, QuadChar(-4), S2)) - beta4) < 1e-12


def test_xi_monotone_in_X():
    lo = _xi(1.8, -1, S2, 2000)
    hi = _xi(1.8, -1, S2, 8000)
    assert hi >= lo > 0


def test_xi_rejects_bad_inputs():
    """xi^S needs 2 in S: its terms are refused without it."""
    with pytest.raises(ValueError):
        build_terms(-1, PlaceSet.of(3), 100)


def test_positivity_of_summands():
    terms = build_terms(-1, S2, 4000)
    assert len(terms) and (terms.L1S > 0).all()


def test_residue_exact_targets():
    assert residue_exact_value(S2) == Fraction(1, 8)
    assert residue_exact_value(PlaceSet.of()) == Fraction(1, 2)
    assert residue_exact_value(PlaceSet.of(2, 3)) == Fraction(1, 24)


def test_residue_estimate_and_alpha_independence():
    X = 2 * 10**4
    r1, r2 = shintani_run(-1, S2, X), shintani_run(2, S2, X)
    est1, exact, err1 = r1.residue_estimate, r1.residue_exact, r1.residue_error
    est2, err2 = r2.residue_estimate, r2.residue_error
    assert exact == Fraction(1, 8)
    assert abs(est1 - 0.125) / 0.125 < 0.05
    assert abs(est2 - 0.125) / 0.125 < 0.05
    assert abs(est1 - est2) <= err1 + err2


def test_residue_partial_scaled_increases_toward_target():
    """eps * xi^S(3/2+eps) grows toward the exact residue as X grows."""
    eps = 0.1
    vals = [eps * _xi(1.5 + eps, -1, S2, X) for X in (2000, 8000, 32000)]
    assert vals[0] < vals[1] < vals[2] < 0.125 * 1.02


def test_constant_stable_under_X_growth():
    """Tail-model oracle: growing X by 4x moves the estimate by <= 2%."""
    v1 = shintani_run(-1, S2, X=1500 * 10).constant_CF
    v2 = shintani_run(-1, S2, X=6000 * 10).constant_CF
    assert abs(v1 - v2) <= 0.02 * abs(v2)


def test_constant_invariant_under_representative_change():
    X = 2 * 10**4
    v1 = shintani_run(-1, S2, X).constant_CF
    v2 = shintani_run(Fraction(-9, 49), S2, X).constant_CF  # same class
    assert abs(v1 - v2) <= 1e-12  # identical class data, identical sum


def test_tail_block_selfcheck():
    """The tail model fitted on all terms predicts the measured sum of
    b_d/N_d over X/2 < |D| <= X: int (kappa + c/(2 sqrt(t))) dt/t between the
    least N there and N_max."""
    X = 4 * 10**4
    terms = build_terms(-1, S2, X)
    L3 = shintani._l2s_values(terms.D, S2, 3.0)
    N, b = terms.N.astype(np.float64), terms.L1S / L3
    fit = shintani._fit_tail(N, np.cumsum(b), _kappa_star(S2))
    half = np.abs(terms.D) > X / 2
    measured = float(np.add.reduce((b / N)[half]))
    lo, hi = float(N[half].min()), fit["N_max"]
    model = fit["kappa_hat"] * math.log(hi / lo) + fit["c_hat"] * (lo**-0.5 - hi**-0.5)
    assert 0.8 <= measured / model <= 1.25


def test_shintani_run_shape():
    X = 10**4
    res = shintani_run(2, S2, X)
    assert set(res.diagnostics) == {"n_terms", "kappa_star", "kappa_hat"}
    assert res.residue_exact == Fraction(1, 8)
    assert res.residue_estimate > 0
    assert res.constant_error > 0


def test_pole_constants_against_mpmath():
    """The three float constants are mpmath's zeta(3) and zeta'/zeta at 2 and
    3 rounded to float64; P(3/2) and P'(3/2) agree with lfun.zetaS and
    lfun.deriv_LS at 30 digits."""
    with mp.workdps(30):
        assert shintani._ZETA_3 == float(mp.zeta(3))
        for x, got in ((2, shintani._DLOG_ZETA_2), (3, shintani._DLOG_ZETA_3)):
            assert got == float(mp.zeta(x, derivative=1) / mp.zeta(x)), x
        for S in (S2, PlaceSet.of(2, 3), PlaceSet.of(2, 3, 5, 7)):
            P, dP = shintani._pole_prefactor(S)
            z3 = lfun.zetaS(3, S, 30)
            dlog = sum(lfun.deriv_LS(x, None, S, 30) / lfun.zetaS(x, S, 30) for x in (2, 3))
            assert abs(P - z3) <= 4e-16 * z3, S
            assert abs(dP - 2 * z3 * dlog) <= 1e-15 * abs(dP), S


def test_pole_prefactor_derivative_against_mp_diff():
    """P'(3/2) against mpmath's numerical derivative of P(s) = zeta^S(2s-1)
    zeta^S(2s)/zeta^S(2), built from lfun.zetaS at 30 digits; the step 1e-10
    keeps the central difference's rounding near 1e-20 (mp.diff's default
    step assumes more digits than lfun.zetaS returns)."""
    for S in (S2, PlaceSet.of(2, 3)):
        with mp.workdps(30):
            want = mp.diff(lambda s: lfun.zetaS(2 * s - 1, S, 30) * lfun.zetaS(2 * s, S, 30)
                           / lfun.zetaS(2, S, 30), mpf(3) / 2, h=mpf("1e-10"))
        assert abs(shintani._pole_prefactor(S)[1] - float(want)) <= 1e-14 * abs(want), S


def _mean_E(eps, primes):
    """E(eps) = prod_p E_p(eps) as written: E_p = [f(0) + (p/2)(f(1) + f(-1))]/
    (p + 1), f(c) = (1 - c p^(-3-2eps))/(1 - c/p)."""
    out = mpf(1)
    for p in map(int, primes):
        def f(c):
            return (1 - c * mpf(p) ** (-3 - 2 * eps)) / (1 - mpf(c) / p)
        out *= (f(0) + mpf(p) / 2 * (f(1) + f(-1))) / (p + 1)
    return out


@pytest.mark.parametrize("S, want", [(S2, 0.027503), (PlaceSet.of(2, 3), 0.0063758)], ids=str)
def test_dlog_mean_against_finite_difference(S, want):
    """E'(0)/E(0) against a central difference of log E(eps) at 30 digits,
    over the primes of L^S(3)."""
    primes = shintani._chi_table(S.primes)[0]
    with mp.workdps(30):
        h = mpf("1e-10")
        fd = float((mp.log(_mean_E(h, primes)) - mp.log(_mean_E(-h, primes))) / (2 * h))
    got = shintani._dlog_mean(S.primes)
    assert abs(got - fd) <= 1e-13 * fd
    assert abs(got - want) <= 1e-6


@pytest.mark.parametrize("alpha, at_1e8", [(-1, 0.435633), (2, 0.257575)])
def test_constant_against_large_X(alpha, at_1e8):
    """At S = {oo,2} and X = 1e5 the constant lies within 5e-4 of the direct
    value at X = 1e8, and its error bar covers the move to X = 1e6."""
    r5 = shintani_run(alpha, S2, X=10**5)
    assert abs(r5.constant_CF - at_1e8) <= 5e-4
    r6 = shintani_run(alpha, S2, X=10**6)
    assert abs(r6.constant_CF - r5.constant_CF) <= r5.constant_error


def test_shintani_run_calls_no_lfun(monkeypatch):
    """P(3/2) and P'(3/2) come from float constants, so the pole data runs
    with every lfun entry point broken (a CLI document starts with lfun's
    memo cleared, where one deriv_LS call costs about 1 ms)."""
    def broken(*args, **kwargs):
        raise AssertionError("lfun called")

    for name in ("LS", "deriv_LS", "zetaS", "laurent_at_1", "hurwitz", "stieltjes_gamma"):
        monkeypatch.setattr(lfun, name, broken)
    assert shintani_run(-1, PlaceSet.of(2, 3), X=10**4).constant_error > 0


def test_residue_flags_a_kappa_outside_its_bar():
    """The residue error is P (kappa_stderr + twice the prefix spread of
    kappa_hat), and the flag is raised exactly when P kappa_hat misses
    P kappa_star by more than that."""
    full = {"kappa_hat": 0.12, "kappa_stderr": 1e-4, "kappa_star": 0.1188}
    fits = [full, dict(full, kappa_hat=0.1202), dict(full, kappa_hat=0.1199)]
    est, err, unstable = shintani.residue_at_pole(fits, 2.0)
    assert est == 0.24 and abs(err - 2 * 5e-4) <= 1e-15 and unstable
    fits[1]["kappa_hat"] = 0.1206  # twice the spread now reaches kappa_star
    est, err, unstable = shintani.residue_at_pole(fits, 2.0)
    assert abs(err - 2 * 1.3e-3) <= 1e-15 and not unstable


@pytest.mark.parametrize("X", [5 * 10**4, 10**5])
def test_residue_bar_covers_the_pool_alphas(X):
    """The alphas of the perfbench shintani pools: the residue bar covers the
    miss of P kappa_hat at X = 5e4 and 1e5.  With the bare prefix spread it
    fell short for alpha -1 at {oo,2,3} (a miss of 1.61e-2 kappa* against a
    bar of 0.90e-2 kappa* at 5e4, 1.29e-2 against 1.15e-2 at 1e5) and alpha
    -5 at {oo,2} (7.1e-3 against 4.4e-3 at 5e4): the free fit leans the same
    way on every prefix there."""
    for S, alphas in ((S2, (-1, -5, 2, 6, 10, 14)), (PlaceSet.of(2, 3), (-1, -5, -13))):
        for alpha in alphas:
            res = shintani_run(alpha, S, X=X)
            miss = abs(res.residue_estimate - float(res.residue_exact))
            assert miss <= res.residue_error and not res.unstable, (S, alpha)


@pytest.mark.parametrize("S", [S2, PlaceSet.of(2, 3), PlaceSet.of(2, 5)], ids=str)
def test_l2s_values_against_product(S):
    """L^S(2s, chi_D) against the direct product 1/prod_p (1 - chi_D(p) p^-2s)
    over the odd p <= _L2S_PRIME_BOUND outside S, with chi_D(p) from _kron_at_prime's
    columns (each prime's own Legendre table, not the one table of all the
    primes that _l2s_values reads at its offsets), for D < 0 and D > 0, over
    several columns of D."""
    primes = [p for p in primes_up_to(shintani._L2S_PRIME_BOUND).tolist() if p not in S.primes]
    assert shintani._chi_table(S.primes)[0].tolist() == primes
    pf = np.array(primes, dtype=np.float64)
    for alpha in (-1, 2):
        D = build_terms(alpha, S, 4 * 10**5 if S == S2 else 5 * 10**4).D
        chi = np.stack([shintani._kron_at_prime(D, p) for p in primes], axis=1)
        for t in (3.0, 3.4):
            got = shintani._l2s_values(D, S, t)
            want = 1.0 / np.prod(1.0 - chi * pf**-t, axis=1)
            assert got.shape == D.shape
            assert np.all(np.abs(got - want) <= 1e-14 * want), (alpha, t)
        if S == S2 and alpha == -1:
            assert len(D) > shintani._L2S_COLS  # several columns


@pytest.mark.parametrize("two_s", [3.0, 3.4])
def test_l2s_truncation_bound(two_s):
    """The Euler factors that _l2s_values leaves out, those of the primes
    P = _L2S_PRIME_BOUND < p <= 20 000, stay within its stated bound
    P^(1-2s)/((2s-1)(1-P^-2s)) in logs."""
    P = shintani._L2S_PRIME_BOUND
    bound = P ** (1 - two_s) / ((two_s - 1) * (1 - P**-two_s))
    terms = build_terms(-1, S2, 10**4)
    assert shintani._chi_table(S2.primes)[0].max() <= P
    primes = np.array([p for p in primes_up_to(20000) if p > P])
    chi = np.stack([shintani._kron_at_prime(terms.D, int(p)) for p in primes], axis=1)
    gap = np.abs(np.log1p(-chi * primes.astype(float) ** -two_s).sum(axis=1))
    assert gap.max() <= bound
    assert gap.max() >= bound / 100  # the bound is not vacuous


def _clear_prime_caches():
    for cached in (shintani._chi_table, shintani._log_table, shintani._dlog_mean):
        cached.cache_clear()


@pytest.fixture
def prime_bound_600(monkeypatch):
    """_L2S_PRIME_BOUND = 600 with the tables of its primes; the caches are
    cleared on the way in and out, so no other test reads a 600-prime table."""
    _clear_prime_caches()
    monkeypatch.setattr(shintani, "_L2S_PRIME_BOUND", 600)
    yield
    monkeypatch.undo()
    _clear_prime_caches()


def test_pole_data_at_200_primes_against_600(prime_bound_600):
    """Stopping L^S(3) and E'(0)/E(0) at p <= 200 instead of 600 moves C_F by
    at most 2e-7 and the residue estimate by at most 1e-8 at X = 1e5: a fixed
    truncation bias far below the bars."""
    cases = [(-1, S2), (2, S2), (6, S2), (-1, PlaceSet.of(2, 3))]
    at_600 = [shintani_run(alpha, S, X=10**5) for alpha, S in cases]
    shintani._L2S_PRIME_BOUND = 200
    _clear_prime_caches()
    for (alpha, S), old in zip(cases, at_600):
        new = shintani_run(alpha, S, X=10**5)
        assert abs(new.constant_CF - old.constant_CF) <= 2e-7, (alpha, S)
        assert abs(new.residue_estimate - old.residue_estimate) <= 1e-8, (alpha, S)
        assert new.constant_CF != old.constant_CF  # the bound took effect


def test_exp_small_against_mpmath():
    """The Horner polynomial of _l2s_values is within 2 ulp of exp on 10^4
    points of (-2^-3, 2^-3), the edges included."""
    x = np.random.default_rng(3).uniform(-0.125, 0.125, 10**4)
    x[:2] = np.nextafter(np.array([-0.125, 0.125]), 0.0)
    got = shintani._exp_small(x)
    with mp.workprec(200):
        want = np.array([float(mp.exp(mpf(v))) for v in x.tolist()])
    assert np.all(np.abs(got - want) <= 2 * np.spacing(want))


@pytest.mark.parametrize("S", [S2, PlaceSet.of(2, 3)], ids=str)
@pytest.mark.parametrize("two_s", [3.0, 3.4])
def test_log_table_against_mpmath(S, two_s):
    """Each entry of _log_table is a multiple of 2^-56 within 2^-57 of the log
    Euler factor at 200 bits: log1p(-chi p^-2s) at chi = (r/p), r = D mod p."""
    primes, table, off = shintani._chi_table(S.primes)
    logtab = shintani._log_table(S.primes, two_s)
    assert logtab.shape == table.shape and not logtab.flags.writeable
    assert np.array_equal(np.rint(logtab * 2.0**56) * 2.0**-56, logtab)
    with mp.workprec(200):
        for p, o in zip(primes.tolist(), off.tolist()):
            exact = {c: mp.log1p(-c * mpf(p) ** -mpf(two_s)) for c in (-1, 0, 1)}
            for r in range(p):
                c = int(table[o + r])
                assert abs(mpf(float(logtab[o + r])) - exact[c]) <= mpf(2) ** -57, (p, r)


def test_l2s_values_do_not_depend_on_block_size(monkeypatch):
    """The rounded log factors make every partial sum of the log L^S(2s) sums
    exact, so neither the primes per block (_CHI_BLOCK: 1, 7, 3 len(D), 2^30)
    nor the column width (_L2S_COLS, with the summation order they set)
    moves a bit, for D of both signs: the widths 1000, 8192 and 2^30 on 11400 D,
    3 and 100 on every 25th of them and 1 on every 100th."""
    D = np.concatenate([build_terms(-1, S2, 4 * 10**5).D, build_terms(2, S2, 10**5).D])
    assert len(D) > shintani._L2S_COLS
    for two_s in (3.0, 3.4):
        want = shintani._l2s_values(D, S2, two_s)
        for block in (1, 7, 3 * len(D), 1 << 30):
            for cols, sub in ((1000, 1), (1 << 13, 1), (1 << 30, 1), (1, 100), (3, 25), (100, 25)):
                monkeypatch.setattr(shintani, "_CHI_BLOCK", block)
                monkeypatch.setattr(shintani, "_L2S_COLS", cols)
                got = shintani._l2s_values(D[::sub], S2, two_s)
                assert np.array_equal(got, want[::sub]), (two_s, block, cols)


def test_l2s_values_do_not_depend_on_order():
    """Each D's value is its own column's sum: reversing the D reverses the
    values, bit for bit, and a D's value does not depend on its neighbours."""
    D = build_terms(-1, PlaceSet.of(2, 3), 10**5).D
    want = shintani._l2s_values(D, PlaceSet.of(2, 3), 3.0)
    assert np.array_equal(shintani._l2s_values(D[::-1], PlaceSet.of(2, 3), 3.0), want[::-1])
    assert np.array_equal(shintani._l2s_values(D[1::2], PlaceSet.of(2, 3), 3.0), want[1::2])


def test_l2s_values_hold_no_matrix():
    """The peak traced memory of L^S(3) on 2^17 discriminants stays below 32
    bytes per discriminant + 2 MB: the values and one block, not a matrix
    of chi_D(p) (108 bytes per discriminant at {oo,2} in int8)."""
    rng = np.random.default_rng(7)
    D = -rng.integers(3, 10**7, 1 << 17)
    shintani._l2s_values(D[:10], S2, 3.0)  # the per-S table, outside the count
    tracemalloc.start()
    try:
        shintani._l2s_values(D, S2, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * len(D) + (2 << 20), peak


def _kappa_star(S):
    """R/P(3/2), the tail slope that shintani_run pins."""
    return float(shintani.residue_exact_value(S)) / shintani._pole_prefactor(S)[0]


def _lstsq_tail_fit(terms, L3):
    """The fields of _fit_tail by LAPACK: lstsq for the coefficients, the
    inverse of the Gram matrix for kappa's standard error."""
    N = terms.N.astype(np.float64)
    A = np.cumsum(terms.L1S / L3)
    mask = N >= N[-1] / 4
    t, y = N[mask], A[mask]
    M = np.column_stack([t, np.sqrt(t)])
    coef = np.linalg.lstsq(M, y, rcond=None)[0]
    resid = y - M @ coef
    sigma2 = float(resid @ resid) / (len(t) - 2)
    return {"kappa_hat": coef[0], "c_hat": coef[1], "fit_rms": math.sqrt(sigma2),
            "kappa_stderr": math.sqrt(sigma2 * np.linalg.inv(M.T @ M)[0, 0])}


def _tail_fit_case(case):
    """(terms, L3, kappa_star) of a perfbench pool at X = 1e4, or of
    synthetic data whose true slope is 0.3, pinned at 0.29."""
    if case.startswith("synthetic"):
        terms = _synthetic_terms(int(case[-1]))
        return terms, np.ones(len(terms)), 0.29
    alpha, S = case.split(":")
    S = PlaceSet.of(*map(int, S.split(",")))
    terms = build_terms(int(alpha), S, 10**4)
    return terms, shintani._l2s_values(terms.D, S, 3.0), _kappa_star(S)


def _fit_tail_of(terms, L3, kappa_star):
    """_fit_tail on all the terms."""
    return shintani._fit_tail(terms.N.astype(np.float64), np.cumsum(terms.L1S / L3), kappa_star)


_TAIL_FIT_CASES = ["-1:2", "2:2", "-1:2,3", "synthetic0", "synthetic1", "synthetic2"]


def _synthetic_terms(seed):
    """Terms whose running sum is 0.3 t + 2 sqrt(t) + noise at 400 sorted N."""
    rng = np.random.default_rng(seed)
    N = np.sort(rng.integers(1, 10**6, 400))
    A = 0.3 * N + 2.0 * np.sqrt(N) + rng.normal(0, 5, len(N))
    return shintani.Terms(N, N, N, np.diff(A, prepend=0.0))


@pytest.mark.parametrize("case", _TAIL_FIT_CASES)
def test_fit_tail_against_lstsq(case):
    """The closed-form tail fit against LAPACK's least squares, on the terms
    of the three perfbench pools at X = 1e4 and on synthetic data.  c, the
    coefficient the nearly parallel columns leave ill-conditioned, gets a
    looser bound; the rms and the standard error carry the cancellation of
    residuals about 1e-5 of A."""
    terms, L3, kappa_star = _tail_fit_case(case)
    got, want = _fit_tail_of(terms, L3, kappa_star), _lstsq_tail_fit(terms, L3)
    for key, tol in (("kappa_hat", 1e-14), ("c_hat", 1e-12), ("fit_rms", 1e-11),
                     ("kappa_stderr", 1e-11)):
        assert abs(got[key] - want[key]) <= tol * abs(want[key]), key


@pytest.mark.parametrize("case", _TAIL_FIT_CASES)
def test_pinned_fit_tail_against_lstsq(case):
    """The pinned tail fit, kappa = kappa_star, against LAPACK's least
    squares on the single column sqrt(t): c_star."""
    terms, L3, kappa_star = _tail_fit_case(case)
    got = _fit_tail_of(terms, L3, kappa_star)
    N = terms.N.astype(np.float64)
    mask = N >= N[-1] / 4
    t, y = N[mask], (np.cumsum(terms.L1S / L3) - kappa_star * N)[mask]
    col = np.sqrt(t)[:, None]
    c = np.linalg.lstsq(col, y, rcond=None)[0]
    assert got["kappa_star"] == kappa_star
    assert abs(got["c_star"] - c[0]) <= 1e-13 * abs(c[0])


def test_src_calls_no_lapack():
    """No np.linalg and no np.dot in src/tracecoef: the pole data sums in a
    fixed order, and its bytes do not depend on the BLAS or LAPACK kernel."""
    root = os.path.dirname(tracecoef.__file__)
    found = []
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            found += [f"{name}:{node.lineno} {node.attr}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr in ("linalg", "dot")]
    assert found == []


def test_shintani_document_leaves_scipy_unloaded():
    """The class-number route of a shintani document never imports scipy
    (scipy.special alone adds about 23 MB of resident memory)."""
    code = ("import sys, tracecoef.cli as c; c.main(['shintani', '--X', '2000', '--json']); "
            "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    src = os.path.dirname(os.path.dirname(tracecoef.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("TRACECOEF_CACHE", None)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
    assert out.returncode == 0, out.stderr


def test_config_validation():
    with pytest.raises(ValueError, match="at least 10\\^3"):
        shintani_run(-1, S2, X=100)


def test_euler_assembly_paths():
    A, B = euler_assembly_check(-1, 2.0, S2, X=10**6)
    assert abs(A - B) < 1e-6
    # trivial twist reproduces the single-class summand of xi
    A, B = euler_assembly_check(-1, 2.0, S2, X=10**6, twist="trivial")
    assert abs(A - B) < 1e-6
    assert abs(B - _xi(2.0, -1, S2, 5)) < 1e-8
    # character ramified outside S: the twisted global object vanishes
    assert euler_assembly_check(-3, 2.0, S2) == (0.0, 0.0)


def test_euler_assembly_trivial_twist_ramified_outside_S():
    """d = -3 at {oo,2}: 3 ramifies outside S, so the local factor at 3
    carries 3^{-(s-1/2)} (3^-1.5 at s = 2), and the product of the local
    factors is the single summand of xi at X = 3."""
    A, B = euler_assembly_check(-3, 2.0, S2, X=10**6, twist="trivial")
    assert abs(A - B) < 1e-6 * B
    assert abs(B - _xi(2.0, -3, S2, 3)) < 1e-8 * B


class DictCache:
    """The bulk interface of cli.JsonlCache, counting hits and batches."""

    def __init__(self):
        self.stored = {}
        self.hits = 0
        self.batches = 0

    def lookup_l1(self, Ds):
        recs = [self.stored.get(D) for D in Ds]
        self.hits += sum(rec is not None for rec in recs)
        return [math.nan if rec is None else rec["L1"] for rec in recs]

    def store_l1(self, Ds, L1s, digits):
        self.batches += 1
        for D, L1 in zip(Ds, L1s):
            self.stored[D] = {"D": D, "L1": L1, "digits": digits}


def test_cache_consumed_and_filled():
    """The misses are stored in one batch; a second pass only reads."""
    c = DictCache()
    build_terms(-1, S2, 4000, cache=c)
    assert c.stored and c.hits == 0 and c.batches == 1
    n = len(c.stored)
    build_terms(-1, S2, 4000, cache=c)
    assert c.hits == n and c.batches == 1


def test_cache_record_of_other_method_not_served(tmp_path, capsys):
    """A batch of smoothed-character-sum records, as a cache of another
    method would write it, later and with more digits than the class-number
    record of its D, is never served nor held: its magic is not the cache's,
    so it is skipped with one warning, and put refuses such a record."""
    path = tmp_path / "cache.bin"
    smoothed = {"D": -4, "L1": 0.5, "digits": 20, "method": "smoothed-character-sum"}
    other = l1cache.batch([(-4, 0.5, 20)]).replace(l1cache.METHOD.encode(),
                                                   b"smoothed-character-sum")
    path.write_bytes(l1cache.batch([(-4, 123.0, 15)]) + other)
    c = JsonlCache(str(path))
    L1 = c.lookup_l1([-4, -3])
    assert L1[0] == 123.0 and math.isnan(L1[1])
    assert c.get(-4) == {"D": -4, "L1": 123.0, "digits": 15, "method": "class-number-formula"}
    assert capsys.readouterr().err == "warning: skipping 1 corrupt or cut-short L(1) cache batches\n"
    data = path.read_bytes()
    with pytest.raises(ValueError):
        c.put(smoothed)
    assert path.read_bytes() == data and c.get(-4)["L1"] == 123.0
    terms = build_terms(-1, S2, 2000, cache=c)
    (L1S,) = terms.L1S[terms.D == -4]  # chi_-4(2) = 0: L^S(1) = L(1)
    assert L1S == 123.0


def test_build_terms_rejects_out_of_int32_range(monkeypatch):
    """|D| >= 2^31 is refused before the form enumeration."""
    big = SimpleNamespace(entries=[-1, -(2**29 + 1)])  # D = 4d = -(2^31 + 4)
    monkeypatch.setattr(shintani, "disc_classes", lambda *a, **k: big)
    with pytest.raises(ValueError, match="2\\^31"):
        build_terms(-1, S2, 10**4)


def test_residue_alpha_independent_across_all_classes():
    """The pole datum does not depend on the square class (sampled over all
    sixteen classes at a reduced bound)."""
    from tracecoef.arith import sclass_reps

    X = 10**4
    exact = float(residue_exact_value(S2))
    for rep in sclass_reps(S2):
        est = shintani_run(rep.value, S2, X).residue_estimate
        assert abs(est - exact) < 0.12 * exact, (rep.value, est)


def test_constant_same_for_distinct_squarefree_reps_of_class():
    """-17 and -1 are distinct squarefree integers in one S-square class
    over {oo,2}; the enumerated class data and the constant coincide."""
    t1 = build_terms(-1, S2, 8000)
    t2 = build_terms(-17, S2, 8000)
    assert t1.d.tolist() == t2.d.tolist() and t1.N.tolist() == t2.N.tolist()
    X = 2 * 10**4
    v1 = shintani_run(-1, S2, X).constant_CF
    v2 = shintani_run(-17, S2, X).constant_CF
    assert v1 == v2


def test_bulk_class_numbers_imag():
    """The strided reduced-form count equals the per-D count at every
    fundamental D < 0 with |D| <= 2*10^4."""
    X = 2 * 10**4
    spf = spf_table(X)
    Ds = [D for D in range(-X, 0) if is_fundamental_discriminant(D)]
    h = _reduced_form_sums(np.array(Ds, dtype=np.int64))
    assert len(Ds) > 6000
    assert [int(x) for x in h] == [class_number_imag(D, spf) for D in Ds]


def test_bulk_regulators_real():
    """2 * sum over reduced triples of log((b+sqrt D)/2a) equals the cycle
    count times the cycle-product regulator, for every fundamental
    0 < D <= 2*10^4."""
    X = 2 * 10**4
    spf = spf_table(X)
    Ds = [D for D in range(2, X + 1) if is_fundamental_discriminant(D)]
    bulk = _reduced_form_sums(np.array(Ds, dtype=np.int64))
    for D, got in zip(Ds, bulk):
        h_plus, log_eps = class_data_real(D, spf)
        want = h_plus * log_eps
        assert abs(got - want) <= 1e-13 * want, D


@functools.lru_cache(maxsize=None)
def _oracle_table(X: int) -> dict:
    """D -> h(D) (D < 0) or h+ log(eps+) (D > 0) for every fundamental
    discriminant 0 < |D| <= X, one discriminant at a time."""
    spf = spf_table(X)
    out = {}
    for D in range(-X, X + 1):
        if D < 0 and is_fundamental_discriminant(D):
            out[D] = class_number_imag(D, spf)
        elif D > 1 and is_fundamental_discriminant(D):
            h_plus, log_eps = class_data_real(D, spf)
            out[D] = h_plus * log_eps
    return out


def _assert_form_sums_match(Ds, X):
    table = _oracle_table(X)
    got = _reduced_form_sums(np.array(Ds, dtype=np.int64))
    for D, g in zip(Ds, got.tolist()):
        assert (g == table[D]) if D < 0 else abs(g - table[D]) <= 1e-13 * table[D], D


@st.composite
def disc_subsets(draw):
    """Subsets of the fundamental discriminants of one sign with |D| <= 5000:
    one residue class, a few, or all of them mod 2^j, 3 2^j or 5 2^j, thinned
    at random, so that the stride takes an odd prime or declines it."""
    sign, bound = draw(st.sampled_from((-1, 1))), draw(st.integers(50, 5000))
    pool = [D for D in _oracle_table(5000) if D * sign > 0 and abs(D) <= bound]
    M = draw(st.sampled_from((1, 3, 5))) * draw(st.sampled_from((2, 4, 8, 16, 32, 64)))
    present = sorted({abs(D) % M for D in pool})
    pattern = draw(st.sampled_from(("one", "few", "dense")))
    if pattern == "one":
        keep = {draw(st.sampled_from(present))}
    elif pattern == "few":
        keep = set(draw(st.lists(st.sampled_from(present), min_size=1, max_size=3)))
    else:
        keep = set(present)
    rng = random.Random(draw(st.integers(0, 2**32)))
    thin = draw(st.sampled_from((1.0, 0.5, 0.05)))
    sub = [D for D in pool if abs(D) % M in keep and rng.random() < thin]
    return sub or [pool[-1]]


@settings(max_examples=80, deadline=None)
@given(disc_subsets())
def test_form_sums_on_random_subsets(Ds):
    """The strided sums equal the per-D oracles on any subset of D values,
    whatever residue pattern sets the stride."""
    _assert_form_sums_match(Ds, 5000)


@pytest.mark.parametrize("S", [PlaceSet.of(2, 3), PlaceSet.of(2, 5)], ids=["S2_3", "S2_5"])
def test_form_sums_every_class(S):
    """The L(1) pass of every square class of either sign, at X = 2*10^4."""
    X = 2 * 10**4
    for rep in sclass_reps(S):
        d = disc_classes(S, rep.value, X=X, kind="Q_S").entries.tolist()
        _assert_form_sums_match([fundamental_discriminant_of(x) for x in d], X)


def _forms_visited(monkeypatch, alpha, S, X):
    """The forms that the strided sums visit for the S-class of alpha up to X,
    checked against the oracles: the terms of every form progression handed
    to shintani._progressions (the pair blocks go through it too, in chunks of
    another size)."""
    made = []
    progressions = shintani._progressions

    def counting(start, step, count, size):
        if size == shintani._FORM_CHUNK:
            made.append(int(np.sum(count)))
        return progressions(start, step, count, size)

    monkeypatch.setattr(shintani, "_progressions", counting)
    classes = disc_classes(S, alpha, X=X, kind="Q_S").entries.tolist()
    _assert_form_sums_match([fundamental_discriminant_of(x) for x in classes], X)
    return sum(made)


def test_form_sums_stride_visits_few_forms(monkeypatch):
    """alpha = 2 at {oo,2}: every D is 8 mod 64, and the enumeration makes at
    most 1/60 of the reduced triples with D <= X (it makes only those with
    a <= c)."""
    X = 2 * 10**4
    triples = sum(max(min(a + b - 1, (X - b * b) // (4 * a)) - max(a - b + 1, 1) + 1, 0)
                  for a in range(1, isqrt(X)) for b in range(1, isqrt(X) + 1))
    assert triples > 10**5 and 0 < _forms_visited(monkeypatch, 2, S2, X) <= triples / 60


@pytest.mark.parametrize("S,share", [(S2, 19.5), (PlaceSet.of(2, 3), 86)], ids=["S2", "S2_3"])
def test_form_sums_stride_imag_visits_few_forms(monkeypatch, S, share):
    """alpha = -1: every |D| is 4 mod 32, and at {oo,2,3} also 1 mod 3, which
    the stride mod 96 uses; the enumeration makes at most 1/share of the
    reduced forms 0 <= b <= a <= c with |D| <= X (1/20.4 and 1/89.9 of them
    when this bound was set; a stride that ignores 3 makes 1/20.4 at {oo,2,3})."""
    X = 2 * 10**4
    forms = sum(max((X + b * b) // (4 * a) - a + 1, 0)
                for a in range(1, isqrt(X)) for b in range(a + 1))
    assert forms > 10**5 and 0 < _forms_visited(monkeypatch, -1, S, X) <= forms / share


@pytest.mark.parametrize("sign", [-1, 1], ids=["imag", "real"])
def test_form_sums_do_not_depend_on_block_sizes(monkeypatch, sign):
    """Each sum is one sequence of float additions in enumeration order, so
    the pair block and the form chunk sizes change no bit of it: for one
    S-class (alpha = -1 or 2 at {oo,2}, one residue mod 32 or 64) and for
    every fundamental D of the sign, X = 2*10^4."""
    X = 2 * 10**4
    one_class = disc_classes(S2, -1 if sign < 0 else 2, X=X, kind="Q_S").entries
    dense = [D for D in range(1, X + 1) if is_fundamental_discriminant(sign * D)]
    sizes = [(1 << 5, 1 << 7), (shintani._PAIR_BLOCK, shintani._FORM_CHUNK), (1 << 16, 1 << 20)]
    for Ds in ([fundamental_discriminant_of(x) for x in one_class], [sign * D for D in dense]):
        outs = []
        for pair_block, form_chunk in sizes:
            monkeypatch.setattr(shintani, "_PAIR_BLOCK", pair_block)
            monkeypatch.setattr(shintani, "_FORM_CHUNK", form_chunk)
            outs.append(_reduced_form_sums(np.array(Ds, dtype=np.int64)))
        assert all(np.array_equal(out, outs[1]) for out in outs), (sign, len(Ds))


def test_form_sums_reject_out_of_int32_range():
    """|D| >= 2^31 is refused before anything of size |D| is allocated."""
    for Ds in ([5, 2**31 + 5], [-3, -(2**31 + 4)]):
        with pytest.raises(ValueError, match="2\\^31"):
            _reduced_form_sums(np.array(Ds, dtype=np.int64))


def _scalar_terms(alpha, S, X):
    """The terms one discriminant at a time, as rows (d, D, N, L1S, L^S(3))
    with L^S(3) = 1/prod (1 - chi_D(p) p^-3) over the odd p <= _L2S_PRIME_BOUND
    outside S."""
    primes = [p for p in primes_up_to(shintani._L2S_PRIME_BOUND) if p not in S.primes]
    rows = []
    for d in disc_classes(S, alpha, X=X, kind="Q_S").entries:
        D = fundamental_discriminant_of(d)
        L1S = l1_class_number(D)
        for p in S.primes:
            if D % p:
                L1S *= 1.0 - kronecker(D, p) / p
        rows.append((d, D, conductor_outside(d, S), L1S,
                     1 / math.prod(1 - kronecker(D, p) / p**3 for p in primes)))
    return rows


@pytest.mark.parametrize("alpha,S", [(-1, S2), (2, S2), (-15, PlaceSet.of(2, 3)),
                                     (5, PlaceSet.of(2, 5))])
def test_build_terms_matches_scalar_rebuild(alpha, S):
    terms = build_terms(alpha, S, 4000)
    rows = _scalar_terms(alpha, S, 4000)
    assert len(terms) == len(rows) > 20
    assert terms.d.tolist() == [r[0] for r in rows]
    assert terms.D.tolist() == [r[1] for r in rows]
    assert terms.N.tolist() == [r[2] for r in rows]
    for got, r in zip(terms.L1S.tolist(), rows):
        assert abs(got - r[3]) <= 1e-13 * r[3], r[1]
    for got, r in zip(shintani._l2s_values(terms.D, S, 3.0).tolist(), rows):
        assert abs(got - r[4]) <= 1e-14 * r[4], r[1]
