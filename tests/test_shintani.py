"""Shintani zeta function: class-number machinery, truncated sums, pole data.

Oracles: published class numbers are re-derived here through the L-value
route; fundamental units are verified in place by their norm equations and
(for small discriminants) by brute-force Pell search before being compared
with the cycle-product regulator.
"""
import functools
import math
import os
import random
import subprocess
import sys
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
import tracecoef
from tracecoef import lfun
from tracecoef import shintani
from tracecoef.cli import JsonlCache
from tracecoef.shintani import (
    ShintaniConfig,
    _reduced_form_sums,
    build_terms,
    class_data_real,
    class_number_imag,
    euler_assembly_check,
    l1_class_number,
    l1_smoothed,
    local_factor,
    residue_exact_value,
    shintani_run,
    tail_block_check,
    w_disc,
    xi_partial,
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


def test_l1_high_precision_variant():
    with mp.workdps(35):
        assert abs(l1_class_number(-4, digits=30) - mp.pi / 4) < mpf("1e-28")


def test_xi_below_bound_is_zero():
    # X below the smallest admissible |D| leaves an empty sum
    assert xi_partial(2.0, -1, S2, 3) == 0.0


def test_xi_single_term_vs_lfun_oracle():
    """X=5 keeps only d=-1; compare against the assembled L-value formula."""
    xi = xi_partial(2.0, -1, S2, 5)
    pref = float(lfun.zetaS(3, S2) * lfun.zetaS(4, S2) / lfun.zetaS(2, S2))
    term = float(lfun.LS(1, QuadChar(-4), S2) / lfun.LS(4, QuadChar(-4), S2))
    assert abs(xi - pref * term) < 1e-9
    # beta(4) factor from the direct alternating sum
    import numpy as np

    k = np.arange(100000, dtype=np.float64)
    beta4 = float(np.add.reduce((-1.0) ** k / (2 * k + 1) ** 4))
    assert abs(float(lfun.LS(4, QuadChar(-4), S2)) - beta4) < 1e-12


def test_xi_monotone_in_X():
    lo = xi_partial(1.8, -1, S2, 2000)
    hi = xi_partial(1.8, -1, S2, 8000)
    assert hi >= lo > 0


def test_xi_rejects_bad_inputs():
    with pytest.raises(ValueError):
        xi_partial(1.4, -1, S2, 100)
    with pytest.raises(ValueError):
        xi_partial(2.0, -1, PlaceSet.of(3), 100)


def test_positivity_of_summands():
    terms = build_terms(-1, S2, 4000)
    assert len(terms) and (terms.L1S > 0).all()


def test_residue_exact_targets():
    assert residue_exact_value(S2) == Fraction(1, 8)
    assert residue_exact_value(PlaceSet.of()) == Fraction(1, 2)
    assert residue_exact_value(PlaceSet.of(2, 3)) == Fraction(1, 24)


def test_residue_estimate_and_alpha_independence():
    cfg = ShintaniConfig(X=2 * 10**4)
    r1, r2 = shintani_run(-1, S2, cfg), shintani_run(2, S2, cfg)
    est1, exact, err1 = r1.residue_estimate, r1.residue_exact, r1.residue_error
    est2, err2 = r2.residue_estimate, r2.residue_error
    assert exact == Fraction(1, 8)
    assert abs(est1 - 0.125) / 0.125 < 0.05
    assert abs(est2 - 0.125) / 0.125 < 0.05
    assert abs(est1 - est2) <= err1 + err2


def test_residue_partial_scaled_increases_toward_target():
    """eps * xi^S(3/2+eps) grows toward the exact residue as X grows."""
    eps = 0.1
    vals = [eps * xi_partial(1.5 + eps, -1, S2, X) for X in (2000, 8000, 32000)]
    assert vals[0] < vals[1] < vals[2] < 0.125 * 1.02


def test_constant_grid_consistency():
    """c(eps) at eps and eps/2 differ by O(eps): the extrapolant is stable."""
    cfg = ShintaniConfig(X=3 * 10**4, eps_grid=(0.2, 0.1, 0.05, 0.025))
    res = shintani_run(-1, S2, cfg)
    val = res.constant_CF
    assert not res.unstable
    grid = res.diagnostics["constant"]["grid_constants"]
    assert abs(grid[0.05] - grid[0.025]) < 3 * abs(grid[0.2] - grid[0.1])
    assert abs(grid[0.025] - val) < 0.05


def test_constant_stable_under_X_growth():
    """Tail-model oracle: growing X by 4x moves the estimate by <= 2%."""
    v1 = shintani_run(-1, S2, ShintaniConfig(X=1500 * 10)).constant_CF
    v2 = shintani_run(-1, S2, ShintaniConfig(X=6000 * 10)).constant_CF
    assert abs(v1 - v2) <= 0.02 * abs(v2)


def test_constant_invariant_under_representative_change():
    cfg = ShintaniConfig(X=2 * 10**4)
    v1 = shintani_run(-1, S2, cfg).constant_CF
    v2 = shintani_run(Fraction(-9, 49), S2, cfg).constant_CF  # same class
    assert abs(v1 - v2) <= 1e-12  # identical class data, identical sum


def test_tail_block_selfcheck():
    out = tail_block_check(-1, S2, eps=0.15, X=4 * 10**4)
    assert 0.8 <= out["ratio"] <= 1.25


def test_shintani_run_shape():
    cfg = ShintaniConfig(X=10**4, eps_grid=(0.2, 0.1))
    res = shintani_run(2, S2, cfg)
    assert set(res.grid_values) == {0.2, 0.1}
    assert res.residue_exact == Fraction(1, 8)
    assert res.residue_estimate > 0
    assert res.constant_error > 0


@pytest.mark.parametrize("S", [S2, PlaceSet.of(2, 3), PlaceSet.of(2, 5)], ids=str)
def test_zetaS_float_against_lfun(S):
    """The float64 Euler-Maclaurin zeta^S of the prefactors against the
    30-digit lfun.zetaS over the arguments the pole data uses."""
    xs = [2 + k / 10 for k in range(15)]
    got = shintani._zetaS_float(xs, S)
    for x, g in zip(xs, got):
        want = lfun.zetaS(x, S, 30)
        assert abs(g - want) <= 1e-15 * want, x


def test_l2s_matrix_against_product():
    """The log-domain L^S(2s) matrix against the direct product
    1/prod_p (1 - chi_d(p) p^-2s), one column of 2s at a time."""
    two_s = [3.4, 3.3, 3.2, 3.1, 3.0]
    sizes = []
    for alpha, S in ((-1, S2), (2, S2), (-1, PlaceSet.of(2, 3))):
        terms = build_terms(alpha, S, 5 * 10**4)
        got = shintani._l2s_values(terms, two_s)
        assert got.shape == (len(two_s), len(terms))
        for row, t in zip(got, two_s):
            want = 1.0 / np.prod(1.0 - terms.chi * terms.primes ** -t, axis=1)
            assert np.all(np.abs(row - want) <= 1e-14 * want), (alpha, S, t)
        sizes.append(len(terms))
    assert max(sizes) > 2 * shintani._L2S_ROWS  # several row blocks


@pytest.mark.parametrize("two_s", [3.0, 3.4])
def test_l2s_truncation_bound(two_s):
    """The Euler factors that _l2s_values leaves out, those of the primes
    P = 600 < p <= 20 000, stay within its stated bound
    P^(1-2s)/((2s-1)(1-P^-2s)) in logs."""
    P = shintani._L2S_PRIME_BOUND
    bound = P ** (1 - two_s) / ((two_s - 1) * (1 - P**-two_s))
    terms = build_terms(-1, S2, 10**4)
    assert terms.primes.max() <= P
    primes = np.array([p for p in primes_up_to(20000) if p > P])
    chi = np.stack([shintani._kron_at_prime(terms.D, int(p)) for p in primes], axis=1)
    gap = np.abs(np.log1p(-chi * primes.astype(float) ** -two_s).sum(axis=1))
    assert gap.max() <= bound
    assert gap.max() >= bound / 100  # the bound is not vacuous


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
    with pytest.raises(ValueError):
        ShintaniConfig(X=100)
    with pytest.raises(ValueError):
        ShintaniConfig(eps_grid=(0.05, 0.1))  # not descending
    with pytest.raises(ValueError):
        ShintaniConfig(L1_method="magic")


def test_local_factor_closed_forms():
    lf = local_factor(3, 2.0, "trivial", ramified=False, chi_p=1)
    expected = (1 - 3.0**-3) ** -1 * (1 - 3.0**-4) ** -1 * (1 - 3.0**-2) * (1 - 3.0**-4)
    assert abs(lf - expected) < 1e-14
    assert local_factor(3, 2.0, "chi_d", ramified=True) == 0.0
    assert abs(local_factor(5, 60.0, "trivial") - (1 - 1 / 25)) < 1e-12
    # ramified trivial twist carries the extra q^{-s+1/2}
    r = local_factor(3, 2.0, "trivial", ramified=True)
    base = (1 - 3.0**-3) ** -1 * (1 - 3.0**-4) ** -1 * (1 - 3.0**-2)
    assert abs(r - base * 3.0**-1.5) < 1e-14


def test_euler_assembly_paths():
    A, B = euler_assembly_check(-1, 2.0, S2, X=10**6)
    assert abs(A - B) < 1e-6
    # trivial twist reproduces the single-class summand of xi
    A, B = euler_assembly_check(-1, 2.0, S2, X=10**6, twist="trivial")
    assert abs(A - B) < 1e-6
    xi1 = xi_partial(2.0, -1, S2, 5)
    pref = float(lfun.zetaS(3, S2) * lfun.zetaS(4, S2) / lfun.zetaS(2, S2))
    assert abs(B * pref / float(
        lfun.zetaS(3, S2) * lfun.zetaS(4, S2) / lfun.zetaS(2, S2)) - xi1) < 1e-8
    # character ramified outside S: the twisted global object vanishes
    assert euler_assembly_check(-3, 2.0, S2) == (0.0, 0.0)


class DictCache:
    """The bulk interface of cli.JsonlCache, counting hits and batches."""

    def __init__(self):
        self.stored = {}
        self.hits = 0
        self.batches = 0

    def lookup_l1(self, Ds, method):
        recs = [self.stored.get(D) for D in Ds]
        self.hits += sum(rec is not None for rec in recs)
        return [math.nan if rec is None else rec["L1"] for rec in recs]

    def store_l1(self, Ds, L1s, method, digits):
        self.batches += 1
        for D, L1 in zip(Ds, L1s):
            self.stored[D] = {"D": D, "L1": L1, "method": method, "digits": digits}


def test_cache_consumed_and_filled():
    """The misses are stored in one batch; a second pass only reads."""
    c = DictCache()
    build_terms(-1, S2, 4000, cache=c)
    assert c.stored and c.hits == 0 and c.batches == 1
    n = len(c.stored)
    build_terms(-1, S2, 4000, cache=c)
    assert c.hits == n and c.batches == 1


def test_cache_record_of_other_method_not_served():
    """A class-number record must not stand in for the smoothed method."""
    c = JsonlCache(None)
    c.put({"D": -4, "L1": 123.0, "method": "class-number-formula", "digits": 15})
    terms = build_terms(-1, S2, 200, method="smoothed-character-sum", cache=c)
    (L1S,) = terms.L1S[terms.D == -4]
    assert abs(L1S - math.pi / 4) < 1e-9
    assert c.get(-4)["method"] == "smoothed-character-sum"


def test_chi_matrix_matches_per_prime_columns():
    """The chi matrix read off the one Legendre table equals the columns
    chi_D(p) of _kron_at_prime, for D < 0 and D > 0, over several row blocks."""
    sizes = []
    for S in (S2, PlaceSet.of(2, 3), PlaceSet.of(2, 5)):
        primes = [p for p in primes_up_to(600).tolist() if p not in S.primes]
        for alpha in (-1, 2):
            terms = build_terms(alpha, S, 5 * 10**4)
            assert terms.primes.tolist() == primes
            want = np.stack([shintani._kron_at_prime(terms.D, p) for p in primes], axis=1)
            assert terms.chi.dtype == np.int8 and np.array_equal(terms.chi, want), (S, alpha)
            sizes.append(len(terms))
    assert max(sizes) > 2 * shintani._L2S_ROWS  # several row blocks


@pytest.mark.parametrize("method", ["class-number-formula", "smoothed-character-sum"])
def test_build_terms_rejects_out_of_int32_range(monkeypatch, method):
    """|D| >= 2^31 is refused on both routes, the smoothed one included,
    which does not pass through the form enumeration."""
    big = SimpleNamespace(entries=[-1, -(2**29 + 1)])  # D = 4d = -(2^31 + 4)
    monkeypatch.setattr(shintani, "disc_classes", lambda *a, **k: big)
    with pytest.raises(ValueError, match="2\\^31"):
        build_terms(-1, S2, 10**4, method=method)


def test_residue_alpha_independent_across_all_classes():
    """The pole datum does not depend on the square class (sampled over all
    sixteen classes at a reduced bound)."""
    from tracecoef.arith import sclass_reps

    cfg = ShintaniConfig(X=10**4)
    exact = float(residue_exact_value(S2))
    for rep in sclass_reps(S2):
        est = shintani_run(rep.value, S2, cfg).residue_estimate
        assert abs(est - exact) < 0.12 * exact, (rep.value, est)


def test_constant_same_for_distinct_squarefree_reps_of_class():
    """-17 and -1 are distinct squarefree integers in one S-square class
    over {oo,2}; the enumerated class data and the constant coincide."""
    t1 = build_terms(-1, S2, 8000)
    t2 = build_terms(-17, S2, 8000)
    assert t1.d.tolist() == t2.d.tolist() and t1.N.tolist() == t2.N.tolist()
    cfg = ShintaniConfig(X=2 * 10**4)
    v1 = shintani_run(-1, S2, cfg).constant_CF
    v2 = shintani_run(-17, S2, cfg).constant_CF
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
    one residue class, a few, or all of them mod 2^j, thinned at random."""
    sign, bound = draw(st.sampled_from((-1, 1))), draw(st.integers(50, 5000))
    pool = [D for D in _oracle_table(5000) if D * sign > 0 and abs(D) <= bound]
    M = draw(st.sampled_from((2, 4, 8, 16, 32, 64)))
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
        d = disc_classes(S, rep.value, X=X, kind="Q_S").entries
        _assert_form_sums_match([fundamental_discriminant_of(x) for x in d], X)


def test_form_sums_stride_visits_few_forms(monkeypatch):
    """alpha = 2 at {oo,2}: every D is 8 mod 64, and the enumeration makes at
    most 1/20 of the reduced triples with D <= X.  Each chunk of forms starts
    as one int32 arange, which the counting wrapper below sums."""
    X = 2 * 10**4
    Ds = [fundamental_discriminant_of(x) for x in disc_classes(S2, 2, X=X, kind="Q_S").entries]
    made = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def arange(self, *args, **kwargs):
            out = np.arange(*args, **kwargs)
            if kwargs.get("dtype") is np.int32:
                made.append(len(out))
            return out

    monkeypatch.setattr(shintani, "np", CountingNumpy())
    _assert_form_sums_match(Ds, X)
    triples = sum(max(min(a + b - 1, (X - b * b) // (4 * a)) - max(a - b + 1, 1) + 1, 0)
                  for a in range(1, isqrt(X)) for b in range(1, isqrt(X) + 1))
    assert triples > 10**5 and 0 < sum(made) <= triples / 20


def test_form_sums_reject_out_of_int32_range():
    """|D| >= 2^31 is refused before anything of size |D| is allocated."""
    for Ds in ([5, 2**31 + 5], [-3, -(2**31 + 4)]):
        with pytest.raises(ValueError, match="2\\^31"):
            _reduced_form_sums(np.array(Ds, dtype=np.int64))


def _scalar_terms(alpha, S, X):
    """The terms one discriminant at a time, as rows (d, D, N, L1S, chi)."""
    primes = [p for p in primes_up_to(600) if p not in S.primes]
    rows = []
    for d in disc_classes(S, alpha, X=X, kind="Q_S").entries:
        D = fundamental_discriminant_of(d)
        L1S = l1_class_number(D)
        for p in S.primes:
            if D % p:
                L1S *= 1.0 - kronecker(D, p) / p
        rows.append((d, D, conductor_outside(d, S).N_fdS, L1S,
                     [kronecker(D, p) for p in primes]))
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
    assert terms.chi.tolist() == [r[4] for r in rows]
    for got, r in zip(terms.L1S.tolist(), rows):
        assert abs(got - r[3]) <= 1e-13 * r[3], r[1]
