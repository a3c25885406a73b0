"""Programmatic acceptance checks, shared by the CLI selftest and the tests.

Each criterion function returns a dict {id, name, passed, details}; every
tolerance is pinned here.  All randomness is seeded; nothing here depends on
wall-clock or environment, so repeated runs serialize identically.
Criterion 11, the determinism of the rendered payload, is run by the CLI.
"""
from __future__ import annotations

import random
from fractions import Fraction

from mpmath import mp, mpf

from .arith import (
    PlaceSet,
    hilbert,
    hilbert_product_places,
    local_square_class,
    sclass_reps,
    cclass_reps,
)
from .characters import QuadChar, chi_S, enum_quad_chars, is_fundamental_discriminant
from . import lfun
from .quadforms import SymForm2, enum_form_classes, realizable_eps, unipotent_orbit_set
from .shintani import (
    ShintaniConfig,
    euler_assembly_check,
    l1_class_number,
    shintani_run,
)
from . import coeff as coeffmod
from . import weights as wmod

SEED = 20240817

# pinned tolerances (see the acceptance list in the project docs)
TOL_L1_CLASSNO = 1e-8
TOL_L1_M4 = 1e-9
TOL_L2_M4 = 1e-9
TOL_LAURENT_OO = 1e-8
TOL_LAURENT_2 = 1e-10
TOL_RESIDUE_REL = 0.05
TOL_EULER_ASSEMBLY = 1e-8
TOL_WEIGHTS = 1e-6
TOL_ENDOSCOPIC = 1e-10
TOL_SL2_AVG = 1e-12

GAMMA0_PUBLISHED = "0.577215664901532860606512090082402431042"
GAMMA1_PUBLISHED = "-0.072815845483676724860586375874901319138"
CATALAN_PUBLISHED = "0.915965594177219015054603514932384110774"


def crit_1_hilbert_product(quick=False, cache=None):
    """Product formula for the Hilbert symbol on 500 seeded pairs."""
    rng = random.Random(SEED)
    n = 100 if quick else 500
    bad = []
    for _ in range(n):
        a = rng.randint(1, 10**4) * rng.choice((1, -1))
        b = rng.randint(1, 10**4) * rng.choice((1, -1))
        prod = 1
        for v in hilbert_product_places(a, b):
            prod *= hilbert(a, b, v)
        if prod != 1:
            bad.append((a, b, prod))
    return {
        "id": 1,
        "name": "hilbert-product-formula",
        "passed": not bad,
        "details": {"pairs": n, "violations": bad[:5]},
    }


def crit_2_l_value_oracles(quick=False, cache=None):
    """L^S(1,chi_D) against the class number formula for |D| <= 200, and the
    two pinned special values."""
    bound = 60 if quick else 200
    worst = 0.0
    worst_D = None
    count = 0
    for D in range(-bound, bound + 1):
        if D in (0, 1) or not is_fundamental_discriminant(D):
            continue
        ch = QuadChar(D)
        S = PlaceSet.of(*ch.support)
        hur = lfun.LS(1, ch, S)
        cls = l1_class_number(D, digits=25)
        dev = abs(float(hur - cls))
        count += 1
        if dev > worst:
            worst, worst_D = dev, D
    S2 = PlaceSet.of(2)
    dev_pi4 = abs(float(lfun.LS(1, QuadChar(-4), S2) - mp.pi / 4))
    dev_cat = abs(float(lfun.LS(2, QuadChar(-4), S2) - mpf(CATALAN_PUBLISHED)))
    passed = worst <= TOL_L1_CLASSNO and dev_pi4 <= TOL_L1_M4 and dev_cat <= TOL_L2_M4
    return {
        "id": 2,
        "name": "l-value-oracles",
        "passed": passed,
        "details": {
            "discriminants": count,
            "worst_classno_dev": worst,
            "worst_D": worst_D,
            "dev_pi_over_4": dev_pi4,
            "dev_catalan": dev_cat,
        },
    }


def crit_3_laurent_constants(quick=False, cache=None):
    """Internally computed Stieltjes data against published digits, and the
    Laurent-product identity for S = {oo, 2}."""
    ld1 = lfun.laurent_at_1(None, PlaceSet.of(), digits=30)
    dev_g0 = abs(float(ld1.c0 - mpf(GAMMA0_PUBLISHED)))
    dev_g1 = abs(float(ld1.c1 - (-mpf(GAMMA1_PUBLISHED))))
    ld2 = lfun.laurent_at_1(None, PlaceSet.of(2), digits=30)
    with mp.workdps(40):
        target = mpf(GAMMA0_PUBLISHED) / 2 + mp.ln(2) / 2
    dev_prod = abs(float(ld2.c0 - target))
    passed = dev_g0 <= TOL_LAURENT_OO and dev_g1 <= TOL_LAURENT_OO and dev_prod <= TOL_LAURENT_2
    return {
        "id": 3,
        "name": "laurent-constants",
        "passed": passed,
        "details": {"dev_gamma0": dev_g0, "dev_gamma1": dev_g1, "dev_product_identity": dev_prod},
    }


def crit_4_shintani_residue(quick=False, cache=None):
    """Residue of the Shintani zeta function at 3/2 for two square classes."""
    S2 = PlaceSet.of(2)
    config = ShintaniConfig(X=2 * 10**4 if quick else 10**5)
    out = {}
    ests = []
    for alpha in (-1, 2):
        res = shintani_run(alpha, S2, config, cache)
        est, exact, err = res.residue_estimate, float(res.residue_exact), res.residue_error
        ests.append((est, err))
        out[f"alpha={alpha}"] = {"estimate": est, "exact": exact,
                                 "rel_dev": abs(est - exact) / exact, "error": err}
    agree = abs(ests[0][0] - ests[1][0]) <= ests[0][1] + ests[1][1]
    passed = all(v["rel_dev"] <= TOL_RESIDUE_REL for v in out.values()) and agree
    out["alphas_agree_within_errors"] = agree
    return {"id": 4, "name": "shintani-residue", "passed": passed, "details": out}


def crit_5_euler_assembly(quick=False, cache=None):
    """Twisted local-factor assembly against the direct formula."""
    S2 = PlaceSet.of(2)
    X = 10**6 if quick else 3 * 10**7
    A, B = euler_assembly_check(-1, 2.0, S2, X=X)
    dev = abs(A - B)
    tol = 1e-6 if quick else TOL_EULER_ASSEMBLY
    return {
        "id": 5,
        "name": "euler-assembly",
        "passed": dev <= tol,
        "details": {"path_local_product": A, "path_direct": B, "deviation": dev, "X": X},
    }


def _rand_frac(rng, nonzero=True):
    while True:
        num = rng.randint(-9, 9)
        if num or not nonzero:
            return Fraction(num, rng.randint(1, 4))


def crit_6_weight_factors(quick=False, cache=None):
    """Numeric (G,M)-family limits against every closed-form weight factor."""
    rng = random.Random(SEED + 6)
    trials = 4 if quick else 30
    S_list = [PlaceSet.of(2), PlaceSet.of(2, 3)]
    worst = {}

    def check(tag, closed, family, dims):
        lim, err = wmod.gm_family_limit(family, dims=dims, seed=SEED + 60)
        dev = abs(float(lim - closed))
        worst[tag] = max(worst.get(tag, 0.0), dev)
        return dev

    for i in range(trials):
        S = S_list[i % 2]
        T = wmod.TruncParam(float(_rand_frac(rng, nonzero=False)), float(_rand_frac(rng, nonzero=False)))
        nu = wmod.NuEntries(_rand_frac(rng), _rand_frac(rng), _rand_frac(rng), _rand_frac(rng), S)
        check("m0", wmod.w_M0(nu, T), wmod.family_m0(nu, T), 2)
        nur = wmod.NuEntries(0, _rand_frac(rng), _rand_frac(rng), _rand_frac(rng), S)
        if nur.n13 * nur.n24 != nur.n14 * nur.n14:
            check("m1-radical", wmod.w_M1(nur, T), wmod.family_m1(nur, T), 1)
        u12 = _rand_frac(rng)
        check("m1-levi", wmod.w_M1(nu, T, u12=u12), wmod.family_m1(nu, T, u12=u12), 1)
        nu2 = wmod.NuEntries(_rand_frac(rng), _rand_frac(rng), _rand_frac(rng), 0, S)
        check("m2-radical", wmod.w_M2(nu2, T), wmod.family_m2(nu2, T), 1)
        u24 = _rand_frac(rng)
        check("m2-levi", wmod.w_M2(nu2, T, u24=u24), wmod.family_m2(nu2, T, u24=u24), 1)
        nu3 = wmod.Nu3Entries(_rand_frac(rng), _rand_frac(rng), _rand_frac(rng), S)
        check("gl3-m0", wmod.w_M0_gl3(nu3, T), wmod.family_m0_gl3(nu3, T), 2)
        nu3r = wmod.Nu3Entries(0, _rand_frac(rng), _rand_frac(rng), S)
        check("gl3-mp-radical", wmod.w_Mp_gl3(nu3r, T), wmod.family_mp_gl3(nu3r, T), 1)
        check("gl3-mp-levi", wmod.w_Mp_gl3(nu3, T, u12=u12), wmod.family_mp_gl3(nu3, T, u12=u12), 1)
    passed = all(v <= TOL_WEIGHTS for v in worst.values())
    return {
        "id": 6,
        "name": "weight-factor-cross-validation",
        "passed": passed,
        "details": {"trials": trials, "worst_dev": worst},
    }


def crit_7_orthogonality(quick=False, cache=None):
    """Exact character orthogonality over the square-class representatives."""
    bad = []
    sets = [PlaceSet.of(2), PlaceSet.of(2, 3), PlaceSet.of(2, 5)]
    for S in sets:
        reps = sclass_reps(S)
        for ch in enum_quad_chars(S):
            tot = sum(chi_S(ch, a.value, S) for a in reps)
            expected = len(reps) if ch.is_trivial else 0
            if tot != expected:
                bad.append((str(S), ch.D, tot))
    return {
        "id": 7,
        "name": "character-orthogonality",
        "passed": not bad,
        "details": {"violations": bad},
    }


def crit_8_endoscopic(quick=False, cache=None):
    """Two-path agreement of the coefficient difference report."""
    worst = 0.0
    details = {}
    for S in (PlaceSet.of(2), PlaceSet.of(2, 3)):
        for orbit in ("min", "reg"):
            for alpha in (1, -1):
                d = coeffmod.endoscopic_diff(S, orbit, alpha)
                dev = abs(float(d["difference"].value - d["predicted"].value))
                details[f"{orbit} alpha={alpha} {S}"] = dev
                worst = max(worst, dev)
    # subregular: the Shintani part cancels exactly, so the deviation must
    # sit far inside the propagated error bars
    S2 = PlaceSet.of(2)
    cfg = ShintaniConfig(X=10**4)
    d = coeffmod.endoscopic_diff(S2, "sub", SymForm2.x_alpha(-1), config=cfg, cache=cache)
    sub_dev = abs(float(d["difference"].value - d["predicted"].value))
    sub_err = d["difference"].error + 1e-12
    details["sub alpha=-1 {oo,2}"] = {"dev": sub_dev, "error_bars": sub_err}
    passed = worst <= TOL_ENDOSCOPIC and sub_dev <= sub_err
    return {"id": 8, "name": "endoscopic-difference", "passed": passed,
            "details": {"worst_min_reg": worst, **details}}


# --- independent local-class oracles for criterion 9 -----------------------

def _oracle_square_classes(p: int) -> int:
    """Number of square classes of Q_p by modular squaring only."""
    k = 6 if p == 2 else 4
    m = p**k
    squares = {(z * z) % m for z in range(1, m)}
    cands = [u * p**e for e in (0, 1) for u in range(1, p**3) if u % p]
    classes = []
    for x in cands:
        if not any((x * y) % m in squares for y in classes):
            classes.append(x)
    return len(classes)


def _oracle_cube_unit_classes(p: int) -> int:
    """Number of unit cube classes of Q_p by modular cubing only."""
    m = 27 if p == 3 else p * p
    units = [u for u in range(1, m) if u % p]
    cubes = {pow(u, 3, m) for u in units}
    classes = []
    for u in units:
        # u ~ w iff u * w^2 is a cube (u/w cube test without division)
        if not any((u * w * w) % m in cubes for w in classes):
            classes.append(u)
    return len(classes)


_oracle_realizable_cache: dict = {}


def _oracle_realizable(v, d) -> frozenset:
    """Realizable Hasse values at v for -det class of d, from a dense scan
    of diagonal forms with entries of height <= 50."""
    target = local_square_class(d, v)
    hit = _oracle_realizable_cache.get((v, target))
    if hit is not None:
        return hit
    found = set()
    for r in range(1, 51):
        for sr in (r, -r):
            for c in range(1, 51):
                for sc in (c, -c):
                    if local_square_class(-sr * sc, v) != target:
                        continue
                    e = (
                        hilbert(sr, sr, v)
                        * hilbert(sr, sc, v)
                        * hilbert(sc, sc, v)
                    )
                    found.add(e)
                    if len(found) == 2:
                        out = frozenset(found)
                        _oracle_realizable_cache[(v, target)] = out
                        return out
    out = frozenset(found)
    _oracle_realizable_cache[(v, target)] = out
    return out


def crit_9_orbit_enumeration(quick=False, cache=None):
    """Orbit counts against independent local-class enumeration oracles."""
    details = {}
    passed = True
    for S in (PlaceSet.of(2), PlaceSet.of(2, 3)):
        n_sq_oracle = 2
        for p in S.primes:
            n_sq_oracle *= _oracle_square_classes(p)
        n_cube_oracle = 1
        for p in S.primes:
            n_cube_oracle *= 3 * _oracle_cube_unit_classes(p)
        reps = sclass_reps(S)
        # per-class realizable Hasse tuples from the dense oracle
        n_eps_oracle = 0
        eps_ok = True
        for a in reps:
            prod = 1
            for v in S:
                dense = _oracle_realizable(v, a.value)
                pkg = realizable_eps(v, a.value)
                if dense != pkg:
                    eps_ok = False
                prod *= len(dense)
            n_eps_oracle += prod
        sp2 = len(unipotent_orbit_set("sp2", S))
        sl3 = len(unipotent_orbit_set("sl3", S))
        ok = (
            sp2 == 1 + 2 * n_sq_oracle + n_eps_oracle
            and len(reps) == n_sq_oracle
            and sl3 == 2 + n_cube_oracle
            and len(cclass_reps(S)) == n_cube_oracle
            and len(enum_form_classes(S, "det+hasse")) == n_eps_oracle
            and eps_ok
        )
        passed = passed and ok
        details[str(S)] = {
            "sp2_count": sp2,
            "sp2_oracle": 1 + 2 * n_sq_oracle + n_eps_oracle,
            "sl3_count": sl3,
            "sl3_oracle": 2 + n_cube_oracle,
            "hasse_sets_match": eps_ok,
        }
    return {"id": 9, "name": "orbit-enumeration", "passed": passed, "details": details}


def crit_10_sl2_averaging(quick=False, cache=None):
    """Mean of the SL(2) coefficients over the square classes equals the
    GL(2) coefficient."""
    S = PlaceSet.of(2)
    reps = sclass_reps(S)
    avg = sum((coeffmod.coeff_sl2(S, a.value).value for a in reps), mpf(0)) / len(reps)
    dev = abs(float(avg - coeffmod.coeff_gl2(S).value))
    return {
        "id": 10,
        "name": "sl2-gl2-averaging",
        "passed": dev <= TOL_SL2_AVG,
        "details": {"deviation": dev, "classes": len(reps)},
    }


CRITERIA = {
    1: crit_1_hilbert_product,
    2: crit_2_l_value_oracles,
    3: crit_3_laurent_constants,
    4: crit_4_shintani_residue,
    5: crit_5_euler_assembly,
    6: crit_6_weight_factors,
    7: crit_7_orthogonality,
    8: crit_8_endoscopic,
    9: crit_9_orbit_enumeration,
    10: crit_10_sl2_averaging,
}


def run_criteria(ids=None, quick=False, cache=None) -> list[dict]:
    ids = sorted(ids or CRITERIA)
    return [CRITERIA[i](quick=quick, cache=cache) for i in ids]
