"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned in tracecoef.selfcheck; the criteria run at their
full stated sizes (X = 10^5 for the pole estimate, 500 symbol pairs, 30
weight trials per family, the complete |D| <= 200 discriminant range).
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import json
import time

from tracecoef import selfcheck
from tracecoef.cli import JsonlCache, render_json


CACHE = JsonlCache(None)  # in memory


def _report(result, budget=None):
    status = "PASS" if result["passed"] else "FAIL"
    line = f"[{status}] criterion {result['id']}: {result['name']}"
    if budget is not None:
        line += f" (elapsed {budget:.1f}s)"
    print(line)
    assert result["passed"], result["details"]


def test_criterion_01_hilbert_product_formula():
    t0 = time.time()
    r = selfcheck.crit_1_hilbert_product(cache=CACHE)
    dt = time.time() - t0
    _report(r, dt)
    assert dt < 5.0
    assert r["details"]["pairs"] == 500


def test_criterion_02_l_value_oracles():
    t0 = time.time()
    r = selfcheck.crit_2_l_value_oracles(cache=CACHE)
    dt = time.time() - t0
    _report(r, dt)
    assert dt < 30.0
    assert r["details"]["worst_classno_dev"] <= selfcheck.TOL_L1_CLASSNO
    assert r["details"]["dev_pi_over_4"] <= selfcheck.TOL_L1_M4
    assert r["details"]["dev_catalan"] <= selfcheck.TOL_L2_M4


def test_criterion_03_laurent_constants():
    r = selfcheck.crit_3_laurent_constants(cache=CACHE)
    _report(r)
    assert r["details"]["dev_gamma0"] <= selfcheck.TOL_LAURENT_OO
    assert r["details"]["dev_gamma1"] <= selfcheck.TOL_LAURENT_OO
    assert r["details"]["dev_product_identity"] <= selfcheck.TOL_LAURENT_2


def test_criterion_04_shintani_residue():
    t0 = time.time()
    r = selfcheck.crit_4_shintani_residue(cache=CACHE)
    dt = time.time() - t0
    _report(r, dt)
    assert dt < 300.0
    for alpha in (-1, 2):
        assert r["details"][f"alpha={alpha}"]["rel_dev"] <= selfcheck.TOL_RESIDUE_REL
    assert r["details"]["alphas_agree_within_errors"]


def test_criterion_05_euler_assembly():
    t0 = time.time()
    r = selfcheck.crit_5_euler_assembly(cache=CACHE)
    dt = time.time() - t0
    _report(r, dt)
    assert dt < 10.0
    assert r["details"]["deviation"] <= selfcheck.TOL_EULER_ASSEMBLY


def test_criterion_06_weight_factor_cross_validation():
    t0 = time.time()
    r = selfcheck.crit_6_weight_factors(cache=CACHE)
    dt = time.time() - t0
    _report(r, dt)
    assert dt < 120.0
    assert r["details"]["trials"] == 30
    assert all(v <= selfcheck.TOL_WEIGHTS for v in r["details"]["worst_dev"].values())


def test_criterion_07_character_orthogonality():
    r = selfcheck.crit_7_orthogonality(cache=CACHE)
    _report(r)
    assert r["details"]["violations"] == []


def test_criterion_08_endoscopic_difference():
    r = selfcheck.crit_8_endoscopic(cache=CACHE)
    _report(r)
    assert r["details"]["worst_min_reg"] <= selfcheck.TOL_ENDOSCOPIC


def test_criterion_09_orbit_enumeration():
    r = selfcheck.crit_9_orbit_enumeration(cache=CACHE)
    _report(r)
    for S, d in r["details"].items():
        assert d["sp2_count"] == d["sp2_oracle"], S
        assert d["sl3_count"] == d["sl3_oracle"], S
        assert d["hasse_sets_match"], S


def test_criterion_10_sl2_gl2_averaging():
    r = selfcheck.crit_10_sl2_averaging(cache=CACHE)
    _report(r)
    assert r["details"]["deviation"] <= selfcheck.TOL_SL2_AVG


def test_criterion_11_selftest_determinism():
    """Two selftest runs with a warm cache serialize byte-identically."""
    ids = (1, 3, 4, 7, 10)
    out1 = render_json(
        {"criteria": selfcheck.run_criteria(ids, quick=True, cache=CACHE)}, pretty=False
    )
    out2 = render_json(
        {"criteria": selfcheck.run_criteria(ids, quick=True, cache=CACHE)}, pretty=False
    )
    passed = out1 == out2
    print(f"[{'PASS' if passed else 'FAIL'}] criterion 11: selftest-determinism "
          f"({len(out1)} bytes)")
    assert passed
    json.loads(out1)  # and it is valid JSON
