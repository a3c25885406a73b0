"""Weight-factor tables, closed forms, and the numeric family-limit engine."""
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from tracecoef.arith import PlaceSet
from tracecoef import weights as w

S2 = PlaceSet.of(2)
S23 = PlaceSet.of(2, 3)
T0 = w.TruncParam(0, 0)


def test_abs_and_height_S():
    assert abs(w.abs_S(3, S2) - 3) < 1e-12          # |3|_oo * |3|_2 = 3
    assert abs(w.abs_S(2, S2) - 1) < 1e-12          # 2 * 1/2
    assert abs(w.abs_S(Fraction(1, 2), S2) - 1) < 1e-12
    got = w.height_S((1, 3), S2)
    assert abs(got - mp.sqrt(10)) < 1e-12           # euclidean at oo, max at 2
    got = w.height_S((Fraction(1, 2), 3), S2)
    assert abs(got - mp.sqrt(Fraction(37, 4)) * 2) < 1e-12


def test_v_table_examples():
    lam = (mpf(1), mpf("0.3"))
    nu = w.NuEntries(0, 0, 0, 0, S2)
    assert abs(w.v_table("gsp2", "1", lam, nu, w.TruncParam(2, 5)) - mp.e ** (2 + 0.3 * 5)) < 1e-12
    # s0 with n12 = 0 and T = 0 gives height 1
    assert abs(w.v_table("gsp2", "s0", lam, nu, T0) - 1) < 1e-12
    # s2 with n24 = 3: ||(1,3)||_S^{-lam1}
    nu3 = w.NuEntries(0, 0, 0, 3, S2)
    got = w.v_table("gsp2", "s2", (1, 0), nu3, T0)
    assert abs(got - 1 / mp.sqrt(10)) < 1e-12


def test_theta_tables_cover_chambers():
    lam = (mpf("0.37"), mpf("0.83"))
    vals = [w.theta("gsp2", s, lam) for s in w.GSP2_WEYL]
    assert all(v != 0 for v in vals)
    # opposite chambers get equal-magnitude polynomials
    assert abs(vals[0] - vals[7]) < 1e-15  # s=1 and s1s2 both lam1*lam2
    vals3 = [w.theta("gl3", s, lam) for s in w.GL3_WEYL]
    assert abs(vals3[0] - vals3[5]) < 1e-15


def test_theta_rejects_unknown_group_and_element():
    with pytest.raises(ValueError, match="group"):
        w.theta("sp4", "1", (1, 2))
    with pytest.raises(ValueError, match="Weyl element"):
        w.theta("gl3", "s0", (1, 2))
    assert w.theta("gsp2", "s0s1", (1, 2)) == (1 + 2) * (-2 * 1 - 2)


def test_w_table_depends_only_on_abs():
    lam = (mpf("0.2"), mpf("0.1"))
    T = w.TruncParam(0.5, -0.3)
    a = w.NuEntries(3, 7, -2, 5, S2)
    b = w.NuEntries(-3, 1, 9, -5, S2)  # same |n12|, |n24|
    for s in w.GSP2_WEYL:
        assert abs(w.w_table("gsp2", s, lam, a, T) - w.w_table("gsp2", s, lam, b, T)) < 1e-20


def test_family_sum_smooth_at_zero():
    """sum w/theta converges along a ray even though each theta -> 0:
    the increments shrink geometrically toward the closed-form value."""
    nu = w.NuEntries(3, 1, 1, 5, S2)
    fam = w.family_m0(nu, T0)
    with mp.workdps(40):
        vals = []
        for k in (4, 8, 12, 16):
            lam = (mpf(1) / 2**k, mp.sqrt(2) / 2**k)
            vals.append(sum(f(lam) / th(lam) for f, th in fam))
        d1, d2, d3 = (abs(vals[i + 1] - vals[i]) for i in range(3))
        assert d2 < d1 / 4 and d3 < d2 / 4
        assert abs(vals[-1] - w.w_M0(nu, T0)) < abs(vals[0] - w.w_M0(nu, T0)) / 100


def test_w_m0_examples():
    assert abs(w.w_M0(w.NuEntries(1, 0, 0, 1, S2), T0)) < 1e-15
    assert abs(w.w_M0(w.NuEntries(1, 0, 0, 1, S2), w.TruncParam(1, 1)) - 2) < 1e-12
    got = w.w_M0(w.NuEntries(3, 0, 0, 1, S2), T0)
    assert abs(got - 2 * mp.ln(3) ** 2) < 1e-12


def test_w_m1_m2_examples():
    # radical case with det Y = 1 and T1 = 0
    nu = w.NuEntries(0, 1, 0, 1, S2)
    assert abs(w.w_M1(nu, T0)) < 1e-15
    # -log|2|_S vanishes for S = {oo, 2} by the product formula
    nu2 = w.NuEntries(1, 0, 0, 0, S2)
    assert abs(w.w_M2(nu2, T0, u24=1)) < 1e-15
    # the same entry at S = {oo} leaves -log 2
    nu2b = w.NuEntries(1, 0, 0, 0, PlaceSet.of())
    assert abs(w.w_M2(nu2b, T0, u24=1) + mp.ln(2)) < 1e-12


def test_gl3_closed_forms():
    nu = w.Nu3Entries(0, 5, 7, S2)
    got = w.w_Mp_gl3(nu, w.TruncParam(2, 3))
    assert abs(got - (mp.ln(w.height_S((5, 7), S2)) + 5)) < 1e-12
    assert abs(w.w_M0_gl3(w.Nu3Entries(1, 0, 1, S2), T0)) < 1e-15


def test_degenerate_inputs_named():
    with pytest.raises(w.DegenerateWeightError, match="nu12"):
        w.w_M0(w.NuEntries(0, 1, 1, 1, S2), T0)
    with pytest.raises(w.DegenerateWeightError, match="nu24"):
        w.w_M0(w.NuEntries(1, 1, 1, 0, S2), T0)
    with pytest.raises(w.DegenerateWeightError, match="det"):
        w.w_M1(w.NuEntries(0, 1, 1, 1, S2), T0)
    with pytest.raises(w.DegenerateWeightError, match="u24"):
        w.w_M2(w.NuEntries(1, 0, 0, 0, S2), T0, u24=0)


def test_sign_flip_symmetry():
    T = w.TruncParam(0.3, 0.7)
    a = w.w_M0(w.NuEntries(3, 1, 2, 5, S2), T)
    b = w.w_M0(w.NuEntries(-3, 1, 2, -5, S2), T)
    assert abs(a - b) < 1e-20


def test_zero_weights_at_unit_entries():
    """All T = 0 and all |entries|_S = 1 give 0 for every factor."""
    nu = w.NuEntries(1, 0, 0, 1, S2)
    assert abs(w.w_M0(nu, T0)) < 1e-15
    assert abs(w.w_M1(nu, T0, u12=1)) < 1e-15
    nu2 = w.NuEntries(2, 0, 0, 0, S2)  # |2|_S = 1
    assert abs(w.w_M2(nu2, T0, u24=2)) < 1e-15


def test_engine_cross_validation_sample():
    rng = random.Random(99)
    for S in (S2, S23):
        for _ in range(3):
            nu = w.NuEntries(
                Fraction(rng.randint(1, 9), rng.randint(1, 3)),
                Fraction(rng.randint(-9, 9)),
                Fraction(rng.randint(-9, 9)),
                Fraction(rng.randint(1, 9)),
                S,
            )
            T = w.TruncParam(rng.uniform(-1, 1), rng.uniform(-1, 1))
            lim, err = w.gm_family_limit(w.family_m0(nu, T))
            assert abs(lim - w.w_M0(nu, T)) < 1e-6


def test_engine_degenerate_constant_family():
    """A two-member constant family has the finite limit c*(a1 - a2)."""
    c = mpf(3)
    fam = [
        ((lambda lam: c * mp.e ** (lam[0] * 2)), (lambda lam: lam[0])),
        ((lambda lam: c * mp.e ** (lam[0] * -1)), (lambda lam: -lam[0])),
    ]
    lim, err = w.gm_family_limit(fam, dims=1)
    assert abs(lim - c * 3) < 1e-10


def test_engine_flags_invalid_family():
    """Members whose poles do not cancel must raise, not return garbage."""
    fam = [
        ((lambda lam: mp.e ** (lam[0])), (lambda lam: lam[0])),
        ((lambda lam: 2 * mp.e ** (-lam[0])), (lambda lam: -lam[0])),
    ]
    with pytest.raises(w.FamilyLimitError):
        w.gm_family_limit(fam, dims=1)


def _v_family(group, nu, T):
    names = w.GSP2_WEYL if group == "gsp2" else w.GL3_WEYL
    return [
        ((lambda lam, s=s: w.v_table(group, s, lam, nu, T)),
         (lambda lam, s=s: w.theta(group, s, lam)))
        for s in names
    ]


def _hull_area(pts):
    import math

    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)
    pts = sorted(set(pts), key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    area = 0.0
    for i in range(len(pts)):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % len(pts)]
        area += x1 * y2 - x2 * y1
    return abs(area) / 2


def test_v_family_limit_is_weyl_polytope_volume():
    """At trivial unipotent entries the chamber-family limit equals the
    volume of the convex hull of the Weyl orbit of T (shoelace oracle);
    this pins the exponent rows, the theta table, and the measure at once."""
    for T1, T2 in ((1.5, 1.0), (1.8, 1.2), (2.9, 1.7)):
        T = w.TruncParam(T1, T2)
        nu0 = w.NuEntries(0, 0, 0, 0, S2)
        lim, _ = w.gm_family_limit(_v_family("gsp2", nu0, T))
        coroot = {  # (a,b) with sT = a alpha1^ + b alpha2^, read off the exponents
            "1": (T1, T2), "s0": (T1, T1 - T2), "s2": (2 * T2 - T1, T2),
            "s0s1": (T1 - 2 * T2, T1 - T2), "s0s2": (2 * T2 - T1, T2 - T1),
            "s1": (T1 - 2 * T2, -T2), "s0s1s2": (-T1, T2 - T1), "s1s2": (-T1, -T2),
        }
        pts = [(b, a - b) for a, b in coroot.values()]  # unimodular e-coordinates
        assert abs(float(lim) - _hull_area(pts)) < 1e-9
    for T1, T2 in ((1.2, 1.0), (2.0, 1.5)):
        T = w.TruncParam(T1, T2)
        nu0 = w.Nu3Entries(0, 0, 0, S2)
        lim, _ = w.gm_family_limit(_v_family("gl3", nu0, T))
        pts = [(T1, T2), (T2 - T1, T2), (T1, T1 - T2),
               (-T2, T1 - T2), (T2 - T1, -T1), (-T2, -T1)]
        assert abs(float(lim) - _hull_area(pts)) < 1e-9


def test_v_table_wall_compatibility():
    """Adjacent chambers must agree on their shared walls; every wall line
    carries exactly two agreeing pairs (this catches any wrong height row)."""
    T = w.TruncParam(1.6, 1.1)
    cases = [
        ("gsp2", w.NuEntries(Fraction(2), Fraction(3), Fraction(5), Fraction(7), S2),
         w.GSP2_WEYL, [(0, 1), (1, 0), (1, -1), (1, -2)]),
        ("gl3", w.Nu3Entries(Fraction(2), Fraction(3), Fraction(5), S23),
         w.GL3_WEYL, [(0, 1), (1, 0), (1, -1)]),
    ]
    with mp.workdps(35):
        for group, nu, names, walls in cases:
            for direc in walls:
                lam = (mpf(direc[0]) * mpf("0.37"), mpf(direc[1]) * mpf("0.37"))
                vals = {s: w.v_table(group, s, lam, nu, T) for s in names}
                groups = []
                for s, v in vals.items():
                    for g in groups:
                        if abs(vals[g[0]] - v) < mpf("1e-20") * (1 + abs(v)):
                            g.append(s)
                            break
                    else:
                        groups.append([s])
                pairs = [g for g in groups if len(g) == 2]
                assert len(pairs) == 2, (group, direc, groups)


def test_v_family_limit_finite_at_generic_entries():
    """The chamber functions form a compatible family for every unipotent
    element, so the limit engine must converge (not flag instability)."""
    rng = random.Random(42)
    T = w.TruncParam(1.6, 1.1)
    for _ in range(4):
        nu = w.NuEntries(
            Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)),
            Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)), S2,
        )
        lim, err = w.gm_family_limit(_v_family("gsp2", nu, T))
        assert err < 1e-10


# one document per family shape: weights --which W --nu NU [--u U] --T 1,0 --S S
ENGINE_CASES = {
    "m0": ("m0", "-9/4,-1/2,9/4,5/2", None, "2,3"),
    "m1-radical": ("m1", "0,2,-1/2,3", None, "2"),
    "m1-levi": ("m1", "-9/4,-1/2,9/4,5/2", "7/5", "2,3"),
    "m2-radical": ("m2", "1,-2,3,0", None, "2,3"),
    "m2-levi": ("m2", "3,1,-2,1", "-1/2", "2"),
    "gl3-m0": ("gl3-m0", "2,-1,3", None, "2,3"),
    "gl3-mp-radical": ("gl3-mp", "0,1,-3", None, "2"),
    "gl3-mp-levi": ("gl3-mp", "5/3,2,-7/2", "7/5", "2,3"),
}


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_engine_error_covers_the_closed_form_at_60_digits(case):
    """The engine's error bar is honest: |engine_limit - closed form at 60
    digits| <= engine_error for the weights command, which builds the family
    at the default 15 digits; the engine takes every constant of the family
    at its own precision."""
    from tracecoef.cli import build_parser, cmd_weights

    which, nu, u, S = ENGINE_CASES[case]
    argv = ["weights", "--which", which, f"--nu={nu}", "--T", "1,0", "--S", S, "--engine"]
    args = build_parser().parse_args(argv + ([f"--u={u}"] if u else []))
    res = cmd_weights(args)["result"]
    entries = [Fraction(x) for x in nu.split(",")]
    place_set = PlaceSet.of(*map(int, S.split(",")))
    T = w.TruncParam(1, 0)
    extra = () if which.endswith("m0") else (Fraction(u) if u else None,)
    with mp.workdps(60):
        nu_ = (w.Nu3Entries if which.startswith("gl3") else w.NuEntries)(*entries, place_set)
        closed = {"m0": w.w_M0, "m1": w.w_M1, "m2": w.w_M2,
                  "gl3-m0": w.w_M0_gl3, "gl3-mp": w.w_Mp_gl3}[which](nu_, T, *extra)
        assert abs(res["engine_limit"] - closed) <= res["engine_error"]
        assert abs(res["closed_form"] - closed) < mpf(10) ** -35
