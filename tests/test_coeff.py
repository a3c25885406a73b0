"""Coefficient formulas for the six groups and the difference report.

Oracles: Laurent data and L-values from the lfun kernel (independently
validated in test_lfun), class-number L-values, and direct re-assembly of
each displayed formula from its constituents.
"""
import contextlib
import io
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from tracecoef.arith import PlaceSet, sclass_reps
from tracecoef.characters import QuadChar
from tracecoef.cli import JsonlCache
from tracecoef import lfun
from tracecoef.coeff import (
    CoeffResult,
    VolumeParams,
    centralizer_example_coeff,
    coeff_gl2,
    coeff_gl3,
    coeff_gsp2,
    coeff_sl2,
    coeff_sl3,
    coeff_sp2,
    coeff_unipotent,
    endoscopic_diff,
)
from tracecoef.quadforms import OrbitClass, SymForm2, hasse, unipotent_orbit_set
from tracecoef.shintani import l1_class_number, shintani_run

S_OO = PlaceSet.of()
S2 = PlaceSet.of(2)
S23 = PlaceSet.of(2, 3)
X_SUB = 10**4  # the Shintani truncation bound of the subregular tests

GAMMA0_STR = "0.577215664901532860606512090082402431042"


def test_gl2_example():
    with mp.workdps(35):
        assert abs(coeff_gl2(S_OO).value - mpf(GAMMA0_STR) / 2) < mpf("1e-28")


def test_sl2_equals_gl2_over_oo():
    for alpha in (1, -1, 7, Fraction(3, 5)):
        assert coeff_sl2(S_OO, alpha).value == coeff_gl2(S_OO).value


def test_sl2_example_class_number_oracle():
    """(1/2)[gamma/2 + ln2/2 + pi/4 + L(1,chi_8) + L(1,chi_-8)] with the
    L-values re-derived through class numbers and regulators."""
    got = coeff_sl2(S2, 1).value
    with mp.workdps(35):
        expected = (
            mpf(GAMMA0_STR) / 2
            + mp.ln(2) / 2
            + l1_class_number(-4, digits=30)
            + l1_class_number(8, digits=30)
            + l1_class_number(-8, digits=30)
        ) / 2
        assert abs(got - expected) < mpf("1e-20")


def test_sl2_depends_on_class_only():
    assert coeff_sl2(S2, 3).value == coeff_sl2(S2, Fraction(27, 4)).value


def test_sl2_averaging():
    reps = sclass_reps(S2)
    avg = sum((coeff_sl2(S2, r.value).value for r in reps), mpf(0)) / len(reps)
    assert abs(avg - coeff_gl2(S2).value) < mpf("1e-12")


def test_gl3_examples():
    got = coeff_gl3(S_OO, "min").value
    with mp.workdps(35):
        expected = lfun.deriv_LS(2, None, S_OO, 30) / lfun.zetaS(2, S_OO, 30)
        assert abs(got - expected) < mpf("1e-25")
        assert abs(got + mpf("0.569960993094532806399864360019730002")) < mpf("1e-25")
        ld = lfun.laurent_at_1(None, S2)
        got = coeff_gl3(S2, "reg").value
        assert abs(got - (ld.c0**2 + ld.c1 * ld.residue) / 3) < mpf("1e-20")


def test_sl3_cubic_sum():
    # no cubic characters over {oo,2}: SL(3) equals GL(3)
    assert coeff_sl3(S2, "reg", 1).value == coeff_gl3(S2, "reg").value
    # over {oo,2,7} the pair chi, chi^2 adds a real positive term at alpha=1
    S27 = PlaceSet.of(2, 7)
    from tracecoef.characters import enum_cubic_chars

    ch = enum_cubic_chars(S27)[0]
    got = coeff_sl3(S27, "reg", 1).value
    with mp.workdps(40):
        L = lfun.LS(1, ch, S27)
        add = 2 * mp.re(L * lfun.LS(1, ch.inverse(), S27)) / 3
        assert abs(got - (coeff_gl3(S27, "reg").value + add)) < mpf("1e-20")
    assert add > 0
    assert abs(mp.im(got)) == 0


def test_gsp2_examples():
    with mp.workdps(35):
        assert abs(coeff_gsp2(S2, "min").value - mp.pi**2 / 16) < mpf("1e-25")
    with mp.workdps(40):
        ld = lfun.laurent_at_1(None, S2)
        got = coeff_gsp2(S2, "reg").value
        assert abs(got - (ld.c0**2 / 2 + mpf(3) / 4 * ld.c1 * ld.residue)) < mpf("1e-20")


def test_gsp2_sub_derivative_term_presence():
    c = JsonlCache(None)  # in memory
    r1 = coeff_gsp2(S2, SymForm2.x_alpha(1), X=X_SUB, cache=c)
    r3 = coeff_gsp2(S2, SymForm2.x_alpha(3), X=X_SUB, cache=c)
    names1 = [n for t in r1.terms for n, _ in t.factors]
    names3 = [n for t in r3.terms for n, _ in t.factors]
    assert any("dzeta" in n for n in names1)       # x ~ x_1: derivative term
    assert not any("dzeta" in n for n in names3)   # x not ~ x_1: absent
    # the x_1 class coefficient = C_F(S,1)/2 + derivative/2
    cf = shintani_run(1, S2, X_SUB, c).constant_CF
    deriv = lfun.deriv_LS(3, None, S2) / lfun.zetaS(3, S2)
    assert abs(r1.value - (mpf(cf) / 2 + deriv / 2)) < mpf("1e-12")


def test_sp2_min_example():
    got = coeff_sp2(S2, "min", 1).value
    with mp.workdps(35):
        expected = (
            lfun.zetaS(2, S2, 30)
            + lfun.LS(2, QuadChar(-4), S2, 30)
            + lfun.LS(2, QuadChar(8), S2, 30)
            + lfun.LS(2, QuadChar(-8), S2, 30)
        ) / 2
        assert abs(got - expected) < mpf("1e-20")


def test_sp2_min_depends_on_class_only():
    assert coeff_sp2(S2, "min", 3).value == coeff_sp2(S2, "min", 27).value
    assert coeff_sp2(S2, "min", 3).value != coeff_sp2(S2, "min", 1).value


def test_sp2_reg_square_alpha_maximal():
    """chi_S(alpha) = 1 for squares: every character contributes positively."""
    vals = {a: float(coeff_sp2(S2, "reg", a).value) for a in (1, -1, 2, 3)}
    assert max(vals.values()) == vals[1]


def test_sp2_sub_hasse_and_unramified_sum():
    x_m1 = SymForm2.x_alpha(-1)  # -det = -1: Q_ur = {-1}, eps product +1
    r = coeff_sp2(S2, x_m1, X=X_SUB)
    names = [n for t in r.terms for n, _ in t.factors]
    assert any("L^S(1,chi_-4)" in n for n in names)
    prod = 1
    for v in S2:
        prod *= hasse(x_m1, v)
    assert prod == 1
    # x_1: -det = 1 has empty Q_ur and carries the derivative term
    r1 = coeff_sp2(S2, SymForm2.x_alpha(1), X=X_SUB)
    names1 = [n for t in r1.terms for n, _ in t.factors]
    assert not any("L^S(1,chi" in n for n in names1)
    assert any("dzeta" in n for n in names1)


def test_structured_terms_sum_to_value():
    with mp.workdps(45):
        for res in (
            coeff_sl2(S23, 5),
            coeff_sp2(S2, "reg", -2),
            coeff_gl3(S23, "reg"),
        ):
            total = sum((t.value for t in res.terms), mpf(0))
            assert abs(total - res.value) < mpf("1e-40")


def test_values_are_evaluated_once_per_object(monkeypatch):
    """A diff document reads the value of each term and result several
    times (endoscopic_diff, the term list, the report); each product is
    evaluated once per object."""
    from tracecoef import cli, coeff as coeffmod

    evaluated = []  # the objects themselves, so no id is reused
    for cls in (coeffmod.CoeffTerm, coeffmod.CoeffResult):
        prop = cls.__dict__["value"]
        monkeypatch.setattr(prop, "func",
                            lambda self, real=prop.func: evaluated.append(self) or real(self))
    for orbit in ("min", "reg"):
        evaluated.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["diff", f"--orbit={orbit}", "--alpha=3", "--S=2,3", "--json"]) == 0
        assert evaluated and len({id(x) for x in evaluated}) == len(evaluated)


def test_volumes_scale_linearly():
    vols = VolumeParams(vol_m2=2.5)
    with mp.workdps(40):
        assert abs(coeff_gsp2(S2, "min", vols).value
                   - mpf("2.5") * coeff_gsp2(S2, "min").value) < mpf("1e-30")
    with pytest.raises(ValueError):
        VolumeParams(vol_m0=-1)


def test_coeff_unipotent_dispatch():
    for S, group in ((S2, "gsp2"), (S2, "sl2"), (S23, "sl3")):
        for orbit in unipotent_orbit_set(group, S)[:4]:
            res = coeff_unipotent(orbit, S, X=X_SUB)
            assert isinstance(res, CoeffResult)
    tri = unipotent_orbit_set("gl2", S2)[0]
    assert coeff_unipotent(tri, S2).value == 1  # vol_G with vol 1


@pytest.mark.parametrize("group", ["gl2", "sl2", "gl3", "sl3"])
def test_coeff_unipotent_rejects_sub_for_groups_without_one(group):
    for typ in ("sub", "sub'"):
        with pytest.raises(ValueError, match="no subregular"):
            coeff_unipotent(OrbitClass(group, typ, SymForm2.x_alpha(3)), S2)


def test_centralizer_families():
    ld = lfun.laurent_at_1(None, S2)
    with mp.workdps(40):
        assert abs(centralizer_example_coeff("gl2", {}, S2).value - ld.c0 / 2) < mpf("1e-30")
    # unitary family with E = Q(i): delta = 1 over {oo,2}, pi/4 enters
    r = centralizer_example_coeff("u11", {"d": -1, "alpha": 1}, S2)
    with mp.workdps(35):
        assert abs(r.value - (ld.c0 + mp.pi / 4) / 2) < mpf("1e-15")
    assert r.notes["delta_ES"] == 1
    # same family with E ramified outside S: the second term drops
    r2 = centralizer_example_coeff("u11", {"d": -3, "alpha": 1}, S2)
    assert r2.notes["delta_ES"] == 0
    with mp.workdps(40):
        assert abs(r2.value - ld.c0 / 2) < mpf("1e-30")
    with pytest.raises(ValueError):
        centralizer_example_coeff("nope", {}, S2)


def test_endoscopic_min_example():
    d = endoscopic_diff(S2, "min", 1)
    with mp.workdps(35):
        expected = (
            lfun.LS(2, QuadChar(-4), S2, 30)
            + lfun.LS(2, QuadChar(8), S2, 30)
            + lfun.LS(2, QuadChar(-8), S2, 30)
        ) / 2
        assert abs(d["predicted"].value - expected) < mpf("1e-20")
    assert abs(d["difference"].value - d["predicted"].value) < mpf("1e-10")


def test_endoscopic_reg_two_path():
    for S in (S2, S23):
        for alpha in (1, -1, 3):
            d = endoscopic_diff(S, "reg", alpha)
            assert abs(d["difference"].value - d["predicted"].value) < mpf("1e-10")


def test_endoscopic_sub_cases():
    # empty unramified set and distinct det class: difference exactly 0
    d = endoscopic_diff(S2, "sub", SymForm2.x_alpha(3), X=X_SUB)
    assert abs(d["predicted"].value) == 0
    assert abs(d["difference"].value) < 1e-12
    # nonempty unramified set
    d = endoscopic_diff(S2, "sub", SymForm2.x_alpha(-1), X=X_SUB)
    assert abs(d["difference"].value - d["predicted"].value) <= d["difference"].error + 1e-12
    assert float(d["predicted"].value) > 0


def test_endoscopic_sub_runs_pole_data_once(monkeypatch):
    """Both groups share one Shintani run: one build_terms call per report,
    and each group's coefficient is what it is on its own."""
    from tracecoef import shintani

    calls = []
    build = shintani.build_terms
    monkeypatch.setattr(shintani, "build_terms", lambda *a, **k: calls.append(a) or build(*a, **k))
    x = SymForm2.x_alpha(-1)
    d = endoscopic_diff(S2, "sub", x, X=X_SUB)
    assert len(calls) == 1
    assert d["sp2"].value == coeff_sp2(S2, x, X=X_SUB).value
    assert d["gsp2"].value == coeff_gsp2(S2, x, X=X_SUB).value
    assert len(calls) == 3
