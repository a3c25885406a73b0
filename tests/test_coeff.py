"""Coefficient formulas for the six groups and the difference report.

Oracles: Laurent data and L-values from the lfun kernel (independently
validated in test_lfun), class-number L-values, and direct re-assembly of
each displayed formula from its constituents.
"""
import contextlib
import io
import pathlib
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from tracecoef.arith import PlaceSet, sclass_reps
from tracecoef.characters import QuadChar
from tracecoef.cli import JsonlCache, _coeff_doc, render_json
from tracecoef import lfun
from tracecoef.coeff import (
    CoeffResult,
    VolumeParams,
    coeff_unipotent,
    descent_coeff,
    endoscopic_diff,
)
from tracecoef.quadforms import (OrbitClass, SymForm2, centralizer_classify, hasse,
                                 unipotent_orbit_set)
from tracecoef.shintani import l1_class_number, shintani_run

S_OO = PlaceSet.of()
S2 = PlaceSet.of(2)
S23 = PlaceSet.of(2, 3)
X_SUB = 10**4  # the Shintani truncation bound of the subregular tests

GAMMA0_STR = "0.577215664901532860606512090082402431042"


def coeff(S, group, typ, param=None, **kw):
    """The coefficient of the class (group, typ, param) through coeff_unipotent."""
    return coeff_unipotent(OrbitClass(group, typ, param), S, **kw)


def test_gl2_example():
    with mp.workdps(35):
        assert abs(coeff(S_OO, "gl2", "reg").value - mpf(GAMMA0_STR) / 2) < mpf("1e-28")


def test_sl2_equals_gl2_over_oo():
    for alpha in (1, -1, 7, Fraction(3, 5)):
        assert coeff(S_OO, "sl2", "reg", alpha).value == coeff(S_OO, "gl2", "reg").value


def test_sl2_example_class_number_oracle():
    """(1/2)[gamma/2 + ln2/2 + pi/4 + L(1,chi_8) + L(1,chi_-8)] with the
    L-values re-derived through class numbers and regulators."""
    got = coeff(S2, "sl2", "reg", 1).value
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
    assert coeff(S2, "sl2", "reg", 3).value == coeff(S2, "sl2", "reg", Fraction(27, 4)).value


def test_sl2_averaging():
    reps = sclass_reps(S2)
    avg = sum((coeff(S2, "sl2", "reg", r.value).value for r in reps), mpf(0)) / len(reps)
    assert abs(avg - coeff(S2, "gl2", "reg").value) < mpf("1e-12")


def test_gl3_examples():
    got = coeff(S_OO, "gl3", "min").value
    with mp.workdps(35):
        expected = lfun.deriv_LS(2, None, S_OO, 30) / lfun.zetaS(2, S_OO, 30)
        assert abs(got - expected) < mpf("1e-25")
        assert abs(got + mpf("0.569960993094532806399864360019730002")) < mpf("1e-25")
        ld = lfun.laurent_at_1(None, S2)
        got = coeff(S2, "gl3", "reg").value
        assert abs(got - (ld.c0**2 + ld.c1 * ld.residue) / 3) < mpf("1e-20")


def test_sl3_cubic_sum():
    # no cubic characters over {oo,2}: SL(3) equals GL(3)
    assert coeff(S2, "sl3", "reg", 1).value == coeff(S2, "gl3", "reg").value
    # over {oo,2,7} the pair chi, chi^2 adds a real positive term at alpha=1
    S27 = PlaceSet.of(2, 7)
    from tracecoef.characters import enum_cubic_chars

    ch = enum_cubic_chars(S27)[0]
    got = coeff(S27, "sl3", "reg", 1).value
    with mp.workdps(40):
        L = lfun.LS(1, ch, S27)
        add = 2 * mp.re(L * lfun.LS(1, ch.inverse(), S27)) / 3
        assert abs(got - (coeff(S27, "gl3", "reg").value + add)) < mpf("1e-20")
    assert add > 0
    assert abs(mp.im(got)) == 0


def test_gsp2_examples():
    with mp.workdps(35):
        assert abs(coeff(S2, "gsp2", "min").value - mp.pi**2 / 16) < mpf("1e-25")
    with mp.workdps(40):
        ld = lfun.laurent_at_1(None, S2)
        got = coeff(S2, "gsp2", "reg").value
        assert abs(got - (ld.c0**2 / 2 + mpf(3) / 4 * ld.c1 * ld.residue)) < mpf("1e-20")


def test_gsp2_sub_derivative_term_presence():
    c = JsonlCache(None)  # in memory
    r1 = coeff(S2, "gsp2", "sub", SymForm2.x_alpha(1), X=X_SUB, cache=c)
    r3 = coeff(S2, "gsp2", "sub", SymForm2.x_alpha(3), X=X_SUB, cache=c)
    names1 = [n for t in r1.terms for n, _ in t.factors]
    names3 = [n for t in r3.terms for n, _ in t.factors]
    assert any("dzeta" in n for n in names1)       # x ~ x_1: derivative term
    assert not any("dzeta" in n for n in names3)   # x not ~ x_1: absent
    # the x_1 class coefficient = C_F(S,1)/2 + derivative/2
    cf = shintani_run(1, S2, X_SUB, c).constant_CF
    deriv = lfun.deriv_LS(3, None, S2) / lfun.zetaS(3, S2)
    assert abs(r1.value - (mpf(cf) / 2 + deriv / 2)) < mpf("1e-12")


def test_sp2_min_example():
    got = coeff(S2, "sp2", "min", 1).value
    with mp.workdps(35):
        expected = (
            lfun.zetaS(2, S2, 30)
            + lfun.LS(2, QuadChar(-4), S2, 30)
            + lfun.LS(2, QuadChar(8), S2, 30)
            + lfun.LS(2, QuadChar(-8), S2, 30)
        ) / 2
        assert abs(got - expected) < mpf("1e-20")


def test_sp2_min_depends_on_class_only():
    assert coeff(S2, "sp2", "min", 3).value == coeff(S2, "sp2", "min", 27).value
    assert coeff(S2, "sp2", "min", 3).value != coeff(S2, "sp2", "min", 1).value


def test_sp2_reg_square_alpha_maximal():
    """chi_S(alpha) = 1 for squares: every character contributes positively."""
    vals = {a: float(coeff(S2, "sp2", "reg", a).value) for a in (1, -1, 2, 3)}
    assert max(vals.values()) == vals[1]


def test_sp2_sub_hasse_and_unramified_sum():
    x_m1 = SymForm2.x_alpha(-1)  # -det = -1: Q_ur = {-1}, eps product +1
    r = coeff(S2, "sp2", "sub", x_m1, X=X_SUB)
    names = [n for t in r.terms for n, _ in t.factors]
    assert any("L^S(1,chi_-4)" in n for n in names)
    prod = 1
    for v in S2:
        prod *= hasse(x_m1, v)
    assert prod == 1
    # x_1: -det = 1 has empty Q_ur and carries the derivative term
    r1 = coeff(S2, "sp2", "sub", SymForm2.x_alpha(1), X=X_SUB)
    names1 = [n for t in r1.terms for n, _ in t.factors]
    assert not any("L^S(1,chi" in n for n in names1)
    assert any("dzeta" in n for n in names1)


def test_structured_terms_sum_to_value():
    with mp.workdps(45):
        for res in (
            coeff(S23, "sl2", "reg", 5),
            coeff(S2, "sp2", "reg", -2),
            coeff(S23, "gl3", "reg"),
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
        assert abs(coeff(S2, "gsp2", "min", vols=vols).value
                   - mpf("2.5") * coeff(S2, "gsp2", "min").value) < mpf("1e-30")
    with pytest.raises(ValueError):
        VolumeParams(vol_m0=-1)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([S2, S23]),
       st.sampled_from([("gl2", "sl2", "reg"), ("gsp2", "sp2", "min"), ("gsp2", "sp2", "reg")]),
       st.integers(-60, 60).filter(bool), st.integers(1, 9))
def test_similitude_group_takes_the_trivial_character_term(S, groups, num, den):
    """GL(2) and GSp(2) are the trivial character's term of the SL(2) and Sp(2)
    sums: rendered, their terms equal byte for byte the terms of the special
    group's sum at any alpha that name no nontrivial character."""
    similitude, special, typ = groups
    want = render_json(_coeff_doc(coeff(S, similitude, typ))["terms"])
    terms = _coeff_doc(coeff(S, special, typ, Fraction(num, den)))["terms"]
    trivial = [t for t in terms if not any("chi_" in f["name"] for f in t["factors"])]
    assert len(trivial) < len(terms)
    assert render_json(trivial) == want


def test_readme_library_example_runs():
    """The Python example of the README runs and prints what its comments say."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    catalan, sp2_min, residue = (float(x) for x in out.getvalue().split())
    assert catalan == float(mp.catalan)
    with mp.workdps(35):
        expected = (lfun.zetaS(2, S2, 30) + lfun.LS(2, QuadChar(-4), S2, 30)
                    + lfun.LS(2, QuadChar(8), S2, 30) + lfun.LS(2, QuadChar(-8), S2, 30)) / 2
    assert abs(sp2_min - float(expected)) < 1e-14
    assert abs(residue - 1 / 8) < 1e-3


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
    gl2pair = centralizer_classify("sigma1")
    with mp.workdps(40):
        assert abs(descent_coeff(gl2pair, "u_{1,0}", S2).value - ld.c0 / 2) < mpf("1e-30")
    # unitary family with E = Q(i): delta = 1 over {oo,2}, pi/4 enters
    r = descent_coeff(centralizer_classify("sigma5", -1, 1, 1), "u_beta", S2, params={"alpha": 1})
    with mp.workdps(35):
        assert abs(r.value - (ld.c0 + mp.pi / 4) / 2) < mpf("1e-15")
    assert r.notes["delta_ES"] == 1
    # same family with E ramified outside S: the second term drops
    r2 = descent_coeff(centralizer_classify("sigma5", -3, 1, 1), "u_beta", S2, params={"alpha": 1})
    assert r2.notes["delta_ES"] == 0
    with mp.workdps(40):
        assert abs(r2.value - ld.c0 / 2) < mpf("1e-30")
    with pytest.raises(ValueError):
        descent_coeff(gl2pair, "nope", S2)


@pytest.mark.parametrize("u, params", [("u_bogus", None), ("u_{1,0}", {"alpha": 3}),
                                       ("u_beta", {"beta": 3}), ("u_beta", {"alpha": 3, "x": 1})],
                         ids=["unknown-u", "gl2pair-u", "beta-key", "extra-key"])
def test_unitary_family_refuses_another_u_or_params_key(u, params):
    """sigma5 reads its orbit u_beta and beta from params["alpha"] only: another
    u, or a params key other than alpha, is refused as sigma1 refuses an
    unknown u, never served the u_beta value."""
    with pytest.raises(ValueError, match="u_beta"):
        descent_coeff(centralizer_classify("sigma5", -1, 1, 1), u, S2, params=params)


@pytest.mark.parametrize("u, params", [("u_bogus", None), ("u_{alpha,1}", {"beta": 3}),
                                       ("u_{1,0}", {"alpha": 3}), ("u_{0,1}", {"alpha": 3})],
                         ids=["unknown-u", "beta-key", "first-params", "second-params"])
def test_gl2pair_family_refuses_another_u_or_params(u, params):
    """sigma1 reads alpha from params for u_{alpha,1} alone: a params key other
    than alpha, or any params on u_{1,0} and u_{0,1}, is refused, never served
    the value without them."""
    with pytest.raises(ValueError, match="gl2pair"):
        descent_coeff(centralizer_classify("sigma1"), u, S2, params=params)


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
    assert d["sp2"].value == coeff(S2, "sp2", "sub", x, X=X_SUB).value
    assert d["gsp2"].value == coeff(S2, "gsp2", "sub", x, X=X_SUB).value
    assert len(calls) == 3
