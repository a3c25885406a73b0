"""Binary forms, Hasse profiles, orbit enumeration, centralizers."""
import random
from fractions import Fraction

import pytest

from tracecoef.arith import OO, PlaceSet, is_square_at, sclass_reps
from tracecoef.quadforms import (
    OrbitClass,
    SymForm2,
    centralizer_classify,
    descent_coeff,
    diagonalize,
    enum_form_classes,
    hasse,
    hasse_profile,
    is_equiv,
    realizable_eps,
    unipotent_orbit_set,
)

S2 = PlaceSet.of(2)
S23 = PlaceSet.of(2, 3)
X1 = SymForm2.x_alpha(1)


def test_diagonalize_examples():
    assert diagonalize(X1) == (1, -1)
    assert diagonalize(SymForm2(0, 1, 0)) == (2, Fraction(-1, 2))
    with pytest.raises(ValueError):
        SymForm2(1, 1, 1)  # det = 0


def test_diagonalize_congruence_invariants():
    rng = random.Random(11)
    for _ in range(40):
        while True:
            f = SymForm2.__new__(SymForm2)
            try:
                f = SymForm2(
                    Fraction(rng.randint(-6, 6)),
                    Fraction(rng.randint(-6, 6)),
                    Fraction(rng.randint(-6, 6)),
                )
                break
            except ValueError:
                continue
        a, b = diagonalize(f)
        # alpha*beta agrees with det up to a rational square
        ratio = (a * b) / f.det
        assert ratio > 0 and is_square_at(ratio, 2) and is_square_at(ratio, 3)


def test_hasse_examples():
    assert hasse(X1, OO) == -1
    assert hasse(X1, 2) == -1
    for p in (3, 5, 7, 11):
        assert hasse(X1, p) == 1


def test_hasse_congruence_invariance():
    rng = random.Random(12)
    forms = [X1, SymForm2(0, 1, 0), SymForm2(2, 1, -3), SymForm2(5, 2, 1)]
    for f in forms:
        for _ in range(25):
            while True:
                g = [
                    [Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))],
                    [Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))],
                ]
                if g[0][0] * g[1][1] - g[0][1] * g[1][0] != 0:
                    break
            h = f.congruent_by(g)
            for v in (OO, 2, 3, 5):
                assert hasse(h, v) == hasse(f, v), (f, g, v)


def test_equivalence_examples():
    x4 = SymForm2.x_alpha(4)
    for S in (S2, S23):
        assert is_equiv(X1, x4, S, "det")
    # same det and same Hasse profile by symmetry of the formula
    y = SymForm2(-1, 0, 1)
    assert is_equiv(X1, y, S2, "det+hasse")
    x17 = SymForm2.x_alpha(17)
    assert is_equiv(X1, x17, S2, "det")
    assert not is_equiv(X1, SymForm2.x_alpha(3), S2, "det")


def test_det_classifies_relation():
    """is_equiv under "det" iff det ratio is a square at every v in S."""
    rng = random.Random(13)
    forms = []
    while len(forms) < 8:
        try:
            forms.append(
                SymForm2(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6))
            )
        except ValueError:
            pass
    for x in forms:
        for y in forms:
            lhs = is_equiv(x, y, S2, "det")
            rhs = all(is_square_at(x.det / y.det, v) for v in S2)
            assert lhs == rhs


def test_realizable_eps_dichotomy():
    # det < 0 (so -det > 0) admits one value at the real place; det > 0 two
    assert realizable_eps(OO, 1) == frozenset({-1})
    assert realizable_eps(OO, -1) == frozenset({1, -1})
    for v in (2, 3, 5, 7):
        for d in (1, -1, 2, -2, 3, 5):
            n = len(realizable_eps(v, d))
            assert n in (1, 2)


def test_enum_form_classes_counts():
    cls = enum_form_classes(S2, "det")
    assert len(cls) == 16
    clsH = enum_form_classes(S2, "det+hasse")
    # every representative has the shape diag(u, -alpha u)
    for f in clsH:
        assert f.b == 0
    # pairwise inequivalent and the count matches the per-class products
    keys = {tuple(hasse_profile(f, S2).items()) + (f.det,) for f in clsH}
    total = 0
    for a in sclass_reps(S2):
        prod = 1
        for v in S2:
            prod *= len(realizable_eps(v, a.value))
        total += prod
    assert len(clsH) == total == 45


def test_unipotent_orbit_sets():
    assert [o.type for o in unipotent_orbit_set("gl2", S2)] == ["tri", "reg"]
    assert len(unipotent_orbit_set("sl2", S2)) == 1 + 16
    sl3 = unipotent_orbit_set("sl3", S2)
    assert [o.type for o in sl3[:2]] == ["tri", "min"]
    assert sorted(o.param.value for o in sl3[2:]) == [1, 2, 4]
    gsp2 = unipotent_orbit_set("gsp2", S2)
    assert len(gsp2) == 3 + 16
    assert sum(1 for o in gsp2 if o.type == "sub'") == 1
    sp2 = unipotent_orbit_set("sp2", S2)
    assert len(sp2) == 1 + 16 + 45 + 16
    with pytest.raises(ValueError):
        unipotent_orbit_set("gsp2", PlaceSet.of(3))


def test_hasse_product_over_unramified_classes():
    """prod_{v in S} eps_v(x_d) = 1 for the unramified classes (2 in S)."""
    from tracecoef.characters import disc_classes

    for S in (S2, S23):
        for a in sclass_reps(S):
            for d in disc_classes(S, a, kind="Q_ur").entries:
                f = SymForm2.x_alpha(d)
                prod = 1
                for v in S:
                    prod *= hasse(f, v)
                assert prod == 1, (S, d)


def test_centralizer_classify():
    c = centralizer_classify("z")
    assert c.eps_flag == 1 and c.iota_order == 1 and c.centralizer_tag == "GSp2"
    c1 = centralizer_classify("sigma1")
    assert "GL2xGL2" in c1.centralizer_tag and c1.eps_flag == 1
    c4 = centralizer_classify("sigma4", 5)
    assert "det g in Gm" in c4.centralizer_tag and c4.eps_flag == 1
    assert centralizer_classify("sigma2", 3).eps_flag == 0
    assert centralizer_classify("sigma5", 5, 1, 1).eps_ambiguous
    with pytest.raises(ValueError):
        centralizer_classify("sigma2", 1)
    with pytest.raises(ValueError):
        centralizer_classify("sigma3", -1)
    with pytest.raises(ValueError):
        centralizer_classify("sigma4", 4)
    with pytest.raises(ValueError):
        centralizer_classify("sigma6", 5, 2, 1)  # 4-5 != 1


def test_descent_identity_for_central_sigma():
    from tracecoef.coeff import coeff_gl2

    sig = centralizer_classify("z")
    orbit = OrbitClass("gl2", "reg")
    out = descent_coeff(sig, orbit, S2)
    assert abs(out.value - coeff_gl2(S2).value) == 0


def test_descent_sigma1_examples():
    from tracecoef import lfun

    from mpmath import mp, mpf
    from tracecoef.characters import enum_quad_chars

    sig = centralizer_classify("sigma1")
    with mp.workdps(40):
        ld = lfun.laurent_at_1(None, S2)
        out = descent_coeff(sig, "u_{1,0}", S2)
        assert abs(out.value - ld.c0 / 2) < mpf("1e-25")
        out = descent_coeff(sig, "u_{alpha,1}", S2, params={"alpha": 1})
        # vol/(4 c_F^2) sum_chi chi_S(alpha) c0(S,chi)^2
        expected = sum(
            (lfun.laurent_at_1(None if ch.is_trivial else ch, S2).c0) ** 2
            for ch in enum_quad_chars(S2)
        ) / 4
        assert abs(out.value - expected) < mpf("1e-20")


def test_descent_eps_zero_and_unsupported():
    sig2 = centralizer_classify("sigma2", 3)
    assert descent_coeff(sig2, "u_1", S2).value == 0  # eps = 0 kills the class
    sig4 = centralizer_classify("sigma4", 5)
    with pytest.raises(NotImplementedError):
        descent_coeff(sig4, "u_1", S2)
    sig6 = centralizer_classify("sigma6", 5, 9, 4)  # 81 - 5*16 = 1
    with pytest.raises(NotImplementedError):
        descent_coeff(sig6, "u_1", S2)


def test_descent_sigma5_uses_unitary_family():
    sig5 = centralizer_classify("sigma5", -1, 1, 1)
    out = descent_coeff(sig5, "u_beta", S2, params={"alpha": 1})
    from tracecoef import lfun
    from tracecoef.characters import QuadChar
    from mpmath import mp, mpf

    with mp.workdps(40):
        ld = lfun.laurent_at_1(None, S2)
        expected = (ld.c0 + lfun.LS(1, QuadChar(-4), S2)) / 2
        assert abs(out.value - expected) < mpf("1e-20")


def test_one_class_rep_scan_per_orbit_set(monkeypatch):
    """sp2 scans the S-square class representatives once for its min, sub
    and reg parameters; enum_form_classes reuses its one scan for the
    alphas and the u's."""
    from tracecoef import quadforms

    calls = []
    real = quadforms.sclass_reps

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(quadforms, "sclass_reps", counting)
    unipotent_orbit_set("sp2", S23)
    assert len(calls) == 1
    calls.clear()
    enum_form_classes(S23, "det+hasse")
    assert len(calls) <= 1


def test_orbits_command_reuses_the_enumerations_hasse_profiles(monkeypatch):
    """cmd_orbits prints the Hasse profile that enum_form_classes computed
    for each subregular form: no Hilbert symbol beyond the enumeration's."""
    from tracecoef import cli, quadforms

    calls = []
    real = quadforms.hilbert
    monkeypatch.setattr(quadforms, "hilbert", lambda a, b, v: calls.append(v) or real(a, b, v))
    enum_form_classes(S23, "det+hasse")  # fills the realizable_eps cache
    calls.clear()
    forms = enum_form_classes(S23, "det+hasse")
    n_enum = len(calls)
    calls.clear()
    doc = cli.cmd_orbits(cli.build_parser().parse_args(["orbits", "--group", "sp2", "--S", "2,3"]))
    assert len(calls) == n_enum
    printed = [o for o in doc["result"]["orbits"] if "hasse" in o]
    assert len(printed) == len(forms)
    for o, f in zip(printed, forms):
        assert o["hasse"] == {str(v): e for v, e in hasse_profile(f, S23).items()}
