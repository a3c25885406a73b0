"""Coefficients of unipotent weighted orbital integrals for the six groups.

Every coefficient is returned as a structured sum of terms, each a rational
prefactor times a symbolic volume parameter times named numeric constants
(L-values, Laurent data, the Shintani constant), together with its numeric
value.  Volumes default to 1 and are carried symbolically so that users can
substitute their own normalization.  The residue of the Riemann zeta
function is 1, so the global residue constant never appears explicitly.

Also: the example coefficient formulas for the centralizer groups that
occur for non-semisimple classes (GL(2), SL(2), the quasi-split unitary
group of a quadratic extension, and the equal-determinant GL(2) pair), and
the report comparing the symplectic and similitude coefficients orbit by
orbit (whose difference is an elliptic-endoscopic sum of L-values).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp, mpf

from .arith import PlaceSet, SquareClassRep, squarefree_kernel
from .characters import (
    chi_S,
    disc_classes,
    enum_cubic_chars,
    enum_quad_chars,
    quad_char_of,
)
from . import lfun
from .quadforms import OrbitClass, SymForm2, hasse, is_equiv
from .shintani import ShintaniConfig, shintani_constant


@dataclass
class VolumeParams:
    """Symbolic volume parameters, shared between GSp(2) and Sp(2)."""

    vol_m0: float = 1.0
    vol_m1: float = 1.0
    vol_m2: float = 1.0
    vol_mp: float = 1.0  # the maximal Levi of GL(3)/SL(3)
    vol_g: float = 1.0
    vol_centralizer: float = 1.0

    def __post_init__(self):
        for name in ("vol_m0", "vol_m1", "vol_m2", "vol_mp", "vol_g", "vol_centralizer"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def get(self, symbol: str) -> float:
        return getattr(self, symbol.lower().replace("'", "p"))


_VALUE_DPS = 45  # term assembly precision, independent of the ambient context


@dataclass
class CoeffTerm:
    """prefactor * volume * product of named factors."""

    prefactor: Fraction
    volume: str
    vol_value: float
    factors: list  # [(name, value)]

    @property
    def value(self):
        with mp.workdps(_VALUE_DPS):
            out = mpf(self.prefactor.numerator) / self.prefactor.denominator * self.vol_value
            for _, v in self.factors:
                out = out * v
        return out


@dataclass
class CoeffResult:
    terms: list
    provenance: str
    error: float = 0.0
    notes: dict = field(default_factory=dict)

    @property
    def value(self):
        with mp.workdps(_VALUE_DPS):
            out = mpf(0)
            for t in self.terms:
                out = out + t.value
        return out


def zero_result(provenance: str) -> CoeffResult:
    return CoeffResult(terms=[], provenance=provenance)


def _term(pref: Fraction, volume: str, vols: VolumeParams, factors) -> CoeffTerm:
    return CoeffTerm(Fraction(pref), volume, vols.get(volume), list(factors))


def _c0(S: PlaceSet, chi=None, digits=30):
    return lfun.laurent_at_1(chi, S, digits)


# ---------------------------------------------------------------------------
# GL(2) and SL(2)
# ---------------------------------------------------------------------------

def coeff_gl2(S: PlaceSet, vols: VolumeParams | None = None, digits: int = 30) -> CoeffResult:
    """Coefficient of the regular unipotent class of GL(2)."""
    vols = vols or VolumeParams()
    ld = _c0(S, None, digits)
    t = _term(Fraction(1, 2), "vol_m0", vols, [("c0(S)", ld.c0)])
    return CoeffResult([t], "gl2-regular-unipotent")


def coeff_sl2(S: PlaceSet, alpha, vols: VolumeParams | None = None, digits: int = 30) -> CoeffResult:
    """Coefficient of the class u_alpha of SL(2): a finite sum over the
    quadratic characters unramified outside S."""
    vols = vols or VolumeParams()
    terms = []
    for ch in enum_quad_chars(S):
        ld = _c0(S, None if ch.is_trivial else ch, digits)
        sgn = chi_S(ch, alpha, S) if not ch.is_trivial else 1
        name = "c0(S)" if ch.is_trivial else f"L^S(1,chi_{ch.D})"
        terms.append(
            _term(Fraction(sgn, 2), "vol_m0", vols, [(name, ld.c0)])
        )
    return CoeffResult(terms, "sl2-regular-unipotent")


# ---------------------------------------------------------------------------
# GL(3) and SL(3)
# ---------------------------------------------------------------------------

def coeff_gl3(S: PlaceSet, orbit: str = "min", vols: VolumeParams | None = None,
              digits: int = 30) -> CoeffResult:
    """orbit="min": the subminimal class u'; orbit="reg": the regular class."""
    vols = vols or VolumeParams()
    if orbit == "min":
        with mp.workdps(digits + 10):
            val = +(lfun.deriv_LS(2, None, S, digits) / lfun.zetaS(2, S, digits))
        t = _term(Fraction(1), "vol_mp", vols, [("dzeta^S(2)/zeta^S(2)", val)])
        return CoeffResult([t], "gl3-subminimal-unipotent")
    if orbit != "reg":
        raise ValueError(f"unknown GL(3) orbit {orbit!r}")
    ld = _c0(S, None, digits)
    terms = [
        _term(Fraction(1, 3), "vol_m0", vols, [("c0(S)", ld.c0), ("c0(S)", ld.c0)]),
        _term(Fraction(1, 3), "vol_m0", vols, [("c1(S)", ld.c1), ("residue(S)", ld.residue)]),
    ]
    return CoeffResult(terms, "gl3-regular-unipotent")


def coeff_sl3(S: PlaceSet, orbit: str = "min", alpha=1, vols: VolumeParams | None = None,
              digits: int = 30) -> CoeffResult:
    """SL(3): the u' coefficient matches GL(3); the regular one adds the sum
    over nontrivial cubic characters of chi_S(alpha) L^S(1,chi) L^S(1,chi^-1)."""
    vols = vols or VolumeParams()
    if orbit == "min":
        out = coeff_gl3(S, "min", vols, digits)
        return CoeffResult(out.terms, "sl3-subminimal-unipotent")
    if orbit != "reg":
        raise ValueError(f"unknown SL(3) orbit {orbit!r}")
    base = coeff_gl3(S, "reg", vols, digits)
    terms = list(base.terms)
    cubics = enum_cubic_chars(S)
    done = set()
    for ch in cubics:
        key = (ch.modulus, ch.values)
        ikey = (ch.modulus, ch.inverse().values)
        if ikey in done:
            continue
        done.add(key)
        L = lfun.LS(1, ch, S, digits)
        Linv = lfun.LS(1, ch.inverse(), S, digits)
        from .characters import chi_S_exponent

        k = chi_S_exponent(ch, alpha, S)
        # chi and its inverse together contribute twice the real part
        with mp.workdps(digits + 10):
            w = mp.exp(2j * mp.pi * k / 3)
            contrib = +(2 * mp.re(w * L * Linv))
        terms.append(
            _term(Fraction(1, 3), "vol_m0", vols,
                  [(f"2Re(chi_S(alpha) L^S(1,chi_{ch.modulus}) L^S(1,chi^-1))", contrib)])
        )
    return CoeffResult(terms, "sl3-regular-unipotent")


# ---------------------------------------------------------------------------
# GSp(2) and Sp(2)
# ---------------------------------------------------------------------------

def _sub_form(orbit_param) -> SymForm2:
    if isinstance(orbit_param, SymForm2):
        return orbit_param
    # accept a rational alpha: the standard form diag(1,-alpha) has -det = alpha
    return SymForm2.x_alpha(orbit_param)


def _deriv_term(S: PlaceSet, vols: VolumeParams, digits: int) -> CoeffTerm:
    with mp.workdps(digits + 10):
        val = +(lfun.deriv_LS(3, None, S, digits) / lfun.zetaS(3, S, digits))
    return _term(Fraction(1, 2), "vol_m1", vols, [("dzeta^S(3)/zeta^S(3)", val)])


def coeff_gsp2(S: PlaceSet, orbit, vols: VolumeParams | None = None,
               config: ShintaniConfig | None = None, cache=None,
               digits: int = 30) -> CoeffResult:
    """Coefficients for the similitude group: orbit is an OrbitClass or one
    of "tri"/"min"/"reg", or for subregular classes a SymForm2 (or the value
    of -det as a shorthand)."""
    vols = vols or VolumeParams()
    S.require_2("the rank-2 symplectic coefficients")
    typ, param = _orbit_key(orbit, "gsp2")
    if typ == "tri":
        return CoeffResult([_term(Fraction(1), "vol_g", vols, [])], "gsp2-identity")
    if typ == "min":
        z2 = lfun.zetaS(2, S, digits)
        return CoeffResult(
            [_term(Fraction(1, 2), "vol_m2", vols, [("zeta^S(2)", z2)])],
            "gsp2-minimal-unipotent",
        )
    if typ == "reg":
        ld = _c0(S, None, digits)
        terms = [
            _term(Fraction(1, 2), "vol_m0", vols, [("c0(S)", ld.c0), ("c0(S)", ld.c0)]),
            _term(Fraction(3, 4), "vol_m0", vols,
                  [("c1(S)", ld.c1), ("residue(S)", ld.residue)]),
        ]
        return CoeffResult(terms, "gsp2-regular-unipotent")
    if typ not in ("sub", "sub'"):
        raise ValueError(f"unknown orbit {orbit!r}")
    x = _sub_form(param)
    alpha = squarefree_kernel(-x.det)
    cf, cf_err, unstable, diag = shintani_constant(alpha, S, config, cache)
    terms = [
        _term(Fraction(1, 2), "vol_m1", vols, [(f"C_F(S,{alpha})", mpf(cf))])
    ]
    notes = {"shintani_unstable": unstable, "alpha": alpha}
    if is_equiv(x, SymForm2.x_alpha(1), S, "det"):
        terms.append(_deriv_term(S, vols, digits))
    err = 0.5 * vols.vol_m1 * cf_err
    return CoeffResult(terms, "gsp2-subregular-unipotent", error=err, notes=notes)


def coeff_sp2(S: PlaceSet, orbit, alpha=None, vols: VolumeParams | None = None,
              config: ShintaniConfig | None = None, cache=None,
              digits: int = 30) -> CoeffResult:
    """Coefficients for the symplectic group.  Minimal and regular classes
    take the square-class parameter alpha; subregular classes take a form."""
    vols = vols or VolumeParams()
    S.require_2("the rank-2 symplectic coefficients")
    typ, param = _orbit_key(orbit, "sp2")
    if alpha is None and not isinstance(param, SymForm2):
        alpha = param if param is not None else 1
    if isinstance(alpha, SquareClassRep):
        alpha = alpha.value
    if typ == "tri":
        return CoeffResult([_term(Fraction(1), "vol_g", vols, [])], "sp2-identity")
    if typ == "min":
        terms = []
        for ch in enum_quad_chars(S):
            sgn = 1 if ch.is_trivial else chi_S(ch, alpha, S)
            L2 = lfun.zetaS(2, S, digits) if ch.is_trivial else lfun.LS(2, ch, S, digits)
            name = "zeta^S(2)" if ch.is_trivial else f"L^S(2,chi_{ch.D})"
            terms.append(_term(Fraction(sgn, 2), "vol_m2", vols, [(name, L2)]))
        return CoeffResult(terms, "sp2-minimal-unipotent")
    if typ == "reg":
        terms = []
        ld0 = _c0(S, None, digits)
        for ch in enum_quad_chars(S):
            sgn = 1 if ch.is_trivial else chi_S(ch, alpha, S)
            w = 3 if ch.is_trivial else 1
            ld = ld0 if ch.is_trivial else _c0(S, ch, digits)
            cname = "c0(S)" if ch.is_trivial else f"L^S(1,chi_{ch.D})"
            dname = "c1(S)" if ch.is_trivial else f"dL^S(1,chi_{ch.D})"
            terms.append(
                _term(Fraction(2 * sgn, 4), "vol_m0", vols,
                      [(cname, ld.c0), ("c0(S)", ld0.c0)])
            )
            terms.append(
                _term(Fraction(w * sgn, 4), "vol_m0", vols,
                      [(dname, ld.c1), ("residue(S)", ld0.residue)])
            )
        return CoeffResult(terms, "sp2-regular-unipotent")
    if typ not in ("sub", "sub'"):
        raise ValueError(f"unknown orbit {orbit!r}")
    x = _sub_form(param)
    alpha = squarefree_kernel(-x.det)
    cf, cf_err, unstable, diag = shintani_constant(alpha, S, config, cache)
    terms = [
        _term(Fraction(1, 2), "vol_m1", vols, [(f"C_F(S,{alpha})", mpf(cf))])
    ]
    notes = {"shintani_unstable": unstable, "alpha": alpha}
    eps_prod = 1
    for v in S:
        eps_prod *= hasse(x, v)
    for dv in disc_classes(S, alpha, kind="Q_ur").entries:
        chd = quad_char_of(dv)
        L1 = lfun.LS(1, chd, S, digits)
        terms.append(
            _term(Fraction(1, 2), "vol_m1", vols,
                  [("prod eps_v(x)", mpf(eps_prod)), (f"L^S(1,chi_{chd.D})", L1)])
        )
    if is_equiv(x, SymForm2.x_alpha(1), S, "det+hasse"):
        terms.append(_deriv_term(S, vols, digits))
    err = 0.5 * vols.vol_m1 * cf_err
    return CoeffResult(terms, "sp2-subregular-unipotent", error=err, notes=notes)


def _orbit_key(orbit, group: str):
    if isinstance(orbit, OrbitClass):
        if orbit.group != group:
            raise ValueError(f"orbit belongs to {orbit.group}, not {group}")
        return orbit.type, orbit.param
    if isinstance(orbit, str):
        return orbit, None
    return "sub", orbit


def coeff_unipotent(orbit: OrbitClass, S: PlaceSet, vols: VolumeParams | None = None,
                    config: ShintaniConfig | None = None, cache=None,
                    digits: int = 30) -> CoeffResult:
    """Dispatch on the orbit's group."""
    g = orbit.group
    vols = vols or VolumeParams()
    if g == "gl2":
        if orbit.type == "tri":
            return CoeffResult([_term(Fraction(1), "vol_g", vols, [])], "gl2-identity")
        return coeff_gl2(S, vols, digits)
    if g == "sl2":
        if orbit.type == "tri":
            return CoeffResult([_term(Fraction(1), "vol_g", vols, [])], "sl2-identity")
        return coeff_sl2(S, _param_value(orbit.param), vols, digits)
    if g == "gl3":
        if orbit.type == "tri":
            return CoeffResult([_term(Fraction(1), "vol_g", vols, [])], "gl3-identity")
        return coeff_gl3(S, "min" if orbit.type == "min" else "reg", vols, digits)
    if g == "sl3":
        if orbit.type == "tri":
            return CoeffResult([_term(Fraction(1), "vol_g", vols, [])], "sl3-identity")
        if orbit.type == "min":
            return coeff_sl3(S, "min", 1, vols, digits)
        return coeff_sl3(S, "reg", _param_value(orbit.param), vols, digits)
    if g == "gsp2":
        return coeff_gsp2(S, orbit, vols, config, cache, digits)
    if g == "sp2":
        return coeff_sp2(S, orbit, _param_value(orbit.param), vols, config, cache, digits)
    raise ValueError(f"unknown group {g!r}")


def _param_value(param):
    if param is None:
        return 1
    if isinstance(param, (SquareClassRep,)):
        return param.value
    if hasattr(param, "value"):
        return param.value
    return param


# ---------------------------------------------------------------------------
# Centralizer example coefficients (descent targets)
# ---------------------------------------------------------------------------

def centralizer_example_coeff(family: str, params: dict, S: PlaceSet,
                              vols: VolumeParams | None = None,
                              digits: int = 30) -> CoeffResult:
    """Closed-form coefficients of the centralizer groups occurring for
    non-semisimple classes.

    family="gl2":      vol/(2) * c0(S)
    family="sl2":      vol/2 * sum_chi chi_S(alpha) c0(S,chi)
    family="u11":      the quasi-split unitary group of E = Q(sqrt(d)):
                       vol/2 * { c0(S) + chi_{E,S}(alpha) c0(S,chi_E) delta_{E,S} }
    family="gl2pair":  the equal-determinant GL(2) pair; orbit is
                       "u_{1,0}" | "u_{0,1}" | "u_{alpha,1}"
    """
    vols = vols or VolumeParams()
    params = params or {}
    if family == "gl2":
        ld = _c0(S, None, digits)
        t = _term(Fraction(1, 2), "vol_centralizer", vols, [("c0(S)", ld.c0)])
        return CoeffResult([t], "centralizer-gl2")
    if family == "sl2":
        out = coeff_sl2(S, params.get("alpha", 1), vols, digits)
        return CoeffResult(out.terms, "centralizer-sl2")
    if family == "u11":
        d = params["d"]
        alpha = params.get("alpha", 1)
        chiE = quad_char_of(d)
        delta = 1 if chiE.is_unramified_outside(S) else 0
        ld = _c0(S, None, digits)
        terms = [_term(Fraction(1, 2), "vol_centralizer", vols, [("c0(S)", ld.c0)])]
        if delta:
            sgn = chi_S(chiE, alpha, S)
            L = lfun.LS(1, chiE, S, digits)
            terms.append(
                _term(Fraction(sgn, 2), "vol_centralizer", vols,
                      [(f"L^S(1,chi_{chiE.D})", L), ("delta_{E,S}", mpf(1))])
            )
        return CoeffResult(terms, "centralizer-unitary-u11",
                           notes={"delta_ES": delta, "E_disc": chiE.D})
    if family == "gl2pair":
        orbit = params.get("orbit", "u_{1,0}")
        if orbit == "u_{1,0}":
            ld = _c0(S, None, digits)
            t = _term(Fraction(1, 2), "vol_m1", vols, [("c0(S)", ld.c0)])
            return CoeffResult([t], "centralizer-gl2pair-first")
        if orbit == "u_{0,1}":
            ld = _c0(S, None, digits)
            t = _term(Fraction(1, 2), "vol_m2", vols, [("c0(S)", ld.c0)])
            return CoeffResult([t], "centralizer-gl2pair-second")
        if orbit == "u_{alpha,1}":
            alpha = params.get("alpha", 1)
            terms = []
            for ch in enum_quad_chars(S):
                ld = _c0(S, None if ch.is_trivial else ch, digits)
                sgn = 1 if ch.is_trivial else chi_S(ch, alpha, S)
                name = "c0(S)" if ch.is_trivial else f"L^S(1,chi_{ch.D})"
                terms.append(
                    _term(Fraction(sgn, 4), "vol_m0", vols,
                          [(name, ld.c0), (name, ld.c0)])
                )
            return CoeffResult(terms, "centralizer-gl2pair-diagonal")
        raise ValueError(f"unknown gl2pair orbit {orbit!r}")
    raise ValueError(f"unsupported centralizer family {family!r}")


# ---------------------------------------------------------------------------
# The symplectic-vs-similitude difference report
# ---------------------------------------------------------------------------

def endoscopic_diff(S: PlaceSet, orbit_type: str, param=None,
                    vols: VolumeParams | None = None,
                    config: ShintaniConfig | None = None, cache=None,
                    digits: int = 30) -> dict:
    """Difference of the symplectic and similitude coefficients on matched
    orbits, computed two ways: by independent subtraction of the two
    coefficient formulas, and by the predicted closed form (a sum over
    nontrivial quadratic characters, resp. the unramified-class L-sum).

    Returns {"difference": CoeffResult, "predicted": CoeffResult, ...}.
    """
    vols = vols or VolumeParams()
    S.require_2("the difference report")
    if orbit_type == "min":
        alpha = 1 if param is None else param
        a_sp = coeff_sp2(S, "min", alpha, vols, digits=digits)
        a_gsp = coeff_gsp2(S, "min", vols, digits=digits)
        pred_terms = []
        for ch in enum_quad_chars(S):
            if ch.is_trivial:
                continue
            sgn = chi_S(ch, alpha, S)
            L2 = lfun.LS(2, ch, S, digits)
            pred_terms.append(
                _term(Fraction(sgn, 2), "vol_m2", vols, [(f"L^S(2,chi_{ch.D})", L2)])
            )
        predicted = CoeffResult(pred_terms, "difference-minimal-predicted")
    elif orbit_type == "reg":
        alpha = 1 if param is None else param
        a_sp = coeff_sp2(S, "reg", alpha, vols, digits=digits)
        a_gsp = coeff_gsp2(S, "reg", vols, digits=digits)
        ld0 = _c0(S, None, digits)
        pred_terms = []
        for ch in enum_quad_chars(S):
            if ch.is_trivial:
                continue
            sgn = chi_S(ch, alpha, S)
            ld = _c0(S, ch, digits)
            pred_terms.append(
                _term(Fraction(2 * sgn, 4), "vol_m0", vols,
                      [(f"L^S(1,chi_{ch.D})", ld.c0), ("c0(S)", ld0.c0)])
            )
            pred_terms.append(
                _term(Fraction(sgn, 4), "vol_m0", vols,
                      [(f"dL^S(1,chi_{ch.D})", ld.c1), ("residue(S)", ld0.residue)])
            )
        predicted = CoeffResult(pred_terms, "difference-regular-predicted")
    elif orbit_type in ("sub", "sub'"):
        x = _sub_form(param if param is not None else 1)
        a_sp = coeff_sp2(S, x, None, vols, config, cache, digits)
        a_gsp = coeff_gsp2(S, x, vols, config, cache, digits)
        alpha = squarefree_kernel(-x.det)
        eps_prod = 1
        for v in S:
            eps_prod *= hasse(x, v)
        pred_terms = []
        for dv in disc_classes(S, alpha, kind="Q_ur").entries:
            chd = quad_char_of(dv)
            L1 = lfun.LS(1, chd, S, digits)
            pred_terms.append(
                _term(Fraction(eps_prod, 2), "vol_m1", vols,
                      [(f"L^S(1,chi_{chd.D})", L1)])
            )
        sp_has = is_equiv(x, SymForm2.x_alpha(1), S, "det+hasse")
        gsp_has = is_equiv(x, SymForm2.x_alpha(1), S, "det")
        if sp_has != gsp_has:
            t = _deriv_term(S, vols, digits)
            t.prefactor = t.prefactor * (1 if sp_has else -1)
            pred_terms.append(t)
        predicted = CoeffResult(pred_terms, "difference-subregular-predicted")
    else:
        raise ValueError(f"unknown orbit type {orbit_type!r}")
    with mp.workdps(45):
        diff_val = +(a_sp.value - a_gsp.value)
    difference = CoeffResult(
        terms=[CoeffTerm(Fraction(1), "vol_g", 1.0, [("a_sp2 - a_gsp2", diff_val)])],
        provenance=f"difference-{orbit_type}-two-path",
        error=a_sp.error + a_gsp.error,
    )
    return {
        "difference": difference,
        "predicted": predicted,
        "sp2": a_sp,
        "gsp2": a_gsp,
    }
