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
from functools import cached_property

from mpmath import mp, mpf

from .arith import PlaceSet, squarefree_kernel
from .characters import (
    QuadChar,
    chi_S,
    chi_S_exponent,
    disc_classes,
    enum_cubic_chars,
    enum_quad_chars,
    quad_char_of,
)
from . import lfun
from .quadforms import OrbitClass, SymForm2, hasse, is_equiv
from .shintani import shintani_run


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
    """prefactor * volume * product of named factors; terms and factors are
    never changed after construction, so value is evaluated once."""

    prefactor: Fraction
    volume: str
    vol_value: float
    factors: list  # [(name, value)]

    @cached_property
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

    @cached_property
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


# ---------------------------------------------------------------------------
# Sums over the quadratic characters unramified outside S
# ---------------------------------------------------------------------------

_TRIVIAL = QuadChar(1)


def _char_sum(S: PlaceSet, alpha, per_char, nontrivial_only: bool = False) -> list:
    """The terms of sum_chi chi_S(alpha) T(chi) over the quadratic characters
    unramified outside S: per_char(ch, sgn) returns the terms of T(ch) with
    the sign sgn (1 for the trivial character) in their prefactors."""
    terms = []
    for ch in enum_quad_chars(S):
        if not (ch.is_trivial and nontrivial_only):
            terms += per_char(ch, 1 if ch.is_trivial else chi_S(ch, alpha, S))
    return terms


def _l_name(ch, s: int, trivial: str, prefix: str = "") -> str:
    return trivial if ch.is_trivial else f"{prefix}L^S({s},chi_{ch.D})"


def _l2_terms(S: PlaceSet, vols: VolumeParams, digits: int):
    """T(chi) = L^S(2,chi) / 2 on vol_M2 (zeta^S(2) for the trivial chi)."""
    def per_char(ch, sgn):
        val = lfun.zetaS(2, S, digits) if ch.is_trivial else lfun.LS(2, ch, S, digits)
        return [_term(Fraction(sgn, 2), "vol_m2", vols, [(_l_name(ch, 2, "zeta^S(2)"), val)])]
    return per_char


def _laurent_terms(S: PlaceSet, vols: VolumeParams, digits: int):
    """T(chi) from the Laurent data at s = 1 on vol_M0:
    c0(chi) c0 / 2 + w c1(chi) residue / 4, with w = 3 for the trivial chi
    and 1 otherwise."""
    ld0 = lfun.laurent_at_1(None, S, digits)

    def per_char(ch, sgn):
        ld = ld0 if ch.is_trivial else lfun.laurent_at_1(ch, S, digits)
        w = 3 if ch.is_trivial else 1
        return [
            _term(Fraction(sgn, 2), "vol_m0", vols,
                  [(_l_name(ch, 1, "c0(S)"), ld.c0), ("c0(S)", ld0.c0)]),
            _term(Fraction(w * sgn, 4), "vol_m0", vols,
                  [(_l_name(ch, 1, "c1(S)", "d"), ld.c1), ("residue(S)", ld0.residue)]),
        ]
    return per_char


def _c0_power_terms(S: PlaceSet, vols: VolumeParams, digits: int, k: int, pref: Fraction):
    """T(chi) = pref * c0(chi)^k on vol_M0; c0(chi) = L^S(1,chi), a value
    request, for nontrivial chi."""
    def per_char(ch, sgn):
        c0 = lfun.laurent_at_1(None, S, digits).c0 if ch.is_trivial else lfun.LS(1, ch, S, digits)
        return [_term(pref * sgn, "vol_m0", vols, [(_l_name(ch, 1, "c0(S)"), c0)] * k)]
    return per_char


# ---------------------------------------------------------------------------
# GL(2) and SL(2)
# ---------------------------------------------------------------------------

def coeff_gl2(S: PlaceSet, vols: VolumeParams | None = None, digits: int = 30) -> CoeffResult:
    """Coefficient of the regular unipotent class of GL(2)."""
    vols = vols or VolumeParams()
    ld = lfun.laurent_at_1(None, S, digits)
    t = _term(Fraction(1, 2), "vol_m0", vols, [("c0(S)", ld.c0)])
    return CoeffResult([t], "gl2-regular-unipotent")


def coeff_sl2(S: PlaceSet, alpha, vols: VolumeParams | None = None, digits: int = 30) -> CoeffResult:
    """Coefficient of the class u_alpha of SL(2): a finite sum over the
    quadratic characters unramified outside S."""
    per_char = _c0_power_terms(S, vols or VolumeParams(), digits, 1, Fraction(1, 2))
    return CoeffResult(_char_sum(S, alpha, per_char), "sl2-regular-unipotent")


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
    ld = lfun.laurent_at_1(None, S, digits)
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
    for ch in enum_cubic_chars(S)[::2]:  # each character is followed by its inverse
        L = lfun.LS(1, ch, S, digits)
        Linv = lfun.LS(1, ch.inverse(), S, digits)
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


def _hasse_sign(x: SymForm2, S: PlaceSet) -> int:
    """prod_{v in S} eps_v(x)."""
    out = 1
    for v in S:
        out *= hasse(x, v)
    return out


def _unramified_l1(S: PlaceSet, alpha, digits: int) -> list:
    """[(name, L^S(1,chi_D))] over the classes D of alpha unramified outside S."""
    out = []
    for dv in disc_classes(S, alpha, kind="Q_ur").entries:
        chd = quad_char_of(dv)
        out.append((f"L^S(1,chi_{chd.D})", lfun.LS(1, chd, S, digits)))
    return out


def _coeff_sub(group: str, S: PlaceSet, x, vols: VolumeParams, X: int, cache,
               digits: int, sh=None) -> CoeffResult:
    """The subregular class of the form x (or of x_alpha for a rational x):
    C_F(S,alpha)/2 on vol_M1, for sp2 plus the Hasse-signed sum of the
    unramified L^S(1,chi_D)/2, plus dzeta^S(3)/zeta^S(3)/2 on the class of
    x_1.  For both groups that is the trivial det-class: a form with -det a
    square at every v in S is hyperbolic there, with x_1's Hasse invariants.
    sh, if given, is the shintani_run of alpha, S, X and cache."""
    x = _sub_form(x)
    alpha = squarefree_kernel(-x.det)
    if sh is None:
        sh = shintani_run(alpha, S, X, cache)
    terms = [_term(Fraction(1, 2), "vol_m1", vols, [(f"C_F(S,{alpha})", mpf(sh.constant_CF))])]
    if group == "sp2":
        eps = _hasse_sign(x, S)
        terms += [_term(Fraction(1, 2), "vol_m1", vols, [("prod eps_v(x)", mpf(eps)), factor])
                  for factor in _unramified_l1(S, alpha, digits)]
    if is_equiv(x, SymForm2.x_alpha(1), S, "det"):
        terms.append(_deriv_term(S, vols, digits))
    return CoeffResult(terms, f"{group}-subregular-unipotent",
                       error=0.5 * vols.vol_m1 * sh.constant_error,
                       notes={"shintani_unstable": sh.unstable, "alpha": alpha})


# the per-character terms of the minimal and regular classes; the GSp(2)
# coefficient is the term of the trivial character alone
_SUM_TERMS = {"min": _l2_terms, "reg": _laurent_terms}
_KIND = {"min": "minimal", "reg": "regular", "sub": "subregular", "sub'": "subregular"}


def coeff_gsp2(S: PlaceSet, orbit, vols: VolumeParams | None = None,
               X: int = 10**5, cache=None,
               digits: int = 30) -> CoeffResult:
    """Coefficients for the similitude group: orbit is an OrbitClass or one
    of "min"/"reg", or for subregular classes a SymForm2 (or the value of
    -det as a shorthand).  The identity class is handled by coeff_unipotent."""
    vols = vols or VolumeParams()
    S.require_2("the rank-2 symplectic coefficients")
    typ, param = _orbit_key(orbit, "gsp2")
    if typ in ("sub", "sub'"):
        return _coeff_sub("gsp2", S, param, vols, X, cache, digits)
    if typ not in _SUM_TERMS:
        raise ValueError(f"unknown orbit {orbit!r}")
    terms = _SUM_TERMS[typ](S, vols, digits)(_TRIVIAL, 1)
    return CoeffResult(terms, f"gsp2-{_KIND[typ]}-unipotent")


def coeff_sp2(S: PlaceSet, orbit, alpha=None, vols: VolumeParams | None = None,
              X: int = 10**5, cache=None,
              digits: int = 30) -> CoeffResult:
    """Coefficients for the symplectic group.  Minimal and regular classes
    take the square-class parameter alpha (by default the orbit's own);
    subregular classes take a form."""
    vols = vols or VolumeParams()
    S.require_2("the rank-2 symplectic coefficients")
    typ, param = _orbit_key(orbit, "sp2")
    if typ in ("sub", "sub'"):
        return _coeff_sub("sp2", S, param, vols, X, cache, digits)
    if typ not in _SUM_TERMS:
        raise ValueError(f"unknown orbit {orbit!r}")
    alpha = _param_value(param if alpha is None else alpha)
    terms = _char_sum(S, alpha, _SUM_TERMS[typ](S, vols, digits))
    return CoeffResult(terms, f"sp2-{_KIND[typ]}-unipotent")


def _orbit_key(orbit, group: str):
    if isinstance(orbit, OrbitClass):
        if orbit.group != group:
            raise ValueError(f"orbit belongs to {orbit.group}, not {group}")
        return orbit.type, orbit.param
    if isinstance(orbit, str):
        return orbit, None
    return "sub", orbit


def _param_value(param):
    """The rational value of an orbit parameter (1 when there is none)."""
    return 1 if param is None else getattr(param, "value", param)


def coeff_unipotent(orbit: OrbitClass, S: PlaceSet, vols: VolumeParams | None = None,
                    X: int = 10**5, cache=None,
                    digits: int = 30) -> CoeffResult:
    """Dispatch on the orbit's group.  The identity class has coefficient
    vol_G in every group; only GSp(2) and Sp(2) have subregular classes."""
    g, typ = orbit.group, orbit.type
    vols = vols or VolumeParams()
    if g not in ("gl2", "sl2", "gl3", "sl3", "gsp2", "sp2"):
        raise ValueError(f"unknown group {g!r}")
    if g in ("gsp2", "sp2"):
        S.require_2("the rank-2 symplectic coefficients")
    elif typ in ("sub", "sub'"):
        raise ValueError(f"{g} has no subregular unipotent class")
    if typ == "tri":
        return CoeffResult([_term(Fraction(1), "vol_g", vols, [])], f"{g}-identity")
    if g == "gl2":
        return coeff_gl2(S, vols, digits)
    if g == "sl2":
        return coeff_sl2(S, _param_value(orbit.param), vols, digits)
    if g == "gl3":
        return coeff_gl3(S, typ, vols, digits)
    if g == "sl3":
        return coeff_sl3(S, typ, _param_value(orbit.param), vols, digits)
    if g == "gsp2":
        return coeff_gsp2(S, orbit, vols, X, cache, digits)
    return coeff_sp2(S, orbit, None, vols, X, cache, digits)


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
        ld = lfun.laurent_at_1(None, S, digits)
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
        ld = lfun.laurent_at_1(None, S, digits)
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
            ld = lfun.laurent_at_1(None, S, digits)
            t = _term(Fraction(1, 2), "vol_m1", vols, [("c0(S)", ld.c0)])
            return CoeffResult([t], "centralizer-gl2pair-first")
        if orbit == "u_{0,1}":
            ld = lfun.laurent_at_1(None, S, digits)
            t = _term(Fraction(1, 2), "vol_m2", vols, [("c0(S)", ld.c0)])
            return CoeffResult([t], "centralizer-gl2pair-second")
        if orbit == "u_{alpha,1}":
            per_char = _c0_power_terms(S, vols, digits, 2, Fraction(1, 4))
            return CoeffResult(_char_sum(S, params.get("alpha", 1), per_char),
                               "centralizer-gl2pair-diagonal")
        raise ValueError(f"unknown gl2pair orbit {orbit!r}")
    raise ValueError(f"unsupported centralizer family {family!r}")


# ---------------------------------------------------------------------------
# The symplectic-vs-similitude difference report
# ---------------------------------------------------------------------------

def endoscopic_diff(S: PlaceSet, orbit_type: str, param=None,
                    vols: VolumeParams | None = None,
                    X: int = 10**5, cache=None,
                    digits: int = 30) -> dict:
    """Difference of the symplectic and similitude coefficients on matched
    orbits, computed two ways: by independent subtraction of the two
    coefficient formulas, and by the predicted closed form (a sum over
    nontrivial quadratic characters, resp. the unramified-class L-sum).

    Returns {"difference": CoeffResult, "predicted": CoeffResult, ...}.
    """
    vols = vols or VolumeParams()
    S.require_2("the difference report")
    if orbit_type in _SUM_TERMS:
        alpha = 1 if param is None else param
        a_sp = coeff_sp2(S, orbit_type, alpha, vols, digits=digits)
        a_gsp = coeff_gsp2(S, orbit_type, vols, digits=digits)
        pred_terms = _char_sum(S, alpha, _SUM_TERMS[orbit_type](S, vols, digits),
                               nontrivial_only=True)
    elif orbit_type in ("sub", "sub'"):
        x = _sub_form(param if param is not None else 1)
        # one pole-data run for both groups; its C_F term cancels in the difference
        sh = shintani_run(squarefree_kernel(-x.det), S, X, cache)
        a_sp = _coeff_sub("sp2", S, x, vols, X, cache, digits, sh)
        a_gsp = _coeff_sub("gsp2", S, x, vols, X, cache, digits, sh)
        eps = _hasse_sign(x, S)
        pred_terms = [_term(Fraction(eps, 2), "vol_m1", vols, [factor])
                      for factor in _unramified_l1(S, squarefree_kernel(-x.det), digits)]
    else:
        raise ValueError(f"unknown orbit type {orbit_type!r}")
    predicted = CoeffResult(pred_terms, f"difference-{_KIND[orbit_type]}-predicted")
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
