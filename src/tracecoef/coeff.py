"""Coefficients of unipotent weighted orbital integrals for the six groups,
through one entry point, coeff_unipotent.

Every coefficient is returned as a structured sum of terms, each a rational
prefactor times a symbolic volume parameter times named numeric constants
(L-values, Laurent data, the Shintani constant), together with its numeric
value.  Volumes default to 1 and are carried symbolically so that users can
substitute their own normalization.  The residue of the Riemann zeta
function is 1, so the global residue constant never appears explicitly.
The coefficients of SL(2) and Sp(2) are sums over the quadratic characters
unramified outside S; those of GL(2) and GSp(2) are the trivial character's
term of the same sums.

Also: the coefficients of the mixed classes sigma*u by descent to the
centralizer of sigma (descent_coeff), and the report comparing the
symplectic and similitude coefficients orbit by orbit (whose difference is
an elliptic-endoscopic sum of L-values).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial

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
from .quadforms import CentralizerClass, OrbitClass, SymForm2, hasse, subregular_type
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


def _term(pref: Fraction, volume: str, vols: VolumeParams, factors) -> CoeffTerm:
    return CoeffTerm(Fraction(pref), volume, getattr(vols, volume), list(factors))


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
        val = lfun.LS(2, ch, S, digits)
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
# Terms outside the character sums: GL(3)/SL(3) and the subregular classes
# ---------------------------------------------------------------------------

def _dlog_zeta_term(s: int, pref: Fraction, volume: str, S: PlaceSet, vols: VolumeParams,
                    digits: int) -> CoeffTerm:
    """pref * dzeta^S(s)/zeta^S(s) on volume: s = 2 for the subminimal class
    of GL(3)/SL(3), s = 3 for the subregular class of x_1."""
    with mp.workdps(digits + 10):
        val = +(lfun.deriv_LS(s, None, S, digits) / lfun.zetaS(s, S, digits))
    return _term(pref, volume, vols, [(f"dzeta^S({s})/zeta^S({s})", val)])


def _regular3_terms(group: str, S: PlaceSet, alpha, vols: VolumeParams, digits: int) -> list:
    """The regular class of GL(3): (c0^2 + c1 residue)/3 on vol_M0.  SL(3)
    adds the sum over the nontrivial cubic characters of chi_S(alpha)
    L^S(1,chi) L^S(1,chi^-1)/3."""
    ld = lfun.laurent_at_1(None, S, digits)
    terms = [
        _term(Fraction(1, 3), "vol_m0", vols, [("c0(S)", ld.c0), ("c0(S)", ld.c0)]),
        _term(Fraction(1, 3), "vol_m0", vols, [("c1(S)", ld.c1), ("residue(S)", ld.residue)]),
    ]
    # each cubic character is followed by its inverse
    for ch in enum_cubic_chars(S)[::2] if group == "sl3" else []:
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
    return terms


def _hasse_sign(x: SymForm2, S: PlaceSet) -> int:
    """prod_{v in S} eps_v(x)."""
    return math.prod(hasse(x, v) for v in S)


def _unramified_l1(S: PlaceSet, alpha, digits: int) -> list:
    """[(name, L^S(1,chi_D))] over the classes D of alpha unramified outside S."""
    chars = [quad_char_of(dv) for dv in disc_classes(S, alpha, kind="Q_ur").entries]
    return [(f"L^S(1,chi_{ch.D})", lfun.LS(1, ch, S, digits)) for ch in chars]


def _coeff_sub(group: str, S: PlaceSet, x: SymForm2, vols: VolumeParams, X: int, cache,
               digits: int, sh=None) -> CoeffResult:
    """The subregular class of the form x: C_F(S,alpha)/2 on vol_M1, for sp2
    plus the Hasse-signed sum of the unramified L^S(1,chi_D)/2, plus
    dzeta^S(3)/zeta^S(3)/2 on the class of x_1.  For both groups that is the
    trivial det-class: a form with -det a square at every v in S is
    hyperbolic there, with x_1's Hasse invariants.  sh, if given, is the
    shintani_run of alpha, S, X and cache."""
    alpha = squarefree_kernel(-x.det)
    if sh is None:
        sh = shintani_run(alpha, S, X, cache)
    terms = [_term(Fraction(1, 2), "vol_m1", vols, [(f"C_F(S,{alpha})", mpf(sh.constant_CF))])]
    if group == "sp2":
        eps = _hasse_sign(x, S)
        terms += [_term(Fraction(1, 2), "vol_m1", vols, [("prod eps_v(x)", mpf(eps)), factor])
                  for factor in _unramified_l1(S, alpha, digits)]
    if subregular_type(x, S) == "sub'":
        terms.append(_dlog_zeta_term(3, Fraction(1, 2), "vol_m1", S, vols, digits))
    return CoeffResult(terms, f"{group}-subregular-unipotent",
                       error=0.5 * vols.vol_m1 * sh.constant_error,
                       notes={"shintani_unstable": sh.unstable, "alpha": alpha})


# ---------------------------------------------------------------------------
# The one entry point
# ---------------------------------------------------------------------------

GROUPS = ("gl2", "sl2", "gl3", "sl3", "gsp2", "sp2")

# (special group, orbit type) -> the per-character term maker of its sum;
# the similitude group of a special group takes the trivial character's term
_SUM_TERMS = {("sl2", "reg"): partial(_c0_power_terms, k=1, pref=Fraction(1, 2)),
              ("sp2", "min"): _l2_terms, ("sp2", "reg"): _laurent_terms}
_SPECIAL = {"gl2": "sl2", "gsp2": "sp2"}
_KIND = {"min": "minimal", "reg": "regular", "sub": "subregular", "sub'": "subregular"}


def coeff_unipotent(orbit: OrbitClass, S: PlaceSet, vols: VolumeParams | None = None,
                    X: int = 10**5, cache=None,
                    digits: int = 30) -> CoeffResult:
    """The coefficient of a unipotent class of one of GROUPS.  The identity
    class has coefficient vol_G in every group; only GSp(2) and Sp(2) have
    subregular classes, whose param is the form.  SL(2) and Sp(2) sum their
    per-character terms over the quadratic characters unramified outside S
    at alpha, the class's param; GL(2) and GSp(2) take the trivial
    character's term alone.  SL(3) adds its cubic pairs to the regular
    class of GL(3)."""
    g, typ = orbit.group, orbit.type
    vols = vols or VolumeParams()
    if g not in GROUPS:
        raise ValueError(f"unknown group {g!r}")
    if g in ("gsp2", "sp2"):
        S.require_2("the rank-2 symplectic coefficients")
    elif typ in ("sub", "sub'"):
        raise ValueError(f"{g} has no subregular unipotent class")
    if typ == "tri":
        return CoeffResult([_term(Fraction(1), "vol_g", vols, [])], f"{g}-identity")
    if typ in ("sub", "sub'"):
        return _coeff_sub(g, S, orbit.param, vols, X, cache, digits)
    alpha = 1 if orbit.param is None else getattr(orbit.param, "value", orbit.param)
    if g in ("gl3", "sl3") and typ == "min":
        return CoeffResult([_dlog_zeta_term(2, Fraction(1), "vol_mp", S, vols, digits)],
                           f"{g}-subminimal-unipotent")
    if g in ("gl3", "sl3") and typ == "reg":
        return CoeffResult(_regular3_terms(g, S, alpha, vols, digits), f"{g}-regular-unipotent")
    special = _SPECIAL.get(g, g)
    if (special, typ) not in _SUM_TERMS:
        raise ValueError(f"unknown orbit {orbit}")
    per_char = _SUM_TERMS[special, typ](S, vols, digits)
    terms = _char_sum(S, alpha, per_char) if special == g else per_char(_TRIVIAL, 1)
    return CoeffResult(terms, f"{g}-{_KIND[typ]}-unipotent")


# ---------------------------------------------------------------------------
# Mixed classes sigma*u: descent to the centralizer of sigma
# ---------------------------------------------------------------------------

def descent_coeff(sigma: CentralizerClass, u, S: PlaceSet, vols: VolumeParams | None = None,
                  params=None) -> CoeffResult:
    """The coefficient of sigma*u by descent: eps * |iota|^-1 (iota is 1 here)
    times the coefficient of u in the centralizer of sigma, by its kind:

      z       the host group's own coefficient; u is its OrbitClass
      sigma1  the equal-determinant GL(2) pair: c0(S)/2 on vol_M1 for
              u = "u_{1,0}" and on vol_M2 for "u_{0,1}", without params; for
              "u_{alpha,1}" sum_chi chi_S(alpha) c0(S,chi)^2/4, alpha =
              params["alpha"]
      sigma5  the quasi-split unitary group U(1,1) of E = Q(sqrt(d)), d the
              first parameter of sigma, with u = "u_beta" and beta =
              params["alpha"]: {c0(S) + chi_{E,S}(beta) L^S(1,chi_E)
              delta_{E,S}}/2 on vol_centralizer, delta_{E,S} = 1 when chi_E
              is unramified outside S; for sigma1 and sigma5 another u, or a
              params key other than alpha, raises ValueError

    alpha and beta default to 1.  sigma2 and sigma3 have split rank 2, so
    eps = 0 and the coefficient is 0.  sigma4 and sigma6 need L-data of the
    quadratic field E itself and raise NotImplementedError (never a silent
    zero).
    """
    vols, params = vols or VolumeParams(), params or {}
    kind = sigma.sigma_kind
    if sigma.eps_flag == 0:
        return CoeffResult([], f"descent:eps=0:{kind}")
    if kind == "z":
        if not isinstance(u, OrbitClass):
            raise ValueError("for kind 'z' pass the host-group OrbitClass")
        return coeff_unipotent(u, S, vols)
    if kind not in ("sigma1", "sigma5"):
        raise NotImplementedError(
            f"coefficients for centralizer family {kind} need L-function "
            "data of the quadratic extension E itself and are not implemented")
    c0 = ("c0(S)", lfun.laurent_at_1(None, S).c0)
    if kind == "sigma1":
        if u == "u_{alpha,1}" and params.keys() <= {"alpha"}:
            per_char = _c0_power_terms(S, vols, lfun.DEFAULT_DIGITS, 2, Fraction(1, 4))
            return CoeffResult(_char_sum(S, params.get("alpha", 1), per_char),
                               "centralizer-gl2pair-diagonal")
        if u not in ("u_{1,0}", "u_{0,1}") or params:
            raise ValueError("the gl2pair orbits are u_{1,0} and u_{0,1} without params and "
                             f"u_{{alpha,1}} with params alpha; got {u!r}, {params!r}")
        first = u == "u_{1,0}"
        return CoeffResult([_term(Fraction(1, 2), "vol_m1" if first else "vol_m2", vols, [c0])],
                           f"centralizer-gl2pair-{'first' if first else 'second'}")
    if u != "u_beta" or not params.keys() <= {"alpha"}:
        raise ValueError(f"the U(1,1) orbit is u_beta with params alpha; got {u!r}, {params!r}")
    chiE = quad_char_of(sigma.params[0])
    delta = int(chiE.is_unramified_outside(S))
    terms = [_term(Fraction(1, 2), "vol_centralizer", vols, [c0])]
    if delta:
        terms.append(_term(Fraction(chi_S(chiE, params.get("alpha", 1), S), 2), "vol_centralizer",
                           vols, [(f"L^S(1,chi_{chiE.D})", lfun.LS(1, chiE, S)),
                                  ("delta_{E,S}", mpf(1))]))
    return CoeffResult(terms, "centralizer-unitary-u11",
                       notes={"delta_ES": delta, "E_disc": chiE.D})


# ---------------------------------------------------------------------------
# The symplectic-vs-similitude difference report
# ---------------------------------------------------------------------------

def endoscopic_diff(S: PlaceSet, orbit_type: str, param=None,
                    vols: VolumeParams | None = None,
                    X: int = 10**5, cache=None,
                    digits: int = 30) -> dict:
    """Difference of the symplectic and similitude coefficients on matched
    orbits, a_sp2 - a_gsp2, beside its closed form: the nontrivial quadratic
    characters' terms (min, reg), resp. the Hasse-signed unramified-class
    L-sum (sub).  These are not two independent routes: GSp(2) takes the
    trivial character's term of the Sp(2) sum, and the C_F of sub cancels
    exactly.  param is alpha for min and reg (default 1) and the form for
    sub (default x_1).

    Returns {"difference": CoeffResult, "predicted": CoeffResult, ...}.
    """
    vols = vols or VolumeParams()
    S.require_2("the difference report")
    if orbit_type in ("min", "reg"):
        alpha = 1 if param is None else param
        a_sp = coeff_unipotent(OrbitClass("sp2", orbit_type, alpha), S, vols, digits=digits)
        a_gsp = coeff_unipotent(OrbitClass("gsp2", orbit_type), S, vols, digits=digits)
        pred_terms = _char_sum(S, alpha, _SUM_TERMS["sp2", orbit_type](S, vols, digits),
                               nontrivial_only=True)
    elif orbit_type in ("sub", "sub'"):
        x = SymForm2.x_alpha(1) if param is None else param
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
