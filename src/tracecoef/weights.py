"""Truncation-dependent weight factors for GSp(2)/Sp(2) and GL(3)/SL(3).

The chamber tables v_{sP0}(lambda,n,T), their unipotent limits
w_{sP0}(lambda,1,nu,T) with the theta polynomials, the closed-form weight
factors w_{M0}, w_{M1}, w_{M2} (and the GL(3) analogues), and a generic
numeric limit engine for (G,M)-families used to cross-validate the closed
forms: it evaluates sum_P f_P(t*lambda0)/theta_P(t*lambda0) along a seeded
generic ray and Richardson-extrapolates t -> 0.

Heights are the S-heights: euclidean norm at the real place, max of the
p-adic absolute values at finite places, multiplied over v in S.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from .arith import OO, PlaceSet, valuation

_ENGINE_DPS = 40


class DegenerateWeightError(ValueError):
    """A quantity that must not vanish does; carries its name."""


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def abs_v(x: Fraction, v) -> Fraction | mpf:
    """Normalized absolute value of a nonzero rational at the place v."""
    x = _frac(x)
    if v == OO:
        return abs(x)
    return Fraction(v) ** (-valuation(x, v))


def abs_S(x, S: PlaceSet) -> mpf:
    """|x|_S = prod_{v in S} |x|_v: the real absolute value of x with the
    p-parts of numerator and denominator removed for every p in S."""
    x = _frac(x)
    if x == 0:
        raise DegenerateWeightError("entry vanishes inside |.|_S")
    num, den = abs(x.numerator), x.denominator
    for p in S.primes:
        e = valuation(x, p)
        if e > 0:
            num //= p**e
        elif e < 0:
            den //= p**-e
    return mpf(num) / den


def log_abs_S(x, S: PlaceSet) -> mpf:
    return mp.ln(abs_S(x, S))


def height_v(vec, v) -> mpf:
    """||(x_1..x_n)||_v: euclidean at the real place, max |.|_p at p."""
    if v == OO:
        return mp.sqrt(sum((mpf(_frac(x).numerator) / _frac(x).denominator) ** 2 for x in vec))
    best = None
    for x in vec:
        x = _frac(x)
        if x == 0:
            continue
        a = abs_v(x, v)
        if best is None or a > best:
            best = a
    if best is None:
        raise DegenerateWeightError("zero vector has no height")
    return mpf(best.numerator) / best.denominator


def height_S(vec, S: PlaceSet) -> mpf:
    out = mpf(1)
    for v in S:
        out *= height_v(vec, v)
    return out


# ---------------------------------------------------------------------------
# Entry containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NuEntries:
    """Upper-triangular coordinates of the rank-2 symplectic unipotent
    nu(n12,n13,n14,n24); the dependent entry is n23 = n14 - n12*n24."""

    n12: Fraction
    n13: Fraction
    n14: Fraction
    n24: Fraction
    S: PlaceSet

    def __post_init__(self):
        for name in ("n12", "n13", "n14", "n24"):
            object.__setattr__(self, name, _frac(getattr(self, name)))

    @property
    def n23(self) -> Fraction:
        return self.n14 - self.n12 * self.n24


@dataclass(frozen=True)
class Nu3Entries:
    """Entries of the GL(3) upper unipotent u(n12,n13,n23)."""

    n12: Fraction
    n13: Fraction
    n23: Fraction
    S: PlaceSet

    def __post_init__(self):
        for name in ("n12", "n13", "n23"):
            object.__setattr__(self, name, _frac(getattr(self, name)))


@dataclass(frozen=True)
class TruncParam:
    T1: float
    T2: float


GSP2_WEYL = ("1", "s0", "s2", "s0s1", "s0s2", "s1", "s0s1s2", "s1s2")
GL3_WEYL = ("1", "(12)", "(23)", "(123)", "(132)", "(13)")


# ---------------------------------------------------------------------------
# Chamber tables
# ---------------------------------------------------------------------------

def v_table(group: str, s: str, lam, n, T: TruncParam) -> mpf:
    """The chamber function v_{sP0}(lambda,n,T) for the given Weyl element.

    lam = (lam1, lam2) in the basis of fundamental weights; n carries the
    unipotent entries and the place set for heights.
    """
    l1, l2 = mpf(lam[0]), mpf(lam[1])
    T1, T2 = mpf(T.T1), mpf(T.T2)
    if group == "gsp2":
        S = n.S
        n12, n13, n14, n24, n23 = n.n12, n.n13, n.n14, n.n24, n.n23
        H = height_S
        if s == "1":
            return mp.exp(l1 * T1 + l2 * T2)
        if s == "s0":
            return H((1, n12), S) ** (-l2) * mp.exp(l1 * T1 + l2 * (T1 - T2))
        if s == "s2":
            return H((1, n24), S) ** (-l1) * mp.exp(-l1 * (T1 - 2 * T2) + l2 * T2)
        if s == "s0s1":
            return (
                H((1, n24), S) ** (l1 + l2)
                * H((1, n23, n24), S) ** (-2 * l1 - l2)
                * mp.exp(l1 * (T1 - 2 * T2) + l2 * (T1 - T2))
            )
        if s == "s0s2":
            # the height exponent 2*l1+l2 is forced by wall compatibility
            # with the s0 and s1 chambers (and mirrors the s0s1 row)
            return (
                H((1, n12, n12, n12 * n12, n13 + n12 * n14), S) ** (-l1 - l2)
                * H((1, n12), S) ** (2 * l1 + l2)
                * mp.exp(-l1 * (T1 - 2 * T2) - l2 * (T1 - T2))
            )
        if s == "s1":
            return (
                H((1, n12, n12, n12 * n12, n13 + n12 * n14), S) ** l1
                * H((1, n12, n13, n14), S) ** (-2 * l1 - l2)
                * mp.exp(l1 * (T1 - 2 * T2) - l2 * T2)
            )
        if s == "s0s1s2":
            return (
                H((1, n23, n23, n24, n13 - n12 * n23, n13 * n24 - n14 * n23), S) ** (-l1 - l2)
                * H((1, n23, n24), S) ** l2
                * mp.exp(-l1 * T1 - l2 * (T1 - T2))
            )
        if s == "s1s2":
            return (
                H((1, n23, n23, n24, n13 - n12 * n23, n13 * n24 - n14 * n23), S) ** (-l1)
                * H((1, n12, n13, n14), S) ** (-l2)
                * mp.exp(-l1 * T1 - l2 * T2)
            )
        raise ValueError(f"unknown Weyl element {s!r}")
    if group == "gl3":
        S = n.S
        n12, n13, n23 = n.n12, n.n13, n.n23
        H = height_S
        if s == "1":
            return mp.exp(l1 * T1 + l2 * T2)
        if s == "(12)":
            return H((1, n12), S) ** (-l1) * mp.exp(l1 * (T2 - T1) + l2 * T2)
        if s == "(23)":
            return H((1, n23), S) ** (-l2) * mp.exp(l1 * T1 + l2 * (T1 - T2))
        if s == "(123)":
            return (
                H((1, n12), S) ** l2
                * H((1, n12, n13), S) ** (-l1 - l2)
                * mp.exp(-l1 * T2 + l2 * (T1 - T2))
            )
        if s == "(132)":
            return (
                H((1, n23), S) ** l1
                * H((1, n13 - n12 * n23, n23), S) ** (-l1 - l2)
                * mp.exp(l1 * (T2 - T1) - l2 * T1)
            )
        if s == "(13)":
            return (
                H((1, n12, n13), S) ** (-l1)
                * H((1, n13 - n12 * n23, n23), S) ** (-l2)
                * mp.exp(-l1 * T2 - l2 * T1)
            )
        raise ValueError(f"unknown Weyl element {s!r}")
    raise ValueError(f"unknown group {group!r}")


_THETA = {  # group -> Weyl element -> theta_{sP0} as a function of (l1, l2)
    "gsp2": {
        "1": lambda l1, l2: l1 * l2,
        "s0": lambda l1, l2: (l1 + l2) * (-l2),
        "s2": lambda l1, l2: (-l1) * (2 * l1 + l2),
        "s0s1": lambda l1, l2: (l1 + l2) * (-2 * l1 - l2),
        "s0s2": lambda l1, l2: (-l1 - l2) * (2 * l1 + l2),
        "s1": lambda l1, l2: l1 * (-2 * l1 - l2),
        "s0s1s2": lambda l1, l2: (-l1 - l2) * l2,
        "s1s2": lambda l1, l2: l1 * l2,
    },
    "gl3": {
        "1": lambda l1, l2: l1 * l2,
        "(12)": lambda l1, l2: (-l1) * (l1 + l2),
        "(23)": lambda l1, l2: (l1 + l2) * (-l2),
        "(123)": lambda l1, l2: l2 * (-l1 - l2),
        "(132)": lambda l1, l2: (-l1 - l2) * l1,
        "(13)": lambda l1, l2: l1 * l2,
    },
}


def theta(group: str, s: str, lam) -> mpf:
    """theta_{sP0}(lambda) in the fundamental-weight coordinates."""
    l1, l2 = mpf(lam[0]), mpf(lam[1])
    if group not in _THETA:
        raise ValueError(f"unknown group {group!r}")
    if s not in _THETA[group]:
        raise ValueError(f"unknown Weyl element {s!r}")
    return _THETA[group][s](l1, l2)


def w_table(group: str, s: str, lam, nu, T: TruncParam) -> mpf:
    """The limiting unipotent family member w_{sP0}(lambda,1,nu,T); for
    gsp2 it depends on nu only through |nu12|_S and |nu24|_S, for gl3
    through |nu12|_S and |nu23|_S."""
    l1, l2 = mpf(lam[0]), mpf(lam[1])
    T1, T2 = mpf(T.T1), mpf(T.T2)
    if group == "gsp2":
        a12 = abs_S(nu.n12, nu.S)
        a24 = abs_S(nu.n24, nu.S)
        if s == "1":
            return mp.exp(l1 * T1 + l2 * T2)
        if s == "s0":
            return a12 ** (-l2) * mp.exp(l1 * T1 + l2 * (T1 - T2))
        if s == "s2":
            return a24 ** (-l1) * mp.exp(-l1 * (T1 - 2 * T2) + l2 * T2)
        if s == "s0s1":
            return (a12**2 * a24) ** (-l1) * a12 ** (-l2) * mp.exp(
                l1 * (T1 - 2 * T2) + l2 * (T1 - T2)
            )
        if s == "s0s2":
            return a24 ** (-l1) * (a12 * a24) ** (-l2) * mp.exp(
                -l1 * (T1 - 2 * T2) - l2 * (T1 - T2)
            )
        if s == "s1":
            return (a12**2 * a24) ** (-l1) * (a12**2 * a24) ** (-l2) * mp.exp(
                l1 * (T1 - 2 * T2) - l2 * T2
            )
        if s == "s0s1s2":
            return (a12**2 * a24**2) ** (-l1) * (a12 * a24) ** (-l2) * mp.exp(
                -l1 * T1 - l2 * (T1 - T2)
            )
        if s == "s1s2":
            return (a12**2 * a24**2) ** (-l1) * (a12**2 * a24) ** (-l2) * mp.exp(
                -l1 * T1 - l2 * T2
            )
        raise ValueError(f"unknown Weyl element {s!r}")
    if group == "gl3":
        a12 = abs_S(nu.n12, nu.S)
        a23 = abs_S(nu.n23, nu.S)
        if s == "1":
            return mp.exp(l1 * T1 + l2 * T2)
        if s == "(12)":
            return a12 ** (-l1) * mp.exp(l1 * (T2 - T1) + l2 * T2)
        if s == "(23)":
            return a23 ** (-l2) * mp.exp(l1 * T1 + l2 * (T1 - T2))
        if s == "(123)":
            return (a12 * a23) ** (-l1) * a23 ** (-l2) * mp.exp(-l1 * T2 + l2 * (T1 - T2))
        if s == "(132)":
            return a12 ** (-l1) * (a12 * a23) ** (-l2) * mp.exp(l1 * (T2 - T1) - l2 * T1)
        if s == "(13)":
            return (a12 * a23) ** (-l1) * (a12 * a23) ** (-l2) * mp.exp(-l1 * T2 - l2 * T1)
        raise ValueError(f"unknown Weyl element {s!r}")
    raise ValueError(f"unknown group {group!r}")


# ---------------------------------------------------------------------------
# Closed-form weight factors
# ---------------------------------------------------------------------------

def w_M0(nu: NuEntries, T: TruncParam) -> mpf:
    """Minimal-Levi weight factor of the rank-2 symplectic group."""
    if nu.n12 == 0:
        raise DegenerateWeightError("nu12 vanishes")
    if nu.n24 == 0:
        raise DegenerateWeightError("nu24 vanishes")
    L12 = log_abs_S(nu.n12, nu.S)
    L24 = log_abs_S(nu.n24, nu.S)
    T1, T2 = mpf(T.T1), mpf(T.T2)
    return (
        2 * L12**2
        + L24**2
        + 4 * L12 * L24
        + 4 * T1 * L12
        + 4 * T2 * L24
        + 8 * T1 * T2
        - 2 * T1**2
        - 4 * T2**2
    )


def w_M1(nu: NuEntries, T: TruncParam, u12=None) -> mpf:
    """Siegel-Levi weight factor.

    u12=None: nu must lie in the abelian radical (nu12 = 0); the factor is
    log|det Y|_S + 2 T1 with Y the symmetric block [[n13,n14],[n14,n24]].
    Otherwise (unipotent Levi part u12 != 0): 2log|u12| + 2log|nu24| + 2T1.
    """
    T1 = mpf(T.T1)
    if u12 is None:
        if nu.n12 != 0:
            raise DegenerateWeightError("nu12 must vanish for the radical case")
        detY = nu.n13 * nu.n24 - nu.n14 * nu.n14
        if detY == 0:
            raise DegenerateWeightError("det(Y) vanishes")
        return log_abs_S(detY, nu.S) + 2 * T1
    u12 = _frac(u12)
    if u12 == 0:
        raise DegenerateWeightError("u12 vanishes")
    if nu.n24 == 0:
        raise DegenerateWeightError("nu24 vanishes")
    return 2 * log_abs_S(u12, nu.S) + 2 * log_abs_S(nu.n24, nu.S) + 2 * T1


def w_M2(nu: NuEntries, T: TruncParam, u24=None) -> mpf:
    """Klingen-Levi weight factor.

    u24=None: nu in the radical (nu24 = 0); log||(nu12, nu13/2, nu14)||_S + 2T2.
    Otherwise: 2log|nu12| + log|u24| - log|2|_S + 2T2.
    """
    T2 = mpf(T.T2)
    if u24 is None:
        if nu.n24 != 0:
            raise DegenerateWeightError("nu24 must vanish for the radical case")
        if nu.n12 == 0 and nu.n13 == 0 and nu.n14 == 0:
            raise DegenerateWeightError("(nu12, nu13, nu14) vanishes")
        return mp.ln(height_S((nu.n12, nu.n13 / 2, nu.n14), nu.S)) + 2 * T2
    u24 = _frac(u24)
    if u24 == 0:
        raise DegenerateWeightError("u24 vanishes")
    if nu.n12 == 0:
        raise DegenerateWeightError("nu12 vanishes")
    return (
        2 * log_abs_S(nu.n12, nu.S)
        + log_abs_S(u24, nu.S)
        - log_abs_S(Fraction(2), nu.S)
        + 2 * T2
    )


def w_M0_gl3(nu: Nu3Entries, T: TruncParam) -> mpf:
    """Minimal-Levi weight factor of GL(3)."""
    if nu.n12 == 0:
        raise DegenerateWeightError("nu12 vanishes")
    if nu.n23 == 0:
        raise DegenerateWeightError("nu23 vanishes")
    L12 = log_abs_S(nu.n12, nu.S)
    L23 = log_abs_S(nu.n23, nu.S)
    T1, T2 = mpf(T.T1), mpf(T.T2)
    return (
        (L12**2 + L23**2 + 4 * L12 * L23) / 2
        + 3 * T2 * L12
        + 3 * T1 * L23
        - mpf(3) / 2 * T1**2
        - mpf(3) / 2 * T2**2
        + 6 * T1 * T2
    )


def w_Mp_gl3(nu: Nu3Entries, T: TruncParam, u12=None) -> mpf:
    """Maximal-Levi weight factor of GL(3).

    u12=None: nu in the radical (nu12 = 0); log||(nu13, nu23)||_S + T1 + T2.
    Otherwise: log|nu23 * u12|_S + T1 + T2.
    """
    T1, T2 = mpf(T.T1), mpf(T.T2)
    if u12 is None:
        if nu.n12 != 0:
            raise DegenerateWeightError("nu12 must vanish for the radical case")
        if nu.n13 == 0 and nu.n23 == 0:
            raise DegenerateWeightError("(nu13, nu23) vanishes")
        return mp.ln(height_S((nu.n13, nu.n23), nu.S)) + T1 + T2
    u12 = _frac(u12)
    if u12 == 0:
        raise DegenerateWeightError("u12 vanishes")
    if nu.n23 == 0:
        raise DegenerateWeightError("nu23 vanishes")
    return log_abs_S(nu.n23 * u12, nu.S) + T1 + T2


# ---------------------------------------------------------------------------
# (G,M)-family builders for the limit engine
# ---------------------------------------------------------------------------

def family_m0(nu: NuEntries, T: TruncParam):
    """The eight-member minimal-Levi family of the rank-2 symplectic group."""
    return [
        (
            (lambda lam, s=s: w_table("gsp2", s, lam, nu, T)),
            (lambda lam, s=s: theta("gsp2", s, lam)),
        )
        for s in GSP2_WEYL
    ]


def family_m0_gl3(nu: Nu3Entries, T: TruncParam):
    return [
        (
            (lambda lam, s=s: w_table("gl3", s, lam, nu, T)),
            (lambda lam, s=s: theta("gl3", s, lam)),
        )
        for s in GL3_WEYL
    ]


def _two_member(Q: mpf, Tproj: mpf):
    """The family {e^{l*T}, Q^{-l} e^{-l*T}} with theta = l, -l (l = lam[0])."""
    lnQ = mp.ln(Q)
    return [
        ((lambda lam: mp.exp(lam[0] * Tproj)), (lambda lam: lam[0])),
        (
            (lambda lam: mp.exp(-lam[0] * (lnQ + Tproj))),
            (lambda lam: -lam[0]),
        ),
    ]


def family_m1(nu: NuEntries, T: TruncParam, u12=None):
    """Two-member Siegel-Levi family whose limit is w_M1."""
    if u12 is None:
        detY = nu.n13 * nu.n24 - nu.n14 * nu.n14
        if nu.n12 != 0:
            raise DegenerateWeightError("nu12 must vanish for the radical case")
        if detY == 0:
            raise DegenerateWeightError("det(Y) vanishes")
        Q = abs_S(detY, nu.S)
    else:
        if _frac(u12) == 0 or nu.n24 == 0:
            raise DegenerateWeightError("u12 or nu24 vanishes")
        Q = abs_S(_frac(u12) ** 2 * nu.n24**2, nu.S)
    return _two_member(Q, mpf(T.T1))


def family_m2(nu: NuEntries, T: TruncParam, u24=None):
    """Two-member Klingen-Levi family whose limit is w_M2."""
    if u24 is None:
        if nu.n24 != 0:
            raise DegenerateWeightError("nu24 must vanish for the radical case")
        Q = height_S((nu.n12, nu.n13 / 2, nu.n14), nu.S)
    else:
        if _frac(u24) == 0 or nu.n12 == 0:
            raise DegenerateWeightError("u24 or nu12 vanishes")
        Q = abs_S(nu.n12**2 * _frac(u24) / 2, nu.S)
    return _two_member(Q, mpf(T.T2))


def family_mp_gl3(nu: Nu3Entries, T: TruncParam, u12=None):
    """Two-member maximal-Levi family of GL(3); the T-projection is split
    asymmetrically (T2 on one side, T1 on the other)."""
    if u12 is None:
        if nu.n12 != 0:
            raise DegenerateWeightError("nu12 must vanish for the radical case")
        Q = height_S((nu.n13, nu.n23), nu.S)
    else:
        if _frac(u12) == 0 or nu.n23 == 0:
            raise DegenerateWeightError("u12 or nu23 vanishes")
        Q = abs_S(nu.n23 * _frac(u12), nu.S)
    lnQ = mp.ln(Q)
    T1, T2 = mpf(T.T1), mpf(T.T2)
    return [
        ((lambda lam: mp.exp(lam[0] * T2)), (lambda lam: lam[0])),
        ((lambda lam: mp.exp(-lam[0] * (lnQ + T1))), (lambda lam: -lam[0])),
    ]


# ---------------------------------------------------------------------------
# Numeric (G,M)-family limit engine
# ---------------------------------------------------------------------------

class FamilyLimitError(RuntimeError):
    """Richardson extrapolation diverged: invalid family or precision loss."""


def _richardson(values, ratio=2):
    """Richardson table for f(t_k) with t_k = t0/ratio^k; returns the final
    extrapolant and the last correction size."""
    level = [mpf(v) for v in values]
    corr = mpf("inf")
    for m in range(1, len(values)):
        nxt = []
        mult = mpf(ratio) ** m
        for i in range(len(level) - 1):
            nxt.append((mult * level[i + 1] - level[i]) / (mult - 1))
        corr = abs(nxt[-1] - level[-1]) if nxt else corr
        level = nxt
    return level[0], corr


def _ray_limit(members, lam0, t0, npts):
    vals = []
    for k in range(npts):
        t = mpf(t0) / 2**k
        lam = (t * lam0[0], t * lam0[1])
        tot = mpf(0)
        for f, th in members:
            tot += f(lam) / th(lam)
        vals.append(tot)
    return _richardson(vals)


def gm_family_limit(members, dims: int = 2, seed: int = 20240801, npts: int = 12):
    """Numeric limit at lambda -> 0 of sum_P f_P(lambda)/theta_P(lambda).

    members: list of (f, theta) callables taking lam = (lam1, lam2).
    Evaluates along a seeded generic ray with Richardson extrapolation; a
    second independent ray is a consistency check.  Returns (value, err).
    """
    rng = random.Random(seed)
    with mp.workdps(_ENGINE_DPS + 8 * (dims - 1)):
        results = []
        for _ in range(2):
            # generic direction: irrational-ish slope, away from theta zeros
            a = 1 + rng.random() * 0.7
            b = (0.3 + rng.random() * 0.4) * mp.sqrt(2)
            lam0 = (mpf(a), mpf(a) * b)
            val, corr = _ray_limit(members, lam0, mpf(1) / 4, npts)
            results.append((val, corr))
        (v1, c1), (v2, c2) = results
        err = abs(v1 - v2) + c1 + c2
        if not (err < abs(v1) * mpf("1e-4") + mpf("1e-4")):
            raise FamilyLimitError(
                f"family limit unstable: ray values {v1}, {v2}, corrections {c1}, {c2}"
            )
        out = +((v1 + v2) / 2)
        errf = +err
    return out, errf
