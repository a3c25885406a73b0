"""Nondegenerate binary symmetric forms over Q and unipotent orbit bookkeeping.

Diagonalization, the product-normalized Hasse invariant
eps_v(x) = (alpha,alpha)_v (alpha,beta)_v (beta,beta)_v for a diagonalization
diag(alpha,beta) (note the extra (alpha,alpha)(beta,beta) factors compared
with the textbook Hasse-Witt symbol), the equivalence relations by
S-square-class of the determinant with or without the Hasse profile,
realizable local invariant pairs, unipotent orbit enumeration for the six
groups, and semisimple-centralizer classification with coefficient descent.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .arith import (
    OO,
    PlaceSet,
    ScanBoundError,
    SquareClassRep,
    cclass_reps,
    hilbert,
    is_square_at,
    local_square_class,
    sclass_reps,
    squarefree_kernel,
)


@dataclass(frozen=True)
class SymForm2:
    """Symmetric 2x2 rational matrix [[a,b],[b,c]] with det = ac - b^2 != 0."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        object.__setattr__(self, "c", Fraction(self.c))
        if self.det == 0:
            raise ValueError("degenerate form")

    @property
    def det(self) -> Fraction:
        return self.a * self.c - self.b * self.b

    @classmethod
    def x_alpha(cls, alpha) -> "SymForm2":
        """The standard form diag(1, -alpha)."""
        return cls(Fraction(1), Fraction(0), -Fraction(alpha))

    def congruent_by(self, g) -> "SymForm2":
        """g^t x g for an invertible rational 2x2 matrix g = [[p,q],[r,s]]."""
        (p, q), (r, s) = g
        a, b, c = self.a, self.b, self.c
        return SymForm2(
            a * p * p + 2 * b * p * r + c * r * r,
            a * p * q + b * (p * s + q * r) + c * r * s,
            a * q * q + 2 * b * q * s + c * s * s,
        )

    def __str__(self):
        return f"[[{self.a},{self.b}],[{self.b},{self.c}]]"


def diagonalize(x: SymForm2) -> tuple[Fraction, Fraction]:
    """A rational congruence diagonalization (alpha, beta); alpha*beta and
    det(x) agree up to a square."""
    a, b, c = x.a, x.b, x.c
    if b == 0:
        return a, c
    if a != 0:
        return a, c - b * b / a
    if c != 0:
        return c, a - b * b / c  # basis swapped
    # a = c = 0, b != 0: Gram process with first vector (1,1)
    alpha = 2 * b  # value on (1,1)
    # second Gram vector: e2 - (B(e2,v1)/alpha) v1 with B(e2,v1) = b
    t = b / alpha
    beta = -2 * b * t * (1 - t)  # value of x on (-t, 1-t): 2*u*w*b with u=-t,w=1-t
    return alpha, beta


def hasse(x: SymForm2, v) -> int:
    """eps_v(x) = (alpha,alpha)_v (alpha,beta)_v (beta,beta)_v; independent of
    the diagonalization choice (proved true, and property-tested)."""
    return _hasse_diag(*diagonalize(x), v)


def _hasse_diag(alpha, beta, v) -> int:
    """eps_v of diag(alpha, beta)."""
    return hilbert(alpha, alpha, v) * hilbert(alpha, beta, v) * hilbert(beta, beta, v)


def hasse_profile(x: SymForm2, S: PlaceSet) -> dict:
    return {v: hasse(x, v) for v in S}


def classify_form(x: SymForm2, S: PlaceSet, rel: str = "det"):
    """Class label of x: for rel="det" the tuple of local square-class labels
    of -det(x) over S; for rel="det+hasse" additionally the Hasse profile."""
    minus_det = -x.det
    det_key = tuple(local_square_class(minus_det, v) for v in S)
    if rel == "det":
        return det_key
    if rel == "det+hasse":
        return det_key, tuple(hasse(x, v) for v in S)
    raise ValueError(f"unknown relation {rel!r}")


def is_equiv(x: SymForm2, y: SymForm2, S: PlaceSet, rel: str = "det") -> bool:
    return classify_form(x, S, rel) == classify_form(y, S, rel)


# ---------------------------------------------------------------------------
# Realizable local invariants and class representatives
# ---------------------------------------------------------------------------

_real_eps_cache: dict = {}


def _local_sq_reps(v) -> list[int]:
    """Integer representatives covering every square class of Q_v."""
    if v == OO:
        return [1, -1]
    if v == 2:
        return [1, 3, 5, 7, 2, 6, 10, 14]
    p = v
    n = next(r for r in range(2, p) if pow(r, (p - 1) // 2, p) == p - 1)
    return [1, n, p, n * p]


def realizable_eps(v, d) -> frozenset:
    """The set of eps_v values of local forms with -det in the square class
    of d, by enumerating the diagonal forms diag(u, -d/u) over a complete set
    of local square classes of u.

    Every local orbit with this determinant class contains such a form, so
    the 1-or-2 dichotomy emerges from the enumeration; nothing is hard-coded.
    """
    key = (v, local_square_class(d, v))
    hit = _real_eps_cache.get(key)
    if hit is not None:
        return hit
    out = frozenset(_hasse_diag(u, -Fraction(d) / u, v) for u in _local_sq_reps(v))
    _real_eps_cache[key] = out
    return out


def enum_form_classes(S: PlaceSet, rel: str = "det",
                      reps: list[SquareClassRep] | None = None) -> dict[SymForm2, dict]:
    """Representatives of V^ss(F)/~ for the chosen relation, each mapped to
    its Hasse profile {v: eps_v} over S.

    rel="det": one diag(1,-alpha) per S-square class alpha (via -det).
    rel="det+hasse": representatives for every realizable (det class, Hasse
    tuple), found as diag(u, -alpha*u) with u scanned over the same class
    representatives as alpha.  `reps` is sclass_reps(S), scanned here when
    not given.
    """
    if rel not in ("det", "det+hasse"):
        raise ValueError(f"unknown relation {rel!r}")
    if reps is None:
        reps = sclass_reps(S)
    if rel == "det":
        return {f: hasse_profile(f, S) for f in (SymForm2.x_alpha(a.value) for a in reps)}
    us = [x.value for x in reps]
    out: dict[SymForm2, dict] = {}
    for a in reps:
        targets = set(product(*[sorted(realizable_eps(v, a.value)) for v in S]))
        seen = set()
        for u in us:
            w = -a.value * u
            key = tuple(_hasse_diag(u, w, v) for v in S)
            if key in targets and key not in seen:
                seen.add(key)
                out[SymForm2(u, 0, w)] = dict(zip(S, key))
                if len(seen) == len(targets):
                    break
        if len(seen) != len(targets):
            raise ScanBoundError(
                f"found {len(seen)}/{len(targets)} Hasse tuples for alpha={a.value}"
            )
    return out


# ---------------------------------------------------------------------------
# Unipotent orbit sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitClass:
    """A unipotent conjugacy class over F_S meeting G(F).

    type: "tri" (identity), "min", "sub", "sub'" (the subregular class of
    diag(1,-1)), "reg".  param is None, a SquareClassRep, a CubeClassRep, or
    a SymForm2 representative for subregular classes, whose Hasse profile
    {v: eps_v} over S the enumeration leaves in hasse.
    """

    group: str
    type: str
    param: object = None
    hasse: dict | None = field(default=None, compare=False)

    def __str__(self):
        p = "" if self.param is None else f"({getattr(self.param, 'value', self.param)})"
        return f"{self.group}:{self.type}{p}"


def subregular_type(form: SymForm2, S: PlaceSet) -> str:
    """The type of the subregular class of form: sub' when -det lies in the
    trivial S-class (x_1's class, the hyperbolic plane only), else sub."""
    return "sub'" if all(is_square_at(-form.det, v) for v in S) else "sub"


def unipotent_orbit_set(group: str, S: PlaceSet) -> list[OrbitClass]:
    """The unipotent F_S-conjugacy classes meeting G(F), per group."""
    g = group.lower()
    if g == "gl2":
        return [OrbitClass("gl2", "tri"), OrbitClass("gl2", "reg")]
    if g == "sl2":
        return [OrbitClass("sl2", "tri")] + [
            OrbitClass("sl2", "reg", a) for a in sclass_reps(S)
        ]
    if g == "gl3":
        return [OrbitClass("gl3", "tri"), OrbitClass("gl3", "min"), OrbitClass("gl3", "reg")]
    if g == "sl3":
        return [OrbitClass("sl3", "tri"), OrbitClass("sl3", "min")] + [
            OrbitClass("sl3", "reg", a) for a in cclass_reps(S)
        ]
    if g in ("gsp2", "sp2"):
        S.require_2(f"the {group} orbit set")
        if g == "gsp2":
            rel, reps = "det", None
            orbits = [OrbitClass(g, "tri"), OrbitClass(g, "min")]
        else:
            rel, reps = "det+hasse", sclass_reps(S)
            orbits = [OrbitClass(g, "tri")] + [OrbitClass(g, "min", a) for a in reps]
        for f, eps in enum_form_classes(S, rel, reps).items():
            orbits.append(OrbitClass(g, subregular_type(f, S), f, eps))
        if g == "gsp2":
            orbits.append(OrbitClass(g, "reg"))
        else:
            orbits += [OrbitClass(g, "reg", a) for a in reps]
        return orbits
    raise ValueError(f"unknown group {group!r}")


# ---------------------------------------------------------------------------
# Semisimple centralizers in GSp(2) and coefficient descent
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CentralizerClass:
    """Classification data of the centralizer of a semisimple element of GSp(2).

    eps_flag is 1 when the split part of the centralizer's center equals that
    of the whole group (split rank 1); iota_order is always 1 here since each
    listed centralizer is connected.  eps_ambiguous marks the two families
    whose split-center rank is computed from the centralizer description
    rather than stated outright.
    """

    sigma_kind: str
    centralizer_tag: str
    iota_order: int
    eps_flag: int
    split_rank: int
    eps_ambiguous: bool = False
    params: tuple = ()


_CENTRALIZERS = {
    # kind: (tag, split rank of the center, ambiguous?)
    "z": ("GSp2", 1, False),
    "sigma1": ("pairs (g1,g2) in GL2xGL2 with det g1 = det g2", 1, False),
    "sigma2": ("GL1 x GL2", 2, False),
    "sigma3": ("GL1 x GL2", 2, False),
    "sigma4": ("g in Res_{E/Q} GL2 with det g in Gm, E = Q(sqrt(alpha))", 1, False),
    "sigma5": ("unitary similitude group GU(1,1,E/Q), E = Q(sqrt(alpha))", 1, True),
    "sigma6": ("(x,g) in Res_{E/Q} Gm x GL2 with Norm(x) = det g", 1, True),
}


def centralizer_classify(kind: str, *params) -> CentralizerClass:
    """Classify the centralizer of a listed semisimple kind.

    Kinds and parameters:
      z | sigma1 | sigma2 (x != 1) | sigma3 (x^2 != 1) | sigma4 (alpha nonsquare)
      | sigma5 (alpha nonsquare, x^2 - alpha y^2 != 0)
      | sigma6 (alpha nonsquare, x^2 - alpha y^2 = 1)
    """
    if kind not in _CENTRALIZERS:
        raise ValueError(f"unknown semisimple kind {kind!r}")
    if kind == "sigma2":
        (x,) = params
        if Fraction(x) == 1:
            raise ValueError("sigma2 requires x != 1")
    elif kind == "sigma3":
        (x,) = params
        if Fraction(x) ** 2 == 1:
            raise ValueError("sigma3 requires x^2 != 1")
    elif kind == "sigma4":
        (alpha,) = params
        if squarefree_kernel(alpha) == 1:
            raise ValueError("sigma4 requires a nonsquare alpha")
    elif kind == "sigma5":
        alpha, x, y = (Fraction(p) for p in params)
        if squarefree_kernel(alpha) == 1:
            raise ValueError("sigma5 requires a nonsquare alpha")
        if x * x - alpha * y * y == 0:
            raise ValueError("sigma5 requires x^2 - alpha y^2 != 0")
    elif kind == "sigma6":
        alpha, x, y = (Fraction(p) for p in params)
        if squarefree_kernel(alpha) == 1:
            raise ValueError("sigma6 requires a nonsquare alpha")
        if x * x - alpha * y * y != 1:
            raise ValueError("sigma6 requires x^2 - alpha y^2 = 1")
    tag, rank, amb = _CENTRALIZERS[kind]
    return CentralizerClass(
        sigma_kind=kind,
        centralizer_tag=tag,
        iota_order=1,
        eps_flag=1 if rank == 1 else 0,
        split_rank=rank,
        eps_ambiguous=amb,
        params=tuple(params),
    )


def descent_coeff(sigma: CentralizerClass, u: str, S: PlaceSet, vols=None, params=None):
    """Coefficient of sigma*u via descent: eps * |iota|^{-1} * (centralizer
    coefficient).  Supported centralizer families:

      z        -> the host group's own coefficient (u is an OrbitClass)
      sigma1   -> the equal-determinant GL2-pair group; u in
                  {"u_{1,0}", "u_{0,1}", "u_{alpha,1}"} (alpha via params)
      sigma2/3 -> GL1 x GL2; u = "u_1" (the GL2 regular unipotent)
      sigma5   -> U(1,1) over E = Q(sqrt(alpha)); u = "u_beta" (beta via params)

    sigma4/sigma6 need L-data of the quadratic field E itself and raise
    NotImplementedError (never a silent zero).
    """
    from . import coeff as _coeff

    vols = vols or _coeff.VolumeParams()
    if sigma.eps_flag == 0:
        return _coeff.zero_result(f"descent:eps=0:{sigma.sigma_kind}")
    if sigma.sigma_kind == "z":
        if not isinstance(u, OrbitClass):
            raise ValueError("for kind 'z' pass the host-group OrbitClass")
        return _coeff.coeff_unipotent(u, S, vols)
    if sigma.sigma_kind == "sigma1":
        return _coeff.centralizer_example_coeff("gl2pair", {"orbit": u, **(params or {})}, S, vols)
    if sigma.sigma_kind in ("sigma2", "sigma3"):
        return _coeff.centralizer_example_coeff("gl2", params or {}, S, vols)
    if sigma.sigma_kind == "sigma5":
        alpha = sigma.params[0]
        p = {"d": alpha, **(params or {})}
        return _coeff.centralizer_example_coeff("u11", p, S, vols)
    raise NotImplementedError(
        f"coefficients for centralizer family {sigma.sigma_kind} need L-function "
        "data of the quadratic extension E itself and are not implemented"
    )
