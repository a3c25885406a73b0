"""Seeded document generators for the benchmark workloads.

A document is one CLI invocation: a dict with an ``argv`` list for
``tracecoef.cli.main`` plus the fields its oracle needs.  The same seed
always gives the same documents.  Every category that has a cost spread is
sampled by strata with fixed counts, so that the seed changes which
parameters appear but hardly changes the total cost of a pass.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "refs.json"

QUERY_MIX = "query-mix"
SHINTANI_COLD = "shintani-cold"
SHINTANI_WARM = "shintani-warm"
WORKLOADS = (QUERY_MIX, SHINTANI_COLD, SHINTANI_WARM)

# query-mix composition (documents per pass)
N_L1 = 16            # lfun at s = 1, one per |D| stratum, |D| <= 200
N_L2 = 8             # lfun at s = 2, values and derivatives each, |D| <= 100
PER_COEFF_CELL = 4   # coeff documents per (group, orbit, S) cell
PER_DIFF_CELL = 5    # diff min/reg documents per (orbit, S) cell
PER_WEIGHT_CELL = 4  # weights --engine documents per case
SUB_X = 10**4        # truncation bound of the subregular documents

COEFF_S = ("2", "2,3")
# (group, orbit, kind of alpha parameter or None)
COEFF_ORBITS = (
    ("gl2", "tri", None), ("gl2", "reg", None),
    ("sl2", "tri", None), ("sl2", "reg", "sq"),
    ("gl3", "tri", None), ("gl3", "min", None), ("gl3", "reg", None),
    ("sl3", "tri", None), ("sl3", "min", None), ("sl3", "reg", "cube"),
    ("gsp2", "tri", None), ("gsp2", "min", None), ("gsp2", "reg", None),
    ("sp2", "tri", None), ("sp2", "min", "sq"), ("sp2", "reg", "sq"),
)
LAURENT_S = ("2", "3", "5", "2,3", "2,5", "3,7", "2,3,5", "2,3,5,7")
ORBIT_GROUPS = ("gl2", "sl2", "gl3", "sl3", "gsp2", "sp2")
CHARS_S = ("2", "3", "5", "2,3", "2,5", "3,5", "2,7")
T_VALUES = ("0", "0.5", "1", "-0.5")

# Subregular documents at X = 1e4, S = {oo,2}: one alpha of each sign per
# command, so that the imaginary and the real class-number kernels both run.
SUB_NEG = (-1, -5)
SUB_POS = (2, 6, 10, 14)
SUB_COMMANDS = (("coeff", "gsp2"), ("coeff", "sp2"), ("diff", None))

# Shintani pools.  Within a pool the sign of alpha and the number of classes
# at X are the same, so the cost of a document barely depends on which alpha
# the seed picks.  X = 1e5 rather than 2e5 keeps each document near 3 s, so
# that a run holds enough samples for its percentiles; alpha = 6 still raises
# the spurious shintani-unstable flag at this X.
SHINTANI_X = 100_000
SHINTANI_POOLS = (
    ("2", (-1, -5)),            # imaginary, about 2530 classes
    ("2", (2, 6, 10, 14)),      # real, about 1266 classes
    ("2,3", (-1, -5, -13)),     # imaginary, about 946 classes
)


def load_refs(path: Path = REFS_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def doc_key(argv) -> str:
    """Reference key of a document: its argv without run-local flags."""
    return " ".join(a for a in argv if not a.startswith("--cache=") and a != "--json")


# ---------------------------------------------------------------------------
# small number theory, kept independent of the program under test
# ---------------------------------------------------------------------------

def prime_support(n: int) -> list[int]:
    n, out, p = abs(n), [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _squarefree(n: int) -> bool:
    n, p = abs(n), 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


def fundamental_discriminants(bound: int) -> list[int]:
    """Nontrivial fundamental discriminants with |D| <= bound, by |D| then D."""
    out = []
    for D in range(-bound, bound + 1):
        if D in (0, 1):
            continue
        if D % 4 == 1 and _squarefree(D):
            out.append(D)
        elif D % 4 == 0 and (D // 4) % 4 in (2, 3) and _squarefree(D // 4):
            out.append(D)
    return sorted(out, key=lambda d: (abs(d), d))


def _strata(rng: random.Random, items: list, n: int) -> list:
    """One item from each of n consecutive, nearly equal slices of items."""
    k, r = divmod(len(items), n)
    out, start = [], 0
    for i in range(n):
        size = k + (1 if i < r else 0)
        out.append(rng.choice(items[start:start + size]))
        start += size
    return out


def _S_arg(primes) -> str:
    return ",".join(str(p) for p in sorted(set(primes)))


# ---------------------------------------------------------------------------
# query-mix
# ---------------------------------------------------------------------------

def _rat(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 4))


def _weights_doc(rng: random.Random, case: str) -> list[str]:
    """A weights --engine document whose closed form and family are defined."""
    r = lambda: _rat(rng)  # noqa: E731 - nonzero random rational
    u = None
    if case == "m0":
        nu = (r(), r(), r(), r())
    elif case == "m1-radical":
        while True:  # nu12 = 0 and det(Y) = n13*n24 - n14^2 != 0
            nu = (0, r(), r(), r())
            if nu[1] * nu[3] != nu[2] ** 2:
                break
    elif case == "m1-levi":
        nu, u = (r(), r(), r(), r()), r()
    elif case == "m2-radical":
        nu = (r(), r(), r(), 0)
    elif case == "m2-levi":
        nu, u = (r(), r(), r(), r()), r()
    elif case == "gl3-m0":
        nu = (r(), r(), r())
    elif case == "gl3-mp-radical":
        nu = (0, r(), r())
    else:  # gl3-mp-levi
        nu, u = (r(), r(), r()), r()
    which = case.split("-radical")[0].split("-levi")[0]
    argv = ["weights", f"--which={which}", "--nu=" + ",".join(str(x) for x in nu),
            f"--T={rng.choice(T_VALUES)},{rng.choice(T_VALUES)}",
            f"--S={rng.choice(COEFF_S)}", "--engine"]
    if u is not None:
        argv.append(f"--u={u}")
    return argv


WEIGHT_CASES = ("m0", "m1-radical", "m1-levi", "m2-radical", "m2-levi",
                "gl3-m0", "gl3-mp-radical", "gl3-mp-levi")


def query_mix(seed: int, refs: dict) -> list[dict]:
    rng = random.Random(f"{QUERY_MIX}:{seed}")
    docs: list[dict] = []

    for D in _strata(rng, fundamental_discriminants(200), N_L1):
        S = _S_arg(prime_support(D))
        docs.append({"kind": "lfun-s1", "D": D, "S": S,
                     "argv": ["lfun", f"--chi={D}", "--s=1", f"--S={S}"]})
    small = fundamental_discriminants(100)
    for deriv in (False, True):
        for D in _strata(rng, small, N_L2):
            S = _S_arg(prime_support(D) + [2])
            argv = ["lfun", f"--chi={D}", "--s=2", f"--S={S}"]
            docs.append({"kind": "lfun-s2", "D": D, "S": S, "deriv": deriv,
                         "argv": argv + (["--deriv"] if deriv else [])})
    for S in LAURENT_S:
        docs.append({"kind": "lfun-laurent", "S": S,
                     "argv": ["lfun", "--laurent", f"--S={S}"]})

    for S in COEFF_S:
        for group, orbit, par in COEFF_ORBITS:
            for _ in range(PER_COEFF_CELL):
                argv = ["coeff", f"--group={group}", f"--orbit={orbit}", f"--S={S}"]
                if par is not None:
                    argv.append(f"--alpha={rng.choice(refs['alphas'][f'{par}:{S}'])}")
                docs.append({"kind": "coeff", "argv": argv})
        for orbit in ("min", "reg"):
            for _ in range(PER_DIFF_CELL):
                alpha = rng.choice(refs["alphas"][f"sq:{S}"])
                docs.append({"kind": "diff", "argv": ["diff", f"--orbit={orbit}",
                                                      f"--alpha={alpha}", f"--S={S}"]})

    for cmd, group in SUB_COMMANDS:
        for pool in (SUB_NEG, SUB_POS):
            argv = [cmd] + ([f"--group={group}"] if group else [])
            argv += ["--orbit=sub", f"--alpha={rng.choice(pool)}", "--S=2", f"--X={SUB_X}"]
            docs.append({"kind": "coeff-sub" if cmd == "coeff" else "diff",
                         "argv": argv, "cache": "sub"})

    for case in WEIGHT_CASES:
        for _ in range(PER_WEIGHT_CELL):
            docs.append({"kind": "weights", "argv": _weights_doc(rng, case)})
    for S in COEFF_S:
        for group in ORBIT_GROUPS:
            docs.append({"kind": "orbits", "argv": ["orbits", f"--group={group}", f"--S={S}"]})
    for S in CHARS_S:
        for cubic in (False, True):
            docs.append({"kind": "chars",
                         "argv": ["chars", f"--S={S}"] + (["--cubic"] if cubic else [])})

    rng.shuffle(docs)
    return docs


# ---------------------------------------------------------------------------
# shintani-cold and shintani-warm
# ---------------------------------------------------------------------------

def shintani_docs(seed: int) -> list[dict]:
    """One shintani document per pool; cold and warm share the seed's picks."""
    rng = random.Random(f"shintani:{seed}")
    docs = []
    for S, pool in SHINTANI_POOLS:
        alpha = rng.choice(pool)
        docs.append({"kind": "shintani", "alpha": alpha, "S": S, "cache": "own",
                     "argv": ["shintani", f"--alpha={alpha}", f"--S={S}",
                              f"--X={SHINTANI_X}"]})
    return docs


def generate(workload: str, seed: int, refs: dict) -> list[dict]:
    if workload == QUERY_MIX:
        docs = query_mix(seed, refs)
    elif workload in (SHINTANI_COLD, SHINTANI_WARM):
        docs = shintani_docs(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, d in enumerate(docs):
        d["id"] = i
        d["argv"] = d["argv"] + ["--json"]
    return docs
