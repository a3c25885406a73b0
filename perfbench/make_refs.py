"""Regenerate refs.json: stored reference outputs for the query-mix oracles.

The coeff, orbits and chars documents of query-mix are checked against the
outputs recorded here.  Run from the repository root:

    python3 perfbench/make_refs.py

Every catalogue document must exit 0; the script stops otherwise.
"""
from __future__ import annotations

import json
import sys

from harness import import_program, run_doc
import workloads as W


def _catalogue_alphas() -> dict:
    from tracecoef.arith import PlaceSet, cclass_reps, sclass_reps

    out = {}
    for S in W.COEFF_S:
        ps = PlaceSet.of(*[int(p) for p in S.split(",")])
        out[f"sq:{S}"] = [r.value for r in sclass_reps(ps)]
        out[f"cube:{S}"] = [r.value for r in cclass_reps(ps)]
    return out


def _result(argv) -> dict:
    rc, out, _ = run_doc(argv + ["--json"])
    if rc != 0:
        sys.exit(f"reference document failed with exit {rc}: {' '.join(argv)}\n{out}")
    return json.loads(out)["result"]


def _coeff_ref(argv) -> dict:
    res = _result(argv)
    return {"value": res["value"], "error": res["error"],
            "provenance": res["provenance"], "n_terms": len(res["terms"])}


def _one_entry_per_line(refs: dict) -> str:
    """JSON with one reference per line, so that a change shows as one line."""
    sections = []
    for name in sorted(refs):
        rows = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                for k, v in sorted(refs[name].items())]
        sections.append(f"{json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


def main():
    import_program()
    alphas = _catalogue_alphas()
    refs = {"alphas": alphas, "coeff": {}, "orbits": {}, "chars": {}}
    for S in W.COEFF_S:
        for group, orbit, par in W.COEFF_ORBITS:
            base = ["coeff", f"--group={group}", f"--orbit={orbit}", f"--S={S}"]
            for a in (alphas[f"{par}:{S}"] if par else [None]):
                argv = base + ([f"--alpha={a}"] if a is not None else [])
                refs["coeff"][W.doc_key(argv)] = _coeff_ref(argv)
        for group in W.ORBIT_GROUPS:
            argv = ["orbits", f"--group={group}", f"--S={S}"]
            refs["orbits"][W.doc_key(argv)] = _result(argv)
    for cmd, group in W.SUB_COMMANDS:
        if cmd != "coeff":
            continue
        for a in W.SUB_NEG + W.SUB_POS:
            argv = ["coeff", f"--group={group}", "--orbit=sub", f"--alpha={a}", "--S=2",
                    f"--X={W.SUB_X}"]
            refs["coeff"][W.doc_key(argv)] = _coeff_ref(argv)
    for S in W.CHARS_S:
        for cubic in (False, True):
            argv = ["chars", f"--S={S}"] + (["--cubic"] if cubic else [])
            refs["chars"][W.doc_key(argv)] = _result(argv)
    with open(W.REFS_PATH, "w", encoding="utf-8") as fh:
        fh.write(_one_entry_per_line(refs))
    print(f"wrote {W.REFS_PATH}: {len(refs['coeff'])} coeff, {len(refs['orbits'])} orbits, "
          f"{len(refs['chars'])} chars references")


if __name__ == "__main__":
    main()
