"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

harness.import_program()

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

REFS = W.load_refs()


def test_generator_is_deterministic_per_seed():
    for name in W.WORKLOADS:
        assert W.generate(name, 7, REFS) == W.generate(name, 7, REFS)
    assert W.generate(W.QUERY_MIX, 7, REFS) != W.generate(W.QUERY_MIX, 8, REFS)
    for seed in range(20):
        docs = W.generate(W.SHINTANI_COLD, seed, REFS)
        assert docs == W.generate(W.SHINTANI_WARM, seed, REFS)
        assert [(d["S"], d["alpha"] in pool) for d, (_, pool) in zip(docs, W.SHINTANI_POOLS)] \
            == [(S, True) for S, _ in W.SHINTANI_POOLS]


def test_query_mix_composition_is_seed_independent():
    def kinds(seed):
        return sorted(d["kind"] for d in W.generate(W.QUERY_MIX, seed, REFS))
    assert kinds(1) == kinds(2)
    assert 200 <= len(kinds(1)) <= 300


def test_every_generated_document_is_valid_input():
    for name, seed in ((W.QUERY_MIX, 3), (W.SHINTANI_COLD, 3)):
        wl = harness.setup(name, seed, REFS, tag="valid")
        try:
            assert not [r for r in wl.setup_results if r.failure]
            _, _, results = harness.timed_passes(wl, 0)  # exactly one pass
        finally:
            harness.remove_workdir(wl)
        failures = [(r.doc["argv"], r.failure) for r in results if r.failure]
        assert not failures
        assert len(results) == len(wl.docs)


def test_planted_wrong_reference_counts_as_failure():
    docs = W.generate(W.QUERY_MIX, 5, REFS)
    for kind, plant in (("coeff", lambda ref: ref.update(value=ref["value"] * (1 + 1e-6) + 1e-6)),
                        ("orbits", lambda ref: ref.update(count=ref["count"] + 1))):
        doc = next(d for d in docs if d["kind"] == kind)
        rc, out, _ = harness.run_doc(doc["argv"])
        good = oracle.expect(doc, REFS)
        assert oracle.check(doc, good, rc, out) is None
        refs = copy.deepcopy(REFS)
        plant(refs[kind][W.doc_key(doc["argv"])])
        assert oracle.check(doc, oracle.expect(doc, refs), rc, out) is not None


def test_unstable_exit_is_an_outcome_not_a_failure():
    doc = W.generate(W.SHINTANI_COLD, 0, REFS)[0]
    exp = oracle.expect(doc, REFS)
    out = ('{"command":"shintani","error":{"code":"shintani-unstable","message":"m"},'
           '"result":{"residue_estimate":0.1251,"residue_exact":"1/8"}}')
    assert oracle.check(doc, exp, 3, out) is None
    assert oracle.is_unstable(doc, 3, json.loads(out))
    assert oracle.check(doc, exp, 2, out) is not None


def _namespaces():
    from tracecoef import cli

    snap = {m.__name__: dict(vars(m)) for m in spans.program_modules()}
    snap["JsonlCache"] = dict(vars(cli.JsonlCache))
    return snap


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[m].keys() == b[m].keys() and all(a[m][k] is b[m][k] for k in a[m]) for m in a)


def test_install_then_uninstall_leaves_namespaces_identical():
    from tracecoef import cli, lfun

    before = _namespaces()
    original_render, original_ls = cli.render_json, lfun.LS
    rec = spans.Recorder()
    rec.install()
    try:
        assert cli.render_json is not original_render
        assert lfun.LS is not original_ls
        import tracecoef
        assert tracecoef.LS is lfun.LS  # the re-export is wrapped as well
        assert not _same(before, _namespaces())
    finally:
        rec.uninstall()
    assert _same(before, _namespaces())


def test_traced_self_times_add_up_to_the_documents_wall_time():
    rec = spans.Recorder()
    rec.install()
    try:
        for i, argv in enumerate((["lfun", "--chi=-20", "--s=1", "--S=2,5", "--json"],
                                  ["coeff", "--group=sp2", "--orbit=reg", "--alpha=-1",
                                   "--S=2,3", "--json"])):
            rc, _, _ = harness.run_doc(argv, rec, f"0:{i}")
            assert rc == 0
    finally:
        rec.uninstall()
    stats, total = rec.layer_stats()
    assert stats["cli.other"]["calls"] == 2
    assert stats["lfun"]["calls"] > 0 and stats["coeff"]["calls"] == 1
    assert abs(sum(s["self_s"] for s in stats.values()) - total) < 1e-9
    assert rec.counts["arith.kronecker"] > 0
