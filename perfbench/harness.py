"""Set-up and timed passes of one workload, run inside its child process.

The loop is closed with a single client: each document starts only after
the previous one has returned.  Every document is one in-process call of
``tracecoef.cli.main(argv)`` with stdout captured, preceded by
``lfun.clear_cache()`` because each CLI command is its own process.
"""
from __future__ import annotations

import contextlib
import io
import os
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"


def import_program() -> float:
    """Import the program from the checkout's src/ and return the seconds taken."""
    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import tracecoef.cli  # noqa: F401
    return perf_counter() - t0


@dataclass
class DocResult:
    doc: dict
    rc: int | None
    out: str
    latency_s: float
    failure: str | None


@dataclass
class Workload:
    name: str
    docs: list
    expects: list
    workdir: Path
    cold_out: dict = field(default_factory=dict)   # doc id -> cold stdout (warm only)
    setup_results: list = field(default_factory=list)


def run_doc(argv, recorder=None, doc_id=None):
    """(exit code or None if it raised, stdout, latency in seconds)."""
    from tracecoef import cli, lfun

    lfun.clear_cache()
    buf = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv) if recorder is None else recorder.root(doc_id, cli.main, argv)
    except Exception:  # a raising document is a failed document, not a crash
        traceback.print_exc()
        rc = None
    return rc, buf.getvalue(), perf_counter() - t0


def _cache_path(wl: Workload, doc: dict, tag: str) -> Path | None:
    if doc.get("cache") == "sub":
        return wl.workdir / f"sub-{tag}.jsonl"
    if doc.get("cache") == "own":
        return wl.workdir / f"doc{doc['id']}-{tag}.jsonl"
    return None


def _run_checked(wl: Workload, doc, exp, cache, recorder=None, doc_id=None) -> DocResult:
    import oracle

    argv = doc["argv"] + ([f"--cache={cache}"] if cache else [])
    rc, out, lat = run_doc(argv, recorder, doc_id)
    failure = oracle.check(doc, exp, rc, out, wl.cold_out.get(doc["id"]))
    if failure:
        print(f"FAILED {' '.join(argv)}: {failure}", file=sys.stderr)
    return DocResult(doc, rc, out, lat, failure)


def setup(name: str, seed: int, refs: dict, tag: str) -> Workload:
    """Generate the documents, precompute their oracles and pre-fill caches."""
    import oracle
    import workloads

    docs = workloads.generate(name, seed, refs)
    expects = [oracle.expect(d, refs) for d in docs]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"{name}-{seed}-{os.getpid()}-{tag}"
    workdir.mkdir(exist_ok=True)
    wl = Workload(name, docs, expects, workdir)
    if name == workloads.QUERY_MIX:
        # the subregular documents read one shared cache, filled here
        for doc, exp in zip(docs, expects):
            if doc.get("cache") == "sub":
                wl.setup_results.append(_run_checked(wl, doc, exp, _cache_path(wl, doc, "fill")))
    elif name == workloads.SHINTANI_WARM:
        # fill each document's cache by running it cold; keep the output
        for doc, exp in zip(docs, expects):
            res = _run_checked(wl, doc, exp, _cache_path(wl, doc, "fill"))
            wl.setup_results.append(res)
            wl.cold_out[doc["id"]] = res.out
    return wl


def _pass_cache(wl: Workload, doc: dict, tag: str) -> Path | None:
    import workloads

    if wl.name != workloads.SHINTANI_COLD:
        return _cache_path(wl, doc, "fill")
    cache = _cache_path(wl, doc, tag)
    cache.unlink(missing_ok=True)  # a fresh empty cache for every cold run
    return cache


def timed_passes(wl: Workload, seconds: float):
    """Whole passes over the documents until `seconds` have elapsed.

    Returns (elapsed seconds, number of passes, [DocResult]).
    """
    results: list[DocResult] = []
    n = 0
    t0 = perf_counter()
    while True:
        for doc, exp in zip(wl.docs, wl.expects):
            results.append(_run_checked(wl, doc, exp, _pass_cache(wl, doc, f"p{n}")))
        n += 1
        elapsed = perf_counter() - t0
        if elapsed >= seconds:
            return elapsed, n, results


def traced_passes(wl: Workload, seconds: float, recorder):
    """Whole passes in which every document runs untraced and then traced.

    Running the two back to back lets slow drifts of the machine's speed
    cancel in the tracing overhead.  Passes continue until the untraced
    runs add up to `seconds`.  Returns (number of passes, untraced
    [DocResult], traced [DocResult]).
    """
    untraced: list[DocResult] = []
    traced: list[DocResult] = []
    n = 0
    while True:
        for doc, exp in zip(wl.docs, wl.expects):
            untraced.append(_run_checked(wl, doc, exp, _pass_cache(wl, doc, f"u{n}")))
            recorder.install()
            try:
                traced.append(_run_checked(wl, doc, exp, _pass_cache(wl, doc, f"t{n}"),
                                           recorder, f"{n}:{doc['id']}"))
            finally:
                recorder.uninstall()
        n += 1
        if sum(r.latency_s for r in untraced) >= seconds:
            return n, untraced, traced


def remove_workdir(wl: Workload):
    for p in wl.workdir.iterdir():
        p.unlink()
    wl.workdir.rmdir()
