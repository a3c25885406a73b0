"""tracecoef benchmark: query-mix, shintani-cold and shintani-warm.

Run from the repository root:

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 10 --trace 0

The workload runs in a child process of its own.  With --trace 0 the last
line of stdout is a JSON object with the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a separate traced pass.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
N_SETUPS = 3            # setup_s is the median of this many set-ups
CHILD_TIMEOUT_S = 175
SRC_MODULES = ("arith", "characters", "lfun", "shintani", "quadforms", "weights",
               "coeff", "cli", "selfcheck")


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["query-mix", "shintani-cold", "shintani-warm"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _pct(values, q):
    """The q-th percentile (linear interpolation between order statistics)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment(seed: int) -> dict:
    """Versions without importing scipy, which would add to the child's memory."""
    import mpmath

    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(), "seed": seed}


def nonblank_lines() -> dict:
    src = ROOT / "src" / "tracecoef"
    count = lambda p: sum(1 for line in p.read_text().splitlines() if line.strip())  # noqa: E731
    out = {m: count(src / f"{m}.py") for m in SRC_MODULES}
    out["total"] = sum(count(p) for p in sorted(src.glob("*.py")))
    return out


# ---------------------------------------------------------------------------
# child: set-up, timed passes, optional traced pass
# ---------------------------------------------------------------------------

def _tally(results) -> tuple[int, int]:
    return len(results), sum(1 for r in results if r.failure)


def _layer_metrics(rec, results, wall_u, wall_t):
    import oracle

    stats, total = rec.layer_stats()
    st = lambda layer: stats.get(layer, {"calls": 0, "self_s": 0.0, "max_s": 0.0})  # noqa: E731
    c = rec.counts
    m = {
        "lfun.calls": _metric(st("lfun")["calls"], "count"),
        "lfun.self_s": _metric(st("lfun")["self_s"], "s"),
        "lfun.max_call_ms": _metric(st("lfun")["max_s"] * 1e3, "ms"),
        "characters.disc_classes.self_s": _metric(st("characters.disc_classes")["self_s"], "s"),
        "characters.disc_classes.classes": _metric(c["characters.disc_classes.classes"], "count"),
        "characters.chars.self_s": _metric(st("characters.chars")["self_s"], "s"),
        "shintani.class_number.self_s": _metric(st("shintani.class_number")["self_s"], "s"),
        "shintani.class_number.calls": _metric(st("shintani.class_number")["calls"], "count"),
        "shintani.build_terms.self_s": _metric(st("shintani.build_terms")["self_s"], "s"),
        "shintani.fit_extrap.self_s": _metric(st("shintani.fit_extrap")["self_s"], "s"),
        "shintani.terms": _metric(c["shintani.terms"], "count"),
        "shintani.unstable": _metric(
            sum(oracle.is_unstable(r.doc, r.rc, json.loads(r.out))
                for r in results if not r.failure), "count"),
        "shintani.residue_rel_dev": _metric(max(
            [oracle.residue_rel_dev(r.out, oracle.residue_exact(r.doc["S"]))
             for r in results if r.doc["kind"] == "shintani" and not r.failure],
            default=0.0), "ratio"),
        "arith.kronecker.calls": _metric(c["arith.kronecker"], "count"),
        "arith.hilbert.calls": _metric(c["arith.hilbert"], "count"),
        "quadforms.orbits.self_s": _metric(st("quadforms.orbits")["self_s"], "s"),
        "weights.engine.self_s": _metric(st("weights.engine")["self_s"], "s"),
        "weights.engine.calls": _metric(st("weights.engine")["calls"], "count"),
        "coeff.self_s": _metric(st("coeff")["self_s"], "s"),
        "cli.render.self_s": _metric(st("cli.render")["self_s"], "s"),
        "cli.cache.load_s": _metric(st("cli.cache.load")["self_s"], "s"),
        "cli.cache.put.calls": _metric(st("cli.cache.put")["calls"], "count"),
        "cli.cache.put.self_s": _metric(st("cli.cache.put")["self_s"], "s"),
        "cli.cache.hit_ratio": _metric(
            c["cli.cache.hits"] / c["cli.cache.gets"] if c["cli.cache.gets"] else 0.0, "ratio"),
        "cli.other.self_s": _metric(st("cli.other")["self_s"], "s"),
        "trace.docs_s": _metric(total, "s"),
        "trace.overhead_frac": _metric(wall_t / wall_u - 1.0, "ratio"),
    }
    for mod, n in nonblank_lines().items():
        m[f"src.nonblank_lines.{mod}"] = _metric(n, "lines")
    accounted = sum(s["self_s"] for s in stats.values())
    return m, abs(accounted - total) <= 1e-9 * max(total, 1.0)


def child(args) -> dict:
    import harness

    import_s = harness.import_program()
    import spans
    import workloads

    refs = workloads.load_refs()
    setups, wl = [], None
    for i in range(N_SETUPS if args.trace == 0 else 1):
        t0 = perf_counter()
        if wl is not None:
            harness.remove_workdir(wl)
        wl = harness.setup(args.workload, args.seed, refs, tag=f"s{i}")
        setups.append(import_s + perf_counter() - t0)
    attempted, failed = _tally(wl.setup_results)

    out = {"env": environment(args.seed), "docs_per_pass": len(wl.docs)}
    if args.trace == 0:
        elapsed, passes, results = harness.timed_passes(wl, args.seconds)
        a, f = _tally(results)
        attempted, failed = attempted + a, failed + f
        lat_ms = [r.latency_s * 1e3 for r in results]
        out.update(passes=passes, samples=len(lat_ms), timed_s=elapsed, setups_s=setups)
        out["metrics"] = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "docs_per_s": _metric(len(results) / elapsed, "1/s"),
            "doc_p50_ms": _metric(_pct(lat_ms, 50), "ms"),
            "doc_p95_ms": _metric(_pct(lat_ms, 95), "ms"),
        }
    else:
        rec = spans.Recorder()
        passes, untraced, traced = harness.traced_passes(wl, args.seconds, rec)
        for part in (untraced, traced):
            a, f = _tally(part)
            attempted, failed = attempted + a, failed + f
        wall_u = sum(r.latency_s for r in untraced)
        wall_t = sum(r.latency_s for r in traced)
        out["metrics"], accounted = _layer_metrics(rec, traced, wall_u, wall_t)
        out.update(passes=passes, samples=len(traced), untraced_s=wall_u, traced_s=wall_t)
        if not accounted:
            print("trace: layer self times do not add up to the traced total", file=sys.stderr)
            failed += 1
        rec.dump(harness.OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    harness.remove_workdir(wl)
    out.update(attempted=attempted, failed=failed)
    return out


# ---------------------------------------------------------------------------
# parent: spawn the child, add its peak memory, print the result line
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "tracecoef" / "cli.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(child(args)))
        return 0
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"workload {args.workload} did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"workload child exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = res["metrics"]
    if args.trace == 0:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics["peak_rss_mb"] = _metric(rss_kb / 1024.0, "MB")
    info = {k: v for k, v in res.items() if k not in ("metrics", "attempted", "failed")}
    print(json.dumps({"workload": args.workload, "trace": args.trace, **info}))
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
