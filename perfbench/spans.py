"""Tracing from outside the program: wrappers around public functions.

``Recorder.install`` replaces each traced function in every ``tracecoef``
module namespace that binds it, so call sites that did
``from .x import f`` are covered too, and ``uninstall`` puts the original
objects back.  A span records its document id, its parent span and its
start and end times; spans stay in memory until ``dump``.  A layer's self
time is the duration of its spans minus the duration of their child spans,
so the self times of all layers, plus the self time of the per-document
root span (``cli.other``), add up to the traced wall time of the documents.
"""
from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# layer -> (module, functions).  Functions not listed here count towards the
# self time of the nearest traced caller.
SPAN_LAYERS = {
    "lfun": ("lfun", ("LS", "deriv_LS", "laurent_at_1", "zetaS", "hurwitz",
                      "stieltjes_gamma")),
    "characters.disc_classes": ("characters", ("disc_classes",)),
    "characters.chars": ("characters", ("enum_quad_chars", "enum_cubic_chars", "chi_S")),
    "shintani.class_number": ("shintani", ("class_number_imag", "class_data_real",
                                           "l1_smoothed")),
    "shintani.build_terms": ("shintani", ("build_terms",)),
    "shintani.fit_extrap": ("shintani", ("residue_at_pole", "shintani_constant",
                                         "shintani_run")),
    "quadforms.orbits": ("quadforms", ("unipotent_orbit_set", "enum_form_classes",
                                       "hasse_profile")),
    "weights.engine": ("weights", ("gm_family_limit",)),
    "coeff": ("coeff", ("coeff_unipotent", "endoscopic_diff")),
    "cli.render": ("cli", ("render_json",)),
    "cli.cache.load": ("cli", ("open_cache",)),
}
# counted, not timed: these run hundreds of thousands of times per document
COUNTED = {"arith.kronecker": ("arith", "kronecker"), "arith.hilbert": ("arith", "hilbert")}
ROOT_LAYER = "cli.other"


def program_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tracecoef" or name.startswith("tracecoef."))]


class Recorder:
    """In-memory spans and counters for one traced phase."""

    def __init__(self):
        self.spans: list[list] = []   # [doc, parent, layer, t0, t1]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.doc = None
        self._saved: list[tuple] = []

    # -- span plumbing ------------------------------------------------------
    def _span(self, layer: str, fn, args, kwargs, on_result=None):
        sid = len(self.spans)
        span = [self.doc, self.stack[-1] if self.stack else None, layer, 0.0, 0.0]
        self.spans.append(span)
        self.stack.append(sid)
        span[3] = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[4] = perf_counter()
            self.stack.pop()
        if on_result is not None:
            on_result(out)
        return out

    def root(self, doc_id, fn, *args):
        """Run one document under its root span."""
        self.doc = doc_id
        return self._span(ROOT_LAYER, fn, args, {})

    def _timed(self, layer: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._span(layer, fn, args, kwargs, on_result)
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _cache_get(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(cache, D):
            out = fn(cache, D)
            counts["cli.cache.gets"] += 1
            counts["cli.cache.hits"] += out is not None
            return out
        return wrapper

    # -- install / uninstall -----------------------------------------------
    def install(self):
        """Wrap every traced function wherever a program module binds it."""
        if self._saved:
            raise RuntimeError("already installed")
        import tracecoef.cli as cli

        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in program_modules()}
        result_hooks = {
            "disc_classes": lambda r: self._add("characters.disc_classes.classes", len(r.entries)),
            "build_terms": lambda r: self._add("shintani.terms", len(r)),
        }
        wrapped = {}  # id(original) -> wrapper
        for layer, (mod, names) in SPAN_LAYERS.items():
            for name in names:
                fn = getattr(mods[mod], name)
                wrapped[id(fn)] = self._timed(layer, fn, result_hooks.get(name))
        for counter, (mod, name) in COUNTED.items():
            fn = getattr(mods[mod], name)
            wrapped[id(fn)] = self._counted(counter, fn)
        for m in mods.values():
            for key, val in list(vars(m).items()):
                w = wrapped.get(id(val))
                if w is not None and w.__wrapped__ is val:
                    self._saved.append((m, key, val))
                    setattr(m, key, w)
        cls = cli.JsonlCache
        for key, w in (("get", self._cache_get(cls.get)),
                       ("put", self._timed("cli.cache.put", cls.put))):
            self._saved.append((cls, key, cls.__dict__[key]))
            setattr(cls, key, w)

    def uninstall(self):
        while self._saved:
            owner, key, val = self._saved.pop()
            setattr(owner, key, val)

    def _add(self, name: str, k: int):
        self.counts[name] += k

    # -- results --------------------------------------------------------------
    def layer_stats(self) -> dict:
        """{layer: {"calls", "self_s", "max_s"}} and the traced wall time."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[1] is not None:
                child[s[1]] += s[4] - s[3]
        stats: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "max_s": 0.0})
        total = 0.0
        for i, (_doc, parent, layer, t0, t1) in enumerate(self.spans):
            st = stats[layer]
            st["calls"] += 1
            st["self_s"] += (t1 - t0) - child[i]
            st["max_s"] = max(st["max_s"], t1 - t0)
            if parent is None:
                total += t1 - t0
        return dict(stats), total

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (doc, parent, layer, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps({"doc": doc, "id": i, "parent": parent, "layer": layer,
                                     "t0": t0, "t1": t1}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
