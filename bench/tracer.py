"""Span tracer that wraps rcfold's public entry points from outside.

Each hooked function is replaced, in every ``rcfold`` module namespace that
binds it, by a wrapper that records a span: layer, function, start, end,
parent span and operation id. The library's modules import each other with
``from .x import y``, so every consumer holds its own binding and each one is
patched. ``iter_essential_branches`` is timed per ``next()``. Work counts are
read from public return values only, and no private name is hooked. A hooked
name missing from its defining module raises ``HookMissing``, so a rewrite
cannot silently empty a layer.

Spans stay in memory until the caller writes them out. A layer's self time is
the duration of its spans minus the time covered by their child spans.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def _pipeline(rep, counts):
    counts["association.pipeline.branches"] += rep.branches
    counts["association.pipeline.distinct_limits"] += rep.distinct_limits


def _scan(rep, counts):
    counts["association.scan.pairs"] += rep.quantifier_log["pairs"]
    counts["association.scan.splits"] += rep.quantifier_log.get("splits", 0)


def _lattice(rep, counts):
    counts["association.lattice.foldings"] += rep.quantifier_log.get("foldings", 0)


def _hypothesis(rep, counts):
    counts["occurrence.hypothesis.foldings"] += rep.foldings_checked


def _box_sweep(res, counts):
    counts["occurrence.box_sweep.pairs"] += res["pairs"]


def _rendered(text, counts):
    counts["serialize.report_bytes"] += len(text.encode())


# (defining module, public name) -> (layer, work counter read from the result)
HOOKS = {
    ("rcfold.generators", "binary_space"): ("generators", None),
    ("rcfold.generators", "random_measure"): ("generators", None),
    ("rcfold.generators", "random_product_measure"): ("generators", None),
    ("rcfold.generators", "random_fkg_measure"): ("generators", None),
    ("rcfold.generators", "random_nfkg_measure"): ("generators", None),
    ("rcfold.folding", "fold"): ("folding.api", None),
    ("rcfold.folding", "fold_path"): ("folding.api", None),
    ("rcfold.folding", "fold_window"): ("folding.api", None),
    ("rcfold.folding", "essentialize"): ("folding.api", None),
    ("rcfold.folding", "branch_limit"): ("folding.convergence", None),
    ("rcfold.folding", "check_convergence_bound"): ("folding.convergence", None),
    ("rcfold.association", "fkg_theorem_pipeline"): ("association.pipeline", _pipeline),
    ("rcfold.association", "snfkg_limit_rcr"): ("association.pipeline", _pipeline),
    ("rcfold.association", "is_pa"): ("association.scan", _scan),
    ("rcfold.association", "is_na"): ("association.scan", _scan),
    ("rcfold.association", "is_fkg"): ("association.lattice", _lattice),
    ("rcfold.association", "is_fkg_via_foldings"): ("association.lattice", _lattice),
    ("rcfold.association", "is_nfkg"): ("association.lattice", _lattice),
    ("rcfold.association", "is_snfkg"): ("association.lattice", _lattice),
    ("rcfold.rcr", "check_sublattice"): ("rcr.sublattice", None),
    ("rcfold.rcr", "induced_measure"): ("rcr.base", None),
    ("rcfold.rcr", "verify_rcr"): ("rcr.base", None),
    ("rcfold.rcr", "construct_uniform_symmetric_rcr"): ("rcr.base", None),
    ("rcfold.rcr", "complete_pairing_base"): ("rcr.base", None),
    ("rcfold.rcr", "predicates"): ("rcr.base", None),
    ("rcfold.rcr", "ising_build"): ("rcr.base", None),
    ("rcfold.rcr", "ising_measure"): ("rcr.base", None),
    ("rcfold.occurrence", "check_folding_hypothesis_bound"): ("occurrence.hypothesis", _hypothesis),
    ("rcfold.occurrence", "check_disjoint_cluster_bound"): ("occurrence.cluster_bound", None),
    ("rcfold.occurrence", "box_product_sweep"): ("occurrence.box_sweep", _box_sweep),
    ("rcfold.measures", "normalize"): ("measures.normalize", None),
    ("rcfold.suites", "run_suite"): ("suites", None),
    ("rcfold.serialize", "dumps_canonical"): ("serialize", _rendered),
}
WALK = ("rcfold.folding", "iter_essential_branches")
WALK_LAYER = "folding.walk"

LAYERS = (
    "generators",
    WALK_LAYER,
    "folding.api",
    "folding.convergence",
    "association.pipeline",
    "association.scan",
    "association.lattice",
    "rcr.sublattice",
    "rcr.base",
    "occurrence.hypothesis",
    "occurrence.cluster_bound",
    "occurrence.box_sweep",
    "measures.normalize",
    "suites",
    "serialize",
)

# A conditioned generator that calls one of these has given up rejection
# sampling and returns a fallback family (product or balanced mixture).
CONDITIONED = frozenset({"random_fkg_measure", "random_nfkg_measure"})
FALLBACKS = frozenset({"random_product_measure", "induced_measure"})

# Work counts that must repeat exactly on the same inputs.
COUNT_NAMES = (
    "generators.conditioned",
    "generators.predicate_checks",
    "generators.fallbacks",
    "folding.walk.branches",
    "association.pipeline.branches",
    "association.pipeline.distinct_limits",
    "association.scan.pairs",
    "association.scan.splits",
    "association.lattice.foldings",
    "occurrence.hypothesis.foldings",
    "occurrence.box_sweep.pairs",
    "serialize.report_bytes",
)


class HookMissing(RuntimeError):
    """A public entry point the tracer must wrap no longer exists."""


class Tracer:
    """Records spans around rcfold's public calls while installed."""

    def __init__(self):
        # each span: [layer, function, start, end, parent index, op id, outermost]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._open = Counter()

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def _enter(self, layer: str, fn: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if parent >= 0:
            parent_layer, parent_fn = self.spans[parent][0], self.spans[parent][1]
            if parent_fn in CONDITIONED and fn in FALLBACKS:
                self.counts["generators.fallbacks"] += 1
            if parent_layer == "generators" and layer == "association.lattice":
                self.counts["generators.predicate_checks"] += 1
        if fn in CONDITIONED:
            self.counts["generators.conditioned"] += 1
        idx = len(self.spans)
        self.spans.append([layer, fn, 0.0, 0.0, parent, self.op, self._open[layer] == 0])
        self._stack.append(idx)
        self._open[layer] += 1
        self.spans[idx][2] = perf_counter()
        return idx

    def _exit(self, idx: int) -> None:
        end = perf_counter()
        span = self.spans[idx]
        span[3] = end
        self._stack.pop()
        self._open[span[0]] -= 1

    def _wrap(self, fn, layer, count):
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if count is not None:
                count(result, self.counts)
            return result

        return traced

    def _wrap_walk(self, fn):
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            branches = fn(*args, **kwargs)
            while True:
                idx = self._enter(WALK_LAYER, name)
                try:
                    item = next(branches)
                except StopIteration:
                    return
                finally:
                    self._exit(idx)
                self.counts["folding.walk.branches"] += 1
                yield item

        return traced

    @contextmanager
    def installed(self):
        """Patch every rcfold binding of each hooked function; restore on exit."""
        modules = [m for name, m in list(sys.modules.items()) if name == "rcfold" or name.startswith("rcfold.")]
        patches = []
        try:
            for (modname, name), (layer, count) in HOOKS.items():
                original = _lookup(modname, name)
                patches += _patch(modules, original, self._wrap(original, layer, count))
            original = _lookup(*WALK)
            patches += _patch(modules, original, self._wrap_walk(original))
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per layer: calls and busy time of spans entered from outside the
        layer, and self time of all its spans."""
        child = [0.0] * len(self.spans)
        for layer, fn, start, end, parent, op, outer in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        busy = defaultdict(float)
        own = defaultdict(float)
        for i, (layer, fn, start, end, parent, op, outer) in enumerate(self.spans):
            own[layer] += end - start - child[i]
            if outer:
                calls[layer] += 1
                busy[layer] += end - start
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.busy_s"] = busy[layer]
            out[f"{layer}.self_s"] = own[layer]
        return out

    def write(self, path, extra: dict) -> None:
        """Write every recorded span, one JSON object per line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(extra) + "\n")
            for layer, fn, start, end, parent, op, outer in self.spans:
                fh.write(json.dumps([layer, fn, start, end, parent, op]) + "\n")


def _lookup(modname: str, name: str):
    module = importlib.import_module(modname)
    original = getattr(module, name, None)
    if not callable(original):
        raise HookMissing(f"{modname}.{name} is gone; the benchmark's layer map must follow it")
    return original


def _patch(modules, original, wrapper) -> list:
    patches = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                patches.append((module, attr, original))
    return patches
