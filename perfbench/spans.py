"""Outside-in tracing for the benchmark.

Every module of rainbowpath binds the names it imports, so patching the
defining module alone misses most calls. The tracer therefore replaces each
traced name inside every consumer module (``harness.longest_induced_rainbow_path``,
``colorful.induced_subgraph``, ``grading.chromatic_number``, ...) with a
wrapper that records one span per call: name, start, end and the span that
was open when the call began. Spans stay in memory in flat arrays and are
summarised (and written out) only after the measured phase.

Self time of a span is its duration minus the time its direct children
cover; calls are strictly nested in this single-threaded program, so the
subtraction is exact.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import math
import time
from array import array
from collections import Counter
from typing import Callable, Iterator

# (layer name, consumer attributes). Each attribute is "module.name" inside
# rainbowpath; every listed binding gets its own wrapper around the original.
LAYERS: dict[str, tuple[str, ...]] = {
    "harness.run_corpus": ("harness.run_corpus",),
    "harness.check_graph": ("harness.check_graph",),
    "harness.coloring_digest": ("harness.coloring_digest",),
    "harness.report_to_json": ("harness.report_to_json",),
    "graph6.decode": ("harness.decode_graph6",),
    "graph6.write_corpus": ("graph6.write_corpus",),
    "oracle.rainbow": ("harness.longest_induced_rainbow_path",
                       "oracle.longest_induced_rainbow_path"),
    "oracle.induced_path": ("oracle.longest_induced_path", "grading.longest_induced_path"),
    "oracle.most_colorful": ("oracle.max_colorful_induced_path_from",),
    "oracle.gallai_roy": ("harness.gallai_roy_rainbow_path", "oracle.gallai_roy_rainbow_path"),
    "chromatic.chi": ("harness.chromatic_number", "colorful.chromatic_number",
                      "grading.chromatic_number", "chromatic.chromatic_number"),
    "chromatic.dsatur": ("chromatic.dsatur_coloring", "colorful.dsatur_coloring"),
    "colorful": ("harness.colorful_path_from",),
    "graphs.induced_subgraph": ("harness.induced_subgraph", "colorful.induced_subgraph",
                                "grading.induced_subgraph"),
    "graphs.connected_components": ("harness.connected_components",
                                    "colorful.connected_components"),
    "graphs.is_triangle_free": ("harness.is_triangle_free", "colorful.is_triangle_free"),
    "grading.rainbow_or_witness": ("grading.rainbow_or_witness",),
    "generators": ("generators.mycielski_iterates", "generators.mycielskian",
                   "generators.random_triangle_free", "generators.cycle_graph",
                   "graphs.build_graph"),
}
# Generators: each call yields one span, timed on every next().
ITER_LAYERS: dict[str, tuple[str, ...]] = {
    "chromatic.enum": ("harness.iter_colorings",),
}
# Layers whose per-call durations are reported as a distribution.
DISTRIBUTION_LAYERS = ("oracle.rainbow", "oracle.induced_path", "oracle.most_colorful",
                       "colorful")
SEARCH_LAYERS = ("oracle.rainbow", "oracle.induced_path", "oracle.most_colorful")


def _observe_search(layer: str) -> Callable:
    def observe(counts: Counter, args: tuple, result) -> None:
        counts[f"{layer}.nodes"] += result.nodes
        counts[f"{layer}.inexact"] += not result.exact
        if layer == "oracle.rainbow":
            counts["oracle.rainbow.palette_hits"] += (
                result.path.order == args[0].coloring.palette_size
            )
    return observe


def _observe_colorful(counts: Counter, args: tuple, result) -> None:
    counts["colorful.steps"] += len(result.steps)


OBSERVERS: dict[str, Callable] = {layer: _observe_search(layer) for layer in SEARCH_LAYERS}
OBSERVERS["colorful"] = _observe_colorful


def tail_percentile(n: int) -> int:
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    for pct in (99.9, 99, 90):
        if n * (100 - pct) / 100 >= 10:
            return pct
    return 50


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


class Tracer:
    """Span recorder that patches rainbowpath's consumer modules in place."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = [-1]
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._chi_original = None
        self._chi_info_before = None

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._open(name)
        observe = OBSERVERS.get(name)
        name_of, parent, start, end, stack = (self.name_of, self.parent, self.start,
                                              self.end, self.stack)
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced

    def wrap_iter(self, name: str, fn: Callable) -> Callable:
        nid = self._open(name)
        name_of, parent, start, end, stack = (self.name_of, self.parent, self.start,
                                              self.end, self.stack)
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs) -> Iterator:
            it = fn(*args, **kwargs)
            while True:
                idx = len(start)
                name_of.append(nid)
                parent.append(stack[-1])
                end.append(0.0)
                stack.append(idx)
                start.append(clock())
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    end[idx] = clock()
                    stack.pop()
                counts[f"{name}.items"] += 1
                yield item

        return traced

    def install(self) -> None:
        """Patch every binding in LAYERS and ITER_LAYERS with a wrapper."""
        self._chi_original = importlib.import_module("rainbowpath.chromatic").chromatic_number
        self._chi_info_before = self._chi_original.cache_info()
        for layers, wrapper in ((LAYERS, self.wrap), (ITER_LAYERS, self.wrap_iter)):
            for name, attrs in layers.items():
                for attr in attrs:
                    module_name, attr_name = attr.rsplit(".", 1)
                    module = importlib.import_module(f"rainbowpath.{module_name}")
                    original = getattr(module, attr_name)
                    self._patches.append((module, attr_name, original))
                    setattr(module, attr_name, wrapper(name, original))

    def restore(self) -> None:
        """Undo every patch and take the chromatic cache statistics."""
        for module, attr_name, original in reversed(self._patches):
            setattr(module, attr_name, original)
        self._patches.clear()
        if self._chi_original is not None:
            after = self._chi_original.cache_info()
            before = self._chi_info_before
            self.counts["chromatic.chi.cache_hits"] = after.hits - before.hits
            self.counts["chromatic.chi.cache_misses"] = after.misses - before.misses
            self.counts["chromatic.chi.cache_currsize"] = after.currsize

    def layer_table(self) -> dict[str, dict]:
        """Per layer: calls, total and self seconds, sorted call durations."""
        n = len(self.start)
        child = [0.0] * n
        durations = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += durations[i]
        table: dict[str, dict] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
            for name in self.names
        }
        for i in range(n):
            row = table[self.names[self.name_of[i]]]
            row["calls"] += 1
            row["self_s"] += durations[i] - child[i]
            if self.parent[i] < 0 or self.name_of[self.parent[i]] != self.name_of[i]:
                row["total_s"] += durations[i]
            row["durations"].append(durations[i])
        for row in table.values():
            row["durations"].sort()
        return table

    def root_time(self, since: int) -> float:
        """Seconds covered by top-level spans recorded from index `since` on."""
        return sum(self.end[i] - self.start[i]
                   for i in range(since, len(self.start)) if self.parent[i] < 0)

    def exact_counts(self) -> dict[str, int]:
        """Counts that must repeat exactly between runs of the same inputs."""
        out = dict(self.counts)
        calls = Counter(self.names[i] for i in self.name_of)
        for name in self.names:
            out[f"{name}.calls"] = calls[name]
        return dict(sorted(out.items()))

    def write(self, path: str) -> None:
        """Write every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("index\tname\tparent\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name_of[i]]}\t{self.parent[i]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")


_EMPTY = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}


def layer_metrics(table: dict[str, dict], counts: dict[str, int], wall_s: float,
                  unattributed_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced iteration, keyed by metric name."""
    def row(name: str) -> dict:
        return table.get(name, _EMPTY)

    out: dict[str, float] = {}
    for layer in DISTRIBUTION_LAYERS:
        r = row(layer)
        out[f"{layer}.calls"] = r["calls"]
        out[f"{layer}.self_s"] = r["self_s"]
        pct = tail_percentile(r["calls"])
        out[f"{layer}.p50_ms"] = 1e3 * percentile(r["durations"], 50)
        out[f"{layer}.tail_ms"] = 1e3 * percentile(r["durations"], pct)
        out[f"{layer}.tail_pct"] = pct
    for layer in SEARCH_LAYERS:
        r = row(layer)
        nodes = counts.get(f"{layer}.nodes", 0)
        out[f"{layer}.nodes"] = nodes
        out[f"{layer}.nodes_per_s"] = nodes / r["self_s"] if r["self_s"] else 0.0
        out[f"{layer}.inexact"] = counts.get(f"{layer}.inexact", 0)
    rainbow_calls = row("oracle.rainbow")["calls"]
    out["oracle.rainbow.palette_hit_frac"] = (
        counts.get("oracle.rainbow.palette_hits", 0) / rainbow_calls if rainbow_calls else 0.0
    )
    out["colorful.steps"] = counts.get("colorful.steps", 0)
    out["colorful.total_s"] = row("colorful")["total_s"]

    hits = counts.get("chromatic.chi.cache_hits", 0)
    misses = counts.get("chromatic.chi.cache_misses", 0)
    out["chromatic.chi.cache_hits"] = hits
    out["chromatic.chi.cache_misses"] = misses
    out["chromatic.chi.cache_hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
    out["chromatic.chi.cache_currsize"] = counts.get("chromatic.chi.cache_currsize", 0)
    out["chromatic.enum.colorings"] = counts.get("chromatic.enum.items", 0)

    for layer in ("oracle.gallai_roy", "chromatic.chi", "chromatic.dsatur",
                  "graphs.induced_subgraph", "graphs.connected_components",
                  "graphs.is_triangle_free", "grading.rainbow_or_witness"):
        out[f"{layer}.calls"] = row(layer)["calls"]
        out[f"{layer}.self_s"] = row(layer)["self_s"]
    for layer in ("chromatic.enum", "harness.run_corpus", "harness.check_graph",
                  "harness.coloring_digest", "harness.report_to_json", "graph6.decode",
                  "graph6.write_corpus", "generators"):
        out[f"{layer}.self_s"] = row(layer)["self_s"]

    chromatic_self = sum(row(layer)["self_s"]
                         for layer in ("chromatic.chi", "chromatic.dsatur", "chromatic.enum"))
    shares = {
        "share.rainbow": out["oracle.rainbow.self_s"] / wall_s,
        "share.colorful_subtree": out["colorful.total_s"] / wall_s,
        "share.chromatic": chromatic_self / wall_s,
    }
    out.update(shares)
    out["bench.unattributed_s"] = unattributed_s
    out["trace.wall_s"] = wall_s
    return out

