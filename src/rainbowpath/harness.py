"""Conjecture-testing harness: sweep proper colorings of triangle-free
graphs and record, per coloring, the longest induced rainbow path order,
the colorful-construction color count, and the color-orientation path order.

A coloring under which an exact search finds no induced rainbow path of
order chi(G) is a candidate counterexample: it is recorded loudly in the
report, never raised as a process failure. A search that spends its node
budget short of chi proves nothing: its coloring is undecided, recorded
with no witness, and the report does not hold.

check_graph runs source -> probe -> fold: the coloring source picks the
colorings (enumeration up to the cap, then seeded samples), the probe runs
the three searches under one coloring, and the fold turns the records into
a ConjectureReport. verdict(report) is the one place that reads a report
as 0 (holds), 2 (proved violation) or 3 (undecided); the `check` exit code
and the corpus counts both come from it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import time
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path as FilePath
from typing import Iterable, Iterator

from .chromatic import (MAX_VERTICES, TooLargeError, canonical_form, chromatic_number,
                        iter_colorings)
from .colorful import colorful_path_from
from .graph6 import Graph6Error, decode_graph6, encode_graph6, iter_corpus
from .graphs import (
    ColoredGraph,
    Coloring,
    Graph,
    GraphError,
    connected_components,
    induced_subgraph,
    is_triangle_free,
)
from .oracle import SearchBudget, gallai_roy_rainbow_path, longest_induced_rainbow_path

log = logging.getLogger("rainbowpath.harness")


@dataclass(frozen=True)
class HarnessConfig:
    """Caps and knobs for a conjecture sweep. max_nodes caps each rainbow
    search, which then returns its best path so far and never raises; a
    coloring whose cut-short search ends below chi is undecided."""

    max_colors_delta: int = 0
    coloring_cap: int = 1000
    extra_samples: int = 0
    max_nodes: int = SearchBudget.max_nodes
    parallelism: int = 1
    seed: int = 0
    thorough: bool = False
    output_path: str | None = None

    def __post_init__(self) -> None:
        if self.coloring_cap < 1 or self.max_nodes < 1 or self.parallelism < 1:
            raise GraphError("harness caps must be positive")
        if self.max_colors_delta < 0 or self.extra_samples < 0:
            raise GraphError("deltas and sample counts must be non-negative")


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one proper coloring of one graph."""

    coloring_digest: str
    rainbow_order: int
    colorful_colors: int
    colorful_pivot: int
    gallai_roy_order: int


@dataclass(frozen=True)
class ConjectureReport:
    graph_id: str
    graph6: str
    n: int
    m: int
    chi: int
    colorings_checked: int
    truncated: bool
    min_rainbow_order_observed: int
    holds_for_all_checked: bool
    witness_coloring: tuple[int, ...] | None
    checks: tuple[CheckRecord, ...]


# the decimal text of every color a swept coloring can use
_TEXT = tuple(str(c) for c in range(MAX_VERTICES + 1))


def coloring_digest(coloring: Coloring) -> str:
    """Short hash of a canonical coloring's colors, hashed as given: every
    coloring check_graph sweeps is already canonical (the coloring source,
    _coloring_source, takes the canonical forms iter_colorings emits and
    canonicalizes its samples).

    Every color must be at most MAX_VERTICES. A swept coloring meets this:
    it uses at most n colors, and chromatic_number refuses graphs above
    MAX_VERTICES vertices. The payload is the colors' decimal text joined
    by commas, read from a table."""
    payload = ",".join([_TEXT[c] for c in coloring.colors]).encode("ascii")
    return hashlib.sha256(payload).hexdigest()[:16]


def _colorful_pivots(g: Graph, chi: int, thorough: bool) -> list[int]:
    """Start vertices for the colorful construction, which runs in its
    start's component: the first component whose chromatic number attains
    chi, its smallest vertex or, when thorough, all of its vertices.

    Every component is asked, a connected graph's one too: its induced
    subgraph equals g, so its chi is a cache hit on the chi(g) that
    check_graph has just computed. Some component of a nonempty graph
    attains chi(g), so only the empty graph, which has no component, gets
    no pivot.
    """
    for comp in connected_components(g):
        if chromatic_number(induced_subgraph(g, comp)).chi == chi:
            return list(comp) if thorough else [comp[0]]
    return []


def _coloring_source(g: Graph, chi: int, cfg: HarnessConfig,
                     graph_id: str) -> tuple[list[ColoredGraph], bool]:
    """The colorings to sweep, as ColoredGraphs of g, and whether the
    enumeration was truncated.

    The canonical proper colorings with at most chi + max_colors_delta
    colors, up to the cap, as iter_colorings emits them, class tables
    included; past a truncation, up to extra_samples more drawn from an
    rng seeded with the config's seed and the graph id: random proper
    colorings, canonicalized, new ones only, best effort within 20
    attempts per sample, each checked by the validating ColoredGraph.

    A sample is new when it was neither enumerated nor drawn before. The
    enumerated prefix is every canonical coloring up to the last one
    emitted, so only the samples are kept in a set, of at most
    extra_samples entries, whatever the cap.
    """
    # no coloring of n vertices uses more than n colors; the empty graph's one
    # coloring would leave the probes nothing to search, so it is not swept
    max_colors = min(chi + cfg.max_colors_delta, g.n)
    enumerated = iter_colorings(g, max_colors) if g.n else iter(())
    colorings = list(islice(enumerated, cfg.coloring_cap))
    truncated = next(enumerated, None) is not None
    if not (truncated and cfg.extra_samples):
        return colorings, truncated
    rng = random.Random(f"{cfg.seed}:{graph_id}")
    # the enumeration emits every canonical coloring in lexicographic order, so
    # a canonical sample is new exactly when it comes after the last one emitted
    last = colorings[-1].coloring.colors
    samples: set[tuple[int, ...]] = set()
    for _ in range(20 * cfg.extra_samples):
        if len(samples) == cfg.extra_samples:
            break
        order = list(range(g.n))
        rng.shuffle(order)
        colors = [0] * g.n
        for v in order:
            banned = {colors[u] for u in g.neighbors(v)}
            options = [c for c in range(1, max_colors + 1) if c not in banned]
            if not options:
                break
            colors[v] = rng.choice(options)
        else:
            canon = canonical_form(Coloring(tuple(colors)))
            if canon.colors > last and canon.colors not in samples:
                samples.add(canon.colors)
                colorings.append(ColoredGraph(g, canon))
    return colorings, truncated


def _probe(cg: ColoredGraph, pivots: list[int], budget: SearchBudget) -> tuple[CheckRecord, bool]:
    """The three probes under one coloring: its record, and whether the
    rainbow search was exact. The colorful construction runs from each
    pivot at its default bound, chi of the pivot's component, which is
    chi(G): the pivots lie in a component that attains it."""
    search = longest_induced_rainbow_path(cg, budget)
    # the first pivot among those that see the fewest colors
    colorful_colors, colorful_pivot = min(
        (colorful_path_from(cg, p).color_count, p) for p in pivots)
    record = CheckRecord(
        coloring_digest=coloring_digest(cg.coloring),
        rainbow_order=search.path.order,
        colorful_colors=colorful_colors,
        colorful_pivot=colorful_pivot,
        gallai_roy_order=gallai_roy_rainbow_path(cg).order,
    )
    return record, search.exact


def _warn(graph_id: str, record: CheckRecord, message: str, *args: object) -> None:
    """Log a finding about one coloring, named by the graph id and the
    coloring's digest, the key of its record in the report."""
    log.warning("%s: coloring %s" + message, graph_id, record.coloring_digest, *args)


def _fold(g: Graph, cfg: HarnessConfig, graph_id: str, chi: int, truncated: bool,
          probed: Iterable[tuple[ColoredGraph, tuple[CheckRecord, bool]]]) -> ConjectureReport:
    """The report of a sweep, from each coloring with its probe's result.

    Only an exact search proves a shortfall below chi: the first such
    coloring is the witness. A shortfall of a search cut short is
    undecided. Each shortfall, each colorful construction below ceil(chi/2)
    colors and each color-orientation path below chi (which the
    Gallai-Roy theorem rules out) is logged with the coloring's digest.
    """
    checks: list[CheckRecord] = []
    witness: tuple[int, ...] | None = None
    undecided = False
    needed = -(-chi // 2)
    for cg, (record, exact) in probed:
        checks.append(record)
        rainbow = record.rainbow_order
        if rainbow < chi and not exact:
            undecided = True
            _warn(graph_id, record, ": rainbow search spent its %d-node budget at order %d "
                  "< chi=%d -- undecided", cfg.max_nodes, rainbow, chi)
        elif rainbow < chi and witness is None:
            witness = cg.coloring.colors
            _warn(graph_id, record, " has no induced rainbow path of order chi=%d (best %d) "
                  "-- conjecture violation candidate", chi, rainbow)
        if record.colorful_colors < needed:
            _warn(graph_id, record, ": colorful construction saw %d colors, expected >= %d",
                  record.colorful_colors, needed)
        if record.gallai_roy_order < chi:
            _warn(graph_id, record, ": color-orientation path has order %d, expected >= chi=%d "
                  "(Gallai-Roy)", record.gallai_roy_order, chi)

    return ConjectureReport(
        graph_id=graph_id,
        graph6=encode_graph6(g),
        n=g.n,
        m=g.edge_count,
        chi=chi,
        colorings_checked=len(checks),
        truncated=truncated,
        min_rainbow_order_observed=min((r.rainbow_order for r in checks), default=0),
        holds_for_all_checked=witness is None and not undecided,
        witness_coloring=witness,
        checks=tuple(checks),
    )


def check_graph(g: Graph, cfg: HarnessConfig, graph_id: str = "graph") -> ConjectureReport:
    """Sweep proper colorings of one triangle-free graph.

    Source, probe, fold: _coloring_source picks the colorings, _probe runs
    the three probes under each, and _fold turns their records into the
    report. The colorful construction starts from the pivots of
    _colorful_pivots and stays in their component. Every graph takes the
    same path, connected or not, empty or not: the empty graph has no
    pivot and is checked under no coloring, whatever the delta.
    """
    if not is_triangle_free(g):
        raise GraphError(f"{graph_id}: graph contains a triangle")
    chi = chromatic_number(g).chi
    colorings, truncated = _coloring_source(g, chi, cfg, graph_id)
    pivots = _colorful_pivots(g, chi, cfg.thorough)
    budget = SearchBudget(max_nodes=cfg.max_nodes, on_exceed="flag")
    probed = (_probe(cg, pivots, budget) for cg in colorings)
    return _fold(g, cfg, graph_id, chi, truncated, zip(colorings, probed))


def verdict(report: ConjectureReport) -> int:
    """The report's verdict, which is also the exit code of `check`: 0 when
    the conjecture holds under every coloring checked, 2 for a violation
    proved by an exact search (the report has a witness), 3 when a search
    was cut short below chi and none proved a violation (undecided)."""
    if report.holds_for_all_checked:
        return 0
    return 2 if report.witness_coloring is not None else 3


def report_to_json(report: ConjectureReport) -> str:
    """Stable single-line JSON rendering: the fields of ConjectureReport and
    CheckRecord in their declaration order, no timestamps.

    vars() rather than dataclasses.asdict, which deep-copies every record.
    """
    payload = {**vars(report), "checks": [vars(r) for r in report.checks]}
    return json.dumps(payload, separators=(",", ":"))


@dataclass
class CorpusSummary:
    """Counts of a corpus run: a report of verdict 2 is a violation, and one
    of verdict 3 is undecided. A graph whose check raised on a valid input,
    a fault of the program rather than a finding, writes no report: it is
    counted as failed and named, with the error, among the skipped."""

    graphs_processed: int = 0
    checks_run: int = 0
    violations: int = 0
    undecided: int = 0
    failed: int = 0
    skipped: list[str] = field(default_factory=list)
    wall_time: float = 0.0


_Result = tuple[str, str | None, str | None, int, int]


def _check_line(args: tuple[str, str, HarnessConfig]) -> _Result:
    """Worker: returns (graph_id, json_line or None, skip_reason or None,
    colorings_checked, code); the code is the verdict, 0 for a skipped
    input, or 1 when check_graph raised on a valid input. The triangle
    pre-check keeps that last clause for failures inside the check."""
    graph_id, text, cfg = args
    try:
        g = decode_graph6(text)
    except Graph6Error as exc:
        return graph_id, None, f"malformed graph6: {exc}", 0, 0
    if not is_triangle_free(g):
        return graph_id, None, "graph contains a triangle", 0, 0
    try:
        report = check_graph(g, cfg, graph_id)
    except TooLargeError as exc:
        return graph_id, None, str(exc), 0, 0
    except GraphError as exc:
        log.exception("%s: check failed", graph_id)
        return graph_id, None, f"check failed: {exc}", 0, 1
    return graph_id, report_to_json(report), None, report.colorings_checked, verdict(report)


def _results(jobs: list[tuple[str, str, HarnessConfig]], parallelism: int) -> Iterator[_Result]:
    """Worker results in job order, each yielded as soon as it is ready. A
    pool may fork all its workers at once: no more than jobs or CPUs."""
    workers = min(parallelism, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        # imported here: it pulls in multiprocessing, which a serial run and
        # a plain `import rainbowpath` need not pay for
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(_check_line, jobs)
    else:
        yield from map(_check_line, jobs)


def run_corpus(path: str | FilePath, cfg: HarnessConfig) -> CorpusSummary:
    """Process a graph6 corpus file, appending one JSON report per line to
    cfg.output_path (default: '<corpus>.reports.jsonl').

    Malformed lines, graphs with a triangle and graphs above the exact
    chromatic search's vertex cap are skipped with a warning. A graph whose
    check fails is logged with its traceback, skipped and counted as
    failed, and the run goes on to the next graph. Deterministic for a
    fixed config and seed.
    """
    started = time.perf_counter()
    out_path = cfg.output_path or f"{path}.reports.jsonl"
    summary = CorpusSummary()

    jobs = [(f"line{lineno}", text, cfg) for lineno, text in iter_corpus(path)]
    with open(out_path, "w", encoding="ascii") as out:
        for graph_id, line, skip_reason, checked, code in _results(jobs, cfg.parallelism):
            if line is None:
                log.warning("%s skipped: %s", graph_id, skip_reason)
                summary.skipped.append(f"{graph_id}: {skip_reason}")
                summary.failed += code == 1
                continue
            out.write(line + "\n")
            summary.graphs_processed += 1
            summary.checks_run += checked
            summary.violations += code == 2
            summary.undecided += code == 3
    summary.wall_time = time.perf_counter() - started
    return summary
