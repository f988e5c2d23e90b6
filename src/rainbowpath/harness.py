"""Conjecture-testing harness: sweep proper colorings of triangle-free
graphs and record, per coloring, the longest induced rainbow path order,
the colorful-construction color count, and the color-orientation path order.

A coloring under which no induced rainbow path reaches order chi(G) is a
candidate counterexample: it is recorded loudly in the report, never raised
as a process failure.
"""

from __future__ import annotations

import hashlib
import json
import logging
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path as FilePath

from .chromatic import canonical_form, chromatic_number, iter_colorings
from .colorful import colorful_path_from
from .graph6 import Graph6Error, decode_graph6, encode_graph6, iter_corpus
from .graphs import (
    ColoredGraph,
    Coloring,
    Graph,
    GraphError,
    InducedSubgraph,
    connected_components,
    induced_subgraph,
    is_triangle_free,
)
from .oracle import SearchBudget, gallai_roy_rainbow_path, longest_induced_rainbow_path

log = logging.getLogger("rainbowpath.harness")


@dataclass(frozen=True)
class HarnessConfig:
    """Caps and knobs for a conjecture sweep."""

    max_colors_delta: int = 0
    coloring_cap: int = 1000
    extra_samples: int = 0
    budget: SearchBudget = SearchBudget(on_exceed="flag")
    parallelism: int = 1
    seed: int = 0
    thorough: bool = False
    abort_on_malformed: bool = False
    chi_cap: int = 64
    output_path: str | None = None

    def __post_init__(self) -> None:
        if self.coloring_cap < 1 or self.parallelism < 1 or self.chi_cap < 1:
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


def coloring_digest(coloring: Coloring) -> str:
    canon = canonical_form(coloring)
    payload = ",".join(str(c) for c in canon.colors).encode("ascii")
    return hashlib.sha256(payload).hexdigest()[:16]


def _sample_colorings(g: Graph, max_colors: int, count: int, rng: random.Random,
                      seen: set[tuple[int, ...]]) -> list[Coloring]:
    """Best-effort random proper colorings beyond the enumeration cap."""
    out: list[Coloring] = []
    attempts = 0
    while len(out) < count and attempts < 20 * max(count, 1):
        attempts += 1
        order = list(range(g.n))
        rng.shuffle(order)
        colors = [0] * g.n
        ok = True
        for v in order:
            banned = {colors[u] for u in g.neighbors(v) if colors[u]}
            options = [c for c in range(1, max_colors + 1) if c not in banned]
            if not options:
                ok = False
                break
            colors[v] = rng.choice(options)
        if not ok:
            continue
        canon = canonical_form(Coloring(tuple(colors)))
        if canon.colors in seen:
            continue
        seen.add(canon.colors)
        out.append(canon)
    return out


def _colorful_arena(g: Graph, chi: int, thorough: bool) -> tuple[InducedSubgraph | None, list[int]]:
    """Arena and pivot vertices for the colorful construction.

    Vertex 0 when the graph is connected (arena None means: use the whole
    graph); otherwise the construction needs a component whose chromatic
    number attains chi, so the arena is the subgraph induced by the first
    such component and the pivots, vertex ids of g, come from it.
    """
    comps = connected_components(g)
    if len(comps) == 1:
        return None, (list(range(g.n)) if thorough else [0])
    for comp in comps:
        sub = induced_subgraph(g, comp)
        if chromatic_number(sub.graph).chi == chi:
            return sub, (list(comp) if thorough else [comp[0]])
    raise GraphError("no component attains the graph's chromatic number")


def _colorful_count(cg: ColoredGraph, start: int, chi: int) -> int:
    """Distinct colors on the path the construction builds from start."""
    result = colorful_path_from(cg, start, chi)
    return len({cg.color_of(v) for v in result.path.vertices})


def check_graph(g: Graph, cfg: HarnessConfig, graph_id: str = "graph") -> ConjectureReport:
    """Sweep proper colorings of one triangle-free graph.

    Enumerates canonical colorings with at most chi + max_colors_delta colors
    up to the cap, optionally tops up with seeded random samples, and runs
    the three probes under every coloring.
    """
    if not is_triangle_free(g):
        raise GraphError(f"{graph_id}: graph contains a triangle")
    chi = chromatic_number(g, max_vertices=cfg.chi_cap).chi
    max_colors = chi + cfg.max_colors_delta

    colorings: list[Coloring] = []
    truncated = False
    for coloring in iter_colorings(g, max_colors):
        if len(colorings) == cfg.coloring_cap:
            truncated = True
            break
        colorings.append(coloring)
    if truncated and cfg.extra_samples:
        rng = random.Random(f"{cfg.seed}:{graph_id}")
        seen = {c.colors for c in colorings}
        colorings.extend(_sample_colorings(g, max_colors, cfg.extra_samples, rng, seen))

    arena, pivots = _colorful_arena(g, chi, cfg.thorough) if g.n else (None, [])
    checks: list[CheckRecord] = []
    min_rainbow = g.n if g.n else 0
    witness: tuple[int, ...] | None = None
    needed = -(-chi // 2)

    for coloring in colorings:
        cg = ColoredGraph(g, coloring)
        rainbow = longest_induced_rainbow_path(cg, cfg.budget).path.order
        gallai = gallai_roy_rainbow_path(cg)
        colorful_colors = g.n
        colorful_pivot = pivots[0] if pivots else 0
        arena_cg = cg if arena is None else ColoredGraph(
            arena.graph, Coloring(tuple(coloring.colors[v] for v in arena.to_parent))
        )
        for pivot in pivots:
            start = pivot if arena is None else arena.to_sub[pivot]
            count = _colorful_count(arena_cg, start, chi)
            if count < colorful_colors:
                colorful_colors = count
                colorful_pivot = pivot
        checks.append(
            CheckRecord(
                coloring_digest=coloring_digest(coloring),
                rainbow_order=rainbow,
                colorful_colors=colorful_colors,
                colorful_pivot=colorful_pivot,
                gallai_roy_order=gallai.order,
            )
        )
        min_rainbow = min(min_rainbow, rainbow)
        if rainbow < chi and witness is None:
            witness = coloring.colors
            log.warning(
                "%s: coloring %s has no induced rainbow path of order chi=%d "
                "(best %d) -- conjecture violation candidate",
                graph_id, coloring.colors, chi, rainbow,
            )
        if colorful_colors < needed:
            log.warning(
                "%s: colorful construction saw %d colors, expected >= %d",
                graph_id, colorful_colors, needed,
            )

    return ConjectureReport(
        graph_id=graph_id,
        graph6=encode_graph6(g),
        n=g.n,
        m=g.edge_count,
        chi=chi,
        colorings_checked=len(checks),
        truncated=truncated,
        min_rainbow_order_observed=min_rainbow if checks else 0,
        holds_for_all_checked=all(r.rainbow_order >= chi for r in checks),
        witness_coloring=witness,
        checks=tuple(checks),
    )


def report_to_json(report: ConjectureReport) -> str:
    """Stable single-line JSON rendering (field order fixed, no timestamps)."""
    payload = {
        "graph_id": report.graph_id,
        "graph6": report.graph6,
        "n": report.n,
        "m": report.m,
        "chi": report.chi,
        "colorings_checked": report.colorings_checked,
        "truncated": report.truncated,
        "min_rainbow_order_observed": report.min_rainbow_order_observed,
        "holds_for_all_checked": report.holds_for_all_checked,
        "witness_coloring": list(report.witness_coloring) if report.witness_coloring else None,
        "checks": [
            {
                "coloring_digest": r.coloring_digest,
                "rainbow_order": r.rainbow_order,
                "colorful_colors": r.colorful_colors,
                "colorful_pivot": r.colorful_pivot,
                "gallai_roy_order": r.gallai_roy_order,
            }
            for r in report.checks
        ],
    }
    return json.dumps(payload, separators=(",", ":"))


@dataclass
class CorpusSummary:
    graphs_processed: int = 0
    checks_run: int = 0
    violations: int = 0
    skipped: list[str] = field(default_factory=list)
    wall_time: float = 0.0


def _check_line(args: tuple[str, str, HarnessConfig]) -> tuple[str, str | None, str | None]:
    """Worker: returns (graph_id, json_line or None, skip_reason or None)."""
    graph_id, text, cfg = args
    try:
        g = decode_graph6(text)
    except Graph6Error as exc:
        return graph_id, None, f"malformed graph6: {exc}"
    if not is_triangle_free(g):
        return graph_id, None, "graph contains a triangle"
    report = check_graph(g, cfg, graph_id)
    return graph_id, report_to_json(report), None


def run_corpus(path: str | FilePath, cfg: HarnessConfig) -> CorpusSummary:
    """Process a graph6 corpus file, appending one JSON report per line to
    cfg.output_path (default: '<corpus>.reports.jsonl').

    Non-triangle-free and malformed lines are skipped with a warning unless
    abort_on_malformed is set. Deterministic for a fixed config and seed.
    """
    started = time.perf_counter()
    out_path = cfg.output_path or f"{path}.reports.jsonl"
    summary = CorpusSummary()

    jobs = [(f"line{lineno}", text, cfg) for lineno, text in iter_corpus(path)]
    if cfg.parallelism > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=cfg.parallelism) as pool:
            results = list(pool.map(_check_line, jobs))
    else:
        results = [_check_line(job) for job in jobs]

    with open(out_path, "w", encoding="ascii") as out:
        for graph_id, line, skip_reason in results:
            if skip_reason is not None:
                if "malformed" in skip_reason and cfg.abort_on_malformed:
                    raise Graph6Error(f"{graph_id}: {skip_reason}")
                log.warning("%s skipped: %s", graph_id, skip_reason)
                summary.skipped.append(f"{graph_id}: {skip_reason}")
                continue
            out.write(line + "\n")
            summary.graphs_processed += 1
            record = json.loads(line)
            summary.checks_run += record["colorings_checked"]
            if not record["holds_for_all_checked"]:
                summary.violations += 1
    summary.wall_time = time.perf_counter() - started
    return summary
