"""Recursive construction of an induced path seeing many distinct colors.

From a start vertex v with color c, remove the whole color class of c; some
component of the remainder keeps a high chromatic number. Walk a shortest
path P from v to that component, let w be its penultimate vertex, delete
w's fan inside the component (an independent set, by triangle-freeness),
recurse from a fan vertex bridging into the strongest remaining component,
and splice: R = P_w followed by the recursive path. Each level contributes
the removed color, which the recursive path cannot contain, so R sees at
least ceil(chi_lb / 2) distinct colors while staying induced.

The recursion trusts the caller's chromatic lower bound and passes it down
decremented by two, exactly like the induction it implements; strict mode
additionally recomputes the exact chromatic number of every recursed
subgraph for trace auditing. It works on vertex bitmasks of the original
graph, and what depends only on the graph (the entry checks and the
chromatic number of each vertex set it compares) is computed once per graph.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from .chromatic import chromatic_number, dsatur_coloring
from .graphs import (
    ColoredGraph,
    Graph,
    GraphError,
    Path,
    _bits,
    _mask_components,
    _mask_shortest_path,
    classify_path,
    connected_components,
    induced_subgraph,
    is_triangle_free,
)


@dataclass(frozen=True)
class ColorfulStep:
    """One recursion level of the construction (vertex ids are original)."""

    level: int
    chi_lb: int
    start: int
    removed_color: int
    active_vertices: tuple[int, ...]
    after_removal: tuple[int, ...]
    chosen_component: tuple[int, ...]
    approach_path: tuple[int, ...]
    pivot: int
    pivot_fan: tuple[int, ...]
    pruned_vertices: tuple[int, ...]
    second_component: tuple[int, ...]
    bridge: int
    recursed_vertices: tuple[int, ...]
    sub_path: tuple[int, ...]
    assembled: tuple[int, ...]
    recomputed_chi: int | None


@dataclass(frozen=True)
class ColorfulResult:
    path: Path
    steps: tuple[ColorfulStep, ...]


@functools.lru_cache(maxsize=1)
def _graph_facts(g: Graph) -> tuple[bool, bool, int, Callable[[int], int]]:
    """What the construction needs to know about g whatever its coloring:
    triangle-free, connected, the DSATUR palette size, and a memoized chi of
    the subgraph induced by a vertex bitmask.

    A sweep runs the construction for every coloring and pivot of one graph
    in a row; keeping only the latest graph's facts bounds memory.
    """
    chi = functools.cache(
        lambda subset: chromatic_number(induced_subgraph(g, _bits(subset)).graph).chi
    )
    return (is_triangle_free(g), len(connected_components(g)) == 1,
            dsatur_coloring(g).palette_size, chi)


def colorful_path_from(cg: ColoredGraph, start: int, chi_lb: int,
                       strict: bool = False) -> ColorfulResult:
    """Induced path from `start` seeing at least ceil(chi_lb/2) colors.

    Requires a connected triangle-free graph and chi_lb no larger than the
    exact chromatic number (checked against a cheap upper bound; a genuinely
    overstated bound surfaces as a structural error during recursion).
    """
    g = cg.graph
    if not 0 <= start < g.n:
        raise GraphError(f"start vertex {start} not in graph")
    if chi_lb < 1:
        raise GraphError("chromatic lower bound must be positive")
    triangle_free, connected, upper_bound, chi = _graph_facts(g)
    if not triangle_free:
        raise GraphError("construction requires a triangle-free graph")
    if not connected:
        raise GraphError("construction requires a connected graph")
    if chi_lb > upper_bound:
        raise GraphError(
            f"chromatic lower bound {chi_lb} exceeds a verifiable upper bound"
        )

    steps: list[ColorfulStep] = []
    path = _recurse(cg, chi, (1 << g.n) - 1, start, chi_lb, 0, steps, strict)
    steps.sort(key=lambda st: st.level)
    result = Path(path)
    report = classify_path(cg, result.vertices)
    if not report.is_induced or report.color_count < -(-chi_lb // 2):
        raise GraphError("construction produced an invalid path; is chi_lb too large?")
    return ColorfulResult(path=result, steps=tuple(steps))


def _recurse(cg: ColoredGraph, chi: Callable[[int], int], active: int, v: int, chi_lb: int,
             level: int, steps: list[ColorfulStep], strict: bool) -> tuple[int, ...]:
    if chi_lb <= 2:
        return (v,)
    masks = cg.graph.masks
    colors = cg.coloring.colors
    c = colors[v]
    remaining = 0
    for u in _bits(active):
        if colors[u] != c:
            remaining |= 1 << u
    if not remaining:
        raise GraphError(f"no vertices left after removing color {c}; chi_lb overstated")

    c1 = max(_mask_components(masks, remaining), key=chi)
    p = _mask_shortest_path(masks, active, v, c1)
    w = p[-2]
    fan = masks[w] & c1
    if any(masks[a] & fan for a in _bits(fan)):
        raise GraphError("fan is not independent; graph has a triangle")

    pruned = c1 & ~fan
    if not pruned:
        raise GraphError("component vanished after fan removal; chi_lb overstated")
    c2 = max(_mask_components(masks, pruned), key=chi)

    bridge = next((u for u in _bits(fan) if masks[u] & c2), -1)
    if bridge == -1:
        raise GraphError("no fan vertex reaches the second component")

    recursed = c2 | 1 << bridge
    q = _recurse(cg, chi, recursed, bridge, chi_lb - 2, level + 1, steps, strict)
    if any(colors[u] == c for u in q):
        raise GraphError("recursive path reused the removed color")

    assembled = p[:-1] + q
    steps.append(
        ColorfulStep(
            level=level,
            chi_lb=chi_lb,
            start=v,
            removed_color=c,
            active_vertices=tuple(_bits(active)),
            after_removal=tuple(_bits(remaining)),
            chosen_component=tuple(_bits(c1)),
            approach_path=p,
            pivot=w,
            pivot_fan=tuple(_bits(fan)),
            pruned_vertices=tuple(_bits(pruned)),
            second_component=tuple(_bits(c2)),
            bridge=bridge,
            recursed_vertices=tuple(_bits(recursed)),
            sub_path=q,
            assembled=assembled,
            recomputed_chi=chi(recursed) if strict else None,
        ),
    )
    return assembled
