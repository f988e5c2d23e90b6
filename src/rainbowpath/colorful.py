"""Construction of an induced path seeing many distinct colors.

From a start vertex v with color c, remove the whole color class of c; some
component of the remainder keeps a high chromatic number. Walk a shortest
path P from v to that component, let w be its penultimate vertex, delete
w's fan inside the component (an independent set, by triangle-freeness),
go on from a fan vertex bridging into the strongest remaining component,
and splice: R = P_w followed by the path built from there. Each level
contributes the removed color, which the rest of the path cannot contain,
so R sees at least ceil(chi_lb / 2) distinct colors while staying induced.

The induction runs as one loop, a level per pass. Its bound is the exact
chromatic number of the start's component, from the per-graph facts below,
unless the caller passes one, which alone pays for a DSATUR coloring of that
component to check it against; it lowers the bound by two per level, exactly
like the induction it implements, and the trace audits it with the exact
chromatic number of every recursed subgraph. It works on
vertex bitmasks of the original graph, removing a color as one mask of the
coloring's class table (ColoredGraph.classes); what depends only on the
graph (the entry checks, each vertex's component and the chromatic number
of each vertex set it compares) is computed once per graph. So is each
level: it reads the coloring only through the set left once the start's
color is removed, and many colorings of one graph leave the same set from
the same start, so its components, approach path, fan and bridge are
memoized per graph on (active set, start, remaining set). A level keeps
only the ints it computed; its ColorfulStep, audit chi included, is built
on first read, so a sweep that reads only paths computes no audit. The
finished path is checked on the adjacency masks in one pass: induced, and
seeing ceil(chi_lb / 2) colors, and the result keeps the count of colors
that check found.

The graph need not be connected: the construction runs inside the start
vertex's connected component, as the induction does inside a connected
graph. chi(G) is attained by some component, and a start there can use the
full bound.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .chromatic import chromatic_number, dsatur_coloring
from .graphs import (
    ColoredGraph,
    Graph,
    GraphError,
    Path,
    _bits,
    _is_induced,
    _mask_components,
    _mask_shortest_path,
    connected_components,
    induced_subgraph,
    is_triangle_free,
)


@dataclass(frozen=True)
class ColorfulStep:
    """One level of the construction (vertex ids are original)."""

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
    recomputed_chi: int


@dataclass(frozen=True)
class ColorfulResult:
    """The constructed path; per level, the ints computed for it: chi_lb,
    start, removed color, the active, after-removal and chosen-component
    masks, the approach path, the fan and second-component masks, the
    bridge and the offset in the path where the level's part starts; the
    bound the construction ran with, `chi_lb`; and `color_count`, the
    distinct colors on the path, at least ceil(chi_lb/2). `steps`, the
    ColorfulStep trace in level order, is built from the levels on first
    read, with each recursed set's chi taken from the memo of the graph the
    result was built on; that graph takes no part in equality, hashing or
    repr."""

    path: Path
    levels: tuple[tuple, ...]
    chi_lb: int
    color_count: int
    graph: Graph = field(compare=False, repr=False)

    @functools.cached_property
    def steps(self) -> tuple[ColorfulStep, ...]:
        path = self.path.vertices
        chi = _graph_facts(self.graph).chi
        return tuple(
            ColorfulStep(
                level=level, chi_lb=chi_lb, start=v, removed_color=c,
                active_vertices=tuple(_bits(active)), after_removal=tuple(_bits(remaining)),
                chosen_component=tuple(_bits(c1)), approach_path=p, pivot=p[-2],
                pivot_fan=tuple(_bits(fan)), pruned_vertices=tuple(_bits(c1 & ~fan)),
                second_component=tuple(_bits(c2)), bridge=bridge,
                recursed_vertices=tuple(_bits(c2 | 1 << bridge)),
                sub_path=path[offset + len(p) - 1:], assembled=path[offset:],
                recomputed_chi=chi(c2 | 1 << bridge),
            )
            for level, (chi_lb, v, c, active, remaining, c1, p, fan, c2, bridge,
                        offset) in enumerate(self.levels)
        )


# a level's chosen component, approach path, fan, second component and bridge
_Level = tuple[int, tuple[int, ...], int, int, int]


class _GraphFacts(NamedTuple):
    triangle_free: bool
    component: list[int]
    chi: Callable[[int], int]
    level: Callable[[int, int, int], _Level]


@functools.lru_cache(maxsize=1)
def _graph_facts(g: Graph) -> _GraphFacts:
    """What the construction needs to know about g whatever its coloring:
    triangle-free; per vertex, the bitmask of its connected component; a
    memoized chi of the subgraph induced by a vertex bitmask; and a memoized
    level of the construction. Nothing here colors g greedily: only an
    explicit bound needs an upper bound on chi, and colorful_path_from works
    it out when it is given one.

    A level reads the coloring only through the vertex set left once the
    start's color class is removed, so `level(active, v, remaining)` gives
    its chosen component c1, approach path, fan, second component c2 and
    bridge for every coloring that leaves the same set. It raises GraphError
    when the fan empties c1, and then caches nothing.

    A sweep runs the construction for every coloring and pivot of one graph
    in a row; keeping only the latest graph's facts bounds memory: the level
    memo holds at most one entry per coloring, pivot and level run on it.
    """
    masks = g.masks
    chi = functools.cache(
        lambda subset: chromatic_number(induced_subgraph(g, _bits(subset))).chi
    )

    @functools.cache
    def level(active: int, v: int, remaining: int) -> _Level:
        c1 = max(_mask_components(masks, remaining), key=chi)
        p = _mask_shortest_path(masks, active, v, c1)
        fan = masks[p[-2]] & c1  # independent: the graph is triangle-free
        pruned = c1 & ~fan
        if not pruned:
            raise GraphError("component vanished after fan removal; chi_lb overstated")
        c2 = max(_mask_components(masks, pruned), key=chi)
        # c1 is connected and the fan is not empty, so some fan vertex meets c2
        bridge = next(u for u in _bits(fan) if masks[u] & c2)
        return c1, p, fan, c2, bridge

    component = [0] * g.n
    for comp in connected_components(g):
        mask = sum(1 << v for v in comp)
        for v in comp:
            component[v] = mask
    return _GraphFacts(is_triangle_free(g), component, chi, level)


def colorful_path_from(cg: ColoredGraph, start: int, chi_lb: int | None = None) -> ColorfulResult:
    """Induced path from `start` seeing at least ceil(chi_lb/2) colors.

    Runs inside the connected component C of `start`, so the graph need not
    be connected, and requires a triangle-free graph. chi_lb defaults to
    chi(C), computed once per graph, which is the bound the paper's theorem
    proves. A bound given on purpose must be positive and is checked, before
    any level runs, against a cheap upper bound on chi(C): the colors a
    DSATUR coloring of C uses, computed for that call only, so the default
    bound costs no DSATUR pass. A bound overstated past that check surfaces
    as a structural error at some level, or not at all when the path still
    sees ceil(chi_lb/2) colors. The result's `steps`, with the exact chi of
    every recursed subgraph, are built on first read.
    """
    g = cg.graph
    if not 0 <= start < g.n:
        raise GraphError(f"start vertex {start} not in graph")
    if chi_lb is not None and chi_lb < 1:
        raise GraphError("chromatic lower bound must be positive")
    triangle_free, component, chi, level = _graph_facts(g)
    if not triangle_free:
        raise GraphError("construction requires a triangle-free graph")
    if chi_lb is None:
        chi_lb = chi(component[start])
    elif chi_lb > dsatur_coloring(induced_subgraph(g, _bits(component[start]))).palette_size:
        raise GraphError(f"chromatic lower bound {chi_lb} exceeds a verifiable upper bound")

    active, v, lb = component[start], start, chi_lb
    path: list[int] = []
    levels: list[tuple] = []
    while lb > 2:
        c = cg.color_of(v)
        remaining = active & ~cg.classes[c]
        if not remaining:
            raise GraphError(f"no vertices left after removing color {c}; chi_lb overstated")
        c1, p, fan, c2, bridge = level(active, v, remaining)
        levels.append((lb, v, c, active, remaining, c1, p, fan, c2, bridge, len(path)))
        path += p[:-1]
        # the rest of the path lies inside c2 and the bridge, which avoid color c
        active, v, lb = c2 | 1 << bridge, bridge, lb - 2
    path.append(v)

    colors = cg.coloring.colors
    color_count = len({colors[u] for u in path})
    if not _is_induced(g.masks, path) or color_count < -(-chi_lb // 2):
        raise GraphError("construction produced an invalid path; is chi_lb too large?")
    return ColorfulResult(Path(tuple(path)), tuple(levels), chi_lb, color_count, g)
