"""Exact brute-force searches that define ground truth for every constructive
guarantee, plus the longest directed paths of color orientations.

A color orientation points each edge at its larger color. One DP,
_color_levels, gives the levels of its longest directed paths, one color
class at a time: the Gallai-Roy probe runs it on the whole graph with the
adjacency masks as steps, and the graded procedure on one refined class,
with the steps split by grading order into forward and backward ones. A
path is read off its levels by graphs._walk_back; the Gallai-Roy path's
order is its number of levels, and its vertices are walked back only when
read.

The induced-path searches run depth-first over extendable induced paths with
bitset pruning over int adjacency masks (Python ints are unbounded bitsets,
so any graph size and any palette fit); they are exact whenever the search
budget is not exhausted, and best-effort results are always flagged, never
silently returned. Their results, node counts included, follow one contract:

- candidates are tried in ascending vertex id;
- the best result is replaced only on strict improvement;
- each path extension counts one search node against the budget; a search
  whose budget is spent stops, inexact, before it counts or tries another
  extension, so it never reports more nodes than its budget;
- an extension rejected by a bound (the path searches' open-vertex bound,
  which counts one vertex of the extension's neighbors and every open vertex
  outside them, or the most-colorful search's color bound) still counts its
  node, which is counted before the bound is tested;
- one loop serves the induced and the rainbow search: a vertex on the path
  blocks itself, or its whole color class, from joining it, and the loop
  stops at the first path of `limit` vertices (n, or the palette size);
- that loop returns its path smaller endpoint first, unflipped: the
  reversal of a path is found from its other endpoint, and the smaller
  endpoint is searched first (see _search_path);
- the most-colorful search stops at the first best path that sees every
  color in that many vertices, and an extension with at least as many
  vertices as the best must reach one color more than the best to pass its
  color bound.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

from .graphs import ColoredGraph, Graph, GraphError, Path, _bits, _walk_back


class BudgetExceededError(GraphError):
    """Search budget exhausted while on_exceed='error'."""


@dataclass(frozen=True)
class SearchBudget:
    """Caps for the exact searches. on_exceed is 'error' or 'flag'.

    max_vertices applies only when on_exceed is 'error': a larger graph is
    then refused before the search starts. In 'flag' mode only max_nodes
    cuts a search short, and the result is marked inexact.
    """

    max_vertices: int = 25
    max_nodes: int = 10**8
    on_exceed: str = "error"

    def __post_init__(self) -> None:
        if self.max_vertices < 1 or self.max_nodes < 1:
            raise GraphError("budget caps must be positive")
        if self.on_exceed not in ("error", "flag"):
            raise GraphError("on_exceed must be 'error' or 'flag'")


@dataclass(frozen=True)
class SearchResult:
    """A search outcome: the path found, whether it is proved optimal, and
    how many search nodes were spent."""

    path: Path
    exact: bool
    nodes: int


def _check_budget(g: Graph, budget: SearchBudget) -> None:
    if g.n == 0:
        raise GraphError("no path of order >= 1 exists in the empty graph")
    if g.n > budget.max_vertices and budget.on_exceed == "error":
        raise BudgetExceededError(
            f"{g.n} vertices exceeds the exact-search cap {budget.max_vertices}"
        )


def _finish(raw_path: list[int], nodes: int, exceeded: bool, budget: SearchBudget) -> SearchResult:
    if exceeded and budget.on_exceed == "error":
        raise BudgetExceededError(f"search exceeded {budget.max_nodes} nodes")
    return SearchResult(Path(tuple(raw_path)), exact=not exceeded, nodes=nodes)


def _search_path(masks: tuple[int, ...], block: list[int], limit: int,
                 max_nodes: int) -> tuple[list[int], int, bool]:
    """Maximum-order induced path with at most one vertex of each block;
    returns (path, nodes_used, exceeded). masks is not empty.

    The blocks partition the vertices, and block[x] is the vertex mask of
    the block of x: 1 << x for a plain induced path, the color class of x
    for a rainbow one. Adjacent vertices must not share a block, as a proper
    coloring ensures. Once x is on the path its whole block is closed, so no
    vertex and no color becomes a candidate twice. No such path has more
    than limit vertices (n, or the number of colors), so the search stops at
    the first path of limit vertices: later paths can only tie it, and ties
    never replace the best, so the result is the one the full search
    returns, reported exact. The first best, [0], needs no such test: at
    limit 1 no vertex has a neighbor (a one-color proper coloring has no
    edges, and neither has a one-vertex graph), so no extension is tried.

    The path's vertices, their blocks and the neighbors of all but its last
    vertex are closed. An extension by x closes new_closed, and a path grown
    from it takes its next vertex from nxt = masks[x] & ~new_closed. Once
    that vertex joins, x is no longer last, so every later vertex lies
    outside new_closed | masks[x]. So the extension is rejected when its
    path, one vertex if nxt is not empty, and the vertices outside
    new_closed | masks[x] still have no more vertices than the best: it and
    every path grown from it could at best tie the best, and ties never
    replace it. Unless the budget runs out, the result is that of the
    search without the bound; only node counts drop.

    The result starts at its smaller endpoint. Say it were (s, ..., e) with
    e < s. It became the best while searching from s, so it is longer than
    the best left when the search from e finished. But that search meets
    its reversal (e, ..., s), induced and with one vertex per block too: at
    each of its extensions by x, its next vertex is in nxt and every later
    one is outside new_closed | masks[x], so the bound counts at least its
    order and never cuts it, and only a limit stop, which ends the whole
    search, could come first. A budget cut keeps this, since the search
    from e finished before the one from s began.
    """
    n = len(masks)
    best = [0]
    nodes = 0
    for start in range(n):
        path = [start]
        closed = [block[start]]
        cands = [masks[start]]
        while path:
            if not cands[-1]:
                path.pop()
                closed.pop()
                cands.pop()
                continue
            if nodes == max_nodes:
                return best, nodes, True
            nodes += 1
            low = cands[-1] & -cands[-1]
            cands[-1] ^= low
            x = low.bit_length() - 1
            new_closed = closed[-1] | masks[path[-1]] | block[x]
            nxt = masks[x] & ~new_closed
            if len(path) + (nxt != 0) + n - (new_closed | masks[x]).bit_count() < len(best):
                continue
            path.append(x)
            closed.append(new_closed)
            cands.append(nxt)
            if len(path) > len(best):
                best = path.copy()
                if len(best) == limit:
                    return best, nodes, False
    return best, nodes, False


def _search_most_colorful(
    masks: tuple[int, ...], colors: tuple[int, ...], by_color: dict[int, int], start: int,
    max_nodes: int,
) -> tuple[list[int], int, bool]:
    """Induced path from a fixed start maximizing distinct colors.

    Ties prefer smaller order, then the lexicographically smallest vertex
    sequence (guaranteed by depth-first enumeration order). An extension is
    rejected when its optimistic color bound, the colors it uses plus the
    unused colors of vertices outside its closed set, cannot reach the best
    count; such an extension sees fewer colors than the best, so it could
    never have replaced it. An extension with at least as many vertices as
    the best must reach one color more: it and every path grown from it
    can replace the best only by seeing strictly more colors. The bound
    tests one color-class mask per unused color, O(palette) work, stops
    once enough colors are found, and is skipped when the extension already
    sees enough colors.

    The search stops, exact, once the best path sees every color in that
    many vertices: no path sees more colors, and seeing as many takes at
    least as many vertices, so later paths can only tie it. Ties never
    replace the best, so the result is that of the full search; only node
    counts drop. by_color is the coloring's class table
    (ColoredGraph.classes).
    """
    dense = {c: i for i, c in enumerate(by_color)}
    color_bit = [1 << dense[c] for c in colors]
    classes = list(by_color.values())
    best = [start]
    best_count = 1
    nodes = 0
    path = [start]
    closed = [1 << start]
    used = [color_bit[start]]
    cands = [masks[start]]
    while path:
        if not cands[-1]:
            path.pop()
            closed.pop()
            used.pop()
            cands.pop()
            continue
        if nodes == max_nodes:
            return best, nodes, True
        nodes += 1
        low = cands[-1] & -cands[-1]
        cands[-1] ^= low
        x = low.bit_length() - 1
        new_closed = closed[-1] | masks[path[-1]] | low
        new_used = used[-1] | color_bit[x]
        count = new_used.bit_count()
        short = best_count - count
        if len(path) + 1 >= len(best):
            short += 1
        if short > 0:
            # reject unless `short` unused colors remain outside new_closed
            for c, members in enumerate(classes):
                if members & ~new_closed and not new_used >> c & 1:
                    short -= 1
                    if not short:
                        break
            else:
                continue
        path.append(x)
        closed.append(new_closed)
        used.append(new_used)
        cands.append(masks[x] & ~new_closed)
        if count > best_count or (count == best_count and len(path) < len(best)):
            best = path.copy()
            best_count = count
            if best_count == len(best) == len(classes):
                return best, nodes, False
    return best, nodes, False


def longest_induced_path(g: Graph, budget: SearchBudget = SearchBudget()) -> SearchResult:
    """A maximum-order induced path of g (exact unless the budget ran out).

    A vertex may extend the path only when adjacent to the last vertex and
    non-adjacent to every earlier path vertex. The returned path is oriented
    with its smaller endpoint first.
    """
    _check_budget(g, budget)
    raw, nodes, exceeded = _search_path(
        g.masks, [1 << v for v in range(g.n)], g.n, budget.max_nodes
    )
    return _finish(raw, nodes, exceeded, budget)


def longest_induced_rainbow_path(cg: ColoredGraph, budget: SearchBudget = SearchBudget()) -> SearchResult:
    """A maximum-order induced path whose vertices have pairwise distinct colors."""
    g = cg.graph
    _check_budget(g, budget)
    classes = cg.classes
    raw, nodes, exceeded = _search_path(
        g.masks, [classes[c] for c in cg.coloring.colors], len(classes), budget.max_nodes
    )
    return _finish(raw, nodes, exceeded, budget)


def max_colorful_induced_path_from(
    cg: ColoredGraph, start: int, budget: SearchBudget = SearchBudget()
) -> SearchResult:
    """Induced path starting at `start` maximizing the number of distinct
    colors seen; ties prefer smaller order, then lexicographic sequence."""
    g = cg.graph
    if not 0 <= start < g.n:
        raise GraphError(f"start vertex {start} not in graph")
    _check_budget(g, budget)
    raw, nodes, exceeded = _search_most_colorful(
        g.masks, cg.coloring.colors, cg.classes, start, budget.max_nodes
    )
    return _finish(raw, nodes, exceeded, budget)


def _color_orientation(masks: tuple[int, ...], classes: dict[int, int],
                       subset: int) -> list[int]:
    """The color orientation of the subgraph induced by the vertex bitmask
    subset, each edge pointing at its larger color, as the mask of each
    vertex's in-neighbors, 0 outside the subset.

    classes is a proper coloring's class table (ColoredGraph.classes), so
    every edge gets a strict direction.
    """
    below = 0
    ins = [0] * len(masks)
    for c in sorted(classes):
        members = classes[c] & subset
        for v in _bits(members):
            ins[v] = masks[v] & below
        below |= members
    return ins


def _color_levels(step: Sequence[int], classes: dict[int, int]) -> list[int]:
    """Levels of the longest directed paths of the orientation with an arc
    u -> w whenever w is in step[u] and u's color is smaller than w's:
    levels[i] holds the vertices that end a longest path of i + 1 vertices.

    The classes are placed in color order. A class has no arcs among its own
    vertices, so every arc into it comes from a class already placed. Taking
    the levels top down, the vertices of the class left unplaced that a step
    from level i - 1 reaches go to level i; what is left goes to level 0.
    reach[i] is the union of the steps of level i. Only class vertices are
    placed, so a step may hold other vertices too.
    """
    levels: list[int] = []
    reach: list[int] = []
    for c in sorted(classes):
        rest = classes[c]
        for i in range(len(levels), -1, -1):
            at = rest & reach[i - 1] if i else rest
            if not at:
                continue
            rest ^= at
            if i == len(levels):
                levels.append(0)
                reach.append(0)
            levels[i] |= at
            out = reach[i]
            while at:
                low = at & -at
                out |= step[low.bit_length() - 1]
                at ^= low
            reach[i] = out
            if not rest:
                break
    return levels


@dataclass(frozen=True)
class GallaiRoyPath:
    """The Gallai-Roy path of a coloring, given by its levels: order is the
    number of levels, and the vertices are walked back on the graph's
    adjacency masks on first read.

    A neighbor of v one level below it has the smaller color, since a larger
    one would put it above v, so the adjacency masks meet that level in v's
    in-neighbors there, as graphs._walk_back needs.
    """

    levels: tuple[int, ...]
    masks: tuple[int, ...] = field(repr=False)

    @property
    def order(self) -> int:
        return len(self.levels)

    @functools.cached_property
    def vertices(self) -> tuple[int, ...]:
        return _walk_back(self.levels, self.masks)


def gallai_roy_rainbow_path(cg: ColoredGraph) -> GallaiRoyPath:
    """Longest directed path of the color orientation, the one that
    graphs._walk_back reads off the levels of _color_levels.

    Colors strictly increase along the path, so it is rainbow; by the
    Gallai-Roy theorem its order is at least the chromatic number.
    """
    g = cg.graph
    if g.n == 0:
        raise GraphError("no path of order >= 1 exists in the empty graph")
    return GallaiRoyPath(tuple(_color_levels(g.masks, cg.classes)), g.masks)
