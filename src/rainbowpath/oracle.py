"""Exact brute-force searches that define ground truth for every constructive
guarantee, plus the Gallai-Roy orientation construction.

The induced-path searches run depth-first over extendable induced paths with
bitset pruning over int adjacency masks (Python ints are unbounded bitsets,
so any graph size and any palette fit); they are exact whenever the search
budget is not exhausted, and best-effort results are always flagged, never
silently returned. Their results, node counts included, follow one contract:

- candidates are tried in ascending vertex id;
- the best result is replaced only on strict improvement;
- each path extension counts one search node against the budget;
- an extension rejected by the most-colorful search's color bound still
  counts its node, which is counted before the bound is tested;
- the rainbow search stops at the first path that uses every color.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import ColoredGraph, Graph, GraphError, Path, _bits, _lowest


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


def _dense_colors(cg: ColoredGraph) -> list[int]:
    remap: dict[int, int] = {}
    dense = []
    for c in cg.coloring.colors:
        if c not in remap:
            remap[c] = len(remap)
        dense.append(remap[c])
    return dense


def _check_budget(g: Graph, budget: SearchBudget) -> None:
    if g.n == 0:
        raise GraphError("no path of order >= 1 exists in the empty graph")
    if g.n > budget.max_vertices and budget.on_exceed == "error":
        raise BudgetExceededError(
            f"{g.n} vertices exceeds the exact-search cap {budget.max_vertices}"
        )


def _finish(raw_path: list[int], nodes: int, exceeded: bool, budget: SearchBudget,
            normalize: bool = True) -> SearchResult:
    if exceeded and budget.on_exceed == "error":
        raise BudgetExceededError(f"search exceeded {budget.max_nodes} nodes")
    vs = tuple(raw_path)
    if normalize and len(vs) > 1 and vs[0] > vs[-1]:
        vs = tuple(reversed(vs))
    return SearchResult(Path(vs), exact=not exceeded, nodes=nodes)


def _search_induced_path(masks: tuple[int, ...], n: int, max_nodes: int) -> tuple[list[int], int, bool]:
    """Maximum-order induced path; returns (path, nodes_used, exceeded)."""
    best: list[int] = []
    nodes = 0
    for start in range(n):
        if not best:
            best = [start]
        path = [start]
        closed = [1 << start]
        cands = [masks[start]]
        while path:
            if not cands[-1]:
                path.pop()
                closed.pop()
                cands.pop()
                continue
            low = cands[-1] & -cands[-1]
            cands[-1] ^= low
            nodes += 1
            if nodes > max_nodes:
                return best, nodes, True
            x = low.bit_length() - 1
            new_closed = closed[-1] | masks[path[-1]] | low
            path.append(x)
            closed.append(new_closed)
            cands.append(masks[x] & ~new_closed)
            if len(path) > len(best):
                best = path.copy()
    return best, nodes, False


def _search_rainbow_path(
    masks: tuple[int, ...], n: int, colors: list[int], max_nodes: int
) -> tuple[list[int], int, bool]:
    """Maximum-order induced path with pairwise distinct colors.

    colors must be dense 0-based ids; extensions repeating a used color are
    pruned, which is safe because prefixes of rainbow paths are rainbow. No
    rainbow path has more vertices than there are colors, so the search stops
    at the first path that uses every color: later paths can only tie it, and
    ties never replace the best, so the result is the one the full search
    returns, reported exact.
    """
    palette = max(colors, default=-1) + 1
    best: list[int] = []
    nodes = 0
    for start in range(n):
        if not best:
            best = [start]
            if palette == 1:
                return best, nodes, False
        path = [start]
        closed = [1 << start]
        used = [1 << colors[start]]
        cands = [masks[start]]
        while path:
            if not cands[-1]:
                path.pop()
                closed.pop()
                used.pop()
                cands.pop()
                continue
            low = cands[-1] & -cands[-1]
            cands[-1] ^= low
            x = low.bit_length() - 1
            if used[-1] >> colors[x] & 1:
                continue
            nodes += 1
            if nodes > max_nodes:
                return best, nodes, True
            new_closed = closed[-1] | masks[path[-1]] | low
            path.append(x)
            closed.append(new_closed)
            used.append(used[-1] | 1 << colors[x])
            cands.append(masks[x] & ~new_closed)
            if len(path) > len(best):
                best = path.copy()
                if len(best) == palette:
                    return best, nodes, False
    return best, nodes, False


def _search_most_colorful(
    masks: tuple[int, ...], colors: list[int], start: int, max_nodes: int
) -> tuple[list[int], int, bool]:
    """Induced path from a fixed start maximizing distinct colors.

    Ties prefer smaller order, then the lexicographically smallest vertex
    sequence (guaranteed by depth-first enumeration order). An extension is
    rejected when its optimistic color bound, the colors it uses plus the
    unused colors of vertices outside its closed set, cannot reach the best
    count; such an extension sees fewer colors than the best, so it could
    never have replaced it. The bound tests one color-class mask per unused
    color, O(palette) work, stops once enough colors are found, and is
    skipped when the extension already sees at least the best count.
    """
    classes = [0] * (max(colors) + 1)
    for v, c in enumerate(colors):
        classes[c] |= 1 << v
    best = [start]
    best_count = 1
    nodes = 0
    path = [start]
    closed = [1 << start]
    used = [1 << colors[start]]
    cands = [masks[start]]
    while path:
        if not cands[-1]:
            path.pop()
            closed.pop()
            used.pop()
            cands.pop()
            continue
        low = cands[-1] & -cands[-1]
        cands[-1] ^= low
        x = low.bit_length() - 1
        nodes += 1
        if nodes > max_nodes:
            return best, nodes, True
        new_closed = closed[-1] | masks[path[-1]] | low
        new_used = used[-1] | 1 << colors[x]
        count = new_used.bit_count()
        short = best_count - count
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
    return best, nodes, False


def longest_induced_path(g: Graph, budget: SearchBudget = SearchBudget()) -> SearchResult:
    """A maximum-order induced path of g (exact unless the budget ran out).

    A vertex may extend the path only when adjacent to the last vertex and
    non-adjacent to every earlier path vertex. The returned path is oriented
    with its smaller endpoint first.
    """
    _check_budget(g, budget)
    raw, nodes, exceeded = _search_induced_path(g.masks, g.n, budget.max_nodes)
    return _finish(raw, nodes, exceeded, budget)


def longest_induced_rainbow_path(cg: ColoredGraph, budget: SearchBudget = SearchBudget()) -> SearchResult:
    """A maximum-order induced path whose vertices have pairwise distinct colors."""
    g = cg.graph
    _check_budget(g, budget)
    raw, nodes, exceeded = _search_rainbow_path(
        g.masks, g.n, _dense_colors(cg), budget.max_nodes
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
        g.masks, _dense_colors(cg), start, budget.max_nodes
    )
    return _finish(raw, nodes, exceeded, budget, normalize=False)


def _color_orientation(masks: tuple[int, ...], colors: tuple[int, ...],
                       subset: int) -> list[tuple[int, int]]:
    """The color orientation of the subgraph induced by the vertex bitmask
    subset: each edge points at its larger color.

    Returns each vertex with the mask of its in-neighbors, in (color, id)
    order. colors must be proper on the subgraph, so every edge gets a strict
    direction and the order is topological.
    """
    classes: dict[int, int] = {}
    for v in _bits(subset):
        classes[colors[v]] = classes.get(colors[v], 0) | 1 << v
    below = 0
    out = []
    for c in sorted(classes):
        for v in _bits(classes[c]):
            out.append((v, masks[v] & below))
        below |= classes[c]
    return out


def _longest_directed_path(orientation: list[tuple[int, int]]) -> tuple[int, ...]:
    """Longest directed path of a non-empty acyclic orientation, given as
    (vertex, in-neighbor mask) pairs in a topological order.

    Each vertex extends the smallest-id longest path into it, and of the
    longest paths the one ending at the smallest id wins.
    """
    levels: list[int] = []  # levels[i]: vertices ending a longest path of i + 1
    pred: dict[int, int] = {}
    for v, ins in orientation:
        i = len(levels)
        while i and not ins & levels[i - 1]:
            i -= 1
        if i == len(levels):
            levels.append(0)
        levels[i] |= 1 << v
        pred[v] = _lowest(ins & levels[i - 1]) if i else -1
    rev = [_lowest(levels[-1])]
    while pred[rev[-1]] != -1:
        rev.append(pred[rev[-1]])
    return tuple(reversed(rev))


def orient_by_color(cg: ColoredGraph) -> list[tuple[int, int]]:
    """Arcs of the color orientation, each edge pointing at its larger color,
    in ascending order.

    The coloring is proper, so every edge gets a strict direction and the
    resulting digraph is acyclic (colors strictly increase along arcs).
    """
    g = cg.graph
    orientation = _color_orientation(g.masks, cg.coloring.colors, (1 << g.n) - 1)
    return sorted((u, v) for v, ins in orientation for u in _bits(ins))


def gallai_roy_rainbow_path(cg: ColoredGraph) -> Path:
    """Longest directed path of the color orientation.

    Colors strictly increase along the path, so it is rainbow; by the
    Gallai-Roy theorem its order is at least the chromatic number.
    """
    g = cg.graph
    if g.n == 0:
        raise GraphError("no path of order >= 1 exists in the empty graph")
    orientation = _color_orientation(g.masks, cg.coloring.colors, (1 << g.n) - 1)
    return Path(_longest_directed_path(orientation))
