"""Core graph, coloring, and path types plus the predicates everything else is tested against.

Vertices are dense integers 0..n-1 and adjacency is kept as one Python-int
bitmask per vertex, which makes the exact searches cheap and every tie-break
reproducible (always smallest vertex id first). All types are immutable and
hashable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator


class GraphError(ValueError):
    """Invalid graph construction or an operation applied to invalid input."""


def _bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of a mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _lowest(mask: int) -> int:
    """Index of the lowest set bit (-1 for an empty mask)."""
    return (mask & -mask).bit_length() - 1


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with bitmask adjacency."""

    n: int
    masks: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0 or len(self.masks) != self.n:
            raise GraphError(f"need exactly {self.n} adjacency masks")
        full = (1 << self.n) - 1
        for v, m in enumerate(self.masks):
            if m & ~full:
                raise GraphError(f"vertex {v} adjacent to out-of-range vertex")
            if m >> v & 1:
                raise GraphError(f"self-loop at vertex {v}")
            for u in _bits(m):
                if not self.masks[u] >> v & 1:
                    raise GraphError(f"asymmetric adjacency between {u} and {v}")

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.masks) // 2

    def neighbors(self, v: int) -> Iterator[int]:
        return _bits(self.masks[v])

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.masks[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in _bits(self.masks[u] >> (u + 1) << (u + 1)):
                yield (u, v)


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from an edge list, deduplicating and symmetrizing.

    Raises GraphError for endpoints outside [0, n) or self-loops.
    """
    if n < 0:
        raise GraphError("vertex count must be non-negative")
    masks = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) has an endpoint outside [0,{n})")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph(n, tuple(masks))


@dataclass(frozen=True)
class Coloring:
    """Total assignment of positive integer colors to vertices 0..n-1.

    Colors need not be contiguous; palette_size counts distinct values.
    """

    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(c < 1 for c in self.colors):
            raise GraphError("colors must be positive integers")

    @property
    def n(self) -> int:
        return len(self.colors)

    @property
    def palette_size(self) -> int:
        return len(set(self.colors))

    def color_of(self, v: int) -> int:
        return self.colors[v]


def is_proper(g: Graph, coloring: Coloring) -> bool:
    """True iff no edge of g is monochromatic. The coloring must be total."""
    if coloring.n != g.n:
        raise GraphError(f"coloring covers {coloring.n} vertices, graph has {g.n}")
    c = coloring.colors
    return all(c[u] != c[v] for u, v in g.edges())


@dataclass(frozen=True)
class ColoredGraph:
    """A graph together with a verified proper coloring."""

    graph: Graph
    coloring: Coloring

    def __post_init__(self) -> None:
        if not is_proper(self.graph, self.coloring):
            raise GraphError("coloring is not proper on this graph")

    def color_of(self, v: int) -> int:
        return self.coloring.colors[v]


@dataclass(frozen=True)
class Path:
    """An ordered sequence of distinct vertices; order-0 paths are rejected."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise GraphError("a path has at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise GraphError("path vertices must be distinct")

    @property
    def order(self) -> int:
        return len(self.vertices)

    def reversed(self) -> "Path":
        return Path(tuple(reversed(self.vertices)))


@dataclass(frozen=True)
class PathReport:
    order: int
    is_induced: bool
    is_rainbow: bool
    color_count: int


def check_path(g: Graph, seq: tuple[int, ...] | list[int]) -> Path:
    """Validate that seq is a path of g (distinct vertices, consecutive adjacency)."""
    path = Path(tuple(seq))
    for v in path.vertices:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} not in graph")
    for a, b in zip(path.vertices, path.vertices[1:]):
        if not g.has_edge(a, b):
            raise GraphError(f"consecutive vertices {a},{b} are not adjacent")
    return path


def classify_path(cg: ColoredGraph, seq: tuple[int, ...] | list[int]) -> PathReport:
    """Report order, inducedness, rainbowness, and color count of a path.

    Raises GraphError if seq is not a path of the underlying graph.
    """
    path = check_path(cg.graph, seq)
    vs = path.vertices
    induced = True
    for i, u in enumerate(vs):
        for v in vs[i + 2:]:
            if cg.graph.has_edge(u, v):
                induced = False
                break
        if not induced:
            break
    color_count = len({cg.color_of(v) for v in vs})
    return PathReport(
        order=path.order,
        is_induced=induced,
        is_rainbow=color_count == path.order,
        color_count=color_count,
    )


def is_triangle_free(g: Graph) -> bool:
    """True iff no three vertices are pairwise adjacent."""
    return all(not g.masks[u] & g.masks[v] for u, v in g.edges())


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Maximal connected vertex sets, ordered by minimum vertex id."""
    return [tuple(_bits(comp)) for comp in _mask_components(g.masks, (1 << g.n) - 1)]


def _layers(masks: tuple[int, ...], subset: int, frontier: int) -> Iterator[int]:
    """Breadth-first layers, as bitmasks, of the subgraph induced by the
    vertex bitmask subset, starting from the vertex bitmask frontier."""
    seen = frontier
    while frontier:
        yield frontier
        reach = 0
        for v in _bits(frontier):
            reach |= masks[v]
        frontier = reach & subset & ~seen
        seen |= frontier


def _mask_components(masks: tuple[int, ...], subset: int) -> list[int]:
    """Component bitmasks of the subgraph induced by subset, by ascending minimum id."""
    parts = []
    while subset:
        comp = 0
        for layer in _layers(masks, subset, subset & -subset):
            comp |= layer
        parts.append(comp)
        subset &= ~comp
    return parts


def _mask_shortest_path(masks: tuple[int, ...], subset: int, source: int,
                        targets: int) -> tuple[int, ...]:
    """Shortest path inside subset from source to the first-reached target.

    Breadth-first, with each layer expanded in ascending id order: a vertex's
    parent is its smallest neighbor in the layer before, and the target
    reached first is the one with the smallest parent, then the smallest id.
    """
    layers = [0]
    for layer in _layers(masks, subset, 1 << source):
        layers.append(layer)
        if layer & targets:
            break
    else:
        raise GraphError("no target vertex is reachable from the source")
    path = [min(_bits(layers[-1] & targets), key=lambda t: (_lowest(masks[t] & layers[-2]), t))]
    for layer in reversed(layers[1:-1]):
        path.append(_lowest(masks[path[-1]] & layer))
    return tuple(reversed(path))


@dataclass(frozen=True)
class InducedSubgraph:
    """An induced subgraph with the id mapping recorded in both directions."""

    graph: Graph
    to_sub: dict[int, int] = field(hash=False)
    to_parent: tuple[int, ...]


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> InducedSubgraph:
    """Subgraph induced by a vertex set; new ids follow sorted original ids."""
    order = sorted(set(vertices))
    for v in order:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} not in graph")
    to_sub = {v: i for i, v in enumerate(order)}
    masks = []
    for v in order:
        m = 0
        for u in _bits(g.masks[v]):
            if u in to_sub:
                m |= 1 << to_sub[u]
        masks.append(m)
    return InducedSubgraph(Graph(len(order), tuple(masks)), to_sub, tuple(order))


def shortest_path_to_set(g: Graph, source: int, targets: Iterable[int]) -> Path:
    """Shortest path from source to the first-reached vertex of a target set.

    Expansion is breadth-first with equal-distance vertices expanded in
    ascending id order, so the result is deterministic. Exactly one path
    vertex (the last) lies in the target set; the path is chordless.
    """
    target_mask = 0
    for t in targets:
        if not 0 <= t < g.n:
            raise GraphError(f"target {t} not in graph")
        target_mask |= 1 << t
    if not target_mask:
        raise GraphError("target set is empty")
    if not 0 <= source < g.n:
        raise GraphError(f"source {source} not in graph")
    return Path(_mask_shortest_path(g.masks, (1 << g.n) - 1, source, target_mask))
