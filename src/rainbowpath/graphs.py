"""Core graph, coloring, and path types plus the predicates everything else is tested against.

Vertices are dense integers 0..n-1 and adjacency is kept as one Python-int
bitmask per vertex, which makes the exact searches cheap and every tie-break
reproducible (always smallest vertex id first). All types are immutable and
hashable after construction.

There is one breadth-first search, _layers, and one walk back through
levels, _walk_back, which reads a path off the layers of a breadth-first
search or the levels of a longest-path DP, always stepping to the
smallest-id predecessor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence


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

    Raises GraphError for endpoints outside [0, n), checked before the
    masks are indexed; Graph itself refuses a self-loop.
    """
    if n < 0:
        raise GraphError("vertex count must be non-negative")
    masks = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) has an endpoint outside [0,{n})")
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
        if min(self.colors, default=1) < 1:
            raise GraphError("colors must be positive integers")

    @property
    def n(self) -> int:
        return len(self.colors)

    @property
    def palette_size(self) -> int:
        return len(set(self.colors))


def _proper_classes(g: Graph, coloring: Coloring) -> dict[int, int] | None:
    """Vertex bitmask of each color class of a total coloring of g, keyed by
    color in order of first occurrence, so enumerating the keys gives dense
    0-based color ids; None if some edge is monochromatic. One O(n) pass:
    each vertex is tested against its class before it joins it, when the
    class holds every smaller vertex of its color."""
    if coloring.n != g.n:
        raise GraphError(f"coloring covers {coloring.n} vertices, graph has {g.n}")
    classes: dict[int, int] = {}
    for v, (m, c) in enumerate(zip(g.masks, coloring.colors)):
        cls = classes.get(c, 0)
        if m & cls:
            return None
        classes[c] = cls | 1 << v
    return classes


def is_proper(g: Graph, coloring: Coloring) -> bool:
    """True iff no edge of g is monochromatic. The coloring must be total. O(n)."""
    return _proper_classes(g, coloring) is not None


@dataclass(frozen=True)
class ColoredGraph:
    """A graph together with a verified proper coloring, and the coloring's
    class table for every probe to read.

    ColoredGraph(graph, coloring) is the public, validating constructor: the
    properness check, _proper_classes, builds the class table. The colorings
    iter_colorings enumerates are proper by construction and arrive with
    their class table, through _proved_colored_graph.
    """

    graph: Graph
    coloring: Coloring
    classes: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        classes = _proper_classes(self.graph, self.coloring)
        if classes is None:
            raise GraphError("coloring is not proper on this graph")
        object.__setattr__(self, "classes", classes)

    def color_of(self, v: int) -> int:
        return self.coloring.colors[v]


def _proved_colored_graph(graph: Graph, coloring: Coloring,
                          classes: dict[int, int]) -> ColoredGraph:
    """A ColoredGraph built without the properness check, for a caller that
    has proved coloring proper on graph and built classes as _proper_classes
    would: each color's vertex bitmask, keyed in order of first occurrence."""
    cg = object.__new__(ColoredGraph)
    vars(cg).update(graph=graph, coloring=coloring, classes=classes)
    return cg


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


@dataclass(frozen=True)
class PathReport:
    order: int
    is_induced: bool
    is_rainbow: bool
    color_count: int


def _is_induced(masks: Sequence[int], seq: Sequence[int]) -> bool:
    """Whether distinct vertices seq form an induced path: each adjacent to
    the one before it and to none two or more places before it. O(len(seq))."""
    before = 0  # the vertices two or more places before b
    for a, b in zip(seq, seq[1:]):
        if not masks[a] >> b & 1 or masks[b] & before:
            return False
        before |= 1 << a
    return True


def classify_path(cg: ColoredGraph, seq: tuple[int, ...] | list[int]) -> PathReport:
    """Report order, inducedness, rainbowness, and color count of a path.

    Raises GraphError if seq is not a path of the underlying graph: its
    vertices must be distinct vertices of the graph, consecutive ones adjacent.
    """
    path = Path(tuple(seq))
    for v in path.vertices:
        if not 0 <= v < cg.graph.n:
            raise GraphError(f"vertex {v} not in graph")
    for a, b in zip(path.vertices, path.vertices[1:]):
        if not cg.graph.has_edge(a, b):
            raise GraphError(f"consecutive vertices {a},{b} are not adjacent")
    color_count = len({cg.color_of(v) for v in path.vertices})
    return PathReport(
        order=path.order,
        is_induced=_is_induced(cg.graph.masks, path.vertices),
        is_rainbow=color_count == path.order,
        color_count=color_count,
    )


def is_triangle_free(g: Graph) -> bool:
    """True iff no three vertices are pairwise adjacent."""
    return all(not g.masks[u] & g.masks[v] for u, v in g.edges())


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Maximal connected vertex sets, ordered by minimum vertex id."""
    return [tuple(_bits(comp)) for comp in _mask_components(g.masks, (1 << g.n) - 1)]


def _layers(masks: Sequence[int], subset: int, frontier: int) -> Iterator[int]:
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


def _walk_back(levels: Sequence[int], into: Sequence[int]) -> tuple[int, ...]:
    """The path through levels[0], levels[1], ... that ends at the smallest id
    of the last level, each vertex v preceded by the smallest id of
    into[v] & levels[i - 1].

    Every tie-break of a longest or shortest path is this walk: levels are
    the levels of a longest-path DP or the layers of a breadth-first search,
    and into[v] must meet the level before v's in v's possible predecessors.
    """
    rev = [_lowest(levels[-1])]
    for level in reversed(levels[:-1]):
        rev.append(_lowest(into[rev[-1]] & level))
    return tuple(reversed(rev))


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
    tip = min(_bits(layers[-1] & targets), key=lambda t: (_lowest(masks[t] & layers[-2]), t))
    return _walk_back(layers[1:-1] + [1 << tip], masks)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced by a vertex set; new ids follow sorted original ids,
    so vertex i of the result is sorted(set(vertices))[i]."""
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
    return Graph(len(order), tuple(masks))
