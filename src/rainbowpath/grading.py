"""Graded search for an induced rainbow path or a high-fan witness vertex.

A grading is an ordered partition (W_1, ..., W_n) of the vertex set where
every part induces a subgraph colorable with at most k colors. Refining the
parts by their local colorings splits V into k classes whose intersection
with any part is independent. Orienting the densest class by global color
and splitting its arcs into forward/backward with respect to the grading
order yields two DAGs; a longest directed path in either is rainbow, and
either some path vertex has enough later neighbors of distinct colors (a
witness) or a breadth-first tree inside the path's vertex set is deep
enough to surface an induced rainbow path of the target order.

The grading order is one per-vertex bitmask, Grading.later: each vertex's
neighbors split once into steps to a later part and the rest. The forward
longest path is the oracle's level DP, _color_levels, run on the class's
color classes with the later-part steps, and the backward one the same DP
on the rest; graphs._walk_back reads each off the orientation's in-neighbor
masks, restricted to the other split. Inside one longest path's vertex set
the side's arcs are exactly the edges and each steps to a later part, so
both sides probe with the shared breadth-first search graphs._layers on the
later-part steps from the path vertex in the earliest part, and read its
chain with the same walk back on the rest. One witness scan, _witness,
takes the smallest id of each color among a vertex's later neighbors; it
reads both path sets and then the whole graph.

Every returned path or witness is re-verified against the original colored
graph before being reported, and a procedure run always carries a full
trace of the intermediate objects.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial

from .chromatic import chromatic_number, dsatur_coloring
from .graphs import (ColoredGraph, Graph, GraphError, Path, _bits, _layers, _walk_back, classify_path,
                     induced_subgraph)
from .oracle import SearchBudget, _color_levels, _color_orientation, longest_induced_path


class GradingError(GraphError):
    """Invalid grading: not a partition, or an improper/oversized part coloring."""


@dataclass(frozen=True)
class Grading:
    """Ordered partition of V with per-part colorings using at most k colors.

    part_colorings[i][t] is the color (in 1..k) of parts[i][t].
    """

    parts: tuple[tuple[int, ...], ...]
    part_colorings: tuple[tuple[int, ...], ...]
    k: int

    @cached_property
    def later(self) -> tuple[int, ...]:
        """later[v] is the bitmask of the vertices in strictly later parts than v's."""
        out = [0] * sum(map(len, self.parts))
        after = 0
        for part in reversed(self.parts):
            for v in part:
                out[v] = after
            after |= sum(1 << v for v in part)
        return tuple(out)


def validate_grading(g: Graph, grading: Grading) -> dict[int, tuple[int, int]]:
    """Raise GradingError unless grading is a k-colorable grading of g.

    Returns the (part index, part color) of each vertex, keyed by vertex."""
    if grading.k < 1:
        raise GradingError("k must be positive")
    if len(grading.parts) != len(grading.part_colorings):
        raise GradingError("each part needs exactly one coloring")
    key: dict[int, tuple[int, int]] = {}  # (part index, part color) of each vertex
    for i, (part, coloring) in enumerate(zip(grading.parts, grading.part_colorings)):
        if len(part) != len(coloring):
            raise GradingError("part coloring length mismatch")
        for v, c in zip(part, coloring):
            if not 0 <= v < g.n:
                raise GradingError(f"vertex {v} not in graph")
            if v in key:
                raise GradingError(f"vertex {v} appears in two parts")
            key[v] = (i, c)
            if not 1 <= c <= grading.k:
                raise GradingError(f"part color {c} outside 1..{grading.k}")
    if len(key) != g.n:
        raise GradingError("parts do not cover the vertex set")
    for u, v in g.edges():
        if key[u] == key[v]:
            raise GradingError(f"part coloring is improper on edge ({u},{v})")
    return key


def singleton_grading(g: Graph) -> Grading:
    """Every vertex its own part; trivially 1-colorable."""
    return Grading(
        parts=tuple((v,) for v in range(g.n)),
        part_colorings=tuple((1,) for _ in range(g.n)),
        k=1,
    )


def grading_from_partition(g: Graph, parts: list[list[int]]) -> Grading:
    """Build a grading from a vertex partition, coloring each part greedily.

    k becomes the largest per-part palette actually needed, and at least 1:
    an empty part's palette is 0.
    """
    colorings = []
    k = 1
    for part in parts:
        local = dsatur_coloring(induced_subgraph(g, part))
        color = dict(zip(sorted(set(part)), local.colors))
        ordered = tuple(color[v] for v in part)
        colorings.append(ordered)
        k = max(k, local.palette_size)
    return Grading(
        parts=tuple(tuple(p) for p in parts),
        part_colorings=tuple(colorings),
        k=k,
    )


def refine_grading(cg: ColoredGraph, grading: Grading) -> tuple[tuple[int, ...], ...]:
    """Split V into k classes Z_1..Z_k, each sorted, by the per-part coloring
    of each vertex: validate_grading's table, read in vertex order.

    validate_grading proves each part coloring proper, so each class meets
    each part in an independent set.
    """
    key = validate_grading(cg.graph, grading)
    buckets: list[list[int]] = [[] for _ in range(grading.k)]
    for v in range(cg.graph.n):
        buckets[key[v][1] - 1].append(v)
    return tuple(map(tuple, buckets))


class OutcomeKind(Enum):
    RAINBOW_PATH = "rainbow-path"
    WITNESS = "witness"
    NO_GUARANTEE = "no-guarantee"


@dataclass(frozen=True)
class Witness:
    """A vertex with s later, pairwise distinct-colored, adjacent vertices."""

    vertex: int
    later_neighbors: tuple[int, ...]


@dataclass(frozen=True)
class BfsAttempt:
    """One breadth-first probe inside a longest-path vertex set."""

    side: str  # "forward" or "backward"
    root: int
    depth: int
    extracted: tuple[int, ...] | None
    verified_induced: bool | None
    fallback_used: bool


@dataclass(frozen=True)
class GradingTrace:
    """Everything the procedure computed, step by step."""

    class_chromatic_numbers: tuple[int, ...]
    class_index: int
    class_vertices: tuple[int, ...]
    arcs: tuple[tuple[int, int], ...]
    pi_order: tuple[int, ...]
    forward_arcs: tuple[tuple[int, int], ...]
    backward_arcs: tuple[tuple[int, int], ...]
    forward_path: tuple[int, ...]
    backward_path: tuple[int, ...]
    bfs_attempts: tuple[BfsAttempt, ...]
    global_witness_scan_used: bool


@dataclass(frozen=True)
class GradingOutcome:
    kind: OutcomeKind
    rainbow_path: Path | None
    witness: Witness | None
    trace: GradingTrace


def verify_rainbow_outcome(cg: ColoredGraph, path: Path, s: int) -> bool:
    report = classify_path(cg, path.vertices)
    return report.is_induced and report.is_rainbow and report.order == s


def verify_witness_outcome(cg: ColoredGraph, grading: Grading, witness: Witness, s: int) -> bool:
    vs = witness.later_neighbors
    if len(vs) != s or len(set(vs)) != s:
        return False
    if len({cg.color_of(u) for u in vs}) != s:
        return False
    later = grading.later[witness.vertex]
    return all(cg.graph.has_edge(witness.vertex, u) and later >> u & 1 for u in vs)


def _witness(cg: ColoredGraph, step: list[int], s: int, order: Iterable[int],
             within: int) -> Witness | None:
    """The first vertex v of order with s later neighbors (step[v]) of
    distinct colors inside the vertex bitmask within: the smallest id of
    each color, for the s colors whose smallest ids come first."""
    for v in order:
        firsts: dict[int, int] = {}
        for u in _bits(step[v] & within):
            firsts.setdefault(cg.color_of(u), u)
            if len(firsts) == s:
                return Witness(vertex=v, later_neighbors=tuple(firsts.values()))
    return None


def rainbow_or_witness(cg: ColoredGraph, grading: Grading, s: int) -> GradingOutcome:
    """Run the graded procedure: induced rainbow s-path, witness, or neither.

    Steps: refine the grading into classes; take the class with the largest
    exact chromatic number; orient it by color; order its vertices by part;
    split each vertex's neighbors into the later-part steps and the rest,
    which splits the arcs into forward/backward; take longest directed paths
    in both; scan their vertex sets for a witness; otherwise probe by BFS and
    verify the extracted parent path, falling back to an exhaustive
    induced-path search inside the (rainbow) path set when verification
    fails. The same witness scan then runs over the whole graph before
    conceding NO_GUARANTEE, which is a legal outcome whenever chi(G) < k*r(s).
    """
    if s < 3:
        raise GradingError(f"target order must be at least 3, got {s}")
    g = cg.graph
    classes = refine_grading(cg, grading)

    class_chis = tuple(chromatic_number(induced_subgraph(g, cls)).chi for cls in classes)
    if g.n == 0:
        trace = GradingTrace(class_chis, 0, (), (), (), (), (), (), (), (), False)
        return GradingOutcome(OutcomeKind.NO_GUARANTEE, None, None, trace)
    j = max(range(len(class_chis)), key=lambda i: (class_chis[i], -i))
    class_vertices = classes[j]
    class_mask = sum(1 << v for v in class_vertices)
    ins = _color_orientation(g.masks, cg.classes, class_mask)
    arcs = tuple(sorted((u, w) for w in class_vertices for u in _bits(ins[w])))
    pi_order = tuple(v for part in grading.parts for v in sorted(part) if class_mask >> v & 1)

    # The part colorings are proper, so no class arc stays inside one part:
    # a forward arc steps to a later part, a backward one to a preceding part.
    step = [m & later for m, later in zip(g.masks, grading.later)]
    back = [m & ~later for m, later in zip(g.masks, grading.later)]
    forward_arcs = tuple((u, w) for u, w in arcs if step[u] >> w & 1)
    backward_arcs = tuple((u, w) for u, w in arcs if not step[u] >> w & 1)
    by_color = {c: m & class_mask for c, m in cg.classes.items()}
    forward_path = _walk_back(_color_levels(step, by_color), [i & b for i, b in zip(ins, back)])
    backward_path = _walk_back(_color_levels(back, by_color), [i & f for i, f in zip(ins, step)])
    trace = partial(GradingTrace, class_chis, j, class_vertices, arcs, pi_order,
                    forward_arcs, backward_arcs, forward_path, backward_path)

    # Both searches stay inside one longest path's vertex set, which is
    # rainbow. Colors rise along the path, and grading order rises (forward)
    # or falls (backward) with them, so inside that set the side's arcs are
    # exactly the edges, each stepping to the later part. The BFS roots at
    # the path vertex in the earliest part.
    sides = [("forward", forward_path, forward_path[0]),
             ("backward", backward_path, backward_path[-1])]
    for _, path_vertices, _ in sides:
        witness = _witness(cg, step, s, path_vertices, sum(1 << v for v in path_vertices))
        if witness is not None and verify_witness_outcome(cg, grading, witness, s):
            return GradingOutcome(OutcomeKind.WITNESS, None, witness, trace((), False))

    bfs_attempts: list[BfsAttempt] = []
    for side, path_vertices, root in sides:
        layers = list(_layers(step, sum(1 << v for v in path_vertices), 1 << root))
        max_depth = len(layers) - 1
        if max_depth < s - 1:
            bfs_attempts.append(BfsAttempt(side, root, max_depth, None, None, False))
            continue
        # the tie-breaks of a BFS expanding each layer in ascending id: the tip
        # is the smallest id at depth s-1, a vertex's parent its smallest
        # predecessor in the layer before
        chain = _walk_back(layers[:s], back)
        extracted = chain if side == "forward" else chain[::-1]
        candidate = Path(extracted)
        if verify_rainbow_outcome(cg, candidate, s):
            bfs_attempts.append(BfsAttempt(side, root, max_depth, extracted, True, False))
            return GradingOutcome(OutcomeKind.RAINBOW_PATH, candidate, None,
                                  trace(tuple(bfs_attempts), False))
        # the parent path picked up a chord in G: search the (rainbow)
        # path set exhaustively instead
        result = longest_induced_path(induced_subgraph(g, path_vertices),
                                      SearchBudget(on_exceed="flag"))
        bfs_attempts.append(BfsAttempt(side, root, max_depth, extracted, False, True))
        if result.path.order >= s:
            to_parent = sorted(path_vertices)
            candidate = Path(tuple(to_parent[v] for v in result.path.vertices[:s]))
            if verify_rainbow_outcome(cg, candidate, s):
                return GradingOutcome(OutcomeKind.RAINBOW_PATH, candidate, None,
                                      trace(tuple(bfs_attempts), False))

    witness = _witness(cg, step, s, range(g.n), (1 << g.n) - 1)
    if witness is not None and verify_witness_outcome(cg, grading, witness, s):
        return GradingOutcome(OutcomeKind.WITNESS, None, witness, trace(tuple(bfs_attempts), True))
    return GradingOutcome(OutcomeKind.NO_GUARANTEE, None, None, trace(tuple(bfs_attempts), True))
