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

The forward and backward longest paths come from the oracle's level DP,
_color_levels, run on the class's color classes with each vertex's
neighbors split by grading order into forward and backward steps, and are
walked back by graphs._walk_back on the orientation's in-neighbor masks,
split the same way. The witness scan and the probe stay inside one longest
path's vertex set, where every arc of the class belongs to that path's
side, so they read the color orientation's per-vertex in- and out-neighbor
bitmasks directly; the forward and backward arc lists exist only for the
trace. The probe is the shared breadth-first search graphs._layers inside
the path's vertex set, its chain the same walk back, and the witness takes
the smallest s arc-neighbors.

Every returned path or witness is re-verified against the original colored
graph before being reported, and a procedure run always carries a full
trace of the intermediate objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .chromatic import chromatic_number
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
    def part_of(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for i, part in enumerate(self.parts):
            for v in part:
                out[v] = i
        return out

    @cached_property
    def class_of(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for part, coloring in zip(self.parts, self.part_colorings):
            for v, c in zip(part, coloring):
                out[v] = c
        return out

    def is_later(self, u: int, v: int) -> bool:
        """True when u belongs to a strictly later part than v."""
        return self.part_of[u] > self.part_of[v]


def validate_grading(g: Graph, grading: Grading) -> None:
    """Raise GradingError unless grading is a k-colorable grading of g."""
    if grading.k < 1:
        raise GradingError("k must be positive")
    if len(grading.parts) != len(grading.part_colorings):
        raise GradingError("each part needs exactly one coloring")
    seen: set[int] = set()
    for part, coloring in zip(grading.parts, grading.part_colorings):
        if len(part) != len(coloring):
            raise GradingError("part coloring length mismatch")
        for v, c in zip(part, coloring):
            if not 0 <= v < g.n:
                raise GradingError(f"vertex {v} not in graph")
            if v in seen:
                raise GradingError(f"vertex {v} appears in two parts")
            seen.add(v)
            if not 1 <= c <= grading.k:
                raise GradingError(f"part color {c} outside 1..{grading.k}")
    if len(seen) != g.n:
        raise GradingError("parts do not cover the vertex set")
    cls = grading.class_of
    for u, v in g.edges():
        if grading.part_of[u] == grading.part_of[v] and cls[u] == cls[v]:
            raise GradingError(f"part coloring is improper on edge ({u},{v})")


def singleton_grading(g: Graph) -> Grading:
    """Every vertex its own part; trivially 1-colorable."""
    return Grading(
        parts=tuple((v,) for v in range(g.n)),
        part_colorings=tuple((1,) for _ in range(g.n)),
        k=1,
    )


def whole_graph_grading(g: Graph, coloring_values: tuple[int, ...], k: int) -> Grading:
    """One part holding all of V with the given proper coloring."""
    return Grading(
        parts=(tuple(range(g.n)),) if g.n else (),
        part_colorings=(coloring_values,) if g.n else (),
        k=k,
    )


def grading_from_partition(g: Graph, parts: list[list[int]]) -> Grading:
    """Build a grading from a vertex partition, coloring each part greedily.

    k becomes the largest per-part palette actually needed.
    """
    from .chromatic import dsatur_coloring

    colorings = []
    k = 1
    for part in parts:
        local = dsatur_coloring(induced_subgraph(g, part))
        color = dict(zip(sorted(set(part)), local.colors))
        ordered = tuple(color[v] for v in part)
        colorings.append(ordered)
        k = max(k, local.palette_size if part else 1)
    return Grading(
        parts=tuple(tuple(p) for p in parts),
        part_colorings=tuple(colorings),
        k=k,
    )


def refine_grading(cg: ColoredGraph, grading: Grading) -> tuple[tuple[int, ...], ...]:
    """Split V into k classes Z_1..Z_k, each sorted, by the per-part coloring
    of each vertex.

    validate_grading proves each part coloring proper, so each class meets
    each part in an independent set.
    """
    validate_grading(cg.graph, grading)
    buckets: list[list[int]] = [[] for _ in range(grading.k)]
    for part, coloring in zip(grading.parts, grading.part_colorings):
        for v, c in zip(part, coloring):
            buckets[c - 1].append(v)
    return tuple(tuple(sorted(b)) for b in buckets)


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
    return all(
        cg.graph.has_edge(witness.vertex, u) and grading.is_later(u, witness.vertex)
        for u in vs
    )


def _global_witness(cg: ColoredGraph, grading: Grading, s: int) -> Witness | None:
    """Whole-graph scan for a witness vertex (not restricted to path sets)."""
    for v in range(cg.graph.n):
        later = [u for u in _bits(cg.graph.masks[v]) if grading.is_later(u, v)]
        chosen: list[int] = []
        colors_seen: set[int] = set()
        for u in later:
            c = cg.color_of(u)
            if c not in colors_seen:
                colors_seen.add(c)
                chosen.append(u)
                if len(chosen) == s:
                    return Witness(vertex=v, later_neighbors=tuple(chosen))
    return None


def rainbow_or_witness(cg: ColoredGraph, grading: Grading, s: int) -> GradingOutcome:
    """Run the graded procedure: induced rainbow s-path, witness, or neither.

    Steps: refine the grading into classes; take the class with the largest
    exact chromatic number; orient it by color; order its vertices by part;
    split arcs into forward/backward; take longest directed paths in both;
    scan their vertex sets for a witness; otherwise probe by BFS and verify
    the extracted parent path, falling back to an exhaustive induced-path
    search inside the (rainbow) path set when verification fails. A final
    whole-graph witness scan runs before conceding NO_GUARANTEE, which is a
    legal outcome whenever chi(G) < k*r(s).
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
    arcs = sorted((u, w) for w in class_vertices for u in _bits(ins[w]))

    pi_order = tuple(sorted(class_vertices, key=lambda v: (grading.part_of[v], v)))
    earlier = [0] * g.n  # earlier[v]: mask of the class vertices before v in pi_order
    seen = 0
    for v in pi_order:
        earlier[v] = seen
        seen |= 1 << v
    forward_arcs = [(u, w) for u, w in arcs if earlier[w] >> u & 1]
    backward_arcs = [(u, w) for u, w in arcs if not earlier[w] >> u & 1]

    # the class's color classes; a forward arc steps to a later part, a
    # backward one to an earlier part
    by_color = {c: m & class_mask for c, m in cg.classes.items()}
    forward_path = _walk_back(_color_levels([m & ~e for m, e in zip(g.masks, earlier)], by_color),
                              [i & e for i, e in zip(ins, earlier)])
    backward_path = _walk_back(_color_levels([m & e for m, e in zip(g.masks, earlier)], by_color),
                               [i & ~e for i, e in zip(ins, earlier)])

    bfs_attempts: list[BfsAttempt] = []

    def finish(kind: OutcomeKind, path: Path | None, witness: Witness | None,
               global_scan: bool) -> GradingOutcome:
        trace = GradingTrace(
            class_chromatic_numbers=class_chis,
            class_index=j,
            class_vertices=class_vertices,
            arcs=tuple(arcs),
            pi_order=pi_order,
            forward_arcs=tuple(forward_arcs),
            backward_arcs=tuple(backward_arcs),
            forward_path=forward_path,
            backward_path=backward_path,
            bfs_attempts=tuple(bfs_attempts),
            global_witness_scan_used=global_scan,
        )
        return GradingOutcome(kind, path, witness, trace)

    # Both searches stay inside one longest path's vertex set. Colors rise
    # along the path, and grading order rises (forward) or falls (backward)
    # with them, so every class arc inside that set is one of the side's
    # arcs: in the class, out-neighbors step to later parts on the forward
    # side and in-neighbors do on the backward side.
    outs = [mask & class_mask & ~i for mask, i in zip(g.masks, ins)]
    sides = [
        ("forward", forward_path, True, sum(1 << v for v in forward_path), outs, ins),
        ("backward", backward_path, False, sum(1 << v for v in backward_path), ins, outs),
    ]
    for _, path_vertices, _, members, step, _ in sides:
        v = next((v for v in path_vertices if (step[v] & members).bit_count() >= s), None)
        if v is not None:
            witness = Witness(vertex=v, later_neighbors=tuple(_bits(step[v] & members))[:s])
            if verify_witness_outcome(cg, grading, witness, s):
                return finish(OutcomeKind.WITNESS, None, witness, False)

    # the chosen class is not empty, so both paths have a vertex
    for side, path_vertices, outgoing, members, step, back in sides:
        root = path_vertices[0] if outgoing else path_vertices[-1]
        layers = list(_layers(step, members, 1 << root))
        max_depth = len(layers) - 1
        if max_depth < s - 1:
            bfs_attempts.append(BfsAttempt(side, root, max_depth, None, None, False))
            continue
        # the tie-breaks of a BFS expanding each layer in ascending id: the tip
        # is the smallest id at depth s-1, a vertex's parent its smallest
        # predecessor in the layer before
        chain = _walk_back(layers[:s], back)
        extracted = chain if outgoing else chain[::-1]
        candidate = Path(extracted)
        ok = verify_rainbow_outcome(cg, candidate, s)
        if ok:
            bfs_attempts.append(BfsAttempt(side, root, max_depth, extracted, True, False))
            return finish(OutcomeKind.RAINBOW_PATH, candidate, None, False)
        # the parent path picked up a chord in G: search the (rainbow)
        # path set exhaustively instead
        result = longest_induced_path(induced_subgraph(g, path_vertices),
                                      SearchBudget(on_exceed="flag"))
        if result.path.order >= s:
            to_parent = sorted(path_vertices)
            mapped = tuple(to_parent[v] for v in result.path.vertices[:s])
            candidate = Path(mapped)
            if verify_rainbow_outcome(cg, candidate, s):
                bfs_attempts.append(BfsAttempt(side, root, max_depth, extracted, False, True))
                return finish(OutcomeKind.RAINBOW_PATH, candidate, None, False)
        bfs_attempts.append(BfsAttempt(side, root, max_depth, extracted, False, True))

    witness = _global_witness(cg, grading, s)
    if witness is not None and verify_witness_outcome(cg, grading, witness, s):
        return finish(OutcomeKind.WITNESS, None, witness, True)

    return finish(OutcomeKind.NO_GUARANTEE, None, None, True)
