"""Triangle-free graph families: cycles, Mycielski iterates, Kneser graphs,
and seeded random triangle-free graphs for corpus building."""

from __future__ import annotations

import random
from itertools import combinations

from .graphs import Graph, GraphError, build_graph


def cycle_graph(n: int) -> Graph:
    """The n-cycle, n >= 3."""
    if n < 3:
        raise GraphError("a cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def mycielskian(g: Graph) -> Graph:
    """Mycielski construction: 2n+1 vertices, 3m+n edges.

    Preserves triangle-freeness and raises the chromatic number by exactly
    one. Vertex layout: originals 0..n-1, shadow of v at n+v, apex at 2n.
    """
    n = g.n
    edges: list[tuple[int, int]] = list(g.edges())
    for u, v in g.edges():
        edges.append((u, n + v))
        edges.append((v, n + u))
    apex = 2 * n
    edges.extend((n + v, apex) for v in range(n))
    return build_graph(2 * n + 1, edges)


def mycielski_iterates(depth: int) -> list[Graph]:
    """K2 followed by its first `depth` Mycielski iterates (chi = 2..depth+2)."""
    if depth < 0:
        raise GraphError("depth must be non-negative")
    out = [build_graph(2, [(0, 1)])]
    for _ in range(depth):
        out.append(mycielskian(out[-1]))
    return out


def kneser_graph(n: int, k: int) -> Graph:
    """Kneser graph: k-subsets of [n] in lexicographic order, edges between
    disjoint subsets. Triangle-free whenever n < 3k. Requires n >= 2k >= 2."""
    if k < 1 or n < 2 * k:
        raise GraphError(f"kneser parameters need n >= 2k >= 2, got n={n}, k={k}")
    subsets = [frozenset(c) for c in combinations(range(n), k)]
    edges = [
        (i, j)
        for i, j in combinations(range(len(subsets)), 2)
        if not subsets[i] & subsets[j]
    ]
    return build_graph(len(subsets), edges)


def petersen_graph() -> Graph:
    return kneser_graph(5, 2)


def random_triangle_free(n: int, p: float, seed: int) -> Graph:
    """Seeded random triangle-free graph.

    Candidate edges are visited in a seeded random order; each is kept with
    probability p unless it would close a triangle. The output is always
    triangle-free and identical for identical seeds.
    """
    if not 0 <= p <= 1:
        raise GraphError(f"edge probability {p} outside [0, 1]")
    if n < 0:
        raise GraphError("vertex count must be non-negative")
    rng = random.Random(seed)
    candidates = list(combinations(range(n), 2))
    rng.shuffle(candidates)
    masks = [0] * n
    for u, v in candidates:
        if rng.random() >= p:
            continue
        if masks[u] & masks[v]:
            continue
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph(n, tuple(masks))
