"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (adjacency lists, recursive search,
full re-classification of every candidate) and shares no machinery with the
package's pruned bitmask searches.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from rainbowpath.graphs import ColoredGraph, Coloring, Graph


def adjacency_lists(g: Graph) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges():
        adj[u].append(v)
        adj[v].append(u)
    return adj


def is_induced_seq(g: Graph, seq: list[int]) -> bool:
    for i in range(len(seq)):
        for j in range(i + 2, len(seq)):
            if g.has_edge(seq[i], seq[j]):
                return False
    return True


def naive_is_proper(g: Graph, coloring: Coloring) -> bool:
    """No adjacent pair of vertices shares a color, checked pair by pair."""
    c = coloring.colors
    return not any(g.has_edge(u, v) and c[u] == c[v] for u, v in combinations(range(g.n), 2))


def random_proper_coloring(g: Graph, rng: random.Random, spread: int = 200) -> Coloring:
    """A random proper coloring with sparse color ids.

    Vertices in random order each take a random color in 1..degree+1 not on
    a colored neighbor; the colors used are then renamed to distinct random
    ids in 1..spread, so ids are non-contiguous and may exceed 64.
    """
    order = list(range(g.n))
    rng.shuffle(order)
    colors = [0] * g.n
    for v in order:
        taken = {colors[u] for u in g.neighbors(v)}
        colors[v] = rng.choice([c for c in range(1, g.degree(v) + 2) if c not in taken])
    ids = rng.sample(range(1, spread + 1), max(colors, default=0))
    return Coloring(tuple(ids[c - 1] for c in colors))


def naive_triangle_free(g: Graph) -> bool:
    return not any(
        g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
        for a, b, c in combinations(range(g.n), 3)
    )


def _all_paths(g: Graph):
    """Every simple path (as a vertex list), extended by adjacency only.

    No induced/rainbow pruning: each complete sequence is classified by the
    caller.
    """
    adj = adjacency_lists(g)

    def extend(seq: list[int], used: set[int]):
        yield seq
        for w in adj[seq[-1]]:
            if w not in used:
                used.add(w)
                seq.append(w)
                yield from extend(seq, used)
                seq.pop()
                used.remove(w)

    for start in range(g.n):
        yield from extend([start], {start})


def naive_longest_induced_path_order(g: Graph) -> int:
    best = 0
    for seq in _all_paths(g):
        if len(seq) > best and is_induced_seq(g, seq):
            best = len(seq)
    return best


def naive_longest_induced_rainbow_path_order(cg: ColoredGraph) -> int:
    g = cg.graph
    best = 0
    for seq in _all_paths(g):
        if len(seq) <= best:
            continue
        colors = [cg.color_of(v) for v in seq]
        if len(set(colors)) == len(seq) and is_induced_seq(g, seq):
            best = len(seq)
    return best


def naive_most_colorful_path_from(cg: ColoredGraph, start: int) -> tuple[int, ...]:
    """The induced path from start that sees the most distinct colors; ties
    go to the fewest vertices, then to the smallest vertex tuple."""
    g = cg.graph
    return min(
        (tuple(seq) for seq in _all_paths(g) if seq[0] == start and is_induced_seq(g, seq)),
        key=lambda seq: (-len({cg.color_of(v) for v in seq}), len(seq), seq),
    )


def naive_shortest_path_to_set(g: Graph, source: int, targets: set[int]) -> tuple[int, ...] | None:
    """Breadth-first search with a parent map: each layer in ascending id
    order, each vertex's neighbors in ascending id order, the first vertex
    to reach a neighbor becomes its parent, and the search stops at the
    first target reached. None when no target is reachable."""
    adj = adjacency_lists(g)
    if source in targets:
        return (source,)
    parent = {source: None}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for w in sorted(adj[u]):
                if w in parent:
                    continue
                parent[w] = u
                if w in targets:
                    path = [w]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return tuple(reversed(path))
                nxt.append(w)
        frontier = sorted(nxt)
    return None


def naive_chromatic_number(g: Graph) -> int:
    if g.n == 0:
        return 0
    edges = list(g.edges())
    if not edges:
        return 1
    for k in range(1, g.n + 1):
        for assign in product(range(k), repeat=g.n):
            if all(assign[u] != assign[v] for u, v in edges):
                return k
    raise AssertionError("unreachable")


def naive_canonical_colorings(g: Graph, max_colors: int) -> set[tuple[int, ...]]:
    """Brute force all assignments, keep proper ones, canonicalize, dedupe."""
    edges = list(g.edges())
    out: set[tuple[int, ...]] = set()
    for assign in product(range(1, max_colors + 1), repeat=g.n):
        if any(assign[u] == assign[v] for u, v in edges):
            continue
        rename: dict[int, int] = {}
        canon = []
        for c in assign:
            if c not in rename:
                rename[c] = len(rename) + 1
            canon.append(rename[c])
        out.add(tuple(canon))
    return out


def is_bipartite_bfs(g: Graph) -> bool:
    side = [-1] * g.n
    for start in range(g.n):
        if side[start] != -1:
            continue
        side[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for u in range(g.n):
                if g.has_edge(v, u):
                    if side[u] == -1:
                        side[u] = 1 - side[v]
                        queue.append(u)
                    elif side[u] == side[v]:
                        return False
    return True
