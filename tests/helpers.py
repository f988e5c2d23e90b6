"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (adjacency lists, recursive search,
full re-classification of every candidate) and shares no machinery with the
package's pruned bitmask searches.
"""

from __future__ import annotations

import hashlib
import random
from itertools import combinations, product

from rainbowpath.graphs import ColoredGraph, Coloring, Graph, build_graph


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


def every_graph(n: int):
    """All 2**(n choose 2) labelled graphs on n vertices."""
    pairs = list(combinations(range(n), 2))
    for chosen in range(1 << len(pairs)):
        yield build_graph(n, [e for i, e in enumerate(pairs) if chosen >> i & 1])


def dense_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with pairs drawn in lexicographic order from random.Random(seed);
    unlike random_triangle_free it may contain triangles and large cliques."""
    rng = random.Random(seed)
    return build_graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


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


def _first_longest(g: Graph, keep) -> tuple[int, ...]:
    """The first path of maximum order among those of _all_paths that keep
    accepts, in _all_paths' pre-order: starts ascending, each vertex's
    neighbors ascending (adjacency_lists reads the edges in lexicographic
    order). A later path replaces the best only when strictly longer."""
    best: tuple[int, ...] = ()
    for seq in _all_paths(g):
        if len(seq) > len(best) and keep(seq):
            best = tuple(seq)
    return best


def naive_longest_induced_path(g: Graph) -> tuple[int, ...]:
    """The first maximum-order induced path in _all_paths' pre-order."""
    return _first_longest(g, lambda seq: is_induced_seq(g, seq))


def naive_longest_induced_rainbow_path(cg: ColoredGraph) -> tuple[int, ...]:
    """The first maximum-order induced path with pairwise distinct colors
    in _all_paths' pre-order."""
    g = cg.graph
    return _first_longest(g, lambda seq: len({cg.color_of(v) for v in seq}) == len(seq)
                          and is_induced_seq(g, seq))


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


def naive_longest_directed_path(order: list[int], ins: list[int]) -> tuple[int, ...]:
    """Longest directed path of an acyclic orientation, given as a topological
    order of its vertices and each vertex's in-neighbor mask.

    Vertex by vertex, each vertex's path length is one more than its
    longest in-neighbor's. Of the longest paths, the one returned ends at
    the smallest id and steps back each time to the smallest-id in-neighbor
    one vertex shorter."""
    def preds(v):
        return [u for u in range(ins[v].bit_length()) if ins[v] >> u & 1]

    length: dict[int, int] = {}
    for v in order:
        length[v] = 1 + max((length[u] for u in preds(v)), default=0)
    v = min(order, key=lambda v: (-length[v], v))
    path = [v]
    while length[v] > 1:
        v = min(u for u in preds(v) if length[u] == length[v] - 1)
        path.append(v)
    return tuple(reversed(path))


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


def naive_dsatur(g: Graph) -> Coloring:
    """Greedy DSATUR (Brelaz 1979) with a set of neighbor colors per vertex:
    the uncolored vertex with the most distinct colors on its neighbors goes
    first, ties by higher degree, then smaller id; it takes the smallest
    color not on a neighbor."""
    colors = [0] * g.n
    neighbor_colors: list[set[int]] = [set() for _ in range(g.n)]
    uncolored = set(range(g.n))
    while uncolored:
        v = min(uncolored, key=lambda u: (-len(neighbor_colors[u]), -g.degree(u), u))
        c = 1
        while c in neighbor_colors[v]:
            c += 1
        colors[v] = c
        uncolored.remove(v)
        for u in g.neighbors(v):
            if colors[u] == 0:
                neighbor_colors[u].add(c)
    return Coloring(tuple(colors))


def naive_k_colorable(g: Graph, k: int) -> Coloring | None:
    """The first coloring of a plain recursive DSATUR backtracking search
    with colors 1..k, or None: the uncolored vertex with the most distinct
    colors on its neighbors goes first, ties by higher degree, then smaller
    id; its colors are tried in ascending order, at most one above the
    largest color used so far; a color fails as soon as some uncolored
    neighbor has all k colors on its neighbors. Every color of every chosen
    vertex is tried: no branch is cut."""
    colors = [0] * g.n
    forbidden: list[set[int]] = [set() for _ in range(g.n)]

    def extend(used: int) -> bool:
        uncolored = [u for u in range(g.n) if not colors[u]]
        if not uncolored:
            return True
        v = min(uncolored, key=lambda u: (-len(forbidden[u]), -g.degree(u), u))
        for c in range(1, min(used + 1, k) + 1):
            if c in forbidden[v]:
                continue
            colors[v] = c
            added = [u for u in g.neighbors(v) if not colors[u] and c not in forbidden[u]]
            for u in added:
                forbidden[u].add(c)
            if all(len(forbidden[u]) < k for u in g.neighbors(v) if not colors[u]) and extend(max(used, c)):
                return True
            for u in added:
                forbidden[u].remove(c)
            colors[v] = 0
        return False

    return Coloring(tuple(colors)) if extend(0) else None


def naive_coloring_digest(coloring: Coloring) -> str:
    """The coloring digest as first defined: each color formatted by str()
    in a generator, joined by commas, and the first 16 hex digits of its
    SHA-256."""
    payload = ",".join(str(c) for c in coloring.colors).encode("ascii")
    return hashlib.sha256(payload).hexdigest()[:16]


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


def reference_sample_top_up(g: Graph, enumerated: list[tuple[int, ...]], max_colors: int,
                            extra_samples: int, seed: int,
                            graph_id: str) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The coloring source's sample top-up under its first dedupe rule: the
    colors of every swept coloring, enumerated ones included, kept in one
    set, and a canonical sample swept when it is not in that set, until
    extra_samples were added or 20 attempts per sample were spent. The
    draws take the harness's seeded rng in the same order. Returns the
    swept colors, enumerated first, and every canonical sample drawn."""
    rng = random.Random(f"{seed}:{graph_id}")
    adj = adjacency_lists(g)
    swept = list(enumerated)
    seen = set(swept)
    drawn: list[tuple[int, ...]] = []
    wanted = len(swept) + extra_samples
    for _ in range(20 * extra_samples):
        if len(swept) == wanted:
            break
        order = list(range(g.n))
        rng.shuffle(order)
        colors = [0] * g.n
        for v in order:
            banned = {colors[u] for u in adj[v]}
            options = [c for c in range(1, max_colors + 1) if c not in banned]
            if not options:
                break
            colors[v] = rng.choice(options)
        else:
            rename: dict[int, int] = {}
            canon = tuple(rename.setdefault(c, len(rename) + 1) for c in colors)
            drawn.append(canon)
            if canon not in seen:
                seen.add(canon)
                swept.append(canon)
    return swept, drawn


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
