"""Exact and heuristic proper coloring: chromatic number, optimal witnesses,
and canonical enumeration of proper colorings.

The exact solver decides k-colorability for k upward from the bound its
certificate proves, 3 with an odd cycle, else 2 with an edge, and the first
colorable k is chi: every smaller k was refuted by an exhaustive search, so
chi is proved optimal. Each k-colorability search is a backtracking DSATUR
search with a fixed contract: the uncolored vertex with the most forbidden
colors goes first, then higher degree, then smaller id; colors are tried in
ascending order, and a vertex may open at most one fresh color; a branch
fails as soon as some uncolored neighbor has all k colors forbidden. When
a branch fails under a color that was free for its vertex (every uncolored
neighbor already had it forbidden), the vertex's other colors are not
tried: any coloring with another color there stays proper with the free
one. The witness is the first coloring this search finds, and the cut
gives up only branches that hold none. Saturations are kept as
thermometer planes of vertex bitmasks, all in one int, so each color tried
costs O(1) int operations, whatever k or the degree. The search runs on an
explicit stack, not by recursion; at k = n its first descent is the greedy
DSATUR coloring, dsatur_coloring.

The exact search refuses graphs above MAX_VERTICES vertices. Results are
memoized per graph, for the latest 1,024 graphs; Graph is immutable and
hashable, which makes the cache safe. The cap keeps memory flat on long
corpora. The cache is not scoped to the graph in hand: the colorful
construction asks for chi of the same tiny subgraphs (n <= 5) on every
graph, and a one-graph cache would recompute them each time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

from .graphs import (ColoredGraph, Coloring, Graph, GraphError, _bits, _layers,
                     _proved_colored_graph, _walk_back)


MAX_VERTICES = 64


class TooLargeError(GraphError):
    """Graph exceeds MAX_VERTICES, the cap for exact chromatic search."""


@dataclass(frozen=True)
class ChromaticResult:
    """Exact chromatic number with an optimal witness coloring.

    lower_bound_certificate is ("odd_cycle", vertices) when g has an odd
    cycle, which proves chi >= 3; else ("clique", (u, v)), g's first edge in
    Graph.edges order, when g has an edge, which proves chi >= 2; else None.
    """

    chi: int
    witness: Coloring
    lower_bound_certificate: tuple[str, tuple[int, ...]] | None = None


def dsatur_coloring(g: Graph) -> Coloring:
    """Greedy DSATUR coloring: highest saturation first, ties by degree then id.

    Deterministic; palette size is an upper bound on chi(g). It is the first
    descent of _k_colorable(g, n): no saturation reaches n and the fresh
    color is never forbidden, so it never backtracks.
    """
    return _k_colorable(g, g.n)


def _odd_cycle(g: Graph) -> tuple[int, ...] | None:
    """An odd cycle witnessing non-bipartiteness, or None if g is bipartite.

    Each component is searched breadth-first from its smallest vertex. The
    cycle is closed by the first vertex, in layer order and then by id, with
    a neighbor in its own layer, and by its smallest such neighbor. Both are
    walked back to the root by graphs._walk_back, one rule at the same depth
    each step, so once the walks meet they stay together. The cycle runs
    from the first vertex up its walk to the last vertex the walks share
    and down the other walk to its neighbor.
    """
    unseen = (1 << g.n) - 1
    while unseen:
        layers: list[int] = []
        for layer in _layers(g.masks, unseen, unseen & -unseen):
            for v in _bits(layer):
                same = g.masks[v] & layer
                if same:
                    left = _walk_back(layers + [1 << v], g.masks)
                    right = _walk_back(layers + [same & -same], g.masks)
                    k = next(i for i, (a, b) in enumerate(zip(left, right)) if a != b)
                    return left[k - 1:][::-1] + right[k:]
            layers.append(layer)
            unseen &= ~layer
    return None


def _k_colorable(g: Graph, k: int) -> Coloring | None:
    """A proper coloring of g with colors 1..k, or None if there is none.

    Backtracking with DSATUR vertex choice (Brelaz 1979). The search
    contract, which tests/test_chromatic.py::TestFrozenColorability pins:

    - the next vertex is the uncolored one with the most forbidden colors
      (colors on colored neighbors), then higher degree, then smaller id;
    - its colors are tried in ascending order, and it may open at most one
      fresh color (one above the largest color used so far), so no two
      branches differ by a renaming of colors;
    - a branch fails as soon as some uncolored neighbor has all k colors
      forbidden;
    - when the branch under v = c fails and c was free for v (every
      uncolored neighbor of v already had c forbidden), v's later colors
      are not tried and the search backs up past v: a coloring with v = c'
      stays proper with v recolored c, and the branch under c holds every
      coloring with v = c up to a renaming of the colors not yet used, so
      there is none. Only branches without a coloring are cut.

    The first coloring found is returned. Vertices are relabelled once by
    their static rank (-degree, id), and all state is rank bitmasks:
    forbid[c] holds the uncolored vertices with a neighbor colored c, and
    the saturations are thermometer planes in one int, sat: plane j, at
    bits (j - 1)n .. jn - 1, holds the vertices with at least j colors
    forbidden. Coloring v with c raises the vertices it newly forbids c to,
    new, by one plane: lifted = sat << n | full moves every plane up one
    and fills plane 1 with every vertex, so c is a wipeout when new meets
    plane k of lifted, and otherwise sat gains lifted & new * rep, where
    rep copies new into each plane. The planes stop at
    min(k - 1, max degree), since no saturation passes its vertex's degree:
    when they stop below k - 1, plane k of lifted lies above them and reads
    0, and rightly so, as no vertex can have k colors forbidden. The next
    vertex is the lowest rank in the highest plane, from min(used, planes)
    down, that meets the uncolored mask, since no saturation exceeds the
    colors used. Each color tried costs O(1) int operations, whatever k or
    deg v.

    It all runs in one loop over an explicit stack of frames (v, used,
    uncolored, sat, c, new): v, chosen in state (used, uncolored, sat),
    took color c and newly forbade it to new. Backtracking pops frames until
    one has new != 0 (new == 0 is exactly a free color), undoes
    forbid[c] |= new for it and tries c + 1.
    """
    n = g.n
    if n == 0:
        return Coloring(())
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    rank = {v: r for r, v in enumerate(order)}
    nbr = [sum(1 << rank[u] for u in _bits(g.masks[v])) for v in order]
    colors = [0] * n
    forbid = [0] * (k + 1)
    full = (1 << n) - 1
    # no saturation passes the top degree, so planes above it would stay empty
    planes = min(k - 1, g.degree(order[0]))
    rep = sum(1 << j * n for j in range(planes))
    wipe = (k - 1) * n
    # downs[j] shifts plane j, then each plane below it, to the bottom
    downs = [range((j - 1) * n, -1, -n) for j in range(planes + 1)]
    # every saturation is 0, so the first choice is rank 0
    v, used, uncolored, sat, c = 0, 0, full ^ 1, 0, 0
    stack: list[tuple[int, int, int, int, int, int]] = []
    while True:
        bit = 1 << v
        around = nbr[v] & uncolored
        last = used + 1 if used < k else k  # min() here costs about 15% of the search
        while c < last:
            c += 1
            if forbid[c] & bit:
                continue
            new = around & ~forbid[c]
            lifted = sat << n | full
            if new & lifted >> wipe:
                continue  # wipeout: c was the last color some vertex of new had
            colors[v] = c
            if not uncolored:
                return Coloring(tuple(colors[rank[u]] for u in range(n)))
            forbid[c] |= new
            stack.append((v, used, uncolored, sat, c, new))
            sat |= lifted & new * rep
            if c > used:
                used = c
            for shift in downs[used if used < planes else planes]:
                top = sat >> shift & uncolored
                if top:
                    break
            else:
                top = uncolored
            top &= -top
            v, uncolored, c = top.bit_length() - 1, uncolored ^ top, 0
            break
        else:
            # a frame with new == 0 took a free color, and its branch failed:
            # so do its vertex's other colors, and forbid needs no undo
            while True:
                if not stack:
                    return None
                v, used, uncolored, sat, c, new = stack.pop()
                if new:
                    break
            forbid[c] ^= new


def chromatic_number(g: Graph) -> ChromaticResult:
    """Exact chromatic number with optimal witness, proved by k-colorability search.

    Raises TooLargeError if g has more than MAX_VERTICES vertices. The result
    is cached per graph, however the call is spelled. Every graph takes one
    path: k runs upward from the bound of the certificate, 3 with an odd
    cycle, else 2 with an edge, else min(n, 1), and the first k at which
    _k_colorable finds a coloring is chi, with that coloring as witness. So
    the empty graph gets chi = 0 with an empty witness, an edgeless graph
    chi = 1 with every color 1; neither has a certificate. Wherever DSATUR
    uses chi colors, the witness is DSATUR's own coloring: at k = chi no
    saturation reaches chi on DSATUR's descent (or DSATUR would need color
    chi + 1), so the search never backs up and takes that same descent.
    """
    if g.n > MAX_VERTICES:
        raise TooLargeError(f"{g.n} vertices is too large for exact search (cap {MAX_VERTICES})")
    return _chromatic_number(g)


@functools.lru_cache(maxsize=1_024)
def _chromatic_number(g: Graph) -> ChromaticResult:
    cycle = _odd_cycle(g)
    certificate: tuple[str, tuple[int, ...]] | None
    if cycle is not None:
        k, certificate = 3, ("odd_cycle", cycle)
    elif g.edge_count:
        k, certificate = 2, ("clique", next(g.edges()))
    else:
        k, certificate = min(g.n, 1), None
    while True:
        witness = _k_colorable(g, k)
        if witness is not None:
            return ChromaticResult(k, witness, certificate)
        k += 1


# The cache statistics of chromatic_number are those of the per-graph cache.
chromatic_number.cache_info = _chromatic_number.cache_info  # type: ignore[attr-defined]


def canonical_form(coloring: Coloring) -> Coloring:
    """Rename colors by first occurrence along vertex id order (1, 2, ...)."""
    rename: dict[int, int] = {}
    out = []
    for c in coloring.colors:
        if c not in rename:
            rename[c] = len(rename) + 1
        out.append(rename[c])
    return Coloring(tuple(out))


def iter_colorings(g: Graph, max_colors: int) -> Iterator[ColoredGraph]:
    """Stream the canonical proper colorings of g using at most max_colors
    colors, each as a ColoredGraph of g with its class table.

    Canonical means colors are named by first occurrence along vertex order,
    so no two emitted colorings are color permutations of each other. Emission
    order is lexicographic over vertex-id-ordered assignments.

    One loop over the vertices, forward to color and back to retry, with no
    recursion: color c is free for v when lower[v] & members[c] is empty,
    where lower[v] masks v's smaller neighbors and members[c] the vertices
    colored c, and used[v] is the largest color among vertices before v.
    That test is the properness proof, and members is the class table: a
    canonical coloring uses colors 1..used[n] in order of first occurrence,
    the order graphs._proper_classes keys its table in. So each coloring is
    emitted without a second properness pass. max_colors is capped at n,
    which no coloring of n vertices exceeds, so the tables stay O(n); the
    empty graph's one coloring uses 0 colors.
    """
    if max_colors < 0:
        return
    n = g.n
    max_colors = min(max_colors, n)
    lower = [g.masks[v] & ((1 << v) - 1) for v in range(n)]
    members = [0] * (max_colors + 1)
    colors = [0] * n
    used = [0] * (n + 1)
    v = 0
    while v >= 0:
        if v == n:
            classes = dict(enumerate(members[1:used[n] + 1], 1))
            yield _proved_colored_graph(g, Coloring(tuple(colors)), classes)
            v -= 1
            continue
        c = colors[v]
        if c:
            members[c] ^= 1 << v
        last = used[v] + 1 if used[v] < max_colors else max_colors  # faster than min()
        c += 1
        while c <= last and lower[v] & members[c]:
            c += 1
        if c > last:
            colors[v] = 0
            v -= 1
        else:
            colors[v] = c
            members[c] |= 1 << v
            used[v + 1] = c if c > used[v] else used[v]
            v += 1
