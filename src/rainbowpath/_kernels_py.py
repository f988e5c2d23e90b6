"""Pure-Python search kernels over int bitmask adjacency.

Reference implementations of the hot depth-first searches. They accept
graphs of any size (Python ints are unbounded bitsets) and define the
semantics the JIT kernels must reproduce: candidates are tried in ascending
vertex id, the best result is replaced only on strict improvement, and each
path extension counts one search node against the budget.
"""

from __future__ import annotations

from .graphs import _bits


def longest_induced_path(masks: tuple[int, ...], n: int, max_nodes: int) -> tuple[list[int], int, bool]:
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


def longest_induced_rainbow_path(
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


def most_colorful_path_from(
    masks: tuple[int, ...], n: int, colors: list[int], start: int, max_nodes: int
) -> tuple[list[int], int, bool]:
    """Induced path from a fixed start maximizing distinct colors.

    Ties prefer smaller order, then the lexicographically smallest vertex
    sequence (guaranteed by depth-first enumeration order). Branches whose
    optimistic color bound cannot strictly beat the best count are pruned.
    """
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
        path.append(x)
        closed.append(new_closed)
        used.append(new_used)
        cands.append(masks[x] & ~new_closed)
        count = new_used.bit_count()
        if count > best_count or (count == best_count and len(path) < len(best)):
            best = path.copy()
            best_count = count
        # optimistic bound: colors still visible outside the closed set
        avail = 0
        rest = ~new_closed & ((1 << n) - 1)
        for v in _bits(rest):
            avail |= 1 << colors[v]
        if count + (avail & ~new_used).bit_count() < best_count:
            path.pop()
            closed.pop()
            used.pop()
            cands.pop()
    return best, nodes, False
