"""Numba-compiled twins of the pure-Python search kernels.

Adjacency rows are packed into one int64 bitmask per vertex, so this path
only handles graphs with at most 63 vertices (and for the rainbow search,
at most 63 dense colors); the dispatcher falls back to the pure kernels
otherwise. Semantics match _kernels_py exactly: ascending candidate order,
strict-improvement updates, one budget node per extension, and a rainbow
search that stops at the first path that uses every color.

Without numba, njit is an identity decorator and the kernels run as plain
Python over numpy int64 values. tests/test_oracle.py relies on this to check
the twin contract against _kernels_py on machines that lack numba. Run that
way, _popcount's multiply wraps with a numpy overflow RuntimeWarning once a
color mask reaches past bit 7; the wrapped product is the one the compiled
kernel computes, so the count is unchanged.
"""

from __future__ import annotations

import numpy as np

try:
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:
    # interpreted fallback; the twin-kernel test runs the kernels through it
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        return wrap if not (len(args) == 1 and callable(args[0])) else args[0]


JIT_MAX_VERTICES = 63

_M1 = 0x5555555555555555
_M2 = 0x3333333333333333
_M4 = 0x0F0F0F0F0F0F0F0F
_H01 = 0x0101010101010101


@njit(cache=True)
def _popcount(v):
    # SWAR popcount; inputs never have bit 63 set, so the int64 result of the
    # final multiply stays non-negative and the arithmetic shift is safe
    v = v - ((v >> 1) & _M1)
    v = (v & _M2) + ((v >> 2) & _M2)
    v = (v + (v >> 4)) & _M4
    return (v * _H01) >> 56


@njit(cache=True)
def _bit_index(low):
    idx = 0
    while low > 1:
        low >>= 1
        idx += 1
    return idx


@njit(cache=True)
def longest_induced_path(masks, n, max_nodes):
    best = np.zeros(n, np.int64)
    best_len = 0
    path = np.zeros(n, np.int64)
    closed = np.zeros(n + 1, np.int64)
    cands = np.zeros(n + 1, np.int64)
    nodes = 0
    one = np.int64(1)
    for start in range(n):
        if best_len == 0:
            best[0] = start
            best_len = 1
        depth = 0
        path[0] = start
        closed[0] = one << start
        cands[0] = masks[start]
        while depth >= 0:
            c = cands[depth]
            if c == 0:
                depth -= 1
                continue
            low = c & (-c)
            cands[depth] = c ^ low
            nodes += 1
            if nodes > max_nodes:
                return best_len, best, nodes, True
            x = _bit_index(low)
            new_closed = closed[depth] | masks[path[depth]] | low
            depth += 1
            path[depth] = x
            closed[depth] = new_closed
            cands[depth] = masks[x] & ~new_closed
            if depth + 1 > best_len:
                best_len = depth + 1
                for i in range(best_len):
                    best[i] = path[i]
    return best_len, best, nodes, False


@njit(cache=True)
def longest_induced_rainbow_path(masks, n, colors, max_nodes):
    """Twin of _kernels_py.longest_induced_rainbow_path: it too stops at the
    first path that uses every color (colors are dense 0-based ids)."""
    palette = 0
    for v in range(n):
        if colors[v] + 1 > palette:
            palette = colors[v] + 1
    best = np.zeros(n, np.int64)
    best_len = 0
    path = np.zeros(n, np.int64)
    closed = np.zeros(n + 1, np.int64)
    used = np.zeros(n + 1, np.int64)
    cands = np.zeros(n + 1, np.int64)
    nodes = 0
    one = np.int64(1)
    for start in range(n):
        if best_len == 0:
            best[0] = start
            best_len = 1
            if palette == 1:
                return best_len, best, nodes, False
        depth = 0
        path[0] = start
        closed[0] = one << start
        used[0] = one << colors[start]
        cands[0] = masks[start]
        while depth >= 0:
            c = cands[depth]
            if c == 0:
                depth -= 1
                continue
            low = c & (-c)
            cands[depth] = c ^ low
            x = _bit_index(low)
            if used[depth] >> colors[x] & 1:
                continue
            nodes += 1
            if nodes > max_nodes:
                return best_len, best, nodes, True
            new_closed = closed[depth] | masks[path[depth]] | low
            depth += 1
            path[depth] = x
            closed[depth] = new_closed
            used[depth] = used[depth - 1] | one << colors[x]
            cands[depth] = masks[x] & ~new_closed
            if depth + 1 > best_len:
                best_len = depth + 1
                for i in range(best_len):
                    best[i] = path[i]
                if best_len == palette:
                    return best_len, best, nodes, False
    return best_len, best, nodes, False


@njit(cache=True)
def most_colorful_path_from(masks, n, colors, start, max_nodes):
    best = np.zeros(n, np.int64)
    best[0] = start
    best_len = 1
    best_count = 1
    path = np.zeros(n, np.int64)
    closed = np.zeros(n + 1, np.int64)
    used = np.zeros(n + 1, np.int64)
    cands = np.zeros(n + 1, np.int64)
    nodes = 0
    one = np.int64(1)
    full = (one << n) - one
    depth = 0
    path[0] = start
    closed[0] = one << start
    used[0] = one << colors[start]
    cands[0] = masks[start]
    while depth >= 0:
        c = cands[depth]
        if c == 0:
            depth -= 1
            continue
        low = c & (-c)
        cands[depth] = c ^ low
        nodes += 1
        if nodes > max_nodes:
            return best_len, best, nodes, True
        x = _bit_index(low)
        new_closed = closed[depth] | masks[path[depth]] | low
        new_used = used[depth] | one << colors[x]
        depth += 1
        path[depth] = x
        closed[depth] = new_closed
        used[depth] = new_used
        cands[depth] = masks[x] & ~new_closed
        count = _popcount(new_used)
        if count > best_count or (count == best_count and depth + 1 < best_len):
            best_len = depth + 1
            best_count = count
            for i in range(best_len):
                best[i] = path[i]
        avail = np.int64(0)
        rest = ~new_closed & full
        for v in range(n):
            if rest >> v & 1:
                avail |= one << colors[v]
        if count + _popcount(avail & ~new_used) < best_count:
            depth -= 1
    return best_len, best, nodes, False
