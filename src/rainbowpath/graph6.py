"""Bit-exact graph6 encoding and decoding plus corpus-file helpers.

graph6 packs the upper adjacency triangle column-major into 6-bit groups,
each offset by 63 into the printable range. Corpus files hold one graph6
string per line; '#'-prefixed lines are comments.
"""

from __future__ import annotations

from pathlib import Path as FilePath
from string import whitespace
from typing import Iterator

from .graphs import Graph, GraphError

HEADER = ">>graph6<<"


class Graph6Error(GraphError):
    """Malformed graph6 input."""


def _encode_size(n: int) -> str:
    if n < 0:
        raise Graph6Error("negative vertex count")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        groups = [(n >> 12) & 63, (n >> 6) & 63, n & 63]
        return "~" + "".join(chr(g + 63) for g in groups)
    if n <= 68719476735:
        groups = [(n >> shift) & 63 for shift in (30, 24, 18, 12, 6, 0)]
        return "~~" + "".join(chr(g + 63) for g in groups)
    raise Graph6Error(f"vertex count {n} exceeds graph6 limits")


def _decode_size(text: str) -> tuple[int, str]:
    if not text:
        raise Graph6Error("empty graph6 string")
    if text[0] != "~":
        return ord(text[0]) - 63, text[1:]
    if len(text) >= 2 and text[1] == "~":
        digits, rest = text[2:8], text[8:]
        if len(digits) != 6:
            raise Graph6Error("truncated 36-bit size field")
    else:
        digits, rest = text[1:4], text[4:]
        if len(digits) != 3:
            raise Graph6Error("truncated 18-bit size field")
    n = 0
    for ch in digits:
        n = n << 6 | (ord(ch) - 63)
    return n, rest


def encode_graph6(g: Graph) -> str:
    """Canonical graph6 string; decode(encode(g)) == g."""
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for k in range(0, len(bits), 6):
        group = 0
        for b in bits[k: k + 6]:
            group = group << 1 | b
        body.append(chr(group + 63))
    return _encode_size(g.n) + "".join(body)


def decode_graph6(text: str) -> Graph:
    """Decode one graph6 line (optional >>graph6<< header allowed).

    Raises Graph6Error on illegal bytes, wrong body length, or nonzero
    padding bits.
    """
    text = text.strip(whitespace)
    if text.startswith(HEADER):
        text = text[len(HEADER):]
    for ch in text:
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"illegal graph6 byte {ord(ch)}")
    n, body = _decode_size(text)
    if n < 0:
        raise Graph6Error("negative vertex count")
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise Graph6Error(f"body has {len(body)} bytes, expected {expected} for n={n}")
    bits = []
    for ch in body:
        group = ord(ch) - 63
        bits.extend((group >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise Graph6Error("nonzero padding bits")
    masks = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
            idx += 1
    return Graph(n, tuple(masks))


def iter_corpus(path: str | FilePath) -> Iterator[tuple[int, str]]:
    """Yield (line_number, graph6_text) for each non-comment corpus line.

    Read as latin-1, which maps each byte to the character of the same
    code, so a non-ASCII byte reaches decode_graph6 and is reported there
    as an illegal graph6 byte instead of failing the whole read. Only ASCII
    whitespace is stripped, here and there: str.strip() alone would also
    take the bytes 0x85 and 0xa0.
    """
    with open(path, "r", encoding="latin-1") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip(whitespace)
            if not line or line.startswith("#"):
                continue
            yield lineno, line


def write_corpus(path: str | FilePath, graphs: Iterator[Graph] | list[Graph]) -> int:
    """Write one graph6 line per graph; returns the number written."""
    count = 0
    with open(path, "w", encoding="ascii") as handle:
        for g in graphs:
            handle.write(encode_graph6(g) + "\n")
            count += 1
    return count
