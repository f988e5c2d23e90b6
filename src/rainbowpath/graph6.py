"""Bit-exact graph6 encoding and decoding plus corpus-file helpers.

graph6 (McKay, https://users.cecs.anu.edu.au/~bdm/data/formats.txt) is a
size field followed by the upper adjacency triangle, column by column, each
column smallest row first. One packing, _pack, writes both as 6-bit groups,
each offset by 63 into the printable range and zero-padded at the end; the
decoder reads both back with its one inverse, _unpack. The size field takes
one of three forms, the rows of _SIZE_FORMS: the encoder takes the first
that holds n, the decoder the one its prefix names. Corpus files hold one
graph6 string per line; '#'-prefixed lines are comments.
"""

from __future__ import annotations

from pathlib import Path as FilePath
from string import whitespace
from typing import Iterator

from .graphs import Graph, GraphError, _bits

HEADER = ">>graph6<<"

# (prefix, 6-bit digits, largest n) of each size form
_SIZE_FORMS = (("", 1, 62), ("~", 3, 258047), ("~~", 6, 68719476735))


class Graph6Error(GraphError):
    """Malformed graph6 input."""


def _pack(bits: str) -> str:
    """A bit string as 6-bit groups offset by 63, zero-padded at the end."""
    bits += "0" * (-len(bits) % 6)
    return "".join(chr(int(bits[k:k + 6], 2) + 63) for k in range(0, len(bits), 6))


def _unpack(chars: str) -> str:
    """The bit string that _pack wrote as chars."""
    return "".join(format(ord(ch) - 63, "06b") for ch in chars)


def encode_graph6(g: Graph) -> str:
    """Canonical graph6 string; decode(encode(g)) == g."""
    prefix, digits, _ = next(form for form in _SIZE_FORMS if g.n <= form[2])
    body = "".join(format(g.masks[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, g.n))
    return prefix + _pack(format(g.n, f"0{6 * digits}b")) + _pack(body)


def decode_graph6(text: str) -> Graph:
    """Decode one graph6 line (optional >>graph6<< header allowed).

    Raises Graph6Error on illegal bytes, an empty string, a truncated size
    field, wrong body length, or nonzero padding bits, checked in that order.
    """
    text = text.strip(whitespace)
    if text.startswith(HEADER):
        text = text[len(HEADER):]
    for ch in text:
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"illegal graph6 byte {ord(ch)}")
    if not text:
        raise Graph6Error("empty graph6 string")
    prefix, digits, _ = _SIZE_FORMS[text.startswith("~") + text.startswith("~~")]
    size = text[len(prefix):len(prefix) + digits]
    if len(size) != digits:
        raise Graph6Error(f"truncated {6 * digits}-bit size field")
    n = int(_unpack(size), 2)
    body = text[len(prefix) + digits:]
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise Graph6Error(f"body has {len(body)} bytes, expected {expected} for n={n}")
    bits = _unpack(body)
    if "1" in bits[nbits:]:
        raise Graph6Error("nonzero padding bits")
    masks = [0] * n
    for j in range(1, n):
        column = int(bits[j * (j - 1) // 2:j * (j + 1) // 2][::-1], 2)
        masks[j] |= column
        for i in _bits(column):
            masks[i] |= 1 << j
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
