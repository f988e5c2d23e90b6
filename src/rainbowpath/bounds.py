"""Exact arbitrary-precision evaluation of the guarantee-threshold formulas.

For a target path order s >= 3 the scheme needs a class-size threshold
r(s) = 4*(s-1)^(2(s-1)), a weight sequence w_s = 0, w_j = w_{j+1}*r + 1,
and the chromatic threshold c(s) = (w_1 + 1)*r. Everything is computed in
exact integers; the weight recurrence telescopes to the geometric sum
w_1 = (r^(s-1) - 1)/(r - 1), which the tests check against the recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass


class BoundsError(ValueError):
    pass


@dataclass(frozen=True)
class BoundsParameters:
    """Exact threshold values for one target order s.

    w holds (w_s, ..., w_1) in that order, matching the recurrence's
    downward index.
    """

    s: int
    r: int
    w: tuple[int, ...]
    c: int


def compute_bounds(s: int) -> BoundsParameters:
    """Exact r, weight sequence, and chromatic threshold c for order s >= 3."""
    if s < 3:
        raise BoundsError(f"bounds are defined for s >= 3, got {s}")
    # 4 * 2^(2(s-1)log2(s-1)) == 4 * (s-1)^(2(s-1)), kept exact
    r = 4 * (s - 1) ** (2 * (s - 1))
    w = [0]
    for _ in range(s - 1):
        w.append(w[-1] * r + 1)
    c = (w[-1] + 1) * r
    return BoundsParameters(s=s, r=r, w=tuple(w), c=c)


def guaranteed_length(chi: int) -> int:
    """Largest s such that every properly colored triangle-free graph with
    chromatic number chi is guaranteed an induced rainbow path on s vertices.

    s = 1 for chi >= 1 and s = 2 for chi >= 2 (an edge already gives a
    2-vertex induced rainbow path); for s >= 3 the guarantee applies while
    chi exceeds the threshold c(s).
    """
    if chi < 1:
        raise BoundsError(f"chromatic number must be positive, got {chi}")
    if chi < 2:
        return 1
    s = 3
    while chi > compute_bounds(s).c:
        s += 1
    return s - 1
