"""Host-speed probe: a thread that times a fixed chunk of pure-Python work
beside the code being measured, in the same process and on the same CPU.

On a shared host the program's speed drifts by up to half over seconds to
minutes, and a chunk timed at the same moment on the same CPU slows with it
(README.md, Noise). run.py divides each measured interval by the chunk's
mean time over that interval, in units of REFERENCE_CHUNK_S.

The chunk is breadth-first search over a fixed random graph: dict, set and
list work like the library's, but none of the library's code, so no change
to rainbowpath can move it. Each chunk takes about half a millisecond and
one runs every PERIOD_S, which costs the measured code about 2%.
"""

from __future__ import annotations

import random
import threading
import time

# The chunk's time on the reference host, a 2-vCPU shared Intel Xeon with
# Python 3.11 running fast; an interval of t wall seconds during which the
# chunk took c seconds on average is t * REFERENCE_CHUNK_S / c reference
# seconds.
REFERENCE_CHUNK_S = 0.0005
PERIOD_S = 0.025
VERTICES = 400
DEGREE = 6
SOURCES = 3


def fixed_graph() -> list[list[int]]:
    rng = random.Random(20240601)
    adj: list[list[int]] = [[] for _ in range(VERTICES)]
    for u in range(VERTICES):
        for v in rng.sample(range(VERTICES), DEGREE // 2):
            if v != u and v not in adj[u]:
                adj[u].append(v)
                adj[v].append(u)
    return adj


def chunk(adj: list[list[int]]) -> int:
    """Breadth-first search from SOURCES fixed vertices; returns a checksum."""
    total = 0
    for source in range(SOURCES):
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        total += sum(dist.values())
    return total


class Sampler:
    """Times one chunk every PERIOD_S on a daemon thread until stopped."""

    def __init__(self) -> None:
        self.adj = fixed_graph()
        self.expected = chunk(self.adj)
        self.times: list[float] = []
        self.wrong = 0
        self.done = threading.Event()
        self.thread = threading.Thread(target=self._run, name="host-probe", daemon=True)

    def _run(self) -> None:
        while not self.done.wait(PERIOD_S):
            begun = time.perf_counter()
            result = chunk(self.adj)
            self.times.append(time.perf_counter() - begun)
            self.wrong += result != self.expected

    def start(self) -> None:
        self.thread.start()

    def lap(self) -> dict:
        """Mean chunk time and chunk count since start or the last lap."""
        times, self.times = self.times, []
        mean = sum(times) / len(times) if times else None
        return {"chunk_s": mean, "chunks": len(times)}

    def stop(self) -> None:
        self.done.set()
        self.thread.join()
        if self.wrong:
            raise RuntimeError("the host-speed probe's chunk gave a wrong result")
