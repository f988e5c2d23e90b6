import pytest

import rainbowpath.colorful
from rainbowpath import (
    ColoredGraph,
    Coloring,
    build_graph,
    chromatic_number,
    cycle_graph,
    dsatur_coloring,
    mycielski_iterates,
    petersen_graph,
)
from rainbowpath.colorful import _graph_facts


@pytest.fixture(scope="session")
def c5():
    return cycle_graph(5)


@pytest.fixture(scope="session")
def c5_colored(c5):
    return ColoredGraph(c5, Coloring((1, 2, 1, 2, 3)))


@pytest.fixture(scope="session")
def petersen():
    return petersen_graph()


@pytest.fixture(scope="session")
def grotzsch():
    # second Mycielski iterate of K2: 11 vertices, chromatic number 4
    return mycielski_iterates(2)[-1]


@pytest.fixture(scope="session")
def k2():
    return build_graph(2, [(0, 1)])


@pytest.fixture
def corrupted_level_memo(monkeypatch):
    """A level memo whose approach path has only the start, so the
    construction's final check raises on any graph that takes a level
    (Grotzsch, chi 4, takes one; K2, chi 2, takes none)."""
    def corrupted(g):
        real = _graph_facts(g)

        def level(active, v, remaining):
            c1, _, fan, c2, _ = real.level(active, v, remaining)
            return c1, (None,), fan, c2, v

        return real._replace(level=level)

    monkeypatch.setattr(rainbowpath.colorful, "_graph_facts", corrupted)


def optimally_colored(g) -> ColoredGraph:
    return ColoredGraph(g, chromatic_number(g).witness)


def greedy_colored(g) -> ColoredGraph:
    return ColoredGraph(g, dsatur_coloring(g))
