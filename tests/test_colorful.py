import dataclasses
import itertools
import json
import random
from pathlib import Path

import pytest

from rainbowpath import (
    ColoredGraph,
    ColorfulStep,
    Coloring,
    SearchBudget,
    build_graph,
    chromatic_number,
    classify_path,
    colorful_path_from,
    connected_components,
    cycle_graph,
    decode_graph6,
    dsatur_coloring,
    induced_subgraph,
    iter_colorings,
    max_colorful_induced_path_from,
    mycielski_iterates,
    random_triangle_free,
)
from rainbowpath import colorful
from rainbowpath.colorful import _graph_facts
from rainbowpath.graphs import GraphError
from rainbowpath.harness import _colorful_pivots

DATA = Path(__file__).parent / "data"


def colors_seen(cg, path):
    return len({cg.color_of(v) for v in path.vertices})


def check_steps(cg, result):
    """Per-record invariants: fan independence, removed color absent from the
    recursive path, assembled paths induced and consistent."""
    from rainbowpath import classify_path

    for st in result.steps:
        for a in st.pivot_fan:
            for b in st.pivot_fan:
                assert a == b or not cg.graph.has_edge(a, b)
        assert all(cg.color_of(u) != st.removed_color for u in st.sub_path)
        assert all(cg.color_of(u) != st.removed_color for u in st.after_removal)
        assert st.assembled[: len(st.approach_path) - 1] == st.approach_path[:-1]
        assert st.assembled[len(st.approach_path) - 1:] == st.sub_path
        assert set(st.second_component) <= set(st.pruned_vertices) <= set(st.chosen_component)
        assert st.pivot not in st.chosen_component
        assert st.bridge in st.pivot_fan
        assert classify_path(cg, st.assembled).is_induced


class TestBaseCases:
    def test_chi_lb_one_returns_start(self, c5, c5_colored):
        result = colorful_path_from(c5_colored, 2, 1)
        assert result.path.vertices == (2,)
        assert result.steps == ()

    def test_chi_lb_two_returns_start(self, k2):
        cg = ColoredGraph(k2, Coloring((1, 2)))
        assert colorful_path_from(cg, 1, 2).path.vertices == (1,)


class TestWorkedExample:
    def test_c5_from_first_vertex(self, c5_colored):
        result = colorful_path_from(c5_colored, 0, 3)
        assert result.path.vertices == (0, 4)
        assert colors_seen(c5_colored, result.path) == 2  # {1, 3} >= ceil(3/2)
        st = result.steps[0]
        assert st.removed_color == 1
        assert st.chosen_component == (3, 4)
        assert st.approach_path == (0, 4)
        assert st.pivot == 0
        assert st.pivot_fan == (4,)
        assert st.second_component == (3,)
        assert st.bridge == 4
        assert st.sub_path == (4,)

    def test_grotzsch_every_start(self, grotzsch):
        chi = chromatic_number(grotzsch).chi
        cg = ColoredGraph(grotzsch, chromatic_number(grotzsch).witness)
        for v in range(grotzsch.n):
            result = colorful_path_from(cg, v, chi)
            report = classify_path(cg, result.path.vertices)
            assert report.is_induced
            assert result.path.vertices[0] == v
            assert report.color_count >= -(-chi // 2)
            check_steps(cg, result)


class TestDisconnected:
    """On C5 + Grotzsch (vertices 0-4 and 5-15) the construction runs in its
    start's component, as it would on that component alone."""

    VERTEX_FIELDS = ("start", "pivot", "bridge")
    NON_VERTEX_FIELDS = ("level", "chi_lb", "removed_color", "recomputed_chi")

    @pytest.fixture(scope="class")
    def g(self, c5, grotzsch):
        return build_graph(16, list(c5.edges()) + [(5 + u, 5 + v) for u, v in grotzsch.edges()])

    @pytest.fixture(scope="class")
    def colorings(self, g):
        return [ColoredGraph(g, chromatic_number(g).witness),
                *itertools.islice(iter_colorings(g, 4), 0, 600, 100)]

    def lift(self, step, up):
        """The step with every vertex id mapped through up."""
        changes = {}
        for f in dataclasses.fields(ColorfulStep):
            value = getattr(step, f.name)
            if f.name in self.VERTEX_FIELDS:
                changes[f.name] = up[value]
            elif f.name not in self.NON_VERTEX_FIELDS:
                changes[f.name] = tuple(up[u] for u in value)
        return dataclasses.replace(step, **changes)

    def test_matches_construction_on_component(self, g, colorings):
        up = tuple(range(5, 16))
        sub = induced_subgraph(g, up)
        for cg in colorings:
            sub_cg = ColoredGraph(sub, Coloring(tuple(cg.coloring.colors[v] for v in up)))
            for start in up:
                whole = colorful_path_from(cg, start, 4)
                alone = colorful_path_from(sub_cg, up.index(start), 4)
                assert whole.path.vertices == tuple(up[u] for u in alone.path.vertices)
                assert whole.steps == tuple(self.lift(st, up) for st in alone.steps)
                assert whole.steps, "chi_lb 4 takes at least one recursion level"

    def test_bound_overstated_for_start_component_rejected(self, g, colorings):
        for cg in colorings:
            for start in range(5):
                with pytest.raises(GraphError, match="exceeds a verifiable upper bound"):
                    colorful_path_from(cg, start, 4)


class TestErrors:
    def test_triangle_rejected(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        cg = ColoredGraph(g, Coloring((1, 2, 3)))
        with pytest.raises(GraphError):
            colorful_path_from(cg, 0, 3)

    def test_overstated_bound_rejected(self, c5, c5_colored):
        with pytest.raises(GraphError, match="exceeds a verifiable upper bound"):
            colorful_path_from(c5_colored, 0, 10)

    def test_bad_start(self, c5_colored):
        with pytest.raises(GraphError):
            colorful_path_from(c5_colored, 9, 2)

    def test_nonpositive_bound_rejected(self, c5_colored):
        with pytest.raises(GraphError, match="chromatic lower bound must be positive"):
            colorful_path_from(c5_colored, 0, 0)


def _grotzsch_plus_c5():
    grotzsch = mycielski_iterates(2)[-1]
    c5 = [(11 + u, 11 + v) for u, v in cycle_graph(5).edges()]
    return build_graph(16, list(grotzsch.edges()) + c5)


class TestDefaultBound:
    """With no bound given, the construction runs at chi(C) for the start's
    component C, exactly as when that bound is passed, and its result holds
    the bound with the count of distinct colors on its path."""

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: decode_graph6("Fhc?G"), id="c5+k2"),
        pytest.param(_grotzsch_plus_c5, id="grotzsch+c5"),
        *(pytest.param(lambda d=d: mycielski_iterates(d)[-1], id=f"mycielski-{d}")
          for d in range(4)),
    ])
    def test_default_is_start_component_chi(self, make):
        g = make()
        chi = chromatic_number(g).chi
        component_chi = {v: chromatic_number(induced_subgraph(g, comp)).chi
                         for comp in connected_components(g) for v in comp}
        colorings = [ColoredGraph(g, dsatur_coloring(g)), *itertools.islice(iter_colorings(g, chi), 20)]
        for cg in colorings:
            for v in range(g.n):
                result = colorful_path_from(cg, v)
                given = colorful_path_from(cg, v, component_chi[v])
                assert (result, result.steps) == (given, given.steps), (cg.coloring, v)
                assert result.chi_lb == component_chi[v]
                assert result.color_count == colors_seen(cg, result.path)


class TestSelfCheck:
    """The construction checks its own path on the adjacency masks: each
    vertex adjacent to the one before it and to none two or more places
    before it, and ceil(chi_lb/2) colors."""

    @pytest.mark.parametrize("path", [
        (0, 3),  # two colors, but 0 and 3 are not adjacent
        (0, 1, 2, 3, 4),  # three colors, but 4 meets 0
        (0,),  # induced, but one color
    ])
    def test_corrupt_level_rejected(self, monkeypatch, c5, c5_colored, path):
        # chi_lb 3 takes one level, whose path is its approach path less its
        # last vertex, then its bridge: a level that yields a path which is
        # not induced, or sees fewer than 2 colors, fails the final check
        facts = _graph_facts(c5)

        def corrupt(active, v, remaining):
            c1, _, fan, c2, _ = facts.level(active, v, remaining)
            return c1, path[:-1] + (None,), fan, c2, path[-1]

        monkeypatch.setattr(colorful, "_graph_facts", lambda g: facts._replace(level=corrupt))
        with pytest.raises(GraphError, match="invalid path"):
            colorful_path_from(c5_colored, 0, 3)


class TestGuaranteeSweep:
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_mycielski_chain_every_vertex(self, depth):
        g = mycielski_iterates(depth)[-1]
        chi = chromatic_number(g).chi
        needed = -(-chi // 2)
        count = 0
        for cg in iter_colorings(g, chi):
            for v in range(g.n):
                result = colorful_path_from(cg, v, chi)
                report = classify_path(cg, result.path.vertices)
                assert report.is_induced and result.path.vertices[0] == v
                assert report.color_count >= needed
                check_steps(cg, result)
            count += 1
            if count >= 5:
                break

    @pytest.mark.parametrize("seed", range(15))
    def test_random_connected_graphs(self, seed):
        rng = random.Random(seed)
        g = random_triangle_free(rng.randint(2, 12), rng.uniform(0.3, 0.7), seed)
        from rainbowpath import connected_components

        if len(connected_components(g)) != 1:
            return
        chi = chromatic_number(g).chi
        cg = ColoredGraph(g, dsatur_coloring(g))
        needed = -(-chi // 2)
        for v in range(g.n):
            result = colorful_path_from(cg, v, chi)
            report = classify_path(cg, result.path.vertices)
            assert report.is_induced and result.path.vertices[0] == v
            assert report.color_count >= needed
            check_steps(cg, result)

    @pytest.mark.parametrize("seed", range(8))
    def test_oracle_dominates_construction(self, seed):
        rng = random.Random(1000 + seed)
        g = random_triangle_free(10, 0.45, seed=1000 + seed)
        from rainbowpath import connected_components

        if len(connected_components(g)) != 1:
            return
        chi = chromatic_number(g).chi
        cg = ColoredGraph(g, dsatur_coloring(g))
        for v in range(g.n):
            constructed = colorful_path_from(cg, v, chi)
            oracle = max_colorful_induced_path_from(cg, v, SearchBudget(on_exceed="flag"))
            assert colors_seen(cg, constructed.path) <= colors_seen(cg, oracle.path)

    @pytest.mark.parametrize("depth", [2, 3])
    def test_oracle_dominates_construction_on_benchmark_graphs(self, depth):
        # Grotzsch and Mycielski-3 under the chromatic_number witness: the
        # exact search sees at least the construction's colors, and at least
        # the ceil(chi/2) that the paper's theorem promises
        g = mycielski_iterates(depth)[-1]
        result = chromatic_number(g)
        cg = ColoredGraph(g, result.witness)
        needed = -(-result.chi // 2)
        for v in range(g.n):
            constructed = colorful_path_from(cg, v, result.chi)
            oracle = max_colorful_induced_path_from(cg, v)
            assert oracle.exact and oracle.path.vertices[0] == v
            assert colors_seen(cg, oracle.path) >= colors_seen(cg, constructed.path)
            assert colors_seen(cg, oracle.path) >= needed


class TestLazyTrace:
    """The trace is built from the levels on first read, audit chi included:
    each recursed subgraph's exact chi, taken from the memo of the graph the
    result was built on. It is built once, and neither it nor that graph
    takes part in equality, hashing or repr."""

    def test_audit_records_chi(self, grotzsch):
        cg = ColoredGraph(grotzsch, chromatic_number(grotzsch).witness)
        result = colorful_path_from(cg, 0, 4)
        assert result.steps
        for st in result.steps:
            assert st.recomputed_chi >= st.chi_lb - 2

    @pytest.mark.parametrize("depth", [2, 3])
    def test_audit_chi_matches_recursed_subgraph(self, depth):
        g = mycielski_iterates(depth)[-1]
        chi = chromatic_number(g).chi
        colorings = [ColoredGraph(g, dsatur_coloring(g)), *itertools.islice(iter_colorings(g, chi), 20)]
        for cg in colorings:
            for start in range(g.n):
                result = colorful_path_from(cg, start, chi)
                assert result.steps
                for st in result.steps:
                    sub = induced_subgraph(g, st.recursed_vertices)
                    assert st.recomputed_chi == chromatic_number(sub).chi
                assert result.steps is result.steps
                again = colorful_path_from(cg, start, chi)
                assert again == result and hash(again) == hash(result)
                assert repr(again) == repr(result) and "graph" not in repr(result)

    def test_steps_read_after_another_graph(self, c5_colored, grotzsch):
        # the memo holds only the latest graph's facts: a Grotzsch result
        # whose steps are first read after a build on C5 equals a cold build
        cg = ColoredGraph(grotzsch, chromatic_number(grotzsch).witness)
        results = [colorful_path_from(cg, start, 4) for start in range(grotzsch.n)]
        for start, result in enumerate(results):
            colorful_path_from(c5_colored, 0, 3)
            warm = result.steps
            for st in warm:
                sub = induced_subgraph(grotzsch, st.recursed_vertices)
                assert st.recomputed_chi == chromatic_number(sub).chi
            _graph_facts.cache_clear()
            assert warm == colorful_path_from(cg, start, 4).steps


class TestTraceIdentity:
    """Full traces, every ColorfulStep field with the audit chi, frozen from
    the construction as it stood before its recursion moved to vertex
    bitmasks: Grotzsch and Mycielski-3 under three enumerated optimal
    colorings each (indices 0, 173, 519 and 0, 400, 999), from every start
    vertex."""

    @pytest.fixture(scope="class")
    def frozen(self):
        return json.loads((DATA / "colorful_traces.json").read_text(encoding="ascii"))

    def test_fields_cover_every_step_field(self, frozen):
        assert frozen["fields"] == [f.name for f in dataclasses.fields(ColorfulStep)]

    def test_steps_identical(self, frozen):
        graphs = {"grotzsch": mycielski_iterates(2)[-1], "mycielski3": mycielski_iterates(3)[-1]}
        assert len(frozen["cases"]) == 3 * 11 + 3 * 23
        for case in frozen["cases"]:
            cg = ColoredGraph(graphs[case["graph"]], Coloring(tuple(case["colors"])))
            result = colorful_path_from(cg, case["start"], case["chi"])
            # a JSON round trip turns the tuples into the lists that were frozen
            got = json.loads(json.dumps(
                [list(result.path.vertices), [dataclasses.astuple(st) for st in result.steps]]
            ))
            assert got == [case["path"], case["steps"]], (case["graph"], case["colors"], case["start"])


class TestLevelMemo:
    """A level is memoized per graph by its active set, start vertex and the
    set left once the start's color is removed: a build on facts warmed by
    other colorings, starts and graphs equals a build on cold facts, and the
    sweep's colorings share their levels."""

    def assert_warm_matches_cold(self, cases):
        """cases: (ColoredGraph, start, chi) triples, built in order on
        facts left warm by the triples before them."""
        _graph_facts.cache_clear()
        warm = [colorful_path_from(cg, start, chi) for cg, start, chi in cases]
        for result, (cg, start, chi) in zip(warm, cases):
            _graph_facts.cache_clear()
            cold = colorful_path_from(cg, start, chi)
            assert (result.path, result.levels) == (cold.path, cold.levels), (cg.coloring, start)
            assert result.steps == cold.steps

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_warm_matches_cold_on_mycielski_iterates(self, depth):
        g = mycielski_iterates(depth)[-1]
        chi = chromatic_number(g).chi
        colorings = [ColoredGraph(g, dsatur_coloring(g)),
                     *itertools.islice(iter_colorings(g, chi), 0, 1000, 50)]
        self.assert_warm_matches_cold(
            [(cg, start, chi) for cg in colorings for start in range(g.n)])

    @pytest.mark.parametrize("i", range(32))
    def test_warm_matches_cold_on_random_thorough_graphs(self, i):
        # the random-thorough benchmark's seed-0 graphs at --delta 1, from
        # every pivot that its --thorough sweep starts from
        if i < 30:
            g = random_triangle_free(18, 0.3, seed=i)
        else:
            g = mycielski_iterates(2)[-1] if i == 30 else _grotzsch_plus_c5()
        chi = chromatic_number(g).chi
        pivots = _colorful_pivots(g, chi, thorough=True)
        self.assert_warm_matches_cold(
            [(cg, start, chi)
             for cg in itertools.islice(iter_colorings(g, chi + 1), 0, 20, 4)
             for start in pivots])

    def test_graph_switches(self, c5, grotzsch):
        # A, B, then A again: the facts of one graph never serve another
        def cases(g):
            chi = chromatic_number(g).chi
            return [(cg, start, chi)
                    for cg in itertools.islice(iter_colorings(g, chi), 0, 100, 20)
                    for start in range(g.n)]

        self.assert_warm_matches_cold(cases(grotzsch) + cases(c5) + cases(grotzsch))

    def test_key_holds_the_active_set(self):
        # the approach path runs inside the active set: on C7, from 0 to the
        # component {3, 4} of the same remaining set, it goes round whichever
        # side of the cycle is active
        level = _graph_facts(cycle_graph(7)).level
        remaining = 1 << 3 | 1 << 4
        assert level(0b1111001, 0, remaining)[1] == (0, 6, 5, 4)
        assert level(0b0011111, 0, remaining)[1] == (0, 1, 2, 3)

    @pytest.mark.parametrize("depth, colorings, levels, entries", [
        (1, 5, 5, 3), (2, 520, 520, 19), (3, 1000, 2000, 16),
    ])
    def test_sweep_reuses_levels(self, depth, colorings, levels, entries):
        # the sweep's colorings of C5, Grotzsch and Mycielski-3 from pivot 0:
        # thousands of levels on a few distinct level inputs
        g = mycielski_iterates(depth)[-1]
        chi = chromatic_number(g).chi
        _graph_facts.cache_clear()
        built = 0
        for cg in itertools.islice(iter_colorings(g, chi), 1000):
            colorful_path_from(cg, 0, chi)
            built += 1
        info = _graph_facts(g).level.cache_info()
        assert (built, info.hits + info.misses, info.currsize) == (colorings, levels, entries)
