import dataclasses
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
    dsatur_coloring,
    iter_colorings,
    max_colorful_induced_path_from,
    mycielski_iterates,
    random_triangle_free,
)
from rainbowpath.graphs import GraphError

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


class TestErrors:
    def test_disconnected_rejected(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        cg = ColoredGraph(g, Coloring((1, 2, 1, 2)))
        with pytest.raises(GraphError):
            colorful_path_from(cg, 0, 2)

    def test_triangle_rejected(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        cg = ColoredGraph(g, Coloring((1, 2, 3)))
        with pytest.raises(GraphError):
            colorful_path_from(cg, 0, 3)

    def test_overstated_bound_rejected(self, c5, c5_colored):
        with pytest.raises(GraphError):
            colorful_path_from(c5_colored, 0, 10)

    def test_bad_start(self, c5_colored):
        with pytest.raises(GraphError):
            colorful_path_from(c5_colored, 9, 2)


class TestGuaranteeSweep:
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_mycielski_chain_every_vertex(self, depth):
        g = mycielski_iterates(depth)[-1]
        chi = chromatic_number(g).chi
        needed = -(-chi // 2)
        count = 0
        for coloring in iter_colorings(g, chi):
            cg = ColoredGraph(g, coloring)
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


class TestStrictMode:
    def test_audit_records_chi(self, grotzsch):
        cg = ColoredGraph(grotzsch, chromatic_number(grotzsch).witness)
        result = colorful_path_from(cg, 0, 4, strict=True)
        for st in result.steps:
            assert st.recomputed_chi is not None
            assert st.recomputed_chi >= st.chi_lb - 2


class TestTraceIdentity:
    """Full strict-mode traces, every ColorfulStep field, frozen from the
    construction as it stood before its recursion moved to vertex bitmasks:
    Grotzsch and Mycielski-3 under three enumerated optimal colorings each
    (indices 0, 173, 519 and 0, 400, 999), from every start vertex."""

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
            result = colorful_path_from(cg, case["start"], case["chi"], strict=True)
            # a JSON round trip turns the tuples into the lists that were frozen
            got = json.loads(json.dumps(
                [list(result.path.vertices), [dataclasses.astuple(st) for st in result.steps]]
            ))
            assert got == [case["path"], case["steps"]], (case["graph"], case["colors"], case["start"])
