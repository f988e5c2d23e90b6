import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowpath import (
    ColoredGraph,
    Coloring,
    GraphError,
    build_graph,
    classify_path,
    connected_components,
    induced_subgraph,
    is_proper,
    is_triangle_free,
    shortest_path_to_set,
)
from rainbowpath.graphs import _bits, _mask_components, _mask_shortest_path
from helpers import naive_shortest_path_to_set, naive_triangle_free


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return build_graph(n, picked)


class TestBuildGraph:
    def test_single_vertex(self):
        g = build_graph(1, [])
        assert g.n == 1 and g.edge_count == 0

    def test_cycle(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert g.edge_count == 5
        assert all(g.degree(v) == 2 for v in range(5))

    def test_dedup_and_symmetry(self):
        g = build_graph(3, [(0, 1), (0, 1), (1, 0)])
        assert g.edge_count == 1
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            build_graph(3, [(0, 3)])

    def test_self_loop(self):
        with pytest.raises(GraphError):
            build_graph(3, [(1, 1)])

    def test_empty_graph_is_legal(self):
        g = build_graph(0, [])
        assert g.n == 0 and connected_components(g) == []


class TestTriangleFree:
    def test_c5(self, c5):
        assert is_triangle_free(c5)

    def test_k3(self):
        assert not is_triangle_free(build_graph(3, [(0, 1), (1, 2), (0, 2)]))

    def test_petersen(self, petersen):
        assert is_triangle_free(petersen)
        assert naive_triangle_free(petersen)

    @given(graphs())
    def test_agrees_with_naive(self, g):
        assert is_triangle_free(g) == naive_triangle_free(g)


class TestConnectedComponents:
    def test_connected_cycle(self, c5):
        assert connected_components(c5) == [(0, 1, 2, 3, 4)]

    def test_isolated_vertices(self):
        g = build_graph(3, [])
        assert connected_components(g) == [(0,), (1,), (2,)]

    def test_disjoint_union(self):
        g = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6)])
        comps = connected_components(g)
        assert comps == [(0, 1, 2, 3, 4), (5, 6)]

    @given(graphs())
    def test_partition_with_no_crossing_edges(self, g):
        comps = connected_components(g)
        all_vs = sorted(v for comp in comps for v in comp)
        assert all_vs == list(range(g.n))
        membership = {v: i for i, comp in enumerate(comps) for v in comp}
        for u, v in g.edges():
            assert membership[u] == membership[v]


class TestInducedSubgraph:
    def test_identity(self, c5):
        sub = induced_subgraph(c5, range(5))
        assert sub.graph == c5
        assert sub.to_parent == (0, 1, 2, 3, 4)

    def test_cycle_segment_is_path(self, c5):
        sub = induced_subgraph(c5, [0, 1, 2])
        assert sub.graph.edge_count == 2
        assert sub.graph.has_edge(0, 1) and sub.graph.has_edge(1, 2)
        assert not sub.graph.has_edge(0, 2)

    def test_petersen_five_cycle(self, petersen):
        # find a 5-cycle by walking: it must induce a C5 exactly
        import networkx as nx

        G = nx.Graph(list(petersen.edges()))
        cycle = nx.minimum_cycle_basis(G)[0]
        assert len(cycle) == 5
        sub = induced_subgraph(petersen, cycle).graph
        assert sub.n == 5 and sub.edge_count == 5
        assert all(sub.degree(v) == 2 for v in range(5))

    def test_vertex_outside(self, c5):
        with pytest.raises(GraphError):
            induced_subgraph(c5, [0, 7])

    @given(graphs(), st.data())
    def test_idempotent_under_identity(self, g, data):
        subset = data.draw(st.lists(st.integers(0, g.n - 1), unique=True))
        sub = induced_subgraph(g, subset)
        again = induced_subgraph(sub.graph, range(sub.graph.n))
        assert again.graph == sub.graph


class TestClassifyPath:
    def test_single_edge(self, c5_colored):
        rep = classify_path(c5_colored, (0, 1))
        assert rep.order == 2 and rep.is_induced and rep.is_rainbow and rep.color_count == 2

    def test_repeated_color_not_rainbow(self, c5_colored):
        rep = classify_path(c5_colored, (0, 1, 2))
        assert rep.is_induced and not rep.is_rainbow and rep.color_count == 2

    def test_full_cycle_walk_not_induced(self, c5_colored):
        rep = classify_path(c5_colored, (4, 0, 1, 2, 3))
        assert not rep.is_induced and rep.color_count == 3

    def test_rejects_non_path(self, c5_colored):
        with pytest.raises(GraphError):
            classify_path(c5_colored, (0, 2))
        with pytest.raises(GraphError):
            classify_path(c5_colored, (0, 1, 0))


class TestShortestPathToSet:
    def test_source_in_targets(self, c5):
        assert shortest_path_to_set(c5, 2, {2}).vertices == (2,)

    def test_tie_break_prefers_smaller_neighbor(self, c5):
        # two equal routes around the cycle; ascending expansion wins
        assert shortest_path_to_set(c5, 0, {2}).vertices == (0, 1, 2)

    def test_first_target_reached_wins_over_smaller_id(self):
        # 5 is reached from 1 before 3 is reached from 2
        g = build_graph(6, [(0, 1), (0, 2), (1, 5), (2, 3), (3, 4)])
        assert shortest_path_to_set(g, 0, {3, 5}).vertices == (0, 1, 5)
        assert naive_shortest_path_to_set(g, 0, {3, 5}) == (0, 1, 5)

    def test_path_graph(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert shortest_path_to_set(g, 0, {3}).vertices == (0, 1, 2, 3)

    def test_unreachable(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(GraphError):
            shortest_path_to_set(g, 0, {2})

    def test_empty_targets(self, c5):
        with pytest.raises(GraphError):
            shortest_path_to_set(c5, 0, set())

    @given(graphs(), st.data())
    @settings(max_examples=60)
    def test_result_is_induced(self, g, data):
        source = data.draw(st.integers(0, g.n - 1))
        target = data.draw(st.integers(0, g.n - 1))
        try:
            path = shortest_path_to_set(g, source, {target})
        except GraphError:
            return
        cg = ColoredGraph(g, Coloring(tuple(range(1, g.n + 1))))
        assert classify_path(cg, path.vertices).is_induced

    @given(graphs(), st.data())
    @settings(max_examples=150)
    def test_matches_reference_bfs(self, g, data):
        source = data.draw(st.integers(0, g.n - 1))
        targets = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
        expected = naive_shortest_path_to_set(g, source, targets)
        if expected is None:
            with pytest.raises(GraphError):
                shortest_path_to_set(g, source, targets)
        else:
            assert shortest_path_to_set(g, source, targets).vertices == expected


class TestSubsetSearches:
    """The bitmask searches the colorful construction runs inside vertex
    subsets agree with the public searches on the induced subgraph."""

    @given(graphs(max_n=10), st.data())
    @settings(max_examples=150)
    def test_agree_with_induced_subgraph(self, g, data):
        subset = sorted(data.draw(st.sets(st.integers(0, g.n - 1), min_size=1)))
        mask = sum(1 << v for v in subset)
        sub = induced_subgraph(g, subset)
        assert [tuple(_bits(comp)) for comp in _mask_components(g.masks, mask)] == [
            tuple(sub.to_parent[v] for v in comp) for comp in connected_components(sub.graph)
        ]
        source = data.draw(st.sampled_from(subset))
        targets = data.draw(st.sets(st.sampled_from(subset), min_size=1))
        expected = naive_shortest_path_to_set(
            sub.graph, sub.to_sub[source], {sub.to_sub[t] for t in targets}
        )
        target_mask = sum(1 << t for t in targets)
        if expected is None:
            with pytest.raises(GraphError):
                _mask_shortest_path(g.masks, mask, source, target_mask)
        else:
            assert _mask_shortest_path(g.masks, mask, source, target_mask) == tuple(
                sub.to_parent[v] for v in expected
            )


class TestIsProper:
    def test_c5_three_coloring(self, c5):
        assert is_proper(c5, Coloring((1, 2, 1, 2, 3)))

    def test_monochromatic_edge(self, k2):
        assert not is_proper(k2, Coloring((1, 1)))

    def test_edgeless_all_one(self):
        assert is_proper(build_graph(4, []), Coloring((1, 1, 1, 1)))

    def test_partial_coloring_rejected(self, c5):
        with pytest.raises(GraphError):
            is_proper(c5, Coloring((1, 2, 1)))

    def test_nonpositive_color_rejected(self):
        with pytest.raises(GraphError):
            Coloring((0, 1))
