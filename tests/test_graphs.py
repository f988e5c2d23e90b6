import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowpath import (
    ColoredGraph,
    Coloring,
    Graph,
    GraphError,
    Path,
    build_graph,
    classify_path,
    connected_components,
    induced_subgraph,
    is_proper,
    is_triangle_free,
)
from rainbowpath.graphs import _bits, _is_induced, _mask_components, _mask_shortest_path, _walk_back
from helpers import (
    naive_is_proper,
    naive_shortest_path_to_set,
    naive_triangle_free,
    random_proper_coloring,
)


@st.composite
def graphs(draw, max_n=8):
    """Graphs on 1..max_n vertices.

    Half the draws are small dense graphs: n = 3..6, each pair present with
    probability 1/2. A uniform edge list seldom draws them, yet they are
    the graphs that separate breadth-first tie-breaks.
    """
    if max_n >= 3 and draw(st.booleans()):
        n = draw(st.integers(min_value=3, max_value=min(6, max_n)))
        return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if draw(st.booleans())])
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
        # build_graph leaves the self-loop to Graph, which names its vertex
        with pytest.raises(GraphError, match="^self-loop at vertex 1$"):
            build_graph(3, [(0, 2), (1, 1)])

    def test_negative_vertex_count(self):
        with pytest.raises(GraphError, match="^vertex count must be non-negative$"):
            build_graph(-1, [])

    def test_empty_graph_is_legal(self):
        g = build_graph(0, [])
        assert g.n == 0 and connected_components(g) == []

    @pytest.mark.parametrize("n, masks, message", [
        (2, (0b10,), "need exactly 2 adjacency masks"),
        (2, (0b110, 0b1), "vertex 0 adjacent to out-of-range vertex"),
        (2, (0b11, 0b1), "self-loop at vertex 0"),
        (3, (0b10, 0b101, 0b0), "asymmetric adjacency between 2 and 1"),
        (-1, (), "vertex count must be non-negative"),
    ])
    def test_graph_constructor_rejects(self, n, masks, message):
        with pytest.raises(GraphError, match=f"^{message}$"):
            Graph(n, masks)


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
        assert induced_subgraph(c5, range(5)) == c5
        # new ids follow sorted original ids: 4, 0, 1 become 2, 0, 1
        sub = induced_subgraph(c5, [4, 0, 1, 4])
        assert sorted(sub.edges()) == [(0, 1), (0, 2)]

    def test_cycle_segment_is_path(self, c5):
        sub = induced_subgraph(c5, [0, 1, 2])
        assert sub.edge_count == 2
        assert sub.has_edge(0, 1) and sub.has_edge(1, 2)
        assert not sub.has_edge(0, 2)

    def test_petersen_five_cycle(self, petersen):
        # find a 5-cycle by walking: it must induce a C5 exactly
        import networkx as nx

        G = nx.Graph(list(petersen.edges()))
        cycle = nx.minimum_cycle_basis(G)[0]
        assert len(cycle) == 5
        sub = induced_subgraph(petersen, cycle)
        assert sub.n == 5 and sub.edge_count == 5
        assert all(sub.degree(v) == 2 for v in range(5))

    def test_vertex_outside(self, c5):
        with pytest.raises(GraphError):
            induced_subgraph(c5, [0, 7])

    @given(graphs(), st.data())
    def test_idempotent_under_identity(self, g, data):
        subset = data.draw(st.lists(st.integers(0, g.n - 1), unique=True))
        sub = induced_subgraph(g, subset)
        again = induced_subgraph(sub, range(sub.n))
        assert again == sub


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

    def test_chord_two_places_back_not_induced(self):
        triangle = ColoredGraph(build_graph(3, [(0, 1), (1, 2), (0, 2)]), Coloring((1, 2, 3)))
        assert classify_path(triangle, (0, 1)).is_induced
        assert not classify_path(triangle, (0, 1, 2)).is_induced

    @given(graphs(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_is_induced_matches_pairwise_definition(self, g, data):
        # one pass over the masks agrees with the definition on every pair:
        # consecutive vertices adjacent, all others not
        seq = data.draw(st.permutations(range(g.n)))[:data.draw(st.integers(1, g.n))]
        pairwise = all(g.has_edge(u, v) == (j == i + 1)
                       for i, u in enumerate(seq) for j, v in enumerate(seq) if i < j)
        assert _is_induced(g.masks, seq) == pairwise

    def test_rejects_non_path(self, c5_colored):
        with pytest.raises(GraphError, match="^consecutive vertices 0,2 are not adjacent$"):
            classify_path(c5_colored, (0, 2))
        with pytest.raises(GraphError, match="^path vertices must be distinct$"):
            classify_path(c5_colored, (0, 1, 0))

    def test_rejects_vertex_outside_graph(self, c5_colored):
        with pytest.raises(GraphError, match="^vertex 5 not in graph$"):
            classify_path(c5_colored, (4, 5))

    def test_path_needs_a_vertex(self):
        with pytest.raises(GraphError, match="^a path has at least one vertex$"):
            Path(())


class TestWalkBack:
    # levels {0, 1}, {2, 3}, {4, 5}; 2 has both 0 and 1 before it, 4 both 2
    # and 3, and 5 only 3, which has only 1
    G = build_graph(6, [(0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5)])
    LEVELS = [0b11, 0b1100, 0b110000]

    def test_starts_at_the_smallest_id_of_the_last_level(self):
        assert _walk_back(self.LEVELS, self.G.masks) == (0, 2, 4)
        assert _walk_back(self.LEVELS[:2], self.G.masks) == (0, 2)

    def test_each_step_takes_the_smallest_predecessor_in_the_level_before(self):
        assert _walk_back(self.LEVELS[:2] + [1 << 5], self.G.masks) == (1, 3, 5)
        assert _walk_back([0b11, 1 << 3], self.G.masks) == (1, 3)

    def test_predecessors_come_from_into(self):
        into = [1 << 3 if v == 4 else m for v, m in enumerate(self.G.masks)]
        assert _walk_back(self.LEVELS, into) == (1, 3, 4)

    def test_one_level_is_its_smallest_id(self):
        assert _walk_back([0b101000], self.G.masks) == (3,)


def full_shortest_path(g, source, targets):
    """The breadth-first shortest path over the whole vertex set."""
    return _mask_shortest_path(g.masks, (1 << g.n) - 1, source, sum(1 << t for t in targets))


class TestShortestPathToSet:
    def test_source_in_targets(self, c5):
        assert full_shortest_path(c5, 2, {2}) == (2,)

    def test_tie_break_prefers_smaller_neighbor(self, c5):
        # two equal routes around the cycle; ascending expansion wins
        assert full_shortest_path(c5, 0, {2}) == (0, 1, 2)

    def test_first_target_reached_wins_over_smaller_id(self):
        # 5 is reached from 1 before 3 is reached from 2
        g = build_graph(6, [(0, 1), (0, 2), (1, 5), (2, 3), (3, 4)])
        assert full_shortest_path(g, 0, {3, 5}) == (0, 1, 5)
        assert naive_shortest_path_to_set(g, 0, {3, 5}) == (0, 1, 5)

    def test_path_graph(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert full_shortest_path(g, 0, {3}) == (0, 1, 2, 3)

    def test_unreachable(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(GraphError):
            full_shortest_path(g, 0, {2})

    def test_empty_targets(self, c5):
        with pytest.raises(GraphError):
            full_shortest_path(c5, 0, set())

    @given(graphs(), st.data())
    @settings(max_examples=60)
    def test_result_is_induced(self, g, data):
        source = data.draw(st.integers(0, g.n - 1))
        target = data.draw(st.integers(0, g.n - 1))
        try:
            path = full_shortest_path(g, source, {target})
        except GraphError:
            return
        cg = ColoredGraph(g, Coloring(tuple(range(1, g.n + 1))))
        assert classify_path(cg, path).is_induced

    @given(graphs(), st.data())
    @settings(max_examples=150)
    def test_matches_reference_bfs(self, g, data):
        source = data.draw(st.integers(0, g.n - 1))
        targets = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
        expected = naive_shortest_path_to_set(g, source, targets)
        if expected is None:
            with pytest.raises(GraphError):
                full_shortest_path(g, source, targets)
        else:
            assert full_shortest_path(g, source, targets) == expected


class TestSubsetSearches:
    """The bitmask searches the colorful construction runs inside vertex
    subsets agree with the public searches on the induced subgraph."""

    @given(graphs(max_n=10), st.data())
    @settings(max_examples=150)
    def test_agree_with_induced_subgraph(self, g, data):
        subset = sorted(data.draw(st.sets(st.integers(0, g.n - 1), min_size=1)))
        mask = sum(1 << v for v in subset)
        sub = induced_subgraph(g, subset)
        to_sub = {v: i for i, v in enumerate(subset)}
        assert [tuple(_bits(comp)) for comp in _mask_components(g.masks, mask)] == [
            tuple(subset[v] for v in comp) for comp in connected_components(sub)
        ]
        source = data.draw(st.sampled_from(subset))
        targets = data.draw(st.sets(st.sampled_from(subset), min_size=1))
        expected = naive_shortest_path_to_set(sub, to_sub[source], {to_sub[t] for t in targets})
        target_mask = sum(1 << t for t in targets)
        if expected is None:
            with pytest.raises(GraphError):
                _mask_shortest_path(g.masks, mask, source, target_mask)
        else:
            assert _mask_shortest_path(g.masks, mask, source, target_mask) == tuple(
                subset[v] for v in expected
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

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_edge_walk(self, seed):
        # random graphs with up to 20 vertices; color ids are sparse, some
        # above 64, so the color-class masks are keyed on arbitrary ids
        rng = random.Random(seed)
        n = rng.randint(1, 20)
        p = rng.uniform(0.1, 0.6)
        g = build_graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                            if rng.random() < p])
        proper = random_proper_coloring(g, rng)
        assert is_proper(g, proper) and naive_is_proper(g, proper)
        ColoredGraph(g, proper)
        for palette in (2, 3, 5):
            ids = rng.sample(range(1, 130), palette)
            coloring = Coloring(tuple(rng.choice(ids) for _ in range(n)))
            assert is_proper(g, coloring) == naive_is_proper(g, coloring)
        for u, v in itertools.islice(g.edges(), 3):
            # copy a neighbor's color onto one endpoint of an edge
            colors = list(proper.colors)
            colors[v] = colors[u]
            clash = Coloring(tuple(colors))
            assert not is_proper(g, clash) and not naive_is_proper(g, clash)
            with pytest.raises(GraphError):
                ColoredGraph(g, clash)
