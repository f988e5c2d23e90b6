import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowpath import (
    BudgetExceededError,
    ColoredGraph,
    Coloring,
    GraphError,
    SearchBudget,
    build_graph,
    chromatic_number,
    classify_path,
    dsatur_coloring,
    gallai_roy_rainbow_path,
    is_triangle_free,
    longest_induced_path,
    longest_induced_rainbow_path,
    max_colorful_induced_path_from,
    mycielski_iterates,
    orient_by_color,
    random_triangle_free,
)
from rainbowpath import _kernels_jit, _kernels_py
from rainbowpath.backend import ENV_VAR
from rainbowpath.oracle import _dense_colors
from helpers import (
    naive_longest_induced_path_order,
    naive_longest_induced_rainbow_path_order,
    naive_most_colorful_from,
)
from test_graphs import graphs


@st.composite
def colored_graphs(draw, max_n=8):
    g = draw(graphs(max_n=max_n))
    coloring = dsatur_coloring(g)
    return ColoredGraph(g, coloring)


class TestLongestInducedPath:
    def test_path_graph(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert longest_induced_path(g).path.order == 4

    def test_c5_max_is_four(self, c5):
        result = longest_induced_path(c5)
        assert result.path.order == 4 and result.exact

    def test_petersen_is_five(self, petersen):
        # frozen from the naive enumerator and an independent permutation
        # brute force: no induced path on 6 vertices exists
        assert longest_induced_path(petersen).path.order == 5
        assert naive_longest_induced_path_order(petersen) == 5

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            longest_induced_path(build_graph(0, []))

    def test_single_vertex(self):
        assert longest_induced_path(build_graph(1, [])).path.order == 1

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_and_is_valid(self, g):
        result = longest_induced_path(g)
        assert result.exact
        assert result.path.order == naive_longest_induced_path_order(g)
        cg = ColoredGraph(g, Coloring(tuple(range(1, g.n + 1))))
        assert classify_path(cg, result.path.vertices).is_induced


class TestLongestInducedRainbowPath:
    def test_c5_example(self, c5_colored):
        result = longest_induced_rainbow_path(c5_colored)
        assert result.path.order == 3
        report = classify_path(c5_colored, result.path.vertices)
        assert report.is_induced and report.is_rainbow

    def test_all_distinct_colors_equals_plain_search(self, petersen):
        cg = ColoredGraph(petersen, Coloring(tuple(range(1, 11))))
        assert longest_induced_rainbow_path(cg).path.order == longest_induced_path(petersen).path.order

    def test_single_vertex(self):
        cg = ColoredGraph(build_graph(1, []), Coloring((1,)))
        assert longest_induced_rainbow_path(cg).path.order == 1

    @given(colored_graphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_naive(self, cg):
        result = longest_induced_rainbow_path(cg)
        assert result.path.order == naive_longest_induced_rainbow_path_order(cg)
        report = classify_path(cg, result.path.vertices)
        assert report.is_induced and report.is_rainbow

    @given(colored_graphs())
    @settings(max_examples=40, deadline=None)
    def test_never_beats_unrestricted_search(self, cg):
        rainbow = longest_induced_rainbow_path(cg).path.order
        plain = longest_induced_path(cg.graph).path.order
        assert rainbow <= plain <= cg.graph.n


class TestRainbowPaletteExit:
    """The rainbow search stops at the first path that uses every color.

    Each case: graph, an optimal coloring, the path returned both before and
    after the early exit was added, the nodes the search spent before it, and
    the node at which it first reached the palette (all it spends now).
    """

    CASES = [
        (2, (1, 2, 1, 2, 3, 1, 2, 1, 2, 3, 4), (0, 3, 9, 10), 134, 5),
        (2, (1, 2, 3, 2, 1, 1, 2, 3, 3, 1, 4), (0, 1, 7, 10), 146, 4),
        (2, (1, 2, 3, 4, 2, 3, 4, 4, 4, 2, 1), (0, 3, 4, 2), 158, 7),
        (3, (1, 2, 1, 2, 3, 1, 2, 1, 2, 3, 4, 1, 2, 1, 2, 3, 1, 2, 1, 2, 3, 4, 5),
         (0, 3, 9, 21, 22), 1412, 7),
        (3, (1, 2, 1, 2, 3, 1, 2, 1, 2, 3, 4, 1, 2, 1, 5, 5, 1, 2, 5, 2, 3, 5, 4),
         (0, 1, 18, 10, 9), 1784, 5),
        (3, (1, 2, 1, 2, 3, 1, 2, 1, 2, 3, 4, 1, 2, 5, 5, 3, 1, 5, 5, 5, 5, 5, 4),
         (0, 1, 13, 9, 10), 2048, 5),
    ]

    @staticmethod
    def _colored(depth, colors):
        # depth 2 is Grotzsch, depth 3 is Mycielski-3
        return ColoredGraph(mycielski_iterates(depth)[-1], Coloring(colors))

    @pytest.mark.parametrize("depth,colors,path,full_nodes,reached_at", CASES)
    def test_same_path_fewer_nodes(self, depth, colors, path, full_nodes, reached_at):
        cg = self._colored(depth, colors)
        result = longest_induced_rainbow_path(cg)
        assert result.path.vertices == path and result.exact
        assert result.path.order == cg.coloring.palette_size
        assert result.nodes == reached_at < full_nodes

    @pytest.mark.parametrize("depth,colors,path,full_nodes,reached_at", CASES)
    def test_budget_spent_after_palette_is_exact(self, depth, colors, path, full_nodes,
                                                 reached_at):
        # The full search ran out of a budget of reached_at nodes (flagged
        # inexact); it now stops there with the path proved maximum.
        cg = self._colored(depth, colors)
        result = longest_induced_rainbow_path(cg, SearchBudget(max_nodes=reached_at))
        assert result.path.vertices == path and result.exact
        short = longest_induced_rainbow_path(
            cg, SearchBudget(max_nodes=reached_at - 1, on_exceed="flag")
        )
        assert not short.exact and short.path.order < len(path)

    def test_one_color_costs_no_nodes(self):
        for g in (build_graph(1, []), build_graph(3, [])):
            result = longest_induced_rainbow_path(ColoredGraph(g, Coloring((1,) * g.n)))
            assert result.path.vertices == (0,) and result.exact and result.nodes == 0
            ln, arr, nodes, exceeded = _kernels_jit.longest_induced_rainbow_path(
                np.array(g.masks, dtype=np.int64), g.n, np.zeros(g.n, np.int64), 1
            )
            assert (ln, list(arr[:ln]), nodes, exceeded) == (1, [0], 0, False)


class TestMaxColorfulFrom:
    def test_single_vertex(self):
        cg = ColoredGraph(build_graph(1, []), Coloring((1,)))
        assert max_colorful_induced_path_from(cg, 0).path.vertices == (0,)

    def test_c5_example(self, c5_colored):
        result = max_colorful_induced_path_from(c5_colored, 0)
        assert result.path.vertices == (0, 4, 3)
        assert len({c5_colored.color_of(v) for v in result.path.vertices}) == 3

    def test_star_two_colors(self):
        star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        cg = ColoredGraph(star, Coloring((1, 2, 2, 2)))
        result = max_colorful_induced_path_from(cg, 0)
        assert len({cg.color_of(v) for v in result.path.vertices}) == 2

    def test_tie_break_shorter_then_lex(self):
        # both (0,1) and longer paths see two colors; expect the 2-vertex one
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        cg = ColoredGraph(g, Coloring((1, 2, 1, 2)))
        result = max_colorful_induced_path_from(cg, 0)
        assert result.path.vertices == (0, 1)

    @given(colored_graphs(max_n=7), st.data())
    @settings(max_examples=50, deadline=None)
    def test_matches_naive_color_count(self, cg, data):
        start = data.draw(st.integers(0, cg.graph.n - 1))
        result = max_colorful_induced_path_from(cg, start)
        count = len({cg.color_of(v) for v in result.path.vertices})
        assert count == naive_most_colorful_from(cg, start)
        assert result.path.vertices[0] == start
        assert classify_path(cg, result.path.vertices).is_induced


class TestGallaiRoy:
    def test_c5_example(self, c5_colored):
        path = gallai_roy_rainbow_path(c5_colored)
        assert path.vertices == (2, 3, 4)

    def test_k2(self, k2):
        cg = ColoredGraph(k2, Coloring((1, 2)))
        assert gallai_roy_rainbow_path(cg).order == 2

    def test_edgeless(self):
        cg = ColoredGraph(build_graph(3, []), Coloring((1, 1, 1)))
        assert gallai_roy_rainbow_path(cg).order == 1

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            gallai_roy_rainbow_path(ColoredGraph(build_graph(0, []), Coloring(())))

    def test_orientation_points_at_larger_color(self, c5_colored):
        arcs = orient_by_color(c5_colored)
        assert all(c5_colored.color_of(u) < c5_colored.color_of(v) for u, v in arcs)
        assert len(arcs) == c5_colored.graph.edge_count

    @given(colored_graphs())
    @settings(max_examples=80, deadline=None)
    def test_strictly_increasing_and_at_least_chi(self, cg):
        path = gallai_roy_rainbow_path(cg)
        colors = [cg.color_of(v) for v in path.vertices]
        assert colors == sorted(colors) and len(set(colors)) == len(colors)
        assert path.order >= chromatic_number(cg.graph).chi
        for a, b in zip(path.vertices, path.vertices[1:]):
            assert cg.graph.has_edge(a, b)


class TestBudgets:
    def test_error_mode_on_size(self):
        g = random_triangle_free(30, 0.2, seed=5)
        with pytest.raises(BudgetExceededError):
            longest_induced_path(g, SearchBudget(max_vertices=25, on_exceed="error"))

    def test_flag_mode_completes(self):
        g = random_triangle_free(30, 0.2, seed=5)
        result = longest_induced_path(g, SearchBudget(max_vertices=25, on_exceed="flag"))
        assert result.path.order >= 1

    def test_node_cap_flags_best_effort(self, petersen):
        budget = SearchBudget(max_nodes=5, on_exceed="flag")
        result = longest_induced_path(petersen, budget)
        assert not result.exact
        assert result.path.order >= 1

    def test_node_cap_error_mode(self, petersen):
        with pytest.raises(BudgetExceededError):
            longest_induced_path(petersen, SearchBudget(max_nodes=5, on_exceed="error"))

    def test_invalid_budget(self):
        with pytest.raises(GraphError):
            SearchBudget(max_vertices=0)
        with pytest.raises(GraphError):
            SearchBudget(on_exceed="ignore")


class TestBackends:
    """The JIT kernels must reproduce the pure kernels exactly."""

    def _with_backend(self, monkeypatch, name):
        monkeypatch.setenv(ENV_VAR, name)

    @staticmethod
    def _twin_runs(g, dense, budgets):
        """(path, nodes, exceeded) of the three searches from _kernels_py and
        from _kernels_jit, each fed the inputs oracle packs for it; budgets
        holds the node budget of each search in that order."""
        lip, rainbow, colorful = budgets
        pure = [
            _kernels_py.longest_induced_path(g.masks, g.n, lip),
            _kernels_py.longest_induced_rainbow_path(g.masks, g.n, dense, rainbow),
            _kernels_py.most_colorful_path_from(g.masks, g.n, dense, 0, colorful),
        ]
        masks = np.array(g.masks, dtype=np.int64)
        colors = np.array(dense, dtype=np.int64)
        jit = [
            ([int(v) for v in arr[:ln]], int(nodes), bool(exceeded))
            for ln, arr, nodes, exceeded in (
                _kernels_jit.longest_induced_path(masks, g.n, lip),
                _kernels_jit.longest_induced_rainbow_path(masks, g.n, colors, rainbow),
                _kernels_jit.most_colorful_path_from(masks, g.n, colors, 0, colorful),
            )
        ]
        return pure, jit

    # All-distinct colors take color masks past bit 7, where the interpreted
    # _popcount wraps with a RuntimeWarning (see the _kernels_jit docstring).
    @pytest.mark.filterwarnings("ignore:overflow encountered in scalar multiply:RuntimeWarning")
    @pytest.mark.parametrize("seed", range(8))
    def test_backends_agree(self, seed):
        # Calls both kernel modules directly: with numba installed this checks
        # the compiled kernels, without it the same source run interpreted.
        g = random_triangle_free(12, 0.4, seed=seed)
        # Under DSATUR colors the rainbow search stops at a path that uses
        # every color; under all-distinct colors no induced path of these
        # graphs has 12 vertices, so it searches to the end.
        for coloring, palette_reached in ((dsatur_coloring(g), True),
                                          (Coloring(tuple(range(1, g.n + 1))), False)):
            dense, palette = _dense_colors(ColoredGraph(g, coloring))
            pure, jit = self._twin_runs(g, dense, (SearchBudget().max_nodes,) * 3)
            # identical paths AND identical node accounting: the kernels must be twins
            assert jit == pure
            assert not any(exceeded for _, _, exceeded in pure)
            assert (len(pure[1][0]) == palette) == palette_reached
            # half of each search's own node count cuts it short, so the
            # exceeded flag and the partial best are compared as well
            pure, jit = self._twin_runs(g, dense, [nodes // 2 for _, nodes, _ in pure])
            assert jit == pure
            assert all(exceeded for _, _, exceeded in pure)

    @pytest.mark.parametrize("seed", range(8))
    def test_backends_agree_via_oracle(self, monkeypatch, seed):
        # the public searches under RAINBOWPATH_BACKEND: dispatch and the
        # int64 round trip in oracle, which needs the real compiled backend
        pytest.importorskip("numba")
        g = random_triangle_free(12, 0.4, seed=seed)
        cg = ColoredGraph(g, dsatur_coloring(g))
        results = {}
        for name in ("pure", "numba"):
            self._with_backend(monkeypatch, name)
            results[name] = [
                (r.path, r.nodes)
                for r in (
                    longest_induced_path(g),
                    longest_induced_rainbow_path(cg),
                    max_colorful_induced_path_from(cg, 0),
                )
            ]
        # identical paths AND identical node accounting: the kernels must be twins
        assert results["pure"] == results["numba"]

    def test_pure_handles_oversized_palettes(self, monkeypatch):
        self._with_backend(monkeypatch, "auto")
        g = build_graph(70, [(i, i + 1) for i in range(69)])
        cg = ColoredGraph(g, Coloring(tuple(range(1, 71))))
        budget = SearchBudget(max_vertices=70)
        assert longest_induced_rainbow_path(cg, budget).path.order == 70

    def test_forced_numba_cap(self, monkeypatch):
        self._with_backend(monkeypatch, "numba")
        g = build_graph(70, [(i, i + 1) for i in range(69)])
        with pytest.raises(RuntimeError, match="too large"):
            longest_induced_path(g, SearchBudget(max_vertices=70))

    def test_bad_flag_rejected(self, monkeypatch):
        self._with_backend(monkeypatch, "jitted")
        with pytest.raises(ValueError):
            longest_induced_path(build_graph(1, []))


class TestRelabelInvariance:
    @pytest.mark.parametrize("seed", range(5))
    def test_orders_stable_under_permutation(self, seed):
        import random as pyrandom

        g = random_triangle_free(10, 0.4, seed=seed)
        rng = pyrandom.Random(seed)
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert longest_induced_path(g).path.order == longest_induced_path(relabeled).path.order
        coloring = dsatur_coloring(g)
        cg = ColoredGraph(g, coloring)
        inv = [0] * g.n
        for old, new in enumerate(perm):
            inv[new] = coloring.colors[old]
        rcg = ColoredGraph(relabeled, Coloring(tuple(inv)))
        assert (
            longest_induced_rainbow_path(cg).path.order
            == longest_induced_rainbow_path(rcg).path.order
        )
