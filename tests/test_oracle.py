import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rainbowpath
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
    iter_colorings,
    longest_induced_path,
    longest_induced_rainbow_path,
    max_colorful_induced_path_from,
    mycielski_iterates,
    orient_by_color,
    random_triangle_free,
)
from helpers import (
    naive_longest_induced_path_order,
    naive_longest_induced_rainbow_path_order,
    naive_most_colorful_path_from,
    random_proper_coloring,
)
from test_graphs import graphs

DATA = Path(__file__).parent / "data"


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

    def test_handles_oversized_palettes(self):
        # 70 vertices and 70 colors: more than a 64-bit mask holds
        g = build_graph(70, [(i, i + 1) for i in range(69)])
        cg = ColoredGraph(g, Coloring(tuple(range(1, 71))))
        budget = SearchBudget(max_vertices=70)
        assert longest_induced_rainbow_path(cg, budget).path.order == 70

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
        naive = naive_most_colorful_path_from(cg, start)
        assert count == len({cg.color_of(v) for v in naive})
        assert result.path.vertices[0] == start
        assert classify_path(cg, result.path.vertices).is_induced

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_naive_path(self, seed):
        # sparse color ids, often more colors than chi: ties on the color
        # count are common, so the order and lexicographic tie-breaks show
        rng = random.Random(seed)
        g = random_triangle_free(4 + seed % 6, rng.choice((0.3, 0.5, 0.7)), seed=seed)
        cg = ColoredGraph(g, random_proper_coloring(g, rng))
        for start in range(g.n):
            result = max_colorful_induced_path_from(cg, start)
            assert result.path.vertices == naive_most_colorful_path_from(cg, start)


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


class TestFrozenGallaiRoy:
    """Vertices of gallai_roy_rainbow_path, frozen before it shared one
    longest-path DP with the graded procedure's forward and backward paths.

    Inputs: the mycielski-sweep benchmark graphs (K2 and its first three
    Mycielski iterates) under their first 1000 canonical optimal colorings,
    1526 colorings in all, and random_triangle_free(8 + seed % 10, 0.35, seed)
    for seeds 0-29 under helpers.random_proper_coloring (sparse color ids,
    some above 64, and more colors than chi, so ties between longest paths
    are common).
    """

    FROZEN = json.loads((DATA / "frozen_gallai_roy.json").read_text(encoding="ascii"))

    @staticmethod
    def sweep_case(depth):
        g = mycielski_iterates(3)[depth]
        return [ColoredGraph(g, c) for c in itertools.islice(iter_colorings(g, depth + 2), 1000)]

    @staticmethod
    def random_case(seed):
        g = random_triangle_free(8 + seed % 10, 0.35, seed=seed)
        return ColoredGraph(g, random_proper_coloring(g, random.Random(seed)))

    @pytest.mark.parametrize("depth", range(4))
    def test_sweep_graphs(self, depth):
        paths = [list(gallai_roy_rainbow_path(cg).vertices) for cg in self.sweep_case(depth)]
        assert paths == self.FROZEN["sweep"][depth]

    @pytest.mark.parametrize("seed", range(30))
    def test_random_colorings(self, seed):
        path = gallai_roy_rainbow_path(self.random_case(seed))
        assert list(path.vertices) == self.FROZEN["random"][seed]


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


class TestFrozenSearches:
    """(vertices, nodes, exact) of the three searches, frozen before the
    search loops moved into oracle.py.

    Inputs: random_triangle_free(12, 0.4, seed) for seeds 0-7, under DSATUR
    colors (the rainbow search reaches the palette) and all-distinct colors
    (it never does). Each search runs at the full budget, then at half its
    own node count with on_exceed='flag', so the cut-off best path and the
    node accounting are pinned as well.
    """

    SEARCHES = {
        "induced_path": lambda cg, budget: longest_induced_path(cg.graph, budget),
        "rainbow": longest_induced_rainbow_path,
        "most_colorful": lambda cg, budget: max_colorful_induced_path_from(cg, 0, budget),
    }
    CASES = json.loads((DATA / "frozen_searches.json").read_text(encoding="ascii"))

    @staticmethod
    def _record(result):
        return [list(result.path.vertices), result.nodes, result.exact]

    @pytest.mark.parametrize(
        "case", CASES, ids=[f"{c['seed']}-{c['coloring']}-{c['search']}" for c in CASES]
    )
    def test_search_unchanged(self, case):
        g = random_triangle_free(12, 0.4, seed=case["seed"])
        coloring = {
            "dsatur": dsatur_coloring(g),
            "distinct": Coloring(tuple(range(1, g.n + 1))),
        }[case["coloring"]]
        search = self.SEARCHES[case["search"]]
        cg = ColoredGraph(g, coloring)
        full = search(cg, SearchBudget())
        assert self._record(full) == case["full"]
        if case["search"] == "rainbow":
            reached = full.path.order == coloring.palette_size
            assert reached == (case["coloring"] == "dsatur")
        half = search(cg, SearchBudget(max_nodes=max(1, full.nodes // 2), on_exceed="flag"))
        assert self._record(half) == case["half"]


class TestFrozenMostColorful:
    """(vertices, nodes, exact) of max_colorful_induced_path_from, frozen
    before its color bound was computed from color-class masks and tested
    before the push.

    Inputs: every start vertex of random_triangle_free(n, 0.35, n) for n in
    14, 16, 18, 20 and 22, under DSATUR colors and under
    helpers.random_proper_coloring seeded with n (palette 6-8, sparse ids).
    Each search runs at the full budget and, with on_exceed='flag', at 1,
    half and one less than its own node count, so a node counted or pruned
    in a different place shows in the cut-off path or the node count.
    """

    CASES = json.loads((DATA / "frozen_most_colorful.json").read_text(encoding="ascii"))

    @staticmethod
    def colored(n, coloring):
        g = random_triangle_free(n, 0.35, seed=n)
        if coloring == "dsatur":
            return ColoredGraph(g, dsatur_coloring(g))
        cg = ColoredGraph(g, random_proper_coloring(g, random.Random(n)))
        assert cg.coloring.palette_size >= 5
        return cg

    @pytest.mark.parametrize(
        "case", CASES, ids=[f"{c['n']}-{c['coloring']}-{c['start']}" for c in CASES]
    )
    def test_search_unchanged(self, case):
        cg = self.colored(case["n"], case["coloring"])
        full = max_colorful_induced_path_from(cg, case["start"])
        assert TestFrozenSearches._record(full) == case["full"]
        for budget, record in case["cut"].items():
            cut = max_colorful_induced_path_from(
                cg, case["start"], SearchBudget(max_nodes=int(budget), on_exceed="flag"))
            assert TestFrozenSearches._record(cut) == record


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


def test_import_has_no_heavy_dependencies():
    # the searches are plain Python over int bitmasks, so importing the
    # package in a fresh interpreter loads no array library
    env = {**os.environ, "PYTHONPATH": str(Path(rainbowpath.__file__).parents[1])}
    code = 'import sys, rainbowpath; assert "numpy" not in sys.modules'
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
