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
    random_triangle_free,
)
from rainbowpath.graphs import _bits
from rainbowpath.oracle import _color_orientation
from helpers import (
    every_graph,
    naive_longest_directed_path,
    naive_longest_induced_path,
    naive_longest_induced_rainbow_path,
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


@st.composite
def sparse_colored_graphs(draw, max_n=10):
    """Graphs under helpers.random_proper_coloring: sparse color ids, some
    above 64, and often more colors than chi, so longest paths tie."""
    g = draw(graphs(max_n=max_n))
    return ColoredGraph(g, random_proper_coloring(g, random.Random(draw(st.integers(0, 2**32 - 1)))))


class TestLongestInducedPath:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_path_graph(self, n):
        # P_n is its own longest induced path: the search walks it from
        # vertex 0 and stops there, having spent one node per edge
        result = longest_induced_path(build_graph(n, [(i, i + 1) for i in range(n - 1)]))
        assert result.path.order == n and result.exact
        assert result.nodes == n - 1

    def test_c5_max_is_four(self, c5):
        result = longest_induced_path(c5)
        assert result.path.order == 4 and result.exact

    def test_petersen_is_five(self, petersen):
        # frozen from the naive enumerator and an independent permutation
        # brute force: no induced path on 6 vertices exists
        assert longest_induced_path(petersen).path.order == 5
        assert len(naive_longest_induced_path(petersen)) == 5

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            longest_induced_path(build_graph(0, []))

    def test_single_vertex(self):
        # limit is 1 and vertex 0 has no neighbor: the loop tries no extension
        result = longest_induced_path(build_graph(1, []))
        assert result.path.vertices == (0,) and result.exact and result.nodes == 0

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_and_is_valid(self, g):
        # the very path, not just its order: the bound cuts only extensions
        # that could at best tie, so the first longest path is kept
        result = longest_induced_path(g)
        assert result.exact
        assert result.path.vertices == naive_longest_induced_path(g)
        cg = ColoredGraph(g, Coloring(tuple(range(1, g.n + 1))))
        assert classify_path(cg, result.path.vertices).is_induced

    def test_every_graph_on_five_vertices(self):
        # exact and the first longest path on every graph; under all-distinct
        # colors the rainbow search is the same search, and under DSATUR
        # colors it returns the first longest rainbow path
        distinct = Coloring(tuple(range(1, 6)))
        for g in every_graph(5):
            result = longest_induced_path(g)
            assert result.exact
            assert result.path.vertices == naive_longest_induced_path(g)
            assert result.path.vertices[0] <= result.path.vertices[-1]
            rainbow = longest_induced_rainbow_path(ColoredGraph(g, distinct))
            assert (rainbow.path, rainbow.nodes, rainbow.exact) == (
                result.path, result.nodes, result.exact)
            cg = ColoredGraph(g, dsatur_coloring(g))
            assert longest_induced_rainbow_path(cg).path.vertices == (
                naive_longest_induced_rainbow_path(cg))

    def test_node_counts_at_benchmark_scale(self):
        # the exact-solvers benchmark graphs at seeds 0-4: the total node
        # count is pinned, and under all-distinct colors the rainbow search
        # is the same search on each graph
        budget = SearchBudget(max_vertices=28)
        total = 0
        for n in range(14, 29, 2):
            for seed in range(5):
                g = random_triangle_free(n, 0.35, seed=seed)
                plain = longest_induced_path(g, budget)
                assert plain.exact
                cg = ColoredGraph(g, Coloring(tuple(range(1, n + 1))))
                rainbow = longest_induced_rainbow_path(cg, budget)
                assert (rainbow.path, rainbow.nodes, rainbow.exact) == (
                    plain.path, plain.nodes, plain.exact)
                total += plain.nodes
        assert total == 120_120


class TestLongestInducedRainbowPath:
    def test_c5_example(self, c5_colored):
        result = longest_induced_rainbow_path(c5_colored)
        assert result.path.order == 3
        report = classify_path(c5_colored, result.path.vertices)
        assert report.is_induced and report.is_rainbow

    def test_all_distinct_colors_equals_plain_search(self, petersen):
        # under all-distinct colors both searches are the same search: the
        # same path, node count and exactness at any budget
        for g in [petersen, *(random_triangle_free(12, 0.4, seed=s) for s in range(8))]:
            cg = ColoredGraph(g, Coloring(tuple(range(1, g.n + 1))))
            nodes = longest_induced_path(g).nodes
            budgets = [SearchBudget()] + [
                SearchBudget(max_nodes=max(1, m), on_exceed="flag")
                for m in (1, nodes // 2, nodes - 1)
            ]
            for budget in budgets:
                plain = longest_induced_path(g, budget)
                rainbow = longest_induced_rainbow_path(cg, budget)
                assert (rainbow.path, rainbow.nodes, rainbow.exact) == (
                    plain.path, plain.nodes, plain.exact)
                assert plain.path.vertices[0] <= plain.path.vertices[-1]

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
        assert result.path.vertices == naive_longest_induced_rainbow_path(cg)
        report = classify_path(cg, result.path.vertices)
        assert report.is_induced and report.is_rainbow

    @given(sparse_colored_graphs(max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_path_under_sparse_colorings(self, cg):
        # often more colors than chi: the search rarely stops at the
        # palette, so the bound decides which longest path is kept
        result = longest_induced_rainbow_path(cg)
        assert result.exact
        assert result.path.vertices == naive_longest_induced_rainbow_path(cg)

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
        # the one-color coloring is proper only without edges, so no start
        # has a candidate and the loop returns (0,) unspent
        for n in range(1, 7):
            cg = ColoredGraph(build_graph(n, []), Coloring((1,) * n))
            result = longest_induced_rainbow_path(cg)
            assert result.path.vertices == (0,) and result.exact and result.nodes == 0


class TestMaxColorfulFrom:
    def test_single_vertex(self):
        cg = ColoredGraph(build_graph(1, []), Coloring((1,)))
        assert max_colorful_induced_path_from(cg, 0).path.vertices == (0,)
        for start in (-1, 1):
            with pytest.raises(GraphError, match=f"start vertex {start} not in graph"):
                max_colorful_induced_path_from(cg, start)

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

    def test_stops_at_full_palette_path(self, c5_colored):
        # (0, 4, 3) sees all three colors in three vertices, so the search
        # stops there, exact, even on a budget of exactly the nodes it spent:
        # it is the fourth extension tried, after (0, 1), (0, 1, 2), (0, 4)
        result = max_colorful_induced_path_from(c5_colored, 0)
        assert result.path.vertices == (0, 4, 3) and result.exact and result.nodes == 4
        budget = SearchBudget(max_nodes=result.nodes, on_exceed="flag")
        assert max_colorful_induced_path_from(c5_colored, 0, budget) == result

    @given(colored_graphs(max_n=7), st.data())
    @settings(max_examples=50, deadline=None)
    def test_matches_naive_path_under_dsatur(self, cg, data):
        # the whole path, not just its color count: the bounds act on the
        # shorter-then-lexicographic tie-break
        start = data.draw(st.integers(0, cg.graph.n - 1))
        result = max_colorful_induced_path_from(cg, start)
        assert result.exact
        assert result.path.vertices == naive_most_colorful_path_from(cg, start)
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
        g = c5_colored.graph
        ins = _color_orientation(g.masks, c5_colored.classes, (1 << g.n) - 1)
        arcs = [(u, v) for v in range(g.n) for u in _bits(ins[v])]
        assert all(c5_colored.color_of(u) < c5_colored.color_of(v) for u, v in arcs)
        assert len(arcs) == g.edge_count

    def test_orientation_of_a_vertex_subset(self):
        # every in-neighbor of v precedes v in the subset's (color, id)
        # order, and ins is 0 outside the subset
        for seed in range(20):
            rng = random.Random(seed)
            g = random_triangle_free(10, 0.4, seed=seed)
            cg = ColoredGraph(g, random_proper_coloring(g, rng))
            subset = rng.getrandbits(g.n) & ((1 << g.n) - 2)  # never all of V
            ins = _color_orientation(g.masks, cg.classes, subset)
            order = sorted(_bits(subset), key=lambda v: (cg.color_of(v), v))
            position = {v: i for i, v in enumerate(order)}
            for v in range(g.n):
                if not subset >> v & 1:
                    assert ins[v] == 0
                    continue
                assert ins[v] == sum(1 << u for u in _bits(g.masks[v] & subset)
                                     if cg.color_of(u) < cg.color_of(v))
                assert all(position[u] < position[v] for u in _bits(ins[v]))

    @given(sparse_colored_graphs())
    @settings(max_examples=200, deadline=None)
    def test_class_levels_match_the_vertex_dp(self, cg):
        # the class-at-a-time levels give the order and, walked back on the
        # adjacency masks, the path of the vertex-level DP on the in-neighbor masks
        g = cg.graph
        order = sorted(range(g.n), key=lambda v: (cg.color_of(v), v))
        reference = naive_longest_directed_path(
            order, _color_orientation(g.masks, cg.classes, (1 << g.n) - 1))
        path = gallai_roy_rainbow_path(cg)
        assert path.order == len(reference)
        assert path.vertices == reference

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
    """Vertices of gallai_roy_rainbow_path, frozen when it ran a vertex-level
    longest-path DP and still its tie-breaks: the levels are now built one
    color class at a time and the path is walked back on the adjacency
    masks.

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
        return list(itertools.islice(iter_colorings(g, depth + 2), 1000))

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
    search loops moved into oracle.py. The induced and rainbow records were
    re-recorded when those searches gained their open-vertex bound: every
    full-budget path and exactness stayed, and only node counts (and so
    the half budgets) dropped. They were re-recorded again when that bound
    counted one neighbor of the extension in place of all of them: every
    full-budget path and exactness stayed, and full-budget nodes went from
    6,679 to 3,799.

    Inputs: random_triangle_free(12, 0.4, seed) for seeds 0-7, under DSATUR
    colors (the rainbow search reaches the palette) and all-distinct colors
    (it never does). Each search runs at the full budget, then at half its
    own node count with on_exceed='flag', so the cut-off best path and the
    node accounting are pinned as well. The most-colorful records were
    re-recorded when that search gained its full-palette exit and its
    length-aware color bound: every full-budget path and exactness stayed,
    and full-budget nodes went from 648 to 398. The half records were
    re-recorded when a cut search stopped counting the extension past its
    budget: every path and exactness stayed, and each cut search's nodes
    fell by one, to its budget.
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


class TestBudgetAccounting:
    """A search spends at most its budget: on a budget below the nodes the
    full search spends it is cut there, inexact, and on any larger budget
    it is the full search."""

    @pytest.mark.parametrize("search", TestFrozenSearches.SEARCHES)
    @pytest.mark.parametrize("graph", ["petersen", "c5", "random0", "random1", "random2"])
    def test_nodes_never_exceed_the_budget(self, request, search, graph):
        g = (request.getfixturevalue(graph) if not graph.startswith("random")
             else random_triangle_free(10, 0.4, seed=int(graph[-1])))
        fn = TestFrozenSearches.SEARCHES[search]
        for cg in (ColoredGraph(g, dsatur_coloring(g)),
                   ColoredGraph(g, Coloring(tuple(range(1, g.n + 1))))):
            full = fn(cg, SearchBudget())
            for max_nodes in range(1, full.nodes + 2):
                result = fn(cg, SearchBudget(max_nodes=max_nodes, on_exceed="flag"))
                assert result.nodes == min(max_nodes, full.nodes)
                assert result.exact == (max_nodes >= full.nodes)
                if result.exact:
                    assert result == full


class TestFrozenMostColorful:
    """(vertices, nodes, exact) of max_colorful_induced_path_from, frozen
    before its color bound was computed from color-class masks and tested
    before the push.

    Inputs: every start vertex of random_triangle_free(n, 0.35, n) for n in
    14, 16, 18, 20 and 22, under DSATUR colors and under
    helpers.random_proper_coloring seeded with n (palette 6-8, sparse ids).
    Each search runs at the full budget and, with on_exceed='flag', at 1,
    half and one less than its own node count (those of them that are
    positive, once each), so a node counted or pruned in a different place
    shows in the cut-off path or the node count. The node counts and cut
    records were re-recorded when the search gained its full-palette exit
    and its length-aware color bound: every full-budget path and exactness
    stayed, and full-budget nodes went from 39,310 to 13,327. The cut
    records were re-recorded when a cut search stopped counting the
    extension past its budget: every path and exactness stayed, and each
    cut record's nodes fell by one, to its budget.
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
