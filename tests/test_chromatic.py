import inspect
import itertools
import json
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowpath import (
    Coloring,
    GraphError,
    build_graph,
    canonical_form,
    chromatic_number,
    cycle_graph,
    dsatur_coloring,
    is_proper,
    iter_colorings,
    mycielski_iterates,
    petersen_graph,
    random_triangle_free,
)
from rainbowpath import chromatic
from rainbowpath.chromatic import TooLargeError, _k_colorable, _odd_cycle
from rainbowpath.graphs import _proper_classes
from helpers import (
    dense_graph,
    every_graph,
    is_bipartite_bfs,
    naive_canonical_colorings,
    naive_chromatic_number,
    naive_dsatur,
    naive_is_proper,
    naive_k_colorable,
)
from test_graphs import graphs


class TestDsatur:
    def test_edgeless(self):
        assert dsatur_coloring(build_graph(4, [])).palette_size == 1

    def test_c5_needs_three(self, c5):
        coloring = dsatur_coloring(c5)
        assert is_proper(c5, coloring)
        assert coloring.palette_size == 3

    def test_k2(self, k2):
        assert dsatur_coloring(k2).palette_size == 2

    @given(graphs())
    def test_always_proper_and_at_least_chi(self, g):
        coloring = dsatur_coloring(g)
        assert is_proper(g, coloring)
        assert coloring.palette_size >= chromatic_number(g).chi
        assert coloring == naive_dsatur(g)

    def test_matches_naive_on_every_graph_on_five_vertices(self):
        for g in every_graph(5):
            assert dsatur_coloring(g) == naive_dsatur(g)

    def test_matches_naive_on_frozen_colorability_graphs(self):
        seen = set()
        for case in TestFrozenColorability.CASES:
            g = TestFrozenColorability._graph(case)
            if g not in seen:
                seen.add(g)
                assert dsatur_coloring(g) == naive_dsatur(g)
        assert len(seen) == 54

    def test_deep_odd_cycle(self):
        # as many vertices on one descent as the cycle has
        g = cycle_graph(3001)
        coloring = dsatur_coloring(g)
        assert is_proper(g, coloring)
        assert coloring.palette_size == 3


class TestChromaticNumber:
    def test_c5(self, c5):
        result = chromatic_number(c5)
        assert result.chi == 3
        assert is_proper(c5, result.witness)
        assert result.witness.palette_size == 3
        kind, cycle = result.lower_bound_certificate
        assert kind == "odd_cycle" and len(cycle) % 2 == 1

    def test_grotzsch(self, grotzsch):
        assert grotzsch.n == 11 and grotzsch.edge_count == 20
        assert chromatic_number(grotzsch).chi == 4

    def test_edgeless(self):
        # no edge, so no certificate: the search starts at k = 1, where
        # every vertex takes color 1
        for n in range(1, 7):
            result = chromatic_number(build_graph(n, []))
            assert result.chi == 1
            assert result.witness == Coloring((1,) * n)
            assert result.lower_bound_certificate is None

    def test_empty_graph(self):
        # no vertex, so no certificate: the search starts at k = 0, where
        # the empty coloring is proper
        result = chromatic_number(build_graph(0, []))
        assert result.chi == 0
        assert result.witness == Coloring(()) and result.lower_bound_certificate is None

    def test_dsatur_optimal_keeps_dsatur_witness(self):
        # DSATUR is optimal on every graph on five vertices: at k = chi no
        # saturation on its descent reaches chi, so the search never backs
        # up and its first coloring is DSATUR's own
        for g in every_graph(5):
            upper = dsatur_coloring(g)
            result = chromatic_number(g)
            assert (result.chi, result.witness) == (upper.palette_size, upper)

    @pytest.mark.parametrize("edges", [
        [(0, 3), (0, 5), (0, 6), (1, 2), (1, 4), (1, 5), (2, 4), (2, 6), (3, 5), (4, 6)],
        [(0, 3), (0, 4), (0, 6), (1, 3), (1, 5), (1, 7), (2, 3), (2, 4), (2, 8), (4, 5),
         (4, 7), (5, 8), (6, 7), (6, 8)],
    ], ids=["triangle", "odd_cycle"])
    def test_chi_at_the_lower_bound_below_dsatur(self, edges):
        # frozen from a seeded random search: DSATUR needs 4 colors and chi
        # is 3, the odd-cycle bound, here a triangle {0, 3, 5} (n = 7) or,
        # triangle-free, a longer odd cycle (n = 9), so the search must try
        # k = lb itself
        g = build_graph(max(max(e) for e in edges) + 1, edges)
        assert dsatur_coloring(g).palette_size == 4
        result = chromatic_number(g)
        assert result.chi == 3 and result.lower_bound_certificate[0] == "odd_cycle"
        assert is_proper(g, result.witness) and result.witness.palette_size == 3

    @staticmethod
    def _certificate_graphs():
        """Every labelled graph on at most 6 vertices, the Mycielski iterates
        up to Mycielski-3 and 21 random triangle-free graphs, n = 10..30."""
        for n in range(7):
            yield from every_graph(n)
        yield from mycielski_iterates(3)
        for n in range(10, 31):
            yield random_triangle_free(n, 0.3, seed=n)

    def test_every_certificate_proves_its_bound(self):
        # an edge proves chi >= 2 and is given only where chi is 2; an odd
        # cycle proves chi >= 3
        for g in self._certificate_graphs():
            result = chromatic_number(g)
            certificate = result.lower_bound_certificate
            assert (certificate is None) == (g.edge_count == 0)
            if certificate is None:
                continue
            kind, vertices = certificate
            if kind == "clique":
                u, v = vertices
                assert u < v and g.has_edge(u, v) and result.chi == 2
            else:
                assert kind == "odd_cycle"
                assert len(vertices) % 2 == 1 and len(vertices) >= 3
                assert len(set(vertices)) == len(vertices)
                assert all(g.has_edge(vertices[i - 1], vertices[i]) for i in range(len(vertices)))
                assert result.chi >= 3

    @pytest.mark.parametrize("depth, ks", [
        (0, [2]), (1, [3]), (2, [3, 4]), (3, [3, 4, 5]), (4, [3, 4, 5, 6]),
    ], ids=[f"mycielski-{depth}" for depth in range(5)])
    def test_one_upward_search(self, monkeypatch, depth, ks):
        # k runs from the certificate's bound up to chi and no further: no
        # search at k = n for an upper bound
        calls = []

        def recorder(g, k):
            calls.append(k)
            return _k_colorable(g, k)

        monkeypatch.setattr(chromatic, "_k_colorable", recorder)
        result = chromatic._chromatic_number.__wrapped__(mycielski_iterates(depth)[-1])
        assert calls == ks and result.chi == ks[-1]

    def test_witness_is_the_first_coloring_at_chi(self):
        # and DSATUR's own coloring wherever DSATUR is optimal
        for g in self._certificate_graphs():
            result = chromatic_number(g)
            assert result.witness == _k_colorable(g, result.chi)
            upper = dsatur_coloring(g)
            if upper.palette_size == result.chi:
                assert result.witness == upper

    def test_cap(self):
        with pytest.raises(TooLargeError):
            chromatic_number(build_graph(70, []))

    def test_one_search_per_graph_whatever_the_call_style(self):
        g = random_triangle_free(13, 0.3, seed=102)
        before = chromatic_number.cache_info()
        results = {chromatic_number(g), chromatic_number(g=g), chromatic_number(g)}
        after = chromatic_number.cache_info()
        assert len(results) == 1
        assert after.misses - before.misses == 1
        assert after.hits - before.hits == 2

    @pytest.mark.parametrize("depth", range(5))
    def test_mycielski_iterates(self, depth):
        g = mycielski_iterates(depth)[-1]
        result = chromatic_number(g)
        assert result.chi == depth + 2
        assert is_proper(g, result.witness)
        assert result.witness.palette_size == result.chi

    @given(graphs(max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, g):
        result = chromatic_number(g)
        assert result.chi == naive_chromatic_number(g)
        assert is_proper(g, result.witness)
        assert result.witness.palette_size == result.chi

    @given(graphs())
    def test_bipartite_iff_chi_at_most_two(self, g):
        chi = chromatic_number(g).chi
        assert (chi <= 2) == is_bipartite_bfs(g)
        if g.edge_count:
            assert chi >= 2

    @given(graphs(max_n=7), st.data())
    @settings(max_examples=40, deadline=None)
    def test_vertex_deletion_monotone(self, g, data):
        from rainbowpath import induced_subgraph

        v = data.draw(st.integers(0, g.n - 1))
        rest = [u for u in range(g.n) if u != v]
        smaller = induced_subgraph(g, rest)
        assert chromatic_number(smaller).chi <= chromatic_number(g).chi


class TestOddCycleCertificate:
    """_odd_cycle(g) is None exactly when g is bipartite, and otherwise an
    odd cycle of g: distinct vertices, each adjacent to the next and the
    last to the first."""

    @staticmethod
    def _check(g):
        cycle = _odd_cycle(g)
        assert (cycle is None) == is_bipartite_bfs(g)
        if cycle is not None:
            assert len(cycle) % 2 == 1 and len(set(cycle)) == len(cycle)
            assert all(g.has_edge(cycle[i - 1], cycle[i]) for i in range(len(cycle)))

    @given(graphs())
    @settings(max_examples=300)
    def test_random_graphs(self, g):
        # about 2% of draws separate a scan of each layer's lowest vertex
        # alone from the full scan, so 100 examples would often miss it
        self._check(g)

    def test_every_graph_on_five_vertices(self):
        for g in every_graph(5):
            self._check(g)

    @pytest.mark.parametrize("n", range(3, 40))
    def test_cycles(self, n):
        self._check(cycle_graph(n))

    @pytest.mark.parametrize("depth", range(5))
    def test_mycielski_iterates(self, depth):
        self._check(mycielski_iterates(depth)[-1])

    @pytest.mark.parametrize("g, cycle", [
        (cycle_graph(5), (2, 1, 0, 4, 3)),
        (petersen_graph(), (1, 9, 0, 8, 5)),
        (mycielski_iterates(2)[-1], (2, 1, 0, 3, 4)),
        (mycielski_iterates(3)[-1], (2, 1, 0, 3, 4)),
        (dense_graph(12, 0.2, 4), (1, 4, 0, 5, 3)),
        (dense_graph(16, 0.15, 2), (9, 8, 1, 7, 11)),
    ], ids=["C5", "petersen", "grotzsch", "mycielski-3", "dense-12", "dense-16"])
    def test_frozen_certificates(self, g, cycle):
        # the tie-breaks frozen: the first vertex with a neighbor in its own
        # layer, its smallest such neighbor, then smallest predecessors back
        # to where the two walks join (at vertex 1, not the root, on dense-16)
        assert _odd_cycle(g) == cycle


def vertex_choices(g, k):
    """_k_colorable(g, k) and the number of vertices its search picks: the
    root choice, plus one for each frame its loop pushes before it picks the
    next vertex. Pushes are counted as line events on the line that pushes,
    found by its source text, so that the search carries no counter of its
    own."""
    lines, first = inspect.getsourcelines(_k_colorable)
    (push,) = [first + i for i, line in enumerate(lines) if "stack.append(" in line]
    pushes = 0

    def local(frame, event, arg):
        nonlocal pushes
        if event == "line" and frame.f_lineno == push:
            pushes += 1
        return local

    def trace(frame, event, arg):
        return local if frame.f_code is _k_colorable.__code__ else None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        witness = _k_colorable(g, k)
    finally:
        sys.settrace(previous)
    return witness, 1 + pushes


class TestFrozenColorability:
    """_k_colorable(g, k), the witness colors or None, frozen before the
    search moved to saturation-level bitmasks (k = 2..5) and before it moved
    to bit-sliced saturation counters (k = 1, 7, 8, 9); and the number of
    vertex choices it makes, frozen with the bit-sliced search and
    re-recorded when it gained its free-color cut, which moved only
    Mycielski-3 at k = 4 and none of the witnesses. Both the witnesses and
    the counts held, unchanged, when the counters gave way to thermometer
    saturation planes in one int.

    Inputs: random_triangle_free(n, 0.35, seed) for n = 14..28 even and
    seeds 0-4, plus Groetzsch and Mycielski-3, each at k = 1..5 and 7..9;
    and dense G(n, 0.75) graphs (`dense_graph`) for n = 16..22 even and
    seeds 0-2, whose chromatic numbers 7..10 straddle k = 7, 8 and 9, at
    k = 1, 7, 8, 9. A bit-sliced saturation up to k took 1, 3 and 4 bits
    at k = 1, 7 and 8..9. The first coloring found depends on the vertex
    and color choices on its own branch, and a None on none of them; the
    choice count also pins the branches given up, so a search that notices
    a wipeout a level late, and finds the same witness, fails here.
    """

    CASES = json.loads((Path(__file__).parent / "data" / "frozen_colorability.json").read_text(encoding="ascii"))

    @staticmethod
    def _graph(case):
        if case["graph"] == "random":
            return random_triangle_free(case["n"], 0.35, seed=case["seed"])
        if case["graph"] == "dense":
            return dense_graph(case["n"], 0.75, case["seed"])
        return mycielski_iterates({"grotzsch": 2, "mycielski3": 3}[case["graph"]])[-1]

    @pytest.mark.parametrize(
        "case",
        CASES,
        ids=[f"{c['graph']}-{c.get('n', '')}-{c.get('seed', '')}-k{c['k']}" for c in CASES],
    )
    def test_witness_unchanged(self, case):
        witness = _k_colorable(self._graph(case), case["k"])
        assert (None if witness is None else list(witness.colors)) == case["colors"]

    @pytest.mark.parametrize(
        "case",
        CASES,
        ids=[f"{c['graph']}-{c.get('n', '')}-{c.get('seed', '')}-k{c['k']}" for c in CASES],
    )
    def test_vertex_choices_unchanged(self, case):
        _, choices = vertex_choices(self._graph(case), case["k"])
        assert choices == case["choices"]


class TestKColorable:
    @given(graphs())
    @settings(deadline=None)
    def test_first_coloring_matches_naive_search(self, g):
        # the search's cuts give up only branches that hold no coloring, so
        # its first coloring, or None, is that of the search without them
        for k in range(1, 7):
            assert _k_colorable(g, k) == naive_k_colorable(g, k)

    def test_first_coloring_matches_naive_search_on_frozen_cases(self):
        # Groetzsch and Mycielski-3 among them; small hypothesis graphs
        # seldom back up before their first coloring, but some of the
        # random ones at k = 3 do, so a cut that gives up a coloring shows
        for case in TestFrozenColorability.CASES:
            g = TestFrozenColorability._graph(case)
            assert _k_colorable(g, case["k"]) == naive_k_colorable(g, case["k"]), case
        # dense random graphs at k = chi - 1 and chi back up often: a cut
        # that backs up past every frame, or past frames that newly forbid
        # a single vertex, disagrees with the naive search on a few of these
        cases = [(n, 0.5, seed, k) for n in range(10, 17) for seed in range(10)
                 for k in (-1, 0)]
        # the latter cut, with forbid undone on every frame it backs past,
        # gives up a coloring on these two only, of 1,920 such graphs
        cases += [(17, 0.6, 2, 0), (18, 0.6, 7, 0)]
        for n, p, seed, offset in cases:
            g = random_triangle_free(n, p, seed)
            k = chromatic_number(g).chi + offset
            assert _k_colorable(g, k) == naive_k_colorable(g, k), (n, p, seed, k)

    @staticmethod
    def _check_dsatur_above_max_degree(g):
        # with more colors than the largest degree no saturation reaches k,
        # so every such k takes DSATUR's descent; the saturation planes stop
        # at the largest degree, and from k = max degree + 2 on the wipeout
        # test reads past the top plane
        greedy = dsatur_coloring(g)
        assert greedy == naive_dsatur(g)
        for k in range(max(map(g.degree, range(g.n))) + 1, g.n + 1):
            assert _k_colorable(g, k) == greedy, k

    @given(graphs())
    @settings(deadline=None)
    def test_dsatur_descent_above_max_degree(self, g):
        self._check_dsatur_above_max_degree(g)

    @pytest.mark.parametrize("g", [random_triangle_free(64, 0.1, seed) for seed in range(3)]
                             + [dense_graph(60, 0.5, seed) for seed in range(3)],
                             ids=[f"triangle-free-64-{s}" for s in range(3)]
                             + [f"dense-60-{s}" for s in range(3)])
    def test_dsatur_descent_above_max_degree_on_large_graphs(self, g):
        self._check_dsatur_above_max_degree(g)

    def test_deep_even_cycle(self):
        # a descent of 3,000 vertices, deeper than a recursive search can go
        g = cycle_graph(3000)
        witness = _k_colorable(g, 2)
        assert witness is not None and is_proper(g, witness)
        assert set(witness.colors) == {1, 2}

    def test_deep_odd_cycle(self):
        assert _k_colorable(cycle_graph(3001), 2) is None

    def test_every_graph_on_five_vertices(self):
        # k-colorable exactly when k >= chi by brute force, with a proper
        # witness on colors 1..k
        for g in every_graph(5):
            chi = naive_chromatic_number(g)
            for k in range(1, 6):
                witness = _k_colorable(g, k)
                assert (witness is not None) == (k >= chi)
                if witness is not None:
                    assert naive_is_proper(g, witness)
                    assert set(witness.colors) <= set(range(1, k + 1))


class TestEnumerateColorings:
    def test_k2_single_canonical(self, k2):
        assert [cg.coloring.colors for cg in iter_colorings(k2, 2)] == [(1, 2)]

    def test_c5_matches_brute_force(self, c5):
        expected = naive_canonical_colorings(c5, 3)
        emitted = [cg.coloring.colors for cg in iter_colorings(c5, 3)]
        assert set(emitted) == expected
        # thirty proper 3-colorings collapse to five canonical classes
        assert len(emitted) == 5

    def test_path3_matches_brute_force(self):
        p3 = build_graph(3, [(0, 1), (1, 2)])
        emitted = [cg.coloring.colors for cg in iter_colorings(p3, 2)]
        assert set(emitted) == naive_canonical_colorings(p3, 2)
        assert len(emitted) == 1

    def test_infeasible_palette_is_empty(self, c5):
        assert list(iter_colorings(c5, 2)) == []

    def test_empty_graph_has_one_coloring_on_zero_colors(self, c5):
        empty = build_graph(0, [])
        assert [[cg.coloring.colors for cg in iter_colorings(empty, k)] for k in (-1, 0, 1, 2)] == [
            [], [()], [()], [()]]
        assert [list(iter_colorings(c5, k)) for k in (-1, 0)] == [[], []]

    def test_deep_even_cycle(self):
        # 3,000 vertices, deeper than a recursive enumeration can go; the
        # one canonical 2-coloring alternates
        assert [cg.coloring.colors for cg in iter_colorings(cycle_graph(3000), 2)] == [(1, 2) * 1500]

    def test_deep_odd_cycle(self):
        assert list(iter_colorings(cycle_graph(3001), 2)) == []

    def test_palette_beyond_n_allocates_nothing_for_it(self):
        # no coloring of 5 vertices uses more than 5 colors, so a cap of a
        # million colors emits what a cap of 5 does, in O(n) memory
        tracemalloc.start()
        try:
            emitted = list(iter_colorings(cycle_graph(5), 10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert emitted == list(iter_colorings(cycle_graph(5), 5))

    @given(graphs(max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_emissions_proper_canonical_and_complete(self, g):
        max_colors = 3
        emitted = [cg.coloring for cg in iter_colorings(g, max_colors)]
        for coloring in emitted:
            assert is_proper(g, coloring)
            assert canonical_form(coloring) == coloring
        seen = {c.colors for c in emitted}
        assert len(seen) == len(emitted)
        assert seen == naive_canonical_colorings(g, max_colors)
        assert [c.colors for c in emitted] == sorted(seen)

    def test_lexicographic_order(self, c5):
        emitted = [cg.coloring.colors for cg in iter_colorings(c5, 3)]
        assert emitted == sorted(emitted)

    @staticmethod
    def assert_tables_proved(g, emitted):
        """Each emitted ColoredGraph is of g, its coloring is proper by the
        pairwise reference, and its class table is the one the properness
        check builds, in the same key order."""
        for cg in emitted:
            assert cg.graph is g
            assert naive_is_proper(g, cg.coloring)
            assert list(cg.classes.items()) == list(_proper_classes(g, cg.coloring).items())

    def test_class_tables_on_every_graph_on_five_vertices(self):
        # every labelled graph on at most 5 vertices at every palette up to
        # 5: the enumeration's tables are those of the validating
        # constructor, and the colorings are still the brute-force ones (a
        # canonical coloring uses at most k colors when its largest is k)
        for n in range(6):
            for g in every_graph(n):
                expected = naive_canonical_colorings(g, 5)
                for max_colors in range(6):
                    emitted = list(iter_colorings(g, max_colors))
                    self.assert_tables_proved(g, emitted)
                    assert ({cg.coloring.colors for cg in emitted}
                            == {c for c in expected if max(c, default=0) <= max_colors})

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_class_tables_on_the_sweep(self, depth):
        # the first 1,000 colorings the sweep takes of each Mycielski iterate
        g = mycielski_iterates(3)[depth]
        emitted = list(itertools.islice(iter_colorings(g, depth + 2), 1000))
        assert len(emitted) == (1, 5, 520, 1000)[depth]
        self.assert_tables_proved(g, emitted)
