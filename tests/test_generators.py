import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowpath import (
    GraphError,
    build_graph,
    chromatic_number,
    cycle_graph,
    is_triangle_free,
    kneser_graph,
    mycielski_iterates,
    mycielskian,
    random_triangle_free,
)
from rainbowpath.cli import _GENERATORS, build_parser
from test_graphs import graphs


class TestMycielskian:
    def test_k2_gives_five_cycle(self, k2):
        m = mycielskian(k2)
        assert m.n == 5 and m.edge_count == 5
        assert all(m.degree(v) == 2 for v in range(5))
        assert chromatic_number(m).chi == 3

    def test_c5_gives_grotzsch_size(self, c5):
        m = mycielskian(c5)
        assert m.n == 11 and m.edge_count == 20
        assert chromatic_number(m).chi == 4

    def test_single_vertex(self):
        m = mycielskian(build_graph(1, []))
        assert m.n == 3 and m.edge_count == 1

    @given(graphs(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_size_triangle_freeness_and_chi(self, g):
        m = mycielskian(g)
        assert m.n == 2 * g.n + 1
        assert m.edge_count == 3 * g.edge_count + g.n
        assert is_triangle_free(m) == is_triangle_free(g)
        if chromatic_number(g).chi <= 4:
            assert chromatic_number(m).chi == chromatic_number(g).chi + 1

    def test_iterates_chain(self):
        chain = mycielski_iterates(3)
        assert [g.n for g in chain] == [2, 5, 11, 23]
        assert [chromatic_number(g).chi for g in chain] == [2, 3, 4, 5]
        assert all(is_triangle_free(g) for g in chain)


class TestKneser:
    def test_petersen(self):
        g = kneser_graph(5, 2)
        assert g.n == 10 and g.edge_count == 15
        assert all(g.degree(v) == 3 for v in range(10))
        assert is_triangle_free(g)

    def test_k2(self):
        g = kneser_graph(2, 1)
        assert g.n == 2 and g.edge_count == 1

    def test_perfect_matching(self):
        g = kneser_graph(4, 2)
        assert g.n == 6 and g.edge_count == 3
        assert all(g.degree(v) == 1 for v in range(6))

    def test_triangle_free_below_three_k(self):
        for n, k in [(5, 2), (7, 3), (8, 3)]:
            assert is_triangle_free(kneser_graph(n, k)) == (n < 3 * k)

    def test_invalid_parameters(self):
        with pytest.raises(GraphError):
            kneser_graph(3, 2)


class TestRandomTriangleFree:
    def test_p_zero_edgeless(self):
        assert random_triangle_free(8, 0.0, seed=1).edge_count == 0

    def test_triangle_always_rejected(self):
        for seed in range(10):
            g = random_triangle_free(3, 1.0, seed)
            assert g.edge_count == 2

    def test_reproducible(self):
        a = random_triangle_free(10, 0.5, seed=42)
        b = random_triangle_free(10, 0.5, seed=42)
        assert a == b
        assert is_triangle_free(a)

    def test_different_seed_usually_differs(self):
        a = random_triangle_free(12, 0.5, seed=1)
        b = random_triangle_free(12, 0.5, seed=2)
        assert a != b

    @given(st.integers(0, 12), st.floats(0, 1), st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_always_triangle_free(self, n, p, seed):
        assert is_triangle_free(random_triangle_free(n, p, seed))

    def test_invalid_probability(self):
        with pytest.raises(GraphError):
            random_triangle_free(5, 1.5, seed=0)

    def test_negative_vertex_count(self):
        with pytest.raises(GraphError, match="^vertex count must be non-negative$"):
            random_triangle_free(-1, 0.3, seed=0)


class TestGeneratorSpec:
    """The generate command's --kind table: parsed arguments -> the graphs it emits."""

    @staticmethod
    def emitted(*argv):
        args = build_parser().parse_args(["generate", *argv])
        return list(_GENERATORS[args.kind](args))

    def test_cycle(self):
        assert self.emitted("--kind", "cycle", "--n", "5") == [cycle_graph(5)]

    def test_mycielski_family(self):
        out = self.emitted("--kind", "mycielskian-iterate", "--depth", "2")
        assert [g.n for g in out] == [2, 5, 11]
