import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowpath import build_graph, cycle_graph, decode_graph6, encode_graph6, petersen_graph
from rainbowpath.graph6 import Graph6Error
from helpers import dense_graph
from test_graphs import graphs


def nx_encode(g) -> str:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return nx.to_graph6_bytes(G, header=False).decode().strip()


class TestFixtures:
    def test_hand_decoded_star(self):
        # 'D' -> n=5; body '?{' -> bits 000000 111100 -> edges to vertex 4 only
        g = decode_graph6("D?{")
        assert g.n == 5
        assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]

    def test_single_vertex(self):
        assert encode_graph6(build_graph(1, [])) == "@"
        assert decode_graph6("@").n == 1

    def test_empty_graph(self):
        empty = build_graph(0, [])
        assert encode_graph6(empty) == "?"
        assert decode_graph6("?") == empty

    def test_header_accepted(self):
        assert decode_graph6(">>graph6<<D?{").n == 5

    def test_known_families_match_networkx(self, petersen, grotzsch):
        for g in (cycle_graph(5), petersen, grotzsch, build_graph(2, [(0, 1)])):
            assert encode_graph6(g) == nx_encode(g)

    def test_long_form_size(self):
        g = build_graph(70, [(0, 69)])
        text = encode_graph6(g)
        assert text.startswith("~")
        assert decode_graph6(text) == g

    @pytest.mark.parametrize("text", ["@", "~??@", "~~?????@"])
    def test_each_size_form_decodes(self, text):
        # n = 1 in the 6-, 18- and 36-bit size forms
        assert decode_graph6(text) == build_graph(1, [])

    @pytest.mark.parametrize("n", [62, 63])
    def test_size_form_boundary_matches_networkx(self, n):
        # 62 is the largest n of the short size form, 63 the smallest of the long
        g = dense_graph(n, 0.3, seed=n)
        text = encode_graph6(g)
        assert text.startswith("~") == (n == 63)
        assert text == nx_encode(g)
        assert decode_graph6(text) == g
        G = nx.from_graph6_bytes(text.encode())
        assert sorted(G.nodes) == list(range(n))
        assert sorted(tuple(sorted(e)) for e in G.edges) == sorted(g.edges())


class TestErrors:
    def test_illegal_byte(self):
        with pytest.raises(Graph6Error, match="illegal graph6 byte 31"):
            decode_graph6("D?\x1f")

    def test_wrong_body_length(self):
        with pytest.raises(Graph6Error, match="body has 1 bytes, expected 2 for n=5"):
            decode_graph6("D?")

    def test_nonzero_padding(self):
        # n=3 needs 3 bits; '~' = 63+63 sets all six bits including padding
        with pytest.raises(Graph6Error, match="nonzero padding bits"):
            decode_graph6("B~")

    def test_empty_string(self):
        with pytest.raises(Graph6Error, match="empty graph6 string"):
            decode_graph6("")

    def test_truncated_18_bit_size(self):
        with pytest.raises(Graph6Error, match="truncated 18-bit size field"):
            decode_graph6("~?")

    def test_truncated_36_bit_size(self):
        with pytest.raises(Graph6Error, match="truncated 36-bit size field"):
            decode_graph6("~~??")


class TestRoundTrip:
    def test_k2(self, k2):
        assert decode_graph6(encode_graph6(k2)) == k2

    def test_petersen(self, petersen):
        assert decode_graph6(encode_graph6(petersen)) == petersen

    @given(st.one_of(graphs(max_n=12), st.builds(
        dense_graph, st.integers(60, 70), st.floats(0, 1), st.integers(0, 2**32))))
    @settings(max_examples=80)
    def test_round_trip_and_networkx_agreement(self, g):
        text = encode_graph6(g)
        assert decode_graph6(text) == g
        assert text == nx_encode(g)
