import dataclasses
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowpath import (
    ColoredGraph,
    Coloring,
    Grading,
    OutcomeKind,
    build_graph,
    chromatic_number,
    classify_path,
    dsatur_coloring,
    grading_from_partition,
    iter_colorings,
    mycielski_iterates,
    rainbow_or_witness,
    random_triangle_free,
    refine_grading,
    singleton_grading,
    validate_grading,
)
from rainbowpath.grading import GradingError, Witness, verify_witness_outcome

from helpers import naive_longest_directed_path, random_proper_coloring
from test_graphs import graphs

DATA = Path(__file__).parent / "data"


def random_grading(g, rng):
    """Random ordered partition of V(g), each part colored greedily."""
    vertices = list(range(g.n))
    rng.shuffle(vertices)
    parts = []
    i = 0
    while i < len(vertices):
        size = rng.randint(1, max(1, g.n // 2))
        parts.append(sorted(vertices[i: i + size]))
        i += size
    return grading_from_partition(g, parts)


def random_colored(g, rng):
    base = dsatur_coloring(g)
    palette = sorted(set(base.colors))
    shuffled = palette[:]
    rng.shuffle(shuffled)
    rename = dict(zip(palette, shuffled))
    return ColoredGraph(g, Coloring(tuple(rename[c] for c in base.colors)))


class TestGradingValidation:
    def test_singleton_grading_valid(self, c5):
        validate_grading(c5, singleton_grading(c5))

    def test_whole_graph_grading(self, c5):
        gr = Grading(parts=(tuple(range(5)),), part_colorings=((1, 2, 1, 2, 3),), k=3)
        validate_grading(c5, gr)

    @pytest.mark.parametrize("n, edges, parts, k", [
        (0, [], [[]], 1),
        (2, [], [[1], [], [0]], 1),
        (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], [[], [4, 0, 1, 2, 3], []], 3),
    ])
    def test_partition_k_ignores_empty_parts(self, n, edges, parts, k):
        # an empty part needs no color, so k is the largest palette of a
        # nonempty part, and 1 when there is none
        grading = grading_from_partition(build_graph(n, edges), parts)
        assert grading.k == k
        assert [len(c) for c in grading.part_colorings] == [len(p) for p in parts]

    def test_overlap_rejected(self, c5):
        gr = Grading(parts=((0, 1), (1, 2, 3, 4)), part_colorings=((1, 2), (1, 2, 1, 2)), k=2)
        with pytest.raises(GradingError):
            validate_grading(c5, gr)

    def test_missing_vertex_rejected(self, c5):
        gr = Grading(parts=((0, 1, 2),), part_colorings=((1, 2, 1),), k=2)
        with pytest.raises(GradingError):
            validate_grading(c5, gr)

    def test_improper_part_coloring_rejected(self, c5):
        gr = Grading(parts=((0, 1, 2, 3, 4),), part_colorings=((1, 1, 1, 2, 3),), k=3)
        with pytest.raises(GradingError):
            validate_grading(c5, gr)

    def test_color_outside_range_rejected(self, c5):
        gr = Grading(parts=((0, 1, 2, 3, 4),), part_colorings=((1, 2, 1, 2, 3),), k=2)
        with pytest.raises(GradingError):
            validate_grading(c5, gr)

    @pytest.mark.parametrize("parts, part_colorings, k, message", [
        pytest.param(((0, 1, 2, 3, 4),), ((1, 2, 1, 2, 3),), 0, "k must be positive",
                     id="k-below-one"),
        pytest.param(((0, 1, 2), (3, 4)), ((1, 2, 1),), 2, "each part needs exactly one coloring",
                     id="part-count"),
        pytest.param(((0, 1, 2), (3, 4)), ((1, 2, 1), (1,)), 2, "part coloring length mismatch",
                     id="part-length"),
        pytest.param(((0, 1, 2), (3, 5)), ((1, 2, 1), (1, 2)), 2, "vertex 5 not in graph",
                     id="vertex-out-of-range"),
    ])
    def test_malformed_grading_rejected(self, c5, parts, part_colorings, k, message):
        gr = Grading(parts=parts, part_colorings=part_colorings, k=k)
        with pytest.raises(GradingError, match=f"^{message}$"):
            validate_grading(c5, gr)


class TestRefineGrading:
    def test_single_part_gives_color_classes(self, c5, c5_colored):
        gr = Grading(parts=(tuple(range(5)),), part_colorings=((1, 2, 1, 2, 3),), k=3)
        assert refine_grading(c5_colored, gr) == ((0, 2), (1, 3), (4,))

    def test_singleton_parts_single_class(self, c5, c5_colored):
        assert refine_grading(c5_colored, singleton_grading(c5)) == ((0, 1, 2, 3, 4),)

    def test_two_part_example(self, c5, c5_colored):
        gr = Grading(
            parts=((0, 1, 2), (3, 4)),
            part_colorings=((1, 2, 1), (1, 2)),
            k=2,
        )
        classes = refine_grading(c5_colored, gr)
        assert classes == ((0, 2, 3), (1, 4))
        assert 0 in gr.parts[0] and 0 in classes[0]
        assert 4 in gr.parts[1] and 4 in classes[1]

    def test_classes_meet_parts_independently(self, c5, c5_colored):
        gr = Grading(
            parts=((0, 1, 2), (3, 4)),
            part_colorings=((1, 2, 1), (1, 2)),
            k=2,
        )
        g = c5
        for cls in refine_grading(c5_colored, gr):
            for i in range(len(gr.parts)):
                inside = [v for v in cls if v in gr.parts[i]]
                for a in inside:
                    for b in inside:
                        assert a == b or not g.has_edge(a, b)


class TestProcedureOutcomes:
    def test_c5_returns_verified_outcome(self, c5, c5_colored):
        outcome = rainbow_or_witness(c5_colored, singleton_grading(c5), 3)
        assert outcome.kind is OutcomeKind.RAINBOW_PATH
        report = classify_path(c5_colored, outcome.rainbow_path.vertices)
        assert report.is_induced and report.is_rainbow and report.order == 3

    def test_star_witness_family(self):
        for s in (3, 4, 5):
            star = build_graph(s + 1, [(0, i) for i in range(1, s + 1)])
            cg = ColoredGraph(star, Coloring(tuple([s + 1] + list(range(1, s + 1)))))
            gr = Grading(
                parts=((0,), tuple(range(1, s + 1))),
                part_colorings=((1,), (1,) * s),
                k=1,
            )
            outcome = rainbow_or_witness(cg, gr, s)
            assert outcome.kind is OutcomeKind.WITNESS
            assert outcome.witness.vertex == 0
            assert outcome.witness.later_neighbors == tuple(range(1, s + 1))
            assert verify_witness_outcome(cg, gr, outcome.witness, s)

    def test_witness_takes_the_smallest_id_of_each_color(self):
        # K1,4 with two leaves of color 2: the witness keeps leaf 1, the
        # smaller of them, then the leaves of colors 3 and 4
        star = build_graph(5, [(0, i) for i in range(1, 5)])
        cg = ColoredGraph(star, Coloring((1, 2, 2, 3, 4)))
        grading = singleton_grading(star)
        outcome = rainbow_or_witness(cg, grading, 3)
        assert outcome.kind is OutcomeKind.WITNESS
        assert outcome.witness == Witness(vertex=0, later_neighbors=(1, 3, 4))
        # the witness check refuses too few neighbors, a repeated one, a repeated color
        for later_neighbors in ((1, 3), (1, 1, 3), (1, 2, 3)):
            assert not verify_witness_outcome(cg, grading, Witness(0, later_neighbors), 3)

    def test_rejects_small_s(self, c5_colored, c5):
        with pytest.raises(GradingError):
            rainbow_or_witness(c5_colored, singleton_grading(c5), 2)

    def test_empty_graph_no_guarantee(self):
        g = build_graph(0, [])
        cg = ColoredGraph(g, Coloring(()))
        gr = Grading(parts=(), part_colorings=(), k=1)
        outcome = rainbow_or_witness(cg, gr, 3)
        assert outcome.kind is OutcomeKind.NO_GUARANTEE

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_one_part_grading_gives_no_guarantee(self, depth):
        # one part has no later part: every Grading.later mask is 0, so
        # neither the witness scans nor the BFS probe has a later-part step
        # (C5, Grotzsch, Mycielski-3; their chi-colorings as part colorings)
        g = mycielski_iterates(depth)[-1]
        chi = chromatic_number(g).chi
        colorings = [ColoredGraph(g, chromatic_number(g).witness),
                     *itertools.islice(iter_colorings(g, chi), 5)]
        for cg in colorings:
            gr = Grading(parts=(tuple(range(g.n)),), part_colorings=(cg.coloring.colors,), k=chi)
            validate_grading(g, gr)
            for s in range(3, chi + 2):
                assert rainbow_or_witness(cg, gr, s).kind is OutcomeKind.NO_GUARANTEE, s

    def test_k8_not_restricted_to_triangle_free(self):
        # the graded procedure is stated for arbitrary colored graphs; on a
        # complete graph the color-sorted tournament makes the first vertex
        # of the longest forward path a witness
        from itertools import combinations

        k8 = build_graph(8, list(combinations(range(8), 2)))
        cg = ColoredGraph(k8, Coloring(tuple(range(1, 9))))
        outcome = rainbow_or_witness(cg, singleton_grading(k8), 3)
        assert outcome.kind is OutcomeKind.WITNESS
        assert verify_witness_outcome(cg, singleton_grading(k8), outcome.witness, 3)


class TestTraceInvariants:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_graded_graphs(self, seed):
        rng = random.Random(seed)
        g = random_triangle_free(rng.randint(1, 13), rng.uniform(0.2, 0.6), seed)
        cg = random_colored(g, rng)
        grading = random_grading(g, rng)
        s = rng.choice((3, 4))
        outcome = rainbow_or_witness(cg, grading, s)
        tr = outcome.trace

        # orientation: every arc strictly increases color, inside the class
        members = set(tr.class_vertices)
        for u, v in tr.arcs:
            assert cg.color_of(u) < cg.color_of(v)
            assert u in members and v in members
        assert set(tr.forward_arcs) | set(tr.backward_arcs) == set(tr.arcs)
        assert not set(tr.forward_arcs) & set(tr.backward_arcs)

        # arc direction vs grading parts: forward arcs land strictly later,
        # backward arcs strictly earlier (no arc stays inside one part)
        part_of = {v: i for i, part in enumerate(grading.parts) for v in part}
        for u, v in tr.forward_arcs:
            assert part_of[v] > part_of[u]
        for u, v in tr.backward_arcs:
            assert part_of[v] < part_of[u]

        # inside a longest path's vertex set every class arc is one of its
        # side's arcs, so the witness scan and the BFS read the orientation
        for pv, side_arcs in ((tr.forward_path, tr.forward_arcs),
                              (tr.backward_path, tr.backward_arcs)):
            assert {(u, v) for u, v in tr.arcs if u in pv and v in pv} <= set(side_arcs)

        # longest directed paths are rainbow vertex sets
        for pv in (tr.forward_path, tr.backward_path):
            colors = [cg.color_of(v) for v in pv]
            assert len(set(colors)) == len(colors)

        # outcome verifiers
        if outcome.kind is OutcomeKind.RAINBOW_PATH:
            report = classify_path(cg, outcome.rainbow_path.vertices)
            assert report.is_induced and report.is_rainbow and report.order == s
        elif outcome.kind is OutcomeKind.WITNESS:
            assert verify_witness_outcome(cg, grading, outcome.witness, s)

    @given(graphs(max_n=10), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_paths_are_the_vertex_dp_paths(self, g, seed):
        # the forward and backward paths are those of the vertex-level DP on
        # the class's color orientation, its in-neighbor masks split by
        # grading order
        rng = random.Random(seed)
        cg = ColoredGraph(g, random_proper_coloring(g, rng))
        grading = random_grading(g, rng)
        tr = rainbow_or_witness(cg, grading, rng.choice((3, 4, 5))).trace
        order = sorted(tr.class_vertices, key=lambda v: (cg.color_of(v), v))
        ins = [sum(1 << u for u in tr.class_vertices
                   if g.has_edge(u, v) and cg.color_of(u) < cg.color_of(v)) for v in range(g.n)]
        earlier = {v: set(tr.pi_order[:i]) for i, v in enumerate(tr.pi_order)}
        forward = [sum(1 << u for u in earlier.get(v, ()) if m >> u & 1) for v, m in enumerate(ins)]
        backward = [m & ~f for m, f in zip(ins, forward)]
        assert tr.forward_path == naive_longest_directed_path(order, forward)
        assert tr.backward_path == naive_longest_directed_path(order, backward)

    def test_chosen_class_maximizes_chi(self, c5, c5_colored):
        outcome = rainbow_or_witness(c5_colored, singleton_grading(c5), 3)
        tr = outcome.trace
        assert tr.class_chromatic_numbers[tr.class_index] == max(tr.class_chromatic_numbers)
        sub_chi = chromatic_number(c5).chi
        assert tr.class_chromatic_numbers == (sub_chi,)


def procedure_case(seed):
    """Inputs (cg, grading, s) of one frozen procedure run.

    Seeds cycle through three kinds: Groetzsch or Mycielski-3 under one of
    their first ten canonical optimal colorings with singleton parts;
    random_triangle_free graphs under a random grading; and random graphs
    with triangles under singleton parts, where the scan of the longest
    paths' vertex sets finds witnesses. The random kinds take
    helpers.random_proper_coloring.
    """
    rng = random.Random(seed)
    kind = seed % 3
    if kind == 0:
        depth = 2 + seed // 3 % 2
        g = mycielski_iterates(3)[depth]
        cg = next(itertools.islice(iter_colorings(g, depth + 2), seed // 6, None))
        return cg, singleton_grading(g), 3 + seed // 6 % 3
    if kind == 1:
        g = random_triangle_free(rng.randint(6, 18), rng.uniform(0.2, 0.5), seed)
        cg = ColoredGraph(g, random_proper_coloring(g, rng))
        return cg, random_grading(g, rng), rng.choice((3, 4, 5))
    n = rng.randint(6, 14)
    p = rng.uniform(0.2, 0.7)
    pairs = itertools.combinations(range(n), 2)
    g = build_graph(n, [(u, v) for u, v in pairs if rng.random() < p])
    cg = ColoredGraph(g, random_proper_coloring(g, rng))
    return cg, singleton_grading(g), rng.choice((3, 4, 5))


def outcome_record(outcome):
    """The outcome and its full trace as plain JSON values."""
    return json.loads(json.dumps({
        "kind": outcome.kind.value,
        "rainbow_path": outcome.rainbow_path.vertices if outcome.rainbow_path else None,
        "witness": dataclasses.asdict(outcome.witness) if outcome.witness else None,
        "trace": dataclasses.asdict(outcome.trace),
    }))


class TestFrozenProcedure:
    """rainbow_or_witness outcomes and traces (arcs, forward and backward arcs
    and paths, BFS attempts), frozen before the forward and backward paths
    came from the longest-path DP that gallai_roy_rainbow_path then used.

    Inputs: procedure_case(seed) for seeds 0-59, and every seed in 60-1999
    whose outcome extracts a chain on the backward side or returns a witness
    from a longest path's vertex set (113 seeds), so the BFS chain's tip and
    parent tie-breaks and the path-set witness scan are pinned on both
    sides. No BFS parent path needed the exhaustive fallback on any of them.
    """

    CASES = [json.loads(line) for line in
             (DATA / "frozen_grading.jsonl").read_text(encoding="ascii").splitlines()]

    @pytest.mark.parametrize("case", CASES, ids=[str(c["seed"]) for c in CASES])
    def test_outcome_and_trace_unchanged(self, case):
        cg, grading, s = procedure_case(case["seed"])
        assert outcome_record(rainbow_or_witness(cg, grading, s)) == case["record"]

    def test_no_fallback_on_any_seed(self):
        """The BFS chain always verifies, so the exhaustive induced-path
        fallback never runs on seeds 0-1999."""
        for seed in range(2000):
            cg, grading, s = procedure_case(seed)
            attempts = rainbow_or_witness(cg, grading, s).trace.bfs_attempts
            assert not any(a.fallback_used for a in attempts), seed
