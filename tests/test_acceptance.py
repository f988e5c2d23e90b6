"""Acceptance suite: one test per release criterion, each printing a PASS
line with its measured scope. Run with `pytest tests/test_acceptance.py -v -s`.

The headline guarantees are asymptotic (the first nontrivial chromatic
threshold is already 4224), so acceptance combines exact bound arithmetic,
verification of every constructive output, and agreement with independent
brute-force oracles on desk-scale corpora.
"""

import random

import pytest

from rainbowpath import (
    ColoredGraph,
    Coloring,
    Grading,
    HarnessConfig,
    OutcomeKind,
    build_graph,
    chromatic_number,
    classify_path,
    colorful_path_from,
    compute_bounds,
    connected_components,
    cycle_graph,
    decode_graph6,
    dsatur_coloring,
    encode_graph6,
    gallai_roy_rainbow_path,
    guaranteed_length,
    is_triangle_free,
    iter_colorings,
    kneser_graph,
    longest_induced_path,
    longest_induced_rainbow_path,
    mycielski_iterates,
    petersen_graph,
    rainbow_or_witness,
    random_triangle_free,
    run_corpus,
)
from rainbowpath.grading import verify_witness_outcome
from test_colorful import check_steps
from test_grading import random_colored, random_grading
from helpers import naive_longest_induced_rainbow_path


def optimal_colorings(g, cap):
    """First `cap` canonical colorings using exactly chi colors."""
    chi = chromatic_number(g).chi
    out = []
    for cg in iter_colorings(g, chi):
        out.append(cg)
        if len(out) == cap:
            break
    return chi, out


@pytest.fixture(scope="module")
def named_corpus():
    return [cycle_graph(5), petersen_graph()] + mycielski_iterates(3)


@pytest.fixture(scope="module")
def random_corpus():
    graphs = []
    for i in range(500):
        n = 4 + i % 11  # 4..14
        p = 0.2 + (i % 7) * 0.05
        graphs.append(random_triangle_free(n, p, seed=i))
    return graphs


def test_bounds_exactness():
    b3 = compute_bounds(3)
    assert (b3.r, b3.w, b3.c) == (64, (0, 1, 65), 4224)
    assert compute_bounds(4).r == 2916
    for s in range(3, 13):
        b = compute_bounds(s)
        assert b.w[-1] == (b.r ** (s - 1) - 1) // (b.r - 1)
        assert b.c == (b.w[-1] + 1) * b.r
    print("\nACCEPTANCE PASS: bounds exactness (s=3 values, s=4 r, closed form s in [3,12])")


def test_guarantee_inversion():
    assert guaranteed_length(4224) == 2
    assert guaranteed_length(4225) == 3
    limit = compute_bounds(5).c
    sample = []
    chi = 1
    while chi <= limit:
        sample.append(chi)
        chi *= 2
    sample.append(limit)
    values = [guaranteed_length(c) for c in sample]
    assert values == sorted(values)
    print(f"ACCEPTANCE PASS: guarantee inversion (boundary 4224/4225, monotone on {len(sample)} log-spaced points)")


def test_gallai_roy_property(named_corpus, random_corpus):
    checked = 0
    for g in named_corpus + random_corpus:
        if g.n == 0:
            continue
        assert is_triangle_free(g)
        chi = chromatic_number(g).chi
        count = 0
        for cg in iter_colorings(g, chi):
            path = gallai_roy_rainbow_path(cg)
            colors = [cg.color_of(v) for v in path.vertices]
            assert all(a < b for a, b in zip(colors, colors[1:]))
            assert path.order >= chi
            checked += 1
            count += 1
            if count >= 20:
                break
    print(f"ACCEPTANCE PASS: color-orientation path property ({checked} colorings, zero violations)")


def test_induced_path_reaches_chi(named_corpus, random_corpus):
    checked = 0
    for g in named_corpus + random_corpus:
        if not 1 <= g.n <= 20:
            continue
        chi = chromatic_number(g).chi
        result = longest_induced_path(g)
        assert result.exact
        assert result.path.order >= chi
        checked += 1
    print(f"ACCEPTANCE PASS: induced path order >= chi on {checked} triangle-free graphs (n <= 20)")


def test_colorful_construction(named_corpus, random_corpus):
    graphs_used = 0
    runs = 0
    for g in named_corpus + random_corpus:
        if g.n == 0 or len(connected_components(g)) != 1:
            continue
        chi, colorings = optimal_colorings(g, cap=50)
        if chi > 5:
            continue
        graphs_used += 1
        needed = -(-chi // 2)
        for cg in colorings:
            for v in range(g.n):
                result = colorful_path_from(cg, v, chi)
                report = classify_path(cg, result.path.vertices)
                assert report.is_induced
                assert result.path.vertices[0] == v
                assert report.color_count >= needed
                check_steps(cg, result)
                runs += 1
    print(f"ACCEPTANCE PASS: colorful construction ({runs} runs over {graphs_used} graphs, zero violations)")


def test_grading_procedure_soundness():
    outcomes = {OutcomeKind.RAINBOW_PATH: 0, OutcomeKind.WITNESS: 0, OutcomeKind.NO_GUARANTEE: 0}
    cases = []
    for s in range(3, 8):  # star-witness family
        star = build_graph(s + 1, [(0, i) for i in range(1, s + 1)])
        cg = ColoredGraph(star, Coloring(tuple([s + 1] + list(range(1, s + 1)))))
        gr = Grading(parts=((0,), tuple(range(1, s + 1))), part_colorings=((1,), (1,) * s), k=1)
        cases.append((cg, gr, s))
    i = 0
    while len(cases) < 200:
        rng = random.Random(i)
        g = random_triangle_free(3 + i % 11, 0.25 + (i % 5) * 0.1, seed=777 + i)
        if g.n:
            cases.append((random_colored(g, rng), random_grading(g, rng), rng.choice((3, 4))))
        i += 1
    for cg, grading, s in cases:
        outcome = rainbow_or_witness(cg, grading, s)
        outcomes[outcome.kind] += 1
        tr = outcome.trace
        members = set(tr.class_vertices)
        for u, v in tr.arcs:
            assert cg.color_of(u) < cg.color_of(v) and u in members and v in members
        assert set(tr.forward_arcs) | set(tr.backward_arcs) == set(tr.arcs)
        part_of = {v: i for i, part in enumerate(grading.parts) for v in part}
        for u, v in tr.forward_arcs:
            assert part_of[v] > part_of[u]
        for u, v in tr.backward_arcs:
            assert part_of[v] < part_of[u]
        for pv in (tr.forward_path, tr.backward_path):
            colors = [cg.color_of(v) for v in pv]
            assert len(set(colors)) == len(colors)
        if outcome.kind is OutcomeKind.RAINBOW_PATH:
            report = classify_path(cg, outcome.rainbow_path.vertices)
            assert report.is_induced and report.is_rainbow and report.order == s
        elif outcome.kind is OutcomeKind.WITNESS:
            assert verify_witness_outcome(cg, grading, outcome.witness, s)
    print(f"ACCEPTANCE PASS: grading procedure sound on 200 graded graphs "
          f"(rainbow={outcomes[OutcomeKind.RAINBOW_PATH]}, witness={outcomes[OutcomeKind.WITNESS]}, "
          f"none={outcomes[OutcomeKind.NO_GUARANTEE]}, zero violations)")


def test_oracle_cross_validation():
    agreements = 0
    for i in range(100):
        n = 4 + i % 6  # 4..9
        g = random_triangle_free(n, 0.3 + (i % 4) * 0.1, seed=4000 + i)
        cg = ColoredGraph(g, dsatur_coloring(g))
        fast = longest_induced_rainbow_path(cg).path.vertices
        naive = naive_longest_induced_rainbow_path(cg)
        assert fast == naive
        agreements += 1
    print(f"ACCEPTANCE PASS: rainbow search equals unpruned enumerator on {agreements} colored graphs")


def test_conjecture_sweep_regression(tmp_path):
    corpus = tmp_path / "family.g6"
    corpus.write_text(
        "".join(encode_graph6(g) + "\n" for g in mycielski_iterates(2)), encoding="ascii"
    )
    outputs = []
    for name in ("first.jsonl", "second.jsonl"):
        out = tmp_path / name
        summary = run_corpus(
            corpus, HarnessConfig(coloring_cap=100, seed=5, output_path=str(out))
        )
        assert summary.graphs_processed == 3
        assert summary.violations == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    for line in outputs[0].decode().splitlines():
        assert '"holds_for_all_checked":true' in line
    print("ACCEPTANCE PASS: conjecture sweep holds on the three-step family, byte-identical reruns")


def test_graph6_round_trip(named_corpus, random_corpus):
    fixtures = {
        "D?{": build_graph(5, [(0, 4), (1, 4), (2, 4), (3, 4)]),
        "@": build_graph(1, []),
        "A_": build_graph(2, [(0, 1)]),
    }
    for text, expected in fixtures.items():
        assert decode_graph6(text) == expected
        assert encode_graph6(expected) == text
    pool = named_corpus + random_corpus + [kneser_graph(6, 2), kneser_graph(7, 3)]
    count = 0
    i = 0
    while count < 1000:
        g = pool[count % len(pool)] if count < len(pool) else random_triangle_free(
            3 + i % 16, 0.35, seed=9000 + i
        )
        i += 1
        assert decode_graph6(encode_graph6(g)) == g
        count += 1
    print(f"ACCEPTANCE PASS: graph6 round-trip on {count} graphs plus hand-decoded fixtures")
