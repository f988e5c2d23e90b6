import concurrent.futures
import importlib
import json
import logging
import os
import pkgutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import rainbowpath
from rainbowpath import (
    ColorfulResult,
    Coloring,
    HarnessConfig,
    build_graph,
    canonical_form,
    check_graph,
    chromatic_number,
    cycle_graph,
    encode_graph6,
    is_triangle_free,
    iter_colorings,
    mycielski_iterates,
    random_triangle_free,
    report_to_json,
    run_corpus,
)
from rainbowpath.chromatic import MAX_VERTICES
from rainbowpath.cli import main
from rainbowpath.colorful import _graph_facts
from rainbowpath.graphs import GraphError, Path as GraphPath
from rainbowpath.harness import _colorful_pivots, _coloring_source, coloring_digest
from rainbowpath.oracle import GallaiRoyPath, SearchResult
from helpers import naive_coloring_digest, reference_sample_top_up

DATA = Path(__file__).parent / "data"


class TestCheckGraph:
    def test_k2(self, k2):
        report = check_graph(k2, HarnessConfig())
        assert report.chi == 2
        assert report.colorings_checked == 1
        assert report.min_rainbow_order_observed == 2
        assert report.holds_for_all_checked
        assert report.witness_coloring is None
        assert not report.truncated

    def test_c5_full_sweep(self, c5):
        report = check_graph(c5, HarnessConfig())
        assert report.chi == 3
        # five canonical optimal colorings (brute-force oracle in test_chromatic)
        assert report.colorings_checked == 5
        assert report.holds_for_all_checked
        assert report.min_rainbow_order_observed >= 3
        for record in report.checks:
            assert record.gallai_roy_order >= report.chi
            assert record.colorful_colors >= -(-report.chi // 2)

    @pytest.mark.parametrize("cap, truncated", [(2, True), (5, False)])
    def test_cap_and_truncation(self, c5, cap, truncated):
        # C5 has five canonical 3-colorings: a cap of 5 takes them all and
        # is not truncated, a cap of 2 takes the first two and is
        report = check_graph(c5, HarnessConfig(coloring_cap=cap))
        assert report.colorings_checked == cap
        assert report.truncated is truncated
        first = [coloring_digest(cg.coloring) for cg in islice(iter_colorings(c5, 3), cap)]
        assert [r.coloring_digest for r in report.checks] == first

    def test_grotzsch_capped(self, grotzsch):
        report = check_graph(grotzsch, HarnessConfig(coloring_cap=100))
        assert report.chi == 4
        assert report.colorings_checked <= 100
        for record in report.checks:
            assert record.colorful_colors >= 2
            assert record.gallai_roy_order >= 4

    def test_triangle_rejected(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(GraphError):
            check_graph(g, HarnessConfig())

    def test_disconnected_uses_strong_component(self):
        # C5 plus an isolated edge: chi 3 comes from the cycle component
        g = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6)])
        report = check_graph(g, HarnessConfig(coloring_cap=20))
        assert report.chi == 3
        for record in report.checks:
            assert record.colorful_colors >= 2
            assert record.colorful_pivot == 0

    def test_disconnected_arena_report_frozen(self, c5, grotzsch):
        # C5 then Grotzsch: chi 4 comes from the second component, so the
        # construction runs in that component from every pivot. The report
        # was frozen when the harness ran it on the component's induced
        # subgraph, whose ids are shifted by five, and mapped pivots back.
        g = build_graph(16, list(c5.edges()) + [(5 + u, 5 + v) for u, v in grotzsch.edges()])
        report = check_graph(g, HarnessConfig(coloring_cap=30, thorough=True), "c5+grotzsch")
        frozen = (DATA / "c5_grotzsch_report.json").read_text(encoding="ascii")
        assert report_to_json(report) + "\n" == frozen

    def test_sampling_beyond_cap(self, grotzsch):
        cfg = HarnessConfig(coloring_cap=5, extra_samples=5, seed=7)
        report = check_graph(grotzsch, cfg)
        assert report.truncated
        assert 5 <= report.colorings_checked <= 10
        digests = [r.coloring_digest for r in report.checks]
        assert len(set(digests)) == len(digests)

    def test_delta_beyond_n_changes_nothing(self, c5):
        # chi(C5) = 3, so delta 2 already allows the 5 colors that a coloring
        # of 5 vertices can use at most; enumeration and samples stay the same
        reports = [
            report_to_json(check_graph(c5, HarnessConfig(
                coloring_cap=2, extra_samples=3, max_colors_delta=delta)))
            for delta in (2, 10**5)
        ]
        assert json.loads(reports[0])["colorings_checked"] == 5
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("name, cap, samples, colorings", [
        pytest.param("c5", 1000, 0, 5, id="c5-1000-5"),
        pytest.param("grotzsch", 20, 0, 20, id="grotzsch-20-20"),
        pytest.param("grotzsch", 5, 5, 10, id="grotzsch-5-10"),
    ])
    def test_one_class_table_per_coloring(self, request, monkeypatch, name, cap, samples,
                                          colorings):
        # an enumerated coloring arrives with the class table the enumeration
        # built, so the properness check runs only on the sampled ones, once
        # each; the rainbow search, Gallai-Roy and the colorful construction
        # read the table
        built = []

        def counted(original):
            def build(g, coloring):
                built.append(coloring)
                return original(g, coloring)
            return build

        modules = [importlib.import_module(f"rainbowpath.{m.name}")
                   for m in pkgutil.iter_modules(rainbowpath.__path__) if m.name != "__main__"]
        binding = [m for m in modules if "_proper_classes" in vars(m)]
        assert binding
        for module in binding:
            monkeypatch.setattr(module, "_proper_classes", counted(module._proper_classes))
        cfg = HarnessConfig(coloring_cap=cap, extra_samples=samples)
        report = check_graph(request.getfixturevalue(name), cfg)
        assert report.colorings_checked == colorings
        # min(cap, colorings) of them were enumerated, the rest sampled
        assert len(built) == colorings - min(cap, colorings) == samples

    @pytest.mark.parametrize("thorough", [False, True])
    def test_sweep_builds_no_trace(self, monkeypatch, c5, grotzsch, thorough):
        # check_graph reads only the colorful path, so the sweep never
        # builds a ColorfulStep and its reports do not depend on them
        cfg = HarnessConfig(coloring_cap=50, thorough=thorough)
        expected = [report_to_json(check_graph(g, cfg)) for g in (c5, grotzsch)]

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep built a ColorfulStep")

        monkeypatch.setattr(rainbowpath.colorful, "ColorfulStep", refuse)
        assert [report_to_json(check_graph(g, cfg)) for g in (c5, grotzsch)] == expected

    def test_sweep_runs_no_dsatur(self, monkeypatch):
        # the construction runs at its default bound, which needs no upper
        # bound on chi: the mycielski-sweep graphs, K2 to Mycielski-3 at cap
        # 1000, are swept with no DSATUR coloring, through any binding
        calls = []

        def counted(original):
            def color(g):
                calls.append(g.n)
                return original(g)
            return color

        modules = [importlib.import_module(f"rainbowpath.{m.name}")
                   for m in pkgutil.iter_modules(rainbowpath.__path__) if m.name != "__main__"]
        binding = [m for m in modules if "dsatur_coloring" in vars(m)]
        assert rainbowpath.colorful in binding
        for module in binding:
            monkeypatch.setattr(module, "dsatur_coloring", counted(module.dsatur_coloring))
        _graph_facts.cache_clear()
        cfg = HarnessConfig(coloring_cap=1000)
        reports = [check_graph(g, cfg) for g in mycielski_iterates(3)]
        assert sum(r.colorings_checked for r in reports) == 1526
        assert calls == []

    @pytest.mark.parametrize("thorough", [False, True])
    def test_sweep_walks_back_no_gallai_roy_path(self, monkeypatch, c5, grotzsch, thorough):
        # records read only the Gallai-Roy order, the number of levels, so
        # the sweep never walks a path back and its reports do not depend on it
        cfg = HarnessConfig(coloring_cap=50, thorough=thorough)
        expected = [report_to_json(check_graph(g, cfg)) for g in (c5, grotzsch)]

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep walked back a Gallai-Roy path")

        # oracle's binding of graphs._walk_back, the one GallaiRoyPath.vertices calls
        monkeypatch.setattr(rainbowpath.oracle, "_walk_back", refuse)
        assert [report_to_json(check_graph(g, cfg)) for g in (c5, grotzsch)] == expected

    def test_digest_canonicalizes_nothing(self, monkeypatch, grotzsch):
        # iter_colorings emits canonical forms, so without samples the sweep
        # hashes every coloring as given
        calls = []

        def counted(coloring):
            calls.append(coloring)
            return canonical_form(coloring)

        monkeypatch.setattr(rainbowpath.harness, "canonical_form", counted)
        report = check_graph(grotzsch, HarnessConfig(coloring_cap=20, extra_samples=0))
        assert report.colorings_checked == 20 and calls == []

    @pytest.mark.parametrize("depth, cap, max_nodes", [(3, 3, 5), (4, 1, 1000)])
    def test_spent_budget_never_raises(self, depth, cap, max_nodes):
        # a sweep's searches flag a spent node budget, on Mycielski-4 too,
        # whose 47 vertices are above the searches' error-mode vertex cap
        g = mycielski_iterates(depth)[-1]
        report = check_graph(g, HarnessConfig(coloring_cap=cap, max_nodes=max_nodes))
        assert report.colorings_checked == cap
        # a cut-short search proves no shortfall, so it never gives a witness
        assert report.witness_coloring is None

    @pytest.mark.parametrize("field, value, message", [
        pytest.param("coloring_cap", 0, "caps must be positive", id="coloring_cap"),
        pytest.param("max_nodes", 0, "caps must be positive", id="max_nodes"),
        pytest.param("parallelism", 0, "caps must be positive", id="parallelism"),
        pytest.param("max_colors_delta", -1, "must be non-negative", id="max_colors_delta"),
        pytest.param("extra_samples", -1, "must be non-negative", id="extra_samples"),
    ])
    def test_caps_must_be_positive(self, field, value, message):
        """Caps below 1, and deltas or sample counts below 0, are refused."""
        with pytest.raises(GraphError, match=message):
            HarnessConfig(**{field: value})

    def test_report_json_is_stable(self, c5):
        report = check_graph(c5, HarnessConfig())
        line = report_to_json(report)
        payload = json.loads(line)
        assert list(payload)[:5] == ["graph_id", "graph6", "n", "m", "chi"]
        assert payload["graph6"] == encode_graph6(c5)


def _random_thorough_graphs(seed):
    """The random-thorough benchmark's corpus at a seed, with the graph ids
    a corpus run gives its lines."""
    grotzsch = mycielski_iterates(2)[-1]
    c5 = cycle_graph(5)
    union = build_graph(16, list(grotzsch.edges()) + [(11 + u, 11 + v) for u, v in c5.edges()])
    graphs = [random_triangle_free(18, 0.3, seed=seed + i) for i in range(30)] + [grotzsch, union]
    return [(f"line{i}", g) for i, g in enumerate(graphs, 1)]


class TestColorfulPivots:
    """The construction's pivots lie in the first component that attains
    chi: its smallest vertex, or all of it when thorough."""

    C5 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]

    @pytest.mark.parametrize("n, edges, pivot, component", [
        pytest.param(0, [], [], [], id="empty"),
        pytest.param(5, C5, [0], [0, 1, 2, 3, 4], id="connected"),
        pytest.param(7, [(0, 1)] + [(u + 2, v + 2) for u, v in C5], [2], [2, 3, 4, 5, 6],
                     id="weaker-first"),
        pytest.param(8, C5 + [(5, 6)], [0], [0, 1, 2, 3, 4], id="stronger-first"),
    ])
    def test_table(self, n, edges, pivot, component):
        g = build_graph(n, edges)
        chi = chromatic_number(g).chi
        assert _colorful_pivots(g, chi, thorough=False) == pivot
        assert _colorful_pivots(g, chi, thorough=True) == component

    def test_connected_graph_asks_the_cache(self, grotzsch):
        # a connected graph's one component is the graph itself, so its chi
        # is the one check_graph has just computed
        chi = chromatic_number(grotzsch).chi
        before = chromatic_number.cache_info()
        assert _colorful_pivots(grotzsch, chi, thorough=False) == [0]
        after = chromatic_number.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)

    @pytest.mark.parametrize("i", range(32))
    def test_random_thorough_graphs(self, i):
        # the random-thorough benchmark's seed-0 graphs, with the pivots the
        # rule gave when a connected graph skipped its chi lookup: the 31
        # connected graphs pivot on vertex 0, all of them when thorough, and
        # Grotzsch + C5 on its first component, Grotzsch
        _, g = _random_thorough_graphs(0)[i]
        chi = chromatic_number(g).chi
        assert _colorful_pivots(g, chi, thorough=False) == [0]
        assert _colorful_pivots(g, chi, thorough=True) == list(range(11 if i == 31 else g.n))


class TestColoringSource:
    """Past a truncation, a sample is swept when it was neither enumerated
    nor drawn before. The source tells an enumerated sample by its place
    after the last enumerated coloring in lexicographic order, and keeps
    only the samples in a set; it sweeps the colorings that a set of every
    swept coloring, the first rule, gave."""

    P3 = build_graph(3, [(0, 1), (1, 2)])

    def check(self, g, graph_id, cfg):
        chi = chromatic_number(g).chi
        max_colors = min(chi + cfg.max_colors_delta, g.n)
        enumerated = [cg.coloring.colors
                      for cg in islice(iter_colorings(g, max_colors), cfg.coloring_cap)]
        colorings, truncated = _coloring_source(g, chi, cfg, graph_id)
        expected, drawn = reference_sample_top_up(g, enumerated, max_colors, cfg.extra_samples,
                                                  cfg.seed, graph_id)
        assert truncated
        assert [cg.coloring.colors for cg in colorings] == expected
        return enumerated, expected, drawn

    @pytest.mark.parametrize("name, delta, cap, samples", [
        pytest.param("c5", 1, 3, 10, id="c5"),
        pytest.param("grotzsch", 0, 50, 30, id="grotzsch"),
    ])
    def test_matches_first_rule(self, request, name, delta, cap, samples):
        cfg = HarnessConfig(max_colors_delta=delta, coloring_cap=cap, extra_samples=samples)
        _, swept, drawn = self.check(request.getfixturevalue(name), name, cfg)
        # some draws were enumerated or drawn before, and some were new
        assert cap < len(swept) < cap + len(drawn)

    def test_sample_equal_to_last_enumerated_is_not_new(self):
        # P3 with three colors has two canonical colorings, (1, 2, 1) and
        # (1, 2, 3); at cap 1 the first is the last enumerated one, and the
        # 40 attempts at two samples draw it again, which adds nothing
        cfg = HarnessConfig(max_colors_delta=1, coloring_cap=1, extra_samples=2)
        enumerated, swept, drawn = self.check(self.P3, "p3", cfg)
        assert enumerated == [(1, 2, 1)] and enumerated[-1] in drawn
        assert swept == [(1, 2, 1), (1, 2, 3)]

    @pytest.mark.parametrize("seed", [0, 97])
    def test_random_thorough_corpus(self, seed):
        # the random-thorough workload's config: --thorough --delta 1 --cap 20
        # --samples 10 at the seed
        cfg = HarnessConfig(max_colors_delta=1, coloring_cap=20, extra_samples=10,
                            seed=seed, thorough=True)
        for graph_id, g in _random_thorough_graphs(seed):
            self.check(g, graph_id, cfg)


class TestColoringDigest:
    """The digest reads each color's text from a table; its bytes are those
    of the formula that formats each color with str()."""

    @given(st.lists(st.integers(1, MAX_VERTICES), max_size=MAX_VERTICES))
    def test_matches_reference(self, colors):
        coloring = Coloring(tuple(colors))
        assert coloring_digest(coloring) == naive_coloring_digest(coloring)

    def test_matches_reference_on_the_sweep(self):
        # the 1,526 colorings of K2, C5, Grotzsch and Mycielski-3 that the
        # mycielski-sweep benchmark checks
        cfg = HarnessConfig(coloring_cap=1000)
        swept = [cg.coloring for depth, g in enumerate(mycielski_iterates(3))
                 for cg in _coloring_source(g, depth + 2, cfg, f"m{depth}")[0]]
        assert len(swept) == 1526
        assert [coloring_digest(c) for c in swept] == [naive_coloring_digest(c) for c in swept]


class TestWarnings:
    """Both check_graph warnings name the graph and the coloring's digest,
    the key of its record in the report."""

    def test_violation_candidate_names_coloring_digest(self, caplog, monkeypatch, c5):
        # every search proves its best path has one vertex, an exact
        # shortfall, so the first coloring is reported as a candidate
        monkeypatch.setattr(rainbowpath.harness, "longest_induced_rainbow_path",
                            lambda cg, budget: SearchResult(GraphPath((0,)), exact=True, nodes=1))
        with caplog.at_level(logging.WARNING, logger="rainbowpath.harness"):
            report = check_graph(c5, HarnessConfig(coloring_cap=3), graph_id="c5")
        digest = coloring_digest(Coloring(report.witness_coloring))
        assert digest == report.checks[0].coloring_digest
        [message] = [m for m in (r.getMessage() for r in caplog.records) if "violation candidate" in m]
        assert message.startswith(f"c5: coloring {digest} has no induced rainbow path")
        assert str(report.witness_coloring) not in message
        assert not report.holds_for_all_checked

    def test_spent_budget_is_undecided(self, caplog):
        # Mycielski-3 with 5-node searches: every rainbow search is cut
        # short below chi, which proves nothing, so no coloring is a
        # candidate and each is reported undecided with its digest
        g = mycielski_iterates(3)[-1]
        assert encode_graph6(g) == "VkLTAQGK?NiShOQcPa@b?SAA_GAOOCOO?oG?@{???N~_"
        cfg = HarnessConfig(coloring_cap=3, max_nodes=5)
        with caplog.at_level(logging.WARNING, logger="rainbowpath.harness"):
            report = check_graph(g, cfg, graph_id="m3")
        assert report.witness_coloring is None and not report.holds_for_all_checked
        messages = [r.getMessage() for r in caplog.records]
        assert not [m for m in messages if "violation candidate" in m]
        assert messages == [
            f"m3: coloring {r.coloring_digest}: rainbow search spent its 5-node budget at order "
            f"{r.rainbow_order} < chi=5 -- undecided"
            for r in report.checks
        ]

    def test_colorful_shortfall_names_coloring_digest(self, caplog, monkeypatch, c5):
        # a construction that sees one color from its start, below ceil(3/2)
        monkeypatch.setattr(rainbowpath.harness, "colorful_path_from", lambda cg, start: (
            ColorfulResult(GraphPath((start,)), (), 3, 1, cg.graph)))
        with caplog.at_level(logging.WARNING, logger="rainbowpath.harness"):
            report = check_graph(c5, HarnessConfig(coloring_cap=2), graph_id="c5")
        assert [r.getMessage() for r in caplog.records] == [
            f"c5: coloring {r.coloring_digest}: colorful construction saw 1 colors, expected >= 2"
            for r in report.checks
        ]

    def test_gallai_roy_shortfall_names_coloring_digest(self, caplog, monkeypatch, c5):
        # a color-orientation path below chi contradicts the Gallai-Roy
        # theorem: each one is logged, and the verdict does not change
        monkeypatch.setattr(rainbowpath.harness, "gallai_roy_rainbow_path",
                            lambda cg: GallaiRoyPath(levels=(1,), masks=cg.graph.masks))
        with caplog.at_level(logging.WARNING, logger="rainbowpath.harness"):
            report = check_graph(c5, HarnessConfig(coloring_cap=2), graph_id="c5")
        assert [r.getMessage() for r in caplog.records] == [
            f"c5: coloring {r.coloring_digest}: color-orientation path has order 1, "
            f"expected >= chi=3 (Gallai-Roy)"
            for r in report.checks
        ]
        assert report.holds_for_all_checked and report.colorings_checked == 2


class TestRunCorpus:
    def write(self, tmp_path, lines):
        path = tmp_path / "corpus.g6"
        path.write_text("".join(line + "\n" for line in lines), encoding="ascii")
        return path

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, [])
        summary = run_corpus(path, HarnessConfig(output_path=str(tmp_path / "out.jsonl")))
        assert summary.graphs_processed == 0 and summary.violations == 0

    def test_triangle_line_skipped(self, tmp_path, c5):
        triangle = encode_graph6(build_graph(3, [(0, 1), (1, 2), (0, 2)]))
        path = self.write(tmp_path, [encode_graph6(c5), triangle])
        out = tmp_path / "out.jsonl"
        summary = run_corpus(path, HarnessConfig(output_path=str(out)))
        assert summary.graphs_processed == 1
        assert len(summary.skipped) == 1
        reports = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(reports) == 1 and reports[0]["n"] == 5

    def test_one_triangle_scan_per_line(self, tmp_path, monkeypatch, k2, c5, grotzsch):
        # check_graph is the one place that tests a valid line for a triangle;
        # a line with one still skips with the same reason, as no failure
        scanned = []

        def counted(g):
            scanned.append(g.n)
            return is_triangle_free(g)

        monkeypatch.setattr(rainbowpath.harness, "is_triangle_free", counted)
        triangle = encode_graph6(build_graph(3, [(0, 1), (1, 2), (0, 2)]))
        path = self.write(tmp_path, [encode_graph6(g) for g in (k2, c5, grotzsch)] + [triangle])
        summary = run_corpus(path, HarnessConfig(output_path=str(tmp_path / "out.jsonl")))
        assert summary.graphs_processed == 3 and summary.failed == 0
        assert summary.skipped == ["line4: graph contains a triangle"]
        assert scanned[:3] == [2, 5, 11] and set(scanned[3:]) == {3}

    def test_comments_ignored(self, tmp_path, c5):
        path = self.write(tmp_path, ["# family: cycles", encode_graph6(c5)])
        summary = run_corpus(path, HarnessConfig(output_path=str(tmp_path / "o.jsonl")))
        assert summary.graphs_processed == 1

    def test_malformed_line_skipped(self, tmp_path, c5):
        path = self.write(tmp_path, ["D?", encode_graph6(c5)])
        out = tmp_path / "out.jsonl"
        summary = run_corpus(path, HarnessConfig(output_path=str(out)))
        assert summary.graphs_processed == 1 and len(summary.skipped) == 1

    def test_graph_beyond_chromatic_cap_skipped(self, tmp_path, c5):
        # C65 is triangle-free but above the 64-vertex cap of the exact
        # chromatic search: it is skipped with the reason, and C5's report
        # is still written
        path = self.write(tmp_path, [encode_graph6(c5), encode_graph6(cycle_graph(65))])
        out = tmp_path / "out.jsonl"
        summary = run_corpus(path, HarnessConfig(output_path=str(out)))
        assert summary.graphs_processed == 1
        assert summary.skipped == ["line2: 65 vertices is too large for exact search (cap 64)"]
        reports = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["n"] for r in reports] == [5]

    def test_failing_check_does_not_end_the_run(self, tmp_path, caplog, k2, grotzsch,
                                                corrupted_level_memo):
        # the construction's final check raises on Grotzsch; K2 is still
        # checked and written, and `corpus` exits 1
        path = self.write(tmp_path, [encode_graph6(grotzsch), encode_graph6(k2)])
        out = tmp_path / "out.jsonl"
        with caplog.at_level(logging.ERROR, logger="rainbowpath.harness"):
            summary = run_corpus(path, HarnessConfig(output_path=str(out)))
        message = "construction produced an invalid path; is chi_lb too large?"
        assert summary.failed == 1 and summary.graphs_processed == 1
        assert summary.skipped == [f"line1: check failed: {message}"]
        assert [r["n"] for r in map(json.loads, out.read_text().splitlines())] == [2]
        [record] = [r for r in caplog.records if r.levelno == logging.ERROR]
        assert record.getMessage() == "line1: check failed" and record.exc_info
        assert main(["corpus", str(path), "--out", str(out)]) == 1
        assert len(out.read_text().splitlines()) == 1

    def test_mycielski_family_end_to_end(self, tmp_path):
        lines = [encode_graph6(g) for g in mycielski_iterates(2)]
        path = self.write(tmp_path, lines)
        out = tmp_path / "out.jsonl"
        summary = run_corpus(path, HarnessConfig(coloring_cap=100, output_path=str(out)))
        assert summary.graphs_processed == 3
        assert summary.violations == 0
        reports = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["chi"] for r in reports] == [2, 3, 4]
        assert all(r["holds_for_all_checked"] for r in reports)

    def test_deterministic_output(self, tmp_path):
        lines = [encode_graph6(g) for g in mycielski_iterates(2)]
        path = self.write(tmp_path, lines)
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            run_corpus(path, HarnessConfig(coloring_cap=50, seed=11, output_path=str(out)))
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_parallel_matches_serial(self, tmp_path, c5):
        # the second corpus has an undecided report (Mycielski-3's 5-node
        # searches stop below chi), so verdicts cross the pool of both kinds
        m3 = mycielski_iterates(3)[-1]
        corpora = [
            ([encode_graph6(g) for g in mycielski_iterates(1)] + [encode_graph6(c5)],
             {"coloring_cap": 30}),
            ([encode_graph6(m3), encode_graph6(c5)], {"coloring_cap": 3, "max_nodes": 5}),
        ]
        for i, (lines, knobs) in enumerate(corpora):
            path = self.write(tmp_path, lines)
            serial = tmp_path / f"serial{i}.jsonl"
            parallel = tmp_path / f"parallel{i}.jsonl"
            one = run_corpus(path, HarnessConfig(**knobs, output_path=str(serial)))
            two = run_corpus(path, HarnessConfig(**knobs, output_path=str(parallel), parallelism=2))
            assert serial.read_bytes() == parallel.read_bytes()
            counts = [(s.checks_run, s.violations, s.undecided) for s in (one, two)]
            assert counts[0] == counts[1]
        assert counts[0] == (6, 0, 1)

    @pytest.mark.parametrize("jobs, cpus, workers", [
        (64, 8, 3),  # no more workers than graphs
        (2, 8, 2),
        (64, 2, 2),  # no more workers than CPUs
        (64, 1, None),  # one worker: no pool
        (64, None, None),  # CPU count unknown: one worker
    ])
    def test_pool_sized_to_graphs_and_cpus(self, tmp_path, monkeypatch, c5, jobs, cpus, workers):
        # a fake pool records its size and runs in this process: a real one
        # may fork all of its workers at the first submit
        pools = []

        class FakePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(rainbowpath.harness.os, "cpu_count", lambda: cpus)
        path = self.write(tmp_path, [encode_graph6(g) for g in mycielski_iterates(1)]
                          + [encode_graph6(c5)])
        out = tmp_path / "out.jsonl"
        summary = run_corpus(path, HarnessConfig(output_path=str(out), parallelism=jobs))
        assert pools == ([workers] if workers else [])
        assert summary.graphs_processed == 3

    def test_import_leaves_out_the_process_pool(self):
        # multiprocessing is imported only by a run with more than one
        # worker, so a fresh `import rainbowpath` does not pay for it
        code = "import sys, rainbowpath; print('multiprocessing' in sys.modules)"
        src = str(Path(rainbowpath.__file__).parent.parent)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                              check=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.strip() == "False"
