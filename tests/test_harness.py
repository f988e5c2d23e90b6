import json
from pathlib import Path

import pytest

from rainbowpath import (
    HarnessConfig,
    build_graph,
    check_graph,
    cycle_graph,
    encode_graph6,
    mycielski_iterates,
    report_to_json,
    run_corpus,
)
from rainbowpath.graphs import GraphError

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
        # construction runs on its induced subgraph, whose ids are shifted by
        # five, from every pivot. The report was frozen before the harness
        # built that subgraph once per graph instead of once per pivot.
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

    def test_report_json_is_stable(self, c5):
        report = check_graph(c5, HarnessConfig())
        line = report_to_json(report)
        payload = json.loads(line)
        assert list(payload)[:5] == ["graph_id", "graph6", "n", "m", "chi"]
        assert payload["graph6"] == encode_graph6(c5)


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

    def test_comments_ignored(self, tmp_path, c5):
        path = self.write(tmp_path, ["# family: cycles", encode_graph6(c5)])
        summary = run_corpus(path, HarnessConfig(output_path=str(tmp_path / "o.jsonl")))
        assert summary.graphs_processed == 1

    def test_malformed_line_skip_vs_abort(self, tmp_path, c5):
        path = self.write(tmp_path, ["D?", encode_graph6(c5)])
        out = tmp_path / "out.jsonl"
        summary = run_corpus(path, HarnessConfig(output_path=str(out)))
        assert summary.graphs_processed == 1 and len(summary.skipped) == 1
        with pytest.raises(GraphError):
            run_corpus(path, HarnessConfig(output_path=str(out), abort_on_malformed=True))

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
        lines = [encode_graph6(g) for g in mycielski_iterates(1)] + [encode_graph6(c5)]
        path = self.write(tmp_path, lines)
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        run_corpus(path, HarnessConfig(coloring_cap=30, output_path=str(serial)))
        run_corpus(path, HarnessConfig(coloring_cap=30, output_path=str(parallel), parallelism=2))
        assert serial.read_bytes() == parallel.read_bytes()
