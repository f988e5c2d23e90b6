import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path as FilePath

import pytest

import rainbowpath.cli
import rainbowpath.harness
from rainbowpath import (HarnessConfig, Path, SearchBudget, build_graph, cycle_graph, decode_graph6,
                         encode_graph6, petersen_graph)
from rainbowpath.cli import _make_config, build_parser, main, read_grading_file
from rainbowpath.oracle import SearchResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_cycle(self, capsys):
        code, out, _ = run(capsys, "generate", "--kind", "cycle", "--n", "5")
        assert code == 0
        assert decode_graph6(out.strip()) == cycle_graph(5)

    def test_mycielski_family(self, capsys):
        code, out, _ = run(capsys, "generate", "--kind", "mycielskian-iterate", "--depth", "2")
        assert code == 0
        assert [decode_graph6(line).n for line in out.strip().splitlines()] == [2, 5, 11]

    def test_random_to_file(self, capsys, tmp_path):
        target = tmp_path / "fam.g6"
        code, out, _ = run(
            capsys, "generate", "--kind", "random-triangle-free",
            "--n", "8", "--p", "0.4", "--count", "3", "--seed", "9", "--out", str(target),
        )
        assert code == 0
        assert len(target.read_text().splitlines()) == 3

    def test_invalid_parameters_exit_one(self, capsys):
        code, _, err = run(capsys, "generate", "--kind", "cycle", "--n", "2")
        assert code == 1 and "error" in err

    def test_kneser_5_2_is_petersen(self, capsys):
        code, out, _ = run(capsys, "generate", "--kind", "kneser", "--n", "5", "--k", "2")
        assert code == 0
        assert decode_graph6(out.strip()) == petersen_graph()

    def test_random_count(self, capsys):
        code, out, _ = run(
            capsys, "generate", "--kind", "random-triangle-free",
            "--n", "8", "--p", "0.4", "--count", "4", "--seed", "3",
        )
        assert code == 0
        lines = out.split()
        assert len(lines) == 4 and len(set(lines)) > 1

    @pytest.mark.parametrize("argv", [
        ("--kind", "kneser", "--n", "3", "--k", "2"),
        ("--kind", "random-triangle-free", "--p", "2.0"),
        ("--kind", "mycielskian-iterate", "--depth", "-1"),
    ])
    def test_builder_rejects_parameters_exit_one(self, capsys, argv):
        code, out, err = run(capsys, "generate", *argv)
        assert code == 1 and out == "" and err.startswith("error: ")

    def test_count_zero_exit_one(self, capsys):
        code, out, err = run(capsys, "generate", "--kind", "random-triangle-free", "--count", "0")
        assert code == 1 and out == ""
        assert err == "error: count must be positive\n"


class TestUsageErrors:
    """A usage error exits 1, as an input error does; 2 means a violation
    was recorded."""

    @pytest.mark.parametrize("argv", [
        ("check",),
        ("check", "Dhc", "--cap", "x"),
        ("generate", "--kind", "unknown"),
        ("construct", "Dhc", "--coloring", "1 2 1 2 3", "--strict"),
        # construct proves ceil(chi(C)/2) for the start's component C and
        # takes no other bound
        ("construct", "Dhc", "--coloring", "1 2 1 2 3", "--chi-lb", "3"),
    ])
    def test_exit_one(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        err = capsys.readouterr().err
        assert exc.value.code == 1
        assert err.startswith("usage: rainbowpath") and "error: " in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--help"])
        assert exc.value.code == 0
        assert "--cap" in capsys.readouterr().out


class TestModuleEntryPoints:
    """`python -m rainbowpath` and `python -m rainbowpath.cli` run main and
    exit with its code."""

    @staticmethod
    def _run(module, *argv):
        src = str(FilePath(rainbowpath.harness.__file__).parent.parent)
        return subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": src})

    @pytest.mark.parametrize("module", ["rainbowpath", "rainbowpath.cli"])
    def test_bounds_table(self, capsys, module):
        proc = self._run(module, "bounds", "--s", "3")
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == run(capsys, "bounds", "--s", "3")[1]
        assert proc.stdout.splitlines()[1].split() == ["3", "64", "4224"]

    @pytest.mark.parametrize("module", ["rainbowpath", "rainbowpath.cli"])
    def test_unknown_option_exits_one(self, module):
        proc = self._run(module, "bounds", "--unknown")
        assert proc.returncode == 1 and proc.stdout == ""
        assert "error: unrecognized arguments: --unknown" in proc.stderr


class TestBounds:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "bounds", "--s", "4")
        assert code == 0
        assert "64" in out and "4224" in out and "2916" in out

    def test_inversion(self, capsys):
        code, out, _ = run(capsys, "bounds", "--chi", "4225", "--s", "3")
        assert code == 0
        assert "s = 3" in out

    @pytest.mark.parametrize("verbose", [(), ("--verbose",)])
    def test_values_beyond_the_int_to_str_limit(self, capsys, verbose):
        # c(38) and the last weights from s = 39 on have more than the 4,300
        # digits that str() of an int allows; they print as ~2^k
        code, out, _ = run(capsys, "bounds", "--s", "40", *verbose)
        assert code == 0
        rows = [line.split() for line in out.splitlines()[1:] if line.split()[0].isdigit()]
        assert [int(row[0]) for row in rows] == list(range(3, 41))
        assert rows[-1][2] == "~2^16156"
        weights = [line for line in out.splitlines() if line.startswith("s=")]
        assert len(weights) == (38 if verbose else 0)
        if verbose:
            assert weights[-1].endswith(", ~2^14913, ~2^15327, ~2^15741]")


class TestConstruct:
    def test_c5_with_trace(self, capsys, c5):
        code, out, _ = run(
            capsys, "construct", encode_graph6(c5),
            "--coloring", "1 2 1 2 3", "--start", "0", "--trace",
        )
        assert code == 0
        assert "path: [0, 4]" in out
        assert "level 0" in out and "removed_color=1" in out

    def test_trace_always_audits(self, capsys):
        # C5 at chi 3 takes one level, whose recursed subgraph (a vertex and
        # the bridge next to it) has chi 2
        code, out, _ = run(capsys, "construct", "Dhc", "--coloring", "1 2 1 2 3", "--trace")
        assert code == 0
        levels = [line for line in out.splitlines() if line.startswith("level ")]
        audits = [line for line in out.splitlines()
                  if line.startswith("  recursed subgraph chi (audit): ")]
        assert len(levels) == 1 and audits == ["  recursed subgraph chi (audit): 2"]

    def test_coloring_file(self, capsys, tmp_path, c5):
        f = tmp_path / "coloring.txt"
        f.write_text("# colors\n1 2 1 2 3\n")
        code, out, _ = run(
            capsys, "construct", encode_graph6(c5), "--coloring-file", str(f),
        )
        assert code == 0 and "induced: True" in out

    def test_non_ascii_coloring_file_exit_one(self, capsys, tmp_path, c5):
        f = tmp_path / "coloring.txt"
        f.write_bytes(b"# colors\n1 2 1 2 \xe9\n")
        code, out, err = run(
            capsys, "construct", encode_graph6(c5), "--coloring-file", str(f),
        )
        assert code == 1 and out == ""
        assert err == f"error: {f}: byte 0xe9 is not ASCII\n"

    @pytest.mark.parametrize("start, path, needed", [(5, [5], 1), (0, [0, 4], 2)])
    def test_default_bound_is_the_start_component_chi(self, capsys, start, path, needed):
        # C5 plus K2: from K2's vertex 5 the bound is 2, not the graph's chi 3
        code, out, _ = run(capsys, "construct", "Fhc?G", "--coloring", "1 2 1 2 3 1 2",
                           "--start", str(start))
        assert code == 0
        assert out.startswith(f"path: {path}\n") and f"(needed >= {needed})" in out

    def test_start_outside_graph_exit_one(self, capsys):
        code, out, err = run(capsys, "construct", "Fhc?G", "--coloring", "1 2 1 2 3 1 2",
                             "--start", "7")
        assert code == 1 and out == ""
        assert err == "error: start vertex 7 not in graph\n"


class TestLemma1Command:
    def test_c5_singleton_grading(self, capsys, tmp_path, c5):
        grading = tmp_path / "grading.txt"
        lines = [str(v) for v in range(5)] + ["1"] * 5
        grading.write_text("\n".join(lines) + "\n")
        code, out, _ = run(
            capsys, "lemma1", encode_graph6(c5),
            "--coloring", "1 2 1 2 3", "--grading-file", str(grading),
            "--s", "3", "--trace",
        )
        assert code == 0
        assert "outcome: rainbow-path" in out
        assert "rainbow path: [2, 3, 4]" in out
        assert "forward arcs" in out

    def test_witness_output(self, capsys, tmp_path):
        # the star K1,3 with a rainbow coloring and one part per vertex:
        # vertex 0 sees three later neighbors of distinct colors
        grading = tmp_path / "grading.txt"
        grading.write_text("0\n1\n2\n3\n1\n1\n1\n1\n")
        code, out, _ = run(capsys, "lemma1", "Cs", "--coloring", "1 2 3 4",
                           "--grading-file", str(grading), "--s", "3")
        assert code == 0
        assert out == ("outcome: witness\nwitness vertex: 0\n"
                       "later distinct-colored neighbors: [1, 2, 3]\n")

    def test_malformed_grading_file_exit_one(self, capsys, tmp_path, c5):
        grading = tmp_path / "grading.txt"
        grading.write_text("0 1 2 3 x\n1 2 1 2 3\n")
        code, out, err = run(
            capsys, "lemma1", encode_graph6(c5),
            "--coloring", "1 2 1 2 3", "--grading-file", str(grading), "--s", "3",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: bad grading file") and "'x'" in err

    def test_non_ascii_grading_file_exit_one(self, capsys, tmp_path, c5):
        grading = tmp_path / "grading.txt"
        grading.write_bytes(b"0 1 2 3 4\n1 2 1 2 \xe9\n")
        code, out, err = run(
            capsys, "lemma1", encode_graph6(c5),
            "--coloring", "1 2 1 2 3", "--grading-file", str(grading), "--s", "3",
        )
        assert code == 1 and out == ""
        assert err == f"error: {grading}: byte 0xe9 is not ASCII\n"

    def test_grading_file_round_trip(self, tmp_path):
        f = tmp_path / "grading.txt"
        f.write_text("# parts then colorings\n0 1 2\n3 4\n1 2 1\n1 2\n")
        grading = read_grading_file(str(f))
        assert grading.parts == ((0, 1, 2), (3, 4))
        assert grading.part_colorings == ((1, 2, 1), (1, 2))
        assert grading.k == 2


class TestOracleCommand:
    def test_plain_and_colored(self, capsys, c5):
        code, out, _ = run(capsys, "oracle", encode_graph6(c5), "--coloring", "1 2 1 2 3")
        assert code == 0
        assert "longest induced path" in out and "order 4" in out
        assert "longest induced rainbow path" in out and "order 3" in out
        assert "color-orientation path: [2, 3, 4]" in out
        # each search's node count stands beside its exactness
        assert "(order 4, exact=True, nodes=12)" in out
        assert "(order 3, exact=True, nodes=3)" in out
        code, out, _ = run(capsys, "oracle", encode_graph6(c5), "--coloring", "1 2 1 2 3",
                           "--budget", "2")
        assert code == 0
        # a cut search reports the nodes it spent, never more than its budget
        assert "longest induced path: [0, 1, 2] (order 3, exact=False, nodes=2)" in out
        assert "longest induced rainbow path: [0, 1] (order 2, exact=False, nodes=2)" in out

    def test_bad_coloring_file_exits_before_any_search(self, capsys, tmp_path, c5):
        coloring = tmp_path / "col.txt"
        coloring.write_bytes("caf\u00e9 1 2\n".encode("utf-8"))
        code, out, err = run(capsys, "oracle", encode_graph6(c5), "--coloring-file", str(coloring))
        assert code == 1 and out == ""
        assert err == f"error: {coloring}: byte 0xc3 is not ASCII\n"

    def test_improper_coloring_exits_before_any_search(self, capsys, c5):
        code, out, err = run(capsys, "oracle", encode_graph6(c5), "--coloring", "1 1 2 1 2")
        assert code == 1 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv, files, message", [
    pytest.param(("construct", "Dhc", "--coloring", "1 2 x 2 3"), {},
                 "bad coloring line: invalid literal for int() with base 10: 'x'",
                 id="coloring-token"),
    pytest.param(("construct", "Dhc", "--coloring-file", "{coloring}"),
                 {"coloring": "# no data\n\n"}, "no coloring line found in {coloring}",
                 id="coloring-file-empty"),
    pytest.param(("construct", "Dhc"), {}, "provide --coloring or --coloring-file",
                 id="no-coloring"),
    pytest.param(("lemma1", "Dhc", "--coloring", "1 2 1 2 3", "--grading-file", "{grading}",
                  "--s", "3"),
                 {"grading": "0 1 2 3 4\n1 2 1 2 3\n0\n"},
                 "grading file needs 2 lines per part, got 3 lines", id="grading-odd-lines"),
])
def test_input_error_exit_one(capsys, tmp_path, argv, files, message):
    paths = {name: tmp_path / f"{name}.txt" for name in files}
    for name, text in files.items():
        paths[name].write_text(text)
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 1 and out == ""
    assert err == f"error: {message.format(**paths)}\n"


@pytest.mark.parametrize("command, option", [
    pytest.param("check", ("--budget", "0"), id="check"),
    pytest.param("corpus", ("--budget", "0"), id="corpus"),
    pytest.param("oracle", ("--budget", "0"), id="oracle"),
    pytest.param("check", ("--cap", "0"), id="check-cap"),
    pytest.param("corpus", ("--jobs", "0"), id="corpus-jobs"),
    pytest.param("check", ("--delta", "-1"), id="check-delta"),
    pytest.param("corpus", ("--samples", "-1"), id="corpus-samples"),
])
def test_budget_zero_exit_one(capsys, tmp_path, command, option):
    """A budget, cap or job count below 1, or a negative delta or sample
    count, is an input error."""
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("Dhc\n")
    target = str(corpus) if command == "corpus" else "Dhc"
    code, out, err = run(capsys, command, target, *option)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.fixture
def one_vertex_rainbow(monkeypatch):
    """Every sweep's rainbow search proves its best path has one vertex: an
    exact answer below chi, so a sweep of C5 records a violation."""
    monkeypatch.setattr(rainbowpath.harness, "longest_induced_rainbow_path",
                        lambda cg, budget: SearchResult(Path((0,)), exact=True, nodes=1))


# Mycielski-3 (chi 5): with 5-node searches every rainbow search is cut
# short at order 4, which proves no shortfall
MYCIELSKI_3 = "VkLTAQGK?NiShOQcPa@b?SAA_GAOOCOO?oG?@{???N~_"


class TestDefaults:
    """Each sweep and search flag takes its default from the field it fills."""

    @pytest.mark.parametrize("argv", [["check", "G"], ["corpus", "F"]])
    def test_sweep_flags_default_to_harness_config(self, argv):
        args = build_parser().parse_args(argv)
        cfg = _make_config(args, args.thorough)
        assert dataclasses.replace(cfg, output_path=None) == HarnessConfig()

    SWEEP_KEYS = {"command", "func", "cap", "delta", "samples", "budget", "seed", "thorough",
                  "out"}

    @pytest.mark.parametrize("argv, keys, func", [
        (["check", "G"], SWEEP_KEYS | {"graph6"}, "_cmd_check"),
        (["corpus", "F"], SWEEP_KEYS | {"path", "jobs"}, "_cmd_corpus"),
    ])
    @pytest.mark.parametrize("flags, field, value", [
        (("--cap", "7"), "coloring_cap", 7),
        (("--delta", "2"), "max_colors_delta", 2),
        (("--samples", "5"), "extra_samples", 5),
        (("--budget", "99"), "max_nodes", 99),
        (("--seed", "13"), "seed", 13),
        (("--thorough",), "thorough", True),
        (("--out", "reports.jsonl"), "output_path", "reports.jsonl"),
    ])
    def test_sweep_flag_fills_its_field(self, argv, keys, func, flags, field, value):
        args = build_parser().parse_args([*argv, *flags])
        assert set(vars(args)) == keys and args.func is getattr(rainbowpath.cli, func)
        assert _make_config(args, args.thorough) == dataclasses.replace(HarnessConfig(),
                                                                        **{field: value})

    def test_jobs_is_a_corpus_flag(self, capsys):
        args = build_parser().parse_args(["corpus", "F", "--jobs", "3"])
        assert _make_config(args, args.thorough) == HarnessConfig(parallelism=3)
        with pytest.raises(SystemExit) as exc:
            main(["check", "G", "--jobs", "2"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: rainbowpath ")
        assert err.endswith("error: unrecognized arguments: --jobs 2\n")

    def test_oracle_budget_defaults_to_search_budget(self):
        assert build_parser().parse_args(["oracle", "G"]).budget == SearchBudget().max_nodes


class TestCheckCommand:
    def test_c5(self, capsys, c5):
        code, out, _ = run(capsys, "check", encode_graph6(c5))
        assert code == 0
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["chi"] == 3 and payload["holds_for_all_checked"]

    def test_bad_graph6_exit_one(self, capsys):
        code, _, err = run(capsys, "check", "D?")
        assert code == 1 and "error" in err

    def test_out_file_holds_the_printed_line(self, capsys, tmp_path, c5):
        out_file = tmp_path / "report.json"
        code, out, _ = run(capsys, "check", encode_graph6(c5), "--out", str(out_file))
        assert code == 0 and out_file.read_text(encoding="ascii") == out

    def test_violation_exit_two(self, capsys, c5, one_vertex_rainbow):
        code, out, _ = run(capsys, "check", encode_graph6(c5))
        assert code == 2
        payload = json.loads(out)
        assert payload["holds_for_all_checked"] is False
        assert payload["witness_coloring"] == [1, 2, 1, 2, 3]

    def test_spent_budget_exit_three(self, capsys, caplog):
        code, out, _ = run(capsys, "check", MYCIELSKI_3, "--cap", "3", "--budget", "5")
        assert code == 3
        payload = json.loads(out)
        assert payload["holds_for_all_checked"] is False
        assert payload["witness_coloring"] is None
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 3 and all(m.endswith("-- undecided") for m in messages)


class TestCorpusCommand:
    def test_end_to_end(self, capsys, tmp_path, c5, k2):
        corpus = tmp_path / "corpus.g6"
        corpus.write_text(encode_graph6(k2) + "\n" + encode_graph6(c5) + "\n")
        out_file = tmp_path / "reports.jsonl"
        code, out, _ = run(
            capsys, "corpus", str(corpus), "--cap", "100", "--out", str(out_file),
        )
        assert code == 0
        assert "graphs processed: 2" in out
        assert "violations found: 0" in out
        assert len(out_file.read_text().splitlines()) == 2

    def test_non_ascii_line_skipped(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.g6"
        corpus.write_bytes(b"Dhc\n\xe9\nDhc\xa0\nDhc\n")
        code, out, _ = run(capsys, "corpus", str(corpus), "--cap", "10")
        assert code == 0
        assert "graphs processed: 2" in out
        assert "skipped line2: malformed graph6: illegal graph6 byte 233" in out
        assert "skipped line3: malformed graph6: illegal graph6 byte 160" in out

    def test_empty_graph_with_delta(self, capsys, tmp_path):
        """The empty graph is checked under no coloring at any delta, as at
        delta 0, and the graph after it is still reported."""
        corpus = tmp_path / "corpus.g6"
        corpus.write_text("?\nDhc\n")
        out_file = tmp_path / "reports.jsonl"
        code, out, _ = run(capsys, "corpus", str(corpus), "--delta", "1", "--out", str(out_file))
        assert code == 0
        assert "graphs processed: 2" in out
        empty, c5 = map(json.loads, out_file.read_text().splitlines())
        assert (empty["n"], empty["colorings_checked"], empty["checks"]) == (0, 0, [])
        assert c5["chi"] == 3 and c5["holds_for_all_checked"]

    def test_violation_exit_two(self, capsys, tmp_path, c5, one_vertex_rainbow):
        corpus = tmp_path / "corpus.g6"
        corpus.write_text(encode_graph6(c5) + "\n")
        out_file = tmp_path / "reports.jsonl"
        code, out, _ = run(capsys, "corpus", str(corpus), "--jobs", "1", "--out", str(out_file))
        assert code == 2
        assert "violations found: 1" in out.splitlines()
        [record] = map(json.loads, out_file.read_text().splitlines())
        assert record["holds_for_all_checked"] is False
        assert record["witness_coloring"] == [1, 2, 1, 2, 3]

    def test_spent_budget_exit_three(self, capsys, tmp_path, c5):
        corpus = tmp_path / "corpus.g6"
        corpus.write_text(encode_graph6(c5) + "\n" + MYCIELSKI_3 + "\n")
        out_file = tmp_path / "reports.jsonl"
        code, out, _ = run(capsys, "corpus", str(corpus), "--cap", "3", "--budget", "5",
                           "--out", str(out_file))
        assert code == 3
        assert "violations found: 0" in out.splitlines()
        assert "undecided: 1" in out.splitlines()
        c5_record, m3_record = map(json.loads, out_file.read_text().splitlines())
        assert c5_record["holds_for_all_checked"] is True
        assert m3_record["holds_for_all_checked"] is False
        assert m3_record["witness_coloring"] is None

    def test_violation_beats_undecided(self, capsys, tmp_path, monkeypatch, c5):
        # C5's searches prove a one-vertex shortfall, Mycielski-3's are cut short
        search = rainbowpath.harness.longest_induced_rainbow_path
        monkeypatch.setattr(
            rainbowpath.harness, "longest_induced_rainbow_path",
            lambda cg, budget: (SearchResult(Path((0,)), exact=True, nodes=1)
                                if cg.graph.n == 5 else search(cg, budget)))
        corpus = tmp_path / "corpus.g6"
        corpus.write_text(MYCIELSKI_3 + "\n" + encode_graph6(c5) + "\n")
        code, out, _ = run(capsys, "corpus", str(corpus), "--cap", "3", "--budget", "5",
                           "--jobs", "1", "--out", str(tmp_path / "reports.jsonl"))
        assert code == 2
        assert "violations found: 1" in out.splitlines()
        assert "undecided: 1" in out.splitlines()

    def test_failed_check_beats_violation(self, capsys, tmp_path, grotzsch, k2,
                                          corrupted_level_memo, one_vertex_rainbow):
        # Grotzsch's check fails in the construction; K2's rainbow searches
        # prove a one-vertex shortfall below chi 2
        corpus = tmp_path / "corpus.g6"
        corpus.write_text(encode_graph6(grotzsch) + "\n" + encode_graph6(k2) + "\n")
        out_file = tmp_path / "reports.jsonl"
        code, out, _ = run(capsys, "corpus", str(corpus), "--out", str(out_file))
        assert code == 1
        lines = out.splitlines()
        assert "violations found: 1" in lines
        assert ("skipped line1: check failed: construction produced an invalid path; "
                "is chi_lb too large?") in lines
        [record] = map(json.loads, out_file.read_text().splitlines())
        assert record["n"] == 2 and record["holds_for_all_checked"] is False

    def test_missing_file_exit_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "corpus", str(tmp_path / "nope.g6"))
        assert code == 1 and "error" in err
