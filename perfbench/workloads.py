"""The benchmark's workloads: inputs made from a seed, the measured phase,
and an independent check of every output.

Library functions are always looked up on their module at call time
(``harness.run_corpus``, ``oracle.longest_induced_path``, ...), so that a
traced run, which replaces those attributes, sees every call.

An operation is one coloring checked (sweeps) or one solver call
(exact-solvers). Validation counts each operation that raised, was skipped
or produced a wrong output as failed.
"""

from __future__ import annotations

import hashlib
import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from rainbowpath import chromatic, cli, generators, grading, graph6, graphs, harness, oracle

@dataclass
class Validation:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(problem)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Sweep:
    """``rainbowpath corpus <corpus> <flags>``: one run_corpus call over a
    corpus written in set-up, with the config the CLI would build."""

    name: str
    flags: tuple[str, ...]

    def corpus_graphs(self, seed: int) -> list[tuple[graphs.Graph, int | None]]:
        """The corpus graphs, each with its known chromatic number or None."""
        raise NotImplementedError

    def setup(self, seed: int, workdir: Path) -> dict:
        expected = self.corpus_graphs(seed)
        corpus = workdir / "corpus.g6"
        graph6.write_corpus(corpus, [g for g, _ in expected])
        out = workdir / "reports.jsonl"
        args = cli.build_parser().parse_args(
            ["corpus", str(corpus), *self.flags, "--seed", str(seed), "--out", str(out)]
        )
        return {"expected": expected, "corpus": corpus, "out": out,
                "cfg": cli._make_config(args, args.thorough), "delta": args.delta}

    def measure(self, state: dict) -> dict:
        try:
            summary = harness.run_corpus(state["corpus"], state["cfg"])
        except Exception:
            return {"error": traceback.format_exc(), "ops": 0}
        return {"summary": summary, "ops": summary.checks_run}

    def validate(self, state: dict, result: dict) -> tuple[Validation, str]:
        val = Validation()
        if "error" in result:
            val.attempted = 1
            val.fail(f"run_corpus raised: {result['error'].splitlines()[-1]}")
            return val, ""
        lines = state["out"].read_text(encoding="ascii").splitlines()
        expected = state["expected"]
        for reason in result["summary"].skipped:
            val.attempted += 1
            val.fail(f"skipped {reason}")
        if len(lines) != len(expected):
            val.attempted += 1
            val.fail(f"{len(lines)} reports for {len(expected)} graphs")
        for line, (g, chi) in zip(lines, expected):
            self._check_report(json.loads(line), g, chi, state["delta"], val)
        return val, sha256_file(state["out"])

    @staticmethod
    def _check_report(rec: dict, g: graphs.Graph, known_chi: int | None, delta: int,
                      val: Validation) -> None:
        checks = rec["checks"]
        val.attempted += len(checks)
        gid = rec["graph_id"]
        chi = rec["chi"]
        header = []
        if rec["graph6"] != graph6.encode_graph6(g) or rec["n"] != g.n or rec["m"] != g.edge_count:
            header.append("graph does not match the corpus")
        if known_chi is not None and chi != known_chi:
            header.append(f"chi {chi}, expected {known_chi}")
        if known_chi is None and not (_colorable(g, chi) and not _colorable(g, chi - 1)):
            header.append(f"chi {chi} is not the chromatic number")
        if rec["colorings_checked"] != len(checks) or not checks:
            header.append(f"colorings_checked {rec['colorings_checked']} vs {len(checks)} records")
        orders = [c["rainbow_order"] for c in checks]
        holds = all(o >= chi for o in orders)
        if checks and rec["min_rainbow_order_observed"] != min(orders):
            header.append("min_rainbow_order_observed disagrees with the records")
        if rec["holds_for_all_checked"] != holds or (rec["witness_coloring"] is None) != holds:
            header.append("holds_for_all_checked / witness disagree with the records")
        if header:
            val.fail(f"{gid}: {'; '.join(header)}", ops=len(checks) or 1)
            return
        needed = -(-chi // 2)
        for c in checks:
            wrong = []
            if c["gallai_roy_order"] < chi:
                wrong.append(f"gallai_roy_order {c['gallai_roy_order']} < chi")
            if c["colorful_colors"] < needed:
                wrong.append(f"colorful_colors {c['colorful_colors']} < {needed}")
            if not 1 <= c["rainbow_order"] <= chi + delta:
                wrong.append(f"rainbow_order {c['rainbow_order']} outside [1, {chi + delta}]")
            if c["rainbow_order"] < chi:
                # Graphs of chromatic number at most 5 with these few
                # colorings showed no violation at the reference commit; one
                # here is far likelier a wrong or truncated search than a
                # counterexample, so it fails the operation.
                wrong.append(f"violation: rainbow_order {c['rainbow_order']} < chi {chi}")
            if wrong:
                val.fail(f"{gid} coloring {c['coloring_digest']}: {'; '.join(wrong)}")


class MycielskiSweep(Sweep):
    """The paper's verdict sweep: 1526 colorings of K2, C5, Grotzsch and
    Mycielski-3. The rainbow search takes about 72% of the time and every
    search reaches the palette size, so palette-bound work shows here."""

    name = "mycielski-sweep"
    flags = ("--cap", "1000", "--delta", "0")

    def corpus_graphs(self, seed: int) -> list[tuple[graphs.Graph, int | None]]:
        # K2 and its Mycielski iterates: depth d has chi = d + 2.
        return [(g, d + 2) for d, g in enumerate(generators.mycielski_iterates(3))]


class RandomThorough(Sweep):
    """The colorful construction from every pivot on 32 distinct graphs, with
    one color beyond chi. Its subtree (induced subgraphs, DSATUR, the chi
    cache) takes about 90% of the time; the rainbow search about 6%."""

    name = "random-thorough"
    flags = ("--thorough", "--delta", "1", "--cap", "20", "--samples", "10")

    def corpus_graphs(self, seed: int) -> list[tuple[graphs.Graph, int | None]]:
        out: list[tuple[graphs.Graph, int | None]] = [
            (generators.random_triangle_free(18, 0.3, seed=seed + i), None) for i in range(30)
        ]
        # Random graphs of this size are almost always connected with chi 3;
        # Grotzsch and Grotzsch + C5 add the deeper recursion and the
        # component path of the colorful arena.
        grotzsch = generators.mycielski_iterates(2)[-1]
        c5 = generators.cycle_graph(5)
        union = graphs.build_graph(
            grotzsch.n + c5.n,
            list(grotzsch.edges()) + [(grotzsch.n + u, grotzsch.n + v) for u, v in c5.edges()],
        )
        return out + [(grotzsch, 4), (union, 4)]


class ExactSolvers:
    """Direct library calls on random graphs n=14..28: exact chromatic number,
    longest induced path, the rainbow search under the all-distinct coloring
    (whose palette is never reached), the most-colorful path from every vertex
    and the graded procedure; then chi of Mycielski-4. The exact chromatic
    search takes about 60% of the time, and this is the only workload that
    reaches the induced-path, most-colorful and grading layers."""

    name = "exact-solvers"
    sizes = tuple(range(14, 29, 2))
    seeds_per_size = 5

    def setup(self, seed: int, workdir: Path) -> dict:
        cases = [
            (n, s, generators.random_triangle_free(n, 0.35, s))
            for n in self.sizes
            for s in range(seed, seed + self.seeds_per_size)
        ]
        m4 = generators.mycielskian(generators.mycielski_iterates(3)[-1])
        graph6.write_corpus(workdir / "corpus.g6", [g for _, _, g in cases] + [m4])
        return {"cases": cases, "m4": m4, "out": workdir / "results.jsonl"}

    def measure(self, state: dict) -> dict:
        rows = []
        for n, s, g in state["cases"]:
            budget = oracle.SearchBudget(max_vertices=max(25, g.n), on_exceed="flag")
            row = {"n": n, "seed": s, "g": g, "errors": []}

            def call(key, fn, *args):
                try:
                    return fn(*args)
                except Exception:
                    row["errors"].append(f"{key}: {traceback.format_exc().splitlines()[-1]}")
                    return None

            row["chi"] = call("chi", chromatic.chromatic_number, g)
            row["lip"] = call("lip", oracle.longest_induced_path, g, budget)
            distinct = graphs.ColoredGraph(g, graphs.Coloring(tuple(range(1, g.n + 1))))
            row["rainbow"] = call("rainbow", oracle.longest_induced_rainbow_path, distinct, budget)
            cg = graphs.ColoredGraph(g, chromatic.dsatur_coloring(g))
            row["cg"] = cg
            row["colorful"] = [
                call(f"colorful[{v}]", oracle.max_colorful_induced_path_from, cg, v, budget)
                for v in range(g.n)
            ]
            row["grading"] = grading.singleton_grading(g)
            row["outcome"] = call("grading", grading.rainbow_or_witness, cg, row["grading"], 3)
            rows.append(row)
        try:
            m4_chi = chromatic.chromatic_number(state["m4"])
        except Exception:
            m4_chi = None
        ops = sum(4 + row["g"].n for row in rows) + 1
        return {"rows": rows, "m4_chi": m4_chi, "ops": ops}

    def validate(self, state: dict, result: dict) -> tuple[Validation, str]:
        val = Validation(attempted=result["ops"])
        lines = []
        for row in result["rows"]:
            gid = f"n={row['n']} seed={row['seed']}"
            g = row["g"]
            for err in row["errors"]:
                val.fail(f"{gid} {err}")
            if row["chi"] is not None and not _chi_ok(g, row["chi"]):
                val.fail(f"{gid}: chi {row['chi'].chi} is not the chromatic number")
            distinct = graphs.ColoredGraph(g, graphs.Coloring(tuple(range(1, g.n + 1))))
            lip, rainbow = row["lip"], row["rainbow"]
            if lip is not None and not _exact_induced(distinct, lip):
                val.fail(f"{gid}: longest induced path is inexact or not induced")
            if rainbow is not None:
                report = graphs.classify_path(distinct, rainbow.path.vertices)
                if not (rainbow.exact and report.is_induced and report.is_rainbow):
                    val.fail(f"{gid}: all-distinct rainbow path is inexact or invalid")
                elif lip is not None and rainbow.path.order != lip.path.order:
                    val.fail(f"{gid}: all-distinct rainbow order {rainbow.path.order} "
                             f"!= longest induced path order {lip.path.order}")
            cg = row["cg"]
            for v, res in enumerate(row["colorful"]):
                if res is not None and not (_exact_induced(cg, res) and res.path.vertices[0] == v):
                    val.fail(f"{gid}: most-colorful path from {v} is inexact or invalid")
            outcome = row["outcome"]
            if outcome is not None and not _outcome_ok(cg, row["grading"], outcome):
                val.fail(f"{gid}: grading outcome {outcome.kind.value} does not verify")
            lines.append(_result_line(row))
        if result["m4_chi"] is None or not _chi_ok(state["m4"], result["m4_chi"], known=6):
            val.fail("mycielski-4: chromatic number is not a proved 6")
        lines.append(json.dumps({"graph": "mycielski-4", "chi": _chi_value(result["m4_chi"])}))
        state["out"].write_text("\n".join(lines) + "\n", encoding="ascii")
        return val, sha256_file(state["out"])


def _chi_value(res) -> int | None:
    return res.chi if res is not None else None


def _chi_ok(g: graphs.Graph, res, known: int | None = None) -> bool:
    """The witness is a proper res.chi-coloring and no fewer colors suffice
    (taken from `known` where the chromatic number is a known fact)."""
    if not (graphs.is_proper(g, res.witness) and res.witness.palette_size == res.chi):
        return False
    return res.chi == known if known is not None else not _colorable(g, res.chi - 1)


def _colorable(g: graphs.Graph, k: int) -> bool:
    """Exhaustive k-colorability, independent of the library's solver.

    Vertices are taken in breadth-first order and a vertex may open at most
    one new color; fast enough for the graphs of up to 28 vertices checked here.
    """
    order: list[int] = []
    seen: set[int] = set()
    for root in range(g.n):
        if root in seen:
            continue
        seen.add(root)
        order.append(root)
        i = len(order) - 1
        while i < len(order):
            fresh = [u for u in g.neighbors(order[i]) if u not in seen]
            seen.update(fresh)
            order.extend(fresh)
            i += 1
    colors = [0] * g.n

    def place(i: int, used: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        taken = {colors[u] for u in g.neighbors(v)}
        for c in range(1, min(used + 1, k) + 1):
            if c not in taken:
                colors[v] = c
                if place(i + 1, max(used, c)):
                    return True
        colors[v] = 0
        return False

    return place(0, 0)


def _exact_induced(cg: graphs.ColoredGraph, res) -> bool:
    return res.exact and graphs.classify_path(cg, res.path.vertices).is_induced


def _outcome_ok(cg: graphs.ColoredGraph, grad, outcome) -> bool:
    kind = outcome.kind
    if kind is grading.OutcomeKind.RAINBOW_PATH:
        report = graphs.classify_path(cg, outcome.rainbow_path.vertices)
        return report.is_induced and report.is_rainbow and report.order == 3
    if kind is grading.OutcomeKind.WITNESS:
        return grading.verify_witness_outcome(cg, grad, outcome.witness, 3)
    return kind is grading.OutcomeKind.NO_GUARANTEE


def _path(res) -> list[int] | None:
    return list(res.path.vertices) if res is not None else None


def _result_line(row: dict) -> str:
    """Deterministic record of one graph's solver outputs."""
    outcome = row["outcome"]
    detail = None
    if outcome is not None:
        detail = (list(outcome.rainbow_path.vertices) if outcome.rainbow_path
                  else [outcome.witness.vertex, *outcome.witness.later_neighbors]
                  if outcome.witness else None)
    return json.dumps({
        "n": row["n"], "seed": row["seed"], "graph6": graph6.encode_graph6(row["g"]),
        "chi": _chi_value(row["chi"]), "induced_path": _path(row["lip"]),
        "rainbow_path": _path(row["rainbow"]),
        "most_colorful": [_path(r) for r in row["colorful"]],
        "grading": [outcome.kind.value if outcome else None, detail],
    }, separators=(",", ":"))


def kernel_path() -> str:
    """Which search kernels ran; survives removal of rainbowpath.backend."""
    try:
        from rainbowpath import backend
    except ImportError:
        return "pure (no backend module)"
    try:
        return "numba" if backend.use_jit(23, 5) else "pure"
    except (RuntimeError, ValueError) as exc:
        return f"unavailable: {exc}"


WORKLOADS = {w.name: w for w in (MycielskiSweep(), RandomThorough(), ExactSolvers())}
