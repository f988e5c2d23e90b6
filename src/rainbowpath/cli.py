"""Command-line front end.

Subcommands: generate (families to graph6), bounds (threshold tables),
construct (colorful path with trace), lemma1 (graded rainbow-or-witness
procedure with trace), oracle (exact searches), check (single-graph
conjecture sweep), corpus (file sweep to JSONL).

Exit codes: 0 completed, 1 usage or input error, 2 completed with at least
one conjecture violation recorded (a shortfall proved by an exact search),
3 completed with no violation but at least one coloring undecided (its
search spent the node budget short of chi). corpus also exits 1, ahead of
2 and 3, when the check of a graph failed; it still writes every other
graph and names the failed line.
"""

from __future__ import annotations

import argparse
import sys

from .bounds import BoundsError, compute_bounds, guaranteed_length
from .colorful import ColorfulResult, colorful_path_from
from .generators import cycle_graph, kneser_graph, mycielski_iterates, random_triangle_free
from .graph6 import decode_graph6, encode_graph6, write_corpus
from .graphs import ColoredGraph, Coloring, GraphError, classify_path
from .grading import Grading, GradingOutcome, OutcomeKind, rainbow_or_witness
from .harness import HarnessConfig, check_graph, report_to_json, run_corpus, verdict
from .oracle import (
    SearchBudget,
    gallai_roy_rainbow_path,
    longest_induced_path,
    longest_induced_rainbow_path,
)


def _parse_coloring(text: str) -> Coloring:
    try:
        return Coloring(tuple(int(tok) for tok in text.split()))
    except ValueError as exc:
        raise GraphError(f"bad coloring line: {exc}") from exc


def _data_lines(path: str) -> list[str]:
    """The non-blank lines of an ASCII input file that are not '#' comments."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [line.strip() for line in fh]
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: byte {exc.object[exc.start]:#04x} is not ASCII") from exc
    return [line for line in lines if line and not line.startswith("#")]


def _colored_graph(args) -> ColoredGraph:
    """The graph6 argument with the coloring of --coloring or the first data
    line of --coloring-file; a malformed graph6 string is reported first."""
    g = decode_graph6(args.graph6)
    if args.coloring is not None:
        return ColoredGraph(g, _parse_coloring(args.coloring))
    if args.coloring_file is not None:
        lines = _data_lines(args.coloring_file)
        if not lines:
            raise GraphError(f"no coloring line found in {args.coloring_file}")
        return ColoredGraph(g, _parse_coloring(lines[0]))
    raise GraphError("provide --coloring or --coloring-file")


def read_grading_file(path: str) -> Grading:
    """Parse a grading file: one line per part listing vertex ids, followed
    by one line per part listing that part's coloring (same order)."""
    lines = _data_lines(path)
    if len(lines) % 2:
        raise GraphError(f"grading file needs 2 lines per part, got {len(lines)} lines")
    half = len(lines) // 2
    try:
        parts = tuple(tuple(int(t) for t in line.split()) for line in lines[:half])
        colorings = tuple(tuple(int(t) for t in line.split()) for line in lines[half:])
    except ValueError as exc:
        raise GraphError(f"bad grading file {path}: {exc}") from exc
    k = max((max(c) for c in colorings if c), default=1)
    return Grading(parts=parts, part_colorings=colorings, k=k)


def render_colorful_trace(result: ColorfulResult) -> list[str]:
    out = []
    for st in result.steps:
        out.append(f"level {st.level}: start={st.start} chi_lb={st.chi_lb} "
                   f"removed_color={st.removed_color}")
        out.append(f"  after removal: {list(st.after_removal)}")
        out.append(f"  chosen component: {list(st.chosen_component)}")
        out.append(f"  approach path: {list(st.approach_path)} pivot={st.pivot}")
        out.append(f"  pivot fan: {list(st.pivot_fan)}")
        out.append(f"  second component: {list(st.second_component)} bridge={st.bridge}")
        out.append(f"  recursed subgraph chi (audit): {st.recomputed_chi}")
        out.append(f"  sub path: {list(st.sub_path)}")
        out.append(f"  assembled: {list(st.assembled)}")
    return out


def render_grading_trace(outcome: GradingOutcome) -> list[str]:
    tr = outcome.trace
    out = [
        f"class chromatic numbers: {list(tr.class_chromatic_numbers)}",
        f"chosen class {tr.class_index}: {list(tr.class_vertices)}",
        f"orientation arcs (low->high color): {list(tr.arcs)}",
        f"part order: {list(tr.pi_order)}",
        f"forward arcs: {list(tr.forward_arcs)}",
        f"backward arcs: {list(tr.backward_arcs)}",
        f"longest forward path: {list(tr.forward_path)}",
        f"longest backward path: {list(tr.backward_path)}",
    ]
    for att in tr.bfs_attempts:
        line = (f"bfs {att.side} from {att.root}: depth={att.depth}"
                f" extracted={list(att.extracted) if att.extracted else None}")
        if att.verified_induced is not None:
            line += f" induced={att.verified_induced}"
        if att.fallback_used:
            line += " (exhaustive fallback used)"
        out.append(line)
    out.append(f"global witness scan used: {tr.global_witness_scan_used}")
    return out


# --kind -> the graphs it emits; each builder validates its own parameters
_GENERATORS = {
    "cycle": lambda args: [cycle_graph(args.n)],
    "mycielskian-iterate": lambda args: mycielski_iterates(args.depth),
    "kneser": lambda args: [kneser_graph(args.n, args.k)],
    "random-triangle-free": lambda args: [
        random_triangle_free(args.n, args.p, args.seed + i) for i in range(args.count)
    ],
}


def _cmd_generate(args) -> int:
    if args.count < 1:
        raise GraphError("count must be positive")
    graphs = _GENERATORS[args.kind](args)
    if args.out:
        print(f"wrote {write_corpus(args.out, graphs)} graphs to {args.out}")
    else:
        for g in graphs:
            print(encode_graph6(g))
    return 0


def _abbreviate(x: int, digits: int) -> str:
    """x in full if it has at most the given number of digits, else ~2^k.
    Decided without str(x), which refuses ints of over 4,300 digits."""
    return str(x) if x < 10**digits else f"~2^{x.bit_length() - 1}"


def _cmd_bounds(args) -> int:
    if args.chi is not None:
        s = guaranteed_length(args.chi)
        print(f"chi = {args.chi}: guaranteed induced rainbow path order s = {s}")
    rows = [compute_bounds(s) for s in range(3, args.s + 1)]
    if rows:
        print(f"{'s':>3} {'r':>24} {'c':>40}")
        for b in rows:
            print(f"{b.s:>3} {_abbreviate(b.r, 24):>24} {_abbreviate(b.c, 40):>40}")
        if args.verbose:
            for b in rows:
                weights = ", ".join(_abbreviate(w, 4300) for w in b.w)
                print(f"s={b.s}: w (w_s..w_1) = [{weights}]")
    return 0


def _cmd_construct(args) -> int:
    cg = _colored_graph(args)
    result = colorful_path_from(cg, args.start)
    report = classify_path(cg, result.path.vertices)
    print(f"path: {list(result.path.vertices)}")
    print(f"order: {report.order}  induced: {report.is_induced}  "
          f"colors: {report.color_count} (needed >= {-(-result.chi_lb // 2)})")
    if args.trace:
        for line in render_colorful_trace(result):
            print(line)
    return 0


def _cmd_lemma1(args) -> int:
    cg = _colored_graph(args)
    grading = read_grading_file(args.grading_file)
    outcome = rainbow_or_witness(cg, grading, args.s)
    print(f"outcome: {outcome.kind.value}")
    if outcome.kind is OutcomeKind.RAINBOW_PATH:
        print(f"rainbow path: {list(outcome.rainbow_path.vertices)}")
    elif outcome.kind is OutcomeKind.WITNESS:
        w = outcome.witness
        print(f"witness vertex: {w.vertex}")
        print(f"later distinct-colored neighbors: {list(w.later_neighbors)}")
    if args.trace:
        for line in render_grading_trace(outcome):
            print(line)
    return 0


def _cmd_oracle(args) -> int:
    colored = args.coloring is not None or args.coloring_file is not None
    cg = _colored_graph(args) if colored else None
    g = cg.graph if cg is not None else decode_graph6(args.graph6)
    budget = SearchBudget(max_nodes=args.budget, on_exceed="flag")
    lip = longest_induced_path(g, budget)
    print(f"longest induced path: {list(lip.path.vertices)} "
          f"(order {lip.path.order}, exact={lip.exact}, nodes={lip.nodes})")
    if cg is not None:
        rainbow = longest_induced_rainbow_path(cg, budget)
        print(f"longest induced rainbow path: {list(rainbow.path.vertices)} "
              f"(order {rainbow.path.order}, exact={rainbow.exact}, nodes={rainbow.nodes})")
        gallai = gallai_roy_rainbow_path(cg)
        print(f"color-orientation path: {list(gallai.vertices)} (order {gallai.order})")
    return 0


def _make_config(args, thorough: bool) -> HarnessConfig:
    return HarnessConfig(
        max_colors_delta=args.delta,
        coloring_cap=args.cap,
        extra_samples=args.samples,
        max_nodes=args.budget,
        parallelism=getattr(args, "jobs", HarnessConfig.parallelism),
        seed=args.seed,
        thorough=thorough,
        output_path=args.out,
    )


def _cmd_check(args) -> int:
    g = decode_graph6(args.graph6)
    cfg = _make_config(args, args.thorough)
    report = check_graph(g, cfg, graph_id="cli")
    line = report_to_json(report)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(line + "\n")
    print(line)
    return verdict(report)


def _cmd_corpus(args) -> int:
    cfg = _make_config(args, args.thorough)
    summary = run_corpus(args.path, cfg)
    print(f"graphs processed: {summary.graphs_processed}")
    print(f"colorings checked: {summary.checks_run}")
    print(f"violations found: {summary.violations}")
    print(f"undecided: {summary.undecided}")
    for reason in summary.skipped:
        print(f"skipped {reason}")
    print(f"wall time: {summary.wall_time:.2f}s")
    return 1 if summary.failed else 2 if summary.violations else 3 if summary.undecided else 0


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, like any other input error: argparse's own
    exit code 2 is the one that means a violation was recorded."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rainbowpath",
        description="Induced rainbow/colorful path workbench for triangle-free graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit graph families as graph6 lines")
    p.add_argument("--kind", required=True, choices=list(_GENERATORS))
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--p", type=float, default=0.3)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("bounds", help="threshold table r(s), c(s) and guarantee inversion")
    p.add_argument("--s", type=int, default=6, help="largest target order to tabulate")
    p.add_argument("--chi", type=int, help="invert: guaranteed order for this chi")
    p.add_argument("--verbose", action="store_true", help="also print weight sequences")
    p.set_defaults(func=_cmd_bounds)

    colored = argparse.ArgumentParser(add_help=False)  # the input of construct, lemma1 and oracle
    colored.add_argument("graph6")
    either = colored.add_mutually_exclusive_group()
    either.add_argument("--coloring", help="whitespace-separated colors in vertex-id order")
    either.add_argument("--coloring-file", help="file whose first data line is the coloring")

    p = sub.add_parser("construct", help="build a colorful induced path from a vertex",
                       parents=[colored])
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("lemma1", help="graded rainbow-path-or-witness procedure",
                       parents=[colored])
    p.add_argument("--grading-file", required=True)
    p.add_argument("--s", type=int, required=True, help="target path order (>= 3)")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_lemma1)

    p = sub.add_parser("oracle", help="exact search results for one graph", parents=[colored])
    p.add_argument("--budget", type=int, default=SearchBudget.max_nodes, help="search-node cap")
    p.set_defaults(func=_cmd_oracle)

    sweep = argparse.ArgumentParser(add_help=False)  # the flags check and corpus share
    sweep.add_argument("--cap", type=int, default=HarnessConfig.coloring_cap,
                       help="colorings per graph")
    sweep.add_argument("--delta", type=int, default=HarnessConfig.max_colors_delta,
                       help="extra colors beyond chi, up to n in all")
    sweep.add_argument("--samples", type=int, default=HarnessConfig.extra_samples,
                       help="random colorings beyond the cap")
    sweep.add_argument("--budget", type=int, default=HarnessConfig.max_nodes,
                       help="search-node cap")
    sweep.add_argument("--seed", type=int, default=HarnessConfig.seed)
    sweep.add_argument("--thorough", action="store_true",
                       help="run the colorful construction from every vertex")
    sweep.add_argument("--out", help="output path (JSON / JSONL)")
    verdicts = "; exits 2 on a proved violation, else 3 if a search was cut short below chi"

    help_text = "conjecture sweep over one graph" + verdicts
    p = sub.add_parser("check", help=help_text, description=help_text, parents=[sweep])
    p.add_argument("graph6")
    p.set_defaults(func=_cmd_check)

    help_text = "conjecture sweep over a graph6 corpus file" + verdicts
    p = sub.add_parser("corpus", help=help_text, description=help_text, parents=[sweep])
    p.add_argument("path")
    p.add_argument("--jobs", type=int, default=HarnessConfig.parallelism,
                   help="worker processes, at most one per graph and per CPU")
    p.set_defaults(func=_cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, BoundsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
