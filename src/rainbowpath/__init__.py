"""Workbench for induced rainbow and colorful paths in triangle-free graphs.

Exact brute-force oracles define ground truth; the constructive procedures
re-verify their own outputs; the harness sweeps colorings of whole corpora.
"""

from .bounds import BoundsParameters, compute_bounds, guaranteed_length
from .chromatic import (
    ChromaticResult,
    canonical_form,
    chromatic_number,
    dsatur_coloring,
    iter_colorings,
)
from .colorful import ColorfulResult, ColorfulStep, colorful_path_from
from .generators import (
    cycle_graph,
    kneser_graph,
    mycielski_iterates,
    mycielskian,
    petersen_graph,
    random_triangle_free,
)
from .graph6 import decode_graph6, encode_graph6, iter_corpus, write_corpus
from .grading import (
    Grading,
    GradingOutcome,
    GradingTrace,
    OutcomeKind,
    Witness,
    grading_from_partition,
    rainbow_or_witness,
    refine_grading,
    singleton_grading,
    validate_grading,
)
from .graphs import (
    ColoredGraph,
    Coloring,
    Graph,
    GraphError,
    Path,
    PathReport,
    build_graph,
    classify_path,
    connected_components,
    induced_subgraph,
    is_proper,
    is_triangle_free,
)
from .harness import (
    CheckRecord,
    ConjectureReport,
    HarnessConfig,
    check_graph,
    report_to_json,
    run_corpus,
)
from .oracle import (
    BudgetExceededError,
    GallaiRoyPath,
    SearchBudget,
    SearchResult,
    gallai_roy_rainbow_path,
    longest_induced_path,
    longest_induced_rainbow_path,
    max_colorful_induced_path_from,
)

__version__ = "0.1.0"
