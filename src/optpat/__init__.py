"""Workbench for the OPT fragment of SPARQL.

Pattern evaluation under left-outer-join semantics, well-designedness
classifiers, per-graph and bounded-search subsumption/containment analysis,
periodic-tiling solvers, and the instance-to-pattern-pair compiler with
witness construction and verification.
"""

from .analysis import (
    SearchBudget,
    Status,
    Verdict,
    check_contained_on,
    check_equivalent_on,
    check_subsumed_on,
    find_containment_counterexample,
    find_equivalence_counterexample,
    find_subsumption_counterexample,
)
from .core import (
    EMPTY_MAPPING,
    Graph,
    Iri,
    Mapping,
    ParseError,
    Triple,
    Var,
    parse_graph,
    serialize_graph,
    subsumed_mapping,
)
from .evaluation import (
    OracleBudgetError,
    SolutionSet,
    evaluate,
    evaluate_oracle,
    left_outer_join,
    match_basic,
)
from .pattern import (
    BasicPattern,
    Leaf,
    Opt,
    Pattern,
    TriplePattern,
    is_weakly_well_designed,
    is_well_designed,
    parse_pattern,
    pattern_constants,
    pattern_vars,
    serialize_pattern,
)
from .reduction import WitnessPair, build_p, build_p_prime, build_witness, verify_witness
from .tiling import (
    PeriodicTiling,
    RectTiling,
    TilingInstance,
    certify_untileable,
    find_periodic,
    find_rectangle,
    parse_instance,
    replicate,
    verify_periodic,
)

__version__ = "0.1.0"

__all__ = [
    "BasicPattern",
    "EMPTY_MAPPING",
    "Graph",
    "Iri",
    "Leaf",
    "Mapping",
    "OracleBudgetError",
    "Opt",
    "ParseError",
    "Pattern",
    "PeriodicTiling",
    "RectTiling",
    "SearchBudget",
    "SolutionSet",
    "Status",
    "TilingInstance",
    "Triple",
    "TriplePattern",
    "Var",
    "Verdict",
    "WitnessPair",
    "build_p",
    "build_p_prime",
    "build_witness",
    "certify_untileable",
    "check_contained_on",
    "check_equivalent_on",
    "check_subsumed_on",
    "evaluate",
    "evaluate_oracle",
    "find_containment_counterexample",
    "find_equivalence_counterexample",
    "find_periodic",
    "find_rectangle",
    "find_subsumption_counterexample",
    "is_weakly_well_designed",
    "is_well_designed",
    "left_outer_join",
    "match_basic",
    "parse_graph",
    "parse_instance",
    "parse_pattern",
    "pattern_constants",
    "pattern_vars",
    "replicate",
    "serialize_graph",
    "serialize_pattern",
    "subsumed_mapping",
    "verify_periodic",
    "verify_witness",
]
