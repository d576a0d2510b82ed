"""dichromate: unbalanced dichromatic numbers and congruence-constrained
subdivisions in arc-labeled digraphs.

Given a digraph with two arc classes z1 and z2, a directed cycle is
*unbalanced* when it meets the two classes a different number of times, and
mu(D, z1, z2) is the least number of parts in a vertex partition in which no
part induces an unbalanced cycle (with z1 = all arcs and z2 empty this is
the dichromatic number).  The library computes and certifies mu, extracts
disjoint unbalanced cycles and connector structures, and finds subdivisions
of a pattern digraph whose branching paths satisfy per-arc congruence
constraints, both through the constructive decomposition pipeline and
through a practical exact search.
"""

from .balance import (CyclePacking, DirectedCycle, disjoint_unbalanced_cycles,
                      has_unbalanced_cycle, shortest_unbalanced_cycle)
from .constructive import (CORE_FLOOR, GadgetSequences,
                           ResidueUniversalSet, SpecialSetResult,
                           check_gadget_sequences, check_residue_universal_set,
                           check_special_set, extract_subdivision,
                           gadget_sequences, gadget_threshold,
                           residue_universal_set, special_set,
                           special_set_threshold, subdivision_threshold,
                           two_arc_cycle, universal_threshold)
from .decomposition import (ConnectorSet, LevelSplitResult, NestedSequence,
                            connector_set, level_split, nested_connector_sequence)
from .digraph import (IN, OUT, BfsTree, DirectedPath, LabeledDigraph, bfs_tree,
                      first_path_to_set, is_strongly_connected, strong_components,
                      tree_path)
from .errors import (ConstructionFailed, MuBoundExceeded, OracleUnavailable,
                     ParseError, PreconditionViolation)
from .formats import (Instance, emit_instance, emit_pattern, emit_witness,
                      instance_to_dot, parse_instance, parse_pattern,
                      parse_witness, write_text_atomic)
from .generators import (gen_bioriented_clique, gen_planted,
                         gen_planted_undirected, gen_random)
from .mu import (ComponentTrace, MuResult, VertexPartition, mu_exact,
                 mu_greedy_upper, verify_lower_bound, verify_partition)
from .oracles import (BiorientedCliqueOracle, ExactMuOracle, HintMuOracle,
                      MuOracle)
from .search import (ABSENT, FOUND, INDETERMINATE, BudgetExhausted, ResidueQuery,
                     SearchBudget, SearchOutcome, UndirectedLabeledGraph,
                     UndirectedPattern, UndirectedPatternEdge, UndirectedWitness,
                     biorient, find_subdivision, find_subdivision_undirected,
                     iter_residue_paths, residue_path, verify_undirected_witness,
                     walk_reach_masks)
from .subdivision import (PatternArc, SubdivisionPattern, SubdivisionWitness,
                          VerificationReport, path_residue, verify_witness)

__version__ = "0.1.0"

__all__ = [
    "ABSENT", "BfsTree", "BiorientedCliqueOracle", "BudgetExhausted", "CORE_FLOOR",
    "ComponentTrace", "ConnectorSet", "ConstructionFailed", "CyclePacking",
    "DirectedCycle", "DirectedPath", "ExactMuOracle", "FOUND",
    "GadgetSequences", "HintMuOracle", "IN", "INDETERMINATE", "Instance",
    "LabeledDigraph", "LevelSplitResult", "MuBoundExceeded",
    "MuOracle", "MuResult", "NestedSequence", "OUT", "OracleUnavailable",
    "ParseError", "PatternArc", "PreconditionViolation", "ResidueQuery",
    "ResidueUniversalSet", "SearchBudget", "SearchOutcome",
    "SpecialSetResult", "SubdivisionPattern", "SubdivisionWitness",
    "UndirectedLabeledGraph", "UndirectedPattern",
    "UndirectedPatternEdge", "UndirectedWitness", "VerificationReport",
    "VertexPartition", "biorient", "bfs_tree", "check_gadget_sequences",
    "check_residue_universal_set", "check_special_set", "connector_set",
    "disjoint_unbalanced_cycles", "emit_instance", "emit_pattern",
    "emit_witness", "extract_subdivision", "find_subdivision",
    "find_subdivision_undirected", "first_path_to_set", "gadget_sequences",
    "gadget_threshold", "gen_bioriented_clique", "gen_planted",
    "gen_planted_undirected", "gen_random", "has_unbalanced_cycle",
    "instance_to_dot", "is_strongly_connected", "iter_residue_paths",
    "level_split", "mu_exact", "mu_greedy_upper", "nested_connector_sequence",
    "parse_instance", "parse_pattern", "parse_witness", "path_residue",
    "residue_path", "residue_universal_set", "shortest_unbalanced_cycle",
    "special_set", "special_set_threshold", "strong_components",
    "subdivision_threshold", "tree_path", "two_arc_cycle",
    "universal_threshold", "verify_lower_bound", "verify_partition",
    "verify_undirected_witness", "verify_witness", "walk_reach_masks",
    "write_text_atomic",
]
