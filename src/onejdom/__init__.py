"""Toolkit for (1,j)-domination: a set D is a (1,j)-set when every vertex
outside D has at least one and at most j neighbors inside D.

The package bundles exact oracles, a linear-time tree dynamic program, a
polynomial split-graph algorithm, a randomized constructor for
bounded-degree graphs, and the exact-3-cover hardness gadget builder, all
cross-validated against each other.
"""

from .errors import (InfeasibleProbabilityError, InternalContradictionError,
                     ParseError, PreconditionError, PremiseInfeasibleError,
                     ResampleLimitError, SizeGuardError)
from .generators import (complete_graph, composite_gamma_n, cycle_graph, gnp,
                         path_graph, random_regular, random_split, random_tree,
                         star_graph)
from .graph import (Graph, SplitPartition, is_connected, is_tree, parse_edge_list,
                    validate_split_partition, write_edge_list)
from .lll import (LLLParams, MTConfig, MTRun, compute_alpha,
                  regular_graph_bound, f_alpha, feasibility_threshold, g_delta,
                  lll_params, lll_params_for_graph, mt_construct, mt_trials,
                  s_alpha, selection_probability)
from .oracle import (VerifyReport, Witness, exact_gamma, exact_gamma_1j,
                     exact_gamma_M, verify_1j_set)
from .recognize import ChordalityResult, chordality_check, find_chordless_cycle, split_recognition
from .reduction import (EX3CInstance, GadgetCheck, ReductionArtifact, build_reduction,
                        extract_cover, forward_witness, gadget_lower_bounds,
                        parse_ex3c, solve_ex3c_brute, write_ex3c)
from .splitsolve import GammaNReport, SplitCaseResult, gamma_1j_split, is_gamma_n_split
from .treesolve import (MLabeledTree, gamma_1j_tree, gamma_M, m_band_violations,
                        uniform_labeled_tree)

__version__ = "0.1.0"

__all__ = [
    "ChordalityResult", "EX3CInstance", "GammaNReport", "Graph",
    "InfeasibleProbabilityError", "InternalContradictionError", "LLLParams",
    "GadgetCheck", "MLabeledTree", "MTConfig", "MTRun", "ParseError",
    "PreconditionError", "PremiseInfeasibleError", "ReductionArtifact",
    "ResampleLimitError", "SizeGuardError", "SplitCaseResult", "SplitPartition",
    "VerifyReport", "Witness", "build_reduction", "complete_graph",
    "composite_gamma_n", "compute_alpha",
    "regular_graph_bound", "chordality_check",
    "cycle_graph", "exact_gamma", "exact_gamma_1j", "exact_gamma_M",
    "extract_cover", "f_alpha", "feasibility_threshold", "find_chordless_cycle",
    "forward_witness", "g_delta", "gadget_lower_bounds", "gamma_1j_split",
    "gamma_1j_tree", "gamma_M", "gnp", "is_connected", "is_gamma_n_split",
    "is_tree", "lll_params", "lll_params_for_graph", "m_band_violations",
    "mt_construct", "mt_trials", "parse_edge_list", "parse_ex3c", "path_graph",
    "random_regular", "random_split", "random_tree",
    "s_alpha", "selection_probability", "solve_ex3c_brute", "split_recognition",
    "star_graph", "uniform_labeled_tree", "validate_split_partition",
    "verify_1j_set", "write_edge_list", "write_ex3c",
]
