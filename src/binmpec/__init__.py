"""Solvers for binary quadratic programs over boxes, cardinality sets,
and assignment blocks, built around an equilibrium-constraint
reformulation of the binary set."""

from .adm import AdmConfig, solve_adm
from .baselines import (BaselineConfig, BaselineMethod, solve_iht,
                        solve_l2box_admm, solve_lp_round)
from .epm import EpmConfig, epm_v_update, solve_epm
from .kernels import active_backend
from .linalg import (SparseMatrix, matvec, quadratic_form,
                     spectral_norm_estimate, vector)
from .oracle import SizeLimitError, brute_force, feasible_count_binomial
from .problems import (Graph, ProblemInstance, SolverView, build_bisection,
                       build_constrained_segmentation, build_dense_subgraph,
                       build_modularity, build_mrf, check_binary_feasible,
                       generate, laplacian, modularity_value, round_feasible,
                       subgraph_weight)
from .projections import (FeasibleSet, project_box, project_capped_simplex,
                          project_feasible)
from .reformulations import (MpecVariant, domain_transform, h_ratio,
                             membership, round_sign)
from .report import SolveReport, trace_to_csv
from .subsolver import QuadraticObjective, SubproblemResult, solve_qp

__version__ = "0.1.0"

__all__ = [
    "AdmConfig", "BaselineConfig", "BaselineMethod", "EpmConfig",
    "FeasibleSet", "Graph", "MpecVariant", "ProblemInstance",
    "QuadraticObjective", "SizeLimitError", "SolveReport", "SolverView",
    "SparseMatrix", "SubproblemResult", "active_backend", "brute_force",
    "build_bisection", "build_constrained_segmentation",
    "build_dense_subgraph", "build_modularity", "build_mrf",
    "check_binary_feasible", "domain_transform", "epm_v_update",
    "feasible_count_binomial", "generate", "h_ratio", "laplacian", "matvec",
    "membership", "modularity_value", "project_box",
    "project_capped_simplex", "project_feasible", "quadratic_form",
    "round_feasible", "round_sign", "solve_adm", "solve_epm", "solve_iht",
    "solve_l2box_admm", "solve_lp_round", "solve_qp",
    "spectral_norm_estimate", "subgraph_weight", "trace_to_csv", "vector",
]
