"""Distributed regularized dual gradient simulator over time-varying directed graphs.

Library layout:

- :mod:`drdga.graph` — directed graph sequences and column-stochastic mixing
- :mod:`drdga.problem` — coupled problems as stacked ``(m, ...)`` arrays, the
  vectorized inner minimization, and ``compute_G_bound(problem)`` for all agents
- :mod:`drdga.engine` — the round kernel and run loop of both algorithms
- :mod:`drdga.baseline` — dual-decomposition baseline on doubly stochastic mixing
- :mod:`drdga.reference` — centralized solver used as the gap oracle
- :mod:`drdga.metrics` — per-round observables (``Metrics``, the structured
  dtype of a run's rows, one field per CSV column) and rate-bound evaluators
- :mod:`drdga.config`, :mod:`drdga.cli` — experiment files and the command line
"""

from .baseline import cdda_run_until, metropolis_matrix
from .config import Experiment, parse_config
from .engine import (
    RunConfig,
    RunState,
    ergodic_average,
    init_state,
    run_until,
)
from .errors import (
    ConfigError,
    InfeasibleProblemError,
    InvalidEdgeError,
    InvalidInputError,
    InvalidProblemError,
    InvariantError,
    UncertifiedSolutionError,
)
from .graph import (
    GraphSequence,
    build_weight_matrix,
    generate_graph_sequence,
    parse_edge_list,
)
from .metrics import (
    BoundConstants,
    Metrics,
    constants_from_run,
    theorem2_bound,
    theorem3_bound,
)
from .problem import (
    CoupledProblem,
    DiagonalQuadratic,
    LogUtility,
    compute_G_bound,
    make_num_problem,
    make_quadratic_problem,
    solve_local,
)
from .reference import ReferenceSolution, solve_centralized

__version__ = "0.1.0"

__all__ = [
    "BoundConstants",
    "ConfigError",
    "CoupledProblem",
    "DiagonalQuadratic",
    "Experiment",
    "GraphSequence",
    "InfeasibleProblemError",
    "InvalidEdgeError",
    "InvalidInputError",
    "InvalidProblemError",
    "InvariantError",
    "LogUtility",
    "Metrics",
    "ReferenceSolution",
    "RunConfig",
    "RunState",
    "UncertifiedSolutionError",
    "build_weight_matrix",
    "cdda_run_until",
    "compute_G_bound",
    "constants_from_run",
    "ergodic_average",
    "generate_graph_sequence",
    "init_state",
    "make_num_problem",
    "make_quadratic_problem",
    "metropolis_matrix",
    "parse_config",
    "parse_edge_list",
    "run_until",
    "solve_centralized",
    "solve_local",
    "theorem2_bound",
    "theorem3_bound",
]
