"""P1 finite elements for the Poisson problem with unilateral contact
boundary conditions, a biorthogonal multiplier discretization, and a
boundary-norm convergence study on a manufactured benchmark.

The package root holds the names of the README's library example and of the
study runner; everything else is imported from its defining module."""

from .assembly import build_system
from .manufactured import ExactSolution
from .mesh import mesh_at_level, trace_map
from .norms import error_report
from .solver import SolverError, solve_vi
from .study import StudyConfig, StudyError, config_from_file, run_study

__all__ = [
    "ExactSolution",
    "SolverError",
    "StudyConfig",
    "StudyError",
    "build_system",
    "config_from_file",
    "error_report",
    "mesh_at_level",
    "run_study",
    "solve_vi",
    "trace_map",
]
