"""Primal-dual active set solver for the discrete contact problem.

The discrete saddle point couples the P1 Poisson operator with the
biorthogonal multiplier only through the diagonal D_j = <phi_j, 1>, so the
complementarity system is nodal: at each multiplier DOF either the solution
touches the obstacle and the multiplier is non-negative, or the multiplier
vanishes and the solution stays below the obstacle.  PDAS iterates on the
guessed active set A_k: it imposes u_j = g_j on A_k and lambda_j = 0 off it,
solves the reduced SPD system, recovers active multipliers from the residual
scaled by D_j, and updates A_{k+1} = { j : lambda_j + c (u_j - g_j)/D_j > 0 }.
The iteration terminates finitely; on the benchmark it stabilizes in a
handful of steps.

Each step factorizes the free block of the stiffness matrix with SuperLU.
The caller orders the unknowns: the free block is listed in the nested
dissection order of ``mesh.elimination_order``, and SuperLU keeps that
order (``LU_OPTIONS``), without row pivoting since the block is SPD.  One
step of iterative refinement always follows the first triangular solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import FeFunction, FeSystem, build_system
from .biortho import MultiplierFunction
from .mesh import TriMesh, TraceMap, elimination_order

# SuperLU settings for an SPD block listed in elimination order: keep the
# caller's column order and pivot on the diagonal
LU_OPTIONS = dict(permc_spec="NATURAL", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))


class SolverError(RuntimeError):
    """Raised on non-convergence or a defective linear system.

    Carries the last iterate in the ``solution`` attribute when available.
    """

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution


@dataclass(frozen=True)
class VISolution:
    """Converged primal/dual pair with its active set and iteration data."""

    u: FeFunction
    multiplier: MultiplierFunction
    active: np.ndarray  # bool per multiplier DOF
    iterations: int
    residual: float  # inf-norm of the saddle-point residual on free rows


def linear_subsolve(matrix: sp.spmatrix, rhs: np.ndarray, rtol: float = 1e-12):
    """Solve an SPD system to relative residual rtol by sparse LU.

    The factorization keeps the order in which the caller lists the
    unknowns, so list them in ``elimination_order``.  One step of iterative
    refinement always follows the first solve, and up to two more run while
    the residual is above rtol, so the contract holds also for
    ill-conditioned fine-level systems.
    """
    matrix = matrix.tocsc()
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs)
    try:
        lu = spla.splu(matrix, **LU_OPTIONS)
    except RuntimeError as exc:  # singular factorization
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    x = lu.solve(rhs)
    x = x + lu.solve(rhs - matrix @ x)
    for _ in range(2):
        r = rhs - matrix @ x
        if np.linalg.norm(r) <= rtol * rhs_norm:
            break
        x = x + lu.solve(r)
    res = float(np.linalg.norm(rhs - matrix @ x))
    if not np.isfinite(res) or res > rtol * rhs_norm * 10.0:
        raise SolverError(f"linear solve residual {res:.3e} exceeds contract")
    return x


def solve_vi(
    mesh: TriMesh,
    tmap: TraceMap,
    sol,
    g=0.0,
    system: FeSystem | None = None,
    warm_start: bool = True,
    c: float = 1.0,
    max_iter: int = 100,
) -> VISolution:
    """Solve the discrete variational inequality by PDAS.

    g is the obstacle at the multiplier DOFs (scalar or per-DOF array;
    affine obstacles are supported through the array form).  Dirichlet data
    are the nodal values of sol on Gamma_D.  With warm_start the initial
    active set is every multiplier DOF inside [x_left, x_right], otherwise
    empty; the converged solution does not depend on the start.
    """
    if system is None:
        system = build_system(mesh, tmap, sol)
    A = system.stiffness
    F = system.load
    D = system.lumped_mass
    trace = system.trace_dofs
    n_mult = trace.shape[0]
    g = np.broadcast_to(np.asarray(g, dtype=float), (n_mult,)).copy()

    u = np.zeros(mesh.num_vertices)
    u[system.dirichlet_idx] = system.dirichlet_values

    if warm_start:
        x = tmap.multiplier_x
        active = (x >= sol.x_left) & (x <= sol.x_right)
    else:
        active = np.zeros(n_mult, dtype=bool)

    order = elimination_order(mesh)

    def solve_fixed(active):
        fixed_mask = ~system.free_mask
        fixed_mask[trace[active]] = True
        u[trace[active]] = g[active]
        free = order[~fixed_mask[order]]
        fixed = np.flatnonzero(fixed_mask)
        rows = A[free]
        rhs = F[free] - rows[:, fixed] @ u[fixed]
        u[free] = linear_subsolve(rows[:, free], rhs)
        lam = np.zeros(n_mult)
        lam[active] = (F - A @ u)[trace[active]] / D[active]
        return u[trace], lam

    active, lam, iterations, converged = pdas(solve_fixed, g, D, active, c, max_iter)
    level = mesh.level
    solution = VISolution(
        u=FeFunction(level, u),
        multiplier=MultiplierFunction(level, lam),
        active=active,
        iterations=iterations,
        residual=_saddle_residual(system, u, lam),
    )
    if not converged:
        raise SolverError(f"PDAS did not converge within {max_iter} iterations", solution)
    return solution


def pdas(solve_fixed, g: np.ndarray, D: np.ndarray, active: np.ndarray, c: float, max_iter: int):
    """Primal-dual active set iteration on a nodal complementarity system.

    solve_fixed(active) solves the system with the trace fixed to g on the
    active DOFs and the multiplier zero off them, and returns the trace
    values t and the multiplier lam.  The next active set is
    { j : lam_j + c (t_j - g_j) / D_j > 0 }; the iteration has converged
    when it repeats.  Returns (active, lam, iterations, converged), where
    lam is the last step's multiplier and active the set that follows it.
    """
    lam = np.zeros(g.shape[0])
    iterations = 0
    for iterations in range(1, max_iter + 1):
        t, lam = solve_fixed(active)
        new_active = (lam + c * (t - g) / D) > 0.0
        if np.array_equal(new_active, active):
            return active, lam, iterations, True
        active = new_active
    return active, lam, iterations, False


def _saddle_residual(system: FeSystem, u: np.ndarray, lam: np.ndarray) -> float:
    """Inf-norm of F - A u - B lambda over the non-Dirichlet rows."""
    r = system.load - system.stiffness @ u
    r[system.trace_dofs] -= lam * system.lumped_mass
    return float(np.max(np.abs(r[system.free_mask])))


def discrete_transmission_points(solution: VISolution, tmap: TraceMap) -> tuple[float, float]:
    """Extremal x coordinates of the converged active set.

    An empty active set signals that the mesh is too coarse to resolve the
    contact interval at all and is reported as an error.
    """
    if not np.any(solution.active):
        raise SolverError("active set is empty; contact interval unresolved")
    x = tmap.multiplier_x[solution.active]
    return float(x.min()), float(x.max())
