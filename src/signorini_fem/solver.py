"""Primal-dual active set solver for the discrete contact problem.

The discrete saddle point couples the P1 Poisson operator with the
biorthogonal multiplier only through the diagonal D_j = <phi_j, 1>, so the
complementarity system is nodal: at each multiplier DOF either the solution
touches the obstacle and the multiplier is non-negative, or the multiplier
vanishes and the solution stays below the obstacle.  PDAS iterates on the
guessed active set A_k: it imposes u_j = g_j on A_k and lambda_j = 0 off it,
solves the reduced SPD system, recovers active multipliers from the residual
scaled by D_j, and updates A_{k+1} = { j : lambda_j + (u_j - g_j)/D_j > 0 }.
The iteration terminates finitely; on the benchmark it stabilizes in a
handful of steps.

``solve_vi`` starts from the empty active set and does not read the exact
solution.  It first runs PDAS on the problem condensed onto the trace,
(sigma, nu) of ``condense_system``, where a step is a dense solve on the
trace DOFs and nu is ``FeSystem.trace_multiplier`` of the zero trace, then
the full-space PDAS from the set found there; normally one step confirms
it.  Both stages solve with the system's own grid solver (``FeSystem.grid``,
a DST-I solver of the five-point stiffness, built with the system), so a
solve builds no solver and factorizes nothing.
``linear_subsolve`` is a sparse LU solve of an SPD block; SuperLU orders
the factor itself and pivots on the diagonal (``LU_OPTIONS``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import FeFunction, FeSystem, SolverError, build_system
from .mesh import TriMesh, TraceMap

# SuperLU settings for an SPD block: minimum degree on A^T + A orders the
# unknowns, and symmetric mode pivots on the diagonal
LU_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))


@dataclass(frozen=True)
class VISolution:
    """Converged primal/dual pair with its active set and iteration data."""

    u: FeFunction  # one value per mesh vertex
    multiplier: FeFunction  # one coefficient per multiplier DOF
    active: np.ndarray  # bool per multiplier DOF
    iterations: int  # PDAS steps on the trace plus full-space steps
    residual: float  # inf-norm of the saddle-point residual on free rows


def linear_subsolve(matrix: sp.spmatrix, rhs: np.ndarray, rtol: float = 1e-12):
    """Solve an SPD system to relative residual rtol by sparse LU.

    SuperLU orders the factor (``LU_OPTIONS``), so the caller may list the
    unknowns in any order.  One step of iterative refinement always follows
    the first solve, and up to two more run while the residual is above
    rtol, so the contract holds also for ill-conditioned fine-level systems.
    """
    matrix = matrix.tocsc()
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs)
    try:
        lu = spla.splu(matrix, **LU_OPTIONS)
    except (RuntimeError, MemoryError) as exc:  # singular, or no room for the factors
        raise SolverError(f"sparse factorization of {matrix.shape[0]} unknowns failed: {exc!r}") from exc
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


def condense_system(system: FeSystem):
    """The contact problem condensed onto the trace DOFs T: (sigma, nu).

    sigma = D^-1 S with S = A_TT - A_TI A_II^-1 A_IT from ``system.grid``,
    and nu = D^-1 (f_T - A_TI A_II^-1 f_I), with f the load less the
    Dirichlet lifting, is the Newton potential, ``system.trace_multiplier``
    of the zero trace.  The contact problem on the trace is: t <= g,
    lambda = nu - sigma t >= 0, and lambda (t - g) = 0.
    """
    return system.grid.schur / system.lumped_mass[:, None], system.trace_multiplier(0.0)


def solve_vi(
    mesh: TriMesh,
    tmap: TraceMap,
    sol,
    g=0.0,
    system: FeSystem | None = None,
    warm_start: bool = False,
    max_iter: int = 100,
) -> VISolution:
    """Solve the discrete variational inequality by PDAS from a cold start.

    g is the obstacle at the multiplier DOFs (scalar or per-DOF array;
    affine obstacles are supported through the array form); as in ``pdas``,
    a non-finite one or max_iter < 1 raises ValueError, here before any
    fill.  Dirichlet data are the nodal values of sol on Gamma_D; sol is
    read only to assemble the system when none is given.  The solve is
    trace first: PDAS runs from the empty active set on (sigma, nu) of
    ``condense_system``, and the full-space PDAS then starts from the set
    it returns.  A full-space step is ``system.fill`` of g on the active
    DOFs, which raises SolverError past its residual contract; the
    residual it returns gives the active multipliers and, less B lambda,
    ``residual``.  So u and lambda are those of the full-space system,
    whatever set the trace stage hands on.  ``iterations`` counts the
    steps of both stages.  Each stage takes at least one step and at most
    max_iter, and stops early when its active sets cycle (``pdas``).  A
    trace stage that does not converge still hands on its last set; a
    full-space stage that does not raises SolverError, which names the
    cycle if there is one.  warm_start=True raises ValueError: the solver
    does not read the contact interval of the exact solution.
    """
    if warm_start:
        raise ValueError("warm_start=True is gone: the solver no longer reads the exact contact interval")
    if system is None:
        system = build_system(mesh, tmap, sol)

    D = system.lumped_mass
    trace = system.trace_dofs
    g = np.broadcast_to(np.asarray(g, dtype=float), trace.shape).copy()
    _check_pdas_input(g, max_iter)

    _, _, active, trace_steps, _ = dense_pdas(*condense_system(system), g, D, max_iter)
    u = r = None

    def solve_fixed(active):
        nonlocal u, r
        u, r = system.fill(np.where(active, g, 0.0), free=~active)
        return u[trace], np.where(active, r[trace] / D, 0.0)

    active, lam, steps, converged, cycle = pdas(solve_fixed, g, D, active, max_iter)
    r[trace] -= lam * D  # the saddle residual F - A u - B lambda
    solution = VISolution(
        u=FeFunction(u),
        multiplier=FeFunction(lam),
        active=active,
        iterations=trace_steps + steps,
        residual=float(np.max(np.abs(r[system.free_mask]))),
    )
    if cycle:
        raise SolverError(
            f"full-space PDAS did not converge: its active set cycles, step {steps} leads back to the set"
            f" of step {steps + 1 - cycle}, a cycle of {cycle} sets",
            solution,
        )
    if not converged:
        raise SolverError(f"full-space PDAS did not converge within {max_iter} iterations", solution)
    return solution


def pdas(solve_fixed, g: np.ndarray, D: np.ndarray, active: np.ndarray, max_iter: int):
    """Primal-dual active set iteration on a nodal complementarity system.

    solve_fixed(active) solves the system with the trace fixed to g on the
    active DOFs and the multiplier zero off them, and returns the trace
    values t and the multiplier lam.  The next active set is
    { j : lam_j + (t_j - g_j) / D_j > 0 }; the iteration has converged
    when it repeats.  It stops unconverged after max_iter steps, or at a
    cycle: a next set that equals one solved before the current step.
    Returns (active, lam, iterations, converged, cycle), where lam is the
    last step's multiplier, active the set that follows it and cycle the
    number of sets in the cycle, 0 if none was found.  An obstacle with a
    NaN or infinite entry, or max_iter < 1, raises ValueError before the
    first step (``_check_pdas_input``).
    """
    _check_pdas_input(g, max_iter)
    solved = {}  # the step that solved each set, keyed by the set's bytes
    for iterations in range(1, max_iter + 1):
        t, lam = solve_fixed(active)
        solved[active.tobytes()] = iterations
        new_active = (lam + (t - g) / D) > 0.0
        if np.array_equal(new_active, active):
            return active, lam, iterations, True, 0
        active = new_active
        first = solved.get(active.tobytes())
        if first is not None:
            return active, lam, iterations, False, iterations + 1 - first
    return active, lam, iterations, False, 0


def _check_pdas_input(g: np.ndarray, max_iter: int) -> None:
    """ValueError for an obstacle entry that no comparison decides a set
    with (NaN or infinite), or for max_iter < 1: no step, no iterate."""
    bad = np.count_nonzero(~np.isfinite(g))
    if bad:
        raise ValueError(f"the obstacle has {bad} non-finite of {g.shape[0]} entries")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")


def dense_pdas(sigma: np.ndarray, nu: np.ndarray, g: np.ndarray, D: np.ndarray, max_iter: int):
    """``pdas`` from the empty active set on a dense trace system.

    The multiplier of trace values t is lambda = nu - sigma t.  Each step
    fixes t = g on the active set and solves the inactive rows of
    lambda = 0 densely; on an all-active set that is a solve of no
    unknowns.  Returns (t, lam, active, iterations, converged) as ``pdas``
    does, with t the last step's trace values.
    """
    n = nu.shape[0]
    t = np.zeros(n)

    def solve_fixed(active):
        inact = ~active
        t[active] = g[active]
        rhs = nu[inact] - sigma[np.ix_(inact, active)] @ t[active]
        t[inact] = np.linalg.solve(sigma[np.ix_(inact, inact)], rhs)
        lam = np.zeros(n)
        lam[active] = nu[active] - sigma[active] @ t
        return t, lam

    active, lam, iterations, converged, _ = pdas(solve_fixed, g, D, np.zeros(n, dtype=bool), max_iter)
    return t, lam, active, iterations, converged


def discrete_transmission_points(solution: VISolution, tmap: TraceMap) -> tuple[float, float]:
    """Extremal x coordinates of the converged active set.

    An empty active set signals that the mesh is too coarse to resolve the
    contact interval at all and is reported as an error.
    """
    if not np.any(solution.active):
        raise SolverError("active set is empty; contact interval unresolved")
    x = tmap.multiplier_x[solution.active]
    return float(x.min()), float(x.max())
