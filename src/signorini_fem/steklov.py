"""Mesh-dependent Dirichlet-to-Neumann machinery on the contact boundary.

The discrete Steklov-Poincare operator maps trace data z to the negative
multiplier of the linear saddle point that weakly imposes z on Gamma_S and
zero on Gamma_D.  Thanks to the diagonal trace coupling, weak imposition
coincides with nodal imposition, so one application is: extend z discretely
harmonically into the mesh, then read the boundary residual of the stiffness
operator scaled by 1/D_j.  The Newton potential is the analogous multiplier
for the volume load (plus the Dirichlet lifting of the benchmark data), and
together they reduce the contact problem to a complementarity system on the
boundary whose matrix is, up to the D-scaling, the algebraic Schur complement
of the stiffness matrix.

``SteklovMap`` keeps a SuperLU factor of the interior block: its
extensions, Newton potential and consistency flux, and ``solve_schur_vi``
on them, are the independent cross-check of the grid solver
(``assembly.GridPoisson``) that the contact path and the study use.  Only
its dense matrix comes from a grid solver, built on the map's stiffness.
The map returns multipliers as coefficient arrays.  The module also
integrates the trace moments against the dual basis.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import GridPoisson, SolverError, assemble_stiffness, boundary_lumped_mass, dof_partition, quad
from .biortho import dual_shape_values
from .mesh import TriMesh, TraceMap, elimination_order
from .solver import LU_OPTIONS, dense_pdas

#: Absolute tolerance of the trace moments' adaptive quadrature.
MOMENTS_EPSABS = 1e-12


class SteklovMap:
    """Factorized Dirichlet-to-Neumann map of one mesh level.

    The map orders its interior unknowns itself: ``interior_idx`` lists them
    in ``mesh.elimination_order``, and SuperLU factorizes the interior block
    in that order.  An extension is one solve with that factor, without
    the refinement step that ``linear_subsolve`` always takes; the
    consistency flux ``exact_trace_flux`` always takes one refinement step.
    Read-only after construction, but for the dense matrix, which the
    first ``dense_matrix`` call computes and keeps as a read-only array;
    concurrent applications are safe, and two threads that race on that
    first call store equal arrays.
    """

    def __init__(self, mesh: TriMesh, tmap: TraceMap, stiffness=None, lumped=None):
        self.mesh = mesh
        self.tmap = tmap
        self.stiffness = assemble_stiffness(mesh) if stiffness is None else stiffness
        self.lumped = boundary_lumped_mass(tmap) if lumped is None else lumped
        self.trace_dofs = tmap.multiplier_vertices
        self.dirichlet_idx, _, interior_idx = dof_partition(mesh)
        order = elimination_order(mesh)
        self.interior_idx = order[np.isin(order, interior_idx)]
        rows = self.stiffness[self.interior_idx]
        self._a_it = rows[:, self.trace_dofs].tocsr()
        self._a_id = rows[:, self.dirichlet_idx].tocsr()
        try:
            self._lu = spla.splu(rows[:, self.interior_idx].tocsc(), **LU_OPTIONS)
        except (RuntimeError, MemoryError) as exc:
            n = self.interior_idx.shape[0]
            raise SolverError(f"interior factorization of {n} unknowns failed: {exc!r}") from exc
        self._sigma = None

    @property
    def num_multipliers(self) -> int:
        return self.trace_dofs.shape[0]

    def extension(self, z: np.ndarray, dirichlet_values=None, load=None) -> np.ndarray:
        """Discretely harmonic extension of trace values z (full vector).

        Optional Dirichlet values on Gamma_D and a volume load turn this
        into the general linear saddle-point solve used below.
        """
        w = np.zeros(self.mesh.num_vertices)
        w[self.trace_dofs] = z
        rhs = -(self._a_it @ z)
        if dirichlet_values is not None:
            w[self.dirichlet_idx] = dirichlet_values
            rhs = rhs - self._a_id @ dirichlet_values
        if load is not None:
            rhs = rhs + load[self.interior_idx]
        w[self.interior_idx] = self._lu.solve(rhs)
        return w

    def _boundary_flux(self, w: np.ndarray, load=None) -> np.ndarray:
        r = -(self.stiffness @ w)
        if load is not None:
            r = r + load
        return r[self.trace_dofs] / self.lumped

    def apply(self, z: np.ndarray) -> np.ndarray:
        """Apply the operator to nodal trace values z at the multiplier DOFs.

        Returns the multiplier coefficients of the negative boundary flux of
        the harmonic extension.
        """
        w = self.extension(np.asarray(z, dtype=float))
        return -self._boundary_flux(w)

    def newton_potential(self, load: np.ndarray, dirichlet_values=None) -> np.ndarray:
        """Multiplier of the saddle point with volume load and zero trace moments.

        Dirichlet values, when given, lift inhomogeneous data on Gamma_D into
        the potential, which is what makes the boundary-reduced problem
        equivalent to the full discrete contact problem for the benchmark.
        """
        z = np.zeros(self.num_multipliers)
        w = self.extension(z, dirichlet_values=dirichlet_values, load=load)
        return self._boundary_flux(w, load)

    def exact_trace_flux(self, sol, load: np.ndarray) -> np.ndarray:
        """Multiplier of the linear saddle point fed with the exact trace.

        The trace of the exact solution enters through its moments against
        the dual basis; the volume load and the Dirichlet lifting are those
        of the benchmark problem.  The result is the consistency flux whose
        distance to the exact multiplier drives the boundary error analysis.
        """
        z = exact_trace_values(sol, self.tmap, self.lumped)
        dir_vals = sol.u(
            self.mesh.vertices[self.dirichlet_idx, 0],
            self.mesh.vertices[self.dirichlet_idx, 1],
        )
        w = self.extension(z, dirichlet_values=np.asarray(dir_vals, dtype=float), load=load)
        # the flux is a residual, which magnifies the rounding of the solve:
        # unrefined, level 8's H^-1 flux error moved by up to 4.7e-8
        # relative when only the order of the unknowns changed
        w[self.interior_idx] += self._lu.solve((load - self.stiffness @ w)[self.interior_idx])
        return self._boundary_flux(w, load)

    def dense_matrix(self) -> np.ndarray:
        """The operator as a dense matrix, D^-1 S, with S from
        ``GridPoisson.schur``: nothing is solved or factorized.  Every call
        after the first returns the same read-only array."""
        if self._sigma is None:
            grid = GridPoisson(self.mesh, self.stiffness)
            sigma = grid.schur / self.lumped[:, None]
            sigma.flags.writeable = False
            self._sigma = sigma
        return self._sigma


def exact_trace_values(sol, tmap: TraceMap, lumped: np.ndarray) -> np.ndarray:
    """Nodal trace values <u, psi_j> / D_j of the exact solution's trace.

    The moments against the dual basis are integrated with the solution's
    kinks as breakpoints.
    """
    return trace_moments(sol.u_trace, tmap, kinks=sol.kink_x) / lumped


def trace_moments(fn, tmap: TraceMap, kinks=()) -> np.ndarray:
    """Moments <fn, psi_j> of a scalar function against the dual basis.

    The dual function of multiplier vertex p is the local right dual 3t - 1
    on its left element and the local left dual 2 - 3t on its right element,
    both from ``biortho.dual_shape_values``.
    All these element integrals are one call of the adaptive G10/K21
    integrator ``quad``, with the known kink locations as breakpoints.
    """
    x = tmap.x
    m = tmap.num_multipliers
    lo = np.concatenate([x[:-2], x[1:-1]])
    hi = np.concatenate([x[1:-1], x[2:]])

    def integrand(s, i):
        psi_left, psi_right = dual_shape_values((s - lo[i]) / (hi[i] - lo[i]))
        return fn(s) * np.where(i < m, psi_right, psi_left)

    vals = quad(integrand, lo, hi, kinks, epsabs=MOMENTS_EPSABS, epsrel=1e-10)
    return vals[:m] + vals[m:]


def solve_schur_vi(
    smap: SteklovMap,
    load: np.ndarray,
    dirichlet_values: np.ndarray,
    g=0.0,
    max_iter: int = 100,
):
    """Solve the boundary-reduced complementarity system by dense PDAS.

    Returns (trace values, multiplier coefficients, active mask).  Cross
    check against the full-space solver; a non-finite obstacle raises
    ValueError, as in ``solver.pdas``.  The dense Steklov matrix comes
    from ``SteklovMap.dense_matrix``, computed on the map's first call and
    reused after; the Newton potential is one solve with the map's
    interior factor, and each PDAS step solves a dense system of up to the
    matrix's size.
    """
    n = smap.num_multipliers
    g = np.broadcast_to(np.asarray(g, dtype=float), (n,)).copy()
    sigma = smap.dense_matrix()
    nu = smap.newton_potential(load, dirichlet_values=dirichlet_values)
    t, lam, active, _, converged = dense_pdas(sigma, nu, g, smap.lumped, max_iter)
    if not converged:
        raise SolverError("boundary PDAS did not converge")
    return t, lam, active
