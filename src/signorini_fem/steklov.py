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
of the stiffness matrix.  The operator is applied matrix-free from a stored
interior factorization; dense materialization is for low-level consistency
checks only.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import assemble_stiffness, boundary_lumped_mass, dof_partition, quad
from .biortho import MultiplierFunction
from .mesh import TriMesh, TraceMap, elimination_order, trace_map
from .solver import LU_OPTIONS, SolverError, pdas


class SteklovMap:
    """Factorized Dirichlet-to-Neumann map of one mesh level.

    The map orders its interior unknowns itself: ``interior_idx`` lists them
    in ``mesh.elimination_order``, and SuperLU factorizes the interior block
    in that order.  An extension is one solve with that factor, without
    the refinement step that ``linear_subsolve`` always takes, because the
    map is applied once per trace DOF when it is materialized; the
    consistency flux ``exact_trace_flux`` always takes one refinement step.
    Read-only after construction; concurrent applications are safe.
    """

    def __init__(self, mesh: TriMesh, tmap: TraceMap, stiffness=None, lumped=None):
        self.mesh = mesh
        self.tmap = tmap
        self.stiffness = assemble_stiffness(mesh) if stiffness is None else stiffness
        self.lumped = boundary_lumped_mass(mesh, tmap) if lumped is None else lumped
        self.trace_dofs = tmap.multiplier_vertices
        self.dirichlet_idx, _, interior_idx = dof_partition(mesh, tmap)
        order = elimination_order(mesh)
        is_interior = np.zeros(mesh.num_vertices, dtype=bool)
        is_interior[interior_idx] = True
        self.interior_idx = order[is_interior[order]]
        rows = self.stiffness[self.interior_idx]
        self._a_ii = rows[:, self.interior_idx].tocsc()
        self._a_it = rows[:, self.trace_dofs].tocsr()
        self._a_id = rows[:, self.dirichlet_idx].tocsr()
        try:
            self._lu = spla.splu(self._a_ii, **LU_OPTIONS)
        except RuntimeError as exc:
            raise SolverError(f"interior factorization failed: {exc}") from exc

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

    def apply(self, z: np.ndarray, moments: bool = False, return_extension: bool = False):
        """Apply the operator to trace data z.

        z holds nodal values of a trace function at the multiplier DOFs, or
        moments <z, psi_j> when moments=True (equivalent up to D-scaling).
        Returns the multiplier representing the negative boundary flux of
        the harmonic extension.
        """
        z = np.asarray(z, dtype=float)
        if moments:
            z = z / self.lumped
        w = self.extension(z)
        result = MultiplierFunction(self.mesh.level, -self._boundary_flux(w))
        if return_extension:
            return result, w
        return result

    def newton_potential(self, load: np.ndarray, dirichlet_values=None, return_extension: bool = False):
        """Multiplier of the saddle point with volume load and zero trace moments.

        Dirichlet values, when given, lift inhomogeneous data on Gamma_D into
        the potential, which is what makes the boundary-reduced problem
        equivalent to the full discrete contact problem for the benchmark.
        """
        z = np.zeros(self.num_multipliers)
        w = self.extension(z, dirichlet_values=dirichlet_values, load=load)
        result = MultiplierFunction(self.mesh.level, self._boundary_flux(w, load))
        if return_extension:
            return result, w
        return result

    def exact_trace_flux(self, sol, load: np.ndarray, moments_epsabs: float = 1e-12):
        """Multiplier of the linear saddle point fed with the exact trace.

        The trace of the exact solution enters through its moments against
        the dual basis; the volume load and the Dirichlet lifting are those
        of the benchmark problem.  The result is the consistency flux whose
        distance to the exact multiplier drives the boundary error analysis.
        """
        kinks = getattr(sol, "kink_x", (sol.x_left, sol.x_right))
        m = trace_moments(sol.u_trace, self.tmap, kinks=kinks, epsabs=moments_epsabs)
        z = m / self.lumped
        dir_vals = sol.u(
            self.mesh.vertices[self.dirichlet_idx, 0],
            self.mesh.vertices[self.dirichlet_idx, 1],
        )
        w = self.extension(z, dirichlet_values=np.asarray(dir_vals, dtype=float), load=load)
        # the flux is a residual, which magnifies the rounding of the solve:
        # unrefined, level 8's H^-1 flux error moved by up to 4.7e-8
        # relative when only the order of the unknowns changed
        w[self.interior_idx] += self._lu.solve((load - self.stiffness @ w)[self.interior_idx])
        return MultiplierFunction(self.mesh.level, self._boundary_flux(w, load))

    def dense_matrix(self) -> np.ndarray:
        """Materialize the operator column by column (low levels only)."""
        n = self.num_multipliers
        cols = np.empty((n, n))
        for k in range(n):
            e = np.zeros(n)
            e[k] = 1.0
            cols[:, k] = self.apply(e).values
        return cols

    def dense_matrix_dscaled(self) -> np.ndarray:
        """D-scaled operator matrix, the one comparable to the Schur complement."""
        return self.lumped[:, None] * self.dense_matrix()


def trace_moments(fn, tmap: TraceMap, kinks=(), epsabs: float = 1e-12) -> np.ndarray:
    """Moments <fn, psi_j> of a scalar function against the dual basis.

    The dual function of multiplier vertex p is the local right dual 3t - 1
    on its left element and the local left dual 2 - 3t on its right element.
    All these element integrals are one call of the adaptive G10/K21
    integrator ``quad``, with the known kink locations as breakpoints.
    """
    x = tmap.x
    p = np.flatnonzero(tmap.interior)
    m = p.shape[0]
    lo = np.concatenate([x[p - 1], x[p]])
    hi = np.concatenate([x[p], x[p + 1]])
    slope = np.repeat([3.0, -3.0], m)
    offset = np.repeat([-1.0, 2.0], m)

    def integrand(s, i):
        return fn(s) * (offset[i] + slope[i] * ((s - lo[i]) / (hi[i] - lo[i])))

    vals = quad(integrand, lo, hi, kinks, epsabs=epsabs, epsrel=1e-10)
    return vals[:m] + vals[m:]


def schur_complement_dense(mesh: TriMesh, tmap: TraceMap | None = None, stiffness=None) -> np.ndarray:
    """Algebraic Schur complement onto the multiplier DOFs, densely.

    Eliminates every non-Gamma_S free vertex from the stiffness matrix with
    dense linear algebra; intended for low levels as the independent
    counterpart of the operator materialization.
    """
    if tmap is None:
        tmap = trace_map(mesh)
    A = assemble_stiffness(mesh) if stiffness is None else stiffness
    _, _, ii = dof_partition(mesh, tmap)
    trace = tmap.multiplier_vertices
    a_tt = A[trace][:, trace].toarray()
    a_ti = A[trace][:, ii].toarray()
    a_ii = A[ii][:, ii].toarray()
    a_it = A[ii][:, trace].toarray()
    return a_tt - a_ti @ np.linalg.solve(a_ii, a_it)


def schur_consistency(mesh: TriMesh) -> float:
    """Relative Frobenius gap between Schur complement and D-scaled operator."""
    tmap = trace_map(mesh)
    stiffness = assemble_stiffness(mesh)
    smap = SteklovMap(mesh, tmap, stiffness=stiffness)
    dense_op = smap.dense_matrix_dscaled()
    schur = schur_complement_dense(mesh, tmap, stiffness=stiffness)
    return float(np.linalg.norm(dense_op - schur) / np.linalg.norm(schur))


def solve_schur_vi(
    smap: SteklovMap,
    load: np.ndarray,
    dirichlet_values: np.ndarray,
    g=0.0,
    c: float = 1.0,
    max_iter: int = 100,
):
    """Solve the boundary-reduced complementarity system by dense PDAS.

    Returns (trace values, multiplier coefficients, active mask).  Cross
    check against the full-space solver; complexity is dominated by the
    dense materialization, so keep to moderate levels.
    """
    n = smap.num_multipliers
    g = np.broadcast_to(np.asarray(g, dtype=float), (n,)).copy()
    sigma = smap.dense_matrix()
    nu = smap.newton_potential(load, dirichlet_values=dirichlet_values).values
    t = np.zeros(n)

    def solve_fixed(active):
        inact = ~active
        t[active] = g[active]
        if np.any(inact):
            rhs = nu[inact] - sigma[inact][:, active] @ t[active]
            t[inact] = np.linalg.solve(sigma[inact][:, inact], rhs)
        lam = np.zeros(n)
        lam[active] = nu[active] - sigma[active] @ t
        return t, lam

    start = np.zeros(n, dtype=bool)
    active, lam, _, converged = pdas(solve_fixed, g, smap.lumped, start, c, max_iter)
    if not converged:
        raise SolverError("boundary PDAS did not converge")
    return t, lam, active
