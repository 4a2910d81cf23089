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
interior factorization.  Its dense matrix is that Schur complement, built by
substructuring: two factorizations of the half-domains left and right of the
middle grid column, each with the boundary block last, and one dense
elimination of the column (0.12 s at level 7, 0.64 s at level 8).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import assemble_stiffness, boundary_lumped_mass, dof_partition, quad
from .biortho import MultiplierFunction, dual_shape_values
from .mesh import TriMesh, TraceMap, elimination_order, grid_index
from .solver import LU_OPTIONS, SolverError, pdas


class SteklovMap:
    """Factorized Dirichlet-to-Neumann map of one mesh level.

    The map orders its interior unknowns itself: ``interior_idx`` lists them
    in ``mesh.elimination_order``, and SuperLU factorizes the interior block
    in that order.  An extension is one solve with that factor, without
    the refinement step that ``linear_subsolve`` always takes; the
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
        self._a_it = rows[:, self.trace_dofs].tocsr()
        self._a_id = rows[:, self.dirichlet_idx].tocsr()
        try:
            self._lu = spla.splu(rows[:, self.interior_idx].tocsc(), **LU_OPTIONS)
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

    def apply(self, z: np.ndarray) -> MultiplierFunction:
        """Apply the operator to nodal trace values z at the multiplier DOFs.

        Returns the multiplier representing the negative boundary flux of
        the harmonic extension.
        """
        w = self.extension(np.asarray(z, dtype=float))
        return MultiplierFunction(self.mesh.level, -self._boundary_flux(w))

    def newton_potential(self, load: np.ndarray, dirichlet_values=None) -> MultiplierFunction:
        """Multiplier of the saddle point with volume load and zero trace moments.

        Dirichlet values, when given, lift inhomogeneous data on Gamma_D into
        the potential, which is what makes the boundary-reduced problem
        equivalent to the full discrete contact problem for the benchmark.
        """
        z = np.zeros(self.num_multipliers)
        w = self.extension(z, dirichlet_values=dirichlet_values, load=load)
        return MultiplierFunction(self.mesh.level, self._boundary_flux(w, load))

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
        """The operator as a dense matrix, D^-1 S, by substructuring.

        S = A_TT - A_TI A_II^-1 A_IT is the Schur complement of the
        stiffness onto the trace DOFs T.  The interior vertices Gamma of the
        middle grid column, the first separator of ``elimination_order``,
        split the interior into two halves that no stiffness entry couples.
        With B = T + Gamma, each half h is factorized once with B last, and
        the trailing blocks of its factors multiply to A_BB - A_Bh A_hh^-1
        A_hB.  The two products less A_BB are the Schur complement onto B;
        eliminating Gamma densely leaves S.  No extension is solved; it
        takes 0.12 s at level 7 and 0.64 s at level 8 on one BLAS thread.
        """
        ix, _, nx, _ = grid_index(self.mesh)
        column = ix[self.interior_idx]
        left = self.interior_idx[column < nx // 2]
        right = self.interior_idx[column > nx // 2]
        A = self.stiffness
        if A[left][:, right].count_nonzero():
            raise SolverError("the middle grid column does not separate the interior")
        b = np.concatenate([self.trace_dofs, self.interior_idx[column == nx // 2]])
        s_bb = _boundary_schur(A, left, b) + _boundary_schur(A, right, b) - A[b][:, b].toarray()
        n = self.num_multipliers
        s_tt, s_tg, s_gt, s_gg = s_bb[:n, :n], s_bb[:n, n:], s_bb[n:, :n], s_bb[n:, n:]
        return (s_tt - s_tg @ np.linalg.solve(s_gg, s_gt)) / self.lumped[:, None]


def _boundary_schur(A, h: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A_bb - A_bh A_hh^-1 A_hb, densely, from one LU with b listed last.

    SuperLU must keep the rows in place and the b columns last, so that the
    trailing blocks of L and U are those of b; otherwise this raises.
    """
    idx = np.concatenate([h, b])
    n, k = idx.shape[0], h.shape[0]
    try:
        lu = spla.splu(A[idx][:, idx].tocsc(), **LU_OPTIONS)
    except RuntimeError as exc:
        raise SolverError(f"half-domain factorization failed: {exc}") from exc
    if not (np.array_equal(lu.perm_r, np.arange(n)) and np.array_equal(lu.perm_c[k:], np.arange(k, n))):
        raise SolverError("SuperLU permuted the half-domain factorization past its boundary block")
    return lu.L[k:, k:].toarray() @ lu.U[k:, k:].toarray()


def trace_moments(fn, tmap: TraceMap, kinks=(), epsabs: float = 1e-12) -> np.ndarray:
    """Moments <fn, psi_j> of a scalar function against the dual basis.

    The dual function of multiplier vertex p is the local right dual 3t - 1
    on its left element and the local left dual 2 - 3t on its right element,
    both from ``biortho.dual_shape_values``.
    All these element integrals are one call of the adaptive G10/K21
    integrator ``quad``, with the known kink locations as breakpoints.
    """
    x = tmap.x
    p = np.flatnonzero(tmap.interior)
    m = p.shape[0]
    lo = np.concatenate([x[p - 1], x[p]])
    hi = np.concatenate([x[p], x[p + 1]])

    def integrand(s, i):
        psi_left, psi_right = dual_shape_values((s - lo[i]) / (hi[i] - lo[i]))
        return fn(s) * np.where(i < m, psi_right, psi_left)

    vals = quad(integrand, lo, hi, kinks, epsabs=epsabs, epsrel=1e-10)
    return vals[:m] + vals[m:]


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
    check against the full-space solver.  The dense Steklov matrix comes
    from ``SteklovMap.dense_matrix`` (0.12 s at level 7, 0.64 s at level 8);
    each PDAS step then solves a dense system of up to its size.
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
