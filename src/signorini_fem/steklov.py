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
substructuring (``condense``): two factorizations of the half-domains left
and right of the middle grid column, each with its own trace DOFs and the
column last, and one dense elimination of the column (0.17 s at level 7,
1.0 s at level 8, one BLAS thread).  A map builds it once, on first use.
With one more solve per half the same kernel condenses the load into the
Newton potential (``condense_system``), which gives ``solver.solve_vi`` and
the study the trace system without the interior factorization.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import FeSystem, assemble_stiffness, boundary_lumped_mass, dof_partition, quad
from .biortho import MultiplierFunction, dual_shape_values
from .mesh import TriMesh, TraceMap, elimination_order, grid_index
from .solver import LU_OPTIONS, SolverError, dense_pdas


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
        self.lumped = boundary_lumped_mass(mesh, tmap) if lumped is None else lumped
        self.trace_dofs = tmap.multiplier_vertices
        self.dirichlet_idx, _, interior_idx = dof_partition(mesh, tmap)
        self.interior_idx = _in_elimination_order(mesh, interior_idx)
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
        z = exact_trace_values(sol, self.tmap, self.lumped, moments_epsabs)
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

        See ``condense``; no extension is solved.  The first call computes
        it (0.17 s at level 7 and 1.0 s at level 8 on one BLAS thread);
        every later call returns that same read-only array.
        """
        if self._sigma is None:
            sigma, _ = condense(self.mesh, self.stiffness, self.interior_idx, self.trace_dofs, self.lumped)
            sigma.flags.writeable = False
            self._sigma = sigma
        return self._sigma


def condense(mesh: TriMesh, stiffness, interior_idx: np.ndarray, trace_dofs: np.ndarray, lumped, load=None):
    """The stiffness, and optionally a load, condensed onto the trace DOFs.

    Returns (sigma, nu).  sigma = D^-1 S, where S = A_TT - A_TI A_II^-1 A_IT
    is the Schur complement of the stiffness onto the trace DOFs T and
    interior_idx lists I in ``elimination_order``.  Given a load f on the
    vertices (only its entries on I and T are read),
    nu = D^-1 (f_T - A_TI A_II^-1 f_I) is the multiplier of zero trace
    values, so lambda = nu - sigma t for trace values t; without a load,
    nu is None.

    The interior vertices Gamma of the middle grid column, the first
    separator of ``elimination_order``, split I into two halves that no
    stiffness entry couples.  A half h couples only to its own trace DOFs
    T_h, so with B_h = T_h + Gamma it is factorized once with B_h last
    (``_boundary_schur``): the smaller B_h, the smaller the dense trailing
    block of its factor.  The two Schur complements, scattered into the
    matrix on B = T + Gamma, with A_BB counted once on every entry, are the
    one onto B, and the two condensed loads sum likewise.  Eliminating
    Gamma densely leaves S and D nu.
    """
    ix, _, nx, _ = grid_index(mesh)
    column = ix[interior_idx]
    left = interior_idx[column < nx // 2]
    right = interior_idx[column > nx // 2]
    A = stiffness
    if A[left][:, right].count_nonzero():
        raise SolverError("the middle grid column does not separate the interior")
    b = np.concatenate([trace_dofs, interior_idx[column == nx // 2]])
    n, m = trace_dofs.shape[0], b.shape[0]
    s_bb = np.zeros((m, m))
    f_b = None if load is None else load[b]
    covered = np.zeros(m, dtype=bool), np.zeros(m, dtype=bool)
    for h, cover in zip((left, right), covered):
        # positions in b of the half's own trace DOFs, then of Gamma
        pos = np.concatenate([np.flatnonzero(A[h][:, trace_dofs].getnnz(axis=0)), np.arange(n, m)])
        cover[pos] = True
        s_h, coupled = _boundary_schur(A, h, b[pos], None if load is None else load[h])
        s_bb[np.ix_(pos, pos)] += s_h
        del s_h
        if load is not None:
            f_b[pos] -= coupled
    # each S_h holds A_BB on its own block: count it once on every entry
    a_bb = A[b][:, b].tocoo()
    times = sum(cover[a_bb.row] & cover[a_bb.col] for cover in covered)
    s_bb[a_bb.row, a_bb.col] += (1 - times) * a_bb.data
    s_tt, s_tg, s_gt, s_gg = s_bb[:n, :n], s_bb[:n, n:], s_bb[n:, :n], s_bb[n:, n:]
    if load is None:
        return (s_tt - s_tg @ np.linalg.solve(s_gg, s_gt)) / lumped[:, None], None
    x = np.linalg.solve(s_gg, np.column_stack([s_gt, f_b[n:]]))
    sigma = (s_tt - s_tg @ x[:, :-1]) / lumped[:, None]
    nu = (f_b[:n] - s_tg @ x[:, -1]) / lumped
    return sigma, nu


def condense_system(system: FeSystem):
    """(sigma, nu) of ``condense`` for an assembled contact problem.

    The load is the system's volume load less its Dirichlet lifting, so
    nu is the Newton potential with the Dirichlet data, and the contact
    problem on the trace is: t <= g, lambda = nu - sigma t >= 0, and
    lambda (t - g) = 0.
    """
    lift = np.zeros(system.mesh.num_vertices)
    lift[system.dirichlet_idx] = system.dirichlet_values
    load = system.load - system.stiffness @ lift
    interior = _in_elimination_order(system.mesh, system.interior_idx)
    return condense(system.mesh, system.stiffness, interior, system.trace_dofs, system.lumped_mass, load)


def _in_elimination_order(mesh: TriMesh, idx: np.ndarray) -> np.ndarray:
    """The vertices idx listed in ``elimination_order``."""
    order = elimination_order(mesh)
    member = np.zeros(mesh.num_vertices, dtype=bool)
    member[idx] = True
    return order[member[order]]


def _boundary_schur(A, h: np.ndarray, b: np.ndarray, f_h=None):
    """A_bb - A_bh A_hh^-1 A_hb densely, and A_bh A_hh^-1 f_h, from one LU.

    The factorization lists b last.  SuperLU must keep the rows in place and
    the b columns last, so that the trailing blocks of L and U are those of
    b and multiply to the Schur complement S_h; otherwise this raises.  The
    load term costs one more solve: the right-hand side [f_h; 0] returns
    [x; y0] with A_bh A_hh^-1 f_h = -S_h y0.  Without f_h it is None.
    """
    idx = np.concatenate([h, b])
    n, k = idx.shape[0], h.shape[0]
    try:
        lu = spla.splu(A[idx][:, idx].tocsc(), **LU_OPTIONS)
    except (RuntimeError, MemoryError) as exc:
        raise SolverError(f"half-domain factorization of {n} unknowns failed: {exc!r}") from exc
    if not (np.array_equal(lu.perm_r, np.arange(n)) and np.array_equal(lu.perm_c[k:], np.arange(k, n))):
        raise SolverError("SuperLU permuted the half-domain factorization past its boundary block")
    s_h = lu.L[k:, k:].toarray() @ lu.U[k:, k:].toarray()
    if f_h is None:
        return s_h, None
    y0 = lu.solve(np.concatenate([f_h, np.zeros(n - k)]))[k:]
    return s_h, -(s_h @ y0)


def exact_trace_values(sol, tmap: TraceMap, lumped: np.ndarray, epsabs: float = 1e-12) -> np.ndarray:
    """Nodal trace values <u, psi_j> / D_j of the exact solution's trace.

    The moments against the dual basis are integrated with the solution's
    kinks as breakpoints.
    """
    kinks = getattr(sol, "kink_x", (sol.x_left, sol.x_right))
    return trace_moments(sol.u_trace, tmap, kinks=kinks, epsabs=epsabs) / lumped


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
    from ``SteklovMap.dense_matrix``, computed on the map's first call
    (0.17 s at level 7, 1.0 s at level 8) and reused after; the Newton
    potential is one solve with the interior factor, and each PDAS step
    solves a dense system of up to the matrix's size.  So a second call on
    one map factorizes nothing.
    """
    n = smap.num_multipliers
    g = np.broadcast_to(np.asarray(g, dtype=float), (n,)).copy()
    sigma = smap.dense_matrix()
    nu = smap.newton_potential(load, dirichlet_values=dirichlet_values).values
    t, lam, active, _, converged = dense_pdas(sigma, nu, g, smap.lumped, c, max_iter)
    if not converged:
        raise SolverError("boundary PDAS did not converge")
    return t, lam, active
