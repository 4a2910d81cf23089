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

On the uniform grid the stiffness is a five-point stencil, so
``GridPoisson`` solves with the interior block by a 2D DST-I and gives the
Schur complement in closed form, for ``condense_system``, ``solver.solve_vi``
and the study.  ``SteklovMap`` keeps a SuperLU factor of the interior block
as the independent cross-check.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import FeSystem, assemble_stiffness, boundary_lumped_mass, dof_partition, quad
from .biortho import MultiplierFunction, dual_shape_values
from .mesh import TriMesh, TraceMap, elimination_order
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
        """The operator as a dense matrix, D^-1 S, with S from
        ``GridPoisson.schur``: nothing is solved or factorized.  Every call
        after the first returns the same read-only array."""
        if self._sigma is None:
            grid = GridPoisson(self.mesh, self.stiffness, self.interior_idx, self.trace_dofs)
            sigma = grid.schur / self.lumped[:, None]
            sigma.flags.writeable = False
            self._sigma = sigma
        return self._sigma


def condense_system(system: FeSystem):
    """The contact problem condensed onto the trace DOFs T: (sigma, nu).

    sigma = D^-1 S with S = A_TT - A_TI A_II^-1 A_IT from ``GridPoisson``, and
    nu = D^-1 (f_T - A_TI A_II^-1 f_I), with f the load less the Dirichlet
    lifting, is the Newton potential.  The contact problem on the trace is:
    t <= g, lambda = nu - sigma t >= 0, and lambda (t - g) = 0.
    """
    grid = GridPoisson(system.mesh, system.stiffness, system.interior_idx, system.trace_dofs)
    lift = np.zeros(system.mesh.num_vertices)
    lift[system.dirichlet_idx] = system.dirichlet_values
    return grid.schur / system.lumped_mass[:, None], grid.flux(lift, system.load) / system.lumped_mass


# assembled entries differ from the stencil's by rounding that grows like
# 1/h: 6.5e-14 of a + b at level 8
_STENCIL_RTOL = 1e-10
_MAX_REFINE = 20


class GridPoisson:
    """Solves with the interior block of a uniform grid's stiffness.

    The P1 stiffness of the diagonally split grid is the five-point stencil,
    -a = -h_y/h_x between horizontal neighbours, -b = -h_x/h_y between
    vertical ones and 0 across diagonals, so the 2D DST-I diagonalizes A_II
    (Buzbee, Golub & Nielson, SINUM 1970) and the 1D one the Schur complement
    onto the trace row (Bjorstad & Widlund, SINUM 1986).  The trace and
    interior rows form an n x ny raster; ``interior`` lists I row by row.
    """

    def __init__(self, mesh: TriMesh, stiffness, interior_idx: np.ndarray, trace_dofs: np.ndarray):
        x, y = mesh.vertices.T
        n = trace_dofs.shape[0]
        ny = interior_idx.shape[0] // max(n, 1) + 1
        hx = (x.max() - x.min()) / (n + 1)
        hy = (y.max() - y.min()) / ny
        ids = np.concatenate([trace_dofs, interior_idx])
        ix = np.rint((x[ids] - x.min()) / hx).astype(np.int64)
        iy = np.rint((y[ids] - y.min()) / hy).astype(np.int64)
        pos = iy * n + ix - 1
        # the trace DOFs, by x, are the first row; every vertex has its own cell
        if not (
            np.all((1 <= ix) & (ix <= n) & (0 <= iy) & (iy < ny))
            and np.array_equal(pos[:n], np.arange(n))
            and np.bincount(pos).max() == 1
        ):
            raise SolverError("the trace and interior vertices do not fill a uniform grid")
        cells = np.empty_like(ids)
        cells[pos] = ids
        a, b = hy / hx, hx / hy
        # the stencil on the raster, where A_TT = (a/2) T_x + b I
        main = np.full(n * ny, 2.0 * (a + b))
        main[:n] = a + b
        side = np.full(n * ny - 1, -a)
        side[: n - 1] = -0.5 * a
        side[n - 1 :: n] = 0.0  # a row's last cell and the next row's first
        size = (n * ny, n * ny)
        stencil = sp.diags([side, main, side], [-1, 0, 1], shape=size) + sp.diags([-b, -b], [-n, n], shape=size)
        if not abs(stiffness[cells][:, cells] - stencil).max() <= _STENCIL_RTOL * (a + b):
            raise SolverError("the stiffness is not the five-point stencil of its grid")
        self.stiffness = stiffness
        self.trace_dofs = trace_dofs
        self.interior = cells[n:]
        self._b = b
        # a lam_k + b mu_l, with 4 sin^2(pi k / 2N) the eigenvalues of the
        # second difference on N intervals
        lam = 4.0 * np.sin(0.5 * np.pi * np.arange(1, n + 1) / (n + 1)) ** 2
        l = np.arange(1, ny)[:, None]
        self._eig = a * lam + b * 4.0 * np.sin(0.5 * np.pi * l / ny) ** 2
        # eigenvalues of S: A_TT = (a/2) T_x + b I, and A_TI couples each
        # trace DOF by -b to the vertex above it
        self._s = 0.5 * a * lam + b - b * b * (2.0 / ny * np.sin(np.pi * l / ny) ** 2 / self._eig).sum(axis=0)

    @functools.cached_property
    def schur(self) -> np.ndarray:
        """S = A_TT - A_TI A_II^-1 A_IT densely: V diag(s) V, with V the
        orthonormal DST-I matrix of the trace row.  Computed once."""
        n = self._s.shape[0]
        k = np.arange(1, n + 1)
        v = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi / (n + 1) * (np.outer(k, k) % (2 * n + 2)))
        return (v * self._s) @ v

    def solve(self, r: np.ndarray) -> np.ndarray:
        """A_II^-1 r for r listed as ``interior``, unrefined: a 2D DST-I, a
        division by the eigenvalues, and the DST-I back."""
        return _dst2(_dst2(r.reshape(self._eig.shape)) / self._eig).ravel()

    def fill(self, w: np.ndarray, load: np.ndarray, free=None) -> np.ndarray:
        """w with the values on I and on the free trace DOFs (a mask, none
        by default) that solve A w = load on those rows, by dense ``schur``
        and ``solve`` steps refined against the assembled stiffness while
        the residual falls.  A final residual above 1e-11 times the start's
        raises SolverError, the contract of ``solver.linear_subsolve``."""
        n, m = self.trace_dofs.shape[0], self.interior.shape[0]
        free = np.zeros(n, dtype=bool) if free is None else free
        rows = np.concatenate([self.interior, self.trace_dofs[free]])
        chol = scipy.linalg.cho_factor(self.schur[np.ix_(free, free)]) if free.any() else None

        def step(r):
            d = self.solve(r[:m])
            if chol is None:
                return d
            # block elimination; A_TI is -b between a trace DOF and the cell above
            d_free = scipy.linalg.cho_solve(chol, r[m:] + self._b * d[:n][free])
            r_int = r[:m].copy()
            r_int[:n][free] += self._b * d_free
            return np.concatenate([self.solve(r_int), d_free])

        w = w.copy()
        w[rows] = 0.0
        r = (load - self.stiffness @ w)[rows]
        start = res = np.linalg.norm(r)
        for _ in range(_MAX_REFINE):
            trial = w.copy()
            trial[rows] += step(r)
            r_trial = (load - self.stiffness @ trial)[rows]
            if not np.linalg.norm(r_trial) < res:
                break
            w, r, res = trial, r_trial, np.linalg.norm(r_trial)
        if not res <= 1e-11 * start:
            raise SolverError(f"grid solve residual {res:.3e} exceeds contract")
        return w

    def flux(self, w: np.ndarray, load: np.ndarray) -> np.ndarray:
        """The boundary residual (load - A w)_T of w filled on I by ``fill``."""
        return (load - self.stiffness @ self.fill(w, load))[self.trace_dofs]


def _dst1(x: np.ndarray, axis: int) -> np.ndarray:
    """Orthonormal DST-I along axis (its own inverse): minus the imaginary
    part of the real FFT of the odd extension [0, x, 0, -x reversed].
    numpy's FFT keeps scipy.fft (0.1 s to import) out of the package."""
    x = np.moveaxis(x, axis, -1)
    n = x.shape[-1]
    z = np.zeros(x.shape[:-1] + (2 * n + 2,))
    z[..., 1 : n + 1] = x
    z[..., n + 2 :] = -x[..., ::-1]
    y = np.fft.rfft(z)[..., 1 : n + 1].imag * -np.sqrt(0.5 / (n + 1))
    return np.moveaxis(y, -1, axis)


def _dst2(x: np.ndarray) -> np.ndarray:
    return _dst1(_dst1(x, 1), 0)


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
    from ``SteklovMap.dense_matrix``, computed on the map's first call and
    reused after; the Newton potential is one solve with the map's
    interior factor, and each PDAS step solves a dense system of up to the
    matrix's size.
    """
    n = smap.num_multipliers
    g = np.broadcast_to(np.asarray(g, dtype=float), (n,)).copy()
    sigma = smap.dense_matrix()
    nu = smap.newton_potential(load, dirichlet_values=dirichlet_values).values
    t, lam, active, _, converged = dense_pdas(sigma, nu, g, smap.lumped, c, max_iter)
    if not converged:
        raise SolverError("boundary PDAS did not converge")
    return t, lam, active
