"""Independent references that the tests compare the package against.

Each reference computes a quantity the package also computes, by the plain
route the package replaced: one global COO matrix for the stiffness, the
stencil check in one piece, dense elimination for the Schur complement, one
Python step per triangle for the refinement, quadrature for the diagonal
trace coupling, new arrays for every DST-I and every grid-fill step, the
full-space PDAS from the empty active set and every active set enumerated
for the contact solve, the trace multiplier written out where the Newton
potential and the consistency flux are computed, edge lists for the
boundary that the package reads from vertex coordinates, the bounding box
for the vertex partition that the package slices from the raster, both
singular terms of the exact solution on every point, ``einsum`` for the
load's and the volume norms' point maps and sums, and a fresh sparse solve or a
long-double tridiagonal one, on the 1D Gram matrices, per H^-1 dual norm.  The cone helper and ``grid_positions``,
the vertex raster inverted, are views that only the tests need,
``holed`` and ``doubled`` build meshes off the grid,
``count_grid_builds`` counts the grid solvers a call builds,
``traced_peak_mib`` measures what a call allocates, and
``counting_spla`` and ``out_of_memory_splu`` stand in for SuperLU.
"""

import itertools
import tracemalloc
import types

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from signorini_fem import assembly, norms, solver
from signorini_fem.assembly import (
    TRIANGLE_CHUNK,
    FeFunction,
    FeSystem,
    assemble_stiffness,
    element_gradients,
    quadrisect,
    signed_areas,
    tri_quadrature,
)
from signorini_fem.biortho import dual_shape_values
from signorini_fem.manufactured import REFLECTION_OFFSET
from signorini_fem.mesh import (
    TraceMap,
    TriMesh,
    build_initial,
    cells_near,
    trace_map,
    vertex_raster,
)
from signorini_fem.solver import SolverError, VISolution, pdas
from signorini_fem.steklov import SteklovMap


def count_grid_builds(monkeypatch):
    """A list that gets the mesh level of every ``GridPoisson`` built."""
    built = []
    init = assembly.GridPoisson.__init__

    def counted(self, mesh, *args):
        built.append(mesh.level)
        init(self, mesh, *args)

    monkeypatch.setattr(assembly.GridPoisson, "__init__", counted)
    return built


def counting_spla(calls):
    """An ``spla`` stand-in whose ``splu`` records the size of every matrix."""

    def splu(matrix, **options):
        calls.append(matrix.shape[0])
        return spla.splu(matrix, **options)

    return types.SimpleNamespace(splu=splu)


def out_of_memory_splu(matrix, **options):
    """A ``splu`` that fails as SuperLU does when it cannot allocate."""
    raise MemoryError("malloc fails for local dworkptr[]")


def boundary_edges(level: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gamma_S and Gamma_D edges of ``mesh_at_level(level)``, from
    topology alone: the level-1 edges are listed by hand, and every
    refinement splits each edge at the midpoint vertex ``refine_loop``
    numbers for it.  Returns two (b, 2) vertex-pair arrays."""
    nx, ny = 4, 2

    def vid(ix, iy):
        return iy * (nx + 1) + ix

    gamma_s = [(vid(ix, 0), vid(ix + 1, 0)) for ix in range(nx)]
    gamma_d = [(vid(ix, ny), vid(ix + 1, ny)) for ix in range(nx)]
    gamma_d += [(vid(ix, iy), vid(ix, iy + 1)) for ix in (0, nx) for iy in range(ny)]
    mesh = build_initial()
    for _ in range(level - 1):
        mesh, midpoint = refine_loop(mesh)
        gamma_s, gamma_d = (_split_edges(edges, midpoint) for edges in (gamma_s, gamma_d))
    return np.asarray(gamma_s, dtype=np.int64), np.asarray(gamma_d, dtype=np.int64)


def _split_edges(edges: list, midpoint: dict) -> list:
    halves = []
    for a, b in edges:
        m = midpoint[min(a, b), max(a, b)]
        halves += [(a, m), (m, b)]
    return halves


def unit_right_triangle() -> tuple[TriMesh, np.ndarray, np.ndarray]:
    """One triangle on (0,0), (1,0), (0,1); Gamma_S is its bottom edge.
    Returns the mesh with its Gamma_S and Gamma_D edges."""
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = TriMesh(1, verts, np.array([[0, 1, 2]]))
    return mesh, np.array([[0, 1]]), np.array([[1, 2], [2, 0]])


def square_patch() -> tuple[TriMesh, np.ndarray, np.ndarray]:
    """The square (0, 2)^2 as 2 x 2 unit quads split along their diagonals,
    so one vertex, (1, 1), is interior; Gamma_S is the bottom side.
    Returns the mesh with its Gamma_S and Gamma_D edges."""
    verts = np.array([[x, y] for y in (0.0, 1.0, 2.0) for x in (0.0, 1.0, 2.0)])
    tris = []
    for iy in range(2):
        for ix in range(2):
            ll = iy * 3 + ix
            tris += [(ll, ll + 1, ll + 4), (ll, ll + 4, ll + 3)]
    mesh = TriMesh(1, verts, np.array(tris))
    gamma_d = np.array([(2, 5), (5, 8), (8, 7), (7, 6), (6, 3), (3, 0)])
    return mesh, np.array([(0, 1), (1, 2)]), gamma_d


def holed(mesh: TriMesh, missing: int) -> TriMesh:
    """mesh without the vertex missing and the triangles around it; the
    vertices after it move down by one."""
    tris = mesh.triangles[~np.any(mesh.triangles == missing, axis=1)]
    return TriMesh(mesh.level, np.delete(mesh.vertices, missing, axis=0), tris - (tris > missing))


def doubled(mesh: TriMesh, twin: int) -> TriMesh:
    """mesh with a copy of the vertex twin, 1e-9 off it, that no triangle uses."""
    return TriMesh(mesh.level, np.vstack([mesh.vertices, mesh.vertices[twin] + 1e-9]), mesh.triangles)


def boundary_sets(gamma_s: np.ndarray, gamma_d: np.ndarray):
    """What ``trace_map`` and ``GridPoisson`` must find for these edges.

    Returns (trace_vertices, trace_pairs, multipliers, dirichlet_idx): the
    sorted Gamma_S vertices; the set of their neighbour pairs along Gamma_S;
    the sorted multiplier vertices, which lie on two Gamma_S edges (the two
    ends of the chain lie on one and close Gamma_D); and the sorted
    Dirichlet vertices, every other boundary vertex.
    """
    trace_vertices, count = np.unique(gamma_s, return_counts=True)
    multipliers = trace_vertices[count == 2]
    dirichlet_idx = np.setdiff1d(np.concatenate([gamma_s, gamma_d]), multipliers)
    return trace_vertices, {frozenset(e) for e in gamma_s.tolist()}, multipliers, dirichlet_idx


def box_partition(mesh: TriMesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vertex partition of ``GridPoisson`` read from coordinates, not
    from the raster: the interior vertices lie strictly inside the bounding
    box, the free ones also on its bottom side without the two corners,
    and the rest are Dirichlet.  Returns (dirichlet_idx, free_mask,
    interior_idx) with sorted index arrays."""
    x, y = mesh.vertices.T
    inside_x = (x > x.min()) & (x < x.max())
    free = inside_x & (y < y.max())
    return np.flatnonzero(~free), free, np.flatnonzero(free & (y > y.min()))


def grid_positions(raster: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    """``mesh.vertex_raster`` inverted: the grid column and row of every
    vertex of the raster, by vertex id, and the grid's quad counts nx, ny."""
    iy, ix = np.nonzero(raster >= 0)
    ids = raster[iy, ix]
    col, row = np.empty_like(ids), np.empty_like(ids)
    col[ids], row[ids] = ix, iy
    return col, row, raster.shape[1] - 1, raster.shape[0] - 1


def assemble_stiffness_coo(mesh: TriMesh) -> sp.csr_matrix:
    """``assembly.assemble_stiffness`` through one global COO matrix: every
    element matrix entry local[t, i, j] at (tri[t, i], tri[t, j]), listed in
    (t, i, j) order, and scipy's ``tocsr``."""
    grads, area = element_gradients(mesh.vertices[mesh.triangles])
    local = np.einsum("tdi,tdj->tij", grads, grads) * area[:, None, None]
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    n = mesh.num_vertices
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def check_stencil_unblocked(mesh: TriMesh, stiffness) -> None:
    """``GridPoisson``'s stencil check in one piece: the stiffness on the
    free cells of the raster, indexed by rows and then columns, minus the
    five-point stencil built from its diagonals; SolverError when the
    largest deviation exceeds the tolerance."""
    raster = vertex_raster(mesh)
    ny, n = raster.shape[0] - 1, raster.shape[1] - 2
    hx, hy = np.ptp(mesh.vertices, axis=0) / (n + 1, ny)
    cells = raster[:-1, 1:-1].ravel()
    a, b = hy / hx, hx / hy
    main = np.full(n * ny, 2.0 * (a + b))
    main[:n] = a + b
    side = np.full(n * ny - 1, -a)
    side[: n - 1] = -0.5 * a
    side[n - 1 :: n] = 0.0  # a row's last cell and the next row's first
    size = (n * ny, n * ny)
    stencil = sp.diags([side, main, side], [-1, 0, 1], shape=size) + sp.diags([-b, -b], [-n, n], shape=size)
    if not abs(stiffness[cells][:, cells] - stencil).max() <= assembly._STENCIL_RTOL * (a + b):
        raise SolverError("the stiffness is not the five-point stencil of its grid")


def traced_peak_mib(fn, *args):
    """fn(*args) and the peak of the memory it allocated, in MiB, as
    ``tracemalloc`` counts it: numpy's arrays, not memory live before."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def in_cone(coeffs: np.ndarray, tol: float = 0.0) -> bool:
    """Discrete cone membership: every multiplier coefficient non-negative."""
    return bool(np.all(coeffs >= -tol))


def assemble_coupling(mesh: TriMesh, tmap: TraceMap) -> np.ndarray:
    """Full coupling matrix <phi_j, psi_i> assembled by quadrature.

    Rows run over all Gamma_S vertices (hat functions, endpoints included),
    columns over multiplier DOFs.  Used to verify diagonality; two-point
    Gauss is exact for these quadratic products.
    """
    xg, wg = np.polynomial.legendre.leggauss(2)
    tq = 0.5 * (xg + 1.0)
    wq = 0.5 * wg
    n_trace = tmap.x.shape[0]
    coupling = np.zeros((n_trace, n_trace - 2))
    h = tmap.spacings()
    psi_l, psi_r = dual_shape_values(tq)
    phi_l, phi_r = 1.0 - tq, tq
    for e in range(n_trace - 1):
        # local duals belong to the element's left/right vertex; a dual is a
        # DOF only if its vertex is not an end of Gamma_S
        for local_psi, vtx in ((psi_l, e), (psi_r, e + 1)):
            if vtx in (0, n_trace - 1):
                continue
            col = vtx - 1
            coupling[e, col] += h[e] * np.sum(wq * phi_l * local_psi)
            coupling[e + 1, col] += h[e] * np.sum(wq * phi_r * local_psi)
    return coupling


def schur_complement_dense(mesh: TriMesh, tmap: TraceMap | None = None, stiffness=None) -> np.ndarray:
    """Algebraic Schur complement onto the multiplier DOFs, densely.

    Eliminates every non-Gamma_S free vertex from the stiffness matrix with
    dense linear algebra; intended for low levels as the independent
    counterpart of the operator materialization.
    """
    if tmap is None:
        tmap = trace_map(mesh)
    A = assemble_stiffness(mesh) if stiffness is None else stiffness
    _, _, ii = box_partition(mesh)
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
    dense_op = smap.lumped[:, None] * smap.dense_matrix()
    schur = schur_complement_dense(mesh, tmap, stiffness=stiffness)
    return float(np.linalg.norm(dense_op - schur) / np.linalg.norm(schur))


def refine_loop(mesh: TriMesh) -> tuple[TriMesh, dict]:
    """``mesh.refine`` one triangle at a time, midpoints numbered by a dict.

    Returns the refined mesh and that dict, from sorted vertex pairs to
    midpoint vertices."""
    midpoint: dict[tuple[int, int], int] = {}
    next_id = mesh.num_vertices
    new_coords = []

    def mid(a: int, b: int) -> int:
        nonlocal next_id
        key = (a, b) if a < b else (b, a)
        idx = midpoint.get(key)
        if idx is None:
            idx = next_id
            midpoint[key] = idx
            next_id += 1
            new_coords.append(0.5 * (mesh.vertices[key[0]] + mesh.vertices[key[1]]))
        return idx

    tris = []
    for a, b, c in mesh.triangles:
        mab = mid(a, b)
        mbc = mid(b, c)
        mca = mid(c, a)
        tris.append((a, mab, mca))
        tris.append((b, mbc, mab))
        tris.append((c, mca, mbc))
        tris.append((mab, mbc, mca))

    fine = TriMesh(
        level=mesh.level + 1,
        vertices=np.vstack([mesh.vertices, np.asarray(new_coords)]),
        triangles=np.asarray(tris, dtype=np.int64),
    )
    return fine, midpoint


def full_space_vi(system: FeSystem, g=0.0, max_iter: int = 100) -> VISolution:
    """The contact problem by full-space PDAS from the empty active set.

    Every step factorizes the free block of its active set with
    ``solver.linear_subsolve`` (looked up at call time, so a test may
    replace it), its unknowns listed by index.
    """
    mesh = system.mesh
    A = system.stiffness
    F = system.load
    D = system.lumped_mass
    trace = system.trace_dofs
    n_mult = trace.shape[0]
    g = np.broadcast_to(np.asarray(g, dtype=float), (n_mult,)).copy()
    u = np.zeros(mesh.num_vertices)
    u[system.dirichlet_idx] = system.dirichlet_values

    def solve_fixed(active):
        fixed_mask = ~system.free_mask
        fixed_mask[trace[active]] = True
        u[trace[active]] = g[active]
        free = np.flatnonzero(~fixed_mask)
        fixed = np.flatnonzero(fixed_mask)
        rows = A[free]
        rhs = F[free] - rows[:, fixed] @ u[fixed]
        u[free] = solver.linear_subsolve(rows[:, free], rhs)
        lam = np.zeros(n_mult)
        lam[active] = (F - A @ u)[trace[active]] / D[active]
        return u[trace], lam

    start = np.zeros(n_mult, dtype=bool)
    active, lam, iterations, converged = pdas(solve_fixed, g, D, start, max_iter)
    if not converged:
        raise SolverError(f"full-space PDAS did not converge within {max_iter} iterations")
    r = F - A @ u
    r[trace] -= lam * D
    return VISolution(
        u=FeFunction(u),
        multiplier=FeFunction(lam),
        active=active,
        iterations=iterations,
        residual=float(np.max(np.abs(r[system.free_mask]))),
    )


def brute_force_vi(system: FeSystem, g=0.0) -> list:
    """Every feasible complementary (active, u, lam) of the contact problem,
    by a sparse solve for each of the 2^n active sets, in
    ``itertools.product`` order; raises AssertionError if there is none."""
    A = system.stiffness
    F = system.load
    D = system.lumped_mass
    trace = system.trace_dofs
    n_mult = trace.shape[0]
    g = np.broadcast_to(np.asarray(g, dtype=float), (n_mult,)).copy()
    solutions = []
    for active_tuple in itertools.product([False, True], repeat=n_mult):
        active = np.array(active_tuple)
        u = np.zeros(system.mesh.num_vertices)
        u[system.dirichlet_idx] = system.dirichlet_values
        u[trace[active]] = g[active]
        fixed_mask = ~system.free_mask
        fixed_mask[trace[active]] = True
        free = np.flatnonzero(~fixed_mask)
        fixed = np.flatnonzero(fixed_mask)
        u[free] = spla.spsolve(
            A[np.ix_(free, free)].tocsc(), F[free] - A[np.ix_(free, fixed)] @ u[fixed]
        )
        resid = F - A @ u
        lam = np.zeros(n_mult)
        lam[active] = resid[trace[active]] / D[active]
        feasible = np.all(u[trace] <= g + 1e-10) and np.all(lam >= -1e-10)
        if feasible:
            solutions.append((active, u, lam))
    assert solutions, "no feasible complementary active set found"
    return solutions


def trace_multiplier_written_out(system: FeSystem, z=None) -> np.ndarray:
    """``FeSystem.trace_multiplier`` written out: the Dirichlet values on
    their vertices, z on the trace unless it is None (the Newton
    potential's zero trace), filled on I by the grid, then the boundary
    residual of a fresh stiffness product over D."""
    w = np.zeros(system.mesh.num_vertices)
    w[system.dirichlet_idx] = system.dirichlet_values
    if z is not None:
        w[system.trace_dofs] = z
    filled, _ = system.grid.fill(w, system.load)
    return (system.load - system.stiffness @ filled)[system.trace_dofs] / system.lumped_mass


def dst1_allocating(x: np.ndarray, axis: int) -> np.ndarray:
    """``assembly._dst1`` with new arrays for the odd extension, its FFT
    and the result on every call."""
    x = np.moveaxis(x, axis, -1)
    n = x.shape[-1]
    z = np.zeros(x.shape[:-1] + (2 * n + 2,))
    z[..., 1 : n + 1] = x
    z[..., n + 2 :] = -x[..., ::-1]
    y = np.fft.rfft(z)[..., 1 : n + 1].imag * -np.sqrt(0.5 / (n + 1))
    return np.moveaxis(y, -1, axis)


def _dst2(x: np.ndarray) -> np.ndarray:
    return dst1_allocating(dst1_allocating(x, 1), 0)


def grid_solve_allocating(grid, r: np.ndarray) -> np.ndarray:
    """``GridPoisson.solve`` by allocating transforms."""
    return _dst2(_dst2(r.reshape(grid._eig.shape)) / grid._eig).ravel()


def grid_fill_allocating(grid, w: np.ndarray, load: np.ndarray, free=None) -> np.ndarray:
    """``GridPoisson.fill`` with ``grid_solve_allocating`` steps and a new
    trial vector and residual on every refinement step."""
    n, m = grid.trace_dofs.shape[0], grid.interior.shape[0]
    free = np.zeros(n, dtype=bool) if free is None else free
    rows = np.concatenate([grid.interior, grid.trace_dofs[free]])
    chol = scipy.linalg.cho_factor(grid.schur[np.ix_(free, free)]) if free.any() else None

    def step(r):
        d = grid_solve_allocating(grid, r[:m])
        if chol is None:
            return d
        d_free = scipy.linalg.cho_solve(chol, r[m:] + grid._b * d[:n][free])
        r_int = r[:m].copy()
        r_int[:n][free] += grid._b * d_free
        return np.concatenate([grid_solve_allocating(grid, r_int), d_free])

    w = w.copy()
    w[rows] = 0.0
    r = (load - grid.stiffness @ w)[rows]
    res = np.linalg.norm(r)
    for _ in range(assembly._MAX_REFINE):
        trial = w.copy()
        trial[rows] += step(r)
        r_trial = (load - grid.stiffness @ trial)[rows]
        if not np.linalg.norm(r_trial) < res:
            break
        w, r, res = trial, r_trial, np.linalg.norm(r_trial)
    return w


def split_by_lines(tri_coords: np.ndarray, lines) -> list:
    """Cut one triangle along vertical lines into sub-triangles.

    The per-cell polygon clipping that ``assembly._split_by_lines`` does
    for all cells at once.  Returns a list of (3, 2) arrays; degenerate
    slivers are dropped.
    """
    polys = [list(tri_coords)]
    for c in lines:
        next_polys = []
        for poly in polys:
            xs = [p[0] for p in poly]
            if min(xs) < c < max(xs):
                for piece in (_clip_halfplane(poly, c, True), _clip_halfplane(poly, c, False)):
                    if piece and abs(_poly_area(piece)) > 1e-30:
                        next_polys.append(piece)
            else:
                next_polys.append(poly)
        polys = next_polys
    tris = []
    for poly in polys:
        for i in range(1, len(poly) - 1):
            tris.append(np.stack([poly[0], poly[i], poly[i + 1]]))
    return tris


def _clip_halfplane(poly: list, c: float, keep_left: bool) -> list:
    """Clip a convex polygon against x <= c (or x >= c)."""
    out = []
    n = len(poly)
    for i in range(n):
        p = poly[i]
        q = poly[(i + 1) % n]
        pin = p[0] <= c if keep_left else p[0] >= c
        qin = q[0] <= c if keep_left else q[0] >= c
        if pin:
            out.append(p)
        if pin != qin:
            t = (c - p[0]) / (q[0] - p[0])
            out.append(p + t * (q - p))
    return out if len(out) >= 3 else []


def _poly_area(poly: list) -> float:
    a = 0.0
    n = len(poly)
    for i in range(n):
        p = poly[i]
        q = poly[(i + 1) % n]
        a += p[0] * q[1] - q[0] * p[1]
    return 0.5 * a


class CutoffOracle:
    """The quartic cut-off on every point: t clipped to [0, 1], then the
    polynomial and its derivatives, zero at the clipped ends (a NaN t is
    no end), with no band mask."""

    def __init__(self, s0: float, s1: float):
        self.s0 = s0
        self.s1 = s1

    def _t(self, s):
        s = np.asarray(s, dtype=float)
        return np.clip((s - self.s0) / (self.s1 - self.s0), 0.0, 1.0)

    def __call__(self, s):
        t = self._t(s)
        return 1.0 + t**3 * (3.0 * t - 4.0)

    def d1(self, s):
        t = self._t(s)
        ends = (t == 0.0) | (t == 1.0)
        h = self.s1 - self.s0
        return np.where(ends, 0.0, 12.0 * t**2 * (t - 1.0) / h)

    def d2(self, s):
        t = self._t(s)
        ends = (t == 0.0) | (t == 1.0)
        h = self.s1 - self.s0
        return np.where(ends, 0.0, (36.0 * t**2 - 24.0 * t) / h**2)


class ExactOracle:
    """u, grad_u and rhs of an ``ExactSolution`` with both singular terms
    and both cut-offs evaluated on every point, by the product formulas."""

    def __init__(self, sol):
        self.x_left = sol.x_left
        self.x_right = sol.x_right
        self.weight = sol.weight
        self.cutoff = CutoffOracle(sol.cutoff.s0, sol.cutoff.s1)

    def _polar(self, xi, y):
        r = np.hypot(xi, y)
        theta = np.arctan2(y, xi)
        return r, theta

    def u(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        s1 = _singular_term(*self._polar(x - self.x_left, y))
        s2 = _singular_term(*self._polar(self.x_right - x, y))
        c1 = self.cutoff(x)
        c2 = self.cutoff(REFLECTION_OFFSET - x)
        return (s1 * c1 + self.weight * s2 * c2) * (1.0 - y**2)

    def grad_u(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        s1, s1x, s1y = _singular_with_gradient(*self._polar(x - self.x_left, y))
        s2, s2xi, s2y = _singular_with_gradient(*self._polar(self.x_right - x, y))
        c1 = self.cutoff(x)
        c2 = self.cutoff(REFLECTION_OFFSET - x)
        c1p = self.cutoff.d1(x)
        c2p = self.cutoff.d1(REFLECTION_OFFSET - x)  # derivative in the spline argument
        yfac = 1.0 - y**2
        a = self.weight
        ux = (s1x * c1 + s1 * c1p + a * (-s2xi) * c2 + a * s2 * (-c2p)) * yfac
        uy = (s1y * c1 + a * s2y * c2) * yfac + (s1 * c1 + a * s2 * c2) * (-2.0 * y)
        return ux, uy

    def rhs(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        s1, s1x, s1y = _singular_with_gradient(*self._polar(x - self.x_left, y))
        s2, s2xi, s2y = _singular_with_gradient(*self._polar(self.x_right - x, y))
        c1 = self.cutoff(x)
        c2 = self.cutoff(REFLECTION_OFFSET - x)
        c1p = self.cutoff.d1(x)
        c2p = self.cutoff.d1(REFLECTION_OFFSET - x)
        c1pp = self.cutoff.d2(x)
        c2pp = self.cutoff.d2(REFLECTION_OFFSET - x)
        yfac = 1.0 - y**2
        # d/dx of cut(1.4 - x) is -c2p, d2/dx2 is +c2pp
        lap1 = 2.0 * s1x * c1p * yfac + s1 * c1pp * yfac - 4.0 * y * s1y * c1 - 2.0 * s1 * c1
        lap2 = (
            2.0 * (-s2xi) * (-c2p) * yfac
            + s2 * c2pp * yfac
            - 4.0 * y * s2y * c2
            - 2.0 * s2 * c2
        )
        return -(lap1 + self.weight * lap2)

    def flux(self, x):
        """``ExactSolution.flux`` by the formula that gave 0.0 at a NaN x."""
        x = np.asarray(x, dtype=float)
        xi1 = x - self.x_left
        xi2 = self.x_right - x
        left = np.where(xi1 > 0.0, 1.5 * np.sqrt(np.maximum(xi1, 0.0)) * self.cutoff(x), 0.0)
        right = np.where(
            xi2 > 0.0,
            1.5 * self.weight * np.sqrt(np.maximum(xi2, 0.0)) * self.cutoff(REFLECTION_OFFSET - x),
            0.0,
        )
        return left + right


def _singular_term(r, theta):
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return r**1.5 * np.sin(1.5 * theta)


def _singular_with_gradient(r, theta):
    sq = 1.5 * np.sqrt(r)
    return _singular_term(r, theta), sq * np.sin(0.5 * theta), sq * np.cos(0.5 * theta)


def assemble_load_einsum(mesh: TriMesh, f, degree: int = 4, refine_near=None, split_x=()) -> np.ndarray:
    """``assembly.assemble_load`` with its points mapped and its products
    summed by ``einsum``."""
    bary, w = tri_quadrature(degree)
    coords = mesh.vertices[mesh.triangles]
    area = signed_areas(coords)
    load = np.zeros(mesh.num_vertices)

    if refine_near is None:
        near = np.zeros(mesh.num_triangles, dtype=bool)
    else:
        near = cells_near(coords, *refine_near)
    crossing = np.zeros(mesh.num_triangles, dtype=bool)
    xs = coords[..., 0]
    for c in split_x:
        crossing |= (xs.min(axis=1) < c) & (c < xs.max(axis=1))
    special = near | crossing

    regular = np.flatnonzero(~special)
    for start in range(0, regular.shape[0], TRIANGLE_CHUNK):
        sel = regular[start : start + TRIANGLE_CHUNK]
        pts = np.einsum("qk,tkd->tqd", bary, coords[sel])
        vals = f(pts[..., 0], pts[..., 1])
        contrib = np.einsum("tq,q,qk->tk", vals, w, bary) * area[sel, None]
        np.add.at(load, mesh.triangles[sel].ravel(), contrib.ravel())

    special_idx = np.flatnonzero(special)
    if not special_idx.size:
        return load
    crossed = np.flatnonzero(crossing)
    cut, owner = assembly._split_by_lines(coords[crossed], split_x)
    whole = np.flatnonzero(special & ~crossing)
    parent = np.concatenate([whole, crossed[owner]])
    order = np.argsort(parent, kind="stable")
    pieces = np.concatenate([coords[whole], cut])[order]
    parent = parent[order]
    refined = near[parent]
    if np.any(refined):
        children = quadrisect(pieces[refined]).reshape(-1, 3, 2)
        pieces = np.concatenate([pieces[~refined], children])
        parent = np.concatenate([parent[~refined], np.repeat(parent[refined], 4)])
    for start in range(0, pieces.shape[0], TRIANGLE_CHUNK):
        sub = pieces[start : start + TRIANGLE_CHUNK]
        owner = parent[start : start + TRIANGLE_CHUNK]
        pts = np.einsum("qk,pkd->pqd", bary, sub)
        vals = f(pts[..., 0], pts[..., 1])
        hats = np.einsum("pqd,pdk->pqk", pts - coords[owner, None, 0], element_gradients(coords[owner])[0])
        hats[..., 0] += 1.0
        contrib = np.einsum("pq,q,pqk->pk", vals, w, hats) * signed_areas(sub)[:, None]
        np.add.at(load, mesh.triangles[owner].ravel(), contrib.ravel())
    return load


def volume_errors_einsum(mesh: TriMesh, u_values: np.ndarray, sol, max_depth: int = 6, graded: bool = True):
    """``norms.volume_errors`` with its points mapped by ``einsum`` and the
    exact solution evaluated by separate ``u`` and ``grad_u`` calls; with
    graded=False every piece near a transmission point splits down to
    max_depth, the uniform rule the grading is checked against."""
    bary, w = tri_quadrature(norms.VOLUME_DEGREE)
    c0, g = norms._affine_data(mesh.vertices[mesh.triangles], u_values[mesh.triangles])
    tps = np.array([[sol.x_left, 0.0], [sol.x_right, 0.0]])

    def leaf_sums(tri, owner, leaves):
        l2 = h1 = 0.0
        for start in range(0, leaves.shape[0], TRIANGLE_CHUNK):
            sel = leaves[start : start + TRIANGLE_CHUNK]
            cells = tri[sel]
            t = owner[sel, None]
            pts = np.einsum("qk,tkd->tqd", bary, cells)
            x = pts[..., 0]
            y = pts[..., 1]
            ue = sol.u(x, y)
            uex, uey = sol.grad_u(x, y)
            uh = c0[t] + g[t, 0] * x + g[t, 1] * y
            area = signed_areas(cells)
            l2 += float(np.einsum("tq,q,t->", (ue - uh) ** 2, w, area))
            h1 += float(np.einsum("tq,q,t->", (uex - g[t, 0]) ** 2 + (uey - g[t, 1]) ** 2, w, area))
        return l2, h1

    tri = mesh.vertices[mesh.triangles]
    owner = np.arange(mesh.num_triangles)
    split = cells_near(tri, tps, 2.0 * mesh.max_edge_length())
    total_l2 = total_h1 = 0.0
    for depth in range(max_depth + 1):
        if depth == max_depth:
            split[:] = False
        elif graded:
            near = tri[split]
            edges = near - np.roll(near, -1, axis=1)
            diam = np.hypot(edges[..., 0], edges[..., 1]).max(axis=1)
            split[split] = cells_near(near, tps, 2.0 * diam)
        l2, h1 = leaf_sums(tri, owner, np.flatnonzero(~split))
        total_l2 += l2
        total_h1 += h1
        if not split.any():
            break
        tri = quadrisect(tri[split]).reshape(-1, 3, 2)
        owner = np.repeat(owner[split], 4)
        split = np.ones(tri.shape[0], dtype=bool)

    return float(np.sqrt(total_l2)), float(np.sqrt(total_h1))


def dual_norm_spsolve(err_values: np.ndarray, mass, h1gram) -> float:
    """``norms.dual_norm`` by one sparse solve with the interior block of
    the H1 Gram matrix, rebuilt and solved on every call."""
    r = mass @ err_values
    inner = slice(1, -1)
    h_inner = h1gram[inner, inner].tocsc()
    y = spla.spsolve(h_inner, r[inner])
    return float(np.sqrt(max(float(r[inner] @ y), 0.0)))


def line_grams(x: np.ndarray) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """1D P1 mass and stiffness matrices on the node set x (increasing)."""
    h = np.diff(x)
    n = x.shape[0]
    main_m = np.zeros(n)
    main_m[:-1] += h / 3.0
    main_m[1:] += h / 3.0
    off_m = h / 6.0
    mass = sp.diags([off_m, main_m, off_m], offsets=[-1, 0, 1], format="csr")
    main_k = np.zeros(n)
    main_k[:-1] += 1.0 / h
    main_k[1:] += 1.0 / h
    off_k = -1.0 / h
    stiff = sp.diags([off_k, main_k, off_k], offsets=[-1, 0, 1], format="csr")
    return mass, stiff


def dual_norm_thomas(err_values: np.ndarray, x: np.ndarray) -> float:
    """``norms.dual_norm`` of a nodal error on the node set x, in long
    double: r = M e on the interior nodes from the element lengths, then
    r^T H^-1 r by the Thomas algorithm on the tridiagonal interior block of
    the H1 Gram matrix, one Python step per node."""
    e = np.asarray(err_values, dtype=np.longdouble)
    h = np.diff(np.asarray(x, dtype=np.longdouble))
    r = (h[:-1] * (e[:-2] + 2 * e[1:-1]) + h[1:] * (2 * e[1:-1] + e[2:])) / 6
    diag = (h[:-1] + h[1:]) / 3 + 1 / h[:-1] + 1 / h[1:]
    off = h[1:-1] / 6 - 1 / h[1:-1]  # between interior nodes i and i + 1
    n = r.shape[0]
    c = np.zeros(n, dtype=np.longdouble)  # c[n - 1] stays 0
    y = np.zeros(n, dtype=np.longdouble)
    for i in range(n):
        denom = diag[i] - (off[i - 1] * c[i - 1] if i else 0)
        if i < n - 1:
            c[i] = off[i] / denom
        y[i] = (r[i] - (off[i - 1] * y[i - 1] if i else 0)) / denom
    for i in range(n - 2, -1, -1):
        y[i] -= c[i] * y[i + 1]
    return float(np.sqrt(r @ y))
