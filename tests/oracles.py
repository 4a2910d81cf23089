"""Independent references that the tests compare the package against.

Each reference computes a quantity the package also computes, by the plain
route the package replaced: dense elimination for the Schur complement, one
Python step per triangle for the refinement, quadrature for the diagonal
trace coupling, the full-space PDAS from the empty active set for the
contact solve, and edge lists for the boundary that the package reads
from vertex coordinates.  The cone helper is a view that only the tests
need, and ``count_grid_builds`` counts the grid solvers a call builds.
"""

import numpy as np

from signorini_fem import assembly, solver
from signorini_fem.assembly import FeFunction, FeSystem, assemble_stiffness, dof_partition
from signorini_fem.biortho import dual_shape_values
from signorini_fem.mesh import TraceMap, TriMesh, build_initial, elimination_order, trace_map
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


def boundary_sets(gamma_s: np.ndarray, gamma_d: np.ndarray):
    """What ``trace_map`` and ``dof_partition`` must find for these edges.

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
    replace it), listed in ``elimination_order``.
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
    order = elimination_order(mesh)

    def solve_fixed(active):
        fixed_mask = ~system.free_mask
        fixed_mask[trace[active]] = True
        u[trace[active]] = g[active]
        free = order[~fixed_mask[order]]
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
