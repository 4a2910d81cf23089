import dataclasses
import types
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import quad as scipy_quad

from signorini_fem import (
    ExactSolution,
    SolverError,
    build_system,
    mesh_at_level,
    solve_vi,
    trace_map,
)
from signorini_fem import mesh as msh
from signorini_fem import assembly, steklov
from signorini_fem.assembly import GridPoisson, assemble_stiffness
from signorini_fem.solver import condense_system
from signorini_fem.steklov import SteklovMap, exact_trace_values, solve_schur_vi, trace_moments

from oracles import (
    box_partition,
    check_stencil_unblocked,
    counting_spla,
    doubled,
    holed,
    out_of_memory_splu,
    schur_complement_dense,
    schur_consistency,
    square_patch,
)


@pytest.fixture(scope="module")
def sol():
    return ExactSolution()


def test_apply_zero_is_zero(sol):
    m = mesh_at_level(2)
    smap = SteklovMap(m, trace_map(m))
    out = smap.apply(np.zeros(smap.num_multipliers))
    assert np.all(out == 0.0)


def test_linearity(sol):
    m = mesh_at_level(2)
    smap = SteklovMap(m, trace_map(m))
    rng = np.random.default_rng(0)
    z1 = rng.standard_normal(smap.num_multipliers)
    z2 = rng.standard_normal(smap.num_multipliers)
    lhs = smap.apply(2.0 * z1 - 3.0 * z2)
    rhs = 2.0 * smap.apply(z1) - 3.0 * smap.apply(z2)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


def test_ellipticity_identity(sol):
    # <v, S_h v> equals the H1 seminorm of the discrete harmonic extension
    m = mesh_at_level(3)
    tm = trace_map(m)
    A = assemble_stiffness(m)
    smap = SteklovMap(m, tm, stiffness=A)
    rng = np.random.default_rng(4)
    for _ in range(10):
        v = rng.standard_normal(smap.num_multipliers)
        s, w = smap.apply(v), smap.extension(v)
        pairing = float(np.sum(v * s * smap.lumped))
        energy = float(w @ (A @ w))
        assert abs(pairing - energy) <= 1e-10 * abs(energy)


def test_symmetry(sol):
    m = mesh_at_level(3)
    smap = SteklovMap(m, trace_map(m))
    rng = np.random.default_rng(9)
    v = rng.standard_normal(smap.num_multipliers)
    w = rng.standard_normal(smap.num_multipliers)
    left = float(np.sum(v * smap.apply(w) * smap.lumped))
    right = float(np.sum(w * smap.apply(v) * smap.lumped))
    assert abs(left - right) <= 1e-10 * max(abs(left), 1e-30)


def test_discrete_harmonicity(sol):
    m = mesh_at_level(3)
    tm = trace_map(m)
    A = assemble_stiffness(m)
    smap = SteklovMap(m, tm, stiffness=A)
    rng = np.random.default_rng(2)
    z = rng.standard_normal(smap.num_multipliers)
    w = smap.extension(z)
    resid = (A @ w)[smap.interior_idx]
    assert np.abs(resid).max() <= 1e-10


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_schur_consistency(level):
    assert schur_consistency(mesh_at_level(level)) <= 1e-10


def test_schur_consistency_deterministic():
    m = mesh_at_level(2)
    assert schur_consistency(m) == schur_consistency(m)


def test_schur_hand_computed_single_interior_vertex():
    # 2 x 2 split-quad grid: one interior vertex at the center, one interior
    # contact vertex at the bottom middle.  By hand: the contact diagonal is
    # 2, the center diagonal 4 (five-point stencil), and the coupling is -1
    # (-1/2 from each triangle sharing the edge), so the reduced operator is
    # 2 - (-1)^2 / 4 = 7/4
    m, _, _ = square_patch()

    tm = msh.trace_map(m)
    assert tm.num_multipliers == 1
    schur = schur_complement_dense(m, tm)
    assert np.allclose(schur, [[7.0 / 4.0]], rtol=1e-14)
    smap = SteklovMap(m, tm)
    assert np.allclose(smap.lumped[:, None] * smap.dense_matrix(), [[7.0 / 4.0]], rtol=1e-13)


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6, 7])
def test_operator_positive_definite(level):
    m = mesh_at_level(level)
    smap = SteklovMap(m, trace_map(m))
    dense = smap.lumped[:, None] * smap.dense_matrix()
    assert np.abs(dense - dense.T).max() <= 1e-13 * np.abs(dense).max()
    np.linalg.cholesky(dense)  # raises unless positive definite
    eigs = np.linalg.eigvalsh(0.5 * (dense + dense.T))
    assert eigs.min() > 0.0


def apply_columns(smap):
    """The operator applied to every unit vector, one extension per column."""
    n = smap.num_multipliers
    cols = np.empty((n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        cols[:, k] = smap.apply(e)
    return cols


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6])
def test_dense_matrix_equals_column_by_column_application(level):
    m = mesh_at_level(level)
    smap = SteklovMap(m, trace_map(m))
    ref = apply_columns(smap)
    assert np.abs(smap.dense_matrix() - ref).max() <= 1e-12 * np.abs(ref).max()


def test_dense_matrix_solves_no_extension(monkeypatch):
    m = mesh_at_level(4)
    smap = SteklovMap(m, trace_map(m))
    monkeypatch.setattr(SteklovMap, "extension", None)
    assert smap.dense_matrix().shape == (smap.num_multipliers,) * 2


def perturbed(stiffness, i, j, delta):
    """The stiffness with delta added to the symmetric pair (i, j), (j, i)."""
    bump = sp.coo_matrix(([delta, delta], ([i, j], [j, i])), shape=stiffness.shape)
    return (stiffness + bump).tocsr()


def test_map_refuses_a_stiffness_off_the_stencil():
    # one diagonal edge of the grid, inside the mesh: its assembled entry is
    # a stored 0; the other diagonal of the same cell has no entry at all.
    # The map builds its grid solver, and so runs the stencil check, when
    # it is constructed
    m = mesh_at_level(4)
    tm = trace_map(m)
    A = assemble_stiffness(m)
    raster = msh.vertex_raster(m)
    p, q = raster[3, 5], raster[4, 6]
    extra = raster[3, 6], raster[4, 5]
    assert A[p, q] == 0.0 and q in A.indices[A.indptr[p] : A.indptr[p + 1]]
    assert extra[0] not in A.indices[A.indptr[extra[1]] : A.indptr[extra[1] + 1]]
    for stiffness in (perturbed(A, p, q, 1e-6), perturbed(A, *extra, -0.5)):
        with pytest.raises(SolverError, match="five-point stencil"):
            SteklovMap(m, tm, stiffness=stiffness)


@pytest.mark.parametrize("cells_per_block", [1, 5 * 63, assembly.ROW_BLOCK])
def test_blocked_stencil_check_refuses_a_moved_entry_in_any_block(monkeypatch, cells_per_block):
    # level 5 has 32 raster rows of 63 free cells: blocks of one row, of
    # five rows with a last block of two, and one block
    monkeypatch.setattr(assembly, "ROW_BLOCK", cells_per_block)
    m = mesh_at_level(5)
    A = assemble_stiffness(m)
    raster = msh.vertex_raster(m)
    cells = raster[:-1, 1:-1]
    ny, n = cells.shape
    hx, hy = np.ptp(m.vertices, axis=0) / (n + 1, ny)
    delta = 1e-6 * (hy / hx + hx / hy)
    GridPoisson(m, A)
    check_stencil_unblocked(m, A)
    # the first, a middle and the last block; a pair in a row, a diagonal
    # entry, and a pair across two rows
    for row in (0, ny // 2, ny - 1):
        above = min(row + 1, ny - 1)
        for i, j in ((cells[row, 0], cells[row, 1]), (cells[row, -1], cells[row, -1]), (cells[row, 3], cells[above, 4])):
            moved = perturbed(A, i, j, delta)
            with pytest.raises(SolverError, match="five-point stencil"):
                check_stencil_unblocked(m, moved)
            with pytest.raises(SolverError, match="five-point stencil"):
                GridPoisson(m, moved)
    # entries in a Dirichlet column are not the stencil's, and a move below
    # the tolerance passes
    for stiffness in (perturbed(A, cells[0, 0], raster[0, 0], 1.0), perturbed(A, cells[-1, -1], raster[-1, -1], 1.0), perturbed(A, cells[4, 4], cells[4, 4], 1e-12)):
        check_stencil_unblocked(m, stiffness)
        GridPoisson(m, stiffness)


def test_grid_refuses_a_mesh_with_an_interior_vertex_missing():
    # the vertex and its six triangles go; the hole leaves one cell empty
    m = mesh_at_level(3)
    _, _, interior = box_partition(m)
    for missing in (interior[0], interior[interior.shape[0] // 2]):
        mesh = holed(m, missing)
        with pytest.raises(SolverError, match="do not fill a uniform grid"):
            GridPoisson(mesh, assemble_stiffness(mesh))


def test_grid_refuses_a_mesh_with_two_vertices_in_one_cell():
    # a copy of an interior vertex, a hair off it, that no triangle uses
    m = mesh_at_level(3)
    _, _, interior = box_partition(m)
    for twin in (interior[0], interior[-1]):
        mesh = doubled(m, twin)
        with pytest.raises(SolverError, match="do not fill a uniform grid"):
            GridPoisson(mesh, assemble_stiffness(mesh))


def test_fill_refines_against_the_assembled_stiffness():
    # a stiffness 8e-11 of a + b off the stencil passes the guard, and the
    # unrefined DST-I solve leaves a relative residual near 1e-9 against
    # it: only the refinement brings it to rounding
    m = mesh_at_level(4)
    tm = trace_map(m)
    A = assemble_stiffness(m).tocoo()
    rng = np.random.default_rng(3)
    noise = sp.coo_matrix((rng.uniform(-2e-11, 2e-11, A.nnz) * np.abs(A.data).max(), (A.row, A.col)), A.shape)
    A = (A + noise + noise.T).tocsr()
    grid = GridPoisson(m, A)
    assert np.array_equal(grid.trace_dofs, tm.multiplier_vertices)
    load = rng.standard_normal(m.num_vertices)
    for free in (np.zeros(tm.num_multipliers, dtype=bool), rng.random(tm.num_multipliers) < 0.5):
        w, _ = grid.fill(np.zeros(m.num_vertices), load, free=free)
        rows = np.concatenate([grid.interior, tm.multiplier_vertices[free]])
        assert np.linalg.norm((load - A @ w)[rows]) <= 1e-13 * np.linalg.norm(load[rows])


@pytest.mark.parametrize("level", [3, 5])
def test_grid_solve_is_the_interior_inverse(level):
    m = mesh_at_level(level)
    A = assemble_stiffness(m)
    _, _, interior = box_partition(m)
    grid = GridPoisson(m, A)
    assert np.array_equal(np.sort(grid.interior), interior)
    r = np.random.default_rng(level).standard_normal(interior.shape[0])
    ref = spla.spsolve(A[grid.interior][:, grid.interior].tocsc(), r)
    assert np.abs(grid.solve(r) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_dense_matrix_is_condensed_once_per_map(monkeypatch, sol):
    # the closed form factorizes nothing; the map's only factorization is
    # its interior cross-check factor, built with the map
    m = mesh_at_level(4)
    tm = trace_map(m)
    system = build_system(m, tm, sol)
    smap = SteklovMap(m, tm, stiffness=system.stiffness, lumped=system.lumped_mass)
    calls = []
    monkeypatch.setattr(steklov, "spla", counting_spla(calls))
    first = smap.dense_matrix()
    first_vi = solve_schur_vi(smap, system.load, system.dirichlet_values)
    assert smap.dense_matrix() is first
    second_vi = solve_schur_vi(smap, system.load, system.dirichlet_values)
    assert calls == []
    for a, b in zip(first_vi, second_vi):
        assert np.array_equal(a, b)
    with pytest.raises(ValueError, match="read-only"):
        first[0, 0] = 0.0


def test_map_keeps_its_dense_matrix_and_no_grid(monkeypatch):
    # the grid solver, and with it its S, is freed once the map is built
    grids = []
    init = GridPoisson.__init__

    def watched(self, *args):
        grids.append(weakref.ref(self))
        init(self, *args)

    monkeypatch.setattr(GridPoisson, "__init__", watched)
    m = mesh_at_level(4)
    smap = SteklovMap(m, trace_map(m))
    assert len(grids) == 1 and grids[0]() is None
    assert not any(isinstance(value, GridPoisson) for value in vars(smap).values())
    sigma = smap.dense_matrix()
    assert smap.dense_matrix() is sigma
    assert not sigma.flags.writeable


def test_index_sets_are_read_only(sol):
    # the map's interior_idx is the grid's interior itself, so a write
    # through either would corrupt both
    m = mesh_at_level(3)
    tm = trace_map(m)
    system = build_system(m, tm, sol)
    smap = SteklovMap(m, tm, stiffness=system.stiffness, lumped=system.lumped_mass)
    assert np.array_equal(smap.interior_idx, system.grid.interior)
    owners = [
        (system.grid, ("trace_dofs", "interior", "dirichlet_idx", "free_mask")),
        (system, ("trace_dofs", "dirichlet_idx", "free_mask")),
        (smap, ("trace_dofs", "interior_idx", "dirichlet_idx")),
    ]
    for owner, names in owners:
        for name in names:
            index = getattr(owner, name)
            with pytest.raises(ValueError, match="read-only"):
                index[0] = index[-1]


@pytest.mark.parametrize("level", [2, 3, 4, 5])
def test_closed_form_sigma_matches_the_dense_schur_complement(level, sol):
    m = mesh_at_level(level)
    tm = trace_map(m)
    system = build_system(m, tm, sol)
    ref = schur_complement_dense(m, tm, stiffness=system.stiffness) / system.lumped_mass[:, None]
    sigma, _ = condense_system(system)
    assert np.abs(sigma - ref).max() <= 1e-12 * np.abs(ref).max()
    smap = SteklovMap(m, tm, stiffness=system.stiffness, lumped=system.lumped_mass)
    assert np.array_equal(smap.dense_matrix(), sigma)


def test_out_of_memory_factorizations_raise_solver_error(monkeypatch):
    m = mesh_at_level(3)
    smap = SteklovMap(m, trace_map(m))
    monkeypatch.setattr(steklov, "spla", types.SimpleNamespace(splu=out_of_memory_splu))
    n = smap.interior_idx.shape[0]
    with pytest.raises(SolverError, match=f"interior factorization of {n} unknowns failed: MemoryError"):
        SteklovMap(m, trace_map(m))


def test_dense_matrix_refuses_a_middle_column_that_does_not_separate():
    # move one interior vertex of the middle column far enough right that it
    # rounds into the next column, onto the cell of another vertex: the
    # raster refuses it 0.4 spacings off, before any map is built
    m = mesh_at_level(3)
    raster = msh.vertex_raster(m)
    nx, ny = raster.shape[1] - 1, raster.shape[0] - 1
    moved = raster[ny // 2, nx // 2]
    vertices = m.vertices.copy()
    vertices[moved, 0] += 0.6 * msh.WIDTH / nx
    shifted = dataclasses.replace(m, vertices=vertices)
    with pytest.raises(ValueError, match="1 vertices lie up to 0.4 spacings off the grid"):
        trace_map(shifted)


@pytest.mark.parametrize("level", [2, 3, 4, 5, 6])
def test_condensed_load_is_the_newton_potential(level, sol):
    # from the refined grid solve, against the interior factorization
    m = mesh_at_level(level)
    tm = trace_map(m)
    system = build_system(m, tm, sol)
    _, nu = condense_system(system)
    smap = SteklovMap(m, tm, stiffness=system.stiffness, lumped=system.lumped_mass)
    ref = smap.newton_potential(system.load, dirichlet_values=system.dirichlet_values)
    assert np.abs(nu - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("level", [2, 3, 4, 5, 6])
def test_condensed_system_gives_the_consistency_flux(level, sol):
    # lambda tilde = nu - sigma z for the exact trace values z, no solve
    m = mesh_at_level(level)
    tm = trace_map(m)
    system = build_system(m, tm, sol)
    sigma, nu = condense_system(system)
    z = exact_trace_values(sol, tm, system.lumped_mass)
    smap = SteklovMap(m, tm, stiffness=system.stiffness, lumped=system.lumped_mass)
    ref = smap.exact_trace_flux(sol, system.load)
    assert np.abs(nu - sigma @ z - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("level", [2, 3, 4, 5, 6])
def test_grid_flux_is_the_consistency_flux(level, sol):
    # the study's lambda tilde: the boundary residual of the refined grid
    # extension of the exact trace, against the interior factorization
    m = mesh_at_level(level)
    tm = trace_map(m)
    system = build_system(m, tm, sol)
    lam = system.trace_multiplier(exact_trace_values(sol, tm, system.lumped_mass))
    smap = SteklovMap(m, tm, stiffness=system.stiffness, lumped=system.lumped_mass)
    ref = smap.exact_trace_flux(sol, system.load)
    assert np.abs(lam - ref).max() <= 1e-12 * np.abs(ref).max()


def test_newton_potential_zero_data(sol):
    m = mesh_at_level(2)
    smap = SteklovMap(m, trace_map(m))
    nu = smap.newton_potential(np.zeros(m.num_vertices))
    assert np.all(nu == 0.0)


def test_newton_potential_linear_in_load(sol):
    m = mesh_at_level(2)
    tm = trace_map(m)
    system = build_system(m, tm, sol)
    smap = SteklovMap(m, tm, stiffness=system.stiffness, lumped=system.lumped_mass)
    nu1 = smap.newton_potential(system.load)
    nu3 = smap.newton_potential(3.0 * system.load)
    assert np.allclose(nu3, 3.0 * nu1, rtol=1e-12)


def test_schur_path_reproduces_vi_solution(sol):
    # boundary-reduced complementarity system gives the same trace as PDAS
    m = mesh_at_level(5)
    tm = trace_map(m)
    system = build_system(m, tm, sol)
    vi = solve_vi(m, tm, sol, system=system)
    smap = SteklovMap(m, tm, stiffness=system.stiffness, lumped=system.lumped_mass)
    t, lam, active = solve_schur_vi(smap, system.load, system.dirichlet_values)
    assert np.abs(t - vi.u.values[system.trace_dofs]).max() <= 1e-8
    assert np.abs(lam - vi.multiplier.values).max() <= 1e-8
    assert np.array_equal(active, vi.active)


@pytest.mark.parametrize("seed", [501, 502])
def test_schur_path_matches_cold_vi_on_seeded_obstacles(seed):
    # level 6, drawn as the contact benchmark draws them: an affine obstacle
    # and a scaled load and Dirichlet data, no exact solution for the solver
    m = mesh_at_level(6)
    tm = trace_map(m)
    base = build_system(m, tm, ExactSolution())
    rng = np.random.default_rng([seed, 2])
    a, b = rng.uniform(-2e-3, 2e-3, size=2)
    s = rng.uniform(0.5, 2.0)
    system = dataclasses.replace(base, load=s * base.load, dirichlet_values=s * base.dirichlet_values)
    g = a + b * tm.multiplier_x
    vi = solve_vi(m, tm, None, g=g, system=system, warm_start=False)
    smap = SteklovMap(m, tm, stiffness=system.stiffness, lumped=system.lumped_mass)
    t, lam, active = solve_schur_vi(smap, system.load, system.dirichlet_values, g=g)
    trace = vi.u.values[system.trace_dofs]
    assert 0 < np.count_nonzero(vi.active) < vi.active.shape[0]
    assert np.array_equal(active, vi.active)
    assert np.abs(t - trace).max() <= 1e-9 * np.abs(trace).max()
    assert np.abs(lam - vi.multiplier.values).max() <= 1e-9 * np.abs(vi.multiplier.values).max()


def test_trace_moments_of_linear_function():
    # dual-basis moments of a hat function recover the lumped diagonal
    m = mesh_at_level(2)
    tm = trace_map(m)

    def one(x):
        return np.ones_like(np.asarray(x, dtype=float))

    smap = SteklovMap(m, tm)
    moments = trace_moments(one, tm)
    assert np.allclose(moments, smap.lumped, rtol=1e-12)


def _trace_moments_oracle(fn, tm, kinks, epsabs=1e-12):
    """One scipy quad call per element and dual function: the loop that the
    batched integrator replaced, kept as its reference."""
    x = tm.x
    moments = []
    for p in range(1, x.shape[0] - 1):
        total = 0.0
        for lo, hi, slope, offset in ((x[p - 1], x[p], 3.0, -1.0), (x[p], x[p + 1], -3.0, 2.0)):
            pts = [k for k in kinks if lo < k < hi]
            val, _ = scipy_quad(
                lambda s: fn(s) * (offset + slope * (s - lo) / (hi - lo)),
                lo,
                hi,
                points=pts or None,
                epsabs=epsabs,
                epsrel=1e-10,
                limit=200,
            )
            total += val
        moments.append(total)
    return np.array(moments)


@pytest.mark.parametrize("level", [2, 3, 4, 5])
def test_trace_moments_match_per_element_quad(sol, level):
    tm = trace_map(mesh_at_level(level))
    for fn in (sol.u_trace, sol.flux):
        moments = trace_moments(fn, tm, kinks=sol.kink_x)
        oracle = _trace_moments_oracle(fn, tm, sol.kink_x)
        assert np.abs(moments - oracle).max() <= 1e-10 * np.abs(oracle).max()


def test_exact_trace_flux_reproduces_discrete_flux_of_p1_data(sol):
    # feed the machinery a function that is itself P1 on the trace: the
    # consistency flux then equals the discrete flux of the direct solve
    import scipy.sparse.linalg as spla

    m = mesh_at_level(3)
    tm = trace_map(m)
    system = build_system(m, tm, sol)
    A, F = system.stiffness, system.load
    free = np.flatnonzero(system.free_mask)
    fixed = np.flatnonzero(~system.free_mask)
    u = np.zeros(m.num_vertices)
    u[system.dirichlet_idx] = system.dirichlet_values
    u[free] = spla.spsolve(A[np.ix_(free, free)].tocsc(), F[free] - A[np.ix_(free, fixed)] @ u[fixed])
    flux = (F - A @ u)[system.trace_dofs] / system.lumped_mass

    smap = SteklovMap(m, tm, stiffness=A, lumped=system.lumped_mass)

    class P1Data:
        x_left = sol.x_left
        x_right = sol.x_right
        kink_x = tuple(tm.x[1:-1])

        @staticmethod
        def u_trace(x):
            return np.interp(x, tm.x, u[tm.vertices])

        @staticmethod
        def u(x, y):
            x = np.asarray(x, dtype=float)
            return np.interp(x, tm.x, u[tm.vertices]) if np.all(np.asarray(y) == 0) else sol.u(x, y)

    lam_tilde = smap.exact_trace_flux(P1Data(), F)
    assert np.abs(lam_tilde - flux).max() <= 1e-10


def test_exact_trace_flux_zero_problem():
    # zero volume data, zero boundary data: the flux vanishes identically
    class Zero:
        x_left = 0.3
        x_right = 1.1
        kink_x = ()

        @staticmethod
        def u_trace(x):
            return np.zeros_like(np.asarray(x, dtype=float))

        @staticmethod
        def u(x, y):
            return np.zeros_like(np.asarray(x, dtype=float))

    m = mesh_at_level(2)
    tm = trace_map(m)
    smap = SteklovMap(m, tm)
    lam = smap.exact_trace_flux(Zero(), np.zeros(m.num_vertices))
    assert np.abs(lam).max() <= 1e-14


def test_schur_vi_nonconvergence_raises(sol):
    # from the empty start the level-3 contact set takes three steps, as in solve_vi
    m = mesh_at_level(3)
    tm = trace_map(m)
    system = build_system(m, tm, sol)
    smap = SteklovMap(m, tm, stiffness=system.stiffness, lumped=system.lumped_mass)
    for max_iter in (1, 2):
        with pytest.raises(SolverError, match="boundary PDAS did not converge"):
            solve_schur_vi(smap, system.load, system.dirichlet_values, max_iter=max_iter)
    t, lam, active = solve_schur_vi(smap, system.load, system.dirichlet_values, max_iter=3)
    assert np.array_equal(active, solve_vi(m, tm, sol, system=system, warm_start=False).active)
