import math

import numpy as np
import pytest

from signorini_fem import ExactSolution, assembly, mesh as msh
from signorini_fem.mesh import WIDTH

from oracles import (
    ExactOracle,
    assemble_load_einsum,
    boundary_edges,
    dst1_allocating,
    grid_fill_allocating,
    grid_solve_allocating,
    line_grams,
    split_by_lines,
    unit_right_triangle,
)


@pytest.fixture(scope="module")
def sol():
    return ExactSolution()


def test_local_stiffness_unit_right_triangle():
    m, _, _ = unit_right_triangle()
    K = assembly.assemble_stiffness(m).toarray()
    expected = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    assert np.allclose(K, expected, rtol=0, atol=1e-15)


def test_stiffness_rowsums_and_symmetry():
    m = msh.mesh_at_level(3)
    A = assembly.assemble_stiffness(m)
    assert np.abs(A @ np.ones(m.num_vertices)).max() < 1e-13
    assert abs(A - A.T).max() == 0.0


def test_stiffness_deterministic():
    m = msh.mesh_at_level(3)
    A1 = assembly.assemble_stiffness(m)
    A2 = assembly.assemble_stiffness(m)
    assert np.array_equal(A1.data, A2.data)
    assert np.array_equal(A1.indices, A2.indices)
    assert np.array_equal(A1.indptr, A2.indptr)


def test_dirichlet_reduced_stiffness_is_spd():
    m = msh.mesh_at_level(2)
    A = assembly.assemble_stiffness(m)
    _, free, _ = assembly.dof_partition(m)
    red = A[np.ix_(free, free)].toarray()
    np.linalg.cholesky(red)  # raises if not SPD


def test_quadrature_rules_exact_on_monomials():
    # reference-triangle integral of l1^i l2^j l3^k is i! j! k! / (i+j+k+2)! * 2A
    for degree in (4, 7):
        bary, w = assembly.tri_quadrature(degree)
        assert np.isclose(w.sum(), 1.0, rtol=1e-14)
        for (i, j, k) in [(1, 0, 0), (2, 1, 0), (2, 2, 0), (1, 1, 2), (4, 0, 0), (2, 1, 1)]:
            if i + j + k > degree:
                continue
            val = np.sum(w * bary[:, 0] ** i * bary[:, 1] ** j * bary[:, 2] ** k)
            exact = (
                2.0
                * math.factorial(i)
                * math.factorial(j)
                * math.factorial(k)
                / math.factorial(i + j + k + 2)
            )
            assert np.isclose(val, exact, rtol=1e-13), (degree, i, j, k)


def test_load_constant_density_partition_of_unity():
    m = msh.mesh_at_level(2)
    load = assembly.assemble_load(m, lambda x, y: np.ones_like(x))
    assert np.isclose(load.sum(), 0.5 * WIDTH, rtol=1e-13)


def test_load_zero_density():
    m = msh.mesh_at_level(2)
    load = assembly.assemble_load(m, lambda x, y: np.zeros_like(x))
    assert np.all(load == 0.0)


def test_load_degree4_vs_degree7(sol):
    m = msh.mesh_at_level(4)
    l4 = assembly.assemble_load(m, sol.rhs, degree=4, split_x=sol.load_split_x)
    l7 = assembly.assemble_load(m, sol.rhs, degree=7, split_x=sol.load_split_x)
    assert np.abs(l4 - l7).max() <= 1e-3 * np.abs(l7).max()


def test_load_split_lines_matter(sol):
    # the volume load jumps across the cut-off lines; splitting the cells
    # reproduces a high-degree reference, the plain rule does not
    m = msh.mesh_at_level(4)
    ref = assembly.assemble_load(m, sol.rhs, degree=16, split_x=sol.load_split_x)
    split = assembly.assemble_load(m, sol.rhs, degree=4, split_x=sol.load_split_x)
    plain = assembly.assemble_load(m, sol.rhs, degree=4)
    assert np.abs(split - ref).max() < 1e-6
    assert np.abs(plain - ref).max() > 1e-4


def _load_oracle(m, f, degree, refine_near, split_x):
    """Per-triangle load assembly: cut, quadrisect and scatter one cell at a time."""
    bary, w = assembly.tri_quadrature(degree)
    grads, _ = assembly.element_gradients(m.vertices[m.triangles])
    points, radius = refine_near
    load = np.zeros(m.num_vertices)
    for t, tri in enumerate(m.vertices[m.triangles]):
        near = min(msh.point_triangle_distances(p, tri[None])[0] for p in points) <= radius
        pieces = split_by_lines(tri, split_x)
        if near:
            pieces = [child for piece in pieces for child in assembly.quadrisect(piece[None])[0]]
        for sub in pieces:
            pts = bary @ sub
            hats = (pts - tri[0]) @ grads[t]
            hats[:, 0] += 1.0
            d1, d2 = sub[1] - sub[0], sub[2] - sub[0]
            area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
            load[m.triangles[t]] += area * np.einsum("q,q,qk->k", f(pts[:, 0], pts[:, 1]), w, hats)
    return load


@pytest.mark.parametrize("level", [2, 3, 4, 5])
def test_batched_load_matches_per_triangle_oracle(sol, level):
    m = msh.mesh_at_level(level)
    refine_near = (np.array([[sol.x_left, 0.0], [sol.x_right, 0.0]]), 2.0 * m.max_edge_length())
    load = assembly.assemble_load(m, sol.rhs, refine_near=refine_near, split_x=sol.load_split_x)
    oracle = _load_oracle(m, sol.rhs, 4, refine_near, sol.load_split_x)
    assert np.abs(load - oracle).max() <= 1e-14 * np.abs(oracle).max()


@pytest.mark.parametrize("level", [2, 3, 4, 5, 6, 7])
def test_load_equals_the_einsum_load_of_the_unmasked_formulas_bitwise(sol, level):
    # support masks, blocks and the per-coordinate point mapping move no bit
    m = msh.mesh_at_level(level)
    refine_near = (np.array([[sol.x_left, 0.0], [sol.x_right, 0.0]]), 2.0 * m.max_edge_length())
    load = assembly.assemble_load(m, sol.rhs, refine_near=refine_near, split_x=sol.load_split_x)
    oracle = assemble_load_einsum(m, ExactOracle(sol).rhs, refine_near=refine_near, split_x=sol.load_split_x)
    assert np.array_equal(load, oracle)


def _split_one_cell_at_a_time(coords, lines):
    """The interface of ``assembly._split_by_lines`` over the per-cell oracle."""
    pieces, owner = [], []
    for k, tri in enumerate(coords):
        cut = split_by_lines(tri, lines)
        pieces += cut
        owner += [k] * len(cut)
    return np.asarray(pieces).reshape(-1, 3, 2), np.asarray(owner, dtype=np.int64)


@pytest.mark.parametrize("level", [2, 3, 4, 5, 6, 7, 8])
def test_array_clipping_gives_the_per_cell_load_bitwise(sol, level, monkeypatch):
    # the study's reference errors leave little headroom: the load must not move at all
    m = msh.mesh_at_level(level)
    refine_near = (np.array([[sol.x_left, 0.0], [sol.x_right, 0.0]]), 2.0 * m.max_edge_length())
    load = assembly.assemble_load(m, sol.rhs, refine_near=refine_near, split_x=sol.load_split_x)
    monkeypatch.setattr(assembly, "_split_by_lines", _split_one_cell_at_a_time)
    oracle = assembly.assemble_load(m, sol.rhs, refine_near=refine_near, split_x=sol.load_split_x)
    assert np.array_equal(load, oracle)


@pytest.mark.parametrize("seed", range(4))
def test_array_clipping_equals_the_per_cell_oracle_on_drawn_cells(seed):
    # drawn triangles, some with a vertex on a line and one with two equal
    # vertices, cut by up to five lines: same pieces, same order, bitwise
    rng = np.random.default_rng(seed)
    lines = tuple(np.sort(rng.uniform(0.0, 1.0, 5)))
    coords = rng.uniform(0.0, 1.0, (60, 3, 2))
    on_line = rng.random((60, 3)) < 0.2
    coords[..., 0][on_line] = rng.choice(lines, np.count_nonzero(on_line))
    coords[0, 2] = coords[0, 1]
    for count in range(len(lines) + 1):
        pieces, owner = assembly._split_by_lines(coords, lines[:count])
        ref_pieces, ref_owner = _split_one_cell_at_a_time(coords, lines[:count])
        assert np.array_equal(pieces, ref_pieces)
        assert np.array_equal(owner, ref_owner)


def test_load_polynomial_exactness():
    m = msh.mesh_at_level(1)

    def poly(x, y):
        return x**3 - 2.0 * x * y + y**2 + 1.0

    l4 = assembly.assemble_load(m, poly, degree=4)
    l9 = assembly.assemble_load(m, poly, degree=9)
    assert np.allclose(l4, l9, rtol=1e-13)


def test_boundary_lumped_mass_uniform():
    m = msh.mesh_at_level(2)
    tm = msh.trace_map(m)
    d = assembly.boundary_lumped_mass(tm)
    assert d.shape == (7,)
    assert np.allclose(d, WIDTH / 8.0, rtol=1e-13)
    assert np.all(d > 0.0)


def test_boundary_lumped_mass_total():
    m = msh.mesh_at_level(3)
    tm = msh.trace_map(m)
    d = assembly.boundary_lumped_mass(tm)
    h = tm.spacings()
    corners = 0.5 * h[0] + 0.5 * h[-1]
    assert np.isclose(d.sum() + corners, WIDTH, rtol=1e-13)


def test_dst1_diagonalizes_the_second_difference():
    for n in (1, 2, 7, 64):
        t = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        spectrum = assembly._dst1(assembly._dst1(t, 0), 1)
        lam = assembly.second_difference_eigenvalues(n)
        assert np.allclose(spectrum, np.diag(lam), rtol=0, atol=1e-13)
        assert np.all(np.diff(lam) > 0) and 0.0 < lam[0] and lam[-1] < 4.0


@pytest.fixture(scope="module", params=range(2, 9))
def grid(request):
    m = msh.mesh_at_level(request.param)
    return assembly.GridPoisson(m, assembly.assemble_stiffness(m))


def test_grid_solves_equal_the_allocating_solve_bitwise(grid):
    rng = np.random.default_rng(grid.interior.shape[0])
    r1, r2 = rng.standard_normal((2, grid.interior.shape[0]))
    assert np.array_equal(grid.solve(r1), grid_solve_allocating(grid, r1))
    # two solves in a row through one work set: a transform that wrote an
    # odd extension's zero entries would leave the second one off
    work = grid.work_set()
    first = grid.solve(r1, work).copy()
    second = grid.solve(r2, work)
    assert np.array_equal(first, grid_solve_allocating(grid, r1))
    assert np.array_equal(second, grid_solve_allocating(grid, r2))
    for ext, _ in work[:2]:
        n = (ext.shape[-1] - 2) // 2
        assert not ext[:, 0].any() and not ext[:, n + 1].any()


def test_fill_and_flux_equal_the_allocating_fill_bitwise(grid):
    rng = np.random.default_rng(grid.interior.shape[0])
    w, load = rng.standard_normal((2, grid.stiffness.shape[0]))
    n = grid.trace_dofs.shape[0]
    for free in (None, rng.random(n) < 0.5, np.ones(n, dtype=bool)):
        assert np.array_equal(grid.fill(w, load, free=free), grid_fill_allocating(grid, w, load, free=free))
    filled = grid_fill_allocating(grid, w, load)
    assert np.array_equal(grid.flux(w, load), (load - grid.stiffness @ filled)[grid.trace_dofs])


def test_dst1_in_work_arrays_equals_the_allocating_dst1_bitwise(grid):
    # from level 6 on, a transform spans more than one block of lines, the
    # last one partial
    x = np.random.default_rng(7).standard_normal(grid._eig.shape)
    for axis in (0, 1):
        expected = dst1_allocating(x, axis)
        work = assembly._dst1_work(x.shape[1 - axis], x.shape[axis])
        assert np.array_equal(assembly._dst1(x, axis), expected)
        assert np.array_equal(assembly._dst1(x, axis, work), expected)
        in_place = x.copy()
        assembly._dst1(in_place, axis, work, out=in_place)
        assert np.array_equal(in_place, expected)
        assert np.array_equal(assembly._dst1(2.0 * x, axis, work), dst1_allocating(2.0 * x, axis))
    line = x[0]
    assert np.array_equal(assembly._dst1(line, 0), dst1_allocating(line, 0))


def test_line_grams_single_element():
    h = 0.35
    mass, stiff = line_grams(np.array([0.0, h]))
    assert np.allclose(mass.toarray(), h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]]), rtol=1e-14)
    assert np.allclose(stiff.toarray(), np.array([[1.0, -1.0], [-1.0, 1.0]]) / h, rtol=1e-14)


def test_trace_grams_constant_and_spd():
    m = msh.mesh_at_level(2)
    tm = msh.trace_map(m)
    mass, stiff = line_grams(tm.x)
    h1 = (mass + stiff).tocsr()
    ones = np.ones(tm.x.shape[0])
    assert np.allclose(h1 @ ones, mass @ ones, rtol=1e-13)
    np.linalg.cholesky(h1.toarray())


def test_patch_test_affine_reproduction():
    # pure Dirichlet problem with affine data and zero load is reproduced
    import scipy.sparse.linalg as spla

    m = msh.mesh_at_level(3)
    A = assembly.assemble_stiffness(m)
    affine = 0.75 * m.vertices[:, 0] - 1.25 * m.vertices[:, 1] + 0.5
    boundary = np.unique(np.concatenate(boundary_edges(3)))
    free = np.ones(m.num_vertices, bool)
    free[boundary] = False
    fi = np.flatnonzero(free)
    u = affine.copy()
    u[fi] = spla.spsolve(A[np.ix_(fi, fi)].tocsc(), -A[np.ix_(fi, boundary)] @ affine[boundary])
    assert np.abs(u - affine).max() < 1e-12


def test_build_system_partitions(sol):
    m = msh.mesh_at_level(2)
    tm = msh.trace_map(m)
    system = assembly.build_system(m, tm, sol)
    assert system.trace_dofs.shape == (7,)
    n_boundary = len(np.unique(np.concatenate(boundary_edges(2))))
    assert system.dirichlet_idx.shape[0] == n_boundary - 7
    assert not np.any(system.free_mask[system.dirichlet_idx])
    assert np.all(system.free_mask[system.trace_dofs])
    assert set(system.grid.interior).isdisjoint(set(system.trace_dofs))
    # Dirichlet values are the nodal values of the exact solution
    expect = sol.u(m.vertices[system.dirichlet_idx, 0], m.vertices[system.dirichlet_idx, 1])
    assert np.allclose(system.dirichlet_values, expect, rtol=0, atol=0)


def test_lift_is_the_dirichlet_values_and_zero_elsewhere(sol):
    m = msh.mesh_at_level(3)
    system = assembly.build_system(m, msh.trace_map(m), sol)
    lift = system.lift()
    assert np.array_equal(lift[system.dirichlet_idx], system.dirichlet_values)
    assert not lift[system.free_mask].any()
    # a new vector per call: a solve may write into it
    lift[:] = 1.0
    assert not system.lift()[system.free_mask].any()
