import math

import numpy as np
import pytest

from signorini_fem import ExactSolution, assembly, norms, mesh as msh
from signorini_fem.mesh import WIDTH

from oracles import (
    ExactOracle,
    assemble_load_einsum,
    assemble_stiffness_coo,
    boundary_edges,
    box_partition,
    doubled,
    dst1_allocating,
    grid_fill_allocating,
    grid_solve_allocating,
    holed,
    line_grams,
    split_by_lines,
    square_patch,
    traced_peak_mib,
    tri_quadrature,
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


def assert_same_csr(got, expected):
    """The same CSR arrays, dtypes included, and the same bits in data."""
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert np.array_equal(got.data.view(np.uint64), expected.data.view(np.uint64))


@pytest.mark.parametrize("level", range(1, 10))
def test_stiffness_equals_the_coo_assembly_bitwise(level):
    # from level 8 on, the rows come in more than one block
    m = msh.mesh_at_level(level)
    assert_same_csr(assembly.assemble_stiffness(m), assemble_stiffness_coo(m))


def test_stiffness_of_hand_built_meshes_equals_the_coo_assembly_bitwise():
    m = msh.mesh_at_level(3)
    _, _, interior = box_partition(m)
    meshes = [
        unit_right_triangle()[0],
        square_patch()[0],
        holed(m, interior[0]),
        holed(m, interior[interior.shape[0] // 2]),
        doubled(m, interior[0]),  # a last row without entries
        doubled(m, interior[-1]),
    ]
    for mesh in meshes:
        assert_same_csr(assembly.assemble_stiffness(mesh), assemble_stiffness_coo(mesh))


@pytest.mark.parametrize("rows", [1, 7, 100])
def test_stiffness_in_small_blocks_equals_the_coo_assembly_bitwise(monkeypatch, rows):
    # 81 vertices at level 3: one row a block, a partial last block, one block
    monkeypatch.setattr(assembly, "TRIANGLE_CHUNK", rows)
    for level in (2, 3):
        m = msh.mesh_at_level(level)
        assert_same_csr(assembly.assemble_stiffness(m), assemble_stiffness_coo(m))


@pytest.fixture(scope="module")
def level8():
    """The level-8 mesh with its raster and size, which every level computes
    before it assembles, and its interpolant of the exact solution."""
    m = msh.mesh_at_level(8)
    msh.vertex_raster(m)
    m.max_edge_length()
    sol = ExactSolution()
    x, y = m.vertices.T
    return m, sol, sol.u(x, y) + 1e-3 * np.sin(7.0 * x) * y


def test_stiffness_build_allocates_at_most_64_mib_at_level_8(level8):
    # 124 MiB through the global COO; the CSR itself is 11 MiB
    m, _, _ = level8
    _, peak = traced_peak_mib(assembly.assemble_stiffness, m)
    assert peak <= 64.0


def test_grid_solver_allocates_at_most_32_mib_at_level_8(level8):
    # 53 MiB with the stencil check in one piece
    m, _, _ = level8
    stiffness = assembly.assemble_stiffness(m)
    _, peak = traced_peak_mib(assembly.GridPoisson, m, stiffness)
    assert peak <= 32.0


def test_volume_errors_allocate_at_most_50_mib_at_level_8(level8):
    # 62 MiB with every triangle's coordinates and affine data at once
    m, sol, nodal = level8
    _, peak = traced_peak_mib(norms.volume_errors, m, nodal, sol)
    assert peak <= 50.0


def test_dirichlet_reduced_stiffness_is_spd():
    m = msh.mesh_at_level(2)
    A = assembly.assemble_stiffness(m)
    free = assembly.GridPoisson(m, A).free_mask
    red = A[np.ix_(free, free)].toarray()
    np.linalg.cholesky(red)  # raises if not SPD


def test_quadrature_rules_exact_on_monomials():
    # reference-triangle integral of l1^i l2^j l3^k is i! j! k! / (i+j+k+2)! * 2A:
    # the package's rule and the oracle's conical product of degree 7
    for degree, (bary, w) in ((assembly.TRI_DEGREE, assembly.tri_quadrature()), (7, tri_quadrature(7))):
        assert np.isclose(w.sum(), 1.0, rtol=1e-14)
        for (i, j, k) in [(1, 0, 0), (2, 1, 0), (2, 2, 0), (1, 1, 2), (4, 0, 0), (2, 1, 1), (3, 2, 2), (7, 0, 0), (5, 1, 1)]:
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
    l4 = assembly.assemble_load(m, sol.rhs, split_x=sol.load_split_x)
    l7 = assemble_load_einsum(m, sol.rhs, 7, split_x=sol.load_split_x)
    assert np.abs(l4 - l7).max() <= 1e-3 * np.abs(l7).max()


def test_load_split_lines_matter(sol):
    # the volume load jumps across the cut-off lines; splitting the cells
    # reproduces a high-degree reference, the plain rule does not
    m = msh.mesh_at_level(4)
    ref = assemble_load_einsum(m, sol.rhs, 16, split_x=sol.load_split_x)
    split = assembly.assemble_load(m, sol.rhs, split_x=sol.load_split_x)
    plain = assembly.assemble_load(m, sol.rhs)
    assert np.abs(split - ref).max() < 1e-6
    assert np.abs(plain - ref).max() > 1e-4


def _load_oracle(m, f, degree, refine_near, split_x):
    """Per-triangle load assembly: cut, quadrisect and scatter one cell at a time."""
    bary, w = tri_quadrature(degree)
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


@pytest.mark.parametrize(
    "level, cells, chunk",
    [pytest.param(level, "both", None, id=str(level)) for level in range(2, 8)]
    + [
        pytest.param(level, cells, None, id=f"{level}-{cells}")
        for cells in ("near", "crossed", "uncrossed")
        for level in range(2, 8)
    ]
    + [
        pytest.param(level, cells, chunk, id=f"{level}-{cells}-chunk{chunk}")
        for chunk in (7, 1000)
        for cells in ("both", "near", "crossed", "uncrossed")
        for level in range(3, 7)
    ],
)
def test_load_equals_the_einsum_load_of_the_unmasked_formulas_bitwise(sol, level, cells, chunk, monkeypatch):
    # support masks, blocks and the per-coordinate point mapping move no bit;
    # the oracle sends near cells and crossed cells down separate paths, so
    # the one clipping pass is checked against them with only near cells,
    # only crossed ones, and lines that cross no cell.  Levels up to 7 are
    # one chunk of cells; the small chunks walk the masks, the regular cells
    # and the special pieces across many, while the oracle keeps its own
    # one-chunk batches
    if chunk is not None:
        monkeypatch.setattr(assembly, "TRIANGLE_CHUNK", chunk)
    m = msh.mesh_at_level(level)
    refine_near = (np.array([[sol.x_left, 0.0], [sol.x_right, 0.0]]), 2.0 * m.max_edge_length())
    split_x = sol.load_split_x
    if cells == "near":
        split_x = ()
    elif cells == "crossed":
        refine_near = None
    elif cells == "uncrossed":
        split_x = (-0.25, 0.0, msh.WIDTH + 0.25)
    load = assembly.assemble_load(m, sol.rhs, refine_near=refine_near, split_x=split_x)
    oracle = assemble_load_einsum(m, ExactOracle(sol).rhs, refine_near=refine_near, split_x=split_x)
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

    l4 = assembly.assemble_load(m, poly)
    l9 = assemble_load_einsum(m, poly, 9)
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
        filled, r = grid.fill(w, load, free=free)
        assert np.array_equal(filled, grid_fill_allocating(grid, w, load, free=free))
        # the residual the fill certified, over all vertices
        assert np.array_equal(r, load - grid.stiffness @ filled)


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


@pytest.mark.parametrize("case", [*range(1, 7), "square_patch"])
def test_grid_partition_is_the_bounding_box_partition(case):
    # the raster's slices against the coordinates; the trace and interior
    # rows tile the free vertices
    m = msh.mesh_at_level(case) if isinstance(case, int) else square_patch()[0]
    grid = assembly.GridPoisson(m, assembly.assemble_stiffness(m))
    dirichlet_idx, free_mask, interior = box_partition(m)
    assert grid.dirichlet_idx.dtype == dirichlet_idx.dtype
    assert np.array_equal(grid.dirichlet_idx, dirichlet_idx)
    assert grid.free_mask.dtype == bool and np.array_equal(grid.free_mask, free_mask)
    assert np.array_equal(np.sort(grid.interior), interior)
    assert np.array_equal(np.sort(np.concatenate([grid.trace_dofs, grid.interior])), np.flatnonzero(free_mask))


def test_fill_keeps_the_dirichlet_values_and_sets_the_trace(sol):
    m = msh.mesh_at_level(3)
    system = assembly.build_system(m, msh.trace_map(m), sol)
    z = np.linspace(-1.0, 1.0, system.trace_dofs.shape[0])
    w, r = system.fill(z)
    assert np.array_equal(w[system.dirichlet_idx], system.dirichlet_values)
    assert np.array_equal(w[system.trace_dofs], z)
    assert np.array_equal(r, system.load - system.stiffness @ w)
    # the free trace DOFs are solved for, so z is not read there
    free = np.arange(z.shape[0]) % 2 == 0
    w_free, _ = system.fill(np.where(free, 5.0, z), free=free)
    assert np.array_equal(w_free, system.fill(np.where(free, 0.0, z), free=free)[0])
    assert np.array_equal(w_free[system.trace_dofs[~free]], z[~free])
