import math

import numpy as np
import pytest

from signorini_fem import ExactSolution, build_system, trace_map
from signorini_fem import assembly, norms
from signorini_fem import mesh as msh

from oracles import (
    boundary_edges,
    boundary_sets,
    grid_positions,
    refine_loop,
    square_patch,
    unit_right_triangle,
)


def shoelace(vertices, triangles):
    p = vertices[triangles]
    return 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )


def test_initial_mesh_counts():
    m = msh.build_initial()
    assert m.num_vertices == 15
    assert m.num_triangles == 16
    # 4 x 2 quads: 4 contact edges on the bottom, 12 boundary edges in total
    gamma_s, gamma_d = boundary_edges(1)
    assert len(gamma_s) == 4
    assert len(gamma_s) + len(gamma_d) == 12


def test_domain_width():
    m = msh.build_initial()
    assert msh.WIDTH == 1.4 + math.e / 2.7
    assert m.vertices[:, 0].max() == msh.WIDTH
    assert m.vertices[:, 1].max() == 0.5


def test_initial_areas_equal_and_sum():
    m = msh.build_initial()
    areas = shoelace(m.vertices, m.triangles)
    assert np.all(areas > 0)
    assert np.allclose(areas, areas[0], rtol=1e-13)
    assert np.isclose(areas.sum(), 0.5 * msh.WIDTH, rtol=1e-13)


def test_refine_counts():
    m2 = msh.refine(msh.build_initial())
    assert m2.num_vertices == 45
    assert m2.num_triangles == 64
    assert m2.level == 2


def test_refine_equals_the_per_triangle_loop():
    # the same arrays, dtypes included, as the loop that numbers midpoints
    # by first encounter: from level 1 to level 8, and three times from each
    # hand-built mesh, the unit triangle's with an empty raster corner
    for m, times in ((msh.build_initial(), 7), (square_patch()[0], 3), (unit_right_triangle()[0], 3)):
        for _ in range(times):
            fine, (ref, _) = msh.refine(m), refine_loop(m)
            assert fine.level == ref.level
            for name in ("vertices", "triangles"):
                got, want = getattr(fine, name), getattr(ref, name)
                assert got.dtype == want.dtype, name
                assert np.array_equal(got, want), name
            m = fine


def test_a_mesh_off_its_grid_is_refused():
    # level 3 without its sixth Gamma_S vertex and the triangles at it: read
    # as a grid one column short, 134 vertices would land on wrong positions
    m = msh.mesh_at_level(3)
    missing = msh.trace_map(m).vertices[5]
    tris = m.triangles[~np.any(m.triangles == missing, axis=1)]
    holed = msh.TriMesh(3, np.delete(m.vertices, missing, axis=0), tris - (tris > missing))
    def grid(mesh):
        return assembly.GridPoisson(mesh, assembly.assemble_stiffness(mesh))

    for reads_the_raster in (msh.trace_map, grid, msh.refine):
        with pytest.raises(ValueError, match="134 vertices lie up to 0.5 spacings off the grid"):
            reads_the_raster(holed)


def test_refine_refuses_two_vertices_on_one_position():
    # a copy of a vertex a hair off it takes its raster position
    m = msh.mesh_at_level(3)
    doubled = msh.TriMesh(3, np.vstack([m.vertices, m.vertices[20] + 1e-9]), m.triangles)
    with pytest.raises(ValueError, match="1 vertices share a grid position with another vertex"):
        msh.refine(doubled)


def test_vertex_counts_formula():
    m = msh.build_initial()
    for _ in range(3):
        k = m.level
        nx = 4 * 2 ** (k - 1)
        ny = 2 * 2 ** (k - 1)
        assert m.num_vertices == (nx + 1) * (ny + 1)
        assert m.num_triangles == 2 * nx * ny
        m = msh.refine(m)


def test_refinement_nests_vertices():
    m = msh.build_initial()
    m2 = msh.refine(m)
    assert np.array_equal(m2.vertices[: m.num_vertices], m.vertices)


def test_positive_areas_after_refinement():
    m = msh.mesh_at_level(3)
    assert np.all(shoelace(m.vertices, m.triangles) > 0)


@pytest.mark.parametrize("case", [*range(1, 7), "unit_right_triangle", "square_patch"])
def test_coordinate_boundary_is_the_topological_boundary(case):
    # the split read from coordinates against edge lists built by hand and
    # split once per refinement
    if isinstance(case, int):
        m = msh.mesh_at_level(case)
        gamma_s, gamma_d = boundary_edges(case)
        # the Gamma_S edges halve with every level
        lengths = np.abs(np.diff(m.vertices[gamma_s, 0], axis=1))
        assert np.allclose(lengths, msh.WIDTH / (4 * 2 ** (case - 1)), rtol=1e-13, atol=0.0)
    else:
        m, gamma_s, gamma_d = {"unit_right_triangle": unit_right_triangle, "square_patch": square_patch}[case]()
    trace_vertices, trace_pairs, multipliers, dirichlet_idx = boundary_sets(gamma_s, gamma_d)
    tm = msh.trace_map(m)
    # the trace runs along the Gamma_S edges, one edge between neighbours
    assert np.array_equal(np.sort(tm.vertices), trace_vertices)
    assert {frozenset(p) for p in zip(tm.vertices[:-1].tolist(), tm.vertices[1:].tolist())} == trace_pairs
    assert np.array_equal(np.sort(tm.multiplier_vertices), multipliers)
    if case == "unit_right_triangle":  # its raster has an empty corner: no grid, no partition
        with pytest.raises(assembly.SolverError, match="do not fill a uniform grid"):
            assembly.GridPoisson(m, assembly.assemble_stiffness(m))
        return
    got = assembly.GridPoisson(m, assembly.assemble_stiffness(m)).dirichlet_idx
    assert got.dtype.kind == "i"
    assert np.array_equal(got, dirichlet_idx)


def test_mesh_size_exact_halving():
    m = msh.build_initial()
    h = [m.max_edge_length()]
    for _ in range(4):
        m = msh.refine(m)
        h.append(m.max_edge_length())
    for k in range(1, len(h)):
        # halving is exact up to one ulp (irrational width prevents exact
        # float equality of the constructed coordinates)
        assert np.isclose(2.0 * h[k], h[k - 1], rtol=1e-14, atol=0.0)
        assert np.isclose(h[k], h[0] / 2**k, rtol=1e-13, atol=0.0)


def test_trace_map_counts_and_order():
    # one refinement of the initial mesh has 9 contact vertices, 7 interior
    m2 = msh.refine(msh.build_initial())
    tm = msh.trace_map(m2)
    assert tm.vertices.shape[0] == 9
    assert tm.num_multipliers == 7
    assert np.all(np.diff(tm.x) > 0)

    m3 = msh.refine(m2)
    tm3 = msh.trace_map(m3)
    assert tm3.vertices.shape[0] == 17
    assert tm3.num_multipliers == 15


def test_trace_map_endpoints():
    for level in (1, 2, 3):
        tm = msh.trace_map(msh.mesh_at_level(level))
        assert tm.x[0] == 0.0
        assert tm.x[-1] == msh.WIDTH
        # the multiplier DOFs are every Gamma_S vertex but the two ends
        assert tm.num_multipliers == tm.vertices.shape[0] - 2
        assert np.array_equal(tm.multiplier_vertices, tm.vertices[1:-1])
        assert 0.0 < tm.multiplier_x.min() and tm.multiplier_x.max() < msh.WIDTH


def test_trace_grid_is_the_trace_map_grid():
    # the H^-1 norms' reference grid, built without a mesh
    for level in range(1, 9):
        grid = msh.trace_grid(level)
        assert grid[0] == 0.0 and grid[-1] == msh.WIDTH
        x = msh.trace_map(msh.mesh_at_level(level)).x
        assert grid.shape == x.shape
        assert np.abs(grid - x).max() <= 1e-15


def test_initial_trace_counts():
    tm = msh.trace_map(msh.build_initial())
    assert tm.vertices.shape[0] == 5
    assert tm.num_multipliers == 3


def test_mesh_at_level_validates():
    with pytest.raises(ValueError):
        msh.mesh_at_level(0)


def test_point_triangle_distances():
    m = msh.build_initial()
    tri = m.vertices[m.triangles]
    d = msh.point_triangle_distances(np.array([0.0, 0.0]), tri)
    assert d.min() == 0.0
    inside = msh.point_triangle_distances(np.array([0.1, 0.1]), tri)
    assert inside.min() == 0.0
    far = msh.point_triangle_distances(np.array([-1.0, -1.0]), tri)
    assert far.min() > 1.0


@pytest.mark.parametrize("level", range(1, 10))
def test_grid_index_is_the_level_formula(level):
    # the grid index, the vertex raster, read from the mesh alone equals the
    # one a level's grid sizes give
    m = msh.mesh_at_level(level)
    raster = msh.vertex_raster(m)
    ix, iy, nx, ny = grid_positions(raster)
    assert (nx, ny) == (4 * 2 ** (level - 1), 2 * 2 ** (level - 1))
    assert type(nx) is int and type(ny) is int
    assert raster.dtype == np.int64
    assert np.array_equal(ix, np.rint(m.vertices[:, 0] * (nx / msh.WIDTH)).astype(np.int64))
    assert np.array_equal(iy, np.rint(m.vertices[:, 1] * (ny / msh.HEIGHT)).astype(np.int64))
    # every grid position holds one vertex
    assert np.array_equal(np.sort(raster, axis=None), np.arange((nx + 1) * (ny + 1)))


def test_grid_index_of_the_hand_built_meshes():
    m, _, _ = square_patch()
    ix, iy, nx, ny = grid_positions(msh.vertex_raster(m))
    assert (nx, ny) == (2, 2)
    assert np.array_equal(ix, [0, 1, 2] * 3)
    assert np.array_equal(iy, np.repeat([0, 1, 2], 3))
    assert np.array_equal(msh.vertex_raster(m), np.arange(9).reshape(3, 3))
    # one triangle: its legs are one cell, its top vertex the upper-left
    # corner, and the upper-right corner is empty
    m, _, _ = unit_right_triangle()
    ix, iy, nx, ny = grid_positions(msh.vertex_raster(m))
    assert (nx, ny) == (1, 1)
    assert np.array_equal(ix, [0, 1, 0])
    assert np.array_equal(iy, [0, 0, 1])
    assert np.array_equal(msh.vertex_raster(m), [[0, 1], [2, -1]])


def test_build_initial_is_the_per_quad_loop():
    m = msh.build_initial()
    nx, ny = 4, 2
    triangles = []
    for iy in range(ny):
        for ix in range(nx):
            ll, ul = iy * (nx + 1) + ix, (iy + 1) * (nx + 1) + ix
            triangles += [(ll, ll + 1, ul + 1), (ll, ul + 1, ul)]
    assert m.triangles.dtype == np.int64
    assert np.array_equal(m.triangles, triangles)
    assert np.array_equal(msh.vertex_raster(m), np.arange(m.num_vertices).reshape(ny + 1, nx + 1))


def _full_scan(tri, points, radius):
    radius = np.broadcast_to(radius, tri.shape[:1])
    near = np.zeros(tri.shape[0], dtype=bool)
    for pt in np.atleast_2d(points):
        near |= msh.point_triangle_distances(pt, tri) <= radius
    return near


@pytest.mark.parametrize("level", [2, 3, 4, 5, 6, 7])
def test_cells_near_selects_what_a_full_scan_selects(level, monkeypatch):
    # every mask the load and the volume norms select, graded depths included
    sol = ExactSolution()
    m = msh.mesh_at_level(level)
    calls = []

    def recording(tri, points, radius):
        mask = msh.cells_near(tri, points, radius)
        calls.append((tri, points, radius, mask))
        return mask

    monkeypatch.setattr(assembly, "cells_near", recording)
    monkeypatch.setattr(norms, "cells_near", recording)
    build_system(m, trace_map(m), sol)
    assert len(calls) == 1
    norms.volume_errors(m, sol.u(m.vertices[:, 0], m.vertices[:, 1]), sol)
    assert len(calls) > 2
    for tri, points, radius, mask in calls:
        assert mask.any()
        assert np.array_equal(mask, _full_scan(tri, points, radius))
