import math

import numpy as np
import pytest

from signorini_fem import ExactSolution, build_system, trace_map
from signorini_fem import assembly, norms
from signorini_fem import mesh as msh

from oracles import refine_loop


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
    assert len(m.signorini_edges()) == 4
    assert len(m.boundary_edges) == 12


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
    # by first encounter, from level 1 to level 8
    m = msh.build_initial()
    for _ in range(7):
        fine, ref = msh.refine(m), refine_loop(m)
        assert fine.level == ref.level
        for name in ("vertices", "triangles", "boundary_edges", "boundary_tags", "parent_pairs"):
            got, want = getattr(fine, name), getattr(ref, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        m = fine


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


def test_signorini_edges_tile_bottom_and_halve():
    m = msh.build_initial()
    for _ in range(3):
        edges = m.signorini_edges()
        coords = m.vertices[edges]
        assert np.all(coords[..., 1] == 0.0)
        lengths = np.abs(coords[:, 1, 0] - coords[:, 0, 0])
        xs = np.sort(coords[..., 0].ravel())
        assert xs[0] == 0.0 and xs[-1] == msh.WIDTH
        # edges tile the bottom without gaps
        left = np.sort(coords[..., 0].min(axis=1))
        right = np.sort(coords[..., 0].max(axis=1))
        assert np.allclose(left[1:], right[:-1], rtol=0, atol=1e-15)
        m2 = msh.refine(m)
        l2 = np.abs(
            m2.vertices[m2.signorini_edges()][:, 1, 0]
            - m2.vertices[m2.signorini_edges()][:, 0, 0]
        )
        assert np.isclose(2.0 * l2.max(), lengths.max(), rtol=1e-14)
        assert np.isclose(2.0 * l2.min(), lengths.min(), rtol=1e-14)
        m = m2


def test_boundary_tags_inherited():
    m = msh.build_initial()
    m2 = msh.refine(m)
    assert len(m2.signorini_edges()) == 2 * len(m.signorini_edges())
    assert len(m2.dirichlet_edges()) == 2 * len(m.dirichlet_edges())
    # every child edge lies inside its parent's span (bottom edges)
    child = m2.vertices[m2.signorini_edges()]
    assert np.all(child[..., 1] == 0.0)


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
        assert not tm.interior[0] and not tm.interior[-1]
        assert np.all(tm.interior[1:-1])


def test_initial_trace_counts():
    tm = msh.trace_map(msh.build_initial())
    assert tm.vertices.shape[0] == 5
    assert tm.num_multipliers == 3


def test_prolong_restrict_roundtrip():
    rng = np.random.default_rng(7)
    m = msh.mesh_at_level(2)
    m2 = msh.refine(m)
    vals = rng.standard_normal(m.num_vertices)
    fine = msh.prolong(m2, vals)
    assert np.array_equal(fine[: m.num_vertices], vals)
    # midpoints average their parents
    pairs = m2.parent_pairs[m.num_vertices :]
    assert np.allclose(
        fine[m.num_vertices :], 0.5 * (vals[pairs[:, 0]] + vals[pairs[:, 1]]), rtol=0, atol=0
    )


def test_prolong_preserves_p1_functions():
    m = msh.mesh_at_level(2)
    m2 = msh.refine(m)
    affine = 2.0 * m.vertices[:, 0] - 0.3 * m.vertices[:, 1] + 1.0
    fine = msh.prolong(m2, affine)
    expect = 2.0 * m2.vertices[:, 0] - 0.3 * m2.vertices[:, 1] + 1.0
    assert np.allclose(fine, expect, rtol=1e-14)


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


def test_elimination_order_is_a_nested_dissection_permutation():
    m = msh.build_initial()
    assert np.array_equal(msh.elimination_order(m), np.arange(m.num_vertices))  # one leaf
    for level in range(2, 9):
        m = msh.refine(m)
        order = msh.elimination_order(m)
        assert order.dtype.kind == "i"
        assert np.array_equal(np.sort(order), np.arange(m.num_vertices))
        # the first separator is the middle grid column, listed last, after
        # every vertex left of it and before that every vertex right of it
        x = m.vertices[order, 0]
        ny = 2 ** level
        assert np.all(x[-(ny + 1) :] == 0.5 * msh.WIDTH)
        rest = x[: -(ny + 1)]
        assert np.flatnonzero(rest < 0.5 * msh.WIDTH).max() < np.flatnonzero(rest > 0.5 * msh.WIDTH).min()


def test_elimination_order_is_computed_once_per_mesh_and_read_only(monkeypatch):
    calls = []
    dissect = msh._nested_dissection

    def counted(mesh):
        calls.append(mesh)
        return dissect(mesh)

    monkeypatch.setattr(msh, "_nested_dissection", counted)
    m = msh.mesh_at_level(4)
    first = msh.elimination_order(m)
    assert msh.elimination_order(m) is first
    assert len(calls) == 1
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = first[1]
    # another mesh of the same level has its own order
    msh.elimination_order(msh.mesh_at_level(4))
    assert len(calls) == 2


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
