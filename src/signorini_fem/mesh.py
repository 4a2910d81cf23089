"""Structured triangulations of the benchmark rectangle.

The domain is Omega = (0, WIDTH) x (0, HEIGHT) with WIDTH = 1.4 + e/2.7 and
HEIGHT = 0.5.  The contact boundary Gamma_S is the bottom edge y = 0; the
other three sides form the Dirichlet boundary Gamma_D.  A mesh carries no
boundary lists: ``trace_map`` (row 0) and ``assembly.dof_partition`` (the
first and last columns and the last row are Dirichlet) slice the split from
``vertex_raster``.  All Gamma_S vertices but the two ends are multiplier
DOFs; ``trace_grid`` gives a level's Gamma_S x.

Level 1 is a 4 x 2 grid of congruent quadrilaterals, each split into two
triangles along the diagonal from the lower-left to the upper-right corner
(fixed convention, no criss-cross).  Refinement is uniform: ``refine``
quadrisects every triangle through its edge midpoints, found on the vertex
raster, so it takes any mesh that ``vertex_raster`` accepts.  Level k holds
a (4*2^(k-1)) x (2*2^(k-1)) grid of quads and the meshes are nested.

Meshes are immutable after construction and safe to share between threads;
the three values a mesh computes lazily, its size, its vertex raster and its
elimination order, depend on nothing else, so two threads that race to
compute one store equal values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

WIDTH = 1.4 + math.e / 2.7
HEIGHT = 0.5

_NX0 = 4
_NY0 = 2

# largest box of grid vertices that nested dissection leaves unsplit
_ND_LEAF = 16


@dataclass(frozen=True)
class TriMesh:
    """Conforming triangulation; its boundary is read from the coordinates.

    Attributes
    ----------
    level : int
        Refinement level, starting at 1 for the initial mesh.
    vertices : (n, 2) float array
        Vertex coordinates.
    triangles : (t, 3) int array
        Vertex indices per triangle, counterclockwise.
    """

    level: int
    vertices: np.ndarray
    triangles: np.ndarray

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    def max_edge_length(self) -> float:
        """Mesh size h: the maximal edge length over all triangles."""
        return self._max_edge_length

    # cached_property writes the instance dict, which a frozen dataclass allows
    @functools.cached_property
    def _max_edge_length(self) -> float:
        p = self.vertices[self.triangles]
        h = 0.0
        for i, j in ((0, 1), (1, 2), (2, 0)):
            d = p[:, i] - p[:, j]
            h = max(h, float(np.sqrt(np.max(d[:, 0] ** 2 + d[:, 1] ** 2))))
        return h

    @functools.cached_property
    def _raster(self) -> np.ndarray:
        raster = _build_raster(self.vertices)
        raster.flags.writeable = False
        return raster

    @functools.cached_property
    def _elimination_order(self) -> np.ndarray:
        order = _nested_dissection(self._raster)
        order.flags.writeable = False
        return order


@dataclass(frozen=True)
class TraceMap:
    """Ordered view of the contact-boundary vertices.

    The multiplier degrees of freedom are exactly the Signorini vertices
    strictly inside Gamma_S, ``vertices[1:-1]``; the two corner vertices lie
    on the closure of Gamma_D and carry Dirichlet data.
    """

    vertices: np.ndarray  # vertex ids on y = 0, ordered by x
    x: np.ndarray  # their x coordinates, strictly increasing

    @property
    def num_multipliers(self) -> int:
        return self.vertices.shape[0] - 2

    @property
    def multiplier_vertices(self) -> np.ndarray:
        return self.vertices[1:-1]

    @property
    def multiplier_x(self) -> np.ndarray:
        return self.x[1:-1]

    def spacings(self) -> np.ndarray:
        return np.diff(self.x)


def signed_areas(tri: np.ndarray) -> np.ndarray:
    """Areas of triangles given as coordinates (t, 3, 2), negative when clockwise."""
    d1 = tri[:, 1] - tri[:, 0]
    d2 = tri[:, 2] - tri[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def build_initial() -> TriMesh:
    """Build the level-1 mesh: 4 x 2 quads split into 16 triangles."""
    nx, ny = _NX0, _NY0
    xg, yg = np.meshgrid(np.arange(nx + 1) * (WIDTH / nx), np.arange(ny + 1) * (HEIGHT / ny))
    vertices = np.column_stack([xg.ravel(), yg.ravel()])
    # vertex ids by grid position, the raster ``vertex_raster`` reads back;
    # each quad, row by row, splits into its lower-right and upper-left triangle
    ids = np.arange(vertices.shape[0]).reshape(ny + 1, nx + 1)
    ll, lr, ul, ur = ids[:-1, :-1], ids[:-1, 1:], ids[1:, :-1], ids[1:, 1:]
    triangles = np.stack([ll, lr, ur, ll, ur, ul], axis=-1).reshape(-1, 3)
    return TriMesh(level=1, vertices=vertices, triangles=triangles)


def refine(mesh: TriMesh) -> TriMesh:
    """Uniformly quadrisect every triangle through its edge midpoints.

    Takes any mesh that ``vertex_raster`` accepts with one vertex per
    position.  Existing vertices keep their indices; midpoints are appended
    by first encounter (triangles in order, local edges (0,1), (1,2), (2,0)).
    """
    n_old = mesh.num_vertices
    tri = mesh.triangles
    raster = vertex_raster(mesh)
    rows, cols = raster.shape
    cells = np.flatnonzero(raster >= 0)
    if cells.shape[0] != n_old:
        raise ValueError(f"{n_old - cells.shape[0]} vertices share a grid position with another vertex")
    # (iy, ix) as a flat index iy (2 cols - 1) + ix: on the raster doubled,
    # an edge's midpoint lies at the sum of its ends' indices
    pos = np.empty(n_old, dtype=np.int64)
    pos[raster.flat[cells]] = cells + cells // cols * (cols - 1)
    nxt = np.roll(tri, -1, axis=1)
    mid = (pos[tri] + pos[nxt]).ravel()
    # each midpoint's first encounter by minimum.at: a fancy assignment's order over repeated indices is undocumented
    edge = np.arange(mid.shape[0])
    first = np.full((2 * rows - 1) * (2 * cols - 1), mid.shape[0], dtype=np.int64)
    np.minimum.at(first, mid, edge)
    first = first[mid]
    new = first == edge
    mab, mbc, mca = (np.cumsum(new) + (n_old - 1))[first].reshape(-1, 3).T
    a, b, c = tri.T
    tris = np.stack([a, mab, mca, b, mbc, mab, c, mca, mbc, mab, mbc, mca], axis=1).reshape(-1, 3)
    vertices = np.vstack([mesh.vertices, 0.5 * (mesh.vertices[tri.ravel()[new]] + mesh.vertices[nxt.ravel()[new]])])
    return TriMesh(level=mesh.level + 1, vertices=vertices, triangles=tris.astype(np.int64, copy=False))


def mesh_at_level(level: int) -> TriMesh:
    """Initial mesh refined up to the requested level (level >= 1)."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    m = build_initial()
    for _ in range(level - 1):
        m = refine(m)
    return m


def trace_map(mesh: TriMesh) -> TraceMap:
    """Collect the Signorini-boundary vertices: raster row 0, by column."""
    row = vertex_raster(mesh)[0]
    ids = row[row >= 0]
    return TraceMap(vertices=ids, x=mesh.vertices[ids, 0])


def trace_grid(level: int) -> np.ndarray:
    """Uniform Gamma_S grid of a level: the x of ``trace_map``'s vertices
    at that level, to rounding, without building the mesh."""
    return np.linspace(0.0, WIDTH, _NX0 * 2 ** (level - 1) + 1)


def vertex_raster(mesh: TriMesh) -> np.ndarray:
    """Vertex ids by grid position, [row, column], -1 where no vertex is;
    computed once per mesh and returned read-only.  The grid spans the
    bounding box, with nx + 1 vertices on its bottom side, row 0 or Gamma_S,
    and ny + 1 on its left side, so the raster has shape (ny + 1, nx + 1);
    a vertex off its grid position raises ValueError."""
    return mesh._raster


def _build_raster(vertices: np.ndarray) -> np.ndarray:
    """The raster of ``vertex_raster``: the only place where coordinates
    become grid positions.  Of two vertices on one position the later stays;
    a vertex more than 1e-6 spacings off its position raises ValueError."""
    # x and y as contiguous rows: reducing the (n, 2) array along n is ~5x slower
    v = np.ascontiguousarray(vertices.T)
    lo = v.min(axis=1, keepdims=True)
    # ny + 1 vertices have the least x, nx + 1 the least y
    ny, nx = (np.count_nonzero(v == lo, axis=1) - 1).tolist()
    t = (v - lo) * ([[nx], [ny]] / (v.max(axis=1, keepdims=True) - lo))
    off = np.abs(t - np.rint(t)).max(axis=0)
    if not off.max() <= 1e-6:  # the meshes of levels 1..9 lie within 1.2e-13
        raise ValueError(f"{np.count_nonzero(off > 1e-6)} vertices lie up to {off.max():.2g} spacings off the grid")
    ix, iy = np.rint(t).astype(np.int64)
    raster = np.full((ny + 1, nx + 1), -1, dtype=np.int64)
    raster[iy, ix] = np.arange(vertices.shape[0])
    return raster


def elimination_order(mesh: TriMesh) -> np.ndarray:
    """Vertex permutation by geometric nested dissection of the grid.

    A box of grid vertices is split across its side with more vertices at
    the middle grid line; the lower half comes first, then the upper half,
    then the separator line.  Boxes of at most _ND_LEAF vertices are not
    split.  The diagonals run from lower left to upper right, so every edge
    joins vertices at most one grid line apart and one line separates.  From
    level 2 on, the first separator is the middle grid column,
    ``vertex_raster(mesh)[:, nx // 2]``.  Listing the unknowns of a sparse
    SPD block (any subset of the vertices) in this order keeps the fill of
    its factorization low (George, SINUM 1973).

    The order is computed once per mesh and returned read-only.
    """
    return mesh._elimination_order


def _nested_dissection(raster: np.ndarray) -> np.ndarray:
    """The order of ``elimination_order``, computed: each box is a slice of
    the raster, and each leaf and each separator lists its vertices by id."""

    def dissect(box):
        wy, wx = box.shape
        if wx * wy <= _ND_LEAF:
            return np.sort(box, axis=None)
        if wx >= wy:
            mid = (wx - 1) // 2
            return np.concatenate([dissect(box[:, :mid]), dissect(box[:, mid + 1 :]), np.sort(box[:, mid])])
        mid = (wy - 1) // 2
        return np.concatenate([dissect(box[:mid]), dissect(box[mid + 1 :]), np.sort(box[mid])])

    order = dissect(raster)
    return order[order >= 0]


def point_triangle_distances(point: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """Distance from a point to the closure of each triangle (0 if inside).

    tri holds the vertex coordinates of counterclockwise triangles, shape
    (t, 3, 2), e.g. mesh.vertices[mesh.triangles].
    """
    p = np.asarray(point, dtype=float)
    d2 = np.full(tri.shape[0], np.inf)
    for i, j in ((0, 1), (1, 2), (2, 0)):
        a = tri[:, i]
        ab = tri[:, j] - a
        denom = np.einsum("ij,ij->i", ab, ab)
        t = np.clip(np.einsum("ij,ij->i", p - a, ab) / denom, 0.0, 1.0)
        closest = a + t[:, None] * ab
        diff = closest - p
        d2 = np.minimum(d2, np.einsum("ij,ij->i", diff, diff))
    dist = np.sqrt(d2)
    # inside test via barycentric signs (triangles are counterclockwise)
    inside = np.ones(tri.shape[0], dtype=bool)
    for i, j in ((0, 1), (1, 2), (2, 0)):
        a = tri[:, i]
        ab = tri[:, j] - a
        cross = ab[:, 0] * (p[1] - a[:, 1]) - ab[:, 1] * (p[0] - a[:, 0])
        inside &= cross >= 0.0
    dist[inside] = 0.0
    return dist


def corner_range(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest of the three corner values c (t, 3) per triangle,
    corner by corner: a min over the short corner axis is ~10x slower."""
    lo = np.minimum(np.minimum(c[:, 0], c[:, 1]), c[:, 2])
    hi = np.maximum(np.maximum(c[:, 0], c[:, 1]), c[:, 2])
    return lo, hi


def cells_near(tri: np.ndarray, points, radius) -> np.ndarray:
    """Mask of the triangles whose closure lies within radius of a point.

    tri holds triangle vertex coordinates, shape (t, 3, 2); radius is a
    scalar or one value per triangle.  For each point, the triangles whose
    bounding box, grown by radius, misses the point are dropped first, and
    ``point_triangle_distances`` decides on the rest, so the mask is that of
    a scan of every triangle.
    """
    radius = np.broadcast_to(np.asarray(radius, dtype=float), tri.shape[:1])
    # a hair wider than radius, so rounding cannot drop a triangle the
    # exact distance keeps
    pad = radius * (1.0 + 1e-9) + 1e-12

    def grown_range(c):
        lo, hi = corner_range(c)
        return lo - pad, hi + pad

    (x_lo, x_hi), (y_lo, y_hi) = grown_range(tri[..., 0]), grown_range(tri[..., 1])
    near = np.zeros(tri.shape[0], dtype=bool)
    for pt in np.atleast_2d(np.asarray(points, dtype=float)):
        px, py = pt
        cand = np.flatnonzero((x_lo <= px) & (px <= x_hi) & (y_lo <= py) & (py <= y_hi))
        near[cand] |= point_triangle_distances(pt, tri[cand]) <= radius[cand]
    return near
