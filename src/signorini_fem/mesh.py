"""Structured triangulations of the benchmark rectangle.

The domain is Omega = (0, WIDTH) x (0, HEIGHT) with WIDTH = 1.4 + e/2.7 and
HEIGHT = 0.5.  The contact boundary Gamma_S is the bottom edge y = 0; the
other three sides form the Dirichlet boundary Gamma_D.  A mesh carries no
boundary lists: the split is decided from vertex coordinates, by
``trace_map`` (the vertices on y = 0) and ``assembly.dof_partition`` (the
vertices on the sides of the bounding box).  All Gamma_S vertices but
the two ends are multiplier DOFs; ``trace_grid`` gives a level's Gamma_S x.

Level 1 is a 4 x 2 grid of congruent quadrilaterals, each split into two
triangles along the diagonal from the lower-left to the upper-right corner
(fixed convention, no criss-cross).  Refinement is uniform: every triangle is
quadrisected through its edge midpoints, so level k holds a
(4*2^(k-1)) x (2*2^(k-1)) grid of quads and the meshes are nested.

Meshes are immutable after construction and safe to share between threads;
the two values a mesh computes lazily, its size and its elimination order,
depend on nothing else, so two threads that race to compute one store equal
values.
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
    def _elimination_order(self) -> np.ndarray:
        order = _nested_dissection(self)
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
    hx = WIDTH / nx
    hy = HEIGHT / ny
    xs = np.arange(nx + 1) * hx
    ys = np.arange(ny + 1) * hy
    xg, yg = np.meshgrid(xs, ys)
    vertices = np.column_stack([xg.ravel(), yg.ravel()])

    def vid(ix, iy):
        return iy * (nx + 1) + ix

    triangles = []
    for iy in range(ny):
        for ix in range(nx):
            ll = vid(ix, iy)
            lr = vid(ix + 1, iy)
            ur = vid(ix + 1, iy + 1)
            ul = vid(ix, iy + 1)
            triangles.append((ll, lr, ur))
            triangles.append((ll, ur, ul))

    return TriMesh(level=1, vertices=vertices, triangles=np.asarray(triangles, dtype=np.int64))


def refine(mesh: TriMesh) -> TriMesh:
    """Uniformly quadrisect every triangle through its edge midpoints.

    Existing vertices keep their indices; midpoint vertices are appended in
    the deterministic order of first encounter (triangles in order, local
    edges (0,1), (1,2), (2,0)).
    """
    n_old = mesh.num_vertices
    tri = mesh.triangles
    # every triangle's local edges (0,1), (1,2), (2,0), in encounter order
    ends = np.stack([tri, np.roll(tri, -1, axis=1)], axis=-1).reshape(-1, 2)
    # one integer per edge, from its sorted vertex pair
    p, q = ends.T
    edge_key = np.minimum(p, q) * (n_old + 1) + np.maximum(p, q)
    keys, first, inverse = np.unique(edge_key, return_index=True, return_inverse=True)
    # rank the unique edges by first encounter
    rank = np.empty(keys.shape[0], dtype=np.int64)
    rank[np.argsort(first)] = np.arange(keys.shape[0])
    mab, mbc, mca = (n_old + rank[inverse.reshape(-1)]).reshape(-1, 3).T
    a, b, c = tri.T
    tris = np.stack(
        [
            np.column_stack([a, mab, mca]),
            np.column_stack([b, mbc, mab]),
            np.column_stack([c, mca, mbc]),
            np.column_stack([mab, mbc, mca]),
        ],
        axis=1,
    ).reshape(-1, 3)

    # the unique edges' end pairs, listed in midpoint order
    pairs = np.empty((keys.shape[0], 2), dtype=np.int64)
    pairs[rank] = ends[first]
    vertices = np.vstack([mesh.vertices, 0.5 * (mesh.vertices[pairs[:, 0]] + mesh.vertices[pairs[:, 1]])])

    return TriMesh(level=mesh.level + 1, vertices=vertices, triangles=tris.astype(np.int64))


def mesh_at_level(level: int) -> TriMesh:
    """Initial mesh refined up to the requested level (level >= 1)."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    m = build_initial()
    for _ in range(level - 1):
        m = refine(m)
    return m


def trace_map(mesh: TriMesh) -> TraceMap:
    """Collect the Signorini-boundary vertices, ordered by x coordinate."""
    on_gamma_s = np.flatnonzero(mesh.vertices[:, 1] == 0.0)
    order = np.argsort(mesh.vertices[on_gamma_s, 0], kind="stable")
    ids = on_gamma_s[order]
    return TraceMap(vertices=ids, x=mesh.vertices[ids, 0])


def trace_grid(level: int) -> np.ndarray:
    """Uniform Gamma_S grid of a level: the x of ``trace_map``'s vertices
    at that level, to rounding, without building the mesh."""
    return np.linspace(0.0, WIDTH, _NX0 * 2 ** (level - 1) + 1)


def grid_index(mesh: TriMesh) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Grid column and row of every vertex, and the grid's quad counts nx, ny."""
    scale = 2 ** (mesh.level - 1)
    nx, ny = _NX0 * scale, _NY0 * scale
    ix = np.rint(mesh.vertices[:, 0] * (nx / WIDTH)).astype(np.int64)
    iy = np.rint(mesh.vertices[:, 1] * (ny / HEIGHT)).astype(np.int64)
    return ix, iy, nx, ny


def elimination_order(mesh: TriMesh) -> np.ndarray:
    """Vertex permutation by geometric nested dissection of the grid.

    A box of grid vertices is split across its side with more vertices at
    the middle grid line; the lower half comes first, then the upper half,
    then the separator line.  Boxes of at most _ND_LEAF vertices are not
    split.  The diagonals run from lower left to upper right, so every edge
    joins vertices at most one grid line apart and one line separates.  From
    level 2 on, the first separator is the middle grid column, ``nx // 2``
    of ``grid_index``.  Listing the unknowns of a sparse SPD block (any subset
    of the vertices) in this order keeps the fill of its factorization low
    (George, SINUM 1973).

    The order is computed once per mesh and returned read-only.
    """
    return mesh._elimination_order


def _nested_dissection(mesh: TriMesh) -> np.ndarray:
    """The order of ``elimination_order``, computed.

    All boxes of one dissection depth are split in one vectorized pass:
    each vertex gathers one base-3 digit per depth (0 lower half, 1 upper
    half, 2 separator, 0 once settled), so a stable sort by these keys
    lists every box in post order and the vertices of one leaf by index.
    """
    ix, iy, nx, ny = grid_index(mesh)
    n = mesh.num_vertices
    # the box each vertex is in: inclusive grid index ranges
    x0 = np.zeros(n, dtype=np.int64)
    x1 = np.full(n, nx, dtype=np.int64)
    y0 = np.zeros(n, dtype=np.int64)
    y1 = np.full(n, ny, dtype=np.int64)
    key = np.zeros(n, dtype=np.int64)
    unsettled = np.ones(n, dtype=bool)
    while unsettled.any():
        wx = x1 - x0 + 1
        wy = y1 - y0 + 1
        unsettled &= wx * wy > _ND_LEAF
        across_x = wx >= wy
        mid = np.where(across_x, (x0 + x1) // 2, (y0 + y1) // 2)
        at = np.where(across_x, ix, iy)
        digit = np.where(unsettled, (at > mid) + 2 * (at == mid), 0)
        key = 3 * key + digit
        lower = unsettled & (digit == 0)
        upper = unsettled & (digit == 1)
        x1 = np.where(lower & across_x, mid - 1, x1)
        x0 = np.where(upper & across_x, mid + 1, x0)
        y1 = np.where(lower & ~across_x, mid - 1, y1)
        y0 = np.where(upper & ~across_x, mid + 1, y0)
        unsettled &= digit != 2
    return np.argsort(key, kind="stable")


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
        # corner by corner: a min over the short corner axis is ~10x slower
        lo = np.minimum(np.minimum(c[:, 0], c[:, 1]), c[:, 2])
        hi = np.maximum(np.maximum(c[:, 0], c[:, 1]), c[:, 2])
        return lo - pad, hi + pad

    (x_lo, x_hi), (y_lo, y_hi) = grown_range(tri[..., 0]), grown_range(tri[..., 1])
    near = np.zeros(tri.shape[0], dtype=bool)
    for pt in np.atleast_2d(np.asarray(points, dtype=float)):
        px, py = pt
        cand = np.flatnonzero((x_lo <= px) & (px <= x_hi) & (y_lo <= py) & (py <= y_hi))
        near[cand] |= point_triangle_distances(pt, tri[cand]) <= radius[cand]
    return near
