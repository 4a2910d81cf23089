"""Structured triangulations of the benchmark rectangle.

The domain is Omega = (0, WIDTH) x (0, HEIGHT) with WIDTH = 1.4 + e/2.7 and
HEIGHT = 0.5.  The contact boundary Gamma_S is the bottom edge y = 0; the
other three sides form the Dirichlet boundary Gamma_D.

Level 1 is a 4 x 2 grid of congruent quadrilaterals, each split into two
triangles along the diagonal from the lower-left to the upper-right corner
(fixed convention, no criss-cross).  Refinement is uniform: every triangle is
quadrisected through its edge midpoints, so level k holds a
(4*2^(k-1)) x (2*2^(k-1)) grid of quads and the meshes are nested.  A
per-vertex lineage records, for every fine vertex, the coarse edge (or coarse
vertex) it came from, which realizes exact nodal prolongation.

Meshes are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WIDTH = 1.4 + math.e / 2.7
HEIGHT = 0.5

DIRICHLET = 0
SIGNORINI = 1

_NX0 = 4
_NY0 = 2

# largest box of grid vertices that nested dissection leaves unsplit
_ND_LEAF = 16


@dataclass(frozen=True)
class TriMesh:
    """Conforming triangulation with tagged boundary and refinement lineage.

    Attributes
    ----------
    level : int
        Refinement level, starting at 1 for the initial mesh.
    vertices : (n, 2) float array
        Vertex coordinates.
    triangles : (t, 3) int array
        Vertex indices per triangle, counterclockwise.
    boundary_edges : (b, 2) int array
        Vertex pairs of boundary edges.
    boundary_tags : (b,) int array
        DIRICHLET or SIGNORINI per boundary edge.
    parent_pairs : (n, 2) int array
        Lineage into the previous level: (i, i) for an inherited vertex i,
        (a, b) for the midpoint of the coarse edge (a, b).  For the initial
        mesh every vertex is its own parent.
    """

    level: int
    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_tags: np.ndarray
    parent_pairs: np.ndarray

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    def signed_areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def max_edge_length(self) -> float:
        """Mesh size h: the maximal edge length over all triangles."""
        p = self.vertices[self.triangles]
        h = 0.0
        for i, j in ((0, 1), (1, 2), (2, 0)):
            d = p[:, i] - p[:, j]
            h = max(h, float(np.sqrt(np.max(d[:, 0] ** 2 + d[:, 1] ** 2))))
        return h

    def signorini_edges(self) -> np.ndarray:
        return self.boundary_edges[self.boundary_tags == SIGNORINI]

    def dirichlet_edges(self) -> np.ndarray:
        return self.boundary_edges[self.boundary_tags == DIRICHLET]


@dataclass(frozen=True)
class TraceMap:
    """Ordered view of the contact-boundary vertices.

    The multiplier degrees of freedom are exactly the Signorini vertices
    strictly inside Gamma_S; the two corner vertices lie on the closure of
    Gamma_D and carry Dirichlet data.
    """

    vertices: np.ndarray  # vertex ids on y = 0, ordered by x
    x: np.ndarray  # their x coordinates, strictly increasing
    interior: np.ndarray  # bool mask, False exactly at the two endpoints

    @property
    def num_multipliers(self) -> int:
        return int(np.count_nonzero(self.interior))

    @property
    def multiplier_vertices(self) -> np.ndarray:
        return self.vertices[self.interior]

    @property
    def multiplier_x(self) -> np.ndarray:
        return self.x[self.interior]

    def spacings(self) -> np.ndarray:
        return np.diff(self.x)


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

    edges = []
    tags = []
    for ix in range(nx):
        edges.append((vid(ix, 0), vid(ix + 1, 0)))
        tags.append(SIGNORINI)
    for ix in range(nx):
        edges.append((vid(ix, ny), vid(ix + 1, ny)))
        tags.append(DIRICHLET)
    for iy in range(ny):
        edges.append((vid(0, iy), vid(0, iy + 1)))
        tags.append(DIRICHLET)
        edges.append((vid(nx, iy), vid(nx, iy + 1)))
        tags.append(DIRICHLET)

    n = vertices.shape[0]
    parents = np.column_stack([np.arange(n), np.arange(n)])
    return TriMesh(
        level=1,
        vertices=vertices,
        triangles=np.asarray(triangles, dtype=np.int64),
        boundary_edges=np.asarray(edges, dtype=np.int64),
        boundary_tags=np.asarray(tags, dtype=np.int64),
        parent_pairs=parents,
    )


def refine(mesh: TriMesh) -> TriMesh:
    """Uniformly quadrisect every triangle through its edge midpoints.

    Existing vertices keep their indices; midpoint vertices are appended in
    the deterministic order of first encounter (triangles in order, local
    edges (0,1), (1,2), (2,0)).  Boundary edges split into two children that
    inherit the parent tag.
    """
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

    edges = []
    tags = []
    for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        m = mid(int(a), int(b))
        edges.append((a, m))
        edges.append((m, b))
        tags.extend((tag, tag))

    vertices = np.vstack([mesh.vertices, np.asarray(new_coords)])
    n_old = mesh.num_vertices
    parent_pairs = np.empty((vertices.shape[0], 2), dtype=np.int64)
    parent_pairs[:n_old, 0] = np.arange(n_old)
    parent_pairs[:n_old, 1] = np.arange(n_old)
    for (a, b), idx in midpoint.items():
        parent_pairs[idx] = (a, b)

    return TriMesh(
        level=mesh.level + 1,
        vertices=vertices,
        triangles=np.asarray(tris, dtype=np.int64),
        boundary_edges=np.asarray(edges, dtype=np.int64),
        boundary_tags=np.asarray(tags, dtype=np.int64),
        parent_pairs=parent_pairs,
    )


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
    x = mesh.vertices[ids, 0]
    interior = np.ones(ids.shape[0], dtype=bool)
    interior[0] = False
    interior[-1] = False
    return TraceMap(vertices=ids, x=x, interior=interior)


def prolong(fine: TriMesh, coarse_values: np.ndarray) -> np.ndarray:
    """Nodal P1 prolongation of coefficients from the parent level."""
    pairs = fine.parent_pairs
    return 0.5 * (coarse_values[pairs[:, 0]] + coarse_values[pairs[:, 1]])


def elimination_order(mesh: TriMesh) -> np.ndarray:
    """Vertex permutation by geometric nested dissection of the grid.

    A box of grid vertices is split across its side with more vertices at
    the middle grid line; the lower half comes first, then the upper half,
    then the separator line.  Boxes of at most _ND_LEAF vertices are not
    split.  The diagonals run from lower left to upper right, so every edge
    joins vertices at most one grid line apart and one line separates.
    Listing the unknowns of a sparse SPD block (any subset of the vertices)
    in this order keeps the fill of its factorization low (George, SINUM
    1973).

    All boxes of one dissection depth are split in one vectorized pass:
    each vertex gathers one base-3 digit per depth (0 lower half, 1 upper
    half, 2 separator, 0 once settled), so a stable sort by these keys
    lists every box in post order and the vertices of one leaf by index.
    """
    scale = 2 ** (mesh.level - 1)
    nx, ny = _NX0 * scale, _NY0 * scale
    ix = np.rint(mesh.vertices[:, 0] * (nx / WIDTH)).astype(np.int64)
    iy = np.rint(mesh.vertices[:, 1] * (ny / HEIGHT)).astype(np.int64)
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


def write_text(mesh: TriMesh, path) -> None:
    """Dump the mesh in plain text.

    First line: vertex, triangle and boundary-edge counts.  Then one vertex
    per line ("x y"), one triangle per line ("i j k"), one boundary edge per
    line ("i j tag") with tag "dirichlet" or "signorini".
    """
    names = {DIRICHLET: "dirichlet", SIGNORINI: "signorini"}
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{mesh.num_vertices} {mesh.num_triangles} {len(mesh.boundary_edges)}\n")
        for x, y in mesh.vertices:
            fh.write(f"{x!r} {y!r}\n")
        for a, b, c in mesh.triangles:
            fh.write(f"{a} {b} {c}\n")
        for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
            fh.write(f"{a} {b} {names[int(tag)]}\n")
