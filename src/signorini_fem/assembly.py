"""The assembled system of one level: P1 assembly, its grid solver, and the
quadrature rules the norms share.

The stiffness integral is exact (piecewise-constant gradients).  The CSR is
built in blocks of ``ROW_BLOCK`` rows, without the global COO matrix of every
element entry: a block lists each of its rows' entries in the COO's (triangle,
i, j) order, which scipy's ``coo_tocsr`` keeps per row, and runs scipy's own
``sum_duplicates``, which sorts and sums every row on its own, so the blocks
stacked are the COO's CSR bit for bit.  The load is
integrated with a fixed symmetric triangle rule of degree 4, with two
refinements where the integrand is not smooth: cells crossed by a known
vertical jump or kink line of the load are cut along it, and cells within
2h of a transmission point get one extra quadrisection to control the
square-root kink there.  Regular cells are evaluated in chunks of whole
cells; all cut and quadrisected pieces are gathered into one batch, so the
load is evaluated once per chunk and scattered once.  The closed-form load
evaluates each singular term only on its cut-off's support; the points
are mapped and the rule's products summed coordinate by coordinate, in
the order ``einsum`` would.  Assembly is serial and deterministic:
repeated runs produce bit-identical vectors.

``build_system`` returns a ``FeSystem``, which holds the stiffness in its
``GridPoisson``: on the uniform grid the stiffness is the five-point
stencil, so a 2D DST-I solves with the interior block and the Schur
complement onto the trace has a closed form.  The grid is built, and the
stiffness checked against the stencil in blocks of raster rows, once per
system; the check feeds no solve.  Its ``fill`` is
the one kernel of the contact path and the consistency flux, and returns
the residual its refinement certified, which every caller reads.  It is
the one place where ``mesh.vertex_raster`` becomes the vertex partition.
One ``fill`` runs all its transforms in one work set, in place and in
blocks of grid lines, and reuses its refinement vectors: a process that
fixes glibc's mmap threshold, as the benchmark does, also pins its trim
threshold at 128 KiB, so every larger temporary freed at the top of the
heap would be faulted in again.  The FFT writes into its work array
(``rfft``'s ``out``), so numpy 2.0 is the floor.

The module also holds the rules the error norms share: quadrisection of
batches of triangles, ``quad``, a vectorized adaptive
Gauss-Kronrod (G10/K21) integrator over many intervals at once, and the
DST-I with the second difference's eigenvalues, which diagonalize the
line grid's P1 mass and stiffness.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .mesh import TriMesh, TraceMap, cells_near, corner_range, signed_areas, vertex_raster

#: Triangles per batch of load and volume-norm evaluations, which bounds the
#: memory of fine levels.
TRIANGLE_CHUNK = 1 << 16

#: Matrix rows per block of the stiffness build and of its stencil check,
#: which bounds their transients on fine levels.
ROW_BLOCK = 1 << 16

#: Degree of ``tri_quadrature``'s rule.
TRI_DEGREE = 4

# Symmetric 6-point triangle rule of degree 4 (two orbits, barycentric).
_D4_A1 = 0.445948490915965
_D4_W1 = 0.223381589678011
_D4_A2 = 0.091576213509771
_D4_W2 = 0.109951743655322


class SolverError(RuntimeError):
    """Raised on non-convergence or a defective linear system.

    Carries the last iterate in the ``solution`` attribute when available.
    """

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution


def tri_quadrature():
    """Barycentric points (6, 3) and unit-sum weights of the symmetric
    6-point rule, exact to degree ``TRI_DEGREE``: the one triangle rule of
    the load and the volume norms."""
    pts = []
    wts = []
    for a, w in ((_D4_A1, _D4_W1), (_D4_A2, _D4_W2)):
        pts += [(1 - 2 * a, a, a), (a, 1 - 2 * a, a), (a, a, 1 - 2 * a)]
        wts += [w, w, w]
    return np.asarray(pts), np.asarray(wts)


# QUADPACK qk21 (Piessens et al., QUADPACK, Springer 1983): the 21-point
# Kronrod extension of the 10-point Gauss rule on [-1, 1], listed from the
# left end to the centre; the Gauss nodes are every second one from index 1.
_XK = np.array(
    [
        0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
        0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
        0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
        0.14887433898163122, 0.0,
    ]
)
_WK = np.array(
    [
        0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
        0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
        0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
        0.14773910490133849, 0.1494455540029169,
    ]
)
_WG = np.array(
    [
        0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
        0.26926671930999635, 0.29552422471475287,
    ]
)
_GK_NODES = np.concatenate([-_XK, _XK[-2::-1]])
_GK_KRONROD = np.concatenate([_WK, _WK[-2::-1]])
_GK_GAUSS = np.zeros(21)
_GK_GAUSS[1:10:2] = _WG
_GK_GAUSS[11:20:2] = _WG[::-1]
_EPMACH = np.finfo(float).eps
_UFLOW = np.finfo(float).tiny
# Bisection rounds before quad gives up.  A square-root endpoint singularity
# under the default tolerances needs about 55; by 64 every piece near a point
# of order one has shrunk to a few units in the last place.
_MAX_ROUNDS = 64
# Open pieces before quad gives up: a count that keeps doubling means the
# integrand is not resolved anywhere near, and memory would run out first.
_MAX_PIECES = 1 << 16


def _kronrod21(f, a: np.ndarray, b: np.ndarray, owner: np.ndarray):
    """qk21 on every piece [a, b] at once: integrals and error estimates."""
    half = 0.5 * (b - a)
    s = 0.5 * (a + b)[:, None] + half[:, None] * _GK_NODES
    vals = np.asarray(f(s, np.broadcast_to(owner[:, None], s.shape)), dtype=float)
    vals = np.broadcast_to(vals, s.shape)
    resk = vals @ _GK_KRONROD
    resg = vals @ _GK_GAUSS
    dh = np.abs(half)
    resabs = (np.abs(vals) @ _GK_KRONROD) * dh
    resasc = (np.abs(vals - 0.5 * resk[:, None]) @ _GK_KRONROD) * dh
    err = np.abs((resk - resg) * half)
    scaled = (resasc != 0.0) & (err != 0.0)
    err[scaled] = resasc[scaled] * np.minimum(1.0, (200.0 * err[scaled] / resasc[scaled]) ** 1.5)
    # roundoff floor: an estimate below it says nothing more
    floor = np.where(resabs > _UFLOW / (50.0 * _EPMACH), 50.0 * _EPMACH * resabs, 0.0)
    return resk * half, np.maximum(err, floor), err <= floor


def quad(f, lo, hi, breaks=(), epsabs: float = 1e-14, epsrel: float = 1e-10) -> np.ndarray:
    """Integrals of f over every interval [lo[i], hi[i]] by adaptive G10/K21.

    f(s, i) takes an array of points s and the same-shaped array i of the
    interval each point belongs to, and returns the integrand values.  Each
    interval is first split at the breakpoints strictly inside it.  Every
    round evaluates f once on all open pieces with the 21-point Kronrod rule
    and QUADPACK's error estimate; a piece is accepted when its estimate is
    at most its length share of its interval's tolerance
    max(epsabs, epsrel * |I|), with I the interval's current integral, or
    when the estimate is QUADPACK's roundoff floor 50 eps * int |f|, which
    bisection cannot lower.  Every other piece is bisected.  A non-finite
    value, or pieces still open after the round or piece cap, raise
    ValueError.  The integrand must be bounded: the piece next to a pole,
    even an integrable one such as s^(-1/2), never meets its share.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = lo.shape[0]
    if not np.all(hi > lo):
        raise ValueError("quad needs intervals with lo < hi")
    inner = [np.where((lo < c) & (c < hi), c, np.nan) for c in np.unique(breaks)]
    edges = np.sort(np.column_stack([lo, *inner, hi]), axis=1)  # absent breaks sort last as nan
    a = edges[:, :-1].ravel()
    b = edges[:, 1:].ravel()
    owner = np.repeat(np.arange(n), edges.shape[1] - 1)
    piece = ~np.isnan(b)
    a, b, owner = a[piece], b[piece], owner[piece]
    length = hi - lo
    done = np.zeros(n)
    for _ in range(_MAX_ROUNDS):
        if a.size > _MAX_PIECES:
            raise ValueError(f"quad: {a.size} pieces above tolerance, more than {_MAX_PIECES}")
        val, err, at_floor = _kronrod21(f, a, b, owner)
        if not (np.all(np.isfinite(val)) and np.all(np.isfinite(err))):
            raise ValueError("quad met a non-finite integrand value")
        tol = np.maximum(epsabs, epsrel * np.abs(done + np.bincount(owner, val, minlength=n)))
        ok = (err <= tol[owner] * ((b - a) / length[owner])) | at_floor
        done += np.bincount(owner[ok], val[ok], minlength=n)
        if ok.all():
            return done
        a, b, owner = a[~ok], b[~ok], owner[~ok]
        mid = 0.5 * (a + b)
        a, b, owner = np.concatenate([a, mid]), np.concatenate([mid, b]), np.concatenate([owner, owner])
    raise ValueError(
        f"quad: {a.size // 2} pieces of {np.unique(owner).size} intervals still above "
        f"tolerance after {_MAX_ROUNDS} bisection rounds"
    )


def quadrisect(tri: np.ndarray) -> np.ndarray:
    """Split triangles (t, 3, 2) through their edge midpoints into (t, 4, 3, 2).

    Children keep the orientation of their parent: the three corner
    triangles at a, b, c first, the midpoint triangle last.
    """
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    mab = 0.5 * (a + b)
    mbc = 0.5 * (b + c)
    mca = 0.5 * (c + a)
    return np.stack(
        [
            np.stack([a, mab, mca], axis=1),
            np.stack([b, mbc, mab], axis=1),
            np.stack([c, mca, mbc], axis=1),
            np.stack([mab, mbc, mca], axis=1),
        ],
        axis=1,
    )


def map_points(bary: np.ndarray, tri: np.ndarray):
    """x and y, each (t, q), of the points with barycentric coordinates
    bary (q, 3) in the triangles tri (t, 3, 2).

    Each coordinate is summed vertex by vertex, which gives the bits of
    ``einsum("qk,tkd->tqd", bary, tri)`` in under a third of its time.
    """
    return tuple(
        tri[:, 0, d, None] * bary[:, 0] + tri[:, 1, d, None] * bary[:, 1] + tri[:, 2, d, None] * bary[:, 2]
        for d in (0, 1)
    )


def _weighted_sums(vals: np.ndarray, w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """sum over q of vals[:, q] * w[q] * basis[..., q, k], for basis (q, k) or
    (t, q, k): the products added in the order of q, the bits of the einsum
    over q."""
    vw = vals * w
    out = vw[:, 0, None] * basis[..., 0, :]
    for q in range(1, w.shape[0]):
        out += vw[:, q, None] * basis[..., q, :]
    return out


def element_gradients(tri: np.ndarray):
    """Gradients of the three barycentric shape functions of triangles given
    as coordinates (t, 3, 2).

    Returns (grads, area) with grads of shape (t, 2, 3) and signed areas.
    """
    area = signed_areas(tri)
    x = tri[..., 0]
    y = tri[..., 1]
    gx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    gy = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    grads = np.stack([gx, gy], axis=1) / (2.0 * area)[:, None, None]
    return grads, area


def assemble_stiffness(mesh: TriMesh) -> sp.csr_matrix:
    """Exact P1 stiffness matrix of the Laplacian (no boundary conditions).

    The CSR is bit for bit that of the COO matrix with the element matrix
    entry local[t, i, j] at (tri[t, i], tri[t, j]), listed in (t, i, j)
    order, but no such COO is built: the rows come in blocks of
    ``ROW_BLOCK`` vertices (``_stiffness_blocks``), stacked.  scipy's
    ``coo_tocsr`` keeps each row's entries in input order, and
    ``sum_duplicates`` sorts each row on its own (an unstable sort, so it
    must see the same sequence) and sums its duplicates in order: a row's
    entries depend only on its input sequence.  A block lists each of its
    rows' entries in that same (t, i, j) order and runs ``sum_duplicates``.
    The triangles are cast to int32, as scipy casts a COO's indices.  The
    element matrices are freed before the blocks are stacked; at level 8
    the build allocates about 51 MiB at its peak.
    """
    blocks = list(_stiffness_blocks(mesh))
    if len(blocks) == 1:  # up to level 7: the block is the matrix, not copied
        return blocks[0]
    stiffness = sp.vstack(blocks, format="csr")
    stiffness.has_canonical_format = True  # as every block is, and as the COO's CSR was
    return stiffness


def _stiffness_blocks(mesh: TriMesh):
    """The stiffness's CSR blocks of ``ROW_BLOCK`` rows, in order.

    The element matrices are computed per ``TRIANGLE_CHUNK`` into one
    array.  A block's rows take their entries from the triangle corners at
    its vertices, in increasing corner f = 3 t + i: corner f holds row
    tri[t, i]'s entries local[t, i, j] in columns tri[t, j].
    """
    tri = mesh.triangles.astype(np.int32)
    n = mesh.num_vertices
    local = np.empty((tri.shape[0], 3, 3))
    for start in range(0, tri.shape[0], TRIANGLE_CHUNK):
        part = slice(start, start + TRIANGLE_CHUNK)
        grads, area = element_gradients(mesh.vertices[tri[part]])
        np.multiply(np.einsum("tdi,tdj->tij", grads, grads), area[:, None, None], out=local[part])
    local = local.reshape(-1, 3)
    corners, start = _corners_by_vertex(tri, n)
    for lo in range(0, n, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, n)
        f = corners[start[lo] : start[hi]]
        # np.take, as fancy indexing of rows is about 3x slower
        block = sp.csr_matrix(
            (np.take(local, f, axis=0).ravel(), np.take(tri, f // 3, axis=0).ravel(), 3 * (start[lo : hi + 1] - start[lo])),
            shape=(hi - lo, n),
        )
        block.sum_duplicates()
        yield block


def _corners_by_vertex(tri: np.ndarray, n: int):
    """The corners f = 3 t + i of the triangles tri, by vertex tri[t, i] and
    each vertex's in increasing f, and each vertex's first place in that
    list (n + 1 places): ``csr_tocsc`` is a stable counting sort, here of
    one row whose columns are the corners' vertices."""
    by_vertex = sp.csr_matrix((np.arange(tri.size, dtype=np.int32), tri.ravel(), [0, tri.size]), shape=(1, n)).tocsc()
    return by_vertex.data, by_vertex.indptr


def _clip(poly: np.ndarray, count: np.ndarray, c: float, keep_left: bool):
    """Clip convex polygons against x <= c (or x >= c), all at once.

    poly is (m, w, 2), its first count vertices per row in order.  Each
    edge p -> q emits p if p is kept, then the point p + t (q - p) on x = c
    if the edge crosses.  Returns the clipped (m, w', 2) and their counts.
    """
    m, w = poly.shape[:2]
    live = np.arange(w) < count[:, None]
    nxt = np.where(np.arange(1, w + 1) < count[:, None], np.arange(1, w + 1), 0)
    q = np.take_along_axis(poly, nxt[..., None], axis=1)
    pin = poly[..., 0] <= c if keep_left else poly[..., 0] >= c
    qin = q[..., 0] <= c if keep_left else q[..., 0] >= c
    emit = np.stack([live & pin, live & (pin != qin)], axis=2).reshape(m, 2 * w)
    vals = np.stack([poly, poly], axis=2).reshape(m, 2 * w, 2)
    row, col = np.nonzero(emit[:, 1::2])
    a, b = poly[row, col], q[row, col]
    t = (c - a[:, 0]) / (b[:, 0] - a[:, 0])
    vals[row, 2 * col + 1] = a + t[:, None] * (b - a)
    count = emit.sum(axis=1)
    out = np.zeros((m, count.max(initial=0), 2))
    row, col = np.nonzero(emit)
    out[row, np.cumsum(emit, axis=1)[row, col] - 1] = vals[row, col]
    return out, count


def _split_by_lines(coords: np.ndarray, lines) -> tuple[np.ndarray, np.ndarray]:
    """Cut triangles along vertical lines into sub-triangles.

    coords is (k, 3, 2).  Each line in turn cuts every polygon it crosses
    into its left and its right part; parts with fewer than three vertices
    or an area of at most 1e-30 are dropped.  Each polygon then fans out
    from its first vertex.  Returns (pieces, owner): the (p, 3, 2)
    sub-triangles, those of each triangle together and in that order, and
    the index into coords each came from.  Used where the integrand is
    smooth on either side of a line but not across.
    """
    poly = np.asarray(coords, dtype=float)
    count = np.full(poly.shape[0], 3)
    owner = np.arange(poly.shape[0])
    for c in lines:
        live = np.arange(poly.shape[1]) < count[:, None]
        xs = poly[..., 0]
        cut = (np.where(live, xs, np.inf).min(axis=1) < c) & (c < np.where(live, xs, -np.inf).max(axis=1))
        sides = [_clip(poly[cut], count[cut], c, keep_left) for keep_left in (True, False)]
        w = max(poly.shape[1], *(side.shape[1] for side, _ in sides))
        # slot 0 holds an uncut polygon or a left part, slot 1 a right part
        cand = np.zeros((poly.shape[0], 2, w, 2))
        cand[:, 0, : poly.shape[1]] = poly
        counts = np.stack([count, np.zeros_like(count)], axis=1)
        for slot, (side, side_count) in enumerate(sides):
            cand[cut, slot, : side.shape[1]] = side
            keep = (side_count >= 3) & (np.abs(_polygon_areas(side, side_count)) > 1e-30)
            counts[cut, slot] = np.where(keep, side_count, 0)
        keep = counts.ravel() > 0
        poly = cand.reshape(-1, w, 2)[keep]
        count = counts.ravel()[keep]
        owner = np.repeat(owner, 2)[keep]
    fan = np.repeat(np.arange(poly.shape[0]), count - 2)
    apex = np.arange(fan.shape[0]) - np.repeat(np.cumsum(count - 2) - (count - 2), count - 2) + 1
    pieces = np.stack([poly[fan, 0], poly[fan, apex], poly[fan, apex + 1]], axis=1)
    return pieces, owner[fan]


def _polygon_areas(poly: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Signed areas of padded polygons, summed vertex by vertex."""
    a = np.zeros(poly.shape[0])
    rows = np.arange(poly.shape[0])
    for i in range(poly.shape[1]):
        p = poly[:, i]
        q = poly[rows, np.where(i + 1 < count, i + 1, 0)]
        a = a + np.where(i < count, p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1], 0.0)
    return 0.5 * a


def assemble_load(
    mesh: TriMesh,
    f,
    refine_near: tuple | None = None,
    split_x=(),
) -> np.ndarray:
    """Load vector of integrals f * phi_i with ``tri_quadrature``'s rule.

    split_x lists vertical lines across which f is allowed to jump or kink:
    crossed triangles are cut along them and integrated piecewise, keeping
    the fixed rule accurate for piecewise-smooth loads.  refine_near, if
    given, is (points, radius): triangles whose closure lies within radius
    of one of the points get one extra quadrisection of the rule.
    """
    bary, w = tri_quadrature()
    coords = mesh.vertices[mesh.triangles]
    area = signed_areas(coords)
    load = np.zeros(mesh.num_vertices)

    if refine_near is None:
        near = np.zeros(mesh.num_triangles, dtype=bool)
    else:
        near = cells_near(coords, *refine_near)
    crossing = np.zeros(mesh.num_triangles, dtype=bool)
    x_lo, x_hi = corner_range(coords[..., 0])
    for c in split_x:
        crossing |= (x_lo < c) & (c < x_hi)
    special = near | crossing

    regular = np.flatnonzero(~special)
    for start in range(0, regular.shape[0], TRIANGLE_CHUNK):
        sel = regular[start : start + TRIANGLE_CHUNK]
        vals = f(*map_points(bary, coords[sel]))
        contrib = _weighted_sums(vals, w, bary) * area[sel, None]
        np.add.at(load, mesh.triangles[sel].ravel(), contrib.ravel())

    special_idx = np.flatnonzero(special)
    if not special_idx.size:
        return load
    # every cut or quadrisected piece with the triangle it belongs to, by triangle
    crossed = np.flatnonzero(crossing)
    cut, owner = _split_by_lines(coords[crossed], split_x)
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
        x, y = map_points(bary, sub)
        vals = f(x, y)
        # parent hat functions at the points, from their affine representation
        v0 = coords[owner, 0]
        grads = element_gradients(coords[owner])[0][:, None]  # (p, 1, 2, 3)
        hats = (x - v0[:, 0, None])[..., None] * grads[..., 0, :] + (y - v0[:, 1, None])[..., None] * grads[..., 1, :]
        hats[..., 0] += 1.0
        contrib = _weighted_sums(vals, w, hats) * signed_areas(sub)[:, None]
        np.add.at(load, mesh.triangles[owner].ravel(), contrib.ravel())
    return load


def boundary_lumped_mass(tmap: TraceMap) -> np.ndarray:
    """Diagonal entries <phi_j, 1> over Gamma_S per multiplier DOF.

    For a hat function at an interior trace vertex this is half the length of
    the two adjacent elements; on a uniform trace grid every entry equals the
    element length.
    """
    h = tmap.spacings()
    return 0.5 * (h[:-1] + h[1:])


# assembled entries differ from the stencil's by rounding that grows like
# 1/h: 6.5e-14 of a + b at level 8
_STENCIL_RTOL = 1e-10
_MAX_REFINE = 20
#: The grid fill's bound on its normwise backward error, in units of eps:
#: every fill of the study measured at most 0.27 at levels 2..10, the
#: rounding of a residual row of seven entries may reach 8, and a solve
#: that contracts by 1/3 a step ends near 40 after ``_MAX_REFINE`` steps
_FILL_BACKWARD = 100.0


def _stencil_rows(lo: int, hi: int, n: int, size: int, a: float, b: float, width: int) -> sp.csr_matrix:
    """Rows lo..hi-1, whole raster rows, of the five-point stencil on a
    raster of rows of n cells, size cells in all, where A_TT = (a/2) T_x +
    b I on row 0, with raster cell c in column c - lo + n of width.  Each
    row lists its neighbours below, left, itself, right and above; one off
    the raster is a zero."""
    val = np.empty((hi - lo, 5))
    val[:] = [-b, -a, 2.0 * (a + b), -a, -b]
    trace = val[: max(n - lo, 0)]
    trace[:] = [0.0, -0.5 * a, a + b, -0.5 * a, -b]
    val[::n, 1] = val[n - 1 :: n, 3] = 0.0
    val[size - n - lo :, 4] = 0.0
    col = np.arange(n, n + hi - lo, dtype=np.int32)[:, None] + np.int32([-n, -1, 0, 1, n])
    return sp.csr_matrix((val.ravel(), col.ravel(), np.arange(0, val.size + 1, 5)), shape=(hi - lo, width))


def _check_stencil(stiffness, cells: np.ndarray, n: int, a: float, b: float) -> None:
    """Raise SolverError unless stiffness, restricted to cells (the raster's
    free cells, row by row, n to a row), is the five-point stencil of the
    grid to ``_STENCIL_RTOL`` (a + b).  Runs in blocks of whole raster rows,
    about ``ROW_BLOCK`` cells each: a block's stiffness rows minus the
    stencil's rows, numbered relative to the block.  Its rows and the n
    cells on either side are the first columns; every other entry gets a
    column of its own after them, a zero in a Dirichlet column, so no
    array is as wide as the raster."""
    size = cells.shape[0]
    position = np.full(stiffness.shape[1], -1, dtype=stiffness.indices.dtype)
    position[cells] = np.arange(size)
    step = max(1, ROW_BLOCK // n) * n
    for lo in range(0, size, step):
        hi = min(lo + step, size)
        rows = stiffness[cells[lo:hi]]  # a copy, changed in place
        col = np.take(position, rows.indices)
        dirichlet = col < 0
        rows.data[dirichlet] = 0.0
        col += n - lo
        window = hi - lo + 2 * n
        outside = dirichlet | (col < 0) | (col >= window)
        far = np.count_nonzero(outside)
        col[outside] = np.arange(window, window + far)
        block = sp.csr_matrix((rows.data, col, rows.indptr), shape=(hi - lo, window + far))
        deviation = (block - _stencil_rows(lo, hi, n, size, a, b, block.shape[1])).data
        if not np.abs(deviation, out=deviation).max(initial=0.0) <= _STENCIL_RTOL * (a + b):
            raise SolverError("the stiffness is not the five-point stencil of its grid")


class GridPoisson:
    """Solves with the interior block of a uniform grid's stiffness.

    The P1 stiffness of the diagonally split grid is the five-point stencil,
    -a = -h_y/h_x between horizontal neighbours, -b = -h_x/h_y between
    vertical ones and 0 across diagonals, so the 2D DST-I diagonalizes A_II
    (Buzbee, Golub & Nielson, SINUM 1970) and the 1D one the Schur complement
    onto the trace row (Bjorstad & Widlund, SINUM 1986).  Its n x ny raster
    is the free part of ``mesh.vertex_raster``: ``trace_dofs`` is its row 0,
    ``interior`` lists I, row by row, ``free_mask`` is True on the raster
    and ``dirichlet_idx`` lists the other vertices, sorted.  The four are
    read-only, as the raster is.
    """

    def __init__(self, mesh: TriMesh, stiffness):
        raster = vertex_raster(mesh)
        if raster.size != mesh.num_vertices or raster.min() < 0:
            raise SolverError("the vertices do not fill a uniform grid: a cell is empty or holds two")
        ny, n = raster.shape[0] - 1, raster.shape[1] - 2
        hx, hy = np.ptp(mesh.vertices, axis=0) / (n + 1, ny)
        cells = raster[:-1, 1:-1].ravel()
        a, b = hy / hx, hx / hy
        _check_stencil(stiffness, cells, n, a, b)
        self.stiffness = stiffness
        free_mask = np.zeros(mesh.num_vertices, dtype=bool)
        free_mask[cells] = True
        dirichlet_idx = np.flatnonzero(~free_mask)
        for index in cells, free_mask, dirichlet_idx:
            index.flags.writeable = False
        self.trace_dofs, self.interior = cells[:n], cells[n:]
        self.free_mask, self.dirichlet_idx = free_mask, dirichlet_idx
        self._b = b
        # ||A||_2 <= max(||A||_1, ||A||_inf) over the free rows: 4 (a + b)
        self._stiffness_norm = 4.0 * (a + b)
        # a lam_k + b mu_l, the second difference's eigenvalues in x and y
        lam = second_difference_eigenvalues(n)
        l = np.arange(1, ny)[:, None]
        self._eig = a * lam + b * second_difference_eigenvalues(ny - 1)[:, None]
        # eigenvalues of S: A_TT = (a/2) T_x + b I, and A_TI couples each
        # trace DOF by -b to the vertex above it
        self._s = 0.5 * a * lam + b - b * b * (2.0 / ny * np.sin(np.pi * l / ny) ** 2 / self._eig).sum(axis=0)

    @functools.cached_property
    def schur(self) -> np.ndarray:
        """S = A_TT - A_TI A_II^-1 A_IT densely: V diag(s) V, with V the
        orthonormal DST-I matrix of the trace row.  Computed once."""
        n = self._s.shape[0]
        k = np.arange(1, n + 1)
        v = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi / (n + 1) * (np.outer(k, k) % (2 * n + 2)))
        return (v * self._s) @ v

    def work_set(self):
        """Work arrays for ``solve``: one ``_dst1_work`` per raster axis and
        the solution.  ``fill`` makes one per call and runs every transform
        in it, so a fill allocates no temporaries per solve."""
        rows, n = self._eig.shape
        return _dst1_work(rows, n), _dst1_work(n, rows), np.empty(self._eig.shape)

    def solve(self, r: np.ndarray, work=None) -> np.ndarray:
        """A_II^-1 r for r listed as ``interior``, unrefined: a 2D DST-I, a
        division by the eigenvalues, and the DST-I back.  Everything runs in
        work (a ``work_set``, a new one by default), and the result is a view
        of it, which the next solve through work overwrites."""
        along_x, along_y, x = self.work_set() if work is None else work
        _dst1(r.reshape(x.shape), 1, along_x, out=x)
        _dst1(x, 0, along_y, out=x)
        x /= self._eig
        _dst1(x, 1, along_x, out=x)
        _dst1(x, 0, along_y, out=x)
        return x.ravel()

    def fill(self, w: np.ndarray, load: np.ndarray, free=None):
        """(w, load - A w) for w with the values on I and on the free trace
        DOFs (a mask, none by default) that solve A w = load on those rows,
        by ``schur`` and ``solve`` steps refined against the stiffness while
        the residual falls.  The contract is a normwise backward error
        (Rigal & Gaches, J. ACM 1967; Higham, Accuracy and Stability of
        Numerical Algorithms, 2nd ed., 7.1): the final residual r on the rows
        must satisfy ||r|| <= ``_FILL_BACKWARD`` eps (||A|| ||w|| + ||b||),
        with b the load on the rows and ||A|| <= 4 (a + b) the stencil's
        bound over them; a larger one raises SolverError.  The steps share
        one ``work_set`` and the loop's vectors are allocated once."""
        n, m = self.trace_dofs.shape[0], self.interior.shape[0]
        free = np.zeros(n, dtype=bool) if free is None else free
        rows = np.concatenate([self.interior, self.trace_dofs[free]])
        chol = scipy.linalg.cho_factor(self.schur[np.ix_(free, free)]) if free.any() else None
        work = self.work_set()
        r_int = np.empty(m)

        def step(r, x):
            """Adds to x, listed as rows, the correction of one step for the
            residual r."""
            d = self.solve(r[:m], work)
            if chol is None:
                x += d
                return
            # block elimination; A_TI is -b between a trace DOF and the cell above
            d_free = scipy.linalg.cho_solve(chol, r[m:] + self._b * d[:n][free])
            r_int[:] = r[:m]
            r_int[:n][free] += self._b * d_free
            x[:m] += self.solve(r_int, work)
            x[m:] += d_free

        # load - A v with its rows in out and their norm; take's default
        # mode="raise" buffers out, and rows are in range
        def residual(v, out):
            full = self.stiffness @ v
            np.take(np.subtract(load, full, out=full), rows, out=out, mode="clip")
            return full, np.linalg.norm(out)

        w = w.copy()
        w[rows] = 0.0
        # w and trial differ only on rows, also after they swap
        trial, (r, r_trial, on_rows) = w.copy(), np.empty((3, rows.shape[0]))
        full, res = residual(w, r)
        for _ in range(_MAX_REFINE):
            step(r, np.take(w, rows, out=on_rows, mode="clip"))
            trial[rows] = on_rows
            full_trial, res_trial = residual(trial, r_trial)
            if not res_trial < res:
                break
            w, trial, r, r_trial, full, res = trial, w, r_trial, r, full_trial, res_trial
        # r_trial is free after the loop and takes the load on the rows
        b_norm = np.linalg.norm(np.take(load, rows, out=r_trial, mode="clip"))
        bound = _FILL_BACKWARD * _EPMACH * (self._stiffness_norm * np.linalg.norm(w) + b_norm)
        if not res <= bound:
            raise SolverError(f"grid solve residual {res:.3e} exceeds contract {bound:.3e}")
        return w, full


def second_difference_eigenvalues(n: int) -> np.ndarray:
    """Eigenvalues 4 sin^2(pi k / 2(n + 1)), k = 1..n, of the second
    difference tridiag(-1, 2, -1) on n interior nodes; the orthonormal
    DST-I (``_dst1``) holds its eigenvectors."""
    return 4.0 * np.sin(0.5 * np.pi * np.arange(1, n + 1) / (n + 1)) ** 2


def _dst1(x: np.ndarray, axis: int, work=None, out=None) -> np.ndarray:
    """Orthonormal DST-I along axis (its own inverse) of a 1D or 2D x:
    minus the imaginary part of the real FFT of the odd extension
    [0, x, 0, -x reversed].  numpy's FFT keeps scipy.fft (0.1 s to import)
    out of the package.  The transform runs in blocks of lines along axis
    through work, the caller's ``_dst1_work`` for this axis (new arrays by
    default), and writes into out (a new array by default), which may be x
    itself: each block is read before it is written."""
    x = np.moveaxis(x, axis, -1)
    n = x.shape[-1]
    y = np.empty(x.shape) if out is None else np.moveaxis(out, axis, -1)
    lines, results = np.atleast_2d(x, y)
    ext, spectrum = _dst1_work(lines.shape[0], n) if work is None else work
    for start in range(0, lines.shape[0], ext.shape[0]):
        block = lines[start : start + ext.shape[0]]
        e, f = ext[: block.shape[0]], spectrum[: block.shape[0]]
        e[:, 1 : n + 1] = block
        np.negative(block[:, ::-1], out=e[:, n + 2 :])
        np.fft.rfft(e, out=f)
        np.multiply(f[:, 1 : n + 1].imag, -np.sqrt(0.5 / (n + 1)), out=results[start : start + block.shape[0]])
    return np.moveaxis(y, -1, axis)


#: Lines per block of a DST-I work set: small enough that a work set stays
#: far below glibc's dynamic trim threshold on fine grids.
_DST_BLOCK = 64


def _dst1_work(lines: int, n: int):
    """Work arrays of ``_dst1`` over lines of length n, in blocks of at
    most ``_DST_BLOCK``: the odd extension, whose entries 0 and n + 1 are
    zero and no transform writes, and its real FFT."""
    block = min(lines, _DST_BLOCK)
    return np.zeros((block, 2 * n + 2)), np.empty((block, n + 2), dtype=complex)


@dataclass(frozen=True)
class FeFunction:
    """Coefficients of u_h (one per vertex) or lambda_h (one per multiplier DOF)."""

    values: np.ndarray


@dataclass(frozen=True)
class FeSystem:
    """Assembled pieces of one discretized problem.

    The stiffness and the vertex partition are read from ``grid``, so
    ``dataclasses.replace`` with a new load or new Dirichlet values keeps
    them with the grid, and one with a new stiffness or index set raises.
    """

    mesh: TriMesh
    load: np.ndarray
    lumped_mass: np.ndarray  # D_j per multiplier DOF
    dirichlet_values: np.ndarray  # one per vertex of dirichlet_idx
    grid: GridPoisson  # grid.interior: the free vertices that are not multiplier DOFs

    @property
    def stiffness(self) -> sp.csr_matrix:
        return self.grid.stiffness

    @property
    def trace_dofs(self) -> np.ndarray:
        """Global vertex ids of the multiplier DOFs, by x."""
        return self.grid.trace_dofs

    @property
    def dirichlet_idx(self) -> np.ndarray:
        return self.grid.dirichlet_idx

    @property
    def free_mask(self) -> np.ndarray:
        return self.grid.free_mask

    def fill(self, z, free=None):
        """``grid.fill(w, load, free)`` for w the Dirichlet values with z on
        the trace: every solve of the system."""
        w = np.zeros(self.mesh.num_vertices)
        w[self.dirichlet_idx] = self.dirichlet_values
        w[self.trace_dofs] = z
        return self.grid.fill(w, self.load, free)

    def trace_multiplier(self, z) -> np.ndarray:
        """D^-1 r_T for (w, r) = ``fill(z)``: of z = 0 the Newton potential
        nu with the Dirichlet lifting, of the exact trace values the
        consistency flux."""
        return self.fill(z)[1][self.trace_dofs] / self.lumped_mass


def system_load(mesh: TriMesh, sol) -> np.ndarray:
    """The load vector of sol's right-hand side, refined near the
    transmission points and split at the load's kinks, as build_system
    assembles it."""
    return assemble_load(
        mesh,
        sol.rhs,
        refine_near=(sol.transmission_points, 2.0 * mesh.max_edge_length()),
        split_x=sol.load_split_x,
    )


def build_system(mesh: TriMesh, tmap: TraceMap, sol, load=system_load) -> FeSystem:
    """Assemble the stiffness and build its grid solver, then take sol's
    values on the grid's Dirichlet vertices, the lumped mass, and the load
    vector from load(mesh, sol); a stiffness off the five-point stencil
    raises SolverError before the load is asked for."""
    grid = GridPoisson(mesh, assemble_stiffness(mesh))
    dir_idx = grid.dirichlet_idx
    dir_vals = sol.u(mesh.vertices[dir_idx, 0], mesh.vertices[dir_idx, 1])
    return FeSystem(
        mesh=mesh,
        load=load(mesh, sol),
        lumped_mass=boundary_lumped_mass(tmap),
        dirichlet_values=np.asarray(dir_vals, dtype=float),
        grid=grid,
    )
