"""P1 assembly, quadrature rules, boundary lumped mass and trace Gram matrices.

The stiffness integral is exact (piecewise-constant gradients).  The load is
integrated with a fixed symmetric triangle rule of degree >= 4, with two
refinements where the integrand is not smooth: cells crossed by a known
vertical jump or kink line of the load are cut along it, and cells near a
transmission point optionally get one extra quadrisection to control the
square-root kink there.  Regular cells are evaluated in chunks of whole
cells; all cut and quadrisected pieces are gathered into one batch, so the
load is evaluated once per chunk and scattered once.  Assembly is serial
and deterministic: repeated runs produce bit-identical vectors.

The module also holds the rules the error norms share: quadrisection and
areas of batches of triangles, and ``quad``, a vectorized adaptive
Gauss-Kronrod (G10/K21) integrator over many intervals at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import TriMesh, TraceMap, cells_near, trace_map

#: Triangles per batch of load and volume-norm evaluations, which bounds the
#: memory of fine levels.
TRIANGLE_CHUNK = 1 << 16

# Symmetric 6-point triangle rule of degree 4 (two orbits, barycentric).
_D4_A1 = 0.445948490915965
_D4_W1 = 0.223381589678011
_D4_A2 = 0.091576213509771
_D4_W2 = 0.109951743655322


def tri_quadrature(degree: int = 4):
    """Barycentric points and unit-sum weights of a triangle rule.

    Degree <= 4 returns the symmetric 6-point rule; higher degrees use the
    conical product of Gauss-Jacobi and Gauss-Legendre nodes, which is exact
    for total degree 2n - 1 with n points per direction.
    """
    if degree <= 4:
        pts = []
        wts = []
        for a, w in ((_D4_A1, _D4_W1), (_D4_A2, _D4_W2)):
            pts += [(1 - 2 * a, a, a), (a, 1 - 2 * a, a), (a, a, 1 - 2 * a)]
            wts += [w, w, w]
        return np.asarray(pts), np.asarray(wts)
    from scipy.special import roots_jacobi

    n = (degree + 2) // 2
    xj, wj = roots_jacobi(n, 1.0, 0.0)
    xg, wg = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (xj + 1.0)
    s = 0.5 * (xg + 1.0)
    wx = wj / 4.0
    ws = wg / 2.0
    X, S = np.meshgrid(x, s, indexing="ij")
    WX, WS = np.meshgrid(wx, ws, indexing="ij")
    xi = X.ravel()
    eta = (1.0 - X).ravel() * S.ravel()
    w = 2.0 * (WX * WS).ravel()  # unit-sum normalization (reference area 1/2)
    bary = np.column_stack([1.0 - xi - eta, xi, eta])
    return bary, w


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


def triangle_areas(tri: np.ndarray) -> np.ndarray:
    """Unsigned areas of triangles given as coordinates (t, 3, 2)."""
    d1 = tri[:, 1] - tri[:, 0]
    d2 = tri[:, 2] - tri[:, 0]
    return 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def element_gradients(mesh: TriMesh):
    """Gradients of the three barycentric shape functions per triangle.

    Returns (grads, area) with grads of shape (t, 2, 3).
    """
    p = mesh.vertices[mesh.triangles]
    area = mesh.signed_areas()
    x = p[..., 0]
    y = p[..., 1]
    gx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    gy = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    grads = np.stack([gx, gy], axis=1) / (2.0 * area)[:, None, None]
    return grads, area


def assemble_stiffness(mesh: TriMesh) -> sp.csr_matrix:
    """Exact P1 stiffness matrix of the Laplacian (no boundary conditions)."""
    grads, area = element_gradients(mesh)
    local = np.einsum("tdi,tdj->tij", grads, grads) * area[:, None, None]
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    n = mesh.num_vertices
    mat = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n))
    return mat.tocsr()


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


def _split_by_lines(tri_coords: np.ndarray, lines) -> list:
    """Cut a triangle along vertical lines into sub-triangles.

    Returns a list of (3, 2) arrays; degenerate slivers are dropped.  Used
    where the integrand is smooth on either side of a line but not across.
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


def assemble_load(
    mesh: TriMesh,
    f,
    degree: int = 4,
    refine_near: tuple | None = None,
    split_x=(),
) -> np.ndarray:
    """Load vector of integrals f * phi_i with a fixed triangle rule.

    split_x lists vertical lines across which f is allowed to jump or kink:
    crossed triangles are cut along them and integrated piecewise, keeping
    the fixed rule accurate for piecewise-smooth loads.  refine_near, if
    given, is (points, radius): triangles whose closure lies within radius
    of one of the points get one extra quadrisection of the rule.
    """
    bary, w = tri_quadrature(degree)
    coords = mesh.vertices[mesh.triangles]
    area = mesh.signed_areas()
    load = np.zeros(mesh.num_vertices)

    if refine_near is None:
        near = np.zeros(mesh.num_triangles, dtype=bool)
    else:
        near = cells_near(coords, *refine_near)
    crossing = np.zeros(mesh.num_triangles, dtype=bool)
    xs = coords[..., 0]
    for c in split_x:
        crossing |= (xs.min(axis=1) < c) & (c < xs.max(axis=1))
    special = near | crossing

    regular = np.flatnonzero(~special)
    for start in range(0, regular.shape[0], TRIANGLE_CHUNK):
        sel = regular[start : start + TRIANGLE_CHUNK]
        pts = np.einsum("qk,tkd->tqd", bary, coords[sel])
        vals = f(pts[..., 0], pts[..., 1])
        contrib = np.einsum("tq,q,qk->tk", vals, w, bary) * area[sel, None]
        np.add.at(load, mesh.triangles[sel].ravel(), contrib.ravel())

    special_idx = np.flatnonzero(special)
    if not special_idx.size:
        return load
    # every cut or quadrisected piece with the triangle it belongs to
    pieces = []
    parent = []
    for t in special_idx:
        cut = _split_by_lines(coords[t], split_x) if crossing[t] else [coords[t]]
        pieces += cut
        parent += [t] * len(cut)
    pieces = np.asarray(pieces)
    parent = np.asarray(parent)
    refined = near[parent]
    if np.any(refined):
        children = quadrisect(pieces[refined]).reshape(-1, 3, 2)
        pieces = np.concatenate([pieces[~refined], children])
        parent = np.concatenate([parent[~refined], np.repeat(parent[refined], 4)])
    grads = element_gradients(mesh)[0]
    for start in range(0, pieces.shape[0], TRIANGLE_CHUNK):
        sub = pieces[start : start + TRIANGLE_CHUNK]
        owner = parent[start : start + TRIANGLE_CHUNK]
        pts = np.einsum("qk,pkd->pqd", bary, sub)
        vals = f(pts[..., 0], pts[..., 1])
        # parent hat functions at the points, from their affine representation
        hats = np.einsum("pqd,pdk->pqk", pts - coords[owner, None, 0], grads[owner])
        hats[..., 0] += 1.0
        contrib = np.einsum("pq,q,pqk->pk", vals, w, hats) * triangle_areas(sub)[:, None]
        np.add.at(load, mesh.triangles[owner].ravel(), contrib.ravel())
    return load


def boundary_lumped_mass(mesh: TriMesh, tmap: TraceMap) -> np.ndarray:
    """Diagonal entries <phi_j, 1> over Gamma_S per multiplier DOF.

    For a hat function at an interior trace vertex this is half the length of
    the two adjacent elements; on a uniform trace grid every entry equals the
    element length.
    """
    h = tmap.spacings()
    full = np.zeros(tmap.x.shape[0])
    full[:-1] += 0.5 * h
    full[1:] += 0.5 * h
    return full[tmap.interior]


def line_grams(x: np.ndarray) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """1D P1 mass and stiffness matrices on the node set x (increasing)."""
    h = np.diff(x)
    n = x.shape[0]
    main_m = np.zeros(n)
    main_m[:-1] += h / 3.0
    main_m[1:] += h / 3.0
    off_m = h / 6.0
    mass = sp.diags([off_m, main_m, off_m], offsets=[-1, 0, 1], format="csr")
    main_k = np.zeros(n)
    main_k[:-1] += 1.0 / h
    main_k[1:] += 1.0 / h
    off_k = -1.0 / h
    stiff = sp.diags([off_k, main_k, off_k], offsets=[-1, 0, 1], format="csr")
    return mass, stiff


def dof_partition(mesh: TriMesh, tmap: TraceMap):
    """Dirichlet / free / interior split of the vertices.

    The Dirichlet vertices are the boundary vertices that are not multiplier
    DOFs (interior Gamma_S vertices); every other vertex is free, and the
    free vertices that are not multiplier DOFs are interior.  Returns
    (dirichlet_idx, free_mask, interior_idx) with sorted index arrays.
    """
    dirichlet_idx = np.setdiff1d(mesh.boundary_edges, tmap.multiplier_vertices)
    free_mask = np.ones(mesh.num_vertices, dtype=bool)
    free_mask[dirichlet_idx] = False
    interior_mask = free_mask.copy()
    interior_mask[tmap.multiplier_vertices] = False
    return dirichlet_idx, free_mask, np.flatnonzero(interior_mask)


@dataclass(frozen=True)
class FeFunction:
    """Nodal P1 function: one coefficient per mesh vertex (or trace vertex)."""

    level: int
    values: np.ndarray


@dataclass(frozen=True)
class FeSystem:
    """Assembled pieces of one discretized problem, plus index partitions."""

    mesh: TriMesh
    tmap: TraceMap
    stiffness: sp.csr_matrix
    load: np.ndarray
    lumped_mass: np.ndarray  # D_j per multiplier DOF
    dirichlet_idx: np.ndarray
    dirichlet_values: np.ndarray
    trace_dofs: np.ndarray  # global vertex ids of multiplier DOFs, by x
    free_mask: np.ndarray  # True for non-Dirichlet vertices
    interior_idx: np.ndarray  # free vertices that are not multiplier DOFs


def build_system(
    mesh: TriMesh,
    tmap: TraceMap | None,
    sol,
    load_degree: int = 4,
    refine_load_near_contact: bool = True,
) -> FeSystem:
    """Assemble stiffness, load, lumped mass and Dirichlet data for sol."""
    if tmap is None:
        tmap = trace_map(mesh)
    stiffness = assemble_stiffness(mesh)
    refine_near = None
    if refine_load_near_contact:
        pts = np.array([[sol.x_left, 0.0], [sol.x_right, 0.0]])
        refine_near = (pts, 2.0 * mesh.max_edge_length())
    load = assemble_load(
        mesh,
        sol.rhs,
        degree=load_degree,
        refine_near=refine_near,
        split_x=sol.load_split_x,
    )
    dir_idx, free_mask, interior_idx = dof_partition(mesh, tmap)
    dir_vals = sol.u(mesh.vertices[dir_idx, 0], mesh.vertices[dir_idx, 1])
    return FeSystem(
        mesh=mesh,
        tmap=tmap,
        stiffness=stiffness,
        load=load,
        lumped_mass=boundary_lumped_mass(mesh, tmap),
        dirichlet_idx=dir_idx,
        dirichlet_values=np.asarray(dir_vals, dtype=float),
        trace_dofs=tmap.multiplier_vertices,
        free_mask=free_mask,
        interior_idx=interior_idx,
    )
