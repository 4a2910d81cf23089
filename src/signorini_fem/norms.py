"""Error norms of the benchmark study.

Volume norms use ``tri_quadrature``'s rule per cell, with graded
quadrisection near the transmission points, where the exact solution has
fractional regularity.  The subdivision runs breadth first: all pieces of
one depth form one batch, so the exact solution is evaluated a few times
per depth rather than once per piece, and each evaluation is one call of
the fused ``u_and_grad``, which evaluates each singular term once and only
on its cut-off's support.  Trace norms are adaptive G10/K21 integrals
(``quad``) over all trace elements at once, split at the known kink
locations.  The negative-order boundary norm is a discrete dual norm on a
fine reference trace grid (``mesh.trace_grid``): the nodal multiplier
is prolongated exactly, the exact flux is interpolated, and the dual norm
against the H1 inner product of the reference space is a sum over the
DST-I spectrum of its interior mass and stiffness.
Fractional norms are the geometric-mean surrogates sqrt(H1 * L2) and
sqrt(H-1 * L2).

``error_report`` returns one level's ten columns, the consistency flux's
among them, as a dict keyed by ``RATE_KEYS``, the only list of the column
names; ``TOLERANCES`` holds the quadrature settings the study records.
"""

from __future__ import annotations

import numpy as np

from .assembly import (
    TRI_DEGREE,
    _dst1,
    element_gradients,
    map_points,
    quad,
    quadrisect,
    second_difference_eigenvalues,
    tri_quadrature,
)
from .biortho import postprocess_multiplier
from .mesh import TRIANGLE_CHUNK, TriMesh, TraceMap, cells_near, signed_areas, trace_grid

#: Quadrisection depth of the volume norms near the transmission points.
VOLUME_DEPTH = 6
#: Tolerances of the adaptive trace and multiplier quadrature.
TRACE_EPSABS = 1e-14
TRACE_EPSREL = 1e-10


#: The quadrature settings every record carries.
TOLERANCES = {
    "volume_degree": TRI_DEGREE,
    "volume_depth": VOLUME_DEPTH,
    "trace_epsabs": TRACE_EPSABS,
    "trace_epsrel": TRACE_EPSREL,
}

#: The error columns of one level, in the order ``error_report`` returns
#: them; the last three are those of the consistency flux.
RATE_KEYS = (
    "e_L2_omega",
    "e_H1_omega",
    "e_L2_gammaS",
    "e_Hhalf_gammaS",
    "e_L2_lambda",
    "e_Hminus1_lambda",
    "e_Hminushalf_lambda",
    "e_L2_lambda_tilde",
    "e_Hminus1_lambda_tilde",
    "e_Hminushalf_lambda_tilde",
)


def geometric_mean(a: float, b: float) -> float:
    """sqrt(a * b): the surrogate H^1/2 and H^-1/2 norms of H1 or H^-1 with L2."""
    return float(np.sqrt(a * b))


def _affine_data(tri: np.ndarray, vals: np.ndarray):
    """Affine representation c0 + g . x of u_h on triangles given as
    coordinates (t, 3, 2), from its values vals (t, 3) at their corners:
    (c0, g), with g of shape (t, 2)."""
    grads, _ = element_gradients(tri)  # (t, 2, 3)
    g = np.einsum("tdk,tk->td", grads, vals)  # (t, 2)
    c0 = vals[:, 0] - np.einsum("td,td->t", g, tri[:, 0])
    return c0, g


def volume_errors(
    mesh: TriMesh,
    u_values: np.ndarray,
    sol,
    max_depth: int = VOLUME_DEPTH,
):
    """L2 and H1-seminorm errors of a nodal function against sol.

    Triangles whose closure is within 2h of a transmission point are
    integrated by repeated quadrisection up to max_depth, graded by the
    local diameter: a piece splits while a transmission point lies within
    twice its diameter.  Every leaf takes ``tri_quadrature``'s rule and is
    counterclockwise, so its signed area is its area.  The leaves of each
    depth are summed per ``TRIANGLE_CHUNK``, in order; the mesh's
    triangles, at depth 0, get their coordinates and the affine data of u_h
    chunk by chunk, so no array spans every triangle but the split mask and
    the leaf list.  A
    NaN or infinite nodal value raises ValueError, as ``quad`` and
    ``dual_norm`` do.
    """
    bad = np.count_nonzero(~np.isfinite(u_values))
    if bad:
        raise ValueError(f"u_h has {bad} non-finite of {u_values.shape[0]} nodal values")
    bary, w = tri_quadrature()
    tps = sol.transmission_points

    tri = c0 = g = None  # the pieces below depth 0 and the affine data of their triangles

    def pieces(ids):
        """Coordinates and affine data of the current depth's pieces ids."""
        if tri is None:
            corners = np.take(mesh.triangles, ids, axis=0)
            cells = np.take(mesh.vertices, corners, axis=0)
            return (cells, *_affine_data(cells, u_values[corners]))
        return tri[ids], c0[ids], g[ids]

    # one loop over the chunks: a chunk's arrays live until the next one's
    # replace them, so the heap reuses their pages (see ``assembly``)
    def leaf_sums(leaves):
        l2 = h1 = 0.0
        for start in range(0, leaves.shape[0], TRIANGLE_CHUNK):
            cells, const, grad = pieces(leaves[start : start + TRIANGLE_CHUNK])
            x, y = map_points(bary, cells)
            ue, uex, uey = sol.u_and_grad(x, y)
            uh = const[:, None] + grad[:, 0, None] * x + grad[:, 1, None] * y
            area = signed_areas(cells)
            l2 += float(np.einsum("tq,q,t->", (ue - uh) ** 2, w, area))
            h1 += float(np.einsum("tq,q,t->", (uex - grad[:, 0, None]) ** 2 + (uey - grad[:, 1, None]) ** 2, w, area))
        return l2, h1

    split = np.zeros(mesh.num_triangles, dtype=bool)
    radius = 2.0 * mesh.max_edge_length()
    for start in range(0, mesh.num_triangles, TRIANGLE_CHUNK):
        part = slice(start, start + TRIANGLE_CHUNK)
        split[part] = cells_near(np.take(mesh.vertices, mesh.triangles[part], axis=0), tps, radius)
    total_l2 = total_h1 = 0.0
    for depth in range(max_depth + 1):
        if depth == max_depth:
            split[:] = False
        else:
            ids = np.flatnonzero(split)
            near = pieces(ids)[0]
            edges = near - np.roll(near, -1, axis=1)
            diam = np.hypot(edges[..., 0], edges[..., 1]).max(axis=1)
            split[ids] = cells_near(near, tps, 2.0 * diam)
        l2, h1 = leaf_sums(np.flatnonzero(~split))
        total_l2 += l2
        total_h1 += h1
        if not split.any():
            break
        parents, c0, g = pieces(np.flatnonzero(split))
        tri = quadrisect(parents).reshape(-1, 3, 2)
        c0, g = np.repeat(c0, 4), np.repeat(g, 4, axis=0)
        split = np.ones(tri.shape[0], dtype=bool)

    return float(np.sqrt(total_l2)), float(np.sqrt(total_h1))


def _l2_gap_sq(fn, x, values, kinks) -> float:
    """Squared L2 distance between fn and the P1 function with nodal values on x."""
    slopes = np.diff(values) / np.diff(x)

    def sq_err(s, e):
        return (fn(s) - (values[e] + slopes[e] * (s - x[e]))) ** 2

    return float(np.sum(quad(sq_err, x[:-1], x[1:], kinks, TRACE_EPSABS, TRACE_EPSREL)))


def trace_errors(tmap: TraceMap, u_values: np.ndarray, sol):
    """L2, full H1 and surrogate H^1/2 errors of the trace of u_h on Gamma_S."""
    x = tmap.x
    vals = u_values[tmap.vertices]
    slopes = np.diff(vals) / np.diff(x)

    def dsq_err(s, e):
        return (sol.u_trace_d1(s) - slopes[e]) ** 2

    l2_sq = _l2_gap_sq(sol.u_trace, x, vals, sol.kink_x)
    h1_sq = float(np.sum(quad(dsq_err, x[:-1], x[1:], sol.kink_x, TRACE_EPSABS, TRACE_EPSREL)))
    l2 = float(np.sqrt(l2_sq))
    h1 = float(np.sqrt(l2_sq + h1_sq))
    return l2, h1, geometric_mean(h1, l2)


def multiplier_l2_error(tmap: TraceMap, hat_values: np.ndarray, flux_fn, kinks) -> float:
    """L2(Gamma_S) distance between the nodal multiplier and the exact flux."""
    return float(np.sqrt(_l2_gap_sq(flux_fn, tmap.x, hat_values, kinks)))


def prolong_trace_values(values: np.ndarray, times: int) -> np.ndarray:
    """Exact nodal prolongation of a P1 line function through `times` halvings."""
    v = np.asarray(values, dtype=float)
    for _ in range(times):
        out = np.empty(2 * v.shape[0] - 1)
        out[::2] = v
        out[1::2] = 0.5 * (v[:-1] + v[1:])
        v = out
    return v


def dual_norm(e: np.ndarray, h: float) -> float:
    """Discrete dual norm of a nodal error e on a uniform line grid of step h.

    The sup over the P1 functions w vanishing at the endpoints of
    <e, w> / ||w||_H1 is sqrt(r^T H^-1 r), with r = M e on the interior
    nodes and H = M + K the interior block of the H1 Gram matrix.  The
    orthonormal DST-I diagonalizes both blocks: M = (h/6) tridiag(1, 4, 1)
    to m_k = h (1 - lam_k / 6) and K = tridiag(-1, 2, -1) / h to
    k_k = lam_k / h, so the value is sqrt(sum r_k^2 / (m_k + k_k)) over the
    transformed r.
    """
    r = h / 6.0 * (e[:-2] + 4.0 * e[1:-1] + e[2:])
    lam = second_difference_eigenvalues(r.shape[0])
    val = float(np.sum(_dst1(r, 0) ** 2 / (h * (1.0 - lam / 6.0) + lam / h)))
    if not np.isfinite(val):
        raise ValueError("dual norm is not finite")
    return float(np.sqrt(val))


def h_minus1_error(hat_values: np.ndarray, level: int, flux_fn, ref_level: int) -> float:
    """H^-1(Gamma_S) error of a nodal multiplier on the reference trace space.

    The multiplier (nodal values over all trace vertices of its level) is
    prolongated exactly to the reference grid, ``mesh.trace_grid(ref_level)``;
    the exact flux enters by nodal interpolation there.
    """
    if ref_level < level:
        raise ValueError("reference level must not be coarser than the data")
    fine = prolong_trace_values(hat_values, ref_level - level)
    x_ref = trace_grid(ref_level)
    if fine.shape[0] != x_ref.shape[0]:
        raise ValueError("trace value count does not match its level")
    err = fine - flux_fn(x_ref)
    return dual_norm(err, (x_ref[-1] - x_ref[0]) / (x_ref.shape[0] - 1))


def error_report(
    mesh: TriMesh,
    tmap: TraceMap,
    solution,
    sol,
    ref_level: int,
    lam_tilde,
) -> dict:
    """The error columns of one converged level, keyed by ``RATE_KEYS``;
    the last three are those of lam_tilde, the consistency flux."""
    e_l2, e_h1 = volume_errors(mesh, solution.u.values, sol)
    t_l2, _, t_half = trace_errors(tmap, solution.u.values, sol)

    def multiplier_errors(coeffs) -> list:
        hat = postprocess_multiplier(coeffs)
        l2 = multiplier_l2_error(tmap, hat, sol.flux, sol.kink_x)
        hm1 = h_minus1_error(hat, mesh.level, sol.flux, ref_level)
        return [l2, hm1, geometric_mean(hm1, l2)]

    values = [e_l2, e_h1, t_l2, t_half, *multiplier_errors(solution.multiplier.values)]
    return dict(zip(RATE_KEYS, values + multiplier_errors(lam_tilde)))
