"""Error norms of the benchmark study.

Volume norms use a fixed triangle rule per cell, with graded quadrisection
near the transmission points, where the exact solution has fractional
regularity.  The subdivision runs breadth first: all pieces of one depth
form one batch, so the exact solution is evaluated a few times per depth
rather than once per piece.  Trace norms are adaptive G10/K21 integrals
(``quad``) over all trace elements at once, split at the known kink
locations.  The negative-order boundary norm is a discrete dual norm on a
fine reference trace grid (``mesh.trace_grid``): the nodal multiplier
is prolongated exactly, the exact flux is interpolated, and the dual norm
against the H1 Gram matrix of the reference space is evaluated by a sparse solve.
Fractional norms are the geometric-mean surrogates sqrt(H1 * L2) and
sqrt(H-1 * L2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import (
    TRIANGLE_CHUNK,
    element_gradients,
    line_grams,
    quad,
    quadrisect,
    tri_quadrature,
    triangle_areas,
)
from .biortho import postprocess_multiplier
from .mesh import TriMesh, TraceMap, cells_near, trace_grid

#: Degree of the fixed triangle rule of the volume norms.
VOLUME_DEGREE = 4
#: Quadrisection depth of the volume norms near the transmission points.
VOLUME_DEPTH = 6
#: Tolerances of the adaptive trace and multiplier quadrature.
TRACE_EPSABS = 1e-14
TRACE_EPSREL = 1e-10


@dataclass(frozen=True)
class ErrorReport:
    """All error norms of one level, plus the quadrature settings used."""

    level: int
    e_L2_omega: float
    e_H1_omega: float  # seminorm
    e_L2_gammaS: float
    e_H1_gammaS: float
    e_Hhalf_gammaS: float
    e_L2_lambda: float
    e_Hminus1_lambda: float
    e_Hminushalf_lambda: float
    e_L2_lambda_tilde: float | None = None
    e_Hminus1_lambda_tilde: float | None = None
    e_Hminushalf_lambda_tilde: float | None = None
    tolerances: dict = field(default_factory=dict)


def geometric_mean(a: float, b: float) -> float:
    """sqrt(a * b): the surrogate H^1/2 and H^-1/2 norms of H1 or H^-1 with L2."""
    return float(np.sqrt(a * b))


def _affine_data(mesh: TriMesh, u_values: np.ndarray):
    """Per-triangle affine representation (c0, cx, cy) and gradient of u_h."""
    grads, _ = element_gradients(mesh.vertices[mesh.triangles])  # (t, 2, 3)
    vals = u_values[mesh.triangles]  # (t, 3)
    g = np.einsum("tdk,tk->td", grads, vals)  # (t, 2)
    v0 = mesh.vertices[mesh.triangles[:, 0]]
    c0 = vals[:, 0] - np.einsum("td,td->t", g, v0)
    return c0, g


def volume_errors(
    mesh: TriMesh,
    u_values: np.ndarray,
    sol,
    max_depth: int = VOLUME_DEPTH,
    graded: bool = True,
):
    """L2 and H1-seminorm errors of a nodal function against sol.

    Triangles whose closure is within 2h of a transmission point are
    integrated by repeated quadrisection up to max_depth, graded by the
    local diameter (a piece splits while a transmission point lies within
    twice its diameter) or uniformly when graded=False; everywhere else a
    single fixed rule of degree ``VOLUME_DEGREE`` is used.
    """
    bary, w = tri_quadrature(VOLUME_DEGREE)
    c0, g = _affine_data(mesh, u_values)
    tps = np.array([[sol.x_left, 0.0], [sol.x_right, 0.0]])

    def leaf_sums(tri, owner, leaves):
        l2 = h1 = 0.0
        for start in range(0, leaves.shape[0], TRIANGLE_CHUNK):
            sel = leaves[start : start + TRIANGLE_CHUNK]
            cells = tri[sel]
            t = owner[sel, None]
            pts = np.einsum("qk,tkd->tqd", bary, cells)
            x = pts[..., 0]
            y = pts[..., 1]
            ue = sol.u(x, y)
            uex, uey = sol.grad_u(x, y)
            uh = c0[t] + g[t, 0] * x + g[t, 1] * y
            area = triangle_areas(cells)
            l2 += float(np.einsum("tq,q,t->", (ue - uh) ** 2, w, area))
            h1 += float(np.einsum("tq,q,t->", (uex - g[t, 0]) ** 2 + (uey - g[t, 1]) ** 2, w, area))
        return l2, h1

    tri = mesh.vertices[mesh.triangles]
    owner = np.arange(mesh.num_triangles)
    split = cells_near(tri, tps, 2.0 * mesh.max_edge_length())
    total_l2 = total_h1 = 0.0
    for depth in range(max_depth + 1):
        if depth == max_depth:
            split[:] = False
        elif graded:
            near = tri[split]
            edges = near - np.roll(near, -1, axis=1)
            diam = np.hypot(edges[..., 0], edges[..., 1]).max(axis=1)
            split[split] = cells_near(near, tps, 2.0 * diam)
        l2, h1 = leaf_sums(tri, owner, np.flatnonzero(~split))
        total_l2 += l2
        total_h1 += h1
        if not split.any():
            break
        tri = quadrisect(tri[split]).reshape(-1, 3, 2)
        owner = np.repeat(owner[split], 4)
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


def dual_norm(err_values: np.ndarray, mass, h1gram) -> float:
    """Discrete dual norm of a nodal error against the H1 Gram matrix.

    Computes sup over the reference space functions vanishing at the
    endpoints of <e, w> / ||w||_H1 via one sparse solve: with r = M e,
    the value is sqrt(r^T y) where H y = r on the interior nodes.
    """
    r = mass @ err_values
    inner = slice(1, -1)
    h_inner = h1gram[inner, inner].tocsc()
    y = spla.spsolve(h_inner, r[inner])
    val = float(r[inner] @ y)
    if not np.isfinite(val) or val < -1e-14:
        raise ValueError("dual norm solve failed")
    return float(np.sqrt(max(val, 0.0)))


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
    mass, stiff = line_grams(x_ref)
    return dual_norm(err, mass, (mass + stiff).tocsr())


def error_report(
    mesh: TriMesh,
    tmap: TraceMap,
    solution,
    sol,
    ref_level: int,
    lam_tilde=None,
) -> ErrorReport:
    """Collect every norm of one converged level into an ErrorReport."""
    e_l2, e_h1 = volume_errors(mesh, solution.u.values, sol)
    t_l2, t_h1, t_half = trace_errors(tmap, solution.u.values, sol)

    def multiplier_errors(coeffs, suffix: str) -> dict:
        hat = postprocess_multiplier(coeffs)
        l2 = multiplier_l2_error(tmap, hat, sol.flux, sol.kink_x)
        hm1 = h_minus1_error(hat, mesh.level, sol.flux, ref_level)
        return {
            f"e_L2_lambda{suffix}": l2,
            f"e_Hminus1_lambda{suffix}": hm1,
            f"e_Hminushalf_lambda{suffix}": geometric_mean(hm1, l2),
        }

    fields = multiplier_errors(solution.multiplier.values, "")
    if lam_tilde is not None:
        fields.update(multiplier_errors(lam_tilde, "_tilde"))
    return ErrorReport(
        level=mesh.level,
        e_L2_omega=e_l2,
        e_H1_omega=e_h1,
        e_L2_gammaS=t_l2,
        e_H1_gammaS=t_h1,
        e_Hhalf_gammaS=t_half,
        tolerances=dict(
            volume_degree=VOLUME_DEGREE,
            volume_depth=VOLUME_DEPTH,
            trace_epsabs=TRACE_EPSABS,
            trace_epsrel=TRACE_EPSREL,
            ref_level=ref_level,
        ),
        **fields,
    )
