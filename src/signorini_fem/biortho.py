"""Biorthogonal multiplier basis on the contact boundary.

The multiplier space is spanned by piecewise-linear, discontinuous dual
functions psi_i associated with the interior Gamma_S vertices, scaled so that
<phi_j, psi_i> = delta_ij <phi_j, 1>.  On the reference trace element the
local pair is (2 - 3t, 3t - 1).  The discrete cone is the set of multipliers
with non-negative coefficients, and the trace coupling matrix is diagonal,
D_j = <phi_j, 1> (``assembly.boundary_lumped_mass``), which is what the
active-set solver exploits.  No crosspoint modification is applied at the
endpoints of Gamma_S: the contact set of the benchmark stays compactly
inside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import TriMesh, TraceMap


@dataclass(frozen=True)
class MultiplierFunction:
    """Multiplier coefficients, one per interior Gamma_S vertex.

    Membership in the discrete cone is equivalent to all coefficients
    being non-negative.
    """

    level: int
    values: np.ndarray

    def in_cone(self, tol: float = 0.0) -> bool:
        return bool(np.all(self.values >= -tol))


def dual_shape_values(t):
    """Values (psi_left, psi_right) of the dual pair on the reference element."""
    t = np.asarray(t, dtype=float)
    return 2.0 - 3.0 * t, 3.0 * t - 1.0


def assemble_coupling(mesh: TriMesh, tmap: TraceMap) -> np.ndarray:
    """Full coupling matrix <phi_j, psi_i> assembled by quadrature.

    Rows run over all Gamma_S vertices (hat functions, endpoints included),
    columns over multiplier DOFs.  Used to verify diagonality; two-point
    Gauss is exact for these quadratic products.
    """
    xg, wg = np.polynomial.legendre.leggauss(2)
    tq = 0.5 * (xg + 1.0)
    wq = 0.5 * wg
    n_trace = tmap.x.shape[0]
    mult_pos = np.flatnonzero(tmap.interior)
    coupling = np.zeros((n_trace, mult_pos.shape[0]))
    h = tmap.spacings()
    psi_l, psi_r = dual_shape_values(tq)
    phi_l, phi_r = 1.0 - tq, tq
    for e in range(n_trace - 1):
        # local duals belong to the element's left/right vertex; a dual is a
        # DOF only if its vertex is interior
        for local_psi, vtx in ((psi_l, e), (psi_r, e + 1)):
            if not tmap.interior[vtx]:
                continue
            col = int(np.searchsorted(mult_pos, vtx))
            coupling[e, col] += h[e] * np.sum(wq * phi_l * local_psi)
            coupling[e + 1, col] += h[e] * np.sum(wq * phi_r * local_psi)
    return coupling


def postprocess_multiplier(mult: MultiplierFunction, tmap: TraceMap) -> np.ndarray:
    """Re-expand multiplier coefficients in the nodal hat basis on Gamma_S.

    Returns nodal values over all trace vertices, zero at the endpoints.
    The hat representation is continuous and is the one used for plots and
    for measuring multiplier errors.
    """
    values = np.zeros(tmap.x.shape[0])
    values[tmap.interior] = mult.values
    return values
