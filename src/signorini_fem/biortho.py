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

from .mesh import TraceMap


@dataclass(frozen=True)
class MultiplierFunction:
    """Multiplier coefficients, one per interior Gamma_S vertex.

    Membership in the discrete cone is equivalent to all coefficients
    being non-negative.
    """

    level: int
    values: np.ndarray


def dual_shape_values(t):
    """Values (psi_left, psi_right) of the dual pair on the reference element."""
    t = np.asarray(t, dtype=float)
    return 2.0 - 3.0 * t, 3.0 * t - 1.0


def postprocess_multiplier(mult: MultiplierFunction, tmap: TraceMap) -> np.ndarray:
    """Re-expand multiplier coefficients in the nodal hat basis on Gamma_S.

    Returns nodal values over all trace vertices, zero at the endpoints.
    The hat representation is continuous and is the one used for plots and
    for measuring multiplier errors.
    """
    values = np.zeros(tmap.x.shape[0])
    values[tmap.interior] = mult.values
    return values
