"""Closed-form benchmark solution with a known contact interval.

The solution combines two translated corner singularities of type
r^(3/2) sin(3 theta / 2), one anchored at x_left and a reflected, weighted
copy anchored at x_right, localized by a quartic cut-off spline and damped in
y by the factor (1 - y^2):

    u(x, y) = ( S(x - x_left, y) * cut(x)
                + weight * S(x_right - x, y) * cut(1.4 - x) ) * (1 - y^2)

with S the singular term in polar coordinates about its anchor.  On the
contact boundary y = 0 this gives u = 0 exactly on [x_left, x_right] and
u < 0 outside, so the contact interval is [x_left, x_right] for the zero
obstacle.  The boundary flux (the multiplier) vanishes outside the contact
interval and behaves like the square root of the distance to either endpoint
inside it.

All evaluators are closed-form, vectorized over numpy arrays, and pure; the
volume load is obtained from the product rule using that the singular terms
are harmonic.  A finite-difference cross-check of the gradient and the
Laplacian lives in the test suite, not in any runtime path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: constant appearing in the reflected cut-off argument cut(1.4 - x); kept
#: literal (not WIDTH - x), which makes the construction asymmetric on
#: purpose for weight != 1.
REFLECTION_OFFSET = 1.4

X_LEFT_DEFAULT = 0.2 + 0.3 / math.pi
X_RIGHT_DEFAULT = 1.2 - 0.3 / math.pi


def singular_term(r, theta):
    """Corner singularity r^(3/2) * sin(3 theta / 2), zero at r = 0."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return r**1.5 * np.sin(1.5 * theta)


def _singular_with_gradient(r, theta):
    """singular_term and its partial derivatives along and across its axis."""
    sq = 1.5 * np.sqrt(r)
    return singular_term(r, theta), sq * np.sin(0.5 * theta), sq * np.cos(0.5 * theta)


@dataclass(frozen=True)
class CutoffSpline:
    """Quartic cut-off: 1 for s <= s0, 0 for s >= s1, C2 at s0 and C1 at s1.

    On [s0, s1] the unique quartic with p(s0)=1, p'(s0)=0, p''(s0)=0,
    p(s1)=0, p'(s1)=0 is q(t) = 1 - 4 t^3 + 3 t^4 in t = (s - s0)/(s1 - s0).
    It is non-negative and non-increasing everywhere.  Values for s < 0 are 1
    (the plateau extends to the left), since the reflected argument
    REFLECTION_OFFSET - x goes negative on the right part of the domain.
    """

    s0: float = 0.5
    s1: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.s0 < self.s1:
            raise ValueError(f"cut-off knots must satisfy 0 < s0 < s1, got ({self.s0}, {self.s1})")

    def _t(self, s):
        s = np.asarray(s, dtype=float)
        return np.clip((s - self.s0) / (self.s1 - self.s0), 0.0, 1.0)

    def __call__(self, s):
        t = self._t(s)
        return 1.0 + t**3 * (3.0 * t - 4.0)

    def d1(self, s):
        t = self._t(s)
        inside = (t > 0.0) & (t < 1.0)
        h = self.s1 - self.s0
        return np.where(inside, 12.0 * t**2 * (t - 1.0) / h, 0.0)

    def d2(self, s):
        t = self._t(s)
        inside = (t > 0.0) & (t < 1.0)
        h = self.s1 - self.s0
        return np.where(inside, (36.0 * t**2 - 24.0 * t) / h**2, 0.0)


@dataclass(frozen=True)
class ExactSolution:
    """Parameters and evaluators of the benchmark solution.

    The obstacle is g = 0, the contact interval is [x_left, x_right], and the
    Dirichlet datum on the other three sides is the trace of u itself.
    Exact complementarity of the pair (u, flux) requires the cut-off to
    vanish on the far inactive side, i.e. s1 <= x_right; this is validated.
    """

    x_left: float = X_LEFT_DEFAULT
    x_right: float = X_RIGHT_DEFAULT
    weight: float = 0.7
    cutoff: CutoffSpline = field(default_factory=CutoffSpline)

    def __post_init__(self):
        if not self.x_left < self.x_right:
            raise ValueError("x_left must be smaller than x_right")
        if not self.x_left < self.cutoff.s1 <= self.x_right:
            raise ValueError(
                "cut-off knot s1 must lie in (x_left, x_right] so that each "
                "singular term is switched off on the far inactive side; got "
                f"s1={self.cutoff.s1} with contact interval "
                f"[{self.x_left}, {self.x_right}]"
            )
        if self.weight <= 0.0:
            raise ValueError("reflection weight must be positive")

    @property
    def load_split_x(self) -> tuple[float, ...]:
        """Vertical lines across which the volume load is not smooth.

        The cut-off is C1 but not C2 at s1, so f jumps across x = s1 and
        x = REFLECTION_OFFSET - s1; at the s0 counterparts only higher
        derivatives jump.  Volume quadrature cells are split along these.
        """
        s0, s1 = self.cutoff.s0, self.cutoff.s1
        return tuple(sorted({REFLECTION_OFFSET - s1, s0, REFLECTION_OFFSET - s0, s1}))

    @property
    def kink_x(self) -> tuple[float, ...]:
        """Breakpoints of trace and flux integrands on the contact boundary:
        the transmission points plus the cut-off lines."""
        return tuple(sorted({self.x_left, self.x_right, *self.load_split_x}))

    # polar data of the two singular terms; theta in [0, pi] for y >= 0
    def _polar(self, xi, y):
        r = np.hypot(xi, y)
        theta = np.arctan2(y, xi)
        return r, theta

    def u(self, x, y):
        """Solution value at (x, y) in the closed domain."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        s1 = singular_term(*self._polar(x - self.x_left, y))
        s2 = singular_term(*self._polar(self.x_right - x, y))
        c1 = self.cutoff(x)
        c2 = self.cutoff(REFLECTION_OFFSET - x)
        return (s1 * c1 + self.weight * s2 * c2) * (1.0 - y**2)

    def grad_u(self, x, y):
        """Gradient (u_x, u_y); at a transmission point the singular
        gradient vanishes like r^(1/2) and is continuously extended by 0."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        s1, s1x, s1y = _singular_with_gradient(*self._polar(x - self.x_left, y))
        s2, s2xi, s2y = _singular_with_gradient(*self._polar(self.x_right - x, y))
        c1 = self.cutoff(x)
        c2 = self.cutoff(REFLECTION_OFFSET - x)
        c1p = self.cutoff.d1(x)
        c2p = self.cutoff.d1(REFLECTION_OFFSET - x)  # derivative in the spline argument
        yfac = 1.0 - y**2
        a = self.weight
        ux = (s1x * c1 + s1 * c1p + a * (-s2xi) * c2 + a * s2 * (-c2p)) * yfac
        uy = (s1y * c1 + a * s2y * c2) * yfac + (s1 * c1 + a * s2 * c2) * (-2.0 * y)
        return ux, uy

    def rhs(self, x, y):
        """Volume load f = -Laplace(u).

        Each term is a product S * C(x) * Y(y) with S harmonic, so
        Laplace(S C Y) = 2 S_x C' Y + S C'' Y + 2 S_y C Y' + S C Y'' with
        Y = 1 - y^2.  The result is bounded on the closed domain.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        s1, s1x, s1y = _singular_with_gradient(*self._polar(x - self.x_left, y))
        s2, s2xi, s2y = _singular_with_gradient(*self._polar(self.x_right - x, y))
        c1 = self.cutoff(x)
        c2 = self.cutoff(REFLECTION_OFFSET - x)
        c1p = self.cutoff.d1(x)
        c2p = self.cutoff.d1(REFLECTION_OFFSET - x)
        c1pp = self.cutoff.d2(x)
        c2pp = self.cutoff.d2(REFLECTION_OFFSET - x)
        yfac = 1.0 - y**2
        # d/dx of cut(1.4 - x) is -c2p, d2/dx2 is +c2pp
        lap1 = 2.0 * s1x * c1p * yfac + s1 * c1pp * yfac - 4.0 * y * s1y * c1 - 2.0 * s1 * c1
        lap2 = (
            2.0 * (-s2xi) * (-c2p) * yfac
            + s2 * c2pp * yfac
            - 4.0 * y * s2y * c2
            - 2.0 * s2 * c2
        )
        return -(lap1 + self.weight * lap2)

    def flux(self, x):
        """Multiplier lambda(x) = -du/dn = du/dy on y = 0.

        Exactly zero outside [x_left, x_right] (branchwise, so that the
        complementarity lambda * u = 0 holds in exact floating point),
        non-negative, with square-root growth at the transmission points.
        """
        x = np.asarray(x, dtype=float)
        xi1 = x - self.x_left
        xi2 = self.x_right - x
        left = np.where(xi1 > 0.0, 1.5 * np.sqrt(np.maximum(xi1, 0.0)) * self.cutoff(x), 0.0)
        right = np.where(
            xi2 > 0.0,
            1.5 * self.weight * np.sqrt(np.maximum(xi2, 0.0)) * self.cutoff(REFLECTION_OFFSET - x),
            0.0,
        )
        return left + right

    def u_trace(self, x):
        """Trace u(x, 0); zero exactly on the contact interval."""
        x = np.asarray(x, dtype=float)
        return self.u(x, np.zeros_like(x))

    def u_trace_d1(self, x):
        """Tangential derivative of the trace, d/dx u(x, 0)."""
        x = np.asarray(x, dtype=float)
        return self.grad_u(x, np.zeros_like(x))[0]
