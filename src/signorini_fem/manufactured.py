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
inside it.  The transmission points x_left = 0.2 + 0.3/pi and
x_right = 1.2 - 0.3/pi are constants of ``ExactSolution``; its parameters
are the weight and the cut-off knots, which must be finite.

All evaluators are closed-form, vectorized over numpy arrays, and pure; the
volume load is obtained from the product rule using that the singular terms
are harmonic.  Each singular term is evaluated only on its cut-off's
support, x < s1 on the left and 1.4 - x < s1 on the right, and the spline
only on its band (s0, s1): elsewhere the skipped products are exact zeros
and the plateau values exactly 1 and 0, so the results are those of the
formulas on every point.  ``u_and_grad`` returns u and its gradient from
one evaluation of each term, for the volume norms.  A finite-difference
cross-check of the gradient and the Laplacian lives in the test suite, not
in any runtime path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

#: constant appearing in the reflected cut-off argument cut(1.4 - x); kept
#: literal (not WIDTH - x), which makes the construction asymmetric on
#: purpose for weight != 1.
REFLECTION_OFFSET = 1.4

#: A call with a coordinate of larger magnitude is evaluated unmasked: there
#: r**1.5 can overflow, and inf * 0 is NaN, not the zero a skipped term
#: stands for.
_BOUNDED = 1e100

#: Points per block of an evaluation.  A block's temporaries, 256 KiB each,
#: stay in a core's 2 MiB L2 cache; unblocked, the level-8 load and volume
#: norms took about 12 % longer on a 2-core Xeon.
_BLOCK = 1 << 15


def singular_term(r, theta):
    """Corner singularity r^(3/2) * sin(3 theta / 2), zero at r = 0."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return r**1.5 * np.sin(1.5 * theta)


def _singular_with_gradient(r, theta):
    """singular_term and its partial derivatives along and across its axis."""
    sq = 1.5 * np.sqrt(r)
    return singular_term(r, theta), sq * np.sin(0.5 * theta), sq * np.cos(0.5 * theta)


def _blockwise(method):
    """Evaluator decorator: method(self, x, y) gets x and y broadcast to
    float arrays of one shape, in flat blocks of ``_BLOCK`` points when there
    are more.  The evaluators are pointwise, so the blocks change no value;
    they keep the temporaries in cache.  method returns an array or a tuple
    of arrays."""

    @functools.wraps(method)
    def evaluate(self, x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        if x.size <= _BLOCK:
            return method(self, x, y)
        xf, yf = x.reshape(-1), y.reshape(-1)
        blocks = [method(self, xf[i : i + _BLOCK], yf[i : i + _BLOCK]) for i in range(0, xf.size, _BLOCK)]
        if isinstance(blocks[0], tuple):
            return tuple(np.concatenate(parts).reshape(x.shape) for parts in zip(*blocks))
        return np.concatenate(blocks).reshape(x.shape)

    return evaluate


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
        if not 0.0 < self.s0 < self.s1 < math.inf:
            raise ValueError(f"cut-off knots must satisfy 0 < s0 < s1 < inf, got ({self.s0}, {self.s1})")

    def _values(self, s, order: int) -> list:
        """The cut-off and its first ``order`` (at most 2) derivatives at s.

        The quartic is evaluated on the band s0 < s < s1 only, NaN included,
        so a NaN s gives NaN values; there t lies in (0, 1].  Below the band
        the values are exactly 1 and 0, above it all 0, as the quartic gives
        at t = 0 and t = 1.
        """
        s = np.asarray(s, dtype=float)
        below = s <= self.s0
        band = ~(below | (s >= self.s1))
        out = [np.asarray(below, dtype=float)] + [np.zeros(s.shape) for _ in range(order)]
        h = self.s1 - self.s0
        t = (s[band] - self.s0) / h
        out[0][band] = 1.0 + t**3 * (3.0 * t - 4.0)
        if order >= 1:
            # the derivatives are 0 at the band's ends; a NaN t is no end
            ends = (t <= 0.0) | (t >= 1.0)
            out[1][band] = np.where(ends, 0.0, 12.0 * t**2 * (t - 1.0) / h)
        if order >= 2:
            out[2][band] = np.where(ends, 0.0, (36.0 * t**2 - 24.0 * t) / h**2)
        return out

    def __call__(self, s):
        return self._values(s, 0)[0][()]

    def d1(self, s):
        return self._values(s, 1)[1][()]

    def d2(self, s):
        return self._values(s, 2)[2][()]


@dataclass(frozen=True)
class ExactSolution:
    """Parameters and evaluators of the benchmark solution.

    The obstacle is g = 0, the contact interval is the fixed [x_left,
    x_right], and the Dirichlet datum on the other three sides is the trace
    of u itself.  The reflection weight must be positive and finite.  Exact
    complementarity of the pair (u, flux) requires the cut-off to vanish on
    the far inactive side, i.e. s1 <= x_right; this is validated.
    """

    #: the transmission points, the ends of the contact interval
    x_left: ClassVar[float] = 0.2 + 0.3 / math.pi
    x_right: ClassVar[float] = 1.2 - 0.3 / math.pi

    weight: float = 0.7
    cutoff: CutoffSpline = field(default_factory=CutoffSpline)

    def __post_init__(self):
        if not self.x_left < self.cutoff.s1 <= self.x_right:
            raise ValueError(
                "cut-off knot s1 must lie in (x_left, x_right] so that each "
                "singular term is switched off on the far inactive side; got "
                f"s1={self.cutoff.s1} with contact interval "
                f"[{self.x_left}, {self.x_right}]"
            )
        if not 0.0 < self.weight < math.inf:
            raise ValueError(f"reflection weight must be positive and finite, got {self.weight}")

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
    def transmission_points(self) -> np.ndarray:
        """(x_left, 0) and (x_right, 0), where load and volume norms refine."""
        return np.array([[self.x_left, 0.0], [self.x_right, 0.0]])

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

    def _terms(self, x, y, order: int):
        """The left and the reflected right singular term, each with its
        cut-off and only where that cut-off can be nonzero.

        Yields (on, weight, y[on], factors) per term, weight 1 on the left.
        The factors are (S, C) for order 0 and (S, S_x, S_y, C, C_x) plus
        C_xx for order 2, all at the points of the mask ``on`` and all
        derivatives in x: the reflected term's S_xi and C' change sign.  Off
        ``on`` the cut-off and its derivatives are exactly 0, so every
        skipped product is an exact zero.  A call with a NaN, inf or huge
        coordinate keeps every point on both supports, so the formulas see
        them as they would unmasked.
        """
        tame = np.abs(x).max(initial=0.0) <= _BOUNDED and np.abs(y).max(initial=0.0) <= _BOUNDED
        for reflected in (False, True):
            if tame:
                on = (REFLECTION_OFFSET - x if reflected else x) < self.cutoff.s1
            else:
                on = np.ones(x.shape, dtype=bool)
            x_on, y_on = x[on], y[on]
            if reflected:
                xi, arg, weight = self.x_right - x_on, REFLECTION_OFFSET - x_on, self.weight
            else:
                xi, arg, weight = x_on - self.x_left, x_on, 1.0
            cut = self.cutoff._values(arg, order)
            if order == 0:
                yield on, weight, y_on, (singular_term(*self._polar(xi, y_on)), cut[0])
                continue
            s, s_x, s_y = _singular_with_gradient(*self._polar(xi, y_on))
            if reflected:
                s_x = -s_x
                cut[1] = -cut[1]
            yield on, weight, y_on, (s, s_x, s_y, *cut)

    @_blockwise
    def u(self, x, y):
        """Solution value at (x, y) in the closed domain."""
        v = np.zeros(x.shape)
        for on, a, _, (s, c) in self._terms(x, y, 0):
            v[on] += a * s * c
        return v * (1.0 - y**2)

    @_blockwise
    def u_and_grad(self, x, y):
        """(u, u_x, u_y) at (x, y), each singular term evaluated once; the
        values are those of ``u`` and ``grad_u``."""
        v, ux, uy = np.zeros(x.shape), np.zeros(x.shape), np.zeros(x.shape)
        for on, a, _, (s, s_x, s_y, c, c_x) in self._terms(x, y, 1):
            v[on] += a * s * c
            # u_x takes its four products one at a time, in the order of the
            # unmasked sum, so that no rounding moves
            part = ux[on]
            part += a * s_x * c
            part += a * s * c_x
            ux[on] = part
            uy[on] += a * s_y * c
        yfac = 1.0 - y**2
        return v * yfac, ux * yfac, uy * yfac + v * (-2.0 * y)

    def grad_u(self, x, y):
        """Gradient (u_x, u_y); at a transmission point the singular
        gradient vanishes like r^(1/2) and is continuously extended by 0."""
        return self.u_and_grad(x, y)[1:]

    @_blockwise
    def rhs(self, x, y):
        """Volume load f = -Laplace(u).

        Each term is a product S * C(x) * Y(y) with S harmonic, so
        Laplace(S C Y) = 2 S_x C' Y + S C'' Y + 2 S_y C Y' + S C Y'' with
        Y = 1 - y^2.  The result is bounded on the closed domain.
        """
        lap = np.zeros(x.shape)
        for on, a, y_on, (s, s_x, s_y, c, c_x, c_xx) in self._terms(x, y, 2):
            yfac = 1.0 - y_on**2
            lap[on] += a * (2.0 * s_x * c_x * yfac + s * c_xx * yfac - 4.0 * y_on * s_y * c - 2.0 * s * c)
        return -lap

    def flux(self, x):
        """Multiplier lambda(x) = -du/dn = du/dy on y = 0.

        Exactly zero outside [x_left, x_right] (branchwise, so that the
        complementarity lambda * u = 0 holds in exact floating point),
        non-negative, with square-root growth at the transmission points.
        NaN at a NaN x, which falls in neither zero branch.
        """
        x = np.asarray(x, dtype=float)
        xi1 = x - self.x_left
        xi2 = self.x_right - x
        left = np.where(xi1 <= 0.0, 0.0, 1.5 * np.sqrt(np.maximum(xi1, 0.0)) * self.cutoff(x))
        right = np.where(
            xi2 <= 0.0,
            0.0,
            1.5 * self.weight * np.sqrt(np.maximum(xi2, 0.0)) * self.cutoff(REFLECTION_OFFSET - x),
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
