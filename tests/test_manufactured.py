import math

import numpy as np
import pytest

from signorini_fem import mesh
from signorini_fem.manufactured import REFLECTION_OFFSET, CutoffSpline, ExactSolution, singular_term

from oracles import CutoffOracle, ExactOracle

SOLUTIONS = [ExactSolution(), ExactSolution(weight=1.3, cutoff=CutoffSpline(0.3, 0.8))]


@pytest.fixture(scope="module")
def sol():
    return ExactSolution()


def test_singular_term_values():
    assert singular_term(0.0, 0.3) == 0.0
    assert np.isclose(singular_term(1.0, np.pi / 2), math.sqrt(2) / 2, rtol=1e-15)
    assert np.isclose(singular_term(1.0, np.pi), -1.0, rtol=1e-15)


def test_parameters(sol):
    assert np.isclose(sol.x_left, 0.2 + 0.3 / math.pi, rtol=0, atol=0)
    assert np.isclose(sol.x_right, 1.2 - 0.3 / math.pi, rtol=0, atol=0)
    assert sol.weight == 0.7


def test_trace_zero_on_contact_interval(sol):
    assert sol.u(sol.x_left, 0.0) == 0.0
    x = np.linspace(sol.x_left, sol.x_right, 257)
    assert np.all(sol.u(x, np.zeros_like(x)) == 0.0)


def test_trace_negative_outside(sol):
    x = np.concatenate(
        [np.linspace(1e-6, sol.x_left - 1e-9, 100), np.linspace(sol.x_right + 1e-9, mesh.WIDTH - 1e-6, 100)]
    )
    assert np.all(sol.u_trace(x) < 0.0)


def test_trace_value_left_of_contact(sol):
    # second singular term is switched off there by the cut-off
    x = sol.x_left - 0.01
    assert np.isclose(sol.u(x, 0.0), -0.01**1.5, rtol=1e-12)


def test_gradient_matches_fd(sol):
    rng = np.random.default_rng(42)
    x = rng.uniform(0.05, mesh.WIDTH - 0.05, 100)
    y = rng.uniform(0.05, 0.45, 100)
    h = 1e-4
    ux_fd = (-sol.u(x + 2 * h, y) + 8 * sol.u(x + h, y) - 8 * sol.u(x - h, y) + sol.u(x - 2 * h, y)) / (12 * h)
    uy_fd = (-sol.u(x, y + 2 * h) + 8 * sol.u(x, y + h) - 8 * sol.u(x, y - h) + sol.u(x, y - 2 * h)) / (12 * h)
    ux, uy = sol.grad_u(x, y)
    assert np.abs(ux - ux_fd).max() <= 1e-6
    assert np.abs(uy - uy_fd).max() <= 1e-6


def test_gradient_zero_along_contact(sol):
    x = np.linspace(sol.x_left + 1e-12, sol.x_right - 1e-12, 101)
    ux, _ = sol.grad_u(x, np.zeros_like(x))
    assert np.all(ux == 0.0)


def test_gradient_vanishes_at_transmission_points(sol):
    ux, uy = sol.grad_u(sol.x_left, 0.0)
    assert ux == 0.0 and uy == 0.0


def test_symmetric_case_antisymmetric_slope():
    # with unit weight the construction is mirror symmetric about x = 0.7
    sym = ExactSolution(weight=1.0)
    delta = np.linspace(0.01, 0.3, 40)
    left, _ = sym.grad_u(0.7 - delta, np.zeros_like(delta))
    right, _ = sym.grad_u(0.7 + delta, np.zeros_like(delta))
    assert np.allclose(left, -right, rtol=1e-11, atol=1e-13)


def test_rhs_matches_fd_laplacian(sol):
    rng = np.random.default_rng(3)
    pts = []
    while len(pts) < 100:
        x = rng.uniform(0.05, mesh.WIDTH - 0.05)
        y = rng.uniform(0.05, 0.45)
        if min(np.hypot(x - sol.x_left, y), np.hypot(x - sol.x_right, y)) >= 0.05:
            pts.append((x, y))
    x, y = np.array(pts).T
    h = 1e-3
    lap = (sol.u(x + h, y) + sol.u(x - h, y) + sol.u(x, y + h) + sol.u(x, y - h) - 4 * sol.u(x, y)) / h**2
    assert np.abs(sol.rhs(x, y) + lap).max() <= 1e-4


def test_rhs_bounded_at_transmission_points(sol):
    eps = np.array([1e-3, 1e-6, 1e-9])
    vals = sol.rhs(sol.x_left + eps, eps)
    assert np.all(np.isfinite(vals))
    assert np.abs(vals).max() < 10.0
    assert np.isfinite(sol.rhs(sol.x_left, 1e-12))


def test_flux_zero_outside_contact(sol):
    x = np.concatenate([np.linspace(0.0, sol.x_left, 64), np.linspace(sol.x_right, mesh.WIDTH, 64)])
    lam = sol.flux(x)
    assert np.all(lam == 0.0)


def test_flux_zero_and_continuous_at_transmission(sol):
    assert sol.flux(sol.x_left) == 0.0
    assert sol.flux(sol.x_right) == 0.0
    eps = np.logspace(-8, -2, 13)
    inside = sol.flux(sol.x_left + eps)
    assert np.all(inside > 0.0)
    # square root growth: lambda ~ 1.5 sqrt(dist) near the left point
    assert np.allclose(inside, 1.5 * np.sqrt(eps), rtol=1e-6)


def test_flux_positive_inside(sol):
    assert sol.flux(0.7) > 0.0
    x = np.linspace(sol.x_left + 0.05, sol.x_right - 0.05, 101)
    assert np.all(sol.flux(x) > 0.0)


def test_complementarity_exact(sol):
    x = np.linspace(0.0, mesh.WIDTH, 10_000)
    u = sol.u_trace(x)
    lam = sol.flux(x)
    assert np.all(lam * u == 0.0)
    assert np.all(lam >= 0.0)
    assert np.all(u <= 0.0)


def test_cutoff_boundary_conditions():
    cut = CutoffSpline(0.5, 1.0)
    assert cut(0.0) == 1.0
    assert cut(-2.0) == 1.0
    assert cut(0.5) == 1.0
    assert cut(1.0) == 0.0
    assert cut(5.0) == 0.0
    assert cut.d1(0.5) == 0.0
    assert cut.d1(1.0) == 0.0
    assert cut.d2(0.5) == 0.0


def test_cutoff_midpoint_against_vandermonde_oracle():
    s0, s1 = 0.3, 0.9
    rows = []
    rhs = [1.0, 0.0, 0.0, 0.0, 0.0]
    rows.append([s0**i for i in range(5)])
    rows.append([0, 1, 2 * s0, 3 * s0**2, 4 * s0**3])
    rows.append([0, 0, 2, 6 * s0, 12 * s0**2])
    rows.append([s1**i for i in range(5)])
    rows.append([0, 1, 2 * s1, 3 * s1**2, 4 * s1**3])
    coef = np.linalg.solve(np.array(rows), np.array(rhs))
    cut = CutoffSpline(s0, s1)
    for s in np.linspace(s0, s1, 17):
        oracle = sum(c * s**i for i, c in enumerate(coef))
        assert np.isclose(cut(s), oracle, rtol=0, atol=1e-12)


def test_cutoff_monotone_nonincreasing():
    cut = CutoffSpline(0.5, 1.0)
    s = np.linspace(0.0, 1.5, 1000)
    assert np.all(cut.d1(s) <= 0.0)
    assert np.all(cut(s) >= 0.0)
    vals = cut(s)
    assert np.all(np.diff(vals) <= 1e-15)


def test_cutoff_derivatives_match_fd():
    cut = CutoffSpline(0.5, 1.0)
    s = np.linspace(0.51, 0.99, 37)
    h = 1e-6
    d1_fd = (cut(s + h) - cut(s - h)) / (2 * h)
    d2_fd = (cut(s + h) - 2 * cut(s) + cut(s - h)) / h**2
    assert np.abs(cut.d1(s) - d1_fd).max() < 1e-8
    assert np.abs(cut.d2(s) - d2_fd).max() < 1e-3


def test_invalid_parameters():
    with pytest.raises(ValueError):
        CutoffSpline(0.5, 0.5)
    with pytest.raises(ValueError):
        CutoffSpline(-0.1, 0.5)
    with pytest.raises(ValueError):
        # cut-off must vanish on the far inactive side (s1 <= x_right)
        ExactSolution(cutoff=CutoffSpline(0.5, 1.3))
    with pytest.raises(ValueError):
        ExactSolution(weight=-1.0)


@pytest.mark.parametrize(
    "make, value",
    [
        (lambda v: ExactSolution(weight=v), math.nan),
        (lambda v: ExactSolution(weight=v), math.inf),
        (lambda v: ExactSolution(weight=v), -math.inf),
        (lambda v: CutoffSpline(0.5, v), math.inf),
    ],
    ids=["weight-nan", "weight-inf", "weight-minus-inf", "s1-inf"],
)
def test_non_finite_parameters_are_refused_by_name(make, value):
    with pytest.raises(ValueError, match=f"got .*{value}"):
        make(value)


def test_kink_lines(sol):
    assert np.allclose(sol.load_split_x, (0.4, 0.5, 0.9, 1.0), rtol=0, atol=1e-15)
    assert sol.x_left in sol.kink_x and sol.x_right in sol.kink_x


def test_transmission_points_lie_on_the_contact_boundary(sol):
    # the points near which the load and the volume norms refine, as float64
    tps = sol.transmission_points
    assert tps.dtype == np.float64
    assert tps.tolist() == [[sol.x_left, 0.0], [sol.x_right, 0.0]]
    assert tps is not sol.transmission_points  # a new array per call: no caller can edit the next one's


def _special_x(sol):
    """The anchors, the domain ends and every knot of both cut-offs, each
    with one step of rounding on either side."""
    s0, s1 = sol.cutoff.s0, sol.cutoff.s1
    knots = np.array([sol.x_left, sol.x_right, 0.0, mesh.WIDTH, s0, s1, REFLECTION_OFFSET - s0, REFLECTION_OFFSET - s1])
    return np.concatenate([knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf)])


def _assert_same(new, old):
    """Bit-equal values (NaN equal to NaN), in the same structure."""
    if isinstance(old, tuple):
        assert isinstance(new, tuple) and len(new) == len(old)
        for a, b in zip(new, old):
            _assert_same(a, b)
        return
    assert np.shape(new) == np.shape(old)
    assert np.array_equal(new, old, equal_nan=True)


def _assert_evaluators_match(sol, x, y):
    oracle = ExactOracle(sol)
    _assert_same(sol.u(x, y), oracle.u(x, y))
    _assert_same(sol.grad_u(x, y), oracle.grad_u(x, y))
    _assert_same(sol.rhs(x, y), oracle.rhs(x, y))
    _assert_same(sol.u_and_grad(x, y), (oracle.u(x, y), *oracle.grad_u(x, y)))


@pytest.mark.parametrize("sol", SOLUTIONS, ids=["default", "w1.3-knots0.3,0.8"])
def test_evaluators_equal_the_unmasked_formulas(sol):
    # skipping each term off its cut-off's support changes no bit
    rng = np.random.default_rng(2024)
    x = rng.uniform(0.0, mesh.WIDTH, 200_000)
    y = rng.uniform(0.0, mesh.HEIGHT, 200_000)
    _assert_evaluators_match(sol, x, y)
    sx = _special_x(sol)
    xs, ys = np.meshgrid(sx, [0.0, 1e-9, 0.3, mesh.HEIGHT])
    _assert_evaluators_match(sol, xs, ys)
    _assert_evaluators_match(sol, np.empty(0), np.empty(0))
    _assert_evaluators_match(sol, sx, 0.0)  # broadcast y
    _assert_evaluators_match(sol, 0.7, np.linspace(0.0, 1.0, 5))  # broadcast x
    for xk in sx:
        _assert_evaluators_match(sol, xk, 0.25)  # scalars
    # (t, 6) blocks as the quadrature passes them, and strided views
    tx = rng.uniform(0.0, mesh.WIDTH, (10_000, 12))
    ty = rng.uniform(0.0, mesh.HEIGHT, (10_000, 12))
    _assert_evaluators_match(sol, tx[:, :6], ty[:, :6])
    _assert_evaluators_match(sol, tx[:, ::2], ty[:, 1::2])
    _assert_evaluators_match(sol, np.ascontiguousarray(tx[:, :6]), np.ascontiguousarray(ty[:, :6]))
    zeros = np.zeros_like(sx)
    _assert_same(sol.u_trace(sx), ExactOracle(sol).u(sx, zeros))
    _assert_same(sol.u_trace_d1(sx), ExactOracle(sol).grad_u(sx, zeros)[0])
    # the flux, signed zeros included
    for points in (x, sx):
        new, old = sol.flux(points), ExactOracle(sol).flux(points)
        assert new.dtype == old.dtype and new.tobytes() == old.tobytes()


@pytest.mark.parametrize("knots", [(0.5, 1.0), (0.3, 0.8)])
def test_cutoff_equals_the_clipped_quartic(knots):
    cut, oracle = CutoffSpline(*knots), CutoffOracle(*knots)
    rng = np.random.default_rng(7)
    s0, s1 = knots
    edges = np.array([s0, s1, 0.0, -1.0, 2.0])
    s = np.concatenate(
        [rng.uniform(-1.5, 2.5, 200_000), edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]
    )
    s = np.concatenate([s, [np.inf, -np.inf, np.nan]])
    for name in ("__call__", "d1", "d2"):
        _assert_same(getattr(cut, name)(s), getattr(oracle, name)(s))
        _assert_same(getattr(cut, name)(s.reshape(-1, 1)[::3]), getattr(oracle, name)(s.reshape(-1, 1)[::3]))
        for v in (s0, s1, 0.7, -3.0, 4.0):
            new, old = getattr(cut, name)(v), getattr(oracle, name)(v)
            assert np.shape(new) == np.shape(old) == () and new == old


@pytest.mark.parametrize("sol", SOLUTIONS, ids=["default", "w1.3-knots0.3,0.8"])
def test_non_finite_points_stay_loud(sol):
    # a NaN coordinate must reach the formulas, not fall off a support mask
    with np.errstate(invalid="ignore", over="ignore"):
        for x, y in ((np.nan, 0.1), (0.3, np.nan), (1.8, np.nan), (np.nan, 0.0)):
            assert np.isnan(sol.u(x, y))
            assert np.isnan(sol.rhs(x, y))
            assert all(np.isnan(sol.grad_u(x, y)))
            assert all(np.isnan(sol.u_and_grad(x, y)))
            xs = np.array([0.2, x, 1.9])
            assert np.isnan(sol.u(xs, y)).tolist() == [np.isnan(y), True, np.isnan(y)]
        # the flux and the cut-off's derivatives are NaN at NaN, not 0
        s0, s1 = sol.cutoff.s0, sol.cutoff.s1
        for fn, finite in ((sol.flux, sol.x_left), (sol.cutoff.d1, s0), (sol.cutoff.d2, s1)):
            assert np.isnan(fn(np.nan))
            assert np.isnan(fn(np.array([finite, np.nan, 0.5 * (s0 + s1)]))).tolist() == [False, True, False]
        assert np.isnan(sol.u_trace(np.nan)) and np.isnan(sol.u_trace_d1(np.nan))
        # infinite and huge points give what the unmasked formulas give
        x = np.array([np.inf, -np.inf, 1.5, 2.0, 1e300, 0.5])
        y = np.array([0.2, 0.2, np.inf, 1e200, 0.1, -np.inf])
        _assert_evaluators_match(sol, x, y)
