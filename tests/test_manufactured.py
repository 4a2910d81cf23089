import math

import numpy as np
import pytest

from signorini_fem import mesh
from signorini_fem.manufactured import CutoffSpline, ExactSolution, singular_term


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


def test_kink_lines(sol):
    assert np.allclose(sol.load_split_x, (0.4, 0.5, 0.9, 1.0), rtol=0, atol=1e-15)
    assert sol.x_left in sol.kink_x and sol.x_right in sol.kink_x
