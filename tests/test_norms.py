import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from signorini_fem import ExactSolution, build_system, mesh_at_level, trace_map
from signorini_fem.mesh import WIDTH, trace_grid
from signorini_fem.assembly import element_gradients, quad, tri_quadrature
from signorini_fem.biortho import postprocess_multiplier
from signorini_fem.norms import (
    RATE_KEYS,
    dual_norm,
    error_report,
    geometric_mean,
    h_minus1_error,
    multiplier_l2_error,
    prolong_trace_values,
    trace_errors,
    volume_errors,
)
from signorini_fem.study import averaged_rate
from signorini_fem.solver import solve_vi

from oracles import ExactOracle, dual_norm_spsolve, dual_norm_thomas, line_grams, volume_errors_einsum


@pytest.fixture(scope="module")
def sol():
    return ExactSolution()


class AffineData:
    """Affine stand-in for the exact solution, reproduced exactly by P1."""

    transmission_points = np.array([[0.3, 0.0], [1.1, 0.0]])
    kink_x = ()

    @staticmethod
    def u(x, y):
        return 0.5 * np.asarray(x) - 0.25 * np.asarray(y) + 0.125

    @staticmethod
    def grad_u(x, y):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.ones_like(x), -0.25 * np.ones_like(x)

    @staticmethod
    def u_and_grad(x, y):
        return (AffineData.u(x, y), *AffineData.grad_u(x, y))

    @staticmethod
    def u_trace(x):
        return AffineData.u(x, 0.0)

    @staticmethod
    def u_trace_d1(x):
        return 0.5 * np.ones_like(np.asarray(x, dtype=float))


def test_volume_errors_affine_exact():
    m = mesh_at_level(2)
    data = AffineData()
    nodal = data.u(m.vertices[:, 0], m.vertices[:, 1])
    l2, h1 = volume_errors(m, nodal, data)
    assert l2 <= 1e-12
    assert h1 <= 1e-12


def test_trace_errors_affine_exact():
    m = mesh_at_level(2)
    tm = trace_map(m)
    data = AffineData()
    nodal = data.u(m.vertices[:, 0], m.vertices[:, 1])
    l2, h1, half = trace_errors(tm, nodal, data)
    assert l2 <= 1e-12 and h1 <= 1e-12 and half <= 1e-12


def test_interpolant_convergence_rate(sol):
    # independent of any solver: nodal interpolation converges at order 2
    errs = {}
    for level in range(3, 8):
        m = mesh_at_level(level)
        nodal = sol.u(m.vertices[:, 0], m.vertices[:, 1])
        errs[level], _ = volume_errors(m, nodal, sol)
    rate = averaged_rate(errs[3], errs[7], 5)
    assert 1.9 <= rate <= 2.1


def test_adaptive_vs_uniform_depth(sol):
    m = mesh_at_level(4)
    nodal = sol.u(m.vertices[:, 0], m.vertices[:, 1])
    graded_l2, graded_h1 = volume_errors(m, nodal, sol)
    full_l2, full_h1 = volume_errors_einsum(m, nodal, sol, graded=False)
    assert abs(graded_l2 - full_l2) <= 1e-4 * full_l2
    assert abs(graded_h1 - full_h1) <= 1e-4 * full_h1


def test_error_report_returns_the_columns_in_order(sol):
    m = mesh_at_level(2)
    tm = trace_map(m)
    vi = solve_vi(m, tm, sol)
    errors = error_report(m, tm, vi, sol, ref_level=4, lam_tilde=vi.multiplier.values)
    assert list(errors) == list(RATE_KEYS)


def test_trace_fractional_norm_definition(sol):
    m = mesh_at_level(3)
    tm = trace_map(m)
    nodal = sol.u(m.vertices[:, 0], m.vertices[:, 1])
    l2, h1, half = trace_errors(tm, nodal, sol)
    assert np.isclose(half * half, l2 * h1, rtol=1e-12)


def test_geometric_mean_values():
    assert np.isclose(geometric_mean(2.0, 8.0), 4.0, rtol=1e-15)
    assert geometric_mean(0.0, 1.0) == 0.0
    assert np.isclose(geometric_mean(1e-2, 1e-4), 1e-3, rtol=1e-14)
    assert geometric_mean(2e-2, 1e-4) > geometric_mean(1e-2, 1e-4)
    assert geometric_mean(1e-2, 2e-4) > geometric_mean(1e-2, 1e-4)


def test_dual_norm_zero():
    assert dual_norm(np.zeros(9), 0.125) == 0.0


def test_dual_norm_single_hat_against_dense_oracle():
    x = np.linspace(0.0, 2.0, 9)
    mass, stiff = line_grams(x)
    h1 = (mass + stiff).tocsr()
    for j in (1, 4, 7):
        e = np.zeros(9)
        e[j] = 1.0
        val = dual_norm(e, 0.25)
        m_dense = mass.toarray()
        h_dense = h1.toarray()[1:-1, 1:-1]
        r = (m_dense @ e)[1:-1]
        oracle = np.sqrt(r @ np.linalg.solve(h_dense, r))
        assert np.isclose(val, oracle, rtol=1e-12)


def test_dual_norm_bounded_by_l2():
    # H1 gram dominates the mass, so the dual norm is at most the L2 norm
    rng = np.random.default_rng(23)
    x = np.linspace(0.0, 1.5, 33)
    mass, _ = line_grams(x)
    for _ in range(10):
        e = rng.standard_normal(33)
        e[0] = e[-1] = 0.0
        dn = dual_norm(e, 1.5 / 32)
        l2 = float(np.sqrt(e @ (mass @ e)))
        assert dn <= l2 * (1.0 + 1e-12)


def test_dual_norm_of_nan_raises():
    e = np.zeros(17)
    e[5] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        dual_norm(e, 1.0 / 16)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_volume_errors_of_a_non_finite_value_raise(sol, bad):
    # a bad nodal value used to give (nan, nan)
    m = mesh_at_level(3)
    u = sol.u(m.vertices[:, 0], m.vertices[:, 1])
    u[[7, m.num_vertices // 2]] = bad
    with pytest.raises(ValueError, match=f"2 non-finite of {m.num_vertices} nodal values"):
        volume_errors(m, u, sol)


def test_spectral_dual_norm_matches_the_tridiagonal_oracles(sol):
    rng = np.random.default_rng(17)
    cases = []
    for ref_level in range(2, 14):
        x_ref = trace_grid(ref_level)
        err = rng.standard_normal(x_ref.shape[0])  # nonzero endpoints
        cases.append((dual_norm(err, WIDTH / (x_ref.shape[0] - 1)), err, x_ref))
    # the study's level-4 and level-8 multiplier errors, reference = level + 4
    for level in (4, 8):
        m = mesh_at_level(level)
        tm = trace_map(m)
        hat = postprocess_multiplier(solve_vi(m, tm, sol, system=build_system(m, tm, sol)).multiplier.values)
        x_ref = trace_grid(level + 4)
        err = prolong_trace_values(hat, 4) - sol.flux(x_ref)
        cases.append((h_minus1_error(hat, level, sol.flux, level + 4), err, x_ref))
    for val, err, x_ref in cases:
        assert np.isclose(val, dual_norm_thomas(err, x_ref), rtol=1e-12, atol=0.0)
        mass, stiff = line_grams(x_ref)
        assert np.isclose(val, dual_norm_spsolve(err, mass, (mass + stiff).tocsr()), rtol=1e-9, atol=0.0)


def test_prolong_trace_values_exact():
    coarse = np.array([0.0, 1.0, -2.0, 3.0, 0.0])
    fine = prolong_trace_values(coarse, 1)
    assert np.array_equal(fine[::2], coarse)
    assert np.array_equal(fine[1::2], 0.5 * (coarse[:-1] + coarse[1:]))
    finer = prolong_trace_values(coarse, 3)
    assert finer.shape[0] == 8 * (coarse.shape[0] - 1) + 1


def test_reference_trace_grid_matches_mesh(sol):
    # the exact flux's interpolant on a level's own trace vertices is the
    # reference interpolant when both grids are one
    for level in (1, 2, 3):
        tm = trace_map(mesh_at_level(level))
        assert h_minus1_error(sol.flux(tm.x), level, sol.flux, ref_level=level) <= 1e-14


def test_h_minus1_error_validates(sol):
    with pytest.raises(ValueError):
        h_minus1_error(np.zeros(5), 2, sol.flux, ref_level=1)
    with pytest.raises(ValueError):
        h_minus1_error(np.zeros(6), 1, sol.flux, ref_level=3)


def test_h_minus1_error_of_interpolated_flux_is_small(sol):
    # interpolating the exact flux leaves only the interpolation error
    level = 4
    tm = trace_map(mesh_at_level(level))
    nodal = sol.flux(tm.x)
    err = h_minus1_error(nodal, level, sol.flux, ref_level=level + 3)
    zero = h_minus1_error(np.zeros_like(nodal), level, sol.flux, ref_level=level + 3)
    assert err < 0.02 * zero


def test_multiplier_l2_error_against_dense_sampling(sol):
    level = 3
    tm = trace_map(mesh_at_level(level))
    nodal = sol.flux(tm.x) * 0.9
    adaptive = multiplier_l2_error(tm, nodal, sol.flux, kinks=sol.kink_x)
    xs = np.linspace(0.0, WIDTH, 2_000_001)
    vals = (sol.flux(xs) - np.interp(xs, tm.x, nodal)) ** 2
    riemann = float(np.sqrt(np.trapezoid(vals, xs)))
    assert np.isclose(adaptive, riemann, rtol=1e-6)


def test_reference_level_stability_quick(sol):
    # fine-space dual norms barely move when the reference level increases
    from signorini_fem import build_system, solve_vi
    from signorini_fem.biortho import postprocess_multiplier

    level = 3
    m = mesh_at_level(level)
    tm = trace_map(m)
    system = build_system(m, tm, sol)
    vi = solve_vi(m, tm, sol, system=system)
    hat = postprocess_multiplier(vi.multiplier.values)
    a = h_minus1_error(hat, level, sol.flux, ref_level=level + 3)
    b = h_minus1_error(hat, level, sol.flux, ref_level=level + 4)
    assert abs(a - b) <= 0.02 * max(a, b)


# ------------------------------------------------------------------ oracles
# The loops below are the per-element and per-cell quadratures that the
# batched rules replaced; they stay here as references.


def _trace_integral_oracle(fn, x, kinks, epsabs=1e-14, epsrel=1e-10):
    """Sum over elements of one scipy quad call each; fn(s, e) on element e."""
    total = 0.0
    for e, (lo, hi) in enumerate(zip(x[:-1], x[1:])):
        pts = [k for k in kinks if lo < k < hi]
        val, _ = scipy_quad(
            lambda s: fn(s, e), lo, hi, points=pts or None, epsabs=epsabs, epsrel=epsrel, limit=200
        )
        total += val
    return total


def _trace_errors_oracle(tm, u_values, sol):
    x = tm.x
    vals = u_values[tm.vertices]
    slopes = np.diff(vals) / np.diff(x)
    l2_sq = _trace_integral_oracle(lambda s, e: (sol.u_trace(s) - np.interp(s, x, vals)) ** 2, x, sol.kink_x)
    h1_sq = _trace_integral_oracle(lambda s, e: (sol.u_trace_d1(s) - slopes[e]) ** 2, x, sol.kink_x)
    return np.sqrt(l2_sq), np.sqrt(l2_sq + h1_sq)


def _multiplier_l2_oracle(tm, hat, flux, kinks):
    return np.sqrt(_trace_integral_oracle(lambda s, e: (flux(s) - np.interp(s, tm.x, hat)) ** 2, tm.x, kinks))


def _volume_errors_oracle(mesh, u_values, sol, max_depth=6, degree=4):
    """Per-triangle depth-first quadrisection with scalar geometry."""
    bary, w = tri_quadrature(degree)
    grads, _ = element_gradients(mesh.vertices[mesh.triangles])
    vals = u_values[mesh.triangles]
    g = np.einsum("tdk,tk->td", grads, vals)
    c0 = vals[:, 0] - np.einsum("td,td->t", g, mesh.vertices[mesh.triangles[:, 0]])
    tps = [np.array([sol.x_left, 0.0]), np.array([sol.x_right, 0.0])]
    edges = ((0, 1), (1, 2), (2, 0))

    def dist(tri):
        best = np.inf
        for p in tps:
            d2 = np.inf
            inside = True
            for i, j in edges:
                a = tri[i]
                ab = tri[j] - a
                t = np.clip(np.dot(p - a, ab) / np.dot(ab, ab), 0.0, 1.0)
                diff = a + t * ab - p
                d2 = min(d2, float(np.dot(diff, diff)))
                if ab[0] * (p[1] - a[1]) - ab[1] * (p[0] - a[0]) < 0.0:
                    inside = False
            best = min(best, 0.0 if inside else float(np.sqrt(d2)))
        return best

    def leaf(tri, t):
        pts = bary @ tri
        x, y = pts[:, 0], pts[:, 1]
        uex, uey = sol.grad_u(x, y)
        d1, d2 = tri[1] - tri[0], tri[2] - tri[0]
        area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
        l2 = area * np.dot(w, (sol.u(x, y) - c0[t] - g[t, 0] * x - g[t, 1] * y) ** 2)
        h1 = area * np.dot(w, (uex - g[t, 0]) ** 2 + (uey - g[t, 1]) ** 2)
        return l2, h1

    def recurse(tri, t, depth):
        diam = max(np.hypot(*(tri[i] - tri[j])) for i, j in edges)
        if depth < max_depth and dist(tri) <= 2.0 * diam:
            a, b, c = tri
            mab, mbc, mca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
            children = ([a, mab, mca], [b, mbc, mab], [c, mca, mbc], [mab, mbc, mca])
            return np.sum([recurse(np.array(ch), t, depth + 1) for ch in children], axis=0)
        return np.array(leaf(tri, t))

    h = mesh.max_edge_length()
    total = np.zeros(2)
    for t, tri in enumerate(mesh.vertices[mesh.triangles]):
        total += recurse(tri, t, 0) if dist(tri) <= 2.0 * h else np.array(leaf(tri, t))
    return tuple(np.sqrt(total))


@pytest.fixture(scope="module")
def solved_levels(sol):
    """Discrete contact solutions of levels 2..5: (mesh, trace map, u, lambda hat)."""
    out = {}
    for level in range(2, 6):
        m = mesh_at_level(level)
        tm = trace_map(m)
        vi = solve_vi(m, tm, sol)
        out[level] = (m, tm, vi.u.values, postprocess_multiplier(vi.multiplier.values))
    return out


@pytest.mark.parametrize("level", [2, 3, 4, 5])
def test_trace_errors_match_per_element_quad(sol, solved_levels, level):
    m, tm, u, _ = solved_levels[level]
    l2, h1, _ = trace_errors(tm, u, sol)
    l2_ref, h1_ref = _trace_errors_oracle(tm, u, sol)
    assert abs(l2 - l2_ref) <= 1e-10 * l2_ref
    assert abs(h1 - h1_ref) <= 1e-10 * h1_ref


@pytest.mark.parametrize("level", [2, 3, 4, 5])
def test_multiplier_l2_error_matches_per_element_quad(sol, solved_levels, level):
    _, tm, _, hat = solved_levels[level]
    for nodal in (hat, 0.9 * sol.flux(tm.x)):
        err = multiplier_l2_error(tm, nodal, sol.flux, kinks=sol.kink_x)
        ref = _multiplier_l2_oracle(tm, nodal, sol.flux, sol.kink_x)
        assert abs(err - ref) <= 1e-10 * ref


@pytest.mark.parametrize("level", [2, 3, 4])
def test_volume_errors_match_recursive_oracle(sol, solved_levels, level):
    m, _, u, _ = solved_levels[level]
    batched = volume_errors(m, u, sol)
    oracle = _volume_errors_oracle(m, u, sol)
    assert np.allclose(batched, oracle, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("level", [2, 3, 4, 5, 6, 7, 8])
def test_volume_errors_equal_the_einsum_route_bitwise(sol, level):
    # the fused, masked evaluator, the point mapping and the affine data per
    # chunk move no bit; level 8 has four chunks of triangles at depth 0
    m = mesh_at_level(level)
    x, y = m.vertices.T
    nodal = sol.u(x, y) + 1e-3 * np.sin(7.0 * x) * y
    assert volume_errors(m, nodal, sol) == volume_errors_einsum(m, nodal, ExactOracle(sol))


@pytest.mark.parametrize("level, depth", [(2, 3), (3, 2), (3, 0)])
def test_uniform_volume_errors_match_recursive_oracle(sol, solved_levels, level, depth):
    # graded, at depths short of VOLUME_DEPTH
    m, _, u, _ = solved_levels[level]
    batched = volume_errors(m, u, sol, max_depth=depth)
    oracle = _volume_errors_oracle(m, u, sol, max_depth=depth)
    assert np.allclose(batched, oracle, rtol=1e-13, atol=0.0)


def test_quad_integrates_sqrt_singularities_per_interval():
    # sqrt(|x - c|) with c at a breakpoint inside the first interval and at
    # an end of the second; exact values from the antiderivative
    c = 0.3
    lo = np.array([0.0, 0.3, 1.0])
    hi = np.array([0.7, 1.1, 2.0])

    def f(s, i):
        return np.sqrt(np.abs(s - c)) * (1.0 + i)

    def exact(a, b):
        prim = lambda s: np.sign(s - c) * (2.0 / 3.0) * np.abs(s - c) ** 1.5
        return prim(b) - prim(a)

    got = quad(f, lo, hi, breaks=(c,))
    want = np.array([exact(a, b) * (1.0 + i) for i, (a, b) in enumerate(zip(lo, hi))])
    assert np.allclose(got, want, rtol=1e-10, atol=0.0)


def test_quad_is_exact_for_high_degree_polynomials():
    lo = np.linspace(-1.0, 0.5, 4)
    hi = lo + 0.5
    got = quad(lambda s, i: s**20 - 3.0 * s**7, lo, hi)
    want = (hi**21 - lo**21) / 21.0 - 3.0 * (hi**8 - lo**8) / 8.0
    assert np.allclose(got, want, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize(
    "f, breaks, message",
    [
        (lambda s, i: np.where(s > 0.45, np.nan, s), (), "non-finite"),
        # not integrable: the open pieces around the pole keep multiplying
        (lambda s, i: 1.0 / np.abs(s - 0.3), (), "pieces above tolerance"),
        (lambda s, i: 1.0 / np.abs(s - 0.3), (0.3,), "pieces above tolerance"),
        # unbounded at an end: the piece there never meets its share
        (lambda s, i: np.abs(s) ** -0.5, (), "bisection rounds"),
    ],
)
def test_quad_raises_instead_of_returning_quietly(f, breaks, message):
    with pytest.raises(ValueError, match=message):
        quad(f, np.array([0.0, 0.5]), np.array([0.5, 1.0]), breaks=breaks)
