import numpy as np
import pytest

from signorini_fem import biortho, mesh as msh
from signorini_fem.assembly import boundary_lumped_mass

from oracles import assemble_coupling, in_cone, line_grams


def gauss01(n=8):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def test_dual_shapes_reference_integrals():
    t, w = gauss01()
    psi_l, psi_r = biortho.dual_shape_values(t)
    phi_l, phi_r = 1.0 - t, t
    # elementwise biorthogonality with the lumped scaling
    assert np.isclose(np.sum(w * psi_l * phi_l), 0.5, atol=1e-14)
    assert np.isclose(np.sum(w * psi_l * phi_r), 0.0, atol=1e-14)
    assert np.isclose(np.sum(w * psi_r * phi_r), 0.5, atol=1e-14)
    assert np.isclose(np.sum(w * psi_r * phi_l), 0.0, atol=1e-14)
    assert np.isclose(np.sum(w * phi_l), 0.5, atol=1e-14)


def test_dual_shapes_partition_of_unity():
    t = np.linspace(0.0, 1.0, 11)
    psi_l, psi_r = biortho.dual_shape_values(t)
    assert np.allclose(psi_l + psi_r, 1.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_coupling_matrix_diagonal(level):
    m = msh.mesh_at_level(level)
    tm = msh.trace_map(m)
    coupling = assemble_coupling(m, tm)
    d = boundary_lumped_mass(tm)
    expected = np.zeros_like(coupling)
    expected[1:-1] = np.diag(d)
    assert np.abs(coupling - expected).max() <= 1e-12 * d.max()


def test_pairing_of_unit_trace_function():
    # <v, psi_j> with v = 1 on the trace equals D_j
    m = msh.mesh_at_level(2)
    tm = msh.trace_map(m)
    coupling = assemble_coupling(m, tm)
    ones = np.ones(tm.x.shape[0])
    d = boundary_lumped_mass(tm)
    assert np.allclose(ones @ coupling, d, rtol=1e-13)


def test_postprocess_zero():
    m = msh.mesh_at_level(2)
    tm = msh.trace_map(m)
    nodal = biortho.postprocess_multiplier(np.zeros(tm.num_multipliers))
    assert nodal.shape == tm.x.shape and np.all(nodal == 0.0)


def test_postprocess_single_hat():
    m = msh.mesh_at_level(2)
    tm = msh.trace_map(m)
    coeffs = np.zeros(tm.num_multipliers)
    coeffs[3] = 1.0
    nodal = biortho.postprocess_multiplier(coeffs)
    assert nodal[0] == 0.0 and nodal[-1] == 0.0
    assert nodal[tm.x == tm.multiplier_x[3]].tolist() == [1.0]
    assert np.count_nonzero(nodal) == 1


def test_postprocess_preserves_mean():
    # <lambda_hat - lambda_h, 1> = 0: both integrate coefficients against D_j
    rng = np.random.default_rng(5)
    m = msh.mesh_at_level(3)
    tm = msh.trace_map(m)
    coeffs = rng.uniform(0.0, 1.0, tm.num_multipliers)
    d = boundary_lumped_mass(tm)
    nodal = biortho.postprocess_multiplier(coeffs)
    mass, _ = line_grams(tm.x)
    hat_integral = float(np.ones_like(nodal) @ (mass @ nodal))
    dual_integral = float(np.sum(coeffs * d))
    assert np.isclose(hat_integral, dual_integral, rtol=1e-13)


def test_cone_membership():
    assert in_cone(np.array([0.0, 1.0, 2.0]))
    assert not in_cone(np.array([0.0, -1e-6, 2.0]))


def test_discrete_cone_not_in_continuous_cone():
    # a single dual function has nonnegative coefficient but is negative on
    # part of its support, so the discrete cone is not pointwise nonnegative
    psi_l, psi_r = biortho.dual_shape_values(0.9)
    assert psi_l < 0.0
    psi_l2, psi_r2 = biortho.dual_shape_values(0.1)
    assert psi_r2 < 0.0
