"""Property tests: the dense Steklov matrix and the cold contact solve on
drawn data.

Examples are derandomized, so every run draws the same ones, and kept few
enough that the module adds a few seconds to the suite.
"""

import dataclasses
import functools

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from signorini_fem import ExactSolution, build_system, mesh_at_level, solve_vi, trace_map
from signorini_fem.steklov import SteklovMap

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)


@functools.lru_cache(maxsize=None)
def steklov_operator(level: int) -> np.ndarray:
    """D times the dense Steklov matrix of one level: the Schur complement S."""
    m = mesh_at_level(level)
    smap = SteklovMap(m, trace_map(m))
    return smap.lumped[:, None] * smap.dense_matrix()


@st.composite
def trace_vectors(draw):
    level = draw(st.integers(min_value=2, max_value=5))
    n = steklov_operator(level).shape[0]
    values = draw(
        st.lists(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=n, max_size=n)
    )
    return level, np.array(values)


@PROPERTY_SETTINGS
@given(trace_vectors())
def test_steklov_matrix_is_symmetric_positive_definite(case):
    level, v = case
    assume(np.any(v != 0.0))
    v = v / np.abs(v).max()  # no underflow in the quadratic form
    s = steklov_operator(level)
    assert np.abs(s - s.T).max() <= 1e-13 * np.abs(s).max()
    assert v @ s @ v > 0.0


@functools.lru_cache(maxsize=None)
def level3_problem():
    m = mesh_at_level(3)
    tm = trace_map(m)
    return m, tm, build_system(m, tm, ExactSolution())


@PROPERTY_SETTINGS
@given(
    a=st.floats(min_value=-2e-3, max_value=2e-3),
    b=st.floats(min_value=-2e-3, max_value=2e-3),
    scale=st.floats(min_value=0.5, max_value=2.0),
)
def test_cold_solve_is_feasible_and_complementary(a, b, scale):
    # an affine obstacle a + b x and a scaled load and Dirichlet data, as
    # the contact benchmark draws them; no exact solution for the solver
    m, tm, base = level3_problem()
    system = dataclasses.replace(
        base, load=scale * base.load, dirichlet_values=scale * base.dirichlet_values
    )
    g = a + b * tm.multiplier_x
    vi = solve_vi(m, tm, None, g=g, system=system, warm_start=False)
    trace = vi.u.values[system.trace_dofs]
    lam = vi.multiplier.values
    gap = trace - g
    u_tol = 1e-9 * np.abs(trace).max()
    lam_tol = 1e-9 * np.abs(lam).max()
    assert gap.max() <= u_tol
    assert lam.min() >= -lam_tol
    assert np.abs(lam * gap).max() <= u_tol * np.abs(lam).max()
