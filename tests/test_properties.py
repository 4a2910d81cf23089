"""Property tests: nodal prolongation and the cold contact solve on drawn data.

Examples are derandomized, so every run draws the same ones, and kept few
enough that the module adds a few seconds to the suite.
"""

import dataclasses
import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from signorini_fem import ExactSolution, build_system, mesh_at_level, solve_vi, trace_map
from signorini_fem import mesh as msh

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def p1_on_grid(coarse: msh.TriMesh, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The P1 function with nodal values on the coarse mesh, at the points.

    Each point is located in its grid cell, then in the lower-right or the
    upper-left triangle of the cell's lower-left to upper-right diagonal.
    """
    ix, iy, nx, ny = msh.grid_index(coarse)
    at = np.empty((nx + 1, ny + 1), dtype=np.int64)
    at[ix, iy] = np.arange(coarse.num_vertices)
    gx = points[:, 0] * (nx / msh.WIDTH)
    gy = points[:, 1] * (ny / msh.HEIGHT)
    i = np.clip(np.floor(gx).astype(np.int64), 0, nx - 1)
    j = np.clip(np.floor(gy).astype(np.int64), 0, ny - 1)
    s, t = gx - i, gy - j
    ll, lr = values[at[i, j]], values[at[i + 1, j]]
    ul, ur = values[at[i, j + 1]], values[at[i + 1, j + 1]]
    lower = ll + s * (lr - ll) + t * (ur - lr)
    upper = ll + s * (ur - ul) + t * (ul - ll)
    return np.where(s >= t, lower, upper)


@st.composite
def coarse_p1_functions(draw):
    level = draw(st.integers(min_value=1, max_value=5))
    coarse = mesh_at_level(level)
    values = draw(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=coarse.num_vertices,
            max_size=coarse.num_vertices,
        )
    )
    return coarse, np.array(values)


@PROPERTY_SETTINGS
@given(coarse_p1_functions())
def test_prolong_reproduces_p1_functions(case):
    coarse, values = case
    fine = msh.refine(coarse)
    got = msh.prolong(fine, values)
    n = coarse.num_vertices
    assert np.array_equal(got[:n], values)
    want = p1_on_grid(coarse, values, fine.vertices)
    assert np.abs(got - want).max() <= 1e-12 * max(np.abs(values).max(), 1.0)


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
