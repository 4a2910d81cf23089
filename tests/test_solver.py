import dataclasses
import os
import platform
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import signorini_fem
from signorini_fem import ExactSolution, SolverError, build_system, mesh_at_level, solve_vi, trace_map
from signorini_fem import solver, steklov
from signorini_fem.solver import LU_OPTIONS, VISolution, condense_system, discrete_transmission_points, linear_subsolve
from signorini_fem.steklov import SteklovMap
from signorini_fem.assembly import FeFunction, GridPoisson

from oracles import brute_force_vi, count_grid_builds, counting_spla, full_space_vi, out_of_memory_splu


@pytest.fixture(scope="module")
def sol():
    return ExactSolution()


def make_problem(level, sol):
    mesh = mesh_at_level(level)
    tmap = trace_map(mesh)
    system = build_system(mesh, tmap, sol)
    return mesh, tmap, system


def test_linear_subsolve_identity():
    eye = sp.identity(5, format="csr")
    rhs = np.arange(5.0)
    assert np.array_equal(linear_subsolve(eye, rhs), rhs)


def test_linear_subsolve_2x2():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x = linear_subsolve(A, np.array([3.0, 3.0]))
    assert np.allclose(x, [1.0, 1.0], rtol=1e-13)


def test_linear_subsolve_random_spd():
    rng = np.random.default_rng(11)
    B = rng.standard_normal((50, 50))
    A = sp.csr_matrix(B.T @ B + np.eye(50))
    b = rng.standard_normal(50)
    x = linear_subsolve(A, b)
    assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)


def test_linear_subsolve_always_refines_once(monkeypatch):
    # a factor of (1 + 1e-6) A leaves a first-solve residual of 1e-6, which
    # already meets rtol = 1e-4; the refinement step must still run
    n = 60
    A = sp.diags([-np.ones(n - 1), 2.5 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1], format="csc")
    b = np.linspace(1.0, 2.0, n)
    solves = []

    class Perturbed:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            solves.append(rhs)
            return self.lu.solve(rhs)

    fake = types.SimpleNamespace(splu=lambda m, **kw: Perturbed(spla.splu((1.0 + 1e-6) * m, **kw)))
    monkeypatch.setattr(solver, "spla", fake)
    x = linear_subsolve(A, b, rtol=1e-4)
    assert len(solves) == 2
    assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)


def test_linear_subsolve_reports_an_out_of_memory_factorization(monkeypatch):
    monkeypatch.setattr(solver, "spla", types.SimpleNamespace(splu=out_of_memory_splu))
    A = sp.identity(60, format="csc")
    with pytest.raises(SolverError, match="factorization of 60 unknowns failed: MemoryError"):
        linear_subsolve(A, np.ones(60))


@pytest.mark.parametrize("level", [6, 7])
def test_superlu_pivots_on_the_diagonal_and_fills_less_than_colamd(level, sol, monkeypatch):
    # counts, not times: L + U entries of the SteklovMap interior factor
    # and, at level 6, of every free block the full-space oracle factors
    # through linear_subsolve (at level 7 MMD fills 2.10M, COLAMD 3.30M)
    mesh, tmap, system = make_problem(level, sol)
    A = system.stiffness
    smap = SteklovMap(mesh, tmap, stiffness=A, lumped=system.lumped_mass)
    ii = system.grid.interior
    factors = [(A[ii][:, ii].tocsc(), smap._lu)]
    if level == 6:

        def recording_splu(matrix, **options):
            assert options == LU_OPTIONS
            factors.append((matrix, spla.splu(matrix, **options)))
            return factors[-1][1]

        monkeypatch.setattr(solver, "spla", types.SimpleNamespace(splu=recording_splu))
        full_space_vi(system)
        assert len(factors) > 2
    for block, lu in factors:
        assert np.array_equal(lu.perm_r, lu.perm_c)
        colamd = spla.splu(block, permc_spec="COLAMD")
        assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz


@pytest.mark.parametrize("level", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("against_oracle", [True, False])
@pytest.mark.parametrize("obstacle", ["zero", "affine"])
def test_solve_vi_matches_colamd_reference(level, against_oracle, obstacle, sol, monkeypatch):
    # the reference's linear solves are COLAMD's: the full-space oracle's
    # every step.  solve_vi calls no linear_subsolve, so against itself with
    # COLAMD in its place it must not move at all
    mesh, tmap, system = make_problem(level, sol)
    g = 0.0 if obstacle == "zero" else -1e-3 + 1e-3 * tmap.multiplier_x
    vi = solve_vi(mesh, tmap, sol, g=g, system=system)

    def colamd_subsolve(matrix, rhs):
        return spla.spsolve(matrix.tocsc(), rhs, permc_spec="COLAMD", use_umfpack=False)

    monkeypatch.setattr(solver, "linear_subsolve", colamd_subsolve)
    if against_oracle:
        ref = full_space_vi(system, g=g)
    else:
        ref = solve_vi(mesh, tmap, sol, g=g, system=system)
        assert vi.iterations == ref.iterations
        assert np.array_equal(vi.u.values, ref.u.values)
    assert ref.active.any()
    assert np.array_equal(vi.active, ref.active)
    gap = np.abs(vi.u.values - ref.u.values).max()
    assert gap <= 1e-10 * np.abs(ref.u.values).max()


def seeded_contact_problem(level, seed):
    """An affine obstacle and scaled load and Dirichlet data, drawn as the
    contact benchmark draws them; the solver gets no exact solution."""
    mesh, tmap, base = make_problem(level, ExactSolution())
    rng = np.random.default_rng([seed, 2])
    a, b = rng.uniform(-2e-3, 2e-3, size=2)
    s = rng.uniform(0.5, 2.0)
    system = dataclasses.replace(base, load=s * base.load, dirichlet_values=s * base.dirichlet_values)
    return mesh, tmap, system, a + b * tmap.multiplier_x


def oracle_cases():
    for level in (2, 3, 4, 5, 6):
        yield pytest.param(level, "zero", id=f"zero-{level}")
        yield pytest.param(level, "affine", id=f"affine-{level}")
        for seed in (501, 502):
            yield pytest.param(level, seed, id=f"seed{seed}-{level}")


@pytest.mark.parametrize("level, obstacle", oracle_cases())
def test_solve_vi_equals_the_full_space_oracle_to_rounding(level, obstacle, sol):
    # the oracle's every step is a SuperLU solve, solve_vi's a DST-I solve
    # refined against the same stiffness, so they agree to rounding (at most
    # 4e-14 up to level 7)
    if isinstance(obstacle, int):
        mesh, tmap, system, g = seeded_contact_problem(level, obstacle)
    else:
        mesh, tmap, system = make_problem(level, sol)
        g = 0.0 if obstacle == "zero" else -1e-3 + 1e-3 * tmap.multiplier_x
    vi = solve_vi(mesh, tmap, None, g=g, system=system)
    ref = full_space_vi(system, g=g)
    assert np.array_equal(vi.active, ref.active)
    assert np.abs(vi.u.values - ref.u.values).max() <= 1e-12 * np.abs(ref.u.values).max()
    assert np.abs(vi.multiplier.values - ref.multiplier.values).max() <= 1e-12 * np.abs(ref.multiplier.values).max()
    assert vi.residual <= 10 * 1e-12 * np.abs(system.load).max()


def test_warm_start_is_refused(sol):
    mesh, tmap, system = make_problem(2, sol)
    with pytest.raises(ValueError, match="no longer reads"):
        solve_vi(mesh, tmap, sol, system=system, warm_start=True)


def test_cold_solve_and_condensation_make_no_sparse_factorization(sol, monkeypatch):
    mesh, tmap, system = make_problem(5, sol)
    calls = []
    monkeypatch.setattr(solver, "spla", counting_spla(calls))
    monkeypatch.setattr(steklov, "spla", counting_spla(calls))
    vi = solve_vi(mesh, tmap, sol, system=system)
    condense_system(system)
    assert vi.iterations > 2
    assert calls == []


def test_a_built_system_solves_without_building_a_grid(sol, monkeypatch):
    # a new load and new Dirichlet data keep the system's grid solver
    mesh, tmap, base = make_problem(4, sol)
    system = dataclasses.replace(base, load=2 * base.load, dirichlet_values=2 * base.dirichlet_values)
    assert system.grid is base.grid
    built = count_grid_builds(monkeypatch)
    vi = solve_vi(mesh, tmap, None, system=system)
    condense_system(system)
    assert vi.iterations > 1
    assert built == []


def test_a_system_refuses_a_grid_built_on_another_stiffness(sol):
    # the stiffness, the trace DOFs and the vertex partition are the
    # grid's, not copies of them
    _, _, system = make_problem(3, sol)
    assert system.stiffness is system.grid.stiffness
    assert system.trace_dofs is system.grid.trace_dofs
    assert system.dirichlet_idx is system.grid.dirichlet_idx
    assert system.free_mask is system.grid.free_mask
    with pytest.raises(TypeError, match="stiffness"):
        dataclasses.replace(system, stiffness=(1.0 + 1e-3) * system.stiffness)
    for name in ("dirichlet_idx", "free_mask"):
        with pytest.raises(TypeError, match=name):
            dataclasses.replace(system, **{name: getattr(system, name)[::-1]})


@pytest.mark.parametrize("level", [2, 3, 4, 5, 6])
def test_a_wrong_trace_system_only_moves_the_start(level, sol, monkeypatch):
    # the full-space PDAS keeps iterating from the start a corrupted
    # reduction chose, and ends on the oracle's solution.  A shifted
    # diagonal moves that start at every level; a scaled sigma would not
    # with g = 0: it scales the inactive t and leaves lambda, so every
    # step picks the same set
    mesh, tmap, system = make_problem(level, sol)
    sigma, nu = condense_system(system)
    sigma = sigma + np.abs(sigma).max() * np.eye(nu.shape[0])
    monkeypatch.setattr(solver, "condense_system", lambda s: (sigma, nu))
    vi = solve_vi(mesh, tmap, None, system=system)
    trace_steps = solver.dense_pdas(sigma, nu, np.zeros(nu.shape[0]), system.lumped_mass, 100)[3]
    assert vi.iterations - trace_steps > 1
    ref = full_space_vi(system)
    assert np.array_equal(vi.active, ref.active)
    assert np.abs(vi.u.values - ref.u.values).max() <= 1e-12 * np.abs(ref.u.values).max()
    assert np.abs(vi.multiplier.values - ref.multiplier.values).max() <= 1e-12 * np.abs(ref.multiplier.values).max()


def test_unconstrained_fallback(sol):
    mesh, tmap, system = make_problem(2, sol)
    vi = solve_vi(mesh, tmap, sol, g=1e6, system=system)
    assert np.all(vi.multiplier.values == 0.0)
    assert not np.any(vi.active)
    # equals the plain linear solve of the same system
    free = np.flatnonzero(system.free_mask)
    fixed = np.flatnonzero(~system.free_mask)
    u = np.zeros(mesh.num_vertices)
    u[system.dirichlet_idx] = system.dirichlet_values
    u[free] = spla.spsolve(
        system.stiffness[np.ix_(free, free)].tocsc(),
        system.load[free] - system.stiffness[np.ix_(free, fixed)] @ u[fixed],
    )
    assert np.abs(vi.u.values - u).max() < 1e-12


@pytest.mark.parametrize("level", [1, 2])
def test_pdas_matches_exhaustive_enumeration(level, sol):
    mesh, tmap, system = make_problem(level, sol)
    vi = solve_vi(mesh, tmap, sol, system=system)
    for active, u, lam in brute_force_vi(system):
        assert np.abs(vi.u.values - u).max() <= 1e-10
        assert np.abs(vi.multiplier.values - lam).max() <= 1e-10


@pytest.mark.parametrize("level", [2, 3, 4])
def test_active_set_contiguous(level, sol):
    mesh, tmap, system = make_problem(level, sol)
    vi = solve_vi(mesh, tmap, sol, system=system)
    idx = np.flatnonzero(vi.active)
    assert idx.size > 0
    assert np.array_equal(idx, np.arange(idx[0], idx[-1] + 1))


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_start_independence(level, sol):
    # the trace stage's start against the full-space PDAS from the empty set
    mesh, tmap, system = make_problem(level, sol)
    vi = solve_vi(mesh, tmap, sol, system=system)
    cold = full_space_vi(system)
    assert np.array_equal(vi.active, cold.active)
    assert np.abs(vi.u.values - cold.u.values).max() <= 1e-10
    assert np.abs(vi.multiplier.values - cold.multiplier.values).max() <= 1e-10


def test_feasibility_and_complementarity(sol):
    mesh, tmap, system = make_problem(3, sol)
    vi = solve_vi(mesh, tmap, sol, system=system)
    u_trace = vi.u.values[system.trace_dofs]
    lam = vi.multiplier.values
    assert np.all(u_trace <= 1e-10)
    assert np.all(lam >= -1e-10)
    # active: touching; inactive: zero multiplier
    assert np.abs(u_trace[vi.active]).max() <= 1e-10
    assert np.all(lam[~vi.active] == 0.0)
    assert vi.residual <= 1e-10 * np.abs(system.load).max()


def test_variational_inequality_verified(sol):
    # a(u_h, v - u_h) - f(v - u_h) >= 0 for feasible discrete v
    mesh, tmap, system = make_problem(3, sol)
    vi = solve_vi(mesh, tmap, sol, system=system)
    rng = np.random.default_rng(17)
    A, F = system.stiffness, system.load
    for _ in range(50):
        v = vi.u.values + rng.standard_normal(mesh.num_vertices)
        v[system.dirichlet_idx] = system.dirichlet_values
        v[system.trace_dofs] = -np.abs(rng.standard_normal(system.trace_dofs.shape[0]))
        w = v - vi.u.values
        assert float(vi.u.values @ (A @ w) - F @ w) >= -1e-8


def test_pdas_iteration_bound(sol):
    for level in (1, 2, 3, 4):
        mesh, tmap, system = make_problem(level, sol)
        vi = solve_vi(mesh, tmap, sol, system=system, warm_start=False)
        assert vi.iterations <= tmap.num_multipliers + 2


def test_transmission_points(sol):
    mesh, tmap, system = make_problem(3, sol)
    vi = solve_vi(mesh, tmap, sol, system=system)
    xl, xr = discrete_transmission_points(vi, tmap)
    idx = np.flatnonzero(vi.active)
    assert xl == tmap.multiplier_x[idx[0]]
    assert xr == tmap.multiplier_x[idx[-1]]
    h = mesh.max_edge_length()
    assert abs(xl - sol.x_left) <= h
    assert abs(xr - sol.x_right) <= h


def test_transmission_points_single_dof(sol):
    tmap = trace_map(mesh_at_level(2))
    active = np.zeros(tmap.num_multipliers, dtype=bool)
    active[4] = True
    synthetic = VISolution(
        u=FeFunction(np.zeros(1)),
        multiplier=FeFunction(np.zeros(tmap.num_multipliers)),
        active=active,
        iterations=1,
        residual=0.0,
    )
    xl, xr = discrete_transmission_points(synthetic, tmap)
    assert xl == xr == tmap.multiplier_x[4]


def test_transmission_points_empty_active_set(sol):
    tmap = trace_map(mesh_at_level(2))
    synthetic = VISolution(
        u=FeFunction(np.zeros(1)),
        multiplier=FeFunction(np.zeros(tmap.num_multipliers)),
        active=np.zeros(tmap.num_multipliers, dtype=bool),
        iterations=1,
        residual=0.0,
    )
    with pytest.raises(SolverError):
        discrete_transmission_points(synthetic, tmap)


def test_affine_obstacle_supported(sol):
    mesh, tmap, system = make_problem(2, sol)
    g = -0.01 + 0.001 * tmap.multiplier_x
    vi = solve_vi(mesh, tmap, sol, g=g, system=system)
    assert np.all(vi.u.values[system.trace_dofs] <= g + 1e-10)
    for active, u, lam in brute_force_vi(system, g=g):
        assert np.abs(vi.u.values - u).max() <= 1e-10


@pytest.mark.parametrize("entry", [np.nan, -np.inf, np.inf])
def test_a_non_finite_obstacle_is_refused(sol, entry):
    # every comparison with NaN is false, so unchecked it would leave all
    # DOFs inactive and "converge"
    mesh, tmap, system = make_problem(4, sol)
    smap = SteklovMap(mesh, tmap, stiffness=system.stiffness, lumped=system.lumped_mass)
    one_bad = np.zeros(tmap.num_multipliers)
    one_bad[3] = entry
    for g, message in ((one_bad, "1 non-finite of 31"), (entry, "31 non-finite of 31")):
        with pytest.raises(ValueError, match=message):
            solve_vi(mesh, tmap, sol, g=g, system=system)
        with pytest.raises(ValueError, match=message):
            steklov.solve_schur_vi(smap, system.load, system.dirichlet_values, g=g)


def test_nonconvergence_carries_iterate(sol):
    mesh, tmap, system = make_problem(2, sol)
    with pytest.raises(SolverError, match="full-space PDAS") as excinfo:
        solve_vi(mesh, tmap, sol, system=system, warm_start=False, max_iter=1)
    assert excinfo.value.solution is not None
    # one step of each stage: the trace stage hands on its unconverged set
    assert excinfo.value.solution.iterations == 2


def test_pdas_stops_at_a_cycle_of_two_sets():
    # lam > 0 exactly off the active set, and t = g: each set is followed
    # by its complement, so the third set would be the first
    g, D = np.zeros(3), np.ones(3)
    solved = []

    def solve_fixed(active):
        solved.append(active.copy())
        return np.zeros(3), np.where(active, -1.0, 1.0)

    start = np.array([True, False, False])
    active, lam, iterations, converged, cycle = solver.pdas(solve_fixed, g, D, start, 100)
    assert (iterations, converged, cycle) == (2, False, 2)
    assert len(solved) == 2
    assert np.array_equal(active, start)
    assert np.array_equal(lam, [1.0, -1.0, -1.0])


def test_a_cycling_full_space_stage_names_its_cycle(sol, monkeypatch):
    # the fake fill leaves the inactive trace above the obstacle g = 0 and
    # gives the active DOFs the multiplier -1, so each full-space set is
    # followed by its complement.  Its zero-trace residual gives nu = -1,
    # on which the trace stage ends on the empty set
    mesh, tmap, system = make_problem(2, sol)
    trace = system.trace_dofs

    def fill(self, z, free=None):
        u = np.zeros(mesh.num_vertices)
        r = np.zeros(mesh.num_vertices)
        u[trace] = 1.0 if free is None else np.where(free, 1.0, 0.0)
        r[trace] = -self.lumped_mass
        return u, r

    monkeypatch.setattr(type(system), "fill", fill)
    message = r"did not converge: its active set cycles, step 2 leads back to the set of step 1, a cycle of 2 sets"
    with pytest.raises(SolverError, match=message) as excinfo:
        solve_vi(mesh, tmap, sol, system=system, max_iter=100)
    # one trace step, then two full-space steps
    assert excinfo.value.solution.iterations == 3
    assert not np.any(excinfo.value.solution.active)


@pytest.mark.parametrize("level", [2, 4, 6])
def test_dense_pdas_with_every_dof_active(level, sol):
    # the inactive block is 0 x 0: t = g and lam = nu - sigma g
    _, _, system = make_problem(level, sol)
    sigma, nu = condense_system(system)
    g = np.full(nu.shape[0], -1e6)
    t, lam, active, iterations, converged = solver.dense_pdas(sigma, nu, g, system.lumped_mass, 100)
    assert converged and np.all(active) and iterations == 2
    assert np.array_equal(t, g)
    assert np.allclose(lam, nu - sigma @ g, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("level", [2, 4, 6])
def test_dense_pdas_with_no_dof_active(level, sol):
    # the active block is empty: one solve of sigma t = nu, and lam = 0
    _, _, system = make_problem(level, sol)
    sigma, nu = condense_system(system)
    g = np.full(nu.shape[0], 1e6)
    t, lam, active, iterations, converged = solver.dense_pdas(sigma, nu, g, system.lumped_mass, 100)
    assert converged and not np.any(active) and iterations == 1
    assert np.array_equal(lam, np.zeros(nu.shape[0]))
    ref = np.linalg.solve(sigma, nu)
    assert np.abs(t - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("max_iter", [0, -1])
def test_no_step_is_refused_before_any_fill(sol, max_iter, monkeypatch):
    # a solve of no step would have no fill's iterate to return
    mesh, tmap, system = make_problem(4, sol)
    smap = SteklovMap(mesh, tmap, stiffness=system.stiffness, lumped=system.lumped_mass)
    steps = []
    monkeypatch.setattr(GridPoisson, "fill", lambda *args, **kwargs: steps.append(args))
    message = f"max_iter must be at least 1, got {max_iter}"
    with pytest.raises(ValueError, match=message):
        solve_vi(mesh, tmap, sol, system=system, max_iter=max_iter)
    with pytest.raises(ValueError, match=message):
        steklov.solve_schur_vi(smap, system.load, system.dirichlet_values, max_iter=max_iter)
    start = np.zeros(tmap.num_multipliers, dtype=bool)
    with pytest.raises(ValueError, match=message):
        solver.pdas(steps.append, np.zeros(tmap.num_multipliers), system.lumped_mass, start, max_iter)
    assert steps == []


@pytest.mark.parametrize("level", [2, 4, 6])
def test_the_residual_is_the_saddle_residual_of_u_and_lambda(sol, level):
    # read from the last step's fill, it has the bits of a fresh product
    mesh, tmap, system = make_problem(level, sol)
    for g in (0.0, 1e-3 * (tmap.multiplier_x - 0.7)):
        vi = solve_vi(mesh, tmap, sol, g=g, system=system)
        r = system.load - system.stiffness @ vi.u.values
        r[system.trace_dofs] -= vi.multiplier.values * system.lumped_mass
        assert vi.residual == float(np.max(np.abs(r[system.free_mask])))


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="counts the page faults of glibc's heap",
)
def test_a_level_8_contact_solve_reuses_its_pages_under_a_fixed_mmap_threshold():
    # MALLOC_MMAP_THRESHOLD_ is the tunable of the mallopt that bench/run.py
    # makes; it also leaves glibc's trim threshold at 128 KiB, so a freed
    # temporary at the top of the heap is faulted in again on its next use.
    # One warm level-8 solve_vi took 63.9k minor faults when every DST-I
    # allocated its arrays, and 7.7-8.2k with one work set per fill (2-CPU
    # Linux host, one BLAS thread).
    src = Path(signorini_fem.__file__).resolve().parents[1]
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
        "MALLOC_MMAP_THRESHOLD_": str(4 * 1024 * 1024),
        "OPENBLAS_NUM_THREADS": "1",
    }
    code = (
        "import resource\n"
        "from signorini_fem import ExactSolution, build_system, mesh_at_level, solve_vi, trace_map\n"
        "mesh = mesh_at_level(8)\n"
        "system = build_system(mesh, trace_map(mesh), ExactSolution())\n"
        "solve_vi(None, None, None, system=system)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "solve_vi(None, None, None, system=system)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) <= 30_000
