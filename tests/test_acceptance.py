"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavy pieces (the full default refinement study and a stack of coarse
solves) are computed once per session and shared.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from signorini_fem import (
    ExactSolution,
    StudyConfig,
    build_system,
    mesh_at_level,
    run_study,
    solve_vi,
    trace_map,
)
from signorini_fem.assembly import assemble_stiffness, boundary_lumped_mass
from signorini_fem.biortho import postprocess_multiplier
from signorini_fem.mesh import WIDTH
from signorini_fem.norms import h_minus1_error
from signorini_fem.steklov import SteklovMap
from signorini_fem.study import averaged_rate

from oracles import assemble_coupling, boundary_edges, brute_force_vi, schur_consistency


@pytest.fixture(scope="session")
def sol():
    return ExactSolution()


@pytest.fixture(scope="session")
def study_records():
    """The default study: eight uniform refinements of the initial mesh."""
    return run_study(StudyConfig())


@pytest.fixture(scope="session")
def coarse_solutions(sol):
    """Solved problems for the first six study levels, kept in memory."""
    out = {}
    for level in range(2, 7):
        mesh = mesh_at_level(level)
        tmap = trace_map(mesh)
        system = build_system(mesh, tmap, sol)
        out[level] = (mesh, tmap, system, solve_vi(mesh, tmap, sol, system=system))
    return out


def _report(name, passed, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, detail


def test_criterion_1_rate_reproduction(study_records):
    last = study_records[-1]
    rates = last.rates
    checks = {
        "L2_omega": (rates["e_L2_omega"], 1.85, 2.15),
        "L2_gammaS": (rates["e_L2_gammaS"], 1.75, 2.25),
        "L2_lambda": (rates["e_L2_lambda"], 0.95, 1.6),
        "Hhalf": (rates["e_Hhalf_gammaS"], 1.3, 1.7),
        "Hminushalf_lambda": (rates["e_Hminushalf_lambda"], 1.25, 1.75),
    }
    detail = ", ".join(f"{k}={v[0]:.3f} in [{v[1]}, {v[2]}]" for k, v in checks.items())
    runtime = sum(rec.seconds for rec in study_records)
    ok = all(lo <= val <= hi for val, lo, hi in checks.values()) and runtime <= 600.0
    _report("1 (rate reproduction)", ok, detail + f"; runtime {runtime:.0f}s <= 600s")


def test_criterion_2_consistency_flux_rate(study_records):
    # averaged decay of the consistency-flux error between the third and
    # eighth computed levels
    third = study_records[2]
    eighth = study_records[7]
    rate = averaged_rate(
        third.errors["e_Hminushalf_lambda_tilde"],
        eighth.errors["e_Hminushalf_lambda_tilde"],
        eighth.level - third.level + 1,
    )
    _report("2 (consistency-flux rate)", 1.25 <= rate <= 1.8, f"rate={rate:.3f} in [1.25, 1.8]")


def test_criterion_3_transmission_points(study_records):
    worst = max(max(rec.xl_ratio, rec.xr_ratio) for rec in study_records)
    ok = all(rec.xl_ratio < 1.0 and rec.xr_ratio < 1.0 for rec in study_records)
    _report("3 (transmission points)", ok, f"max dist/h = {worst:.3f} < 1 on all levels")


def test_criterion_4_schur_consistency(sol):
    gaps = {level: schur_consistency(mesh_at_level(level)) for level in (1, 2, 3, 4)}
    ok = all(gap <= 1e-10 for gap in gaps.values())

    mesh = mesh_at_level(4)
    tmap = trace_map(mesh)
    stiffness = assemble_stiffness(mesh)
    smap = SteklovMap(mesh, tmap, stiffness=stiffness)
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(10):
        v = rng.standard_normal(smap.num_multipliers)
        s, w = smap.apply(v), smap.extension(v)
        pairing = float(np.sum(v * s * smap.lumped))
        energy = float(w @ (stiffness @ w))
        worst = max(worst, abs(pairing - energy) / abs(energy))
    ok = ok and worst <= 1e-10
    _report(
        "4 (Schur consistency)",
        ok,
        f"max Frobenius gap {max(gaps.values()):.2e} <= 1e-10, ellipticity gap {worst:.2e} <= 1e-10",
    )


def test_criterion_5_oracle_equivalence(sol, study_records):
    worst = 0.0
    for level in (1, 2):
        mesh = mesh_at_level(level)
        tmap = trace_map(mesh)
        system = build_system(mesh, tmap, sol)
        vi = solve_vi(mesh, tmap, sol, system=system)
        _, u, lam = brute_force_vi(system)[0]
        worst = max(worst, np.abs(vi.u.values - u).max(), np.abs(vi.multiplier.values - lam).max())
    iteration_ok = all(
        rec.iterations <= 4 * 2 ** (rec.level - 1) - 1 + 2 for rec in study_records
    )
    ok = worst <= 1e-10 and iteration_ok
    _report(
        "5 (oracle equivalence)",
        ok,
        f"enumeration gap {worst:.2e} <= 1e-10, PDAS iterations within N+2 on all levels",
    )


def test_criterion_6_manufactured_self_check(sol):
    rng = np.random.default_rng(42)
    x = rng.uniform(0.05, WIDTH - 0.05, 100)
    y = rng.uniform(0.05, 0.45, 100)
    h = 1e-4
    ux_fd = (-sol.u(x + 2 * h, y) + 8 * sol.u(x + h, y) - 8 * sol.u(x - h, y) + sol.u(x - 2 * h, y)) / (12 * h)
    uy_fd = (-sol.u(x, y + 2 * h) + 8 * sol.u(x, y + h) - 8 * sol.u(x, y - h) + sol.u(x, y - 2 * h)) / (12 * h)
    ux, uy = sol.grad_u(x, y)
    grad_gap = max(np.abs(ux - ux_fd).max(), np.abs(uy - uy_fd).max())

    pts = []
    while len(pts) < 100:
        px = rng.uniform(0.05, WIDTH - 0.05)
        py = rng.uniform(0.05, 0.45)
        if min(np.hypot(px - sol.x_left, py), np.hypot(px - sol.x_right, py)) >= 0.05:
            pts.append((px, py))
    px, py = np.array(pts).T
    hh = 1e-3
    lap = (
        sol.u(px + hh, py) + sol.u(px - hh, py) + sol.u(px, py + hh) + sol.u(px, py - hh) - 4 * sol.u(px, py)
    ) / hh**2
    rhs_gap = np.abs(sol.rhs(px, py) + lap).max()

    xs = np.linspace(0.0, WIDTH, 10_000)
    comp = np.abs(sol.flux(xs) * sol.u_trace(xs)).max()

    ok = grad_gap <= 1e-6 and rhs_gap <= 1e-4 and comp == 0.0
    _report(
        "6 (manufactured self-check)",
        ok,
        f"grad FD gap {grad_gap:.2e} <= 1e-6, rhs FD gap {rhs_gap:.2e} <= 1e-4, "
        f"complementarity max |lambda*u| = {comp:.1e}",
    )


def test_criterion_7_discretization_conformity(sol):
    worst_coupling = 0.0
    for level in (1, 2, 3, 4):
        mesh = mesh_at_level(level)
        tmap = trace_map(mesh)
        coupling = assemble_coupling(mesh, tmap)
        d = boundary_lumped_mass(tmap)
        expected = np.zeros_like(coupling)
        expected[1:-1] = np.diag(d)
        worst_coupling = max(worst_coupling, np.abs(coupling - expected).max() / d.max())

    mesh = mesh_at_level(3)
    A = assemble_stiffness(mesh)
    affine = 0.75 * mesh.vertices[:, 0] - 1.25 * mesh.vertices[:, 1] + 0.5
    boundary = np.unique(np.concatenate(boundary_edges(3)))
    free = np.ones(mesh.num_vertices, bool)
    free[boundary] = False
    fi = np.flatnonzero(free)
    u = affine.copy()
    u[fi] = spla.spsolve(A[np.ix_(fi, fi)].tocsc(), -A[np.ix_(fi, boundary)] @ affine[boundary])
    patch_gap = np.abs(u - affine).max()

    tmap = trace_map(mesh)
    system = build_system(mesh, tmap, sol)
    vi = solve_vi(mesh, tmap, sol, g=1e6, system=system)
    fallback_ok = np.all(vi.multiplier.values == 0.0)
    freeidx = np.flatnonzero(system.free_mask)
    fixed = np.flatnonzero(~system.free_mask)
    plain = np.zeros(mesh.num_vertices)
    plain[system.dirichlet_idx] = system.dirichlet_values
    plain[freeidx] = spla.spsolve(
        system.stiffness[np.ix_(freeidx, freeidx)].tocsc(),
        system.load[freeidx] - system.stiffness[np.ix_(freeidx, fixed)] @ plain[fixed],
    )
    fallback_gap = np.abs(vi.u.values - plain).max()

    ok = worst_coupling <= 1e-12 and patch_gap <= 1e-12 and fallback_ok and fallback_gap <= 1e-12
    _report(
        "7 (discretization conformity)",
        ok,
        f"coupling diagonality {worst_coupling:.2e} <= 1e-12, patch test {patch_gap:.2e} <= 1e-12, "
        f"unconstrained fallback gap {fallback_gap:.2e}",
    )


def test_study_invariant_rate_sanity(study_records):
    # rates taken from the third computed level onwards stay inside the
    # documented sanity windows
    third = study_records[2]
    last = study_records[-1]
    n = last.level - third.level + 1

    def rate(key):
        return averaged_rate(third.errors[key], last.errors[key], n)

    assert 1.8 <= rate("e_L2_omega") <= 2.2
    assert 1.3 <= rate("e_Hhalf_gammaS") <= 1.8
    assert 1.25 <= rate("e_Hminushalf_lambda") <= 1.8
    assert 0.9 <= rate("e_L2_lambda") <= 1.6


def test_criterion_8_dual_norm_stability(sol, coarse_solutions):
    # offsets +3 and +4 from the default study's finest level: the reference
    # spaces bracketing the one the study actually uses
    study_max = StudyConfig().max_level
    worst = 0.0
    for level, (mesh, tmap, system, vi) in coarse_solutions.items():
        hat = postprocess_multiplier(vi.multiplier.values)
        a = h_minus1_error(hat, level, sol.flux, ref_level=study_max + 3)
        b = h_minus1_error(hat, level, sol.flux, ref_level=study_max + 4)
        worst = max(worst, abs(a - b) / max(a, b))
    _report("8 (dual-norm stability)", worst <= 0.02, f"max offset gap {100 * worst:.3f}% <= 2%")
