"""The benchmark's workloads: seeded inputs, one unit of work, output checks.

Each workload builds its shared state in ``setup`` (timed as set-up), draws
unit inputs from the seed in ``inputs``, does one unit of work in ``run``
(timed per unit) and lists what is wrong with the unit's output in
``check``; an empty list means the output is correct.  The program sees only
the generated inputs: the contact workload passes no exact solution to the
solver at all.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import shutil
import tempfile
from pathlib import Path
from typing import Iterator

import numpy as np

from signorini_fem import assembly, cli, mesh, solver, steklov, study
from signorini_fem.manufactured import ExactSolution

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference" / "study_default.json"

# Averaged rates over the whole study (first to finest level) must fall in
# the windows of PAPER.md, as the acceptance suite states them.
PAPER_RATE_WINDOWS = {
    "e_L2_omega": (1.85, 2.15),
    "e_L2_gammaS": (1.75, 2.25),
    "e_L2_lambda": (0.95, 1.6),
    "e_Hhalf_gammaS": (1.3, 1.7),
    "e_Hminushalf_lambda": (1.25, 1.75),
}


def invoke_cli(argv: list[str]) -> str:
    """Run the signorini-fem command line in this process; return its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main.main(args=argv, prog_name="signorini-fem", standalone_mode=False)
    return out.getvalue()


def _relative_gap(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _study_problems(records: list[dict], levels: range) -> list[str]:
    """Checks of the levels, errors, transmission points and PDAS iterations."""
    problems = []
    got = [rec["level"] for rec in records]
    if got != list(levels):
        return [f"levels {got}, expected {list(levels)}"]
    for rec in records:
        bad = [k for k in study.RATE_KEYS if not (rec["errors"].get(k, math.nan) > 0.0)]
        if bad:
            problems.append(f"level {rec['level']}: missing or non-positive errors {bad}")
        if not (rec["xl_ratio"] < 1.0 and rec["xr_ratio"] < 1.0):
            problems.append(f"level {rec['level']}: transmission point off by >= h")
        n_mult = 4 * 2 ** (rec["level"] - 1) - 1
        if not 1 <= rec["iterations"] <= n_mult + 2:
            problems.append(f"level {rec['level']}: {rec['iterations']} PDAS iterations")
    return problems


def _rate_problems(rates: dict, windows: dict) -> list[str]:
    return [
        f"averaged rate {key}={rates.get(key, math.nan):.4f} outside [{lo}, {hi}]"
        for key, (lo, hi) in windows.items()
        if not lo <= rates.get(key, math.nan) <= hi
    ]


@dataclasses.dataclass
class StudyRun:
    """Output of one CLI study: its report directory and what it printed."""

    out_dir: Path
    stdout: str
    records: list[dict]


class StudyDefault:
    """The default study through the command line, reports in a temp dir.

    Levels stop at 8 (default 9): the finest default level alone takes
    about 75 s and 1.6 GiB, which the benchmark's run budget cannot hold.
    Every other setting is StudyConfig()'s, and the seed changes nothing.
    """

    name = "study_default"
    warmup = False

    def __init__(self, out_root: Path, max_level: int = 8, reference: Path = REFERENCE):
        self.out_root = out_root
        self.max_level = max_level
        self.reference = reference

    def setup(self):
        ref = json.loads(self.reference.read_text(encoding="ascii"))
        return {rec["level"]: rec["errors"] for rec in ref["records"]}, ref["rtol"]

    def inputs(self, seed: int, state) -> Iterator[list[str]]:
        while True:
            yield ["study", "--max-level", str(self.max_level)]

    def run(self, state, argv: list[str]) -> StudyRun:
        self.out_root.mkdir(parents=True, exist_ok=True)
        out_dir = Path(tempfile.mkdtemp(prefix="study_default-", dir=self.out_root))
        stdout = invoke_cli([*argv, "--out-dir", str(out_dir)])
        payload = json.loads((out_dir / "results.json").read_text(encoding="ascii"))
        return StudyRun(out_dir, stdout, payload["records"])

    def check(self, state, argv, result: StudyRun) -> list[str]:
        ref_errors, rtol = state
        levels = range(study.StudyConfig().min_level, self.max_level + 1)
        problems = _study_problems(result.records, levels)
        if problems:
            return problems
        for rec in result.records:
            ref = ref_errors[rec["level"]]
            if set(rec["errors"]) != set(ref):
                problems.append(f"level {rec['level']}: error keys differ from the reference")
                continue
            for key, value in rec["errors"].items():
                gap = _relative_gap(value, ref[key])
                if not gap <= rtol:
                    problems.append(f"level {rec['level']}: {key} off the reference by {gap:.2e}")
        problems += _rate_problems(result.records[-1]["rates_averaged"], PAPER_RATE_WINDOWS)
        with open(result.out_dir / "results.csv", newline="", encoding="ascii") as fh:
            rows = list(csv.reader(fh))
        if len(rows) != len(levels) + 1:
            problems.append(f"results.csv has {len(rows)} rows")
        if f"levels {levels[0]}..{levels[-1]} done" not in result.stdout:
            problems.append("command line did not report the finished levels")
        return problems

    def level_seconds(self, result: StudyRun) -> dict[int, float]:
        return {rec["level"]: rec["seconds"] for rec in result.records}

    def cleanup(self, result: StudyRun) -> None:
        shutil.rmtree(result.out_dir, ignore_errors=True)


@dataclasses.dataclass
class ContactState:
    mesh: object
    tmap: object
    system: assembly.FeSystem
    smap: steklov.SteklovMap


@dataclasses.dataclass
class ContactInput:
    obstacle: np.ndarray  # g at the multiplier DOFs
    system: assembly.FeSystem  # load and Dirichlet data scaled


@dataclasses.dataclass
class ContactOutput:
    vi: solver.VISolution
    schur_trace: np.ndarray
    schur_multiplier: np.ndarray
    schur_active: np.ndarray


class ContactCold:
    """Seeded contact problems on one assembled level, solved from cold.

    Each unit draws an affine obstacle g = a + b x and a data scale s, solves
    by PDAS from an empty active set and cross-checks against the
    boundary-reduced (Steklov) PDAS.
    """

    name = "contact_cold"
    warmup = True
    # Tolerance of every check relative to the largest trace value, the
    # largest multiplier or the largest load entry.  At the seed the saddle
    # residual reads about 1e-11 and the solver gaps about 3e-14.
    rtol = 1e-9

    def __init__(self, level: int = 7):
        self.level = level

    def setup(self) -> ContactState:
        m = mesh.mesh_at_level(self.level)
        tmap = mesh.trace_map(m)
        system = assembly.build_system(m, tmap, ExactSolution())
        smap = steklov.SteklovMap(m, tmap, stiffness=system.stiffness, lumped=system.lumped_mass)
        return ContactState(m, tmap, system, smap)

    def inputs(self, seed: int, state: ContactState) -> Iterator[ContactInput]:
        rng = np.random.default_rng([seed, 2])
        base = state.system
        while True:
            a, b = rng.uniform(-2e-3, 2e-3, size=2)
            s = rng.uniform(0.5, 2.0)
            scaled = dataclasses.replace(
                base, load=s * base.load, dirichlet_values=s * base.dirichlet_values
            )
            yield ContactInput(a + b * state.tmap.multiplier_x, scaled)

    def run(self, state: ContactState, inp: ContactInput) -> ContactOutput:
        vi = solver.solve_vi(
            state.mesh, state.tmap, None, g=inp.obstacle, system=inp.system, warm_start=False
        )
        t, lam, active = steklov.solve_schur_vi(
            state.smap, inp.system.load, inp.system.dirichlet_values, g=inp.obstacle
        )
        return ContactOutput(vi, t, lam, active)

    def check(self, state: ContactState, inp: ContactInput, out: ContactOutput) -> list[str]:
        system = inp.system
        u = out.vi.u.values
        lam = out.vi.multiplier.values
        trace = u[system.trace_dofs]
        gap = trace - inp.obstacle
        u_scale = float(np.max(np.abs(trace)))
        lam_scale = float(np.max(np.abs(lam)))
        u_tol = self.rtol * u_scale
        lam_tol = self.rtol * lam_scale
        r = system.load - system.stiffness @ u
        r[system.trace_dofs] -= lam * system.lumped_mass
        resid = float(np.max(np.abs(r[system.free_mask])))
        n_active = int(np.count_nonzero(out.vi.active))
        trace_gap = float(np.max(np.abs(out.schur_trace - trace)))
        lam_gap = float(np.max(np.abs(out.schur_multiplier - lam)))
        failed = {
            f"obstacle violated by {np.max(gap):.2e}": not np.max(gap) <= u_tol,
            f"multiplier leaves the cone: {np.min(lam):.2e}": not np.min(lam) >= -lam_tol,
            f"complementarity gap {np.max(np.abs(lam * gap)):.2e}": not np.max(np.abs(lam * gap))
            <= u_tol * lam_scale,
            f"saddle residual {resid:.2e}": not resid <= self.rtol * float(np.max(np.abs(system.load))),
            f"{n_active} of {lam.shape[0]} multipliers active": not 0 < n_active < lam.shape[0],
            "active sets of the two solvers differ": not np.array_equal(out.schur_active, out.vi.active),
            f"trace values of the two solvers differ by {trace_gap:.2e}": not trace_gap <= u_tol,
            f"multipliers of the two solvers differ by {lam_gap:.2e}": not lam_gap <= lam_tol,
        }
        return [problem for problem, bad in failed.items() if bad]

    def level_seconds(self, out) -> dict[int, float]:
        return {}

    def cleanup(self, out) -> None:
        pass


def make(name: str, out_root: Path):
    """The workload of that name at its benchmark size."""
    if name == StudyDefault.name:
        return StudyDefault(out_root)
    if name == ContactCold.name:
        return ContactCold()
    raise ValueError(f"unknown workload {name!r}")


NAMES = (StudyDefault.name, ContactCold.name)
