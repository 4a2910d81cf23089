"""Convergence study over uniformly refined levels, with CSV/JSON reports.

Per level the problem is assembled, the contact problem solved by PDAS, the
consistency flux computed from the exact trace by the kernel of the solver's
Newton potential, ``FeSystem.trace_multiplier``, and all norms evaluated.
Averaged rates alpha_k follow from (err_first / err_k) = (1/2)^(alpha_k n)
with n the number of halvings between the first and the k-th level;
level-to-level rates are reported alongside in the JSON mirror as a
diagnostic, since they fluctuate more strongly for boundary quantities.
Two runs with the same configuration produce identical numbers; wall-clock
seconds are recorded per level and per stage and are the only
non-reproducible values.

The levels are independent work, tied together only by the rates.  Each
costs about 4x the one before it, so the finest level is the critical path.
A study refines its meshes in one chain and forks one worker process with
them.  The worker assembles the finest mesh's load and sends it back, then
runs the coarser levels one after another; in a one-level study it runs
none.  Meanwhile this process builds the finest level's stiffness and grid
solver, takes the load from the worker and runs the rest of the level.
The load costs about as much as the stiffness with its grid solver, and
the coarser levels together less than the rest of the finest level, so
neither is on the critical path.  The parent merges the outcomes in level
order, so the logs, reports and errors are those of running the levels in
turn.  The worker is forked, not spawned: it needs no import, shares every
level's mesh and raster with the parent copy-on-write and sees every
attribute of this module as the parent left it.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import multiprocessing
import re
import resource
import signal
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .assembly import build_system, system_load
from .manufactured import CutoffSpline, ExactSolution
from .mesh import mesh_at_level, refine, trace_map
from .norms import RATE_KEYS, TOLERANCES, error_report  # noqa: F401  (RATE_KEYS is re-exported)
from .solver import SolverError, discrete_transmission_points, solve_vi
from .steklov import exact_trace_values

log = logging.getLogger(__name__)

# Level 10 ran in 48 s at a peak RSS of 2193 to 2246 MiB over two runs on
# a 7.8 GiB host (BENCH_level10.json).  No sparse factor is built; the
# calling process's peak is set by assembly with the grid solver's
# construction (609 MiB at level 9), which grows with the vertex count,
# about 3.7x per level.  The worker adds its own peak, set by the finest
# level's load on top of the meshes it shares from the fork: the 2..10 study
# peaked at 2191 MiB in the calling process and 726 to 734 MiB in the
# worker (BENCH_mesh_chain.json), so a 2..11 study would need about
# 10.6 GiB.
MAX_LEVEL = 10

#: the H^-1 dual norms use a reference trace space this many levels above
#: the finest study level
REF_OFFSET = 4


class StudyError(RuntimeError):
    """A study without a result for every level; ``records`` holds those it has."""

    def __init__(self, message, records=()):
        super().__init__(message)
        self.records = list(records)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class StudyConfig:
    """Knobs of one study run; defaults reproduce the benchmark setup.

    Levels run from 1 to MAX_LEVEL.  The default window spans eight
    refinements starting from the once refined initial mesh (mesh levels
    2..9).  The 4 x 2 initial mesh is genuinely pre-asymptotic for the
    benchmark (15 vertices cannot resolve the cut-off features), and
    including it as the baseline of the averaged rates would understate
    every order by a constant offset.
    """

    min_level: int = 2
    max_level: int = 9
    knots: tuple[float, float] = (0.5, 1.0)
    out_dir: str | None = None

    def __post_init__(self):
        for name, spec in self.__dataclass_fields__.items():
            value = getattr(self, name)
            if spec.type == "int" and not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 1 <= self.min_level <= self.max_level:
            raise ValueError(f"levels must satisfy 1 <= min <= max, got {self.min_level}..{self.max_level}")
        if self.max_level > MAX_LEVEL:
            raise ValueError(
                f"max_level {self.max_level} is above {MAX_LEVEL}: the 2..10 study peaked at 2191 MiB RSS "
                "in the calling process and 734 MiB in the worker, both set by level 10's assembly, "
                "which grows about 3.7x per level"
            )
        knots_ok = isinstance(self.knots, (tuple, list)) and len(self.knots) == 2
        if not (knots_ok and all(_is_real(k) for k in self.knots)):
            raise ValueError(f"knots must be two real numbers, got {self.knots!r}")
        self.solution()  # the cut-off and the benchmark check where the knots lie
        # an empty path would write the reports into the working directory
        if self.out_dir is not None and not (isinstance(self.out_dir, str) and self.out_dir):
            raise ValueError(f"out_dir must be a path string, not empty, got {self.out_dir!r}")

    def solution(self) -> ExactSolution:
        return ExactSolution(cutoff=CutoffSpline(*self.knots))


@dataclass
class ConvergenceRecord:
    """One row of the study: norms, rates, contact-interval data, timings."""

    level: int
    h: float
    errors: dict
    stage_seconds: dict  # wall seconds of mesh, assemble, contact, flux, norms
    rates: dict = field(default_factory=dict)  # averaged against first level
    rates_stepwise: dict = field(default_factory=dict)  # diagnostic only
    xl_dist: float = math.nan
    xl_ratio: float = math.nan
    xr_dist: float = math.nan
    xr_ratio: float = math.nan
    iterations: int = 0
    seconds: float = 0.0
    tolerances: dict = field(default_factory=dict)


def averaged_rate(err_first: float, err_k: float, k: int) -> float:
    """Averaged convergence order between the first and the k-th level.

    Defined by (err_first / err_k) = (1/2)^(alpha (k-1)), i.e.
    alpha = log2(err_first / err_k) / (k - 1).
    """
    if err_first <= 0.0 or err_k <= 0.0:
        raise ValueError("averaged rate needs positive errors")
    if k < 2:
        raise ValueError("averaged rate needs k >= 2")
    return math.log2(err_first / err_k) / (k - 1)


def run_study(config: StudyConfig) -> list[ConvergenceRecord]:
    """Execute the study and, when configured, write the report files.

    The report directory is created first, so a path that cannot be one
    raises OSError before any level runs.  Once the meshes are refined in
    one chain, one forked worker process assembles the finest one's load
    and then runs the levels below max_level, if any, while this process
    runs max_level.  A level whose solve raises SolverError is skipped and
    the study goes on; so is every level a worker that died did not report,
    and the finest level when the worker died before it sent the load.
    Once the reports of the other levels are written, StudyError names
    every skipped level with its message and carries the records.  Any
    other exception, in this process or the worker, propagates; the worker
    is joined before this function returns or raises.
    """
    if config.out_dir is not None:
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    clock = _StageClock()  # the finest level's mesh stage includes the whole chain
    with _Worker(config) as worker:
        outcomes = {config.max_level: _outcome(worker.finest, config, clock, worker.load)}
        outcomes.update(worker.collect())

    records: list[ConvergenceRecord] = []
    failures: list[str] = []
    for level in sorted(outcomes):
        outcome = outcomes[level]
        if isinstance(outcome, str):
            failures.append(outcome)
            log.error(outcome)
            continue
        records.append(outcome)
        log.info(
            "level %d: h=%.3e, e_L2(Omega)=%.3e, iterations=%d, %.2fs (%s)",
            level,
            outcome.h,
            outcome.errors["e_L2_omega"],
            outcome.iterations,
            outcome.seconds,
            ", ".join(f"{stage} {sec:.2f}s" for stage, sec in outcome.stage_seconds.items()),
        )

    if records:
        _fill_rates(records)
    if config.out_dir is not None:
        emit_reports(records, config, config.out_dir, worker.peak_rss_mib)
    if failures:
        raise StudyError("; ".join(failures), records)
    return records


class _Worker:
    """The study's forked worker process, running while the block runs.

    Entering the block refines the meshes in one chain and forks the worker
    with them; this process keeps ``finest`` alone.  The worker assembles
    its load, then runs the coarser levels.  It is joined when the block
    ends, and terminated first when the block raised.
    """

    #: one name for every study: each failure message names its level
    name = "the study's worker process"

    def __init__(self, config: StudyConfig):
        self.config = config
        self.peak_rss_mib = None

    def __enter__(self):
        meshes = [mesh_at_level(self.config.min_level)]
        for _ in range(self.config.min_level, self.config.max_level):
            meshes.append(refine(meshes[-1]))
        self.finest = meshes[-1]
        fork = multiprocessing.get_context("fork")
        self.receiver, sender = fork.Pipe(duplex=False)
        # start() drops its args, so the coarser meshes go with this frame
        self.process = fork.Process(target=_serve, args=(sender, meshes, self.config))
        self.process.start()
        sender.close()  # so that a dead worker ends receiver.recv() with EOFError
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.process.terminate()
        self.process.join()
        self.process.close()
        self.receiver.close()

    def _receive(self):
        """The worker's next message, (kind, value).

        Re-raises an exception that stopped the worker, with its traceback
        as the cause; raises EOFError naming the exit code once the worker
        has exited.
        """
        try:
            kind, value = self.receiver.recv()
        except EOFError:
            self.process.join()
            raise EOFError(f"{self.name} exited with code {self.process.exitcode}") from None
        if kind == "error":
            exc, text = value
            raise exc from RuntimeError(f"in {self.name}:\n{text}")
        return kind, value

    def load(self, mesh, sol) -> np.ndarray:
        """build_system's load for the finest mesh: the worker's first message."""
        return self._receive()[1]

    def collect(self) -> dict:
        """The worker's outcome per level, read until its peak RSS arrives.

        A load the finest level did not read, because it failed first, is
        skipped.  A level the worker did not report before it exited gets a
        failure message naming the exit code.
        """
        outcomes = {}
        try:
            while self.peak_rss_mib is None:
                kind, value = self._receive()
                if kind == "level":
                    level, outcome = value
                    outcomes[level] = outcome
                elif kind == "peak_rss_mib":
                    self.peak_rss_mib = value
        except EOFError as exc:
            levels = range(self.config.min_level, self.config.max_level)
            outcomes.update({k: f"level {k} failed: {exc}" for k in levels if k not in outcomes})
        return outcomes


def _serve(sender, meshes, config: StudyConfig) -> None:
    """Worker process: send the finest mesh's load, the outcome of each
    level below it and the worker's peak RSS, in this order.

    meshes is the study's chain, min_level to max_level, shared with the
    caller copy-on-write; the coarser ones come with their rasters, so the
    worker builds no mesh and no raster.  Every message is (kind, value);
    an exception ends the worker with ("error", (exception, traceback)).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # on Ctrl-C the parent terminates the worker
    try:
        sender.send(("load", system_load(meshes[-1], config.solution())))
        _run_levels(meshes[:-1], config, lambda level, outcome: sender.send(("level", (level, outcome))))
    except Exception as exc:
        sender.send(("error", (exc, traceback.format_exc())))
        return
    sender.send(("peak_rss_mib", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0))


def _run_levels(meshes, config: StudyConfig, report) -> None:
    """Run a level on each of meshes in turn and call report(level,
    outcome) after each; a level's mesh stage is its trace map alone."""
    for mesh in meshes:
        report(mesh.level, _outcome(mesh, config, _StageClock(), system_load))


def _outcome(mesh, config: StudyConfig, clock, load):
    """The level's ConvergenceRecord, or the failure message when its solve
    raised SolverError or its load was lost with the worker (EOFError)."""
    try:
        return _run_level(mesh, config, clock, load)
    except (SolverError, EOFError) as exc:
        return f"level {mesh.level} failed: {exc}"


class _StageClock:
    """Wall seconds of one level's stages, each booked when it ends."""

    def __init__(self):
        self.start = self.last = time.perf_counter()
        self.seconds = {}

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.seconds[stage] = now - self.last
        self.last = now


def _run_level(mesh, config: StudyConfig, clock: _StageClock, load) -> ConvergenceRecord:
    sol = config.solution()
    ref_level = config.max_level + REF_OFFSET
    tmap = trace_map(mesh)
    clock.lap("mesh")
    system = build_system(mesh, tmap, sol, load=load)
    clock.lap("assemble")
    solution = solve_vi(mesh, tmap, sol, system=system)
    clock.lap("contact")
    # the multiplier of the exact trace z, read as the boundary residual
    # of its refined extension: at level 8 nu - sigma z subtracts two
    # values near 194 to leave one near 1.3
    lam_tilde = system.trace_multiplier(exact_trace_values(sol, tmap, system.lumped_mass))
    clock.lap("flux")

    errors = error_report(mesh, tmap, solution, sol, ref_level=ref_level, lam_tilde=lam_tilde)
    h = mesh.max_edge_length()
    xl_h, xr_h = discrete_transmission_points(solution, tmap)
    clock.lap("norms")
    return ConvergenceRecord(
        level=mesh.level,
        h=h,
        errors=errors,
        xl_dist=abs(sol.x_left - xl_h),
        xl_ratio=abs(sol.x_left - xl_h) / h,
        xr_dist=abs(sol.x_right - xr_h),
        xr_ratio=abs(sol.x_right - xr_h) / h,
        iterations=solution.iterations,
        seconds=clock.last - clock.start,
        stage_seconds=clock.seconds,
        tolerances={**TOLERANCES, "ref_level": ref_level},
    )


def _fill_rates(records: list[ConvergenceRecord]) -> None:
    first = records[0]
    for rec in records:
        k = rec.level - first.level + 1
        if k >= 2:
            for key, err in rec.errors.items():
                if key in first.errors and first.errors[key] > 0.0 and err > 0.0:
                    rec.rates[key] = averaged_rate(first.errors[key], err, k)
    for prev, rec in zip(records, records[1:]):
        if rec.level == prev.level + 1:
            for key, err in rec.errors.items():
                if key in prev.errors and prev.errors[key] > 0.0 and err > 0.0:
                    rec.rates_stepwise[key] = math.log2(prev.errors[key] / err)


def _cell(value, spec: str) -> str:
    return "" if value is None else format(value, spec)


def _error_and_rate(name: str, key: str) -> tuple:
    """The error column e_<name> and its averaged rate column rate_<name>."""
    return (
        (f"e_{name}", lambda rec: _cell(rec.errors.get(key), ".6e")),
        (f"rate_{name}", lambda rec: _cell(rec.rates.get(key), ".4f")),
    )


#: results.csv columns in order, each with the formatter of its cell.
_CSV_TABLE = (
    ("level", lambda rec: str(rec.level)),
    ("h", lambda rec: f"{rec.h:.6e}"),
    *_error_and_rate("L2_omega", "e_L2_omega"),
    *_error_and_rate("L2_gammaS", "e_L2_gammaS"),
    *_error_and_rate("L2_lambda", "e_L2_lambda"),
    *_error_and_rate("Hhalf", "e_Hhalf_gammaS"),
    *_error_and_rate("Hmhalf_lambda", "e_Hminushalf_lambda"),
    *_error_and_rate("Hmhalf_lambda_tilde", "e_Hminushalf_lambda_tilde"),
    ("xl_dist", lambda rec: f"{rec.xl_dist:.6e}"),
    ("xl_ratio", lambda rec: f"{rec.xl_ratio:.4f}"),
    ("xr_dist", lambda rec: f"{rec.xr_dist:.6e}"),
    ("xr_ratio", lambda rec: f"{rec.xr_ratio:.4f}"),
    ("iters", lambda rec: str(rec.iterations)),
    ("seconds", lambda rec: f"{rec.seconds:.3f}"),
)
CSV_COLUMNS = tuple(column for column, _ in _CSV_TABLE)


def emit_reports(records: list[ConvergenceRecord], config: StudyConfig, out_dir, worker_peak_rss_mib=None) -> dict:
    """Write results.csv and results.json.

    Returns the written paths.  The JSON mirror carries the configuration,
    every ``ConvergenceRecord`` field in full precision (``rates`` as
    ``rates_averaged``), ``failed_levels``, the configured levels without a
    record, ``stage_seconds`` by level, and ``worker_peak_rss_mib``, the
    worker process's peak RSS (None when the worker died before it sent
    it).  The timings and the peak stand beside the records so that the
    records of two runs differ only in ``seconds``.  A NaN or infinite value raises ValueError
    before any write.
    """
    configured = range(config.min_level, config.max_level + 1)
    payload = {
        "config": asdict(config),
        "records": [
            {
                ("rates_averaged" if key == "rates" else key): value
                for key, value in asdict(rec).items()
                if key != "stage_seconds"
            }
            for rec in records
        ],
        "failed_levels": sorted(set(configured) - {rec.level for rec in records}),
        "stage_seconds": {str(rec.level): rec.stage_seconds for rec in records},
        "worker_peak_rss_mib": worker_peak_rss_mib,
    }
    text = json.dumps(payload, indent=2, allow_nan=False)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"csv": out / "results.csv", "json": out / "results.json"}
    with open(paths["csv"], "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow([cell(rec) for _, cell in _CSV_TABLE])
    paths["json"].write_text(text + "\n", encoding="ascii")
    return paths


#: a config comment starts with '#' at the start of a line or after whitespace
_COMMENT = re.compile(r"(?<!\S)#")

#: a real in ASCII decimal or exponent syntax; float() would also take
#: underscores, non-ASCII digits, inf and nan
_REAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def config_from_file(path) -> dict:
    """Parse a flat key-value config file into StudyConfig keyword arguments.

    Lines look like "max_level = 6".  A '#' at the start of a line or after
    whitespace starts a comment; elsewhere it is part of the value, so
    "out_dir = a#b" names the directory a#b.  Each value is read as the
    type of its StudyConfig field: knots are two comma-separated reals.  A
    UTF-8 byte order mark at the start is skipped.  Bytes that are not
    UTF-8, unknown keys, keys set twice and values that are empty or do not
    parse raise ValueError naming the line (both lines for a repeated key);
    an unknown key's message lists the accepted ones.
    """
    fields = StudyConfig.__dataclass_fields__
    kwargs = {}
    lines = {}
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # a character after the bytes that decode (without a BOM) falls on the bad byte's line
        lineno = len((exc.object[: exc.start].decode("utf-8") + ".").splitlines())
        raise ValueError(f"{path}:{lineno}: not UTF-8: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in fields:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}; accepted keys: {', '.join(fields)}")
        if key in lines:
            raise ValueError(f"{path}:{lineno}: {key} is set twice, on lines {lines[key]} and {lineno}")
        lines[key] = lineno
        try:
            kwargs[key] = _parse_value(fields[key].type, value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return kwargs


def _parse_value(kind: str, value: str):
    """Read a non-empty value as a StudyConfig field of the annotated type kind."""
    if not value:
        raise ValueError("the value is empty")
    if kind == "int":
        if not re.fullmatch(r"[+-]?[0-9]+", value):
            raise ValueError(f"expected an integer, got {value!r}")
        return int(value)
    if kind == "tuple[float, float]":
        parts = [part.strip() for part in value.split(",")]
        if len(parts) != 2 or not all(_REAL.fullmatch(part) for part in parts):
            raise ValueError(f"expected two comma-separated reals, got {value!r}")
        return (float(parts[0]), float(parts[1]))
    return value
