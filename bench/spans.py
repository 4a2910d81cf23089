"""In-memory span recorder and the probes that wrap the package's layers.

A probe replaces one attribute (a function bound in a module, a method on a
class, or the ``spla`` module reference of a module) by a wrapper that
records a span per call: name, start, end, parent span, unit id and an
optional per-call amount (points evaluated, unknowns, factor fill, bytes).
Probes sit in the namespace of the caller, because ``from x import f``
copies the binding: ``study`` calls its own ``refine``, ``norms`` its own
``quad``.  Spans are kept in flat arrays and written out at the end.
"""

from __future__ import annotations

import functools
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SETUP_UNIT = -1


class Tracer:
    """Flat, append-only span store; parents always precede their children."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.unit = array("q")
        self.name = array("q")
        self.amount = array("d")
        self._stack: list[int] = []
        self.unit_id = SETUP_UNIT

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.unit.append(self.unit_id)
        self.name.append(name_id)
        self.amount.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str, amount: Callable | None = None) -> Callable:
        """Return fn wrapped so that every call records a span called name.

        amount(args, result) gives the call's per-call quantity; it runs
        after the span closes, so its cost is not charged to the span.
        """
        name_id = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if amount is not None:
                self.amount[idx] = float(amount(args, result))
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return dict(
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            unit=np.frombuffer(self.unit, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int64),
            amount=np.frombuffer(self.amount, dtype=float),
        )

    def write(self, path: Path) -> None:
        """Write every span and the name table as one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class _Overlay:
    """Stand-in for a module: overridden attributes first, the module after."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


@dataclass(frozen=True)
class Probe:
    """One attribute to replace while tracing; span names are layer.function."""

    owner: object  # module or class holding the binding
    attr: str
    span: str
    amount: Callable | None = None
    overlay_of: str | None = None  # wrap owner.attr.<overlay_of> inside a module overlay

    def replacement(self, tracer: Tracer, original):
        if self.overlay_of is None:
            return tracer.wrap(original, self.span, self.amount)
        inner = getattr(original, self.overlay_of)
        return _Overlay(original, **{self.overlay_of: tracer.wrap(inner, self.span, self.amount)})


def _fill(args, lu) -> int:
    return lu.L.nnz + lu.U.nnz


def _points(args, result) -> int:
    return int(np.size(args[1]))


def _bytes_written(args, paths) -> int:
    return sum(Path(p).stat().st_size for p in paths.values())


def probes() -> list[Probe]:
    """Every layer boundary the traced run records, in the caller's namespace."""
    import workloads
    from signorini_fem import assembly, cli, manufactured, mesh, norms, solver, steklov, study

    out = [
        Probe(workloads, "invoke_cli", "cli.main"),
        Probe(cli, "run_study", "study.run_study"),
        Probe(study, "run_study", "study.run_study"),
        Probe(study, "refine", "mesh.refine"),
        Probe(study, "trace_map", "mesh.trace_map"),
        Probe(study, "build_system", "assembly.build_system"),
        Probe(study, "solve_vi", "solver.solve_vi", lambda a, r: r.iterations),
        Probe(study, "error_report", "norms.error_report"),
        Probe(study, "emit_reports", "study.emit_reports", _bytes_written),
        Probe(mesh, "refine", "mesh.refine"),
        Probe(mesh, "trace_map", "mesh.trace_map"),
        Probe(assembly, "build_system", "assembly.build_system"),
        Probe(assembly, "assemble_stiffness", "assembly.assemble_stiffness"),
        Probe(assembly, "assemble_load", "assembly.assemble_load"),
        Probe(solver, "solve_vi", "solver.solve_vi", lambda a, r: r.iterations),
        Probe(solver, "linear_subsolve", "solver.linear_subsolve", lambda a, r: a[0].shape[0]),
        Probe(solver, "spla", "solver.splu", _fill, overlay_of="splu"),
        Probe(steklov, "spla", "steklov.splu", _fill, overlay_of="splu"),
        Probe(steklov, "quad", "steklov.quad"),
        Probe(steklov, "trace_moments", "steklov.trace_moments"),
        Probe(steklov, "solve_schur_vi", "steklov.solve_schur_vi"),
        Probe(norms, "volume_errors", "norms.volume_errors"),
        Probe(norms, "trace_errors", "norms.trace_errors"),
        Probe(norms, "multiplier_l2_error", "norms.multiplier_l2_error"),
        Probe(norms, "h_minus1_error", "norms.h_minus1_error"),
        Probe(norms, "quad", "norms.quad"),
        Probe(norms, "postprocess_multiplier", "biortho.postprocess_multiplier"),
    ]
    # the class object is the namespace every caller shares
    for method in ("__init__", "extension", "dense_matrix", "exact_trace_flux"):
        span = "steklov.SteklovMap" if method == "__init__" else f"steklov.{method}"
        out.append(Probe(steklov.SteklovMap, method, span))
    for method in ("u", "grad_u", "rhs", "flux", "u_trace", "u_trace_d1"):
        out.append(Probe(manufactured.ExactSolution, method, f"manufactured.{method}", _points))
    return out


class Installed:
    """Probes installed on a tracer; restore() puts every original back."""

    def __init__(self, tracer: Tracer, probe_list: list[Probe]):
        self._saved = []
        try:
            for p in probe_list:
                original = vars(p.owner)[p.attr]
                self._saved.append((p.owner, p.attr, original))
                setattr(p.owner, p.attr, p.replacement(tracer, original))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# ---------------------------------------------------------------- analysis


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Duration of each span minus the durations of its direct children.

    Calls are synchronous on one thread, so children are disjoint and lie
    inside their parent's interval.
    """
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.shape[0])
    return dur - child


def accounting_problems(spans: dict[str, np.ndarray], intervals: dict[int, tuple[float, float]]) -> list[str]:
    """What keeps the spans from accounting for the measured time; empty if nothing.

    intervals maps each unit id, SETUP_UNIT included, to the (start, end)
    measured around it.  Every span must end after it starts and lie inside
    its parent; every root span must lie inside its unit's interval; the
    root spans of a unit must not overlap and must add up to no more than
    the unit's time.  Self times then sum to at most the measured time.
    """
    start, end, parent, unit = spans["start"], spans["end"], spans["parent"], spans["unit"]
    problems = []
    if np.any(end < start):
        problems.append(f"{int(np.sum(end < start))} spans end before they start")
    child = np.flatnonzero(parent >= 0)
    outside = (start[child] < start[parent[child]]) | (end[child] > end[parent[child]])
    if np.any(outside):
        problems.append(f"{int(np.sum(outside))} spans reach outside their parent")
    roots = parent < 0
    for u in np.unique(unit[roots]):
        mine = np.flatnonzero(roots & (unit == u))
        if int(u) not in intervals:
            problems.append(f"unit {u}: {mine.size} root spans but no measured interval")
            continue
        lo, hi = intervals[int(u)]
        order = mine[np.argsort(start[mine], kind="stable")]
        if start[order[0]] < lo or np.max(end[order]) > hi:
            problems.append(f"unit {u}: root spans reach outside the measured [{lo:.6f}, {hi:.6f}]")
        if np.any(start[order[1:]] < end[order[:-1]]):
            problems.append(f"unit {u}: root spans overlap")
        covered = float(np.sum(end[order] - start[order]))
        if covered > hi - lo:
            problems.append(f"unit {u}: root spans take {covered:.6f} s of a {hi - lo:.6f} s unit")
    return problems


def outermost(keys: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """True where a span's parent has a different key (or no parent).

    Sums of durations over these spans count nested calls of the same key,
    such as u_trace calling u, once.
    """
    out = parent < 0
    inner = ~out
    out[inner] = keys[parent[inner]] != keys[inner]
    return out


LEVELS = range(2, 9)
MODULES = ("mesh", "assembly", "solver", "steklov", "norms", "manufactured", "biortho", "study", "cli")

# (metric, span name, quantity); quantities: s = time inside outermost
# spans, self_s = self time, calls = outermost calls, amount = summed
# per-call amounts.  A group name "manufactured.eval" means every span of
# the manufactured module.
SPAN_METRICS = (
    ("mesh.refine.s", "mesh.refine", "s"),
    ("mesh.refine.calls", "mesh.refine", "calls"),
    ("mesh.trace_map.s", "mesh.trace_map", "s"),
    ("assembly.assemble_load.s", "assembly.assemble_load", "s"),
    ("assembly.assemble_stiffness.s", "assembly.assemble_stiffness", "s"),
    ("assembly.build_system.self_s", "assembly.build_system", "self_s"),
    ("solver.solve_vi.calls", "solver.solve_vi", "calls"),
    ("solver.solve_vi.self_s", "solver.solve_vi", "self_s"),
    ("solver.pdas_iterations", "solver.solve_vi", "amount"),
    ("solver.linear_subsolve.calls", "solver.linear_subsolve", "calls"),
    ("solver.linear_subsolve.s", "solver.linear_subsolve", "s"),
    ("solver.linear_subsolve.unknowns", "solver.linear_subsolve", "amount"),
    ("solver.splu.calls", "solver.splu", "calls"),
    ("solver.splu.s", "solver.splu", "s"),
    ("solver.splu.fill_nnz", "solver.splu", "amount"),
    ("steklov.SteklovMap.s", "steklov.SteklovMap", "s"),
    ("steklov.splu.s", "steklov.splu", "s"),
    ("steklov.splu.fill_nnz", "steklov.splu", "amount"),
    ("steklov.extension.calls", "steklov.extension", "calls"),
    ("steklov.extension.s", "steklov.extension", "s"),
    ("steklov.dense_matrix.s", "steklov.dense_matrix", "s"),
    ("steklov.solve_schur_vi.self_s", "steklov.solve_schur_vi", "self_s"),
    ("steklov.exact_trace_flux.self_s", "steklov.exact_trace_flux", "self_s"),
    ("steklov.trace_moments.s", "steklov.trace_moments", "s"),
    ("steklov.quad.calls", "steklov.quad", "calls"),
    ("norms.error_report.self_s", "norms.error_report", "self_s"),
    ("norms.volume_errors.s", "norms.volume_errors", "s"),
    ("norms.trace_errors.s", "norms.trace_errors", "s"),
    ("norms.multiplier_l2_error.s", "norms.multiplier_l2_error", "s"),
    ("norms.h_minus1_error.s", "norms.h_minus1_error", "s"),
    ("norms.quad.calls", "norms.quad", "calls"),
    ("manufactured.eval.calls", "manufactured.eval", "calls"),
    ("manufactured.eval.points", "manufactured.eval", "amount"),
    ("manufactured.eval.s", "manufactured.eval", "s"),
    ("biortho.postprocess_multiplier.s", "biortho.postprocess_multiplier", "s"),
    ("study.run_study.self_s", "study.run_study", "self_s"),
    ("study.emit_reports.s", "study.emit_reports", "s"),
    ("study.emit_reports.bytes", "study.emit_reports", "amount"),
)
UNITS = {"s": "s", "self_s": "s", "calls": "count", "amount": "count"}


def per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) of every per-layer metric, in report order."""
    out = [(m, UNITS[q]) for m, _, q in SPAN_METRICS]
    out.append(("manufactured.eval.points_per_call", "count"))
    out += [(f"{mod}.self_s", "s") for mod in MODULES]
    out += [(f"study.level_s.L{k}", "s") for k in LEVELS]
    out += [("untraced_s", "s"), ("traced_wall_s", "s"), ("trace_overhead_s", "s")]
    return out


def layer_metrics(
    spans: dict[str, np.ndarray],
    names: list[str],
    n_units: int,
    traced_wall_s: float,
    level_s: dict[int, float],
    trace_overhead_s: float,
) -> dict[str, float]:
    """Per-layer metrics of one traced run, per set-up plus per unit.

    Set-up spans (unit SETUP_UNIT) count once; spans of units are divided
    by the number of units.  traced_wall_s is measured the same way, and
    untraced_s is what the root spans leave of it, so the module self times
    plus untraced_s add up to it by construction; accounting_problems checks
    that the spans fit inside the measured time.
    """
    span_name = np.array(names, dtype=object)[spans["name"]] if names else np.array([], dtype=object)
    module = np.array([n.split(".", 1)[0] for n in span_name], dtype=object)
    group = np.where(module == "manufactured", "manufactured.eval", span_name)
    weight = np.where(spans["unit"] == SETUP_UNIT, 1.0, 1.0 / n_units)
    dur = spans["end"] - spans["start"]
    self_s = self_times(spans)
    top = outermost(group, spans["parent"])

    def total(values, mask):
        return float(np.sum(weight[mask] * values[mask]))

    ones = np.ones_like(dur)
    quantity = {
        "s": lambda m: total(dur, m & top),
        "self_s": lambda m: total(self_s, m),
        "calls": lambda m: total(ones, m & top),
        "amount": lambda m: total(spans["amount"], m & top),
    }
    out = {metric: quantity[q](group == key) for metric, key, q in SPAN_METRICS}
    calls = out["manufactured.eval.calls"]
    out["manufactured.eval.points_per_call"] = out["manufactured.eval.points"] / calls if calls else 0.0
    for mod in MODULES:
        out[f"{mod}.self_s"] = total(self_s, module == mod)
    for k in LEVELS:
        out[f"study.level_s.L{k}"] = float(level_s.get(k, 0.0))
    out["untraced_s"] = traced_wall_s - total(dur, spans["parent"] < 0)
    out["traced_wall_s"] = traced_wall_s
    out["trace_overhead_s"] = trace_overhead_s
    return out
