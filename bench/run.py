"""Benchmark of signorini-fem: one workload per process.

    python3 bench/run.py --workload study_default --seed 1 --seconds 40 --trace 0

Run from the repository root.  With --trace 0 the run times the workload
with no instrumentation and reports the end-to-end metrics, with set-up
and unit times scaled to a reference host speed (HostSpeed); with --trace 1
it runs the same units twice, untraced and then traced, and reports the
per-layer metrics.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  Each run also writes its
record (environment, per-unit times, failures, metrics) and, when traced,
its spans under bench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
# Seconds of one hostspeed.py request taken as the reference speed (about
# its median on a quiet 2-CPU Xeon).  Set-up and unit times are reported at
# this speed; it only fixes the scale, and both sides of a comparison use it.
REFERENCE_S = 0.1
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import signorini_fem.cli; "
    "print(time.perf_counter() - t)"
)


def cap_threads() -> int:
    """Pin BLAS and OpenMP pools to one thread; return the CPUs available.

    The package runs single-threaded apart from BLAS, and its BLAS calls
    are small: with two OpenBLAS threads on a 2-CPU machine the contact
    unit ran about 20% slower and its run-to-run spread doubled.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def fix_mmap_threshold() -> None:
    """Fix glibc's mmap threshold at 4 MiB so peak RSS follows live memory.

    By default glibc raises the threshold each time a large block is freed,
    and arrays then come from the heap in an order that depends on the
    inputs.  Peak RSS of contact_cold then took one of two values about
    40 MiB apart.  At 4 MiB the page faults per contact unit stay as they
    were (65k against 62k).
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        m_mmap_threshold = -3
        mallopt(m_mmap_threshold, 4 * 1024 * 1024)


def git_commit() -> str | None:
    """Commit of the checkout, or None outside a git work tree or without git."""
    # the ceiling stops git from taking up a repository that encloses the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return dict(
        nproc=nproc,
        cpu_model=cpu,
        python=sys.version.split()[0],
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        click=_dist_version("click"),
        thread_caps={var: os.environ.get(var) for var in THREAD_VARS},
        git_commit=git_commit(),
    )


def _dist_version(name: str) -> str | None:
    from importlib import metadata

    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


def child_import_seconds() -> float:
    """Seconds a fresh interpreter spends importing the package and its CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_SNIPPET],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class HostSpeed:
    """hostspeed.py in a child process, timed on request.

    The host's speed drifts by tens of percent over minutes, and a run's
    set-up and units drift with it.  Sampling a fixed reference next to
    them and scaling by the ratio removes most of that drift for the
    contact units and every set-up (see bench/README.md).  The
    reference runs in its own process and never at the same time as the
    program, so nothing the program leaves behind (heap, threads, warm
    caches) changes it.
    """

    def __init__(self):
        self._child = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "hostspeed.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def sample(self, into: list[float], count: int = 1) -> None:
        """Append the times of count reference requests to into."""
        for _ in range(count):
            self._child.stdin.write("\n")
            self._child.stdin.flush()
            into.append(float(self._child.stdout.readline()))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._child.stdin.close()
        try:
            self._child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()
        return False


def reference_count(unit_times: list[float]) -> int:
    """Reference samples to take next to a unit: about 5% of its time, at least two."""
    return max(2, round(statistics.median(unit_times) / 2)) if unit_times else 2


def at_reference_speed(seconds: float, reference: list[float]) -> float:
    """seconds measured next to reference samples, at the reference speed."""
    return seconds * REFERENCE_S / statistics.median(reference)


class UnitLog:
    """Per-unit outcome bookkeeping shared by the timed and traced passes."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, wl, state, inp, label: str):
        """Run and check one unit; return (start, end) of the run and its output or None."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = wl.run(state, inp)
        except Exception:  # the run must go on; the unit counts as failed
            end = time.perf_counter()
            self.failures.append(f"{label}: {traceback.format_exc(limit=3)}")
            return (start, end), None
        end = time.perf_counter()
        try:
            problems = wl.check(state, inp, out)
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
        return (start, end), out

    @property
    def failed(self) -> int:
        return len(self.failures)


def timed_units(wl, state, inputs, seconds: float, log: UnitLog, label: str, before_unit=None):
    """Units until the run's length is the nearest it can get to seconds; at least one.

    Another unit runs when it is predicted to end less far past seconds
    than the run now falls short of it.  A stricter rule (stop before any
    overrun) gave study_default one unit or two by host speed alone.
    before_unit, if given, is called untimed with the unit times so far
    before each unit.
    Returns (per-unit seconds, inputs used, wall seconds of the loop).
    """
    times, used = [], []
    start = time.perf_counter()
    while True:
        inp = next(inputs)
        if before_unit is not None:
            before_unit(times)
        (t0, t1), out = log.run(wl, state, inp, f"{label} unit {len(times)}")
        if out is not None:
            wl.cleanup(out)
        times.append(t1 - t0)
        used.append(inp)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(times) / 2 > seconds:
            return times, used, elapsed


def warmed_inputs(wl, seed: int, state, log: UnitLog):
    """The seeded unit inputs, after one untimed unit when the workload wants it."""
    inputs = wl.inputs(seed, state)
    if wl.warmup:
        _, out = log.run(wl, state, next(inputs), "warm-up")
        if out is not None:
            wl.cleanup(out)
    return inputs


def measure(wl, seed: int, seconds: float, log: UnitLog, record: dict) -> dict:
    """Untraced run: end-to-end metrics, set-up and unit times at the reference speed.

    The reference is sampled once before each set-up repeat, and before
    each unit and after the last one as reference_count says: ten samples
    next to a 20 s study unit (two before the first), two next to a 4 s
    contact unit.
    """
    imports, builds, setup_ref, unit_ref, state = [], [], [], [], None
    with HostSpeed() as host:
        for _ in range(SETUP_REPEATS):
            host.sample(setup_ref)
            imports.append(child_import_seconds())
            state = None  # at most one set-up alive, so set-up does not inflate peak RSS
            start = time.perf_counter()
            state = wl.setup()
            builds.append(time.perf_counter() - start)
        setup_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        inputs = warmed_inputs(wl, seed, state, log)
        times, _, wall = timed_units(
            wl, state, inputs, seconds, log, "timed", lambda done: host.sample(unit_ref, reference_count(done))
        )
        host.sample(unit_ref, reference_count(times))
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    unit_s = statistics.median(times)
    setup_s = statistics.median(imports) + statistics.median(builds)
    record.update(
        import_s=imports,
        input_s=builds,
        unit_s=times,
        wall_s=wall,
        setup_peak_rss_mib=setup_rss_kib / 1024.0,
        setup_reference_s=setup_ref,
        unit_reference_s=unit_ref,
        measured_unit_s_p50=unit_s,
        measured_setup_s=setup_s,
    )
    return {
        "unit_s_p50": (at_reference_speed(unit_s, unit_ref), "s"),
        "peak_rss_mib": (rss_kib / 1024.0, "MiB"),
        "setup_s": (at_reference_speed(setup_s, setup_ref), "s"),
    }


def trace(wl, seed: int, seconds: float, log: UnitLog, record: dict, spans_path: Path) -> dict:
    """Same units untraced, then traced; per-layer metrics from the spans."""
    import spans

    tracer = spans.Tracer()
    probe_list = spans.probes()
    with spans.Installed(tracer, probe_list):
        start = time.perf_counter()
        state = wl.setup()
        intervals = {spans.SETUP_UNIT: (start, time.perf_counter())}
    setup_wall = intervals[spans.SETUP_UNIT][1] - start
    inputs = warmed_inputs(wl, seed, state, log)
    plain, used, _ = timed_units(wl, state, inputs, seconds, log, "untraced")
    traced, level_s = [], {}
    with spans.Installed(tracer, probe_list):
        for i, inp in enumerate(used):
            tracer.unit_id = i
            intervals[i], out = log.run(wl, state, inp, f"traced unit {i}")
            traced.append(intervals[i][1] - intervals[i][0])
            if out is not None:
                for level, sec in wl.level_seconds(out).items():
                    level_s[level] = level_s.get(level, 0.0) + sec / len(used)
                wl.cleanup(out)
    tracer.write(spans_path)
    n = len(used)
    traced_wall = setup_wall + sum(traced) / n
    log.failures += spans.accounting_problems(tracer.arrays(), intervals)
    metrics = spans.layer_metrics(
        tracer.arrays(),
        tracer.names,
        n,
        traced_wall,
        level_s,
        (sum(traced) - sum(plain)) / n,
    )
    record.update(
        untraced_unit_s=plain,
        traced_unit_s=traced,
        setup_traced_s=setup_wall,
        module_share={m: metrics[f"{m}.self_s"] / traced_wall for m in spans.MODULES},
        spans=spans_path.name,
    )
    units = dict(spans.per_layer_names())
    return {name: (value, units[name]) for name, value in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = cap_threads()
    fix_mmap_threshold()
    if not (SRC / "signorini_fem" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.NAMES}", file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, OUT / "tmp")
    log = UnitLog()
    record = dict(vars(args), environment=environment(nproc))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics = trace(wl, args.seed, args.seconds, log, record, OUT / f"spans-{tag}.npz")
    else:
        metrics = measure(wl, args.seed, args.seconds, log, record)

    failed_frac = log.failed / log.attempted
    record.update(attempted=log.attempted, failed=log.failed, failures=log.failures, metrics=metrics)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"record-{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")

    for failure in log.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print("env " + json.dumps(record["environment"]))
    print(f"workload {args.workload} seed {args.seed}: {log.attempted} units, failed_frac {failed_frac:g}")
    if not args.trace:
        print(f"  wall_s {record['wall_s']:.3f} s (timed body, {len(record['unit_s'])} units)")
        print(
            f"  as measured: unit_s_p50 {record['measured_unit_s_p50']:.6g} s,"
            f" setup_s {record['measured_setup_s']:.6g} s; at {REFERENCE_S} s per reference:"
        )
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
