"""Tests of the benchmark's own machinery: spans, generators, checks, probes.

Workloads run here at small sizes (contact on level 4, the study to level 3)
so the file stays fast; the benchmark sizes are fixed in workloads.make.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from signorini_fem.solver import SolverError  # noqa: E402


def _synthetic(rows):
    """Span arrays from (name id, start, end, parent, unit) rows."""
    cols = list(zip(*rows))
    return dict(
        name=np.array(cols[0]),
        start=np.array(cols[1], dtype=float),
        end=np.array(cols[2], dtype=float),
        parent=np.array(cols[3]),
        unit=np.array(cols[4]),
        amount=np.zeros(len(rows)),
    )


def test_self_time_on_synthetic_tree():
    # A [0,10] -> B [1,4], C [5,9] -> D [6,7]; second root E [11,12]
    tree = _synthetic(
        [
            (0, 0.0, 10.0, -1, 0),
            (1, 1.0, 4.0, 0, 0),
            (2, 5.0, 9.0, 0, 0),
            (3, 6.0, 7.0, 2, 0),
            (0, 11.0, 12.0, -1, 0),
        ]
    )
    assert spans.self_times(tree).tolist() == [3.0, 3.0, 3.0, 1.0, 1.0]


def test_nested_calls_of_one_group_count_once():
    # u_trace calling u is one evaluator call; quad around it is not
    names = ["norms.quad", "manufactured.u_trace", "manufactured.u"]
    tree = _synthetic(
        [
            (0, 0.0, 10.0, -1, 0),
            (1, 1.0, 5.0, 0, 0),
            (2, 2.0, 4.0, 1, 0),
            (2, 6.0, 8.0, 0, 0),
        ]
    )
    tree["amount"] = np.array([0.0, 3.0, 3.0, 5.0])
    m = spans.layer_metrics(tree, names, n_units=1, traced_wall_s=12.0, level_s={}, trace_overhead_s=0.0)
    assert m["manufactured.eval.calls"] == 2.0
    assert m["manufactured.eval.points"] == 8.0
    assert m["manufactured.eval.s"] == 6.0
    assert m["norms.quad.calls"] == 1.0
    assert m["norms.self_s"] == 4.0
    assert m["untraced_s"] == 2.0


def test_setup_spans_count_once_and_units_average():
    names = ["mesh.refine", "solver.splu"]
    tree = _synthetic(
        [
            (0, 0.0, 2.0, -1, spans.SETUP_UNIT),
            (1, 3.0, 4.0, -1, 0),
            (1, 5.0, 8.0, -1, 1),
        ]
    )
    m = spans.layer_metrics(tree, names, n_units=2, traced_wall_s=5.0, level_s={3: 0.5}, trace_overhead_s=0.1)
    assert m["mesh.refine.s"] == 2.0
    assert m["solver.splu.calls"] == 1.0
    assert m["solver.splu.s"] == 2.0
    assert m["study.level_s.L3"] == 0.5
    accounted = sum(m[f"{mod}.self_s"] for mod in spans.MODULES) + m["untraced_s"]
    assert accounted == pytest.approx(5.0)


def test_accounting_accepts_spans_inside_their_units():
    # set-up [0, 3] holds root A; unit 0 [4, 10] holds roots B, C with a child D
    tree = _synthetic(
        [
            (0, 0.5, 2.5, -1, spans.SETUP_UNIT),
            (1, 4.0, 6.0, -1, 0),
            (2, 6.0, 9.5, -1, 0),
            (3, 7.0, 8.0, 2, 0),
        ]
    )
    intervals = {spans.SETUP_UNIT: (0.0, 3.0), 0: (4.0, 10.0)}
    assert spans.accounting_problems(tree, intervals) == []


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([(0, 3.5, 5.0, -1, 0)], "outside the measured"),  # starts before its unit
        ([(0, 5.0, 10.5, -1, 0)], "outside the measured"),  # ends after its unit
        ([(0, 4.0, 7.0, -1, 0), (1, 6.0, 9.0, -1, 0)], "overlap"),
        ([(0, 4.0, 8.0, -1, 0), (1, 4.0, 8.0, -1, 0)], "take 8.000000 s"),
        ([(0, 4.0, 6.0, -1, 0), (1, 5.0, 7.0, 0, 0)], "outside their parent"),
        ([(0, 6.0, 5.0, -1, 0)], "end before they start"),
        ([(0, 4.0, 5.0, -1, 1)], "no measured interval"),
    ],
)
def test_accounting_catches_spans_that_do_not_fit(rows, expected):
    intervals = {spans.SETUP_UNIT: (0.0, 3.0), 0: (4.0, 10.0)}
    problems = spans.accounting_problems(_synthetic(rows), intervals)
    assert any(expected in p for p in problems), problems


def test_per_layer_names_match_benchmark_json():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="ascii"))
    assert [m["name"] for m in doc["per_layer"]] == [n for n, _ in spans.per_layer_names()]
    assert [m["unit"] for m in doc["per_layer"]] == [u for _, u in spans.per_layer_names()]
    empty = _synthetic([(0, 0.0, 1.0, -1, 0)])
    m = spans.layer_metrics(empty, ["mesh.refine"], 1, 1.0, {}, 0.0)
    assert list(m) == [n for n, _ in spans.per_layer_names()]
    assert {w["name"] for w in doc["workloads"]} <= set(workloads.NAMES)


@pytest.fixture(scope="module")
def contact():
    wl = workloads.ContactCold(level=4)
    return wl, wl.setup()


def test_contact_generator_is_deterministic_and_valid(contact):
    wl, state = contact
    x = state.tmap.multiplier_x
    for seed in range(50):
        a = [next(gen) for gen in [wl.inputs(seed, state)] for _ in range(4)]
        b = [next(gen) for gen in [wl.inputs(seed, state)] for _ in range(4)]
        for p, q in zip(a, b):
            assert np.array_equal(p.obstacle, q.obstacle)
            assert np.array_equal(p.system.load, q.system.load)
            slope = (p.obstacle[-1] - p.obstacle[0]) / (x[-1] - x[0])
            assert abs(slope) <= 2e-3 and abs(p.obstacle[0] - slope * x[0]) <= 2e-3
            scale = p.system.load @ state.system.load / (state.system.load @ state.system.load)
            assert 0.5 <= scale <= 2.0


def test_contact_unit_passes_and_corruption_is_caught(contact):
    wl, state = contact
    inp = next(wl.inputs(3, state))
    out = wl.run(state, inp)
    assert wl.check(state, inp, out) == []

    lam = out.vi.multiplier
    bad_lam = dataclasses.replace(out.vi, multiplier=dataclasses.replace(lam, values=-lam.values))
    assert wl.check(state, inp, dataclasses.replace(out, vi=bad_lam))
    flipped = out.schur_active.copy()
    flipped[np.argmax(flipped)] = False
    assert wl.check(state, inp, dataclasses.replace(out, schur_active=flipped))
    shifted = out.schur_trace + 1e-6
    assert wl.check(state, inp, dataclasses.replace(out, schur_trace=shifted))


class _Raising:
    name = "raising"
    warmup = False

    def setup(self):
        return None

    def inputs(self, seed, state):
        while True:
            yield seed

    def run(self, state, inp):
        raise SolverError("PDAS did not converge")

    def check(self, state, inp, out):
        return []

    def level_seconds(self, out):
        return {}

    def cleanup(self, out):
        pass


class _WrongOutput(_Raising):
    def run(self, state, inp):
        return inp

    def check(self, state, inp, out):
        return ["wrong"]


@pytest.mark.parametrize("wl", [_Raising(), _WrongOutput()])
def test_failed_units_are_counted_not_raised(wl):
    log = bench_run.UnitLog()
    times, used, _ = bench_run.timed_units(wl, None, wl.inputs(0, None), 0.0, log, "t")
    assert (log.attempted, log.failed, len(times)) == (1, 1, 1)


def test_host_speed_reference_answers_and_stops():
    samples = []
    with bench_run.HostSpeed() as host:
        host.sample(samples, 2)
    assert len(samples) == 2 and all(t > 0.0 for t in samples)
    assert host._child.returncode == 0
    scaled = bench_run.at_reference_speed(2.0, [0.2, 0.05, 0.3])
    assert scaled == pytest.approx(2.0 * bench_run.REFERENCE_S / 0.2)
    assert [bench_run.reference_count(t) for t in ([], [3.5], [20.0, 24.0])] == [2, 2, 11]


def _originals():
    return {(id(p.owner), p.attr): vars(p.owner)[p.attr] for p in spans.probes()}


def test_probes_are_restored_after_traced_run_and_on_error(contact, tmp_path):
    before = _originals()
    wl, _ = contact
    log = bench_run.UnitLog()
    metrics = bench_run.trace(wl, 1, 0.0, log, {}, tmp_path / "spans.npz")
    assert log.failed == 0 and metrics["solver.pdas_iterations"][0] >= 1
    assert _originals() == before

    with pytest.raises(SolverError):
        with spans.Installed(spans.Tracer(), spans.probes()):
            _Raising().run(None, None)
    assert _originals() == before
    saved = np.load(tmp_path / "spans.npz")
    assert saved["start"].shape == saved["end"].shape and "solver.solve_vi" in saved["names"]


def _strip_seconds(records):
    return [{k: v for k, v in r.items() if k != "seconds"} for r in records]


def test_traced_outputs_equal_untraced_outputs(contact, tmp_path):
    wl, state = contact
    inp = next(wl.inputs(5, state))
    plain = wl.run(state, inp)
    with spans.Installed(spans.Tracer(), spans.probes()):
        traced = wl.run(state, inp)
    assert np.array_equal(plain.vi.u.values, traced.vi.u.values)
    assert np.array_equal(plain.schur_trace, traced.schur_trace)
    assert wl.check(state, inp, plain) == wl.check(state, inp, traced) == []


def test_study_default_unit_through_the_cli(tmp_path):
    # a three-level default study checked against a reference of itself
    wl = workloads.StudyDefault(tmp_path / "out", max_level=3)
    argv = next(wl.inputs(0, None))
    first = wl.run(None, argv)
    ref = tmp_path / "ref.json"
    records = [{"level": r["level"], "errors": r["errors"]} for r in first.records]
    ref.write_text(json.dumps({"rtol": 1e-12, "records": records}), encoding="ascii")
    wl.reference = ref
    state = wl.setup()
    tracer = spans.Tracer()
    with spans.Installed(tracer, spans.probes()):
        traced = wl.run(state, argv)
    assert _strip_seconds(traced.records) == _strip_seconds(first.records)
    problems = wl.check(state, argv, traced)
    # three levels are too few for the paper's rate windows, nothing else fails
    assert problems and all(p.startswith("averaged rate") for p in problems)

    missing = dataclasses.replace(traced, records=traced.records[:1])
    assert wl.check(state, argv, missing)[0].startswith("levels")
    off = [dict(r, errors=dict(r["errors"])) for r in traced.records]
    off[-1]["errors"]["e_L2_omega"] *= 1 + 1e-6
    problems = wl.check(state, argv, dataclasses.replace(traced, records=off))
    assert any("e_L2_omega off the reference" in p for p in problems)
    assert "cli.main" in tracer.names and "study.emit_reports" in tracer.names
    wl.cleanup(traced)
    assert not traced.out_dir.exists()


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "contact_cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
