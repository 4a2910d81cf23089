import dataclasses
import json
import logging
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import signorini_fem
from signorini_fem import ExactSolution, SolverError, StudyConfig, StudyError, norms, run_study, study
from signorini_fem import mesh as msh
from signorini_fem.mesh import mesh_at_level
from signorini_fem.solver import condense_system, solve_vi
from signorini_fem.steklov import exact_trace_values
from signorini_fem.study import CSV_COLUMNS, MAX_LEVEL, ConvergenceRecord, averaged_rate, config_from_file, emit_reports

from oracles import count_grid_builds, trace_multiplier_written_out


STAGES = ["mesh", "assemble", "contact", "flux", "norms"]


@pytest.fixture(scope="module")
def records_small(tmp_path_factory):
    out = tmp_path_factory.mktemp("study")
    config = StudyConfig(min_level=2, max_level=5, out_dir=str(out))
    return run_study(config), config, out


@pytest.fixture
def joined_worker():
    """Fails a study that hangs, and checks that no worker process outlives it."""

    def hang(signum, frame):
        raise TimeoutError("the study did not finish within 120 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


def test_averaged_rate_reference_values():
    # frozen reference pairs with known averaged orders
    assert round(averaged_rate(3.2629e-01, 1.2955e-01, 2), 2) == 1.33
    assert round(averaged_rate(1.0050e-01, 4.0559e-04, 5), 2) == 1.99


def test_averaged_rate_no_decay():
    assert averaged_rate(0.37, 0.37, 4) == 0.0


def test_averaged_rate_validates():
    with pytest.raises(ValueError):
        averaged_rate(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        averaged_rate(1.0, -1.0, 3)
    with pytest.raises(ValueError):
        averaged_rate(1.0, 1.0, 1)


def test_config_validation():
    with pytest.raises(ValueError):
        StudyConfig(min_level=0)
    with pytest.raises(ValueError):
        StudyConfig(min_level=5, max_level=4)
    with pytest.raises(ValueError):
        StudyConfig(max_level=12)
    with pytest.raises(ValueError):
        StudyConfig(knots=(1.0, 0.5))


def test_level_cap_names_the_measured_reason():
    assert MAX_LEVEL == 10
    with pytest.raises(ValueError, match="the 2..10 study peaked at 817 MiB RSS in the calling process") as err:
        StudyConfig(max_level=11)
    assert "and 679 MiB in the worker, mostly level 10's assembly and load" in str(err.value)
    assert "level 11 has not been measured within this host's 7 GB" in str(err.value)
    assert "which grow about 3.2x per level" in str(err.value)
    assert StudyConfig(max_level=10).max_level == 10


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(min_level=2.0), "min_level must be an integer"),
        (dict(min_level=True), "min_level must be an integer"),
        (dict(max_level="8"), "max_level must be an integer"),
        (dict(knots=(0.5, 2.0)), "cut-off knot s1 must lie in"),  # right of x_right
        (dict(knots=(0.2, 0.25)), "cut-off knot s1 must lie in"),  # left of x_left
        (dict(knots=(0.0, 1.0)), "0 < s0 < s1"),
        (dict(knots=(0.9, 0.6)), "0 < s0 < s1"),
        (dict(knots=(0.5, float("nan"))), "knots must be two real numbers"),
        (dict(min_level=3, max_level=2), "levels must satisfy 1 <= min <= max, got 3..2"),
        (dict(knots=(0.5, float("inf"))), "knots must be two real numbers"),
        (dict(max_level=6.0), "max_level must be an integer"),
        (dict(knots=(0.5, True)), "knots must be two real numbers"),
        (dict(knots="0.5,1.0"), "knots must be two real numbers"),
        (dict(knots=(0.5,)), "knots must be two real numbers"),
        (dict(out_dir=3), "out_dir must be a path string"),
        (dict(out_dir=""), "out_dir must be a path string, not empty"),
    ],
)
def test_config_validation_types_and_ranges(kwargs, message):
    with pytest.raises(ValueError, match=message):
        StudyConfig(**kwargs)


def test_config_accepts_boundary_values():
    config = StudyConfig(min_level=1, max_level=1, knots=(1e-3, ExactSolution.x_right))
    assert config.min_level == 1 and config.knots == (1e-3, ExactSolution.x_right)
    assert StudyConfig(min_level=MAX_LEVEL, max_level=MAX_LEVEL).min_level == MAX_LEVEL


def test_degenerate_single_level():
    records = run_study(StudyConfig(min_level=2, max_level=2))
    assert len(records) == 1
    assert records[0].rates == {}


def test_study_rates_and_transmission(records_small):
    records, config, out = records_small
    last = records[-1]
    # four refinements reach the asymptotic trend of order 2 in L2(Omega)
    assert 1.85 <= last.rates["e_L2_omega"] <= 2.15
    for rec in records:
        assert rec.xl_ratio < 1.0
        assert rec.xr_ratio < 1.0
        assert rec.iterations <= 100


def test_csv_report(records_small):
    records, config, out = records_small
    lines = (out / "results.csv").read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(records)
    first_row = lines[1].split(",")
    assert first_row[0] == str(records[0].level)
    assert first_row[3] == ""  # no rate on the first level
    assert first_row[18] == str(records[0].iterations)


def test_json_roundtrip(records_small):
    records, config, out = records_small
    payload = json.loads((out / "results.json").read_text())
    assert payload["config"]["max_level"] == 5
    assert len(payload["records"]) == len(records)
    for rec, blob in zip(records, payload["records"]):
        assert blob["level"] == rec.level
        assert blob["h"] == rec.h
        assert blob["errors"] == rec.errors
        assert blob["rates_averaged"] == rec.rates
        assert blob["xl_dist"] == rec.xl_dist
        assert blob["iterations"] == rec.iterations


def test_records_carry_the_saddle_residual_of_their_solve(records_small):
    # level 5 runs in this process, levels 2..4 in the worker
    records, config, out = records_small
    payload = json.loads((out / "results.json").read_text())
    for rec, blob in zip(records, payload["records"]):
        mesh = mesh_at_level(rec.level)
        tmap = msh.trace_map(mesh)
        system = study.build_system(mesh, tmap, config.solution(), load=study.system_load)
        assert rec.saddle_residual == solve_vi(mesh, tmap, None, system=system).residual
        assert blob["saddle_residual"] == rec.saddle_residual
        assert "saddle_residual" not in rec.errors
    assert "saddle" not in (out / "results.csv").read_text()


def test_the_study_columns_are_the_norms_columns():
    assert study.RATE_KEYS is norms.RATE_KEYS


def test_json_record_keys_are_the_record_fields_in_order(records_small):
    _, _, out = records_small
    payload = json.loads((out / "results.json").read_text())
    expected = [
        "rates_averaged" if f.name == "rates" else f.name
        for f in dataclasses.fields(ConvergenceRecord)
        if f.name not in ("stage_seconds", "stage_peak_rss_mib")
    ]
    assert expected[:5] == ["level", "h", "errors", "rates_averaged", "rates_stepwise"]
    for blob in payload["records"]:
        assert list(blob) == expected


def test_determinism_modulo_seconds(tmp_path):
    cfg_a = StudyConfig(min_level=2, max_level=3, out_dir=str(tmp_path / "a"))
    cfg_b = StudyConfig(min_level=2, max_level=3, out_dir=str(tmp_path / "b"))
    run_study(cfg_a)
    run_study(cfg_b)

    def strip_seconds(path):
        lines = path.read_text().strip().splitlines()
        return [",".join(ln.split(",")[:-1]) for ln in lines]

    assert strip_seconds(tmp_path / "a" / "results.csv") == strip_seconds(tmp_path / "b" / "results.csv")

    def strip_json(path):
        payload = json.loads(path.read_text())
        for rec in payload["records"]:
            rec.pop("seconds")
        payload.pop("stage_seconds")
        payload.pop("stage_peak_rss_mib")
        payload.pop("worker_peak_rss_mib")
        payload["config"].pop("out_dir")
        return payload

    assert strip_json(tmp_path / "a" / "results.json") == strip_json(tmp_path / "b" / "results.json")


def test_a_study_builds_one_grid_solver_per_level(monkeypatch):
    # the contact solve and lambda tilde share the system's grid solver;
    # the worker's loop runs here, over the levels below max_level
    built = count_grid_builds(monkeypatch)
    outcomes = {}
    meshes = [mesh_at_level(k) for k in range(2, 9)]
    study._run_levels(meshes, StudyConfig(min_level=2, max_level=9), outcomes.__setitem__)
    assert built == list(range(2, 9))
    assert [rec.level for rec in outcomes.values()] == list(range(2, 9))


def test_a_study_level_builds_one_raster_per_mesh(monkeypatch):
    # the trace map, the DOF partition and the grid solver all slice it;
    # the mesh is built first, as refine reads the rasters of levels 1..3
    m = mesh_at_level(4)
    built = []
    build = msh._build_raster

    def counted(vertices):
        built.append(vertices)
        return build(vertices)

    monkeypatch.setattr(msh, "_build_raster", counted)
    study._run_level(m, StudyConfig(min_level=2, max_level=4), study._StageClock(), study.system_load)
    assert len(built) == 1 and built[0] is m.vertices
    raster = msh.vertex_raster(m)
    assert not raster.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        raster[0, 0] = -1


@pytest.mark.parametrize("level", range(2, 9))
def test_nu_and_the_study_lambda_tilde_equal_the_written_out_recipe(monkeypatch, level):
    # both come from FeSystem.trace_multiplier; the norms are left out
    kept = {}
    build = study.build_system

    def keep_system(mesh, tmap, sol, load):
        kept["system"] = build(mesh, tmap, sol, load=load)
        return kept["system"]

    def keep_lambda_tilde(mesh, tmap, solution, sol, ref_level, lam_tilde):
        kept["lam_tilde"] = lam_tilde
        return {}

    monkeypatch.setattr(study, "build_system", keep_system)
    monkeypatch.setattr(study, "error_report", keep_lambda_tilde)
    mesh = mesh_at_level(level)
    config = StudyConfig()
    study._run_level(mesh, config, study._StageClock(), study.system_load)
    system = kept["system"]
    z = exact_trace_values(config.solution(), msh.trace_map(mesh), system.lumped_mass)
    assert np.array_equal(condense_system(system)[1], trace_multiplier_written_out(system))
    assert np.array_equal(kept["lam_tilde"], trace_multiplier_written_out(system, z))


def _results(rec):
    timings_and_rates = ("seconds", "stage_seconds", "stage_peak_rss_mib", "rates", "rates_stepwise")
    return {k: v for k, v in dataclasses.asdict(rec).items() if k not in timings_and_rates}


def test_worker_records_equal_the_levels_run_in_this_process(records_small):
    # level 5's load comes from the worker, levels 2..4 run in it
    records, config, _ = records_small
    assert [rec.level for rec in records] == [2, 3, 4, 5]
    for rec in records:
        own = study._run_level(mesh_at_level(rec.level), config, study._StageClock(), study.system_load)
        assert _results(rec) == _results(own)


def _check_the_worker_load(monkeypatch, min_level):
    test_process = os.getpid()
    load = study.system_load
    received = {}
    build = study.build_system

    def load_in_the_worker(mesh, sol):
        assert os.getpid() != test_process, f"the level {mesh.level} load was assembled in the test process"
        return load(mesh, sol)

    def keep_load(mesh, tmap, sol, load):
        def kept(mesh, sol):
            received[mesh.level] = load(mesh, sol)
            return received[mesh.level]

        return build(mesh, tmap, sol, load=kept)

    monkeypatch.setattr(study, "system_load", load_in_the_worker)
    monkeypatch.setattr(study, "build_system", keep_load)
    config = StudyConfig(min_level=min_level, max_level=5)
    records = run_study(config)
    # the coarser levels build their systems in the worker, out of this dict's sight
    assert list(received) == [5]
    assert np.array_equal(received[5], load(mesh_at_level(5), config.solution()))
    monkeypatch.undo()
    own = study._run_level(mesh_at_level(5), config, study._StageClock(), study.system_load)
    assert _results(records[-1]) == _results(own)


def test_the_worker_load_equals_the_load_assembled_here(monkeypatch, joined_worker):
    _check_the_worker_load(monkeypatch, min_level=2)


def test_a_one_level_study_takes_its_load_from_the_worker(monkeypatch, joined_worker):
    _check_the_worker_load(monkeypatch, min_level=5)


def test_results_json_carries_the_worker_peak(records_small, tmp_path):
    _, _, out = records_small
    assert json.loads((out / "results.json").read_text())["worker_peak_rss_mib"] > 0.0
    # a one-level study's worker sends the load and its peak
    run_study(StudyConfig(min_level=3, max_level=3, out_dir=str(tmp_path)))
    assert json.loads((tmp_path / "results.json").read_text())["worker_peak_rss_mib"] > 0.0


def test_the_finest_mesh_stage_includes_building_the_mesh(monkeypatch, joined_worker):
    refine = study.refine

    def slow_finest(mesh):
        if mesh.level == 3:
            time.sleep(0.5)
        return refine(mesh)

    monkeypatch.setattr(study, "refine", slow_finest)
    records = run_study(StudyConfig(min_level=2, max_level=4))
    assert records[-1].stage_seconds["mesh"] >= 0.5
    assert records[-1].seconds >= 0.5
    assert all(rec.stage_seconds["mesh"] < 0.5 for rec in records[:-1])


def test_a_study_builds_every_mesh_and_raster_in_the_calling_process(monkeypatch, joined_worker):
    test_process = os.getpid()
    refined = {}

    def here_only(build):
        def built(arg):
            if os.getpid() != test_process:
                raise RuntimeError(f"{build.__name__} ran in the worker")
            return build(arg)

        return built

    refine = here_only(study.refine)

    def chained(mesh):
        refined[mesh.level] = weakref.ref(mesh)
        return refine(mesh)

    build = study.build_system

    def finest_alone(mesh, tmap, sol, load):
        if os.getpid() == test_process:
            # the finest level runs here once the worker is forked
            assert [level for level, ref in refined.items() if ref() is not None] == []
        return build(mesh, tmap, sol, load=load)

    monkeypatch.setattr(study, "refine", chained)
    monkeypatch.setattr(study, "mesh_at_level", here_only(study.mesh_at_level))
    monkeypatch.setattr(msh, "_build_raster", here_only(msh._build_raster))
    monkeypatch.setattr(study, "build_system", finest_alone)
    records = run_study(StudyConfig(min_level=2, max_level=4))
    assert [rec.level for rec in records] == [2, 3, 4]
    # one chain: mesh_at_level(2), then refines to levels 3 and 4
    assert list(refined) == [2, 3]


def test_stage_seconds_add_up_to_the_level_seconds(records_small):
    records, _, out = records_small
    payload = json.loads((out / "results.json").read_text())
    assert list(payload["stage_seconds"]) == [str(rec.level) for rec in records]
    for rec in records:
        assert list(rec.stage_seconds) == STAGES
        assert all(sec >= 0.0 for sec in rec.stage_seconds.values())
        assert sum(rec.stage_seconds.values()) == pytest.approx(rec.seconds, rel=1e-9)
        assert payload["stage_seconds"][str(rec.level)] == rec.stage_seconds
    assert "stage" not in (out / "results.csv").read_text()


def test_stage_peaks_never_fall_through_the_stages(records_small):
    # level 5 runs in this process, levels 2..4 one after another in the
    # worker, after it assembled level 5's load
    records, _, out = records_small
    payload = json.loads((out / "results.json").read_text())
    assert list(payload["stage_peak_rss_mib"]) == [str(rec.level) for rec in records]
    for rec, blob in zip(records, payload["records"]):
        assert list(rec.stage_peak_rss_mib) == STAGES
        peaks = list(rec.stage_peak_rss_mib.values())
        assert peaks[0] > 0.0 and peaks == sorted(peaks)
        assert payload["stage_peak_rss_mib"][str(rec.level)] == rec.stage_peak_rss_mib
        assert "stage_peak_rss_mib" not in blob and "stage_peak_rss_mib" not in rec.errors
    in_worker = [peak for rec in records[:-1] for peak in rec.stage_peak_rss_mib.values()]
    assert in_worker == sorted(in_worker) and in_worker[-1] <= payload["worker_peak_rss_mib"]
    assert records[-1].stage_peak_rss_mib["norms"] <= study._peak_rss_mib()


def test_each_level_is_logged_once_in_order_with_its_stages(caplog, joined_worker):
    with caplog.at_level(logging.INFO, logger="signorini_fem.study"):
        run_study(StudyConfig(min_level=2, max_level=4))
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("level ")]
    assert [line.split(":")[0] for line in lines] == ["level 2", "level 3", "level 4"]
    for line in lines:
        assert all(re.search(rf"{stage} [0-9.]+s [0-9]+ MiB", line) for stage in STAGES)
        assert "saddle residual=" in line


def test_emit_reports_empty_records_error(monkeypatch, joined_worker):
    # every level fails in the solver, so no record exists
    def failing_solve(*args, **kwargs):
        raise SolverError("PDAS did not converge")

    monkeypatch.setattr(study, "solve_vi", failing_solve)
    with pytest.raises(StudyError):
        run_study(StudyConfig(min_level=2, max_level=3, out_dir=None))


def _solve_failing_at(monkeypatch, failing_level, fail):
    solve = study.solve_vi

    def solve_but_one_level(mesh, *args, **kwargs):
        if mesh.level == failing_level:
            fail()
        return solve(mesh, *args, **kwargs)

    monkeypatch.setattr(study, "solve_vi", solve_but_one_level)


def _fail_to_converge():
    raise SolverError("PDAS did not converge within 100 iterations")


def test_failed_level_raises_with_the_other_records(monkeypatch, joined_worker):
    _solve_failing_at(monkeypatch, 3, _fail_to_converge)
    with pytest.raises(StudyError, match="level 3 failed: PDAS did not converge") as err:
        run_study(StudyConfig(min_level=2, max_level=4))
    assert [rec.level for rec in err.value.records] == [2, 4]


# in the 2..4 study levels 2 and 3 run in the worker, level 4 in this process
@pytest.mark.parametrize("failing_level", [2, 4])
def test_failed_first_or_finest_level_raises_with_the_other_records(monkeypatch, joined_worker, failing_level):
    _solve_failing_at(monkeypatch, failing_level, _fail_to_converge)
    with pytest.raises(StudyError) as err:
        run_study(StudyConfig(min_level=2, max_level=4))
    assert str(err.value) == f"level {failing_level} failed: PDAS did not converge within 100 iterations"
    assert [rec.level for rec in err.value.records] == [k for k in (2, 3, 4) if k != failing_level]


@pytest.mark.parametrize("failing_level", [3, 4])
def test_another_exception_reaches_the_caller(monkeypatch, joined_worker, failing_level):
    def fail():
        raise ValueError(f"no stiffness at level {failing_level}")

    _solve_failing_at(monkeypatch, failing_level, fail)
    with pytest.raises(ValueError, match=f"no stiffness at level {failing_level}") as err:
        run_study(StudyConfig(min_level=2, max_level=4))
    # the worker's traceback is the cause of what it raised
    assert ("in the study's worker process" in str(err.value.__cause__)) == (failing_level == 3)


def test_a_worker_that_dies_fails_its_unreported_levels(monkeypatch, joined_worker, tmp_path):
    test_process = os.getpid()

    def die():
        assert os.getpid() != test_process, "level 3 ran in the test process"
        os._exit(3)

    _solve_failing_at(monkeypatch, 3, die)
    out = tmp_path / "died"
    with pytest.raises(StudyError) as err:
        run_study(StudyConfig(min_level=2, max_level=4, out_dir=str(out)))
    assert str(err.value) == "level 3 failed: the study's worker process exited with code 3"
    assert [rec.level for rec in err.value.records] == [2, 4]
    assert json.loads((out / "results.json").read_text())["failed_levels"] == [3]


def _load_failing_in_the_worker(monkeypatch, fail):
    test_process = os.getpid()
    load = study.system_load

    def load_but_not_in_the_worker(mesh, sol):
        if os.getpid() != test_process:
            fail()
        return load(mesh, sol)

    monkeypatch.setattr(study, "system_load", load_but_not_in_the_worker)


def _check_a_worker_that_dies_in_the_load(monkeypatch, tmp_path, min_level):
    _load_failing_in_the_worker(monkeypatch, lambda: os._exit(3))
    out = tmp_path / "died"
    with pytest.raises(StudyError) as err:
        run_study(StudyConfig(min_level=min_level, max_level=4, out_dir=str(out)))
    reason = "the study's worker process exited with code 3"
    assert str(err.value) == "; ".join(f"level {k} failed: {reason}" for k in range(min_level, 5))
    assert err.value.records == []
    payload = json.loads((out / "results.json").read_text())
    assert payload["failed_levels"] == list(range(min_level, 5))
    assert payload["worker_peak_rss_mib"] is None


def test_a_worker_that_dies_in_the_load_fails_every_level(monkeypatch, joined_worker, tmp_path):
    _check_a_worker_that_dies_in_the_load(monkeypatch, tmp_path, min_level=2)


def test_a_worker_that_dies_in_the_load_fails_a_one_level_study(monkeypatch, joined_worker, tmp_path):
    _check_a_worker_that_dies_in_the_load(monkeypatch, tmp_path, min_level=4)


def test_an_exception_in_the_worker_load_reaches_the_caller(monkeypatch, joined_worker):
    def fail():
        raise ValueError("no load for the finest level")

    _load_failing_in_the_worker(monkeypatch, fail)
    with pytest.raises(ValueError, match="no load for the finest level") as err:
        run_study(StudyConfig(min_level=2, max_level=4))
    assert "in the study's worker process" in str(err.value.__cause__)


def _check_a_finest_level_that_fails_before_it_reads_the_load(monkeypatch, min_level):
    build = study.build_system

    def off_the_stencil_at_the_finest_level(mesh, tmap, sol, load):
        if mesh.level == 4:
            raise SolverError("the stiffness is not the five-point stencil")
        return build(mesh, tmap, sol, load=load)

    monkeypatch.setattr(study, "build_system", off_the_stencil_at_the_finest_level)
    with pytest.raises(StudyError) as err:
        run_study(StudyConfig(min_level=min_level, max_level=4))
    assert str(err.value) == "level 4 failed: the stiffness is not the five-point stencil"
    assert [rec.level for rec in err.value.records] == list(range(min_level, 4))


def test_a_finest_level_that_fails_before_it_reads_the_load_keeps_the_coarse_records(monkeypatch, joined_worker):
    _check_a_finest_level_that_fails_before_it_reads_the_load(monkeypatch, min_level=2)


def test_a_one_level_study_that_fails_before_it_reads_the_load_has_no_records(monkeypatch, joined_worker):
    _check_a_finest_level_that_fails_before_it_reads_the_load(monkeypatch, min_level=4)


def test_text_printed_before_a_study_is_written_once():
    # a forked worker holds a copy of this process's stdout buffer, which
    # multiprocessing flushes before it forks
    src = Path(signorini_fem.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = (
        "import signorini_fem as sf; print('before the study'); "
        "sf.run_study(sf.StudyConfig(min_level=2, max_level=3))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("before the study") == 1


def test_config_file_parsing(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text(
        """
# benchmark run
min_level = 2
max_level = 4
knots = 0.45,1.05
out_dir = results
"""
    )
    kwargs = config_from_file(path)
    assert kwargs == {
        "min_level": 2,
        "max_level": 4,
        "knots": (0.45, 1.05),
        "out_dir": "results",
    }
    StudyConfig(**kwargs)


@st.composite
def study_configs(draw):
    min_level = draw(st.integers(1, MAX_LEVEL))
    max_level = draw(st.integers(min_level, MAX_LEVEL))
    reals = dict(allow_nan=False, allow_infinity=False, allow_subnormal=False)
    s1 = draw(st.floats(ExactSolution.x_left, ExactSolution.x_right, exclude_min=True, **reals))
    s0 = draw(st.floats(0.0, s1, exclude_min=True, exclude_max=True, **reals))
    out_dir = draw(st.none() | st.from_regex(r"[A-Za-z0-9_./-]{1,24}", fullmatch=True))
    return StudyConfig(min_level, max_level, (s0, s1), out_dir)


@given(config=study_configs())
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
def test_config_file_round_trip(tmp_path_factory, config):
    lines = [
        f"min_level = {config.min_level}",
        f"max_level = {config.max_level}",
        f"knots = {config.knots[0]!r},{config.knots[1]!r}",
    ]
    if config.out_dir is not None:
        lines.append(f"out_dir = {config.out_dir}")
    path = tmp_path_factory.getbasetemp() / "round_trip.cfg"
    path.write_text("\n".join(lines) + "\n")
    assert StudyConfig(**config_from_file(path)) == config


def test_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("not_a_key = 3\n")
    with pytest.raises(ValueError):
        config_from_file(path)


def test_config_file_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("min_level 2\n")
    with pytest.raises(ValueError):
        config_from_file(path)


@pytest.mark.parametrize(
    "line, message",
    [
        ("max_level = 6.5", "max_level"),
        # an empty value of every kind, out_dir's too
        ("max_level =", "max_level: the value is empty"),
        ("knots = ", "knots: the value is empty"),
        ("out_dir =  # none", "out_dir: the value is empty"),
        ("knots = 0.5", "two comma-separated reals"),
        # int() reads both of these as integers
        ("max_level = 1_0", "expected an integer, got '1_0'"),
        ("max_level = \uff13", "expected an integer, got '\uff13'"),
        ("max_level = 4 5", "expected an integer"),
        # float() reads all of these as reals
        ("knots = 0.4_5,\uff11", "expected two comma-separated reals, got '0.4_5,\uff11'"),
        ("knots = \uff10.\uff15,1.0", "expected two comma-separated reals"),
        ("knots = 0.5,inf", "expected two comma-separated reals"),
        ("knots = nan,1.0", "expected two comma-separated reals"),
    ],
)
def test_config_file_rejects_bad_values_naming_the_line(tmp_path, line, message):
    path = tmp_path / "bad.cfg"
    path.write_text(f"# study\nmin_level = 2\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=message) as err:
        config_from_file(path)
    assert f"{path}:3:" in str(err.value)


def test_config_file_skips_a_utf8_byte_order_mark(tmp_path):
    # as Windows Notepad writes one
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbfmin_level = 2\nmax_level = 3\n")
    assert config_from_file(path) == {"min_level": 2, "max_level": 3}
    path.write_bytes(b"\xef\xbb\xbfmin_level = 2\nout_dir = caf\xe9\n")
    with pytest.raises(ValueError, match="not UTF-8") as err:
        config_from_file(path)
    assert str(err.value).startswith(f"{path}:2: ")


@pytest.mark.parametrize("bom, offset", [(b"", 42), (b"\xef\xbb\xbf", 45)])
def test_a_byte_that_is_not_utf8_is_named_by_its_offset_in_the_file(tmp_path, bom, offset):
    path = tmp_path / "latin1.cfg"
    data = bom + b"min_level = 2\r\nmax_level = 2\nout_dir = caf\xe9\n"
    path.write_bytes(data)
    assert data[offset] == 0xE9
    with pytest.raises(ValueError) as err:
        config_from_file(path)
    assert str(err.value) == (
        f"{path}:3: not UTF-8: 'utf-8' codec can't decode byte 0xe9 in position {offset}: invalid continuation byte"
    )


def test_config_file_reads_signed_ascii_integers(tmp_path):
    path = tmp_path / "signed.cfg"
    path.write_text("min_level = +2\nmax_level = 04\n")
    assert config_from_file(path) == {"min_level": 2, "max_level": 4}


def test_config_file_reads_ascii_reals_in_decimal_and_exponent_syntax(tmp_path):
    path = tmp_path / "reals.cfg"
    path.write_text("knots = .5, +1.E0\n")
    assert config_from_file(path) == {"knots": (0.5, 1.0)}
    path.write_text("knots = 45e-2,1.05\n")
    assert config_from_file(path) == {"knots": (0.45, 1.05)}


def test_config_file_rejects_a_repeated_key_naming_both_lines(tmp_path):
    path = tmp_path / "twice.cfg"
    path.write_text("max_level = 3\n# finer\nmax_level = 4\n")
    with pytest.raises(ValueError, match="max_level is set twice, on lines 1 and 3") as err:
        config_from_file(path)
    assert f"{path}:3:" in str(err.value)


@pytest.mark.parametrize(
    "line, out_dir",
    [
        ("out_dir = a#b", "a#b"),
        ("out_dir = a#b  # the report directory", "a#b"),
        ("out_dir = a\t#b", "a"),
        ("  # out_dir = a", None),
    ],
)
def test_config_comments_start_only_after_whitespace(tmp_path, line, out_dir):
    path = tmp_path / "hash.cfg"
    path.write_text(f"min_level = 2\n{line}\n")
    assert config_from_file(path).get("out_dir") == out_dir


def test_csv_rows_of_a_synthetic_record(tmp_path):
    # one error (lambda tilde, with its rate) and one rate (L2 lambda) missing
    errors = dict(
        e_L2_omega=7.3098e-03,
        e_H1_omega=0.5,  # not a CSV column
        e_L2_gammaS=1.2345678e-03,
        e_L2_lambda=0.25,
        e_Hhalf_gammaS=3.0e-2,
        e_Hminushalf_lambda=1.7964e-02,
    )
    rates = dict(
        e_L2_omega=1.89,
        e_H1_omega=1.0,
        e_L2_gammaS=1.923456,
        e_Hhalf_gammaS=1.5,
        e_Hminushalf_lambda=1.73649,
    )
    record = study.ConvergenceRecord(
        level=3,
        h=0.16289,
        errors=errors,
        stage_seconds={},
        rates=rates,
        xl_dist=0.0,
        xl_ratio=0.0,
        xr_dist=0.0123456,
        xr_ratio=0.4567,
        iterations=2,
        seconds=12.3456789,
    )
    emit_reports([record], StudyConfig(min_level=3, max_level=3), tmp_path)
    lines = (tmp_path / "results.csv").read_text(encoding="ascii").splitlines()
    assert lines == [
        "level,h,e_L2_omega,rate_L2_omega,e_L2_gammaS,rate_L2_gammaS,e_L2_lambda,"
        "rate_L2_lambda,e_Hhalf,rate_Hhalf,e_Hmhalf_lambda,rate_Hmhalf_lambda,"
        "e_Hmhalf_lambda_tilde,rate_Hmhalf_lambda_tilde,xl_dist,xl_ratio,xr_dist,"
        "xr_ratio,iters,seconds",
        "3,1.628900e-01,7.309800e-03,1.8900,1.234568e-03,1.9235,2.500000e-01,,"
        "3.000000e-02,1.5000,1.796400e-02,1.7365,,,0.000000e+00,0.0000,"
        "1.234560e-02,0.4567,2,12.346",
    ]


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_emit_reports_refuses_a_non_finite_value_and_writes_nothing(tmp_path, bad):
    zeros = dict(xl_dist=0.0, xl_ratio=0.0, xr_dist=0.0, xr_ratio=0.0)
    record = study.ConvergenceRecord(level=3, h=0.1, errors=dict(e_L2_omega=bad), stage_seconds={}, **zeros)
    with pytest.raises(ValueError, match="JSON compliant"):
        emit_reports([record], StudyConfig(min_level=3, max_level=3), tmp_path / "out")
    assert not (tmp_path / "out").exists()
