import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

import signorini_fem
from signorini_fem import SolverError
from signorini_fem import study as study_module
from signorini_fem.cli import main
from signorini_fem.study import MAX_LEVEL

# keys that are not StudyConfig fields, although older config files set them
REMOVED_KEYS = (
    "weight",
    "pdas_max_iter",
    "pdas_c",
    "warm_start",
    "load_quad_degree",
    "refine_load_near_contact",
    "volume_quad_degree",
    "volume_quad_depth",
    "ref_offset",
    "emit_boundary_profiles",
    "compute_lambda_tilde",
)


def test_study_command_runs(tmp_path):
    out = tmp_path / "results"
    cfg = tmp_path / "study.cfg"
    cfg.write_text("min_level = 2\nmax_level = 3\n")
    runner = CliRunner()
    result = runner.invoke(main, ["study", "--config", str(cfg), "--out-dir", str(out)])
    assert result.exit_code == 0, result.output
    assert (out / "results.csv").exists()
    payload = json.loads((out / "results.json").read_text())
    assert list(payload["config"]) == ["min_level", "max_level", "knots", "out_dir"]
    assert [rec["level"] for rec in payload["records"]] == [2, 3]


def test_summary_rows_line_up_with_the_header():
    # the first level has no rates; its blank cells keep the column width
    result = CliRunner().invoke(main, ["study", "--min-level", "1", "--max-level", "3"])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    header = next(i for i, line in enumerate(lines) if line.lstrip().startswith("level "))
    rows = lines[header + 1 :]
    assert len(rows) == 3
    assert [len(row) for row in rows] == [len(lines[header])] * 3


def test_flag_overrides_config(tmp_path):
    out = tmp_path / "results"
    cfg = tmp_path / "study.cfg"
    cfg.write_text("min_level = 2\nmax_level = 5\n")
    runner = CliRunner()
    result = runner.invoke(
        main,
        [
            "study",
            "--config", str(cfg),
            "--max-level", "2",
            "--knots", "0.5,1.0",
            "--out-dir", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads((out / "results.json").read_text())
    assert payload["config"]["max_level"] == 2


def test_invalid_config_fails_with_message(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("min_level = 9\nmax_level = 2\n")
    runner = CliRunner()
    result = runner.invoke(main, ["study", "--config", str(cfg)])
    assert result.exit_code != 0
    assert "levels" in result.output


def test_unknown_key_fails(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("bogus = 1\n")
    runner = CliRunner()
    result = runner.invoke(main, ["study", "--config", str(cfg)])
    assert result.exit_code != 0
    assert "unknown config key" in result.output


def test_bad_knots_flag():
    runner = CliRunner()
    result = runner.invoke(main, ["study", "--knots", "0.5"])
    assert result.exit_code != 0


def test_invalid_config_value_exits_nonzero(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("min_level = 2\nmax_level = yes\n")
    runner = CliRunner()
    result = runner.invoke(main, ["study", "--config", str(cfg)])
    assert result.exit_code != 0
    assert "study.cfg:2" in result.output
    assert "expected an integer" in result.output


def test_out_of_range_config_value_exits_nonzero(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("min_level = 2\nmax_level = 2\nknots = 0.9,0.6\n")
    runner = CliRunner()
    result = runner.invoke(main, ["study", "--config", str(cfg)])
    assert result.exit_code != 0
    assert "cut-off knots must satisfy 0 < s0 < s1" in result.output


def test_removed_config_keys_exit_nonzero_naming_the_line(tmp_path):
    cfg = tmp_path / "study.cfg"
    for key in REMOVED_KEYS:
        cfg.write_text(f"min_level = 2\n{key} = 1\n")
        result = CliRunner().invoke(main, ["study", "--config", str(cfg)])
        assert result.exit_code != 0
        assert f"study.cfg:2: unknown config key {key!r}" in result.output
        assert "accepted keys: min_level, max_level, knots, out_dir" in result.output


def test_removed_flag_exits_nonzero():
    result = CliRunner().invoke(main, ["study", "--max-level", "2", "--no-lambda-tilde"])
    assert result.exit_code != 0
    assert "No such option" in result.output and "--no-lambda-tilde" in result.output


def _readme_command_lines() -> list:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n", 1)[1]
    code = re.search(r"```sh\n(.*?)```", block, re.DOTALL).group(1)
    return [shlex.split(line, comments=True) for line in code.splitlines() if line.strip()]


def test_every_readme_command_line_is_accepted_by_the_parser(tmp_path, monkeypatch):
    # parsed with click's make_context, so no study runs; --config needs a file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "study.cfg").write_text("")
    lines = _readme_command_lines()
    assert lines
    for prog, *args in lines:
        assert prog == "signorini-fem"
        name = next(arg for arg in args if arg in main.commands)
        split = args.index(name) + 1
        with main.make_context(prog, args[:split]) as ctx:
            main.commands[name].make_context(name, args[split:], parent=ctx)


def test_empty_out_dir_flag_exits_nonzero_and_writes_nothing(tmp_path):
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=tmp_path) as cwd:
        result = runner.invoke(main, ["study", "--min-level", "2", "--max-level", "2", "--out-dir", ""])
        assert result.exit_code != 0
        assert "Error: --out-dir: the value is empty" in result.output
        assert list(Path(cwd).iterdir()) == []


def test_empty_out_dir_config_key_exits_nonzero_and_writes_nothing(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("min_level = 2\nmax_level = 2\nout_dir =\n")
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=tmp_path) as cwd:
        result = runner.invoke(main, ["study", "--config", str(cfg)])
        assert result.exit_code != 0
        assert f"Error: {cfg}:3: out_dir: the value is empty" in result.output
        assert list(Path(cwd).iterdir()) == []


def test_repeated_config_key_exits_nonzero_naming_both_lines(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("min_level = 2\nmax_level = 3\nmax_level = 4\n")
    result = CliRunner().invoke(main, ["study", "--config", str(cfg)])
    assert result.exit_code != 0
    assert "study.cfg:3: max_level is set twice, on lines 2 and 3" in result.output


def test_non_utf8_config_exits_nonzero_naming_the_line(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_bytes(b"min_level = 2\r\nmax_level = 2\nout_dir = caf\xe9\n")
    result = CliRunner().invoke(main, ["study", "--config", str(cfg)])
    assert result.exit_code != 0
    assert f"{cfg}:3: not UTF-8: 'utf-8' codec can't decode byte 0xe9 in position 42" in result.output


def test_failed_level_exits_nonzero_after_writing_the_other_levels(monkeypatch, tmp_path):
    solve = study_module.solve_vi

    def solve_all_but_level_3(mesh, *args, **kwargs):
        if mesh.level == 3:
            raise SolverError("PDAS did not converge within 100 iterations")
        return solve(mesh, *args, **kwargs)

    monkeypatch.setattr(study_module, "solve_vi", solve_all_but_level_3)
    out = tmp_path / "results"
    result = CliRunner().invoke(
        main, ["study", "--min-level", "2", "--max-level", "4", "--out-dir", str(out)]
    )
    assert result.exit_code != 0
    assert "level 3 failed: PDAS did not converge" in result.output
    payload = json.loads((out / "results.json").read_text())
    assert [rec["level"] for rec in payload["records"]] == [2, 4]
    assert 3 in payload["failed_levels"]
    assert len((out / "results.csv").read_text().splitlines()) == 3


def test_level_above_the_cap_exits_before_any_mesh(monkeypatch):
    built = []
    monkeypatch.setattr(study_module, "mesh_at_level", lambda level: built.append(level))
    start = time.perf_counter()
    result = CliRunner().invoke(main, ["study", "--max-level", str(MAX_LEVEL + 1)])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code != 0
    assert "817 MiB" in result.output and "679 MiB in the worker" in result.output
    assert not built


@pytest.mark.parametrize("flag", ["--min-level", "--max-level"])
@pytest.mark.parametrize("value", ["1_0", "\uff13", "3.0"])
def test_level_flags_take_ascii_integers_only(monkeypatch, flag, value):
    # click's int() would read "1_0" as 10 and the fullwidth digit as 3
    built = []
    monkeypatch.setattr(study_module, "mesh_at_level", lambda level: built.append(level))
    result = CliRunner().invoke(main, ["study", flag, value])
    assert result.exit_code == 1
    assert f"Error: {flag}: expected an integer, got {value!r}" in result.output
    assert not built


@pytest.mark.parametrize("value", ["0.4_5,1", "\uff10.\uff15,1.0", "0.5,nan"])
def test_knots_flag_takes_ascii_reals_only(monkeypatch, value):
    built = []
    monkeypatch.setattr(study_module, "mesh_at_level", lambda level: built.append(level))
    result = CliRunner().invoke(main, ["study", "--knots", value])
    assert result.exit_code == 1
    assert f"Error: --knots: expected two comma-separated reals, got {value!r}" in result.output
    assert not built


def test_package_import_leaves_scipy_fft_out():
    # importing scipy.fft takes 80-100 ms, about a quarter of the default
    # study's set-up time, so the grid solver's DST-I runs on numpy.fft
    src = Path(signorini_fem.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = "import sys, signorini_fem.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.fft')))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"


def _config_with_out_dir(tmp_path, out_dir):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"min_level = 2\nmax_level = 3\nout_dir = {out_dir}\n")
    return ["study", "--config", str(cfg)]


@pytest.mark.parametrize(
    "argv",
    [
        # an existing file named as the report directory
        lambda tmp: _config_with_out_dir(tmp, tmp / "blocker"),
        # a directory under an existing file
        lambda tmp: ["study", "--min-level", "2", "--max-level", "3", "--out-dir", str(tmp / "blocker" / "sub")],
    ],
    ids=["config-file", "flag-under-file"],
)
def test_unusable_out_dir_exits_before_any_level_naming_the_path(tmp_path, monkeypatch, argv):
    (tmp_path / "blocker").write_text("")
    levels = []
    run_level = study_module._run_level

    def counted(mesh, *args):
        levels.append(mesh.level)
        return run_level(mesh, *args)

    monkeypatch.setattr(study_module, "_run_level", counted)
    result = CliRunner().invoke(main, argv(tmp_path))
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit), result.exception
    assert levels == []
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: ") and str(tmp_path / "blocker") in lines[0]
    assert "Traceback" not in result.output
