import json
import time

from click.testing import CliRunner

from signorini_fem import study as study_module
from signorini_fem.cli import main
from signorini_fem.study import MAX_LEVEL


def test_study_command_runs(tmp_path):
    out = tmp_path / "results"
    cfg = tmp_path / "study.cfg"
    cfg.write_text("min_level = 2\nmax_level = 3\n")
    runner = CliRunner()
    result = runner.invoke(
        main, ["study", "--config", str(cfg), "--out-dir", str(out), "--no-lambda-tilde"]
    )
    assert result.exit_code == 0, result.output
    assert (out / "results.csv").exists()
    payload = json.loads((out / "results.json").read_text())
    assert payload["config"]["compute_lambda_tilde"] is False
    assert [rec["level"] for rec in payload["records"]] == [2, 3]


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
            "--no-lambda-tilde",
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
    cfg.write_text("min_level = 2\nwarm_start = yes\n")
    runner = CliRunner()
    result = runner.invoke(main, ["study", "--config", str(cfg)])
    assert result.exit_code != 0
    assert "study.cfg:2" in result.output
    assert "expected true or false" in result.output


def test_out_of_range_config_value_exits_nonzero(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("min_level = 2\nmax_level = 2\npdas_c = -1\n")
    runner = CliRunner()
    result = runner.invoke(main, ["study", "--config", str(cfg)])
    assert result.exit_code != 0
    assert "pdas_c must be > 0" in result.output


def test_level_above_the_cap_exits_before_any_mesh(monkeypatch):
    built = []
    monkeypatch.setattr(study_module, "build_initial", lambda: built.append(1))
    start = time.perf_counter()
    result = CliRunner().invoke(main, ["study", "--max-level", str(MAX_LEVEL + 1)])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code != 0
    assert "4040 MiB" in result.output
    assert not built
