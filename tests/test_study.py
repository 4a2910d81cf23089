import json

import numpy as np
import pytest

from signorini_fem import SolverError, StudyConfig, StudyError, run_study, study
from signorini_fem.study import CSV_COLUMNS, MAX_LEVEL, averaged_rate, config_from_file, emit_reports


@pytest.fixture(scope="module")
def records_small(tmp_path_factory):
    out = tmp_path_factory.mktemp("study")
    config = StudyConfig(min_level=2, max_level=5, out_dir=str(out), emit_boundary_profiles=True)
    return run_study(config), config, out


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
    with pytest.raises(ValueError, match="level 10 peaked at 4040 MiB RSS") as err:
        StudyConfig(max_level=11)
    assert "4.8x per level" in str(err.value)
    assert StudyConfig(max_level=10).max_level == 10


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(pdas_c=-1.0), "pdas_c must be > 0"),
        (dict(pdas_c=0), "pdas_c must be > 0"),
        (dict(pdas_max_iter=0), "pdas_max_iter must be >= 1"),
        (dict(ref_offset=-2), "ref_offset must be >= 0"),
        (dict(load_quad_degree=0), "load_quad_degree must be >= 1"),
        (dict(volume_quad_degree=0), "volume_quad_degree must be >= 1"),
        (dict(volume_quad_depth=-3), "volume_quad_depth must be >= 0"),
        (dict(weight=-0.7), "weight must be > 0"),
        (dict(warm_start="yes"), "warm_start must be true or false"),
        (dict(compute_lambda_tilde=1), "compute_lambda_tilde must be true or false"),
        (dict(max_level=6.0), "max_level must be an integer"),
        (dict(ref_offset=True), "ref_offset must be an integer"),
        (dict(pdas_c=float("nan")), "pdas_c must be a finite real number"),
        (dict(knots=(0.5,)), "knots must be two real numbers"),
        (dict(out_dir=3), "out_dir must be a path string"),
    ],
)
def test_config_validation_types_and_ranges(kwargs, message):
    with pytest.raises(ValueError, match=message):
        StudyConfig(**kwargs)


def test_config_accepts_boundary_values():
    config = StudyConfig(pdas_max_iter=1, ref_offset=0, volume_quad_depth=0, pdas_c=2)
    assert config.ref_offset == 0 and config.pdas_c == 2


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


def test_boundary_profiles(records_small):
    records, config, out = records_small
    for rec in records:
        path = out / f"boundary_profile_level{rec.level}.csv"
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,u_exact,u_h,lambda_exact,lambda_hat"
        x = np.array([float(ln.split(",")[0]) for ln in lines[1:]])
        assert np.all(np.diff(x) > 0.0)


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
        payload["config"].pop("out_dir")
        return payload

    assert strip_json(tmp_path / "a" / "results.json") == strip_json(tmp_path / "b" / "results.json")


def test_emit_reports_empty_records_error(monkeypatch):
    # every level fails in the solver, so no record exists
    def failing_solve(*args, **kwargs):
        raise SolverError("PDAS did not converge")

    monkeypatch.setattr(study, "solve_vi", failing_solve)
    with pytest.raises(StudyError):
        run_study(StudyConfig(min_level=2, max_level=3, out_dir=None))


def test_lambda_tilde_optional(tmp_path):
    records = run_study(StudyConfig(min_level=2, max_level=3, compute_lambda_tilde=False))
    for rec in records:
        assert "e_Hminushalf_lambda_tilde" not in rec.errors
    out = tmp_path / "no_tilde"
    emit_reports(records, StudyConfig(min_level=2, max_level=3, compute_lambda_tilde=False), out)
    lines = (out / "results.csv").read_text().strip().splitlines()
    row = lines[1].split(",")
    assert row[12] == "" and row[13] == ""


def test_config_file_parsing(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text(
        """
# benchmark run
min_level = 2
max_level = 4
knots = 0.45,1.05
warm_start = false
out_dir = results
ref_offset = 3
"""
    )
    kwargs = config_from_file(path)
    assert kwargs == {
        "min_level": 2,
        "max_level": 4,
        "knots": (0.45, 1.05),
        "warm_start": False,
        "out_dir": "results",
        "ref_offset": 3,
    }
    StudyConfig(**kwargs)


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
        ("warm_start = yes", "expected true or false"),
        ("compute_lambda_tilde = True", "expected true or false"),
        ("max_level = 6.5", "max_level"),
        ("knots = 0.5", "two comma-separated reals"),
    ],
)
def test_config_file_rejects_bad_values_naming_the_line(tmp_path, line, message):
    path = tmp_path / "bad.cfg"
    path.write_text(f"# study\nmin_level = 2\n{line}\n")
    with pytest.raises(ValueError, match=message) as err:
        config_from_file(path)
    assert f"{path}:3:" in str(err.value)


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
