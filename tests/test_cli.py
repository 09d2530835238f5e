"""End-to-end CLI checks: subcommands, artifacts, schema validity, exit codes."""

import importlib.resources
import json
import re

import jsonschema
import numpy as np
import pytest

from geotraj.cli import main
from geotraj.geodesy import GeodeticCoord, UtmCoord, geodetic_to_utm, utm_to_geodetic
from geotraj.synth import ScenarioSpec, generate, write_scenario
from geotraj.trajectory_io import DeviceCalibration

E0, N0, H0 = 513000.0, 5403000.0, 300.0

REPORT_FILES = ["report.json", "visit_table.json", "errors.csv",
                "drift_samples.csv", "checkpoint_errors.svg",
                "trajectory_overlay.svg", "drift_time.svg"]


def _origin():
    return utm_to_geodetic(UtmCoord(E0, N0, H0, 32, "north"))


def _bias_spec(seed=42):
    return ScenarioSpec(
        seed=seed,
        waypoints=np.array([[E0, N0, H0], [E0 + 90.0, N0, H0],
                            [E0 + 90.0, N0 + 90.0, H0],
                            [E0, N0 + 90.0, H0]]),
        dwells=[("CP01", 8.0), ("CP02", 8.0), ("CP03", 8.0), ("CP04", 8.0)],
        speed=1.5,
        origin=_origin(),
        zone=32,
        global_bias=np.array([1.0, 0.0, 0.0]),
        calibration=DeviceCalibration([-0.073, -0.023, -0.172],
                                      [0.023, -0.023, 0.090]),
    )


def _drift_spec(seed=0):
    # Zigzag keeps the checkpoints non-collinear while preserving 90 m legs.
    corners = [(0.0, 0.0), (90.0, 0.0), (90.0, 90.0), (180.0, 90.0),
               (180.0, 0.0)]
    return ScenarioSpec(
        seed=seed,
        waypoints=np.array([[E0 + de, N0 + dn, H0] for de, dn in corners]),
        dwells=[(f"CP{i+1:02d}", 8.0) for i in range(5)],
        speed=1.5,
        origin=_origin(),
        zone=32,
        outage_windows=[(30.0, 260.0)],
        drift_rate=0.02,
        noise_sigma=0.02,
    )


@pytest.fixture(scope="module")
def bias_bundle(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("bias")
    write_scenario(generate(_bias_spec()), outdir, method_label="slam")
    return outdir


@pytest.fixture(scope="module")
def drift_bundle(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("drift")
    write_scenario(generate(_drift_spec()), outdir, method_label="slam")
    return outdir


def _schema(name):
    text = (importlib.resources.files("geotraj.schemas") / name).read_text()
    return json.loads(text)


def test_evaluate_produces_full_artifact_set(bias_bundle, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["evaluate", "--config", str(bias_bundle / "run.json"),
               "--out", str(out)])
    assert rc == 0
    for name in REPORT_FILES:
        assert (out / name).is_file(), name
    stdout = capsys.readouterr().out
    assert "slam" in stdout
    assert re.search(r"abs RMSE", stdout)

    doc = json.loads((out / "report.json").read_text())
    jsonschema.validate(doc, _schema("report.schema.json"))
    method = doc["methods"][0]
    assert method["label"] == "slam"
    assert method["summary"]["rmse_absolute_m"] == pytest.approx(1.0, abs=1e-6)
    assert method["summary"]["gap_percent_rounded"] == 100
    assert method["summary"]["n_points"] == 4
    assert doc["visit_table"]["n_visits"] == 4
    assert len(doc["provenance"]["config_sha256"]) == 64


def test_run_config_matches_its_schema(bias_bundle):
    doc = json.loads((bias_bundle / "run.json").read_text())
    jsonschema.validate(doc, _schema("run_config.schema.json"))


def test_evaluate_is_deterministic(bias_bundle, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["evaluate", "--config", str(bias_bundle / "run.json"),
                 "--out", str(out1)]) == 0
    assert main(["evaluate", "--config", str(bias_bundle / "run.json"),
                 "--out", str(out2)]) == 0
    for name in REPORT_FILES:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_match_then_evaluate_with_imported_table(bias_bundle, tmp_path, capsys):
    table_path = tmp_path / "table.json"
    rc = main(["match", "--config", str(bias_bundle / "run.json"),
               "--out", str(table_path)])
    assert rc == 0
    assert "4 visit(s)" in capsys.readouterr().out

    out = tmp_path / "out"
    rc = main(["evaluate", "--config", str(bias_bundle / "run.json"),
               "--visit-table", str(table_path), "--out", str(out)])
    assert rc == 0
    imported = json.loads(table_path.read_text())
    reported = json.loads((out / "visit_table.json").read_text())
    assert [v["t_rep"] for v in reported["visits"]] == \
        [v["t_rep"] for v in imported["visits"]]
    doc = json.loads((out / "report.json").read_text())
    assert doc["visit_table"]["generator_method"] == "slam"


def test_match_writes_the_table_evaluate_builds(bias_bundle, tmp_path):
    table_path = tmp_path / "table.json"
    assert main(["match", "--config", str(bias_bundle / "run.json"),
                 "--out", str(table_path)]) == 0
    out = tmp_path / "out"
    assert main(["evaluate", "--config", str(bias_bundle / "run.json"),
                 "--out", str(out)]) == 0
    assert table_path.read_bytes() == (out / "visit_table.json").read_bytes()


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_exit_code_non_finite_visit_table(bias_bundle, tmp_path, capsys, token):
    table_path = tmp_path / "table.json"
    assert main(["match", "--config", str(bias_bundle / "run.json"),
                 "--out", str(table_path)]) == 0
    doc = re.sub(r'"t_rep": [^,]+,', f'"t_rep": {token},', table_path.read_text(),
                 count=1)
    assert token in doc
    table_path.write_text(doc)
    rc = main(["evaluate", "--config", str(bias_bundle / "run.json"),
               "--visit-table", str(table_path), "--out", str(tmp_path / "out")])
    assert rc == 7
    assert "SchemaMismatch" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_env_var_sets_output_dir_and_flag_wins(bias_bundle, tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("GEOTRAJ_OUT", str(env_dir))
    assert main(["evaluate", "--config", str(bias_bundle / "run.json")]) == 0
    assert (env_dir / "report.json").is_file()

    flag_dir = tmp_path / "from_flag"
    assert main(["evaluate", "--config", str(bias_bundle / "run.json"),
                 "--out", str(flag_dir)]) == 0
    assert (flag_dir / "report.json").is_file()
    assert not (env_dir / "report.json.new").exists()


def test_drift_subcommand_aggregates_and_fits(drift_bundle, tmp_path, capsys):
    report_out = tmp_path / "rep"
    assert main(["evaluate", "--config", str(drift_bundle / "run.json"),
                 "--out", str(report_out)]) == 0
    agg_out = tmp_path / "agg"
    rc = main(["drift", "--reports", str(report_out / "report.json"),
               "--axis", "time", "--eps0", "0.02", "--out", str(agg_out)])
    assert rc == 0
    assert (agg_out / "drift_aggregate.csv").is_file()
    assert (agg_out / "drift_aggregate.svg").is_file()
    stdout = capsys.readouterr().out
    m = re.search(r"slam: alpha = ([0-9.e+-]+) m/s over (\d+) samples", stdout)
    assert m, stdout
    assert float(m.group(1)) > 0.0
    assert int(m.group(2)) == 5
    lines = (agg_out / "drift_aggregate.csv").read_text().splitlines()
    assert lines[0] == "method,sequence,cp_id,dt_s,dx_m,eps_m"
    assert len(lines) == 6


def test_synth_subcommand_writes_bundle(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_bias_spec().to_dict()), encoding="utf-8")
    out = tmp_path / "scenario"
    rc = main(["synth", "--spec", str(spec_path), "--label", "slam",
               "--out", str(out)])
    assert rc == 0
    for name in ["truth.tum", "estimate.tum", "rtk.csv", "checkpoints.csv",
                 "spec.json", "expected.json", "run.json"]:
        assert (out / name).is_file(), name
    assert "expected absolute RMSE 1.000000" in capsys.readouterr().out

    # Seed override changes the name in run.json but not the bias-only files.
    out2 = tmp_path / "scenario2"
    assert main(["synth", "--spec", str(spec_path), "--seed", "43",
                 "--label", "slam", "--out", str(out2)]) == 0
    run2 = json.loads((out2 / "run.json").read_text())
    assert run2["sequence_id"] == "synthetic-seed43"


def test_convert_geodetic_to_utm_fixture(capsys):
    rc = main(["convert", "--from", "geodetic", "--to", "utm32n",
               "48.78", "9.18", "0.0"])
    assert rc == 0
    out = capsys.readouterr().out
    easting = float(re.search(r"easting=([0-9.e+-]+)", out).group(1))
    northing = float(re.search(r"northing=([0-9.e+-]+)", out).group(1))
    assert easting == pytest.approx(513223.5393526722, abs=1e-6)
    assert northing == pytest.approx(5403015.518032496, abs=1e-6)


def test_convert_round_trip_through_ecef(capsys):
    rc = main(["convert", "--from", "geodetic", "--to", "ecef",
               "48.78", "9.18", "300.0"])
    assert rc == 0
    out = capsys.readouterr().out
    x = float(re.search(r"x=([0-9.e+-]+)", out).group(1))
    assert x == pytest.approx(4157130.9639913747, abs=1e-6)
    rc = main(["convert", "--from", "ecef", "--to", "geodetic",
               "4157130.9639913747", "671819.2006405438", "4774698.067404641"])
    assert rc == 0
    out = capsys.readouterr().out
    lat = float(re.search(r"lat_deg=([0-9.e+-]+)", out).group(1))
    assert lat == pytest.approx(48.78, abs=1e-9)


def test_exit_code_config_error(tmp_path, capsys):
    rc = main(["evaluate", "--config", str(tmp_path / "missing.json")])
    assert rc == 2
    assert "ConfigError" in capsys.readouterr().err


def test_exit_code_parse_error(bias_bundle, tmp_path, capsys):
    broken = tmp_path / "broken"
    broken.mkdir()
    for name in ["rtk.csv", "checkpoints.csv", "run.json"]:
        (broken / name).write_bytes((bias_bundle / name).read_bytes())
    (broken / "estimate.tum").write_text("0.0 0 0 0 0 0 0 1\nnot a pose\n")
    rc = main(["evaluate", "--config", str(broken / "run.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "MalformedLine" in capsys.readouterr().err


def test_exit_code_no_fix(bias_bundle, tmp_path, capsys):
    broken = tmp_path / "nofix"
    broken.mkdir()
    for name in ["estimate.tum", "checkpoints.csv", "run.json"]:
        (broken / name).write_bytes((bias_bundle / name).read_bytes())
    rtk_lines = (bias_bundle / "rtk.csv").read_text().splitlines()
    downgraded = [rtk_lines[0]] + [ln.replace(",FIX", ",FLOAT")
                                   for ln in rtk_lines[1:]]
    (broken / "rtk.csv").write_text("\n".join(downgraded) + "\n")
    rc = main(["evaluate", "--config", str(broken / "run.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 4
    assert "NoFixAvailable" in capsys.readouterr().err


def test_exit_code_schema_mismatch(bias_bundle, tmp_path, capsys):
    bad_table = tmp_path / "bad.json"
    bad_table.write_text("{\"visits\": []}")
    rc = main(["evaluate", "--config", str(bias_bundle / "run.json"),
               "--visit-table", str(bad_table), "--out", str(tmp_path / "out")])
    assert rc == 7
    assert "SchemaMismatch" in capsys.readouterr().err


def test_exit_code_degenerate_alignment(tmp_path, capsys):
    # Checkpoints surveyed along one straight line: the aligned metric is
    # underdetermined and the run fails with the documented code.
    spec = _drift_spec()
    spec.waypoints = np.array([[E0 + 90.0 * i, N0, H0] for i in range(5)])
    bundle = tmp_path / "line"
    write_scenario(generate(spec), bundle, method_label="slam")
    rc = main(["evaluate", "--config", str(bundle / "run.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 6
    assert "DegenerateConfiguration" in capsys.readouterr().err


def test_exit_code_invalid_spec(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    doc = _bias_spec().to_dict()
    doc["speed_mps"] = -1.0
    spec_path.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "o")])
    assert rc == 9
    assert "InvalidSpec" in capsys.readouterr().err


def test_synth_waypoint_easting_outside_utm_is_invalid_spec(tmp_path, capsys):
    doc = _bias_spec().to_dict()
    doc["waypoints"][2][0] = 1_000_000.0
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "o")])
    assert rc == 9
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error:")] == [
        "error: InvalidSpec: waypoint 2 has easting 1000000.0 outside (0, 1e6)"]


def test_synth_without_positive_dwell_is_invalid_spec(tmp_path, capsys):
    doc = _bias_spec().to_dict()
    doc.update(waypoints=doc["waypoints"][:2], dwells=[["", 0.0], ["", 0.0]])
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "o")])
    assert rc == 9
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error:")] == [
        "error: InvalidSpec: the scenario needs at least one dwell with positive "
        "duration"]


def test_synth_receiver_beyond_84_deg_is_out_of_domain(tmp_path, capsys):
    start = geodetic_to_utm(GeodeticCoord.from_degrees(83.99, 9.0, 50.0), 32)
    doc = _bias_spec().to_dict()
    doc.update(waypoints=[[start.easting, start.northing, 50.0],
                          [start.easting, start.northing + 3000.0, 50.0]],
               dwells=[["CP01", 2.0], ["CP02", 2.0]], speed_mps=50.0,
               origin={"lat_deg": 83.99, "lon_deg": 9.0, "h": 50.0})
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "o")])
    assert rc == 8
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error:")] == [
        "error: OutOfDomain: inverse projection left the UTM latitude domain"]


def test_exit_code_out_of_domain_convert(capsys):
    rc = main(["convert", "--from", "geodetic", "--to", "utm32s",
               "48.78", "9.18", "0.0"])
    assert rc == 8
    assert "OutOfDomain" in capsys.readouterr().err


def test_convert_rejects_unknown_frames(capsys):
    assert main(["convert", "--from", "mercator", "--to", "geodetic",
                 "1", "2", "3"]) == 2
    assert main(["convert", "--from", "geodetic", "--to", "zone99",
                 "48.0", "9.0", "0.0"]) == 2


def _error_lines(capsys) -> list[str]:
    return [line for line in capsys.readouterr().err.splitlines()
            if line.startswith("error:")]


def test_evaluate_in_the_wrong_zone_is_out_of_domain(tmp_path, capsys):
    """A zone 33 survey at 1 deg N, 15 deg E evaluated as zone 32: 6 deg from
    the zone 32 meridian near the equator, its eastings exceed 1e6."""
    origin = GeodeticCoord.from_degrees(1.0, 15.0, H0)
    start = geodetic_to_utm(origin, 33)
    spec = _bias_spec()
    spec.origin, spec.zone = origin, 33
    spec.waypoints = spec.waypoints + [start.easting - E0, start.northing - N0, 0.0]
    bundle = tmp_path / "bundle"
    write_scenario(generate(spec), bundle, method_label="slam")
    config = json.loads((bundle / "run.json").read_text(encoding="utf-8"))
    config["zone"] = 32
    (bundle / "run.json").write_text(json.dumps(config), encoding="utf-8")
    rc = main(["evaluate", "--config", str(bundle / "run.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 8
    [line] = _error_lines(capsys)
    assert re.fullmatch(r"error: OutOfDomain: easting 11\d{5}\.\d+ outside \(0, 1e6\) "
                        r"in zone 32", line)


@pytest.mark.parametrize("command", ["evaluate", "match"])
def test_wrong_zone_away_from_the_equator_is_out_of_domain(bias_bundle, tmp_path,
                                                           capsys, command):
    """The zone 32 survey at 48.8 deg N, 9.2 deg E read as zone 31: the
    eastings stay inside (0, 1e6), but the first fix projects hundreds of km
    from every checkpoint."""
    config = json.loads((bias_bundle / "run.json").read_text(encoding="utf-8"))
    config.update(zone=31, checkpoints=str(bias_bundle / config["checkpoints"]),
                  rtk_log=str(bias_bundle / config["rtk_log"]))
    for method in config["methods"]:
        method["trajectory"] = str(bias_bundle / method["trajectory"])
    run = tmp_path / "run.json"
    run.write_text(json.dumps(config), encoding="utf-8")
    rc = main([command, "--config", str(run), "--out", str(tmp_path / "out")])
    assert rc == 8
    [line] = _error_lines(capsys)
    assert re.fullmatch(r"error: OutOfDomain: first fix lies \d+\.\d km from the nearest "
                        r"checkpoint in zone 31 \(limit 50 km\); is the zone right\?", line)


def test_convert_to_the_wrong_zone_is_out_of_domain(capsys):
    rc = main(["convert", "--from", "geodetic", "--to", "utm32n", "1", "15", "0"])
    assert rc == 8
    [line] = _error_lines(capsys)
    assert re.fullmatch(r"error: OutOfDomain: easting 11687\d\d\.\d+ outside \(0, 1e6\) "
                        r"in zone 32", line)


@pytest.mark.parametrize("frames,values,message", [
    (("ecef", "geodetic"), ("nan", "0", "0"), "non-finite ECEF coordinate"),
    (("geodetic", "ecef"), ("95", "0", "0"),
     "latitude 1.6580627893946132 outside [-pi/2, pi/2]"),
    (("utm32n", "geodetic"), ("2000000", "0", "0"), "easting 2000000.0 outside (0, 1e6)"),
    (("geodetic", "utm61n"), ("1", "179", "0"), "UTM zone 61 outside 1..60"),
])
def test_convert_out_of_range_values_are_config_errors(frames, values, message, capsys):
    rc = main(["convert", "--from", frames[0], "--to", frames[1], *values])
    assert rc == 2
    assert _error_lines(capsys) == [f"error: ConfigError: {message}"]
