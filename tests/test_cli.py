"""Tests for the scenario CLI: loading, exit codes, and file outputs."""

import dataclasses
import json

import numpy as np
import pytest
import yaml

from safeflight.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RUNTIME,
    EXIT_VERIFY,
    TOL_ENV_VAR,
    ScenarioError,
    _effective_tol,
    bundled_scenarios,
    load_scenario,
    main,
)

EXPECTED_BUNDLED = [
    "example1",
    "example2_window",
    "example3_c1_s6_s2_c3",
    "example3_c2_s1_c3",
    "example3_c3_s2_s3_c4",
    "example3_c4_s5_c1",
    "hover",
    "margin_demo",
]


def hover_dict():
    """The hover scenario as a plain dict, ready to mutate and re-dump."""
    import importlib.resources

    text = (importlib.resources.files("safeflight") / "scenarios" / "hover.yaml").read_text()
    return yaml.safe_load(text)


def write_scenario(tmp_path, doc, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def write_plan(tmp_path, pl, name="plan.json"):
    path = tmp_path / name
    with open(path, "w") as fh:
        json.dump(pl.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    return str(path)


class TestLoading:
    def test_bundled_names(self):
        assert bundled_scenarios() == EXPECTED_BUNDLED

    def test_every_bundled_scenario_loads(self):
        for name in bundled_scenarios():
            sf = load_scenario(name)
            assert sf.planning.name == name
            assert sf.source == f"bundled:{name}"

    def test_loads_from_path(self, tmp_path):
        path = write_scenario(tmp_path, hover_dict())
        sf = load_scenario(path)
        assert sf.planning.name == "hover"
        assert sf.source == path

    def test_angles_arrive_in_radians(self):
        sf = load_scenario("example1")
        assert sf.planning.bounds.tilt_max == pytest.approx(np.deg2rad(1.75), abs=1e-15)
        assert sf.planning.bounds.omega_max == pytest.approx(np.deg2rad(1.5), abs=1e-15)

    def test_tracking_section(self):
        sf = load_scenario("example1")
        tr = sf.tracking
        assert (tr.cbf.delta, tr.cbf.a1, tr.cbf.a2) == (0.1, 6.0, 8.0)
        assert (tr.gains.kp, tr.gains.kd) == (0.4, 0.1)
        np.testing.assert_array_equal(tr.sim.initial_velocity_offset, [0.25, -0.25, 0.15])
        assert tr.sim.duration is None
        assert tr.sim.control_rate == 100.0

    def test_corridor_scenario_derives_n(self):
        sf = load_scenario("example3_c2_s1_c3")
        planning = sf.planning
        assert planning.corridor is not None
        assert planning.n == len(planning.corridor) + planning.degree - 1

    def test_unknown_name_lists_bundled(self):
        with pytest.raises(ScenarioError, match="hover"):
            load_scenario("no_such_scenario")

    def test_yaml_parse_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("spline: [unclosed\n")
        with pytest.raises(ScenarioError, match="YAML parse error"):
            load_scenario(str(path))

    def test_schema_violation_names_the_path(self, tmp_path):
        doc = hover_dict()
        del doc["bounds"]["v_max"]
        with pytest.raises(ScenarioError, match="schema violation at bounds"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_rejects_wrong_format_tag(self, tmp_path):
        doc = hover_dict()
        doc["format"] = "other"
        with pytest.raises(ScenarioError, match="schema violation"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_n_required_without_corridor(self, tmp_path):
        doc = hover_dict()
        del doc["spline"]["n"]
        with pytest.raises(ScenarioError, match="spline.n is required"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_planning_validation_becomes_scenario_error(self, tmp_path):
        doc = hover_dict()
        doc["apply_tracking_margins"] = True
        del doc["tracking"]
        with pytest.raises(ScenarioError, match="tracking margins need cbf parameters"):
            load_scenario(write_scenario(tmp_path, doc))


class TestSolverTol:
    def test_flag_wins(self, monkeypatch, hover_scenario):
        monkeypatch.setenv(TOL_ENV_VAR, "1e-7")
        assert _effective_tol(hover_scenario.planning, 1e-6) == 1e-6

    def test_env_beats_scenario(self, monkeypatch, hover_scenario):
        monkeypatch.setenv(TOL_ENV_VAR, "1e-7")
        assert _effective_tol(hover_scenario.planning, None) == 1e-7

    def test_scenario_default(self, monkeypatch, hover_scenario):
        monkeypatch.delenv(TOL_ENV_VAR, raising=False)
        tol = _effective_tol(hover_scenario.planning, None)
        assert tol == hover_scenario.planning.solver_tol

    def test_out_of_range_flag_exits_parse(self, capsys):
        assert main(["plan", "--scenario", "hover", "--tol", "0.5"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "--tol" in err
        assert "unexpected" not in err

    def test_non_numeric_env_exits_parse(self, monkeypatch, capsys):
        monkeypatch.setenv(TOL_ENV_VAR, "abc")
        assert main(["plan", "--scenario", "hover"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert TOL_ENV_VAR in err
        assert "unexpected" not in err


class TestPlanCommand:
    def test_list_prints_bundled_names(self, capsys):
        assert main(["plan", "--list"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == EXPECTED_BUNDLED

    def test_requires_scenario_or_list(self, capsys):
        with pytest.raises(SystemExit):
            main(["plan"])

    def test_plan_writes_document(self, tmp_path, capsys):
        out = tmp_path / "hover.plan.json"
        assert main(["plan", "--scenario", "hover", "--out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "hover: optimal" in stdout
        assert "objective" in stdout
        doc = json.loads(out.read_text())
        assert doc["format"] == "safeflight-plan"
        assert doc["name"] == "hover"

    def test_plan_is_deterministic_byte_for_byte(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["plan", "--scenario", "hover", "--out", str(out1)]) == EXIT_OK
        assert main(["plan", "--scenario", "hover", "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_zeta_mode_flag(self, tmp_path, capsys):
        out = tmp_path / "scalar.json"
        args = ["plan", "--scenario", "hover", "--zeta-mode", "scalar", "--out", str(out)]
        assert main(args) == EXIT_OK
        doc = json.loads(out.read_text())
        assert len(doc["zeta"]) == 1

    def test_unknown_scenario_exits_parse(self, capsys):
        assert main(["plan", "--scenario", "nonexistent"]) == EXIT_PARSE
        assert "nonexistent" in capsys.readouterr().err

    def test_infeasible_scenario_exits_infeasible(self, tmp_path, capsys):
        doc = hover_dict()
        doc["waypoints"] = [{"position": [100.0, 0.0, 0.5], "time": 5.0}]
        path = write_scenario(tmp_path, doc)
        assert main(["plan", "--scenario", path]) == EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err

    def test_unwritable_output_exits_runtime(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "plan.json"
        assert main(["plan", "--scenario", "hover", "--out", str(out)]) == EXIT_RUNTIME
        assert "unexpected error" in capsys.readouterr().err


class TestVerifyCommand:
    def test_round_trip_passes(self, tmp_path, hover_plan, capsys):
        plan_path = write_plan(tmp_path, hover_plan)
        code = main(["verify", "--scenario", "hover", "--plan", plan_path])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "all constraints verified" in stdout
        assert "worst margin" in stdout

    def test_replans_when_no_plan_given(self, capsys):
        assert main(["verify", "--scenario", "hover"]) == EXIT_OK

    def test_violated_bound_exits_verify(self, tmp_path, hover_plan, capsys):
        doc = hover_dict()
        doc["bounds"]["thrust_min"] = 9.9  # hover thrust is g, below this floor
        scenario_path = write_scenario(tmp_path, doc)
        plan_path = write_plan(tmp_path, hover_plan)
        code = main(["verify", "--scenario", scenario_path, "--plan", plan_path])
        assert code == EXIT_VERIFY
        stdout = capsys.readouterr().out
        assert "FAILED" in stdout
        assert "thrust-lower" in stdout

    def test_mismatched_plan_exits_parse(self, tmp_path, hover_plan, capsys):
        doc = hover_dict()
        doc["spline"]["tf"] = 8.0
        scenario_path = write_scenario(tmp_path, doc)
        plan_path = write_plan(tmp_path, hover_plan)
        code = main(["verify", "--scenario", scenario_path, "--plan", plan_path])
        assert code == EXIT_PARSE
        assert "does not match" in capsys.readouterr().err

    def test_corrupt_plan_file_exits_parse(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text("{not json")
        code = main(["verify", "--scenario", "hover", "--plan", str(path)])
        assert code == EXIT_PARSE
        assert "cannot load plan" in capsys.readouterr().err


class TestTrackCommand:
    def test_hover_track_writes_trace_and_report(self, tmp_path, hover_plan, capsys):
        plan_path = write_plan(tmp_path, hover_plan)
        out = tmp_path / "trace.csv"
        args = ["track", "--scenario", "hover", "--plan", plan_path, "--out", str(out)]
        assert main(args) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "filtered run" in stdout
        assert "min barrier" in stdout

        assert out.exists()
        rows = out.read_text().splitlines()
        assert len(rows) == 1 + 1000  # header + 10 s at 100 Hz

        report = json.loads((tmp_path / "trace.csv.report.json").read_text())
        assert report["scenario"] == "hover"
        assert report["filtered"] is True
        ic = report["initial_conditions"]
        assert set(ic) == {"tube_ok", "slope_ok", "velocity_ok", "e_inf", "e1_inf"}
        assert ic["tube_ok"] is True and ic["e_inf"] == 0.0
        assert report["certificate"]["min_barrier"] >= 0.0

    def test_report_path_flag(self, tmp_path, hover_plan):
        plan_path = write_plan(tmp_path, hover_plan)
        report_path = tmp_path / "cert.json"
        args = ["track", "--scenario", "hover", "--plan", plan_path, "--report", str(report_path)]
        assert main(args) == EXIT_OK
        assert json.loads(report_path.read_text())["scenario"] == "hover"

    def test_start_outside_tube_exits_verify(self, tmp_path, hover_plan, capsys):
        doc = hover_dict()
        doc["tracking"]["initial_position_offset"] = [0.3, 0.0, 0.0]
        doc["tracking"]["duration"] = 1.0
        scenario_path = write_scenario(tmp_path, doc)
        plan_path = write_plan(tmp_path, hover_plan)
        args = ["track", "--scenario", scenario_path, "--plan", plan_path, "--no-filter"]
        assert main(args) == EXIT_VERIFY
        stdout = capsys.readouterr().out
        assert "unfiltered run" in stdout
        assert "tube=False" in stdout
        assert "FAILED: tracking left the safe tube" in stdout

    def test_scenario_without_tracking_exits_parse(self, tmp_path, capsys):
        doc = hover_dict()
        del doc["tracking"]
        path = write_scenario(tmp_path, doc)
        assert main(["track", "--scenario", path]) == EXIT_PARSE
        assert "no tracking section" in capsys.readouterr().err


class TestExportCommand:
    def test_document_round_trip_is_byte_identical(self, tmp_path, hover_plan):
        plan_path = write_plan(tmp_path, hover_plan)
        out = tmp_path / "copy.json"
        args = ["export", "--plan", plan_path, "--out", str(out), "--format", "document"]
        assert main(args) == EXIT_OK
        assert out.read_bytes() == (tmp_path / "plan.json").read_bytes()

    def test_csv_header_and_row_count(self, tmp_path, hover_plan, capsys):
        plan_path = write_plan(tmp_path, hover_plan)
        out = tmp_path / "samples.csv"
        args = ["export", "--plan", plan_path, "--out", str(out), "--samples-per-span", "20"]
        assert main(args) == EXIT_OK
        rows = [r.split(",") for r in out.read_text().splitlines()]
        assert rows[0] == [
            "t", "x", "y", "z", "vx", "vy", "vz", "speed",
            "ax", "ay", "az", "thrust", "phi_deg", "theta_deg",
            "p_deg_s", "q_deg_s", "zeta",
        ]
        spans = len(hover_plan.curve.knots.nonempty_spans())
        assert len(rows) == 1 + spans * 20 + 1  # header, interior samples, final knot
        assert float(rows[1][0]) == 0.0
        assert float(rows[-1][0]) == 10.0
        # Hovering: speed is solver noise, thrust is gravity, angles are flat.
        assert abs(float(rows[3][7])) < 1e-6
        assert float(rows[3][11]) == pytest.approx(9.81, abs=1e-6)
        assert float(rows[3][12]) == pytest.approx(0.0, abs=1e-6)

    def test_missing_plan_exits_parse(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["export", "--plan", str(tmp_path / "none.json"), "--out", str(out)])
        assert code == EXIT_PARSE
        assert "cannot load plan" in capsys.readouterr().err
