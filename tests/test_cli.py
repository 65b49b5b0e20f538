"""Command-line interface: exit codes, config validation, outputs."""

import json

import pytest

from nonholo.cli import Run, main
from nonholo.scenarios import SCENARIO_NAMES


def base_config(tmp_path, **overrides):
    cfg = {
        "system": {"scenario": "lda_linear"},
        "integrator": {"method": "rk4", "dt": 0.01, "t_end": 1.0},
    }
    cfg.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestBasicCommands:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out.split()
        assert out == ["friction", "lda_linear", "lda_nonlinear",
                       "vakonomic_phi", "damped_oscillator"]

    def test_sleigh_preset(self, capsys):
        assert main(["sleigh", "lda_linear", "--dt", "0.01", "--t-end", "1.0"]) == 0
        assert "circular reference" in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_sleigh_variant(self, capsys):
        assert main(["sleigh", "rocket"]) == 2


class TestSimulate:
    def test_simulate_with_checks_passes(self, tmp_path, capsys):
        cfg = base_config(tmp_path, checks=[
            {"type": "drift", "tolerance": 1e-9},
            {"type": "analytic-compare", "tolerance": 1e-6},
        ])
        assert main(["simulate", cfg]) == 0
        out = capsys.readouterr().out
        assert "check drift: PASS" in out
        assert "check analytic-compare: PASS" in out

    def test_failing_check_exits_one(self, tmp_path, capsys):
        cfg = base_config(tmp_path, checks=[{"type": "drift", "tolerance": 1e-15}])
        assert main(["simulate", cfg]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_dimension_mismatch_exits_two(self, tmp_path, capsys):
        cfg = base_config(tmp_path, initial={"q0": [0.0, 0.0], "v0": [1.0, 0.0]})
        assert main(["simulate", cfg]) == 2
        assert "initial.q0" in capsys.readouterr().err

    def test_dt_min_above_dt_max_exits_two(self, tmp_path, capsys):
        cfg = base_config(tmp_path, integrator={"method": "rkf45", "dt": 0.01, "t_end": 1.0,
                                                "dt_min": 0.5})
        assert main(["simulate", cfg]) == 2
        assert "integrator" in capsys.readouterr().err

    def test_bad_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["simulate", str(path)]) == 2

    def test_trajectory_csv_deterministic(self, tmp_path):
        out = tmp_path / "a.csv"
        cfg = base_config(tmp_path, outputs={"trajectory_csv": str(out)})
        assert main(["simulate", cfg]) == 0
        b1 = out.read_bytes()
        out.unlink()
        assert main(["simulate", cfg]) == 0
        assert out.read_bytes() == b1

    def test_csv_metadata_header(self, tmp_path):
        out = tmp_path / "a.csv"
        cfg = base_config(tmp_path, outputs={"trajectory_csv": str(out)})
        assert main(["simulate", cfg]) == 0
        head = out.read_text().splitlines()[:6]
        joined = "\n".join(head)
        assert "# nonholo" in joined
        assert "config_sha256" in joined
        assert "dD/dt = 0" in joined

    @pytest.mark.parametrize("system", [
        {"scenario": "damped_oscillator", "params": {"sign": 2}},
        {"scenario": "damped_oscillator", "params": {"omega": "x"}},
        {"scenario": "damped_oscillator", "params": {"omgea": 2.0}},
        {"scenario": "lda_linear", "params": {"c": "x"}},
    ], ids=["sign", "omega", "unknown_key", "c"])
    def test_bad_scenario_params_exit_two(self, tmp_path, capsys, system):
        cfg = base_config(tmp_path, system=system, initial={"q0": [1.0], "v0": [0.0]})
        assert main(["simulate", cfg]) == 2
        assert "system.params" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["sleigh", "lda_linear", "--omega", "0"], "omega must be nonzero"),
        (["sleigh", "lda_linear", "--omega", "0", "--t-end", "1"], "omega must be nonzero"),
        (["simulate", {"scenario": "lda_linear", "params": {"omega": 0}}],
         "omega must be nonzero"),
        (["sleigh", "lda_linear", "--dt", "0"], "dt and t_end must be positive"),
    ], ids=["sleigh", "sleigh_t_end", "analytic_compare", "sleigh_dt"])
    def test_bad_sleigh_numbers_exit_two(self, tmp_path, capsys, argv, message):
        if isinstance(argv[1], dict):
            argv = [argv[0], base_config(tmp_path, system=argv[1],
                                         checks=[{"type": "analytic-compare"}])]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_overflow_exits_three(self, tmp_path):
        cfg = base_config(tmp_path, system={"n": 1, "masses": [1], "forces": ["exp(q1)"]},
                          initial={"q0": [700], "v0": [0]})
        assert main(["simulate", cfg]) == 3

    def test_domain_error_writes_recorded_samples(self, tmp_path):
        # log(q1) leaves its domain when q1 falls through 0, before t = 0.5
        csv = tmp_path / "traj.csv"
        cfg = base_config(tmp_path, system={"n": 1, "masses": [1], "forces": ["log(q1)"]},
                          initial={"q0": [0.5], "v0": [-1]},
                          outputs={"trajectory_csv": str(csv)})
        assert main(["simulate", cfg]) == 3
        rows = [line for line in csv.read_text().splitlines() if not line.startswith("#")]
        assert rows[0].startswith("t,") and len(rows) > 10

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_every_scenario_loads(self, name):
        initial = {"q0": [1.0], "v0": [0.0]} if name == "damped_oscillator" else {}
        run = Run({"system": {"scenario": name}, "initial": initial,
                   "integrator": {"t_end": 1.0}}, "run.json")
        assert len(run.q0) == len(run.v0) == run.spec.n

    def test_inline_system(self, tmp_path):
        cfg = {
            "system": {"n": 1, "masses": [1.0], "potential": "q1^2/2"},
            "initial": {"q0": [1.0], "v0": [0.0]},
            "integrator": {"method": "rk4", "dt": 0.01, "t_end": 1.0},
        }
        path = tmp_path / "inline.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", str(path)]) == 0

    def test_potential_with_forces_exits_two(self, tmp_path, capsys):
        cfg = base_config(tmp_path, system={"n": 1, "masses": [1.0], "potential": "q1^2/2",
                                            "forces": ["-q1"]},
                          initial={"q0": [1.0], "v0": [0.0]})
        assert main(["simulate", cfg]) == 2
        assert "system" in capsys.readouterr().err


class TestHamiltonian:
    def test_on_surface_run(self, tmp_path, capsys):
        cfg = base_config(tmp_path, initial={"e0": 2.0, "mu_e": "sin(t)"})
        assert main(["hamiltonian", cfg]) == 0
        assert "surface residual" in capsys.readouterr().out

    def test_error_termination_exits_three(self, tmp_path, capsys):
        # the Gram matrix q1^2 of the constraint q1*v1 is singular at q1 = 0
        report = tmp_path / "report.jsonl"
        cfg = base_config(tmp_path, system={"n": 1, "masses": [1], "constraints": ["q1*v1"]},
                          initial={"q0": [0], "v0": [1]}, outputs={"report_json": str(report)})
        assert main(["hamiltonian", cfg]) == 3
        (rec,) = [json.loads(line) for line in report.read_text().splitlines()]
        assert rec["termination"] == "error" and rec["passed"] is False


class TestVerify:
    def test_requires_checks(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        assert main(["verify", cfg]) == 2

    def test_gauge_report_written(self, tmp_path):
        report = tmp_path / "report.jsonl"
        cfg = base_config(tmp_path,
                          checks=[{"type": "gauge-invariance", "alpha_amplitude": 0.01}],
                          outputs={"report_json": str(report)})
        assert main(["verify", cfg]) == 0
        records = [json.loads(line) for line in report.read_text().splitlines()]
        (rec,) = records
        assert rec["check"] == "gauge-invariance"
        assert "first_order" in rec and rec["passed"]
        assert len(rec["amplitudes"]) == len(rec["deltas"]) == 3
        assert rec["boundary_note"] == ""

    def test_stationarity_check(self, tmp_path, capsys):
        report = tmp_path / "report.jsonl"
        cfg = base_config(tmp_path,
                          checks=[{"type": "action-stationarity"}],
                          outputs={"report_json": str(report)})
        assert main(["verify", cfg]) == 0
        (rec,) = [json.loads(line) for line in report.read_text().splitlines()]
        assert rec["passed"] is True
        assert rec["worst_block"] in ("q", "p", "v", "pi", "e", "pi_e", "mu_e")
        assert 0 < rec["worst_sample"] < 100

    def test_path_checks_on_an_event_run_use_the_grid_samples(self, tmp_path):
        # the run stops at the drift event near t = 1.518, between grid points
        report = tmp_path / "report.jsonl"
        cfg = base_config(tmp_path, system={"scenario": "lda_nonlinear"},
                          integrator={"method": "rk4", "dt": 0.01, "t_end": 2.0},
                          checks=[{"type": "action-stationarity"},
                                  {"type": "gauge-invariance"}],
                          outputs={"report_json": str(report)})
        assert main(["verify", cfg]) == 0
        records = [json.loads(line) for line in report.read_text().splitlines()]
        assert [r["passed"] for r in records] == [True, True]
        assert all(r["dt"] == pytest.approx(0.01, rel=1e-12) for r in records)

    @pytest.mark.parametrize("check", ["action-stationarity", "gauge-invariance"])
    def test_path_checks_on_rkf45_exit_two(self, tmp_path, capsys, check):
        cfg = base_config(tmp_path, integrator={"method": "rkf45", "dt": 0.01, "t_end": 0.5},
                          checks=[{"type": "drift"}, {"type": check}])
        assert main(["verify", cfg]) == 2
        assert "checks[1]" in capsys.readouterr().err

    def test_too_few_grid_samples_exit_three(self, tmp_path, capsys):
        # any drift ends the run at its first step, leaving one grid sample
        cfg = base_config(tmp_path, system={"scenario": "lda_nonlinear"},
                          integrator={"method": "rk4", "dt": 0.01, "t_end": 2.0,
                                      "drift_tolerance": 1e-300},
                          checks=[{"type": "action-stationarity"}])
        assert main(["verify", cfg]) == 3
        err = capsys.readouterr().err
        assert "at least 5 uniform-grid samples" in err and "Traceback" not in err

    def test_nan_force_exits_three(self, tmp_path, capsys):
        force = "exp(700)*exp(700)*q1 - exp(700)*exp(700)*q1"
        cfg = base_config(tmp_path, system={"n": 1, "masses": [1], "forces": [force]},
                          initial={"q0": [1], "v0": [0]},
                          integrator={"method": "rk4", "dt": 0.01, "t_end": 0.1},
                          checks=[{"type": "drift"}])
        assert main(["verify", cfg]) == 3
        assert "PASS" not in capsys.readouterr().out

    def test_hamiltonian_equivalence_check(self, tmp_path, capsys):
        cfg = base_config(tmp_path,
                          checks=[{"type": "hamiltonian-equivalence",
                                   "tolerance": 1e-8}])
        assert main(["verify", cfg]) == 0

    def test_unknown_check_type(self, tmp_path):
        cfg = base_config(tmp_path, checks=[{"type": "nonsense"}])
        assert main(["verify", cfg]) == 2
