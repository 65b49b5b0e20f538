"""Command-line interface: exit codes, config validation, outputs."""

import argparse
import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from nonholo import action, engine, kernels
from nonholo.cli import Run, load_run, main
from nonholo.hamiltonian import hamiltonian_vector_field
from nonholo.integrate import EVENT_TIME_TOL, _rk4_step
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

    def test_main_calls_share_one_parser(self, monkeypatch, capsys):
        parsers = []
        parse_args = argparse.ArgumentParser.parse_args
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                            lambda self, *args: parsers.append(self) or parse_args(self, *args))
        assert main(["list-scenarios"]) == main(["list-scenarios"]) == 0
        assert len(parsers) == 2 and parsers[0] is parsers[1]

    def test_usage_error_leaves_the_shared_parser_usable(self, tmp_path, capsys):
        # a missing argument exits 2 inside argparse; the next call parses afresh
        cfg = base_config(tmp_path, checks=[{"type": "drift", "tolerance": 1e-6}])
        assert main(["verify"]) == 2
        assert "required: config" in capsys.readouterr().err
        assert main(["verify", cfg]) == 0
        assert main(["verify", cfg, "--dt", "0.1"]) == 2
        assert main(["verify", cfg]) == 0


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

    def test_fractional_damped_sign_exits_two(self, tmp_path, capsys):
        cfg = base_config(tmp_path, system={"scenario": "damped_oscillator",
                                            "params": {"sign": -1.5}},
                          initial={"q0": [1.0], "v0": [0.0]}, checks=[{"type": "drift"}],
                          integrator={"method": "rk4", "dt": 0.01, "t_end": 0.1})
        assert main(["verify", cfg]) == 2
        assert "system.params: sign must be -1 or +1" in capsys.readouterr().err

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

    @pytest.mark.parametrize("system, initial", [
        # sin of inf in the initial diagnostics
        ({"forces": ["sin(exp(700)*exp(700)*q1)", "0"], "constraints": ["v1 - 1"]}, {}),
        # sin of inf in the initial projection
        ({"constraints": ["sin(exp(700)*exp(700)*q1)*v1 + v2 - 1"]}, {"project": True}),
    ], ids=["diagnostics", "projection"])
    def test_sin_of_inf_before_the_run_exits_three(self, tmp_path, capsys, system, initial):
        cfg = base_config(tmp_path, system={"n": 2, "masses": [1, 1], **system},
                          initial={"q0": [1, 0], "v0": [1, 1], **initial})
        assert main(["simulate", cfg]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_domain_error_writes_recorded_samples(self, tmp_path):
        # log(q1) leaves its domain when q1 falls through 0, before t = 0.5
        csv = tmp_path / "traj.csv"
        cfg = base_config(tmp_path, system={"n": 1, "masses": [1], "forces": ["log(q1)"]},
                          initial={"q0": [0.5], "v0": [-1]},
                          outputs={"trajectory_csv": str(csv)})
        assert main(["simulate", cfg]) == 3
        rows = [line for line in csv.read_text().splitlines() if not line.startswith("#")]
        assert rows[0].startswith("t,") and len(rows) > 10

    def test_error_at_the_initial_diagnostics_writes_one_row(self, tmp_path, capsys, caplog):
        # log(q1) at q1 = -1 raises in the initial diag: the run ends in error there
        csv = tmp_path / "traj.csv"
        cfg = base_config(tmp_path, system={"n": 2, "masses": [1, 1], "forces": ["log(q1)", "0"],
                                            "constraints": ["v2 - 1"]},
                          initial={"q0": [-1, 0], "v0": [0, 1]},
                          outputs={"trajectory_csv": str(csv)})
        assert main(["simulate", cfg]) == 3
        assert "integration failed: ExprDomainError" in caplog.text
        assert capsys.readouterr().err == ""  # no "runtime error", no traceback
        rows = [line for line in csv.read_text().splitlines() if not line.startswith("#")]
        assert len(rows) == 2 and rows[1].startswith("0,-1,0,0,1,0,nan,nan")

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_every_scenario_loads(self, name):
        initial = {"q0": [1.0], "v0": [0.0]} if name == "damped_oscillator" else {}
        run = Run({"system": {"scenario": name}, "initial": initial,
                   "integrator": {"t_end": 1.0}}, "run.json")
        assert len(run.q0) == len(run.v0) == run.spec.n

    def test_null_counts_as_absent(self):
        run = Run({"system": {"scenario": "lda_linear", "params": None},
                   "initial": {"mu_e": None, "e0": None},
                   "integrator": {"t_end": 1.0, "projection": None},
                   "outputs": {"report_json": None}, "checks": None}, "run.json")
        assert run.cfg.projection is False and run.e0 == 1.0 and run.mu_e(2.0) == 0.0
        assert run.report_json is None and run.checks == []

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

    @pytest.mark.parametrize("command, code", [("simulate", 1), ("hamiltonian", 2)])
    def test_checks_are_run_or_rejected(self, tmp_path, capsys, command, code):
        # the hamiltonian run takes no checks and rejects them before it runs
        csv = tmp_path / "traj.csv"
        cfg = base_config(tmp_path, outputs={"trajectory_csv": str(csv)}, checks=[
            {"type": "drift", "tolerance": 1e-300},
            {"type": "analytic-compare", "tolerance": 1e-300},
        ])
        assert main([command, cfg]) == code
        out, err = capsys.readouterr()
        assert out.count("FAIL") == (2 if command == "simulate" else 0)
        assert csv.exists() == (command == "simulate")
        if command == "hamiltonian":
            assert "checks" in err and "surface residual" not in out


class TestChartSingularity:
    """The nonlinear chart's yd1 guard, signed by the initial yd1, ends a run that steps
    across yd1 = 0; abs(yd1) stays positive on both sides of such a step."""

    @staticmethod
    def run(tmp_path, v0=1.0, t_end=2.0, projection=False):
        integrator = {"method": "rk4", "dt": 0.01, "t_end": t_end, "projection": projection}
        cfg = base_config(tmp_path, integrator=integrator,
                          system={"scenario": "lda_nonlinear", "params": {"v0": v0}})
        return load_run(cfg)

    @pytest.mark.parametrize("command", ["simulate", "hamiltonian"])
    def test_pole_crossing_ends_in_an_event(self, tmp_path, capsys, command):
        # yd1 = cos(t) crosses 0 at t = pi/2; projection turns the drift guard off
        run = self.run(tmp_path, projection=command == "simulate")
        spec, extended = run.spec, command == "hamiltonian"
        if extended:
            traj = run.hamiltonian_run()
            y_prev = [*traj.q[-2], *traj.p[-2], *traj.v[-2], *traj.pi[-2], traj.e[-2],
                      traj.pi_e[-2]]

            def f(t, y):
                return hamiltonian_vector_field(spec, y, run.mu_e(t), t)
        else:
            traj = run.second_order_run()
            y_prev = [*traj.q[-2], *traj.v[-2]]

            def f(t, y):
                return y[3:] + engine.acceleration_raw(spec, y[:3], y[3:], t)
        term = traj.termination
        assert (term.kind, term.name) == ("event", "yd1_sign")
        assert abs(term.t - math.pi / 2) < 1e-3
        # the guard's zero along the run's own step from the last grid sample, to the last
        # bit of the sub-step, lies within EVENT_TIME_TOL of the event
        ((_, guard),) = run.scenario.guards(run.v0)
        v_at = 6 if extended else 3  # v of [q, p, v, pi, e, pi_e] and of [q, v]
        t_prev = traj.times[-2]
        lo, hi = 0.0, 0.01
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            y_mid = _rk4_step(f, t_prev, y_prev, mid)
            if guard(y_mid[:3], y_mid[v_at:v_at + 3], t_prev + mid) <= 0.0:
                hi = mid
            else:
                lo = mid
        assert abs(term.t - (t_prev + hi)) <= EVENT_TIME_TOL
        assert main([command, run.config_path]) == 0
        if extended:
            assert "hamiltonian run: event" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["simulate", "hamiltonian"])
    def test_negative_start_does_not_fire(self, tmp_path, command):
        run = self.run(tmp_path, v0=-1.0, t_end=0.5)
        traj = run.hamiltonian_run() if command == "hamiltonian" else run.second_order_run()
        assert traj.termination.kind == "completed"
        assert traj.times[-1] == pytest.approx(0.5) and np.all(traj.v[:, 0] < 0.0)


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

    @pytest.mark.parametrize("k, printed", [(0.5, False), (3.0, True)])
    def test_printed_form_only_where_its_rates_are_real(self, tmp_path, capsys, k, printed):
        # with omega < 0, k = 0.5 lies below 2 m |omega| = 2: the printed closed form has
        # no real decay rates, so only the circle is compared; k = 3 lies above
        report = tmp_path / "report.jsonl"
        cfg = base_config(tmp_path, system={"scenario": "friction",
                                            "params": {"k": k, "omega": -1.0}},
                          integrator={"method": "rk4", "dt": 0.01, "t_end": 0.5},
                          checks=[{"type": "analytic-compare", "tolerance": 1.0}],
                          outputs={"report_json": str(report)})
        assert main(["verify", cfg]) == 0
        (rec,) = [json.loads(line) for line in report.read_text().splitlines()]
        assert rec["passed"] is True
        assert ("printed_form_deviation" in rec) == ("printed_form_gating" in rec) == printed
        if not printed:
            assert rec["max_deviation"] == pytest.approx(0.113, abs=5e-4)

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

    @pytest.mark.parametrize("check", ["hamiltonian-equivalence", "action-stationarity",
                                       "gauge-invariance"])
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

    def test_equivalence_on_an_event_run_compares_the_grid_samples(self, tmp_path):
        # the second-order run stops at the drift event near t = 1.518; its located
        # sample is not compared with the extended run's grid sample at t = 1.52
        report = tmp_path / "report.jsonl"
        cfg = base_config(tmp_path, system={"scenario": "lda_nonlinear"},
                          integrator={"method": "rk4", "dt": 0.01, "t_end": 2.0},
                          checks=[{"type": "hamiltonian-equivalence"}],
                          outputs={"report_json": str(report)})
        assert main(["verify", cfg]) == 0
        (rec,) = [json.loads(line) for line in report.read_text().splitlines()]
        assert rec["max_qv_deviation"] == 0.0 and rec["passed"] is True

    def _rejected_before_the_run(self, tmp_path, capsys, **overrides):
        csv = tmp_path / "traj.csv"
        cfg = base_config(tmp_path, outputs={"trajectory_csv": str(csv)}, **overrides)
        assert main(["verify", cfg]) == 2
        out, err = capsys.readouterr()
        assert "checks[1]" in err and "PASS" not in out
        assert not csv.exists()

    def test_unknown_check_type(self, tmp_path, capsys):
        self._rejected_before_the_run(tmp_path, capsys,
                                      checks=[{"type": "drift"}, {"type": "drfit"}])

    def test_analytic_compare_on_an_inline_system(self, tmp_path, capsys):
        self._rejected_before_the_run(
            tmp_path, capsys, system={"n": 1, "masses": [1], "potential": "q1^2/2"},
            initial={"q0": [1.0], "v0": [0.0]},
            checks=[{"type": "drift"}, {"type": "analytic-compare"}])

    def test_readme_example_config_passes(self, tmp_path, monkeypatch):
        # the json block of README.md, with its outputs moved under tmp_path; verify
        # stays on the constraint surface, so it never generates jac
        emitted = []
        emit = kernels._jac
        monkeypatch.setattr(kernels, "_jac", lambda spec, body: emitted.append(spec)
                            or emit(spec, body))
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```json\n(.*?)```", readme, re.S)
        cfg = json.loads(block)
        cfg["outputs"] = {key: str(tmp_path / name) for key, name in cfg["outputs"].items()}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        assert main(["verify", str(path)]) == 0
        records = [json.loads(line)
                   for line in Path(cfg["outputs"]["report_json"]).read_text().splitlines()]
        assert [r["passed"] for r in records] == [True] * 5
        assert emitted == []
        # only the checks that take a tolerance record one
        assert [r.get("tolerance") for r in records] == [1e-9, 1e-6, 1e-8, None, None]


# each config is rejected at load, naming the field; checks[1] follows a valid drift check
BAD_CONFIGS = {
    "integrator_string": ({"integrator": "rk4"}, "integrator"),
    "outputs_list": ({"outputs": []}, "outputs"),
    "initial_list": ({"initial": []}, "initial"),
    "force_number": ({"system": {"n": 1, "masses": [1], "forces": [1]},
                      "initial": {"q0": [1.0], "v0": [0.0]}}, "system.forces"),
    "force_literal_inf": ({"system": {"n": 1, "masses": [1], "forces": ["1e999*q1"]},
                           "initial": {"q0": [1.0], "v0": [0.0]}}, "system: number '1e999'"),
    "v0_string": ({"initial": {"q0": [0, 0, 0], "v0": ["a", 0, 0]}}, "initial.v0"),
    "tolerance_string": ({"checks": [{"type": "drift"}, {"type": "drift", "tolerance": "x"}]},
                         "checks[1].tolerance"),
    "C_string": ({"checks": [{"type": "drift"}, {"type": "action-stationarity", "C": "big"}]},
                 "checks[1].C"),
    "alpha_string": ({"checks": [{"type": "drift"},
                                 {"type": "gauge-invariance", "alpha_amplitude": "x"}]},
                     "checks[1].alpha_amplitude"),
    "check_key_misspelled": ({"checks": [{"type": "drift"},
                                         {"type": "drift", "tolerence": 1e-30}]},
                             "checks[1].tolerence"),
    "integrator_key_misspelled": ({"integrator": {"method": "rk4", "dt": 0.01, "t_end": 1.0,
                                                  "projecton": True}},
                                  "integrator.projecton"),
    "outputs_key_misspelled": ({"outputs": {"trajectory": "t.csv"}}, "outputs.trajectory"),
    "params_string": ({"system": {"scenario": "lda_linear", "params": {"omega": "2", "v0": True}}},
                      "system.params.omega"),
    "params_bool": ({"system": {"scenario": "lda_linear", "params": {"v0": True}}},
                    "system.params.v0"),
    "method_number": ({"integrator": {"method": 4, "dt": 0.01, "t_end": 1.0}},
                      "integrator.method"),
    "v0_without_q0": ({"initial": {"v0": [2, 0, 1]}}, "initial.q0"),
    "q0_without_v0": ({"initial": {"q0": [0, 0, 0]}}, "initial.v0"),
}


class TestLoadValidation:
    def _rejected_at_load(self, tmp_path, capsys, argv, field):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert field in err and "PASS" not in out and "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("overrides, field", BAD_CONFIGS.values(), ids=BAD_CONFIGS)
    def test_invalid_block_exits_two_before_the_run(self, tmp_path, capsys, overrides, field):
        overrides = dict(overrides)
        outputs = overrides.pop("outputs", {})
        if isinstance(outputs, dict):
            outputs = {"trajectory_csv": str(tmp_path / "traj.csv"),
                       **{key: str(tmp_path / name) for key, name in outputs.items()}}
        cfg = base_config(tmp_path, outputs=outputs,
                          **{"checks": [{"type": "drift"}], **overrides})
        self._rejected_at_load(tmp_path, capsys, ["verify", cfg], field)

    @pytest.mark.parametrize("flag, field", [("--dt", "dt"), ("--t-end", "t_end"),
                                             ("--omega", "omega"), ("--k", "k"), ("--c", "c")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_sleigh_number_exits_two(self, tmp_path, capsys, flag, field, value):
        self._rejected_at_load(tmp_path, capsys, ["sleigh", "lda_linear", flag, value],
                               f"{field} must be finite")

    @pytest.mark.parametrize("overrides, field", [
        ({"integrator": {"method": "rk4", "dt": math.nan, "t_end": 1.0}}, "integrator.dt"),
        ({"integrator": {"method": "rk4", "dt": 0.01, "t_end": 10**400}}, "integrator.t_end"),
        ({"checks": [{"type": "drift", "tolerance": math.inf}]}, "checks[0].tolerance"),
        ({"system": {"n": 1, "masses": [1.0], "potential": "q1^2/2", "eps_reg": math.nan},
          "initial": {"q0": [1.0], "v0": [0.0]}}, "system.eps_reg"),
        ({"system": {"n": 1, "masses": [1.0], "potential": "q1^2/2", "eps_reg": "1e-10"},
          "initial": {"q0": [1.0], "v0": [0.0]}}, "system.eps_reg"),
        # finite but not positive: the Gram matrix q1^2 = 0 would pass a floor of 0
        ({"system": {"n": 2, "masses": [1, 1], "constraints": ["v1*q1"], "eps_reg": 0},
          "initial": {"q0": [0, 0], "v0": [1, 1]}}, "system: eps_reg must be finite and positive"),
        ({"system": {"n": 2, "masses": [1, 1], "constraints": ["v1*q1"], "eps_reg": -1},
          "initial": {"q0": [1e-200, 0], "v0": [1, 1]}},
         "system: eps_reg must be finite and positive"),
    ], ids=["dt_nan", "t_end_huge_int", "tolerance_inf", "eps_reg_nan", "eps_reg_string",
            "eps_reg_zero", "eps_reg_negative"])
    def test_non_finite_config_number_exits_two(self, tmp_path, capsys, overrides, field):
        cfg = base_config(tmp_path, outputs={"trajectory_csv": str(tmp_path / "traj.csv")},
                          **{"checks": [{"type": "drift"}], **overrides})
        self._rejected_at_load(tmp_path, capsys, ["verify", cfg], field)

    def test_check_defaults_are_the_api_defaults(self, tmp_path):
        # the CLI reads C from the signatures of the check functions, never restating it
        cfg = json.loads(Path(base_config(tmp_path, checks=[
            {"type": "action-stationarity"}, {"type": "gauge-invariance"}])).read_text())
        stationarity, gauge = Run(cfg, "run.json").checks
        for check, fn in ((stationarity, action.stationarity_check),
                          (gauge, action.gauge_invariance_check)):
            assert check["C"] == inspect.signature(fn).parameters["C"].default

    def test_every_check_parameter_accepted(self, tmp_path, capsys):
        cfg = base_config(tmp_path, checks=[
            {"type": "drift", "tolerance": 1e-9},
            {"type": "analytic-compare", "tolerance": 1e-6},
            {"type": "hamiltonian-equivalence", "tolerance": 1e-8},
            {"type": "action-stationarity", "C": 50},
            {"type": "gauge-invariance", "alpha_amplitude": 0.01, "offshell_amplitude": 0.05,
             "C": 10},
        ])
        assert main(["verify", cfg]) == 0
        assert capsys.readouterr().out.count("PASS") == 5
