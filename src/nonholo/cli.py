"""Batch front-end: JSON run configs in, CSV trajectories and JSONL reports out.

Exit codes: 0 all checks passed, 1 a check failed, 2 configuration error,
3 runtime/integration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from . import __version__, action, engine, integrate, scenarios
from .errors import ConfigError, NonholoError
from .expr import parse_expression
from .hamiltonian import ExtendedPhasePoint
from .integrate import IntegratorConfig
from .paths import bump, lift_on_shell
from .scenarios import SCENARIO_NAMES, Scenario

log = logging.getLogger("nonholo")

FORMULATION_NOTE = ("multipliers from the consistency condition dD/dt = 0 "
                    "(Gram system in dD/dv, diagonal mass)")

# inline systems: no default initial state, no guards, no reference solution
_INLINE = Scenario(build=None)

# the numeric parameters of each check type, with their defaults; a check holds no other key
_CHECK_PARAMS = {
    "drift": {"tolerance": 1e-8},
    "analytic-compare": {"tolerance": 1e-8},
    "hamiltonian-equivalence": {"tolerance": 1e-8},
    "action-stationarity": {"C": 50.0},
    "gauge-invariance": {"alpha_amplitude": 1e-2, "offshell_amplitude": 0.05, "C": 10.0},
}
# checks that compare samples on the uniform RK4 grid: the path checks lift the run
# to a phase path, hamiltonian-equivalence matches the two runs sample by sample
_GRID_CHECKS = ("hamiltonian-equivalence", "action-stationarity", "gauge-invariance")

# the keys each config block may hold
_TOP_KEYS = ("system", "integrator", "initial", "outputs", "checks")
_SCENARIO_KEYS = ("scenario", "params")
_INLINE_KEYS = ("n", "masses", "forces", "potential", "constraints", "eps_reg")
_INTEGRATOR_KEYS = tuple(f.name for f in fields(IntegratorConfig))
_INITIAL_KEYS = ("q0", "v0", "e0", "mu_e", "project")
_OUTPUT_KEYS = ("trajectory_csv", "report_json")


# --- config loading -------------------------------------------------------------

def _require(block: dict, key: str, path: str):
    if key not in block:
        raise ConfigError("missing required field", f"{path}.{key}" if path else key)
    return block[key]


def _known_keys(block: dict, allowed: tuple, path: str):
    for key in block:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r}", f"{path}.{key}" if path else key)


def _block(config: dict, key: str, allowed: tuple | None) -> dict:
    """config[key] ({} when absent): an object holding only the allowed keys (any if None)."""
    block = config.get(key, {})
    if not isinstance(block, dict):
        raise ConfigError("expected an object", key)
    if allowed is not None:
        _known_keys(block, allowed, key)
    return block


def _finite(val, path: str) -> float:
    """val as a float; a bool, a non-number or a non-finite number is a config error."""
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ConfigError("expected a number", path)
    try:
        out = float(val)
    except OverflowError:  # an int too large for a float
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError("expected a finite number", path)
    return out


def _number(block: dict, key: str, path: str, default=None):
    if key not in block:
        if default is None:
            raise ConfigError("missing required field", f"{path}.{key}")
        return default
    return _finite(block[key], f"{path}.{key}")


def _numbers(block: dict, key: str, path: str) -> list:
    vals = _require(block, key, path)
    if not isinstance(vals, list):
        raise ConfigError("expected a list of numbers", f"{path}.{key}")
    return [_finite(x, f"{path}.{key}[{i}]") for i, x in enumerate(vals)]


def _expressions(block: dict, key: str, path: str):
    """The list of expression strings at block[key]; None when absent."""
    vals = block.get(key)
    if vals is not None and not (isinstance(vals, list) and all(isinstance(x, str) for x in vals)):
        raise ConfigError("expected a list of expression strings", f"{path}.{key}")
    return vals


def _typed(block: dict, key: str, path: str, kind: type, default=None):
    """block[key] (default when absent), which must be None or a kind (str, bool)."""
    val = block.get(key, default)
    if val is not None and not isinstance(val, kind):
        raise ConfigError(f"expected a {kind.__name__}", f"{path}.{key}")
    return val


def _build_system(block: dict) -> tuple:
    """Returns (spec, scenario, sleigh_params_or_None)."""
    if "scenario" in block:
        _known_keys(block, _SCENARIO_KEYS, "system")
        name = block["scenario"]
        if name not in SCENARIO_NAMES:
            raise ConfigError(f"unknown scenario {name!r}", "system.scenario")
        scenario = scenarios.SCENARIOS[name]
        try:
            spec, params = scenario.build(**block.get("params", {}))
        except (TypeError, ValueError, NonholoError) as exc:
            raise ConfigError(str(exc), "system.params") from exc
        return spec, scenario, params
    _known_keys(block, _INLINE_KEYS, "system")
    n = _require(block, "n", "system")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ConfigError("n must be a positive integer", "system.n")
    masses = _numbers(block, "masses", "system")
    if len(masses) != n:
        raise ConfigError(f"masses must be a list of length n={n}", "system.masses")
    forces = _expressions(block, "forces", "system")
    if forces is not None and len(forces) != n:
        raise ConfigError(f"forces must be a list of length n={n}", "system.forces")
    try:
        spec = engine.make_system(
            n, masses,
            potential=_typed(block, "potential", "system", str),
            forces=forces,
            constraints=_expressions(block, "constraints", "system") or (),
            eps_reg=_number(block, "eps_reg", "system", 1e-10),
        )
    except (NonholoError, ValueError) as exc:
        raise ConfigError(str(exc), "system") from exc
    return spec, _INLINE, None


def _build_integrator(block: dict) -> IntegratorConfig:
    try:
        return IntegratorConfig(
            method=block.get("method", "rk4"),
            dt=_number(block, "dt", "integrator", 1e-3),
            t_end=_number(block, "t_end", "integrator"),
            atol=_number(block, "atol", "integrator", 1e-8),
            rtol=_number(block, "rtol", "integrator", 1e-8),
            dt_min=_number(block, "dt_min", "integrator", 1e-12),
            dt_max=_number(block, "dt_max", "integrator", 0.1),
            drift_tolerance=_number(block, "drift_tolerance", "integrator", 1e-6),
            projection=_typed(block, "projection", "integrator", bool, False),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), "integrator") from exc


class Run:
    """Validated run configuration."""

    def __init__(self, config: dict, config_path: str):
        if not isinstance(config, dict):
            raise ConfigError("top-level config must be an object", "")
        _known_keys(config, _TOP_KEYS, "")
        self.config_path = config_path
        raw = json.dumps(config, sort_keys=True).encode()
        self.config_hash = hashlib.sha256(raw).hexdigest()
        _require(config, "system", "")
        self.spec, self.scenario, self.params = _build_system(_block(config, "system", None))
        initial = _block(config, "initial", _INITIAL_KEYS)
        if self.scenario.initial is not None and "q0" not in initial:
            q0, v0 = self.scenario.initial(self.params)
            self.q0, self.v0 = list(q0), list(v0)
        else:
            self.q0 = _numbers(initial, "q0", "initial")
            self.v0 = _numbers(initial, "v0", "initial")
        if len(self.q0) != self.spec.n:
            raise ConfigError(f"q0 length {len(self.q0)} != n={self.spec.n}", "initial.q0")
        if len(self.v0) != self.spec.n:
            raise ConfigError(f"v0 length {len(self.v0)} != n={self.spec.n}", "initial.v0")
        self.e0 = _number(initial, "e0", "initial", 1.0)
        if self.e0 == 0.0:
            raise ConfigError("e0 must be nonzero", "initial.e0")
        try:
            mu_expr = parse_expression(_typed(initial, "mu_e", "initial", str, "0"), 0)
        except NonholoError as exc:
            raise ConfigError(str(exc), "initial.mu_e") from exc
        self.mu_e = lambda t: mu_expr._fn((), (), t)
        self.project = _typed(initial, "project", "initial", bool, False)
        _require(config, "integrator", "")
        self.cfg = _build_integrator(_block(config, "integrator", _INTEGRATOR_KEYS))
        outputs = _block(config, "outputs", _OUTPUT_KEYS)
        self.trajectory_csv = _typed(outputs, "trajectory_csv", "outputs", str)
        self.report_json = _typed(outputs, "report_json", "outputs", str)
        checks = config.get("checks", [])
        if not isinstance(checks, list):
            raise ConfigError("checks must be a list", "checks")
        self.checks = [self._check(chk, f"checks[{i}]") for i, chk in enumerate(checks)]

    def _check(self, chk, path: str) -> dict:
        """The check's type and its parameters, defaults filled in."""
        if not isinstance(chk, dict) or "type" not in chk:
            raise ConfigError("each check needs a 'type'", path)
        kind = chk["type"]
        if not isinstance(kind, str) or kind not in _CHECK_PARAMS:
            raise ConfigError(f"unknown check type {kind!r}", path)
        params = _CHECK_PARAMS[kind]
        _known_keys(chk, ("type", *params), path)
        if kind in _GRID_CHECKS and self.cfg.method != "rk4":
            raise ConfigError(f"{kind} needs the uniform time grid of an rk4 run", path)
        if kind == "analytic-compare" and self.scenario.reference is None:
            raise ConfigError("analytic-compare needs an lda_*/friction scenario", path)
        return {"type": kind, **{key: _number(chk, key, path, default)
                                 for key, default in params.items()}}

    def hamiltonian_run(self) -> integrate.ExtendedTrajectory:
        """Extended-phase-space run from the on-surface lift of (q0, v0)."""
        z0 = ExtendedPhasePoint(q=tuple(self.q0), p=(0.0,) * self.spec.n, v=tuple(self.v0),
                                pi=(0.0,) * self.spec.n, e=self.e0, pi_e=0.0)
        return integrate.integrate_hamiltonian(self.spec, z0, self.mu_e, self.cfg,
                                               guards=self.scenario.guards(extended=True))


def load_run(config_path: str) -> Run:
    try:
        with open(config_path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", config_path) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}", config_path) from exc
    return Run(config, config_path)


# --- output writers ---------------------------------------------------------------

def _write_csv(path: str, run: Run, kind: str, cols: list, rows):
    """Metadata header, column names, then rows of 17-significant-digit floats."""
    header = [
        f"# nonholo {__version__}",
        f"# run: {kind}",
        f"# config_sha256: {run.config_hash}",
        f"# formulation: {FORMULATION_NOTE}",
        f"# projection: {'on' if run.cfg.projection else 'off'}",
        ",".join(cols),
    ]
    with open(path, "w") as fh:
        for line in header:
            fh.write(line + "\n")
        for row in rows:
            fh.write(",".join(format(float(x), ".17g") for x in row) + "\n")


def write_trajectory_csv(path: str, run: Run, traj: integrate.Trajectory):
    n = run.spec.n
    m = len(run.spec.constraints.exprs)
    cols = ["t"] + [f"q{i+1}" for i in range(n)] + [f"v{i+1}" for i in range(n)]
    if m:
        cols += [f"D_{a+1}" for a in range(m)] + [f"h_{a+1}" for a in range(m)]
        cols += ["gram_min_eig"]

    def row(k):
        out = [traj.times[k], *traj.q[k], *traj.v[k]]
        if m:
            out += [*traj.constraint_values[k], *traj.multipliers[k], traj.gram_min_eig[k]]
        return out
    _write_csv(path, run, "second-order", cols, map(row, range(len(traj.times))))


def write_extended_csv(path: str, run: Run, traj: integrate.ExtendedTrajectory):
    n = run.spec.n
    cols = (["t"] + [f"q{i+1}" for i in range(n)] + [f"v{i+1}" for i in range(n)]
            + [f"p{i+1}" for i in range(n)] + [f"pi{i+1}" for i in range(n)]
            + ["e", "pi_e", "surface_residual"])
    rows = ([traj.times[k], *traj.q[k], *traj.v[k], *traj.p[k], *traj.pi[k],
             traj.e[k], traj.pi_e[k], traj.surface_residual[k]] for k in range(len(traj.times)))
    _write_csv(path, run, "hamiltonian", cols, rows)


def write_reports(path: str, run: Run, records: list):
    with open(path, "w") as fh:
        for rec in records:
            rec = dict(rec)
            rec["config_sha256"] = run.config_hash
            rec["version"] = __version__
            fh.write(json.dumps(rec) + "\n")


# --- checks -------------------------------------------------------------------------

def _grid_samples(traj) -> int:
    """Number of uniform-grid samples of an RK4 run; a located event sample lies off the grid."""
    N = len(traj.times)
    return N - 1 if traj.termination.kind == "event" and N > 1 else N


def _grid_path(run: Run, traj: integrate.Trajectory):
    """On-shell lift of the uniform-grid samples."""
    N = _grid_samples(traj)
    if N < 5:  # the fewest samples the path functionals take
        raise NonholoError(f"path checks need at least 5 uniform-grid samples; "
                           f"the {traj.termination.kind} run has {N}")
    return lift_on_shell(replace(traj, times=traj.times[:N], q=traj.q[:N], v=traj.v[:N]),
                         run.e0)


def run_check(run: Run, chk: dict, traj: integrate.Trajectory) -> dict:
    kind = chk["type"]
    # the path checks take no tolerance; their records carry the default
    tol = chk.get("tolerance", 1e-8)
    rec = {"check": kind, "tolerance": tol}
    if kind == "drift":
        drift = float(np.max(np.abs(traj.constraint_values))) if traj.constraint_values.size else 0.0
        rec.update(max_drift=drift, passed=drift <= tol)
        return rec
    if kind == "analytic-compare":
        scenario, params = run.scenario, run.params
        dev = scenarios.curve_deviation(traj, scenario.reference, params)
        rec.update(reference="circle", max_deviation=dev, passed=dev <= tol)
        # the printed closed form needs real decay rates, k > 2*m*omega
        if scenario.closed_form is not None and params.k > 2 * params.m * params.omega:
            rec["printed_form_deviation"] = scenarios.curve_deviation(traj, scenario.closed_form,
                                                                      params)
            rec["printed_form_gating"] = False
        return rec
    if kind == "hamiltonian-equivalence":
        ham = run.hamiltonian_run()
        N = min(_grid_samples(traj), _grid_samples(ham))
        dev = max(float(np.max(np.abs(ham.q[:N] - traj.q[:N]))),
                  float(np.max(np.abs(ham.v[:N] - traj.v[:N]))))
        resid = float(np.max(ham.surface_residual))
        rec.update(max_qv_deviation=dev, max_surface_residual=resid,
                   passed=dev <= tol and resid <= 1e-9)
        return rec
    if kind == "action-stationarity":
        path = _grid_path(run, traj)
        report = action.stationarity_check(run.spec, path, C=chk["C"])
        rec.update(asdict(report))
        return rec
    # gauge-invariance: Run admits no kind outside _CHECK_PARAMS
    path = _grid_path(run, traj)
    profile = bump(path.times)
    amp = chk["offshell_amplitude"]
    # perturb off-shell so the transformation is non-trivial
    path = path.replace(pi=path.pi + amp * profile[:, None], p=path.p + amp * profile[:, None])
    report = action.gauge_invariance_check(run.spec, path, profile, chk["alpha_amplitude"],
                                           C=chk["C"])
    rec.update(asdict(report))
    return rec


# --- subcommands -------------------------------------------------------------------

def _execute(run: Run, mode: str) -> int:
    if run.project:
        run.v0 = list(engine.project_initial_state(run.spec, run.q0, run.v0))
    records = []
    if mode == "hamiltonian":
        ext = run.hamiltonian_run()
        passed = ext.termination.kind != "error"
        if run.trajectory_csv:
            write_extended_csv(run.trajectory_csv, run, ext)
        records.append({"check": "surface-residual",
                        "max_surface_residual": float(np.max(ext.surface_residual)),
                        "termination": ext.termination.kind, "passed": passed})
        if run.report_json:
            write_reports(run.report_json, run, records)
        print(f"hamiltonian run: {ext.termination.kind}, "
              f"max surface residual {np.max(ext.surface_residual):.3e}")
        if not passed:
            log.error("integration failed: %s", ext.termination.name)
            return 3
        return 0

    traj = integrate.integrate_second_order(run.spec, run.q0, run.v0, run.cfg,
                                            guards=run.scenario.guards())
    if run.trajectory_csv:
        write_trajectory_csv(run.trajectory_csv, run, traj)
    if traj.termination.kind == "error":
        log.error("integration failed: %s", traj.termination.name)
        return 3
    all_passed = True
    for chk in run.checks:
        rec = run_check(run, chk, traj)
        records.append(rec)
        all_passed = all_passed and rec["passed"]
        print(f"check {rec['check']}: {'PASS' if rec['passed'] else 'FAIL'}")
    if run.report_json:
        write_reports(run.report_json, run, records)
    return 0 if all_passed else 1


def cmd_simulate(args) -> int:
    return _execute(load_run(args.config), "simulate")


def cmd_hamiltonian(args) -> int:
    return _execute(load_run(args.config), "hamiltonian")


def cmd_verify(args) -> int:
    run = load_run(args.config)
    if not run.checks:
        raise ConfigError("verify requires a non-empty checks list", "checks")
    return _execute(run, "verify")


def cmd_sleigh(args) -> int:
    if args.variant not in scenarios.SLEIGH_VARIANTS:
        raise ConfigError(f"unknown variant {args.variant!r}", "sleigh.variant")
    scenario = scenarios.SCENARIOS[args.variant]
    try:
        spec, params = scenario.build(m=args.m, I=args.I, k=args.k, v0=args.v0,
                                      omega=args.omega, c=args.c)
        t_end = args.t_end if args.t_end is not None else scenario.t_end(params)
        cfg = IntegratorConfig(method="rk4", dt=args.dt, t_end=t_end)
    except (ValueError, NonholoError) as exc:
        raise ConfigError(str(exc), "sleigh") from exc
    q0, v0 = scenario.initial(params)
    traj = integrate.integrate_second_order(spec, q0, v0, cfg, guards=scenario.guards())
    if traj.termination.kind == "error":
        log.error("integration failed: %s", traj.termination.name)
        return 3
    if scenario.reference is None:
        # the reduced angle equation is compared with the d'Alembert angle omega*t
        dev = float(np.max(np.abs(traj.q[:, 0] - params.omega * traj.times)))
        print(f"max |phi - omega*t| = {dev:.6e} rad over t in [0, {t_end:.6g}] (c = {args.c})")
    else:
        dev = scenarios.curve_deviation(traj, scenario.reference, params)
        print(f"max deviation from circular reference = {dev:.6e} "
              f"over t in [0, {t_end:.6g}] ({traj.termination.kind})")
    return 0


def cmd_list_scenarios(args) -> int:
    for name in SCENARIO_NAMES:
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonholo",
        description="Constrained-dynamics runs and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="second-order run with checks")
    p.add_argument("config")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("hamiltonian", help="extended-phase-space run")
    p.add_argument("config")
    p.set_defaults(fn=cmd_hamiltonian)

    p = sub.add_parser("verify", help="run the configured verification checks")
    p.add_argument("config")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sleigh", help="Chaplygin-sleigh presets")
    p.add_argument("variant", help=" | ".join(scenarios.SLEIGH_VARIANTS))
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--I", type=float, default=1.0)
    p.add_argument("--k", type=float, default=0.0)
    p.add_argument("--v0", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--dt", type=float, default=1e-3)
    p.set_defaults(fn=cmd_sleigh)

    p = sub.add_parser("list-scenarios", help="list scenario names")
    p.set_defaults(fn=cmd_list_scenarios)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("NONHOLO_LOG", "WARNING").upper())
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error ({getattr(args, 'config', '')}): {exc}", file=sys.stderr)
        return 2
    except NonholoError as exc:
        print(f"runtime error ({getattr(args, 'config', '')}): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
