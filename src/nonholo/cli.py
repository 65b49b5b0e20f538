"""Batch front-end: JSON run configs in, CSV trajectories and JSONL reports out.

Exit codes: 0 all checks passed, 1 a check failed, 2 configuration error,
3 runtime/integration error.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import logging
import math
import os
import sys
from dataclasses import asdict, replace
from functools import cache
from typing import get_type_hints

import numpy as np

from . import __version__, action, engine, integrate, scenarios
from .errors import ConfigError, NonholoError
from .expr import parse_expression
from .hamiltonian import ExtendedPhasePoint
from .integrate import IntegratorConfig
from .paths import bump, lift_on_shell
from .scenarios import SCENARIO_NAMES, Scenario, SleighParams

log = logging.getLogger("nonholo")

FORMULATION_NOTE = ("multipliers from the consistency condition dD/dt = 0 "
                    "(Gram system in dD/dv, diagonal mass)")

# inline systems: no default initial state, no guards, no reference solution
_INLINE_SCENARIO = Scenario(build=None)


def _default(fn, name: str):
    """The default of a keyword of an API function, so the CLI never restates it."""
    return inspect.signature(fn).parameters[name].default


# the numeric parameters of each check type, with their defaults; a check holds no other key
_CHECK_PARAMS = {
    "drift": {"tolerance": 1e-8},
    "analytic-compare": {"tolerance": 1e-8},
    "hamiltonian-equivalence": {"tolerance": 1e-8},
    "action-stationarity": {"C": _default(action.stationarity_check, "C")},
    "gauge-invariance": {"alpha_amplitude": 1e-2, "offshell_amplitude": 0.05,
                         "C": _default(action.gauge_invariance_check, "C")},
}
# checks that compare samples on the uniform RK4 grid: the path checks lift the run
# to a phase path, hamiltonian-equivalence matches the two runs sample by sample
_GRID_CHECKS = ("hamiltonian-equivalence", "action-stationarity", "gauge-invariance")

# the two kinds that are not plain types: a list of finite numbers and a list of
# expression strings
_NUMBERS, _EXPRESSIONS = list[float], list[str]
# the kind of every key each config block may hold (a float is a finite number); the
# system block is either a scenario or an inline system, whose keys are the keyword
# arguments of make_system
_FIELDS = {
    "config": {"system": dict, "integrator": dict, "initial": dict, "outputs": dict,
               "checks": list},
    "scenario": {"scenario": str, "params": dict},
    "inline": {"n": int, "masses": _NUMBERS, "forces": _EXPRESSIONS, "potential": str,
               "constraints": _EXPRESSIONS, "eps_reg": float},
    "integrator": get_type_hints(IntegratorConfig),
    "initial": {"q0": _NUMBERS, "v0": _NUMBERS, "e0": float, "mu_e": str,
                "project": bool},
    "outputs": {"trajectory_csv": str, "report_json": str},
}
_KIND_NAMES = {float: "a number", _NUMBERS: "a list of numbers",
               _EXPRESSIONS: "a list of expression strings", str: "a string", bool: "a boolean",
               int: "an integer", dict: "an object", list: "a list"}


# --- config loading -------------------------------------------------------------

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


def _value(val, kind, path: str):
    """val, which must be of the given kind; numbers come back as floats."""
    if kind is float:
        return _finite(val, path)
    if kind is _NUMBERS:
        if isinstance(val, list):
            return [_finite(x, f"{path}[{i}]") for i, x in enumerate(val)]
    elif kind is _EXPRESSIONS:
        if isinstance(val, list) and all(isinstance(x, str) for x in val):
            return val
    elif isinstance(val, kind) and not (kind is int and isinstance(val, bool)):
        return val
    raise ConfigError(f"expected {_KIND_NAMES[kind]}", path)


def _read(block, path: str, kinds: dict, required=()) -> dict:
    """The entries of an object holding only keys of kinds, each of its kind, and every
    required key; a key set to null counts as absent."""
    if not isinstance(block, dict):
        raise ConfigError("expected an object", path)
    prefix = f"{path}." if path else ""
    out = {}
    for key, val in block.items():
        kind = kinds.get(key)
        if kind is None:
            raise ConfigError(f"unknown key {key!r}", f"{prefix}{key}")
        if val is not None:
            out[key] = _value(val, kind, f"{prefix}{key}")
    for key in required:
        if key not in out:
            raise ConfigError("missing required field", f"{prefix}{key}")
    return out


def _build_system(block: dict) -> tuple:
    """Returns (spec, scenario, sleigh_params_or_None)."""
    if "scenario" in block:
        system = _read(block, "system", _FIELDS["scenario"], ("scenario",))
        name = system["scenario"]
        if name not in SCENARIO_NAMES:
            raise ConfigError(f"unknown scenario {name!r}", "system.scenario")
        scenario = scenarios.SCENARIOS[name]
        params = system.get("params", {})
        params = _read(params, "system.params", dict.fromkeys(params, float))
        try:
            spec, sleigh = scenario.build(**params)
        except (TypeError, ValueError, NonholoError) as exc:
            raise ConfigError(str(exc), "system.params") from exc
        return spec, scenario, sleigh
    system = _read(block, "system", _FIELDS["inline"], ("n", "masses"))
    n = system.pop("n")
    if n < 1:
        raise ConfigError("n must be a positive integer", "system.n")
    for key in ("masses", "forces"):
        if key in system and len(system[key]) != n:
            raise ConfigError(f"{key} must be a list of length n={n}", f"system.{key}")
    try:
        spec = engine.make_system(n, **system)
    except (NonholoError, ValueError) as exc:
        raise ConfigError(str(exc), "system") from exc
    return spec, _INLINE_SCENARIO, None


class Run:
    """Validated run configuration."""

    def __init__(self, config: dict, config_path: str):
        top = _read(config, "", _FIELDS["config"], ("system", "integrator"))
        self.config_path = config_path
        raw = json.dumps(config, sort_keys=True).encode()
        self.config_hash = hashlib.sha256(raw).hexdigest()
        self.spec, self.scenario, self.params = _build_system(top["system"])
        block = top.get("initial", {})
        # an inline system needs q0 and v0; a scenario config gives both or neither
        given = self.scenario.initial is None or "q0" in block or "v0" in block
        initial = _read(block, "initial", _FIELDS["initial"], ("q0", "v0") if given else ())
        q0, v0 = ((initial["q0"], initial["v0"]) if given
                  else self.scenario.initial(self.params))
        self.q0, self.v0 = list(q0), list(v0)
        for key, val in (("q0", self.q0), ("v0", self.v0)):
            if len(val) != self.spec.n:
                raise ConfigError(f"{key} length {len(val)} != n={self.spec.n}",
                                  f"initial.{key}")
        self.e0 = initial.get("e0", 1.0)
        if self.e0 == 0.0:
            raise ConfigError("e0 must be nonzero", "initial.e0")
        try:
            mu_expr = parse_expression(initial.get("mu_e", "0"), 0)
        except NonholoError as exc:
            raise ConfigError(str(exc), "initial.mu_e") from exc
        self.mu_e = lambda t: mu_expr._fn((), (), t)
        self.project = initial.get("project", False)
        integrator = _read(top["integrator"], "integrator", _FIELDS["integrator"], ("t_end",))
        try:
            self.cfg = IntegratorConfig(**integrator)
        except ValueError as exc:
            raise ConfigError(str(exc), "integrator") from exc
        outputs = _read(top.get("outputs", {}), "outputs", _FIELDS["outputs"])
        self.trajectory_csv = outputs.get("trajectory_csv")
        self.report_json = outputs.get("report_json")
        self.checks = [self._check(chk, f"checks[{i}]")
                       for i, chk in enumerate(top.get("checks", []))]

    def _check(self, chk, path: str) -> dict:
        """The check's type and its parameters, defaults filled in."""
        if not isinstance(chk, dict) or "type" not in chk:
            raise ConfigError("each check needs a 'type'", path)
        kind = chk["type"]
        if not isinstance(kind, str) or kind not in _CHECK_PARAMS:
            raise ConfigError(f"unknown check type {kind!r}", path)
        params = _CHECK_PARAMS[kind]
        values = _read(chk, path, {"type": str, **dict.fromkeys(params, float)})
        if kind in _GRID_CHECKS and self.cfg.method != "rk4":
            raise ConfigError(f"{kind} needs the uniform time grid of an rk4 run", path)
        if kind == "analytic-compare" and self.scenario.reference is None:
            raise ConfigError("analytic-compare needs an lda_*/friction scenario", path)
        return {**params, **values}

    def second_order_run(self) -> integrate.Trajectory:
        """Second-order run from (q0, v0), guarded as the scenario says for that start."""
        return integrate.integrate_second_order(self.spec, self.q0, self.v0, self.cfg,
                                                guards=self.scenario.guards(self.v0))

    def hamiltonian_run(self) -> integrate.ExtendedTrajectory:
        """Extended-phase-space run from the on-surface lift of (q0, v0)."""
        zeros = [0.0] * self.spec.n
        y0 = ExtendedPhasePoint(self.q0, zeros, self.v0, zeros, self.e0, 0.0)
        return integrate.integrate_hamiltonian(self.spec, y0, self.mu_e, self.cfg,
                                               guards=self.scenario.guards(self.v0))


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
    rec = {"check": kind}
    if "tolerance" in chk:  # only the checks that take a tolerance record one
        tol = rec["tolerance"] = chk["tolerance"]
    if kind == "drift":
        drift = float(np.max(np.abs(traj.constraint_values))) if traj.constraint_values.size else 0.0
        rec.update(max_drift=drift, passed=drift <= tol)
        return rec
    if kind == "analytic-compare":
        scenario, params = run.scenario, run.params
        dev = scenarios.curve_deviation(traj, scenario.reference, params)
        rec.update(reference="circle", max_deviation=dev, passed=dev <= tol)
        if scenario.closed_form is not None:
            try:  # the printed closed form raises ValueError where its rates are not real
                printed = scenarios.curve_deviation(traj, scenario.closed_form, params)
            except ValueError:
                return rec
            rec.update(printed_form_deviation=printed, printed_form_gating=False)
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

# the subcommands that run a config file, with their help
_CONFIG_COMMANDS = {
    "simulate": "second-order run with checks",
    "hamiltonian": "extended-phase-space run (a config without checks)",
    "verify": "run the configured verification checks",
}


def cmd_config(args) -> int:
    run = load_run(args.config)
    if args.command == "verify" and not run.checks:
        raise ConfigError("verify requires a non-empty checks list", "checks")
    if args.command == "hamiltonian" and run.checks:
        raise ConfigError("the hamiltonian run takes no checks", "checks")
    if run.project:
        run.v0 = list(engine.project_initial_state(run.spec, run.q0, run.v0))
    if args.command == "hamiltonian":
        ext = run.hamiltonian_run()
        passed = ext.termination.kind != "error"
        if run.trajectory_csv:
            write_extended_csv(run.trajectory_csv, run, ext)
        if run.report_json:
            write_reports(run.report_json, run, [{
                "check": "surface-residual",
                "max_surface_residual": float(np.max(ext.surface_residual)),
                "termination": ext.termination.kind, "passed": passed}])
        print(f"hamiltonian run: {ext.termination.kind}, "
              f"max surface residual {np.max(ext.surface_residual):.3e}")
        if not passed:
            log.error("integration failed: %s", ext.termination.name)
            return 3
        return 0

    traj = run.second_order_run()
    if run.trajectory_csv:
        write_trajectory_csv(run.trajectory_csv, run, traj)
    if traj.termination.kind == "error":
        log.error("integration failed: %s", traj.termination.name)
        return 3
    records, all_passed = [], True
    for chk in run.checks:
        rec = run_check(run, chk, traj)
        records.append(rec)
        all_passed = all_passed and rec["passed"]
        print(f"check {rec['check']}: {'PASS' if rec['passed'] else 'FAIL'}")
    if run.report_json:
        write_reports(run.report_json, run, records)
    return 0 if all_passed else 1


def cmd_sleigh(args) -> int:
    if args.variant not in scenarios.SLEIGH_VARIANTS:
        raise ConfigError(f"unknown variant {args.variant!r}", "sleigh.variant")
    scenario = scenarios.SCENARIOS[args.variant]
    try:
        spec, params = scenario.build(m=args.m, I=args.I, k=args.k, v0=args.v0,
                                      omega=args.omega, c=args.c)
        t_end = args.t_end if args.t_end is not None else scenario.t_end(params)
        cfg = IntegratorConfig(dt=args.dt, t_end=t_end)
    except (ValueError, NonholoError) as exc:
        raise ConfigError(str(exc), "sleigh") from exc
    q0, v0 = scenario.initial(params)
    traj = integrate.integrate_second_order(spec, q0, v0, cfg, guards=scenario.guards(v0))
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


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: ``parse_args`` keeps no
    state in it, so each ``main`` call, in-process callers' included, shares it."""
    parser = argparse.ArgumentParser(
        prog="nonholo",
        description="Constrained-dynamics runs and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in _CONFIG_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config")
        p.set_defaults(fn=cmd_config)

    p = sub.add_parser("sleigh", help="Chaplygin-sleigh presets")
    p.add_argument("variant", help=" | ".join(scenarios.SLEIGH_VARIANTS))
    for name in ("m", "I", "k", "v0", "omega"):
        p.add_argument(f"--{name}", type=float, default=getattr(SleighParams, name))
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--dt", type=float, default=IntegratorConfig.dt)
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
