"""Golden outputs: the CLI's numbers, pinned by digest.

``nonholo simulate``, ``nonholo verify`` and ``nonholo hamiltonian`` run on
each of the five scenarios and on the two-constraint knife edge with a rolling
wheel (an inline system).  Each case compares the SHA-256 digest of the CSV
data rows (column line and rows; the ``#`` header carries the config path's
hash) and of the JSONL records (with ``config_sha256`` and ``version``
removed) with the digest recorded when the case was added.  A change that
moves any printed number by one bit, or any check verdict, fails here.  Two
off-surface ``integrate_hamiltonian`` runs (p and pi nonzero), which no CLI
command takes, are pinned the same way.

The digests depend on the platform's libm (``sin``, ``cos``, ``exp``, ``log``
round to the last bit differently on some platforms) and, for the wheel's
smallest Gram eigenvalue, on LAPACK's ``eigvalsh``; they were recorded on
x86-64 Linux with glibc and the LAPACK of numpy's wheels.
"""

import hashlib
import json

import numpy as np
import pytest

from conftest import WHEEL_CONSTRAINTS, wheel_state, wheel_system
from nonholo.cli import main
from nonholo.hamiltonian import ExtendedPhasePoint
from nonholo.integrate import IntegratorConfig, integrate_hamiltonian
from nonholo.scenarios import SleighParams, build_sleigh_spec, nonlinear_sleigh_guards

_WHEEL_Q0, _WHEEL_V0 = wheel_state(0.4, 1.1, 0.7)

# name -> (system block, initial block, simulate integrator block)
SYSTEMS = {
    "friction": ({"scenario": "friction", "params": {"k": 30.0, "v0": 1.2, "omega": 0.9}},
                 {}, {"method": "rkf45", "dt": 0.01, "t_end": 0.5}),
    "lda_linear": ({"scenario": "lda_linear"}, {},
                   {"method": "rk4", "dt": 0.01, "t_end": 0.3, "projection": True}),
    "lda_nonlinear": ({"scenario": "lda_nonlinear", "params": {"v0": 0.8, "omega": 1.1}}, {},
                      {"method": "rk4", "dt": 0.01, "t_end": 0.3}),
    "vakonomic_phi": ({"scenario": "vakonomic_phi", "params": {"c": 0.3}}, {},
                      {"method": "rkf45", "dt": 0.01, "t_end": 0.4}),
    "damped_oscillator": ({"scenario": "damped_oscillator", "params": {"omega": 1.3, "k": 0.4}},
                          {"q0": [1.0], "v0": [0.2]},
                          {"method": "rk4", "dt": 0.01, "t_end": 0.3}),
    "wheel": ({"n": 4, "masses": [1.0, 2.0, 0.5, 1.5], "constraints": list(WHEEL_CONSTRAINTS)},
              {"q0": list(_WHEEL_Q0), "v0": list(_WHEEL_V0)},
              {"method": "rk4", "dt": 0.01, "t_end": 0.3}),
}

# the README checks; analytic-compare only where a circular reference exists
_CHECKS = ({"type": "drift", "tolerance": 1e-9},
           {"type": "analytic-compare", "tolerance": 1e-6},
           {"type": "hamiltonian-equivalence"},
           {"type": "action-stationarity"},
           {"type": "gauge-invariance", "alpha_amplitude": 0.01})
_REFERENCED = ("friction", "lda_linear", "lda_nonlinear")

# (system, command) -> (exit code, CSV digest, JSONL digest or ""); friction only
# approaches the circle, so its analytic-compare fails at 1e-6 and verify exits 1;
# every on-surface hamiltonian run reports the same surface-residual record
GOLDEN = {
    ('friction', 'simulate'): (0, '409dbffee903b1183673e855d0ded0c7a098dab4c1aa0f340fb5d4c73bc61a5c', ''),
    ('lda_linear', 'simulate'): (0, '0e82a4f8aef607f2772238bb7e0bfb253c0c13d57a1bb79bea552d9d9c9b67c4', ''),
    ('lda_nonlinear', 'simulate'): (0, 'abee1f38c8b4e08a7f825940bfa4c87a00f51c30e8cccd9f0273f7c252f6e19b', ''),
    ('vakonomic_phi', 'simulate'): (0, 'afed8d468ff1227ddf7b44406d25d1f66d8f8d73ab27aa6385e10c8d2157e32f', ''),
    ('damped_oscillator', 'simulate'): (0, '46082f0730fc94ce384ee884a7042280b679d21dc083e426910b82bf548ad765', ''),
    ('wheel', 'simulate'): (0, '3abc152756255d0b8f300dffaaecd75cf65e90974ae6cdd205f7cc0389cb4345', ''),
    ('friction', 'verify'): (1, 'b2438d5721c101bd3d569e0f450675c7a4a7359a8776eae8e53aa48f8dde9b41', '3058ad03c3fa49860deec70d31433774dbc34c157eef9936c91d03458f48fd5c'),
    ('lda_linear', 'verify'): (0, 'a0f0c30a817e05816dc77370d062a58c229aa5d9c4caebc170d8c2a6a247b51c', '2a4767c924886d3d2c76a255ac5668a3abedb2836ae4276446e81fea184e0b50'),
    ('lda_nonlinear', 'verify'): (0, 'e6ed9110f09a6872402d1627f4ae973f6487bbe65b617b14f493dd4aa86e8932', 'a6e35ca90707dd71a795d664347b758f7da16b769b40c932426a0efd73813ea8'),
    ('vakonomic_phi', 'verify'): (0, 'f2d1b5d933bab29a7f753aa7b9efd69f7cbfb56c6a63f230a284e61442eeb657', '7ecb5ada04d2422fac4d133e97f295c0ac93b466e17d7db3c10c7bee2f12b183'),
    ('damped_oscillator', 'verify'): (0, '69968df7b0b19842de37222609d16f8ed72895a139fa90655e4bd96931d94400', '0f6770c8c5abbd278063b5c79a0fc7e082d903fa771c8e822a5fe65d0dd5e189'),
    ('wheel', 'verify'): (0, 'ba93d6e7842785cabc2edb4f358c77b6a4c323b04d6e39131b2485bd965e5cd4', '3f9ecdf4fe5e95b9df7b2e9aa572fc1aba8d0ae6361a2343cb76edbfecdc339e'),
    ('friction', 'hamiltonian'): (0, '2b03247a6b4893a5c585b9c1f0bc355d70ace0acc107620ae0facab0b62a212d', '1b5b6d9ea295380ff1c6b72898caf039c4d443a60f6d6fec9337a664a208c90e'),
    ('lda_linear', 'hamiltonian'): (0, '9261fb667f8912c133315d3da37f77aec15f49231657c4a757e09242e3448022', '1b5b6d9ea295380ff1c6b72898caf039c4d443a60f6d6fec9337a664a208c90e'),
    ('lda_nonlinear', 'hamiltonian'): (0, '501eb64250918f7c4dfea9efa35c135b4af9b1e6733b24ea30304704eb5e6dc8', '1b5b6d9ea295380ff1c6b72898caf039c4d443a60f6d6fec9337a664a208c90e'),
    ('vakonomic_phi', 'hamiltonian'): (0, '618c87a9d010e8642f56f890718e915aff857657257289e422efe299e4bd9aa9', '1b5b6d9ea295380ff1c6b72898caf039c4d443a60f6d6fec9337a664a208c90e'),
    ('damped_oscillator', 'hamiltonian'): (0, 'afa1bc5795a5a96fe97a26f93314d86aa75a92db5ea80caa7bba9da571c924cf', '1b5b6d9ea295380ff1c6b72898caf039c4d443a60f6d6fec9337a664a208c90e'),
    ('wheel', 'hamiltonian'): (0, 'fddcf8274c9514e7dd716907f9c87acb748de121ae5c2ba42545b212a8f9a916', '1b5b6d9ea295380ff1c6b72898caf039c4d443a60f6d6fec9337a664a208c90e'),
}


def _config(name: str, command: str, tmp_path) -> dict:
    system, initial, integrator = SYSTEMS[name]
    outputs = {"trajectory_csv": str(tmp_path / "traj.csv")}
    config = {"system": system, "initial": dict(initial), "outputs": outputs}
    if command == "simulate":
        config["integrator"] = integrator
        return config
    config["initial"].update(e0=1.3, mu_e="sin(t)")
    outputs["report_json"] = str(tmp_path / "report.jsonl")
    if command == "hamiltonian":
        config["integrator"] = integrator
        return config
    config["integrator"] = {"method": "rk4", "dt": 0.01, "t_end": 0.2}
    config["checks"] = [c for c in _CHECKS
                        if c["type"] != "analytic-compare" or name in _REFERENCED]
    return config


def _csv_digest(path) -> str:
    rows = [line for line in path.read_text().splitlines(keepends=True)
            if not line.startswith("#")]
    return hashlib.sha256("".join(rows).encode()).hexdigest()


def _jsonl_digest(path) -> str:
    records = []
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        del rec["config_sha256"], rec["version"]
        records.append(json.dumps(rec, sort_keys=True))
    return hashlib.sha256("\n".join(records).encode()).hexdigest()


def run_case(name: str, command: str, tmp_path, capsys) -> tuple:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_config(name, command, tmp_path)))
    code = main([command, str(path)])
    capsys.readouterr()
    report = tmp_path / "report.jsonl"
    return (code, _csv_digest(tmp_path / "traj.csv"),
            _jsonl_digest(report) if report.exists() else "")


@pytest.mark.parametrize("name", SYSTEMS)
@pytest.mark.parametrize("command", ["simulate", "verify", "hamiltonian"])
def test_outputs_match_the_recorded_digests(name, command, tmp_path, capsys):
    assert run_case(name, command, tmp_path, capsys) == GOLDEN[name, command]


def _offsurface_start(name: str):
    """(spec, start row, guards) of an off-surface run: p, pi and pi_e nonzero."""
    if name == "wheel":
        q0, v0 = wheel_state(0.3, 1.2, 0.8)
        return (wheel_system(),
                ExtendedPhasePoint(q=q0, p=(0.03, -0.02, 0.01, 0.04), v=v0,
                                   pi=(0.02, 0.04, -0.03, 0.01), e=1.3, pi_e=0.02), ())
    th = 0.2
    return (build_sleigh_spec("lda_nonlinear", SleighParams()),
            ExtendedPhasePoint(q=(0.0, 0.0, th), p=(0.02, -0.03, 0.01),
                               v=(1.1 * np.cos(th), 1.1 * np.sin(th), 0.7),
                               pi=(-0.04, 0.02, 0.03), e=0.8, pi_e=-0.01),
            nonlinear_sleigh_guards())


def offsurface_digest(name: str) -> str:
    """SHA-256 over every sample array and the termination of an RK4 run."""
    spec, y0, guards = _offsurface_start(name)
    ext = integrate_hamiltonian(spec, y0, lambda t: 0.1 * t,
                                IntegratorConfig(method="rk4", dt=1e-3, t_end=0.05),
                                guards=guards)
    assert ext.termination.kind == "completed"
    digest = hashlib.sha256()
    for arr in (ext.times, ext.q, ext.p, ext.v, ext.pi, ext.e, ext.pi_e, ext.surface_residual):
        digest.update(np.ascontiguousarray(arr).tobytes())
    term = ext.termination
    digest.update(repr((term.kind, term.name, term.t)).encode())
    return digest.hexdigest()


OFFSURFACE_GOLDEN = {
    "wheel": "24c7a05bdfd9d23d92beb5d08a9fa9069fca2eb24aa1bdd784dceb7868937fc7",
    "lda_nonlinear": "b124a17d485b1b15e502cdd984039ccf414d26c468b59c0689c4108dd2b032d5",
}


@pytest.mark.parametrize("name", OFFSURFACE_GOLDEN)
def test_offsurface_runs_match_the_recorded_digests(name):
    assert offsurface_digest(name) == OFFSURFACE_GOLDEN[name]
