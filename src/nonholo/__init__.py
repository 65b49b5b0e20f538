"""Constrained-dynamics engine for nonlinear nonholonomic systems.

Multiplier-based Lagrange-d'Alembert dynamics, an equivalent extended-
phase-space Hamiltonian formulation with one local gauge symmetry, action
functionals on discrete paths, fixed/adaptive integrators, and the
Chaplygin-sleigh scenarios that exercise all of it.
"""

__version__ = "0.1.0"

from .engine import ConstraintSet, SystemSpec, make_system
from .expr import Expr, parse_expression
from .hamiltonian import ExtendedPhasePoint
from .integrate import (ExtendedTrajectory, IntegratorConfig, Termination,
                        Trajectory, integrate_hamiltonian, integrate_second_order)
from .paths import ConfigPath, PhasePath
from .scenarios import SleighParams, build_sleigh_spec, damped_oscillator_spec

__all__ = [
    "__version__",
    "ConstraintSet", "SystemSpec", "make_system",
    "Expr", "parse_expression",
    "ExtendedPhasePoint",
    "ExtendedTrajectory", "IntegratorConfig", "Termination", "Trajectory",
    "integrate_hamiltonian", "integrate_second_order",
    "ConfigPath", "PhasePath",
    "SleighParams", "build_sleigh_spec", "damped_oscillator_spec",
]
