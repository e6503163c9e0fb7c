"""Decomposition engine for two-stage stochastic integer programs.

Benders, integer L-shaped, strengthened Benders and restricted
Lagrangian cuts over a built-in deterministic LP/MIP kernel, with a
dual-decomposition bound oracle, instance generators and a CLI.
"""

__version__ = "0.1.0"

from .optbase import LinearProgram, MipProgram, SolveOutcome, solve_lp, solve_mip
from .model import Scenario, SipInstance, build_extensive_form, eval_recourse, toy_instance

__all__ = [
    "LinearProgram",
    "MipProgram",
    "SolveOutcome",
    "solve_lp",
    "solve_mip",
    "Scenario",
    "SipInstance",
    "build_extensive_form",
    "eval_recourse",
    "toy_instance",
    "__version__",
]
