"""Discrete state transition algorithm (STA/DSTA) for integer optimization."""

from .engine import Mode, RunResult, SearchState, StaParams, run
from .operators import Operator
from .problems import (
    DvsProblem,
    MaxCutInstance,
    Problem,
    TspInstance,
    cut_weight,
    dvs_problem,
    maxcut_problem,
    qubo_value,
    rosenbrock_problem,
    rosenbrock_value,
    tour_length,
    tsp_error,
    tsp_problem,
)

__all__ = [
    "Mode",
    "Operator",
    "RunResult",
    "SearchState",
    "StaParams",
    "run",
    "DvsProblem",
    "MaxCutInstance",
    "Problem",
    "TspInstance",
    "cut_weight",
    "dvs_problem",
    "maxcut_problem",
    "qubo_value",
    "rosenbrock_problem",
    "rosenbrock_value",
    "tour_length",
    "tsp_error",
    "tsp_problem",
]

__version__ = "0.1.0"
