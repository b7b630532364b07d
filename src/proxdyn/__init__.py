"""proxdyn: semi-implicit incremental minimization for nonsmoothly damped
second-order dynamics on 1D finite-difference grids.

Per time step the package minimizes an inertia + dissipation + energy
functional, extracts the dissipation subgradient, and tracks the discrete
energy-dissipation inequality; shipped models cover visco-elasto-plastic
phase transformation, a nonlinearly damped wave with perturbation, and
dry-friction plus power-law damping with a double-well energy.
"""

from .core import (
    DissipationSpec,
    EnergySpec,
    PerturbationSpec,
    ProblemSpec,
    ValidationReport,
    energy_total,
    tau_max,
    validate_assumptions,
)
from .convex import StepProblem, solve_pd
from .grid import Field, SpatialGrid
from .stepper import (
    StepInput,
    StepReport,
    Trajectory,
    average_force,
    incremental_minimize,
    run,
)

__all__ = [
    "DissipationSpec",
    "EnergySpec",
    "Field",
    "PerturbationSpec",
    "ProblemSpec",
    "SpatialGrid",
    "StepInput",
    "StepProblem",
    "StepReport",
    "Trajectory",
    "ValidationReport",
    "average_force",
    "energy_total",
    "incremental_minimize",
    "run",
    "solve_pd",
    "tau_max",
    "validate_assumptions",
]

__version__ = "0.1.0"
