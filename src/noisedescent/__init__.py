"""Noise-minimal descent trajectories by direct transcription.

Library layout:

- flight_dynamics: atmosphere, forces, equations of motion, fuel flow
- noise: jet source level, corrections, equivalent level, consumption
- transcription: grid, Heun defects, packed NLP callbacks
- nlp_solver: augmented-Lagrangian solver and KKT residuals
- scenarios: problem variants, initial guess, and `solve_variant`, the
  one solve driver
- config / cli: config-file ingestion and run tooling

The model is evaluated on arrays only: states and controls are numpy
arrays in the component orders of flight_dynamics, and the kernels
(`flight_dynamics.rhs_arrays`, `noise.levels_arrays`) take whole sets of
nodes at once.
"""

from .flight_dynamics import (
    AircraftModel,
    Atmosphere,
    ISA,
    air_density,
    drag,
    thrust,
)
from .noise import (
    EngineNoiseParams,
    Observer,
    Trajectory,
    leq,
    total_consumption,
)
from .nlp_solver import NlpProblem, SolveReport, SolverOptions, kkt_residuals, solve
from .scenarios import (
    PathBounds,
    Scenario,
    VariantResult,
    default_scenario,
    initial_guess,
    solve_variant,
)
from .transcription import (
    Grid,
    VectorLayout,
    assemble,
    heun_step,
    simulate,
)

__version__ = "0.1.0"
