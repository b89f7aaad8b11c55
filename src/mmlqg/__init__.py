"""Major-minor LQG mean-field games.

Riccati-based single-agent LQG solvers, mean-field consistency fixed
points, finite-population simulation, and epsilon-Nash gap measurement.
"""

__version__ = "0.1.0"

from .errors import (
    AreSolveError,
    AssumptionViolationError,
    DimensionGuardError,
    DivergedPathError,
    FixedPointError,
    IntegrationDivergedError,
    MmlqgError,
    NumericalError,
    OutOfRangeError,
    RiccatiBlowupError,
    SchemaError,
    UnsupportedOracleError,
)
from .numerics import GridFunction, TimeGrid
from .lqg_single import (
    FeedbackLaw,
    LqgProblem,
    LqgSolution,
    StationarySolution,
    expected_cost,
    gateaux_derivative_det,
    solve_discounted_are,
    solve_finite_horizon,
    solve_infinite_horizon,
    validate_convexity,
)
from .mfg_model import (
    MajorParams,
    MinorTypeParams,
    MmMfgProblem,
    build_extended_major,
    build_extended_minor,
    build_mean_field_matrices,
    validate_problem,
)
from .mfg_solver import (
    FixedPointConfig,
    MfgSolution,
    StationaryMfgSolution,
    solve_consistency_finite,
    solve_consistency_infinite,
)
from .population_sim import (
    PopulationConfig,
    TrajectoryBundle,
    expected_cost_exact,
    mean_field_convergence_study,
    simulate_population,
)
from .nash_gap import (
    BestResponse,
    NashGapReport,
    build_joint_closed_loop,
    epsilon_nash_gap,
    gap_vs_population,
    solve_best_response,
)
from .toys import coupled_toy, decoupled_toy

__all__ = [name for name in dir() if not name.startswith("_")]
