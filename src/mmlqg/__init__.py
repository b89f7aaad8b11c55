"""Major-minor LQG mean-field games.

Riccati-based single-agent LQG solvers, mean-field consistency fixed
points, finite-population simulation, and epsilon-Nash gap measurement.

Names load on first use: ``import mmlqg`` imports no submodule and no
numpy, and ``mmlqg.X`` (or ``from mmlqg import X``) imports X's home
module below, once, and keeps X in this namespace.  The submodules
listed here are public names too.  The commands of cli_app load in the
same way: solve-lqg and solve-mfg run without population_sim, nash_gap
and toys, simulate adds population_sim, nash-gap adds nash_gap, and
only verify loads every module.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "errors": "AreSolveError AssumptionViolationError DimensionGuardError "
              "DivergedPathError FixedPointError IntegrationDivergedError "
              "MmlqgError NumericalError OutOfRangeError RiccatiBlowupError "
              "SchemaError UnsupportedOracleError",
    "numerics": "GridFunction TimeGrid",
    "lqg_single": "FeedbackLaw LqgProblem LqgSolution StationarySolution "
                  "expected_cost gateaux_derivative_det solve_discounted_are "
                  "solve_finite_horizon solve_infinite_horizon validate_convexity",
    "mfg_model": "MajorParams MinorTypeParams MmMfgProblem build_extended_major "
                 "build_extended_minor build_mean_field_matrices validate_problem",
    "mfg_solver": "FixedPointConfig MfgSolution StationaryMfgSolution "
                  "solve_consistency_finite solve_consistency_infinite",
    "population_sim": "PopulationConfig TrajectoryBundle expected_cost_exact "
                      "mean_field_convergence_study simulate_population",
    "nash_gap": "BestResponse NashGapReport build_joint_closed_loop "
                "epsilon_nash_gap gap_vs_population solve_best_response",
    "toys": "coupled_toy decoupled_toy",
}
# public name -> home submodule; a submodule is its own home
_HOME = {name: home for home, names in _HOMES.items()
         for name in [home] + names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    module = importlib.import_module("." + home, __name__)
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
