"""Charging-station siting and charger allocation for battery-electric bus
fleets under stochastic charging demand.

The toolkit covers the full pipeline: turning block schedules into Poisson
charging-demand points, clustering to control problem size, an exact
branch-and-bound with convex-delay tangent cuts, simulated-annealing and
genetic-algorithm metaheuristics, deployment-scenario comparisons, and
sensitivity sweeps. See the CLI (``chargeplan --help``) for the end-to-end
commands.
"""

from .construction import (
    best_chargers,
    build_solution,
    cover_sets,
    demand_assignment,
    min_stations,
)
from .demand import (
    BlockSchedule,
    DemandEvent,
    Trip,
    aggregate_demand,
    build_coverage,
    cluster_demand_points,
    cluster_stations,
    segment_block,
)
from .exact import (
    SolverConfig,
    SolverReport,
    branch_and_bound,
    brute_force,
)
from .metaheuristics import (
    GAParams,
    SAParams,
    genetic_algorithm,
    multi_run,
    simulated_annealing,
)
from .model import (
    CandidateStation,
    ChargerType,
    CostBreakdown,
    DemandPoint,
    Instance,
    Solution,
    Violation,
    check_feasibility,
    derive_service_rates,
    evaluate,
    load_instance,
    make_instance,
    save_instance,
)
from .queueing import delay_factor, erlang_c, expected_wait, tangent_cut
from .scenarios import ScenarioSpec, SweepSpec, run_scenarios, run_sweep, scale_instance

__version__ = "0.1.0"

__all__ = [
    "BlockSchedule",
    "CandidateStation",
    "ChargerType",
    "CostBreakdown",
    "DemandEvent",
    "DemandPoint",
    "GAParams",
    "Instance",
    "SAParams",
    "ScenarioSpec",
    "Solution",
    "SolverConfig",
    "SolverReport",
    "SweepSpec",
    "Trip",
    "Violation",
    "aggregate_demand",
    "best_chargers",
    "branch_and_bound",
    "brute_force",
    "build_coverage",
    "build_solution",
    "check_feasibility",
    "cluster_demand_points",
    "cluster_stations",
    "cover_sets",
    "delay_factor",
    "demand_assignment",
    "derive_service_rates",
    "erlang_c",
    "evaluate",
    "expected_wait",
    "genetic_algorithm",
    "load_instance",
    "make_instance",
    "min_stations",
    "multi_run",
    "run_scenarios",
    "run_sweep",
    "save_instance",
    "scale_instance",
    "segment_block",
    "simulated_annealing",
    "tangent_cut",
]
