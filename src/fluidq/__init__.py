"""Static fluid analysis, path diagnostics and many-server simulation for
multiclass parallel-server queueing networks."""

from types import ModuleType as _ModuleType

from .model import (
    DEFAULT_TOL,
    ModelError,
    NetworkModel,
    activity_set,
    load_model,
    model_to_dict,
    validate_model,
)
from .linprog import NumericalFailure
from .static_fluid import (
    AssumptionReport,
    FluidSolution,
    GenerationFailed,
    InfeasibleModel,
    check_assumptions,
    generate_critical_instance,
    solve_static_allocation,
)
from .paths import (
    CLASS_DEPENDENT,
    CLOSED,
    NEGATIVE,
    NEITHER,
    NotATree,
    OPEN,
    POOL_DEPENDENT,
    POSITIVE,
    SimplePath,
    ZERO,
    enumerate_simple_paths,
)
from .optimality import (
    NC_IMPOSSIBLE,
    NC_POSSIBLE,
    NC_UNKNOWN,
    NCVerdict,
    PerturbationCheck,
    ThroughputVerdict,
    nc_verdict,
    zero_path_check,
)
from .simulator import (
    ExperimentResult,
    ExperimentRow,
    GreedyBasic,
    IdlePolicy,
    NegativePathPump,
    Policy,
    PolicyViolation,
    ScalingViolation,
    SimResult,
    SystemInstance,
    SystemState,
    build_system,
    derive_seed,
    make_policy,
    run_nc_experiment,
    simulate,
)
from .analysis import AnalysisReport, render_report, run_analysis
from . import cli  # noqa: F401  the console entry point fluidq.cli.main

# the public names are the ones imported above, each listed once
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
