"""Continuous-time dynamics of TD learning with learned linear representations."""

from .mdp import (
    ConvergenceError,
    MarkovRewardProcess,
    load_mdp,
    make_mdp,
    make_rng,
    mdp_from_json,
    mdp_to_json,
    reversibility_residual,
    save_mdp,
    seed_streams,
)
from .metrics import (
    IllConditionedError,
    MetricReport,
    SolutionOverflowError,
    covariance_drift,
    critical_point_residual,
    invariant_subspace_residual,
    normalized_trace_objective,
    reports_to_csv,
    trace_ceiling,
    trace_objective,
    weighted_error_gradients,
    weighted_value_error,
)
from .dynamics import (
    END_TO_END,
    KINDS,
    LINEAR_TD,
    METRIC_COLUMNS,
    TWO_TIME_SCALE,
    DynamicsSpec,
    FixedPointResidualError,
    IntegrationError,
    IntegratorConfig,
    Problem,
    SolverStats,
    TrajectoryLog,
    end_to_end,
    expected_semi_gradients,
    gradient_check,
    integrate,
    integrate_batch,
    linear_td,
    orthonormal_init,
    td_fixed_point,
    two_time_scale,
)

__version__ = "0.1.0"
