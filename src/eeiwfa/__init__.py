"""Competitive energy-efficient power allocation in MIMO interference networks.

Library + CLI: per-player best responses (Dinkelbach ratio maximization and
eigen-waterfilling), Nash-equilibrium uniqueness criteria in variational-
inequality and contraction form, and a totally asynchronous iterative
waterfilling simulator with Monte-Carlo experiment drivers.
"""

from .errors import CheckFailure, ConvergenceError, InvalidInputError
from .linalg import (
    compact_svd,
    hermitian_evd,
    hermitize,
    pseudo_inverse,
    psd_trace_projection,
    realify,
    spectral_radius,
)
from .model import (
    NetworkScenario,
    ReducedScenario,
    StrategyProfile,
    energy_efficiency,
    generate_scenario,
    load_scenario,
    mui_covariance,
    rate,
    reduce_scenario,
    save_scenario,
    scenario_from_matrices,
    whitened_gram,
)
from .best_response import (
    BestResponseResult,
    DinkelbachConfig,
    best_response,
    projection_best_response,
)
from .equilibrium import (
    CriteriaReport,
    InterferenceMatrix,
    PowerSmoothnessConfig,
    criteria,
    estimate_power_smoothness,
    identity_channel_scenario,
    interference_matrix_rowrank,
    interference_matrix_sampled,
    interference_matrix_square,
    qvi_map,
    sqrtq_observed_ratio,
    verify_lipschitz,
    verify_monotonicity,
    verify_power_set_smoothness,
)
from .iwfa import (
    IwfaTrace,
    UpdateSchedule,
    block_max_distance,
    ne_residual,
    run_iwfa,
    write_trace_csv,
)

__version__ = "0.1.0"
