"""Stability toolkit for integral delay systems with multiple delays.

Builds and solves the LMI and spectral stability conditions for systems
x(t) = sum_i A_i * integral over [-tau_i, 0] of x(t+s) ds, converts
witnesses between equivalent conditions, searches delay margins by
bisection (from a closed-form boundary where the criterion is equivalent to
the spectral test), and cross-validates verdicts with a time-domain simulator.
"""

from .model import (
    DiscreteIds,
    IdsSystem,
    ParseError,
    ValidationError,
    benchmark_system,
    load_system,
    save_system,
    validate_system,
)
from .lmi_core import (
    AffineBlock,
    BlockTerm,
    FeasReport,
    LmiProblem,
    MatrixVariable,
    SolverConfig,
    check_witness,
    evaluate,
    linearize_inverse_bound,
    solve_feasibility,
)
from .criteria_lmi import (
    build_amc,
    build_laa,
    build_single,
    build_th1,
    build_th2_coupled,
    build_th2_lmi,
    laa_convert_X_to_Q,
    recover_nmi_th1,
    th2_functional_params,
    verify_nmi_th1,
    verify_nmi_th2,
    witness_th1_from_th2,
    witness_th1_from_th2coupled,
)
from .criteria_spectral import (
    SpectralVerdict,
    check_spectral,
    check_spectral_weighted,
    kron,
    kron_operator,
    laa_spectral,
    operator_block,
    optimize_weights,
    single_delay_checks,
    spectral_margin,
    spectral_radius,
)
from .jensen import (
    SampledFunction,
    gap_continuous,
    gap_shared_weight,
    gap_discrete,
    gap_discrete_multi,
    gap_multiple,
)
from .simulator import (
    FunctionalWitness,
    HistorySpec,
    Trajectory,
    estimate_decay,
    eval_functional,
    export_csv,
    make_compatible,
    simulate,
)
from .margin import (
    CRITERIA,
    bisect_margin,
    criterion_feasible,
    evaluate_criterion,
    table1,
)

__version__ = "0.1.0"
