"""Analytics and Monte Carlo simulation of heat-bath algorithmic cooling.

The package splits into closed-form analytics (:mod:`algcool.analytic`),
a reversible-gate register engine (:mod:`algcool.circuit`), the basic
compression subroutine (:mod:`algcool.compression`), the recursive
cooling scheduler (:mod:`algcool.cooling`), a seeded ensemble harness
(:mod:`algcool.ensemble`), and a CLI front end (:mod:`algcool.cli`).
"""

from .analytic import (
    Bias,
    CoolingPlan,
    FeasibilityRow,
    SuccessBound,
    TimingModel,
    TimingReport,
    UnreachableTargetError,
    UNFEASIBLE_THRESHOLD,
    bcs_cascade_yield,
    bias_schedule,
    binary_entropy,
    chernoff_failure,
    expected_keep_fraction,
    feasibility_table,
    min_rounds,
    next_bias,
    pps_decompose,
    pps_signal,
    required_input_bits,
    shannon_yield,
    step_bound,
    success_lower_bound,
    timing_feasibility,
    truncation_count,
)
from .circuit import (
    Bcs,
    Census,
    Cnot,
    Count,
    Cut,
    GateError,
    Marker,
    Register,
    Reset,
    Schedule,
    Swap,
    ZcSwap,
    apply_gate,
    run_schedule,
    schedule_from_text,
    schedule_to_text,
    validate_schedule,
)
from .compression import BcsOutcome, compile_bcs, reference_bcs, run_bcs
from .cooling import (
    CoolingRun,
    compile_cooling,
    expected_length_after_round,
    run_cooling,
)
from .ensemble import (
    DeviationReport,
    EnsembleStats,
    compare_to_analytic,
    run_ensemble,
    sample_molecule,
)

__version__ = "0.1.0"
