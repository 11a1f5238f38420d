"""Closed-form quantities for heat-bath algorithmic cooling.

Everything in this module is a pure function of scalar inputs: the bias
recursion and its iterates, compression yields, the entropy-preserving
(Shannon) yield bound, pseudo-pure-state signal strengths, resource and
success bounds for the recursive cooling algorithm, and the feasibility
table / timing checks built from them.

Polarization bias ``epsilon`` lives in [0, 1]; the associated error
probability is ``delta = (1 - epsilon) / 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

__all__ = [
    "CoolingPlan",
    "TimingModel",
    "FeasibilityRow",
    "TimingReport",
    "SuccessBound",
    "UnreachableTargetError",
    "UNFEASIBLE_THRESHOLD",
    "binary_entropy",
    "next_bias",
    "bias_schedule",
    "min_rounds",
    "expected_keep_fraction",
    "shannon_yield",
    "bcs_cascade_yield",
    "pps_signal",
    "required_input_bits",
    "step_bound",
    "truncation_count",
    "chernoff_failure",
    "success_lower_bound",
    "feasibility_table",
    "timing_feasibility",
]

#: Signal probabilities below this are treated as unobservable.
UNFEASIBLE_THRESHOLD = 1e-12

#: Iteration cap for min_rounds; past this the target is declared unreachable.
MAX_ROUNDS = 64


class UnreachableTargetError(ValueError):
    """The requested bias cannot be reached by iterating the recursion."""


def _check_eps(epsilon: float, name: str = "epsilon") -> float:
    epsilon = float(epsilon)
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {epsilon}")
    return epsilon


def binary_entropy(p: float) -> float:
    """Binary entropy H(p) in bits; endpoints return exactly 0."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def next_bias(e: float) -> float:
    """One round of pairwise compression: epsilon -> 2*epsilon/(1 + epsilon^2)."""
    eps = _check_eps(e)
    return 2.0 * eps / (1.0 + eps * eps)


def bias_schedule(epsilon0: float, j_final: int) -> list[float]:
    """Iterates [eps_0, eps_1, ..., eps_{j_final}] of the bias recursion."""
    if j_final < 0:
        raise ValueError("j_final must be >= 0")
    out = [_check_eps(epsilon0)]
    for _ in range(j_final):
        out.append(next_bias(out[-1]))
    return out


def min_rounds(epsilon0: float, epsilon_des: float) -> int:
    """Smallest j such that j iterations reach at least epsilon_des.

    Raises UnreachableTargetError when the target cannot be met (e.g.
    epsilon_des = 1 from any epsilon0 < 1, or pathological near-one
    targets needing more than MAX_ROUNDS iterations).
    """
    e0 = _check_eps(epsilon0)
    target = _check_eps(epsilon_des)
    if not 0.0 < e0 < 1.0:
        raise ValueError("epsilon0 must be in (0, 1)")
    if target == 1.0:
        # exact arithmetic never reaches 1 from below, even though float
        # iterates saturate there
        raise UnreachableTargetError(f"bias 1.0 not reachable from {e0}")
    e = e0
    for j in range(MAX_ROUNDS + 1):
        if e >= target:
            return j
        e = next_bias(e)
    raise UnreachableTargetError(
        f"bias {target} not reachable from {e0} within {MAX_ROUNDS} rounds"
    )


def expected_keep_fraction(e: float) -> float:
    """Expected fraction of input bits surviving one compression round."""
    eps = _check_eps(e)
    return (1.0 + eps * eps) / 4.0


def shannon_yield(n: int, epsilon0: float) -> float:
    """Entropy-preserving upper bound on purified bits: n*(1 - H(1/2 + eps/2))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    eps = _check_eps(epsilon0)
    return n * (1.0 - binary_entropy(0.5 + eps / 2.0))


def bcs_cascade_yield(n0: int, epsilon0: float, j_final: int) -> float:
    """Expected purified-bit count after j_final reset-free compression rounds.

    Telescopes the per-round keep fraction (1 + eps_j^2)/4; equal to the
    closed form n0 * eps_0 / (2^j * eps_j) when eps_0 > 0.
    """
    if j_final < 0:
        raise ValueError("j_final must be >= 0")
    count = float(n0)
    for eps in bias_schedule(epsilon0, j_final)[:-1]:
        count *= expected_keep_fraction(eps)
    return count


def pps_signal(e: float, n: int) -> float:
    """Pseudo-pure-state signal p = ((1 + eps)^n - 1) / (2^n - 1).

    Evaluated in log space so large n neither overflows nor underflows
    to a meaningless zero before the ratio is taken.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    eps = _check_eps(e)
    if eps == 0.0:
        return 0.0
    if eps == 1.0:
        return 1.0
    log_num_pow = n * math.log1p(eps)  # log (1+eps)^n
    # log((1+eps)^n - 1) = log_num_pow + log(1 - (1+eps)^-n)
    log_num = log_num_pow + math.log1p(-math.exp(-log_num_pow))
    log_den = n * math.log(2.0) + math.log1p(-(2.0 ** -n) if n < 1074 else 0.0)
    return math.exp(log_num - log_den)


class SuccessBound(NamedTuple):
    """A probability bound; a vacuous one carries no information."""

    probability: float
    vacuous: bool


def truncation_count(ell: int, j_final: int) -> int:
    """Number of hard truncations in a full run: (ell^j_f - 1) / (ell - 1)."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if j_final < 1:
        raise ValueError("j_final must be >= 1")
    return (ell ** j_final - 1) // (ell - 1)


def chernoff_failure(ell: int, m: int) -> SuccessBound:
    """Chernoff bound on one truncation failing: exp(-(ell-4)^2 m / (8 ell)).

    For ell <= 4 the exponent is zero (or the derivation invalid) and the
    bound is vacuous: returns probability 1 with the vacuous flag set.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if m < 1:
        raise ValueError("m must be >= 1")
    if ell <= 4:
        return SuccessBound(1.0, True)
    return SuccessBound(math.exp(-((ell - 4) ** 2) * m / (8.0 * ell)), False)


@dataclass(frozen=True)
class CoolingPlan:
    """Parameters of one full cooling run plus its derived resource bounds."""

    epsilon0: float
    m: int
    ell: int = 5
    j_final: int = 3

    def __post_init__(self) -> None:
        _check_eps(self.epsilon0, "epsilon0")
        if self.m <= 0 or self.m % 2 != 0:
            raise ValueError(f"m must be a positive even count, got {self.m}")
        if self.ell < 4:
            raise ValueError(f"ell must be >= 4, got {self.ell}")
        if self.j_final < 0:
            raise ValueError(f"j_final must be >= 0, got {self.j_final}")

    @property
    def bias_schedule(self) -> list[float]:
        return bias_schedule(self.epsilon0, self.j_final)

    @property
    def epsilon_final(self) -> float:
        return self.bias_schedule[-1]

    @property
    def n_required(self) -> int:
        return required_input_bits(self)

    @property
    def step_bound(self) -> int:
        return step_bound(self)

    @property
    def success_bound(self) -> SuccessBound:
        return success_lower_bound(self)


def required_input_bits(plan: CoolingPlan) -> int:
    """Input bits needed: ((ell - 1)/2 * j_final + 1) * m.

    Exact for even m; (ell - 1) * m / 2 is then always integral.
    """
    half = (plan.ell - 1) * plan.m  # even m makes this divisible by 2
    return (half // 2) * plan.j_final + plan.m


def step_bound(plan: CoolingPlan) -> int:
    """Operation-count bound m^2 * ell^(j_final + 1), as an exact integer."""
    return plan.m * plan.m * plan.ell ** (plan.j_final + 1)


def success_lower_bound(plan: CoolingPlan) -> SuccessBound:
    """Lower bound on all truncations succeeding.

    (1 - chernoff_failure)^truncation_count; vacuous (0 with flag) at
    ell = 4 where the Chernoff exponent collapses.
    """
    if plan.j_final == 0:
        return SuccessBound(1.0, False)
    fail = chernoff_failure(plan.ell, plan.m)
    count = truncation_count(plan.ell, plan.j_final)
    if fail.vacuous:
        return SuccessBound(0.0, True)
    # log-space power keeps tiny bounds (e.g. 2.85e-5) accurate
    return SuccessBound(math.exp(count * math.log1p(-fail.probability)), False)


@dataclass(frozen=True)
class FeasibilityRow:
    """One row of the feasibility table for a given (epsilon0, j_f)."""

    epsilon0: float
    j_f: int
    epsilon_f: float
    delta_f: float
    p_for_m: dict[int, float]
    threshold: float = UNFEASIBLE_THRESHOLD

    def feasible(self, m: int) -> bool:
        return self.p_for_m[m] >= self.threshold


TABLE_GRID = [(0.1, (0, 3, 4)), (0.01, (0, 6, 7))]
TABLE_M_VALUES = (20, 50, 200)


def feasibility_table(threshold: float = UNFEASIBLE_THRESHOLD) -> list[FeasibilityRow]:
    """Feasibility of an m-qubit ensemble computer after cooling.

    Rows cover epsilon0 in {0.1, 0.01} with their interesting round counts;
    the signal estimate is the scaling form p ~ (1 - delta_f)^m. Entries
    below ``threshold``, a probability in [0, 1], are reported as
    unfeasible by consumers.
    """
    threshold = _check_eps(threshold, "threshold")
    rows = []
    for e0, jfs in TABLE_GRID:
        for jf in jfs:
            ef = bias_schedule(e0, jf)[-1]
            df = (1.0 - ef) / 2.0
            p = {m: (1.0 - df) ** m for m in TABLE_M_VALUES}
            rows.append(FeasibilityRow(e0, jf, ef, df, p, threshold))
    return rows


@dataclass(frozen=True)
class TimingModel:
    """The three timing scales of an implementation, plus a safety margin.

    ``margin`` quantifies the strict-separation requirement between time
    scales: a check "a << b" passes when a * margin <= b. The default of 2
    keeps a modest safety factor while still reproducing the worked
    feasibility verdicts for both the 20-bit and 50-bit parameter sets.
    """

    t_switch: float
    t_rrtr: float
    t_comput: float
    margin: float = 2.0

    def __post_init__(self) -> None:
        # NaN fails every comparison and isfinite, so it is rejected too
        times = (self.t_switch, self.t_rrtr, self.t_comput)
        if not all(math.isfinite(t) and t > 0 for t in times):
            raise ValueError("all times must be finite and > 0")
        if not (math.isfinite(self.margin) and self.margin >= 1):
            raise ValueError("margin must be finite and >= 1")


@dataclass(frozen=True)
class TimingCheck:
    """One separation ``lhs <= rhs``; ``passed`` is derived from the two."""

    name: str
    description: str
    lhs: float
    rhs: float
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", self.lhs <= self.rhs)


@dataclass(frozen=True)
class TimingReport:
    checks: tuple[TimingCheck, ...]

    @property
    def feasible(self) -> bool:
        return all(c.passed for c in self.checks)


def timing_feasibility(timing: TimingModel, plan: CoolingPlan) -> TimingReport:
    """Check the three timing separations a physical run needs.

    (a) the whole schedule finishes before the computation bits relax;
    (b) a reset row re-thermalizes within one m^2-step compression block;
    (c) computation bits outlive all ell^(j_f+1) reset cycles.
    """
    steps = step_bound(plan)
    blocks = steps // (plan.m * plan.m)  # ell^(j_final + 1)
    mg = timing.margin
    checks = (
        TimingCheck(
            "schedule_fits_relaxation",
            "step_bound * t_switch << t_comput",
            steps * timing.t_switch * mg,
            timing.t_comput,
        ),
        TimingCheck(
            "reset_ready_for_reuse",
            "t_rrtr << m^2 * t_switch",
            timing.t_rrtr * mg,
            plan.m * plan.m * timing.t_switch,
        ),
        TimingCheck(
            "relaxation_outlives_resets",
            "t_comput >> (step_bound / m^2) * t_rrtr",
            blocks * timing.t_rrtr * mg,
            timing.t_comput,
        ),
    )
    return TimingReport(checks)
