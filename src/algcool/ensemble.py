"""Seeded Monte Carlo harness over molecule ensembles.

Every molecule draws its randomness (initial thermal bits plus all later
reset redraws) from its own counter-based substream keyed by the run
seed and the molecule index, so results are bit-identical no matter how
the batch is chunked or how many threads process the chunks. All
aggregation is integer sums, reduced in fixed chunk order.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .analytic import CoolingPlan
from .circuit import Count, Cut, Register, _pack_rows
from .cooling import CoolingRun, compile_cooling, expected_length_after_round, run_cooling

__all__ = [
    "EnsembleStats",
    "DeviationReport",
    "run_ensemble",
    "compare_to_analytic",
    "sample_molecule",
]

#: Molecules per execution batch; fixed so results never depend on threads.
CHUNK_SIZE = 16384


def _molecule_bits(seed: int, index: int, rows: int, p_one: float) -> np.ndarray:
    """The molecule's full random bit budget from its private substream."""
    ss = np.random.SeedSequence(seed, spawn_key=(index,))
    gen = np.random.Generator(np.random.Philox(ss))
    return gen.random(rows) < p_one


def _build_registers(
    n: int, epsilon0: float, seed: int, start: int, stop: int, reset_rows: int
) -> Register:
    """A batched register for molecules [start, stop)."""
    count = stop - start
    p_one = (1.0 - epsilon0) / 2.0
    rows = 2 * n + reset_rows
    bits = np.empty((rows, count), dtype=bool)
    for i in range(count):
        bits[:, i] = _molecule_bits(seed, start + i, rows, p_one)
    packed = _pack_rows(bits)
    return Register(packed[:n], packed[n : 2 * n], count, reset_pool=packed[2 * n :])


def sample_molecule(
    n: int, epsilon0: float, seed: int, index: int, reset_rows: int = 0
) -> Register:
    """One molecule's register, drawn from its (seed, index) substream."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= epsilon0 <= 1.0:
        raise ValueError("epsilon0 must be in [0, 1]")
    return _build_registers(n, epsilon0, seed, index, index + 1, reset_rows)


@dataclass
class EnsembleStats:
    """Order-independent aggregates of many molecules through one plan."""

    num_molecules: int
    seed: int
    per_position_zero_freq: np.ndarray  # first m positions, all molecules
    empirical_bias: np.ndarray  # 2*freq - 1
    success_count: int
    success_zero_freq: Optional[np.ndarray]  # conditioned on success
    success_bias: Optional[np.ndarray]
    truncation_shortfall_histogram: dict[int, int]  # (m - L) for failed truncations
    mean_purified_lengths: list[float]  # per truncation index, schedule order
    round_mean_lengths: list[tuple[int, int, float]]  # (level, round, mean)
    steps_used: int

    @property
    def success_rate(self) -> float:
        return self.success_count / self.num_molecules


@dataclass
class _Accumulator:
    zero_counts: np.ndarray
    success_zero_counts: np.ndarray
    trunc_length_sums: np.ndarray  # per truncation, schedule order
    round_length_sums: np.ndarray  # per compression round, schedule order
    success_count: int = 0
    shortfalls: Counter = field(default_factory=Counter)

    def fold(self, run: CoolingRun) -> None:
        out = run.output_bits
        self.zero_counts += (out == 0).sum(axis=1)
        succ = run.success
        self.success_zero_counts += (out[:, succ] == 0).sum(axis=1)
        self.success_count += int(succ.sum())
        for i, rec in enumerate(run.truncation_log):
            self.trunc_length_sums[i] += rec.lengths.sum()
            short = rec.required - rec.lengths
            for s in short[short > 0]:
                self.shortfalls[int(s)] += 1
        for i, rec in enumerate(run.round_log):
            self.round_length_sums[i] += rec.lengths.sum()


def run_ensemble(
    plan: CoolingPlan,
    num_molecules: int,
    seed: int,
    *,
    threads: int = 1,
) -> EnsembleStats:
    """Run every molecule through the same compiled schedule and aggregate.

    Deterministic function of (plan, num_molecules, seed): the thread
    count only changes how chunks are scheduled, never the result.
    """
    if num_molecules < 1:
        raise ValueError("num_molecules must be >= 1")
    schedule = compile_cooling(plan)
    reset_rows = schedule.reset_rows()
    n = plan.n_required

    starts = list(range(0, num_molecules, CHUNK_SIZE))

    def work(start: int) -> CoolingRun:
        stop = min(start + CHUNK_SIZE, num_molecules)
        reg = _build_registers(n, plan.epsilon0, seed, start, stop, reset_rows)
        return run_cooling(reg, plan, schedule)

    # the schedule, not the run, fixes where rounds end and truncations fall
    rounds = [(it.level, it.round) for it in schedule.items if isinstance(it, Count)]
    cuts = sum(isinstance(it, Cut) for it in schedule.items)
    acc = _Accumulator(
        zero_counts=np.zeros(plan.m, dtype=np.int64),
        success_zero_counts=np.zeros(plan.m, dtype=np.int64),
        trunc_length_sums=np.zeros(cuts, dtype=np.int64),
        round_length_sums=np.zeros(len(rounds), dtype=np.int64),
    )
    if threads <= 1 or len(starts) == 1:
        for s in starts:
            acc.fold(work(s))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for run in pool.map(work, starts):  # map preserves chunk order
                acc.fold(run)

    zero_freq = acc.zero_counts / num_molecules
    if acc.success_count > 0:
        s_freq = acc.success_zero_counts / acc.success_count
        s_bias = 2.0 * s_freq - 1.0
    else:
        s_freq = None
        s_bias = None
    trunc_means = [s / num_molecules for s in acc.trunc_length_sums.tolist()]
    round_means = [
        (lvl, rnd, s / num_molecules)
        for (lvl, rnd), s in zip(rounds, acc.round_length_sums.tolist())
    ]
    return EnsembleStats(
        num_molecules=num_molecules,
        seed=seed,
        per_position_zero_freq=zero_freq,
        empirical_bias=2.0 * zero_freq - 1.0,
        success_count=acc.success_count,
        success_zero_freq=s_freq,
        success_bias=s_bias,
        truncation_shortfall_histogram=dict(sorted(acc.shortfalls.items())),
        mean_purified_lengths=trunc_means,
        round_mean_lengths=round_means,
        steps_used=schedule.step_total(),
    )


@dataclass(frozen=True)
class RoundDeviation:
    level: int
    round_index: int
    observed_mean: float
    expected_mean: float
    z_score: float


@dataclass
class DeviationReport:
    """Empirical aggregates vs. their closed-form predictions."""

    position_z_scores: Optional[np.ndarray]  # success-conditioned bias vs final bias
    success_rate: float
    success_lower_bound: float
    bound_vacuous: bool
    success_margin_sigmas: float  # (rate - bound) in binomial sigmas; >= 0 expected
    rounds: list[RoundDeviation]

    @property
    def success_consistent(self) -> bool:
        return self.bound_vacuous or self.success_margin_sigmas >= -4.0


def compare_to_analytic(stats: EnsembleStats, plan: CoolingPlan) -> DeviationReport:
    """Score the ensemble against the closed-form predictions of the plan.

    Round-length z-scores treat each round's purified length as a sum of
    independent keep/discard trials at the level's nominal bias; this is
    exact for first-level rounds and a good approximation above once the
    failure rate is small.
    """
    n_mol = stats.num_molecules
    final_eps = plan.epsilon_final
    p_zero = (1.0 + final_eps) / 2.0

    if stats.success_zero_freq is not None and stats.success_count > 0:
        denom = np.sqrt(p_zero * (1.0 - p_zero) / stats.success_count)
        if denom > 0:
            pos_z = (stats.success_zero_freq - p_zero) / denom
        else:
            pos_z = np.zeros_like(stats.success_zero_freq)
    else:
        pos_z = None

    bound = plan.success_bound
    if bound.vacuous:
        margin = 0.0
    elif bound.probability in (0.0, 1.0):
        margin = 0.0 if stats.success_rate >= bound.probability else float("-inf")
    else:
        sigma = np.sqrt(bound.probability * (1.0 - bound.probability) / n_mol)
        margin = (stats.success_rate - bound.probability) / sigma

    sched = plan.bias_schedule
    rounds = []
    for (level, k, observed) in stats.round_mean_lengths:
        e_prev = sched[level - 1]
        expected = expected_length_after_round(e_prev, plan.m, k)
        keep = (1.0 + e_prev * e_prev) / 2.0  # per-pair keep probability
        var_one = k * (plan.m / 2.0) * keep * (1.0 - keep)
        sigma = np.sqrt(var_one / n_mol)
        z = (observed - expected) / sigma if sigma > 0 else 0.0
        rounds.append(RoundDeviation(level, k, observed, expected, z))

    return DeviationReport(
        position_z_scores=pos_z,
        success_rate=stats.success_rate,
        success_lower_bound=bound.probability,
        bound_vacuous=bound.vacuous,
        success_margin_sigmas=float(margin),
        rounds=rounds,
    )
