"""Seeded Monte Carlo harness over molecule ensembles.

Every molecule draws its randomness (initial thermal bits plus all later
reset redraws) from its own counter-based substream keyed by the run
seed and the molecule index, so results are bit-identical no matter how
the batch is chunked. With ``threads > 1`` the chunks run in forked
worker processes, each folding its chunk to integer totals; the totals
are merged in fixed chunk order.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from functools import partial, reduce
from typing import Optional

import numpy as np

from .analytic import CoolingPlan, expected_keep_fraction
from .circuit import Count, Register, Schedule, _pack_rows
from .cooling import CoolingRun, compile_cooling, expected_length_after_round, run_cooling

__all__ = [
    "EnsembleStats",
    "DeviationReport",
    "run_ensemble",
    "compare_to_analytic",
    "sample_molecule",
]

#: Molecules per execution batch; results never depend on it or on threads.
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

    @classmethod
    def empty(cls, m: int, marks: tuple) -> "_Accumulator":
        """Sized for m output positions and a schedule's Count/Cut marks."""
        rounds = sum(isinstance(mark, Count) for mark in marks)
        return cls(*(np.zeros(k, dtype=np.int64) for k in (m, m, len(marks) - rounds, rounds)))

    def fold(self, run: CoolingRun) -> None:
        out = run.output_bits
        self.zero_counts += (out == 0).sum(axis=1)
        succ = run.success
        self.success_zero_counts += (out[:, succ] == 0).sum(axis=1)
        self.success_count += int(succ.sum())
        for i, (cut, lengths) in enumerate(run.truncation_log):
            self.trunc_length_sums[i] += lengths.sum()
            short = cut.m - lengths
            self.shortfalls.update(short[short > 0].tolist())
        for i, (_, lengths) in enumerate(run.round_log):
            self.round_length_sums[i] += lengths.sum()

    def merge(self, other: "_Accumulator") -> "_Accumulator":
        self.zero_counts += other.zero_counts
        self.success_zero_counts += other.success_zero_counts
        self.trunc_length_sums += other.trunc_length_sums
        self.round_length_sums += other.round_length_sums
        self.success_count += other.success_count
        self.shortfalls.update(other.shortfalls)
        return self


def _chunk_totals(
    plan: CoolingPlan, schedule: Schedule, seed: int, num_molecules: int, start: int
) -> _Accumulator:
    """Integer totals of molecules [start, start + CHUNK_SIZE). The reset
    rows and the accumulator's sizes are read from the schedule's census,
    counted once per run."""
    stop = min(start + CHUNK_SIZE, num_molecules)
    reg = _build_registers(
        plan.n_required, plan.epsilon0, seed, start, stop, schedule.reset_rows())
    acc = _Accumulator.empty(plan.m, schedule.census.marks)
    acc.fold(run_cooling(reg, plan, schedule))
    return acc


_worker_job: Optional[partial] = None  # one run's _chunk_totals, set in pool workers only


def _start_worker(job: partial) -> None:
    global _worker_job
    _worker_job = job


def _run_chunk(start: int) -> _Accumulator:
    return _worker_job(start)


def run_ensemble(
    plan: CoolingPlan,
    num_molecules: int,
    seed: int,
    *,
    threads: int = 1,
) -> EnsembleStats:
    """Run every molecule through the same compiled schedule and aggregate.

    Deterministic function of (plan, num_molecules, seed); ``threads`` never
    changes the result. It caps the worker processes, forked from a caller
    that should run no other threads, at one per chunk and per usable CPU.
    """
    if num_molecules < 1:
        raise ValueError("num_molecules must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    schedule = compile_cooling(plan)
    census = schedule.census  # counted here, so forked workers inherit it
    job = partial(_chunk_totals, plan, schedule, seed, num_molecules)
    starts = list(range(0, num_molecules, CHUNK_SIZE))
    if threads == 1 or len(starts) == 1:
        acc = reduce(_Accumulator.merge, map(job, starts))
    else:
        import multiprocessing  # only parallel runs pay for the import
        workers = min(threads, len(starts), len(os.sched_getaffinity(0)))
        ctx = multiprocessing.get_context("fork")  # workers inherit the job, never pickled
        with ctx.Pool(workers, initializer=_start_worker, initargs=(job,)) as pool:
            acc = reduce(_Accumulator.merge, pool.imap(_run_chunk, starts))  # chunk order

    zero_freq = acc.zero_counts / num_molecules
    s_freq = acc.success_zero_counts / acc.success_count if acc.success_count else None
    trunc_means = [s / num_molecules for s in acc.trunc_length_sums.tolist()]
    counts = [mark for mark in census.marks if isinstance(mark, Count)]
    round_means = [(c.level, c.round, s / num_molecules)
                   for c, s in zip(counts, acc.round_length_sums.tolist())]
    return EnsembleStats(
        num_molecules=num_molecules,
        seed=seed,
        per_position_zero_freq=zero_freq,
        empirical_bias=2.0 * zero_freq - 1.0,
        success_count=acc.success_count,
        success_zero_freq=s_freq,
        success_bias=None if s_freq is None else 2.0 * s_freq - 1.0,
        truncation_shortfall_histogram=dict(sorted(acc.shortfalls.items())),
        mean_purified_lengths=trunc_means,
        round_mean_lengths=round_means,
        steps_used=census.steps,
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
        keep = 2 * expected_keep_fraction(e_prev)  # per-pair keep probability
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
