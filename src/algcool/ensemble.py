"""Seeded Monte Carlo harness over molecule ensembles.

Every molecule draws its randomness (initial thermal bits plus all later
reset redraws) from its own counter-based substream keyed by the run
seed and the molecule index, so results are bit-identical no matter how
the batch is chunked. The substream is numpy's Philox keyed by
``SeedSequence(seed, spawn_key=(index,))``: a chunk derives all its keys
in one vectorised pass over SeedSequence's hash and re-keys a single
Philox generator per molecule (Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3", SC 2011). A drawn bit is one Philox word compared
with one integer threshold. With ``threads > 1`` the chunks are dealt
round-robin to children made by ``os.fork()``. Each folds its chunks into
one integer total and pickles it into its own pipe; the parent reads every
pipe, reaps every child and sums the totals in any order. A worker that
dies without reporting raises in the parent.
"""

from __future__ import annotations

import math
import operator
import os
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import partial, reduce
from typing import Callable, Iterator, Optional

import numpy as np

from .analytic import CoolingPlan, expected_keep_fraction
from . import cooling
from .circuit import Count, Cut
from .cooling import Census, CoolingRun, expected_length_after_round, plan_census, run_cooling

__all__ = [
    "EnsembleStats",
    "DeviationReport",
    "run_ensemble",
    "compare_to_analytic",
]

#: Molecules per execution batch; results never depend on it or on threads.
CHUNK_SIZE = 16384

#: Molecules drawn as bools before they are packed, so a chunk's draws are
#: never all held as bools; a multiple of 8, so each block packs to whole bytes.
_DRAW_BLOCK = 64


#: The benchmark's tracer times the census compile by patching this name;
#: it stays until the engine reports its own counts (ROADMAP item 1).
compile_cooling = cooling.compile_cooling

_POPCOUNT = np.array([bin(byte).count("1") for byte in range(256)], dtype=np.uint8)

_MASK32 = 0xFFFFFFFF
# numpy.random.SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _words(x: int) -> list[int]:
    """A non-negative int's 32-bit words, low first, as SeedSequence splits it."""
    return [(x >> s) & _MASK32 for s in range(0, max(x.bit_length(), 1), 32)]


def _hash_constants(init: int, mult: int) -> Iterator[tuple[np.uint32, np.uint32]]:
    """SeedSequence's running hash constant, as the (xor, multiplier) pair
    of each successive hash; it never depends on the data hashed."""
    while True:
        nxt = init * mult & _MASK32
        yield np.uint32(init), np.uint32(nxt)
        init = nxt


def _hash(value: np.ndarray, constants: Iterator[tuple[np.uint32, np.uint32]]) -> np.ndarray:
    xor, mult = next(constants)
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


def _philox_keys(seed: int, start: int, stop: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(i,)).generate_state(2, np.uint64)``
    for every i in [start, stop), as uint64 (molecules, 2), in one uint32
    pass: numpy's hash, mix and output steps run over all molecules at once.

    The entropy is the seed's words padded to the pool size of 4, then the
    index's words. Only the index's low word differs between molecules of
    a range that stays below one multiple of 2**32, and it comes after the
    pool, so the pool is hashed and cross-mixed once for the range. A
    chunk starts at a multiple of ``CHUNK_SIZE``, which divides 2**32, so
    no chunk, and no single molecule, straddles one; a range that does
    is an error."""
    seed = operator.index(seed)
    if seed < 0 or start < 0:
        raise ValueError("seed and molecule index must be non-negative")
    if start >> 32 != (stop - 1) >> 32:
        raise ValueError("molecule indices straddle a multiple of 2**32")
    full = partial(np.full, 1, dtype=np.uint32)  # a word every molecule shares
    entropy = _words(seed)
    entropy += [0] * (4 - len(entropy))
    consts = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hash(full(w), consts) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], consts))
    low = np.arange(stop - start, dtype=np.uint32) + np.uint32(start & _MASK32)
    # the seed's words past the pool, the index's low word, its high words
    for word in [*map(full, entropy[4:]), low, *map(full, _words(start)[1:])]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hash(word, consts))
    consts = _hash_constants(_INIT_B, _MULT_B)
    state = [_hash(word, consts).astype(np.uint64) for word in pool]
    return np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)], axis=1)


def _molecule_bits(philox: np.random.Philox, key: np.ndarray, threshold: np.uint64,
                   out: np.ndarray) -> None:
    """Fill ``out`` with the molecule's full random bit budget: ``philox``
    re-keyed to the molecule's substream, at counter zero, exactly as
    ``Philox(SeedSequence(seed, spawn_key=(index,)))`` starts. A bit is 1
    when its word w is below ``threshold``, ``ceil(p * 2**53) << 11`` for
    p = (1 - epsilon0) / 2: just when numpy's ``(w >> 11) * 2**-53 < p``."""
    philox.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    np.less(philox.random_raw(len(out)), threshold, out=out)


def _pack_rows(packed: np.ndarray) -> Iterator[int]:
    """Byte rows (rows, bytes), as ``np.packbits(..., bitorder="little")``
    packs each row's molecules, as one int bitset a row, made as it is
    read: bit k is molecule k. No run calls it, since a run reads its
    packed draws itself; it stays for the benchmark's tracer, which
    patches it, until the engine reports its own counts (ROADMAP item 1)."""
    return (int.from_bytes(row, "little") for row in packed)


def _build_registers(
    n: int, epsilon0: float, seed: int, start: int, stop: int, reset_rows: int
) -> np.ndarray:
    """The packed draws of molecules [start, stop), as ``run_cooling``
    reads them: uint8 (2n + ``reset_rows``, ceil(molecules / 8)), bit k of
    byte k // 8 (least significant first) molecule k. Each molecule's
    draws, in order, are its n computation bits, its n-bit initial RRTR
    row, then ``reset_rows`` more for the RESETs. The chunk's keys come
    from one vectorised pass, and one Philox generator is re-keyed per
    molecule. Molecules are drawn ``_DRAW_BLOCK`` at a time, each into a
    column of one bool block, and packed to byte rows as they go. The name
    stays for the benchmark's tracer, which patches it and reads its
    arguments, until the engine reports its own counts (ROADMAP item 1)."""
    count = stop - start
    threshold = np.uint64(math.ceil((1.0 - epsilon0) / 2.0 * 2**53) << 11)
    rows = 2 * n + reset_rows
    philox = np.random.Philox(0)
    keys = _philox_keys(seed, start, stop)
    packed = np.empty((rows, (count + 7) // 8), dtype=np.uint8)
    bits = np.empty((rows, min(count, _DRAW_BLOCK)), dtype=bool)  # one molecule a column
    for b in range(0, count, _DRAW_BLOCK):  # the last block may be narrower
        block = bits[:, : min(_DRAW_BLOCK, count - b)]
        for i, key in enumerate(keys[b : b + _DRAW_BLOCK]):
            _molecule_bits(philox, key, threshold, block[:, i])
        packed[:, b // 8 : (b + _DRAW_BLOCK) // 8] = np.packbits(block, axis=1, bitorder="little")
    return packed


def _lane_length_sums(at_least: list[int], lanes: int, width: int) -> np.ndarray:
    """Each lane's sum of run lengths, from runs in unary over ``lanes``
    lanes of ``width`` bytes. The entries nest, so entry i - 1 less entry
    i holds the runs of length exactly i; those make the lengths' binary
    digits, and each digit is counted per lane, a byte at a time."""
    digits = [0] * len(at_least).bit_length()
    for length, (longer, beyond) in enumerate(zip(at_least, at_least[1:] + [0]), 1):
        for t in range(length.bit_length()):
            if length >> t & 1:
                digits[t] |= longer ^ beyond
    raw = b"".join(digit.to_bytes(lanes * width, "little") for digit in digits)
    counts = _POPCOUNT[np.frombuffer(raw, dtype=np.uint8).reshape(-1, lanes, width)]
    return counts.sum(axis=2, dtype=np.int64).T @ (1 << np.arange(len(digits), dtype=np.int64))


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
    length_sums: np.ndarray  # per Count or Cut mark, schedule order
    success_count: int = 0
    shortfalls: Counter = field(default_factory=Counter)

    @classmethod
    def empty(cls, m: int, marks: tuple) -> "_Accumulator":
        """Sized for m output positions and a schedule's Count/Cut marks."""
        return cls(*(np.zeros(k, dtype=np.int64) for k in (m, m, len(marks))))

    def fold(self, run: CoolingRun) -> None:
        """Add one run's totals, each counted as popcounts of its bitsets.
        Entry i of a unary run holds the molecules whose length exceeds i.
        Each lane's length sum goes to its own mark (``_lane_length_sums``).
        Only a ``Cut`` adds shortfalls, summed over its lanes, so they are
        counted from the popcounts of its whole entries."""
        w, succ = run.num_molecules, run.success
        zeros = [((1 << w) - 1) ^ row for row in run.output_bits]
        self.zero_counts += [z.bit_count() for z in zeros]
        self.success_zero_counts += [(z & succ).bit_count() for z in zeros]
        self.success_count += succ.bit_count()
        for index, at_least in run.log:
            self.length_sums[index] += _lane_length_sums(at_least, len(index), run.lane_bytes)
            mark = run.marks[index[0]]
            if type(mark) is Cut:
                longer = [p.bit_count() for p in at_least[: mark.m]]  # entry k: length > k
                ge = [len(index) * w, *longer] + [0] * (mark.m - len(longer))  # >= k
                self.shortfalls.update({mark.m - k: ge[k] - ge[k + 1]  # molecules of length k
                                        for k in range(mark.m) if ge[k] > ge[k + 1]})

    def merge(self, other: "_Accumulator") -> "_Accumulator":
        """The field-wise sum of int64 arrays, ints and ``Counter``s, exact
        in any order. ``Counter + Counter`` keeps only positive counts, and
        ``fold`` stores no other."""
        return _Accumulator(*(getattr(self, f.name) + getattr(other, f.name)
                              for f in fields(self)))


def _share_totals(
    plan: CoolingPlan, census: Census, seed: int, num_molecules: int, starts: list[int]
) -> _Accumulator:
    """Integer totals of molecules [start, start + CHUNK_SIZE) over all
    ``starts``, one chunk's draws at a time. The reset rows and the
    accumulator's sizes are read from the census, counted once per run."""
    acc = _Accumulator.empty(plan.m, census.marks)
    for start in starts:
        stop = min(start + CHUNK_SIZE, num_molecules)
        draws = _build_registers(plan.n_required, plan.epsilon0, seed, start, stop,
                                 census.reset_rows)
        acc.fold(run_cooling(draws, stop - start, plan))
    return acc


def _fork_workers(job: Callable[[list[int]], _Accumulator],
                  shares: list[list[int]]) -> list[_Accumulator]:
    """``job(share)`` for each share, run in a child made by ``os.fork()``
    and listed as the children report. The child pickles its total, or the
    exception it raised with its traceback as text, into its own pipe and
    leaves by ``os._exit``, so nothing the parent holds is flushed or
    finalised twice. The parent closes each pipe's write end before the
    next fork, reads each pipe to EOF as soon as it turns readable and
    then reaps its child. A child that ended without a report, as an OOM
    kill ends it, raises ``ChildProcessError`` naming how it ended, without
    waiting for the others. On any error the children still left are
    killed and reaped."""
    import pickle  # only parallel runs pay for the imports
    import select
    import signal
    if not hasattr(os, "fork"):
        raise ValueError("threads > 1 needs os.fork, which this platform lacks")
    pipes, children, reports = [], {}, []  # read ends in fork order; read end -> pid, until reaped
    try:
        for share in shares:
            read, write = os.pipe()
            pipes.append(open(read, "rb", buffering=0))
            with open(write, "wb") as out:
                pid = os.fork()
                if pid == 0:
                    status = 1  # the report was not written
                    try:
                        try:
                            report = job(share), None
                        except BaseException as exc:  # raised again by the parent
                            import traceback
                            report = None, (exc, traceback.format_exc())
                        pickle.dump(report, out)
                        out.flush()
                        status = 0
                    finally:
                        os._exit(status)
            children[pipes[-1]] = pid
        while children:
            for pipe in select.select(list(children), [], [])[0]:
                data = pipe.readall()  # the child is writing its report, or is gone
                code = os.waitstatus_to_exitcode(os.waitpid(children[pipe], 0)[1])
                pid = children.pop(pipe)
                if code:
                    how = f"signal {-code}" if code < 0 else f"exit status {code}"
                    raise ChildProcessError(f"worker process {pid} ended without a report: {how}")
                total, failure = pickle.loads(data)
                if failure:
                    exc, trace = failure
                    raise exc from RuntimeError(f"in worker process {pid}:\n{trace}")
                reports.append(total)
        return reports
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_ensemble(
    plan: CoolingPlan,
    num_molecules: int,
    seed: int,
    *,
    threads: int = 1,
) -> EnsembleStats:
    """Run every molecule through the plan's cooling and aggregate.

    Deterministic function of (plan, num_molecules, seed); ``threads`` never
    changes the result. It caps the worker processes, forked from a caller
    that should run no other threads, at one per chunk and per usable CPU;
    worker w folds chunks w, w + workers, ... into one total and reports it
    through a pipe (``_fork_workers``), and the totals are summed in the
    order they arrive. A worker's exception is raised again here, and a
    worker that dies without a report raises ``ChildProcessError``. The
    census (steps, reset rows, marks) comes from closed forms once per run
    (``plan_census``); nothing is compiled.
    """
    if num_molecules < 1:
        raise ValueError("num_molecules must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    census = plan_census(plan)
    job = partial(_share_totals, plan, census, seed, num_molecules)
    starts = list(range(0, num_molecules, CHUNK_SIZE))
    if threads == 1 or len(starts) == 1:
        acc = job(starts)
    else:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
        workers = min(threads, len(starts), cpus or os.cpu_count() or 1)  # macOS: no affinity
        acc = reduce(_Accumulator.merge,
                     _fork_workers(job, [starts[w::workers] for w in range(workers)]))

    zero_freq = acc.zero_counts / num_molecules
    s_freq = acc.success_zero_counts / acc.success_count if acc.success_count else None
    means = [(mark, s / num_molecules) for mark, s in zip(census.marks, acc.length_sums.tolist())]
    trunc_means = [mean for mark, mean in means if type(mark) is Cut]
    round_means = [(c.level, c.round, mean) for c, mean in means if type(c) is Count]
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
    round: int
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

    A round's z-score scores its mean purified length, over all molecules,
    against k * m/2 independent keep/discard pair trials at the level's
    nominal bias. At level 1 that law is exact: every operand is a fresh,
    flagged thermal bit. Above it the mean is unconditional and ignores
    earlier short cuts: a short cut at the level below leaves unflagged
    bits among the operands, and an equal pair of them, still escorted to
    the head, ends the purified run there. Higher-level z-scores so read
    low on a correct engine; the acceptance plan (0.1, 20, 5, 2) at 20,000
    molecules, seed 1, reads level-2 z down to about -90.
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

    bound = plan.success_bound  # a vacuous one is 0.0, which every rate meets
    if bound.probability in (0.0, 1.0):
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
        sigma = math.sqrt(var_one / n_mol)
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
