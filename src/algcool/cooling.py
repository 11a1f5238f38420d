"""Recursive cooling scheduler: reset phases, nested rounds, truncations.

A purification step at level j repeats ``ell`` times: run the level j-1
step on a sub-array, then compress its m output bits and push the kept
bits to the level-j array head. Level 0 is a single parallel reset
against the thermal row, each of whose simulated bits is one Philox word
below one integer threshold. The truncation ("keep the first m bits") is
bookkeeping only and emits no gates; a run records the observed purified
length at every truncation and never aborts, because the shared pulse
sequence cannot branch per molecule. A vacuous success bound (ell = 4)
is data, ``plan.success_bound.vacuous``, and is never a warning.

The compiler walks the recursion block by block (``_walk``) and writes
each compression out as its gates: ``compile_cooling`` as gate objects,
``compile`` as their text. The run does not follow that order: it runs
level by level, every block of a level at once, each block a lane of one
wide register, and applies each compression fused (``apply_bcs``). Any
order that runs a block's children before the block gives every block
the same result, because

- every position is reset before it is read, so a RESET's rows are fixed
  stream rows: the RRTR row's last refill at that position, or its
  initial draw (``_reset_table``);
- a level-j block reads only rows it wrote: its children's outputs and
  its own purified prefix, each at its own offset;
- a compression parks unflagged supervisors from nu + m/2 on, so no
  purified run reaches past them into rows another block wrote.

The census of a plan, its step and reset counts and its ``Count``/``Cut``
marks in schedule order, comes from closed forms (``plan_census``); only
``compile_cooling`` builds the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import circuit
from .analytic import CoolingPlan, expected_keep_fraction
from .circuit import (
    Bcs,
    Count,
    Cut,
    Marker,
    Register,
    Reset,
    Schedule,
    apply_bcs,
)
from .compression import bcs_gates, compile_bcs

__all__ = [
    "Census",
    "CoolingRun",
    "compile_cooling",
    "plan_census",
    "run_cooling",
    "expected_length_after_round",
]

# The benchmark's tracer counts RESETs by patching this name; it stays
# until the engine reports its own counts (ROADMAP item 1).
apply_gate = circuit.apply_gate


class Census(NamedTuple):
    """The shape of a plan's schedule, which every run of the plan shares."""

    steps: int  # one per gate, a RESET of any width included
    resets: int  # RESET gates
    reset_rows: int  # fresh rows a run's RESETs draw from the thermal source
    marks: tuple[Count | Cut, ...]  # where rounds end and cuts fall, in order


@dataclass
class CoolingRun:
    """What one batch's run observed, as int bitsets over its
    ``num_molecules`` molecules (bit k is molecule k). The log holds one
    ``(rounds, cuts, runs)`` entry a level: the schedule indices of its
    blocks' ``Count`` marks (blocks, ell) and ``Cut`` marks (blocks,),
    each an index into ``plan_census(plan).marks``, and ``runs[d]``, the
    purified run after depth d in unary, as ``Register.purified_run_length``
    gives it, read on a register of lanes: lane b, bits [b * s, b * s +
    ``num_molecules``) for s = 8 * ``lane_bytes``, is block b's. A cut is
    its block's last round, ``runs[-1]``, since no gate comes between."""

    log: list[tuple[np.ndarray, np.ndarray, list[list[int]]]]
    success: int  # molecules whose every truncation had length >= m
    output_bits: list[int]  # the m output positions' bit rows
    num_molecules: int

    @property
    def lane_bytes(self) -> int:
        """A lane's width in the log: the batch rounded up to whole bytes."""
        return -(-self.num_molecules // 8)


def expected_length_after_round(e_prev: float, m: int, k: int) -> float:
    """Expected purified length after k rounds feeding on bias e_prev."""
    if k < 1:
        raise ValueError("round index must be >= 1")
    return k * expected_keep_fraction(e_prev) * m


def compile_cooling(plan: CoolingPlan) -> Schedule:
    """Compile the full recursive schedule for a plan, starting at offset 0.

    Every compression inside a level-j block pushes to that block's own
    start offset; the outermost pushes land at absolute position 0. The
    emitted schedule is fully data-independent and contains exactly
    ell^j_final reset phases: the plan's walk, each compression followed by
    its gates. Compression blocks of equal geometry are compiled once and
    recur as one shared block of the schedule, and RESETs of equal offset
    are kept once, so equal gates are one shared (immutable) object and the
    recursion is never flattened.
    """
    parts: list[tuple] = []  # the schedule's blocks, in order
    shapes: dict[tuple[int, int], tuple] = {}  # (nu, nu0) recurs across levels and phases
    for block in _walk(plan):
        parts.append(block)
        bcs = block[-1]
        if type(bcs) is Bcs:
            key = bcs.nu, bcs.nu0
            if key not in shapes:
                _, shapes[key] = compile_bcs(bcs.m, nu=bcs.nu, nu0=bcs.nu0).blocks  # its gates
            parts.append(shapes[key])
    return Schedule(*parts)


def _walk(plan: CoolingPlan) -> Iterator[tuple]:
    """The plan's recursion, walked once, in schedule order: every block of
    its schedule but the compressions' gates. A compression is its
    ``(Marker, Bcs)`` block, a reset phase its ``(Marker, Reset)`` block,
    and each ``Count`` or ``Cut`` a block of its own. ``compile_cooling``
    and ``compile`` read it; the run takes the same order from ``_lanes``
    in closed form. Each block is made as it is read; ``compile`` holds
    the walk, 621 blocks of 901 items on the headline, never its gates."""
    m, ell, resets = plan.m, plan.ell, {}

    def level(j: int, mu: int) -> Iterator[tuple]:
        if j == 0:  # one RESET per offset mu
            yield Marker(f"phase: M_0 offset={mu}"), resets.setdefault(mu, Reset(mu, m))
            return
        for depth in range(ell):
            yield (Marker(f"phase: M_{j} depth={depth} offset={mu}"),)
            nu = mu + depth * m // 2
            yield from level(j - 1, nu)
            yield Marker(f"phase: BCS {j - 1}->{j}"), Bcs(m, nu, mu)
            yield (Count(j, mu, depth + 1),)
        yield (Cut(j, mu, m),)

    yield from level(plan.j_final, 0)


def _lanes(plan: CoolingPlan) -> tuple[np.ndarray, list[tuple[np.ndarray, ...]]]:
    """The blocks of every level in walk order: the RESETs' offsets, and
    for j = 1..j_final each level-j block's offset and the schedule indices
    of its marks, its ell Counts (blocks, ell) and its Cut (blocks,).
    Child d of block b is block b * ell + d one level down, d * m/2
    further on, so a block's offset is m/2 times the sum of its base-ell
    digits. A block's marks follow each child's with the Count of that
    round, and end with its Cut, so a level-j block holds M_j = ell *
    (M_{j-1} + 1) + 1 marks, M_0 = 0."""
    ell, half, depth = plan.ell, plan.m // 2, np.arange(plan.ell)
    held = [0]  # M_j
    for _ in range(plan.j_final):
        held.append(ell * (held[-1] + 1) + 1)
    at = first = np.zeros(1, dtype=np.int64)  # the top block's offset and first mark
    levels = []
    for child in held[-2::-1]:  # M_{j-1}, from j = j_final down
        step = depth * (child + 1)
        levels.append((at, first[:, None] + step + child, first + ell * (child + 1)))
        at = (at[:, None] + depth * half).ravel()
        first = (first[:, None] + step).ravel()
    return at, levels[::-1]


def plan_census(plan: CoolingPlan) -> Census:
    """The plan's census from closed forms, with no schedule built: the
    gates, RESETs and marks ``compile_cooling(plan)`` emits. A compression
    ``Bcs(m, nu, nu0)`` takes ``bcs_gates(m, nu, nu0)`` gates, with
    L = nu - nu0 = d * m/2 at depth d, and each of the plan's
    ell^j_final RESETs one step and m rows. Each mark goes to its schedule
    index (``_lanes``), and equal marks are one object."""
    m, ell, half = plan.m, plan.ell, plan.m // 2
    offsets, levels = _lanes(plan)
    resets, blocks = len(offsets), sum(len(at) for at, _, _ in levels)
    per_block = sum(bcs_gates(m, d * half, 0) for d in range(ell))
    marks: list = [None] * (ell + 1) * blocks
    for j, (at, rounds, cuts) in enumerate(levels, 1):
        made: dict[int, list] = {}
        for mu, row, cut in zip(at.tolist(), rounds.tolist(), cuts.tolist()):
            if mu not in made:
                made[mu] = [Count(j, mu, k + 1) for k in range(ell)] + [Cut(j, mu, m)]
            for i, mark in zip(row + [cut], made[mu]):
                marks[i] = mark
    return Census(blocks * per_block + resets, resets, m * resets, tuple(marks))


def _reset_table(plan: CoolingPlan, offsets: np.ndarray) -> np.ndarray:
    """R, the rows each RESET of the walk swaps in, (resets, m), as indices
    into the draws past the computation rows: the RRTR row, then the reset
    rows. Every offset is a multiple of h = m/2, so RESET k, at offset mu =
    q * h, covers half-blocks q and q + 1 and refills half-block q + i with
    reset rows (2k + i) * h + [0, h). So each half-block a RESET takes is
    the refill of the last earlier RESET there, or else the initial RRTR
    rows at q * h: one stable sort of the 2 * resets half-blocks puts each
    after the one before it at the same place."""
    half, n = plan.m // 2, plan.n_required
    at = (offsets[:, None] // half + np.arange(2)).ravel()  # entry 2k + i: half-block q + i
    order = np.argsort(at, kind="stable")
    where = at[order]
    again = np.concatenate([[False], where[1:] == where[:-1]])  # not the first RESET there
    start = np.empty_like(at)
    start[order] = np.where(again, n + np.roll(order, 1) * half, where * half)
    return (start[:, None] + np.arange(half)).reshape(-1, plan.m)


def run_cooling(draws: np.ndarray, num_molecules: int, plan: CoolingPlan) -> CoolingRun:
    """Execute a plan's cooling with per-molecule bookkeeping, level by
    level.

    ``draws`` are a chunk's packed draws, as ``ensemble._build_registers``
    makes them: rows of ceil(``num_molecules`` / 8) bytes, bit k of byte
    k // 8 (least significant first) molecule k, with n computation rows,
    then the n-row RRTR row, then the plan's m * ell^j_final reset rows. A
    run never reads the computation rows, since each position is reset
    before it is read. Level 0 is one gather from ``draws[n:]``: the rows
    each RESET swaps in (``_reset_table``), all flagged. For j =
    1..j_final one register holds every level-j block at once, lane b the
    b-th in walk order, each lane the batch rounded up to whole bytes,
    whose padding is never flagged. At depth d it loads child d's m output
    rows, lanes b * ell + d of the level below, at d * m/2, compresses
    them to 0 (``apply_bcs``) and keeps the purified run there; the level
    is logged once, its cut the run after depth ell - 1. Lanes regroup
    between levels as numpy byte views.

    Execution always runs to completion; molecules whose truncations fall
    short are flagged unsuccessful, not aborted. A position counts toward
    a purified length only if its purified flag is set, and a failed
    comparison clears the flag, so lucky dirty bits never inflate the
    count.
    """
    m, ell, half, n = plan.m, plan.ell, plan.m // 2, plan.n_required
    (offsets, levels), width = _lanes(plan), -(-num_molecules // 8)
    resets, full = len(offsets), (1 << num_molecules) - 1
    shape = (2 * n + m * resets, width)
    if draws.shape != shape:
        raise ValueError(f"draws have shape {draws.shape}; the plan on {num_molecules} "
                         f"molecules needs {shape}")
    # each level's outputs: (m rows, bit and flag plane, lanes, bytes); at
    # level 0 every RESET's rows, each molecule flagged and no padding
    out = np.empty((m, 2, resets, width), dtype=np.uint8)
    out[:, 0] = draws[n:][_reset_table(plan, offsets).T]
    out[:, 1] = np.frombuffer(full.to_bytes(width, "little"), dtype=np.uint8)
    size, window = (ell + 1) * half, ell * half  # a block's span; a run's reach
    success, log = full, []
    for _, rounds, cuts in levels:
        lanes = len(cuts)
        level = Register.holding([0] * size, 8 * width * lanes)
        children, runs = out.reshape(m, 2, lanes, ell, width), []
        for d in range(ell):
            level.rows[d * half : d * half + m] = [
                int.from_bytes(row.tobytes(), "little") for row in children[:, :, :, d]]
            apply_bcs(level, Bcs(m, d * half, 0))
            runs.append(level.purified_run_length(0, window))
        log.append((rounds, cuts, runs))
        cut = runs[-1]  # no gate between the last round and the cut
        kept = cut[m - 1] if len(cut) >= m else 0  # entry m - 1: runs of length >= m
        held = np.frombuffer(kept.to_bytes(width * lanes, "little"), dtype=np.uint8)
        success &= int.from_bytes(  # molecules whose cut held in every lane
            np.bitwise_and.reduce(held.reshape(lanes, width)).tobytes(), "little")
        out = np.frombuffer(b"".join(row.to_bytes(2 * width * lanes, "little")
                                     for row in level.rows[:m]),
                            dtype=np.uint8).reshape(m, 2, lanes, width)
    return CoolingRun(
        log=log,
        success=success,
        output_bits=[int.from_bytes(row.tobytes(), "little") & full for row in out[:, 0, 0]],
        num_molecules=num_molecules,
    )
