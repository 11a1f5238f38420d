"""Recursive cooling scheduler: reset phases, nested rounds, truncations.

A purification step at level j repeats ``ell`` times: run the level j-1
step on a sub-array, then compress its m output bits and push the kept
bits to the level-j array head. Level 0 is a single parallel reset
against the thermal row. The truncation ("keep the first m bits") is
bookkeeping only and emits no gates; a run records the observed purified
length at every truncation and never aborts, because the shared pulse
sequence cannot branch per molecule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional
import warnings

import numpy as np

from .analytic import CoolingPlan
from .circuit import (
    Annotation,
    Count,
    Cut,
    Marker,
    Register,
    Reset,
    Schedule,
    apply_gate,
)
from .compression import compile_bcs

__all__ = [
    "CoolingRun",
    "RoundRecord",
    "TruncationRecord",
    "compile_cooling",
    "run_cooling",
    "expected_length_after_round",
]


@dataclass(frozen=True)
class RoundRecord:
    """Purified length observed after one compression round."""

    level: int
    offset: int
    round_index: int  # 1-based within the level's ell rounds
    lengths: np.ndarray  # per molecule


@dataclass(frozen=True)
class TruncationRecord:
    """Purified length available when a level's output is truncated to m."""

    level: int
    offset: int
    required: int
    lengths: np.ndarray  # per molecule


@dataclass
class CoolingRun:
    plan: CoolingPlan
    schedule: Schedule
    round_log: list[RoundRecord]
    truncation_log: list[TruncationRecord]
    success: np.ndarray  # per molecule: every truncation had length >= m
    output_bits: np.ndarray  # (m, num_molecules) uint8
    steps_used: int


def expected_length_after_round(e_prev: float, m: int, k: int) -> float:
    """Expected purified length after k rounds feeding on bias e_prev."""
    if k < 1:
        raise ValueError("round index must be >= 1")
    return k * (1.0 + e_prev * e_prev) / 4.0 * m


def compile_cooling(plan: CoolingPlan) -> Schedule:
    """Compile the full recursive schedule for a plan, starting at offset 0.

    Every compression inside a level-j block pushes to that block's own
    start offset; the outermost pushes land at absolute position 0. The
    emitted schedule is fully data-independent and contains exactly
    ell^j_final reset phases.
    """
    if plan.ell == 4:
        warnings.warn(
            "cooling depth 4 gives a vacuous success bound; use 5 or more",
            stacklevel=2,
        )
    items: list = []
    _emit(items, plan.j_final, 0, plan)
    return Schedule(items)


def _emit(items: list, j: int, mu: int, plan: CoolingPlan) -> None:
    m, ell = plan.m, plan.ell
    if j == 0:
        items.append(Marker(f"phase: M_0 offset={mu}"))
        items.append(Reset(mu, m))
        return
    for depth in range(ell):
        items.append(Marker(f"phase: M_{j} depth={depth} offset={mu}"))
        _emit(items, j - 1, mu + depth * m // 2, plan)
        items.append(Marker(f"phase: BCS {j - 1}->{j}"))
        items.extend(compile_bcs(m, nu=mu + depth * m // 2, nu0=mu).items)
        items.append(Count(j, mu, depth + 1))
    items.append(Cut(j, mu, m))


def run_cooling(
    reg: Register,
    plan: CoolingPlan,
    schedule: Optional[Schedule] = None,
) -> CoolingRun:
    """Execute a compiled cooling schedule with per-molecule bookkeeping.

    Execution always runs to completion; molecules whose truncations fall
    short are flagged unsuccessful, not aborted. A position counts toward
    a purified length only if its purified flag is set; the ``Count`` or
    ``Cut`` names the level, and a failed comparison clears the flag, so
    lucky dirty bits never inflate the count.
    """
    if reg.n < plan.n_required:
        raise ValueError(
            f"register has {reg.n} bits; plan requires {plan.n_required}"
        )
    if schedule is None:
        schedule = compile_cooling(plan)

    window = plan.ell * plan.m // 2  # purified run cannot outgrow ell rounds
    round_log: list[RoundRecord] = []
    trunc_log: list[TruncationRecord] = []
    for item in schedule.items:
        if not isinstance(item, Annotation):
            apply_gate(reg, item)
        elif isinstance(item, Count):
            lengths = reg.purified_run_length(item.at, window)
            round_log.append(RoundRecord(item.level, item.at, item.round, lengths))
        elif isinstance(item, Cut):
            lengths = reg.purified_run_length(item.at, window)
            trunc_log.append(TruncationRecord(item.level, item.at, item.m, lengths))

    success = np.ones(reg.num_molecules, dtype=bool)
    for rec in trunc_log:
        success &= rec.lengths >= rec.required
    output_bits = reg.comp_bit_rows(0, plan.m)
    return CoolingRun(
        plan=plan,
        schedule=schedule,
        round_log=round_log,
        truncation_log=trunc_log,
        success=success,
        output_bits=output_bits,
        steps_used=schedule.step_total(),
    )
