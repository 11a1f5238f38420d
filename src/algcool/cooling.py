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
import warnings
from itertools import chain

import numpy as np

from .analytic import CoolingPlan, expected_keep_fraction
from .circuit import (
    Annotation,
    Count,
    Cut,
    GateError,
    Marker,
    Register,
    Reset,
    Schedule,
    apply_gate,
)
from .compression import compile_bcs

__all__ = [
    "CoolingRun",
    "compile_cooling",
    "run_cooling",
    "expected_length_after_round",
]


@dataclass
class CoolingRun:
    """What one batch's run observed; the plan and schedule it ran are the
    caller's, and its steps are the schedule's ``census.steps``. Each log
    entry is ``(mark, lengths)``: one of the schedule's own ``Count``
    (round log) or ``Cut`` (truncation log) marks, in schedule order, and
    the per-molecule purified length observed there."""

    round_log: list[tuple[Count, np.ndarray]]
    truncation_log: list[tuple[Cut, np.ndarray]]
    success: np.ndarray  # per molecule: every truncation had length >= m
    output_bits: np.ndarray  # (m, num_molecules) uint8


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
    ell^j_final reset phases. Compression blocks of equal geometry are
    compiled once, and RESETs of equal offset are kept once, so equal
    gates are one shared (immutable) object.
    """
    if plan.ell == 4:
        warnings.warn(
            "cooling depth 4 gives a vacuous success bound; use 5 or more",
            stacklevel=2,
        )
    parts: list[tuple] = []  # runs of items, joined into one tuple with no list copy
    _emit(parts, plan.j_final, 0, plan, {})
    return Schedule(tuple(chain.from_iterable(parts)))


def _emit(parts: list, j: int, mu: int, plan: CoolingPlan, blocks: dict) -> None:
    m, ell = plan.m, plan.ell
    if j == 0:  # one RESET per offset mu
        parts.append((Marker(f"phase: M_0 offset={mu}"), blocks.setdefault(mu, Reset(mu, m))))
        return
    for depth in range(ell):
        parts.append((Marker(f"phase: M_{j} depth={depth} offset={mu}"),))
        nu = mu + depth * m // 2
        _emit(parts, j - 1, nu, plan, blocks)
        parts.append((Marker(f"phase: BCS {j - 1}->{j}"),))
        if (nu, mu) not in blocks:  # (nu, nu0) recurs across levels and phases
            blocks[nu, mu] = compile_bcs(m, nu=nu, nu0=mu).items
        parts += (blocks[nu, mu], (Count(j, mu, depth + 1),))
    parts.append((Cut(j, mu, m),))


def run_cooling(reg: Register, plan: CoolingPlan, schedule: Schedule) -> CoolingRun:
    """Execute a compiled cooling schedule with per-molecule bookkeeping.

    Execution always runs to completion; molecules whose truncations fall
    short are flagged unsuccessful, not aborted. A position counts toward
    a purified length only if its purified flag is set; the ``Count`` or
    ``Cut`` names the level, and a failed comparison clears the flag, so
    lucky dirty bits never inflate the count. A ``Count`` or ``Cut`` mark
    naming positions outside the register raises ``GateError`` before any
    gate runs.
    """
    if reg.n < plan.n_required:
        raise ValueError(
            f"register has {reg.n} bits; plan requires {plan.n_required}"
        )
    for mark in schedule.census.marks:  # counted once; each gate is checked as it runs
        if mark.top >= reg.n:
            raise GateError(mark.check(reg.n))

    window = plan.ell * plan.m // 2  # purified run cannot outgrow ell rounds
    logs: dict[type, list] = {Count: [], Cut: []}
    for item in schedule.items:
        if not isinstance(item, Annotation):
            apply_gate(reg, item)
        elif isinstance(item, (Count, Cut)):
            logs[type(item)].append((item, reg.purified_run_length(item.at, window)))

    success = np.ones(reg.num_molecules, dtype=bool)
    for cut, lengths in logs[Cut]:
        success &= lengths >= cut.m
    output_bits = reg.comp_bit_rows(0, plan.m)
    return CoolingRun(
        round_log=logs[Count],
        truncation_log=logs[Cut],
        success=success,
        output_bits=output_bits,
    )
