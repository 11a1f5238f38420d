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

The compiler and the run share one walk of the recursion (``_walk``).
The compiler writes each compression out as its gates, which the text
format carries; the run applies it fused (``apply_bcs``).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """What one batch's run observed, as int bitsets over its
    ``num_molecules`` molecules (bit k is molecule k). The log holds one
    ``(mark, at_least)`` entry for each of the plan's ``Count`` and ``Cut``
    marks, in schedule order: the mark and the purified run there in
    unary, as ``Register.purified_run_length`` gives it."""

    log: list[tuple[Count | Cut, list[int]]]
    success: int  # molecules whose every truncation had length >= m
    output_bits: list[int]  # the m output positions' bit rows
    num_molecules: int


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


def _walk(plan: CoolingPlan) -> list[tuple]:
    """The plan's recursion, walked once, in schedule order: every block of
    its schedule but the compressions' gates. A compression is its
    ``(Marker, Bcs)`` block, a reset phase its ``(Marker, Reset)`` block,
    and each ``Count`` or ``Cut`` a block of its own. ``compile_cooling``
    and ``run_cooling`` both read it, so the order is written once."""
    m, ell, resets, blocks = plan.m, plan.ell, {}, []

    def level(j: int, mu: int) -> None:
        if j == 0:  # one RESET per offset mu
            reset = resets.setdefault(mu, Reset(mu, m))
            blocks.append((Marker(f"phase: M_0 offset={mu}"), reset))
            return
        for depth in range(ell):
            blocks.append((Marker(f"phase: M_{j} depth={depth} offset={mu}"),))
            nu = mu + depth * m // 2
            level(j - 1, nu)
            blocks.append((Marker(f"phase: BCS {j - 1}->{j}"), Bcs(m, nu, mu)))
            blocks.append((Count(j, mu, depth + 1),))
        blocks.append((Cut(j, mu, m),))

    level(plan.j_final, 0)
    return blocks


def run_cooling(reg: Register, plan: CoolingPlan) -> CoolingRun:
    """Execute a plan's cooling with per-molecule bookkeeping.

    The run walks the plan as ``compile_cooling`` does: each RESET goes
    through ``apply_gate`` and each compression runs fused (``apply_bcs``).
    At each of the walk's ``Count`` and ``Cut`` marks it logs the mark and
    the purified run there; a register that holds the plan holds them all.

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
    window = plan.ell * plan.m // 2  # purified run cannot outgrow ell rounds
    log = []
    for *_, item in _walk(plan):
        kind = type(item)
        if kind is Bcs:
            apply_bcs(reg, item)
        elif kind is Reset:
            apply_gate(reg, item)
        elif kind is not Marker:  # a Count or a Cut
            log.append((item, reg.purified_run_length(item.at, window)))

    success = reg.full
    for mark, at_least in log:  # entry m - 1 holds the runs of length >= m
        if type(mark) is Cut:
            success &= at_least[mark.m - 1] if len(at_least) >= mark.m else 0
    return CoolingRun(
        log=log,
        success=success,
        output_bits=reg.comp_bit_rows(0, plan.m),
        num_molecules=reg.num_molecules,
    )
