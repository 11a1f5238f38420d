"""The basic compression subroutine: compiler, executor, and oracle.

One compression round takes adjacent pairs of bits, compares each pair
with a CNOT, keeps the left (adjusted) bit of equal pairs, and walks
every kept bit to the head of the array with a chain of zero-controlled
swaps so that kept bits always form a contiguous prefix. The schedule is
fixed and data-independent: conditionality lives entirely inside the
zero-controlled swap.

``reference_bcs`` is a deliberately gate-free reimplementation of the
pair semantics, used as an independent oracle against the compiled
schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .circuit import (
    PROV_DIRTY,
    Bcs,
    Cnot,
    Register,
    Schedule,
    Swap,
    ZcSwap,
    run_schedule,
)

__all__ = ["BcsOutcome", "compile_bcs", "run_bcs", "reference_bcs"]


@dataclass(frozen=True)
class BcsOutcome:
    """Result of one compression round on a (batched) register."""

    purified_count: Union[int, np.ndarray]
    purified_start: int
    supervisor_region: tuple[int, int]
    steps_used: int


def compile_bcs(m: int, nu: int = 0, nu0: Optional[int] = None) -> Schedule:
    """Fixed gate schedule compressing the m bits at [nu, nu+m).

    Kept bits are pushed (conditionally, one neighbour hop at a time) to
    the global target ``nu0 <= nu``, prepending to any purified prefix
    already there; supervisors park at the right end of the region. Under
    unit gate costs the schedule runs in fewer than m^2 steps when
    nu == nu0.

    Choreography per pair, with q the pair's left position at processing
    time: after the CNOT, the supervisor escorts the adjusted bit leftward
    (alternating conditional swap and supervisor hop) until the adjusted
    bit conditionally sits at nu0 and the supervisor always sits at
    nu0 + 1, from where it is swapped right to its parking slot. The
    escort leaves every position data-independent except inside the
    already-processed prefix.
    """
    if m <= 0 or m % 2 != 0:
        raise ValueError(f"m must be a positive even count, got {m}")
    nu0 = nu if nu0 is None else nu0
    if nu0 > nu or nu0 < 0:
        raise ValueError(f"need 0 <= nu0 <= nu, got nu0={nu0}, nu={nu}")

    items: list = [Bcs(m, nu, nu0)]
    for k in range(m // 2):
        q = nu + k  # pair sits k slots left of its start after k parkings
        items.append(Cnot(q, q + 1))
        for j in range(1, q - nu0 + 1):
            items.append(ZcSwap(q - j + 2, q - j, q - j + 1))
            items.append(Swap(q - j + 1, q - j + 2))
        park = nu + m - 1 - k
        for i in range(nu0 + 1, park):
            items.append(Swap(i, i + 1))
    return Schedule(items)


def run_bcs(
    reg: Register,
    schedule: Schedule,
    *,
    level: Optional[int] = None,
) -> BcsOutcome:
    """Execute a compiled compression schedule with provenance tracking.

    ``level`` is the purification level the input region is expected to
    hold; by default it is read off the region's tags. The outcome's
    purified count is the per-molecule contiguous run of level+1 tags at
    the push target (an int for a single-molecule register).
    """
    geometry = next((it for it in schedule.items if isinstance(it, Bcs)), None)
    if geometry is None:
        raise ValueError("schedule carries no bcs geometry annotation")
    m, nu, nu0 = geometry.m, geometry.nu, geometry.nu0
    if nu + m > reg.n:
        raise ValueError(
            f"schedule compiled for region [{nu}, {nu + m}) but register has n={reg.n}"
        )
    if level is None:
        region = reg.tag_rows(nu, nu + 1)[0]
        clean = region[region < PROV_DIRTY]
        level = int(clean[0]) if clean.size else 0

    run_schedule(reg, schedule)
    counts = reg.purified_run_length(nu0, level + 1, reg.n - nu0)
    if reg.num_molecules == 1:
        counts = int(counts[0])
    return BcsOutcome(
        purified_count=counts,
        purified_start=nu0,
        supervisor_region=(nu + m // 2, nu + m),
        steps_used=schedule.step_total(),
    )


def reference_bcs(bits: list[int]) -> tuple[list[int], list[int], list[int]]:
    """Gate-free oracle for one compression round.

    Pairs (2k, 2k+1) are compared directly; the left bit of an equal pair
    is kept. ``purified`` is listed front-of-array order (each newly kept
    bit is pushed to the head, in front of those kept earlier), matching
    the physical layout the compiled schedule produces. ``dirty`` and
    ``supervisors`` are in pair order.
    """
    if len(bits) % 2 != 0:
        raise ValueError("bit string must have even length")
    purified: list[int] = []
    dirty: list[int] = []
    supervisors: list[int] = []
    for k in range(0, len(bits), 2):
        a, b = bits[k], bits[k + 1]
        s = a ^ b
        supervisors.append(s)
        if s == 0:
            purified.insert(0, a)
        else:
            dirty.append(a)
    return purified, dirty, supervisors
