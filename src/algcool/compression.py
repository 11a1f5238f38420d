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
from functools import cache
from typing import Optional

import numpy as np

from .circuit import Bcs, Cnot, Register, Schedule, Swap, ZcSwap, run_schedule

__all__ = ["BcsOutcome", "compile_bcs", "run_bcs", "reference_bcs"]


@dataclass(frozen=True)
class BcsOutcome:
    """Result of one compression round on a (batched) register."""

    purified_count: np.ndarray  # per molecule


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

    Every gate is fixed by one position, so equal gates are one shared
    object, built once per position and kind for the whole process.
    """
    if m <= 0 or m % 2 != 0:
        raise ValueError(f"m must be a positive even count, got {m}")
    nu0 = nu if nu0 is None else nu0
    if nu0 > nu or nu0 < 0:
        raise ValueError(f"need 0 <= nu0 <= nu, got nu0={nu0}, nu={nu}")

    items: list = [Bcs(m, nu, nu0)]
    for k in range(m // 2):
        q = nu + k  # pair sits k slots left of its start after k parkings
        items.append(_cnot(q))
        for i in range(q - 1, nu0 - 1, -1):  # escort one hop left per step
            items += (_zcswap(i), _swap(i + 1))
        park = nu + m - 1 - k
        items += map(_swap, range(nu0 + 1, park))
    return Schedule(items)


# One shared gate per position and kind: at most n entries each.
_cnot = cache(lambda q: Cnot(q, q + 1))
_zcswap = cache(lambda i: ZcSwap(i + 2, i, i + 1))
_swap = cache(lambda i: Swap(i, i + 1))


def run_bcs(reg: Register, schedule: Schedule) -> BcsOutcome:
    """Execute a compiled compression schedule with purified flags.

    The outcome's purified count holds one entry per molecule, a batch of
    one included: the contiguous run of flagged positions at the push
    target. Dirty bits and supervisors are unflagged, so the run ends
    where the kept bits do. With nu0 < nu the run also takes in the
    flagged bits already in [nu0, nu): the earlier rounds' purified prefix.
    The outcome holds the count alone: the push target and supervisor
    region are the schedule's ``Bcs`` geometry, its steps ``step_total()``.
    """
    geometry = next((it for it in schedule.items if isinstance(it, Bcs)), None)
    if geometry is None:
        raise ValueError("schedule carries no bcs geometry annotation")
    m, nu, nu0 = geometry.m, geometry.nu, geometry.nu0
    if nu + m > reg.n:
        raise ValueError(
            f"schedule compiled for region [{nu}, {nu + m}) but register has n={reg.n}"
        )
    run_schedule(reg, schedule)
    return BcsOutcome(reg.purified_run_length(nu0, reg.n - nu0))


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
