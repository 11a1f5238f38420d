"""The basic compression subroutine's compiler.

One compression round takes adjacent pairs of bits, compares each pair
with a CNOT, keeps the left (adjusted) bit of equal pairs, and walks
every kept bit to the head of the array with a chain of zero-controlled
swaps so that kept bits always form a contiguous prefix. The schedule is
fixed and data-independent: conditionality lives entirely inside the
zero-controlled swap.
"""

from __future__ import annotations

from functools import cache

from .circuit import Bcs, Cnot, Schedule, Swap, ZcSwap

__all__ = ["compile_bcs"]


def compile_bcs(m: int, nu: int, nu0: int) -> Schedule:
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
    items: list = [Bcs(m, nu, nu0)]  # raises GateError unless m is even and 0 <= nu0 <= nu
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
