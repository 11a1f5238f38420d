"""The basic compression subroutine's compiler.

One compression round takes adjacent pairs of bits, compares each pair
with a CNOT, keeps the left (adjusted) bit of equal pairs, and walks
every kept bit to the head of the array with a chain of zero-controlled
swaps so that kept bits always form a contiguous prefix. The schedule is
fixed and data-independent: conditionality lives entirely inside the
zero-controlled swap.

``compile_bcs`` makes a compression's gates and ``bcs_text`` their text,
both read from one choreography, so ``compile`` writes each compression
as one block of text without building a gate.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, chain

from .circuit import Bcs, Cnot, Schedule, Swap, ZcSwap

__all__ = ["bcs_gates", "bcs_text", "compile_bcs"]


def _choreography(m: int, nu: int, nu0: int, cnot, zcswap, swap):
    """``compile_bcs(m, nu, nu0)``'s gates as pieces, each gate made by
    ``cnot``, ``zcswap`` or ``swap`` from the one position that fixes it:
    the ``Bcs``, the last pair's escort ladder, the first pair's parking
    run, and per pair its CNOT, where its escort starts in the ladder and
    where its parking ends in the run.

    Choreography per pair, with q the pair's left position at processing
    time: after the CNOT, the supervisor escorts the adjusted bit leftward
    (alternating conditional swap and supervisor hop) until the adjusted
    bit conditionally sits at nu0 and the supervisor always sits at
    nu0 + 1, from where it is swapped right to its parking slot. The
    escort leaves every position data-independent except inside the
    already-processed prefix. The escorts are suffixes of one ladder, the
    last pair's, and the parkings prefixes of the first pair's.
    """
    bcs = Bcs(m, nu, nu0)  # raises GateError unless m is even and 0 <= nu0 <= nu
    last = nu + m // 2 - 1  # the last pair's left position
    parking = [*map(swap, range(nu0 + 1, nu + m - 1))]
    hops = parking[: last - nu0][::-1]  # the ladder's supervisor hops, parking's first swaps
    ladder = [*chain.from_iterable(zip(map(zcswap, range(last - 1, nu0 - 1, -1)), hops))]
    # pair k sits at q = nu + k after k parkings: its escort runs from q - 1
    # down to nu0, its parking right to nu + m - 1 - k
    pairs = [(cnot(nu + k), 2 * (last - nu - k), nu + m - 2 - nu0 - k) for k in range(m // 2)]
    return bcs, ladder, parking, pairs


def compile_bcs(m: int, nu: int, nu0: int) -> Schedule:
    """Fixed gate schedule compressing the m bits at [nu, nu+m): two
    blocks, its ``Bcs`` annotation and then its gates.

    Kept bits are pushed (conditionally, one neighbour hop at a time) to
    the global target ``nu0 <= nu``, prepending to any purified prefix
    already there; supervisors park at the right end of the region. Under
    unit gate costs the schedule runs in fewer than m^2 steps when
    nu == nu0. Every gate lies in [nu0, nu + m - 1], the ``Bcs`` span.

    Every gate is fixed by one position, so equal gates are one shared
    object, built once per position and kind for the whole process, and
    each is looked up once per call.
    """
    bcs, ladder, parking, pairs = _choreography(m, nu, nu0, _cnot, _zcswap, _swap)
    gates: list = []
    for cnot, escort, parked in pairs:
        gates.append(cnot)
        gates += ladder[escort:]
        gates += parking[:parked]
    return Schedule((bcs,), gates)


def bcs_gates(m: int, nu: int, nu0: int) -> int:
    """How many gates ``compile_bcs(m, nu, nu0)`` makes, in closed form:
    pair k takes 3L + m - 1 + k, so h(3L + m - 1) + h(h - 1)/2 in all,
    h = m/2 and L = nu - nu0."""
    half = m // 2
    return half * (3 * (nu - nu0) + m - 1) + half * (half - 1) // 2


def bcs_text(m: int, nu: int, nu0: int) -> str:
    """The text of ``compile_bcs(m, nu, nu0)``'s gates, a line each, as
    ``schedule_to_text`` writes them, with no gate built: the same
    choreography read as lines, each pair's escort and parking cut from
    the joined texts of the ladder and the parking run."""
    _, ladder, parking, pairs = _choreography(m, nu, nu0, *_LINES)
    ladder_at, parking_at = [0, *accumulate(map(len, ladder))], [0, *accumulate(map(len, parking))]
    ladder, parking = "".join(ladder), "".join(parking)
    return "".join(chain.from_iterable(
        (cnot, ladder[ladder_at[escort]:], parking[:parking_at[parked]])
        for cnot, escort, parked in pairs))


# One shared gate per position and kind: at most n entries each.
_cnot = cache(lambda q: Cnot(q, q + 1))
_zcswap = cache(lambda i: ZcSwap(i + 2, i, i + 1))
_swap = cache(lambda i: Swap(i, i + 1))
# The same gates' text lines, formatted on each call: nothing is shared between calls.
_LINES = (lambda q: f"CNOT {q} {q + 1}\n", lambda i: f"ZCSWAP {i + 2} {i} {i + 1}\n",
          lambda i: f"SWAP {i} {i + 1}\n")
