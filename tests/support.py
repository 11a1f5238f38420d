"""Helpers the tests share: registers built from bool arrays, views of a
register and a schedule, the compression compiler written gate by gate,
and a gate-free oracle for one compression round."""

import numpy as np

from algcool import compression
from algcool.circuit import Annotation, Bcs, Register, _pack_rows, _unpack_ints, apply_gate
from algcool.compression import compile_bcs


def pack(bits):
    """Bool rows (rows, molecules) as int bitsets, packed as the engine packs them."""
    return _pack_rows(np.packbits(bits, axis=1, bitorder="little"))


def register(bits, fresh=None):
    """A register of computation bits (rows, molecules). Its thermal source
    is ``fresh``, or else a zero RRTR row and nothing more, so a RESET raises."""
    bits = np.asarray(bits, dtype=bool)
    return Register(pack(bits), bits.shape[1], fresh=[0] * len(bits) if fresh is None else fresh)


def bits_of(reg, index=0):
    """All computation bits of one molecule, as a plain list."""
    return reg.comp_bit_rows(0, reg.n)[:, index].tolist()


def flag_rows(reg, start, stop):
    """Purified flags of logical positions [start, stop) as uint8 (rows, molecules)."""
    return _unpack_ints([reg.flags[r] for r in reg.rows[start:stop]], reg.num_molecules)


def gates(schedule):
    """A schedule's gates in order, its annotations left out."""
    return [item for item in schedule.items if not isinstance(item, Annotation)]


def run_gates(reg, schedule):
    """Apply every gate of a schedule in order."""
    for gate in gates(schedule):
        apply_gate(reg, gate)


def compress(reg, m):
    """Run ``compile_bcs(m, 0, 0)`` on the register; the per-molecule
    purified run at position 0, which holds exactly the kept bits."""
    run_gates(reg, compile_bcs(m, 0, 0))
    return reg.purified_run_length(0, reg.n)


def reference_compile_bcs(m, nu, nu0):
    """``compile_bcs(m, nu, nu0)``'s items, each gate asked of the shared
    factories one at a time: per pair its CNOT, its escort one hop left down
    to nu0, then the supervisor's walk right to its parking slot."""
    items = [Bcs(m, nu, nu0)]
    for k in range(m // 2):
        q = nu + k  # pair sits k slots left of its start after k parkings
        items.append(compression._cnot(q))
        for i in range(q - 1, nu0 - 1, -1):
            items += (compression._zcswap(i), compression._swap(i + 1))
        items += map(compression._swap, range(nu0 + 1, nu + m - 1 - k))
    return items


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
