"""Helpers the tests share: packed draws and registers built from bool
arrays, views of a register and a schedule, a cooling run's bitsets read
per molecule and per mark, a molecule's draws straight from numpy, a
schedule's census counted from its items, a cooling run replayed gate by
gate and run block by block, the compression compiler written gate by
gate, and gate-free oracles for one compression round and for a whole
cooling run, one molecule or a batch."""

import numpy as np

from algcool import compression
from algcool.circuit import (
    Annotation, Bcs, Count, Cut, Marker, Register, Reset, apply_bcs, apply_gate,
)
from algcool.compression import compile_bcs
from algcool.cooling import CoolingRun, _walk
from algcool.ensemble import _pack_rows


def packed_draws(bits):
    """Bool rows (rows, molecules) as packed byte rows (rows, bytes), laid
    out as a chunk's draws are: bit k of byte k // 8 is molecule k."""
    return np.packbits(np.asarray(bits, dtype=bool), axis=1, bitorder="little")


def unpack_draws(draws, n_mol):
    """Packed byte rows as uint8 bits (rows, molecules): ``packed_draws`` undone."""
    return np.unpackbits(draws, axis=1, bitorder="little")[:, :n_mol]


def pack(bits):
    """Bool rows (rows, molecules) as int bitsets, packed as the engine packs them."""
    return list(_pack_rows(packed_draws(bits)))


def packed(ints, n_mol):
    """Int bitsets as packed byte rows (len(ints), bytes), a register's
    thermal source as the engine packs it."""
    width = (n_mol + 7) // 8
    raw = np.frombuffer(b"".join(x.to_bytes(width, "little") for x in ints), dtype=np.uint8)
    return raw.reshape(len(ints), width)


def unpack(ints, n_mol):
    """Int bitsets as uint8 bits (len(ints), molecules): ``pack`` undone."""
    return unpack_draws(packed(ints, n_mol), n_mol)


def run_lengths(at_least, n_mol):
    """A purified run in unary, as ``circuit.purified_run`` gives it, as
    per-molecule lengths: int64 (molecules,)."""
    return unpack(at_least, n_mol).sum(axis=0, dtype=np.int64)


def _per_mark(run):
    """A ``CoolingRun``'s log as ``{index: (kind, at_least)}``, one item a
    mark: each lane's run cut out of its level's entry, as
    ``circuit.purified_run`` would give it on that lane alone (it
    stops before its first empty entry), ``Count`` for a round and ``Cut``
    for a level's cut, which is its block's last round."""
    stride, full = 8 * run.lane_bytes, (1 << run.num_molecules) - 1
    per_mark = {}
    for rounds, cuts, runs in run.log:
        for kind, index, at_least in [*((Count, rounds[:, d], r) for d, r in enumerate(runs)),
                                      (Cut, cuts, runs[-1])]:
            for lane, i in enumerate(index.tolist()):
                rows = [row >> lane * stride & full for row in at_least]
                per_mark[i] = kind, rows[: rows.index(0)] if 0 in rows else rows
    return per_mark


def entries(run, marks, kind=None):
    """A ``CoolingRun``'s log mark by mark, in schedule order, as
    ``(mark, at_least)``, each index read in ``marks``, as
    ``plan_census(plan).marks`` lists them. Every mark, or those of one
    type, ``Count`` or ``Cut``. Each mark's type is the one its log entry
    gives it."""
    per_mark = _per_mark(run)
    assert all(type(marks[i]) is logged for i, (logged, _) in per_mark.items())
    return [(marks[i], at_least) for i, (_, at_least) in sorted(per_mark.items())
            if kind is None or type(marks[i]) is kind]


def observed(run):
    """A ``CoolingRun`` per molecule, laid out as ``reference_cooling_batch``
    returns its answer: the output bits (m, molecules), the ``Count`` and the
    ``Cut`` lengths, each a (molecules,) array, in schedule order, and
    whether each molecule succeeded, as bools (molecules,)."""
    w, per_mark = run.num_molecules, sorted(_per_mark(run).items())
    return (unpack(run.output_bits, w),
            *([run_lengths(at_least, w) for _, (logged, at_least) in per_mark if logged is kind]
              for kind in (Count, Cut)),
            unpack([run.success], w)[0].astype(bool))


def register(bits, fresh=None):
    """A register of computation bits (rows, molecules). Its thermal source
    is those rows, then ``fresh``, or else a zero RRTR row and nothing more,
    so a RESET raises."""
    bits = np.asarray(bits, dtype=bool)
    fresh = [0] * len(bits) if fresh is None else list(fresh)
    return Register(len(bits), bits.shape[1], packed(pack(bits) + fresh, bits.shape[1]))


def bits_of(reg, index=0):
    """All computation bits of one molecule, as a plain list."""
    return unpack(reg.comp_bit_rows(0, reg.n), reg.num_molecules)[:, index].tolist()


def planes(reg):
    """The register's state as three lists of int bitsets indexed by
    position: its bit plane, its flag plane and its RRTR row. Each of
    ``reg.rows`` holds a position's bits in its low ``num_molecules`` bits
    and its purified flags in the next ``num_molecules``."""
    w = reg.num_molecules
    return [row & reg.full for row in reg.rows], [row >> w for row in reg.rows], list(reg.rrtr)


def set_flag_plane(reg, flags):
    """Overwrite the purified flags of positions 0.. with int bitsets."""
    w = reg.num_molecules
    reg.rows[: len(flags)] = [row & reg.full | f << w for row, f in zip(reg.rows, flags)]


def flag_rows(reg, start, stop):
    """Purified flags of positions [start, stop) as uint8 (rows, molecules)."""
    return unpack(planes(reg)[1][start:stop], reg.num_molecules)


def numpy_draws(seed, index, rows, eps):
    """A molecule's draws straight from numpy: a fresh Philox keyed by its
    SeedSequence, as 0/1 ints."""
    ss = np.random.SeedSequence(seed, spawn_key=(index,))
    gen = np.random.Generator(np.random.Philox(ss))
    return (gen.random(rows) < (1 - eps) / 2).astype(int).tolist()


def gates(schedule):
    """A schedule's gates in order, its annotations left out."""
    return [item for item in schedule.items if not isinstance(item, Annotation)]


def plain_census(schedule):
    """A schedule's census counted from its own items: steps (one per gate,
    a RESET of any width included), RESETs, reset rows, and its ``Count``
    and ``Cut`` marks in order, to compare with ``plan_census``."""
    resets = [g for g in gates(schedule) if isinstance(g, Reset)]
    marks = tuple(it for it in schedule.items if isinstance(it, (Count, Cut)))
    return len(gates(schedule)), len(resets), sum(r.length for r in resets), marks


def run_gates(reg, schedule):
    """Apply every gate of a schedule in order."""
    for gate in gates(schedule):
        apply_gate(reg, gate)


def serial_cooling(reg, plan):
    """The serial oracle for ``run_cooling``: the plan's walk one block at
    a time, in schedule order, on the register itself. Each RESET goes
    through ``apply_gate``, each compression runs fused (``apply_bcs``),
    and each ``Count`` and ``Cut`` reads the purified run at its offset
    over the ``ell * m / 2`` window. Each ``Cut``'s run must equal its
    block's last round's. Returns a ``CoolingRun`` whose log holds one
    one-lane entry a block, logged at its ``Cut``, each mark at its index
    in schedule order."""
    if reg.n < plan.n_required:
        raise ValueError(f"register has {reg.n} bits; plan requires {plan.n_required}")
    window = plan.ell * plan.m // 2  # purified run cannot outgrow ell rounds
    index, log, open_blocks = 0, [], {}  # level -> the open block's (index, run) a round
    success = reg.full
    for *_, item in _walk(plan):
        kind = type(item)
        if kind is Bcs:
            apply_bcs(reg.rows, reg.num_molecules, item)
        elif kind is Reset:
            apply_gate(reg, item)
        elif kind is not Marker:  # a Count or a Cut
            at_least = reg.purified_run_length(item.at, window)
            if kind is Count:
                open_blocks.setdefault(item.level, []).append((index, at_least))
            else:
                rounds, runs = zip(*open_blocks.pop(item.level))
                assert at_least == runs[-1]  # no gate between the last round and the cut
                log.append((np.array([rounds]), np.array([index]), list(runs)))
                # entry m - 1 holds the runs of length >= m
                success &= at_least[item.m - 1] if len(at_least) >= item.m else 0
            index += 1
    return CoolingRun(log=log, success=success, output_bits=reg.comp_bit_rows(0, plan.m),
                      num_molecules=reg.num_molecules)


def replay(reg, plan, schedule):
    """``run_cooling``'s logs the gate-by-gate way: every gate of the
    schedule, in order, through ``apply_gate``, and at each ``Count`` and
    ``Cut`` the purified run over the ``ell * m / 2`` window. Returns the
    ``Count`` lengths and the ``Cut`` lengths, each a (molecules,) array, in
    schedule order."""
    logs = {Count: [], Cut: []}
    for item in schedule.items:
        if isinstance(item, (Count, Cut)):
            at_least = reg.purified_run_length(item.at, plan.ell * plan.m // 2)
            logs[type(item)].append(run_lengths(at_least, reg.num_molecules))
        elif not isinstance(item, Annotation):
            apply_gate(reg, item)
    return logs[Count], logs[Cut]


def compress(reg, m):
    """Run ``compile_bcs(m, 0, 0)`` on the register; the per-molecule
    purified run at position 0, which holds exactly the kept bits."""
    run_gates(reg, compile_bcs(m, 0, 0))
    return run_lengths(reg.purified_run_length(0, reg.n), reg.num_molecules)


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


def reference_cooling(plan, draws):
    """Gate-free oracle for ``run_cooling`` on one molecule.

    ``draws`` is the molecule's thermal source as ``_build_registers`` lays
    it out: its n computation bits, its n-bit RRTR row, then the rows its RESETs
    take, in order. Each position holds ``[bit, flagged]``. A RESET takes the
    RRTR row's bits, flagged, and refills that stretch of the row from the
    source. A compression of the m bits at nu, pushed to nu0, leaves
    ``old[:nu0] + kept + old[nu0:nu] + dirty + supervisors[::-1]``: ``kept``
    holds the left bit of each equal pair, newest first, flagged when both
    operands were; ``dirty`` the left bit of each unequal pair, in pair
    order; the supervisors their pair's XOR; all of these but ``kept``
    unflagged. ``Count`` and ``Cut`` read the flagged run over the
    ``ell * m / 2`` window. Returns the output bits, the ``Count`` lengths
    and the ``Cut`` lengths in schedule order, and whether every cut held m.
    """
    m, ell, n = plan.m, plan.ell, plan.n_required
    source = iter(draws)
    pos = [[next(source), True] for _ in range(n)]
    rrtr = [next(source) for _ in range(n)]
    counts, cuts = [], []

    def run_at(at):
        length = 0
        while length < ell * m // 2 and at + length < n and pos[at + length][1]:
            length += 1
        return length

    def compress(nu, nu0):
        kept, dirty, supervisors = [], [], []
        for (a, fa), (b, fb) in zip(pos[nu : nu + m : 2], pos[nu + 1 : nu + m : 2]):
            if a == b:
                kept.insert(0, [a, fa and fb])
            else:
                dirty.append([a, False])
            supervisors.append([a ^ b, False])
        pos[nu0 : nu + m] = kept + pos[nu0:nu] + dirty + supervisors[::-1]

    def level(j, mu):
        if j == 0:
            for p in range(mu, mu + m):
                pos[p] = [rrtr[p], True]
            for p in range(mu, mu + m):
                rrtr[p] = next(source)
            return
        for depth in range(ell):
            nu = mu + depth * m // 2
            level(j - 1, nu)
            compress(nu, mu)
            counts.append(run_at(mu))
        cuts.append(run_at(mu))

    level(plan.j_final, 0)
    return [bit for bit, _ in pos[:m]], counts, cuts, all(cut >= m for cut in cuts)


def reference_cooling_batch(plan, draws):
    """``reference_cooling``'s rule on many molecules at once.

    ``draws`` is 0/1 of shape (molecules, rows), each row one molecule's
    thermal source as ``reference_cooling`` reads it. Bits and flags are
    (molecules, n) uint8 arrays. A compression of the m bits at nu, pushed
    to nu0, is one stable reorder per molecule: each pair offers its left
    bit twice, as kept (newest pair first) and as dirty (in pair order),
    and its XOR as a supervisor (last pair first). Each entry is ranked by
    the part it joins, kept 0, ``old[nu0:nu]`` 1, dirty 2 and supervisors
    3, or 4 for the copy its pair does not use, so a stable sort by rank
    leaves ``kept + old[nu0:nu] + dirty + supervisors[::-1]`` at nu0.
    Returns the output bits (m, molecules), the ``Count`` and the ``Cut``
    lengths, each a (molecules,) array, in schedule order, and whether
    every cut held m, per molecule.
    """
    m, ell, n = plan.m, plan.ell, plan.n_required
    draws = np.asarray(draws, dtype=np.uint8)
    bits, rrtr = draws[:, :n].copy(), draws[:, n : 2 * n].copy()
    flags = np.ones_like(bits)
    taken = 2 * n  # draws the source has given
    counts, cuts = [], []

    def run_at(at):
        stretch = flags[:, at : at + ell * m // 2]
        return np.where(stretch.all(axis=1), stretch.shape[1], stretch.argmin(axis=1))

    def compress(nu, nu0):
        a, b = bits[:, nu : nu + m : 2], bits[:, nu + 1 : nu + m : 2]
        equal = a == b
        kept_flags = flags[:, nu : nu + m : 2] & flags[:, nu + 1 : nu + m : 2]
        unflagged = np.zeros_like(a)
        entries = [(a[:, ::-1], kept_flags[:, ::-1], np.where(equal, 0, 4)[:, ::-1]),
                   (bits[:, nu0:nu], flags[:, nu0:nu], np.ones_like(bits[:, nu0:nu])),
                   (a, unflagged, np.where(equal, 4, 2)),
                   ((a ^ b)[:, ::-1], unflagged, np.full_like(a, 3))]
        new_bits, new_flags, rank = (np.hstack(part) for part in zip(*entries))
        order = np.argsort(rank, axis=1, kind="stable")[:, : nu + m - nu0]
        bits[:, nu0 : nu + m] = np.take_along_axis(new_bits, order, axis=1)
        flags[:, nu0 : nu + m] = np.take_along_axis(new_flags, order, axis=1)

    def level(j, mu):
        nonlocal taken
        if j == 0:
            bits[:, mu : mu + m] = rrtr[:, mu : mu + m]
            flags[:, mu : mu + m] = 1
            rrtr[:, mu : mu + m] = draws[:, taken : taken + m]
            taken += m
            return
        for depth in range(ell):
            nu = mu + depth * m // 2
            level(j - 1, nu)
            compress(nu, mu)
            counts.append(run_at(mu))
        cuts.append(run_at(mu))

    level(plan.j_final, 0)
    success = np.ones(len(draws), dtype=bool)
    for lengths in cuts:
        success &= lengths >= m
    return bits[:, :m].T, counts, cuts, success
