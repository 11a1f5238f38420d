"""Classical reversible-gate engine over per-molecule bit registers.

The model is a ladder: a row of computation bits and a parallel row of
rapidly-relaxing reset (RRTR) bits. Gates are CNOT, SWAP, a
zero-controlled SWAP, and a column-wise RESET that swaps computation
bits with their thermal neighbours.

Each position also carries a purified flag. RESET sets it; SWAP/ZCSWAP
move it with the bit; CNOT, the compression comparator, keeps the
control flagged only if both operands were flagged and their bits
agreed, and clears the target (the supervisor). The flag does not say to
which level a bit was purified: the schedule's ``Count``/``Cut``
annotations do. One flag suffices because a compiled compression only
ever compares bits of its own input level, and a failed comparison
clears the flag, so lucky dirty bits never count as purified.
Flags never influence bit values.

For throughput the register is batched and packed: a physical row holds
one position's bit and flag as two planes, each a machine-word bitset
across all molecules, so one gate is a handful of word-wide boolean
operations on bits and flags together, whatever the batch size. A SWAP
moves no data: the register maps each logical position to its physical
row, and a SWAP exchanges two entries of that map. Every other gate and
every view reads through the map.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional, Union

import numpy as np

__all__ = [
    "Cnot",
    "Swap",
    "ZcSwap",
    "Reset",
    "Gate",
    "Annotation",
    "Marker",
    "Bcs",
    "Count",
    "Cut",
    "Schedule",
    "GateError",
    "Register",
    "apply_gate",
    "run_schedule",
    "validate_schedule",
    "schedule_to_text",
    "schedule_from_text",
]

_ONES = ~np.uint64(0)  # a word of set flags


class GateError(ValueError):
    """A gate is malformed for the register it is applied to."""


@dataclass(frozen=True)
class Cnot:
    control: int
    target: int
    KIND = "CNOT"

    def positions(self) -> tuple[int, ...]:
        return (self.control, self.target)

    def line(self) -> str:
        return f"CNOT {self.control} {self.target}"

    def check(self, n: int, strict: bool) -> Optional[str]:
        return _pair_violation(self, self.control, self.target, n, strict)


@dataclass(frozen=True)
class Swap:
    a: int
    b: int
    KIND = "SWAP"

    def positions(self) -> tuple[int, ...]:
        return (self.a, self.b)

    def line(self) -> str:
        return f"SWAP {self.a} {self.b}"

    def check(self, n: int, strict: bool) -> Optional[str]:
        return _pair_violation(self, self.a, self.b, n, strict)


@dataclass(frozen=True)
class ZcSwap:
    """Swap a and b on molecules whose zero_control bit reads 0."""

    zero_control: int
    a: int
    b: int
    KIND = "ZCSWAP"

    def positions(self) -> tuple[int, ...]:
        return (self.zero_control, self.a, self.b)

    def line(self) -> str:
        return f"ZCSWAP {self.zero_control} {self.a} {self.b}"

    def check(self, n: int, strict: bool) -> Optional[str]:
        z, a, b = self.zero_control, self.a, self.b
        if not (0 <= z < n and 0 <= a < n and 0 <= b < n):
            return f"{self.line()}: position out of range for n={n}"
        if z == a or z == b or a == b:
            return f"{self.line()}: operands must be pairwise distinct"
        if strict and abs(a - b) > 1:
            return f"{self.line()}: swap operands farther than 1 apart"
        if strict and abs(z - a) > 1 and abs(z - b) > 1:
            return f"{self.line()}: control not adjacent to swap operands"
        return None


@dataclass(frozen=True)
class Reset:
    """Column-wise reset: swap [start, start+length) with the RRTR row."""

    start: int
    length: int
    KIND = "RESET"

    def positions(self) -> tuple[int, ...]:
        return tuple(range(self.start, self.start + self.length))

    def line(self) -> str:
        return f"RESET {self.start} {self.length}"

    def check(self, n: int, strict: bool) -> Optional[str]:
        # column-wise, so no row adjacency
        if self.length < 1:
            return f"{self.line()}: empty"
        if self.start < 0 or self.start + self.length > n:
            return f"{self.line()}: position out of range for n={n}"
        return None


Gate = Union[Cnot, Swap, ZcSwap, Reset]


def _pair_violation(gate: Gate, i: int, j: int, n: int, strict: bool) -> Optional[str]:
    """The check of a two-operand gate (CNOT, SWAP) on positions i and j."""
    if not (0 <= i < n and 0 <= j < n):
        return f"{gate.line()}: position out of range for n={n}"
    if i == j:
        return f"{gate.line()}: operands must be pairwise distinct"
    if strict and abs(i - j) > 1:
        return f"{gate.line()}: operands farther than 1 apart"
    return None


@dataclass(frozen=True)
class Annotation:
    """A non-gate schedule item, written as ``# TAG: field=value ...``."""

    TAG = ""

    def line(self) -> str:
        pairs = " ".join(f"{f.name}={getattr(self, f.name)}" for f in fields(self))
        return f"# {self.TAG}: {pairs}"


@dataclass(frozen=True)
class Marker(Annotation):
    """Free-text annotation, such as a ``phase:`` line."""

    text: str

    def line(self) -> str:
        return f"# {self.text}"


@dataclass(frozen=True)
class Bcs(Annotation):
    """Geometry of one compression round: m bits at nu, kept bits pushed to nu0."""

    m: int
    nu: int
    nu0: int
    TAG = "bcs"


@dataclass(frozen=True)
class Count(Annotation):
    """Record the purified run at ``at`` after round ``round`` of a level."""

    level: int
    at: int
    round: int
    TAG = "count"


@dataclass(frozen=True)
class Cut(Annotation):
    """Truncate a level's output at ``at`` to its first m bits."""

    level: int
    at: int
    m: int
    TAG = "cut"


@dataclass
class Schedule:
    """An ordered, data-independent list of gates plus annotations."""

    items: list[Union[Gate, Annotation]] = field(default_factory=list)

    def gates(self) -> list[Gate]:
        return [g for g in self.items if not isinstance(g, Annotation)]

    def step_total(self) -> int:
        """Time steps of a run: one per gate, a RESET of any width included.
        The schedule is data-independent, so every run takes exactly this
        many."""
        return sum(not isinstance(g, Annotation) for g in self.items)

    def reset_rows(self) -> int:
        """Total fresh rows a run will draw from the reset pool."""
        return sum(g.length for g in self.items if isinstance(g, Reset))


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a bool array (rows, molecules) into uint64 words (rows, words)."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    words = (bits.shape[1] + 63) // 64
    out = np.zeros((bits.shape[0], words * 8), dtype=np.uint8)
    out[:, : packed.shape[1]] = packed
    return out.view(np.uint64)


def _unpack_rows(words: np.ndarray, n_mol: int) -> np.ndarray:
    """Unpack uint64 word rows (..., words) to uint8 bits (..., molecules)."""
    return np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little")[..., :n_mol]


class Register:
    """Batched ladder register: packed bits and flags, plus the RRTR row.

    A Register is a single-owner mutable value; distinct registers are
    independent. ``state`` is packed uint64 of shape (n, 2, words) and is
    indexed by physical row: plane 0 of a row is its bit, plane 1 its
    purified flag, set for every fresh bit. ``rows`` maps each logical
    position to the physical row of ``state`` that holds it; gates, their
    checks and every view speak of logical positions. ``rrtr`` is packed
    (n, words) and indexed by logical position.
    """

    def __init__(
        self,
        comp: np.ndarray,
        rrtr: np.ndarray,
        num_molecules: int,
        *,
        reset_pool: Optional[np.ndarray] = None,
        strict: bool = True,
    ):
        self.n = comp.shape[0]
        self.num_molecules = num_molecules
        self.state = np.stack((comp, np.full_like(comp, _ONES)), axis=1)
        self.rows = list(range(self.n))
        self.rrtr = rrtr
        self.strict = strict
        self._reset_pool = reset_pool
        self._pool_cursor = 0

    # -- construction ---------------------------------------------------

    @classmethod
    def from_comp_bits(cls, bits: np.ndarray, **kwargs) -> "Register":
        """Build a register from explicit computation bits (rows, molecules)."""
        bits = np.asarray(bits, dtype=bool)
        comp = _pack_rows(bits)
        return cls(comp, np.zeros_like(comp), bits.shape[1], **kwargs)

    # -- reset randomness -----------------------------------------------

    def draw_reset_rows(self, length: int) -> np.ndarray:
        """Fresh thermal rows for a RESET, packed (length, words)."""
        if self._reset_pool is None:
            raise GateError("register has no reset bit source")
        end = self._pool_cursor + length
        if end > self._reset_pool.shape[0]:
            raise GateError("reset pool exhausted")
        rows = self._reset_pool[self._pool_cursor:end]
        self._pool_cursor = end
        return rows

    # -- views ----------------------------------------------------------

    def comp_bit_rows(self, start: int, stop: int) -> np.ndarray:
        """Unpacked computation bits of logical positions [start, stop) as
        uint8 (rows, molecules)."""
        return _unpack_rows(self.state[self.rows[start:stop], 0], self.num_molecules)

    def clean_rows(self, start: int, stop: int) -> np.ndarray:
        """Unpacked purified flags of logical positions [start, stop) as
        uint8 (rows, molecules)."""
        return _unpack_rows(self.state[self.rows[start:stop], 1], self.num_molecules)

    def molecule_bits(self, index: int = 0) -> list[int]:
        """All computation bits of one molecule, as a plain list."""
        return self.comp_bit_rows(0, self.n)[:, index].tolist()

    def purified_run_length(self, start: int, max_rows: int) -> np.ndarray:
        """Per-molecule length of the contiguous run of flagged positions
        beginning at ``start``, at most ``max_rows``."""
        block = self.state[self.rows[start : start + max_rows], 1]
        run = np.bitwise_and.accumulate(block, axis=0)
        return _unpack_rows(run, self.num_molecules).sum(axis=0, dtype=np.int64)


# -- gate application ---------------------------------------------------


def _cnot(reg: Register, gate: Cnot) -> None:
    rows = reg.rows
    c, t = reg.state[rows[gate.control]], reg.state[rows[gate.target]]
    c[1] &= t[1] & ~(c[0] ^ t[0])  # kept: both purified and equal
    t[0] ^= c[0]
    t[1] = 0  # the supervisor is never purified


def _swap(reg: Register, gate: Swap) -> None:
    rows = reg.rows
    rows[gate.a], rows[gate.b] = rows[gate.b], rows[gate.a]


def _zcswap(reg: Register, gate: ZcSwap) -> None:
    rows, state = reg.rows, reg.state
    a, b = state[rows[gate.a]], state[rows[gate.b]]
    diff = (a ^ b) & ~state[rows[gate.zero_control], 0]
    a ^= diff
    b ^= diff


def _reset(reg: Register, gate: Reset) -> None:
    stop = gate.start + gate.length
    fresh = reg.draw_reset_rows(gate.length)
    physical = reg.rows[gate.start : stop]
    reg.state[physical, 0] = reg.rrtr[gate.start : stop]
    reg.state[physical, 1] = _ONES
    reg.rrtr[gate.start : stop] = fresh


_EXECUTORS = {Cnot: _cnot, Swap: _swap, ZcSwap: _zcswap, Reset: _reset}


def apply_gate(reg: Register, gate: Gate) -> None:
    """Check one gate against the register, then apply it in place."""
    execute = _EXECUTORS.get(type(gate))
    if execute is None:
        raise GateError(f"unknown gate {gate!r}")
    err = gate.check(reg.n, reg.strict)
    if err is not None:
        raise GateError(err)
    execute(reg, gate)


def run_schedule(reg: Register, schedule: Schedule) -> None:
    """Apply every gate of a schedule in order, skipping annotations."""
    for item in schedule.items:
        if not isinstance(item, Annotation):
            apply_gate(reg, item)


def validate_schedule(
    schedule: Schedule, n: int, *, strict: bool = True
) -> list[str]:
    """Pure static check of index ranges and adjacency; no execution.

    Returns the list of violations (empty means ok): one message per
    failing occurrence, in schedule order. Each distinct gate object is
    checked once.
    """
    # compiled and parsed schedules share equal items: check each object
    # once, keyed by id (schedule.items keeps every object, so its id, alive)
    distinct = dict(zip(map(id, schedule.items), schedule.items))
    failing = {key: err for key, item in distinct.items()
               if not isinstance(item, Annotation) and (err := item.check(n, strict))}
    if not failing:
        return []
    return [failing[key] for key in map(id, schedule.items) if key in failing]


# -- serialization ------------------------------------------------------

_GATES = {cls.KIND: (cls, len(fields(cls))) for cls in (Cnot, Swap, ZcSwap, Reset)}

_ANNOTATIONS = {cls.TAG: cls for cls in (Bcs, Count, Cut)}


def _parse_annotation(body: str, lineno: int) -> Annotation:
    tag, _, rest = body.partition(":")
    cls = _ANNOTATIONS.get(tag)
    if cls is None:
        return Marker(body)
    try:
        pairs = [p.split("=") for p in rest.split()]
        if [k for k, _ in pairs] != [f.name for f in fields(cls)]:
            raise ValueError
        return cls(*(int(v) for _, v in pairs))
    except ValueError as exc:
        raise ValueError(f"line {lineno}: malformed {tag} annotation") from exc


def _parse_line(line: str, lineno: int) -> Union[Gate, Annotation]:
    """One stripped, non-blank line of the text format."""
    if line.startswith("#"):
        return _parse_annotation(line[1:].strip(), lineno)
    parts = line.split()
    kind = parts[0].upper()
    if kind not in _GATES:
        raise ValueError(f"line {lineno}: unknown gate {parts[0]!r}")
    build, arity = _GATES[kind]
    if len(parts) - 1 != arity:
        raise ValueError(f"line {lineno}: {kind} expects {arity} operands")
    try:
        args = [int(p) for p in parts[1:]]
    except ValueError as exc:
        raise ValueError(f"line {lineno}: non-integer operand") from exc
    return build(*args)


def schedule_to_text(schedule: Schedule) -> str:
    """Line-oriented text form, one gate per line; annotations as comments.
    Each distinct item object is formatted once."""
    keys = list(map(id, schedule.items))  # as in validate_schedule
    line = {key: item.line() for key, item in dict(zip(keys, schedule.items)).items()}
    lines = list(map(line.__getitem__, keys))
    return "\n".join(lines) + "\n" if lines else ""


def schedule_from_text(text: str) -> Schedule:
    """Parse the text format back; bit-exact round trip with to_text.

    Each distinct line is parsed once per call, and every occurrence of it
    is the same object. A malformed line raises at its first occurrence,
    naming its line number.
    """
    items: list[Union[Gate, Annotation]] = []
    parsed: dict[str, Union[Gate, Annotation]] = {}  # raw line -> its item
    for lineno, raw in enumerate(text.splitlines(), start=1):
        item = parsed.get(raw)
        if item is None:
            line = raw.strip()
            if not line:
                continue
            item = parsed[raw] = _parse_line(line, lineno)
        items.append(item)
    return Schedule(items)
