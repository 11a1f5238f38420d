"""Classical reversible-gate engine over per-molecule bit registers.

The model is a ladder: a row of computation bits and a parallel row of
rapidly-relaxing reset (RRTR) bits. Gates are CNOT, SWAP, a
zero-controlled SWAP, and a column-wise RESET that swaps computation
bits with their thermal neighbours. Each gate acts on neighbouring
positions; every item checks such n-independent shape rules once, when
built, so fitting a register is one comparison of its highest position.

Each position also carries a purified flag. RESET sets it; SWAP/ZCSWAP
move it with the bit; CNOT, the compression comparator, keeps the
control flagged only if both operands were flagged and their bits
agreed, and clears the target (the supervisor). The flag does not say to
which level a bit was purified: the schedule's ``Count``/``Cut``
annotations do. One flag suffices because a compiled compression only
ever compares bits of its own input level, and a failed comparison
clears the flag, so lucky dirty bits never count as purified.
Flags never influence bit values.

For throughput the register is batched: a physical row holds one
position's bit and flag as two planes, each a Python int used as a bitset
across all molecules (bit k is molecule k), so one gate is a handful of
native int operations on bits and flags together, whatever the batch
size. A SWAP moves no data: the register maps each logical position to
its physical row, and a SWAP exchanges two entries of that map. Every
other gate and every view reads through the map.
Rows enter as such ints (``_pack_rows``) and leave through
``_unpack_ints``. The RRTR row and every RESET's fresh rows are read in
order from one thermal source, as reset bits are draws from one heat bath.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Optional, Union

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
    "Census",
    "Schedule",
    "GateError",
    "Register",
    "apply_gate",
    "validate_schedule",
    "schedule_to_text",
    "schedule_from_text",
]

class GateError(ValueError):
    """A schedule item is ill-formed, or does not fit its register."""


class _Item:
    """What every schedule item shares: its shape is checked once, when it
    is built, and ``top`` (not a dataclass field) is its highest position,
    or -1 when it names none. Fitting a register is then one comparison."""

    def __post_init__(self):
        top, error = self._shape()
        if error is not None:
            raise GateError(f"{self.line()}: {error}")
        object.__setattr__(self, "top", top)

    def check(self, n: int) -> Optional[str]:
        """None if the item fits an n-position register, else why not."""
        if self.top < n:
            return None
        return f"{self.line()}: position out of range for n={n}"


def _pair_shape(i: int, j: int) -> tuple[int, Optional[str]]:
    """The shape of a two-operand gate (CNOT, SWAP) on positions i and j."""
    if i < 0 or j < 0:
        return -1, "negative position"
    if i == j:
        return -1, "operands must be pairwise distinct"
    if abs(i - j) > 1:
        return -1, "operands farther than 1 apart"
    return max(i, j), None


def _span_shape(start: int, length: int) -> tuple[int, Optional[str]]:
    """The shape of an item naming positions [start, start + length)."""
    if length < 1:
        return -1, "empty"
    if start < 0:
        return -1, "negative position"
    return start + length - 1, None


class _GateText(_Item):
    """The text form every gate shares: its KIND, then its fields in order."""

    def line(self) -> str:
        return " ".join([self.KIND, *(str(getattr(self, f.name)) for f in fields(self))])


@dataclass(frozen=True)
class Cnot(_GateText):
    control: int
    target: int
    KIND = "CNOT"

    def _shape(self) -> tuple[int, Optional[str]]:
        return _pair_shape(self.control, self.target)


@dataclass(frozen=True)
class Swap(_GateText):
    a: int
    b: int
    KIND = "SWAP"

    def _shape(self) -> tuple[int, Optional[str]]:
        return _pair_shape(self.a, self.b)


@dataclass(frozen=True)
class ZcSwap(_GateText):
    """Swap a and b on molecules whose zero_control bit reads 0."""

    zero_control: int
    a: int
    b: int
    KIND = "ZCSWAP"

    def _shape(self) -> tuple[int, Optional[str]]:
        z, a, b = self.zero_control, self.a, self.b
        if z < 0 or a < 0 or b < 0:
            return -1, "negative position"
        if z == a or z == b or a == b:
            return -1, "operands must be pairwise distinct"
        if abs(a - b) > 1:
            return -1, "swap operands farther than 1 apart"
        if abs(z - a) > 1 and abs(z - b) > 1:
            return -1, "control not adjacent to swap operands"
        return max(z, a, b), None


@dataclass(frozen=True)
class Reset(_GateText):
    """Column-wise reset: swap [start, start+length) with the RRTR row."""

    start: int
    length: int
    KIND = "RESET"

    def _shape(self) -> tuple[int, Optional[str]]:
        return _span_shape(self.start, self.length)  # column-wise: no adjacency


Gate = Union[Cnot, Swap, ZcSwap, Reset]


@dataclass(frozen=True)
class Annotation(_Item):
    """A non-gate schedule item, written as ``# TAG: field=value ...``."""

    TAG = ""

    def line(self) -> str:
        pairs = " ".join(f"{f.name}={getattr(self, f.name)}" for f in fields(self))
        return f"# {self.TAG}: {pairs}"

    def _shape(self) -> tuple[int, Optional[str]]:
        return -1, None  # a marker names no positions


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

    def _shape(self) -> tuple[int, Optional[str]]:
        if self.m < 1 or self.m % 2:
            return -1, "m must be a positive even count"
        top, err = _span_shape(self.nu, self.m)
        if err is None and not 0 <= self.nu0 <= self.nu:
            err = "push target not in [0, nu]"
        return top, err


@dataclass(frozen=True)
class Count(Annotation):
    """Record the purified run at ``at`` after round ``round`` of a level."""

    level: int
    at: int
    round: int
    TAG = "count"

    def _shape(self) -> tuple[int, Optional[str]]:
        if self.level < 1 or self.round < 1:
            return -1, "level and round must be >= 1"
        return _span_shape(self.at, 1)


@dataclass(frozen=True)
class Cut(Annotation):
    """Truncate a level's output at ``at`` to its first m bits."""

    level: int
    at: int
    m: int
    TAG = "cut"

    def _shape(self) -> tuple[int, Optional[str]]:
        if self.level < 1:
            return -1, "level must be >= 1"
        return _span_shape(self.at, self.m)


class Census(NamedTuple):
    """The shape of a schedule, which every run of it shares."""

    steps: int  # one per gate, a RESET of any width included
    resets: int  # RESET gates
    reset_rows: int  # fresh rows a run's RESETs draw from the thermal source
    marks: tuple[Union[Count, Cut], ...]  # where rounds end and cuts fall, in order


_STEP_ONLY = frozenset({Cnot, Swap, ZcSwap})  # the bulk, skipped by a cheap exact-type test


@dataclass(frozen=True)
class Schedule:
    """An ordered, data-independent, immutable sequence of gates plus
    annotations. ``items`` becomes a tuple on construction, so the
    ``census`` counted by the first use stays true."""

    items: tuple[Union[Gate, Annotation], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))  # a tuple is kept as is

    @cached_property
    def census(self) -> Census:
        """The schedule's steps, RESETs, reset rows and ``Count``/``Cut``
        marks, counted in one pass on first use."""
        rare = [it for it in self.items if type(it) not in _STEP_ONLY]
        notes = [it for it in rare if isinstance(it, Annotation)]
        resets = [it for it in rare if isinstance(it, Reset)]
        marks = tuple(it for it in notes if isinstance(it, (Count, Cut)))
        return Census(len(self.items) - len(notes), len(resets),
                      sum(r.length for r in resets), marks)


def _pack_rows(packed: np.ndarray) -> list[int]:
    """Byte rows (rows, bytes), as ``np.packbits(..., bitorder="little")``
    packs each row's molecules, as one int bitset a row: bit k is molecule k."""
    return [int.from_bytes(row, "little") for row in packed]


def _unpack_ints(ints: list[int], n_mol: int) -> np.ndarray:
    """Int bitsets as uint8 bits (len(ints), molecules)."""
    width = (n_mol + 7) // 8
    raw = np.frombuffer(b"".join(x.to_bytes(width, "little") for x in ints), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(ints), width), axis=1, bitorder="little")[:, :n_mol]


class Register:
    """Batched ladder register: bit and flag planes, plus the RRTR row.

    A Register is a single-owner mutable value; distinct registers are
    independent. ``bits`` and ``flags`` are lists of non-negative ints,
    indexed by physical row: bit k of ``bits[r]`` is molecule k's bit in
    row r, and the same bit of ``flags[r]`` its purified flag, set for
    every fresh bit. No int has a bit at or above ``num_molecules`` set;
    ``full`` is the int with every molecule's bit set. ``rows`` maps each
    logical position to its physical row; gates, their checks and every
    view speak of logical positions. ``rrtr`` is a list of such ints,
    indexed by logical position.

    ``comp`` and ``fresh`` hold rows of the same kind, as ``_pack_rows``
    makes them. ``fresh`` is the register's one thermal source: the RRTR
    row starts as its first n rows, and each RESET takes the next rows in
    order; a source that runs dry raises.

    A gate cannot be built with negative or repeated operands, or off
    neighbouring positions of the ladder (a RESET is column-wise and needs
    no neighbours); before it acts, it is checked only to fit the register.
    """

    def __init__(self, comp: list[int], num_molecules: int, *, fresh: Iterable[int]):
        self.n = len(comp)
        self.num_molecules = num_molecules
        self.full = (1 << num_molecules) - 1
        self.bits = [x & self.full for x in comp]
        self.flags = [self.full] * self.n
        self.rows = list(range(self.n))
        self._fresh = iter(fresh)
        self.rrtr = self.draw_reset_rows(self.n)

    # -- thermal source -------------------------------------------------

    def draw_reset_rows(self, length: int) -> list[int]:
        """The next ``length`` rows of the thermal source."""
        rows = [x & self.full for x in islice(self._fresh, length)]
        if len(rows) < length:
            raise GateError("reset bit source exhausted")
        return rows

    # -- views ----------------------------------------------------------

    def comp_bit_rows(self, start: int, stop: int) -> np.ndarray:
        """Computation bits of logical positions [start, stop) as uint8
        (rows, molecules)."""
        return _unpack_ints([self.bits[r] for r in self.rows[start:stop]], self.num_molecules)

    def purified_run_length(self, start: int, max_rows: int) -> np.ndarray:
        """Per-molecule length of the contiguous run of flagged positions
        beginning at ``start``, at most ``max_rows``."""
        if start < 0:  # a negative start would wrap to the far end
            raise ValueError(f"start must be >= 0, got {start}")
        flags, run, ands = self.flags, self.full, []
        for r in self.rows[start : start + max_rows]:
            run &= flags[r]
            if not run:  # every molecule's run has ended
                break
            ands.append(run)
        return _unpack_ints(ands, self.num_molecules).sum(axis=0, dtype=np.int64)


# -- gate application ---------------------------------------------------


def _cnot(reg: Register, gate: Cnot) -> None:
    rows, bits, flags = reg.rows, reg.bits, reg.flags
    c, t = rows[gate.control], rows[gate.target]
    bc = bits[c]
    flags[c] &= flags[t] & (reg.full ^ bc ^ bits[t])  # kept: both purified and equal
    bits[t] ^= bc
    flags[t] = 0  # the supervisor is never purified


def _swap(reg: Register, gate: Swap) -> None:
    rows = reg.rows
    rows[gate.a], rows[gate.b] = rows[gate.b], rows[gate.a]


def _zcswap(reg: Register, gate: ZcSwap) -> None:
    rows, bits, flags = reg.rows, reg.bits, reg.flags
    a, b = rows[gate.a], rows[gate.b]
    fires = reg.full ^ bits[rows[gate.zero_control]]  # molecules whose control reads 0
    diff = (bits[a] ^ bits[b]) & fires
    bits[a] ^= diff
    bits[b] ^= diff
    diff = (flags[a] ^ flags[b]) & fires
    flags[a] ^= diff
    flags[b] ^= diff


def _reset(reg: Register, gate: Reset) -> None:
    start, stop = gate.start, gate.start + gate.length
    fresh = reg.draw_reset_rows(gate.length)
    for r, old in zip(reg.rows[start:stop], reg.rrtr[start:stop]):
        reg.bits[r] = old
        reg.flags[r] = reg.full
    reg.rrtr[start:stop] = fresh


_EXECUTORS = {Cnot: _cnot, Swap: _swap, ZcSwap: _zcswap, Reset: _reset}


def apply_gate(reg: Register, gate: Gate) -> None:
    """Check that one gate fits the register, then apply it in place."""
    execute = _EXECUTORS.get(type(gate))
    if execute is None:
        raise GateError(f"unknown gate {gate!r}")
    if gate.top >= reg.n:  # its shape was checked when it was built
        raise GateError(gate.check(reg.n))
    execute(reg, gate)


def validate_schedule(schedule: Schedule, n: int) -> list[str]:
    """Pure static check that every item fits an n-position register; no
    execution. Adjacency and the other shape rules hold for every item
    from the moment it is built, so only the highest position each gate,
    ``Bcs``, ``Count`` or ``Cut`` names is compared with n, as
    ``apply_gate`` compares it. Returns the list of violations (empty
    means ok): one message per failing occurrence, in schedule order.
    """
    return [item.check(n) for item in schedule.items if item.top >= n]


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
        args = [int(v) for _, v in pairs]
    except ValueError as exc:
        raise ValueError(f"line {lineno}: malformed {tag} annotation") from exc
    return cls(*args)


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
    Each distinct item object is formatted once, with its newline."""
    items = schedule.items
    line = {key: item.line() + "\n" for key, item in dict(zip(map(id, items), items)).items()}
    return "".join(map(line.__getitem__, map(id, items)))


_SLICE_CHARS = 1 << 20  # a parse holds the line strings of about this much text


def _split_lines(text: str, size: int = _SLICE_CHARS) -> Iterator[str]:
    """The lines of ``text.splitlines()``, split one slice at a time. Each
    slice holds at least ``size`` characters and ends just after a
    newline, which always ends a line (after any carriage return before
    it), so no line or line break straddles two slices."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start + size - 1) + 1 or len(text)
        yield from text[start:stop].splitlines()
        start = stop


def schedule_from_text(text: str) -> Schedule:
    """Parse the text format back; bit-exact round trip with to_text.

    Each distinct line is parsed once per call, and every occurrence of it
    is the same object. A malformed line, an ill-formed gate or annotation
    included, raises at its first occurrence, naming its line number.
    Lines are split a slice of the text at a time, so they are never all
    held at once.
    """
    items: list[Union[Gate, Annotation]] = []
    parsed: dict[str, Union[Gate, Annotation]] = {}  # raw line -> its item
    for lineno, raw in enumerate(_split_lines(text), start=1):
        item = parsed.get(raw)
        if item is None:
            line = raw.strip()
            if not line:
                continue
            try:
                item = parsed[raw] = _parse_line(line, lineno)
            except GateError as exc:  # an ill-formed gate or annotation
                raise ValueError(f"line {lineno}: {exc}") from exc
        items.append(item)
    return Schedule(items)
