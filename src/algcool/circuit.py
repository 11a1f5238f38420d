"""Classical reversible-gate engine over per-molecule bit registers.

The model is a ladder: a row of computation bits and a parallel row of
rapidly-relaxing reset (RRTR) bits. Gates are CNOT, SWAP, a
zero-controlled SWAP, and a column-wise RESET that swaps computation
bits with their thermal neighbours.

Each position also carries a provenance tag: a purification level
0..253, ``PROV_DIRTY`` or ``PROV_SUPERVISOR``. Tags travel with bits
through SWAP/ZCSWAP; CNOT is the compression comparator and rewrites the
tags of its operands; RESET restores tags to level 0. Tags never
influence bit values.

For throughput the register is batched and packed: position i holds its
bit and the ``TAG_BITS`` bits of its tag as planes, each a machine-word
bitset across all molecules, so one gate is a handful of word-wide
boolean operations on bits and tags together, whatever the batch size.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional, Union

import numpy as np

__all__ = [
    "TAG_BITS",
    "PROV_DIRTY",
    "PROV_SUPERVISOR",
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

TAG_BITS = 8
PROV_DIRTY = 254
PROV_SUPERVISOR = 255

#: _TAG_PLANES[tag] is a (TAG_BITS, 1) column of all-zero/all-one words.
_TAG_BITS_OF = (np.arange(1 << TAG_BITS)[:, None] >> np.arange(TAG_BITS)) & 1
_TAG_PLANES = (-_TAG_BITS_OF).astype(np.uint64)[..., None]


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


@dataclass(frozen=True)
class Swap:
    a: int
    b: int
    KIND = "SWAP"

    def positions(self) -> tuple[int, ...]:
        return (self.a, self.b)

    def line(self) -> str:
        return f"SWAP {self.a} {self.b}"


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


Gate = Union[Cnot, Swap, ZcSwap, Reset]


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
    """Record the level-tagged run at ``at`` after round ``round`` of a level."""

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

    def step_total(self, costs: Optional[dict[str, int]] = None) -> int:
        """Time steps of a run; the schedule is data-independent, so every
        run takes exactly this many."""
        costs = costs if costs is not None else DEFAULT_GATE_COSTS
        return sum(costs[g.KIND] for g in self.items if not isinstance(g, Annotation))

    def reset_rows(self) -> int:
        """Total fresh rows a run will draw from the reset pool."""
        return sum(g.length for g in self.items if isinstance(g, Reset))


#: One time step per gate; a RESET of any width is one parallel step.
DEFAULT_GATE_COSTS = {"CNOT": 1, "SWAP": 1, "ZCSWAP": 1, "RESET": 1}


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
    """Batched ladder register: packed bits and tags, plus the RRTR row.

    A Register is a single-owner mutable value; distinct registers are
    independent. ``state`` is packed uint64 of shape (n, 1 + TAG_BITS,
    words): plane 0 of position i is its bit, plane 1 + k is bit k of its
    tag. ``rrtr`` is packed (n, words).
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
        self.state = np.zeros((self.n, 1 + TAG_BITS, comp.shape[1]), dtype=np.uint64)
        self.state[:, 0] = comp
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
        """Unpacked computation bits for [start, stop) as uint8 (rows, molecules)."""
        return _unpack_rows(self.state[start:stop, 0], self.num_molecules)

    def tag_rows(self, start: int, stop: int) -> np.ndarray:
        """Provenance tags for [start, stop) as uint8 (rows, molecules)."""
        planes = _unpack_rows(self.state[start:stop, 1:], self.num_molecules)
        return np.packbits(planes, axis=1, bitorder="little")[:, 0]

    def molecule_bits(self, index: int = 0) -> list[int]:
        """All computation bits of one molecule, as a plain list."""
        return self.comp_bit_rows(0, self.n)[:, index].tolist()

    def purified_run_length(self, start: int, level: int, max_rows: int) -> np.ndarray:
        """Per-molecule length of the contiguous run of ``level``-tagged
        positions beginning at ``start``."""
        block = self.state[start : min(start + max_rows, self.n), 1:]
        match = ~np.bitwise_or.reduce(block ^ _TAG_PLANES[level], axis=1)
        run = np.bitwise_and.accumulate(match, axis=0)
        return _unpack_rows(run, self.num_molecules).sum(axis=0, dtype=np.int64)


# -- gate application ---------------------------------------------------


def _adjacency_violation(gate: Gate) -> Optional[str]:
    if isinstance(gate, (Cnot, Swap)):
        i, j = gate.positions()
        if abs(i - j) > 1:
            return f"{gate.line()}: operands farther than 1 apart"
    elif isinstance(gate, ZcSwap):
        if abs(gate.a - gate.b) > 1:
            return f"{gate.line()}: swap operands farther than 1 apart"
        if min(abs(gate.zero_control - gate.a), abs(gate.zero_control - gate.b)) > 1:
            return f"{gate.line()}: control not adjacent to swap operands"
    return None  # RESET is column-wise, no row adjacency


def _range_violation(gate: Gate, n: int) -> Optional[str]:
    pos = gate.positions()
    if not pos:
        return f"{gate.line()}: empty"
    if min(pos) < 0 or max(pos) >= n:
        return f"{gate.line()}: position out of range for n={n}"
    if not isinstance(gate, Reset) and len(set(pos)) != len(pos):
        return f"{gate.line()}: operands must be pairwise distinct"
    return None


def apply_gate(reg: Register, gate: Gate) -> None:
    """Apply one gate in place."""
    err = _range_violation(gate, reg.n)
    if err is None and reg.strict:
        err = _adjacency_violation(gate)
    if err is not None:
        raise GateError(err)

    if isinstance(gate, Cnot):
        c, t = reg.state[gate.control], reg.state[gate.target]
        # kept iff bits and tags are equal and the tag is a level below DIRTY
        kept = ~(np.bitwise_or.reduce(c ^ t, axis=0) | np.bitwise_and.reduce(c[2:], axis=0))
        # a kept level steps up by one, a ripple carry (253 carries into DIRTY)
        carry = np.bitwise_and.accumulate(np.concatenate(([kept], c[1:TAG_BITS])), axis=0)
        c[1:] = ((c[1:] ^ carry) & kept) | (_TAG_PLANES[PROV_DIRTY] & ~kept)
        t[0] ^= c[0]
        t[1:] = _TAG_PLANES[PROV_SUPERVISOR]
    elif isinstance(gate, Swap):
        a = reg.state[gate.a].copy()
        reg.state[gate.a] = reg.state[gate.b]
        reg.state[gate.b] = a
    elif isinstance(gate, ZcSwap):
        a, b = reg.state[gate.a], reg.state[gate.b]
        diff = (a ^ b) & ~reg.state[gate.zero_control, 0]
        a ^= diff
        b ^= diff
    elif isinstance(gate, Reset):
        rows = slice(gate.start, gate.start + gate.length)
        fresh = reg.draw_reset_rows(gate.length)
        reg.state[rows, 0] = reg.rrtr[rows]
        reg.state[rows, 1:] = 0
        reg.rrtr[rows] = fresh
    else:
        raise GateError(f"unknown gate {gate!r}")


def run_schedule(reg: Register, schedule: Schedule) -> None:
    """Apply every gate of a schedule in order, skipping annotations."""
    for item in schedule.items:
        if not isinstance(item, Annotation):
            apply_gate(reg, item)


def validate_schedule(
    schedule: Schedule, n: int, *, strict: bool = True
) -> list[str]:
    """Pure static check of index ranges and adjacency; no execution.

    Returns the list of violations (empty means ok).
    """
    violations = []
    for g in schedule.gates():
        err = _range_violation(g, n)
        if err is None and strict:
            err = _adjacency_violation(g)
        if err is not None:
            violations.append(err)
    return violations


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


def schedule_to_text(schedule: Schedule) -> str:
    """Line-oriented text form, one gate per line; annotations as comments."""
    lines = [item.line() for item in schedule.items]
    return "\n".join(lines) + "\n" if lines else ""


def schedule_from_text(text: str) -> Schedule:
    """Parse the text format back; bit-exact round trip with to_text."""
    items: list[Union[Gate, Annotation]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            items.append(_parse_annotation(line[1:].strip(), lineno))
            continue
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
        items.append(build(*args))
    return Schedule(items)
