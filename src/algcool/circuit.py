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

For throughput the register is batched and holds one row per position:
a Python int used as a bitset across all W molecules, the bits in its low
W bits (bit k is molecule k) and their flags in the next W. A gate is a
handful of native int operations that move a bit and its flag together,
whatever the batch size; a SWAP exchanges two list entries, which moves
references, never bits. Rows enter and leave as int bitsets, bit k
molecule k, and a purified run leaves in unary, as one bitset per length
(``purified_run_length``). The computation bits, the RRTR row and every
RESET's fresh rows are read in that order from one thermal source, as
every spin is a draw from one heat bath; a simulated molecule's bit is one
Philox word below one integer threshold.

A compression round also runs fused, bit-sliced (Biham, FSE 1997):
``apply_bcs`` leaves every row its ~m^2 gates would leave. It sorts the
m/2 pairs' candidates with one masked rotation per pair over their rows
alone, counts the agreed pairs F as bit-sliced binary digits, and moves
the purified prefix the round pushes past once, by a barrel shift of F.

A ``Schedule`` is held as its blocks, an ordered tuple of item tuples, and
a block that recurs is one shared tuple: the recursive cooling repeats its
compression blocks ell^j times. Its validation and its text are worked
out once per distinct block and combined in block order, and an item
formats its line once. A parse cuts the text at annotation lines and
shares each chunk that recurs, so a parsed schedule is blocked as a
compiled one is. A table parses each distinct line on first lookup; a
line seen before is one dict lookup in C.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain
from operator import attrgetter
from typing import (
    Callable, Iterable, Iterator, Optional, Sequence, TypeVar, Union, get_args,
)

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
    "apply_bcs",
    "validate_schedule",
    "schedule_to_text",
    "schedule_from_text",
]

class GateError(ValueError):
    """A schedule item is ill-formed, or does not fit its register."""


class _Item:
    """What every schedule item shares: its shape is checked once, when it
    is built, and ``top`` (not a dataclass field) is its highest position,
    or -1 when it names none. Fitting a register is then one comparison.
    ``text_line``, its line and newline, is formatted once, on first use."""

    def __post_init__(self):
        top, error = self._shape()
        if error is not None:
            raise GateError(f"{self.line()}: {error}")
        object.__setattr__(self, "top", top)

    def line(self) -> str:
        return " ".join([self.KIND, *(str(getattr(self, f.name)) for f in fields(self))])

    def check(self, n: int) -> str:
        """Why the item does not fit an n-position register; asked when top >= n."""
        return f"{self.line()}: position out of range for n={n}"

    @cached_property
    def text_line(self) -> str:
        return self.line() + "\n"


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


@dataclass(frozen=True)
class Cnot(_Item):
    control: int
    target: int
    KIND = "CNOT"

    def _shape(self) -> tuple[int, Optional[str]]:
        return _pair_shape(self.control, self.target)


@dataclass(frozen=True)
class Swap(_Item):
    a: int
    b: int
    KIND = "SWAP"

    def _shape(self) -> tuple[int, Optional[str]]:
        return _pair_shape(self.a, self.b)


@dataclass(frozen=True)
class ZcSwap(_Item):
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
class Reset(_Item):
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


_GATE_KINDS = frozenset(get_args(Gate))

T = TypeVar("T")
Block = tuple[Union[Gate, Annotation], ...]


def _per_block(blocks: tuple[Block, ...], work: Callable[[Block], T]) -> list[T]:
    """``work`` of every block in order, done once per distinct block object."""
    distinct = {id(block): block for block in blocks}  # ``blocks`` keeps each one alive
    done = {key: work(block) for key, block in distinct.items()}
    return [done[id(block)] for block in blocks]


@dataclass(frozen=True, init=False, eq=False)
class Schedule:
    """An ordered, data-independent, immutable sequence of gates plus
    annotations, held as its blocks: ``Schedule(*blocks)`` keeps each
    block as a tuple of items, and a block that recurs is one shared tuple
    object. ``validate_schedule`` and ``schedule_to_text`` do their
    per-item work once per distinct block. ``items`` is the flat
    sequence, built on each use; two schedules are equal when their items
    are, however they are blocked."""

    blocks: tuple[Block, ...]

    def __init__(self, *blocks: Iterable[Union[Gate, Annotation]]):
        object.__setattr__(self, "blocks", tuple(map(tuple, blocks)))  # a tuple is kept as is

    @property
    def items(self) -> Block:
        return tuple(chain.from_iterable(self.blocks))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self.items == other.items

    def __hash__(self) -> int:
        return hash(self.items)


class Register:
    """Batched ladder register: one row per position, plus the RRTR row.

    A Register is a single-owner mutable value; distinct registers are
    independent. ``rows`` and ``rrtr`` are lists of non-negative ints,
    indexed by position, with W = ``num_molecules``. Bit k of ``rows[p]``
    is molecule k's bit at position p, and bit W + k its purified flag, set
    for every fresh bit; bit k of ``rrtr[p]`` is its RRTR bit. ``full`` is
    the int with every molecule's bit set and ``flagged`` is ``full << W``,
    so ``rows[p] & full`` is the bit plane and ``rows[p] >> W`` the flag
    plane. No row has a bit at or above 2W set, and no RRTR int one at or
    above W.

    ``source`` is the register's one thermal source, its rows packed to
    bytes: a 2-D uint8 array of rows of at least ceil(W / 8) bytes, bit k
    of byte k // 8 (least significant first) molecule k, as
    ``np.packbits(..., axis=1, bitorder="little")`` packs bool rows. It is
    read in order: the computation bits are its first n rows, the RRTR row
    the next n, and each RESET takes the rows after. The register holds
    the source as it is and makes a row's int as it reads it; bits past
    molecule W - 1 are dropped. A source that runs dry raises.
    ``Register.holding`` makes a register of whole rows and no source.

    A gate cannot be built with negative or repeated operands, or off
    neighbouring positions of the ladder (a RESET is column-wise and needs
    no neighbours); before it acts, it is checked only to fit the register.
    """

    def __init__(self, n: int, num_molecules: int, source: Sequence):
        self.n = n
        self.num_molecules = num_molecules
        self.full = (1 << num_molecules) - 1
        self.flagged = self.full << num_molecules
        self._source, self._drawn = source, 0
        self.rows = [x | self.flagged for x in self.draw_reset_rows(n)]
        self.rrtr = self.draw_reset_rows(n)

    @classmethod
    def holding(cls, rows: list[int], num_molecules: int) -> "Register":
        """A register whose positions hold ``rows`` as they are, bits and
        flags, with a zero RRTR row and an empty thermal source, so that a
        RESET on it raises."""
        reg = cls(0, num_molecules, ())
        reg.n, reg.rows, reg.rrtr = len(rows), rows, [0] * len(rows)
        return reg

    # -- thermal source -------------------------------------------------

    def draw_reset_rows(self, length: int) -> list[int]:
        """The next ``length`` rows of the thermal source, as int bitsets."""
        rows = self._source[self._drawn : self._drawn + length]
        if len(rows) < length:
            raise GateError("reset bit source exhausted")
        self._drawn += length
        return [int.from_bytes(row, "little") & self.full for row in rows]

    # -- views ----------------------------------------------------------

    def comp_bit_rows(self, start: int, stop: int) -> list[int]:
        """Computation bits of positions [start, stop), one int bitset a row."""
        if start < 0:  # a negative start would wrap to the far end
            raise ValueError(f"start must be >= 0, got {start}")
        if stop > self.n:  # a slice would silently return fewer rows
            raise ValueError(f"stop must be <= n={self.n}, got {stop}")
        return [row & self.full for row in self.rows[start:stop]]

    def purified_run_length(self, start: int, max_rows: int) -> list[int]:
        """The run of flagged positions beginning at ``start``, at most
        ``max_rows`` long, in unary: entry i is the bitset of molecules
        whose run is longer than i, so the entries nest and none is empty."""
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start}")
        run, ands = self.flagged, []
        for row in self.rows[start : start + max_rows]:
            run &= row
            if not run:  # every molecule's run has ended
                break
            ands.append(run >> self.num_molecules)
        return ands


# -- gate application ---------------------------------------------------


def apply_gate(reg: Register, gate: Gate) -> None:
    """Check that one gate fits the register, then apply it in place."""
    kind = type(gate)
    if kind not in _GATE_KINDS:
        raise GateError(f"unknown gate {gate!r}")
    if gate.top >= reg.n:  # its shape was checked when it was built
        raise GateError(gate.check(reg.n))
    rows, full = reg.rows, reg.full
    if kind is Swap:
        a, b = gate.a, gate.b
        rows[a], rows[b] = rows[b], rows[a]
    elif kind is ZcSwap:
        a, b = gate.a, gate.b
        fires = full ^ rows[gate.zero_control] & full  # molecules whose control reads 0
        diff = (rows[a] ^ rows[b]) & (fires | fires << reg.num_molecules)
        rows[a] ^= diff
        rows[b] ^= diff
    elif kind is Cnot:
        c, t = gate.control, gate.target
        supervisor = (rows[c] ^ rows[t]) & full  # unflagged: never purified
        rows[c] &= full | rows[t] & (full ^ supervisor) << reg.num_molecules  # kept if equal
        rows[t] = supervisor
    else:  # a RESET swaps in the RRTR row, flagged, then refills it from the source
        start, stop = gate.start, gate.start + gate.length
        fresh = reg.draw_reset_rows(gate.length)
        rows[start:stop] = [x | reg.flagged for x in reg.rrtr[start:stop]]
        reg.rrtr[start:stop] = fresh


def apply_bcs(reg: Register, bcs: Bcs) -> None:
    """Check that one compression fits the register, then apply it in
    place, leaving every row ``compile_bcs(bcs.m, bcs.nu, bcs.nu0)``'s
    gates would leave.

    Pair k, of h = m/2, reads the rows at nu + 2k and nu + 2k + 1, which
    earlier pairs' gates move k places left but never change. Its
    supervisor, the XOR of its bits, parks unflagged at nu + m - 1 - k; its
    candidate is its left bit, flagged if both operands were and agreed.
    Count from nu0, with L = nu - nu0 and F_{>k} the per-molecule count of
    pairs after k that agree (F of all pairs). Each escort moves an agreed
    candidate down to nu0 and every row it passes up one. So an agreed
    candidate k ends at F_{>k}; prefix row i at F + i; any other candidate
    k at L + k + F_{>k}, after the F agreed ones, the prefix and the
    k - F_{<k} others of earlier pairs.

    One masked rotation per pair over the candidate rows alone sorts them:
    sorted row s holds the agreed candidate with F_{>k} = s where s < F,
    else the other with k + F_{>k} = s. A third plane of each candidate
    row, at bits [2W, 3W), marks an agreed pair and tells the two apart. F
    is counted as bit-sliced binary digits (Biham, FSE 1997), and the
    prefix moves once, by a barrel shift over them.
    """
    if bcs.top >= reg.n:  # its shape was checked when it was built
        raise GateError(bcs.check(reg.n))
    rows, full, w = reg.rows, reg.full, reg.num_molecules
    nu, nu0, m, h = bcs.nu, bcs.nu0, bcs.m, bcs.m // 2
    left, right = rows[nu : nu + m : 2], rows[nu + 1 : nu + m : 2]
    supervisors = [(a ^ b) & full for a, b in zip(left, right)]
    candidates, digits = [], [0] * h.bit_length()  # sorted; F <= h as binary digits
    for a, b, supervisor in zip(left, right, supervisors):
        agree = full ^ supervisor
        third = agree << 2 * w
        candidates.append(a & (full | b & agree << w) | third)
        fires = agree | agree << w | third
        candidates = [cur ^ ((cur ^ prev) & fires)  # agreed: to slot 0, the rest up one
                      for cur, prev in zip(candidates, candidates[-1:] + candidates[:-1])]
        for j, digit in enumerate(digits):  # F += 1 where the pair agreed
            digits[j], agree = digit ^ agree, digit & agree
            if not agree:
                break
    pushed = nu - nu0  # L, the prefix's length
    region = rows[nu0:nu] + [0] * h  # [nu0, nu + h): the prefix, then the candidates
    for j, digit in enumerate(digits if pushed else ()):  # the prefix moves up by F
        if digit:
            shift, mask = 1 << j, digit | digit << w
            region = [cur ^ ((cur ^ prev) & mask) for cur, prev in
                      zip(region, [0] * shift + region)]
    for s, row in enumerate(candidates):
        agreed = row >> 2 * w
        kept = row & (agreed | agreed << w)
        region[s] |= kept
        region[pushed + s] |= row ^ kept ^ agreed << 2 * w
    rows[nu0 : nu + h] = region
    rows[nu + h : nu + m] = supervisors[::-1]


def validate_schedule(schedule: Schedule, n: int) -> list[str]:
    """Pure static check that every item fits an n-position register; no
    execution. Adjacency and the other shape rules hold for every item
    from the moment it is built, so only the highest position each gate,
    ``Bcs``, ``Count`` or ``Cut`` names is compared with n, as
    ``apply_gate`` compares it, once per distinct block. Returns the list
    of violations (empty means ok): one message per failing occurrence,
    in schedule order.
    """
    def violations(block: Block) -> list[str]:
        return [item.check(n) for item in block if item.top >= n]

    return list(chain.from_iterable(_per_block(schedule.blocks, violations)))


# -- serialization ------------------------------------------------------

_GATES = {cls.KIND: (cls, len(fields(cls))) for cls in (Cnot, Swap, ZcSwap, Reset)}

_ANNOTATIONS = {cls.TAG: cls for cls in (Bcs, Count, Cut)}


def _parse_annotation(body: str) -> Annotation:
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
        raise ValueError(f"malformed {tag} annotation") from exc
    return cls(*args)


def _parse_line(line: str) -> Union[Gate, Annotation]:
    """One stripped, non-blank line of the text format; raises ValueError."""
    if line.startswith("#"):
        return _parse_annotation(line[1:].strip())
    parts = line.split()
    kind = parts[0].upper()
    if kind not in _GATES:
        raise ValueError(f"unknown gate {parts[0]!r}")
    build, arity = _GATES[kind]
    if len(parts) - 1 != arity:
        raise ValueError(f"{kind} expects {arity} operands")
    try:
        args = [int(p) for p in parts[1:]]
    except ValueError as exc:
        raise ValueError("non-integer operand") from exc
    return build(*args)


def schedule_to_text(schedule: Schedule) -> str:
    """Line-oriented text form, one gate per line; annotations as comments.
    Each item's ``text_line`` is formatted once. A block that recurs is
    joined once and its text reused; the lines of a block that occurs once
    go straight into the one final join, so no second copy of them is held."""
    recurs = {key for key, n in Counter(map(id, schedule.blocks)).items() if n > 1}

    def lines(block: Block) -> Iterable[str]:
        text_lines = map(attrgetter("text_line"), block)
        return ("".join(text_lines),) if id(block) in recurs else text_lines

    return "".join(chain.from_iterable(_per_block(schedule.blocks, lines)))


_CHUNK_CHARS = 1 << 20  # a parse holds the line strings of at most about this much text


def _chunks(text: str, size: int = _CHUNK_CHARS) -> Iterator[tuple[int, int]]:
    """``(start, stop)`` spans that cut ``text`` into chunks of whole lines.
    A chunk ends just before the next line that starts with ``#``, or once
    it holds at least ``size`` characters. Either way it ends just after a
    newline, which always ends a line (after any carriage return before
    it), so the chunks' lines are the lines of ``text.splitlines()``."""
    start = 0
    while start < len(text):
        limit = text.find("\n", start + size - 1) + 1 or len(text)
        stop = text.find("#", start + 1, limit)
        while stop > 0 and text[stop - 1] != "\n":  # one-character search: skip mid-line #
            stop = text.find("#", stop + 1, limit)
        stop = stop if stop > 0 else limit
        yield start, stop
        start = stop


class _LineTable(dict):
    """Raw line -> its item, or None if blank; a new line is parsed on first lookup."""

    def __missing__(self, raw: str) -> Optional[Union[Gate, Annotation]]:
        line = raw.strip()
        item = self[raw] = _parse_line(line) if line else None
        return item


def schedule_from_text(text: str) -> Schedule:
    """Parse the text format back; bit-exact round trip with to_text.

    The text is cut into chunks, each an annotation line and the gate
    lines after it (at most about 1 MB), and each chunk becomes one block.
    A chunk whose text recurs is parsed once, and every occurrence of it
    is the same block, so a parsed schedule shares its compression blocks
    as a compiled one does. A distinct chunk's lines are looked up in a
    table that parses a line on first lookup, so each distinct line is
    parsed once per call and every occurrence of it is one object. A
    malformed line, an ill-formed item included, raises at its first
    occurrence, naming its line number. One chunk's lines are held at once.
    """
    blocks: list[Block] = []
    table = _LineTable()
    seen: dict[tuple[int, int], tuple[int, Block, int]] = {}  # -> first start, block, line count
    lineno = 0
    for start, stop in _chunks(text):
        chunk = text[start:stop]
        key = hash(chunk), len(chunk)  # a hit is confirmed against the text
        hit = seen.get(key)
        if hit is None or not text.startswith(chunk, hit[0]):
            lines = chunk.splitlines()
            del chunk  # hold one chunk's text or its lines, never two chunks' lines
            try:
                hit = start, tuple(filter(None, map(table.__getitem__, lines))), len(lines)
            except ValueError as exc:  # raised at the first line the table lacks
                bad = next(raw for raw in lines if raw not in table)
                raise ValueError(f"line {lineno + lines.index(bad) + 1}: {exc}") from exc
            seen.setdefault(key, hit)
            del lines
        blocks.append(hit[1])
        lineno += hit[2]
    return Schedule(*blocks)
