"""Gate-engine tests: semantics, provenance, accounting, serialization."""

import dataclasses
import itertools
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from algcool import circuit, compression
from algcool.analytic import CoolingPlan
from algcool.circuit import (
    Annotation,
    Bcs,
    Cnot,
    Count,
    Cut,
    GateError,
    Marker,
    Register,
    Reset,
    Schedule,
    Swap,
    ZcSwap,
    apply_bcs,
    apply_gate,
    schedule_from_text,
    schedule_to_text,
    _chunks,
    validate_schedule,
)
from algcool.compression import bcs_text
from algcool.cooling import compile_cooling, plan_census, run_cooling
from support import (
    bits_of, flag_rows, gates, observed, pack, packed, plain_census, planes, register, run_gates,
    run_lengths, set_flag_plane, unpack,
)


@pytest.fixture(scope="module")
def headline_text():
    """The headline plan's schedule text: 818,526 lines, 11.5 MB."""
    return schedule_to_text(compile_cooling(CoolingPlan(0.1, 50, 5, 3)))


@pytest.fixture(scope="module")
def swap_text():
    """300,000 SWAP lines at random positions and no annotation: 4.4 MB."""
    pick = random.Random(1).randrange
    return "".join(f"SWAP {i} {i + 1}\n" for i in (pick(10**4) for _ in range(300_000)))


def plain_text(schedule):
    """A schedule's text, every item's line formatted afresh, in order."""
    return "".join(item.line() + "\n" for item in schedule.items)


def single(bits, **kwargs):
    """One-molecule register from a plain bit list."""
    return register(np.array(bits, dtype=bool).reshape(-1, 1), **kwargs)


def as_int(row):
    """One row of bits as an int bitset: molecule k is bit k."""
    return sum(1 << k for k, bit in enumerate(row) if bit)


def set_flags(reg, flags):
    """Write purified flags (rows, molecules) into the flag plane of
    positions 0.., one int a row."""
    flags = np.asarray(flags, dtype=bool).reshape(-1, reg.num_molecules)
    set_flag_plane(reg, [as_int(row) for row in flags])


class TestGateSemantics:
    @pytest.mark.parametrize(
        "c,t,expect_c,expect_t",
        [(0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 1, 1), (1, 1, 1, 0)],
    )
    def test_cnot_truth_table(self, c, t, expect_c, expect_t):
        reg = single([c, t])
        apply_gate(reg, Cnot(0, 1))
        assert bits_of(reg) == [expect_c, expect_t]

    def test_swap(self):
        reg = single([1, 0])
        apply_gate(reg, Swap(0, 1))
        assert bits_of(reg) == [0, 1]
        apply_gate(reg, Swap(0, 1))
        assert bits_of(reg) == [1, 0]  # involution

    def test_zcswap_fires_on_zero_control(self):
        reg = single([0, 1, 0])
        apply_gate(reg, ZcSwap(0, 1, 2))
        assert bits_of(reg) == [0, 0, 1]

    def test_zcswap_idle_on_one_control(self):
        reg = single([1, 1, 0])
        apply_gate(reg, ZcSwap(0, 1, 2))
        assert bits_of(reg) == [1, 1, 0]

    def test_reset_swaps_in_rrtr_row(self):
        # the first three fresh rows are the RRTR row; the next three are
        # drawn into it by the RESET, not read back
        reg = single([1, 1, 1], fresh=[0] * 6)
        set_flags(reg, [0, 0, 0])
        apply_gate(reg, Reset(0, 3))
        assert bits_of(reg) == [0, 0, 0]  # rrtr row starts all zero
        assert (flag_rows(reg, 0, 3) == 1).all()
        # one source of distinct rows (4 molecules): the computation bits are
        # its first n rows, the RRTR row the next n, each RESET the rows after
        reg = Register(3, 4, packed(range(1, 14), 4))
        assert planes(reg) == ([1, 2, 3], [15] * 3, [4, 5, 6])
        set_flag_plane(reg, [0, 0, 0])
        apply_gate(reg, Reset(1, 2))
        assert planes(reg) == ([1, 5, 6], [0, 15, 15], [4, 7, 8])
        apply_gate(reg, Reset(0, 3))
        assert planes(reg) == ([4, 7, 8], [15] * 3, [9, 10, 11])
        assert reg.draw_reset_rows(2) == [12, 13]
        with pytest.raises(GateError, match="^reset bit source exhausted$"):
            reg.draw_reset_rows(1)

    def test_reset_without_source_raises(self):
        reg = single([1, 0])
        with pytest.raises(GateError):
            apply_gate(reg, Reset(0, 2))
        for rows in (0, 2, 5):  # a source shorter than 2n raises when the register is built
            with pytest.raises(GateError, match="^reset bit source exhausted$"):
                Register(3, 4, packed(range(1, 1 + rows), 4))


class TestProvenance:
    def test_cnot_comparator_on_equal_pair(self):
        reg = single([1, 1])
        apply_gate(reg, Cnot(0, 1))
        assert flag_rows(reg, 0, 2)[:, 0].tolist() == [1, 0]  # kept, supervisor

    def test_cnot_comparator_on_unequal_pair(self):
        reg = single([1, 0])
        apply_gate(reg, Cnot(0, 1))
        assert flag_rows(reg, 0, 2)[:, 0].tolist() == [0, 0]  # dirty, supervisor

    def test_unflagged_operand_is_dirty(self):
        for flags in ([1, 0], [0, 1], [0, 0]):
            reg = single([0, 0])
            set_flags(reg, flags)
            apply_gate(reg, Cnot(0, 1))
            assert flag_rows(reg, 0, 2)[:, 0].tolist() == [0, 0]

    def test_tags_travel_with_swaps(self):
        reg = single([0, 1, 0])
        set_flags(reg, [1, 1, 0])
        apply_gate(reg, Swap(1, 2))
        assert flag_rows(reg, 0, 3)[:, 0].tolist() == [1, 0, 1]
        apply_gate(reg, ZcSwap(0, 1, 2))  # control reads 0 -> fires
        assert flag_rows(reg, 0, 3)[:, 0].tolist() == [1, 1, 0]

    def test_purified_run_length(self):
        reg = single([0, 0, 0, 0, 0])
        set_flags(reg, [1, 1, 0, 1, 1])
        assert run_lengths(reg.purified_run_length(0, 5), 1)[0] == 2
        assert run_lengths(reg.purified_run_length(3, 5), 1)[0] == 2
        assert run_lengths(reg.purified_run_length(2, 5), 1)[0] == 0
        assert run_lengths(reg.purified_run_length(0, 1), 1)[0] == 1  # capped at max_rows


def ordered(i, j, flip):
    return (j, i) if flip else (i, j)


def reversible_gate(n):
    """A CNOT, SWAP or ZCSWAP on neighbouring positions of n >= 3, with its
    operands in either order and a ZCSWAP's control at either end of its pair."""
    pair = st.builds(lambda p, flip: ordered(p, p + 1, flip),
                     st.integers(0, n - 2), st.booleans())

    def zcswap(q, left, flip):  # the three neighbours q, q + 1, q + 2
        if left:
            return ZcSwap(q, *ordered(q + 1, q + 2, flip))
        return ZcSwap(q + 2, *ordered(q, q + 1, flip))

    zc = st.builds(zcswap, st.integers(0, n - 3), st.booleans(), st.booleans())
    return st.one_of(pair.map(lambda ab: Cnot(*ab)), pair.map(lambda ab: Swap(*ab)), zc)


def reversible_gates(n):
    return st.lists(reversible_gate(n), max_size=40)


class TestAlgebraicProperties:
    @settings(deadline=None)
    @given(st.lists(st.booleans(), min_size=6, max_size=6), reversible_gates(6))
    def test_reverse_sequence_restores_bits(self, bits, gates):
        reg = single(bits)
        for g in gates:
            apply_gate(reg, g)
        for g in reversed(gates):
            apply_gate(reg, g)
        assert bits_of(reg) == [int(b) for b in bits]

    @settings(deadline=None)
    @given(st.lists(st.booleans(), min_size=6, max_size=6), reversible_gates(6))
    def test_swaps_preserve_bit_multiset(self, bits, gates):
        reg = single(bits)
        before = sorted(bits_of(reg))
        for g in gates:
            if not isinstance(g, Cnot):
                apply_gate(reg, g)
        assert sorted(bits_of(reg)) == before


@st.composite
def engine_cases(draw):
    n = draw(st.integers(min_value=3, max_value=6))
    reset = st.integers(min_value=0, max_value=n - 1).flatmap(
        lambda start: st.builds(Reset, st.just(start), st.integers(1, n - start))
    )
    gates = draw(st.lists(st.one_of(reversible_gate(n), reset), max_size=30))
    n_mol = draw(st.sampled_from([1, 63, 64, 65, 130]))
    start = draw(st.integers(0, n - 1))
    return n, n_mol, gates, draw(st.integers(0, 2**32 - 1)), start


#: Level tags of the former 8-bit engine: levels 0..253, then these codes.
DIRTY, SUPERVISOR = 254, 255


def level_cnot(bc, bt, tc, tt):
    """A kept pair steps up one level; anything else is DIRTY."""
    kept = bc == bt and tc == tt and tc < DIRTY
    return (tc + 1 if kept else DIRTY), SUPERVISOR


def flag_cnot(bc, bt, fc, ft):
    """The control stays purified only if both were and their bits agreed."""
    return int(fc and ft and bc == bt), 0


#: (CNOT tag rule, tag of a reset bit) for each per-molecule model.
LEVEL_TAGS = (level_cnot, 0)
FLAGS = (flag_cnot, 1)


def model_gate(bits, tags, rrtr, gate, fresh, rule):
    """One gate on one molecule's plain lists, under ``LEVEL_TAGS`` or ``FLAGS``."""
    cnot, reset_tag = rule
    if isinstance(gate, Cnot):
        c, t = gate.control, gate.target
        tags[c], tags[t] = cnot(bits[c], bits[t], tags[c], tags[t])
        bits[t] ^= bits[c]
    elif isinstance(gate, Reset):
        for i, new in zip(range(gate.start, gate.start + gate.length), fresh):
            bits[i], rrtr[i], tags[i] = rrtr[i], new, reset_tag
    elif isinstance(gate, Swap) or bits[gate.zero_control] == 0:
        a, b = gate.a, gate.b
        bits[a], bits[b] = bits[b], bits[a]
        tags[a], tags[b] = tags[b], tags[a]


class TestProvenanceOracle:
    @settings(deadline=None, max_examples=60)
    @given(engine_cases())
    def test_packed_engine_matches_per_molecule_model(self, case):
        n, n_mol, gates, seed, start = case
        rng = np.random.default_rng(seed)
        bits = rng.random((n, n_mol)) < 0.5
        flags = rng.random((n, n_mol)) < 0.7
        pool_rows = sum(g.length for g in gates if isinstance(g, Reset))
        pool = rng.random((pool_rows, n_mol)) < 0.5
        reg = register(bits, fresh=[0] * n + pack(pool))
        set_flags(reg, flags)
        # per molecule: bits, flags and the RRTR row, which starts all zero
        model = [(bits[:, i].astype(int).tolist(), flags[:, i].astype(int).tolist(), [0] * n)
                 for i in range(n_mol)]
        used = 0
        for gate in gates:
            apply_gate(reg, gate)
            width = gate.length if isinstance(gate, Reset) else 0
            for i, (b, f, r) in enumerate(model):
                fresh = pool[used : used + width, i].astype(int).tolist()
                model_gate(b, f, r, gate, fresh, FLAGS)
            used += width
            assert unpack(reg.comp_bit_rows(0, n), n_mol).T.tolist() == [b for b, _, _ in model]
            assert flag_rows(reg, 0, n).T.tolist() == [f for _, f, _ in model]
            assert reg.rrtr == [as_int(row) for row in np.array([r for _, _, r in model]).T]
            for k in (1, n - start):
                runs = [(f[start : start + k] + [0]).index(0) for _, f, _ in model]
                assert run_lengths(reg.purified_run_length(start, k), n_mol).tolist() == runs


def level_tag_run(plan, schedule, bits, rrtr, pool):
    """One molecule through a compiled plan under ``LEVEL_TAGS``: its output
    bits and the runs of level tags at its Counts and at its Cuts."""
    bits, rrtr, tags = list(bits), list(rrtr), [0] * len(bits)
    window = plan.ell * plan.m // 2
    lengths, used = {Count: [], Cut: []}, 0
    for item in schedule.items:
        if isinstance(item, (Count, Cut)):
            run = [t == item.level for t in tags[item.at : item.at + window]] + [False]
            lengths[type(item)].append(run.index(False))
        elif not isinstance(item, Annotation):
            width = item.length if isinstance(item, Reset) else 0
            model_gate(bits, tags, rrtr, item, pool[used : used + width], LEVEL_TAGS)
            used += width
    return bits[: plan.m], lengths[Count], lengths[Cut]


class TestLevelTagEquivalence:
    """On compiled plans one purified flag gives what the level tags gave:
    a compression only ever compares bits of its own input level."""

    @pytest.mark.parametrize(
        "eps,m,ell,jf",
        [(0.1, 4, 4, 3), (0.0, 4, 4, 3), (0.1, 2, 4, 4), (0.1, 6, 4, 2), (0.1, 4, 7, 2)],
    )
    def test_flags_match_level_tags_on_failing_plans(self, eps, m, ell, jf):
        plan = CoolingPlan(eps, m, ell, jf)
        schedule = compile_cooling(plan)
        n, n_mol = plan.n_required, 130
        rng = np.random.default_rng(m * 100 + ell * 10 + jf)
        bits, rrtr, pool = (rng.random((rows, n_mol)) < (1 - eps) / 2
                            for rows in (n, n, plan_census(plan).reset_rows))
        source = np.packbits(np.vstack([bits, rrtr, pool]), axis=1, bitorder="little")
        run_bits, run_counts, run_cuts, success = observed(run_cooling(source, n_mol, plan))
        assert (~success).sum() >= n_mol // 10  # failed truncations are exercised
        for i in range(n_mol):
            out, counts, cuts = level_tag_run(
                plan, schedule, *(a[:, i].astype(int).tolist() for a in (bits, rrtr, pool)))
            assert run_bits[:, i].tolist() == out
            assert [int(lengths[i]) for lengths in run_counts] == counts
            assert [int(lengths[i]) for lengths in run_cuts] == cuts


class TestCensus:
    """A plan's census, from closed forms, is what its schedule holds,
    compiled or parsed back from its text."""

    @pytest.mark.parametrize(
        "eps,m,ell,jf",
        [(0.1, 6, 5, 0), (0.1, 4, 4, 1), (0.1, 8, 5, 2), (0.1, 20, 5, 2), (0.1, 50, 5, 3)],
    )
    def test_compiled_plans(self, eps, m, ell, jf):
        plan = CoolingPlan(eps, m, ell, jf)
        sched = compile_cooling(plan)
        parsed = schedule_from_text(schedule_to_text(sched))
        assert plan_census(plan) == plain_census(sched) == plain_census(parsed)

    def test_parsed_headline(self, headline_text):
        steps, resets, rows, marks = plain_census(schedule_from_text(headline_text))
        assert (steps, resets, rows, len(marks)) == (817750, 125, 6250, 186)
        assert (steps, resets, rows, marks) == plan_census(CoolingPlan(0.1, 50, 5, 3))


class TestValidation:
    def test_empty_ok(self):
        assert validate_schedule(Schedule([]), 4) == []

    def test_distance_violation(self):
        # adjacency is a shape rule: a far SWAP cannot be built at all
        with pytest.raises(GateError, match="^SWAP 0 5: operands farther than 1 apart$"):
            Swap(0, 5)

    def test_range_and_distinctness(self):
        assert validate_schedule(Schedule([Cnot(3, 4)]), 4) == [
            "CNOT 3 4: position out of range for n=4"]
        assert validate_schedule(Schedule([Reset(3, 2)]), 4) == [
            "RESET 3 2: position out of range for n=4"]
        assert validate_schedule(Schedule([Cnot(3, 4), Reset(3, 2)]), 5) == []
        with pytest.raises(GateError, match="^SWAP 2 2: operands must be pairwise distinct$"):
            Swap(2, 2)

    def test_shared_bad_gate_reported_per_occurrence_in_order(self):
        bad, other = Swap(8, 9), Reset(6, 3)
        sched = Schedule([Swap(0, 1), bad, Cnot(1, 2), bad, other, Marker("x"), bad])
        out = validate_schedule(sched, 8)
        assert len(out) == 4
        assert out[0] == out[1] == out[3] == bad.check(8) == "SWAP 8 9: position out of range for n=8"
        assert out[2] == other.check(8)

    def test_annotation_positions(self):
        # the highest position an annotation names must lie on the register
        bad = ["# count: level=1 at=4 round=1", "# cut: level=1 at=3 m=2",
               "# bcs: m=4 nu=1 nu0=0"]
        good = ["# count: level=1 at=3 round=1", "# cut: level=1 at=2 m=2",
                "# bcs: m=2 nu=2 nu0=0", "# phase: M_1 depth=0 offset=99"]
        sched = schedule_from_text("\n".join(good[:2] + bad + good[2:]))
        assert validate_schedule(sched, 4) == [
            f"{line}: position out of range for n=4" for line in bad]
        assert validate_schedule(schedule_from_text("\n".join(good)), 4) == []
        assert [it.top for it in sched.items] == [3, 3, 4, 4, 4, 3, -1]

    def test_apply_rejects_bad_gate(self):
        with pytest.raises(GateError):
            Cnot(0, 2)  # ill-formed: never reaches a register
        reg = single([1, 0, 1], fresh=[0, 1, 1])  # unequal rows, so a stray gate would show
        set_flags(reg, [0, 1, 1])
        with pytest.raises(GateError, match="^SWAP 2 3: position out of range for n=3$"):
            apply_gate(reg, Swap(2, 3))
        assert planes(reg) == ([1, 0, 1], [0, 1, 1], [0, 1, 1])


def raw_item(kinds, n):
    """A kind and a raw operand tuple, whose positions may be negative,
    repeated, far apart or past the end of an n-position register."""
    idx = st.integers(min_value=-2, max_value=n + 1)
    return st.sampled_from(kinds).flatmap(
        lambda cls: st.tuples(st.just(cls), st.tuples(*[idx] * len(dataclasses.fields(cls)))))


def raw_line(cls, ops):
    """The text line of an item built from ``ops``."""
    if issubclass(cls, Annotation):
        names = [f.name for f in dataclasses.fields(cls)]
        return f"# {cls.TAG}: " + " ".join(f"{k}={v}" for k, v in zip(names, ops))
    return " ".join([cls.KIND, *map(str, ops)])


def reference_shape(cls, ops):
    """The positions a raw operand tuple names and the shape rule it
    breaks (None if none), restated kind by kind."""
    if cls is Bcs and (ops[0] < 1 or ops[0] % 2):
        return [], "m must be a positive even count"
    if cls is Count and min(ops[0], ops[2]) < 1:
        return [], "level and round must be >= 1"
    if cls is Cut and ops[0] < 1:
        return [], "level must be >= 1"
    if cls in (Cnot, Swap, ZcSwap):
        pos = list(ops)
    else:  # a span [start, start + length)
        start, length = {Reset: ops, Bcs: (ops[1], ops[0]), Count: (ops[1], 1), Cut: ops[1:]}[cls]
        pos = list(range(start, start + length))
    if not pos:
        return pos, "empty"
    if min(pos) < 0:
        return pos, "negative position"
    if len(set(pos)) != len(pos):
        return pos, "operands must be pairwise distinct"
    if cls in (Cnot, Swap) and abs(pos[0] - pos[1]) > 1:
        return pos, "operands farther than 1 apart"
    if cls is ZcSwap:
        z, a, b = pos
        if abs(a - b) > 1:
            return pos, "swap operands farther than 1 apart"
        if min(abs(z - a), abs(z - b)) > 1:
            return pos, "control not adjacent to swap operands"
    if cls is Bcs and not 0 <= ops[2] <= ops[1]:
        return pos, "push target not in [0, nu]"
    return pos, None


def build_or_reject(cls, ops):
    """The item built from ``ops``, after checking that construction raises
    exactly when ``reference_shape`` finds a broken rule (then None)."""
    pos, rule = reference_shape(cls, ops)
    if rule is not None:
        with pytest.raises(GateError) as exc:
            cls(*ops)
        assert str(exc.value) == f"{raw_line(cls, ops)}: {rule}"
        return None
    item = cls(*ops)
    assert item.line() == raw_line(cls, ops)
    assert item.top == max(pos)
    return item


class TestGateChecks:
    @settings(deadline=None, max_examples=300)
    @given(st.data(), st.integers(min_value=1, max_value=6))
    def test_apply_raises_exactly_when_validation_reports(self, data, n):
        # every row of bits, flags and RRTR differs from the others, so a
        # gate that ran in part, a SWAP included, would show
        distinct = (np.arange(1, n + 1)[:, None] >> np.arange(3)) & 1  # row p is p + 1
        pool = pack(np.ones((8 * n, 3), dtype=bool))  # enough for 8 resets
        reg = register(distinct, fresh=pack(distinct[::-1]) + pool)
        set_flags(reg, 1 - distinct)
        raw = data.draw(st.lists(raw_item([Cnot, Swap, ZcSwap, Reset], n), min_size=1, max_size=8))
        for cls, ops in raw:
            g = build_or_reject(cls, ops)
            if g is None:
                continue
            errors = validate_schedule(Schedule([g]), n)
            assert errors == ([] if g.top < n else [f"{g.line()}: position out of range for n={n}"])
            before = planes(reg)
            if errors:
                with pytest.raises(GateError) as exc:
                    apply_gate(reg, g)
                assert [str(exc.value)] == errors
                assert planes(reg) == before
            else:
                apply_gate(reg, g)  # a gate that fits never raises GateError

    @settings(deadline=None, max_examples=300)
    @given(st.data(), st.integers(min_value=1, max_value=6))
    def test_annotation_shape_and_fit(self, data, n):
        for cls, ops in data.draw(st.lists(raw_item([Bcs, Count, Cut], n), min_size=1)):
            note = build_or_reject(cls, ops)
            if note is not None:
                errors = validate_schedule(Schedule([note]), n)
                assert errors == ([] if note.top < n else [note.check(n)])

    # a mark fits or not by its position; the kind is checked first either way
    @pytest.mark.parametrize("item", [Marker("not a gate"), Count(1, 0, 1), Count(1, 9, 1),
                                      object()])
    def test_unknown_gate(self, item):
        reg = single([1, 0, 1], fresh=[0, 1, 1, 0, 0, 0])
        set_flags(reg, [0, 1, 1])
        with pytest.raises(GateError, match="^unknown gate"):
            apply_gate(reg, item)
        assert planes(reg) == ([1, 0, 1], [0, 1, 1], [0, 1, 1])
        assert reg.draw_reset_rows(3) == [0, 0, 0]  # the source is untouched too


class TestPositions:
    def test_swap_exchanges_bits_and_flags(self):
        reg = single([1, 0, 1, 1])
        set_flags(reg, [1, 0, 0, 1])
        apply_gate(reg, Swap(1, 2))
        apply_gate(reg, Swap(0, 1))
        assert planes(reg) == ([1, 1, 0, 1], [0, 1, 0, 1], [0, 0, 0, 0])

    def test_reset_writes_its_positions(self):
        reg = single([1, 0, 1], fresh=[1, 0, 0, 0, 1])
        assert reg.rrtr == [1, 0, 0]  # the first three fresh rows
        set_flags(reg, [0, 0, 0])
        apply_gate(reg, Swap(0, 1))
        apply_gate(reg, Reset(0, 2))
        # the RRTR bits of positions 0 and 1, flagged; the row refilled from the source
        assert planes(reg) == ([1, 0, 1], [1, 1, 0], [0, 1, 0])


#: Malformed lines, each with the message its parse error gives: a
#: non-integer operand, an ill-formed gate and a ``#`` in mid-line.
PARSE_ERRORS = {"SWAP 0 x": "non-integer operand",
                "SWAP 0 5": "SWAP 0 5: operands farther than 1 apart",
                "SWAP 0 1 # x": "SWAP expects 2 operands"}

#: Lines for random texts: gates, annotations that start runs, blank lines
#: and the malformed lines. "# bcs: m=2 nu=0 nu0=0" then "CNOT 0 1" alone
#: is that compression as compiled, which a parse reads as one block.
PARSE_LINES = ["SWAP 0 1", "CNOT 1 2", "CNOT 0 1", "ZCSWAP 2 0 1", "RESET 0 2",
               "# bcs: m=2 nu=0 nu0=0", "# count: level=1 at=0 round=1", "# phase: x", "", "  ",
               *PARSE_ERRORS]

#: A compression's ``# bcs:`` line as a compile never writes it: ill-formed,
#: misordered, broken by a carriage return, or well-formed but spaced otherwise.
ODD_BCS_LINES = ["# bcs: m={m}\rnu={nu} nu0={nu0}", "# bcs:  m={m} nu={nu} nu0={nu0}",
                 "#bcs: m={m} nu={nu} nu0={nu0}", "# bcs: m={m} nu={nu} nu0={nu0} ",
                 "# bcs: nu={nu} m={m} nu0={nu0}", "# bcs: m={m} nu={nu} nu0=x",
                 "# bcs: m={odd} nu={nu} nu0={nu0}", "# bcs: m={m} nu={nu} nu0={far}"]

ALTERATIONS = ["operand", "swap lines", "drop line", "double line", "crlf", "blank line",
               "trailing space", "other shape", "odd bcs line", "no final newline"]


def shapes():
    """A compression's (m, nu, nu0) as the walk places one: nu - nu0 = d * m/2."""
    return st.builds(lambda h, d, nu0: (2 * h, nu0 + d * h, nu0),
                     st.integers(1, 4), st.integers(0, 4), st.integers(0, 3))


def compressed(shape):
    """A compression's chunk as compiled: its ``# bcs:`` line, then its gates."""
    return Bcs(*shape).text_line + bcs_text(*shape)


@st.composite
def altered_compressions(draw):
    """A compiled compression's chunk and a copy of it altered once."""
    shape = draw(shapes())
    chunk = compressed(shape)
    lines = chunk.splitlines(keepends=True)
    alteration = draw(st.sampled_from(ALTERATIONS))
    gate_line = st.one_of(st.just(len(lines) - 1), st.integers(1, len(lines) - 1))
    i, j = draw(gate_line), draw(gate_line)  # the last gate line often: a prefix still matches
    if alteration == "operand":
        kind, *operands = lines[i].split()
        operands[draw(st.integers(0, len(operands) - 1))] = str(draw(st.integers(0, 20)))
        lines[i] = " ".join([kind, *operands]) + "\n"
    elif alteration == "swap lines":
        lines[i], lines[j] = lines[j], lines[i]
    elif alteration == "drop line":
        del lines[i]
    elif alteration == "double line":
        lines.insert(i + 1, lines[i])
    elif alteration == "crlf":
        lines = [line.replace("\n", "\r\n") for line in lines]
    elif alteration == "blank line":
        lines.insert(i + 1, draw(st.sampled_from(["\n", "  \n"])))
    elif alteration == "trailing space":
        lines[i] = lines[i][:-1] + " \n"
    elif alteration == "other shape":
        other = draw(shapes().filter(lambda s: s != shape))
        lines = lines[:1] + [bcs_text(*other)]
    elif alteration == "odd bcs line":
        m, nu, nu0 = shape
        odd = draw(st.sampled_from(ODD_BCS_LINES))
        lines[0] = odd.format(m=m, nu=nu, nu0=nu0, odd=m + 1, far=nu + 1) + "\n"
    else:  # no final newline
        lines[-1] = lines[-1][:-1]
    return chunk, "".join(lines)


def line_by_line(text):
    """The per-line oracle: the items of ``text``'s lines, each parsed
    alone, or the error of its first bad line, numbered as in ``text``."""
    items = []
    for n, raw in enumerate(text.splitlines(), start=1):
        if raw.strip():
            try:
                items.append(schedule_from_text(raw).items[0])
            except ValueError as exc:
                return f"line {n}: {str(exc).removeprefix('line 1: ')}"
    return tuple(items)


class TestSerialization:
    def test_round_trip(self):
        sched = Schedule(
            [
                Marker("phase: BCS 0->1"),
                Cnot(0, 1),
                ZcSwap(2, 0, 1),
                Swap(1, 2),
                Reset(0, 4),
            ]
        )
        text = schedule_to_text(sched)
        assert schedule_from_text(text) == sched
        assert "# phase: BCS 0->1" in text
        assert "RESET 0 4" in text
        # typed annotations come back as equal typed objects
        compiled = compile_cooling(CoolingPlan(0.1, 8, 5, 2))
        text = schedule_to_text(compiled)
        assert schedule_from_text(text) == compiled
        assert "# bcs: m=8 nu=4 nu0=0\n" in text
        assert "# count: level=2 at=0 round=5\n" in text
        assert "# cut: level=1 at=16 m=8\n" in text

    def test_empty(self):
        assert schedule_to_text(Schedule([])) == ""
        assert schedule_from_text("") == Schedule([])

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            schedule_from_text("FLIP 0")
        with pytest.raises(ValueError):
            schedule_from_text("SWAP 0")
        with pytest.raises(ValueError):
            schedule_from_text("SWAP 0 x")
        for typed in (
            "# count: level=x", "# cut: level=1 at=0", "# bcs: nu=0 m=2 nu0=0"
        ):
            with pytest.raises(ValueError, match="line 2"):
                schedule_from_text("SWAP 0 1\n" + typed + "\n")

    @settings(max_examples=300)
    @given(st.text(alphabet="ab#\n\r ", max_size=40), st.sampled_from([1, 2, 3, 5]))
    def test_chunks_split_like_splitlines(self, text, size):
        spans = list(_chunks(text, size))
        assert [line for a, b in spans for line in text[a:b].splitlines()] == text.splitlines()
        bounds = [0, *(b for _, b in spans)]
        assert spans == list(zip(bounds, bounds[1:])) and bounds[-1] == len(text)  # a tiling
        for a, b in spans:
            chunk = text[a:b]
            assert b == len(text) or chunk.endswith("\n")
            assert "\n#" not in chunk[:-1]  # a line starting with # starts a chunk
            assert chunk.find("\n", size - 1) in (-1, len(chunk) - 1)  # at most a line past size

    def test_parse_peak_is_bounded_by_the_text(self, headline_text):
        # a whole split peaks at 5.6x the text; above what it returns, the
        # parse of 1 MB slices into one flat tuple peaked at 6.78 MB (Python
        # 3.11), and one chunk's lines at a time, each distinct chunk parsed
        # once, peak about 1 MB above it
        tracemalloc.start()
        try:
            sched = schedule_from_text(headline_text)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(gates(sched)) == 817750
        assert peak < 2 * len(headline_text)
        assert peak - kept < 7e6

    def test_parse_peak_without_annotations(self, swap_text):
        # no line starts a chunk, so each holds about 1 MB; the previous
        # parse peaked 6.40 MB above its result here, and one more chunk's
        # lines held at once would add about 5 MB
        tracemalloc.start()
        try:
            sched = schedule_from_text(swap_text)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sched.blocks) == 5 and len(gates(sched)) == 300_000
        assert peak - kept < 7e6

    def test_text_peak_without_recurring_blocks(self, swap_text):
        # the parse's five ~1 MB blocks never recur, so their lines go
        # straight into the one final join: 2.60 MB above the result
        # (Python 3.11), where joining each block first peaked at 5.69 MB
        sched = schedule_from_text(swap_text)
        tracemalloc.start()
        try:
            text = schedule_to_text(sched)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert text == swap_text
        assert peak - kept < 4e6

    @pytest.mark.parametrize("eps,m,ell,jf", [(0.1, 8, 5, 2), (0.1, 4, 5, 3), (0.2, 6, 6, 1)])
    def test_compiled_and_parsed_text_is_every_line(self, eps, m, ell, jf):
        compiled = compile_cooling(CoolingPlan(eps, m, ell, jf))
        parsed = schedule_from_text(plain_text(compiled))
        for sched in compiled, parsed, Schedule(compiled.items):
            assert schedule_to_text(sched) == plain_text(sched)

    def test_text_line_keeps_marker_text(self):
        marker = Marker("x")
        assert marker.text_line == "# x\n"
        assert marker.text == "x" and marker.line() == "# x"
        assert marker == Marker("x") and hash(marker) == hash(Marker("x"))

    @settings(max_examples=300)
    @given(st.lists(st.sampled_from(PARSE_LINES), max_size=30),
           st.sampled_from(["\n", "\r\n"]), st.booleans())
    def test_chunks_parse_like_single_lines(self, lines, end, collide):
        # with every chunk hashed alike, equal keys must still be told apart by text
        text = end.join(lines)
        with mock.patch.object(circuit, "hash", (lambda chunk: 0) if collide else hash, create=True):
            try:
                sched = schedule_from_text(text)
            except ValueError as exc:
                sched = str(exc)
        bad = [(n, PARSE_ERRORS[raw]) for n, raw in enumerate(lines, start=1) if raw in PARSE_ERRORS]
        if bad:
            assert sched == "line {}: {}".format(*bad[0])  # the first bad line, exactly
            return
        assert sched.items == tuple(schedule_from_text(raw).items[0] for raw in lines if raw.strip())
        chunks = [text[a:b] for a, b in _chunks(text)]
        assert len(chunks) == len(sched.blocks)
        for (chunk, block), (other, same) in itertools.combinations(zip(chunks, sched.blocks), 2):
            if block and block is same:
                assert chunk == other  # a shared block is one chunk's text
            elif chunk == other and not collide:
                assert block is same  # equal chunks are one block

    @settings(max_examples=300, deadline=None)
    @given(altered_compressions())
    @example((compressed((2, 0, 0)), compressed((2, 0, 0)) + "CNOT 0 1\n"))  # a line past it
    @example((compressed((2, 2, 0)), "# bcs: m=2\rnu=2 nu0=0\n" + bcs_text(2, 2, 0)))
    def test_altered_compression_parses_line_by_line(self, case):
        # a compression read as one block of text must give what its lines
        # give one by one, whatever is changed: the same items or the same error
        chunk, altered = case
        text = "# phase: BCS 0->1\n" + chunk + altered  # the first chunk as compiled
        try:
            parsed = schedule_from_text(text).items
        except ValueError as exc:
            parsed = str(exc)
        assert parsed == line_by_line(text)

    @pytest.mark.parametrize("text", [
        f"# bcs: m=2 nu={10 ** 9} nu0=0\n",  # 3e9 + 1 gates in closed form, no line
        # as many lines as gates, each too short for positions of 4,001 digits
        f"# bcs: m=2 nu={10 ** 4000 + 10 ** 5} nu0={10 ** 4000}\n" + "\n" * (3 * 10 ** 5 + 1),
        "".join(compressed((8, 12, 0)).splitlines(keepends=True)[:-1]),  # but its last gate line
    ], ids=["far nu", "long positions", "one line short"])
    def test_compression_text_is_built_only_when_it_fits(self, text):
        # a chunk whose gate lines cannot be its compression's text never
        # builds that text, however large the annotation's numbers make it
        with mock.patch.object(compression, "bcs_text", side_effect=AssertionError) as built:
            parsed = schedule_from_text(text).items
        assert not built.called
        assert parsed == line_by_line(text)

    @pytest.mark.parametrize("bad", [
        "SWAP 0 5", "# cut: level=1 at=2 m=0", "# bcs: m=3 nu=0 nu0=0",
        "# count: level=1 at=0 round=0", "# cut: level=0 at=0 m=1",
    ])
    def test_ill_formed_item_names_its_line(self, bad):
        with pytest.raises(ValueError, match=f"^line 2: {bad}: "):
            schedule_from_text(f"SWAP 0 1\n{bad}\nSWAP 0 1\n")

    def test_annotation_counters_are_shape(self):
        # an odd m, a level below 1 and a round below 1 never come from a compile
        text = "# bcs: m=3 nu=0 nu0=0\n# count: level=-5 at=0 round=0\n# cut: level=0 at=0 m=1\n"
        with pytest.raises(ValueError, match="^line 1: # bcs: m=3 nu=0 nu0=0: m must be a positive even count"):
            schedule_from_text(text)
        for line, rule in [("# count: level=-5 at=0 round=0", "level and round must be >= 1"),
                           ("# cut: level=0 at=0 m=1", "level must be >= 1")]:
            with pytest.raises(ValueError, match=f"^line 1: {line}: {rule}$"):
                schedule_from_text(line + "\n")

    def test_repeated_line_then_malformed(self):
        with pytest.raises(ValueError, match="line 3: non-integer"):
            schedule_from_text("SWAP 0 1\nSWAP 0 1\nSWAP 0 x\n")

    def test_parse_shares_equal_lines(self, headline_text):
        with mock.patch.object(circuit, "_parse_line", wraps=circuit._parse_line) as parse, \
                mock.patch.object(compression, "compile_bcs",
                                  wraps=compression.compile_bcs) as compile_bcs:
            items = schedule_from_text(headline_text).items
        distinct_lines = {raw for raw in headline_text.splitlines() if raw.strip()}
        assert len(items) == 818526
        assert len({id(it) for it in items}) == len(distinct_lines) == 1236
        # each distinct compression is read as one block of text: its gates
        # come from one compile_bcs call, and the line table parses each
        # distinct line outside them (annotations and RESETs) once
        compressions = {raw for raw in distinct_lines if raw.startswith("# bcs:")}
        assert compile_bcs.call_count == len(compressions) == 45
        outside = {raw for raw in distinct_lines if raw.startswith(("#", "RESET"))}
        assert parse.call_count == len(outside) == 239
        # shared objects still re-serialize line for line
        assert schedule_to_text(Schedule(items)) == headline_text


def any_item(n):
    """A well-formed item of any kind whose positions may lie past n."""
    pos = st.integers(0, n)
    return st.one_of(
        pos.map(lambda q: Cnot(q, q + 1)),
        pos.map(lambda q: Swap(q + 1, q)),
        pos.map(lambda q: ZcSwap(q + 2, q, q + 1)),
        st.builds(Reset, pos, st.integers(1, 3)),
        st.builds(Marker, st.sampled_from(["phase: a", "b"])),
        st.builds(Count, st.integers(1, 2), pos, st.integers(1, 3)),
        st.builds(Cut, st.integers(1, 2), pos, st.integers(1, 3)),
        pos.map(lambda nu: Bcs(2, nu, 0)),
    )


@st.composite
def blocked_items(draw):
    """A register size and blocks of items: each block is a tuple of
    items from a small pool, so equal items are often one object, and a
    block picked twice is one shared tuple."""
    n = draw(st.integers(2, 6))
    pool = draw(st.lists(any_item(n), min_size=1, max_size=6))
    index = st.integers(0, len(pool) - 1)
    pieces = draw(st.lists(st.lists(index, min_size=1, max_size=8), min_size=1, max_size=4))
    pieces = [tuple(pool[i] for i in piece) for piece in pieces]
    picks = draw(st.lists(st.integers(0, len(pieces) - 1), max_size=8))
    return n, [pieces[i] for i in picks]


def distinct_refs(schedule):
    """The item references a schedule holds: the summed lengths of its distinct blocks."""
    return sum(map(len, {id(b): b for b in schedule.blocks}.values()))


class TestBlocks:
    """A schedule's blocks change how its work is shared, never its answers."""

    @settings(max_examples=200)
    @given(blocked_items())
    def test_blocked_matches_one_block(self, case):
        n, blocks = case
        sched = Schedule(*blocks)
        flat = Schedule(list(itertools.chain.from_iterable(blocks)))
        assert len({id(b) for b in sched.blocks}) == len({id(b) for b in blocks})  # still shared
        assert sched == flat and flat == sched and sched.items == flat.items
        plain = [item.check(n) for item in flat.items if item.top >= n]
        assert validate_schedule(sched, n) == validate_schedule(flat, n) == plain
        assert schedule_to_text(sched) == schedule_to_text(flat)

    @settings(max_examples=200)
    @given(blocked_items())
    def test_text_is_every_line_in_order(self, case):
        _, blocks = case
        sched = Schedule(*blocks)
        assert schedule_to_text(sched) == plain_text(sched)

    def test_text_with_and_without_recurring_blocks(self):
        once, twice = (Marker("a"), Swap(0, 1), Count(1, 0, 1)), (Cnot(1, 2), Reset(0, 2))
        for sched in Schedule(once, twice), Schedule(twice, once, twice, twice):
            assert schedule_to_text(sched) == plain_text(sched)

    def test_items_are_an_immutable_tuple(self):
        items = [Marker("x"), Swap(0, 1)]
        sched = Schedule(items)
        assert type(sched.items) is tuple and sched.items == tuple(items)
        assert type(compile_cooling(CoolingPlan(0.1, 4, 5, 1)).items) is tuple
        assert type(schedule_from_text("SWAP 0 1\n").items) is tuple
        with pytest.raises(dataclasses.FrozenInstanceError):
            sched.items = ()

    def test_equality_ignores_blocking(self):
        a, b = (Swap(0, 1), Cnot(1, 2)), (Reset(0, 2),)
        assert Schedule(a, b) == Schedule(a + b) == Schedule(a, (), b)
        assert Schedule(a, b) != Schedule(b, a)
        assert Schedule() == Schedule([]) == schedule_from_text("")
        assert hash(Schedule(a, b)) == hash(Schedule(a + b))  # equal schedules hash alike
        assert Schedule(a).__eq__(1) is NotImplemented  # and no other type is a schedule

    def test_repeated_block_failing_validation(self):
        plan = CoolingPlan(0.1, 4, 5, 2)
        sched = compile_cooling(plan)
        flat = Schedule(sched.items)
        repeats = [b for b in sched.blocks if sum(x is b for x in sched.blocks) > 1]
        n = min(max(it.top for it in b) for b in repeats)  # the last position of one
        assert any(max(it.top for it in b) >= n for b in repeats)  # a repeated block fails
        out = validate_schedule(sched, n)
        assert out == validate_schedule(flat, n) == [
            it.check(n) for it in flat.items if it.top >= n]
        assert len(out) > len(set(out))  # one message per failing occurrence

    def test_parsed_headline_matches_compiled(self, headline_text):
        plan = CoolingPlan(0.1, 50, 5, 3)
        compiled, parsed = compile_cooling(plan), schedule_from_text(headline_text)
        # one chunk per annotation line and the gate lines after it
        assert len(parsed.blocks) == len(compiled.blocks)
        assert distinct_refs(parsed) < distinct_refs(compiled) < len(gates(compiled)) / 2
        assert parsed == compiled
        n = plan.n_required - 1
        assert validate_schedule(parsed, n) == validate_schedule(compiled, n) != []
        assert schedule_to_text(parsed) == schedule_to_text(compiled) == headline_text

    def test_compiled_headline_keeps_blocks_not_items(self):
        sched = compile_cooling(CoolingPlan(0.1, 50, 5, 3))
        assert distinct_refs(sched) < len(gates(sched)) / 2  # 238,276 of 817,750
        assert "items" not in vars(sched)  # the flat view is built on use, never kept


class TestBatchedExecution:
    def test_batch_agrees_with_single_molecules(self):
        rng = np.random.default_rng(11)
        bits = rng.random((6, 200)) < 0.5
        flags = rng.random((6, 200)) < 0.7
        sched = Schedule(
            [Cnot(0, 1), ZcSwap(1, 2, 3), Swap(3, 4), Cnot(4, 5), ZcSwap(5, 3, 4)]
        )
        batch = register(bits)
        set_flags(batch, flags)
        run_gates(batch, sched)
        for i in range(0, 200, 37):
            solo = register(bits[:, i : i + 1])
            set_flags(solo, flags[:, i : i + 1])
            run_gates(solo, sched)
            assert bits_of(batch, i) == bits_of(solo)
            assert flag_rows(batch, 0, 6)[:, i].tolist() == flag_rows(solo, 0, 6)[:, 0].tolist()

    def test_padding_stays_clean(self):
        # 70 molecules straddle a word boundary; ops must not leak into padding
        bits = np.ones((4, 70), dtype=bool)
        bits[3] = False
        reg = register(bits)
        apply_gate(reg, Cnot(0, 1))
        apply_gate(reg, ZcSwap(1, 2, 3))  # fires everywhere: row 1 now reads 0
        out = unpack(reg.comp_bit_rows(0, 4), 70)
        assert out.shape == (4, 70)
        assert out.tolist() == [[1] * 70, [0] * 70, [0] * 70, [1] * 70]
        bits, flags, _ = planes(reg)
        assert all(x >> 70 == 0 for x in bits + flags)  # bits 70.. of each plane stay 0
        assert all(row >> 140 == 0 for row in reg.rows)  # and no flag past the flag plane


class TestPlaneBounds:
    """With W molecules, every row stays in [0, 2**(2W)), its bits and then
    its flags, and every RRTR int in [0, full]: no complement goes negative,
    no gate sets a bit past the last molecule, and nothing, a compression's
    third plane included, is left past the flag plane."""

    @staticmethod
    def in_bounds(reg):
        top = 1 << 2 * reg.num_molecules
        return (all(0 <= row < top for row in reg.rows)
                and all(0 <= x <= reg.full for x in reg.rrtr))

    @pytest.mark.parametrize("n_mol", [1, 63, 64, 65, 70])
    def test_every_gate_kind(self, n_mol):
        rng = np.random.default_rng(n_mol)
        bits = rng.random((5, n_mol)) < 0.5
        bits[0], bits[1], bits[2] = False, True, False  # row 0 vs 1 compare unequal
        pool = pack(np.ones((6, n_mol), dtype=bool))
        reg = register(bits, fresh=[0] * 5 + pool)
        assert reg.full == (1 << n_mol) - 1 and self.in_bounds(reg)
        gates = [Cnot(0, 1),  # fails the compare on every molecule
                 ZcSwap(0, 1, 2),  # control row 0 reads 0 everywhere: fires everywhere
                 Swap(3, 4), Cnot(3, 4), ZcSwap(4, 2, 3), Reset(0, 3), Reset(2, 3),
                 Cnot(1, 0), ZcSwap(2, 3, 4)]
        for gate in gates:
            apply_gate(reg, gate)
            assert self.in_bounds(reg), gate
        assert flag_rows(reg, 0, 5).shape == (5, n_mol)

    @settings(deadline=None, max_examples=60)
    @given(st.data(), st.sampled_from([1, 63, 64, 65, 70]), st.integers(0, 2**32 - 1))
    def test_gates_and_compressions_stay_in_bounds(self, data, n_mol, seed):
        n = 12
        rng = np.random.default_rng(seed)
        bits, flags = rng.random((2, n, n_mol)) < 0.5
        reg = register(bits, fresh=pack(rng.random((9 * n, n_mol)) < 0.5))  # 8 full resets
        set_flags(reg, flags)
        reset = st.integers(0, n - 1).flatmap(
            lambda start: st.builds(Reset, st.just(start), st.integers(1, n - start)))
        bcs = st.integers(1, n // 2).flatmap(lambda h: st.integers(0, n - 2 * h).flatmap(
            lambda nu: st.builds(Bcs, st.just(2 * h), st.just(nu), st.integers(0, nu))))
        for item in data.draw(st.lists(st.one_of(reversible_gate(n), reset, bcs), max_size=12)):
            (apply_bcs if isinstance(item, Bcs) else apply_gate)(reg, item)
            assert self.in_bounds(reg), item

    @pytest.mark.parametrize("n_mol", [1, 7, 8, 9, 63, 64, 65, 70])
    def test_pack_round_trip(self, n_mol):
        bits = np.random.default_rng(n_mol).random((4, n_mol)) < 0.5
        bits[0], bits[1] = True, False
        rows = pack(bits)
        assert rows == [as_int(row) for row in bits]
        assert rows[0] == (1 << n_mol) - 1 and rows[1] == 0
        assert unpack(rows, n_mol).tolist() == bits.astype(int).tolist()

    def test_packed_padding_is_masked(self):
        # rows from outside with every bit set, past the 70th molecule too
        reg = Register(3, 70, np.full((9, 16), 0xFF, dtype=np.uint8))  # 128 bits a row
        assert planes(reg) == ([reg.full] * 3, [reg.full] * 3, [reg.full] * 3)
        apply_gate(reg, Reset(0, 3))
        assert self.in_bounds(reg) and reg.rrtr == [reg.full] * 3


class TestPurifiedRunLength:
    """The running AND stops at its first all-zero row; the lengths must
    equal a plain per-molecule count."""

    N, N_MOL = 8, 70

    def register(self, runs):
        """Molecule k flagged on positions [0, runs[k]) and on the last one,
        a flag the run never reaches unless it is unbroken."""
        flags = np.zeros((self.N, self.N_MOL), dtype=bool)
        for k, length in enumerate(runs):
            flags[:length, k] = True
        flags[-1] = True
        reg = register(np.zeros((self.N, self.N_MOL), dtype=bool))
        set_flags(reg, flags)
        return reg, flags

    def plain(self, flags, start, max_rows):
        return [(col[start : start + max_rows].tolist() + [False]).index(False)
                for col in flags.T]

    @pytest.mark.parametrize("start,max_rows", [
        (0, 8),  # molecules with an empty run sit beside long ones
        (4, 3),  # runs end mid-window, all before it closes
        (0, 2),  # every run that starts reaches max_rows
        (5, 6),  # the window is clipped at n
        (7, 4),  # only the always-flagged last row, clipped
    ])
    def test_matches_plain_count(self, start, max_rows):
        runs = [k % (self.N - 1) for k in range(self.N_MOL)]  # 0..6, the last row apart
        reg, flags = self.register(runs)
        got = reg.purified_run_length(start, max_rows)
        assert all(type(x) is int and 0 < x <= reg.full for x in got)  # none empty
        assert all(b & ~a == 0 for a, b in zip(got, got[1:]))  # nested: b within a
        assert run_lengths(got, self.N_MOL).tolist() == self.plain(flags, start, max_rows)

    @pytest.mark.parametrize("start,max_rows", [(-1, 4), (-3, 2)])
    def test_negative_start_is_rejected(self, start, max_rows):
        # rows[start:] would read positions from the far end of the register
        reg, _ = self.register([3] * self.N_MOL)
        with pytest.raises(ValueError, match="start"):
            reg.purified_run_length(start, max_rows)

    @pytest.mark.parametrize("start,stop", [(-1, 8), (-3, 2)])
    def test_comp_bit_rows_refuses_a_negative_start(self, start, stop):
        # rows[-1:8] would read the last position as if it were the first
        reg, _ = self.register([3] * self.N_MOL)
        with pytest.raises(ValueError, match=f"start must be >= 0, got {start}"):
            reg.comp_bit_rows(start, stop)

    @pytest.mark.parametrize("start,stop", [(0, 9), (5, 12)])
    def test_comp_bit_rows_refuses_a_stop_past_the_end(self, start, stop):
        # rows[5:12] would hold 3 rows where 7 were asked for
        reg, _ = self.register([3] * self.N_MOL)
        with pytest.raises(ValueError, match=f"stop must be <= n=8, got {stop}"):
            reg.comp_bit_rows(start, stop)
        rows = reg.comp_bit_rows(start, 8)
        assert len(rows) == 8 - start and all(0 <= x <= reg.full for x in rows)

    def test_empty_at_start(self):
        reg, flags = self.register([0] * self.N_MOL)
        assert reg.purified_run_length(0, 8) == []  # every run is of length 0
        # the run ends mid-window for every molecule: the flagged last row is not counted
        reg, flags = self.register([3] * self.N_MOL)
        assert reg.purified_run_length(0, 8) == [reg.full] * 3
        assert run_lengths(reg.purified_run_length(1, 8), self.N_MOL).tolist() == self.plain(
            flags, 1, 8) == [2] * 70
