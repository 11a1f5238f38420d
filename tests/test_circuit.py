"""Gate-engine tests: semantics, provenance, accounting, serialization."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    apply_gate,
    run_schedule,
    schedule_from_text,
    schedule_to_text,
    _pack_rows,
    _unpack_rows,
    validate_schedule,
)
from algcool.cooling import compile_cooling, run_cooling


def single(bits, **kwargs):
    """One-molecule register from a plain bit list."""
    arr = np.array(bits, dtype=bool).reshape(-1, 1)
    return Register.from_comp_bits(arr, **kwargs)


def set_flags(reg, flags):
    """Pack purified flags (rows, molecules) into the flag plane of rows 0.."""
    flags = np.asarray(flags, dtype=bool).reshape(-1, reg.num_molecules)
    reg.state[: len(flags), 1] = _pack_rows(flags)


class TestGateSemantics:
    @pytest.mark.parametrize(
        "c,t,expect_c,expect_t",
        [(0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 1, 1), (1, 1, 1, 0)],
    )
    def test_cnot_truth_table(self, c, t, expect_c, expect_t):
        reg = single([c, t])
        apply_gate(reg, Cnot(0, 1))
        assert reg.molecule_bits() == [expect_c, expect_t]

    def test_swap(self):
        reg = single([1, 0])
        apply_gate(reg, Swap(0, 1))
        assert reg.molecule_bits() == [0, 1]
        apply_gate(reg, Swap(0, 1))
        assert reg.molecule_bits() == [1, 0]  # involution

    def test_zcswap_fires_on_zero_control(self):
        reg = single([0, 1, 0])
        apply_gate(reg, ZcSwap(0, 1, 2))
        assert reg.molecule_bits() == [0, 0, 1]

    def test_zcswap_idle_on_one_control(self):
        reg = single([1, 1, 0])
        apply_gate(reg, ZcSwap(0, 1, 2))
        assert reg.molecule_bits() == [1, 1, 0]

    def test_reset_swaps_in_rrtr_row(self):
        # any pool will do: it is drawn into the RRTR row, not read back
        reg = single([1, 1, 1], reset_pool=np.zeros((3, 1), dtype=np.uint64))
        set_flags(reg, [0, 0, 0])
        apply_gate(reg, Reset(0, 3))
        assert reg.molecule_bits() == [0, 0, 0]  # rrtr row starts all zero
        assert (reg.clean_rows(0, 3) == 1).all()

    def test_reset_without_source_raises(self):
        reg = single([1, 0])
        with pytest.raises(GateError):
            apply_gate(reg, Reset(0, 2))


class TestProvenance:
    def test_cnot_comparator_on_equal_pair(self):
        reg = single([1, 1])
        apply_gate(reg, Cnot(0, 1))
        assert reg.clean_rows(0, 2)[:, 0].tolist() == [1, 0]  # kept, supervisor

    def test_cnot_comparator_on_unequal_pair(self):
        reg = single([1, 0])
        apply_gate(reg, Cnot(0, 1))
        assert reg.clean_rows(0, 2)[:, 0].tolist() == [0, 0]  # dirty, supervisor

    def test_unflagged_operand_is_dirty(self):
        for flags in ([1, 0], [0, 1], [0, 0]):
            reg = single([0, 0])
            set_flags(reg, flags)
            apply_gate(reg, Cnot(0, 1))
            assert reg.clean_rows(0, 2)[:, 0].tolist() == [0, 0]

    def test_tags_travel_with_swaps(self):
        reg = single([0, 1, 0])
        set_flags(reg, [1, 1, 0])
        apply_gate(reg, Swap(1, 2))
        assert reg.clean_rows(0, 3)[:, 0].tolist() == [1, 0, 1]
        apply_gate(reg, ZcSwap(0, 1, 2))  # control reads 0 -> fires
        assert reg.clean_rows(0, 3)[:, 0].tolist() == [1, 1, 0]

    def test_purified_run_length(self):
        reg = single([0, 0, 0, 0, 0])
        set_flags(reg, [1, 1, 0, 1, 1])
        assert reg.purified_run_length(0, 5)[0] == 2
        assert reg.purified_run_length(3, 5)[0] == 2
        assert reg.purified_run_length(2, 5)[0] == 0
        assert reg.purified_run_length(0, 1)[0] == 1  # capped at max_rows


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
        assert reg.molecule_bits() == [int(b) for b in bits]

    @settings(deadline=None)
    @given(st.lists(st.booleans(), min_size=6, max_size=6), reversible_gates(6))
    def test_swaps_preserve_bit_multiset(self, bits, gates):
        reg = single(bits)
        before = sorted(reg.molecule_bits())
        for g in gates:
            if not isinstance(g, Cnot):
                apply_gate(reg, g)
        assert sorted(reg.molecule_bits()) == before


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
        for i, new in zip(gate.positions(), fresh):
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
        reg = Register.from_comp_bits(bits, reset_pool=_pack_rows(pool))
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
            assert reg.comp_bit_rows(0, n).T.tolist() == [b for b, _, _ in model]
            assert reg.clean_rows(0, n).T.tolist() == [f for _, f, _ in model]
            assert _unpack_rows(reg.rrtr, n_mol).T.tolist() == [r for _, _, r in model]
            for k in (1, n - start):
                runs = [(f[start : start + k] + [0]).index(0) for _, f, _ in model]
                assert reg.purified_run_length(start, k).tolist() == runs


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

    @pytest.mark.filterwarnings("ignore:cooling depth 4")
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
                            for rows in (n, n, schedule.reset_rows()))
        reg = Register(_pack_rows(bits), _pack_rows(rrtr), n_mol, reset_pool=_pack_rows(pool))
        run = run_cooling(reg, plan, schedule)
        assert (~run.success).sum() >= n_mol // 10  # failed truncations are exercised
        for i in range(n_mol):
            out, counts, cuts = level_tag_run(
                plan, schedule, *(a[:, i].astype(int).tolist() for a in (bits, rrtr, pool)))
            assert run.output_bits[:, i].tolist() == out
            assert [int(lengths[i]) for _, lengths in run.round_log] == counts
            assert [int(lengths[i]) for _, lengths in run.truncation_log] == cuts


class TestStepAccounting:
    def test_unit_costs_and_wide_reset(self):
        sched = Schedule([Cnot(0, 1), Swap(1, 2), ZcSwap(0, 1, 2), Reset(0, 4)])
        assert sched.step_total() == 4  # RESET of width 4 is one parallel step

    def test_zcswap_at_cost_two(self):
        # a slower conditional swap adds one step per ZCSWAP to the gate count
        sched = Schedule([Marker("x"), ZcSwap(0, 1, 2), Cnot(1, 2)])
        zcswaps = sum(isinstance(g, ZcSwap) for g in sched.gates())
        assert sched.step_total() + zcswaps == 3

    def test_schedule_step_total(self):
        sched = Schedule([Marker("x"), Swap(0, 1), Reset(0, 3), Cnot(1, 2)])
        assert sched.step_total() == 3
        assert sched.reset_rows() == 3
        assert len(sched.gates()) == 3

    def test_items_are_an_immutable_tuple(self):
        items = [Marker("x"), Swap(0, 1)]
        sched = Schedule(items)
        assert type(sched.items) is tuple and sched.items == tuple(items)
        assert type(compile_cooling(CoolingPlan(0.1, 4, 5, 1)).items) is tuple
        assert type(schedule_from_text("SWAP 0 1\n").items) is tuple
        with pytest.raises(dataclasses.FrozenInstanceError):
            sched.items = ()


def plain_census(schedule):
    """The census restated from the items: steps, RESETs, reset rows, marks."""
    resets = [g for g in schedule.gates() if isinstance(g, Reset)]
    marks = [it for it in schedule.items if isinstance(it, (Count, Cut))]
    return len(schedule.gates()), len(resets), sum(r.length for r in resets), marks


class TestCensus:
    @pytest.mark.filterwarnings("ignore:cooling depth 4")
    @pytest.mark.parametrize(
        "eps,m,ell,jf",
        [(0.1, 6, 5, 0), (0.1, 4, 4, 1), (0.1, 8, 5, 2), (0.1, 20, 5, 2), (0.1, 50, 5, 3)],
    )
    def test_compiled_plans(self, eps, m, ell, jf):
        sched = compile_cooling(CoolingPlan(eps, m, ell, jf))
        steps, resets, rows, marks = sched.census
        assert (steps, resets, rows, list(marks)) == plain_census(sched)
        assert sched.census is sched.census  # counted once
        assert (sched.step_total(), sched.reset_rows()) == (steps, rows)

    def test_parsed_headline(self):
        text = schedule_to_text(compile_cooling(CoolingPlan(0.1, 50, 5, 3)))
        sched = schedule_from_text(text)
        steps, resets, rows, marks = sched.census
        assert (steps, resets, rows, list(marks)) == plain_census(sched)
        assert (steps, resets, rows, len(marks)) == (817750, 125, 6250, 186)

    def test_every_item_kind(self):
        sched = Schedule([Marker("x"), Bcs(2, 0, 0), Cnot(0, 1), Count(1, 0, 1),
                          Reset(0, 3), ZcSwap(2, 0, 1), Cut(1, 0, 2), Swap(1, 2), Reset(1, 2)])
        steps, resets, rows, marks = sched.census
        assert (steps, resets, rows, list(marks)) == plain_census(sched)
        assert (steps, resets, rows, marks) == (5, 2, 5, (Count(1, 0, 1), Cut(1, 0, 2)))


class TestValidation:
    def test_empty_ok(self):
        assert validate_schedule(Schedule([]), 4) == []

    def test_distance_violation(self):
        out = validate_schedule(Schedule([Swap(0, 5)]), 8)
        assert len(out) == 1 and "apart" in out[0]

    def test_range_and_distinctness(self):
        assert validate_schedule(Schedule([Cnot(3, 4)]), 4)
        assert validate_schedule(Schedule([Swap(2, 2)]), 4)
        assert validate_schedule(Schedule([Reset(3, 2)]), 4)

    def test_shared_bad_gate_reported_per_occurrence_in_order(self):
        bad, other = Swap(0, 5), Cnot(3, 3)
        sched = Schedule([Swap(0, 1), bad, Cnot(1, 2), bad, other, Marker("x"), bad])
        out = validate_schedule(sched, 8)
        assert len(out) == 4
        assert out[0] == out[1] == out[3] == bad.check(8)
        assert out[2] == other.check(8)

    def test_apply_rejects_bad_gate(self):
        reg = single([0, 0, 0])
        with pytest.raises(GateError):
            apply_gate(reg, Cnot(0, 2))
        with pytest.raises(GateError):
            apply_gate(reg, Swap(0, 9))


def any_gate(n):
    """A gate of any kind whose operands may be out of range, repeated or
    far apart, so that it may be malformed for an n-position register."""
    idx = st.integers(min_value=-2, max_value=n + 1)
    return st.one_of(
        st.builds(Cnot, idx, idx),
        st.builds(Swap, idx, idx),
        st.builds(ZcSwap, idx, idx, idx),
        st.builds(Reset, idx, st.integers(min_value=-1, max_value=n + 2)),
    )


def reference_violation(gate, n):
    """The gate rules restated from the operand tuple, gate kind by kind."""
    pos, line = gate.positions(), gate.line()
    if not pos:
        return f"{line}: empty"
    if min(pos) < 0 or max(pos) >= n:
        return f"{line}: position out of range for n={n}"
    if not isinstance(gate, Reset) and len(set(pos)) != len(pos):
        return f"{line}: operands must be pairwise distinct"
    if isinstance(gate, (Cnot, Swap)) and abs(pos[0] - pos[1]) > 1:
        return f"{line}: operands farther than 1 apart"
    if isinstance(gate, ZcSwap):
        z, a, b = pos
        if abs(a - b) > 1:
            return f"{line}: swap operands farther than 1 apart"
        if min(abs(z - a), abs(z - b)) > 1:
            return f"{line}: control not adjacent to swap operands"
    return None


class TestGateChecks:
    @settings(deadline=None, max_examples=300)
    @given(st.data(), st.integers(min_value=1, max_value=6))
    def test_apply_raises_exactly_when_validation_reports(self, data, n):
        bits = np.arange(n * 3).reshape(n, 3) % 3 == 0
        pool = _pack_rows(np.ones((8 * n, 3), dtype=bool))  # enough for 8 resets
        reg = Register.from_comp_bits(bits, reset_pool=pool)
        for g in data.draw(st.lists(any_gate(n), min_size=1, max_size=8)):
            errors = validate_schedule(Schedule([g]), n)
            assert errors == [e for e in [reference_violation(g, n)] if e]
            state, rows, rrtr = reg.state.copy(), list(reg.rows), reg.rrtr.copy()
            if errors:
                with pytest.raises(GateError) as exc:
                    apply_gate(reg, g)
                assert [str(exc.value)] == errors
                assert np.array_equal(reg.state, state) and reg.rows == rows
                assert np.array_equal(reg.rrtr, rrtr)
            else:
                apply_gate(reg, g)  # a well-formed gate never raises GateError

    def test_unknown_gate(self):
        with pytest.raises(GateError, match="unknown gate"):
            apply_gate(single([0, 1]), Marker("not a gate"))


class TestRowMap:
    def test_swap_moves_no_data(self):
        reg = single([1, 0, 1, 1])
        before = reg.state.tobytes()
        apply_gate(reg, Swap(1, 2))
        apply_gate(reg, Swap(0, 1))
        assert reg.state.tobytes() == before
        assert reg.rows == [2, 0, 1, 3]
        assert reg.molecule_bits() == [1, 1, 0, 1]

    def test_reset_writes_through_the_map(self):
        # logical 0 lives in physical row 1 after the swap; RRTR stays logical
        reg = single([1, 0, 1], reset_pool=np.array([[1], [0]], dtype=np.uint64))
        reg.rrtr[:] = np.array([[0], [1], [0]], dtype=np.uint64)
        apply_gate(reg, Swap(0, 1))
        apply_gate(reg, Reset(0, 2))
        assert reg.molecule_bits() == [0, 1, 1]
        assert reg.state[:, 0, 0].tolist() == [1, 0, 1]  # physical rows 0, 1, 2
        assert reg.rrtr[:, 0].tolist() == [1, 0, 0]


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

    def test_repeated_line_then_malformed(self):
        with pytest.raises(ValueError, match="line 3: non-integer"):
            schedule_from_text("SWAP 0 1\nSWAP 0 1\nSWAP 0 x\n")

    def test_parse_shares_equal_lines(self):
        text = schedule_to_text(compile_cooling(CoolingPlan(0.1, 50, 5, 3)))
        items = schedule_from_text(text).items
        distinct_lines = {raw for raw in text.splitlines() if raw.strip()}
        assert len(items) == 818526
        assert len({id(it) for it in items}) == len(distinct_lines) == 1236
        # shared objects still re-serialize line for line
        assert schedule_to_text(Schedule(items)) == text


class TestBatchedExecution:
    def test_batch_agrees_with_single_molecules(self):
        rng = np.random.default_rng(11)
        bits = rng.random((6, 200)) < 0.5
        flags = rng.random((6, 200)) < 0.7
        sched = Schedule(
            [Cnot(0, 1), ZcSwap(1, 2, 3), Swap(3, 4), Cnot(4, 5), ZcSwap(5, 3, 4)]
        )
        batch = Register.from_comp_bits(bits)
        set_flags(batch, flags)
        run_schedule(batch, sched)
        for i in range(0, 200, 37):
            solo = Register.from_comp_bits(bits[:, i : i + 1])
            set_flags(solo, flags[:, i : i + 1])
            run_schedule(solo, sched)
            assert batch.comp_bit_rows(0, 6)[:, i].tolist() == [
                b[0] for b in solo.comp_bit_rows(0, 6).tolist()
            ]
            assert batch.clean_rows(0, 6)[:, i].tolist() == solo.clean_rows(0, 6)[:, 0].tolist()

    def test_padding_stays_clean(self):
        # 70 molecules straddle a word boundary; ops must not leak into padding
        bits = np.ones((4, 70), dtype=bool)
        bits[3] = False
        reg = Register.from_comp_bits(bits)
        apply_gate(reg, Cnot(0, 1))
        apply_gate(reg, ZcSwap(1, 2, 3))  # fires everywhere: row 1 now reads 0
        out = reg.comp_bit_rows(0, 4)
        assert out.shape == (4, 70)
        assert out.tolist() == [[1] * 70, [0] * 70, [0] * 70, [1] * 70]
        assert (reg.state[:, 0, -1] >> np.uint64(6) == 0).all()  # bits 70..127 stay 0
