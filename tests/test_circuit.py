"""Gate-engine tests: semantics, provenance, accounting, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from algcool.analytic import CoolingPlan
from algcool.circuit import (
    Annotation,
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
        reg = single([1, 1, 0], strict=False)
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


def reversible_gate(n):
    idx = st.integers(min_value=0, max_value=n - 1)
    cnot = st.builds(Cnot, idx, idx).filter(lambda g: g.control != g.target)
    swap = st.builds(Swap, idx, idx).filter(lambda g: g.a != g.b)
    zc = st.builds(ZcSwap, idx, idx, idx).filter(
        lambda g: len({g.zero_control, g.a, g.b}) == 3
    )
    return st.one_of(cnot, swap, zc)


def reversible_gates(n):
    return st.lists(reversible_gate(n), max_size=40)


class TestAlgebraicProperties:
    @settings(deadline=None)
    @given(st.lists(st.booleans(), min_size=6, max_size=6), reversible_gates(6))
    def test_reverse_sequence_restores_bits(self, bits, gates):
        reg = single(bits, strict=False)
        for g in gates:
            apply_gate(reg, g)
        for g in reversed(gates):
            apply_gate(reg, g)
        assert reg.molecule_bits() == [int(b) for b in bits]

    @settings(deadline=None)
    @given(st.lists(st.booleans(), min_size=6, max_size=6), reversible_gates(6))
    def test_swaps_preserve_bit_multiset(self, bits, gates):
        reg = single(bits, strict=False)
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
    return n, n_mol, gates, draw(st.integers(0, 2**32 - 1))


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
        n, n_mol, gates, seed = case
        rng = np.random.default_rng(seed)
        bits = rng.random((n, n_mol)) < 0.5
        flags = rng.random((n, n_mol)) < 0.7
        pool_rows = sum(g.length for g in gates if isinstance(g, Reset))
        pool = rng.random((pool_rows, n_mol)) < 0.5
        reg = Register.from_comp_bits(bits, reset_pool=_pack_rows(pool), strict=False)
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
            assert [int(r.lengths[i]) for r in run.round_log] == counts
            assert [int(r.lengths[i]) for r in run.truncation_log] == cuts


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

    def test_nonstrict_skips_adjacency(self):
        assert validate_schedule(Schedule([Swap(0, 5)]), 8, strict=False) == []

    def test_apply_rejects_bad_gate(self):
        reg = single([0, 0, 0])
        with pytest.raises(GateError):
            apply_gate(reg, Cnot(0, 2))
        with pytest.raises(GateError):
            apply_gate(reg, Swap(0, 9))


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


class TestBatchedExecution:
    def test_batch_agrees_with_single_molecules(self):
        rng = np.random.default_rng(11)
        bits = rng.random((6, 200)) < 0.5
        flags = rng.random((6, 200)) < 0.7
        sched = Schedule(
            [Cnot(0, 1), ZcSwap(1, 2, 3), Swap(3, 4), Cnot(4, 5), ZcSwap(5, 3, 4)]
        )
        batch = Register.from_comp_bits(bits, strict=False)
        set_flags(batch, flags)
        run_schedule(batch, sched)
        for i in range(0, 200, 37):
            solo = Register.from_comp_bits(bits[:, i : i + 1], strict=False)
            set_flags(solo, flags[:, i : i + 1])
            run_schedule(solo, sched)
            assert batch.comp_bit_rows(0, 6)[:, i].tolist() == [
                b[0] for b in solo.comp_bit_rows(0, 6).tolist()
            ]
            assert batch.clean_rows(0, 6)[:, i].tolist() == solo.clean_rows(0, 6)[:, 0].tolist()

    def test_padding_stays_clean(self):
        # 70 molecules straddle a word boundary; ops must not leak into padding
        bits = np.ones((3, 70), dtype=bool)
        reg = Register.from_comp_bits(bits, strict=False)
        apply_gate(reg, Cnot(0, 1))
        apply_gate(reg, ZcSwap(1, 0, 2))
        out = reg.comp_bit_rows(0, 3)
        assert out.shape == (3, 70)
        assert (out[1] == 0).all()
