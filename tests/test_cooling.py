"""Recursive scheduler tests: structure, space, step bounds, execution."""

import gc
import tracemalloc
from collections import Counter
from dataclasses import astuple
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from algcool import cooling
from algcool.analytic import CoolingPlan, truncation_count
from algcool.circuit import (
    Bcs,
    Cnot,
    Count,
    Cut,
    Register,
    Reset,
    Schedule,
    Swap,
    ZcSwap,
    schedule_from_text,
    schedule_to_text,
    validate_schedule,
)
from algcool.compression import compile_bcs
from algcool.cooling import (
    compile_cooling,
    expected_length_after_round,
    plan_census,
    run_cooling,
)
from algcool.ensemble import _Accumulator, _build_registers
from support import (
    entries, gates, numpy_draws, observed, packed_draws, plain_census, planes, reference_cooling,
    reference_cooling_batch, replay, serial_cooling,
)


def reset_phases(schedule):
    return [g for g in gates(schedule) if isinstance(g, Reset)]


def highest_index(schedule):
    """The highest position any gate names, read from its fields."""
    return max(g.start + g.length - 1 if isinstance(g, Reset) else max(astuple(g))
               for g in gates(schedule))


def closed_form_counts(m, ell, jf):
    """Gates of each kind and reset rows of a compiled plan, in closed form:
    C = ell(ell^jf - 1)/(ell - 1) compressions of h = m/2 pairs, and one
    m-wide RESET per level-0 phase."""
    h, c = m // 2, Fraction(ell * (ell**jf - 1), ell - 1)
    return {Cnot: c * h, ZcSwap: c * h * (h * ell - 1) / 2,
            Swap: c * h * (h * (ell + 1) - 2), Reset: ell**jf, "rows": m * ell**jf}


def gate_counts(schedule):
    """Gates of each kind and the RESETs' rows, counted from the items."""
    return {**Counter(map(type, gates(schedule))),
            "rows": sum(r.length for r in reset_phases(schedule))}


class TestCompileStructure:
    def test_depth_zero_is_single_reset(self):
        sched = compile_cooling(CoolingPlan(0.1, 6, 5, 0))
        assert gates(sched) == [Reset(0, 6)]

    def test_depth_one_interleaving(self):
        sched = compile_cooling(CoolingPlan(0.1, 4, 4, 1))
        resets = reset_phases(sched)
        assert resets == [Reset(0, 4), Reset(2, 4), Reset(4, 4), Reset(6, 4)]
        offsets = [it.nu for it in sched.items if isinstance(it, Bcs)]
        assert offsets == [0, 2, 4, 6]

    def test_reset_phase_count(self):
        for ell, jf in [(5, 1), (5, 2), (5, 3), (6, 2)]:
            plan = CoolingPlan(0.1, 4, ell, jf)
            assert len(reset_phases(compile_cooling(plan))) == ell**jf

    def test_space_exactness(self):
        for plan in [
            CoolingPlan(0.1, 4, 5, 2),
            CoolingPlan(0.1, 8, 6, 2),
            CoolingPlan(0.1, 20, 5, 3),
        ]:
            assert highest_index(compile_cooling(plan)) == plan.n_required - 1

    def test_structural_recursion_prefix(self):
        # the first inner block of level j is gate-for-gate level j-1
        outer = gates(compile_cooling(CoolingPlan(0.1, 4, 5, 2)))
        inner = gates(compile_cooling(CoolingPlan(0.1, 4, 5, 1)))
        assert outer[: len(inner)] == inner

    def test_each_compression_geometry_compiled_once(self, monkeypatch):
        calls = []

        def counting(m, nu, nu0):
            calls.append((nu, nu0))
            return compile_bcs(m, nu=nu, nu0=nu0)

        monkeypatch.setattr(cooling, "compile_bcs", counting)
        sched = compile_cooling(CoolingPlan(0.1, 50, 5, 3))
        assert len(calls) == len(set(calls)) == 45  # of 155 compressions
        assert sum(isinstance(it, Bcs) for it in sched.items) == 155

    def test_equal_gates_are_one_object(self):
        headline = gates(compile_cooling(CoolingPlan(0.1, 50, 5, 3)))
        assert len(headline) == 817750
        assert len({id(g) for g in headline}) == len(set(headline)) == 1010

    def test_schedule_validates(self):
        plan = CoolingPlan(0.1, 8, 5, 2)
        assert validate_schedule(compile_cooling(plan), plan.n_required) == []

    def test_step_bounds(self):
        for m, ell, jf in [(4, 5, 3), (8, 6, 2), (20, 5, 3)]:
            plan = CoolingPlan(0.1, m, ell, jf)
            assert len(gates(compile_cooling(plan))) <= plan.step_bound

    def test_gate_counts_match_closed_forms(self):
        for m, ell, jf in product((2, 4, 6, 8, 20), range(4, 8), range(4)):
            sched = compile_cooling(CoolingPlan(0.1, m, ell, jf))
            expected = {k: v for k, v in closed_form_counts(m, ell, jf).items() if v}
            assert gate_counts(sched) == expected, (m, ell, jf)
        headline = gate_counts(compile_cooling(CoolingPlan(0.1, 50, 5, 3)))
        assert [headline[k] for k in (Cnot, ZcSwap, Swap, Reset)] == [3875, 240250, 573500, 125]
        assert headline == closed_form_counts(50, 5, 3)


class TestExpectedLength:
    def test_values(self):
        assert expected_length_after_round(0.0, 20, 4) == pytest.approx(20.0)
        assert expected_length_after_round(0.1, 50, 5) == pytest.approx(63.125)
        assert expected_length_after_round(1.0, 16, 2) == pytest.approx(16.0)

    def test_round_index_check(self):
        with pytest.raises(ValueError):
            expected_length_after_round(0.1, 20, 0)


class TestWalk:
    PLAN = CoolingPlan(0.1, 2, 4, 6)  # 21,841 blocks

    def test_a_walk_holds_no_block_list(self):
        # with the cyclic GC off, a block list that a recursive closure
        # refers to outlives the loop: 4.98 MB on this plan
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            for _ in cooling._walk(self.PLAN):
                pass
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert held < 64 * 1024

    def test_a_run_peaks_below_the_walks_block_list(self):
        plan = self.PLAN
        draws = _build_registers(plan.n_required, plan.epsilon0, 3, 0, 8,
                                 plan_census(plan).reset_rows)
        gc.collect()
        tracemalloc.start()
        try:
            blocks = list(cooling._walk(plan))
            size = tracemalloc.get_traced_memory()[0]
            del blocks
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run_cooling(draws, 8, plan)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < size


class TestRunCooling:
    def test_pure_input_always_succeeds(self):
        plan = CoolingPlan(1.0, 4, 5, 2)
        draws = _build_registers(plan.n_required, 1.0, 0, 0, 1, plan_census(plan).reset_rows)
        run = run_cooling(draws, 1, plan)
        bits, _, _, success = observed(run)
        assert bool(success[0])
        assert bits[:, 0].tolist() == [0, 0, 0, 0]
        assert len(entries(run, Cut)) == truncation_count(5, 2)

    def test_truncation_log_count_and_success_recompute(self):
        plan = CoolingPlan(0.1, 4, 5, 2)
        rng = np.random.default_rng(3)
        bits = rng.random((plan.n_required, 64)) < 0.45
        pool = rng.random((plan_census(plan).reset_rows, 64)) < 0.45
        draws = packed_draws(np.vstack([bits, np.zeros_like(bits), pool]))
        run = run_cooling(draws, 64, plan)
        assert len(entries(run, Cut)) == truncation_count(5, 2)
        _, _, cuts, success = observed(run)
        recomputed = np.ones(64, dtype=bool)
        for (cut, _), lengths in zip(entries(run, Cut), cuts):
            recomputed &= lengths >= cut.m
        assert (success == recomputed).all()

    def test_round_log_counts(self):
        plan = CoolingPlan(0.1, 4, 5, 2)
        draws = _build_registers(plan.n_required, 0.1, 1, 0, 1, plan_census(plan).reset_rows)
        run = run_cooling(draws, 1, plan)
        # ell rounds at the top level, ell per inner block
        assert len(entries(run, Count)) == 5 + 25
        assert all(1 <= count.round <= 5 for count, _ in entries(run, Count))

    def test_logs_hold_the_schedules_marks(self):
        plan = CoolingPlan(0.1, 4, 5, 2)
        *_, rows, schedule_marks = plain_census(compile_cooling(plan))
        draws = _build_registers(plan.n_required, 0.1, 1, 0, 1, rows)
        run = run_cooling(draws, 1, plan)
        assert [mark for mark, _ in entries(run)] == list(schedule_marks)  # one log, in order
        for kind in (Count, Cut):
            marks = [it for it in schedule_marks if isinstance(it, kind)]
            log = entries(run, kind)
            assert len(log) == len(marks) > 0
            assert [mark for mark, _ in log] == marks  # in schedule order, by value

    @pytest.mark.parametrize("eps,m,ell,jf", [(0.1, 8, 5, 2), (0.3, 4, 5, 3)])
    def test_blocked_and_single_block_runs_agree(self, eps, m, ell, jf):
        # a run reads only its plan; the schedules it stands for have its census
        plan = CoolingPlan(eps, m, ell, jf)
        blocked = compile_cooling(plan)
        single = Schedule(blocked.items)
        parsed = schedule_from_text(schedule_to_text(blocked))  # blocked again, by its text
        assert len(single.blocks) == 1 < len({id(b) for b in blocked.blocks}) < len(blocked.blocks)
        census = plan_census(plan)
        assert plain_census(blocked) == plain_census(single) == plain_census(parsed) == census
        assert len(census.marks) > 0 and census.reset_rows > 0

    @pytest.mark.parametrize("shape", [(4, 4, 3), (2, 4, 4), (4, 7, 2), (14, 4, 2), (16, 4, 2)])
    def test_register_matches_gate_by_gate_replay(self, shape):
        # plans whose short cuts leave unflagged operands in later compressions;
        # h = 7 and 8 put the count of agreed pairs on either side of a binary digit.
        # The serial run leaves its register as the gates would
        plan = CoolingPlan(0.1, *shape)
        sched = compile_cooling(plan)
        draws = _build_registers(plan.n_required, 0.1, 7, 0, 300, plan_census(plan).reset_rows)
        fused, gated = (Register(plan.n_required, 300, draws) for _ in range(2))
        run = serial_cooling(fused, plan)
        counts, cuts = replay(gated, plan, sched)
        _, run_counts, run_cuts, success = observed(run)
        assert not success.all()  # short cuts occur
        assert planes(fused) == planes(gated)
        for log, lengths in ((run_counts, counts), (run_cuts, cuts)):
            assert len(log) == len(lengths)
            assert all((a == b).all() for a, b in zip(log, lengths))

    @staticmethod
    def run_and_reference(plan, seed, p_one, molecules):
        """``run_cooling`` on random draws, read per molecule (``observed``), and
        ``reference_cooling`` per molecule."""
        n = plan.n_required
        draws = np.random.default_rng(seed).random((2 * n + plan_census(plan).reset_rows,
                                                    molecules)) < p_one
        run = run_cooling(packed_draws(draws), molecules, plan)
        return observed(run), [reference_cooling(plan, col.tolist()) for col in draws.T.astype(int)]

    @given(st.sampled_from([2, 4, 6, 8]), st.sampled_from([4, 5]), st.integers(0, 2),
           st.integers(0, 2**32 - 1), st.sampled_from([0.05, 0.3, 0.5]))
    @example(8, 4, 2, 1, 0.45)  # failed truncations, so unflagged equal pairs
    @settings(deadline=None, max_examples=40)
    def test_matches_gate_free_reference(self, m, ell, jf, seed, p_one):
        plan = CoolingPlan(0.1, m, ell, jf)
        (run_bits, run_counts, run_cuts, run_success), reference = self.run_and_reference(
            plan, seed, p_one, 24)
        for k, (bits, counts, cuts, success) in enumerate(reference):
            assert run_bits[:, k].tolist() == bits
            assert [int(lengths[k]) for lengths in run_counts] == counts
            assert [int(lengths[k]) for lengths in run_cuts] == cuts
            assert bool(run_success[k]) == success

    def test_reference_sees_failed_truncations(self):
        # at ell = 4 some molecules fail a level-1 cut, so level 2 compares
        # pairs with an unflagged operand
        (*_, run_success), reference = self.run_and_reference(CoolingPlan(0.1, 8, 4, 2), 1,
                                                               0.45, 24)
        assert 0 < sum(success for *_, success in reference) < 24
        assert run_success.tolist() == [success for *_, success in reference]

    def test_a_lone_molecule_cut_at_exactly_m_succeeds(self):
        # alone, a molecule's run in unary is as long as the run itself, so a
        # cut of exactly m ends at entry m - 1, the entry success reads
        plan, exact = CoolingPlan(0.1, 4, 4, 1), 0
        for seed in range(20):
            (*_, success), [(*_, cuts, ref_success)] = self.run_and_reference(plan, seed, 0.45, 1)
            assert success.tolist() == [ref_success]
            exact += cuts == [plan.m]
        assert exact > 0

    @staticmethod
    def numpy_draw_rows(plan, seed, molecules):
        """Every molecule's thermal source straight from numpy, (molecules, rows)."""
        rows = 2 * plan.n_required + plan_census(plan).reset_rows
        return np.array([numpy_draws(seed, i, rows, plan.epsilon0) for i in range(molecules)],
                        dtype=np.uint8)

    def test_batch_reference_matches_per_molecule_reference(self):
        plan = CoolingPlan(0.1, 8, 4, 2)
        draws = self.numpy_draw_rows(plan, 3, 32)
        bits, counts, cuts, success = reference_cooling_batch(plan, draws)
        assert 0 < success.sum() < 32  # failed truncations, so unflagged equal pairs
        for k, row in enumerate(draws.tolist()):
            ref_bits, ref_counts, ref_cuts, ref_success = reference_cooling(plan, row)
            assert bits[:, k].tolist() == ref_bits
            assert [int(lengths[k]) for lengths in counts] == ref_counts
            assert [int(lengths[k]) for lengths in cuts] == ref_cuts
            assert bool(success[k]) == ref_success

    @pytest.mark.parametrize("shape,molecules", [
        ((50, 5, 3), 256),  # the headline
        ((4, 4, 3), 1024),  # many short cuts
        ((20, 5, 2), 1024),  # the acceptance plan
        ((200, 5, 3), 64),  # the widest register run here; every molecule succeeds
    ])
    def test_engine_matches_batch_reference(self, shape, molecules):
        plan, seed = CoolingPlan(0.1, *shape), 5
        draws = _build_registers(plan.n_required, plan.epsilon0, seed, 0, molecules,
                                 plan_census(plan).reset_rows)
        run_bits, run_counts, run_cuts, run_success = observed(run_cooling(draws, molecules, plan))
        bits, counts, cuts, success = reference_cooling_batch(
            plan, self.numpy_draw_rows(plan, seed, molecules))
        for log, reference in ((run_counts, counts), (run_cuts, cuts)):
            assert len(log) == len(reference)
            assert all((lengths == ref).all() for lengths, ref in zip(log, reference))
        assert (run_success == success).all()
        assert shape == (200, 5, 3) or not success.all()  # short cuts occur
        assert (run_bits == bits).all()

    @pytest.mark.parametrize("molecules", [1, 8, 9])
    def test_draws_of_the_wrong_shape_raise(self, molecules):
        # every mark of the walk fits the plan's n positions; draws one row
        # short, or a byte too narrow for the batch, are refused, both sizes named
        for plan in (CoolingPlan(0.1, 2, 4, 1), CoolingPlan(0.1, 4, 5, 2)):
            census = plan_census(plan)
            assert max(mark.top for mark in census.marks) < plan.n_required
            rows, width = 2 * plan.n_required + census.reset_rows, (molecules + 7) // 8
            draws = np.zeros((rows, width + 1), dtype=np.uint8)
            run_cooling(draws[:, :width], molecules, plan)  # the right shape runs
            for wrong in (draws[1:, :width], draws[:, : width - 1], draws):
                with pytest.raises(ValueError, match=(
                        rf"^draws have shape \({wrong.shape[0]}, {wrong.shape[1]}\); the plan "
                        rf"on {molecules} molecules needs \({rows}, {width}\)$")):
                    run_cooling(wrong, molecules, plan)

    def test_depth_zero_run(self):
        plan = CoolingPlan(0.5, 4, 5, 0)
        draws = _build_registers(4, 0.5, 2, 0, 1, 4)
        run = run_cooling(draws, 1, plan)
        assert observed(run)[3].tolist() == [True]
        assert entries(run, Cut) == []


class TestClosedFormCensus:
    @pytest.mark.parametrize("jf", range(4))
    def test_equals_the_compiled_census(self, jf):
        for ell, m in product(range(4, 8), range(2, 13, 2)):
            plan = CoolingPlan(0.1, m, ell, jf)
            assert plan_census(plan) == plain_census(compile_cooling(plan)), (m, ell, jf)

    @pytest.mark.parametrize("shape", [(50, 5, 3), (200, 5, 2)])
    def test_equals_the_compiled_census_of_wide_plans(self, shape):
        plan = CoolingPlan(0.1, *shape)
        assert plan_census(plan) == plain_census(compile_cooling(plan))

    def test_deep_plan_without_a_schedule(self):
        # the eps0 = 0.01 row's deepest plan: 390,621 walk blocks, none built
        census = plan_census(CoolingPlan(0.01, 20, 5, 7))
        assert (census.resets, census.reset_rows) == (5**7, 20 * 5**7)
        assert len(census.marks) == 6 * (5**7 - 1) // 4
        assert len({id(mark) for mark in census.marks}) < 1000  # equal marks are one object


class TestResetTable:
    @given(st.sampled_from([2, 4, 6, 10, 20]), st.sampled_from([4, 5, 6, 7]), st.integers(0, 4))
    @example(4, 4, 0)
    @example(2, 4, 4)
    @example(10, 7, 3)
    @settings(deadline=None, max_examples=30)
    def test_matches_a_replay_of_the_walks_resets(self, m, ell, jf):
        # each RESET of the walk, in order, takes each position's last refill,
        # or its initial RRTR row, as indices into the draws past the n
        # computation rows, and refills the positions with its own reset rows
        plan = CoolingPlan(0.1, m, ell, jf)
        n = plan.n_required
        refill, expected = list(range(n)), []
        resets = [block[-1] for block in cooling._walk(plan) if type(block[-1]) is Reset]
        for k, reset in enumerate(resets):
            span = slice(reset.start, reset.start + reset.length)
            expected.append(refill[span])
            refill[span] = range(n + k * m, n + (k + 1) * m)
        offsets, _ = cooling._lanes(plan)
        assert cooling._reset_table(plan, offsets).tolist() == expected


class TestLevelMajorRun:
    """The level-major run against the serial oracle, which runs the plan's
    walk block by block on one register."""

    @given(st.sampled_from([2, 4, 6, 8, 10]), st.sampled_from([4, 5, 6, 7]), st.integers(0, 4),
           st.sampled_from([1, 7, 8, 9, 77]), st.integers(0, 2**32 - 1),
           st.sampled_from([0.05, 0.3, 0.5]))
    @example(8, 4, 2, 1, 1, 0.45)  # widths that are not whole bytes
    @example(4, 4, 3, 7, 2, 0.45)
    @example(10, 7, 2, 9, 3, 0.3)
    @example(2, 5, 4, 77, 4, 0.3)
    @example(6, 7, 4, 9, 5, 0.5)  # 2,401 RESETs
    @settings(deadline=None, max_examples=40)
    def test_matches_the_serial_oracle_mark_by_mark(self, m, ell, jf, width, seed, p_one):
        plan = CoolingPlan(0.1, m, ell, jf)
        n = plan.n_required
        draws = packed_draws(np.random.default_rng(seed).random((2 * n + m * ell**jf, width))
                             < p_one)
        run, oracle = run_cooling(draws, width, plan), serial_cooling(Register(n, width, draws), plan)
        assert entries(run) == entries(oracle)  # every mark, lane by lane
        assert run.output_bits == oracle.output_bits
        assert run.success == oracle.success
        totals = [_Accumulator.empty(m, run.marks) for _ in range(2)]
        for acc, observed_run in zip(totals, (run, oracle)):
            acc.fold(observed_run)
        for name in ("zero_counts", "success_zero_counts", "length_sums"):
            assert getattr(totals[0], name).tolist() == getattr(totals[1], name).tolist(), name
        assert totals[0].success_count == totals[1].success_count
        assert totals[0].shortfalls == totals[1].shortfalls
