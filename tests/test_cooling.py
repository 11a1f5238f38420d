"""Recursive scheduler tests: structure, space, step bounds, execution."""

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
    run_cooling,
)
from algcool.ensemble import _build_registers
from support import (
    entries, gates, numpy_draws, observed, pack, planes, reference_cooling,
    reference_cooling_batch, register, replay,
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
    """Gates of each kind, counted from the items, and the census's reset rows."""
    return {**Counter(map(type, gates(schedule))), "rows": schedule.census.reset_rows}


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
            assert compile_cooling(plan).census.steps <= plan.step_bound

    def test_gate_counts_match_closed_forms(self):
        for m, ell, jf in product((2, 4, 6, 8, 20), range(4, 8), range(4)):
            sched = compile_cooling(CoolingPlan(0.1, m, ell, jf))
            expected = {k: v for k, v in closed_form_counts(m, ell, jf).items() if v}
            assert gate_counts(sched) == expected, (m, ell, jf)
            assert sched.census.resets == ell**jf, (m, ell, jf)
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


class TestRunCooling:
    def test_pure_input_always_succeeds(self):
        plan = CoolingPlan(1.0, 4, 5, 2)
        sched = compile_cooling(plan)
        reg = _build_registers(plan.n_required, 1.0, 0, 0, 1, sched.census.reset_rows)
        run = run_cooling(reg, plan)
        bits, _, _, success = observed(run)
        assert bool(success[0])
        assert bits[:, 0].tolist() == [0, 0, 0, 0]
        assert len(entries(run, Cut)) == truncation_count(5, 2)

    def test_truncation_log_count_and_success_recompute(self):
        plan = CoolingPlan(0.1, 4, 5, 2)
        sched = compile_cooling(plan)
        rng = np.random.default_rng(3)
        bits = rng.random((plan.n_required, 64)) < 0.45
        pool = rng.random((sched.census.reset_rows, 64)) < 0.45
        reg = register(bits, fresh=[0] * plan.n_required + pack(pool))
        run = run_cooling(reg, plan)
        assert len(entries(run, Cut)) == truncation_count(5, 2)
        _, _, cuts, success = observed(run)
        recomputed = np.ones(64, dtype=bool)
        for (cut, _), lengths in zip(entries(run, Cut), cuts):
            recomputed &= lengths >= cut.m
        assert (success == recomputed).all()
        assert sched.census.steps <= plan.step_bound

    def test_marks_out_of_range_raise_before_any_gate(self):
        # every mark of the walk fits a register that holds the plan, so a
        # register one position short is refused before any gate runs
        for plan in (CoolingPlan(0.1, 2, 4, 1), CoolingPlan(0.1, 4, 5, 2)):
            n = plan.n_required
            assert max(mark.top for mark in compile_cooling(plan).census.marks) < n
            rows = np.random.default_rng(0).random((2 * n, 3)) < 0.5
            reg = register(rows[: n - 1], fresh=pack(rows[n - 1 :]))
            before = planes(reg)
            with pytest.raises(ValueError, match=f"plan requires {n}"):
                run_cooling(reg, plan)
            assert planes(reg) == before  # no gate ran
            assert reg.draw_reset_rows(2) == pack(rows[2 * n - 2 :])  # and nothing was drawn

    def test_round_log_counts(self):
        plan = CoolingPlan(0.1, 4, 5, 2)
        sched = compile_cooling(plan)
        reg = _build_registers(plan.n_required, 0.1, 1, 0, 1, sched.census.reset_rows)
        run = run_cooling(reg, plan)
        # ell rounds at the top level, ell per inner block
        assert len(entries(run, Count)) == 5 + 25
        assert all(1 <= count.round <= 5 for count, _ in entries(run, Count))

    def test_logs_hold_the_schedules_marks(self):
        plan = CoolingPlan(0.1, 4, 5, 2)
        sched = compile_cooling(plan)
        reg = _build_registers(plan.n_required, 0.1, 1, 0, 1, sched.census.reset_rows)
        run = run_cooling(reg, plan)
        assert [mark for mark, _ in run.log] == list(sched.census.marks)  # one log, in order
        for kind in (Count, Cut):
            marks = [it for it in sched.census.marks if isinstance(it, kind)]
            log = entries(run, kind)
            assert len(log) == len(marks) > 0
            assert [mark for mark, _ in log] == marks  # in schedule order, by value

    @pytest.mark.parametrize("eps,m,ell,jf", [(0.1, 8, 5, 2), (0.3, 4, 5, 3)])
    def test_blocked_and_single_block_runs_agree(self, eps, m, ell, jf):
        # a run reads only its plan; the schedules it stands for share one census
        plan = CoolingPlan(eps, m, ell, jf)
        blocked = compile_cooling(plan)
        single = Schedule(blocked.items)
        parsed = schedule_from_text(schedule_to_text(blocked))  # blocked again, by its text
        assert len(single.blocks) == 1 < len({id(b) for b in blocked.blocks}) < len(blocked.blocks)
        assert blocked.census == single.census == parsed.census
        assert len(blocked.census.marks) > 0 and blocked.census.reset_rows > 0

    @pytest.mark.parametrize("shape", [(4, 4, 3), (2, 4, 4), (4, 7, 2), (14, 4, 2), (16, 4, 2)])
    def test_register_matches_gate_by_gate_replay(self, shape):
        # plans whose short cuts leave unflagged operands in later compressions;
        # h = 7 and 8 put the count of agreed pairs on either side of a binary digit
        plan = CoolingPlan(0.1, *shape)
        sched = compile_cooling(plan)
        fused, gated = (_build_registers(plan.n_required, 0.1, 7, 0, 300,
                                         sched.census.reset_rows) for _ in range(2))
        run = run_cooling(fused, plan)
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
        sched = compile_cooling(plan)
        n = plan.n_required
        draws = np.random.default_rng(seed).random((2 * n + sched.census.reset_rows,
                                                    molecules)) < p_one
        run = run_cooling(register(draws[:n], fresh=pack(draws[n:])), plan)
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
        rows = 2 * plan.n_required + compile_cooling(plan).census.reset_rows
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
        sched = compile_cooling(plan)
        reg = _build_registers(plan.n_required, plan.epsilon0, seed, 0, molecules,
                               sched.census.reset_rows)
        run_bits, run_counts, run_cuts, run_success = observed(run_cooling(reg, plan))
        bits, counts, cuts, success = reference_cooling_batch(
            plan, self.numpy_draw_rows(plan, seed, molecules))
        for log, reference in ((run_counts, counts), (run_cuts, cuts)):
            assert len(log) == len(reference)
            assert all((lengths == ref).all() for lengths, ref in zip(log, reference))
        assert (run_success == success).all()
        assert shape == (200, 5, 3) or not success.all()  # short cuts occur
        assert (run_bits == bits).all()

    def test_register_too_small(self):
        plan = CoolingPlan(0.1, 20, 5, 3)
        reg = register(np.zeros((10, 1), dtype=bool))
        with pytest.raises(ValueError):
            run_cooling(reg, plan)

    def test_depth_zero_run(self):
        plan = CoolingPlan(0.5, 4, 5, 0)
        reg = _build_registers(4, 0.5, 2, 0, 1, 4)
        run = run_cooling(reg, plan)
        assert observed(run)[3].tolist() == [True]
        assert entries(run, Cut) == []
