"""Recursive scheduler tests: structure, space, step bounds, execution."""

from dataclasses import astuple

import numpy as np
import pytest

from algcool import cooling
from algcool.analytic import CoolingPlan, truncation_count
from algcool.circuit import (
    Bcs,
    Count,
    Cut,
    GateError,
    Register,
    Reset,
    _pack_rows,
    schedule_from_text,
    validate_schedule,
)
from algcool.compression import compile_bcs
from algcool.cooling import (
    compile_cooling,
    expected_length_after_round,
    run_cooling,
)
from algcool.ensemble import sample_molecule


def reset_phases(schedule):
    return [g for g in schedule.gates() if isinstance(g, Reset)]


def highest_index(schedule):
    """The highest position any gate names, read from its fields."""
    return max(g.start + g.length - 1 if isinstance(g, Reset) else max(astuple(g))
               for g in schedule.gates())


class TestCompileStructure:
    def test_depth_zero_is_single_reset(self):
        sched = compile_cooling(CoolingPlan(0.1, 6, 5, 0))
        assert sched.gates() == [Reset(0, 6)]

    def test_depth_one_interleaving(self):
        with pytest.warns(UserWarning):
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
        outer = compile_cooling(CoolingPlan(0.1, 4, 5, 2)).gates()
        inner = compile_cooling(CoolingPlan(0.1, 4, 5, 1)).gates()
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
        gates = compile_cooling(CoolingPlan(0.1, 50, 5, 3)).gates()
        assert len(gates) == 817750
        assert len({id(g) for g in gates}) == len(set(gates)) == 1010

    def test_schedule_validates(self):
        plan = CoolingPlan(0.1, 8, 5, 2)
        assert validate_schedule(compile_cooling(plan), plan.n_required) == []

    def test_step_bounds(self):
        for m, ell, jf in [(4, 5, 3), (8, 6, 2), (20, 5, 3)]:
            plan = CoolingPlan(0.1, m, ell, jf)
            assert compile_cooling(plan).step_total() <= plan.step_bound


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
        reg = sample_molecule(plan.n_required, 1.0, seed=0, index=0,
                              reset_rows=compile_cooling(plan).reset_rows())
        run = run_cooling(reg, plan)
        assert bool(run.success[0])
        assert run.output_bits[:, 0].tolist() == [0, 0, 0, 0]
        assert len(run.truncation_log) == truncation_count(5, 2)

    def test_truncation_log_count_and_success_recompute(self):
        plan = CoolingPlan(0.1, 4, 5, 2)
        sched = compile_cooling(plan)
        rng = np.random.default_rng(3)
        bits = rng.random((plan.n_required, 64)) < 0.45
        pool = rng.random((sched.reset_rows(), 64)) < 0.45
        fresh = _pack_rows(np.packbits(pool, axis=1, bitorder="little"))
        reg = Register.from_comp_bits(bits, fresh=[0] * plan.n_required + fresh)
        run = run_cooling(reg, plan, sched)
        assert len(run.truncation_log) == truncation_count(5, 2)
        recomputed = np.ones(64, dtype=bool)
        for cut, lengths in run.truncation_log:
            recomputed &= lengths >= cut.m
        assert (run.success == recomputed).all()
        assert sched.step_total() <= plan.step_bound

    def test_marks_out_of_range_raise_before_any_gate(self):
        plan = CoolingPlan(0.1, 2, 4, 0)
        reg = Register([0, 0], 3)
        for marks in ["# count: level=1 at=99 round=1\n# cut: level=1 at=99 m=2",
                      "# cut: level=1 at=99 m=2"]:
            with pytest.raises(GateError, match="out of range for n=2"):
                run_cooling(reg, plan, schedule_from_text(f"SWAP 0 1\n{marks}\n"))
            assert reg.rows == [0, 1]  # the SWAP never ran

    def test_round_log_counts(self):
        plan = CoolingPlan(0.1, 4, 5, 2)
        reg = sample_molecule(plan.n_required, 0.1, seed=1, index=0,
                              reset_rows=compile_cooling(plan).reset_rows())
        run = run_cooling(reg, plan)
        # ell rounds at the top level, ell per inner block
        assert len(run.round_log) == 5 + 25
        assert all(1 <= count.round <= 5 for count, _ in run.round_log)

    def test_logs_hold_the_schedules_own_marks(self):
        plan = CoolingPlan(0.1, 4, 5, 2)
        sched = compile_cooling(plan)
        reg = sample_molecule(plan.n_required, 0.1, seed=1, index=0,
                              reset_rows=sched.reset_rows())
        run = run_cooling(reg, plan, sched)
        for log, kind in ((run.round_log, Count), (run.truncation_log, Cut)):
            marks = [it for it in sched.items if isinstance(it, kind)]
            assert len(log) == len(marks) > 0
            assert all(mark is it for (mark, _), it in zip(log, marks))  # in schedule order

    def test_register_too_small(self):
        plan = CoolingPlan(0.1, 20, 5, 3)
        reg = Register.from_comp_bits(np.zeros((10, 1), dtype=bool))
        with pytest.raises(ValueError):
            run_cooling(reg, plan)

    def test_depth_zero_run(self):
        plan = CoolingPlan(0.5, 4, 5, 0)
        reg = sample_molecule(4, 0.5, seed=2, index=0, reset_rows=4)
        run = run_cooling(reg, plan)
        assert bool(run.success[0])
        assert run.truncation_log == []
