"""Compression-round tests: compiler output, execution, oracle agreement."""

from dataclasses import fields
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from algcool.circuit import (
    Bcs, Cnot, GateError, Schedule, ZcSwap, apply_bcs, schedule_to_text, validate_schedule,
)
from algcool.compression import bcs_gates, bcs_text, compile_bcs
from support import (
    bits_of, compress, flag_rows, gates, pack, planes, reference_bcs, reference_compile_bcs,
    register, run_gates, set_flag_plane, unpack,
)


def register_for(bits_by_molecule):
    """Batched register from a list of per-molecule bit lists."""
    return register(np.array(bits_by_molecule, dtype=bool).T)


class TestCompileBcs:
    def test_single_pair_is_one_cnot(self):
        sched = compile_bcs(2, 0, 0)
        assert gates(sched) == [Cnot(0, 1)]

    def test_validates_and_meets_step_bound(self):
        for m in (8, 20):
            sched = compile_bcs(m, 0, 0)
            assert validate_schedule(sched, m) == []
            assert len(gates(sched)) < m * m

    def test_offset_region_validates(self):
        sched = compile_bcs(10, nu=15, nu0=5)
        assert validate_schedule(sched, 25) == []

    def test_bad_geometry(self):
        for m in (7, 0):  # the Bcs geometry rejects it
            with pytest.raises(ValueError, match="m must be a positive even count"):
                compile_bcs(m, 0, 0)
        with pytest.raises(ValueError, match="push target not in"):
            compile_bcs(4, nu=2, nu0=5)  # the Bcs geometry itself rejects it

    @given(st.integers(min_value=1, max_value=64))
    @settings(deadline=None, max_examples=30)
    def test_step_bound_property(self, half_m):
        m = 2 * half_m
        assert len(gates(compile_bcs(m, 0, 0))) < m * m

    @given(st.integers(1, 20), st.integers(0, 20), st.integers(0, 30))
    @settings(deadline=None, max_examples=200)
    def test_matches_gate_by_gate_reference(self, half_m, nu0, rise):
        m, nu = 2 * half_m, nu0 + rise
        items, reference = compile_bcs(m, nu, nu0).items, reference_compile_bcs(m, nu, nu0)
        assert items == tuple(reference)  # the same items in the same order
        assert all(a is b for a, b in zip(items[1:], reference[1:]))  # each the shared gate

    def test_blocks_are_the_annotation_then_the_gates(self):
        sched = compile_bcs(10, nu=15, nu0=5)
        assert sched.blocks == ((sched.items[0],), sched.items[1:])


class TestBcsText:
    """``bcs_text`` is the closed form ``compile`` writes and a parse reads."""

    @pytest.mark.parametrize("m", range(2, 65, 2))
    def test_is_the_text_of_the_gates(self, m):
        for depth, nu0 in product(range(6), (0, 1, 7, 50)):  # every depth of ell <= 6
            nu = nu0 + depth * m // 2  # L = depth * m/2, as the walk places it
            gates = compile_bcs(m, nu, nu0).blocks[1]
            assert bcs_text(m, nu, nu0) == schedule_to_text(Schedule(gates))
            for gate in set(gates):  # inside the Bcs span, so compile checks the Bcs alone
                assert nu0 <= min(getattr(gate, f.name) for f in fields(gate))
                assert gate.top <= Bcs(m, nu, nu0).top == nu + m - 1

    @pytest.mark.parametrize("m", range(2, 33, 2))
    def test_gate_count_is_closed_form(self, m):
        for nu, nu0 in [(0, 0), (m // 2, 0), (7 + m, 7), (50 + 3 * m, 50)]:
            assert bcs_gates(m, nu, nu0) == len(compile_bcs(m, nu, nu0).blocks[1])

    def test_bad_geometry(self):
        with pytest.raises(GateError, match="push target not in"):
            bcs_text(4, nu=2, nu0=5)


class TestRunBcs:
    def test_equal_zero_pair(self):
        reg = register_for([[0, 0]])
        assert compress(reg, 2).tolist() == [1]
        assert flag_rows(reg, 0, 2)[:, 0].tolist() == [1, 0]  # kept, supervisor
        assert bits_of(reg) == [0, 0]

    def test_unequal_pair_not_purified(self):
        reg = register_for([[1, 0]])
        assert compress(reg, 2).tolist() == [0]
        assert flag_rows(reg, 0, 2)[:, 0].tolist() == [0, 0]  # dirty, supervisor
        assert bits_of(reg)[1] == 1  # supervisor holds the parity

    def test_all_zero_register(self):
        reg = register_for([[0] * 8])
        assert compress(reg, 8).tolist() == [4]
        bcs = compile_bcs(8, 0, 0).items[0]  # the push target and supervisors are the geometry's
        assert bcs.nu0 == 0
        assert (bcs.nu + bcs.m // 2, bcs.nu + bcs.m) == (4, 8)

    def test_geometry_mismatch(self):
        # the first gate past the register's end raises as it is applied
        reg = register_for([[0, 0]])
        with pytest.raises(ValueError, match="out of range for n=2"):
            compress(reg, 4)

    def test_fused_geometry_mismatch_raises_before_any_change(self):
        reg = register_for([[0, 1, 1]])
        with pytest.raises(GateError, match="out of range for n=3"):
            apply_bcs(reg.rows, reg.num_molecules, Bcs(4, 0, 0))
        assert planes(reg)[:2] == ([0, 1, 1], [1, 1, 1])

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_fused_on_too_few_rows_raises_before_any_change(self, n):
        # a bare row list is fitted by its length, as a register by its n
        bcs, rows = Bcs(4, 1, 0), list(range(n))  # the span [0, 5) needs five rows
        with pytest.raises(GateError) as exc:
            apply_bcs(rows, 3, bcs)
        assert str(exc.value) == bcs.check(n)
        assert bcs.check(n) == f"# bcs: m=4 nu=1 nu0=0: position out of range for n={n}"
        assert rows == list(range(n))

    @given(st.integers(1, 16), st.integers(0, 8), st.integers(0, 8), st.integers(0, 2),
           st.integers(1, 70), st.sampled_from([0.5, 0.9, 1.0]), st.integers(0, 2**32 - 1),
           st.sampled_from(["random", "agree", "differ"]))
    @example(16, 2, 5, 1, 70, 1.0, 1, "agree")  # every pair agrees: the prefix moves by h
    @example(16, 2, 5, 1, 70, 0.9, 2, "differ")  # none agrees: the prefix stays
    @example(7, 0, 3, 0, 65, 1.0, 3, "agree")  # F = h = 7, three binary digits
    @example(8, 1, 6, 2, 64, 1.0, 4, "agree")  # F = h = 8, a fourth digit
    @example(15, 3, 8, 0, 9, 0.9, 5, "agree")  # F = 15, four digits
    @settings(deadline=None, max_examples=200)
    def test_fused_matches_gate_by_gate(self, half_m, nu0, rise, spare, molecules, p_flag,
                                        seed, pairs):
        # partial flags leave some operands unflagged, as a short cut does
        m, nu = 2 * half_m, nu0 + rise
        rng = np.random.default_rng(seed)
        bits, rrtr = rng.random((2, nu + m + spare, molecules)) < 0.5
        if pairs != "random":  # every pair's right operand equal to its left, or not
            bits[nu + 1 : nu + m : 2] = bits[nu : nu + m : 2] ^ (pairs == "differ")
        flags = pack(rng.random(bits.shape) < p_flag)
        fused, gated = (register(bits, fresh=pack(rrtr)) for _ in range(2))
        for reg in (fused, gated):
            set_flag_plane(reg, flags)
        before = planes(fused)
        apply_bcs(fused.rows, fused.num_molecules, Bcs(m, nu, nu0))
        run_gates(gated, compile_bcs(m, nu, nu0))
        assert planes(fused) == planes(gated)
        if pairs != "random":  # the prefix [nu0, nu) moves up by the number of agreed pairs
            shift = half_m if pairs == "agree" else 0
            for old, new in zip(before[:2], planes(fused)[:2]):
                assert new[nu0 + shift : nu + shift] == old[nu0:nu]

    def test_contiguity_no_junk_left_of_purified(self):
        rng = np.random.default_rng(5)
        reg = register(rng.random((10, 500)) < 0.4)
        counts = compress(reg, 10)
        clean = flag_rows(reg, 0, reg.n)
        for i in range(500):
            assert (clean[: counts[i], i] == 1).all()


class TestReferenceBcs:
    def test_documented_examples(self):
        assert reference_bcs([0, 0, 1, 0]) == ([0], [1], [0, 1])
        assert reference_bcs([]) == ([], [], [])
        assert reference_bcs([1, 1]) == ([1], [], [0])

    def test_odd_length(self):
        with pytest.raises(ValueError):
            reference_bcs([0, 1, 0])


def compiled_outputs(m, inputs):
    """Run the compiled schedule on a batch of inputs; return bits and counts."""
    reg = register_for(inputs)
    counts = compress(reg, m)
    return unpack(reg.comp_bit_rows(0, m), reg.num_molecules).T.tolist(), counts


def assert_oracle_agreement(m, inputs):
    bits, counts = compiled_outputs(m, inputs)
    for i, molecule in enumerate(inputs):
        purified, dirty, supervisors = reference_bcs(list(molecule))
        row = bits[i]
        assert counts[i] == len(purified)
        # purified prefix: same values, same left-to-right order
        assert row[: len(purified)] == purified
        # supervisors park right-to-left in pair order
        assert row[m - 1 : m // 2 - 1 : -1] == supervisors
        # the middle region holds exactly the dirty bits
        assert sorted(row[len(purified) : m // 2]) == sorted(dirty)


class TestOracleEquivalence:
    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_exhaustive_small(self, m):
        assert_oracle_agreement(m, list(product([0, 1], repeat=m)))

    def test_random_wide(self):
        rng = np.random.default_rng(9)
        inputs = (rng.random((300, 14)) < 0.5).astype(int).tolist()
        assert_oracle_agreement(14, inputs)


class TestExactPairLaw:
    @pytest.mark.parametrize(
        "eps", [Fraction(0), Fraction(1, 10), Fraction(1, 2), Fraction(1)]
    )
    def test_kept_bias_and_keep_probability(self, eps):
        p0 = (1 + eps) / 2  # P(bit = 0)
        keep_prob = Fraction(0)
        kept_zero = Fraction(0)
        for a, b in product((0, 1), repeat=2):
            w = (p0 if a == 0 else 1 - p0) * (p0 if b == 0 else 1 - p0)
            purified, _, _ = reference_bcs([a, b])
            if purified:
                keep_prob += w
                if purified[0] == 0:
                    kept_zero += w
        assert keep_prob == (1 + eps * eps) / 2
        if keep_prob > 0:
            cond_bias = 2 * (kept_zero / keep_prob) - 1
            assert cond_bias == 2 * eps / (1 + eps * eps)


class TestSteps:
    def test_steps_used_matches_schedule(self):
        sched = compile_bcs(12, 0, 0)  # a run takes one step per gate
        # 6 CNOTs, 30 escort gates and 45 parking swaps
        assert len(gates(sched)) == 81

    def test_double_cost_controlled_swap_still_within_bound(self):
        # the bound survives even if a conditional swap costs two steps
        for m in (8, 20, 50):
            sched = compile_bcs(m, 0, 0)
            zcswaps = sum(isinstance(g, ZcSwap) for g in gates(sched))
            assert len(gates(sched)) + zcswaps < 2 * m * m
