"""Compression-round tests: compiler output, execution, oracle agreement."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from algcool.circuit import Cnot, ZcSwap, validate_schedule
from algcool.compression import compile_bcs
from support import bits_of, compress, flag_rows, gates, reference_bcs, register


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
            assert sched.census.steps < m * m

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
        assert compile_bcs(m, 0, 0).census.steps < m * m


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
    return reg.comp_bit_rows(0, m).T.tolist(), counts


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
        assert sched.census.steps == len(gates(sched)) == 81

    def test_double_cost_controlled_swap_still_within_bound(self):
        # the bound survives even if a conditional swap costs two steps
        for m in (8, 20, 50):
            sched = compile_bcs(m, 0, 0)
            zcswaps = sum(isinstance(g, ZcSwap) for g in gates(sched))
            assert sched.census.steps + zcswaps < 2 * m * m
