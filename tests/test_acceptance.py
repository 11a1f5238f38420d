"""End-to-end acceptance gate: one test per headline claim.

Each test is a single pass/fail verdict at the stated tolerance; run with
``pytest -v tests/test_acceptance.py`` for one line per criterion.
"""

import json
import math
import time
from fractions import Fraction
from itertools import product

import numpy as np

from algcool.analytic import (
    CoolingPlan,
    bias_schedule,
    feasibility_table,
    shannon_yield,
)
from algcool.circuit import Cut, Reset
from algcool.cli import main
from algcool.compression import compile_bcs
from algcool.cooling import compile_cooling, plan_census, run_cooling
from algcool.ensemble import _build_registers, compare_to_analytic, run_ensemble
from support import compress, entries, gates, reference_bcs, register, unpack

# Published feasibility-table cells: (eps0, j_f) -> (eps_f, delta_f,
# {m: p or None for unfeasible}). Values as displayed; numeric comparison
# allows one unit in the last displayed digit.
TABLE_CELLS = {
    (0.1, 0): ("0.1", "0.45", {20: "6.4e-6", 50: None, 200: None}),
    (0.1, 3): ("0.666", "0.1672", {20: "2.6e-2", 50: "1.1e-4", 200: None}),
    (0.1, 4): ("0.922", "0.0388", {20: "4.5e-1", 50: "1.3e-1", 200: "3.7e-4"}),
    (0.01, 0): ("0.01", "0.495", {20: "1.2e-6", 50: None, 200: None}),
    (0.01, 6): ("0.565", "0.2175", {20: "7.4e-3", 50: "4.7e-6", 200: None}),
    (0.01, 7): ("0.856", "0.0718", {20: "2.2e-1", 50: "2.4e-2", 200: "3.4e-7"}),
}


def matches_displayed(value, displayed):
    """True when value rounds to the displayed figure within one last-digit unit."""
    shown = float(displayed)
    mantissa = displayed.split("e")[0]
    decimals = len(mantissa.split(".")[1]) if "." in mantissa else 0
    exponent = int(displayed.split("e")[1]) if "e" in displayed else 0
    unit = 10.0 ** (exponent - decimals)
    return abs(value - shown) <= unit * (1 + 1e-9)


def test_criterion_01_feasibility_table_reproduction():
    start = time.perf_counter()
    rows = {(r.epsilon0, r.j_f): r for r in feasibility_table()}
    for key, (eps_f, delta_f, cells) in TABLE_CELLS.items():
        row = rows[key]
        assert matches_displayed(row.epsilon_f, eps_f), key
        assert matches_displayed(row.delta_f, delta_f), key
        for m, displayed in cells.items():
            if displayed is None:
                assert not row.feasible(m), (key, m)
            else:
                assert row.feasible(m), (key, m)
                assert matches_displayed(row.p_for_m[m], displayed), (key, m)
    assert time.perf_counter() - start < 1.0


def test_criterion_02_bias_recursion_reaches_table_values():
    assert round(bias_schedule(0.1, 4)[-1], 3) == 0.922
    assert round(bias_schedule(0.01, 7)[-1], 3) == 0.856


def test_criterion_03_resource_formulas_exact():
    plan = CoolingPlan(0.1, 50, 5, 3)
    assert plan.n_required == 350
    assert plan.step_bound == 1_562_500
    plan = CoolingPlan(0.01, 20, 5, 6)
    assert plan.n_required == 260
    assert plan.step_bound == 31_250_000


def test_criterion_04_success_lower_bounds():
    assert CoolingPlan(0.1, 50, 6, 3).success_bound.probability > 0.51
    assert CoolingPlan(0.1, 50, 5, 3).success_bound.probability > 2.85e-5


def test_criterion_05_oracle_equivalence_exhaustive():
    start = time.perf_counter()
    for m in (2, 4, 6, 8, 10, 12, 14, 16):
        inputs = np.array(list(product([0, 1], repeat=m)), dtype=bool)
        reg = register(inputs.T)
        counts = np.atleast_1d(compress(reg, m))
        bits = unpack(reg.comp_bit_rows(0, m), reg.num_molecules).T.tolist()
        for i, molecule in enumerate(inputs.astype(int).tolist()):
            purified, dirty, supervisors = reference_bcs(molecule)
            assert counts[i] == len(purified)
            assert bits[i][: len(purified)] == purified
    assert time.perf_counter() - start < 60.0


def test_criterion_06_exact_pair_law_rational():
    for eps in (Fraction(0), Fraction(1, 10), Fraction(1, 2), Fraction(1)):
        p0 = (1 + eps) / 2
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
            assert 2 * (kept_zero / keep_prob) - 1 == 2 * eps / (1 + eps * eps)


def test_criterion_07_step_bounds():
    for m in range(2, 257, 2):
        assert len(gates(compile_bcs(m, 0, 0))) < m * m
    for m, ell, jf in product((4, 8, 20), (4, 5, 6), (1, 2, 3)):
        plan = CoolingPlan(0.1, m, ell, jf)
        sched = compile_cooling(plan)
        assert len(gates(sched)) <= plan.step_bound, (m, ell, jf)


def test_criterion_08_monte_carlo_bias_and_success_bound():
    start = time.perf_counter()
    # success-conditioned output bias vs the second bias iterate
    plan = CoolingPlan(0.1, 20, 5, 2)
    stats = run_ensemble(plan, 100_000, seed=12345, threads=4)
    report = compare_to_analytic(stats, plan)
    assert stats.success_count > 0
    assert np.max(np.abs(report.position_z_scores)) < 3.0
    eps2 = bias_schedule(0.1, 2)[-1]
    pooled = float(np.mean(stats.success_bias))
    sigma = math.sqrt(
        (1 - eps2**2) / (4 * stats.success_count * plan.m)
    ) * 2.0  # var of bias = 4 * var of zero-freq
    assert abs(pooled - eps2) < 3.0 * sigma
    # substitute property: empirical success rate >= analytic lower bound
    plan6 = CoolingPlan(0.1, 20, 6, 2)
    stats6 = run_ensemble(plan6, 100_000, seed=7, threads=4)
    report6 = compare_to_analytic(stats6, plan6)
    assert report6.success_margin_sigmas >= -4.0
    assert stats6.success_rate >= report6.success_lower_bound
    assert time.perf_counter() - start < 300.0


def test_criterion_09_beyond_shannon_certificate():
    assert 20 > shannon_yield(140, 0.1)
    assert 50 > shannon_yield(350, 0.1)


def test_criterion_10_simulate_byte_identical_across_threads(tmp_path):
    files = []
    for threads in ("1", "3"):
        out = tmp_path / f"run-{threads}.json"
        code = main(
            [
                "simulate", "--epsilon0", "0.1", "--m", "10", "--jf", "1",
                "--molecules", "40000", "--seed", "5", "--threads", threads,
                "--format", "json", "--out", str(out),
            ]
        )
        assert code == 0
        files.append(out)
    assert files[0].read_bytes() == files[1].read_bytes()
    assert json.loads(files[0].read_text())["schema_version"] == 1


def test_criterion_11_structural_counts():
    plan = CoolingPlan(0.1, 4, 5, 3)
    sched = compile_cooling(plan)
    resets = [g for g in gates(sched) if isinstance(g, Reset)]
    assert len(resets) == 125
    draws = _build_registers(plan.n_required, 0.1, 1, 0, 1, plan_census(plan).reset_rows)
    run = run_cooling(draws, 1, plan)
    assert len(entries(run, Cut)) == 31
