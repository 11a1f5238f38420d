"""Closed-form formula tests: known values plus algebraic properties."""

import math

import pytest
from hypothesis import given, strategies as st

from algcool.analytic import (
    CoolingPlan,
    TimingModel,
    UnreachableTargetError,
    UNFEASIBLE_THRESHOLD,
    bcs_cascade_yield,
    bias_schedule,
    binary_entropy,
    chernoff_failure,
    expected_keep_fraction,
    feasibility_table,
    min_rounds,
    next_bias,
    pps_signal,
    required_input_bits,
    shannon_yield,
    step_bound,
    success_lower_bound,
    timing_feasibility,
    truncation_count,
)

unit_eps = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
open_eps = st.floats(min_value=1e-9, max_value=1.0 - 1e-9)


class TestBinaryEntropy:
    def test_known_values(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.55) == pytest.approx(0.9927744539878083, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(1.1)
        with pytest.raises(ValueError):
            binary_entropy(-0.01)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetric(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)


class TestNextBias:
    def test_fixed_points(self):
        assert next_bias(0.0) == 0.0
        assert next_bias(1.0) == 1.0

    def test_value(self):
        assert next_bias(0.1) == pytest.approx(0.19801980198019803, rel=1e-14)

    def test_range_enforced(self):
        for f in (next_bias, expected_keep_fraction, lambda e: pps_signal(e, 3)):
            for bad in (1.5, -0.1):
                with pytest.raises(ValueError, match=r"in \[0, 1\]"):
                    f(bad)

    @given(open_eps)
    def test_strictly_purifying_inside_unit_interval(self, e):
        # out < 1 holds exactly; floats may round to 1.0 very close to 1
        out = next_bias(e)
        assert e < out <= 1.0

    @given(open_eps)
    def test_keep_fraction_consistency(self, e):
        # (1 + e^2)/4 == e / (2 * next_bias(e)) for e > 0
        assert expected_keep_fraction(e) == pytest.approx(
            e / (2.0 * next_bias(e)), rel=1e-12
        )


class TestBiasSchedule:
    def test_table_iterates(self):
        assert round(bias_schedule(0.1, 3)[-1], 3) == 0.666
        assert round(bias_schedule(0.01, 6)[-1], 3) == 0.565
        assert round(bias_schedule(0.01, 7)[-1], 3) == 0.856

    def test_shape(self):
        sched = bias_schedule(0.25, 4)
        assert len(sched) == 5
        assert sched[0] == 0.25
        assert bias_schedule(0.25, 0) == [0.25]

    def test_negative_rounds(self):
        with pytest.raises(ValueError):
            bias_schedule(0.1, -1)

    @given(open_eps, st.integers(min_value=1, max_value=12))
    def test_strictly_increasing_until_saturation(self, e0, j):
        # strictly increasing in exact arithmetic; floats can saturate at 1.0
        sched = bias_schedule(e0, j)
        assert all(a < b or b == 1.0 for a, b in zip(sched, sched[1:]))


class TestMinRounds:
    def test_examples(self):
        assert min_rounds(0.1, 0.6) == 3
        assert min_rounds(0.1, 0.1) == 0
        assert min_rounds(0.01, 0.85) == 7

    def test_unreachable(self):
        with pytest.raises(UnreachableTargetError):
            min_rounds(0.1, 1.0)

    @given(open_eps, open_eps)
    def test_agrees_with_schedule(self, e0, target):
        try:
            j = min_rounds(e0, target)
        except UnreachableTargetError:
            return
        assert bias_schedule(e0, j)[-1] >= target
        if j > 0:
            assert bias_schedule(e0, j - 1)[-1] < target


class TestExpectedKeepFraction:
    def test_values(self):
        assert expected_keep_fraction(0.0) == 0.25
        assert expected_keep_fraction(1.0) == 0.5
        assert expected_keep_fraction(0.1) == pytest.approx(0.2525)


class TestShannonYield:
    def test_values(self):
        assert shannon_yield(350, 0.1) == pytest.approx(2.5289, abs=5e-4)
        assert shannon_yield(7, 1.0) == 7.0
        y = shannon_yield(1000, 0.01)
        assert y == pytest.approx(0.0721, abs=2e-4)
        # leading-order form eps^2 n / (2 ln 2)
        assert y == pytest.approx(0.01**2 * 1000 / (2 * math.log(2)), rel=2e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            shannon_yield(0, 0.1)


class TestCascadeYield:
    def test_values(self):
        assert bcs_cascade_yield(100, 1.0, 2) == pytest.approx(25.0)
        assert bcs_cascade_yield(1024, 0.1, 1) == pytest.approx(258.56)
        # 1024 * 0.2525 * 0.259803 * 0.286309, i.e. 102.4 / (8 * eps_3)
        assert bcs_cascade_yield(1024, 0.1, 3) == pytest.approx(19.2327, abs=5e-4)

    @given(
        st.integers(min_value=1, max_value=10**6),
        open_eps,
        st.integers(min_value=0, max_value=12),
    )
    def test_matches_telescoped_closed_form(self, n0, e0, j):
        ej = bias_schedule(e0, j)[-1]
        closed = n0 * e0 / (2**j * ej)
        assert bcs_cascade_yield(n0, e0, j) == pytest.approx(closed, rel=1e-12)


class TestPpsSignal:
    def test_values(self):
        assert pps_signal(1.0, 5) == 1.0
        assert pps_signal(0.1, 2) == pytest.approx(0.07, rel=1e-12)
        assert pps_signal(0.0, 9) == 0.0

    def test_large_n_stable(self):
        # (1.1)^800 overflows naive evaluation; the ratio is ~1e-208
        p = pps_signal(0.1, 800)
        assert 0.0 < p < 1.0
        assert p == pytest.approx(math.exp(800 * (math.log(1.1) - math.log(2.0))), rel=1e-9)
        # beyond float range the ratio correctly underflows to zero
        assert pps_signal(0.1, 10_000) == 0.0

    def test_unobservable_at_small_bias(self):
        assert pps_signal(0.01, 50) < UNFEASIBLE_THRESHOLD

    @given(st.integers(min_value=1, max_value=300), open_eps, open_eps)
    def test_monotone_in_bias(self, n, e1, e2):
        lo, hi = sorted([e1, e2])
        assert pps_signal(lo, n) <= pps_signal(hi, n)


class TestResourceFormulas:
    def test_required_input_bits(self):
        assert required_input_bits(CoolingPlan(0.1, 50, 5, 3)) == 350
        assert required_input_bits(CoolingPlan(0.01, 20, 5, 6)) == 260
        assert required_input_bits(CoolingPlan(0.1, 14, 7, 0)) == 14

    def test_step_bound(self):
        assert step_bound(CoolingPlan(0.1, 20, 5, 3)) == 250_000
        assert step_bound(CoolingPlan(0.1, 50, 5, 3)) == 1_562_500
        assert step_bound(CoolingPlan(0.01, 20, 5, 6)) == 31_250_000

    def test_step_bound_exact_past_float_precision(self):
        plan = CoolingPlan(0.1, 1000, 7, 20)
        assert step_bound(plan) == 1000**2 * 7**21

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            CoolingPlan(0.1, 5, 5, 3)  # odd m
        with pytest.raises(ValueError):
            CoolingPlan(0.1, 4, 3, 1)  # depth too small
        with pytest.raises(ValueError):
            CoolingPlan(1.5, 4, 5, 1)


class TestSuccessBounds:
    def test_truncation_count(self):
        assert truncation_count(5, 1) == 1
        assert truncation_count(5, 3) == 31
        assert truncation_count(6, 3) == 43

    def test_chernoff_failure(self):
        assert chernoff_failure(5, 50).probability == pytest.approx(
            math.exp(-1.25), rel=1e-12
        )
        assert chernoff_failure(6, 50).probability == pytest.approx(
            math.exp(-50 / 12), rel=1e-12
        )
        assert chernoff_failure(4, 16) == (1.0, True)

    def test_success_lower_bound(self):
        assert success_lower_bound(CoolingPlan(0.1, 50, 6, 3)).probability > 0.51
        lo = success_lower_bound(CoolingPlan(0.1, 50, 5, 3))
        assert lo.probability > 2.85e-5
        assert lo.probability == pytest.approx(2.85e-5, rel=5e-3)
        assert not lo.vacuous

    def test_vacuous_at_depth_four(self):
        bound = success_lower_bound(CoolingPlan(0.1, 50, 4, 3))
        assert bound.vacuous and bound.probability == 0.0

    def test_large_m_approaches_one(self):
        assert success_lower_bound(CoolingPlan(0.1, 5000, 6, 3)).probability > 0.999

    @given(st.integers(min_value=1, max_value=200))
    def test_monotone_in_m(self, half_m):
        m = 2 * half_m
        a = success_lower_bound(CoolingPlan(0.1, m, 6, 3)).probability
        b = success_lower_bound(CoolingPlan(0.1, m + 2, 6, 3)).probability
        assert a <= b


class TestFeasibilityTable:
    def test_grid(self):
        rows = feasibility_table()
        assert [(r.epsilon0, r.j_f) for r in rows] == [
            (0.1, 0), (0.1, 3), (0.1, 4), (0.01, 0), (0.01, 6), (0.01, 7),
        ]

    def test_row_values(self):
        rows = {(r.epsilon0, r.j_f): r for r in feasibility_table()}
        r = rows[(0.1, 4)]
        assert round(r.epsilon_f, 3) == 0.922
        assert round(r.delta_f, 4) == 0.0388
        assert r.p_for_m[200] == pytest.approx(3.7e-4, abs=0.05e-4)
        r = rows[(0.01, 0)]
        assert r.p_for_m[20] == pytest.approx(1.2e-6, abs=0.05e-6)
        assert not r.feasible(50) and not r.feasible(200)
        assert round(rows[(0.1, 0)].delta_f, 2) == 0.45

    def test_threshold_configurable(self):
        loose = feasibility_table()
        tight = feasibility_table(1e-6)
        n_loose = sum(r.feasible(m) for r in loose for m in r.p_for_m)
        n_tight = sum(r.feasible(m) for r in tight for m in r.p_for_m)
        assert n_tight < n_loose

    @pytest.mark.parametrize("threshold", [-1.0, float("nan"), 1.5])
    def test_threshold_outside_unit_interval_is_rejected(self, threshold):
        # -1 would mark every signal feasible, NaN none
        with pytest.raises(ValueError, match="threshold must be in"):
            feasibility_table(threshold)


class TestTimingFeasibility:
    def test_twenty_bit_setup_feasible(self):
        timing = TimingModel(10e-6, 1e-3, 10.0, margin=1.0)
        report = timing_feasibility(timing, CoolingPlan(0.1, 20, 5, 3))
        assert report.feasible

    def test_fifty_bit_setup_feasible(self):
        timing = TimingModel(10e-6, 10e-3, 100.0, margin=1.0)
        report = timing_feasibility(timing, CoolingPlan(0.1, 50, 5, 3))
        assert report.feasible

    def test_fast_relaxation_fails_first_check(self):
        timing = TimingModel(10e-6, 1e-3, 0.001, margin=1.0)
        report = timing_feasibility(timing, CoolingPlan(0.1, 20, 5, 3))
        assert not report.feasible
        assert not report.checks[0].passed

    def test_validation(self):
        with pytest.raises(ValueError):
            TimingModel(0.0, 1e-3, 10.0)
        with pytest.raises(ValueError):
            TimingModel(1e-5, 1e-3, 10.0, margin=0.5)

    @pytest.mark.parametrize("times,margin", [
        ((float("nan"), 1e-3, 10.0), 2.0),
        ((1e-5, 1e-3, float("nan")), 2.0),
        ((1e-5, 1e-3, 10.0), float("nan")),
        ((1e-5, float("inf"), 10.0), 2.0),
        ((1e-5, 1e-3, 10.0), float("inf")),
    ])
    def test_non_finite_is_rejected(self, times, margin):
        with pytest.raises(ValueError):
            TimingModel(*times, margin=margin)
