"""Monte Carlo harness tests: determinism, aggregation, statistics."""

import gc
import math
import os
import signal
import time
import tracemalloc
from functools import reduce
from itertools import permutations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from algcool import ensemble
from algcool.analytic import CoolingPlan
from algcool.circuit import Count, Cut, GateError
from algcool.cli import main
from algcool.cooling import CoolingRun
from algcool.ensemble import _Accumulator, _build_registers, compare_to_analytic, run_ensemble
from support import numpy_draws, pack, unpack_draws


def stats_equal(a, b):
    return (
        a.num_molecules == b.num_molecules
        and a.success_count == b.success_count
        and (a.per_position_zero_freq == b.per_position_zero_freq).all()
        and (
            (a.success_zero_freq is None and b.success_zero_freq is None)
            or (a.success_zero_freq == b.success_zero_freq).all()
        )
        and a.truncation_shortfall_histogram == b.truncation_shortfall_histogram
        and a.mean_purified_lengths == b.mean_purified_lengths
        and a.round_mean_lengths == b.round_mean_lengths
        and a.steps_used == b.steps_used
    )


class TestDeterminism:
    def test_thread_count_never_changes_results(self):
        plan = CoolingPlan(0.1, 4, 5, 1)
        # enough molecules for three chunks
        runs = [
            run_ensemble(plan, 40_000, seed=21, threads=t) for t in (1, 2, 4)
        ]
        # failed truncations occur, so the merged Counter is compared too
        assert runs[0].truncation_shortfall_histogram
        assert stats_equal(runs[0], runs[1])
        assert stats_equal(runs[0], runs[2])

    def test_same_seed_same_stats(self):
        plan = CoolingPlan(0.1, 4, 5, 1)
        a = run_ensemble(plan, 500, seed=3)
        b = run_ensemble(plan, 500, seed=3)
        c = run_ensemble(plan, 500, seed=4)
        assert stats_equal(a, b)
        assert not stats_equal(a, c)

    def test_molecule_draws_follow_seed_and_index(self):
        # molecule i draws the same bits every time, another molecule others
        a = _build_registers(16, 0.1, 9, 17, 18, 0)
        b = _build_registers(16, 0.1, 9, 17, 18, 0)
        other = _build_registers(16, 0.1, 9, 18, 19, 0)
        assert (a[:16] == b[:16]).all()
        assert (a[:16] != other[:16]).any()


def assert_no_children():
    """The test process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedWorkers:
    """Chunks of 100 molecules, so a few hundred molecules make a multi-chunk run."""

    PLAN = CoolingPlan(0.1, 4, 5, 1)

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(ensemble, "CHUNK_SIZE", 100)

    @pytest.fixture(autouse=True)
    def no_hang(self):
        """A run that waits on a worker forever fails here instead of blocking."""
        def hung(signum, frame):
            raise TimeoutError("run_ensemble still waiting after 20 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(20)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pid of every worker forked, in order."""
        pids, fork = [], os.fork

        def recording_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        return pids

    @pytest.mark.parametrize("cpus, molecules", [(2, 300), (8, 200)])
    def test_workers_are_bounded_by_chunks_and_cpus(self, monkeypatch, forks, cpus,
                                                    molecules):
        serial = run_ensemble(self.PLAN, molecules, seed=13, threads=1)
        assert forks == []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        wide = run_ensemble(self.PLAN, molecules, seed=13, threads=64)
        assert len(forks) == min(64, molecules // 100, cpus) == 2
        assert stats_equal(serial, wide)

    @pytest.mark.parametrize("cpus, workers", [(2, 2), (None, 1)])
    def test_workers_without_sched_getaffinity(self, monkeypatch, forks, cpus, workers):
        # as on macOS: the usable CPUs fall back to os.cpu_count(), or 1 if unknown
        serial = run_ensemble(self.PLAN, 300, seed=13, threads=1)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        wide = run_ensemble(self.PLAN, 300, seed=13, threads=64)
        assert len(forks) == workers
        assert stats_equal(serial, wide)

    def test_single_chunk_runs_in_process(self, forks):
        run_ensemble(self.PLAN, 100, seed=13, threads=4)
        assert forks == []

    def test_worker_failure_reaches_the_caller(self, monkeypatch):
        run_cooling = ensemble.run_cooling

        def failing_tail(draws, num_molecules, plan):
            if num_molecules < ensemble.CHUNK_SIZE:  # only the last chunk, start 200
                raise GateError("injected")
            return run_cooling(draws, num_molecules, plan)

        monkeypatch.setattr(ensemble, "run_cooling", failing_tail)  # inherited by the fork
        with pytest.raises(GateError, match="injected") as failure:
            run_ensemble(self.PLAN, 250, seed=13, threads=2)
        assert "in failing_tail" in str(failure.value.__cause__)  # the worker's traceback
        assert_no_children()

    @pytest.mark.parametrize("die, how", [
        (lambda: os._exit(3), "exit status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal 9"),  # as an OOM kill
    ])
    def test_dead_worker_raises_and_is_reaped(self, monkeypatch, die, how):
        caller, run_cooling = os.getpid(), ensemble.run_cooling

        def dying_tail(draws, num_molecules, plan):
            assert os.getpid() != caller, "the chunk ran in the caller"
            if num_molecules < ensemble.CHUNK_SIZE:  # only the last chunk, start 200
                die()
            return run_cooling(draws, num_molecules, plan)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(ensemble, "run_cooling", dying_tail)  # inherited by the fork
        with pytest.raises(ChildProcessError, match=f"without a report: {how}$"):
            run_ensemble(self.PLAN, 250, seed=13, threads=2)
        assert_no_children()

    def test_dead_worker_is_reported_while_another_runs(self, monkeypatch):
        # chunks 0, 200 on worker 0 and 100, 300 on worker 1. Worker 1 dies on
        # the short last chunk while worker 0 would spend a minute on chunk
        # 200: the caller raises at once and kills worker 0
        calls, run_cooling = [], ensemble.run_cooling

        def slow_or_dead(draws, num_molecules, plan):
            calls.append(num_molecules)  # a worker's own copy of the list
            if num_molecules < ensemble.CHUNK_SIZE:
                os._exit(4)
            if len(calls) == 2:
                time.sleep(60)
            return run_cooling(draws, num_molecules, plan)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(ensemble, "run_cooling", slow_or_dead)
        begun = time.monotonic()
        with pytest.raises(ChildProcessError, match="without a report: exit status 4$"):
            run_ensemble(self.PLAN, 350, seed=13, threads=2)
        assert time.monotonic() - begun < 10
        assert calls == []
        assert_no_children()

    def test_no_worker_outlives_a_run(self):
        run_ensemble(self.PLAN, 200, seed=13, threads=2)
        assert_no_children()

    def test_parallel_run_needs_fork(self, monkeypatch, capsys):
        # as on Windows: a parallel run is a ValueError, which the CLI reports
        monkeypatch.delattr(os, "fork")
        with pytest.raises(ValueError, match="needs os.fork"):
            run_ensemble(self.PLAN, 200, seed=13, threads=2)
        run_ensemble(self.PLAN, 200, seed=13, threads=1)
        capsys.readouterr()
        assert main(["simulate", "--m", "4", "--jf", "1", "--molecules", "200",
                     "--threads", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: threads > 1 needs os.fork, which this platform lacks\n"


class TestMoleculeDraws:
    def test_pure_input_all_zero(self):
        assert unpack_draws(_build_registers(8, 1.0, 0, 0, 1, 0), 1)[:8, 0].tolist() == [0] * 8

    def test_fair_coin_and_thermal_frequencies(self):
        # 10^6 pooled reset bits of one molecule: P(0) within 3 binomial sigma
        for eps, p_zero in [(0.0, 0.5), (0.1, 0.55)]:
            ones = unpack_draws(_build_registers(1, eps, 42, 0, 1, 10**6)[2:], 1)
            freq = 1.0 - ones.mean()
            sigma = np.sqrt(p_zero * (1 - p_zero) / 10**6)
            assert abs(freq - p_zero) < 3 * sigma

    def test_packing_a_long_pool_stays_small(self):
        # 10^6 rows of one molecule pack to 8 MB, one pointer to a shared small int a row
        tracemalloc.start()
        try:
            _build_registers(1, 0.1, 42, 0, 1, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    @pytest.mark.parametrize("eps", [0.0, 0.1, 1.0])
    def test_threshold_edges_match_the_float_draw(self, monkeypatch, eps):
        # every word reads as numpy's float draw (w >> 11) * 2**-53 < p reads
        # it; T = ceil(p * 2**53) << 11 is the first word that reads 0
        p = (1 - eps) / 2
        t = math.ceil(p * 2**53) << 11
        if eps == 0.0:
            assert p * 2**53 == 2**52  # exact: T - 1 is the last word below p = 1/2
        words = [0, (t - 1) % 2**64, t, t + 2047, 2**64 - 1]
        fake = SimpleNamespace(random_raw=lambda size: np.array(words[:size], dtype=np.uint64))
        monkeypatch.setattr(np.random, "Philox", lambda seed: fake)
        draws = _build_registers(2, eps, 0, 0, 1, len(words) - 4)
        expected = [int((w >> 11) * 2**-53 < p) for w in words]
        assert unpack_draws(draws, 1)[:, 0].tolist() == expected
        assert expected[1:3] == ([0, 0] if eps == 1.0 else [1, 0])

    def test_draw_order(self):
        # draws [0, n) are the bits, [n, 2n) the RRTR row, the rest the RESETs' rows
        n, k, eps, seed = 5, 7, 0.1, 3
        draws = [numpy_draws(seed, i, 2 * n + k, eps) for i in range(70)]
        one = unpack_draws(_build_registers(n, eps, seed, 11, 12, k), 1)[:, 0].tolist()
        assert one[:n] == draws[11][:n]
        assert one[n : 2 * n] == draws[11][n : 2 * n]
        assert one[2 * n :] == draws[11][2 * n :]  # exactly the schedule's reset rows
        batch = unpack_draws(_build_registers(n, eps, seed, 0, 70, k), 70)  # the same, 70 at once
        assert batch[:n].T.tolist() == [d[:n] for d in draws]
        assert batch[n : 2 * n].T.tolist() == [d[n : 2 * n] for d in draws]
        assert batch[2 * n :].T.tolist() == [d[2 * n :] for d in draws]

    @pytest.mark.parametrize("index", [0, 2**32 - 1, 2**32])
    def test_draws_match_numpy_across_the_index_word_boundary(self, index):
        n, k, eps, seed = 4, 5, 0.1, 12
        draws = numpy_draws(seed, index, 2 * n + k, eps)
        built = _build_registers(n, eps, seed, index, index + 1, k)
        assert unpack_draws(built, 1)[:, 0].tolist() == draws

    def test_a_batch_straddling_the_index_word_boundary(self):
        # chunks never straddle a multiple of 2**32, so a batch that does is refused
        with pytest.raises(ValueError, match="straddle a multiple of 2"):
            _build_registers(3, 0.1, 5, 2**32 - 6, 2**32 + 6, 2)

    def test_chunks_never_straddle_the_index_word_boundary(self):
        assert (1 << 32) % ensemble.CHUNK_SIZE == 0

    def test_the_register_holds_each_row_once_as_packed_bytes(self):
        # 4,002 rows of 1,024 molecules, 128 bytes each; an int a row would
        # hold about 688 KB more, past the bound
        _build_registers(1, 0.1, 7, 0, 1024, 4000)
        gc.collect()
        tracemalloc.start()
        try:
            draws = _build_registers(1, 0.1, 7, 0, 1024, 4000)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert draws.shape == (4002, 128) and draws.dtype == np.uint8
        assert held <= 1.1 * 4002 * 128

    def test_the_draws_peak_below_one_and_a_half_bool_blocks(self):
        # 64 molecules of 200,002 draws stage as one 12.8 MB bool block; a
        # transposed copy of it takes the peak to 2.25 blocks
        _build_registers(1, 0.1, 7, 0, 64, 10)
        gc.collect()
        tracemalloc.start()
        try:
            _build_registers(1, 0.1, 7, 0, 64, 200000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 64 * 200_002


class TestKeys:
    @settings(deadline=None, max_examples=200)
    @given(seed=st.one_of(st.integers(0, 2**128), st.sampled_from([2**32, 2**70 + 3])),
           start=st.one_of(st.integers(0, 2**40), st.integers(2**32 - 40, 2**32 + 40)),
           count=st.integers(1, 40))
    @example(seed=2**32 - 1, start=2**32 - 3, count=3)
    @example(seed=2**70 + 3, start=2**64 - 2, count=2)
    @example(seed=2**70 + 3, start=2**64, count=4)
    def test_keys_match_seed_sequence(self, seed, start, count):
        stop = min(start + count, ((start >> 32) + 1) << 32)  # up to the next multiple of 2**32
        keys = ensemble._philox_keys(seed, start, stop)
        assert keys.dtype == np.uint64
        assert keys.tolist() == [
            np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(2, np.uint64).tolist()
            for i in range(start, stop)]

    @pytest.mark.parametrize("seed,start,count", [(2**32 - 1, 2**32 - 3, 6), (2**70 + 3, 2**64 - 2, 4)])
    def test_a_range_straddling_the_index_word_boundary_is_refused(self, seed, start, count):
        with pytest.raises(ValueError, match="straddle a multiple of 2"):
            ensemble._philox_keys(seed, start, start + count)

    @pytest.mark.parametrize("seed,start", [(-1, 0), (0, -1)])
    def test_negative_seed_or_index_is_refused(self, seed, start):
        with pytest.raises(ValueError, match="must be non-negative"):
            ensemble._philox_keys(seed, start, start + 1)


class TestPureInput:
    def test_all_succeed_with_unit_bias(self):
        plan = CoolingPlan(1.0, 4, 5, 1)
        stats = run_ensemble(plan, 300, seed=0)
        assert stats.success_count == 300
        assert (stats.empirical_bias == 1.0).all()
        report = compare_to_analytic(stats, plan)
        assert (report.position_z_scores == 0.0).all()
        assert stats.success_rate >= report.success_lower_bound
        assert report.success_consistent


class TestStatistics:
    def test_round_lengths_match_keep_fraction(self):
        # single-level plan: round k mean length near k * (1+eps^2)/4 * m
        plan = CoolingPlan(0.1, 20, 6, 1)
        stats = run_ensemble(plan, 20_000, seed=8, threads=2)
        report = compare_to_analytic(stats, plan)
        assert len(report.rounds) == 6
        for r in report.rounds:
            assert r.expected_mean == pytest.approx(r.round * 0.2525 * 20)
            assert abs(r.z_score) < 4.0

    def test_success_conditioned_bias(self):
        plan = CoolingPlan(0.1, 4, 5, 1)
        stats = run_ensemble(plan, 30_000, seed=5)
        report = compare_to_analytic(stats, plan)
        assert stats.success_count > 0
        assert np.max(np.abs(report.position_z_scores)) < 4.0
        assert report.success_consistent

    def test_shortfall_histogram_keys_positive(self):
        plan = CoolingPlan(0.1, 8, 5, 1)
        stats = run_ensemble(plan, 2_000, seed=6)
        assert all(k >= 1 for k in stats.truncation_shortfall_histogram)
        failures = stats.num_molecules - stats.success_count
        assert sum(stats.truncation_shortfall_histogram.values()) == failures


class TestFold:
    """``_Accumulator.fold`` counts popcounts of a run's bitsets. On random
    runs it must equal the per-molecule count it replaced, kept here as the
    reference on numpy arrays."""

    @staticmethod
    def per_molecule_fold(acc, bits, counts, cuts, success):
        """The totals counted per molecule: ``bits`` (m, molecules), the
        lengths at each ``Count`` and at each ``(Cut, lengths)``, logged in
        that order, and the molecules that succeeded, as bools."""
        acc.zero_counts += (bits == 0).sum(axis=1)
        acc.success_zero_counts += (bits[:, success] == 0).sum(axis=1)
        acc.success_count += int(success.sum())
        for i, lengths in enumerate(counts):
            acc.length_sums[i] += lengths.sum()
        for i, (cut, lengths) in enumerate(cuts, start=len(counts)):
            acc.length_sums[i] += lengths.sum()
            short = cut.m - lengths
            acc.shortfalls.update(short[short > 0].tolist())

    @staticmethod
    def unary(lengths):
        """Per-molecule lengths as ``Register.purified_run_length`` gives a
        run: entry i holds the molecules of length > i, and none is empty."""
        return pack(lengths > np.arange(lengths.max(initial=0))[:, None])

    @given(st.sampled_from([1, 7, 64, 65, 300]), st.sampled_from([2, 4, 6]),
           st.integers(0, 3), st.integers(0, 3), st.sampled_from(["none", "some", "all"]),
           st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=60)
    def test_fold_matches_per_molecule_counting(self, width, m, n_counts, n_cuts, succeed,
                                                seed):
        rng = np.random.default_rng(seed)
        n_cuts = max(n_cuts, succeed == "none")

        def lengths(kinds):
            """0, below m, exactly m or above m (up to the 2m window), by kind 0-3."""
            kind = rng.choice(kinds, size=width)
            return np.choose(kind, [np.zeros(width, dtype=np.int64), rng.integers(1, m, width),
                                    np.full(width, m), rng.integers(m + 1, 2 * m + 1, width)])

        counts = [lengths([0, 1, 2, 3]) for _ in range(n_counts)]
        cuts = [lengths([2, 3] if succeed == "all" else [0, 1, 2, 3]) for _ in range(n_cuts)]
        if succeed == "none":  # each molecule falls short at one cut at least
            short = rng.integers(0, n_cuts, width)
            for k, lengths_at in enumerate(cuts):
                lengths_at[short == k] = rng.integers(0, m, width)[short == k]
        success = np.ones(width, dtype=bool)
        for lengths_at in cuts:
            success &= lengths_at >= m
        assert {"none": not success.any(), "all": success.all(), "some": True}[succeed]
        bits = rng.random((m, width)) < 0.5

        count_marks = [Count(1, 0, r + 1) for r in range(n_counts)]
        cut_marks = [Cut(1, 0, m) for _ in range(n_cuts)]
        run = CoolingRun(
            marks=(*count_marks, *cut_marks),
            log=[(np.array([i]), self.unary(x)) for i, x in enumerate(counts + cuts)],
            success=pack(success[None])[0], output_bits=pack(bits), num_molecules=width)
        got, want = (_Accumulator.empty(m, (*count_marks, *cut_marks)) for _ in range(2))
        got.fold(run)
        self.per_molecule_fold(want, bits, counts, list(zip(cut_marks, cuts)), success)
        for name in ("zero_counts", "success_zero_counts", "length_sums"):
            assert getattr(got, name).tolist() == getattr(want, name).tolist(), name
        assert got.success_count == want.success_count
        assert dict(got.shortfalls) == dict(want.shortfalls)  # Counter == ignores zero counts
        assert 0 not in got.shortfalls.values()  # a zero count would be a "k": 0 entry

    def test_merge_is_exact_in_any_order(self, monkeypatch):
        # workers report their totals in whatever order they finish, and the
        # caller sums them as they come: every order must give the same totals,
        # equal to one share that folds every chunk
        monkeypatch.setattr(ensemble, "CHUNK_SIZE", 100)
        plan = CoolingPlan(0.1, 4, 4, 2)  # some molecules fall short, some succeed
        census = ensemble.plan_census(plan)
        starts = [0, 100, 200, 300]
        shares = [ensemble._share_totals(plan, census, 3, 350, [start]) for start in starts]
        whole = ensemble._share_totals(plan, census, 3, 350, starts)
        assert 0 < whole.success_count < 350 and whole.shortfalls
        assert all(0 < share.success_count for share in shares)
        for order in permutations(shares):
            got = reduce(_Accumulator.merge, order)
            for name in ("zero_counts", "success_zero_counts", "length_sums"):
                assert getattr(got, name).tolist() == getattr(whole, name).tolist(), name
            assert got.success_count == whole.success_count
            assert dict(got.shortfalls) == dict(whole.shortfalls)


def exact_success_probability(plan):
    """P(every truncation keeps at least m bits), exactly:

        P = prod_{j=1..j_f} P[Bin(ell*m/2, (1 + eps_{j-1}^2)/2) >= m]^(ell^(j_f - j)).

    Each of level j's ell^(j_f - j) truncations compares ell*m/2 pairs of
    independent bias-eps_{j-1} bits and needs m of them to agree; bits on
    disjoint positions make the truncations independent."""
    eps, m, ell, jf = plan.bias_schedule, plan.m, plan.ell, plan.j_final
    pairs = ell * m // 2
    p = 1.0
    for j in range(1, jf + 1):
        q = (1 + eps[j - 1] ** 2) / 2
        tail = sum(math.comb(pairs, k) * q**k * (1 - q) ** (pairs - k)
                   for k in range(m, pairs + 1))
        p *= tail ** (ell ** (jf - j))
    return p


class TestExactSuccessProbability:
    """Success rates tested two-sided against the exact probability, beside
    acceptance criteria 04 (the Chernoff bound) and 08 (one-sided)."""

    def test_values(self):
        assert exact_success_probability(CoolingPlan(0.1, 20, 5, 2)) == pytest.approx(
            0.74213, abs=5e-6)
        assert exact_success_probability(CoolingPlan(0.1, 20, 6, 2)) == pytest.approx(
            0.98420, abs=5e-6)

    @pytest.mark.parametrize(
        "plan,seed",
        [(CoolingPlan(0.1, 20, 5, 2), 3), (CoolingPlan(0.1, 20, 6, 2), 4),
         (CoolingPlan(0.1, 4, 4, 2), 5), (CoolingPlan(0.1, 8, 5, 2), 6)],
        ids=str,
    )
    def test_success_rate_two_sided(self, plan, seed):
        n = 20_000
        stats = run_ensemble(plan, n, seed=seed)
        p = exact_success_probability(plan)
        z = (stats.success_count - n * p) / math.sqrt(n * p * (1 - p))
        assert abs(z) < 4.0


class TestValidation:
    def test_rejects_empty_ensemble(self):
        with pytest.raises(ValueError):
            run_ensemble(CoolingPlan(0.1, 4, 5, 1), 0, seed=0)

    def test_rejects_zero_threads(self):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            run_ensemble(CoolingPlan(0.1, 4, 5, 1), 100, seed=0, threads=0)
