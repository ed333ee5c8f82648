"""Seeded window sampling: determinism and marginal fidelity."""
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from oracles import sample_density_iid, uniforms_oneshot
from shiftlab import (DensityFamily, FiniteProductMeasure, SeedStream,
                      TypeIIISpec, f_family, iid, iid_binary, make_nu_c,
                      mix_disjoint, shift_family, sample_density_window,
                      sample_window)
from shiftlab import sampling
from shiftlab.sampling import (BLOCK_ROWS, _piecewise_inverse_cdf,
                               sample_block)


def cpus(monkeypatch, n):
    """Make ``SeedStream.uniforms`` see n CPUs."""
    monkeypatch.setattr(sampling, "_cpu_count", lambda: n)


class TestSeedStream:
    def test_identical_triples_identical_draws(self):
        s = SeedStream(42)
        assert np.array_equal(s.uniforms("x", -5, 20), s.uniforms("x", -5, 20))

    def test_order_independence(self):
        s = SeedStream(42)
        whole = s.uniforms("x", 0, 100)
        parts = np.vstack([s.uniforms("x", 0, 37), s.uniforms("x", 37, 63)])
        assert np.array_equal(whole, parts)

    def test_negative_indices_align(self):
        s = SeedStream(42)
        a = s.uniforms("x", -50, 100)
        b = s.uniforms("x", 0, 50)
        assert np.array_equal(a[50:], b)

    def test_distinct_labels_decorrelated(self):
        s = SeedStream(42)
        a = s.uniforms("one", 0, 20000)[:, 0]
        b = s.uniforms("two", 0, 20000)[:, 0]
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.03

    def test_distinct_roots_differ(self):
        a = SeedStream(1).uniforms("x", 0, 8)
        b = SeedStream(2).uniforms("x", 0, 8)
        assert not np.array_equal(a, b)

    def test_chunked_read_equals_one_shot_read(self):
        s = SeedStream(7)
        count = BLOCK_ROWS + 3  # crosses a chunk boundary
        got = s.uniforms("x", -12_345, count)
        want = uniforms_oneshot(s, "x", -12_345, count)
        assert got.shape == (count, 1)
        assert got.tobytes() == want.tobytes()

    def test_memory_stays_near_the_output(self):
        # the output's 8 B per coordinate plus one chunk's draws; holding
        # every coordinate's four words at once needs about 40 B each
        count = 1 << 20
        tracemalloc.start()
        try:
            SeedStream(7).uniforms("x", 0, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * count + (4 << 20)

    # at most 7 workers: each one is a thread
    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    @pytest.mark.parametrize("count", [
        0, 1, BLOCK_ROWS, BLOCK_ROWS + 3, 2 * BLOCK_ROWS, 2 * BLOCK_ROWS + 3,
        (1 << 20) + 5])
    @pytest.mark.parametrize("start", [0, -12_345])
    def test_worker_count_invariance(self, monkeypatch, workers, count,
                                     start):
        cpus(monkeypatch, workers)
        s = SeedStream(7)
        got = s.uniforms("x", start, count)
        want = uniforms_oneshot(s, "x", start, count)
        assert got.shape == (count, 1)
        assert got.tobytes() == want.tobytes()

    def test_shares_under_frequent_thread_switches(self, monkeypatch):
        # more threads than cores, switched every microsecond: every share
        # still lands in its own slice
        cpus(monkeypatch, 7)
        s = SeedStream(3)
        count = 7 * BLOCK_ROWS + 11
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = s.uniforms("x", -99, count)
        finally:
            sys.setswitchinterval(interval)
        assert got.tobytes() == uniforms_oneshot(s, "x", -99, count).tobytes()

    def test_memory_stays_near_the_output_at_seven_workers(self, monkeypatch):
        # test_memory_stays_near_the_output's bound, the request split
        # across 7 threads that draw a seventh of a block at a time each
        cpus(monkeypatch, 7)
        count = 1 << 20
        tracemalloc.start()
        try:
            SeedStream(7).uniforms("x", 0, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * count + (4 << 20)

    def test_one_block_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a one-block request started a thread")

        cpus(monkeypatch, 7)
        monkeypatch.setattr(sampling, "Thread", no_thread)
        s = SeedStream(7)
        got = s.uniforms("x", 5, BLOCK_ROWS)
        assert got.tobytes() == uniforms_oneshot(
            s, "x", 5, BLOCK_ROWS).tobytes()

    @pytest.mark.parametrize("where", ["worker", "every share"])
    def test_a_failing_share_raises_in_the_caller(self, monkeypatch, where):
        caller = threading.current_thread()

        def failing(key):
            worker = threading.current_thread() is not caller
            if worker or where == "every share":
                raise OSError(f"share failed in {where}")
            return np.random.Philox(key=key)

        cpus(monkeypatch, 3)
        s = SeedStream(7)
        before = threading.active_count()
        s.uniforms("x", 0, 3 * BLOCK_ROWS)
        assert threading.active_count() == before
        monkeypatch.setattr(sampling, "Philox", failing)
        with pytest.raises(OSError, match=f"share failed in {where}"):
            s.uniforms("x", 0, 3 * BLOCK_ROWS)
        assert threading.active_count() == before

    def test_a_failing_emit_raises_in_the_caller(self, monkeypatch):
        # an emit that fails in a worker's share is raised by the caller,
        # after every share is done
        cpus(monkeypatch, 3)
        caller = threading.current_thread()
        offsets = []

        def emit(at, u):
            if threading.current_thread() is not caller:
                raise OSError("emit failed in a worker")
            offsets.append(at.stop)

        before = threading.active_count()
        with pytest.raises(OSError, match="emit failed in a worker"):
            SeedStream(7)._pieces("x", 0, 3 * BLOCK_ROWS, emit)
        assert threading.active_count() == before
        assert offsets and max(offsets) <= BLOCK_ROWS

    def test_cpu_count_without_affinity(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert sampling._cpu_count() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert sampling._cpu_count() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert sampling._cpu_count() == 1


class TestSampleWindow:
    def test_point_mass(self):
        w = sample_window(iid((1.0, 0.0)), (-10, 10), SeedStream(3))
        assert np.all(w.values == 0)

    def test_determinism(self):
        m = make_nu_c(0.2)
        w1 = sample_window(m, (-100, 100), SeedStream(9))
        w2 = sample_window(m, (-100, 100), SeedStream(9))
        assert w1.start == w2.start and np.array_equal(w1.values, w2.values)

    def test_fair_frequency_band(self):
        N = 10 ** 5
        w = sample_window(iid_binary(0.5), (0, N - 1), SeedStream(7))
        freq0 = float(np.mean(np.asarray(w.values) == 0))
        assert abs(freq0 - 0.5) < 3 * (0.5 / math.sqrt(N))

    def test_subwindow_consistency(self):
        # the same coordinates sampled under a different range agree
        m = make_nu_c(0.15)
        s = SeedStream(5)
        big = sample_window(m, (-50, 49), s)
        small = sample_window(m, (0, 29), s)
        assert np.array_equal(np.asarray(big.values)[50:80], small.values)

    @pytest.mark.parametrize("spec", ["iid:0.3", "nu_c:0.25", "mu:0.4,0.3"])
    def test_marginal_fidelity(self, spec):
        from shiftlab import parse_measure
        m = parse_measure(spec)
        N = 10 ** 5
        w = sample_window(m, (1, N), SeedStream(31))
        p0 = m.block(1, N).values[:, 0]
        zeros = float(np.sum(np.asarray(w.values) == 0))
        mean = p0.sum()
        sigma = math.sqrt(float((p0 * (1 - p0)).sum()))
        assert abs(zeros - mean) < 4 * sigma

    def test_three_symbols_equal_inverse_cdf(self):
        # a non-stationary 3-symbol block against a row-by-row inverse CDF
        # of the same uniforms: symbols are the column indices 0, 1, 2
        def marginals(n):
            s = 0.2 * np.sin(np.asarray(n, dtype=float))
            return np.stack([0.3 + s, 0.3 - s, np.full(s.shape, 0.4)], -1)

        m = FiniteProductMeasure(marginals)
        seeds = SeedStream(11)
        w = sample_window(m, (-500, 499), seeds)
        u = seeds.uniforms("window", -500, 1000)[:, 0]
        want = [np.searchsorted(np.cumsum(row), x, side="right")
                for row, x in zip(m.block(-500, 1000).values, u)]
        assert set(want) == {0, 1, 2}
        assert w.start == -500 and np.array_equal(w.values, want)

    @pytest.mark.parametrize("p", [(0.3, 0.7), (0.2, 0.3, 0.5)])
    def test_symbols_take_one_byte_per_site(self, p):
        # the window sampled holds 1 B per site once the uniforms are gone;
        # int64 symbols would keep 8 B
        count = 1 << 18
        block = iid(p).block(0, count)
        tracemalloc.start()
        try:
            w = sample_block(block, SeedStream(7), "x")
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert w.values.dtype == np.uint8 and w.values.nbytes == count
        assert held < count + (1 << 16)
        assert set(np.unique(w.values)) == set(range(len(p)))


    @pytest.mark.parametrize("workers", [1, 2, 7])
    @pytest.mark.parametrize("m", [iid_binary(0.3), make_nu_c(0.1),
                                   iid((0.2, 0.3, 0.5))],
                             ids=["iid", "nu_c", "three-symbols"])
    def test_peak_is_the_window_and_a_few_pieces(self, monkeypatch,
                                                 workers, m):
        # the symbols are written a piece of uniforms at a time: the peak
        # is the 1 B a site window plus each share's piece (its four raw
        # words, its uniforms and the comparison's temporaries, ~45 B a
        # row of BLOCK_ROWS), where a float array of the window would add
        # 8 B a site
        cpus(monkeypatch, workers)
        count = 1 << 20
        block = m.block(0, count)
        tracemalloc.start()
        try:
            w = sample_block(block, SeedStream(7), "x")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.values.nbytes == count
        assert peak <= count + 64 * BLOCK_ROWS, (peak - count) / BLOCK_ROWS
        u = SeedStream(7).uniforms("x", 0, count)[:, 0]
        cdf = np.cumsum(block.values, axis=1)[:, :-1]
        assert np.array_equal(w.values, (u[:, None] >= cdf).sum(axis=1))


class TestSampleDensityWindow:
    def test_uniform_ks(self):
        uni = DensityFamily((0.0, 1.0),
                            lambda n: (np.array([0.0, 1.0]), np.array([1.0])))
        w = sample_density_window(uni, (0, 10 ** 4 - 1), SeedStream(13))
        _, p = stats.kstest(np.asarray(w.values), "uniform")
        assert p > 0.01

    def test_f_family_region_mass(self):
        lam = 0.25
        spec = TypeIIISpec(lam)
        fam = f_family(spec)
        n, N = 2, 10 ** 5
        x = sample_density_iid(fam, n, N, SeedStream(17))
        a_n = spec.a_n(n)
        target = lam * a_n          # mass of (0, a_n) under the density
        hits = float(np.mean(x < a_n))
        sigma = math.sqrt(target * (1 - target) / N)
        assert abs(hits - target) < 3 * sigma

    def test_determinism(self):
        fam = f_family(TypeIIISpec(0.5))
        w1 = sample_density_window(fam, (2, 40), SeedStream(1))
        w2 = sample_density_window(fam, (2, 40), SeedStream(1))
        assert np.array_equal(w1.values, w2.values)

    def test_blocks_equal_one_shot(self):
        # more than one block, a ragged last block and a negative start
        f = f_family(TypeIIISpec(0.4))
        fam = mix_disjoint(f, shift_family(f, -1.0))
        lo, length = -1000, 2 * BLOCK_ROWS + 77
        seeds = SeedStream(11)
        w = sample_density_window(fam, (lo, lo + length - 1), seeds)
        one_shot = _piecewise_inverse_cdf(
            *fam.table(np.arange(lo, lo + length)),
            seeds.uniforms("density", lo, length)[:, 0])
        assert w.start == lo
        assert w.values.tobytes() == one_shot.tobytes()

    def test_inverse_cdf_is_exact_on_pieces(self):
        # closed-form check: a two-piece density with masses 0.25 / 0.75
        fam = DensityFamily((0.0, 1.0),
                            lambda n: (np.array([0.0, 0.5, 1.0]),
                                       np.array([0.5, 1.5])))
        x = sample_density_iid(fam, 0, 10 ** 5, SeedStream(23))
        left = float(np.mean(x < 0.5))
        assert abs(left - 0.25) < 4 * math.sqrt(0.25 * 0.75 / 10 ** 5)
