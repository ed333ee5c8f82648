"""Seeded window sampling: determinism and marginal fidelity."""
import math
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
from shiftlab.sampling import (_COUNTER_OFFSET, BLOCK_ROWS,
                               _piecewise_inverse_cdf, sample_block)


def density_family():
    """A two-part mixture of f densities, one part shifted left."""
    f = f_family(TypeIIISpec(0.4))
    return mix_disjoint(f, shift_family(f, -1.0))


# each window reader on SeedStream.uniforms, as (seeds, start, count) ->
# the window's values: the uniforms, both of sample_block's symbol rules
# (a binary compare and a cumulative sum) and the inverse CDF of densities
READS = {
    "uniforms": lambda s, lo, n: s.uniforms("x", lo, n),
    "nu_c": lambda s, lo, n: sample_block(
        make_nu_c(0.1).block(lo, n), s, "x").values,
    "three-symbols": lambda s, lo, n: sample_block(
        iid((0.2, 0.3, 0.5)).block(lo, n), s, "x").values,
    "density": lambda s, lo, n: sample_density_window(
        density_family(), (lo, lo + n - 1), s).values,
}


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

    # the third id k cuts each piece to BLOCK_ROWS // k coordinates (the
    # name and ids are kept from when k counted threads); k = 3 and 7 cut
    # pieces that do not end on a counter block's four words
    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    @pytest.mark.parametrize("count", [
        0, 1, BLOCK_ROWS, BLOCK_ROWS + 3, 2 * BLOCK_ROWS, 2 * BLOCK_ROWS + 3,
        (1 << 20) + 5])
    @pytest.mark.parametrize("start", [0, -12_345])
    def test_worker_count_invariance(self, monkeypatch, k, count, start):
        monkeypatch.setattr(sampling, "BLOCK_ROWS", BLOCK_ROWS // k)
        s = SeedStream(7)
        got = s.uniforms("x", start, count)
        want = uniforms_oneshot(s, "x", start, count)
        assert got.shape == (count, 1)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("block_rows", [1, 3])
    @pytest.mark.parametrize("read", READS.values(), ids=READS.keys())
    def test_pieces_of_any_size_give_the_same_bytes(self, monkeypatch,
                                                    read, block_rows):
        # pieces of 1 and 3 coordinates, never aligned to a counter block,
        # against one piece of the whole read
        s = SeedStream(7)
        want = read(s, -1003, 1000).tobytes()
        monkeypatch.setattr(sampling, "BLOCK_ROWS", block_rows)
        assert read(s, -1003, 1000).tobytes() == want

    @pytest.mark.parametrize("read", READS.values(), ids=READS.keys())
    def test_a_window_is_the_slice_of_a_longer_window(self, read):
        # windows [c0, c1) at random cuts, from negative and positive starts
        # and at every word of a counter block, against the slice of one
        # longer read of more than one piece
        lo, count = -40_003, 2 * BLOCK_ROWS + 77
        rng = np.random.default_rng(0)
        cuts = [(c0, c1) for c0, c1 in np.sort(
            rng.integers(0, count + 1, size=(200, 2))).tolist() if c0 < c1]
        assert {(lo + c0 + _COUNTER_OFFSET) % 4 for c0, _ in cuts} == {
            0, 1, 2, 3}
        assert min(lo + c0 for c0, _ in cuts) < 0 < max(lo + c0
                                                        for c0, _ in cuts)
        s = SeedStream(7)
        whole = read(s, lo, count)
        for c0, c1 in cuts:
            assert read(s, lo + c0, c1 - c0).tobytes() == \
                whole[c0:c1].tobytes()

    def test_a_failing_emit_raises_in_the_caller(self):
        # an emit that fails stops the read: its error reaches the caller
        # and no later piece is drawn
        offsets = []

        def emit(at, u):
            offsets.append(at.start)
            if at.start:
                raise OSError("emit failed")

        with pytest.raises(OSError, match="emit failed"):
            SeedStream(7)._pieces("x", 0, 3 * BLOCK_ROWS, emit)
        assert offsets == [0, BLOCK_ROWS]


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


    # the second id k cuts each piece to BLOCK_ROWS // k coordinates
    @pytest.mark.parametrize("k", [1, 2, 7])
    @pytest.mark.parametrize("m", [iid_binary(0.3), make_nu_c(0.1),
                                   iid((0.2, 0.3, 0.5))],
                             ids=["iid", "nu_c", "three-symbols"])
    def test_peak_is_the_window_and_a_few_pieces(self, monkeypatch, k, m):
        # the symbols are written a piece of uniforms at a time: the peak
        # is the 1 B a site window plus one piece (its raw words, its
        # uniforms and the comparison's temporaries, 18 to 38 B a row of
        # BLOCK_ROWS), where a float array of the window would add 8 B a
        # site
        monkeypatch.setattr(sampling, "BLOCK_ROWS", BLOCK_ROWS // k)
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
        fam = density_family()
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
