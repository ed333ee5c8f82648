"""Good-block readers, the reference marker/filler partition and
good-block probabilities."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import decompose_oracle, good_prob
from shiftlab import (FiniteProductMeasure, SeedStream, Window, dominates,
                      good_block_sequence, good_prob_lower, good_starts, iid,
                      iid_binary, make_nu_c, sample_window, special_sequence)
from shiftlab import markers
from shiftlab.markers import GOOD_BLOCKS, GOOD_CHUNK


def bits(s: str) -> Window:
    return Window(0, np.array([int(c) for c in s], dtype=np.uint8))


def specials(w) -> list:
    """(initial index, bit) of each special filler, read off the special
    sequence."""
    at = np.flatnonzero(special_sequence(w).values)
    return list(zip((at + w.start).tolist(), w.values[at].tolist()))


def dipped(at=(), zero=()):
    """A non-stationary binary measure whose P(0) dips to 0.05 at the
    indices ``at`` and vanishes at the indices ``zero``."""
    def marginals(n):
        n = np.asarray(n)
        p0 = 0.5 + 0.2 * np.sin(0.37 * n)
        p0 = np.where(np.isin(n, at), 0.05, p0)
        p0 = np.where(np.isin(n, zero), 0.0, p0)
        return np.stack([p0, 1.0 - p0], -1)

    return FiniteProductMeasure(alphabet=(0, 1), marginals=marginals)


def good_block_starts(w) -> list:
    """Starts of the good blocks of the offset-0 partition, read off the
    good-block sequence."""
    return (np.flatnonzero(good_block_sequence(w).values)
            + w.start - 3).tolist()


class TestDecomposeOracle:
    @given(st.integers(-10 ** 6, 10 ** 6),
           st.lists(st.integers(0, 1), min_size=0, max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_random_windows_and_offsets(self, start, word):
        # longer windows than the exhaustive identity check below reaches
        w = Window(start, np.array(word, dtype=np.uint8))
        assert specials(w) == list(decompose_oracle(w)["special"])


class TestDecompose:
    """The reference partition on hand-worked words, and the library's
    refusal of a non-binary window."""

    def test_sample_realization(self):
        d = decompose_oracle(bits("01101011"))
        assert d["markers"] == ((0, 2), (5, 7))
        assert d["fillers"] == ((3, 4),)
        assert d["special"] == ((3, 0),)
        assert d["boundary_flags"] == (False, False)

    def test_no_markers_is_one_censored_interval(self):
        d = decompose_oracle(bits("000000"))
        assert d["markers"] == ()
        assert d["fillers"] == ()
        assert d["censored"] == ((0, 5),)
        assert d["boundary_flags"] == (True, True)

    def test_adjacent_markers_empty_gap(self):
        d = decompose_oracle(bits("011011"))
        assert d["markers"] == ((0, 2), (3, 5))
        assert d["fillers"] == ()

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            special_sequence(Window(0, np.array([0, 2, 1])))

    def test_interior_partition_small_exhaustive(self):
        # markers + fillers tile [first marker start, last marker end]
        for L in range(3, 12):
            for word in itertools.product("01", repeat=L):
                d = decompose_oracle(bits("".join(word)))
                if not d["markers"]:
                    continue
                covered = []
                for lo, hi in d["markers"] + d["fillers"]:
                    covered.extend(range(lo, hi + 1))
                lo0, hi0 = d["markers"][0][0], d["markers"][-1][1]
                assert sorted(covered) == list(range(lo0, hi0 + 1))

    @given(st.integers(-1000, 1000),
           st.lists(st.integers(0, 1), min_size=0, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_equivariance(self, start, word):
        values = np.array(word, dtype=np.uint8)
        d0 = decompose_oracle(Window(0, values))
        d1 = decompose_oracle(Window(start, values))
        shift = lambda ivs: tuple((lo + start, hi + start) for lo, hi in ivs)
        assert d1["markers"] == shift(d0["markers"])
        assert d1["fillers"] == shift(d0["fillers"])
        assert d1["special"] == tuple((p + start, b)
                                      for p, b in d0["special"])

    def test_export_labels(self):
        assert decompose_oracle(bits("0011010110"))["intervals"] == [
            ("censored", 0, 0), ("marker", 1, 3), ("special", 4, 5),
            ("marker", 6, 8), ("censored", 9, 9)]


class TestSpecialFillers:
    def test_bit_convention(self):
        assert specials(bits("01101011")) == [(3, 0)]
        assert specials(bits("01110011")) == [(3, 1)]

    def test_length_two_00_not_special(self):
        w = bits("01100011")
        assert decompose_oracle(w)["fillers"] == ((3, 4),)
        assert specials(w) == []

    def test_order(self):
        w = bits("0110101101110011")
        assert [p for p, _ in specials(w)] == [3, 11]


class TestGoodIntervals:
    def test_both_good_blocks(self):
        assert good_block_starts(bits("01101011")) == [0]
        assert good_block_starts(bits("01110011")) == [0]

    def test_not_good(self):
        assert good_block_starts(bits("00000011")) == []

    def test_offset_anchoring(self):
        # good at start 1, which the offset-0 partition does not read
        w = Window(0, np.array([0] + [0, 1, 1, 0, 1, 0, 1, 1], dtype=np.uint8))
        assert good_block_starts(w) == []
        assert good_starts(w).tolist() == [False, True]

    def test_alignment_respects_absolute_index(self):
        w = Window(8, bits("01101011").values)
        assert good_block_starts(w) == [8]


class TestGoodBlockIdentity:
    """Both {a, b} sequences are read off the good-block mask; they agree
    with the marker loop and a literal block scan on every short word."""

    def test_every_word_up_to_length_12(self):
        for L in range(13):
            for word in itertools.product((0, 1), repeat=L):
                for start in (0, -5, 3):
                    w = Window(start, np.array(word, dtype=np.uint8))
                    zp, z = special_sequence(w), good_block_sequence(w)
                    assert zp.start == z.start == start
                    assert (np.flatnonzero(zp.values) + start).tolist() == \
                        [p for p, _ in decompose_oracle(w)["special"]]
                    assert (np.flatnonzero(z.values) + start).tolist() == [
                        start + j + 3 for j in range(L - 7)
                        if (start + j) % 8 == 0
                        and word[j:j + 8] in GOOD_BLOCKS]
                    assert dominates(z, zp)


class TestGoodProb:
    def test_iid_fair(self):
        assert good_prob(iid_binary(0.5), 0) == pytest.approx(1 / 128, abs=1e-18)

    def test_doeblin_floor(self):
        m = make_nu_c(1 / 6)
        delta = 1 / 3
        for i in (-5, 0, 1, 17):
            assert good_prob(m, i) >= delta ** 8

    def test_iid_biased_oracle(self):
        # both good blocks have three 0s and five 1s
        p = 0.3
        oracle = 2 * p ** 3 * (1 - p) ** 5
        assert good_prob(iid_binary(p), 11) == pytest.approx(oracle, rel=1e-12)

    def test_lower_bound_over_range(self):
        m = make_nu_c(0.2)
        q = good_prob_lower(m.block(-50, 108), (-50, 50))
        probe = min(good_prob(m, i) for i in range(-50, 51))
        assert q == pytest.approx(probe, rel=1e-12)

    def test_lower_bound_refuses_non_binary(self):
        # read as binary, columns 0 and 1 of this measure give q = 3.9e-05
        with pytest.raises(ValueError, match="two-symbol"):
            good_prob_lower(iid([0.2, 0.3, 0.5]).block(0, 1007), (0, 999))

    def test_lower_bound_refuses_zero_mass(self):
        # a block starting at -20 names -3 by its index, not its row
        for lo, hi, index in ((0, 99, 5), (-20, 19, -3)):
            m = FiniteProductMeasure(
                alphabet=(0, 1),
                marginals=lambda n: np.where((n == index)[..., None],
                                             (1.0, 0.0), (0.5, 0.5)))
            with pytest.raises(ValueError,
                               match=f"Doeblin condition at index {index}$"):
                good_prob_lower(m.block(lo, hi - lo + 8), (lo, hi))

    def test_lower_bound_refuses_short_block(self):
        # the block starting at the last start needs rows up to hi + 7
        p = make_nu_c(0.2).block(0, 103)
        with pytest.raises(ValueError, match="misses 103 .. 106$"):
            good_prob_lower(p, (0, 99))


class TestGoodProbChunks:
    """``good_prob_lower`` reads ``GOOD_CHUNK`` starts at a time; a small
    chunk puts many boundaries inside spans the scalar oracle can walk."""

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1000, 4096])
    @pytest.mark.parametrize("lo, hi, at", [
        (0, 999, []), (-300, 736, []), (-1037, -2, []),
        (-100, 1000, [995]),    # 1101 starts: at 64, 13 in the last chunk
    ])
    def test_chunks_equal_oracle_minimum(self, monkeypatch, chunk, lo, hi,
                                         at):
        m = dipped(at=at)
        block = m.block(lo, hi - lo + 8)
        monkeypatch.setattr(markers, "GOOD_CHUNK", 10 ** 6)
        whole = good_prob_lower(block, (lo, hi))
        monkeypatch.setattr(markers, "GOOD_CHUNK", chunk)
        q = good_prob_lower(block, (lo, hi))
        assert q == whole
        probe = min(good_prob(m, i) for i in range(lo, hi + 1))
        assert q == pytest.approx(probe, rel=1e-12)

    def test_infimum_in_last_partial_chunk(self, monkeypatch):
        # the dip at ``at`` lowers only the blocks starting at at-7 .. at,
        # all in the last chunk, which holds 41 starts
        lo, hi, at = 0, 2 * GOOD_CHUNK + 40, 2 * GOOD_CHUNK + 30
        m = dipped(at=[at])
        block = m.block(lo, hi - lo + 8)
        q = good_prob_lower(block, (lo, hi))
        monkeypatch.setattr(markers, "GOOD_CHUNK", 10 ** 6)
        assert q == good_prob_lower(block, (lo, hi))
        probe = min(good_prob(m, i) for i in range(at - 7, at + 1))
        assert q == pytest.approx(probe, rel=1e-12)
        assert q < min(good_prob(m, i) for i in range(0, 64)) / 5

    @pytest.mark.parametrize("lo, zeros", [
        (0, [GOOD_CHUNK + 5, 2 * GOOD_CHUNK + 1]),
        (-GOOD_CHUNK - 9, [3, GOOD_CHUNK + 20]),
        (0, [2 * GOOD_CHUNK + 2]),      # also in the 7 rows after chunk 1
    ])
    def test_zero_mass_past_first_chunk(self, lo, zeros):
        hi = lo + 3 * GOOD_CHUNK
        m = dipped(zero=zeros)
        with pytest.raises(ValueError,
                           match=f"Doeblin condition at index {zeros[0]}$"):
            good_prob_lower(m.block(lo, hi - lo + 8), (lo, hi))

    def test_memory_stays_near_one_chunk(self):
        # one chunk's columns, products and sums; a whole-span pass holds
        # the two columns and two products, 32 B per start
        count = 1 << 20
        block = iid_binary(0.3).block(0, count + 7)
        tracemalloc.start()
        try:
            good_prob_lower(block, (0, count - 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * GOOD_CHUNK


class TestLinearGrowthOfSpecials:
    def test_special_count_rate(self):
        # finite-window face of "infinitely many special fillers": the count
        # in [0, N) grows at least like (q/8) N
        m = iid_binary(0.5)
        N = 10 ** 5
        w = sample_window(m, (0, N - 1), SeedStream(71))
        count = int(special_sequence(w).values.sum())
        q = good_prob_lower(m.block(0, N + 7), (0, N - 1))
        mean_lb = q / 8 * N
        sigma = math.sqrt(N / 8 * q * (1 - q))
        assert count >= mean_lb - 4 * sigma

    def test_marker_starts_never_overlap_random(self):
        w = sample_window(iid_binary(0.35), (0, 20000), SeedStream(3))
        mk = [lo for lo, _ in decompose_oracle(w)["markers"]]
        assert np.all(np.diff(mk) >= 3)
