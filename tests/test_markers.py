"""Marker/filler decomposition and good-block probabilities."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import decomposition_json, good_prob
from shiftlab import (FiniteProductMeasure, SeedStream, Window, decompose,
                      dominates, good_block_sequence, good_intervals,
                      good_prob_lower, iid, iid_binary, make_nu_c,
                      sample_window, special_sequence)
from shiftlab.markers import GOOD_BLOCKS, find_marker_starts


def bits(s: str) -> Window:
    return Window(0, np.array([int(c) for c in s], dtype=np.uint8))


def rows(a: np.ndarray) -> tuple:
    """An (k, 2) array as a tuple of pairs."""
    return tuple(map(tuple, a.tolist()))


def decompose_oracle(w) -> dict:
    """Reference decomposition by a loop over the markers, in tuples of
    Python ints, with the JSON export built from those tuples."""
    values = np.asarray(w.values).tolist()
    start, n = w.start, len(values)
    mk = [j for j in range(n - 2)
          if (values[j], values[j + 1], values[j + 2]) == (0, 1, 1)]
    if not mk:
        markers, fillers, special = (), (), ()
        flags = (True, True)
        censored = ((start, start + n - 1),) if n else ()
    else:
        markers = tuple((start + s, start + s + 2) for s in mk)
        fillers, special = [], []
        for (a_lo, a_hi), (b_lo, _) in zip(markers[:-1], markers[1:]):
            if b_lo - a_hi <= 1:
                continue
            gap = (a_hi + 1, b_lo - 1)
            fillers.append(gap)
            if gap[1] - gap[0] == 1:
                x0, x1 = values[gap[0] - start], values[gap[1] - start]
                if (x0, x1) == (1, 0):
                    special.append((gap[0], 1))
                elif (x0, x1) == (0, 1):
                    special.append((gap[0], 0))
        fillers, special = tuple(fillers), tuple(special)
        censored = []
        left = markers[0][0] > start
        if left:
            censored.append((start, markers[0][0] - 1))
        right = markers[-1][1] < start + n - 1
        if right:
            censored.append((markers[-1][1] + 1, start + n - 1))
        flags, censored = (left, right), tuple(censored)
    labels = [("marker", iv) for iv in markers]
    labels += [("special" if iv in {(p, p + 1) for p, _ in special}
                else "filler", iv) for iv in fillers]
    labels += [("censored", iv) for iv in censored]
    labels.sort(key=lambda t: t[1][0])
    return {"markers": markers, "fillers": fillers, "special": special,
            "boundary_flags": flags, "censored": censored,
            "json": {"start": start, "length": n,
                     "intervals": [{"label": lab, "lo": iv[0], "hi": iv[1]}
                                   for lab, iv in labels]}}


def assert_matches_oracle(w) -> None:
    got, want = decompose(w), decompose_oracle(w)
    for field in ("markers", "fillers", "special", "censored"):
        arr = getattr(got, field)
        assert arr.dtype == np.int64 and arr.shape == (len(want[field]), 2)
        assert rows(arr) == want[field], field
    assert got.boundary_flags == want["boundary_flags"]
    assert decomposition_json(got) == want["json"]


class TestDecomposeOracle:
    def test_every_word_up_to_length_14(self):
        for L in range(15):
            for word in itertools.product((0, 1), repeat=L):
                w = Window(0, np.array(word, dtype=np.uint8))
                assert_matches_oracle(w)

    @given(st.integers(-10 ** 6, 10 ** 6),
           st.lists(st.integers(0, 1), min_size=0, max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_random_windows_and_offsets(self, start, word):
        assert_matches_oracle(Window(start, np.array(word, dtype=np.uint8)))


class TestDecompose:
    def test_sample_realization(self):
        d = decompose(bits("01101011"))
        assert rows(d.markers) == ((0, 2), (5, 7))
        assert rows(d.fillers) == ((3, 4),)
        assert rows(d.special) == ((3, 0),)
        assert d.boundary_flags == (False, False)

    def test_no_markers_is_one_censored_interval(self):
        d = decompose(bits("000000"))
        assert rows(d.markers) == ()
        assert rows(d.fillers) == ()
        assert rows(d.censored) == ((0, 5),)
        assert d.boundary_flags == (True, True)

    def test_adjacent_markers_empty_gap(self):
        d = decompose(bits("011011"))
        assert rows(d.markers) == ((0, 2), (3, 5))
        assert rows(d.fillers) == ()

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            decompose(Window(0, np.array([0, 2, 1])))

    def test_interior_partition_small_exhaustive(self):
        # markers + fillers tile [first marker start, last marker end]
        for L in range(3, 12):
            for word in itertools.product("01", repeat=L):
                d = decompose(bits("".join(word)))
                if not len(d.markers):
                    continue
                covered = []
                for lo, hi in rows(d.markers) + rows(d.fillers):
                    covered.extend(range(lo, hi + 1))
                lo0, hi0 = d.markers[0][0], d.markers[-1][1]
                assert sorted(covered) == list(range(lo0, hi0 + 1))

    @given(st.integers(-1000, 1000),
           st.lists(st.integers(0, 1), min_size=0, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_equivariance(self, start, word):
        w = Window(0, np.array(word, dtype=np.uint8))
        d0 = decompose(w)
        d1 = decompose(w.shifted(start))
        shift = lambda ivs: tuple((lo + start, hi + start) for lo, hi in ivs)
        assert rows(d1.markers) == shift(rows(d0.markers))
        assert rows(d1.fillers) == shift(rows(d0.fillers))
        assert rows(d1.special) == tuple((p + start, b)
                                         for p, b in rows(d0.special))

    def test_export_labels(self):
        rec = decomposition_json(decompose(bits("0011010110")))
        labels = {iv["label"] for iv in rec["intervals"]}
        assert labels <= {"marker", "filler", "special", "censored"}


class TestSpecialFillers:
    def test_bit_convention(self):
        assert list(rows(decompose(bits("01101011")).special)) == [(3, 0)]
        assert list(rows(decompose(bits("01110011")).special)) == [(3, 1)]

    def test_length_two_00_not_special(self):
        d = decompose(bits("01100011"))
        assert rows(d.fillers) == ((3, 4),)
        assert rows(d.special) == ()

    def test_order(self):
        d = decompose(bits("0110101101110011"))
        assert [p for p, _ in rows(d.special)] == [3, 11]


class TestGoodIntervals:
    def test_both_good_blocks(self):
        assert good_intervals(bits("01101011")).tolist() == [0]
        assert good_intervals(bits("01110011")).tolist() == [0]

    def test_not_good(self):
        none = good_intervals(bits("00000011"))
        assert none.tolist() == [] and none.dtype == np.int64

    def test_offset_anchoring(self):
        w = Window(0, np.array([0] + [0, 1, 1, 0, 1, 0, 1, 1], dtype=np.uint8))
        assert good_intervals(w, offset=0).tolist() == []
        assert good_intervals(w, offset=1).tolist() == [1]

    def test_alignment_respects_absolute_index(self):
        w = bits("01101011").shifted(8)
        assert good_intervals(w, offset=0).tolist() == [8]


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
        q = good_prob_lower(m.block(-50, 108), -50, (-50, 50))
        probe = min(good_prob(m, i) for i in range(-50, 51))
        assert q == pytest.approx(probe, rel=1e-12)

    def test_lower_bound_refuses_non_binary(self):
        # read as binary, columns 0 and 1 of this measure give q = 3.9e-05
        with pytest.raises(ValueError, match="two-symbol"):
            good_prob_lower(iid([0.2, 0.3, 0.5]).block(0, 1007), 0, (0, 999))

    def test_lower_bound_refuses_zero_mass(self):
        # a block starting at -20 names -3 by its index, not its row
        for lo, hi, index in ((0, 99, 5), (-20, 19, -3)):
            m = FiniteProductMeasure(
                alphabet=(0, 1),
                marginals=lambda n: np.where((n == index)[..., None],
                                             (1.0, 0.0), (0.5, 0.5)))
            with pytest.raises(ValueError,
                               match=f"Doeblin condition at index {index}$"):
                good_prob_lower(m.block(lo, hi - lo + 8), lo, (lo, hi))

    def test_lower_bound_refuses_short_block(self):
        # the block starting at the last start needs rows up to hi + 7
        p = make_nu_c(0.2).block(0, 103)
        with pytest.raises(ValueError, match="misses 103 .. 106$"):
            good_prob_lower(p, 0, (0, 99))


class TestLinearGrowthOfSpecials:
    def test_special_count_rate(self):
        # finite-window face of "infinitely many special fillers": the count
        # in [0, N) grows at least like (q/8) N
        m = iid_binary(0.5)
        N = 10 ** 5
        w = sample_window(m, (0, N - 1), SeedStream(71))
        count = len(decompose(w).special)
        q = good_prob_lower(m.block(0, N + 7), 0, (0, N - 1))
        mean_lb = q / 8 * N
        sigma = math.sqrt(N / 8 * q * (1 - q))
        assert count >= mean_lb - 4 * sigma

    def test_marker_starts_never_overlap_random(self):
        w = sample_window(iid_binary(0.35), (0, 20000), SeedStream(3))
        mk = find_marker_starts(w.values)
        assert np.all(np.diff(mk) >= 3)
