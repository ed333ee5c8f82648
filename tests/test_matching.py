"""Meshalkin matching: bracket scan against the round loop, walk radius,
domination, AB extraction."""
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (flip_coupling, from_letters, match_oracle,
                     matching_radius, multiplicity, pairs, ranks_of,
                     slots_of, slots_oracle)
from shiftlab import matching
from shiftlab import (MatchingAssignment, SeedStream, Window, dominates,
                      good_block_sequence, hand_out, iid_binary,
                      meshalkin_match, required_d, sample_window,
                      special_sequence)


def from_pairs(d, b, a, rounds, slots, unmatched, a_positions=None):
    """An assignment built from its (b, a) rows, one run per row;
    ``a_positions`` defaults to the a's that have a partner."""
    b, a = np.asarray(b, dtype=np.int64), np.asarray(a, dtype=np.int64)
    if a_positions is None:
        a_positions = np.unique(a)
    return from_runs(d, b, np.ones(len(b), dtype=np.int64),
                     np.searchsorted(a_positions, a), a_positions, unmatched,
                     tops=np.asarray(rounds, dtype=np.int64) + b,
                     offsets=np.asarray(slots, dtype=np.int64) - b)


def from_runs(d, starts, lengths, ranks, a_positions, unmatched=(),
              tops=None, offsets=None):
    """An assignment built from its runs; ``tops`` default to round 1 at
    each run's last b, and ``offsets`` to slots 1, 2, ... along each run."""
    starts, lengths = (np.asarray(x, dtype=np.int64)
                       for x in (starts, lengths))
    if tops is None:
        tops = starts + lengths
    if offsets is None:
        offsets = 1 - starts
    return MatchingAssignment(
        d=d, a_positions=np.asarray(a_positions, dtype=np.int64),
        unmatched=np.asarray(unmatched, dtype=np.int64),
        run_starts=starts, run_lengths=lengths,
        run_ranks=np.asarray(ranks, dtype=np.int64),
        run_tops=np.asarray(tops, dtype=np.int64),
        run_offsets=np.asarray(offsets, dtype=np.int64))


def round_loop_match(z: Window, d: int) -> MatchingAssignment:
    """The inductive scheme as vectorised rounds over the surviving sites
    (at most window-length rounds), with the assignment's arrays and the
    per-a counter's slots."""
    isa = z.values
    L = len(isa)
    partner = np.full(L, -1, dtype=np.int64)
    round_of = np.zeros(L, dtype=np.int64)
    mult = np.zeros(L, dtype=np.int64)
    active = np.arange(L)
    for rnd in range(1, L + 1):
        if len(active) < 2:
            break
        al = isa[active]
        adj = (~al[:-1]) & al[1:]
        if not adj.any():
            break
        b_slots = active[:-1][adj]
        a_slots = active[1:][adj]
        partner[b_slots] = a_slots
        round_of[b_slots] = rnd
        mult[a_slots] += 1
        drop = np.zeros(len(active), dtype=bool)
        drop[:-1][adj] = True
        a_pos_in_active = np.flatnonzero(adj) + 1
        drop[a_pos_in_active[mult[a_slots] >= d]] = True
        active = active[~drop]

    matched = partner >= 0
    b, a = np.flatnonzero(matched), partner[matched]
    return from_pairs(d, b + z.start, a + z.start, round_of[matched],
                      slots_oracle(b.tolist(), a.tolist()),
                      np.flatnonzero(~matched & ~isa) + z.start,
                      a_positions=np.flatnonzero(isa) + z.start)


class TestRequiredD:
    @pytest.mark.parametrize("q,d", [(0.5, 16), (1 / 128, 1024), (1.0, 8),
                                     (0.3, 27)])
    def test_values(self, q, d):
        assert required_d(q) == d

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            required_d(0.0)

    def test_rejects_q_with_no_finite_capacity(self):
        # a subnormal q makes 8/q overflow to inf
        with pytest.raises(ValueError, match="5e-324"):
            required_d(5e-324)


class TestMeshalkinMatch:
    def test_ba(self):
        a = meshalkin_match(from_letters(0, "ba"), 1)
        assert pairs(a) == {0: 1}
        assert list(a.rounds) == [1]

    def test_bba_two_rounds(self):
        a = meshalkin_match(from_letters(0, "bba"), 2)
        assert pairs(a) == {0: 2, 1: 2}
        assert sorted(a.rounds.tolist()) == [1, 2]
        assert multiplicity(a) == {2: 2}

    def test_all_b_censored(self):
        a = meshalkin_match(from_letters(0, "bbb"), 3)
        assert pairs(a) == {}
        assert list(a.unmatched) == [0, 1, 2]

    def test_capacity_saturation(self):
        # with d = 1 the single a takes one partner and leaves
        a = meshalkin_match(from_letters(0, "bba"), 1)
        assert pairs(a) == {1: 2}
        assert list(a.unmatched) == [0]

    def test_absolute_indexing(self):
        a = meshalkin_match(from_letters(100, "ba"), 1)
        assert pairs(a) == {100: 101}

    def test_exhaustive_against_oracle(self):
        for L in range(1, 11):
            for word in itertools.product("ab", repeat=L):
                letters = "".join(word)
                for d in (1, 2, 3):
                    got = meshalkin_match(
                        from_letters(0, letters), d)
                    partner, rounds, slots, unmatched = match_oracle(letters,
                                                                     d)
                    # rows in ascending b order, as the assignment CSV
                    bs = sorted(partner)
                    assert got.b_indices.tolist() == bs, (letters, d)
                    assert got.a_indices.tolist() == [partner[b] for b in bs]
                    assert got.rounds.tolist() == [rounds[b] for b in bs]
                    assert slots_of(got).tolist() == [slots[b] for b in bs]
                    assert got.unmatched.tolist() == unmatched, (letters, d)

    def test_random_against_round_loop(self):
        # deep stacks with many partly used runs, beyond the exhaustive
        # words' reach
        rng = np.random.default_rng(11)
        for trial in range(300):
            start = int(rng.integers(-100, 100))
            isa = rng.random(int(rng.integers(1, 5000))) < \
                rng.uniform(0.005, 0.6)
            d = int(rng.integers(1, 40))
            z = Window(start, isa)
            got, want = meshalkin_match(z, d), round_loop_match(z, d)
            for field in ("b_indices", "a_positions", "rounds", "unmatched"):
                np.testing.assert_array_equal(
                    getattr(got, field), getattr(want, field),
                    err_msg=f"{field}, trial {trial}, d = {d}")
            for read in (ranks_of, slots_of):
                np.testing.assert_array_equal(
                    read(got), read(want),
                    err_msg=f"{read.__name__}, trial {trial}, d = {d}")

    @pytest.mark.parametrize("letters, d, unmatched", [
        ("bbbb", 2, [0, 1, 2, 3]),          # no a at all: every b is tail
        ("babbb", 1, [2, 3, 4]),            # b's trailing the last a
        ("bbabb", 1, [0, 3, 4]),            # a stack run, then the tail
        ("abba", 1, [1]),                   # an a at index 0
        ("abba", 2, []),
        ("aaaa", 3, []),                    # all a's: no b at all
        ("", 1, []),
    ])
    @pytest.mark.parametrize("start", [0, -7])
    def test_unmatched_edges(self, letters, d, unmatched, start):
        z = from_letters(start, letters)
        got = meshalkin_match(z, d)
        b = np.flatnonzero(~z.values) + start
        assert got.unmatched.dtype == np.int64
        assert got.unmatched.tolist() == [start + i for i in unmatched]
        np.testing.assert_array_equal(
            got.unmatched, np.setdiff1d(b, got.b_indices))
        assert got.unmatched.tolist() == [
            start + i for i in match_oracle(letters, d)[3]]

    @given(st.text(alphabet="ab", min_size=1, max_size=40),
           st.integers(1, 4), st.integers(-50, 50))
    @settings(max_examples=250, deadline=None)
    def test_equivariance(self, letters, d, shift):
        base = meshalkin_match(from_letters(0, letters), d)
        moved = meshalkin_match(from_letters(shift, letters), d)
        assert pairs(moved) == {b + shift: a + shift
                                for b, a in pairs(base).items()}


def hand_built(b, a, unmatched=(), slots=None) -> MatchingAssignment:
    if slots is None:
        slots = slots_oracle(b, a)
    return from_pairs(2, b, a, np.ones(len(b)), slots, unmatched)


class TestCheckCapacity:
    def test_valid(self):
        hand_built([0, 1, 3], [2, 2, 4], [5]).check_capacity()
        hand_built([], [], [0, 1]).check_capacity()

    @pytest.mark.parametrize("b,a,unmatched,message", [
        ([0, 0], [2, 3], [], "matched twice"),
        ([0, 4], [2, 2], [], "on its left"),
        ([2], [2], [], "on its left"),
        ([0, 1], [2, 2], [1], "both matched and unmatched"),
        ([0, 1, 3], [4, 4, 4], [], "capacity"),
        ([1, 0], [2, 2], [], "not in ascending b order"),
        ([0, 1, 3], [2, 2, 4], [-1, 3], "both matched and unmatched"),
    ])
    def test_rejects(self, b, a, unmatched, message):
        with pytest.raises(AssertionError, match=message):
            hand_built(b, a, unmatched).check_capacity()

    @pytest.mark.parametrize("ranks", [[-1, 0], [0, 1]])
    def test_rejects_rank_outside_a_positions(self, ranks):
        # one a, so a rank of -1 would wrap onto it and 1 would run past it
        assignment = replace(hand_built([0, 1], [2, 2]),
                             run_ranks=np.array(ranks, dtype=np.int64))
        with pytest.raises(AssertionError, match="rank outside"):
            assignment.check_capacity()

    @pytest.mark.parametrize("slots", [[1, 3], [0, 1]])
    def test_rejects_slot_outside_tuple(self, slots):
        with pytest.raises(AssertionError, match="tuple exhaustion"):
            hand_built([0, 1], [2, 2], [], slots).check_capacity()

    def test_valid_runs(self):
        # "bbbaba" at d = 2: the a at 3 takes 2 and 1, and the a at 5 takes
        # 4 in round 1, then 0 in round 3, so it has two runs
        want = from_runs(2, [0, 1, 4], [1, 2, 1], [1, 0, 1], [3, 5],
                         tops=[3, 3, 5], offsets=[1, 0, -2])
        want.check_capacity()
        got = meshalkin_match(from_letters(0, "bbbaba"), 2)
        for field in ("a_positions", "unmatched", "run_starts", "run_lengths",
                      "run_ranks", "run_tops", "run_offsets"):
            np.testing.assert_array_equal(getattr(got, field),
                                          getattr(want, field), err_msg=field)

    @pytest.mark.parametrize("starts,lengths,ranks,offsets,message", [
        # two runs that overlap at 1
        ([0, 1], [2, 1], [0, 0], [1, 1], "matched twice"),
        # a run that reaches its own a at 2
        ([0], [3], [0], [1], "on its left"),
        # one a's two runs, 2 + 2 b's at d = 3
        ([0, 3], [2, 2], [1, 1], [1, -1], "capacity"),
        # slots 2 .. 4 at d = 3
        ([3], [3], [1], [-1], "tuple exhaustion"),
        ([0, 1], [1, 0], [1, 1], [1, 1], "holds no b"),
    ])
    def test_rejects_runs(self, starts, lengths, ranks, offsets, message):
        # a's at 2 and 6, capacity 3
        assignment = from_runs(3, starts, lengths, ranks, [2, 6],
                               offsets=offsets)
        with pytest.raises(AssertionError, match=message):
            assignment.check_capacity()


class TestMatchingRadius:
    def test_ba(self):
        assert matching_radius(from_letters(0, "ba"), 1, 0) == 1

    def test_all_b_censored(self):
        assert matching_radius(from_letters(0, "bbbb"), 2, 1) is None

    def test_rejects_a_position(self):
        with pytest.raises(ValueError):
            matching_radius(from_letters(0, "ab"), 1, 0)

    def test_exhaustive_first_nonnegative_oracle(self):
        for L in range(1, 13):
            for word in itertools.product("ab", repeat=L):
                letters = "".join(word)
                for d in (1, 2, 3):
                    z = from_letters(0, letters)
                    for m, c in enumerate(letters):
                        if c != "b":
                            continue
                        # brute walk
                        s, oracle = -1, None
                        for k in range(1, L - m):
                            s += d if letters[m + k] == "a" else -1
                            if s >= 0:
                                oracle = k
                                break
                        assert matching_radius(z, d, m) == oracle

    def test_walk_criterion_predicts_matchability(self):
        # matched within the window iff the radius resolves, and the match
        # distance never exceeds it
        for L in range(1, 13):
            for word in itertools.product("ab", repeat=L):
                letters = "".join(word)
                for d in (1, 2, 3):
                    z = from_letters(0, letters)
                    matched = pairs(meshalkin_match(z, d))
                    for m, c in enumerate(letters):
                        if c != "b":
                            continue
                        r = matching_radius(z, d, m)
                        if r is None:
                            assert m not in matched
                        else:
                            assert m in matched
                            assert matched[m] - m <= r


class TestDomination:
    def test_reflexive(self):
        z = from_letters(0, "abba")
        assert dominates(z, z)

    def test_all_b_dominated_by_everything(self):
        assert dominates(from_letters(0, "bbb"), from_letters(0, "aba"))

    def test_counterexample(self):
        assert not dominates(from_letters(0, "ab"), from_letters(0, "ba"))

    def test_range_mismatch(self):
        with pytest.raises(ValueError):
            dominates(from_letters(0, "ab"), from_letters(1, "ab"))

    def test_monotone_coupling_sample(self):
        # flipping random b's to a never slows any surviving b down
        rng = np.random.default_rng(20)
        d = 3
        for trial in range(400):
            letters = "".join(rng.choice(["a", "b"], p=[0.18, 0.82], size=120))
            z = from_letters(0, letters)
            z2 = flip_coupling(z, 0.3, rng)
            assert dominates(z, z2)
            m1 = meshalkin_match(z, d)
            m2 = meshalkin_match(z2, d)
            matched2 = pairs(m2)
            for b, a in pairs(m1).items():
                if z2.values[b]:
                    continue
                assert b in matched2
                assert matched2[b] - b <= a - b


class TestPartnerSlots:
    """The slots the scan hands out, and each row's a as a rank among the
    a's, which is the row of the a's tuple."""

    def test_against_per_a_counter(self):
        rng = np.random.default_rng(5)
        for trial in range(300):
            start = int(rng.integers(-100, 100))
            isa = rng.random(int(rng.integers(1, 80))) < rng.uniform(0.05, 0.6)
            d = int(rng.integers(1, 5))
            assignment = meshalkin_match(Window(start, isa), d)
            b, a = assignment.b_indices.tolist(), assignment.a_indices.tolist()
            assert slots_of(assignment).tolist() == slots_oracle(b, a)
            a_positions = assignment.a_positions
            assert a_positions.tolist() == (np.flatnonzero(isa)
                                            + start).tolist()
            partner = match_oracle("".join(np.where(isa, "a", "b")), d)[0]
            assert (a_positions[ranks_of(assignment)] - start).tolist() == \
                [partner[x] for x in sorted(partner)], trial

    def test_empty_assignment(self):
        assignment = meshalkin_match(from_letters(0, "abbb"), 2)
        assert len(ranks_of(assignment)) == 0
        assert assignment.a_positions.tolist() == [0]

    def test_hand_out_deals_each_tuple(self):
        # tuple k holds k * (d+1) + slot at each slot, so every entry names
        # the (rank, slot) it was read from; the censored b's keep NaN
        rng = np.random.default_rng(8)
        for trial in range(200):
            start = int(rng.integers(-50, 50))
            isa = rng.random(int(rng.integers(1, 60))) < rng.uniform(0.1, 0.6)
            d = int(rng.integers(1, 5))
            assignment = meshalkin_match(Window(start, isa), d)
            a = assignment.a_positions
            tuples = np.arange(len(a) * (d + 1), dtype=float).reshape(
                len(a), d + 1)
            out = np.full(len(isa), np.nan)
            hand_out(assignment, tuples, out, start)
            b = assignment.b_indices.tolist()
            a_of_b = assignment.a_indices.tolist()
            rank = {x: k for k, x in enumerate(a.tolist())}
            want = np.full(len(isa), np.nan)
            want[a - start] = (d + 1) * np.arange(len(a))
            for j, x, slot in zip(b, a_of_b, slots_oracle(b, a_of_b)):
                want[j - start] = (d + 1) * rank[x] + slot
            np.testing.assert_array_equal(out, want, err_msg=str(trial))

    @pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
    def test_hand_out_in_chunks_keeps_a_subset(self, chunk, monkeypatch):
        # runs dealt a few b's at a time give what one read does, and a
        # tuple left out by ``keep`` writes neither its a nor its partners
        monkeypatch.setattr(matching, "HAND_OUT_CHUNK", chunk)
        rng = np.random.default_rng(9)
        for trial in range(100):
            start = int(rng.integers(-50, 50))
            isa = rng.random(int(rng.integers(1, 200))) < \
                rng.uniform(0.05, 0.6)
            d = int(rng.integers(1, 8))
            assignment = meshalkin_match(Window(start, isa), d)
            a = assignment.a_positions
            tuples = rng.random((len(a), d + 2))
            keep = rng.random(len(a)) < 0.7
            out = np.full(len(isa), np.nan)
            hand_out(assignment, tuples, out, start, keep)
            b, ranks = assignment.b_indices, ranks_of(assignment)
            dealt = keep[ranks]
            want = np.full(len(isa), np.nan)
            want[a[keep] - start] = tuples[keep, 0]
            want[b[dealt] - start] = tuples[ranks[dealt],
                                            slots_of(assignment)[dealt]]
            np.testing.assert_array_equal(out, want, err_msg=str(trial))

    def test_unknown_a_index(self):
        # hand_out refuses a tuple count other than the a count, and
        # writes nothing
        assignment = meshalkin_match(from_letters(0, "bba" * 4), 2)
        assert len(assignment.a_positions) == 4
        out = np.full(12, -1, dtype=np.int8)
        for k in (0, 3, 5):
            with pytest.raises(AssertionError, match=f"^{k} tuples for 4 "):
                hand_out(assignment, np.zeros((k, 3), np.uint8), out, 0)
        assert (out == -1).all()

    def test_tuples_narrower_than_the_capacity(self):
        assignment = meshalkin_match(from_letters(0, "bba" * 4), 2)
        out = np.full(12, -1, dtype=np.int8)
        with pytest.raises(AssertionError,
                           match="matching capacity exceeds tuple width - 1"):
            hand_out(assignment, np.zeros((4, 2), np.uint8), out, 0)
        assert (out == -1).all()

    def test_tuple_exhaustion(self):
        # one partner, but handed the slot past the last bit of the tuple
        assignment = from_pairs(1, [1], [2], [1], [2], [0])
        with pytest.raises(AssertionError, match="tuple exhaustion"):
            assignment.check_capacity()


class TestGoodToAB:
    def realization(self) -> Window:
        s = "01101011" "00000011" "10011011" "01110011"
        return Window(0, np.array([int(c) for c in s], dtype=np.uint8))

    def test_realization_rows(self):
        w = self.realization()
        zp, z = special_sequence(w), good_block_sequence(w)
        assert np.flatnonzero(zp.values).tolist() == [3, 16, 27]
        # the aligned partition misses the special filler at 16
        assert np.flatnonzero(z.values).tolist() == [3, 27]

    def test_no_markers_all_b(self):
        w = Window(0, np.zeros(32, dtype=np.uint8))
        zp, z = special_sequence(w), good_block_sequence(w)
        assert not zp.values.any() and not z.values.any()

    def test_every_block_good(self):
        w = Window(0, np.array([0, 1, 1, 0, 1, 0, 1, 1] * 5, dtype=np.uint8))
        zp, z = special_sequence(w), good_block_sequence(w)
        assert np.flatnonzero(z.values).tolist() == \
            [8 * n + 3 for n in range(5)]

    def test_domination_invariant(self):
        m = iid_binary(0.4)
        for seed in range(5):
            w = sample_window(m, (0, 4999), SeedStream(seed))
            zp, z = special_sequence(w), good_block_sequence(w)
            assert dominates(z, zp)

    def test_censored_fraction_shrinks_with_window(self):
        # law-of-large-numbers face of the matching's success for the
        # aligned sequence, whose capacity d = required_d(1/128) = 1024 is
        # calibrated to a barely positive drift: the censored share of b's
        # on the interior decreases as the window grows
        m = iid_binary(0.5)
        d = required_d(1 / 128)
        assert d == 1024
        fracs = []
        for N in (10 ** 4, 10 ** 5, 4 * 10 ** 5):
            w = sample_window(m, (0, N - 1), SeedStream(99))
            z = good_block_sequence(w)
            assignment = meshalkin_match(z, d)
            lo, hi = N // 6, 5 * N // 6
            inner = [b for b in assignment.unmatched if lo <= b < hi]
            n_b = int((~z.values[lo:hi]).sum())
            fracs.append(len(inner) / n_b)
        assert fracs[0] > fracs[1] > fracs[2]
        assert fracs[2] < 0.02
