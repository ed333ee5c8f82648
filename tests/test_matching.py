"""Meshalkin matching: bracket scan against the round loop, walk radius,
domination, AB extraction."""
import itertools
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (flip_coupling, from_letters, full_scan_match,
                     match_oracle, matching_radius, multiplicity, pairs,
                     ranks_of, slots_of, slots_oracle)
from shiftlab import (MatchingAssignment, SeedStream, Window, dominates,
                      good_block_sequence, good_prob_lower, hand_out,
                      iid_binary,
                      meshalkin_match, required_d, sample_window,
                      special_sequence)


def from_pairs(d, b, a, rounds, unmatched, a_positions=None):
    """An assignment built from its (b, a) rows, one run per row;
    ``a_positions`` defaults to the a's that have a partner."""
    b, a = np.asarray(b, dtype=np.int64), np.asarray(a, dtype=np.int64)
    if a_positions is None:
        a_positions = np.unique(a)
    return from_runs(d, b, np.ones(len(b), dtype=np.int64),
                     np.searchsorted(a_positions, a), a_positions, unmatched,
                     tops=np.asarray(rounds, dtype=np.int64) + b)


def from_runs(d, starts, lengths, ranks, a_positions, unmatched=(),
              tops=None):
    """An assignment built from its runs; ``tops`` default to round 1 at
    each run's last b."""
    starts, lengths = (np.asarray(x, dtype=np.int64)
                       for x in (starts, lengths))
    if tops is None:
        tops = starts + lengths
    return MatchingAssignment(
        d=d, a_positions=np.asarray(a_positions, dtype=np.int64),
        unmatched=np.asarray(unmatched, dtype=np.int64),
        run_starts=starts, run_lengths=lengths,
        run_ranks=np.asarray(ranks, dtype=np.int64),
        run_tops=np.asarray(tops, dtype=np.int64))


def round_loop_match(z: Window, d: int) -> MatchingAssignment:
    """The inductive scheme as vectorised rounds over the surviving sites
    (at most window-length rounds), as the assignment's arrays."""
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
                    assert dealt_slots(got, 0, L).tolist() == \
                        [slots[b] for b in bs]
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
            np.testing.assert_array_equal(
                ranks_of(got), ranks_of(want),
                err_msg=f"ranks, trial {trial}, d = {d}")

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

    @pytest.mark.parametrize("rows", [1, 2, 7, 1 << 16])
    def test_row_chunks_and_bounds_are_the_whole_columns(self, rows):
        # chunks of ``rows`` rows, the last one shorter, whose per-b
        # columns are those of the whole assignment one after another
        rng = np.random.default_rng(12)
        for trial in range(100):
            start = int(rng.integers(-100, 100))
            isa = rng.random(int(rng.integers(1, 400))) < \
                rng.uniform(0.005, 0.6)
            got = meshalkin_match(Window(start, isa), int(rng.integers(1, 9)))
            chunks = list(got.row_chunks(rows))
            sizes = [len(c.b_indices) for c in chunks]
            total = len(got.b_indices)
            assert sizes == [rows] * (total // rows) + (
                [total % rows] if total % rows else []), trial
            for field in ("b_indices", "a_indices", "rounds"):
                np.testing.assert_array_equal(
                    np.concatenate([np.empty(0, np.int64)]
                                   + [getattr(c, field) for c in chunks]),
                    getattr(got, field), err_msg=f"{field}, trial {trial}")
            assert all(len(c.unmatched) == 0 for c in chunks)

    @given(st.text(alphabet="ab", min_size=1, max_size=40),
           st.integers(1, 4), st.integers(-50, 50))
    @settings(max_examples=250, deadline=None)
    def test_equivariance(self, letters, d, shift):
        base = meshalkin_match(from_letters(0, letters), d)
        moved = meshalkin_match(from_letters(shift, letters), d)
        assert pairs(moved) == {b + shift: a + shift
                                for b, a in pairs(base).items()}


def every_slot(tuples: np.ndarray) -> tuple:
    """The (rank, slot, value) triples of every entry of a tuple matrix."""
    K, width = tuples.shape
    return (np.repeat(np.arange(K), width), np.tile(np.arange(width), K),
            tuples.reshape(-1))


def dealt_slots(assignment, start: int, length: int) -> np.ndarray:
    """Each matched b's slot as ``hand_out`` deals it, in ascending b
    order, over a sequence of ``length`` letters from index ``start``:
    every tuple holds its own slot numbers 0 .. d."""
    K, d = len(assignment.a_positions), assignment.d
    out = np.full(length, -1, dtype=np.int64)
    hand_out(assignment, -1, every_slot(np.tile(np.arange(d + 1), (K, 1))),
             out, start)
    return out[assignment.b_indices - start]


RUN_FIELDS = ("a_positions", "unmatched", "run_starts", "run_lengths",
              "run_ranks", "run_tops")


def assert_same_runs(got, want, msg=""):
    for field in RUN_FIELDS:
        g, w = getattr(got, field), getattr(want, field)
        assert g.dtype == w.dtype, (field, msg)
        np.testing.assert_array_equal(g, w, err_msg=f"{field} {msg}")


def stack_heights(z: Window, d: int) -> list[int]:
    """The unmatched b's waiting after each a, by Lindley's recursion."""
    heights, h, gap = [], 0, 0
    for isa in z.values.tolist():
        if isa:
            h = max(0, h + gap - d)
            heights.append(h)
            gap = 0
        else:
            gap += 1
    return heights


class TestBusyPeriodScan:
    """The scan runs its stack loop only over the busy periods and writes
    the idle a's as arrays; the full scan over every a
    (``oracles.full_scan_match``) and the literal rounds agree with it."""

    @given(st.floats(0.0, 0.99), st.integers(1, 12), st.integers(0, 3000),
           st.integers(0, 2 ** 32 - 1), st.integers(-100, 100))
    @settings(max_examples=200, deadline=None)
    def test_random_words_against_the_full_scan(self, b_density, d, length,
                                                seed, start):
        # up to 99% b's, so busy periods run long
        isa = np.random.default_rng(seed).random(length) >= b_density
        z = Window(start, isa)
        assert_same_runs(meshalkin_match(z, d), full_scan_match(z, d))

    @given(st.text(alphabet="ab", max_size=60), st.integers(1, 12))
    @settings(max_examples=300, deadline=None)
    def test_words_against_the_rounds(self, letters, d):
        got = meshalkin_match(from_letters(0, letters), d)
        partner, rounds, slots, unmatched = match_oracle(letters, d)
        bs = sorted(partner)
        assert got.b_indices.tolist() == bs
        assert got.a_indices.tolist() == [partner[b] for b in bs]
        assert got.rounds.tolist() == [rounds[b] for b in bs]
        assert dealt_slots(got, 0, len(letters)).tolist() == \
            [slots[b] for b in bs]
        assert got.unmatched.tolist() == unmatched

    @given(st.text(alphabet="ab", max_size=80), st.integers(1, 12),
           st.integers(1, 5), st.integers(1, 30), st.text(alphabet="b",
                                                          max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_last_busy_period_open_at_the_edge(self, head, d, a_count,
                                               extra, tail):
        # more b's than the closing a's can take: the stack is not empty
        # after the last a, so its runs are among the unmatched b's
        letters = head + "b" * (a_count * d + extra) + "a" * a_count + tail
        z = from_letters(-3, letters)
        assert stack_heights(z, d)[-1] > 0
        got = meshalkin_match(z, d)
        assert_same_runs(got, full_scan_match(z, d))
        assert got.unmatched.min() < got.a_positions[-1]
        assert got.unmatched.tolist() == [
            i - 3 for i in match_oracle(letters, d)[3]]

    @pytest.mark.parametrize("scale", [1, 2])
    def test_good_block_sequence_of_iid(self, scale):
        # the offset-0 good blocks of iid:0.3 at 2e5 sit near the critical
        # load at d = required_d(q); halving d makes long busy periods
        span = (0, 2 * 10 ** 5 - 1)
        m = iid_binary(0.3)
        z = good_block_sequence(sample_window(m, span, SeedStream(7)))
        d = required_d(good_prob_lower(m.block(0, span[1] + 8), span))
        d //= scale
        heights = np.array(stack_heights(z, d))
        assert (heights > 0).mean() > 0.05
        assert_same_runs(meshalkin_match(z, d), full_scan_match(z, d))


def hand_built(b, a, unmatched=()) -> MatchingAssignment:
    return from_pairs(2, b, a, np.ones(len(b)), unmatched)


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

    def test_valid_runs(self):
        # "bbbaba" at d = 2: the a at 3 takes 2 and 1, and the a at 5 takes
        # 4 in round 1, then 0 in round 3, so it has two runs
        want = from_runs(2, [0, 1, 4], [1, 2, 1], [1, 0, 1], [3, 5],
                         tops=[3, 3, 5])
        want.check_capacity()
        assert_same_runs(meshalkin_match(from_letters(0, "bbbaba"), 2), want)

    @pytest.mark.parametrize("starts,lengths,ranks,message", [
        # two runs that overlap at 1
        ([0, 1], [2, 1], [0, 0], "matched twice"),
        # a run that reaches its own a at 2
        ([0], [3], [0], "on its left"),
        # one a's two runs, 2 + 2 b's at d = 3
        ([0, 3], [2, 2], [1, 1], "capacity"),
        ([0, 1], [1, 0], [1, 1], "holds no b"),
    ])
    def test_rejects_runs(self, starts, lengths, ranks, message):
        # a's at 2 and 6, capacity 3
        assignment = from_runs(3, starts, lengths, ranks, [2, 6])
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
            assert dealt_slots(assignment, start, len(isa)).tolist() == \
                slots_oracle(b, a)
            a_positions = assignment.a_positions
            assert a_positions.tolist() == (np.flatnonzero(isa)
                                            + start).tolist()
            partner = match_oracle("".join(np.where(isa, "a", "b")), d)[0]
            assert (a_positions[ranks_of(assignment)] - start).tolist() == \
                [partner[x] for x in sorted(partner)], trial

    @given(st.text(alphabet="ab", max_size=80), st.integers(1, 12),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_largest_slot_is_the_largest_kept_partner_count(self, letters,
                                                            d, data):
        assignment = meshalkin_match(from_letters(-4, letters), d)
        K = len(assignment.a_positions)
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=K,
                                           max_size=K)), dtype=bool)
        kept = set(assignment.a_positions[keep].tolist())
        partners = Counter(a for b, a in zip(assignment.b_indices.tolist(),
                                             assignment.a_indices.tolist())
                           if a in kept)
        assert assignment.largest_slot(keep) == \
            max(partners.values(), default=0)
        assert assignment.largest_slot(np.zeros(K, dtype=bool)) == 0

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
            hand_out(assignment, -1.0, every_slot(tuples), out, start)
            b = assignment.b_indices.tolist()
            a_of_b = assignment.a_indices.tolist()
            rank = {x: k for k, x in enumerate(a.tolist())}
            want = np.full(len(isa), np.nan)
            want[a - start] = (d + 1) * np.arange(len(a))
            for j, x, slot in zip(b, a_of_b, slots_oracle(b, a_of_b)):
                want[j - start] = (d + 1) * rank[x] + slot
            np.testing.assert_array_equal(out, want, err_msg=str(trial))

    @pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
    def test_hand_out_in_chunks_keeps_a_subset(self, chunk):
        # a tuple left out by ``keep`` writes neither its a nor its
        # partners, so dealing the kept tuples ``chunk`` ranks a call
        # gives what one call does
        rng = np.random.default_rng(9)
        for trial in range(100):
            start = int(rng.integers(-50, 50))
            isa = rng.random(int(rng.integers(1, 200))) < \
                rng.uniform(0.05, 0.6)
            d = int(rng.integers(1, 8))
            assignment = meshalkin_match(Window(start, isa), d)
            a = assignment.a_positions
            tuples = rng.random((len(a), d + 1))
            keep = rng.random(len(a)) < 0.7
            out = np.full(len(isa), np.nan)
            for lo in range(0, len(a), chunk):
                part = keep.copy()
                part[:lo] = part[lo + chunk:] = False
                hand_out(assignment, -1.0, every_slot(tuples), out, start,
                         part)
            b, ranks = assignment.b_indices, ranks_of(assignment)
            dealt = keep[ranks]
            want = np.full(len(isa), np.nan)
            want[a[keep] - start] = tuples[keep, 0]
            want[b[dealt] - start] = tuples[ranks[dealt],
                                            slots_of(assignment)[dealt]]
            np.testing.assert_array_equal(out, want, err_msg=str(trial))

    def test_hand_out_fills_around_few_triples(self):
        # the fill goes to every dealt a and b, and a value to each triple
        # whose slot is dealt, however many or few triples there are
        rng = np.random.default_rng(10)
        for trial in range(200):
            start = int(rng.integers(-50, 50))
            isa = rng.random(int(rng.integers(0, 300))) < \
                rng.uniform(0.02, 0.6)
            d = int(rng.integers(1, 12))
            assignment = meshalkin_match(Window(start, isa), d)
            a = assignment.a_positions
            tuples = (rng.random((len(a), d + 1)) > 0.2).astype(np.int8)
            keep = rng.random(len(a)) < 0.8
            ranks, slots = np.nonzero(tuples == 0)
            out = np.full(len(isa), -1, dtype=np.int8)
            hand_out(assignment, 1, (ranks, slots, 0), out, start, keep)
            want = np.full(len(isa), -1, dtype=np.int8)
            hand_out(assignment, 1, every_slot(tuples), want, start, keep)
            np.testing.assert_array_equal(out, want, err_msg=str(trial))
            dealt = keep[ranks_of(assignment)]
            assert (out >= 0).sum() == keep.sum() + dealt.sum()

    def test_keys_do_not_wrap_at_a_huge_capacity(self):
        # K (d+1) >= 2^63: a key rank * (d+1) + slot would wrap int64, but
        # the keys count the dealt slots, so each value still lands on the
        # b that holds its slot
        d = 2 ** 62
        z = from_letters(5, "bbbabbab" * 3 + "bba")
        assignment = meshalkin_match(z, d)
        K = len(assignment.a_positions)
        assert K * (d + 1) >= 2 ** 63
        ranks, slots = ranks_of(assignment), slots_of(assignment)
        values = np.arange(len(ranks), dtype=float)
        out = np.full(len(z.values), np.nan)
        hand_out(assignment, -1.0, (ranks, slots, values), out, 5)
        np.testing.assert_array_equal(out[assignment.b_indices - 5], values)
        np.testing.assert_array_equal(out[assignment.a_positions - 5], -1.0)

    def test_unknown_a_index(self):
        # hand_out refuses a rank that names no a, and writes nothing
        assignment = meshalkin_match(from_letters(0, "bba" * 4), 2)
        assert len(assignment.a_positions) == 4
        out = np.full(12, -1, dtype=np.int8)
        for k in (-1, 4, 5):
            with pytest.raises(AssertionError, match="rank names none of "
                               "the 4 a's"):
                hand_out(assignment, 1, ([0, k], [0, 1], 0), out, 0)
        assert (out == -1).all()

    def test_slot_beyond_the_capacity_is_refused(self):
        assignment = meshalkin_match(from_letters(0, "bba" * 4), 2)
        out = np.full(12, -1, dtype=np.int8)
        for slot in (-1, 3):
            with pytest.raises(AssertionError,
                               match=r"slot lies outside 0 \.\. 2$"):
                hand_out(assignment, 1, ([0, 1], [1, slot], 0), out, 0)
        assert (out == -1).all()


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
        # on the interior, averaged over seeds 0..31, decreases as the
        # window grows (means ~0.2, ~0.07, ~0.03; one seed's chain can
        # stall, as a window with no censored b does)
        m = iid_binary(0.5)
        d = required_d(1 / 128)
        assert d == 1024
        means = []
        for N in (10 ** 4, 10 ** 5, 4 * 10 ** 5):
            fracs = []
            for seed in range(32):
                w = sample_window(m, (0, N - 1), SeedStream(seed))
                z = good_block_sequence(w)
                assignment = meshalkin_match(z, d)
                lo, hi = N // 6, 5 * N // 6
                inner = [b for b in assignment.unmatched if lo <= b < hi]
                n_b = int((~z.values[lo:hi]).sum())
                fracs.append(len(inner) / n_b)
            means.append(np.mean(fracs))
        assert means[0] > means[1] > means[2]
        assert means[2] < 0.05
