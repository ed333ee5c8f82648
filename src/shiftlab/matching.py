"""Shift-equivariant Meshalkin matching of b's to a's.

The inductive scheme runs in rounds: in each round every surviving b
immediately followed (among survivors) by a surviving a is matched to it;
matched b's leave, and a's that have reached their capacity d leave.
Rounds repeat until nothing matches.  Within a finite window a b that is
still unmatched at the fixpoint is censored (its resolution may depend on
symbols beyond the edge), not failed.  An {a, b} sequence, such as
``markers.special_sequence``, is a ``Window`` of bools, True at the a's.

The scheme is bracket matching, with each b a "(" and each a d copies of
")", so ``meshalkin_match`` computes it in one left-to-right scan over a
stack of runs of unmatched b's.  An a takes its partners off that stack
as runs of consecutive b's, and the assignment is those runs: one row
per run, with its first b, its length, the rank of its a among the
sequence's a's (the row of that a's tuple), and the round top and slot
offset from which each of its b's reads the round of the inductive
scheme in which it is matched and its slot.  An a's partners take slots
1, 2, ... of its coded tuple in ascending b order, and ``hand_out``
deals the tuples out run by run.  The per-b columns are expanded from
the runs on request.  The test suite checks the scan against a literal
simulation of the rounds and the slots against a per-a counter.

The walk criterion gives an independent characterization: weight b-sites
-1 and a-sites +d; a b at m resolves exactly when the running sum of
weights from m first becomes nonnegative.  The two routes are compared
exhaustively in the test suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sampling import Window

# the b's whose index arrays ``hand_out`` builds at a time
HAND_OUT_CHUNK = 1 << 16


def _ranges(firsts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges firsts[i], ..., firsts[i] + lengths[i] - 1, one after
    another in one int64 array."""
    out = np.repeat(firsts - np.cumsum(lengths) + lengths, lengths)
    out += np.arange(len(out))
    return out


@dataclass(frozen=True)
class MatchingAssignment:
    """Capacity-bounded map from b-indices to a-indices, held as runs.

    ``a_positions`` lists the sequence's a-indices in ascending order.  Run
    i is the ``run_lengths[i]`` consecutive b's from ``run_starts[i]`` on,
    all matched to the a ``a_positions[run_ranks[i]]``, so ``run_ranks`` is
    the row of that a's tuple; the b at j is matched in round
    ``run_tops[i] - j`` and takes slot ``j + run_offsets[i]`` of the tuple
    (slot 0 is the a's own).  Runs come in ascending start order.
    ``unmatched`` lists the censored b-indices.  All indices are absolute.

    ``b_indices``, ``a_indices`` and ``rounds`` expand the runs into one
    row per matched b, in ascending b order.
    """

    d: int
    a_positions: np.ndarray
    unmatched: np.ndarray
    run_starts: np.ndarray
    run_lengths: np.ndarray
    run_ranks: np.ndarray
    run_tops: np.ndarray
    run_offsets: np.ndarray

    @property
    def b_indices(self) -> np.ndarray:
        return _ranges(self.run_starts, self.run_lengths)

    @property
    def a_indices(self) -> np.ndarray:
        return np.repeat(self.a_positions[self.run_ranks], self.run_lengths)

    @property
    def rounds(self) -> np.ndarray:
        # the b at j has round top - j, so a run's rounds count down by
        # one from top - start
        rounds = _ranges(self.run_starts - self.run_tops, self.run_lengths)
        return np.negative(rounds, out=rounds)

    def check_capacity(self) -> None:
        starts, lens, ranks = self.run_starts, self.run_lengths, self.run_ranks
        if not len(lens):
            return
        if lens.min() < 1:
            raise AssertionError("a run holds no b")
        ends = starts + lens
        if np.any(starts[1:] < ends[:-1]):
            raise AssertionError(
                "a b was matched twice, or rows are not in ascending b order")
        # a negative rank would wrap silently in a_positions[ranks]
        if ranks.min() < 0 or ranks.max() >= len(self.a_positions):
            raise AssertionError("a rank outside the a-positions")
        if np.any(self.a_positions[ranks] < ends):
            raise AssertionError("a b was matched to an a on its left")
        at = np.searchsorted(starts, self.unmatched, side="right") - 1
        if np.any((self.unmatched < ends[at])[at >= 0]):
            raise AssertionError("a b is both matched and unmatched")
        if np.bincount(ranks, weights=lens).max() > self.d:
            raise AssertionError("an a exceeded its capacity")
        first = starts + self.run_offsets
        if first.min() < 1 or (first + lens - 1).max() > self.d:
            raise AssertionError("tuple exhaustion: a slot outside 1..d")


def required_d(q: float) -> int:
    """Least integer capacity >= 8(1 + (1-q)/q) = 8/q."""
    v = 8.0 / q if q > 0 else math.inf
    if not math.isfinite(v):
        raise ValueError(f"q = {q!r} gives no finite capacity 8/q")
    r = round(v)
    return r if math.isclose(v, r, rel_tol=0, abs_tol=1e-9) else math.ceil(v)


def meshalkin_match(z: Window, d: int) -> MatchingAssignment:
    """Match as brackets in one left-to-right scan.

    The stack holds runs ``[lo, hi, carry]`` of unmatched b's, nearest on
    top; ``carry`` is the largest round matched between the run and what
    sits above it.  An a takes up to d b's off the top, nearest first.  A
    run's top b meets the a once everything above it has left, so its
    round is one past the larger of the run's carry and the a's last
    round, and each further b of the run comes one round later.  These
    are the rounds of the inductive scheme, b for b.

    The b's an a takes nearest first are its partners in descending b
    order, so once the scan knows an a's total m, a b at j in a slice
    [lo, hi) taken after ``taken`` others gets slot m - taken - (hi-1-j).
    A b's rank is the loop counter over the a's, which is the row of its
    a's tuple.  Each slice is one run of the assignment.  The unmatched
    b's are read off the scan too: the runs left on the stack, then the
    tail after the last a.  The assignment passes ``check_capacity``
    before it is returned.
    """
    if d < 1:
        raise ValueError("capacity d must be positive")
    isa = z.values
    stack: list[list[int]] = []
    a_pos = np.flatnonzero(isa)
    # one row per slice [lo, hi) the a of rank r takes from a run, after
    # ``taken`` b's: its b at j is matched to that a in round ``top - j``
    los, his, tops, ranks, taken = [], [], [], [], []
    prev = -1
    for r, a in enumerate(a_pos.tolist()):
        if a > prev + 1:
            stack.append([prev + 1, a, 0])
        prev = a
        need, base = d, 0
        while need and stack:
            run = stack[-1]
            lo, hi, carry = run
            base = max(base, carry)
            k = min(need, hi - lo)
            los.append(hi - k)
            his.append(hi)
            tops.append(base + hi)
            ranks.append(r)
            taken.append(d - need)
            base += k
            need -= k
            if k < hi - lo:
                run[1] = hi - k
            else:
                stack.pop()
        if stack:
            stack[-1][2] = max(stack[-1][2], base)

    # the unmatched b's: the runs left on the stack, then the tail after
    # the last a, in ascending order
    ends = np.array([run[:2] for run in stack] + [[prev + 1, len(isa)]],
                    dtype=np.int64)
    unmatched = _ranges(ends[:, 0], ends[:, 1] - ends[:, 0])

    los, his, tops, ranks, taken = (np.array(x, dtype=np.int64)
                                    for x in (los, his, tops, ranks, taken))
    lens = his - los
    # an a's slices are consecutive and its last one ends at its total m,
    # so the b at j of a slice takes slot j + offset
    last = np.searchsorted(ranks, ranks, side="right") - 1
    offsets = (taken + lens)[last] - taken - his + 1
    # the slices are disjoint, so ordering them by lo orders the b's
    order = np.argsort(los)
    assignment = MatchingAssignment(
        d=d,
        a_positions=a_pos + z.start,
        unmatched=unmatched + z.start,
        run_starts=los[order] + z.start,
        run_lengths=lens[order],
        run_ranks=ranks[order],
        run_tops=tops[order] + z.start,
        run_offsets=offsets[order] - z.start,
    )
    assignment.check_capacity()
    return assignment


def hand_out(assignment: MatchingAssignment, tuples: np.ndarray,
             out: np.ndarray, start: int, keep: np.ndarray | None = None
             ) -> None:
    """Deal each a's tuple out over ``out``, whose first entry is at the
    absolute index ``start``: the a of rank k keeps ``tuples[k, 0]``, and
    the b at j of a run of that a takes ``tuples[k, j + offset]``, the
    flat entry k * width + offset + j.  So a run copies a range of the
    flat tuples into a range of ``out``, with index arrays built for the
    runs that start in one block of ``HAND_OUT_CHUNK`` b's at a time.
    ``keep``, a bool mask over the ranks, deals only the tuples it marks.
    It refuses tuples too narrow for the capacity and a tuple count other
    than the a count."""
    width = tuples.shape[1]
    if assignment.d > width - 1:
        raise AssertionError("matching capacity exceeds tuple width - 1")
    a_pos = assignment.a_positions
    if len(tuples) != len(a_pos):
        raise AssertionError(f"{len(tuples)} tuples for {len(a_pos)} a's")
    firsts, lens = assignment.run_starts, assignment.run_lengths
    entries = assignment.run_ranks * width
    entries += assignment.run_offsets
    entries += firsts
    heads = tuples[:, 0]
    if keep is not None:
        kept = keep[assignment.run_ranks]
        a_pos, heads = a_pos[keep], heads[keep]
        firsts, lens, entries = firsts[kept], lens[kept], entries[kept]
    out[a_pos - start] = heads
    flat = tuples.reshape(-1)
    # runs i .. k-1 start in one block of HAND_OUT_CHUNK b's
    bounds = np.append(np.searchsorted(
        np.cumsum(lens) - lens, np.arange(0, lens.sum(), HAND_OUT_CHUNK)),
        len(lens))
    for i, k in zip(bounds[:-1], bounds[1:]):
        out[_ranges(firsts[i:k] - start, lens[i:k])] = \
            flat.take(_ranges(entries[i:k], lens[i:k]))


def dominates(z: Window, z2: Window) -> bool:
    """True iff z2 dominates z: every a of z is an a of z2 (same range)."""
    if z.span != z2.span:
        raise ValueError("sequences must share an index range")
    return bool(np.all(~z.values | z2.values))
