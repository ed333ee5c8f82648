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
sequence's a's (the row of that a's tuple), and the round top from which
each of its b's reads the round of the inductive scheme in which it is
matched.  The stack's height after each a follows Lindley's queue
recursion, computed for all a's at once; an a that finds the stack empty
and leaves it empty is idle and takes exactly its own gap, so the scan's
loop visits only the busy periods.  An a's partners take slots 1, 2, ...
of its coded tuple in ascending b order, so a b's slot follows from its
a's runs alone: ``hand_out`` counts them off in rank order as it deals
the tuples out from (rank, slot, value) triples over a fill.  The per-b
columns are expanded from the runs on request, a chunk of rows at a time
(``row_chunks``), so no command holds one for the whole window.  The
test suite checks
the scan against the full scan over every a, a literal simulation of the
rounds, and the dealt slots against a per-a counter.

The walk criterion gives an independent characterization: weight b-sites
-1 and a-sites +d; a b at m resolves exactly when the running sum of
weights from m first becomes nonnegative.  The two routes are compared
exhaustively in the test suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .sampling import Window

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
    the row of that a's tuple, and the b at j is matched in round
    ``run_tops[i] - j``.  Runs come in ascending start order, so an a's
    runs list its partners in ascending b order, and these take slots
    1, 2, ... of its tuple (slot 0 is the a's own).
    ``unmatched`` lists the censored b-indices.  All indices are absolute.

    ``b_indices``, ``a_indices`` and ``rounds`` expand the runs into one
    row per matched b, in ascending b order; ``row_chunks`` hands them out
    a chunk of rows at a time.
    """

    d: int
    a_positions: np.ndarray
    unmatched: np.ndarray
    run_starts: np.ndarray
    run_lengths: np.ndarray
    run_ranks: np.ndarray
    run_tops: np.ndarray

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

    def row_chunks(self, rows: int):
        """The matched b's ``rows`` at a time, in ascending b order: each
        chunk is the assignment of the runs that cover its rows, the first
        and the last trimmed to them, with no unmatched b's, so its
        ``b_indices``, ``a_indices`` and ``rounds`` are those rows of this
        assignment's.  A run's trimmed b's keep their a and their rounds,
        since a b's round is its run's top minus its index."""
        ends = np.cumsum(self.run_lengths)     # one row past each run
        total = int(ends[-1]) if len(ends) else 0
        for i in range(0, total, rows):
            j = min(i + rows, total)
            lo = int(np.searchsorted(ends, i, side="right"))
            hi = int(np.searchsorted(ends, j, side="left")) + 1
            starts = self.run_starts[lo:hi].copy()
            lens = self.run_lengths[lo:hi].copy()
            cut = i - (ends[lo] - lens[0])     # rows of run lo before i
            starts[0] += cut
            lens[0] -= cut
            lens[-1] -= ends[hi - 1] - j
            yield replace(self, unmatched=self.unmatched[:0],
                          run_starts=starts, run_lengths=lens,
                          run_ranks=self.run_ranks[lo:hi],
                          run_tops=self.run_tops[lo:hi])

    def largest_slot(self, keep: np.ndarray) -> int:
        """The largest slot dealt to a rank the bool mask ``keep`` marks,
        which is the largest partner count of those a's; 0 if none has a
        partner."""
        kept = keep[self.run_ranks]
        counts = np.bincount(self.run_ranks[kept],
                             weights=self.run_lengths[kept])
        return int(counts.max()) if len(counts) else 0

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


def required_d(q: float) -> int:
    """Least integer capacity >= 8(1 + (1-q)/q) = 8/q."""
    v = 8.0 / q if q > 0 else math.inf
    if not math.isfinite(v):
        raise ValueError(f"q = {q!r} gives no finite capacity 8/q")
    r = round(v)
    return r if math.isclose(v, r, rel_tol=0, abs_tol=1e-9) else math.ceil(v)


def meshalkin_match(z: Window, d: int) -> MatchingAssignment:
    """Match as brackets in one left-to-right scan over the busy periods.

    The stack holds runs ``[lo, hi, carry]`` of unmatched b's, nearest on
    top; ``carry`` is the largest round matched between the run and what
    sits above it.  An a takes up to d b's off the top, nearest first.  A
    run's top b meets the a once everything above it has left, so its
    round is one past the larger of the run's carry and the a's last
    round, and each further b of the run comes one round later.  These
    are the rounds of the inductive scheme, b for b.

    A b's rank is its a's rank among the a's, which is the row of that
    a's tuple.  Each slice is one run of the assignment.

    The stack's height after the a of rank r is Lindley's queue recursion
    S_r = max(0, S_{r-1} + g_r - d), g_r the b's between the a's of ranks
    r - 1 and r, so all heights come at once from W = cumsum(g - d) as
    W - min(0, cummin W).  An a with S_{r-1} = S_r = 0 is idle: it finds
    an empty stack and takes its whole gap, in rounds 1 .. g_r, as one
    run.  The stack loop runs only over the other a's, the busy periods,
    each of which starts and ends on an empty stack.
    The unmatched b's are read off the scan too: the runs left on the
    stack (a last busy period still open at the window's end), then the
    tail after the last a.  The assignment passes ``check_capacity``
    before it is returned.
    """
    if d < 1:
        raise ValueError("capacity d must be positive")
    isa = z.values
    a_pos = np.flatnonzero(isa)
    prevs = np.concatenate(([-1], a_pos))[:-1]
    gaps = a_pos - prevs - 1
    # a capacity beyond the b count acts as that count, since no stack
    # holds more, so |W| stays below n^2 and d may exceed int64
    cap = min(d, len(isa) - len(a_pos))
    walk = np.cumsum(gaps - cap)
    height = walk - np.minimum(np.minimum.accumulate(walk), 0)
    idle = height == 0
    idle[1:] &= height[:-1] == 0
    # an idle a's run is its gap [prev + 1, a), with top a
    ranks0 = np.flatnonzero(idle & (gaps > 0))
    los0, his0 = prevs[ranks0] + 1, a_pos[ranks0]

    stack: list[list[int]] = []
    # one row per slice [lo, hi) a busy a of rank r takes from a run:
    # its b at j is matched to that a in round ``top - j``
    los, his, tops, ranks = [], [], [], []
    busy = np.flatnonzero(~idle)
    for r, a, prev in zip(busy.tolist(), a_pos[busy].tolist(),
                          prevs[busy].tolist()):
        if a > prev + 1:
            stack.append([prev + 1, a, 0])
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
    last_a = int(a_pos[-1]) if len(a_pos) else -1
    ends = np.array([run[:2] for run in stack] + [[last_a + 1, len(isa)]],
                    dtype=np.int64)
    unmatched = _ranges(ends[:, 0], ends[:, 1] - ends[:, 0])

    los, his, tops, ranks = (np.array(x, dtype=np.int64)
                             for x in (los, his, tops, ranks))
    los, lens, tops, ranks = (np.concatenate(pair) for pair in (
        (los0, los), (his0 - los0, his - los), (his0, tops), (ranks0, ranks)))
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
    )
    assignment.check_capacity()
    return assignment


def hand_out(assignment: MatchingAssignment, fill, triples, out: np.ndarray,
             start: int, keep: np.ndarray | None = None) -> None:
    """Deal each a's tuple out over ``out``, whose first entry is at the
    absolute index ``start``.  Every tuple is ``fill`` but at the
    ``triples``, three equal-length arrays ``(ranks, slots, values)``
    (``values`` may be a scalar): slot s of the tuple of the a of rank k
    holds the value of a triple (k, s).  The a keeps slot 0 and its
    partners take slots 1, 2, ... in ascending b order.

    ``fill`` goes first, at every dealt a and b, through one bool mask
    that ``np.repeat`` builds from the alternating gaps and dealt
    segments.  Then each triple's value goes where its slot is dealt:
    slot 0 to its a, and a slot s >= 1 of rank k, if that a has an s-th
    partner, to that partner.  An a's runs, in start order, deal its
    slots 1, 2, ... in order, so with the runs sorted by (rank, start)
    the slots of all a's line up one after another: slot s of rank k is
    entry ``first[k] + s - 1`` of that line, ``first[k]`` the b's the a's
    of lower rank take, and the run that holds it is found by
    ``searchsorted``.  These keys stay below the matched b count, whatever
    d is.  ``keep``, a bool mask over the ranks, deals only the tuples it
    marks.  A triple whose rank names no a or whose slot lies outside
    0 .. d is refused before anything is written."""
    a_pos = assignment.a_positions
    ranks, slots = (np.asarray(x, dtype=np.int64) for x in triples[:2])
    values = np.broadcast_to(triples[2], ranks.shape)
    if len(ranks) and (ranks.min() < 0 or ranks.max() >= len(a_pos)):
        raise AssertionError(f"a triple's rank names none of the "
                             f"{len(a_pos)} a's")
    if len(slots) and (slots.min() < 0 or slots.max() > assignment.d):
        raise AssertionError(f"a triple's slot lies outside 0 .. "
                             f"{assignment.d}")
    firsts, lens = assignment.run_starts, assignment.run_lengths
    run_ranks, heads = assignment.run_ranks, a_pos
    if keep is not None:
        kept = keep[run_ranks]
        firsts, lens, run_ranks = firsts[kept], lens[kept], run_ranks[kept]
        heads = a_pos[keep]
        dealt = keep[ranks]
        ranks, slots, values = ranks[dealt], slots[dealt], values[dealt]

    # the dealt segments, a's and runs, in position order; their edges
    # cut out into alternating gaps and segments
    seg_starts = np.concatenate((heads, firsts)) - start
    order = np.argsort(seg_starts)
    seg_ends = seg_starts + np.concatenate((np.ones(len(heads), np.int64),
                                            lens))
    edges = np.column_stack((seg_starts[order], seg_ends[order])).ravel()
    counts = np.diff(edges, prepend=0, append=len(out))
    np.copyto(out, fill, where=np.repeat(np.arange(len(counts)) % 2 == 1,
                                         counts))

    at = slots == 0
    out[a_pos[ranks[at]] - start] = values[at]
    # runs by rank, then start: runs are in start order and the sort is
    # stable.  line[i] is the key of the first slot of run i
    by_rank = np.argsort(run_ranks, kind="stable")
    run_ranks, firsts = run_ranks[by_rank], firsts[by_rank]
    line = np.concatenate(([0], np.cumsum(lens[by_rank])))
    ranks, slots, values = ranks[~at], slots[~at], values[~at]
    lo = line[np.searchsorted(run_ranks, ranks, side="left")]
    hi = line[np.searchsorted(run_ranks, ranks, side="right")]
    keys = lo + slots - 1
    has = keys < hi
    keys = keys[has]
    run = np.searchsorted(line, keys, side="right") - 1
    out[firsts[run] + keys - line[run] - start] = values[has]


def dominates(z: Window, z2: Window) -> bool:
    """True iff z2 dominates z: every a of z is an a of z2 (same range)."""
    if z.span != z2.span:
        raise ValueError("sequences must share an index range")
    return bool(np.all(~z.values | z2.values))
