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
stack of runs of unmatched b's; ``rounds`` still reports the round of the
inductive scheme in which each b is matched.  The same scan hands out the
tuple slots: an a's partners take slots 1, 2, ... of its coded tuple in
ascending b order, and each row carries the rank of its a among the
sequence's a's, which is the row of that a's tuple; ``hand_out`` deals
the tuples out by those pairs.  The test suite checks the scan against a
literal simulation of the rounds and the slots against a per-a counter.

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


@dataclass(frozen=True)
class MatchingAssignment:
    """Capacity-bounded map from b-indices to a-indices.

    ``a_positions`` lists the sequence's a-indices in ascending order.
    ``b_indices[i]`` is matched to the a ``a_positions[ranks[i]]`` in round
    ``rounds[i]`` and takes slot ``slots[i]`` of that a's tuple (slot 0 is
    the a's own), so ``ranks`` is the row of the a's tuple; rows come in
    ascending b order.  ``unmatched`` lists the censored b-indices.  All
    indices are absolute.
    """

    d: int
    b_indices: np.ndarray
    ranks: np.ndarray
    a_positions: np.ndarray
    rounds: np.ndarray
    slots: np.ndarray
    unmatched: np.ndarray

    @property
    def a_indices(self) -> np.ndarray:
        return self.a_positions[self.ranks]

    def check_capacity(self) -> None:
        b, ranks, slots = self.b_indices, self.ranks, self.slots
        if np.any(b[1:] <= b[:-1]):
            raise AssertionError(
                "a b was matched twice, or rows are not in ascending b order")
        if len(b):
            # a negative rank would wrap silently in a_positions[ranks]
            if ranks.min() < 0 or ranks.max() >= len(self.a_positions):
                raise AssertionError("a rank outside the a-positions")
            if np.any(self.a_indices <= b):
                raise AssertionError("a b was matched to an a on its left")
            at = np.searchsorted(b, self.unmatched).clip(max=len(b) - 1)
            if np.any(b[at] == self.unmatched):
                raise AssertionError("a b is both matched and unmatched")
            if np.bincount(ranks).max() > self.d:
                raise AssertionError("an a exceeded its capacity")
        if len(slots) and (slots.min() < 1 or slots.max() > self.d):
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
    a's tuple.  The unmatched b's are read off the scan too: the runs left
    on the stack, then the tail after the last a; the matched b's are the
    rest.  The assignment passes ``check_capacity`` before it is returned.
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
    gaps = ends[:, 1] - ends[:, 0]
    unmatched = (np.arange(gaps.sum(), dtype=np.int64)
                 + np.repeat(ends[:, 0] - (np.cumsum(gaps) - gaps), gaps))
    isb = ~isa
    isb[unmatched] = False
    b = np.flatnonzero(isb)

    los, his, tops, ranks, taken = (np.array(x, dtype=np.int64)
                                    for x in (los, his, tops, ranks, taken))
    lens = his - los
    # an a's slices are consecutive and its last one ends at its total m,
    # so the b at j of a slice takes slot j + offset
    last = np.searchsorted(ranks, ranks, side="right") - 1
    offsets = (taken + lens)[last] - taken - his + 1
    # the slices are disjoint, so ordering them by lo orders the b's
    order = np.argsort(los)
    lens, tops, ranks, offsets = (
        x[order] for x in (lens, tops, ranks, offsets))
    rounds = np.repeat(tops, lens)
    rounds -= b
    slots = np.repeat(offsets, lens)
    slots += b
    b += z.start
    assignment = MatchingAssignment(
        d=d,
        b_indices=b,
        ranks=np.repeat(ranks, lens),
        a_positions=a_pos + z.start,
        rounds=rounds,
        slots=slots,
        unmatched=unmatched + z.start,
    )
    assignment.check_capacity()
    return assignment


def hand_out(assignment: MatchingAssignment, tuples: np.ndarray,
             out: np.ndarray, start: int) -> None:
    """Deal each a's tuple out over ``out``, whose first entry is at the
    absolute index ``start``: the a of rank k keeps ``tuples[k, 0]``, and
    each of its partners takes ``tuples[k, slot]`` for the slot the scan
    gave it, read with one flat ``take`` at rank * width + slot.  This is
    the only reader of the (rank, slot) pairs.  It refuses tuples too
    narrow for the capacity and a tuple count other than the a count."""
    width = tuples.shape[1]
    if assignment.d > width - 1:
        raise AssertionError("matching capacity exceeds tuple width - 1")
    a_pos = assignment.a_positions
    if len(tuples) != len(a_pos):
        raise AssertionError(f"{len(tuples)} tuples for {len(a_pos)} a's")
    out[a_pos - start] = tuples[:, 0]
    flat = assignment.ranks * width
    flat += assignment.slots
    out[assignment.b_indices - start] = tuples.reshape(-1).take(flat)


def dominates(z: Window, z2: Window) -> bool:
    """True iff z2 dominates z: every a of z is an a of z2 (same range)."""
    if z.span != z2.span:
        raise ValueError("sequences must share an index range")
    return bool(np.all(~z.values | z2.values))
