"""Shift-equivariant Meshalkin matching of b's to a's.

The scheme runs in rounds: in each round every surviving b immediately
followed (among survivors) by a surviving a is matched to it; matched b's
leave, and a's that have reached their capacity d leave.  Rounds repeat
until nothing matches.  Within a finite window a b that is still unmatched
at the fixpoint is censored (its resolution may depend on symbols beyond
the edge), not failed.

The walk criterion gives an independent characterization: weight b-sites
-1 and a-sites +d; a b at m resolves exactly when the running sum of
weights from m first becomes nonnegative.  The two routes are compared
exhaustively in the test suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .markers import MarkerDecomposition, good_intervals


@dataclass(frozen=True)
class ABSequence:
    """A finite {a, b}-valued sequence anchored at an integer index:
    ``isa[i]`` is True where index start + i holds an a."""

    start: int
    isa: np.ndarray

    def __len__(self) -> int:
        return len(self.isa)

    @classmethod
    def from_letters(cls, start: int, word: str) -> "ABSequence":
        """The sequence written in the paper's notation, e.g. "abba"."""
        if set(word) - {"a", "b"}:
            raise ValueError("word must be over {a, b}")
        isa = np.frombuffer(word.encode(), dtype=np.uint8) == ord("a")
        return cls(start, isa)


@dataclass(frozen=True)
class MatchingAssignment:
    """Capacity-bounded map from b-indices to a-indices.

    ``b_indices[i]`` is matched to ``a_indices[i]`` in round ``rounds[i]``;
    ``unmatched`` lists the censored b-indices.  All indices are absolute.
    """

    d: int
    b_indices: np.ndarray
    a_indices: np.ndarray
    rounds: np.ndarray
    unmatched: np.ndarray

    @cached_property
    def pairs(self) -> dict[int, int]:
        return {int(b): int(a) for b, a in zip(self.b_indices, self.a_indices)}

    @cached_property
    def multiplicity(self) -> dict[int, int]:
        a, cnt = np.unique(self.a_indices, return_counts=True)
        return {int(x): int(c) for x, c in zip(a, cnt)}

    def check_capacity(self) -> None:
        if np.any(np.diff(np.sort(self.b_indices)) == 0):
            raise AssertionError("a b was matched twice")
        a = self.a_indices
        if len(a) and np.bincount(a - a.min()).max() > self.d:
            raise AssertionError("an a exceeded its capacity")


def partner_slots(assignment: MatchingAssignment, a_positions: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lay the matched b's out as tuple slots of their a's.

    ``a_positions`` lists every a-index in ascending order.  Returns the
    b's, the rank of each b's a in ``a_positions`` and the b's slot: slot
    0 of each a's tuple is its own, its partners take slots 1, 2, ... in
    ascending b order.  Rows come sorted by (rank, b).
    """
    b, a = assignment.b_indices, assignment.a_indices
    rank = np.searchsorted(a_positions, a)
    if len(a) and (rank.max() >= len(a_positions)
                   or np.any(a_positions[rank] != a)):
        raise AssertionError("assignment references an unknown a-index")
    order = np.lexsort((b, rank))
    b, rank = b[order], rank[order]
    at = np.arange(len(rank))
    first = np.ones(len(rank), dtype=bool)
    first[1:] = rank[1:] != rank[:-1]
    slot = 1 + at - np.maximum.accumulate(np.where(first, at, 0))
    if np.any(slot > assignment.d):
        raise AssertionError("tuple exhaustion: more partners than bits")
    return b, rank, slot


def required_d(q: float) -> int:
    """Least integer capacity >= 8(1 + (1-q)/q) = 8/q."""
    if q <= 0:
        raise ValueError("q must be positive")
    v = 8.0 / q
    r = round(v)
    return r if math.isclose(v, r, rel_tol=0, abs_tol=1e-9) else math.ceil(v)


def meshalkin_match(z: ABSequence, d: int) -> MatchingAssignment:
    """Run matching rounds to the fixpoint (at most window-length rounds)."""
    if d < 1:
        raise ValueError("capacity d must be positive")
    isa = z.isa
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
    return MatchingAssignment(
        d=d,
        b_indices=np.flatnonzero(matched) + z.start,
        a_indices=partner[matched] + z.start,
        rounds=round_of[matched],
        unmatched=np.flatnonzero(~matched & ~isa) + z.start,
    )


def matching_radius(z: ABSequence, d: int, m: int) -> int | None:
    """Least k >= 1 with W_m + ... + W_{m+k} >= 0 for the -1/+d walk,
    or None (censored) if the window ends first."""
    isa = z.isa
    rel = m - z.start
    if not 0 <= rel < len(isa):
        raise IndexError(f"index {m} outside the sequence")
    if isa[rel]:
        raise ValueError(f"index {m} is an a, not a b")
    w = np.where(isa[rel:], d, -1).astype(np.int64)
    sums = np.cumsum(w)
    hits = np.flatnonzero(sums[1:] >= 0)
    return int(hits[0]) + 1 if len(hits) else None


def dominates(z: ABSequence, z2: ABSequence) -> bool:
    """True iff z2 dominates z: every a of z is an a of z2 (same range)."""
    if z.start != z2.start or len(z) != len(z2):
        raise ValueError("sequences must share an index range")
    return bool(np.all(~z.isa | z2.isa))


def flip_coupling(z: ABSequence, prob: float, rng: np.random.Generator) -> ABSequence:
    """Monotone coupling: flip each b of z to a independently with the given
    probability.  The result dominates z by construction."""
    isa = z.isa.copy()
    bs = np.flatnonzero(~isa)
    isa[bs[rng.random(len(bs)) < prob]] = True
    return ABSequence(z.start, isa)


def special_sequence(dec: MarkerDecomposition) -> ABSequence:
    """The {a, b} sequence the pipelines match: an a at every non-censored
    special-filler initial index of the decomposed window."""
    isa = np.zeros(dec.length, dtype=bool)
    isa[dec.special[:, 0] - dec.start] = True
    return ABSequence(dec.start, isa)


def good_block_sequence(w) -> ABSequence:
    """The sequence of Lemma 8: an a only at the positions 8n + 3 that sit
    inside a good 8-block of the offset-0 partition.  The special-filler
    sequence of the same window dominates it."""
    isa = np.zeros(len(w.values), dtype=bool)
    isa[good_intervals(w, offset=0) + 3 - w.start] = True
    return ABSequence(w.start, isa)
