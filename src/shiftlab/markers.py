"""Marker-filler combinatorics for binary windows.

A marker is an occurrence of the block 011.  Occurrences cannot overlap
(any two starts are at least 3 apart), so the indices between the first
and last marker of a window split uniquely into alternating markers and
maximal gaps (fillers).  A length-2 filler equal to 10 or 01 is special;
it carries one bit (1 for 10, 0 for 01).  An 8-block of the form
011 01 011 or 011 10 011 is "good"; the special fillers are exactly the
fourth positions of the good blocks, at any start.  Every reader of that
pattern is built from the mask ``good_starts``; ``decompose`` serves tests.

Intervals touching the window boundary are censored, never classified:
a marker or filler could straddle the edge, so edge intervals carry no
statistics.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import block_rows
from .sampling import Window

GOOD_BLOCKS = ((0, 1, 1, 0, 1, 0, 1, 1), (0, 1, 1, 1, 0, 0, 1, 1))
GOOD_WIDTH = 8


def _as_bits(values) -> np.ndarray:
    bits = np.asarray(values)
    if bits.size and not np.isin(bits, (0, 1)).all():
        raise ValueError("window is not binary")
    return bits.astype(np.uint8)


def _marker_mask(b: np.ndarray) -> np.ndarray:
    """True at each relative start 0 .. n-3 of the bits where a 011 sits."""
    return (b[:-2] == 0) & (b[1:-1] == 1) & (b[2:] == 1)


def find_marker_starts(bits) -> np.ndarray:
    """Relative start offsets of every 011 occurrence."""
    return np.flatnonzero(_marker_mask(_as_bits(bits)))


def good_starts(w) -> np.ndarray:
    """Bool mask over the window's relative starts 0 .. n-8: True where the
    8-block there is good, 011 x y 011 with x != y."""
    b = _as_bits(w.values)
    m = _marker_mask(b)
    k = max(len(b) - GOOD_WIDTH + 1, 0)
    return m[:k] & m[5:5 + k] & (b[3:3 + k] != b[4:4 + k])


@dataclass(frozen=True)
class MarkerDecomposition:
    """Partition of a window into markers, fillers and censored edges.

    ``markers``, ``fillers`` and ``censored`` are int64 arrays of shape
    (k, 2), one inclusive (lo, hi) pair of absolute indices per row, in
    index order.  ``special`` is an int64 array of shape (s, 2) holding
    (initial index, bit) for the length-2 fillers 10 and 01.
    ``boundary_flags`` = (left, right) marks whether the corresponding edge
    interval was censored (nonempty and unclassifiable).
    """

    start: int
    length: int
    markers: np.ndarray
    fillers: np.ndarray
    special: np.ndarray
    boundary_flags: tuple[bool, bool]
    censored: np.ndarray


def decompose(w) -> MarkerDecomposition:
    """Locate markers, interior fillers and special fillers of a window."""
    bits = _as_bits(w.values)
    start = w.start
    n = len(bits)
    lo = find_marker_starts(bits) + start
    if len(lo) == 0:
        none = np.empty((0, 2), dtype=np.int64)
        censored = np.array([(start, start + n - 1)] if n else [],
                            dtype=np.int64).reshape(-1, 2)
        return MarkerDecomposition(start, n, none, none, none, (True, True),
                                   censored)

    # the gap after each marker but the last, dropped when empty
    gaps = np.column_stack((lo[:-1] + 3, lo[1:] - 1))
    fillers = gaps[gaps[:, 1] >= gaps[:, 0]]
    # a special filler starts 3 into a good block; its bit is its first symbol
    two = np.flatnonzero(good_starts(w)) + 3
    special = np.column_stack((two + start, bits[two]))

    edges = np.array([(start, lo[0] - 1), (lo[-1] + 3, start + n - 1)])
    nonempty = edges[:, 1] >= edges[:, 0]
    return MarkerDecomposition(start, n, np.column_stack((lo, lo + 2)),
                               fillers, special, tuple(nonempty.tolist()),
                               edges[nonempty])


def good_intervals(w, offset: int = 0) -> np.ndarray:
    """Starts 8n + offset, fully inside the window, whose 8 symbols form
    one of the two good blocks, as an int64 array."""
    first = (offset - w.start) % 8
    return np.flatnonzero(good_starts(w)[first::8]) * 8 + (w.start + first)


def special_sequence(w) -> Window:
    """The {a, b} sequence the pipelines match, a ``Window`` of bools: an a
    at every special filler's initial index, 3 past a good block's start."""
    good = good_starts(w)
    isa = np.zeros(len(w.values), dtype=bool)
    isa[3:len(good) + 3] = good
    return Window(w.start, isa)


def good_block_sequence(w) -> Window:
    """The sequence of Lemma 8: the a's of the special sequence at 8n + 3,
    inside the good blocks of the offset-0 partition, so it is dominated."""
    isa = np.zeros(len(w.values), dtype=bool)
    isa[good_intervals(w) + 3 - w.start] = True
    return Window(w.start, isa)


def good_prob_lower(p: np.ndarray, lo: int, span: tuple[int, int]) -> float:
    """Infimum over the block starts in ``span`` of the exact probability
    that the 8-block there is good, from a marginal block whose row 0 is
    index ``lo``; a non-binary block, or a zero mass at a start (no Doeblin
    bound), is refused."""
    if p.shape[1] != 2:
        raise ValueError(f"good blocks need a two-symbol alphabet, not "
                         f"{p.shape[1]} symbols")
    first, last = span
    n = last - first + 1
    rows = block_rows(p, lo, first, last + GOOD_WIDTH - 1)
    # one contiguous copy per symbol, so each factor is a unit-stride slice
    cols = [c.copy() for c in rows.T]
    zero = np.flatnonzero((cols[0][:n] <= 0.0) | (cols[1][:n] <= 0.0))
    if len(zero):
        raise ValueError("measure violates the Doeblin condition at index "
                         f"{first + int(zero[0])}")
    q = np.zeros(n)
    for g in GOOD_BLOCKS:
        prod = np.ones(n)
        for j, sym in enumerate(g):
            prod *= cols[sym][j:j + n]
        q += prod
    return float(q.min())
