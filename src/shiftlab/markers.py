"""The good 8-blocks of binary windows and the {a, b} sequences read off them.

A marker is an occurrence of the block 011.  Occurrences cannot overlap
(any two starts are at least 3 apart), so the indices between the first
and last marker of a window split uniquely into alternating markers and
maximal gaps (fillers).  A length-2 filler equal to 10 or 01 is special;
it carries one bit (1 for 10, 0 for 01).  An 8-block of the form
011 01 011 or 011 10 011 is "good"; the special fillers are exactly the
fourth positions of the good blocks, at any start.  So the library never
builds the partition: every reader of the pattern is built from the one
mask ``good_starts``, which reads only the 8-blocks wholly inside the
window.  The labelled partition is the reference loop ``decompose_oracle``
in ``tests/oracles.py``.
"""
from __future__ import annotations

import numpy as np

from .measures import block_rows
from .sampling import Window

GOOD_BLOCKS = ((0, 1, 1, 0, 1, 0, 1, 1), (0, 1, 1, 1, 0, 0, 1, 1))
GOOD_WIDTH = 8
GOOD_CHUNK = 1 << 15   # block starts per pass of good_prob_lower


def _as_bits(values) -> np.ndarray:
    bits = np.asarray(values)
    if bits.size and not ((bits == 0) | (bits == 1)).all():
        raise ValueError("window is not binary")
    return bits.astype(np.uint8, copy=False)


def _marker_mask(b: np.ndarray) -> np.ndarray:
    """True at each relative start 0 .. n-3 of the bits where a 011 sits."""
    return (b[:-2] == 0) & (b[1:-1] == 1) & (b[2:] == 1)


def good_starts(w) -> np.ndarray:
    """Bool mask over the window's relative starts 0 .. n-8: True where the
    8-block there is good, 011 x y 011 with x != y."""
    b = _as_bits(w.values)
    m = _marker_mask(b)
    k = max(len(b) - GOOD_WIDTH + 1, 0)
    return m[:k] & m[5:5 + k] & (b[3:3 + k] != b[4:4 + k])


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
    z = special_sequence(w)
    first = (3 - w.start) % GOOD_WIDTH    # relative index of the first 8n + 3
    isa = np.zeros_like(z.values)
    isa[first::GOOD_WIDTH] = z.values[first::GOOD_WIDTH]
    return Window(w.start, isa)


def good_prob_lower(block: Window, span: tuple[int, int]) -> float:
    """Infimum over the block starts in ``span`` of the exact probability
    that the 8-block there is good, from a marginal block; a non-binary
    block, or a zero mass at a start (no Doeblin bound), is refused.

    Read ``GOOD_CHUNK`` starts at a time, so the temporaries stay in cache:
    each start's probability sees the same float operations as in one
    whole-span pass, and the chunks' minima give the same infimum."""
    if block.values.shape[1] != 2:
        raise ValueError(f"good blocks need a two-symbol alphabet, not "
                         f"{block.values.shape[1]} symbols")
    first, last = span
    n = last - first + 1
    rows = block_rows(block, first, last + GOOD_WIDTH - 1).values
    lows = []
    for c in range(0, n, GOOD_CHUNK):
        k = min(GOOD_CHUNK, n - c)
        # one contiguous copy per symbol, so each factor is a unit-stride slice
        cols = rows[c:c + k + GOOD_WIDTH - 1].T.copy()
        zero = np.flatnonzero((cols[0, :k] <= 0.0) | (cols[1, :k] <= 0.0))
        if len(zero):
            raise ValueError("measure violates the Doeblin condition at "
                             f"index {first + c + int(zero[0])}")
        q = np.zeros(k)
        for g in GOOD_BLOCKS:
            prod = np.ones(k)
            for j, sym in enumerate(g):
                prod *= cols[sym, j:j + k]
            q += prod
        lows.append(q.min())
    return float(np.min(lows))
