"""End-to-end i.i.d. factor construction for binary product windows.

Stages:
  1. special fillers, read off the good 8-blocks, carry one fair bit each,
     their first symbol (1 for 10, 0 for 01), at the a's the matching lists;
  2. each fair bit is expanded into d+1 low-entropy bits by a
     bounded-window code whose bias beta follows from the capacity d alone,
     (d+1) H(beta) = log 2;
  3. the Meshalkin matching assigns every other integer to a special
     filler, which keeps bit 0 of its tuple and hands each partner the bit
     of the slot the matching scan gave it (1, 2, ... in index order).

The split code reads only the bit column: a window of 2*radius+1 fair bits
around each one, compresses it through a keyed hash into a uniform value, and
decodes that value through the exact inverse CDF of the product law
Bernoulli(1-beta)^(d+1).  Each tuple therefore has exactly the target
joint law; distinct tuples share window bits, and the hash is what keeps
their empirical dependence below test resolution.  The code is
deterministic given (bits, d, radius, seeds) and translation equivariant
in the stream index.

A tuple is almost all ones ((d+1) beta ~ 0.066 zeros at d = 882), so the
split code holds a tuple as its zeros and decodes it zero by zero: the
ones before each zero form a geometric gap read in closed form.  Memory
then follows n and the zeros, not d, and so does time: a run of zeros in
a row ends within 53 log 2 / log(1/beta) + 2 slots (see _decode_tuples).
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import sampling, stattests
from .markers import GOOD_WIDTH, good_prob_lower, special_sequence
from .matching import (MatchingAssignment, hand_out, meshalkin_match,
                       required_d)
from .measures import (FiniteProductMeasure, ZeroMassError, binary_rows,
                       block_rows)
from .sampling import SeedStream, Window, sample_block

LOG2 = math.log(2.0)
BALANCE_TOL = 1e-10   # |(d+1) H(beta0) - log 2| a split code may leave
DEFAULT_RADIUS = 64   # fair-bit half-window of the split code
INTERIOR_FRACTION = 0.1   # output share cut from each end before testing


def binary_entropy(b: float) -> float:
    """H(b) in nats; H(0) = H(1) = 0."""
    if b <= 0.0 or b >= 1.0:
        return 0.0
    return -(b * math.log(b) + (1.0 - b) * math.log(1.0 - b))


def beta_for(dplus1: int) -> float:
    """The unique beta in (0, 1/2] with H(beta) = log(2)/dplus1 (bisection);
    a ValueError if the entropy balance (d+1) H(beta) = log 2 fails by
    more than BALANCE_TOL."""
    if dplus1 < 1:
        raise ValueError("dplus1 must be >= 1")
    if dplus1 == 1:
        return 0.5  # H is flat at 1/2, bisection would stall short of it
    target = LOG2 / dplus1
    lo, hi = 0.0, 0.5
    while True:
        mid = 0.5 * (lo + hi)
        # a width of 1e-15 leaves a small beta (large dplus1) unbalanced:
        # go on until the balance holds or the midpoint stops moving
        if hi - lo <= 1e-15:
            if abs(dplus1 * binary_entropy(mid) - LOG2) <= BALANCE_TOL:
                return mid
            if mid in (lo, hi):
                raise ValueError("entropy balance (d+1) H(beta0) = log 2 "
                                 f"violated at d = {dplus1 - 1}")
        if binary_entropy(mid) < target:
            lo = mid
        else:
            hi = mid


@dataclass(frozen=True)
class SplitTuples:
    """Per-special-filler coded tuples, held as their zeros; ranks align
    with the fair bits.  The tuple of rank k is all ones but at slot
    ``slots[i]`` for every i with ``ranks[i] == k``.  Only the tuples
    ``valid`` marks are coded (False near the stream edges)."""

    valid: np.ndarray            # bool mask over the ranks
    ranks: np.ndarray            # int64, one entry per zero
    slots: np.ndarray            # int64, one entry per zero


def bias_square_terms(block: Window, N: int) -> np.ndarray:
    """(r_i - 1/2)^2 for i = -N .. N, where r_i is the conditional
    probability of 01 against {01, 10} across the bond (i, i+1), read from
    the rows -N .. N+1 of a binary marginal block and filled
    ``BLOCK_ROWS`` terms at a time."""
    p0 = binary_rows(block_rows(block, -N, N + 1))[:, 0]
    out = np.empty(2 * N + 1)
    for s in range(0, len(out), sampling.BLOCK_ROWS):
        piece = out[s:s + sampling.BLOCK_ROWS]
        left, right = p0[s:s + len(piece)], p0[s + 1:s + len(piece) + 1]
        p01 = left * (1.0 - right)
        den = (1.0 - left) * right
        den += p01
        zero = np.flatnonzero(den == 0.0)
        if len(zero):
            i = -N + s + int(zero[0])
            raise ZeroMassError(f"degenerate marginals at bond ({i}, {i + 1})")
        np.divide(p01, den, out=p01)
        p01 -= 0.5
        np.square(p01, out=piece)
    return out


def _window_uniforms(bits: np.ndarray, radius: int, key: bytes) -> np.ndarray:
    """Hash each sliding window of 2*radius+1 bits to a uniform in [0, 1):
    the top 53 bits of the little-endian 8-byte keyed blake2b digest of
    its packed bits.  The hasher is keyed once and copied per window, and
    the digests are converted in one array."""
    packed = np.packbits(
        np.lib.stride_tricks.sliding_window_view(bits, 2 * radius + 1), axis=1)
    raw, width = packed.tobytes(), packed.shape[1]
    keyed = hashlib.blake2b(digest_size=8, key=key)
    digests = []
    for i in range(0, len(raw), width):
        h = keyed.copy()
        h.update(raw[i:i + width])
        digests.append(h.digest())
    return (np.frombuffer(b"".join(digests), "<u8") >> 11) * 2.0 ** -53


def _decode_tuples(u: np.ndarray, beta0: float,
                   width: int) -> tuple[np.ndarray, np.ndarray]:
    """The zeros of the first ``width`` bits of the exact inverse CDF of
    Bernoulli(1-beta0)^(d+1) applied to the uniforms ``u``, as (row, slot)
    pairs.

    A bit is 0 where its running uniform uu is below beta0.  A one steps
    uu to (uu - beta0) / (1 - beta0), which divides 1 - uu by 1 - beta0,
    so the ones before the next zero number
    g = floor(log1p(-uu) / log1p(-beta0)), and the running uniform at that
    zero is -expm1(log1p(-uu) - g log1p(-beta0)).  A zero rescales it by
    1/beta0, clamped to [2^-53, 1 - 2^-53]: above, its log1p is finite;
    below, it is under the rounding of g log1p(-beta0), and a running
    uniform of 0 (u = 0, or a zero that rounding puts on a gap edge)
    would stay 0 and hold a zero at every slot left.  From 2^-53 a run
    of zeros ends within 53 log 2 / log(1/beta0) + 1 slots.  Each pass
    finds the next zero of every row that still has one below ``width``,
    so the passes number the most zeros a row holds, whatever ``width``
    is.  g is compared with the slots left while it is a float, so no
    huge gap is cast to int64.
    """
    log_one = math.log1p(-beta0)
    rows, uu = np.arange(len(u), dtype=np.int64), u
    at = np.zeros(len(u))           # the slot each row's gap starts at
    found_rows, found_slots = [], []
    while len(rows):
        log_rest = np.log1p(-uu)
        gap = np.floor(log_rest / log_one)
        slot = at + gap
        keep = np.flatnonzero(slot < width)
        rows, slot = rows[keep], slot[keep]
        found_rows.append(rows)
        found_slots.append(slot.astype(np.int64))
        uu = -np.expm1(log_rest[keep] - gap[keep] * log_one)
        uu /= beta0
        np.clip(uu, 2.0 ** -53, 1.0 - 2.0 ** -53, out=uu)
        at = slot + 1.0
    return np.concatenate(found_rows), np.concatenate(found_slots)


def psi_split(bits: np.ndarray, d: int, radius: int,
              seeds: SeedStream) -> SplitTuples:
    """Expand each fair bit (a special filler's first symbol) into a tuple of
    d+1 beta0-biased bits, beta0 = ``beta_for(d + 1)``, held as its zeros.

    Tuples whose window would reach past the ends of the stream are
    censored.  The map depends only on window content and the seed, so it
    commutes with translation of the stream.  A d whose slots do not fit
    an array index is refused before beta0 is sought.
    """
    if d + 1 > np.iinfo(np.intp).max:
        raise ValueError(f"capacity d = {d} is too large for one array row "
                         "of d+1 bits")
    beta0 = beta_for(d + 1)
    K = len(bits)
    valid = np.zeros(K, dtype=bool)
    valid[radius:K - radius] = True      # empty unless K >= 2 radius + 1
    ranks = slots = np.empty(0, dtype=np.int64)
    if valid.any():
        key = seeds._key("|split-code").tobytes()
        u = _window_uniforms(np.asarray(bits, dtype=np.uint8), radius, key)
        ranks, slots = _decode_tuples(u, beta0, d + 1)
        ranks += radius
    return SplitTuples(valid, ranks, slots)


def spread_bits(w: Window, assignment: MatchingAssignment,
                split: SplitTuples) -> Window:
    """Hand one coded bit to every matched integer of the window ``w``.

    ``matching.hand_out`` deals the tuples out: the special filler of rank
    k among the matching's a's keeps bit 0 of tuple k, and its partners
    take the bits of their matching slots.  It writes 1 at every a and b
    of a valid tuple, then 0 at each of the split code's zeros that is
    dealt.  Only valid tuples are dealt, so a's and b's whose tuple is
    censored, and positions with no resolved source, keep the encoding -1.
    A zero at a slot outside 0 .. d is refused.
    """
    out = np.full(len(w), -1, dtype=np.int8)
    hand_out(assignment, 1, (split.ranks, split.slots, 0), out, w.start,
             split.valid)
    return Window(w.start, out)


def match_window(m: FiniteProductMeasure, span: tuple[int, int],
                 seeds: SeedStream, label: str) -> tuple:
    """(w, q, assignment): the window ``span`` sampled from ``label``,
    q = ``good_prob_lower`` on it and the matching of w's special sequence
    at d = required_d(q) (``assignment.d``), from one marginal block over
    the span and the 7 indices after it, dropped before the special
    sequence is read."""
    lo, hi = span
    block = m.block(lo, hi - lo + GOOD_WIDTH)
    q = good_prob_lower(block, span)
    w = sample_block(block_rows(block, lo, hi), seeds, label)
    del block
    return w, q, meshalkin_match(special_sequence(w), required_d(q))


def run_iid_factor(m: FiniteProductMeasure, span: tuple[int, int],
                   seeds: SeedStream,
                   radius: int = DEFAULT_RADIUS) -> tuple[Window, dict]:
    """(output, diagnostics): the full factor map composed on the window
    ``match_window`` samples, and its q, d, beta0, censoring fraction and
    three-part uniformity suite on the interior output."""
    w, q, assignment = match_window(m, span, seeds, "factor-input")
    d = assignment.d
    a_pos = assignment.a_positions   # the special fillers' starts
    split = psi_split(w.values[a_pos - w.start], d, radius, seeds)
    out = spread_bits(w, assignment, split)
    del w, split   # not read again: gone before the suite's float copy
    beta0 = beta_for(d + 1)

    n = len(out)
    margin = max(1, int(INTERIOR_FRACTION * n))
    inner = out.values[margin:n - margin]
    inner = inner[inner >= 0].view(np.uint8)
    tests = stattests.uniformity_suite(inner, 1.0 - beta0)
    diagnostics = {
        "q": q,
        "d": d,
        "beta0": beta0,
        "radius": radius,
        "specials": int(len(a_pos)),
        "censor_fraction": float((out.values < 0).mean()),
        "interior_bits": int(len(inner)),
        "tests": tests,
    }
    return out, diagnostics
