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
deterministic given (bits, spec, seeds) and translation equivariant in the
stream index.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import stattests
from .markers import GOOD_WIDTH, good_prob_lower, special_sequence
from .matching import MatchingAssignment, meshalkin_match, required_d
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
    """The unique beta in (0, 1/2] with H(beta) = log(2)/dplus1 (bisection)."""
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
        if hi - lo <= 1e-15 and (
                abs(dplus1 * binary_entropy(mid) - LOG2) <= BALANCE_TOL
                or mid in (lo, hi)):
            return mid
        if binary_entropy(mid) < target:
            lo = mid
        else:
            hi = mid


@dataclass(frozen=True)
class SplitCodeSpec:
    """Parameters of the entropy-splitting code.

    d is the matching capacity (tuples have d+1 bits), radius the
    half-width of the fair-bit window each tuple reads; the bit bias beta0
    follows from d by the balance (d+1) H(beta0) = log 2.
    """

    d: int
    radius: int = DEFAULT_RADIUS
    beta0: float = field(init=False)

    def __post_init__(self):
        if self.d + 1 > np.iinfo(np.intp).max:
            raise ValueError(f"capacity d = {self.d} is too large for one "
                             "array row of d+1 bits")
        beta0 = beta_for(self.d + 1)
        if abs((self.d + 1) * binary_entropy(beta0) - LOG2) > BALANCE_TOL:
            raise ValueError("entropy balance (d+1) H(beta0) = log 2 violated")
        object.__setattr__(self, "beta0", beta0)


@dataclass(frozen=True)
class SplitTuples:
    """Per-special-filler coded tuples; rows align with the fair bits."""

    tuples: np.ndarray           # (K, d+1) uint8; rows only valid where mask
    valid: np.ndarray            # bool mask (False near stream edges)


def bias_square_terms(block: Window, N: int) -> np.ndarray:
    """(r_i - 1/2)^2 for i = -N .. N, where r_i is the conditional
    probability of 01 against {01, 10} across the bond (i, i+1), read from
    the rows -N .. N+1 of a binary marginal block."""
    p0 = binary_rows(block_rows(block, -N, N + 1))[:, 0]
    p01 = p0[:-1] * (1.0 - p0[1:])
    p10 = (1.0 - p0[:-1]) * p0[1:]
    den = p01 + p10
    if np.any(den == 0.0):
        i = -N + int(np.argwhere(den == 0.0)[0][0])
        raise ZeroMassError(f"degenerate marginals at bond ({i}, {i + 1})")
    return (p01 / den - 0.5) ** 2


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


def _decode_tuples(u: np.ndarray, beta0: float, out: np.ndarray) -> None:
    """Exact inverse CDF of Bernoulli(1-beta0)^(d+1) applied to uniforms,
    written into the (len(u), d+1) array ``out``.

    A bit is 0 where its running uniform is below beta0, about (d+1) beta0
    times per tuple (0.07 at d = 882).  So ``out`` is filled with ones and
    only the zeros are written, and only their uniforms are rescaled by
    1/beta0; every value sees the same float operations as when whole
    columns were rescaled both ways and merged.
    """
    out.fill(1)
    uu, nxt = u.copy(), np.empty_like(u)
    zero = np.empty(len(u), dtype=bool)
    rest = 1.0 - beta0
    for j in range(out.shape[1]):
        np.less(uu, beta0, out=zero)
        np.subtract(uu, beta0, out=nxt)
        np.divide(nxt, rest, out=nxt)
        at = np.flatnonzero(zero)
        if len(at):
            out[at, j] = 0
            nxt[at] = uu[at] / beta0
        uu, nxt = nxt, uu


def psi_split(bits: np.ndarray, spec: SplitCodeSpec,
              seeds: SeedStream) -> SplitTuples:
    """Expand each fair bit (a special filler's first symbol) into a tuple of
    d+1 beta0-biased bits.

    Tuples whose window would reach past the ends of the stream are
    censored.  The map depends only on window content and the seed, so it
    commutes with translation of the stream.
    """
    K = len(bits)
    dplus1 = spec.d + 1
    tuples = np.zeros((K, dplus1), dtype=np.uint8)
    valid = np.zeros(K, dtype=bool)
    if K >= 2 * spec.radius + 1:
        key = seeds._key("|split-code").tobytes()
        u = _window_uniforms(np.asarray(bits, dtype=np.uint8),
                             spec.radius, key)
        _decode_tuples(u, spec.beta0, tuples[spec.radius:K - spec.radius])
        valid[spec.radius:K - spec.radius] = True
    return SplitTuples(tuples, valid)


def spread_bits(w: Window, assignment: MatchingAssignment,
                split: SplitTuples) -> Window:
    """Hand one coded bit to every matched integer of the window ``w``.

    The special filler of rank k among the matching's a's keeps bit 0 of
    tuple k; its matched partners take the bits of their matching slots
    1, 2, ..., in ascending index order, read with one flat ``take`` at
    rank * (tuple width) + slot.
    Positions with no resolved source are censored and encoded as -1.
    """
    start = w.start
    out = np.full(len(w), -1, dtype=np.int8)

    if assignment.d > split.tuples.shape[1] - 1:
        raise AssertionError("matching capacity exceeds tuple width - 1")
    a_pos = assignment.a_positions
    if len(split.tuples) != len(a_pos):
        raise AssertionError(f"{len(split.tuples)} tuples for "
                             f"{len(a_pos)} a's")

    out[a_pos[split.valid] - start] = split.tuples[split.valid, 0]

    rank = assignment.ranks
    flat = rank * split.tuples.shape[1]    # each b's bit in the flat tuples
    flat += assignment.slots
    bits = split.tuples.reshape(-1).take(flat).view(np.int8)
    bits[~split.valid[rank]] = -1   # the b's a has no tuple: censored
    out[assignment.b_indices - start] = bits
    return Window(start, out)


def match_window(m: FiniteProductMeasure, span: tuple[int, int],
                 seeds: SeedStream, label: str) -> tuple:
    """(w, q, d, assignment): the window ``span`` sampled from ``label``,
    q = ``good_prob_lower`` on it, d = required_d(q) and the matching of
    w's special sequence at d, from one marginal block over the span and
    the 7 indices after it, dropped before the special sequence is read."""
    lo, hi = span
    block = m.block(lo, hi - lo + GOOD_WIDTH)
    q = good_prob_lower(block, span)
    w = sample_block(block_rows(block, lo, hi), seeds, label)
    del block
    d = required_d(q)
    return w, q, d, meshalkin_match(special_sequence(w), d)


@dataclass(frozen=True)
class FactorResult:
    output: Window
    diagnostics: dict


def run_iid_factor(m: FiniteProductMeasure, span: tuple[int, int],
                   seeds: SeedStream,
                   radius: int = DEFAULT_RADIUS) -> FactorResult:
    """Compose the full factor map on the window ``match_window`` samples
    and report diagnostics: q, d, beta0, censoring fraction and the
    three-part uniformity suite on the interior output."""
    w, q, d, assignment = match_window(m, span, seeds, "factor-input")
    spec = SplitCodeSpec(d, radius)
    a_pos = assignment.a_positions   # the special fillers' starts
    split = psi_split(w.values[a_pos - w.start], spec, seeds)
    out = spread_bits(w, assignment, split)

    n = len(out)
    margin = max(1, int(INTERIOR_FRACTION * n))
    inner = np.asarray(out.values[margin:n - margin])
    inner = inner[inner >= 0].astype(np.uint8)
    tests = stattests.uniformity_suite(inner, 1.0 - spec.beta0)
    diagnostics = {
        "q": q,
        "d": d,
        "beta0": spec.beta0,
        "radius": radius,
        "specials": int(len(a_pos)),
        "censor_fraction": float((out.values < 0).mean()),
        "interior_bits": int(len(inner)),
        "tests": tests,
    }
    return FactorResult(out, diagnostics)
