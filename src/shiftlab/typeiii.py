"""Step-density families with prescribed log-ratio lattices, and the
piecewise-linear coordinate map that converts one lattice into another.

The base family takes the three values {lambda, 1, 1/lambda} on nested
intervals A_n = (0, a_n) and B_n = (1 - lambda a_n, 1); every density
ratio across a generation step then lies on the lattice generated by
log lambda.  The map h moves mass from two slanted pieces onto the A and
B regions; its pushforward g_n takes values whose generation ratios lie
on the lattice of log lambda' instead, where p = (lambda' - lambda) /
(1 - lambda') calibrates the slopes.

Also here: the disjoint-support mixture of two such families on [-1, 0)
and [0, 1], the erasure map that replaces the negative side by uniform
coordinates (extracting bits from safe-zone hits and spreading them with
the Meshalkin matching), and the coordinatewise lift of h to the negative
side.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .matching import hand_out, meshalkin_match
from .measures import DensityFamily, log_damped
from .sampling import Window

_REINDEX_SEARCH_LIMIT = 10_000
# Matching capacity of the erasure: 51 mantissa bits split into d + 1 = 3
# shares keep 17 digit bits per share, far below any test's resolution.
ERASE_CAPACITY = 2
# The widest generation of the default sequence: log_damped(n) vanishes for
# n <= 1 and decreases from n = 2 on.
SAFE_ZONE_INDEX = 2


@dataclass(frozen=True)
class TypeIIISpec:
    """Base step-density family: value lambda on A_n = (0, a_n), 1/lambda
    on B_n = (1 - lambda a_n, 1), 1 elsewhere; identically 1 where a_n = 0
    (all n <= 1 for the default sequence)."""

    lam: float
    a: Callable[[np.ndarray], np.ndarray] = log_damped

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lambda must lie in (0, 1)")

    def a_n(self, n) -> np.ndarray:
        v = np.asarray(self.a(n), dtype=float)
        if np.any(v < 0):
            raise ValueError("perturbation lengths must be nonnegative")
        if np.any(v * (1.0 + self.lam) >= 1.0):
            raise ValueError(f"A_n and B_n overlap (largest a_n = {v.max()})")
        return v

    def intervals(self, n) -> tuple[tuple, tuple]:
        """(A_n, B_n) as open intervals; empty when a_n = 0."""
        a = self.a_n(n)
        return (0.0, a), (1.0 - self.lam * a, 1.0)


def f_family(spec: TypeIIISpec) -> DensityFamily:
    """Pieces A_n, the middle and B_n; where a_n = 0 the outer two have
    zero length."""
    def pieces(n) -> tuple[np.ndarray, np.ndarray]:
        a, lam = spec.a_n(n), spec.lam
        edges = np.broadcast_arrays(0.0, a, 1.0 - lam * a, 1.0)
        return np.stack(edges, axis=-1), np.array([lam, 1.0, 1.0 / lam])

    return DensityFamily((0.0, 1.0), pieces)


@dataclass(frozen=True)
class HMapSpec:
    """Slope data for the coordinate map h, with ``log_damped`` re-indexed
    by the least ``shift`` that gives a_1 (1 + p) < 1/2; a_n = 0 for
    n <= 0.  ``p``, ``shift`` and ``a1`` depend on lambda and lambda'
    only, so they are computed once."""

    lam: float
    lam_prime: float
    p: float = field(init=False)
    shift: int = field(init=False)
    a1: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.lam < self.lam_prime < 1.0:
            raise ValueError("need 0 < lambda < lambda' < 1")
        p = (self.lam_prime - self.lam) / (1.0 - self.lam_prime)
        heads = log_damped(np.arange(1, _REINDEX_SEARCH_LIMIT + 1))
        ok = (heads > 0) & (heads * (1.0 + p) < 0.5)
        if not ok.any():
            raise ValueError("no admissible re-indexing found")
        s = int(np.argmax(ok))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "shift", s)
        object.__setattr__(self, "a1", float(heads[s]))

    def a(self, n) -> np.ndarray:
        """Re-indexed sequence: log_damped(n + shift) for n >= 1, else 0."""
        return np.where(np.asarray(n) >= 1, log_damped(n + self.shift), 0.0)

    def family(self) -> TypeIIISpec:
        """The base family expressed in the re-indexed numbering."""
        return TypeIIISpec(self.lam, self.a)

    def support_pieces(self) -> list[tuple[float, float]]:
        """Closure components of the common support of the pushforwards."""
        a1, p, lam = self.a1, self.p, self.lam
        return [(0.0, a1),
                (a1 + p * a1, 1.0 - (lam + p) * a1),
                (1.0 - lam * a1, 1.0)]


def h_apply(spec: HMapSpec, x) -> np.ndarray:
    """The piecewise-linear map: slope 1/p from (a1, a1 + p a1) onto
    (0, a1); slope -lambda/p from (1 - lam a1 - p a1, 1 - lam a1) onto
    (1 - lam a1, 1); identity elsewhere (including the finitely many
    non-differentiability points)."""
    x = np.asarray(x, dtype=float)
    a1, p, lam = spec.a1, spec.p, spec.lam
    out = x.copy()
    b1 = (x > a1) & (x < a1 + p * a1)
    out[b1] = (x[b1] - a1) / p
    hi = 1.0 - lam * a1
    b2 = (x > hi - p * a1) & (x < hi)
    out[b2] = hi + lam * (hi - x[b2]) / p
    return out


def g_pieces(hspec: HMapSpec, n) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form piece edges and values of the pushforward at the indices
    ``n``; where a_n = 0 the first and last pieces have zero length."""
    a1, p, lam = hspec.a1, hspec.p, hspec.lam
    an = hspec.a(n)
    edges = np.broadcast_arrays(0.0, an, a1, a1 + p * a1,
                                1.0 - (lam + p) * a1, 1.0 - lam * a1,
                                1.0 - lam * an, 1.0)
    vals = [lam + p, 1.0 + p, 0.0, 1.0, 0.0,
            1.0 + p / lam, (1.0 + p) / lam]
    return np.stack(edges, axis=-1), np.array(vals)


def g_family(hspec: HMapSpec) -> DensityFamily:
    return DensityFamily((0.0, 1.0), lambda n: g_pieces(hspec, n))


def ratio_profile(hspec: HMapSpec, n, v) -> np.ndarray:
    """g_{n-1}(v) / g_n(v) over ``n`` and ``v`` broadcast together, always
    one of {lambda', 1, 1/lambda'}; NaN where it is undefined: off the
    support (where either density is 0), or within 1e-13 of a breakpoint
    of either generation."""
    g, n, v = g_family(hspec), np.asarray(n), np.asarray(v, dtype=float)
    num, den = g.density(n - 1, v), g.density(n, v)
    ok = (num > 0) & (den > 0)
    for m in (n - 1, n):
        ok &= ~(np.abs(g.table(m)[0] - v[..., None]) < 1e-13).any(-1)
    return np.where(ok, num / np.where(ok, den, 1.0), np.nan)


# ---------------------------------------------------------------------------
# Mixtures on [-1, 1] and the erasing / lifting factor maps
# ---------------------------------------------------------------------------

def shift_family(fam: DensityFamily, delta: float) -> DensityFamily:
    def pieces(n) -> tuple[np.ndarray, np.ndarray]:
        edges, values = fam.table(n)
        return edges + delta, values

    lo, hi = fam.support
    return DensityFamily((lo + delta, hi + delta), pieces)


def mix_disjoint(rho: DensityFamily, nu: DensityFamily) -> DensityFamily:
    """Equal-weight mixture of a family on [0, 1] and one on [-1, 0): the
    two tables joined with weights 1/2 by a zero-valued piece that spans
    the gap between the supports (of zero length where they touch)."""
    if nu.support[1] > rho.support[0] + 1e-15:
        raise ValueError("supports overlap")

    def pieces(n) -> tuple[np.ndarray, np.ndarray]:
        (e_nu, v_nu), (e_rho, v_rho) = nu.table(n), rho.table(n)
        zero = np.zeros(np.shape(n) + (1,))
        return (np.concatenate([e_nu, e_rho], axis=-1),
                0.5 * np.concatenate([v_nu, zero, v_rho], axis=-1))

    return DensityFamily((nu.support[0], rho.support[1]), pieces)


def safe_zone(spec: TypeIIISpec) -> tuple[float, float]:
    """Largest interval on which every density of the family equals 1:
    the complement of A_n and B_n at the widest generation."""
    (_, a_hi), (b_lo, _) = spec.intervals(SAFE_ZONE_INDEX)
    return (float(a_hi), float(b_lo))


def _digit_shares(t: np.ndarray, shares: int, bits_per: int) -> np.ndarray:
    """Split the binary expansion of t in [0, 1) into integer shares."""
    total = shares * bits_per
    ints = np.floor(t * float(1 << total)).astype(np.int64)
    ints = np.clip(ints, 0, (1 << total) - 1)
    shifts = bits_per * np.arange(shares - 1, -1, -1)
    return (ints[:, None] >> shifts) & ((1 << bits_per) - 1)


def erase_negative_side(w: Window,
                        zone: tuple[float, float]) -> tuple[Window, dict]:
    """Replace every negative coordinate by a uniform [-1, 0) value.

    Coordinates landing in the safe zone are uniform there; their binary
    digits are split into d+1 equal shares, d = ERASE_CAPACITY.  Each safe
    coordinate keeps one share for itself and hands the others to the
    negative coordinates the Meshalkin matching (capacity d, run on the
    subsequence of negative indices) assigns to it.  Unresolved
    coordinates come back as NaN.

    The map is deterministic and commutes with index translation.
    """
    d = ERASE_CAPACITY
    lo, hi = zone
    if not -1.0 <= lo < hi <= 0.0:
        raise ValueError("safe zone must be a subinterval of [-1, 0)")
    values = np.asarray(w.values, dtype=float)
    out = values.copy()
    neg_pos = np.flatnonzero(values < 0.0)
    sub_vals = values[neg_pos]
    is_safe = (sub_vals >= lo) & (sub_vals < hi)

    bits_per = 51 // (d + 1)
    t = (sub_vals[is_safe] - lo) / (hi - lo)
    shares = _digit_shares(t, d + 1, bits_per)
    coded = -1.0 + (shares + 0.5) / float(1 << bits_per)

    # every share is a (rank, slot, value) triple
    K = len(coded)
    triples = (np.repeat(np.arange(K), d + 1), np.tile(np.arange(d + 1), K),
               coded.reshape(-1))
    replaced = np.full(len(neg_pos), np.nan)
    hand_out(meshalkin_match(Window(0, is_safe), d), np.nan, triples,
             replaced, 0)

    out[neg_pos] = replaced
    info = {"nu_indices": int(len(neg_pos)), "safe_hits": int(is_safe.sum()),
            "censored": int(np.isnan(replaced).sum()), "capacity": d}
    return Window(w.start, out), info


def lift_lambda_on_negative(w: Window, hspec: HMapSpec) -> Window:
    """Apply the shifted coordinate map on [-1, 0); leave [0, 1] alone."""
    values = np.asarray(w.values, dtype=float)
    return Window(w.start, np.where(
        values < 0.0, h_apply(hspec, values + 1.0) - 1.0, values))


def generation_log_ratios(fam: DensityFamily, n: int) -> list[float]:
    """All log density ratios between generations n-1 and n, computed
    exactly from the common refinement of their pieces."""
    edges = np.union1d(*fam.table(np.array([n - 1, n]))[0])
    mids = 0.5 * (edges[:-1] + edges[1:])
    v = fam.density(np.array([[n - 1], [n]]), mids)
    keep = (v > 0).all(0)
    ratios = np.log(v[0, keep]) - np.log(v[1, keep])
    return sorted(set(np.round(ratios, 12).tolist()))
