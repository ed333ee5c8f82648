"""Blocking isomorphisms and ergodic-index diagnostics.

The k-step composition of the shift is conjugate, via the blocking map
zeta, to the plain shift on k-blocks; interleaving k independent copies
gives the direct product the same block alphabet.  Whether the two block
laws (eta: consecutive marginals; kappa: one marginal repeated) are
Kakutani-equivalent is what separates ergodic powers from dissipative
ones, and for the half-stationary family the separating statistic is the
Hellinger-type sum S(k, c) of squared perturbation increments.

Everything here reports truncated sums with auditable tails.  The one
infinite-time verdict, that the k-fold product is totally dissipative,
comes from the closed-form exponent -c^2 k of its Hellinger affinities,
not from the truncated sums; ergodicity of the lower powers is never
checked.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .measures import (FiniteProductMeasure, binary_rows, block_law,
                       inverse_sqrt, make_mu_pc, nu_c_zero_mass, rpm)
from .sampling import Window

MAX_BLOCK_WIDTH = 20
SUPPORT_MULT = 10   # perturbation support, in multiples of the largest lag
DIAG_K = 10_000     # lag range of the index scan's diagnostics


def zeta(w: Window, k: int) -> Window:
    """Group coordinates kn .. kn+k-1 into block n (trimming the window to
    whole blocks): a window over the k-block alphabet, whose values row n
    holds block n's k base symbols."""
    if k < 1:
        raise ValueError("k must be positive")
    lo, hi = w.span
    n_lo = math.ceil(lo / k)
    n_hi = math.floor((hi - k + 1) / k)
    rel = n_lo * k - lo
    count = max(n_hi - n_lo + 1, 0)
    vals = np.asarray(w.values)[rel:rel + count * k]
    return Window(n_lo, vals.reshape(count, k))


def pi_interleave(ws: list[Window]) -> Window:
    """Block n = (x_n^1, ..., x_n^k) from k windows over the same range."""
    spans = {w.span for w in ws}
    if len(spans) != 1:
        raise ValueError("windows must share an index range")
    vals = np.stack([np.asarray(w.values) for w in ws], axis=1)
    return Window(ws[0].start, vals)


# ---------------------------------------------------------------------------
# Block marginals and the block Kakutani sum
# ---------------------------------------------------------------------------

def _check_width(k: int) -> None:
    if not 1 <= k <= MAX_BLOCK_WIDTH:
        raise ValueError(f"block width {k} outside 1..{MAX_BLOCK_WIDTH}")


def eta_marginal(m: FiniteProductMeasure, k: int, n: int) -> np.ndarray:
    """Law of block n of a binary measure under blocking: product of
    marginals kn .. kn+k-1."""
    _check_width(k)
    p0 = binary_rows(m.block(k * n, k))[:, 0]
    return block_law(p0, 1.0 - p0)


def kappa_marginal(m: FiniteProductMeasure, k: int, n: int) -> np.ndarray:
    """Law of block n of a binary measure under interleaving: the marginal
    at kn, repeated."""
    _check_width(k)
    p0 = np.full(k, binary_rows(m.block(k * n, 1))[0, 0])
    return block_law(p0, 1.0 - p0)


def block_kakutani_sum(m: FiniteProductMeasure, k: int, N: int):
    """(total, bound, violations): the sum over |n| <= N and all 2^k blocks
    of (eta_n(B) - kappa_n(B))^2, the increment bound
    k^2 sum_l (m0(kn+l-1) - m0(kn))^2 summed the same way, and the array of
    the n at which some block's squared gap exceeds its bound."""
    _check_width(k)
    rows = binary_rows(m.block(-N * k, (2 * N + 1) * k))
    p0 = rows[:, 0].reshape(2 * N + 1, k)
    head = np.broadcast_to(p0[:, :1], p0.shape)
    sq = (block_law(p0, 1.0 - p0) - block_law(head, 1.0 - head)) ** 2
    bound_n = (k ** 2) * np.sum((p0 - head) ** 2, axis=1)
    # row sums added in row order, as a running total over n would
    total, bound_total = (float(np.cumsum(t)[-1])
                          for t in (sq.sum(axis=1), bound_n))
    return (total, bound_total,
            np.flatnonzero(sq.max(axis=1) > bound_n + 1e-15) - N)


# ---------------------------------------------------------------------------
# Hellinger sums and dissipativity for the half-stationary family
# ---------------------------------------------------------------------------

def _hellinger_all_k(c: float, K: int, support: int) -> np.ndarray:
    """S(k) for k = 1..K with the perturbation truncated beyond ``support``
    (exact for the truncated sequence, via FFT autocorrelation)."""
    a = nu_c_zero_mass(np.arange(1, support + 1), c)
    # a fixed-order sum, as in stattests.serial_correlations
    A = float(np.einsum("i,i->", a, a))
    size = 1
    while size < 2 * support:
        size *= 2
    fa = np.fft.rfft(a, size)
    ac = np.fft.irfft(fa * np.conj(fa), size)[:K + 1]
    return 2.0 * A - 2.0 * ac[1:K + 1]


def dissipativity_partial(c: float, K: int):
    """(S, tail_slope) of the series sum_k exp(-S(k, c)/2): the array
    S(k, c), k = 1..K, and the fitted tail exponent of its summands.

    S is computed with the perturbation truncated at SUPPORT_MULT * K,
    which leaves a relative error O(1/SUPPORT_MULT^2) in the exponents.
    The tail slope is the least-squares slope of log summand against
    log k over k in [K/10, K].
    """
    if K < 10:
        raise ValueError("K must be at least 10")
    S = _hellinger_all_k(c, K, SUPPORT_MULT * K)
    lo = max(K // 10, 1)
    ks = np.arange(lo, K + 1)
    # the log summand is -S/2 itself: no log of an underflowed summand
    return S, float(np.polyfit(np.log(ks), -S[lo - 1:] / 2.0, 1)[0])


# ---------------------------------------------------------------------------
# RPM scaling identities and the index bracket
# ---------------------------------------------------------------------------

def rpm_scaling_identity(p: float, q: float, c: float, dsmall: float,
                         a: Callable[[np.ndarray], np.ndarray] = inverse_sqrt,
                         N: int = 1000, tol: float = 1e-15) -> dict:
    """Check the two coordinatewise mixing identities

      rpm(mu^(p,c), dsmall/c, (p, 1-p))  ==  mu^(p, dsmall)
      rpm(mu^(q,c), p/q,      (0, 1))    ==  mu^(p, p c / q)

    for |n| <= N.  Equality is exact off the finitely many coordinates
    where exactly one side clamps; those indices are listed.
    """
    if not (0.0 < dsmall <= c):
        raise ValueError("need 0 < dsmall <= c")
    if not (0.0 < p <= q <= 0.5):
        raise ValueError("need 0 < p <= q <= 1/2")

    def compare(lhs: FiniteProductMeasure, rhs: FiniteProductMeasure):
        l0 = lhs.block(-N, 2 * N + 1).values[:, 0]
        r0 = rhs.block(-N, 2 * N + 1).values[:, 0]
        diff = np.abs(l0 - r0)
        mismatched = np.flatnonzero(diff > 1e-12) - N
        agree = diff[diff <= 1e-12]
        max_err = float(agree.max()) if len(agree) else 0.0
        return max_err, [int(i) for i in mismatched]

    lhs1 = rpm(make_mu_pc(p, c, a), dsmall / c, (p, 1.0 - p))
    rhs1 = make_mu_pc(p, dsmall, a)
    err1, clamp1 = compare(lhs1, rhs1)

    lhs2 = rpm(make_mu_pc(q, c, a), p / q, (0.0, 1.0))
    rhs2 = make_mu_pc(p, p * c / q, a)
    err2, clamp2 = compare(lhs2, rhs2)

    return {
        "p": p, "q": q, "c": c, "dsmall": dsmall, "N": N,
        "identity_rescale": {"max_error": err1, "clamp_mismatch": clamp1,
                             "pass": err1 <= tol},
        "identity_thin": {"max_error": err2, "clamp_mismatch": clamp2,
                          "pass": err2 <= tol},
    }


def index_report(c: float, kmax: int):
    """Scan the k-fold products of nu_c for k <= kmax; return (columns,
    implied_index).

    Each Bernoulli affinity factor is at most exp(-(p - q)^2 / 2), so the
    Hellinger affinity of the k-fold product at lag j is at most
    exp(-k S(j, c) / 2), and S(j, c) = 2 c^2 log j + O(1).  The affinities
    are therefore summable, and the product totally dissipative (Kakutani,
    then Hopf), exactly when c^2 k > 1: that power is certified.  The
    columns, one entry per k, are ``k``; ``exponent`` -c^2 k, the
    affinities' decay exponent; ``S``, k S(DIAG_K, c); ``partial_dissip``,
    the sum over j <= DIAG_K of exp(-k S(j, c)/2); ``tail_slope``; and the
    boolean ``certified``.  Every entry reads the one array S(j, c),
    j = 1..DIAG_K; the fitted tail slope is linear in it, so k's is k
    times that of k = 1.  The implied index is the number of leading
    uncertified powers, an upper bound on the ergodic index (a dissipative
    power is not ergodic).
    """
    if not (math.isfinite(c) and c > 0):
        raise ValueError("c must be positive and finite")
    S, slope = dissipativity_partial(c, DIAG_K)
    ks = np.arange(1, kmax + 1)
    certified = c * c * ks > 1.0
    # a term exp(-k S(j, c) / 2) does not grow with k, so once every term
    # underflows the sums that follow are 0.0 as well
    partial = np.zeros(kmax)
    for i, k in enumerate(ks):
        partial[i] = np.sum(np.exp(-k * S / 2.0))
        if partial[i] == 0.0:
            break
    columns = {
        "k": ks,
        "exponent": -c * c * ks,
        "S": ks * S[-1],
        "partial_dissip": partial,
        "tail_slope": ks * slope,
        "certified": certified,
    }
    return columns, int(certified.argmax()) if certified.any() else kmax
