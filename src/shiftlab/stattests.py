"""Shared statistical acceptance tests (chi-square, serial correlation).

Chi-square helpers pool low-expectation categories (Cochran rule) before
computing the statistic, which matters for the heavily skewed block laws
the factor pipeline produces.
"""
from __future__ import annotations

import math

import numpy as np

from .measures import block_law

# Acceptance thresholds of the uniformity suite, fixed for every caller.
MIN_EXPECTED = 5.0    # Cochran's rule: pool cells until each expects >= 5
ALPHA = 0.001         # least p-value a chi-square test may show
FREQ_SIGMAS = 4.0     # largest |z| of the frequency of ones
MAX_ABS_R = 0.01      # bound on every |r_k|, k = 1 .. LAGS
LAGS = 8


def pool_expected(counts, expected):
    """Merge categories (ascending by expectation) until all pooled cells
    have expectation >= MIN_EXPECTED.  Returns (counts, expected) arrays."""
    counts = np.asarray(counts, dtype=float)
    expected = np.asarray(expected, dtype=float)
    order = np.argsort(expected)
    pc, pe = [], []
    acc_c = acc_e = 0.0
    for i in order:
        acc_c += counts[i]
        acc_e += expected[i]
        if acc_e >= MIN_EXPECTED:
            pc.append(acc_c)
            pe.append(acc_e)
            acc_c = acc_e = 0.0
    if acc_e > 0.0:
        if not pc:
            pc, pe = [acc_c], [acc_e]
        else:
            pc[-1] += acc_c
            pe[-1] += acc_e
    return np.array(pc), np.array(pe)


def chi2_sf(k: int, x: float) -> float:
    """Upper tail P(X > x) of the chi-square law with k >= 1 degrees of
    freedom, from the closed form of Q(k/2, h), h = x/2, for integer k:
    e^-h sum_{j<k/2} h^j / j! for even k, and erfc(sqrt h) plus
    e^-h sum_{j<(k-1)/2} h^(j+1/2) / Gamma(j+3/2) for odd k.  Each term is
    formed in log space, so large k neither overflows nor underflows."""
    if x <= 0.0:
        return 1.0
    h = 0.5 * x
    log_h = math.log(h)
    a = 0.5 * (k % 2)
    terms = [math.exp((j + a) * log_h - h - math.lgamma(j + a + 1.0))
             for j in range(k // 2)]
    if a:
        terms.append(math.erfc(math.sqrt(h)))
    # the rounded terms of a tail near 1 can sum to one ulp above it
    return min(math.fsum(terms), 1.0)


def chi_square_pooled(counts, expected):
    """Chi-square GOF with category pooling; returns (stat, p_value, dof)."""
    pc, pe = pool_expected(counts, expected)
    if len(pc) < 2:
        return 0.0, 1.0, 0
    # rescale to identical totals (pooling keeps them equal up to rounding)
    pe = pe * pc.sum() / pe.sum()
    stat = float(np.sum((pc - pe) ** 2 / pe))
    dof = len(pc) - 1
    return stat, chi2_sf(dof, stat), dof


def serial_correlations(x, lags: int = LAGS) -> np.ndarray:
    """Pearson autocorrelations r_1..r_lags of a numeric sequence."""
    x = np.asarray(x, dtype=float)
    xc = x - x.mean()
    den = float(np.dot(xc, xc))
    if den == 0.0:
        return np.zeros(lags)
    return np.array([float(np.dot(xc[:-k], xc[k:]) / den)
                     for k in range(1, lags + 1)])


def block_chi_square(bits, block_len: int, p_one: float):
    """Chi-square of non-overlapping blocks against the i.i.d. block law."""
    bits = np.asarray(bits, dtype=np.int64)
    nb = len(bits) // block_len
    if nb == 0:
        return 0.0, 1.0, 0
    blocks = bits[:nb * block_len].reshape(nb, block_len)
    pat = blocks @ (1 << np.arange(block_len - 1, -1, -1))
    counts = np.bincount(pat, minlength=2 ** block_len)
    probs = block_law(np.full(block_len, 1.0 - p_one),
                      np.full(block_len, p_one))
    return chi_square_pooled(counts, probs * nb)


def frequency_zscore(bits, p_one: float) -> float:
    """Standardized deviation of the empirical frequency of ones."""
    bits = np.asarray(bits)
    n = len(bits)
    se = math.sqrt(p_one * (1.0 - p_one) / n)
    return (float(bits.mean()) - p_one) / se


def _failed(name: str, reason: str) -> dict:
    return {"name": name, "statistic": None, "p_value": None, "pass": False,
            "reason": reason}


def uniformity_suite(bits, p_one: float) -> list[dict]:
    """The three-part acceptance suite for a claimed i.i.d. bit law:
    per-symbol frequency (z test), 3-block chi-square, and lag-1..LAGS
    serial correlations.  Returns one record per test; a test that the
    input is too short or too regular to carry out fails with a reason."""
    if len(bits) == 0:
        return [_failed(name, "no bits to test") for name in
                ("frequency", "chi_square_3_blocks", "serial_correlation")]
    z = frequency_zscore(bits, p_one)
    records = [{"name": "frequency", "statistic": z, "p_value": None,
                "pass": bool(abs(z) <= FREQ_SIGMAS)}]
    stat3, p3, dof3 = block_chi_square(bits, 3, p_one)
    if dof3 == 0:
        records.append(_failed("chi_square_3_blocks",
                               "pooling leaves no degrees of freedom"))
    else:
        records.append({"name": "chi_square_3_blocks", "statistic": stat3,
                        "p_value": p3, "pass": bool(p3 >= ALPHA)})
    if len(bits) <= LAGS:
        records.append(_failed("serial_correlation",
                               f"{len(bits)} bits; need more than {LAGS}"))
    elif np.ptp(bits) == 0:
        records.append(_failed("serial_correlation", "all bits are equal"))
    else:
        rs = serial_correlations(bits)
        rmax = float(np.max(np.abs(rs))) if len(rs) else 0.0
        records.append({"name": "serial_correlation", "statistic": rmax,
                        "p_value": None, "pass": bool(rmax < MAX_ABS_R)})
    return records
