"""The closed-form chi-square tail against scipy and 40-digit values, and
the block patterns of the 3-block test."""
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.special import chdtrc

from shiftlab.measures import block_law
from shiftlab.stattests import (block_chi_square, chi2_sf,
                                chi_square_pooled, serial_correlations)


def test_matches_scipy_for_k_up_to_1000():
    # tails near the subnormal range keep few significant digits, so those
    # below 1e-300 are compared absolutely
    ratios = np.array([0.01, 0.25, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0, 4.0])
    for k in range(1, 1001):
        xs = np.concatenate([ratios * k, [0.5, 5.0, 50.0]])
        got = np.array([chi2_sf(k, float(x)) for x in xs])
        np.testing.assert_allclose(got, chdtrc(k, xs), rtol=1e-11,
                                   atol=1e-300, err_msg=f"k = {k}")


@pytest.mark.parametrize("k", [1, 2, 3, 10, 1000])
def test_one_at_and_below_zero(k):
    assert chi2_sf(k, 0.0) == 1.0
    assert chi2_sf(k, -2.5) == 1.0


@pytest.mark.parametrize("k, x", [(1000, 1e-3), (1000, 5000.0), (999, 1e-3),
                                  (999, 5000.0), (1, 1e-12), (1, 2000.0),
                                  (2, 2000.0),
                                  # its terms sum to 1 + 2^-52 before clamping
                                  (21, 0.16048894724915355)])
def test_extremes_are_finite_probabilities(k, x):
    p = chi2_sf(k, x)
    assert math.isfinite(p) and 0.0 <= p <= 1.0


# Q(k/2, x/2) to 40 digits, recorded with mpmath.gammainc(k/2, x/2, inf,
# regularized=True) at 50 digits and checked for k = 1 and 3 against the
# closed form erfc(sqrt h) + 2 sqrt(h/pi) e^-h (its second term for k = 3)
EXACT = {
    (1, 1.108856561749848): "0.2923306417324052703235141581229498039656",
    (3, 0.1): "0.9918374237318764777876514747343026904797",
    (3, 0.5): "0.9188914116546758593641153235202644204448",
    (3, 1.0): "0.8012519569012008024251952946070454647015",
    (3, 2.0): "0.5724067044708798339990476143587281060728",
    (3, 2.857097940574839): "0.4141866247722639261379376338384827726422",
    (3, 5.0): "0.1717971442967331350636066521830514997891",
    (3, 10.0): "0.01856613546304323330317143390771837922115",
    (3, 30.0): "0.000001380057031293254728222026029746807363853",
    (3, 100.0): "1.554159431389604921399753402511574063799e-21",
}


def ulps_off(k: int, x: float) -> float:
    """chi2_sf(k, x) minus its recorded value, in ulps of that value."""
    exact = Decimal(EXACT[k, x])
    with localcontext() as ctx:
        ctx.prec = 60
        return float((Decimal(chi2_sf(k, x)) - exact)
                     / Decimal(math.ulp(float(exact))))


@pytest.mark.parametrize("stat, k", [(2.857097940574839, 3),
                                     (1.108856561749848, 1)])
def test_golden_statistics_within_4_ulp(stat, k):
    assert abs(ulps_off(k, stat)) <= 4


@pytest.mark.parametrize("x", [x for k, x in EXACT if k == 3])
def test_three_degrees_within_1_ulp(x):
    # erfc(sqrt h) plus the one odd term, e^-h sqrt(h) / Gamma(3/2); from
    # math.lgamma(1.5) that term was up to 15 ulp off
    assert abs(ulps_off(3, x)) <= 1


def test_factor_run_p_value_is_the_nearest_double():
    # the 3-block statistic of factor run --measure iid:0.3 --n 2000000
    # --seed 7
    x = 2.857097940574839
    assert chi2_sf(3, x) == float(EXACT[3, x])


@pytest.mark.parametrize("block_len", [1, 2, 3, 8, 9])
@pytest.mark.parametrize("length", [0, 2, 3, 1000, 100_001])
def test_block_patterns_equal_the_matrix_product(block_len, length):
    # the strided shift-or read gives the counts, hence the statistic, of
    # the int64 block-matrix product it replaced, bit for bit
    rng = np.random.default_rng(length + block_len)
    bits = (rng.random(length) > 0.05).astype(np.uint8)
    nb = length // block_len
    pat = (bits[:nb * block_len].astype(np.int64).reshape(nb, block_len)
           @ (1 << np.arange(block_len - 1, -1, -1)))
    probs = block_law(np.full(block_len, 1.0 - 0.95),
                      np.full(block_len, 0.95))
    want = (chi_square_pooled(np.bincount(pat, minlength=2 ** block_len),
                              probs * nb) if nb else (0.0, 1.0, 0))
    assert block_chi_square(bits, block_len, 0.95) == want
    assert block_chi_square(bits.tolist(), block_len, 0.95) == want


@pytest.mark.parametrize("length", [9, 1000, 1 << 20])
def test_serial_correlations_centre_the_bits_once(length):
    # the 0/1 bits are centred as they are read: their mean is an integer
    # count over n, exact in float64, so the centred copy and every lag sum
    # are those of the float copy the suite used to make first, bit for
    # bit; and that one copy of 8 B a bit is the peak
    bits = (np.random.default_rng(length).random(length) > 0.1).astype(
        np.uint8)
    x = bits.astype(float)
    xc = x - x.mean()
    den = float(np.einsum("i,i->", xc, xc))
    want = [float(np.einsum("i,i->", xc[:-k], xc[k:]) / den)
            for k in range(1, 9)]
    tracemalloc.start()
    try:
        got = serial_correlations(bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == want
    assert peak <= 8 * length + (256 << 10)
