"""The closed-form chi-square tail against scipy and 40-digit mpmath."""
import math

import numpy as np
import pytest
from scipy.special import chdtrc

from shiftlab.stattests import chi2_sf


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


@pytest.mark.parametrize("stat, k", [(2.857097940574839, 3),
                                     (1.108856561749848, 1)])
def test_golden_statistics_within_4_ulp(stat, k):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        exact = mpmath.gammainc(mpmath.mpf(k) / 2, mpmath.mpf(stat) / 2,
                                mpmath.inf, regularized=True)
        err = abs(mpmath.mpf(chi2_sf(k, stat)) - exact)
    assert err <= 4 * math.ulp(float(exact))
