"""Blocking/interleaving isomorphisms and the index diagnostics."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import de_interleave, gamma_marginal, hellinger_S, unblock
from shiftlab import (SeedStream, Window, block_kakutani_sum,
                      dissipativity_partial, eta_marginal, iid, iid_binary,
                      index_report, inverse_sqrt, kappa_marginal, make_mu_pc,
                      make_nu_c, pi_interleave, rpm_scaling_identity,
                      sample_window, zeta)
from shiftlab import speedups
from shiftlab.measures import nu_c_zero_mass, parse_measure

# Brute-force summation oracle, recorded to full precision.
HELLINGER_03_10_1E5 = 0.35136991674414014


class TestZetaPi:
    def test_k1_identity(self):
        w = sample_window(iid_binary(0.5), (0, 19), SeedStream(1))
        bw = zeta(w, 1)
        assert np.array_equal(unblock(bw).values, w.values)

    def test_k2_blocks(self):
        w = Window(0, np.array([5, 6, 7, 8]))
        bw = zeta(w, 2)
        assert bw.start == 0 and bw.values.tolist() == [[5, 6], [7, 8]]

    def test_trim_unaligned(self):
        w = Window(1, np.array([1, 2, 3, 4, 5]))
        bw = zeta(w, 2)  # only blocks covering {2,3} and {4,5} fit
        assert bw.start == 1 and bw.values.tolist() == [[2, 3], [4, 5]]

    @given(st.integers(1, 5), st.integers(0, 40), st.integers(-60, 60))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, k, nblocks, start0):
        start = start0 * k
        vals = np.arange(nblocks * k)
        w = Window(start, vals)
        back = unblock(zeta(w, k))
        assert back.start == start and np.array_equal(back.values, vals)

    def test_pi_round_trip(self):
        ws = [sample_window(iid_binary(0.5), (3, 42), SeedStream(s))
              for s in (1, 2, 3)]
        bw = pi_interleave(ws)
        assert bw.values.shape[1] == 3 and bw.start == 3
        for orig, back in zip(ws, de_interleave(bw)):
            assert back.start == orig.start
            assert np.array_equal(back.values, orig.values)

    def test_pi_range_mismatch(self):
        with pytest.raises(ValueError):
            pi_interleave([Window(0, np.zeros(3)), Window(1, np.zeros(3))])

    def test_pi_block_law_chi_square(self):
        # blocks of k independent copies follow the single-marginal product
        c, k, n = 0.2, 2, 1
        g0 = gamma_marginal(0.5, inverse_sqrt, c, k, n)[0]
        M = 10 ** 5
        u = SeedStream(5).generator("pi-blocks").random((M, k))
        bits = (u >= g0).astype(int)
        pat = bits[:, 0] * 2 + bits[:, 1]
        counts = np.bincount(pat, minlength=4)
        kap = kappa_marginal(
            type(iid_binary(0.5))(marginals=lambda n: (g0, 1 - g0)), k, 0)
        _, p = stats.chisquare(counts, kap * M)
        assert p > 0.001


class TestBlockMarginals:
    def test_non_binary_measure_is_refused(self):
        # column 0 of a three-symbol marginal is no binary P(0)
        m = iid((0.2, 0.3, 0.5))
        for law in (eta_marginal, kappa_marginal):
            with pytest.raises(ValueError, match="two-symbol alphabet "
                                                 "required, not 3 symbols"):
                law(m, 2, 0)

    def test_eta_k1(self):
        m = make_nu_c(0.3)
        for n in (-2, 0, 4):
            assert eta_marginal(m, 1, n) == pytest.approx(m.table(n), abs=0)

    def test_eta_fair_k3_uniform(self):
        eta = eta_marginal(iid_binary(0.5), 3, 0)
        assert eta == pytest.approx(np.full(8, 0.125), abs=1e-15)

    def test_eta_substitution_oracle(self):
        m = make_nu_c(0.2)
        eta = eta_marginal(m, 2, 1)
        # block 00 at block-index 1 covers coordinates 2 and 3
        assert eta[0] == pytest.approx(m.table(2)[0] * m.table(3)[0], rel=1e-15)

    def test_eta_sums_to_one(self):
        m = make_nu_c(0.17)
        for k in (1, 2, 5):
            for n in (-3, 0, 2):
                assert eta_marginal(m, k, n).sum() == pytest.approx(1.0, abs=1e-12)

    def test_gamma_reduces_at_k1(self):
        m = make_mu_pc(0.5, 0.2, inverse_sqrt)
        for n in (0, 1, 9):
            want = m.table(n)[0]
            assert gamma_marginal(0.5, inverse_sqrt, 0.2, 1, n)[0] == want

    def test_gamma_scaling_law(self):
        # a_{kn}(c) = a_n(c)/sqrt(k) whenever the indicator is active
        c = 0.2
        for k in (2, 3, 5):
            for n in range(1, 200):
                got = gamma_marginal(0.5, inverse_sqrt, c, k, n)[0] - 0.5
                assert got == pytest.approx(nu_c_zero_mass(
                    np.array([k * n]), c)[0], rel=1e-14)
                assert got == pytest.approx((c / math.sqrt(k)) / math.sqrt(n),
                                            rel=1e-12)

    def test_gamma_at_zero(self):
        assert gamma_marginal(0.5, inverse_sqrt, 0.7, 4, 0)[0] == 0.5


class TestBlockKakutani:
    def test_k1_identically_zero(self):
        res = block_kakutani_sum(make_nu_c(0.2), 1, 200)
        assert res.total == 0.0 and res.bound_holds

    def test_iid_zero_any_k(self):
        for k in (1, 2, 4):
            res = block_kakutani_sum(iid_binary(0.3), k, 100)
            assert res.total == 0.0

    def test_nu_bound_dominates_per_n(self):
        for k in (2, 3):
            res = block_kakutani_sum(make_nu_c(0.2), k, 10 ** 4)
            assert res.bound_holds
            assert 0.0 < res.total <= res.bound

    @pytest.mark.parametrize("spec, k, N", [
        ("nu_c:0.1", 3, 500), ("mu:0.3,0.5", 5, 200), ("nu_c:0.25", 8, 30)])
    def test_batched_sum_equals_per_n_loop(self, spec, k, N):
        # the running totals over n of eta_marginal / kappa_marginal gaps
        m = parse_measure(spec)
        total = bound = 0.0
        violations = []
        for n in range(-N, N + 1):
            sq = (eta_marginal(m, k, n) - kappa_marginal(m, k, n)) ** 2
            p0 = m.block(k * n, k).values[:, 0]
            bound_n = k ** 2 * float(np.sum((p0 - p0[0]) ** 2))
            total += float(sq.sum())
            bound += bound_n
            if float(sq.max()) > bound_n + 1e-15:
                violations.append(n)
        res = block_kakutani_sum(m, k, N)
        assert (res.total, res.bound, res.per_n_violations) == \
            (total, bound, tuple(violations))

    def test_width_cap(self):
        with pytest.raises(ValueError, match="block width"):
            block_kakutani_sum(iid_binary(0.5), 21, 10)

    def test_blocking_law_matches_eta(self):
        # empirical law of blocked samples vs the blocked marginals, on all
        # cylinders of length <= 3 (in blocks), 4 sigma at 2e4 replicates
        m = make_nu_c(0.2)
        k, nblocks, M = 2, 3, 2 * 10 ** 4
        p0 = m.block(0, k * nblocks).values[:, 0]
        u = SeedStream(3).generator("blocking").random((M, k * nblocks))
        bits = (u >= p0).astype(int)
        for start in range(nblocks):
            for length in range(1, nblocks - start + 1):
                sl = bits[:, k * start: k * (start + length)]
                for pattern in range(2 ** (k * length)):
                    digits = [(pattern >> (k * length - 1 - j)) & 1
                              for j in range(k * length)]
                    pr = float(np.prod([p0[k * start + j] if d == 0
                                        else 1 - p0[k * start + j]
                                        for j, d in enumerate(digits)]))
                    hits = float(np.mean(np.all(sl == digits, axis=1)))
                    se = math.sqrt(pr * (1 - pr) / M)
                    assert abs(hits - pr) <= 4 * se + 1e-12


class TestHellinger:
    def test_k_zero(self):
        assert hellinger_S(0.7, 0, 1000) == 0.0

    def test_frozen_oracle(self):
        assert hellinger_S(0.3, 10, 10 ** 5) == pytest.approx(
            HELLINGER_03_10_1E5, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 10, 100, 1000])
    def test_log_lower_bound(self, k):
        c = 0.3
        S = hellinger_S(c, k, 10 * k)
        harmonic = sum(1.0 / ell for ell in range(1, k + 1))
        assert S >= c * c * harmonic  # the head terms alone
        assert S >= c * c * (math.log(k) + 1.0)

    def test_monotone_in_N(self):
        vals = [hellinger_S(0.4, 7, N) for N in (100, 1000, 10000)]
        assert vals[0] <= vals[1] <= vals[2]


class TestDissipativity:
    def test_matches_brute_sum(self):
        # the internal route zeroes the perturbation beyond its support N,
        # so it exceeds the |n| <= N brute sum by exactly the boundary mass
        # sum_{m=N-k+1}^{N} a_m^2
        c, K, N = 0.8, 100, 1000
        rep = dissipativity_partial(c, K)
        for k in (1, 5, 50, 100):
            brute = hellinger_S(c, k, N)
            ident = -2.0 * math.log(np.exp(-rep.S / 2)[k - 1])
            boundary = float(np.sum(nu_c_zero_mass(
                np.arange(N - k + 1, N + 1), c) ** 2))
            assert ident == pytest.approx(brute + boundary, abs=1e-8)

    def test_partial_sums_monotone(self):
        rep = dissipativity_partial(1.2, 200)
        assert np.all(np.diff(rep.partial_sums) > 0)

    @pytest.mark.parametrize("c", [0.5, 1.0, 1.5])
    def test_true_tail_exponent(self, c):
        # the squared-increment sum grows like 2 c^2 log k, so the summand
        # decays with exponent close to -c^2 (not -c^2/2, which is what the
        # one-sided harmonic lower bound alone would give)
        rep = dissipativity_partial(c, 2000)
        assert rep.tail_slope == pytest.approx(-c * c, rel=0.15)

    def test_divergence_proxy_below_one(self):
        # summand exponent above -1 means the series keeps growing
        rep = dissipativity_partial(0.5, 2000)
        assert rep.tail_slope > -1.0
        assert rep.last_decade_increment > 1.0

    def test_decade_increments_shrink_when_supercritical(self):
        small = dissipativity_partial(1.5, 10 ** 3)
        big = dissipativity_partial(1.5, 10 ** 4)
        assert big.last_decade_increment < small.last_decade_increment

    def test_requires_K(self):
        with pytest.raises(ValueError):
            dissipativity_partial(1.0, 5)


class TestRPMScaling:
    def test_reduction_p_equals_q(self):
        rep = rpm_scaling_identity(0.4, 0.4, 0.6, 0.6, N=200)
        assert rep["identity_thin"]["pass"]
        assert rep["identity_thin"]["clamp_mismatch"] == []

    def test_reduction_d_equals_c(self):
        rep = rpm_scaling_identity(0.3, 0.5, 0.4, 0.4, N=200)
        assert rep["identity_rescale"]["pass"]
        assert rep["identity_rescale"]["clamp_mismatch"] == []

    def test_identities_without_clamps(self):
        rep = rpm_scaling_identity(0.3, 0.5, 0.4, 0.2, N=1000)
        for key in ("identity_rescale", "identity_thin"):
            assert rep[key]["pass"]
            assert rep[key]["max_error"] <= 1e-15
            assert rep[key]["clamp_mismatch"] == []

    def test_clamp_mismatch_reported_finite(self):
        # c large enough to clamp the head of the sequence while dsmall does
        # not: the identity must hold off a finite, reported index set
        rep = rpm_scaling_identity(0.45, 0.5, 1.2, 0.2, N=2000)
        mism = rep["identity_rescale"]["clamp_mismatch"]
        assert mism  # the head indices clamp at c but not at dsmall
        assert len(mism) < 20
        assert rep["identity_rescale"]["pass"]

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            rpm_scaling_identity(0.6, 0.5, 1.0, 0.5)
        with pytest.raises(ValueError):
            rpm_scaling_identity(0.3, 0.5, 0.5, 0.9)


class TestIndexReport:
    def test_bracket_classification(self):
        rep = index_report(0.6, 5)
        assert rep.implied_index == 2
        assert [r.certified for r in rep.rows] == \
            [False, False, True, True, True]

    def test_supercritical_gives_zero(self):
        assert index_report(1.2, 3).implied_index == 0

    def test_equality_is_not_certified(self):
        # c^2 k = 1 exactly: the bound exp(-k S/2) decays like 1/j, which
        # is not summable
        rep = index_report(0.5, 5)
        assert [r.certified for r in rep.rows] == \
            [False, False, False, False, True]
        assert rep.implied_index == 4

    def test_monotone_in_c(self):
        idx = [index_report(c, 8).implied_index
               for c in (0.3, 0.45, 0.6, 0.8, 1.1)]
        assert all(b <= a for a, b in zip(idx, idx[1:]))

    def test_rows_scale_with_k(self):
        rep = index_report(0.6, 6)
        one = rep.rows[0]
        for r in rep.rows:
            assert r.exponent == -0.6 * 0.6 * r.k
            assert r.hellinger == r.k * one.hellinger
            assert r.tail_slope == r.k * one.tail_slope

    def test_large_powers_stay_finite(self):
        # exp(-k S/2) underflows at c = 1.1, k = 100; no log is taken of it
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = index_report(1.1, 100)
        assert all(math.isfinite(r.tail_slope) for r in rep.rows)
        assert all(r.dissipativity_partial >= 0 for r in rep.rows)

    @pytest.mark.parametrize("kmax", [1, 4, 30])
    def test_one_hellinger_array_per_scan(self, monkeypatch, kmax):
        calls = []
        all_k = speedups._hellinger_all_k

        def counted(*args):
            calls.append(args)
            return all_k(*args)

        monkeypatch.setattr(speedups, "_hellinger_all_k", counted)
        index_report(0.7, kmax)
        assert calls == [(0.7, speedups.DIAG_K,
                          speedups.SUPPORT_MULT * speedups.DIAG_K)]

    @pytest.mark.parametrize("c", [0.0, -0.5, math.nan, math.inf])
    def test_bad_c_refused(self, c):
        with pytest.raises(ValueError, match="c must be positive"):
            index_report(c, 3)
