"""Step densities, the piecewise-linear coordinate map, and its pushforward."""
import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from oracles import (log_rn_swap, pushforward_density, reindex_oracle,
                     sample_density_iid)
from shiftlab import (DensityFamily, HMapSpec, SeedStream, TypeIIISpec,
                      ZeroMassError, erase_negative_side, f_family, g_family,
                      h_apply, lift_lambda_on_negative, mix_disjoint,
                      ratio_profile, safe_zone, sample_density_window,
                      shift_family)
from shiftlab.sampling import Window
from shiftlab.typeiii import g_pieces, generation_log_ratios

LAM, LAMP = 0.25, 0.5  # p = (lam' - lam)/(1 - lam') = 1/2


@pytest.fixture(scope="module")
def spec():
    return TypeIIISpec(LAM)


@pytest.fixture(scope="module")
def hspec():
    return HMapSpec(LAM, LAMP)


class TestBaseFamily:
    def test_interval_conditions(self, spec):
        # (a) disjoint  (b) nested  (c) |A_n| = a_n = |B_n| / lam
        prev_a = prev_b = None
        for n in range(2, 60):
            (alo, ahi), (blo, bhi) = spec.intervals(n)
            assert ahi <= blo  # disjoint
            assert (ahi - alo) == pytest.approx(spec.a_n(n), abs=0)
            assert (bhi - blo) == pytest.approx(LAM * spec.a_n(n), rel=1e-15)
            if prev_a is not None:
                assert ahi <= prev_a[1] and blo >= prev_b[0]  # nested
            prev_a, prev_b = (alo, ahi), (blo, bhi)

    def test_density_values(self, spec):
        a5 = spec.a_n(5)
        f = f_family(spec).density
        assert f(5, 0.5 * a5) == LAM
        assert f(5, 1.0 - 0.5 * LAM * a5) == 1 / LAM
        assert f(5, 0.5) == 1.0

    def test_flat_generations(self, spec):
        for n in (-3, 0, 1):
            u = np.linspace(0.001, 0.999, 11)
            assert np.all(f_family(spec).density(n, u) == 1.0)

    def test_exact_normalization(self, spec):
        fam = f_family(spec)
        for n in (-1, 1, 2, 5, 50):
            assert fam.integral(n) == pytest.approx(1.0, abs=1e-12)
            fam.validate(n)

    def test_lambda_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                TypeIIISpec(bad)


class TestHMap:
    def test_identity_outside_slanted_pieces(self, hspec):
        a1, p, lam = hspec.a1, hspec.p, hspec.lam
        for x in (0.0, 0.5 * a1, a1 + p * a1 + 1e-6, 0.5,
                  1.0 - lam * a1 - p * a1 - 1e-6, 1.0):
            assert h_apply(hspec, x) == x

    def test_branch_one_endpoint_limit(self, hspec):
        a1, p = hspec.a1, hspec.p
        x = a1 + p * a1 - 1e-12
        assert float(h_apply(hspec, x)) == pytest.approx(a1, abs=1e-11)

    def test_branch_one_midpoint(self, hspec):
        a1, p = hspec.a1, hspec.p
        x = a1 + p * a1 / 2
        assert float(h_apply(hspec, x)) == pytest.approx(a1 / 2, rel=1e-12)

    def test_branch_two_reverses_orientation(self, hspec):
        a1, p, lam = hspec.a1, hspec.p, hspec.lam
        hi = 1.0 - lam * a1
        lo = hi - p * a1
        eps = 1e-9
        assert float(h_apply(hspec, lo + eps)) > float(h_apply(hspec, hi - eps))

    def test_head_condition(self, hspec):
        assert hspec.a1 * (1.0 + hspec.p) < 0.5
        assert hspec.a(0) == 0.0 and hspec.a(-3) == 0.0

    def test_reindexing_matches_scalar_search(self):
        grid = [(lam, lam_prime) for lam in (0.01, 0.25, 0.5, 0.9)
                for lam_prime in (0.3, 0.6, 0.95, 0.999) if lam < lam_prime]
        for lam, lam_prime in grid:
            h = HMapSpec(lam, lam_prime)
            assert (h.p, h.shift, h.a1) == reindex_oracle(lam, lam_prime)
        # p ~ 9e4 leaves no admissible shift below the search limit
        for search in (HMapSpec, reindex_oracle):
            with pytest.raises(ValueError, match="no admissible"):
                search(0.1, 0.99999)

    def test_ratio_calibration(self, hspec):
        assert (hspec.lam + hspec.p) / (1.0 + hspec.p) == pytest.approx(
            LAMP, abs=1e-12)


class TestPushforward:
    @pytest.mark.parametrize("n", [-2, 0, 1, 2, 5, 20])
    def test_matches_closed_form_everywhere(self, hspec, n):
        edges, _ = g_pieces(hspec, n)
        probes = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            if hi - lo > 1e-12:  # skip degenerate pieces (n = 1 has two)
                probes.extend([lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo)])
        got = pushforward_density(hspec, n, np.array(probes))
        want = g_family(hspec).density(n, np.array(probes))
        assert np.max(np.abs(got - want)) < 1e-12

    def test_a_piece_value(self, hspec):
        an = hspec.a(5)
        v = 0.5 * an
        assert float(pushforward_density(hspec, 5, v)) == pytest.approx(
            LAM + hspec.p, abs=1e-15)

    def test_vanishing_piece(self, hspec):
        a1, p = hspec.a1, hspec.p
        v = a1 + 0.5 * p * a1
        assert float(pushforward_density(hspec, 5, v)) == 0.0

    @pytest.mark.parametrize("n", [0, 2, 5])
    def test_exact_unit_mass(self, hspec, n):
        edges, vals = g_pieces(hspec, n)
        assert float(np.dot(vals, np.diff(edges))) == pytest.approx(1.0, abs=1e-12)

    def test_monte_carlo_histogram(self, spec, hspec):
        # draws from the base density pushed through the map land in each
        # closed-form piece at its predicted rate
        n, N = 5, 10 ** 5
        fam = f_family(hspec.family())
        u = sample_density_iid(fam, n, N, SeedStream(7))
        v = h_apply(hspec, u)
        edges, vals = g_pieces(hspec, n)
        counts, _ = np.histogram(v, bins=edges)
        probs = vals * np.diff(edges)
        for c, pr in zip(counts, probs):
            se = math.sqrt(N * pr * (1 - pr))
            assert abs(c - N * pr) <= 3 * se + 1e-9


class TestRatioProfile:
    def test_three_cases(self, hspec):
        n = 5
        an, an1 = hspec.a(n), hspec.a(n - 1)
        a1, lam = hspec.a1, hspec.lam
        assert ratio_profile(hspec, n, 0.5 * an) == pytest.approx(1.0, rel=1e-12)
        assert ratio_profile(hspec, n, 0.5 * (an + an1)) == pytest.approx(
            LAMP, rel=1e-12)
        v = 1.0 - 0.5 * lam * (an + an1)
        assert ratio_profile(hspec, n, v) == pytest.approx(1 / LAMP, rel=1e-12)

    def test_membership_random(self, hspec):
        # pairs drawn one at a time until 10^4 ratios are defined; each
        # batch of draws is read with one array call
        rng = np.random.default_rng(42)
        targets = np.array([LAMP, 1.0, 1.0 / LAMP])
        pieces = hspec.support_pieces()
        ratios = np.empty(0)
        while len(ratios) < 10 ** 4:
            ns, vs = [], []
            for _ in range(10 ** 4 - len(ratios)):
                ns.append(int(rng.integers(-3, 60)))
                lo, hi = pieces[int(rng.integers(0, len(pieces)))]
                vs.append(float(rng.uniform(lo, hi)))
            r = ratio_profile(hspec, np.array(ns), np.array(vs))
            ratios = np.concatenate([ratios, r[~np.isnan(r)]])
        assert np.abs(targets - ratios[:, None]).min(axis=1).max() < 1e-9

    def test_matches_change_of_variables(self, hspec):
        # the table-read ratio against the independent pushforward route, at
        # two interior probes per piece of the common refinement
        pieces = hspec.support_pieces()
        checked = 0
        for n in range(-3, 61):
            edges = np.union1d(g_pieces(hspec, n - 1)[0], g_pieces(hspec, n)[0])
            for lo, hi in zip(edges[:-1], edges[1:]):
                for v in (lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo)):
                    if not any(a < v < b for a, b in pieces):
                        continue
                    want = (float(pushforward_density(hspec, n - 1, v))
                            / float(pushforward_density(hspec, n, v)))
                    assert ratio_profile(hspec, n, v) == pytest.approx(
                        want, rel=1e-12)
                    checked += 1
        assert checked > 64 * 6

    def test_outside_support_is_nan(self, hspec):
        a1, p = hspec.a1, hspec.p
        assert np.isnan(ratio_profile(hspec, 4, a1 + 0.5 * p * a1))

    def test_breakpoint_is_nan(self, hspec):
        assert np.isnan(ratio_profile(hspec, 4, hspec.a(4)))

    def test_array_call_matches_elementwise(self, hspec):
        # midpoints of the common refinement (valid where both pushforward
        # densities are positive), points off [0, 1], and every breakpoint
        # of either generation, exactly and 5e-14 off it
        ns, vs, rejected = [], [], []
        for n in range(-3, 40):
            both = np.concatenate([g_pieces(hspec, n - 1)[0],
                                   g_pieces(hspec, n)[0]])
            edges = np.unique(both)
            mids = 0.5 * (edges[:-1] + edges[1:])[np.diff(edges) > 1e-12]
            on_support = ((pushforward_density(hspec, n - 1, mids) > 0)
                          & (pushforward_density(hspec, n, mids) > 0))
            probes = [*mids, -0.5, 1.5, *both, *(both + 5e-14)]
            ns += [n] * len(probes)
            vs += probes
            rejected += [*~on_support, True, True, *[True] * 2 * len(both)]
        ns, vs, rejected = np.array(ns), np.array(vs), np.array(rejected)
        got = ratio_profile(hspec, ns, vs)
        one_by_one = [float(ratio_profile(hspec, n, v))
                      for n, v in zip(ns.tolist(), vs.tolist())]
        assert np.array_equal(got, one_by_one, equal_nan=True)
        assert np.array_equal(np.isnan(got), rejected)
        assert 0 < rejected.sum() < len(rejected)
        # n and v broadcast against each other
        grid = ratio_profile(hspec, np.arange(-3, 40)[:, None], vs[:50])
        assert np.array_equal(grid, [[float(ratio_profile(hspec, n, v))
                                      for v in vs[:50]]
                                     for n in range(-3, 40)], equal_nan=True)


class TestMixDisjoint:
    def make_mix(self, lam=LAM, ell=0.4):
        rho = f_family(TypeIIISpec(lam))
        nu = shift_family(f_family(TypeIIISpec(ell)), -1.0)
        return mix_disjoint(rho, nu)

    def test_half_mass_per_side(self):
        mixed = self.make_mix()
        for n in (0, 2, 7):
            edges, vals = mixed.pieces(n)
            neg = edges[:-1] < 0
            lens = np.diff(edges)
            assert float((vals * lens)[neg].sum()) == pytest.approx(0.5, abs=1e-12)
            assert mixed.integral(n) == pytest.approx(1.0, abs=1e-12)

    def test_overlap_rejected(self):
        rho = f_family(TypeIIISpec(0.3))
        with pytest.raises(ValueError, match="overlap"):
            mix_disjoint(rho, rho)

    def test_log_ratio_lattice(self):
        lam, ell = LAM, 0.4
        mixed = self.make_mix(lam, ell)
        grid = {round(j * math.log(lam) + jj * math.log(ell), 12)
                for j in (-1, 0, 1) for jj in (-1, 0, 1)}
        for n in (3, 4, 10):
            for r in generation_log_ratios(mixed, n):
                assert min(abs(r - g) for g in grid) < 1e-9


def families(hspec):
    f = f_family(TypeIIISpec(LAM))
    nu = shift_family(f_family(TypeIIISpec(0.4)), -1.0)
    return {"f": f, "g": g_family(hspec), "shifted": nu,
            "mix": mix_disjoint(f, nu),
            "gapped": mix_disjoint(f, shift_family(f, -2.0))}


class TestTables:
    def test_array_tables_stack_scalar_tables(self, hspec):
        ns = np.arange(-3, 30)
        for name, fam in families(hspec).items():
            edges, values = fam.table(ns)
            for i, n in enumerate(ns.tolist()):
                e, v = fam.table(n)
                assert np.array_equal(edges[i], e), (name, n)
                assert np.array_equal(values[i], v), (name, n)
            fam.validate(ns)
            assert np.array_equal(fam.integral(ns),
                                  [fam.integral(n) for n in ns.tolist()])

    def test_constant_table_is_broadcast(self):
        fam = DensityFamily((0.0, 1.0), lambda n: (np.array([0.0, 0.5, 1.0]),
                                                   np.array([0.5, 1.5])))
        edges, values = fam.table(np.zeros((4, 3), dtype=int))
        assert edges.shape == (4, 3, 3) and values.shape == (4, 3, 2)
        assert np.array_equal(fam.density(np.arange(3), [0.25, 0.75, 1.0]),
                              [0.5, 1.5, 0.0])

    def test_validate_names_first_bad_index(self):
        # the middle edge moves at n = 3, so the mass becomes 0.75
        fam = DensityFamily((0.0, 1.0), lambda n: (
            np.stack(np.broadcast_arrays(0.0, np.where(n >= 3, 0.75, 0.5),
                                         1.0), axis=-1),
            np.array([0.5, 1.5])))
        fam.validate(np.arange(-2, 3))
        with pytest.raises(ValueError, match=r"index 3 .* \(integral 0\.75\)"):
            fam.validate(np.arange(-2, 6))


class TestOffSupport:
    @pytest.mark.parametrize("n", [-1, 1, 2, 5])
    def test_density_and_point_mass_vanish(self, hspec, n):
        for name, fam in families(hspec).items():
            lo, hi = fam.support
            probes = [lo - 0.5, lo - 1e-9, hi, hi + 1e-9, hi + 0.5]
            assert np.all(fam.density(n, np.array(probes)) == 0.0), name

    def test_gap_between_supports_is_a_zero_piece(self, hspec):
        gapped = families(hspec)["gapped"]
        for n in (0, 2, 7):
            gapped.validate(n)
            assert np.all(gapped.density(n, np.linspace(-0.99, -0.01, 9)) == 0.0)

    def test_pushforward_agrees_with_table(self, hspec):
        v = np.array([-0.5, -1e-9, 1.0, 1.0 + 1e-9, 1.5])
        for n in (0, 1, 5):
            got = pushforward_density(hspec, n, v)
            assert np.array_equal(got, g_family(hspec).density(n, v))
            assert np.all(got == 0.0)

    def test_swap_off_support_raises(self):
        fam = f_family(TypeIIISpec(LAM))
        with pytest.raises(ZeroMassError):
            log_rn_swap(fam, 2, 9, 1.5, 0.5)


class TestGoldenWindows:
    @pytest.mark.parametrize("name, digest", [
        ("f", "f2801c485e71f301b32e5b946fa34979a4a6c70cdf3271660a3dbffc5baee0ad"),
        ("g", "766e1e57542f600e2b4c44f8c451567e19524404cf58b6a53da7a745ea730d84"),
        ("mix", "0d83f290de4879fd0cd095f380644f9b795683aadc59848d025144432b52fc98"),
        ("gapped", "d914f46232cd4730250e336ab7aa2e9e9a2cb767ecac6e7ec3bd9a5e4631b791"),
        ("shifted", "ddcef008c4b9728623e32b0718c8f7795f90e8f2d4054e74cbed3882d6dd9ccc"),
    ], ids=["f", "g", "mix", "gapped", "shifted"])
    def test_window_digest(self, hspec, name, digest):
        # recorded on uniforms of one Philox word a coordinate, from the
        # piece tables; the id leaves the digest out
        w = sample_density_window(families(hspec)[name], (2, 401),
                                  SeedStream(7))
        assert hashlib.sha256(w.values.tobytes()).hexdigest() == digest


class TestEraseNegativeSide:
    def setup_window(self, n_coords=5 * 10 ** 4, ell=0.4, seed=7):
        ell_spec = TypeIIISpec(ell)
        rho = f_family(TypeIIISpec(LAM))
        nu = shift_family(f_family(ell_spec), -1.0)
        mixed = mix_disjoint(rho, nu)
        zone_lo, zone_hi = safe_zone(ell_spec)
        zone = (zone_lo - 1.0, zone_hi - 1.0)
        w = sample_density_window(mixed, (2, 2 + n_coords - 1), SeedStream(seed))
        return w, zone

    def test_nonnegative_coordinates_untouched(self):
        w, zone = self.setup_window(2000)
        out, _ = erase_negative_side(w, zone)
        keep = np.asarray(w.values) >= 0
        assert np.array_equal(np.asarray(out.values)[keep],
                              np.asarray(w.values)[keep])

    def test_replaced_values_uniform(self):
        w, zone = self.setup_window()
        out, info = erase_negative_side(w, zone)
        vals = np.asarray(out.values)
        replaced = vals[(np.asarray(w.values) < 0) & ~np.isnan(vals)]
        assert info["censored"] < 0.05 * info["nu_indices"]
        u = (replaced + 1.0)
        _, p = stats.kstest(u, "uniform")
        assert p > 0.001

    def test_output_digest(self):
        # recorded from the lexsort slot lookup, on uniforms of one Philox
        # word a coordinate
        w, zone = self.setup_window(3000)
        out, info = erase_negative_side(w, zone)
        assert (info["safe_hits"], info["censored"]) == (1314, 0)
        assert hashlib.sha256(out.values.tobytes()).hexdigest() == \
            "b1c417d86cc10e96667d2a331f7b2ade0ad8e54040b6309a9ec55beb001312a2"

    def test_deals_from_the_runs_alone(self, request):
        # the same output with every per-b column of the matching refused
        w, zone = self.setup_window(3000)
        want, want_info = erase_negative_side(w, zone)
        request.getfixturevalue("no_per_b_columns")
        got, info = erase_negative_side(w, zone)
        assert info == want_info
        assert np.array_equal(got.values, want.values, equal_nan=True)

    def test_no_negative_coordinates_noop(self):
        w = Window(0, np.linspace(0.1, 0.9, 50))
        out, info = erase_negative_side(w, (-0.9, -0.1))
        assert np.array_equal(out.values, w.values)
        assert info["nu_indices"] == 0

    def test_no_safe_hits_fully_censored(self):
        w = Window(0, np.array([-0.05, 0.3, -0.02, 0.8]))
        out, info = erase_negative_side(w, (-0.9, -0.5))
        vals = np.asarray(out.values)
        assert np.isnan(vals[0]) and np.isnan(vals[2])
        assert info["censored"] == 2

    def test_translation_equivariance(self):
        w, zone = self.setup_window(3000)
        out0, _ = erase_negative_side(w, zone)
        out1, _ = erase_negative_side(Window(w.start + 11, w.values), zone)
        assert np.array_equal(out0.values, out1.values, equal_nan=True)


class TestLiftLambdaOnNegative:
    def make_window(self, n_coords=4000):
        fam = f_family(TypeIIISpec(LAM))
        mixed = mix_disjoint(fam, shift_family(fam, -1.0))
        return sample_density_window(mixed, (2, 2 + n_coords - 1), SeedStream(9))

    def test_positive_side_unchanged(self, hspec):
        w = self.make_window()
        out = lift_lambda_on_negative(w, hspec)
        keep = np.asarray(w.values) >= 0
        assert np.array_equal(np.asarray(out.values)[keep],
                              np.asarray(w.values)[keep])

    def test_negative_side_is_shifted_map(self, hspec):
        w = self.make_window()
        out = lift_lambda_on_negative(w, hspec)
        neg = np.asarray(w.values) < 0
        want = h_apply(hspec, np.asarray(w.values)[neg] + 1.0) - 1.0
        assert np.array_equal(np.asarray(out.values)[neg], want)

    def test_output_log_ratio_lattice(self, hspec):
        # after the lift the negative side follows the pushforward listing,
        # so generation ratios live on the joint (lam, lam') lattice
        from shiftlab import g_family
        lifted = mix_disjoint(f_family(TypeIIISpec(LAM)),
                              shift_family(g_family(hspec), -1.0))
        grid = {round(j * math.log(LAM) + jj * math.log(LAMP), 12)
                for j in (-2, -1, 0, 1, 2) for jj in (-2, -1, 0, 1, 2)}
        for n in (3, 8):
            for r in generation_log_ratios(lifted, n):
                assert min(abs(r - g) for g in grid) < 1e-9


class TestSafeZone:
    def test_density_flat_on_zone(self):
        ell_spec = TypeIIISpec(0.4)
        lo, hi = safe_zone(ell_spec)
        probes = np.linspace(lo + 1e-9, hi - 1e-9, 25)
        for n in range(-2, 40):
            assert np.all(f_family(ell_spec).density(n, probes) == 1.0)
