"""Fair-bit extraction, the entropy-splitting code, and the full factor."""
import bisect
import hashlib
import itertools
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

import oracles
from shiftlab import (SeedStream, Window, beta_for, good_prob_lower,
                      iid_binary, make_mu_pc, make_nu_c, meshalkin_match, parse_measure, psi_split, required_d,
                      run_iid_factor, sample_window, special_sequence,
                      spread_bits)
from shiftlab import factor
from shiftlab.factor import (LOG2, _decode_tuples, _window_uniforms,
                             bias_square_terms, binary_entropy, match_window)
from shiftlab.measures import (FiniteProductMeasure, ZeroMassError,
                               sum_with_tail)
from shiftlab.stattests import serial_correlations, uniformity_suite

# Bisection oracle for H(beta) = (log 2)/2, recorded to full precision.
BETA_HALF_BIT = 0.11002786443835952


def bias_sum(m, N):
    """The bias-square sum over |i| <= N, from the block it reads."""
    return float(np.sum(bias_square_terms(m.block(-N, 2 * N + 2), N)))


class TestBiasSquareSum:
    def test_iid_is_exactly_zero(self):
        for p in (0.2, 0.5, 0.77):
            assert bias_sum(iid_binary(p), 1000) == 0.0

    def test_single_perturbation(self):
        m = FiniteProductMeasure(
            marginals=lambda n: np.where((n == 0)[..., None],
                                         (0.6, 0.4), (0.5, 0.5)))
        # the bonds (-1, 0) and (0, 1) each contribute 0.01
        assert bias_sum(m, 50) == pytest.approx(0.02, abs=1e-15)

    def test_nu_sixth_converges(self):
        p = make_nu_c(1 / 6).block(-10 ** 5, 2 * 10 ** 5 + 2)
        value, tail = sum_with_tail(bias_square_terms(p, 10 ** 5))
        assert value > 0.0
        assert abs(tail) < 1e-4 * value

    def test_degenerate_marginals_raise(self):
        m = FiniteProductMeasure(
            marginals=lambda n: (1.0, 0.0))
        with pytest.raises(ZeroMassError,
                           match=r"degenerate marginals at bond \(-5, -4\)"):
            bias_sum(m, 5)

    def test_short_block_is_refused(self):
        # N = 5 reads indices -5 .. 6
        p = make_nu_c(0.1).block(-5, 11)
        with pytest.raises(ValueError, match=r"misses 6 \.\. 6$"):
            bias_square_terms(p, 5)


def special_rows(w) -> np.ndarray:
    """(initial index, bit) rows of the special fillers, read off the
    special sequence."""
    at = np.flatnonzero(special_sequence(w).values)
    return np.column_stack((at + w.start, w.values[at]))


class TestExtractFairBits:
    def test_sample_realization(self):
        w = Window(0, np.array([0, 1, 1, 0, 1, 0, 1, 1], dtype=np.uint8))
        z = special_rows(w)
        assert z.tolist() == [[3, 0]]

    def test_no_specials_empty(self):
        w = Window(0, np.ones(20, dtype=np.uint8))
        z = special_rows(w)
        assert len(z) == 0

    def test_bits_fair_even_for_biased_input(self):
        # stationarity makes P(10) = P(01), so the extracted bits are fair
        w = sample_window(iid_binary(0.3), (0, 10 ** 5 - 1), SeedStream(21))
        z = special_rows(w)
        _, p = oracles.chi_square_fair_bits(z[:, 1])
        assert p > 0.001


class TestBetaFor:
    def test_one_is_fair(self):
        assert beta_for(1) == pytest.approx(0.5, abs=1e-12)

    def test_frozen_bisection_value(self):
        assert beta_for(2) == pytest.approx(BETA_HALF_BIT, abs=1e-12)

    def test_monotone(self):
        vals = [beta_for(n) for n in range(1, 40)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_entropy_balance(self):
        for dp1 in (1, 2, 8, 100, 883):
            assert dp1 * binary_entropy(beta_for(dp1)) == pytest.approx(
                LOG2, abs=1e-10)

    def test_refuses_an_unbalanced_beta(self, monkeypatch):
        # no beta meets a negative tolerance, so the bisection runs until
        # its midpoint stops moving and refuses it
        monkeypatch.setattr(factor, "BALANCE_TOL", -1.0)
        for d in (1, 7, 882):
            with pytest.raises(ValueError, match="entropy balance .* "
                               f"violated at d = {d}$"):
                beta_for(d + 1)

    def test_every_capacity_balances(self):
        # a bisection stopped at an absolute width of 1e-15 leaves 3 209 of
        # these unbalanced, the first at d = 17 651
        for d in range(1, 30001):
            beta_for(d + 1)

    def test_balanced_capacities_keep_their_beta(self):
        # values of the 1e-15 bisection, which balanced these
        assert beta_for(883) == 7.475180793869995e-05
        assert beta_for(1025) == 6.340163470719418e-05


def column_decode(u: np.ndarray, dplus1: int, beta0: float) -> np.ndarray:
    """The inverse-CDF decoder one whole column at a time, both branches
    computed and merged: the reference for the in-place decoder."""
    out = np.empty((len(u), dplus1), dtype=np.uint8)
    uu = u.copy()
    for j in range(dplus1):
        zero = uu < beta0
        out[:, j] = np.where(zero, 0, 1)
        uu = np.where(zero, uu / beta0, (uu - beta0) / (1.0 - beta0))
    return out


def fair_stream(n: int, seed: int) -> np.ndarray:
    return (SeedStream(seed).uniforms("stream", 0, n)[:, 0] < 0.5).astype(np.uint8)


def zeros_of(tuples: np.ndarray, width: int) -> list:
    """The (row, slot) pairs of the zeros in a tuple matrix's first
    ``width`` columns, sorted."""
    return sorted(zip(*(x.tolist() for x in np.nonzero(
        tuples[:, :width] == 0))))


def built_uniform(beta0: float, d: int, zeros: tuple) -> float:
    """The double nearest the middle of the exact interval of uniforms
    whose tuple of d+1 bits has its zeros at the slots ``zeros``.  The
    interval is [lo, lo + length) with lo and length held as integers
    over q^j after j slots, beta0 = p / q."""
    p, q = beta0.as_integer_ratio()
    lo, length = 0, 1
    for j in range(d + 1):
        lo *= q
        if j in zeros:
            length *= p
        else:
            lo += length * p
            length *= q - p
    return (2 * lo + length) / (2 * q ** (d + 1))   # correctly rounded


def decoded(u: np.ndarray, beta0: float, width: int) -> list:
    rows, slots = _decode_tuples(u, beta0, width)
    assert rows.dtype == slots.dtype == np.int64
    return sorted(zip(rows.tolist(), slots.tolist()))


class TestPsiSplit:
    def test_determinism(self):
        z = fair_stream(500, 3)
        t1 = psi_split(z, 7, 16, SeedStream(7))
        t2 = psi_split(z, 7, 16, SeedStream(7))
        for field in ("valid", "ranks", "slots"):
            assert np.array_equal(getattr(t1, field), getattr(t2, field))

    def test_seed_changes_output(self):
        z = fair_stream(500, 3)
        assert not np.array_equal(
            oracles.tuple_matrix(psi_split(z, 7, 16, SeedStream(1)), 7),
            oracles.tuple_matrix(psi_split(z, 7, 16, SeedStream(2)), 7))

    def test_edges_censored(self):
        z = fair_stream(100, 3)
        out = psi_split(z, 7, 16, SeedStream(7))
        assert not out.valid[:16].any() and not out.valid[-16:].any()
        assert out.valid[16:-16].all()
        assert out.valid[out.ranks].all()

    def test_output_law_frequency(self):
        n = 10 ** 5 + 32
        out = psi_split(fair_stream(n, 11), 7, 16, SeedStream(7))
        bits = oracles.tuple_matrix(out, 7)[out.valid]
        beta0 = beta_for(8)
        target = 1.0 - beta0
        se = math.sqrt(beta0 * target / bits.size)
        assert abs(bits.mean() - target) < 4 * se

    def test_within_tuple_independence(self):
        n = 10 ** 5 + 32
        out = psi_split(fair_stream(n, 23), 7, 16, SeedStream(7))
        T = oracles.tuple_matrix(out, 7)[out.valid].astype(float)
        worst = 0.0
        for i, j in itertools.combinations(range(T.shape[1]), 2):
            r = np.corrcoef(T[:, i], T[:, j])[0, 1]
            worst = max(worst, abs(float(r)))
        assert worst < 0.01

    @pytest.mark.parametrize("d, radius, digest", [
        (7, 16, "fbbc78e2f2b21d01e4b9b96ad259855d2be11b4e259a514282e3c36d7442d37b"),
        (882, 64, "29b5ab846695693c671a2444a2730c83799ac9f431e8f354a59fd5546d367833"),
    ], ids=["7-16", "882-64"])
    def test_tuples_digest(self, d, radius, digest):
        # recorded from the column-at-a-time decoder, as the (K, d+1)
        # matrix with zero rows where censored, on uniforms of one Philox
        # word a coordinate; d = 882 is the capacity of iid:0.3, where
        # ~0.07 bits per tuple are zero
        out = psi_split(fair_stream(2000, 3), d, radius, SeedStream(7))
        assert hashlib.sha256(oracles.tuple_matrix(out, d).tobytes()
                              ).hexdigest() == digest

    @pytest.mark.parametrize("d", [1, 3, 7, 882])
    def test_decode_equals_column_reference(self, d):
        # the zeros of every width's first columns are the reference's
        u = SeedStream(19).uniforms("u", 0, 20000)[:, 0]
        beta0 = beta_for(d + 1)
        want = column_decode(u, d + 1, beta0)
        for width in sorted({1, (d + 2) // 2, d + 1}):
            assert decoded(u, beta0, width) == zeros_of(want, width)

    @pytest.mark.parametrize("d", [1, 7, 882, 1631, 5906])
    def test_decode_at_the_all_ones_threshold(self, d):
        # 80 000 consecutive doubles around p = 1 - (1 - beta0)^(d+1),
        # where tuples stop holding zeros.  In exact arithmetic, beta0 as
        # its double, the doubles below P = 1 - (1 - beta0)^(d+1) hold a
        # zero; the decoder's rows with a zero are the doubles below one
        # cut within 2 doubles of that one (measured 0-1 off at each d
        # here, where the column loop is 0-10 off)
        beta0 = beta_for(d + 1)
        p = -math.expm1((d + 1) * math.log1p(-beta0))
        u = (np.arange(-40_000, 40_000)
             + np.float64(p).view(np.int64)).view(np.float64)
        P = 1 - (1 - Fraction(beta0)) ** (d + 1)
        exact = bisect.bisect_left(u, P, key=Fraction)
        assert 0 < exact < len(u)
        rows = np.unique(_decode_tuples(u, beta0, d + 1)[0])
        assert rows.tolist() == list(range(len(rows)))
        assert abs(len(rows) - exact) <= 2

    @pytest.mark.parametrize("d, zero_slots", [
        (1, [(0, 1)]),
        (7, [(0, 1), (2, 5), (0, 3, 7), (1, 2, 3, 4), (0, 2, 4, 6, 7),
             (1, 2, 3, 5, 6, 7)]),
        (882, [(0, 1), (10, 500), (3, 400, 882), (0, 1, 2, 3),
               (0, 1, 2, 3, 100, 700)]),
    ])
    def test_decode_rows_built_to_hold_zeros(self, d, zero_slots):
        # each u is the double nearest the middle of the exact interval of
        # uniforms whose tuple has its zeros at the given slots, so every
        # running uniform lies mid-gap; u = 1 - 2^-53 holds none.  The
        # zeros are those of the sequential inverse CDF run in exact
        # arithmetic on the same doubles
        beta0 = beta_for(d + 1)
        u = np.array([built_uniform(beta0, d, z) for z in zero_slots]
                     + [1.0 - 2.0 ** -53])
        exact = [oracles.decode_exact(x, beta0, d + 1) for x in u]
        assert exact == [list(z) for z in zero_slots] + [[]]
        assert decoded(u, beta0, d + 1) == [
            (row, slot) for row, slots in enumerate(exact) for slot in slots]

    @pytest.mark.parametrize("d", [1, 7, 882, 5906])
    def test_decode_goes_on_from_the_floor(self, d):
        # a zero whose rescaled running uniform falls below 2^-53 goes on
        # from 2^-53: u = 0, and from d = 882 on a u built for zeros at
        # 0 .. 4 (below 1e-21, off the 2^-53 grid of the split code's
        # uniforms), hold the zero at slot 0 and then the exact tuple of
        # the uniform 2^-53.  At d = 1 and 7 that is every slot, as u = 0
        # gives in exact arithmetic
        beta0 = beta_for(d + 1)
        floor = [0] + [1 + slot for slot in
                       oracles.decode_exact(2.0 ** -53, beta0, d)]
        if d <= 7:
            assert floor == list(range(d + 1))
        u = [0.0] + [built_uniform(beta0, d, (0, 1, 2, 3, 4, 700))] * (
            d >= 882)
        assert decoded(np.array(u), beta0, d + 1) == [
            (row, slot) for row in range(len(u)) for slot in floor]

    @pytest.mark.parametrize("d", [1, 7, 882, 5906])
    def test_decode_near_the_gap_edges(self, d):
        # 6 000 consecutive doubles around each of the first three gap
        # edges 1 - (1 - beta0)^k, where the running uniform at a zero
        # rounds to either side of [0, 1) and is clamped to
        # [2^-53, 1 - 2^-53]; warnings are errors here, u = 0 and
        # 1 - 2^-53 join them.  Each row's zeros rise within 0 .. d, no run
        # of consecutive zeros outlasts the climb from 2^-53 to beta0, and
        # in the first 24 slots at most 20 rows an edge differ from the
        # exact inverse CDF (measured 0-14, the doubles nearest an edge)
        beta0 = beta_for(d + 1)
        edges = [-math.expm1(k * math.log1p(-beta0)) for k in (1, 2, 3)]
        near = [(np.arange(-3000, 3000) + np.float64(e).view(np.int64)
                 ).view(np.float64) for e in edges]
        u = np.concatenate(near + [[0.0, 1 - 2 ** -53]])
        rows, slots = _decode_tuples(u, beta0, d + 1)
        order = np.lexsort((slots, rows))
        rows, slots = rows[order], slots[order]
        same = rows[1:] == rows[:-1]
        assert np.all(slots[1:][same] > slots[:-1][same])
        assert slots.min() >= 0 and slots.max() <= d
        run = np.flatnonzero(~(same & (slots[1:] == slots[:-1] + 1)))
        assert np.diff(run, prepend=-1).max() <= min(
            d + 1, math.log(2.0 ** -53) / math.log(beta0) + 2)
        width = min(24, d + 1)
        got = [[] for _ in u]
        for row, slot in zip(rows.tolist(), slots.tolist()):
            if slot < width:
                got[row].append(slot)
        for edge in range(3):
            at = range(6000 * edge, 6000 * (edge + 1))
            assert sum(got[i] != oracles.decode_exact(float(u[i]), beta0,
                                                      width)
                       for i in at) <= 20

    @pytest.mark.parametrize("d", [10 ** 13, 10 ** 15])
    def test_decode_passes_stay_few_at_huge_capacity(self, d, monkeypatch):
        # doubles around the gap edges 1 - (1 - beta0)^k at k = 1, 2, 3,
        # (d+1)/2 and d, where rounding puts a zero's running uniform at or
        # below 0: clamped to 2^-53 it climbs back above beta0 within a
        # few zeros, so the passes (one np.log1p each) stay few although
        # d + 1 slots are decoded.  Held at 0 it would hold a zero at each
        # of the ~d slots left, a pass each
        beta0 = beta_for(d + 1)
        edges = [-math.expm1(k * math.log1p(-beta0))
                 for k in (1, 2, 3, (d + 1) // 2, d)]
        u = np.concatenate([(np.arange(-3000, 3000) + np.float64(e).view(
            np.int64)).view(np.float64) for e in edges])
        passes = []
        log1p = np.log1p

        def counted(x):
            passes.append(len(x))
            assert len(passes) <= 10, "the decoder makes more than 10 passes"
            return log1p(x)

        monkeypatch.setattr(np, "log1p", counted)
        rows, slots = _decode_tuples(u, beta0, d + 1)
        assert 2 <= len(passes) <= 10 and slots.max() <= d
        assert np.bincount(rows).max() == len(passes) - 1

    @pytest.mark.parametrize("width", [1, 2, 442, 883])
    def test_decode_a_prefix_against_the_oracle(self, width):
        # the zeros of the first width slots of the tuples at d = 882
        beta0 = beta_for(883)
        u = SeedStream(23).uniforms("u", 0, 30000)[:, 0]
        want = np.empty((len(u), 883), dtype=np.uint8)
        oracles.decode_tuples_oracle(u, beta0, want)
        assert decoded(u, beta0, width) == zeros_of(want, width)

    @pytest.mark.parametrize("d", [5906, 26_795_114])
    def test_wide_tuples_decode_only_the_dealt_slots(self, d):
        # the capacities of mu:0.3,0.5 and of mu:0.3,0.6999 (at 1e5): the
        # K (d+1) bits, ~4.6 MB and ~21 GB here, are never held, only the
        # zeros of all d+1 slots; the column oracle agrees on the slots
        # the matching deals to a valid tuple, 0 .. the largest partner
        # count of a valid a
        w = Window(0, fair_stream(10 ** 5, 5))
        z = special_sequence(w)
        assignment = meshalkin_match(z, d)
        bits = w.values[z.values]
        tracemalloc.start()
        try:
            split = psi_split(bits, d, 16, SeedStream(7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert split.slots.max() <= d
        kept = split.valid[assignment.run_ranks]
        width = int(np.bincount(assignment.run_ranks[kept],
                                weights=assignment.run_lengths[kept]
                                ).max()) + 1
        assert width < 3000
        u = _window_uniforms(bits, 16, SeedStream(7)._key(
            "|split-code").tobytes())
        want = np.empty((len(u), width), dtype=np.uint8)
        oracles.decode_tuples_oracle(u, beta_for(d + 1), want)
        got = sorted((r - 16, s) for r, s in zip(split.ranks.tolist(),
                                                 split.slots.tolist())
                     if s < width)
        assert got == zeros_of(want, width)
        if d == 5906:
            assert len(got) >= 3      # zeros to compare

    @pytest.mark.parametrize("radius, K", [
        (0, 1), (3, 7), (3, 8), (16, 33), (16, 500), (64, 129), (64, 3001)])
    @pytest.mark.parametrize("label", ["|split-code", "other"])
    def test_window_uniforms_equal_per_row_hash(self, radius, K, label):
        # K = 2 radius + 1 is a single window
        key = SeedStream(5)._key(label).tobytes()
        bits = fair_stream(K, K)
        u = _window_uniforms(bits, radius, key)
        ref = oracles.window_uniforms_oracle(bits, radius, key)
        assert u.dtype == ref.dtype and len(u) == K - 2 * radius
        assert u.tobytes() == ref.tobytes()

    def test_cross_tuple_decorrelation(self):
        n = 10 ** 5 + 32
        out = psi_split(fair_stream(n, 17), 7, 16, SeedStream(7))
        T = oracles.tuple_matrix(out, 7)[out.valid].astype(float)
        for col in range(T.shape[1]):
            assert abs(serial_correlations(T[:, col], 1)[0]) < 0.01


def run_stages(w: Window, q: float, radius: int = 16):
    """The post-sampling pipeline stages, returned as the output window."""
    d = required_d(q)
    z = special_sequence(w)
    assignment = meshalkin_match(z, d)
    split = psi_split(w.values[z.values], d, radius, SeedStream(7))
    return spread_bits(w, assignment, split)


class TestSpreadBits:
    def test_every_block_good_full_interior_coverage(self):
        reps = 200
        w = Window(0, np.array([0, 1, 1, 0, 1, 0, 1, 1] * reps, dtype=np.uint8))
        out = run_stages(w, q=1 / 128, radius=4)
        mask = out.values < 0
        # all censoring is explained by the code radius at the stream edges
        specials = special_rows(w)[:, 0]
        lo, hi = specials[4], specials[-5]
        inner = slice(int(lo), int(hi))
        assert not mask[inner].any()

    def test_no_specials_all_censored(self):
        w = Window(0, np.ones(64, dtype=np.uint8))
        out = run_stages(w, q=1 / 128)
        assert (out.values < 0).all()

    def test_output_values_are_bits_or_censored(self):
        w = sample_window(iid_binary(0.5), (0, 20000), SeedStream(4))
        q = good_prob_lower(iid_binary(0.5).block(0, 20008), (0, 20000))
        out = run_stages(w, q=q)
        assert set(np.unique(out.values)) <= {-1, 0, 1}


class TestUniformitySuiteSmallInputs:
    @pytest.mark.parametrize("bits, failing", [
        ([1, 1], {"chi_square_3_blocks", "serial_correlation"}),
        ([1], {"chi_square_3_blocks", "serial_correlation"}),
        ([1] * 1000, {"frequency", "chi_square_3_blocks", "serial_correlation"}),
    ])
    def test_untestable_inputs_fail_with_reason(self, bits, failing):
        by_name = {r["name"]: r for r in uniformity_suite(bits, 0.5)}
        assert {n for n, r in by_name.items() if not r["pass"]} == failing
        # a test that could not be carried out says why
        assert by_name["serial_correlation"]["reason"]
        if len(bits) < 3:
            assert by_name["chi_square_3_blocks"]["reason"]


class TestMatchWindow:
    def test_window_equals_sample_window(self):
        m, span = make_nu_c(0.1), (-50, 949)
        w = match_window(m, span, SeedStream(5), "x")[0]
        ref = sample_window(m, span, SeedStream(5), "x")
        assert w.start == ref.start
        assert np.array_equal(w.values, ref.values)

    def test_drops_block(self, monkeypatch):
        # holding the block through the special sequence or the matching
        # raises the commands' peak memory; the rows array is watched as
        # well as its Window, since a sub-block view would keep it alive
        refs = {}

        def kept(name, fn):
            def wrapper(*args):
                out = fn(*args)
                refs[name] = (weakref.ref(out), weakref.ref(out.values))
                return out
            return wrapper

        def after_release(name, fn):
            def wrapper(*args):
                assert all(r() is None for r in refs[name]), \
                    f"{name} still alive"
                return fn(*args)
            return wrapper

        monkeypatch.setattr(FiniteProductMeasure, "block",
                            kept("block", FiniteProductMeasure.block))
        monkeypatch.setattr(factor, "special_sequence", after_release(
            "block", kept("seq", factor.special_sequence)))
        monkeypatch.setattr(factor, "meshalkin_match",
                            after_release("block", factor.meshalkin_match))
        match_window(make_nu_c(0.1), (0, 999), SeedStream(7), "x")
        assert set(refs) == {"block", "seq"}


# recorded from the lexsort slot lookup and the column-at-a-time decoder,
# on uniforms of one Philox word a coordinate: the output window of
# run_iid_factor over 0 .. 199999, bit for bit.  The ids leave the digest
# out, so a re-recorded pin keeps its test's name
OUTPUT_DIGESTS = [
    pytest.param("iid:0.3", 7,
                 "f28929bea0f90fa26e5a10c24d0a4dafeade973ad0ee493bc627d0145911a4f7",
                 id="iid:0.3-7"),
    pytest.param("mu:0.3,0.5", 3,
                 "9948e46cd073ca7098a2cf561fc26eefa13525f6a1c8f74610e05f6025f02df8",
                 id="mu:0.3,0.5-3"),
]


class TestRunIidFactor:
    @pytest.mark.parametrize("measure, seed, digest", OUTPUT_DIGESTS)
    def test_output_digest(self, measure, seed, digest):
        out, _ = run_iid_factor(parse_measure(measure), (0, 199999),
                                SeedStream(seed))
        assert hashlib.sha256(out.values.tobytes()).hexdigest() == \
            digest

    @pytest.mark.parametrize("measure, seed, digest", OUTPUT_DIGESTS)
    def test_deals_from_the_runs_alone(self, measure, seed, digest,
                                       no_per_b_columns):
        # the same windows with every per-b column of the matching refused
        out, _ = run_iid_factor(parse_measure(measure), (0, 199999),
                                SeedStream(seed))
        assert hashlib.sha256(out.values.tobytes()).hexdigest() == \
            digest

    def test_doeblin_violation_rejected(self):
        m = FiniteProductMeasure(
            marginals=lambda n: (1.0, 0.0))
        with pytest.raises(ValueError, match="Doeblin"):
            run_iid_factor(m, (0, 999), SeedStream(7))

    def test_diagnostics_schema(self):
        _, d = run_iid_factor(iid_binary(0.5), (0, 2 * 10 ** 5 - 1), SeedStream(7))
        assert d["q"] == pytest.approx(1 / 128)
        assert d["d"] == 1024
        assert 0.0 <= d["censor_fraction"] < 0.1
        assert {t["name"] for t in d["tests"]} == \
            {"frequency", "chi_square_3_blocks", "serial_correlation"}

    def test_uniformity_at_moderate_scale(self):
        _, d = run_iid_factor(iid_binary(0.5), (0, 2 * 10 ** 5 - 1), SeedStream(7))
        assert all(t["pass"] for t in d["tests"])

    def test_pipeline_translation_equivariance(self):
        m = iid_binary(0.3)
        q = good_prob_lower(m.block(0, 30007), (0, 29999))
        w = sample_window(m, (0, 29999), SeedStream(6))
        out0 = run_stages(w, q)
        out1 = run_stages(Window(w.start + 35, w.values), q)
        assert out1.start == out0.start + 35
        assert np.array_equal(out0.values, out1.values)

    def test_half_stationary_positive_side(self):
        # non-stationary input: the bond-bias sum stays finite and the
        # interior output still passes the uniformity suite
        m = make_nu_c(1 / 6)
        assert bias_sum(m, 10 ** 4) < 0.1
        _, d = run_iid_factor(m, (1, 2 * 10 ** 5), SeedStream(7), radius=16)
        assert d["censor_fraction"] < 0.05
        assert all(t["pass"] for t in d["tests"])

    def test_perturbed_family_accepted(self):
        m = make_mu_pc(0.4, 0.5, lambda n: np.where(np.isin(n, (3, 4)), 0.5, 0.0))
        _, d = run_iid_factor(m, (0, 10 ** 5 - 1), SeedStream(7), radius=16)
        assert d["censor_fraction"] < 0.1
