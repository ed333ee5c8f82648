"""Product-measure families, RN diagnostics, and the RI/RPM operations."""
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import (bias_square_terms_oracle, block_law_oracle,
                     block_oracle, check_decay, forget_coin,
                     kakutani_terms_oracle,
                     log_rn_shift_oracle, log_rn_swap, log_rn_swap_oracle,
                     ri)
from shiftlab import (FiniteProductMeasure, HMapSpec, SeedStream, Window,
                      ZeroMassError, doeblin_delta, f_family, g_family,
                      good_prob_lower, iid, iid_binary, inverse_sqrt,
                      log_damped, log_rn_shift, make_mu_pc, make_nu_c,
                      mix_disjoint, parse_measure, rpm,
                      sample_density_window, sample_window, shift_family)
from shiftlab import sampling
from shiftlab.factor import bias_square_terms
from shiftlab.measures import (block_law, block_rows, centred_sum,
                               kakutani_terms, nu_c_zero_mass, sum_with_tail)
from shiftlab.typeiii import TypeIIISpec

# Brute-force oracle value: sum over |n| <= 1e5 of the squared marginal
# increments of nu^{0.1} at shift 1, recorded to full precision.
KAKUTANI_NU01_K1_N1E5 = 0.011163742489553473


# One instance of every built-in family; mu clamps at n = 1 (p + a_1 = 1.5).
BUILTIN_FAMILIES = {
    "iid": iid((0.2, 0.3, 0.5)),
    "nu_c": make_nu_c(0.2),
    "mu": make_mu_pc(0.5, 1.0, inverse_sqrt),
    "rpm": rpm(make_mu_pc(0.3, 0.5, inverse_sqrt), 0.6, (0.2, 0.8)),
    "ri": ri(make_nu_c(0.2), 0.6, (0.2, 0.8)),
    "forget_coin": forget_coin(ri(make_nu_c(0.2), 0.6, (0.2, 0.8))),
}


@pytest.mark.parametrize("case", [*BUILTIN_FAMILIES, "inverse_sqrt",
                                  "log_damped"])
def test_block_matches_pointwise(case):
    """Each vectorized definition equals its per-index value, bit for bit,
    and raises no numpy warning (non-positive indices included)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if case == "inverse_sqrt":
            k = np.arange(-10 ** 5, 10 ** 5)
            got = inverse_sqrt(k)
            want = [1 / math.sqrt(i) if i >= 1 else 0.0 for i in k.tolist()]
        elif case == "log_damped":
            # np.log first differs from math.log by 1 ulp at n = 9 166
            # (numpy 2.4, AVX-512); every pinned range lies below it
            k = np.arange(-10, 9166)
            got = log_damped(k)
            want = [1 / ((i + 4) * math.log(i + 4)) if i >= 2 else 0.0
                    for i in k.tolist()]
        else:
            m = BUILTIN_FAMILIES[case]
            got = m.block(-5, 20).values
            want = [m.table(n) for n in range(-5, 15)]
    assert np.array_equal(got, want)


class TestNuC:
    def test_indicator_active(self):
        m = make_nu_c(1 / 6)
        assert m.table(1)[0] == pytest.approx(2 / 3, abs=1e-15)

    def test_indicator_fails_at_half(self):
        m = make_nu_c(1.0)
        assert m.table(1)[0] == pytest.approx(0.5, abs=0)

    def test_nonpositive_index_is_fair(self):
        m = make_nu_c(1 / 6)
        assert m.table(0)[0] == pytest.approx(0.5, abs=0)
        assert m.table(-37)[0] == pytest.approx(0.5, abs=0)

    def test_rejects_nonpositive_c(self):
        with pytest.raises(ValueError):
            make_nu_c(0.0)


class TestMuPC:
    def test_clamp_rule(self):
        m = make_mu_pc(0.5, 1.0, inverse_sqrt)
        # p + a_1 = 1.5 > 1, so index 1 falls back to p
        assert m.table(1)[0] == pytest.approx(0.5, abs=0)

    def test_unperturbed(self):
        m = make_mu_pc(0.3, 1.0, lambda n: np.zeros(np.shape(n)))
        for n in (-4, 0, 9):
            assert tuple(m.table(n)) == pytest.approx((0.3, 0.7), abs=1e-15)

    def test_direct_substitution(self):
        m = make_mu_pc(0.5, 0.2, inverse_sqrt)
        assert m.table(4)[0] == pytest.approx(0.6, abs=1e-15)

    def test_boundary_values_clamp(self):
        # p + c a_n = 1 exactly is clamped (closed condition keeps masses positive)
        m = make_mu_pc(0.5, 1.0, lambda n: np.where(n == 3, 0.5, 0.0))
        assert m.table(3)[0] == pytest.approx(0.5, abs=0)


class TestDoeblin:
    def test_iid_constant(self):
        assert doeblin_delta(iid_binary(0.3).block(-50, 101)) == pytest.approx(0.3)

    def test_nu_sixth_over_million(self):
        # enumeration oracle: the minimum mass of nu^{1/6} sits at n = 1
        m = make_nu_c(1 / 6)
        n = np.arange(-10 ** 6, 10 ** 6 + 1)
        a = nu_c_zero_mass(n, 1 / 6)
        oracle = float(np.minimum(0.5 + a, 0.5 - a).min())
        assert oracle == pytest.approx(1 / 3, abs=1e-15)
        assert doeblin_delta(m.block(-10 ** 6, 2 * 10 ** 6 + 1)) == pytest.approx(oracle, abs=0)

    def test_zero_mass_flags(self):
        m = iid((1.0, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert doeblin_delta(m.block(0, 6)) == 0.0

    @pytest.mark.parametrize("m", [
        iid_binary(0.3), make_nu_c(0.1), make_mu_pc(0.3, 0.5, inverse_sqrt),
        iid((-0.0, 1.0)), FiniteProductMeasure(
            lambda n: np.where(np.asarray(n)[..., None] == 3, (1.0, 0.0),
                               (0.4, 0.6)))],
        ids=["iid", "nu_c", "mu", "iid-negative-zero", "zero-at-3"])
    def test_equals_the_full_read(self, m):
        # one pass, or one row of a broadcast block, gives what a read of
        # every mass gives, and +0.0 at a zero (or -0.0) mass
        full = block_oracle(m, -1000, 2001)
        want = 0.0 if np.any(full == 0.0) else float(full.min())
        got = doeblin_delta(m.block(-1000, 2001))
        assert got == want
        assert math.copysign(1.0, got) == 1.0

    def test_reads_one_row_of_a_broadcast_block(self):
        block = iid_binary(0.3).block(-2000008, 4000010)
        tracemalloc.start()
        try:
            delta = doeblin_delta(block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert delta == 0.3
        assert peak < 1 << 20


def terms_of(m, k, N):
    """kakutani_terms over a block of exactly the indices n and n-k reach."""
    lo = -N - max(k, 0)
    return kakutani_terms(m.block(lo, 2 * N + 1 + abs(k)), k, N, m)


def kakutani_sum(m, k, N):
    return float(np.sum(terms_of(m, k, N)))


class TestKakutaniShiftSum:
    def test_iid_is_zero(self):
        m = iid_binary(0.42)
        for k in (1, 3, 7):
            assert kakutani_sum(m, k, 500) == 0.0

    def test_k_zero(self):
        assert kakutani_sum(make_nu_c(0.3), 0, 100) == 0.0

    def test_frozen_oracle_value(self):
        val = kakutani_sum(make_nu_c(0.1), 1, 10 ** 5)
        assert val == pytest.approx(KAKUTANI_NU01_K1_N1E5, abs=5e-12)

    def test_monotone_in_N(self):
        m = make_nu_c(0.3)
        vals = [kakutani_sum(m, 2, N) for N in (10, 100, 1000, 10000)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_zero_iff_k_periodic(self):
        period = np.array([0.3, 0.5, 0.7])
        m = iid_binary(0.5)
        periodic = type(m)(
            marginals=lambda n: np.stack([period[n % 3], 1 - period[n % 3]],
                                         axis=-1))
        assert kakutani_sum(periodic, 3, 200) == 0.0
        assert kakutani_sum(periodic, 1, 200) > 0.0

    def test_report_has_tail(self):
        value, tail = sum_with_tail(terms_of(make_nu_c(0.1), 1, 1000))
        assert value >= tail >= 0.0

    def test_partial_sum_beyond_terms_is_refused(self):
        terms = terms_of(make_nu_c(0.1), 1, 10)
        assert centred_sum(terms, 0) == terms[10]
        with pytest.raises(ValueError, match="outside"):
            centred_sum(terms, 11)

    def test_short_block_is_refused(self):
        # N = 10 reads the block's indices -10 .. 10; the lag comes from
        # the measure where the block does not hold it
        m = make_nu_c(0.1)
        with pytest.raises(ValueError, match=r"misses -10 \.\. -10 and "
                                             r"10 \.\. 10$"):
            kakutani_terms(m.block(-9, 19), 2, 10, m)
        three = iid((0.2, 0.3, 0.5))
        with pytest.raises(ValueError, match="two-symbol"):
            kakutani_terms(three.block(-12, 23), 2, 10, three)


def kakutani_two_blocks(m, k, N):
    """Oracle: one block at the current indices and one at the lagged ones."""
    if k == 0:
        return 0.0
    cur = m.block(-N, 2 * N + 1).values[:, 0]
    lag = m.block(-N - k, 2 * N + 1).values[:, 0]
    return float(np.sum((cur - lag) ** 2))


def bias_square_at(m, N):
    """Oracle: the bias-square sum evaluated at N alone."""
    p = m.block(-N, 2 * N + 2).values[:, 0]
    p01 = p[:-1] * (1.0 - p[1:])
    p10 = (1.0 - p[:-1]) * p[1:]
    return float(np.sum((p01 / (p01 + p10) - 0.5) ** 2))


TERM_MEASURES = {
    "nu_c(0.1)": make_nu_c(0.1),
    "nu_c(0.3)": make_nu_c(0.3),
    "mu(0.3,0.5)": make_mu_pc(0.3, 0.5, inverse_sqrt),
    "mu(0.6,-0.2)": make_mu_pc(0.6, -0.2, inverse_sqrt),
    "iid(0.3)": iid_binary(0.3),
}


@pytest.mark.parametrize("name", sorted(TERM_MEASURES))
@pytest.mark.parametrize("k", [-3, -1, 0, 1, 2, 8])
def test_kakutani_partial_sums_equal_two_block_oracle(name, k):
    """Every partial sum `measure check` reads off the term array (value,
    tail, decade series) equals the two-block sum at that N exactly."""
    m = TERM_MEASURES[name]
    for N in (1, 9, 10, 999, 10 ** 5):
        terms = terms_of(m, k, N)
        assert len(terms) == 2 * N + 1
        value, tail = sum_with_tail(terms)
        assert value == kakutani_two_blocks(m, k, N)
        assert value == kakutani_sum(m, k, N)
        assert tail == value - kakutani_two_blocks(m, k, max(N // 10, 1))
        decades = [10 ** e for e in range(1, int(math.log10(N)) + 1)]
        for dn in decades:
            assert centred_sum(terms, dn) == kakutani_two_blocks(m, k, dn)


@pytest.mark.parametrize("name", sorted(TERM_MEASURES))
@pytest.mark.parametrize("k", [-10 ** 12, -3, 0, 8, 10 ** 12])
def test_kakutani_terms_from_a_lag_block(name, k, monkeypatch):
    """Given the measure, a lag whose rows the block does not hold (every
    k but 0 here) reads them from it, one lag block of BLOCK_ROWS rows at a
    time.  Its terms equal the one-block terms, sum to the two-block oracle
    at any lag, and do not depend on the piece length."""
    m, N = TERM_MEASURES[name], 999
    terms = kakutani_terms(m.block(-N, 2 * N + 1), k, N, m)
    assert float(np.sum(terms)) == kakutani_two_blocks(m, k, N)
    if abs(k) < 10:
        assert np.array_equal(terms, terms_of(m, k, N))
    for chunk in (1, 7, 2 * N, 2 * N + 1):
        monkeypatch.setattr("shiftlab.sampling.BLOCK_ROWS", chunk)
        assert np.array_equal(
            kakutani_terms(m.block(-N, 2 * N + 1), k, N, m), terms)


@pytest.mark.parametrize("name", sorted(TERM_MEASURES))
def test_bias_square_partial_sums_equal_oracle(name):
    m = TERM_MEASURES[name]
    for N in (1, 9, 10, 999, 10 ** 5):
        p = m.block(-N, 2 * N + 2)
        value, tail = sum_with_tail(bias_square_terms(p, N))
        assert value == bias_square_at(m, N)
        assert tail == value - bias_square_at(m, max(N // 10, 1))


class TestBlockRows:
    def test_sub_block(self):
        m = make_nu_c(0.1)
        block = m.block(-7, 20)
        sub = block_rows(block, -3, 5)
        assert sub.start == -3
        assert np.array_equal(sub.values, block.values[4:13])
        assert np.array_equal(sub.values, m.table(np.arange(-3, 6)))

    def test_miss_is_refused(self):
        block = make_nu_c(0.1).block(-7, 20)
        with pytest.raises(ValueError, match=r"^block over indices -7 \.\. 12 "
                           r"misses -9 \.\. -8 and 13 \.\. 14$"):
            block_rows(block, -9, 14)


@pytest.mark.parametrize("spec", ["iid:0.3", "nu_c:0.1", "mu:0.3,0.5"])
def test_diagnostics_read_rows_by_index(spec):
    """Each diagnostic gives the same result from the exact block it reads
    and from blocks 1 or 17 rows longer on either side, and refuses a block
    one row short.  doeblin_delta reads every row it is given, so it gets
    its rows through block_rows, as `measure check` does.  kakutani_terms
    needs only the rows -N .. N: it reads the lag from the measure, or
    from a block 17 rows longer on the left, which holds it."""
    m, N, k, span = parse_measure(spec), 50, 3, (-20, 30)
    reads = [
        (lambda b: doeblin_delta(block_rows(b, -N, N)), -N, N),
        (lambda b: kakutani_terms(b, k, N, m), -N, N),
        (lambda b: bias_square_terms(b, N), -N, N + 1),
        (lambda b: good_prob_lower(b, span), span[0], span[1] + 7),
    ]
    for read, first, last in reads:
        length = last - first + 1
        want = read(m.block(first, length))
        for left, right in itertools.product((0, 1, 17), repeat=2):
            got = read(m.block(first - left, length + left + right))
            assert np.array_equal(got, want)
        for short in (m.block(first + 1, length - 1),
                      m.block(first, length - 1)):
            with pytest.raises(ValueError, match="misses"):
                read(short)


# Every built-in family, and its binary members with an i.i.d. binary
# measure in place of the three-symbol one, for the term fills
FILL_FAMILIES = {**BUILTIN_FAMILIES, "iid_binary": iid_binary(0.3)}
BINARY_FAMILIES = {name: m for name, m in FILL_FAMILIES.items()
                   if m.table(0).shape == (2,)}


@pytest.fixture(params=[None, 1, 7], ids=["default", "rows1", "rows7"])
def fill_lengths(request, monkeypatch):
    """The lengths a fill is checked at, 1, BLOCK_ROWS +- 1 and
    3 BLOCK_ROWS + 5, at the default BLOCK_ROWS and with it patched to 1
    and 7 rows."""
    if request.param is not None:
        monkeypatch.setattr(sampling, "BLOCK_ROWS", request.param)
    rows = sampling.BLOCK_ROWS
    return sorted({1, rows - 1, rows + 1, 3 * rows + 5} - {0})


def fair_but(rows: dict) -> FiniteProductMeasure:
    """A binary measure fair at every index but the keys of ``rows``,
    which get their values as their rows."""
    def marginals(n):
        n = np.asarray(n)
        p = np.full(n.shape + (2,), 0.5)
        for index, row in rows.items():
            p[n == index] = row
        return p

    return FiniteProductMeasure(marginals)


class TestBlockFills:
    """``block``, ``kakutani_terms`` and ``bias_square_terms`` fill one
    array BLOCK_ROWS rows at a time; each equals its whole-array oracle
    byte for byte and names a bad row in a later piece as one whole-array
    check does."""

    @pytest.mark.parametrize("name", sorted(FILL_FAMILIES))
    def test_block(self, name, fill_lengths):
        m = FILL_FAMILIES[name]
        for length in fill_lengths:
            got = m.block(-20, length)
            want = block_oracle(m, -20, length)
            assert got.start == -20
            assert got.values.shape == want.shape
            assert np.ascontiguousarray(got.values).tobytes() == \
                want.tobytes()

    def test_a_view_of_equal_rows_is_not_one_row(self, fill_lengths):
        # marginals may return a broadcast view where its rows agree, here
        # on n <= 0, where nu_c is fair; only a 1-D return is one row for
        # every index, so the rows from 1 on are still read
        nu = make_nu_c(0.2)

        def marginals(n):
            n = np.asarray(n)
            if (n <= 0).all():
                return np.broadcast_to((0.5, 0.5), n.shape + (2,))
            return nu.marginals(n)

        m = FiniteProductMeasure(marginals)
        for length in fill_lengths:
            start = -sampling.BLOCK_ROWS
            want = block_oracle(m, start, length + sampling.BLOCK_ROWS)
            got = m.block(start, length + sampling.BLOCK_ROWS).values
            assert np.ascontiguousarray(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["iid", "iid_binary"])
    def test_an_iid_block_is_one_broadcast_row(self, name, fill_lengths):
        # the one row marginals returns, read-only, at every index
        m = FILL_FAMILIES[name]
        for length in fill_lengths:
            values = m.block(-20, length).values
            assert values.strides[0] == 0
            assert not values.flags.writeable
            assert np.array_equal(values[0], m.marginals(0))

    def test_an_iid_block_holds_one_row(self):
        tracemalloc.start()
        try:
            block = iid_binary(0.3).block(0, 10 ** 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(block) == 10 ** 7
        assert peak < 1 << 20

    @pytest.mark.parametrize("name", sorted(BINARY_FAMILIES))
    @pytest.mark.parametrize("k", [0, 3, -5, 10 ** 12],
                             ids=["zero", "held", "negative", "far"])
    def test_kakutani_terms(self, name, k, fill_lengths):
        # the block over every row n and n-k reach holds the lag; the
        # block over -N .. N alone reads the pieces it does not hold from
        # the measure
        m = BINARY_FAMILIES[name]
        for length in fill_lengths:
            N = length // 2
            want = kakutani_terms_oracle(m, k, N).tobytes()
            if abs(k) < 10:
                lo = -N - max(k, 0)
                held = m.block(lo, 2 * N + 1 + abs(k))
                assert kakutani_terms(held, k, N, m).tobytes() == want
            alone = m.block(-N, 2 * N + 1)
            assert kakutani_terms(alone, k, N, m).tobytes() == want

    @pytest.mark.parametrize("name", sorted(BINARY_FAMILIES))
    def test_bias_square_terms(self, name, fill_lengths):
        m = BINARY_FAMILIES[name]
        for length in fill_lengths:
            N = length // 2
            got = bias_square_terms(m.block(-N, 2 * N + 2), N)
            assert got.tobytes() == bias_square_terms_oracle(m, N).tobytes()

    @pytest.mark.parametrize("rows, message", [
        ({2: (-0.1, 1.1)}, "non-finite or negative mass in marginal at "
                           "index {}$"),
        ({2: (0.5, 0.4)}, "marginal at index {} sums to 0.9, not 1$"),
        # in one piece a non-finite mass is named before a wrong sum
        ({1: (0.5, 0.4), 2: (np.nan, 0.5)},
         "non-finite or negative mass in marginal at index {}$"),
    ], ids=["negative", "sum", "sum-then-non-finite"])
    @pytest.mark.parametrize("rows_a_piece", [7, None])
    def test_a_bad_row_in_a_later_piece(self, monkeypatch, rows, message,
                                        rows_a_piece):
        # the bad rows sit at -20 + 2 * BLOCK_ROWS + 1 + r, r the keys, all
        # in piece 2; the one at r = 2 is named
        if rows_a_piece:
            monkeypatch.setattr(sampling, "BLOCK_ROWS", rows_a_piece)
        step = sampling.BLOCK_ROWS
        m = fair_but({-20 + 2 * step + 1 + r: row for r, row in rows.items()})
        at = -20 + 2 * step + 3
        with pytest.raises(ValueError) as whole:
            block_oracle(m, -20, 3 * step + 5)
        with pytest.raises(ValueError, match=message.format(at)) as pieces:
            m.block(-20, 3 * step + 5)
        assert str(pieces.value) == str(whole.value)

    @pytest.mark.parametrize("rows_a_piece", [7, None])
    def test_a_degenerate_bond_in_a_later_piece(self, monkeypatch,
                                                rows_a_piece):
        if rows_a_piece:
            monkeypatch.setattr(sampling, "BLOCK_ROWS", rows_a_piece)
        N = 2 * sampling.BLOCK_ROWS
        i = -N + 2 * sampling.BLOCK_ROWS + 3
        m = fair_but({i: (1.0, 0.0), i + 1: (1.0, 0.0),
                      i + 9: (0.0, 1.0), i + 10: (0.0, 1.0)})
        with pytest.raises(ZeroMassError) as whole:
            bias_square_terms_oracle(m, N)
        with pytest.raises(ZeroMassError, match=rf"^degenerate marginals "
                           rf"at bond \({i}, {i + 1}\)$") as pieces:
            bias_square_terms(m.block(-N, 2 * N + 2), N)
        assert str(pieces.value) == str(whole.value)


class TestLogRN:
    def test_iid_shift_is_zero(self):
        m = iid_binary(0.3)
        w = sample_window(m, (-30, 30), SeedStream(11))
        for k in (1, 2, 5):
            assert log_rn_shift(m, k, w) == pytest.approx(0.0, abs=0)

    def test_f_family_single_coordinate(self):
        lam = 0.25
        fam = f_family(TypeIIISpec(lam))
        allowed = {math.log(lam), 0.0, -math.log(lam)}
        for n in (2, 3, 7):
            for u in (0.001, 0.01, 0.5, 0.995, 0.9999):
                w = Window(n, np.array([u]))
                val = log_rn_shift(fam, 1, w)
                assert min(abs(val - t) for t in allowed) < 1e-12

    def test_nu_sixth_window_oracle(self):
        m = make_nu_c(1 / 6)
        w = sample_window(m, (1, 20), SeedStream(5))
        # independent route: one log of the two cylinder mass products
        num = den = 1.0
        for n, x in zip(range(w.start, w.stop), w.values):
            num *= m.table(n - 1)[int(x)]
            den *= m.table(n)[int(x)]
        assert log_rn_shift(m, 1, w) == pytest.approx(math.log(num / den), rel=1e-12)

    def test_zero_mass_raises(self):
        m = iid((1.0, 0.0))
        w = Window(0, np.array([1]))
        with pytest.raises(ZeroMassError, match=r"index -1 \(symbol 1\)"):
            log_rn_shift(m, 1, w)

    def test_swap_rows_with_i_equal_j_are_zero(self):
        # row 1 is off the support but has i == j; row 2 reads f_5(1.5) = 0
        fam = f_family(TypeIIISpec(0.25))
        i, j = np.array([2, 3, 4]), np.array([9, 3, 5])
        xi, xj = np.array([0.5, 7.0, 1.5]), np.full(3, 0.5)
        assert log_rn_swap(fam, i[:2], j[:2], xi[:2], xj[:2])[1] == 0.0
        with pytest.raises(ZeroMassError, match=r"index 5 \(symbol 1\.5\)"):
            log_rn_swap(fam, i, j, xi, xj)

    def test_swap_reads_only_its_indices(self):
        seen = []

        def marginals(n):
            seen.extend(np.ravel(n).tolist())
            return (0.3, 0.7)

        m = FiniteProductMeasure(marginals)
        val = log_rn_swap(m, 2, 10 ** 9, 0, 1)
        assert type(val) is float and val == pytest.approx(0.0, abs=1e-15)
        assert sorted(seen) == [2, 2, 10 ** 9, 10 ** 9]

    def test_swap_identity_and_equal_values(self):
        m = iid_binary(0.3)
        assert log_rn_swap(m, 4, 4, 0, 1) == 0.0
        assert log_rn_swap(m, 2, 9, 1, 1) == pytest.approx(0.0, abs=0)

    def test_swap_f_family_case(self):
        # xi inside A_i but not A_j, xj in the flat region: transposition
        # log-RN equals log(1/lambda) = log 4
        lam = 0.25
        spec = TypeIIISpec(lam)
        fam = f_family(spec)
        i, j = 2, 40
        ai, aj = spec.a_n(i), spec.a_n(j)
        assert aj < ai
        xi = 0.5 * (aj + ai)   # in A_i \ A_j
        xj = 0.5                # outside all A, B intervals
        assert log_rn_swap(fam, i, j, xi, xj) == pytest.approx(math.log(4), rel=1e-12)


LOG_RN_FAMILIES = {
    "iid": iid((0.2, 0.3, 0.5)),
    "nu_c": make_nu_c(1 / 6),
    "mu": make_mu_pc(0.3, 0.5, inverse_sqrt),
    "f_family": f_family(TypeIIISpec(0.25)),
    "g_family": g_family(HMapSpec(0.25, 0.5)),
    "mix_disjoint": mix_disjoint(f_family(TypeIIISpec(0.25)), shift_family(
        f_family(TypeIIISpec(0.4)), -1.0)),
}


@pytest.mark.parametrize("k", [-3, 1, 2, 7])
@pytest.mark.parametrize("name", sorted(LOG_RN_FAMILIES))
def test_log_rn_sums_equal_scalar_oracles(name, k):
    """The array sums equal the coordinate-at-a-time routes on a sampled
    window; the swaps pair each index with the one k later, plus five
    rows with i == j, which are exactly 0."""
    m = LOG_RN_FAMILIES[name]
    sample = sample_window if isinstance(m, FiniteProductMeasure) \
        else sample_density_window
    w = sample(m, (-20, 40), SeedStream(3))
    assert log_rn_shift(m, k, w) == pytest.approx(
        log_rn_shift_oracle(m, k, w), rel=1e-12)
    a = np.arange(max(0, -k), len(w) - max(0, k))
    a, b = np.concatenate([a, a[:5]]), np.concatenate([a + k, a[:5]])
    got = log_rn_swap(m, w.start + a, w.start + b, w.values[a], w.values[b])
    want = [log_rn_swap_oracle(m, w.start + r, w.start + s, w.values[r],
                               w.values[s]) for r, s in zip(a, b)]
    assert got == pytest.approx(want, rel=1e-12)
    assert np.all(got[-5:] == 0.0)


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_block_law_equals_pattern_oracle(k):
    """Each row of a batched call is the pattern-by-pattern product, bit
    for bit; P(1) is not 1 - P(0), so a swapped column shows."""
    p0, p1 = np.random.default_rng(k).random((2, 4, k))
    law = block_law(p0, p1)
    assert law.shape == (4, 2 ** k)
    for row in range(4):
        assert np.array_equal(law[row], block_law_oracle(p0[row], p1[row]))


class TestRPMAndRI:
    def test_example_marginal_formula(self):
        # perturbed family mixed back toward its base: p + q a_n off the
        # clamp set of the original family, exactly
        p, qmix = 0.3, 0.25

        def a(n):
            return np.where(n == 5, 2.9, inverse_sqrt(n))

        m = make_mu_pc(p, 1.0, a)
        mixed = rpm(m, qmix, (p, 1.0 - p))
        for n in range(-3, 10):
            raw = p + a(n)
            expect = p + qmix * a(n) if 0 < raw < 1 else p
            assert mixed.table(n)[0] == pytest.approx(expect, abs=1e-15)

    def test_p_one_keeps_measure(self):
        m = make_nu_c(0.2)
        out = rpm(m, 1.0, (0.5, 0.5))
        assert np.array_equal(out.block(-20, 41).values,
                              m.block(-20, 41).values)

    def test_p_zero_replaces(self):
        out = rpm(make_nu_c(0.2), 0.0, (0.9, 0.1))
        assert np.allclose(out.block(-20, 41).values, [0.9, 0.1], atol=0)

    def test_rpm_linearity_random(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            p0 = rng.uniform(0.05, 0.95)
            c = rng.uniform(0.0, 2.0)
            m = make_mu_pc(p0, c, inverse_sqrt)
            pmix = rng.random()
            alpha = rng.dirichlet((1.0, 1.0))
            n = int(rng.integers(-50, 50))
            got = rpm(m, pmix, alpha).table(n)
            want = pmix * m.table(n) + (1 - pmix) * alpha
            assert np.array_equal(got, want)

    def test_ri_mass_layout(self):
        m = iid_binary(0.3)
        out = ri(m, 1.0, (0.5, 0.5))
        probs = out.table(0)
        assert probs[:2] == pytest.approx([0.3, 0.7], abs=0)
        assert probs[2:] == pytest.approx([0.0, 0.0], abs=0)

    def test_ri_total_mass(self):
        out = ri(make_nu_c(0.3), 0.6, (0.2, 0.8))
        assert out.block(-10, 21).values.sum(axis=1) == pytest.approx(np.ones(21), abs=1e-15)

    def test_forgetting_coin_equals_rpm(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            p0 = rng.uniform(0.05, 0.95)
            m = make_mu_pc(p0, rng.uniform(0, 1.5), inverse_sqrt)
            pmix = rng.random()
            alpha = rng.dirichlet((1.0, 1.0))
            n = int(rng.integers(-30, 30))
            via_ri = forget_coin(ri(m, pmix, alpha)).table(n)
            direct = rpm(m, pmix, alpha).table(n)
            assert np.array_equal(via_ri, direct)


class TestBuiltinSequences:
    def test_perturbations_decay_on_queried_ranges(self):
        for a in (inverse_sqrt, log_damped):
            assert check_decay(a, -500, 500)
            assert a(10 ** 6) < 1e-2

    def test_log_damped_head(self):
        assert log_damped(1) == 0.0
        assert log_damped(2) == pytest.approx(1 / (6 * math.log(6)), rel=1e-15)


class TestParseMeasure:
    def test_round_trip_families(self):
        assert parse_measure("iid:0.3").table(5)[0] == pytest.approx(0.3)
        assert parse_measure("nu_c:0.25").table(1)[0] == pytest.approx(0.75)
        assert parse_measure("mu:0.4,0.1").table(4)[0] == pytest.approx(0.45)

    def test_bad_specs(self):
        for text in ("nope:1", "iid:", "mu:0.4"):
            with pytest.raises(ValueError):
                parse_measure(text)


class TestInvariants:
    def test_normalization_enforced(self):
        from shiftlab import FiniteProductMeasure
        bad = FiniteProductMeasure(
            marginals=lambda n: (0.5, 0.499))
        with pytest.raises(ValueError, match="index 0 sums to 0.999, not 1"):
            bad.table(0)

    def test_normalization_names_the_offending_row(self):
        from shiftlab import FiniteProductMeasure
        bad = FiniteProductMeasure(
            marginals=lambda n: np.array([[.5, .5], [.2, .3]]))
        with pytest.raises(ValueError, match=r"index 1 sums to 0\.5, not 1$"):
            bad.block(0, 2)

    def test_negative_mass_rejected(self):
        from shiftlab import FiniteProductMeasure
        bad = FiniteProductMeasure(
            marginals=lambda n: (-0.1, 1.1))
        with pytest.raises(ValueError, match="negative"):
            bad.table(0)

    def test_non_finite_mass_names_the_offending_row(self):
        from shiftlab import FiniteProductMeasure
        bad = FiniteProductMeasure(
            marginals=lambda n: np.where((n >= 1)[..., None],
                                         (np.inf, 0.5), (0.5, 0.5)))
        with pytest.raises(ValueError, match=r"non-finite or negative mass "
                           r"in marginal at index 1$"):
            bad.block(-2, 5)
