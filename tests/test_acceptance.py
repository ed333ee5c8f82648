"""Acceptance suite: one test per criterion, one printed line per criterion.

Every tolerance is pinned here.  Two sub-criteria are executed faithfully
but expected to fail, with the blocking analysis recorded in the decisions
ledger (outside the package):

  * A05b: lag-1..8 correlations of the extracted bits at threshold 0.01,
    while a 10^6-symbol window yields only ~9k bits (one sigma is already
    ~0.0105, so a correct implementation fails with probability ~0.96);
  * A12a/A12b: the dissipativity partial-sum increment and tail exponent,
    whose stated targets (10^-2 and -c^2/2) contradict the computed sum,
    which grows like 2 c^2 log k rather than the one-sided harmonic lower
    bound c^2 (log k + 1).

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they print.
"""
import itertools
import math

import numpy as np
import pytest

import oracles
import shiftlab as sl
from shiftlab.stattests import serial_correlations
from shiftlab.typeiii import g_pieces

SEED = 7
LAM, LAMP = 0.25, 0.5


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


# -- A01 ---------------------------------------------------------------------

def _marker_mask_all_words(L: int) -> np.ndarray:
    """Bit j of entry w is set iff word w (L bits, MSB first) has a marker
    starting at position j.  Covers every binary word of length L at once."""
    w = np.arange(1 << L, dtype=np.uint32)
    mm = np.zeros_like(w)
    for j in range(L - 2):
        b0 = (w >> (L - 1 - j)) & 1
        b1 = (w >> (L - 2 - j)) & 1
        b2 = (w >> (L - 3 - j)) & 1
        mm |= (((b0 == 0) & (b1 == 1) & (b2 == 1)).astype(np.uint32)) << j
    return mm


def _check_word(word: np.ndarray, starts_expected: list[int]) -> None:
    dec = oracles.decompose_oracle(sl.Window(0, word))
    assert [lo for lo, _ in dec["markers"]] == starts_expected
    if not dec["markers"]:
        return
    tiles = sorted(dec["markers"] + dec["fillers"])
    lo0, hi0 = dec["markers"][0][0], dec["markers"][-1][1]
    cursor = lo0
    for lo, hi in tiles:
        assert lo == cursor and hi >= lo
        cursor = hi + 1
    assert cursor == hi0 + 1


def test_a01_marker_combinatorics_exhaustive():
    """Occurrences of 011 never overlap and the decomposition partitions
    the interior, over all binary words of length <= 20."""
    overlap_words = 0
    for L in range(1, 21):
        mm = _marker_mask_all_words(L)
        overlap_words += int((((mm & (mm >> 1)) | (mm & (mm >> 2))) != 0).sum())
    # decomposition route: exhaustive to length 16, seeded samples beyond
    # (the overlap property above is exhaustive through length 20)
    failures = 0
    for L in range(1, 17):
        mm = _marker_mask_all_words(L)
        for w in range(1 << L):
            word = np.array([(w >> (L - 1 - j)) & 1 for j in range(L)],
                            dtype=np.uint8)
            starts = [j for j in range(L - 2) if (int(mm[w]) >> j) & 1]
            _check_word(word, starts)
    rng = np.random.default_rng(SEED)
    for L in range(17, 21):
        mm = _marker_mask_all_words(L)
        for w in rng.integers(0, 1 << L, size=2000):
            word = np.array([(int(w) >> (L - 1 - j)) & 1 for j in range(L)],
                            dtype=np.uint8)
            starts = [j for j in range(L - 2) if (int(mm[w]) >> j) & 1]
            _check_word(word, starts)
    report("A01 marker-combinatorics", overlap_words == 0 and failures == 0,
           f"overlapping words {overlap_words}, partition failures {failures}")


# -- A02 ---------------------------------------------------------------------

def _sample_long(m, total: int, label: str) -> np.ndarray:
    seeds = sl.SeedStream(SEED)
    chunks = []
    step = 2 * 10 ** 6
    for lo in range(0, total, step):
        hi = min(lo + step, total) - 1
        chunks.append(np.asarray(
            sl.sample_window(m, (lo, hi), seeds, label=label).values))
    return np.concatenate(chunks)


def _good_block_freq(bits: np.ndarray) -> float:
    n_blocks = len(bits) // 8
    blocks = bits[:n_blocks * 8].reshape(n_blocks, 8)
    good = np.zeros(n_blocks, dtype=bool)
    for g in ((0, 1, 1, 0, 1, 0, 1, 1), (0, 1, 1, 1, 0, 0, 1, 1)):
        good |= (blocks == np.array(g, dtype=np.uint8)).all(axis=1)
    return float(good.mean())


def test_a02_good_block_probability():
    n_blocks = 10 ** 6
    bits = _sample_long(sl.iid_binary(0.5), 8 * n_blocks, "a02-fair")
    freq = _good_block_freq(bits)
    p = 1 / 128
    sigma = math.sqrt(p * (1 - p) / n_blocks)
    ok_fair = abs(freq - p) < 4 * sigma
    report("A02a good-blocks-fair", ok_fair,
           f"freq {freq:.6f} vs 1/128 {p:.6f}, 4 sigma {4 * sigma:.2e}")

    m = sl.make_nu_c(1 / 6)
    bits = _sample_long(m, 8 * n_blocks, "a02-nu")
    freq = _good_block_freq(bits)
    delta = sl.doeblin_delta(m.block(0, 8 * n_blocks))
    assert delta == pytest.approx(1 / 3, abs=1e-12)
    sigma = math.sqrt(freq * (1 - freq) / n_blocks)
    ok = freq >= delta ** 8 - 4 * sigma
    report("A02b good-blocks-doeblin", ok,
           f"freq {freq:.6f} >= delta^8 {delta ** 8:.3e} - 4 sigma")


# -- A03 ---------------------------------------------------------------------

def test_a03_meshalkin_oracle_equivalence():
    failures = 0
    for L in range(1, 15):
        for word in itertools.product("ab", repeat=L):
            letters = "".join(word)
            z = oracles.from_letters(0, letters)
            for d in (1, 2, 3):
                got = oracles.pairs(sl.meshalkin_match(z, d))
                if got != oracles.match_oracle(letters, d)[0]:
                    failures += 1
                    continue
                for m, c in enumerate(letters):
                    if c != "b":
                        continue
                    r = oracles.matching_radius(z, d, m)
                    matched = m in got
                    if (r is None) == matched:
                        failures += 1
                    elif matched and got[m] - m > r:
                        failures += 1
    report("A03 meshalkin-oracle", failures == 0, f"failures {failures}")


# -- A04 ---------------------------------------------------------------------

def test_a04_monotone_coupling():
    rng = np.random.default_rng(SEED)
    d = 2
    violations = 0
    for _ in range(10 ** 4):
        isa = rng.random(64) < 0.15
        z = sl.Window(0, isa)
        z2 = oracles.flip_coupling(z, 0.3, rng)
        assert sl.dominates(z, z2)
        m1 = oracles.pairs(sl.meshalkin_match(z, d))
        m2 = oracles.pairs(sl.meshalkin_match(z2, d))
        for b, a in m1.items():
            if z2.values[b]:
                continue
            if b not in m2 or m2[b] - b > a - b:
                violations += 1
    report("A04 lemma8-monotonicity", violations == 0,
           f"violations {violations} over 10^4 coupled pairs")


# -- A05 ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def extracted_bits():
    w = sl.sample_window(sl.iid_binary(0.3), (0, 10 ** 6 - 1),
                         sl.SeedStream(SEED), label="a05")
    return w.values[sl.special_sequence(w).values]


def test_a05a_fair_bit_chi_square(extracted_bits):
    from shiftlab.factor import bias_square_terms
    m = sl.iid_binary(0.3)
    summand = float(np.sum(bias_square_terms(m.block(-100, 202), 100)))
    assert summand == 0.0  # stationarity makes the bond bias exactly zero
    _, p = oracles.chi_square_fair_bits(extracted_bits)
    report("A05a fair-bits-chi-square", p > 0.001,
           f"{len(extracted_bits)} bits, p {p:.4f} vs 0.001")


@pytest.mark.xfail(strict=False, reason=(
    "tolerance defect: ~9,000 extracted bits give the lag correlations a "
    "standard error of ~0.0105, above the stated 0.01 threshold; a correct "
    "implementation fails this with probability ~0.96 (decisions ledger)"))
def test_a05b_fair_bit_lag_correlations(extracted_bits):
    rs = serial_correlations(extracted_bits, 8)
    worst = float(np.max(np.abs(rs)))
    report("A05b fair-bits-lag-corr", worst < 0.01,
           f"max |r| {worst:.4f} vs 0.01, n {len(extracted_bits)}, "
           f"1 sigma {1 / math.sqrt(len(extracted_bits)):.4f}")


# -- A06 ---------------------------------------------------------------------

def test_a06_bias_square_sum_converges():
    from shiftlab.factor import bias_square_terms
    from shiftlab.measures import sum_with_tail
    p = sl.make_nu_c(1 / 6).block(-10 ** 6, 2 * 10 ** 6 + 2)
    value, tail = sum_with_tail(bias_square_terms(p, 10 ** 6))
    ok = abs(tail) < 1e-4 * value
    report("A06 eq2-diagnostic", ok,
           f"total {value:.6f}, last-decade {tail:.2e}")


# -- A07 ---------------------------------------------------------------------

def test_a07_full_factor_pipeline():
    _, d = sl.run_iid_factor(sl.iid_binary(0.3), (0, 10 ** 6 - 1),
                             sl.SeedStream(SEED))
    tests_ok = all(t["pass"] for t in d["tests"])
    censor_ok = d["censor_fraction"] < 0.05
    detail = ", ".join(
        f"{t['name']}={t['statistic']:.4g}" for t in d["tests"])
    report("A07 factor-pipeline", tests_ok and censor_ok,
           f"censor {d['censor_fraction']:.3%}, q {d['q']:.5f}, "
           f"d {d['d']}, {detail}")


# -- A08 ---------------------------------------------------------------------

def test_a08_pushforward_exactness():
    hspec = sl.HMapSpec(LAM, LAMP)
    assert hspec.p == pytest.approx(0.5, abs=1e-15)
    worst = 0.0
    for n in (-2, 0, 1, 2, 5, 9):
        edges, vals = g_pieces(hspec, n)
        mass = float(np.dot(vals, np.diff(edges)))
        assert mass == pytest.approx(1.0, abs=1e-12)
        for lo, hi in zip(edges[:-1], edges[1:]):
            if hi - lo < 1e-12:
                continue
            for v in (lo + 0.3 * (hi - lo), lo + 0.7 * (hi - lo)):
                diff = abs(float(oracles.pushforward_density(hspec, n, v))
                           - float(sl.g_family(hspec).density(n, v)))
                worst = max(worst, diff)
    symbolic_ok = worst <= 1e-12

    n, N = 5, 10 ** 6
    u = oracles.sample_density_iid(sl.f_family(hspec.family()), n, N,
                                   sl.SeedStream(SEED))
    v = sl.h_apply(hspec, u)
    edges, vals = g_pieces(hspec, n)
    counts, _ = np.histogram(v, bins=edges)
    probs = vals * np.diff(edges)
    mc_ok = True
    for c, pr in zip(counts, probs):
        se = math.sqrt(N * pr * (1 - pr))
        if abs(c - N * pr) > 3 * se + 1e-9:
            mc_ok = False
    report("A08 pushforward", symbolic_ok and mc_ok,
           f"max piecewise deviation {worst:.2e} vs 1e-12, "
           f"10^6-sample histogram within 3 SE per bin: {mc_ok}")


# -- A09 ---------------------------------------------------------------------

def test_a09_ratio_set_quantization():
    spec = sl.TypeIIISpec(LAM)
    hspec = sl.HMapSpec(LAM, LAMP)
    rng = np.random.default_rng(SEED)
    targets = np.array([LAMP, 1.0, 1.0 / LAMP])
    pieces = hspec.support_pieces()
    # pairs drawn one at a time until 10^4 ratios are defined; each batch
    # of draws is read with one array call
    ratios = np.empty(0)
    while len(ratios) < 10 ** 4:
        ns, vs = [], []
        for _ in range(10 ** 4 - len(ratios)):
            ns.append(int(rng.integers(-5, 80)))
            lo, hi = pieces[int(rng.integers(0, len(pieces)))]
            vs.append(float(rng.uniform(lo, hi)))
        r = sl.ratio_profile(hspec, np.array(ns), np.array(vs))
        ratios = np.concatenate([ratios, r[~np.isnan(r)]])
    worst_g = float(np.abs(targets - ratios[:, None]).min(axis=1).max())

    fam = sl.f_family(spec)
    log_lam = math.log(LAM)
    # the swaps are drawn one at a time, as (i, j) then (xi, xj), and read
    # with one array call
    ij, x = np.empty((10 ** 4, 2), dtype=np.int64), np.empty((10 ** 4, 2))
    for row in range(10 ** 4):
        ij[row] = rng.integers(-5, 80, size=2)
        x[row] = rng.random(2)
    val = oracles.log_rn_swap(fam, ij[:, 0], ij[:, 1], x[:, 0], x[:, 1])
    worst_swap = float(np.abs(val - np.round(val / log_lam) * log_lam).max())
    ok = worst_g <= 1e-9 and worst_swap <= 1e-9
    report("A09 ratio-quantization", ok,
           f"pushforward ratio deviation {worst_g:.2e}, "
           f"swap lattice deviation {worst_swap:.2e}, both vs 1e-9")


# -- A10 ---------------------------------------------------------------------

def test_a10_speedup_blocking():
    # round trips
    w = sl.sample_window(sl.iid_binary(0.5), (0, 599), sl.SeedStream(SEED))
    rt_ok = all(
        np.array_equal(oracles.unblock(sl.zeta(w, k)).values, w.values)
        for k in (1, 2, 3, 5))
    ws = [sl.sample_window(sl.iid_binary(0.5), (0, 99), sl.SeedStream(s))
          for s in (1, 2, 3)]
    back = oracles.de_interleave(sl.pi_interleave(ws))
    rt_ok = rt_ok and all(np.array_equal(a.values, b.values)
                          for a, b in zip(ws, back))

    # blocked law vs eta on all cylinders of length <= 3, 4 sigma, 1e5 rows
    m = sl.make_nu_c(0.2)
    k, nblocks, M = 2, 3, 10 ** 5
    p0 = m.block(0, k * nblocks).values[:, 0]
    u = sl.SeedStream(SEED).generator("a10-blocking").random(
        (M, k * nblocks))
    bits = (u >= p0).astype(int)
    law_ok = True
    for start in range(nblocks):
        for length in range(1, nblocks - start + 1):
            sel = bits[:, k * start: k * (start + length)]
            width = k * length
            for pattern in range(2 ** width):
                digits = [(pattern >> (width - 1 - j)) & 1
                          for j in range(width)]
                pr = float(np.prod([p0[k * start + j] if dg == 0
                                    else 1 - p0[k * start + j]
                                    for j, dg in enumerate(digits)]))
                freq = float(np.mean(np.all(sel == digits, axis=1)))
                if abs(freq - pr) > 4 * math.sqrt(pr * (1 - pr) / M) + 1e-12:
                    law_ok = False

    # k = 1 sum identically zero; per-n bound for k in {2, 3}
    zero_ok = sl.block_kakutani_sum(m, 1, 1000)[0] == 0.0
    bound_ok = all(sl.block_kakutani_sum(m, k, 10 ** 4)[2].size == 0
                   for k in (2, 3))
    report("A10 speedup-blocking", rt_ok and law_ok and zero_ok and bound_ok,
           f"round-trips {rt_ok}, cylinder law {law_ok}, "
           f"k1-zero {zero_ok}, per-n bound {bound_ok}")


# -- A11 ---------------------------------------------------------------------

def test_a11_hellinger_lower_bound():
    c = 0.3
    fails = []
    for k in (1, 10, 100, 1000):
        S = oracles.hellinger_S(c, k, 10 * k)
        if S < c * c * (math.log(k) + 1.0):
            fails.append(k)
    report("A11 hellinger-bound", not fails,
           f"S(k, 0.3) >= 0.09 (log k + 1) for k in 1..1000; failures {fails}")


# -- A12 ---------------------------------------------------------------------

@pytest.mark.xfail(strict=False, reason=(
    "target defect: with the stated summand exp(-S/2), the increment of the "
    "partial sums between K = 10^3 and 10^4 is ~0.34 for c = 1.5, not "
    "< 10^-2; the stated target presumes the unattained harmonic lower "
    "bound for S (decisions ledger)"))
def test_a12a_dissipativity_cauchy():
    S, _ = sl.dissipativity_partial(1.5, 10 ** 4)
    inc = oracles.last_decade_increment(S)
    report("A12a dissipativity-cauchy", inc < 1e-2,
           f"partial-sum increment over [10^3, 10^4] = {inc:.4f} vs 1e-2")


@pytest.mark.xfail(strict=False, reason=(
    "target defect: the squared-increment sum grows like 2 c^2 log k, so "
    "the fitted tail exponent is close to -c^2; the stated -c^2/2 would "
    "require S ~ c^2 (log k + 1), which only bounds it from below "
    "(decisions ledger)"))
def test_a12b_dissipativity_tail_exponent():
    rows = []
    ok = True
    for c in (0.5, 1.0, 1.5):
        _, slope = sl.dissipativity_partial(c, 10 ** 4)
        target = -c * c / 2.0
        rows.append(f"c={c}: slope {slope:.4f} vs {target:.4f}")
        if abs(slope - target) > 0.05 * abs(target):
            ok = False
    report("A12b dissipativity-tail", ok, "; ".join(rows))


# -- A13 ---------------------------------------------------------------------

def test_a13_rpm_identities():
    # Example 15 formula, on a family with a clamped head
    p, qmix = 0.3, 0.6

    def bumpy(n):
        return np.where(n == 2, 3.0, sl.inverse_sqrt(n))

    m = sl.make_mu_pc(p, 1.0, bumpy)
    mixed = sl.rpm(m, qmix, (p, 1.0 - p))
    worst = 0.0
    for n in range(-100, 100):
        raw = p + bumpy(n)
        if 0 < raw < 1:
            worst = max(worst, abs(mixed.table(n)[0] - (p + qmix * bumpy(n))))
        else:
            worst = max(worst, abs(mixed.table(n)[0] - p))
    ex15_ok = worst <= 1e-15

    clean = sl.rpm_scaling_identity(0.3, 0.5, 0.4, 0.2, N=1000)
    clamped = sl.rpm_scaling_identity(0.45, 0.5, 1.2, 0.2, N=2000)
    ids_ok = (clean["identity_rescale"]["pass"]
              and clean["identity_thin"]["pass"]
              and clamped["identity_rescale"]["pass"]
              and clamped["identity_thin"]["pass"])
    mismatch = clamped["identity_rescale"]["clamp_mismatch"]
    finite_ok = 0 < len(mismatch) < 50
    report("A13 rpm-identities", ex15_ok and ids_ok and finite_ok,
           f"example-15 deviation {worst:.1e} vs 1e-15, scaling identities "
           f"max errors {clean['identity_rescale']['max_error']:.1e}/"
           f"{clean['identity_thin']['max_error']:.1e}, "
           f"clamp mismatches {mismatch}")


# -- A14 ---------------------------------------------------------------------

def test_a14_index_bracket():
    _, implied = sl.index_report(0.6, 5)
    bracket_ok = implied == 2
    idx = [sl.index_report(c, 6)[1]
           for c in (0.3, 0.45, 0.6, 0.75, 0.9, 1.1)]
    monotone_ok = all(b <= a for a, b in zip(idx, idx[1:]))
    report("A14 index-bracket", bracket_ok and monotone_ok,
           f"index(c=0.6) <= {implied} (want 2); "
           f"indices over rising c: {idx}")
