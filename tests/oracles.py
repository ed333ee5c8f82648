"""Slow, independent routes to what the library computes, for the tests to
check it against, and the references that only acceptance criteria and
their unit tests read.  None of these run in a lab command."""
import csv
import hashlib
import itertools
import math
from collections import Counter

import numpy as np
from numpy.random import Generator, Philox

from shiftlab.cli import emit_plot_data, write_csv
from shiftlab.markers import GOOD_BLOCKS, GOOD_WIDTH
from shiftlab.matching import MatchingAssignment, _ranges
from shiftlab.measures import (FiniteProductMeasure, ZeroMassError,
                               _log_mass, nu_c_zero_mass)
from shiftlab.sampling import (_BLOCK, _COUNTER_OFFSET, Window,
                               _piecewise_inverse_cdf)
from shiftlab.stattests import chi_square_pooled
from shiftlab.typeiii import _REINDEX_SEARCH_LIMIT, f_family


# -- sampling -----------------------------------------------------------------

def uniforms_oneshot(seeds, label: str, start: int, count: int) -> np.ndarray:
    """``SeedStream.uniforms`` in one read: every double from the first
    coordinate's counter block on, through ``Generator.random``, keeping
    the ``count`` from its word onward."""
    block, skip = divmod(start + _COUNTER_OFFSET, _BLOCK)
    bg = Philox(key=seeds._key(label))
    bg.advance(block)
    u = Generator(bg).random(skip + count)
    return u[skip:, None].copy()


def sample_density_iid(d, n: int, count: int, seeds,
                       label: str = "density-iid") -> np.ndarray:
    """Many independent draws from the single density at index n."""
    # the generator key SeedStream.generator builds, at index n
    u = Generator(Philox(key=seeds._key(f"{label}#{n}"))).random(count)
    return _piecewise_inverse_cdf(*d.table(n), u)


# -- matching -----------------------------------------------------------------

def from_letters(start: int, word: str) -> Window:
    """The {a, b} sequence written in the paper's notation, e.g. "abba",
    as a bool window anchored at ``start``."""
    if set(word) - {"a", "b"}:
        raise ValueError("word must be over {a, b}")
    isa = np.frombuffer(word.encode(), dtype=np.uint8) == ord("a")
    return Window(start, isa)


def flip_coupling(z, prob: float, rng: np.random.Generator) -> Window:
    """Monotone coupling: flip each b of z to a independently with the given
    probability.  The result dominates z by construction."""
    isa = z.values.copy()
    bs = np.flatnonzero(~isa)
    isa[bs[rng.random(len(bs)) < prob]] = True
    return Window(z.start, isa)


def slots_oracle(b_indices, a_indices) -> list[int]:
    """Each row's tuple slot, counting each a's partners one by one in
    ascending b order from slot 1."""
    seen, slot_of = Counter(), {}
    for b, a in sorted(zip(b_indices, a_indices)):
        seen[a] += 1
        slot_of[b] = seen[a]
    return [slot_of[b] for b in b_indices]


def match_oracle(letters: str, d: int):
    """Literal inductive simulation: match each surviving b immediately
    followed by a surviving a, drop matched b's and saturated a's, repeat.
    Returns b -> a, b -> its round (from 1), b -> its slot and the
    unmatched b's."""
    partner, round_of = {}, {}
    mult = {i: 0 for i, c in enumerate(letters) if c == "a"}
    active = list(range(len(letters)))
    for rnd in itertools.count(1):
        pairs = [(m, n) for m, n in zip(active, active[1:])
                 if letters[m] == "b" and letters[n] == "a"]
        if not pairs:
            unmatched = [i for i, c in enumerate(letters)
                         if c == "b" and i not in partner]
            slot_of = dict(zip(partner, slots_oracle(partner,
                                                     partner.values())))
            return partner, round_of, slot_of, unmatched
        for m, n in pairs:
            partner[m] = n
            round_of[m] = rnd
            mult[n] += 1
        gone = {m for m, _ in pairs} | {n for n in mult if mult[n] >= d}
        active = [i for i in active if i not in gone]


def full_scan_match(z, d: int):
    """``matching.meshalkin_match`` without the idle a's cut: the stack
    loop over every a of the sequence."""
    isa = z.values
    stack: list[list[int]] = []
    a_pos = np.flatnonzero(isa)
    los, his, tops, ranks = [], [], [], []
    prev = -1
    for r, a in enumerate(a_pos.tolist()):
        if a > prev + 1:
            stack.append([prev + 1, a, 0])
        prev = a
        need, base = d, 0
        while need and stack:
            run = stack[-1]
            lo, hi, carry = run
            base = max(base, carry)
            k = min(need, hi - lo)
            los.append(hi - k)
            his.append(hi)
            tops.append(base + hi)
            ranks.append(r)
            base += k
            need -= k
            if k < hi - lo:
                run[1] = hi - k
            else:
                stack.pop()
        if stack:
            stack[-1][2] = max(stack[-1][2], base)
    ends = np.array([run[:2] for run in stack] + [[prev + 1, len(isa)]],
                    dtype=np.int64)
    unmatched = _ranges(ends[:, 0], ends[:, 1] - ends[:, 0])
    los, his, tops, ranks = (np.array(x, dtype=np.int64)
                             for x in (los, his, tops, ranks))
    order = np.argsort(los)
    return MatchingAssignment(
        d=d, a_positions=a_pos + z.start, unmatched=unmatched + z.start,
        run_starts=los[order] + z.start, run_lengths=(his - los)[order],
        run_ranks=ranks[order], run_tops=tops[order] + z.start)


def matching_radius(z, d: int, m: int) -> int | None:
    """Least k >= 1 with W_m + ... + W_{m+k} >= 0 for the -1/+d walk,
    or None (censored) if the window ends first."""
    isa = z.values
    rel = m - z.start
    if not 0 <= rel < len(isa):
        raise IndexError(f"index {m} outside the sequence")
    if isa[rel]:
        raise ValueError(f"index {m} is an a, not a b")
    w = np.where(isa[rel:], d, -1).astype(np.int64)
    sums = np.cumsum(w)
    hits = np.flatnonzero(sums[1:] >= 0)
    return int(hits[0]) + 1 if len(hits) else None


def ranks_of(assignment) -> np.ndarray:
    """Each matched b's a as a rank among the a's, in ascending b order."""
    return np.repeat(assignment.run_ranks, assignment.run_lengths)


def slots_of(assignment) -> np.ndarray:
    """Each matched b's tuple slot, in ascending b order, from a per-a
    counter over its partners (``slots_oracle``)."""
    return np.array(slots_oracle(assignment.b_indices.tolist(),
                                 assignment.a_indices.tolist()),
                    dtype=np.int64)


def match_csvs_oracle(w, assignment, out_dir) -> None:
    """``match run``'s files from whole columns into ``out_dir``: the
    window as ``window.csv`` with its int64 index column, one int64 row
    per matched b as ``matching_assignment.csv``, and the histogram of
    their radii a - b by one ``bincount``."""
    write_csv(out_dir / "window.csv", ("index", "value"),
              (np.arange(w.start, w.stop), w.values))
    b, a = assignment.b_indices, assignment.a_indices
    write_csv(out_dir / "matching_assignment.csv",
              ("b_index", "a_index", "round"), (b, a, assignment.rounds))
    hist = np.bincount(a - b) if len(b) else np.zeros(1, int)
    radii = np.flatnonzero(hist)
    emit_plot_data({"radius_histogram": (radii, hist[radii])},
                   out_dir / "radius_histogram.csv")


def pairs(assignment) -> dict[int, int]:
    """The assignment as a map b -> a."""
    return dict(zip(assignment.b_indices.tolist(),
                    assignment.a_indices.tolist()))


def multiplicity(assignment) -> dict[int, int]:
    """The number of partners of each matched a."""
    return dict(Counter(assignment.a_indices.tolist()))


# -- factor -------------------------------------------------------------------

def window_uniforms_oracle(bits, radius: int, key: bytes) -> np.ndarray:
    """``factor._window_uniforms`` one window at a time: a fresh keyed
    blake2b per packed window, read as a Python int."""
    W = 2 * radius + 1
    wins = np.lib.stride_tricks.sliding_window_view(bits, W)
    packed = np.packbits(wins, axis=1)
    out = np.empty(len(packed))
    for i in range(len(packed)):
        h = hashlib.blake2b(packed[i].tobytes(), digest_size=8,
                            key=key).digest()
        out[i] = (int.from_bytes(h, "little") >> 11) * 2.0 ** -53
    return out


def tuple_matrix(split, d: int) -> np.ndarray:
    """The (K, d+1) uint8 tuple matrix a ``SplitTuples`` stands for: ones
    in the valid rows but at the recorded zeros, and zeros in the
    censored rows."""
    out = np.zeros((len(split.valid), d + 1), dtype=np.uint8)
    out[split.valid] = 1
    out[split.ranks, split.slots] = 0
    return out


def decode_tuples_oracle(u: np.ndarray, beta0: float,
                         out: np.ndarray) -> None:
    """The tuples of ``factor._decode_tuples`` slot by slot: a column loop
    over every row and ``out.shape[1]`` slots, ``out`` filled with ones and
    only the zeros written and rescaled by 1/beta0."""
    out.fill(1)
    uu, nxt = u.copy(), np.empty_like(u)
    zero = np.empty(len(u), dtype=bool)
    rest = 1.0 - beta0
    for j in range(out.shape[1]):
        np.less(uu, beta0, out=zero)
        np.subtract(uu, beta0, out=nxt)
        np.divide(nxt, rest, out=nxt)
        at = np.flatnonzero(zero)
        if len(at):
            out[at, j] = 0
            nxt[at] = uu[at] / beta0
        uu, nxt = nxt, uu

def decode_exact(u: float, beta0: float, dplus1: int) -> list:
    """The zero slots of the sequential inverse CDF of
    Bernoulli(1-beta0)^dplus1 at the double ``u``, run in exact rational
    arithmetic on ``u`` and ``beta0`` as their doubles: the running
    uniform is the integer ratio n / m, left unreduced, so no step pays
    for a gcd."""
    p, q = beta0.as_integer_ratio()
    n, m = float(u).as_integer_ratio()
    zeros = []
    for j in range(dplus1):
        if n * q < p * m:              # uu < beta0: a zero, uu / beta0
            zeros.append(j)
            n, m = n * q, m * p
        else:                          # a one, (uu - beta0) / (1 - beta0)
            n, m = n * q - p * m, m * (q - p)
    return zeros

# -- markers and measures -----------------------------------------------------

def block_oracle(m, start: int, length: int) -> np.ndarray:
    """The (L, A) marginals at start .. start+length-1 in one ``table``
    call over the whole index array, as a contiguous array."""
    return np.ascontiguousarray(m.table(np.arange(start, start + length)))


def kakutani_terms_oracle(m, k: int, N: int) -> np.ndarray:
    """(marginal(n)(0) - marginal(n-k)(0))^2 for n = -N .. N from two
    whole-array tables."""
    n = np.arange(-N, N + 1)
    return (m.table(n)[:, 0] - m.table(n - k)[:, 0]) ** 2


def bias_square_terms_oracle(m, N: int) -> np.ndarray:
    """(r_i - 1/2)^2 for i = -N .. N over whole arrays; raises
    ``ZeroMassError`` at the first degenerate bond."""
    p0 = m.table(np.arange(-N, N + 2))[:, 0]
    p01 = p0[:-1] * (1.0 - p0[1:])
    p10 = (1.0 - p0[:-1]) * p0[1:]
    den = p01 + p10
    if np.any(den == 0.0):
        i = -N + int(np.argwhere(den == 0.0)[0][0])
        raise ZeroMassError(f"degenerate marginals at bond ({i}, {i + 1})")
    return (p01 / den - 0.5) ** 2


def good_prob(m, i: int) -> float:
    """Exact product-measure probability that the 8-block starting at i is
    good (sum over the two admissible blocks)."""
    p = m.block(i, GOOD_WIDTH).values
    total = 0.0
    for g in GOOD_BLOCKS:
        total += float(np.prod(p[np.arange(GOOD_WIDTH), list(g)]))
    return total


def decompose_oracle(w) -> dict:
    """The paper's marker/filler partition of a window, by a loop over the
    markers, in tuples of Python ints: inclusive (lo, hi) intervals of
    absolute indices, the (initial index, bit) of each special filler, the
    censored edge intervals with their (left, right) flags, and
    ``intervals``, every interval as (label, lo, hi) in index order."""
    values = np.asarray(w.values).tolist()
    start, n = w.start, len(values)
    mk = [j for j in range(n - 2)
          if (values[j], values[j + 1], values[j + 2]) == (0, 1, 1)]
    if not mk:
        markers, fillers, special = (), (), ()
        flags = (True, True)
        censored = ((start, start + n - 1),) if n else ()
    else:
        markers = tuple((start + s, start + s + 2) for s in mk)
        fillers, special = [], []
        for (a_lo, a_hi), (b_lo, _) in zip(markers[:-1], markers[1:]):
            if b_lo - a_hi <= 1:
                continue
            gap = (a_hi + 1, b_lo - 1)
            fillers.append(gap)
            if gap[1] - gap[0] == 1:
                x0, x1 = values[gap[0] - start], values[gap[1] - start]
                if (x0, x1) == (1, 0):
                    special.append((gap[0], 1))
                elif (x0, x1) == (0, 1):
                    special.append((gap[0], 0))
        fillers, special = tuple(fillers), tuple(special)
        censored = []
        left = markers[0][0] > start
        if left:
            censored.append((start, markers[0][0] - 1))
        right = markers[-1][1] < start + n - 1
        if right:
            censored.append((markers[-1][1] + 1, start + n - 1))
        flags, censored = (left, right), tuple(censored)
    two = {(p, p + 1) for p, _ in special}
    labels = [("marker", *iv) for iv in markers]
    labels += [("special" if iv in two else "filler", *iv) for iv in fillers]
    labels += [("censored", *iv) for iv in censored]
    labels.sort(key=lambda t: t[1])
    return {"markers": markers, "fillers": fillers, "special": special,
            "boundary_flags": flags, "censored": censored,
            "intervals": labels}


def log_rn_shift_oracle(m, k: int, w) -> float:
    """``log_rn_shift`` one coordinate at a time: a running total of
    math.log(m_{n-k}(x_n)) - math.log(m_n(x_n)) in index order."""
    total = 0.0
    for n, x in zip(range(w.start, w.stop), w.values):
        num, den = float(m.density(n - k, x)), float(m.density(n, x))
        if num <= 0.0 or den <= 0.0:
            raise ZeroMassError(f"zero mass at index {n} (symbol {x!r})")
        total += math.log(num) - math.log(den)
    return total


def log_rn_swap(m, i, j, xi, xj) -> float | np.ndarray:
    """Log RN derivative of the transposition (i j) at values (xi, xj):
    log[m_i(xj) m_j(xi)] - log[m_i(xi) m_j(xj)], broadcast over the four
    arguments and exactly 0 where i == j, whose masses are never read (a
    float for scalar arguments)."""
    i, j, xi, xj = np.broadcast_arrays(i, j, xi, xj)
    val = np.zeros(i.shape)
    moved = i != j
    i, j, xi, xj = i[moved], j[moved], xi[moved], xj[moved]
    val[moved] = _log_mass(m, i, xj) + _log_mass(m, j, xi) \
        - _log_mass(m, i, xi) - _log_mass(m, j, xj)
    return float(val) if val.ndim == 0 else val


def log_rn_swap_oracle(m, i: int, j: int, xi, xj) -> float:
    """``log_rn_swap`` at one pair, from four scalar reads."""
    if i == j:
        return 0.0
    vals = [float(m.density(i, xj)), float(m.density(j, xi)),
            float(m.density(i, xi)), float(m.density(j, xj))]
    if any(v <= 0.0 for v in vals):
        raise ZeroMassError(f"zero mass in swap ({i} {j})")
    return math.log(vals[0]) + math.log(vals[1]) \
        - math.log(vals[2]) - math.log(vals[3])


def ri(m, p: float, alpha) -> FiniteProductMeasure:
    """Random insertion: the coin that decides "keep or replace" is kept in
    the output, which therefore lives on the 2A symbols (a, H) = a and
    (a, T) = A + a, with mass(n)(a, H) = p * m_n(a) and
    mass(n)(a, T) = (1-p) * alpha(a)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    av = np.asarray(alpha, dtype=float)
    if len(av) != m.table(0).shape[-1]:
        raise ValueError("alpha must live on the same alphabet")

    def marginals(n) -> np.ndarray:
        base = m.table(n)
        return np.concatenate(
            [p * base, np.broadcast_to((1.0 - p) * av, base.shape)], axis=-1)

    return FiniteProductMeasure(marginals)


def forget_coin(mri) -> FiniteProductMeasure:
    """Marginalize the {H, T} coordinate of a random-insertion measure.

    The result agrees exactly with the corresponding RPM measure, which is
    how the "RPM is a measure-preserving factor of RI" identity is checked.
    """
    def marginals(n) -> np.ndarray:
        full = mri.table(n)
        half = full.shape[-1] // 2
        return full[..., :half] + full[..., half:]

    return FiniteProductMeasure(marginals)


def block_law_oracle(p0, p1) -> np.ndarray:
    """The joint law of one block, pattern by pattern: a running product
    over the symbols, bit j of the pattern (first symbol most significant)
    choosing P(1) over P(0)."""
    k = len(p0)
    law = np.empty(2 ** k)
    for b in range(2 ** k):
        pr = 1.0
        for j in range(k):
            pr *= p1[j] if (b >> (k - 1 - j)) & 1 else p0[j]
        law[b] = pr
    return law


def check_decay(a, lo: int, hi: int) -> bool:
    """Loose decay probe: |a| at the range ends is <= its interior max."""
    vals = np.abs(a(np.arange(lo, hi + 1)))
    if len(vals) < 3:
        return True
    return bool(max(vals[0], vals[-1]) <= vals.max() + 1e-15)


# -- speedups -----------------------------------------------------------------

def unblock(bw) -> Window:
    """The base window of an (N, k) blocked window."""
    return Window(bw.start * bw.values.shape[1], bw.values.reshape(-1))


def de_interleave(bw) -> list[Window]:
    """The k windows an (N, k) interleaved window was built from."""
    return [Window(bw.start, bw.values[:, i].copy())
            for i in range(bw.values.shape[1])]


def hellinger_S(c: float, k: int, N: int) -> float:
    """Sum over |n| <= N of (a_{n-k}(c) - a_n(c))^2 for the half-stationary
    perturbation a_n(c) = c/sqrt(n) (active for n >= 1 while below 1/2),
    summed term by term: the reference for the FFT route of
    ``speedups.dissipativity_partial``."""
    if k == 0:
        return 0.0
    n = np.arange(-N, N + 1)
    return float(np.sum((nu_c_zero_mass(n - k, c) - nu_c_zero_mass(n, c)) ** 2))


def last_decade_increment(S: np.ndarray) -> float:
    """partial(K) - partial(K // 10) of the partial sums of exp(-S(k)/2),
    k = 1..K, where S is the first value ``dissipativity_partial`` returns."""
    partial = np.cumsum(np.exp(-S / 2.0))
    return float(partial[-1] - partial[max(len(S) // 10, 1) - 1])


def gamma_marginal(p: float, a, c: float, k: int, n: int) -> np.ndarray:
    """Marginal of the k-dilated family: p + c a_{kn}, or p where that
    leaves the open interval (0, 1), like the base family."""
    v = p + c * a(k * n)
    m0 = v if 0.0 < v < 1.0 else p
    return np.array([m0, 1.0 - m0])


# -- type III -----------------------------------------------------------------

def pushforward_density(hspec, n: int, v) -> np.ndarray:
    """Density of h(U) for U distributed per the re-indexed base family:
    sum of f(u)/|h'(u)| over the at most two preimage branches.  This
    change-of-variables route is independent of the ``g_pieces`` listing
    and serves as its cross-check."""
    v = np.asarray(v, dtype=float)
    f = f_family(hspec.family()).density
    a1, p, lam = hspec.a1, hspec.p, hspec.lam
    out = np.zeros_like(v)

    # identity branch wherever v itself lies outside the two slanted domains
    hi = 1.0 - lam * a1
    in_b1_dom = (v > a1) & (v < a1 + p * a1)
    in_b2_dom = (v > hi - p * a1) & (v < hi)
    ident = ~(in_b1_dom | in_b2_dom)
    out[ident] += f(n, v[ident])

    # branch 1 preimage: v in (0, a1)  <-  u = a1 + p v, |h'| = 1/p
    img1 = (v > 0.0) & (v < a1)
    u1 = a1 + p * v[img1]
    out[img1] += f(n, u1) * p

    # branch 2 preimage: v in (1 - lam a1, 1)  <-  u = hi - p (v - hi)/lam
    img2 = (v > hi) & (v < 1.0)
    u2 = hi - p * (v[img2] - hi) / lam
    out[img2] += f(n, u2) * (p / lam)
    return out


def reindex_oracle(lam: float, lam_prime: float) -> tuple[float, int, float]:
    """``HMapSpec``'s (p, shift, a1) by the scalar search it replaced: the
    least s with 0 < a(1 + s) (1 + p) < 1/2, a(n) = 1/((n+4) log(n+4)) for
    n >= 2 and 0 below, written with ``math.log``."""
    p = (lam_prime - lam) / (1.0 - lam_prime)
    for s in range(_REINDEX_SEARCH_LIMIT):
        n = 1 + s
        head = 1.0 / ((n + 4) * math.log(n + 4)) if n >= 2 else 0.0
        if head > 0 and head * (1.0 + p) < 0.5:
            return p, s, head
    raise ValueError("no admissible re-indexing found")


# -- statistics ---------------------------------------------------------------

def chi_square_fair_bits(bits) -> tuple[float, float]:
    """Chi-square of a bit vector against the fair coin: (stat, p_value)."""
    bits = np.asarray(bits)
    n = len(bits)
    ones = int(bits.sum())
    stat, p, _ = chi_square_pooled([n - ones, ones], [n / 2, n / 2])
    return stat, p


# -- command line -------------------------------------------------------------

def parse_plot_data(path) -> dict[str, list[tuple[float, float]]]:
    """Read back a ``series,x,y`` plot-data CSV as named (x, y) series."""
    out: dict[str, list[tuple[float, float]]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["series", "x", "y"]:
            raise ValueError(f"unexpected plot-data header {header!r}")
        for name, x, y in reader:
            out.setdefault(name, []).append((float(x), float(y)))
    return out
